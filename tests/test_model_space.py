import math

import numpy as np
import pytest

from magcurves import model_space as ms
from magcurves.verify import _nabla_phi_sides
from conftest import SIG_GRID, assert_same_bits
from oracles import metric_matrix


def rand_vec(sig, rng, scale=2.0):
    """A random point, or tangent vector, of the model space."""
    return rng.normal(scale=scale, size=sig.dim)


def reeb(sig, alpha):
    """xi_alpha = 2 d/dz_alpha (alpha is 1-based)."""
    xi = np.zeros(sig.dim)
    xi[2 * sig.n + alpha - 1] = 2.0
    return xi


def g(sig, p, u, v):
    return float(ms.inner(sig, p, u, v))


# ---------------------------------------------------------------------------
# types
# ---------------------------------------------------------------------------

def test_signature_validation():
    with pytest.raises(ValueError):
        ms.SpaceSignature(0, 1)
    with pytest.raises(ValueError):
        ms.SpaceSignature(1, 0)
    with pytest.raises(ValueError):
        ms.SpaceSignature(1.5, 1)
    # bool is an int subclass: True would build a dim = 3 space
    for n, s in ((True, True), (True, 1), (1, True), (2, False)):
        with pytest.raises(ValueError):
            ms.SpaceSignature(n, s)
    assert ms.SpaceSignature(2, 3).dim == 7


# ---------------------------------------------------------------------------
# metric
# ---------------------------------------------------------------------------

def test_metric_hand_values():
    sig = ms.SpaceSignature(1, 1)
    p = np.zeros(sig.dim)
    xi1 = reeb(sig, 1)
    assert g(sig, p, xi1, xi1) == pytest.approx(1.0, abs=1e-15)

    dx = np.array([1.0, 0.0, 0.0])
    dz = np.array([0.0, 0.0, 1.0])
    assert g(sig, p, dx, dz) == 0.0

    # with y_1 = 2 the dx direction picks up the contact-form square
    p2 = np.array([0.0, 2.0, 0.0])
    assert g(sig, p2, dx, dx) == pytest.approx(1.25, abs=1e-15)


def test_metric_hand_value_against_arclength_oracle():
    # arc length of the coordinate line t -> (t, 0, 0) shifted to y=2,
    # measured by finite differences, matches sqrt(g(dx, dx))
    sig = ms.SpaceSignature(1, 1)
    p = np.array([0.0, 2.0, 0.0])
    h = 1e-6
    # straight coordinate segment: secant length from the quadratic form
    seg = np.array([h, 0.0, 0.0])
    length = np.sqrt(float(seg @ metric_matrix(sig, p) @ seg)) / h
    assert length == pytest.approx(np.sqrt(1.25), rel=1e-12)


@pytest.mark.parametrize("n,s", SIG_GRID)
def test_metric_matrix_positive_definite_and_consistent(n, s):
    sig = ms.SpaceSignature(n, s)
    rng = np.random.default_rng(11)
    for _ in range(20):
        p = rand_vec(sig, rng)
        gm = metric_matrix(sig, p)
        np.linalg.cholesky(gm)  # raises if not positive definite
        assert np.allclose(gm, gm.T, atol=0)
        u = rng.normal(size=sig.dim)
        v = rng.normal(size=sig.dim)
        assert float(u @ gm @ v) == pytest.approx(g(sig, p, u, v), abs=1e-13)
        ginv = ms.inverse_metric_matrix(sig, p)
        assert np.abs(gm @ ginv - np.eye(sig.dim)).max() < 1e-12


# ---------------------------------------------------------------------------
# structure operators
# ---------------------------------------------------------------------------

def test_phi_kills_reeb_fields():
    sig = ms.SpaceSignature(2, 3)
    p = np.zeros(sig.dim)
    for alpha in range(1, 4):
        out = ms.phi_comps(sig, p, reeb(sig, alpha))
        assert np.all(out == 0.0)


def test_phi_maps_y_to_x_at_origin():
    sig = ms.SpaceSignature(1, 1)
    out = ms.phi_comps(sig, np.zeros(sig.dim), np.array([0.0, 2.0, 0.0]))
    assert np.allclose(out, [2.0, 0.0, 0.0], atol=0)


@pytest.mark.parametrize("n,s", SIG_GRID)
def test_phi_squared_identity(n, s):
    sig = ms.SpaceSignature(n, s)
    rng = np.random.default_rng(5)
    for _ in range(50):
        p = rand_vec(sig, rng)
        X = rand_vec(sig, rng)
        phi2 = ms.phi_comps(sig, p, ms.phi_comps(sig, p, X))
        expected = -X.copy()
        etas = ms.eta_comps(sig, p, X)
        for alpha in range(s):
            expected += etas[alpha] * reeb(sig, alpha + 1)
        assert np.abs(phi2 - expected).max() < 1e-12


@pytest.mark.parametrize("n,s", SIG_GRID)
def test_phi_metric_compatibility(n, s):
    sig = ms.SpaceSignature(n, s)
    rng = np.random.default_rng(6)
    for _ in range(50):
        p = rand_vec(sig, rng)
        X, Y = rand_vec(sig, rng), rand_vec(sig, rng)
        lhs = g(sig, p, ms.phi_comps(sig, p, X), ms.phi_comps(sig, p, Y))
        rhs = g(sig, p, X, Y) - float(np.sum(ms.eta_comps(sig, p, X) * ms.eta_comps(sig, p, Y)))
        assert abs(lhs - rhs) < 1e-12


def test_eta_hand_value():
    sig = ms.SpaceSignature(1, 1)
    p = np.array([0.0, -np.sqrt(3.0), 0.0])
    X = np.array([np.sqrt(3.0), 0.0, -2.0])
    assert ms.eta_comps(sig, p, X)[0] == pytest.approx(0.5, abs=1e-15)


@pytest.mark.parametrize("n,s", SIG_GRID)
def test_eta_dualities(n, s):
    sig = ms.SpaceSignature(n, s)
    rng = np.random.default_rng(7)
    p = rand_vec(sig, rng)
    for alpha in range(1, s + 1):
        vals = ms.eta_comps(sig, p, reeb(sig, alpha))
        expected = np.zeros(s)
        expected[alpha - 1] = 1.0
        assert np.abs(vals - expected).max() < 1e-15
    for _ in range(20):
        X = rand_vec(sig, rng)
        assert np.abs(ms.eta_comps(sig, p, ms.phi_comps(sig, p, X))).max() < 1e-12
        for alpha in range(1, s + 1):
            assert ms.eta_comps(sig, p, X)[alpha - 1] == pytest.approx(
                g(sig, p, X, reeb(sig, alpha)), abs=1e-13
            )


def test_xi_components_and_range():
    # the frame's last s columns are the Reeb fields, unit length everywhere
    sig = ms.SpaceSignature(1, 1)
    assert np.allclose(ms.frame_matrix(sig, np.zeros(sig.dim))[:, 2], [0.0, 0.0, 2.0], atol=0)
    rng = np.random.default_rng(3)
    for _ in range(5):
        p = rand_vec(sig, rng)
        x = ms.frame_matrix(sig, p)[:, 2]
        assert np.all(x == reeb(sig, 1))
        assert g(sig, p, x, x) == pytest.approx(1.0, abs=1e-14)


@pytest.mark.parametrize("n,s", SIG_GRID)
def test_orthonormal_frame(n, s):
    sig = ms.SpaceSignature(n, s)
    rng = np.random.default_rng(n * 10 + s)
    for _ in range(100 // len(SIG_GRID) + 1):
        p = rand_vec(sig, rng)
        F = ms.frame_matrix(sig, p)
        gram = np.array([[g(sig, p, F[:, a], F[:, b]) for b in range(sig.dim)]
                         for a in range(sig.dim)])
        assert np.abs(gram - np.eye(sig.dim)).max() < 1e-12
        # phi sends X_i to X_{n+i}
        for i in range(n):
            assert np.abs(ms.phi_comps(sig, p, F[:, i]) - F[:, n + i]).max() < 1e-13


@pytest.mark.parametrize("n,s", SIG_GRID)
def test_batched_frame_matrix_stacks_the_frames_of_its_points(n, s):
    sig = ms.SpaceSignature(n, s)
    pts = np.random.default_rng(n * 10 + s).normal(scale=2.0, size=(2, 3, sig.dim))
    batched = ms.frame_matrix(sig, pts)
    assert batched.shape == (2, 3, sig.dim, sig.dim)
    for i, j in np.ndindex(2, 3):
        assert np.array_equal(batched[i, j], ms.frame_matrix(sig, pts[i, j]))


@pytest.mark.parametrize("point", [
    [0.0, 0.0], [[0.0, 0.0]], np.zeros((2, 4)), 0.0, [0.0, math.nan, 0.0],
    [[0.0, 0.0, 0.0], [0.0, math.inf, 0.0]],
])
def test_frame_matrix_rejects_bad_points(point):
    with pytest.raises(ValueError, match="point must"):
        ms.frame_matrix(ms.SpaceSignature(1, 1), point)


def test_frame_at_origin():
    sig = ms.SpaceSignature(1, 1)
    F = ms.frame_matrix(sig, np.zeros(sig.dim))
    assert np.allclose(F[:, 1], [2.0, 0.0, 0.0], atol=0)  # X_{n+1} with y=0


# ---------------------------------------------------------------------------
# connection
# ---------------------------------------------------------------------------

def fd_christoffel(sig, coords, h=1e-5):
    """Independent oracle: Gamma from central differences of the metric."""
    d = sig.dim
    dg = np.zeros((d, d, d))
    for a in range(d):
        e = np.zeros(d)
        e[a] = h
        dg[a] = (metric_matrix(sig, coords + e) - metric_matrix(sig, coords - e)) / (2 * h)
    ginv = np.linalg.inv(metric_matrix(sig, coords))
    gamma = np.zeros((d, d, d))
    for k in range(d):
        for i in range(d):
            for j in range(d):
                acc = 0.0
                for ell in range(d):
                    acc += ginv[k, ell] * (dg[i][j, ell] + dg[j][i, ell] - dg[ell][i, j])
                gamma[k, i, j] = 0.5 * acc
    return gamma


@pytest.mark.parametrize("n,s", [(1, 1), (2, 1), (1, 2), (2, 2)])
def test_christoffel_against_fd_oracle(n, s):
    sig = ms.SpaceSignature(n, s)
    rng = np.random.default_rng(42)
    for _ in range(5):
        p = rand_vec(sig, rng)
        exact = ms.christoffel_array(sig, p)
        approx = fd_christoffel(sig, p)
        assert np.abs(exact - approx).max() < 1e-6


@pytest.mark.parametrize("n,s", SIG_GRID)
def test_christoffel_symmetry(n, s):
    sig = ms.SpaceSignature(n, s)
    rng = np.random.default_rng(13)
    for _ in range(10):
        gamma = ms.christoffel_array(sig, rand_vec(sig, rng))
        assert np.abs(gamma - gamma.transpose(0, 2, 1)).max() == 0.0


@pytest.mark.parametrize("n,s", SIG_GRID)
def test_batched_christoffels_have_the_bits_of_each_point(n, s):
    # leading batch axes give every point the bits of its own symbols, and of
    # its own inverse metric and metric derivatives
    sig = ms.SpaceSignature(n, s)
    points = np.random.default_rng(19).normal(scale=2.0, size=(2, 3, sig.dim))
    for fn in (ms.christoffel_array, ms.inverse_metric_matrix, ms.metric_derivatives):
        batched = fn(sig, points)
        for i, j in np.ndindex(2, 3):
            assert_same_bits(batched[i, j], fn(sig, points[i, j]))


@pytest.mark.parametrize("n,s", SIG_GRID)
def test_gamma_bilinear_matches_tensor(n, s):
    sig = ms.SpaceSignature(n, s)
    rng = np.random.default_rng(17)
    for _ in range(10):
        p = rand_vec(sig, rng)
        u = rng.normal(size=sig.dim)
        v = rng.normal(size=sig.dim)
        via_tensor = np.einsum("kij,i,j->k", ms.christoffel_array(sig, p), u, v)
        direct = ms.gamma_bilinear(sig, p, u, v)
        assert np.abs(via_tensor - direct).max() < 1e-12


@pytest.mark.parametrize("n,s", SIG_GRID)
def test_nabla_xi_is_minus_phi(n, s):
    sig = ms.SpaceSignature(n, s)
    rng = np.random.default_rng(23)
    for _ in range(10):
        p = rand_vec(sig, rng)
        X = rng.normal(size=sig.dim)
        for alpha in range(1, s + 1):
            nab = ms.gamma_bilinear(sig, p, X, reeb(sig, alpha))  # xi has constant components
            assert np.abs(nab + ms.phi_comps(sig, p, X)).max() < 1e-10


def test_metric_compatibility_fd():
    rng = np.random.default_rng(29)
    for (n, s) in [(1, 1), (2, 2), (1, 3)]:
        sig = ms.SpaceSignature(n, s)
        h = 1e-5
        for _ in range(5):
            c = rng.normal(scale=2.0, size=sig.dim)
            V = rng.normal(size=sig.dim)
            W = rng.normal(size=sig.dim)
            gamma = ms.christoffel_array(sig, c)
            for k in range(sig.dim):
                e = np.zeros(sig.dim)
                e[k] = 1.0
                lhs = (ms.inner(sig, c + h * e, V, W) - ms.inner(sig, c - h * e, V, W)) / (2 * h)
                rhs = (ms.inner(sig, c, np.einsum("kij,i,j->k", gamma, e, V), W)
                       + ms.inner(sig, c, V, np.einsum("kij,i,j->k", gamma, e, W)))
                assert abs(lhs - rhs) < 1e-5


def test_d_eta_equals_fundamental_form():
    # d(eta^a)(X, Y) = g(X, phi Y) with the 1/2-alternation convention,
    # via central differences on constant-component fields
    rng = np.random.default_rng(31)
    h = 1e-5
    for (n, s) in SIG_GRID:
        sig = ms.SpaceSignature(n, s)
        for _ in range(10):
            c = rng.normal(scale=2.0, size=sig.dim)
            X = rng.normal(size=sig.dim)
            Y = rng.normal(size=sig.dim)
            x_eta_y = (ms.eta_comps(sig, c + h * X, Y) - ms.eta_comps(sig, c - h * X, Y)) / (2 * h)
            y_eta_x = (ms.eta_comps(sig, c + h * Y, X) - ms.eta_comps(sig, c - h * Y, X)) / (2 * h)
            deta = 0.5 * (x_eta_y - y_eta_x)
            want = ms.inner(sig, c, X, ms.phi_comps(sig, c, Y))
            assert np.abs(deta - want).max() < 1e-5


# ---------------------------------------------------------------------------
# covariant acceleration and the phi-derivative identity
# ---------------------------------------------------------------------------

def test_covariant_acceleration_zero_velocity():
    # a^k + Gamma^k_ij v^i v^j reduces to a when v = 0
    sig = ms.SpaceSignature(2, 1)
    rng = np.random.default_rng(37)
    p = rand_vec(sig, rng)
    a = rand_vec(sig, rng)
    zero = np.zeros(sig.dim)
    assert np.all(a + ms.gamma_bilinear(sig, p, zero, zero) == a)


def test_covariant_acceleration_reeb_line():
    # constant velocity along xi_1 has vanishing covariant acceleration
    sig = ms.SpaceSignature(1, 1)
    for t in (0.0, 0.7, 2.0):
        p = np.array([0.0, 0.0, 2.0 * t])
        v = reeb(sig, 1)
        # the covariant acceleration of zero coordinate acceleration
        assert np.abs(ms.gamma_bilinear(sig, p, v, v)).max() == 0.0


@pytest.mark.parametrize("n,s", [(1, 1), (2, 2), (1, 3), (3, 1)])
def test_nabla_phi_identity(n, s):
    sig = ms.SpaceSignature(n, s)
    rng = np.random.default_rng(41)
    p0 = rand_vec(sig, rng)

    # on Reeb inputs every term vanishes
    lhs, rhs = _nabla_phi_sides(sig, p0, reeb(sig, 1), reeb(sig, 1))
    assert np.abs(rhs).max() < 1e-12
    assert np.abs(lhs).max() < 1e-6

    for _ in range(10):
        p = rand_vec(sig, rng)
        X, Y = rand_vec(sig, rng), rand_vec(sig, rng)
        lhs, rhs = _nabla_phi_sides(sig, p, X, Y)
        diff = lhs - rhs
        assert float(np.sqrt(ms.inner(sig, p, diff, diff))) < 1e-5

    # Y along a Reeb direction reduces the right side to phi^2 X
    for _ in range(5):
        p = rand_vec(sig, rng)
        X = rand_vec(sig, rng)
        lhs, rhs = _nabla_phi_sides(sig, p, X, reeb(sig, s))
        phi2x = ms.phi_comps(sig, p, ms.phi_comps(sig, p, X))
        assert np.abs(rhs - phi2x).max() < 1e-12
        assert np.abs(lhs - rhs).max() < 1e-5


# ---------------------------------------------------------------------------
# component sums in every layout: the row-major functions that the ordered
# column adds replaced, kept as the reference for their bits
# ---------------------------------------------------------------------------

def reference_eta_comps(sig, coords, v):
    n = sig.n
    y = coords[..., n:2 * n]
    y_vx = np.sum(y * v[..., :n], axis=-1, keepdims=True)
    return 0.5 * (v[..., 2 * n:] - y_vx)


def reference_phi_comps(sig, coords, v):
    n = sig.n
    y = coords[..., n:2 * n]
    vy = v[..., n:2 * n]
    out = np.empty_like(v)
    out[..., :n] = vy
    out[..., n:2 * n] = -v[..., :n]
    out[..., 2 * n:] = np.sum(vy * y, axis=-1, keepdims=True)
    return out


def reference_inner(sig, coords, u, v):
    n = sig.n
    etas = np.sum(reference_eta_comps(sig, coords, u) * reference_eta_comps(sig, coords, v),
                  axis=-1)
    flat = 0.25 * np.sum(u[..., :2 * n] * v[..., :2 * n], axis=-1)
    return etas + flat


def reference_gamma_bilinear(sig, coords, u, v):
    n, s = sig.n, sig.s
    y = coords[..., n:2 * n]
    ux, uy, uz = u[..., :n], u[..., n:2 * n], u[..., 2 * n:]
    vx, vy, vz = v[..., :n], v[..., n:2 * n], v[..., 2 * n:]
    y_ux = np.sum(y * ux, axis=-1, keepdims=True)
    y_vx = np.sum(y * vx, axis=-1, keepdims=True)
    y_uy = np.sum(y * uy, axis=-1, keepdims=True)
    y_vy = np.sum(y * vy, axis=-1, keepdims=True)
    suz = np.sum(uz, axis=-1, keepdims=True)
    svz = np.sum(vz, axis=-1, keepdims=True)
    cross = np.sum(ux * vy, axis=-1, keepdims=True) + np.sum(vx * uy, axis=-1, keepdims=True)
    out = np.empty(np.broadcast_shapes(u.shape, v.shape, coords.shape), dtype=float)
    out[..., :n] = 0.5 * s * (y_ux * vy + y_vx * uy) - 0.5 * (uy * svz + vy * suz)
    out[..., n:2 * n] = -0.5 * s * (ux * y_vx + vx * y_ux) + 0.5 * (ux * svz + vx * suz)
    out[..., 2 * n:] = (0.5 * s * (y_ux * y_vy + y_vx * y_uy)
                        - 0.5 * cross
                        - 0.5 * (y_uy * svz + y_vy * suz))
    return out


SPECIAL_VALUES = np.array([0.0, -0.0, np.nan, np.inf, -np.inf, 1e300, -1e300, 5e-324])


def _special_array(rng, shape):
    """Random values over many scales, a tenth of them replaced by signed
    zeros, NaN, infinities, huge and subnormal values."""
    a = rng.normal(size=shape) * 10.0 ** rng.integers(-8, 8, size=shape)
    mask = rng.random(shape) < 0.1
    a[mask] = rng.choice(SPECIAL_VALUES, size=int(mask.sum()))
    return a


# widths from 8 on take _rowsum's np.sum fallback: 2n for n >= 4, n >= 8, s = 8
LAYOUT_SIGS = [(1, 1), (2, 3), (3, 7), (4, 1), (7, 8), (8, 2), (9, 1), (16, 8)]


@pytest.mark.parametrize("n,s", LAYOUT_SIGS)
@pytest.mark.parametrize("lead", [(), (37,), (3, 37)], ids=["d", "N-d", "B-N-d"])
def test_component_sums_match_reference_in_every_layout(n, s, lead):
    # C- and F-ordered inputs both give the bits the reference gives on
    # C-ordered arrays, special values included; the sign of a NaN made from
    # two NaNs follows the layout (see assert_same_bits)
    sig = ms.SpaceSignature(n, s)
    rng = np.random.default_rng([n, s, len(lead)])
    p, u, v = (_special_array(rng, lead + (sig.dim,)) for _ in range(3))
    with np.errstate(all="ignore"):
        want = {
            "eta": reference_eta_comps(sig, p, v),
            "phi": reference_phi_comps(sig, p, v),
            "inner": reference_inner(sig, p, u, v),
            "inner_uu": reference_inner(sig, p, u, u),  # eta(u) taken once
            "gamma": reference_gamma_bilinear(sig, p, u, v),
        }
        for order in "CF":
            pc, uc, vc = (np.asarray(a, order=order) for a in (p, u, v))
            got = {
                "eta": ms.eta_comps(sig, pc, vc),
                "phi": ms.phi_comps(sig, pc, vc),
                "inner": ms.inner(sig, pc, uc, vc),
                "inner_uu": ms.inner(sig, pc, uc, uc),
                "gamma": ms.gamma_bilinear(sig, pc, uc, vc),
            }
            for name in want:
                assert_same_bits(got[name], want[name], nan_sign=order == "C")
            if lead:  # outputs follow the inputs' layout
                for name in ("phi", "gamma"):
                    assert got[name].flags[f"{order}_CONTIGUOUS"]


def test_rowsum_matches_np_sum_and_falls_back_from_width_8(monkeypatch):
    rng = np.random.default_rng(8)
    real_sum = np.sum
    calls = []

    def spy(*args, **kwargs):
        calls.append(args[0].shape)
        return real_sum(*args, **kwargs)

    for width in range(1, 13):
        a = _special_array(rng, (500, width))
        with np.errstate(all="ignore"):
            want = real_sum(a, axis=-1)
            for order in "CF":
                calls.clear()
                monkeypatch.setattr(np, "sum", spy)
                got = ms._rowsum(np.asarray(a, order=order))
                kept = ms._rowsum(np.asarray(a, order=order), keepdims=True)
                monkeypatch.setattr(np, "sum", real_sum)
                assert_same_bits(got, want)
                assert_same_bits(kept, want[:, None])
                # column adds below width 8, np.sum on a C-ordered copy from 8 on
                assert bool(calls) == (width >= 8)
            if width >= 8:
                # ordered column adds would differ there: numpy adds pairwise
                cols = 0.0 + a[:, 0]
                for k in range(1, width):
                    cols = cols + a[:, k]
                finite = np.isfinite(want)
                assert not np.array_equal(cols[finite], want[finite])
