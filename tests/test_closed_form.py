import numpy as np
import pytest

from magcurves import (
    CaseAParams,
    CaseBParams,
    IntegratorConfig,
    SpaceSignature,
    integrate,
    lambda_,
    random_params,
    residual,
    sample_case_a,
    sample_case_b,
)
from magcurves.closed_form import family
from magcurves.errors import ConfigError, InfeasibleAngleError, InvalidParamsError
from conftest import SIG_GRID
from oracles import paper_case_a, paper_equations

SQRT3 = np.sqrt(3.0)


def canonical_case_a():
    sig = SpaceSignature(1, 1)
    return CaseAParams(sig, q=2.0, cos_theta=0.5,
                       a=[0.0], b=[0.0], c=[SQRT3], d=[0.0], h=[0.0])


def canonical_case_b():
    sig = SpaceSignature(1, 1)
    return CaseBParams(sig, cos_theta=0.5, c=[SQRT3, 0.0], d=[0.0, 0.0], h=[0.0])


# ---------------------------------------------------------------------------
# the dichotomy coefficient
# ---------------------------------------------------------------------------

def test_lambda_values():
    assert lambda_(2.0, 1, 0.5) == -1.0
    assert lambda_(2 * 2 * 0.3, 2, 0.3) == 0.0
    assert lambda_(3.0, 2, 1.0 / 3.0) == pytest.approx(-5.0 / 3.0, abs=1e-15)


# ---------------------------------------------------------------------------
# case a
# ---------------------------------------------------------------------------

def test_case_a_worked_example_at_zero():
    traj = sample_case_a(canonical_case_a(), [0.0])
    assert np.abs(traj.points[0] - np.array([0.0, -SQRT3, 0.0])).max() < 1e-15
    assert np.abs(traj.velocities[0] - np.array([SQRT3, 0.0, -2.0])).max() < 1e-15


def test_case_a_unit_speed_and_slant():
    traj = sample_case_a(canonical_case_a(), np.linspace(0.0, 20.0, 1000))
    assert np.abs(traj.speeds() - 1.0).max() < 1e-12
    assert np.abs(traj.etas() - 0.5).max() < 1e-12


def test_case_a_lorentz_residual():
    traj = sample_case_a(canonical_case_a(), np.linspace(0.0, 10.0, 500))
    assert residual(traj, 2.0) < 1e-10


def test_case_a_rich_parameters():
    rng = np.random.default_rng(9)
    for seed in range(5):
        n, s = int(rng.integers(1, 4)), int(rng.integers(1, 4))
        sig = SpaceSignature(n, s)
        ct = rng.uniform(-0.9, 0.9) / np.sqrt(s)
        q = rng.uniform(0.3, 3.0) * rng.choice([-1.0, 1.0])
        if abs(lambda_(q, s, ct)) < 1e-6:
            q += 0.1
        params = random_params(sig, q, ct, seed=seed)
        assert isinstance(params, CaseAParams)
        traj = sample_case_a(params, np.linspace(0.0, 5.0, 400))
        assert residual(traj, q) < 1e-10
        assert np.abs(traj.speeds() - 1.0).max() < 1e-12
        assert np.abs(traj.etas() - ct).max() < 1e-12


def test_case_a_rejects_lambda_zero():
    sig = SpaceSignature(1, 1)
    # q = 2 s cos(theta) makes lambda vanish
    with pytest.raises(InvalidParamsError, match="use the straight-line family"):
        CaseAParams(sig, q=1.0, cos_theta=0.5, a=[0.0], b=[0.0], c=[SQRT3], d=[0.0], h=[0.0])


def test_case_a_rejects_bad_amplitudes():
    sig = SpaceSignature(1, 1)
    with pytest.raises(InvalidParamsError):
        CaseAParams(sig, q=2.0, cos_theta=0.5, a=[0.0], b=[0.0], c=[1.0], d=[0.0], h=[0.0])


@pytest.mark.parametrize("miss, refused", [(1e-11, True), (5e-13, False)])
def test_amplitude_check_refuses_a_miss_of_1e_11(miss, refused):
    # the check's tolerance is 1e-12: 10 times it is refused, half of it passes
    sig = SpaceSignature(1, 1)
    c = [np.sqrt(3.0 + miss)]
    for build in (lambda: CaseAParams(sig, 2.0, 0.5, a=[0.0], b=[0.0], c=c, d=[0.0], h=[0.0]),
                  lambda: CaseBParams(sig, 0.5, c=[c[0], 0.0], d=[0.0, 0.0], h=[0.0])):
        if refused:
            with pytest.raises(InvalidParamsError, match="sum of c_i"):
                build()
        else:
            build()


def test_case_a_z_coordinates_differ_by_constants():
    rng = np.random.default_rng(10)
    sig = SpaceSignature(2, 3)
    params = random_params(sig, q=1.3, cos_theta=0.2, seed=4)
    traj = sample_case_a(params, np.linspace(0.0, 8.0, 300))
    z = traj.points[:, 2 * sig.n:] - params.h
    for a in range(1, sig.s):
        assert np.abs(z[:, a] - z[:, 0]).max() < 1e-12


def test_case_a_satisfies_lorentz_pointwise():
    # the covariant acceleration assembled from exact derivatives equals
    # -q phi T component by component
    from magcurves.model_space import gamma_bilinear, phi_comps

    params = canonical_case_a()
    traj = sample_case_a(params, np.linspace(0.0, 6.0, 121))
    for i in range(0, len(traj), 10):
        p, v = traj.points[i], traj.velocities[i]
        cov = traj.accelerations[i] + gamma_bilinear(traj.sig, p, v, v)
        force = -params.q * phi_comps(traj.sig, p, v)
        assert np.abs(cov - force).max() < 1e-8


def test_case_a_xy_second_derivative_ratios():
    # gamma''_{n+i} / (-gamma'_i) = gamma''_i / gamma'_{n+i} = lambda
    rng = np.random.default_rng(21)
    sig = SpaceSignature(2, 2)
    params = random_params(sig, q=1.9, cos_theta=0.25, seed=3)
    lam = params.lam
    traj = sample_case_a(params, rng.uniform(0.0, 10.0, 64).cumsum() * 0.05 + 0.1)
    n = sig.n
    gxp = traj.velocities[:, :n]
    gyp = traj.velocities[:, n:2 * n]
    gxpp = traj.accelerations[:, :n]
    gypp = traj.accelerations[:, n:2 * n]
    mask = (np.abs(gxp) > 1e-3) & (np.abs(gyp) > 1e-3)
    assert np.abs((gypp / -gxp)[mask] - lam).max() < 1e-10
    assert np.abs((gxpp / gyp)[mask] - lam).max() < 1e-10


def test_params_serialize_as_json_records():
    import json

    sig = SpaceSignature(2, 2)
    pa = random_params(sig, q=1.9, cos_theta=0.25, seed=3)
    doc = json.loads(json.dumps(pa.as_dict()))
    assert doc["case"] == "a"
    assert doc["n"] == 2 and doc["s"] == 2
    rebuilt = CaseAParams(SpaceSignature(doc["n"], doc["s"]), doc["q"], doc["cos_theta"],
                          a=doc["a"], b=doc["b"], c=doc["c"], d=doc["d"], h=doc["h"])
    assert np.array_equal(rebuilt.c, pa.c)

    pb = random_params(sig, q=2 * 2 * 0.25, cos_theta=0.25, seed=3)
    doc_b = pb.as_dict()
    assert doc_b["case"] == "b"
    assert doc_b["q"] == pb.q


def test_case_a_slant_and_unit_displays():
    # velocity identities satisfied sample by sample
    params = canonical_case_a()
    traj = sample_case_a(params, np.linspace(0.0, 10.0, 700))
    n = 1
    gxp = traj.velocities[:, :n]
    gyp = traj.velocities[:, n:2 * n]
    gy = traj.points[:, n:2 * n]
    vz = traj.velocities[:, 2 * n:]
    want = 2.0 * params.cos_theta + np.sum(gxp * gy, axis=1)
    assert np.abs(vz - want[:, None]).max() < 1e-12
    assert np.abs(np.sum(gxp ** 2 + gyp ** 2, axis=1)
                  - 4.0 * (1.0 - params.cos_theta ** 2)).max() < 1e-12


# ---------------------------------------------------------------------------
# case b
# ---------------------------------------------------------------------------

def test_case_b_worked_example():
    params = canonical_case_b()
    assert params.q == 1.0
    t = np.linspace(0.0, 3.0, 50)
    traj = sample_case_b(params, t)
    assert np.abs(traj.points[:, 0] - SQRT3 * t).max() < 1e-12
    assert np.abs(traj.points[:, 1]).max() == 0.0
    assert np.abs(traj.points[:, 2] - t).max() < 1e-12
    assert np.abs(traj.speeds() - 1.0).max() < 1e-12
    assert residual(traj, 1.0) < 1e-10


def test_case_b_rich_parameters():
    rng = np.random.default_rng(12)
    for seed in range(5):
        n, s = int(rng.integers(1, 4)), int(rng.integers(1, 4))
        sig = SpaceSignature(n, s)
        ct = rng.uniform(0.05, 0.9) / np.sqrt(s) * rng.choice([-1.0, 1.0])
        q = 2.0 * s * ct
        params = random_params(sig, q, ct, seed=seed)
        assert isinstance(params, CaseBParams)
        traj = sample_case_b(params, np.linspace(0.0, 5.0, 300))
        assert residual(traj, q) < 1e-10
        assert np.abs(traj.speeds() - 1.0).max() < 1e-12
        assert np.abs(traj.etas() - ct).max() < 1e-12


def test_case_b_rejects_legendre_angle():
    sig = SpaceSignature(1, 1)
    with pytest.raises(InvalidParamsError):
        CaseBParams(sig, cos_theta=0.0, c=[2.0, 0.0], d=[0.0, 0.0], h=[0.0])


def test_infeasible_angle_rejected():
    sig = SpaceSignature(1, 2)
    with pytest.raises(InfeasibleAngleError):
        CaseBParams(sig, cos_theta=0.9, c=[1.0, 0.0], d=[0.0, 0.0], h=[0.0])


# ---------------------------------------------------------------------------
# the samplers against the paper's equations
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("n,s", SIG_GRID)
def test_samplers_match_the_paper_equations(n, s):
    # case a at both signs of lambda, and case b (lambda = 0, q = 2 s cos theta);
    # every free constant is nonzero, so a flipped sign in setup() shows
    sig = SpaceSignature(n, s)
    times = IntegratorConfig(t_end=5.0, step=1e-2).times
    for k, (q, ct, lam_sign) in enumerate([(2.0, 0.3, -1.0), (-1.5, -0.2, 1.0),
                                           (2.0 * s * 0.25, 0.25, 0.0)]):
        params = random_params(sig, q, ct, seed=[n, s, k])
        assert np.sign(lambda_(q, s, ct)) == lam_sign
        sample = sample_case_a if isinstance(params, CaseAParams) else sample_case_b
        got, want = sample(params, times), paper_equations(params, times)
        assert np.array_equal(got.times, want.times) and got.q == want.q
        for g, w in ((got.points, want.points), (got.velocities, want.velocities),
                     (got.accelerations, want.accelerations)):
            assert np.max(np.abs(g - w)) <= 1e-12


# ---------------------------------------------------------------------------
# the family choice
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("q, case, want", [
    (2.0, None, "a"),                      # lambda = -1
    (None, None, "b"),                     # no strength: the straight-line family
    (1.0, None, "b"),                      # lambda = 0
    (1.0 - 1e-11, None, "a"),              # outside the 1e-12 band
    (1.0 - 5e-13, None, "b"),              # inside it
    (2.0, "a", "a"),
    (None, "b", "b"),
])
def test_family_picks_the_case(q, case, want):
    params = family(SpaceSignature(1, 1), 0.5, q, case)
    assert params.case == want
    assert type(params) is {"a": CaseAParams, "b": CaseBParams}[want]


def test_family_fills_absent_constants():
    sig = SpaceSignature(2, 1)
    a = family(sig, 0.5, 2.0)
    assert a.c.tolist() == [SQRT3, 0.0]
    assert [getattr(a, k).tolist() for k in "abdh"] == [[0.0, 0.0]] * 3 + [[0.0]]
    b = family(sig, 0.5, case="b")
    assert b.c.tolist() == [SQRT3, 0.0, 0.0, 0.0]
    assert (b.d.tolist(), b.h.tolist()) == ([0.0] * 4, [0.0])
    # a constant given is kept as given; a and b, which case b lacks, are refused
    assert family(sig, 0.5, 2.0, c=[0.0, SQRT3]).c.tolist() == [0.0, SQRT3]
    with pytest.raises(ConfigError, match=r"^case b has no constants \['a', 'b'\]$"):
        family(sig, 0.5, case="b", a=[9.0, 9.0], b="ignored")


@pytest.mark.parametrize("kwargs, error, message", [
    ({"case": "c"}, ConfigError, "case must be 'a' or 'b', got 'c'"),
    ({"case": ["a"]}, ConfigError, "case must be 'a' or 'b', got ['a']"),
    ({"case": "a"}, ConfigError, "case a requires an explicit strength q"),
    ({"case": "b", "q": 2.0}, ConfigError,
     "case b fixes q = 2 s cos(theta) = 1.0, config says 2.0"),
    ({"q": 2.0, "c": [True]}, ConfigError, "c entries must be real numbers, got [True]"),
    ({"q": 2.0, "c": [1.0]}, InvalidParamsError, "sum of c_i^2 must equal"),
    ({"q": 2.0, "e": [0.0]}, TypeError, "family() got unexpected constants ['e']"),
])
def test_family_refusals(kwargs, error, message):
    with pytest.raises(error) as exc:
        family(SpaceSignature(1, 1), 0.5, **kwargs)
    assert str(exc.value).startswith(message)


@pytest.mark.parametrize("n, s", SIG_GRID)
def test_family_rebuilds_its_own_record(n, s):
    sig, ct = SpaceSignature(n, s), 0.3 / np.sqrt(s)
    for q in (1.7, 2 * s * ct):
        doc = random_params(sig, q, ct, seed=[n, s]).as_dict()
        constants = {k: doc[k] for k in "abcdh" if k in doc}
        assert family(sig, ct, doc["q"], doc["case"], **constants).as_dict() == doc
        assert family(sig, ct, doc["q"], **constants).as_dict() == doc


# ---------------------------------------------------------------------------
# random parameter generation
# ---------------------------------------------------------------------------

def test_random_params_amplitude_constraint():
    sig = SpaceSignature(3, 1)
    params = random_params(sig, q=2.0, cos_theta=0.5, seed=0)
    assert float(np.sum(params.c ** 2)) == pytest.approx(3.0, abs=1e-12)


def test_random_params_geodesic_degenerate():
    sig = SpaceSignature(2, 1)
    params = random_params(sig, q=3.0, cos_theta=1.0, seed=0)
    assert np.all(params.c == 0.0)


def test_random_params_deterministic():
    sig = SpaceSignature(2, 2)
    p1 = random_params(sig, q=1.7, cos_theta=0.3, seed=123)
    p2 = random_params(sig, q=1.7, cos_theta=0.3, seed=123)
    for name in ("a", "b", "c", "d", "h"):
        assert np.array_equal(getattr(p1, name), getattr(p2, name))


def test_random_params_selects_case_b_on_lambda_zero():
    sig = SpaceSignature(1, 2)
    ct = 0.25
    params = random_params(sig, q=2 * 2 * ct, cos_theta=ct, seed=0)
    assert isinstance(params, CaseBParams)


@pytest.mark.parametrize("lam, family", [(1e-11, CaseAParams), (5e-13, CaseBParams)])
def test_random_params_lambda_band_is_1e_12(lam, family):
    sig = SpaceSignature(1, 2)
    ct = 0.25
    q = 2 * 2 * ct - lam
    assert lambda_(q, 2, ct) == pytest.approx(lam, rel=1e-3)
    assert type(random_params(sig, q=q, cos_theta=ct, seed=0)) is family


# ---------------------------------------------------------------------------
# residual as a mismatch detector
# ---------------------------------------------------------------------------

def test_residual_detects_wrong_strength():
    params = canonical_case_a()
    traj = sample_case_a(params, np.linspace(0.0, 10.0, 2000))
    # residual at q + 1 is |delta q| * max ||phi T|| = sqrt(1 - s cos^2)
    expected = np.sqrt(1.0 - 0.25)
    res = residual(traj, 3.0)
    assert res >= 0.1
    assert res == pytest.approx(expected, abs=1e-9)


def test_residual_fd_on_integrated_trajectory(circle_traj):
    assert residual(circle_traj, 2.0) <= 1e-4


# ---------------------------------------------------------------------------
# agreement with the integrator
# ---------------------------------------------------------------------------

def test_closed_form_matches_rk4():
    # the paper's equations against RK4 from the same t = 0 data
    cfg = IntegratorConfig(t_end=10.0, step=1e-3)
    params = canonical_case_a()
    exact = paper_case_a(params, cfg.times)
    traj = integrate(params.setup(), cfg)
    assert np.array_equal(traj.times, exact.times)
    assert np.abs(traj.points - exact.points).max() <= 1e-6
