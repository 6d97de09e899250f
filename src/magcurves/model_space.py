"""Exact tensors and connection of the model space R^(2n+s).

The model space carries the standard framed metric structure with s Reeb
directions: in coordinates (x_1..x_n, y_1..y_n, z_1..z_s),

    xi_a  = 2 d/dz_a
    eta^a = (dz_a - sum_i y_i dx_i) / 2
    phi X = sum_i Y_i d/dx_i - sum_i X_i d/dy_i + (sum_i Y_i y_i) sum_a d/dz_a
    g     = sum_a eta^a (x) eta^a + (1/4) sum_i (dx_i (x) dx_i + dy_i (x) dy_i)

where X_i, Y_i, Z_a are the d/dx_i, d/dy_i, d/dz_a components of X.  All
tangent data is stored in the coordinate basis; the g-orthonormal frame
(X_1..X_n, X_{n+1}..X_{2n}, xi_1..xi_s) with X_i = 2 d/dy_i and
X_{n+i} = phi X_i is a derived view.

Expanding g gives the coordinate blocks used throughout (all others zero):

    g_{x_i x_j} = delta_ij/4 + (s/4) y_i y_j      g_{y_i y_j} = delta_ij/4
    g_{x_i z_a} = -y_i/4                          g_{z_a z_b} = delta_ab/4

These blocks are polynomials in y, so metric derivatives and Christoffel
symbols are evaluated in closed form; finite differences appear only in
test oracles and in the curvature-from-samples code.

Points and tangent vectors are plain float arrays of length 2n + s, and
every operation takes the signature alongside them and accepts arbitrary
leading batch axes.  ``frame_matrix`` and the Christoffel helpers check
their points (last axis of length 2n + s, finite).  The Reeb field xi_a is the constant array with 2
in slot z_a.

Layout and reduction order.  Sampled curves are stored column-major: an
(N, 2n + s) array of samples is F-contiguous, so each coordinate's series
is contiguous (``dynamics.Trajectory`` fixes this).  The batched operations
take any layout and give the same bits for all of them: every sum over the
component axis is ``_rowsum``, whose order of additions does not depend on
how the array is laid out, and their outputs follow the inputs' layout.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "SpaceSignature",
    "positive_int",
    "inverse_metric_matrix",
    "metric_derivatives",
    "christoffel_array",
    "frame_matrix",
    "eta_comps",
    "phi_comps",
    "inner",
    "norm",
    "gamma_bilinear",
]


def positive_int(name: str, value):
    """value, when it is a positive integer (bool is not); otherwise
    ValueError naming name."""
    if not (isinstance(value, (int, np.integer)) and not isinstance(value, bool) and value >= 1):
        raise ValueError(f"{name} must be a positive integer, got {value!r}")
    return value


@dataclass(frozen=True)
class SpaceSignature:
    """Pair (n, s) fixing the model space of dimension 2n + s."""

    n: int
    s: int

    def __post_init__(self):
        for name in ("n", "s"):
            positive_int(name, getattr(self, name))

    @property
    def dim(self) -> int:
        return 2 * self.n + self.s


def _as_coords(sig: SpaceSignature, values, what: str, batched: bool = False) -> np.ndarray:
    """values as a float array of finite points: one point of length
    sig.dim, or with batched any number of leading axes before it."""
    arr = np.asarray(values, dtype=float)
    if (arr.shape[-1:] if batched else arr.shape) != (sig.dim,):
        raise ValueError(
            f"{what} must have {sig.dim} components for (n={sig.n}, s={sig.s}), "
            f"got shape {arr.shape}"
        )
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{what} must be finite, got {arr}")
    return arr


# ---------------------------------------------------------------------------
# array-level structure tensors (batched over leading axes)
# ---------------------------------------------------------------------------

_COLUMN_ADD_WIDTH = 8  # numpy's np.sum adds a contiguous row pairwise from here


def _rowsum(a: np.ndarray, keepdims: bool = False) -> np.ndarray:
    """Sum over the last axis with the bits of np.sum on a C-contiguous copy
    of a, whatever a's layout.

    Below width 8 the sum is 0.0 + a[..., 0] + a[..., 1] + ..., in that
    order, which is what np.sum does on a contiguous row that short, signed
    zeros and NaN included; each add then runs over the long axes, so a
    column-major array is not walked row by row.  From width 8 on np.sum
    adds pairwise, and it runs on a C-contiguous copy, where that pairing is
    the same for every layout.
    """
    if a.shape[-1] < _COLUMN_ADD_WIDTH:
        out = 0.0 + a[..., 0]
        for k in range(1, a.shape[-1]):
            out = out + a[..., k]
    else:
        out = np.sum(np.ascontiguousarray(a), axis=-1)
    return out[..., None] if keepdims else out


def eta_comps(sig: SpaceSignature, coords: np.ndarray, v: np.ndarray) -> np.ndarray:
    """All s contact forms on v: eta^a(v) = (v_{z_a} - sum_i y_i v_{x_i}) / 2."""
    coords = np.asarray(coords, dtype=float)
    v = np.asarray(v, dtype=float)
    n = sig.n
    y = coords[..., n:2 * n]
    y_vx = _rowsum(y * v[..., :n], keepdims=True)
    return 0.5 * (v[..., 2 * n:] - y_vx)


def phi_comps(sig: SpaceSignature, coords: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Structure endomorphism phi applied to v, in coordinate components.

    The z output carries the single coefficient sum_i v_{y_i} y_i replicated
    across every z slot.
    """
    coords = np.asarray(coords, dtype=float)
    v = np.asarray(v, dtype=float)
    n = sig.n
    y = coords[..., n:2 * n]
    vy = v[..., n:2 * n]
    out = np.empty_like(v)
    out[..., :n] = vy
    out[..., n:2 * n] = -v[..., :n]
    out[..., 2 * n:] = _rowsum(vy * y, keepdims=True)
    return out


def inner(sig: SpaceSignature, coords: np.ndarray, u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Metric pairing g(u, v) evaluated from the tensor-product form of g."""
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    n = sig.n
    eta_u = eta_comps(sig, coords, u)
    eta_v = eta_u if v is u else eta_comps(sig, coords, v)  # once for a norm
    etas = _rowsum(eta_u * eta_v)
    flat = 0.25 * _rowsum(u[..., :2 * n] * v[..., :2 * n])
    return etas + flat


def norm(sig: SpaceSignature, coords: np.ndarray, v: np.ndarray) -> np.ndarray:
    return np.sqrt(inner(sig, coords, v, v))


def inverse_metric_matrix(sig: SpaceSignature, coords: np.ndarray) -> np.ndarray:
    """Closed-form inverse metric g^{ab} (from g^{-1} = F F^T, F the frame),
    of shape coords.shape + (dim,)."""
    coords = _as_coords(sig, coords, "point", batched=True)
    n, s, d = sig.n, sig.s, sig.dim
    y = coords[..., n:2 * n]
    ginv = np.zeros(coords.shape + (d,))
    ginv[..., :n, :n] = 4.0 * np.eye(n)
    ginv[..., n:2 * n, n:2 * n] = 4.0 * np.eye(n)
    # np.vecdot adds like BLAS ddot, point by point
    ginv[..., 2 * n:, 2 * n:] = 4.0 * (np.eye(s) + np.vecdot(y, y)[..., None, None])
    ginv[..., :n, 2 * n:] = 4.0 * y[..., :, None]
    ginv[..., 2 * n:, :n] = 4.0 * y[..., None, :]
    return ginv


def metric_derivatives(sig: SpaceSignature, coords: np.ndarray) -> np.ndarray:
    """Exact partials dg[..., a, b, c] = d_a g_{bc}.

    Only y-derivatives are nonzero:
        d_{y_k} g_{x_i x_j} = (s/4)(delta_ik y_j + delta_jk y_i)
        d_{y_k} g_{x_i z_a} = -delta_ik / 4
    """
    coords = _as_coords(sig, coords, "point", batched=True)
    n, s, d = sig.n, sig.s, sig.dim
    y = coords[..., n:2 * n]
    dg = np.zeros(coords.shape + (d, d))
    for k in range(n):
        blk = dg[..., n + k, :, :]
        for i in range(n):
            blk[..., i, k] += (s / 4.0) * y[..., i]
            blk[..., k, i] += (s / 4.0) * y[..., i]
        blk[..., k, 2 * n:] += -0.25
        blk[..., 2 * n:, k] += -0.25
    return dg


def christoffel_array(sig: SpaceSignature, coords: np.ndarray) -> np.ndarray:
    """Christoffel symbols Gamma^k_{ij} of the Levi-Civita connection.

    Assembled from the exact metric derivatives and the closed-form inverse
    metric; index order is gamma[..., k, i, j] with k the raised index.  A
    batch of points gives each point the bits of its own symbols.
    """
    dg = metric_derivatives(sig, coords)
    ginv = inverse_metric_matrix(sig, coords)
    # lower-index symbols: (d_i g_{jl} + d_j g_{il} - d_l g_{ij}) / 2
    lower = 0.5 * (np.einsum("...ijl->...lij", dg) + np.einsum("...jil->...lij", dg) - dg)
    return np.einsum("...kl,...lij->...kij", ginv, lower)


def gamma_bilinear(sig: SpaceSignature, coords: np.ndarray, u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Closed-form contraction Gamma^k_{ij} u^i v^j, batched over leading axes.

    Agrees with ``christoffel_array`` contracted twice; this form avoids
    building the dim^3 tensor in the integration and curvature hot paths.
    """
    return _gamma_along(sig, coords, u)(v)


def _gamma_along(sig: SpaceSignature, coords: np.ndarray, u: np.ndarray):
    """The map v -> gamma_bilinear(sig, coords, u, v).

    The sums that depend only on coords and u (y . ux, y . uy, sum uz) are
    taken once, here, for callers that contract one (coords, u) with several
    v; each call gives the bits of ``gamma_bilinear``.
    """
    coords = np.asarray(coords, dtype=float)
    u = np.asarray(u, dtype=float)
    n, s = sig.n, sig.s
    y = coords[..., n:2 * n]
    ux, uy = u[..., :n], u[..., n:2 * n]
    y_ux = _rowsum(y * ux, keepdims=True)
    y_uy = _rowsum(y * uy, keepdims=True)
    suz = _rowsum(u[..., 2 * n:], keepdims=True)
    shape = np.broadcast_shapes(u.shape, coords.shape)

    def contract(v: np.ndarray) -> np.ndarray:
        v = np.asarray(v, dtype=float)
        vx, vy, vz = v[..., :n], v[..., n:2 * n], v[..., 2 * n:]
        y_vx = _rowsum(y * vx, keepdims=True)
        y_vy = _rowsum(y * vy, keepdims=True)
        svz = _rowsum(vz, keepdims=True)
        cross = _rowsum(ux * vy, keepdims=True) + _rowsum(vx * uy, keepdims=True)
        out = np.empty(np.broadcast_shapes(shape, v.shape),
                       order="F" if v.ndim > 1 and v.flags.f_contiguous else "C")
        out[..., :n] = 0.5 * s * (y_ux * vy + y_vx * uy) - 0.5 * (uy * svz + vy * suz)
        out[..., n:2 * n] = -0.5 * s * (ux * y_vx + vx * y_ux) + 0.5 * (ux * svz + vx * suz)
        out[..., 2 * n:] = (0.5 * s * (y_ux * y_vy + y_vx * y_uy)
                            - 0.5 * cross
                            - 0.5 * (y_uy * svz + y_vy * suz))
        return out

    return contract


def frame_matrix(sig: SpaceSignature, coords: np.ndarray) -> np.ndarray:
    """Columns are the orthonormal frame (X_1..X_2n, xi_1..xi_s) at coords,
    batched over leading axes: points of shape (..., 2n + s), each finite,
    give frames of shape (..., 2n + s, 2n + s), each with the bits of its
    point's own frame."""
    coords = _as_coords(sig, coords, "point", batched=True)
    n, s, d = sig.n, sig.s, sig.dim
    y = coords[..., n:2 * n]
    F = np.zeros(coords.shape + (d,))
    for i in range(n):
        F[..., n + i, i] = 2.0          # X_i = 2 d/dy_i
        F[..., i, n + i] = 2.0          # X_{n+i} = 2 d/dx_i + 2 y_i sum_a d/dz_a
        F[..., 2 * n:, n + i] = 2.0 * y[..., i, None]
    for a in range(s):
        F[..., 2 * n + a, 2 * n + a] = 2.0
    return F
