"""Tensor-product fields on V_M x V_M and their norms.

A Field stores the modal coefficients v of u in the eigenbasis (lam, E)
of the basis (see Basis1D): u = sum_{k,j} v[k,j] psi_k(x) psi_j(y) with
psi_k = sum_i E[i,k] phi_i. There the mass is the identity and the
stiffness is the symbol sigma[k,j] = lam_k + lam_j, so every norm is a
sum over modes:

    (u, w)      = sum v_u v_w
    |grad u|^2  = sum sigma v^2
    (u, w)_-1   = sum over sigma > 0 of v_u v_w / sigma

The Neumann kernel, the constants, is exactly the (0,0) mode. The
Legendre coefficients C = E v E^T, with u = sum C[k,j] phi_k(x) phi_j(y),
are a read-only export (`Field.coeffs`); nothing in the package reads
them back. Grid values are plain arrays: T_M v T_M^T on the M x M Gauss
grid of the snapshot files, fitted back by G_M g G_M^T, and on the 2M x 2M
grid of the seeded noise and the step the quadrant-major
g[s, t, i, j] = u((-1)^s x_i, (-1)^t y_j) over the M positive nodes x_i,
to and from which `to_grid` and `fit_grid` are the only ways. As the
modes are parity-major (see Basis1D), each runs two batched GEMMs over
the four parity blocks v_pq, A_p v_pq A_q^T, and one sign GEMM,
(H2 x H2) @ X.reshape(4, M^2) with H2 = [[1, 1], [1, -1]], since a mirror
flips the sign of each odd factor: 3M^3 multiply-adds against 6M^3 for
dense 2M maps. Their modes are padded 2H x 2H arrays, H = ceil(M/2), an
odd M's v in the [:M, :M] corner and zeros around it, so that the blocks
are one strided view.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._snapshots import SNAPSHOT_HEADER, snapshot_grid, write_grid
from .spectral1d import Basis1D, assemble_basis

# absolute floor for the zero-mean precondition so that near-zero
# difference fields (norm ~ roundoff) are not rejected spuriously
_MEAN_ABS_FLOOR = 1e-14


@dataclass
class Field:
    """Element of V_M x V_M: v[k, j] multiplies psi_k(x) psi_j(y), the
    modal basis functions (v is what `march` steps)."""

    basis: Basis1D
    v: np.ndarray

    def __post_init__(self):
        self.v = np.asarray(self.v, dtype=float)
        M = self.basis.M
        if self.v.shape != (M, M):
            raise ValueError(f"v must be {M}x{M}, got {self.v.shape}")

    @property
    def coeffs(self) -> np.ndarray:
        """Legendre coefficients E v E^T, a read-only array: coeffs[k, j]
        multiplies phi_k(x) phi_j(y)."""
        c = self.basis.E @ self.v @ self.basis.E.T
        c.flags.writeable = False
        return c


# H2 x H2 for H2 = [[1, 1], [1, -1]]: row 2s + t, column 2p + q, entry (-1)^(sp + tq)
_SIGNS = np.array([[1.0, 1.0, 1.0, 1.0], [1.0, -1.0, 1.0, -1.0],
                   [1.0, 1.0, -1.0, -1.0], [1.0, -1.0, -1.0, 1.0]])


def _blocks(v: np.ndarray, H: int) -> np.ndarray:
    """The parity blocks v_pq of the padded 2H x 2H modal array v, a (2, 2, H, H) view."""
    return v.reshape(2, H, 2, H).transpose(0, 2, 1, 3)


def to_grid(basis: Basis1D, v: np.ndarray, out: np.ndarray, work: np.ndarray) -> np.ndarray:
    """The quadrant-major 2M grid of the padded modal array v, written
    into out and returned; out and work are C-contiguous (2, 2, M, M)
    arrays, and work is overwritten. Only the first GEMM reads v, so v may
    lie in work's memory but not in out's."""
    A = basis.eval_stack
    _, M, H = A.shape
    half = np.matmul(_blocks(v, H), A.transpose(0, 2, 1),
                     out=out.reshape(-1)[:4 * H * M].reshape(2, 2, H, M))
    np.matmul(A[:, None], half, out=work)
    np.matmul(_SIGNS, work.reshape(4, -1), out=out.reshape(4, -1))
    return out


def fit_grid(basis: Basis1D, grid: np.ndarray, work: np.ndarray) -> np.ndarray:
    """The 2M-point quadrature of the grid against each modal basis
    function, G_p Z_pq G_q^T for Z the sign GEMM of grid and G = fit_stack,
    as a padded 2H x 2H array at the start of work's memory; grid and work
    are C-contiguous (2, 2, M, M) arrays, and both are overwritten."""
    G = basis.fit_stack
    _, H, M = G.shape
    z = np.matmul(_SIGNS, grid.reshape(4, -1), out=work.reshape(4, -1))
    half = np.matmul(G[:, None], z.reshape(2, 2, M, M),
                     out=grid.reshape(-1)[:4 * H * M].reshape(2, 2, H, M))
    modes = work.reshape(-1)[:4 * H * H].reshape(2 * H, 2 * H)
    np.matmul(half, G.transpose(0, 2, 1), out=_blocks(modes, H))
    return modes


def quadrants(grid: np.ndarray) -> np.ndarray:
    """The quadrant-major layout, a new C-contiguous (2, 2, M, M) array, of
    a 2M x 2M grid on the ascending Gauss nodes: the positive nodes are
    its last M, and -x_i is node M - 1 - i."""
    M = len(grid) // 2
    order = np.concatenate([np.arange(M, 2 * M), np.arange(M - 1, -1, -1)])
    return np.ascontiguousarray(
        grid[np.ix_(order, order)].reshape(2, M, 2, M).transpose(0, 2, 1, 3))


def modal_decomposition(basis: Basis1D):
    """(lam, E, sigma) of the basis's checked eigendecomposition."""
    return basis.lam, basis.E, basis.sigma


def modal_mean(basis: Basis1D, v: np.ndarray) -> float:
    """(1/|Omega|) integral of the field with modal coefficients v, which
    is E[0,0] v[0,0] E[0,0]: psi_k has mean E[0, k], and E[0, k] = 0 for
    k > 0."""
    e = float(basis.E[0, 0])
    return e * float(v[0, 0]) * e


def inner_l2(u: Field, v: Field) -> float:
    _same_basis(u, v)
    return float(np.sum(u.v * v.v))


def norm_l2(u: Field) -> float:
    return float(np.sqrt(inner_l2(u, u)))


def h1_seminorm_sq(u: Field) -> float:
    return float(np.sum(u.basis.sigma * u.v * u.v))


def mean_value(u: Field) -> float:
    """(1/|Omega|) integral of u; equals coeffs[0,0]."""
    return modal_mean(u.basis, u.v)


def _require_zero_mean(u: Field) -> None:
    m = abs(mean_value(u))
    # the norm is needed only when |mean| clears the absolute floor
    if m > _MEAN_ABS_FLOOR and m > 1e-10 * norm_l2(u):
        raise ValueError(f"|mean| = {m:.3e} for a field that must be zero-mean")


def inner_hminus1(u: Field, v: Field) -> float:
    """(u, v) in H^-1, i.e. (u, -Lap^-1 v); both fields must be zero-mean."""
    _same_basis(u, v)
    _require_zero_mean(u)
    if v is not u:
        _require_zero_mean(v)
    sigma = u.basis.sigma
    pos = sigma > 0.0
    return float(np.sum(u.v[pos] * v.v[pos] / sigma[pos]))


def hminus1_norm(u: Field) -> float:
    return float(np.sqrt(inner_hminus1(u, u)))


def _same_basis(u: Field, v: Field) -> None:
    if u.basis is not v.basis:
        raise ValueError("fields must share one Basis1D instance")


def error_norms(u: Field, v: Field) -> tuple[float, float, float]:
    """(H^-1, L^2, H^1) norms of u - v.

    The two fields must share their mean to 1e-9 (the H^-1 norm needs a
    zero-mean difference); the residual mean, pure roundoff at that point,
    is removed from the difference before the Neumann solve.
    """
    _same_basis(u, v)
    if abs(mean_value(u) - mean_value(v)) > 1e-9:
        raise ValueError(f"mean(u) - mean(v) = {mean_value(u) - mean_value(v):.3e} exceeds 1e-9")
    d = Field(u.basis, u.v - v.v)
    d.v[0, 0] = 0.0  # the constant mode
    l2_sq = inner_l2(d, d)
    h1_full = np.sqrt(l2_sq + h1_seminorm_sq(d))
    return hminus1_norm(d), float(np.sqrt(l2_sq)), float(h1_full)


# ---------------------------------------------------------------------------
# CSV files


def write_snapshot(u: Field, path, eps: float, gamma: float, t: float, step: int) -> None:
    """Write nodal values on the M x M Gauss grid as CSV.

    Layout (documented for bit-exact round trips): line 1 is the literal
    header `M,eps,gamma,t,step`; line 2 holds those values with floats in
    repr (shortest round-trip) form; then M rows of M comma-separated
    values, row i = x-index, column j = y-index.
    """
    meta = (int(u.basis.M), float(eps), float(gamma), float(t), int(step))
    write_grid(path, meta, snapshot_grid(u).tolist())


def read_snapshot(path, basis: Basis1D | None = None) -> tuple[Field, dict]:
    """Read a snapshot file back into a Field (plus header metadata).

    A basis is assembled from the header M when none is supplied.
    ValueError, naming the file, unless line 1 is SNAPSHOT_HEADER, line 2
    its five finite values with M >= 4, and M lines of M finite numbers follow.
    """
    with open(path) as fh:
        header, parts = fh.readline().strip(), fh.readline().strip().split(",")
        try:
            if header != SNAPSHOT_HEADER or len(parts) != 5 or not all(
                    math.isfinite(float(part)) for part in parts):
                raise ValueError
            meta = {key: cast(part) for key, cast, part in
                    zip(SNAPSHOT_HEADER.split(","), (int, float, float, float, int), parts)}
        except ValueError:
            raise ValueError(
                f"snapshot {path} must start with the line {SNAPSHOT_HEADER} "
                "and a line of its five finite values"
            ) from None
        M = meta["M"]
        if M < 4:
            raise ValueError(f"snapshot {path} has M = {M}, but M must be >= 4")
        vals = []
        for i, line in enumerate(fh, 1):
            cells = line.split(",")
            try:
                row = [float(v) for v in cells]
                if len(row) != M or not all(map(math.isfinite, row)):
                    raise ValueError
                vals.append(row)
            except ValueError:
                raise ValueError(f"snapshot {path}, grid row {i} (line {i + 2}): "
                                 f"expected M = {M} comma-separated finite numbers") from None
    if len(vals) != M:
        raise ValueError(f"snapshot {path} has {len(vals)} grid rows, expected M = {M}")
    if basis is None:
        basis = assemble_basis(M)
    if basis.M != M:
        raise ValueError(f"snapshot {path} has M = {M}, but the basis has M = {basis.M}")
    G = basis.G_M
    return Field(basis, G @ np.array(vals) @ G.T), meta
