"""Tensor-product fields on V_M x V_M and their norms.

A Field stores the modal coefficients v of u in the eigenbasis (lam, E)
of the basis (see Basis1D): u = sum_{k,j} v[k,j] psi_k(x) psi_j(y) with
psi_k = sum_i E[i,k] phi_i. There the mass is the identity and the
stiffness is the symbol sigma[k,j] = lam_k + lam_j, so the three sums
over modes of `error_norms` are its squared norms:

    ||u||^2     = sum v^2
    |grad u|^2  = sum sigma v^2
    ||u||_-1^2  = sum over sigma > 0 of v^2 / sigma

The Neumann kernel, the constants, is exactly the (0,0) mode. The
Legendre coefficients C = E v E^T, with u = sum C[k,j] phi_k(x) phi_j(y),
are a read-only export (`Field.coeffs`); nothing in the package reads
them back. Grid values are plain arrays: T_M v T_M^T on the M x M Gauss
grid of the snapshot files, fitted back by G_M g G_M^T, and on the 2M x 2M
grid of the seeded noise and the step the quadrant-major
g[s, t, i, j] = u((-1)^s x_i, (-1)^t y_j) over the M positive nodes x_i,
to and from which a `GridPlan`'s `grid` and `fit` are the only ways. As
the modes are parity-major (see Basis1D), each runs two batched GEMMs over
the four parity blocks v_pq, A_p v_pq A_q^T, and one sign GEMM,
(H2 x H2) @ X.reshape(4, M^2) with H2 = [[1, 1], [1, -1]], since a mirror
flips the sign of each odd factor: 3M^3 multiply-adds against 6M^3 for
dense 2M maps. Their blocks are one strided view of a 2H x 2H array,
H = ceil(M/2), which for an odd M pads v with a zero last row and column;
that padding is the plan's alone, and its callers see M x M modes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._snapshots import SNAPSHOT_HEADER, snapshot_grid, write_grid
from .spectral1d import Basis1D, assemble_basis

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
    """The parity blocks v_pq of the 2H x 2H modal array v, a (2, 2, H, H) view."""
    return v.reshape(2, H, 2, H).transpose(0, 2, 1, 3)


class GridPlan:
    """The two 2M transforms on two C-contiguous (2, 2, M, M) work grids a
    and b, with every view their GEMMs read or write built once, here: a
    march builds one plan, so its transforms build no view but those of a
    new grid and of the modal array it is made from (`grid(v)`).

    `fit` writes the 2M-point quadrature of a against each modal basis
    function, G_p Z_pq G_q^T for Z the sign GEMM of a and G = fit_stack,
    over `modes`, the M x M modes at the start of b's memory, and returns
    it. `grid(v)` returns the quadrant-major 2M grid of the M x M modal
    array v in a new array, and `grid()` that of `modes` written over a.
    Both overwrite a and b but for their result; v may lie in b's memory
    but not in a's. For an odd M `modes` is the [:M, :M] corner of the
    2H x 2H array the blocks view, into which `grid(v)` copies v."""

    def __init__(self, basis: Basis1D, a: np.ndarray, b: np.ndarray):
        A, G = basis.eval_stack, basis.fit_stack
        _, M, H = A.shape
        self.a, self.b, self._H = a, b, H
        padded = b.reshape(-1)[:4 * H * H].reshape(2 * H, 2 * H)
        self.modes, self._edges = padded[:M, :M], (padded[M], padded[:, M]) if M % 2 else ()
        self._blocks, self._a4, self._b4 = _blocks(padded, H), a.reshape(4, -1), b.reshape(4, -1)
        self._half = a.reshape(-1)[:4 * H * M].reshape(2, 2, H, M)
        self._A, self._At = A[:, None], A.transpose(0, 2, 1)
        self._G, self._Gt = G[:, None], G.transpose(0, 2, 1)

    def grid(self, v: np.ndarray | None = None) -> np.ndarray:
        blocks, out, out4 = self._blocks, self.a, self._a4
        if v is not None:
            out = np.empty_like(self.a)
            out4 = out.reshape(4, -1)
            if self._edges:
                self.modes[...] = v
            else:
                blocks = _blocks(v, self._H)
        for edge in self._edges:  # an odd M's padding, dirty after earlier GEMMs
            edge.fill(0.0)
        np.matmul(blocks, self._At, out=self._half)
        np.matmul(self._A, self._half, out=self.b)
        np.matmul(_SIGNS, self._b4, out=out4)
        return out

    def fit(self) -> np.ndarray:
        np.matmul(_SIGNS, self._a4, out=self._b4)
        np.matmul(self._G, self.b, out=self._half)
        np.matmul(self._half, self._Gt, out=self._blocks)
        return self.modes


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


def mean_value(u: Field) -> float:
    """(1/|Omega|) integral of u; equals coeffs[0,0]."""
    return modal_mean(u.basis, u.v)


def error_norms(u: Field, v: Field) -> tuple[float, float, float]:
    """(H^-1, L^2, H^1) norms of d = u - v, each a sum over the modes of d.

    The two fields must share one basis instance and their mean to 1e-9
    (the H^-1 norm needs a zero-mean difference); the residual mean, pure
    roundoff at that point, is removed from the difference before the
    Neumann solve, the sum over sigma > 0 of d^2 / sigma.
    """
    if u.basis is not v.basis:
        raise ValueError("fields must share one Basis1D instance")
    if abs(mean_value(u) - mean_value(v)) > 1e-9:
        raise ValueError(f"mean(u) - mean(v) = {mean_value(u) - mean_value(v):.3e} exceeds 1e-9")
    d = u.v - v.v
    d[0, 0] = 0.0  # the constant mode
    sigma = u.basis.sigma
    pos = sigma > 0.0
    l2_sq = np.sum(d * d)
    h1_full = np.sqrt(l2_sq + np.sum(sigma * d * d))
    hminus1 = np.sqrt(np.sum(d[pos] * d[pos] / sigma[pos]))
    return float(hminus1), float(np.sqrt(l2_sq)), float(h1_full)


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
    write_grid(path, meta, (row.tolist() for row in snapshot_grid(u)))


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
