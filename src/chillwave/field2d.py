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
them back. Grid values are plain arrays, T_P v T_P^T on the P x P Gauss
grid, and G_P g G_P^T fits a grid g back, with the basis's maps: the M
set for snapshot files, the 2M set for the seeded noise and the step.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._snapshots import SNAPSHOT_HEADER, snapshot_grid, write_grid
from .errors import MeanNotZero
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
        raise MeanNotZero(f"|mean| = {m:.3e} for a field that must be zero-mean")


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
