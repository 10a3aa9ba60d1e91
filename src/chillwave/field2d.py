"""Tensor-product fields on V_M x V_M and their norms.

A Field stores the coefficient matrix C with u = sum_{k,j} C[k,j]
phi_k(x) phi_j(y). Every norm is a sum over the modal coefficients
v = E^T (M C M) E of `to_modal`, in the eigenbasis (lam, E) of the basis
(see Basis1D), where the mass is the identity and the stiffness is the
symbol sigma[k,j] = lam_k + lam_j:

    (u, w)      = sum v_u v_w
    |grad u|^2  = sum sigma v^2
    (u, w)_-1   = sum over sigma > 0 of v_u v_w / sigma

The Neumann kernel is exactly the (0,0) mode.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import MeanNotZero
from .spectral1d import Basis1D

# absolute floor for the zero-mean precondition so that near-zero
# difference fields (norm ~ roundoff) are not rejected spuriously
_MEAN_ABS_FLOOR = 1e-14


@dataclass
class Field:
    """Element of V_M x V_M: coeffs[k, j] multiplies phi_k(x) phi_j(y)."""

    basis: Basis1D
    coeffs: np.ndarray

    def __post_init__(self):
        self.coeffs = np.asarray(self.coeffs, dtype=float)
        M = self.basis.M
        if self.coeffs.shape != (M, M):
            raise ValueError(f"coeffs must be {M}x{M}, got {self.coeffs.shape}")


@dataclass
class NodalGrid:
    """Values on the P x P tensor Gauss grid; values[i, j] = u(x_i, y_j)."""

    basis: Basis1D
    values: np.ndarray
    node_set: str

    def __post_init__(self):
        P = self.basis.M if self.node_set == "M" else 2 * self.basis.M
        if self.node_set not in ("M", "2M"):
            raise ValueError("node_set must be 'M' or '2M'")
        if self.values.shape != (P, P):
            raise ValueError(f"values must be {P}x{P}, got {self.values.shape}")


def to_nodal(u: Field, node_set: str) -> NodalGrid:
    tab = u.basis.eval_table(node_set)
    return NodalGrid(u.basis, tab.T @ u.coeffs @ tab, node_set)


def from_nodal(g: NodalGrid) -> Field:
    """Quadrature least-squares fit of grid values in V_M x V_M: the
    interpolant on the M set, the exact L^2 projection on the 2M set.
    The Gram of either Gauss rule is the diagonal mass matrix."""
    tw = g.basis.eval_table(g.node_set) * g.basis.weights(g.node_set)
    d = np.diag(g.basis.mass)
    return Field(g.basis, tw @ g.values @ tw.T / d[:, None] / d)


def modal_decomposition(basis: Basis1D):
    """(lam, E, sigma) of the basis's checked eigendecomposition."""
    return basis.lam, basis.E, basis.sigma


def to_modal(basis: Basis1D, C: np.ndarray) -> np.ndarray:
    """Modal coefficients E^T (M C M) E of a coefficient array; the
    diagonal mass acts as a row and column scaling."""
    d = np.diag(basis.mass)
    return basis.E.T @ (d[:, None] * C * d) @ basis.E


def from_modal(basis: Basis1D, v: np.ndarray) -> np.ndarray:
    """Modal coefficients back to basis coefficients: E v E^T."""
    return basis.E @ v @ basis.E.T


def inner_l2(u: Field, v: Field) -> float:
    _same_basis(u, v)
    ut = to_modal(u.basis, u.coeffs)
    vt = ut if v is u else to_modal(v.basis, v.coeffs)
    return float(np.sum(ut * vt))


def norm_l2(u: Field) -> float:
    return float(np.sqrt(max(inner_l2(u, u), 0.0)))


def h1_seminorm_sq(u: Field) -> float:
    v = to_modal(u.basis, u.coeffs)
    return float(np.sum(u.basis.sigma * v * v))


def mean_value(u: Field) -> float:
    """(1/|Omega|) integral of u; equals coeffs[0,0] because every basis
    product except phi_0 phi_0 has zero mean."""
    return float(u.coeffs[0, 0])


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
    ut = to_modal(u.basis, u.coeffs)
    vt = ut if v is u else to_modal(v.basis, v.coeffs)
    pos = sigma > 0.0
    return float(np.sum(ut[pos] * vt[pos] / sigma[pos]))


def hminus1_norm(u: Field) -> float:
    return float(np.sqrt(max(inner_hminus1(u, u), 0.0)))


def _same_basis(u: Field, v: Field) -> None:
    if u.basis is not v.basis:
        raise ValueError("fields must share one Basis1D instance")


# ---------------------------------------------------------------------------
# snapshot files


def write_snapshot(u: Field, path, eps: float, gamma: float, t: float, step: int) -> None:
    """Write nodal values on the M x M Gauss grid as CSV.

    Layout (documented for bit-exact round trips): line 1 is the literal
    header `M,eps,gamma,t,step`; line 2 holds those values with floats in
    repr (shortest round-trip) form; then M rows of M comma-separated
    values, row i = x-index, column j = y-index.
    """
    g = to_nodal(u, "M")
    with open(path, "w") as fh:
        fh.write("M,eps,gamma,t,step\n")
        fh.write(f"{u.basis.M},{float(eps)!r},{float(gamma)!r},{float(t)!r},{int(step)}\n")
        for row in g.values:
            # float() first: repr of a numpy scalar is not parseable
            fh.write(",".join(repr(float(v)) for v in row) + "\n")


def read_snapshot(path, basis: Basis1D | None = None) -> tuple[Field, dict]:
    """Read a snapshot file back into a Field (plus header metadata).

    A basis is assembled from the header M when none is supplied.
    """
    from .spectral1d import assemble_basis

    with open(path) as fh:
        names = fh.readline().strip().split(",")
        parts = fh.readline().strip().split(",")
        meta = dict(zip(names, parts))
        meta["M"] = int(meta["M"])
        meta["step"] = int(meta["step"])
        for key in ("eps", "gamma", "t"):
            meta[key] = float(meta[key])
        vals = np.array([[float(v) for v in line.strip().split(",")] for line in fh])
    M = meta["M"]
    if vals.shape != (M, M):
        raise ValueError(f"snapshot body is {vals.shape}, expected {(M, M)}")
    if basis is None:
        basis = assemble_basis(M)
    u = from_nodal(NodalGrid(basis, vals, "M"))
    return u, meta
