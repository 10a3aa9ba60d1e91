"""Tensor-product fields on V_M x V_M and their norms.

A Field stores the coefficient matrix C with u = sum_{k,j} C[k,j]
phi_k(x) phi_j(y). All bilinear forms reduce to 1-D matrix actions:

    (u, v)      = <C_u, mass @ C_v @ mass>
    |grad u|^2  = <C_u, stiff @ C_u @ mass + mass @ C_u @ stiff>

The H^-1 machinery diagonalizes the pair (stiffness, mass) once per basis:
with K E = M E diag(lam), E^T M E = I, every 2-D operator of interest is
diagonal in the eigenbasis with symbol sigma[k,j] = lam_k + lam_j, and the
Neumann kernel is exactly the (0,0) mode. That decomposition is cached on
the basis and shared with the time steppers.
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

    def copy(self) -> "Field":
        return Field(self.basis, self.coeffs.copy())


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


def mass_apply(basis: Basis1D, C: np.ndarray) -> np.ndarray:
    """(mass x mass) action in coefficient-matrix form; the diagonal mass
    is applied as a row and column scaling."""
    d = np.diag(basis.mass)
    return d[:, None] * C * d


def stiffness_apply(basis: Basis1D, C: np.ndarray) -> np.ndarray:
    """(stiff x mass + mass x stiff) action in coefficient-matrix form."""
    d = np.diag(basis.mass)
    return (basis.stiffness @ C) * d + (d[:, None] * C) @ basis.stiffness


def inner_l2(u: Field, v: Field) -> float:
    _same_basis(u, v)
    return float(np.sum(u.coeffs * mass_apply(u.basis, v.coeffs)))


def norm_l2(u: Field) -> float:
    return float(np.sqrt(max(inner_l2(u, u), 0.0)))


def h1_seminorm_sq(u: Field) -> float:
    return float(np.sum(u.coeffs * stiffness_apply(u.basis, u.coeffs)))


def mean_value(u: Field) -> float:
    """(1/|Omega|) integral of u; equals coeffs[0,0] because every basis
    product except phi_0 phi_0 has zero mean."""
    return float(u.coeffs[0, 0])


def modal_decomposition(basis: Basis1D):
    """Cached generalized eigendecomposition of (stiffness, mass).

    Returns (lam, E, sigma): K E = M E diag(lam) with E^T M E = I, lam
    ascending, lam[0] clamped to exactly 0 (the constant mode), and
    sigma[k, j] = lam[k] + lam[j] the 2-D Laplacian symbol.
    """
    if "modal" not in basis._cache:
        from scipy.linalg import eigh

        lam, E = eigh(basis.stiffness, basis.mass)
        lam[0] = 0.0  # Neumann kernel: exactly the constant mode
        sigma = lam[:, None] + lam[None, :]
        basis._cache["modal"] = (lam, E, sigma)
    return basis._cache["modal"]


def to_modal(basis: Basis1D, load: np.ndarray) -> np.ndarray:
    """Transform a load array (tested against basis functions) to modal."""
    _, E, _ = modal_decomposition(basis)
    return E.T @ load @ E


def from_modal(basis: Basis1D, tilde: np.ndarray) -> np.ndarray:
    """Modal coefficients back to basis coefficients."""
    _, E, _ = modal_decomposition(basis)
    return E @ tilde @ E.T


def _modal_coeffs(u: Field) -> np.ndarray:
    # U_tilde = E^T (M C M) E; diagonalizes both (.,.) and (grad., grad.)
    return to_modal(u.basis, mass_apply(u.basis, u.coeffs))


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
    _, _, sigma = modal_decomposition(u.basis)
    ut = _modal_coeffs(u)
    vt = ut if v is u else _modal_coeffs(v)
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
