"""Time-marching schemes for the Cahn-Hilliard equation.

Three schemes, all linear with constant coefficients. Writing M2 = mass x
mass and K2 = stiff x mass + mass x stiff, each step solves the block
system

    [ a M2          gamma K2 ] [phi_new]   [R1]
    [ -c K2 - b0 M2    M2    ] [  mu   ] = [R2]

with b0 = B. In the generalized eigenbasis of (stiffness, mass), where
K E = M E diag(lam) and E^T M E = I, M2 is the identity and K2 is sigma =
lam_k + lam_j. A field is stored in these modal coordinates (`Field.v`),
and `march` takes, steps and yields them, with the grid g^n = T v^n T^T
of each level on the 2M x 2M Gauss nodes (T = eval_2M^T E). Eliminating
mu from R1 = r_n v^n + r_p v^{n-1} and R2 = load / eps + s sigma v^n -
B (y_n v^n + y_p v^{n-1}) leaves three per-mode weights, built once per
operator (see `build_step_operator`), and the explicit force, whose modal
load is G f(g) G^T with G = E^T (eval_2M w_2M), f from `potential.SPEC`:

    v^{n+1} = cn v^n + cp v^{n-1} + cl G f(g^n + x_p (g^{n-1} - g^n)) G^T

with the per-scheme coefficients of `_TABLE` (SL_CN stabilizes B on
2 phi^n - phi^{n-1} but extrapolates f at 1.5 phi^n - 0.5 phi^{n-1}). A
step is one load and one new grid: 4 dense matmuls. sigma, T and G are
the basis's (see Basis1D). `march` yields the states (v^{n-1}, v^n, g^n),
the entry state first; runs, sweeps, convergence studies and the
first-order bootstrap are loops over them, and a run may `break` early.
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from .errors import NonFinite
from .field2d import Field
from .potential import SPEC, potential_deriv
from .spectral1d import Basis1D

SCHEMES = ("SL_BDF2", "SL_CN", "FIRST_ORDER")

BLOWUP_LIMIT = 1e8

# per scheme, from (tau, eps, A): a, c, (r_n, r_p), s, x_p, (y_n, y_p); x_n = 1 - x_p
_TABLE = {
    "SL_BDF2": lambda t, e, A: (1.5 / t, e + A * t, (2 / t, -0.5 / t), -A * t, -1.0, (2, -1)),
    "SL_CN": lambda t, e, A: (1 / t, e / 2 + A * t, (1 / t, 0), e / 2 - A * t, -0.5, (2, -1)),
    "FIRST_ORDER": lambda t, e, A: (1 / t, e, (1 / t, 0), 0, 0.0, (1, 0)),
}


@dataclass(frozen=True)
class SchemeParams:
    """Time-step configuration; every number must be finite. FIRST_ORDER
    ignores A and uses B as its stabilizer."""

    scheme: str
    tau: float
    gamma: float
    eps: float
    A: float = 0.0
    B: float = 0.0

    def __post_init__(self):
        if self.scheme not in SCHEMES:
            raise ValueError(f"scheme must be one of {SCHEMES}")
        for name in ("tau", "gamma"):
            if not 0.0 < getattr(self, name) < math.inf:
                raise ValueError(f"{name} must be > 0 and finite")
        if not 0.0 < self.eps <= 1.0:
            raise ValueError("eps must be in (0, 1]")
        if not (0.0 <= self.A < math.inf and 0.0 <= self.B < math.inf):
            raise ValueError("stabilizers A, B must be >= 0 and finite")


@dataclass
class StepOperator:
    """Pre-built constant-coefficient modal solver, reusable across steps:
    the per-mode weights of v^{n+1} = cn v^n + cp v^{n-1} + cl load and the
    force's extrapolation weight x_p."""

    params: SchemeParams
    basis: Basis1D
    xp: float
    cn: np.ndarray
    cp: np.ndarray
    cl: np.ndarray


def build_step_operator(params: SchemeParams, basis: Basis1D) -> StepOperator:
    """Raises ValueError when a step coefficient overflows (a subnormal
    tau, or gamma, A or B near the float range)."""
    a, c, (rn, rp), s, xp, (yn, yp) = _TABLE[params.scheme](params.tau, params.eps, params.A)
    sigma, B = basis.sigma, params.B
    gamma_sigma = params.gamma * sigma
    with np.errstate(over="ignore", invalid="ignore"):
        denom = a + gamma_sigma * (c * sigma + B)  # >= a > 0 per mode pair
        cn = (rn - gamma_sigma * (s * sigma - B * yn)) / denom
        cp = (rp + gamma_sigma * B * yp) / denom
        cl = -gamma_sigma / (params.eps * denom)
    if not all(np.isfinite(w).all() for w in (denom, cn, cp, cl)):
        raise ValueError(
            f"step coefficients overflow for tau = {params.tau}, gamma = {params.gamma}, "
            f"A = {params.A}, B = {params.B}"
        )
    return StepOperator(params, basis, xp, cn, cp, cl)


def modal_load(op: StepOperator, grid: np.ndarray) -> np.ndarray:
    """G f(grid) G^T: the 2M-point quadrature of f against each modal basis
    function, the explicit force of every scheme."""
    return op.basis.G @ potential_deriv(SPEC, grid) @ op.basis.G.T


def march(
    op: StepOperator, prev: np.ndarray, curr: np.ndarray, n_steps: int
) -> Iterator[tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """Advance n_steps of op's scheme from the modal arrays
    (prev, curr) = (v^{n-1}, v^n); FIRST_ORDER reads only curr.

    Yields (prev, curr, grid) for the entry pair and then for each new
    pair, n_steps + 1 states, with grid the 2M grid of curr. Each step
    makes new arrays and writes to none that it was given or has yielded,
    so a consumer may keep any of them but must not write to them; it
    stops early by leaving its loop. On blow-up of the modal coefficients
    the iteration raises NonFinite after the last finite state (stability
    sweeps treat that as an unstable verdict).
    """
    T, xp, cn, cp, cl = op.basis.T, op.xp, op.cn, op.cp, op.cl
    grid_prev, grid = (T @ v @ T.T for v in (prev, curr))
    force = np.empty_like(grid)  # x_n g^n + x_p g^{n-1}, rebuilt in place each step
    # Freeing one untouched block of 8 grids raises glibc's dynamic mmap and
    # trim thresholds above the step's grid-sized temporaries; below them the
    # heap is trimmed and faulted back in every step (0.24 page faults a
    # step at M = 64 and 56 at M = 128, 1.08x and 1.3x slower).
    np.empty((8,) + grid.shape)
    yield prev, curr, grid
    for _ in range(n_steps):
        np.subtract(grid_prev, grid, out=force)
        force *= xp
        force += grid
        load = modal_load(op, force)
        new = cn * curr
        new += cp * prev
        load *= cl
        new += load
        if not np.abs(new).max() <= BLOWUP_LIMIT:  # NaN fails the comparison too
            raise NonFinite(f"step blew up (max |modal coeff| > {BLOWUP_LIMIT:.0e} or non-finite)")
        prev, curr = curr, new
        grid_prev, grid = grid, T @ new @ T.T
        yield prev, curr, grid


def bootstrap_first_step(phi0: Field, params: SchemeParams, m: int = 10) -> Field:
    """Produce phi^1 for the two-level schemes: m substeps of the
    first-order scheme with step tau/m and stabilizer B = 1/eps."""
    if m < 1:
        raise ValueError("m must be >= 1")
    first = SchemeParams(
        scheme="FIRST_ORDER", tau=params.tau / m, gamma=params.gamma,
        eps=params.eps, B=1.0 / params.eps,
    )
    op = build_step_operator(first, phi0.basis)
    for _, v1, _ in march(op, phi0.v, phi0.v, m):
        pass  # keeps only the last state
    return Field(phi0.basis, v1)


def sufficient_stabilizers(
    scheme: str, eps: float, gamma: float, tau: float, L: float
) -> tuple[float, float]:
    """Stabilizer pair (A, B) satisfying the discrete energy-dissipation
    sufficient conditions of the two schemes."""
    if scheme == "SL_CN":
        return L * L * gamma / (16.0 * eps * eps), L / (2.0 * eps)
    if scheme == "SL_BDF2":
        return max(0.0, L * L * gamma / (16.0 * eps * eps) - eps / (2.0 * tau)), L / eps
    raise ValueError("no dissipation condition for scheme " + scheme)


def bdf2_smallstep_threshold(eps: float, gamma: float, L: float) -> float:
    """Largest tau for which SL_BDF2 is provably energy stable with
    A = B = 0: tau <= 8 eps^3 / (25 L^2 gamma)."""
    return 8.0 * eps**3 / (25.0 * L * L * gamma)
