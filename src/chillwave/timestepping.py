"""Time-marching schemes for the Cahn-Hilliard equation.

Three schemes, all linear with constant coefficients. Writing M2 = mass x
mass and K2 = stiff x mass + mass x stiff, each step solves the block
system

    [ a M2          gamma K2 ] [phi_new]   [R1]
    [ -c K2 - b0 M2    M2    ] [  mu   ] = [R2]

with b0 = B. In the generalized eigenbasis of (stiffness, mass), where
K E = M E diag(lam) and E^T M E = I, M2 is the identity and K2 is sigma =
lam_k + lam_j. A field is stored in these modal coordinates (`Field.v`),
and `march` takes, steps and yields them. Eliminating mu from
R1 = r_n v^n + r_p v^{n-1} and R2 = load / eps + s sigma v^n -
B (y_n v^n + y_p v^{n-1}) leaves three per-mode weights, built once per
operator (see `build_step_operator`), and the explicit force f(w) at the
extrapolated field w = x_n v^n + x_p v^{n-1}, x_n = 1 - x_p, on its grid
g = T(w) on the 2M x 2M Gauss nodes (T and G, the quadrature against
the modal basis functions, a `field2d.GridPlan`'s `grid` and `fit`,
f = `potential.potential_deriv`). Writing f(g) = c(g) - g and using
G(T(w)) = w, the -w joins the weights of v^n and v^{n-1}, and a step is

    v^{n+1} = cn v^n + cp v^{n-1} + cl G(c(T(w)))

with the per-scheme coefficients of `_TABLE` (SL_CN stabilizes B on
2 phi^n - phi^{n-1} but extrapolates f at 1.5 phi^n - 0.5 phi^{n-1};
FIRST_ORDER has x_p = cp = 0). Inside [-P, P] c is the cube, so the
load is G(g^3) (`modal_load`). A step is one load and one new grid, two
parity-block transforms of 3M^3 multiply-adds each. All three schemes
run one step body. Its force is one combination a + x_p (b - a): of the
grids (a, b) = (g^n, g^{n-1}), g^n = T(v^n), which `march` keeps for
each level (the default), or of the modes (v^n, v^{n-1}) in a lean
march (grids=False, for callers that read only the modal pairs), which
then transforms it and keeps no grid.
FIRST_ORDER steps with v^{n-1} = v^n after its entry state, so its force
is exactly v^n, its history term exact zeros, and it never reads the
v^{n-1} it was given.
sigma and the transforms' stacks are the basis's (see Basis1D). A
`_TABLE` row also holds its scheme's modified-energy constants (h_1, h_L),
from which the operator keeps the energy weights that
`diagnostics.step_energies` reads. `march` yields the states (v^{n-1}, v^n, g^n), the entry state
first, with g^n None in a lean march. Runs and sweeps loop over them (a
run may `break` early); `lean_final`, which keeps only the last, serves
the first-order bootstrap, the prepared datum and convergence studies.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from .errors import NonFinite, check_choice, check_count, check_number
from .field2d import Field, GridPlan
from .potential import L, potential_deriv, square_in_range
from .spectral1d import Basis1D

BLOWUP_LIMIT = 1e8

# per scheme, from (tau, eps, A): a, c, (r_n, r_p), s, x_p, (y_n, y_p); x_n = 1 - x_p;
# then the modified energy's history constants (h_1, h_L), None without one
_TABLE = {
    "SL_BDF2": lambda t, e, A: (
        1.5 / t, e + A * t, (2 / t, -0.5 / t), -A * t, -1.0, (2, -1), (0.25, 0.5)),
    "SL_CN": lambda t, e, A: (
        1 / t, e / 2 + A * t, (1 / t, 0), e / 2 - A * t, -0.5, (2, -1), (0.0, 0.25)),
    "FIRST_ORDER": lambda t, e, A: (1 / t, e, (1 / t, 0), 0, 0.0, (1, 0), None),
}


@dataclass(frozen=True)
class SchemeParams:
    """Time-step configuration (tau, gamma > 0, eps in (0, 1], A, B >= 0, by
    `errors.check_number`); FIRST_ORDER's stabilizer is B, and a nonzero A raises."""

    scheme: str
    tau: float
    gamma: float
    eps: float
    A: float = 0.0
    B: float = 0.0

    def __post_init__(self):
        check_choice("scheme", self.scheme, tuple(_TABLE))
        check_number("tau", self.tau, True)
        check_number("gamma", self.gamma, True)
        check_number("eps", self.eps, True, 1.0)
        check_number("A", self.A, False)
        check_number("B", self.B, False)
        if self.scheme == "FIRST_ORDER" and self.A != 0.0:
            raise ValueError(f"FIRST_ORDER has no stabilizer A, got A = {self.A}")


@dataclass
class StepOperator:
    """Pre-built constant-coefficient modal solver, reusable across steps:
    the per-mode weights of v^{n+1} = cn v^n + cp v^{n-1} + cl load, with
    load = G c(g) G^T (`modal_load`) and cn, cp carrying the -w of
    f(g) = c(g) - g, and the force's extrapolation weight x_p; and the
    per-mode weights of its scheme's modified energy, grad = eps sigma / 2
    and the history weight hw (None for FIRST_ORDER, which has no modified
    energy)."""

    params: SchemeParams
    basis: Basis1D
    xp: float
    cn: np.ndarray
    cp: np.ndarray
    cl: np.ndarray
    grad: np.ndarray
    hw: np.ndarray | None


def build_step_operator(params: SchemeParams, basis: Basis1D) -> StepOperator:
    """Raises ValueError when a step or energy coefficient overflows (a
    subnormal tau or tau gamma, or gamma, A or B near the float range).

    The history weight of the modified energy is, per mode,
    hw = h_1 [sigma > 0] / (tau gamma sigma) + h_L L / eps + B / 2."""
    p, B, sigma = params, params.B, basis.sigma
    a, c, (rn, rp), s, xp, (yn, yp), h = _TABLE[p.scheme](p.tau, p.eps, p.A)
    gamma_sigma = p.gamma * sigma
    hw = None
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        denom = a + gamma_sigma * (c * sigma + B)  # >= a > 0 per mode pair
        cl = -gamma_sigma / (p.eps * denom)
        # f(w) = c(w) - w with w = x_n v^n + x_p v^{n-1}: the -w joins cn, cp
        cn = (rn - gamma_sigma * (s * sigma - B * yn)) / denom - cl * (1.0 - xp)
        cp = (rp + gamma_sigma * B * yp) / denom - cl * xp
        if h is not None:
            hm1 = np.divide(h[0], p.tau * p.gamma * sigma,
                            out=np.zeros_like(sigma), where=h[0] * sigma > 0.0)
            hw = hm1 + (h[1] * L / p.eps + 0.5 * B)
    if not all(np.isfinite(w).all() for w in (denom, cn, cp, cl, hw) if w is not None):
        raise ValueError(
            f"step coefficients overflow for tau = {p.tau}, gamma = {p.gamma}, "
            f"A = {p.A}, B = {p.B}"
        )
    return StepOperator(p, basis, xp, cn, cp, cl, 0.5 * p.eps * sigma, hw)


def modal_load(plan: GridPlan) -> np.ndarray:
    """G(c(grid)), the plan's `fit`, for the quadrant-major 2M grid of the
    force w in the plan's grid a, with c(g) = f(g) + g: the 2M-point
    quadrature of f against each modal basis function plus w
    (G(T(w)) = w), whose -w the folded weights cn, cp carry. On a grid
    inside [-P, P] c is the cube: grid^2, squared into the plan's b by
    `square_in_range`, times grid. Any other grid (a point outside, a NaN
    or an infinity) takes `potential_deriv`'s f plus the grid. Either c is
    written over grid and fitted by the same plan. The load is the plan's
    M x M `modes`, in b (see field2d)."""
    grid = plan.a
    if (sq := square_in_range(grid, plan.b)) is None:
        np.add(potential_deriv(grid), grid, out=grid)
    else:
        np.multiply(sq, grid, out=grid)
    return plan.fit()


def march(
    op: StepOperator, prev: np.ndarray, curr: np.ndarray, n_steps: int, *, grids: bool = True
) -> Iterator[tuple[np.ndarray, np.ndarray, np.ndarray | None]]:
    """Advance n_steps of op's scheme from the modal arrays
    (prev, curr) = (v^{n-1}, v^n); FIRST_ORDER reads only curr.

    Yields (prev, curr, grid) for the entry pair and then for each new
    pair, n_steps + 1 states, with grid the quadrant-major 2M grid of
    curr, or None in a lean march (grids=False, which `lean_final` runs).
    It steps the M x M modal arrays it was given as they are, M even, so
    that their parity blocks are views (see `field2d`). Once, before the
    entry state, it allocates its work arrays, two 2M grids, the force and
    the cube, whose memory also holds the transforms' intermediates and
    the step's modal ones while they are free, and builds their
    `field2d.GridPlan`. A step then allocates only what it yields, the new
    modal state and, unless lean, its grid, and builds views of those two
    alone (a load off [-P, P] allocates `potential_deriv`'s temporaries
    too).
    Each step writes to no array that it was given or has yielded, so a
    consumer may keep any of them but must not write to them; it stops
    early by leaving its loop. An n_steps that is not an integer >= 0
    raises ValueError before the first state. On blow-up of the modal
    coefficients the iteration raises NonFinite after the last finite
    state (stability sweeps treat that as an unstable verdict).
    """
    check_count("n_steps", n_steps, 0)
    xp, M = op.xp, op.basis.M
    plan = GridPlan(op.basis, *np.empty((2, 2, 2, M, M)))
    force, spare = plan.a, plan.a[0, 0]
    grid = plan.grid(curr) if grids else None
    grid_prev = plan.grid(prev) if grids and xp != 0.0 else grid
    yield prev, curr, grid
    if xp == 0.0:
        prev = curr  # FIRST_ORDER (x_p = cp = 0) never reads v^{n-1}
    for _ in range(n_steps):
        a, b = (grid, grid_prev) if grids else (curr, prev)
        w = np.subtract(b, a, out=force if grids else plan.modes)  # x_n a + x_p b
        w *= xp
        w += a
        b = grid_prev = None  # g^{n-1}, now dead, is freed before the new grid is made
        if not grids:  # the force's grid, over its modes
            plan.grid()
        load = modal_load(plan)
        load *= op.cl
        new = op.cn * curr
        new += np.multiply(op.cp, prev, out=spare)
        new += load
        if not np.abs(new, out=spare).max() <= BLOWUP_LIMIT:  # NaN fails the comparison too
            raise NonFinite(f"step blew up (max |modal coeff| > {BLOWUP_LIMIT:.0e} or non-finite)")
        prev, curr = curr, new
        if grids:
            grid_prev, grid = grid, plan.grid(new)
        yield prev, curr, grid


def lean_final(phi0: Field, params: SchemeParams, n_steps: int) -> Field:
    """The Field after n_steps of params' scheme from phi0 on a lean march:
    FIRST_ORDER marches from (phi0, phi0), a two-level scheme from phi0 and
    its step 1, `bootstrap_first_step`'s phi1. An n_steps that is not an
    integer >= 1 raises ValueError before any operator is built."""
    check_count("n_steps", n_steps, 1)
    if params.scheme == "FIRST_ORDER":
        start = phi0
    else:
        start, n_steps = bootstrap_first_step(phi0, params), n_steps - 1
    op = build_step_operator(params, phi0.basis)
    for _, final, _ in march(op, phi0.v, start.v, n_steps, grids=False):
        pass  # keeps only the last state
    return Field(phi0.basis, final)


def bootstrap_first_step(phi0: Field, params: SchemeParams) -> Field:
    """phi^1 for the two-level schemes: `lean_final` of 10 first-order
    substeps of tau/10 with stabilizer B = 1/eps."""
    first = SchemeParams("FIRST_ORDER", params.tau / 10, params.gamma, params.eps, B=1 / params.eps)
    return lean_final(phi0, first, 10)


def _quotient(num: float, den: float, inputs: str) -> float:
    """num / den of two positives; a ValueError naming the inputs unless it is in (0, inf)."""
    if den == 0.0 or not 0.0 < (q := num / den) < np.inf:
        raise ValueError(f"a theorem bound is not a finite float for {inputs}")
    return q


def sufficient_stabilizers(
    scheme: str, eps: float, gamma: float, tau: float, L: float
) -> tuple[float, float]:
    """Stabilizer pair (A, B) meeting the two schemes' sufficient discrete
    energy-dissipation conditions, for eps in (0, 1] and gamma, tau, L > 0."""
    check_choice("scheme", scheme, ("SL_BDF2", "SL_CN"))
    check_number("eps", eps, True, 1.0)
    for name, value in (("gamma", gamma), ("tau", tau), ("L", L)):
        check_number(name, value, True)
    inputs = f"{scheme} at eps = {eps}, gamma = {gamma}, tau = {tau}, L = {L}"
    if scheme == "SL_CN":
        return _quotient(L * L * gamma, 16.0 * eps * eps, inputs), _quotient(L, 2.0 * eps, inputs)
    return (max(0.0, _quotient(L * L * gamma, 16.0 * eps * eps, inputs)
                - _quotient(eps, 2.0 * tau, inputs)), _quotient(L, eps, inputs))
