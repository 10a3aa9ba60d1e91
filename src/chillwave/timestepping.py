"""Time-marching schemes for the Cahn-Hilliard equation.

Three schemes, all linear with constant coefficients, all reduced to one
modal solve per step. Writing M2 = mass x mass and K2 = stiff x mass +
mass x stiff, each step solves the block system

    [ a M2          gamma K2 ] [phi_new]   [R1]
    [ -c K2 - b0 M2    M2    ] [  mu   ] = [R2]

with scheme-dependent scalars (a, c, b0):

    SL_BDF2      a = 3/(2 tau),  c = eps + A tau,    b0 = B
    SL_CN        a = 1/tau,      c = eps/2 + A tau,  b0 = B
    FIRST_ORDER  a = 1/tau,      c = eps,            b0 = B

In the generalized eigenbasis of (stiffness, mass) both M2 and K2 are
diagonal (identity and sigma = lam_k + lam_j), so eliminating mu gives a
scalar equation per mode:

    (a + gamma sigma (c sigma + b0)) phi_tilde = R1_tilde - gamma sigma R2_tilde
    mu_tilde = R2_tilde + (c sigma + b0) phi_tilde.

This is a direct solve; the assembled block residual is still checked
against the 1e-10 contract at every step. `march` holds the one loop that
advances any of the three schemes; runs, sweeps, convergence studies and
the first-order bootstrap all step through it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import NonFinite, SingularSystem, SolveFailed
from .field2d import (
    Field,
    from_modal,
    mass_apply,
    modal_decomposition,
    nonlinear_load,
    stiffness_apply,
    to_modal,
)
from .potential import PotentialSpec
from .spectral1d import Basis1D

SCHEMES = ("SL_BDF2", "SL_CN", "FIRST_ORDER")

BLOWUP_LIMIT = 1e8
RESIDUAL_LIMIT = 1e-10


@dataclass(frozen=True)
class SchemeParams:
    """Time-step configuration. FIRST_ORDER ignores A and uses B as its
    stabilizer."""

    scheme: str
    tau: float
    gamma: float
    eps: float
    A: float = 0.0
    B: float = 0.0

    def __post_init__(self):
        if self.scheme not in SCHEMES:
            raise ValueError(f"scheme must be one of {SCHEMES}")
        if not self.tau > 0.0:
            raise ValueError("tau must be > 0")
        if not self.gamma > 0.0:
            raise ValueError("gamma must be > 0")
        if not 0.0 < self.eps <= 1.0:
            raise ValueError("eps must be in (0, 1]")
        if self.A < 0.0 or self.B < 0.0:
            raise ValueError("stabilizers A, B must be >= 0")


@dataclass
class StepOperator:
    """Pre-built constant-coefficient solver, reusable across steps."""

    params: SchemeParams
    basis: Basis1D
    a: float
    c: float
    b0: float
    denom: np.ndarray  # a + gamma sigma (c sigma + b0), per mode pair


def _scheme_scalars(p: SchemeParams) -> tuple[float, float, float]:
    if p.scheme == "SL_BDF2":
        return 1.5 / p.tau, p.eps + p.A * p.tau, p.B
    if p.scheme == "SL_CN":
        return 1.0 / p.tau, 0.5 * p.eps + p.A * p.tau, p.B
    return 1.0 / p.tau, p.eps, p.B


def build_step_operator(params: SchemeParams, basis: Basis1D) -> StepOperator:
    a, c, b0 = _scheme_scalars(params)
    _, _, sigma = modal_decomposition(basis)
    denom = a + params.gamma * sigma * (c * sigma + b0)
    if not np.all(np.isfinite(denom)) or np.min(np.abs(denom)) < 1e-300:
        raise SingularSystem("step operator denominators are degenerate")
    return StepOperator(params=params, basis=basis, a=a, c=c, b0=b0, denom=denom)


def solve_blocks(op: StepOperator, R1: np.ndarray, R2: np.ndarray):
    """Solve the block system for given load arrays; returns coefficient
    matrices (phi, mu) and the relative residual of the assembled blocks."""
    basis = op.basis
    _, _, sigma = modal_decomposition(basis)
    r1t, r2t = to_modal(basis, R1), to_modal(basis, R2)
    phit = (r1t - op.params.gamma * sigma * r2t) / op.denom
    mut = r2t + (op.c * sigma + op.b0) * phit
    phi = from_modal(basis, phit)
    mu = from_modal(basis, mut)

    res1 = op.a * mass_apply(basis, phi) + op.params.gamma * stiffness_apply(basis, mu) - R1
    res2 = (
        -op.c * stiffness_apply(basis, phi)
        - op.b0 * mass_apply(basis, phi)
        + mass_apply(basis, mu)
        - R2
    )
    num = np.sqrt(np.sum(res1 * res1) + np.sum(res2 * res2))
    den = 1.0 + np.sqrt(np.sum(R1 * R1) + np.sum(R2 * R2))
    return phi, mu, float(num / den)


def _rhs(op: StepOperator, spec: PotentialSpec, curr: np.ndarray, prev: np.ndarray):
    p = op.params
    basis = op.basis
    if p.scheme == "SL_BDF2":
        extr = 2.0 * curr - prev
        R1 = mass_apply(basis, 4.0 * curr - prev) / (2.0 * p.tau)
        R2 = (
            nonlinear_load(spec, basis, extr) / p.eps
            - p.A * p.tau * stiffness_apply(basis, curr)
            - p.B * mass_apply(basis, extr)
        )
    elif p.scheme == "SL_CN":
        R1 = mass_apply(basis, curr) / p.tau
        R2 = (
            (0.5 * p.eps - p.A * p.tau) * stiffness_apply(basis, curr)
            + nonlinear_load(spec, basis, 1.5 * curr - 0.5 * prev) / p.eps
            - p.B * mass_apply(basis, 2.0 * curr - prev)
        )
    else:  # FIRST_ORDER uses only the current level
        R1 = mass_apply(basis, curr) / p.tau
        R2 = nonlinear_load(spec, basis, curr) / p.eps - p.B * mass_apply(basis, curr)
    return R1, R2


def march(
    op: StepOperator,
    spec: PotentialSpec,
    prev: np.ndarray,
    curr: np.ndarray,
    n_steps: int,
    observe: Callable[[np.ndarray, np.ndarray, float], None] | None = None,
) -> tuple[np.ndarray, np.ndarray, float]:
    """Advance n_steps of op's scheme from the coefficient arrays
    (prev, curr) = (phi^{n-1}, phi^n); FIRST_ORDER reads only curr.

    After each step observe(prev, curr, residual) sees the new pair and the
    block residual of the solve that produced curr. Returns the last pair
    and the worst residual. Raises NonFinite on blow-up (stability sweeps
    treat that as an unstable verdict) and SolveFailed if a block residual
    exceeds 1e-10.
    """
    worst = 0.0
    for _ in range(n_steps):
        R1, R2 = _rhs(op, spec, curr, prev)
        phi, _, residual = solve_blocks(op, R1, R2)
        if not np.all(np.isfinite(phi)) or np.max(np.abs(phi)) > BLOWUP_LIMIT:
            raise NonFinite(f"step blew up (max |coeff| > {BLOWUP_LIMIT:.0e} or non-finite)")
        if residual > RESIDUAL_LIMIT:
            raise SolveFailed(f"block residual {residual:.3e} exceeds {RESIDUAL_LIMIT:.0e}")
        prev, curr = curr, phi
        worst = max(worst, residual)
        if observe is not None:
            observe(prev, curr, residual)
    return prev, curr, worst


def bootstrap_first_step(
    phi0: Field,
    params: SchemeParams,
    m: int = 10,
    spec: PotentialSpec = PotentialSpec(),
) -> tuple[Field, float]:
    """Produce phi^1 for the two-level schemes: m substeps of the
    first-order scheme with step tau/m and stabilizer B = 1/eps.

    Returns phi^1 and the worst block residual of the substeps.
    """
    if m < 1:
        raise ValueError("m must be >= 1")
    first = SchemeParams(
        scheme="FIRST_ORDER", tau=params.tau / m, gamma=params.gamma,
        eps=params.eps, B=1.0 / params.eps,
    )
    op = build_step_operator(first, phi0.basis)
    _, phi1, worst = march(op, spec, phi0.coeffs, phi0.coeffs, m)
    return Field(phi0.basis, phi1), worst


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
