"""End-to-end acceptance checks.

One test per criterion; each prints a single PASS/FAIL line (straight to
the terminal, bypassing capture) and asserts the same condition. Expensive
runs are cached at module scope and shared between criteria.
"""
import math
from functools import lru_cache

import numpy as np
import pytest

import chillwave as cw
from chillwave.field2d import from_nodal
from chillwave.harness import random_nodal_field
from conftest import legendre_field, unit_field

L = 11.0
EPS = 0.05
GAMMA = 0.0025
M_RUN = 48
SEED = 42
STEPS = 1024


def report(capsys, k, ok, desc):
    with capsys.disabled():
        print(f"\nACCEPTANCE {k}: {'PASS' if ok else 'FAIL'} - {desc}")


@lru_cache(maxsize=None)
def theorem_run(scheme, tau):
    """1024-step seeded run with the dissipation-theorem stabilizers."""
    A, B = cw.sufficient_stabilizers(scheme, EPS, GAMMA, tau, L)
    cfg = cw.RunConfig(M=M_RUN, eps=EPS, gamma=GAMMA, tau=tau, T=STEPS * tau,
                       scheme=scheme, A=A, B=B, seed=SEED)
    return cw.run_simulation(cfg)[0]


@lru_cache(maxsize=None)
def smallstep_run():
    tau = cw.bdf2_smallstep_threshold(EPS, GAMMA, L)
    cfg = cw.RunConfig(M=M_RUN, eps=EPS, gamma=GAMMA, tau=tau, T=STEPS * tau,
                       scheme="SL_BDF2", A=0.0, B=0.0, seed=SEED)
    return cw.run_simulation(cfg)[0]


@lru_cache(maxsize=None)
def convergence_orders(scheme):
    B = 40.0 if scheme == "SL_BDF2" else 20.0
    cfg = cw.RunConfig(M=64, eps=0.08, gamma=GAMMA, tau=0.04, T=1.6,
                       scheme=scheme, A=0.25, B=B, seed=SEED, initial="prepared")
    rows = cw.convergence_study(cfg, [0.04, 0.02, 0.01, 0.005], 6.25e-4)
    orders = []
    for row in rows[1:]:
        orders += [row.h_minus1_order, row.l2_order, row.h1_order]
    return orders


def test_criterion_1_volume_conservation(capsys):
    mean0 = cw.mean_value(random_nodal_field(cw.assemble_basis(M_RUN), SEED))
    drift = 0.0
    for scheme in ("SL_BDF2", "SL_CN"):
        trace = theorem_run(scheme, 0.01)
        drift = max(drift, np.abs(trace.column("mean") - mean0).max())
    ok = drift <= 1e-11
    report(capsys, 1, ok,
           f"volume conservation over {STEPS} steps, both schemes at "
           f"M={M_RUN}, tau=0.01: max |mean(phi^n) - mean(phi^0)| = {drift:.2e} "
           f"(tolerance 1e-11)")
    assert ok


def test_criterion_2_energy_dissipation(capsys):
    verdicts = {}
    worst = -math.inf
    for scheme in ("SL_BDF2", "SL_CN"):
        for tau in (0.01, 0.1):
            trace = theorem_run(scheme, tau)
            verdicts[(scheme, tau)] = cw.stability_verdict(trace)
            worst = max(worst, trace.column("dE_mod").max())
    ok = all(v == "stable" for v in verdicts.values())
    report(capsys, 2, ok,
           f"modified-energy dissipation with theorem stabilizers, tau in "
           f"{{0.01, 0.1}}, both schemes: verdicts all stable, max per-step "
           f"increase = {worst:.2e} (threshold 1e-10)")
    assert ok


def test_criterion_3_smallstep_unconditional(capsys):
    trace = smallstep_run()
    verdict = cw.stability_verdict(trace)
    tau = cw.bdf2_smallstep_threshold(EPS, GAMMA, L)
    ok = verdict == "stable"
    report(capsys, 3, ok,
           f"SL_BDF2 with A = B = 0 at tau = 8 eps^3/(25 L^2 gamma) = "
           f"{tau:.6e}: verdict {verdict} over {STEPS} steps")
    assert ok


def test_criterion_4_second_order_convergence(capsys):
    orders = {s: convergence_orders(s) for s in ("SL_BDF2", "SL_CN")}
    flat = [o for v in orders.values() for o in v]
    ok = all(1.7 <= o <= 2.2 for o in flat)
    report(capsys, 4, ok,
           f"temporal convergence at eps=0.08, M=64, T=1.6, prepared data, "
           f"tau in {{0.04..0.005}}: observed orders (H^-1, L2, H1) span "
           f"[{min(flat):.2f}, {max(flat):.2f}], required [1.7, 2.2]")
    assert ok


def test_criterion_5_spectral_oracles(capsys):
    # clause 1: H^-1 norm of the projected cosine product
    b32 = cw.assemble_basis(32)
    x2m = b32.nodes_2M
    grid = np.cos(np.pi * x2m)[:, None] * np.cos(np.pi * x2m)[None, :]
    u = from_nodal(b32, grid)
    got = cw.hminus1_norm(u)
    want = 1.0 / (np.sqrt(2.0) * np.pi)
    cosine_ok = abs(got - want) <= 1e-6

    # clause 2: assembled stiffness against the closed form of
    # integral L_j' L_k' = m(m+1), m = min(j, k), for j + k even (else 0)
    expected = np.zeros((32, 32))
    for j in range(32):
        for k in range(32):
            if (j + k) % 2 == 0:
                m = min(j, k)
                expected[j, k] = m * (m + 1)
    stiffness_ok = np.abs(b32.stiffness - expected).max() <= 1e-12

    # clause 3: Gauss exactness on monomials up to degree 2n-1
    quad_ok = True
    for n in (2, 5, 16, 31):
        x, w = cw.gauss_legendre(n)
        for deg in range(2 * n):
            quad = w @ x**deg
            exact = 2.0 / (deg + 1) if deg % 2 == 0 else 0.0
            err = abs(quad - exact) / max(abs(exact), 1.0)
            quad_ok = quad_ok and err <= 1e-12

    ok = cosine_ok and stiffness_ok and quad_ok
    report(capsys, 5, ok,
           f"spectral oracles: hminus1(proj cos cos) = {got:.6f} vs "
           f"{want:.6f} within 1e-6 -> {cosine_ok}; stiffness closed form "
           f"-> {stiffness_ok}; Gauss monomial exactness -> {quad_ok}")
    assert ok


def test_criterion_6_algebraic_identities(capsys):
    basis = cw.assemble_basis(16)
    rng = np.random.default_rng(SEED)

    def zero_mean():
        coeffs = rng.standard_normal((16, 16))
        coeffs[0, 0] = 0.0
        return legendre_field(basis, coeffs)

    def close(lhs, rhs):
        return abs(lhs - rhs) <= 1e-11 * max(abs(lhs), abs(rhs), 1e-6)

    inners = {"L2": cw.inner_l2, "H-1": cw.inner_hminus1}
    worst_ok = True
    for _ in range(100):
        a, b, c = zero_mean(), zero_mean(), zero_mean()
        for inner in inners.values():
            def nsq(u):
                return inner(u, u)

            d = cw.Field(basis, a.v - b.v)
            lhs = 2.0 * inner(d, a)
            rhs = nsq(a) - nsq(b) + nsq(d)
            worst_ok = worst_ok and close(lhs, rhs)

            g = cw.Field(basis, 3 * a.v - 4 * b.v + c.v)
            lhs2 = 2.0 * inner(g, a)
            rhs2 = (
                nsq(a) - nsq(b)
                + nsq(cw.Field(basis, 2 * a.v - b.v))
                - nsq(cw.Field(basis, 2 * b.v - c.v))
                + nsq(cw.Field(basis, a.v - 2 * b.v + c.v))
            )
            worst_ok = worst_ok and close(lhs2, rhs2)
    report(capsys, 6, worst_ok,
           "two-level and three-level telescoping identities hold within "
           "1e-11 relative for 100 random field pairs/triples in both the "
           "L2 and H^-1 inner products")
    assert worst_ok


def test_criterion_7_constant_equilibrium(capsys):
    # c = 0.8 is a linearly stable constant (f'(c) > 0); inside the
    # spinodal interval |c| < 1/sqrt(3) the dynamics amplifies
    # roundoff-seeded modes exponentially, which measures the PDE, not
    # the fixed-point property.
    basis = cw.assemble_basis(16)
    c = unit_field(basis, 0, 0, 0.8)
    worst = 0.0
    schemes = [cw.SchemeParams(scheme=scheme, tau=0.1, gamma=GAMMA, eps=EPS, A=1.0, B=10.0)
               for scheme in ("SL_BDF2", "SL_CN")]
    schemes.append(cw.SchemeParams(scheme="FIRST_ORDER", tau=0.1, gamma=GAMMA, eps=EPS,
                                   B=1.0 / EPS))
    for params in schemes:
        for prev, curr, _ in cw.march(cw.build_step_operator(params, basis), c.v, c.v, 100):
            # modal coefficients: the L^2 norm of a field is their 2-norm
            worst = max(worst, np.abs(curr - prev).max())

    ok = worst <= 1e-12
    report(capsys, 7, ok,
           f"constant initial data is a fixed point of all three schemes: "
           f"max per-step modal movement over 100 steps = {worst:.2e} "
           f"(tolerance 1e-12)")
    assert ok


def test_criterion_8_block_residuals(capsys):
    worst = 0.0
    for scheme in ("SL_BDF2", "SL_CN"):
        for tau in (0.01, 0.1):
            worst = max(worst, theorem_run(scheme, tau).max_residual)
    worst = max(worst, smallstep_run().max_residual)
    # also witness the convergence-study regime (M=64, prepared data)
    for scheme, B in (("SL_BDF2", 40.0), ("SL_CN", 20.0)):
        cfg = cw.RunConfig(M=64, eps=0.08, gamma=GAMMA, tau=0.04, T=0.4,
                           scheme=scheme, A=0.25, B=B, seed=SEED,
                           initial="prepared")
        worst = max(worst, cw.run_simulation(cfg)[0].max_residual)
    ok = worst <= 1e-10
    report(capsys, 8, ok,
           f"eigendecomposition residuals (||KE - MEL|| / ||KE||, ||E^T M E - I||) "
           f"behind the modal solves of all acceptance runs: worst = "
           f"{worst:.2e} (contract 1e-10)")
    assert ok


def test_criterion_9_sweep_cells(capsys):
    base = cw.RunConfig(M=M_RUN, eps=EPS, gamma=GAMMA, tau=0.01, T=10.24,
                        scheme="SL_BDF2", seed=SEED)

    sc = cw.SweepConfig(base=base, target="A", gamma_list=[GAMMA],
                        tau_list=[0.01], fixed_value=0.0)
    min_a = cw.sweep_min_stabilizer(sc).cells[(GAMMA, 0.01)]

    base_cn = cw.RunConfig(M=M_RUN, eps=EPS, gamma=1.0, tau=10.0, T=10240.0,
                           scheme="SL_CN", seed=SEED)
    sc_cn = cw.SweepConfig(base=base_cn, target="B", gamma_list=[1.0],
                           tau_list=[10.0], fixed_value=25.0)
    min_b = cw.sweep_min_stabilizer(sc_cn).cells[(1.0, 10.0)]

    # a nonzero B should not increase the minimal stable A
    mins = {}
    for B in (0.0, 40.0):
        base_col = cw.RunConfig(M=M_RUN, eps=EPS, gamma=1.0, tau=0.1, T=102.4,
                                scheme="SL_BDF2", seed=SEED)
        sc_col = cw.SweepConfig(base=base_col, target="A", gamma_list=[1.0],
                                tau_list=[0.1], fixed_value=B)
        val = cw.sweep_min_stabilizer(sc_col).cells[(1.0, 0.1)]
        mins[B] = math.inf if val is None else val

    ok = min_a == 0.0 and min_b == 0.0 and mins[40.0] <= mins[0.0]
    report(capsys, 9, ok,
           f"sweep cells: min A (SL_BDF2, gamma={GAMMA}, B=0, tau=0.01) = "
           f"{min_a}; min B (SL_CN, gamma=1, A=25, tau=10) = {min_b}; "
           f"gamma=1, tau=0.1 column: min A falls from {mins[0.0]:g} at B=0 "
           f"to {mins[40.0]:g} at B=40")
    assert ok


def spatial_run(M):
    """The criterion-10 run at M modes: SL_BDF2, 100 steps of 1e-3 from the
    projected 0.4 cos(pi x) cos(pi y) + 0.2 cos(2 pi x)."""
    basis = cw.assemble_basis(M)
    c1, c2 = np.cos(np.pi * basis.nodes_2M), np.cos(2 * np.pi * basis.nodes_2M)
    phi0 = from_nodal(basis, 0.4 * np.outer(c1, c1) + 0.2 * c2[:, None])
    cfg = cw.RunConfig(M=M, eps=0.2, gamma=0.01, tau=1e-3, T=0.1, scheme="SL_BDF2",
                       A=1.0, B=5.0)
    trace, final, _ = cw.run_simulation(cfg, phi_init=phi0)
    assert not trace.blew_up and len(trace) == 100
    return final


def test_criterion_10_spatial_convergence(capsys):
    # the basis L_k is hierarchical, so an M-mode field embeds exactly in
    # the M = 64 space by zero-padding its Legendre coefficients
    ref = spatial_run(64)
    errs = []
    for M in (8, 12, 16, 20, 24, 32):
        padded = np.zeros((64, 64))
        padded[:M, :M] = spatial_run(M).coeffs
        errs.append(cw.norm_l2(legendre_field(ref.basis, padded - ref.coeffs)))
    # bound: the 3.9e-8 of the prototype table in ROADMAP item 3, to one
    # digit; its smallest ratio between neighbours there is 4.2
    geometric = all(fine <= coarse / 3 for coarse, fine in zip(errs, errs[1:]))
    ok = geometric and errs[-1] <= 4e-8
    report(capsys, 10, ok,
           f"spatial convergence of an SL_BDF2 run (eps=0.2, 100 steps of 1e-3) to "
           f"M=64: L2 errors at M=8..32 "
           f"{', '.join(f'{e:.1e}' for e in errs)}, each >= 3x below the last -> "
           f"{geometric}; M=32 error {errs[-1]:.2e} (bound 4e-8)")
    assert ok
