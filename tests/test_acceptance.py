"""End-to-end acceptance checks.

One test per criterion; each prints a single PASS/FAIL line (straight to
the terminal, bypassing capture) and asserts the same condition. The
linearized prediction of criterion 13's cells prints its numbers too. Expensive
runs are cached and shared between criteria; the benchmark workloads'
runs come from `experiment`, each behind a check that the configs match.
"""
import math
from dataclasses import replace
from functools import lru_cache

import numpy as np
import pytest

import chillwave as cw
from chillwave.harness import random_nodal_field
from conftest import (
    amplification_factors, fitted, grid_of, legendre_field, natural, unit_field,
)

L = 11.0
EPS = 0.05
GAMMA = 0.0025
M_RUN = 48
SEED = 42
STEPS = 1024
TAUS, TAU_REF = [0.04, 0.02, 0.01, 0.005], 6.25e-4  # criterion 4


def report(capsys, k, ok, desc):
    with capsys.disabled():
        print(f"\nACCEPTANCE {k}: {'PASS' if ok else 'FAIL'} - {desc}")


@lru_cache(maxsize=None)
def theorem_run(scheme, tau, experiment):
    """1024-step seeded run with the dissipation-theorem stabilizers."""
    A, B = cw.sufficient_stabilizers(scheme, EPS, GAMMA, tau, L)
    cfg = cw.RunConfig(M=M_RUN, eps=EPS, gamma=GAMMA, tau=tau, T=STEPS * tau,
                       scheme=scheme, A=A, B=B, seed=SEED)
    if (scheme, tau) != ("SL_BDF2", 0.01):
        return cw.run_simulation(cfg)[0]
    ctx, (trace, _, _) = experiment("trace_m48")
    assert cfg == ctx.cfg
    return trace


def smallstep_bound(eps, gamma):
    """The paper's sufficient bound on an energy-stable SL_BDF2 step at
    A = B = 0."""
    return 8.0 * eps**3 / (25.0 * L * L * gamma)


@lru_cache(maxsize=None)
def smallstep_run():
    tau = smallstep_bound(EPS, GAMMA)
    cfg = cw.RunConfig(M=M_RUN, eps=EPS, gamma=GAMMA, tau=tau, T=STEPS * tau,
                       scheme="SL_BDF2", A=0.0, B=0.0, seed=SEED)
    return cw.run_simulation(cfg)[0]


def convergence_orders(scheme, experiment, workloads):
    B = 40.0 if scheme == "SL_BDF2" else 20.0
    cfg = cw.RunConfig(M=64, eps=0.08, gamma=GAMMA, tau=0.04, T=1.6,
                       scheme=scheme, A=0.25, B=B, seed=SEED, initial="prepared")
    if scheme == "SL_BDF2":
        ctx, rows = experiment("converge_c4")
        assert (cfg, TAUS, TAU_REF) == (ctx.cfg, workloads.TAUS, workloads.TAU_REF)
    else:
        rows = cw.convergence_study(cfg, TAUS, TAU_REF)
    orders = []
    for row in rows[1:]:
        orders += [row.h_minus1_order, row.l2_order, row.h1_order]
    return orders


def test_criterion_1_volume_conservation(capsys, experiment):
    mean0 = cw.mean_value(random_nodal_field(cw.assemble_basis(M_RUN), SEED))
    drift = 0.0
    for scheme in ("SL_BDF2", "SL_CN"):
        trace = theorem_run(scheme, 0.01, experiment)
        drift = max(drift, np.abs(trace.column("mean") - mean0).max())
    ok = drift <= 1e-11
    report(capsys, 1, ok,
           f"volume conservation over {STEPS} steps, both schemes at "
           f"M={M_RUN}, tau=0.01: max |mean(phi^n) - mean(phi^0)| = {drift:.2e} "
           f"(tolerance 1e-11)")
    assert ok


def test_criterion_2_energy_dissipation(capsys, experiment):
    verdicts = {}
    worst = -math.inf
    for scheme in ("SL_BDF2", "SL_CN"):
        for tau in (0.01, 0.1):
            trace = theorem_run(scheme, tau, experiment)
            verdicts[(scheme, tau)] = cw.stability_verdict(trace)
            worst = max(worst, trace.max_dE_mod)
    ok = all(v == "stable" for v in verdicts.values())
    report(capsys, 2, ok,
           f"modified-energy dissipation with theorem stabilizers, tau in "
           f"{{0.01, 0.1}}, both schemes: verdicts all stable, max per-step "
           f"increase over rows n >= 2 = {worst:.2e} (threshold 1e-10)")
    assert ok


def test_criterion_3_smallstep_unconditional(capsys):
    trace = smallstep_run()
    verdict = cw.stability_verdict(trace)
    tau = smallstep_bound(EPS, GAMMA)
    ok = verdict == "stable"
    report(capsys, 3, ok,
           f"SL_BDF2 with A = B = 0 at tau = 8 eps^3/(25 L^2 gamma) = "
           f"{tau:.6e}: verdict {verdict} over {STEPS} steps")
    assert ok


def test_criterion_4_second_order_convergence(capsys, experiment, workloads):
    orders = {s: convergence_orders(s, experiment, workloads) for s in ("SL_BDF2", "SL_CN")}
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
    x2m, _ = cw.gauss_legendre(64)
    grid = np.cos(np.pi * x2m)[:, None] * np.cos(np.pi * x2m)[None, :]
    u = fitted(b32, grid)
    got = cw.error_norms(u, cw.Field(b32, np.zeros((32, 32))))[0]
    want = 1.0 / (np.sqrt(2.0) * np.pi)
    cosine_ok = abs(got - want) <= 1e-6

    # clause 2: the basis's eigenpair against the closed form of
    # integral L_j' L_k' = m(m+1), m = min(j, k), for j + k even (else 0):
    # K E = M E diag(lam) with the mass diag(2/(2k+1))
    expected = np.zeros((32, 32))
    for j in range(32):
        for k in range(32):
            if (j + k) % 2 == 0:
                m = min(j, k)
                expected[j, k] = m * (m + 1)
    KE, ME = expected @ b32.E, (2.0 / (2 * np.arange(32) + 1))[:, None] * b32.E
    stiffness_ok = np.linalg.norm(KE - ME * b32.lam) <= 1e-12 * np.linalg.norm(KE)

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

    pos = basis.sigma > 0.0
    inners = {"L2": lambda u, w: float(np.sum(u.v * w.v)),
              "H-1": lambda u, w: float(np.sum(u.v[pos] * w.v[pos] / basis.sigma[pos]))}
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


def test_criterion_8_block_residuals(capsys, experiment):
    worst = 0.0
    for scheme in ("SL_BDF2", "SL_CN"):
        for tau in (0.01, 0.1):
            worst = max(worst, theorem_run(scheme, tau, experiment).max_residual)
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


def sweep_c9_cells(experiment):
    """The cells of the four criterion-9 sweeps, read from the sweep_c9
    workload once its configs are checked against these."""
    sweeps = [("SL_BDF2", GAMMA, 0.01, "A", 0.0), ("SL_CN", 1.0, 10.0, "B", 25.0),
              ("SL_BDF2", 1.0, 0.1, "A", 0.0), ("SL_BDF2", 1.0, 0.1, "A", 40.0)]
    cells = []
    for (scheme, gamma, tau, target, fixed), result in zip(sweeps, experiment("sweep_c9")[1],
                                                           strict=True):
        sc, base = result.config, cw.RunConfig(M=M_RUN, eps=EPS, gamma=gamma, tau=tau,
                                               T=STEPS * tau, scheme=scheme, seed=SEED)
        assert (sc.base, sc.base.n_steps(), sc.target, sc.fixed_value, sc.gamma_list,
                sc.tau_list, sc.ladder) == (base, STEPS, target, fixed, [gamma], [tau], None)
        cells.append(result.cells[(gamma, tau)])
    return cells


def test_criterion_9_sweep_cells(capsys, experiment):
    min_a, min_b, *column = sweep_c9_cells(experiment)
    # a nonzero B should not increase the minimal stable A
    mins = dict(zip((0.0, 40.0), (math.inf if val is None else val for val in column)))

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
    x, _ = cw.gauss_legendre(2 * M)
    c1, c2 = np.cos(np.pi * x), np.cos(2 * np.pi * x)
    phi0 = fitted(basis, 0.4 * np.outer(c1, c1) + 0.2 * c2[:, None])
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
        errs.append(cw.error_norms(legendre_field(ref.basis, padded), ref)[1])
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


def paper_eps_final(scheme, datum, M):
    """The criterion-11 run at M modes: 256 steps of 0.01 at eps = 0.05 with
    the theorem stabilizers, from the Legendre coefficients datum
    zero-padded to M (exact at every M), on the lean march."""
    padded = np.zeros((M, M))
    padded[:datum.shape[0], :datum.shape[1]] = datum
    phi0 = legendre_field(cw.assemble_basis(M), padded)
    A, B = cw.sufficient_stabilizers(scheme, EPS, GAMMA, 0.01, L)
    params = cw.SchemeParams(scheme=scheme, tau=0.01, gamma=GAMMA, eps=EPS, A=A, B=B)
    return cw.lean_final(phi0, params, 256)


def test_criterion_11_spatial_convergence_paper_eps(capsys):
    # criterion 10 at the paper's eps = 0.05, from seed-42 prepare_phi1 at
    # M = 32: each M zero-padded into one shared M = 96 run per scheme
    datum = cw.prepare_phi1(random_nodal_field(cw.assemble_basis(32), SEED), EPS).coeffs
    errs = {}
    for scheme in ("SL_BDF2", "SL_CN"):
        ref = paper_eps_final(scheme, datum, 96)
        errs[scheme] = []
        for M in (32, 48, 64):
            padded = np.zeros((96, 96))
            padded[:M, :M] = paper_eps_final(scheme, datum, M).coeffs
            errs[scheme].append(cw.error_norms(legendre_field(ref.basis, padded), ref)[1])
    # bound: the ROADMAP table gives 3.75e-2, 4.78e-3 and 6.65e-4 for
    # SL_BDF2, a smallest ratio of 7.1 between neighbours
    geometric = all(fine <= coarse / 4 for e in errs.values() for coarse, fine in zip(e, e[1:]))
    ok = geometric and all(e[1] <= 1e-2 for e in errs.values())
    report(capsys, 11, ok,
           f"spatial convergence at eps={EPS} (256 steps of 0.01, theorem stabilizers) to "
           f"M=96: L2 errors at M=32, 48, 64 "
           + "; ".join(f"{s} {', '.join(f'{x:.2e}' for x in e)}" for s, e in errs.items())
           + f", each >= 4x below the last -> {geometric}; M=48 errors <= 1e-2")
    assert ok


def lean_errors(phi0, params, T, ref=None):
    """error_norms of `cw.lean_final` at T, one triple per tau in TAUS, against
    the Field ref, by default params' own run at TAU_REF."""
    if ref is None:
        ref = cw.lean_final(phi0, replace(params, tau=TAU_REF), round(T / TAU_REF))
    return [cw.error_norms(cw.lean_final(phi0, replace(params, tau=tau), round(T / tau)), ref)
            for tau in TAUS]


def local_powers(c):
    """log2(C(eps/2) / C(eps)) between neighbours of a C list over halving eps."""
    return [math.log2(fine / coarse) for coarse, fine in zip(c, c[1:])]


def error_constant_params(scheme, eps):
    """Criterion 12's step at TAU_REF: SL_CN's theorem A, L^2 gamma /
    (16 eps^2), for both schemes, and B each scheme's theorem B."""
    A = cw.sufficient_stabilizers("SL_CN", eps, GAMMA, TAU_REF, L)[0]
    B = cw.sufficient_stabilizers(scheme, eps, GAMMA, TAU_REF, L)[1]
    return cw.SchemeParams(scheme, tau=TAU_REF, gamma=GAMMA, eps=eps, A=A, B=B)


@lru_cache(maxsize=None)
def own_datum_study(scheme, eps):
    """Criterion 12's convergence table at eps, M = 32 and T = 1.6, from
    eps's own prepared seed-42 datum."""
    p = error_constant_params(scheme, eps)
    cfg = cw.RunConfig(M=32, eps=eps, gamma=GAMMA, tau=TAU_REF, T=1.6, scheme=scheme,
                       A=p.A, B=p.B, seed=SEED, initial="prepared")
    return cw.convergence_study(cfg, TAUS, TAU_REF)


def test_criterion_12_error_constant_across_eps(capsys):
    # criterion 4's study at M = 32 for eps = 0.16, 0.08, 0.04, each from
    # its own prepared seed-42 datum; A is SL_CN's theorem A, L^2 gamma /
    # (16 eps^2), for both schemes, and B each scheme's theorem B. The
    # fixed-datum variant runs eps = 0.08's datum at every eps, so that C
    # shows eps's effect alone. At eps = 0.08 it is the own-datum study,
    # which it reuses; SL_BDF2's there must equal `lean_errors`' bit for bit
    # (one scheme's check covers the path both take, and a second would
    # cost 0.085 s more of tier-1). Measured fixed-datum C:
    # SL_BDF2 2.05, 10.1, 140, SL_CN 0.348, 10.0, 136, local powers 2.30,
    # 3.79 and 4.85, 3.77 against 10.42, 5.77 and 9.51, 5.81 on own data;
    # the finest orders' least, 1.932, sits 0.032 above the floor
    datum = cw.prepare_phi1(random_nodal_field(cw.assemble_basis(32), SEED), 0.08)
    C, finest, C_fixed, finest_fixed = {}, [], {}, []
    for scheme in ("SL_BDF2", "SL_CN"):
        C[scheme], C_fixed[scheme] = [], []
        for eps in (0.16, 0.08, 0.04):
            rows = own_datum_study(scheme, eps)
            finest.append(rows.l2_order[-1])
            C[scheme].append(rows.l2_err[-1] / TAUS[-1] ** 2)
            params = error_constant_params(scheme, eps)
            if eps == 0.08:
                if scheme == "SL_BDF2":
                    assert lean_errors(datum, params, 1.6) == [
                        (r.h_minus1_err, r.l2_err, r.h1_err) for r in rows]
                l2 = rows.l2_err
            else:
                l2 = [e[1] for e in lean_errors(datum, params, 1.6)]
            finest_fixed.append(math.log2(l2[-2] / l2[-1]))
            C_fixed[scheme].append(l2[-1] / TAUS[-1] ** 2)
    powers = {s: local_powers(c) for s, c in C.items()}
    powers_fixed = {s: local_powers(c) for s, c in C_fixed.items()}
    rising = all(coarse < fine for c in C.values() for coarse, fine in zip(c, c[1:]))
    rising_fixed = all(coarse < fine for c in C_fixed.values() for coarse, fine in zip(c, c[1:]))
    below = all(pf < p for s in C for pf, p in zip(powers_fixed[s], powers[s]))
    ok = (rising and rising_fixed and below
          and all(1.9 <= o <= 2.1 for o in finest + finest_fixed))
    report(capsys, 12, ok,
           f"temporal error constant C = L2 error / tau^2 at tau={TAUS[-1]} (M=32, T=1.6, "
           f"gamma={GAMMA}, prepared seed-{SEED} data, SL_CN's theorem A for both schemes) at "
           f"eps=0.16, 0.08, 0.04: " + "; ".join(
               f"{s} {', '.join(f'{c:.3e}' for c in C[s])} (local powers "
               f"{', '.join(f'{p:.1f}' for p in powers[s])})" for s in C)
           + f"; rises as eps falls -> {rising}; finest L2 orders span "
           f"[{min(finest):.2f}, {max(finest):.2f}], required [1.9, 2.1]; over a factor of 4 "
           f"in eps these gates cannot tell a power of 1/eps from an exponential"
           f"; from eps=0.08's datum at every eps: " + "; ".join(
               f"{s} {', '.join(f'{c:.3e}' for c in C_fixed[s])} (local powers "
               f"{', '.join(f'{p:.2f}' for p in powers_fixed[s])})" for s in C_fixed)
           + f"; rises -> {rising_fixed}; each local power below its own-datum one -> {below}; "
           f"finest L2 orders span [{min(finest_fixed):.3f}, {max(finest_fixed):.3f}], "
           f"required [1.9, 2.1]")
    assert ok


@lru_cache(maxsize=None)
def fresh_sweep_c13():
    """Criterion 13's fresh sweep: SL_BDF2 at M = 32, eps = 0.1, gamma = 1,
    tau = 0.1, B = 0, seed 42, default ladder."""
    base = cw.RunConfig(M=32, eps=0.1, gamma=1.0, tau=0.1, T=STEPS * 0.1, scheme="SL_BDF2",
                        seed=SEED)
    return cw.sweep_min_stabilizer(
        cw.SweepConfig(base=base, target="A", gamma_list=[1.0], tau_list=[0.1]))


def test_linearized_prediction_of_criterion_13_cells(capsys, experiment):
    # the smallest rung whose linearized step (conftest.amplification_factors)
    # keeps every mode with sigma > 0 at |z| <= 1, against the swept cell:
    # criterion 13's B = 0 cells must be the prediction or one rung below
    # it; criterion 9's B = 40 cell is printed, not gated
    cells = sweep_c9_cells(experiment)
    swept = {(0.1, 32, 0.0): fresh_sweep_c13().cells[(1.0, 0.1)],
             (EPS, M_RUN, 0.0): cells[2], (EPS, M_RUN, 40.0): cells[3]}
    found = {}
    for (eps, M, B), minimal in swept.items():
        basis, ladder = cw.assemble_basis(M), cw.default_ladder("A", 1.0, eps)
        positive = basis.sigma > 0.0

        def stable(A):
            params = cw.SchemeParams(scheme="SL_BDF2", tau=0.1, gamma=1.0, eps=eps, A=A, B=B)
            z = amplification_factors(cw.build_step_operator(params, basis))
            return z[positive].max() <= 1.0

        predicted = next((A for A in ladder if stable(A)), None)
        found[eps, M, B] = predicted, minimal
        if B == 0.0:
            assert minimal in ladder and predicted in ladder
            assert ladder.index(predicted) - ladder.index(minimal) in (0, 1)
    with capsys.disabled():
        print("\nlinearized prediction (SL_BDF2, gamma=1, tau=0.1, default ladder): " + "; ".join(
            f"eps={eps:g}, M={M}, B={B:g}: predicted A {pred}, swept {minimal}"
            for (eps, M, B), (pred, minimal) in found.items()))


def test_criterion_13_stabilization_below_theorem(capsys, experiment):
    # SL_BDF2 at gamma = 1, tau = 0.1, B = 0 on the default ladder: the
    # minimal stable A against sufficient_stabilizers' A, at eps = 0.1 (a
    # fresh M = 32 sweep) and at eps = 0.05 (criterion 9's third cell, M = 48);
    # ROADMAP item 5 measured ratios of 7.6 and 15
    found = {0.1: fresh_sweep_c13().cells[(1.0, 0.1)], EPS: sweep_c9_cells(experiment)[2]}
    cells = []
    for eps, minimal in found.items():
        theorem = cw.sufficient_stabilizers("SL_BDF2", eps, 1.0, 0.1, L)[0]
        # no stable rung (None) fails, and a minimal A of 0 passes
        ratio = math.nan if minimal is None else math.inf if minimal == 0 else theorem / minimal
        cells.append((eps, minimal, theorem, ratio))
    ok = all(ratio >= 4.0 for *_, ratio in cells)
    report(capsys, 13, ok,
           "SL_BDF2 at gamma=1, tau=0.1, B=0, seed 42, default ladder: " + "; ".join(
               f"eps={eps:g}: minimal stable A {minimal} vs theorem A {theorem:g} "
               f"(ratio {ratio:.3g})" for eps, minimal, theorem, ratio in cells)
           + "; required ratio >= 4")
    assert ok


def test_criterion_14_sl_cn_needs_its_stabilizers(capsys):
    # SL_CN at M = 32 and a small step from the prepared seed-42 datum:
    # with A = B = 0 it blows up; with sufficient_stabilizers' pair it is
    # stable over 1024 steps (ROADMAP item 5 measured step 213)
    tau = 0.00125
    pair = cw.sufficient_stabilizers("SL_CN", EPS, GAMMA, tau, L)

    def trace(A, B):
        return cw.run_simulation(cw.RunConfig(
            M=32, eps=EPS, gamma=GAMMA, tau=tau, T=STEPS * tau, scheme="SL_CN", A=A, B=B,
            seed=SEED, initial="prepared"))[0]

    bare, stabilized = trace(0.0, 0.0), trace(*pair)
    verdict = cw.stability_verdict(stabilized)
    ok = bare.blew_up and verdict == "stable"
    stop_step = len(bare) + 1 if bare.blew_up else None
    report(capsys, 14, ok,
           f"SL_CN at M=32, eps={EPS}, gamma={GAMMA}, tau={tau}, prepared seed-{SEED} "
           f"datum: A = B = 0 blows up -> {bare.blew_up} (at step {stop_step}); "
           f"theorem pair (A, B) = ({pair[0]:g}, {pair[1]:g}): verdict {verdict} over "
           f"{STEPS} steps")
    assert ok


def test_criterion_15_sl_bdf2_linear_step_limit(capsys):
    # SL_BDF2 at A = B = 0, linearized about a well: a mode's growth factor
    # (conftest.amplification_factors) leaves the unit disk through z = -1
    # once tau passes tau* = 4 eps^3 / (9 gamma), whatever M (README). From
    # the prepared seed-42 datum a run at 0.9 tau* is stable over 1024
    # steps and one at 1.3 tau* stops on an energy increase
    found = []
    for M, eps, gamma in ((32, 0.1, 0.0025), (32, 0.05, 1.0), (48, 0.025, 0.0025)):
        limit = 4.0 * eps**3 / (9.0 * gamma)
        basis = cw.assemble_basis(M)
        positive = basis.sigma > 0.0

        def largest_z(tau):
            params = cw.SchemeParams(scheme="SL_BDF2", tau=tau, gamma=gamma, eps=eps)
            return amplification_factors(cw.build_step_operator(params, basis))[positive].max()

        def trace(tau):
            return cw.run_simulation(cw.RunConfig(
                M=M, eps=eps, gamma=gamma, tau=tau, T=STEPS * tau, scheme="SL_BDF2",
                seed=SEED, initial="prepared"), until_unstable=True)[0]

        below, above = largest_z(0.999 * limit), largest_z(1.001 * limit)
        verdict, stopped = cw.stability_verdict(trace(0.9 * limit)), trace(1.3 * limit)
        ratio = limit / smallstep_bound(eps, gamma)
        ok = (below <= 1.0 < above and verdict == "stable"
              and stopped.stop_reason == "energy_increase")
        found.append((ok, f"(M, eps, gamma) = ({M}, {eps:g}, {gamma:g}): tau* = {limit:.6e} "
                          f"({ratio:.2f} x 8 eps^3/(25 L^2 gamma)), max |z| {below:.5f} at "
                          f"0.999 tau* and {above:.5f} at 1.001 tau*, 0.9 tau* {verdict}, "
                          f"1.3 tau* {stopped.stop_reason} at step {len(stopped)}"))
    ok = all(passed for passed, _ in found)
    report(capsys, 15, ok,
           f"SL_BDF2 with A = B = 0 from prepared seed-{SEED} data, T = {STEPS} tau: linear "
           "step limit tau* = 4 eps^3/(9 gamma); " + "; ".join(text for _, text in found))
    assert ok


def test_criterion_16_sl_cn_linear_step_limit(capsys):
    # SL_CN at A = B = 0, linearized about a well: the stiffest mode's
    # growth factor leaves the unit disk through z = -1 once tau passes
    # tau_CN* = eps / (2 gamma sigma_max) (README), which shrinks like M^-4.
    # From the prepared seed-42 datum a run at 0.9 tau_CN* is stable over
    # 1024 steps; only at M = 16 is growth above the limit fast enough to
    # gate a run at 2 tau_CN*, so the larger M print max |z| there instead
    found = []
    for M in (16, 32, 48):
        basis = cw.assemble_basis(M)
        sigma_max = basis.sigma.max()
        limit = EPS / (2.0 * GAMMA * sigma_max)
        positive = basis.sigma > 0.0

        def largest_z(tau):
            params = cw.SchemeParams(scheme="SL_CN", tau=tau, gamma=GAMMA, eps=EPS)
            return amplification_factors(cw.build_step_operator(params, basis))[positive].max()

        def trace(tau):
            return cw.run_simulation(cw.RunConfig(
                M=M, eps=EPS, gamma=GAMMA, tau=tau, T=STEPS * tau, scheme="SL_CN",
                seed=SEED, initial="prepared"), until_unstable=True)[0]

        below, above, twice = (largest_z(k * limit) for k in (0.999, 1.001, 2.0))
        stable = trace(0.9 * limit)
        ok = below <= 1.0 < above and stable.stop_reason == "completed"
        ratio = 4.0 * EPS**3 / (9.0 * GAMMA) / limit  # criterion 15's tau* over tau_CN*
        text = (f"M = {M}: sigma_max = {sigma_max:.4e}, tau_CN* = {limit:.4e} (criterion "
                f"15's tau* = {ratio:.0f} tau_CN*), max |z| {below:.6f} at 0.999 tau_CN*, "
                f"{above:.6f} at 1.001 tau_CN* and {twice:.4f} at 2 tau_CN*, "
                f"0.9 tau_CN* {stable.stop_reason}")
        if M == 16:
            stopped = trace(2.0 * limit)
            ok = ok and stopped.stop_reason == "energy_increase"
            text += f", 2 tau_CN* {stopped.stop_reason} at step {len(stopped)}"
        found.append((ok, text))
    ok = all(passed for passed, _ in found)
    report(capsys, 16, ok,
           f"SL_CN at eps={EPS}, gamma={GAMMA} with A = B = 0 from prepared seed-{SEED} data, "
           f"T = {STEPS} tau: linear step limit tau_CN* = eps/(2 gamma sigma_max); "
           + "; ".join(t for _, t in found))
    assert ok


def fitted_field(basis, profile):
    """The datum profile(x, y), fitted from the 2M grid as criterion 5 does."""
    x2, _ = cw.gauss_legendre(2 * basis.M)
    return fitted(basis, profile(x2[:, None], x2[None, :]))


def theorem_final(scheme, phi0, eps, gamma, tau, T, stops):
    """The final field of a run from phi0 with sufficient_stabilizers' pair;
    adds the run's stop reason to the set stops."""
    A, B = cw.sufficient_stabilizers(scheme, eps, gamma, tau, L)
    trace, final, _ = cw.run_simulation(cw.RunConfig(
        M=phi0.basis.M, eps=eps, gamma=gamma, tau=tau, T=T, scheme=scheme, A=A, B=B),
        phi_init=phi0)
    stops.add(trace.stop_reason)
    return final


def test_criterion_17_the_pde_as_its_own_oracle(capsys):
    # clause 1: about a constant phibar, a Neumann mode c of wavenumber
    # kappa = (pi/2)^2 (kx^2 + ky^2) grows like exp(lambda t), with
    # lambda = -gamma kappa (eps kappa + f'(phibar)/eps) and
    # f'(phibar) = 3 phibar^2 - 1; each scheme's amplitude error is
    # second order in tau (README)
    eps, gamma, T = 0.1, 0.01, 0.64
    b16 = cw.assemble_basis(16)
    x2, w = cw.gauss_legendre(32)
    worst, ratios, stops = 0.0, [], set()
    for bar, (kx, ky) in ((0.8, (1, 0)), (0.8, (2, 1)), (0.0, (1, 0)), (0.0, (2, 2))):
        def mode(x, y):
            return np.cos(kx * np.pi * (x + 1) / 2) * np.cos(ky * np.pi * (y + 1) / 2)

        c = mode(x2[:, None], x2[None, :])
        phi0 = fitted_field(b16, lambda x, y: bar + 1e-6 * mode(x, y))
        kappa = (np.pi / 2) ** 2 * (kx * kx + ky * ky)
        want = 1e-6 * np.exp(-gamma * kappa * (eps * kappa + (3 * bar * bar - 1) / eps) * T)
        for scheme in ("SL_BDF2", "SL_CN"):
            errs = []
            for tau in (0.005, 0.0025):
                grid = natural(grid_of(b16, theorem_final(scheme, phi0, eps, gamma, tau, T, stops).v))
                amp = (w @ ((grid - bar) * c) @ w) / (w @ (c * c) @ w)
                errs.append(abs(amp - want) / want)
            worst = max(worst, errs[1])
            ratios.append(errs[0] / errs[1])
    linear_ok = worst <= 1e-3 and all(3.8 <= r <= 4.2 for r in ratios)

    # clause 2: tanh(x / (sqrt(2) eps)) is a steady state of the PDE, so
    # the schemes' drift from it over T = 1 is spatial error that falls
    # spectrally in M; a profile 1.2 times too wide is no steady state
    eps, gamma, tau = 0.1, 1.0, 1e-3
    schemes = ("SL_BDF2", "SL_CN")
    bases = {M: cw.assemble_basis(M) for M in (32, 48)}
    drift = {}  # (scheme, width, M) -> ||phi(T) - phi0||
    for scheme, width, M in [(s, 1.0, M) for M in bases for s in schemes] + [("SL_BDF2", 1.2, 48)]:
        phi0 = fitted_field(bases[M], lambda x, y: np.tanh(x / (width * np.sqrt(2) * eps)) + 0 * y)
        final = theorem_final(scheme, phi0, eps, gamma, tau, 1.0, stops)
        drift[scheme, width, M] = cw.error_norms(final, phi0)[1]
    equilibrium_ok = all(drift[s, 1.0, 48] <= min(1e-4, drift[s, 1.0, 32] / 10) for s in schemes)
    wide_ok = drift["SL_BDF2", 1.2, 48] >= 1e-2

    ok = stops == {"completed"} and linear_ok and equilibrium_ok and wide_ok
    report(capsys, 17, ok,
           f"the PDE as its own oracle: linear Neumann modes at M=16, eps=0.1, gamma=0.01, "
           f"T={T}, theorem pairs: largest relative amplitude error at tau=0.0025 {worst:.2e} "
           f"(bound 1e-3), error ratios tau=0.005/0.0025 span [{min(ratios):.3f}, "
           f"{max(ratios):.3f}] (required [3.8, 4.2]); tanh(x/(sqrt(2) eps)) at eps={eps}, "
           f"gamma={gamma}, tau={tau}, T=1: L2 drift at M=32, 48 "
           + ", ".join(f"{s} {drift[s, 1.0, 32]:.2e} -> {drift[s, 1.0, 48]:.2e}" for s in schemes)
           + f" (>= 10x fall, <= 1e-4) -> {equilibrium_ok}; 1.2x too wide at M=48 (SL_BDF2) "
           f"{drift['SL_BDF2', 1.2, 48]:.2e} (>= 1e-2) -> {wide_ok}; runs stopped "
           f"{sorted(stops)}")
    assert ok


def test_criterion_18_accuracy_per_step_against_first_order(capsys):
    # criterion 4's datum at half size and half time (M = 32, T = 0.8)
    # against one SL_BDF2 reference at TAU_REF: SL_BDF2 with criterion 4's
    # pair, SL_CN with its theorem pair and FIRST_ORDER, the stabilized
    # first-order scheme of Shen & Yang (DCDS-A 28, 2010), with B = 1/eps
    # and no bootstrap. The three share `march`'s step body, so steps to an
    # error measure cost. Measured L2 errors at TAUS: SL_BDF2 8.45e-4,
    # 2.13e-4, 5.26e-5, 1.29e-5; SL_CN 8.03e-3, 2.22e-3, 5.71e-4, 1.44e-4;
    # FIRST_ORDER 1.41e-2, 7.56e-3, 3.91e-3, 1.99e-3 (finest orders 2.032,
    # 1.990, 0.974). Writing x_p = 0 for SL_BDF2 in `_TABLE` gives it order
    # 1.12 and 1.02e-2 at tau = 0.04 against FIRST_ORDER's 1.85e-3 at 0.005;
    # a = 1.5/tau for FIRST_ORDER gives it order 0.00: each fails a gate
    eps, T = 0.08, 0.8
    phi0 = cw.prepare_phi1(random_nodal_field(cw.assemble_basis(32), SEED), eps)
    bdf2 = cw.SchemeParams("SL_BDF2", tau=TAU_REF, gamma=GAMMA, eps=eps, A=0.25, B=40.0)
    A, B = cw.sufficient_stabilizers("SL_CN", eps, GAMMA, TAU_REF, L)
    schemes = {"SL_BDF2": bdf2, "SL_CN": replace(bdf2, scheme="SL_CN", A=A, B=B),
               "FIRST_ORDER": replace(bdf2, scheme="FIRST_ORDER", A=0.0, B=1 / eps)}
    ref = cw.lean_final(phi0, bdf2, round(T / TAU_REF))
    l2 = {s: [e[1] for e in lean_errors(phi0, p, T, ref)] for s, p in schemes.items()}
    order = {s: math.log2(e[-2] / e[-1]) for s, e in l2.items()}
    # the steps to SL_BDF2's error at tau = 0.04 on each scheme's line
    # e(tau) = e(0.005) (tau / 0.005)^order through its finest pair; inf
    # when the order is 0
    target = l2["SL_BDF2"][0]
    with np.errstate(divide="ignore", over="ignore"):
        steps = {s: T / TAUS[-1] * (e[-1] / target) ** (1 / np.float64(order[s]))
                 for s, e in l2.items()}
    beats = target < l2["FIRST_ORDER"][-1]
    ok = (beats and 0.9 <= order["FIRST_ORDER"] <= 1.1
          and all(1.9 <= order[s] <= 2.1 for s in ("SL_BDF2", "SL_CN")))
    report(capsys, 18, ok,
           f"accuracy per step against the stabilized first-order scheme at eps={eps}, M=32, "
           f"T={T}, gamma={GAMMA}, prepared seed-{SEED} data, one SL_BDF2 reference at "
           f"tau={TAU_REF}: L2 errors at tau=0.04..0.005 " + "; ".join(
               f"{s} {', '.join(f'{x:.2e}' for x in e)} (finest order {order[s]:.3f})"
               for s, e in l2.items())
           + f"; required orders [1.9, 2.1] (FIRST_ORDER [0.9, 1.1]); SL_BDF2's error in 20 "
           f"steps below FIRST_ORDER's in 160 -> {beats}; steps to reach SL_BDF2's 20-step "
           f"error " + ", ".join(f"{s} {n:.3g}" for s, n in steps.items()))
    assert ok


def test_criterion_19_error_constant_on_a_bounded_energy_datum(capsys):
    # criterion 12's study from the circle tanh((0.5 - r)/(sqrt(2) eps)),
    # whose energy is bounded independently of eps, where noise data's
    # grows as eps falls; M = 48 at eps = 0.04 resolves it (C is 7.41 there
    # and 7.47 at M = 64). The abstract's "fixed power of 1/eps" should
    # show as local powers that stay below criterion 12's own-datum ones.
    # Measured: C SL_BDF2 0.0587, 0.250, 7.41 and SL_CN 0.0200, 0.481,
    # 8.73 (local powers 2.09, 4.89 and 4.59, 4.18 against 10.42, 5.77 and
    # 9.51, 5.81 on noise data: the least gap, 0.88, is SL_BDF2's at
    # eps = 0.04); finest L2 orders 2.012 to 2.045, 0.112 above the floor
    # and 0.055 below the ceiling; C rises at least 4.2-fold per halving
    C, finest, powers_noise = {}, [], {}
    for scheme in ("SL_BDF2", "SL_CN"):
        C[scheme] = []
        for eps, M in ((0.16, 32), (0.08, 32), (0.04, 48)):
            phi0 = fitted_field(cw.assemble_basis(M), lambda x, y: np.tanh(
                (0.5 - np.hypot(x, y)) / (math.sqrt(2.0) * eps)))
            l2 = [e[1] for e in lean_errors(phi0, error_constant_params(scheme, eps), 1.6)]
            finest.append(math.log2(l2[-2] / l2[-1]))
            C[scheme].append(l2[-1] / TAUS[-1] ** 2)
        powers_noise[scheme] = local_powers(
            [own_datum_study(scheme, eps).l2_err[-1] / TAUS[-1] ** 2 for eps in (0.16, 0.08, 0.04)])
    powers = {s: local_powers(c) for s, c in C.items()}
    rising = all(coarse < fine for c in C.values() for coarse, fine in zip(c, c[1:]))
    below = all(p < pn for s in C for p, pn in zip(powers[s], powers_noise[s]))
    ok = rising and below and all(1.9 <= o <= 2.1 for o in finest)
    report(capsys, 19, ok,
           f"temporal error constant C = L2 error / tau^2 at tau={TAUS[-1]} from the circle "
           f"tanh((0.5 - r)/(sqrt(2) eps)) (M=32, 32, 48, T=1.6, gamma={GAMMA}, criterion 12's "
           f"stabilizers) at eps=0.16, 0.08, 0.04: " + "; ".join(
               f"{s} {', '.join(f'{c:.3e}' for c in C[s])} (local powers "
               f"{', '.join(f'{p:.2f}' for p in powers[s])})" for s in C)
           + f"; rises as eps falls -> {rising}; each local power below criterion 12's "
           f"own-datum one -> {below}; finest L2 orders span [{min(finest):.3f}, "
           f"{max(finest):.3f}], required [1.9, 2.1]")
    assert ok
