import os
import re
import subprocess
import sys
import tracemalloc
import warnings
from dataclasses import FrozenInstanceError, replace

import numpy as np
import pytest

from chillwave import (
    Field,
    NonFinite,
    SchemeParams,
    SolveFailed,
    assemble_basis,
    bootstrap_first_step,
    build_step_operator,
    error_norms,
    lean_final,
    march,
    mean_value,
    potential_deriv,
    sufficient_stabilizers,
)
from chillwave import timestepping
from chillwave.harness import random_nodal_field
from chillwave.diagnostics import TRACE_DTYPE
from chillwave.potential import P
from chillwave.timestepping import BLOWUP_LIMIT, modal_load
from chillwave.field2d import GridPlan
from conftest import (
    amplification_factors, analytic_mass_stiffness, dense_maps, energy_eps, grid_of,
    legendre_field, natural, oracle_load, unit_field,
)
from test_spectral1d import refined_block


def last_pair(op, prev, curr, n_steps):
    # the pair march ends on, keeping no earlier state
    for prev, curr, _ in march(op, prev, curr, n_steps):
        pass
    return prev, curr


def kron_mass_stiffness(basis):
    # the 2-D mass M x M and stiffness K x M + M x K, from the closed forms
    mass, stiff = analytic_mass_stiffness(basis.M)
    return np.kron(mass, mass), np.kron(stiff, mass) + np.kron(mass, stiff)


def dense_blocks(basis, a, c, b0, gamma):
    Mm, Kk = kron_mass_stiffness(basis)
    return np.block([[a * Mm, gamma * Kk], [-c * Kk - b0 * Mm, Mm]])


def test_params_validation():
    with pytest.raises(ValueError):
        SchemeParams(scheme="SL_BDF2", tau=0.0, gamma=1.0, eps=0.1)
    with pytest.raises(ValueError):
        SchemeParams(scheme="SL_BDF2", tau=0.1, gamma=-1.0, eps=0.1)
    with pytest.raises(ValueError):
        SchemeParams(scheme="SL_BDF2", tau=0.1, gamma=1.0, eps=1.5)
    with pytest.raises(ValueError):
        SchemeParams(scheme="SL_BDF2", tau=0.1, gamma=1.0, eps=0.1, A=-1.0)
    with pytest.raises(ValueError):
        SchemeParams(scheme="AB2", tau=0.1, gamma=1.0, eps=0.1)
    # FIRST_ORDER's weights do not read A: a nonzero A would run something
    # other than what was asked
    with pytest.raises(ValueError, match="FIRST_ORDER has no stabilizer A, got A = 5.0"):
        SchemeParams(scheme="FIRST_ORDER", tau=0.1, gamma=1.0, eps=0.1, A=5.0)
    # only finite numbers: NaN fails every comparison, inf is no step size
    nan, inf = float("nan"), float("inf")
    for bad in (dict(A=nan, B=nan), dict(B=nan), dict(A=inf), dict(B=inf), dict(tau=inf),
                dict(tau=nan), dict(gamma=inf), dict(gamma=nan), dict(eps=nan), dict(eps=inf)):
        with pytest.raises(ValueError):
            SchemeParams(**dict(dict(scheme="SL_BDF2", tau=0.1, gamma=1.0, eps=0.1), **bad))


def weak_form_rhs(scheme, basis, tau, eps, A, B, prev, curr):
    # R1 and R2 of each scheme's discrete weak form, flattened, with the
    # oracle load for the explicit force
    Mm, Kk = kron_mass_stiffness(basis)
    c, p = curr.ravel(), prev.ravel()

    def load(u):
        return oracle_load(u).ravel() / eps

    if scheme == "SL_BDF2":
        R1 = Mm @ (4.0 * c - p) / (2.0 * tau)
        R2 = load(2.0 * curr - prev) - A * tau * Kk @ c - B * Mm @ (2.0 * c - p)
    elif scheme == "SL_CN":
        R1 = Mm @ c / tau
        R2 = (eps / 2 - A * tau) * Kk @ c + load(1.5 * curr - 0.5 * prev) - B * Mm @ (2.0 * c - p)
    else:
        R1 = Mm @ c / tau
        R2 = load(curr) - B * Mm @ c
    return np.concatenate([R1, R2])


# the block layout of each scheme, per the discrete weak forms
@pytest.mark.parametrize(
    "scheme,A,B,scalars",
    [
        ("SL_BDF2", 0.5, 2.0, lambda tau, eps, A, B: (1.5 / tau, eps + A * tau, B)),
        ("SL_CN", 0.5, 2.0, lambda tau, eps, A, B: (1.0 / tau, eps / 2 + A * tau, B)),
        ("SL_CN", 0.0, 0.0, lambda tau, eps, A, B: (1.0 / tau, eps / 2, 0.0)),
        ("FIRST_ORDER", 0.0, 4.0, lambda tau, eps, A, B: (1.0 / tau, eps, B)),
    ],
)
def test_march_step_matches_dense_blocks(basis8, scheme, A, B, scalars):
    # each of the first 3 steps, from the pair march yielded before it,
    # with and without grids
    tau, gamma, eps = 0.05, 0.3, 0.25
    params = SchemeParams(scheme=scheme, tau=tau, gamma=gamma, eps=eps, A=A, B=B)
    block = dense_blocks(basis8, *scalars(tau, eps, A, B), gamma)
    for grids in (True, False):
        rng = np.random.default_rng(20)
        prev, curr = 0.3 * rng.standard_normal((2, 8, 8))
        entry = (legendre_field(basis8, u).v for u in (prev, curr))
        states = march(build_step_operator(params, basis8), *entry, 3, grids=grids)
        next(states)
        steps = 0
        for state in states:
            R = weak_form_rhs(scheme, basis8, tau, eps, A, B, prev, curr)
            expected = np.linalg.solve(block, R)[:64].reshape(8, 8)
            got_prev, got = (Field(basis8, v).coeffs for v in state[:2])
            assert np.abs(got - expected).max() <= 1e-10
            assert np.abs(got_prev - curr).max() <= 1e-12
            prev, curr = got_prev, got
            steps += 1
        assert steps == 3
    assert basis8.residual <= 1e-10


def test_constant_is_fixed_point(basis8):
    for scheme in ("SL_BDF2", "SL_CN"):
        params = SchemeParams(scheme=scheme, tau=0.1, gamma=0.0025, eps=0.05, A=1.0, B=10.0)
        op = build_step_operator(params, basis8)
        c = unit_field(basis8, 0, 0, 0.3)
        seen = 0
        for _, curr, grid in march(op, c.v, c.v, 20):
            # modal arrays, and the grid of curr
            assert np.abs(curr - c.v).max() <= 1e-12
            assert np.abs(grid - 0.3).max() <= 1e-12
            seen += 1
        assert seen == 21  # the entry pair, then every step


def test_mean_conservation_100_steps(basis16):
    for scheme in ("SL_BDF2", "SL_CN"):
        params = SchemeParams(
            scheme=scheme, tau=0.01, gamma=0.0025, eps=0.05, A=7.5625, B=110.0
        )
        phi0 = random_nodal_field(basis16, 2)
        m0 = mean_value(phi0)
        phi1 = bootstrap_first_step(phi0, params)
        op = build_step_operator(params, basis16)
        _, curr = last_pair(op, phi0.v, phi1.v, 100)
        assert abs(mean_value(Field(basis16, curr)) - m0) <= 1e-11


def test_nonfinite_on_blowup(basis16):
    # every state yielded before NonFinite is finite, and NonFinite comes
    # from the step right after the last one: a march that stops there
    # completes
    params = SchemeParams(scheme="SL_BDF2", tau=1.0, gamma=0.0025, eps=0.05)
    phi0 = random_nodal_field(basis16, 1)
    phi1 = bootstrap_first_step(phi0, params)
    op = build_step_operator(params, basis16)
    seen = []
    with pytest.raises(NonFinite):
        for prev, curr, grid in march(op, phi0.v, phi1.v, 100):
            seen.append(curr)
            assert np.abs(curr).max() <= BLOWUP_LIMIT and np.isfinite(grid).all()
    assert 1 < len(seen) < 101
    _, curr = last_pair(op, phi0.v, phi1.v, len(seen) - 1)
    np.testing.assert_array_equal(curr, seen[-1])


@pytest.mark.parametrize("bad", ["nan", "inf", "-inf", "above_limit"])
def test_nonfinite_entry_state_stops_step_1(basis8, bad):
    # one reduction, not max|v| <= BLOWUP_LIMIT, catches NaN and +-inf as
    # well as a coefficient past the limit; the mean mode is carried over
    # unchanged, so a mean coefficient just above the limit stays above it
    params = SchemeParams(scheme="SL_BDF2", tau=0.01, gamma=0.0025, eps=0.05, A=1.0, B=10.0)
    v = random_nodal_field(basis8, 3).v
    if bad == "above_limit":
        v[0, 0] = BLOWUP_LIMIT * (1.0 + 1e-6)
    else:
        v[2, 3] = float(bad)
    for grids in (True, False):
        seen = []
        # numpy's own warnings on inf arithmetic before the check are not
        # what is pinned here
        with np.errstate(invalid="ignore", over="ignore"), pytest.raises(NonFinite):
            for state in march(build_step_operator(params, basis8), v, v, 5, grids=grids):
                seen.append(state)
        assert len(seen) == 1  # the entry pair only: step 1 raised


def test_subnormal_step_coefficient_is_an_error(basis8):
    # 1.5 / tau is finite but r_n = 2 / tau is not: only the weight cn
    # overflows, and the check says so without a numpy warning
    params = SchemeParams("SL_BDF2", tau=1e-308, gamma=1.0, eps=0.5)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="overflow"):
            build_step_operator(params, basis8)


def test_steady_state_reached(basis16):
    # moderate stabilizers at tau = 1: the flow settles to an equilibrium
    params = SchemeParams(scheme="SL_BDF2", tau=1.0, gamma=1.0, eps=0.25, A=0.25, B=8.0)
    phi0 = random_nodal_field(basis16, 42)
    phi1 = bootstrap_first_step(phi0, params)
    op = build_step_operator(params, basis16)
    states = march(op, phi0.v, phi1.v, 400)
    next(states)
    for prev, curr, _ in states:
        dt_norm = error_norms(Field(basis16, curr), Field(basis16, prev))[1]
        if dt_norm < 1e-8:
            return
    pytest.fail(f"no steady state within 400 steps, last |d_t phi| = {dt_norm:.2e}")


def test_bootstrap_constant_unchanged(basis8):
    params = SchemeParams(scheme="SL_BDF2", tau=0.2, gamma=1.0, eps=0.25)
    c = unit_field(basis8, 0, 0, -0.4)
    out = bootstrap_first_step(c, params)
    assert np.abs(out.coeffs - c.coeffs).max() <= 1e-12


def test_bootstrap_is_ten_first_order_substeps(basis8):
    # phi^1 is lean_final of 10 FIRST_ORDER substeps of tau/10 at B = 1/eps,
    # bit for bit
    phi0 = random_nodal_field(basis8, 4)
    for p in (SchemeParams("SL_BDF2", tau=0.05, gamma=1.0, eps=0.25, A=0.25, B=8.0),
              SchemeParams("SL_CN", tau=0.2, gamma=0.5, eps=0.1)):
        first = SchemeParams("FIRST_ORDER", tau=p.tau / 10, gamma=p.gamma, eps=p.eps, B=1 / p.eps)
        np.testing.assert_array_equal(bootstrap_first_step(phi0, p).v,
                                      lean_final(phi0, first, 10).v)


def test_bootstrap_second_order_in_tau(basis8):
    # slow-relaxation regime: low-mode data and a small basis keep every
    # mode fed by the cubic at rate*tau << 1, where the O(tau^2) global
    # error of the 10-substep bootstrap is actually observable
    rng = np.random.default_rng(3)
    raw = 0.3 * rng.standard_normal((3, 3))
    raw[0, 0] = 0.1
    # raw[k, j] multiplies p_k(x) p_j(y) with p = (1, x, L_2 - L_4); in
    # Legendre coefficients p_k = sum_i P[k, i] L_i
    P = np.zeros((3, 8))
    P[0, 0] = P[1, 1] = P[2, 2] = 1.0
    P[2, 4] = -1.0
    phi0 = legendre_field(basis8, P.T @ raw @ P)
    eps, gamma = 0.25, 1e-3
    errs = []
    # the top 1-D eigenvalue at M = 8 is about 536, so the ladder starts
    # at tau = 0.005 to stay in the asymptotic range
    for tau in (0.005, 0.0025, 0.00125):
        params = SchemeParams(scheme="SL_BDF2", tau=tau, gamma=gamma, eps=eps)
        phi1 = bootstrap_first_step(phi0, params)
        # the same first-order scheme with 400x smaller substeps
        fine = SchemeParams("FIRST_ORDER", tau=tau / 4000, gamma=gamma, eps=eps, B=1 / eps)
        ref = lean_final(phi0, fine, 4000)
        errs.append(error_norms(phi1, ref)[0])
    for e_coarse, e_fine in zip(errs, errs[1:]):
        assert 3.4 <= e_coarse / e_fine <= 4.6


def test_first_order_dissipates(basis16):
    phi0 = random_nodal_field(basis16, 4)
    e0 = energy_eps(0.25, phi0)
    params = SchemeParams(scheme="FIRST_ORDER", tau=0.25**3, gamma=1.0, eps=0.25, B=4.0)
    op = build_step_operator(params, basis16)
    _, out = last_pair(op, phi0.v, phi0.v, 64)
    assert energy_eps(0.25, Field(basis16, out)) < e0


def test_sufficient_stabilizers_values():
    A, B = sufficient_stabilizers("SL_CN", eps=0.05, gamma=0.0025, tau=0.01, L=11.0)
    assert A == pytest.approx(7.5625)
    assert B == pytest.approx(110.0)
    A, B = sufficient_stabilizers("SL_BDF2", eps=0.05, gamma=0.0025, tau=0.01, L=11.0)
    assert A == pytest.approx(5.0625)
    assert B == pytest.approx(220.0)
    # large-step limit loses the eps/(2 tau) credit
    A, _ = sufficient_stabilizers("SL_BDF2", eps=0.05, gamma=0.0025, tau=0.1, L=11.0)
    assert A == pytest.approx(7.3125)
    # clamped at zero for tiny steps
    A, _ = sufficient_stabilizers("SL_BDF2", eps=0.05, gamma=0.0025, tau=1e-6, L=11.0)
    assert A == 0.0
    with pytest.raises(ValueError):
        sufficient_stabilizers("FIRST_ORDER", eps=0.05, gamma=0.0025, tau=0.01, L=11.0)


def test_linearized_amplification_explains_sl_cn_blow_up():
    # criterion 14's setting: SL_CN with A = B = 0 grows on a stiff mode
    # (it blows up at step 213); its theorem pair and SL_BDF2 with
    # A = B = 0 keep every mode's factor <= 1 (both run 1024 steps stably)
    basis = assemble_basis(32)
    eps, gamma, tau = 0.05, 0.0025, 0.00125

    def worst(scheme, A=0.0, B=0.0):
        # the largest factor over sigma > 0, and that mode's sigma
        params = SchemeParams(scheme=scheme, tau=tau, gamma=gamma, eps=eps, A=A, B=B)
        z = amplification_factors(build_step_operator(params, basis))
        assert abs(z[0, 0] - 1.0) <= 1e-15  # the mean neither grows nor decays
        k = np.argmax(np.where(basis.sigma > 0.0, z, -np.inf))
        return z.flat[k], basis.sigma.flat[k]

    growth, stiff = worst("SL_CN")
    assert growth > 1.0 and stiff > 1e4  # measured 1.0916 at sigma = 1.69e4
    theorem = sufficient_stabilizers("SL_CN", eps, gamma, tau, 11.0)
    assert worst("SL_CN", *theorem)[0] <= 1.0 and worst("SL_BDF2")[0] <= 1.0  # both 0.99969


def test_march_yields_entry_then_each_step(basis8):
    # n_steps + 1 states: the entry pair first, as given, then each new
    # pair, whose prev is the curr before it; every grid is T curr T^T for
    # the dense oracle map T, in the quadrant layout
    params = SchemeParams(scheme="SL_BDF2", tau=0.05, gamma=1.0, eps=0.25, A=0.25, B=8.0)
    phi0 = random_nodal_field(basis8, 9)
    phi1 = bootstrap_first_step(phi0, params)
    T, _ = dense_maps(basis8)
    states = list(march(build_step_operator(params, basis8), phi0.v, phi1.v, 10))
    assert len(states) == 11
    assert states[0][0] is phi0.v and states[0][1] is phi1.v
    for (_, before, _), (prev, _, _) in zip(states, states[1:]):
        assert prev is before
    for _, curr, grid in states:
        np.testing.assert_allclose(natural(grid), T @ curr @ T.T, rtol=0, atol=1e-13)


def test_march_rejects_negative_n_steps(basis8):
    # n_steps = 0 yields only the entry state; a negative count yields
    # nothing and raises, so it cannot pass for a zero-step march
    op = build_step_operator(SchemeParams("SL_CN", tau=0.05, gamma=1.0, eps=0.25), basis8)
    v = random_nodal_field(basis8, 9).v
    assert len(list(march(op, v, v, 0))) == 1
    for grids in (True, False):
        with pytest.raises(ValueError, match="n_steps must be an integer >= 0, got -5"):
            next(march(op, v, v, -5, grids=grids))


def test_march_writes_to_no_array_it_was_given_or_yielded(basis8):
    # a consumer may keep any state, and one that stops early by leaving
    # its loop leaves its inputs as they were, with and without grids
    params = SchemeParams(scheme="SL_CN", tau=0.05, gamma=1.0, eps=0.25, A=0.25, B=8.0)
    phi0 = random_nodal_field(basis8, 10)
    phi1 = bootstrap_first_step(phi0, params)
    prev, curr = phi0.v, phi1.v
    copies = prev.copy(), curr.copy()
    for grids in (True, False):
        kept = []
        states = march(build_step_operator(params, basis8), prev, curr, 10, grids=grids)
        for n, state in enumerate(states):
            kept.append((state, tuple(None if a is None else a.copy() for a in state)))
            if n == 3:
                break
        np.testing.assert_array_equal(prev, copies[0])
        np.testing.assert_array_equal(curr, copies[1])
        for state, copy in kept:
            assert (state[2] is None) == (not grids)
            for a, b in zip(state, copy):
                np.testing.assert_array_equal(a, b)


def test_march_yields_arrays_that_share_no_memory(basis8):
    # the work arrays a march reuses are never yielded: every array of a
    # full march, kept to the end, owns its memory, in both modes
    params = SchemeParams(scheme="SL_CN", tau=0.05, gamma=1.0, eps=0.25, A=0.25, B=8.0)
    phi0 = random_nodal_field(basis8, 10)
    phi1 = bootstrap_first_step(phi0, params)
    op = build_step_operator(params, basis8)
    for grids in (True, False):
        states = list(march(op, phi0.v, phi1.v, 10, grids=grids))
        kept = list({id(a): a for state in states for a in state if a is not None}.values())
        assert len(kept) == (3 + 2 * 10 if grids else 2 + 10)  # prev repeats the last curr
        for k, a in enumerate(kept):
            for b in kept[:k]:
                assert not np.shares_memory(a, b)


def reference_step(op, prev, curr, grid_prev, grid):
    # one step of op's scheme on fresh arrays, in march's order of
    # operations: the force grid (from the grids, or in a lean march from
    # the modes), its load G(c(g)), the new state and its grid, with the
    # transforms of field2d (checked against the dense maps in test_field2d)
    basis = op.basis
    if grid is None:
        force = grid_of(basis, curr + op.xp * (prev - curr))
    else:
        force = grid + op.xp * (grid_prev - grid)
    in_range = np.abs(force).max() <= P
    c = force * force * force if in_range else potential_deriv(force) + force
    load = GridPlan(basis, c, np.empty_like(c)).fit()
    new = op.cn * curr + op.cp * prev + op.cl * load
    return in_range, new, None if grid is None else grid_of(basis, new)


@pytest.mark.parametrize("grids", [True, False], ids=["grids", "lean"])
def test_march_steps_as_a_reference_step_on_and_off_the_range(grids):
    # each state is the reference step of the one before, bit for bit: on
    # an SL_CN march that stays in [-P, P], and on BLOW_UP_CFG's scheme
    # (tests/test_cli.py), whose forces leave it, up to its blow-up
    basis = assemble_basis(16)
    phi0 = random_nodal_field(basis, 1)
    loads = set()
    for params in (SchemeParams("SL_CN", tau=0.05, gamma=1.0, eps=0.25, A=0.25, B=8.0),
                   SchemeParams("SL_BDF2", tau=1.0, gamma=0.0025, eps=0.05)):
        phi1 = bootstrap_first_step(phi0, params)
        op = build_step_operator(params, basis)
        states = march(op, phi0.v, phi1.v, 20, grids=grids)
        before = next(states)
        grid_prev = grid_of(basis, phi0.v) if grids else None
        try:
            for state in states:
                in_range, new, new_grid = reference_step(op, *before[:2], grid_prev, before[2])
                loads.add(bool(in_range))
                np.testing.assert_array_equal(state[0], before[1])
                np.testing.assert_array_equal(state[1], new)
                if grids:
                    np.testing.assert_array_equal(state[2], new_grid)
                else:
                    assert state[2] is None
                grid_prev, before = before[2], state
        except NonFinite:
            assert params.scheme == "SL_BDF2"
    assert loads == {True, False}


@pytest.mark.parametrize("grids", [True, False], ids=["grids", "lean"])
@pytest.mark.parametrize("scheme", ["SL_BDF2", "SL_CN", "FIRST_ORDER"])
def test_a_step_allocates_only_what_it_yields(scheme, grids, basis16):
    # numpy reports its buffers to tracemalloc. After the entry state, a
    # step at M = 16 traces the new state (2,048 B) and, unless lean, its
    # grid (8,192 B), plus at most 2 KiB: its work arrays are the march's
    A = 0.0 if scheme == "FIRST_ORDER" else 0.25  # FIRST_ORDER has no A
    params = SchemeParams(scheme=scheme, tau=0.05, gamma=1.0, eps=0.25, A=A, B=8.0)
    phi0 = random_nodal_field(basis16, 14)
    phi1 = bootstrap_first_step(phi0, params)
    states = march(build_step_operator(params, basis16), phi0.v, phi1.v, 2, grids=grids)
    next(states)
    tracemalloc.start()
    try:
        _, curr, grid = next(states)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    yielded = curr.nbytes + (0 if grid is None else grid.nbytes)
    assert yielded == (10_240 if grids else 2_048)
    assert peak <= yielded + 2048


@pytest.mark.parametrize("grids", [True, False], ids=["grids", "lean"])
@pytest.mark.parametrize("scheme", ["SL_BDF2", "SL_CN", "FIRST_ORDER"])
def test_a_march_sets_up_only_its_work_and_entry_grids(scheme, grids, basis16):
    # up to its entry state, a march at M = 16 traces its two work grids
    # (64 M^2 B) and, unless lean, the entry grids of both levels
    # (32 M^2 B each, FIRST_ORDER's too), plus at most 4 KiB, the
    # plan's views (about 2.5 KiB) among them: the states and weights it
    # was given are used as they are, where copying them would add 10,240 B
    A = 0.0 if scheme == "FIRST_ORDER" else 0.25  # FIRST_ORDER has no A
    params = SchemeParams(scheme=scheme, tau=0.05, gamma=1.0, eps=0.25, A=A, B=8.0)
    entry_grids = 2 if grids else 0
    M = basis16.M
    phi0 = random_nodal_field(basis16, 14)
    phi1 = bootstrap_first_step(phi0, params)
    op = build_step_operator(params, basis16)
    tracemalloc.start()
    try:
        _, _, grid = next(march(op, phi0.v, phi1.v, 2, grids=grids))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert grid is None or grid.nbytes == 32 * M * M
    assert peak <= 64 * M * M + 32 * M * M * entry_grids + 4096


@pytest.fixture
def plans_built(monkeypatch):
    """The arguments of every timestepping.GridPlan built while it is in use."""
    built = []

    class CountedPlan(GridPlan):
        def __init__(self, *args):
            built.append(args)
            super().__init__(*args)

    monkeypatch.setattr(timestepping, "GridPlan", CountedPlan)
    return built


@pytest.mark.parametrize("grids", [True, False], ids=["grids", "lean"])
def test_a_march_builds_one_grid_plan_before_its_entry_state(grids, basis16, plans_built):
    # every view a step's transforms read or write is built once, by the
    # march's one field2d.GridPlan, before the entry state; this march's
    # forces stay in [-P, P], so no load takes the fallback
    params = SchemeParams(scheme="SL_CN", tau=0.05, gamma=1.0, eps=0.25, A=0.25, B=8.0)
    phi0 = random_nodal_field(basis16, 10)
    states = march(build_step_operator(params, basis16), phi0.v, phi0.v, 20, grids=grids)
    assert not plans_built
    next(states)
    assert len(plans_built) == 1
    assert sum(1 for _ in states) == 20
    assert len(plans_built) == 1


@pytest.mark.parametrize("grids", [True, False], ids=["grids", "lean"])
def test_an_off_range_load_is_fitted_on_the_marchs_one_plan(grids, basis16, plans_built):
    # an entry state twice test_a_march_builds_one_grid_plan's puts the
    # first forces outside [-P, P] (max |g| 2.12 at entry) before the
    # march settles inside it: an off-range load writes f(g) + g over the
    # force grid and is fitted on the march's one plan, and each state is
    # the reference step of the one before, bit for bit
    params = SchemeParams(scheme="SL_CN", tau=0.05, gamma=1.0, eps=0.25, A=0.25, B=8.0)
    op = build_step_operator(params, basis16)
    v0 = 2.0 * random_nodal_field(basis16, 10).v
    states = march(op, v0, v0, 20, grids=grids)
    before = next(states)
    grid_prev, in_range = before[2], []
    for state in states:
        fits, new, new_grid = reference_step(op, *before[:2], grid_prev, before[2])
        in_range.append(bool(fits))
        np.testing.assert_array_equal(state[1], new)
        np.testing.assert_array_equal(state[2], new_grid)
        grid_prev, before = before[2], state
    assert len(plans_built) == 1
    assert not in_range[0] and in_range[-1]


@pytest.mark.parametrize("M", [8, 16])
def test_lean_march_matches_grid_march(M):
    # grids=False builds the force on modes and transforms it once; its
    # states carry no grid, and its final pair is the grid march's up to
    # roundoff for every scheme
    basis = assemble_basis(M)
    phi0 = random_nodal_field(basis, 11)
    for scheme in ("SL_BDF2", "SL_CN", "FIRST_ORDER"):
        A = 0.0 if scheme == "FIRST_ORDER" else 0.25  # FIRST_ORDER has no A
        params = SchemeParams(scheme=scheme, tau=0.05, gamma=1.0, eps=0.25, A=A, B=8.0)
        op = build_step_operator(params, basis)
        phi1 = bootstrap_first_step(phi0, params)
        lean = list(march(op, phi0.v, phi1.v, 20, grids=False))
        assert len(lean) == 21 and all(grid is None for _, _, grid in lean)
        final = last_pair(op, phi0.v, phi1.v, 20)
        for a, b in zip(lean[-1][:2], final):
            assert np.abs(a - b).max() <= 1e-13


def test_lean_final_first_order_is_the_lean_march(basis8):
    # FIRST_ORDER marches n steps from (phi0, phi0): the last state of
    # that lean march, bit for bit
    phi0 = random_nodal_field(basis8, 6)
    params = SchemeParams("FIRST_ORDER", tau=0.05, gamma=1.0, eps=0.25, B=4.0)
    op = build_step_operator(params, basis8)
    for n in (1, 7):
        for _, want, _ in march(op, phi0.v, phi0.v, n, grids=False):
            pass
        np.testing.assert_array_equal(lean_final(phi0, params, n).v, want)


@pytest.mark.parametrize("scheme", ["SL_BDF2", "SL_CN"])
def test_lean_final_two_level_is_bootstrap_then_lean_steps(basis8, scheme):
    # a two-level scheme takes bootstrap_first_step's phi^1 as step 1 and
    # n - 1 lean steps after it, bit for bit; n = 1 is phi^1 itself
    phi0 = random_nodal_field(basis8, 6)
    params = SchemeParams(scheme, tau=0.05, gamma=1.0, eps=0.25, A=0.25, B=8.0)
    phi1 = bootstrap_first_step(phi0, params)
    np.testing.assert_array_equal(lean_final(phi0, params, 1).v, phi1.v)
    op = build_step_operator(params, basis8)
    for _, want, _ in march(op, phi0.v, phi1.v, 6, grids=False):
        pass
    np.testing.assert_array_equal(lean_final(phi0, params, 7).v, want)


@pytest.mark.parametrize("n_steps", [0, 2.5, True])
def test_lean_final_checks_its_count_first(basis8, monkeypatch, n_steps):
    # a count that is not an integer >= 1 is the one-line ValueError,
    # raised before any operator is built
    def no_operator(*args):
        raise AssertionError("an operator was built")

    monkeypatch.setattr(timestepping, "build_step_operator", no_operator)
    params = SchemeParams("SL_CN", tau=0.05, gamma=1.0, eps=0.25)
    message = f"n_steps must be an integer >= 1, got {n_steps!r}"
    with pytest.raises(ValueError, match=re.escape(message)):
        lean_final(random_nodal_field(basis8, 6), params, n_steps)


def dense_step(op, prev, curr):
    # one step on the dense 2M maps of the oracle tables, ascending nodes
    T, G = dense_maps(op.basis)
    g = T @ (curr + op.xp * (prev - curr)) @ T.T
    return op.cn * curr + op.cp * prev + op.cl * (G @ (potential_deriv(g) + g) @ G.T)


@pytest.mark.parametrize("grids", [True, False], ids=["grids", "lean"])
@pytest.mark.parametrize("M", [10, 14])
def test_odd_half_march_matches_the_dense_maps(M, grids):
    # parity blocks of an odd width M/2 run the one step body: each state,
    # a C-contiguous M x M array, is the dense step of the one before within
    # 1e-12 relative, and so is each grid, T curr T^T in the quadrant layout
    basis = assemble_basis(M)
    T, _ = dense_maps(basis)
    phi0 = random_nodal_field(basis, 5)
    for params in (SchemeParams("SL_BDF2", tau=0.05, gamma=1.0, eps=0.25, A=0.25, B=8.0),
                   SchemeParams("SL_CN", tau=0.05, gamma=1.0, eps=0.25, A=0.25, B=8.0)):
        op = build_step_operator(params, basis)
        states = list(march(op, phi0.v, bootstrap_first_step(phi0, params).v, 20, grids=grids))
        for (prev, curr, _), (_, new, grid) in zip(states, states[1:]):
            want = dense_step(op, prev, curr)
            assert new.shape == (M, M) and new.flags.c_contiguous
            assert np.abs(new - want).max() <= 1e-12 * np.abs(want).max()
            if grids:
                want = T @ new @ T.T
                assert np.abs(natural(grid) - want).max() <= 1e-12 * np.abs(want).max()


THREADS_SCRIPT = """
import sys
import numpy as np
from chillwave import SchemeParams, assemble_basis, build_step_operator, march
from chillwave import timestepping
from chillwave.harness import random_nodal_field

basis = assemble_basis(128)
params = SchemeParams("SL_CN", tau=0.01, gamma=0.0025, eps=0.05, A=7.5625, B=110.0)
phi0 = random_nodal_field(basis, 42)
for _, curr, grid in march(build_step_operator(params, basis), phi0.v, phi0.v, 16):
    pass
sys.stdout.buffer.write(np.ascontiguousarray(curr).tobytes() + grid.tobytes())
"""


def under_one_and_two_threads(script):
    # the stdout bytes of script in two processes, under 1 and 2 BLAS threads
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    outputs = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads,
                   MKL_NUM_THREADS=threads, PYTHONPATH=src)
        proc = subprocess.run([sys.executable, "-c", script], env=env,
                              capture_output=True, check=True)
        outputs.append(proc.stdout)
    return outputs


def test_march_does_not_depend_on_the_blas_thread_count():
    # a 16-step grid march at M = 128, in two processes under 1 and 2
    # BLAS threads: the final modal state and the last grid agree byte for
    # byte, so the batched GEMMs split no sum by thread
    outputs = under_one_and_two_threads(THREADS_SCRIPT)
    assert len(outputs[0]) == 8 * (128 * 128 + 256 * 256)
    assert outputs[0] == outputs[1]


BASIS_SCRIPT = """
import hashlib
import numpy as np
from chillwave import assemble_basis

for M in (128, 256, 512):
    for name, value in vars(assemble_basis(M)).items():
        print(M, name, hashlib.sha256(np.asarray(value).tobytes()).hexdigest())
"""
OPENBLAS = "openblas" in np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]


@pytest.mark.skipif((os.cpu_count() or 1) < 2, reason="needs 2 CPUs for 2 BLAS threads")
@pytest.mark.skipif(not OPENBLAS, reason="the thread split measured is OpenBLAS's")
def test_basis_does_not_depend_on_the_blas_thread_count():
    # assemble_basis at M = 128, 256 and 512 in two processes under 1 and
    # 2 BLAS threads: every array of the basis and its residual have the
    # same bytes (a dense eigh of D^-1/2 K D^-1/2 moved lam by 3.8e-6 at
    # M = 512, and a BLAS ddot norm moved the residual at M = 256)
    one, two = (out.decode().splitlines() for out in under_one_and_two_threads(BASIS_SCRIPT))
    assert len(one) == 3 * 10 and any(line.startswith("512 residual ") for line in one)
    assert one == two


TRACE_SCRIPT = """
import sys
import chillwave as cw
from chillwave.potential import L

A, B = cw.sufficient_stabilizers("SL_CN", 0.05, 0.0025, 0.01, L)
cfg = cw.RunConfig(M=128, eps=0.05, gamma=0.0025, tau=0.01, T=0.16, scheme="SL_CN",
                   A=A, B=B, seed=42)
trace, _, _ = cw.run_simulation(cfg)
sys.stdout.buffer.write(trace.rows.tobytes())
"""


@pytest.mark.skipif((os.cpu_count() or 1) < 2, reason="needs 2 CPUs for 2 BLAS threads")
@pytest.mark.skipif(not OPENBLAS, reason="the thread split measured is OpenBLAS's")
@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="ROADMAP item 12: step_energies' np.vdot sums are split by "
                   "OpenBLAS thread, so the rows move in the last bits")
def test_trace_rows_do_not_depend_on_the_blas_thread_count():
    # the 16-step SL_CN theorem run at M = 128 under 1 and 2 BLAS threads:
    # its trace rows agree byte for byte
    outputs = under_one_and_two_threads(TRACE_SCRIPT)
    assert len(outputs[0]) == 16 * TRACE_DTYPE.itemsize
    assert outputs[0] == outputs[1]


def test_first_order_march_weights_the_prev_it_is_given(basis8):
    # FIRST_ORDER runs the one step body, whose x_p = cp = 0 still weight
    # v^{n-1}: from (NaN, v) it yields its entry state, with the grid of v,
    # and then raises NonFinite, lean and grid
    params = SchemeParams(scheme="FIRST_ORDER", tau=0.05, gamma=1.0, eps=0.25, B=4.0)
    op = build_step_operator(params, basis8)
    v = random_nodal_field(basis8, 12).v
    for grids in (True, False):
        states = march(op, np.full_like(v, np.nan), v, 3, grids=grids)
        prev, curr, grid = next(states)
        assert np.isnan(prev).all() and curr is v
        if grids:
            np.testing.assert_array_equal(grid, grid_of(basis8, v))
        else:
            assert grid is None
        with pytest.raises(NonFinite):
            next(states)


def test_modal_load_cubic_and_fallback(basis8):
    # the load is G(c(g)) with c(g) = f(g) + g: inside [-P, P] it is
    # G(g^3) bit for bit, and less w it is the dense quadrature of f up to
    # roundoff (G(T(w)) = w); a grid with a point outside, a NaN or an
    # infinity is G(f(g) + g) with potential_deriv's f, bit for bit
    _, G = dense_maps(basis8)
    w = random_nodal_field(basis8, 13).v
    g = grid_of(basis8, w)
    scratch = np.empty_like(g)
    assert np.abs(g).max() <= P

    def fit(c):
        return GridPlan(basis8, c, np.empty_like(c)).fit().copy()

    np.testing.assert_array_equal(modal_load(GridPlan(basis8, g.copy(), scratch)), fit(g * g * g))
    np.testing.assert_allclose(modal_load(GridPlan(basis8, g.copy(), scratch)) - w,
                               G @ potential_deriv(natural(g)) @ G.T, rtol=0, atol=1e-13)
    for bad in (2.5, -2.5, np.nan, np.inf, -np.inf):
        off = g.copy()
        off[1, 0, 3, 5] = bad
        with np.errstate(invalid="ignore"):  # inf - inf inside the matmuls
            want = fit(potential_deriv(off) + off)
            got = modal_load(GridPlan(basis8, off, scratch))
        np.testing.assert_array_equal(got, want)


def test_operator_reuse_matches_rebuild(basis8):
    params = SchemeParams(scheme="SL_CN", tau=0.05, gamma=1.0, eps=0.25, A=0.25, B=8.0)
    phi0 = random_nodal_field(basis8, 6)
    phi1 = bootstrap_first_step(phi0, params)
    shared = build_step_operator(params, basis8)
    prev_a, curr_a = prev_b, curr_b = phi0.v, phi1.v
    for _ in range(5):
        prev_a, curr_a = last_pair(shared, prev_a, curr_a, 1)
        prev_b, curr_b = last_pair(build_step_operator(params, basis8), prev_b, curr_b, 1)
    np.testing.assert_array_equal(curr_a, curr_b)


@pytest.mark.parametrize("M", [8, 48])
def test_step_operator_carries_energy_weights(M):
    # grad = eps sigma / 2 and each scheme's history weight hw, equal bit
    # for bit to the modified energies' textbook forms: SL_BDF2
    # [sigma > 0] / (4 tau gamma sigma) + L / (2 eps) + B / 2, SL_CN
    # L / (4 eps) + B / 2; FIRST_ORDER has no modified energy
    basis = assemble_basis(M)
    sigma, L = basis.sigma, 11.0
    tau, gamma, eps, B = 0.01, 0.0025, 0.05, 5.0
    hm1 = np.divide(1.0, 4.0 * tau * gamma * sigma, out=np.zeros_like(sigma), where=sigma > 0.0)
    expected = {
        "SL_BDF2": hm1 + (L / (2.0 * eps) + 0.5 * B),
        "SL_CN": np.full_like(sigma, L / (4.0 * eps) + 0.5 * B),
        "FIRST_ORDER": None,
    }
    for scheme, hw in expected.items():
        op = build_step_operator(SchemeParams(scheme, tau, gamma, eps, B=B), basis)
        assert np.array_equal(op.grad, 0.5 * eps * sigma)
        assert op.hw is None if hw is None else np.array_equal(op.hw, hw)


def test_march_rejects_wrong_eigenbasis():
    # the modal solve is exact when the eigendecomposition is, so Basis1D
    # checks K E = M E diag(lam) and E^T M E = I against the 1e-10
    # contract on construction: eigenvectors off by a relative 1e-6 or
    # 1e-10, or eigenvalues off by 1e-8, must be rejected; sigma and the
    # grid maps are derived from the checked pair and every array is
    # read-only, so a corrupted copy never reaches a step
    params = SchemeParams(scheme="SL_BDF2", tau=0.01, gamma=0.0025, eps=0.05, A=5.0625, B=220.0)
    basis = assemble_basis(8)
    phi0 = random_nodal_field(basis, 7)
    last_pair(build_step_operator(params, basis), phi0.v, phi0.v, 1)
    assert basis.residual <= 1e-10

    rng = np.random.default_rng(8)
    for which, rel in (("E", 1e-6), ("E", 1e-10), ("lam", 1e-8)):
        good = getattr(basis, which)
        with pytest.raises(SolveFailed):
            replace(basis, **{which: good * (1.0 + rel * rng.standard_normal(good.shape))})
    for name in ("sigma", "E", "eval_stack", "fit_stack", "T_M", "G_M", "weights"):
        with pytest.raises(ValueError, match="read-only"):
            getattr(basis, name)[1] = 0.0
        with pytest.raises(FrozenInstanceError):
            setattr(basis, name, np.zeros((8, 8)))


def test_basis_rederives_its_maps_from_any_valid_eigenpair():
    # an eigenvector is fixed only up to sign: flipping every third one is
    # another valid pair, and the grid maps must follow it exactly, since a
    # map left over from the old E would give wrong fields without an error
    params = SchemeParams(scheme="SL_BDF2", tau=0.01, gamma=0.0025, eps=0.05, A=5.0625, B=220.0)
    basis = assemble_basis(8)
    s = np.where(np.arange(8) % 3 == 0, -1.0, 1.0)
    flipped = replace(basis, E=basis.E * s)
    assert flipped.residual <= 1e-10
    np.testing.assert_array_equal(flipped.T_M, basis.T_M * s)
    np.testing.assert_array_equal(flipped.G_M, s[:, None] * basis.G_M)
    blocks = s.reshape(2, 4)  # the parity blocks' signs, modes parity-major
    np.testing.assert_array_equal(flipped.eval_stack, basis.eval_stack * blocks[:, None, :])
    np.testing.assert_array_equal(flipped.fit_stack, blocks[:, :, None] * basis.fit_stack)
    grids = []
    for b in (basis, flipped):
        phi0 = random_nodal_field(b, 7)
        *_, (_, _, grid) = march(build_step_operator(params, b), phi0.v, phi0.v, 5)
        grids.append(grid)
    np.testing.assert_array_equal(grids[0], grids[1])


def long_double_legendre(n, x):
    """P_0 .. P_n at the long-double points x, by the three-term recurrence."""
    rows = [np.ones_like(x), x]
    for k in range(1, n):
        rows.append(((2 * k + 1) * x * rows[k] - k * rows[k - 1]) / (k + 1))
    return np.array(rows[:n + 1])


def long_double_gauss(n):
    """The n-point Gauss-Legendre rule in long double: numpy's leggauss
    nodes after two Newton steps on P_n, and w = 2 / ((1 - x^2) P_n'^2)."""
    def p_and_dp(x):  # P_n and P_n' = n (x P_n - P_{n-1}) / (x^2 - 1)
        P = long_double_legendre(n, x)
        return P[n], n * (x * P[n] - P[n - 1]) / (x * x - 1)

    x = np.polynomial.legendre.leggauss(n)[0].astype(np.longdouble)
    for _ in range(2):
        p, dp = p_and_dp(x)
        x = x - p / dp
    dp = p_and_dp(x)[1]
    return x, 2 / ((1 - x * x) * dp * dp)


def long_double_march(params, basis, v0, v1, n_steps):
    """The Legendre coefficients of each state of params' two-level scheme
    from the float64 modal pair (v0, v1) of basis, marched in long double:
    E refined per parity (test_spectral1d.refined_block), dense 2M maps on
    long-double Gauss nodes, and each mode's step solved from the paper's
    scheme as written, with no weight folded."""
    M, LD = basis.M, np.longdouble
    H = M // 2
    E = np.zeros((M, M), dtype=LD)
    E[0::2, :H], E[1::2, H:] = refined_block(M, 0), refined_block(M, 1)
    lam = np.einsum("ik,ij,jk->k", E, analytic_mass_stiffness(M)[1].astype(LD), E)
    sigma = lam[:, None] + lam[None, :]
    mass = 2 / (2 * np.arange(M, dtype=LD) + 1)
    x, w = long_double_gauss(2 * M)
    tab = long_double_legendre(M - 1, x)
    T, G = tab.T @ E, E.T @ (tab * w)
    tau, gamma, eps, A, B = (LD(getattr(params, k)) for k in ("tau", "gamma", "eps", "A", "B"))
    E64 = basis.E.astype(LD)

    def load(u):  # the 2M-point quadrature of f(u) against each mode
        g = T @ u @ T.T
        c = np.clip(g, -P, P)
        return G @ (c * c * c - c + 11 * (g - c)) @ G.T

    def modes(v):  # E^-1 = E^T mass
        return E.T @ (mass[:, None] * (E64 @ v.astype(LD) @ E64.T) * mass) @ E

    prev, curr = modes(v0), modes(v1)
    coeffs = [E @ curr @ E.T]
    for _ in range(n_steps):
        # (phi' - ...) / tau = -gamma sigma mu, mu = c sigma phi' + B phi' + r
        hist = B * (2 * curr - prev)
        if params.scheme == "SL_BDF2":
            rhs, a, c = (2 * curr - prev / 2) / tau, 1.5 / tau, eps + A * tau
            r = load(2 * curr - prev) / eps - A * tau * sigma * curr - hist
        else:
            rhs, a, c = curr / tau, 1 / tau, eps / 2 + A * tau
            r = load(1.5 * curr - prev / 2) / eps + (eps / 2 - A * tau) * sigma * curr - hist
        prev, curr = curr, (rhs - gamma * sigma * r) / (a + gamma * sigma * (c * sigma + B))
        coeffs.append(E @ curr @ E.T)
    return coeffs


# (M, scheme) -> the measured largest distance over 200 steps
FLOAT64_FLOOR = {(16, "SL_BDF2"): 7.6e-14, (16, "SL_CN"): 4.3e-14,
                 (24, "SL_BDF2"): 1.7e-13, (24, "SL_CN"): 1.6e-13}


def float64_distance(M, scheme, n_steps):
    """The largest Legendre coefficient distance over n_steps of the
    float64 march from long_double_march, from one entry pair: the seed-42
    noise and its bootstrap, at trace_m48's theorem run of scheme."""
    eps, gamma, tau = 0.05, 0.0025, 0.01
    A, B = sufficient_stabilizers(scheme, eps, gamma, tau, 11.0)
    params = SchemeParams(scheme, tau=tau, gamma=gamma, eps=eps, A=A, B=B)
    basis = assemble_basis(M)
    phi0 = random_nodal_field(basis, 42)
    phi1 = bootstrap_first_step(phi0, params)
    oracle = long_double_march(params, basis, phi0.v, phi1.v, n_steps)
    E = basis.E.astype(np.longdouble)
    states = march(build_step_operator(params, basis), phi0.v, phi1.v, n_steps, grids=False)
    return max(float(np.abs(E @ curr.astype(np.longdouble) @ E.T - ref).max())
               for (_, curr, _), ref in zip(states, oracle, strict=True))


@pytest.mark.parametrize("scheme", ["SL_BDF2", "SL_CN"])
@pytest.mark.parametrize("M", [16, 24])
def test_march_stays_at_its_float64_floor_from_a_long_double_oracle(M, scheme, capsys):
    # the float64 march against the same discrete problem in 80-bit, at
    # M = 16 and 24: over 200 steps the largest Legendre coefficient
    # distance stays within 10 times FLOAT64_FLOOR, measured on 2-core AMD
    # EPYC with OpenBLAS; the coefficients reach 1.6 to 2.4
    distance = float64_distance(M, scheme, 200)
    with capsys.disabled():
        print(f"\nFLOAT64 FLOOR: {scheme} at M = {M}, 200 steps: max |C - C_80bit| = "
              f"{distance:.2e} (aim 1's bound on a moved field: 1e-10)")
    assert distance <= 10 * FLOAT64_FLOOR[M, scheme]


@pytest.mark.parametrize("scheme", ["SL_BDF2", "SL_CN"])
def test_march_at_M48_stays_within_1e_13_of_a_long_double_oracle(scheme):
    # over 50 steps at M = 48 the distance reads about 2e-14 (SL_BDF2) and
    # 1e-14 (SL_CN) with the tridiagonal E, where a dense eigh's E gave
    # 4.68e-13 and 4.79e-13
    assert float64_distance(48, scheme, 50) <= 1e-13
