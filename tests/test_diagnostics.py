import tracemalloc

import numpy as np
import pytest

from chillwave import (
    EnergyTrace,
    Field,
    SchemeParams,
    build_step_operator,
    error_norms,
    hminus1_norm,
    mean_value,
    norm_l2,
    potential_value,
    stability_verdict,
)
from chillwave.diagnostics import TRACE_DTYPE, TRACE_HEADER, step_energies
from chillwave.harness import random_nodal_field
from chillwave.potential import P
from conftest import (
    energy_eps,
    field_energies,
    grid_of,
    legendre_field,
    oracle_eval_2d,
    oracle_quadrature,
    rand_field,
    unit_field,
)


def make_trace(increments, stop_reason=None):
    rows = np.zeros(len(increments), TRACE_DTYPE).view(np.recarray)
    rows["n"] = np.arange(1, len(increments) + 1)
    rows["t"] = rows["n"] * 0.1
    rows["E_eps"] = rows["E_mod"] = np.cumsum([10.0, *increments])[1:]
    rows["dE_mod"] = increments
    rows["dt_norm"] = 1e-3
    return EnergyTrace(rows, stop_reason=stop_reason)


HEAD = TRACE_HEADER + "\n"
ROW = "1,0.1,1.0,1.0,0.0,0.0,0.0\n"


@pytest.mark.parametrize("text, error", [
    (HEAD + ROW + "3,0.2,1.0,1.0,0.0,0.0,0.0\n", ", line 3: rows must be contiguous in n"),
    (HEAD + ROW + "2,0.1,1.0,1.0,0.0,0.0,0.0\n", ", line 3: times must be strictly increasing"),
    ("n,t\n" + ROW, f": header 'n,t', expected {TRACE_HEADER}"),
    ("", f": header '', expected {TRACE_HEADER}"),
    (HEAD, None),
    (HEAD + ROW + "2,0.2,1.0\n", 3),
    (HEAD + ROW + "2,0.2,x,1.0,0.0,0.0,0.0\n", 3),
    (HEAD + "1.5,0.1,1.0,1.0,0.0,0.0,0.0\n", 2),
    (HEAD + ROW + "\n", 3),
    (HEAD + ROW + "2,nan,1.0,1.0,0.0,0.0,0.0\n", 3),
    (HEAD + "1,inf,1.0,1.0,0.0,0.0,0.0\n", 2),
    (HEAD + ROW + "nan,0.2,1.0,1.0,0.0,0.0,0.0\n", 3),
], ids=["skipped_n", "repeated_t", "wrong_header", "empty_file", "header_only", "short_row",
        "text_value", "fractional_n", "trailing_blank_line", "nan_t", "inf_t", "nan_n"])
def test_trace_read_csv_validation(tmp_path, text, error):
    # trace files come from outside the program: read_csv checks what the
    # run's loop over march guarantees, and every error names the file (and
    # the line of a row that is not an integer n, a finite t and five numbers)
    p = tmp_path / "trace.csv"
    p.write_text(text)
    if error is None:
        assert len(EnergyTrace.read_csv(p)) == 0
    else:
        with pytest.raises(ValueError) as exc:
            EnergyTrace.read_csv(p)
        # an int is the line of a malformed row
        want = f", line {error}: expected a row" if isinstance(error, int) else error
        assert f"trace {p}{want}" in str(exc.value)


def test_trace_columns():
    tr = make_trace([0.0, -0.5, -0.25])
    np.testing.assert_allclose(tr.column("dE_mod"), [0.0, -0.5, -0.25])
    np.testing.assert_allclose(tr.column("n"), [1, 2, 3])
    assert len(tr) == 3


def test_trace_csv_round_trip(tmp_path):
    tr = make_trace([0.0, -1e-3, 2.5e-11, -7e-5])
    p = tmp_path / "trace.csv"
    tr.write_csv(p)
    with open(p) as fh:
        assert fh.readline().strip() == TRACE_HEADER
    back = EnergyTrace.read_csv(p)
    assert len(back) == len(tr)
    assert back.rows.tolist() == tr.rows.tolist()  # repr round trip is exact


def test_energy_eps_constants(basis8):
    assert energy_eps(0.05, unit_field(basis8, 0, 0, 1.0)) == pytest.approx(0.0, abs=1e-12)
    assert energy_eps(0.05, unit_field(basis8, 0, 0, 0.0)) == pytest.approx(20.0, abs=1e-10)


def test_energy_eps_brute_force_oracle(basis8):
    # top two coefficient indices stay zero so the internal 2M rule is
    # exact for the quartic term (degree 4(M-1) <= 4M-1); amplitude keeps
    # |phi| < P so both rules see the inner branch only
    rng = np.random.default_rng(21)
    c = np.zeros((8, 8))
    c[:6, :6] = 0.1 * rng.standard_normal((6, 6))
    u = legendre_field(basis8, c)
    # independent 4M-point quadrature of both energy terms
    x, w = oracle_quadrature(32)
    vals = oracle_eval_2d(u.coeffs, x, x)
    assert np.abs(vals).max() < P
    ux = oracle_eval_2d(u.coeffs, x, x, dx=1)
    uy = oracle_eval_2d(u.coeffs, x, x, dy=1)
    eps = 0.07
    grad_term = 0.5 * eps * (w @ (ux**2 + uy**2) @ w)
    bulk_term = (w @ potential_value(vals) @ w) / eps
    assert energy_eps(eps, u) == pytest.approx(grad_term + bulk_term, rel=1e-12)


def test_modified_energy_reduces_to_energy_eps(basis8):
    c = rand_field(basis8, np.random.default_rng(22), amp=0.3)
    for scheme in ("SL_CN", "SL_BDF2"):
        params = SchemeParams(scheme=scheme, tau=0.1, gamma=0.0025, eps=0.05, B=20.0)
        assert field_energies(params, c, Field(c.basis, c.v.copy()))[1] == pytest.approx(
            energy_eps(0.05, c), rel=1e-12
        )


def test_modified_energy_large_tau_limit(basis8):
    rng = np.random.default_rng(23)
    curr = rand_field(basis8, rng, amp=0.3)
    prev = Field(basis8, curr.v + 1e-3 * rand_field(basis8, rng).v)
    prev.v[0, 0] = curr.v[0, 0]  # conservation
    eps, B, L = 0.05, 20.0, 11.0
    params = SchemeParams(scheme="SL_BDF2", tau=1e12, gamma=0.0025, eps=eps, B=B)
    d = norm_l2(Field(basis8, curr.v - prev.v))
    expected = energy_eps(eps, curr) + (L / (2 * eps) + B / 2) * d**2
    assert field_energies(params, curr, prev)[1] == pytest.approx(expected, rel=1e-9)


def test_step_energies_history_terms(basis8):
    # the history corrections at a finite step, against the Field-level
    # norms (the H^-1 norm is checked against a dense solve in test_field2d)
    rng = np.random.default_rng(29)
    curr = rand_field(basis8, rng, amp=0.4)
    prev = Field(basis8, curr.v + 0.05 * rand_field(basis8, rng).v)
    prev.v[0, 0] = curr.v[0, 0]
    diff = Field(basis8, curr.v - prev.v)
    eps, tau, gamma, B, L = 0.05, 0.1, 0.0025, 5.0, 11.0
    e = energy_eps(eps, curr)
    dt_sq, hm1_sq = norm_l2(diff) ** 2, hminus1_norm(diff) ** 2
    expected = {
        "SL_CN": e + (L / (4 * eps) + B / 2) * dt_sq,
        "SL_BDF2": e + hm1_sq / (4 * tau * gamma) + (L / (2 * eps) + B / 2) * dt_sq,
    }
    for scheme, e_mod in expected.items():
        params = SchemeParams(scheme=scheme, tau=tau, gamma=gamma, eps=eps, B=B)
        got = field_energies(params, curr, prev)
        assert got[0] == pytest.approx(e, rel=1e-12)
        assert got[1] == pytest.approx(e_mod, rel=1e-12)
        assert got[2] == pytest.approx(dt_sq, rel=1e-12)
        assert got[3] == pytest.approx(mean_value(curr), abs=1e-15)


def quadrature_energies(op, prev, curr, grid):
    # step_energies with its bulk term the 2M-point quadrature of F,
    # potential_value, on every grid: the rule it keeps off [-P, P], with
    # the quadrant grid's row weights and, its first M, column weights
    w, M = op.basis.weights, op.basis.M
    bulk = float(w @ potential_value(grid).reshape(-1, M) @ w[:M])
    e = float(np.vdot(op.grad, curr * curr)) + bulk / op.params.eps
    diff = curr - prev
    return e, e + float(np.vdot(op.hw, diff * diff)), float(np.vdot(diff, diff)), \
        mean_value(Field(op.basis, curr))


@pytest.mark.parametrize("M", [8, 16])
def test_step_energies_closed_form_bulk_and_fallback(M, basis8, basis16):
    # inside [-P, P] the bulk term is 1/4 w^T g^4 w - 1/2 sum v^2 + 1, equal
    # to the quadrature of F up to roundoff; with a node outside, a NaN or
    # an infinity it is that quadrature, bit for bit
    basis = basis8 if M == 8 else basis16
    params = SchemeParams("SL_BDF2", tau=0.01, gamma=0.0025, eps=0.05, A=1.0, B=220.0)
    op = build_step_operator(params, basis)
    curr = random_nodal_field(basis, 31).v
    prev = curr + 0.01 * random_nodal_field(basis, 32).v
    grid = grid_of(basis, curr)
    assert 1.0 < np.abs(grid).max() <= P
    scratch = np.empty_like(grid)
    np.testing.assert_allclose(step_energies(op, prev, curr, grid, scratch),
                               quadrature_energies(op, prev, curr, grid), rtol=1e-13, atol=0)
    for bad in (2.5, -2.5, np.nan, np.inf, 1e200):
        off = grid.copy()
        off[1, 0, 2, 3] = bad
        np.testing.assert_array_equal(step_energies(op, prev, curr, off, scratch),
                                      quadrature_energies(op, prev, curr, off))


def test_step_energies_allocate_no_grid(basis16):
    # the in-range bulk term squares into the caller's scratch grid:
    # numpy reports its buffers to tracemalloc, and a row traces less than
    # one 2M grid (8,192 B at M = 16)
    params = SchemeParams("SL_CN", tau=0.01, gamma=0.0025, eps=0.05, A=1.0, B=220.0)
    op = build_step_operator(params, basis16)
    curr = random_nodal_field(basis16, 31).v
    prev = curr + 0.01 * random_nodal_field(basis16, 32).v
    grid = grid_of(basis16, curr)
    scratch = np.empty_like(grid)
    assert np.abs(grid).max() <= P
    tracemalloc.start()
    try:
        step_energies(op, prev, curr, grid, scratch)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < grid.nbytes == 8192


def test_trace_m48_energy_is_the_quadrature_of_its_final_field(experiment):
    # the last E_eps of the cached trace_m48 run, an in-range field, against
    # the quadrature of F on the grid of its final field
    ctx, (trace, final, _) = experiment("trace_m48")
    op = build_step_operator(ctx.cfg, final.basis)
    grid = grid_of(final.basis, final.v)
    assert np.abs(grid).max() <= P
    want = quadrature_energies(op, final.v, final.v, grid)[0]
    assert trace.rows["E_eps"][-1] == pytest.approx(want, rel=1e-12, abs=0)


def test_modified_energy_exceeds_energy_eps(basis8):
    rng = np.random.default_rng(24)
    curr = rand_field(basis8, rng, amp=0.4)
    prev = Field(basis8, curr.v + 0.01 * rand_field(basis8, rng).v)
    prev.v[0, 0] = curr.v[0, 0]
    for scheme in ("SL_CN", "SL_BDF2"):
        params = SchemeParams(scheme=scheme, tau=0.1, gamma=0.0025, eps=0.05, B=5.0)
        assert field_energies(params, curr, prev)[1] >= energy_eps(0.05, curr)


def test_modified_energy_rejects_first_order(basis8):
    c = unit_field(basis8, 0, 0, 0.1)
    params = SchemeParams(scheme="FIRST_ORDER", tau=0.1, gamma=1.0, eps=0.25, B=4.0)
    with pytest.raises(ValueError):
        field_energies(params, c, c)


def test_verdict_stable():
    tr = make_trace([0.0] + [-1e-4] * 1023)
    assert stability_verdict(tr) == "stable"


def test_verdict_small_positive_increment_within_threshold():
    tr = make_trace([0.0, 5e-11] + [-1e-6] * 1022)
    assert stability_verdict(tr) == "stable"


def test_verdict_unstable_increment():
    tr = make_trace([0.0] + [-1e-6] * 1000 + [1e-9] + [-1e-6] * 22)
    assert stability_verdict(tr) == "unstable"


def test_verdict_blowup_is_unstable():
    tr = make_trace([0.0, -1e-6], stop_reason="blow_up")
    assert stability_verdict(tr) == "unstable"


def test_verdict_nan_increment_read_from_csv_is_unstable(tmp_path):
    # a trace file from outside the program may carry a NaN dE_mod; a row
    # violates unless dE_mod <= the threshold, so NaN is no proof of stability
    p = tmp_path / "trace.csv"
    p.write_text(TRACE_HEADER + "\n1,0.1,1.0,1.0,0.0,0.0,0.0\n2,0.2,1.0,nan,nan,0.0,0.0\n"
                 "3,0.3,1.0,1.0,-1e-6,0.0,0.0\n")
    assert stability_verdict(EnergyTrace.read_csv(p), min_steps=3) == "unstable"


def test_verdict_needs_enough_rows():
    tr = make_trace([0.0] * 10)
    with pytest.raises(ValueError):
        stability_verdict(tr)
    assert stability_verdict(tr, min_steps=10) == "stable"


def test_verdict_violation_before_length():
    # a short trace that ends at its first violating row (a sweep candidate
    # stopped early) is judged on that row, not rejected for its length;
    # one whose rows stay at or below 1e-10 is stable only if long enough
    assert stability_verdict(make_trace([0.0, -1e-6, 2e-10])) == "unstable"
    for below in (1e-10, 5e-11):
        tr = make_trace([0.0, -1e-6, below])
        assert stability_verdict(tr, min_steps=3) == "stable"
        with pytest.raises(ValueError):
            stability_verdict(tr)


def test_error_norms_identical(basis16):
    u = rand_field(basis16, np.random.default_rng(25))
    assert error_norms(u, u) == (0.0, 0.0, 0.0)


def test_error_norms_homogeneity(basis16):
    rng = np.random.default_rng(26)
    u = rand_field(basis16, rng)
    mode = np.zeros((16, 16))
    mode[3, 2] = 1.0
    errs1 = error_norms(Field(basis16, u.v + mode), u)
    errs4 = error_norms(Field(basis16, u.v + 4 * mode), u)
    for e1, e4 in zip(errs1, errs4):
        assert e4 == pytest.approx(4 * e1, rel=1e-10)


def test_error_norms_mean_mismatch(basis16):
    u = rand_field(basis16, np.random.default_rng(27))
    v = Field(u.basis, u.v.copy())
    v.v[0, 0] += 1e-3
    with pytest.raises(ValueError, match="exceeds 1e-9"):
        error_norms(u, v)


def test_error_norms_triangle_inequality(basis16):
    rng = np.random.default_rng(28)
    for _ in range(10):
        u, v, w = (rand_field(basis16, rng) for _ in range(3))
        # align means so the H^-1 solve is defined for every pair
        v.v[0, 0] = u.v[0, 0]
        w.v[0, 0] = u.v[0, 0]
        uw = error_norms(u, w)
        uv = error_norms(u, v)
        vw = error_norms(v, w)
        for i in range(3):
            assert uw[i] <= uv[i] + vw[i] + 1e-10


def test_energy_decreases_along_stable_run(basis16):
    # short developed-interface run; E_eps itself should trend down. The
    # grid of each state march yields must give the energies of its modal
    # pair, so the trend is not read off the wrong arrays.
    from chillwave.harness import random_nodal_field
    from chillwave import bootstrap_first_step, build_step_operator, march

    params = SchemeParams(scheme="SL_CN", tau=0.01, gamma=0.0025, eps=0.25, A=0.25, B=8.0)
    phi0 = random_nodal_field(basis16, 30)
    phi1 = bootstrap_first_step(phi0, params)
    op = build_step_operator(params, basis16)
    rows, scratch = [], np.empty((2, 2, 16, 16))
    for prev, curr, grid in march(op, phi0.v, phi1.v, 50):
        rows.append(step_energies(op, prev, curr, grid, scratch))
    assert len(rows) == 51  # the entry pair, then one per step
    energies = [row[0] for row in rows]
    assert energies[0] == pytest.approx(energy_eps(params.eps, phi1), rel=1e-12)
    last = field_energies(params, Field(basis16, curr), Field(basis16, prev))
    np.testing.assert_allclose(rows[-1], last, rtol=1e-12, atol=1e-14)
    assert energies[-1] < energies[0] - 1e-3
