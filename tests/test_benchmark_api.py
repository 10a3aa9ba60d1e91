"""The package API that the benchmark in perfbench/ calls.

perfbench/workloads.py is imported as it is checked in and never edited
here: every workload's set-up runs, and its seed-42 run (shared with the
acceptance criteria) passes its check. A change that removes or renames
what a workload uses (`modal_decomposition`, `mean_value`, `Field.coeffs`,
`read_snapshot` with a basis, `run_simulation(cfg, phi_init=, basis=)`,
`EnergyTrace.read_csv`, `SweepResult.cells` and `ladders`, ...) fails here.
perfbench/tracer.py, also loaded as checked in, wraps package functions by
name for `run.py --trace 1`; a package change that breaks a wrapper fails
the traced run here.
"""
import pytest

from conftest import load_perfbench


@pytest.fixture(scope="module")
def tracer():
    yield from load_perfbench("tracer")


def test_every_workload_sets_up(workloads, tmp_path):
    assert set(workloads.WORKLOADS) == {"trace_m48", "cli_m128", "sweep_c9", "converge_c4"}
    for name, workload in workloads.WORKLOADS.items():
        ctx = workload.setup(42, str(tmp_path / name))
        assert ctx.basis.M == ctx.cfg.M


@pytest.mark.parametrize("name", ["trace_m48", "cli_m128", "sweep_c9", "converge_c4"])
def test_workload_runs_and_passes_its_check(workloads, experiment, name):
    workload = workloads.WORKLOADS[name]
    outcome = workload.check(*experiment(name))
    assert outcome.attempted == workload.attempts
    assert outcome.failed == 0


def test_trace_m48_runs_under_the_tracer(workloads, tracer, tmp_path):
    tracing = tracer.Tracer()
    tracing.install()
    try:
        ctxs = {name: w.setup(42, str(tmp_path / name)) for name, w in workloads.WORKLOADS.items()}
        setup = tracer.setup_metrics(tracing.take())
        workload = workloads.WORKLOADS["trace_m48"]
        outcome = workload.check(ctxs["trace_m48"], workload.run(ctxs["trace_m48"]))
        layer = tracer.rep_metrics(tracing.take(), 1.0)
    finally:
        tracing.uninstall()
    assert outcome.failed == 0
    assert setup["spectral1d.assemble_basis_ms"] > 0
    assert layer["harness.runs"] == 1 and layer["harness.steps_total"] == 1024
