"""The package API that the benchmark in perfbench/ calls.

perfbench/workloads.py is imported as it is checked in and never edited
here: every workload's set-up runs, and every workload runs once at seed 42
and passes its own output check. A change that removes or renames what a
workload uses (`modal_decomposition`, `mean_value`, `Field.coeffs`,
`read_snapshot` with a basis, `run_simulation(cfg, phi_init=, basis=)`,
`EnergyTrace.read_csv`, `SweepResult.cells` and `ladders`, ...) fails here.
perfbench/tracer.py, also loaded as checked in, wraps package functions by
name for `run.py --trace 1`; a package change that breaks a wrapper fails
the traced run here.
"""
import importlib.util
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def load(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up
    try:
        spec.loader.exec_module(module)
        yield module
    finally:
        del sys.modules[spec.name]


@pytest.fixture(scope="module")
def workloads():
    yield from load("workloads")


@pytest.fixture(scope="module")
def tracer():
    yield from load("tracer")


def test_every_workload_sets_up(workloads, tmp_path):
    assert set(workloads.WORKLOADS) == {"trace_m48", "cli_m128", "sweep_c9", "converge_c4"}
    for name, workload in workloads.WORKLOADS.items():
        ctx = workload.setup(42, str(tmp_path / name))
        assert ctx.basis.M == ctx.cfg.M


@pytest.mark.parametrize("name", ["trace_m48", "cli_m128", "sweep_c9", "converge_c4"])
def test_workload_runs_and_passes_its_check(workloads, tmp_path, name):
    workload = workloads.WORKLOADS[name]
    ctx = workload.setup(42, str(tmp_path))
    outcome = workload.check(ctx, workload.run(ctx))
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
