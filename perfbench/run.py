#!/usr/bin/env python3
"""Benchmark of chillwave's four paper experiments, end to end and per layer.

Run from the repository root:

    python3 perfbench/run.py                  # every workload, seed 42, a table
    python3 perfbench/run.py --workload trace_m48 --seed 42 --seconds 15 --trace 0

One workload per process, one thread. --trace 0 times the workload and
reports the end-to-end metrics; --trace 1 times it with and without the
tracer's wrappers and reports the per-layer metrics. Either way the last
line of output is one JSON object {"correct", "attempted", "failed",
"metrics"}. The full record (environment, fingerprints, per-repetition
times) and the traced run's spans go to .perfbench_out/. The package is
imported from src/ of this checkout; without it the script exits with
code 2. See perfbench/README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"

NAMES = ("trace_m48", "cli_m128", "sweep_c9", "converge_c4")
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "CHILLWAVE_THREADS")
SETUP_RUNS = 5  # fresh interpreters per run; setup_s is their median
MIN_REPS = 3  # untraced repetitions a run makes at least
DEFAULT_SECONDS = 24

PER_LAYER = (
    ("spectral1d.assemble_basis_ms", "ms"),
    ("field2d.modal_decomposition_ms", "ms"),
    ("field2d.transform_calls", "count"),
    ("field2d.transform_ms", "ms"),
    ("field2d.operator_apply_calls", "count"),
    ("field2d.operator_apply_ms", "ms"),
    ("field2d.nonlinear_load_calls", "count"),
    ("field2d.nonlinear_load_ms", "ms"),
    ("field2d.matmuls_per_step", "matmul/step"),
    ("field2d.flops_per_step", "flop/step"),
    ("potential.deriv_points", "count"),
    ("potential.deriv_ms", "ms"),
    ("potential.value_ms", "ms"),
    ("timestepping.step_calls", "count"),
    ("timestepping.step_self_ms", "ms"),
    ("timestepping.solve_blocks_ms", "ms"),
    ("timestepping.residual_share", "ratio"),
    ("timestepping.bootstrap_ms", "ms"),
    ("diagnostics.modified_energy_ms", "ms"),
    ("diagnostics.energy_eps_ms", "ms"),
    ("diagnostics.share", "ratio"),
    ("diagnostics.error_norms_ms", "ms"),
    ("harness.runs", "count"),
    ("harness.runs_blown_up", "count"),
    ("harness.steps_total", "count"),
    ("harness.unstable_step_share", "ratio"),
    ("harness.prepare_ms", "ms"),
    ("cli.write_ms", "ms"),
    ("cli.bytes_written", "B"),
    ("trace.overhead_share", "ratio"),
)


def _parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=NAMES + ("all",), default="all")
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--seconds", type=float, default=DEFAULT_SECONDS)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--probe", action="store_true",
                   help="internal: set the workload up, print 'ready' and exit")
    return p


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    for var in THREAD_VARS:  # before numpy is imported, here and in children
        os.environ[var] = "1"
    if not (SRC / "chillwave" / "__init__.py").is_file():
        print(f"perfbench: no chillwave package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.workload == "all":
        return _run_all(args)
    OUT.mkdir(exist_ok=True)
    if args.probe:
        import workloads

        workloads.WORKLOADS[args.workload].setup(args.seed, str(OUT))
        print("ready", flush=True)
        return 0
    return _run_workload(args)


# ---------------------------------------------------------------------------
# environment


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _commit() -> str | None:
    """HEAD of the checkout's git metadata, if it has any."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _environment() -> dict:
    import chillwave
    import numpy
    import scipy

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "chillwave": chillwave.__version__,
        "chillwave_path": str(Path(chillwave.__file__).parent.relative_to(ROOT)),
        "commit": _commit(),
        "threads": {var: os.environ[var] for var in THREAD_VARS},
    }


# ---------------------------------------------------------------------------
# one workload


def _time_setup(name: str, seed: int) -> float:
    """Seconds from starting a fresh interpreter to its ready step operator."""
    cmd = [sys.executable, str(HERE / "run.py"), "--probe", "--workload", name,
           "--seed", str(seed)]
    start = time.perf_counter()
    with subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True) as proc:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - start
        proc.stdout.read()
        code = proc.wait()
    if code != 0 or line.strip() != "ready":
        raise RuntimeError(f"set-up probe for {name} failed (exit code {code})")
    return elapsed


class Tally:
    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.fingerprint: dict = {}


def _rep(wl, ctx, tally: Tally, tracer=None):
    """One repetition: (wall seconds, outcome), or None if it raised."""
    gc.collect()
    if tracer is not None:
        tracer.install()
    try:
        start = time.perf_counter()
        out = wl.run(ctx)
        wall = time.perf_counter() - start
        if tracer is not None:
            tracer.uninstall()
        outcome = wl.check(ctx, out)
    except Exception:  # a failed repetition fails all its operations
        traceback.print_exc()
        tally.attempted += wl.attempts
        tally.failed += wl.attempts
        return None
    finally:
        if tracer is not None:
            tracer.uninstall()
    tally.attempted += outcome.attempted
    tally.failed += outcome.failed
    tally.fingerprint = outcome.fingerprint
    return wall, outcome


def _repetitions(wl, seconds: float, traced: bool) -> int:
    """The fixed number of timed repetitions of a run: --seconds over the
    workload's nominal repetition time, so it never depends on how fast
    the code under test is. A traced run makes pairs (untraced, traced)."""
    reps = max(MIN_REPS, round(seconds / wl.rep_s))
    return max(2, reps // 2) if traced else reps


def _run_workload(args) -> int:
    import tracer as tracing
    import workloads

    name, seed = args.workload, args.seed
    wl = workloads.WORKLOADS[name]
    tracer = tracing.Tracer() if args.trace else None
    if tracer is not None:
        tracer.install()
    try:
        ctx = wl.setup(seed, str(OUT))
    finally:
        if tracer is not None:
            tracer.uninstall()
    setup_spans = tracer.take() if tracer is not None else []

    reps = _repetitions(wl, args.seconds, tracer is not None)
    probes = 0 if tracer is not None else SETUP_RUNS
    tally = Tally()
    setups, walls, traced_walls, layer_rows, last_spans = [], [], [], [], []
    for i in range(reps):
        while len(setups) * reps < probes * i:  # set-up probes spread over the run
            setups.append(_time_setup(name, seed))
        rep = _rep(wl, ctx, tally)
        if rep is None:
            break
        walls.append(rep[0])
        if tracer is None:
            continue
        rep = _rep(wl, ctx, tally, tracer)
        spans = tracer.take()
        if rep is None:
            break
        wall, outcome = rep
        traced_walls.append(wall)
        last_spans = spans
        layer_rows.append({**tracing.rep_metrics(spans, wall), **outcome.layer})
    complete = len(walls) == reps and (tracer is None or len(traced_walls) == reps)
    if complete and tracer is None:
        while len(setups) < probes:
            setups.append(_time_setup(name, seed))

    record = {"workload": name, "seed": seed, "seconds": args.seconds, "trace": args.trace,
              "environment": _environment(), "walls": walls}
    metrics = {}
    if not complete:
        print(f"perfbench: {name} raised in a repetition", file=sys.stderr)
    elif tracer is None:
        metrics = {
            "wall_s": (statistics.median(walls), "s"),
            "setup_s": (statistics.median(setups), "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MiB"),
        }
        record.update(setups=setups, wall_min=min(walls))
    else:
        values = tracing.setup_metrics(setup_spans)
        for metric, _ in PER_LAYER:
            if metric not in values:
                values[metric] = statistics.median(row.get(metric, 0) for row in layer_rows)
        values["trace.overhead_share"] = (
            statistics.median(traced_walls) / statistics.median(walls) - 1.0
        )
        metrics = {metric: (values[metric], unit) for metric, unit in PER_LAYER}
        record.update(traced_walls=traced_walls, layer_rows=layer_rows)
        _write_spans(OUT / f"spans-{name}.csv", {"setup": setup_spans, "last": last_spans})

    result = {
        "correct": complete and tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    record.update(result, fingerprint=tally.fingerprint)
    with open(OUT / f"{name}-seed{seed}-trace{args.trace}.json", "w") as fh:
        json.dump(record, fh, indent=1)

    print("env " + json.dumps(record["environment"]))
    print(f"workload {name}  seed {seed}  repetitions {len(walls)}"
          + (f" (+{len(traced_walls)} traced)" if tracer is not None else ""))
    for metric, (value, unit) in metrics.items():
        print(f"  {metric:34s} {value:.6g} {unit}")
    print(f"  {'error_rate':34s} {tally.failed / max(tally.attempted, 1):.6g}"
          f" ({tally.failed} failed / {tally.attempted} attempted)")
    print("fingerprint " + json.dumps(tally.fingerprint))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


def _write_spans(path: Path, groups: dict[str, list]) -> None:
    """Spans of the set-up and of the last traced repetition, times in
    seconds from the group's first span; parent is an index in the group."""
    with open(path, "w") as fh:
        fh.write("group,index,name,start_s,end_s,parent\n")
        for group, spans in groups.items():
            t0 = spans[0][1] if spans else 0.0
            for i, (name, start, end, parent, _) in enumerate(spans):
                fh.write(f"{group},{i},{name},{start - t0:.9f},{end - t0:.9f},{parent}\n")


# ---------------------------------------------------------------------------
# every workload


def _run_all(args) -> int:
    """Each workload in its own process, one after the other, then a table."""
    results = {}
    for name in NAMES:
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
        sys.stdout.write(proc.stdout)
        lines = proc.stdout.strip().splitlines()
        results[name] = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None
    if args.trace == 0:
        print(f"\n{'workload':12s} {'wall_s':>10s} {'setup_s':>9s} {'peak_rss_mb':>12s} "
              f"{'error_rate':>10s}")
        for name, res in results.items():
            if res is None or not res["metrics"]:
                print(f"{name:12s} {'did not finish':>44s}")
                continue
            m = res["metrics"]
            print(f"{name:12s} {m['wall_s']['value']:10.4f} {m['setup_s']['value']:9.4f} "
                  f"{m['peak_rss_mb']['value']:12.1f} {res['failed'] / res['attempted']:10.3g}")
    return 0 if all(r is not None and r["correct"] for r in results.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
