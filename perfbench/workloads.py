"""The four benchmark workloads: set-up, one timed repetition, output check.

Each workload is the paper experiment named in README.md. `setup` goes
from an imported package to a ready step operator; `run` is the timed
part and returns the workload's result; `check` judges that result and
returns an Outcome with the operations attempted and failed, the
fingerprint to diff between commits, and any per-layer numbers
read from the outputs. `rep_s`, a constant per workload, sets how many
repetitions a run of --seconds makes. All chillwave calls go through module attributes
so that the tracer's wrappers see them.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import shutil
import tempfile
from dataclasses import dataclass, field
from types import SimpleNamespace

import numpy as np

from chillwave import cli, diagnostics, field2d, harness, potential, spectral1d, timestepping

L = potential.lipschitz_bound(potential.PotentialSpec())
RESIDUAL_TOL = 1e-10  # block-residual contract (criterion 8)
DRIFT_TOL = 1e-11  # volume conservation (criterion 1)
ORDER_RANGE = (1.7, 2.2)  # observed temporal orders (criterion 4, seed 42)
# Other seeds: 60 surveyed seeds gave orders from 1.96 to 2.31, the high
# ones at the coarsest halvings, so the window keeps the floor that catches
# a lost order and widens only the ceiling.
ORDER_RANGE_ANY_SEED = (1.7, 2.5)


@dataclass
class Outcome:
    attempted: int
    failed: int
    fingerprint: dict
    layer: dict = field(default_factory=dict)


def _ready(cfg: harness.RunConfig, tau: float | None = None) -> SimpleNamespace:
    """Basis, modal decomposition, initial field and step operator."""
    basis = spectral1d.assemble_basis(cfg.M)
    field2d.modal_decomposition(basis)
    phi = harness.initial_field(cfg, basis)
    params = timestepping.SchemeParams(
        scheme=cfg.scheme, tau=tau or cfg.tau, gamma=cfg.gamma, eps=cfg.eps, A=cfg.A, B=cfg.B
    )
    op = timestepping.build_step_operator(params, basis)
    return SimpleNamespace(cfg=cfg, basis=basis, phi=phi, op=op)


def _drift(means, phi0) -> float:
    return float(np.max(np.abs(np.asarray(means) - field2d.mean_value(phi0))))


# ---------------------------------------------------------------------------
# trace_m48: the paper's dissipation trace


class TraceM48:
    attempts = 1  # one simulation
    rep_s = 1.4  # nominal seconds of one repetition

    @staticmethod
    def setup(seed: int, workdir: str) -> SimpleNamespace:
        A, B = timestepping.sufficient_stabilizers("SL_BDF2", 0.05, 0.0025, 0.01, L)
        cfg = harness.RunConfig(M=48, eps=0.05, gamma=0.0025, tau=0.01, T=10.24,
                                scheme="SL_BDF2", A=A, B=B, seed=seed)
        return _ready(cfg)

    @staticmethod
    def run(ctx):
        return harness.run_simulation(ctx.cfg, phi_init=ctx.phi, basis=ctx.basis)

    @staticmethod
    def check(ctx, out) -> Outcome:
        trace, final, _ = out
        verdict = diagnostics.stability_verdict(trace)
        drift = _drift(trace.column("mean"), ctx.phi)
        ok = (verdict == "stable" and trace.max_residual <= RESIDUAL_TOL
              and drift <= DRIFT_TOL)
        return Outcome(1, 0 if ok else 1, {
            "verdict": verdict,
            "final_E_eps": trace.rows[-1].E_eps,
            "max_abs_coeff": float(np.max(np.abs(final.coeffs))),
            "max_residual": trace.max_residual,
            "mean_drift": drift,
        })


# ---------------------------------------------------------------------------
# cli_m128: a large-M run written through the command line


class CliM128:
    attempts = 1  # one simulation
    rep_s = 3.0  # nominal seconds of one repetition
    steps = 128

    @staticmethod
    def setup(seed: int, workdir: str) -> SimpleNamespace:
        A, B = timestepping.sufficient_stabilizers("SL_CN", 0.05, 0.0025, 0.01, L)
        raw = dict(M=128, eps=0.05, gamma=0.0025, tau=0.01, T=0.01 * CliM128.steps,
                   scheme="SL_CN", A=A, B=B, seed=seed, snapshot_every=16)
        ctx = _ready(harness.run_config_from_dict(raw))
        ctx.raw, ctx.workdir = raw, workdir
        return ctx

    @staticmethod
    def run(ctx):
        out = tempfile.mkdtemp(prefix="cli_m128-", dir=ctx.workdir)
        config = os.path.join(out, "config.json")
        with open(config, "w") as fh:
            json.dump(ctx.raw, fh)
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                code = cli.main(["run", "--config", config, "--out-dir", os.path.join(out, "run")])
        except BaseException:
            shutil.rmtree(out)
            raise
        return code, out

    @staticmethod
    def check(ctx, out) -> Outcome:
        code, root = out
        run_dir = os.path.join(root, "run")
        try:
            with open(os.path.join(run_dir, "summary.json")) as fh:
                summary = json.load(fh)
            trace = diagnostics.EnergyTrace.read_csv(os.path.join(run_dir, "trace.csv"))
            final, _ = field2d.read_snapshot(os.path.join(run_dir, "final_field.csv"), ctx.basis)
            written = sum(e.stat().st_size for e in os.scandir(run_dir))
        finally:
            shutil.rmtree(root)
        verdict = diagnostics.stability_verdict(trace, min_steps=CliM128.steps)
        drift = _drift(trace.column("mean"), ctx.phi)
        ok = (code == 0 and verdict == "stable" and len(trace) == CliM128.steps
              and summary["max_residual"] <= RESIDUAL_TOL and drift <= DRIFT_TOL)
        return Outcome(1, 0 if ok else 1, {
            "verdict": verdict,
            "final_E_eps": summary["final_E_eps"],
            "max_abs_coeff": float(np.max(np.abs(final.coeffs))),
            "max_residual": summary["max_residual"],
            "mean_drift": drift,
        }, {"cli.bytes_written": written})


# ---------------------------------------------------------------------------
# sweep_c9: the four criterion-9 minimum-stabilizer sweeps

# (scheme, gamma, tau, target, fixed value, ladder index of the minimum at
# seed 42: ladder values 0, 0, 200 and 12.5)
SWEEPS = (
    ("SL_BDF2", 0.0025, 0.01, "A", 0.0, 0),
    ("SL_CN", 1.0, 10.0, "B", 25.0, 0),
    ("SL_BDF2", 1.0, 0.1, "A", 0.0, 5),
    ("SL_BDF2", 1.0, 0.1, "A", 40.0, 1),
)


class SweepC9:
    attempts = len(SWEEPS)  # one per sweep cell
    rep_s = 6.5  # nominal seconds of one repetition

    @staticmethod
    def setup(seed: int, workdir: str) -> SimpleNamespace:
        sweeps = []
        for scheme, gamma, tau, target, fixed, _ in SWEEPS:
            base = harness.RunConfig(M=48, eps=0.05, gamma=gamma, tau=tau, T=1024 * tau,
                                     scheme=scheme, seed=seed)
            sweeps.append(harness.SweepConfig(base=base, target=target, gamma_list=[gamma],
                                              tau_list=[tau], fixed_value=fixed))
        ctx = _ready(sweeps[0].base)
        ctx.sweeps = sweeps
        return ctx

    @staticmethod
    def run(ctx):
        return [harness.sweep_min_stabilizer(sc) for sc in ctx.sweeps]

    @staticmethod
    def check(ctx, out) -> Outcome:
        cells, ladders = [], []
        for result in out:
            ((key, value),) = result.cells.items()
            cells.append(value)
            ladders.append(result.ladders[key])
        if ctx.cfg.seed == 42:
            failed = sum(
                value is None or value != ladder[spec[-1]]
                for value, ladder, spec in zip(cells, ladders, SWEEPS)
            )
        else:  # raising B must not raise the minimal A (None: ladder exhausted)
            b0, b40 = (math.inf if v is None else v for v in cells[2:])
            failed = int(b40 > b0)
        return Outcome(len(SWEEPS), failed, {"cells": cells})


# ---------------------------------------------------------------------------
# converge_c4: the criterion-4 SL_BDF2 temporal convergence study

TAUS = [0.04, 0.02, 0.01, 0.005]
TAU_REF = 6.25e-4


class ConvergeC4:
    attempts = len(TAUS) + 1  # one march per tau plus the reference
    rep_s = 4.5  # nominal seconds of one repetition

    @staticmethod
    def setup(seed: int, workdir: str) -> SimpleNamespace:
        cfg = harness.RunConfig(M=64, eps=0.08, gamma=0.0025, tau=TAUS[0], T=1.6,
                                scheme="SL_BDF2", A=0.25, B=40.0, seed=seed,
                                initial="prepared")
        return _ready(cfg, tau=TAU_REF)

    @staticmethod
    def run(ctx):
        return harness.convergence_study(ctx.cfg, TAUS, TAU_REF)

    @staticmethod
    def check(ctx, out) -> Outcome:
        lo, hi = ORDER_RANGE if ctx.cfg.seed == 42 else ORDER_RANGE_ANY_SEED
        orders = [[r.h_minus1_order, r.l2_order, r.h1_order] for r in out[1:]]
        # an order compares the march at tau with the one at 2 tau; a bad
        # order fails the march at tau (NaN fails the range test)
        failed = sum(not all(lo <= o <= hi for o in row) for row in orders)
        return Outcome(ConvergeC4.attempts, failed, {"orders": orders})


WORKLOADS = {
    "trace_m48": TraceM48,
    "cli_m128": CliM128,
    "sweep_c9": SweepC9,
    "converge_c4": ConvergeC4,
}
