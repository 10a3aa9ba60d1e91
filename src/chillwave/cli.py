"""Command-line interface.

Subcommands:
    run       single simulation -> trace.csv, snapshots, final_field.csv, summary.json
    sweep     minimum-stabilizer tables -> sweep.csv, sweep_log.csv
    converge  temporal convergence table -> convergence.csv

Configs are JSON objects whose keys match the config dataclass field names
(see README). `run` writes snapshots only through run_simulation's on_snapshot.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import sys
from dataclasses import asdict

import numpy as np

from . import __version__
from ._snapshots import SnapshotWriter
from .errors import ChillwaveError
from .field2d import write_snapshot
from .harness import (
    convergence_study,
    run_config_from_dict,
    run_simulation,
    sweep_config_from_dict,
    sweep_min_stabilizer,
    write_convergence_csv,
)


def _load_json(path: str) -> dict:
    with open(path) as fh:
        return json.load(fh)


def _ensure_dir(path: str) -> str:
    os.makedirs(path, exist_ok=True)
    return path


def _cmd_run(args) -> int:
    cfg = run_config_from_dict(_load_json(args.config))
    out = args.out_dir or "."

    # the writer starts up while the basis is assembled and writes its last
    # file while final_field.csv is formatted; the with waits for every file
    with (SnapshotWriter(out, cfg.M, cfg.eps, cfg.gamma) if cfg.snapshot_every > 0
          else contextlib.nullcontext()) as writer:
        trace, final, _ = run_simulation(cfg, on_snapshot=writer and writer.send)
        write_snapshot(final, os.path.join(_ensure_dir(out), "final_field.csv"), eps=cfg.eps,
                       gamma=cfg.gamma, t=len(trace) * cfg.tau, step=len(trace))
        trace.write_csv(os.path.join(out, "trace.csv"))
    rows = trace.rows
    ran = len(rows) > 0  # a blow-up in the bootstrap leaves no row
    coeffs = np.abs(final.coeffs)  # the tail: Legendre modes with max(k, j) >= M - 4
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    summary = {
        "config": asdict(cfg),
        "steps_completed": len(trace),
        "stop_reason": trace.stop_reason,
        "stop_step": len(trace) + 1 if trace.blew_up else len(trace),
        "versions": {
            "chillwave": __version__,
            "numpy": np.__version__,
            "python": platform.python_version(),
            "blas": {key: blas.get(key) for key in ("name", "version")},
            "threads": {var: os.environ.get(var) for var in (  # None if unset
                "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")},
        },
        "max_residual": trace.max_residual,
        "final_E_eps": float(rows["E_eps"][-1]) if ran else None,
        "final_E_mod": float(rows["E_mod"][-1]) if ran else None,
        "max_dE_mod": trace.max_dE_mod if len(rows) >= 2 else None,
        "mean_drift": float(np.abs(rows["mean"] - rows["mean"][0]).max()) if ran else None,
        "spectral_tail": float(max(coeffs[cfg.M - 4:].max(), coeffs[:, cfg.M - 4:].max())),
    }
    with open(os.path.join(out, "summary.json"), "w") as fh:
        json.dump(summary, fh, indent=2, sort_keys=True)
        fh.write("\n")
    status = f"blew up at step {summary['stop_step']}" if trace.blew_up else trace.stop_reason
    print(f"run {status}: {len(trace)} steps, outputs in {out}")
    return 0


def _cmd_sweep(args) -> int:
    sc = sweep_config_from_dict(_load_json(args.config))
    result = sweep_min_stabilizer(sc)
    out = _ensure_dir(args.out_dir or ".")
    path = os.path.join(out, "sweep.csv")
    result.write_csv(path)
    result.write_log_csv(os.path.join(out, "sweep_log.csv"))
    print(f"sweep of min {sc.target} ({len(result.cells)} cells) written to {path}")
    return 0


def _cmd_converge(args) -> int:
    raw = _load_json(args.config)  # the reference run's config plus tau_list
    tau_list = raw.pop("tau_list", None) if isinstance(raw, dict) else None
    cfg = run_config_from_dict(raw)
    if tau_list is None:
        raise ValueError("converge config needs tau_list")
    rows = convergence_study(cfg, tau_list, cfg.tau)
    out = _ensure_dir(args.out_dir or ".")
    path = os.path.join(out, "convergence.csv")
    write_convergence_csv(rows, path)
    for r in rows:
        print(f"tau={r.tau:g}  H-1 {r.h_minus1_err:.3e} ({r.h_minus1_order:.2f})  "
              f"L2 {r.l2_err:.3e} ({r.l2_order:.2f})  H1 {r.h1_err:.3e} ({r.h1_order:.2f})")
    print(f"convergence table written to {path}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="chillwave",
        description="Energy-stable Cahn-Hilliard solver and experiment harness",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    for name, func, help_text in (
        ("run", _cmd_run, "single simulation from a JSON config"),
        ("sweep", _cmd_sweep, "minimum-stabilizer sweep"),
        ("converge", _cmd_converge, "temporal convergence study"),
    ):
        p_cfg = sub.add_parser(name, help=help_text)
        p_cfg.add_argument("--config", required=True)
        p_cfg.add_argument("--out-dir", default=None)
        p_cfg.set_defaults(func=func)

    return parser


def main(argv=None) -> int:
    """Run one subcommand. Bad input (a config the package rejects, a
    missing key or file, a size whose arrays cannot be allocated) prints
    one `chillwave: error: ...` line on stderr and returns 2; a command
    makes its output directory only once its first output is due."""
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ChillwaveError, ValueError, OSError, MemoryError) as exc:
        print(f"chillwave: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
