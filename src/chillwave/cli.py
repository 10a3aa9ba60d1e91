"""Command-line interface.

Subcommands:
    run              single simulation -> trace.csv, snapshots, summary.json
    sweep            minimum-stabilizer tables -> sweep.csv, sweep_log.csv
    converge         temporal convergence table -> convergence.csv
    prepare-initial  emit phi0.csv / phi1.csv snapshot files

Configs are JSON objects whose keys match the config dataclass field names
(see README).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import sys
from dataclasses import asdict

import numpy as np

from . import __version__
from .errors import ChillwaveError
from .field2d import mean_value, write_snapshot
from .harness import (
    PREPARE_STEPS,
    convergence_study,
    prepare_params,
    prepare_phi1,
    random_nodal_field,
    run_config_from_dict,
    run_simulation,
    sweep_config_from_dict,
    sweep_min_stabilizer,
    write_convergence_csv,
)
from .spectral1d import assemble_basis


def _load_json(path: str) -> dict:
    with open(path) as fh:
        return json.load(fh)


def _ensure_dir(path: str) -> str:
    os.makedirs(path, exist_ok=True)
    return path


def _cmd_run(args) -> int:
    cfg = run_config_from_dict(_load_json(args.config))
    out = args.out_dir or "."
    last = None  # (n, path) of the last snapshot written

    def write(n, t, u):  # each snapshot goes to disk when the run reaches it
        nonlocal last
        path = os.path.join(_ensure_dir(out), f"snapshot_{n:06d}.csv")
        write_snapshot(u, path, eps=cfg.eps, gamma=cfg.gamma, t=t, step=n)
        last = n, path

    trace, final, _ = run_simulation(cfg, on_snapshot=write)
    trace.write_csv(os.path.join(_ensure_dir(out), "trace.csv"))
    rows = trace.rows
    ran = len(rows) > 0  # a blow-up in the bootstrap leaves no row
    final_path = os.path.join(out, "final_field.csv")
    if last and last[0] == rows["n"][-1]:
        shutil.copyfile(last[1], final_path)  # the last snapshot holds the final field
    else:
        write_snapshot(
            final, final_path, eps=cfg.eps, gamma=cfg.gamma,
            t=rows["t"][-1] if ran else 0.0, step=rows["n"][-1] if ran else 0,
        )
    coeffs = np.abs(final.coeffs)  # the tail: Legendre modes with max(k, j) >= M - 4
    summary = {
        "config": asdict(cfg),
        "steps_completed": len(trace),
        "blew_up": trace.blew_up,
        "blowup_step": trace.blowup_step,
        "stop_reason": trace.stop_reason,
        "stop_step": trace.blowup_step or len(trace),
        "versions": {
            "chillwave": __version__,
            "numpy": np.__version__,
            "python": platform.python_version(),
        },
        "max_residual": trace.max_residual,
        "final_E_eps": float(rows["E_eps"][-1]) if ran else None,
        "final_E_mod": float(rows["E_mod"][-1]) if ran else None,
        "max_dE_mod": float(rows["dE_mod"].max()) if ran else None,
        "mean_drift": float(np.abs(rows["mean"] - rows["mean"][0]).max()) if ran else None,
        "spectral_tail": float(max(coeffs[cfg.M - 4:].max(), coeffs[:, cfg.M - 4:].max())),
    }
    with open(os.path.join(out, "summary.json"), "w") as fh:
        json.dump(summary, fh, indent=2, sort_keys=True)
        fh.write("\n")
    status = f"blew up at step {trace.blowup_step}" if trace.blew_up else trace.stop_reason
    print(f"run {status}: {len(trace)} steps, outputs in {out}")
    return 0


def _cmd_sweep(args) -> int:
    sc = sweep_config_from_dict(_load_json(args.config))
    result = sweep_min_stabilizer(sc)
    out = _ensure_dir(args.out_dir or ".")
    path = os.path.join(out, "sweep.csv")
    result.write_csv(path)
    result.write_log_csv(os.path.join(out, "sweep_log.csv"))
    for note in result.anomalies:
        print("anomaly:", note, file=sys.stderr)
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


def _cmd_prepare_initial(args) -> int:
    phi0 = random_nodal_field(assemble_basis(args.M), args.seed)
    phi1 = prepare_phi1(phi0, args.eps)
    params = prepare_params(args.eps)
    out = _ensure_dir(args.out)
    write_snapshot(phi0, os.path.join(out, "phi0.csv"),
                   eps=args.eps, gamma=params.gamma, t=0.0, step=0)
    write_snapshot(phi1, os.path.join(out, "phi1.csv"),
                   eps=args.eps, gamma=params.gamma, t=params.tau, step=PREPARE_STEPS)
    print(
        f"wrote phi0.csv (mean {mean_value(phi0):+.3e}) and phi1.csv "
        f"(mean {mean_value(phi1):+.3e}) to {out}"
    )
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

    p_prep = sub.add_parser("prepare-initial", help="emit phi0/phi1 snapshots")
    p_prep.add_argument("--M", type=int, required=True)
    p_prep.add_argument("--eps", type=float, required=True)
    p_prep.add_argument("--seed", type=int, required=True)
    p_prep.add_argument("--out", required=True)
    p_prep.set_defaults(func=_cmd_prepare_initial)

    return parser


def main(argv=None) -> int:
    """Run one subcommand. Bad input (a config the package rejects, a
    missing key or file, a size whose arrays cannot be allocated) prints
    one `chillwave: error: ...` line on stderr and returns 2; a command
    makes its output directory only once its first output is due."""
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ChillwaveError, ValueError, KeyError, OSError, MemoryError) as exc:
        print(f"chillwave: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
