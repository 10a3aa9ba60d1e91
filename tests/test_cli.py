import argparse
import json
import os
import platform
import re
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

import chillwave as cw
from chillwave import (
    Field, __version__, assemble_basis, cli, read_snapshot, run_simulation,
    write_snapshot,
)
from chillwave import _snapshots
from chillwave.cli import build_parser, main
from chillwave.diagnostics import TRACE_HEADER
from chillwave.errors import NonFinite, SolveFailed
from chillwave.harness import initial_field, run_config_from_dict
from conftest import Snapshots


def write_json(path, obj):
    path.write_text(json.dumps(obj))


RUN_CFG = dict(M=8, eps=0.25, gamma=1.0, tau=0.1, T=0.5, scheme="SL_CN",
               A=0.25, B=8.0, seed=6)
# an SL_BDF2 run without stabilizers that blows up at step 8
BLOW_UP_CFG = dict(M=16, eps=0.05, gamma=0.0025, tau=1.0, T=100.0, scheme="SL_BDF2", seed=1)


def test_parser_subcommands():
    # the parser, README's command sections and cli's docstring name the
    # same commands, so a section left behind by a deleted command fails
    parser = build_parser()
    commands = ("run", "sweep", "converge")
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    assert tuple(sub.choices) == commands
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    assert tuple(re.findall(r"^### `chillwave (\S+)", readme, re.M)) == commands
    listed = cli.__doc__.split("Subcommands:\n")[1].split("\n\n")[0].splitlines()
    assert tuple(line.split()[0] for line in listed) == commands
    args = parser.parse_args(["run", "--config", "x.json", "--out-dir", "d"])
    assert args.config == "x.json" and args.out_dir == "d"
    for argv in (["frobnicate"],
                 ["prepare-initial", "--M", "8", "--eps", "0.25", "--seed", "7", "--out", "d"]):
        with pytest.raises(SystemExit):
            parser.parse_args(argv)


def test_run_outputs(tmp_path, capsys):
    cfg_path = tmp_path / "run.json"
    write_json(cfg_path, dict(RUN_CFG, snapshot_every=2))
    out = tmp_path / "out"
    assert main(["run", "--config", str(cfg_path), "--out-dir", str(out)]) == 0
    assert (out / "trace.csv").exists()
    assert (out / "final_field.csv").exists()
    assert sorted(p.name for p in out.glob("snapshot_*.csv")) == [
        "snapshot_000002.csv",
        "snapshot_000004.csv",
        "snapshot_000005.csv",
    ]
    summary = json.loads((out / "summary.json").read_text())
    assert summary["steps_completed"] == 5
    assert summary["max_residual"] <= 1e-10
    assert summary["mean_drift"] <= 1e-11
    assert summary["config"]["M"] == 8
    assert (summary["stop_reason"], summary["stop_step"]) == ("completed", 5)
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    assert summary["versions"] == {
        "chillwave": __version__, "numpy": np.__version__,
        "python": platform.python_version(),
        "blas": {"name": blas["name"], "version": blas["version"]},
        "threads": {var: os.environ.get(var)
                    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")},
    }
    assert "completed" in capsys.readouterr().out


def test_run_summary_names_its_blas_and_threads(tmp_path, monkeypatch):
    # the thread variables as the run saw them, null when unset, and the
    # BLAS numpy was built with
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "2")
    monkeypatch.delenv("MKL_NUM_THREADS", raising=False)
    write_json(tmp_path / "run.json", RUN_CFG)
    assert main(["run", "--config", str(tmp_path / "run.json"), "--out-dir", str(tmp_path)]) == 0
    versions = json.loads((tmp_path / "summary.json").read_text())["versions"]
    assert versions["threads"]["OPENBLAS_NUM_THREADS"] == "2"
    assert versions["threads"]["MKL_NUM_THREADS"] is None
    assert set(versions["blas"]) == {"name", "version"}
    assert all(isinstance(value, str) and value for value in versions["blas"].values())


def test_run_summary_max_dE_mod_is_measured(tmp_path):
    # on trace_m48's config the rows n >= 2 peak at -2.79e-3; row 1, the
    # bootstrap step, carries dE_mod = 0 by convention and is left out
    A, B = cw.sufficient_stabilizers("SL_BDF2", 0.05, 0.0025, 0.01, 11.0)
    write_json(tmp_path / "run.json", dict(M=48, eps=0.05, gamma=0.0025, tau=0.01, T=10.24,
                                           scheme="SL_BDF2", A=A, B=B, seed=42))
    assert main(["run", "--config", str(tmp_path / "run.json"), "--out-dir", str(tmp_path)]) == 0
    summary = json.loads((tmp_path / "summary.json").read_text())
    assert summary["max_dE_mod"] == pytest.approx(-2.7894457649e-3, rel=1e-9)


def test_run_summary_spectral_tail(tmp_path):
    # the largest |Legendre coefficient| of the final field among the modes
    # with max(k, j) >= M - 4, against the read-back final_field.csv
    cfg_path = tmp_path / "run.json"
    write_json(cfg_path, dict(RUN_CFG, M=12))
    out = tmp_path / "out"
    assert main(["run", "--config", str(cfg_path), "--out-dir", str(out)]) == 0
    tail = json.loads((out / "summary.json").read_text())["spectral_tail"]
    coeffs = np.abs(read_snapshot(out / "final_field.csv")[0].coeffs)
    k = np.arange(12)
    want = coeffs[np.maximum.outer(k, k) >= 8].max()
    assert tail == pytest.approx(want, rel=1e-9, abs=1e-15)
    assert 0.0 < tail < coeffs.max()


def test_run_summary_records_blow_up(tmp_path, capsys):
    # the status line and summary.json name one stop step: the step after
    # the last completed one
    cfg_path = tmp_path / "run.json"
    write_json(cfg_path, BLOW_UP_CFG)
    out = tmp_path / "out"
    assert main(["run", "--config", str(cfg_path), "--out-dir", str(out)]) == 0
    assert capsys.readouterr().out == f"run blew up at step 8: 7 steps, outputs in {out}\n"
    summary = json.loads((out / "summary.json").read_text())
    assert summary["stop_reason"] == "blow_up"
    assert summary["stop_step"] == summary["steps_completed"] + 1 == 8
    # stop_reason and stop_step are the summary's one record of the stop
    assert not {"blew_up", "blowup_step"} & set(summary)
    assert set(summary["versions"]) == {"chillwave", "numpy", "python", "blas", "threads"}


def final_field_bytes(tmp_path, cfg):
    # final_field.csv as write_snapshot formats the run's final field
    trace, final, _ = run_simulation(run_config_from_dict(cfg), on_snapshot=Snapshots())
    ref = tmp_path / "ref.csv"
    write_snapshot(final, ref, eps=cfg["eps"], gamma=cfg["gamma"],
                   t=trace.rows["t"][-1], step=trace.rows["n"][-1])
    return ref.read_bytes()


def test_run_final_field_equals_the_last_snapshot(tmp_path, monkeypatch):
    # the last snapshot holds the final step: final_field.csv, formatted
    # from the final field, has its bytes, and the writer is handed the
    # snapshots alone
    cfg = dict(RUN_CFG, snapshot_every=2)
    write_json(tmp_path / "run.json", cfg)
    sent = []
    send = _snapshots.SnapshotWriter.send
    monkeypatch.setattr(_snapshots.SnapshotWriter, "send", lambda self, n, t, u: (
        sent.append(n), send(self, n, t, u)))
    out = tmp_path / "out"
    assert main(["run", "--config", str(tmp_path / "run.json"), "--out-dir", str(out)]) == 0
    assert sent == [2, 4, 5]
    final = (out / "final_field.csv").read_bytes()
    assert final == (out / "snapshot_000005.csv").read_bytes()
    assert final == final_field_bytes(tmp_path, cfg)


def test_run_final_field_formatted_after_a_blow_up(tmp_path):
    # the run blows up at step 8: its last good step, 7, is no snapshot
    # step (2, 4, 6), so final_field.csv formats the final field itself
    cfg = dict(BLOW_UP_CFG, snapshot_every=2)
    write_json(tmp_path / "run.json", cfg)
    out = tmp_path / "out"
    assert main(["run", "--config", str(tmp_path / "run.json"), "--out-dir", str(out)]) == 0
    assert json.loads((out / "summary.json").read_text())["stop_step"] == 8
    assert sorted(p.name for p in out.glob("snapshot_*.csv")) == [
        "snapshot_000002.csv", "snapshot_000004.csv", "snapshot_000006.csv"]
    assert read_snapshot(out / "final_field.csv")[1]["step"] == 7
    assert (out / "final_field.csv").read_bytes() == final_field_bytes(tmp_path, cfg)


def snapshot_bytes(tmp_path, cfg):
    # {file name: bytes} of each snapshot write_snapshot formats for the run
    snapshots = Snapshots()
    run_simulation(run_config_from_dict(cfg), on_snapshot=snapshots)
    want = {}
    for n, t, u in snapshots:
        ref = tmp_path / "ref.csv"
        write_snapshot(u, ref, eps=cfg["eps"], gamma=cfg["gamma"], t=t, step=n)
        want[f"snapshot_{n:06d}.csv"] = ref.read_bytes()
    return want


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.parametrize("cfg", [
    pytest.param(dict(RUN_CFG, snapshot_every=1), id="completed"),
    pytest.param(dict(BLOW_UP_CFG, snapshot_every=2), id="blow_up"),
    # eps and gamma reach the writer as arguments: an integer eps is
    # written as the float it is, and gamma's last digit survives
    pytest.param(dict(RUN_CFG, eps=1, gamma=0.30000000000000004, snapshot_every=1),
                 id="header_values"),
])
def test_run_snapshots_are_write_snapshot_bytes(tmp_path, cfg):
    # the writer process writes each snapshot byte for byte as
    # write_snapshot formats the same step's field
    write_json(tmp_path / "run.json", cfg)
    out = tmp_path / "out"
    assert main(["run", "--config", str(tmp_path / "run.json"), "--out-dir", str(out)]) == 0
    got = {p.name: p.read_bytes() for p in out.glob("snapshot_*.csv")}
    assert got == snapshot_bytes(tmp_path, cfg)
    assert_no_child_left()


def test_run_out_dir_name_round_trips(tmp_path):
    # the directory reaches the writer as an argument, whatever characters it holds
    cfg = dict(RUN_CFG, snapshot_every=2)
    write_json(tmp_path / "run.json", cfg)
    out = tmp_path / "out \t\n\u00e9"
    assert main(["run", "--config", str(tmp_path / "run.json"), "--out-dir", str(out)]) == 0
    got = {p.name: p.read_bytes() for p in out.glob("snapshot_*.csv")}
    assert got == snapshot_bytes(tmp_path, cfg)
    assert (out / "final_field.csv").read_bytes() == (out / "snapshot_000005.csv").read_bytes()


def test_run_bootstrap_blow_up_leaves_no_snapshot(tmp_path, capsys, monkeypatch):
    # a blow-up in the bootstrap leaves no trace row and reaches no
    # snapshot step: final_field.csv is phi0 at step 0
    import chillwave.harness as harness

    def blows_up(*args):
        raise NonFinite("bootstrap blew up")

    monkeypatch.setattr(harness, "bootstrap_first_step", blows_up)
    cfg = dict(RUN_CFG, snapshot_every=2)
    write_json(tmp_path / "run.json", cfg)
    out = tmp_path / "out"
    assert main(["run", "--config", str(tmp_path / "run.json"), "--out-dir", str(out)]) == 0
    assert list(out.glob("snapshot_*.csv")) == []
    assert (out / "trace.csv").read_text() == TRACE_HEADER + "\n"
    phi0 = initial_field(run_config_from_dict(cfg))
    write_snapshot(phi0, tmp_path / "ref.csv", eps=cfg["eps"], gamma=cfg["gamma"], t=0.0, step=0)
    assert (out / "final_field.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()
    summary = json.loads((out / "summary.json").read_text())
    assert (summary["stop_step"], summary["final_E_eps"]) == (1, None)
    assert "blew up at step 1" in capsys.readouterr().out
    assert_no_child_left()


def test_run_names_a_snapshot_the_writer_cannot_write(tmp_path, capsys):
    # summary.json is written once every snapshot file is on disk, so it is
    # missing; trace.csv and final_field.csv are written. In two steps, step
    # 2 is the only snapshot, so the run has sent every record before the
    # writer fails (a later send to a writer that has stopped is the next test)
    write_json(tmp_path / "run.json", dict(RUN_CFG, T=0.2, snapshot_every=2))
    out = tmp_path / "out"
    (out / "snapshot_000002.csv").mkdir(parents=True)
    rc = main(["run", "--config", str(tmp_path / "run.json"), "--out-dir", str(out)])
    assert_one_line_error(capsys, rc, str(out / "snapshot_000002.csv"))
    assert (out / "trace.csv").exists() and (out / "final_field.csv").exists()
    assert not (out / "summary.json").exists()
    assert_no_child_left()


def test_run_names_the_snapshot_of_a_writer_that_stopped(tmp_path, capsys, monkeypatch):
    # the writer stops on step 1's file; step 2 then meets a closed pipe,
    # and the run reports the writer's own message, not the broken pipe
    send = _snapshots.SnapshotWriter.send

    def send_after_the_writer_stopped(self, n, t, u):
        if n == 2:
            self._proc.wait()
        send(self, n, t, u)

    monkeypatch.setattr(_snapshots.SnapshotWriter, "send", send_after_the_writer_stopped)
    write_json(tmp_path / "run.json", dict(RUN_CFG, snapshot_every=1))
    out = tmp_path / "out"
    (out / "snapshot_000001.csv").mkdir(parents=True)
    rc = main(["run", "--config", str(tmp_path / "run.json"), "--out-dir", str(out)])
    assert_one_line_error(capsys, rc, str(out / "snapshot_000001.csv"))
    assert not (out / "trace.csv").exists()
    assert_no_child_left()


@pytest.mark.parametrize("snapshot_every", [0, 2])
def test_run_out_dir_that_is_a_file_is_an_error(tmp_path, capsys, snapshot_every):
    write_json(tmp_path / "run.json", dict(RUN_CFG, snapshot_every=snapshot_every))
    out = tmp_path / "out"
    out.write_text("not a directory\n")
    rc = main(["run", "--config", str(tmp_path / "run.json"), "--out-dir", str(out)])
    assert_one_line_error(capsys, rc, str(out))
    assert out.read_text() == "not a directory\n"
    assert_no_child_left()


def test_run_failing_after_a_snapshot_leaves_it_complete(tmp_path, capsys, monkeypatch):
    # the run's own error is reported, and the writer finishes the
    # snapshot it was handed before the command returns
    def failing_run(cfg, on_snapshot):
        def first_then_fail(n, t, u):
            on_snapshot(n, t, u)
            raise SolveFailed("residual 1 > tol")
        return run_simulation(cfg, on_snapshot=first_then_fail)

    cfg = dict(RUN_CFG, M=32, snapshot_every=2)
    write_json(tmp_path / "run.json", cfg)
    monkeypatch.setattr(cli, "run_simulation", failing_run)
    out = tmp_path / "out"
    rc = main(["run", "--config", str(tmp_path / "run.json"), "--out-dir", str(out)])
    assert_one_line_error(capsys, rc, "residual 1 > tol")
    assert [p.name for p in out.iterdir()] == ["snapshot_000002.csv"]
    want = snapshot_bytes(tmp_path, cfg)["snapshot_000002.csv"]
    assert (out / "snapshot_000002.csv").read_bytes() == want
    assert_no_child_left()


def test_writer_process_runs_without_numpy(tmp_path):
    # cli starts the writer as `python -I -S <file> <directory> <M> <eps>
    # <gamma>`: fed one step, it writes write_snapshot's bytes, and loading
    # the file imports no numpy (with numpy, its start-up would no longer
    # overlap basis assembly)
    u = Field(assemble_basis(4), np.random.default_rng(3).standard_normal((4, 4)))
    record = _snapshots.STEP.pack(0.3, 7) + _snapshots.snapshot_grid(u).tobytes()
    done = subprocess.run(
        [sys.executable, "-I", "-S", _snapshots.__file__, str(tmp_path), "4", "0.05", "0.0025"],
        input=record, capture_output=True, timeout=60)
    assert (done.returncode, done.stdout, done.stderr) == (0, b"", b"")
    write_snapshot(u, tmp_path / "ref.csv", eps=0.05, gamma=0.0025, t=0.3, step=7)
    assert (tmp_path / "snapshot_000007.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()
    probe = ("import runpy, sys; runpy.run_path(sys.argv[1]); "
             "print('numpy' in sys.modules, 'chillwave' in sys.modules)")
    done = subprocess.run([sys.executable, "-I", "-S", "-c", probe, _snapshots.__file__],
                          capture_output=True, text=True, timeout=60)
    assert (done.returncode, done.stdout, done.stderr) == (0, "False False\n", "")


def test_run_snapshot_memory_does_not_grow_with_the_step_count(tmp_path, capsys):
    # with snapshot_every 1 every step is a snapshot; each is written when
    # the run reaches it and none is kept, so a 256-step run peaks about
    # where a 64-step run does (kept, 192 more M = 16 snapshots add 384 KiB)
    def traced_peak(steps):
        cfg_path = tmp_path / f"run{steps}.json"
        write_json(cfg_path, dict(RUN_CFG, M=16, tau=0.01, T=steps * 0.01, snapshot_every=1))
        out = tmp_path / f"out{steps}"
        tracemalloc.start()
        try:
            assert main(["run", "--config", str(cfg_path), "--out-dir", str(out)]) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        summary = json.loads((out / "summary.json").read_text())
        assert (summary["stop_reason"], summary["steps_completed"]) == ("completed", steps)
        assert len(list(out.glob("snapshot_*.csv"))) == steps
        return peak

    traced_peak(32)  # the first run in a process also traces one-off caches
    short, long = traced_peak(64), traced_peak(256)
    assert long - short < 64 * 1024, (short, long)


def test_run_deterministic_outputs(tmp_path):
    cfg_path = tmp_path / "run.json"
    write_json(cfg_path, RUN_CFG)
    out1, out2 = tmp_path / "o1", tmp_path / "o2"
    main(["run", "--config", str(cfg_path), "--out-dir", str(out1)])
    main(["run", "--config", str(cfg_path), "--out-dir", str(out2)])
    assert (out1 / "trace.csv").read_bytes() == (out2 / "trace.csv").read_bytes()
    assert (out1 / "final_field.csv").read_bytes() == (out2 / "final_field.csv").read_bytes()


def assert_one_line_error(capsys, rc, *words):
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("chillwave: error: ")
    assert err.count("\n") == 1 and "Traceback" not in err
    for word in words:
        assert word in err
    return err


def test_run_rejects_unknown_key(tmp_path, capsys):
    cfg_path = tmp_path / "run.json"
    write_json(cfg_path, dict(RUN_CFG, epsilon=0.1))
    rc = main(["run", "--config", str(cfg_path), "--out-dir", str(tmp_path / "out")])
    assert_one_line_error(capsys, rc, "epsilon")


@pytest.mark.parametrize("key,value", [
    ("T", float("inf")), ("A", float("inf")), ("gamma", float("inf")),
    ("tau", float("nan")), ("B", float("nan")),
])
def test_run_rejects_non_finite_number(tmp_path, capsys, key, value):
    # JSON's Infinity and NaN are numbers to the parser, not to a run
    cfg_path = tmp_path / "run.json"
    write_json(cfg_path, dict(RUN_CFG, **{key: value}))
    rc = main(["run", "--config", str(cfg_path), "--out-dir", str(tmp_path / "out")])
    assert_one_line_error(capsys, rc, key)


# the reference run's config, tau its step, plus tau_list
CONVERGE_CFG = dict(M=8, eps=0.25, gamma=1e-3, tau=1.25e-3, T=0.02, scheme="SL_BDF2",
                    A=0.25, B=8.0, seed=11, tau_list=[0.01, 0.005])


@pytest.mark.parametrize("key,value", [
    ("tau_list", 5), ("tau_list", []), ("tau_list", [0.01, "0.005"]),
    ("tau_list", [float("inf")]), ("tau_list", [0.01, -0.005]), ("tau_list", [0.01, 0.01]),
    ("tau", "0.05"), ("tau", float("inf")), ("tau", 0.0), ("tau", None),
    ("tau", 0.02),  # coarser than the finest tau, 0.005
])
def test_converge_rejects_bad_taus(tmp_path, capsys, key, value):
    cfg_path = tmp_path / "conv.json"
    write_json(cfg_path, dict(CONVERGE_CFG, **{key: value}))
    out = tmp_path / "out"
    rc = main(["converge", "--config", str(cfg_path), "--out-dir", str(out)])
    assert_one_line_error(capsys, rc, key)
    assert not out.exists()


def test_converge_rejects_tau_that_does_not_divide_T(tmp_path, capsys):
    # the message starts with the key whose tau fails ("tau" is a substring
    # of "tau_list", so the key is matched where the message names it)
    for key, value in (("tau_list", [0.03]), ("tau", 0.03)):
        cfg_path = tmp_path / "conv.json"
        write_json(cfg_path, dict(CONVERGE_CFG, **{key: value}))
        out = tmp_path / "out"
        rc = main(["converge", "--config", str(cfg_path), "--out-dir", str(out)])
        err = assert_one_line_error(capsys, rc, "T = 0.02", "multiple of tau = 0.03")
        assert err.startswith(f"chillwave: error: {key}: ")
        assert not out.exists()


def test_converge_names_missing_tau_list(tmp_path, capsys):
    cfg_path = tmp_path / "conv.json"
    write_json(cfg_path, RUN_CFG)
    rc = main(["converge", "--config", str(cfg_path), "--out-dir", str(tmp_path / "out")])
    assert_one_line_error(capsys, rc, "tau_list")


@pytest.mark.parametrize("raw", [["tau_list", "tau_ref"], [1]])
def test_converge_rejects_non_object(tmp_path, capsys, raw):
    cfg_path = tmp_path / "conv.json"
    write_json(cfg_path, raw)
    rc = main(["converge", "--config", str(cfg_path), "--out-dir", str(tmp_path / "out")])
    assert_one_line_error(capsys, rc, "must be a JSON object")


def test_converge_rejects_tau_ref_key(tmp_path, capsys):
    # the config's own tau is the reference step: tau_ref is no key
    cfg_path = tmp_path / "conv.json"
    write_json(cfg_path, dict(CONVERGE_CFG, tau_ref=1.25e-3))
    out = tmp_path / "out"
    rc = main(["converge", "--config", str(cfg_path), "--out-dir", str(out)])
    assert_one_line_error(capsys, rc, "unknown RunConfig keys: ['tau_ref']")
    assert not out.exists()


@pytest.mark.parametrize("command", ["converge", "sweep"])
def test_snapshots_are_rejected_where_none_are_taken(tmp_path, capsys, command):
    # a convergence study and a sweep write no snapshot, so a config that
    # asks for them is an error rather than a run without them
    cfg = {
        "converge": dict(CONVERGE_CFG, snapshot_every=1),
        "sweep": dict(SWEEP_CFG, base=dict(SWEEP_CFG["base"], snapshot_every=4)),
    }[command]
    cfg_path = tmp_path / "config.json"
    write_json(cfg_path, cfg)
    out = tmp_path / "out"
    rc = main([command, "--config", str(cfg_path), "--out-dir", str(out)])
    assert_one_line_error(capsys, rc, "snapshot_every must be 0")
    assert not out.exists()


@pytest.mark.parametrize("bad", [
    dict(tau=1e-320, T=1e-319),  # 1/tau overflows
    dict(gamma=1e300, A=1e300, B=1e300),  # gamma sigma (c sigma + B) overflows
    # SL_BDF2's energy history weight 1/(4 tau gamma sigma) overflows
    dict(scheme="SL_BDF2", tau=1e-200, gamma=1e-200, T=1e-199),
    # the same with a snapshot at every step: the output directory appears
    # at the first snapshot, which these runs never reach
    dict(tau=1e-320, T=1e-319, snapshot_every=1),
    dict(gamma=1e300, A=1e300, B=1e300, snapshot_every=1),
    dict(scheme="SL_BDF2", tau=1e-200, gamma=1e-200, T=1e-199, snapshot_every=1),
])
def test_run_rejects_overflowing_step_coefficients(tmp_path, capsys, bad):
    # finite inputs whose per-mode step coefficients are not finite are a
    # config error, not a blow-up at step 1, and raise no numpy warning
    cfg_path = tmp_path / "run.json"
    write_json(cfg_path, dict(RUN_CFG, **bad))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        rc = main(["run", "--config", str(cfg_path), "--out-dir", str(tmp_path / "out")])
    assert_one_line_error(capsys, rc, "tau", "gamma", "A =", "B =")
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("size", [
    pytest.param(dict(T=1e13), id="run-1e15-rows"),
    pytest.param(dict(T=1e13, snapshot_every=1), id="run-1e15-rows-snapshot_every-1"),
    pytest.param(dict(M=10000000), id="run-M1e7"),
])
def test_unallocatable_size_is_an_error(tmp_path, capsys, size):
    # 10^15 trace rows (49.7 PiB) and M = 10^7 (728 TiB in assemble_basis)
    # are both larger than a 47-bit user address space, so the allocation
    # is refused before any memory is touched
    cfg_path = tmp_path / "run.json"
    write_json(cfg_path, dict(M=8, eps=0.05, gamma=1.0, tau=0.01, T=0.01, scheme="SL_BDF2") | size)
    out = tmp_path / "out"
    rc = main(["run", "--config", str(cfg_path), "--out-dir", str(out)])
    assert_one_line_error(capsys, rc, "Unable to allocate")
    assert not out.exists()


def test_missing_config_file(tmp_path, capsys):
    rc = main(["run", "--config", str(tmp_path / "absent.json")])
    assert_one_line_error(capsys, rc, "absent.json")


SWEEP_CFG = {
    "base": dict(M=8, eps=0.25, gamma=1.0, tau=4e-5, T=64 * 4e-5, scheme="SL_BDF2", seed=9),
    "target": "A", "gamma_list": [1.0], "tau_list": [4e-5],
}


@pytest.mark.parametrize("key,value", [
    ("base", 5), ("gamma_list", 1), ("tau_list", []), ("steps", 8.0),
    ("fixed_value", -1), ("full_scan", "yes"), ("ladder", 5), ("ladder", []),
    ("gamma_list", [float("inf")]), ("tau_list", [float("nan")]),
    ("fixed_value", float("inf")), ("ladder", [0.0, float("inf")]), ("full_scan", True),
])
def test_sweep_rejects_bad_config(tmp_path, capsys, key, value):
    cfg_path = tmp_path / "sweep.json"
    write_json(cfg_path, dict(SWEEP_CFG, **{key: value}))
    out = tmp_path / "out"
    rc = main(["sweep", "--config", str(cfg_path), "--out-dir", str(out)])
    # "steps" and "full_scan" are not keys: a candidate runs its base's
    # step count, and a cell stops at its first stable rung
    if key in ("steps", "full_scan"):
        assert rc == 2 and capsys.readouterr().err == (
            f"chillwave: error: unknown SweepConfig keys: ['{key}']\n")
    else:
        assert_one_line_error(capsys, rc, key)
    assert not out.exists()


def test_sweep_rejects_a_base_stabilizer(tmp_path, capsys):
    # the held stabilizer is fixed_value: a base's B = 40 would otherwise be
    # dropped without a word, and the sweep run at B = 0
    cfg_path = tmp_path / "sweep.json"
    write_json(cfg_path, dict(SWEEP_CFG, base=dict(SWEEP_CFG["base"], B=40)))
    out = tmp_path / "out"
    rc = main(["sweep", "--config", str(cfg_path), "--out-dir", str(out)])
    assert_one_line_error(capsys, rc, "B must be 0 in a sweep's base, got 40", "fixed_value")
    assert not out.exists()


def test_sweep_command(tmp_path, capsys):
    cfg_path = tmp_path / "sweep.json"
    write_json(cfg_path, SWEEP_CFG)
    out = tmp_path / "out"
    assert main(["sweep", "--config", str(cfg_path), "--out-dir", str(out)]) == 0
    lines = (out / "sweep.csv").read_text().strip().splitlines()
    assert lines[0] == "tau,gamma=1"
    assert lines[1] == "4e-05,0"
    assert "1 cells" in capsys.readouterr().out
    header, row = (out / "sweep_log.csv").read_text().splitlines()
    row, max_dE_mod = row.rsplit(",", 1)
    assert (header, row) == (SWEEP_LOG_COLUMNS, "1,4e-05,0,stable,64,completed")
    assert float(max_dE_mod) < 0.0


SWEEP_LOG_COLUMNS = "gamma,tau,candidate,verdict,rows_run,stop_reason,max_dE_mod"


def test_sweep_log_records_every_candidate(tmp_path):
    # SL_CN at M = 8: A = 0, 0.5, 1 and 2 break the 1e-10 bound and stop
    # there; A = 4 is the first stable rung
    cfg_path = tmp_path / "sweep.json"
    write_json(cfg_path, dict(
        base=dict(M=8, eps=0.25, gamma=1.0, tau=0.01, T=0.64, scheme="SL_CN", seed=42),
        target="A", gamma_list=[1.0], tau_list=[0.01]))
    out = tmp_path / "out"
    assert main(["sweep", "--config", str(cfg_path), "--out-dir", str(out)]) == 0
    header, *rows = (out / "sweep_log.csv").read_text().splitlines()
    assert header == SWEEP_LOG_COLUMNS
    rows = [dict(zip(header.split(","), row.split(","))) for row in rows]
    assert [r["candidate"] for r in rows] == ["0", "0.5", "1", "2", "4"]
    assert all((r["gamma"], r["tau"]) == ("1", "0.01") for r in rows)
    *stopped, last = rows
    for r in stopped:
        assert (r["verdict"], r["stop_reason"]) == ("unstable", "energy_increase")
        assert int(r["rows_run"]) < 64
        assert float(r["max_dE_mod"]) > 1e-10
    # a stable candidate logs its margin below the threshold: a negative maximum
    assert float(last.pop("max_dE_mod")) < 0.0
    assert last == dict(gamma="1", tau="0.01", candidate="4", verdict="stable", rows_run="64",
                        stop_reason="completed")
    assert (out / "sweep.csv").read_text().splitlines()[1] == "0.01,4"


def test_converge_command(tmp_path, capsys):
    cfg_path = tmp_path / "conv.json"
    write_json(cfg_path, CONVERGE_CFG)
    out = tmp_path / "out"
    assert main(["converge", "--config", str(cfg_path), "--out-dir", str(out)]) == 0
    lines = (out / "convergence.csv").read_text().strip().splitlines()
    assert lines[0].startswith("tau,")
    assert len(lines) == 3
    assert "convergence table" in capsys.readouterr().out


@pytest.mark.parametrize("eps", [0.0, 1e-200, float("nan")], ids=str)
def test_run_rejects_prepared_eps_underflow(tmp_path, capsys, eps):
    # the error names the eps the config gave, not the tau derived from it,
    # and comes before the out directory is made
    cfg_path = tmp_path / "run.json"
    write_json(cfg_path, dict(RUN_CFG, eps=eps, initial="prepared"))
    out = tmp_path / "out"
    rc = main(["run", "--config", str(cfg_path), "--out-dir", str(out)])
    assert "tau" not in assert_one_line_error(capsys, rc, "eps")
    assert not out.exists()


@pytest.mark.parametrize("key,value", [
    ("out_dir", 5), ("out_dir", [1]), ("out_dir", True), ("out_dir", "x"), ("m", 10),
])
@pytest.mark.parametrize("command", ["run", "sweep", "converge"])
def test_config_out_dir_and_m_are_unknown_keys(tmp_path, capsys, monkeypatch, command, key,
                                               value):
    # the output path comes only from --out-dir and the bootstrap's 10
    # substeps are fixed, so a run config naming either is rejected
    # before anything is written
    cfg = {
        "run": dict(RUN_CFG, **{key: value}),
        "sweep": dict(SWEEP_CFG, base=dict(SWEEP_CFG["base"], **{key: value})),
        "converge": dict(CONVERGE_CFG, **{key: value}),
    }[command]
    cfg_path = tmp_path / "config.json"
    write_json(cfg_path, cfg)
    monkeypatch.chdir(tmp_path)
    rc = main([command, "--config", str(cfg_path)])
    assert_one_line_error(capsys, rc, f"unknown RunConfig keys: ['{key}']")
    assert [p.name for p in tmp_path.iterdir()] == ["config.json"]


def assert_rejected_before_any_output(tmp_path, capsys, monkeypatch, command, keys, *words):
    # `command` on its config with the run keys set: the config rejects
    # them in one line, so no output directory is made and `run` starts no
    # snapshot writer
    started = []
    monkeypatch.setattr(cli, "SnapshotWriter",
                        lambda *args: started.append(args) or _snapshots.SnapshotWriter(*args))
    out = tmp_path / "out"
    cfg = {
        "run": dict(RUN_CFG, **keys),
        "sweep": dict(SWEEP_CFG, base=dict(SWEEP_CFG["base"], **keys)),
        "converge": dict(CONVERGE_CFG, **keys),
    }[command]
    write_json(tmp_path / "config.json", cfg)
    rc = main([command, "--config", str(tmp_path / "config.json"), "--out-dir", str(out)])
    assert_one_line_error(capsys, rc, *words)
    assert not out.exists()
    assert started == []


COMMANDS = [
    *(pytest.param(c, 0, id=c) for c in ("run", "sweep", "converge")),
    pytest.param("run", 1, id="run-snapshot_every-1"),
]


@pytest.mark.parametrize("seed", [-1, 2**64])
@pytest.mark.parametrize("command,snapshot_every", COMMANDS)
def test_seed_outside_64_bits_is_an_error(tmp_path, capsys, monkeypatch, command,
                                         snapshot_every, seed):
    assert_rejected_before_any_output(tmp_path, capsys, monkeypatch, command,
                                      dict(seed=seed, snapshot_every=snapshot_every),
                                      "seed", str(seed))


@pytest.mark.parametrize("command,snapshot_every", COMMANDS)
def test_odd_M_is_an_error(tmp_path, capsys, monkeypatch, command, snapshot_every):
    # an odd M fails as `M must be even, got 9` before any basis exists
    assert_rejected_before_any_output(tmp_path, capsys, monkeypatch, command,
                                      dict(M=9, snapshot_every=snapshot_every),
                                      "chillwave: error: M must be even, got 9\n")
