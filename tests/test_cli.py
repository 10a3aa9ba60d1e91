import json
import platform
import tracemalloc
import warnings

import numpy as np
import pytest

from chillwave import __version__, cli, mean_value, read_snapshot, run_simulation, write_snapshot
from chillwave.cli import build_parser, main
from chillwave.harness import run_config_from_dict


def write_json(path, obj):
    path.write_text(json.dumps(obj))


RUN_CFG = dict(M=8, eps=0.25, gamma=1.0, tau=0.1, T=0.5, scheme="SL_CN",
               A=0.25, B=8.0, seed=6)


def test_parser_subcommands():
    parser = build_parser()
    args = parser.parse_args(["run", "--config", "x.json", "--out-dir", "d"])
    assert args.config == "x.json" and args.out_dir == "d"
    with pytest.raises(SystemExit):
        parser.parse_args(["frobnicate"])


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
    assert summary["blew_up"] is False
    assert summary["max_residual"] <= 1e-10
    assert summary["mean_drift"] <= 1e-11
    assert summary["config"]["M"] == 8
    assert (summary["stop_reason"], summary["stop_step"]) == ("completed", 5)
    assert summary["versions"] == {
        "chillwave": __version__, "numpy": np.__version__,
        "python": platform.python_version(),
    }
    assert "completed" in capsys.readouterr().out


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


def test_run_summary_records_blow_up(tmp_path):
    cfg_path = tmp_path / "run.json"
    write_json(cfg_path, dict(M=16, eps=0.05, gamma=0.0025, tau=1.0, T=100.0,
                              scheme="SL_BDF2", seed=1))
    out = tmp_path / "out"
    assert main(["run", "--config", str(cfg_path), "--out-dir", str(out)]) == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["blew_up"] is True
    assert summary["stop_reason"] == "blow_up"
    assert summary["stop_step"] == summary["blowup_step"] == summary["steps_completed"] + 1
    assert set(summary["versions"]) == {"chillwave", "numpy", "python"}


def test_run_final_field_matches_last_snapshot(tmp_path):
    cfg_path = tmp_path / "run.json"
    write_json(cfg_path, dict(RUN_CFG, snapshot_every=1))
    out = tmp_path / "out"
    main(["run", "--config", str(cfg_path), "--out-dir", str(out)])
    u_final, meta_final = read_snapshot(out / "final_field.csv")
    u_last, meta_last = read_snapshot(out / "snapshot_000005.csv")
    np.testing.assert_array_equal(u_final.coeffs, u_last.coeffs)
    assert meta_final == meta_last


def final_field_bytes(tmp_path, cfg):
    # final_field.csv as write_snapshot formats the run's final field
    trace, final, _ = run_simulation(run_config_from_dict(cfg))
    ref = tmp_path / "ref.csv"
    write_snapshot(final, ref, eps=cfg["eps"], gamma=cfg["gamma"],
                   t=trace.rows["t"][-1], step=trace.rows["n"][-1])
    return ref.read_bytes()


def test_run_final_field_copies_the_last_snapshot(tmp_path, monkeypatch):
    # the last snapshot holds the final step: final_field.csv is its copy,
    # byte for byte what formatting the final field writes, with one
    # write_snapshot call fewer
    cfg = dict(RUN_CFG, snapshot_every=2)
    write_json(tmp_path / "run.json", cfg)
    written = []
    monkeypatch.setattr(cli, "write_snapshot", lambda u, path, **kw: (
        written.append(path), write_snapshot(u, path, **kw)))
    out = tmp_path / "out"
    assert main(["run", "--config", str(tmp_path / "run.json"), "--out-dir", str(out)]) == 0
    assert [p.rsplit("/", 1)[-1] for p in written] == [
        "snapshot_000002.csv", "snapshot_000004.csv", "snapshot_000005.csv"]
    final = (out / "final_field.csv").read_bytes()
    assert final == (out / "snapshot_000005.csv").read_bytes()
    assert final == final_field_bytes(tmp_path, cfg)


def test_run_final_field_formatted_after_a_blow_up(tmp_path):
    # the run blows up at step 8: its last good step, 7, is no snapshot
    # step (2, 4, 6), so final_field.csv formats the final field itself
    cfg = dict(M=16, eps=0.05, gamma=0.0025, tau=1.0, T=100.0, scheme="SL_BDF2", seed=1,
               snapshot_every=2)
    write_json(tmp_path / "run.json", cfg)
    out = tmp_path / "out"
    assert main(["run", "--config", str(tmp_path / "run.json"), "--out-dir", str(out)]) == 0
    assert json.loads((out / "summary.json").read_text())["blowup_step"] == 8
    assert sorted(p.name for p in out.glob("snapshot_*.csv")) == [
        "snapshot_000002.csv", "snapshot_000004.csv", "snapshot_000006.csv"]
    assert read_snapshot(out / "final_field.csv")[1]["step"] == 7
    assert (out / "final_field.csv").read_bytes() == final_field_bytes(tmp_path, cfg)


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


@pytest.mark.parametrize("command,snapshot_every", [
    pytest.param(["run"], 0, id="run-1e15-rows"),
    pytest.param(["run"], 1, id="run-1e15-rows-snapshot_every-1"),
    pytest.param(["prepare-initial", "--M", "10000000", "--eps", "0.05", "--seed", "1"], 0,
                 id="prepare-M1e7"),
])
def test_unallocatable_size_is_an_error(tmp_path, capsys, command, snapshot_every):
    # 10^15 trace rows (49.7 PiB) and M = 10^7 (728 TiB in assemble_basis)
    # are both larger than a 47-bit user address space, so the allocation
    # is refused before any memory is touched
    cfg_path = tmp_path / "run.json"
    write_json(cfg_path, dict(M=8, eps=0.05, gamma=1.0, tau=0.01, T=1e13, scheme="SL_BDF2",
                              snapshot_every=snapshot_every))
    out = tmp_path / "out"
    args = ["--config", str(cfg_path), "--out-dir"] if command == ["run"] else ["--out"]
    rc = main(command + args + [str(out)])
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
    ("fixed_value", float("inf")), ("ladder", [0.0, float("inf")]),
])
def test_sweep_rejects_bad_config(tmp_path, capsys, key, value):
    cfg_path = tmp_path / "sweep.json"
    write_json(cfg_path, dict(SWEEP_CFG, **{key: value}))
    rc = main(["sweep", "--config", str(cfg_path), "--out-dir", str(tmp_path / "out")])
    # "steps" is not a key: a candidate runs its base's step count
    unknown = "unknown SweepConfig keys: ['steps']"
    assert_one_line_error(capsys, rc, unknown if key == "steps" else key)


def test_sweep_command(tmp_path, capsys):
    cfg_path = tmp_path / "sweep.json"
    write_json(cfg_path, SWEEP_CFG)
    out = tmp_path / "out"
    assert main(["sweep", "--config", str(cfg_path), "--out-dir", str(out)]) == 0
    lines = (out / "sweep.csv").read_text().strip().splitlines()
    assert lines[0] == "tau,gamma=1"
    assert lines[1] == "4e-05,0"
    assert "1 cells" in capsys.readouterr().out
    log = (out / "sweep_log.csv").read_text().splitlines()
    assert log == [SWEEP_LOG_COLUMNS, "1,4e-05,0,stable,64,completed,,"]


def test_sweep_prints_each_anomaly_on_stderr(tmp_path, capsys, monkeypatch):
    # a full scan whose ladder is not monotone: unstable, stable, unstable
    from chillwave.harness import SWEEP_LOG_DTYPE, SweepResult

    stopped, completed = ("unstable", 3, "energy_increase", 3.0, 1.0), (
        "stable", 64, "completed", np.nan, np.nan)
    log = np.array([(1.0, 4e-5, candidate, *row) for candidate, row in
                    ((0.0, stopped), (1.0, completed), (2.0, stopped))], SWEEP_LOG_DTYPE)
    monkeypatch.setattr(cli, "sweep_min_stabilizer",
                        lambda sc: SweepResult(sc, log.view(np.recarray)))
    cfg_path = tmp_path / "sweep.json"
    write_json(cfg_path, dict(SWEEP_CFG, ladder=[0.0, 1.0, 2.0], full_scan=True))
    assert main(["sweep", "--config", str(cfg_path), "--out-dir", str(tmp_path / "out")]) == 0
    assert capsys.readouterr().err == (
        "anomaly: non-monotone ladder at gamma=1.0 tau=4e-05: verdicts [False, True, False]\n")
    assert (tmp_path / "out" / "sweep.csv").read_text() == "tau,gamma=1\n4e-05,1\n"


SWEEP_LOG_COLUMNS = ("gamma,tau,candidate,verdict,rows_run,stop_reason,"
                     "first_violation_step,first_violation_dE_mod")


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
        assert int(r["rows_run"]) == int(r["first_violation_step"]) < 64
        assert float(r["first_violation_dE_mod"]) > 1e-10
    assert last == dict(gamma="1", tau="0.01", candidate="4", verdict="stable", rows_run="64",
                        stop_reason="completed", first_violation_step="",
                        first_violation_dE_mod="")
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


def test_prepare_initial_command(tmp_path, capsys):
    out = tmp_path / "init"
    rc = main(["prepare-initial", "--M", "8", "--eps", "0.25",
               "--seed", "7", "--out", str(out)])
    assert rc == 0
    phi0, meta0 = read_snapshot(out / "phi0.csv")
    phi1, meta1 = read_snapshot(out / "phi1.csv")
    assert meta0["t"] == 0.0 and meta0["step"] == 0
    assert meta1["t"] == pytest.approx(64 * 0.25**3)
    assert meta1["step"] == 64
    assert mean_value(phi0) == pytest.approx(mean_value(phi1), abs=1e-11)
    assert "phi0.csv" in capsys.readouterr().out


@pytest.mark.parametrize("M, eps, word", [
    *(pytest.param("8", eps, "eps", id=eps) for eps in ("0", "1e-200", "nan")),
    pytest.param("3", "0.25", "M", id="M3"),
])
def test_prepare_initial_rejects_bad_eps(tmp_path, capsys, M, eps, word):
    # the error names the eps the user gave, not the tau derived from it,
    # and comes before the out directory is made
    out = tmp_path / "init"
    rc = main(["prepare-initial", "--M", M, "--eps", eps, "--seed", "7", "--out", str(out)])
    assert "tau" not in assert_one_line_error(capsys, rc, word)
    assert not out.exists()


def test_run_rejects_prepared_eps_underflow(tmp_path, capsys):
    cfg_path = tmp_path / "run.json"
    write_json(cfg_path, dict(RUN_CFG, eps=1e-200, initial="prepared"))
    out = tmp_path / "out"
    rc = main(["run", "--config", str(cfg_path), "--out-dir", str(out)])
    assert_one_line_error(capsys, rc, "eps")
    assert not out.exists()


@pytest.mark.parametrize("key,value", [
    ("out_dir", 5), ("out_dir", [1]), ("out_dir", True), ("out_dir", "x"), ("m", 10),
])
@pytest.mark.parametrize("command", ["run", "sweep", "converge"])
def test_config_out_dir_and_m_are_unknown_keys(tmp_path, capsys, monkeypatch, command, key,
                                               value):
    # the output path comes only from --out-dir and the bootstrap count is
    # bootstrap_first_step's, so a run config naming either is rejected
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


@pytest.mark.parametrize("seed", [-1, 2**64])
@pytest.mark.parametrize("command,snapshot_every", [
    *(pytest.param(c, 0, id=c) for c in ("run", "sweep", "converge", "prepare-initial")),
    pytest.param("run", 1, id="run-snapshot_every-1"),
])
def test_seed_outside_64_bits_is_an_error(tmp_path, capsys, command, snapshot_every, seed):
    out = tmp_path / "out"
    if command == "prepare-initial":
        args = ["--M", "8", "--eps", "0.25", "--seed", str(seed), "--out", str(out)]
    else:
        cfg = {
            "run": dict(RUN_CFG, seed=seed, snapshot_every=snapshot_every),
            "sweep": dict(SWEEP_CFG, base=dict(SWEEP_CFG["base"], seed=seed)),
            "converge": dict(CONVERGE_CFG, seed=seed),
        }[command]
        write_json(tmp_path / "config.json", cfg)
        args = ["--config", str(tmp_path / "config.json"), "--out-dir", str(out)]
    assert_one_line_error(capsys, main([command, *args]), "seed", str(seed))
    assert not out.exists()
