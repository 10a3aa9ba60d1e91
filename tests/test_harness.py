import json
import math
import os
import re
from dataclasses import FrozenInstanceError, asdict, fields, replace
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from chillwave import (
    RunConfig,
    SchemeParams,
    SolveFailed,
    SweepConfig,
    assemble_basis,
    build_step_operator,
    convergence_study,
    default_ladder,
    error_norms,
    lean_final,
    mean_value,
    prepare_phi1,
    run_simulation,
    splitmix64,
    stability_verdict,
    sweep_min_stabilizer,
)
from chillwave.harness import (
    CONVERGENCE_DTYPE,
    initial_field,
    prepare_params,
    random_nodal_field,
    run_config_from_dict,
    sweep_config_from_dict,
    write_convergence_csv,
)
from conftest import Snapshots, energy_eps, unit_field


def splitmix_ref(seed, count):
    # plain-integer reference implementation
    mask = (1 << 64) - 1
    out = []
    state = seed & mask
    for _ in range(count):
        state = (state + 0x9E3779B97F4A7C15) & mask
        z = state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & mask
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & mask
        out.append(z ^ (z >> 31))
    return out


def test_splitmix64_published_vector():
    # the widely quoted first outputs for seed 0
    expected = [
        0xE220A8397B1DCDAF,
        0x6E789E6AA1B965F4,
        0x06C45D188009454F,
        0xF88BB8A8724C81EC,
        0x1B39896A51A8749B,
    ]
    got = splitmix64(0, 5)
    assert [int(v) for v in got] == expected


def test_splitmix64_matches_integer_reference():
    for seed in (1, 42, 2**63, 0xDEADBEEF):
        got = [int(v) for v in splitmix64(seed, 20)]
        assert got == splitmix_ref(seed, 20)


def test_splitmix64_seed42_first_output():
    assert int(splitmix64(42, 1)[0]) == 0xBDD732262FEB6E95


def test_splitmix64_rejects_seed_outside_64_bits():
    # a masked seed would alias: 2^64 would give seed 0's stream, True seed 1's
    assert [int(v) for v in splitmix64(2**64 - 1, 3)] == splitmix_ref(2**64 - 1, 3)
    for seed in (-1, 2**64, 42.0, True):
        with pytest.raises(ValueError, match=r"seed must be an integer in \[0, 2\^64\)"):
            splitmix64(seed, 1)


@pytest.mark.xfail(
    strict=True,
    reason="stated reference value 0x13F5E66F2F16F199 does not match "
    "canonical SplitMix64 for seed 42 under any common variant tried; "
    "the canonical algorithm (verified against the published seed-0 "
    "vector) is implemented instead",
)
def test_splitmix64_seed42_stated_reference():
    assert int(splitmix64(42, 1)[0]) == 0x13F5E66F2F16F199


def test_random_nodal_field_deterministic(basis8):
    a = random_nodal_field(basis8, 42)
    b = random_nodal_field(assemble_basis(8), 42)
    np.testing.assert_array_equal(a.coeffs, b.coeffs)
    c = random_nodal_field(basis8, 43)
    assert np.abs(a.coeffs - c.coeffs).max() > 1e-3


def test_random_nodal_field_mean_small():
    for M in (16, 32):
        assert abs(mean_value(random_nodal_field(assemble_basis(M), 42))) <= 0.2


def test_prepare_phi1_constant_unchanged(basis8):
    c = unit_field(basis8, 0, 0, 0.2)
    out = prepare_phi1(c, 0.25)
    assert np.abs(out.coeffs - c.coeffs).max() <= 1e-12


def test_prepare_params_is_the_first_order_step():
    # prepare_phi1 takes PREPARE_STEPS steps of tau = eps^3 at B = 1/eps
    p = prepare_params(0.25)
    assert (p.scheme, p.tau, p.gamma, p.B) == ("FIRST_ORDER", 0.25**3, 1.0, 4.0)


def test_prepare_phi1_dissipates():
    phi0 = random_nodal_field(assemble_basis(16), 42)
    phi1 = prepare_phi1(phi0, 0.05)
    assert energy_eps(0.05, phi1) < energy_eps(0.05, phi0)
    assert mean_value(phi1) == pytest.approx(mean_value(phi0), abs=1e-11)


def test_run_config_validation():
    with pytest.raises(ValueError):
        RunConfig(M=3, eps=0.05, gamma=1.0, tau=0.1, T=1.0, scheme="SL_CN")
    with pytest.raises(ValueError):
        RunConfig(M=8, eps=0.05, gamma=1.0, tau=0.1, T=0.01, scheme="SL_CN")
    with pytest.raises(ValueError):
        RunConfig(M=8, eps=0.05, gamma=1.0, tau=0.1, T=1.0, scheme="FIRST_ORDER")
    with pytest.raises(ValueError):
        RunConfig(M=8, eps=0.05, gamma=1.0, tau=0.1, T=1.0, scheme="SL_CN",
                  initial="noise")
    good = dict(M=8, eps=0.05, gamma=1.0, tau=0.1, T=1.0, scheme="SL_CN")
    RunConfig(**dict(good, eps=1, gamma=2, A=0, B=5))  # ints are numbers
    for bad in (
        dict(eps=1.5), dict(eps=0.0), dict(eps=-0.05),
        dict(M=48.0), dict(seed=42.0), dict(snapshot_every=2.0),
        dict(M=True), dict(seed=False), dict(seed=2**64),
        dict(eps="0.05"), dict(gamma=None), dict(A=[1.0]), dict(B=True), dict(T="1"),
        dict(A=-1.0),
    ):
        with pytest.raises(ValueError):
            RunConfig(**dict(good, **bad))
    # prepared data relaxes for 64 eps^3: an eps whose cube underflows is a
    # config error, not a failure at run time
    RunConfig(**dict(good, eps=1e-100, initial="prepared"))
    RunConfig(**dict(good, eps=1e-200))
    with pytest.raises(ValueError, match="eps"):
        RunConfig(**dict(good, eps=1e-200, initial="prepared"))
    with pytest.raises(ValueError, match="missing RunConfig keys"):
        run_config_from_dict({"M": 8, "eps": 0.05})


def test_run_config_dict_round_trip():
    cfg = RunConfig(M=8, eps=0.05, gamma=0.0025, tau=0.1, T=1.0, scheme="SL_CN",
                    A=0.25, B=20.0, seed=7, initial="prepared", snapshot_every=5)
    assert run_config_from_dict(asdict(cfg)) == cfg
    with pytest.raises(ValueError):
        run_config_from_dict({"M": 8, "epsilon": 0.05})


def test_run_config_is_its_scheme_params(basis8):
    # a run config is a frozen SchemeParams plus the run's size: the step
    # operator takes it as is, and it changes only through replace, which
    # checks it again
    for scheme in ("SL_BDF2", "SL_CN"):
        cfg = RunConfig(M=8, eps=0.25, gamma=1.0, tau=0.1, T=1.0, scheme=scheme, A=0.5, B=3.0)
        assert isinstance(cfg, SchemeParams)
        plain = SchemeParams(scheme=cfg.scheme, tau=cfg.tau, gamma=cfg.gamma, eps=cfg.eps,
                             A=cfg.A, B=cfg.B)
        got, want = build_step_operator(cfg, basis8), build_step_operator(plain, basis8)
        assert got.xp == want.xp
        for name in ("cn", "cp", "cl", "grad", "hw"):
            assert getattr(got, name).tobytes() == getattr(want, name).tobytes()
        with pytest.raises(FrozenInstanceError):
            cfg.tau = 0.2
        with pytest.raises(ValueError, match=re.escape(
                "scheme must be one of SL_BDF2, SL_CN, got 'FIRST_ORDER'")):
            replace(cfg, scheme="FIRST_ORDER")


def readme_section(command):
    """The README section of `chillwave <command>`, up to the next heading."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    return readme.split(f"### `chillwave {command} ")[1].split("\n### ")[0]


def test_readme_names_every_config_key():
    # every field of RunConfig and SweepConfig is named in backticks in the
    # "Config keys:" paragraph of its command's README section, so no key
    # is added or renamed without its documentation
    for command, cls in (("run", RunConfig), ("sweep", SweepConfig)):
        section = readme_section(command)
        paragraph = next(p for p in section.split("\n\n") if p.startswith("Config keys:"))
        named = set(re.findall(r"`(\w+)`", paragraph))
        assert [f.name for f in fields(cls) if f.name not in named] == []


def test_readme_config_examples_parse():
    # the json example of each command's README section is a config its
    # parser accepts; a converge config is its reference run, tau the
    # reference step, plus tau_list
    example = {command: json.loads(readme_section(command).split("```json\n")[1].split("```")[0])
               for command in ("run", "sweep", "converge")}
    run_config_from_dict(example["run"])
    sweep_config_from_dict(example["sweep"])
    tau_list = example["converge"].pop("tau_list")
    cfg = run_config_from_dict(example["converge"])
    assert cfg.tau <= min(tau_list)
    for tau in tau_list:
        replace(cfg, tau=tau).n_steps()  # raises unless T is a multiple of tau


def test_readme_quick_start_runs(tmp_path, monkeypatch, capsys):
    # the four python blocks of "Library quick start" run in order in one
    # namespace (blocks 2 and 3 write files, here into tmp_path), and block
    # 1 prints what its comments say: the verdict and the snapshot steps
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("## Library quick start\n")[1].split("\n## ")[0]
    blocks = [part.split("```")[0] for part in section.split("```python\n")[1:]]
    assert len(blocks) == 4
    monkeypatch.chdir(tmp_path)
    namespace = {}
    for k, block in enumerate(blocks):
        exec(compile(block, f"README.md quick start block {k + 1}", "exec"), namespace)
        if k == 0:
            printed = capsys.readouterr().out.splitlines()
    comments = [line.split("#", 1)[1].strip() for line in blocks[0].splitlines()
                if line.startswith("print(")]
    assert comments[0] == printed[0] == "stable"
    assert comments[3] == printed[3] == "[256, 512, 768, 1024]"
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "phi1.csv", *(f"snapshot_{n:06d}.csv" for n in (256, 512, 768, 1024))]


def test_n_steps_rounding():
    cfg = RunConfig(M=8, eps=0.05, gamma=1.0, tau=0.01, T=10.24, scheme="SL_CN")
    assert cfg.n_steps() == 1024
    cfg = RunConfig(M=8, eps=0.05, gamma=1.0, tau=0.1, T=0.3, scheme="SL_CN")
    assert cfg.n_steps() == 3  # 0.3/0.1 is not exact in binary
    with pytest.raises(ValueError):  # T must be an integer multiple of tau
        RunConfig(M=8, eps=0.05, gamma=1.0, tau=0.1, T=0.35, scheme="SL_CN")


def test_single_step_run_is_the_bootstrap(basis8):
    cfg = RunConfig(M=8, eps=0.25, gamma=1.0, tau=0.05, T=0.05, scheme="SL_BDF2",
                    A=0.25, B=8.0, seed=3)
    trace, final, snaps = run_simulation(cfg, basis=basis8)
    assert len(trace) == 1
    assert trace.rows["n"][0] == 1
    assert trace.rows["dE_mod"][0] == 0.0
    assert snaps == ()


def test_constant_initial_flat_trace(basis8):
    cfg = RunConfig(M=8, eps=0.25, gamma=1.0, tau=0.1, T=1.0, scheme="SL_CN",
                    A=0.25, B=8.0)
    c = unit_field(basis8, 0, 0, 0.5)
    trace, final, _ = run_simulation(cfg, phi_init=c, basis=basis8)
    assert len(trace) == 10
    e = trace.column("E_eps")
    np.testing.assert_allclose(e, e[0], rtol=1e-12)
    assert trace.column("dt_norm").max() <= 1e-12
    assert np.abs(final.coeffs - c.coeffs).max() <= 1e-11


@pytest.mark.parametrize("given", ["phi_init", "basis"])
def test_run_simulation_rejects_mismatched_M(given):
    # the run would otherwise go ahead at the field's or the basis's M
    cfg = RunConfig(M=16, eps=0.25, gamma=1.0, tau=0.1, T=0.3, scheme="SL_CN",
                    A=0.25, B=8.0)
    if given == "phi_init":
        kwargs, M = dict(phi_init=random_nodal_field(assemble_basis(8), 42)), 8
    else:
        kwargs, M = dict(basis=assemble_basis(12)), 12
    with pytest.raises(ValueError, match=f"{given} has M = {M}, .* M = 16"):
        run_simulation(cfg, **kwargs)


def test_initial_field_rejects_a_basis_of_another_M(basis16):
    # the field would otherwise have the basis's 16 modes, not the config's 8
    cfg = RunConfig(M=8, eps=0.25, gamma=1.0, tau=0.1, T=0.3, scheme="SL_CN")
    message = "basis has M = 16, but the config asks for M = 8"
    with pytest.raises(ValueError, match=re.escape(message)):
        initial_field(cfg, basis16)


def test_run_simulation_records_blowup(basis16):
    cfg = RunConfig(M=16, eps=0.05, gamma=0.0025, tau=1.0, T=100.0,
                    scheme="SL_BDF2", seed=1)
    trace, final, _ = run_simulation(cfg, basis=basis16)
    assert trace.blew_up
    assert len(trace) < 100
    assert stability_verdict(trace) == "unstable"


def test_run_simulation_raises_on_wrong_eigenbasis(monkeypatch):
    # a wrong eigendecomposition is a solver fault, not a blow-up verdict:
    # it raises instead of returning a trace marked blown up
    eigh = np.linalg.eigh
    rng = np.random.default_rng(8)

    def perturbed(a):
        lam, Q = eigh(a)
        return lam, Q * (1.0 + 1e-6 * rng.standard_normal(Q.shape))

    monkeypatch.setattr(np.linalg, "eigh", perturbed)
    cfg = RunConfig(M=8, eps=0.25, gamma=1.0, tau=0.1, T=0.5, scheme="SL_BDF2",
                    A=0.25, B=8.0, seed=6)
    with pytest.raises(SolveFailed):
        run_simulation(cfg)


def test_run_simulation_snapshot_cadence(basis8):
    cfg = RunConfig(M=8, eps=0.25, gamma=1.0, tau=0.1, T=0.6, scheme="SL_CN",
                    A=0.25, B=8.0, seed=5, snapshot_every=2)
    snaps = Snapshots()
    run_simulation(cfg, basis=basis8, on_snapshot=snaps)
    assert [n for n, _, _ in snaps] == [2, 4, 6]
    cfg2 = RunConfig(M=8, eps=0.25, gamma=1.0, tau=0.1, T=0.6, scheme="SL_CN",
                     A=0.25, B=8.0, seed=5, snapshot_every=4)
    snaps2 = Snapshots()
    run_simulation(cfg2, basis=basis8, on_snapshot=snaps2)
    assert [n for n, _, _ in snaps2] == [4, 6]  # final step always included


@pytest.mark.parametrize("snapshot_every,hook", [(1, False), (0, True)])
def test_run_takes_snapshots_exactly_when_it_has_a_hook(snapshot_every, hook):
    # a snapshot leaves a run only through on_snapshot, so a cadence with
    # no hook, or a hook with no cadence, is a config error; at M = 10^7
    # the one-line ValueError, not a MemoryError, shows that it is raised
    # before any basis is assembled
    cfg = RunConfig(M=10**7, eps=0.25, gamma=1.0, tau=0.1, T=0.3, scheme="SL_CN",
                    snapshot_every=snapshot_every)
    with pytest.raises(ValueError) as caught:
        run_simulation(cfg, on_snapshot=Snapshots() if hook else None)
    message = str(caught.value)
    assert "\n" not in message
    hooked = "an" if hook else "no"
    assert f"snapshot_every = {snapshot_every} with {hooked} on_snapshot hook" in message


@pytest.mark.parametrize("raw,until_unstable,ends", [
    pytest.param(dict(M=8, eps=0.25, gamma=1.0, tau=0.1, T=0.6, scheme="SL_CN", A=0.25, B=8.0,
                      seed=5, snapshot_every=2), False, "completed", id="completed"),
    # blows up at step 8, after the snapshots of steps 2, 4 and 6
    pytest.param(dict(M=16, eps=0.05, gamma=0.0025, tau=1.0, T=100.0, scheme="SL_BDF2", seed=1,
                      snapshot_every=2), False, "blow_up", id="blow-up"),
    # A = 0 stops at its first dE_mod above 1e-10, before step 64
    pytest.param(dict(M=8, eps=0.25, gamma=1.0, tau=0.01, T=0.64, scheme="SL_CN", seed=42,
                      snapshot_every=3), True, "energy_increase", id="stop-above"),
])
def test_snapshot_hook_follows_the_cadence(raw, until_unstable, ends):
    # on_snapshot gets, when the run reaches it, every cadence step the run
    # reaches and the last step of a completed run, at t = n * tau; a second
    # run hands it the same bytes, and the run returns () for the third value
    cfg = RunConfig(**raw)

    def run():
        snaps = Snapshots()
        return (*run_simulation(cfg, until_unstable=until_unstable, on_snapshot=snaps), snaps)

    (trace, final, rest, snaps), (trace2, final2, rest2, snaps2) = run(), run()
    N, k = cfg.n_steps(), cfg.snapshot_every
    assert rest == rest2 == ()
    assert trace.stop_reason == trace2.stop_reason == ends
    assert [n for n, _, _ in snaps] == [n for n in range(1, len(trace) + 1)
                                       if n % k == 0 or n == N]
    assert len(snaps) >= 3
    assert [t for _, t, _ in snaps] == [n * cfg.tau for n, _, _ in snaps]
    assert [(n, t) for n, t, _ in snaps2] == [(n, t) for n, t, _ in snaps]
    assert all(a.v.tobytes() == b.v.tobytes() for (_, _, a), (_, _, b) in zip(snaps, snaps2))
    assert np.array_equal(trace2.rows, trace.rows)
    assert final2.v.tobytes() == final.v.tobytes()
    if ends == "completed":
        assert snaps[-1][0] == len(trace) == N
        assert snaps[-1][2].v.tobytes() == final.v.tobytes()


COMPLETES = dict(M=8, eps=0.25, gamma=1.0, tau=0.1, T=0.6, scheme="SL_CN", A=0.25, B=8.0, seed=5)


@pytest.mark.parametrize("raw,until_unstable,bootstrap_blows_up,reason,rows", [
    pytest.param(COMPLETES, False, False, "completed", 6, id="completed"),
    pytest.param(COMPLETES, True, False, "completed", 6, id="completed-until-unstable"),
    # A = 0 breaks the 1e-10 bound after 28 of 64 steps
    pytest.param(dict(M=8, eps=0.25, gamma=1.0, tau=0.01, T=0.64, scheme="SL_CN", seed=42),
                 True, False, "energy_increase", 28, id="energy-increase"),
    pytest.param(dict(M=16, eps=0.05, gamma=0.0025, tau=1.0, T=100.0, scheme="SL_BDF2", seed=1),
                 False, False, "blow_up", 7, id="blow-up"),
    pytest.param(COMPLETES, False, True, "blow_up", 0, id="bootstrap-blow-up"),
])
def test_the_trace_says_why_the_run_stopped(monkeypatch, tmp_path, raw, until_unstable,
                                            bootstrap_blows_up, reason, rows):
    # each exit of run_simulation records its reason; a blow-up is at the
    # step after the last row (step 1 when the bootstrap blows up), and a
    # trace read back from its CSV file records none
    import chillwave.harness as harness
    from chillwave.diagnostics import VERDICT_THRESHOLD, EnergyTrace
    from chillwave.errors import NonFinite

    def blows_up(*args):
        raise NonFinite("bootstrap blew up")

    if bootstrap_blows_up:
        monkeypatch.setattr(harness, "bootstrap_first_step", blows_up)
    trace, _, _ = run_simulation(RunConfig(**raw), until_unstable=until_unstable)
    assert (trace.stop_reason, len(trace)) == (reason, rows)
    assert trace.blew_up == (reason == "blow_up")
    assert trace.rows["n"].tolist() == list(range(1, rows + 1))  # a blow-up is at rows + 1
    if reason == "energy_increase":
        dE = trace.rows["dE_mod"]
        assert dE[-1] > VERDICT_THRESHOLD and (dE[:-1] <= VERDICT_THRESHOLD).all()
    trace.write_csv(tmp_path / "trace.csv")
    back = EnergyTrace.read_csv(tmp_path / "trace.csv")
    assert back.stop_reason is None and not back.blew_up and math.isnan(back.max_residual)


def test_trace_time_is_step_times_tau(basis8):
    # a running sum of 0.01 is 0.09999999999999999 after 10 steps
    cfg = RunConfig(M=8, eps=0.25, gamma=1.0, tau=0.01, T=1.0, scheme="SL_CN",
                    A=0.25, B=8.0, seed=5, snapshot_every=10)
    snaps = Snapshots()
    trace, _, _ = run_simulation(cfg, basis=basis8, on_snapshot=snaps)
    assert len(trace) == 100
    assert (trace.rows["t"] == trace.rows["n"] * cfg.tau).all()
    assert [t for _, t, _ in snaps] == [n * cfg.tau for n, _, _ in snaps]


def test_run_trace_csv_deterministic(tmp_path, basis8):
    cfg = RunConfig(M=8, eps=0.25, gamma=1.0, tau=0.1, T=0.5, scheme="SL_BDF2",
                    A=0.25, B=8.0, seed=6)
    pa, pb = tmp_path / "a.csv", tmp_path / "b.csv"
    run_simulation(cfg, basis=basis8)[0].write_csv(pa)
    run_simulation(cfg, basis=basis8)[0].write_csv(pb)
    assert pa.read_bytes() == pb.read_bytes()


def test_initial_field_prepared_differs(basis16):
    base = dict(M=16, eps=0.1, gamma=0.0025, tau=0.1, T=1.0, scheme="SL_CN", seed=8)
    raw = initial_field(RunConfig(**base), basis16)
    prepared = initial_field(RunConfig(**base, initial="prepared"), basis16)
    assert np.abs(raw.coeffs - prepared.coeffs).max() > 1e-6
    assert mean_value(raw) == pytest.approx(mean_value(prepared), abs=1e-11)


def test_default_ladders():
    # 4 gamma/eps^2 and 2/eps are inexact in binary; the rungs are not
    lad_a = default_ladder("A", gamma=0.0025, eps=0.05)
    assert lad_a == [0.0] + [4.0 * 2.0**i for i in range(-7, 2)]
    lad_b = default_ladder("B", gamma=0.0025, eps=0.05)
    assert lad_b == [0.0] + [40.0 * 2.0**i for i in range(-3, 5)]
    assert lad_b[-1] == 640.0
    lad_c9 = default_ladder("A", gamma=1.0, eps=0.05)
    assert lad_c9 == [0.0] + [1600.0 * 2.0**i for i in range(-7, 2)]
    assert lad_c9[1] == 12.5 and lad_c9[5] == 200.0
    with pytest.raises(ValueError, match=re.escape("target must be one of A, B, got 'C'")):
        default_ladder("C", gamma=1.0, eps=0.05)


def test_sweep_config_validation():
    base = RunConfig(M=8, eps=0.25, gamma=1.0, tau=0.1, T=1.0, scheme="SL_BDF2")
    with pytest.raises(ValueError):
        SweepConfig(base=base, target="C", gamma_list=[1.0], tau_list=[0.1])
    with pytest.raises(ValueError):
        SweepConfig(base=base, target="A", gamma_list=[], tau_list=[0.1])
    with pytest.raises(ValueError):
        SweepConfig(base=base, target="A", gamma_list=[1.0], tau_list=[0.1],
                    ladder=[0.0, 2.0, 1.0])
    good = dict(base=base, target="A", gamma_list=[1.0], tau_list=[0.1])
    SweepConfig(**dict(good, gamma_list=[1], fixed_value=0))
    for bad in (
        dict(base=5), dict(base={"M": 8}),
        dict(gamma_list=1), dict(tau_list=0.1), dict(gamma_list=(1.0,)),
        dict(tau_list=[0.1, -0.1]), dict(gamma_list=[0.0]), dict(gamma_list=[True]),
        dict(gamma_list=[1.0, 1.0]), dict(tau_list=[0.1, 0.2, 0.1]),
        dict(tau_list=["0.1"]), dict(gamma_list=[float("nan")]),
        dict(fixed_value=-1.0), dict(fixed_value="0"), dict(fixed_value=None),
        dict(ladder=5), dict(ladder=[]), dict(ladder=[0.0, "1"]), dict(ladder=[-1.0, 0.0]),
    ):
        with pytest.raises(ValueError):
            SweepConfig(**dict(good, **bad))
    raw = dict(base=dict(M=8, eps=0.25, gamma=1.0, tau=0.1, T=1.0, scheme="SL_BDF2"),
               target="A", gamma_list=[1.0], tau_list=[0.1])
    for bad in (dict(base=5), dict(base=[1]), dict(gamma_list=1), dict(steps=8.0)):
        with pytest.raises(ValueError):
            sweep_config_from_dict(dict(raw, **bad))
    for not_an_object in ([1], "sweep", None):
        with pytest.raises(ValueError, match="JSON object"):
            sweep_config_from_dict(not_an_object)
        with pytest.raises(ValueError, match="JSON object"):
            run_config_from_dict(not_an_object)


@pytest.mark.parametrize("target", ["A", "B"])
@pytest.mark.parametrize("key", ["A", "B"])
def test_sweep_base_leaves_both_stabilizers_at_0(target, key):
    # a candidate takes its target from the ladder and the other stabilizer
    # from fixed_value, so a base's own A or B would be dropped unread
    base = RunConfig(M=8, eps=0.25, gamma=1.0, tau=0.1, T=1.0, scheme="SL_BDF2", **{key: 40.0})
    with pytest.raises(ValueError) as caught:
        SweepConfig(base=base, target=target, gamma_list=[1.0], tau_list=[0.1], fixed_value=40.0)
    message = str(caught.value)
    assert "\n" not in message
    assert message.startswith(f"{key} must be 0 in a sweep's base, got 40.0")
    assert "fixed_value" in message


def test_checked_sweep_types_are_frozen():
    # a field assigned after the checks would run a sweep they never saw
    from chillwave.harness import SWEEP_LOG_DTYPE, SweepResult

    base = RunConfig(M=8, eps=0.25, gamma=1.0, tau=0.1, T=1.0, scheme="SL_BDF2")
    sc = SweepConfig(base=base, target="A", gamma_list=[1.0], tau_list=[0.1])
    res = SweepResult(sc, np.zeros(0, SWEEP_LOG_DTYPE).view(np.recarray))
    for obj, name, value in ((sc, "target", "C"), (sc, "ladder", [0.0]), (sc, "base", None),
                             (res, "config", None), (res, "log", None)):
        with pytest.raises(FrozenInstanceError):
            setattr(obj, name, value)
    assert sc.target == "A" and sc.ladder is None and res.config is sc


def test_sweep_stable_at_zero_returns_zero(tmp_path):
    base = RunConfig(M=8, eps=0.25, gamma=1.0, tau=4e-5, T=64 * 4e-5,
                     scheme="SL_BDF2", seed=9)
    sc = SweepConfig(base=base, target="A", gamma_list=[1.0], tau_list=[4e-5])
    res = sweep_min_stabilizer(sc)
    assert res.cells[(1.0, 4e-5)] == 0.0
    res.write_csv(tmp_path / "sweep.csv")
    assert (tmp_path / "sweep.csv").read_text() == "tau,gamma=1\n4e-05,0\n"


def test_sweep_candidate_runs_its_base_step_count():
    # the base's T / tau sets every candidate's length, at the cell's own tau
    base = RunConfig(M=8, eps=0.25, gamma=1.0, tau=4e-5, T=32 * 4e-5,
                     scheme="SL_BDF2", seed=9)
    for tau in (4e-5, 2e-5):
        sc = SweepConfig(base=base, target="A", gamma_list=[1.0], tau_list=[tau])
        (row,) = sweep_min_stabilizer(sc).log
        assert (row.tau, row.verdict, row.stop_reason, row.rows_run) == (
            tau, "stable", "completed", 32)


def test_sweep_ladder_exhaustion_marker(tmp_path):
    base = RunConfig(M=8, eps=0.05, gamma=0.0025, tau=1.0, T=64.0,
                     scheme="SL_BDF2", seed=9)
    sc = SweepConfig(base=base, target="A", gamma_list=[0.0025], tau_list=[1.0],
                     ladder=[0.0, 1e-6])
    res = sweep_min_stabilizer(sc)
    assert res.cells[(0.0025, 1.0)] is None
    res.write_csv(tmp_path / "sweep.csv")
    assert (tmp_path / "sweep.csv").read_text() == "tau,gamma=0.0025\n1,>1e-06\n"


def test_sweep_csv_layout(tmp_path):
    base = RunConfig(M=8, eps=0.25, gamma=1.0, tau=4e-5, T=64 * 4e-5,
                     scheme="SL_BDF2", seed=9)
    sc = SweepConfig(base=base, target="A", gamma_list=[1.0], tau_list=[4e-5])
    res = sweep_min_stabilizer(sc)
    p = tmp_path / "sweep.csv"
    res.write_csv(p)
    lines = p.read_text().strip().splitlines()
    assert lines[0] == "tau,gamma=1"
    assert lines[1].startswith("4e-05,")


def test_sweep_result_reads_cells_and_ladders_off_its_log(tmp_path):
    # a result is its config plus its log: no run is needed to derive the
    # cells, the ladders and the ">X" text
    from chillwave.harness import SWEEP_LOG_DTYPE, SweepResult

    base = RunConfig(M=8, eps=0.25, gamma=1.0, tau=0.1, T=6.4, scheme="SL_CN")
    sc = SweepConfig(base=base, target="A", gamma_list=[1.0, 2.0], tau_list=[0.1],
                     ladder=[0.0, 1.0, 2.0])

    def record(gamma, candidate, stable):
        if stable:
            return (gamma, 0.1, candidate, "stable", 64, "completed", np.nan)
        return (gamma, 0.1, candidate, "unstable", 5, "energy_increase", 1e-3)

    # gamma = 1 stops at its first stable rung, gamma = 2 exhausts its ladder
    verdicts = {1.0: [False, True], 2.0: [False, False, False]}
    log = np.array([record(gamma, candidate, stable)
                    for gamma in (1.0, 2.0)
                    for candidate, stable in zip(sc.ladder, verdicts[gamma])], SWEEP_LOG_DTYPE)
    res = SweepResult(sc, log.view(np.recarray))
    assert res.cells == {(1.0, 0.1): 1.0, (2.0, 0.1): None}
    assert res.ladders == {(1.0, 0.1): [0.0, 1.0, 2.0], (2.0, 0.1): [0.0, 1.0, 2.0]}
    res.write_csv(tmp_path / "sweep.csv")
    assert (tmp_path / "sweep.csv").read_text() == "tau,gamma=1,gamma=2\n0.1,1,>2\n"


def test_nan_energy_increment_stops_a_sweep_candidate(monkeypatch):
    # a NaN dE_mod violates at every site that judges an increment: the
    # until_unstable stop, the log's first violation and the verdict
    import chillwave.harness as harness

    energies, calls = harness.step_energies, []

    def nan_on_third_row(*args):
        calls.append(None)
        e, e_mod, dt_sq, mean = energies(*args)
        return e, math.nan if len(calls) == 3 else e_mod, dt_sq, mean

    monkeypatch.setattr(harness, "step_energies", nan_on_third_row)
    base = RunConfig(M=8, eps=0.25, gamma=1.0, tau=4e-5, T=64 * 4e-5,
                     scheme="SL_BDF2", seed=9)
    sc = SweepConfig(base=base, target="A", gamma_list=[1.0], tau_list=[4e-5],
                     ladder=[0.0])
    (row,) = sweep_min_stabilizer(sc).log
    assert (row.verdict, row.stop_reason, row.rows_run) == ("unstable", "energy_increase", 3)
    assert math.isnan(row.max_dE_mod)


@pytest.mark.parametrize("above", [False, True], ids=["at-threshold", "just-above"])
def test_verdict_threshold_is_the_candidate_stop(monkeypatch, above):
    # a row whose dE_mod is exactly VERDICT_THRESHOLD passes the rule: the
    # candidate runs on and is stable; the next float up stops it on that row
    import chillwave.harness as harness
    from chillwave.diagnostics import VERDICT_THRESHOLD

    energies, calls = harness.step_energies, []
    dE = np.nextafter(VERDICT_THRESHOLD, np.inf) if above else VERDICT_THRESHOLD

    def rises_by_dE_on_third_row(*args):
        # E_mod is 0 except on row 3, so row 3's dE_mod is exactly dE
        calls.append(None)
        e, _, dt_sq, mean = energies(*args)
        return e, dE if len(calls) == 3 else 0.0, dt_sq, mean

    monkeypatch.setattr(harness, "step_energies", rises_by_dE_on_third_row)
    base = RunConfig(M=8, eps=0.25, gamma=1.0, tau=4e-5, T=64 * 4e-5,
                     scheme="SL_BDF2", seed=9)
    sc = SweepConfig(base=base, target="A", gamma_list=[1.0], tau_list=[4e-5],
                     ladder=[0.0])
    (row,) = sweep_min_stabilizer(sc).log
    if above:
        assert (row.verdict, row.stop_reason, row.rows_run) == ("unstable", "energy_increase", 3)
    else:
        assert (row.verdict, row.stop_reason, row.rows_run) == ("stable", "completed", 64)
    assert row.max_dE_mod == dE  # row 3 is the largest either way


def ladder_walk(sc, gamma, tau):
    # the reference sweep: a full-length run per rung, without until_unstable
    # or a shared phi0, judged by stability_verdict
    from chillwave.harness import _candidate_config

    ladder = sc.ladder or default_ladder(sc.target, gamma, sc.base.eps)
    out = []
    for candidate in ladder:
        trace, _, _ = run_simulation(_candidate_config(sc, gamma, tau, candidate))
        out.append((candidate, trace, stability_verdict(trace, min_steps=sc.base.n_steps())))
    return out


def test_sweep_early_stop_keeps_every_verdict():
    # SL_CN at M = 8: A = 0 .. 2 break the 1e-10 bound after 28 to 57 of
    # 64 steps, A >= 4 are stable; the sweep runs the reference's rungs up
    # to its first stable one, A = 4, and stops there
    base = RunConfig(M=8, eps=0.25, gamma=1.0, tau=0.01, T=0.64, scheme="SL_CN", seed=42)
    sc = SweepConfig(base=base, target="A", gamma_list=[1.0], tau_list=[0.01])
    res = sweep_min_stabilizer(sc)
    reference = ladder_walk(sc, 1.0, 0.01)
    verdicts = [v for _, _, v in reference]
    assert set(verdicts) == {"stable", "unstable"}
    assert [r.verdict for r in res.log] == verdicts[:verdicts.index("stable") + 1]
    assert res.cells[(1.0, 0.01)] == 4.0
    stopped = 0
    for record, (candidate, full, verdict) in zip(res.log, reference):
        assert record.candidate == candidate
        first = next((r for r in full.rows if r["dE_mod"] > 1e-10), None)
        if first is None:
            assert (record.stop_reason, record.rows_run) == ("completed", 64)
            assert record.max_dE_mod == full.rows["dE_mod"][1:].max() < 0.0
            continue
        stopped += 1
        # the stopped run ends exactly at the full run's first violating row
        assert record.stop_reason == "energy_increase"
        assert record.rows_run == first["n"] < 64
        assert record.max_dE_mod == first["dE_mod"]  # every earlier row is <= 1e-10
        cfg = replace(base, A=candidate)
        short, _, _ = run_simulation(cfg, until_unstable=True)
        assert short.stop_reason == "energy_increase"
        assert np.array_equal(short.rows, full.rows[:first["n"]])
    assert stopped == 4


def test_sweep_builds_prepared_phi0_once(monkeypatch):
    import chillwave.harness as harness

    base = RunConfig(M=8, eps=0.25, gamma=1.0, tau=0.1, T=6.4, scheme="SL_CN", seed=42,
                     initial="prepared")
    sc = SweepConfig(base=base, target="A", gamma_list=[1.0], tau_list=[0.1])
    reference = ladder_walk(sc, 1.0, 0.1)
    expected = next(c for c, _, v in reference if v == "stable")
    calls = []
    prepare = harness.prepare_phi1

    def counted(phi0, eps):
        calls.append(eps)
        return prepare(phi0, eps)

    monkeypatch.setattr(harness, "prepare_phi1", counted)
    res = sweep_min_stabilizer(sc)
    assert calls == [0.25]
    assert len(res.log) > 1  # several candidates shared the one phi0
    assert res.cells[(1.0, 0.1)] == expected == 16.0


def test_sweep_config_from_dict_unknown_key():
    with pytest.raises(ValueError):
        sweep_config_from_dict({
            "base": dict(M=8, eps=0.25, gamma=1.0, tau=0.1, T=1.0, scheme="SL_BDF2"),
            "target": "A", "gamma_list": [1.0], "tau_list": [0.1], "rungs": [1],
        })


def test_convergence_zero_row_against_self():
    cfg = RunConfig(M=8, eps=0.25, gamma=1e-3, tau=0.01, T=0.04, scheme="SL_BDF2",
                    A=0.25, B=8.0, seed=11)
    rows = convergence_study(cfg, [0.01], 0.01)
    assert rows[0].h_minus1_err == 0.0
    assert rows[0].l2_err == 0.0
    assert rows[0].h1_err == 0.0
    assert math.isnan(rows[0].h_minus1_order)


def test_convergence_requires_divisible_tau():
    cfg = RunConfig(M=8, eps=0.25, gamma=1e-3, tau=0.01, T=0.05, scheme="SL_BDF2")
    with pytest.raises(ValueError):
        convergence_study(cfg, [0.03], 0.01)


def test_convergence_rejects_a_coarser_reference():
    # a tau_ref above the finest tau gave negative "orders"; equal is allowed
    cfg = RunConfig(M=8, eps=0.25, gamma=1e-3, tau=0.01, T=0.04, scheme="SL_BDF2",
                    A=0.25, B=8.0, seed=11)
    with pytest.raises(ValueError, match="the reference tau = 0.02 is coarser"):
        convergence_study(cfg, [0.01, 0.005], 0.02)


def test_convergence_orders_near_two():
    cfg = RunConfig(M=8, eps=0.25, gamma=1e-3, tau=0.02, T=0.08, scheme="SL_BDF2",
                    A=0.25, B=8.0, seed=11)
    # second order shows only once rate*tau << 1; the top 1-D eigenvalue
    # at M = 8 is about 536, so the ladder starts at tau = 0.01
    rows = convergence_study(cfg, [0.01, 0.005, 0.0025], 2.5e-4)
    for row in rows[1:]:
        for order in (row.h_minus1_order, row.l2_order, row.h1_order):
            assert 1.7 <= order <= 2.3
    # errors shrink monotonically
    errs = [r.l2_err for r in rows]
    assert errs[0] > errs[1] > errs[2]


def test_convergence_csv_format(tmp_path):
    cfg = RunConfig(M=8, eps=0.25, gamma=1e-3, tau=0.01, T=0.02, scheme="SL_BDF2",
                    A=0.25, B=8.0, seed=11)
    rows = convergence_study(cfg, [0.01], 0.005)
    p = tmp_path / "conv.csv"
    write_convergence_csv(rows, p)
    lines = p.read_text().strip().splitlines()
    assert lines[0] == "tau,h_minus1_err,h_minus1_order,l2_err,l2_order,h1_err,h1_order"
    assert lines[0] == ",".join(CONVERGENCE_DTYPE.names)
    # NaN orders serialize as empty cells
    assert lines[1].split(",")[2] == ""


def test_convergence_orders_need_a_halving(tmp_path):
    # 0.02 -> 0.005 is no halving: every order is NaN, an empty CSV cell
    cfg = RunConfig(M=8, eps=0.25, gamma=1e-3, tau=0.02, T=0.04, scheme="SL_BDF2",
                    A=0.25, B=8.0, seed=11)
    rows = convergence_study(cfg, [0.02, 0.005], 0.0025)
    assert rows.dtype == CONVERGENCE_DTYPE and isinstance(rows, np.recarray)
    for name in ("h_minus1", "l2", "h1"):
        assert (rows[name + "_err"] > 0.0).all() and np.isnan(rows[name + "_order"]).all()
    p = tmp_path / "conv.csv"
    write_convergence_csv(rows, p)
    for line in p.read_text().splitlines()[1:]:
        cells = line.split(",")
        assert [cells[i] for i in (2, 4, 6)] == ["", "", ""]
        assert all(cells[i] for i in (0, 1, 3, 5))


def test_convergence_order_is_nan_after_a_zero_error():
    # the tau_ref entry repeats the reference run exactly: its errors are 0
    # after a nonzero row at 2 tau_ref, and log2(err / 0) is no order
    cfg = RunConfig(M=8, eps=0.25, gamma=1e-3, tau=0.01, T=0.04, scheme="SL_BDF2",
                    A=0.25, B=8.0, seed=11)
    rows = convergence_study(cfg, [0.01, 0.005], 0.005)
    assert rows.dtype == CONVERGENCE_DTYPE
    for name in ("h_minus1", "l2", "h1"):
        assert rows[name + "_err"][0] > 0.0 and rows[name + "_err"][1] == 0.0
        assert np.isnan(rows[name + "_order"]).all()


@pytest.mark.parametrize("initial", ["random", "prepared"])
def test_convergence_rows_are_error_norms_of_lean_finals(initial):
    # a row's errors are error_norms of the lean_final at its tau against
    # the one at tau_ref, both from initial_field(cfg), bit for bit
    cfg = RunConfig(M=8, eps=0.25, gamma=1e-3, tau=0.02, T=0.08, scheme="SL_CN",
                    A=0.25, B=8.0, seed=11, initial=initial)
    rows = convergence_study(cfg, [0.02, 0.01], 0.0025)
    phi0 = initial_field(cfg)
    ref = lean_final(phi0, replace(cfg, tau=0.0025), 32)
    for row, tau, n in zip(rows, (0.02, 0.01), (4, 8)):
        want = error_norms(lean_final(phi0, replace(cfg, tau=tau), n), ref)
        assert (row.h_minus1_err, row.l2_err, row.h1_err) == tuple(want)


def test_library_runs_without_scipy(tmp_path):
    # numpy is the only dependency: a run, a convergence study and a
    # snapshot round trip in a fresh interpreter import no scipy module
    code = f"""
import sys
import chillwave as cw
basis = cw.assemble_basis(8)
cfg = cw.RunConfig(M=8, eps=0.25, gamma=1.0, tau=0.1, T=0.3, scheme="SL_BDF2",
                   A=0.25, B=8.0, seed=6)
trace, final, _ = cw.run_simulation(cfg, basis=basis)
cw.convergence_study(cfg, [0.1], 0.05)
path = {str(tmp_path / "final.csv")!r}
cw.write_snapshot(final, path, eps=0.25, gamma=1.0, t=0.3, step=3)
cw.read_snapshot(path)
loaded = sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))
print(len(trace), loaded)
"""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == ["3", "[]"]
