"""Every mode, step, row count and seed goes through one check,
`errors.check_count`: an integer (a numpy one too, not a bool) no
smaller than the count's least value, or a one-line ValueError; a mode
count M must also be even (`errors.check_modes`). Every
step size, mobility, interface width, stabilizer, Lipschitz bound and
final time, and each entry of a config's lists, goes through
`errors.check_number`: a finite real number (a numpy one too, not a
bool) in its range. Every scheme, initial datum and sweep target goes
through `errors.check_choice`: a string among its choices."""
import math
import re

import numpy as np
import pytest

from chillwave import (
    Basis1D, SchemeParams, assemble_basis, build_step_operator, default_ladder, gauss_legendre,
    lean_final, march, read_snapshot, stability_verdict, sufficient_stabilizers,
)
from chillwave import harness, spectral1d
from chillwave.diagnostics import TRACE_DTYPE, EnergyTrace
from chillwave.harness import (
    RunConfig, SweepConfig, convergence_study, prepare_params, random_nodal_field, splitmix64,
)

RUN = dict(M=8, eps=0.25, gamma=1.0, tau=0.1, T=1.0, scheme="SL_CN")
PARAMS = SchemeParams("SL_CN", tau=0.05, gamma=1.0, eps=0.25)


def march_states(basis, n_steps, grids):
    # every state march yields before it raises
    v = random_nodal_field(basis, 9).v
    seen = []
    for state in march(build_step_operator(PARAMS, basis), v, v, n_steps, grids=grids):
        seen.append(state)
    return seen


# caller -> (the count's name, its least value, a call that passes it)
CALLERS = {
    "gauss_legendre": ("n", 1, lambda basis, n: gauss_legendre(n)),
    "assemble_basis": ("M", 4, lambda basis, M: assemble_basis(M)),
    "march": ("n_steps", 0, lambda basis, n: march_states(basis, n, True)),
    "march_lean": ("n_steps", 0, lambda basis, n: march_states(basis, n, False)),
    "lean_final": (
        "n_steps", 1, lambda basis, n: lean_final(random_nodal_field(basis, 9), PARAMS, n)),
    "stability_verdict": (
        "min_steps", 1,
        lambda basis, k: stability_verdict(EnergyTrace(np.zeros(4, TRACE_DTYPE)), min_steps=k)),
    "RunConfig.M": ("M", 4, lambda basis, M: RunConfig(**dict(RUN, M=M))),
    "RunConfig.seed": ("seed", 0, lambda basis, seed: RunConfig(**dict(RUN, seed=seed))),
    "RunConfig.snapshot_every": (
        "snapshot_every", 0, lambda basis, k: RunConfig(**dict(RUN, snapshot_every=k))),
    "splitmix64": ("count", 0, lambda basis, n: splitmix64(1, n)),
}


@pytest.mark.parametrize("bad", ["fraction", "bool", "below_least"])
@pytest.mark.parametrize("caller", list(CALLERS))
def test_every_count_is_an_integer_at_least_its_least(basis8, caller, bad):
    # a float, a bool or a value below the least raises the one message,
    # not a TypeError from deep inside; march raises before its first state
    name, least, call = CALLERS[caller]
    value = {"fraction": 2.5, "bool": True, "below_least": least - 1}[bad]
    message = f"{name} must be an integer >= {least}, got {value!r}"
    with pytest.raises(ValueError, match=re.escape(message)):
        call(basis8, value)


def test_numpy_integer_counts_pass(basis8):
    assert assemble_basis(np.int64(4)).M == 4
    assert len(gauss_legendre(np.int32(3))[0]) == 3
    assert len(march_states(basis8, np.int64(2), False)) == 3
    assert RunConfig(**dict(RUN, M=np.int64(8), seed=np.uint64(7))).M == 8


def test_basis_reads_M_off_lam():
    # M is len(lam), so it cannot disagree with the pair: passing it is a
    # TypeError, and a pair too short or of mismatched shapes is a ValueError
    b = assemble_basis(4)
    assert Basis1D(b.lam, b.E).M == 4
    for M in (4.0, 3, True):
        with pytest.raises(TypeError):
            Basis1D(M, b.lam, b.E)
        with pytest.raises(TypeError):
            Basis1D(M=M, lam=b.lam, E=b.E)
    with pytest.raises(ValueError, match=re.escape("M must be an integer >= 4, got 3")):
        Basis1D(b.lam[:3], b.E[:3, :3])
    with pytest.raises(ValueError, match=re.escape("E must be M x M = 4 x 4")):
        Basis1D(b.lam, b.E[:, :3])


def snapshot_of(M, path):
    # read_snapshot of a file whose header and body are those of M modes
    row = ",".join(["0.0"] * M) + "\n"
    path.write_text(f"M,eps,gamma,t,step\n{M},0.25,1.0,0.5,5\n" + row * M)
    return read_snapshot(path)


# caller -> a call that passes it M (and the path of the snapshot file it reads)
MODES = {
    "RunConfig": lambda M, path: RunConfig(**dict(RUN, M=M)),
    "assemble_basis": lambda M, path: assemble_basis(M),
    "Basis1D": lambda M, path: Basis1D(np.zeros(M), np.eye(M)),
    "read_snapshot": snapshot_of,
}


@pytest.mark.parametrize("M", [5, 9])
@pytest.mark.parametrize("caller", list(MODES))
def test_every_M_is_even(monkeypatch, tmp_path, caller, M):
    # an odd M raises the one-line message before any basis exists: no
    # Gauss rule and no eigh runs, and a snapshot's message names its file
    def unreached(*args):
        raise AssertionError("a basis was being built")

    monkeypatch.setattr(np.linalg, "eigh", unreached)
    monkeypatch.setattr(spectral1d, "gauss_legendre", unreached)
    path = tmp_path / "snap.csv"
    prefix = f"snapshot {path}: " if caller == "read_snapshot" else ""
    with pytest.raises(ValueError, match=f"^{re.escape(prefix)}M must be even, got {M}$"):
        MODES[caller](M, path)


SWEEP = dict(base=RunConfig(**RUN), target="A", gamma_list=[1.0], tau_list=[0.1])


def scheme(**number):
    return SchemeParams(**dict(dict(scheme="SL_CN", tau=0.1, gamma=1.0, eps=0.25), **number))


def converge(tau_list=None, tau_ref=0.25):
    return convergence_study(RunConfig(**RUN), [0.5] if tau_list is None else tau_list, tau_ref)


def stabilizers(**number):
    return sufficient_stabilizers(
        **dict(dict(scheme="SL_BDF2", eps=0.05, gamma=1.0, tau=0.1, L=11.0), **number))


# caller -> (the number's name, its range, a value out of it, a call that passes it)
NUMBERS = {
    "SchemeParams.tau": ("tau", "> 0", 0.0, lambda x: scheme(tau=x)),
    "SchemeParams.gamma": ("gamma", "> 0", -1.0, lambda x: scheme(gamma=x)),
    "SchemeParams.eps": ("eps", "> 0, and <= 1", 1.5, lambda x: scheme(eps=x)),
    "SchemeParams.A": ("A", ">= 0", -1.0, lambda x: scheme(A=x)),
    "SchemeParams.B": ("B", ">= 0", -1.0, lambda x: scheme(B=x)),
    "RunConfig.eps": ("eps", "> 0, and <= 1", 0.0, lambda x: RunConfig(**dict(RUN, eps=x))),
    "RunConfig.T": ("T", "> 0", -1.0, lambda x: RunConfig(**dict(RUN, T=x))),
    "SweepConfig.fixed_value": (
        "fixed_value", ">= 0", -1.0, lambda x: SweepConfig(**dict(SWEEP, fixed_value=x))),
    "SweepConfig.gamma_list": (
        "gamma_list[1]", "> 0", 0.0, lambda x: SweepConfig(**dict(SWEEP, gamma_list=[1.0, x]))),
    "SweepConfig.tau_list": (
        "tau_list[0]", "> 0", -0.1, lambda x: SweepConfig(**dict(SWEEP, tau_list=[x]))),
    "SweepConfig.ladder": (
        "ladder[1]", ">= 0", -1.0, lambda x: SweepConfig(**dict(SWEEP, ladder=[0.0, x]))),
    "convergence_study.tau_list": (
        "tau_list[1]", "> 0", 0.0, lambda x: converge(tau_list=[0.5, x])),
    "convergence_study.tau_ref": ("tau_ref", "> 0", 0.0, lambda x: converge(tau_ref=x)),
    "prepare_params": ("eps", "> 0, and <= 1", 2.0, prepare_params),
    "default_ladder.gamma": ("gamma", "> 0", -1.0, lambda x: default_ladder("A", x, 0.05)),
    "default_ladder.eps": ("eps", "> 0, and <= 1", 0.0, lambda x: default_ladder("A", 1.0, x)),
    "default_ladder.eps_of_B": (
        "eps", "> 0, and <= 1", -0.1, lambda x: default_ladder("B", 1.0, x)),
    "sufficient_stabilizers.eps": ("eps", "> 0, and <= 1", 0.0, lambda x: stabilizers(eps=x)),
    "sufficient_stabilizers.gamma": ("gamma", "> 0", 0.0, lambda x: stabilizers(gamma=x)),
    "sufficient_stabilizers.tau": ("tau", "> 0", 0.0, lambda x: stabilizers(tau=x)),
    "sufficient_stabilizers.L": ("L", "> 0", -11.0, lambda x: stabilizers(L=x)),
}


@pytest.mark.parametrize(
    "bad", ["bool", "string", "none", "nan", "inf", "past_the_floats", "out_of_range"])
@pytest.mark.parametrize("caller", list(NUMBERS))
def test_every_number_is_finite_and_in_range(monkeypatch, caller, bad):
    # a bool, a string, None, NaN, infinity, an integer too large for a
    # float or a value out of range raises the one message naming the key,
    # not a TypeError or an OverflowError, and before any run
    monkeypatch.setattr(harness, "initial_field", None)  # a run would call it
    name, bound, out, call = NUMBERS[caller]
    value = {"bool": True, "string": "1", "none": None, "nan": math.nan, "inf": math.inf,
             "past_the_floats": 10**400, "out_of_range": out}[bad]
    message = f"{name} must be a finite number {bound}, got {value!r}"
    with pytest.raises(ValueError, match=re.escape(message)):
        call(value)


# caller -> (the name's key, its choices, a wrong-case choice, a call that passes it)
CHOICES = {
    "SchemeParams": (
        "scheme", "SL_BDF2, SL_CN, FIRST_ORDER", "sl_cn", lambda x: scheme(scheme=x)),
    "RunConfig.scheme": (
        "scheme", "SL_BDF2, SL_CN", "sl_bdf2", lambda x: RunConfig(**dict(RUN, scheme=x))),
    "RunConfig.initial": (
        "initial", "random, prepared", "Random", lambda x: RunConfig(**dict(RUN, initial=x))),
    "SweepConfig.target": ("target", "A, B", "a", lambda x: SweepConfig(**dict(SWEEP, target=x))),
    "default_ladder": ("target", "A, B", "b", lambda x: default_ladder(x, 1.0, 0.05)),
    "sufficient_stabilizers": (
        "scheme", "SL_BDF2, SL_CN", "Sl_Cn", lambda x: stabilizers(scheme=x)),
}


@pytest.mark.parametrize("bad", ["wrong_case", "list", "dict", "none", "int"])
@pytest.mark.parametrize("caller", list(CHOICES))
def test_every_choice_is_a_string_among_its_choices(caller, bad):
    # a word in the wrong case, a list or dict holding a choice, None or an
    # int raises the one message listing the choices, not a TypeError
    name, choices, wrong_case, call = CHOICES[caller]
    first = choices.split(", ")[0]
    value = {"wrong_case": wrong_case, "list": [first], "dict": {first: 1}, "none": None,
             "int": 1}[bad]
    message = f"{name} must be one of {choices}, got {value!r}"
    with pytest.raises(ValueError, match=re.escape(message)):
        call(value)


# calls whose numbers pass check_number but whose theorem bound does not
# fit a float -> (the call, the inputs its message names)
UNREPRESENTABLE = {
    "sufficient_stabilizers.eps_squared_underflows": (
        lambda: sufficient_stabilizers("SL_BDF2", 1e-200, 0.0025, 0.01, 11.0),
        "SL_BDF2 at eps = 1e-200, gamma = 0.0025, tau = 0.01, L = 11.0"),
    "sufficient_stabilizers.A_overflows": (
        lambda: sufficient_stabilizers("SL_CN", 0.05, 1.0, 0.01, 1e200),
        "SL_CN at eps = 0.05, gamma = 1.0, tau = 0.01, L = 1e+200"),
    "sufficient_stabilizers.A_underflows": (
        lambda: sufficient_stabilizers("SL_CN", 1.0, 5e-324, 0.01, 1.0),
        "SL_CN at eps = 1.0, gamma = 5e-324, tau = 0.01, L = 1.0"),
}


@pytest.mark.parametrize("case", list(UNREPRESENTABLE))
def test_theorem_bounds_are_finite_floats(case):
    # a denominator that underflows to 0 or a quotient that overflows or
    # underflows to 0 raises the one message naming the inputs: no
    # ZeroDivisionError, no inf and no 0 from a positive bound
    call, inputs = UNREPRESENTABLE[case]
    message = f"a theorem bound is not a finite float for {inputs}"
    with pytest.raises(ValueError, match=re.escape(message)):
        call()


# default_ladder inputs that pass check_number but give no ladder of
# finite, strictly increasing rungs -> the one-line message
INF_RUNG = "ladder[1] must be a finite number >= 0, got inf"
UNLADDERED = {
    "A_eps_squared_underflows": (("A", 1.0, 1e-200), INF_RUNG),
    "A_base_overflows": (("A", 1e308, 1.0), INF_RUNG),
    "B_base_overflows": (("B", 1.0, 5e-324), INF_RUNG),
    "A_rungs_underflow": (("A", 5e-324, 1.0), "ladder must be strictly increasing, got [0.0, 0.0,"),
}


@pytest.mark.parametrize("case", list(UNLADDERED))
def test_default_ladder_rungs_are_finite_and_increasing(case):
    # no ZeroDivisionError and no inf rung: a ladder override with such
    # rungs is rejected too
    args, message = UNLADDERED[case]
    with pytest.raises(ValueError, match=re.escape(message)):
        default_ladder(*args)


def test_numpy_float_numbers_pass():
    f = np.float64
    assert scheme(tau=f(0.1), gamma=f(1.0), eps=f(0.25), A=f(1.0), B=f(0.0)).eps == 0.25
    assert RunConfig(**dict(RUN, eps=f(0.25), T=f(1.0))).n_steps() == 10
    SweepConfig(**dict(SWEEP, gamma_list=[f(1.0)], tau_list=[f(0.1)], fixed_value=f(0.0),
                       ladder=[f(0.0), f(1.0)]))
    assert prepare_params(f(0.25)).eps == 0.25
    assert default_ladder("A", f(1.0), f(0.05))[-1] == 3200.0
    assert len(converge(tau_list=[f(0.5)], tau_ref=f(0.25))) == 1
