"""Every mode, step, substep and row count goes through one check,
`errors.check_count`: an integer (a numpy one too, not a bool) no
smaller than the count's least value, or a one-line ValueError."""
import re

import numpy as np
import pytest

from chillwave import (
    SchemeParams, assemble_basis, bootstrap_first_step, build_step_operator, gauss_legendre,
    march, stability_verdict,
)
from chillwave.diagnostics import TRACE_DTYPE, EnergyTrace
from chillwave.harness import RunConfig, SweepConfig, random_nodal_field

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
    "bootstrap_first_step": (
        "m", 1, lambda basis, m: bootstrap_first_step(random_nodal_field(basis, 9), PARAMS, m)),
    "stability_verdict": (
        "min_steps", 1,
        lambda basis, k: stability_verdict(EnergyTrace(np.zeros(4, TRACE_DTYPE)), min_steps=k)),
    "RunConfig.M": ("M", 4, lambda basis, M: RunConfig(**dict(RUN, M=M))),
    "RunConfig.m": ("m", 1, lambda basis, m: RunConfig(**dict(RUN, m=m))),
    "RunConfig.snapshot_every": (
        "snapshot_every", 0, lambda basis, k: RunConfig(**dict(RUN, snapshot_every=k))),
    "SweepConfig.steps": ("steps", 1, lambda basis, k: SweepConfig(
        base=RunConfig(**RUN), target="A", gamma_list=[1.0], tau_list=[0.1], steps=k)),
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
    assert RunConfig(**dict(RUN, M=np.int64(8), m=np.uint8(2))).M == 8
