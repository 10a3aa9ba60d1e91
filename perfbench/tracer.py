"""Spans around calls into chillwave, recorded from outside the package.

`Tracer.install` replaces the functions named in `TRACED` with timing
wrappers on their own module and on every chillwave module that rebound
them with `from ... import`, so calls between layers are seen as well as
the benchmark's own calls. `uninstall` puts the originals back. A span is
(name, start, end, parent index, info); spans stay in memory until the
caller takes them. `info` carries counts read from a call's arguments and
result (matmuls and flops from array shapes, potential points, run steps).
A listed name the package no longer has is skipped, so a refactor of
the package costs the metrics built on that name, not the run.
"""

from __future__ import annotations

import sys
import time

import numpy as np

TRACED = {
    "spectral1d": ("assemble_basis",),
    "field2d": (
        "to_nodal", "from_nodal", "to_modal", "from_modal",
        "mass_apply", "stiffness_apply", "nonlinear_load",
        "modal_decomposition", "write_snapshot",
    ),
    "potential": ("potential_deriv", "potential_value"),
    "timestepping": (
        "build_step_operator", "step", "_advance", "solve_blocks",
        "evolve_first_order", "bootstrap_first_step",
    ),
    "diagnostics": (
        "modified_energy", "energy_eps", "error_norms", "stability_verdict",
        "EnergyTrace.write_csv",
    ),
    "harness": (
        "initial_field", "prepare_phi1", "run_simulation", "_march",
        "_sweep_cell", "sweep_min_stabilizer", "convergence_study",
    ),
    "cli": ("main",),
}


# (dense matmuls, flops) of one call, computed from the shapes it takes and
# returns at 2 m n k flops per product. The triangular Gram solves inside
# from_nodal are not counted.
def _modal_transform(args, res):
    m = res.shape[0]
    return 2, 4 * m**3


def _stiffness(args, res):
    m = res.shape[0]
    return 4, 8 * m**3


def _load(args, res):
    # M x M coefficients -> 2M x 2M grid -> M x M load: (4 + 8 + 8 + 4) M^3
    m = res.shape[0]
    return 4, 24 * m**3


def _to_nodal(args, res):
    p, m = res.values.shape[0], res.basis.M
    return 2, 2 * p * m * m + 2 * p * p * m


def _from_nodal(args, res):
    p, m = args[0].values.shape[0], res.basis.M
    return 2, 2 * m * p * p + 2 * m * m * p


INFO = {
    "field2d.to_modal": _modal_transform,
    "field2d.from_modal": _modal_transform,
    "field2d.mass_apply": _modal_transform,
    "field2d.stiffness_apply": _stiffness,
    "field2d.nonlinear_load": _load,
    "field2d.to_nodal": _to_nodal,
    "field2d.from_nodal": _from_nodal,
    "potential.potential_deriv": lambda args, res: int(np.size(res)),
    "harness.run_simulation": lambda args, res: (len(res[0]), res[0].blew_up),
    "harness._march": lambda args, res: int(round(args[1].T / args[2])),
    # a blown-up trace is judged unstable without a look at its rows;
    # run_simulation's info already counts it as rejected
    "diagnostics.stability_verdict": (
        lambda args, res: len(args[0]) if res == "unstable" and not args[0].blew_up else 0
    ),
}


class Tracer:
    def __init__(self):
        self.spans: list = []
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def take(self) -> list:
        """Return the spans recorded so far and start a new list."""
        spans, self.spans = self.spans, []
        return spans

    def _wrap(self, name, fn):
        info = INFO.get(name)
        stack = self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            spans = self.spans
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                spans[index] = (name, start, clock(), parent, None)
                raise
            finally:
                stack.pop()
            spans[index] = (name, start, clock(), parent,
                            info(args, result) if info else None)
            return result

        return traced

    def install(self) -> None:
        wrappers = {}
        for mod_name, names in TRACED.items():
            module = sys.modules["chillwave." + mod_name]
            for qualname in names:
                owner, attr = module, qualname
                if "." in qualname:
                    cls_name, attr = qualname.split(".")
                    owner = getattr(module, cls_name, None)
                original = getattr(owner, attr, None)
                if original is None:
                    continue
                wrappers[id(original)] = (original, self._wrap(f"{mod_name}.{attr}", original))
                if owner is not module:  # a method: rebinding below covers modules only
                    _patch(self._patches, owner, attr, wrappers[id(original)][1])
        _rebind(wrappers, self._patches)

    def uninstall(self) -> None:
        _restore(self._patches)


def _patch(patches: list, owner, attr: str, value) -> None:
    patches.append((owner, attr, getattr(owner, attr)))
    setattr(owner, attr, value)


def _rebind(wrappers: dict, patches: list) -> None:
    """Replace, in every chillwave module, each name bound to an original
    in `wrappers` (id -> (original, wrapper)), including names rebound by
    `from ... import`."""
    for name, module in list(sys.modules.items()):
        if name != "chillwave" and not name.startswith("chillwave."):
            continue
        for attr, value in list(vars(module).items()):
            hit = wrappers.get(id(value))
            if hit is not None and hit[0] is value:
                _patch(patches, module, attr, hit[1])


def _restore(patches: list) -> None:
    while patches:
        owner, attr, original = patches.pop()
        setattr(owner, attr, original)


# ---------------------------------------------------------------------------
# per-layer metrics from one list of spans

TRANSFORMS = frozenset(
    ("field2d.to_modal", "field2d.from_modal", "field2d.to_nodal", "field2d.from_nodal")
)
APPLIES = frozenset(("field2d.mass_apply", "field2d.stiffness_apply"))
COUNTED = TRANSFORMS | APPLIES | {"field2d.nonlinear_load"}
ENERGIES = frozenset(
    ("diagnostics.modified_energy", "diagnostics.energy_eps", "diagnostics.error_norms")
)
WRITES = frozenset(("field2d.write_snapshot", "diagnostics.write_csv"))


class SpanTable:
    """Column view of a span list with the sums the metrics need."""

    def __init__(self, spans: list):
        self.names = [s[0] for s in spans]
        self.dur = [s[2] - s[1] for s in spans]
        self.parent = [s[3] for s in spans]
        self.info = [s[4] for s in spans]
        self.child = [0.0] * len(spans)
        for d, p in zip(self.dur, self.parent):
            if p >= 0:
                self.child[p] += d

    def calls(self, names) -> int:
        return sum(1 for n in self.names if n in names)

    def seconds(self, names) -> float:
        return sum(d for n, d in zip(self.names, self.dur) if n in names)

    def outer_seconds(self, names) -> float:
        """Time in spans of `names` not nested in another span of `names`."""
        inside = [False] * len(self.names)
        total = 0.0
        for i, (n, p) in enumerate(zip(self.names, self.parent)):
            nested = p >= 0 and inside[p]
            inside[i] = nested or n in names
            if n in names and not nested:
                total += self.dur[i]
        return total

    def self_seconds(self, prefix: str) -> float:
        return sum(
            d - c for n, d, c in zip(self.names, self.dur, self.child) if n.startswith(prefix)
        )

    def info_sum(self, names, pick=lambda v: v) -> float:
        return sum(pick(v) for n, v in zip(self.names, self.info) if n in names and v is not None)

    def child_seconds(self, names, parent_name: str) -> float:
        return sum(
            d for n, d, p in zip(self.names, self.dur, self.parent)
            if n in names and p >= 0 and self.names[p] == parent_name
        )

    def seconds_unless_parent(self, name: str, parent_name: str) -> float:
        return sum(
            d for n, d, p in zip(self.names, self.dur, self.parent)
            if n == name and not (p >= 0 and self.names[p] == parent_name)
        )


def setup_metrics(spans: list) -> dict:
    t = SpanTable(spans)
    return {
        "spectral1d.assemble_basis_ms": 1e3 * t.seconds({"spectral1d.assemble_basis"}),
        "field2d.modal_decomposition_ms": 1e3 * t.seconds({"field2d.modal_decomposition"}),
        "harness.prepare_ms": 1e3 * t.seconds({"harness.prepare_phi1"}),
    }


def rep_metrics(spans: list, wall_s: float) -> dict:
    """Per-layer metrics of one traced repetition of a workload."""
    t = SpanTable(spans)
    runs = {"harness.run_simulation"}
    steps = t.info_sum(runs, lambda v: v[0]) + t.info_sum({"harness._march"})
    rejected = (
        t.info_sum(runs, lambda v: v[0] if v[1] else 0)
        + t.info_sum({"diagnostics.stability_verdict"})
    )
    solve = t.seconds({"timestepping.solve_blocks"})
    per_step = 1.0 / steps if steps else 0.0
    return {
        "field2d.transform_calls": t.calls(TRANSFORMS),
        "field2d.transform_ms": 1e3 * t.outer_seconds(TRANSFORMS),
        "field2d.operator_apply_calls": t.calls(APPLIES),
        "field2d.operator_apply_ms": 1e3 * t.outer_seconds(APPLIES),
        "field2d.nonlinear_load_calls": t.calls({"field2d.nonlinear_load"}),
        "field2d.nonlinear_load_ms": 1e3 * t.seconds({"field2d.nonlinear_load"}),
        "field2d.matmuls_per_step": per_step * t.info_sum(COUNTED, lambda v: v[0]),
        "field2d.flops_per_step": per_step * t.info_sum(COUNTED, lambda v: v[1]),
        "potential.deriv_points": t.info_sum({"potential.potential_deriv"}),
        "potential.deriv_ms": 1e3 * t.seconds({"potential.potential_deriv"}),
        "potential.value_ms": 1e3 * t.seconds({"potential.potential_value"}),
        "timestepping.step_calls": t.calls({"timestepping._advance"}),
        "timestepping.step_self_ms": 1e3 * t.self_seconds("timestepping."),
        "timestepping.solve_blocks_ms": 1e3 * solve,
        "timestepping.residual_share": (
            t.child_seconds(APPLIES, "timestepping.solve_blocks") / solve if solve else 0.0
        ),
        "timestepping.bootstrap_ms": 1e3 * t.seconds_unless_parent(
            "timestepping.evolve_first_order", "harness.prepare_phi1"
        ),
        "diagnostics.modified_energy_ms": 1e3 * t.seconds({"diagnostics.modified_energy"}),
        "diagnostics.energy_eps_ms": 1e3 * t.seconds({"diagnostics.energy_eps"}),
        "diagnostics.share": t.outer_seconds(ENERGIES) / wall_s,
        "diagnostics.error_norms_ms": 1e3 * t.seconds({"diagnostics.error_norms"}),
        "harness.runs": t.calls(runs | {"harness._march"}),
        "harness.runs_blown_up": t.info_sum(runs, lambda v: int(v[1])),
        "harness.steps_total": steps,
        "harness.unstable_step_share": rejected / steps if steps else 0.0,
        "cli.write_ms": 1e3 * t.outer_seconds(WRITES),
    }
