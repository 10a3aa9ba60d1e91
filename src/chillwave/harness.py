"""Experiment harness: seeded initial data, simulation runs, minimum-
stabilizer sweeps, and temporal convergence studies.

Everything here is deterministic given the config (seed included). Every
run starts with `bootstrap_first_step` and then steps with `march`.
Results are data: a run's trace is one record array that its loop over
`march`'s states fills row by row, and a sweep's result is its config
plus the log of every candidate run, from which cells, ladders and
anomalies are read.
"""

from __future__ import annotations

import math
import sys
from dataclasses import MISSING, astuple, dataclass, field, fields, replace

import numpy as np

from .diagnostics import (
    TRACE_DTYPE, VERDICT_THRESHOLD, EnergyTrace, energy_weights, error_norms, stability_verdict,
    step_energies,
)
from .errors import NonFinite
from .field2d import Field
from .spectral1d import Basis1D, assemble_basis
from .timestepping import SchemeParams, bootstrap_first_step, build_step_operator, march

_GOLDEN = np.uint64(0x9E3779B97F4A7C15)
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)


def splitmix64(seed: int, count: int) -> np.ndarray:
    """First `count` outputs of the SplitMix64 stream for `seed`.

    The generator state advances by the 64-bit golden-ratio constant per
    draw and each state is finalized by the xorshift-multiply mix; matches
    the published reference outputs (seed 0 starts 0xE220A8397B1DCDAF, ...).
    """
    idx = np.arange(1, count + 1, dtype=np.uint64)
    z = np.uint64(seed & 0xFFFFFFFFFFFFFFFF) + idx * _GOLDEN
    z = (z ^ (z >> np.uint64(30))) * _MIX1
    z = (z ^ (z >> np.uint64(27))) * _MIX2
    return z ^ (z >> np.uint64(31))


def _uniform_pm1(seed: int, count: int) -> np.ndarray:
    return 2.0 * (splitmix64(seed, count).astype(np.float64) * 2.0**-64) - 1.0


def random_nodal_field(basis: Basis1D, seed: int) -> Field:
    """Seeded uniform [-1, 1] noise at the 2M x 2M Gauss nodes (row-major
    by x-index then y-index), L^2-projected onto V_M x V_M."""
    P = 2 * basis.M
    G = basis.G
    return Field(basis, G @ _uniform_pm1(seed, P * P).reshape(P, P) @ G.T)


def prepare_phi1(phi0: Field, eps: float) -> Field:
    """Relax random noise into a developed-interface state: the first-order
    bootstrap to time 64 eps^3 in 64 substeps of eps^3, unit mobility,
    stabilizer B = 1/eps."""
    _check_prepare_eps(eps)
    params = SchemeParams(scheme="FIRST_ORDER", tau=64.0 * eps**3, gamma=1.0, eps=eps)
    return bootstrap_first_step(phi0, params, m=64)


def _check_prepare_eps(eps: float) -> None:
    # the substep eps^3 must be a normal float: 64 eps^3 > 0, and its
    # reciprocal, the bootstrap's step coefficient, stays finite
    if not (0.0 < eps <= 1.0 and eps**3 >= sys.float_info.min):
        raise ValueError(
            f"eps must be in (0, 1] with eps^3 a normal float to prepare phi1, got {eps!r}"
        )


def _step_count(T: float, tau: float) -> int:
    """Steps of size tau that reach T; raises unless T is a positive
    integer multiple of tau (up to 1e-9 relative rounding slack)."""
    r = T / tau
    n = round(r) if math.isfinite(r) else 0
    if n < 1 or abs(r - n) > 1e-9 * max(1.0, r):
        raise ValueError(f"T = {T} is not a positive integer multiple of tau = {tau}")
    return n


_NUMBER = (int, float)


def _is(value, kinds) -> bool:
    # JSON gives 48.0 for 48 and true for 1; neither passes as an int
    return isinstance(value, kinds) and not isinstance(value, bool)


def _check_positive_list(name: str, value) -> None:
    # distinct: a repeat would rerun a sweep cell or a convergence tau
    if not (isinstance(value, list) and value
            and all(_is(v, _NUMBER) and 0.0 < v < math.inf for v in value)
            and len(set(value)) == len(value)):
        raise ValueError(f"{name} must be a non-empty list of distinct finite numbers > 0, "
                         f"got {value!r}")


@dataclass
class RunConfig:
    """Single-simulation configuration; JSON keys match field names."""

    M: int
    eps: float
    gamma: float
    tau: float
    T: float
    scheme: str
    A: float = 0.0
    B: float = 0.0
    seed: int = 42
    initial: str = "random"  # "random" (raw noise) or "prepared" (phi1 state)
    m: int = 10  # bootstrap substep count
    snapshot_every: int = 0  # steps between snapshots; 0 disables
    out_dir: str | None = None

    def __post_init__(self):
        if not (self.out_dir is None or isinstance(self.out_dir, str)):
            raise ValueError(f"out_dir must be a path string or null, got {self.out_dir!r}")
        for names, kinds, what in (
            (("M", "seed", "m", "snapshot_every"), int, "an integer"),
            (("eps", "gamma", "tau", "T", "A", "B"), _NUMBER, "a number"),
        ):
            for name in names:
                value = getattr(self, name)
                if not _is(value, kinds):
                    raise ValueError(f"{name} must be {what}, got {value!r}")
        if self.M < 4:
            raise ValueError("M must be >= 4")
        if self.scheme not in ("SL_BDF2", "SL_CN"):
            raise ValueError("run scheme must be SL_BDF2 or SL_CN")
        self.scheme_params(self.tau)  # raises on a bad eps, gamma, tau, A or B
        self.n_steps()  # raises unless T is a positive multiple of tau
        if self.initial not in ("random", "prepared"):
            raise ValueError("initial must be 'random' or 'prepared'")
        if self.initial == "prepared":
            _check_prepare_eps(self.eps)
        if self.m < 1 or self.snapshot_every < 0:
            raise ValueError("m must be >= 1 and snapshot_every >= 0")

    def n_steps(self) -> int:
        return _step_count(self.T, self.tau)

    def scheme_params(self, tau: float) -> SchemeParams:
        return SchemeParams(
            scheme=self.scheme, tau=tau, gamma=self.gamma, eps=self.eps, A=self.A, B=self.B
        )


def _from_dict(cls, d: dict):
    """cls(**d), rejecting unknown keys and naming missing required ones."""
    if not isinstance(d, dict):
        raise ValueError(f"a {cls.__name__} config must be a JSON object, got {d!r}")
    unknown = set(d) - {f.name for f in fields(cls)}
    if unknown:
        raise ValueError(f"unknown {cls.__name__} keys: {sorted(unknown)}")
    missing = [f.name for f in fields(cls) if f.default is MISSING and f.name not in d]
    if missing:
        raise ValueError(f"missing {cls.__name__} keys: {missing}")
    return cls(**d)


def run_config_from_dict(d: dict) -> RunConfig:
    return _from_dict(RunConfig, d)


def initial_field(cfg: RunConfig, basis: Basis1D | None = None) -> Field:
    """The config's phi0: seeded noise, relaxed by prepare_phi1 when
    cfg.initial is "prepared"."""
    base = basis if basis is not None else assemble_basis(cfg.M)
    phi0 = random_nodal_field(base, cfg.seed)
    if cfg.initial == "prepared":
        phi0 = prepare_phi1(phi0, cfg.eps)
    return phi0


def run_simulation(
    cfg: RunConfig,
    phi_init: Field | None = None,
    basis: Basis1D | None = None,
    *,
    stop_above: float | None = None,
) -> tuple[EnergyTrace, Field, list[tuple[int, float, Field]]]:
    """Bootstrap the first step, then march T/tau - 1 scheme steps.

    Returns the per-step energy trace, the final field, and the snapshot
    list [(n, t, field), ...] per cfg.snapshot_every. Trace rows, snapshots
    and the final field are read off the modal pairs `march` yields.
    phi_init and basis, when given, must have cfg.M modes (ValueError
    otherwise); basis is unused when phi_init is given. A blow-up
    (NonFinite) terminates the run early and is recorded on the trace
    (verdict data), not raised; the final field is then the last good
    state. A SolveFailed from a bad eigendecomposition is a solver fault,
    not a verdict, and propagates.
    With stop_above set, the run ends right after the first row whose
    dE_mod exceeds it: the trace is then shorter than T/tau without a
    blow-up, and its last row is the violation.
    """
    given = {"phi_init": None if phi_init is None else phi_init.basis, "basis": basis}
    for name, b in given.items():
        if b is not None and b.M != cfg.M:
            raise ValueError(f"{name} has M = {b.M}, but the config asks for M = {cfg.M}")
    phi0 = phi_init if phi_init is not None else initial_field(cfg, basis)
    basis = phi0.basis
    params = cfg.scheme_params(cfg.tau)
    op = build_step_operator(params, basis)
    weights = energy_weights(op)
    snapshots: list[tuple[int, float, Field]] = []
    N = cfg.n_steps()
    rows = np.empty(N, TRACE_DTYPE)
    n, t, e_mod, curr, blowup_step = 0, 0.0, 0.0, None, None
    try:
        phi1 = bootstrap_first_step(phi0, params, cfg.m)
        for prev, curr, grid in march(op, phi0.v, phi1.v, N - 1):
            n += 1
            t += cfg.tau
            e_eps, e_new, dt_sq, mean = step_energies(weights, prev, curr, grid)
            # row 1 is the bootstrap transition; no earlier modified energy
            # exists, so its increment is 0 by convention
            dE_mod = e_new - e_mod if n > 1 else 0.0
            rows[n - 1] = (n, t, e_eps, e_new, dE_mod, mean, np.sqrt(dt_sq))
            e_mod = e_new
            if cfg.snapshot_every > 0 and (n % cfg.snapshot_every == 0 or n == N):
                snapshots.append((n, t, Field(basis, curr)))
            if stop_above is not None and dE_mod > stop_above:
                break
    except NonFinite:
        blowup_step = n + 1
    trace = EnergyTrace(rows[:n].view(np.recarray), blowup_step, basis.residual)
    final = phi0 if curr is None else Field(basis, curr)
    return trace, final, snapshots


# ---------------------------------------------------------------------------
# stability sweeps


def default_ladder(target: str, gamma: float, eps: float) -> list[float]:
    """Candidate ladders: {0} + {2^i * 4 gamma/eps^2, i = -7..1} for A,
    {0} + {2^i * 2/eps, i = -3..4} for B. Each rung is rounded to 12
    significant digits, so 4/0.05^2 / 2^7 is 12.5, not 12.499999999999998."""
    if target == "A":
        base, powers = 4.0 * gamma / (eps * eps), range(-7, 2)
    elif target == "B":
        base, powers = 2.0 / eps, range(-3, 5)
    else:
        raise ValueError("target must be 'A' or 'B'")
    return [0.0] + [float(f"{2.0**i * base:.12g}") for i in powers]


@dataclass
class SweepConfig:
    """Minimum-stabilizer sweep over a (gamma, tau) grid.

    target names the stabilizer being minimized; the other one is held at
    fixed_value. ladder overrides the default candidate ladder (must be
    strictly increasing after the leading 0). full_scan evaluates every
    candidate instead of stopping at the first stable one, to surface
    monotonicity anomalies.
    """

    base: RunConfig
    target: str
    gamma_list: list[float]
    tau_list: list[float]
    fixed_value: float = 0.0
    ladder: list[float] | None = None
    steps: int = 1024
    full_scan: bool = False

    def __post_init__(self):
        if not isinstance(self.base, RunConfig):
            raise ValueError(f"base must be a run config object, got {self.base!r}")
        if self.target not in ("A", "B"):
            raise ValueError("target must be 'A' or 'B'")
        for name in ("gamma_list", "tau_list"):
            _check_positive_list(name, getattr(self, name))
        if not (_is(self.fixed_value, _NUMBER) and 0.0 <= self.fixed_value < math.inf):
            raise ValueError(f"fixed_value must be a finite number >= 0, got {self.fixed_value!r}")
        if not (_is(self.steps, int) and self.steps >= 1):
            raise ValueError(f"steps must be an integer >= 1, got {self.steps!r}")
        if not isinstance(self.full_scan, bool):
            raise ValueError(f"full_scan must be true or false, got {self.full_scan!r}")
        lad = self.ladder
        if lad is not None and not (
            isinstance(lad, list) and lad
            and all(_is(v, _NUMBER) and 0.0 <= v < math.inf for v in lad)
            and sorted(set(lad)) == lad
        ):
            raise ValueError(
                f"ladder must be a non-empty increasing list of finite numbers >= 0, got {lad!r}"
            )


def sweep_config_from_dict(d: dict) -> SweepConfig:
    if isinstance(d, dict) and isinstance(d.get("base"), dict):
        d = dict(d, base=run_config_from_dict(d["base"]))
    return _from_dict(SweepConfig, d)


@dataclass
class SweepRecord:
    """One candidate run of a sweep, a row of sweep_log.csv. stop_reason is
    "completed", "energy_increase" (stopped at its first dE_mod above the
    verdict threshold, which is then its last row) or "blow_up"; the first
    violation is None when no row exceeded the threshold."""

    gamma: float
    tau: float
    candidate: float
    verdict: str
    rows_run: int
    stop_reason: str
    first_violation_step: int | None
    first_violation_dE_mod: float | None


@dataclass
class SweepResult:
    """A sweep's config and its log, every candidate run in order; cells,
    ladders and anomalies are read off the two."""

    config: SweepConfig
    log: list[SweepRecord] = field(default_factory=list)

    def _runs(self) -> dict[tuple[float, float], list[SweepRecord]]:
        """(gamma, tau) -> the cell's records in run order, for every cell."""
        cfg = self.config
        runs = {(gamma, tau): [] for gamma in cfg.gamma_list for tau in cfg.tau_list}
        for r in self.log:
            runs[(r.gamma, r.tau)].append(r)
        return runs

    @property
    def cells(self) -> dict[tuple[float, float], float | None]:
        """(gamma, tau) -> the smallest stable candidate, the first one a
        cell logs; None if the ladder was exhausted without one."""
        return {
            key: next((r.candidate for r in runs if r.verdict == "stable"), None)
            for key, runs in self._runs().items()
        }

    @property
    def ladders(self) -> dict[tuple[float, float], list[float]]:
        """(gamma, tau) -> the ladder the cell walks."""
        return {(gamma, tau): _ladder(self.config, gamma) for gamma, tau in self._runs()}

    @property
    def anomalies(self) -> list[str]:
        """The cells of a full scan where an unstable candidate follows a
        stable one."""
        notes = []
        for (gamma, tau), runs in self._runs().items():
            verdicts = [r.verdict == "stable" for r in runs]
            if True in verdicts and not all(verdicts[verdicts.index(True):]):
                notes.append(f"non-monotone ladder at gamma={gamma} tau={tau}: verdicts {verdicts}")
        return notes

    def cell_text(self, gamma: float, tau: float) -> str:
        value = self.cells[(gamma, tau)]
        if value is None:
            return ">" + _num(_ladder(self.config, gamma)[-1])
        return _num(value)

    def write_csv(self, path) -> None:
        """Wide layout mirroring the reference tables: one row per tau,
        one column per gamma."""
        cfg = self.config
        with open(path, "w") as fh:
            fh.write("tau," + ",".join(f"gamma={_num(g)}" for g in cfg.gamma_list) + "\n")
            for tau in cfg.tau_list:
                cells = ",".join(self.cell_text(g, tau) for g in cfg.gamma_list)
                fh.write(f"{_num(tau)},{cells}\n")

    def write_log_csv(self, path) -> None:
        """One row per candidate run, columns named as SweepRecord's fields;
        an empty cell for no violation."""
        with open(path, "w") as fh:
            fh.write(",".join(f.name for f in fields(SweepRecord)) + "\n")
            for r in self.log:
                cells = ("" if v is None else v if isinstance(v, str) else _num(v) for v in astuple(r))
                fh.write(",".join(cells) + "\n")


def _num(x: float) -> str:
    # integers print bare (0, 2, 640); everything else shortest round-trip
    return str(int(x)) if float(x).is_integer() and abs(x) < 1e15 else repr(float(x))


def _candidate_config(sc: SweepConfig, gamma: float, tau: float, candidate: float) -> RunConfig:
    a, b = (candidate, sc.fixed_value) if sc.target == "A" else (sc.fixed_value, candidate)
    return replace(
        sc.base, gamma=gamma, tau=tau, T=sc.steps * tau, A=a, B=b,
        snapshot_every=0, out_dir=None,
    )


def _ladder(sc: SweepConfig, gamma: float) -> list[float]:
    return list(sc.ladder) if sc.ladder is not None else default_ladder(sc.target, gamma, sc.base.eps)


def _sweep_cell(sc: SweepConfig, phi0: Field, gamma: float, tau: float, log: list[SweepRecord]):
    """Walk the cell's ladder from phi0, logging each candidate, up to the
    first stable one (every one with full_scan). Each candidate stops at
    its first dE_mod above the verdict threshold, which already makes it
    unstable."""
    for candidate in _ladder(sc, gamma):
        cfg = _candidate_config(sc, gamma, tau, candidate)
        trace, _, _ = run_simulation(cfg, phi_init=phi0, stop_above=VERDICT_THRESHOLD)
        verdict = stability_verdict(trace, min_steps=sc.steps)
        over = trace.rows[trace.rows["dE_mod"] > VERDICT_THRESHOLD]
        first = (int(over["n"][0]), float(over["dE_mod"][0])) if len(over) else (None, None)
        log.append(SweepRecord(
            gamma, tau, candidate, verdict, len(trace),
            "blow_up" if trace.blew_up else "energy_increase" if len(over) else "completed",
            *first,
        ))
        if verdict == "stable" and not sc.full_scan:
            break


def sweep_min_stabilizer(sc: SweepConfig) -> SweepResult:
    """For each (gamma, tau) cell, the smallest ladder candidate whose
    1024-step run is judged stable; None marks ladder exhaustion. Every
    candidate starts from one phi0, built once: it depends only on M, seed,
    initial and eps, which no candidate changes."""
    phi0 = initial_field(sc.base)
    result = SweepResult(config=sc)
    for gamma in sc.gamma_list:
        for tau in sc.tau_list:
            _sweep_cell(sc, phi0, gamma, tau, result.log)
    return result


# ---------------------------------------------------------------------------
# convergence study


@dataclass
class ConvergenceRow:
    tau: float
    h_minus1: float
    h_minus1_order: float  # NaN when no 2*tau predecessor exists
    l2: float
    l2_order: float
    h1: float
    h1_order: float


def convergence_study(
    cfg: RunConfig, tau_list: list[float], tau_ref: float
) -> list[ConvergenceRow]:
    """Errors at T against a fine-step reference run, plus the measured
    orders log2(err(2 tau) / err(tau)) between consecutive halvings.

    Every run starts from the same initial datum (per cfg.initial) and
    performs its own per-tau bootstrap. tau_list must be a non-empty list
    and tau_ref a number, all finite and > 0.
    """
    _check_positive_list("tau_list", tau_list)
    if not (_is(tau_ref, _NUMBER) and 0.0 < tau_ref < math.inf):
        raise ValueError(f"tau_ref must be a finite number > 0, got {tau_ref!r}")
    taus = [tau_ref] + tau_list
    steps = [_step_count(cfg.T, tau) for tau in taus]
    basis = assemble_basis(cfg.M)
    phi_init = initial_field(cfg, basis)

    finals = []
    for tau, n in zip(taus, steps):
        params = cfg.scheme_params(tau)
        phi1 = bootstrap_first_step(phi_init, params, cfg.m)
        op = build_step_operator(params, basis)
        for _, final, _ in march(op, phi_init.v, phi1.v, n - 1):
            pass  # keeps only the last state
        finals.append(Field(basis, final))
    ref = finals[0]

    rows: list[ConvergenceRow] = []
    prev_errs: tuple[float, float, float] | None = None
    prev_tau: float | None = None
    for tau, final in zip(tau_list, finals[1:]):
        errs = error_norms(final, ref)
        orders = [math.nan] * 3
        if prev_errs is not None and abs(prev_tau / tau - 2.0) < 1e-9:
            orders = [
                math.log2(pe / e) if e > 0.0 and pe > 0.0 else math.nan
                for pe, e in zip(prev_errs, errs)
            ]
        rows.append(
            ConvergenceRow(
                tau=tau,
                h_minus1=errs[0], h_minus1_order=orders[0],
                l2=errs[1], l2_order=orders[1],
                h1=errs[2], h1_order=orders[2],
            )
        )
        prev_errs, prev_tau = errs, tau
    return rows


CONVERGENCE_HEADER = "tau,h_minus1_err,h_minus1_order,l2_err,l2_order,h1_err,h1_order"


def write_convergence_csv(rows: list[ConvergenceRow], path) -> None:
    def fmt(x: float) -> str:
        return "" if math.isnan(x) else repr(x)

    with open(path, "w") as fh:
        fh.write(CONVERGENCE_HEADER + "\n")
        for r in rows:
            fh.write(
                f"{r.tau!r},{r.h_minus1!r},{fmt(r.h_minus1_order)},"
                f"{r.l2!r},{fmt(r.l2_order)},{r.h1!r},{fmt(r.h1_order)}\n"
            )
