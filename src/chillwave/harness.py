"""Experiment harness: seeded initial data, simulation runs, minimum-
stabilizer sweeps, and temporal convergence studies.

Everything here is deterministic given the config (seed included). Every
run starts with `bootstrap_first_step` and then steps with `march`.
Results are tables: a run's trace, a sweep's log (one row per candidate
run) and a convergence study are record arrays, from which verdicts,
cells, ladders and anomalies are read and which `_snapshots.write_rows`
writes as CSV; a NaN in a sweep log or convergence table, "no value",
is an empty cell.
"""

from __future__ import annotations

import math
import sys
from collections.abc import Callable
from dataclasses import MISSING, dataclass, fields, replace

import numpy as np

from ._snapshots import write_rows
from .diagnostics import (
    TRACE_DTYPE, VERDICT_THRESHOLD, EnergyTrace, stability_verdict, step_energies,
)
from .errors import NonFinite, check_choice, check_count, check_number
from .field2d import Field, GridPlan, error_norms, quadrants
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
    A seed that is not an integer in [0, 2^64) raises ValueError: masked,
    it would alias another (2^64 would give seed 0's stream, True seed 1's).
    """
    if isinstance(seed, bool) or not (isinstance(seed, (int, np.integer)) and 0 <= seed < 2**64):
        raise ValueError(f"seed must be an integer in [0, 2^64), got {seed!r}")
    check_count("count", count, 0)
    idx = np.arange(1, count + 1, dtype=np.uint64)
    z = np.uint64(seed) + idx * _GOLDEN
    z = (z ^ (z >> np.uint64(30))) * _MIX1
    z = (z ^ (z >> np.uint64(27))) * _MIX2
    return z ^ (z >> np.uint64(31))


def _uniform_pm1(seed: int, count: int) -> np.ndarray:
    return 2.0 * (splitmix64(seed, count).astype(np.float64) * 2.0**-64) - 1.0


def random_nodal_field(basis: Basis1D, seed: int) -> Field:
    """Seeded uniform [-1, 1] noise at the 2M x 2M Gauss nodes (row-major
    by x-index then y-index, nodes ascending), L^2-projected onto
    V_M x V_M: permuted to the quadrant layout and fitted."""
    M = basis.M
    grid = quadrants(_uniform_pm1(seed, 4 * M * M).reshape(2 * M, 2 * M))
    return Field(basis, GridPlan(basis, grid, np.empty_like(grid)).fit().copy())


PREPARE_STEPS = 64  # prepare_phi1's substeps of eps^3


def prepare_params(eps: float) -> SchemeParams:
    """The step that prepare_phi1 bootstraps in PREPARE_STEPS substeps of
    eps^3, at unit mobility. The substep must be a normal float, so that
    its reciprocal, the bootstrap's step coefficient, stays finite."""
    check_number("eps", eps, True, 1.0)
    if eps**3 < sys.float_info.min:
        raise ValueError(
            f"eps must be in (0, 1] with eps^3 a normal float to prepare phi1, got {eps!r}"
        )
    return SchemeParams(scheme="FIRST_ORDER", tau=PREPARE_STEPS * eps**3, gamma=1.0, eps=eps)


def prepare_phi1(phi0: Field, eps: float) -> Field:
    """Relax random noise into a developed-interface state: the first-order
    bootstrap of `prepare_params(eps)`, stabilizer B = 1/eps."""
    return bootstrap_first_step(phi0, prepare_params(eps), m=PREPARE_STEPS)


def _step_count(T: float, tau: float, key: str = "tau") -> int:
    """Steps of size tau that reach T; raises, naming the config key that
    gave tau, unless T is a positive integer multiple of tau (up to 1e-9
    relative rounding slack)."""
    r = T / tau
    n = round(r) if math.isfinite(r) else 0
    if n < 1 or abs(r - n) > 1e-9 * max(1.0, r):
        raise ValueError(f"{key}: T = {T} is not a positive integer multiple of tau = {tau}")
    return n


def _check_list(name: str, value, positive: bool) -> None:
    """ValueError unless value is a non-empty list whose entries pass
    check_number: distinct if positive (a repeat would rerun a sweep cell
    or a convergence tau), strictly increasing otherwise (a ladder)."""
    if not (isinstance(value, list) and value):
        raise ValueError(f"{name} must be a non-empty list, got {value!r}")
    for k, v in enumerate(value):
        check_number(f"{name}[{k}]", v, positive)
    if sorted(set(value)) != (sorted(value) if positive else value):
        raise ValueError(f"{name} must be {'distinct' if positive else 'strictly increasing'}, "
                         f"got {value!r}")


@dataclass(frozen=True, kw_only=True)
class RunConfig(SchemeParams):
    """Single-simulation configuration: a two-level scheme's parameters
    plus the run's size and initial datum; JSON keys match field names."""

    M: int
    T: float
    seed: int = 42
    initial: str = "random"  # "random" (raw noise) or "prepared" (phi1 state)
    snapshot_every: int = 0  # steps between snapshots; 0 disables

    def __post_init__(self):
        for name, least in (("M", 4), ("seed", 0), ("snapshot_every", 0)):
            check_count(name, getattr(self, name), least)
        if self.seed >= 2**64:  # the one seed check_count passes that splitmix64 refuses
            splitmix64(self.seed, 0)  # raises its one-line error
        check_choice("scheme", self.scheme, ("SL_BDF2", "SL_CN"))
        super().__post_init__()
        check_number("T", self.T, True)
        self.n_steps()  # raises unless T is a positive multiple of tau
        check_choice("initial", self.initial, ("random", "prepared"))
        if self.initial == "prepared":
            prepare_params(self.eps)  # raises on an eps too small to prepare phi1

    def n_steps(self) -> int:
        return _step_count(self.T, self.tau)


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


def _check_modes(name: str, basis: Basis1D | None, cfg: RunConfig) -> None:
    if basis is not None and basis.M != cfg.M:
        raise ValueError(f"{name} has M = {basis.M}, but the config asks for M = {cfg.M}")


def initial_field(cfg: RunConfig, basis: Basis1D | None = None) -> Field:
    """The config's phi0: seeded noise, relaxed by prepare_phi1 when
    cfg.initial is "prepared". basis, when given, must have cfg.M modes."""
    _check_modes("basis", basis, cfg)
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
    until_unstable: bool = False,
    on_snapshot: Callable[[int, float, Field], object] | None = None,
) -> tuple[EnergyTrace, Field, list[tuple[int, float, Field]]]:
    """Bootstrap the first step, then march T/tau - 1 scheme steps.

    Returns the per-step energy trace, the final field, and the snapshot
    list [(n, t, field), ...] per cfg.snapshot_every, held in memory until
    the run ends. With on_snapshot given, each snapshot is passed to
    on_snapshot(n, t, field) when the run reaches it, none is kept and
    the list is empty. Trace rows, snapshots and the final field are read
    off the modal pairs `march` yields.
    phi_init and basis, when given, must have cfg.M modes (ValueError
    otherwise); basis is unused when phi_init is given. A blow-up
    (NonFinite) ends the run early, as trace.stop_reason records (verdict
    data, not raised); the final field is then the last good state. A
    SolveFailed from a bad eigendecomposition is a solver fault, not a
    verdict, and propagates.
    With until_unstable, the run ends right after its first row whose
    dE_mod is not <= VERDICT_THRESHOLD (NaN included), the row that makes
    stability_verdict say "unstable": that row is then the trace's last.
    """
    _check_modes("phi_init", None if phi_init is None else phi_init.basis, cfg)
    _check_modes("basis", basis, cfg)
    phi0 = phi_init if phi_init is not None else initial_field(cfg, basis)
    basis = phi0.basis
    op = build_step_operator(cfg, basis)
    snapshots: list[tuple[int, float, Field]] = []
    keep = on_snapshot or (lambda *snapshot: snapshots.append(snapshot))
    N = cfg.n_steps()
    rows = np.empty(N, TRACE_DTYPE)
    scratch = np.empty((2, 2, cfg.M, cfg.M))  # step_energies' square, for every row
    n, e_mod, curr, stop_reason = 0, 0.0, None, "completed"
    try:
        phi1 = bootstrap_first_step(phi0, cfg)
        for prev, curr, grid in march(op, phi0.v, phi1.v, N - 1):
            n += 1
            t = n * cfg.tau  # not a running sum, whose rounding drifts
            e_eps, e_new, dt_sq, mean = step_energies(op, prev, curr, grid, scratch)
            # row 1 is the bootstrap transition; no earlier modified energy
            # exists, so its increment is 0 by convention
            dE_mod = e_new - e_mod if n > 1 else 0.0
            rows[n - 1] = (n, t, e_eps, e_new, dE_mod, mean, np.sqrt(dt_sq))
            e_mod = e_new
            if cfg.snapshot_every > 0 and (n % cfg.snapshot_every == 0 or n == N):
                keep(n, t, Field(basis, curr))
            if until_unstable and not dE_mod <= VERDICT_THRESHOLD:
                stop_reason = "energy_increase"
                break
    except NonFinite:
        stop_reason = "blow_up"
    trace = EnergyTrace(rows[:n].view(np.recarray), stop_reason, basis.residual)
    final = phi0 if curr is None else Field(basis, curr)
    return trace, final, snapshots


# ---------------------------------------------------------------------------
# stability sweeps


def default_ladder(target: str, gamma: float, eps: float) -> list[float]:
    """Candidate ladders: {0} + {2^i * 4 gamma/eps^2, i = -7..1} for A,
    {0} + {2^i * 2/eps, i = -3..4} for B. Each rung is rounded to 12
    significant digits, so 4/0.05^2 / 2^7 is 12.5, not 12.499999999999998.
    ValueError unless gamma > 0, eps is in (0, 1] and the rungs are finite
    and strictly increasing (an eps^2 that underflows gives an inf base)."""
    check_choice("target", target, ("A", "B"))
    check_number("gamma", gamma, True)
    check_number("eps", eps, True, 1.0)
    if target == "A":
        base, powers = (4.0 * gamma / (eps * eps) if eps * eps else math.inf), range(-7, 2)
    else:
        base, powers = 2.0 / eps, range(-3, 5)
    ladder = [0.0] + [float(f"{2.0**i * base:.12g}") for i in powers]
    _check_list("ladder", ladder, False)
    return ladder


@dataclass(frozen=True)
class SweepConfig:
    """Minimum-stabilizer sweep over a (gamma, tau) grid; a candidate runs base.n_steps() steps.

    target names the stabilizer being minimized; the other one is held at
    fixed_value. ladder overrides the default candidate ladder (a
    non-empty, strictly increasing list of finite values >= 0; it need
    not start at 0). full_scan evaluates every candidate instead of
    stopping at the first stable one, to surface monotonicity anomalies.
    """

    base: RunConfig
    target: str
    gamma_list: list[float]
    tau_list: list[float]
    fixed_value: float = 0.0
    ladder: list[float] | None = None
    full_scan: bool = False

    def __post_init__(self):
        if not isinstance(self.base, RunConfig):
            raise ValueError(f"base must be a run config object, got {self.base!r}")
        if self.base.snapshot_every:
            raise ValueError(f"snapshot_every must be 0 in a sweep, got {self.base.snapshot_every}")
        check_choice("target", self.target, ("A", "B"))
        for name in ("gamma_list", "tau_list"):
            _check_list(name, getattr(self, name), True)
        check_number("fixed_value", self.fixed_value, False)
        if not isinstance(self.full_scan, bool):
            raise ValueError(f"full_scan must be true or false, got {self.full_scan!r}")
        if self.ladder is not None:
            _check_list("ladder", self.ladder, False)


def sweep_config_from_dict(d: dict) -> SweepConfig:
    if isinstance(d, dict) and isinstance(d.get("base"), dict):
        d = dict(d, base=run_config_from_dict(d["base"]))
    return _from_dict(SweepConfig, d)


SWEEP_LOG_DTYPE = np.dtype([
    ("gamma", "f8"), ("tau", "f8"), ("candidate", "f8"), ("verdict", "U8"), ("rows_run", "i8"),
    ("stop_reason", "U15"), ("max_dE_mod", "f8"),
])


@dataclass(frozen=True)
class SweepResult:
    """A sweep's config and its log, a SWEEP_LOG_DTYPE record array with a
    row per candidate run in run order; cells, ladders and anomalies are
    read off the two. A run stops after rows_run steps, for its trace's
    stop_reason; max_dE_mod is its trace's (EnergyTrace.max_dE_mod), the
    violating row's for an energy_increase stop and a stable candidate's
    margin below the threshold otherwise."""

    config: SweepConfig
    log: np.recarray

    def _runs(self) -> dict[tuple[float, float], np.recarray]:
        """(gamma, tau) -> the cell's log rows in run order, for every cell."""
        cfg, log = self.config, self.log
        return {(gamma, tau): log[(log["gamma"] == gamma) & (log["tau"] == tau)]
                for gamma in cfg.gamma_list for tau in cfg.tau_list}

    @property
    def cells(self) -> dict[tuple[float, float], float | None]:
        """(gamma, tau) -> the smallest stable candidate, the first one a
        cell logs; None if the ladder was exhausted without one."""
        return {key: next(iter(runs["candidate"][runs["verdict"] == "stable"].tolist()), None)
                for key, runs in self._runs().items()}

    @property
    def ladders(self) -> dict[tuple[float, float], list[float]]:
        """(gamma, tau) -> the ladder the cell walks."""
        cfg = self.config
        return {(gamma, tau): _ladder(cfg, gamma) for gamma in cfg.gamma_list for tau in cfg.tau_list}

    @property
    def anomalies(self) -> list[str]:
        """The cells of a full scan where an unstable candidate follows a
        stable one."""
        notes = []
        for (gamma, tau), runs in self._runs().items():
            stable = runs["verdict"] == "stable"
            if stable.any() and not stable[stable.argmax():].all():
                notes.append(f"non-monotone ladder at gamma={gamma} tau={tau}: "
                             f"verdicts {stable.tolist()}")
        return notes

    def write_csv(self, path) -> None:
        """Wide layout mirroring the reference tables: one row per tau, one
        column per gamma; a cell with no minimum reads ">" and its ladder's top."""
        cfg, cells, ladders = self.config, self.cells, self.ladders
        gammas = cfg.gamma_list
        write_rows(path, "tau," + ",".join(f"gamma={_num(g)}" for g in gammas), (
            [_num(tau)] + [">" + _num(ladders[g, tau][-1]) if cells[g, tau] is None
                           else _num(cells[g, tau]) for g in gammas]
            for tau in cfg.tau_list
        ), cell=str)

    def write_log_csv(self, path) -> None:
        """One row per candidate run, columns named as SWEEP_LOG_DTYPE's;
        an empty cell for a NaN max_dE_mod."""
        write_rows(path, ",".join(SWEEP_LOG_DTYPE.names), self.log.tolist(),
                   cell=lambda v: v if isinstance(v, str) else "" if math.isnan(v) else _num(v))


def _num(x: float) -> str:
    # integers print bare (0, 2, 640); everything else shortest round-trip
    return str(int(x)) if float(x).is_integer() and abs(x) < 1e15 else repr(float(x))


def _candidate_config(sc: SweepConfig, gamma: float, tau: float, candidate: float) -> RunConfig:
    a, b = (candidate, sc.fixed_value) if sc.target == "A" else (sc.fixed_value, candidate)
    n = sc.base.n_steps()
    return replace(sc.base, gamma=gamma, tau=tau, T=n * tau, A=a, B=b)


def _ladder(sc: SweepConfig, gamma: float) -> list[float]:
    return list(sc.ladder) if sc.ladder is not None else default_ladder(sc.target, gamma, sc.base.eps)


def _sweep_cell(sc: SweepConfig, phi0: Field, gamma: float, tau: float, log: list[tuple]):
    """Walk the cell's ladder from phi0, appending a SWEEP_LOG_DTYPE row
    per candidate, up to the first stable one (every one with full_scan);
    a candidate runs until_unstable, so an energy increase is its last row."""
    for candidate in _ladder(sc, gamma):
        cfg = _candidate_config(sc, gamma, tau, candidate)
        trace, _, _ = run_simulation(cfg, phi_init=phi0, until_unstable=True)
        verdict = stability_verdict(trace, min_steps=cfg.n_steps())
        log.append((gamma, tau, candidate, verdict, len(trace), trace.stop_reason,
                    trace.max_dE_mod))
        if verdict == "stable" and not sc.full_scan:
            break


def sweep_min_stabilizer(sc: SweepConfig) -> SweepResult:
    """For each (gamma, tau) cell, the smallest ladder candidate whose run
    of sc.base.n_steps() steps is judged stable; None marks ladder
    exhaustion. Every candidate starts from one phi0, built once: it
    depends only on M, seed, initial and eps, which no candidate changes."""
    phi0 = initial_field(sc.base)
    log: list[tuple] = []
    for gamma in sc.gamma_list:
        for tau in sc.tau_list:
            _sweep_cell(sc, phi0, gamma, tau, log)
    return SweepResult(sc, np.array(log, SWEEP_LOG_DTYPE).view(np.recarray))


# ---------------------------------------------------------------------------
# convergence study


CONVERGENCE_DTYPE = np.dtype([(name, np.float64) for name in (
    "tau", "h_minus1_err", "h_minus1_order", "l2_err", "l2_order", "h1_err", "h1_order")])


def convergence_study(cfg: RunConfig, tau_list: list[float], tau_ref: float) -> np.recarray:
    """Errors at T against a fine-step reference run, plus the measured
    orders log2(err(2 tau) / err(tau)) between consecutive halvings.

    Returns a record array of CONVERGENCE_DTYPE, one row per tau_list
    entry; an order is NaN unless the previous entry is 2 tau and both
    errors are nonzero. Every run starts from the same initial datum (per
    cfg.initial), performs its own per-tau bootstrap and, reading only
    its final pair, marches without grids; cfg.tau is not read, and
    cfg.snapshot_every must be 0. tau_list must be a non-empty list and
    tau_ref a number, all finite and > 0, with tau_ref <= min(tau_list).
    """
    _check_list("tau_list", tau_list, True)
    check_number("tau_ref", tau_ref, True)
    if cfg.snapshot_every:
        raise ValueError(f"snapshot_every must be 0 in a convergence study, got {cfg.snapshot_every}")
    taus = [tau_ref] + tau_list
    steps = [_step_count(cfg.T, tau_ref, "tau_ref")]
    steps += [_step_count(cfg.T, tau, "tau_list") for tau in tau_list]
    if tau_ref > min(tau_list):
        raise ValueError(f"the reference tau = {tau_ref} is coarser than the finest tau in "
                         f"tau_list, {min(tau_list)}: the reference run must be the finest")
    basis = assemble_basis(cfg.M)
    phi_init = initial_field(cfg, basis)

    finals = []
    for tau, n in zip(taus, steps):
        params = replace(cfg, tau=tau)
        phi1 = bootstrap_first_step(phi_init, params)
        op = build_step_operator(params, basis)
        for _, final, _ in march(op, phi_init.v, phi1.v, n - 1, grids=False):
            pass  # keeps only the last state
        finals.append(Field(basis, final))

    errs = [error_norms(final, finals[0]) for final in finals[1:]]
    rows = []
    for k, tau in enumerate(tau_list):
        halved = k > 0 and abs(tau_list[k - 1] / tau - 2.0) < 1e-9
        orders = [math.log2(pe / e) if halved and pe > 0.0 and e > 0.0 else math.nan
                  for pe, e in zip(errs[k - 1], errs[k])]
        rows.append((tau,) + sum(zip(errs[k], orders), ()))
    return np.array(rows, CONVERGENCE_DTYPE).view(np.recarray)


def write_convergence_csv(rows: np.recarray, path) -> None:
    """CONVERGENCE_DTYPE's names, then one line per row; a NaN order is an empty cell."""
    write_rows(path, ",".join(CONVERGENCE_DTYPE.names), rows.tolist(),
               cell=lambda x: "" if math.isnan(x) else repr(x))
