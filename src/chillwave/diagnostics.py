"""Energies and dissipation monitoring.

The free energy is E_eps(u) = (eps/2) |grad u|^2 + (1/eps) int F(u), with
the bulk term integrated on the 2M x 2M dealiasing grid (the same
quadrature the schemes use for the nonlinear force, so the discrete
dissipation statements transfer exactly). The modified energies add the
nonnegative history corrections under which the two schemes are provably
non-increasing:

    SL_CN     E_C^n = E_eps(phi^n) + (L/(4 eps) + B/2) ||dt phi^n||^2
    SL_BDF2   E_B^n = E_eps(phi^n) + 1/(4 tau gamma) ||dt phi^n||_-1^2
                      + (L/(2 eps) + B/2) ||dt phi^n||^2

where dt phi^n = phi^n - phi^{n-1} and L = `potential.L` is the Lipschitz
constant of f. In the modal coordinates v of a Field and of `march`
(mass I, stiffness sigma) every term but the bulk one is a sum over modes:

    |grad u|^2 = sum sigma v^2,  ||u||^2 = sum v^2,
    ||u||_-1^2 = sum_{sigma > 0} v^2 / sigma.

Both history corrections are then one weighted sum, sum hw (dt v)^2.
The per-mode weights hw and grad = eps sigma / 2 are the step operator's
(`build_step_operator`), so `step_energies` reads a trace row off the
operator and a state of `march`. The bulk term is the 2M Gauss rule's
sum of w_i F(g_ij) w_j over the quadrant-major grid g of v (see field2d),
whose rows, read as a 4M x M array, carry the weights `Basis1D.weights`
and whose columns their first M. On a grid inside [-P, P]
(`potential.square_in_range`) F is the quartic u^4/4 - u^2/2 + 1/4, and
the rule, exact to degree 4M - 1, integrates u^2 exactly, so there

    int F(u) = 1/4 sum w_i (g_ij^2)^2 w_j - 1/2 sum v^2 + 1      (|Omega| / 4 = 1);

any other grid (a node outside, a NaN or an infinity) takes the
quadrature of `potential_value`.

A run's record is data: an EnergyTrace holds one record array with a row
per step (TRACE_DTYPE), and the stability verdict is an expression on
its dE_mod column.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._snapshots import write_rows
from .errors import check_count
from .field2d import modal_mean
from .potential import potential_value, square_in_range
from .timestepping import StepOperator

TRACE_DTYPE = np.dtype([("n", np.int64)] + [
    (name, np.float64) for name in ("t", "E_eps", "E_mod", "dE_mod", "mean", "dt_norm")
])
TRACE_HEADER = ",".join(TRACE_DTYPE.names)
VERDICT_THRESHOLD = 1e-10  # largest dE_mod a stable trace may show


@dataclass(eq=False)
class EnergyTrace:
    """Per-step record of a simulation.

    rows is a record array of dtype TRACE_DTYPE, one row per time step
    (the bootstrap step is row n = 1; there is no row for the initial
    datum, and row 1 carries dE_mod = 0 by convention since no earlier
    modified energy exists). rows["E_eps"] is a column; index columns by
    name, since attribute access finds ndarray methods first (rows.mean
    is ndarray.mean, not the column).
    stop_reason says why the run ended: "completed", "energy_increase" (an
    until_unstable stop, at the last row) or "blow_up" (NonFinite, at step
    len(rows) + 1); None if not recorded, as by read_csv.
    max_residual is the checked eigendecomposition residual of the run's
    basis (Basis1D.residual); NaN if not measured, as by read_csv.
    """

    rows: np.recarray
    stop_reason: str | None = None
    max_residual: float = math.nan

    @property
    def blew_up(self) -> bool:
        return self.stop_reason == "blow_up"

    @property
    def max_dE_mod(self) -> float:
        """The largest dE_mod over rows n >= 2, the measured increments
        (row 1's 0 is a convention); NaN with fewer than 2 rows, and NaN
        if one of them is NaN."""
        return float(self.rows["dE_mod"][1:].max()) if len(self) >= 2 else math.nan

    def __len__(self) -> int:
        return len(self.rows)

    def column(self, name: str) -> np.ndarray:
        return self.rows[name]

    def write_csv(self, path) -> None:
        write_rows(path, TRACE_HEADER, self.rows.tolist())

    @classmethod
    def read_csv(cls, path) -> "EnergyTrace":
        """A trace written by write_csv; ValueError, naming the file (and
        the line of a bad row), unless line 1 is TRACE_HEADER, every row is
        an integer n, a finite t and five numbers, n is contiguous and t
        strictly increasing. The energy columns may hold NaN."""
        with open(path) as fh:
            header = fh.readline().strip()
            if header != TRACE_HEADER:
                raise ValueError(f"trace {path}: header {header!r}, expected {TRACE_HEADER}")
            rows = []
            for k, line in enumerate(fh, 2):
                cells = line.split(",")
                try:
                    row = (int(cells[0]), *map(float, cells[1:]))
                    if len(row) != len(TRACE_DTYPE) or not math.isfinite(row[1]):
                        raise ValueError
                    rows.append(row)
                except ValueError:
                    raise ValueError(f"trace {path}, line {k}: expected a row {TRACE_HEADER} "
                                     "of an integer, a finite t and five numbers") from None
        rows = np.array(rows, dtype=TRACE_DTYPE)
        n, t = rows["n"], rows["t"]
        for bad, rule in ((n[1:] != n[:-1] + 1, "rows must be contiguous in n"),
                          (t[1:] <= t[:-1], "times must be strictly increasing")):
            if bad.any():  # the pair's second row is on line index + 3
                raise ValueError(f"trace {path}, line {bad.argmax() + 3}: {rule}")
        return cls(rows.view(np.recarray))


def step_energies(
    op: StepOperator, prev: np.ndarray, curr: np.ndarray, grid: np.ndarray, scratch: np.ndarray
) -> tuple[float, float, float, float]:
    """(E_eps, modified energy, ||curr - prev||^2, mean) of the modal pair
    (phi^{n-1}, phi^n) = (prev, curr) under op's scheme, with grid the 2M
    grid of curr: a state that `march` yields, and what a trace row needs.
    The in-range bulk term squares grid into scratch, a (2, 2, M, M) array the
    caller owns (a run allocates one for all its rows), and squares that in
    place, so a row allocates no grid; grid itself is only read.
    ValueError for FIRST_ORDER, which has no modified energy."""
    if op.hw is None:
        raise ValueError("modified energy is defined for SL_CN and SL_BDF2 only")
    w, M = op.basis.weights, op.basis.M
    sq = square_in_range(grid, scratch)
    if sq is not None:  # F = u^4/4 - u^2/2 + 1/4, |Omega| = 4
        sq *= sq
        bulk = 0.25 * float(w @ sq.reshape(-1, M) @ w[:M]) - 0.5 * float(np.vdot(curr, curr)) + 1.0
    else:
        bulk = float(w @ potential_value(grid).reshape(-1, M) @ w[:M])
    e = float(np.vdot(op.grad, curr * curr)) + bulk / op.params.eps
    diff = curr - prev
    dt_sq = float(np.vdot(diff, diff))
    diff *= diff
    return e, e + float(np.vdot(op.hw, diff)), dt_sq, modal_mean(op.basis, curr)


def stability_verdict(trace: EnergyTrace, min_steps: int = 1024) -> str:
    """"unstable" if the run blew up or any per-step increment dE_mod is
    not <= VERDICT_THRESHOLD (a NaN increment violates), whatever the
    trace's length; otherwise "stable", which needs min_steps rows, an
    integer >= 1 (a shorter trace raises ValueError)."""
    check_count("min_steps", min_steps, 1)
    if trace.blew_up or not np.all(trace.rows["dE_mod"] <= VERDICT_THRESHOLD):
        return "unstable"
    if len(trace) < min_steps:
        raise ValueError(f"trace has {len(trace)} rows; needs >= {min_steps} or a violation")
    return "stable"
