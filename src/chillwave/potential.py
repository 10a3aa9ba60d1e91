"""Truncated double-well potential, the package's one potential.

F(u) = (u^2-1)^2/4 on [-P, P], P = 2, continued outside by its
second-order Taylor expansion at +-P (Shen & Yang, DCDS-A 2010): F is
C^2, f = F' is Lipschitz with constant L = 3 P^2 - 1 = 11, and the wells
at +-1 are untouched. With c = clip(u, -P, P) and d = |u - c| (0 inside),
both evaluators are closed forms with no test of the range,

    F(u) = (c^2 - 1)^2 / 4 + (L/2) d^2 + f(P) d,    f(u) = c^3 - c + L (u - c),

of scalars (an np.float64 back) or arrays; a NaN stays a NaN.
`square_in_range` is the one range test: u^2 when every point lies in
[-P, P], where F is the quartic and f the cubic, for the step's load and
the energy's bulk term.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

P = 2.0  # truncation point
L = 3.0 * P * P - 1.0  # Lipschitz constant of f: sup |f'|, attained at +-P and held outside


def potential_value(phi):
    """F(phi), the quartic inside [-P, P] and its Taylor continuation
    outside, in one closed form (see the module docstring)."""
    c = np.clip(phi, -P, P)
    d = np.abs(phi - c)
    with np.errstate(over="ignore"):  # d^2 at |phi| near the float range
        return 0.25 * np.square(c * c - 1.0) + (np.square(d) * (0.5 * L) + d * (P**3 - P))


def potential_deriv(phi):
    """f(phi) = F'(phi) = c^3 - c + L (phi - c) with c = clip(phi, -P, P);
    inside [-P, P] the second term is 0 and f is the cubic."""
    c = np.clip(phi, -P, P)
    with np.errstate(over="ignore"):  # L (phi - c) at |phi| near the float range
        return (c * c * c - c) + (phi - c) * L


def square_in_range(x: np.ndarray) -> np.ndarray | None:
    """x^2 as a new array when every point of x lies in [-P, P]; None when
    one does not (a NaN or an infinity included). One reduction of x^2
    decides, and a NaN fails its comparison."""
    with np.errstate(over="ignore"):  # x^2 at huge |x|
        sq = np.square(x)
    return sq if not sq.size or sq.max() <= P * P else None


@dataclass(frozen=True)
class PotentialSpec:
    """Kept only for perfbench, which computes L as lipschitz_bound(PotentialSpec()).

    truncation_point : where the quartic is cut off (> 1); 2.0 is the
        standard choice and gives Lipschitz bound L = 11.
    """

    truncation_point: float = 2.0

    def __post_init__(self):
        if not self.truncation_point > 1.0:
            raise ValueError("truncation_point must be > 1")


def lipschitz_bound(spec: PotentialSpec) -> float:
    """L = sup over the reals of |f'| = 3 p^2 - 1, attained at the joints
    and held by the outer branch. Kept only for perfbench; the package
    reads L."""
    p = spec.truncation_point
    return 3.0 * p * p - 1.0
