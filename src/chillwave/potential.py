"""Truncated double-well potential.

The bulk free-energy density is the quartic double well F(u) = (u^2-1)^2/4
on [-p, p] (p = truncation point), continued outside by its second-order
Taylor expansion at +-p. The continuation keeps F in C^2, makes f = F'
globally Lipschitz, and leaves the wells at +-1 untouched.

All evaluators accept scalars or numpy arrays and are pure functions.
`potential_deriv` is the closed form of f, with no test of the range.
`potential_value` and `cube_in_range` (and `diagnostics.step_energies`,
for its closed-form bulk energy) test |u| <= p by one reduction of u^2,
which a NaN fails; `cube_in_range` gives the step its load's cubic
f(u) + u = u^3 when the whole array passes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class PotentialSpec:
    """Parameters of the truncated double-well potential.

    truncation_point : where the quartic is cut off (> 1); 2.0 is the
        standard choice and gives Lipschitz bound L = 11.
    """

    truncation_point: float = 2.0

    def __post_init__(self):
        if not self.truncation_point > 1.0:
            raise ValueError("truncation_point must be > 1")


SPEC = PotentialSpec()  # the one potential of every step and energy: p = 2, L = 11


def potential_value(spec: PotentialSpec, phi):
    """Energy density F(phi). Total function on the reals: the quartic is
    evaluated everywhere, then only the points with |phi| > p are
    overwritten by the Taylor continuation a d^2 + b d + c, d = |phi| - p
    (F is even)."""
    scalar = np.ndim(phi) == 0
    x = np.atleast_1d(np.asarray(phi, dtype=float))
    p = spec.truncation_point
    with np.errstate(over="ignore", invalid="ignore"):  # the quartic at huge |phi|
        out = np.square(x)
        inside = _inside(out, p)
        out -= 1.0
        np.square(out, out=out)
        out *= 0.25
        if not inside:
            # Taylor continuation at the joint: f'(p)/2, f(p), F(p)
            a, b, c = 0.5 * (3.0 * p * p - 1.0), p**3 - p, 0.25 * (p * p - 1.0) ** 2
            outside = np.abs(x) > p
            d = np.abs(x[outside]) - p
            out[outside] = (np.square(d) * a + d * b) + c
    return float(out[0]) if scalar else out


def potential_deriv(spec: PotentialSpec, phi):
    """f(phi) = F'(phi) in closed form: c^3 - c + L (phi - c) with
    c = clip(phi, -p, p) and L the outer slope `lipschitz_bound(spec)`;
    inside [-p, p] the second term is 0 and f is the cubic. A Python
    number gives an np.float64."""
    p = spec.truncation_point
    c = np.clip(phi, -p, p)
    with np.errstate(over="ignore"):  # L (phi - c) at |phi| near the float range
        return (c * c * c - c) + (phi - c) * lipschitz_bound(spec)


def cube_in_range(spec: PotentialSpec, x: np.ndarray) -> np.ndarray | None:
    """x^3 when every point of the array x lies in [-p, p], where f is the
    cubic x^3 - x; None when one does not (a NaN or an infinity included),
    where only `potential_deriv` gives f."""
    with np.errstate(over="ignore"):  # x^2 at huge |x|
        cube = np.square(x)
    if not _inside(cube, spec.truncation_point):
        return None
    cube *= x
    return cube


def _inside(sq: np.ndarray, p: float) -> bool:
    # every |x| <= p, by one reduction of sq = x^2; a NaN fails the comparison
    return not sq.size or sq.max() <= p * p


def lipschitz_bound(spec: PotentialSpec) -> float:
    """L = sup over the reals of |f'| = 3 p^2 - 1, attained at the joints
    and held by the outer branch."""
    p = spec.truncation_point
    return 3.0 * p * p - 1.0
