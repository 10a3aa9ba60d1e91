"""Truncated double-well potential.

The bulk free-energy density is the quartic double well F(u) = (u^2-1)^2/4
on [-p, p] (p = truncation point), continued outside by its second-order
Taylor expansion at +-p. The continuation keeps F in C^2, makes f = F'
globally Lipschitz, and leaves the wells at +-1 untouched.

All evaluators accept scalars or numpy arrays and are pure functions.
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
        out -= 1.0
        np.square(out, out=out)
        out *= 0.25
        outside = _outside(x, p)
        if outside is not None:
            # Taylor continuation at the joint: f'(p)/2, f(p), F(p)
            a, b, c = 0.5 * (3.0 * p * p - 1.0), p**3 - p, 0.25 * (p * p - 1.0) ** 2
            d = np.abs(x[outside]) - p
            out[outside] = (np.square(d) * a + d * b) + c
    return float(out[0]) if scalar else out


def potential_deriv(spec: PotentialSpec, phi):
    """f(phi) = F'(phi): phi^3 - phi, evaluated everywhere, then only the
    points with |phi| > p are overwritten by the linear continuation
    c^3 - c + (3 p^2 - 1) (phi - c), c = sign(phi) p."""
    scalar = np.ndim(phi) == 0
    x = np.atleast_1d(np.asarray(phi, dtype=float))
    p = spec.truncation_point
    with np.errstate(over="ignore", invalid="ignore"):  # the quartic at huge |phi|
        out = np.square(x)
        out *= x
        out -= x
        outside = _outside(x, p)
        if outside is not None:
            xo = x[outside]
            c = np.copysign(p, xo)
            out[outside] = (np.square(c) * c - c) + (xo - c) * (3.0 * p * p - 1.0)
    return float(out[0]) if scalar else out


def _outside(x: np.ndarray, p: float):
    # the mask |x| > p, or None when two reductions show no point is
    # outside; a NaN fails both comparisons and takes the masked path
    if not x.size or (-p <= x.min() and x.max() <= p):
        return None
    return np.abs(x) > p


def lipschitz_bound(spec: PotentialSpec) -> float:
    """L = sup over the reals of |f'| = 3 p^2 - 1, attained at the joints
    and held by the outer branch."""
    p = spec.truncation_point
    return 3.0 * p * p - 1.0
