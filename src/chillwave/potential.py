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


def _outer_coeffs(p: float) -> tuple[float, float, float]:
    # Taylor continuation at the joint: F(p), f(p), f'(p)/2.
    c = 0.25 * (p * p - 1.0) ** 2
    b = p**3 - p
    a = 0.5 * (3.0 * p * p - 1.0)
    return a, b, c


def potential_value(spec: PotentialSpec, phi):
    """Energy density F(phi). Total function on the reals; evaluated on
    |phi| via the evenness of F.

    Arrays are built in place in a few buffers: at M = 64 the temporaries
    of a branch-by-branch expression made the allocator trim and regrow
    the heap on every call.
    """
    scalar = np.ndim(phi) == 0
    x = np.atleast_1d(np.asarray(phi, dtype=float))
    ax = np.abs(x)
    p = spec.truncation_point
    a, b, c = _outer_coeffs(p)

    out = np.square(ax)
    out -= 1.0
    np.square(out, out=out)
    out *= 0.25
    d = ax - p
    outer = np.square(d)
    outer *= a
    d *= b
    outer += d
    outer += c

    np.copyto(out, outer, where=ax > p)
    return float(out[0]) if scalar else out


def potential_deriv(spec: PotentialSpec, phi):
    """f(phi) = F'(phi): phi^3 - phi inside the truncation interval,
    linear continuation outside. Branch-free: with c = clip(phi, -p, p),
    f = c^3 - c + (3 p^2 - 1) (phi - c)."""
    scalar = np.ndim(phi) == 0
    x = np.atleast_1d(np.asarray(phi, dtype=float))
    p = spec.truncation_point
    c = np.clip(x, -p, p)
    out = np.square(c)
    out *= c
    out -= c
    np.subtract(x, c, out=c)
    c *= 3.0 * p * p - 1.0
    out += c
    return float(out[0]) if scalar else out


def lipschitz_bound(spec: PotentialSpec) -> float:
    """L = sup over the reals of |f'| = 3 p^2 - 1, attained at the joints
    and held by the outer branch."""
    p = spec.truncation_point
    return 3.0 * p * p - 1.0
