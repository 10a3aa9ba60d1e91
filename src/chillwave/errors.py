"""Exception types shared across the package, and its count, mode, number and choice checks."""

import sys
from numbers import Integral, Real


def check_count(name: str, value, least: int) -> None:
    """ValueError unless value is an integer >= least: a Python or numpy
    integer, not a bool, a float or a string."""
    if isinstance(value, bool) or not isinstance(value, Integral) or value < least:
        raise ValueError(f"{name} must be an integer >= {least}, got {value!r}")


def check_modes(M, name: str = "M") -> None:
    """ValueError unless M is an even integer >= 4, the one rule for a mode count."""
    check_count(name, M, 4)
    if M % 2:
        raise ValueError(f"{name} must be even, got {M!r}")


def check_number(name: str, value, positive: bool, most: float = sys.float_info.max) -> None:
    """ValueError unless value is a real number, a Python or numpy one but
    not a bool, > 0 if positive (>= 0 otherwise) and <= most, by default the
    largest float (so NaN, infinity and an integer past the floats fail)."""
    if isinstance(value, bool) or not isinstance(value, Real) or not (
            (value > 0 if positive else value >= 0) and value <= most):
        bound = ("> 0" if positive else ">= 0") + (
            f", and <= {most:g}" if most < sys.float_info.max else "")
        raise ValueError(f"{name} must be a finite number {bound}, got {value!r}")


def check_choice(name: str, value, choices: tuple[str, ...]) -> None:
    """ValueError unless value is a string among choices."""
    if not (isinstance(value, str) and value in choices):
        raise ValueError(f"{name} must be one of {', '.join(choices)}, got {value!r}")


class ChillwaveError(Exception):
    """Base class for all package-specific errors."""


class SolveFailed(ChillwaveError):
    """A numerical procedure behind the basis missed its contract: the
    eigenpair's residual, or the Gauss-Legendre Newton iteration's
    convergence. A solver fault, not a stability verdict."""


class NonFinite(ChillwaveError):
    """A time step produced non-finite values or exceeded the blow-up
    magnitude bound. Stability sweeps treat this as an unstable verdict."""
