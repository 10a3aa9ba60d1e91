import numpy as np
import pytest

from chillwave import potential_deriv, potential_value
from chillwave.potential import L, P, PotentialSpec, lipschitz_bound, square_in_range


def second_deriv_oracle(phi):
    # f' from the piecewise definition: 3 phi^2 - 1 inside, the outer
    # slope 3 P^2 - 1 outside
    phi = np.asarray(phi, dtype=float)
    return np.where(np.abs(phi) <= P, 3.0 * phi * phi - 1.0, 3.0 * P * P - 1.0)


def deriv_quotient(phi, h=1e-5):
    # central difference quotient of the production f
    return (potential_deriv(phi + h) - potential_deriv(phi - h)) / (2 * h)


def test_value_at_wells_and_origin():
    assert potential_value(1.0) == pytest.approx(0.0, abs=1e-15)
    assert potential_value(-1.0) == pytest.approx(0.0, abs=1e-15)
    assert potential_value(0.0) == pytest.approx(0.25)


def test_value_outer_branch():
    # 11/2 + 6 + 9/4 at phi = 3
    assert potential_value(3.0) == pytest.approx(13.75, abs=1e-13)
    assert potential_value(-3.0) == pytest.approx(13.75, abs=1e-13)


def test_deriv_examples():
    assert potential_deriv(0.0) == 0.0
    assert potential_deriv(2.0) == pytest.approx(6.0, abs=1e-13)
    assert potential_deriv(-3.0) == pytest.approx(-17.0, abs=1e-13)


def test_second_deriv_examples():
    assert second_deriv_oracle(0.0) == pytest.approx(-1.0)
    assert second_deriv_oracle(2.0) == pytest.approx(11.0, abs=1e-13)
    assert second_deriv_oracle(10.0) == pytest.approx(11.0)
    # off the joint, where f'' is continuous, so is the quotient's error
    assert deriv_quotient(0.0) == pytest.approx(-1.0, rel=1e-6)
    assert deriv_quotient(10.0) == pytest.approx(11.0, rel=1e-6)


def test_deriv_quotients_match_second_deriv_oracle():
    # ties the f' oracle of the Lipschitz and joint tests to potential_deriv,
    # at the tolerance of test_deriv_matches_finite_difference
    rng = np.random.default_rng(2)
    phi = rng.uniform(-5.0, 5.0, 1000)
    oracle = second_deriv_oracle(phi)
    rel = np.abs(deriv_quotient(phi) - oracle) / np.maximum(1.0, np.abs(oracle))
    assert rel.max() <= 1e-6


def test_symmetry():
    phi = np.linspace(-6.0, 6.0, 1201)
    np.testing.assert_allclose(
        potential_value(phi), potential_value(-phi), atol=1e-14
    )
    np.testing.assert_allclose(
        potential_deriv(phi), -potential_deriv(-phi), atol=1e-14
    )


def test_value_nonnegative_with_zeros_only_at_wells():
    phi = np.linspace(-5.0, 5.0, 4001)
    F = potential_value(phi)
    assert np.all(F >= 0.0)
    near_wells = (np.abs(np.abs(phi) - 1.0) < 1e-2)
    assert np.all(F[~near_wells] > 1e-8)


def test_deriv_matches_finite_difference():
    rng = np.random.default_rng(0)
    phi = rng.uniform(-5.0, 5.0, 1000)
    h = 1e-5
    fd = (potential_value(phi + h) - potential_value(phi - h)) / (2 * h)
    f = potential_deriv(phi)
    rel = np.abs(fd - f) / np.maximum(1.0, np.abs(f))
    assert rel.max() <= 1e-6


def test_deriv_matches_piecewise_definition():
    # the closed form against the two branches written out, within a few
    # ulp of max(1, |f|); infinities and NaN map as the branches do
    rng = np.random.default_rng(1)
    phi = np.concatenate([rng.uniform(-6.0, 6.0, 2000), [-P, P, 0.0, -1.0, 1.0, 1e300, -1e300]])
    outer = np.sign(phi) * ((P**3 - P) + (3 * P * P - 1) * (np.abs(phi) - P))
    with np.errstate(over="ignore", invalid="ignore"):  # the unused inner branch at 1e300
        ref = np.where(np.abs(phi) <= P, phi**3 - phi, outer)
    f = potential_deriv(phi)
    assert np.all(np.abs(f - ref) <= 4 * np.finfo(float).eps * np.maximum(1.0, np.abs(ref)))
    # the outer point beside a NaN still takes the outer branch
    special = potential_deriv(np.array([np.inf, -np.inf, np.nan, 3.0]))
    assert special[0] == np.inf and special[1] == -np.inf and np.isnan(special[2])
    assert special[3] == pytest.approx(17.0, rel=1e-15)


def masked_deriv_reference(phi):
    # the former production f: phi^3 - phi everywhere, then the points with
    # |phi| > p overwritten by the outer branch
    scalar = np.ndim(phi) == 0
    x = np.atleast_1d(np.asarray(phi, dtype=float))
    p = P
    with np.errstate(over="ignore", invalid="ignore"):
        out = np.square(x)
        inside = not out.size or out.max() <= p * p
        out *= x
        out -= x
        if not inside:
            outside = np.abs(x) > p
            xo = x[outside]
            c = np.copysign(p, xo)
            out[outside] = (np.square(c) * c - c) + (xo - c) * (3.0 * p * p - 1.0)
    return float(out[0]) if scalar else out


def masked_value_reference(phi):
    # the former production F: the quartic everywhere, then the points with
    # |phi| > p overwritten by the Taylor continuation a d^2 + b d + c,
    # d = |phi| - p
    scalar = np.ndim(phi) == 0
    x = np.atleast_1d(np.asarray(phi, dtype=float))
    p = P
    with np.errstate(over="ignore", invalid="ignore"):
        out = np.square(x)
        inside = not out.size or out.max() <= p * p
        out -= 1.0
        np.square(out, out=out)
        out *= 0.25
        if not inside:
            a, b, c = 0.5 * (3.0 * p * p - 1.0), p**3 - p, 0.25 * (p * p - 1.0) ** 2
            outside = np.abs(x) > p
            d = np.abs(x[outside]) - p
            out[outside] = (np.square(d) * a + d * b) + c
    return float(out[0]) if scalar else out


@pytest.mark.parametrize("closed, masked", [
    (potential_deriv, masked_deriv_reference), (potential_value, masked_value_reference),
], ids=["f", "F"])
def test_closed_forms_match_masked_forms_bitwise(closed, masked):
    # bit for bit, NaN matching NaN, on random points, the joints and their
    # neighbours, signed zeros, the wells, the extremes of the float range
    # (where the outer branch overflows) and the smallest subnormal
    joints = [s * q for s in (-1.0, 1.0) for q in (np.nextafter(P, 0.0), P, np.nextafter(P, 3.0))]
    special = joints + [0.0, -0.0, 1.0, -1.0, np.inf, -np.inf, np.nan, 1e300, -1e300,
                        1.7e308, -1.7e308, 5e-324, -5e-324]
    rng = np.random.default_rng(5)
    phi = np.concatenate([rng.uniform(-6.0, 6.0, 100_000), special])
    got, want = closed(phi), masked(phi)
    nan = np.isnan(want)
    np.testing.assert_array_equal(np.isnan(got), nan)
    np.testing.assert_array_equal(got[~nan].view(np.int64), want[~nan].view(np.int64))
    for x in special:
        a, b = closed(x), masked(x)
        assert isinstance(a, np.float64)
        bits = np.array([a, b]).view(np.int64)
        assert np.isnan(a) and np.isnan(b) or bits[0] == bits[1]


def test_square_in_range():
    # x^2, written into the given array, on the closed interval [-P, P],
    # where F is the quartic and f the cubic; None once a point is outside
    # it, NaN or infinite, or squares to inf
    x = np.array([-P, -1.0, 0.0, 0.5, P])
    out = np.empty_like(x)
    sq = square_in_range(x, out)
    assert sq is out
    np.testing.assert_array_equal(sq, x * x)
    sq *= x  # the callers write to the result in place
    np.testing.assert_array_equal(x, [-P, -1.0, 0.0, 0.5, P])
    for bad in (np.nextafter(P, 3.0), -np.nextafter(P, 3.0), np.nan, np.inf, -np.inf, 1e200):
        y = np.append(x, bad)
        assert square_in_range(y, np.empty_like(y)) is None


def test_value_matches_piecewise_definition():
    # the closed form against the quartic and its Taylor continuation
    # written out, within a few ulp of max(1, F); F overflows to inf at
    # +-1e300 and at the infinities, NaN stays NaN, and the outer point
    # beside the NaN still takes the outer branch
    a, b, c = 0.5 * (3 * P * P - 1), P**3 - P, 0.25 * (P * P - 1) ** 2
    rng = np.random.default_rng(4)
    phi = np.concatenate([rng.uniform(-6.0, 6.0, 2000), [-P, P, 0.0, -1.0, 1.0]])
    d = np.abs(phi) - P
    ref = np.where(np.abs(phi) <= P, 0.25 * (phi * phi - 1) ** 2, a * d * d + b * d + c)
    F = potential_value(phi)
    assert np.all(np.abs(F - ref) <= 4 * np.finfo(float).eps * np.maximum(1.0, ref))
    special = potential_value(np.array([1e300, -1e300, np.inf, -np.inf, np.nan, 3.0]))
    assert np.all(special[:4] == np.inf) and np.isnan(special[4])
    assert special[5] == pytest.approx(13.75, rel=1e-15)


def test_branch_continuity():
    for s in (-1.0, 1.0):
        lo, hi = s * P - 1e-12, s * P + 1e-12
        assert abs(potential_value(lo) - potential_value(hi)) <= 1e-8
        assert abs(potential_deriv(lo) - potential_deriv(hi)) <= 1e-7
        # joint is C^2 by construction: f' = 3p^2 - 1 on both sides
        assert abs(second_deriv_oracle(lo) - second_deriv_oracle(hi)) <= 1e-7


def test_lipschitz_bound_piecewise():
    assert L == 11.0 and lipschitz_bound(PotentialSpec()) == L
    # sampling oracle
    phi = np.linspace(-10.0, 10.0, 200001)
    sampled = np.abs(second_deriv_oracle(phi)).max()
    assert sampled <= L + 1e-12
    assert sampled == pytest.approx(L, rel=1e-9)


def test_array_scalar_agreement():
    phi = np.array([-3.0, -1.0, 0.3, 2.0, 4.7])
    vec = potential_deriv(phi)
    for i, p in enumerate(phi):
        assert vec[i] == potential_deriv(float(p))
