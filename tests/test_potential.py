import numpy as np
import pytest

from chillwave import (
    PotentialSpec,
    lipschitz_bound,
    potential_deriv,
    potential_value,
)
from chillwave.potential import cube_in_range


def second_deriv_oracle(spec, phi):
    # f' from the piecewise definition: 3 phi^2 - 1 inside, the outer
    # slope 3 p^2 - 1 outside
    p = spec.truncation_point
    phi = np.asarray(phi, dtype=float)
    return np.where(np.abs(phi) <= p, 3.0 * phi * phi - 1.0, 3.0 * p * p - 1.0)


def deriv_quotient(spec, phi, h=1e-5):
    # central difference quotient of the production f
    return (potential_deriv(spec, phi + h) - potential_deriv(spec, phi - h)) / (2 * h)


def test_value_at_wells_and_origin(spec):
    assert potential_value(spec, 1.0) == pytest.approx(0.0, abs=1e-15)
    assert potential_value(spec, -1.0) == pytest.approx(0.0, abs=1e-15)
    assert potential_value(spec, 0.0) == pytest.approx(0.25)


def test_value_outer_branch(spec):
    # 11/2 + 6 + 9/4 at phi = 3
    assert potential_value(spec, 3.0) == pytest.approx(13.75, abs=1e-13)
    assert potential_value(spec, -3.0) == pytest.approx(13.75, abs=1e-13)


def test_deriv_examples(spec):
    assert potential_deriv(spec, 0.0) == 0.0
    assert potential_deriv(spec, 2.0) == pytest.approx(6.0, abs=1e-13)
    assert potential_deriv(spec, -3.0) == pytest.approx(-17.0, abs=1e-13)


def test_second_deriv_examples(spec):
    assert second_deriv_oracle(spec, 0.0) == pytest.approx(-1.0)
    assert second_deriv_oracle(spec, 2.0) == pytest.approx(11.0, abs=1e-13)
    assert second_deriv_oracle(spec, 10.0) == pytest.approx(11.0)
    # off the joint, where f'' is continuous, so is the quotient's error
    assert deriv_quotient(spec, 0.0) == pytest.approx(-1.0, rel=1e-6)
    assert deriv_quotient(spec, 10.0) == pytest.approx(11.0, rel=1e-6)


def test_deriv_quotients_match_second_deriv_oracle(spec):
    # ties the f' oracle of the Lipschitz and joint tests to potential_deriv,
    # at the tolerance of test_deriv_matches_finite_difference
    rng = np.random.default_rng(2)
    phi = rng.uniform(-5.0, 5.0, 1000)
    oracle = second_deriv_oracle(spec, phi)
    rel = np.abs(deriv_quotient(spec, phi) - oracle) / np.maximum(1.0, np.abs(oracle))
    assert rel.max() <= 1e-6


def test_symmetry():
    spec = PotentialSpec()
    phi = np.linspace(-6.0, 6.0, 1201)
    np.testing.assert_allclose(
        potential_value(spec, phi), potential_value(spec, -phi), atol=1e-14
    )
    np.testing.assert_allclose(
        potential_deriv(spec, phi), -potential_deriv(spec, -phi), atol=1e-14
    )


def test_value_nonnegative_with_zeros_only_at_wells(spec):
    phi = np.linspace(-5.0, 5.0, 4001)
    F = potential_value(spec, phi)
    assert np.all(F >= 0.0)
    near_wells = (np.abs(np.abs(phi) - 1.0) < 1e-2)
    assert np.all(F[~near_wells] > 1e-8)


def test_deriv_matches_finite_difference(spec):
    rng = np.random.default_rng(0)
    phi = rng.uniform(-5.0, 5.0, 1000)
    h = 1e-5
    fd = (potential_value(spec, phi + h) - potential_value(spec, phi - h)) / (2 * h)
    f = potential_deriv(spec, phi)
    rel = np.abs(fd - f) / np.maximum(1.0, np.abs(f))
    assert rel.max() <= 1e-6


def test_deriv_matches_piecewise_definition(spec):
    # the closed form against the two branches written out, within a few
    # ulp of max(1, |f|); infinities and NaN map as the branches do
    p = spec.truncation_point
    rng = np.random.default_rng(1)
    phi = np.concatenate([rng.uniform(-6.0, 6.0, 2000), [-p, p, 0.0, -1.0, 1.0, 1e300, -1e300]])
    outer = np.sign(phi) * ((p**3 - p) + (3 * p * p - 1) * (np.abs(phi) - p))
    with np.errstate(over="ignore", invalid="ignore"):  # the unused inner branch at 1e300
        ref = np.where(np.abs(phi) <= p, phi**3 - phi, outer)
    f = potential_deriv(spec, phi)
    assert np.all(np.abs(f - ref) <= 4 * np.finfo(float).eps * np.maximum(1.0, np.abs(ref)))
    # the outer point beside a NaN still takes the outer branch
    special = potential_deriv(spec, np.array([np.inf, -np.inf, np.nan, 3.0]))
    assert special[0] == np.inf and special[1] == -np.inf and np.isnan(special[2])
    assert special[3] == pytest.approx(17.0, rel=1e-15)


def masked_deriv_reference(spec, phi):
    # the former production f: phi^3 - phi everywhere, then the points with
    # |phi| > p overwritten by the outer branch
    scalar = np.ndim(phi) == 0
    x = np.atleast_1d(np.asarray(phi, dtype=float))
    p = spec.truncation_point
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


@pytest.mark.parametrize("p", [2.0, 1.5])
def test_deriv_closed_form_matches_masked_form_bitwise(p):
    # bit for bit, NaN matching NaN, on random points, the joints and their
    # neighbours, signed zeros, the extremes of the float range (where
    # L (phi - c) overflows) and the smallest subnormal
    spec = PotentialSpec(p)
    joints = [s * q for s in (-1.0, 1.0) for q in (np.nextafter(p, 0.0), p, np.nextafter(p, 3.0))]
    special = joints + [0.0, -0.0, np.inf, -np.inf, np.nan, 1e300, -1e300, 1.7e308, -1.7e308,
                        5e-324, -5e-324]
    rng = np.random.default_rng(5)
    phi = np.concatenate([rng.uniform(-6.0, 6.0, 100_000), special])
    got, want = potential_deriv(spec, phi), masked_deriv_reference(spec, phi)
    nan = np.isnan(want)
    np.testing.assert_array_equal(np.isnan(got), nan)
    np.testing.assert_array_equal(got[~nan].view(np.int64), want[~nan].view(np.int64))
    for x in special:
        a, b = potential_deriv(spec, x), masked_deriv_reference(spec, x)
        assert isinstance(a, float)
        bits = np.array([a, b]).view(np.int64)
        assert np.isnan(a) and np.isnan(b) or bits[0] == bits[1]


def test_cube_in_range(spec):
    # x^3 on the closed interval [-p, p], where f is the cubic; None once a
    # point is outside it, NaN or infinite, or squares to inf
    p = spec.truncation_point
    x = np.array([-p, -1.0, 0.0, 0.5, p])
    np.testing.assert_array_equal(cube_in_range(spec, x), x * x * x)
    for bad in (np.nextafter(p, 3.0), -np.nextafter(p, 3.0), np.nan, np.inf, -np.inf, 1e300):
        assert cube_in_range(spec, np.append(x, bad)) is None


def test_value_matches_piecewise_definition(spec):
    # the masked form against the quartic and its Taylor continuation
    # written out, within a few ulp of max(1, F); F overflows to inf at
    # +-1e300 and at the infinities, NaN stays NaN, and the outer point
    # beside the NaN still takes the outer branch
    p = spec.truncation_point
    a, b, c = 0.5 * (3 * p * p - 1), p**3 - p, 0.25 * (p * p - 1) ** 2
    rng = np.random.default_rng(4)
    phi = np.concatenate([rng.uniform(-6.0, 6.0, 2000), [-p, p, 0.0, -1.0, 1.0]])
    d = np.abs(phi) - p
    ref = np.where(np.abs(phi) <= p, 0.25 * (phi * phi - 1) ** 2, a * d * d + b * d + c)
    F = potential_value(spec, phi)
    assert np.all(np.abs(F - ref) <= 4 * np.finfo(float).eps * np.maximum(1.0, ref))
    special = potential_value(spec, np.array([1e300, -1e300, np.inf, -np.inf, np.nan, 3.0]))
    assert np.all(special[:4] == np.inf) and np.isnan(special[4])
    assert special[5] == pytest.approx(13.75, rel=1e-15)


def test_branch_continuity(spec):
    p = spec.truncation_point
    for s in (-1.0, 1.0):
        lo, hi = s * p - 1e-12, s * p + 1e-12
        assert abs(potential_value(spec, lo) - potential_value(spec, hi)) <= 1e-8
        assert abs(potential_deriv(spec, lo) - potential_deriv(spec, hi)) <= 1e-7
        # joint is C^2 by construction: f' = 3p^2 - 1 on both sides
        assert abs(second_deriv_oracle(spec, lo) - second_deriv_oracle(spec, hi)) <= 1e-7


def test_lipschitz_bound_piecewise(spec):
    assert lipschitz_bound(spec) == pytest.approx(11.0)
    # sampling oracle
    phi = np.linspace(-10.0, 10.0, 200001)
    sampled = np.abs(second_deriv_oracle(spec, phi)).max()
    assert sampled <= lipschitz_bound(spec) + 1e-12
    assert sampled == pytest.approx(lipschitz_bound(spec), rel=1e-9)


def test_lipschitz_bound_other_truncation():
    spec = PotentialSpec(truncation_point=1.5)
    expected = 3 * 1.5**2 - 1  # inner max equals the outer slope
    assert lipschitz_bound(spec) == pytest.approx(expected)
    phi = np.linspace(-10.0, 10.0, 100001)
    assert np.abs(second_deriv_oracle(spec, phi)).max() == pytest.approx(
        expected, rel=1e-9
    )


def test_array_scalar_agreement(spec):
    phi = np.array([-3.0, -1.0, 0.3, 2.0, 4.7])
    vec = potential_deriv(spec, phi)
    for i, p in enumerate(phi):
        assert vec[i] == potential_deriv(spec, float(p))


def test_spec_validation():
    with pytest.raises(ValueError):
        PotentialSpec(truncation_point=1.0)
