from dataclasses import replace

import numpy as np
import pytest

from chillwave import Field, SolveFailed, assemble_basis, gauss_legendre
from chillwave import spectral1d
from chillwave.spectral1d import legendre_table
from conftest import analytic_mass_stiffness, oracle_basis_values, oracle_quadrature


# explicit monomial forms, k <= 5
def legendre_monomial(k, x):
    return [
        lambda x: np.ones_like(x),
        lambda x: x,
        lambda x: (3 * x**2 - 1) / 2,
        lambda x: (5 * x**3 - 3 * x) / 2,
        lambda x: (35 * x**4 - 30 * x**2 + 3) / 8,
        lambda x: (63 * x**5 - 70 * x**3 + 15 * x) / 8,
    ][k](np.asarray(x, dtype=float))


def test_legendre_values_endpoints_and_origin():
    tab = legendre_table(2, np.array([1.0, 0.0]))
    np.testing.assert_allclose(tab[:, 0], [1.0, 1.0, 1.0], atol=1e-15)
    np.testing.assert_allclose(tab[:, 1], [1.0, 0.0, -0.5], atol=1e-15)


def test_legendre_values_monomial_oracle():
    vals = legendre_table(5, np.array([0.3]))[:, 0]
    for k in range(6):
        assert vals[k] == pytest.approx(legendre_monomial(k, 0.3), abs=1e-14)


def test_legendre_values_bounded():
    tab = legendre_table(20, np.linspace(-1.0, 1.0, 101))
    assert np.abs(tab).max() <= 1.0 + 1e-12


def test_gauss_rule_tiny():
    x, w = gauss_legendre(1)
    np.testing.assert_allclose(x, [0.0], atol=1e-16)
    np.testing.assert_allclose(w, [2.0], atol=1e-15)
    x, w = gauss_legendre(2)
    np.testing.assert_allclose(x, [-1 / np.sqrt(3), 1 / np.sqrt(3)], atol=1e-15)
    np.testing.assert_allclose(w, [1.0, 1.0], atol=1e-15)


def test_gauss_rule_structure():
    x, w = gauss_legendre(33)
    assert np.all(np.diff(x) > 0)
    assert np.all((-1 < x) & (x < 1))
    assert np.all(w > 0)
    assert w.sum() == pytest.approx(2.0, abs=1e-14)


def test_gauss_monomial_example():
    x, w = gauss_legendre(16)
    assert w @ x**30 == pytest.approx(2.0 / 31.0, abs=1e-14)


def test_gauss_exactness_random_polynomials():
    rng = np.random.default_rng(1)
    for n in (4, 9, 16):
        x, w = gauss_legendre(n)
        deg = 2 * n - 1
        for _ in range(5):
            c = rng.standard_normal(deg + 1)
            quad = w @ np.polynomial.polynomial.polyval(x, c)
            # analytic: odd monomials vanish, even integrate to 2/(d+1)
            exact = sum(2.0 * c[d] / (d + 1) for d in range(0, deg + 1, 2))
            assert quad == pytest.approx(exact, rel=1e-12, abs=1e-12)


def test_gauss_matches_numpy_rule():
    x, w = gauss_legendre(40)
    xo, wo = oracle_quadrature(40)
    np.testing.assert_allclose(x, xo, atol=1e-13)
    np.testing.assert_allclose(w, wo, atol=1e-13)


def table_gauss_legendre(n):
    # the rule by Newton's method on the full legendre_table of degree n,
    # of which the iteration reads only the last two rows
    i = np.arange(n)
    x = -np.cos(np.pi * (4 * i + 3) / (4 * n + 2))
    for _ in range(100):
        tab = legendre_table(n, x)
        dx = tab[n] / (n * (tab[n - 1] - x * tab[n]) / (1.0 - x * x))
        x = x - dx
        if np.max(np.abs(dx)) <= 1e-15:
            break
    x = 0.5 * (x - x[::-1])
    tab = legendre_table(n, x)
    dln = n * (tab[n - 1] - x * tab[n]) / (1.0 - x * x)
    return x, 2.0 / ((1.0 - x * x) * dln * dln)


@pytest.mark.parametrize("n", [1, 2, 4, 8, 48, 96, 128, 256])
def test_gauss_rule_equals_the_table_form(n):
    # gauss_legendre keeps only L_{n-1} and L_n of the recurrence; its
    # nodes and weights are the full table's, bit for bit
    for got, want in zip(gauss_legendre(n), table_gauss_legendre(n)):
        np.testing.assert_array_equal(got, want)


def test_gauss_preconditions():
    with pytest.raises(ValueError):
        gauss_legendre(0)


def test_a_stalled_gauss_iteration_is_a_solve_failure(monkeypatch):
    # rows (L_{n-1}, L_n) = (1, 1e-3) move each node by about
    # 1e-3 (1 - x^2) / n a step, so the Newton iteration never converges
    monkeypatch.setattr(spectral1d, "_legendre_rows", lambda n, x: (1.0, 1e-3))
    with pytest.raises(SolveFailed, match="stalled for n = 4"):
        gauss_legendre(4)


def test_basis_matrices_examples():
    mass, stiff = analytic_mass_stiffness(4)
    np.testing.assert_allclose(np.diag(stiff), [0.0, 2.0, 6.0, 12.0], atol=1e-13)
    assert mass[2, 2] == pytest.approx(2 / 5, abs=1e-14)
    # integral of L_2' L_4' = 2 (2 + 1)
    assert analytic_mass_stiffness(6)[1][2, 4] == pytest.approx(6.0, abs=1e-14)


def test_basis_matrix_structure(basis16):
    mass, stiff = analytic_mass_stiffness(basis16.M)
    np.testing.assert_allclose(mass, np.diag(np.diag(mass)), atol=1e-15)
    assert np.all(np.diag(mass) > 0)
    np.testing.assert_allclose(stiff, stiff.T, atol=1e-15)
    # L_j' L_k' is odd when j + k is odd, so those entries vanish
    M = basis16.M
    for j in range(M):
        for k in range(M):
            if (j + k) % 2 == 1:
                assert stiff[j, k] == pytest.approx(0.0, abs=1e-15)


def test_stiffness_diagonal_formula(basis16):
    d = np.diag(analytic_mass_stiffness(basis16.M)[1])
    assert d[0] == 0.0
    for k in range(1, basis16.M):
        assert d[k] == pytest.approx(k * (k + 1), abs=1e-12)


def test_matrices_against_quadrature_oracle(basis8):
    M = basis8.M
    x, w = oracle_quadrature(2 * M)
    tab = oracle_basis_values(M, x)
    dtab = oracle_basis_values(M, x, deriv=1)
    mass_q = (tab * w) @ tab.T
    stiff_q = (dtab * w) @ dtab.T
    mass, stiff = analytic_mass_stiffness(M)
    np.testing.assert_allclose(mass, mass_q, atol=1e-12)
    np.testing.assert_allclose(stiff, stiff_q, atol=1e-12)
    # the basis's eigenpair diagonalizes them: K E = M E diag(lam), E^T M E = I
    E, lam = basis8.E, basis8.lam
    np.testing.assert_allclose(stiff @ E, mass @ E * lam, atol=1e-12)
    np.testing.assert_allclose(E.T @ mass @ E, np.eye(M), atol=1e-12)


def test_assemble_precondition():
    with pytest.raises(ValueError):
        assemble_basis(3)


def x5_grid(basis):
    # x^5 (x) 1 on the 2M x 2M Gauss grid
    x, _ = gauss_legendre(2 * basis.M)
    return (x**5)[:, None] * np.ones(x.size)[None, :]


def test_x5_round_trip_as_written(basis8):
    g = x5_grid(basis8)
    T, G = basis8.T, basis8.G
    np.testing.assert_allclose(T @ (G @ g @ G.T) @ T.T, g, atol=1e-13)


def test_x5_forward_is_the_exact_projection(basis8):
    # the fit should return the quadrature-optimal projection, x^5 in x
    # times the constant mode in y
    M = basis8.M
    x, w = oracle_quadrature(2 * M)
    tab = oracle_basis_values(M, x)
    gram = (tab * w) @ tab.T
    rhs = (tab * w) @ x**5
    expected = np.zeros((M, M))
    expected[:, 0] = np.linalg.solve(gram, rhs)
    G = basis8.G
    fit = Field(basis8, G @ x5_grid(basis8) @ G.T)
    np.testing.assert_allclose(fit.coeffs, expected, atol=1e-12)


@pytest.mark.parametrize("M", [8, 13])
def test_grid_maps_match_oracle(M):
    # T_P = eval_P^T E evaluates modal coefficients on the P-point Gauss
    # grid and G_P = E^T eval_P diag(w_P) fits them back, for P = M (T_M,
    # G_M) and P = 2M (T, G); the fit inverts evaluation on either set
    b = assemble_basis(M)
    for n, T, G in ((M, b.T_M, b.G_M), (2 * M, b.T, b.G)):
        x, w = oracle_quadrature(n)
        tab = oracle_basis_values(M, x)
        np.testing.assert_allclose(T, tab.T @ b.E, atol=1e-12)
        np.testing.assert_allclose(G, b.E.T @ (tab * w), atol=1e-12)
        np.testing.assert_allclose(G @ T, np.eye(M), atol=1e-12)


@pytest.mark.parametrize("M", [8, 47, 48, 128])
def test_step_maps_are_column_major(M):
    # T and G are stored column-major, so the second matmul of each pair
    # (tall @ T.T, wide @ G.T) reads a C-contiguous operand; the values are
    # the plain products, bit for bit, and replace() re-derives the layout
    b = assemble_basis(M)
    x, w = gauss_legendre(2 * M)
    tab = legendre_table(M - 1, x)
    for basis in (b, replace(b, E=b.E)):
        for A, expected in ((basis.T, tab.T @ basis.E), (basis.G, basis.E.T @ (tab * w))):
            assert A.flags.f_contiguous and not A.flags.writeable
            assert A.T.flags.c_contiguous
            assert np.array_equal(A, expected)
