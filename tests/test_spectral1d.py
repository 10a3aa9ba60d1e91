from dataclasses import replace

import numpy as np
import pytest

from chillwave import SolveFailed, assemble_basis, gauss_legendre
from chillwave import spectral1d
from chillwave.spectral1d import legendre_table
from conftest import (
    analytic_mass_stiffness, fitted, grid_of, natural, oracle_basis_values, oracle_quadrature,
)


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
    np.testing.assert_allclose(natural(grid_of(basis8, fitted(basis8, g).v)), g, atol=1e-13)


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
    np.testing.assert_allclose(fitted(basis8, x5_grid(basis8)).coeffs, expected, atol=1e-12)


def parity_columns(values, M):
    """(2, rows, M/2) stack of the parity-major columns of values: the
    even block, then the odd one."""
    H = M // 2
    return np.stack([values[:, :H], values[:, H:]])


@pytest.mark.parametrize("M", [8, 14])
def test_grid_maps_match_oracle(M):
    # T_M = eval_M^T E evaluates modal coefficients on the M-point Gauss
    # grid and G_M = E^T eval_M diag(w_M) fits them back; on the 2M set the
    # stacks hold each parity's mode values at the positive nodes and
    # their weighted transposes, and weights is those nodes' weights once
    # per quadrant
    b = assemble_basis(M)
    x, w = oracle_quadrature(M)
    tab = oracle_basis_values(M, x)
    np.testing.assert_allclose(b.T_M, tab.T @ b.E, atol=1e-12)
    np.testing.assert_allclose(b.G_M, b.E.T @ (tab * w), atol=1e-12)
    np.testing.assert_allclose(b.G_M @ b.T_M, np.eye(M), atol=1e-12)
    x, w = oracle_quadrature(2 * M)
    stack = parity_columns(oracle_basis_values(M, x[M:]).T @ b.E, M)
    np.testing.assert_allclose(b.eval_stack, stack, atol=1e-12)
    np.testing.assert_allclose(b.fit_stack, stack.transpose(0, 2, 1) * w[M:], atol=1e-12)
    np.testing.assert_allclose(b.weights, np.tile(w[M:], 4), atol=1e-14)


@pytest.mark.parametrize("M", [8, 10, 48, 128])
def test_parity_stacks_layout(M):
    # the stacks are (2, M, H) and (2, H, M), H = M/2 (odd at M = 10),
    # stored so that each transpose, a transform's right-hand GEMM operand,
    # is C-contiguous; the values are the plain products, bit for bit, and
    # replace() re-derives the layout
    b = assemble_basis(M)
    H = M // 2
    x, w = gauss_legendre(2 * M)
    values = parity_columns(legendre_table(M - 1, x[M:]).T @ b.E, M)
    for basis in (b, replace(b, E=b.E)):
        A, G = basis.eval_stack, basis.fit_stack
        assert A.shape == (2, M, H) and G.shape == (2, H, M)
        for stack in (A, G):
            assert stack.transpose(0, 2, 1).flags.c_contiguous and not stack.flags.writeable
        assert np.array_equal(A, values)
        assert np.array_equal(G, values.transpose(0, 2, 1) * w[M:])
        assert np.array_equal(basis.weights, np.tile(w[M:], 4))


def cross_parity(E):
    """E's entries that a parity-major E holds at exactly 0: the odd
    Legendre rows of its first M/2 columns, the even rows of the rest."""
    M = len(E)
    return E[(np.arange(M) % 2 == 1)[:, None] != (np.arange(M) >= M // 2)]


@pytest.mark.parametrize("M", [16, 48, 128])
def test_eigenbasis_is_parity_exact(M):
    # one eigh per parity block: every cross-parity entry is exactly 0,
    # each block is in ascending lam, and lam[0] = 0 is the constant mode
    b = assemble_basis(M)
    H = M // 2
    assert not cross_parity(b.E).any()
    assert b.lam[0] == 0.0 and b.E[0, 0] > 0.0 and not b.E[1:, 0].any()
    assert np.all(np.diff(b.lam[:H]) > 0) and np.all(np.diff(b.lam[H:]) > 0)


def refined_block(M, parity):
    """One parity block of the eigenbasis in long double: the symmetric
    D^-1/2 K D^-1/2 of that block, built from the integer stiffness and the
    exact mass D = diag(2/(2k+1)), its float64 eigh, refined by one
    Ogita-Aishima step (Japan J. Indust. Appl. Math. 35, 2018), and scaled
    back by D^-1/2."""
    k = np.arange(parity, M, 2)
    m = np.minimum.outer(k, k).astype(np.longdouble)
    s = np.sqrt((2 * k + 1).astype(np.longdouble) / 2)
    A = s[:, None] * (m * (m + 1)) * s
    X = np.linalg.eigh(A.astype(float))[1].astype(np.longdouble)
    R = np.eye(len(k), dtype=np.longdouble) - X.T @ X
    S = X.T @ A @ X
    lam = np.diag(S) / (1 - np.diag(R))

    def norm(Y):  # Frobenius, a bound on the 2-norm that numpy's norm lacks for long double
        return np.sqrt(np.sum(Y * Y))

    delta = 2 * (norm(S - np.diag(lam)) + norm(A) * norm(R))
    gap = lam[None, :] - lam[:, None]
    apart = np.abs(gap) > delta
    F = np.where(apart, (S + lam[None, :] * R) / np.where(apart, gap, 1), R / 2)
    return s[:, None] * (X + X @ F)


def eigenvector_error(E, M):
    """max |E - E_ref| after aligning each column's sign with the refined
    long-double reference, which is 0 across parities."""
    H = M // 2
    ref = np.zeros((M, M), dtype=np.longdouble)
    ref[0::2, :H], ref[1::2, H:] = refined_block(M, 0), refined_block(M, 1)
    sign = np.where(np.sum(E * ref, axis=0) < 0, -1.0, 1.0)
    return float(np.abs(E * sign - ref).max())


@pytest.mark.parametrize("M", [48, 64, pytest.param(128, marks=pytest.mark.xfail(
    strict=True, raises=AssertionError,
    reason="ROADMAP item 19: a dense eigh resolves the smooth modes only to about "
    "eps lam_max / gap, so E lies 1.2e-10 from the reference at M = 128"))])
def test_eigenbasis_matches_a_long_double_oracle(M):
    # per-parity E lies within 1e-11 of the refined reference (measured
    # 1.2e-12 and 4.4e-12 against a 40-digit one, and 1.24e-10 at M = 128,
    # which item 19's tridiagonal form brings to 3.4e-13); a single eigh of
    # the whole matrix, with its cross-parity roundoff, misses the bound
    assert eigenvector_error(assemble_basis(M).E, M) <= 1e-11


def test_basis_rejects_an_E_that_is_not_parity_major():
    # a lam-sorted E (the two blocks merged by eigenvalue), or one with a
    # cross-parity entry of 1e-14, is rejected with a one-line error; at
    # M = 10 each parity block is 5 wide
    b = assemble_basis(10)
    order = np.argsort(b.lam, kind="stable")
    polluted = b.E.copy()
    polluted[1, 0] = 1e-14
    for lam, E in ((b.lam[order], b.E[:, order]), (b.lam, polluted)):
        with pytest.raises(ValueError, match="^E must be parity-major: its first 5 columns") as exc:
            spectral1d.Basis1D(lam=lam, E=E)
        assert "\n" not in str(exc.value)
