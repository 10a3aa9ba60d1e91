import re

import numpy as np
import pytest

import chillwave as cw
from chillwave import (
    Field,
    error_norms,
    mean_value,
    read_snapshot,
    write_snapshot,
)
from chillwave.field2d import GridPlan, quadrants
from chillwave.timestepping import modal_load
from conftest import (
    analytic_mass_stiffness,
    dense_maps,
    fitted,
    grid_of,
    natural,
    oracle_eval_2d,
    oracle_load,
    oracle_quadrature,
    rand_field,
    rand_zero_mean,
    unit_field,
)


def kron_stiff_mass(basis):
    # the 2-D stiffness K x M + M x K and mass M x M, from the closed forms
    mass, stiff = analytic_mass_stiffness(basis.M)
    return np.kron(stiff, mass) + np.kron(mass, stiff), np.kron(mass, mass)


def test_field_shape_validation(basis8):
    with pytest.raises(ValueError):
        Field(basis8, np.zeros((8, 7)))


def test_coeffs_is_a_read_only_export(basis8):
    # a write to the Legendre coefficients would be lost on a temporary,
    # so it raises; the field itself is its modal coefficients v
    u = unit_field(basis8, 2, 1, 0.5)
    expected = np.zeros((8, 8))
    expected[2, 1] = 0.5
    np.testing.assert_allclose(u.coeffs, expected, atol=1e-15)
    with pytest.raises(ValueError, match="read-only"):
        u.coeffs[0, 0] = 1.0
    with pytest.raises(AttributeError):
        u.coeffs = expected


def test_nodal_round_trip_constant(basis8):
    u = unit_field(basis8, 0, 0)
    T, G = basis8.T_M, basis8.G_M
    g = T @ u.v @ T.T
    np.testing.assert_allclose(g, np.ones((8, 8)), atol=1e-14)
    np.testing.assert_allclose(Field(basis8, G @ g @ G.T).coeffs, u.coeffs, atol=1e-13)
    np.testing.assert_allclose(grid_of(basis8, u.v), np.ones((2, 2, 8, 8)), atol=1e-14)


def test_nodal_round_trip_basis_member(basis8):
    u = unit_field(basis8, 2, 3)
    T, G = basis8.T_M, basis8.G_M
    g = T @ u.v @ T.T
    assert g.shape == (8, 8)
    np.testing.assert_allclose(Field(basis8, G @ g @ G.T).coeffs, u.coeffs, atol=1e-13)
    g = grid_of(basis8, u.v)
    assert g.shape == (2, 2, 8, 8)
    np.testing.assert_allclose(fitted(basis8, g).coeffs, u.coeffs, atol=1e-13)


def test_nodal_round_trip_random(basis16):
    rng = np.random.default_rng(3)
    u = rand_field(basis16, rng)
    T, G = basis16.T_M, basis16.G_M
    for back in (Field(basis16, G @ (T @ u.v @ T.T) @ G.T), fitted(basis16, grid_of(basis16, u.v))):
        assert np.abs(back.coeffs - u.coeffs).max() <= 1e-12


def test_grid_map_matches_oracle_evaluation(basis8):
    rng = np.random.default_rng(4)
    u = rand_field(basis8, rng)
    g = natural(grid_of(basis8, u.v))
    x, _ = cw.gauss_legendre(16)
    expected = oracle_eval_2d(u.coeffs, x, x)
    np.testing.assert_allclose(g, expected, atol=1e-12)


def test_quadrant_layout_round_trip():
    # g[s, t, i, j] = u((-1)^s x_i, (-1)^t y_j) for the positive nodes x_i
    # in ascending order: quadrants and the tests' natural are inverses
    M = 5
    x, _ = cw.gauss_legendre(2 * M)
    g = np.add.outer(10.0 * x, x)
    q = quadrants(g)
    assert q.shape == (2, 2, M, M) and q.flags.c_contiguous
    for s in (0, 1):
        for t in (0, 1):
            np.testing.assert_array_equal(q[s, t], np.add.outer(10.0 * (-1) ** s * x[M:],
                                                                (-1) ** t * x[M:]))
    np.testing.assert_array_equal(natural(q), g)


@pytest.mark.parametrize("M", [8, 9, 13, 48])
def test_parity_transforms_match_the_dense_maps(M):
    # a GridPlan's grid is T v T^T and its fit G g G^T for the dense 2M maps of the
    # oracle tables, in the quadrant layout, on M x M modes at every M; an odd
    # M's padding is the plan's own, so on NaN-filled work grids grid() of v
    # written into `modes` and grid(v) are T v T^T too, whatever b held
    b = cw.assemble_basis(M)
    T, G = dense_maps(b)
    rng = np.random.default_rng(M)
    v, g = rng.standard_normal((M, M)), rng.standard_normal((2 * M, 2 * M))
    want = T @ v @ T.T
    plan = GridPlan(b, np.full((2, 2, M, M), np.nan), np.full((2, 2, M, M), np.nan))
    plan.modes[...] = v
    for got in (grid_of(b, v), plan.grid().copy(), plan.grid(v)):
        assert np.abs(natural(got) - want).max() <= 1e-12 * np.abs(want).max()
    q = quadrants(g)
    modes = GridPlan(b, q, np.empty_like(q)).fit()
    assert modes.shape == (M, M)
    want = G @ g @ G.T
    assert np.abs(modes - want).max() <= 1e-12 * np.abs(want).max()


def norms(u):
    """error_norms(u, 0): the (H^-1, L^2, H^1) norms of a zero-mean u."""
    return error_norms(u, Field(u.basis, np.zeros_like(u.v)))


@pytest.mark.parametrize("pair", [error_norms])
def test_a_field_pair_shares_one_basis_instance(pair):
    # two assemble_basis(8) calls give equal bases but two instances
    u, v = (unit_field(cw.assemble_basis(8), 1, 0) for _ in range(2))
    with pytest.raises(ValueError, match="fields must share one Basis1D instance"):
        pair(u, v)


def test_l2_norm_example_and_oracle(basis8):
    # u = L_2(x): integral of u^2 over the square is (2/5) 2
    assert norms(unit_field(basis8, 2, 0))[1] ** 2 == pytest.approx((2 / 5) * 2, abs=1e-13)
    # quadrature oracle on the doubled grid
    u = rand_zero_mean(basis8, np.random.default_rng(5))
    x, w = oracle_quadrature(16)
    uu = oracle_eval_2d(u.coeffs, x, x)
    assert norms(u)[1] ** 2 == pytest.approx(w @ (uu * uu) @ w, rel=1e-12)


def test_h1_seminorm_examples(basis8):
    # u = x: integral of |grad u|^2 over the square is 4
    _, l2, h1 = norms(unit_field(basis8, 1, 0))
    assert h1**2 - l2**2 == pytest.approx(4.0, abs=1e-13)


def test_h1_seminorm_quadrature_oracle(basis8):
    u = rand_zero_mean(basis8, np.random.default_rng(6))
    x, w = oracle_quadrature(16)
    ux = oracle_eval_2d(u.coeffs, x, x, dx=1)
    uy = oracle_eval_2d(u.coeffs, x, x, dy=1)
    quad = w @ (ux * ux + uy * uy) @ w
    _, l2, h1 = norms(u)
    assert h1**2 - l2**2 == pytest.approx(quad, rel=1e-11)


def test_mean_value(basis8):
    assert mean_value(unit_field(basis8, 0, 0, 0.7)) == pytest.approx(0.7)
    assert mean_value(unit_field(basis8, 2, 2)) == 0.0
    rng = np.random.default_rng(7)
    u = rand_field(basis8, rng)
    x, w = oracle_quadrature(16)
    quad_mean = (w @ oracle_eval_2d(u.coeffs, x, x) @ w) / 4.0
    assert mean_value(u) == pytest.approx(quad_mean, abs=1e-13)


def test_hminus1_basics(basis16):
    assert norms(unit_field(basis16, 0, 0, 0.0))[0] == 0.0
    rng = np.random.default_rng(10)
    u = rand_zero_mean(basis16, rng)
    assert norms(Field(basis16, -2.5 * u.v))[0] == pytest.approx(2.5 * norms(u)[0], rel=1e-12)


def test_error_norms_remove_a_mean_gap_below_1e_9(basis8):
    # two fields that differ only in the constant mode, whose mean is E[0,0]^2 v[0,0]
    u = rand_field(basis8, np.random.default_rng(9))

    def shifted(gap):
        v = Field(basis8, u.v.copy())
        v.v[0, 0] += gap / basis8.E[0, 0] ** 2
        return v

    assert error_norms(u, shifted(5e-10)) == (0.0, 0.0, 0.0)
    with pytest.raises(ValueError, match="exceeds 1e-9"):
        error_norms(u, shifted(2e-9))


def test_hminus1_dense_oracle(basis16):
    rng = np.random.default_rng(11)
    u = rand_zero_mean(basis16, rng)
    K2, M2 = kron_stiff_mass(basis16)
    rhs = (M2 @ u.coeffs.ravel())[1:]
    w = np.linalg.solve(K2[1:, 1:], rhs)
    v = np.concatenate([[0.0], w])
    expected = np.sqrt(u.coeffs.ravel() @ M2 @ v)
    assert norms(u)[0] == pytest.approx(expected, rel=1e-11)


def test_hminus1_cosine_value():
    b = cw.assemble_basis(32)
    c = np.cos(np.pi * cw.gauss_legendre(64)[0])
    u = fitted(b, np.outer(c, c))
    assert norms(u)[0] == pytest.approx(1.0 / (np.sqrt(2.0) * np.pi), abs=1e-6)


def nonlinear_load(u):
    # the production modal load G(f(g) + g) of a field's 2M grid g,
    # as march holds it, less the field's modal coefficients: G f(g) G^T
    grid = grid_of(u.basis, u.v)
    return modal_load(GridPlan(u.basis, grid, np.empty_like(grid))) - u.v


def to_modal_form(basis, load):
    # a load tested against the basis functions, tested against the modal ones
    return basis.E.T @ load @ basis.E


def test_nonlinear_load_constants(basis8):
    z = nonlinear_load(unit_field(basis8, 0, 0, 1.0))
    assert np.abs(z).max() <= 1e-13
    c = nonlinear_load(unit_field(basis8, 0, 0, 0.5))
    expected = np.zeros((8, 8))
    expected[0, 0] = 4 * -0.375  # f(1/2) times the area of the square
    np.testing.assert_allclose(c, to_modal_form(basis8, expected), atol=1e-13)


def test_nonlinear_load_cubic_exact(basis8):
    # a(x, y) = x: f(a) = x^3 - x = (2/5)(L_3 - L_1), so the load is
    # (2/5) ||L_k||^2 (delta_k3 - delta_k1) times integral of L_0(y) = 2
    load = nonlinear_load(unit_field(basis8, 1, 0))
    expected = np.zeros((8, 8))
    expected[1, 0] = -0.4 * (2 / 3) * 2
    expected[3, 0] = 0.4 * (2 / 7) * 2
    np.testing.assert_allclose(load, to_modal_form(basis8, expected), atol=1e-13)
    oracle = oracle_load(unit_field(basis8, 1, 0).coeffs)
    np.testing.assert_allclose(load, to_modal_form(basis8, oracle), atol=1e-13)


def test_nonlinear_load_oracle(basis8):
    rng = np.random.default_rng(12)
    a = rand_field(basis8, rng, amp=0.4)
    np.testing.assert_allclose(
        nonlinear_load(a),
        to_modal_form(basis8, oracle_load(a.coeffs)), atol=1e-12,
    )


def test_l2_telescoping_identity(basis16):
    # 2(a - b, a) = |a|^2 - |b|^2 + |a - b|^2 in each of the three norms,
    # with 4(a - b, a) = |2a - b|^2 - |b|^2 by polarization
    rng = np.random.default_rng(13)
    a, b = rand_zero_mean(basis16, rng), rand_zero_mean(basis16, rng)
    lhs = (np.square(error_norms(Field(basis16, 2 * a.v), b)) - np.square(norms(b))) / 2
    rhs = np.square(norms(a)) - np.square(norms(b)) + np.square(error_norms(a, b))
    np.testing.assert_allclose(lhs, rhs, rtol=1e-12)


def test_interpolation_inequality(basis16):
    # ||u||^2 <= |u|_1 ||u||_-1
    rng = np.random.default_rng(15)
    for _ in range(20):
        hm1, l2, h1 = norms(rand_zero_mean(basis16, rng))
        assert l2**2 <= np.sqrt(h1**2 - l2**2) * hm1 + 1e-9


def test_snapshot_round_trip(tmp_path, basis8):
    rng = np.random.default_rng(16)
    u = rand_field(basis8, rng)
    p = tmp_path / "snap.csv"
    write_snapshot(u, p, eps=0.05, gamma=0.0025, t=1.25, step=125)
    back, meta = read_snapshot(p)
    assert meta == {"M": 8, "eps": 0.05, "gamma": 0.0025, "t": 1.25, "step": 125}
    assert np.abs(back.coeffs - u.coeffs).max() <= 1e-12
    with open(p) as fh:
        assert fh.readline().strip() == "M,eps,gamma,t,step"


def test_snapshot_bytes_deterministic(tmp_path, basis8):
    rng = np.random.default_rng(17)
    u = rand_field(basis8, rng)
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    write_snapshot(u, p1, eps=0.1, gamma=1.0, t=0.0, step=0)
    write_snapshot(u, p2, eps=0.1, gamma=1.0, t=0.0, step=0)
    assert p1.read_bytes() == p2.read_bytes()


def test_snapshot_reuses_supplied_basis(tmp_path, basis8):
    u = unit_field(basis8, 2, 1)
    p = tmp_path / "snap.csv"
    write_snapshot(u, p, eps=0.25, gamma=1.0, t=0.5, step=5)
    back, _ = read_snapshot(p, basis=basis8)
    assert back.basis is basis8
    np.testing.assert_allclose(back.coeffs, u.coeffs, atol=1e-12)
    # an 8 x 8 body is the 2M grid of M = 4, but a snapshot is always on
    # the M grid of its own M
    message = f"snapshot {p} has M = 8, but the basis has M = 4"
    with pytest.raises(ValueError, match=re.escape(message)):
        read_snapshot(p, basis=cw.assemble_basis(4))
    # a header or value line other than the five snapshot fields
    lines = p.read_text().splitlines(keepends=True)
    for head in (["M,eps,gamma,t,step\n", "8,0.05\n"], ["M,eps,gamma,t\n", "8,0.25,1.0,0.5\n"],
                 ["M,eps,gamma,t,step\n", "8,0.25,1.0,0.5,five\n"]):
        p.write_text("".join(head + lines[2:]))
        with pytest.raises(ValueError, match="must start with the line M,eps,gamma,t,step "):
            read_snapshot(p, basis=basis8)
    # a body other than M rows of M finite numbers names the file, the row and M
    row = lines[3].rstrip("\n").split(",")
    for body, error in (
        ([*lines[:3], ",".join(row[:-1]) + "\n", *lines[4:]], r"grid row 2 \(line 4\): expected M = 8 "),
        ([*lines[:4], ",".join(["a", *row[1:]]) + "\n", *lines[5:]], r"grid row 3 \(line 5\)"),
        (lines[:-1], "has 7 grid rows, expected M = 8"),
        (lines + ["\n"], r"grid row 9 \(line 11\)"),
        (["M,eps,gamma,t,step\n", "2,0.25,1.0,0.5,5\n", "0.0,0.0\n", "0.0,0.0\n"],
         "has M = 2, but M must be >= 4"),
        # a snapshot the package writes holds no NaN or infinity
        ([*lines[:2], ",".join(["nan", "inf", *row[2:]]) + "\n", *lines[3:]],
         r"grid row 1 \(line 3\): expected M = 8 comma-separated finite numbers"),
        ([*lines[:5], ",".join([*row[:-1], "-inf"]) + "\n", *lines[6:]], r"grid row 4 \(line 6\)"),
        (["M,eps,gamma,t,step\n", "8,0.25,nan,0.5,5\n", *lines[2:]], "its five finite values"),
    ):
        p.write_text("".join(body))
        with pytest.raises(ValueError, match=error) as exc:
            read_snapshot(p)
        assert str(exc.value).startswith(f"snapshot {p}")


def test_spatial_convergence_cosine():
    # the L^2 projection of the smooth Neumann function cos(pi x) cos(pi y)
    # converges spectrally: at least 10x smaller error per 2 more modes
    x, w = oracle_quadrature(80)
    exact = np.outer(np.cos(np.pi * x), np.cos(np.pi * x))
    errs = []
    for M in range(6, 18, 2):
        b = cw.assemble_basis(M)
        c = np.cos(np.pi * cw.gauss_legendre(2 * M)[0])
        u = fitted(b, np.outer(c, c))
        diff = oracle_eval_2d(u.coeffs, x, x) - exact
        errs.append(np.sqrt(w @ diff**2 @ w))
    assert all(fine <= coarse / 10 for coarse, fine in zip(errs, errs[1:]))
    assert errs[-1] < 1e-9
