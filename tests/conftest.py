"""Shared fixtures and independent oracles.

Oracles deliberately avoid the package's own Legendre machinery: basis
values come from numpy.polynomial.legendre and quadrature nodes from
numpy's leggauss, so matrix/transform tests cross-check two independent
implementations. A Field holds modal coefficients; `legendre_field` builds
one from Legendre coefficients with the analytic mass diag(2/(2k+1)), and
`analytic_mass_stiffness` gives the dense mass and stiffness matrices from
their closed forms. `dense_maps` are the dense 2M maps, from the oracle
tables, that the parity transforms replace. `grid_of` and `fitted` run
the package's transforms on fresh arrays, and `natural` takes one of its
quadrant-major grids back to the ascending nodes, where the oracles
evaluate. `experiment` runs a benchmark workload (perfbench/workloads.py, as
checked in) once per session for the tests that share it. `Snapshots` is
an on_snapshot hook that keeps what a run hands it.
"""
import importlib.util
import sys
from functools import lru_cache
from pathlib import Path

import numpy as np
import pytest
from numpy.polynomial import legendre as npleg

from chillwave import Field, SchemeParams, assemble_basis, build_step_operator, potential_deriv
from chillwave.diagnostics import step_energies
from chillwave.field2d import GridPlan, quadrants


PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def load_perfbench(name):
    """Yield perfbench/<name>.py as imported, in sys.modules until closed."""
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up
    try:
        spec.loader.exec_module(module)
        yield module
    finally:
        del sys.modules[spec.name]


@pytest.fixture(scope="session")
def workloads():
    yield from load_perfbench("workloads")


@pytest.fixture(scope="session")
def experiment(workloads, tmp_path_factory):
    """experiment(name) -> (ctx, result): setup(42, dir), then run, once."""
    @lru_cache(maxsize=None)
    def get(name):
        workload = workloads.WORKLOADS[name]
        ctx = workload.setup(42, str(tmp_path_factory.mktemp(name)))
        return ctx, workload.run(ctx)

    return get


@pytest.fixture(scope="session")
def basis8():
    return assemble_basis(8)


@pytest.fixture(scope="session")
def basis16():
    return assemble_basis(16)


def oracle_basis_values(M, x, deriv=0):
    """Table of phi_k (or a derivative) at arbitrary points, k = 0..M-1.

    phi_k = L_k, the Legendre polynomial of degree k.
    """
    x = np.asarray(x, dtype=float)
    out = np.empty((M, x.size))
    for k in range(M):
        c = np.zeros(k + 1)
        c[k] = 1.0
        poly = npleg.Legendre(c)
        if deriv:
            poly = poly.deriv(deriv)
        out[k] = poly(x)
    return out


def oracle_quadrature(n):
    return npleg.leggauss(n)


def oracle_eval_2d(coeffs, x, y, dx=0, dy=0):
    """Evaluate a coefficient array (or a partial derivative) on the
    tensor grid x cross y; result[i, j] = u(x_i, y_j)."""
    M = coeffs.shape[0]
    tx = oracle_basis_values(M, x, deriv=dx)
    ty = oracle_basis_values(M, y, deriv=dy)
    return tx.T @ coeffs @ ty


def oracle_load(coeffs):
    # independent 2M-point quadrature of f(a) phi_k(x) phi_j(y)
    M = coeffs.shape[0]
    x, w = oracle_quadrature(2 * M)
    tw = oracle_basis_values(M, x) * w
    return tw @ potential_deriv(oracle_eval_2d(coeffs, x, x)) @ tw.T


def dense_maps(basis):
    """(T, G) on the 2M ascending Gauss nodes from the oracle table:
    T = eval^T E evaluates modes, grid = T v T^T, and G = E^T eval diag(w)
    fits a grid back, v = G g G^T."""
    x, w = oracle_quadrature(2 * basis.M)
    tab = oracle_basis_values(basis.M, x)
    return tab.T @ basis.E, basis.E.T @ (tab * w)


class Snapshots(list):
    """An on_snapshot hook for run_simulation: the (n, t, field) of every
    snapshot the run hands it, in order."""

    def __call__(self, n, t, field):
        self.append((n, t, field))


def grid_of(basis, v):
    """The quadrant-major 2M grid of the M x M modal array v, by a
    field2d.GridPlan on fresh arrays."""
    M = basis.M
    return GridPlan(basis, np.empty((2, 2, M, M)), np.empty((2, 2, M, M))).grid(v)


def fitted(basis, grid):
    """The Field fitted from a 2M grid, quadrant-major or 2M x 2M on the
    ascending nodes, by a field2d.GridPlan on fresh arrays."""
    grid = quadrants(grid) if grid.ndim == 2 else grid.copy()
    return Field(basis, GridPlan(basis, grid, np.empty_like(grid)).fit().copy())


def natural(grid):
    """The 2M x 2M grid on the ascending Gauss nodes of a quadrant-major
    (2, 2, M, M) one, the inverse of field2d.quadrants."""
    M = grid.shape[-1]
    back = np.argsort(np.concatenate([np.arange(M, 2 * M), np.arange(M - 1, -1, -1)]))
    return grid.transpose(0, 2, 1, 3).reshape(2 * M, 2 * M)[np.ix_(back, back)]


def analytic_mass_stiffness(M):
    """Dense mass and stiffness of L_0..L_{M-1}: integral L_k^2 = 2/(2k+1),
    and integral L_j' L_k' = m(m+1), m = min(j, k), when j + k is even
    (0 otherwise)."""
    stiffness = np.zeros((M, M))
    for j in range(M):
        for k in range(j % 2, M, 2):
            m = min(j, k)
            stiffness[j, k] = m * (m + 1)
    return np.diag([2.0 / (2 * k + 1) for k in range(M)]), stiffness


def legendre_field(basis, coeffs):
    """The Field with Legendre coefficients coeffs[k, j] (multiplying
    L_k(x) L_j(y)): modal coefficients E^T (M coeffs M) E, M the mass."""
    d = 2.0 / (2 * np.arange(basis.M) + 1)
    return Field(basis, basis.E.T @ (d[:, None] * coeffs * d) @ basis.E)


def unit_field(basis, k, j, value=1.0):
    """value * L_k(x) L_j(y); (0, 0) is the constant value."""
    coeffs = np.zeros((basis.M, basis.M))
    coeffs[k, j] = value
    return legendre_field(basis, coeffs)


def field_energies(params, curr, prev=None):
    """step_energies of the Field pair (prev, curr): (E_eps, E_mod,
    ||curr - prev||^2, mean). prev defaults to curr."""
    op = build_step_operator(params, curr.basis)
    prev = curr if prev is None else prev
    grid = grid_of(curr.basis, curr.v)
    return step_energies(op, prev.v, curr.v, grid, np.empty_like(grid))


def energy_eps(eps, u):
    """E_eps(u): scheme, tau and gamma do not enter it."""
    return field_energies(SchemeParams("SL_CN", tau=1.0, gamma=1.0, eps=eps), u)[0]


def amplification_factors(op):
    """Per mode, the largest |z| of op's step linearized about a well,
    phi = +-1, where c' = 3: the load is then 3 w, so v^{n+1} =
    b v^n + d v^{n-1} with b = cn + 3 cl (1 - xp) and d = cp + 3 cl xp,
    and z^2 - b z - d = 0. The (0, 0) mode's factor is 1 (mass
    conservation)."""
    b = op.cn + 3.0 * op.cl * (1.0 - op.xp)
    root = np.sqrt(b * b + 4.0 * (op.cp + 3.0 * op.cl * op.xp) + 0j)
    return np.maximum(np.abs(b + root), np.abs(b - root)) / 2.0


def rand_field(basis, rng, amp=1.0):
    """Random Legendre coefficients."""
    return legendre_field(basis, amp * rng.standard_normal((basis.M, basis.M)))


def rand_zero_mean(basis, rng, amp=1.0):
    u = rand_field(basis, rng, amp)
    u.v[0, 0] = 0.0  # the constant mode
    return u
