"""One-dimensional Legendre machinery.

Legendre polynomials L_k, Gauss-Legendre quadrature, and the Galerkin basis
phi_k = L_k (0 <= k <= M-1), which spans all polynomials of degree < M and
so converges to the Neumann problem as M grows. With ||L_k||^2 = 2/(2k+1)
the mass matrix is diagonal,

    mass = diag(2/(2k+1)),

and the stiffness matrix is a checkerboard:

    stiffness[j,k] = m(m+1), m = min(j,k), when j+k is even; 0 otherwise.

The constant mode phi_0 spans the stiffness kernel, which is what the
Neumann problem requires. Basis products have degree <= 2M-2, so both the
M- and 2M-point Gauss rules integrate them exactly and the quadrature Gram
of either rule is the mass matrix. The eigenbasis of (stiffness, mass)
diagonalizes every operator of the time steppers (Shen's
matrix-diagonalization method). As the stiffness couples only indices of
one parity, each eigenvector is even or odd, with exact zeros at the other
parity's indices: `assemble_basis` solves the two parity blocks apart
(Shen's odd/even decoupling), each from the tridiagonal inverse of its
stiffness, and `Basis1D` checks that eigenpair and derives from it the
only maps between modal coefficients and either Gauss grid.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field

import numpy as np

from .errors import SolveFailed, check_count, check_modes

RESIDUAL_LIMIT = 1e-10


def _legendre_rows(n: int, x: np.ndarray):
    """Yield L_0(x), L_1(x), .., L_n(x) by the three-term recurrence."""
    lm, ln = np.ones_like(x), x
    yield from (lm, ln)[: n + 1]
    for k in range(1, n):
        lm, ln = ln, ((2 * k + 1) * x * ln - k * lm) / (k + 1)
        yield ln


def legendre_table(max_degree: int, x: np.ndarray) -> np.ndarray:
    """Rows L_0(x) .. L_max(x) by the three-term recurrence, each written
    into the table as it is made."""
    x = np.asarray(x, dtype=float)
    return np.fromiter(_legendre_rows(max_degree, x), np.dtype((float, x.size)), max_degree + 1)


def gauss_legendre(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes (ascending) and weights on [-1, 1].

    Newton iteration on L_n from Chebyshev initial guesses, tolerance
    1e-15, reading the last two rows of the recurrence. The rule
    integrates polynomials of degree <= 2n-1 exactly. An iteration that
    has not converged in 100 steps raises SolveFailed: with the eigenpair
    residual that Basis1D checks, it is one of a basis's two numerical
    contracts.
    """
    check_count("n", n, 1)
    i = np.arange(n)
    x = -np.cos(np.pi * (4 * i + 3) / (4 * n + 2))
    for it in range(100):
        lm, ln = deque(_legendre_rows(n, x), maxlen=2)
        # L_n'(x) = n (L_{n-1}(x) - x L_n(x)) / (1 - x^2); interior nodes only
        dln = n * (lm - x * ln) / (1.0 - x * x)
        dx = ln / dln
        x = x - dx
        if np.max(np.abs(dx)) <= 1e-15:
            break
    else:
        raise SolveFailed(f"Gauss-Legendre Newton iteration stalled for n = {n}")
    x = 0.5 * (x - x[::-1])  # enforce the exact +-symmetry of the root set
    lm, ln = deque(_legendre_rows(n, x), maxlen=2)
    dln = n * (lm - x * ln) / (1.0 - x * x)
    w = 2.0 / ((1.0 - x * x) * dln * dln)
    return x, w


def _mass_stiffness(M: int) -> tuple[np.ndarray, np.ndarray]:
    """The analytic mass diagonal 2/(2k+1) and stiffness matrix of L_0..L_{M-1}."""
    k = np.arange(M)
    m = np.minimum.outer(k, k)
    stiffness = np.where((k[:, None] + k[None, :]) % 2 == 0, m * (m + 1.0), 0.0)
    return 2.0 / (2 * k + 1), stiffness


@dataclass(frozen=True)
class Basis1D:
    """Galerkin basis of dimension M = len(lam) from an eigenpair (lam, E)
    with K E = M E diag(lam), E^T M E = I and lam[0] = 0 (the constant mode).
    E is parity-major: its first H = M/2 columns are the even modes, zero
    at the odd Legendre indices, and the rest the odd ones, zero at the
    even indices.

    Construction raises ValueError unless M is even and >= 4
    (`errors.check_modes`) and E is M x M and parity-major with exact
    zeros, and SolveFailed unless the pair's residual against the analytic
    mass and stiffness, max(||K E - M E diag(lam)|| / ||K E||,
    ||E^T M E - I||), is within 1e-10. From the checked pair it derives
    sigma[k, j] = lam[k] + lam[j], the M-point grid map T_M = eval_M^T E
    (grid = T_M v T_M^T) and fit G_M = E^T eval_M diag(w_M)
    (v = G_M g G_M^T), and the stacks of the 2M transforms (see field2d),
    whose nodes are the M positive ones x_i with weights w and their
    mirrors: eval_stack[p] (M x H) holds the values psi_k(x_i) of the
    parity-p modes, fit_stack[p] = eval_stack[p]^T diag(w) (H x M), each
    stored so that its transpose, a GEMM's right operand, is C-contiguous.
    weights is w once per quadrant, the weight of each row of a 2M grid
    read as a 4M x M array; its first M weigh the columns. Every array is
    read-only, and `replace(basis, E=...)` re-checks the new pair and
    re-derives the maps.
    """

    M: int = field(init=False)
    lam: np.ndarray
    E: np.ndarray
    weights: np.ndarray = field(init=False, repr=False)
    sigma: np.ndarray = field(init=False, repr=False)
    eval_stack: np.ndarray = field(init=False, repr=False)
    fit_stack: np.ndarray = field(init=False, repr=False)
    T_M: np.ndarray = field(init=False, repr=False)
    G_M: np.ndarray = field(init=False, repr=False)
    residual: float = field(init=False)

    def __post_init__(self):
        lam, E, M = self.lam, self.E, len(self.lam)
        check_modes(M)
        if np.shape(E) != (M, M):
            raise ValueError(f"E must be M x M = {M} x {M} for M = len(lam), got {np.shape(E)}")
        H = M // 2
        if np.any(E[(np.arange(M) % 2 == 1)[:, None] != (np.arange(M) >= H)]):
            raise ValueError(f"E must be parity-major: its first {H} columns zero at the odd "
                             "Legendre indices and the rest zero at the even ones")
        mass, stiffness = _mass_stiffness(M)
        KE = stiffness @ E
        ME = mass[:, None] * E
        # Frobenius norms as numpy sums, whose order no BLAS thread count moves
        R, O = KE - ME * lam, E.T @ ME - np.eye(M)
        residual = float(max(np.sqrt(np.sum(R * R) / np.sum(KE * KE)), np.sqrt(np.sum(O * O))))
        if not residual <= RESIDUAL_LIMIT:
            raise SolveFailed(
                f"eigendecomposition residual {residual:.3e} exceeds {RESIDUAL_LIMIT:.0e}"
            )
        xm, wm = gauss_legendre(M)
        x2, w2 = gauss_legendre(2 * M)
        eval_M = legendre_table(M - 1, xm)
        stack = (legendre_table(M - 1, x2[M:]).T @ E).reshape(M, 2, H).transpose(1, 0, 2)
        derived = {
            "M": M, "weights": np.tile(w2[M:], 4), "sigma": lam[:, None] + lam[None, :],
            "residual": residual,
            "eval_stack": np.ascontiguousarray(stack.transpose(0, 2, 1)).transpose(0, 2, 1),
            "fit_stack": np.ascontiguousarray(stack * w2[M:, None]).transpose(0, 2, 1),
            "T_M": eval_M.T @ E, "G_M": E.T @ (eval_M * wm),
        }
        for name, value in derived.items():
            object.__setattr__(self, name, value)
        for value in vars(self).values():
            if isinstance(value, np.ndarray):
                value.flags.writeable = False


def assemble_basis(M: int) -> Basis1D:
    """Build Basis1D from the analytic orthogonality relations, one parity
    block at a time, even modes first, each in ascending lam: the constant
    mode exactly (E[0, 0] = 1/sqrt(2), lam = 0), and past it E = Y / r for
    the eigenvectors Y of r T r, r = sqrt(mass), T the tridiagonal inverse
    of the block's Green's stiffness c_min(j,k), c_k = k(k+1), with steps
    d of c from 0 and lam each column's sum_m d_m (sum_{i>=m} E_i)^2."""
    check_modes(M)
    mass, _ = _mass_stiffness(M)
    H = M // 2
    lam, E = np.zeros(M), np.zeros((M, M))
    E[0, 0] = np.sqrt(0.5)
    for k, modes in ((np.arange(2, M, 2), slice(1, H)), (np.arange(1, M, 2), slice(H, M))):
        d = np.diff(k * (k + 1.0), prepend=0.0)
        g, r = 1.0 / d, np.sqrt(mass[k])
        T = np.diag(g + np.append(g[1:], 0.0)) - np.diag(g[1:], 1) - np.diag(g[1:], -1)
        E[k, modes] = np.linalg.eigh(r[:, None] * T * r)[1][:, ::-1] / r[:, None]
        tails = np.cumsum(E[k[::-1], modes], axis=0)[::-1]  # sum_{i>=m} E_i
        lam[modes] = np.sum(d[:, None] * tails * tails, axis=0)
    return Basis1D(lam=lam, E=E)
