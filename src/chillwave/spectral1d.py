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
matrix-diagonalization method); `Basis1D` checks that eigenpair and derives
from it the only maps between modal coefficients and either Gauss grid.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field

import numpy as np

from .errors import SolveFailed, check_count

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

    Construction raises ValueError unless M >= 4 and E is M x M, and
    SolveFailed unless the pair's residual against the analytic mass and
    stiffness, max(||K E - M E diag(lam)|| / ||K E||, ||E^T M E - I||), is
    within 1e-10. From the checked pair it derives
    sigma[k, j] = lam[k] + lam[j] and, per Gauss node set P with M x P
    basis table eval_P and weights w_P, the grid map T_P = eval_P^T E
    (grid = T_P v T_P^T) and the fit G_P = E^T eval_P diag(w_P) (v = G_P g
    G_P^T; the modal load G c(grid) G^T on the 2M set). T and G are the 2M
    maps, stored column-major so that the second GEMM of each pair reads
    T.T or G.T as a C-contiguous operand; T_M and G_M, the M ones, stay
    C-ordered, as no step reads them. Every array is read-only, and
    `replace(basis, E=...)` re-checks the new pair and re-derives the maps.
    """

    M: int = field(init=False)
    lam: np.ndarray
    E: np.ndarray
    weights_2M: np.ndarray = field(init=False, repr=False)
    sigma: np.ndarray = field(init=False, repr=False)
    T: np.ndarray = field(init=False, repr=False)
    G: np.ndarray = field(init=False, repr=False)
    T_M: np.ndarray = field(init=False, repr=False)
    G_M: np.ndarray = field(init=False, repr=False)
    residual: float = field(init=False)

    def __post_init__(self):
        lam, E, M = self.lam, self.E, len(self.lam)
        check_count("M", M, 4)
        if np.shape(E) != (M, M):
            raise ValueError(f"E must be M x M = {M} x {M} for M = len(lam), got {np.shape(E)}")
        mass, stiffness = _mass_stiffness(M)
        KE = stiffness @ E
        ME = mass[:, None] * E
        residual = float(max(
            np.linalg.norm(KE - ME * lam) / np.linalg.norm(KE),
            np.linalg.norm(E.T @ ME - np.eye(M)),
        ))
        if not residual <= RESIDUAL_LIMIT:
            raise SolveFailed(
                f"eigendecomposition residual {residual:.3e} exceeds {RESIDUAL_LIMIT:.0e}"
            )
        xm, wm = gauss_legendre(M)
        x2, w2 = gauss_legendre(2 * M)
        eval_M, eval_2M = legendre_table(M - 1, xm), legendre_table(M - 1, x2)
        derived = {
            "M": M, "weights_2M": w2, "sigma": lam[:, None] + lam[None, :], "residual": residual,
            "T": np.asfortranarray(eval_2M.T @ E), "G": np.asfortranarray(E.T @ (eval_2M * w2)),
            "T_M": eval_M.T @ E, "G_M": E.T @ (eval_M * wm),
        }
        for name, value in derived.items():
            object.__setattr__(self, name, value)
        for value in vars(self).values():
            if isinstance(value, np.ndarray):
                value.flags.writeable = False


def assemble_basis(M: int) -> Basis1D:
    """Build Basis1D from the analytic Legendre orthogonality relations;
    with D = diag(mass), E = D^-1/2 Q for the eigenvectors Q of the
    symmetric D^-1/2 K D^-1/2."""
    check_count("M", M, 4)
    mass, stiffness = _mass_stiffness(M)
    s = 1.0 / np.sqrt(mass)
    lam, Q = np.linalg.eigh(s[:, None] * stiffness * s)
    lam[0] = 0.0  # Neumann kernel: exactly the constant mode
    return Basis1D(lam=lam, E=s[:, None] * Q)
