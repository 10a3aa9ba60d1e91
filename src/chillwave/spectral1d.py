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
matrix-diagonalization method); `Basis1D` holds it, checked, with the
maps between modal coefficients and either Gauss grid.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import QuadratureError, SolveFailed

RESIDUAL_LIMIT = 1e-10


def legendre_table(max_degree: int, x: np.ndarray) -> np.ndarray:
    """Rows L_0(x) .. L_max(x) by the three-term recurrence."""
    x = np.asarray(x, dtype=float)
    out = np.empty((max_degree + 1, x.size))
    out[0] = 1.0
    if max_degree >= 1:
        out[1] = x
    for k in range(1, max_degree):
        out[k + 1] = ((2 * k + 1) * x * out[k] - k * out[k - 1]) / (k + 1)
    return out


def gauss_legendre(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes (ascending) and weights on [-1, 1].

    Newton iteration on L_n from Chebyshev initial guesses, tolerance
    1e-15. The rule integrates polynomials of degree <= 2n-1 exactly.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    i = np.arange(n)
    x = -np.cos(np.pi * (4 * i + 3) / (4 * n + 2))
    for it in range(100):
        tab = legendre_table(n, x)
        ln = tab[n]
        # L_n'(x) = n (L_{n-1}(x) - x L_n(x)) / (1 - x^2); interior nodes only
        dln = n * (tab[n - 1] - x * ln) / (1.0 - x * x)
        dx = ln / dln
        x = x - dx
        if np.max(np.abs(dx)) <= 1e-15:
            break
    else:
        raise QuadratureError(f"Gauss-Legendre Newton iteration stalled for n = {n}")
    x = 0.5 * (x - x[::-1])  # enforce the exact +-symmetry of the root set
    tab = legendre_table(n, x)
    dln = n * (tab[n - 1] - x * tab[n]) / (1.0 - x * x)
    w = 2.0 / ((1.0 - x * x) * dln * dln)
    return x, w


@dataclass(frozen=True)
class Basis1D:
    """Assembled Galerkin basis of dimension M; every array is read-only.

    eval_M and eval_2M are M x P tables of phi_k at the M- and 2M-point
    Gauss nodes. (lam, E) solve K E = M E diag(lam), E^T M E = I, lam[0] = 0
    (the constant mode). Construction raises SolveFailed unless their
    residual, max(||K E - M E diag(lam)|| / ||K E||, ||E^T M E - I||), is
    within 1e-10, and derives from them the 2-D Laplacian symbol
    sigma[k, j] = lam[k] + lam[j] and, per node set P, the modal-to-grid
    map T_P = eval_P^T E (grid = T_P v T_P^T) and the grid-to-modal map
    G_P = E^T eval_P diag(w_P), the quadrature fit v = G_P g G_P^T, which
    is the modal load G f(grid) G^T on the 2M set. T and G are the 2M
    maps, T_M and G_M the M ones.
    """

    M: int
    nodes_M: np.ndarray
    weights_M: np.ndarray
    nodes_2M: np.ndarray
    weights_2M: np.ndarray
    mass: np.ndarray
    stiffness: np.ndarray
    eval_M: np.ndarray
    eval_2M: np.ndarray
    lam: np.ndarray
    E: np.ndarray
    sigma: np.ndarray = field(init=False, repr=False)
    T: np.ndarray = field(init=False, repr=False)
    G: np.ndarray = field(init=False, repr=False)
    T_M: np.ndarray = field(init=False, repr=False)
    G_M: np.ndarray = field(init=False, repr=False)
    residual: float = field(init=False)

    def __post_init__(self):
        lam, E = self.lam, self.E
        KE = self.stiffness @ E
        ME = np.diag(self.mass)[:, None] * E
        residual = float(max(
            np.linalg.norm(KE - ME * lam) / np.linalg.norm(KE),
            np.linalg.norm(E.T @ ME - np.eye(self.M)),
        ))
        if not residual <= RESIDUAL_LIMIT:
            raise SolveFailed(
                f"eigendecomposition residual {residual:.3e} exceeds {RESIDUAL_LIMIT:.0e}"
            )
        object.__setattr__(self, "sigma", lam[:, None] + lam[None, :])
        object.__setattr__(self, "T", self.eval_2M.T @ E)
        object.__setattr__(self, "G", E.T @ (self.eval_2M * self.weights_2M))
        object.__setattr__(self, "T_M", self.eval_M.T @ E)
        object.__setattr__(self, "G_M", E.T @ (self.eval_M * self.weights_M))
        object.__setattr__(self, "residual", residual)
        for value in vars(self).values():
            if isinstance(value, np.ndarray):
                value.flags.writeable = False

def assemble_basis(M: int) -> Basis1D:
    """Build Basis1D from the analytic Legendre orthogonality relations;
    with D = diag(mass), E = D^-1/2 Q for the eigenvectors Q of the
    symmetric D^-1/2 K D^-1/2."""
    if M < 4:
        raise ValueError("M must be >= 4")
    k = np.arange(M)
    m = np.minimum.outer(k, k)
    stiffness = np.where((k[:, None] + k[None, :]) % 2 == 0, m * (m + 1.0), 0.0)
    mass = 2.0 / (2 * k + 1)
    s = 1.0 / np.sqrt(mass)
    lam, Q = np.linalg.eigh(s[:, None] * stiffness * s)
    lam[0] = 0.0  # Neumann kernel: exactly the constant mode
    xm, wm = gauss_legendre(M)
    x2, w2 = gauss_legendre(2 * M)
    return Basis1D(
        M=M,
        nodes_M=xm,
        weights_M=wm,
        nodes_2M=x2,
        weights_2M=w2,
        mass=np.diag(mass),
        stiffness=stiffness,
        eval_M=legendre_table(M - 1, xm),
        eval_2M=legendre_table(M - 1, x2),
        lam=lam,
        E=s[:, None] * Q,
    )
