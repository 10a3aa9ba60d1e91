"""The paper's energy-dissipation proofs as exact per-step identities.

Before its last inequality, the proof that each scheme's modified energy
does not increase is an identity: row n + 1 of a trace has
dE_mod = S - D, with D >= 0 a sum of the scheme's dissipation terms and
S the force's consistency term. In modal coordinates, with
delta = v^{n+1} - v^n, delta' = v^n - v^{n-1}, g^k = T v^k T^T on the 2M
ascending Gauss nodes (the dense oracle map, not the step's parity
transforms), the force grid g_w of the extrapolated field w, and the 2M
Gauss weights q,

    R = q^T [F(g^{n+1}) - F(g^n) - f(g_w) (g^{n+1} - g^n)] q

    SL_BDF2 (w = 2 v^n - v^{n-1}):
        D = ||delta||_-1^2 / (tau gamma) + ||delta - delta'||_-1^2 / (4 tau gamma)
            + (eps/2 + A tau) |delta|_1^2 + (B/2) ||delta - delta'||^2
        S = [R + (L/2) (||delta||^2 - ||delta'||^2)] / eps
    SL_CN (w = 3/2 v^n - 1/2 v^{n-1}):
        D = ||delta||_-1^2 / (tau gamma) + A tau |delta|_1^2
            + (B/2) ||delta - delta'||^2
        S = [R + (L/4) (||delta||^2 - ||delta'||^2)] / eps

where ||x||^2 = sum x^2, |x|_1^2 = sum sigma x^2 and ||x||_-1^2 =
sum_{sigma > 0} x^2 / sigma. The coefficients are the paper's, written
out here, not read from the step operator, so the identity ties the
step, the modified energy's weights and the quadrature together at every
step of a long run. Row 1, the bootstrap step, has none.
"""
from dataclasses import replace

import numpy as np
import pytest

import chillwave as cw
from chillwave.harness import initial_field
from chillwave.potential import L, potential_deriv, potential_value
from conftest import Snapshots, dense_maps, oracle_quadrature

EXTRAPOLATION = {"SL_BDF2": (2.0, -1.0), "SL_CN": (1.5, -0.5)}


def budget(cfg, basis, T, q, v0, v1, v2):
    """(S, D) of the step (v^{n-1}, v^n) -> v^{n+1} = (v0, v1, v2), with
    T the dense 2M grid map and q the 2M Gauss weights."""
    tau, gamma, eps, A, B = cfg.tau, cfg.gamma, cfg.eps, cfg.A, cfg.B
    sigma = basis.sigma
    pos = sigma > 0.0

    def l2(x):
        return float(np.sum(x * x))

    def h1(x):
        return float(np.sum(sigma * x * x))

    def hm1(x):
        return float(np.sum(x[pos] ** 2 / sigma[pos]))

    d, d_old = v2 - v1, v1 - v0
    dd = d - d_old
    xn, xp = EXTRAPOLATION[cfg.scheme]
    g0, g1, gw = (T @ v @ T.T for v in (v1, v2, xn * v1 + xp * v0))
    R = float(q @ (potential_value(g1) - potential_value(g0) - potential_deriv(gw) * (g1 - g0)) @ q)
    if cfg.scheme == "SL_BDF2":
        D = (hm1(d) / (tau * gamma) + hm1(dd) / (4 * tau * gamma)
             + (eps / 2 + A * tau) * h1(d) + B / 2 * l2(dd))
        S = (R + L / 2 * (l2(d) - l2(d_old))) / eps
    else:
        D = hm1(d) / (tau * gamma) + A * tau * h1(d) + B / 2 * l2(dd)
        S = (R + L / 4 * (l2(d) - l2(d_old))) / eps
    return S, D


def identity_gaps(cfg):
    """Run cfg with a snapshot every step; per row n >= 2 of its trace,
    |dE_mod - (S - D)| / max(1, |E_mod|), and the trace."""
    cfg = replace(cfg, snapshot_every=1)
    basis = cw.assemble_basis(cfg.M)
    phi0 = initial_field(cfg, basis)
    snapshots = Snapshots()
    trace, _, _ = cw.run_simulation(cfg, phi_init=phi0, on_snapshot=snapshots)
    vs = [phi0.v] + [u.v for _, _, u in snapshots]
    assert len(vs) == len(trace) + 1
    (T, _), (_, q) = dense_maps(basis), oracle_quadrature(2 * cfg.M)
    gaps = []
    for row, (v0, v1, v2) in zip(trace.rows[1:], zip(vs, vs[1:], vs[2:])):
        S, D = budget(cfg, basis, T, q, v0, v1, v2)
        assert D >= 0.0
        gaps.append(abs(row["dE_mod"] - (S - D)) / max(1.0, abs(row["E_mod"])))
    return np.array(gaps), trace


@pytest.mark.parametrize("M", [8, 16])
@pytest.mark.parametrize("scheme", ["SL_BDF2", "SL_CN"])
def test_dissipation_identity_theorem_runs(scheme, M):
    # the criterion-2 setting at small M: 200 steps, theorem stabilizers
    eps, gamma, tau = 0.05, 0.0025, 0.01
    A, B = cw.sufficient_stabilizers(scheme, eps, gamma, tau, L)
    cfg = cw.RunConfig(M=M, eps=eps, gamma=gamma, tau=tau, T=200 * tau, scheme=scheme,
                       A=A, B=B, seed=42)
    gaps, trace = identity_gaps(cfg)
    assert len(gaps) == 199 and not trace.blew_up
    assert gaps.max() <= 1e-13


def test_dissipation_identity_growing_run():
    # sweep_c9's unstable full-length rung (SL_BDF2, gamma = 1, tau = 0.1,
    # A = 100, B = 0) at M = 16: the modified energy rises on hundreds of
    # steps (S > D there), and the identity holds on all 1023 scheme steps
    cfg = cw.RunConfig(M=16, eps=0.05, gamma=1.0, tau=0.1, T=102.4, scheme="SL_BDF2",
                       A=100.0, B=0.0, seed=42)
    gaps, trace = identity_gaps(cfg)
    assert len(gaps) == 1023 and not trace.blew_up
    assert cw.stability_verdict(trace) == "unstable"
    assert gaps.max() <= 1e-13


def test_dissipation_identity_up_to_blowup():
    # an A = B = 0 candidate of the same sweep blows up within a few steps;
    # every row before the blow-up is finite and satisfies the identity
    cfg = cw.RunConfig(M=16, eps=0.05, gamma=1.0, tau=0.1, T=102.4, scheme="SL_BDF2", seed=42)
    gaps, trace = identity_gaps(cfg)
    assert trace.blew_up and len(gaps) >= 2
    assert np.isfinite(trace.rows["dE_mod"]).all() and np.isfinite(gaps).all()
    assert gaps.max() <= 1e-13
