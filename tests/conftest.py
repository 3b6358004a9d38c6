"""Shared fixtures and independent oracles.

The oracles here deliberately avoid the package's breakpoint water-level
search: water levels come from interval bisection and the classical
iterative waterfiller is a self-contained gauss-seidel loop, so agreement
checks compare two genuinely different code paths. A user's adversarial
channel is built from the closed-form worst case in the uncertainty ball,
not from the package's interference level.
"""

import numpy as np
import pytest

from rategame import ChannelSet, GameConfig, solver


def bisect_water_level(phi, P, pmax, iters=200):
    """Water level by bisection on the monotone filled-power function."""
    phi = np.asarray(phi, dtype=float)
    pmax = np.asarray(pmax, dtype=float)
    lo = phi.min()
    hi = (phi + pmax).max()
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        if np.clip(mid - phi, 0.0, pmax).sum() < P:
            lo = mid
        else:
            hi = mid
    return hi


def classical_best_response(F, sigma2, p, q, P_q, pmax_q):
    """Zero-uncertainty best response through the bisection oracle."""
    phi = sigma2[q] + np.einsum("rk,rk->k", F[:, q, :], p)
    mu = bisect_water_level(phi, P_q, pmax_q)
    return np.clip(mu - phi, 0.0, pmax_q)


def adversarial_channels(F, p, q, eps_q):
    """User q's worst-case channel in its uncertainty ball: F + Delta*_q.

    The ball is per bin, on the cross vector (F[r, q, k])_{r != q}, with
    radius eps_q. The perturbation that minimises q's rate points along the
    other users' powers, Delta*_q(k) = eps_q p_{-q}(k) / ||p_{-q}(k)||, and
    is 0 on bins where the others are silent. It only raises gains, so the
    result is a valid channel.
    """
    others = np.arange(len(F)) != q
    p_others = p[others]
    norm = np.sqrt((p_others * p_others).sum(axis=0))
    delta = np.zeros_like(p_others)
    np.divide(eps_q * p_others, norm, out=delta, where=norm > 0)
    adversarial = np.array(F, dtype=float)
    adversarial[others, q, :] += delta
    return adversarial


def classical_iwf(F, sigma2, P, pmax, tol=1e-13, max_rounds=20000):
    """Independent classical iterative waterfiller (sequential updates)."""
    Q, _, N = F.shape
    p = np.stack([np.full(N, P[q] / N) for q in range(Q)])
    for q in range(Q):  # restore budgets under the masks
        p[q] = classical_best_response(F, sigma2, np.zeros_like(p), q, P[q], pmax[q])
    for _ in range(max_rounds):
        prev = p.copy()
        for q in range(Q):
            p[q] = classical_best_response(F, sigma2, p, q, P[q], pmax[q])
        if np.abs(p - prev).max() < tol:
            break
    return p


def random_instance(rng, Q, N, strength=0.8, eps=0.0, sigma_lo=0.1, sigma_hi=2.0):
    """Random game whose coupling matrix row sums stay below `strength`.

    Cross coefficients are uniform on [0, strength/(Q-1)], so the max-row-sum
    contraction modulus is at most strength + eps (Q - 1); keep that below 1
    for guaranteed convergence and uniqueness.
    """
    fmax = strength / max(Q - 1, 1)
    F = rng.uniform(0.0, fmax, size=(Q, Q, N))
    idx = np.arange(Q)
    F[idx, idx, :] = 0.0
    sigma2 = rng.uniform(sigma_lo, sigma_hi, size=(Q, N))
    ch = ChannelSet(F=F, sigma2=sigma2)
    cfg = GameConfig(
        P=np.ones(Q),
        pmax=np.full((Q, N), 1.0),
        eps=np.full(Q, float(eps)),
    )
    return ch, cfg


@pytest.fixture(autouse=True)
def empty_latest_result(monkeypatch):
    """solve's latest-result slot is empty when a test starts, and restored after it."""
    monkeypatch.setattr(solver, "_latest", None)


@pytest.fixture
def rng():
    return np.random.default_rng(20240811)


@pytest.fixture
def best_response_calls(monkeypatch):
    """One-item list counting the best responses that solve's rounds compute.

    A call for several users (all users in a jacobi round, the updating
    users against their stacked views in a random_async round) counts one
    best response per user: one per water level it returns. The fixed-point
    residual reaches the best response through waterfill, not through
    solver, so it is not counted.
    """
    calls = [0]
    original = solver.best_response_powers

    def counted(*args):
        powers, mu = original(*args)
        calls[0] += np.size(mu)
        return powers, mu

    monkeypatch.setattr(solver, "best_response_powers", counted)
    return calls
