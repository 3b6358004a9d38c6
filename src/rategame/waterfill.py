"""Robust single-user best response by exact waterfilling.

The response to the other users' powers is p(k) = [mu - Phi(k)]_0^{pmax(k)}
where Phi is the worst-case noise-plus-interference level and the water level
mu makes the total power land exactly on the budget. The same operator is the
Euclidean projection of -Phi onto the admissible set
{0 <= p <= pmax, sum p = P}, which is what projection_residual exercises.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import (
    ChannelSet,
    DomainError,
    GameConfig,
    InfeasibleError,
    PowerProfile,
    interference_level,
    worst_case_interference,
)

MASK_CLASSIFY_TOL = 1e-12  # diagnostic classification only, never feeds back


@dataclass(frozen=True)
class BestResponse:
    """Waterfilling output for one user: powers, water level and bin classes."""

    powers: np.ndarray
    mu: float
    active_set: np.ndarray   # bins with 0 < p(k) < pmax(k)
    clipped_set: np.ndarray  # bins at the mask


def find_water_level(phi, P: float, pmax) -> float:
    """Water level mu with sum_k [mu - phi(k)]_0^{pmax(k)} = P, solved exactly.

    The allocated total is piecewise linear and nondecreasing in mu with
    breakpoints at phi(k) and phi(k) + pmax(k); the crossing segment is found
    by a breakpoint sweep and solved linearly. Returns the smallest such mu.
    """
    phi = np.asarray(phi, dtype=float)
    pmax = np.asarray(pmax, dtype=float)
    if not (np.all(np.isfinite(phi)) and np.all(np.isfinite(pmax))):
        raise DomainError("phi and pmax must be finite")
    if np.any(pmax < 0):
        raise DomainError("pmax must be nonnegative")
    if not P > 0:
        raise DomainError("total power must be positive")
    if pmax.sum() <= P:
        raise InfeasibleError("masks cannot absorb the power budget")

    events = np.concatenate([phi, phi + pmax])
    steps = np.concatenate([np.ones_like(phi), -np.ones_like(pmax)])
    order = np.argsort(events, kind="stable")
    b = events[order]
    slope = np.cumsum(steps[order])  # slope on the segment right of each breakpoint
    filled = np.concatenate(([0.0], np.cumsum(slope[:-1] * np.diff(b))))

    j = int(np.searchsorted(filled, P, side="left"))
    if filled[j] == P:
        return float(b[j])
    return float(b[j - 1] + (P - filled[j - 1]) / slope[j - 1])


def waterfill_powers(phi, P: float, pmax):
    """Allocation and water level for a single user against levels phi."""
    phi = np.asarray(phi, dtype=float)
    pmax = np.asarray(pmax, dtype=float)
    mu = find_water_level(phi, P, pmax)
    return np.clip(mu - phi, 0.0, pmax), mu


def project_to_simplex(v, P: float, pmax):
    """Euclidean projection of v onto {0 <= x <= pmax, sum x = P}."""
    v = np.asarray(v, dtype=float)
    powers, _ = waterfill_powers(-v, P, pmax)
    return powers


def best_response_powers(F, sigma2, eps_q: float, p, q: int, P_q: float, pmax_q):
    """Array-level robust best response; the fast path used by the solver.

    p is the full (Q, N) power matrix; only rows r != q are read.
    """
    return waterfill_powers(interference_level(F, sigma2, eps_q, p, q), P_q, pmax_q)


def best_responses(ch: ChannelSet, cfg: GameConfig, p):
    """Best-response powers and water levels of every user against frozen p."""
    out = np.empty_like(p)
    mus = np.empty(p.shape[0])
    for q in range(p.shape[0]):
        out[q], mus[q] = best_response_powers(
            ch.F, ch.sigma2, cfg.eps[q], p, q, cfg.P[q], cfg.pmax[q]
        )
    return out, mus


def robust_best_response(
    ch: ChannelSet, cfg: GameConfig, profile: PowerProfile, q: int
) -> BestResponse:
    """Best response of user q to the others' powers under worst-case interference."""
    phi = worst_case_interference(ch, cfg, profile, q)
    if not np.all(np.isfinite(phi)):
        raise DomainError("non-finite worst-case interference")
    powers, mu = waterfill_powers(phi, cfg.P[q], cfg.pmax[q])
    pmax_q = cfg.pmax[q]
    clipped = np.flatnonzero(powers >= pmax_q - MASK_CLASSIFY_TOL)
    active = np.flatnonzero((powers > 0.0) & (powers < pmax_q - MASK_CLASSIFY_TOL))
    return BestResponse(powers=powers, mu=float(mu), active_set=active, clipped_set=clipped)


def random_feasible_profile(cfg: GameConfig, rng) -> PowerProfile:
    """Random point of the product of per-user admissible sets.

    Gaussian draws centered on the uniform allocation, projected per user.
    """
    rows = []
    for q in range(cfg.Q):
        center = cfg.P[q] / cfg.N
        v = center + rng.normal(0.0, cfg.P[q], size=cfg.N)
        rows.append(project_to_simplex(v, cfg.P[q], cfg.pmax[q]))
    return PowerProfile(np.stack(rows))


def _greedy_linear_max(coeff, P: float, pmax):
    """argmax of coeff . z over {0 <= z <= pmax, sum z = P} (greedy fill)."""
    z = np.zeros_like(pmax)
    remaining = P
    for k in np.argsort(-coeff, kind="stable"):
        take = min(pmax[k], remaining)
        z[k] = take
        remaining -= take
        if remaining <= 0:
            break
    return z


def projection_residual(
    ch: ChannelSet, cfg: GameConfig, profile: PowerProfile, q: int, candidate
) -> float:
    """Variational-inequality residual of candidate as the projection of -Phi_q.

    Returns max_z (-Phi - candidate) . (z - candidate) over the feasible set
    {0 <= z <= pmax, sum z = P}. The greedy fill attains that maximum exactly,
    so the result is <= 0 (up to roundoff) iff candidate is the projection,
    i.e. the robust best response.
    """
    phi = worst_case_interference(ch, cfg, profile, q)
    candidate = np.asarray(candidate, dtype=float)
    if candidate.shape != (ch.N,):
        raise DomainError("candidate must be a length-N vector")
    coeff = -phi - candidate
    z = _greedy_linear_max(coeff, cfg.P[q], cfg.pmax[q])
    return float(coeff @ (z - candidate))
