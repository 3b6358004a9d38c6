"""Robust single-user best response by exact waterfilling.

The response to the other users' powers is p(k) = [mu - Phi(k)]_0^{pmax(k)}
where Phi is the worst-case noise-plus-interference level and the water level
mu makes the total power land exactly on the budget. The same operator is the
Euclidean projection of -Phi onto the admissible set
{0 <= p <= pmax, sum p = P}, which is what projection_residual exercises.
"""

from __future__ import annotations

import functools

import numpy as np

from .core import (
    ALL_USERS,
    ChannelSet,
    DomainError,
    GameConfig,
    InfeasibleError,
    NumericalError,
    POWER_SUM_RTOL,
    PowerProfile,
    check_dims,
    check_user,
    interference_level,
    is_real,
    worst_case_interference,
)


def find_water_level(phi, P: float, pmax) -> float:
    """Water level mu with sum_k [mu - phi(k)]_0^{pmax(k)} = P, solved exactly.

    The allocated total is piecewise linear and nondecreasing in mu with
    breakpoints at phi(k) and phi(k) + pmax(k); the crossing segment is found
    by a breakpoint sweep and solved linearly. Returns the level on the first
    segment whose running fill, in floating point, reaches P. That is the
    smallest such mu except on a flat stretch of the total that the fill
    rounds to just under P: there it is the stretch's upper end, so
    find_water_level([0.4, 5.0, 9.0], 1.0, [1, 1, 1]) gives 5.0, not 1.4,
    with the same powers (an open FOUND line in ROADMAP.md).
    """
    return waterfill_powers(phi, P, pmax)[1]


# A sweep of at least BLOCK_FLOOR events (N >= 1024 bins) first tries a low
# block of them: all events up to a level v, tried at the BLOCK_QUANTILES of a
# stride-BLOCK_STRIDE sample of the events. Measured per sweep on Q = 8
# jacobi games where 21% and 48% of the events lie below the level (2-vCPU
# Xeon VM, numpy 2.4.6), the block path took 0.96 and 1.20 of the full
# sort's time at N = 512, 0.71 and 1.11 at N = 768, and 0.71 and 1.02 at
# N = 1024.
BLOCK_FLOOR = 2048
BLOCK_STRIDE = 16
BLOCK_QUANTILES = (0.25, 0.5)


def _sweep(phi, P, pmax) -> float:
    """The water level of one row by breakpoint sweep, on float arrays already checked.

    A wide sweep first probes the fill at a sampled level v, and where it
    passes P sorts and fills only the block of events <= v. That block sorts
    to the first events of the full sort and keeps their slopes at the end of
    every tie group, so the running fill up to a crossing inside the block,
    and mu, are the full sweep's bit for bit. A crossing not inside the
    block, and every error, take the full sweep.
    """
    n = phi.size
    events = np.empty(2 * n)
    events[:n] = phi
    np.add(phi, pmax, out=events[n:])
    signs = _signs(n)
    if events.size >= BLOCK_FLOOR:
        sample = np.sort(events[::BLOCK_STRIDE])
        for q in BLOCK_QUANTILES:
            v = sample[int(q * sample.size)]
            # the fill at v, bin by bin min(v, phi + pmax) - min(v, phi): a
            # difference of at most pmax, so no term overflows
            low = np.minimum(events, v)
            if np.subtract(low[n:], low[:n], out=low[n:]).sum() > P:
                below = (events <= v).nonzero()[0]
                mu = _crossing(events[below], signs[below], P)[1]
                if mu is not None:
                    return mu
                break
    j, mu = _crossing(events, signs, P)
    if mu is None:
        if j == events.size:  # rounding kept the fill below P
            raise NumericalError("phi dwarfs the masks: the fill cannot reach P in floating point")
        raise NumericalError("phi + pmax overflows or dwarfs P: the water level misses P")
    return mu


def _crossing(events, signs, P):
    """Index of the first sorted event whose fill reaches P, and the level on its segment.

    events are the sweep's breakpoints, overwritten here, and signs their
    slope steps. The level is None where no event's fill reaches P (the
    index is then events.size) or where the fill at the level misses P.
    """
    # Tied events add an exact +-0.0 to the fill, and the crossing j - 1 ends
    # its tie group, whose slope counts the whole group: no order among ties
    # can change mu.
    order = events.argsort()
    b = events[order]
    slope = signs[order]
    np.add.accumulate(slope, out=slope)  # slope right of each breakpoint
    filled = events  # the sorted copy b holds the events from here on
    filled[0] = 0.0
    gaps = filled[1:]
    np.subtract(b[1:], b[:-1], out=gaps)
    gaps *= slope[:-1]
    np.add.accumulate(gaps, out=gaps)

    j = int(filled.searchsorted(P))
    if j == filled.size:
        return j, None
    lo, fill, rate = b.item(j - 1), filled.item(j - 1), slope.item(j - 1)
    mu = b.item(j) if filled.item(j) == P else lo + (P - fill) / rate
    # the fill at mu must meet P; it does not when the step to P rounds away
    # against a large b[j - 1], or when phi + pmax overflowed
    if not abs(fill + rate * (mu - lo) - P) <= POWER_SUM_RTOL * P:
        return j, None
    return j, float(mu)


@functools.cache
def _signs(n):
    """Read-only slope steps of the 2n sweep events: +1 for a bin's opening, -1 for its close.

    Cached: a process keeps one such vector for each bin count it solves.
    """
    signs = np.ones(2 * n)
    signs[n:] = -1.0
    signs.setflags(write=False)
    return signs


def waterfill_powers(phi, P: float, pmax):
    """Allocation and water level of one user against levels phi: checks, then fill_powers."""
    phi = np.asarray(phi, dtype=float)
    pmax = np.asarray(pmax, dtype=float)
    if phi.ndim != 1 or phi.shape != pmax.shape:
        raise DomainError("phi and pmax must be vectors of the same shape")
    if not (np.isfinite(phi).all() and np.isfinite(pmax).all()):
        raise DomainError("phi and pmax must be finite")
    if (pmax < 0).any():
        raise DomainError("pmax must be nonnegative")
    if not is_real(P):
        raise DomainError("total power must be a real number")
    if not P > 0:
        raise DomainError("total power must be positive")
    if pmax.sum() <= P:
        raise InfeasibleError("masks cannot absorb the power budget")
    return fill_powers(phi, P, pmax)


def project_to_simplex(v, P: float, pmax):
    """Euclidean projection of v onto {0 <= x <= pmax, sum x = P}."""
    return waterfill_powers(-np.asarray(v, dtype=float), P, pmax)[0]


def fill_powers(phi, P, pmax):
    """Powers and water levels of waterfilling against fixed levels phi.

    phi is one user's (N,) levels with its budget and mask row, or (Q, N)
    levels with Q budgets and the (Q, N) masks, one sweep per row. P and pmax
    come from a GameConfig, so phi alone is checked, all of it before any sweep.
    """
    if not np.logical_and.reduce(np.isfinite(phi), None):
        raise DomainError("phi and pmax must be finite")
    if phi.ndim == 1:
        mu = _sweep(phi, P, pmax)
        powers = np.subtract(mu, phi)
    else:
        mu = np.array([_sweep(*row) for row in zip(phi, P, pmax)])
        powers = np.subtract(mu[:, None], phi)
    np.maximum(powers, 0.0, out=powers)
    return np.minimum(powers, pmax, out=powers), mu


def best_response_powers(F, sigma2, eps, p, q, P, pmax):
    """Robust best response on raw arrays; eps, P and pmax come from a GameConfig.

    q selects as in interference_level: a user index, with that user's eps,
    P and pmax row and the full (Q, N) power matrix p, gives its powers and
    water level; ALL_USERS, with eps, P and pmax for every user, gives the
    (Q, N) powers and (Q,) water levels of all users against the same p; an
    index array of B users, with their eps, P and pmax rows and p the
    (B, Q, N) stack of their views, gives the (B, N) powers and (B,) water
    levels of user q[b] against p[b]. A call for several users forms Phi of
    all of them before any sweep, so where several rows fail it raises the
    first failure of Phi (a floating-point error under np.errstate, then
    non-finite levels) and only then the first failing row's sweep error.
    """
    return fill_powers(interference_level(F, sigma2, eps, p, q), P, pmax)


def block_norm(mat) -> float:
    """Block-maximum norm: max_q ||row q||_2."""
    return float(np.max(np.linalg.norm(mat, axis=1)))


def best_responses(ch: ChannelSet, cfg: GameConfig, p):
    """Best-response powers and water levels of every user against frozen p."""
    return best_response_powers(
        ch.F, ch.sigma2, cfg.eps, p, ALL_USERS, cfg.P.tolist(), cfg.pmax
    )


def robust_best_response(ch: ChannelSet, cfg: GameConfig, profile: PowerProfile, q: int):
    """Powers and water level of user q's best response under worst-case interference."""
    check_dims(ch, cfg, profile)
    check_user(q, ch.Q)
    return best_response_powers(ch.F, ch.sigma2, cfg.eps[q], profile.p, q, cfg.P[q], cfg.pmax[q])


def random_feasible_profile(cfg: GameConfig, rng) -> PowerProfile:
    """Random point of the product of per-user admissible sets.

    Gaussian draws centered on the uniform allocation, projected per user.
    """
    v = cfg.P[:, None] / cfg.N + rng.normal(0.0, cfg.P[:, None], (cfg.Q, cfg.N))
    return PowerProfile(fill_powers(-v, cfg.P, cfg.pmax)[0])


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
    if candidate.shape != (ch.N,) or not np.isfinite(candidate).all():
        raise DomainError("candidate must be a length-N vector of finite powers")
    coeff = -phi - candidate
    z = _greedy_linear_max(coeff, cfg.P[q], cfg.pmax[q])
    return float(coeff @ (z - candidate))
