"""Equilibrium quality measures: partitioning, occupancy, social-optimum oracles.

The social optimum of the sum-rate is NP-hard in general, so the oracles here
are a desk-scale brute force over a simplex grid and an FDMA-restricted
search; both are meant for validating small systems, not production use.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .core import (
    ChannelSet,
    DomainError,
    GameConfig,
    PowerProfile,
    StructuralError,
    UnsupportedArityError,
    check_dims,
    check_real_entries,
    is_real,
    sum_rate_array,
)
from .waterfill import fill_powers

OCCUPANCY_FACTOR = 1e-6  # p(k) > factor * P_q counts as occupied
BRUTEFORCE_POINT_CAP = 10_000_000
FDMA_BIN_CAP = 20  # social_optimum_fdma enumerates 2^N assignments


@dataclass(frozen=True)
class PartitionProfile:
    """Two-user partitioning measure J(k) in [-1, 0] and occupancy counts.

    J(k) = -p1(k) p2(k) on powers normalized by the shared budget: -1 when
    both users dump everything on bin k, 0 when at most one occupies it.
    """

    J: np.ndarray
    occupied_counts: np.ndarray


def occupied_bins(profile: PowerProfile, P) -> np.ndarray:
    """(Q, N) mask of the bins where p_q(k) > OCCUPANCY_FACTOR * P_q."""
    check_real_entries(P, "budgets")
    P = np.asarray(P, dtype=float)
    if P.shape != (profile.Q,):
        raise StructuralError(f"P must hold one budget per user, shape ({profile.Q},)")
    if not (np.isfinite(P).all() and (P > 0).all()):
        raise DomainError("budgets must be positive and finite")
    return profile.p > OCCUPANCY_FACTOR * P[:, None]


def occupancy_counts(profile: PowerProfile, P):
    """Number of occupied bins per user (see occupied_bins)."""
    return occupied_bins(profile, P).sum(axis=1)


def partition_measure(profile: PowerProfile, P_T: float) -> PartitionProfile:
    """Per-frequency extent of partitioning for a two-user profile.

    Bins occupied by at most one user get an exact 0 so that near-converged
    profiles (tolerance-level residual powers) report clean partitions.
    """
    if profile.Q != 2:
        raise UnsupportedArityError("partition measure is defined for Q = 2 only")
    if not (is_real(P_T) and 0 < P_T < math.inf):
        raise DomainError("P_T must be positive and finite")
    phat = profile.p / P_T
    J = -(phat[0] * phat[1])
    occupied = occupied_bins(profile, [P_T, P_T])
    J[~occupied.all(axis=0)] = 0.0
    return PartitionProfile(J=J, occupied_counts=occupied.sum(axis=1))


def fdma_condition_check(ch: ChannelSet, eps: float):
    """Per-bin test (F_21(k) - eps)(F_12(k) - eps) > 1/4 and its conjunction.

    When it holds on every bin, FDMA is the Pareto-optimal structure even for
    the worst-case coefficients, so better partitioning raises the sum-rate.
    """
    if ch.Q != 2:
        raise UnsupportedArityError("FDMA condition is defined for Q = 2 only")
    if not (is_real(eps) and 0 <= eps < math.inf):
        raise DomainError("eps must be nonnegative and finite")
    f21 = ch.F[1, 0, :]
    f12 = ch.F[0, 1, :]
    flags = (f21 - eps) * (f12 - eps) > 0.25
    return flags, bool(flags.all())


def _per_user_grid(P_q: float, pmax_q: np.ndarray, steps: int):
    """Feasible grid allocations of one user: multiples of P_q/steps under the mask."""
    N = pmax_q.shape[0]
    unit = P_q / steps
    slots = steps + N - 1  # stars and bars: the counts are the gaps between N - 1 bars
    out = []
    for bars in itertools.combinations(range(slots), N - 1):
        counts = [b - a - 1 for a, b in zip((-1, *bars), (*bars, slots))]
        alloc = np.array(counts, dtype=float) * unit
        if np.all(alloc <= pmax_q + 1e-12):
            out.append(alloc)
    return out


def social_optimum_bruteforce(
    ch: ChannelSet, cfg: GameConfig, grid_resolution: float = None
):
    """Max nominal sum-rate over a uniform grid of the per-user simplices.

    grid_resolution is the power step (default P_q/50 per user). Ties break
    toward the lexicographically smallest profile, which the enumeration
    order delivers for free. Refuses grids beyond 1e7 points.
    """
    check_dims(ch, cfg)
    steps = []
    total = 1
    for q in range(cfg.Q):
        h = grid_resolution if grid_resolution is not None else cfg.P[q] / 50
        if not (is_real(h) and 0 < h < math.inf):
            raise DomainError("grid_resolution must be positive")
        with np.errstate(over="ignore"):  # a subnormal step overflows P / h to inf
            ratio = cfg.P[q] / h
        if ratio == math.inf:
            raise DomainError("grid_resolution is too fine: the step count overflows")
        s = max(1, round(ratio))
        steps.append(s)
        total *= math.comb(s + cfg.N - 1, cfg.N - 1)
    if total > BRUTEFORCE_POINT_CAP:
        raise DomainError(
            f"simplex grid would hold about {total} points "
            f"(cap {BRUTEFORCE_POINT_CAP}); coarsen the resolution"
        )

    grids = [_per_user_grid(cfg.P[q], cfg.pmax[q], steps[q]) for q in range(cfg.Q)]
    for q, g in enumerate(grids):
        if not g:
            raise DomainError(f"mask of user {q + 1} excludes every grid point")

    return _best_of(ch, (np.stack(rows) for rows in itertools.product(*grids)))


def _best_of(ch, candidates):
    """(rate, profile) of the first candidate (Q, N) matrix with the largest sum-rate."""
    best_rate, best = -np.inf, None
    for p in candidates:
        rate = sum_rate_array(ch.F, ch.sigma2, p)
        if rate > best_rate:
            best_rate = rate
            best = p
    return float(best_rate), PowerProfile(best)


def _fdma_profile(ch, cfg, owner):
    """Waterfill both users over disjoint bins given a 0/1 ownership vector.

    A user with no bins stays silent; masks that cannot absorb the budget cap
    the allocated power at what fits.
    """
    p = np.zeros((2, ch.N))
    for q in range(2):
        bins = np.flatnonzero(owner == q)
        cap = cfg.pmax[q, bins].sum()
        if cfg.P[q] >= cap:  # also no bins, or a mask total of 0: the user stays silent
            p[q, bins] = cfg.pmax[q, bins]
        else:
            p[q, bins] = fill_powers(ch.sigma2[q, bins], cfg.P[q].item(), cfg.pmax[q, bins])[0]
    return p


def social_optimum_fdma(ch: ChannelSet, cfg: GameConfig):
    """Best sum-rate over FDMA assignments of bins to the two users.

    Exact enumeration of the 2^N assignments; refuses N beyond FDMA_BIN_CAP.
    """
    check_dims(ch, cfg)
    if ch.Q != 2:
        raise UnsupportedArityError("FDMA search is defined for Q = 2 only")
    N = ch.N
    if N > FDMA_BIN_CAP:
        raise DomainError(
            f"FDMA search enumerates 2^N assignments; N = {N} exceeds the cap of {FDMA_BIN_CAP}"
        )
    return _best_of(ch, (
        _fdma_profile(ch, cfg, np.array([(mask >> k) & 1 for k in range(N)]))
        for mask in range(2 ** N)
    ))
