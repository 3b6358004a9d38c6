"""Robust single-user best response by exact waterfilling.

The response to the other users' powers is p(k) = [mu - Phi(k)]_0^{pmax(k)}
where Phi is the worst-case noise-plus-interference level and the water level
mu makes the total power land exactly on the budget. The same operator is the
Euclidean projection of -Phi onto the admissible set
{0 <= p <= pmax, sum p = P}, which is what projection_residual exercises.

A water level comes from one of two passes that give the same bits. The
opens-first pass sorts a row's N levels and fills with slopes 1, 2, ..., N,
as if no mask closed; for a (B, N) stack it sorts and fills all rows at once.
It keeps a row's level only where no mask closes at or below the level's
segment, which _opens_crossing checks against the row's lowest close. Every
other row, one where a mask binds below the level or where the values near
the float range could meet a floating-point error, takes the 2N-event
breakpoint sweep, _sweep, row by row.
"""

from __future__ import annotations

import functools
import math

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
    by a breakpoint sweep, over the levels alone where no mask closes below
    it, and solved linearly. Returns the level on the first segment whose
    running fill, in floating point, reaches P. That is the smallest such
    mu except on a flat stretch of the total that the fill rounds to just
    under P: there it is the stretch's upper end, whose powers are the same,
    so find_water_level([0.4, 5.0, 9.0], 1.0, [1, 1, 1]) gives 5.0, not 1.4.
    """
    return waterfill_powers(phi, P, pmax)[1]


def _level(phi, P, pmax) -> float:
    """The water level of one (N,) row: the opens pass where it holds, else _sweep.

    _levels for one row, spelled without its gather and np.errstate. The
    levels are sorted first, so that their ends refuse a non-finite phi
    before phi + pmax can set a flag on another bin.
    phi + pmax is the full sweep's own first operation, so a flag it sets is
    the one the sweep sets first, and a row left to _sweep reuses the sum.
    Both sorts are of copies: the sweep's tie order, and so the sign of a
    zero level, follows the order of its events. The pre-check reads min(phi)
    from the sorted levels, so a row whose mask binds pays both sorts before
    its sweep: a reduction ahead of them would cost every N = 16 row more.
    """
    b = phi.copy()
    b.sort()
    low = b.item(0)
    if not (-math.inf < low and b.item(-1) < math.inf):  # nan sorts last and fails too
        raise DomainError("phi and pmax must be finite")
    closes = np.add(phi, pmax)
    ends = closes.copy()  # c and the top close: at N = 16 a sort costs less than two reductions
    ends.sort()
    c = ends.item(0)
    if _opens_first(low, c, ends.item(-1), P, b.size):
        mu = _opens_crossing(b, _opens_fill(b), c, P)
        if mu is not None:
            return mu
    return _sweep(np.concatenate((phi, closes)), P)


def _levels(phi, P, pmax):
    """The (B,) water levels of a (B, N) stack: one opens pass over its rows, _sweep for the rest.

    The sort, subtract, multiply and accumulate of the pass run once over
    the rows _opens_first admits. The crossing, and the sweep of every row
    the pass leaves, run row by row in row order, so each error and warning
    comes as the row's own sweep raises it. A non-finite phi is refused
    before any of them.
    """
    n = phi.shape[1]
    with np.errstate(all="ignore"):  # a row whose sum could set a flag is left to _sweep
        closes = np.add(phi, pmax)
    lows = np.minimum.reduce(phi, 1).tolist()
    cs = np.minimum.reduce(closes, 1).tolist()
    tops = np.maximum.reduce(closes, 1).tolist()
    # nan runs through both reductions; -inf is a row's low, +inf its top
    if not (math.isfinite(sum(lows)) and math.isfinite(sum(tops))):
        if not np.logical_and.reduce(np.isfinite(phi), None):
            raise DomainError("phi and pmax must be finite")
    opens = [_opens_first(*row, n) for row in zip(lows, cs, tops, P)]
    rows = [i for i, open_first in enumerate(opens) if open_first]
    if rows:
        b = phi.copy() if len(rows) == len(phi) else phi[rows]
        b.sort()
        passed = zip(b, _opens_fill(b))
    mu = []
    for i, (open_first, c, P_row) in enumerate(zip(opens, cs, P)):
        level = _opens_crossing(*next(passed), c, P_row) if open_first else None
        if level is None:  # finite sums set no flag; others are summed again to set it
            sums = closes[i] if math.isfinite(tops[i]) else np.add(phi[i], pmax[i])
            level = _sweep(np.concatenate((phi[i], sums)), P_row)
        mu.append(level)
    return np.array(mu)


def _opens_first(low, c, top, P, n):
    """Whether the opens pass may take a row: levels from low on, closes from c to top.

    The lowest close c must be at least low + P/n, a floor of the level: a
    lower c is a mask that binds, and the crossing would refuse the row. The
    span of the events, top - low, times 4 n**2 must be finite, so that no
    array operation of the pass or of the full sweep overflows. Python
    floats, which set no floating-point flag.
    """
    return c >= low + float(P) / n and math.isfinite((top - low) * (4.0 * n * n))


def _opens_fill(b):
    """Fill at each level of b but the first, b sorted along its last axis, all bins below open.

    The slope right of the i-th level is i + 1, and the subtract, multiply
    and accumulate are _sweep's on a prefix of events that all open bins.
    """
    fill = b[..., 1:] - b[..., :-1]
    fill *= _ranks(b.shape[-1])
    return np.add.accumulate(fill, axis=-1, out=fill)


def _opens_crossing(b, fill, c, P):
    """The level of one row from its sorted levels b and _opens_fill's fill, or None.

    c is the row's lowest close. The fill first reaches P on the segment
    from lo = b[k] to nxt = b[k + 1] (+inf past the last level). The level
    is the full sweep's where the sweep's next event after lo, nxt or a close
    at c, takes the same branch: no close comes before nxt, or the fill
    passes P before the first close. Either way c > lo, so every event at or
    below lo opens a bin: the sweep's sorted prefix, slopes, gaps and running
    fill are these, and it takes the same step. None leaves the row to _sweep.
    """
    k = int(fill.searchsorted(P))
    lo, rate = b.item(k), k + 1
    below = fill.item(k - 1) if k else 0.0
    nxt = b.item(rate) if rate < b.size else math.inf
    if not (c >= nxt or below + (c - lo) * rate > P):
        return None
    at = nxt if rate < b.size and fill.item(k) == P else None
    if at == 0.0:  # the two sorts may order a -0.0/0.0 tie apart
        return None
    return _step(lo, below, float(rate), at, P)


@functools.cache
def _ranks(n):
    """Read-only slopes 1, 2, ..., n - 1 of the opens pass: the bins open right of each level."""
    ranks = np.arange(1.0, n)
    ranks.setflags(write=False)
    return ranks


def _sweep(events, P) -> float:
    """The water level of one row by breakpoint sweep over its events phi, then phi + pmax.

    It serves only the rows the opens-first pass leaves: masks that close
    below the level, values near the float range, and every error. The
    events are overwritten.
    """
    # Tied events add an exact +-0.0 to the fill, and the crossing j - 1 ends
    # its tie group, whose slope counts the whole group: no order among ties
    # can change mu.
    order = events.argsort()
    b = events[order]
    slope = _signs(events.size // 2)[order]
    np.add.accumulate(slope, out=slope)  # slope right of each breakpoint
    filled = events  # the sorted copy b holds the events from here on
    filled[0] = 0.0
    gaps = filled[1:]
    np.subtract(b[1:], b[:-1], out=gaps)
    gaps *= slope[:-1]
    np.add.accumulate(gaps, out=gaps)

    j = int(filled.searchsorted(P))
    if j == filled.size:  # rounding kept the fill below P
        raise NumericalError("phi dwarfs the masks: the fill cannot reach P in floating point")
    at = b.item(j) if filled.item(j) == P else None
    mu = _step(b.item(j - 1), filled.item(j - 1), slope.item(j - 1), at, P)
    if mu is None:
        raise NumericalError("phi + pmax overflows or dwarfs P: the water level misses P")
    return mu


def _step(lo, fill, rate, at, P):
    """The level on the segment right of breakpoint lo, where the fill is fill and rises at rate.

    at is the segment's upper breakpoint where the fill meets P exactly
    there, else None. The level is None where the fill at it misses P.
    """
    mu = lo + (P - fill) / rate if at is None else at
    # the fill at mu must meet P; it does not when the step to P rounds away
    # against a large lo, or when phi + pmax overflowed
    if not abs(fill + rate * (mu - lo) - P) <= POWER_SUM_RTOL * P:
        return None
    return float(mu)


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
    levels with Q budgets and the (Q, N) masks: one opens-first pass over
    all rows, then the 2N-event sweep for each row it leaves. P and pmax come
    from a GameConfig, so phi alone is checked, all of it before any sweep:
    a row from its sorted ends, a stack from the row minima of phi and maxima
    of phi + pmax, with a full scan only where one of those is not finite.
    """
    if phi.ndim == 1:
        mu = _level(phi, P, pmax)
        powers = np.subtract(mu, phi)
    else:
        mu = _levels(phi, P, pmax)
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
    return PowerProfile(fill_powers(-v, cfg.P.tolist(), cfg.pmax)[0])


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
