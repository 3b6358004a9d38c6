"""Asynchronous iterative waterfilling to the robust-optimization equilibrium.

Each round every scheduled user replaces its allocation with the robust best
response to (a possibly stale view of) the others' powers. At a fixed point
all users simultaneously best-respond, which is the equilibrium of the game.
Three update schedules are provided: jacobi (simultaneous), gauss_seidel
(sequential in user order) and random_async (each user updates with
probability u per round against neighbor state of bounded age).
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass

import numpy as np

from .core import (
    ALL_USERS,
    ChannelSet,
    DomainError,
    GameConfig,
    PowerProfile,
    assert_feasible,
    check_dims,
    check_positive_finite,
    is_int,
    is_real,
    write_csv,
)
from .waterfill import best_response_powers, best_responses, block_norm, fill_powers

SCHEDULE_KINDS = ("jacobi", "gauss_seidel", "random_async")


@dataclass(frozen=True)
class Schedule:
    """Update schedule: which users recompute when, and how stale their views are.

    Only random_async reads update_probability and max_staleness; jacobi and
    gauss_seidel hold only the round-start profile. random_async at
    max_staleness=0 and update_probability=1 gives jacobi's iterates.
    """

    kind: str = "jacobi"
    seed: int = 0
    update_probability: float = 1.0
    max_staleness: int = 0

    def __post_init__(self):
        if self.kind not in SCHEDULE_KINDS:
            raise DomainError(f"unknown schedule kind {self.kind!r}")
        if not (is_real(self.update_probability) and 0.0 < self.update_probability <= 1.0):
            raise DomainError("update_probability must be in (0, 1]")
        if not (is_int(self.seed) and self.seed >= 0):
            raise DomainError("seed must be an integer >= 0")
        if not is_int(self.max_staleness):
            raise DomainError("max_staleness must be an integer")
        if self.max_staleness < 0:
            raise DomainError("max_staleness must be >= 0")
        # Python ints: a numpy int64 bound wraps in the solver's arithmetic
        object.__setattr__(self, "seed", int(self.seed))
        object.__setattr__(self, "max_staleness", int(self.max_staleness))


@dataclass(frozen=True)
class SolverOptions:
    tol: float = 1e-10
    max_iters: int = 10_000
    record_trajectory: bool = False

    def __post_init__(self):
        check_positive_finite("tol", self.tol)
        if not is_int(self.max_iters):
            raise DomainError("max_iters must be an integer")
        if self.max_iters < 1:
            raise DomainError("max_iters must be >= 1")
        object.__setattr__(self, "max_iters", int(self.max_iters))  # a Python int, as in Schedule


@dataclass(frozen=True)
class EquilibriumResult:
    profile: PowerProfile
    mu: np.ndarray
    iterations: int
    residual: float
    converged: bool
    trajectory: np.ndarray = None  # (rounds + 1, Q, N) when recorded


def default_initial_profile(ch: ChannelSet, cfg: GameConfig) -> PowerProfile:
    """Uniform P_q/N allocation, projected per user to respect the masks."""
    check_dims(ch, cfg)
    levels = np.broadcast_to(-(cfg.P[:, None] / cfg.N), (cfg.Q, cfg.N))
    return PowerProfile(fill_powers(levels, cfg.P.tolist(), cfg.pmax)[0])


def _residual(ch, cfg, p):
    """Simultaneous fixed-point residual of p and every user's water level."""
    br, mus = best_responses(ch, cfg, p)
    return block_norm(p - br), mus


def fixed_point_residual(ch: ChannelSet, cfg: GameConfig, profile: PowerProfile) -> float:
    """max over users of the Euclidean distance between p_q and its best response."""
    check_dims(ch, cfg, profile)
    return _residual(ch, cfg, profile.p)[0]


def _round_views(schedule, p, ring, slot, rnd, rng):
    """(users, view) pairs of one round: who updates, and against which powers.

    ring[slot] holds this round's start profile, ring[slot - a] that of a
    rounds before: the ring holds at least the min(rnd, max_staleness + 1)
    latest rounds, so a negative slot - a wraps to the right one as
    (slot - a) % len(ring) would. jacobi updates all users at once against
    ring[slot]. gauss_seidel updates user by user against the live p and
    draws nothing. random_async draws who updates, then in one call an age in
    0..min(rnd, max_staleness + 1)-1 for every other user of each updating
    user, in user order, and one gather from the ring gives all their views:
    one pair of the updating users' index array and the (B, Q, N) stack of
    their views, or no pair when no user updates.
    """
    Q = p.shape[0]
    if schedule.kind == "jacobi":
        return ((ALL_USERS, ring[slot]),)
    if schedule.kind == "gauss_seidel":
        return ((q, p) for q in range(Q))
    qs = (rng.random(Q) < schedule.update_probability).nonzero()[0]
    users = np.arange(Q)
    ages = np.zeros((len(qs), Q), dtype=np.intp)  # a user knows its own latest powers
    bound = min(rnd, schedule.max_staleness + 1)
    ages[users != qs[:, None]] = rng.integers(0, bound, (len(qs), Q - 1)).ravel()
    return ((qs, ring[slot - ages, users]),) if len(qs) else ()


# weak references to the ch, cfg and initial of the latest solve that
# recorded no trajectory, then its schedule, options and result; see solve.
# One tuple, replaced whole, so that threads sharing it never pair one
# solve's inputs with another's result.
_latest = None


def solve(
    ch: ChannelSet,
    cfg: GameConfig,
    initial: PowerProfile,
    schedule: Schedule = Schedule(),
    opts: SolverOptions = SolverOptions(),
) -> EquilibriumResult:
    """Iterate robust waterfilling rounds until the profile stops moving.

    A round makes one best-response call per (users, view) pair of its
    schedule: one call for all users against the round-start profile in a
    jacobi round, one per user against the live profile in a gauss_seidel
    round, and in a random_async round one call for its updating users
    against their stacked stale views (none when no user updates).

    Convergence is declared once the per-round max-norm change drops below
    opts.tol and the simultaneous fixed-point residual confirms it at
    10 * opts.tol; the confirmation guards schedules whose rounds can be
    no-ops. Hitting max_iters returns converged=False, not an exception; a
    water level that misses a budget raises NumericalError.

    A jacobi or gauss_seidel round is a function of the round-start profile
    alone. Once the profile after round t equals, byte for byte, that after
    an earlier round s, every later round repeats one of rounds s + 1 .. t,
    whose convergence checks all failed, so round max_iters ends on the
    profile of round t + (max_iters - t) mod (t - s). The solve stops there
    and returns what the full run returns: that profile, its mu and residual,
    iterations = max_iters and converged=False. Each profile is compared with
    those of the latest rounds divisible by 1, 2, 4, ... (Gosper's loop
    detector), which find a cycle of period lam entered by round mu by round
    mu + lam + 2**ceil(log2(lam)) - 1 while keeping at most
    max_iters.bit_length() profiles.
    random_async solves (their rounds draw from the RNG) and solves that
    record a trajectory run every round.

    A solve is a function of its inputs alone, so when it is handed the very
    ch, cfg and initial objects of the latest solve that recorded no
    trajectory, with an equal schedule and opts, it returns that solve's
    result and runs no round: a Monte-Carlo trial hands its delta-0 robust,
    nominal and perfect games one channel set, one config and one start.
    Equal objects built anew run their own rounds. The inputs are immutable
    and a result's arrays are read-only, so a hit returns the stored result
    itself. Only one result is kept, and the inputs only by weak reference,
    so the slot keeps no game alive and a dead input can never match.
    """
    global _latest
    check_dims(ch, cfg, initial)
    assert_feasible(cfg, initial)
    if _latest is not None:
        *refs, last_schedule, last_opts, latest = _latest
        if (all(ref() is x for ref, x in zip(refs, (ch, cfg, initial)))
                and last_schedule == schedule and last_opts == opts):
            return latest

    p = initial.p.copy()
    rng = np.random.default_rng(schedule.seed)
    # ring of round-start profiles, slot (rnd - 1) % len(ring): random_async
    # reads the last max_staleness + 1, so its ring doubles up to that many
    # (or max_iters) as rounds run; jacobi and gauss_seidel keep one
    size = (min(schedule.max_staleness + 1, opts.max_iters)
            if schedule.kind == "random_async" else 1)
    ring = np.empty((1,) + p.shape)
    trajectory = [p.copy()] if opts.record_trajectory else None
    # anchors[j] is the (bytes, round) of the latest round divisible by 2**j
    anchors = {} if schedule.kind != "random_async" and trajectory is None else None

    # P as Python floats, which the water-level sweep's scalar steps run
    # faster on, in an array that every user selection indexes
    F, sigma2, eps, P, pmax = ch.F, ch.sigma2, cfg.eps, cfg.P.astype(object), cfg.pmax
    converged = False
    last = opts.max_iters  # lowered to the cycle's matching round once one is proven
    for rnd in range(1, opts.max_iters + 1):
        if len(ring) < min(rnd, size):
            grown = np.empty((min(2 * len(ring), size),) + p.shape)
            grown[:len(ring)] = ring
            ring = grown
        slot = (rnd - 1) % len(ring)
        ring[slot] = p
        for q, view in _round_views(schedule, p, ring, slot, rnd, rng):
            p[q] = best_response_powers(F, sigma2, eps[q], view, q, P[q], pmax[q])[0]

        delta = float(np.maximum.reduce(np.abs(p - ring[slot]), None))
        if trajectory is not None:
            trajectory.append(p.copy())
        if delta < opts.tol:
            residual, mus = _residual(ch, cfg, p)
            if residual <= 10 * opts.tol:
                converged = True
                break
        if anchors is not None:
            key = p.tobytes()
            s = next((r for k, r in anchors.values() if k == key), None)
            if s is not None:
                last = rnd + (opts.max_iters - rnd) % (rnd - s)
                anchors = None
            else:
                anchors.update((j, (key, rnd)) for j in range((rnd & -rnd).bit_length()))
        if rnd == last:
            break

    if not converged:
        residual, mus = _residual(ch, cfg, p)
    mus.setflags(write=False)
    if trajectory is not None:
        trajectory = np.asarray(trajectory)
        trajectory.setflags(write=False)

    result = EquilibriumResult(
        profile=PowerProfile(p),
        mu=mus,
        iterations=rnd if converged else opts.max_iters,
        residual=residual,
        converged=converged,
        trajectory=trajectory,
    )
    if trajectory is None:
        _latest = (*map(weakref.ref, (ch, cfg, initial)), schedule, opts, result)
    return result


def write_trajectory_csv(result: EquilibriumResult, path):
    """Dump a recorded trajectory as round,user,frequency,power,residual rows.

    The residual column is the max-norm profile change of that round (0 for
    the initial round). Indices are 1-based.
    """
    if result.trajectory is None:
        raise DomainError("result carries no trajectory; solve with record_trajectory")
    traj = result.trajectory
    deltas = np.concatenate(
        ([0.0], np.abs(np.diff(traj, axis=0)).max(axis=(1, 2)))
    ).tolist()
    write_csv(path, ["round", "user", "frequency", "power", "residual"], (
        (rnd, q + 1, k + 1, power, deltas[rnd])
        for rnd, profile in enumerate(traj.tolist())
        for q, row in enumerate(profile)
        for k, power in enumerate(row)
    ))
