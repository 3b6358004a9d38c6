"""Asynchronous iterative waterfilling to the robust-optimization equilibrium.

Each round every scheduled user replaces its allocation with the robust best
response to (a possibly stale view of) the others' powers. At a fixed point
all users simultaneously best-respond, which is the equilibrium of the game.
Three update schedules are provided: jacobi (simultaneous), gauss_seidel
(sequential in user order) and random_async (each user updates with
probability u per round against neighbor state of bounded age).
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass

import numpy as np

from .core import (
    ChannelSet,
    DomainError,
    GameConfig,
    PowerProfile,
    assert_feasible,
    check_dims,
    write_csv,
)
from .waterfill import best_response_powers, best_responses, block_norm, projected_profile

SCHEDULE_KINDS = ("jacobi", "gauss_seidel", "random_async")


@dataclass(frozen=True)
class Schedule:
    """Update schedule: which users recompute when, and how stale their views are.

    random_async with max_staleness=0 and update_probability=1 produces the
    same iterates as jacobi.
    """

    kind: str = "jacobi"
    seed: int = 0
    update_probability: float = 1.0
    max_staleness: int = 0

    def __post_init__(self):
        if self.kind not in SCHEDULE_KINDS:
            raise DomainError(f"unknown schedule kind {self.kind!r}")
        if not (0.0 < self.update_probability <= 1.0):
            raise DomainError("update_probability must be in (0, 1]")
        if not (isinstance(self.seed, numbers.Integral) and self.seed >= 0):
            raise DomainError("seed must be an integer >= 0")
        if not isinstance(self.max_staleness, numbers.Integral):
            raise DomainError("max_staleness must be an integer")
        if self.max_staleness < 0:
            raise DomainError("max_staleness must be >= 0")


@dataclass(frozen=True)
class SolverOptions:
    tol: float = 1e-10
    max_iters: int = 10_000
    record_trajectory: bool = False

    def __post_init__(self):
        if not self.tol > 0:
            raise DomainError("tol must be positive")
        if not isinstance(self.max_iters, numbers.Integral):
            raise DomainError("max_iters must be an integer")
        if self.max_iters < 1:
            raise DomainError("max_iters must be >= 1")


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
    return projected_profile(cfg, (np.full(cfg.N, cfg.P[q] / cfg.N) for q in range(cfg.Q)))


def _residual(ch, cfg, p):
    """Simultaneous fixed-point residual of p and every user's water level."""
    br, mus = best_responses(ch, cfg, p)
    return block_norm(p - br), mus


def fixed_point_residual(ch: ChannelSet, cfg: GameConfig, profile: PowerProfile) -> float:
    """max over users of the Euclidean distance between p_q and its best response."""
    check_dims(ch, cfg, profile)
    return _residual(ch, cfg, profile.p)[0]


def _round_views(schedule, p, prev, history, rng):
    """(user, view) pairs of one round: who updates, and against which powers.

    jacobi reads the frozen round-start profile prev, gauss_seidel the live p.
    random_async draws who updates, then an age in 0..len(history)-1 for each
    other user's row, in that order; jacobi and gauss_seidel draw nothing.
    """
    Q = p.shape[0]
    if schedule.kind != "random_async":
        view = prev if schedule.kind == "jacobi" else p
        for q in range(Q):
            yield q, view
        return
    updating = rng.random(Q) < schedule.update_probability
    for q in range(Q):
        if not updating[q]:
            continue
        view = prev.copy()
        for r in range(Q):
            if r == q:
                continue  # a user always knows its own latest powers
            age = int(rng.integers(0, len(history)))
            view[r] = history[-1 - age][r]
        yield q, view


def solve(
    ch: ChannelSet,
    cfg: GameConfig,
    initial: PowerProfile,
    schedule: Schedule = Schedule(),
    opts: SolverOptions = SolverOptions(),
) -> EquilibriumResult:
    """Iterate robust waterfilling rounds until the profile stops moving.

    Convergence is declared once the per-round max-norm change drops below
    opts.tol and the simultaneous fixed-point residual confirms it at
    10 * opts.tol; the confirmation guards schedules whose rounds can be
    no-ops. Hitting max_iters returns converged=False, not an exception; a
    water level that misses a budget raises NumericalError.

    A jacobi or gauss_seidel round is a function of the round-start profile
    alone. Once the profile after round t + lam equals, byte for byte, the
    profile after round t, every later round repeats one of rounds
    t + 1 .. t + lam, whose convergence checks all failed, so no later round
    can converge and round max_iters ends on the profile of round
    t + lam + (max_iters - t - lam) mod lam. The solve stops there and
    returns what the full run returns: that profile, its mu and residual,
    iterations = max_iters and converged=False. random_async solves (their
    rounds draw from the RNG) and solves that record a trajectory run every
    round.
    """
    check_dims(ch, cfg, initial)
    assert_feasible(cfg, initial)

    p = initial.p.copy()
    rng = np.random.default_rng(schedule.seed)
    # the last max_staleness + 1 round-start snapshots, oldest first (a list,
    # so any int bounds it); each round's prev is never written, so it is
    # stored as it is, and only random_async reads beyond the last
    history = []
    trajectory = [p.copy()] if opts.record_trajectory else None
    watch = _CycleWatch() if schedule.kind != "random_async" and trajectory is None else None

    F, sigma2, eps, P, pmax = ch.F, ch.sigma2, cfg.eps.tolist(), cfg.P.tolist(), list(cfg.pmax)
    converged = False
    last = opts.max_iters  # lowered to the cycle's matching round once one is proven
    for rnd in range(1, opts.max_iters + 1):
        prev = p.copy()
        history.append(prev)
        del history[:-1 - schedule.max_staleness]
        for q, view in _round_views(schedule, p, prev, history, rng):
            p[q] = best_response_powers(F, sigma2, eps[q], view, q, P[q], pmax[q])[0]

        delta = float(np.abs(p - prev).max())
        if trajectory is not None:
            trajectory.append(p.copy())
        if delta < opts.tol:
            residual, mus = _residual(ch, cfg, p)
            if residual <= 10 * opts.tol:
                converged = True
                break
        if watch is not None:
            period = watch.period(p, rnd)
            if period is not None:
                last = rnd + (opts.max_iters - rnd) % period
                watch = None
        if rnd == last:
            break

    if not converged:
        residual, mus = _residual(ch, cfg, p)

    return EquilibriumResult(
        profile=PowerProfile(p),
        mu=mus,
        iterations=rnd if converged else opts.max_iters,
        residual=residual,
        converged=converged,
        trajectory=np.asarray(trajectory) if trajectory is not None else None,
    )


class _CycleWatch:
    """Finds the round at which a deterministic solve closes an exact cycle.

    A dict maps the hash of each round's profile bytes to the latest round
    that produced it: one int per round. A hit at round t from round s keeps
    a copy of the profile and proposes the period lam = t - s; the cycle is
    proven only if the profile after round t + lam equals that copy byte for
    byte. A hash collision therefore costs one failed proof, and no result
    depends on the hash.
    """

    def __init__(self):
        self.seen = {}
        self.candidate = None  # (profile bytes, round that must repeat them, lam)

    def period(self, p, rnd):
        """lam once the profile after round rnd proves a cycle, else None."""
        key = p.tobytes()
        h = hash(key)
        if self.candidate is None:
            s = self.seen.get(h)
            if s is not None:
                self.candidate = key, 2 * rnd - s, rnd - s
        elif rnd == self.candidate[1]:
            if key == self.candidate[0]:
                return self.candidate[2]
            self.candidate = None
        self.seen[h] = rnd
        return None


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
