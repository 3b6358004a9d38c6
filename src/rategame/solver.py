"""Asynchronous iterative waterfilling to the robust-optimization equilibrium.

Each round every scheduled user replaces its allocation with the robust best
response to (a possibly stale view of) the others' powers. At a fixed point
all users simultaneously best-respond, which is the equilibrium of the game.
Three update schedules are provided: jacobi (simultaneous), gauss_seidel
(sequential in user order) and random_async (each user updates with
probability u per round against neighbor state of bounded age).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

import numpy as np

from .core import (
    ChannelSet,
    DomainError,
    GameConfig,
    NumericalError,
    PowerProfile,
    assert_feasible,
    check_dims,
)
from .waterfill import best_response_powers, best_responses, project_to_simplex

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
        if self.max_staleness < 0:
            raise DomainError("max_staleness must be >= 0")

    def describe(self) -> str:
        if self.kind == "random_async":
            return (f"random_async(seed={self.seed}, u={self.update_probability}, "
                    f"d={self.max_staleness})")
        return self.kind


@dataclass(frozen=True)
class SolverOptions:
    tol: float = 1e-10
    max_iters: int = 10_000
    record_trajectory: bool = False

    def __post_init__(self):
        if not self.tol > 0:
            raise DomainError("tol must be positive")
        if self.max_iters < 1:
            raise DomainError("max_iters must be >= 1")


@dataclass(frozen=True)
class EquilibriumResult:
    profile: PowerProfile
    mu: np.ndarray
    iterations: int
    residual: float
    converged: bool
    schedule: Schedule
    trajectory: np.ndarray = None  # (rounds + 1, Q, N) when recorded


def default_initial_profile(ch: ChannelSet, cfg: GameConfig) -> PowerProfile:
    """Uniform P_q/N allocation, projected per user to respect the masks."""
    check_dims(ch, cfg)
    rows = [
        project_to_simplex(np.full(cfg.N, cfg.P[q] / cfg.N), cfg.P[q], cfg.pmax[q])
        for q in range(cfg.Q)
    ]
    return PowerProfile(np.stack(rows))


def _residual(ch, cfg, p):
    """Simultaneous fixed-point residual of p and every user's water level."""
    br, mus = best_responses(ch, cfg, p)
    return float(np.max(np.linalg.norm(p - br, axis=1))), mus


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
    snapshots = list(history)  # oldest .. newest == prev
    updating = rng.random(Q) < schedule.update_probability
    for q in range(Q):
        if not updating[q]:
            continue
        view = prev.copy()
        for r in range(Q):
            if r == q:
                continue  # a user always knows its own latest powers
            age = int(rng.integers(0, len(snapshots)))
            view[r] = snapshots[-1 - age][r]
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
    no-ops. Hitting max_iters returns converged=False, not an exception.
    """
    check_dims(ch, cfg, initial)
    assert_feasible(cfg, initial)

    p = initial.p.copy()
    rng = np.random.default_rng(schedule.seed)
    # round-start snapshots, oldest first; only random_async reads beyond the last
    history = deque([p.copy()], maxlen=schedule.max_staleness + 1)
    trajectory = [p.copy()] if opts.record_trajectory else None

    converged = False
    for rnd in range(1, opts.max_iters + 1):
        prev = p.copy()
        for q, view in _round_views(schedule, p, prev, history, rng):
            p[q], _ = best_response_powers(
                ch.F, ch.sigma2, cfg.eps[q], view, q, cfg.P[q], cfg.pmax[q]
            )
            _check_finite(p[q], q, rnd)

        delta = float(np.abs(p - prev).max())
        history.append(p.copy())
        if trajectory is not None:
            trajectory.append(p.copy())
        if delta < opts.tol:
            residual, mus = _residual(ch, cfg, p)
            if residual <= 10 * opts.tol:
                converged = True
                break

    if not converged:
        residual, mus = _residual(ch, cfg, p)

    return EquilibriumResult(
        profile=PowerProfile(p),
        mu=mus,
        iterations=rnd,
        residual=residual,
        converged=converged,
        schedule=schedule,
        trajectory=np.asarray(trajectory) if trajectory is not None else None,
    )


def _check_finite(row, q, rnd):
    if not np.all(np.isfinite(row)):
        raise NumericalError(f"non-finite update for user {q + 1} in round {rnd}")


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
    )
    with open(path, "w", newline="\n") as fh:
        fh.write("round,user,frequency,power,residual\n")
        for rnd in range(traj.shape[0]):
            for q in range(traj.shape[1]):
                for k in range(traj.shape[2]):
                    fh.write(
                        f"{rnd},{q + 1},{k + 1},"
                        f"{traj[rnd, q, k]:.17g},{deltas[rnd]:.17g}\n"
                    )
