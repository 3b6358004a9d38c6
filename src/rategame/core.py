"""Domain types and rate primitives for multi-user power-allocation games.

Everything operates on normalized channels: cross gains are stored as the
dimensionless ratios F[r, q, k] (power gain from transmitter r into link q on
frequency bin k, divided by link q's direct gain) and noise as sigma2[q, k],
the receiver noise normalized the same way. The diagonal F[q, q, :] is zero
by convention. Rates are natural-log (nats).

All types are immutable after construction and validated at construction;
operations are pure functions and may assume valid inputs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

POWER_SUM_RTOL = 1e-9  # relative tolerance on the per-user total-power equality


class GameError(Exception):
    """Base class for errors raised by this package."""


class StructuralError(GameError):
    """Inconsistent dimensions between channel set, game config and profile."""


class DomainError(GameError):
    """Argument outside its mathematical domain (negative, non-finite, ...)."""


class InfeasibleError(GameError):
    """The constraint set is empty (masks cannot absorb the power budget)."""


class RegimeError(GameError):
    """A closed form was evaluated outside the regime where it is valid."""


class DegenerateSystemError(GameError):
    """Singular linear system in the two-user overlap analysis."""


class NumericalError(GameError):
    """Non-finite values produced during iteration."""


class UnsupportedArityError(GameError):
    """Operation defined only for the two-user case."""


def _frozen_array(values, shape_name):
    arr = np.array(values, dtype=float)
    if not np.all(np.isfinite(arr)):
        raise DomainError(f"{shape_name} contains non-finite entries")
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True)
class ChannelSet:
    """Normalized interference coefficients and noise for Q links x N bins.

    F has shape (Q, Q, N) with F[r, q, k] >= 0 and zero diagonal; sigma2 has
    shape (Q, N) with strictly positive entries.
    """

    F: np.ndarray
    sigma2: np.ndarray

    def __post_init__(self):
        F = _frozen_array(self.F, "F")
        sigma2 = _frozen_array(self.sigma2, "sigma2")
        if F.ndim != 3 or F.shape[0] != F.shape[1]:
            raise StructuralError(f"F must be (Q, Q, N), got {F.shape}")
        Q, _, N = F.shape
        if sigma2.shape != (Q, N):
            raise StructuralError(
                f"sigma2 must be (Q, N)=({Q}, {N}), got {sigma2.shape}"
            )
        if np.any(F < 0):
            raise DomainError("F entries must be nonnegative")
        if np.any(sigma2 <= 0):
            raise DomainError("sigma2 entries must be strictly positive")
        if np.any(F[np.arange(Q), np.arange(Q), :] != 0.0):
            raise DomainError("diagonal F[q, q, :] must be zero")
        object.__setattr__(self, "F", F)
        object.__setattr__(self, "sigma2", sigma2)

    @property
    def Q(self) -> int:
        return self.F.shape[0]

    @property
    def N(self) -> int:
        return self.F.shape[2]


@dataclass(frozen=True)
class GameConfig:
    """Per-user power budgets P, spectral masks pmax and uncertainty bounds eps.

    Requires sum_k pmax[q, k] > P[q] for every user so the mask-saturated
    allocation is never forced, and eps[q] >= 0.
    """

    P: np.ndarray
    pmax: np.ndarray
    eps: np.ndarray

    def __post_init__(self):
        P = _frozen_array(self.P, "P")
        pmax = _frozen_array(self.pmax, "pmax")
        eps = _frozen_array(self.eps, "eps")
        if P.ndim != 1 or pmax.ndim != 2 or eps.ndim != 1:
            raise StructuralError("P and eps must be 1-d, pmax 2-d")
        Q = P.shape[0]
        if pmax.shape[0] != Q or eps.shape[0] != Q:
            raise StructuralError("P, pmax, eps disagree on the user count")
        if np.any(P <= 0):
            raise DomainError("power budgets must be positive")
        if np.any(pmax < 0):
            raise DomainError("spectral masks must be nonnegative")
        if np.any(eps < 0):
            raise DomainError("uncertainty bounds must be nonnegative")
        if np.any(pmax.sum(axis=1) <= P):
            raise InfeasibleError("need sum_k pmax[q, k] > P[q] for every user")
        object.__setattr__(self, "P", P)
        object.__setattr__(self, "pmax", pmax)
        object.__setattr__(self, "eps", eps)

    @property
    def Q(self) -> int:
        return self.P.shape[0]

    @property
    def N(self) -> int:
        return self.pmax.shape[1]


@dataclass(frozen=True)
class PowerProfile:
    """A Q x N nonnegative power allocation, the state of the game."""

    p: np.ndarray

    def __post_init__(self):
        p = _frozen_array(self.p, "p")
        if p.ndim != 2:
            raise StructuralError(f"profile must be (Q, N), got {p.shape}")
        if np.any(p < 0):
            raise DomainError("powers must be nonnegative")
        object.__setattr__(self, "p", p)

    @property
    def Q(self) -> int:
        return self.p.shape[0]

    @property
    def N(self) -> int:
        return self.p.shape[1]


def check_dims(ch: ChannelSet, cfg: GameConfig = None, profile: PowerProfile = None):
    """Raise StructuralError unless all given objects share (Q, N)."""
    if cfg is not None and (cfg.Q, cfg.N) != (ch.Q, ch.N):
        raise StructuralError(
            f"config is ({cfg.Q}, {cfg.N}) but channels are ({ch.Q}, {ch.N})"
        )
    if profile is not None and (profile.Q, profile.N) != (ch.Q, ch.N):
        raise StructuralError(
            f"profile is ({profile.Q}, {profile.N}) but channels are ({ch.Q}, {ch.N})"
        )


def assert_feasible(cfg: GameConfig, profile: PowerProfile):
    """Check mask bounds and the total-power equality for every user."""
    if (profile.Q, profile.N) != (cfg.Q, cfg.N):
        raise StructuralError("profile dimensions do not match the config")
    if np.any(profile.p > cfg.pmax * (1 + 1e-12) + 1e-15):
        raise DomainError("profile violates a spectral mask")
    gap = np.abs(profile.p.sum(axis=1) - cfg.P)
    if np.any(gap > POWER_SUM_RTOL * cfg.P):
        q = int(np.argmax(gap / cfg.P))
        raise DomainError(
            f"user {q + 1} total power off budget by {gap[q]:.3e}"
        )


def interference_level(F, sigma2, eps_q: float, p, q: int) -> np.ndarray:
    """Worst-case noise-plus-interference seen by user q, on raw arrays.

    Phi_q(k) = sigma_q^2(k) + sum_{r != q} F_rq(k) p_r(k)
             + eps_q * sqrt(sum_{r != q} p_r(k)^2)

    F is (Q, Q, N) with zero diagonal and p the full (Q, N) power matrix, so
    only rows r != q enter; eps_q = 0 gives the nominal level. The solver,
    the condition checks and the rate functions all compute Phi here.
    """
    phi = sigma2[q] + np.einsum("rk,rk->k", F[:, q, :], p)
    if eps_q > 0:
        sq = (p * p).sum(axis=0) - p[q] * p[q]
        phi = phi + eps_q * np.sqrt(np.maximum(sq, 0.0))
    return phi


def sum_rate_array(F, sigma2, p) -> float:
    """Nominal sum-rate in nats of the (Q, N) power matrix p, on raw arrays."""
    total = 0.0
    for q in range(p.shape[0]):
        total += np.log1p(p[q] / interference_level(F, sigma2, 0.0, p, q)).sum()
    return float(total)


def worst_case_interference(
    ch: ChannelSet, cfg: GameConfig, profile: PowerProfile, q: int
) -> np.ndarray:
    """Worst-case noise-plus-interference Phi_q(k) seen by user q on every bin."""
    check_dims(ch, cfg, profile)
    return interference_level(ch.F, ch.sigma2, cfg.eps[q], profile.p, q)


def user_rate(
    ch: ChannelSet, profile: PowerProfile, q: int, eps_override: float = None
) -> float:
    """Rate of user q in nats, sum_k log(1 + p_q(k) / denominator(k)).

    The denominator is the nominal interference level; pass eps_override to
    evaluate the worst-case rate with that uncertainty bound instead.
    """
    check_dims(ch, profile=profile)
    if eps_override is None:
        eps_override = 0.0
    elif not eps_override >= 0:
        raise DomainError("eps_override must be nonnegative")
    den = interference_level(ch.F, ch.sigma2, eps_override, profile.p, q)
    return float(np.log1p(profile.p[q] / den).sum())


def sum_rate(ch: ChannelSet, profile: PowerProfile) -> float:
    """System sum-rate: the nominal rates of all users added up."""
    check_dims(ch, profile=profile)
    return sum_rate_array(ch.F, ch.sigma2, profile.p)


def price_of_anarchy(s_optimal: float, s_equilibrium: float) -> float:
    """Socially optimal sum-rate divided by the equilibrium sum-rate."""
    if not (s_optimal > 0 and s_equilibrium > 0 and np.isfinite(s_optimal)
            and np.isfinite(s_equilibrium)):
        raise DomainError("sum-rates must be positive and finite")
    return s_optimal / s_equilibrium
