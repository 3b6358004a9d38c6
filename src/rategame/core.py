"""Domain types and rate primitives for multi-user power-allocation games.

Everything operates on normalized channels: cross gains are stored as the
dimensionless ratios F[r, q, k] (power gain from transmitter r into link q on
frequency bin k, divided by link q's direct gain) and noise as sigma2[q, k],
the receiver noise normalized the same way. The diagonal F[q, q, :] is zero
by convention. Rates are natural-log (nats).

All types are immutable after construction and validated at construction.
Operations may assume valid inputs and are pure functions, except
solver.solve, which keeps its latest result and returns it to a call with
the same channel, config and start objects.
"""

from __future__ import annotations

import functools
import numbers
import operator
import os
from dataclasses import dataclass

import numpy as np

POWER_SUM_RTOL = 1e-9  # relative tolerance on the per-user total-power equality
FLOAT_SPEC = ".17g"  # 17 significant digits round-trip every float64
ALL_USERS = slice(None)  # the user selection that takes every user at once


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


def check_real_entries(values, name):
    """Raise DomainError if values, a number or a nested sequence, holds a boolean or a string.

    Float and int arrays pass on their dtype; other inputs are scanned entry
    by entry, since numpy reads True as 1.0 and "1" as 1.0.
    """
    if isinstance(values, np.ndarray) and values.dtype.kind in "fiu":
        return
    for v in np.asarray(values, dtype=object).flat:
        if isinstance(v, (bool, np.bool_)):
            raise DomainError(f"{name} must be real numbers, not booleans")
        if isinstance(v, (str, bytes)):
            raise DomainError(f"{name} must be real numbers, not strings")


def _frozen_array(values, shape_name):
    check_real_entries(values, shape_name)
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
        with np.errstate(over="ignore"):  # masks near the float range sum to inf
            mask_total = pmax.sum(axis=1)
        if not np.isfinite(mask_total).all():
            raise DomainError("spectral masks must have a finite sum per user")
        if np.any(mask_total <= P):
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


def is_int(value) -> bool:
    """True for an integer that is not a bool (Python counts bools as integers)."""
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def is_real(value) -> bool:
    """True for a real number a float can hold (not 10**400) that is not a bool."""
    if not isinstance(value, numbers.Real) or isinstance(value, bool):
        return False
    try:
        float(value)
    except OverflowError:
        return False
    return True


def check_positive_finite(name, *values):
    """Raise DomainError unless every value is a positive real below infinity.

    A value that is not a real, is a bool or is not above 0 fails first
    ("must be positive"); then inf and reals beyond the float range, such
    as 10**400, fail ("must be finite").
    """
    if not all(isinstance(v, numbers.Real) and not isinstance(v, bool) and v > 0
               for v in values):
        raise DomainError(f"{name} must be positive")
    if not all(is_real(v) and v < np.inf for v in values):
        raise DomainError(f"{name} must be finite")


def check_user(q, Q: int):
    """Raise DomainError unless q is an integer user index in 0..Q-1."""
    if not (is_int(q) and 0 <= q < Q):
        raise DomainError(f"user index must be an integer in 0..{Q - 1}, got {q!r}")


def assert_feasible(cfg: GameConfig, profile: PowerProfile):
    """Check mask bounds and per-user total power; the caller has checked (Q, N)."""
    if np.any(profile.p > cfg.pmax * (1 + 1e-12) + 1e-15):
        raise DomainError("profile violates a spectral mask")
    gap = np.abs(profile.p.sum(axis=1) - cfg.P)
    if np.any(gap > POWER_SUM_RTOL * cfg.P):
        q = int(np.argmax(gap / cfg.P))
        raise DomainError(
            f"user {q + 1} total power off budget by {gap[q]:.3e}"
        )


def interference_level(F, sigma2, eps, p, q) -> np.ndarray:
    """Worst-case noise-plus-interference on raw arrays, for one user, all or a stack.

    Phi_q(k) = sigma_q^2(k) + sum_{r != q} F_rq(k) p_r(k)
             + eps_q * sqrt(sum_{r != q} p_r(k)^2)

    F is (Q, Q, N) with zero diagonal, so only rows r != q of the powers
    enter; eps_q = 0 gives the nominal level. The user selection q is one of:
    a user index, with eps that user's bound and p the full (Q, N) power
    matrix, for its (N,) level; ALL_USERS, with eps the (Q,) bounds, for the
    (Q, N) levels of every user against the same p; or an index array of B
    users, with eps their (B,) bounds and p a (B, Q, N) stack of power
    matrices, for the (B, N) levels of user q[b] against p[b]. Every row
    equals that user's own call byte for byte. The robust term is formed
    only for rows with eps_q > 0: on the arrays as given when every row has
    one, else on a gather of those rows. The solver, the condition checks
    and the rate functions all compute Phi here.
    """
    if p.ndim == 3:
        # F's columns q, gathered into a buffer one column wider so that, like
        # F[:, q, :] for one user, they are not contiguous along r: at N = 1
        # einsum sums a contiguous operand in another order
        cross = np.empty((len(F), len(q) + 1, F.shape[2]))[:, :-1]
        np.take(F, q, axis=1, out=cross)
    else:
        cross = F[:, q, :]
    phi = np.einsum("r...k,...rk->...k", cross, p)
    phi += sigma2[q]
    rows = own = q
    if phi.ndim == 1:
        if not eps > 0:
            return phi
    else:
        robust = (eps > 0).nonzero()[0]
        if not robust.size:
            return phi
        if robust.size == len(eps):
            eps = eps[:, None]
        else:  # leave the eps-0 rows out: inf - inf would give them nan
            rows = own = robust
            eps = eps[rows, None]
            if p.ndim == 3:
                p, q = p[rows], q[rows]
        if p.ndim == 3:  # row b squares only its own view, p[b], at its user q[b]
            own = (np.arange(len(p)), q)
    squares = p * p
    sq = squares[own]
    # a sum of nonnegative squares rounds to at least each of its terms, so
    # the difference is never below +0.0
    np.subtract(np.add.reduce(squares, -2), sq, out=sq)
    np.sqrt(sq, out=sq)
    sq *= eps
    if rows is q:
        phi += sq
    else:
        phi[rows] += sq
    return phi


def sum_rate_array(F, sigma2, p) -> float:
    """Nominal sum-rate in nats of the (Q, N) power matrix p, on raw arrays."""
    phi = interference_level(F, sigma2, np.zeros(len(p)), p, ALL_USERS)
    rates = np.log1p(p / phi).sum(axis=1).tolist()
    return functools.reduce(operator.add, rates, 0.0)  # in user order, one after another


def worst_case_interference(
    ch: ChannelSet, cfg: GameConfig, profile: PowerProfile, q: int
) -> np.ndarray:
    """Worst-case noise-plus-interference Phi_q(k) seen by user q on every bin."""
    check_dims(ch, cfg, profile)
    check_user(q, ch.Q)
    return interference_level(ch.F, ch.sigma2, cfg.eps[q], profile.p, q)


def user_rate(
    ch: ChannelSet, profile: PowerProfile, q: int, eps_override: float = 0.0
) -> float:
    """Rate of user q in nats, sum_k log(1 + p_q(k) / denominator(k)).

    The denominator is the nominal interference level; pass eps_override to
    evaluate the worst-case rate with that uncertainty bound instead.
    """
    check_dims(ch, profile=profile)
    check_user(q, ch.Q)
    if not (is_real(eps_override) and 0 <= eps_override < np.inf):
        raise DomainError("eps_override must be nonnegative and finite")
    phi = interference_level(ch.F, ch.sigma2, eps_override, profile.p, q)
    return float(np.log1p(profile.p[q] / phi).sum())


def sum_rate(ch: ChannelSet, profile: PowerProfile) -> float:
    """System sum-rate: the nominal rates of all users added up."""
    check_dims(ch, profile=profile)
    return sum_rate_array(ch.F, ch.sigma2, profile.p)


def price_of_anarchy(s_optimal: float, s_equilibrium: float) -> float:
    """Socially optimal sum-rate divided by the equilibrium sum-rate."""
    if not all(is_real(s) and 0 < s < np.inf for s in (s_optimal, s_equilibrium)):
        raise DomainError("sum-rates must be positive and finite")
    return s_optimal / s_equilibrium


def format_value(value) -> str:
    """The text of one output value: floats (numpy's too) at full precision, booleans true/false."""
    if isinstance(value, (float, np.floating)):
        return format(value, FLOAT_SPEC)
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    return str(value)


def write_csv(dest, header, rows):
    """Write a header line and rows, comma-separated with LF endings.

    dest is a path or an open text stream. Each cell reads as format_value
    spells it.
    """
    if isinstance(dest, (str, os.PathLike)):
        with open(dest, "w", newline="\n") as fh:
            return write_csv(fh, header, rows)
    dest.write(",".join(header) + "\n")
    for row in rows:
        dest.write(",".join(map(format_value, row)) + "\n")
