"""Closed-form two-user analytics.

Two families live here. First, the anti-symmetric two-frequency system
(direct gains 1, cross gains [alpha, m*alpha] and [m*alpha, alpha], flat
noise): its interior equilibrium is described by a single split p, with
closed forms for p, dp/deps, the sum-rate and the critical interference
level at which the sum-rate is insensitive to both uncertainty and the
split. Second, the overlap-set linear system of a general two-user
equilibrium with flat noise, which yields the analytic sensitivity of the
partitioning measure J(k) = -p1(k) p2(k) to the uncertainty bound.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import (
    ChannelSet,
    DegenerateSystemError,
    DomainError,
    GameConfig,
    PowerProfile,
    RegimeError,
    UnsupportedArityError,
    check_dims,
    is_real,
)
from .metrics import occupied_bins

INTERIOR_MARGIN = 1e-9
G = np.array([[0.0, 1.0], [1.0, 0.0]])  # d/deps of each overlap block


@dataclass(frozen=True)
class AntiSymSystem:
    """Anti-symmetric Q=2, N=2 system: interference alpha / m*alpha, flat noise."""

    alpha: float
    m: float
    sigma2: float
    eps: float = 0.0

    def __post_init__(self):
        if not (is_real(self.alpha) and 0.0 < self.alpha < 1.0):
            raise DomainError("alpha must lie in (0, 1)")
        if not (is_real(self.m) and 1.0 <= self.m < np.inf):
            raise DomainError("m must be >= 1 and finite")
        if not (is_real(self.sigma2) and 0 < self.sigma2 < np.inf):
            raise DomainError("sigma2 must be positive and finite")
        if not (is_real(self.eps) and 0 <= self.eps < np.inf):
            raise DomainError("eps must be nonnegative and finite")

    def denominator(self) -> float:
        return 1.0 - (self.m + 1.0) * self.alpha / 2.0 - self.eps


def antisym_channels(sys: AntiSymSystem) -> ChannelSet:
    """ChannelSet of the anti-symmetric system (unit direct gains)."""
    a, ma = sys.alpha, sys.m * sys.alpha
    F = np.zeros((2, 2, 2))
    F[1, 0, :] = (a, ma)   # transmitter 2 into link 1
    F[0, 1, :] = (ma, a)   # transmitter 1 into link 2
    return ChannelSet(F=F, sigma2=np.full((2, 2), sys.sigma2))


def antisym_config(sys: AntiSymSystem) -> GameConfig:
    """Unit budgets and unit masks, which every closed form here assumes."""
    return GameConfig(P=np.ones(2), pmax=np.ones((2, 2)), eps=np.full(2, sys.eps))


def antisym_profile(p: float) -> PowerProfile:
    """Symmetric-family profile: user 1 puts p on bin 1, user 2 mirrors it."""
    return PowerProfile(np.array([[p, 1.0 - p], [1.0 - p, p]]))


def interior_p(sys: AntiSymSystem) -> float:
    """Interior equilibrium split p = (1 - alpha - eps) / (2 (1 - (m+1) alpha/2 - eps)).

    Always >= 0.5 in its regime; raises RegimeError when the denominator is
    not positive or any equilibrium power would hit zero.
    """
    den = sys.denominator()
    if den <= 0:
        raise RegimeError(f"denominator {den:.6g} is not positive")
    p = (1.0 - sys.alpha - sys.eps) / (2.0 * den)
    # all four equilibrium powers (p and 1-p twice each) must be strictly
    # positive with margin; otherwise the linear closed form is invalid
    if min(p, 1.0 - p) <= INTERIOR_MARGIN:
        raise RegimeError(f"split p={p:.6g} is not interior; the closed form does not apply")
    return float(p)


def interior_dp_deps(sys: AntiSymSystem) -> float:
    """Sensitivity dp/deps = (m - 1) alpha / (4 (1 - (m+1) alpha/2 - eps)^2).

    Positive for m > 1: uncertainty pushes the equilibrium toward FDMA.
    """
    interior_p(sys)  # raises RegimeError outside the interior regime
    den = sys.denominator()
    return float((sys.m - 1.0) * sys.alpha / (4.0 * den * den))


def split_sum_rate(sys: AntiSymSystem, p: float) -> float:
    """Sum-rate of the symmetric-family profile with split p (nominal rates)."""
    if not (is_real(p) and 0.0 <= p <= 1.0):
        raise DomainError("split p must lie in [0, 1]")
    a, m, s2 = sys.alpha, sys.m, sys.sigma2
    return float(
        2.0 * np.log1p(p / (s2 + a * (1.0 - p)))
        + 2.0 * np.log1p((1.0 - p) / (s2 + m * a * p))
    )


def antisym_sum_rate(sys: AntiSymSystem) -> float:
    """Equilibrium sum-rate of the interior regime (split from interior_p)."""
    return split_sum_rate(sys, interior_p(sys))


def split_sum_rate_slope(alpha: float, m: float, sigma2: float, p: float) -> float:
    """d/dp of the symmetric-family sum-rate at the given split.

    alpha may be any finite real, alpha_roots' negative roots included, at
    which both noise-plus-interference terms stay positive.
    """
    _check_m_sigma2(m, sigma2)
    if not (is_real(p) and 0.0 <= p <= 1.0):
        raise DomainError("split p must lie in [0, 1]")
    if not (is_real(alpha) and -np.inf < alpha < np.inf):
        raise DomainError("alpha must be a finite real number")
    d1 = sigma2 + alpha * (1.0 - p)
    d2 = sigma2 + m * alpha * p
    if not (d1 > 0 and d2 > 0):
        raise DomainError("alpha makes a noise-plus-interference term nonpositive")
    t1 = (1.0 / d1 + alpha * p / d1**2) / (1.0 + p / d1)
    t2 = (1.0 / d2 + (1.0 - p) * m * alpha / d2**2) / (1.0 + (1.0 - p) / d2)
    return float(2.0 * (t1 - t2))


def _check_m_sigma2(m, sigma2):
    if not (is_real(m) and 1.0 <= m < np.inf) or not (is_real(sigma2) and 0 < sigma2 < np.inf):
        raise DomainError("need m >= 1 and sigma2 > 0, both finite")


def alpha_crit(m: float, sigma2: float) -> float:
    """Interference level where the sum-rate is flat in both eps and the split.

    sigma2/(2m) * (sqrt((m+1)^2 + 4m/sigma2) - m - 1): the positive root of
    the slope equation that does not depend on the split.
    """
    _check_m_sigma2(m, sigma2)
    return float(
        sigma2 / (2.0 * m) * (np.sqrt((m + 1.0) ** 2 + 4.0 * m / sigma2) - m - 1.0)
    )


def alpha_roots(m: float, sigma2: float, p: float) -> np.ndarray:
    """All stationary points of the sum-rate in eps at a fixed split p.

    Zero kills dp/deps; the branch pair and the split-dependent root kill the
    slope in p. Only alpha_crit is positive and split-independent. The
    split-dependent root is -sigma2 (2p - 1) / ((m - 1) p^2 + 2p - 1): the
    sign is fixed by checking the root against the slope directly.
    """
    _check_m_sigma2(m, sigma2)
    if not (is_real(p) and 0.5 < p < 1.0):
        raise DomainError("split p must lie in (0.5, 1)")
    root_sq = np.sqrt(4.0 * m / sigma2 + (m + 1.0) ** 2)
    branch_neg = -sigma2 / (2.0 * m) * (m + 1.0 + root_sq)
    branch_pos = -sigma2 / (2.0 * m) * (m + 1.0 - root_sq)  # equals alpha_crit
    split_root = -sigma2 * (2.0 * p - 1.0) / ((m - 1.0) * p * p + 2.0 * p - 1.0)
    return np.array([0.0, branch_neg, branch_pos, split_root])


@dataclass(frozen=True)
class OverlapSystem:
    """Exclusive/overlap frequency sets of a two-user equilibrium, flat noise.

    On overlap bins the clamp is inactive and the equilibrium solves a block
    linear system with one 2x2 block A_k = [[1, f21_k], [f12_k, 1]] per bin,
    coupled through the water levels; Z maps the budgets (P_T, P_T) to the
    water-level offsets mu_q - sigma2.
    """

    d1: np.ndarray       # bins used by user 1 only
    d2: np.ndarray       # bins used by user 2 only
    d_ol: np.ndarray     # bins used by both
    f21: np.ndarray      # F21(k) + eps on the overlap bins
    f12: np.ndarray      # F12(k) + eps on the overlap bins
    inv: np.ndarray      # (n_ol, 2, 2) block inverses A_k^{-1}
    Z: np.ndarray        # 2x2 water-level block of the inverse
    offsets: np.ndarray  # Z (P_T, P_T): the water-level offsets mu_q - sigma2
    P_T: float
    eps: float


def classify_frequency_sets(
    ch: ChannelSet, cfg: GameConfig, equilibrium: PowerProfile
) -> OverlapSystem:
    """Partition the occupied bins of a converged two-user equilibrium.

    Requires equal budgets and uncertainty bounds and flat noise; raises
    DegenerateSystemError when an overlap block or the coupled water-level
    system is singular, or when a mask clips an occupied bin (the linear
    model assumes slack masks).
    """
    check_dims(ch, cfg, equilibrium)
    if ch.Q != 2:
        raise UnsupportedArityError("overlap analysis is defined for Q = 2 only")
    if cfg.eps[0] != cfg.eps[1]:
        raise DomainError("overlap analysis needs equal uncertainty bounds")
    if cfg.P[0] != cfg.P[1]:
        raise DomainError("overlap analysis needs equal power budgets")
    if not np.allclose(ch.sigma2, ch.sigma2.flat[0], rtol=1e-9, atol=0.0):
        raise DomainError("overlap analysis needs identical noise across users and bins")
    eps = float(cfg.eps[0])
    P_T = float(cfg.P[0])

    occupied = occupied_bins(equilibrium, cfg.P)
    if np.any(equilibrium.p[occupied] > cfg.pmax[occupied] - 1e-9):
        raise DegenerateSystemError("mask active on an occupied bin")
    d1 = np.flatnonzero(occupied[0] & ~occupied[1])
    d2 = np.flatnonzero(occupied[1] & ~occupied[0])
    d_ol = np.flatnonzero(occupied[0] & occupied[1])

    f21 = ch.F[1, 0, d_ol] + eps
    f12 = ch.F[0, 1, d_ol] + eps
    dets = 1.0 - f21 * f12
    if np.any(np.abs(dets) < 1e-12):
        raise DegenerateSystemError("singular overlap block: (F21+eps)(F12+eps) = 1")
    one = np.ones_like(f21)
    inv = np.moveaxis(np.array([[one, -f21], [-f12, one]]), -1, 0) / dets[:, None, None]

    inv_sum = float((1.0 / dets).sum())
    zbar = np.array(
        [
            [d2.size + inv_sum, float((f21 / dets).sum())],
            [float((f12 / dets).sum()), d1.size + inv_sum],
        ]
    )
    det_hat = zbar[0, 0] * zbar[1, 1] - zbar[0, 1] * zbar[1, 0]
    if abs(det_hat) < 1e-12:
        raise DegenerateSystemError("singular water-level coupling")
    Z = zbar / det_hat
    return OverlapSystem(
        d1=d1, d2=d2, d_ol=d_ol, f21=f21, f12=f12, inv=inv, Z=Z,
        offsets=Z @ np.full(2, P_T), P_T=P_T, eps=eps,
    )


def reconstruct_powers(sys: OverlapSystem) -> np.ndarray:
    """Overlap-bin powers from the block solution, p(k) = A_k^{-1} Z (P_T, P_T)."""
    return sys.inv @ sys.offsets


def dense_overlap_solve(sys: OverlapSystem):
    """Solve the full (2 n_ol + 2) coupled system directly; validation oracle.

    Built from the couplings, not from the stored block inverses. Returns
    (powers on overlap bins, water-level offsets (mu_q - sigma2)).
    """
    n = sys.d_ol.size
    dim = 2 * n + 2
    M = np.zeros((dim, dim))
    rhs = np.zeros(dim)
    for i in range(n):
        M[2 * i: 2 * i + 2, 2 * i: 2 * i + 2] = [[1.0, sys.f21[i]], [sys.f12[i], 1.0]]
        M[2 * i: 2 * i + 2, 2 * n: 2 * n + 2] = -np.eye(2)
        M[2 * n: 2 * n + 2, 2 * i: 2 * i + 2] = np.eye(2)
    M[2 * n, 2 * n] = sys.d1.size
    M[2 * n + 1, 2 * n + 1] = sys.d2.size
    rhs[2 * n:] = sys.P_T
    sol = np.linalg.solve(M, rhs)
    return sol[: 2 * n].reshape(n, 2), sol[2 * n:]


def partition_derivative(sys: OverlapSystem, ch: ChannelSet, boundary_factor: float = 1e-3):
    """Analytic d/deps of J(k) = -p1(k) p2(k), plus partition-boundary flags.

    Exclusive and unused bins have exact zero derivative. The derivative is
    valid only while the frequency-set partition is locally constant in eps;
    bins close to entering or leaving the overlap set are flagged (the value
    for the current region is still returned).
    """
    if not (is_real(boundary_factor) and 0 <= boundary_factor < np.inf):
        raise DomainError("boundary_factor must be nonnegative and finite")
    dJ = np.zeros(ch.N)
    flags = np.zeros(ch.N, dtype=bool)
    btol = boundary_factor * sys.P_T
    off = sys.offsets

    # dp_k = A_k^{-1} (Z C off - G p_k), with C = sum_i A_i^{-1} G A_i^{-1}
    powers = reconstruct_powers(sys)  # (n_ol, 2)
    coupling = np.einsum("kab,bc,kcd->ad", sys.inv, G, sys.inv)
    drift = sys.Z @ coupling @ off
    dp = np.einsum("kab,kb->ka", sys.inv, drift - powers @ G.T)
    dJ[sys.d_ol] = -((powers @ G) * dp).sum(axis=1)
    flags[sys.d_ol] = powers.min(axis=1) < btol  # a user is about to drop the bin

    # bins of user q alone: flag when the silent user s's headroom is nearly zero
    for q, bins in enumerate((sys.d1, sys.d2)):
        s = 1 - q
        head = off[s] - (ch.F[q, s, bins] + sys.eps) * off[q]
        flags[bins] = head > -btol
    # bins used by nobody: flag when either user is close to activating them
    unused = np.setdiff1d(np.arange(ch.N), np.r_[sys.d1, sys.d2, sys.d_ol])
    flags[unused] = off.max() > -btol
    return dJ, flags
