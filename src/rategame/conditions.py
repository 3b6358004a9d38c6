"""Uniqueness/convergence condition matrices and contraction diagnostics.

The robust game has a unique equilibrium, to which every waterfilling
schedule converges, whenever rho(S^max) < 1 - rho(E): S^max is the
worst-case cross-coupling over the bins two users can share and E carries
the uncertainty bounds (Scutari, Palomar & Barbarossa, IEEE Trans. IT
54(7), 2008). Entry (q, r) of either matrix is the influence of user r on
user q. Spectral radii come from LAPACK (numpy.linalg.eigvals). The
contraction modulus and the empirical check use unit weights; the check
measures the contraction of the same best-response map the solver
iterates.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import (ChannelSet, DomainError, GameConfig, StructuralError, check_dims,
                   format_value, is_int)
from .waterfill import best_responses, block_norm, fill_powers, random_feasible_profile


@dataclass(frozen=True)
class ConditionReport:
    """Condition matrices, their spectral radii and the contraction modulus."""

    E: np.ndarray
    Smax: np.ndarray
    rho_E: float
    rho_Smax: float
    uniqueness_holds: bool       # rho(Smax) < 1 - rho(E), strict
    uniform_eps_margin: float    # 1 - eps(Q-1) - rho(Smax); None unless eps uniform
    contraction_modulus: float   # max row sum of Smax + E


def build_E(cfg: GameConfig) -> np.ndarray:
    """Q x Q matrix with eps_q on row q off the diagonal, zeros elsewhere."""
    Q = cfg.Q
    E = np.tile(cfg.eps[:, None], (1, Q))
    E[np.arange(Q), np.arange(Q)] = 0.0
    return E


def build_Smax(ch: ChannelSet, bins) -> np.ndarray:
    """Entry (q, r): max of F_rq(k) over bins usable by both q and r.

    bins is a (Q, N) boolean mask of the bins each user may use; an empty
    intersection gives 0.
    """
    bins = np.asarray(bins)
    if bins.dtype != bool or bins.shape != (ch.Q, ch.N):
        raise StructuralError(f"bins must be a boolean mask of shape ({ch.Q}, {ch.N})")
    both = bins[:, None, :] & bins[None, :, :]
    # F is nonnegative, so a zero fill leaves every nonempty max unchanged
    S = np.where(both, ch.F.transpose(1, 0, 2), 0.0).max(axis=2)
    S[np.arange(ch.Q), np.arange(ch.Q)] = 0.0
    return S


def default_bin_sets(ch: ChannelSet, cfg: GameConfig) -> np.ndarray:
    """(Q, N) mask of the bins each user fills against the noise floor alone.

    Classical waterfilling against silent interferers; the bins it leaves
    empty estimate the never-used set. The estimate is a heuristic
    under-cover of the true never-used set: interference elsewhere can raise
    the water level and re-activate a bin, so pass full_bin_sets(ch) to
    build_Smax for the most conservative condition check.
    """
    check_dims(ch, cfg)
    return fill_powers(ch.sigma2, cfg.P, cfg.pmax)[0] > 0.0


def full_bin_sets(ch: ChannelSet) -> np.ndarray:
    """Every bin for every user; the loosest valid mask for build_Smax."""
    return np.ones((ch.Q, ch.N), dtype=bool)


def spectral_radius(M) -> float:
    """Spectral radius of a nonnegative matrix: the largest eigenvalue modulus."""
    M = np.asarray(M, dtype=float)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise StructuralError("matrix must be square")
    if not np.all(np.isfinite(M)) or np.any(M < 0):
        raise DomainError("matrix must be nonnegative and finite")
    return float(np.max(np.abs(np.linalg.eigvals(M))))


def contraction_modulus(Smax, E) -> float:
    """Max-row-sum norm of Smax + E: max_q sum_r M_qr."""
    Smax, E = np.asarray(Smax, dtype=float), np.asarray(E, dtype=float)
    if Smax.ndim != 2 or Smax.shape[0] != Smax.shape[1] or E.shape != Smax.shape:
        raise StructuralError("Smax and E must be square matrices of one shape")
    M = np.abs(Smax + E)
    if not np.all(np.isfinite(M)):
        raise DomainError("Smax and E must be finite")
    # a product with ones, not .sum(axis=1): the two differ in the last bit
    return float(np.max(M @ np.ones(M.shape[0])))


def build_report(ch: ChannelSet, cfg: GameConfig, bin_sets=None) -> ConditionReport:
    """Assemble E and S^max, their radii, the verdict and the contraction modulus.

    bin_sets, a (Q, N) mask, defaults to default_bin_sets(ch, cfg); pass
    full_bin_sets(ch) for the most conservative check.
    """
    check_dims(ch, cfg)
    if bin_sets is None:
        bin_sets = default_bin_sets(ch, cfg)
    E = build_E(cfg)
    Smax = build_Smax(ch, bin_sets)
    rho_E = spectral_radius(E)
    rho_S = spectral_radius(Smax)
    eps = cfg.eps
    margin = None
    if np.all(eps == eps[0]):
        margin = float(1.0 - eps[0] * (cfg.Q - 1) - rho_S)
    return ConditionReport(
        E=E,
        Smax=Smax,
        rho_E=float(rho_E),
        rho_Smax=float(rho_S),
        uniqueness_holds=bool(rho_S < 1.0 - rho_E),
        uniform_eps_margin=margin,
        contraction_modulus=contraction_modulus(Smax, E),
    )


def empirical_contraction_check(
    ch: ChannelSet, cfg: GameConfig, trials: int, seed: int
) -> float:
    """Worst observed block-norm ratio of the waterfilling map over random pairs.

    Samples pairs of feasible profiles and measures
    ||WF(p1) - WF(p2)|| / ||p1 - p2|| in the block-maximum norm.
    The ratio never exceeds the contraction modulus taken over all bins.
    """
    check_dims(ch, cfg)
    if not (is_int(trials) and trials >= 1):
        raise DomainError("trials must be an integer >= 1")
    if not (is_int(seed) and seed >= 0):
        raise DomainError("seed must be an integer >= 0")
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(trials):
        p1 = random_feasible_profile(cfg, rng).p
        p2 = random_feasible_profile(cfg, rng).p
        den = block_norm(p1 - p2)
        if den == 0.0:
            continue
        wf1, _ = best_responses(ch, cfg, p1)
        wf2, _ = best_responses(ch, cfg, p2)
        worst = max(worst, block_norm(wf1 - wf2) / den)
    return worst


def report_to_text(report: ConditionReport) -> str:
    """Flat key-value block, one entry per line."""
    Q = report.E.shape[0]
    entries = [
        ("Q", Q),
        ("rho_E", report.rho_E),
        ("rho_Smax", report.rho_Smax),
        ("uniqueness_holds", report.uniqueness_holds),
        ("uniqueness_margin", 1.0 - report.rho_E - report.rho_Smax),
    ]
    if report.uniform_eps_margin is not None:
        entries.append(("uniform_eps_margin", report.uniform_eps_margin))
    entries.append(("contraction_modulus", report.contraction_modulus))
    entries += [(f"w[{q + 1}]", 1.0) for q in range(Q)]  # the modulus's unit weights
    for name in ("E", "Smax"):
        M = getattr(report, name)
        entries += [(f"{name}[{q + 1},{r + 1}]", M[q, r])
                    for q in range(Q) for r in range(Q) if r != q]
    return "".join(f"{key} {format_value(value)}\n" for key, value in entries)
