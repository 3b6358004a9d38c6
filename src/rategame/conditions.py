"""Uniqueness/convergence condition matrices and contraction diagnostics.

The robust game has a unique equilibrium, to which every waterfilling
schedule converges, whenever rho(S^max) < 1 - rho(E): S^max is the
worst-case cross-coupling over the bins two users can share and E carries
the uncertainty bounds (Scutari, Palomar & Barbarossa, IEEE Trans. IT
54(7), 2008). Entry (q, r) of either matrix is the influence of user r on
user q. Spectral radii and the Perron direction come from LAPACK
(numpy.linalg.eigvals / eig); the empirical check measures the contraction
of the same best-response map the solver iterates.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import ChannelSet, DomainError, GameConfig, StructuralError, check_dims
from .waterfill import best_responses, random_feasible_profile, waterfill_powers


@dataclass(frozen=True)
class ConditionReport:
    """Condition matrices, their spectral radii and the contraction modulus."""

    E: np.ndarray
    Smax: np.ndarray
    rho_E: float
    rho_Smax: float
    uniqueness_holds: bool       # rho(Smax) < 1 - rho(E), strict
    uniform_eps_margin: float    # 1 - eps(Q-1) - rho(Smax); None unless eps uniform
    contraction_modulus: float   # weighted max-row-sum norm of Smax + E
    weights: np.ndarray


def build_E(cfg: GameConfig) -> np.ndarray:
    """Q x Q matrix with eps_q on row q off the diagonal, zeros elsewhere."""
    Q = cfg.Q
    E = np.tile(cfg.eps[:, None], (1, Q))
    E[np.arange(Q), np.arange(Q)] = 0.0
    return E


def build_Smax(ch: ChannelSet, bin_sets) -> np.ndarray:
    """Entry (q, r): max of F_rq(k) over bins usable by both q and r.

    bin_sets is one index collection per user; an empty intersection gives 0.
    """
    Q = ch.Q
    masks = []
    for q in range(Q):
        m = np.zeros(ch.N, dtype=bool)
        m[np.asarray(list(bin_sets[q]), dtype=int)] = True
        masks.append(m)
    S = np.zeros((Q, Q))
    for q in range(Q):
        for r in range(Q):
            if r == q:
                continue
            both = masks[q] & masks[r]
            if both.any():
                S[q, r] = ch.F[r, q, both].max()
    return S


def estimate_never_used_set(ch: ChannelSet, cfg: GameConfig, q: int) -> np.ndarray:
    """Bins user q leaves empty even against silent interferers.

    Classical waterfilling against the noise floor alone; bins allocated zero
    there are reported. This is a heuristic under-cover of the true
    never-used set: interference elsewhere can raise the water level and
    re-activate a bin, so pass the full bin set to build_Smax for the most
    conservative condition check.
    """
    check_dims(ch, cfg)
    powers, _ = waterfill_powers(ch.sigma2[q], cfg.P[q], cfg.pmax[q])
    return np.flatnonzero(powers <= 0.0)


def default_bin_sets(ch: ChannelSet, cfg: GameConfig):
    """Complement of the never-used estimate, per user."""
    full = np.arange(ch.N)
    return [
        np.setdiff1d(full, estimate_never_used_set(ch, cfg, q))
        for q in range(ch.Q)
    ]


def full_bin_sets(ch: ChannelSet):
    """Every bin for every user; the loosest valid choice for build_Smax."""
    return [np.arange(ch.N) for _ in range(ch.Q)]


def spectral_radius(M) -> float:
    """Spectral radius of a nonnegative matrix: the largest eigenvalue modulus."""
    M = np.asarray(M, dtype=float)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise StructuralError("matrix must be square")
    if not np.all(np.isfinite(M)) or np.any(M < 0):
        raise DomainError("matrix must be nonnegative and finite")
    return float(np.max(np.abs(np.linalg.eigvals(M))))


def contraction_modulus(Smax, E, w) -> float:
    """Weighted max-row-sum norm of Smax + E: max_q (1/w_q) sum_r M_qr w_r."""
    w = np.asarray(w, dtype=float)
    if np.any(w <= 0):
        raise DomainError("weights must be positive")
    M = np.abs(np.asarray(Smax, dtype=float) + np.asarray(E, dtype=float))
    return float(np.max((M @ w) / w))


def perron_weights(M) -> np.ndarray:
    """Positive right eigenvector of a nonnegative matrix (Perron direction).

    Taken from the eigenvalue with the largest real part, which is the Perron
    root, and scaled to a largest entry of 1; returns the all-ones vector when
    the matrix is reducible enough to yield zero entries.
    """
    vals, vecs = np.linalg.eig(np.asarray(M, dtype=float))
    v = vecs[:, np.argmax(vals.real)].real
    v = v / v[np.argmax(np.abs(v))]
    if np.any(v <= 1e-12):
        return np.ones(v.shape[0])
    return v


def build_report(
    ch: ChannelSet, cfg: GameConfig, bin_sets=None, weights=None
) -> ConditionReport:
    """Assemble E and S^max, their radii, the verdict and the contraction modulus.

    bin_sets defaults to the never-used-set complements; pass full_bin_sets(ch)
    for the most conservative check. weights may be a positive vector or
    "perron" for the Perron direction of Smax + E; default all ones.
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
    if weights is None:
        w = np.ones(cfg.Q)
    elif isinstance(weights, str):
        if weights != "perron":
            raise DomainError(f"unknown weighting {weights!r}")
        w = perron_weights(Smax + E)
    else:
        w = np.asarray(weights, dtype=float)
    return ConditionReport(
        E=E,
        Smax=Smax,
        rho_E=float(rho_E),
        rho_Smax=float(rho_S),
        uniqueness_holds=bool(rho_S < 1.0 - rho_E),
        uniform_eps_margin=margin,
        contraction_modulus=contraction_modulus(Smax, E, w),
        weights=w,
    )


def block_norm(mat, w) -> float:
    """Weighted block-maximum norm: max_q ||row q||_2 / w_q."""
    return float(np.max(np.linalg.norm(mat, axis=1) / w))


def empirical_contraction_check(
    ch: ChannelSet, cfg: GameConfig, trials: int, seed: int, w=None
) -> float:
    """Worst observed block-norm ratio of the waterfilling map over random pairs.

    Samples pairs of feasible profiles and measures
    ||WF(p1) - WF(p2)|| / ||p1 - p2|| in the weighted block-maximum norm.
    The ratio never exceeds the contraction modulus taken over all bins.
    """
    check_dims(ch, cfg)
    if w is None:
        w = np.ones(cfg.Q)
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(trials):
        p1 = random_feasible_profile(cfg, rng).p
        p2 = random_feasible_profile(cfg, rng).p
        den = block_norm(p1 - p2, w)
        if den == 0.0:
            continue
        wf1, _ = best_responses(ch, cfg, p1)
        wf2, _ = best_responses(ch, cfg, p2)
        worst = max(worst, block_norm(wf1 - wf2, w) / den)
    return worst


def report_to_text(report: ConditionReport) -> str:
    """Flat key-value block, one entry per line."""
    lines = [
        f"Q {report.E.shape[0]}",
        f"rho_E {report.rho_E:.17g}",
        f"rho_Smax {report.rho_Smax:.17g}",
        f"uniqueness_holds {'true' if report.uniqueness_holds else 'false'}",
        f"uniqueness_margin {1.0 - report.rho_E - report.rho_Smax:.17g}",
    ]
    if report.uniform_eps_margin is not None:
        lines.append(f"uniform_eps_margin {report.uniform_eps_margin:.17g}")
    lines.append(f"contraction_modulus {report.contraction_modulus:.17g}")
    Q = report.E.shape[0]
    for q in range(Q):
        lines.append(f"w[{q + 1}] {report.weights[q]:.17g}")
    for q in range(Q):
        for r in range(Q):
            if r != q:
                lines.append(f"E[{q + 1},{r + 1}] {report.E[q, r]:.17g}")
    for q in range(Q):
        for r in range(Q):
            if r != q:
                lines.append(f"Smax[{q + 1},{r + 1}] {report.Smax[q, r]:.17g}")
    return "\n".join(lines) + "\n"
