"""Output checks that share no code with rategame's water-level search.

Every solve is checked for feasibility against the masks and the budget.
A converged solve is also checked against the KKT form of the robust best
response, p_q = clip(mu_q - Phi_q(p), 0, pmax_q), with Phi recomputed here
and mu found by interval bisection. Sum rates are recomputed from the
profile. Each check returns a list of problems; an empty list is a pass.
"""

from __future__ import annotations

import numpy as np

MASK_ATOL = 1e-12       # p <= pmax + MASK_ATOL
BUDGET_RTOL = 1e-9      # |sum_k p_q(k) - P_q| <= BUDGET_RTOL * P_q
KKT_ATOL = 1e-6         # max |p - clip(mu - Phi, 0, pmax)|; solve confirms 1e-7
SUM_RATE_RTOL = 1e-9
OCCUPANCY_FACTOR = 1e-6  # the occupancy threshold the package documents


def phi(F, sigma2, eps, p):
    """Worst-case noise-plus-interference level of every user, shape (Q, N)."""
    Q = p.shape[0]
    out = np.empty_like(p)
    for q in range(Q):
        others = [r for r in range(Q) if r != q]
        nominal = sigma2[q] + (F[others, q, :] * p[others]).sum(axis=0)
        out[q] = nominal + eps[q] * np.sqrt((p[others] ** 2).sum(axis=0))
    return out


def bisect_water_levels(levels, P, pmax, iters=200):
    """Per-row mu with sum_k clip(mu - levels, 0, pmax) = P, by bisection."""
    lo = levels.min(axis=1)
    hi = (levels + pmax).max(axis=1)
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        short = np.clip(mid[:, None] - levels, 0.0, pmax).sum(axis=1) < P
        new_lo = np.where(short, mid, lo)
        new_hi = np.where(short, hi, mid)
        if np.array_equal(new_lo, lo) and np.array_equal(new_hi, hi):
            break
        lo, hi = new_lo, new_hi
    return hi


def check_solve(F, sigma2, P, pmax, eps, p, converged):
    """Feasibility of p, and the KKT form when the solve reports convergence."""
    problems = []
    if not np.all(np.isfinite(p)):
        return ["non-finite powers"]
    if np.any(p < 0):
        problems.append("negative power")
    if np.any(p > pmax + MASK_ATOL):
        problems.append(f"mask exceeded by {np.max(p - pmax):.3e}")
    gap = np.abs(p.sum(axis=1) - P)
    if np.any(gap > BUDGET_RTOL * P):
        problems.append(f"budget off by {gap.max():.3e}")
    if converged:
        levels = phi(F, sigma2, eps, p)
        mu = bisect_water_levels(levels, P, pmax)
        kkt = np.abs(p - np.clip(mu[:, None] - levels, 0.0, pmax)).max()
        if not kkt <= KKT_ATOL:
            problems.append(f"KKT residual {kkt:.3e} > {KKT_ATOL:g}")
    return problems


def sum_rate(F, sigma2, p):
    """Nominal sum rate in nats, recomputed from the channel arrays."""
    levels = phi(F, sigma2, np.zeros(p.shape[0]), p)
    return float(np.log1p(p / levels).sum())


def check_sum_rate(reported, F, sigma2, p):
    expected = sum_rate(F, sigma2, p)
    if not abs(reported - expected) <= SUM_RATE_RTOL * max(abs(expected), 1.0):
        return [f"sum_rate {reported!r} != recomputed {expected!r}"]
    return []


def occupancy(p, P):
    return (p > OCCUPANCY_FACTOR * P[:, None]).sum(axis=1)
