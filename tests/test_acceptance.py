"""Acceptance suite: every release criterion at its stated tolerance.

Each test prints one PASS/FAIL line (run pytest -s to see them inline). The
random instance families used for the statistical criteria are documented
next to the tests that draw them.
"""

import time
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from rategame import (
    ChannelSet,
    GameConfig,
    PowerProfile,
    Schedule,
    SolverOptions,
    alpha_crit,
    antisym_channels,
    antisym_config,
    antisym_profile,
    build_report,
    classify_frequency_sets,
    default_initial_profile,
    dense_overlap_solve,
    empirical_contraction_check,
    fixed_point_residual,
    full_bin_sets,
    interior_dp_deps,
    interior_p,
    occupied_bins,
    partition_derivative,
    price_of_anarchy,
    random_feasible_profile,
    social_optimum_bruteforce,
    solve,
    split_sum_rate,
    split_sum_rate_slope,
    sum_rate,
    user_rate,
)
from rategame import experiment
from rategame.cli import main
from rategame.experiment import (
    KINDS,
    ChannelGenSpec,
    UncertaintySpec,
    generate_channels,
    perturb_channels,
    run_trials,
)
from rategame.twouser import AntiSymSystem, RegimeError, reconstruct_powers

from conftest import adversarial_channels, classical_best_response, classical_iwf, random_instance


def report(name, ok, detail=""):
    print(f"[acceptance] {name}: {'PASS' if ok else 'FAIL'} {detail}")
    assert ok, f"{name} failed {detail}"


def draw_condition_passing(rng, Q, N, eps=0.02, strength=0.8):
    """Instance guaranteed to satisfy the uniqueness condition (certified
    with the full bin sets, the most conservative choice)."""
    while True:
        ch, cfg = random_instance(rng, Q, N, strength=strength, eps=eps)
        if build_report(ch, cfg, bin_sets=full_bin_sets(ch)).uniqueness_holds:
            return ch, cfg


def test_c01_fixed_point_residual():
    rng = np.random.default_rng(101)
    start = time.time()
    worst = 0.0
    sizes = [(Q, N) for Q in (2, 3, 4) for N in (4, 8, 16)]
    for i in range(100):
        Q, N = sizes[i % len(sizes)]
        ch, cfg = draw_condition_passing(rng, Q, N)
        res = solve(ch, cfg, default_initial_profile(ch, cfg),
                    Schedule(kind="gauss_seidel"), SolverOptions(tol=1e-10))
        assert res.converged
        worst = max(worst, fixed_point_residual(ch, cfg, res.profile))
    elapsed = time.time() - start
    report(
        "C1 fixed-point residual <= 1e-8 on 100 instances",
        worst <= 1e-8 and elapsed < 60,
        f"(worst {worst:.2e}, {elapsed:.1f}s)",
    )


def test_c02_uniqueness_across_schedules_and_initials():
    rng = np.random.default_rng(202)
    schedules = [
        Schedule(kind="jacobi"),
        Schedule(kind="gauss_seidel"),
        Schedule(kind="random_async", seed=7, update_probability=0.6, max_staleness=2),
    ]
    sizes = [(Q, N) for Q in (2, 3, 4) for N in (4, 8, 16)]
    worst_spread = 0.0
    for i in range(20):
        Q, N = sizes[i % len(sizes)]
        ch, cfg = draw_condition_passing(rng, Q, N, eps=0.03, strength=0.7)
        profiles = []
        for _ in range(10):
            initial = random_feasible_profile(cfg, rng)
            for schedule in schedules:
                res = solve(ch, cfg, initial, schedule, SolverOptions(tol=1e-11))
                assert res.converged
                profiles.append(res.profile.p)
        base = profiles[0]
        spread = max(float(np.abs(p - base).max()) for p in profiles[1:])
        worst_spread = max(worst_spread, spread)
    report(
        "C2 unique equilibrium across 10 initials x 3 schedules on 20 instances",
        worst_spread <= 1e-6,
        f"(worst spread {worst_spread:.2e})",
    )


def test_c03_classical_reduction_at_zero_uncertainty():
    rng = np.random.default_rng(303)
    worst = 0.0
    for i in range(50):
        Q = int(rng.integers(2, 5))
        N = int(rng.integers(2, 13))
        ch, cfg = draw_condition_passing(rng, Q, N, eps=0.0, strength=0.5)
        res = solve(ch, cfg, default_initial_profile(ch, cfg),
                    Schedule(kind="gauss_seidel"), SolverOptions(tol=1e-13))
        assert res.converged
        oracle = classical_iwf(ch.F, ch.sigma2, cfg.P, cfg.pmax, tol=1e-13)
        worst = max(worst, float(np.abs(res.profile.p - oracle).max()))
    report(
        "C3 zero-uncertainty equilibria match the independent classical waterfiller",
        worst <= 1e-10,
        f"(worst {worst:.2e})",
    )


def test_c04_interior_closed_form_and_sensitivity():
    checked = 0
    worst_p = 0.0
    worst_d = 0.0
    h = 1e-5

    def split_expression(alpha, m, eps):
        # raw interior-split formula; analytic in eps, so the central
        # difference is valid on both sides of eps = 0
        return (1.0 - alpha - eps) / (2.0 * (1.0 - (m + 1.0) * alpha / 2.0 - eps))

    for alpha in (0.1, 0.2, 0.3):
        for m in (1.5, 2.0, 3.0):
            for eps in (0.0, 0.05, 0.1):
                sys = AntiSymSystem(alpha=alpha, m=m, sigma2=0.1, eps=eps)
                try:
                    p_closed = interior_p(sys)
                except RegimeError:
                    continue
                ch, cfg = antisym_channels(sys), antisym_config(sys)
                res = solve(ch, cfg, default_initial_profile(ch, cfg),
                            Schedule(kind="jacobi"), SolverOptions(tol=1e-12))
                assert res.converged
                worst_p = max(worst_p, abs(res.profile.p[0, 0] - p_closed))
                fd = (
                    split_expression(alpha, m, eps + h)
                    - split_expression(alpha, m, eps - h)
                ) / (2 * h)
                analytic = interior_dp_deps(sys)
                worst_d = max(worst_d, abs(analytic - fd) / abs(fd))
                checked += 1
    report(
        "C4 interior split matches solver and sensitivity matches differences",
        checked >= 20 and worst_p <= 1e-8 and worst_d <= 1e-6,
        f"({checked} interior points, worst dp {worst_p:.2e}, worst rel {worst_d:.2e})",
    )


def test_c05_critical_interference_flat_sum_rate_and_unit_poa():
    worst_range = 0.0
    worst_poa = 0.0
    for m in (1.5, 2.0, 3.0):
        for s2 in (0.1, 1.0):
            ac = alpha_crit(m, s2)
            values = []
            for eps in np.linspace(0.0, 0.1, 5):
                sys = AntiSymSystem(alpha=ac, m=m, sigma2=s2, eps=eps)
                values.append(split_sum_rate(sys, interior_p(sys)))
            sys0 = AntiSymSystem(alpha=ac, m=m, sigma2=s2, eps=0.0)
            ch = antisym_channels(sys0)
            for p in np.arange(0.55, 0.951, 0.05):
                values.append(sum_rate(ch, antisym_profile(float(p))))
            worst_range = max(worst_range, max(values) - min(values))

            cfg = antisym_config(sys0)
            res = solve(ch, cfg, default_initial_profile(ch, cfg),
                        Schedule(kind="jacobi"), SolverOptions(tol=1e-12))
            s_rob = sum_rate(ch, res.profile)
            for steps in (50, 100, 200, 400):
                s_opt, _ = social_optimum_bruteforce(ch, cfg, grid_resolution=1.0 / steps)
                poa = price_of_anarchy(s_opt, s_rob)
                if abs(poa - 1.0) <= 1e-6:
                    break
            worst_poa = max(worst_poa, abs(poa - 1.0))
    report(
        "C5 sum-rate flat at critical interference and price of anarchy is one",
        worst_range < 1e-8 and worst_poa <= 1e-6,
        f"(worst range {worst_range:.2e}, worst |PoA-1| {worst_poa:.2e})",
    )


def test_c06_uncertainty_trends_high_and_low_interference():
    high = [
        split_sum_rate(s, interior_p(s))
        for s in (AntiSymSystem(alpha=0.4, m=2.0, sigma2=1e-3, eps=e)
                  for e in np.linspace(0.0, 0.16, 5))
    ]
    low = [
        split_sum_rate(s, interior_p(s))
        for s in (AntiSymSystem(alpha=0.01, m=2.0, sigma2=10.0, eps=e)
                  for e in np.linspace(0.0, 0.25, 6))
    ]
    increasing = all(b > a for a, b in zip(high, high[1:]))
    decreasing = all(b < a for a, b in zip(low, low[1:]))
    report(
        "C6 sum-rate rises with uncertainty under high interference, falls under low",
        increasing and decreasing,
        f"(high diffs {np.diff(high).min():.2e}, low diffs {np.diff(low).max():.2e})",
    )


# C4-C6 fix their systems; this draws interior anti-symmetric systems from
# the whole regime: m in [1.05, 6], sigma2 in [1e-3, 10], alpha in
# [0.005, 0.6], eps in [0, 0.3], keeping those whose split is interior.
@settings(derandomize=True, deadline=None, max_examples=1000)
@given(
    m=st.floats(1.05, 6.0),
    sigma2=st.floats(1e-3, 10.0),
    alpha=st.floats(0.005, 0.6),
    eps=st.floats(0.0, 0.3),
    solve_it=st.integers(0, 9),
)
def test_two_user_claims_across_interior_regime(m, sigma2, alpha, eps, solve_it):
    sys = AntiSymSystem(alpha=alpha, m=m, sigma2=sigma2, eps=eps)
    try:
        p = interior_p(sys)
    except RegimeError:
        assume(False)
    dp_deps = interior_dp_deps(sys)
    # uncertainty pushes the split toward FDMA whenever the channel is not symmetric
    assert dp_deps > 0
    # the sum rate rises with eps exactly above the critical interference level
    dsum_deps = split_sum_rate_slope(alpha, m, sigma2, p) * dp_deps
    assert np.sign(dsum_deps) == np.sign(alpha - alpha_crit(m, sigma2))
    if solve_it == 0:  # the solver on a subset: about one example in ten
        ch, cfg = antisym_channels(sys), antisym_config(sys)
        res = solve(ch, cfg, default_initial_profile(ch, cfg),
                    Schedule(kind="jacobi"), SolverOptions(tol=1e-12))
        assert res.converged
        assert abs(res.profile.p[0, 0] - p) <= 1e-8


def _flat_noise_instance(rng, N, eps):
    F = np.zeros((2, 2, N))
    F[1, 0, :] = rng.uniform(0.05, 0.85, N)
    F[0, 1, :] = rng.uniform(0.05, 0.85, N)
    ch = ChannelSet(F=F, sigma2=np.full((2, N), 0.5))
    cfg = GameConfig(P=[1.0, 1.0], pmax=np.full((2, N), 1.0), eps=[eps, eps])
    return ch, cfg


def test_c07_partition_derivative_against_finite_differences():
    rng = np.random.default_rng(707)
    tight = SolverOptions(tol=1e-13, max_iters=200_000)
    h = 1e-5
    checked = 0
    worst_rel = 0.0
    worst_dense = 0.0
    attempts = 0
    while checked < 20 and attempts < 60:
        attempts += 1
        N = 8 if checked % 2 == 0 else 32
        ch, cfg = _flat_noise_instance(rng, N, eps=0.1)
        res = solve(ch, cfg, default_initial_profile(ch, cfg), Schedule(kind="jacobi"), tight)
        assert res.converged
        sys = classify_frequency_sets(ch, cfg, res.profile)
        dJ, _ = partition_derivative(sys, ch)

        dense_p, dense_mu = dense_overlap_solve(sys)
        worst_dense = max(
            worst_dense,
            float(np.abs(dense_p - reconstruct_powers(sys)).max()),
            abs(dense_mu[0] - sys.offsets[0]),
            abs(dense_mu[1] - sys.offsets[1]),
        )

        J = {}
        same = True
        for sgn in (1, -1):
            cfg2 = GameConfig(P=cfg.P, pmax=cfg.pmax, eps=cfg.eps + sgn * h)
            r2 = solve(ch, cfg2, default_initial_profile(ch, cfg2), Schedule(kind="jacobi"), tight)
            s2 = classify_frequency_sets(ch, cfg2, r2.profile)
            if not (np.array_equal(s2.d_ol, sys.d_ol) and np.array_equal(s2.d1, sys.d1)
                    and np.array_equal(s2.d2, sys.d2)):
                same = False
                break
            J[sgn] = -(r2.profile.p[0] * r2.profile.p[1])
        if not same:
            continue  # too close to a partition boundary for the comparison
        fd = (J[1] - J[-1]) / (2 * h)
        scale = np.maximum(np.maximum(np.abs(dJ), np.abs(fd)), 1e-12)
        worst_rel = max(worst_rel, float((np.abs(dJ - fd) / scale)[sys.d_ol].max()))
        checked += 1
    report(
        "C7 analytic partition derivative matches finite differences and dense solve",
        checked >= 20 and worst_rel <= 1e-4 and worst_dense <= 1e-10,
        f"({checked} instances, worst rel {worst_rel:.2e}, worst dense {worst_dense:.2e})",
    )


def _sparse_overlap_instance(rng, N, eps=0.05, n_shared=16):
    """Uniqueness-passing family in the sparse-overlap regime of the
    asymptotic partitioning result: user 1 is decisively repelled from most
    bins (one-sided incoming interference far above the repulsion threshold,
    which sits near 8 for this geometry) while both users couple weakly on a
    small shared set, so the overlap stays o(N) with a stable partition."""
    F = np.zeros((2, 2, N))
    shared = rng.choice(N, size=n_shared, replace=False)
    strong = np.setdiff1d(np.arange(N), shared)
    F[1, 0, strong] = rng.uniform(12.0, 16.0, strong.size)
    F[1, 0, shared] = rng.uniform(0.0, 0.04, shared.size)
    F[0, 1, :] = rng.uniform(0.0, 0.04, N)
    ch = ChannelSet(F=F, sigma2=np.full((2, N), 0.5))
    cfg = GameConfig(P=[1.0, 1.0], pmax=np.full((2, N), 1.0), eps=[eps, eps])
    return ch, cfg


def test_c08_partitioning_never_loosens_at_large_n():
    rng = np.random.default_rng(808)
    tight = SolverOptions(tol=1e-12, max_iters=200_000)
    worst_unflagged = 0.0
    for _ in range(50):
        ch, cfg = _sparse_overlap_instance(rng, 128)
        assert build_report(ch, cfg, bin_sets=full_bin_sets(ch)).uniqueness_holds
        res = solve(ch, cfg, default_initial_profile(ch, cfg), Schedule(kind="jacobi"), tight)
        assert res.converged
        sys = classify_frequency_sets(ch, cfg, res.profile)
        dJ, flags = partition_derivative(sys, ch)
        violating = dJ < -1e-6
        unflagged = violating & ~flags
        if unflagged.any():
            worst_unflagged = min(worst_unflagged, float(dJ[unflagged].min()))
    report(
        "C8 partition derivative >= -1e-6 at N=128 (violations only at flagged bins)",
        worst_unflagged == 0.0,
        f"(worst unflagged {worst_unflagged:.2e})",
    )


def test_c09_contraction_bound_never_exceeded():
    rng = np.random.default_rng(909)
    worst_gap = -np.inf
    for i in range(10):
        Q = int(rng.integers(2, 5))
        N = int(rng.integers(3, 9))
        ch, cfg = random_instance(rng, Q, N, strength=rng.uniform(0.3, 0.9), eps=0.1)
        modulus = build_report(ch, cfg, bin_sets=full_bin_sets(ch)).contraction_modulus
        ratio = empirical_contraction_check(ch, cfg, trials=1000, seed=1000 + i)
        worst_gap = max(worst_gap, ratio - modulus)
    report(
        "C9 empirical contraction ratio within the modulus on 10x1000 pairs",
        worst_gap <= 1e-9,
        f"(worst ratio - modulus {worst_gap:.2e})",
    )


def test_c10_uncertainty_radius_and_check_exit(tmp_path):
    worst = 0.0
    from rategame import build_E, spectral_radius

    for Q in range(2, 9):
        for eps in (0.01, 0.1, 0.3):
            cfg = GameConfig(
                P=np.ones(Q), pmax=np.full((Q, 2), 1.0), eps=np.full(Q, eps)
            )
            worst = max(worst, abs(spectral_radius(build_E(cfg)) - eps * (Q - 1)))
    exits_ok = True
    for Q, eps in [(3, 0.6), (5, 0.25), (2, 1.0), (8, 0.15)]:
        path = tmp_path / f"check_{Q}_{eps}.cfg"
        path.write_text(
            f"[channels]\nQ {Q}\nN 2\nsigma2 * * 1.0\n[game]\neps * {eps}\n"
        )
        code = main(["check", str(path)])
        if eps * (Q - 1) >= 1.0:
            exits_ok = exits_ok and code == 3
        else:
            exits_ok = exits_ok and code in (0, 3)
    report(
        "C10 uncertainty-matrix radius exact and check exits 3 past the bound",
        worst <= 1e-12 and exits_ok,
        f"(worst radius error {worst:.2e})",
    )


def _fmt(values, digits):
    return "[" + ", ".join(f"{v:.{digits}f}" for v in values) + "]"


# C11 iteration family: 200 paired trials of random_instance games whose cross
# row sums stay below 0.4, where the convergence condition holds with margin
# at every delta of the sweep (smallest 1 - rho(E) - rho(Smax) about 0.28).
C11_ITER_TRIALS = 200
C11_ITER_STRENGTH = 0.4


def _condition_passing_iterations(deltas, schedule, opts):
    """Mean robust rounds per delta on games covered by the convergence result.

    True channels come from `random_instance` (Q=3, N=16, cross row sums
    below C11_ITER_STRENGTH) instead of Rayleigh fading, and are perturbed by
    the Monte-Carlo uncertainty model (`perturb_channels`). Each trial reuses one
    channel draw and one error draw at every delta (paired trials). Every
    robust game is certified with the full bin sets, the most conservative
    check, so the contraction-based rate bound applies to each solve.
    """
    rng = np.random.default_rng(2024)
    rounds = {d: [] for d in deltas}
    for trial in range(C11_ITER_TRIALS):
        true_ch, cfg0 = random_instance(rng, 3, 16, strength=C11_ITER_STRENGTH)
        u_seed = np.random.SeedSequence([2025, trial])
        for d in deltas:
            nominal, eps = perturb_channels(true_ch, UncertaintySpec(delta=d, seed=u_seed))
            cfg = GameConfig(P=cfg0.P, pmax=cfg0.pmax, eps=eps)
            assert build_report(nominal, cfg, bin_sets=full_bin_sets(nominal)).uniqueness_holds
            res = solve(nominal, cfg, default_initial_profile(nominal, cfg), schedule, opts)
            assert res.converged
            rounds[d].append(res.iterations)
    return [float(np.mean(rounds[d])) for d in deltas]


# C11's Rayleigh sweep: Q=3, N=16, 500 trials, each solved at every delta.
# C11 reads every trial and C13 trials 0-99. `_spawn_seed` makes trial t's
# games independent of the trial count, so those are the games a 100-trial
# sweep would solve.
C11_GEN = ChannelGenSpec(Q=3, N=16, seed=2024)
C11_DELTAS = [0.0, 0.2, 0.4, 0.6]
C11_U_SEED = 2025
C11_SCHEDULE = Schedule(kind="gauss_seidel")
C11_OPTS = SolverOptions(tol=1e-8, max_iters=1000)


@pytest.fixture(scope="module")
def c11_sweep():
    """C11's sweep, run once for C11 and C13: ({delta: records}, wall seconds)."""
    start = time.time()
    per_width = run_trials(
        C11_GEN, [UncertaintySpec(delta=d, seed=C11_U_SEED) for d in C11_DELTAS],
        schedule=C11_SCHEDULE, opts=C11_OPTS, trials=500,
    )
    return dict(zip(C11_DELTAS, per_width)), time.time() - start


@pytest.mark.slow
def test_c11_monte_carlo_trends(c11_sweep):
    """Robust vs nominal sum-rate and occupancy on Rayleigh fading; the
    iteration trend on games where the convergence condition holds.

    Every solve starts from the uniform profile (`default_initial_profile`),
    and the trends are those of the equilibria it reaches. The Rayleigh robust
    games fail the sufficient uniqueness/convergence condition on every draw
    (their contraction modulus is far above 1), so they can have many
    equilibria and no rate is promised there: they split into FDMA within a
    few rounds, and a short tail of long solves drives the mean round count.
    The iteration criterion therefore runs on condition-passing games under
    the same uncertainty model, schedule and solver options; the detail line
    prints the Rayleigh round statistics beside it. The elapsed time counts
    the sweep's own.
    """
    start = time.time()
    per_delta, sweep_s = c11_sweep
    deltas = C11_DELTAS
    # paired comparison per delta over that delta's included trials
    t_stats = {}
    for d in deltas[1:]:
        recs = per_delta[d]
        rob = {r.trial: r.sum_rate_true for r in recs if r.kind == "robust" and r.included}
        nom = {r.trial: r.sum_rate_true for r in recs if r.kind == "nominal" and r.included}
        diff = np.array([rob[t] - nom[t] for t in sorted(rob)])
        t_stats[d] = float(diff.mean() / (diff.std(ddof=1) / np.sqrt(diff.size)))
    sum_rate_ok = all(t > 2.0 for t in t_stats.values())

    # occupancy trend, and the Rayleigh round statistics, on the trials
    # included at every delta
    common = set.intersection(
        *({r.trial for r in per_delta[d] if r.included} for d in deltas)
    )
    occupancy = []
    rayleigh_mean = []
    rayleigh_median = []
    rayleigh_long = []
    uniqueness_share = []
    for d in deltas:
        recs = [r for r in per_delta[d] if r.kind == "robust" and r.trial in common]
        rounds = np.array([r.iterations for r in recs])
        occupancy.append(float(np.mean([r.occupancy.mean() for r in recs])))
        rayleigh_mean.append(float(rounds.mean()))
        rayleigh_median.append(float(np.median(rounds)))
        rayleigh_long.append(int((rounds > 100).sum()))
        uniqueness_share.append(float(np.mean(
            [r.uniqueness_ok for r in per_delta[d] if r.kind == "robust"]
        )))
    occupancy_ok = all(b < a for a, b in zip(occupancy, occupancy[1:]))

    iterations = _condition_passing_iterations(deltas, C11_SCHEDULE, C11_OPTS)
    iterations_ok = all(b >= a for a, b in zip(iterations, iterations[1:]))
    elapsed = sweep_s + time.time() - start
    report(
        "C11 Monte-Carlo trends (robust vs nominal, occupancy, iterations)",
        sum_rate_ok and occupancy_ok and iterations_ok and elapsed < 600,
        f"(t {_fmt(sorted(t_stats.values()), 1)}, occ {_fmt(occupancy, 2)}, "
        f"iters on condition-passing games {_fmt(iterations, 2)}; "
        f"Rayleigh robust rounds mean {_fmt(rayleigh_mean, 2)}, "
        f"median {_fmt(rayleigh_median, 1)}, "
        f"solves over 100 rounds {rayleigh_long} of {len(common)}, "
        f"uniqueness_ok share {_fmt(uniqueness_share, 2)}; {elapsed:.0f}s)",
    )


@pytest.mark.slow
def test_c13_fdma_and_rate_floor(c11_sweep):
    """The paper's FDMA and robustness claims on trials 0-99 of C11's sweep.

    The equilibria are those the uniform start (`default_initial_profile`)
    reaches; these games fail the uniqueness condition and can have others.
    FDMA: the share of robust equilibria in which no bin is occupied by two
    users must be nondecreasing in delta and reach 1 at the largest delta.
    Rate floor: at every delta > 0, each robust user's rate on the true
    channels must be at least its worst-case rate on the nominal ones. Each
    rate is a sum of N log1p terms, so the floor allows a rounding gap of
    2 * N * machine eps * max(1, |worst-case rate|).
    """
    start = time.time()
    per_delta, _ = c11_sweep
    deltas = C11_DELTAS
    trials, Q, N = 100, C11_GEN.Q, C11_GEN.N
    P = experiment.default_game_config(Q, N).P

    def is_fdma(profile):
        return bool((occupied_bins(profile, P).sum(axis=0) <= 1).all())

    # each trial's channels and errors are rebuilt from the sweep's seeds; the
    # records' own true sum-rates prove the true channels are the right ones
    robust_fdma, nominal_fdma = [0] * len(deltas), [0] * len(deltas)
    least_slack, floor_ok = np.inf, True
    for t in range(trials):
        true_ch = generate_channels(
            replace(C11_GEN, seed=experiment._spawn_seed(C11_GEN.seed, t)))
        for w, d in enumerate(deltas):
            records = per_delta[d][3 * t:3 * t + 3]
            assert [(r.trial, r.kind) for r in records] == [(t, kind) for kind in KINDS]
            profiles = [PowerProfile(r.profile) for r in records]
            assert [sum_rate(true_ch, p) for p in profiles] == [r.sum_rate_true for r in records]
            robust, nominal, _ = profiles
            robust_fdma[w] += is_fdma(robust)
            nominal_fdma[w] += is_fdma(nominal)
            if d == 0:
                continue
            nominal_ch, eps = perturb_channels(true_ch, UncertaintySpec(
                delta=d, seed=experiment._spawn_seed(C11_U_SEED, t)))
            for q in range(Q):
                worst = user_rate(nominal_ch, robust, q, eps[q])
                slack = user_rate(true_ch, robust, q) - worst
                least_slack = min(least_slack, slack)
                floor_ok &= slack >= -2 * N * np.finfo(float).eps * max(1.0, abs(worst))
    fdma_ok = (all(b >= a for a, b in zip(robust_fdma, robust_fdma[1:]))
               and robust_fdma[-1] == trials)
    report(
        "C13 robust equilibria move to FDMA and keep their worst-case rate",
        fdma_ok and floor_ok,
        f"(robust FDMA {robust_fdma} of {trials}, nominal FDMA {nominal_fdma}; "
        f"least rate-floor slack {least_slack:.2g}; {time.time() - start:.0f}s)",
    )


@pytest.mark.slow
def test_c11_robust_equilibria_are_classical_on_their_adversarial_channels(c11_sweep):
    """The robust counterpart checked from outside, on trials 0-99 of C11's sweep.

    At a robust equilibrium each user's powers are the classical best
    response, by the bisection oracle, on its own worst-case channel in the
    uncertainty ball (conftest.adversarial_channels), for every converged
    robust solve at delta > 0. The bound, 10 * tol, is the solve's own
    residual bound.
    """
    start = time.time()
    per_delta, _ = c11_sweep
    trials, Q, N = 100, C11_GEN.Q, C11_GEN.N
    cfg = experiment.default_game_config(Q, N)
    bound = 10 * C11_OPTS.tol
    largest, rows, capped = 0.0, 0, 0
    for t in range(trials):
        true_ch = generate_channels(
            replace(C11_GEN, seed=experiment._spawn_seed(C11_GEN.seed, t)))
        for d in C11_DELTAS[1:]:
            robust = per_delta[d][3 * t]
            assert (robust.trial, robust.kind) == (t, "robust")
            if not robust.converged:
                capped += 1
                continue
            nominal_ch, eps = perturb_channels(true_ch, UncertaintySpec(
                delta=d, seed=experiment._spawn_seed(C11_U_SEED, t)))
            p = robust.profile
            for q in range(Q):
                F = adversarial_channels(nominal_ch.F, p, q, eps[q])
                classical = classical_best_response(F, nominal_ch.sigma2, p, q, cfg.P[q],
                                                    cfg.pmax[q])
                largest = max(largest, float(np.abs(p[q] - classical).max()))
                rows += 1
    report(
        "C11 robust equilibria are classical on their adversarial channels",
        largest <= bound and rows >= 0.9 * Q * trials * len(C11_DELTAS[1:]),
        f"(largest gap {largest:.2g} over {rows} user rows, bound {bound:.0e}; "
        f"{capped} capped solves skipped; {time.time() - start:.0f}s)",
    )


def test_c12_byte_identical_reruns(tmp_path, capsys):
    cfg_path = tmp_path / "game.cfg"
    cfg_path.write_text(
        "[channels]\nQ 2\nN 2\nF 2 1 1 0.2\nF 2 1 2 0.4\nF 1 2 1 0.4\nF 1 2 2 0.2\n"
        "sigma2 * * 0.1\n[game]\neps * 0.1\n[solver]\ntol 1e-12\n"
    )
    outputs = {}
    for tag in ("a", "b"):
        solve_csv = tmp_path / f"solve_{tag}.csv"
        traj_csv = tmp_path / f"traj_{tag}.csv"
        two_csv = tmp_path / f"two_{tag}.csv"
        exp_dir = tmp_path / f"exp_{tag}"
        assert main(["solve", str(cfg_path), "--out", str(solve_csv),
                     "--trajectory", str(traj_csv)]) == 0
        assert main(["check", str(cfg_path)]) == 0
        check_text = capsys.readouterr().out
        assert main(["two-user", "--sigma2", "0.1", "--alpha", "0.2", "--m", "2",
                     "--eps-grid", "0:0.1:0.05", "--out", str(two_csv)]) == 0
        assert main(["experiment", "--users", "2", "--freqs", "4",
                     "--delta-grid", "0:0.4:0.2", "--trials", "5", "--seed", "9",
                     "--out", str(exp_dir)]) == 0
        outputs[tag] = (
            solve_csv.read_bytes(), traj_csv.read_bytes(), check_text,
            two_csv.read_bytes(),
            (exp_dir / "trials.csv").read_bytes(),
            (exp_dir / "summary.csv").read_bytes(),
        )
    report("C12 reruns with identical seeds are byte-identical",
           outputs["a"] == outputs["b"])
