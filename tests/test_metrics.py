import itertools
import math
import re
import time

import numpy as np
import pytest

from rategame import (
    ChannelSet,
    DomainError,
    GameConfig,
    PowerProfile,
    StructuralError,
    UnsupportedArityError,
    classify_frequency_sets,
    fdma_condition_check,
    occupancy_counts,
    occupied_bins,
    partition_measure,
    price_of_anarchy,
    random_feasible_profile,
    social_optimum_bruteforce,
    social_optimum_fdma,
    sum_rate,
)
from rategame.metrics import OCCUPANCY_FACTOR
from rategame.twouser import AntiSymSystem, antisym_channels, antisym_config
from rategame.waterfill import waterfill_powers

from conftest import random_instance


def flat_two_user(N, sigma2, f21, f12):
    F = np.zeros((2, 2, N))
    F[1, 0, :] = f21
    F[0, 1, :] = f12
    return ChannelSet(F=F, sigma2=np.full((2, N), sigma2))


class TestPartitionMeasure:
    def test_full_overlap_is_minus_one(self):
        prof = PowerProfile([[1.0, 0.0], [1.0, 0.0]])
        out = partition_measure(prof, P_T=1.0)
        assert out.J[0] == pytest.approx(-1.0)
        assert out.J[1] == 0.0

    def test_fdma_is_zero(self):
        prof = PowerProfile([[1.0, 0.0], [0.0, 1.0]])
        out = partition_measure(prof, P_T=1.0)
        assert np.array_equal(out.J, [0.0, 0.0])
        assert np.array_equal(out.occupied_counts, [1, 1])

    def test_partial_overlap_arithmetic(self):
        prof = PowerProfile([[0.5, 0.5], [0.25, 0.75]])
        out = partition_measure(prof, P_T=1.0)
        assert out.J[0] == pytest.approx(-0.125)

    def test_bounds_and_occupancy_consistency(self, rng):
        for _ in range(30):
            _, cfg = random_instance(rng, 2, 6)
            prof = random_feasible_profile(cfg, rng)
            out = partition_measure(prof, P_T=1.0)
            assert np.all(out.J <= 0.0)
            assert np.all(out.J >= -1.0)
            both = (prof.p > 1e-6).all(axis=0)
            assert np.all(out.J[~both] == 0.0)

    def test_rejects_other_arities(self):
        with pytest.raises(UnsupportedArityError):
            partition_measure(PowerProfile(np.ones((3, 2))), 1.0)


class TestFdmaCondition:
    def test_strong_coupling_passes(self):
        ch = flat_two_user(2, 1.0, 1.0, 1.0)
        flags, overall = fdma_condition_check(ch, eps=0.0)
        assert overall and flags.all()

    def test_boundary_is_strict(self):
        ch = flat_two_user(2, 1.0, 0.5, 0.5)
        flags, overall = fdma_condition_check(ch, eps=0.0)
        assert not overall and not flags.any()

    def test_uncertainty_erodes_condition(self):
        ch = flat_two_user(2, 1.0, 1.0, 1.0)
        _, overall = fdma_condition_check(ch, eps=0.6)
        assert not overall


class TestBruteForce:
    def test_single_user_matches_waterfilling(self):
        sigma2 = np.array([[0.2, 0.5, 1.0, 2.0]])
        ch = ChannelSet(F=np.zeros((1, 1, 4)), sigma2=sigma2)
        cfg = GameConfig(P=[1.0], pmax=[[1.0] * 4], eps=[0.0])
        powers, _ = waterfill_powers(sigma2[0], 1.0, cfg.pmax[0])
        exact = sum_rate(ch, PowerProfile(powers[None, :]))
        rate, _ = social_optimum_bruteforce(ch, cfg, grid_resolution=0.02)
        assert rate == pytest.approx(exact, abs=2e-3)
        assert rate <= exact + 1e-12  # grid points are feasible, never better

    def test_high_interference_reaches_fdma_value(self):
        sys = AntiSymSystem(alpha=0.9, m=1.05, sigma2=0.1)
        ch, cfg = antisym_channels(sys), antisym_config(sys)
        rate, prof = social_optimum_bruteforce(ch, cfg)
        assert rate == pytest.approx(2 * np.log(1 + 1 / 0.1), rel=1e-12)
        # each user owns one bin outright
        assert sorted(np.count_nonzero(prof.p, axis=1).tolist()) == [1, 1]

    def test_low_interference_equal_split(self):
        sys = AntiSymSystem(alpha=0.01, m=2.0, sigma2=10.0)
        ch, cfg = antisym_channels(sys), antisym_config(sys)
        rate, _ = social_optimum_bruteforce(ch, cfg)
        assert rate == pytest.approx(4 * np.log(1 + 1 / 20.0), abs=1e-3)

    def test_dominates_feasible_profiles(self, rng):
        ch, cfg = random_instance(rng, 2, 2, strength=0.5)
        rate, _ = social_optimum_bruteforce(ch, cfg, grid_resolution=0.02)
        for _ in range(20):
            prof = random_feasible_profile(cfg, rng)
            # a 0.02 grid undershoots by at most the local rate variation
            assert rate >= sum_rate(ch, prof) - 0.08

    def test_poa_at_least_one(self, rng):
        from rategame import default_initial_profile, solve

        ch, cfg = random_instance(rng, 2, 2, strength=0.5, eps=0.05)
        res = solve(ch, cfg, default_initial_profile(ch, cfg))
        s_eq = sum_rate(ch, res.profile)
        s_opt, _ = social_optimum_bruteforce(ch, cfg, grid_resolution=0.01)
        assert price_of_anarchy(s_opt, s_eq) >= 1.0 - 1e-3

    def test_grid_cap_enforced(self):
        ch = ChannelSet(F=np.zeros((2, 2, 16)), sigma2=np.ones((2, 16)))
        cfg = GameConfig(P=[1.0, 1.0], pmax=[[1.0] * 16] * 2, eps=[0.0, 0.0])
        with pytest.raises(DomainError, match="grid"):
            social_optimum_bruteforce(ch, cfg, grid_resolution=0.02)

    @pytest.mark.parametrize("N", [1, 2, 3, 4, 5, 6])
    def test_grid_equals_product_and_filter(self, N):
        from rategame.metrics import _per_user_grid

        rng = np.random.default_rng(N)
        for steps in (1, 2, 3, 7, 10):
            P = float(rng.uniform(0.5, 3.0))
            for pmax in (np.full(N, 2.0 * P), rng.uniform(0.0, 1.5 * P, N)):
                # every (N-1)-tuple of counts in 0..steps, kept when it leaves a
                # nonnegative count for the last bin and fits the mask
                unit = P / steps
                reference = [
                    np.array(combo + (steps - sum(combo),), dtype=float) * unit
                    for combo in itertools.product(range(steps + 1), repeat=N - 1)
                    if sum(combo) <= steps
                ]
                reference = [a for a in reference if np.all(a <= pmax + 1e-12)]
                grid = _per_user_grid(P, pmax, steps)
                assert len(grid) == len(reference)
                assert [a.tobytes() for a in grid] == [a.tobytes() for a in reference]

    def test_grid_walks_only_its_points(self):
        # one unit per user over 32 bins: 32 points each, where the (steps+1)^(N-1)
        # cube holds 2^31 tuples
        N = 32
        rng = np.random.default_rng(32)
        F = rng.uniform(0.0, 0.5, (2, 2, N)) * (1.0 - np.eye(2))[:, :, None]
        ch = ChannelSet(F=F, sigma2=rng.uniform(0.1, 1.0, (2, N)))
        cfg = GameConfig(P=[1.0, 1.0], pmax=np.ones((2, N)), eps=[0.0, 0.0])
        start = time.perf_counter()
        rate, prof = social_optimum_bruteforce(ch, cfg, grid_resolution=1.0)
        assert time.perf_counter() - start < 1.0
        k1, k2 = np.argmax(prof.p, axis=1)
        assert prof.p.sum() == 2.0 and prof.p[0, k1] == prof.p[1, k2] == 1.0
        best = max(
            sum_rate(ch, PowerProfile(np.eye(N)[[a, b]]))
            for a in range(N) for b in range(N)
        )
        assert rate == best


class TestFdmaOptimum:
    def test_symmetric_high_interference(self):
        ch = flat_two_user(2, 0.1, 1.2, 1.2)
        cfg = GameConfig(P=[1.0, 1.0], pmax=[[1.0, 1.0]] * 2, eps=[0.0, 0.0])
        rate, prof = social_optimum_fdma(ch, cfg)
        assert rate == pytest.approx(2 * np.log(1 + 1 / 0.1), rel=1e-12)
        assert np.count_nonzero(prof.p[0] * prof.p[1]) == 0

    def test_single_bin_better_user_wins(self):
        F = np.zeros((2, 2, 1))
        sigma2 = np.array([[2.0], [0.5]])
        ch = ChannelSet(F=F, sigma2=sigma2)
        cfg = GameConfig(P=[1.0, 1.0], pmax=[[1.5], [1.5]], eps=[0.0, 0.0])
        rate, prof = social_optimum_fdma(ch, cfg)
        assert rate == pytest.approx(np.log(1 + 1 / 0.5), rel=1e-12)
        assert prof.p[0, 0] == 0.0 and prof.p[1, 0] == pytest.approx(1.0)

    def test_owner_of_zero_mask_bins_stays_silent(self):
        from rategame.metrics import _fdma_profile

        ch = flat_two_user(3, 0.1, 0.2, 0.3)
        cfg = GameConfig(P=[1.0, 1.0], pmax=[[0.0, 0.0, 2.0], [1.0, 1.0, 1.0]], eps=[0.0, 0.0])
        p = _fdma_profile(ch, cfg, np.array([0, 0, 1]))
        assert p.tolist() == [[0.0, 0.0, 0.0], [0.0, 0.0, 1.0]]

    def test_beats_every_assignment_enumerated(self, rng):
        ch, cfg = random_instance(rng, 2, 4, strength=0.8)
        best, _ = social_optimum_fdma(ch, cfg)
        from rategame.core import sum_rate_array
        from rategame.metrics import _fdma_profile

        for mask in range(2 ** 4):
            owner = np.array([(mask >> k) & 1 for k in range(4)])
            p = _fdma_profile(ch, cfg, owner)
            assert best >= sum_rate_array(ch.F, ch.sigma2, p) - 1e-12


class TestOracleTies:
    """Uncoupled users with flat noise: mirrored allocations tie exactly."""

    ch = flat_two_user(2, 0.5, 0.0, 0.0)
    cfg = GameConfig(P=[1.0, 1.0], pmax=np.ones((2, 2)), eps=[0.0, 0.0])

    def test_bruteforce_keeps_the_first_tied_grid_point(self):
        rate, prof = social_optimum_bruteforce(self.ch, self.cfg, grid_resolution=1 / 3)
        # [1/3, 2/3] and [2/3, 1/3] tie for each user; the enumeration meets the first first
        assert prof.p.tolist() == [[1 / 3, 2 / 3], [1 / 3, 2 / 3]]
        assert rate == pytest.approx(2 * (np.log1p(2 / 3) + np.log1p(4 / 3)), rel=1e-15)

    def test_fdma_keeps_the_lowest_tied_mask(self):
        rate, prof = social_optimum_fdma(self.ch, self.cfg)
        # masks 1 and 2 (one bin each) tie; mask 1 gives bin 1 to user 2
        assert prof.p.tolist() == [[0.0, 1.0], [1.0, 0.0]]
        assert rate == pytest.approx(2 * np.log1p(2.0), rel=1e-15)


class TestOccupancy:
    def test_threshold_counts(self):
        prof = PowerProfile([[0.5, 1e-9, 0.5], [0.2, 0.3, 0.5]])
        counts = occupancy_counts(prof, [1.0, 1.0])
        assert np.array_equal(counts, [2, 3])

    PROFILE = PowerProfile([[0.5, 0.5], [1.0, 0.0], [0.2, 0.8]])

    @pytest.mark.parametrize("count", [False, True], ids=["bins", "counts"])
    @pytest.mark.parametrize("P, error, message", [
        ([1.0], StructuralError, "P must hold one budget per user, shape (3,)"),
        ([1.0, 1.0], StructuralError, "P must hold one budget per user, shape (3,)"),
        (np.ones((3, 1)), StructuralError, "P must hold one budget per user, shape (3,)"),
        ([np.nan] * 3, DomainError, "budgets must be positive and finite"),
        ([1.0, np.inf, 1.0], DomainError, "budgets must be positive and finite"),
        ([1.0, 0.0, 1.0], DomainError, "budgets must be positive and finite"),
        ([1.0, 1.0, -1.0], DomainError, "budgets must be positive and finite"),
        (np.ones(3, dtype=bool), DomainError, "budgets must be real numbers, not booleans"),
        ([1.0, True, 1.0], DomainError, "budgets must be real numbers, not booleans"),
    ], ids=["one_budget", "two_budgets", "column", "nan", "inf", "zero", "negative",
            "bool_array", "bool_in_list"])
    def test_refuses_bad_budgets(self, count, P, error, message):
        with pytest.raises(error, match=re.escape(message)):
            (occupancy_counts if count else occupied_bins)(self.PROFILE, P)

    @pytest.mark.parametrize("count", [False, True], ids=["bins", "counts"])
    @pytest.mark.parametrize("P", [["1", "1", "1"], [1.0, "1", 1.0], np.array(["1"] * 3),
                                   [b"1"] * 3],
                             ids=["str_list", "str_in_list", "str_array", "bytes_list"])
    def test_refuses_string_budgets(self, count, P):
        with pytest.raises(DomainError, match="budgets must be real numbers, not strings"):
            (occupancy_counts if count else occupied_bins)(self.PROFILE, P)

    def test_one_rule_for_counts_partition_and_overlap_sets(self):
        # entries exactly at the threshold are empty, the next float up is occupied
        at = OCCUPANCY_FACTOR * 1.0
        above = np.nextafter(at, 1.0)
        prof = PowerProfile([[0.6, at, above, 0.4], [0.3, 0.3, at, above]])
        ch = flat_two_user(4, 0.1, 0.2, 0.3)
        cfg = GameConfig(P=[1.0, 1.0], pmax=np.full((2, 4), 1.0), eps=[0.0, 0.0])
        counts = occupancy_counts(prof, cfg.P)
        assert np.array_equal(counts, [3, 3])
        assert np.array_equal(partition_measure(prof, 1.0).occupied_counts, counts)
        sys = classify_frequency_sets(ch, cfg, prof)
        assert list(sys.d1) == [2] and list(sys.d2) == [1] and list(sys.d_ol) == [0, 3]

    def test_more_bins_than_the_cap_refused(self):
        # 2^21 assignments: refused before any is enumerated
        ch = flat_two_user(21, 0.1, 1.2, 1.2)
        cfg = GameConfig(P=[1.0, 1.0], pmax=[[1.0] * 21] * 2, eps=[0.0, 0.0])
        with pytest.raises(DomainError, match="N = 21 exceeds the cap of 20"):
            social_optimum_fdma(ch, cfg)


# the input checks no other test reaches
UNCOUPLED_3 = ChannelSet(F=np.zeros((3, 3, 2)), sigma2=np.ones((3, 2)))


@pytest.mark.parametrize("call, error, message", [
    (lambda: partition_measure(PowerProfile(np.full((2, 2), 0.5)), 0.0),
     DomainError, "P_T must be positive"),
    (lambda: fdma_condition_check(UNCOUPLED_3, 0.1),
     UnsupportedArityError, "FDMA condition is defined for Q = 2 only"),
    (lambda: fdma_condition_check(flat_two_user(2, 0.1, 0.2, 0.2), -0.1),
     DomainError, "eps must be nonnegative"),
    (lambda: social_optimum_bruteforce(
        flat_two_user(2, 0.1, 0.2, 0.2),
        GameConfig(P=[1.0, 1.0], pmax=np.ones((2, 2)), eps=[0.0, 0.0]), grid_resolution=0.0),
     DomainError, "grid_resolution must be positive"),
    # an infinite step once made a one-step grid, and True a unit step
    *((lambda h=h: social_optimum_bruteforce(
        flat_two_user(2, 0.1, 0.2, 0.2),
        GameConfig(P=[1.0, 1.0], pmax=np.ones((2, 2)), eps=[0.0, 0.0]), grid_resolution=h),
       DomainError, "grid_resolution must be positive") for h in (math.inf, True, "0.1")),
    # a subnormal step once overflowed P / h to inf, then round() raised OverflowError
    *((lambda h=h: social_optimum_bruteforce(
        flat_two_user(2, 0.1, 0.2, 0.2),
        GameConfig(P=[1.0, 1.0], pmax=np.ones((2, 2)), eps=[0.0, 0.0]), grid_resolution=h),
       DomainError, "grid_resolution is too fine") for h in (1e-320, 5e-324)),
    # a unit step leaves the grid points [0, 1] and [1, 0], both over a 0.6 mask
    (lambda: social_optimum_bruteforce(
        flat_two_user(2, 0.1, 0.2, 0.2),
        GameConfig(P=[1.0, 1.0], pmax=np.full((2, 2), 0.6), eps=[0.0, 0.0]), grid_resolution=1.0),
     DomainError, "mask of user 1 excludes every grid point"),
    (lambda: social_optimum_fdma(
        UNCOUPLED_3, GameConfig(P=np.ones(3), pmax=np.ones((3, 2)), eps=np.zeros(3))),
     UnsupportedArityError, "FDMA search is defined for Q = 2 only"),
], ids=["P_T_zero", "condition_arity", "eps_negative", "resolution_zero", "resolution_inf",
        "resolution_bool", "resolution_str", "resolution_subnormal", "resolution_min_subnormal",
        "mask_excludes_grid", "fdma_arity"])
def test_input_checks(call, error, message):
    with pytest.raises(error, match=message):
        call()
