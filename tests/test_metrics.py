import numpy as np
import pytest

from rategame import (
    ChannelSet,
    DomainError,
    GameConfig,
    PowerProfile,
    UnsupportedArityError,
    fdma_condition_check,
    occupancy_counts,
    partition_measure,
    price_of_anarchy,
    random_feasible_profile,
    social_optimum_bruteforce,
    social_optimum_fdma,
    sum_rate,
)
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


class TestFdmaOptimum:
    def test_symmetric_high_interference(self):
        ch = flat_two_user(2, 0.1, 1.2, 1.2)
        cfg = GameConfig(P=[1.0, 1.0], pmax=[[1.0, 1.0]] * 2, eps=[0.0, 0.0])
        rate, prof, exact = social_optimum_fdma(ch, cfg)
        assert exact
        assert rate == pytest.approx(2 * np.log(1 + 1 / 0.1), rel=1e-12)
        assert np.count_nonzero(prof.p[0] * prof.p[1]) == 0

    def test_single_bin_better_user_wins(self):
        F = np.zeros((2, 2, 1))
        sigma2 = np.array([[2.0], [0.5]])
        ch = ChannelSet(F=F, sigma2=sigma2)
        cfg = GameConfig(P=[1.0, 1.0], pmax=[[1.5], [1.5]], eps=[0.0, 0.0])
        rate, prof, exact = social_optimum_fdma(ch, cfg)
        assert exact
        assert rate == pytest.approx(np.log(1 + 1 / 0.5), rel=1e-12)
        assert prof.p[0, 0] == 0.0 and prof.p[1, 0] == pytest.approx(1.0)

    def test_beats_every_assignment_enumerated(self, rng):
        ch, cfg = random_instance(rng, 2, 4, strength=0.8)
        best, _, exact = social_optimum_fdma(ch, cfg)
        assert exact
        from rategame.core import sum_rate_array
        from rategame.metrics import _fdma_profile

        for mask in range(2 ** 4):
            owner = np.array([(mask >> k) & 1 for k in range(4)])
            p = _fdma_profile(ch, cfg, owner)
            assert best >= sum_rate_array(ch.F, ch.sigma2, p) - 1e-12


class TestOccupancy:
    def test_threshold_counts(self):
        prof = PowerProfile([[0.5, 1e-9, 0.5], [0.2, 0.3, 0.5]])
        counts = occupancy_counts(prof, [1.0, 1.0])
        assert np.array_equal(counts, [2, 3])
