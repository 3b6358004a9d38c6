import io
import re

import numpy as np
import pytest

from rategame import (
    ChannelSet,
    DomainError,
    GameConfig,
    PowerProfile,
    StructuralError,
    alpha_crit,
    classify_frequency_sets,
    contraction_modulus,
    empirical_contraction_check,
    fdma_condition_check,
    find_water_level,
    partition_derivative,
    partition_measure,
    price_of_anarchy,
    project_to_simplex,
    projection_residual,
    robust_best_response,
    solve,
    split_sum_rate_slope,
    sum_rate,
    user_rate,
    worst_case_interference,
)
from rategame.core import ALL_USERS, format_value, interference_level, write_csv
from rategame.experiment import ChannelGenSpec, generate_channels
from rategame.metrics import social_optimum_bruteforce
from rategame.twouser import (AntiSymSystem, antisym_channels, antisym_config, antisym_profile,
                              interior_p, split_sum_rate)
from rategame.waterfill import waterfill_powers

from conftest import random_instance


def two_user_channel(N, sigma1, f21, Q=2):
    F = np.zeros((Q, Q, N))
    F[1, 0, :] = f21
    sigma2 = np.ones((Q, N))
    sigma2[0, :] = sigma1
    return ChannelSet(F=F, sigma2=sigma2)


def antisym_overlap():
    """Overlap system and channels of an anti-symmetric interior equilibrium."""
    sys = AntiSymSystem(alpha=0.2, m=2.0, sigma2=0.1)
    ch = antisym_channels(sys)
    return classify_frequency_sets(ch, antisym_config(sys), antisym_profile(interior_p(sys))), ch


def config(Q, N, P=1.0, pmax=2.0, eps=0.0):
    return GameConfig(
        P=np.full(Q, P), pmax=np.full((Q, N), pmax), eps=np.full(Q, eps)
    )


class TestWorstCaseInterference:
    def test_no_interference_no_uncertainty(self):
        ch = two_user_channel(1, sigma1=0.5, f21=0.0)
        cfg = config(2, 1, eps=0.0)
        prof = PowerProfile([[1.0], [1.0]])
        phi = worst_case_interference(ch, cfg, prof, 0)
        assert phi == pytest.approx([0.5], abs=0)

    def test_direct_evaluation(self):
        ch = two_user_channel(1, sigma1=0.5, f21=0.2)
        cfg = config(2, 1, eps=0.1)
        prof = PowerProfile([[1.0], [1.0]])
        phi = worst_case_interference(ch, cfg, prof, 0)
        assert phi[0] == pytest.approx(0.8, rel=1e-15)

    def test_euclidean_penalty(self):
        # three users, no coupling, unit eps: penalty is the interferer norm
        F = np.zeros((3, 3, 1))
        ch = ChannelSet(F=F, sigma2=np.ones((3, 1)))
        cfg = GameConfig(P=np.full(3, 4.0), pmax=np.full((3, 1), 5.0), eps=np.ones(3))
        prof = PowerProfile([[1.0], [3.0], [4.0]])
        phi = worst_case_interference(ch, cfg, prof, 0)
        assert phi[0] == pytest.approx(1.0 + 5.0, rel=1e-15)  # sqrt(9 + 16) = 5

    def test_dimension_mismatch(self):
        ch = two_user_channel(2, sigma1=1.0, f21=0.1)
        cfg = config(2, 3)
        with pytest.raises(StructuralError):
            worst_case_interference(ch, cfg, PowerProfile(np.ones((2, 2))), 0)

    def test_zero_eps_matches_nominal_and_floor(self, rng):
        ch, cfg = random_instance(rng, 3, 8, eps=0.0)
        prof = PowerProfile(rng.uniform(0, 0.2, (3, 8)))
        for q in range(3):
            phi = worst_case_interference(ch, cfg, prof, q)
            nominal = ch.sigma2[q] + np.einsum("rk,rk->k", ch.F[:, q, :], prof.p)
            assert np.array_equal(phi, nominal)
            assert np.all(phi >= ch.sigma2[q])

    def test_monotone_in_eps_and_powers(self, rng):
        ch, _ = random_instance(rng, 3, 4)
        p = rng.uniform(0, 0.3, (3, 4))
        prof = PowerProfile(p)
        phis = []
        for eps in (0.0, 0.1, 0.5, 1.0):
            cfg = config(3, 4, pmax=2.0, eps=eps)
            phis.append(worst_case_interference(ch, cfg, prof, 0))
        for lo, hi in zip(phis, phis[1:]):
            assert np.all(hi >= lo)
        cfg = config(3, 4, pmax=2.0, eps=0.3)
        bumped = p.copy()
        bumped[1, 2] += 0.2
        base = worst_case_interference(ch, cfg, prof, 0)
        more = worst_case_interference(ch, cfg, PowerProfile(bumped), 0)
        assert np.all(more >= base)

    # Phi's bits against the docstring formula, spelled in this order:
    # sigma2[q] + einsum, then + eps_q * sqrt(max(sum_r p_r^2 - p_q^2, 0))
    @pytest.mark.parametrize("Q, N", [(1, 1), (1, 9), (2, 1), (2, 5), (3, 16), (5, 33),
                                      (8, 64), (16, 1024)])
    @pytest.mark.parametrize("eps", [0.0, 0.05, 2.5])
    def test_bits_match_the_formula(self, Q, N, eps):
        rng = np.random.default_rng([Q, N])
        F = rng.exponential(size=(Q, Q, N)) * 10.0 ** rng.uniform(-4, 4, (Q, Q, N))
        F[np.arange(Q), np.arange(Q), :] = 0.0
        sigma2 = rng.exponential(size=(Q, N))
        # powers over eight decades, a quarter of them exactly zero
        p = rng.exponential(size=(Q, N)) * 10.0 ** rng.uniform(-6, 2, (Q, N))
        p[rng.random((Q, N)) < 0.25] = 0.0
        for q in range(Q):
            phi = sigma2[q] + np.einsum("rk,rk->k", F[:, q, :], p)
            if eps > 0:
                phi = phi + eps * np.sqrt(np.maximum((p * p).sum(axis=0) - p[q] * p[q], 0.0))
            assert interference_level(F, sigma2, eps, p, q).tobytes() == phi.tobytes()

    # The robust term subtracts each row's own square from the sum of all
    # squares and clamps nothing at 0: a sum of nonnegative terms rounds to at
    # least each of them in any order, numpy's pairwise one (N = 1, where the
    # user axis is contiguous) and its user-by-user one (wider rows) alike,
    # and x - x is +0.0. Squares here underflow to 0 and overflow to inf.
    @pytest.mark.parametrize("N", [1, 2, 5, 64])
    def test_robust_radicand_is_never_negative(self, N):
        rng = np.random.default_rng([33, N])
        checked = 0
        for Q in range(1, 17):
            for _ in range(max(2, 128 // N)):
                B = int(rng.integers(1, Q + 1))
                views = 10.0 ** rng.uniform(-170, 170, (B, Q, N)) * rng.random((B, Q, N))
                views[rng.random((B, Q)) < 0.2] = 0.0  # users silent on every bin
                qs = rng.integers(0, Q, B)
                p = views[0]
                with np.errstate(all="ignore"):
                    squares = p * p
                    total = np.add.reduce(squares, -2)
                    stacked = views * views
                    radicands = [total - squares[q] for q in range(Q)]  # one user
                    radicands.append(total - squares)  # ALL_USERS
                    radicands.append(np.add.reduce(stacked, -2) - stacked[np.arange(B), qs])
                    for radicand in radicands:
                        assert not (radicand < 0).any()
                        assert not np.signbit(radicand[radicand == 0]).any()
                        checked += radicand.size
                    # and the kernel's bits are those of the clamped formula
                    F = 1e-3 * rng.random((Q, Q, N))
                    F[np.arange(Q), np.arange(Q)] = 0.0
                    sigma2, eps = rng.random((Q, N)), rng.uniform(0.01, 2.0, Q)
                    clamped = [np.sqrt(np.maximum(r, 0.0)) for r in radicands]
                    for q in range(Q):
                        expected = interference_level(F, sigma2, 0.0, p, q)
                        expected += eps[q] * clamped[q]
                        assert (interference_level(F, sigma2, eps[q], p, q).tobytes()
                                == expected.tobytes())
                    expected = interference_level(F, sigma2, 0 * eps, p, ALL_USERS)
                    expected += eps[:, None] * clamped[Q]
                    assert (interference_level(F, sigma2, eps, p, ALL_USERS).tobytes()
                            == expected.tobytes())
                    expected = interference_level(F, sigma2, 0 * eps[qs], views, qs)
                    expected += eps[qs, None] * clamped[Q + 1]
                    assert (interference_level(F, sigma2, eps[qs], views, qs).tobytes()
                            == expected.tobytes())
        assert checked > 20_000


class TestUserRate:
    def test_awgn_capacity(self):
        ch = ChannelSet(F=np.zeros((1, 1, 1)), sigma2=[[1.0]])
        rate = user_rate(ch, PowerProfile([[1.0]]), 0)
        assert rate == pytest.approx(np.log(2.0), rel=1e-15)

    def test_two_user_nominal(self):
        ch = two_user_channel(1, sigma1=1.0, f21=1.0)
        rate = user_rate(ch, PowerProfile([[1.0], [1.0]]), 0)
        assert rate == pytest.approx(np.log(1.5), rel=1e-15)

    def test_zero_profile(self):
        ch = two_user_channel(4, sigma1=1.0, f21=0.3)
        assert user_rate(ch, PowerProfile(np.zeros((2, 4))), 0) == 0.0

    def test_worst_case_override_lowers_rate(self, rng):
        ch, _ = random_instance(rng, 2, 6)
        prof = PowerProfile(rng.uniform(0.01, 0.2, (2, 6)))
        nominal = user_rate(ch, prof, 0)
        worst = user_rate(ch, prof, 0, eps_override=0.4)
        assert worst < nominal

    def test_strictly_increasing_in_own_power(self, rng):
        ch, _ = random_instance(rng, 3, 5)
        p = rng.uniform(0.01, 0.2, (3, 5))
        base = user_rate(ch, PowerProfile(p), 1)
        for k in range(5):
            bumped = p.copy()
            bumped[1, k] += 0.05
            assert user_rate(ch, PowerProfile(bumped), 1) > base

    def test_frequency_permutation_invariance(self, rng):
        ch, _ = random_instance(rng, 3, 7)
        p = rng.uniform(0.0, 0.2, (3, 7))
        perm = rng.permutation(7)
        ch2 = ChannelSet(F=ch.F[:, :, perm], sigma2=ch.sigma2[:, perm])
        for q in range(3):
            assert user_rate(ch2, PowerProfile(p[:, perm]), q) == pytest.approx(
                user_rate(ch, PowerProfile(p), q), rel=1e-14
            )


class TestSumRate:
    def test_zero(self):
        ch = two_user_channel(2, sigma1=1.0, f21=0.5)
        assert sum_rate(ch, PowerProfile(np.zeros((2, 2)))) == 0.0

    def test_disjoint_symmetric_users(self):
        ch = two_user_channel(2, sigma1=1.0, f21=1.0)
        prof = PowerProfile([[1.0, 0.0], [0.0, 1.0]])
        assert sum_rate(ch, prof) == pytest.approx(2 * np.log(2.0), rel=1e-15)

    def test_matches_user_rate_sum(self, rng):
        ch, _ = random_instance(rng, 4, 6)
        prof = PowerProfile(rng.uniform(0, 0.2, (4, 6)))
        total = sum(user_rate(ch, prof, q) for q in range(4))
        assert sum_rate(ch, prof) == pytest.approx(total, rel=1e-15)

    def test_antisym_family_closed_form(self, rng):
        # the general formula and the two-user family expression must agree
        sys = AntiSymSystem(alpha=0.25, m=2.5, sigma2=0.3)
        ch = antisym_channels(sys)
        for p in rng.uniform(0.05, 0.95, size=10):
            prof = antisym_profile(float(p))
            assert sum_rate(ch, prof) == pytest.approx(
                split_sum_rate(sys, float(p)), rel=1e-13
            )


class TestPriceOfAnarchy:
    def test_optimum_attained(self):
        assert price_of_anarchy(2.0, 2.0) == 1.0

    def test_arithmetic(self):
        assert price_of_anarchy(3.0, 1.5) == 2.0

    def test_low_interference_near_unity(self):
        # equal split against weak interference sits close to the optimum
        sigma2 = 10.0
        sys = AntiSymSystem(alpha=0.01, m=2.0, sigma2=sigma2)
        s_opt = 4 * np.log(1 + 1 / (2 * sigma2))
        s_eq = split_sum_rate(sys, 0.5)
        assert price_of_anarchy(s_opt, s_eq) == pytest.approx(1.0, abs=1e-2)

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            price_of_anarchy(0.0, 1.0)
        with pytest.raises(DomainError):
            price_of_anarchy(1.0, -2.0)


class TestValidation:
    def test_negative_coefficient_rejected(self):
        with pytest.raises(DomainError):
            ChannelSet(F=np.full((2, 2, 1), -0.1), sigma2=np.ones((2, 1)))

    def test_nonzero_diagonal_rejected(self):
        F = np.ones((2, 2, 1))
        with pytest.raises(DomainError):
            ChannelSet(F=F, sigma2=np.ones((2, 1)))

    def test_nonpositive_noise_rejected(self):
        with pytest.raises(DomainError):
            ChannelSet(F=np.zeros((2, 2, 1)), sigma2=np.zeros((2, 1)))

    def test_mask_must_exceed_budget(self):
        from rategame import InfeasibleError

        with pytest.raises(InfeasibleError):
            GameConfig(P=[1.0], pmax=[[0.5, 0.5]], eps=[0.0])

    def test_profiles_immutable(self):
        prof = PowerProfile(np.ones((2, 2)))
        with pytest.raises(ValueError):
            prof.p[0, 0] = 2.0

    # every constructor and checker error that no other test reaches
    @pytest.mark.parametrize("build, error, message", [
        (lambda: ChannelSet(F=np.full((1, 1, 1), np.nan), sigma2=[[1.0]]),
         DomainError, "F contains non-finite entries"),
        (lambda: ChannelSet(F=np.zeros((2, 1, 1)), sigma2=np.ones((2, 1))),
         StructuralError, "F must be (Q, Q, N)"),
        (lambda: ChannelSet(F=np.zeros((2, 2, 1)), sigma2=np.ones((2, 2))),
         StructuralError, "sigma2 must be (Q, N)"),
        (lambda: GameConfig(P=[[1.0]], pmax=[[2.0]], eps=[0.0]),
         StructuralError, "P and eps must be 1-d"),
        (lambda: GameConfig(P=[1.0], pmax=np.ones((2, 2)), eps=[0.0]),
         StructuralError, "disagree on the user count"),
        (lambda: GameConfig(P=[0.0], pmax=[[1.0]], eps=[0.0]),
         DomainError, "power budgets must be positive"),
        (lambda: GameConfig(P=[1.0], pmax=[[-1.0, 3.0]], eps=[0.0]),
         DomainError, "spectral masks must be nonnegative"),
        (lambda: GameConfig(P=[1.0], pmax=[[2.0]], eps=[-0.1]),
         DomainError, "uncertainty bounds must be nonnegative"),
        (lambda: PowerProfile([1.0, 1.0]), StructuralError, "profile must be (Q, N)"),
        (lambda: PowerProfile([[-1.0]]), DomainError, "powers must be nonnegative"),
        (lambda: sum_rate(two_user_channel(2, 1.0, 0.1), PowerProfile(np.ones((2, 3)))),
         StructuralError, "profile is (2, 3) but channels are (2, 2)"),
        (lambda: solve(two_user_channel(2, 1.0, 0.1), config(2, 2, pmax=0.6),
                       PowerProfile([[0.7, 0.3], [0.5, 0.5]])),
         DomainError, "profile violates a spectral mask"),
        (lambda: solve(two_user_channel(2, 1.0, 0.1), config(2, 2),
                       PowerProfile([[0.5, 0.5], [0.5, 0.4]])),
         DomainError, "user 2 total power off budget"),
        (lambda: user_rate(two_user_channel(1, 1.0, 0.1), PowerProfile([[1.0], [1.0]]), 0,
                           eps_override=-0.1),
         DomainError, "eps_override must be nonnegative"),
        (lambda: ChannelSet(F=np.zeros((2, 2, 1), dtype=bool), sigma2=np.ones((2, 1))),
         DomainError, "F must be real numbers, not booleans"),
        (lambda: ChannelSet(F=np.zeros((2, 2, 1)), sigma2=[[True], [1.0]]),
         DomainError, "sigma2 must be real numbers, not booleans"),
        (lambda: GameConfig(P=[True, True], pmax=np.full((2, 2), 2.0), eps=[0.0, 0.0]),
         DomainError, "P must be real numbers, not booleans"),
        (lambda: GameConfig(P=[0.5], pmax=[[np.True_, 1.0]], eps=[0.0]),
         DomainError, "pmax must be real numbers, not booleans"),
        (lambda: GameConfig(P=[0.5], pmax=[[1.0, 1.0]], eps=np.zeros(1, dtype=bool)),
         DomainError, "eps must be real numbers, not booleans"),
        (lambda: PowerProfile([[True, False]]), DomainError, "p must be real numbers, not booleans"),
    ], ids=["non_finite", "F_shape", "sigma2_shape", "P_ndim", "user_count", "P_zero",
            "pmax_negative", "eps_negative", "profile_ndim", "profile_negative",
            "profile_dims", "over_mask", "off_budget", "eps_override_negative",
            "F_bool_array", "sigma2_bool_entry", "P_bools", "pmax_numpy_bool",
            "eps_bool_array", "profile_bools"])
    def test_input_checks(self, build, error, message):
        with pytest.raises(error, match=re.escape(message)):
            build()

    # numpy reads "1" as 1.0, so string entries are refused like booleans
    @pytest.mark.parametrize("build, message", [
        (lambda: GameConfig(P=["1", "1"], pmax=np.full((2, 2), 2.0), eps=[0, 0]),
         "P must be real numbers, not strings"),
        (lambda: PowerProfile([["0.5", "0.5"]]), "p must be real numbers, not strings"),
        (lambda: PowerProfile(np.array([["0.5", "0.5"]])), "p must be real numbers, not strings"),
        (lambda: ChannelSet(F=np.zeros((1, 1, 1)), sigma2=[[b"1"]]),
         "sigma2 must be real numbers, not strings"),
        (lambda: GameConfig(P=[0.5], pmax=[[1.0, 1.0]], eps="0"),
         "eps must be real numbers, not strings"),
        (lambda: GameConfig(P=[0.5], pmax=np.array([[1.0, "1"]], dtype=object), eps=[0.0]),
         "pmax must be real numbers, not strings"),
    ], ids=["P_strings", "profile_strings", "profile_str_array", "sigma2_bytes", "eps_string",
            "pmax_object_array"])
    def test_string_entries_refused(self, build, message):
        with pytest.raises(DomainError, match=re.escape(message)):
            build()

    def test_int_and_float_entries_pass(self):
        cfg = GameConfig(P=np.ones(2, dtype=np.int64), pmax=[[2, 2], [2.0, 2.0]], eps=[0, 0.5])
        assert cfg.P.dtype == cfg.pmax.dtype == cfg.eps.dtype == float
        assert PowerProfile(np.full((1, 2), 1, dtype=np.uint8)).p.tolist() == [[1.0, 1.0]]


class TestPublicEntryRefusals:
    """Bad arguments at a public function end in a DomainError, not a numpy or Python error."""

    CH = two_user_channel(2, 1.0, 0.1)
    CFG = config(2, 2)
    PROFILE = PowerProfile(np.full((2, 2), 0.5))
    GRID = np.ones((2, 3))

    @pytest.mark.parametrize("call, message", [
        (lambda c: user_rate(c.CH, c.PROFILE, -1), "user index must be an integer in 0..1, got -1"),
        (lambda c: user_rate(c.CH, c.PROFILE, 2), "got 2"),
        (lambda c: user_rate(c.CH, c.PROFILE, 1.0), "got 1.0"),
        (lambda c: user_rate(c.CH, c.PROFILE, True), "got True"),
        (lambda c: worst_case_interference(c.CH, c.CFG, c.PROFILE, -1), "got -1"),
        (lambda c: robust_best_response(c.CH, c.CFG, c.PROFILE, -1), "got -1"),
        (lambda c: projection_residual(c.CH, c.CFG, c.PROFILE, -1, [0.5, 0.5]), "got -1"),
        (lambda c: empirical_contraction_check(c.CH, c.CFG, -1, 0),
         "trials must be an integer >= 1"),
        (lambda c: empirical_contraction_check(c.CH, c.CFG, 2.5, 0),
         "trials must be an integer >= 1"),
        (lambda c: empirical_contraction_check(c.CH, c.CFG, 2, -1),
         "seed must be an integer >= 0"),
        (lambda c: find_water_level(c.GRID, 1.0, c.GRID), "vectors of the same shape"),
        (lambda c: find_water_level([1.0, 1.0], np.ones(2), [2.0, 2.0]),
         "total power must be a real number"),
        (lambda c: find_water_level(np.float64(1.0), 1.0, np.asarray(2.0)),
         "vectors of the same shape"),
        (lambda c: waterfill_powers(c.GRID, 1.0, c.GRID), "vectors of the same shape"),
        (lambda c: project_to_simplex(c.GRID, 1.0, c.GRID), "vectors of the same shape"),
        (lambda c: AntiSymSystem(alpha=0.2, m=2, sigma2=0.1, eps=float("nan")),
         "eps must be nonnegative"),
        (lambda c: fdma_condition_check(c.CH, float("nan")), "eps must be nonnegative"),
        (lambda c: empirical_contraction_check(c.CH, c.CFG, True, 0),
         "trials must be an integer >= 1"),
        (lambda c: empirical_contraction_check(c.CH, c.CFG, 2, False),
         "seed must be an integer >= 0"),
        (lambda c: find_water_level([1.0, 1.0], True, [2.0, 2.0]),
         "total power must be a real number"),
        (lambda c: AntiSymSystem(alpha="0.2", m=2, sigma2=0.1), "alpha must lie in (0, 1)"),
        (lambda c: AntiSymSystem(alpha=0.2, m=True, sigma2=0.1), "m must be >= 1"),
        (lambda c: AntiSymSystem(alpha=0.2, m=2, sigma2=True), "sigma2 must be positive"),
        (lambda c: AntiSymSystem(alpha=0.2, m=2, sigma2=0.1, eps=False),
         "eps must be nonnegative"),
        (lambda c: fdma_condition_check(c.CH, True), "eps must be nonnegative"),
        (lambda c: partition_measure(c.PROFILE, True), "P_T must be positive"),
        (lambda c: user_rate(c.CH, c.PROFILE, 0, eps_override=True),
         "eps_override must be nonnegative"),
        (lambda c: alpha_crit(True, 0.1), "need m >= 1 and sigma2 > 0"),
        (lambda c: alpha_crit(2.0, "0.1"), "need m >= 1 and sigma2 > 0"),
        (lambda c: price_of_anarchy(True, True), "sum-rates must be positive and finite"),
        (lambda c: price_of_anarchy("2", "1"), "sum-rates must be positive and finite"),
        (lambda c: projection_residual(c.CH, c.CFG, c.PROFILE, 0, [np.nan, 0.5]),
         "candidate must be a length-N vector of finite powers"),
        (lambda c: split_sum_rate(AntiSymSystem(alpha=0.2, m=2, sigma2=0.1), 1.5),
         "split p must lie in [0, 1]"),
        (lambda c: user_rate(c.CH, PowerProfile([[0.5, 0.5], [1.0, 0.0]]), 0,
                             eps_override=float("inf")), "eps_override must be nonnegative"),
        (lambda c: fdma_condition_check(c.CH, float("inf")), "eps must be nonnegative"),
        (lambda c: AntiSymSystem(alpha=0.2, m=float("inf"), sigma2=0.1), "m must be >= 1"),
        (lambda c: AntiSymSystem(alpha=0.2, m=2, sigma2=float("inf")), "sigma2 must be positive"),
        (lambda c: AntiSymSystem(alpha=0.2, m=2, sigma2=0.1, eps=float("inf")),
         "eps must be nonnegative"),
        (lambda c: alpha_crit(float("inf"), 0.1), "need m >= 1 and sigma2 > 0"),
        (lambda c: alpha_crit(2.0, float("inf")), "need m >= 1 and sigma2 > 0"),
        (lambda c: partition_measure(c.PROFILE, float("inf")), "P_T must be positive"),
        (lambda c: split_sum_rate_slope(0.2, 2.0, 0.1, 2.0), "split p must lie in [0, 1]"),
        (lambda c: split_sum_rate_slope(0.2, 2.0, 0.1, float("nan")),
         "split p must lie in [0, 1]"),
        (lambda c: split_sum_rate_slope(True, 2.0, 0.1, 0.6), "alpha must be a finite real"),
        (lambda c: split_sum_rate_slope("0.2", 2.0, 0.1, 0.6), "alpha must be a finite real"),
        (lambda c: split_sum_rate_slope(float("inf"), 2.0, 0.1, 0.6),
         "alpha must be a finite real"),
        (lambda c: split_sum_rate_slope(-1.0, 2.0, 0.1, 0.6),
         "alpha makes a noise-plus-interference term nonpositive"),
        (lambda c: split_sum_rate_slope(0.2, 2.0, 0.0, 1.0), "need m >= 1 and sigma2 > 0"),
        (lambda c: split_sum_rate_slope(0.2, 0.5, 0.1, 0.6), "need m >= 1 and sigma2 > 0"),
        (lambda c: contraction_modulus([[0.0, np.nan], [0.1, 0.0]], np.zeros((2, 2))),
         "Smax and E must be finite"),
        (lambda c: partition_derivative(*antisym_overlap(), boundary_factor=float("nan")),
         "boundary_factor must be nonnegative and finite"),
        (lambda c: partition_derivative(*antisym_overlap(), boundary_factor=-1.0),
         "boundary_factor must be nonnegative and finite"),
        (lambda c: partition_derivative(*antisym_overlap(), boundary_factor=True),
         "boundary_factor must be nonnegative and finite"),
    ], ids=["rate_q_negative", "rate_q_Q", "rate_q_float", "rate_q_bool", "phi_q_negative",
            "best_response_q_negative", "projection_q_negative", "contraction_trials_negative",
            "contraction_trials_float", "contraction_seed_negative", "water_level_2d",
            "water_level_array_P", "water_level_0d", "waterfill_2d", "simplex_2d",
            "antisym_eps_nan", "fdma_eps_nan", "contraction_trials_bool",
            "contraction_seed_bool", "water_level_bool_P", "antisym_alpha_str",
            "antisym_m_bool", "antisym_sigma2_bool", "antisym_eps_bool", "fdma_eps_bool",
            "partition_P_T_bool", "rate_eps_override_bool", "alpha_crit_m_bool",
            "alpha_crit_sigma2_str", "anarchy_bool", "anarchy_str", "projection_candidate_nan",
            "split_outside", "rate_eps_override_inf", "fdma_eps_inf", "antisym_m_inf",
            "antisym_sigma2_inf", "antisym_eps_inf", "alpha_crit_m_inf",
            "alpha_crit_sigma2_inf", "partition_P_T_inf", "slope_split_outside",
            "slope_split_nan", "slope_alpha_bool", "slope_alpha_str", "slope_alpha_inf",
            "slope_alpha_nonpositive_term", "slope_sigma2_zero", "slope_m_below_one",
            "contraction_modulus_nan", "boundary_factor_nan", "boundary_factor_negative",
            "boundary_factor_bool"])
    def test_refused_with_domain_error(self, call, message):
        with pytest.raises(DomainError, match=re.escape(message)):
            call(self)

    # an int beyond the float range is refused like inf, not left to overflow later
    @pytest.mark.parametrize("call, message", [
        (lambda c, x: price_of_anarchy(x, 1.0), "sum-rates must be positive and finite"),
        (lambda c, x: user_rate(c.CH, c.PROFILE, 0, eps_override=x),
         "eps_override must be nonnegative and finite"),
        (lambda c, x: fdma_condition_check(c.CH, x), "eps must be nonnegative and finite"),
        (lambda c, x: partition_measure(c.PROFILE, x), "P_T must be positive and finite"),
        (lambda c, x: interior_p(AntiSymSystem(alpha=0.2, m=x, sigma2=0.1)),
         "m must be >= 1 and finite"),
        (lambda c, x: alpha_crit(x, 0.1), "need m >= 1 and sigma2 > 0, both finite"),
        (lambda c, x: find_water_level([1.0, 1.0], x, [2.0, 2.0]),
         "total power must be a real number"),
        (lambda c, x: generate_channels(ChannelGenSpec(Q=2, N=2, noise_power=x)),
         "noise power must be finite"),
        (lambda c, x: social_optimum_bruteforce(c.CH, c.CFG, grid_resolution=x),
         "grid_resolution must be positive"),
    ], ids=["anarchy", "rate_eps_override", "fdma_eps", "partition_P_T", "antisym_m",
            "alpha_crit_m", "water_level_P", "noise_power", "grid_resolution"])
    def test_int_beyond_float_range(self, call, message):
        with pytest.raises(DomainError, match=re.escape(message)):
            call(self, 10**400)


class TestWriteCsv:
    """Each cell is spelled by format_value on its own, whatever the other rows hold."""

    @staticmethod
    def written(rows):
        out = io.StringIO()
        write_csv(out, ["a", "b"], rows)
        return out.getvalue()

    def test_int_first_column_with_later_floats(self):
        assert self.written([(0, "x"), (0.2, "y")]) == "a,b\n0,x\n0.20000000000000001,y\n"

    def test_bool_under_an_int_first_column(self):
        assert self.written([(1, 2), (True, False)]) == "a,b\n1,2\ntrue,false\n"

    @pytest.mark.parametrize("numpy_value, python_value", [
        (np.float64(0.1), 0.1), (np.int64(3), 3), (np.bool_(True), True),
        (np.float32(0.3), float(np.float32(0.3))),
    ], ids=["float64", "int64", "bool_", "float32"])
    def test_numpy_scalars_spelled_as_python(self, numpy_value, python_value):
        assert format_value(numpy_value) == format_value(python_value)
        assert self.written([(numpy_value, 0)]) == self.written([(python_value, 0)])
