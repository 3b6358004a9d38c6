import hashlib
import re
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from rategame import (
    ChannelGenSpec,
    ChannelSet,
    DomainError,
    GameConfig,
    InfeasibleError,
    NumericalError,
    PowerProfile,
    Schedule,
    SolverOptions,
    UncertaintySpec,
    default_bin_sets,
    default_initial_profile,
    find_water_level,
    generate_channels,
    perturb_channels,
    project_to_simplex,
    projection_residual,
    random_feasible_profile,
    robust_best_response,
    social_optimum_fdma,
    solve,
    sum_rate,
    user_rate,
)
from rategame import solver, waterfill
from rategame.core import ALL_USERS, interference_level, worst_case_interference
from rategame.twouser import AntiSymSystem, antisym_channels, antisym_config, interior_p
from rategame.waterfill import best_response_powers, fill_powers, waterfill_powers

from conftest import (adversarial_channels, bisect_water_level, classical_best_response,
                      random_instance)


def stable_fill(phi, pmax):
    """Event order, sorted events, slopes and running fill, ties kept in index order."""
    n = phi.size
    events = np.concatenate((phi, phi + pmax))
    order = np.argsort(events, kind="stable")
    levels = events[order]
    slope = np.cumsum(np.where(order < n, 1.0, -1.0))
    filled = np.concatenate(([0.0], np.cumsum(slope[:-1] * np.diff(levels))))
    return order, levels, slope, filled


def stable_sweep(phi, P, pmax):
    """Breakpoint sweep with ties kept in index order."""
    _, levels, slope, filled = stable_fill(phi, pmax)
    j = int(np.searchsorted(filled, P))
    if filled[j] == P:
        return float(levels[j])
    return float(levels[j - 1] + (P - filled[j - 1]) / slope[j - 1])


class TestFindWaterLevel:
    def test_flat_channel(self):
        assert find_water_level([1.0, 1.0], 1.0, [1.0, 1.0]) == pytest.approx(1.5)

    def test_clipped_bin(self):
        # first bin saturates at its mask, second stays empty
        mu = find_water_level([0.0, 10.0], 1.0, [1.0, 1.0])
        assert mu == pytest.approx(1.0)

    def test_three_bin_hand_solve(self):
        mu = find_water_level([1.0, 2.0, 3.0], 3.0, [10.0, 10.0, 10.0])
        assert mu == pytest.approx(3.0)
        powers, _ = waterfill_powers([1.0, 2.0, 3.0], 3.0, [10.0, 10.0, 10.0])
        assert powers == pytest.approx([2.0, 1.0, 0.0])

    def test_infeasible_masks(self):
        with pytest.raises(InfeasibleError):
            find_water_level([1.0, 1.0], 3.0, [1.0, 1.0])

    def test_masks_lost_to_rounding(self):
        # 1e300 + 1 == 1e300, so the fill stays 0 although the masks hold 2 > P
        with pytest.raises(NumericalError, match="cannot reach P"):
            find_water_level([1e300, 1e300], 1.0, [1.0, 1.0])

    def test_overflowed_fill_is_refused(self):
        # 1e308 + 8e307 overflows, so the fill jumps from 0 to inf past P = 1
        with np.errstate(all="ignore"):
            with pytest.raises(NumericalError, match="overflows"):
                waterfill_powers([1e308, 1e308], 1.0, [8e307, 8e307])

    def test_overflowed_event_past_the_crossing_is_kept(self):
        # only the last event overflows; the fill meets P before it
        with np.errstate(all="ignore"):
            assert find_water_level([0.0, 1e308], 0.5, [1.0, 8e307]) == 0.5

    def test_step_lost_at_the_level_is_refused(self):
        # 1e300 + 0.5 rounds back to 1e300, so the fill at that level stays 0
        with np.errstate(all="ignore"):
            with pytest.raises(NumericalError, match="misses P"):
                waterfill_powers([1e300, 1e300], 1.0, [8e299, 8e299])

    def test_overflow_after_the_crossing_segment_is_solved(self):
        # the fill jumps to inf at the overflowed last event, past the segment
        # that meets P
        with np.errstate(all="ignore"):
            powers, mu = waterfill_powers([0.0, 1e308], 5e307, [1e307, 8e307])
        assert powers.tolist() == pytest.approx([1e307, 4e307], rel=1e-15)
        assert powers.sum() == 5e307 and np.isfinite(mu)

    @pytest.mark.parametrize("phi, P, pmax, message", [
        ([np.nan, 1.0], 1.0, [1.0, 1.0], "must be finite"),
        ([1.0, 1.0], 1.0, [np.inf, 1.0], "must be finite"),
        ([1.0, 1.0], 1.0, [-1.0, 3.0], "nonnegative"),
        ([1.0, 1.0], 0.0, [1.0, 1.0], "must be positive"),
        ([1.0, 2.0, 3.0], 1.0, [2.0], "same shape"),
    ], ids=["phi_nan", "pmax_inf", "pmax_negative", "P_zero", "shape_mismatch"])
    def test_domain_errors(self, phi, P, pmax, message):
        with pytest.raises(DomainError, match=message):
            find_water_level(phi, P, pmax)

    # exact values: a crossing on a breakpoint, at tied events, past a full bin
    def test_exact_breakpoint(self):
        # the fill meets P exactly at the breakpoint phi[1] = 1
        assert find_water_level([0.0, 1.0], 1.0, [2.0, 2.0]) == 1.0

    def test_tied_levels_with_zero_mask_bin(self):
        # bin 2 opens and closes at 0.5; bins 1 and 3 fill to 1.0
        assert find_water_level([0.5, 0.5, 0.5], 1.0, [1.0, 0.0, 1.0]) == 1.0

    def test_clipped_bin_exact(self):
        # bin 1 saturates at 0.25 and the rest splits on the last segment
        assert find_water_level([0.1, 0.2, 0.3], 0.7, [0.25, 1.0, 1.0]) == 0.475

    def test_zero_mask_bin_unavailable(self):
        powers, _ = waterfill_powers([0.1, 0.2, 0.3], 1.0, [0.0, 2.0, 2.0])
        assert powers[0] == 0.0
        assert powers.sum() == pytest.approx(1.0, rel=1e-12)

    def test_agrees_with_bisection_oracle(self, rng):
        for _ in range(200):
            n = rng.integers(1, 12)
            phi = rng.uniform(0.0, 5.0, n)
            pmax = rng.uniform(0.1, 2.0, n)
            P = rng.uniform(0.05, 0.95) * pmax.sum()
            mu = find_water_level(phi, P, pmax)
            mu_oracle = bisect_water_level(phi, P, pmax)
            filled = np.clip(mu - phi, 0, pmax).sum()
            filled_oracle = np.clip(mu_oracle - phi, 0, pmax).sum()
            assert filled == pytest.approx(P, rel=1e-12, abs=1e-12)
            assert filled_oracle == pytest.approx(P, rel=1e-9, abs=1e-9)
            assert np.allclose(
                np.clip(mu - phi, 0, pmax), np.clip(mu_oracle - phi, 0, pmax),
                atol=1e-9,
            )

    def test_tie_order_cannot_change_a_bit(self, rng):
        # grid-valued levels and masks make many tied events: bins at one
        # level, zero-mask bins that open and close at once, and bin ends
        # that land on other bins' levels; P on the grid meets breakpoints
        reordered = 0
        for n in [*range(1, 33)] * 8 + [*rng.integers(33, 1025, 200)]:
            phi = rng.integers(0, 8, n) * 0.125
            pmax = rng.integers(0, 4, n) * 0.25
            if pmax.sum() < 0.5:  # room for P on the grid below the masks' total
                pmax[0] = 0.5
            if rng.random() < 0.5:
                P = rng.integers(1, int(4 * pmax.sum())) * 0.25
            else:
                P = rng.uniform(0.01, 0.99) * pmax.sum()
            events = np.concatenate((phi, phi + pmax))
            opens = events.argsort() < n, events.argsort(kind="stable") < n
            reordered += not np.array_equal(*opens)
            mu = find_water_level(phi, P, pmax)
            expected = stable_sweep(phi, P, pmax)
            assert np.float64(mu).tobytes() == np.float64(expected).tobytes()
            powers, _ = waterfill_powers(phi, P, pmax)
            clipped = np.minimum(np.maximum(expected - phi, 0.0), pmax)
            assert powers.tobytes() == clipped.tobytes()
        assert reordered > 0  # the sorts disagreed on which tied events open a bin

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_output_feasibility_property(self, data):
        n = data.draw(st.integers(1, 8))
        phi = data.draw(
            st.lists(st.floats(0.0, 10.0, allow_nan=False), min_size=n, max_size=n)
        )
        pmax = data.draw(
            st.lists(st.floats(0.05, 3.0, allow_nan=False), min_size=n, max_size=n)
        )
        frac = data.draw(st.floats(0.01, 0.99))
        P = frac * sum(pmax)
        powers, mu = waterfill_powers(phi, P, pmax)
        assert np.all(powers >= 0)
        assert np.all(powers <= np.asarray(pmax) + 1e-12)
        assert abs(powers.sum() - P) <= 1e-9 * P
        assert np.allclose(powers, np.clip(mu - np.asarray(phi), 0, pmax))

    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_permutation_equivariance(self, data):
        n = data.draw(st.integers(2, 8))
        phi = np.array(
            data.draw(st.lists(st.floats(0.0, 5.0, allow_nan=False), min_size=n, max_size=n))
        )
        pmax = np.array(
            data.draw(st.lists(st.floats(0.1, 2.0, allow_nan=False), min_size=n, max_size=n))
        )
        P = 0.5 * pmax.sum()
        perm = data.draw(st.permutations(range(n)))
        perm = np.asarray(perm)
        base, _ = waterfill_powers(phi, P, pmax)
        permuted, _ = waterfill_powers(phi[perm], P, pmax[perm])
        assert np.allclose(permuted, base[perm], atol=1e-12)


class TestRobustBestResponse:
    def test_same_bits_as_the_solver_kernel_and_the_waterfill(self, rng):
        # the typed call, the solver's kernel and Phi + waterfill agree bit for bit
        for _ in range(60):
            Q = int(rng.integers(2, 6))
            N = int(rng.integers(2, 40))
            ch, cfg = random_instance(rng, Q, N, eps=float(rng.uniform(0.01, 0.5)))
            prof = random_feasible_profile(cfg, rng)
            for q in range(Q):
                powers, mu = robust_best_response(ch, cfg, prof, q)
                kernel, mu_kernel = best_response_powers(
                    ch.F, ch.sigma2, cfg.eps[q], prof.p, q, cfg.P[q], cfg.pmax[q]
                )
                phi = worst_case_interference(ch, cfg, prof, q)
                filled, mu_filled = waterfill_powers(phi, cfg.P[q], cfg.pmax[q])
                assert powers.tobytes() == kernel.tobytes() == filled.tobytes()
                assert mu == mu_kernel == mu_filled

    def test_symmetric_flat_channel(self):
        F = np.zeros((1, 1, 2))
        ch = ChannelSet(F=F, sigma2=[[1.0, 1.0]])
        cfg = GameConfig(P=[1.0], pmax=[[1.0, 1.0]], eps=[0.0])
        powers, mu = robust_best_response(ch, cfg, PowerProfile([[0.5, 0.5]]), 0)
        assert powers == pytest.approx([0.5, 0.5])
        assert mu == pytest.approx(1.5)

    def test_clip_boundary(self):
        F = np.zeros((1, 1, 2))
        ch = ChannelSet(F=F, sigma2=[[1.0, 2.0]])
        cfg = GameConfig(P=[1.0], pmax=[[1.0, 1.0]], eps=[0.0])
        powers, mu = robust_best_response(ch, cfg, PowerProfile([[0.5, 0.5]]), 0)
        assert powers == pytest.approx([1.0, 0.0])
        assert mu == pytest.approx(2.0)

    def test_interior_response_matches_family_fixed_point(self):
        sys = AntiSymSystem(alpha=0.2, m=2.0, sigma2=0.1, eps=0.1)
        p = interior_p(sys)
        assert p == pytest.approx(0.7 / 1.2, rel=1e-12)
        ch = antisym_channels(sys)
        cfg = antisym_config(sys)
        opponent = PowerProfile([[0.0, 0.0], [1 - p, p]])
        powers, _ = robust_best_response(ch, cfg, opponent, 0)
        assert powers == pytest.approx([p, 1 - p], rel=1e-12)

    def test_classical_reduction_on_random_instances(self, rng):
        # eps = 0 must reproduce an independently coded classical waterfiller
        for _ in range(40):
            Q = int(rng.integers(2, 5))
            N = int(rng.integers(2, 10))
            ch, cfg = random_instance(rng, Q, N, eps=0.0)
            prof = random_feasible_profile(cfg, rng)
            for q in range(Q):
                mine, _ = robust_best_response(ch, cfg, prof, q)
                oracle = classical_best_response(
                    ch.F, ch.sigma2, prof.p, q, cfg.P[q], cfg.pmax[q]
                )
                assert np.abs(mine - oracle).max() <= 1e-10

    def test_monotone_penalty_on_loaded_bin(self, rng):
        # interior N=2 responses: more uncertainty moves power off the bin
        # carrying the larger interferer norm
        for _ in range(20):
            ch, _ = random_instance(rng, 3, 2, strength=0.3, sigma_lo=0.5, sigma_hi=1.0)
            others = rng.uniform(0.1, 0.5, (3, 2))
            prof = PowerProfile(others)
            powers = {}
            for eps in (0.0, 0.2):
                cfg = GameConfig(
                    P=np.ones(3), pmax=np.full((3, 2), 5.0), eps=np.full(3, eps)
                )
                br, _ = robust_best_response(ch, cfg, prof, 0)
                if br.min() <= 1e-12:  # only the interior regime counts
                    break
                powers[eps] = br
            else:
                norms = np.sqrt((others[1:] ** 2).sum(axis=0))
                k = int(np.argmax(norms))
                assert powers[0.2][k] <= powers[0.0][k] + 1e-12


def masked_game(rng, Q, N, eps_kind, strength=0.8, bound=0.5):
    """A random game with masks that shut some bins, and eps zero, uniform or mixed.

    Uniform gives every user eps = bound; mixed draws eps up to bound and
    zeroes half of them, so zero bounds sit beside positive ones. A bin
    whose mask is zero for every other user leaves them all silent there.
    """
    ch, _ = random_instance(rng, Q, N, strength=strength)
    pmax = rng.uniform(0.3, 1.0, (Q, N))
    pmax[rng.random((Q, N)) < 0.3] = 0.0
    pmax[:, 0] = 1.0  # room for P
    eps = {"zero": np.zeros(Q), "uniform": np.full(Q, bound),
           "mixed": rng.uniform(0.1 * bound, bound, Q)}[eps_kind]
    if eps_kind == "mixed":
        eps[rng.permutation(Q)[:Q // 2]] = 0.0
    return ch, GameConfig(P=0.5 * pmax.sum(axis=1), pmax=pmax, eps=eps)


class TestAdversarialChannel:
    """The robust best response is the classical one on the channel the adversary picks.

    conftest's adversarial_channels builds user q's worst case in its ball,
    F + Delta*_q. Tolerances, fixed from the arithmetic before any seed was
    run: bisection's 200 halvings resolve a water level to its last bit,
    and the two spellings of the worst-case level, sigma2 + F p + eps ||p||
    and sigma2 + (F + Delta*) p, differ by a few ulps. Levels here stay
    below 5, whose ulp is 8.9e-16, so powers and relative rates agree within
    1e-12, a thousand ulps.
    """

    POWER_ATOL = 1e-12
    RATE_RTOL = 1e-12

    @pytest.mark.parametrize("eps", ["zero", "uniform", "mixed"])
    def test_worst_case_is_attained_and_best_responded_classically(self, rng, eps):
        silent = moved = 0
        for _ in range(40):
            Q, N = int(rng.integers(2, 7)), int(rng.integers(3, 13))
            ch, cfg = masked_game(rng, Q, N, eps)
            prof = random_feasible_profile(cfg, rng)
            for q in range(Q):
                F = adversarial_channels(ch.F, prof.p, q, cfg.eps[q])
                adversary = ChannelSet(F=F, sigma2=ch.sigma2)
                others = np.delete(prof.p, q, axis=0)
                silent += int((others.sum(axis=0) == 0).sum())
                moved += int((F != ch.F).any())
                # attainment: the nominal rate on F + Delta*_q is the worst-case rate
                worst = user_rate(ch, prof, q, eps_override=float(cfg.eps[q]))
                assert user_rate(adversary, prof, q) == pytest.approx(worst, rel=self.RATE_RTOL)
                # the saddle: the robust response is the classical one on F + Delta*_q
                powers, _ = robust_best_response(ch, cfg, prof, q)
                classical = classical_best_response(F, ch.sigma2, prof.p, q, cfg.P[q],
                                                    cfg.pmax[q])
                np.testing.assert_allclose(powers, classical, rtol=0, atol=self.POWER_ATOL)
        assert silent > 0
        assert (moved > 0) == (eps != "zero")

    @pytest.mark.parametrize("eps", ["zero", "uniform", "mixed"])
    def test_no_point_of_the_ball_rates_below_the_worst_case(self, rng, eps):
        for _ in range(30):
            Q, N = int(rng.integers(2, 7)), int(rng.integers(3, 13))
            ch, cfg = masked_game(rng, Q, N, eps)
            prof = random_feasible_profile(cfg, rng)
            for q in range(Q):
                worst = user_rate(ch, prof, q, eps_override=float(cfg.eps[q]))
                others = np.arange(Q) != q
                for _ in range(20):
                    # a uniform point of each bin's ball of radius eps_q on the
                    # cross vector; clipping at 0 only shrinks the perturbation
                    d = rng.normal(size=(Q - 1, N))
                    d *= cfg.eps[q] * rng.random(N) ** (1 / (Q - 1)) / np.linalg.norm(d, axis=0)
                    F = ch.F.copy()
                    F[others, q, :] = np.maximum(F[others, q, :] + d, 0.0)
                    rate = user_rate(ChannelSet(F=F, sigma2=ch.sigma2), prof, q)
                    assert rate >= worst - self.RATE_RTOL * worst

    @pytest.mark.parametrize("kind", ["jacobi", "gauss_seidel", "random_async"])
    def test_equilibrium_is_classical_on_its_adversarial_channels(self, rng, kind):
        # a converged solve has p within 10 tol of its robust response, which
        # is the classical one on F + Delta*_q within POWER_ATOL
        opts = SolverOptions(tol=1e-9, max_iters=5000)
        schedule = Schedule(kind=kind, seed=3, update_probability=0.5, max_staleness=2)
        for eps in ("zero", "uniform", "mixed"):
            for _ in range(4):
                # random_instance's contraction modulus is at most 0.4 + 0.5 < 1
                Q, N = int(rng.integers(2, 5)), int(rng.integers(3, 10))
                ch, cfg = masked_game(rng, Q, N, eps, strength=0.4, bound=0.5 / (Q - 1))
                result = solve(ch, cfg, default_initial_profile(ch, cfg), schedule, opts)
                assert result.converged
                p = result.profile.p
                for q in range(Q):
                    F = adversarial_channels(ch.F, p, q, cfg.eps[q])
                    classical = classical_best_response(F, ch.sigma2, p, q, cfg.P[q],
                                                        cfg.pmax[q])
                    np.testing.assert_allclose(p[q], classical, rtol=0,
                                               atol=10 * opts.tol + self.POWER_ATOL)


def outcome(call):
    """The bytes of what call returns, or the class of what it raises."""
    try:
        return [np.asarray(x).tobytes() for x in call()]
    except Exception as exc:  # any class: the class is the outcome
        return type(exc)


def per_user_outcome(F, sigma2, eps, p, P, pmax):
    """Phi and best responses user by user, stacked, or the first user's exception class."""
    Q = len(eps)
    return per_row_outcome(F, sigma2, eps, p, P, pmax, np.arange(Q), [p] * Q)


def all_user_outcome(F, sigma2, eps, p, P, pmax):
    def call():
        return (interference_level(F, sigma2, eps, p, ALL_USERS),
                *best_response_powers(F, sigma2, eps, p, ALL_USERS, P, pmax))
    return outcome(call)


def wide_range_game(rng, Q, N, eps):
    """Coefficients over eight decades and powers over eight, a quarter of them zero."""
    F = rng.exponential(size=(Q, Q, N)) * 10.0 ** rng.uniform(-4, 4, (Q, Q, N))
    F[np.arange(Q), np.arange(Q), :] = 0.0
    sigma2 = rng.exponential(size=(Q, N)) + 1e-3
    p = rng.exponential(size=(Q, N)) * 10.0 ** rng.uniform(-6, 2, (Q, N))
    p[rng.random((Q, N)) < 0.25] = 0.0
    eps = {"zero": np.zeros(Q), "uniform": np.full(Q, 0.05),
           "mixed": rng.choice([0.0, 0.05, 2.5], Q)}[eps]
    P = rng.uniform(0.5, 2.0, Q)
    pmax = rng.uniform(1.0, 3.0, (Q, N)) * (P / N)[:, None]
    return F, sigma2, eps, p, P.tolist(), pmax


class TestAllUsers:
    """One call for all users against the same p gives each user's own call, byte for byte."""

    @pytest.mark.parametrize("Q, N", [(1, 1), (1, 1024), (2, 1), (2, 5), (3, 16), (5, 33),
                                      (7, 79), (8, 64), (11, 257), (16, 1), (16, 1024)])
    @pytest.mark.parametrize("eps", ["zero", "uniform", "mixed"])
    def test_bits_equal_the_per_user_calls(self, Q, N, eps):
        rng = np.random.default_rng([Q, N, len(eps)])
        game = wide_range_game(rng, Q, N, eps)
        if eps == "mixed":  # both kinds of user, side by side
            game[2][:2] = (0.0, 2.5)[:Q]
        expected = per_user_outcome(*game)
        assert isinstance(expected, list)
        assert all_user_outcome(*game) == expected

    def test_bits_equal_on_random_games(self):
        rng = np.random.default_rng(2024)
        for _ in range(200):
            Q, N = int(rng.integers(1, 17)), int(rng.integers(1, 80))
            game = wide_range_game(rng, Q, N, str(rng.choice(["zero", "uniform", "mixed"])))
            assert all_user_outcome(*game) == per_user_outcome(*game)

    def overflow_game(self):
        # user 0 (eps 0) holds powers whose squares overflow; no other user
        # reads them, so users 0 and 1 have a finite Phi and user 2 (eps > 0)
        # does not: its robust term sums the overflowing squares
        Q, N = 3, 4
        F = np.full((Q, Q, N), 0.3)
        F[np.arange(Q), np.arange(Q), :] = 0.0
        F[0] = 0.0
        p = np.full((Q, N), 0.25)
        p[0] = 1e200
        return F, np.ones((Q, N)), np.array([0.0, 0.0, 0.05]), p, [1.0] * Q, np.ones((Q, N))

    @pytest.mark.parametrize("errstate, raised", [
        (dict(all="raise"), FloatingPointError),
        (dict(over="ignore", invalid="raise"), DomainError),
    ], ids=["all_raise", "overflow_ignored"])
    def test_eps_zero_user_beside_overflowing_squares(self, errstate, raised):
        # the robust term is never formed for an eps-0 user, so the all-user
        # call raises what the per-user calls raise, not an inf * 0 error
        game = self.overflow_game()
        with np.errstate(**errstate):
            assert per_user_outcome(*game) is raised
            assert all_user_outcome(*game) is raised
            for q in (0, 1):
                assert outcome(lambda: best_response_powers(
                    *game[:2], game[2][q], game[3], q, game[4][q], game[5][q])) != raised
            # users 0 and 1 alone, each against its own copy of p, make a
            # stacked call that forms no robust term and so raises nothing
            views = np.stack([game[3]] * 2)
            assert isinstance(stacked_outcome(*game, np.array([0, 1]), views), list)
            for qs in ([2], [0, 1, 2], [1, 2, 0]):
                qs = np.array(qs)
                views = np.stack([game[3]] * len(qs))
                assert per_row_outcome(*game, qs, views) is raised
                assert stacked_outcome(*game, qs, views) is raised


def stale_views(rng, p, qs):
    """One (Q, N) view per selected user: p with each row rescaled or zeroed at random."""
    scale = rng.uniform(0.25, 4.0, (len(qs), len(p), 1))
    scale[rng.random(scale.shape) < 0.2] = 0.0
    scale[rng.random(scale.shape) < 0.3] = 1.0
    return p * scale


def per_row_outcome(F, sigma2, eps, p, P, pmax, qs, views):
    """Phi and best responses of user qs[b] against views[b], one call per row, stacked.

    A failing row gives the first failing row's exception class.
    """
    def call():
        rows = [(interference_level(F, sigma2, eps[q], view, q),
                 *best_response_powers(F, sigma2, eps[q], view, q, P[q], pmax[q]))
                for q, view in zip(qs.tolist(), views)]
        phi, powers, mu = zip(*rows)
        return np.stack(phi), np.stack(powers), np.array(mu)
    return outcome(call)


def stacked_outcome(F, sigma2, eps, p, P, pmax, qs, views):
    """The same from one call with the index array qs and the (B, Q, N) stack of views."""
    P = np.asarray(P)[qs].tolist()
    def call():
        return (interference_level(F, sigma2, eps[qs], views, qs),
                *best_response_powers(F, sigma2, eps[qs], views, qs, P, pmax[qs]))
    return outcome(call)


class TestStackedViews:
    """One call for B users, each against its own view, gives each user's own call, byte for byte.

    The index-array selection is random_async's round: its updating users
    against the stale views drawn for them.
    """

    def test_bits_equal_the_per_user_calls_on_random_games(self):
        rng = np.random.default_rng(30)
        sizes = set()
        for _ in range(300):
            Q, N = int(rng.integers(1, 9)), int(rng.integers(1, 40))
            game = wide_range_game(rng, Q, N, str(rng.choice(["zero", "uniform", "mixed"])))
            if Q > 1 and rng.random() < 0.5:  # both kinds of user, side by side
                game[2][:2] = rng.permutation([0.0, 2.5])
            for qs in (np.array([int(rng.integers(Q))]), np.arange(Q),
                       np.flatnonzero(rng.random(Q) < 0.5), rng.permutation(Q)[:Q // 2 + 1]):
                if not qs.size:
                    continue
                views = stale_views(rng, game[3], qs)
                expected = per_row_outcome(*game, qs, views)
                assert isinstance(expected, list)
                assert stacked_outcome(*game, qs, views) == expected
                sizes.add((N == 1, "one" if qs.size == 1 else "all" if qs.size == Q else "some"))
        # N = 1 and wider, each with B = 1, B = Q and 1 < B < Q
        assert len(sizes) == 6

    def test_one_row_per_selected_user_in_selection_order(self):
        # a user may appear twice and in any order: row b is user qs[b]'s
        rng = np.random.default_rng(31)
        game = wide_range_game(rng, 5, 7, "mixed")
        qs = np.array([3, 0, 3, 4])
        views = stale_views(rng, game[3], qs)
        assert stacked_outcome(*game, qs, views) == per_row_outcome(*game, qs, views)

    def test_phi_failure_is_raised_before_any_sweep(self):
        # row 0 fails in its sweep (levels that dwarf the masks) and row 1 in
        # Phi (an infinite level): the per-row loop raises row 0's error, the
        # stacked call the first failure of Phi over all rows
        Q, N = 2, 3
        F = np.zeros((Q, Q, N))
        F[0, 1] = 1e308
        sigma2 = np.array([[1e30] * N, [1e308] * N])
        eps, P, pmax = np.zeros(Q), [1.0, 1.0], np.ones((Q, N))
        qs = np.array([0, 1])
        views = np.ones((2, Q, N))
        game = (F, sigma2, eps, views[0], P, pmax)
        with np.errstate(over="ignore"):
            assert per_row_outcome(*game, qs, views) is NumericalError
            assert stacked_outcome(*game, qs, views) is DomainError


class TestProjectionResidual:
    def test_best_response_is_projection(self, rng):
        ch, cfg = random_instance(rng, 3, 6, eps=0.2)
        prof = random_feasible_profile(cfg, rng)
        br, _ = robust_best_response(ch, cfg, prof, 0)
        res = projection_residual(ch, cfg, prof, 0, br)
        assert res <= 1e-8

    def test_uniform_allocation_fails_on_tilted_channel(self, rng):
        ch, cfg = random_instance(rng, 2, 4, sigma_lo=0.1, sigma_hi=3.0)
        prof = random_feasible_profile(cfg, rng)
        uniform = np.full(4, cfg.P[0] / 4)
        res = projection_residual(ch, cfg, prof, 0, uniform)
        assert res > 0

    def test_single_frequency_residual_zero(self):
        ch = ChannelSet(F=np.zeros((2, 2, 1)), sigma2=np.ones((2, 1)))
        cfg = GameConfig(P=[1.0, 1.0], pmax=[[2.0], [2.0]], eps=[0.0, 0.0])
        prof = PowerProfile([[1.0], [1.0]])
        res = projection_residual(ch, cfg, prof, 0, [1.0])
        assert res == pytest.approx(0.0, abs=1e-12)

    @pytest.mark.parametrize("candidate", [[0.5, 0.5, 0.0], [[0.5, 0.5]]],
                             ids=["too_long", "two_d"])
    def test_candidate_shape_refused(self, candidate):
        ch = ChannelSet(F=np.zeros((2, 2, 2)), sigma2=np.ones((2, 2)))
        cfg = GameConfig(P=[1.0, 1.0], pmax=np.ones((2, 2)), eps=[0.0, 0.0])
        prof = PowerProfile(np.full((2, 2), 0.5))
        with pytest.raises(DomainError, match="candidate must be a length-N vector"):
            projection_residual(ch, cfg, prof, 0, candidate)


class TestProjectToSimplex:
    def test_projection_idempotent_and_feasible(self, rng):
        for _ in range(50):
            n = int(rng.integers(1, 9))
            pmax = rng.uniform(0.2, 1.5, n)
            P = 0.6 * pmax.sum()
            v = rng.normal(0, 2, n)
            z = project_to_simplex(v, P, pmax)
            assert np.all(z >= 0) and np.all(z <= pmax + 1e-12)
            assert z.sum() == pytest.approx(P, rel=1e-12)
            again = project_to_simplex(z, P, pmax)
            assert np.allclose(again, z, atol=1e-12)


def pinned_game(rng, Q, N):
    """Game with coefficients over four decades and masks that hold zeros."""
    F = rng.exponential(size=(Q, Q, N)) * 10.0 ** rng.uniform(-2, 2, (Q, Q, N))
    F[np.arange(Q), np.arange(Q), :] = 0.0
    sigma2 = rng.exponential(size=(Q, N)) + 1e-3
    P = rng.uniform(0.5, 2.0, Q)
    pmax = rng.uniform(0.0, 3.0, (Q, N)) * P[:, None]
    pmax[rng.random((Q, N)) < 0.3] = 0.0
    pmax[np.arange(Q), rng.integers(0, N, Q)] = 1.5 * P  # every user keeps room for P
    eps = rng.choice([0.0, 0.05, 0.5], Q)
    return ChannelSet(F=F, sigma2=sigma2), GameConfig(P=P, pmax=pmax, eps=eps)


def test_fill_equals_the_checked_per_user_calls():
    # the checked public waterfill (the 1-D fill_powers path behind its
    # checks) and user_rate, one user at a time, must give the (Q, N) stack's
    # rows and its sum-rate, byte for byte
    rng = np.random.default_rng(11)
    for _ in range(100):
        ch, cfg = pinned_game(rng, int(rng.integers(1, 13)), int(rng.integers(1, 40)))
        levels = ch.sigma2 - rng.exponential(size=ch.sigma2.shape)
        powers, mu = fill_powers(levels, cfg.P, cfg.pmax)
        profile = PowerProfile(powers)
        total = 0.0
        for q in range(cfg.Q):
            expected = waterfill_powers(levels[q], cfg.P[q], cfg.pmax[q])
            assert fill_powers(levels[q], cfg.P[q], cfg.pmax[q])[1] == expected[1] == mu[q]
            assert powers[q].tobytes() == expected[0].tobytes()
            total += user_rate(ch, profile, q)
        assert sum_rate(ch, profile) == total


# sha256 of the outputs of every function that fills or scores all users
# against fixed levels, recorded while each still looped over users: the
# uniform start, consecutive random draws on one generator, the never-used
# masks, the sum-rate, the derived uncertainty bounds and the FDMA oracle.
# Q runs to 12, so some games (N = 1, Q >= 9) meet numpy's pairwise sum
PINNED_FILL_DIGEST = "00ee50c12a637e05235f48a7b2d1a9d92b050fbd5a872fe2f7be2674a4939c26"


def test_pinned_fill_bytes():
    h = hashlib.sha256()
    rng = np.random.default_rng(23)
    for _ in range(300):
        Q, N = int(rng.integers(1, 13)), int(rng.integers(1, 40))
        ch, cfg = pinned_game(rng, Q, N)
        start = default_initial_profile(ch, cfg)
        draws = np.random.default_rng(int(rng.integers(2**32)))
        profiles = [start] + [random_feasible_profile(cfg, draws) for _ in range(5)]
        h.update(np.stack([prof.p for prof in profiles]).tobytes())
        h.update(default_bin_sets(ch, cfg).tobytes())
        h.update(np.array([sum_rate(ch, prof) for prof in profiles]).tobytes())
        for delta in (0.0, 0.3, 0.9):
            nominal, eps = perturb_channels(ch, UncertaintySpec(delta, int(rng.integers(99))))
            h.update(nominal.F.tobytes())
            h.update(eps.tobytes())
    for _ in range(40):
        ch, cfg = pinned_game(rng, 2, int(rng.integers(1, 9)))
        rate, prof = social_optimum_fdma(ch, cfg)
        h.update(np.float64(rate).tobytes())
        h.update(prof.p.tobytes())
    assert h.hexdigest() == PINNED_FILL_DIGEST


def wide_fill_cases(rng):
    """(levels, P, pmax) stacks of N = 1024..2500 bins, for wide sweeps.

    Two jacobi game families' first rounds, then rows whose sweeps meet ties,
    zero masks, constant and negative levels and crossings near the top of
    the events, and last the flat stretch of [0.4, 5.0, 9.0] padded out with
    unused bins.
    """
    for cross, noise in ((0.001, 1e-4), (0.1, 0.01)):  # about 48% and 21% of events below mu
        ch = generate_channels(ChannelGenSpec(Q=8, N=1024, cross_variance=cross,
                                              noise_power=noise, seed=1))
        cfg = GameConfig(P=np.ones(8), pmax=np.ones((8, 1024)), eps=np.full(8, 0.05))
        p = default_initial_profile(ch, cfg).p
        for _ in range(6):
            levels = interference_level(ch.F, ch.sigma2, cfg.eps, p, ALL_USERS)
            yield levels, cfg.P.tolist(), cfg.pmax
            p = fill_powers(levels, cfg.P.tolist(), cfg.pmax)[0]
    for kind in ["spread", "tied", "grid", "constant", "negative"] * 6:
        Q, N = int(rng.integers(1, 5)), int(rng.integers(1024, 2500))
        pmax = rng.uniform(0.0, 3.0, (Q, N))
        pmax[rng.random((Q, N)) < 0.3] = 0.0
        share = 10.0 ** rng.uniform(-3.0, np.log10(0.95), Q)
        share[rng.random(Q) < 0.3] = 0.999  # the crossing lies near the top of the events
        if kind == "tied":  # levels and bin ends on a coarse grid
            pmax = np.round(pmax, 1)
        elif kind == "grid":
            pmax = rng.integers(0, 3, (Q, N)) * 0.5
        P = share * pmax.sum(axis=1)
        if kind == "spread":
            levels = rng.exponential(size=(Q, N)) * 10.0 ** rng.uniform(-2, 2, (Q, N))
        elif kind == "tied":
            levels = np.round(rng.uniform(0.0, 3.0, (Q, N)), 1)
        elif kind == "grid":  # exact sums: the fill meets P on a breakpoint
            levels = rng.integers(0, 50, (Q, N)) * 0.25
            P = np.floor(P) + 0.5
        elif kind == "constant":  # as the uniform start
            levels = np.broadcast_to(-(P[:, None] / N), (Q, N))
        else:  # as a projection of a random point
            levels = -(P[:, None] / N + rng.normal(0.0, P[:, None], (Q, N)))
        yield levels, P, pmax
    flat = np.concatenate(([0.4, 5.0, 9.0], rng.uniform(0.0, 0.4, 500), rng.uniform(10, 20, 1500)))
    masks = np.concatenate(([1.0, 1.0, 1.0], np.zeros(500), np.ones(1500)))
    order = rng.permutation(flat.size)
    yield flat[order], 1.0, masks[order]


# sha256 of fill_powers' powers and water levels on wide_fill_cases(seed 26),
# recorded while every row ran one full sort of its events
PINNED_WIDE_FILL_DIGEST = "f31607607850c8eb99a8bbe6ce4060ea044ffe3ee0494d771407b194ba0116cf"


def test_pinned_wide_fill_bytes():
    h = hashlib.sha256()
    for levels, P, pmax in wide_fill_cases(np.random.default_rng(26)):
        powers, mu = fill_powers(levels, P, pmax)
        h.update(powers.tobytes())
        h.update(np.asarray(mu).tobytes())
    # the padded flat stretch gives the three-bin sweep's level
    assert mu == find_water_level([0.4, 5.0, 9.0], 1.0, [1.0, 1.0, 1.0])
    assert h.hexdigest() == PINNED_WIDE_FILL_DIGEST
    # a level that dwarfs the masks: the fill never leaves 0, or its step is lost
    with np.errstate(all="ignore"):
        for mask, message in ((1.0, "phi dwarfs the masks: the fill cannot reach P in floating point"),
                              (8e299, "phi + pmax overflows or dwarfs P: the water level misses P")):
            levels = np.full((2, 1024), 1e300)
            levels[0, :512] = np.linspace(0.0, 1.0, 512)  # a row that fills
            with pytest.raises(NumericalError, match=re.escape(message)):
                fill_powers(levels[1], 1.0, np.full(1024, mask))
            with pytest.raises(NumericalError, match=re.escape(message)):
                fill_powers(levels, [1.0, 1.0], np.full((2, 1024), mask))


FULL_SWEEP = waterfill._sweep  # the 2N-event sweep, before any test wraps it


@pytest.fixture
def full_sweeps(monkeypatch):
    """The levels phi of every row that fill_powers leaves to the 2N-event sweep, in call order."""
    rows = []

    def recorded(events, P):
        rows.append(events[:events.size // 2].copy())
        return FULL_SWEEP(events, P)

    monkeypatch.setattr(waterfill, "_sweep", recorded)
    return rows


def opens_cases(rng):
    """(kind, levels, P, pmax) stacks of B <= 5 rows for the opens pass.

    Ties, zero-mask bins, constant levels (the uniform start), grid sums
    that meet P on an opening or on a close, P set to the sweep's own fill at
    the lowest close, crossings past the last opening, overflowing closes
    (1e308 + 8e307) and levels that span the float range beside rows that
    fill, and signed zeros.
    """
    kinds = ["spread", "tied", "zero_masks", "constant", "grid", "past_last", "meets_close",
             "overflow", "signed_zeros"]
    for kind in kinds * 60:
        B, N = int(rng.integers(1, 6)), int(rng.choice([1, 2, 3, 16, 64, rng.integers(1, 100)]))
        pmax = rng.uniform(0.5, 3.0, (B, N))
        share = rng.uniform(0.01, 0.99, B)
        if kind == "spread":
            levels = rng.exponential(size=(B, N)) * 10.0 ** rng.uniform(-2, 2, (B, N))
        elif kind == "tied":
            levels, pmax = np.round(rng.uniform(0.0, 3.0, (B, N)), 1), np.round(pmax, 1)
        elif kind == "zero_masks":
            levels = rng.uniform(0.0, 3.0, (B, N))
            pmax[rng.random((B, N)) < 0.3] = 0.0
        elif kind == "constant":
            levels = np.broadcast_to(-(share[:, None] / N), (B, N))
        elif kind == "grid":  # exact sums: the fill meets P on a breakpoint
            levels = rng.integers(0, 8, (B, N)) * 0.125
            pmax = rng.integers(0, 4, (B, N)) * 0.25
        elif kind == "past_last":  # every level lies below the water level
            levels = rng.uniform(0.0, 0.1, (B, N))
            pmax = rng.uniform(1.0, 2.0, (B, N))
        elif kind == "overflow":  # rows whose closes overflow or whose levels span the
            levels = rng.uniform(0.0, 3.0, (B, N))  # float range, among rows that fill
            huge, wide = (rng.random((2, B)) < 0.3)
            levels[huge] = 1e308
            pmax[huge] = 8e307
            levels[wide, 0], pmax[wide, 0] = -1e308, 1e308
            levels[wide, -1] = 1e308
        elif kind == "meets_close":  # P is the sweep's own fill at the lowest close
            levels, pmax = np.round(rng.uniform(0.0, 1.0, (B, N)), 2), np.round(pmax, 2)
        else:  # ties of -0.0 with 0.0, and levels that meet P at zero
            N = int(rng.integers(4, 13))
            levels = rng.choice([-0.5, -0.25, -0.0, 0.0], (B, N))
            pmax = rng.choice([0.25, 0.5, 4.0], (B, N))
        pmax[:, 0] = np.maximum(pmax[:, 0], 0.5)  # room for P below the masks' total
        with np.errstate(over="ignore"):
            room = pmax.sum(axis=1)
        P = share * np.minimum(room, 4.0)
        if kind in ("grid", "tied"):
            P = np.maximum(np.floor(4 * P) / 4, 0.25)
        elif kind == "past_last":  # a level near 0.5, above every level, below every close
            P = np.full(B, 0.5 * N)
        elif kind == "signed_zeros":  # the fill at level 0, exact on this grid
            P = np.minimum(np.maximum(-levels, 0.0), pmax).sum(axis=1)
            P = np.where((P > 0) & (P < room), P, 0.25)
        elif kind == "meets_close":
            fills = [filled[np.flatnonzero(order >= N)[0]]
                     for order, _, _, filled in map(stable_fill, levels, pmax)]
            P = np.where(fills < room, fills, P)
        yield kind, levels, P.tolist(), pmax


class TestOpensPass:
    """A water level from the N sorted levels alone is the 2N-event sweep's, byte for byte."""

    def test_equals_the_full_and_the_stable_sweep(self, full_sweeps):
        rng = np.random.default_rng(31)
        seen = {}
        for kind, levels, P, pmax in opens_cases(rng):
            counts = seen.setdefault(kind, {"opens": 0, "full": 0, "on_opening": 0,
                                            "on_close": 0, "past_last": 0, "zero_apart": 0})
            for errstate in ({"all": "ignore"}, {"all": "raise"}):
                if kind != "overflow" and errstate["all"] == "raise":
                    continue
                with np.errstate(**errstate):
                    rows, fell = [], []
                    for row, P_row, mask in zip(levels, P, pmax):
                        before = len(full_sweeps)
                        rows.append(outcome(lambda: fill_powers(row, P_row, mask)[1:]))
                        fell.append(len(full_sweeps) > before)
                        assert rows[-1] == outcome(
                            lambda: [FULL_SWEEP(np.concatenate((row, row + mask)), P_row)])
                    before = len(full_sweeps)
                    stacked = outcome(lambda: fill_powers(levels, P, pmax)[1:])
                    failed = [r for r in rows if not isinstance(r, list)]
                    # the first failing row's error, or every row's level
                    assert stacked == (failed[0] if failed else [b"".join(r[0] for r in rows)])
                    if not failed:  # the stack leaves the same rows to the full sweep
                        assert len(full_sweeps) - before == sum(fell)
            for row, P_row, mask, out, full in zip(levels, P, pmax, rows, fell):
                counts["full" if full else "opens"] += 1
                if not isinstance(out, list):
                    continue
                mu = np.frombuffer(out[0])[0]
                if mu == 0.0 and 0.0 in row:  # a zero level, signed apart from np.sort's first zero
                    ordered = np.sort(row)
                    counts["zero_apart"] += bool(
                        np.signbit(mu) != np.signbit(ordered[ordered.searchsorted(0.0)]))
                if full:
                    continue
                # the opens pass's own level is the stable-order sweep's
                assert out == [np.float64(stable_sweep(row, P_row, mask)).tobytes()]
                counts["on_opening"] += bool(np.isin(mu, row))
                counts["on_close"] += bool(np.isin(mu, row + mask))
                counts["past_last"] += bool(mu > row.max())
        assert all(counts["opens"] > 0 for counts in seen.values())
        # rows with a mask that closes below the level, or an overflowing close
        assert all(seen[kind]["full"] > 0 for kind in ("zero_masks", "grid", "overflow",
                                                       "signed_zeros"))
        assert seen["grid"]["on_opening"] > 0 and seen["grid"]["on_close"] > 0
        assert seen["past_last"]["past_last"] == seen["past_last"]["opens"] > 0
        assert seen["signed_zeros"]["zero_apart"] > 0

    @pytest.mark.parametrize("kind, Q, N", [("gauss_seidel", 3, 16), ("jacobi", 16, 1024),
                                            ("random_async", 8, 64)])
    def test_unit_mask_games_take_no_full_sweep(self, full_sweeps, kind, Q, N):
        # the benchmark's three game shapes, with budgets P <= 1 under unit
        # masks: no mask can bind, so every row's level comes from the pass
        schedule = Schedule(kind=kind, seed=5, update_probability=0.5, max_staleness=2)
        for P, seed in ((1.0, 1), (0.3, 2)):
            ch = generate_channels(ChannelGenSpec(Q=Q, N=N, cross_variance=0.1, seed=seed))
            cfg = GameConfig(P=np.full(Q, P), pmax=np.ones((Q, N)), eps=np.full(Q, 0.05))
            start = default_initial_profile(ch, cfg)
            solve(ch, cfg, start, schedule, SolverOptions(tol=1e-8, max_iters=60))
        assert full_sweeps == []

    @pytest.mark.parametrize("bin_rank", ["lowest", "median"])
    def test_a_zero_mask_below_the_level_takes_the_full_sweep(self, full_sweeps, monkeypatch,
                                                               bin_rank):
        # a bin below the water level with a zero mask closes there, so the
        # opens pass must leave its row to the full sweep. The lowest bin's
        # close lies below min(phi) + P/N, so such a row goes there before
        # the pass sorts it; the median bin's close is left to the crossing
        crossings = []

        def recorded(*args):
            crossings.append(original(*args))
            return crossings[-1]

        original = waterfill._opens_crossing
        monkeypatch.setattr(waterfill, "_opens_crossing", recorded)
        rng = np.random.default_rng(32)
        rows = 0
        for _ in range(100):
            B, N = int(rng.integers(1, 5)), int(rng.integers(3, 80))
            levels = rng.normal(size=(B, N))
            pmax = rng.uniform(0.5, 2.0, (B, N))
            pmax[rng.random((B, N)) < 0.2] = 0.0
            ranked = levels.argsort(axis=1)
            pmax[np.arange(B), ranked[:, -1]] = 1.0  # room for P
            closed = ranked[:, 0 if bin_rank == "lowest" else N // 2]
            pmax[np.arange(B), closed] = 0.0
            P = (0.9 * pmax.sum(axis=1)).tolist()
            before = len(full_sweeps)
            mu = fill_powers(levels, P, pmax)[1]
            if not (levels[np.arange(B), closed] < mu).all():
                continue  # the closed bin must lie below the level
            rows += B
            assert len(full_sweeps) - before == B
            for row, P_row, mask, level in zip(levels, P, pmax, mu):
                assert fill_powers(row, P_row, mask)[1] == level
            assert len(full_sweeps) - before == 2 * B
        assert rows > 100
        assert all(level is None for level in crossings)
        assert (crossings == []) == (bin_rank == "lowest")


class TestNonFiniteLevels:
    """fill_powers refuses a non-finite phi before any sweep, from the ends it already reads."""

    @pytest.mark.parametrize("N", [1, 16, 1024])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "minus_inf"])
    def test_refused_before_any_sweep(self, full_sweeps, N, bad):
        rng = np.random.default_rng([33, N])
        pmax = np.full((3, N), 2.0)
        for k in sorted({0, N // 2, N - 1}):
            levels = rng.uniform(0.0, 1.0, (3, N))
            levels[0] = 1e300  # a row that would fail in its own sweep: it dwarfs the masks
            levels[1, k] = bad
            with np.errstate(all="raise"):
                with pytest.raises(DomainError, match="^phi and pmax must be finite$"):
                    fill_powers(levels[1], 1.0, pmax[1])
                with pytest.raises(DomainError, match="^phi and pmax must be finite$"):
                    fill_powers(levels, [1.0, 1.0, 1.0], pmax)
        assert full_sweeps == []

    @pytest.mark.parametrize("N", [1, 16, 1024])
    def test_finite_levels_whose_closes_overflow_take_their_sweep(self, full_sweeps, N):
        # 1e308 + 8e307 overflows: the row warns as its own sweep does, and
        # raises its error, that the fill jumps past P
        rng = np.random.default_rng([34, N])
        levels = rng.uniform(0.0, 1.0, (3, N))
        levels[1] = 1e308
        pmax = np.full((3, N), 2.0)
        pmax[1] = 8e307

        def warned(call):
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                raised = outcome(call)
            return raised, [str(w.message) for w in caught]

        own = warned(lambda: [FULL_SWEEP(np.concatenate((levels[1], levels[1] + pmax[1])), 1.0)])
        assert own[0] is NumericalError and "overflow encountered in add" in own[1]
        for call in (lambda: fill_powers(levels[1], 1.0, pmax[1]),
                     lambda: fill_powers(levels, [1.0, 1.0, 1.0], pmax)):
            before = len(full_sweeps)
            assert warned(call) == own
            assert len(full_sweeps) - before == 1
            assert full_sweeps[-1].tolist() == levels[1].tolist()


def raw_entry_outcomes(phi, P, pmax):
    """What find_water_level, waterfill_powers and project_to_simplex give for the budget P."""
    return [outcome(lambda: (find_water_level(phi, P, pmax),)),
            outcome(lambda: waterfill_powers(phi, P, pmax)),
            outcome(lambda: (project_to_simplex(phi, P, pmax),))]


def budget_spellings(P):
    """Budgets P as a config's float64 array, an object array of Python floats and a list,
    then as a float32 array where every value is float32-exact."""
    P = np.asarray(P, dtype=float)
    spellings = [P, P.astype(object), P.tolist()]
    with np.errstate(over="ignore"):
        single = P.astype(np.float32)
    return spellings + [single] if np.array_equal(single, P) else spellings


def float32_exact(P):
    """P rounded to float32 and held as float64."""
    return np.asarray(P, dtype=np.float32).astype(float)


def selected(P, qs):
    """The budgets of the users qs, in P's own spelling."""
    return P[qs] if isinstance(P, np.ndarray) else [P[q] for q in qs.tolist()]


class TestBudgetSpellings:
    """A budget of any real type gives the bits of its float value: fill_powers alone converts it."""

    def test_float32_budgets_give_the_float_levels(self):
        # a step to the float32 itself runs at single precision: the first
        # would raise NumericalError, the second give 0.5333333611488342
        assert find_water_level([0.3, 0.1], np.float32(1.0), [1.0, 1.0]) == 0.7
        mu = find_water_level([0.1, 0.2, 0.3], np.float32(1.0), [2.0, 2.0, 2.0])
        assert mu == 0.5333333333333333 and type(mu) is float

    @pytest.mark.parametrize("seed, typed", enumerate([np.float32, np.float16, np.float64, int,
                                                       Fraction]),
                             ids=["float32", "float16", "float64", "int", "fraction"])
    def test_raw_entries_give_the_bits_of_the_float_budget(self, seed, typed):
        rng = np.random.default_rng([35, seed])
        filled = 0
        for case in range(300):
            N = int(rng.integers(1, 40))
            phi = rng.exponential(size=N) * 10.0 ** rng.uniform(-2, 1, N)
            pmax = rng.uniform(0.5, 3.0, N) + 4.0 / N
            if typed is int:
                P = int(rng.integers(1, int(pmax.sum())))
            elif typed is Fraction and case % 2:  # a rational no float holds
                P = Fraction(int(rng.integers(1, 7 * int(pmax.sum()))), 7)
            else:
                P = typed(rng.uniform(0.05, 0.95) * pmax.sum())
            expected = raw_entry_outcomes(phi, float(P), pmax)
            assert raw_entry_outcomes(phi, P, pmax) == expected
            filled += all(isinstance(x, list) for x in expected)
        assert filled > 250

    def test_stacks_and_rows_read_every_spelling_alike(self):
        rng = np.random.default_rng(36)
        reached = {"float32": 0, "raised": 0}
        for _, levels, P, pmax in opens_cases(rng):
            for budgets in (P, float32_exact(P)):
                spellings = budget_spellings(budgets)
                reached["float32"] += len(spellings) == 4
                expected, *others = [outcome(lambda: fill_powers(levels, spelled, pmax))
                                     for spelled in spellings]
                assert others == [expected] * len(others)
                reached["raised"] += not isinstance(expected, list)
                for row, mask, *row_budgets in zip(levels, pmax, *spellings):
                    expected, *others = [outcome(lambda: fill_powers(row, spelled, mask))
                                         for spelled in row_budgets]
                    assert others == [expected] * len(others)
        assert reached["float32"] >= 540 and reached["raised"] > 10

    @pytest.mark.parametrize("eps", ["zero", "uniform", "mixed"])
    def test_best_responses_read_every_spelling_alike(self, eps):
        rng = np.random.default_rng([37, len(eps)])
        games = [wide_range_game(rng, int(rng.integers(1, 9)), int(rng.integers(1, 70)), eps)
                 for _ in range(40)]
        F = np.full((3, 3, 4), 0.3)
        F[np.arange(3), np.arange(3)] = 0.0
        pmax = np.ones((3, 4))
        pmax[1] = 1e-300  # user 1's masks cannot take its budget: its sweep raises
        games.append((F, np.ones((3, 4)), np.array([0.0, 0.0, 0.05]), np.full((3, 4), 0.25),
                      [1.0, 1.0, 1.0], pmax))
        raised = 0
        for F, sigma2, eps_q, p, P, pmax in games:
            Q = len(p)
            qs = rng.permutation(Q)[:int(rng.integers(1, Q + 1))]
            views = stale_views(rng, p, qs)
            calls = [
                lambda P: [x for q in range(Q)
                           for x in best_response_powers(F, sigma2, eps_q[q], p, q, P[q], pmax[q])],
                lambda P: best_response_powers(F, sigma2, eps_q, p, ALL_USERS, P, pmax),
                lambda P: best_response_powers(F, sigma2, eps_q[qs], views, qs, selected(P, qs),
                                               pmax[qs]),
            ]
            for budgets in (P, float32_exact(P)):
                spellings = budget_spellings(budgets)
                assert len(spellings) == 4 or budgets is P
                for call in calls:
                    expected, *others = [outcome(lambda: call(spelled)) for spelled in spellings]
                    assert others == [expected] * len(others)
                    raised += not isinstance(expected, list)
        assert raised >= 2
