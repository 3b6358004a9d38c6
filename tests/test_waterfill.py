import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from rategame import (
    ChannelSet,
    GameConfig,
    InfeasibleError,
    PowerProfile,
    find_water_level,
    project_to_simplex,
    projection_residual,
    random_feasible_profile,
    robust_best_response,
)
from rategame.twouser import AntiSymSystem, antisym_channels, antisym_config, interior_p
from rategame.waterfill import waterfill_powers

from conftest import bisect_water_level, classical_best_response, random_instance


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
    def test_symmetric_flat_channel(self):
        F = np.zeros((1, 1, 2))
        ch = ChannelSet(F=F, sigma2=[[1.0, 1.0]])
        cfg = GameConfig(P=[1.0], pmax=[[1.0, 1.0]], eps=[0.0])
        br = robust_best_response(ch, cfg, PowerProfile([[0.5, 0.5]]), 0)
        assert br.powers == pytest.approx([0.5, 0.5])
        assert br.mu == pytest.approx(1.5)
        assert list(br.active_set) == [0, 1]
        assert list(br.clipped_set) == []

    def test_clip_boundary(self):
        F = np.zeros((1, 1, 2))
        ch = ChannelSet(F=F, sigma2=[[1.0, 2.0]])
        cfg = GameConfig(P=[1.0], pmax=[[1.0, 1.0]], eps=[0.0])
        br = robust_best_response(ch, cfg, PowerProfile([[0.5, 0.5]]), 0)
        assert br.powers == pytest.approx([1.0, 0.0])
        assert br.mu == pytest.approx(2.0)
        assert list(br.clipped_set) == [0]

    def test_interior_response_matches_family_fixed_point(self):
        sys = AntiSymSystem(alpha=0.2, m=2.0, sigma2=0.1, eps=0.1)
        p = interior_p(sys)
        assert p == pytest.approx(0.7 / 1.2, rel=1e-12)
        ch = antisym_channels(sys)
        cfg = antisym_config(sys)
        opponent = PowerProfile([[0.0, 0.0], [1 - p, p]])
        br = robust_best_response(ch, cfg, opponent, 0)
        assert br.powers == pytest.approx([p, 1 - p], rel=1e-12)

    def test_classical_reduction_on_random_instances(self, rng):
        # eps = 0 must reproduce an independently coded classical waterfiller
        for _ in range(40):
            Q = int(rng.integers(2, 5))
            N = int(rng.integers(2, 10))
            ch, cfg = random_instance(rng, Q, N, eps=0.0)
            prof = random_feasible_profile(cfg, rng)
            for q in range(Q):
                mine = robust_best_response(ch, cfg, prof, q).powers
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
                br = robust_best_response(ch, cfg, prof, 0)
                if br.powers.min() <= 1e-12:  # only the interior regime counts
                    break
                powers[eps] = br.powers
            else:
                norms = np.sqrt((others[1:] ** 2).sum(axis=0))
                k = int(np.argmax(norms))
                assert powers[0.2][k] <= powers[0.0][k] + 1e-12


class TestProjectionResidual:
    def test_best_response_is_projection(self, rng):
        ch, cfg = random_instance(rng, 3, 6, eps=0.2)
        prof = random_feasible_profile(cfg, rng)
        br = robust_best_response(ch, cfg, prof, 0)
        res = projection_residual(ch, cfg, prof, 0, br.powers)
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
