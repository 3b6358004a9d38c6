import warnings

import numpy as np
import pytest

from rategame import (
    ChannelSet,
    DomainError,
    GameConfig,
    StructuralError,
    build_E,
    build_Smax,
    build_report,
    contraction_modulus,
    default_bin_sets,
    empirical_contraction_check,
    full_bin_sets,
    spectral_radius,
)
from rategame.conditions import report_to_text
from rategame.twouser import AntiSymSystem, antisym_channels, antisym_config

from conftest import random_instance


def make_cfg(Q, N, eps):
    return GameConfig(P=np.ones(Q), pmax=np.full((Q, N), 1.0), eps=np.asarray(eps, dtype=float))


class TestBuildE:
    def test_two_user_rows_carry_eps(self):
        cfg = make_cfg(2, 2, [0.1, 0.2])
        assert np.array_equal(build_E(cfg), [[0.0, 0.1], [0.2, 0.0]])

    def test_zero_eps(self):
        cfg = make_cfg(3, 2, [0.0, 0.0, 0.0])
        assert np.array_equal(build_E(cfg), np.zeros((3, 3)))

    def test_uniform_eps_radius(self):
        cfg = make_cfg(3, 2, [0.2, 0.2, 0.2])
        assert spectral_radius(build_E(cfg)) == pytest.approx(0.4, abs=1e-12)


class TestBuildSmax:
    def test_max_over_shared_bins(self):
        F = np.zeros((2, 2, 2))
        F[1, 0, :] = (0.2, 0.4)
        F[0, 1, :] = (0.3, 0.1)
        ch = ChannelSet(F=F, sigma2=np.ones((2, 2)))
        S = build_Smax(ch, np.ones((2, 2), dtype=bool))
        assert S[0, 1] == pytest.approx(0.4)
        assert S[1, 0] == pytest.approx(0.3)
        assert S[0, 0] == S[1, 1] == 0.0

    def test_zero_channel(self):
        ch = ChannelSet(F=np.zeros((3, 3, 2)), sigma2=np.ones((3, 2)))
        assert np.array_equal(build_Smax(ch, full_bin_sets(ch)), np.zeros((3, 3)))

    def test_empty_intersection(self):
        F = np.zeros((2, 2, 2))
        F[1, 0, :] = 0.9
        F[0, 1, :] = 0.9
        ch = ChannelSet(F=F, sigma2=np.ones((2, 2)))
        S = build_Smax(ch, np.eye(2, dtype=bool))
        assert np.array_equal(S, np.zeros((2, 2)))

    @pytest.mark.parametrize("bins", [np.ones((2, 2), dtype=bool), [[0, 1, 2], [0, 1, 2]]],
                             ids=["wrong_shape", "index_lists"])
    def test_anything_but_a_mask_refused(self, bins):
        ch = ChannelSet(F=np.zeros((2, 2, 3)), sigma2=np.ones((2, 3)))
        with pytest.raises(StructuralError, match=r"boolean mask of shape \(2, 3\)"):
            build_Smax(ch, bins)

    def test_matches_pairwise_loop_on_random_bin_sets(self, rng):
        # entry by entry over the shared bins, empty sets and all-bin sets included
        for _ in range(20):
            Q, N = rng.integers(1, 6), rng.integers(2, 12)
            ch, _ = random_instance(rng, Q, N, strength=0.8)
            bin_sets = [np.flatnonzero(rng.random(N) < rng.random()) for _ in range(Q)]
            expected = np.zeros((Q, Q))
            for q in range(Q):
                for r in range(Q):
                    shared = np.intersect1d(bin_sets[q], bin_sets[r])
                    if r != q and shared.size:
                        expected[q, r] = ch.F[r, q, shared].max()
            mask = np.zeros((Q, N), dtype=bool)
            for q in range(Q):
                mask[q, bin_sets[q]] = True
            assert np.array_equal(build_Smax(ch, mask), expected)


class TestNeverUsedSet:
    def test_flat_noise_generous_masks(self):
        ch = ChannelSet(F=np.zeros((2, 2, 4)), sigma2=np.full((2, 4), 0.5))
        cfg = make_cfg(2, 4, [0.0, 0.0])
        assert default_bin_sets(ch, cfg).all()

    def test_enormous_noise_bin_dropped(self):
        sigma2 = np.array([[1.0, 1.0, 1e6, 1.0]])
        ch = ChannelSet(F=np.zeros((1, 1, 4)), sigma2=sigma2)
        cfg = GameConfig(P=[0.5], pmax=[[1.0] * 4], eps=[0.0])
        assert list(np.flatnonzero(~default_bin_sets(ch, cfg)[0])) == [2]

    def test_single_bin_always_used(self):
        ch = ChannelSet(F=np.zeros((1, 1, 1)), sigma2=[[3.0]])
        cfg = GameConfig(P=[1.0], pmax=[[2.0]], eps=[0.0])
        assert default_bin_sets(ch, cfg).all()


def _char_poly_radius(M):
    """Largest root modulus of det(x I - M) from trace identities, n = 2 or 3."""
    tr, det = np.trace(M), np.linalg.det(M)
    if M.shape[0] == 2:
        coeffs = [1.0, -tr, det]
    else:
        coeffs = [1.0, -tr, 0.5 * (tr * tr - np.trace(M @ M)), -det]
    return np.max(np.abs(np.roots(coeffs)))


class TestSpectralRadius:
    def test_cyclic_two_by_two(self):
        assert spectral_radius([[0.0, 0.3], [0.5, 0.0]]) == pytest.approx(
            np.sqrt(0.15), abs=1e-12
        )

    def test_zero_matrix(self):
        assert spectral_radius(np.zeros((3, 3))) == 0.0

    def test_uniform_eps_three_users(self):
        M = np.full((3, 3), 0.1)
        np.fill_diagonal(M, 0.0)
        assert spectral_radius(M) == pytest.approx(0.2, abs=1e-12)

    def test_matches_char_poly_on_random_small(self, rng):
        for _ in range(100):
            n = int(rng.integers(2, 4))
            M = rng.uniform(0, 1, (n, n))
            expected = _char_poly_radius(M)
            assert spectral_radius(M) == pytest.approx(expected, rel=1e-10, abs=1e-12)

    def test_nilpotent_is_exactly_zero(self):
        assert spectral_radius([[0.0, 1.0], [0.0, 0.0]]) == 0.0

    def test_reducible_diagonal_exact_without_warning(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert spectral_radius(np.diag([0.0, 0.0, 0.3, 0.0])) == 0.3

    def test_rejects_negative_entries(self):
        with pytest.raises(DomainError):
            spectral_radius([[0.0, -0.1], [0.0, 0.0]])

    @pytest.mark.parametrize("M", [np.ones((2, 3)), np.ones(3)], ids=["non_square", "one_d"])
    def test_rejects_non_square(self, M):
        with pytest.raises(StructuralError, match="matrix must be square"):
            spectral_radius(M)


class TestContractionModulus:
    def test_unit_weights_row_sum(self):
        S = np.array([[0.0, 0.25], [0.15, 0.0]])
        E = np.array([[0.0, 0.05], [0.05, 0.0]])
        assert contraction_modulus(S, E) == pytest.approx(0.3)

    def test_zero_matrix(self):
        assert contraction_modulus(np.zeros((2, 2)), np.zeros((2, 2))) == 0.0

    def test_hand_sums(self):
        M = np.array([[0.0, 0.3], [0.2, 0.0]])
        assert contraction_modulus(M, np.zeros((2, 2))) == pytest.approx(0.3)

    @pytest.mark.parametrize("Smax, E", [
        (np.zeros((2, 2)), np.zeros((3, 3))),
        (np.zeros((2, 3)), np.zeros((2, 3))),
        (np.zeros(3), np.zeros(3)),
    ], ids=["mismatched", "non_square", "one_d"])
    def test_rejects_mismatched_or_non_square(self, Smax, E):
        with pytest.raises(StructuralError, match="Smax and E must be square matrices of one shape"):
            contraction_modulus(Smax, E)


class TestReport:
    def test_fig1_hand_assembly(self):
        sys = AntiSymSystem(alpha=0.2, m=2.0, sigma2=0.1, eps=0.1)
        report = build_report(antisym_channels(sys), antisym_config(sys))
        assert np.array_equal(report.E, [[0.0, 0.1], [0.1, 0.0]])
        assert np.allclose(report.Smax, [[0.0, 0.4], [0.4, 0.0]])
        assert report.rho_E == pytest.approx(0.1, abs=1e-12)
        assert report.rho_Smax == pytest.approx(0.4, abs=1e-12)
        assert report.uniqueness_holds
        assert report.uniform_eps_margin == pytest.approx(1 - 0.1 - 0.4, abs=1e-12)
        assert report.contraction_modulus == pytest.approx(0.5, abs=1e-12)

    def test_uniform_margin_matches_formula(self, rng):
        for Q in range(2, 9):
            ch, cfg = random_instance(rng, Q, 4, eps=0.07)
            report = build_report(ch, cfg, bin_sets=full_bin_sets(ch))
            assert report.rho_E == pytest.approx(0.07 * (Q - 1), abs=1e-12)
            assert report.uniform_eps_margin == pytest.approx(
                1 - 0.07 * (Q - 1) - report.rho_Smax, abs=1e-12
            )

    def test_strict_inequality_at_boundary(self):
        # rho(Smax) exactly equal to 1 - rho(E) must not pass
        F = np.zeros((2, 2, 1))
        F[1, 0, 0] = 0.8
        F[0, 1, 0] = 0.8
        ch = ChannelSet(F=F, sigma2=np.ones((2, 1)))
        cfg = GameConfig(P=[0.5, 0.5], pmax=[[1.0], [1.0]], eps=[0.2, 0.2])
        report = build_report(ch, cfg)
        assert report.rho_Smax == pytest.approx(0.8, abs=1e-12)
        assert not report.uniqueness_holds

    def test_text_block_round_trips_keys(self):
        sys = AntiSymSystem(alpha=0.2, m=2.0, sigma2=0.1, eps=0.1)
        text = report_to_text(build_report(antisym_channels(sys), antisym_config(sys)))
        keys = [line.split()[0] for line in text.strip().splitlines()]
        for expected in ("Q", "rho_E", "rho_Smax", "uniqueness_holds",
                         "contraction_modulus", "E[1,2]", "Smax[2,1]"):
            assert expected in keys


class TestEmpiricalContraction:
    def test_decoupled_channel_ratio_zero(self, rng):
        ch = ChannelSet(F=np.zeros((2, 2, 3)), sigma2=np.ones((2, 3)))
        cfg = make_cfg(2, 3, [0.0, 0.0])
        assert empirical_contraction_check(ch, cfg, trials=20, seed=0) == 0.0

    def test_ratio_below_modulus_random_instances(self, rng):
        for trial in range(10):
            Q = int(rng.integers(2, 4))
            ch, cfg = random_instance(rng, Q, 5, strength=0.7, eps=0.1)
            report = build_report(ch, cfg, bin_sets=full_bin_sets(ch))
            ratio = empirical_contraction_check(ch, cfg, trials=100, seed=trial)
            assert ratio <= report.contraction_modulus + 1e-9

    def test_fig1_instance_many_pairs(self):
        sys = AntiSymSystem(alpha=0.2, m=2.0, sigma2=0.1, eps=0.1)
        ch, cfg = antisym_channels(sys), antisym_config(sys)
        report = build_report(ch, cfg, bin_sets=full_bin_sets(ch))
        ratio = empirical_contraction_check(ch, cfg, trials=1000, seed=7)
        assert ratio <= report.contraction_modulus + 1e-9
