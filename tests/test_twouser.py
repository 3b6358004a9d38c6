import numpy as np
import pytest

from rategame import (
    ChannelSet,
    DegenerateSystemError,
    DomainError,
    GameConfig,
    PowerProfile,
    RegimeError,
    Schedule,
    SolverOptions,
    UnsupportedArityError,
    alpha_crit,
    alpha_roots,
    antisym_channels,
    antisym_config,
    antisym_profile,
    antisym_sum_rate,
    classify_frequency_sets,
    default_initial_profile,
    dense_overlap_solve,
    interior_dp_deps,
    interior_p,
    partition_derivative,
    solve,
    split_sum_rate_slope,
    sum_rate,
)
from rategame.twouser import AntiSymSystem, reconstruct_powers

TIGHT = SolverOptions(tol=1e-13, max_iters=200_000)


def random_flat_instance(rng, N, eps, flo=0.05, fhi=0.85, sigma2=0.5):
    F = np.zeros((2, 2, N))
    F[1, 0, :] = rng.uniform(flo, fhi, N)
    F[0, 1, :] = rng.uniform(flo, fhi, N)
    ch = ChannelSet(F=F, sigma2=np.full((2, N), sigma2))
    cfg = GameConfig(P=[1.0, 1.0], pmax=np.full((2, N), 1.0), eps=[eps, eps])
    return ch, cfg


class TestInteriorSplit:
    def test_zero_uncertainty_value(self):
        sys = AntiSymSystem(alpha=0.2, m=2.0, sigma2=0.1, eps=0.0)
        assert interior_p(sys) == pytest.approx(0.8 / 1.4, rel=1e-15)

    def test_with_uncertainty(self):
        sys = AntiSymSystem(alpha=0.2, m=2.0, sigma2=0.1, eps=0.1)
        assert interior_p(sys) == pytest.approx(0.7 / 1.2, rel=1e-15)

    def test_symmetric_channel_limit(self):
        sys = AntiSymSystem(alpha=0.3, m=1.0, sigma2=0.5, eps=0.05)
        assert interior_p(sys) == pytest.approx(0.5, rel=1e-15)

    def test_lower_bound_half(self):
        for alpha in (0.1, 0.2, 0.3):
            for m in (1.5, 2.0, 3.0):
                for eps in (0.0, 0.05, 0.1):
                    sys = AntiSymSystem(alpha=alpha, m=m, sigma2=0.1, eps=eps)
                    try:
                        p = interior_p(sys)
                    except RegimeError:
                        continue
                    assert p >= 0.5

    def test_float32_fields_give_the_bits_of_their_float_values(self):
        # the fields are stored as Python floats: at single precision a float32
        # alpha would make interior_p give 0.5714285969734192
        fields = ("alpha", "m", "sigma2", "eps")
        assert interior_p(AntiSymSystem(alpha=np.float32(0.2), m=2.0, sigma2=0.1)) == (
            interior_p(AntiSymSystem(alpha=float(np.float32(0.2)), m=2.0, sigma2=0.1))
        ) == 0.5714285729490981
        for values in [(0.2, 2.0, 0.1, 0.0), (0.1, 3.0, 0.5, 0.05), (0.25, 1.5, 2.0, 0.1)]:
            single = AntiSymSystem(*map(np.float32, values))
            double = AntiSymSystem(*(float(np.float32(v)) for v in values))
            assert all(type(getattr(single, f)) is float for f in fields) and single == double
            for closed_form in (interior_p, interior_dp_deps, antisym_sum_rate):
                assert closed_form(single).hex() == closed_form(double).hex()
            assert antisym_channels(single).F.tobytes() == antisym_channels(double).F.tobytes()

    def test_regime_error_nonpositive_denominator(self):
        for closed_form in (interior_p, interior_dp_deps):
            with pytest.raises(RegimeError):
                closed_form(AntiSymSystem(alpha=0.6, m=3.0, sigma2=0.1, eps=0.0))

    def test_regime_error_at_fdma_boundary(self):
        # p would reach 1 exactly: the clamp is active, the linear form invalid
        for closed_form in (interior_p, interior_dp_deps):
            with pytest.raises(RegimeError):
                closed_form(AntiSymSystem(alpha=0.3, m=3.0, sigma2=0.1, eps=0.1))


class TestSplitSensitivity:
    def test_hand_value(self):
        sys = AntiSymSystem(alpha=0.2, m=2.0, sigma2=0.1, eps=0.0)
        assert interior_dp_deps(sys) == pytest.approx(0.2 / (4 * 0.49), rel=1e-12)

    def test_symmetric_channel_is_insensitive(self):
        sys = AntiSymSystem(alpha=0.3, m=1.0, sigma2=0.5, eps=0.0)
        assert interior_dp_deps(sys) == 0.0

    def test_matches_central_difference(self):
        h = 1e-6
        for alpha, m, eps in [(0.1, 1.5, 0.0), (0.2, 2.0, 0.05), (0.3, 2.0, 0.1)]:
            sys = AntiSymSystem(alpha=alpha, m=m, sigma2=0.1, eps=eps)
            up = interior_p(AntiSymSystem(alpha=alpha, m=m, sigma2=0.1, eps=eps + h))
            dn = interior_p(AntiSymSystem(alpha=alpha, m=m, sigma2=0.1, eps=eps - h)) \
                if eps - h >= 0 else None
            if dn is None:
                continue
            fd = (up - dn) / (2 * h)
            assert interior_dp_deps(sys) == pytest.approx(fd, rel=1e-6)


class TestAntisymSumRate:
    def test_two_code_paths_agree(self):
        sys = AntiSymSystem(alpha=0.2, m=2.0, sigma2=0.1, eps=0.1)
        prof = antisym_profile(interior_p(sys))
        assert antisym_sum_rate(sys) == pytest.approx(
            sum_rate(antisym_channels(sys), prof), rel=1e-12
        )

    def test_constant_in_eps_at_critical_interference(self):
        for m, s2 in [(1.5, 0.1), (2.0, 1.0), (3.0, 0.1)]:
            ac = alpha_crit(m, s2)
            vals = [
                antisym_sum_rate(AntiSymSystem(alpha=ac, m=m, sigma2=s2, eps=eps))
                for eps in np.linspace(0.0, 0.1, 6)
            ]
            assert max(vals) - min(vals) < 1e-9

    def test_increasing_in_eps_under_high_interference(self):
        vals = [
            antisym_sum_rate(AntiSymSystem(alpha=0.4, m=2.0, sigma2=1e-3, eps=eps))
            for eps in np.linspace(0.0, 0.15, 7)
        ]
        assert all(b > a for a, b in zip(vals, vals[1:]))


class TestAlphaCrit:
    def test_hand_value(self):
        assert alpha_crit(2.0, 1.0) == pytest.approx((np.sqrt(17) - 3) / 4, rel=1e-14)

    def test_vanishes_with_noise(self):
        # leading order sqrt(sigma2/m) as the noise goes to zero
        for s2 in (1e-4, 1e-6, 1e-8):
            ac = alpha_crit(2.0, s2)
            assert ac == pytest.approx(np.sqrt(s2 / 2.0), rel=2e-2)

    def test_kills_the_split_slope_everywhere(self):
        for m, s2 in [(1.5, 0.1), (2.0, 1.0), (3.0, 0.5)]:
            ac = alpha_crit(m, s2)
            for p in np.arange(0.5, 0.999, 0.05):
                assert abs(split_sum_rate_slope(ac, m, s2, p)) <= 1e-9


class TestAlphaRoots:
    def test_zero_root_present(self):
        roots = alpha_roots(2.0, 1.0, 0.6)
        assert 0.0 in roots

    def test_split_dependent_root_magnitude(self):
        roots = alpha_roots(2.0, 1.0, 0.6)
        assert abs(roots[3]) == pytest.approx(0.2 / 0.56, rel=1e-12)

    def test_positive_branch_is_alpha_crit(self):
        for m, s2 in [(1.5, 0.2), (2.0, 1.0), (3.0, 0.7)]:
            roots = alpha_roots(m, s2, 0.7)
            assert roots[2] == pytest.approx(alpha_crit(m, s2), rel=1e-12)

    def test_roots_kill_slope_where_defined(self):
        for m, s2, p in [(2.0, 1.0, 0.6), (3.0, 0.5, 0.7), (1.5, 0.1, 0.55)]:
            for root in alpha_roots(m, s2, p)[1:]:
                d1 = s2 + root * (1 - p)
                d2 = s2 + m * root * p
                if d1 <= 0 or d2 <= 0:
                    continue  # slope formula undefined there
                assert abs(split_sum_rate_slope(root, m, s2, p)) <= 1e-8


class TestClassifyFrequencySets:
    def solve_eq(self, ch, cfg):
        res = solve(ch, cfg, default_initial_profile(ch, cfg), Schedule(kind="jacobi"), TIGHT)
        assert res.converged
        return res.profile

    def test_fdma_equilibrium_has_empty_overlap(self):
        F = np.zeros((2, 2, 2))
        F[1, 0, :] = 2.0
        F[0, 1, :] = 2.0
        ch = ChannelSet(F=F, sigma2=np.full((2, 2), 0.1))
        cfg = GameConfig(P=[1.0, 1.0], pmax=np.full((2, 2), 2.0), eps=[0.0, 0.0])
        prof = PowerProfile([[1.0, 0.0], [0.0, 1.0]])  # FDMA fixed point
        sys = classify_frequency_sets(ch, cfg, prof)
        assert sys.d_ol.size == 0
        assert sys.d1.size == 1 and sys.d2.size == 1

    def test_interior_antisym_is_all_overlap(self):
        asys = AntiSymSystem(alpha=0.2, m=2.0, sigma2=0.1, eps=0.1)
        ch, cfg = antisym_channels(asys), antisym_config(asys)
        sys = classify_frequency_sets(ch, cfg, self.solve_eq(ch, cfg))
        assert list(sys.d_ol) == [0, 1]
        assert sys.d1.size == sys.d2.size == 0

    def test_reconstruction_matches_solver(self, rng):
        for _ in range(5):
            ch, cfg = random_flat_instance(rng, 8, 0.1)
            prof = self.solve_eq(ch, cfg)
            sys = classify_frequency_sets(ch, cfg, prof)
            rec = reconstruct_powers(sys)
            assert np.abs(rec - prof.p[:, sys.d_ol].T).max() <= 1e-8

    def test_dense_solve_matches_block_formulas(self, rng):
        for _ in range(5):
            ch, cfg = random_flat_instance(rng, 8, 0.08)
            prof = self.solve_eq(ch, cfg)
            sys = classify_frequency_sets(ch, cfg, prof)
            dense_p, dense_mu = dense_overlap_solve(sys)
            assert np.abs(dense_p - reconstruct_powers(sys)).max() <= 1e-10
            assert abs(dense_mu[0] - sys.offsets[0]) <= 1e-10
            assert abs(dense_mu[1] - sys.offsets[1]) <= 1e-10

    def test_singular_overlap_block_refused(self):
        F = np.zeros((2, 2, 2))
        F[1, 0, :] = F[0, 1, :] = 1.0
        ch = ChannelSet(F=F, sigma2=np.full((2, 2), 0.1))
        cfg = GameConfig(P=[1.0, 1.0], pmax=np.full((2, 2), 1.0), eps=[0.0, 0.0])
        with pytest.raises(DegenerateSystemError, match="singular overlap block"):
            classify_frequency_sets(ch, cfg, PowerProfile(np.full((2, 2), 0.5)))

    def test_mask_active_on_occupied_bin_refused(self):
        F = np.zeros((2, 2, 2))
        F[1, 0, :] = F[0, 1, :] = 0.2
        ch = ChannelSet(F=F, sigma2=np.full((2, 2), 0.1))
        cfg = GameConfig(P=[1.0, 1.0], pmax=np.full((2, 2), 0.6), eps=[0.0, 0.0])
        with pytest.raises(DegenerateSystemError, match="mask active"):
            classify_frequency_sets(ch, cfg, PowerProfile([[0.6, 0.4], [0.4, 0.6]]))

    def test_requires_matching_two_user_setup(self, rng):
        ch, cfg = random_flat_instance(rng, 4, 0.1)
        prof = self.solve_eq(ch, cfg)
        uneven = GameConfig(P=cfg.P, pmax=cfg.pmax, eps=[0.1, 0.2])
        with pytest.raises(DomainError):
            classify_frequency_sets(ch, uneven, prof)
        bumpy = ChannelSet(F=ch.F, sigma2=ch.sigma2 * np.linspace(1, 2, 4)[None, :])
        with pytest.raises(DomainError):
            classify_frequency_sets(bumpy, cfg, prof)
        with pytest.raises(UnsupportedArityError):
            classify_frequency_sets(
                ChannelSet(F=np.zeros((3, 3, 4)), sigma2=np.ones((3, 4))),
                GameConfig(P=np.ones(3), pmax=np.full((3, 4), 1.0), eps=np.full(3, 0.1)),
                PowerProfile(np.full((3, 4), 0.25)),
            )


class TestPartitionDerivative:
    def equilibrium_system(self, ch, cfg):
        res = solve(ch, cfg, default_initial_profile(ch, cfg), Schedule(kind="jacobi"), TIGHT)
        assert res.converged
        return classify_frequency_sets(ch, cfg, res.profile), res

    def test_exclusive_bins_have_zero_derivative(self):
        F = np.zeros((2, 2, 2))
        F[1, 0, :] = 2.0
        F[0, 1, :] = 2.0
        ch = ChannelSet(F=F, sigma2=np.full((2, 2), 0.1))
        cfg = GameConfig(P=[1.0, 1.0], pmax=np.full((2, 2), 2.0), eps=[0.0, 0.0])
        sys = classify_frequency_sets(ch, cfg, PowerProfile([[1.0, 0.0], [0.0, 1.0]]))
        dJ, _ = partition_derivative(sys, ch)
        assert np.array_equal(dJ, [0.0, 0.0])

    def test_matches_finite_difference_through_solver(self, rng):
        h = 1e-5
        checked = 0
        for _ in range(4):
            ch, cfg = random_flat_instance(rng, 8, 0.1)
            sys, res = self.equilibrium_system(ch, cfg)
            dJ, _ = partition_derivative(sys, ch)
            J = {}
            same_partition = True
            for sgn in (1, -1):
                shifted = GameConfig(P=cfg.P, pmax=cfg.pmax, eps=cfg.eps + sgn * h)
                s2, r2 = self.equilibrium_system(ch, shifted)
                if not (
                    np.array_equal(s2.d_ol, sys.d_ol)
                    and np.array_equal(s2.d1, sys.d1)
                    and np.array_equal(s2.d2, sys.d2)
                ):
                    same_partition = False
                    break
                J[sgn] = -(r2.profile.p[0] * r2.profile.p[1])
            if not same_partition:
                continue
            fd = (J[1] - J[-1]) / (2 * h)
            scale = np.maximum(np.maximum(np.abs(dJ), np.abs(fd)), 1e-12)
            assert (np.abs(dJ - fd) / scale)[sys.d_ol].max() <= 1e-4
            checked += 1
        assert checked >= 2

    def test_large_n_sign_violations_shrink_with_n(self, rng):
        # the asymptotic monotone-partitioning property: worst negative values
        # on fully overlapped random instances decay at roughly 1/N^2
        worst = {}
        for N in (32, 128):
            w = 0.0
            for _ in range(3):
                ch, cfg = random_flat_instance(rng, N, 0.1)
                sys, _ = self.equilibrium_system(ch, cfg)
                dJ, _ = partition_derivative(sys, ch)
                w = min(w, dJ.min())
            worst[N] = w
        assert worst[128] >= worst[32]  # violations shrink as N grows
        assert worst[128] >= -1e-3

    def test_boundary_bins_flagged(self, rng):
        # push an instance close to a partition change and look for the flag:
        # a bin whose weaker user is near zero power must be flagged
        F = np.zeros((2, 2, 4))
        F[1, 0, :] = (0.97, 0.2, 0.3, 0.4)  # bin 1 nearly repels user 1
        F[0, 1, :] = (0.4, 0.3, 0.2, 0.1)
        ch = ChannelSet(F=F, sigma2=np.full((2, 4), 0.05))
        cfg = GameConfig(P=[1.0, 1.0], pmax=np.full((2, 4), 1.0), eps=[0.0, 0.0])
        res = solve(ch, cfg, default_initial_profile(ch, cfg), Schedule(kind="jacobi"), TIGHT)
        sys = classify_frequency_sets(ch, cfg, res.profile)
        dJ, flags = partition_derivative(sys, ch, boundary_factor=0.05)
        weakest = res.profile.p.min(axis=0)
        near = np.flatnonzero((weakest > 0) & (weakest < 0.05))
        assert np.all(flags[near])


# the input checks no other test reaches
UNCOUPLED = ChannelSet(F=np.zeros((2, 2, 2)), sigma2=np.full((2, 2), 0.1))


@pytest.mark.parametrize("call, error, message", [
    (lambda: AntiSymSystem(alpha=0.0, m=2.0, sigma2=0.1),
     DomainError, r"alpha must lie in \(0, 1\)"),
    (lambda: AntiSymSystem(alpha=0.2, m=0.5, sigma2=0.1), DomainError, "m must be >= 1"),
    (lambda: AntiSymSystem(alpha=0.2, m=2.0, sigma2=0.0), DomainError, "sigma2 must be positive"),
    (lambda: AntiSymSystem(alpha=0.2, m=2.0, sigma2=0.1, eps=-0.1),
     DomainError, "eps must be nonnegative"),
    (lambda: alpha_crit(0.5, 0.1), DomainError, "need m >= 1 and sigma2 > 0"),
    (lambda: alpha_roots(2.0, 0.1, 0.5), DomainError, r"split p must lie in \(0.5, 1\)"),
    (lambda: alpha_roots(0.0, 0.1, 0.7), DomainError, "need m >= 1 and sigma2 > 0"),
    (lambda: alpha_roots(2.0, -0.1, 0.7), DomainError, "need m >= 1 and sigma2 > 0"),
    (lambda: alpha_roots(2.0, True, 0.7), DomainError, "need m >= 1 and sigma2 > 0"),
    (lambda: classify_frequency_sets(
        UNCOUPLED, GameConfig(P=[1.0, 2.0], pmax=np.full((2, 2), 2.0), eps=[0.1, 0.1]),
        PowerProfile(np.full((2, 2), 0.5))),
     DomainError, "overlap analysis needs equal power budgets"),
    # user 2 occupies no bin, so the water-level system has a zero row
    (lambda: classify_frequency_sets(
        UNCOUPLED, GameConfig(P=[1.0, 1.0], pmax=np.ones((2, 2)), eps=[0.1, 0.1]),
        PowerProfile([[0.5, 0.5], [0.0, 0.0]])),
     DegenerateSystemError, "singular water-level coupling"),
], ids=["alpha_zero", "m_below_one", "sigma2_zero", "eps_negative", "crit_m_below_one",
        "split_at_half", "roots_m_zero", "roots_sigma2_negative", "roots_sigma2_bool",
        "unequal_budgets", "silent_user"])
def test_input_checks(call, error, message):
    with pytest.raises(error, match=message):
        call()
