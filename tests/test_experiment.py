import hashlib
from dataclasses import fields, replace

import numpy as np
import pytest

from rategame import (
    ChannelGenSpec,
    DomainError,
    StructuralError,
    UncertaintySpec,
    aggregate,
    generate_channels,
    perturb_channels,
    run_trials,
)
from rategame import experiment, solver
from rategame.experiment import (
    KINDS,
    TrialRecord,
    default_game_config,
    run_single_trial,
    write_summary_csv,
    write_trial_csv,
)
from rategame.solver import Schedule, SolverOptions


class TestGenerateChannels:
    def test_direct_gain_mean(self):
        spec = ChannelGenSpec(Q=2, N=50_000, seed=5)
        ch = generate_channels(spec)
        direct = spec.noise_power / ch.sigma2  # |H_qq|^2
        assert direct.mean() == pytest.approx(2.25, abs=0.05)

    def test_cross_ratio_median(self):
        # no finite mean for the gain ratio; its median pins the distribution
        spec = ChannelGenSpec(Q=2, N=100_000, seed=6)
        ch = generate_channels(spec)
        med = np.median(ch.F[1, 0, :])
        assert med == pytest.approx(1 / 2.25, rel=0.1)

    def test_determinism(self):
        a = generate_channels(ChannelGenSpec(Q=3, N=16, seed=9))
        b = generate_channels(ChannelGenSpec(Q=3, N=16, seed=9))
        assert np.array_equal(a.F, b.F)
        assert np.array_equal(a.sigma2, b.sigma2)

    def test_structure(self):
        spec = ChannelGenSpec(Q=3, N=8, seed=1, noise_power=0.5)
        ch = generate_channels(spec)
        idx = np.arange(3)
        assert np.all(ch.F[idx, idx, :] == 0.0)
        direct = 0.5 / ch.sigma2
        assert np.all(direct > 0)

    @pytest.mark.parametrize("fields, message", [
        (dict(Q=0), "Q and N must be positive"),
        (dict(N=0), "Q and N must be positive"),
        (dict(cross_variance=0.0), "variances must be positive"),
        (dict(direct_variance=-1.0), "variances must be positive"),
        (dict(noise_power=0.0), "noise power must be positive"),
        (dict(N=2.5), "Q and N must be integers"),
        (dict(Q=2.0), "Q and N must be integers"),
        (dict(seed=-1), "seed must be an integer >= 0 or a SeedSequence"),
        (dict(seed=2.7), "seed must be an integer >= 0 or a SeedSequence"),
        (dict(Q=True), "Q and N must be integers"),
        (dict(seed=False), "seed must be an integer >= 0 or a SeedSequence"),
        (dict(noise_power=True), "noise power must be positive"),
        (dict(cross_variance=True), "variances must be positive"),
        (dict(direct_variance=True), "variances must be positive"),
        (dict(noise_power=-1.0), "noise power must be positive"),
        (dict(noise_power=float("inf")), "noise power must be finite"),
    ], ids=["no_users", "no_bins", "cross_variance", "direct_variance", "noise_power",
            "fractional_bins", "float_users", "negative_seed", "fractional_seed",
            "bool_users", "bool_seed", "bool_noise_power", "bool_cross_variance",
            "bool_direct_variance", "negative_noise_power", "inf_noise_power"])
    def test_spec_checks(self, fields, message):
        with pytest.raises(DomainError, match=message):
            ChannelGenSpec(**{"Q": 2, "N": 2, **fields})

    # an infinite variance, or one a float cannot hold, is refused as not finite
    @pytest.mark.parametrize("name", ["cross_variance", "direct_variance"])
    @pytest.mark.parametrize("value", [10**400, float("inf")], ids=["int_10e400", "inf"])
    def test_variances_must_be_finite(self, name, value):
        with pytest.raises(DomainError, match="variances must be finite"):
            ChannelGenSpec(Q=2, N=2, **{name: value})

    def test_non_positive_variance_named_before_infinite_one(self):
        with pytest.raises(DomainError, match="variances must be positive"):
            ChannelGenSpec(Q=2, N=2, cross_variance=float("inf"), direct_variance=-1.0)


class TestPerturbChannels:
    @pytest.mark.parametrize("fields, message", [
        (dict(delta=1.0), r"delta must lie in \[0, 1\)"),
        (dict(seed=-1), "seed must be an integer >= 0 or a SeedSequence"),
        (dict(seed=1.5), "seed must be an integer >= 0 or a SeedSequence"),
        (dict(seed=True), "seed must be an integer >= 0 or a SeedSequence"),
        (dict(delta=False), r"delta must lie in \[0, 1\)"),
    ], ids=["delta", "negative_seed", "fractional_seed", "bool_seed", "bool_delta"])
    def test_spec_checks(self, fields, message):
        with pytest.raises(DomainError, match=message):
            UncertaintySpec(**{"delta": 0.1, **fields})

    def test_zero_delta_identity(self):
        ch = generate_channels(ChannelGenSpec(Q=3, N=8, seed=2))
        nominal, eps = perturb_channels(ch, UncertaintySpec(delta=0.0, seed=3))
        assert np.array_equal(nominal.F, ch.F)
        assert np.array_equal(eps, np.zeros(3))

    def test_zero_delta_returns_the_true_channels(self):
        # delta 0 draws nothing: true_ch itself comes back, with zero bounds,
        # as F * (1 + 0 * e) would have given F's bytes anyway
        ch = generate_channels(ChannelGenSpec(Q=3, N=8, seed=2))
        nominal, eps = perturb_channels(ch, UncertaintySpec(delta=0.0, seed=3))
        assert nominal is ch
        assert eps.tobytes() == np.zeros(3).tobytes()
        e = 0.0 * np.random.default_rng(3).uniform(-0.5, 0.5, size=(3, 3, 8))
        assert (ch.F * (1.0 + e)).tobytes() == ch.F.tobytes()
        # any delta > 0 gives new channels and positive bounds
        nominal, eps = perturb_channels(ch, UncertaintySpec(delta=0.4, seed=3))
        assert nominal is not ch and not np.array_equal(nominal.F, ch.F)
        assert np.array_equal(nominal.sigma2, ch.sigma2) and np.all(eps > 0)

    def test_truth_always_inside_the_bound(self):
        # the derived bound must contain the true coefficients on every bin
        for seed in range(40):
            ch = generate_channels(ChannelGenSpec(Q=3, N=16, seed=seed))
            for delta in (0.2, 0.5, 0.9):
                nominal, eps = perturb_channels(ch, UncertaintySpec(delta=delta, seed=seed + 1))
                for q in range(3):
                    diff = np.delete(ch.F[:, q, :] - nominal.F[:, q, :], q, axis=0)
                    norms = np.sqrt((diff * diff).sum(axis=0))
                    assert norms.max() <= eps[q] + 1e-12

    def test_single_coefficient_hand_value(self):
        # one cross coefficient fixed at 2, delta = 0.5: bound is 2/3
        F = np.zeros((2, 2, 1))
        F[1, 0, 0] = 2.0
        from rategame import ChannelSet

        ch = ChannelSet(F=F, sigma2=np.ones((2, 1)))
        nominal, eps = perturb_channels(ch, UncertaintySpec(delta=0.5, seed=0))
        scale = (0.5 / 2) / (1 - 0.5 / 2)
        assert eps[0] == pytest.approx(scale * nominal.F[1, 0, 0], rel=1e-12)

    def test_error_draws_scale_with_delta(self):
        # same seed: the relative errors are the same draws scaled by delta
        ch = generate_channels(ChannelGenSpec(Q=2, N=8, seed=4))
        n1, _ = perturb_channels(ch, UncertaintySpec(delta=0.2, seed=7))
        n2, _ = perturb_channels(ch, UncertaintySpec(delta=0.4, seed=7))
        e1 = n1.F[1, 0] / ch.F[1, 0] - 1.0
        e2 = n2.F[1, 0] / ch.F[1, 0] - 1.0
        assert np.allclose(e2, 2 * e1, rtol=1e-9)


class TestRunTrials:
    def test_zero_delta_kinds_coincide(self):
        gen = ChannelGenSpec(Q=2, N=6, seed=11)
        [records] = run_trials(gen, [UncertaintySpec(delta=0.0, seed=12)], trials=3)
        assert len(records) == 9
        by_trial = {}
        for r in records:
            by_trial.setdefault(r.trial, {})[r.kind] = r
        for kinds in by_trial.values():
            assert kinds["robust"].sum_rate_true == kinds["nominal"].sum_rate_true
            assert kinds["nominal"].sum_rate_true == kinds["perfect"].sum_rate_true

    def test_reproducible_and_scored_on_true_channels(self):
        gen = ChannelGenSpec(Q=2, N=6, seed=13)
        u = UncertaintySpec(delta=0.4, seed=14)
        [a] = run_trials(gen, [u], trials=4)
        [b] = run_trials(gen, [u], trials=4)
        for ra, rb in zip(a, b):
            assert ra.sum_rate_true == rb.sum_rate_true
            assert ra.iterations == rb.iterations

    def test_parallel_matches_serial(self):
        from concurrent.futures import ThreadPoolExecutor

        gen = ChannelGenSpec(Q=2, N=6, seed=15)
        u = UncertaintySpec(delta=0.3, seed=16)
        [serial] = run_trials(gen, [u], trials=4)
        with ThreadPoolExecutor(max_workers=3) as pool:
            [parallel] = run_trials(gen, [u], trials=4, pool=pool)
        for ra, rb in zip(serial, parallel):
            assert ra.trial == rb.trial and ra.kind == rb.kind
            assert ra.sum_rate_true == rb.sum_rate_true
            assert ra.profile.tobytes() == rb.profile.tobytes()

    # per-trial seeds are SeedSequence([seed, trial]), so both must be plain
    # integers; the specs still take a SeedSequence for a single draw
    @pytest.mark.parametrize("call, message", [
        (lambda g, u: run_trials(replace(g, seed=np.random.SeedSequence(5)), [u]),
         "a trial's seed and number must be integers >= 0"),
        (lambda g, u: run_trials(g, [replace(u, seed=np.random.SeedSequence(6))]),
         "a trial's seed and number must be integers >= 0"),
        (lambda g, u: run_single_trial(g, u, default_game_config(2, 3), Schedule(),
                                       SolverOptions(), -1),
         "a trial's seed and number must be integers >= 0"),
        (lambda g, u: run_trials(g, [u], trials=2.5), "trials must be an integer >= 1"),
        (lambda g, u: run_trials(g, [u], trials=0), "trials must be an integer >= 1"),
        (lambda g, u: run_trials(g, [u], trials=True), "trials must be an integer >= 1"),
        (lambda g, u: run_single_trial(g, u, default_game_config(2, 3), Schedule(),
                                       SolverOptions(), True),
         "a trial's seed and number must be integers >= 0"),
    ], ids=["gen_seed_sequence", "uncertainty_seed_sequence", "negative_trial",
            "fractional_trials", "no_trials", "bool_trials", "bool_trial"])
    def test_input_checks(self, call, message):
        with pytest.raises(DomainError, match=message):
            call(ChannelGenSpec(Q=2, N=3, seed=5), UncertaintySpec(0.2, seed=6))


class TestSweep:
    """One trial spans the delta grid and solves its perfect game once."""

    C11_GEN = ChannelGenSpec(Q=3, N=16, seed=2024)
    C11_WIDTHS = [UncertaintySpec(delta=d, seed=2025) for d in (0.0, 0.2, 0.4, 0.6)]
    SCHEDULE = Schedule(kind="gauss_seidel")
    OPTS = SolverOptions(tol=1e-8, max_iters=1000)

    def test_sweep_matches_single_width_trials(self):
        # trials 0-6 of the C11 sweep; trial 6 holds two nominal solves that
        # stop at max_iters. Each single-width call solves its perfect game
        # afresh, so the reused perfect row is checked against its own solve.
        per_width = run_trials(self.C11_GEN, self.C11_WIDTHS, schedule=self.SCHEDULE,
                               opts=self.OPTS, trials=7)
        cfg = default_game_config(3, 16)
        for u, records in zip(self.C11_WIDTHS, per_width):
            assert [(r.trial, r.kind) for r in records] == [
                (t, kind) for t in range(7) for kind in KINDS]
            for trial in range(7):
                single = run_single_trial(self.C11_GEN, u, cfg, self.SCHEDULE, self.OPTS, trial)
                for a, b in zip(records[3 * trial:3 * trial + 3], single, strict=True):
                    for field in fields(TrialRecord):
                        assert np.array_equal(getattr(a, field.name), getattr(b, field.name))

    @staticmethod
    def _count_calls(monkeypatch):
        calls = {"solve": [], "build_report": 0, "generate_channels": 0}

        def solve(ch, cfg, *args):
            result = solver.solve(ch, cfg, *args)
            calls["solve"].append((ch, cfg, result))
            return result

        def counted(name):
            original = getattr(experiment, name)

            def call(*args):
                calls[name] += 1
                return original(*args)
            return call

        monkeypatch.setattr(experiment, "solve", solve)
        for name in ("build_report", "generate_channels"):
            monkeypatch.setattr(experiment, name, counted(name))
        return calls

    def test_solves_per_trial(self, monkeypatch):
        # 1 + 2W solves and reports per W-width trial, one channel draw
        calls = self._count_calls(monkeypatch)
        gen = ChannelGenSpec(Q=2, N=6, seed=31)
        run_trials(gen, self.C11_WIDTHS, trials=3)
        assert len(calls["solve"]) == 3 * 9
        assert calls["build_report"] == 3 * 9
        assert calls["generate_channels"] == 3

    def test_single_width_solves_in_kinds_order(self, monkeypatch):
        calls = self._count_calls(monkeypatch)
        gen = ChannelGenSpec(Q=2, N=6, seed=31)
        records = run_single_trial(gen, UncertaintySpec(delta=0.4, seed=32),
                                   default_game_config(2, 6), self.SCHEDULE, self.OPTS, 1)
        assert [r.kind for r in records] == list(KINDS)
        (rob_ch, rob_cfg, _), (nom_ch, nom_cfg, _), (per_ch, per_cfg, _) = calls["solve"]
        true_ch = generate_channels(replace(gen, seed=np.random.SeedSequence([31, 1])))
        assert np.all(rob_cfg.eps > 0) and nom_ch is rob_ch and not nom_cfg.eps.any()
        assert np.array_equal(per_ch.F, true_ch.F) and not per_cfg.eps.any()
        assert not np.array_equal(nom_ch.F, true_ch.F)
        for rec, (_, _, result) in zip(records, calls["solve"]):
            assert (rec.iterations, rec.converged) == (result.iterations, result.converged)
            assert rec.profile.tobytes() == result.profile.p.tobytes()

    def test_zero_delta_games_are_the_perfect_game(self, monkeypatch):
        # at delta 0 the robust and nominal games are the perfect game bit for
        # bit, so a C11 trial holds that game three times at delta 0
        calls = self._count_calls(monkeypatch)
        cfg = default_game_config(3, 16)
        for trial in range(7):
            calls["solve"].clear()
            run_single_trial(self.C11_GEN, self.C11_WIDTHS[0], cfg, self.SCHEDULE,
                             self.OPTS, trial)
            *uncertain, (per_ch, _, _) = calls["solve"]
            for ch, game_cfg, _ in uncertain:
                assert ch.F.tobytes() == per_ch.F.tobytes()
                assert ch.sigma2.tobytes() == per_ch.sigma2.tobytes()
                assert game_cfg.eps.tobytes() == np.zeros(3).tobytes()

    def test_zero_delta_hits_equal_fresh_solves(self, monkeypatch):
        # the nominal and perfect solves of a delta-0 trial return the robust
        # solve's result; each must equal a solve of its game from an empty slot
        calls = self._count_calls(monkeypatch)
        cfg = default_game_config(3, 16)
        for trial in range(7):
            calls["solve"].clear()
            run_single_trial(self.C11_GEN, self.C11_WIDTHS[0], cfg, self.SCHEDULE,
                             self.OPTS, trial)
            robust, *hits = (result for _, _, result in calls["solve"])
            assert all(hit.profile is robust.profile for hit in hits)
            for ch, game_cfg, result in calls["solve"]:
                monkeypatch.setattr(solver, "_latest", None)
                fresh = solver.solve(ch, game_cfg, solver.default_initial_profile(ch, game_cfg),
                                     self.SCHEDULE, self.OPTS)
                assert result.profile.p.tobytes() == fresh.profile.p.tobytes()
                assert result.mu.tobytes() == fresh.mu.tobytes()
                assert (result.residual, result.iterations, result.converged) == (
                    fresh.residual, fresh.iterations, fresh.converged)

    @pytest.mark.parametrize("width, solved", [(0, 1), (2, 3)], ids=["delta_0", "delta_0.4"])
    def test_trial_rounds_are_those_of_its_distinct_games(self, monkeypatch, width, solved):
        # a delta-0 trial runs the rounds of one solve; a delta-0.4 trial those of three
        rounds = [0]
        original = solver._round_views

        def counted(*args):
            rounds[0] += 1
            return original(*args)

        monkeypatch.setattr(solver, "_round_views", counted)
        calls = self._count_calls(monkeypatch)
        run_single_trial(self.C11_GEN, self.C11_WIDTHS[width], default_game_config(3, 16),
                         self.SCHEDULE, self.OPTS, 1)
        trial_rounds = rounds[0]
        per_game = []
        for ch, game_cfg, _ in calls["solve"]:
            monkeypatch.setattr(solver, "_latest", None)
            rounds[0] = 0
            solver.solve(ch, game_cfg, solver.default_initial_profile(ch, game_cfg),
                         self.SCHEDULE, self.OPTS)
            per_game.append(rounds[0])
        assert len(per_game) == 3 and min(per_game) > 0
        assert trial_rounds == sum(per_game[:solved])
        if solved == 1:
            assert per_game == per_game[:1] * 3

    def test_sweep_rounds_are_those_of_its_distinct_games(self, monkeypatch):
        # widths (0, 0.4): a trial runs its delta-0 game once for all three
        # kinds (that game is its perfect game) and at 0.4 only the robust
        # and nominal games; the perfect row of width 0 is reused at 0.4
        rounds = [0]
        original = solver._round_views

        def counted(*args):
            rounds[0] += 1
            return original(*args)

        monkeypatch.setattr(solver, "_round_views", counted)
        calls = self._count_calls(monkeypatch)
        trials = 3
        per_width = run_trials(self.C11_GEN, [self.C11_WIDTHS[0], self.C11_WIDTHS[2]],
                               self.SCHEDULE, self.OPTS, trials=trials)
        sweep_rounds = rounds[0]
        assert len(calls["solve"]) == 5 * trials
        distinct_rounds = 0
        for t in range(trials):
            zero, wide = calls["solve"][5 * t:5 * t + 3], calls["solve"][5 * t + 3:5 * t + 5]
            assert all(result is zero[0][2] for _, _, result in zero)
            for ch, game_cfg, result in [zero[0], *wide]:
                rounds[0] = 0
                fresh = solver.solve(ch, game_cfg, solver.default_initial_profile(ch, game_cfg),
                                     self.SCHEDULE, self.OPTS)
                assert rounds[0] > 0 and fresh.profile.p.tobytes() == result.profile.p.tobytes()
                distinct_rounds += rounds[0]
            perfect = [w[3 * t + KINDS.index("perfect")] for w in per_width]
            assert perfect[1].profile is perfect[0].profile
        assert sweep_rounds == distinct_rounds

    def test_capped_c11_solves_exit_their_cycle(self, best_response_calls):
        # trial 6's nominal solves at delta 0.4 and 0.6 hit max_iters; they
        # cycle exactly, so far fewer than max_iters * Q best responses run
        calls = best_response_calls
        cfg = default_game_config(3, 16)
        for u in self.C11_WIDTHS[2:]:
            calls[0] = 0
            records = run_single_trial(self.C11_GEN, u, cfg, self.SCHEDULE, self.OPTS, 6)
            nominal = records[KINDS.index("nominal")]
            assert (nominal.iterations, nominal.converged) == (1000, False)
            assert calls[0] < 1000 * 3  # all three solves together


def record(kind="robust", trial=0, sum_rate=1.0, included=True):
    return TrialRecord(
        trial=trial, kind=kind, delta=0.2, profile=np.full((2, 3), 0.5),
        sum_rate_true=sum_rate, occupancy=np.array([3, 4]), iterations=10, converged=True,
        uniqueness_ok=False, included=included,
    )


class TestAggregate:
    def test_single_record(self):
        rows = aggregate([record()])
        assert rows[0]["sum_rate_mean"] == 1.0
        assert rows[0]["sum_rate_stderr"] == 0.0

    def test_two_record_stderr(self):
        rows = aggregate([record(sum_rate=1.0), record(trial=1, sum_rate=3.0)])
        assert rows[0]["sum_rate_mean"] == pytest.approx(2.0)
        assert rows[0]["sum_rate_stderr"] == pytest.approx(1.0)

    def test_permutation_invariant(self):
        recs = [record(trial=t, sum_rate=float(t)) for t in range(5)]
        a = aggregate(recs)
        b = aggregate(list(reversed(recs)))
        assert a == b

    def test_all_excluded_raises(self):
        with pytest.raises(DomainError):
            aggregate([record(included=False)])

    def test_excluded_counted_not_averaged(self):
        rows = aggregate([
            record(sum_rate=1.0),
            record(trial=1, sum_rate=100.0, included=False),
        ])
        assert rows[0]["n_included"] == 1
        assert rows[0]["n_excluded"] == 1
        assert rows[0]["sum_rate_mean"] == 1.0


class TestCsvOutputs:
    def test_byte_identical_reruns(self, tmp_path):
        gen = ChannelGenSpec(Q=2, N=4, seed=21)
        u = UncertaintySpec(delta=0.2, seed=22)
        paths = []
        for tag in ("a", "b"):
            [records] = run_trials(gen, [u], trials=3)
            trial_path = tmp_path / f"trials_{tag}.csv"
            summary_path = tmp_path / f"summary_{tag}.csv"
            write_trial_csv(records, trial_path, 2, 4)
            write_summary_csv(aggregate(records), summary_path, 2, 4)
            paths.append((trial_path, summary_path))
        assert paths[0][0].read_bytes() == paths[1][0].read_bytes()
        assert paths[0][1].read_bytes() == paths[1][1].read_bytes()

    def test_headers(self, tmp_path):
        gen = ChannelGenSpec(Q=2, N=4, seed=23)
        [records] = run_trials(gen, [UncertaintySpec(delta=0.0, seed=1)], trials=1)
        out = tmp_path / "t.csv"
        write_trial_csv(records, out, 2, 4)
        head = out.read_text().splitlines()[0]
        assert head == (
            "trial,kind,delta,Q,N,sum_rate_true,occupancy_u1,occupancy_u2,"
            "occupancy_mean,iterations,converged,uniqueness_ok"
        )
        write_summary_csv(aggregate(records), out, 2, 4)
        head = out.read_text().splitlines()[0]
        assert head == (
            "delta,Q,N,kind,n_included,n_excluded,sum_rate_mean,sum_rate_stderr,"
            "occupancy_mean,occupancy_stderr,iterations_mean,iterations_stderr"
        )

    def test_refuses_records_of_another_shape(self, tmp_path):
        # Q = 3 records under Q = 2 once gave a two-column header over
        # three-column rows; nothing may be written
        [records] = run_trials(ChannelGenSpec(Q=3, N=4, seed=23),
                               [UncertaintySpec(delta=0.0, seed=1)], trials=1)
        for Q, N in ((2, 4), (3, 5)):
            out = tmp_path / f"t_{Q}_{N}.csv"
            with pytest.raises(StructuralError, match=rf"profile is \(3, 4\), not \({Q}, {N}\)"):
                write_trial_csv(records, out, Q, N)
            assert not out.exists()

    def test_pinned_c11_bytes(self, tmp_path):
        # trials 0-6 of the C11 sweep; trial 6 holds the two nominal solves
        # at delta 0.4 and 0.6 that stop at max_iters, so the cap is covered
        per_width = run_trials(
            ChannelGenSpec(Q=3, N=16, seed=2024),
            [UncertaintySpec(delta=delta, seed=2025) for delta in (0.0, 0.2, 0.4, 0.6)],
            schedule=Schedule(kind="gauss_seidel"),
            opts=SolverOptions(tol=1e-8, max_iters=1000), trials=7,
        )
        records = [record for width in per_width for record in width]
        capped = [(r.trial, r.kind, r.delta) for r in records if r.iterations == 1000]
        assert capped == [(6, "nominal", 0.4), (6, "nominal", 0.6)]
        out = tmp_path / "trials.csv"
        write_trial_csv(records, out, 3, 16)
        assert hashlib.sha256(out.read_bytes()).hexdigest() == (
            "165cc909f999a6a4ce66c0b5b9cfebfb3055538c37d84503e27c6e56d23edc94"
        )
