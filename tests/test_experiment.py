import hashlib
from dataclasses import fields, replace

import numpy as np
import pytest

from rategame import (
    ChannelGenSpec,
    DomainError,
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
    ], ids=["no_users", "no_bins", "cross_variance", "direct_variance", "noise_power"])
    def test_spec_checks(self, fields, message):
        with pytest.raises(DomainError, match=message):
            ChannelGenSpec(**{"Q": 2, "N": 2, **fields})


class TestPerturbChannels:
    def test_zero_delta_identity(self):
        ch = generate_channels(ChannelGenSpec(Q=3, N=8, seed=2))
        nominal, eps = perturb_channels(ch, UncertaintySpec(delta=0.0, seed=3))
        assert np.array_equal(nominal.F, ch.F)
        assert np.array_equal(eps, np.zeros(3))

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
        trial=trial, kind=kind, delta=0.2, sum_rate_true=sum_rate,
        occupancy=np.array([3, 4]), iterations=10, converged=True,
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
