import contextlib
import gc
import hashlib
import sys
import threading
import tracemalloc
import weakref
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from rategame import (
    ChannelGenSpec,
    ChannelSet,
    DomainError,
    GameConfig,
    NumericalError,
    PowerProfile,
    Schedule,
    SolverOptions,
    default_initial_profile,
    fixed_point_residual,
    full_bin_sets,
    build_report,
    generate_channels,
    robust_best_response,
    solve,
    sum_rate,
    write_trajectory_csv,
)
from rategame import solver
from rategame.conditions import block_norm
from rategame.twouser import AntiSymSystem, antisym_channels, antisym_config, interior_p

from conftest import classical_best_response, random_instance

ALL_SCHEDULES = [
    Schedule(kind="jacobi"),
    Schedule(kind="gauss_seidel"),
    Schedule(kind="random_async", seed=3, update_probability=0.7, max_staleness=2),
]


def fig1_instance(eps=0.1):
    sys = AntiSymSystem(alpha=0.2, m=2.0, sigma2=0.1, eps=eps)
    return sys, antisym_channels(sys), antisym_config(sys)


class TestSolve:
    @pytest.mark.parametrize("schedule", ALL_SCHEDULES, ids=lambda s: s.kind)
    def test_single_user_reaches_classical_waterfilling(self, schedule, rng):
        ch, cfg = random_instance(rng, 1, 6)
        res = solve(ch, cfg, default_initial_profile(ch, cfg), schedule)
        assert res.converged
        oracle = classical_best_response(
            ch.F, ch.sigma2, np.zeros((1, 6)), 0, cfg.P[0], cfg.pmax[0]
        )
        assert np.abs(res.profile.p[0] - oracle).max() < 1e-9

    def test_interior_two_user_matches_closed_form(self):
        sys, ch, cfg = fig1_instance()
        res = solve(ch, cfg, default_initial_profile(ch, cfg))
        assert res.converged
        assert res.profile.p[0, 0] == pytest.approx(interior_p(sys), abs=1e-8)

    def test_schedules_and_initials_agree_under_uniqueness(self, rng):
        ch, cfg = random_instance(rng, 3, 8, strength=0.7, eps=0.05)
        assert build_report(ch, cfg, bin_sets=full_bin_sets(ch)).uniqueness_holds
        from rategame import random_feasible_profile

        solutions = []
        for trial in range(10):
            initial = random_feasible_profile(cfg, rng)
            for schedule in ALL_SCHEDULES:
                res = solve(ch, cfg, initial, schedule, SolverOptions(tol=1e-11))
                assert res.converged
                solutions.append(res.profile.p)
        base = solutions[0]
        for other in solutions[1:]:
            assert np.abs(other - base).max() < 1e-6

    def test_deterministic_reruns(self, rng):
        ch, cfg = random_instance(rng, 3, 6, eps=0.1)
        schedule = Schedule(kind="random_async", seed=11, update_probability=0.5,
                            max_staleness=3)
        initial = default_initial_profile(ch, cfg)
        a = solve(ch, cfg, initial, schedule, SolverOptions(record_trajectory=True))
        b = solve(ch, cfg, initial, schedule, SolverOptions(record_trajectory=True))
        assert a.iterations == b.iterations
        assert np.array_equal(a.profile.p, b.profile.p)
        assert np.array_equal(a.trajectory, b.trajectory)

    def test_random_async_with_no_staleness_full_rate_is_jacobi(self, rng):
        ch, cfg = random_instance(rng, 3, 5, eps=0.1)
        initial = default_initial_profile(ch, cfg)
        jac = solve(ch, cfg, initial, Schedule(kind="jacobi"),
                    SolverOptions(record_trajectory=True))
        asy = solve(
            ch, cfg, initial,
            Schedule(kind="random_async", seed=5, update_probability=1.0, max_staleness=0),
            SolverOptions(record_trajectory=True),
        )
        assert np.array_equal(jac.trajectory, asy.trajectory)

    def test_staleness_beyond_the_rounds_run(self, rng):
        # a view is at most max_iters rounds old, so any larger bound, even one
        # past the machine word, gives the same iterates
        ch, cfg = random_instance(rng, 3, 5, eps=0.1)
        initial = default_initial_profile(ch, cfg)
        opts = SolverOptions(max_iters=30, record_trajectory=True)
        runs = [
            solve(ch, cfg, initial, Schedule(kind="random_async", seed=2,
                                             update_probability=0.6, max_staleness=d), opts)
            for d in (30, 10**30)
        ]
        assert np.array_equal(runs[0].trajectory, runs[1].trajectory)

    def test_intermediate_profiles_feasible(self, rng):
        ch, cfg = random_instance(rng, 3, 6, eps=0.2)
        res = solve(ch, cfg, default_initial_profile(ch, cfg),
                    Schedule(kind="jacobi"), SolverOptions(record_trajectory=True))
        for p in res.trajectory:
            assert np.all(p >= 0)
            assert np.all(p <= cfg.pmax + 1e-12)
            assert np.allclose(p.sum(axis=1), cfg.P, rtol=1e-9)

    @pytest.mark.parametrize("seed, converges", [(2, True), (1, False)])
    def test_numpy_int_max_iters(self, seed, converges):
        # a numpy int64 bound once wrapped in range(1, max_iters + 1) and ran
        # no round; seed 1's game cycles, and the cycle exit ends its solve
        ch = generate_channels(ChannelGenSpec(Q=3, N=4, seed=seed))
        cfg = GameConfig(P=np.ones(3), pmax=np.ones((3, 4)), eps=np.zeros(3))
        initial = default_initial_profile(ch, cfg)
        runs = [solve(ch, cfg, initial, Schedule(kind="jacobi"), SolverOptions(max_iters=bound))
                for bound in (2**63 - 1, np.int64(2**63 - 1))]
        assert runs[0].converged == converges
        assert_same_result(runs[1], runs[0])

    def test_max_iters_reached_reports_not_converged(self):
        _, ch, cfg = fig1_instance()
        res = solve(ch, cfg, default_initial_profile(ch, cfg),
                    Schedule(kind="jacobi"), SolverOptions(max_iters=1))
        assert not res.converged
        assert res.iterations == 1

    def test_contraction_ratio_bounded_by_modulus(self, rng):
        # per-round block-norm steps of the jacobi iteration eventually decay
        # no slower than the contraction modulus (5% slack)
        ch, cfg = random_instance(rng, 3, 6, strength=0.6, eps=0.05)
        report = build_report(ch, cfg, bin_sets=full_bin_sets(ch))
        assert report.uniqueness_holds
        res = solve(ch, cfg, default_initial_profile(ch, cfg),
                    Schedule(kind="jacobi"),
                    SolverOptions(tol=1e-12, record_trajectory=True))
        steps = [
            block_norm(res.trajectory[i + 1] - res.trajectory[i])
            for i in range(res.trajectory.shape[0] - 1)
        ]
        for prev, cur in zip(steps[3:], steps[4:]):
            if prev < 1e-11:
                break
            assert cur <= report.contraction_modulus * 1.05 * prev

    def test_iterations_nondecreasing_in_eps(self):
        # same instance, growing uncertainty: convergence slows (one inversion
        # tolerated, rounds are discrete)
        counts = []
        for eps in (0.0, 0.05, 0.1, 0.15):
            _, ch, cfg = fig1_instance(eps=eps)
            res = solve(ch, cfg, default_initial_profile(ch, cfg),
                        Schedule(kind="jacobi"), SolverOptions(tol=1e-10))
            assert res.converged
            counts.append(res.iterations)
        inversions = sum(1 for a, b in zip(counts, counts[1:]) if b < a)
        assert inversions <= 1, counts


def ping_pong_game():
    # both users want bin 0 alone; under jacobi they swap bins together
    # every round and never settle
    F = np.zeros((2, 2, 2))
    F[0, 1, :] = F[1, 0, :] = 3.0
    ch = ChannelSet(F=F, sigma2=np.array([[0.1, 0.3], [0.1, 0.3]]))
    cfg = GameConfig(P=np.ones(2), pmax=np.ones((2, 2)), eps=np.zeros(2))
    return ch, cfg


def assert_same_result(a, b):
    assert a.profile.p.tobytes() == b.profile.p.tobytes()
    assert np.asarray(a.mu).tobytes() == np.asarray(b.mu).tobytes()
    for field in ("residual", "iterations", "converged"):
        assert getattr(a, field) == getattr(b, field)


class TestCycleExit:
    """jacobi and gauss_seidel solves stop once their profile repeats exactly."""

    OPTS = SolverOptions(tol=1e-8, max_iters=1000)

    def test_jacobi_ping_pong_exits(self, best_response_calls):
        calls = best_response_calls
        ch, cfg = ping_pong_game()
        initial = default_initial_profile(ch, cfg)
        res = solve(ch, cfg, initial, Schedule(kind="jacobi"), self.OPTS)
        # the profile after round 6 repeats that of round 4, the latest even
        # round, so round 6 is the last one run: 2 * 6 best responses, not 2 * 1000
        assert calls[0] == 12
        assert res.iterations == 1000 and res.converged is False

    def test_random_async_runs_every_round(self, best_response_calls):
        calls = best_response_calls
        ch, cfg = ping_pong_game()
        initial = default_initial_profile(ch, cfg)
        jac = solve(ch, cfg, initial, Schedule(kind="jacobi"), self.OPTS)
        calls[0] = 0
        asy = solve(ch, cfg, initial,
                    Schedule(kind="random_async", update_probability=1.0, max_staleness=0),
                    self.OPTS)
        assert calls[0] == 2 * 1000
        assert_same_result(asy, jac)

    def test_recorded_solve_runs_every_round(self, best_response_calls):
        calls = best_response_calls
        ch, cfg = ping_pong_game()
        res = solve(ch, cfg, default_initial_profile(ch, cfg), Schedule(kind="jacobi"),
                    SolverOptions(tol=1e-8, max_iters=1000, record_trajectory=True))
        assert calls[0] == 2 * 1000
        assert res.trajectory.shape == (1001, 2, 2)

    @pytest.mark.parametrize("kind", ["jacobi", "gauss_seidel"])
    def test_watch_keeps_one_profile_per_power_of_two(self, kind, best_response_calls):
        # a 4 x 256 profile is 8 KB; 200 rounds keep at most 200.bit_length() = 8
        ch = generate_channels(ChannelGenSpec(Q=4, N=256, seed=0))
        cfg = GameConfig(P=np.ones(4), pmax=np.ones((4, 256)), eps=np.full(4, 0.05))
        initial = default_initial_profile(ch, cfg)
        peaks = []
        for max_iters in (20, 200):
            tracemalloc.start()
            try:
                solve(ch, cfg, initial, Schedule(kind=kind),
                      SolverOptions(tol=1e-300, max_iters=max_iters))
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert best_response_calls[0] == (20 + 200) * 4  # both solves ran every round
        assert peaks[1] <= peaks[0] + 8 * initial.p.nbytes

    # strongly coupled games: about a third stop at max_iters and about one in
    # ten exits on a cycle; the solve that may exit must return what the
    # recorded solve, which runs every round, returns
    @settings(derandomize=True, deadline=None, max_examples=150)
    @given(Q=st.integers(2, 4), N=st.integers(2, 8),
           gain=st.floats(0.5, 3.0), seed=st.integers(0, 2**32 - 1),
           kind=st.sampled_from(["jacobi", "gauss_seidel"]),
           max_iters=st.integers(20, 300))
    def test_same_result_as_recorded_solve(self, Q, N, gain, seed, kind, max_iters):
        rng = np.random.default_rng(seed)
        F = rng.uniform(0.0, gain, size=(Q, Q, N))
        F[np.arange(Q), np.arange(Q), :] = 0.0
        ch = ChannelSet(F=F, sigma2=rng.uniform(0.05, 1.0, size=(Q, N)))
        cfg = GameConfig(P=np.ones(Q), pmax=np.ones((Q, N)),
                         eps=rng.uniform(0.0, 0.3, size=Q))
        initial = default_initial_profile(ch, cfg)
        full = solve(ch, cfg, initial, Schedule(kind=kind),
                     SolverOptions(tol=1e-8, max_iters=max_iters, record_trajectory=True))
        fast = solve(ch, cfg, initial, Schedule(kind=kind),
                     SolverOptions(tol=1e-8, max_iters=max_iters))
        assert_same_result(fast, full)
        assert full.trajectory[-1].tobytes() == fast.profile.p.tobytes()


def nudged(arr, index, value=None):
    """A writable copy of arr whose entry at index is the next float up, or value."""
    out = np.array(arr)
    out[index] = np.nextafter(out[index], np.inf) if value is None else value
    return out


class TestLatestResult:
    """solve returns its latest result for the same input objects, and runs no round."""

    SCHEDULE = Schedule(kind="gauss_seidel")
    OPTS = SolverOptions(tol=1e-8, max_iters=1000)

    @pytest.fixture
    def rounds(self, monkeypatch):
        """One-item list counting the rounds solve runs (one _round_views call each)."""
        calls = [0]
        original = solver._round_views

        def counted(*args):
            calls[0] += 1
            return original(*args)

        monkeypatch.setattr(solver, "_round_views", counted)
        return calls

    @staticmethod
    def game():
        ch = generate_channels(ChannelGenSpec(Q=3, N=4, seed=5))
        cfg = GameConfig(P=np.ones(3), pmax=np.ones((3, 4)), eps=np.full(3, 0.05))
        return ch, cfg, default_initial_profile(ch, cfg)

    def test_hit_returns_the_latest_result(self, rounds, monkeypatch):
        ch, cfg, initial = self.game()
        first = solve(ch, cfg, initial, self.SCHEDULE, self.OPTS)
        ran = rounds[0]
        assert ran > 0
        # the same game objects, with an equal schedule and options built anew
        again = solve(ch, cfg, initial, Schedule(kind="gauss_seidel"),
                      SolverOptions(tol=1e-8, max_iters=1000))
        assert rounds[0] == ran
        assert again is first and again.trajectory is None
        # an equal input built anew misses, runs its own rounds and gives the same bits
        primed = solver._latest
        for game in [(ChannelSet(F=ch.F, sigma2=ch.sigma2), cfg, initial),
                     (ch, replace(cfg), initial),
                     (ch, cfg, PowerProfile(initial.p))]:
            monkeypatch.setattr(solver, "_latest", primed)
            rebuilt = solve(*game, self.SCHEDULE, self.OPTS)
            assert rebuilt is not first
            assert_same_result(rebuilt, first)
        assert rounds[0] == 4 * ran

    @pytest.mark.parametrize("change", [
        lambda ch, cfg, p, s, o: (ChannelSet(F=nudged(ch.F, (1, 0, 2)), sigma2=ch.sigma2),
                                  cfg, p, s, o),
        lambda ch, cfg, p, s, o: (ChannelSet(F=ch.F, sigma2=nudged(ch.sigma2, (2, 1))),
                                  cfg, p, s, o),
        lambda ch, cfg, p, s, o: (ch, replace(cfg, eps=nudged(cfg.eps, 1)), p, s, o),
        lambda ch, cfg, p, s, o: (ch, replace(cfg, P=nudged(cfg.P, 0)), p, s, o),
        lambda ch, cfg, p, s, o: (ch, replace(cfg, pmax=nudged(cfg.pmax, (0, 3))), p, s, o),
        lambda ch, cfg, p, s, o: (ch, cfg, PowerProfile(nudged(p.p, (2, 0))), s, o),
        lambda ch, cfg, p, s, o: (ChannelSet(F=nudged(ch.F, (0, 0, 0), -0.0), sigma2=ch.sigma2),
                                  cfg, p, s, o),
        lambda ch, cfg, p, s, o: (ch, cfg, p, replace(s, seed=1), o),
        lambda ch, cfg, p, s, o: (ch, cfg, p, s, replace(o, tol=2e-8)),
    ], ids=["F", "sigma2", "eps", "P", "pmax", "initial", "negative_zero_in_F",
            "schedule_seed", "tol"])
    def test_one_changed_input_misses(self, rounds, change):
        ch, cfg, initial = self.game()
        solve(ch, cfg, initial, self.SCHEDULE, self.OPTS)
        ran = rounds[0]
        other = change(ch, cfg, initial, self.SCHEDULE, self.OPTS)
        solve(*other)
        assert rounds[0] > ran
        # and the changed game is now the latest one
        ran = rounds[0]
        solve(*other)
        assert rounds[0] == ran

    def test_writing_into_mu_leaves_the_next_hit(self, rounds):
        ch, cfg, initial = self.game()
        first = solve(ch, cfg, initial, self.SCHEDULE, self.OPTS)
        mu = first.mu.tobytes()
        with pytest.raises(ValueError, match="read-only"):
            first.mu[:] = 7.0
        hit = solve(ch, cfg, initial, self.SCHEDULE, self.OPTS)
        assert hit.mu.tobytes() == mu
        with pytest.raises(ValueError, match="read-only"):
            hit.mu[:] = 9.0
        assert solve(ch, cfg, initial, self.SCHEDULE, self.OPTS).mu.tobytes() == mu

    def test_trajectory_solves_bypass_the_slot(self, rounds):
        ch, cfg, initial = self.game()
        recorded = SolverOptions(tol=1e-8, max_iters=1000, record_trajectory=True)
        first = solve(ch, cfg, initial, self.SCHEDULE, recorded)
        ran = rounds[0]
        second = solve(ch, cfg, initial, self.SCHEDULE, recorded)
        assert rounds[0] == 2 * ran and second.trajectory.shape == first.trajectory.shape
        # a recorded solve stores nothing, so the plain solve runs its rounds too
        plain = solve(ch, cfg, initial, self.SCHEDULE, self.OPTS)
        assert rounds[0] == 3 * ran and plain.trajectory is None
        # and the plain result is not returned to a solve that records
        solve(ch, cfg, initial, self.SCHEDULE, recorded)
        assert rounds[0] == 4 * ran

    def test_recorded_trajectory_is_read_only(self):
        # a result is shared, not copied, so none of its arrays can be written
        ch, cfg, initial = self.game()
        recorded = SolverOptions(tol=1e-8, max_iters=1000, record_trajectory=True)
        result = solve(ch, cfg, initial, self.SCHEDULE, recorded)
        for arr in (result.profile.p, result.mu, result.trajectory):
            with pytest.raises(ValueError, match="read-only"):
                arr[0] = 7.0

    def test_raising_solve_stores_nothing(self, rounds, monkeypatch):
        ch, cfg, initial = self.game()
        kept = solve(ch, cfg, initial, self.SCHEDULE, self.OPTS)
        other = replace(cfg, eps=np.zeros(3))

        def fails(*args):
            raise NumericalError("water level missed its budget")

        with monkeypatch.context() as patch:
            patch.setattr(solver, "best_response_powers", fails)
            with pytest.raises(NumericalError):
                solve(ch, other, initial, self.SCHEDULE, self.OPTS)
        ran = rounds[0]
        solve(ch, other, initial, self.SCHEDULE, self.OPTS)
        assert rounds[0] > ran  # the failed game was not stored
        ran = rounds[0]
        solve(ch, cfg, initial, self.SCHEDULE, self.OPTS)
        assert rounds[0] > ran  # other's result displaced the first game's
        with monkeypatch.context() as patch:
            patch.setattr(solver, "best_response_powers", fails)
            with pytest.raises(NumericalError):
                solve(ch, other, initial, self.SCHEDULE, self.OPTS)
        ran = rounds[0]
        assert_same_result(solve(ch, cfg, initial, self.SCHEDULE, self.OPTS), kept)
        assert rounds[0] == ran  # the failed solve left the latest result in its slot

    def test_slot_keeps_no_channels_alive(self, rounds):
        ch, cfg, initial = self.game()
        solve(ch, cfg, initial, self.SCHEDULE, self.OPTS)
        ref = weakref.ref(ch)
        del ch
        gc.collect()
        assert ref() is None
        # the equal game of a new ChannelSet misses once the old one is gone
        ran = rounds[0]
        ch, _, _ = self.game()
        solve(ch, cfg, initial, self.SCHEDULE, self.OPTS)
        assert rounds[0] == 2 * ran

    def test_threads_sharing_the_slot_get_their_own_games(self):
        # four threads on two cores alternate two games through the one slot,
        # with a short switch interval; each result must be its own game's
        games = [self.game()]
        ch, cfg, initial = games[0]
        games.append((ch, replace(cfg, eps=np.zeros(3)), initial))
        expected = [solve(*game, self.SCHEDULE, self.OPTS).profile.p.tobytes() for game in games]
        wrong = []

        def work(offset):
            for i in range(40):
                game = (i + offset) % 2
                result = solve(*games[game], self.SCHEDULE, self.OPTS)
                if result.profile.p.tobytes() != expected[game]:
                    wrong.append((offset, i))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work, args=(k,)) for k in range(4)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert wrong == []


class TestSnapshots:
    """random_async reads up to max_staleness + 1 round-start profiles; the others one."""

    # a random_async round draws who updates, then the ages of all B updating
    # users in one (B, Q - 1) call; that must be the stream of B calls of
    # Q - 1 ages each, in user order, for the pinned digests below to hold
    @pytest.mark.parametrize("K", range(1, 5))
    @pytest.mark.parametrize("Q", range(1, 9))
    def test_one_age_draw_per_round_is_one_draw_per_user(self, Q, K):
        batched, per_user = np.random.default_rng(Q * K), np.random.default_rng(Q * K)
        for B in [*range(Q + 1), Q, 1]:  # consecutive rounds of every size
            assert batched.random(Q).tobytes() == per_user.random(Q).tobytes()
            ages = batched.integers(0, K, (B, Q - 1))
            for row in ages:
                assert row.tobytes() == per_user.integers(0, K, Q - 1).tobytes()
        assert batched.random() == per_user.random()

    def test_random_async_round_is_one_call_for_its_updating_users(self, monkeypatch):
        # each round with an updating user makes one call, with the users as
        # an index array and their views as a (B, Q, N) stack; a round in
        # which no user updates makes none
        Q, N = 5, 6
        draws, calls = [], []
        original_views, original_br = solver._round_views, solver.best_response_powers

        def views(schedule, p, ring, slot, rnd, rng):
            pairs = tuple(original_views(schedule, p, ring, slot, rnd, rng))
            draws.append(pairs)
            return pairs

        def br(F, sigma2, eps, view, q, P, pmax):
            calls.append((q, view.shape))
            return original_br(F, sigma2, eps, view, q, P, pmax)

        monkeypatch.setattr(solver, "_round_views", views)
        monkeypatch.setattr(solver, "best_response_powers", br)
        ch = generate_channels(ChannelGenSpec(Q=Q, N=N, cross_variance=0.1, seed=2))
        cfg = GameConfig(P=np.ones(Q), pmax=np.ones((Q, N)), eps=np.full(Q, 0.05))
        res = solve(ch, cfg, default_initial_profile(ch, cfg),
                    Schedule(kind="random_async", seed=4, update_probability=0.3,
                             max_staleness=2),
                    SolverOptions(tol=1e-9, max_iters=300))
        assert len(draws) == res.iterations
        assert any(not pairs for pairs in draws) and any(pairs for pairs in draws)
        ran = [pairs[0] for pairs in draws if pairs]
        assert len(calls) == len(ran)
        for (qs, stack), (q, shape) in zip(ran, calls):
            assert q is qs and qs.size >= 1
            assert shape == (qs.size, Q, N)

    INT64_MAX = np.int64(2**63 - 1)

    # sha256 of the trajectory and mu bytes, recorded before the stale views
    # were drawn one call per updating user; covers Q = 1 (no other rows to
    # age), max_staleness 0 (every age 0) and bounds past the rounds run, the
    # largest numpy int64 among them (stored as a Python int, so + 1 cannot wrap)
    @pytest.mark.parametrize("Q, max_staleness, u, digest", [
    (1, 0, 0.3, "dd2daacfee69937d229ccdf0ed9254dd715f3954440a73fd32053798da8754c7"),
    (1, 0, 1.0, "73781769a3beb429cdbfc4b8d2a3cd1a803a62122b5e66b05610a1adccd8bbd0"),
    (1, 1, 0.3, "dd2daacfee69937d229ccdf0ed9254dd715f3954440a73fd32053798da8754c7"),
    (1, 1, 1.0, "73781769a3beb429cdbfc4b8d2a3cd1a803a62122b5e66b05610a1adccd8bbd0"),
    (1, 3, 0.3, "dd2daacfee69937d229ccdf0ed9254dd715f3954440a73fd32053798da8754c7"),
    (1, 3, 1.0, "73781769a3beb429cdbfc4b8d2a3cd1a803a62122b5e66b05610a1adccd8bbd0"),
    (1, 10**30, 0.3, "dd2daacfee69937d229ccdf0ed9254dd715f3954440a73fd32053798da8754c7"),
    (1, INT64_MAX, 0.3, "dd2daacfee69937d229ccdf0ed9254dd715f3954440a73fd32053798da8754c7"),
    (1, 10**30, 1.0, "73781769a3beb429cdbfc4b8d2a3cd1a803a62122b5e66b05610a1adccd8bbd0"),
    (1, INT64_MAX, 1.0, "73781769a3beb429cdbfc4b8d2a3cd1a803a62122b5e66b05610a1adccd8bbd0"),
    (2, 0, 0.3, "32816fdb44abad3e25156e03739ea6565af732c4e8587a1b2ce363d4b9dbc529"),
    (2, 0, 1.0, "9bbd1e0121e478da2ee28822e305a00f0d82d3d0fc74d512e78fc01c7eb1c77a"),
    (2, 1, 0.3, "77250a3cc3d4310ea38bc9383d28f085fa3054b45ea9efbabc32cb71fc436ec8"),
    (2, 1, 1.0, "caf60079cfe68d2fb70c6bb7155765f46378f8d91895ab0665a3aae0bc594dc1"),
    (2, 3, 0.3, "40a8e328eba28a265d8786bf41f118c932a55ae38398b5ad81da98c2b9d935d6"),
    (2, 3, 1.0, "8c5ee77c8fc6510bb4b575b60a4ba46fc4988d7a9a9ca12948ddff71c2a77048"),
    (2, 10**30, 0.3, "f4c49aedeb10acaae338697a0f52530754d33cef4a1a1594d43dadb68c3e5d0c"),
    (2, INT64_MAX, 0.3, "f4c49aedeb10acaae338697a0f52530754d33cef4a1a1594d43dadb68c3e5d0c"),
    (2, 10**30, 1.0, "d5571d0c0c31269f292dff2626ef71f4888c14f6f20d15ae5bb25749ad8e5301"),
    (2, INT64_MAX, 1.0, "d5571d0c0c31269f292dff2626ef71f4888c14f6f20d15ae5bb25749ad8e5301"),
    (5, 0, 0.3, "9b60078881e0c9e39115a4ddfedddf8fcc3fbe32ca734fb02fc0a5169aee8673"),
    (5, 0, 1.0, "f2f77084564318fb34afd55d58b0f8420f66b4ade6365e749acff37f491bbe71"),
    (5, 1, 0.3, "4103c01cee386d92d62cbbc813c23f51a3d4b0375ea6a207dbb4ae9993c56648"),
    (5, 1, 1.0, "005752e7685ff9d0c527defbe8ed546f7419362487756dc17aa9253289889faa"),
    (5, 3, 0.3, "3d050ef8ee69be0378dd8e030c4010853667c7daf29239a5024d20413f06bdc3"),
    (5, 3, 1.0, "2ebe5852403db96282e88363e26796d5eb1df034ce80f2400844bde356f217d0"),
    (5, 10**30, 0.3, "511a33d63c1983fb2cbc14ddc2f16f1b216f939446d6e2debd8b5060c04882eb"),
    (5, INT64_MAX, 0.3, "511a33d63c1983fb2cbc14ddc2f16f1b216f939446d6e2debd8b5060c04882eb"),
    (5, 10**30, 1.0, "9525ce786b9831fc237e24a2baf7527c4a0755a3fa801226628ac48f0fd127ad"),
    (5, INT64_MAX, 1.0, "9525ce786b9831fc237e24a2baf7527c4a0755a3fa801226628ac48f0fd127ad"),
    (8, 0, 0.3, "4049d389e2a2dea1e71a665c6ffd55f6f67fd6c887d5bf5a39e14adf4fc43ea7"),
    (8, 0, 1.0, "8cc2c29028fe96956b843ce175f78e35fddc734ccd95ae2eb5fd225e5031fdd7"),
    (8, 1, 0.3, "57a18523280a68d9dd0e7c3a8392b22f9c3161b45652163aeccc6eac8c6d410b"),
    (8, 1, 1.0, "8a74582cf0536644b37f962128722890ac1d1015a6405d4e8b3a5566ae8a4a78"),
    (8, 3, 0.3, "855c34afaa5d2aed50536410fad5a4b8b6507852816c0edcc637be9ecb592b88"),
    (8, 3, 1.0, "88ea5f84f9d595c97f097c700e2ae0a53df5458cb431609c9b3a5198dfb8773a"),
    (8, 10**30, 0.3, "4edd0f2b332247abfc69a9f4e895503b37258509bab5aa8620a52b8941dda08a"),
    (8, INT64_MAX, 0.3, "4edd0f2b332247abfc69a9f4e895503b37258509bab5aa8620a52b8941dda08a"),
    (8, 10**30, 1.0, "2d997d428a565ab042e74235864f3eb8fd852e649e7f4ef09b8c48f2147c102d"),
    (8, INT64_MAX, 1.0, "2d997d428a565ab042e74235864f3eb8fd852e649e7f4ef09b8c48f2147c102d"),
    ])
    def test_random_async_pinned_bytes(self, Q, max_staleness, u, digest):
        ch = generate_channels(ChannelGenSpec(Q=Q, N=6, seed=Q))
        cfg = GameConfig(P=np.ones(Q), pmax=np.ones((Q, 6)), eps=np.full(Q, 0.05))
        res = solve(ch, cfg, default_initial_profile(ch, cfg),
                    Schedule(kind="random_async", seed=9, update_probability=u,
                             max_staleness=max_staleness),
                    SolverOptions(tol=1e-9, max_iters=40, record_trajectory=True))
        assert hashlib.sha256(res.trajectory.tobytes() + res.mu.tobytes()).hexdigest() == digest

    @pytest.mark.parametrize("kind", ["jacobi", "gauss_seidel"])
    def test_deterministic_schedules_keep_one_snapshot(self, kind, best_response_calls):
        # 200 rounds of a 4 x 256 profile are 1.6 MB if every round is kept
        ch = generate_channels(ChannelGenSpec(Q=4, N=256, seed=0))
        cfg = GameConfig(P=np.ones(4), pmax=np.ones((4, 256)), eps=np.full(4, 0.05))
        initial = default_initial_profile(ch, cfg)
        peaks = []
        for max_staleness in (0, 10**6):
            tracemalloc.start()
            try:
                solve(ch, cfg, initial, Schedule(kind=kind, max_staleness=max_staleness),
                      SolverOptions(tol=1e-300, max_iters=200))
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert best_response_calls[0] == 2 * 200 * 4  # both solves ran every round
        assert peaks[1] <= 1.5 * peaks[0]

    def test_random_async_keeps_only_the_rounds_run(self):
        # up to round 20 both bounds give the ages one range, so both solves
        # draw alike and converge after round 20; a ring of max_iters
        # profiles of 4 x 256 would be 80 MB
        ch = generate_channels(ChannelGenSpec(Q=4, N=256, cross_variance=0.1, seed=0))
        cfg = GameConfig(P=np.ones(4), pmax=np.ones((4, 256)), eps=np.full(4, 0.05))
        initial = default_initial_profile(ch, cfg)
        peaks, results = [], []
        for max_staleness in (19, 10**6):
            tracemalloc.start()
            try:
                results.append(solve(ch, cfg, initial,
                                     Schedule(kind="random_async", seed=48,
                                              update_probability=0.5,
                                              max_staleness=max_staleness),
                                     SolverOptions(tol=3e-4, max_iters=10_000)))
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert [(r.iterations, r.converged) for r in results] == [(20, True)] * 2
        assert_same_result(*results)
        assert peaks[1] <= 1.5 * peaks[0]


class TestNonFiniteGame:
    """Interference that overflows to inf ends the solve with a DomainError."""

    @pytest.mark.parametrize("schedule", ALL_SCHEDULES, ids=lambda s: s.kind)
    @pytest.mark.parametrize("raise_all", [False, True], ids=["default", "errstate_raise"])
    def test_overflowing_interference(self, schedule, raise_all):
        Q, N = 4, 2
        F = np.full((Q, Q, N), 1.7e308)
        F[np.arange(Q), np.arange(Q), :] = 0.0
        ch = ChannelSet(F=F, sigma2=np.ones((Q, N)))
        cfg = GameConfig(P=np.ones(Q), pmax=np.full((Q, N), 2.0), eps=np.zeros(Q))
        errstate = np.errstate(all="raise") if raise_all else contextlib.nullcontext()
        with errstate, pytest.raises(DomainError, match="^phi and pmax must be finite$"):
            solve(ch, cfg, default_initial_profile(ch, cfg), schedule,
                  SolverOptions(max_iters=5))


class TestFixedPointResidual:
    def test_converged_result_satisfies_bound(self, rng):
        ch, cfg = random_instance(rng, 3, 6, eps=0.1)
        opts = SolverOptions(tol=1e-10)
        res = solve(ch, cfg, default_initial_profile(ch, cfg), Schedule(), opts)
        assert res.converged
        assert fixed_point_residual(ch, cfg, res.profile) <= 10 * opts.tol

    def test_uniform_profile_not_fixed_point(self, rng):
        ch, cfg = random_instance(rng, 2, 4, sigma_lo=0.1, sigma_hi=3.0)
        prof = default_initial_profile(ch, cfg)
        assert fixed_point_residual(ch, cfg, prof) > 0

    def test_single_user_one_application_is_fixed(self, rng):
        ch, cfg = random_instance(rng, 1, 5)
        prof = default_initial_profile(ch, cfg)
        powers, _ = robust_best_response(ch, cfg, prof, 0)
        fixed = PowerProfile(powers[None, :])
        assert fixed_point_residual(ch, cfg, fixed) <= 1e-12


def symmetry_games(size):
    """(channels, config, schedule, options) of the symmetry tests.

    small: 48 random games of 2-5 users on 2-23 bins, each user's eps 0 or
    0.025-0.075, masks that bind, the three schedules in turn. wide: one
    jacobi game on 1024 bins.
    """
    if size == "wide":
        ch = generate_channels(ChannelGenSpec(Q=8, N=1024, cross_variance=0.1,
                                              noise_power=0.01, seed=1))
        cfg = GameConfig(P=np.ones(8), pmax=np.ones((8, 1024)), eps=np.full(8, 0.05))
        yield ch, cfg, Schedule(kind="jacobi"), SolverOptions(tol=1e-8, max_iters=1000)
        return
    rng = np.random.default_rng(12)
    for i in range(48):
        Q, N = int(rng.integers(2, 6)), int(rng.integers(2, 24))
        F = rng.exponential(size=(Q, Q, N)) * rng.uniform(0.05, 0.5) / (Q - 1)
        F[np.arange(Q), np.arange(Q), :] = 0.0
        P = rng.uniform(0.5, 2.0, Q)
        eps = np.where(rng.random(Q) < 0.5, 0.0, rng.uniform(0.025, 0.075, Q))
        cfg = GameConfig(P=P, pmax=rng.uniform(1.0, 3.0, (Q, N)) * (P / N)[:, None], eps=eps)
        ch = ChannelSet(F=F, sigma2=rng.uniform(0.05, 2.0, (Q, N)))
        yield ch, cfg, ALL_SCHEDULES[i % 3], SolverOptions(tol=1e-11, max_iters=2000)


def solve_from_uniform(ch, cfg, schedule, opts):
    return solve(ch, cfg, default_initial_profile(ch, cfg), schedule, opts)


def report_games():
    """(channels, config) of the build_report symmetry tests.

    300 random games of 2-6 users on 2-23 bins, half the users robust; one
    game in three gives every user the same eps, so that its report carries
    the uniform-eps margin.
    """
    rng = np.random.default_rng(31)
    for i in range(300):
        Q, N = int(rng.integers(2, 7)), int(rng.integers(2, 24))
        F = rng.exponential(size=(Q, Q, N)) * rng.uniform(0.05, 0.8) / (Q - 1)
        F[np.arange(Q), np.arange(Q), :] = 0.0
        P = rng.uniform(0.5, 2.0, Q)
        if i % 3 == 0:
            eps = np.full(Q, rng.uniform(0.025, 0.075))
        else:
            eps = np.where(rng.random(Q) < 0.5, 0.0, rng.uniform(0.025, 0.075, Q))
        cfg = GameConfig(P=P, pmax=rng.uniform(1.0, 3.0, (Q, N)) * (P / N)[:, None], eps=eps)
        yield ChannelSet(F=F, sigma2=rng.uniform(0.05, 2.0, (Q, N))), cfg


def relabeled_users(ch, cfg, perm):
    """The game with user perm[i] renamed i."""
    return (ChannelSet(F=ch.F[perm][:, perm], sigma2=ch.sigma2[perm]),
            GameConfig(P=cfg.P[perm], pmax=cfg.pmax[perm], eps=cfg.eps[perm]))


# a result that a relabeling of the users moves in its last bits must stay
# within this tolerance, relative to its own size
RELABEL_RTOL = 64 * np.finfo(float).eps


def report_numbers(report):
    return (report.rho_E, report.rho_Smax, report.uniqueness_holds,
            report.uniform_eps_margin, report.contraction_modulus)


class TestSymmetries:
    """Relabeling the bins and scaling every power by 2 commute with solve, bit for bit.

    Phi and the water level are computed bin by bin, and the sweep's result
    does not depend on the order of its events, nor on which of them a wide
    sweep samples. Sums over bins (the residual's norms, the sum-rate) can
    change in their last bits under a relabeling, and are compared to a
    tolerance there. build_report is bin-blind bit for bit. Relabeling the
    users relabels E and Smax exactly; the sums over users (Phi, the
    modulus's row sums) and the radii move by at most RELABEL_RTOL.
    """

    @pytest.mark.parametrize("size", ["small", "wide"])
    def test_bin_permutation(self, size):
        rng = np.random.default_rng(7)
        for ch, cfg, schedule, opts in symmetry_games(size):
            perm = rng.permutation(ch.N)
            permuted = ChannelSet(F=ch.F[:, :, perm], sigma2=ch.sigma2[:, perm])
            base = solve_from_uniform(ch, cfg, schedule, opts)
            res = solve_from_uniform(
                permuted, GameConfig(P=cfg.P, pmax=cfg.pmax[:, perm], eps=cfg.eps), schedule, opts)
            assert base.converged
            assert res.profile.p.tobytes() == base.profile.p[:, perm].tobytes()
            assert res.mu.tobytes() == base.mu.tobytes()
            assert (res.iterations, res.converged) == (base.iterations, base.converged)
            # a sum of N terms in another order moves by at most about N ulps
            rtol = ch.N * np.finfo(float).eps
            assert abs(res.residual - base.residual) <= rtol * base.residual
            rate = sum_rate(ch, base.profile)
            assert abs(sum_rate(permuted, res.profile) - rate) <= rtol * rate

    @pytest.mark.parametrize("size", ["small", "wide"])
    def test_power_of_two_scale(self, size):
        # sigma2, P, pmax and tol times 2: Phi, the sweep and sqrt are
        # homogeneous under a power of two, and every SINR is unchanged
        for ch, cfg, schedule, opts in symmetry_games(size):
            base = solve_from_uniform(ch, cfg, schedule, opts)
            scaled_ch = ChannelSet(F=ch.F, sigma2=2 * ch.sigma2)
            res = solve_from_uniform(
                scaled_ch, GameConfig(P=2 * cfg.P, pmax=2 * cfg.pmax, eps=cfg.eps), schedule,
                SolverOptions(tol=2 * opts.tol, max_iters=opts.max_iters))
            assert res.profile.p.tobytes() == (2 * base.profile.p).tobytes()
            assert res.mu.tobytes() == (2 * base.mu).tobytes()
            assert (res.iterations, res.converged) == (base.iterations, base.converged)
            assert res.residual == 2 * base.residual
            assert sum_rate(scaled_ch, res.profile) == sum_rate(ch, base.profile)

    def test_user_relabel(self):
        # jacobi only: gauss_seidel's user order is its definition, and
        # random_async draws its updates and ages in user order
        rng = np.random.default_rng(3)
        jacobi = Schedule(kind="jacobi")
        for ch, cfg, _, opts in symmetry_games("small"):
            perm = rng.permutation(ch.Q)
            base = solve_from_uniform(ch, cfg, jacobi, opts)
            res = solve_from_uniform(*relabeled_users(ch, cfg, perm), jacobi, opts)
            assert base.converged
            assert (res.iterations, res.converged) == (base.iterations, base.converged)
            err = np.abs(res.profile.p - base.profile.p[perm])
            assert (err <= RELABEL_RTOL * cfg.P[perm, None]).all()
            assert (np.abs(res.mu - base.mu[perm]) <= RELABEL_RTOL * np.abs(base.mu[perm])).all()

    def test_report_bin_permutation(self):
        rng = np.random.default_rng(8)
        for ch, cfg in report_games():
            perm = rng.permutation(ch.N)
            base = build_report(ch, cfg)
            res = build_report(ChannelSet(F=ch.F[:, :, perm], sigma2=ch.sigma2[:, perm]),
                               GameConfig(P=cfg.P, pmax=cfg.pmax[:, perm], eps=cfg.eps))
            assert res.E.tobytes() == base.E.tobytes()
            assert res.Smax.tobytes() == base.Smax.tobytes()
            assert report_numbers(res) == report_numbers(base)

    def test_report_user_relabel(self):
        rng = np.random.default_rng(8)
        for ch, cfg in report_games():
            perm = rng.permutation(ch.Q)
            base = build_report(ch, cfg)
            res = build_report(*relabeled_users(ch, cfg, perm))
            assert res.E.tobytes() == base.E[perm][:, perm].tobytes()
            assert res.Smax.tobytes() == base.Smax[perm][:, perm].tobytes()
            for name in ("rho_E", "rho_Smax", "contraction_modulus"):
                value = getattr(base, name)
                assert abs(getattr(res, name) - value) <= RELABEL_RTOL * value
            scale = 1.0 + base.rho_E + base.rho_Smax
            if base.uniform_eps_margin is None:
                assert res.uniform_eps_margin is None
            else:
                assert abs(res.uniform_eps_margin - base.uniform_eps_margin) <= RELABEL_RTOL * scale
            # a verdict closer to its edge than the radii's tolerance may go either way
            if abs(1.0 - base.rho_E - base.rho_Smax) > RELABEL_RTOL * scale:
                assert res.uniqueness_holds == base.uniqueness_holds


def unrecorded_result():
    _, ch, cfg = fig1_instance()
    return solve(ch, cfg, default_initial_profile(ch, cfg))


# the input checks no other test reaches
@pytest.mark.parametrize("call, message", [
    (lambda path: Schedule(kind="bogus"), "unknown schedule kind 'bogus'"),
    (lambda path: Schedule(update_probability=0.0), r"update_probability must be in \(0, 1\]"),
    (lambda path: Schedule(max_staleness=-1), "max_staleness must be >= 0"),
    (lambda path: Schedule(kind="random_async", max_staleness=1.5),
     "max_staleness must be an integer"),
    (lambda path: Schedule(seed=-1), r"seed must be an integer >= 0"),
    (lambda path: SolverOptions(max_iters=2.5), "max_iters must be an integer"),
    (lambda path: write_trajectory_csv(unrecorded_result(), path),
     "result carries no trajectory"),
    (lambda path: SolverOptions(tol=float("inf")), "tol must be finite"),
    (lambda path: SolverOptions(max_iters=True), "max_iters must be an integer"),
    (lambda path: Schedule(seed=True), r"seed must be an integer >= 0"),
    (lambda path: Schedule(kind="random_async", max_staleness=True),
     "max_staleness must be an integer"),
    (lambda path: Schedule(kind="random_async", update_probability=True),
     r"update_probability must be in \(0, 1\]"),
    (lambda path: Schedule(kind="random_async", update_probability="0.5"),
     r"update_probability must be in \(0, 1\]"),
    (lambda path: SolverOptions(tol=True), "tol must be positive"),
], ids=["kind", "update_probability", "max_staleness", "max_staleness_float", "seed_negative",
        "max_iters_float", "no_trajectory", "tol_inf", "max_iters_bool", "seed_bool",
        "max_staleness_bool", "update_probability_bool", "update_probability_str", "tol_bool"])
def test_input_checks(tmp_path, call, message):
    path = tmp_path / "t.csv"
    with pytest.raises(DomainError, match=message):
        call(path)
    assert not path.exists()


# a tol a float cannot hold is too large, like inf, not too small
@pytest.mark.parametrize("tol, message", [
    (10**400, "tol must be finite"),
    (float("inf"), "tol must be finite"),
    (-10**400, "tol must be positive"),
    (0, "tol must be positive"),
    (float("nan"), "tol must be positive"),
    ("1e-8", "tol must be positive"),
], ids=["int_10e400", "inf", "negative_int_10e400", "zero", "nan", "string"])
def test_tol_faults(tol, message):
    with pytest.raises(DomainError, match=message):
        SolverOptions(tol=tol)


class TestTrajectoryCsv:
    def test_csv_layout_and_determinism(self, tmp_path, rng):
        ch, cfg = random_instance(rng, 2, 3, eps=0.1)
        res = solve(ch, cfg, default_initial_profile(ch, cfg),
                    Schedule(kind="jacobi"), SolverOptions(record_trajectory=True))
        out1 = tmp_path / "traj1.csv"
        out2 = tmp_path / "traj2.csv"
        write_trajectory_csv(res, out1)
        write_trajectory_csv(res, out2)
        text = out1.read_text()
        assert text.splitlines()[0] == "round,user,frequency,power,residual"
        rows = text.splitlines()[1:]
        assert len(rows) == res.trajectory.shape[0] * 2 * 3
        assert out1.read_bytes() == out2.read_bytes()

    # sha256 of the trajectory CSV of one generated game, recorded before the
    # schedules shared one update loop; any change to the iterates, the update
    # order or the random_async draws changes these bytes
    @pytest.mark.parametrize("schedule, digest", [
        (Schedule(kind="jacobi"),
         "d1a02b86e6eb37997c7bc3535b6445ee1ab49e9603118415ba2198d33bb00a89"),
        (Schedule(kind="gauss_seidel"),
         "554129c04eb8669460b7790b3edb096d2221e8259e72c4360b2d64e65f45e43f"),
        (Schedule(kind="random_async", seed=1, update_probability=0.5, max_staleness=2),
         "3240eba28401bdc931feabca100ce6ccfb069be83ee4965337ec21c082e50914"),
    ], ids=["jacobi", "gauss_seidel", "random_async"])
    def test_pinned_bytes(self, tmp_path, schedule, digest):
        ch = generate_channels(ChannelGenSpec(Q=3, N=8, seed=4))
        cfg = GameConfig(P=np.ones(3), pmax=np.ones((3, 8)), eps=np.full(3, 0.02))
        res = solve(ch, cfg, default_initial_profile(ch, cfg), schedule,
                    SolverOptions(tol=1e-8, max_iters=200, record_trajectory=True))
        out = tmp_path / "traj.csv"
        write_trajectory_csv(res, out)
        assert hashlib.sha256(out.read_bytes()).hexdigest() == digest

    # sha256 of the trajectory CSV of a Q = 8, N = 64 random_async solve in
    # which users with eps 0 sit beside users with eps 0.05, recorded while
    # each updating user still made its own best-response call; at u = 0.2
    # some rounds update no user at all
    def test_random_async_idle_rounds_pinned_bytes(self, tmp_path, monkeypatch):
        pairs = []
        original = solver._round_views

        def counted(*args):
            views = tuple(original(*args))
            pairs.append(len(views))
            return views

        monkeypatch.setattr(solver, "_round_views", counted)
        ch = generate_channels(ChannelGenSpec(Q=8, N=64, seed=5, cross_variance=0.1))
        cfg = GameConfig(P=np.ones(8), pmax=np.ones((8, 64)), eps=np.tile([0.0, 0.05], 4))
        res = solve(ch, cfg, default_initial_profile(ch, cfg),
                    Schedule(kind="random_async", seed=3, update_probability=0.2,
                             max_staleness=2),
                    SolverOptions(tol=1e-8, max_iters=200, record_trajectory=True))
        out = tmp_path / "traj.csv"
        write_trajectory_csv(res, out)
        assert (res.iterations, res.converged) == (84, True)
        assert 0 in pairs
        assert hashlib.sha256(out.read_bytes()).hexdigest() == (
            "cdde4f7001c067fd69dff136aa8d95718dfb46298a92c5eb4b82066126924415")
