import builtins
import contextlib
import hashlib
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from rategame import (
    ChannelGenSpec,
    ChannelSet,
    DomainError,
    GameConfig,
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
        res = solve(ch, cfg, default_initial_profile(ch, cfg), Schedule(kind="jacobi"),
                    self.OPTS)
        assert calls[0] <= 20  # 2 * 1000 without the exit
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

    # strongly coupled games: about a third stop at max_iters and about one in
    # ten exits on a cycle; the solve that may exit must return what the
    # recorded solve, which runs every round, returns, also with a 2-bit hash,
    # under which most proposed cycles collide and fail their byte proof
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
        tiny_hash = mock.patch.object(solver, "hash", create=True,
                                      new=lambda b: builtins.hash(b) & 3)
        for hashing in (contextlib.nullcontext(), tiny_hash):
            with hashing:
                fast = solve(ch, cfg, initial, Schedule(kind=kind),
                             SolverOptions(tol=1e-8, max_iters=max_iters))
            assert_same_result(fast, full)
            assert full.trajectory[-1].tobytes() == fast.profile.p.tobytes()


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
], ids=["kind", "update_probability", "max_staleness", "max_staleness_float", "seed_negative",
        "max_iters_float", "no_trajectory"])
def test_input_checks(tmp_path, call, message):
    path = tmp_path / "t.csv"
    with pytest.raises(DomainError, match=message):
        call(path)
    assert not path.exists()


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
