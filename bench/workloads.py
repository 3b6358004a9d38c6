"""The benchmark's workloads: inputs from a seed, one op, and its output check.

Every workload is a closed loop in one process: op i runs only after op i-1
has returned. Op i is a pure function of (seed, i), so the first `window`
ops, whose counts and digest are reported, are the same in every run of a
seed, traced or not.

mc_c11       run_single_trial at the C11 point (Q=3, N=16, gauss_seidel,
             tol 1e-8, max_iters 1000, deltas 0/0.2/0.4/0.6). The repo's
             headline job; its cost is per-call overhead, and 9.9% of its
             ops contain a solve that burns all 1000 rounds.
wide_jacobi  48 games of Q=16, N=1024, cross_variance 0.1, eps 0.05, jacobi;
             each op is build_report + solve + sum_rate. The cost is
             arithmetic (the sort inside the water-level search), not call
             count.
async_mid    256 games of Q=8, N=64, cross_variance 0.1, eps 0.05,
             random_async with u=0.5, d=2, seeded per game; same op. The
             solver's own round assembly (stale views, Q^2 draws per round)
             carries weight here.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from rategame import conditions, core, experiment, solver
from rategame.core import GameConfig
from rategame.experiment import ChannelGenSpec, UncertaintySpec
from rategame.solver import Schedule, SolverOptions

import check as oracle

HERE = Path(__file__).resolve().parent
STRATA_FILE = HERE / "c11_strata.json"
STRATA = 40  # 2000 C11 ops -> 50 per stratum

OPTS = SolverOptions(tol=1e-8, max_iters=1000)


def _game_config(Q, N, eps):
    return GameConfig(P=np.ones(Q), pmax=np.ones((Q, N)), eps=np.full(Q, eps))


def _window_blocks(seconds):
    """Blocks in the counted window: one per 5 s of run, so that the window
    (a block takes about 2 s here) ends well inside an untraced run."""
    return max(1, int(seconds // 5))


class MonteCarlo:
    """C11 trials, sampled by seed from the sweep's 2000 (trial, delta) ops.

    The C11 sweep (gen seed 2024, u seed 2025, 500 trials x 4 deltas) is the
    population. c11_strata.json holds the total solver rounds of each of its
    ops (made by make_data.py); ranked by rounds, they form STRATA equal
    strata, and every block of ops draws one op from each stratum, in an
    order set by the seed. Each block therefore carries the population's
    share of max_iters solves, and a run's cost does not hinge on how many
    of them one seed happens to draw. Runs end on block boundaries.
    """

    name = "mc_c11"

    def __init__(self, seed, seconds):
        table = json.loads(STRATA_FILE.read_text())
        self.deltas = table["deltas"]
        self.gen = ChannelGenSpec(Q=table["Q"], N=table["N"], seed=table["gen_seed"])
        self.u_seed = table["u_seed"]
        self.cfg = experiment.default_game_config(table["Q"], table["N"])
        self.schedule = Schedule(kind="gauss_seidel")
        # op index = trial * len(deltas) + delta index
        ranked = np.argsort(np.asarray(table["rounds"]), kind="stable")
        strata = np.array_split(ranked, STRATA)
        rng = np.random.default_rng(seed)
        self._members = [rng.permutation(s) for s in strata]
        self._seed = seed
        self._orders = []
        self.block = STRATA
        self.window = self.block * _window_blocks(seconds)
        self.captured = []
        self._solve = experiment.solve

    def __enter__(self):
        # capture every solve of a trial for the output check; the lookup of
        # solver.solve happens per call so an installed tracer still sees it
        def capture(*args):
            result = solver.solve(*args)
            self.captured.append((args[0], args[1], result))
            return result

        experiment.solve = capture
        return self

    def __exit__(self, *exc):
        experiment.solve = self._solve

    def _op_index(self, i):
        b, pos = divmod(i, self.block)
        while len(self._orders) <= b:
            rng = np.random.default_rng([self._seed, len(self._orders)])
            self._orders.append(rng.permutation(self.block))
        members = self._members[self._orders[b][pos]]
        return int(members[b % len(members)])

    def warmup(self):
        """An op of the cheapest stratum, so set-up time does not hinge on the seed."""
        return self._trial(int(self._members[0][0]))

    def run(self, i):
        return self._trial(self._op_index(i))

    def _trial(self, index):
        trial, d = divmod(index, len(self.deltas))
        self.captured.clear()
        records = experiment.run_single_trial(
            self.gen, UncertaintySpec(delta=self.deltas[d], seed=self.u_seed),
            self.cfg, self.schedule, OPTS, trial,
        )
        return records, list(self.captured)

    def check(self, out):
        """Problems, digest lines and (iterations, converged) per solve."""
        records, captured = out
        problems = []
        if [r.kind for r in records] != list(experiment.KINDS) or len(captured) != 3:
            return ["unexpected trial layout"], [], []
        true_ch = captured[experiment.KINDS.index("perfect")][0]
        for rec, (ch, cfg, res) in zip(records, captured):
            p = res.profile.p
            problems += oracle.check_solve(ch.F, ch.sigma2, cfg.P, cfg.pmax, cfg.eps,
                                          p, res.converged)
            problems += oracle.check_sum_rate(rec.sum_rate_true, true_ch.F,
                                             true_ch.sigma2, p)
            if (rec.iterations, rec.converged) != (res.iterations, res.converged):
                problems.append("record disagrees with its solve")
            if not np.array_equal(rec.occupancy, oracle.occupancy(p, cfg.P)):
                problems.append("occupancy disagrees with the profile")
        digest = [f"{r.kind} {r.iterations} {int(r.converged)} {r.sum_rate_true:.17g}"
                  for r in records]
        solves = [(r.iterations, r.converged) for r in records]
        return problems, digest, solves


class GameSet:
    """A pool of generated games, cycled; op = build_report + solve + sum_rate.

    A block is `block` consecutive ops; runs end on block boundaries.
    """

    def __init__(self, seed, seconds):
        self.window = self.block * _window_blocks(seconds)
        spawn = np.random.SeedSequence(seed).spawn(self.pool)
        self.games = []
        for i, child in enumerate(spawn):
            ch = experiment.generate_channels(ChannelGenSpec(
                Q=self.Q, N=self.N, cross_variance=0.1, seed=child))
            self.games.append((ch, _game_config(self.Q, self.N, 0.05),
                               self.schedule(seed, i)))

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        pass

    def warmup(self):
        return self.run(0)

    def run(self, i):
        ch, cfg, schedule = self.games[i % self.pool]
        report = conditions.build_report(ch, cfg)
        result = solver.solve(ch, cfg, solver.default_initial_profile(ch, cfg),
                              schedule, OPTS)
        rate = core.sum_rate(ch, result.profile)
        return ch, cfg, report, result, rate

    def check(self, out):
        ch, cfg, report, res, rate = out
        p = res.profile.p
        problems = oracle.check_solve(ch.F, ch.sigma2, cfg.P, cfg.pmax, cfg.eps,
                                     p, res.converged)
        problems += oracle.check_sum_rate(rate, ch.F, ch.sigma2, p)
        # rho(E) has a closed form under uniform eps; rho(Smax) lies between
        # the smallest and largest row sums of the nonnegative Smax
        rho_E = cfg.eps[0] * (cfg.Q - 1)
        if not abs(report.rho_E - rho_E) <= 1e-12 * max(rho_E, 1.0):
            problems.append(f"rho_E {report.rho_E!r} != {rho_E!r}")
        rows = report.Smax.sum(axis=1)
        if not rows.min() * (1 - 1e-9) <= report.rho_Smax <= rows.max() * (1 + 1e-9):
            problems.append(f"rho_Smax {report.rho_Smax!r} outside its row-sum bounds")
        digest = [f"{res.iterations} {int(res.converged)} {rate:.17g}"]
        return problems, digest, [(res.iterations, res.converged)]


class WideJacobi(GameSet):
    name = "wide_jacobi"
    # 48 games, so that the latency tail of a run hinges little on the few
    # slowest games its seed drew; 16-op blocks keep the counted window short
    Q, N, pool, block = 16, 1024, 48, 16

    def schedule(self, seed, i):
        return Schedule(kind="jacobi")


class AsyncMid(GameSet):
    name = "async_mid"
    # 256 games, so that the latency quantiles of a run hinge little on
    # which games its seed drew
    Q, N, pool, block = 8, 64, 256, 64

    def schedule(self, seed, i):
        return Schedule(kind="random_async", seed=seed * 10_000 + i,
                        update_probability=0.5, max_staleness=2)


WORKLOADS = {w.name: w for w in (MonteCarlo, WideJacobi, AsyncMid)}
