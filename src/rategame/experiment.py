"""Channel generation, relative-uncertainty model and the Monte-Carlo harness.

A trial draws the true channels once and spans the delta grid. Its games
are solved and scored on the TRUE channels:
  robust   - noisy coefficients with the derived uncertainty bound,
  nominal  - the same noisy coefficients with the uncertainty ignored,
  perfect  - the true coefficients (ideal CSI baseline), solved once per trial.

Reproducibility contract: (gen.seed, u.seed, schedule.seed, trials) determine
every output byte. Per-trial generators are spawned as
default_rng([base_seed, trial]) so serial and parallel runs agree, and the
relative-error draws are scaled by delta after sampling so sweeps over delta
reuse the same channel and error realizations (paired comparisons).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import partial

import numpy as np

from .core import (
    ChannelSet, DomainError, GameConfig, StructuralError, check_positive_finite, is_int, is_real,
    sum_rate, write_csv,
)
from .conditions import build_report
from .metrics import occupancy_counts
from .solver import Schedule, SolverOptions, default_initial_profile, solve

KINDS = ("robust", "nominal", "perfect")

# Default operating point. The noise power puts the generated channels in the
# interference-significant regime (interference comparable to or above noise
# at the equilibrium), where robustness against coefficient errors pays off;
# with noise power near 1 these channels are noise-dominated and the robust
# penalty only hurts. Override via the config when studying other regimes.
DEFAULT_NOISE_POWER = 0.01
# Solver options of the Monte-Carlo sweep (C11's operating point).
DEFAULT_SOLVER_OPTIONS = SolverOptions(tol=1e-8, max_iters=1000)

# Summary prefix -> the per-record value whose mean and standard error it reports.
SUMMARY_METRICS = {
    "sum_rate": lambda r: r.sum_rate_true,
    "occupancy": lambda r: r.occupancy.mean(),
    "iterations": lambda r: r.iterations,
}
SUMMARY_COLUMNS = ("n_included", "n_excluded",
                   *(f"{m}_{s}" for m in SUMMARY_METRICS for s in ("mean", "stderr")))


def _check_seed(seed):
    if not (isinstance(seed, np.random.SeedSequence) or is_int(seed) and seed >= 0):
        raise DomainError("seed must be an integer >= 0 or a SeedSequence")


@dataclass(frozen=True)
class ChannelGenSpec:
    """Rayleigh-fading generator: |H|^2 drawn exponential with the given means."""

    Q: int
    N: int
    cross_variance: float = 1.0
    direct_variance: float = 2.25
    noise_power: float = DEFAULT_NOISE_POWER
    seed: int = 0

    def __post_init__(self):
        if not (is_int(self.Q) and is_int(self.N)):
            raise DomainError("Q and N must be integers")
        if self.Q < 1 or self.N < 1:
            raise DomainError("Q and N must be positive")
        _check_seed(self.seed)
        check_positive_finite("variances", self.cross_variance, self.direct_variance)
        check_positive_finite("noise power", self.noise_power)


@dataclass(frozen=True)
class UncertaintySpec:
    """Relative multiplicative error on the cross coefficients, width delta < 1."""

    delta: float
    seed: int = 0

    def __post_init__(self):
        if not (is_real(self.delta) and 0.0 <= self.delta < 1.0):
            raise DomainError("delta must lie in [0, 1)")
        _check_seed(self.seed)


@dataclass(frozen=True)
class TrialRecord:
    trial: int
    kind: str
    delta: float
    profile: np.ndarray  # the solve's own read-only (Q, N) equilibrium; no CSV writes it
    sum_rate_true: float
    occupancy: np.ndarray
    iterations: int
    converged: bool
    uniqueness_ok: bool
    included: bool  # all three solves of the trial converged


def generate_channels(spec: ChannelGenSpec) -> ChannelSet:
    """True channel draw: F[r, q, k] = |H_rq|^2 / |H_qq|^2, sigma2 = noise / |H_qq|^2.

    Modulus-squared gains of circular Gaussians are exponential, so they are
    drawn directly as exponentials; no complex arithmetic is needed.
    """
    rng = np.random.default_rng(spec.seed)
    direct = rng.exponential(spec.direct_variance, size=(spec.Q, spec.N))
    cross = rng.exponential(spec.cross_variance, size=(spec.Q, spec.Q, spec.N))
    F = cross / direct[None, :, :]
    idx = np.arange(spec.Q)
    F[idx, idx, :] = 0.0
    sigma2 = spec.noise_power / direct
    return ChannelSet(F=F, sigma2=sigma2)


def perturb_channels(true_ch: ChannelSet, u: UncertaintySpec):
    """Noisy coefficients and the uncertainty bound that provably contains the truth.

    Nominal F = true F * (1 + e) with e uniform on [-delta/2, delta/2]. The
    derived bound is

        eps_q = (delta/2) / (1 - delta/2) * max_k || nominal cross vector (k) ||_2

    which guarantees the true coefficients lie within eps_q of the nominal
    ones in per-bin Euclidean norm: ||true - nominal||(k) <= (delta/2)
    ||true(k)|| and ||true(k)|| <= ||nominal(k)|| / (1 - delta/2).
    At delta 0 the nominal channels are the true ones: true_ch itself is
    returned, with zero bounds, and nothing is drawn.
    """
    Q, N = true_ch.Q, true_ch.N
    if u.delta == 0:
        return true_ch, np.zeros(Q)
    rng = np.random.default_rng(u.seed)
    e = u.delta * rng.uniform(-0.5, 0.5, size=(Q, Q, N))
    F_nom = true_ch.F * (1.0 + e)  # the diagonal stays 0: 1 + e > 0 for delta < 1
    factor = (u.delta / 2.0) / (1.0 - u.delta / 2.0)
    # r != q only: a zero diagonal in the sum would reorder numpy's pairwise sum at N = 1
    cross = F_nom.transpose(1, 0, 2)[~np.eye(Q, dtype=bool)].reshape(Q, Q - 1, N)
    eps = factor * np.sqrt((cross * cross).sum(axis=1)).max(axis=1)
    return ChannelSet(F=F_nom, sigma2=true_ch.sigma2), eps


def _spawn_seed(base: int, trial: int) -> np.random.SeedSequence:
    if not all(is_int(v) and v >= 0 for v in (base, trial)):
        raise DomainError("a trial's seed and number must be integers >= 0")
    return np.random.SeedSequence([base, trial])


def default_game_config(Q: int, N: int) -> GameConfig:
    """Unit budgets and unit masks, no uncertainty."""
    return GameConfig(P=np.ones(Q), pmax=np.ones((Q, N)), eps=np.zeros(Q))


def _sweep_trial(gen, uncertainty, cfg_template, schedule, opts, trial):
    """One channel draw solved at every width; one record list per width.

    The perfect game does not depend on delta: it is solved once, after the
    first width's robust and nominal games, and its row is reused at every width.
    Every game starts from one uniform profile, and every game without
    uncertainty shares one eps-0 config. At delta 0 the robust and nominal
    games so get the perfect game's channels, config and start objects
    themselves, and `solve` runs that game once for all three.
    """
    true_ch = generate_channels(replace(gen, seed=_spawn_seed(gen.seed, trial)))
    certain = GameConfig(P=cfg_template.P, pmax=cfg_template.pmax, eps=np.zeros(gen.Q))
    start = default_initial_profile(true_ch, certain)

    def game(kind, ch, cfg):
        report = build_report(ch, cfg)
        result = solve(ch, cfg, start, schedule, opts)
        return dict(kind=kind, profile=result.profile.p,
                    sum_rate_true=sum_rate(true_ch, result.profile),
                    occupancy=occupancy_counts(result.profile, cfg.P),
                    iterations=result.iterations, converged=result.converged,
                    uniqueness_ok=report.uniqueness_holds)

    per_width, perfect = [], None
    for u in uncertainty:
        nominal_ch, eps = perturb_channels(true_ch, replace(u, seed=_spawn_seed(u.seed, trial)))
        robust_cfg = replace(certain, eps=eps) if eps.any() else certain
        rows = [game("robust", nominal_ch, robust_cfg), game("nominal", nominal_ch, certain)]
        perfect = perfect or game("perfect", true_ch, certain)
        rows.append(perfect)
        included = all(r["converged"] for r in rows)
        per_width.append([TrialRecord(trial=trial, delta=u.delta, included=included, **r)
                          for r in rows])
    return per_width


def run_single_trial(
    gen: ChannelGenSpec,
    u: UncertaintySpec,
    cfg_template: GameConfig,
    schedule: Schedule,
    opts: SolverOptions,
    trial: int,
):
    """The three solves of one trial at one width, in KINDS order."""
    return _sweep_trial(gen, [u], cfg_template, schedule, opts, trial)[0]


def run_trials(
    gen: ChannelGenSpec,
    uncertainty: list[UncertaintySpec],
    schedule: Schedule = Schedule(kind="gauss_seidel"),
    opts: SolverOptions = DEFAULT_SOLVER_OPTIONS,
    trials: int = 1,
    pool=None,
):
    """Monte-Carlo sweep: `trials` channel draws, each solved at every width.

    Returns one record list per UncertaintySpec, in (trial, kind) order.
    Every solve starts from the uniform profile (`default_initial_profile`),
    and each record holds the equilibrium that start reaches: a game that
    fails the uniqueness condition can have many, and the others are not
    sought. Trials with any non-convergent solve are kept but marked
    excluded so averages stay apples-to-apples; the sufficient uniqueness
    condition is recorded as data, not used as a filter (the heavy-tailed
    fading law fails it: at Q=3, N=16 the C11 sweep fails it on every draw,
    at every delta and for every kind, while most solves still converge).
    """
    if not (is_int(trials) and trials >= 1):
        raise DomainError("trials must be an integer >= 1")
    trial = partial(_sweep_trial, gen, uncertainty, default_game_config(gen.Q, gen.N),
                    schedule, opts)
    # both maps yield in trial order, which keeps the output deterministic
    results = list((map if pool is None else pool.map)(trial, range(trials)))
    return [[record for per_width in results for record in per_width[w]]
            for w in range(len(uncertainty))]


def aggregate(records):
    """Mean and standard error of each SUMMARY_METRICS value per kind over included trials.

    Raises DomainError when no trial survived; excluded counts are reported.
    """
    rows = []
    for kind in KINDS:
        mine = [r for r in records if r.kind == kind]
        if not mine:
            continue
        used = [r for r in mine if r.included]
        if not used:
            raise DomainError(f"no included trials for kind {kind!r}")
        row = dict(kind=kind, delta=used[0].delta, n_included=len(used),
                   n_excluded=len(mine) - len(used))
        for name, value in SUMMARY_METRICS.items():
            arr = np.asarray([value(r) for r in used], dtype=float)
            row[f"{name}_mean"] = float(arr.mean())
            row[f"{name}_stderr"] = (float(arr.std(ddof=1) / np.sqrt(arr.size))
                                     if arr.size > 1 else 0.0)
        rows.append(row)
    return rows


def write_trial_csv(records, path, Q: int, N: int):
    """One row per TrialRecord.

    A record whose profile is not (Q, N) is refused before anything is written.
    """
    records = list(records)
    for r in records:
        if r.profile.shape != (Q, N):
            raise StructuralError(
                f"trial {r.trial} {r.kind} profile is {r.profile.shape}, not ({Q}, {N})"
            )
    header = ["trial", "kind", "delta", "Q", "N", "sum_rate_true",
              *(f"occupancy_u{q + 1}" for q in range(Q)), "occupancy_mean",
              "iterations", "converged", "uniqueness_ok"]
    write_csv(path, header, (
        (r.trial, r.kind, r.delta, Q, N, r.sum_rate_true, *map(int, r.occupancy),
         r.occupancy.mean(), r.iterations, r.converged, r.uniqueness_ok)
        for r in records
    ))


def write_summary_csv(rows, path, Q: int, N: int):
    """Sweep summary: one row per (delta, kind)."""
    write_csv(path, ["delta", "Q", "N", "kind", *SUMMARY_COLUMNS], (
        (row["delta"], Q, N, row["kind"], *(row[c] for c in SUMMARY_COLUMNS))
        for row in rows
    ))
