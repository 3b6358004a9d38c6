"""Command-line front end.

Subcommands: solve (equilibrium of a configured game), check (uniqueness /
convergence condition report), two-user (anti-symmetric closed forms vs the
solver over an uncertainty grid) and experiment (Monte-Carlo sweep). All
outputs are machine-readable CSV or flat key-value text.

Exit codes: 0 success/converged, 1 input error, 2 non-convergence,
3 condition failure.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import dataclass, replace

import numpy as np

from .conditions import build_report, report_to_text
from .core import (
    ChannelSet,
    GameConfig,
    GameError,
    RegimeError,
    format_value,
    price_of_anarchy,
    sum_rate,
    write_csv,
)
from .experiment import (
    DEFAULT_NOISE_POWER,
    ChannelGenSpec,
    UncertaintySpec,
    aggregate,
    default_game_config,
    generate_channels,
    run_trials,
    write_summary_csv,
    write_trial_csv,
)
from .metrics import social_optimum_bruteforce
from .solver import (
    Schedule,
    SolverOptions,
    default_initial_profile,
    solve,
    write_trajectory_csv,
)
from .twouser import AntiSymSystem, antisym_channels, antisym_config, interior_p

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_NO_CONVERGENCE = 2
EXIT_CONDITION = 3

# Every grid point is a full solve (two-user adds a brute-force optimum;
# experiment runs a whole Monte-Carlo batch), so no usable sweep comes near
# this; the cap turns a mistyped step into an input error before a list of
# that size is built.
GRID_POINT_CAP = 10_000
# F holds Q*Q*N float64 values, and building, perturbing and solving a game
# makes a few copies of it. The cap (80 MB per copy) is far above the largest
# benchmark game (16*16*1024) and turns a mistyped Q or N into an input error
# before any array of that size is allocated.
CHANNEL_ENTRY_CAP = 10_000_000


class ConfigError(GameError):
    """Malformed run configuration; message carries file and line."""


@dataclass
class RunConfig:
    channels: ChannelSet
    game: GameConfig
    schedule: Schedule
    options: SolverOptions


def _parse_index(token, limit, what, where):
    """0-based index of a 1-based token; '*' spans the whole axis."""
    if token == "*":
        return slice(None)
    try:
        idx = int(token)
    except ValueError:
        raise ConfigError(f"{where}: {what} index {token!r} is not an integer")
    if not (1 <= idx <= limit):
        raise ConfigError(f"{where}: {what} index {idx} outside 1..{limit}")
    return idx - 1


def _parse_float(token, what, where):
    try:
        return float(token)
    except ValueError:
        raise ConfigError(f"{where}: {what} value {token!r} is not a number")


def _parse_int(token, what, where, minimum=0):
    """Integral value at least minimum; 1e3 is accepted, 2.7 is not."""
    value = _parse_float(token, what, where)
    if not value.is_integer():
        raise ConfigError(f"{where}: {what} value {token!r} is not an integer")
    if value < minimum:
        raise ConfigError(f"{where}: {what} must be at least {minimum}, got {token!r}")
    return int(value)


def _assign(target, tokens, axes, what, where):
    """target[i, j, ...] = value for the tokens 'i j ... value'.

    axes holds one (limit, name) pair per index token.
    """
    index = tuple(
        _parse_index(token, limit, name, where) for token, (limit, name) in zip(tokens, axes)
    )
    target[index] = _parse_float(tokens[-1], what, where)


def _check_channel_size(Q, N, where):
    if Q * Q * N > CHANNEL_ENTRY_CAP:
        raise ConfigError(
            f"{where}: Q*Q*N = {Q * Q * N} exceeds the cap of {CHANNEL_ENTRY_CAP}"
        )


def parse_config(path) -> RunConfig:
    """Flat sectioned text: [channels] or [generate], plus [game] and [solver]."""
    sections = {}
    current = None
    try:
        with open(path, encoding="utf-8") as fh:
            raw = fh.readlines()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"{path}: {exc}")
    for lineno, line in enumerate(raw, start=1):
        text = line.split("#", 1)[0].strip()
        if not text:
            continue
        if text.startswith("[") and text.endswith("]"):
            current = text[1:-1].strip().lower()
            sections.setdefault(current, [])
            continue
        if current is None:
            raise ConfigError(f"{path}:{lineno}: entry before any [section]")
        sections[current].append((f"{path}:{lineno}", text.split()))

    has_channels = "channels" in sections
    has_generate = "generate" in sections
    if has_channels == has_generate:
        raise ConfigError(
            f"{path}: exactly one of [channels] or [generate] must be present"
        )

    if has_channels:
        channels = _parse_channels(path, sections["channels"])
        Q, N = channels.Q, channels.N
    else:
        spec = _parse_generate(path, sections["generate"])
        Q, N = spec.Q, spec.N
    game = _parse_game(path, sections.get("game", []), Q, N)
    schedule, options = _parse_solver(path, sections.get("solver", []))
    if not has_channels:
        channels = generate_channels(spec)  # drawn once every section has parsed
    return RunConfig(channels, game, schedule, options)


def _parse_channels(path, entries):
    Q = N = None
    values = []
    for where, tokens in entries:
        key = tokens[0].lower()
        if key == "q" and len(tokens) == 2:
            Q = _parse_int(tokens[1], "Q", where, minimum=1)
        elif key == "n" and len(tokens) == 2:
            N = _parse_int(tokens[1], "N", where, minimum=1)
        elif (key, len(tokens)) in (("f", 5), ("sigma2", 4)):
            values.append((where, key, tokens[1:]))
        else:
            raise ConfigError(f"{where}: unrecognized channels entry {' '.join(tokens)!r}")
    if Q is None or N is None:
        raise ConfigError(f"{path}: [channels] must declare Q and N first")
    _check_channel_size(Q, N, f"{path}: [channels]")

    F = np.zeros((Q, Q, N))
    sigma2 = np.full((Q, N), np.nan)
    user, freq = (Q, "user"), (N, "frequency")
    for where, key, tokens in values:
        if key == "sigma2":
            _assign(sigma2, tokens, (user, freq), "sigma2", where)
            continue
        r, q = (_parse_index(token, Q, "user", where) for token in tokens[:2])
        if slice(None) in (r, q):
            raise ConfigError(f"{where}: F rows need explicit r and q")
        if r == q:
            raise ConfigError(f"{where}: diagonal F entries are fixed at zero")
        _assign(F, tokens, (user, user, freq), "F", where)
    if np.any(np.isnan(sigma2)):
        raise ConfigError(f"{path}: sigma2 not set for every (user, frequency)")
    try:
        return ChannelSet(F=F, sigma2=sigma2)
    except GameError as exc:
        raise ConfigError(f"{path}: [channels] invalid: {exc}")


# config key -> (ChannelGenSpec field, parser)
GENERATE_KEYS = {
    "users": ("Q", _parse_int), "freqs": ("N", _parse_int),
    "cross_variance": ("cross_variance", _parse_float),
    "direct_variance": ("direct_variance", _parse_float),
    "noise_power": ("noise_power", _parse_float), "seed": ("seed", _parse_int),
}


def _parse_generate(path, entries):
    fields = {}
    for where, tokens in entries:
        key = tokens[0].lower()
        if len(tokens) != 2 or key not in GENERATE_KEYS:
            raise ConfigError(f"{where}: unrecognized generate entry {' '.join(tokens)!r}")
        field, parse = GENERATE_KEYS[key]
        fields[field] = parse(tokens[1], key, where)
    if "Q" not in fields or "N" not in fields:
        raise ConfigError(f"{path}: [generate] must declare users and freqs")
    _check_channel_size(fields["Q"], fields["N"], f"{path}: [generate]")
    try:
        return ChannelGenSpec(**fields)
    except GameError as exc:
        raise ConfigError(f"{path}: [generate] invalid: {exc}")


def _parse_game(path, entries, Q, N):
    P = np.ones(Q)
    eps = np.zeros(Q)
    pmax = np.ones((Q, N))
    user, freq = (Q, "user"), (N, "frequency")
    # config key -> (array, its index axes, value name in messages)
    grammar = {"p": (P, (user,), "P"), "eps": (eps, (user,), "eps"),
               "pmax": (pmax, (user, freq), "pmax")}
    for where, tokens in entries:
        key = tokens[0].lower()
        if key not in grammar or len(tokens) != len(grammar[key][1]) + 2:
            raise ConfigError(f"{where}: unrecognized game entry {' '.join(tokens)!r}")
        target, axes, what = grammar[key]
        _assign(target, tokens[1:], axes, what, where)
    try:
        return GameConfig(P=P, pmax=pmax, eps=eps)
    except GameError as exc:
        raise ConfigError(f"{path}: [game] invalid: {exc}")


# config key -> (dataclass, field, parser)
SOLVER_KEYS = {
    "schedule": (Schedule, "kind", lambda token, *_: token),
    "seed": (Schedule, "seed", _parse_int),
    "update_probability": (Schedule, "update_probability", _parse_float),
    "max_staleness": (Schedule, "max_staleness", _parse_int),
    "tol": (SolverOptions, "tol", _parse_float),
    "max_iters": (SolverOptions, "max_iters", _parse_int),
}


def _parse_solver(path, entries):
    fields = {Schedule: {}, SolverOptions: {}}  # absent keys keep their defaults
    for where, tokens in entries:
        key = tokens[0].lower()
        if len(tokens) != 2:
            raise ConfigError(f"{where}: solver entries are 'key value'")
        if key not in SOLVER_KEYS:
            raise ConfigError(f"{where}: unrecognized solver entry {key!r}")
        cls, field, parse = SOLVER_KEYS[key]
        fields[cls][field] = parse(tokens[1], key, where)
    try:
        return Schedule(**fields[Schedule]), SolverOptions(**fields[SolverOptions])
    except GameError as exc:
        raise ConfigError(f"{path}: [solver] invalid: {exc}")


def cmd_solve(args) -> int:
    cfg = parse_config(args.config)
    if args.schedule:
        cfg.schedule = replace(cfg.schedule, kind=args.schedule)
    if args.seed is not None:
        cfg.schedule = replace(cfg.schedule, seed=args.seed)
    if args.tol is not None:
        cfg.options = replace(cfg.options, tol=args.tol)
    if args.max_iters is not None:
        cfg.options = replace(cfg.options, max_iters=args.max_iters)
    if args.trajectory:
        cfg.options = replace(cfg.options, record_trajectory=True)

    ch = cfg.channels
    initial = default_initial_profile(ch, cfg.game)
    result = solve(ch, cfg.game, initial, cfg.schedule, cfg.options)
    if args.out:
        p = result.profile.p
        write_csv(args.out, ["user", "frequency", "power", "mu"], (
            (q + 1, k + 1, p[q, k], result.mu[q])
            for q in range(p.shape[0]) for k in range(p.shape[1])
        ))
    if args.trajectory:
        write_trajectory_csv(result, args.trajectory)
    for key in ("residual", "iterations", "converged"):
        print(key, format_value(getattr(result, key)))
    return EXIT_OK if result.converged else EXIT_NO_CONVERGENCE


def cmd_check(args) -> int:
    cfg = parse_config(args.config)
    report = build_report(cfg.channels, cfg.game)
    sys.stdout.write(report_to_text(report))
    return EXIT_OK if report.uniqueness_holds else EXIT_CONDITION


def _parse_grid(text):
    parts = text.split(":")
    if len(parts) != 3:
        raise ConfigError(f"grid {text!r} must be start:stop:step")
    start, stop, step = (_parse_float(p, "grid", f"grid {text!r}") for p in parts)
    if not np.all(np.isfinite([start, stop, step])):
        raise ConfigError(f"grid {text!r} must have finite start, stop and step")
    if step <= 0 or stop < start:
        raise ConfigError(f"grid {text!r} must have step > 0 and stop >= start")
    span = (stop - start) / step  # inf when a tiny step overflows it; checked before int()
    if not span + 1 <= GRID_POINT_CAP:
        raise ConfigError(f"grid {text!r} has more than {GRID_POINT_CAP} points")
    return [start + i * step for i in range(int(round(span)) + 1)]


def cmd_two_user(args) -> int:
    grid = _parse_grid(args.eps_grid)
    base = AntiSymSystem(alpha=args.alpha, m=args.m, sigma2=args.sigma2)
    ch = antisym_channels(base)  # eps moves neither the channels nor the optimum
    s_opt, _ = social_optimum_bruteforce(ch, antisym_config(base),
                                         grid_resolution=args.grid_resolution)
    rows = []
    for eps in grid:
        system = replace(base, eps=eps)
        game = antisym_config(system)
        result = solve(
            ch, game, default_initial_profile(ch, game), Schedule(kind="jacobi"),
            SolverOptions(tol=args.tol, max_iters=args.max_iters),
        )
        p_solver = float(result.profile.p[0, 0])
        regime = "interior"
        try:
            p_closed = interior_p(system)
        except RegimeError:
            p_closed = float("nan")
            regime = "boundary"
        s_eq = sum_rate(ch, result.profile)
        rows.append((eps, p_closed, p_solver, s_eq, price_of_anarchy(s_opt, s_eq), regime))

    header = ["eps", "p_closed_form", "p_solver", "sum_rate", "poa_vs_bruteforce", "regime"]
    write_csv(args.out or sys.stdout, header, rows)
    return EXIT_OK


def cmd_experiment(args) -> int:
    _check_channel_size(args.users, args.freqs, "--users/--freqs")
    if args.trials < 1:
        raise ConfigError(f"--trials must be at least 1, got {args.trials}")
    # every delta is checked before the output directory or any trial exists
    uncertainty = [
        UncertaintySpec(delta=delta, seed=args.seed + 1) for delta in _parse_grid(args.delta_grid)
    ]
    gen = ChannelGenSpec(
        Q=args.users, N=args.freqs, seed=args.seed,
        noise_power=args.noise_power,
    )
    game = default_game_config(args.users, args.freqs)
    schedule = Schedule(kind="gauss_seidel")  # draws no random numbers
    opts = SolverOptions(tol=args.tol, max_iters=args.max_iters)
    os.makedirs(args.out, exist_ok=True)

    pool = None
    if args.threads and args.threads > 1:
        from concurrent.futures import ProcessPoolExecutor

        pool = ProcessPoolExecutor(max_workers=args.threads)
    try:
        per_width = run_trials(gen, uncertainty, game, schedule, opts, args.trials, pool)
    finally:
        if pool is not None:
            pool.shutdown()

    records = [record for width in per_width for record in width]
    summaries = [row for width in per_width for row in aggregate(width)]
    write_trial_csv(records, os.path.join(args.out, "trials.csv"), gen.Q, gen.N)
    write_summary_csv(summaries, os.path.join(args.out, "summary.csv"), gen.Q, gen.N)
    return EXIT_OK


class _Parser(argparse.ArgumentParser):
    """Usage errors raise ConfigError (exit 1, one line), not SystemExit(2)."""

    def error(self, message):
        raise ConfigError(f"{self.prog}: {message}")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="rategame",
        description="Robust rate-maximization games: equilibria, conditions, experiments.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_solve = sub.add_parser("solve", help="compute an equilibrium for a configured game")
    p_solve.add_argument("config")
    p_solve.add_argument("--schedule", choices=["jacobi", "gauss_seidel", "random_async"])
    p_solve.add_argument("--seed", type=int)
    p_solve.add_argument("--tol", type=float)
    p_solve.add_argument("--max-iters", type=int, dest="max_iters")
    p_solve.add_argument("--trajectory", help="write per-round trajectory CSV here")
    p_solve.add_argument("--out", help="write the equilibrium profile CSV here")
    p_solve.set_defaults(func=cmd_solve)

    p_check = sub.add_parser("check", help="report the uniqueness/convergence condition")
    p_check.add_argument("config")
    p_check.set_defaults(func=cmd_check)

    p_two = sub.add_parser("two-user", help="anti-symmetric two-user analytics over an eps grid")
    p_two.add_argument("--sigma2", type=float, required=True)
    p_two.add_argument("--alpha", type=float, required=True)
    p_two.add_argument("--m", type=float, required=True)
    p_two.add_argument("--eps-grid", dest="eps_grid", required=True, help="start:stop:step")
    p_two.add_argument("--grid-resolution", dest="grid_resolution", type=float, default=None)
    p_two.add_argument("--tol", type=float, default=1e-12)
    p_two.add_argument("--max-iters", dest="max_iters", type=int, default=100_000)
    p_two.add_argument("--out", help="CSV output path (default stdout)")
    p_two.set_defaults(func=cmd_two_user)

    p_exp = sub.add_parser("experiment", help="Monte-Carlo sweep over uncertainty widths")
    p_exp.add_argument("--users", type=int, required=True)
    p_exp.add_argument("--freqs", type=int, required=True)
    p_exp.add_argument("--delta-grid", dest="delta_grid", required=True, help="start:stop:step")
    p_exp.add_argument("--trials", type=int, default=500)
    p_exp.add_argument("--seed", type=int, default=0)
    p_exp.add_argument("--noise-power", dest="noise_power", type=float,
                       default=DEFAULT_NOISE_POWER)
    p_exp.add_argument("--tol", type=float, default=1e-8)
    p_exp.add_argument("--max-iters", dest="max_iters", type=int, default=1000)
    p_exp.add_argument("--threads", type=int, default=os.cpu_count() or 1)
    p_exp.add_argument("--out", required=True, help="output directory")
    p_exp.set_defaults(func=cmd_experiment)
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        # the seed reaches numpy.random.default_rng, which rejects negatives
        if getattr(args, "seed", None) is not None and args.seed < 0:
            raise ConfigError(f"--seed must be at least 0, got {args.seed}")
        # inputs near the float range end here, not in numpy warnings
        with np.errstate(over="raise", divide="raise", invalid="raise"):
            return args.func(args)
    except (GameError, OSError, FloatingPointError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
