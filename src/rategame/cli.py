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
from collections import defaultdict
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, replace
from functools import partial

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
    DEFAULT_SOLVER_OPTIONS,
    ChannelGenSpec,
    UncertaintySpec,
    aggregate,
    generate_channels,
    run_trials,
    write_summary_csv,
    write_trial_csv,
)
from .metrics import social_optimum_bruteforce
from .solver import (
    SCHEDULE_KINDS,
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


@dataclass(frozen=True)
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


def _check_channel_size(Q, N, where):
    if Q * Q * N > CHANNEL_ENTRY_CAP:
        raise ConfigError(
            f"{where}: Q*Q*N = {Q * Q * N} exceeds the cap of {CHANNEL_ENTRY_CAP}"
        )


_parse_count = partial(_parse_int, minimum=1)

# The config grammar. Scalar entries are 'key value':
# section -> key -> (target, field, parser); [channels] Q and N size ChannelSet's arrays.
SCALAR_KEYS = {
    "channels": {"Q": (ChannelSet, "Q", _parse_count), "N": (ChannelSet, "N", _parse_count)},
    "generate": {"users": (ChannelGenSpec, "Q", _parse_count),
                 "freqs": (ChannelGenSpec, "N", _parse_count),
                 "cross_variance": (ChannelGenSpec, "cross_variance", _parse_float),
                 "direct_variance": (ChannelGenSpec, "direct_variance", _parse_float),
                 "noise_power": (ChannelGenSpec, "noise_power", _parse_float),
                 "seed": (ChannelGenSpec, "seed", _parse_int)},
    "game": {},  # indexed entries only
    "solver": {"schedule": (Schedule, "kind", lambda token, *_: token),
               "seed": (Schedule, "seed", _parse_int),
               "update_probability": (Schedule, "update_probability", _parse_float),
               "max_staleness": (Schedule, "max_staleness", _parse_int),
               "tol": (SolverOptions, "tol", _parse_float),
               "max_iters": (SolverOptions, "max_iters", _parse_int)},
}
# Indexed entries are 'key index... value', '*' spanning an axis:
# (section, key) -> index axes of the array named key.
INDEXED_KEYS = {
    ("channels", "F"): ("user", "user", "frequency"),
    ("channels", "sigma2"): ("user", "frequency"),
    ("game", "P"): ("user",),
    ("game", "eps"): ("user",),
    ("game", "pmax"): ("user", "frequency"),
}
# keys are case-insensitive; messages spell them as the grammar does
KEY_NAMES = {key.lower(): key for keys in SCALAR_KEYS.values() for key in keys}
KEY_NAMES.update((key.lower(), key) for _, key in INDEXED_KEYS)


@contextmanager
def _section(path, name):
    """An invalid value met while building [name] becomes a ConfigError naming it."""
    try:
        yield
    except (GameError, FloatingPointError) as exc:
        raise ConfigError(f"{path}: [{name}] invalid: {exc}")


def parse_config(path, overrides=None) -> RunConfig:
    """Flat sectioned text: [channels] or [generate], plus [game] and [solver].

    overrides maps (Schedule or SolverOptions, field) to a value that wins over
    the file's [solver] entry; a value of None leaves the entry in force.
    """
    try:
        with open(path, encoding="utf-8") as fh:
            raw = fh.readlines()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"{path}: {exc}")
    found, section = set(), None
    values = defaultdict(dict)  # target -> field -> value; absent fields keep defaults
    indexed = []
    for lineno, line in enumerate(raw, start=1):
        text = line.split("#", 1)[0].strip()
        if not text:
            continue
        where = f"{path}:{lineno}"
        if text.startswith("[") and text.endswith("]"):
            section = text[1:-1].strip().lower()
            if section not in SCALAR_KEYS:
                raise ConfigError(f"{where}: unrecognized section [{section}]")
            found.add(section)
            continue
        if section is None:
            raise ConfigError(f"{where}: entry before any [section]")
        tokens = text.split()
        key = KEY_NAMES.get(tokens[0].lower())
        axes = INDEXED_KEYS.get((section, key))
        if key in SCALAR_KEYS[section] and len(tokens) == 2:
            target, field, parse = SCALAR_KEYS[section][key]
            values[target][field] = parse(tokens[1], key, where)
        elif axes is not None and len(tokens) == len(axes) + 2:
            indexed.append((where, key, axes, tokens[1:]))
        else:
            raise ConfigError(f"{where}: unrecognized {section} entry {' '.join(tokens)!r}")

    if ("channels" in found) == ("generate" in found):
        raise ConfigError(f"{path}: exactly one of [channels] or [generate] must be present")
    source = "channels" if "channels" in found else "generate"
    sizes = values[ChannelSet if source == "channels" else ChannelGenSpec]
    Q, N = sizes.get("Q"), sizes.get("N")
    if Q is None or N is None:
        declare = "Q and N" if source == "channels" else "users and freqs"
        raise ConfigError(f"{path}: [{source}] must declare {declare}")
    _check_channel_size(Q, N, f"{path}: [{source}]")

    arrays = {"P": np.ones(Q), "eps": np.zeros(Q), "pmax": np.ones((Q, N))}
    if source == "channels":
        arrays.update(F=np.zeros((Q, Q, N)), sigma2=np.full((Q, N), np.nan))
    limits = {"user": Q, "frequency": N}
    for where, key, axes, tokens in indexed:
        index = tuple(_parse_index(t, limits[a], a, where) for t, a in zip(tokens, axes))
        if key == "F" and slice(None) in index[:2]:
            raise ConfigError(f"{where}: F rows need explicit r and q")
        if key == "F" and index[0] == index[1]:
            raise ConfigError(f"{where}: diagonal F entries are fixed at zero")
        arrays[key][index] = _parse_float(tokens[-1], key, where)

    if source == "channels" and np.any(np.isnan(arrays["sigma2"])):
        raise ConfigError(f"{path}: sigma2 not set for every (user, frequency)")
    with _section(path, source):
        if source == "channels":
            channels = ChannelSet(F=arrays["F"], sigma2=arrays["sigma2"])
        else:
            spec = ChannelGenSpec(**values[ChannelGenSpec])
    with _section(path, "game"):
        game = GameConfig(P=arrays["P"], pmax=arrays["pmax"], eps=arrays["eps"])
    for (target, field), value in (overrides or {}).items():
        if value is not None:
            values[target][field] = value
    with _section(path, "solver"):
        schedule = Schedule(**values[Schedule])
        options = SolverOptions(**values[SolverOptions])
    if source == "generate":
        with _section(path, source):
            channels = generate_channels(spec)  # drawn once every section has parsed
    return RunConfig(channels, game, schedule, options)


def cmd_solve(args) -> int:
    cfg = parse_config(args.config, {
        (Schedule, "kind"): args.schedule, (Schedule, "seed"): args.seed,
        (SolverOptions, "tol"): args.tol, (SolverOptions, "max_iters"): args.max_iters,
        (SolverOptions, "record_trajectory"): bool(args.trajectory),
    })
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
    count = np.floor(span + 1e-9) + 1  # the slack keeps a stop that rounding puts just short
    if not count <= GRID_POINT_CAP:
        raise ConfigError(f"grid {text!r} has more than {GRID_POINT_CAP} points")
    return [start + i * step for i in range(int(count))]


def cmd_two_user(args) -> int:
    grid = _parse_grid(args.eps_grid)
    base = AntiSymSystem(alpha=args.alpha, m=args.m, sigma2=args.sigma2)
    ch = antisym_channels(base)  # eps moves neither the channels nor the optimum
    s_opt, _ = social_optimum_bruteforce(ch, antisym_config(base),
                                         grid_resolution=args.grid_resolution)
    rows, converged = [], True
    for eps in grid:
        system = replace(base, eps=eps)
        game = antisym_config(system)
        result = solve(
            ch, game, default_initial_profile(ch, game), Schedule(kind="jacobi"),
            SolverOptions(tol=args.tol, max_iters=args.max_iters),
        )
        converged = converged and result.converged
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
    return EXIT_OK if converged else EXIT_NO_CONVERGENCE


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
    opts = SolverOptions(tol=args.tol, max_iters=args.max_iters)
    os.makedirs(args.out, exist_ok=True)

    from concurrent.futures import ProcessPoolExecutor

    # a pool forks all its workers at the first submit; more than one per
    # trial or per CPU only costs processes
    workers = min(args.threads, args.trials, os.cpu_count() or 1)
    with ProcessPoolExecutor(max_workers=workers) if workers > 1 else nullcontext() as pool:
        per_width = run_trials(gen, uncertainty, opts=opts, trials=args.trials, pool=pool)

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
    p_solve.add_argument("--schedule", choices=SCHEDULE_KINDS)
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
    p_exp.add_argument("--tol", type=float, default=DEFAULT_SOLVER_OPTIONS.tol)
    p_exp.add_argument("--max-iters", dest="max_iters", type=int,
                       default=DEFAULT_SOLVER_OPTIONS.max_iters)
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
