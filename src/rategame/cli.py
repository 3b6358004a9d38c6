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
    price_of_anarchy,
    sum_rate,
)
from .experiment import (
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
    channels: ChannelSet = None
    genspec: ChannelGenSpec = None
    game: GameConfig = None
    schedule: Schedule = None
    options: SolverOptions = None


def _parse_index(token, limit, what, where):
    if token == "*":
        return None
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


def parse_config(path) -> RunConfig:
    """Flat sectioned text: [channels] or [generate], plus [game] and [solver]."""
    sections = {}
    current = None
    try:
        with open(path) as fh:
            raw = fh.readlines()
    except OSError as exc:
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
        sections[current].append((lineno, text.split()))

    has_channels = "channels" in sections
    has_generate = "generate" in sections
    if has_channels == has_generate:
        raise ConfigError(
            f"{path}: exactly one of [channels] or [generate] must be present"
        )

    cfg = RunConfig()
    if has_channels:
        cfg.channels = _parse_channels(path, sections["channels"])
        Q, N = cfg.channels.Q, cfg.channels.N
    else:
        cfg.genspec = _parse_generate(path, sections["generate"])
        Q, N = cfg.genspec.Q, cfg.genspec.N
    cfg.game = _parse_game(path, sections.get("game", []), Q, N)
    cfg.schedule, cfg.options = _parse_solver(path, sections.get("solver", []))
    return cfg


def _parse_channels(path, entries):
    Q = N = None
    f_rows = []
    s_rows = []
    for lineno, tokens in entries:
        where = f"{path}:{lineno}"
        key = tokens[0].lower()
        if key == "q" and len(tokens) == 2:
            Q = _parse_int(tokens[1], "Q", where, minimum=1)
        elif key == "n" and len(tokens) == 2:
            N = _parse_int(tokens[1], "N", where, minimum=1)
        elif key == "f" and len(tokens) == 5:
            f_rows.append((lineno, tokens[1:]))
        elif key == "sigma2" and len(tokens) == 4:
            s_rows.append((lineno, tokens[1:]))
        else:
            raise ConfigError(f"{where}: unrecognized channels entry {' '.join(tokens)!r}")
    if Q is None or N is None:
        raise ConfigError(f"{path}: [channels] must declare Q and N first")
    _check_channel_size(Q, N, f"{path}: [channels]")

    F = np.zeros((Q, Q, N))
    sigma2 = np.full((Q, N), np.nan)
    for lineno, (r_tok, q_tok, k_tok, v_tok) in f_rows:
        where = f"{path}:{lineno}"
        r = _parse_index(r_tok, Q, "user", where)
        q = _parse_index(q_tok, Q, "user", where)
        k = _parse_index(k_tok, N, "frequency", where)
        if r is None or q is None:
            raise ConfigError(f"{where}: F rows need explicit r and q")
        if r == q:
            raise ConfigError(f"{where}: diagonal F entries are fixed at zero")
        val = _parse_float(v_tok, "F", where)
        F[r, q, slice(None) if k is None else k] = val
    for lineno, (q_tok, k_tok, v_tok) in s_rows:
        where = f"{path}:{lineno}"
        q = _parse_index(q_tok, Q, "user", where)
        k = _parse_index(k_tok, N, "frequency", where)
        val = _parse_float(v_tok, "sigma2", where)
        sigma2[slice(None) if q is None else q, slice(None) if k is None else k] = val
    if np.any(np.isnan(sigma2)):
        raise ConfigError(f"{path}: sigma2 not set for every (user, frequency)")
    try:
        return ChannelSet(F=F, sigma2=sigma2)
    except GameError as exc:
        raise ConfigError(f"{path}: [channels] invalid: {exc}")


def _parse_generate(path, entries):
    fields = {}
    keys = {
        "users": _parse_int, "freqs": _parse_int, "cross_variance": _parse_float,
        "direct_variance": _parse_float, "noise_power": _parse_float, "seed": _parse_int,
    }
    for lineno, tokens in entries:
        where = f"{path}:{lineno}"
        if len(tokens) != 2 or tokens[0].lower() not in keys:
            raise ConfigError(f"{where}: unrecognized generate entry {' '.join(tokens)!r}")
        key = tokens[0].lower()
        fields[key] = keys[key](tokens[1], key, where)
    if "users" not in fields or "freqs" not in fields:
        raise ConfigError(f"{path}: [generate] must declare users and freqs")
    _check_channel_size(fields["users"], fields["freqs"], f"{path}: [generate]")
    try:
        return ChannelGenSpec(
            Q=fields["users"],
            N=fields["freqs"],
            cross_variance=fields.get("cross_variance", 1.0),
            direct_variance=fields.get("direct_variance", 2.25),
            noise_power=fields.get("noise_power", ChannelGenSpec(1, 1).noise_power),
            seed=fields.get("seed", 0),
        )
    except GameError as exc:
        raise ConfigError(f"{path}: [generate] invalid: {exc}")


def _parse_game(path, entries, Q, N):
    P = np.ones(Q)
    eps = np.zeros(Q)
    pmax = np.ones((Q, N))
    for lineno, tokens in entries:
        where = f"{path}:{lineno}"
        key = tokens[0].lower()
        if key == "p" and len(tokens) == 3:
            q = _parse_index(tokens[1], Q, "user", where)
            P[slice(None) if q is None else q] = _parse_float(tokens[2], "P", where)
        elif key == "eps" and len(tokens) == 3:
            q = _parse_index(tokens[1], Q, "user", where)
            eps[slice(None) if q is None else q] = _parse_float(tokens[2], "eps", where)
        elif key == "pmax" and len(tokens) == 4:
            q = _parse_index(tokens[1], Q, "user", where)
            k = _parse_index(tokens[2], N, "frequency", where)
            pmax[slice(None) if q is None else q, slice(None) if k is None else k] = \
                _parse_float(tokens[3], "pmax", where)
        else:
            raise ConfigError(f"{where}: unrecognized game entry {' '.join(tokens)!r}")
    try:
        return GameConfig(P=P, pmax=pmax, eps=eps)
    except GameError as exc:
        raise ConfigError(f"{path}: [game] invalid: {exc}")


def _parse_solver(path, entries):
    sched = dict(kind="jacobi", seed=0, update_probability=1.0, max_staleness=0)
    opts = dict(tol=1e-10, max_iters=10_000)
    for lineno, tokens in entries:
        where = f"{path}:{lineno}"
        key = tokens[0].lower()
        if len(tokens) != 2:
            raise ConfigError(f"{where}: solver entries are 'key value'")
        val = tokens[1]
        if key == "schedule":
            sched["kind"] = val
        elif key == "seed":
            sched["seed"] = _parse_int(val, key, where)
        elif key == "update_probability":
            sched["update_probability"] = _parse_float(val, key, where)
        elif key == "max_staleness":
            sched["max_staleness"] = _parse_int(val, key, where)
        elif key == "tol":
            opts["tol"] = _parse_float(val, key, where)
        elif key == "max_iters":
            opts["max_iters"] = _parse_int(val, key, where)
        else:
            raise ConfigError(f"{where}: unrecognized solver entry {key!r}")
    try:
        return Schedule(**sched), SolverOptions(**opts)
    except GameError as exc:
        raise ConfigError(f"{path}: [solver] invalid: {exc}")


def _materialize(cfg: RunConfig) -> ChannelSet:
    if cfg.channels is not None:
        return cfg.channels
    return generate_channels(cfg.genspec)


def _write_profile_csv(result, path):
    with open(path, "w", newline="\n") as fh:
        fh.write("user,frequency,power,mu\n")
        p = result.profile.p
        for q in range(p.shape[0]):
            for k in range(p.shape[1]):
                fh.write(f"{q + 1},{k + 1},{p[q, k]:.17g},{result.mu[q]:.17g}\n")


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

    ch = _materialize(cfg)
    initial = default_initial_profile(ch, cfg.game)
    result = solve(ch, cfg.game, initial, cfg.schedule, cfg.options)
    if args.out:
        _write_profile_csv(result, args.out)
    if args.trajectory:
        write_trajectory_csv(result, args.trajectory)
    print(f"residual {result.residual:.17g}")
    print(f"iterations {result.iterations}")
    print(f"converged {str(result.converged).lower()}")
    return EXIT_OK if result.converged else EXIT_NO_CONVERGENCE


def cmd_check(args) -> int:
    cfg = parse_config(args.config)
    ch = _materialize(cfg)
    report = build_report(ch, cfg.game)
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
    rows = []
    for eps in _parse_grid(args.eps_grid):
        system = AntiSymSystem(alpha=args.alpha, m=args.m, sigma2=args.sigma2, eps=eps)
        ch = antisym_channels(system)
        game = antisym_config(system)
        result = solve(
            ch, game, default_initial_profile(ch, game),
            Schedule(kind="jacobi", seed=args.seed),
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
        s_opt, _ = social_optimum_bruteforce(ch, game, grid_resolution=args.grid_resolution)
        rows.append((eps, p_closed, p_solver, s_eq, price_of_anarchy(s_opt, s_eq), regime))

    out = sys.stdout if not args.out else open(args.out, "w", newline="\n")
    try:
        out.write("eps,p_closed_form,p_solver,sum_rate,poa_vs_bruteforce,regime\n")
        for eps, p_c, p_s, s_eq, poa, regime in rows:
            out.write(
                f"{eps:.17g},{p_c:.17g},{p_s:.17g},{s_eq:.17g},{poa:.17g},{regime}\n"
            )
    finally:
        if out is not sys.stdout:
            out.close()
    return EXIT_OK


def cmd_experiment(args) -> int:
    _check_channel_size(args.users, args.freqs, "--users/--freqs")
    gen = ChannelGenSpec(
        Q=args.users, N=args.freqs, seed=args.seed,
        noise_power=args.noise_power,
    )
    game = default_game_config(args.users, args.freqs)
    schedule = Schedule(kind="gauss_seidel", seed=args.seed)
    opts = SolverOptions(tol=args.tol, max_iters=args.max_iters)
    os.makedirs(args.out, exist_ok=True)

    pool = None
    if args.threads and args.threads > 1:
        from concurrent.futures import ProcessPoolExecutor

        pool = ProcessPoolExecutor(max_workers=args.threads)
    try:
        all_records = []
        summaries = []
        for delta in _parse_grid(args.delta_grid):
            u = UncertaintySpec(delta=delta, seed=args.seed + 1)
            records = run_trials(
                gen, u, game, schedule, opts, trials=args.trials, pool=pool
            )
            all_records.extend(records)
            summaries.extend(aggregate(records))
    finally:
        if pool is not None:
            pool.shutdown()

    write_trial_csv(all_records, os.path.join(args.out, "trials.csv"), gen.Q, gen.N)
    write_summary_csv(summaries, os.path.join(args.out, "summary.csv"), gen.Q, gen.N)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
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
    p_two.add_argument("--seed", type=int, default=0)
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
                       default=ChannelGenSpec(1, 1).noise_power)
    p_exp.add_argument("--tol", type=float, default=1e-8)
    p_exp.add_argument("--max-iters", dest="max_iters", type=int, default=1000)
    p_exp.add_argument("--threads", type=int, default=os.cpu_count() or 1)
    p_exp.add_argument("--out", required=True, help="output directory")
    p_exp.set_defaults(func=cmd_experiment)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        # the seed reaches numpy.random.default_rng, which rejects negatives
        if getattr(args, "seed", None) is not None and args.seed < 0:
            raise ConfigError(f"--seed must be at least 0, got {args.seed}")
        return args.func(args)
    except (GameError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
