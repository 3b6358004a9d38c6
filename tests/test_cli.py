import concurrent.futures
import contextlib
import hashlib
import io
from pathlib import Path

import pytest
from hypothesis import assume, given, settings, strategies as st

from rategame import cli
from rategame.cli import main

FIG1_TEMPLATE = """\
# anti-symmetric two-user system
[channels]
Q 2
N 2
F 2 1 1 0.2
F 2 1 2 0.4
F 1 2 1 0.4
F 1 2 2 0.2
sigma2 * * 0.1

[game]
P * 1.0
pmax * * 1.0
eps * {eps}

[solver]
schedule jacobi
tol 1e-12
max_iters 100000
"""


def write_fig1(tmp_path, eps=0.0):
    path = tmp_path / "fig1.cfg"
    path.write_text(FIG1_TEMPLATE.format(eps=eps))
    return path


def read_csv(path):
    lines = path.read_text().splitlines()
    header = lines[0].split(",")
    rows = [dict(zip(header, line.split(","))) for line in lines[1:]]
    return rows


class TestSolveCommand:
    def test_fig1_zero_uncertainty_matches_closed_form(self, tmp_path, capsys):
        cfg = write_fig1(tmp_path, eps=0.0)
        out = tmp_path / "eq.csv"
        code = main(["solve", str(cfg), "--out", str(out)])
        assert code == 0
        captured = capsys.readouterr().out
        assert "converged true" in captured
        rows = read_csv(out)
        powers = {(r["user"], r["frequency"]): float(r["power"]) for r in rows}
        assert powers[("1", "1")] == pytest.approx(0.8 / 1.4, abs=1e-8)
        assert powers[("2", "2")] == pytest.approx(0.8 / 1.4, abs=1e-8)

    def test_not_converged_exit_code(self, tmp_path):
        cfg = write_fig1(tmp_path, eps=0.1)
        assert main(["solve", str(cfg), "--max-iters", "1"]) == 2

    def test_single_user_converges(self, tmp_path):
        path = tmp_path / "single.cfg"
        path.write_text(
            "[channels]\nQ 1\nN 3\nsigma2 1 1 0.5\nsigma2 1 2 1.0\nsigma2 1 3 2.0\n"
            "[game]\nP 1 1.0\npmax * * 1.0\n"
        )
        assert main(["solve", str(path)]) == 0

    def test_malformed_config_is_input_error(self, tmp_path, capsys):
        path = tmp_path / "bad.cfg"
        path.write_text("[channels]\nQ 2\nN 2\nF 2 1 1 not_a_number\nsigma2 * * 1\n")
        assert main(["solve", str(path)]) == 1
        err = capsys.readouterr().err
        assert "bad.cfg:4" in err

    def test_both_sections_rejected(self, tmp_path):
        path = tmp_path / "dual.cfg"
        path.write_text("[channels]\nQ 1\nN 1\nsigma2 * * 1\n[generate]\nusers 2\nfreqs 2\n")
        assert main(["solve", str(path)]) == 1

    def test_trajectory_written(self, tmp_path):
        cfg = write_fig1(tmp_path, eps=0.1)
        traj = tmp_path / "traj.csv"
        assert main(["solve", str(cfg), "--trajectory", str(traj)]) == 0
        assert traj.read_text().startswith("round,user,frequency,power,residual")


class TestCheckCommand:
    def test_decoupled_system_passes(self, tmp_path, capsys):
        path = tmp_path / "clean.cfg"
        path.write_text("[channels]\nQ 2\nN 2\nsigma2 * * 1.0\n[game]\neps * 0.0\n")
        assert main(["check", str(path)]) == 0
        out = capsys.readouterr().out
        assert "uniqueness_holds true" in out
        assert "rho_Smax 0" in out

    def test_too_much_uncertainty_fails_regardless_of_channels(self, tmp_path):
        path = tmp_path / "uncertain.cfg"
        path.write_text("[channels]\nQ 3\nN 2\nsigma2 * * 1.0\n[game]\neps * 0.6\n")
        assert main(["check", str(path)]) == 3

    def test_fig1_report_values(self, tmp_path, capsys):
        cfg = write_fig1(tmp_path, eps=0.1)
        assert main(["check", str(cfg)]) == 0
        values = dict(
            line.split() for line in capsys.readouterr().out.strip().splitlines()
        )
        assert float(values["rho_E"]) == pytest.approx(0.1, abs=1e-12)
        assert float(values["rho_Smax"]) == pytest.approx(0.4, abs=1e-12)
        assert float(values["E[1,2]"]) == 0.1
        assert float(values["Smax[1,2]"]) == 0.4
        assert float(values["contraction_modulus"]) == pytest.approx(0.5, abs=1e-12)


class TestTwoUserCommand:
    def test_critical_interference_flat_sum_rate(self, tmp_path):
        from rategame import alpha_crit

        ac = alpha_crit(2.0, 1.0)
        out = tmp_path / "crit.csv"
        code = main([
            "two-user", "--sigma2", "1.0", "--alpha", f"{ac:.17g}", "--m", "2.0",
            "--eps-grid", "0:0.1:0.025", "--out", str(out),
        ])
        assert code == 0
        rows = read_csv(out)
        rates = [float(r["sum_rate"]) for r in rows]
        assert max(rates) - min(rates) < 1e-8
        for r in rows:
            assert r["regime"] == "interior"
            assert abs(float(r["p_closed_form"]) - float(r["p_solver"])) <= 1e-8

    def test_high_interference_sum_rate_increases(self, tmp_path):
        out = tmp_path / "hi.csv"
        code = main([
            "two-user", "--sigma2", "0.001", "--alpha", "0.4", "--m", "2.0",
            "--eps-grid", "0:0.15:0.05", "--out", str(out),
        ])
        assert code == 0
        rates = [float(r["sum_rate"]) for r in read_csv(out)]
        assert all(b > a for a, b in zip(rates, rates[1:]))

    def test_regime_errors_recorded_not_fatal(self, tmp_path):
        out = tmp_path / "edge.csv"
        code = main([
            "two-user", "--sigma2", "0.1", "--alpha", "0.3", "--m", "3.0",
            "--eps-grid", "0:0.1:0.05", "--out", str(out),
        ])
        assert code == 0
        regimes = [r["regime"] for r in read_csv(out)]
        assert "boundary" in regimes

    def test_not_converged_exit_code(self, tmp_path):
        # one round stops every eps short of the closed form; each row is still written
        out = tmp_path / "short.csv"
        code = main([
            "two-user", "--sigma2", "0.1", "--alpha", "0.2", "--m", "2",
            "--eps-grid", "0:0.1:0.05", "--max-iters", "1", "--out", str(out),
        ])
        assert code == 2
        assert len(read_csv(out)) == 3


class TestExperimentCommand:
    def test_single_trial_zero_delta(self, tmp_path):
        out = tmp_path / "exp"
        code = main([
            "experiment", "--users", "2", "--freqs", "4", "--delta-grid", "0:0:0.2",
            "--trials", "1", "--seed", "3", "--out", str(out),
        ])
        assert code == 0
        rows = read_csv(out / "trials.csv")
        assert len(rows) == 3
        rates = {r["kind"]: r["sum_rate_true"] for r in rows}
        assert rates["robust"] == rates["nominal"] == rates["perfect"]

    def test_rerun_byte_identical(self, tmp_path):
        args = [
            "experiment", "--users", "2", "--freqs", "4", "--delta-grid", "0:0.4:0.2",
            "--trials", "3", "--seed", "5",
        ]
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        assert main(args + ["--out", str(out_a)]) == 0
        assert main(args + ["--out", str(out_b)]) == 0
        assert (out_a / "trials.csv").read_bytes() == (out_b / "trials.csv").read_bytes()
        assert (out_a / "summary.csv").read_bytes() == (out_b / "summary.csv").read_bytes()

    # a fake pool records its size and maps serially, so no process is started
    @pytest.mark.parametrize("threads, trials, workers", [
        (5000, 1, None), (5000, 3, 3), (2, 3, 2), (5000, 6, 4), (1, 6, None),
    ])
    def test_pool_capped_by_trials_and_cpus(self, tmp_path, monkeypatch, threads, trials,
                                            workers):
        sizes = []

        class FakePool:
            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                pass

            def map(self, fn, items):
                return map(fn, items)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", FakePool)
        monkeypatch.setattr(cli.os, "cpu_count", lambda: 4)
        args = ["experiment", "--users", "2", "--freqs", "2", "--delta-grid", "0:0.2:0.2",
                "--trials", str(trials), "--seed", "5"]
        assert main(args + ["--threads", str(threads), "--out", str(tmp_path / "a")]) == 0
        assert sizes == ([] if workers is None else [workers])
        assert main(args + ["--threads", "1", "--out", str(tmp_path / "b")]) == 0
        for name in ("trials.csv", "summary.csv"):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


FLOAT_RANGE_CHANNELS = (
    "[channels]\nQ 2\nN 2\nsigma2 * * 1\nF 1 2 * 1e308\nF 2 1 * 1e308\n"
    "[game]\nP * 1e300\npmax * * 1e308\n"
)


CHANNELS_2X2 = "[channels]\nQ 2\nN 2\nsigma2 * * 1.0\n"


class TestInputValidation:
    # a config file goes to check, a grid to two-user --eps-grid
    @pytest.mark.parametrize("config, grid, message", [
        (CHANNELS_2X2 + "[game]\nP 3 1.0\n", None, "user index 3 outside 1..2"),
        (CHANNELS_2X2 + "F * 1 1 0.1\n", None, "F rows need explicit r and q"),
        (CHANNELS_2X2 + "F 2 2 * 0.1\n", None, "diagonal F entries are fixed at zero"),
        ("[channels]\nQ 2\nN 2\nsigma2 1 * 1.0\n", None,
         "sigma2 not set for every (user, frequency)"),
        (None, "0:1", "grid '0:1' must be start:stop:step"),
        (None, "0:1:-0.1", "grid '0:1:-0.1' must have step > 0 and stop >= start"),
        (None, "1:0:0.1", "grid '1:0:0.1' must have step > 0 and stop >= start"),
    ], ids=["index_outside", "F_wildcard_row", "F_diagonal", "sigma2_unset", "grid_two_parts",
            "grid_negative_step", "grid_stop_below_start"])
    def test_config_and_grid_checks(self, tmp_path, capsys, config, grid, message):
        if grid is None:
            path = tmp_path / "c.cfg"
            path.write_text(config)
            argv = ["check", str(path)]
        else:
            argv = ["two-user", "--sigma2", "0.1", "--alpha", "0.2", "--m", "2.0",
                    "--eps-grid", grid]
        assert main(argv) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: ") and err[0].endswith(message)

    @pytest.mark.parametrize("text", [
        "[channels]\nQ 2.7\nN 2\nsigma2 * * 1.0\n",
        "[channels]\nQ -2\nN 2\nsigma2 * * 1.0\n",
        "[generate]\nusers 0\nfreqs 2\n[game]\nP 1 1\n",
    ], ids=["fractional", "negative", "generate_zero"])
    def test_bad_user_count_is_input_error(self, tmp_path, capsys, text):
        path = tmp_path / "q.cfg"
        path.write_text(text)
        assert main(["solve", str(path)]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: ") and "q.cfg:2" in err[0]

    @pytest.mark.parametrize("grid, points", [
        ("0:0.52:0.2", [0.0, 0.2, 0.4]),
        ("0:0.14:0.04", [0.0, 0.04, 2 * 0.04, 3 * 0.04]),
        ("0:0.6:0.2", [0.0, 0.2, 0.4, 3 * 0.2]),  # the span rounds to 2.9999999999999996
    ], ids=["short_of_a_point", "half_past_a_point", "stop_rounded_short"])
    def test_grid_never_passes_stop(self, grid, points):
        assert cli._parse_grid(grid) == points

    def test_grid_cap_counts_the_points_returned(self):
        assert len(cli._parse_grid("0:9999.5:1")) == 10_000
        with pytest.raises(cli.ConfigError, match="more than 10000 points"):
            cli._parse_grid("0:10000:1")

    @pytest.mark.parametrize("grid", ["0:0.1:nan", "a:b:c", "0:1:1e-9"],
                             ids=["nan_step", "non_numeric", "tiny_step"])
    def test_bad_grid_is_input_error(self, tmp_path, capsys, grid):
        code = main([
            "two-user", "--sigma2", "0.1", "--alpha", "0.2", "--m", "2.0",
            "--eps-grid", grid, "--out", str(tmp_path / "out.csv"),
        ])
        assert code == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: grid ")

    def test_infinite_grid_resolution_is_input_error(self, tmp_path, capsys):
        code = main([
            "two-user", "--sigma2", "0.1", "--alpha", "0.2", "--m", "2.0",
            "--eps-grid", "0:0:0.1", "--grid-resolution", "inf", "--out", str(tmp_path / "o"),
        ])
        assert code == 1
        assert capsys.readouterr().err.splitlines() == ["error: grid_resolution must be positive"]

    @pytest.mark.parametrize("command", ["solve", "experiment"])
    def test_negative_seed_is_input_error(self, tmp_path, capsys, command):
        out = tmp_path / "out"
        argv = {
            "solve": ["solve", str(write_fig1(tmp_path))],
            "experiment": ["experiment", "--users", "2", "--freqs", "4",
                           "--delta-grid", "0:0:0.2", "--trials", "1", "--out", str(out)],
        }[command]
        assert main(argv + ["--seed", "-1"]) == 1
        err = capsys.readouterr().err.splitlines()
        assert err == ["error: --seed must be at least 0, got -1"]
        assert not out.exists()

    # argparse's own errors exit 1 with one line, like every other input error
    @pytest.mark.parametrize("argv, message", [
        (["solve"], "rategame solve: the following arguments are required: config"),
        (["solve", "x.cfg", "--max-iters", "ten"],
         "rategame solve: argument --max-iters: invalid int value: 'ten'"),
        (["solve", "x.cfg", "--bogus"], "rategame: unrecognized arguments: --bogus"),
        (["check"], "rategame check: the following arguments are required: config"),
        (["check", "x.cfg", "--bogus"], "rategame: unrecognized arguments: --bogus"),
        (["two-user", "--sigma2", "0.1", "--m", "2", "--eps-grid", "0:0:1"],
         "rategame two-user: the following arguments are required: --alpha"),
        (["two-user", "--sigma2", "0.1", "--alpha", "0.2", "--m", "2", "--eps-grid", "0:0:1",
          "--max-iters", "1.5"],
         "rategame two-user: argument --max-iters: invalid int value: '1.5'"),
        (["two-user", "--sigma2", "0.1", "--alpha", "0.2", "--m", "2", "--eps-grid", "0:0:1",
          "--seed", "-1"], "rategame: unrecognized arguments: --seed -1"),
        (["experiment", "--users", "2", "--delta-grid", "0:0:1", "--out", "o"],
         "rategame experiment: the following arguments are required: --freqs"),
        (["experiment", "--users", "2", "--freqs", "x", "--delta-grid", "0:0:1", "--out", "o"],
         "rategame experiment: argument --freqs: invalid int value: 'x'"),
        (["experiment", "--users", "2", "--freqs", "2", "--delta-grid", "0:0:1", "--out", "o",
          "--bogus"], "rategame: unrecognized arguments: --bogus"),
        ([], "rategame: the following arguments are required: command"),
    ], ids=["solve-missing", "solve-bad_int", "solve-unknown", "check-missing",
            "check-unknown", "two-user-missing", "two-user-bad_int", "two-user-unknown",
            "experiment-missing", "experiment-bad_int", "experiment-unknown", "no_command"])
    def test_usage_error_is_input_error(self, tmp_path, capsys, monkeypatch, argv, message):
        monkeypatch.chdir(tmp_path)
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.err.splitlines() == [f"error: {message}"]
        assert captured.out == ""
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("command", ["solve", "check", "two-user", "experiment"])
    def test_help_still_exits_zero(self, capsys, command):
        with pytest.raises(SystemExit) as exc:
            main([command, "-h"])
        assert exc.value.code == 0
        assert capsys.readouterr().out.startswith(f"usage: rategame {command}")

    @pytest.mark.parametrize("trials", ["0", "-3"])
    def test_trials_below_one_refused(self, tmp_path, capsys, trials):
        out = tmp_path / "out"
        assert main(["experiment", "--users", "2", "--freqs", "2", "--delta-grid", "0:0:0.2",
                     "--trials", trials, "--threads", "1", "--out", str(out)]) == 1
        err = capsys.readouterr().err.splitlines()
        assert err == [f"error: --trials must be at least 1, got {trials}"]
        assert not out.exists()

    def test_config_not_utf8_is_input_error(self, tmp_path, capsys):
        path = tmp_path / "bad.cfg"
        path.write_bytes(b"[channels]\nQ 1\nN 1\nsigma2 * * 1\xff\n")
        assert main(["check", str(path)]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith(f"error: {path}: ")

    def test_bad_delta_refused_before_any_trial(self, tmp_path, capsys, monkeypatch):
        def no_trials(*args, **kwargs):
            raise AssertionError("a trial ran before the delta grid was checked")

        monkeypatch.setattr(cli, "run_trials", no_trials)
        out = tmp_path / "out"
        assert main(["experiment", "--users", "2", "--freqs", "2", "--delta-grid",
                     "0:1:0.5", "--trials", "1", "--threads", "1", "--out", str(out)]) == 1
        err = capsys.readouterr().err.splitlines()
        assert err == ["error: delta must lie in [0, 1)"]
        assert not out.exists()

    def test_masks_lost_to_rounding_is_input_error(self, tmp_path, capsys):
        path = tmp_path / "tiny.cfg"
        path.write_text("[channels]\nQ 2\nN 2\nsigma2 * * 1e-300\n"
                        "F 1 2 * 1e300\nF 2 1 * 1e300\n")
        assert main(["solve", str(path)]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: phi dwarfs the masks")

    # inputs near the float range overflow; that ends as one error line, which
    # names the file and the section where the overflow is met: GameConfig's
    # mask row sum, or the channel draw of [generate]
    MASK_SUM_ERROR = ("error: {path}: [game] invalid: "
                      "spectral masks must have a finite sum per user")

    @pytest.mark.parametrize("command, text, message", [
        ("check", FLOAT_RANGE_CHANNELS, MASK_SUM_ERROR),
        ("solve", FLOAT_RANGE_CHANNELS, MASK_SUM_ERROR),
        ("solve", "[generate]\nusers 2\nfreqs 2\ncross_variance 1e300\ndirect_variance 1e-300\n",
         "error: {path}: [generate] invalid: overflow encountered in divide"),
    ], ids=["check_channels", "solve_channels", "solve_generate"])
    def test_float_range_is_input_error(self, tmp_path, capsys, command, text, message):
        path = tmp_path / "big.cfg"
        path.write_text(text)
        assert main([command, str(path)]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith(message.format(path=path))

    # a header outside the grammar is refused, not skipped with its entries
    @pytest.mark.parametrize("command", ["solve", "check"])
    @pytest.mark.parametrize("tail, name", [("[solvr]\nmax_iters 0\n", "solvr"),
                                            ("[ Junk ]\n", "junk")], ids=["solvr", "junk"])
    def test_unrecognized_section_is_input_error(self, tmp_path, capsys, command, tail, name):
        path = tmp_path / "game.cfg"
        path.write_text("[channels]\nQ 1\nN 1\nsigma2 * * 1\n" + tail)
        assert main([command, str(path)]) == 1
        captured = capsys.readouterr()
        assert captured.err.splitlines() == [f"error: {path}:5: unrecognized section [{name}]"]
        assert captured.out == ""

    @pytest.mark.parametrize("entry", ["tol 1 2", "tolerance 1", "max_iters"])
    def test_unrecognized_solver_entry(self, tmp_path, capsys, entry):
        path = tmp_path / "game.cfg"
        path.write_text(f"[channels]\nQ 1\nN 1\nsigma2 * * 1\n[solver]\n{entry}\n")
        assert main(["solve", str(path)]) == 1
        err = capsys.readouterr().err.splitlines()
        assert err == [f"error: {path}:6: unrecognized solver entry {entry!r}"]

    # solve's options are [solver] fields, validated with the file's entries
    @pytest.mark.parametrize("option, message", [
        (["--tol", "-1"], "tol must be positive"),
        (["--max-iters", "0"], "max_iters must be >= 1"),
        (["--tol", "inf"], "tol must be finite"),
    ], ids=["tol", "max_iters", "tol_inf"])
    def test_bad_solve_option_names_solver_section(self, tmp_path, capsys, option, message):
        path = write_fig1(tmp_path)
        assert main(["solve", str(path)] + option) == 1
        err = capsys.readouterr().err.splitlines()
        assert err == [f"error: {path}: [solver] invalid: {message}"]

    # every entry is checked against the grammar before any index is read
    def test_grammar_checked_before_indices(self, tmp_path, capsys):
        path = tmp_path / "game.cfg"
        path.write_text("[channels]\nQ 1\nN 1\nsigma2 * * 1\n[game]\nP 9 1\n"
                        "[solver]\nbogus 1\n")
        assert main(["check", str(path)]) == 1
        err = capsys.readouterr().err.splitlines()
        assert err == [f"error: {path}:8: unrecognized solver entry 'bogus 1'"]

    # every entry is read before any array is sized, so Q and N may come last
    def test_sizes_may_follow_entries(self, tmp_path, capsys):
        path = tmp_path / "game.cfg"
        path.write_text("[channels]\nsigma2 * * 1\nF 1 2 * 0.1\nF 2 1 * 0.1\nQ 2\nN 2\n")
        assert main(["check", str(path)]) == 0
        path.write_text("[channels]\nQ 2\nsigma2 * * 1\n")
        assert main(["check", str(path)]) == 1
        err = capsys.readouterr().err.splitlines()
        assert err == [f"error: {path}: [channels] must declare Q and N"]

    def test_huge_user_count_is_input_error(self, tmp_path, capsys):
        # Q*Q*N = 1e18 entries: refused before any array is built
        path = tmp_path / "huge.cfg"
        path.write_text("[channels]\nQ 1e9\nN 1\nsigma2 * * 1.0\n")
        assert main(["solve", str(path)]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: ") and "exceeds" in err[0]

    # the cap is lowered to 8 entries, so the games on either side of it are tiny
    @pytest.mark.parametrize("source", ["channels", "generate", "experiment"])
    def test_channel_cap(self, tmp_path, capsys, monkeypatch, source):
        monkeypatch.setattr(cli, "CHANNEL_ENTRY_CAP", 8)
        path = tmp_path / "game.cfg"
        out = tmp_path / "out"

        def run(Q, N):
            if source == "experiment":
                return main(["experiment", "--users", str(Q), "--freqs", str(N),
                             "--delta-grid", "0:0:0.2", "--trials", "1",
                             "--threads", "1", "--out", str(out)])
            if source == "channels":
                path.write_text(f"[channels]\nQ {Q}\nN {N}\nsigma2 * * 1.0\n")
            else:
                path.write_text(f"[generate]\nusers {Q}\nfreqs {N}\n")
            return main(["solve", str(path)])

        assert run(3, 1) == 1  # 9 entries
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: ")
        assert "exceeds the cap of 8" in err[0]
        assert not out.exists()
        assert run(2, 2) == 0  # 8 entries


GENERATE_CONFIG = """\
[generate]
users 3
freqs 8
seed 7

[game]
eps * 0.02

[solver]
schedule random_async
seed 1
update_probability 0.5
max_staleness 2
tol 1e-8
max_iters 300
"""

TWO_USER_BOUNDARY = [  # eps 0.05 and 0.1 fall outside the interior regime
    "two-user", "--sigma2", "0.1", "--alpha", "0.3", "--m", "3.0",
    "--eps-grid", "0:0.1:0.05",
]


# each of solve's options wins over the [solver] entry of the same name
@pytest.mark.parametrize("option, key, file_value, value", [
    ("--schedule", "schedule", "random_async", "gauss_seidel"),
    ("--seed", "seed", "1", "5"),
    ("--tol", "tol", "1e-8", "1e-4"),
    ("--max-iters", "max_iters", "300", "3"),
])
def test_solve_option_matches_config_entry(tmp_path, capsys, option, key, file_value, value):
    runs = []
    for name, setting, argv in [("a", file_value, [option, value]), ("b", value, [])]:
        cfg = tmp_path / f"{name}.cfg"
        cfg.write_text(GENERATE_CONFIG.replace(f"\n{key} {file_value}\n", f"\n{key} {setting}\n"))
        out = tmp_path / f"{name}.csv"
        code = main(["solve", str(cfg), "--out", str(out)] + argv)
        runs.append((code, capsys.readouterr().out, out.read_bytes()))
    assert (tmp_path / "a.cfg").read_text() != (tmp_path / "b.cfg").read_text()
    assert runs[0] == runs[1]


# the solves of CI's Console script step: case -> (config text, extra argv)
MASKS_CONFIG = "[generate]\nusers 4\nfreqs 16\n[game]\npmax * * 0.1\npmax 2 * 0.5\n"
MIXED_EPS_CONFIG = ("[generate]\nusers 8\nfreqs 64\ncross_variance 0.1\n"
                    "[game]\neps * 0.05\neps 2 0\n[solver]\nschedule ")
CONSOLE_SOLVES = {
    "solve_out_masks": (MASKS_CONFIG, []),
    "solve_out_masks_gauss_seidel": (MASKS_CONFIG, ["--schedule", "gauss_seidel"]),
    "solve_out_mixed_eps_jacobi": (MIXED_EPS_CONFIG + "jacobi\n", []),
    "solve_out_random_async": (
        MIXED_EPS_CONFIG + "random_async\nupdate_probability 0.5\nmax_staleness 2\n", []),
}


def readme_config():
    """README's ini block: the lines between its ```ini fence and the next fence."""
    lines = (Path(__file__).parents[1] / "README.md").read_text().splitlines(keepends=True)
    start = lines.index("```ini\n") + 1
    return "".join(lines[start:lines.index("```\n", start)])


def _pinned_output(case, tmp_path, capsys):
    """Run one CLI case; return its exit code and the bytes it wrote."""
    out = tmp_path / "out"
    if case in CONSOLE_SOLVES:
        text, argv = CONSOLE_SOLVES[case]
        cfg = tmp_path / "console.cfg"
        cfg.write_text(text)
        return main(["solve", str(cfg), "--out", str(out), *argv]), out.read_bytes()
    if case == "trajectory_readme":
        cfg = tmp_path / "readme.cfg"
        cfg.write_text(readme_config())
        return main(["solve", str(cfg), "--trajectory", str(out)]), out.read_bytes()
    if case == "two_user_readme":
        code = main(["two-user", "--sigma2", "0.1", "--alpha", "0.2", "--m", "2",
                     "--eps-grid", "0:0.1:0.025", "--out", str(out)])
        return code, out.read_bytes()
    if case.endswith("fig1"):
        cfg = write_fig1(tmp_path, eps=0.1)
    else:
        cfg = tmp_path / "gen.cfg"
        cfg.write_text(GENERATE_CONFIG)
    if case.startswith("solve_out"):
        code = main(["solve", str(cfg), "--out", str(out)])
        return code, out.read_bytes()
    if case.startswith("solve_stdout"):
        code = main(["solve", str(cfg)])
    elif case.startswith("check"):
        code = main(["check", str(cfg)])
    elif case == "two_user_out":
        code = main(TWO_USER_BOUNDARY + ["--out", str(out)])
        assert b",nan," in out.read_bytes()
        return code, out.read_bytes()
    elif case == "two_user_stdout":
        code = main(TWO_USER_BOUNDARY)
    else:
        code = main([
            "experiment", "--users", "2", "--freqs", "4", "--delta-grid", "0:0.4:0.2",
            "--trials", "3", "--seed", "5", "--threads", "1", "--out", str(out),
        ])
        return code, (out / "summary.csv").read_bytes()
    return code, capsys.readouterr().out.encode()


# sha256 of every CLI output the other tests do not pin, recorded before the
# writers shared one value formatter; a change to the number, boolean, NaN or
# line formatting of any writer changes these bytes
@pytest.mark.parametrize("case, code, digest", [
    ("solve_out_fig1", 0,
     "de4d7db2b596a74a93abfca05d18590377d9a493b4674d8eb6979d8f7589d41c"),
    ("solve_stdout_fig1", 0,
     "9a08bb9e648d698af3ae1a49eb55993d95154ad52d18ff5400c31cd60211a78a"),
    ("solve_out_generate", 0,
     "673ca44ecebf1bf8f532cee802410ec492d09026733365af3fb7b98f3ca35848"),
    ("solve_stdout_generate", 0,
     "8902877ac819da20a6f53e6fa9aee43b1b4d6838c4dd0b9f87b9e040667f22f4"),
    ("check_fig1", 0,
     "7df49ff85c7b45a0f123bb4b040fbc54522cd51884859d5140f5f0c5394874d6"),
    ("check_generate", 3,
     "728e5c504353d3035e9e508ff3d2bbfe9b98070839fb9caa134c3bedb08b8e39"),
    ("two_user_out", 0,
     "248e2f42f430d87c8cb550824c183e6729dc6b6a946c7afb2370da7fca3b1db8"),
    ("two_user_stdout", 0,
     "248e2f42f430d87c8cb550824c183e6729dc6b6a946c7afb2370da7fca3b1db8"),
    ("experiment_summary", 0,
     "9b69b0bb774c167fd5e5abae82e4b2641db361c838220db3826287d5bbecd94e"),
    # the outputs CI's Console script step pins for the installed entry
    # point: masks that bind below the water level (jacobi and gauss_seidel),
    # a jacobi and a random_async game with one eps-0 user, README's
    # recorded trajectory and README's two-user sweep
    ("solve_out_masks", 0,
     "053c03139965ff44083fa687f0a99d3979cfce5fd362e1121ad152f82388d756"),
    ("solve_out_masks_gauss_seidel", 0,
     "e7ab747a6b04678ec211087e46896ce2e4f57399122fcd6d0d069d6853d5e393"),
    ("solve_out_mixed_eps_jacobi", 0,
     "4e88241b5c6add123376e75fe6e86aa5eda6909540c5b232fee653b929b9fe3a"),
    ("solve_out_random_async", 0,
     "6831ae3761148997af1ad63363718f884f54dda279295370488530f45e4b650d"),
    ("trajectory_readme", 0,
     "7f8dd2348318b40b6eee0326a2131d33ad67af563502b26038466fd6769ba117"),
    ("two_user_readme", 0,
     "96878dcc936645239160a4edee9c14e360469c17a75fb73bb2a890ab8a543ba2"),
])
def test_pinned_output_bytes(tmp_path, capsys, case, code, digest):
    got_code, data = _pinned_output(case, tmp_path, capsys)
    assert got_code == code
    assert hashlib.sha256(data).hexdigest() == digest


# sha256 of the trials and summary CSVs of two experiment runs, one serial and
# one over a two-process pool; any change to a trial's numbers changes them
@pytest.mark.parametrize("args, trials_digest, summary_digest", [
    (["--users", "3", "--freqs", "16", "--delta-grid", "0:0.6:0.2", "--trials", "20",
      "--seed", "2024", "--threads", "1"],
     "4268e7c93f0b331b1b17576a9040304accd066734617ef6a590fbaaafa7dfbf9",
     "4665d189c8a849b53e6056367928a10d67dbcfe9f1529da300bff34698d012f1"),
    (["--users", "5", "--freqs", "4", "--delta-grid", "0:0.9:0.3", "--trials", "30",
      "--seed", "7", "--threads", "2"],
     "ddab07916205e935c7c5975ed2d27be08f93be46101a3f1b3dbb0edc6ee71ba4",
     "a3308303318f7883b870948ab776cb37ba50045d70f7989b2c31f218070171e8"),
], ids=["serial", "pool"])
def test_pinned_experiment_bytes(tmp_path, args, trials_digest, summary_digest):
    assert main(["experiment", *args, "--out", str(tmp_path)]) == 0
    assert hashlib.sha256((tmp_path / "trials.csv").read_bytes()).hexdigest() == trials_digest
    assert hashlib.sha256((tmp_path / "summary.csv").read_bytes()).hexdigest() == summary_digest


# Config fuzzing. An example starts from a config that follows the grammar of
# its sections and applies up to three mutations: a token turned odd or junk,
# a token dropped or added, a stray header or a raw line of invalid UTF-8.
# Q and N stay at most 4 and no odd token is a count between 5 and the cap,
# so no game is large.
JUNK = st.text(st.characters(blacklist_categories=("Zs", "Cc", "Nd")), min_size=1, max_size=4)
ODD = st.one_of(JUNK, st.sampled_from(
    ["0", "-1", "2.7", "1e30", "nan", "inf", "-inf", "1e300", "1e-300", "1e308", "5e-324",
     "*", "é", "２"]))
RAW = st.sampled_from([b"", b"# c", b"[", b"[junk]", b"[generate]", b"\xff\xfe", b"N 1 \x80"])


@st.composite
def config_text(draw):
    Q, N = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    user = st.sampled_from(["*"] + [str(q) for q in range(1, Q + 1)])
    freq = st.sampled_from(["*"] + [str(k) for k in range(1, N + 1)])
    value = st.sampled_from(["0.001", "0.1", "0.5", "1", "2", "1e300"])
    pick = lambda *choices: draw(st.sampled_from(choices))  # noqa: E731
    if draw(st.booleans()):
        lines = [["[channels]"], ["Q", str(Q)], ["N", str(N)], ["sigma2", "*", "*", draw(value)]]
        for _ in range(draw(st.integers(0, 3)) if Q > 1 else 0):
            r, q = draw(st.permutations(range(1, Q + 1)))[:2]
            lines.append(["F", str(r), str(q), draw(freq),
                          pick("0", "0.05", "0.3", "1.5", "1e308")])
    else:
        lines = [["[generate]"], ["users", str(Q)], ["freqs", str(N)]]
        lines += draw(st.lists(st.sampled_from([
            ["cross_variance", "0.2"], ["direct_variance", "2"], ["noise_power", "0.01"],
            ["cross_variance", "1e300"], ["direct_variance", "1e-300"], ["seed", "7"]]),
            max_size=3))
    optional = {
        "[game]": [["P", draw(user), draw(value)], ["eps", draw(user), pick("0", "0.05", "0.5")],
                   ["pmax", draw(user), draw(freq), pick("0.5", "1", "2", "1e308")]],
        "[solver]": [["schedule", pick("jacobi", "gauss_seidel", "random_async")],
                     ["seed", "3"], ["update_probability", "0.6"], ["max_staleness", "2"],
                     ["tol", "1e-6"], ["max_iters", "50"]],
    }
    for header, entries in optional.items():
        if draw(st.booleans()):
            lines += [[header]] + draw(st.lists(st.sampled_from(entries), max_size=4))
    for _ in range(draw(st.integers(0, 3))):
        i = draw(st.integers(0, len(lines) - 1))
        mutation = pick("odd", "add", "drop", "raw")
        if mutation == "raw" or isinstance(lines[i], bytes):
            lines.insert(i, draw(RAW))
            continue
        tokens = lines[i] = list(lines[i])  # entries drawn twice share a list
        j = draw(st.integers(0, len(tokens) - 1))
        if mutation == "odd":
            tokens[j] = draw(ODD)
        elif mutation == "add":
            tokens.insert(j, draw(ODD))
        elif len(tokens) > 1:
            del tokens[j]
    return b"\n".join(
        line if isinstance(line, bytes) else " ".join(line).encode() for line in lines
    ) + b"\n"


FUZZED = set()  # texts that passed, so each counted example is a new text


@settings(derandomize=True, deadline=None, max_examples=300)
@given(text=config_text())
def test_fuzzed_config_ends_cleanly(tmp_path_factory, text):
    assume(text not in FUZZED)  # a failing text is never added, so it still replays
    path = tmp_path_factory.mktemp("fuzz") / "game.cfg"
    path.write_bytes(text)
    for argv in (["check", str(path)], ["solve", str(path), "--max-iters", "20"]):
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = main(argv)
        assert code in (0, 1, 2, 3)
        if code == 1:
            lines = err.getvalue().splitlines()
            assert len(lines) == 1 and lines[0].startswith("error: ")
    FUZZED.add(text)
