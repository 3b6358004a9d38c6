import pytest

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


class TestInputValidation:
    @pytest.mark.parametrize("value", ["2.7", "-2"], ids=["fractional", "negative"])
    def test_bad_user_count_is_input_error(self, tmp_path, capsys, value):
        path = tmp_path / "q.cfg"
        path.write_text(f"[channels]\nQ {value}\nN 2\nsigma2 * * 1.0\n")
        assert main(["solve", str(path)]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: ") and "q.cfg:2" in err[0]

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
