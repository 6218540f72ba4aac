import contextlib
import io
import json
import os
import pathlib
import signal
import subprocess
import sys
import tempfile
import time
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from degctrl import build_grid, cli
from degctrl.cli import _write_trajectory, cmd_verify, main, write_csv
from degctrl.config import parse_config
from degctrl.errors import ConfigError
from degctrl.verify import KNOWN_CHECKS

BASE = {
    "problem": {
        "a": {"kind": "power", "alpha": 0.5},
        "ell": {"kind": "affine", "slope": 0.5},
        "f": {"kind": "polynomial", "coeffs": [1.0, 0.0, 1.0]},
        "omega": [0.3, 0.8],
        "T": 1.0,
        "u0": {"kind": "sine", "amplitude": 0.1},
    },
    "discretization": {"nx": 24, "nt": 24, "gamma": 2.0},
    "verify": {"checks": ["hardy", "energy"], "seed": 0, "ensemble": 3},
}


def write_cfg(tmp_path, overrides=None, name="cfg.json"):
    cfg = json.loads(json.dumps(BASE))
    for path, value in (overrides or {}).items():
        node = cfg
        parts = path.split(".")
        for p in parts[:-1]:
            node = node.setdefault(p, {})
        node[parts[-1]] = value
    p = tmp_path / name
    p.write_text(json.dumps(cfg))
    return str(p)


class TestConfigParsing:
    def test_defaults_fill_missing_blocks(self):
        cfg = parse_config(json.loads(json.dumps(BASE)))
        assert cfg.carleman.s == 1.0 and cfg.carleman.lam == 2.0
        assert cfg.schedule.ns[0] == 1.0

    def test_missing_problem_block(self):
        with pytest.raises(ConfigError, match="problem"):
            parse_config({"discretization": {"nx": 8, "nt": 8}})

    def test_unknown_check_rejected(self):
        raw = json.loads(json.dumps(BASE))
        raw["verify"]["checks"] = ["nope"]
        with pytest.raises(ConfigError, match="verify.checks"):
            parse_config(raw)

    def test_error_carries_key_path(self):
        raw = json.loads(json.dumps(BASE))
        raw["discretization"]["nx"] = 1
        with pytest.raises(ConfigError, match="discretization.nx"):
            parse_config(raw)


def _force_split(monkeypatch):
    """Every trajectory goes through the helper process, on any machine."""
    monkeypatch.setattr(cli, "_SPLIT_MIN_VALUES", 0)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)


def _first_in_helper(monkeypatch, act):
    """cli._format_levels calls act() first, in a helper process only."""
    parent, format_levels = os.getpid(), cli._format_levels

    def patched(*args):
        if os.getpid() != parent:
            act()
        return format_levels(*args)

    monkeypatch.setattr(cli, "_format_levels", patched)


def _counting_forks(monkeypatch):
    """A list that gets the pid of each child os.fork starts in this process."""
    forks, fork, parent = [], os.fork, os.getpid()

    def counted():
        pid = fork()
        if os.getpid() == parent:
            forks.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", counted)
    return forks


def _after_row(monkeypatch, row, act):
    """solve-forward's on_row(row) calls act() once it has reported the row."""
    solve = cli.forward_solve_nonlinear

    def paused(*args, on_row, **kwargs):
        def report(j):
            on_row(j)
            if j == row:
                act()

        return solve(*args, on_row=report, **kwargs)

    monkeypatch.setattr(cli, "forward_solve_nonlinear", paused)


def _until(done, seconds=30.0):
    deadline = time.monotonic() + seconds
    while not done():
        assert time.monotonic() < deadline
        time.sleep(0.001)


def _exited(pid):
    """Whether the child pid has ended, without reaping it."""
    return os.waitid(os.P_PID, pid, os.WEXITED | os.WNOHANG | os.WNOWAIT) is not None


class TestExitCodes:
    def test_strong_degeneracy_is_config_error(self, tmp_path):
        cfg = write_cfg(tmp_path, {"problem.a.alpha": 1.0})
        assert main(["verify", "--config", cfg, "--out", str(tmp_path / "o")]) == 2

    def test_missing_config_file(self, tmp_path):
        assert main(["verify", "--config", str(tmp_path / "nope.json")]) == 2

    def test_sweep_empty_values(self, tmp_path):
        cfg = write_cfg(tmp_path)
        code = main(
            ["sweep", "--config", cfg, "--out", str(tmp_path / "s"),
             "--axis", "carleman.s", "--values", "", "--quiet"]
        )
        assert code == 2

    def test_non_finite_trajectory_is_solver_error(self, tmp_path, capsys):
        # u0/dt overflows float64 in the first step (nt = 24)
        cfg = write_cfg(tmp_path, {"problem.u0.amplitude": 1e308})
        code = main(["null-control", "--config", cfg, "--out", str(tmp_path / "o"), "--quiet"])
        assert code == 3
        assert "NonFiniteTrajectory" in capsys.readouterr().err

    def test_negative_seed_is_config_error(self, tmp_path, capsys):
        out = str(tmp_path / "o")
        cfg = write_cfg(tmp_path, {"verify.seed": -1})
        assert main(["verify", "--config", cfg, "--out", out, "--quiet"]) == 2
        assert "verify.seed" in capsys.readouterr().err
        cfg = write_cfg(tmp_path)
        assert main(["verify", "--config", cfg, "--out", out, "--seed", "-1", "--quiet"]) == 2
        assert "verify.seed" in capsys.readouterr().err

    @pytest.mark.parametrize("tol", [0.0, float("nan")])
    def test_non_positive_newton_tol_is_config_error(self, tmp_path, capsys, tol):
        cfg = write_cfg(tmp_path, {"newton.tol": tol})
        code = main(
            ["null-control-nonlinear", "--config", cfg, "--out", str(tmp_path / "o"), "--quiet"]
        )
        assert code == 2
        assert "newton.tol" in capsys.readouterr().err

    @pytest.mark.parametrize("directory", [5, True, ["a"], {"x": 1}])
    def test_non_string_output_directory_is_config_error(self, tmp_path, capsys, directory):
        # os.makedirs used to raise TypeError, which exits 1
        sizes = {"discretization.nx": 8, "discretization.nt": 8}
        cfg = write_cfg(tmp_path, {**sizes, "output.directory": directory})
        assert main(["solve-forward", "--config", cfg, "--quiet"]) == 2
        assert "output.directory" in capsys.readouterr().err
        cfg = write_cfg(tmp_path, {**sizes, "output.directory": str(tmp_path / "o")})
        assert main(["solve-forward", "--config", cfg, "--quiet"]) == 0
        assert (tmp_path / "o").is_dir()

    @pytest.mark.parametrize(
        "bad",
        ["config_is_directory", "config_not_utf8", "out_is_file", "summary_is_directory",
         "stages_is_directory", "sweep_run_is_file"],
    )
    def test_unusable_path_is_config_error(self, tmp_path, capsys, bad):
        # these used to escape as IsADirectoryError, UnicodeDecodeError and
        # FileExistsError, which exit 1
        command = {"stages_is_directory": "null-control",
                   "sweep_run_is_file": "sweep"}.get(bad, "solve-forward")
        cfg = write_cfg(tmp_path, {"discretization.nx": 8, "discretization.nt": 8})
        out = tmp_path / "o"
        path = {"config_is_directory": tmp_path, "config_not_utf8": tmp_path / "bad.json",
                "out_is_file": out, "summary_is_directory": out / "summary.json",
                "stages_is_directory": out / "stages.csv",
                "sweep_run_is_file": out / "discretization_nt=8"}[bad]
        if bad == "config_is_directory":
            cfg = str(tmp_path)
        elif bad == "config_not_utf8":
            path.write_bytes(b"\xff\xfe{")
            cfg = str(path)
        elif bad == "out_is_file":
            out.write_text("")
        elif bad == "sweep_run_is_file":
            out.mkdir()
            path.write_text("")
        else:
            path.mkdir(parents=True)
        # two workers: the error pickles back from the one whose run failed
        sweep = ["--axis", "discretization.nt", "--values", "8,16", "--jobs", "2"]
        sweep = sweep if command == "sweep" else []
        assert main([command, "--config", cfg, "--out", str(out), "--quiet", *sweep]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:") and str(path) in err

    @pytest.mark.parametrize("command", ["solve-forward", "null-control",
                                         "null-control-nonlinear", "verify"])
    def test_singular_step_matrix_is_solver_error(self, tmp_path, capsys, command):
        # f = c u with c = -(1/dt - L_11) makes the 1 x 1 step matrix zero;
        # the LinAlgError used to escape with a traceback, which exits 1
        overrides = {"discretization.nx": 2, "discretization.nt": 2,
                     "discretization.gamma": 1.0, "problem.ell": {"kind": "constant"},
                     "problem.f": {"kind": "linear", "coeff": -7.464101615137754},
                     "verify.checks": ["energy"]}
        cfg = write_cfg(tmp_path, overrides)
        assert main([command, "--config", cfg, "--out", str(tmp_path / "o"), "--quiet"]) == 3
        assert capsys.readouterr().err.startswith("solver error: LinAlgError: singular")

    def test_newton_divergence_is_solver_error(self, tmp_path):
        cfg = write_cfg(tmp_path, {"problem.u0.amplitude": 200.0})
        code = main(
            ["null-control-nonlinear", "--config", cfg,
             "--out", str(tmp_path / "d"), "--quiet"]
        )
        assert code == 3


    def test_weight_overflow_is_config_error(self, tmp_path, capsys):
        overrides = {"carleman.lambda": 1000.0, "verify.checks": ["carleman_phi"]}
        cfg = write_cfg(tmp_path, overrides)
        assert main(["verify", "--config", cfg, "--out", str(tmp_path / "o"), "--quiet"]) == 2
        assert "carleman.lambda" in capsys.readouterr().err

    def test_scaled_weight_overflow_is_config_error(self, tmp_path, capsys):
        # e^{3 lambda |psi|_inf} is finite here, s times it is not
        overrides = {"carleman.s": 2.0, "carleman.lambda": 757.0,
                     "discretization.nx": 2, "discretization.nt": 2,
                     "discretization.gamma": 1.0, "problem.a.alpha": 0.78125,
                     "verify.checks": ["carleman_phi"]}
        cfg = write_cfg(tmp_path, overrides)
        assert main(["verify", "--config", cfg, "--out", str(tmp_path / "o"), "--quiet"]) == 2
        assert "carleman.lambda" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "overrides",
        [
            # s e^{3 lambda |psi|_inf} is finite, theta or tau times it is not:
            # overflowed tables would give carleman_phi a vacuous pass (exit 0)
            {"problem.a.alpha": 0.0625, "verify.checks": ["carleman_phi"]},
            {"problem.a.alpha": 0.0625, "verify.checks": ["sup"]},
            # e^{3 lambda |psi|_inf} overflows, and so did e^{lambda(|psi|_inf + psi)}
            {"problem.a": {"kind": "power_cosine", "alpha": 0.96875}, "carleman.lambda": 825.0,
             "discretization.nx": 4, "discretization.gamma": 2.5, "verify.checks": ["carleman_phi"]},
        ],
        ids=["phi_table", "rho_tables", "eta"],
    )
    def test_weight_table_overflow_is_config_error(self, tmp_path, capsys, overrides):
        base = {"carleman.lambda": 853.0, "discretization.nx": 2, "discretization.nt": 2,
                "discretization.gamma": 1.0, "verify.ensemble": 1}
        cfg = write_cfg(tmp_path, {**base, **overrides})
        assert main(["verify", "--config", cfg, "--out", str(tmp_path / "o"), "--quiet"]) == 2
        assert "config error: carleman.lambda: weights overflow" in capsys.readouterr().err

    @pytest.mark.parametrize("check", ["carleman_phi", "carleman_A"])
    @pytest.mark.parametrize("lam", [100.0, 500.0])
    def test_log_headroom_is_config_error(self, tmp_path, capsys, lam, check):
        # the weights stay finite, but lhs_log and rhs_log (about -2.5e41 at
        # lambda 100) are known only to |log| eps, so they would come out equal
        cfg = write_cfg(tmp_path, {"carleman.lambda": lam, "verify.checks": [check]})
        assert main(["verify", "--config", cfg, "--out", str(tmp_path / "o"), "--quiet"]) == 2
        assert "carleman.lambda" in capsys.readouterr().err

    @pytest.mark.parametrize("check", ["carleman_phi", "carleman_A"])
    def test_fine_time_grid_keeps_log_headroom(self, tmp_path, check):
        # near t = 0 and T the exponents grow like nt^4, but those rows add
        # nothing to the integrals, whose logs stay above -1.7e3
        cfg = write_cfg(tmp_path, {"discretization.nx": 16, "discretization.nt": 1024,
                                   "verify.ensemble": 1, "verify.checks": [check]})
        assert main(["verify", "--config", cfg, "--out", str(tmp_path / "o"), "--quiet"]) == 0

    @pytest.mark.parametrize("command", ["null-control", "null-control-nonlinear"])
    def test_window_without_nodes_is_config_error(self, tmp_path, capsys, command):
        cfg = write_cfg(tmp_path, {"discretization.nx": 2})  # nodes 0, 0.25, 1
        assert main([command, "--config", cfg, "--out", str(tmp_path / "o"), "--quiet"]) == 2
        assert "problem.omega" in capsys.readouterr().err

    def test_zero_datum_exits_zero(self, tmp_path):
        cfg = write_cfg(tmp_path, {"problem.u0.amplitude": 0.0})
        out = tmp_path / "o"
        assert main(["null-control", "--config", cfg, "--out", str(out), "--quiet"]) == 0
        assert json.loads((out / "summary.json").read_text())["reduction"] == 0.0

    @pytest.mark.parametrize(
        "overrides, key",
        [
            ({"problem.f": {"kind": "linear", "coeff": 1e309}}, "problem.f.coeff"),
            ({"problem.f": {"kind": "polynomial", "coeffs": [1e308, 0.0, 1e308]}}, "problem.f"),
            ({"problem.ell.slope": 1e309}, "problem.ell.slope"),
            ({"problem.u0.amplitude": float("nan")}, "problem.u0.amplitude"),
            ({"problem.u0.amplitude": float("-inf")}, "problem.u0.amplitude"),
            ({"hum.schedule": [1.0, 1e309]}, "hum.schedule"),
        ],
        ids=["f_coeff", "f_coeffs", "ell_slope", "u0_nan", "u0_inf", "schedule_inf"],
    )
    def test_non_finite_coefficient_is_config_error(self, tmp_path, capsys, overrides, key):
        # 1e309 is inf in float64; json writes it as Infinity and reads it back
        cfg = write_cfg(tmp_path, overrides)
        code = main(["null-control", "--config", cfg, "--out", str(tmp_path / "o"), "--quiet"])
        assert code == 2
        assert f"config error: {key}:" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "value", [float("nan"), 1e309, 10**400], ids=["nan", "inf", "big_int"]
    )
    @pytest.mark.parametrize(
        "key",
        ["carleman.s", "carleman.lambda", "carleman.omega_prime_margin", "carleman.M_fraction",
         "hum.tol_terminal", "discretization.gamma", "problem.T", "problem.a.alpha",
         "newton.tol"],
    )
    def test_non_finite_number_is_config_error(self, tmp_path, capsys, key, value):
        # NaN fails every comparison and inf passes a lower bound, so neither
        # may reach the bound checks, or a later key would take the blame; an
        # integer literal beyond float64 would raise OverflowError in float()
        overrides = {key: value, "discretization.nx": 16, "discretization.nt": 16}
        cfg = write_cfg(tmp_path, overrides)
        for command in ("null-control", "verify"):
            out = str(tmp_path / command)
            assert main([command, "--config", cfg, "--out", out, "--quiet"]) == 2
            assert f"config error: {key}: must be finite" in capsys.readouterr().err

    @pytest.mark.parametrize("amplitude", [1e160, 1e200, 1e250])
    def test_huge_datum_scales_exactly(self, tmp_path, amplitude):
        # the squares of u0, u and h overflow float64; the exact linear solve
        # scales with the datum, and the reported norms are scaled
        reductions, jn_logs = [], []
        for amp in (1.0, amplitude):
            overrides = {"problem.u0.amplitude": amp,
                         "discretization.nx": 16, "discretization.nt": 16}
            cfg, out = write_cfg(tmp_path, overrides), tmp_path / str(amp)
            assert main(["null-control", "--config", cfg, "--out", str(out), "--quiet"]) == 0
            _assert_finite_summary(out)
            stages = (out / "stages.csv").read_text().splitlines()[1:]
            assert all(np.isfinite(float(v)) for row in stages for v in row.split(","))
            reductions.append(json.loads((out / "summary.json").read_text())["reduction"])
            # log J_n = log(Jn_mantissa) + Jn_logscale
            jn_logs.append([np.log(float(row.split(",")[2])) + float(row.split(",")[3])
                            for row in stages])
        assert reductions[1] == pytest.approx(reductions[0], rel=1e-10)
        # J_n is quadratic in the datum
        assert len(jn_logs[1]) == len(jn_logs[0])
        for small, big in zip(*jn_logs):
            assert big - small == pytest.approx(2.0 * np.log(amplitude), rel=1e-12)

    @pytest.mark.parametrize(
        "key, value",
        [("problem.f.coeffs", [1.0, None]), ("problem.omega", [None, 0.8]),
         ("problem.omega", [0.3, True]), ("hum.schedule", [1.0, None]),
         # NaN and inf would reach the range checks of ProblemData, f and
         # PenaltySchedule, which blame problem, problem.f or no key
         ("problem.f.coeffs", [1.0, float("nan")]), ("problem.omega", [float("nan"), 0.8]),
         ("problem.omega", [0.3, 1e309]), ("hum.schedule", [1.0, 1e309]),
         ("hum.schedule", [1.0, float("nan")]), ("problem.f.coeffs", [10**400])],
        ids=["coeffs_null", "omega_null", "omega_bool", "schedule_null", "coeffs_nan",
             "omega_nan", "omega_inf", "schedule_inf", "schedule_nan", "coeffs_big_int"],
    )
    def test_non_number_list_entry_is_config_error(self, tmp_path, capsys, key, value):
        cfg = write_cfg(tmp_path, {key: value})
        code = main(["null-control", "--config", cfg, "--out", str(tmp_path / "o"), "--quiet"])
        assert code == 2
        assert f"config error: {key}:" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "key", ["verify.ensemble", "discretization.nx", "problem.u0.amplitude", "newton.tol"]
    )
    def test_boolean_number_is_config_error(self, tmp_path, capsys, key):
        cfg = write_cfg(tmp_path, {key: True})
        assert main(["verify", "--config", cfg, "--out", str(tmp_path / "o"), "--quiet"]) == 2
        err = capsys.readouterr().err
        assert f"config error: {key}:" in err and "got bool" in err

    @pytest.mark.parametrize("key", ["log_weight_cap", "cg_tol", "cg_maxit"])
    def test_removed_hum_key_is_config_error(self, tmp_path, capsys, key):
        cfg = write_cfg(tmp_path, {f"hum.{key}": 1})
        code = main(["null-control", "--config", cfg, "--out", str(tmp_path / "o"), "--quiet"])
        assert code == 2
        assert f"config error: hum.{key}:" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "key",
        [
            "comment",
            "discretization.nz",
            "carleman.lamda",
            "hum.tol",
            "newton.tolerance",
            "verify.samples",
            "output.dir",
            "problem.omgea",
            "problem.a.alpah",
            "problem.ell.slop",
            "problem.f.coef",
            "problem.u0.amp",
        ],
    )
    def test_unknown_key_is_config_error(self, tmp_path, capsys, key):
        # "carleman.lamda" used to run silently with the default lambda
        cfg = write_cfg(tmp_path, {key: 50})
        assert main(["verify", "--config", cfg, "--out", str(tmp_path / "o"), "--quiet"]) == 2
        assert f"config error: {key}: unknown key" in capsys.readouterr().err

    @pytest.mark.parametrize("checks", [[], ["hardy", "hardy"]])
    def test_empty_or_repeated_checks_is_config_error(self, tmp_path, capsys, checks):
        # [] used to exit 0 with no rows, a repeat to write the same rows twice
        cfg = write_cfg(tmp_path, {"verify.checks": checks})
        assert main(["verify", "--config", cfg, "--out", str(tmp_path / "o"), "--quiet"]) == 2
        assert "config error: verify.checks:" in capsys.readouterr().err

    def test_sweep_unknown_axis_creates_no_run(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path)
        out = tmp_path / "sw"
        code = main(
            ["sweep", "--config", cfg, "--out", str(out), "--axis", "carleman.lamda",
             "--values", "20,50", "--base", "verify", "--quiet"]
        )
        assert code == 2
        assert "config error: carleman.lamda: unknown key" in capsys.readouterr().err
        assert list(out.iterdir()) == []

    @pytest.mark.parametrize("jobs", ["0", "-3"])
    def test_sweep_jobs_below_one_is_config_error(self, tmp_path, capsys, jobs):
        # these used to run serially and exit 0
        cfg = write_cfg(tmp_path)
        out = tmp_path / "sw"
        code = main(
            ["sweep", "--config", cfg, "--out", str(out), "--axis", "carleman.s",
             "--values", "1,2", "--base", "verify", "--jobs", jobs, "--quiet"]
        )
        assert code == 2
        assert capsys.readouterr().err.startswith("config error: --jobs:")
        assert list(out.iterdir()) == []

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
    @pytest.mark.parametrize(
        "command, name, helper",
        [("solve-forward", "trajectory.csv", None), ("null-control", "state.csv", "split"),
         ("solve-forward", "trajectory.csv", "streamed"),
         ("solve-forward", "summary.json", None), ("verify", "verification.csv", None)],
        ids=["trajectory", "trajectory_split", "trajectory_streamed", "summary", "csv"],
    )
    def test_write_error_is_config_error(
        self, tmp_path, capfd, monkeypatch, command, name, helper
    ):
        # a full disk used to escape as OSError with a traceback, which exits 1
        if helper:
            # a helper that would format for a minute: the failed write kills
            # it, and a streamed solve fails at its header, before any fork
            _force_split(monkeypatch)
            _first_in_helper(monkeypatch, lambda: time.sleep(60))
        counted = _counting_forks(monkeypatch)
        cfg = write_cfg(tmp_path, {"discretization.nx": 16, "discretization.nt": 16})
        out = tmp_path / "o"
        out.mkdir()
        (out / name).symlink_to("/dev/full")
        t0 = time.perf_counter()
        assert main([command, "--config", cfg, "--out", str(out), "--quiet"]) == 2
        assert time.perf_counter() - t0 < 30
        err = capfd.readouterr().err
        assert err == f"config error: {out / name}: cannot write the output file: " \
            "No space left on device\n"
        assert len(counted) == (helper == "split")
        assert (out / name).is_symlink()  # not a regular file: left alone
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    @pytest.mark.parametrize(
        "how, stream",
        [("raises", None), ("killed", None), ("killed", "mid"), ("raises", "end")],
        ids=["raises", "killed", "streamed_killed", "streamed_raises"],
    )
    def test_failed_helper_is_config_error(self, tmp_path, capfd, monkeypatch, how, stream):
        # split: state.csv's helper fails; streamed: solve-forward's helper
        # fails on row 0 and the stepper's next on_row meets a broken pipe
        # (mid), or on the last row once the solve is done (end)
        def fault():
            if how == "killed":
                os.kill(os.getpid(), signal.SIGKILL)
            raise RuntimeError("helper fault")

        _force_split(monkeypatch)
        parent, format_levels = os.getpid(), cli._format_levels

        def patched(level, t, u):
            if os.getpid() != parent and (stream != "end" or t[-1] == 1.0):
                fault()
            return format_levels(level, t, u)

        monkeypatch.setattr(cli, "_format_levels", patched)
        counted = _counting_forks(monkeypatch)
        if stream:
            _after_row(monkeypatch, 0 if stream == "mid" else 16, lambda: _until(
                lambda: _exited(counted[0])
            ))
        command, name = ("solve-forward", "trajectory.csv") if stream else \
            ("null-control", "state.csv")
        cfg = write_cfg(tmp_path, {"discretization.nx": 16, "discretization.nt": 16})
        out = tmp_path / "o"
        assert main([command, "--config", cfg, "--out", str(out), "--quiet"]) == 2
        err = capfd.readouterr().err
        status = "exited with code 1" if how == "raises" else "was killed by signal 9"
        assert err == f"config error: {out / name}: cannot write the output " \
            f"file: its helper process {status}\n"
        assert len(counted) == 1
        assert not (out / name).exists()  # no partial file under the final name
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    def test_solver_error_while_streaming_leaves_no_file(self, tmp_path, capsys, monkeypatch):
        # the stepper reports rows 0 and 1, the helper writes them, and row 2
        # raises PicardDivergence: the helper is killed and the file removed
        _force_split(monkeypatch)
        counted = _counting_forks(monkeypatch)
        out = tmp_path / "o"
        path = out / "trajectory.csv"
        _after_row(monkeypatch, 1, lambda: _until(
            lambda: path.read_bytes().count(b"\n") == 1 + 2 * 17
        ))
        overrides = {
            "discretization.nx": 16,
            "discretization.nt": 64,
            "problem.f": {"kind": "polynomial", "coeffs": [0.0, 0.0, -1.0]},
            "problem.u0.amplitude": 10.0,
        }
        cfg = write_cfg(tmp_path, overrides)
        assert main(["solve-forward", "--config", cfg, "--out", str(out), "--quiet"]) == 3
        assert capsys.readouterr().err.startswith("solver error: PicardDivergence: ")
        assert len(counted) == 1
        assert not path.exists()
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    @pytest.mark.parametrize("command", ["solve-forward", "null-control-nonlinear"])
    def test_one_interior_node(self, tmp_path, command):
        # nodes 0, 0.25, 1: every step is 1 x 1, and the window holds x = 0.25
        overrides = {"discretization.nx": 2, "discretization.nt": 4, "problem.omega": [0.2, 0.8]}
        cfg = write_cfg(tmp_path, overrides)
        out = tmp_path / "o"
        assert main([command, "--config", cfg, "--out", str(out), "--quiet"]) == 0
        _assert_finite_summary(out)

    @pytest.mark.parametrize("kind, alpha", [("power", -0.5), ("power_cosine", 1.5)])
    def test_alpha_out_of_range_is_config_error(self, tmp_path, capsys, kind, alpha):
        cfg = write_cfg(tmp_path, {"problem.a": {"kind": kind, "alpha": alpha}})
        assert main(["verify", "--config", cfg, "--out", str(tmp_path / "o"), "--quiet"]) == 2
        assert "problem.a.alpha" in capsys.readouterr().err


class TestVerifyExitCodeFuzz:
    @settings(max_examples=150, deadline=None)
    @given(
        checks=st.lists(st.sampled_from(KNOWN_CHECKS), min_size=1, max_size=6, unique=True),
        ensemble=st.integers(1, 3),
        nx=st.integers(2, 24),
        nt=st.integers(2, 24),
        gamma=st.floats(1.0, 3.0),
        kind=st.sampled_from(["power", "power_cosine"]),
        alpha=st.one_of(st.floats(0.0, 1.0), st.floats(-0.5, 2.0)),
        s=st.floats(1e-6, 50.0),
        lam=st.one_of(st.floats(1e-6, 20.0), st.floats(1e-6, 1000.0)),
        seed=st.integers(0, 2**31),
    )
    def test_exit_code_is_documented(
        self, checks, ensemble, nx, nt, gamma, kind, alpha, s, lam, seed
    ):
        raw = {
            "problem": {"a": {"kind": kind, "alpha": alpha}},
            "discretization": {"nx": nx, "nt": nt, "gamma": gamma},
            "carleman": {"s": s, "lambda": lam},
            "verify": {"checks": checks, "seed": seed, "ensemble": ensemble},
        }
        with tempfile.TemporaryDirectory() as tmp:
            cfg, out = os.path.join(tmp, "cfg.json"), os.path.join(tmp, "o")
            with open(cfg, "w") as fh:
                json.dump(raw, fh)
            with contextlib.redirect_stderr(io.StringIO()):
                code = main(["verify", "--config", cfg, "--out", out, "--quiet"])
            assert code in (0, 1, 2, 3)
            if code in (0, 1):  # an assertion failure is reported after its outputs
                assert os.path.exists(os.path.join(out, "summary.json"))



def _assert_finite_summary(out):
    """The norms and the reduction a run reports are finite numbers."""
    doc = json.loads((out / "summary.json").read_text())
    keys = ("final_l2_norm", "terminal_norm", "terminal_norm_replay", "initial_norm", "reduction")
    for key in keys:
        if key in doc:
            assert isinstance(doc[key], float) and np.isfinite(doc[key]), (key, doc[key])


class TestControlExitCodeFuzz:
    # overflow is reported through the exit code, not as a numpy warning
    # (pyproject turns every RuntimeWarning into an error)
    @settings(max_examples=200, deadline=None)
    @given(
        command=st.sampled_from(["null-control", "null-control-nonlinear", "solve-forward"]),
        # at nx = 2 the nodes are 0, 0.25 and 1: only the second window holds one
        omega=st.sampled_from([[0.3, 0.8], [0.2, 0.8]]),
        nx=st.integers(2, 16),
        nt=st.integers(2, 16),
        schedule=st.one_of(
            st.lists(st.floats(1.0, 1e8), min_size=1, max_size=4, unique=True).map(sorted),
            st.lists(st.floats(0.5, 1e8), max_size=4),
        ),
        amplitude=st.one_of(st.floats(-10.0, 10.0), st.floats(-1e300, 1e300)),
    )
    def test_exit_code_is_documented(self, command, omega, nx, nt, schedule, amplitude):
        raw = json.loads(json.dumps(BASE))
        raw["problem"]["u0"]["amplitude"] = amplitude
        raw["problem"]["omega"] = omega
        raw["discretization"].update(nx=nx, nt=nt)
        raw["hum"] = {"schedule": schedule}
        with tempfile.TemporaryDirectory() as tmp:
            cfg, out = os.path.join(tmp, "cfg.json"), os.path.join(tmp, "o")
            with open(cfg, "w") as fh:
                json.dump(raw, fh)
            with contextlib.redirect_stderr(io.StringIO()):
                code = main([command, "--config", cfg, "--out", out, "--quiet"])
            assert code in (0, 1, 2, 3)
            if code in (0, 1):  # an assertion failure is reported after its outputs
                _assert_finite_summary(pathlib.Path(out))


class TestPipelines:
    def test_solve_forward_outputs(self, tmp_path):
        cfg = write_cfg(tmp_path)
        out = tmp_path / "fwd"
        assert main(["solve-forward", "--config", cfg, "--out", str(out), "--quiet"]) == 0
        assert (out / "trajectory.csv").exists()
        doc = json.loads((out / "summary.json").read_text())
        assert doc["command"] == "solve-forward"
        assert doc["config"]["problem"]["T"] == 1.0

    def test_null_control_outputs(self, tmp_path):
        cfg = write_cfg(tmp_path)
        out = tmp_path / "nc"
        assert main(["null-control", "--config", cfg, "--out", str(out), "--quiet"]) == 0
        header = (out / "stages.csv").read_text().splitlines()[0]
        assert header == (
            "n,cg_iters,Jn_mantissa,Jn_logscale,terminal_norm,"
            "ctrl_weighted_norm_log,state_weighted_norm_log"
        )
        rows = len((out / "stages.csv").read_text().splitlines()) - 1
        assert json.loads((out / "summary.json").read_text())["stages_run"] == rows

    def test_verify_outputs(self, tmp_path):
        cfg = write_cfg(tmp_path)
        out = tmp_path / "v"
        assert main(["verify", "--config", cfg, "--out", str(out), "--quiet"]) == 0
        header = (out / "verification.csv").read_text().splitlines()[0]
        assert header == "check_name,s,lambda,n,seed,lhs_log,rhs_log,ratio,pass"

    def test_env_out_dir_fallback(self, tmp_path, monkeypatch):
        cfg = write_cfg(tmp_path)
        target = tmp_path / "envout"
        monkeypatch.setenv("DNC_OUT_DIR", str(target))
        monkeypatch.chdir(tmp_path)
        assert main(["verify", "--config", cfg, "--quiet"]) == 0
        assert (target / "verification.csv").exists()

    def test_sweep_aggregates(self, tmp_path):
        cfg = write_cfg(tmp_path)
        out = tmp_path / "sw"
        code = main(
            ["sweep", "--config", cfg, "--out", str(out), "--axis", "carleman.s",
             "--values", "1,2", "--base", "verify", "--quiet"]
        )
        assert code == 0
        lines = (out / "sweep.csv").read_text().splitlines()
        assert lines[0] == "axis,value,exit_code,metric,wall_seconds"
        assert len(lines) == 3

    def test_sweep_starts_no_more_workers_than_values(self, tmp_path, monkeypatch):
        sizes = []

        class InlinePool:
            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, tasks):
                return map(fn, tasks)

        monkeypatch.setattr(cli, "ProcessPoolExecutor", InlinePool)
        cfg = write_cfg(tmp_path)
        code = main(
            ["sweep", "--config", cfg, "--out", str(tmp_path / "sw"), "--axis", "carleman.s",
             "--values", "1,2", "--base", "verify", "--jobs", "64", "--quiet"]
        )
        assert code == 0 and sizes == [2]

    def test_pipelines_never_import_scipy_integrate(self, tmp_path):
        # psi comes from each coefficient's exact primitive, so no pipeline
        # pays for scipy.integrate; a fresh interpreter shows what each loads
        cfg = write_cfg(tmp_path, {"discretization.nx": 16, "discretization.nt": 16,
                                   "verify.checks": sorted(KNOWN_CHECKS)})
        script = (
            "import os, sys\n"
            "from degctrl import cli\n"
            "for cmd in ('solve-forward', 'null-control', 'null-control-nonlinear', 'verify'):\n"
            f"    out = os.path.join({str(tmp_path)!r}, cmd)\n"
            f"    code = cli.main([cmd, '--config', {cfg!r}, '--out', out, '--quiet'])\n"
            "    assert code == 0, (cmd, code)\n"
            "assert 'scipy.integrate' not in sys.modules\n"
        )
        src = os.path.dirname(os.path.dirname(cli.__file__))
        env = dict(os.environ, PYTHONPATH=src)
        done = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                              text=True, timeout=120)
        assert done.returncode == 0, done.stderr


def _csv_seeds(path):
    lines = path.read_text().splitlines()
    col = lines[0].split(",").index("seed")
    return {line.split(",")[col] for line in lines[1:]}


class TestSeedFlag:
    def test_verify_seed_recorded_in_summary(self, tmp_path):
        cfg = write_cfg(tmp_path)
        out = tmp_path / "v"
        assert main(["verify", "--config", cfg, "--out", str(out), "--seed", "7", "--quiet"]) == 0
        assert _csv_seeds(out / "verification.csv") == {"7"}
        doc = json.loads((out / "summary.json").read_text())
        assert doc["config"]["verify"]["seed"] == 7

    def test_summary_echoes_seed_set_on_config(self, tmp_path):
        # a caller that sets cfg.verify_seed alone, not the raw config
        cfg = parse_config(json.loads(json.dumps(BASE)))
        cfg.verify_seed = 7
        out = tmp_path / "v"
        out.mkdir()
        assert cmd_verify(cfg, str(out), True) == 0
        assert _csv_seeds(out / "verification.csv") == {"7"}
        doc = json.loads((out / "summary.json").read_text())
        assert doc["config"]["verify"]["seed"] == 7

    def test_sweep_passes_seed_to_verify(self, tmp_path):
        cfg = write_cfg(tmp_path)
        out = tmp_path / "sw"
        code = main(
            ["sweep", "--config", cfg, "--out", str(out), "--axis", "carleman.s",
             "--values", "1", "--base", "verify", "--seed", "7", "--quiet"]
        )
        assert code == 0
        assert _csv_seeds(out / "carleman_s=1" / "verification.csv") == {"7"}


_SPECIAL = [-0.0, 1e-05, 1e16, 5e-324, 2.2250738585072014e-308 / 3, -1e-320]


class TestTrajectoryWriter:
    def test_bytes_match_per_value_formatting(self, tmp_path):
        grid = build_grid(7, 5, 0.7, gamma=2.5)
        u = np.random.default_rng(1).standard_normal((grid.nt + 1, grid.nx + 1))
        u[1, :6] = _SPECIAL
        u[2, 0] = 0.1 + 0.2
        u[0] = 0.0
        _write_trajectory(str(tmp_path), "new.csv", u, SimpleNamespace(grid=grid))
        rows = [
            (grid.t[j], grid.x[i], u[j, i])
            for j in range(grid.nt + 1)
            for i in range(grid.nx + 1)
        ]
        write_csv(str(tmp_path / "old.csv"), ["t", "x", "u"], rows)
        new = (tmp_path / "new.csv").read_bytes()
        assert new == (tmp_path / "old.csv").read_bytes()
        assert b",-0.0\n" in new and b",1e-05\n" in new and b",5e-324\n" in new

    @pytest.mark.parametrize("cpus, forks", [({0, 1}, 1), ({0}, 0)])
    def test_split_bytes_match_per_value_formatting(self, tmp_path, monkeypatch, cpus, forks):
        # 513 rows: the parent writes rows :256, the helper rows 256:
        grid = build_grid(255, 512, 0.7, gamma=2.5)
        u = np.random.default_rng(2).standard_normal((grid.nt + 1, grid.nx + 1))
        assert u.size >= cli._SPLIT_MIN_VALUES and len(u) % 2 == 1
        for j in (1, 255, 256, 512):
            u[j, :6] = _SPECIAL
            u[j, 6] = 0.1 + 0.2
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: cpus, raising=False)
        counted = _counting_forks(monkeypatch)
        _write_trajectory(str(tmp_path), "new.csv", u, SimpleNamespace(grid=grid))
        assert len(counted) == forks
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)
        rows = zip(np.repeat(grid.t, grid.nx + 1), np.tile(grid.x, grid.nt + 1), u.ravel())
        write_csv(str(tmp_path / "old.csv"), ["t", "x", "u"], rows)
        new = (tmp_path / "new.csv").read_bytes()
        assert new == (tmp_path / "old.csv").read_bytes()
        assert new.count(b",5e-324\n") == 4 and new.count(b",0.30000000000000004\n") == 4

    def test_64_squared_trajectory_is_written_serially(self, tmp_path, monkeypatch):
        grid = build_grid(64, 64, 1.0)
        u = np.random.default_rng(3).standard_normal((grid.nt + 1, grid.nx + 1))
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        counted = _counting_forks(monkeypatch)
        _write_trajectory(str(tmp_path), "state.csv", u, SimpleNamespace(grid=grid))
        assert counted == []
        assert (tmp_path / "state.csv").read_bytes().count(b"\n") == u.size + 1
        # nor is a 64² solve-forward streamed
        cfg = write_cfg(tmp_path, {"discretization.nx": 64, "discretization.nt": 64})
        out = tmp_path / "fwd"
        assert main(["solve-forward", "--config", cfg, "--out", str(out), "--quiet"]) == 0
        assert counted == []
        assert (out / "trajectory.csv").read_bytes().count(b"\n") == u.size + 1

    def test_streamed_solve_forward_matches_serial(self, tmp_path, monkeypatch):
        # a helper slower than the stepper: the streaming helper writes the
        # first rows, then this process and a second helper the rest
        cfg = write_cfg(tmp_path, {"discretization.nx": 32, "discretization.nt": 96})
        runs = {}
        for name, cpus in (("serial", {0}), ("streamed", {0, 1})):
            with monkeypatch.context() as m:
                m.setattr(cli, "_SPLIT_MIN_VALUES", 0)
                m.setattr(os, "sched_getaffinity", lambda pid: cpus, raising=False)
                _first_in_helper(m, lambda: time.sleep(0.002))
                counted = _counting_forks(m)
                solve, solved = cli.forward_solve_nonlinear, []

                def captured(*args, **kwargs):
                    u = solve(*args, **kwargs)
                    solved.append(u.copy())  # the streamed u is closed with its mapping
                    return u

                m.setattr(cli, "forward_solve_nonlinear", captured)
                out = tmp_path / name
                assert main(["solve-forward", "--config", cfg, "--out", str(out),
                             "--quiet"]) == 0
            with pytest.raises(ChildProcessError):
                os.waitpid(-1, os.WNOHANG)
            summary = json.loads((out / "summary.json").read_text())
            runs[name] = (len(counted), (out / "trajectory.csv").read_bytes(),
                          summary["final_l2_norm"], solved[0])
        assert runs["serial"][0] == 0 and runs["streamed"][0] == 2
        assert runs["streamed"][1:3] == runs["serial"][1:3]
        grid = parse_config(json.loads(pathlib.Path(cfg).read_text())).grid
        u = runs["streamed"][3]
        rows = zip(np.repeat(grid.t, grid.nx + 1), np.tile(grid.x, grid.nt + 1), u.ravel())
        write_csv(str(tmp_path / "old.csv"), ["t", "x", "u"], rows)
        assert runs["streamed"][1] == (tmp_path / "old.csv").read_bytes()

    def test_streamed_bytes_hold_wherever_the_helper_stops(self, tmp_path, monkeypatch):
        # helpers of several speeds hand over at different rows, or finish
        cfg = write_cfg(tmp_path, {"discretization.nx": 16, "discretization.nt": 128})
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
        assert main(["solve-forward", "--config", cfg, "--out", str(tmp_path / "ref"),
                     "--quiet"]) == 0
        serial = (tmp_path / "ref" / "trajectory.csv").read_bytes()
        _force_split(monkeypatch)
        t0 = time.monotonic()
        for run in range(12):
            delay = (0.0, 0.0002, 0.001)[run % 3]
            with monkeypatch.context() as m:
                _first_in_helper(m, lambda: time.sleep(delay))
                out = tmp_path / str(run)
                assert main(["solve-forward", "--config", cfg, "--out", str(out),
                             "--quiet"]) == 0
            assert (out / "trajectory.csv").read_bytes() == serial, run
            with pytest.raises(ChildProcessError):
                os.waitpid(-1, os.WNOHANG)
        assert time.monotonic() - t0 < 60
