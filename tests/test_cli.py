import contextlib
import io
import json
import os
import pathlib
import tempfile
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from degctrl import build_grid
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
        assert cfg.s == 1.0 and cfg.lam == 2.0
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
            ({"problem.f": {"kind": "linear", "coeff": 1e309}}, "problem.f"),
            ({"problem.f": {"kind": "polynomial", "coeffs": [1e308, 0.0, 1e308]}}, "problem.f"),
            ({"problem.ell.slope": 1e309}, "problem.ell"),
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
         ("problem.omega", [0.3, True]), ("hum.schedule", [1.0, None])],
        ids=["coeffs_null", "omega_null", "omega_bool", "schedule_null"],
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


class TestTrajectoryWriter:
    def test_bytes_match_per_value_formatting(self, tmp_path):
        grid = build_grid(7, 5, 0.7, gamma=2.5)
        u = np.random.default_rng(1).standard_normal((grid.nt + 1, grid.nx + 1))
        u[1, :6] = [-0.0, 1e-05, 1e16, 5e-324, 2.2250738585072014e-308 / 3, -1e-320]
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
