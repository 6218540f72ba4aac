import json
import os
from types import SimpleNamespace

import numpy as np
import pytest

from degctrl import build_grid
from degctrl.cli import _write_trajectory, main, write_csv
from degctrl.config import parse_config
from degctrl.errors import ConfigError

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

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_non_finite_trajectory_is_solver_error(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, {"problem.u0.amplitude": 1e300})
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
