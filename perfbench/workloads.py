"""The four degctrl workloads: configs, seeded inputs, pipeline calls and
output gates.

Every workload starts from ``configs/default.json``.  The workload seed
generates a fixed set of ``inputs`` inputs per workload, input ``index``
from the stream ``(seed, index)``: the verify seed and, for the workloads
with ``random_u0``, the initial datum u0, a random smooth profile from
``verify.random_profile``, zero at both boundaries and rescaled to the L2
norm of the default datum.  A run cycles over the whole set, so every run
of one seed times the same inputs however fast the code is; the same
(seed, index) always gives the same input.

nonlinear-control keeps the default datum.  On random profiles its work per
call is erratic (4 to 6 Newton steps and 6 to 18 s on free profiles, up to
9 steps on profiles within 10% of the default datum), which no regression
bound can absorb, and about a quarter of free profiles trip the
NewtonDivergence growth test while converging (see perfbench/README.md).
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
import os
from typing import Callable, Dict, List

import numpy as np

from degctrl import cli, config, verify
from degctrl.grid import integrate_space

DEFAULT_CONFIG = os.path.join("configs", "default.json")


@dataclasses.dataclass(frozen=True)
class OutputFile:
    sha256: str
    lines: int
    nonfinite: bool


def scan_csv(path: str) -> OutputFile:
    """Hash a CSV and count its lines and non-finite fields in one streaming
    pass, so a 13 MB trajectory never sits in memory at once."""
    digest = hashlib.sha256()
    lines = 0
    nonfinite = False
    tail = b""
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            digest.update(chunk)
            lines += chunk.count(b"\n")
            window = tail + chunk
            nonfinite = nonfinite or b"nan" in window or b"inf" in window
            tail = chunk[-2:]
    return OutputFile(digest.hexdigest(), lines, nonfinite)


def scan_outputs(out: str) -> Dict[str, OutputFile]:
    return {
        name: scan_csv(os.path.join(out, name))
        for name in sorted(os.listdir(out))
        if name.endswith(".csv")
    }


def _summary(out: str) -> dict:
    with open(os.path.join(out, "summary.json")) as fh:
        return json.load(fh)


def gate_control(cfg, out: str, files: Dict[str, OutputFile]) -> List[str]:
    """Control pipelines: success, with the (replay) terminal reduction
    within hum.tol_terminal."""
    s = _summary(out)
    norm = s.get("terminal_norm_replay", s.get("terminal_norm"))
    problems = []
    if s.get("success") is not True:
        problems.append("summary.success is not true")
    if norm is None or not norm / s["initial_norm"] <= cfg.schedule.tol_terminal:
        problems.append(f"terminal reduction {norm} / {s['initial_norm']} above tol_terminal")
    return problems


def gate_verify(cfg, out: str, files: Dict[str, OutputFile]) -> List[str]:
    """Verify: all checks pass, one row per check and ensemble member."""
    problems = []
    if _summary(out).get("all_pass") is not True:
        problems.append("summary.all_pass is not true")
    want = len(cfg.verify_checks) * cfg.verify_ensemble
    rows = files["verification.csv"].lines - 1
    if rows != want:
        problems.append(f"verification.csv has {rows} rows, expected {want}")
    return problems


def gate_forward(cfg, out: str, files: Dict[str, OutputFile]) -> List[str]:
    """Forward solve: a complete, finite trajectory."""
    traj = files["trajectory.csv"]
    want = (cfg.grid.nt + 1) * (cfg.grid.nx + 1) + 1
    problems = []
    if traj.lines != want:
        problems.append(f"trajectory.csv has {traj.lines} lines, expected {want}")
    if traj.nonfinite or not math.isfinite(_summary(out)["final_l2_norm"]):
        problems.append("trajectory is not finite")
    return problems


@dataclasses.dataclass(frozen=True)
class Workload:
    name: str
    command: str  # name of the cli.cmd_* entry the workload calls
    overrides: dict  # dotted config keys changed from configs/default.json
    tiny: dict  # overrides for the self-test and the warm-up call
    gate: Callable
    random_u0: bool  # replace the default datum by a seeded random profile
    inputs: int  # size of the input set a run cycles over


_TINY = {"discretization.nx": 16, "discretization.nt": 16, "verify.ensemble": 2}

WORKLOADS = {
    w.name: w
    for w in (
        Workload("linear-control", "cmd_null_control", {}, _TINY, gate_control, True, 8),
        Workload(
            "nonlinear-control",
            "cmd_null_control_nonlinear",
            {},
            _TINY,
            gate_control,
            False,
            1,
        ),
        Workload("verify-ensemble", "cmd_verify", {}, _TINY, gate_verify, False, 24),
        Workload(
            "forward-fine",
            "cmd_solve_forward",
            {"discretization.nx": 256, "discretization.nt": 1024},
            {"discretization.nx": 16, "discretization.nt": 64},
            gate_forward,
            True,
            6,
        ),
    )
}


def write_config(path: str, overrides: dict) -> None:
    """Write configs/default.json with dotted-key overrides applied."""
    with open(DEFAULT_CONFIG) as fh:
        raw = json.load(fh)
    for dotted, value in overrides.items():
        *parents, leaf = dotted.split(".")
        node = raw
        for key in parents:
            node = node[key]
        node[leaf] = value
    with open(path, "w") as fh:
        json.dump(raw, fh, indent=2, sort_keys=True)


def load_inputs(workload: Workload, path: str, seed: int, index: int):
    """Parse the workload config and install input ``index`` of the seed's
    input set."""
    assert 0 <= index < workload.inputs, index
    cfg = config.load_config(path)
    rng = np.random.default_rng([seed, index])
    cfg.verify_seed = int(rng.integers(2**31))
    if workload.random_u0:
        u0 = verify.random_profile(cfg.grid, rng)
        u0[0] = u0[-1] = 0.0
        u0 *= math.sqrt(
            integrate_space(cfg.problem.u0**2, cfg.grid) / integrate_space(u0**2, cfg.grid)
        )
        cfg.problem = dataclasses.replace(cfg.problem, u0=u0)
    return cfg


def call_pipeline(workload: Workload, cfg, out: str) -> int:
    """One pipeline call through its cli.cmd_* entry, looked up at call time
    so that a tracer installed on the cli module sees it."""
    return getattr(cli, workload.command)(cfg, out, True)
