"""The benchmark's seed-0 inputs (perfbench/workloads.py) through their
pipelines and output gates.  The benchmark compares the share of failed
calls between two checkouts, so a change that makes one more input fail
fails here first.  forward-fine's 256 x 1024 inputs are left out for time."""

import importlib.util
import os
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# (workload, input) -> exit code, for the inputs that are known not to exit 0.
# verify-ensemble input 22 draws a carleman_phi ratio above its golden cap.
KNOWN_FAILURES = {("verify-ensemble", 22): 1}


def _load_workloads(monkeypatch):
    path = os.path.join(ROOT, "perfbench", "workloads.py")
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    # dataclasses looks its module up in sys.modules
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("name", ["linear-control", "nonlinear-control", "verify-ensemble"])
def test_seed0_inputs_pass_their_gates(tmp_path, monkeypatch, name):
    workloads = _load_workloads(monkeypatch)
    monkeypatch.chdir(ROOT)  # workloads reads configs/default.json from the root
    wl = workloads.WORKLOADS[name]
    config_path = str(tmp_path / "config.json")
    workloads.write_config(config_path, wl.overrides)
    outcomes = {}
    for index in range(wl.inputs):
        out = tmp_path / str(index)
        out.mkdir()
        cfg = workloads.load_inputs(wl, config_path, 0, index)
        code = workloads.call_pipeline(wl, cfg, str(out))
        problems = wl.gate(cfg, str(out), workloads.scan_outputs(str(out))) if code == 0 else []
        outcomes[index] = (code, problems)
    want = {i: (KNOWN_FAILURES.get((name, i), 0), []) for i in range(wl.inputs)}
    assert outcomes == want
    if name == "verify-ensemble":
        rows = (tmp_path / "22" / "verification.csv").read_text().splitlines()[1:]
        failed = {row.split(",")[0] for row in rows if row.split(",")[-1] != "true"}
        assert failed == {"carleman_phi_weights"}
