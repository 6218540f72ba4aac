"""The benchmark's tracer (perfbench/tracer.py) binds degctrl functions by
name and reads StageDiagnostics fields.  A renamed or deleted traced name
fails here, not only in the benchmark's traced run."""

import importlib
import importlib.util
import json
import os

from degctrl import cli
from degctrl.config import parse_config

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _load_tracer():
    path = os.path.join(ROOT, "perfbench", "tracer.py")
    spec = importlib.util.spec_from_file_location("perfbench_tracer", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _bindings(layers):
    """(module, name) -> the function bound there, for every traced name."""
    return {
        (layer, name): getattr(importlib.import_module(f"degctrl.{layer}"), name)
        for layer, names in layers.items()
        for name in names
    }


def test_traced_pipelines_record_spans_and_restore_bindings(tmp_path):
    tracer = _load_tracer()
    before = _bindings(tracer.LAYERS)  # raises AttributeError for a missing name
    with open(os.path.join(ROOT, "configs", "default.json")) as fh:
        raw = json.load(fh)
    raw["discretization"].update(nx=16, nt=16)
    raw["verify"]["ensemble"] = 1
    cfg = parse_config(raw)
    tr = tracer.Tracer()
    tr.install()
    try:
        for name, cmd in (("nl", cli.cmd_null_control_nonlinear), ("v", cli.cmd_verify)):
            out = tmp_path / name
            out.mkdir()
            assert cmd(cfg, str(out), True) in (0, 1)
    finally:
        tr.uninstall()
    assert _bindings(tracer.LAYERS) == before
    names = {span[0] for span in tr.spans}
    assert {"hum.solve_null_control", "verify.run_verifications"} <= names
    metrics = tracer.layer_metrics(tr.spans, tr.counts, cfg.grid.nt)
    assert metrics["newton.outer_iters"] > 0 and metrics["verify.rows"] == 6
    assert metrics["hum.cg_iters"] == 0  # read from StageDiagnostics.cg_iters
