"""Self-test of the benchmark at a tiny grid.

Run from the root of a degctrl checkout:

    python3 perfbench/selftest.py

For every workload it runs one untraced and one traced benchmark process
with ``--tiny --seconds 0`` (so exactly the minimum number of calls) and
asserts that the last output line has the contract's keys, that every
metric BENCHMARK.json names for that mode is emitted with its unit and a
finite value, and that no call failed.  It then traces one null-control
call at the default config and datum and checks the solver counts the
tracer reads (284 CG iterations, 57 of them in accepted stages), and checks
that the benchmark refuses to run, without printing a result, in a
directory that holds only BENCHMARK.json and the benchmark's own files.
"""

from __future__ import annotations

import json
import math
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
RUN = os.path.join(HERE, "run.py")


def _run(cwd: str, workload: str, trace: int, tiny: bool = True):
    cmd = [sys.executable, RUN, "--workload", workload, "--seed", "0",
           "--seconds", "0", "--trace", str(trace)] + (["--tiny"] if tiny else [])
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=300)


def check_workload(spec: dict, workload: str, trace: int) -> None:
    done = _run(os.getcwd(), workload, trace)
    assert done.returncode == 0, f"{workload} trace={trace} exited {done.returncode}:\n{done.stderr}"
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, result.keys()
    assert result["correct"] is True, result
    assert result["attempted"] >= 1 and result["failed"] == 0, result
    wanted = spec["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in wanted}, sorted(result["metrics"])
    for m in wanted:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"], (m["name"], got)
        assert isinstance(got["value"], (int, float)) and math.isfinite(got["value"]), (m["name"], got)
    print(f"ok {workload} trace={trace}: {result['attempted']} calls, "
          f"{len(result['metrics'])} metrics")


def check_default_trace() -> None:
    """Counts of one traced null-control call at configs/default.json."""
    sys.path[:0] = [os.path.join(os.getcwd(), "src"), HERE]
    from degctrl import cli, config
    import tracer as tracing

    out = os.path.join(".perfbench_out", "selftest-default")
    shutil.rmtree(out, ignore_errors=True)
    os.makedirs(out)
    cfg = config.load_config(os.path.join("configs", "default.json"))
    tracer = tracing.Tracer()
    tracer.install()
    try:
        code = cli.cmd_null_control(cfg, out, True)
    finally:
        tracer.uninstall()
    shutil.rmtree(out)
    m = tracing.layer_metrics(tracer.spans, tracer.counts, cfg.grid.nt)
    assert code == 0, code
    assert m["hum.cg_iters"] == 284 and m["hum.cg_iters_accepted"] == 57, (
        m["hum.cg_iters"], m["hum.cg_iters_accepted"])
    assert m["pde.forward_solve_linear.calls"] == 312, m["pde.forward_solve_linear.calls"]
    assert m["pde.adjoint_solve.calls"] == 298, m["pde.adjoint_solve.calls"]
    print(f"ok default trace: {m['hum.cg_iters']} CG iterations, "
          f"{m['hum.cg_iters_accepted']} accepted")


def check_bare_directory() -> None:
    bare = os.path.join(".perfbench_out", "selftest-bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy("BENCHMARK.json", bare)
    shutil.copytree(HERE, os.path.join(bare, os.path.basename(HERE)),
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = _run(bare, "linear-control", 0, tiny=False)
    assert done.returncode != 0, "benchmark ran without the degctrl sources"
    assert '"correct"' not in done.stdout, done.stdout
    shutil.rmtree(bare)
    print(f"ok bare directory: exit code {done.returncode}, no result")


def main() -> int:
    with open("BENCHMARK.json") as fh:
        spec = json.load(fh)
    for w in spec["workloads"]:
        for trace in (0, 1):
            check_workload(spec, w["name"], trace)
    check_default_trace()
    check_bare_directory()
    return 0


if __name__ == "__main__":
    sys.exit(main())
