"""Hash the outputs of every benchmark input, for byte-identity checks.

Runs every input of every workload in perfbench/workloads.py for the given
seeds, through the same cli entry and input set the benchmark uses, and
prints one sorted JSON document: per (workload, seed, input) the exit code
(or the exception that ended the call), the gate problems of a call that
exited 0, and the sha256 of each CSV it wrote.  Two checkouts write the
same document exactly when every output CSV and every exit code agree.
Run from the root of a checkout:

    python3 scripts/output_hashes.py --seeds 0 > before.json
    python3 scripts/output_hashes.py --seeds 0 --workload verify-ensemble

and compare two documents with ``diff``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "perfbench")]

import workloads  # noqa: E402


def run_input(wl, config_path: str, seed: int, index: int, out: str) -> dict:
    os.makedirs(out)
    cfg = workloads.load_inputs(wl, config_path, seed, index)
    try:
        code = workloads.call_pipeline(wl, cfg, out)
    except Exception as exc:  # the failure is part of the record
        code = f"{type(exc).__name__}: {exc}"
    files = workloads.scan_outputs(out)
    return {
        "exit": code,
        "problems": wl.gate(cfg, out, files) if code == 0 else [],
        "sha256": {name: f.sha256 for name, f in files.items()},
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", type=int, nargs="+", default=[0])
    ap.add_argument(
        "--workload",
        action="append",
        choices=sorted(workloads.WORKLOADS),
        help="workload to run (repeatable; default: all)",
    )
    args = ap.parse_args(argv)
    os.chdir(ROOT)  # workloads reads configs/default.json relative to the root
    doc = {}
    tmp = tempfile.mkdtemp(prefix="output_hashes-")
    try:
        for name in args.workload or sorted(workloads.WORKLOADS):
            wl = workloads.WORKLOADS[name]
            config_path = os.path.join(tmp, f"{name}.json")
            workloads.write_config(config_path, wl.overrides)
            for seed in args.seeds:
                for index in range(wl.inputs):
                    out = os.path.join(tmp, f"{name}-{seed}-{index}")
                    key = f"{name}/seed{seed}/{index}"
                    doc[key] = run_input(wl, config_path, seed, index, out)
                    shutil.rmtree(out)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    json.dump(doc, sys.stdout, indent=1, sort_keys=True)
    sys.stdout.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
