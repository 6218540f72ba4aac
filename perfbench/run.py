"""Benchmark for degctrl's batch pipelines.

Run from the root of a degctrl checkout:

    python3 perfbench/run.py --workload linear-control --seed 0 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 0 --seconds 20 --trace 0

One process runs one workload as a closed loop with a single client: each
pipeline call starts after the previous one has finished and been checked.
The calls cycle over the seed's fixed input set in whole cycles; a new cycle
starts only while it is expected to end within ``--seconds`` (at least
MIN_CALLS calls are made).  With ``--trace 0`` the run reports the
end-to-end metrics (``wall_ref``: call wall time in units of a reference
burst timed during the call, see ``Reference``, as the mean over the input
set of each input's median, see ``per_call``; ``setup_s``, see
``measure_setup``; ``peak_rss_mb``) and prints the raw medians ``wall_s``
and ``setup_raw_s``; with ``--trace 1`` it alternates traced
and untraced calls on the seed's first input and reports the per-layer
metrics.  The last line of standard output is one JSON object with keys
correct, attempted, failed and metrics; the names and units of the metrics
come from BENCHMARK.json.  Each run also
writes its calls, output hashes and environment to .perfbench_out/results.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
import traceback
from collections import defaultdict

OUT = ".perfbench_out"
MIN_CALLS = 2
SETUP_REPEATS = 4
SAMPLE_INTERVAL = 0.1
BURST_SOLVES = 100
# Pipelines are timed single-threaded so that runs on a shared machine do
# not depend on how many BLAS threads it happens to grant.
BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_SNIPPET = (
    "import sys, time\n"
    "t0 = time.perf_counter()\n"
    "sys.path.insert(0, sys.argv[1])\n"
    "import degctrl\n"
    "degctrl.load_config(sys.argv[2])\n"
    "print(repr(time.perf_counter() - t0))\n"
)
# The third-party modules degctrl imports, timed in a fresh interpreter next
# to each set-up sample.
REFERENCE_SNIPPET = (
    "import time\n"
    "t0 = time.perf_counter()\n"
    "import numpy, scipy.linalg, scipy.integrate\n"
    "print(repr(time.perf_counter() - t0))\n"
)
# Seconds REFERENCE_SNIPPET's imports take on the machine the benchmark was
# built on (2 vCPU Intel Xeon, Python 3.11.7, numpy 2.4.6, scipy 1.17.1);
# setup_s is expressed at that speed.
REFERENCE_IMPORT_S = 0.8


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, help="workload name, or 'all'")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument(
        "--tiny", action="store_true", help="run at a tiny grid (self-test only)"
    )
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be >= 0")
    return args


def environment(root: str) -> dict:
    import numpy
    import scipy

    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next(
                line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")
            )
    except (OSError, StopIteration):
        pass
    commit = "unknown"  # an exported checkout has no .git
    if os.path.exists(os.path.join(root, ".git")):
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True, timeout=10
            ).stdout.strip() or commit
        except (OSError, subprocess.SubprocessError):
            pass
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": {v: os.environ.get(v) for v in BLAS_THREAD_VARS},
        "commit": commit,
    }


def _fresh(snippet: str, *argv: str) -> float:
    """Run ``snippet`` in a fresh interpreter; return the seconds it prints."""
    done = subprocess.run(
        [sys.executable, "-c", snippet, *argv],
        capture_output=True,
        text=True,
        timeout=120,
        check=True,
    )
    return float(done.stdout.strip().splitlines()[-1])


def measure_setup(src: str, config_path: str) -> dict:
    """Time to import degctrl and load the workload config in a fresh
    interpreter.

    Each sample is paired with a fresh interpreter that imports only the
    third-party modules degctrl imports.  Raw import times drift by up to 60%
    over minutes on a shared machine, and the pair drifts together, so
    ``setup_s`` is the median ratio of the pairs times REFERENCE_IMPORT_S:
    the set-up time in seconds at the speed of the machine the benchmark was
    built on.  ``setup_raw_s`` is the raw median.
    """
    raw, ref = [], []
    for _ in range(SETUP_REPEATS):
        raw.append(_fresh(SETUP_SNIPPET, src, config_path))
        ref.append(_fresh(REFERENCE_SNIPPET))
    return {
        "setup_s": REFERENCE_IMPORT_S * statistics.median(a / b for a, b in zip(raw, ref)),
        "setup_raw_s": statistics.median(raw),
        "setup_samples": {"setup": raw, "reference": ref},
    }


class Reference:
    """The machine's current speed, sampled while each pipeline call runs.

    On a shared machine the same computation drifts by up to +-25% over
    minutes.  A timer interrupts each call every SAMPLE_INTERVAL seconds and
    times a short burst of scipy banded solves (the operation degctrl's
    solvers are built from, in code no degctrl change can touch); one burst
    also runs just before and just after the call.  ``wall_ref`` is the
    call's wall time, less the bursts, over the mean burst time, so the
    drift cancels.  ``clock`` is a timer that stops during bursts, so that
    tracer spans exclude them too.
    """

    def __init__(self):
        import numpy as np

        self._ab = np.ones((3, 63))
        self._ab[1] = 4.0
        self._b = np.linspace(-1.0, 1.0, 63)
        self._bursts = []
        self._spent = 0.0

    def clock(self) -> float:
        return time.perf_counter() - self._spent

    def _burst(self, *_) -> None:
        from scipy.linalg import solve_banded

        t0 = time.perf_counter()
        for _ in range(BURST_SOLVES):
            solve_banded((1, 1), self._ab, self._b)
        elapsed = time.perf_counter() - t0
        self._bursts.append(elapsed)
        self._spent += elapsed

    def time_call(self, fn):
        """Run ``fn()``; return (its result, wall seconds, wall_ref)."""
        self._bursts = []
        self._burst()
        previous = signal.signal(signal.SIGALRM, self._burst)
        t0 = self.clock()
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_INTERVAL, SAMPLE_INTERVAL)
        try:
            result = fn()
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            wall = self.clock() - t0
            signal.signal(signal.SIGALRM, previous)
            self._burst()
        return result, wall, wall / statistics.fmean(self._bursts)


def _clear(out: str) -> None:
    shutil.rmtree(out, ignore_errors=True)
    os.makedirs(out)


def one_call(wl, config_path: str, seed: int, index: int, out: str, reference: Reference) -> dict:
    """Load the config, install input ``index`` of the seed's set, run the
    pipeline and check its outputs.  Only the pipeline call is timed."""
    import workloads

    _clear(out)
    cfg = workloads.load_inputs(wl, config_path, seed, index)

    def attempt():
        try:
            code = workloads.call_pipeline(wl, cfg, out)
        except Exception as exc:  # a failed call is counted, the loop goes on
            traceback.print_exc(file=sys.stderr)
            return f"{type(exc).__name__}: {exc}"
        return None if code == 0 else f"exit code {code}"

    error, wall, wall_ref = reference.time_call(attempt)
    files = workloads.scan_outputs(out)
    problems = []
    if error is None:
        try:
            problems = wl.gate(cfg, out, files)
        except (OSError, KeyError, ValueError) as exc:
            problems = [f"outputs missing or unreadable: {exc!r}"]
    return {
        "index": index,
        "nt": cfg.grid.nt,
        "wall_s": wall,
        "wall_ref": wall_ref,
        "error": error,
        "problems": problems,
        "sha256": {name: f.sha256 for name, f in files.items()},
    }


def _print_call(kind: str, call: dict) -> None:
    status = call["error"] or ("; ".join(call["problems"]) or "ok")
    hashes = " ".join(f"{n}={h[:16]}" for n, h in call["sha256"].items())
    print(f"call {kind} input={call['index']} wall_s={call['wall_s']:.4f} "
          f"wall_ref={call['wall_ref']:.2f} {status} {hashes}")


def per_call(calls: list, key: str) -> float:
    """The mean over the input set of each input's median call.

    The inputs of a set differ in cost (CG iterations vary with u0), so the
    mean over the set, not the median over calls, is what follows the cost
    of the whole set; each input's median over the cycles drops a disturbed
    call.
    """
    by_input = defaultdict(list)
    for c in calls:
        by_input[c["index"]].append(c[key])
    return statistics.fmean(statistics.median(v) for v in by_input.values())


def run_untraced(wl, config_path, args, src, reference) -> tuple:
    """Whole cycles over the seed's input set, so that every run of a seed
    times the same inputs with the same weights."""
    calls = []
    t0 = time.perf_counter()
    while True:
        index = len(calls) % wl.inputs
        call = one_call(wl, config_path, args.seed, index, os.path.join(OUT, wl.name), reference)
        _print_call("untraced", call)
        calls.append(call)
        if index < wl.inputs - 1:
            continue
        cycles = len(calls) // wl.inputs
        elapsed = time.perf_counter() - t0
        if len(calls) >= MIN_CALLS and elapsed * (cycles + 1) / cycles > args.seconds:
            break
    setup = measure_setup(src, config_path)
    metrics = {
        "wall_s": per_call(calls, "wall_s"),
        "wall_ref": per_call(calls, "wall_ref"),
        "setup_s": setup.pop("setup_s"),
        "setup_raw_s": setup.pop("setup_raw_s"),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    return calls, metrics, setup


def run_traced(wl, config_path, args, src, reference) -> tuple:
    """Alternate traced and untraced calls on input 0; per-layer metrics are
    per call, times the median over traced calls, counts checked to repeat."""
    import tracer as tracing

    tracer = tracing.Tracer(reference.clock)
    out = os.path.join(OUT, wl.name)
    traced, untraced, per_call, spans = [], [], [], []
    t_end = time.perf_counter() + args.seconds
    while len(traced) < 2 or not untraced or time.perf_counter() < t_end:
        if len(traced) <= len(untraced):
            tracer.reset(len(traced))
            tracer.install()
            try:
                call = one_call(wl, config_path, args.seed, 0, out, reference)
            finally:
                tracer.uninstall()
            per_call.append(tracing.layer_metrics(tracer.spans, tracer.counts, call["nt"]))
            spans = tracer.spans
            traced.append(call)
            _print_call("traced", call)
        else:
            call = one_call(wl, config_path, args.seed, 0, out, reference)
            untraced.append(call)
            _print_call("untraced", call)

    counts = [tracing.counts_of(m) for m in per_call]
    repeat = all(c == counts[0] for c in counts)
    metrics = {
        k: statistics.median(m[k] for m in per_call) if isinstance(v, float) else v
        for k, v in per_call[0].items()
    }
    metrics["trace.overhead_frac"] = (
        statistics.median(c["wall_ref"] for c in traced)
        / statistics.median(c["wall_ref"] for c in untraced)
        - 1.0
    )
    extra = {"counts_repeat": repeat, "spans": spans}
    return traced + untraced, metrics, extra


def run_workload(args, root: str) -> int:
    import workloads

    wl = workloads.WORKLOADS[args.workload]
    with open(os.path.join(root, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    wanted = spec["per_layer" if args.trace else "end_to_end"]
    os.makedirs(os.path.join(OUT, "results"), exist_ok=True)
    config_path = os.path.join(OUT, f"{wl.name}.json")
    workloads.write_config(config_path, {**wl.overrides, **(wl.tiny if args.tiny else {})})

    # Warm-up at a tiny grid: fills lazy imports and caches on the same code path.
    reference = Reference()
    warm = os.path.join(OUT, f"{wl.name}-warmup.json")
    workloads.write_config(warm, wl.tiny)
    one_call(wl, warm, args.seed, 0, os.path.join(OUT, f"{wl.name}-warmup"), reference)

    env = environment(root)
    print("env " + json.dumps(env, sort_keys=True))
    run = run_traced if args.trace else run_untraced
    calls, measured, extra = run(wl, config_path, args, os.path.join(root, "src"), reference)

    failed = sum(1 for c in calls if c["error"] or c["problems"])
    # A call that exits 0 with outputs that miss the gate is a wrong answer;
    # a call that reports its own failure (non-zero exit) only counts as failed.
    correct = not any(c["problems"] for c in calls) and extra.get("counts_repeat", True)
    first = {}
    drift = sorted({
        name
        for c in calls
        for name, h in c["sha256"].items()
        if first.setdefault((c["index"], name), h) != h
    })
    metrics = {m["name"]: {"value": measured[m["name"]], "unit": m["unit"]} for m in wanted}

    print(f"workload {wl.name} seed {args.seed} trace {args.trace}: "
          f"{len(calls)} calls, fail_rate {failed / len(calls):.4f} ({failed}/{len(calls)})")
    if drift:
        print(f"output drift on repeated inputs: {drift}")
    if not extra.get("counts_repeat", True):
        print("per-layer counts differ between repeats of one input")
    if not args.trace:
        print(f"  wall_s = {measured['wall_s']:.6g} s ({len(calls)} calls, {wl.inputs} inputs)")
        print(f"  setup_raw_s = {measured['setup_raw_s']:.6g} s")
    for name, m in metrics.items():
        print(f"  {name} = {m['value']:.6g} {m['unit']}")

    record = {
        "workload": wl.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "tiny": args.tiny,
        "env": env,
        "calls": calls,
        "fail_rate": failed / len(calls),
        "wall_s": measured.get("wall_s"),
        "setup_raw_s": measured.get("setup_raw_s"),
        "metrics": metrics,
        **{k: v for k, v in extra.items() if k != "spans"},
    }
    stem = os.path.join(OUT, "results", f"{wl.name}-seed{args.seed}-trace{args.trace}")
    with open(stem + ".json", "w") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)
    if extra.get("spans"):
        with open(stem + "-spans.jsonl", "w") as fh:
            for name, start, end, parent, call in extra["spans"]:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "call": call}) + "\n")
    print(json.dumps({"correct": bool(correct), "attempted": len(calls),
                      "failed": failed, "metrics": metrics}))
    return 0


def run_all(args) -> int:
    """Every workload, each in its own process, as a table."""
    import workloads

    rows, worst = [], 0
    for name in workloads.WORKLOADS:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)] + (["--tiny"] if args.tiny else [])
        done = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
        if done.returncode != 0:
            sys.stderr.write(done.stderr)
            worst = max(worst, done.returncode)
            continue
        result = json.loads(done.stdout.strip().splitlines()[-1])
        rows.append((name, result))
    for name, r in rows:
        fail_rate = r["failed"] / r["attempted"]
        cells = "  ".join(f"{k}={v['value']:.4g} {v['unit']}" for k, v in r["metrics"].items())
        stem = os.path.join(OUT, "results", f"{name}-seed{args.seed}-trace{args.trace}.json")
        with open(stem) as fh:
            wall = json.load(fh)["wall_s"]
        raw = "" if wall is None else f"wall_s={wall:.4g} s  "
        print(f"{name:18s} n={r['attempted']:<3d} correct={r['correct']} "
              f"fail_rate={fail_rate:.3f}  {raw}{cells}")
    return worst


def main(argv=None) -> int:
    args = parse_args(argv)
    root = os.getcwd()
    src = os.path.join(root, "src")
    needed = [os.path.join(src, "degctrl", "__init__.py"),
              os.path.join("configs", "default.json"), "BENCHMARK.json"]
    missing = [p for p in needed if not os.path.isfile(p)]
    if missing:
        print(f"perfbench: run from the root of a degctrl checkout; missing {missing}",
              file=sys.stderr)
        return 2
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"
    sys.path.insert(0, src)
    import workloads

    if args.workload == "all":
        return run_all(args)
    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"choose from {sorted(workloads.WORKLOADS)} or 'all'", file=sys.stderr)
        return 2
    return run_workload(args, root)


if __name__ == "__main__":
    sys.exit(main())
