"""Command-line interface: batch experiment runner over JSON configs.

Subcommands
    solve-forward            integrate the nonlinear state equation
    null-control             linear null-control synthesis (penalty continuation)
    null-control-nonlinear   fixed-point loop for the semilinear/nonlocal problem
    verify                   weighted-inequality checks against golden caps
    sweep                    repeat a base pipeline along one config axis

Exit codes: 0 success, 1 assertion failure (a produced quantity missed its
target), 2 configuration error (an output file that cannot be opened or
written included), 3 solver divergence or a singular step matrix.
"""

from __future__ import annotations

import argparse
import contextlib
import copy
import dataclasses
import json
import math
import os
import shutil
import signal
import sys
import time
from concurrent.futures import ProcessPoolExecutor

import numpy as np
from numpy.linalg import LinAlgError

from .config import ExperimentConfig, load_config, parse_config
from .errors import (
    AdmissibilityFail,
    ConfigError,
    NewtonDivergence,
    NonFiniteTrajectory,
    PicardDivergence,
    ZeroDenominator,
)
from .grid import l2_norm, window_mask
from .hum import LinearControlProblem, solve_null_control
from .newton import local_null_control
from .pde import assemble_degenerate_operator, forward_solve_nonlinear
from .verify import run_verifications

EXIT_OK = 0
EXIT_ASSERTION = 1
EXIT_CONFIG = 2
EXIT_SOLVER = 3


def _fmt(v) -> str:
    """Shortest round-trip decimal form, for byte-stable CSV output."""
    if isinstance(v, (bool, np.bool_)):
        return "true" if v else "false"
    if isinstance(v, (float, np.floating)):
        return repr(float(v))
    return str(v)


@contextlib.contextmanager
def _open_out(path: str):
    """path opened for writing; an OSError while opening, writing or closing
    it is a ConfigError naming the path."""
    try:
        with open(path, "w", newline="\n") as fh:
            yield fh
    except OSError as exc:
        raise ConfigError(path, f"cannot write the output file: {exc.strerror or exc}") from exc


def write_csv(path: str, header, rows) -> None:
    with _open_out(path) as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(_fmt(v) for v in row) + "\n")


def _make_out_dir(out: str) -> None:
    try:
        os.makedirs(out, exist_ok=True)
    except OSError as exc:
        raise ConfigError(out, f"cannot make the output directory: {exc.strerror}") from exc


def _resolve_out(cfg: ExperimentConfig, arg_out) -> str:
    out = arg_out or cfg.out_dir or os.environ.get("DNC_OUT_DIR") or "out"
    _make_out_dir(out)
    return out


def _write_summary(out: str, cfg: ExperimentConfig, command: str, payload: dict) -> None:
    doc = {"command": command, "config": cfg.raw, **payload}
    with _open_out(os.path.join(out, "summary.json")) as fh:
        json.dump(doc, fh, indent=2, sort_keys=True, default=str)
        fh.write("\n")


def _control_problem(cfg: ExperimentConfig) -> LinearControlProblem:
    if not window_mask(cfg.grid, cfg.problem.omega).any():
        raise ConfigError("problem.omega", f"holds no node of the grid at nx = {cfg.grid.nx}")
    op = assemble_degenerate_operator(cfg.problem.a, cfg.grid)
    return LinearControlProblem(grid=cfg.grid, op=op, c=cfg.c, omega=cfg.problem.omega)


# Trajectories of at least this many values are written by two processes, a
# forked helper formatting the second half of the rows.  Measured on a 2-vCPU
# Xeon (Python 3.11.7, one BLAS thread, a process of about 130 MB, minimum of
# 7), serial -> split write: 9.7 -> 10.6 ms at 12,513 values, 12.6 -> 12.3 ms
# at 16,641 (128², the break-even), 47.5 -> 33.2 ms at 66,049, 93.5 -> 60.9 ms
# at 131,841 and 190 -> 116 ms at 263,425 (256 x 1024).  One fork + _exit +
# waitpid takes 4.1-6.2 ms (median 4.5), the repr time of about 8k values;
# it grows with the process's size.  The threshold is 8x the break-even, so
# the split still pays for a larger process or a busier second CPU, and the
# 64² state and control files (4,225 values) stay on the serial path.
_SPLIT_MIN_VALUES = 1 << 17


def _format_levels(level: str, t, u):
    """The text of the time levels (t[j], u[j]), one `level % args` each."""
    n = u.shape[1]
    args = [None] * (2 * n)
    for tj, row in zip(t, u):
        args[::2] = [repr(tj) + ","] * n
        args[1::2] = row.tolist()
        yield level % tuple(args)


def _split_row(u: np.ndarray) -> int:
    """First row a helper process formats: the middle row of a large
    trajectory when this process may run on two CPUs, else len(u), no row."""
    if (
        u.size < _SPLIT_MIN_VALUES
        or not hasattr(os, "fork")
        or not hasattr(os, "sched_getaffinity")
        or len(os.sched_getaffinity(0)) < 2
    ):
        return len(u)
    return len(u) // 2


def _fork_helper(level: str, t, u: np.ndarray, encoding: str):
    """(pid, read end of its pipe) of a forked helper that writes the encoded
    text of the levels (t, u) to the pipe and exits; None where no process
    can be started.

    The helper runs no BLAS, takes no lock and does no I/O but its pipe, so
    forking a process that has BLAS threads is safe.  It ends in os._exit,
    so it flushes no inherited buffer and runs no atexit handler."""
    try:
        r, w = os.pipe()
        try:
            pid = os.fork()
        except OSError:
            os.close(r)
            os.close(w)
            raise
    except OSError:
        return None
    if pid == 0:
        code = 1
        try:
            os.close(r)
            view = memoryview("".join(_format_levels(level, t, u)).encode(encoding))
            while view:
                view = view[os.write(w, view):]
            code = 0
        finally:
            os._exit(code)
    os.close(w)
    return pid, r


@contextlib.contextmanager
def _helper(path: str, level: str, t, u: np.ndarray, encoding: str):
    """The pipe of a helper formatting the levels (t, u), or None where
    there is no level or no helper.  An exception in the body kills the
    helper; it is reaped on every exit, and one that failed is a
    ConfigError for path."""
    started = _fork_helper(level, t, u, encoding) if len(u) else None
    if started is None:
        yield None
        return
    pid, r = started
    try:
        with os.fdopen(r, "rb") as pipe:
            yield pipe
    except BaseException:
        os.kill(pid, signal.SIGKILL)
        raise
    finally:
        code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
    if code:
        how = f"exited with code {code}" if code > 0 else f"was killed by signal {-code}"
        raise ConfigError(path, f"cannot write the output file: its helper process {how}")


def _write_trajectory(out: str, name: str, u: np.ndarray, cfg: ExperimentConfig) -> None:
    """Rows t,x,u in write_csv's format, one "%s<x>,%r\\n" template per grid
    filled by one % per time level.  This process streams rows :k into the
    file one level at a time.  On a large trajectory (see _split_row) a
    forked helper formats rows k: meanwhile, and this process appends its
    bytes from a pipe; the split changes no byte of the file."""
    path = os.path.join(out, name)
    xs = cfg.grid.x.tolist()
    level = "".join([f"%s{x!r},%r\n" for x in xs])
    t = cfg.grid.t.tolist()
    k = _split_row(u)
    with _open_out(path) as fh, _helper(path, level, t[k:], u[k:], fh.encoding) as pipe:
        k = len(u) if pipe is None else k
        fh.write("t,x,u\n")
        fh.writelines(_format_levels(level, t[:k], u[:k]))
        if pipe is not None:
            fh.flush()
            shutil.copyfileobj(pipe, fh.buffer, 1 << 16)


def cmd_solve_forward(cfg: ExperimentConfig, out: str, quiet: bool) -> int:
    """Nonlinear forward solve; writes trajectory.csv through
    _write_trajectory (two processes on a large grid) and summary.json."""
    grid = cfg.grid
    op = assemble_degenerate_operator(cfg.problem.a, grid)
    t0 = time.perf_counter()
    u = forward_solve_nonlinear(cfg.problem, None, grid, op)
    wall = time.perf_counter() - t0
    _write_trajectory(out, "trajectory.csv", u, cfg)
    final = l2_norm(u[-1], grid)
    _write_summary(
        out, cfg, "solve-forward",
        {"final_l2_norm": final, "wall_seconds": wall},
    )
    if not quiet:
        print(f"solve-forward: |u(T)|_L2 = {final:.6e}  ({wall:.2f}s)")
    return EXIT_OK


def _split_log(log: float):
    """(mantissa, log scale) of exp(log): (exp(log), 0.0) while that is a
    finite float, else (1.0, log)."""
    return (math.exp(log), 0.0) if log < 709.0 else (1.0, log)


def _stage_rows(stages):
    return [
        (
            st.n,
            st.cg_iters,
            *_split_log(st.Jn_log),
            st.terminal_norm,
            st.ctrl_weighted_norm_log,
            st.state_weighted_norm_log,
        )
        for st in stages
    ]


_STAGE_HEADER = [
    "n",
    "cg_iters",
    "Jn_mantissa",
    "Jn_logscale",
    "terminal_norm",
    "ctrl_weighted_norm_log",
    "state_weighted_norm_log",
]


def cmd_null_control(cfg: ExperimentConfig, out: str, quiet: bool) -> int:
    """Linear null control; writes stages.csv, state.csv and control.csv
    (through _write_trajectory) and summary.json."""
    prob = _control_problem(cfg)
    t0 = time.perf_counter()
    res = solve_null_control(None, cfg.problem.u0, cfg.schedule, prob)
    wall = time.perf_counter() - t0
    write_csv(os.path.join(out, "stages.csv"), _STAGE_HEADER, _stage_rows(res.stages))
    _write_trajectory(out, "state.csv", res.u, cfg)
    _write_trajectory(out, "control.csv", res.h, cfg)
    u0_norm = l2_norm(cfg.problem.u0, cfg.grid)
    reduction = res.terminal_norm / max(u0_norm, 1e-300)  # as in hum's success test
    _write_summary(
        out, cfg, "null-control",
        {
            "terminal_norm": res.terminal_norm,
            "initial_norm": u0_norm,
            "reduction": reduction,
            "stages_run": len(res.stages),
            "success": res.success,
            "wall_seconds": wall,
        },
    )
    if not quiet:
        print(
            f"null-control: |u(T)| = {res.terminal_norm:.4e} "
            f"(reduction {reduction:.3e}, {wall:.2f}s)"
        )
    return EXIT_OK if res.success else EXIT_ASSERTION


def cmd_null_control_nonlinear(cfg: ExperimentConfig, out: str, quiet: bool) -> int:
    """Newton loop for the nonlocal problem; writes newton.csv, state.csv and
    control.csv (through _write_trajectory) and summary.json."""
    prob = _control_problem(cfg)
    t0 = time.perf_counter()
    h, u_nl, history, converged = local_null_control(
        cfg.problem, prob, cfg.schedule, cfg.newton_tol, cfg.newton_maxit
    )
    wall = time.perf_counter() - t0
    rows = [
        (
            st.k,
            st.residual_log,
            st.terminal_norm_linear,
            "" if st.terminal_norm_nonlinear is None else st.terminal_norm_nonlinear,
        )
        for st in history
    ]
    write_csv(
        os.path.join(out, "newton.csv"),
        ["k", "residual_log", "terminal_norm_linear", "terminal_norm_nonlinear_replay"],
        rows,
    )
    _write_trajectory(out, "state.csv", u_nl, cfg)
    _write_trajectory(out, "control.csv", h, cfg)
    u0_norm = l2_norm(cfg.problem.u0, cfg.grid)
    replay = history[-1].terminal_norm_nonlinear
    ok = converged and replay is not None and replay <= cfg.schedule.tol_terminal * u0_norm
    _write_summary(
        out, cfg, "null-control-nonlinear",
        {
            "newton_iterations": len(history),
            "converged": converged,
            "terminal_norm_replay": replay,
            "initial_norm": u0_norm,
            "success": ok,
            "wall_seconds": wall,
        },
    )
    if not quiet:
        print(
            f"null-control-nonlinear: {len(history)} outer iterations, "
            f"replay |u(T)| = {replay:.4e} ({wall:.2f}s)"
        )
    return EXIT_OK if ok else EXIT_ASSERTION


def cmd_verify(cfg: ExperimentConfig, out: str, quiet: bool) -> int:
    """Verification checks; writes verification.csv and summary.json, and
    no trajectory."""
    t0 = time.perf_counter()
    rows, all_pass = run_verifications(cfg)
    wall = time.perf_counter() - t0
    # echo the seed the rows carry, also where a caller set cfg.verify_seed alone
    cfg = dataclasses.replace(cfg, raw=_set_path(cfg.raw, "verify.seed", cfg.verify_seed))
    write_csv(
        os.path.join(out, "verification.csv"),
        ["check_name", "s", "lambda", "n", "seed", "lhs_log", "rhs_log", "ratio", "pass"],
        rows,
    )
    _write_summary(
        out, cfg, "verify",
        {"checks": cfg.verify_checks, "all_pass": bool(all_pass), "wall_seconds": wall},
    )
    if not quiet:
        print(f"verify: {len(rows)} rows, all_pass={all_pass} ({wall:.2f}s)")
    return EXIT_OK if all_pass else EXIT_ASSERTION


_SWEEP_BASES = {
    "solve-forward": cmd_solve_forward,
    "null-control": cmd_null_control,
    "null-control-nonlinear": cmd_null_control_nonlinear,
    "verify": cmd_verify,
}


def _set_path(raw: dict, dotted: str, value) -> dict:
    doc = copy.deepcopy(raw)
    node = doc
    parts = dotted.split(".")
    for p in parts[:-1]:
        node = node.setdefault(p, {})
        if not isinstance(node, dict):
            raise ConfigError(dotted, "axis path traverses a non-object")
    node[parts[-1]] = value
    return doc


def _sweep_one(args):
    raw, base, value, out, quiet = args
    cfg = parse_config(raw)
    _make_out_dir(out)
    code = _SWEEP_BASES[base](cfg, out, quiet)
    with open(os.path.join(out, "summary.json")) as fh:
        summary = json.load(fh)
    return value, code, summary


def cmd_sweep(cfg: ExperimentConfig, out: str, quiet: bool, args) -> int:
    """One run of a base pipeline per value of --axis, on at most --jobs
    (at least 1) worker processes; writes sweep.csv and summary.json."""
    if args.jobs < 1:
        raise ConfigError("--jobs", f"must be at least 1, got {args.jobs}")
    if not args.axis:
        raise ConfigError("sweep.axis", "missing --axis")
    values = [v for v in (args.values or "").split(",") if v.strip()]
    if not values:
        raise ConfigError("sweep.values", "empty --values list")
    base = args.base
    parsed = []
    for v in values:
        try:
            parsed.append(json.loads(v))
        except json.JSONDecodeError:
            parsed.append(v)
    tasks = []
    for v in parsed:
        sub = os.path.join(out, f"{args.axis.replace('.', '_')}={v}")
        raw = _set_path(cfg.raw, args.axis, v)
        parse_config(raw)  # a config error exits before any run directory exists
        tasks.append((raw, base, v, sub, True))
    workers = min(args.jobs, len(tasks))  # a forked pool starts all its workers at once
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as ex:
            results = list(ex.map(_sweep_one, tasks))
    else:
        results = [_sweep_one(t) for t in tasks]
    rows = []
    worst = EXIT_OK
    for value, code, summary in results:
        worst = max(worst, code)
        metric = summary.get("terminal_norm_replay", summary.get("terminal_norm"))
        if metric is None:
            metric = summary.get("final_l2_norm", summary.get("all_pass", ""))
        rows.append((args.axis, value, code, metric, summary.get("wall_seconds", "")))
    write_csv(
        os.path.join(out, "sweep.csv"),
        ["axis", "value", "exit_code", "metric", "wall_seconds"],
        rows,
    )
    _write_summary(out, cfg, "sweep", {"axis": args.axis, "values": parsed, "base": base})
    if not quiet:
        print(f"sweep over {args.axis}: {len(rows)} runs, worst exit code {worst}")
    return worst


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="degctrl",
        description="Null-control synthesis and weighted-inequality checks for "
        "degenerate nonlocal parabolic problems.",
    )
    sub = ap.add_subparsers(dest="command", required=True)
    for name in (*_SWEEP_BASES, "sweep"):
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="path to JSON config")
        p.add_argument("--out", default=None, help="output directory")
        p.add_argument("--seed", type=int, default=None, help="override verify seed")
        p.add_argument("--jobs", type=int, default=1, help="parallel workers (sweep)")
        p.add_argument("--quiet", action="store_true", help="suppress progress output")
        if name == "sweep":
            p.add_argument("--axis", default=None, help="dotted config key to vary")
            p.add_argument("--values", default=None, help="comma-separated values")
            p.add_argument(
                "--base",
                default="null-control",
                choices=sorted(_SWEEP_BASES),
                help="pipeline to run per value",
            )
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = load_config(args.config)
        if args.seed is not None:
            # through the raw config, so summary.json and sweep runs see it too
            cfg = parse_config(_set_path(cfg.raw, "verify.seed", args.seed))
        out = _resolve_out(cfg, args.out)
        if args.command == "sweep":
            return cmd_sweep(cfg, out, args.quiet, args)
        return _SWEEP_BASES[args.command](cfg, out, args.quiet)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (PicardDivergence, NewtonDivergence, NonFiniteTrajectory, LinAlgError) as exc:
        print(f"solver error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_SOLVER
    except (AdmissibilityFail, ZeroDenominator) as exc:
        print(f"verification error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_ASSERTION


if __name__ == "__main__":
    sys.exit(main())
