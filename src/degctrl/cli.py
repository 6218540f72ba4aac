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
import stat
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
    it is a ConfigError naming the path.  Any exception once the file is
    open removes it where path names a regular file, so no partial output is
    left under its final name; a symlink or a device is left alone."""
    opened = False
    try:
        with open(path, "w", newline="\n") as fh:
            opened = True
            yield fh
    except BaseException as exc:
        if opened:
            with contextlib.suppress(OSError):
                if stat.S_ISREG(os.lstat(path).st_mode):
                    os.remove(path)
        if isinstance(exc, OSError):
            raise ConfigError(
                path, f"cannot write the output file: {exc.strerror or exc}"
            ) from exc
        raise


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

# Rows a streaming helper formats between two looks at its stop flag: about
# 100 KB of text and 1.5 ms of formatting at 256 x 1024, the longest the
# solver's caller waits for it to stop.
_STREAM_ROWS = 8


def _levels(grid):
    """(template, times) of a trajectory on grid: one "%s<x>,%r\\n" per node
    x, filled by one % per time level, and the times as Python floats."""
    level = "".join([f"%s{x!r},%r\n" for x in grid.x.tolist()])
    return level, grid.t.tolist()


def _format_levels(level: str, t, u):
    """The text of the time levels (t[j], u[j]), one `level % args` each."""
    n = u.shape[1]
    args = [None] * (2 * n)
    for tj, row in zip(t, u):
        args[::2] = [repr(tj) + ","] * n
        args[1::2] = row.tolist()
        yield level % tuple(args)


def _write_all(fd: int, data: bytes) -> None:
    view = memoryview(data)
    while view:
        view = view[os.write(fd, view):]


def _two_processes(values: int) -> bool:
    """Whether a trajectory of this many values is written by two processes:
    a large one, where this process may run on two CPUs and can fork."""
    return (
        values >= _SPLIT_MIN_VALUES
        and hasattr(os, "fork")
        and hasattr(os, "sched_getaffinity")
        and len(os.sched_getaffinity(0)) >= 2
    )


def _fork_piped(run, child_reads: bool):
    """(pid, this process's end of a pipe) of a forked child that calls
    run(its end of the pipe) and exits with the code run returns (1 where
    it raises); None where no process can be started.  The child reads the
    pipe where child_reads, else writes it.

    The children of this module run no BLAS and take no lock, so forking a
    process that has BLAS threads is safe.  A child ends in os._exit, so it
    flushes no inherited buffer and runs no atexit handler."""
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
    mine, theirs = (w, r) if child_reads else (r, w)
    if pid == 0:
        code = 1
        try:
            os.close(mine)
            code = run(theirs)
        finally:
            os._exit(code)
    os.close(theirs)
    return pid, mine


def _exit_code(pid: int) -> int:
    """Wait for the child pid: its exit code, or minus the signal that
    killed it."""
    return os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])


def _helper_failed(path: str, code: int) -> ConfigError:
    how = f"exited with code {code}" if code > 0 else f"was killed by signal {-code}"
    return ConfigError(path, f"cannot write the output file: its helper process {how}")


@contextlib.contextmanager
def _helper(path: str, level: str, t, u: np.ndarray, encoding: str):
    """The pipe of a forked helper that writes the encoded text of the
    levels (t, u) to it, or None where there is no level or no helper.  An
    exception in the body kills the helper; it is reaped on every exit, and
    one that failed is a ConfigError for path.  The helper does no I/O but
    its pipe."""

    def run(w):
        _write_all(w, "".join(_format_levels(level, t, u)).encode(encoding))
        return 0

    started = _fork_piped(run, child_reads=False) if len(u) else None
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
        code = _exit_code(pid)
    if code:
        raise _helper_failed(path, code)


def _write_levels(fh, path: str, level: str, t, u: np.ndarray, k: int) -> None:
    """Append the levels (t, u) to fh: this process streams rows :k one
    level at a time, while a forked helper formats rows k: (none where k =
    len(u) or no helper can be started), whose bytes it then copies from a
    pipe, so it never holds them."""
    with _helper(path, level, t[k:], u[k:], fh.encoding) as pipe:
        k = len(u) if pipe is None else k
        fh.writelines(_format_levels(level, t[:k], u[:k]))
        if pipe is not None:
            fh.flush()
            shutil.copyfileobj(pipe, fh.buffer, 1 << 16)


def _write_trajectory(out: str, name: str, u: np.ndarray, cfg: ExperimentConfig) -> None:
    """Rows t,x,u in write_csv's format, one _levels template per time
    level.  On a large trajectory (see _two_processes) a forked helper
    formats the second half of the rows while this process writes the
    first; the split changes no byte of the file."""
    path = os.path.join(out, name)
    level, t = _levels(cfg.grid)
    with _open_out(path) as fh:
        fh.write("t,x,u\n")
        k = len(u) // 2 if _two_processes(u.size) else len(u)
        _write_levels(fh, path, level, t, u, k)


def _stream_rows(fd: int, r: int, ctl, level: str, t, u, encoding: str) -> int:
    """A streaming helper's work: write the text of the levels (t[j], u[j])
    to fd in order as the parent reports each row final, with one byte on
    the pipe r, reading the pipe only once it has caught up.  It stops at a
    row boundary once the parent sets ctl[0], with ctl[1] the rows written,
    and returns its exit code: 1 where the pipe ends before the stop flag
    is set, since the parent is gone."""
    done = known = 0
    while not ctl[0]:
        if done == known:
            got = os.read(r, 1 << 16)
            if not got:
                return 0 if ctl[0] else 1
            known += len(got)
            continue
        end = min(known, done + _STREAM_ROWS)
        text = "".join(_format_levels(level, t[done:end], u[done:end]))
        _write_all(fd, text.encode(encoding))
        done = ctl[1] = end
    return 0


@contextlib.contextmanager
def _row_stream(path: str, fh, level: str, t, u: np.ndarray, ctl):
    """on_row for forward_solve_nonlinear, filling u: a forked helper writes
    row j of u into fh's file once on_row(j) reports it final (see
    _stream_rows), until the body ends; then ctl[1] counts the rows it
    wrote.  None where no helper can be started.  An exception in the body
    kills the helper; it is reaped on every exit, and one that failed, also
    seen as a BrokenPipeError in on_row, is a ConfigError for path."""
    started = _fork_piped(
        lambda r: _stream_rows(fh.fileno(), r, ctl, level, t, u, fh.encoding),
        child_reads=True,
    )
    if started is None:
        yield None
        return
    pid, w = started

    def on_row(j: int) -> None:
        os.write(w, b"\0")

    try:
        try:
            yield on_row
        finally:
            ctl[0] = 1  # before the pipe ends, which the helper then reads as a stop
            os.close(w)
    except BaseException as exc:
        gone = isinstance(exc, BrokenPipeError)  # the helper ended; its status says how
        if not gone:
            os.kill(pid, signal.SIGKILL)
        code = _exit_code(pid)
        if gone and code:
            raise _helper_failed(path, code) from exc
        raise
    code = _exit_code(pid)
    if code:
        raise _helper_failed(path, code)


def _solve_streamed(path: str, cfg: ExperimentConfig, op) -> tuple:
    """(final L2 norm, solve seconds) of the nonlinear forward solve, whose
    trajectory is written to path while it is solved.

    u lives in an anonymous shared mapping after two int64 slots, the
    helper's stop flag and its row count F.  A helper forked before the
    solve writes each row as the stepper reports it final (_row_stream);
    the header is written and flushed before, so an unusable path fails
    here.  After the solve this process stops and reaps the helper and
    writes rows F: at the end of the file with _write_levels, a second
    helper taking the upper half.  The file is byte for byte the one
    _write_trajectory writes.  A solver error kills the helper and removes
    the file (_open_out), and the mapping is closed before returning."""
    import mmap

    grid = cfg.grid
    shape = (grid.nt + 1, grid.nx + 1)
    level, t = _levels(grid)
    shared = mmap.mmap(-1, 8 * (2 + shape[0] * shape[1]))
    try:
        with _open_out(path) as fh:
            fh.write("t,x,u\n")
            fh.flush()
            ctl = np.frombuffer(shared, np.int64, 2)
            u = np.frombuffer(shared, float, offset=16).reshape(shape)
            with _row_stream(path, fh, level, t, u, ctl) as on_row:
                t0 = time.perf_counter()
                forward_solve_nonlinear(cfg.problem, None, grid, op, out=u, on_row=on_row)
                wall = time.perf_counter() - t0
            done = int(ctl[1])
            fh.seek(0, os.SEEK_END)
            _write_levels(fh, path, level, t[done:], u[done:], (shape[0] - done) // 2)
        final = l2_norm(u[-1], grid)
        del ctl, u  # the views of the mapping, which close() refuses to outlive
    finally:
        with contextlib.suppress(BufferError):  # views a traceback holds: freed with it
            shared.close()
    return final, wall


def cmd_solve_forward(cfg: ExperimentConfig, out: str, quiet: bool) -> int:
    """Nonlinear forward solve; writes trajectory.csv and summary.json.

    A trajectory that _write_trajectory would write by two processes is
    written while it is solved (_solve_streamed), on the CPU the solve
    leaves idle.  Any other is solved first and written by
    _write_trajectory.  Both give the same bytes."""
    grid = cfg.grid
    op = assemble_degenerate_operator(cfg.problem.a, grid)
    if _two_processes((grid.nt + 1) * (grid.nx + 1)):
        final, wall = _solve_streamed(os.path.join(out, "trajectory.csv"), cfg, op)
    else:
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
