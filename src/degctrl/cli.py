"""Command-line interface: batch experiment runner over JSON configs.

Subcommands
    solve-forward            integrate the nonlinear state equation
    null-control             linear null-control synthesis (penalty continuation)
    null-control-nonlinear   fixed-point loop for the semilinear/nonlocal problem
    verify                   weighted-inequality checks against golden caps
    sweep                    repeat a base pipeline along one config axis

Exit codes: 0 success, 1 assertion failure (a produced quantity missed its
target), 2 configuration error, 3 solver divergence.
"""

from __future__ import annotations

import argparse
import copy
import dataclasses
import json
import math
import os
import sys
import time
from concurrent.futures import ProcessPoolExecutor

import numpy as np

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
from .weights import CarlemanParams, build_weight_fields, default_omega_prime

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


def write_csv(path: str, header, rows) -> None:
    with open(path, "w", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(_fmt(v) for v in row) + "\n")


def _resolve_out(cfg: ExperimentConfig, arg_out) -> str:
    out = arg_out or cfg.out_dir or os.environ.get("DNC_OUT_DIR") or "out"
    os.makedirs(out, exist_ok=True)
    return out


def _write_summary(out: str, cfg: ExperimentConfig, command: str, payload: dict) -> None:
    doc = {"command": command, "config": cfg.raw, **payload}
    with open(os.path.join(out, "summary.json"), "w") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True, default=str)
        fh.write("\n")


def _build_fields(cfg: ExperimentConfig):
    params = CarlemanParams(
        s=cfg.s,
        lam=cfg.lam,
        omega_prime=default_omega_prime(cfg.problem.omega, cfg.omega_prime_margin),
    )
    try:
        fields = build_weight_fields(params, cfg.problem.a, cfg.grid)
    except OverflowError as exc:  # e^{3 lambda |psi|_inf} or a weight table beyond float64
        raise ConfigError("carleman.lambda", f"weights overflow float64 ({exc})") from exc
    if cfg.M_fraction != 0.5:
        fields.params.M = cfg.M_fraction * cfg.s * fields.beta_bar
    return fields


def _control_problem(cfg: ExperimentConfig) -> LinearControlProblem:
    if not window_mask(cfg.grid, cfg.problem.omega).any():
        raise ConfigError("problem.omega", f"holds no node of the grid at nx = {cfg.grid.nx}")
    op = assemble_degenerate_operator(cfg.problem.a, cfg.grid)
    return LinearControlProblem(grid=cfg.grid, op=op, c=cfg.c, omega=cfg.problem.omega)


def _write_trajectory(out: str, name: str, u: np.ndarray, cfg: ExperimentConfig) -> None:
    """Rows t,x,u in write_csv's format, streamed one time level at a time:
    one "%s<x>,%r\\n" template per grid, filled by one % per level."""
    xs = cfg.grid.x.tolist()
    level = "".join([f"%s{x!r},%r\n" for x in xs])
    args = [None] * (2 * len(xs))
    with open(os.path.join(out, name), "w", newline="\n") as fh:
        fh.write("t,x,u\n")
        for tj, row in zip(cfg.grid.t.tolist(), u):
            args[::2] = [repr(tj) + ","] * len(xs)
            args[1::2] = row.tolist()
            fh.write(level % tuple(args))


def cmd_solve_forward(cfg: ExperimentConfig, out: str, quiet: bool) -> int:
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
    t0 = time.perf_counter()
    rows, all_pass = run_verifications(cfg, _build_fields)
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
    code = _SWEEP_BASES[base](cfg, out, quiet)
    with open(os.path.join(out, "summary.json")) as fh:
        summary = json.load(fh)
    return value, code, summary


def cmd_sweep(cfg: ExperimentConfig, out: str, quiet: bool, args) -> int:
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
        os.makedirs(sub, exist_ok=True)
        raw = _set_path(cfg.raw, args.axis, v)
        parse_config(raw)  # fail fast with a config error before launching
        tasks.append((raw, base, v, sub, True))
    if args.jobs > 1:
        with ProcessPoolExecutor(max_workers=args.jobs) as ex:
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
    except (PicardDivergence, NewtonDivergence, NonFiniteTrajectory) as exc:
        print(f"solver error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_SOLVER
    except (AdmissibilityFail, ZeroDenominator) as exc:
        print(f"verification error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_ASSERTION


if __name__ == "__main__":
    sys.exit(main())
