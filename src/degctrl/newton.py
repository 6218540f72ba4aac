"""Local null control of the nonlinear nonlocal equation.

Simplified Newton iteration frozen at the zero linearization: each outer
step solves the *linear* null-control problem against the current nonlinear
residual, exactly the right-inverse construction that proves local
controllability.  The final control is replayed through the genuine
nonlinear solver before success is declared.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from .coeffs import ProblemData
from .errors import NewtonDivergence
from .grid import LogValue, integrate_space
from .hum import (
    LinearControlProblem,
    PenaltySchedule,
    _weighted_norm,
    solve_null_control,
    terminal_l2,
)
from .pde import apply_operator, forward_solve_nonlinear

__all__ = ["NewtonState", "residual_source", "local_null_control"]

TOL_NEWTON = 1e-6
MAXIT_NEWTON = 25


@dataclass
class NewtonState:
    k: int
    residual_norm: LogValue
    step_norm: Optional[LogValue]
    terminal_norm_linear: float
    terminal_norm_nonlinear: Optional[float] = None


def residual_source(u: np.ndarray, pd: ProblemData, prob: LinearControlProblem) -> np.ndarray:
    """Source g(u) that makes the zero-linearized equation reproduce the
    nonlinear one: g = -[f(t,x,u) - c u] + [(ell(int u) - 1) (a u_x)_x],
    with the same discrete operator as the solvers (u_t - ell (a u_x)_x + f
    = h rearranged around the zero linearization)."""
    grid = prob.grid
    rows = u[1:]
    ts = grid.t[1:].tolist()
    fval = np.array([pd.f.f(t, grid.x, row) for t, row in zip(ts, rows)], float)
    lfac = np.array([float(pd.ell.ell(r)) - 1.0 for r in integrate_space(rows, grid)])
    g = np.zeros_like(u)
    g[1:] = -(fval - prob.c * rows) + lfac[:, None] * apply_operator(prob.op, rows)
    g[:, [0, -1]] = 0.0
    return g


def local_null_control(
    pd: ProblemData,
    prob: LinearControlProblem,
    schedule: PenaltySchedule,
    tol_newton: float = TOL_NEWTON,
    maxit: int = MAXIT_NEWTON,
):
    """Outer Newton loop: returns (h, u_nonlinear, history, converged).

    Raises NewtonDivergence after 3 consecutive increases of the step norm
    ||g_k - g_{k-1}||, which is the numerical witness that the initial datum
    sits outside the local controllability basin.  The residual norm ||g_k||
    is not watched: it tends to a nonzero limit and may approach it from
    below while the iteration converges.
    """
    grid = prob.grid
    # residual sources are measured in plain space-time L2 over the interior rows
    W = np.zeros((grid.nt + 1, grid.nx + 1))
    W[1:-1] = 1.0

    history: List[NewtonState] = []
    u = np.zeros((grid.nt + 1, grid.nx + 1))
    h = g_prev = None
    prev_step: Optional[LogValue] = None
    grow = 0
    converged = False

    for k in range(maxit):
        g = residual_source(u, pd, prob)
        res_norm = _weighted_norm(W, g, grid)
        step_norm = None
        if g_prev is not None:
            step_norm = _weighted_norm(W, g - g_prev, grid)
            grow = grow + 1 if prev_step is not None and prev_step < step_norm else 0
            if grow >= 3:
                raise NewtonDivergence(
                    f"step norm grew {grow} consecutive iterations "
                    f"(iteration {k}); initial datum outside the local basin"
                )
        result = solve_null_control(g, pd.u0, schedule, prob)
        u, h = result.u, result.h
        history.append(
            NewtonState(
                k=k,
                residual_norm=res_norm,
                step_norm=step_norm,
                terminal_norm_linear=result.terminal_norm,
            )
        )
        if step_norm is not None:
            if res_norm.is_zero() or step_norm.ratio(res_norm).log() <= math.log(
                tol_newton
            ):
                converged = True
                break
        g_prev = g
        prev_step = step_norm

    u_nl = forward_solve_nonlinear(pd, h, grid, prob.op)
    history[-1].terminal_norm_nonlinear = terminal_l2(u_nl, grid)
    return h, u_nl, history, converged
