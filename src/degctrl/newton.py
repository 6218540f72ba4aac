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
from .errors import NewtonDivergence, NonFiniteTrajectory
from .grid import integrate_space, log_norm_sq
from .hum import LinearControlProblem, PenaltySchedule, solve_null_control, terminal_l2
from .pde import apply_operator, forward_solve_nonlinear

__all__ = ["NewtonState", "residual_source", "local_null_control"]

TOL_NEWTON = 1e-6
MAXIT_NEWTON = 25


@dataclass
class NewtonState:
    """One outer step; ``residual_log`` and ``step_log`` are the natural logs
    of ||g_k||^2 and ||g_k - g_{k-1}||^2 (-inf for zero)."""

    k: int
    residual_log: float
    step_log: Optional[float]
    terminal_norm_linear: float
    terminal_norm_nonlinear: Optional[float] = None


def residual_source(u: np.ndarray, pd: ProblemData, prob: LinearControlProblem) -> np.ndarray:
    """Source g(u) that makes the zero-linearized equation reproduce the
    nonlinear one: g = -[f(t,x,u) - c u] + [(ell(int u) - 1) (a u_x)_x],
    with the same discrete operator as the solvers (u_t - ell (a u_x)_x + f
    = h rearranged around the zero linearization).  Raises
    NonFiniteTrajectory when g is not finite."""
    grid = prob.grid
    rows = u[1:]
    g = np.zeros_like(u)
    # an overflow of f or of the defect fails the finiteness check below
    with np.errstate(over="ignore", invalid="ignore"):
        fval = np.array([pd.f.f(t, grid.x, row) for t, row in zip(grid.t[1:].tolist(), rows)], float)
        lfac = np.array([float(pd.ell.ell(r)) - 1.0 for r in integrate_space(rows, grid)])
        g[1:] = -(fval - prob.c * rows) + lfac[:, None] * apply_operator(prob.op, rows)
    g[:, [0, -1]] = 0.0
    if not np.isfinite(g).all():
        raise NonFiniteTrajectory("non-finite residual source")
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
    history: List[NewtonState] = []
    u = np.zeros((grid.nt + 1, grid.nx + 1))
    h = g_prev = None
    prev_step: Optional[float] = None
    grow = 0
    converged = False

    for k in range(maxit):
        g = residual_source(u, pd, prob)
        # residual sources are measured in plain space-time L2 over the interior rows
        res_log = log_norm_sq(g[1:-1], grid)
        step_log = None
        if g_prev is not None:
            step_log = log_norm_sq((g - g_prev)[1:-1], grid)
            grow = grow + 1 if prev_step is not None and prev_step < step_log else 0
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
                residual_log=res_log,
                step_log=step_log,
                terminal_norm_linear=result.terminal_norm,
            )
        )
        if step_log is not None:
            if res_log == -math.inf or step_log - res_log <= math.log(tol_newton):
                converged = True
                break
        g_prev = g
        prev_step = step_log

    u_nl = forward_solve_nonlinear(pd, h, grid, prob.op)
    history[-1].terminal_norm_nonlinear = terminal_l2(u_nl, grid)
    return h, u_nl, history, converged
