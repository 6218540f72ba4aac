"""Linear null control by penalized quadratic minimization.

J_n(u, h) = 1/2 (weighted L2 of u) + 1/2 (weighted L2 of h) is minimized
over controls h supported in the window, with the state u slaved to h
through the forward solver.  The exact weights span hundreds of millions in
log scale, far beyond float64; the minimized functional therefore uses
*effective* weights: the squared log-weights are globally shifted (which
leaves the minimizer untouched) and capped at `log_weight_cap` (a documented
modification of the functional).  The cap is not confined to a thin layer
near t = T: at configs/default.json it is active on 63% of the interior W0
nodes and on every W* node of the control window at n = 1, and on 99.5% and
98% of them from n = 100 on.  In practice `log_weight_cap` is therefore the
accuracy knob of the synthesis.  Reported weighted norms use the same
effective weights with the shift added back, as mantissa/log-scale pairs.

The penalty continuation stops at the first stage whose terminal norm exceeds
the best one so far; at configs/default.json it runs 4 of the 7 stages.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from .errors import NonFiniteTrajectory, SourceWeightDivergence
from .grid import LogValue, SpaceTimeGrid, l2_norm
from .pde import DegenerateOperator, adjoint_solve, forward_solve_linear
from .weights import WeightFields, build_truncated_fields

__all__ = [
    "PenaltySchedule",
    "LinearControlProblem",
    "StageWeights",
    "StageDiagnostics",
    "NullControlResult",
    "build_stage",
    "eval_Jn",
    "grad_Jn",
    "minimize_Jn",
    "solve_null_control",
]

DEFAULT_CAP = 40.0  # cap on the shifted log of the *squared* weights


@dataclass
class PenaltySchedule:
    ns: tuple = tuple(10.0**k for k in range(7))
    cg_tol: float = 1e-8
    cg_maxit: int = 500
    tol_terminal: float = 1e-2

    def __post_init__(self):
        if len(self.ns) == 0 or self.ns[0] < 1:
            raise ValueError("penalty schedule must start at n >= 1")
        if any(b <= a for a, b in zip(self.ns, self.ns[1:])):
            raise ValueError("penalty schedule must be strictly increasing")


@dataclass
class LinearControlProblem:
    """Frozen context for the linear control solves: grid, discrete operator,
    potential c (a number), control window and weight tabulations."""

    grid: SpaceTimeGrid
    op: DegenerateOperator
    c: float
    omega: tuple
    fields: WeightFields
    log_weight_cap: float = DEFAULT_CAP


@dataclass
class StageWeights:
    """Effective squared weights for one penalty stage.

    W0/Wstar are exp of the shifted+capped squared log-weights; kappa2 is the
    common shift, so `value * exp(kappa2)` restores the reported scale.
    src_W0 = (wt/dt) W0 and to_ctrl = dt/wt on the interior rows, and
    outside = ~mask, are the stage constants of every ``grad_Jn`` call.
    """

    W0: np.ndarray
    Wstar: np.ndarray
    kappa2: float
    mask: np.ndarray
    src_W0: np.ndarray
    to_ctrl: np.ndarray
    outside: np.ndarray


@dataclass
class StageDiagnostics:
    n: float
    cg_iters: int
    converged: bool
    Jn: LogValue
    terminal_norm: float
    ctrl_weighted_norm: LogValue
    state_weighted_norm: LogValue
    raw_terminal_norm: float = 0.0
    accepted: bool = True


@dataclass
class NullControlResult:
    h: np.ndarray
    u: np.ndarray
    stages: List[StageDiagnostics]
    terminal_norm: float
    success: bool


def build_stage(prob: LinearControlProblem, n: float) -> StageWeights:
    wf = build_truncated_fields(prob.fields, n, prob.omega, prob.grid)
    tr = wf.trunc
    lw0 = 2.0 * tr.log_rho0_n
    lws = 2.0 * tr.log_rhostar_n
    mask = tr.omega_mask
    interior = slice(1, prob.grid.nt)
    kappa2 = min(float(np.min(lw0[interior])), float(np.min(lws[interior][:, mask])))
    W0 = _effective_weights(lw0, kappa2, prob)
    Wstar = _effective_weights(lws, kappa2, prob)
    wt, dt = prob.grid.interior_time_weights[:, None], prob.grid.dt
    return StageWeights(W0, Wstar, kappa2, mask, (wt / dt) * W0[interior], dt / wt, ~mask)


def _effective_weights(
    log_w2: np.ndarray, kappa2: float, prob: LinearControlProblem
) -> np.ndarray:
    """exp(min(log_w2 - kappa2, log_weight_cap)) on the interior time rows,
    zero on rows 0 and nt: the shift-and-cap of every squared weight."""
    interior = slice(1, prob.grid.nt)
    W = np.zeros_like(log_w2)
    W[interior] = np.exp(np.minimum(log_w2[interior] - kappa2, prob.log_weight_cap))
    return W


def _weighted_quad(W: np.ndarray, v: np.ndarray, grid: SpaceTimeGrid) -> float:
    return _control_inner(W, v**2, grid)


def _weighted_norm(
    W: np.ndarray, kappa2: float, v: np.ndarray, grid: SpaceTimeGrid
) -> LogValue:
    """_weighted_quad on the reported scale, with the shift kappa2 added back."""
    with np.errstate(over="ignore"):
        return LogValue.from_float(_weighted_quad(W, v, grid)).shifted(kappa2)


def eval_Jn(
    u: np.ndarray, h: np.ndarray, stage: StageWeights, grid: SpaceTimeGrid
) -> LogValue:
    """Penalized functional value, as a mantissa/log-scale pair on the
    reported (unshifted) scale."""
    if not (np.isfinite(u[1:-1]).all() and np.isfinite(h[1:-1]).all()):
        raise ValueError("NaN/inf in trajectory passed to eval_Jn")
    j_eff = 0.5 * _weighted_quad(stage.W0, u, grid) + 0.5 * _weighted_quad(
        stage.Wstar, h, grid
    )
    return LogValue.from_float(j_eff).shifted(stage.kappa2)


def _control_inner(a: np.ndarray, b: np.ndarray, grid: SpaceTimeGrid) -> float:
    wt = grid.interior_time_weights
    d = grid.dual_widths
    return float(np.einsum("j,ji,i->", wt, a[1:-1] * b[1:-1], d))


def grad_Jn(
    h: np.ndarray,
    stage: StageWeights,
    g: Optional[np.ndarray],
    u0: np.ndarray,
    prob: LinearControlProblem,
):
    """Gradient of J_n with respect to h in the control-space inner product,
    together with the forward state u(h; g, u0).

    The state term enters through one adjoint solve with source W0 u, so
    the gradient is Wstar h plus that adjoint state, restricted to the
    control window.  Zero gradient is the discrete coupling between the
    adjoint and the optimal control.  This is the only definition of the
    control operator: with g = None and u0 = 0 it is the linear map A that
    ``minimize_Jn`` inverts, and at h = 0 it is the right-hand side b.
    """
    grid = prob.grid
    u = forward_solve_linear(prob.c, g, h, u0, grid, prob.op)
    s = np.zeros_like(u)
    # a state near the float64 limit overflows here; the adjoint solve's
    # finiteness check reports it
    with np.errstate(over="ignore", invalid="ignore"):
        s[1:-1] = stage.src_W0 * u[1:-1]
    p = adjoint_solve(s, prob.c, grid, prob.op)
    grad = np.zeros_like(u)
    grad[1:-1] = stage.to_ctrl * p[1:-1]
    grad[1:-1] += stage.Wstar[1:-1] * h[1:-1]
    grad[:, stage.outside] = 0.0
    return grad, u


def minimize_Jn(
    stage: StageWeights,
    g: Optional[np.ndarray],
    u0: np.ndarray,
    h_init: Optional[np.ndarray],
    prob: LinearControlProblem,
    tol: float = 1e-8,
    maxit: int = 500,
):
    """Preconditioned CG on the quadratic h -> J_n(h).

    Both sides of the normal equations A h = -b come from ``grad_Jn``: by the
    affine split u(h) = u_hom(h) + u_part(g, u0), A h is the gradient at
    (g, u0) = (None, 0) and b is the gradient at h = 0.  A is preconditioned
    by the diagonal Wstar, and CG stops once the preconditioned residual
    r.z falls to tol**2 (b, Wstar^-1 b): the residual is relative to ||b||,
    both in the Wstar^-1 norm over the window, so a warm start that already
    meets it runs no iteration.  Returns (h, u, iters, converged), u being
    the state of the returned control.  Raises NonFiniteTrajectory when
    (b, Wstar^-1 b) overflows float64.
    """
    grid = prob.grid
    zeros = np.zeros((grid.nt + 1, grid.nx + 1))

    def apply_A(hv):
        return grad_Jn(hv, stage, None, zeros[0], prob)[0]

    def precond(v):
        w = np.zeros_like(v)
        w[1:-1] = np.where(stage.outside, 0.0, v[1:-1] / stage.Wstar[1:-1])
        return w

    b = grad_Jn(zeros, stage, g, u0, prob)[0]
    with np.errstate(over="ignore"):
        b_sq = _control_inner(b, precond(b), grid)
    if not np.isfinite(b_sq):
        raise NonFiniteTrajectory("the norm of the CG right-hand side overflows float64")
    stop = tol**2 * b_sq
    # b = 0 is solved by h = 0 exactly, whatever the warm start
    h = zeros.copy() if h_init is None or not b.any() else h_init.copy()
    h[:, stage.outside] = 0.0
    h[[0, -1]] = 0.0

    r = -(apply_A(h) + b)
    z = precond(r)
    rz = _control_inner(r, z, grid)
    p = z.copy()
    iters = 0
    while rz > stop and iters < maxit:
        Ap = apply_A(p)
        pAp = _control_inner(p, Ap, grid)
        if pAp <= 0.0:
            break
        alpha = rz / pAp
        h += alpha * p
        r -= alpha * Ap
        iters += 1
        z = precond(r)
        rz_new = _control_inner(r, z, grid)
        p = z + (rz_new / rz) * p
        rz = rz_new
    converged = rz <= stop
    u = forward_solve_linear(prob.c, g, h, u0, grid, prob.op)
    return h, u, iters, converged


def terminal_l2(u: np.ndarray, grid: SpaceTimeGrid) -> float:
    return l2_norm(u[-1], grid)


def solve_null_control(
    g: Optional[np.ndarray],
    u0: np.ndarray,
    schedule: PenaltySchedule,
    prob: LinearControlProblem,
) -> NullControlResult:
    """Continuation over the penalty schedule with warm-started controls.

    Each stage is accepted when its terminal norm does not exceed the best
    one so far.  The continuation stops after the first rejected stage,
    whose row (with the CG iterations it ran) ends ``stages``; the returned
    control is the last accepted one.
    """
    grid = prob.grid
    if g is not None:
        _check_source_weight(g, prob)
    h = u = None
    best = np.inf
    stages: List[StageDiagnostics] = []
    for n in schedule.ns:
        stage = build_stage(prob, n)
        h_new, u_new, iters, converged = minimize_Jn(
            stage, g, u0, h, prob, tol=schedule.cg_tol, maxit=schedule.cg_maxit
        )
        raw = terminal_l2(u_new, grid)
        # accept/reject safeguard: once the terminal norm bottoms out at the
        # CG-tolerance floor, later stages can jitter upward; keep the best
        # control and stop at the first stage whose norm exceeds it
        accepted = raw <= best or h is None
        if accepted:
            h, u, best = h_new, u_new, raw
        jn = eval_Jn(u, h, stage, grid)
        cw = _weighted_norm(stage.Wstar, stage.kappa2, h, grid)
        sw = _weighted_norm(stage.W0, stage.kappa2, u, grid)
        stages.append(
            StageDiagnostics(
                n=float(n),
                cg_iters=iters,
                converged=converged,
                Jn=jn,
                terminal_norm=best,
                ctrl_weighted_norm=cw,
                state_weighted_norm=sw,
                raw_terminal_norm=raw,
                accepted=accepted,
            )
        )
        if not accepted:
            break
    tnorm = stages[-1].terminal_norm
    success = tnorm <= schedule.tol_terminal * max(l2_norm(u0, grid), 1e-300)
    return NullControlResult(h=h, u=u, stages=stages, terminal_norm=tnorm, success=success)


def _check_source_weight(g: np.ndarray, prob: LinearControlProblem) -> None:
    """The source must have finite rho0-weighted energy (log-safe check on
    the exact, untruncated weights)."""
    lw = 2.0 * prob.fields.log_rho0
    interior = slice(1, prob.grid.nt)
    active = np.abs(g[interior]) > 0
    if not active.any():
        return
    top = float(np.max(lw[interior][active] + 2.0 * np.log(np.abs(g[interior][active]))))
    if not np.isfinite(top):
        raise SourceWeightDivergence(
            "source term has divergent rho0-weighted energy near t = T"
        )
