"""Linear null control by Boyer's penalized HUM, solved in closed form.

Penalty stage n minimizes J_n(h) = 1/2 int int_omega |h|^2 + (n/2) ||u(t_m)||^2
over controls h in the window omega on the interior time rows, u slaved to h
by the forward solver (Boyer, ESAIM Proc. 2013).  The penalty sits on row
m = nt-1, the last controlled row, so ``build_stage``'s weights (W* = 1 on the
interior rows, W0 = n/wt_m on row m) give J_n exactly through
``grid.integrate_interior`` and ``grad_Jn``; ``solve_null_control`` reads
the two terms directly, ||h||^2 by that quadrature and n ||u(t_m)||^2 from
row m.

Each stage is solved exactly through the modal Gramian.  With the step
matrix's eigenbasis D^{1/2} M D^{-1/2} = Q diag(mu) Q^T (D the dual widths),
beta = 1/(dt mu), P the window projector and K = B^T diag(dt^2/wt) B for
B_jk = beta_k^{m-j+1}, stage n solves

    (I/n + G) q = z,   G = (Q^T P Q) o K = V diag(g) V^T  (o: Hadamard),

z = Q^T D^{1/2} u_free(t_m) being the uncontrolled row m (datum and source
included), and h_j = -(dt/wt_j) P D^{-1/2} Q (beta^{m-j+1} o q).  G is built
and diagonalized once per problem, on the eigenbasis the modal step kernel
caches, and serves every stage and every Newton step.  ``minimize_Jn``, PCG
on ``grad_Jn``, stays as the general library path and the cross-check.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import List, Optional

import numpy as np

from .errors import NonFiniteTrajectory
from .grid import (SpaceTimeGrid, integrate_interior, integrate_space, l2_norm, log_norm_sq,
                   window_mask)
from .pde import DegenerateOperator, adjoint_solve, forward_solve_linear, step_eigenbasis

__all__ = [
    "PenaltySchedule",
    "LinearControlProblem",
    "StageWeights",
    "StageDiagnostics",
    "NullControlResult",
    "build_stage",
    "grad_Jn",
    "minimize_Jn",
    "solve_null_control",
]


@dataclass
class PenaltySchedule:
    ns: tuple = tuple(10.0**k for k in range(7))
    tol_terminal: float = 1e-2

    def __post_init__(self):
        if len(self.ns) == 0 or self.ns[0] < 1:
            raise ValueError("penalty schedule must start at n >= 1")
        if any(b <= a for a, b in zip(self.ns, self.ns[1:])):
            raise ValueError("penalty schedule must be strictly increasing")
        if not np.isfinite(self.ns).all():
            raise ValueError("penalty schedule must be finite")


@dataclass(frozen=True)
class _Gramian:
    """The stage-independent factors of the closed-form stage solve."""

    to_eig: np.ndarray  # D^{1/2} Q V: an interior row u maps to V^T Q^T D^{1/2} u
    vecs: np.ndarray  # V
    g: np.ndarray  # eigenvalues of G, rounding below 0 clipped (G is PSD)
    powers: np.ndarray  # -(dt/wt_j) beta^{m-j+1}, one row per interior time row
    to_ctrl: np.ndarray  # Q^T P D^{-1/2}


@dataclass
class LinearControlProblem:
    """Frozen context for the linear control solves: grid, discrete operator,
    potential c (a number) and control window."""

    grid: SpaceTimeGrid
    op: DegenerateOperator
    c: float
    omega: tuple
    # the modal Gramian, built by the first control solve; like the step
    # kernel of DegenerateOperator, not copied by dataclasses.replace
    gramian: Optional[_Gramian] = field(default=None, init=False, repr=False, compare=False)


@dataclass
class StageWeights:
    """Squared weights of one penalty stage: W0 on the state, Wstar on the
    control.  src_W0 = (wt/dt) W0 and to_ctrl = dt/wt on the interior rows,
    and outside = ~mask, are the stage constants of every ``grad_Jn`` call.
    """

    W0: np.ndarray
    Wstar: np.ndarray
    mask: np.ndarray
    src_W0: np.ndarray
    to_ctrl: np.ndarray
    outside: np.ndarray


@dataclass
class StageDiagnostics:
    """One penalty stage; the three ``*_log`` fields are natural logs."""

    n: float
    cg_iters: int
    converged: bool
    Jn_log: float
    terminal_norm: float
    ctrl_weighted_norm_log: float
    state_weighted_norm_log: float
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
    """The weights of J_n: W* = 1 on the interior rows, W0 = n/wt_{nt-1} on
    row nt-1 (so that ``integrate_interior`` of W0 u^2 gives
    n ||u(t_{nt-1})||^2), zero on the other rows."""
    grid = prob.grid
    shape = (grid.nt + 1, grid.nx + 1)
    wt, dt = grid.interior_time_weights[:, None], grid.dt
    W0 = np.zeros(shape)
    W0[-2] = n / wt[-1]
    Wstar = np.zeros(shape)
    Wstar[1:-1] = 1.0
    mask = window_mask(grid, prob.omega)
    return StageWeights(W0, Wstar, mask, (wt / dt) * W0[1:-1], dt / wt, ~mask)


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
    (b, Wstar^-1 b) or a curvature p.Ap overflows float64.
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
        b_sq = integrate_interior(b[1:-1] * precond(b)[1:-1], grid)
    if not np.isfinite(b_sq):
        raise NonFiniteTrajectory("the norm of the CG right-hand side overflows float64")
    stop = tol**2 * b_sq
    # b = 0 is solved by h = 0 exactly, whatever the warm start
    h = zeros.copy() if h_init is None or not b.any() else h_init.copy()
    h[:, stage.outside] = 0.0
    h[[0, -1]] = 0.0

    r = -(apply_A(h) + b)
    z = precond(r)
    rz = integrate_interior(r[1:-1] * z[1:-1], grid)
    p = z.copy()
    iters = 0
    while rz > stop and iters < maxit:
        Ap = apply_A(p)
        with np.errstate(over="ignore", invalid="ignore"):
            pAp = integrate_interior(p[1:-1] * Ap[1:-1], grid)
        if not np.isfinite(pAp):  # alpha = rz/inf = 0 would stall h and r for good
            raise NonFiniteTrajectory("the CG curvature p.Ap overflows float64")
        if pAp <= 0.0:
            break
        alpha = rz / pAp
        h += alpha * p
        r -= alpha * Ap
        iters += 1
        z = precond(r)
        rz_new = integrate_interior(r[1:-1] * z[1:-1], grid)
        p = z + (rz_new / rz) * p
        rz = rz_new
    converged = rz <= stop
    u = forward_solve_linear(prob.c, g, h, u0, grid, prob.op)
    return h, u, iters, converged


def terminal_l2(u: np.ndarray, grid: SpaceTimeGrid) -> float:
    return l2_norm(u[-1], grid)


def _gramian(prob: LinearControlProblem) -> _Gramian:
    """The modal Gramian of prob, built on first use and cached on prob."""
    if prob.gramian is not None:
        return prob.gramian
    grid = prob.grid
    basis = step_eigenbasis(prob.op, grid.dt, prob.c)
    q, root, wt = basis.q, basis.root, grid.interior_time_weights
    with np.errstate(over="ignore", invalid="ignore"):
        B = basis.decay ** np.arange(grid.nt - 1, 0, -1)[:, None]
        K = B.T @ ((grid.dt**2 / wt)[:, None] * B)
    if not np.isfinite(K).all():  # a step that amplifies some mode by far more than 1
        raise NonFiniteTrajectory("the modal Gramian overflows float64")
    window = window_mask(grid, prob.omega)[1:-1]
    g, vecs = np.linalg.eigh((q[window].T @ q[window]) * K)
    prob.gramian = _Gramian(
        to_eig=(root[:, None] * q) @ vecs,
        vecs=vecs,
        g=np.maximum(g, 0.0),
        powers=-(grid.dt / wt)[:, None] * B,
        to_ctrl=q.T * (window / root),
    )
    return prob.gramian


def solve_null_control(
    g: Optional[np.ndarray],
    u0: np.ndarray,
    schedule: PenaltySchedule,
    prob: LinearControlProblem,
) -> NullControlResult:
    """Continuation over the penalty schedule, each stage solved exactly.

    One uncontrolled solve gives the modal datum z of every stage; stage n
    is then (I/n + G) q = z in the eigenbasis of G, one GEMM for h and one
    forward solve for u (see the module docstring).  Each stage is accepted
    when its terminal norm does not exceed the best one so far.  The
    continuation stops after the first rejected stage, whose row ends
    ``stages``; the returned control is the last accepted one.  Every row
    has cg_iters = 0 and converged = True.
    """
    grid = prob.grid
    gram = _gramian(prob)
    free = forward_solve_linear(prob.c, g, None, u0, grid, prob.op)
    z = free[-2, 1:-1] @ gram.to_eig
    h = u = None
    best = np.inf
    stages: List[StageDiagnostics] = []
    for n in schedule.ns:
        h_new = np.zeros_like(free)
        # a datum near the float64 limit can overflow here; the forward
        # solve's finiteness check reports it
        with np.errstate(over="ignore", invalid="ignore"):
            qn = gram.vecs @ (z / (1.0 / n + gram.g))
            h_new[1:-1, 1:-1] = (gram.powers * qn) @ gram.to_ctrl
        u_new = forward_solve_linear(prob.c, g, h_new, u0, grid, prob.op)
        raw = terminal_l2(u_new, grid)
        accepted = raw <= best or h is None
        if accepted:
            h, u, best = h_new, u_new, raw
        # J_n = (cw + sw)/2 in logs: ||h||^2 on the interior rows, n ||u(t_{nt-1})||^2
        cw = log_norm_sq(h[1:-1], grid)
        sw = math.log(n) + log_norm_sq(u[-2], grid, integrate_space)
        jn = float(np.logaddexp(cw, sw)) - math.log(2.0)
        stages.append(
            StageDiagnostics(float(n), 0, True, jn, best, cw, sw,
                             raw_terminal_norm=raw, accepted=accepted)
        )
        if not accepted:
            break
    tnorm = stages[-1].terminal_norm
    success = tnorm <= schedule.tol_terminal * max(l2_norm(u0, grid), 1e-300)
    return NullControlResult(h=h, u=u, stages=stages, terminal_norm=tnorm, success=success)

