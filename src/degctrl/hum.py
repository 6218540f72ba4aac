"""Linear null control by Boyer's penalized HUM, solved in closed form.

Penalty stage n minimizes J_n(h) = 1/2 int int_omega |h|^2 + (n/2) ||u(t_m)||^2
over controls h in the window omega on the interior time rows, u slaved to h
by the forward solver (Boyer, ESAIM Proc. 2013).  The penalty sits on row
m = nt-1, the last controlled row, so ``build_stage``'s weights (W* = 1 on the
interior rows, W0 = n/wt_m on row m) give J_n exactly through
``grid.integrate_interior`` and ``grad_Jn``.

Each stage is solved exactly through the modal Gramian.  With the step
matrix's eigenbasis D^{1/2} M D^{-1/2} = Q diag(mu) Q^T (D the dual widths),
beta = 1/(dt mu), P the window projector and K = B^T diag(dt^2/wt) B for
B_jk = beta_k^{m-j+1}, stage n solves

    (I/n + G) q = z,   G = (Q^T P Q) o K = V diag(g) V^T  (o: Hadamard),

z = Q^T D^{1/2} u_free(t_m) being the uncontrolled row m (datum and source
included), and h_j = -(dt/wt_j) P D^{-1/2} Q (beta^{m-j+1} o q).  With
y = V^T q, a stage's norms need neither h nor u: ||h||^2 = sum g y^2,
u(t_m) = V y/n, and row nt is one modal step on from row m, u_free(t_nt)
less beta o V (g o y) in D^{1/2} Q coordinates.  So ``solve_null_control``
builds h and solves for u only once, for the stage it returns.  G is built
and diagonalized once per problem (``LinearControlProblem.gramian``, on the
eigenbasis of the modal step kernel) and serves every stage and every Newton
step.  ``minimize_Jn`` is the one-stage continuation, and ``grad_Jn`` the
independent reference it is tested against.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import List, Optional

import numpy as np

from .errors import NonFiniteTrajectory
from .grid import SpaceTimeGrid, l2_norm, log_norm_sq, window_mask
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


@dataclass(frozen=True)
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
    decay: np.ndarray  # beta, the per-mode step multiplier
    vecs: np.ndarray  # V
    g: np.ndarray  # eigenvalues of G, rounding below 0 clipped (G is PSD)
    powers: np.ndarray  # -(dt/wt_j) beta^{m-j+1}, one row per interior time row
    to_ctrl: np.ndarray  # Q^T P D^{-1/2}


@dataclass(frozen=True)
class LinearControlProblem:
    """Frozen context for the linear control solves: grid, discrete operator,
    potential c (a number) and control window.  The modal Gramian derives
    from exactly these, so a problem made by dataclasses.replace builds its own."""

    grid: SpaceTimeGrid
    op: DegenerateOperator
    c: float
    omega: tuple

    @cached_property
    def gramian(self) -> _Gramian:
        """The modal Gramian, built by the first control solve."""
        grid = self.grid
        basis = step_eigenbasis(self.op, grid, self.c)
        q, root, wt = basis.q, basis.root, grid.interior_time_weights
        with np.errstate(over="ignore", invalid="ignore"):
            B = basis.decay ** np.arange(grid.nt - 1, 0, -1)[:, None]
            K = B.T @ ((grid.dt**2 / wt)[:, None] * B)
        if not np.isfinite(K).all():  # a step that amplifies some mode by far more than 1
            raise NonFiniteTrajectory("the modal Gramian overflows float64")
        window = window_mask(grid, self.omega)[1:-1]
        g, vecs = np.linalg.eigh((q[window].T @ q[window]) * K)
        return _Gramian(
            to_eig=(root[:, None] * q) @ vecs,
            decay=basis.decay,
            vecs=vecs,
            g=np.maximum(g, 0.0),
            powers=-(grid.dt / wt)[:, None] * B,
            to_ctrl=q.T * (window / root),
        )


@dataclass
class StageWeights:
    """Penalty stage n: squared weights W0 on the state and Wstar on the
    control, and the control window's mask."""

    n: float
    W0: np.ndarray
    Wstar: np.ndarray
    mask: np.ndarray


@dataclass
class StageDiagnostics:
    """One penalty stage; the three ``*_log`` fields are natural logs."""

    n: float
    cg_iters: int
    Jn_log: float
    terminal_norm: float
    ctrl_weighted_norm_log: float
    state_weighted_norm_log: float
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
    W0 = np.zeros(shape)
    W0[-2] = n / grid.interior_time_weights[-1]
    Wstar = np.zeros(shape)
    Wstar[1:-1] = 1.0
    return StageWeights(n, W0, Wstar, window_mask(grid, prob.omega))


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
    adjoint and the optimal control.  Built from the forward and adjoint
    solvers alone, it is the reference the closed-form stage is tested against.
    """
    grid = prob.grid
    wt, dt = grid.interior_time_weights[:, None], grid.dt
    u = forward_solve_linear(prob.c, g, h, u0, grid, prob.op)
    s = np.zeros_like(u)
    # a state near the float64 limit overflows here; the adjoint solve's
    # finiteness check reports it
    with np.errstate(over="ignore", invalid="ignore"):
        s[1:-1] = ((wt / dt) * stage.W0[1:-1]) * u[1:-1]
    p = adjoint_solve(s, prob.c, grid, prob.op)
    grad = np.zeros_like(u)
    grad[1:-1] = (dt / wt) * p[1:-1]
    grad[1:-1] += stage.Wstar[1:-1] * h[1:-1]
    grad[:, ~stage.mask] = 0.0
    return grad, u


def minimize_Jn(
    stage: StageWeights,
    g: Optional[np.ndarray],
    u0: np.ndarray,
    prob: LinearControlProblem,
):
    """The minimizer h of J_n and its state u: the control and state that
    ``solve_null_control`` returns for the one-stage schedule (n,), so n
    must be at least 1."""
    res = solve_null_control(g, u0, PenaltySchedule(ns=(stage.n,)), prob)
    return res.h, res.u


def terminal_l2(u: np.ndarray, grid: SpaceTimeGrid) -> float:
    return l2_norm(u[-1], grid)


def _stage_norms(gram: _Gramian, z: np.ndarray, w_free: np.ndarray, n: float):
    """Stage n in closed form: y = z/(1/n + g), ||u(T)|| from row nt's modal
    coordinates w_free - beta o V (g o y), log ||h||^2 = log sum g y^2 and
    log ||u(t_m)||^2 = log ||y/n||^2, each sum scaled by its max as in
    ``grid.log_norm_sq``.  Raises NonFiniteTrajectory for a non-finite norm."""
    with np.errstate(over="ignore", invalid="ignore"):
        y = z / (1.0 / n + gram.g)
        w = w_free - gram.decay * (gram.vecs @ (gram.g * y))
        vs = (w, np.sqrt(gram.g) * y, y / n)
        logs = [log_norm_sq(v, None, lambda sq, _: float(np.sum(sq))) for v in vs]
    if not all(v < math.inf for v in logs):  # also catches NaN
        raise NonFiniteTrajectory(f"non-finite norms of penalty stage n={n:g}")
    return y, math.exp(0.5 * logs[0]), logs[1], logs[2]


def solve_null_control(
    g: Optional[np.ndarray],
    u0: np.ndarray,
    schedule: PenaltySchedule,
    prob: LinearControlProblem,
) -> NullControlResult:
    """Continuation over the penalty schedule, each stage solved exactly.

    One uncontrolled solve gives the modal datum z of every stage; stage n
    is then (I/n + G) q = z in the eigenbasis of G, with closed-form norms
    (``_stage_norms``).  Each stage is accepted when its terminal norm does
    not exceed the best one so far.  The continuation stops after the first
    rejected stage, whose row (carrying the last accepted norms) ends
    ``stages``.  Only the last accepted stage gets h = (powers o V y)
    Q^T P D^{-1/2}, one GEMM, and a forward solve for u and the result's
    terminal norm.  Every row has cg_iters = 0.
    """
    grid = prob.grid
    gram = prob.gramian
    free = forward_solve_linear(prob.c, g, None, u0, grid, prob.op)
    z = free[-2, 1:-1] @ gram.to_eig
    w_free = gram.vecs @ (free[-1, 1:-1] @ gram.to_eig)  # row nt, D^{1/2} Q coordinates
    best = np.inf
    stages: List[StageDiagnostics] = []
    for n in schedule.ns:
        y, raw, cw_n, su_n = _stage_norms(gram, z, w_free, n)
        accepted = raw <= best  # raw is finite, so the first stage is accepted
        if accepted:
            y_best, best, cw, su = y, raw, cw_n, su_n
        # J_n = (cw + sw)/2 in logs: ||h||^2 on the interior rows, n ||u(t_{nt-1})||^2
        sw = math.log(n) + su
        jn = float(np.logaddexp(cw, sw)) - math.log(2.0)
        stages.append(
            StageDiagnostics(float(n), 0, jn, best, cw, sw, accepted=accepted)
        )
        if not accepted:
            break
    h = np.zeros((grid.nt + 1, grid.nx + 1))
    # an overflow here is reported by the forward solve's finiteness check
    with np.errstate(over="ignore", invalid="ignore"):
        h[1:-1, 1:-1] = (gram.powers * (gram.vecs @ y_best)) @ gram.to_ctrl
    u = forward_solve_linear(prob.c, g, h, u0, grid, prob.op)
    tnorm = terminal_l2(u, grid)
    success = tnorm <= schedule.tol_terminal * max(l2_norm(u0, grid), 1e-300)
    return NullControlResult(h=h, u=u, stages=stages, terminal_norm=tnorm, success=success)
