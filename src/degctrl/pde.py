"""Implicit finite-difference solvers on the degenerate 1-D operator.

The discrete operator L approximates (a u_x)_x with a evaluated at cell
midpoints, which is symmetric and negative semidefinite in the dual-cell
weighted inner product.  The backward solver is the exact discrete adjoint of
the forward map (discretize-then-optimize), which the control iterations
rely on; the two are one implicit-Euler march, run forward or backward.

The potential c of the linear solvers is a number (every built-in f gives
one).  Its step matrix M = I/dt - L + c I is self-adjoint in the dual-cell
inner product, so D^{1/2} M D^{-1/2} is symmetric for D the dual widths, and
one eigh_tridiagonal diagonalizes every step.  The grid keeps that eigenbasis
per (op, c) through ``SpaceTimeGrid.derived`` (``step_eigenbasis``), so a
control solve builds it once for its forward and adjoint solves and for the
control Gramian of hum.  A solve is one GEMM into modal coordinates, a
per-mode doubling scan of the recurrence w_j = w_{j-1}/(dt mu) + ..., and one
GEMM back: O(nt nx^2) work, against O(nt nx) for a banded solve per step,
so on grids from about nx = 160 it is the slower of the two (README).

The Picard stepper of the nonlinear solve lags ell(int u), Newton-linearizes
f and iterates in place in the trajectory row: per iterate, one vecdot for
int u (the bits of integrate_space), one call each of ell, f and df/du, and
one dgtsv, since the bands change with every iterate.  One max|x| is both
the finiteness test and the scale of the increment.  scipy's dgtsv wrapper
rejects one interior node (nx = 2), whose step is a division.  A caller may
hand the stepper the array to fill (out=) and a callback (on_row=) that it
calls with j once row j is final, row 0 included: the stepper reads row j
again only to start row j+1 and never writes it, so the caller may read
(not write) rows up to j from then on, from another process too when out
lives in shared memory.  That is how the CLI writes a large trajectory
while it is being solved.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np
from scipy.linalg import eigh_tridiagonal
from scipy.linalg.lapack import dgtsv

from .coeffs import DegeneracyCoefficient, ProblemData
from .errors import NonFiniteTrajectory, PicardDivergence
from .grid import SpaceTimeGrid, integrate_space

__all__ = [
    "DegenerateOperator",
    "assemble_degenerate_operator",
    "apply_operator",
    "forward_solve_linear",
    "adjoint_solve",
    "forward_solve_nonlinear",
    "h1a_norm_sq",
]

TOL_PICARD = 1e-10
MAXIT_PICARD = 50

@dataclass(frozen=True)
class DegenerateOperator:
    """Tridiagonal representation of u -> (a u_x)_x on interior nodes.

    lower/diag/upper have length nx-1 (interior nodes 1..nx-1); lower[0] and
    upper[-1] are never used.  a_mid holds a at the nx cell midpoints.
    """

    lower: np.ndarray
    diag: np.ndarray
    upper: np.ndarray
    a_mid: np.ndarray
    dual: np.ndarray  # interior dual-cell widths, length nx-1


def assemble_degenerate_operator(
    a: DegeneracyCoefficient, grid: SpaceTimeGrid
) -> DegenerateOperator:
    x = grid.x
    nx = grid.nx
    xm = 0.5 * (x[:-1] + x[1:])
    a_mid = np.asarray(a(xm), dtype=float)
    hx = np.diff(x)  # length nx
    dual = grid.dual_widths[1:-1]  # interior widths

    # flux coefficients: c_right[i] = a_{i+1/2}/h_{i+1/2}, for interior i
    c_left = a_mid[:-1] / hx[:-1]  # couples node i with i-1
    c_right = a_mid[1:] / hx[1:]  # couples node i with i+1

    diag = -(c_left + c_right) / dual
    lower = np.empty(nx - 1)
    upper = np.empty(nx - 1)
    lower[1:] = c_left[1:] / dual[1:]
    upper[:-1] = c_right[:-1] / dual[:-1]
    lower[0] = 0.0
    upper[-1] = 0.0
    for band in (lower, diag, upper):  # the inputs of the kept step kernels
        band.setflags(write=False)
    return DegenerateOperator(
        lower=lower, diag=diag, upper=upper, a_mid=a_mid, dual=dual
    )


def apply_operator(op: DegenerateOperator, u: np.ndarray) -> np.ndarray:
    """(L u) at all nodes of one row, or of each row of a (k, nx+1) block;
    Dirichlet nodes map to 0."""
    out = np.zeros_like(u)
    out[..., 1:-1] = op.diag * u[..., 1:-1]
    out[..., 2:-1] += op.lower[1:] * u[..., 1:-2]
    out[..., 1:-2] += op.upper[:-1] * u[..., 2:-1]
    return out


def _step_bands(op: DegenerateOperator, dt: float, ell: float, c):
    """(lower, diag, upper) bands of I/dt - ell*L + diag(c) on interior
    nodes (c a number or a row), in the layout of LAPACK's routines."""
    return -ell * op.lower[1:], 1.0 / dt - ell * op.diag + c, -ell * op.upper[:-1]


def _raise_if_singular(info: int) -> None:
    if info > 0:
        raise np.linalg.LinAlgError(f"singular step matrix (zero pivot at row {info})")


def _solve_bands(bands, rhs: np.ndarray) -> np.ndarray:
    """M^{-1} rhs for the step matrix M of these bands: dgtsv, or a division
    for one interior node, which scipy's wrapper rejects."""
    if bands[1].size == 1:
        _raise_if_singular(int(bands[1][0] == 0.0))
        return rhs / bands[1]
    *_, x, info = dgtsv(*bands, rhs)
    _raise_if_singular(info)
    return x


@dataclass(frozen=True)
class _ModalFactors:
    """Eigenbasis of the step matrix M = I/dt - L + c I.

    M is self-adjoint in the dual-cell inner product, so S = D^{1/2} M D^{-1/2}
    is symmetric tridiagonal, S = Q diag(mu) Q^T, and M^{-1} =
    D^{-1/2} Q diag(1/mu) Q^T D^{1/2}.  Trajectories are stored as rows, so
    a right-hand side r maps to modal coordinates as r @ to_modal (which is
    (diag(1/mu) Q^T D^{1/2} r)^T) and a modal row w back as w @ to_nodal.
    """

    to_modal: np.ndarray  # D^{1/2} Q diag(1/mu)
    decay: np.ndarray  # 1/(dt mu), the per-mode step multiplier
    to_nodal: np.ndarray  # Q^T D^{-1/2}
    q: np.ndarray  # Q
    root: np.ndarray  # D^{1/2}, as the diagonal


def step_eigenbasis(op: DegenerateOperator, grid: SpaceTimeGrid, c: float) -> _ModalFactors:
    """The step kernel of a number c: the eigenbasis of its step matrix,
    kept on the grid per (op, float(c)), so a control solve builds it once
    for all its forward and adjoint solves and its Gramian, and a c that is
    not a number raises TypeError.  Raises LinAlgError for a singular step
    matrix."""

    def build():
        _, diag, upper = _step_bands(op, grid.dt, 1.0, c)
        root = np.sqrt(op.dual)
        mu, q = eigh_tridiagonal(diag, upper * (root[:-1] / root[1:]))
        if (mu == 0.0).any():
            raise np.linalg.LinAlgError("singular step matrix (zero eigenvalue)")
        return _ModalFactors(
            to_modal=root[:, None] * q / mu,
            decay=1.0 / (grid.dt * mu),
            to_nodal=q.T / root,
            q=q,
            root=root,
        )

    return grid.derived(("step_kernel", float(c)), op, build)


def _modal_march(m: _ModalFactors, b: np.ndarray) -> np.ndarray:
    """Rows x_1..x_k of M x_j = x_{j-1}/dt + b_j with x_0 = 0, for b of shape
    (k, nx-1); an initial datum x_0 enters as b_1 += x_0/dt.

    In modal coordinates (w_j = x_j @ to_nodal^{-1}) the march is
    w_j = decay * w_{j-1} + b_j @ to_modal, a first-order recurrence per mode
    that ceil(log2 k) doubling passes evaluate for all rows at once.
    Overflow and NaN are left to the caller's finiteness check.
    """
    w = b @ m.to_modal
    step, power = 1, m.decay
    while step < len(w):
        w[step:] += power * w[:-step]
        step, power = 2 * step, power * power
    return w @ m.to_nodal


def _march(c, start, sources, grid: SpaceTimeGrid, op, backward=False):
    """A trajectory whose interior rows solve M x_j = x_prev/dt plus the
    sources' rows j (each None for zero, added in order), with x_prev = start
    at the first step, for j = 1, ..., nt or, backward, j = nt, ..., 1.  Row
    0 stays zero.  Raises like forward_solve_linear."""
    dt = grid.dt
    traj = np.zeros((grid.nt + 1, grid.nx + 1))
    rows = slice(None, 0, -1) if backward else slice(1, None)
    out = traj[rows, 1:-1]
    srcs = [s[rows, 1:-1] for s in sources if s is not None]
    kernel = step_eigenbasis(op, grid, c)
    # values beyond float64 are left to the finiteness check below
    with np.errstate(over="ignore", invalid="ignore"):
        b = np.zeros(out.shape)
        b[0] = start / dt
        for s in srcs:
            b += s
        out[...] = _modal_march(kernel, b)
    if not np.isfinite(traj).all():
        raise NonFiniteTrajectory("non-finite values in the solved trajectory")
    return traj


def forward_solve_linear(
    c,
    g: Optional[np.ndarray],
    h: Optional[np.ndarray],
    u0: np.ndarray,
    grid: SpaceTimeGrid,
    op: DegenerateOperator,
) -> np.ndarray:
    """Implicit Euler for u_t - (a u_x)_x + c u = h + g.

    c is a number; g, h are (nt+1, nx+1)
    tabulations (None for zero); h is used as given — restriction to the
    control window is the caller's job.  Returns the full (nt+1, nx+1)
    trajectory with exact Dirichlet rows.  Raises LinAlgError for a singular
    step matrix and NonFiniteTrajectory (a ValueError) for a non-finite
    trajectory.
    """
    u = _march(c, u0[1:-1], (h, g), grid, op)
    u[0, 1:-1] = u0[1:-1]
    return u


def adjoint_solve(
    source: np.ndarray,
    c,
    grid: SpaceTimeGrid,
    op: DegenerateOperator,
    terminal: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Backward implicit Euler for -p_t - (a p_x)_x + c p = source.

    With p_{nt+1} = terminal (default 0), rows j = nt, ..., 1 solve
    M p_j = p_{j+1}/dt + source_j, where M = I/dt - L + c I is the forward
    step matrix, and p_0 = p_1.  For terminal = 0 this is the exact discrete
    adjoint of forward_solve_linear: grid.duality_pairing(source, u) =
    grid.duality_pairing(p, h) for u the forward solution with u0 = 0 and
    control h.  Raises like forward_solve_linear.
    """
    end = np.zeros(grid.nx - 1) if terminal is None else np.asarray(terminal)[1:-1]
    p = _march(c, end, (source,), grid, op, backward=True)
    p[0] = p[1]
    return p


def forward_solve_nonlinear(
    pd: ProblemData,
    h: Optional[np.ndarray],
    grid: SpaceTimeGrid,
    op: DegenerateOperator,
    tol: float = TOL_PICARD,
    maxit: int = MAXIT_PICARD,
    *,
    out: Optional[np.ndarray] = None,
    on_row: Optional[Callable[[int], None]] = None,
) -> np.ndarray:
    """Implicit Euler for the nonlocal semilinear equation
    u_t - ell(int u) (a u_x)_x + f(t, x, u) = h.

    Per step, the nonlocal factor is lagged and f is Newton-linearized around
    the current inner iterate; the inner loop runs until the relative
    increment drops below tol.

    The trajectory is written into out when given (a zeroed (nt+1, nx+1)
    array, which is returned) and else into a new array.  on_row(j) is
    called once row j is final, for j = 0, ..., nt in order; an exception
    it raises ends the solve.
    """
    nt, dt = grid.nt, grid.dt
    x, widths = grid.x[1:-1], grid.dual_widths
    f, df, ell = pd.f.f, pd.f.df_du, pd.ell.ell
    u = np.zeros((nt + 1, grid.nx + 1)) if out is None else out
    u[0, 1:-1] = pd.u0[1:-1]
    if on_row is not None:
        on_row(0)
    # an overflow of f or of an iterate fails its finiteness test below
    with np.errstate(over="ignore", invalid="ignore"):
        for j in range(1, nt + 1):
            tj = grid.t[j]
            # row j is the inner iterate, started from row j-1; its Dirichlet
            # nodes stay 0, so its vecdot with the widths is integrate_space
            row = u[j]
            uk = row[1:-1]
            uk[...] = u[j - 1, 1:-1]
            base = uk / dt if h is None else uk / dt + h[j, 1:-1]
            for it in range(maxit):
                lk = float(ell(float(np.vecdot(row, widths))))
                fk = np.asarray(f(tj, x, uk), dtype=float)
                dfk = np.asarray(df(tj, x, uk), dtype=float)
                x_new = _solve_bands(_step_bands(op, dt, lk, dfk), base - fk + dfk * uk)
                # max|x_new| is NaN or inf iff some entry is
                scale = float(np.abs(x_new).max())
                if not math.isfinite(scale):
                    raise PicardDivergence(
                        f"non-finite inner iterate at t={tj:.4g} (iteration {it})"
                    )
                inc = float(np.abs(x_new - uk).max()) / max(scale, 1e-300)
                uk[...] = x_new
                if inc <= tol:
                    break
            else:
                raise PicardDivergence(
                    f"inner loop at t={tj:.4g} did not reach tol={tol} "
                    f"within {maxit} iterations (last increment {inc:.3g})"
                )
            if on_row is not None:
                on_row(j)
    return u


def h1a_norm_sq(row: np.ndarray, op: DegenerateOperator, grid: SpaceTimeGrid):
    """||w||^2 + ||sqrt(a) w_x||^2 with the gradient term on cell midpoints,
    for one row (a float) or for each row of a (k, nx+1) block."""
    dx = np.diff(grid.x)
    dw = np.diff(row, axis=-1) / dx
    return integrate_space(row * row, grid) + np.sum(op.a_mid * dw * dw * dx, axis=-1)
