"""Implicit finite-difference solvers on the degenerate 1-D operator.

The discrete operator L approximates (a u_x)_x with a evaluated at cell
midpoints, which is symmetric and negative semidefinite in the dual-cell
weighted inner product.  The backward solver is the exact discrete adjoint of
the forward map (discretize-then-optimize), which the control iterations
rely on.

The linear solvers have two step kernels, chosen from the input:

- Modal, when the potential c is the same in every time row (every built-in
  f gives such a c) and nx <= MODAL_MAX_NX.  Self-adjointness makes
  D^{1/2} M D^{-1/2} symmetric for the step matrix M = I/dt - L + diag(c),
  D the dual widths, so one eigh_tridiagonal diagonalizes every step.  A
  solve is then one GEMM into modal coordinates, a per-mode doubling scan of
  the recurrence w_j = w_{j-1}/(dt mu) + ..., and one GEMM back.  The
  eigenbasis is cached on the operator, so a whole control solve runs one
  eigendecomposition.  Results agree with the LAPACK kernel to about 1e-13
  relative (not bit for bit), so CG iteration counts, which stop at the
  rounding floor, can differ by a few iterations from a run of that kernel.
- LAPACK otherwise: dgttrs per step, with the step matrix factored by dgttrf
  once per call (once per row when c varies in time).

The Picard stepper of the nonlinear solve calls dgtsv, since its matrix
changes with every inner iterate.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np
from scipy.linalg import eigh_tridiagonal
from scipy.linalg.lapack import dgtsv, dgttrf, dgttrs

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
    "duality_pairing",
    "h1a_norm_sq",
]

TOL_PICARD = 1e-10
MAXIT_PICARD = 50

# Largest nx served by the modal kernel.  Its two GEMMs cost O(nt nx^2)
# against the O(nt nx) of one dgttrs per step, so it loses on wide grids.
# Forward/adjoint solve at nx = nt, constant c, µs, LAPACK -> modal (min of
# 21, one BLAS thread, 2-vCPU Xeon): 64: 238/226 -> 79/76; 128: 615/569 ->
# 358/341; 160: 803/780 -> 614/608; 192: 1067/1085 -> 1346/1255;
# 256: 1713/1725 -> 2928/2631.  The cut-off sits below the crossover
# (between 160 and 192) to leave room for slower BLAS builds.
MODAL_MAX_NX = 128


@dataclass
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
    # the last _ModalFactors built for this operator; a one-entry cache, not
    # copied by dataclasses.replace
    modal: Optional["_ModalFactors"] = field(
        default=None, init=False, repr=False, compare=False
    )


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
    return DegenerateOperator(
        lower=lower, diag=diag, upper=upper, a_mid=a_mid, dual=dual
    )


def apply_operator(op: DegenerateOperator, u: np.ndarray) -> np.ndarray:
    """(L u) at all nodes of one row; Dirichlet rows map to 0."""
    out = np.zeros_like(u)
    out[1:-1] = op.diag * u[1:-1]
    out[2:-1] += op.lower[1:] * u[1:-2]
    out[1:-2] += op.upper[:-1] * u[2:-1]
    return out


def _step_bands(op: DegenerateOperator, dt: float, ell: float, c_row):
    """(lower, diag, upper) bands of I/dt - ell*L + diag(c_row) on interior
    nodes, in the layout of LAPACK's tridiagonal routines."""
    return -ell * op.lower[1:], 1.0 / dt - ell * op.diag + c_row, -ell * op.upper[:-1]


def _raise_if_singular(info: int) -> None:
    if info > 0:
        raise np.linalg.LinAlgError(f"singular step matrix (zero pivot at row {info})")


def _step_factors(op: DegenerateOperator, dt: float, c: np.ndarray) -> list:
    """dgttrf factors of the step matrix of rows j = 1..nt, at index j - 1.

    When c is the same in every row (every built-in f gives such a c), all
    rows share one factorization.
    """
    rows = c[1:, 1:-1]

    def factor(c_row):
        *lu, info = dgttrf(*_step_bands(op, dt, 1.0, c_row))
        _raise_if_singular(info)
        return lu

    if (rows == rows[0]).all():
        return [factor(rows[0])] * len(rows)
    return [factor(c_row) for c_row in rows]


@dataclass(frozen=True)
class _ModalFactors:
    """Eigenbasis of the step matrix M = I/dt - L + diag(c_row).

    M is self-adjoint in the dual-cell inner product, so S = D^{1/2} M D^{-1/2}
    is symmetric tridiagonal, S = Q diag(mu) Q^T, and M^{-1} =
    D^{-1/2} Q diag(1/mu) Q^T D^{1/2}.  Trajectories are stored as rows, so
    a right-hand side r maps to modal coordinates as r @ to_modal (which is
    (diag(1/mu) Q^T D^{1/2} r)^T) and a modal row w back as w @ to_nodal.
    """

    key: tuple  # (dt, bytes of c_row)
    to_modal: np.ndarray  # D^{1/2} Q diag(1/mu)
    decay: np.ndarray  # 1/(dt mu), the per-mode step multiplier
    to_nodal: np.ndarray  # Q^T D^{-1/2}


def _modal_factors(
    op: DegenerateOperator, dt: float, c: np.ndarray
) -> Optional[_ModalFactors]:
    """The modal factors of the step matrix, or None where the LAPACK kernel
    runs: when c differs between time rows or nx > MODAL_MAX_NX.

    The factors are cached on op, keyed by dt and the c row, so a control
    solve runs one eigendecomposition for all its forward and adjoint solves.
    Raises LinAlgError for a singular step matrix (a zero eigenvalue).
    """
    rows = c[1:, 1:-1]
    if op.diag.size + 1 > MODAL_MAX_NX or not (rows == rows[0]).all():
        return None
    key = (dt, rows[0].tobytes())
    if op.modal is None or op.modal.key != key:
        _, diag, upper = _step_bands(op, dt, 1.0, rows[0])
        root = np.sqrt(op.dual)
        mu, q = eigh_tridiagonal(diag, upper * (root[:-1] / root[1:]))
        if (mu == 0.0).any():
            raise np.linalg.LinAlgError("singular step matrix (zero eigenvalue)")
        op.modal = _ModalFactors(
            key=key,
            to_modal=root[:, None] * q / mu,
            decay=1.0 / (dt * mu),
            to_nodal=q.T / root,
        )
    return op.modal


def _modal_march(m: _ModalFactors, b: np.ndarray) -> np.ndarray:
    """Rows x_1..x_k of M x_j = x_{j-1}/dt + b_j with x_0 = 0, for b of shape
    (k, nx-1); an initial datum x_0 enters as b_1 += x_0/dt.

    In modal coordinates (w_j = x_j @ to_nodal^{-1}) the march is
    w_j = decay * w_{j-1} + b_j @ to_modal, a first-order recurrence per mode
    that ceil(log2 k) doubling passes evaluate for all rows at once.
    Overflow and NaN are left to the caller's finiteness check.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        w = b @ m.to_modal
        step, power = 1, m.decay
        while step < len(w):
            w[step:] += power * w[:-step]
            step, power = 2 * step, power * power
        return w @ m.to_nodal


def _require_finite(traj: np.ndarray) -> np.ndarray:
    if not np.isfinite(traj).all():
        raise NonFiniteTrajectory("non-finite values in the solved trajectory")
    return traj


def forward_solve_linear(
    c: np.ndarray,
    g: Optional[np.ndarray],
    h: Optional[np.ndarray],
    u0: np.ndarray,
    grid: SpaceTimeGrid,
    op: DegenerateOperator,
) -> np.ndarray:
    """Implicit Euler for u_t - (a u_x)_x + c u = h + g.

    c, g, h are (nt+1, nx+1) tabulations (g/h may be None for zero); h is
    used as given — restriction to the control window is the caller's job.
    Returns the full (nt+1, nx+1) trajectory with exact Dirichlet rows.
    Raises LinAlgError for a singular step matrix and NonFiniteTrajectory
    (a ValueError) for a non-finite trajectory.
    """
    nt, nx, dt = grid.nt, grid.nx, grid.dt
    u = np.zeros((nt + 1, nx + 1))
    u[0, 1:-1] = u0[1:-1]
    modal = _modal_factors(op, dt, c)
    if modal is not None:
        b = np.zeros((nt, nx - 1))
        b[0] = u[0, 1:-1] / dt
        if h is not None:
            b += h[1:, 1:-1]
        if g is not None:
            b += g[1:, 1:-1]
        u[1:, 1:-1] = _modal_march(modal, b)
        return _require_finite(u)
    lus = _step_factors(op, dt, c)
    for j in range(1, nt + 1):
        rhs = u[j - 1, 1:-1] / dt
        if h is not None:
            rhs += h[j, 1:-1]
        if g is not None:
            rhs += g[j, 1:-1]
        u[j, 1:-1] = dgttrs(*lus[j - 1], rhs, overwrite_b=1)[0]
    return _require_finite(u)


def adjoint_solve(
    source: np.ndarray,
    c: np.ndarray,
    grid: SpaceTimeGrid,
    op: DegenerateOperator,
    terminal: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Backward implicit Euler for -p_t - (a p_x)_x + c p = source.

    With p_{nt+1} = terminal (default 0), rows j = nt, ..., 1 solve
    M_j p_j = p_{j+1}/dt + source_j, where M_j = I/dt - L + diag(c_j) is the
    forward step matrix of row j, and p_0 = p_1.  For terminal = 0 this is
    the exact discrete adjoint of forward_solve_linear:
    duality_pairing(source, u) = duality_pairing(p, h) for u the forward
    solution with u0 = 0 and control h.  Raises like forward_solve_linear.
    """
    nt, nx, dt = grid.nt, grid.nx, grid.dt
    p = np.zeros((nt + 1, nx + 1))
    modal = _modal_factors(op, dt, c)
    if modal is not None:
        b = source[:0:-1, 1:-1].copy()  # rows nt, ..., 1
        if terminal is not None:
            b[0] += np.asarray(terminal)[1:-1] / dt
        p[:0:-1, 1:-1] = _modal_march(modal, b)
        p[0] = p[1]
        return _require_finite(p)
    p_next = np.zeros(nx - 1) if terminal is None else np.asarray(terminal)[1:-1]
    lus = _step_factors(op, dt, c)
    for j in range(nt, 0, -1):
        rhs = p_next / dt + source[j, 1:-1]
        p_next = dgttrs(*lus[j - 1], rhs, overwrite_b=1)[0]
        p[j, 1:-1] = p_next
    p[0] = p[1]
    return _require_finite(p)


def duality_pairing(a_traj: np.ndarray, b_traj: np.ndarray, grid: SpaceTimeGrid):
    """dt * sum_{j=1..nt} (a_j, b_j)_D — the pairing under which the backward
    solve is the exact transpose of the forward one."""
    rows = np.einsum("ji,i,ji->j", a_traj[1:], grid.dual_widths, b_traj[1:])
    return grid.dt * float(np.sum(rows))


def forward_solve_nonlinear(
    pd: ProblemData,
    h: Optional[np.ndarray],
    grid: SpaceTimeGrid,
    op: DegenerateOperator,
    tol: float = TOL_PICARD,
    maxit: int = MAXIT_PICARD,
) -> np.ndarray:
    """Implicit Euler for the nonlocal semilinear equation
    u_t - ell(int u) (a u_x)_x + f(t, x, u) = h.

    Per step, the nonlocal factor is lagged and f is Newton-linearized around
    the current inner iterate; the inner loop runs until the relative
    increment drops below tol.
    """
    nt, nx, dt = grid.nt, grid.nx, grid.dt
    x = grid.x
    u = np.zeros((nt + 1, nx + 1))
    u[0, 1:-1] = pd.u0[1:-1]
    f, df = pd.f.f, pd.f.df_du
    ell = pd.ell.ell

    for j in range(1, nt + 1):
        tj = grid.t[j]
        uk = u[j - 1].copy()
        base = u[j - 1, 1:-1] / dt
        if h is not None:
            base = base + h[j, 1:-1]
        for it in range(maxit):
            r = integrate_space(uk, grid)
            lk = float(ell(r))
            fk = np.asarray(f(tj, x[1:-1], uk[1:-1]), dtype=float)
            dfk = np.asarray(df(tj, x[1:-1], uk[1:-1]), dtype=float)
            rhs = base - fk + dfk * uk[1:-1]
            *_, x_new, info = dgtsv(*_step_bands(op, dt, lk, dfk), rhs)
            _raise_if_singular(info)
            if not np.isfinite(x_new).all():
                raise PicardDivergence(
                    f"non-finite inner iterate at t={tj:.4g} (iteration {it})"
                )
            unew = np.zeros_like(uk)
            unew[1:-1] = x_new
            scale = max(float(np.max(np.abs(unew))), 1e-300)
            inc = float(np.max(np.abs(unew - uk))) / scale
            uk = unew
            if inc <= tol:
                break
        else:
            raise PicardDivergence(
                f"inner loop at t={tj:.4g} did not reach tol={tol} "
                f"within {maxit} iterations (last increment {inc:.3g})"
            )
        u[j] = uk
    return u


def h1a_norm_sq(
    row: np.ndarray, op: DegenerateOperator, grid: SpaceTimeGrid
) -> float:
    """||w||^2 + ||sqrt(a) w_x||^2 with the gradient term on cell midpoints."""
    l2 = integrate_space(row * row, grid)
    dw = np.diff(row) / np.diff(grid.x)
    grad = float(np.sum(op.a_mid * dw * dw * np.diff(grid.x)))
    return l2 + grad
