"""Space-time grids, nonuniform quadrature and overflow-safe weighted integrals.

The spatial mesh is graded toward x = 0 (where the diffusion coefficient
vanishes) by the map x_i = (i/nx)**gamma; the time grid is uniform.

Integrals against exponential weights are carried as their natural logs,
plain floats with -inf for zero, because the weights reach exp of +-1e6 and
beyond, far outside float64 range.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

__all__ = [
    "SpaceTimeGrid",
    "build_grid",
    "window_mask",
    "integrate_space",
    "integrate_interior",
    "norm_sq",
    "duality_pairing",
    "integrate_spacetime_logweight",
]


@dataclass(frozen=True)
class SpaceTimeGrid:
    """Graded spatial nodes on [0, 1] and uniform time levels on [0, T]."""

    nx: int
    nt: int
    x: np.ndarray  # nx + 1 strictly increasing nodes, x[0] = 0, x[-1] = 1
    t: np.ndarray  # nt + 1 uniform levels, t[0] = 0, t[-1] = T
    gamma: float

    @property
    def T(self) -> float:
        return float(self.t[-1])

    @property
    def dt(self) -> float:
        return float(self.t[-1]) / self.nt

    @cached_property
    def dual_widths(self) -> np.ndarray:
        """Trapezoid (dual-cell) weights in space; sums to 1.  Computed once
        per grid and read-only."""
        d = np.empty(self.nx + 1)
        d[0] = 0.5 * (self.x[1] - self.x[0])
        d[-1] = 0.5 * (self.x[-1] - self.x[-2])
        d[1:-1] = 0.5 * (self.x[2:] - self.x[:-2])
        d.setflags(write=False)
        return d

    @cached_property
    def interior_time_weights(self) -> np.ndarray:
        """Quadrature weights for interior time rows j = 1..nt-1; sums to T.

        The endpoint rows are excluded (the weighted integrands are improper
        there); the first and last interior rows absorb the boundary
        half-cells, so a constant integrand still integrates to exactly T.
        Computed once per grid and read-only.
        """
        w = np.full(self.nt - 1, self.dt)
        w[0] += 0.5 * self.dt
        w[-1] += 0.5 * self.dt
        w.setflags(write=False)
        return w


def build_grid(nx: int, nt: int, T: float, gamma: float = 2.0) -> SpaceTimeGrid:
    """Build the graded space grid x_i = (i/nx)**gamma and uniform time grid."""
    if nx < 2:
        raise ValueError(f"nx must be at least 2, got {nx}")
    if nt < 2:
        raise ValueError(f"nt must be at least 2, got {nt}")
    if not T > 0:
        raise ValueError(f"T must be positive, got {T}")
    if gamma < 1:
        raise ValueError(f"gamma must be >= 1, got {gamma}")
    x = (np.arange(nx + 1) / nx) ** gamma
    x[0], x[-1] = 0.0, 1.0
    t = np.linspace(0.0, T, nt + 1)
    return SpaceTimeGrid(nx=nx, nt=nt, x=x, t=t, gamma=float(gamma))


def safe_log(x: float) -> float:
    """math.log extended by log 0 = -inf; NaN and inf pass through."""
    return math.log(x) if x != 0.0 else -math.inf


def window_mask(grid: SpaceTimeGrid, omega) -> np.ndarray:
    """The nodes of the control window omega = (xl, xr), both ends included."""
    return (grid.x >= omega[0]) & (grid.x <= omega[1])


def integrate_space(values: np.ndarray, grid: SpaceTimeGrid):
    """Trapezoid rule on the nonuniform mesh along the last axis; exact for
    affine integrands.  One row gives a float, a (k, nx+1) block of rows
    the k row integrals, each bit-identical to integrating its row alone."""
    values = np.asarray(values, dtype=float)
    if values.ndim == 0 or values.shape[-1] != grid.nx + 1:
        raise ValueError(
            f"expected {grid.nx + 1} nodal values, got shape {values.shape}"
        )
    total = np.vecdot(values, grid.dual_widths)  # one BLAS ddot per row
    return float(total) if values.ndim == 1 else total


def l2_norm(row: np.ndarray, grid: SpaceTimeGrid) -> float:
    """sqrt(integrate_space(row**2)).  A finite row whose squares overflow
    float64 is scaled by max|row| first, so that a finite norm stays finite."""
    with np.errstate(over="ignore"):
        sq = integrate_space(row**2, grid)
    top = float(np.max(np.abs(row)))
    if sq == np.inf and np.isfinite(top):
        return top * l2_norm(row / top, grid)
    return float(np.sqrt(sq))


def integrate_interior(rows: np.ndarray, grid: SpaceTimeGrid) -> float:
    """The interior space-time quadrature sum_j wt_j sum_i d_i rows_ji of an
    (nt-1, nx+1) block holding the time rows 1..nt-1, with wt the
    ``interior_time_weights`` and d the ``dual_widths``."""
    return float(np.einsum("j,ji,i->", grid.interior_time_weights, rows, grid.dual_widths))


def log_norm_sq(v: np.ndarray, grid: SpaceTimeGrid, integrate=integrate_interior) -> float:
    """log integrate(v**2): over a block of interior rows, or over one row
    with ``integrate_space``.  Where the squares of a finite v overflow
    float64, v is scaled by max|v| first, as in l2_norm, so that the log
    stays finite."""
    with np.errstate(over="ignore"):
        quad = integrate(v**2, grid)
    top = float(np.max(np.abs(v)))
    if not math.isfinite(quad) and math.isfinite(top):
        return safe_log(integrate((v / top) ** 2, grid)) + 2.0 * math.log(top)
    return safe_log(quad)


def duality_pairing(a_traj: np.ndarray, b_traj: np.ndarray, grid: SpaceTimeGrid):
    """dt * sum_{j=1..nt} (a_j, b_j)_D over rows 1..nt, the pairing under
    which pde's backward solve is the exact transpose of the forward one."""
    rows = np.einsum("ji,i,ji->j", a_traj[1:], grid.dual_widths, b_traj[1:])
    return grid.dt * float(np.sum(rows))


def integrate_spacetime_logweight(
    logw: np.ndarray, values: np.ndarray, grid: SpaceTimeGrid
) -> float:
    """Log of the space-time integral of exp(logw) * values over interior
    time rows (-inf when the integral is zero).

    ``logw`` and ``values`` are (nt+1, nx+1) tabulations; ``values`` must be
    nonnegative.  Rows 0 and nt are excluded (the weights are improper
    there).  The integral is summed after a shift by the largest log term m
    and returned as log(sum) + m, so it never leaves float64 range.
    """
    logw = np.asarray(logw, dtype=float)
    values = np.asarray(values, dtype=float)
    shape = (grid.nt + 1, grid.nx + 1)
    if logw.shape != shape or values.shape != shape:
        raise ValueError(f"expected arrays of shape {shape}")
    lw = logw[1 : grid.nt]
    vv = values[1 : grid.nt]
    # shift by the max of logw + log(values) jointly, so the result is
    # immune to the weight maximum landing on a node where values vanish
    with np.errstate(divide="ignore", invalid="ignore"):
        total = lw + np.log(vv)
    if np.isnan(total).any():  # NaN input, a negative value, or inf * 0
        if np.isnan(lw).any() or np.isnan(vv).any():
            raise ValueError("NaN in weighted-integral inputs")
        if (vv < 0).any():
            raise ValueError("values must be nonnegative")
        total[vv == 0] = -math.inf
    m = float(np.max(total))
    if m == -math.inf:
        return -math.inf
    return safe_log(integrate_interior(np.exp(total - m), grid)) + m
