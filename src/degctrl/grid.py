"""Space-time grids, nonuniform quadrature and overflow-safe weighted integrals.

The spatial mesh is graded toward x = 0 (where the diffusion coefficient
vanishes) by the map x_i = (i/nx)**gamma; the time grid is uniform.

Integrals against exponential weights are carried in factored form
``mantissa * exp(log_scale)`` (:class:`LogValue`) because the weights reach
exp of +-1e6 and beyond, far outside float64 range.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from functools import cached_property

import numpy as np

__all__ = [
    "LogValue",
    "SpaceTimeGrid",
    "build_grid",
    "integrate_space",
    "integrate_spacetime_logweight",
]


@dataclass(frozen=True)
class LogValue:
    """Nonnegative real stored as ``mantissa * exp(log_scale)``."""

    mantissa: float
    log_scale: float = 0.0

    @staticmethod
    def from_float(x: float) -> "LogValue":
        if x < 0:
            raise ValueError("LogValue represents nonnegative quantities")
        return LogValue(float(x), 0.0)

    @staticmethod
    def zero() -> "LogValue":
        return LogValue(0.0, 0.0)

    def is_zero(self) -> bool:
        return self.mantissa == 0.0

    def log(self) -> float:
        """Natural log of the value (-inf for zero)."""
        if self.mantissa == 0.0:
            return -math.inf
        return math.log(self.mantissa) + self.log_scale

    def to_float(self) -> float:
        """Collapse to a plain float; overflows to inf for huge scales."""
        if self.mantissa == 0.0:
            return 0.0
        lg = self.log()
        if lg > 709.0:
            return math.inf
        return math.exp(lg)

    def __add__(self, other: "LogValue") -> "LogValue":
        if self.is_zero():
            return other
        if other.is_zero():
            return self
        big, small = (self, other) if self.log() >= other.log() else (other, self)
        return LogValue(
            big.mantissa * (1.0 + math.exp(small.log() - big.log())),
            big.log_scale,
        )

    def __mul__(self, other: "LogValue") -> "LogValue":
        m = self.mantissa * other.mantissa
        if not (sys.float_info.min <= abs(m) <= sys.float_info.max) and not (
            self.is_zero() or other.is_zero()
        ):
            # mantissa product left normal range; renormalize via logs
            return LogValue(1.0, self.log() + other.log())
        return LogValue(m, self.log_scale + other.log_scale)

    def shifted(self, delta_log: float) -> "LogValue":
        """Multiply by exp(delta_log)."""
        return LogValue(self.mantissa, self.log_scale + delta_log)

    def ratio(self, other: "LogValue") -> "LogValue":
        """self / other, for positive ``other``."""
        if other.is_zero():
            raise ZeroDivisionError("ratio with zero denominator")
        if self.is_zero():
            return LogValue.zero()
        return LogValue(self.mantissa / other.mantissa, self.log_scale - other.log_scale)

    def __lt__(self, other: "LogValue") -> bool:
        return self.log() < other.log()

    def __le__(self, other: "LogValue") -> bool:
        return self.log() <= other.log()


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


def integrate_spacetime_logweight(
    logw: np.ndarray, values: np.ndarray, grid: SpaceTimeGrid
) -> LogValue:
    """Space-time integral of exp(logw) * values over interior time rows.

    ``logw`` and ``values`` are (nt+1, nx+1) tabulations; ``values`` must be
    nonnegative.  Rows 0 and nt are excluded (the weights are improper
    there); the result is exact under a constant shift of ``logw``: shifting
    logw by kappa shifts ``log_scale`` by exactly kappa.
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
        return LogValue.zero()
    wt = grid.interior_time_weights
    d = grid.dual_widths
    s = float(np.einsum("j,i,ji->", wt, d, np.exp(total - m)))
    return LogValue(s, m)
