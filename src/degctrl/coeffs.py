"""Problem coefficients: degenerate diffusion a, nonlocal factor l, semilinear
term f, and the derived linearized potential c(t,x) = df/du(t,x,0)."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .errors import NonMonotone, NotVanishing, WeakDegeneracyViolated
from .grid import SpaceTimeGrid

__all__ = [
    "DegeneracyCoefficient",
    "NonlocalFactor",
    "SemilinearTerm",
    "ProblemData",
    "power_coefficient",
    "power_cosine_coefficient",
    "tabulated_coefficient",
    "validate_degeneracy",
    "eval_b",
    "linearized_potential",
]

# Boundedness of l' and df/du is only needed locally; small-data control never
# leaves this box.
SAMPLE_RANGE = (-10.0, 10.0)


@dataclass
class DegeneracyCoefficient:
    """Diffusion coefficient a with a(0) = 0, a > 0 and a' >= 0 on (0, 1]."""

    kind: str  # "power" | "power_cosine" | "tabulated"
    a: Callable[[np.ndarray], np.ndarray]
    a_prime: Callable[[np.ndarray], np.ndarray]
    exact_K: Optional[float] = None  # known analytically for "power"

    def __call__(self, x):
        return self.a(np.asarray(x, dtype=float))


def power_coefficient(alpha: float) -> DegeneracyCoefficient:
    """a(x) = x**alpha; weakly degenerate iff alpha < 1 (x a'/a = alpha)."""
    if alpha < 0:
        raise ValueError("alpha must be nonnegative")

    def a(x):
        return np.power(x, alpha)

    def ap(x):
        x = np.asarray(x, dtype=float)
        with np.errstate(divide="ignore"):
            return alpha * np.power(x, alpha - 1.0)

    return DegeneracyCoefficient("power", a, ap, exact_K=float(alpha))


def power_cosine_coefficient(alpha: float) -> DegeneracyCoefficient:
    """a(x) = x**alpha * cos(arctan(alpha) * x)."""
    if not 0 < alpha < 1:
        raise ValueError("alpha must lie in (0, 1)")
    b = math.atan(alpha)

    def a(x):
        x = np.asarray(x, dtype=float)
        return np.power(x, alpha) * np.cos(b * x)

    def ap(x):
        x = np.asarray(x, dtype=float)
        with np.errstate(divide="ignore"):
            return alpha * np.power(x, alpha - 1.0) * np.cos(b * x) - b * np.power(
                x, alpha
            ) * np.sin(b * x)

    return DegeneracyCoefficient("power_cosine", a, ap)


def tabulated_coefficient(x: np.ndarray, values: np.ndarray) -> DegeneracyCoefficient:
    """Piecewise-linear coefficient from samples; a' one-sided near x = 0
    (a is only assumed C1 on (0, 1])."""
    x = np.asarray(x, dtype=float)
    values = np.asarray(values, dtype=float)
    if x.shape != values.shape or x.ndim != 1 or x.size < 3:
        raise ValueError("need matching 1-d sample arrays with >= 3 points")

    def a(q):
        return np.interp(np.asarray(q, dtype=float), x, values)

    # second-order one-sided differences at the left edge, centered inside
    deriv = np.gradient(values, x, edge_order=2)

    def ap(q):
        return np.interp(np.asarray(q, dtype=float), x, deriv)

    return DegeneracyCoefficient("tabulated", a, ap)


def validate_degeneracy(coeff: DegeneracyCoefficient, samples: int = 10_000) -> float:
    """Estimate K = sup x a'(x)/a(x) and accept iff K < 1 (weak degeneracy).

    Analytic power coefficients report their exact exponent; other kinds are
    sampled on a log-spaced grid on (1e-12, 1].
    """
    if samples < 100:
        raise ValueError("need at least 100 samples")
    a0 = float(np.asarray(coeff.a(np.array([0.0])))[0])
    if abs(a0) > 1e-12:
        raise NotVanishing(f"a(0) = {a0}, expected 0")
    xs = np.logspace(-12, 0, samples)
    ax = np.asarray(coeff.a(xs), dtype=float)
    apx = np.asarray(coeff.a_prime(xs), dtype=float)
    if (ax <= 0).any():
        raise NotVanishing("a must be positive on (0, 1]")
    if (apx < -1e-12 * np.maximum(ax, 1.0)).any():
        raise NonMonotone("a' < 0 detected on (0, 1]")
    if coeff.exact_K is not None:
        K = coeff.exact_K
    else:
        K = float(np.max(xs * apx / ax))
    if K >= 1.0:
        raise WeakDegeneracyViolated(f"estimated K = {K} >= 1")
    return K


@dataclass
class NonlocalFactor:
    """C1 factor l acting on the state mean, normalized by l(0) = 1."""

    ell: Callable[[float], float]
    ell_prime: Callable[[float], float]

    def __post_init__(self):
        if abs(self.ell(0.0) - 1.0) > 1e-12:
            raise ValueError(f"l(0) = {self.ell(0.0)}, expected 1")
        rs = np.linspace(SAMPLE_RANGE[0], SAMPLE_RANGE[1], 2001)
        dv = np.array([self.ell_prime(float(r)) for r in rs])
        if not np.isfinite(dv).all():
            raise ValueError("l' unbounded on sampled range")

    @staticmethod
    def constant() -> "NonlocalFactor":
        return NonlocalFactor(lambda r: 1.0, lambda r: 0.0)

    @staticmethod
    def affine(slope: float) -> "NonlocalFactor":
        return NonlocalFactor(lambda r: 1.0 + slope * r, lambda r: slope)


@dataclass
class SemilinearTerm:
    """Semilinear term f(t,x,u) with f(t,x,0) = 0 and bounded df/du."""

    f: Callable[[float, np.ndarray, np.ndarray], np.ndarray]
    df_du: Callable[[float, np.ndarray, np.ndarray], np.ndarray]

    def __post_init__(self):
        # f(.,.,0) = 0 enforced on a coarse sample before any solve
        ts = np.linspace(0.0, 1.0, 7)
        xs = np.linspace(0.0, 1.0, 13)
        z = np.zeros_like(xs)
        for t in ts:
            if np.max(np.abs(np.asarray(self.f(t, xs, z)))) > 1e-12:
                raise ValueError("f(t, x, 0) must vanish identically")
        us = np.linspace(SAMPLE_RANGE[0], SAMPLE_RANGE[1], 41)
        for t in (0.0, 0.5, 1.0):
            for u in us:
                d = np.asarray(self.df_du(t, xs, np.full_like(xs, u)))
                if not np.isfinite(d).all():
                    raise ValueError("df/du unbounded on sampled range")

    @staticmethod
    def linear(coeff: float = 1.0) -> "SemilinearTerm":
        return SemilinearTerm(
            lambda t, x, u: coeff * u, lambda t, x, u: coeff * np.ones_like(u)
        )

    @staticmethod
    def sine(coeff: float = 1.0) -> "SemilinearTerm":
        return SemilinearTerm(
            lambda t, x, u: coeff * np.sin(u), lambda t, x, u: coeff * np.cos(u)
        )

    @staticmethod
    def logistic(coeff: float = 1.0) -> "SemilinearTerm":
        return SemilinearTerm(
            lambda t, x, u: coeff * u * (1.0 - u),
            lambda t, x, u: coeff * (1.0 - 2.0 * u),
        )

    @staticmethod
    def polynomial(coeffs) -> "SemilinearTerm":
        """f(u) = sum_k coeffs[k] * u**(k+1) (no constant term).

        Terms with a zero coefficient are not evaluated.
        """
        terms = [(k, float(c)) for k, c in enumerate(coeffs) if float(c) != 0.0]

        def f(t, x, u):
            u = np.asarray(u, dtype=float)
            out = np.zeros_like(u)
            for k, c in terms:
                out += c * u ** (k + 1)
            return out

        def dfdu(t, x, u):
            u = np.asarray(u, dtype=float)
            out = np.zeros_like(u)
            for k, c in terms:
                out += c * (k + 1) * u**k
            return out

        return SemilinearTerm(f, dfdu)


def eval_b(coeff: DegeneracyCoefficient, ell: NonlocalFactor, x, r: float):
    """Separated-variable diffusion b(x, r) = l(r) * a(x)."""
    return ell.ell(float(r)) * coeff(x)


def linearized_potential(f: SemilinearTerm, grid: SpaceTimeGrid) -> np.ndarray:
    """Tabulate c(t_j, x_i) = df/du(t_j, x_i, 0) on the grid."""
    z = np.zeros(grid.nx + 1)
    c = np.empty((grid.nt + 1, grid.nx + 1))
    for j, t in enumerate(grid.t):
        c[j] = np.asarray(f.df_du(float(t), grid.x, z), dtype=float)
    if not np.isfinite(c).all():
        raise ValueError("linearized potential not finite on the grid")
    return c


@dataclass
class ProblemData:
    """Full nonlinear problem: coefficients, control window, horizon, data."""

    a: DegeneracyCoefficient
    ell: NonlocalFactor
    f: SemilinearTerm
    omega: tuple  # (x_left, x_right), compactly inside (0, 1)
    T: float
    u0: np.ndarray  # nodal initial datum, Dirichlet-compatible

    def __post_init__(self):
        xl, xr = self.omega
        if not (0.0 < xl < xr < 1.0):
            raise ValueError(f"control window {self.omega} must sit inside (0, 1)")
        if not self.T > 0:
            raise ValueError("T must be positive")
        self.u0 = np.array(self.u0, dtype=float)
        scale = max(float(np.max(np.abs(self.u0))), 1.0)
        if abs(self.u0[0]) > 1e-12 * scale or abs(self.u0[-1]) > 1e-12 * scale:
            raise ValueError("u0 must vanish at both boundary nodes")
        self.u0[0] = 0.0
        self.u0[-1] = 0.0
