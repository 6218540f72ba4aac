"""Problem coefficients: degenerate diffusion a, nonlocal factor l, semilinear
term f, and the derived linearized potential c = df/du(t,x,0), a number."""

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
    "validate_degeneracy",
    "linearized_potential",
]

# Boundedness of l' and df/du is only needed locally; small-data control never
# leaves this box.
SAMPLE_RANGE = (-10.0, 10.0)


@dataclass
class DegeneracyCoefficient:
    """Diffusion coefficient a with a(0) = 0, a > 0 and a' >= 0 on (0, 1], and
    the exact primitive F(x) = int_0^x y/a(y) dy that the Carleman profile
    psi is built from; both constructors below set it."""

    kind: str  # "power" | "power_cosine"
    a: Callable[[np.ndarray], np.ndarray]
    a_prime: Callable[[np.ndarray], np.ndarray]
    exact_K: Optional[float] = None  # known analytically for "power"
    primitive: Optional[Callable[[np.ndarray], np.ndarray]] = None

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

    p = 2.0 - alpha

    def primitive(x):
        return np.asarray(x, dtype=float) ** p * (1.0 / p)

    return DegeneracyCoefficient("power", a, ap, exact_K=float(alpha), primitive=primitive)


def power_cosine_coefficient(alpha: float) -> DegeneracyCoefficient:
    """a(x) = x**alpha * cos(b x), b = arctan(alpha), with primitive the sec
    series x^p sum_n S_n (b x)^2n / (p + 2n), p = 2 - alpha.  As b x < pi/4,
    each term is at most a quarter of the one before: 30 terms reach 1e-18."""
    if not 0 < alpha < 1:
        raise ValueError("alpha must lie in (0, 1)")
    b, p = math.atan(alpha), 2.0 - alpha
    S = [1.0]  # Maclaurin coefficients of sec in z^2, from sec * cos = 1
    for n in range(1, 30):
        S.append(sum((-1) ** (k + 1) * S[n - k] / math.factorial(2 * k) for k in range(1, n + 1)))
    c = np.array(S) / (p + 2.0 * np.arange(30))

    def a(x):
        x = np.asarray(x, dtype=float)
        return np.power(x, alpha) * np.cos(b * x)

    def ap(x):
        x = np.asarray(x, dtype=float)
        with np.errstate(divide="ignore"):
            return alpha * np.power(x, alpha - 1.0) * np.cos(b * x) - b * np.power(
                x, alpha
            ) * np.sin(b * x)

    def primitive(x):
        x = np.asarray(x, dtype=float)
        return x**p * np.polyval(c[::-1], (b * x) ** 2)

    return DegeneracyCoefficient("power_cosine", a, ap, primitive=primitive)


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

        Terms with a zero coefficient are not evaluated.  Powers are running
        products u*u*...*u rather than libm's pow, which costs about fifteen
        times as much on a grid row; u**3 and higher may then differ from pow
        by an ulp or two, while u, u**2 and the cubic's df/du stay exact.
        """
        terms = [(k, float(c)) for k, c in enumerate(coeffs) if float(c) != 0.0]

        def series(terms):
            # u -> sum of c * u^k over the (k, c) of terms, by running products
            def value(t, x, u):
                u = np.asarray(u, dtype=float)
                out, power, done = np.zeros(u.shape), 1.0, 0
                for k, c in terms:
                    for _ in range(k - done):
                        power = power * u
                    out += c * power
                    done = k
                return out

            return value

        powers = [(k + 1, c) for k, c in terms]  # c * u^(k+1), and c (k+1) u^k below
        return SemilinearTerm(series(powers), series([(m - 1, c * m) for m, c in powers]))


def linearized_potential(f: SemilinearTerm, grid: SpaceTimeGrid) -> float:
    """The potential c = df/du(t, x, 0) of the linearized equation, as the one
    number the solvers take.  Raises ValueError unless it is finite and the
    same at every node of the grid."""
    z = np.zeros(grid.nx + 1)
    c = np.empty((grid.nt + 1, grid.nx + 1))
    for j, t in enumerate(grid.t):
        c[j] = np.asarray(f.df_du(float(t), grid.x, z), dtype=float)
    if not np.isfinite(c).all():
        raise ValueError("linearized potential not finite on the grid")
    if not (c == c[0, 0]).all():
        raise ValueError("linearized potential df/du(t, x, 0) varies over the grid")
    return float(c[0, 0])


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
