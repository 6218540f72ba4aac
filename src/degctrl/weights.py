"""Carleman weight functions, in log space.

All exponential weights are tabulated by their logarithms: the factor
exp(-s*A) reaches exp(1e8) on desk-scale grids, so the log tabulation is the
only representation that survives float64.  Per-(t,x) arrays cover the
interior time rows; the t = T row is filled with the limiting values
(+-inf where the weights are improper).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np
from scipy.integrate import quad

from .coeffs import DegeneracyCoefficient
from .grid import SpaceTimeGrid, window_mask

__all__ = [
    "CarlemanParams",
    "PsiFunction",
    "WeightFields",
    "TruncatedFields",
    "default_omega_prime",
    "build_psi",
    "eval_m",
    "build_weight_fields",
    "build_truncated_fields",
]


def default_omega_prime(omega, margin: float = 0.25):
    """Interior window strictly inside the control window, with symmetric
    margins left for the cutoff function of the observation estimate."""
    xl, xr = omega
    w = xr - xl
    return (xl + margin * w, xr - margin * w)


@dataclass
class CarlemanParams:
    s: float = 1.0
    lam: float = 2.0
    omega_prime: Optional[tuple] = None
    M: Optional[float] = None  # filled from s * beta_bar / 2 at build time

    def __post_init__(self):
        if self.s <= 0 or self.lam <= 0:
            raise ValueError("s and lambda must be positive")


@dataclass
class PsiFunction:
    """C2 profile: integral of y/a(y) from 0 on [0, a'), mirrored on [b', 1],
    quintic Hermite blend in between."""

    alpha_p: float
    beta_p: float
    psi_nodes: np.ndarray
    psi_prime_nodes: np.ndarray
    psi_inf: float
    blend_coeffs: np.ndarray  # quintic in (x - a') / (b' - a')

    def blend(self, x):
        u = (np.asarray(x, dtype=float) - self.alpha_p) / (self.beta_p - self.alpha_p)
        return np.polyval(self.blend_coeffs[::-1], u)


def _integrand(a: DegeneracyCoefficient):
    def iy(y: float) -> float:
        if y == 0.0:
            return 0.0
        return y / float(a(y))

    return iy


def build_psi(
    a: DegeneracyCoefficient, omega_prime, grid: SpaceTimeGrid
) -> PsiFunction:
    """Tabulate psi and psi' at the grid nodes.

    psi(x) = int_0^x y/a(y) dy on [0, a'); psi(b') = 0 and
    psi(x) = -int_{b'}^x y/a(y) dy on [b', 1]; quintic Hermite blend on
    [a', b'] matching value, slope and curvature at both junctions.
    """
    ap, bp = omega_prime
    if not (0.0 < ap < bp < 1.0):
        raise ValueError("omega_prime must sit strictly inside (0, 1)")
    iy = _integrand(a)

    def curvature(x: float, sign: float) -> float:
        av = float(a.a(x))
        return sign * (av - x * float(a.a_prime(x))) / av**2

    # cumulative integral over left-branch nodes plus the junction value
    x = grid.x
    left_idx = np.nonzero(x < ap)[0]
    right_idx = np.nonzero(x > bp)[0]

    psi = np.empty_like(x)
    psi_p = np.empty_like(x)

    acc = 0.0
    prev = 0.0
    for i in left_idx:
        val, _ = quad(iy, prev, x[i], limit=200, epsabs=0.0, epsrel=1e-12)
        acc += val
        prev = x[i]
        psi[i] = acc
        psi_p[i] = iy(x[i])
    v_ap, _ = quad(iy, prev, ap, limit=200, epsabs=0.0, epsrel=1e-12)
    v_ap += acc

    acc = 0.0
    prev = bp
    right_vals = {}
    for i in right_idx:
        val, _ = quad(iy, prev, x[i], limit=200, epsabs=0.0, epsrel=1e-12)
        acc -= val
        prev = x[i]
        right_vals[i] = acc
    for i in right_idx:
        psi[i] = right_vals[i]
        psi_p[i] = -iy(x[i])

    # quintic Hermite blend on [a', b'] in the scaled variable u = (x-a')/L
    L = bp - ap
    d_ap, d_bp = iy(ap), -iy(bp)
    c_ap, c_bp = curvature(ap, +1.0), curvature(bp, -1.0)
    rhs = np.array([v_ap, d_ap * L, c_ap * L**2, 0.0, d_bp * L, c_bp * L**2])
    M = np.zeros((6, 6))
    for k in range(6):
        M[0, k] = 1.0 if k == 0 else 0.0
        M[1, k] = 1.0 if k == 1 else 0.0
        M[2, k] = 2.0 if k == 2 else 0.0
        M[3, k] = 1.0
        M[4, k] = k
        M[5, k] = k * (k - 1)
    coeffs = np.linalg.solve(M, rhs)

    mid_idx = np.nonzero((x >= ap) & (x <= bp))[0]
    u = (x[mid_idx] - ap) / L
    psi[mid_idx] = np.polyval(coeffs[::-1], u)
    dcoeffs = coeffs[1:] * np.arange(1, 6)
    psi_p[mid_idx] = np.polyval(dcoeffs[::-1], u) / L

    # |psi|_inf over [0,1]: both outer branches are monotone, so only the
    # blend needs dense sampling
    uu = np.linspace(0.0, 1.0, 2001)
    blend_max = float(np.max(np.abs(np.polyval(coeffs[::-1], uu))))
    psi_1 = right_vals[right_idx[-1]] if len(right_idx) else 0.0
    psi_inf = max(abs(v_ap), abs(psi_1), blend_max)

    return PsiFunction(
        alpha_p=ap,
        beta_p=bp,
        psi_nodes=psi,
        psi_prime_nodes=psi_p,
        psi_inf=psi_inf,
        blend_coeffs=coeffs,
    )


def eval_m(t, T: float):
    """Smooth floor of t^4 (T-t)^4: equal to it on [T/2, T], bounded below by
    it on [0, T/2], positive at t = 0."""
    t = np.asarray(t, dtype=float)
    out = (t**4 + np.maximum(0.5 * T - t, 0.0) ** 4) * (T - t) ** 4
    return out if out.ndim else float(out)


@dataclass
class TruncatedFields:
    """n-truncated weight layer: finite at t = T, converging to the exact
    weights as n grows."""

    n: float
    A_n: np.ndarray
    log_varsigma_n: np.ndarray
    log_rho_n: np.ndarray
    log_rho0_n: np.ndarray
    log_rhostar_n: np.ndarray
    omega_mask: np.ndarray  # nodes where the off-window multiplier is 1


@dataclass
class WeightFields:
    params: CarlemanParams
    psi: PsiFunction
    # per-node
    eta: np.ndarray
    log_eta: np.ndarray
    beta: np.ndarray
    beta_bar: float
    # per-time
    theta: np.ndarray
    m: np.ndarray
    tau: np.ndarray
    # per-(t, x)
    phi: np.ndarray
    A: np.ndarray
    log_sigma: np.ndarray
    log_varsigma: np.ndarray
    log_rho: np.ndarray
    log_rho0: np.ndarray
    log_rhohat: np.ndarray
    log_rhostar: np.ndarray
    trunc: Optional[TruncatedFields] = None

    @property
    def s(self) -> float:
        return self.params.s

    @property
    def lam(self) -> float:
        return self.params.lam

    @property
    def M(self) -> float:
        return self.params.M


def build_weight_fields(
    params: CarlemanParams, a: DegeneracyCoefficient, grid: SpaceTimeGrid
) -> WeightFields:
    """Tabulate every weight of the Carleman machinery on the grid."""
    T = grid.T
    if params.omega_prime is None:
        raise ValueError("params.omega_prime must be set (see default_omega_prime)")
    psi = build_psi(a, params.omega_prime, grid)
    lam, s = params.lam, params.s

    top = math.exp(3.0 * lam * psi.psi_inf)  # first: its OverflowError bounds eta
    log_eta = lam * (psi.psi_inf + psi.psi_nodes)
    eta = np.exp(log_eta)
    beta = eta - top  # < 0 since eta <= exp(2 lam |psi|_inf) < top
    beta_bar = float(np.max(beta))
    if not math.isfinite(s * beta_bar):
        raise OverflowError("s * e^{3 lambda |psi|_inf} overflows float64")
    if params.M is None:
        params.M = s * beta_bar / 2.0
    if not (s * beta_bar < params.M < 0.0):
        raise ValueError("M must lie in (s * beta_bar, 0)")

    t = grid.t
    with np.errstate(divide="ignore"):
        theta = 1.0 / (t * (T - t)) ** 4
    m = eval_m(t, T)
    with np.errstate(divide="ignore"):
        tau = 1.0 / m

    # an overflow fails the finiteness test below
    with np.errstate(over="ignore"):
        phi = np.outer(theta, beta)
        A = np.outer(tau, beta)
        lr = -s * A  # +inf on the t = T row
    with np.errstate(divide="ignore"):
        log_sigma = np.log(theta)[:, None] + log_eta[None, :]
        log_varsigma = np.log(tau)[:, None] + log_eta[None, :]

    ls = log_varsigma
    log_rho = lr
    with np.errstate(over="ignore", invalid="ignore"):
        log_rho0 = lr - ls
        log_rhohat = lr - 2.0 * ls
        # derived so that 2*log_rhohat - log_rhostar - log_rho0 vanishes exactly
        log_rhostar = 2.0 * log_rhohat - log_rho0
    if not all(np.isfinite(w[1:-1]).all() for w in (phi, log_rho0, log_rhohat, log_rhostar)):
        raise OverflowError("a weight table overflows float64 on an interior time row")
    # the t = T row is improper for the whole family
    log_rho0[-1, :] = np.inf
    log_rhohat[-1, :] = np.inf
    log_rhostar[-1, :] = np.inf

    return WeightFields(
        params=params,
        psi=psi,
        eta=eta,
        log_eta=log_eta,
        beta=beta,
        beta_bar=beta_bar,
        theta=theta,
        m=m,
        tau=tau,
        phi=phi,
        A=A,
        log_sigma=log_sigma,
        log_varsigma=log_varsigma,
        log_rho=log_rho,
        log_rho0=log_rho0,
        log_rhohat=log_rhohat,
        log_rhostar=log_rhostar,
        trunc=None,
    )


def build_truncated_fields(
    fields: WeightFields, n: float, omega, grid: SpaceTimeGrid
) -> WeightFields:
    """Fill the n-truncated layer; returns a new WeightFields sharing the
    exact tabulations.

    The truncation factor (T-t)^4 / ((T-t)^4 + 1/n) is applied pointwise; at
    t = T the truncated exponent is taken as 0 (so rho_n = 1 there) and the
    truncated varsigma takes its finite limit n * eta / T^4.
    """
    if n < 1:
        raise ValueError("penalty index n must be >= 1")
    T = grid.T
    t = grid.t
    s = fields.s
    fac = (T - t) ** 4 / ((T - t) ** 4 + 1.0 / n)

    with np.errstate(invalid="ignore", divide="ignore"):
        A_n = fields.A * fac[:, None]
        A_n[-1, :] = 0.0
        log_varsigma_n = fields.log_varsigma + np.log(fac)[:, None]
    log_varsigma_n[-1, :] = np.log(n * fields.eta / T**4)

    log_rho_n = -s * A_n
    log_rho0_n = log_rho_n - log_varsigma_n

    mask = window_mask(grid, omega)
    log_rhostar_n = fields.log_rhostar + np.where(mask, 0.0, math.log(n))[None, :]

    trunc = TruncatedFields(
        n=float(n),
        A_n=A_n,
        log_varsigma_n=log_varsigma_n,
        log_rho_n=log_rho_n,
        log_rho0_n=log_rho0_n,
        log_rhostar_n=log_rhostar_n,
        omega_mask=mask,
    )
    return WeightFields(**{**fields.__dict__, "trunc": trunc})
