"""Carleman weight functions, in log space.

``build_weight_fields`` derives the observation window omega' and the
constant M from ``CarlemanParams``, the ``carleman`` config block.  The
space profile psi comes from the coefficient's exact primitive of y/a(y),
so no quadrature runs and scipy.integrate is never imported.

All exponential weights are tabulated by their logarithms: the factor
exp(-s*A) reaches exp(1e8) on desk-scale grids, so the log tabulation is the
only representation that survives float64.  Per-(t,x) arrays cover the
interior time rows; the t = T row is filled with the limiting values
(+-inf where the weights are improper).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

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


@dataclass(frozen=True)
class CarlemanParams:
    s: float = 1.0
    lam: float = 2.0
    omega_prime_margin: float = 0.25
    M_fraction: float = 0.5

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
    psi_inf: float
    blend_coeffs: np.ndarray  # quintic in (x - a') / (b' - a')

    def blend(self, x):
        u = (np.asarray(x, dtype=float) - self.alpha_p) / (self.beta_p - self.alpha_p)
        return np.polyval(self.blend_coeffs[::-1], u)


def build_psi(
    a: DegeneracyCoefficient, omega_prime, grid: SpaceTimeGrid
) -> PsiFunction:
    """Tabulate psi at the grid nodes.

    psi(x) = F(x) on [0, a') and psi(x) = -(F(x) - F(b')) on (b', 1], with
    F(x) = int_0^x y/a(y) dy the coefficient's exact primitive; quintic
    Hermite blend on [a', b'] matching value, slope and curvature at both
    junctions.  Raises ValueError for a coefficient without a primitive.
    """
    ap, bp = omega_prime
    if not (0.0 < ap < bp < 1.0):
        raise ValueError("omega_prime must sit strictly inside (0, 1)")
    F = a.primitive
    if F is None:
        raise ValueError(f"coefficient kind {a.kind!r} has no primitive for psi")

    def curvature(x: float, sign: float) -> float:
        av = float(a.a(x))
        return sign * (av - x * float(a.a_prime(x))) / av**2

    x = grid.x
    left_idx = np.nonzero(x < ap)[0]
    right_idx = np.nonzero(x > bp)[0]
    psi = np.empty_like(x)
    psi[left_idx] = F(x[left_idx])
    v_ap = float(F(ap))
    psi[right_idx] = -(F(x[right_idx]) - F(bp))

    # quintic Hermite blend on [a', b'] in the scaled variable u = (x-a')/L
    L = bp - ap
    d_ap, d_bp = ap / float(a(ap)), -bp / float(a(bp))
    c_ap, c_bp = curvature(ap, +1.0), curvature(bp, -1.0)
    rhs = np.array([v_ap, d_ap * L, c_ap * L**2, 0.0, d_bp * L, c_bp * L**2])
    # rows: value, slope and curvature at u = 0, then the same at u = 1
    H = np.array([[1, 0, 0, 0, 0, 0], [0, 1, 0, 0, 0, 0], [0, 0, 2, 0, 0, 0],
                  [1, 1, 1, 1, 1, 1], [0, 1, 2, 3, 4, 5], [0, 0, 2, 6, 12, 20]], dtype=float)
    coeffs = np.linalg.solve(H, rhs)

    mid_idx = np.nonzero((x >= ap) & (x <= bp))[0]
    u = (x[mid_idx] - ap) / L
    psi[mid_idx] = np.polyval(coeffs[::-1], u)

    # |psi|_inf over [0,1]: both outer branches are monotone, so only the
    # blend needs dense sampling
    uu = np.linspace(0.0, 1.0, 2001)
    blend_max = float(np.max(np.abs(np.polyval(coeffs[::-1], uu))))
    psi_1 = float(psi[right_idx[-1]]) if len(right_idx) else 0.0
    psi_inf = max(abs(v_ap), abs(psi_1), blend_max)

    return PsiFunction(
        alpha_p=ap,
        beta_p=bp,
        psi_nodes=psi,
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
    s: float
    lam: float
    M: float
    psi: PsiFunction
    # per-node
    eta: np.ndarray
    log_eta: np.ndarray
    beta: np.ndarray
    beta_bar: float
    # per-time
    m: np.ndarray
    # per-(t, x)
    phi: np.ndarray
    A: np.ndarray
    log_sigma: np.ndarray
    log_varsigma: np.ndarray
    log_rho0: np.ndarray
    log_rhohat: np.ndarray
    log_rhostar: np.ndarray


def build_weight_fields(
    params: CarlemanParams, a: DegeneracyCoefficient, omega, grid: SpaceTimeGrid
) -> WeightFields:
    """Tabulate every weight of the Carleman machinery on the grid, with
    omega' = default_omega_prime(omega, params.omega_prime_margin) and
    M = params.M_fraction * s * beta_bar."""
    T = grid.T
    psi = build_psi(a, default_omega_prime(omega, params.omega_prime_margin), grid)
    lam, s = params.lam, params.s

    top = math.exp(3.0 * lam * psi.psi_inf)  # first: its OverflowError bounds eta
    log_eta = lam * (psi.psi_inf + psi.psi_nodes)
    eta = np.exp(log_eta)
    beta = eta - top  # < 0 since eta <= exp(2 lam |psi|_inf) < top
    beta_bar = float(np.max(beta))
    if not math.isfinite(s * beta_bar):
        raise OverflowError("s * e^{3 lambda |psi|_inf} overflows float64")
    M = params.M_fraction * s * beta_bar
    if not (s * beta_bar < M < 0.0):
        raise ValueError("M_fraction must lie in (0, 1)")

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
        lr = -s * A  # log rho, +inf on the t = T row
    with np.errstate(divide="ignore"):
        log_sigma = np.log(theta)[:, None] + log_eta[None, :]
        log_varsigma = np.log(tau)[:, None] + log_eta[None, :]

    with np.errstate(over="ignore", invalid="ignore"):
        log_rho0 = lr - log_varsigma
        log_rhohat = lr - 2.0 * log_varsigma
        # derived so that 2*log_rhohat - log_rhostar - log_rho0 vanishes exactly
        log_rhostar = 2.0 * log_rhohat - log_rho0
    if not all(np.isfinite(w[1:-1]).all() for w in (phi, log_rho0, log_rhohat, log_rhostar)):
        raise OverflowError("a weight table overflows float64 on an interior time row")
    # the t = T row is improper for the whole family
    log_rho0[-1, :] = np.inf
    log_rhohat[-1, :] = np.inf
    log_rhostar[-1, :] = np.inf

    return WeightFields(
        s=s,
        lam=lam,
        M=M,
        psi=psi,
        eta=eta,
        log_eta=log_eta,
        beta=beta,
        beta_bar=beta_bar,
        m=m,
        phi=phi,
        A=A,
        log_sigma=log_sigma,
        log_varsigma=log_varsigma,
        log_rho0=log_rho0,
        log_rhohat=log_rhohat,
        log_rhostar=log_rhostar,
    )


def build_truncated_fields(
    fields: WeightFields, n: float, omega, grid: SpaceTimeGrid
) -> TruncatedFields:
    """The n-truncated layer of the exact tabulations in ``fields``.

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

    return TruncatedFields(
        n=float(n),
        A_n=A_n,
        log_varsigma_n=log_varsigma_n,
        log_rho_n=log_rho_n,
        log_rho0_n=log_rho0_n,
        log_rhostar_n=log_rhostar_n,
        omega_mask=mask,
    )
