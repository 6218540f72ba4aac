"""Numerical witnesses for the weighted inequalities behind the control
machinery: Hardy-Poincare, the two Carleman estimates, the parabolic energy
estimate, the E-norm and its companion bounds.

"Verification" here means bounded-ratio witnessing over seeded random
ensembles; every check reports the natural logs of LHS and RHS (plain
floats, -inf for zero) and a ratio compared against a configured cap
(regression data, not a theorem).  The random max is not the inequality's
constant: the sharp continuous Hardy-Poincare constant for a = x^alpha is
4/(1-alpha)^2, unbounded at alpha = 1.  ``sup`` and ``bilinear`` report
ratio 0.0 at the default config (lhs_log - rhs_log is about -1.17e8 and
-1.74e8), so they cannot fail there.

Each witness evaluates its space and time quadratures on whole trajectories:
one row-block call of apply_operator / h1a_norm_sq and one matrix product
per integral, no loop over time rows.  ``run_verifications`` builds the
weight fields from ``cfg.carleman`` on first use and reports their overflow
as a config error naming ``carleman.lambda``.

What does not change between ensemble members is built once per run and
kept on the grid (``SpaceTimeGrid.derived``): the four Carleman log-weights
of each kind and the window mask, the E-norm weight 2 log rho0, each
prepared as a ``grid.LogWeight`` whose log-integral is one dot product; the
sine and cosine tables of the random draws; and the Hardy check's
admissibility scan and a(x) tabulations.  Each member still draws from its
own stream and runs its own solves.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .coeffs import DegeneracyCoefficient
from .errors import AdmissibilityFail, ConfigError, ZeroDenominator
from .grid import LogWeight, SpaceTimeGrid, integrate_interior, safe_log, window_mask
from .pde import (
    DegenerateOperator,
    adjoint_solve,
    apply_operator,
    assemble_degenerate_operator,
    forward_solve_linear,
    h1a_norm_sq,
)
from .weights import WeightFields, build_weight_fields

__all__ = [
    "InequalityReport",
    "random_smooth_field",
    "random_profile",
    "hardy_poincare_ratio",
    "carleman_check",
    "e_norm",
    "nonlocal_sup_bound",
    "bilinear_bound_check",
    "energy_estimate_ratio",
    "load_golden_caps",
    "run_verifications",
    "KNOWN_CHECKS",
]


# Bound on max(|lhs_log|, |rhs_log|) * eps for verify's Carleman checks:
# their log ratio is then good to a few 1e-3, far inside the decade (2.3 in
# log) between the golden caps and the observed maxima.
MAX_LOG_HEADROOM = 1e-3


@dataclass
class InequalityReport:
    name: str
    lhs_log: float
    rhs_log: float
    ratio: float
    params: dict = field(default_factory=dict)


def _ratio(lhs_log: float, rhs_log: float) -> float:
    """exp(lhs_log - rhs_log): 0 for a zero LHS, inf for a zero RHS."""
    if lhs_log == -math.inf:
        return 0.0
    if rhs_log == -math.inf:
        return math.inf
    r = lhs_log - rhs_log
    return math.exp(r) if r < 709.0 else math.inf


def random_profile(grid: SpaceTimeGrid, rng, modes: int = 5) -> np.ndarray:
    """Random smooth spatial profile vanishing at both boundaries."""
    coef = rng.standard_normal(modes) / np.arange(1, modes + 1)
    return grid.sine_modes(modes) @ coef


def random_smooth_field(grid: SpaceTimeGrid, rng, modes: int = 4) -> np.ndarray:
    """Random smooth space-time field, a low-order sine/cosine series."""
    k = np.arange(1, modes + 1)
    coef = rng.standard_normal((modes, modes)) / np.add.outer(k**2, k**2) * 4.0
    return grid.cosine_modes(modes) @ coef @ grid.sine_modes(modes).T


_THETA_SCAN = (0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 0.95, 0.99)
_ADMISS_SLACK = 1e-3  # per-sample relative slack in the monotonicity scan


def _check_admissible(a: DegeneracyCoefficient) -> float:
    """Sampled check that a(x)/x^theta is nonincreasing for some theta in
    (0,1); returns the first admissible theta.  The scan tolerates a small
    per-sample relative increase so boundary cases like a(x) = x (monotone
    only in the theta -> 1 limit) are admitted."""
    xs = np.logspace(-4, 0, 200)
    av = np.asarray(a(xs), dtype=float)
    for theta in _THETA_SCAN:
        q = av / xs**theta
        if np.all(q[1:] <= q[:-1] * (1.0 + _ADMISS_SLACK)):
            return theta
    raise AdmissibilityFail(
        "a(x)/x^theta is not (approximately) nonincreasing for any scanned "
        "theta in (0,1)"
    )


def _hardy_tables(a: DegeneracyCoefficient, grid: SpaceTimeGrid) -> tuple:
    """(theta, a/x^2 at the nodes 1..nx, a/x^2 at the first midpoint, a at
    the midpoints, the cell widths): what the Hardy check reads of a and the
    grid, computed once per coefficient and kept on the grid."""

    def build():
        theta = _check_admissible(a)
        x = grid.x
        xm = 0.5 * (x[:-1] + x[1:])
        a_x2 = np.asarray(a(x[1:]), dtype=float) / x[1:] ** 2
        a_mid = np.asarray(a(xm), dtype=float)
        return theta, a_x2, float(a(xm[0])) / xm[0] ** 2, a_mid, np.diff(x)

    return grid.derived("hardy", a, build)


def hardy_poincare_ratio(
    a: DegeneracyCoefficient, w: np.ndarray, grid: SpaceTimeGrid
) -> InequalityReport:
    """LHS = int (a/x^2) w^2 versus RHS = int a |w'|^2 for w(0) = 0.

    The first cell is integrated with a one-sided midpoint rule so the
    singular factor a/x^2 is never evaluated at x = 0 (the integrand limit
    is 0 there, enforced by w(0) = 0).
    """
    theta, a_x2, a_xm2, a_mid, dx = _hardy_tables(a, grid)
    w = np.asarray(w, dtype=float)
    if w[0] != 0.0:
        raise ValueError("Hardy check requires w(0) = 0")
    if not np.any(w):
        raise ZeroDenominator("w vanishes identically")
    d = grid.dual_widths
    lhs = float(np.dot(a_x2 * w[1:] ** 2, d[1:]))
    wm = 0.5 * (w[0] + w[1])
    lhs += a_xm2 * wm**2 * d[0]

    dw = np.diff(w) / dx
    rhs = float(np.sum(a_mid * dw * dw * dx))
    if rhs <= 0.0:
        raise ZeroDenominator("gradient energy vanishes")
    L, R = safe_log(lhs), safe_log(rhs)
    return InequalityReport(
        name="hardy_poincare",
        lhs_log=L,
        rhs_log=R,
        ratio=_ratio(L, R),
        params={"theta": theta},
    )


def _nodal_gradient_energy(a_mid: np.ndarray, v: np.ndarray, x: np.ndarray):
    """Per-node tabulation of a*v_x^2 (midpoint fluxes averaged to nodes)."""
    dv = np.diff(v, axis=-1) / np.diff(x)
    flux = a_mid * dv * dv  # on midpoints
    out = np.zeros_like(v)
    out[..., :-1] += 0.5 * flux
    out[..., 1:] += 0.5 * flux
    return out


def _carleman_weights(kind: str, fields: WeightFields, grid: SpaceTimeGrid, omega) -> tuple:
    """The log-weights of the four Carleman terms, W s l w1, W (s l)^2 w2, W
    and W (s l)^3 w3, prepared as LogWeights, and the window mask: built
    once per weight fields, kind and window, and kept on the grid."""

    def build():
        s = fields.s
        if kind == "phi_weights":
            logW, logw1 = 2.0 * s * fields.phi, fields.log_sigma
        elif kind == "A_weights":
            logW, logw1 = 2.0 * s * fields.A, fields.log_varsigma
        else:
            raise ValueError(f"unknown Carleman weight kind {kind!r}")
        sl = math.log(s * fields.lam)
        with np.errstate(invalid="ignore"):  # inf - inf on rows 0 and nt, which LogWeight drops
            tables = (logW + logw1 + sl, logW + 2.0 * logw1 + 2.0 * sl, logW,
                      logW + 3.0 * logw1 + 3.0 * sl)
        return tuple(LogWeight(lw, grid) for lw in tables) + (window_mask(grid, omega),)

    return grid.derived(("carleman", kind, tuple(omega)), fields, build)


def _rho_weight(name: str, fields: WeightFields, grid: SpaceTimeGrid) -> LogWeight:
    """2 * fields.<name> (log_rho0 or log_rhostar) prepared as a LogWeight,
    built once per weight fields and kept on the grid."""
    return grid.derived(name, fields, lambda: LogWeight(2.0 * getattr(fields, name), grid))


def carleman_check(
    kind: str,
    F: np.ndarray,
    terminal: Optional[np.ndarray],
    c: float,
    fields: WeightFields,
    grid: SpaceTimeGrid,
    op: DegenerateOperator,
    omega,
) -> InequalityReport:
    """Weighted observability ratio for the backward equation
    v_t + (a v_x)_x - c v = F with terminal datum v(T).

    LHS = iint W (s l w1 a v_x^2 + s^2 l^2 w2 v^2),
    RHS = iint W F^2 + (s l)^3 iint_omega W w3 v^2, with
    (W, w1, w2, w3) = (e^{2s phi}, sigma, sigma^2, sigma^3) for
    kind="phi_weights" and the (e^{2sA}, varsigma, ...) family for
    kind="A_weights".
    """
    w_grad, w_zero, w_src, w_obs, window = _carleman_weights(kind, fields, grid, omega)
    v = adjoint_solve(-F, c, grid, op, terminal=terminal)
    v2 = v * v
    t1 = w_grad.log_integral(_nodal_gradient_energy(op.a_mid, v, grid.x))
    t2 = w_zero.log_integral(v2)
    r1 = w_src.log_integral(F * F)
    r2 = w_obs.log_integral(np.where(window, v2, 0.0))
    lhs, rhs = float(np.logaddexp(t1, t2)), float(np.logaddexp(r1, r2))
    return InequalityReport(
        name=f"carleman_{kind}",
        lhs_log=lhs,
        rhs_log=rhs,
        ratio=_ratio(lhs, rhs),
        params={"s": fields.s, "lambda": fields.lam},
    )


def e_norm(
    u: np.ndarray,
    h: Optional[np.ndarray],
    fields: WeightFields,
    grid: SpaceTimeGrid,
    op: DegenerateOperator,
) -> float:
    """Log of the squared E-norm: weighted state + control energies, the
    weighted equation residual (backward-difference u_t matching the solver
    stencil) and the initial H^1_a energy."""
    rho0 = _rho_weight("log_rho0", fields, grid)
    term1 = rho0.log_integral(u * u)
    if h is not None:
        term2 = _rho_weight("log_rhostar", fields, grid).log_integral(h * h)
    else:
        term2 = -math.inf
    res = np.zeros_like(u)
    res[1:] = np.diff(u, axis=0) / grid.dt - apply_operator(op, u[1:])
    if h is not None:
        res[1:] -= h[1:]
    term3 = rho0.log_integral(res * res)
    term4 = safe_log(h1a_norm_sq(u[0], op, grid))
    return float(np.logaddexp.reduce([term1, term2, term3, term4]))


def nonlocal_sup_bound(
    u: np.ndarray,
    h: Optional[np.ndarray],
    fields: WeightFields,
    grid: SpaceTimeGrid,
    op: DegenerateOperator,
) -> InequalityReport:
    """sup_t e^{-2M/m(t)} (int u)^2 against the squared E-norm.

    The sup runs over interior time rows (the weight is improper at t = T,
    where the E-norm machinery lives in the same truncated convention).
    Also reports the pointwise claim witness
    max_t [ -2M/m(t) - 2 min_x log rho*(t,.) ].
    """
    M = fields.M
    inner = slice(1, grid.nt)
    iu2 = (u[inner] @ grid.dual_widths) ** 2
    scale = -2.0 * M / fields.m[inner]
    with np.errstate(divide="ignore"):
        j = int(np.argmax(np.log(iu2) + scale))  # the first row at the max
    best = safe_log(float(iu2[j])) + float(scale[j])
    witness = float(np.max(scale - 2.0 * np.min(fields.log_rhostar[inner], axis=1)))
    rhs = e_norm(u, h, fields, grid, op)
    return InequalityReport(
        name="nonlocal_sup_bound",
        lhs_log=best,
        rhs_log=rhs,
        ratio=_ratio(best, rhs),
        params={"M": M, "claim_witness": witness},
    )


def bilinear_bound_check(
    u: np.ndarray,
    h: Optional[np.ndarray],
    ub: np.ndarray,
    hb: Optional[np.ndarray],
    fields: WeightFields,
    grid: SpaceTimeGrid,
    op: DegenerateOperator,
) -> InequalityReport:
    """iint rho0^2 (int ub)^2 |(a u_x)_x|^2 <= C ||(u,h)||_E^2 ||(ub,hb)||_E^2."""
    inner = slice(1, grid.nt)
    iu = ub[inner] @ grid.dual_widths
    Lu = apply_operator(op, u[inner])
    vals = np.zeros_like(u)
    vals[inner] = (iu * iu)[:, None] * Lu * Lu
    lhs = _rho_weight("log_rho0", fields, grid).log_integral(vals)
    rhs = e_norm(u, h, fields, grid, op) + e_norm(ub, hb, fields, grid, op)
    if rhs == -math.inf and lhs != -math.inf:
        raise ZeroDenominator("zero E-norms with nonzero bilinear term")
    return InequalityReport(
        name="bilinear_bound",
        lhs_log=lhs,
        rhs_log=rhs,
        ratio=_ratio(lhs, rhs),
    )


def energy_estimate_ratio(
    u: np.ndarray,
    F: Optional[np.ndarray],
    grid: SpaceTimeGrid,
    op: DegenerateOperator,
) -> InequalityReport:
    """Parabolic regularity witness for the forward equation with source F:
    [sup_t ||u||_{H1_a}^2 + iint u_t^2 + iint ((a u_x)_x)^2] over
    [||u(0)||_{H1_a}^2 + iint F^2]."""
    inner = slice(1, grid.nt)
    h1a = h1a_norm_sq(u, op, grid)
    du = np.diff(u[: grid.nt], axis=0) / grid.dt  # rows 1..nt-1
    Lu = apply_operator(op, u[inner])
    lhs = float(np.max(h1a)) + integrate_interior(du * du, grid) + integrate_interior(Lu * Lu, grid)
    rhs = float(h1a[0])
    if F is not None:
        rhs += integrate_interior(F[inner] * F[inner], grid)
    if rhs <= 0.0:
        raise ZeroDenominator("zero data in energy estimate")
    L, R = safe_log(lhs), safe_log(rhs)
    return InequalityReport(
        name="energy_estimate", lhs_log=L, rhs_log=R, ratio=_ratio(L, R)
    )


def load_golden_caps() -> dict:
    """Regression caps for the inequality ratios, shipped as package data.

    Caps are observed ensemble maxima on the reference configurations with a
    10x safety factor; they bound the constants empirically, they do not
    prove them.
    """
    import importlib.resources
    import json

    path = importlib.resources.files("degctrl").joinpath("data/golden_caps.json")
    with path.open() as fh:
        return json.load(fh)["caps"]


def _free_state(cfg, op: DegenerateOperator, u0: np.ndarray) -> np.ndarray:
    return forward_solve_linear(cfg.c, None, None, u0, cfg.grid, op)


def _hardy(cfg, op, fields, rng) -> InequalityReport:
    return hardy_poincare_ratio(cfg.problem.a, random_profile(cfg.grid, rng), cfg.grid)


def _refuse_unresolved(rep: InequalityReport, bound: float) -> None:
    """Exit 2 naming carleman.lambda unless max(|lhs_log|, |rhs_log|) eps
    stays below bound (NaN fails).  float64 holds a log L only to |L| eps,
    and the dominant terms of each integral have exponents about as large
    as its log; exact zeros are exact."""
    logs = np.array([rep.lhs_log, rep.rhs_log])
    top = float(np.abs(logs[logs != -np.inf]).max(initial=0.0))
    if not top * np.finfo(float).eps < bound:
        raise ConfigError(
            "carleman.lambda", f"|lhs_log|, |rhs_log| up to {top:.3g}: times eps this "
            f"reaches {bound:.3g}, so float64 does not resolve the log ratio",
        )


def _cap_distance(rep: InequalityReport, cap: float) -> float:
    """|(lhs_log - rhs_log) - log cap|: how far rounding must move the log
    ratio to flip the row's pass; inf where a zero LHS or RHS makes the
    ratio exact."""
    if rep.lhs_log == -math.inf or rep.rhs_log == -math.inf:
        return math.inf
    return abs(rep.lhs_log - rep.rhs_log - math.log(cap))


def _carleman(kind: str, cfg, op, fields, rng) -> InequalityReport:
    F = random_smooth_field(cfg.grid, rng)
    terminal = random_profile(cfg.grid, rng)
    rep = carleman_check(kind, F, terminal, cfg.c, fields(), cfg.grid, op, cfg.problem.omega)
    _refuse_unresolved(rep, MAX_LOG_HEADROOM)
    return rep


def _energy(cfg, op, fields, rng) -> InequalityReport:
    grid = cfg.grid
    u0 = random_profile(grid, rng)
    F = random_smooth_field(grid, rng)
    u = forward_solve_linear(cfg.c, F, None, u0, grid, op)
    return energy_estimate_ratio(u, F, grid, op)


def _sup(cfg, op, fields, rng) -> InequalityReport:
    u = _free_state(cfg, op, random_profile(cfg.grid, rng))
    return nonlocal_sup_bound(u, None, fields(), cfg.grid, op)


def _bilinear(cfg, op, fields, rng) -> InequalityReport:
    u = _free_state(cfg, op, random_profile(cfg.grid, rng))
    ub = _free_state(cfg, op, random_profile(cfg.grid, rng))
    return bilinear_bound_check(u, None, ub, None, fields(), cfg.grid, op)


# check -> witness(cfg, op, fields, rng) drawing one random datum; ``fields``
# returns the weight fields, built on first use.  The order fixes the random
# streams: member i of the k-th check (k = 1, 2, ...) draws from
# default_rng([seed, k, i]), whichever checks a run selects.
_WITNESSES = {
    "hardy": _hardy,
    "carleman_phi": functools.partial(_carleman, "phi_weights"),
    "carleman_A": functools.partial(_carleman, "A_weights"),
    "energy": _energy,
    "sup": _sup,
    "bilinear": _bilinear,
}
KNOWN_CHECKS = tuple(_WITNESSES)
# checks whose log ratio sits so far from log cap (about -1.2e8 at the
# default config) that a flat bound on the log error would refuse
# resolvable rows: their rows are refused only where rounding could move
# the ratio across the cap
_CAP_DISTANCE_CHECKS = ("sup", "bilinear")


def run_verifications(cfg):
    """Drive the configured check ensemble; returns (rows, all_pass).

    The weight fields are built from ``cfg.carleman`` on first use.  Each row
    is (check_name, s, lambda, n, seed, lhs_log, rhs_log, ratio, pass) with
    n the ensemble member index; a ratio is checked against the golden cap
    of its report's name.
    """
    caps = load_golden_caps()
    op = assemble_degenerate_operator(cfg.problem.a, cfg.grid)
    seed = cfg.verify_seed
    car = cfg.carleman

    @functools.cache
    def fields() -> WeightFields:
        try:
            return build_weight_fields(car, cfg.problem.a, cfg.problem.omega, cfg.grid)
        except OverflowError as exc:  # e^{3 lambda |psi|_inf} or a table beyond float64
            raise ConfigError("carleman.lambda", f"weights overflow float64 ({exc})") from exc

    rows = []
    for check in cfg.verify_checks:
        k = KNOWN_CHECKS.index(check) + 1
        for i in range(cfg.verify_ensemble):
            rep = _WITNESSES[check](cfg, op, fields, np.random.default_rng([seed, k, i]))
            cap = caps.get(rep.name)
            if check in _CAP_DISTANCE_CHECKS and cap is not None:
                _refuse_unresolved(rep, _cap_distance(rep, cap))
            passed = cap is None or rep.ratio <= cap
            rows.append(
                (rep.name, car.s, car.lam, i, seed, rep.lhs_log, rep.rhs_log, rep.ratio, passed)
            )
    return rows, all(row[-1] for row in rows)
