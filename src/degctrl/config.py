"""JSON experiment configuration: parsing, validation and object building.

Errors are reported as ConfigError with the dotted key path of the offending
entry, so a bad config exits with a pointer to the exact field.  ``_DEFAULTS``
is the one list of keys: a key it lacks is refused, at the top level and in
every block.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Any, Optional

import numpy as np

from .coeffs import (
    DegeneracyCoefficient,
    NonlocalFactor,
    ProblemData,
    SemilinearTerm,
    linearized_potential,
    power_coefficient,
    power_cosine_coefficient,
    validate_degeneracy,
)
from .errors import ConfigError, DegctrlError
from .grid import SpaceTimeGrid, build_grid
from .hum import PenaltySchedule
from .weights import CarlemanParams

__all__ = ["ExperimentConfig", "parse_config", "load_config"]

_DEFAULTS = {
    "problem": {
        "a": {"kind": "power", "alpha": 0.5},
        "ell": {"kind": "constant", "slope": 0.5},
        "f": {"kind": "linear", "coeff": 1.0, "coeffs": [1.0]},
        "omega": [0.3, 0.8],
        "T": 1.0,
        "u0": {"kind": "sine", "amplitude": 1.0},
    },
    "discretization": {"nx": 64, "nt": 64, "gamma": 2.0},
    "carleman": {"s": 1.0, "lambda": 2.0, "omega_prime_margin": 0.25, "M_fraction": 0.5},
    "hum": {"schedule": [1.0, 10.0, 100.0, 1e3, 1e4, 1e5, 1e6], "tol_terminal": 1e-2},
    "newton": {"tol": 1e-6, "maxit": 25},
    "verify": {"checks": ["hardy", "carleman_phi", "carleman_A", "energy"], "seed": 0, "ensemble": 20},
    "output": {"directory": None},
}


_FLOAT_MAX = float(np.finfo(float).max)


def _merge(user, defaults: dict, prefix: str = "") -> dict:
    """defaults overlaid by user, an object with no key that defaults lacks;
    nested objects are merged the same way, under the dotted prefix."""
    if not isinstance(user, dict):
        raise ConfigError(prefix[:-1] or "<root>", "must be an object")
    for key in user:
        if key not in defaults:
            raise ConfigError(prefix + key, "unknown key")
    return {
        k: _merge(user.get(k, {}), d, f"{prefix}{k}.") if isinstance(d, dict) else user.get(k, d)
        for k, d in defaults.items()
    }


def _numbers(vals: list, path: str) -> list:
    """The entries of a JSON list as floats.  Anything but a number (null,
    a string, a boolean) is a config error naming path, and so is a
    non-finite entry, as in ``_get``."""
    if not all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in vals):
        raise ConfigError(path, f"expected a list of numbers, got {vals!r}")
    if not all(abs(v) <= _FLOAT_MAX for v in vals):
        raise ConfigError(path, f"entries must be finite, got {vals!r}")
    return [float(v) for v in vals]


def _get(block: dict, key: str, path: str, expect=None, low=None, high=None):
    val = block[key]
    # JSON true/false are Python bools, which are ints too: never a number here
    if expect is not None and (isinstance(val, bool) or not isinstance(val, expect)):
        raise ConfigError(path, f"expected {expect}, got {type(val).__name__}")
    # NaN and inf pass the bounds below, and an int beyond float64 fails float()
    if isinstance(val, (int, float)) and not abs(val) <= _FLOAT_MAX:
        raise ConfigError(path, f"must be finite, got {val}")
    if low is not None and val < low:
        raise ConfigError(path, f"must be >= {low}, got {val}")
    if high is not None and val > high:
        raise ConfigError(path, f"must be <= {high}, got {val}")
    return val


def _build_a(block: dict) -> DegeneracyCoefficient:
    kind = _get(block, "kind", "problem.a.kind", str)
    build = {"power": power_coefficient, "power_cosine": power_cosine_coefficient}
    if kind not in build:
        raise ConfigError("problem.a.kind", f"unknown coefficient kind {kind!r}")
    alpha = float(_get(block, "alpha", "problem.a.alpha", (int, float)))
    try:
        a = build[kind](alpha)
        validate_degeneracy(a)
    except (ValueError, DegctrlError) as exc:  # alpha out of the kind's range
        raise ConfigError("problem.a.alpha", str(exc)) from exc
    return a


def _build_ell(block: dict) -> NonlocalFactor:
    kind = _get(block, "kind", "problem.ell.kind", str)
    if kind == "constant":
        return NonlocalFactor.constant()
    if kind == "affine":
        slope = float(_get(block, "slope", "problem.ell.slope", (int, float)))
        return NonlocalFactor.affine(slope)
    raise ConfigError("problem.ell.kind", f"unknown nonlocal kind {kind!r}")


def _build_f(block: dict) -> SemilinearTerm:
    kind = _get(block, "kind", "problem.f.kind", str)
    coeff = float(_get(block, "coeff", "problem.f.coeff", (int, float)))
    if kind == "linear":
        return SemilinearTerm.linear(coeff)
    if kind == "sine":
        return SemilinearTerm.sine(coeff)
    if kind == "logistic":
        return SemilinearTerm.logistic(coeff)
    if kind == "polynomial":
        coeffs = _get(block, "coeffs", "problem.f.coeffs", list)
        return SemilinearTerm.polynomial(_numbers(coeffs, "problem.f.coeffs"))
    raise ConfigError("problem.f.kind", f"unknown semilinear kind {kind!r}")


def _build_u0(block: dict, grid: SpaceTimeGrid) -> np.ndarray:
    kind = _get(block, "kind", "problem.u0.kind", str)
    if kind == "zero":
        return np.zeros(grid.nx + 1)
    if kind == "sine":
        amp = float(_get(block, "amplitude", "problem.u0.amplitude", (int, float)))
        return amp * np.sin(np.pi * grid.x)
    raise ConfigError("problem.u0.kind", f"unknown initial-datum kind {kind!r}")


@dataclass
class ExperimentConfig:
    raw: dict
    grid: SpaceTimeGrid
    problem: ProblemData
    c: float  # linearized potential df/du(t, x, 0)
    carleman: CarlemanParams
    schedule: PenaltySchedule
    newton_tol: float
    newton_maxit: int
    verify_checks: list
    verify_seed: int
    verify_ensemble: int
    out_dir: Optional[str]


def parse_config(raw: dict) -> ExperimentConfig:
    if isinstance(raw, dict) and "problem" not in raw:
        raise ConfigError("problem", "missing problem block")
    merged = _merge(raw, _DEFAULTS)
    pb = merged["problem"]

    disc = merged["discretization"]
    nx = _get(disc, "nx", "discretization.nx", int, low=2)
    nt = _get(disc, "nt", "discretization.nt", int, low=2)
    gamma = float(_get(disc, "gamma", "discretization.gamma", (int, float), low=1.0))

    T = float(_get(pb, "T", "problem.T", (int, float)))
    if T <= 0:
        raise ConfigError("problem.T", f"must be positive, got {T}")
    grid = build_grid(nx, nt, T, gamma)

    omega = _get(pb, "omega", "problem.omega", list)
    omega = _numbers(omega, "problem.omega")
    if len(omega) != 2:
        raise ConfigError("problem.omega", "expected [x_left, x_right]")
    a = _build_a(pb["a"])
    ell = _build_ell(pb["ell"])
    try:
        f = _build_f(pb["f"])
        c = linearized_potential(f, grid)
    except ValueError as exc:  # non-finite coefficients of f fail f's own checks
        raise ConfigError("problem.f", str(exc)) from exc
    u0 = _build_u0(pb["u0"], grid)
    try:
        problem = ProblemData(a=a, ell=ell, f=f, omega=tuple(omega), T=T, u0=u0)
    except ValueError as exc:
        raise ConfigError("problem", str(exc)) from exc

    car = merged["carleman"]
    s = float(_get(car, "s", "carleman.s", (int, float), low=1e-12))
    lam = float(_get(car, "lambda", "carleman.lambda", (int, float), low=1e-12))
    margin = float(
        _get(car, "omega_prime_margin", "carleman.omega_prime_margin", (int, float))
    )
    if not 0.0 < margin < 0.5:
        raise ConfigError("carleman.omega_prime_margin", "must lie in (0, 0.5)")
    mfrac = float(_get(car, "M_fraction", "carleman.M_fraction", (int, float)))
    if not 0.0 < mfrac < 1.0:
        raise ConfigError("carleman.M_fraction", "must lie in (0, 1)")

    hum = merged["hum"]
    sched_vals = _numbers(_get(hum, "schedule", "hum.schedule", list), "hum.schedule")
    try:
        schedule = PenaltySchedule(
            ns=tuple(sched_vals),
            tol_terminal=float(
                _get(hum, "tol_terminal", "hum.tol_terminal", (int, float), low=0.0)
            ),
        )
    except ValueError as exc:
        raise ConfigError("hum.schedule", str(exc)) from exc

    nwt = merged["newton"]
    newton_tol = float(_get(nwt, "tol", "newton.tol", (int, float)))
    if not newton_tol > 0.0:  # also rejects NaN
        raise ConfigError("newton.tol", f"must be > 0, got {newton_tol}")
    ver = merged["verify"]
    checks = _get(ver, "checks", "verify.checks", list)
    from .verify import KNOWN_CHECKS

    for ch in checks:
        if ch not in KNOWN_CHECKS:
            raise ConfigError("verify.checks", f"unknown check {ch!r}")
    if not checks or len(set(checks)) < len(checks):
        raise ConfigError("verify.checks", f"must list distinct checks, got {checks}")
    out = merged["output"]["directory"]
    if not (out is None or isinstance(out, str)):
        raise ConfigError("output.directory", f"expected a string or null, got {out!r}")

    return ExperimentConfig(
        raw=raw,
        grid=grid,
        problem=problem,
        c=c,
        carleman=CarlemanParams(s=s, lam=lam, omega_prime_margin=margin, M_fraction=mfrac),
        schedule=schedule,
        newton_tol=newton_tol,
        newton_maxit=_get(nwt, "maxit", "newton.maxit", int, low=1),
        verify_checks=[str(x) for x in checks],
        verify_seed=_get(ver, "seed", "verify.seed", int, low=0),
        verify_ensemble=_get(ver, "ensemble", "verify.ensemble", int, low=1),
        out_dir=out,
    )


def load_config(path: str) -> ExperimentConfig:
    try:
        with open(path, encoding="utf-8") as fh:
            raw = json.load(fh)
    except FileNotFoundError as exc:
        raise ConfigError(path, "config file not found") from exc
    except OSError as exc:
        raise ConfigError(path, f"cannot read the config file: {exc.strerror}") from exc
    except UnicodeDecodeError as exc:
        raise ConfigError(path, f"the config file is not UTF-8: {exc.reason}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(path, f"invalid JSON: {exc}") from exc
    return parse_config(raw)
