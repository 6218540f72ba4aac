import importlib.util
import json
import math
import os

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from degctrl import (
    AdmissibilityFail,
    CarlemanParams,
    apply_operator,
    assemble_degenerate_operator,
    bilinear_bound_check,
    build_grid,
    build_weight_fields,
    carleman_check,
    e_norm,
    energy_estimate_ratio,
    forward_solve_linear,
    h1a_norm_sq,
    hardy_poincare_ratio,
    integrate_space,
    integrate_spacetime_logweight,
    load_golden_caps,
    nonlocal_sup_bound,
    power_coefficient,
    random_profile,
    random_smooth_field,
)
from degctrl import verify
from degctrl.cli import _fmt
from degctrl.config import load_config, parse_config
from degctrl.errors import ConfigError, ZeroDenominator
from degctrl.grid import LogWeight, safe_log
from degctrl.verify import KNOWN_CHECKS, _ratio, run_verifications
from tests.conftest import make_fields

ROOT = os.path.join(os.path.dirname(__file__), "..")
DEFAULT_CONFIG = os.path.join(ROOT, "configs", "default.json")


@pytest.fixture(scope="module")
def fields32(bench32):
    return make_fields(power_coefficient(0.5), bench32.grid)


class TestHardyPoincare:
    def test_symbolic_value_for_linear_coefficient(self):
        # a = x, w = x(1-x): LHS = int x^{-1} x^2 (1-x)^2 = 1/12,
        # RHS = int x (1-2x)^2 = 1/6, ratio exactly 1/2
        grid = build_grid(128, 4, 1.0)
        w = grid.x * (1.0 - grid.x)
        rep = hardy_poincare_ratio(power_coefficient(1.0), w, grid)
        assert rep.ratio == pytest.approx(0.5, rel=0.02)

    def test_strong_degeneracy_rejected(self):
        grid = build_grid(64, 4, 1.0)
        w = grid.x * (1.0 - grid.x)
        with pytest.raises(AdmissibilityFail):
            hardy_poincare_ratio(power_coefficient(2.0), w, grid)

    def test_zero_profile_rejected(self):
        grid = build_grid(32, 4, 1.0)
        with pytest.raises(ZeroDenominator):
            hardy_poincare_ratio(power_coefficient(1.0), np.zeros(33), grid)

    def test_random_ensemble_bounded(self):
        grid = build_grid(64, 4, 1.0)
        caps = load_golden_caps()
        for i in range(10):
            rng = np.random.default_rng(i)
            rep = hardy_poincare_ratio(power_coefficient(1.0), random_profile(grid, rng), grid)
            assert rep.ratio <= caps["hardy_poincare"]


class TestCarleman:
    def test_both_kinds_finite(self, bench32, fields32):
        grid = bench32.grid
        rng = np.random.default_rng(3)
        F = random_smooth_field(grid, rng)
        vT = random_profile(grid, rng)
        for kind in ("phi_weights", "A_weights"):
            rep = carleman_check(
                kind, F, vT, bench32.c, fields32, grid, bench32.op, bench32.omega
            )
            assert np.isfinite(rep.ratio)
            assert np.isfinite(rep.lhs_log) and np.isfinite(rep.rhs_log)

    def test_unknown_kind_rejected(self, bench32, fields32):
        grid = bench32.grid
        F = np.zeros((grid.nt + 1, grid.nx + 1))
        with pytest.raises(ValueError):
            carleman_check(
                "bogus", F, None, bench32.c, fields32, grid, bench32.op, bench32.omega
            )


class TestENorm:
    def test_finite_for_free_solution(self, bench32, fields32):
        grid = bench32.grid
        u0 = np.sin(np.pi * grid.x)
        u0[0] = u0[-1] = 0.0
        u = forward_solve_linear(bench32.c, None, None, u0, grid, bench32.op)
        en = e_norm(u, None, fields32, grid, bench32.op)
        assert np.isfinite(en)

    def test_scales_quadratically(self, bench32, fields32):
        grid = bench32.grid
        u0 = np.sin(np.pi * grid.x)
        u0[0] = u0[-1] = 0.0
        u = forward_solve_linear(bench32.c, None, None, u0, grid, bench32.op)
        en = e_norm(u, None, fields32, grid, bench32.op)
        en2 = e_norm(2.0 * u, None, fields32, grid, bench32.op)
        assert en2 - en == pytest.approx(np.log(4.0), abs=1e-6)

    def test_sup_bound_finite(self, bench32, fields32):
        grid = bench32.grid
        u0 = np.sin(np.pi * grid.x)
        u0[0] = u0[-1] = 0.0
        u = forward_solve_linear(bench32.c, None, None, u0, grid, bench32.op)
        rep = nonlocal_sup_bound(u, None, fields32, grid, bench32.op)
        assert np.isfinite(rep.lhs_log)
        assert rep.lhs_log <= rep.rhs_log


class TestEnergyEstimate:
    def test_ratio_order_one(self):
        grid = build_grid(32, 32, 1.0)
        from degctrl import assemble_degenerate_operator

        op = assemble_degenerate_operator(power_coefficient(0.5), grid)
        rng = np.random.default_rng(0)
        u0 = random_profile(grid, rng)
        F = random_smooth_field(grid, rng)
        u = forward_solve_linear(0.0, F, None, u0, grid, op)
        rep = energy_estimate_ratio(u, F, grid, op)
        assert 0.0 < rep.ratio < 100.0


def _run(checks, carleman=None):
    raw = {
        "problem": {"a": {"kind": "power", "alpha": 0.5}},
        "discretization": {"nx": 12, "nt": 12},
        "carleman": carleman or {},
        "verify": {"checks": list(checks), "seed": 5, "ensemble": 2},
    }
    rows, _ = run_verifications(parse_config(raw))
    return rows


@pytest.fixture(scope="module")
def full_run():
    return _run(KNOWN_CHECKS)


class TestCapDistanceHeadroom:
    """sup and bilinear rows exit 2 naming carleman.lambda only where the
    rounding of their logs, max(|lhs_log|, |rhs_log|) eps, reaches the
    distance of their log ratio from log cap."""

    @pytest.mark.parametrize(
        "lhs, rhs, refused",
        [
            (5.7e7, 1.74e8, False),  # the default config: 3.9e-8 against 1.2e8
            (9.7e14, 1.95e15, False),  # lambda = 20: 0.43 against 9.8e14
            (2e17, 2e17, True),  # 44 against |log 1e-12| = 27.6
            (1e16, 1e16 - math.log(1e-12), True),  # on the cap, to within 2.2
            (-math.inf, 1e300, False),  # a zero LHS: the ratio is exactly 0
            (1e17, -math.inf, False),  # a zero RHS: the ratio is exactly inf
            (math.nan, 1.0, True),
            (math.inf, 1.0, True),
        ],
    )
    def test_refusal_on_synthetic_logs(self, lhs, rhs, refused):
        rep = verify.InequalityReport("nonlocal_sup_bound", lhs, rhs, _ratio(lhs, rhs))
        distance = verify._cap_distance(rep, 1e-12)
        if refused:
            with pytest.raises(ConfigError, match="carleman.lambda"):
                verify._refuse_unresolved(rep, distance)
        else:
            verify._refuse_unresolved(rep, distance)

    @pytest.mark.parametrize("check", ["sup", "bilinear"])
    def test_run_refuses_unresolved_row(self, monkeypatch, check):
        def unresolved(cfg, op, fields, rng):
            name = "nonlocal_sup_bound" if check == "sup" else "bilinear_bound"
            return verify.InequalityReport(name, 2e17, 2e17, 1.0)

        monkeypatch.setitem(verify._WITNESSES, check, unresolved)
        with pytest.raises(ConfigError, match="carleman.lambda"):
            _run([check])

    def test_lambda_20_rows_pass(self):
        # their logs carry errors of order 1, which cannot move a log ratio
        # of about -1e15 across log cap
        raw = {
            "problem": {"a": {"kind": "power", "alpha": 0.5}},
            "carleman": {"lambda": 20.0},
            "verify": {"checks": ["sup", "bilinear"], "ensemble": 2},
        }
        rows, ok = run_verifications(parse_config(raw))
        assert ok and len(rows) == 4
        assert max(abs(row[5]) for row in rows) * np.finfo(float).eps > 0.1


class TestGoldenCaps:
    def test_all_checks_have_caps(self, full_run):
        # a report name without a cap would pass unchecked
        caps = load_golden_caps()
        names = {row[0] for row in full_run}
        assert len(names) == len(KNOWN_CHECKS)
        for name in names:
            assert name in caps and caps[name] > 0

    def test_shipped_caps_reproduce(self):
        # the shipped maxima drift from a regeneration by rounding only
        # (carleman_A_weights by about 3e-13 relative), so no exact equality
        path = os.path.join(ROOT, "scripts", "generate_golden_caps.py")
        spec = importlib.util.spec_from_file_location("generate_golden_caps", path)
        script = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(script)
        with open(os.path.join(ROOT, "src", "degctrl", "data", "golden_caps.json")) as fh:
            shipped = json.load(fh)
        regenerated = script.golden_caps()["observed_max"]
        assert regenerated.keys() == shipped["observed_max"].keys()
        for name, observed in shipped["observed_max"].items():
            assert regenerated[name] == pytest.approx(observed, rel=1e-9, abs=0.0), name
            assert shipped["caps"][name] == max(10.0 * observed, script.FLOOR), name


class TestRunVerifications:
    def test_subset_rows_match_full_run(self, full_run):
        # every check keeps its random stream whichever checks run, in any order
        subset = ("bilinear", "carleman_A", "energy", "hardy")
        assert all(subset.index(ch) != KNOWN_CHECKS.index(ch) for ch in subset)

        def lines(rows):
            by_name = {}
            for row in rows:
                by_name.setdefault(row[0], []).append(",".join(_fmt(v) for v in row))
            return by_name

        sub = lines(_run(subset))
        full = lines(full_run)
        assert len(sub) == len(subset)
        for name, got in sub.items():
            assert got == full[name]


class TestMFraction:
    """carleman.M_fraction sets M = M_fraction * s * beta_bar, which only the
    sup witness reads."""

    def test_fraction_sets_M(self, bench32):
        a = power_coefficient(0.5)
        params = CarlemanParams(s=2.0, M_fraction=0.25)
        fields = build_weight_fields(params, a, bench32.omega, bench32.grid)
        assert fields.M == 0.25 * 2.0 * fields.beta_bar

    def test_default_fraction_is_half(self, fields32):
        assert fields32.M == fields32.s * fields32.beta_bar / 2.0

    def test_only_sup_rows_change(self, full_run):
        rows = _run(KNOWN_CHECKS, {"M_fraction": 0.25})
        assert len(rows) == len(full_run)
        for got, want in zip(rows, full_run):
            if got[0] != "nonlocal_sup_bound":
                assert got == want
            else:  # the lhs weight e^{-2M/m} moves, the E-norm does not
                assert got[5] != want[5] and got[6] == want[6]


# Per-row references: the witnesses as they were written before the row
# loops were replaced by whole-trajectory array operations.


def _ref_e_norm(u, h, fields, grid, op):
    lw0 = 2.0 * fields.log_rho0
    term1 = integrate_spacetime_logweight(lw0, u * u, grid)
    if h is not None:
        term2 = integrate_spacetime_logweight(2.0 * fields.log_rhostar, h * h, grid)
    else:
        term2 = -math.inf
    res = np.zeros_like(u)
    for j in range(1, grid.nt + 1):
        res[j] = (u[j] - u[j - 1]) / grid.dt - apply_operator(op, u[j])
        if h is not None:
            res[j] -= h[j]
    term3 = integrate_spacetime_logweight(lw0, res * res, grid)
    term4 = safe_log(h1a_norm_sq(u[0], op, grid))
    return float(np.logaddexp.reduce([term1, term2, term3, term4]))


def _ref_sup(u, h, fields, grid, op):
    M = fields.M
    best = witness = -math.inf
    for j in range(1, grid.nt):
        iu = integrate_space(u[j], grid)
        best = max(best, safe_log(iu * iu) - 2.0 * M / fields.m[j])
        witness = max(
            witness, -2.0 * M / fields.m[j] - 2.0 * float(np.min(fields.log_rhostar[j]))
        )
    rhs = _ref_e_norm(u, h, fields, grid, op)
    return best, rhs, _ratio(best, rhs), witness


def _ref_bilinear(u, h, ub, hb, fields, grid, op):
    vals = np.zeros_like(u)
    for j in range(1, grid.nt):
        iu = integrate_space(ub[j], grid)
        Lu = apply_operator(op, u[j])
        vals[j] = iu * iu * Lu * Lu
    lhs = integrate_spacetime_logweight(2.0 * fields.log_rho0, vals, grid)
    rhs = _ref_e_norm(u, h, fields, grid, op) + _ref_e_norm(ub, hb, fields, grid, op)
    return lhs, rhs, 0.0 if rhs == -math.inf else _ratio(lhs, rhs)


def _ref_energy(u, F, grid, op):
    wt = grid.interior_time_weights
    sup_h1a = max(h1a_norm_sq(u[j], op, grid) for j in range(grid.nt + 1))
    ut2 = lu2 = 0.0
    for j in range(1, grid.nt):
        du = (u[j] - u[j - 1]) / grid.dt
        Lu = apply_operator(op, u[j])
        ut2 += wt[j - 1] * integrate_space(du * du, grid)
        lu2 += wt[j - 1] * integrate_space(Lu * Lu, grid)
    rhs = h1a_norm_sq(u[0], op, grid)
    if F is not None:
        rhs += sum(wt[j - 1] * integrate_space(F[j] * F[j], grid) for j in range(1, grid.nt))
    L, R = math.log(sup_h1a + ut2 + lu2), math.log(rhs)
    return L, R, _ratio(L, R)


REL = 1e-13


def _close(got, want, log):
    """Relative agreement; a difference of logs is a relative difference of
    the values, so a log gets REL as an absolute floor."""
    return got == want or math.isclose(got, want, rel_tol=REL, abs_tol=REL if log else 0.0)


def _witness_pairs(nx, nt, gamma, seed, with_h):
    """(batched, per-row reference) results of the four row-loop witnesses
    on one random case."""
    grid = build_grid(nx, nt, 1.0, gamma)
    a = power_coefficient(0.5)
    op = assemble_degenerate_operator(a, grid)
    fields = make_fields(a, grid)
    rng = np.random.default_rng(seed)
    c = 1.0
    F = random_smooth_field(grid, rng)
    u = forward_solve_linear(c, F, None, random_profile(grid, rng), grid, op)
    ub = forward_solve_linear(c, None, None, random_profile(grid, rng), grid, op)
    h = hb = F if with_h else None
    F = F if with_h else None
    sup = nonlocal_sup_bound(u, h, fields, grid, op)
    bil = bilinear_bound_check(u, h, ub, hb, fields, grid, op)
    en = energy_estimate_ratio(u, F, grid, op)
    return [
        (e_norm(u, h, fields, grid, op), _ref_e_norm(u, h, fields, grid, op)),
        ((sup.lhs_log, sup.rhs_log, sup.ratio, sup.params["claim_witness"]),
         _ref_sup(u, h, fields, grid, op)),
        ((bil.lhs_log, bil.rhs_log, bil.ratio), _ref_bilinear(u, h, ub, hb, fields, grid, op)),
        ((en.lhs_log, en.rhs_log, en.ratio), _ref_energy(u, F, grid, op)),
    ]


def _assert_pairs_close(pairs):
    for got, want in pairs:
        got = got if isinstance(got, tuple) else (got,)
        want = want if isinstance(want, tuple) else (want,)
        # each result leads with its logs: the E-norm's, or lhs_log and rhs_log
        for k, (g, w) in enumerate(zip(got, want, strict=True)):
            assert _close(g, w, log=k < 2), (g, w)


class TestRowBatching:
    """The batched witnesses against the per-row references."""

    @pytest.mark.parametrize("nx, nt", [(24, 20), (64, 64)])
    @pytest.mark.parametrize("with_h", [False, True])
    def test_witnesses_match_per_row_reference(self, nx, nt, with_h):
        _assert_pairs_close(_witness_pairs(nx, nt, 2.0, 4, with_h))

    @settings(max_examples=40, deadline=None)
    @given(
        nx=st.integers(2, 40),
        nt=st.integers(2, 40),  # nt = 2 leaves one interior row
        gamma=st.floats(1.0, 3.0),
        seed=st.integers(0, 2**32 - 1),
        with_h=st.booleans(),
    )
    def test_witnesses_match_per_row_reference_property(self, nx, nt, gamma, seed, with_h):
        _assert_pairs_close(_witness_pairs(nx, nt, gamma, seed, with_h))

    def test_block_helpers_bit_identical_to_rows(self):
        grid = build_grid(24, 20, 1.0)
        op = assemble_degenerate_operator(power_coefficient(0.5), grid)
        U = np.random.default_rng(2).standard_normal((grid.nt + 1, grid.nx + 1))
        assert np.array_equal(apply_operator(op, U), [apply_operator(op, r) for r in U])
        assert np.array_equal(h1a_norm_sq(U, op, grid), [h1a_norm_sq(r, op, grid) for r in U])
        assert np.array_equal(integrate_space(U, grid), [integrate_space(r, grid) for r in U])
        # and one row still integrates as a single dot product
        assert integrate_space(U[3], grid) == float(np.dot(grid.dual_widths, U[3]))


class TestDefaultConfigCounts:
    def test_default_config_work(self, monkeypatch):
        cfg = load_config(DEFAULT_CONFIG)
        names = (
            "forward_solve_linear",
            "adjoint_solve",
            "integrate_spacetime_logweight",
            "apply_operator",
            "h1a_norm_sq",
            "integrate_space",
            "LogWeight",
        )
        counts = dict.fromkeys(names + ("log_integral",), 0)

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                counts[name] += 1
                return fn(*args, **kwargs)

            return wrapper

        for name in names:
            fn = getattr(verify, name, None)
            monkeypatch.setattr(verify, name, counted(name, fn), raising=False)
        monkeypatch.setattr(
            LogWeight, "log_integral", counted("log_integral", LogWeight.log_integral)
        )
        rows, _ = run_verifications(cfg)
        assert len(rows) == 120
        assert counts == {
            "forward_solve_linear": 80,
            "adjoint_solve": 40,
            # every weighted integral goes through a weight prepared once
            # per run: four per Carleman kind and 2 log rho0
            "integrate_spacetime_logweight": 0,
            "LogWeight": 9,
            "log_integral": 300,
            "apply_operator": 100,
            "h1a_norm_sq": 80,
            "integrate_space": 0,  # every row integral is one block operation
        }
