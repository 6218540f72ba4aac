import math
import os

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from degctrl import (
    AdmissibilityFail,
    LogValue,
    apply_operator,
    assemble_degenerate_operator,
    bilinear_bound_check,
    build_grid,
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
from degctrl.cli import _build_fields, _fmt
from degctrl.config import load_config, parse_config
from degctrl.errors import ZeroDenominator
from degctrl.verify import KNOWN_CHECKS, _ratio, run_verifications
from tests.conftest import make_fields

DEFAULT_CONFIG = os.path.join(os.path.dirname(__file__), "..", "configs", "default.json")


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
    def test_both_kinds_finite(self, bench32):
        grid = bench32.grid
        rng = np.random.default_rng(3)
        F = random_smooth_field(grid, rng)
        vT = random_profile(grid, rng)
        for kind in ("phi_weights", "A_weights"):
            rep = carleman_check(
                kind, F, vT, bench32.c, bench32.fields, grid, bench32.op, bench32.omega
            )
            assert np.isfinite(rep.ratio)
            assert np.isfinite(rep.lhs.log()) and np.isfinite(rep.rhs.log())

    def test_unknown_kind_rejected(self, bench32):
        grid = bench32.grid
        F = np.zeros((grid.nt + 1, grid.nx + 1))
        with pytest.raises(ValueError):
            carleman_check(
                "bogus", F, None, bench32.c, bench32.fields, grid, bench32.op, bench32.omega
            )


class TestENorm:
    def test_finite_for_free_solution(self, bench32):
        grid = bench32.grid
        u0 = np.sin(np.pi * grid.x)
        u0[0] = u0[-1] = 0.0
        u = forward_solve_linear(bench32.c, None, None, u0, grid, bench32.op)
        en = e_norm(u, None, bench32.fields, grid, bench32.op)
        assert np.isfinite(en.log())

    def test_scales_quadratically(self, bench32):
        grid = bench32.grid
        u0 = np.sin(np.pi * grid.x)
        u0[0] = u0[-1] = 0.0
        u = forward_solve_linear(bench32.c, None, None, u0, grid, bench32.op)
        en = e_norm(u, None, bench32.fields, grid, bench32.op)
        en2 = e_norm(2.0 * u, None, bench32.fields, grid, bench32.op)
        assert en2.log() - en.log() == pytest.approx(np.log(4.0), abs=1e-6)

    def test_sup_bound_finite(self, bench32):
        grid = bench32.grid
        u0 = np.sin(np.pi * grid.x)
        u0[0] = u0[-1] = 0.0
        u = forward_solve_linear(bench32.c, None, None, u0, grid, bench32.op)
        rep = nonlocal_sup_bound(u, None, bench32.fields, grid, bench32.op)
        assert np.isfinite(rep.lhs.log())
        assert rep.lhs.log() <= rep.rhs.log()


class TestEnergyEstimate:
    def test_ratio_order_one(self):
        grid = build_grid(32, 32, 1.0)
        from degctrl import assemble_degenerate_operator

        op = assemble_degenerate_operator(power_coefficient(0.5), grid)
        rng = np.random.default_rng(0)
        u0 = random_profile(grid, rng)
        F = random_smooth_field(grid, rng)
        c = np.zeros((grid.nt + 1, grid.nx + 1))
        u = forward_solve_linear(c, F, None, u0, grid, op)
        rep = energy_estimate_ratio(u, F, grid, op)
        assert 0.0 < rep.ratio < 100.0


def _run(checks):
    raw = {
        "problem": {"a": {"kind": "power", "alpha": 0.5}},
        "discretization": {"nx": 12, "nt": 12},
        "verify": {"checks": list(checks), "seed": 5, "ensemble": 2},
    }
    rows, _ = run_verifications(parse_config(raw), _build_fields)
    return rows


@pytest.fixture(scope="module")
def full_run():
    return _run(KNOWN_CHECKS)


class TestGoldenCaps:
    def test_all_checks_have_caps(self, full_run):
        # a report name without a cap would pass unchecked
        caps = load_golden_caps()
        names = {row[0] for row in full_run}
        assert len(names) == len(KNOWN_CHECKS)
        for name in names:
            assert name in caps and caps[name] > 0


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


# Per-row references: the witnesses as they were written before the row
# loops were replaced by whole-trajectory array operations.


def _ref_e_norm(u, h, fields, grid, op):
    lw0 = 2.0 * fields.log_rho0
    term1 = integrate_spacetime_logweight(lw0, u * u, grid)
    if h is not None:
        term2 = integrate_spacetime_logweight(2.0 * fields.log_rhostar, h * h, grid)
    else:
        term2 = LogValue.zero()
    res = np.zeros_like(u)
    for j in range(1, grid.nt + 1):
        res[j] = (u[j] - u[j - 1]) / grid.dt - apply_operator(op, u[j])
        if h is not None:
            res[j] -= h[j]
    term3 = integrate_spacetime_logweight(lw0, res * res, grid)
    term4 = LogValue.from_float(h1a_norm_sq(u[0], op, grid))
    return term1 + term2 + term3 + term4


def _ref_sup(u, h, fields, grid, op):
    M = fields.M
    best = LogValue.zero()
    witness = -math.inf
    for j in range(1, grid.nt):
        iu = integrate_space(u[j], grid)
        lv = LogValue(iu * iu, -2.0 * M / fields.m[j])
        if best.is_zero() or lv.log() > best.log():
            best = lv
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
    rhs = _ref_e_norm(u, h, fields, grid, op) * _ref_e_norm(ub, hb, fields, grid, op)
    return lhs, rhs, 0.0 if rhs.is_zero() else _ratio(lhs, rhs)


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
    L, R = LogValue.from_float(sup_h1a + ut2 + lu2), LogValue.from_float(rhs)
    return L, R, _ratio(L, R)


REL = 1e-13


def _close(got, want):
    """Relative agreement; a difference of logs is a relative difference of
    the values, so it gets REL as an absolute floor."""
    if isinstance(got, LogValue):
        got, want = got.log(), want.log()
        return got == want or math.isclose(got, want, rel_tol=REL, abs_tol=REL)
    return got == want or math.isclose(got, want, rel_tol=REL)


def _witness_pairs(nx, nt, gamma, seed, with_h):
    """(batched, per-row reference) results of the four row-loop witnesses
    on one random case."""
    grid = build_grid(nx, nt, 1.0, gamma)
    a = power_coefficient(0.5)
    op = assemble_degenerate_operator(a, grid)
    fields = make_fields(a, grid)
    rng = np.random.default_rng(seed)
    c = np.ones((nt + 1, nx + 1))
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
        ((sup.lhs, sup.rhs, sup.ratio, sup.params["claim_witness"]),
         _ref_sup(u, h, fields, grid, op)),
        ((bil.lhs, bil.rhs, bil.ratio), _ref_bilinear(u, h, ub, hb, fields, grid, op)),
        ((en.lhs, en.rhs, en.ratio), _ref_energy(u, F, grid, op)),
    ]


def _assert_pairs_close(pairs):
    for got, want in pairs:
        got = got if isinstance(got, tuple) else (got,)
        want = want if isinstance(want, tuple) else (want,)
        for g, w in zip(got, want, strict=True):
            assert _close(g, w), (g, w)


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
        )
        counts = dict.fromkeys(names, 0)

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                counts[name] += 1
                return fn(*args, **kwargs)

            return wrapper

        for name in names:
            fn = getattr(verify, name, None)
            monkeypatch.setattr(verify, name, counted(name, fn), raising=False)
        rows, _ = run_verifications(cfg, _build_fields)
        assert len(rows) == 120
        assert counts == {
            "forward_solve_linear": 80,
            "adjoint_solve": 40,
            "integrate_spacetime_logweight": 300,
            "apply_operator": 100,
            "h1a_norm_sq": 80,
            "integrate_space": 0,  # every row integral is one block operation
        }
