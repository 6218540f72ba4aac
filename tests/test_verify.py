import numpy as np
import pytest

from degctrl import (
    AdmissibilityFail,
    build_grid,
    carleman_check,
    e_norm,
    energy_estimate_ratio,
    forward_solve_linear,
    hardy_poincare_ratio,
    load_golden_caps,
    nonlocal_sup_bound,
    power_coefficient,
    random_profile,
    random_smooth_field,
)
from degctrl.cli import _build_fields, _fmt
from degctrl.config import parse_config
from degctrl.errors import ZeroDenominator
from degctrl.verify import KNOWN_CHECKS, run_verifications


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
