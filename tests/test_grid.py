import math

import numpy as np
import pytest

from degctrl import build_grid, integrate_space, integrate_spacetime_logweight
from degctrl.grid import integrate_interior, l2_norm, log_norm_sq, safe_log


class TestGrid:
    def test_graded_nodes(self):
        g = build_grid(8, 4, 1.0, gamma=2.0)
        assert g.x[0] == 0.0 and g.x[-1] == 1.0
        assert np.allclose(g.x, (np.arange(9) / 8.0) ** 2)
        assert g.dt == pytest.approx(0.25)

    @pytest.mark.parametrize("bad", [(1, 4), (4, 1)])
    def test_too_small_raises(self, bad):
        with pytest.raises(ValueError):
            build_grid(bad[0], bad[1], 1.0)

    def test_dual_widths_partition_unity(self):
        g = build_grid(17, 5, 2.0, gamma=1.5)
        assert g.dual_widths.sum() == pytest.approx(1.0)
        assert g.interior_time_weights.sum() == pytest.approx(g.T)
        # computed once per grid and shared read-only with every caller
        assert g.dual_widths is g.dual_widths
        assert not g.dual_widths.flags.writeable
        assert not g.interior_time_weights.flags.writeable

    def test_trapezoid_exact_for_affine(self):
        g = build_grid(13, 4, 1.0, gamma=2.0)
        vals = 3.0 * g.x - 1.0
        assert integrate_space(vals, g) == pytest.approx(0.5, abs=1e-14)

    def test_l2_norm_survives_overflowing_squares(self):
        g = build_grid(13, 4, 1.0, gamma=2.0)
        v = np.random.default_rng(3).standard_normal(g.nx + 1)
        want = float(np.sqrt(integrate_space(v**2, g)))
        assert l2_norm(v, g) == want  # the same bits where v**2 is finite
        for scale in (1e160, 1e250, 1e300):
            assert l2_norm(scale * v, g) == pytest.approx(scale * want, rel=1e-14)
        assert l2_norm(np.where(v > 0, np.inf, v), g) == np.inf
        assert np.isnan(l2_norm(np.where(v > 0, np.nan, v), g))

    def test_safe_log(self):
        assert safe_log(0.0) == -math.inf
        assert safe_log(2.5) == math.log(2.5)
        assert safe_log(math.inf) == math.inf
        assert math.isnan(safe_log(math.nan))

    def test_interior_quadrature_and_its_norm(self):
        g = build_grid(13, 6, 2.0, gamma=2.0)
        # a constant integrates to T times the length of [0, 1]
        assert integrate_interior(np.ones((g.nt - 1, g.nx + 1)), g) == pytest.approx(2.0)
        v = np.random.default_rng(4).standard_normal((g.nt - 1, g.nx + 1))
        want = integrate_interior(v**2, g)
        assert log_norm_sq(v, g) == math.log(want)  # the same bits where v**2 is finite
        for scale in (1e160, 1e250, 1e300):
            got = log_norm_sq(scale * v, g)
            assert got == pytest.approx(math.log(want) + 2.0 * math.log(scale), rel=1e-14)
        row = log_norm_sq(1e300 * v[0], g, integrate_space)  # one row
        assert row == pytest.approx(2.0 * math.log(1e300 * l2_norm(v[0], g)), rel=1e-14)
        assert log_norm_sq(np.where(v > 0, np.inf, v), g) == math.inf
        assert np.isnan(log_norm_sq(np.where(v > 0, np.nan, v), g))
        assert log_norm_sq(np.zeros_like(v), g) == -math.inf


class TestLogWeightQuadrature:
    def test_matches_plain_quadrature_for_zero_logweight(self):
        g = build_grid(12, 10, 1.0)
        rng = np.random.default_rng(0)
        v = rng.random((11, 13))
        lw = np.zeros_like(v)
        got = math.exp(integrate_spacetime_logweight(lw, v, g))
        want = sum(
            w * integrate_space(v[j], g)
            for j, w in zip(range(1, 10), g.interior_time_weights)
        )
        assert got == pytest.approx(want, rel=1e-12)

    def test_homogeneity_under_huge_logweight(self):
        g = build_grid(8, 8, 1.0)
        rng = np.random.default_rng(1)
        v = rng.random((9, 9))
        lw = 1e7 * rng.random((9, 9))
        one = integrate_spacetime_logweight(lw, v, g)
        four = integrate_spacetime_logweight(lw, 4.0 * v, g)
        assert four - one == pytest.approx(math.log(4.0), abs=1e-6)

    def test_zero_values_give_zero(self):
        g = build_grid(8, 8, 1.0)
        lw = np.full((9, 9), 500.0)
        assert integrate_spacetime_logweight(lw, np.zeros((9, 9)), g) == -math.inf

    def test_max_weight_node_with_zero_value_does_not_underflow(self):
        # the largest weight sits where the integrand vanishes; the shift must
        # follow the weighted values, not the raw weights
        g = build_grid(8, 8, 1.0)
        lw = np.zeros((9, 9))
        lw[4, 0] = 2000.0
        v = np.ones((9, 9))
        v[4, 0] = 0.0
        assert np.isfinite(integrate_spacetime_logweight(lw, v, g))

    def test_infinite_weight_on_zero_value_counts_as_zero(self):
        g = build_grid(8, 8, 1.0)
        v = np.random.default_rng(2).random((9, 9))
        v[3, 2] = 0.0
        lw = np.zeros((9, 9))
        want = integrate_spacetime_logweight(lw, v, g)
        lw[3, 2] = math.inf
        assert integrate_spacetime_logweight(lw, v, g) == want

    @pytest.mark.parametrize("bad", ["nan_weight", "nan_value", "negative_value"])
    def test_invalid_inputs_raise(self, bad):
        g = build_grid(8, 8, 1.0)
        lw, v = np.zeros((9, 9)), np.ones((9, 9))
        if bad == "nan_weight":
            lw[2, 3] = math.nan
        elif bad == "nan_value":
            v[2, 3] = math.nan
        else:
            v[2, 3] = -1e-300
        match = "nonnegative" if bad == "negative_value" else "NaN"
        with pytest.raises(ValueError, match=match):
            integrate_spacetime_logweight(lw, v, g)
