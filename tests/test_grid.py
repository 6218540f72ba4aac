import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from degctrl import LogValue, build_grid, integrate_space, integrate_spacetime_logweight
from degctrl.grid import l2_norm

finite_floats = st.floats(
    min_value=1e-300, max_value=1e300, allow_nan=False, allow_infinity=False
)


class TestLogValue:
    @given(finite_floats)
    def test_round_trip(self, v):
        assert math.isclose(LogValue.from_float(v).to_float(), v, rel_tol=1e-12)

    @given(finite_floats, finite_floats)
    def test_add_matches_float_sum(self, a, b):
        s = LogValue.from_float(a) + LogValue.from_float(b)
        assert math.isclose(s.log(), math.log(a + b), rel_tol=0, abs_tol=1e-9)

    @given(finite_floats, finite_floats)
    def test_mul_adds_logs(self, a, b):
        p = LogValue.from_float(a) * LogValue.from_float(b)
        assert math.isclose(p.log(), math.log(a) + math.log(b), abs_tol=1e-9)

    def test_zero(self):
        z = LogValue.zero()
        assert z.is_zero()
        assert z.log() == -math.inf
        v = LogValue.from_float(3.0)
        assert (z + v).log() == pytest.approx(math.log(3.0))

    def test_shifted_preserves_value(self):
        v = LogValue.from_float(2.5).shifted(100.0)
        assert v.log() == pytest.approx(math.log(2.5) + 100.0)

    def test_ratio_of_huge_scales(self):
        a = LogValue(1.0, 1e8)
        b = LogValue(2.0, 1e8)
        assert a.ratio(b).to_float() == pytest.approx(0.5)

    def test_ordering(self):
        assert LogValue.from_float(1.0) < LogValue(1.0, 5.0)


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


class TestLogWeightQuadrature:
    def test_matches_plain_quadrature_for_zero_logweight(self):
        g = build_grid(12, 10, 1.0)
        rng = np.random.default_rng(0)
        v = rng.random((11, 13))
        lw = np.zeros_like(v)
        got = integrate_spacetime_logweight(lw, v, g).to_float()
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
        assert four.log() - one.log() == pytest.approx(math.log(4.0), abs=1e-6)

    def test_zero_values_give_zero(self):
        g = build_grid(8, 8, 1.0)
        lw = np.full((9, 9), 500.0)
        assert integrate_spacetime_logweight(lw, np.zeros((9, 9)), g).is_zero()

    def test_max_weight_node_with_zero_value_does_not_underflow(self):
        # the largest weight sits where the integrand vanishes; the shift must
        # follow the weighted values, not the raw weights
        g = build_grid(8, 8, 1.0)
        lw = np.zeros((9, 9))
        lw[4, 0] = 2000.0
        v = np.ones((9, 9))
        v[4, 0] = 0.0
        got = integrate_spacetime_logweight(lw, v, g)
        assert not got.is_zero()
        assert np.isfinite(got.log())

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
