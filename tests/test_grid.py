import importlib
import math
import pkgutil

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import degctrl
from degctrl import build_grid, integrate_space, integrate_spacetime_logweight
from degctrl.grid import LogWeight, integrate_interior, l2_norm, log_norm_sq, safe_log


@pytest.mark.parametrize("name", sorted(m.name for m in pkgutil.iter_modules(degctrl.__path__)))
def test_every_public_name_resolves(name):
    # a stale __all__ entry makes `from degctrl.<module> import *` raise
    module = importlib.import_module(f"degctrl.{name}")
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert not missing


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

    @pytest.mark.parametrize(
        "bad",
        ["nan_weight", "nan_value", "negative_value", "inf_value", "inf_weight",
         "inf_value_zero_weight"],
    )
    def test_invalid_inputs_raise(self, bad):
        # an infinite term used to give NaN
        g = build_grid(8, 8, 1.0)
        lw, v = np.zeros((9, 9)), np.ones((9, 9))
        if bad == "nan_weight":
            lw[2, 3] = math.nan
        elif bad == "nan_value":
            v[2, 3] = math.nan
        elif bad == "negative_value":
            v[2, 3] = -1e-300
        elif bad == "inf_weight":
            lw[2, 3] = math.inf
        elif bad == "inf_value_zero_weight":
            # inf * 0 in the fast path's dot used to warn before this raised
            lw[2, 3], v[2, 3] = -math.inf, math.inf
        else:
            v[2, 3] = math.inf
        match = {"nan_weight": "NaN", "nan_value": "NaN", "negative_value": "nonnegative"}
        with pytest.raises(ValueError, match=match.get(bad, "infinite")):
            integrate_spacetime_logweight(lw, v, g)


def _joint_shift_reference(logw, values, grid):
    """integrate_spacetime_logweight as it was before LogWeight: one shift
    by the max of logw + log(values), summed by integrate_interior."""
    lw = logw[1 : grid.nt]
    vv = values[1 : grid.nt]
    with np.errstate(divide="ignore", invalid="ignore"):
        total = lw + np.log(vv)
    if np.isnan(total).any():
        if np.isnan(lw).any() or np.isnan(vv).any():
            raise ValueError("NaN in weighted-integral inputs")
        if (vv < 0).any():
            raise ValueError("values must be nonnegative")
        total[vv == 0] = -math.inf
    m = float(np.max(total))
    if m == -math.inf:
        return -math.inf
    return safe_log(integrate_interior(np.exp(total - m), grid)) + m


def _agree(got, want):
    """1e-13 relative on the logs; a difference of logs is a relative
    difference of the integrals, so 1e-13 is also the absolute floor."""
    return got == want or abs(got - want) <= 1e-13 * max(abs(want), 1.0)


class TestPreparedLogWeight:
    """LogWeight.log_integral against the joint-shift reference."""

    @settings(max_examples=150, deadline=None)
    @given(
        nx=st.integers(2, 12),
        nt=st.integers(2, 12),
        seed=st.integers(0, 2**32 - 1),
        weight_scale=st.sampled_from([0.0, 1.0, 1e3, 1e8]),
        value_exp=st.integers(-300, 300),
        zero_fraction=st.sampled_from([0.0, 0.3, 0.9]),
        mode=st.sampled_from(["plain", "max_on_zero", "tiny"]),
    )
    def test_matches_joint_shift(
        self, nx, nt, seed, weight_scale, value_exp, zero_fraction, mode
    ):
        g = build_grid(nx, nt, 1.0)
        rng = np.random.default_rng(seed)
        shape = (nt + 1, nx + 1)
        lw = weight_scale * rng.uniform(-1.0, 1.0, shape)  # spans +-1e8
        v = 10.0**value_exp * rng.random(shape)
        v[rng.random(shape) < zero_fraction] = 0.0
        j, i = rng.integers(1, nt), rng.integers(0, nx + 1)  # an interior node
        if mode == "max_on_zero":  # the largest weight sits where v vanishes
            lw[j, i] = abs(lw).max() + 2000.0
            v[j, i] = 0.0
        elif mode == "tiny":
            # a tiny value under the largest weight; the others' table
            # entries underflow, and their sum outweighs it
            lw -= lw.max() + rng.uniform(700.0, 745.0, shape)
            lw[j, i] = 0.0
            v[j, i] = 5e-324 * rng.integers(1, 4)
        got = LogWeight(lw, g).log_integral(v)
        want = _joint_shift_reference(lw, v, g)
        assert _agree(got, want), (got, want)
        assert integrate_spacetime_logweight(lw, v, g) == got

    def test_underflowed_entries_take_the_joint_shift(self):
        # under the shift by the top weight every other table entry is a
        # subnormal good to about 1%, and their sum is about 400 times the
        # top value's contribution
        g = build_grid(8, 8, 1.0)
        lw = np.full((9, 9), -735.0)
        lw[4, 4] = 0.0
        v = np.ones((9, 9))
        v[4, 4] = 1e-320
        want = _joint_shift_reference(lw, v, g)
        top_only = np.where(lw == 0.0, v, 0.0)
        assert want > _joint_shift_reference(lw, top_only, g) + 5.0
        assert _agree(LogWeight(lw, g).log_integral(v), want)

    def test_one_weight_many_values(self):
        # the exp table follows the shift from one call to the next
        g = build_grid(10, 9, 2.0)
        rng = np.random.default_rng(5)
        lw = 50.0 * rng.standard_normal((10, 11))
        w = LogWeight(lw, g)
        for k in range(6):
            v = rng.random((10, 11))
            v[rng.random((10, 11)) < 0.2 * k] = 0.0
            assert _agree(w.log_integral(v), _joint_shift_reference(lw, v, g))

    @pytest.mark.parametrize("bad", ["nan", "negative", "negative_under_top_weight"])
    def test_refusals(self, bad):
        g = build_grid(8, 8, 1.0)
        lw = np.zeros((9, 9))
        lw[2, 3] = 10.0
        v = np.ones((9, 9))
        if bad == "nan":
            v[5, 5] = math.nan
        elif bad == "negative":
            v[5, 5] = -1.0  # neither NaN nor a negative value counts as > 0
        else:
            v[2, 3] = -1e-300
        w = LogWeight(lw, g)
        with pytest.raises(ValueError, match="NaN" if bad == "nan" else "nonnegative"):
            w.log_integral(v)

    def test_nan_weight_raises_for_any_values(self):
        g = build_grid(8, 8, 1.0)
        lw = np.zeros((9, 9))
        lw[3, 3] = math.nan
        for v in (np.ones((9, 9)), np.zeros((9, 9))):
            with pytest.raises(ValueError, match="NaN"):
                LogWeight(lw, g).log_integral(v)

    def test_all_zero_values_give_minus_inf(self):
        g = build_grid(8, 8, 1.0)
        w = LogWeight(np.full((9, 9), 1e8), g)
        assert w.log_integral(np.zeros((9, 9))) == -math.inf
        v = np.zeros((9, 9))
        v[0] = v[-1] = 1.0  # rows 0 and nt are not integrated
        assert w.log_integral(v) == -math.inf

    def test_shape_checked(self):
        g = build_grid(8, 8, 1.0)
        with pytest.raises(ValueError, match="shape"):
            LogWeight(np.zeros((9, 8)), g)
        with pytest.raises(ValueError, match="shape"):
            LogWeight(np.zeros((9, 9)), g).log_integral(np.ones((8, 9)))


class TestModeTables:
    """The grid's sine and cosine tables give the random draws of verify
    the same bits as the formulas they replace."""

    @pytest.mark.parametrize("nx, nt, T, gamma", [(12, 10, 1.0, 2.0), (64, 64, 1.0, 2.0),
                                                  (33, 7, 2.5, 1.5)])
    def test_draws_bit_identical_to_uncached_formulas(self, nx, nt, T, gamma):
        from degctrl.verify import random_profile, random_smooth_field

        g = build_grid(nx, nt, T, gamma)
        for seed in range(3):
            rng, ref = np.random.default_rng(seed), np.random.default_rng(seed)
            for modes in (5, 3):
                k = np.arange(1, modes + 1)
                want = np.sin(np.pi * np.outer(g.x, k)) @ (ref.standard_normal(modes) / k)
                assert np.array_equal(random_profile(g, rng, modes), want)
            for modes in (4, 2):
                k = np.arange(1, modes + 1)
                coef = ref.standard_normal((modes, modes)) / np.add.outer(k**2, k**2) * 4.0
                sx = np.sin(np.pi * np.outer(g.x, k))
                ct = np.cos(np.pi * np.outer(g.t, k) / g.T)
                assert np.array_equal(random_smooth_field(g, rng, modes), ct @ coef @ sx.T)
        # computed once per grid and mode count, and read-only
        assert g.sine_modes(5) is g.sine_modes(5)
        assert not g.sine_modes(5).flags.writeable
        assert not g.cosine_modes(4).flags.writeable
        assert not g.interior_quadrature.flags.writeable
