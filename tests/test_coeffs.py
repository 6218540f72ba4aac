from fractions import Fraction

import numpy as np
import pytest

from degctrl import (
    DegeneracyCoefficient,
    NonlocalFactor,
    NotVanishing,
    ProblemData,
    SemilinearTerm,
    WeakDegeneracyViolated,
    build_grid,
    linearized_potential,
    power_coefficient,
    power_cosine_coefficient,
    validate_degeneracy,
)
from degctrl.errors import NonMonotone


class TestDegeneracyValidation:
    @pytest.mark.parametrize("alpha", [0.1, 0.25, 0.5, 0.75, 0.99])
    def test_weak_powers_pass(self, alpha):
        K = validate_degeneracy(power_coefficient(alpha))
        assert K == pytest.approx(alpha, abs=1e-6)

    def test_linear_coefficient_rejected(self):
        with pytest.raises(WeakDegeneracyViolated):
            validate_degeneracy(power_coefficient(1.0))

    def test_cosine_modulated_passes(self):
        validate_degeneracy(power_cosine_coefficient(0.5))

    def test_not_vanishing_rejected(self):
        a = DegeneracyCoefficient("shifted", lambda x: 0.5 + x, lambda x: np.ones_like(x))
        with pytest.raises(NotVanishing):
            validate_degeneracy(a)

    def test_nonmonotone_rejected(self):
        a = DegeneracyCoefficient("hump", lambda x: x * (1.2 - x), lambda x: 1.2 - 2.0 * x)
        with pytest.raises(NonMonotone):
            validate_degeneracy(a)


class TestNonlocalAndSemilinear:
    def test_nonlocal_normalization(self):
        ell = NonlocalFactor.affine(0.5)
        assert ell.ell(0.0) == 1.0
        assert ell.ell(2.0) == pytest.approx(2.0)

    def test_semilinear_vanishes_at_zero(self):
        x = np.linspace(0, 1, 5)
        for f in (
            SemilinearTerm.linear(2.0),
            SemilinearTerm.sine(3.0),
            SemilinearTerm.logistic(1.5),
            SemilinearTerm.polynomial([1.0, 0.0, 1.0]),
        ):
            np.testing.assert_array_equal(f.f(0.3, x, np.zeros_like(x)), 0.0)

    def test_polynomial_matches_all_terms_bit_for_bit(self):
        # the powers are running products u*u*...*u; skipping zero
        # coefficients must not change a bit, signed zeros and overflowed
        # powers included
        u = np.array([-0.0, 0.0, -2.5, -1e-3, 0.7, 3.0, 1e100, -1e100])
        for cs in ([1.0, 0.0, 1.0], [0.0, -2.0, 0.0, 0.5], [3.0]):
            term = SemilinearTerm.polynomial(cs)
            want_f, want_df = np.zeros_like(u), np.zeros_like(u)
            power = np.ones_like(u)  # u**k
            with np.errstate(over="ignore"):
                for k, c in enumerate(cs):
                    want_df += c * (k + 1) * power
                    power = power * u
                    want_f += c * power
                got_f, got_df = term.f(0.0, None, u), term.df_du(0.0, None, u)
            assert got_f.tobytes() == want_f.tobytes()
            assert got_df.tobytes() == want_df.tobytes()

    @pytest.mark.parametrize(
        "cs", [[1.0, 0.0, 1.0], [0.0, -2.0, 0.0, 0.5], [3.0], [0.5, -1.0, 0.25, 0.0, 0.1]]
    )
    def test_polynomial_within_ulps_of_its_sum(self, cs):
        # the running products round differently from pow, by a few ulp of
        # sum |c_k u^(k+1)| at most: 4 per degree allowed, against exact sums
        u = np.random.default_rng(11).uniform(-10.0, 10.0, 1000)
        got = SemilinearTerm.polynomial(cs).f(0.0, None, u)
        for ui, fi in zip(u.tolist(), got.tolist()):
            exact = sum(Fraction(c) * Fraction(ui) ** (k + 1) for k, c in enumerate(cs))
            scale = sum(abs(c) * abs(ui) ** (k + 1) for k, c in enumerate(cs))
            assert abs(Fraction(fi) - exact) <= 4 * len(cs) * np.spacing(scale), ui

    def test_cubic_derivative_unchanged(self):
        # df/du of the default cubic, 1 + 3 u^2, is exact in its square: the
        # same bits as through u**0 and u**2
        u = np.random.default_rng(12).uniform(-10.0, 10.0, 1000)
        want = np.zeros_like(u)
        want += 1.0 * 1 * u**0
        want += 1.0 * 3 * u**2
        got = SemilinearTerm.polynomial([1.0, 0.0, 1.0]).df_du(0.0, None, u)
        assert got.tobytes() == want.tobytes()

    def test_linearized_potential_cubic_plus_linear(self):
        # f = u^3 + u has df/du(0) = 1 everywhere
        grid = build_grid(8, 4, 1.0)
        c = linearized_potential(SemilinearTerm.polynomial([1.0, 0.0, 1.0]), grid)
        assert type(c) is float and c == 1.0

    def test_sine_potential(self):
        grid = build_grid(8, 4, 1.0)
        c = linearized_potential(SemilinearTerm.sine(5.0), grid)
        assert type(c) is float and c == 5.0

    @pytest.mark.parametrize(
        "term, want",
        [
            (SemilinearTerm.linear(2.0), 2.0),
            (SemilinearTerm.sine(-3.0), -3.0),
            (SemilinearTerm.logistic(1.5), 1.5),
            (SemilinearTerm.polynomial([0.0, -2.0, 0.5]), 0.0),
        ],
        ids=["linear", "sine", "logistic", "polynomial"],
    )
    def test_potential_of_each_kind_is_a_number(self, term, want):
        c = linearized_potential(term, build_grid(6, 5, 1.0))
        assert type(c) is float and c == want

    @pytest.mark.parametrize(
        "df_du",
        [lambda t, x, u: 1.0 + x + 0.0 * u, lambda t, x, u: (1.0 + t) * np.ones_like(u)],
        ids=["depends_on_x", "depends_on_t"],
    )
    def test_potential_that_is_not_one_number_rejected(self, df_du):
        term = SemilinearTerm(lambda t, x, u: df_du(t, x, u) * u, df_du)
        with pytest.raises(ValueError, match="varies"):
            linearized_potential(term, build_grid(6, 5, 1.0))


class TestProblemData:
    def test_boundary_roundoff_clamped(self):
        grid = build_grid(32, 8, 1.0)
        pd = ProblemData(
            a=power_coefficient(0.5),
            ell=NonlocalFactor.constant(),
            f=SemilinearTerm.linear(1.0),
            omega=(0.3, 0.8),
            T=1.0,
            u0=np.sin(np.pi * grid.x),  # sin(pi) is ~1e-16, not exactly 0
        )
        assert pd.u0[0] == 0.0 and pd.u0[-1] == 0.0

    def test_nonzero_boundary_rejected(self):
        grid = build_grid(8, 4, 1.0)
        with pytest.raises(ValueError):
            ProblemData(
                a=power_coefficient(0.5),
                ell=NonlocalFactor.constant(),
                f=SemilinearTerm.linear(1.0),
                omega=(0.3, 0.8),
                T=1.0,
                u0=np.ones(grid.nx + 1),
            )
