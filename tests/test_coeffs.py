import numpy as np
import pytest

from degctrl import (
    NonlocalFactor,
    NotVanishing,
    ProblemData,
    SemilinearTerm,
    WeakDegeneracyViolated,
    build_grid,
    eval_b,
    linearized_potential,
    power_coefficient,
    power_cosine_coefficient,
    tabulated_coefficient,
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
        x = np.linspace(0.0, 1.0, 11)
        with pytest.raises(NotVanishing):
            validate_degeneracy(tabulated_coefficient(x, 0.5 + x))

    def test_nonmonotone_rejected(self):
        x = np.linspace(0.0, 1.0, 101)
        vals = x * (1.2 - x)
        with pytest.raises(NonMonotone):
            validate_degeneracy(tabulated_coefficient(x, vals))


class TestNonlocalAndSemilinear:
    def test_nonlocal_normalization(self):
        ell = NonlocalFactor.affine(0.5)
        assert ell.ell(0.0) == 1.0
        assert ell.ell(2.0) == pytest.approx(2.0)

    def test_eval_b_separates(self):
        a = power_coefficient(0.5)
        ell = NonlocalFactor.affine(0.5)
        x = np.array([0.25, 1.0])
        np.testing.assert_allclose(eval_b(a, ell, x, 2.0), 2.0 * np.sqrt(x))

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
        # skipping zero coefficients must not change a bit, signed zeros
        # and overflowed powers included
        u = np.array([-0.0, 0.0, -2.5, -1e-3, 0.7, 3.0, 1e100, -1e100])
        for cs in ([1.0, 0.0, 1.0], [0.0, -2.0, 0.0, 0.5], [3.0]):
            term = SemilinearTerm.polynomial(cs)
            want_f, want_df = np.zeros_like(u), np.zeros_like(u)
            with np.errstate(over="ignore"):
                for k, c in enumerate(cs):
                    want_f += c * u ** (k + 1)
                    want_df += c * (k + 1) * u**k
                got_f, got_df = term.f(0.0, None, u), term.df_du(0.0, None, u)
            assert got_f.tobytes() == want_f.tobytes()
            assert got_df.tobytes() == want_df.tobytes()

    def test_linearized_potential_cubic_plus_linear(self):
        # f = u^3 + u has df/du(0) = 1 everywhere
        grid = build_grid(8, 4, 1.0)
        c = linearized_potential(SemilinearTerm.polynomial([1.0, 0.0, 1.0]), grid)
        np.testing.assert_allclose(c, 1.0)

    def test_sine_potential(self):
        grid = build_grid(8, 4, 1.0)
        c = linearized_potential(SemilinearTerm.sine(5.0), grid)
        np.testing.assert_allclose(c, 5.0)


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
