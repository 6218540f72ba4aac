import numpy as np
import pytest

from degctrl import (
    DegeneracyCoefficient,
    build_grid,
    build_psi,
    build_truncated_fields,
    default_omega_prime,
    eval_m,
    power_coefficient,
    power_cosine_coefficient,
)
from tests.conftest import OMEGA, make_fields


def _quadrature(a, lo, hi):
    """int_lo^hi y / a(y) dy by adaptive quadrature, the reference for psi."""
    from scipy.integrate import quad

    val, _ = quad(lambda y: y / float(a(y)) if y else 0.0, lo, hi,
                  limit=200, epsabs=0.0, epsrel=1e-13)
    return val


@pytest.fixture(scope="module")
def grid():
    return build_grid(64, 64, 1.0)


@pytest.fixture(scope="module")
def fields(grid):
    return make_fields(power_coefficient(0.5), grid)


class TestPsi:
    @pytest.mark.parametrize("alpha", [0.25, 0.5, 0.75])
    def test_left_branch_closed_form(self, alpha, grid):
        # int_0^x y / y^alpha dy = x^(2-alpha) / (2-alpha)
        psi = build_psi(power_coefficient(alpha), default_omega_prime(OMEGA), grid)
        sel = grid.x <= psi.alpha_p
        want = grid.x[sel] ** (2.0 - alpha) / (2.0 - alpha)
        np.testing.assert_allclose(psi.psi_nodes[sel], want, rtol=1e-12)

    def test_right_branch_nonpositive_and_zero_at_bp(self, grid):
        psi = build_psi(power_coefficient(0.5), default_omega_prime(OMEGA), grid)
        sel = grid.x >= psi.beta_p
        assert np.all(psi.psi_nodes[sel] <= 1e-15)

    def test_blend_matches_branches_at_junctions(self, grid):
        # the quintic Hermite blend interpolates value and slope of both
        # branches, so evaluating it at the junctions must reproduce the
        # branch values: closed form for "power", quadrature for "power_cosine"
        alpha = 0.5
        for a in (power_coefficient(alpha), power_cosine_coefficient(alpha)):
            psi = build_psi(a, default_omega_prime(OMEGA), grid)
            ap, bp = psi.alpha_p, psi.beta_p
            if a.kind == "power":
                left_val = ap ** (2.0 - alpha) / (2.0 - alpha)
            else:
                left_val = _quadrature(a, 0.0, ap)
            assert float(psi.blend(ap)) == pytest.approx(left_val, rel=1e-10)
            assert float(psi.blend(bp)) == pytest.approx(0.0, abs=1e-12)
            # slope at the left junction equals the integrand x / a(x)
            eps = 1e-7
            slope = (float(psi.blend(ap + eps)) - float(psi.blend(ap - eps))) / (2 * eps)
            assert slope == pytest.approx(ap / float(a(ap)), rel=1e-5)

    @pytest.mark.parametrize("gamma", [1.0, 2.0])
    @pytest.mark.parametrize("nx", [16, 64, 256])
    @pytest.mark.parametrize("alpha", [0.1, 0.5, 0.9])
    @pytest.mark.parametrize("make", [power_coefficient, power_cosine_coefficient],
                             ids=["power", "power_cosine"])
    def test_exact_primitive_matches_quadrature(self, make, alpha, nx, gamma):
        # the exact branches against adaptive quadrature of y / a(y)
        a = make(alpha)
        grid = build_grid(nx, 4, 1.0, gamma=gamma)
        psi = build_psi(a, default_omega_prime(OMEGA), grid)
        ap, bp = psi.alpha_p, psi.beta_p
        x = grid.x
        left, right = x < ap, x > bp
        want = np.concatenate([[_quadrature(a, 0.0, xi) for xi in x[left]],
                               [-_quadrature(a, bp, xi) for xi in x[right]]])
        v_ap, v_1 = _quadrature(a, 0.0, ap), -_quadrature(a, bp, 1.0)
        blend_max = np.max(np.abs(psi.blend(np.linspace(ap, bp, 2001))))
        tol = 1e-13 * psi.psi_inf
        np.testing.assert_allclose(psi.psi_nodes[left | right], want, rtol=0, atol=tol)
        assert abs(float(psi.blend(ap)) - v_ap) <= tol
        assert abs(psi.psi_inf - max(abs(v_ap), abs(v_1), blend_max)) <= tol

    def test_coefficient_without_primitive_rejected(self, grid):
        a = DegeneracyCoefficient("hump", lambda x: x * (1.2 - x), lambda x: 1.2 - 2.0 * x)
        with pytest.raises(ValueError, match="hump"):
            build_psi(a, default_omega_prime(OMEGA), grid)

    def test_psi_inf_bounds_nodes(self, grid):
        psi = build_psi(power_coefficient(0.5), default_omega_prime(OMEGA), grid)
        assert np.max(np.abs(psi.psi_nodes)) <= psi.psi_inf * (1 + 1e-12)


class TestTimeProfile:
    def test_m_at_zero_and_half(self):
        T = 2.0
        assert eval_m(0.0, T) == pytest.approx((T / 2) ** 4 * T**4)
        t = 1.7
        assert eval_m(t, T) == pytest.approx(t**4 * (T - t) ** 4)

    def test_m_positive_before_T(self):
        T = 1.0
        t = np.linspace(0, T, 101)[:-1]
        assert np.all(eval_m(t, T) > 0)

    def test_m_vanishes_at_T(self):
        assert eval_m(1.0, 1.0) == 0.0


class TestWeightFields:
    def test_beta_negative(self, fields):
        assert np.all(fields.beta < 0)

    def test_identity_exact(self, fields):
        with np.errstate(invalid="ignore"):
            err = 2.0 * fields.log_rhohat - fields.log_rhostar - fields.log_rho0
        interior = np.isfinite(err)
        assert np.max(np.abs(err[interior])) == 0.0

    def test_A_equals_phi_late(self, grid, fields):
        late = (grid.t >= 0.5) & (grid.t < 1.0)
        rel = np.abs(fields.A[late] - fields.phi[late]) / np.abs(fields.phi[late])
        assert np.max(rel) <= 1e-12

    def test_A_dominates_phi_early(self, grid, fields):
        early = grid.t < 0.5
        assert np.all(fields.A[early] >= fields.phi[early] - 1e-12)

    def test_M_strictly_between(self, fields):
        s, bb = fields.s, fields.beta_bar
        assert s * bb < fields.M < 0.0

    def test_rho_family_infinite_at_T(self, fields):
        assert np.all(np.isposinf(fields.log_rho0[-1]))


class TestTruncation:
    def test_truncated_exponent_zero_at_T(self, grid, fields):
        tr = build_truncated_fields(fields, 100.0, OMEGA, grid)
        np.testing.assert_array_equal(tr.A_n[-1], 0.0)
        assert np.all(np.isfinite(tr.log_rho0_n))

    def test_truncation_increases_with_n(self, grid, fields):
        # larger n means weaker truncation: A_n closer to A, so more negative
        t1 = build_truncated_fields(fields, 10.0, OMEGA, grid)
        t2 = build_truncated_fields(fields, 1000.0, OMEGA, grid)
        interior = slice(1, grid.nt)
        assert np.all(t2.A_n[interior] <= t1.A_n[interior] + 1e-12)

    def test_varsigma_terminal_limit(self, grid, fields):
        n = 50.0
        tr = build_truncated_fields(fields, n, OMEGA, grid)
        want = np.log(n) + fields.log_eta - 4.0 * np.log(grid.T)
        np.testing.assert_allclose(tr.log_varsigma_n[-1], want, rtol=1e-12)

    def test_omega_mask(self, grid, fields):
        tr = build_truncated_fields(fields, 10.0, OMEGA, grid)
        assert np.array_equal(tr.omega_mask, (grid.x >= 0.3) & (grid.x <= 0.8))
