import dataclasses

import numpy as np
import pytest
from scipy.linalg import solve_banded

from degctrl import (
    NonlocalFactor,
    ProblemData,
    SemilinearTerm,
    adjoint_solve,
    apply_operator,
    assemble_degenerate_operator,
    build_grid,
    duality_pairing,
    forward_solve_linear,
    forward_solve_nonlinear,
    integrate_space,
    power_coefficient,
    tabulated_coefficient,
)
from degctrl import pde
from degctrl.errors import PicardDivergence
from degctrl.hum import PenaltySchedule, solve_null_control
from degctrl.pde import MODAL_MAX_NX, _ModalFactors
from tests.conftest import make_control_problem, make_nonlinear_problem


def uniform_coefficient():
    x = np.linspace(0.0, 1.0, 3)
    # a = x is not admissible here, but a tabulated a == const is fine for
    # stencil checks where we bypass degeneracy validation entirely
    return tabulated_coefficient(x, np.ones_like(x))


class TestOperator:
    def test_uniform_coefficient_gives_laplacian(self):
        # u = x(1-x) vanishes at both boundaries, so the Dirichlet stencil is
        # exact: (u)_xx = -2 at every interior node of the uniform grid
        grid = build_grid(8, 4, 1.0, gamma=1.0)
        op = assemble_degenerate_operator(uniform_coefficient(), grid)
        u = grid.x * (1.0 - grid.x)
        out = apply_operator(op, u)
        np.testing.assert_allclose(out[1:-1], -2.0, rtol=1e-10)

    def test_degenerate_flux_form_converges(self):
        # for a = sqrt(x) and u = x^{3/2} - x^{5/2}: a u_x = 1.5 x - 2.5 x^2,
        # so (a u_x)_x = 1.5 - 5 x exactly; check max-norm convergence on a
        # window away from the degeneracy point
        errs = []
        for nx in (128, 256):
            grid = build_grid(nx, 4, 1.0, gamma=2.0)
            op = assemble_degenerate_operator(power_coefficient(0.5), grid)
            u = grid.x**1.5 - grid.x**2.5
            out = apply_operator(op, u)
            want = 1.5 - 5.0 * grid.x
            sel = (grid.x >= 0.01) & (grid.x <= 0.99)
            errs.append(np.max(np.abs(out[sel] - want[sel])))
        assert errs[1] < errs[0]
        assert errs[1] < 1e-2

    def test_boundary_rows_zero(self):
        grid = build_grid(8, 4, 1.0)
        op = assemble_degenerate_operator(power_coefficient(0.5), grid)
        out = apply_operator(op, np.sin(np.pi * grid.x))
        assert out[0] == 0.0 and out[-1] == 0.0


class TestForwardSolve:
    def test_decay_without_forcing(self):
        grid = build_grid(32, 32, 1.0)
        op = assemble_degenerate_operator(power_coefficient(0.5), grid)
        u0 = np.sin(np.pi * grid.x)
        u0[0] = u0[-1] = 0.0
        u = forward_solve_linear(0.0, None, None, u0, grid, op)
        norms = [integrate_space(u[j] ** 2, grid) for j in range(grid.nt + 1)]
        assert all(b <= a + 1e-15 for a, b in zip(norms, norms[1:]))

    def test_manufactured_spatial_convergence(self):
        # exact solution e^{ -t } (x^{3/2} - x^{5/2}) for a = sqrt(x), c = 1
        errs = []
        for nx in (16, 32, 64):
            grid = build_grid(nx, nx * nx // 4, 1.0)
            op = assemble_degenerate_operator(power_coefficient(0.5), grid)
            x, t = grid.x, grid.t[:, None]
            exact = np.exp(-t) * (x**1.5 - x**2.5)
            src = np.exp(-t) * (-(x**1.5 - x**2.5) - (1.5 - 5.0 * x) + (x**1.5 - x**2.5))
            u = forward_solve_linear(1.0, src, None, exact[0], grid, op)
            errs.append(np.sqrt(integrate_space((u[-1] - exact[-1]) ** 2, grid)))
        orders = [np.log2(e1 / e2) for e1, e2 in zip(errs, errs[1:])]
        assert min(orders) >= 1.8

    def test_nonlinear_reduces_to_linear(self):
        grid = build_grid(24, 24, 1.0)
        op = assemble_degenerate_operator(power_coefficient(0.5), grid)
        pd = ProblemData(
            a=power_coefficient(0.5),
            ell=NonlocalFactor.constant(),
            f=SemilinearTerm.linear(1.0),
            omega=(0.3, 0.8),
            T=1.0,
            u0=np.sin(np.pi * grid.x),
        )
        h = np.zeros((grid.nt + 1, grid.nx + 1))
        u_nl = forward_solve_nonlinear(pd, h, grid, op)
        u_lin = forward_solve_linear(1.0, None, None, pd.u0, grid, op)
        np.testing.assert_allclose(u_nl, u_lin, atol=1e-12)

    def test_picard_divergence_on_blowup(self):
        grid = build_grid(16, 4, 1.0)
        op = assemble_degenerate_operator(power_coefficient(0.5), grid)
        pd = make_nonlinear_problem(grid, amplitude=0.1)
        pd = ProblemData(
            a=pd.a,
            ell=NonlocalFactor.affine(-500.0),  # violently state-dependent
            f=pd.f,
            omega=pd.omega,
            T=pd.T,
            u0=5.0 * np.sin(np.pi * grid.x),
        )
        h = np.zeros((grid.nt + 1, grid.nx + 1))
        with pytest.raises(PicardDivergence):
            forward_solve_nonlinear(pd, h, grid, op, maxit=10)

    def _sloped_cubic(self, grid):
        """ell(r) = 1 + 2r, f = u^3 + u, with a nonzero control h."""
        pd = ProblemData(
            a=power_coefficient(0.5),
            ell=NonlocalFactor.affine(2.0),
            f=SemilinearTerm.polynomial([1.0, 0.0, 1.0]),
            omega=(0.3, 0.8),
            T=1.0,
            u0=np.sin(np.pi * grid.x),
        )
        h = 2.0 * np.cos(3.0 * grid.t)[:, None] * np.sin(2.0 * np.pi * grid.x)[None, :]
        return pd, h

    def test_rows_solve_the_step_equation(self):
        # (u_j - u_{j-1})/dt - ell(int u_j) L u_j + f(t_j, x, u_j) = h_j on
        # the interior nodes, up to the inner loop's stop tolerance
        grid = build_grid(32, 32, 1.0)
        op = assemble_degenerate_operator(power_coefficient(0.5), grid)
        pd, h = self._sloped_cubic(grid)
        u = forward_solve_nonlinear(pd, h, grid, op)
        for j in range(1, grid.nt + 1):
            ell = pd.ell.ell(integrate_space(u[j], grid))
            res = (
                (u[j] - u[j - 1]) / grid.dt
                - ell * apply_operator(op, u[j])
                + pd.f.f(grid.t[j], grid.x, u[j])
                - h[j]
            )
            scale = np.max(np.abs(u[j - 1])) / grid.dt
            assert np.max(np.abs(res[1:-1])) <= 1e-8 * scale, j

    def test_inner_solve_count(self):
        # one ell call per inner solve, counted as perfbench's tracer counts
        # pde.picard_iters; a change to the iteration path moves the count
        grid = build_grid(32, 32, 1.0)
        op = assemble_degenerate_operator(power_coefficient(0.5), grid)
        pd, h = self._sloped_cubic(grid)
        ell, calls = pd.ell.ell, []
        pd.ell.ell = lambda r: calls.append(r) or ell(r)
        forward_solve_nonlinear(pd, h, grid, op)
        assert len(calls) == 210  # 6.6 per step


def _reference_step(op, dt, c_row, rhs):
    """One implicit step with a freshly assembled banded matrix, per row."""
    n = op.diag.size
    ab = np.zeros((3, n))
    ab[0, 1:] = -op.upper[:-1]
    ab[1, :] = 1.0 / dt - op.diag + c_row
    ab[2, :-1] = -op.lower[1:]
    return solve_banded((1, 1), ab, rhs)


def _reference_forward(c, g, h, u0, grid, op):
    c = np.broadcast_to(c, (grid.nt + 1, grid.nx + 1))
    u = np.zeros((grid.nt + 1, grid.nx + 1))
    u[0, 1:-1] = u0[1:-1]
    for j in range(1, grid.nt + 1):
        rhs = u[j - 1, 1:-1] / grid.dt
        if h is not None:
            rhs = rhs + h[j, 1:-1]
        if g is not None:
            rhs = rhs + g[j, 1:-1]
        u[j, 1:-1] = _reference_step(op, grid.dt, c[j, 1:-1], rhs)
    return u


def _reference_adjoint(source, c, grid, op, terminal):
    c = np.broadcast_to(c, (grid.nt + 1, grid.nx + 1))
    p = np.zeros((grid.nt + 1, grid.nx + 1))
    p_next = terminal[1:-1]
    for j in range(grid.nt, 0, -1):
        rhs = p_next / grid.dt + source[j, 1:-1]
        p[j, 1:-1] = p_next = _reference_step(op, grid.dt, c[j, 1:-1], rhs)
    p[0] = p[1]
    return p


def _kernel_pairs(nx, nt):
    """(solver, reference) results on one random case: forward for every
    (g, h) combination, adjoint with zero and with random terminal data."""
    grid = build_grid(nx, nt, 1.0)
    op = assemble_degenerate_operator(power_coefficient(0.5), grid)
    rng = np.random.default_rng(11)
    shape = (grid.nt + 1, grid.nx + 1)
    c = 0.7
    g, h, s = (rng.standard_normal(shape) for _ in range(3))
    u0 = np.sin(np.pi * grid.x)
    terminal = np.zeros(grid.nx + 1)
    terminal[1:-1] = rng.standard_normal(grid.nx - 1)
    pairs = [
        (
            forward_solve_linear(c, gg, hh, u0, grid, op),
            _reference_forward(c, gg, hh, u0, grid, op),
        )
        for gg, hh in ((g, h), (None, h), (g, None), (None, None))
    ]
    pairs += [
        (
            adjoint_solve(s, c, grid, op, terminal=term),
            _reference_adjoint(s, c, grid, op, 0.0 * terminal if term is None else term),
        )
        for term in (None, terminal)
    ]
    return op, pairs


def _cached_kernel(op):
    return None if op.step_kernel is None else op.step_kernel[1]


class TestStepKernel:
    """The modal and the factored LAPACK kernels against a per-row banded
    solve.  The potential c is a number, whose kernel is cached."""

    @pytest.mark.parametrize(
        "nx, nt, modal_max",
        [
            pytest.param(MODAL_MAX_NX + 32, 8, MODAL_MAX_NX, id="constant_above_cutoff"),
            # scipy's dgttrf rejects one or two interior nodes, dgtsv one
            pytest.param(2, 6, 1, id="constant_one_node_above_cutoff"),
            pytest.param(3, 6, 2, id="constant_two_nodes_above_cutoff"),
        ],
    )
    def test_bit_identical_to_per_row_banded_solve(self, monkeypatch, nx, nt, modal_max):
        monkeypatch.setattr(pde, "MODAL_MAX_NX", modal_max)
        op, pairs = _kernel_pairs(nx, nt)
        kernel = _cached_kernel(op)
        assert kernel is not None and not isinstance(kernel, _ModalFactors)  # LAPACK ran
        for got, want in pairs:
            assert np.array_equal(got, want)

    @pytest.mark.parametrize("nx, nt", [(24, 20), (64, 64), (2, 6)])
    def test_modal_kernel_matches_per_row_banded_solve(self, nx, nt):
        op, pairs = _kernel_pairs(nx, nt)
        assert isinstance(_cached_kernel(op), _ModalFactors)
        for got, want in pairs:
            assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))

    def test_one_factorization_per_control_solve(self, monkeypatch):
        # above the modal cut-off the dgttrf factors are cached on the operator
        calls = []

        def counted(*args, **kwargs):
            calls.append(1)
            return dgttrf(*args, **kwargs)

        dgttrf = pde.dgttrf
        monkeypatch.setattr(pde, "dgttrf", counted)
        prob = make_control_problem(nx=MODAL_MAX_NX + 32, nt=8)
        grid = prob.grid
        u0 = np.sin(np.pi * grid.x)
        res = solve_null_control(None, u0, PenaltySchedule(ns=(1.0, 10.0)), prob)
        assert len(res.stages) == 2  # three forward solves
        assert len(calls) == 1
        # a new c replaces the cached factors
        got = forward_solve_linear(0.3, None, None, u0, grid, prob.op)
        assert len(calls) == 2
        assert np.array_equal(got, _reference_forward(0.3, None, None, u0, grid, prob.op))
        assert prob.op.step_kernel[0] == (grid.dt, 0.3)

    def test_table_potential_is_type_error(self):
        # c is one number; a (nt+1, nx+1) table fails before any solve
        grid = build_grid(8, 4, 1.0)
        op = assemble_degenerate_operator(power_coefficient(0.5), grid)
        table = np.full((grid.nt + 1, grid.nx + 1), 0.3)
        with pytest.raises(TypeError):
            forward_solve_linear(table, None, None, np.sin(np.pi * grid.x), grid, op)
        with pytest.raises(TypeError):
            adjoint_solve(np.ones_like(table), table, grid, op)
        assert op.step_kernel is None

    def test_singular_step_matrix(self):
        # with L = 0 and c = -1/dt the step matrix I/dt - L + diag(c) vanishes;
        # nx = 2 checks the 1 x 1 steps
        for nx in (8, 2):
            grid = build_grid(nx, 4, 1.0)
            op = assemble_degenerate_operator(power_coefficient(0.5), grid)
            zero = dataclasses.replace(
                op, lower=0.0 * op.lower, diag=0.0 * op.diag, upper=0.0 * op.upper
            )
            c = -1.0 / grid.dt
            u0 = np.sin(np.pi * grid.x)
            with pytest.raises(np.linalg.LinAlgError):
                forward_solve_linear(c, None, None, u0, grid, zero)
            pd = ProblemData(
                a=power_coefficient(0.5),
                ell=NonlocalFactor.constant(),
                f=SemilinearTerm.linear(c),
                omega=(0.3, 0.8),
                T=1.0,
                u0=u0,
            )
            with pytest.raises(np.linalg.LinAlgError):
                forward_solve_nonlinear(pd, None, grid, zero)

    def test_non_finite_linear_result(self):
        grid = build_grid(8, 4, 1.0)
        op = assemble_degenerate_operator(power_coefficient(0.5), grid)
        shape = (grid.nt + 1, grid.nx + 1)
        c = 1.0
        bad = np.zeros(shape)
        bad[2, 3] = np.inf
        with pytest.raises(ValueError):
            forward_solve_linear(c, None, bad, np.zeros(grid.nx + 1), grid, op)
        bad[2, 3] = np.nan
        with pytest.raises(ValueError):
            adjoint_solve(bad, c, grid, op)

    def test_non_finite_picard_iterate(self):
        grid = build_grid(8, 4, 1.0)
        op = assemble_degenerate_operator(power_coefficient(0.5), grid)
        pd = make_nonlinear_problem(grid, amplitude=0.1)
        h = np.zeros((grid.nt + 1, grid.nx + 1))
        h[1, 3] = np.inf
        with pytest.raises(PicardDivergence, match="non-finite"):
            forward_solve_nonlinear(pd, h, grid, op)


def _duality_error(grid, c, rng, trials=5):
    """Worst relative gap |<s, u> - <p, h>| / |<s, u>| over random (h, s)."""
    op = assemble_degenerate_operator(power_coefficient(0.5), grid)
    worst = 0.0
    for _ in range(trials):
        h = rng.standard_normal((grid.nt + 1, grid.nx + 1))
        s = rng.standard_normal((grid.nt + 1, grid.nx + 1))
        h[:, 0] = h[:, -1] = s[:, 0] = s[:, -1] = 0.0
        u = forward_solve_linear(c, None, h, np.zeros(grid.nx + 1), grid, op)
        p = adjoint_solve(s, c, grid, op)
        lhs = duality_pairing(s, u, grid)
        rhs = duality_pairing(p, h, grid)
        worst = max(worst, abs(lhs - rhs) / max(abs(lhs), 1e-300))
    return worst


class TestAdjointDuality:
    def test_exact_duality(self, monkeypatch):
        # the LAPACK kernel; the modal kernel is the next test
        monkeypatch.setattr(pde, "MODAL_MAX_NX", 1)
        grid = build_grid(16, 16, 1.0)
        rng = np.random.default_rng(7)
        assert _duality_error(grid, float(rng.random()), rng) <= 1e-10

    def test_exact_duality_modal_kernel(self):
        grid = build_grid(64, 64, 1.0)
        assert _duality_error(grid, 1.0, np.random.default_rng(7)) <= 1e-13
