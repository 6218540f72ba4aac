import numpy as np
import pytest

from degctrl import (
    NewtonDivergence,
    forward_solve_linear,
    forward_solve_nonlinear,
    integrate_space,
    local_null_control,
    random_profile,
    residual_source,
    terminal_l2,
)
from degctrl.hum import PenaltySchedule
from tests.conftest import make_control_problem, make_nonlinear_problem


class TestResidualSource:
    def test_linearization_is_exact(self, bench32):
        # solving the linear equation with source g(u_nl) must reproduce the
        # nonlinear trajectory itself: this pins the sign and the stencil of
        # the defect term
        grid = bench32.grid
        pd = make_nonlinear_problem(grid, amplitude=0.3)
        rng = np.random.default_rng(5)
        h = np.zeros((grid.nt + 1, grid.nx + 1))
        h[1:-1, 1:-1] = 0.1 * rng.standard_normal((grid.nt - 1, grid.nx - 1))
        u_nl = forward_solve_nonlinear(pd, h, grid, bench32.op)
        g = residual_source(u_nl, pd, bench32)
        u_lin = forward_solve_linear(bench32.c, g, h, pd.u0, grid, bench32.op)
        assert np.max(np.abs(u_lin - u_nl)) <= 1e-10

    def test_vanishes_for_linear_problem(self, bench32):
        grid = bench32.grid
        pd = make_nonlinear_problem(grid, amplitude=0.2)
        from degctrl import NonlocalFactor, ProblemData, SemilinearTerm

        pd_lin = ProblemData(
            a=pd.a,
            ell=NonlocalFactor.constant(),
            f=SemilinearTerm.linear(1.0),
            omega=pd.omega,
            T=pd.T,
            u0=pd.u0,
        )
        u = forward_solve_nonlinear(pd_lin, np.zeros((grid.nt + 1, grid.nx + 1)), grid, bench32.op)
        g = residual_source(u, pd_lin, bench32)
        assert np.max(np.abs(g)) <= 1e-12


class TestOuterIteration:
    def test_converges_on_small_data(self, bench32):
        grid = bench32.grid
        pd = make_nonlinear_problem(grid, amplitude=0.1)
        sched = PenaltySchedule(ns=(1.0, 100.0, 1e4, 1e6))
        h, u_nl, history, converged = local_null_control(pd, bench32, sched)
        assert converged
        assert len(history) <= 8
        steps = [st.step_log for st in history if st.step_log is not None]
        # contraction: successive correction norms decrease while meaningful
        for a, b in zip(steps, steps[1:]):
            if b > -600:
                assert b < a

    def test_replay_steers_near_zero(self, bench32):
        grid = bench32.grid
        pd = make_nonlinear_problem(grid, amplitude=0.1)
        sched = PenaltySchedule(ns=(1.0, 100.0, 1e4, 1e6))
        h, u_nl, history, converged = local_null_control(pd, bench32, sched)
        free = forward_solve_nonlinear(
            pd, np.zeros((grid.nt + 1, grid.nx + 1)), grid, bench32.op
        )
        assert history[-1].terminal_norm_nonlinear is not None
        assert history[-1].terminal_norm_nonlinear <= 1e-2 * terminal_l2(free, grid)

    def test_large_data_diverges(self, bench32):
        grid = bench32.grid
        # at this coarse resolution the basin is wider than at 64x64, so use
        # a larger amplitude than the acceptance-level witness
        pd = make_nonlinear_problem(grid, amplitude=200.0)
        sched = PenaltySchedule(ns=(1.0, 100.0, 1e4, 1e6))
        with pytest.raises(NewtonDivergence):
            local_null_control(pd, bench32, sched)

    def test_converges_while_residual_norm_rises(self, bench64):
        # a free random datum at the default norm whose residual norm ||g_k||
        # rises to its limit (logs 151.658 -> 151.750 -> 151.753 -> 151.753)
        # while the step norm falls: the iteration converges and must not be
        # declared divergent
        grid = bench64.grid
        pd = make_nonlinear_problem(grid, amplitude=1.0)
        u0 = random_profile(grid, np.random.default_rng([10, 0]))
        u0[0] = u0[-1] = 0.0
        u0 *= np.sqrt(integrate_space(pd.u0**2, grid) / integrate_space(u0**2, grid))
        pd.u0 = u0
        h, u_nl, history, converged = local_null_control(pd, bench64, PenaltySchedule())
        assert converged
        residual = [st.residual_log for st in history[1:]]
        assert residual[-1] > residual[0]
        u0_norm = np.sqrt(integrate_space(u0**2, grid))
        assert history[-1].terminal_norm_nonlinear <= 1e-3 * u0_norm


def test_converges_on_a_fine_grid():
    # with the capped Carleman-weighted stage the right inverse grew with the
    # grid: this datum ran 25 steps at 128^2 without converging (replay/free 20.6)
    prob = make_control_problem(128, 128)
    grid = prob.grid
    pd = make_nonlinear_problem(grid, amplitude=0.1)
    h, u_nl, history, converged = local_null_control(pd, prob, PenaltySchedule())
    assert converged and len(history) <= 8
    free = forward_solve_nonlinear(pd, np.zeros((grid.nt + 1, grid.nx + 1)), grid, prob.op)
    assert history[-1].terminal_norm_nonlinear <= 1e-2 * terminal_l2(free, grid)
    with pytest.raises(NewtonDivergence):
        local_null_control(make_nonlinear_problem(grid, amplitude=50.0), prob, PenaltySchedule())
