import os

import numpy as np
import pytest

from degctrl import (
    PenaltySchedule,
    build_stage,
    eval_Jn,
    grad_Jn,
    minimize_Jn,
    solve_null_control,
    terminal_l2,
)
from degctrl import hum, pde
from degctrl.cli import _control_problem
from degctrl.config import load_config
from degctrl.hum import _control_inner

DEFAULT_CONFIG = os.path.join(os.path.dirname(__file__), "..", "configs", "default.json")


class TestSchedule:
    def test_default_is_increasing(self):
        s = PenaltySchedule()
        assert list(s.ns) == sorted(s.ns)
        assert s.ns[0] >= 1.0

    def test_non_increasing_rejected(self):
        with pytest.raises(ValueError):
            PenaltySchedule(ns=(10.0, 1.0))

    def test_small_first_penalty_rejected(self):
        with pytest.raises(ValueError):
            PenaltySchedule(ns=(0.5, 10.0))


class TestStageWeights:
    def test_weights_positive_and_capped(self, bench32):
        stage = build_stage(bench32, 10.0)
        interior = slice(1, bench32.grid.nt)
        assert np.all(stage.W0[interior] > 0)
        cap = np.exp(bench32.log_weight_cap)
        assert np.max(stage.W0[interior]) <= cap * (1 + 1e-12)
        assert np.max(stage.Wstar[interior][:, stage.mask]) <= cap * (1 + 1e-12)

    def test_endpoint_rows_zero(self, bench32):
        stage = build_stage(bench32, 10.0)
        assert np.all(stage.W0[0] == 0.0) and np.all(stage.W0[-1] == 0.0)

    def test_functional_nonnegative(self, bench32):
        grid = bench32.grid
        stage = build_stage(bench32, 10.0)
        rng = np.random.default_rng(0)
        u = rng.standard_normal((grid.nt + 1, grid.nx + 1))
        h = rng.standard_normal((grid.nt + 1, grid.nx + 1))
        assert eval_Jn(u, h, stage, grid).log() > -np.inf


class TestGradient:
    def test_matches_finite_differences(self, bench32):
        grid = bench32.grid
        stage = build_stage(bench32, 10.0)
        u0 = np.sin(np.pi * grid.x)
        u0[0] = u0[-1] = 0.0
        rng = np.random.default_rng(3)
        h = rng.standard_normal((grid.nt + 1, grid.nx + 1))
        h[:, 0] = h[:, -1] = h[0] = h[-1] = 0.0
        h *= stage.mask[None, :]
        grad, _ = grad_Jn(h, stage, None, u0, bench32)
        eps = 1e-5
        worst = 0.0
        for k in range(3):
            d = np.zeros_like(h)
            drng = np.random.default_rng(100 + k)
            d[1:-1, 1:-1] = drng.standard_normal((grid.nt - 1, grid.nx - 1))
            d *= stage.mask[None, :]
            jp = _effective_j(*_traj(h + eps * d, stage, u0, bench32), stage, grid)
            jm = _effective_j(*_traj(h - eps * d, stage, u0, bench32), stage, grid)
            fd = (jp - jm) / (2 * eps)
            an = _control_inner(grad, d, grid)
            worst = max(worst, abs(fd - an) / max(abs(fd), 1e-300))
        assert worst <= 1e-6


def _traj(h, stage, u0, prob):
    from degctrl import forward_solve_linear

    u = forward_solve_linear(prob.c, None, h, u0, prob.grid, prob.op)
    return u, h


def _effective_j(u, h, stage, grid):
    """J_n on the capped-weight scale as a plain float (the reported LogValue
    carries an exp-scale factor too large for direct float differencing)."""
    from degctrl.hum import _weighted_quad

    return 0.5 * _weighted_quad(stage.W0, u, grid) + 0.5 * _weighted_quad(
        stage.Wstar, h, grid
    )


class TestMinimization:
    def test_cg_matches_dense_solve(self, bench16):
        # the PCG minimizer must agree with an explicit normal-equations
        # solve of the same quadratic at a size where that is affordable
        grid = bench16.grid
        stage = build_stage(bench16, 10.0)
        u0 = np.sin(np.pi * grid.x)
        u0[0] = u0[-1] = 0.0
        h, u, iters, converged = minimize_Jn(
            stage, None, u0, None, bench16, tol=1e-12, maxit=500
        )
        assert converged
        grad, _ = grad_Jn(h, stage, None, u0, bench16)
        gnorm = np.sqrt(_control_inner(grad, grad, grid))
        h0 = np.zeros_like(h)
        g0, _ = grad_Jn(h0, stage, None, u0, bench16)
        g0norm = np.sqrt(_control_inner(g0, g0, grid))
        assert gnorm <= 1e-8 * max(g0norm, 1.0)


class TestContinuation:
    def test_terminal_norm_decreases_over_stages(self, bench32):
        grid = bench32.grid
        u0 = np.sin(np.pi * grid.x)
        u0[0] = u0[-1] = 0.0
        sched = PenaltySchedule(ns=(1.0, 100.0, 1e4, 1e6))
        res = solve_null_control(None, u0, sched, bench32)
        assert res.success
        norms = [st.terminal_norm for st in res.stages]
        for a, b in zip(norms, norms[1:]):
            assert b <= 1.05 * a

    def test_control_supported_in_omega(self, bench32):
        grid = bench32.grid
        u0 = np.sin(np.pi * grid.x)
        u0[0] = u0[-1] = 0.0
        sched = PenaltySchedule(ns=(1.0, 100.0))
        res = solve_null_control(None, u0, sched, bench32)
        outside = ~((grid.x >= 0.3) & (grid.x <= 0.8))
        assert np.max(np.abs(res.h[:, outside])) == 0.0

    def test_free_equation_recovered_without_control(self, bench32):
        from degctrl import forward_solve_linear

        grid = bench32.grid
        u0 = np.sin(np.pi * grid.x)
        u0[0] = u0[-1] = 0.0
        u_free = forward_solve_linear(bench32.c, None, None, u0, grid, bench32.op)
        sched = PenaltySchedule(ns=(1.0, 100.0, 1e4, 1e6))
        res = solve_null_control(None, u0, sched, bench32)
        assert res.terminal_norm < 0.1 * terminal_l2(u_free, grid)


def _sine_datum(grid):
    u0 = np.sin(np.pi * grid.x)
    u0[0] = u0[-1] = 0.0
    return u0


class TestEarlyStop:
    def test_stages_end_at_first_rejection(self, bench32):
        res = solve_null_control(None, _sine_datum(bench32.grid), PenaltySchedule(), bench32)
        assert len(res.stages) < len(PenaltySchedule().ns)
        assert not res.stages[-1].accepted
        assert all(st.accepted for st in res.stages[:-1])

    def test_matches_accepted_prefix(self, bench32):
        u0 = _sine_datum(bench32.grid)
        full = PenaltySchedule()
        res = solve_null_control(None, u0, full, bench32)
        prefix = PenaltySchedule(ns=full.ns[: len(res.stages) - 1])
        ref = solve_null_control(None, u0, prefix, bench32)
        assert all(st.accepted for st in ref.stages)
        assert np.array_equal(res.h, ref.h) and np.array_equal(res.u, ref.u)
        assert res.terminal_norm == ref.terminal_norm

    def test_all_accepted_runs_every_stage(self, bench16):
        sched = PenaltySchedule()
        res = solve_null_control(None, _sine_datum(bench16.grid), sched, bench16)
        assert [st.n for st in res.stages] == list(sched.ns)
        assert all(st.accepted for st in res.stages)


class TestDefaultConfigCounts:
    def test_default_config_work(self, monkeypatch):
        cfg = load_config(DEFAULT_CONFIG)
        counts = {"forward": 0, "adjoint": 0, "eigh": 0}

        def counted(key, fn):
            def wrapper(*args, **kwargs):
                counts[key] += 1
                return fn(*args, **kwargs)

            return wrapper

        for key, name in (("forward", "forward_solve_linear"), ("adjoint", "adjoint_solve")):
            monkeypatch.setattr(hum, name, counted(key, getattr(hum, name)))
        # the modal step kernel is built once and reused by every solve
        monkeypatch.setattr(pde, "eigh_tridiagonal", counted("eigh", pde.eigh_tridiagonal))
        res = solve_null_control(None, cfg.problem.u0, cfg.schedule, _control_problem(cfg))
        assert len(res.stages) == 4
        assert sum(st.cg_iters for st in res.stages) == 123
        assert sum(st.cg_iters for st in res.stages if st.accepted) == 59
        assert counts == {"forward": 135, "adjoint": 131, "eigh": 1}
        assert res.terminal_norm == 1.350141360649699e-05
