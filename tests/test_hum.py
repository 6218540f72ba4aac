import json
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
from degctrl.config import load_config, parse_config
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
        assert sum(st.cg_iters for st in res.stages) == 83
        assert sum(st.cg_iters for st in res.stages if st.accepted) == 59
        assert counts == {"forward": 95, "adjoint": 91, "eigh": 1}
        assert res.terminal_norm == 1.3501312499624691e-05


def _dual_norm(v, stage, grid):
    """||v|| in the Wstar^-1 norm over the control window."""
    w = np.zeros_like(v)
    w[1:-1] = v[1:-1] / stage.Wstar[1:-1]
    w[:, stage.outside] = 0.0
    return np.sqrt(_control_inner(v, w, grid))


def _default_config(**disc):
    with open(DEFAULT_CONFIG) as fh:
        raw = json.load(fh)
    raw.setdefault("discretization", {}).update(disc)
    return parse_config(raw)


class TestRelativeStop:
    """CG stops at cg_tol relative to ||b||, not to the warm-start residual."""

    @pytest.mark.parametrize("disc", [{}, {"nx": 24, "nt": 20}])
    def test_every_stage_meets_its_tolerance(self, disc):
        cfg = _default_config(**disc)
        prob = _control_problem(cfg)
        grid, u0, sched = prob.grid, cfg.problem.u0, cfg.schedule
        zeros = np.zeros((grid.nt + 1, grid.nx + 1))
        h = None
        for n in sched.ns:
            stage = build_stage(prob, n)
            h, _, _, converged = minimize_Jn(
                stage, None, u0, h, prob, tol=sched.cg_tol, maxit=sched.cg_maxit
            )
            assert converged
            r = grad_Jn(h, stage, None, u0, prob)[0]
            b = grad_Jn(zeros, stage, None, u0, prob)[0]
            assert _dual_norm(r, stage, grid) <= 10 * sched.cg_tol * _dual_norm(b, stage, grid)

    def test_count_does_not_follow_rounding(self):
        cfg = _default_config()
        prob = _control_problem(cfg)
        u0 = cfg.problem.u0
        base = solve_null_control(None, u0, cfg.schedule, prob).stages
        assert not base[-1].accepted
        rng = np.random.default_rng(0)
        for _ in range(4):
            u0p = u0 * (1.0 + 1e-14 * rng.standard_normal(u0.shape))
            stages = solve_null_control(None, u0p, cfg.schedule, prob).stages
            assert len(stages) == len(base) and not stages[-1].accepted
            assert abs(stages[-1].cg_iters - base[-1].cg_iters) <= 2

    def test_converged_warm_start_runs_no_iteration(self, bench32):
        stage = build_stage(bench32, 10.0)
        u0 = _sine_datum(bench32.grid)
        h, _, iters, _ = minimize_Jn(stage, None, u0, None, bench32)
        assert iters > 0
        h2, _, iters2, converged = minimize_Jn(stage, None, u0, h, bench32)
        assert converged and iters2 == 0
        assert np.array_equal(h2, h)

    def test_zero_datum_gives_zero_control(self, bench32):
        u0 = np.zeros(bench32.grid.nx + 1)
        res = solve_null_control(None, u0, PenaltySchedule(), bench32)
        assert all(st.cg_iters == 0 and st.converged for st in res.stages)
        assert not res.h.any()
        stage = build_stage(bench32, 10.0)
        warm = np.ones_like(res.h)
        h, _, iters, converged = minimize_Jn(stage, None, u0, warm, bench32)
        assert converged and iters == 0 and not h.any()
