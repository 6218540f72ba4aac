import json
import os

import numpy as np
import pytest

from degctrl import (
    PenaltySchedule,
    build_stage,
    grad_Jn,
    minimize_Jn,
    solve_null_control,
    terminal_l2,
)
from degctrl import NonFiniteTrajectory, hum, pde
from degctrl.cli import _control_problem
from degctrl.config import load_config, parse_config
from degctrl.grid import integrate_interior, l2_norm
from tests.conftest import make_control_problem

DEFAULT_CONFIG = os.path.join(os.path.dirname(__file__), "..", "configs", "default.json")
CG_TOL = 1e-8  # minimize_Jn's default relative stop


def _inner(a, b, grid):
    """The control-space inner product of a and b over the interior rows."""
    return integrate_interior(a[1:-1] * b[1:-1], grid)


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
    def test_weights_are_the_penalized_hum_stage(self, bench32):
        # 1/2 int int |h|^2 + (n/2) ||u(t_{nt-1})||^2, through the interior quadrature
        grid = bench32.grid
        stage = build_stage(bench32, 10.0)
        assert np.all(stage.Wstar[1:-1] == 1.0)
        assert np.all(stage.W0[:-2] == 0.0) and np.all(stage.W0[-2] > 0.0)
        u = np.random.default_rng(0).standard_normal((grid.nt + 1, grid.nx + 1))
        want = 10.0 * l2_norm(u[-2], grid) ** 2
        assert abs(_inner(stage.W0, u * u, grid) - want) <= 1e-13 * want

    def test_endpoint_rows_zero(self, bench32):
        stage = build_stage(bench32, 10.0)
        assert np.all(stage.W0[0] == 0.0) and np.all(stage.W0[-1] == 0.0)

    def test_functional_nonnegative(self, bench32):
        grid = bench32.grid
        stage = build_stage(bench32, 10.0)
        rng = np.random.default_rng(0)
        u = rng.standard_normal((grid.nt + 1, grid.nx + 1))
        h = rng.standard_normal((grid.nt + 1, grid.nx + 1))
        assert _effective_j(u, h, stage, grid) > 0.0


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
            an = _inner(grad, d, grid)
            worst = max(worst, abs(fd - an) / max(abs(fd), 1e-300))
        assert worst <= 1e-6


def _traj(h, stage, u0, prob):
    from degctrl import forward_solve_linear

    u = forward_solve_linear(prob.c, None, h, u0, prob.grid, prob.op)
    return u, h


def _effective_j(u, h, stage, grid):
    """J_n as a plain float."""
    return 0.5 * _inner(stage.W0, u * u, grid) + 0.5 * _inner(stage.Wstar, h * h, grid)


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
        gnorm = np.sqrt(_inner(grad, grad, grid))
        h0 = np.zeros_like(h)
        g0, _ = grad_Jn(h0, stage, None, u0, bench16)
        g0norm = np.sqrt(_inner(g0, g0, grid))
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


def _reject_stage(monkeypatch, k):
    """Make penalty stage k (from 0) end with a terminal norm 1e3 times its
    own, above the best so far.  On the sine datum the exact stage solve
    rejects no stage by itself: its terminal norms fall with n."""
    calls = []

    def worse(u, grid):
        calls.append(None)
        return terminal_l2(u, grid) * (1e3 if len(calls) == k + 1 else 1.0)

    monkeypatch.setattr(hum, "terminal_l2", worse)


class TestEarlyStop:
    def test_stages_end_at_first_rejection(self, bench32, monkeypatch):
        u0 = _sine_datum(bench32.grid)
        res = solve_null_control(None, u0, PenaltySchedule(), bench32)
        assert len(res.stages) == len(PenaltySchedule().ns)
        _reject_stage(monkeypatch, 3)
        res = solve_null_control(None, u0, PenaltySchedule(), bench32)
        assert len(res.stages) == 4
        assert not res.stages[-1].accepted
        assert all(st.accepted for st in res.stages[:-1])

    def test_matches_accepted_prefix(self, bench32, monkeypatch):
        u0 = _sine_datum(bench32.grid)
        full = PenaltySchedule()
        _reject_stage(monkeypatch, 3)
        res = solve_null_control(None, u0, full, bench32)
        monkeypatch.undo()
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
        counts = {"forward": 0, "adjoint": 0, "eigh": 0, "gramian": 0}

        def counted(key, fn):
            def wrapper(*args, **kwargs):
                counts[key] += 1
                return fn(*args, **kwargs)

            return wrapper

        for key, name in (("forward", "forward_solve_linear"), ("adjoint", "adjoint_solve")):
            monkeypatch.setattr(hum, name, counted(key, getattr(hum, name)))
        # the modal step kernel is built once, and its eigenbasis carries
        # the Gramian, which is diagonalized once
        monkeypatch.setattr(pde, "eigh_tridiagonal", counted("eigh", pde.eigh_tridiagonal))
        monkeypatch.setattr(np.linalg, "eigh", counted("gramian", np.linalg.eigh))
        prob = _control_problem(cfg)
        res = solve_null_control(None, cfg.problem.u0, cfg.schedule, prob)
        assert len(res.stages) == 7 and all(st.accepted for st in res.stages)
        assert all(st.cg_iters == 0 and st.converged for st in res.stages)
        assert counts == {"forward": 8, "adjoint": 0, "eigh": 1, "gramian": 1}
        assert res.terminal_norm == pytest.approx(1.8928545167524e-06, rel=1e-12)
        # a second solve on the problem, as on every Newton step, reuses both
        solve_null_control(None, cfg.problem.u0, cfg.schedule, prob)
        assert counts == {"forward": 16, "adjoint": 0, "eigh": 1, "gramian": 1}


def _cg_counts(u0, sched, prob):
    """CG iterations of each stage of the schedule, warm-started."""
    h, counts = None, []
    for n in sched.ns:
        h, _, iters, _ = minimize_Jn(build_stage(prob, n), None, u0, h, prob, tol=CG_TOL)
        counts.append(iters)
    return counts


def _dual_norm(v, stage, grid):
    """||v|| in the Wstar^-1 norm over the control window."""
    w = np.zeros_like(v)
    w[1:-1] = v[1:-1] / stage.Wstar[1:-1]
    w[:, stage.outside] = 0.0
    return np.sqrt(_inner(v, w, grid))


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
            h, _, _, converged = minimize_Jn(stage, None, u0, h, prob, tol=CG_TOL)
            assert converged
            r = grad_Jn(h, stage, None, u0, prob)[0]
            b = grad_Jn(zeros, stage, None, u0, prob)[0]
            assert _dual_norm(r, stage, grid) <= 10 * CG_TOL * _dual_norm(b, stage, grid)

    def test_count_does_not_follow_rounding(self):
        cfg = _default_config()
        prob = _control_problem(cfg)
        u0 = cfg.problem.u0
        base = _cg_counts(u0, cfg.schedule, prob)
        rng = np.random.default_rng(0)
        for _ in range(4):
            u0p = u0 * (1.0 + 1e-14 * rng.standard_normal(u0.shape))
            counts = _cg_counts(u0p, cfg.schedule, prob)
            assert max(abs(a - b) for a, b in zip(counts, base)) <= 2, (counts, base)

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


class TestGramian:
    """The closed-form stage solve against the library PCG on grad_Jn."""

    @pytest.mark.parametrize("nx, nt", [(24, 20), (64, 64)])
    @pytest.mark.parametrize("n", [1.0, 1e3, 1e6])
    def test_matches_minimize_Jn(self, nx, nt, n):
        prob = make_control_problem(nx, nt)
        u0 = _sine_datum(prob.grid)
        res = solve_null_control(None, u0, PenaltySchedule(ns=(n,)), prob)
        h, _, _, converged = minimize_Jn(build_stage(prob, n), None, u0, None, prob, tol=1e-13)
        assert converged
        assert np.max(np.abs(res.h - h)) <= 1e-8 * np.max(np.abs(h))

    def test_matches_minimize_Jn_with_source(self, bench32):
        # the Newton source enters through the uncontrolled solve
        grid = bench32.grid
        g = np.zeros((grid.nt + 1, grid.nx + 1))
        g[1:, 1:-1] = np.random.default_rng(4).standard_normal((grid.nt, grid.nx - 1))
        u0 = _sine_datum(grid)
        res = solve_null_control(g, u0, PenaltySchedule(ns=(1e3,)), bench32)
        h, _, _, _ = minimize_Jn(build_stage(bench32, 1e3), g, u0, None, bench32, tol=1e-13)
        assert np.max(np.abs(res.h - h)) <= 1e-8 * np.max(np.abs(h))

    def test_control_bounded_under_refinement(self):
        # the weighted functional's control was an impulse on the first row
        # whose size followed the grid (max|h| 493 at 32^2, 1.2e4 at 64^2)
        tops = []
        for k in (32, 64, 128):
            prob = make_control_problem(k, k)
            res = solve_null_control(None, _sine_datum(prob.grid), PenaltySchedule(), prob)
            tops.append(np.max(np.abs(res.h)))
        assert max(tops) <= 2.0 * min(tops), tops


class TestCurvatureOverflow:
    def test_overflowing_curvature_raises(self, bench16):
        # a datum for which (b, b) is finite but p.Ap is not: CG used to run
        # to maxit with alpha = rz/inf = 0, moving nothing
        grid = bench16.grid
        stage = build_stage(bench16, 1e6)
        u0 = _sine_datum(grid)
        zeros = np.zeros((grid.nt + 1, grid.nx + 1))
        b = grad_Jn(zeros, stage, None, u0, bench16)[0]
        ab = grad_Jn(b, stage, None, zeros[0], bench16)[0]
        b_sq, pAp = _inner(b, b, grid), _inner(b, ab, grid)
        assert pAp > 1e4 * b_sq
        scale = np.sqrt(1e308 / np.sqrt(b_sq * pAp))
        with pytest.raises(NonFiniteTrajectory, match="p.Ap"):
            minimize_Jn(stage, None, scale * u0, None, bench16)
