import dataclasses
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
from degctrl.config import load_config
from degctrl.grid import integrate_interior, integrate_space, l2_norm, log_norm_sq, window_mask
from degctrl.newton import local_null_control
from tests.conftest import make_control_problem

DEFAULT_CONFIG = os.path.join(os.path.dirname(__file__), "..", "configs", "default.json")


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


class TestFrozenProblem:
    def test_inputs_frozen_and_replace_builds_afresh(self):
        # the Gramian was cached on the problem keyed by nothing: after
        # prob.omega = (0.1, 0.5) the old window's control came back
        prob, sched = make_control_problem(32, 32), PenaltySchedule()
        u0 = _sine_datum(prob.grid)
        solve_null_control(None, u0, sched, prob)  # builds the Gramian and the step kernel
        for obj, name, value in (
            (prob, "c", 3.0), (prob, "omega", (0.1, 0.5)), (sched, "ns", (0.0,)),
            (prob.op, "diag", 2.0 * prob.op.diag),
        ):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(obj, name, value)
        with pytest.raises(ValueError, match="read-only"):  # the kept kernel's inputs
            prob.op.diag *= 2.0
        for change in ({"omega": (0.1, 0.5)}, {"c": 3.0}):
            got = solve_null_control(None, u0, sched, dataclasses.replace(prob, **change))
            fresh = make_control_problem(32, 32, **change)
            want = solve_null_control(None, u0, sched, fresh)
            assert np.array_equal(got.h, want.h) and np.array_equal(got.u, want.u)
            assert got.stages == want.stages and got.terminal_norm == want.terminal_norm
            assert not got.h[:, ~window_mask(fresh.grid, fresh.omega)].any()


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
    def test_matches_dense_solve(self, bench16):
        # A assembled column by column from grad_Jn on the window's interior
        # rows (g = None, u0 = 0) and A h = -b, b = grad_Jn(0), solved densely
        grid = bench16.grid
        stage = build_stage(bench16, 10.0)
        u0 = _sine_datum(grid)
        zeros = np.zeros((grid.nt + 1, grid.nx + 1))
        unknowns = np.zeros_like(zeros, dtype=bool)
        unknowns[1:-1] = stage.mask
        cols = []
        for k in np.flatnonzero(unknowns):
            e = zeros.copy()
            e.flat[k] = 1.0
            cols.append(grad_Jn(e, stage, None, zeros[0], bench16)[0][unknowns])
        b = grad_Jn(zeros, stage, None, u0, bench16)[0][unknowns]
        dense = np.linalg.solve(np.column_stack(cols), -b)
        h, _ = minimize_Jn(stage, None, u0, bench16)
        assert not h[~unknowns].any()
        assert np.max(np.abs(h[unknowns] - dense)) <= 1e-10 * np.max(np.abs(dense))


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
    norms = hum._stage_norms

    def worse(*args):
        calls.append(None)
        y, terminal, cw, su = norms(*args)
        return y, terminal * (1e3 if len(calls) == k + 1 else 1.0), cw, su

    monkeypatch.setattr(hum, "_stage_norms", worse)


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


def _count_calls(monkeypatch):
    """Count forward and adjoint solves of hum, step-kernel eigh_tridiagonal
    calls and Gramian eighs from here on."""
    counts = {"forward": 0, "adjoint": 0, "eigh": 0, "gramian": 0}

    def counted(key, fn):
        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    for key, name in (("forward", "forward_solve_linear"), ("adjoint", "adjoint_solve")):
        monkeypatch.setattr(hum, name, counted(key, getattr(hum, name)))
    monkeypatch.setattr(pde, "eigh_tridiagonal", counted("eigh", pde.eigh_tridiagonal))
    monkeypatch.setattr(np.linalg, "eigh", counted("gramian", np.linalg.eigh))
    return counts


class TestDefaultConfigCounts:
    def test_default_config_work(self, monkeypatch):
        cfg = load_config(DEFAULT_CONFIG)
        counts = _count_calls(monkeypatch)
        # the modal step kernel is built once, and its eigenbasis carries
        # the Gramian, which is diagonalized once; the stages' norms are
        # closed-form, so only the free and the returned state are solved
        prob = _control_problem(cfg)
        res = solve_null_control(None, cfg.problem.u0, cfg.schedule, prob)
        assert len(res.stages) == 7 and all(st.accepted for st in res.stages)
        assert all(st.cg_iters == 0 for st in res.stages)
        assert counts == {"forward": 2, "adjoint": 0, "eigh": 1, "gramian": 1}
        assert res.terminal_norm == pytest.approx(1.8928545167524e-06, rel=1e-12)
        # a second solve on the problem, as on every Newton step, reuses both
        solve_null_control(None, cfg.problem.u0, cfg.schedule, prob)
        assert counts == {"forward": 4, "adjoint": 0, "eigh": 1, "gramian": 1}

    def test_default_nonlinear_work(self, monkeypatch):
        cfg = load_config(DEFAULT_CONFIG)
        counts = _count_calls(monkeypatch)
        prob = _control_problem(cfg)
        _, _, history, converged = local_null_control(
            cfg.problem, prob, cfg.schedule, cfg.newton_tol, cfg.newton_maxit
        )
        assert converged and len(history) == 6
        assert counts == {"forward": 12, "adjoint": 0, "eigh": 1, "gramian": 1}


class TestClosedFormStageNorms:
    """Each stage's closed-form norms against the forward-solved state of the
    same control: a one-stage schedule returns both."""

    @pytest.mark.parametrize("k, source", [(32, False), (64, False), (128, False), (160, True)])
    def test_matches_forward_solve(self, k, source):
        # the forward solves and the Gramian share one kept eigenbasis of
        # the step matrix on every grid, nx = 160 included
        prob = make_control_problem(k, k)
        grid = prob.grid
        g = None
        if source:
            g = np.zeros((grid.nt + 1, grid.nx + 1))
            g[1:, 1:-1] = np.random.default_rng(5).standard_normal((grid.nt, grid.nx - 1))
        u0 = _sine_datum(grid)
        for n in PenaltySchedule().ns:
            res = solve_null_control(g, u0, PenaltySchedule(ns=(n,)), prob)
            st = res.stages[0]
            assert st.terminal_norm == pytest.approx(res.terminal_norm, rel=1e-10)
            cw = log_norm_sq(res.h[1:-1], grid)
            sw = np.log(n) + log_norm_sq(res.u[-2], grid, integrate_space)
            assert st.ctrl_weighted_norm_log == pytest.approx(cw, rel=1e-10)
            assert st.state_weighted_norm_log == pytest.approx(sw, rel=1e-10)

    def test_non_finite_stage_raises(self, bench16):
        # y = z/(1/n + g) overflows on the modes that G barely observes
        gram = bench16.gramian
        z = np.full(gram.g.size, 1e308)
        with pytest.raises(NonFiniteTrajectory, match="penalty stage n=1e"):
            hum._stage_norms(gram, z, np.zeros_like(z), 1e6)


class TestGramian:
    """The closed-form stage solve against the continuation's returned stage
    and against grad_Jn, built from one forward and one adjoint solve."""

    @pytest.mark.parametrize("nx, nt", [(24, 20), (64, 64)])
    @pytest.mark.parametrize("n", [1.0, 1e3, 1e6])
    def test_matches_minimize_Jn(self, nx, nt, n):
        prob = make_control_problem(nx, nt)
        u0 = _sine_datum(prob.grid)
        res = solve_null_control(None, u0, PenaltySchedule(ns=(n,)), prob)
        h, u = minimize_Jn(build_stage(prob, n), None, u0, prob)
        assert np.array_equal(res.h, h) and np.array_equal(res.u, u)

    def test_matches_minimize_Jn_with_source(self, bench32):
        # the Newton source enters through the uncontrolled solve
        g = _random_source(bench32.grid)
        u0 = _sine_datum(bench32.grid)
        res = solve_null_control(g, u0, PenaltySchedule(ns=(1e3,)), bench32)
        h, u = minimize_Jn(build_stage(bench32, 1e3), g, u0, bench32)
        assert np.array_equal(res.h, h) and np.array_equal(res.u, u)

    def test_zero_datum_gives_zero_control(self, bench32):
        u0 = np.zeros(bench32.grid.nx + 1)
        res = solve_null_control(None, u0, PenaltySchedule(), bench32)
        assert all(st.cg_iters == 0 for st in res.stages)
        assert not res.h.any()
        h, _ = minimize_Jn(build_stage(bench32, 10.0), None, u0, bench32)
        assert not h.any()

    @pytest.mark.parametrize("nx, nt", [(16, 16), (24, 20), (64, 64), (128, 128)])
    @pytest.mark.parametrize("n", [1.0, 1e3, 1e6])
    def test_first_order_condition(self, nx, nt, n):
        prob = make_control_problem(nx, nt)
        assert _gradient_ratio(prob, n, None) <= 1e-12

    def test_first_order_condition_with_source(self, bench32):
        assert _gradient_ratio(bench32, 1e3, _random_source(bench32.grid)) <= 1e-12

    @pytest.mark.parametrize("k", [32, 64, 128])
    def test_dual_identity(self, k):
        # J_n(h_n) = 1/2 sum_k z_k^2/(1/n + g_k) in G's eigenbasis, against
        # the continuation's J_n = (||h||^2 + n ||u(t_m)||^2)/2 on every stage
        prob = make_control_problem(k, k)
        u0 = _sine_datum(prob.grid)
        res = solve_null_control(None, u0, PenaltySchedule(), prob)
        gram = prob.gramian
        free = pde.forward_solve_linear(prob.c, None, None, u0, prob.grid, prob.op)
        z = free[-2, 1:-1] @ gram.to_eig
        for st in res.stages:
            dual = 0.5 * np.sum(z * z / (1.0 / st.n + gram.g))
            assert abs(np.exp(st.Jn_log) - dual) <= 1e-13 * dual

    def test_control_bounded_under_refinement(self):
        # the weighted functional's control was an impulse on the first row
        # whose size followed the grid (max|h| 493 at 32^2, 1.2e4 at 64^2)
        tops = []
        for k in (32, 64, 128):
            prob = make_control_problem(k, k)
            res = solve_null_control(None, _sine_datum(prob.grid), PenaltySchedule(), prob)
            tops.append(np.max(np.abs(res.h)))
        assert max(tops) <= 2.0 * min(tops), tops


def _random_source(grid):
    g = np.zeros((grid.nt + 1, grid.nx + 1))
    g[1:, 1:-1] = np.random.default_rng(4).standard_normal((grid.nt, grid.nx - 1))
    return g


def _gradient_ratio(prob, n, g):
    """||grad_Jn(h_n)|| / ||grad_Jn(0)|| for minimize_Jn's h_n."""
    grid = prob.grid
    stage = build_stage(prob, n)
    u0 = _sine_datum(grid)
    h, _ = minimize_Jn(stage, g, u0, prob)
    r = grad_Jn(h, stage, g, u0, prob)[0]
    b = grad_Jn(np.zeros_like(h), stage, g, u0, prob)[0]
    return np.sqrt(_inner(r, r, grid) / _inner(b, b, grid))
