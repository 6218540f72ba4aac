"""End-to-end acceptance gate: each test pins one headline behavior of the
toolkit at desk scale, with explicit tolerances and runtime budgets."""

import copy
import json
import time

import numpy as np
import pytest

from degctrl import (
    NewtonDivergence,
    PenaltySchedule,
    assemble_degenerate_operator,
    build_grid,
    carleman_check,
    energy_estimate_ratio,
    forward_solve_linear,
    forward_solve_nonlinear,
    hardy_poincare_ratio,
    integrate_space,
    load_golden_caps,
    local_null_control,
    power_coefficient,
    random_profile,
    random_smooth_field,
    solve_null_control,
    terminal_l2,
)
from degctrl.grid import integrate_interior
from degctrl.hum import build_stage, grad_Jn
from tests.conftest import make_control_problem, make_fields, make_nonlinear_problem


def _inner(a, b, grid):
    """The control-space inner product of a and b over the interior rows."""
    return integrate_interior(a[1:-1] * b[1:-1], grid)


def _weighted_j(u, h, stage, grid):
    return 0.5 * _inner(stage.W0, u * u, grid) + 0.5 * _inner(stage.Wstar, h * h, grid)


class Budget:
    def __init__(self, seconds):
        self.limit = seconds

    def __enter__(self):
        self.t0 = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.elapsed = time.perf_counter() - self.t0
        if exc[0] is None:
            assert self.elapsed < self.limit, (
                f"runtime {self.elapsed:.1f}s exceeded {self.limit}s budget"
            )


def test_01_weight_identities():
    with Budget(1.0):
        grid = build_grid(64, 64, 1.0)
        fields = make_fields(power_coefficient(0.5), grid)
        with np.errstate(invalid="ignore"):
            err = 2.0 * fields.log_rhohat - fields.log_rhostar - fields.log_rho0
        finite = np.isfinite(err)
        assert finite[:-1].all()  # every node with t < T (weights blow up at T)
        assert np.max(np.abs(err[finite])) <= 1e-12
        late = (grid.t >= 0.5) & (grid.t < 1.0)
        rel = np.abs(fields.A[late] - fields.phi[late]) / np.abs(fields.phi[late])
        assert np.max(rel) <= 1e-12


def test_02_manufactured_convergence():
    # exact solution u = e^{-t} (x^{3/2} - x^{5/2}) for a = sqrt(x), c = 1
    def solve(nx, nt):
        grid = build_grid(nx, nt, 1.0)
        op = assemble_degenerate_operator(power_coefficient(0.5), grid)
        x, t = grid.x, grid.t[:, None]
        exact = np.exp(-t) * (x**1.5 - x**2.5)
        src = np.exp(-t) * (-(x**1.5 - x**2.5) - (1.5 - 5.0 * x) + (x**1.5 - x**2.5))
        u = forward_solve_linear(1.0, src, None, exact[0], grid, op)
        return float(np.sqrt(integrate_space((u[-1] - exact[-1]) ** 2, grid)))

    with Budget(30.0):
        sp = [solve(nx, nx * nx // 4) for nx in (32, 64, 128)]
        sp_orders = [np.log2(a / b) for a, b in zip(sp, sp[1:])]
        assert min(sp_orders) >= 1.8, f"spatial orders {sp_orders}"
        tm = [solve(256, nt) for nt in (32, 64, 128)]
        tm_orders = [np.log2(a / b) for a, b in zip(tm, tm[1:])]
        assert min(tm_orders) >= 0.9, f"temporal orders {tm_orders}"


def test_03_discrete_adjoint_exactness():
    from degctrl import adjoint_solve, duality_pairing

    with Budget(5.0):
        grid = build_grid(16, 16, 1.0)
        op = assemble_degenerate_operator(power_coefficient(0.5), grid)
        rng = np.random.default_rng(11)
        c = float(rng.random())  # the potential is a number
        worst = 0.0
        for _ in range(20):
            h = rng.standard_normal((grid.nt + 1, grid.nx + 1))
            s = rng.standard_normal((grid.nt + 1, grid.nx + 1))
            h[:, 0] = h[:, -1] = s[:, 0] = s[:, -1] = 0.0
            u = forward_solve_linear(c, None, h, np.zeros(grid.nx + 1), grid, op)
            p = adjoint_solve(s, c, grid, op)
            lhs = duality_pairing(s, u, grid)
            rhs = duality_pairing(p, h, grid)
            worst = max(worst, abs(lhs - rhs) / max(abs(lhs), 1e-300))
        assert worst <= 1e-10, f"worst duality error {worst:.2e}"


def test_04_gradient_correctness():
    with Budget(30.0):
        prob = make_control_problem(32, 32)
        grid = prob.grid
        stage = build_stage(prob, 10.0)
        u0 = np.sin(np.pi * grid.x)
        u0[0] = u0[-1] = 0.0
        rng = np.random.default_rng(2)
        h = rng.standard_normal((grid.nt + 1, grid.nx + 1))
        h[:, 0] = h[:, -1] = h[0] = h[-1] = 0.0
        h *= stage.mask[None, :]
        grad, _ = grad_Jn(h, stage, None, u0, prob)
        eps = 1e-5
        worst = 0.0
        for k in range(10):
            d = np.zeros_like(h)
            drng = np.random.default_rng(200 + k)
            d[1:-1, 1:-1] = drng.standard_normal((grid.nt - 1, grid.nx - 1))
            d *= stage.mask[None, :]
            up = forward_solve_linear(prob.c, None, h + eps * d, u0, grid, prob.op)
            um = forward_solve_linear(prob.c, None, h - eps * d, u0, grid, prob.op)
            # difference the functional on the capped-weight scale, where it
            # is a plain float; the reported log scale overflows doubles
            jp = _weighted_j(up, h + eps * d, stage, grid)
            jm = _weighted_j(um, h - eps * d, stage, grid)
            fd = (jp - jm) / (2 * eps)
            an = _inner(grad, d, grid)
            worst = max(worst, abs(fd - an) / max(abs(fd), 1e-300))
        assert worst <= 1e-6, f"worst gradient error {worst:.2e}"


def test_05_linear_null_control():
    with Budget(300.0):
        prob = make_control_problem(64, 64)
        grid = prob.grid
        u0 = np.sin(np.pi * grid.x)
        u0[0] = u0[-1] = 0.0
        u_free = forward_solve_linear(prob.c, None, None, u0, grid, prob.op)
        free_norm = terminal_l2(u_free, grid)
        res = solve_null_control(None, u0, PenaltySchedule(), prob)
        assert res.terminal_norm / free_norm <= 1e-2
        norms = [st.terminal_norm for st in res.stages]
        for a, b in zip(norms, norms[1:]):
            assert b <= 1.05 * a, f"stage terminal norms not monotone: {norms}"
        for st in res.stages:
            assert np.isfinite(st.ctrl_weighted_norm_log)
            assert np.isfinite(st.state_weighted_norm_log)


def test_06_nonlinear_local_null_control():
    with Budget(900.0):
        prob = make_control_problem(64, 64)
        grid = prob.grid
        pd = make_nonlinear_problem(grid, amplitude=0.1)
        h, u_nl, history, converged = local_null_control(pd, prob, PenaltySchedule())
        assert converged and len(history) <= 8
        steps = [st.step_log for st in history if st.step_log is not None]
        for a, b in zip(steps, steps[1:]):
            if b > -600:  # ignore ratios at the machine-zero floor
                assert b < a, f"no contraction: step logs {steps}"
        free = forward_solve_nonlinear(
            pd, np.zeros((grid.nt + 1, grid.nx + 1)), grid, prob.op
        )
        replay = history[-1].terminal_norm_nonlinear
        assert replay is not None
        assert replay / terminal_l2(free, grid) <= 1e-2
        with pytest.raises(NewtonDivergence):
            local_null_control(
                make_nonlinear_problem(grid, amplitude=50.0), prob, PenaltySchedule()
            )


def test_07_hardy_poincare():
    with Budget(10.0):
        a = power_coefficient(1.0)
        grid = build_grid(128, 4, 1.0)
        w = grid.x * (1.0 - grid.x)
        rep = hardy_poincare_ratio(a, w, grid)
        assert rep.ratio == pytest.approx(0.5, rel=0.02)
        maxima = []
        for nx in (64, 128):
            g = build_grid(nx, 4, 1.0)
            mx = 0.0
            for i in range(20):
                rng = np.random.default_rng([7, i])
                mx = max(mx, hardy_poincare_ratio(a, random_profile(g, rng), g).ratio)
            maxima.append(mx)
        assert abs(maxima[1] - maxima[0]) / maxima[0] <= 0.10


def test_08_carleman_estimates():
    with Budget(300.0):
        caps = load_golden_caps()
        prob = make_control_problem(64, 64)
        grid = prob.grid
        fields = make_fields(power_coefficient(0.5), grid)
        for kind, cap_name in (
            ("phi_weights", "carleman_phi_weights"),
            ("A_weights", "carleman_A_weights"),
        ):
            for i in range(20):
                rng = np.random.default_rng([8, i])
                rep = carleman_check(
                    kind,
                    random_smooth_field(grid, rng),
                    random_profile(grid, rng),
                    prob.c,
                    fields,
                    grid,
                    prob.op,
                    prob.omega,
                )
                assert np.isfinite(rep.ratio)
                assert rep.ratio <= caps[cap_name]
        # s-sweep: the worst-case ratio must stop growing along {1,2,4,8}
        for kind in ("phi_weights", "A_weights"):
            sweep = []
            for s in (1.0, 2.0, 4.0, 8.0):
                fields = make_fields(power_coefficient(0.5), grid, s=s)
                mx = 0.0
                for i in range(20):
                    rng = np.random.default_rng([8, i])
                    rep = carleman_check(
                        kind,
                        random_smooth_field(grid, rng),
                        random_profile(grid, rng),
                        prob.c,
                        fields,
                        grid,
                        prob.op,
                        prob.omega,
                    )
                    mx = max(mx, rep.ratio)
                sweep.append(mx)
            assert sweep[-1] / sweep[-2] <= 1.2, f"{kind} sweep {sweep}"


def test_09_energy_estimate_stability():
    with Budget(120.0):
        maxima = []
        for n in (32, 64):
            grid = build_grid(n, n, 1.0)
            op = assemble_degenerate_operator(power_coefficient(0.5), grid)
            c = 0.0
            mx = 0.0
            for i in range(10):
                rng = np.random.default_rng([9, i])
                u0 = random_profile(grid, rng)
                F = random_smooth_field(grid, rng)
                u = forward_solve_linear(c, F, None, u0, grid, op)
                mx = max(mx, energy_estimate_ratio(u, F, grid, op).ratio)
            maxima.append(mx)
        assert abs(maxima[1] - maxima[0]) / maxima[0] <= 0.20, f"maxima {maxima}"


def test_10_determinism(tmp_path):
    from degctrl.cli import main

    cfg = {
        "problem": {
            "a": {"kind": "power", "alpha": 0.5},
            "ell": {"kind": "affine", "slope": 0.5},
            "f": {"kind": "polynomial", "coeffs": [1.0, 0.0, 1.0]},
            "omega": [0.3, 0.8],
            "T": 1.0,
            "u0": {"kind": "sine", "amplitude": 0.1},
        },
        "discretization": {"nx": 32, "nt": 32, "gamma": 2.0},
        "verify": {
            "checks": ["hardy", "carleman_phi", "carleman_A", "energy"],
            "seed": 0,
            "ensemble": 5,
        },
    }
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    outs = []
    for run in ("r1", "r2"):
        out = tmp_path / run
        assert main(["verify", "--config", str(path), "--out", str(out), "--quiet"]) == 0
        assert main(
            ["null-control", "--config", str(path), "--out", str(out), "--quiet"]
        ) == 0
        outs.append(out)
    for name in ("verification.csv", "stages.csv", "state.csv", "control.csv"):
        b1 = (outs[0] / name).read_bytes()
        b2 = (outs[1] / name).read_bytes()
        assert b1 == b2, f"{name} differs between identical runs"
