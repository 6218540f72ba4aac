import numpy as np
import pytest

from degctrl import (
    CarlemanParams,
    LinearControlProblem,
    NonlocalFactor,
    ProblemData,
    SemilinearTerm,
    assemble_degenerate_operator,
    build_grid,
    build_weight_fields,
    default_omega_prime,
    power_coefficient,
)

OMEGA = (0.3, 0.8)


def make_fields(a, grid, s=1.0, lam=2.0, omega=OMEGA):
    params = CarlemanParams(s=s, lam=lam, omega_prime=default_omega_prime(omega))
    return build_weight_fields(params, a, grid)


def make_control_problem(nx=64, nt=64):
    """Default linear benchmark: a = sqrt(x), c = 1, omega = (0.3, 0.8)."""
    grid = build_grid(nx, nt, 1.0)
    op = assemble_degenerate_operator(power_coefficient(0.5), grid)
    return LinearControlProblem(grid=grid, op=op, c=1.0, omega=OMEGA)


def make_nonlinear_problem(grid, amplitude=0.1):
    """Semilinear benchmark: l(r) = 1 + r/2, f = u^3 + u."""
    return ProblemData(
        a=power_coefficient(0.5),
        ell=NonlocalFactor.affine(0.5),
        f=SemilinearTerm.polynomial([1.0, 0.0, 1.0]),
        omega=OMEGA,
        T=grid.T,
        u0=amplitude * np.sin(np.pi * grid.x),
    )


@pytest.fixture(scope="session")
def bench16():
    return make_control_problem(16, 16)


@pytest.fixture(scope="session")
def bench32():
    return make_control_problem(32, 32)


@pytest.fixture(scope="session")
def bench64():
    return make_control_problem(64, 64)
