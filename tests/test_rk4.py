"""Contract of the shared fixed-step RK4 stepper and of the three
integrators built on it: geodesics, parallel transport and the Jacobi
ODE oracle; the closed-form geodesic flow rejects the same times."""

import math

import numpy as np
import pytest

from chgeom.jacobi import jacobi_ode_oracle
from chgeom.model import ModelParams, SolvableModel, rk4

MODEL = SolvableModel(ModelParams(n=2, c=-4.0))
W = np.array([0.0, 0.0, 1.0, 0.0])

INTEGRATORS = {
    "integrate_geodesic": lambda t, step: MODEL.integrate_geodesic(
        np.zeros(4), W, t, step
    ),
    "integrate_transport": lambda t, step: MODEL.integrate_transport(
        np.zeros(4), W, np.eye(4), t, step
    ),
    "jacobi_ode_oracle": lambda t, step: jacobi_ode_oracle(
        np.eye(4)[:3], np.zeros((3, 4)), W, -4.0, t, step
    ),
}
BAD_STEPS = [0.0, -1.0, math.nan]
BAD_TIMES = [math.inf, -math.inf, math.nan]


@pytest.mark.parametrize("name", sorted(INTEGRATORS))
@pytest.mark.parametrize(
    "t, step",
    [(t, s) for t in (0.0, 0.5) for s in BAD_STEPS]
    + [(t, 1e-3) for t in BAD_TIMES],
)
def test_integrators_reject_bad_time_or_step(name, t, step):
    with pytest.raises(ValueError):
        INTEGRATORS[name](t, step)


@pytest.mark.parametrize("t", BAD_TIMES)
def test_closed_geodesic_rejects_bad_time(t):
    with pytest.raises(ValueError, match="time must be finite"):
        MODEL.geodesic_closed(np.zeros(4), W, t)


def test_rk4_matches_exponential_both_directions():
    for t in (1.0, -1.0):
        (y,) = rk4(lambda y: (y,), (np.ones(3),), t, 0.01)
        assert np.max(np.abs(y - math.exp(t))) < 1e-9


def test_rk4_rounds_step_count_and_copies_state():
    calls = []

    def rhs(y):
        calls.append(1)
        return (np.zeros_like(y),)

    y0 = np.arange(3.0)
    (y,) = rk4(rhs, (y0,), 0.3, 0.1)
    assert len(calls) == 4 * 3
    (y_zero,) = rk4(rhs, (y0,), 0.0, 0.1)
    assert len(calls) == 4 * 3  # t = 0 takes no step
    assert np.array_equal(y_zero, y0) and y_zero is not y0
    (y_short,) = rk4(rhs, (y0,), 1e-9, 0.1)
    assert len(calls) == 4 * 4  # at least one step for t != 0
