"""Dual-route tests of the closed-form geodesic flow: ``geodesic_closed``
against the RK4 oracle ``integrate_geodesic``, its invariants (speed,
reversibility, rest), and the batched group product behind its left
translation."""

import numpy as np
import pytest

from chgeom.model import ModelParams, SolvableModel

# errors are compared with the size of the coordinates: at speed 2.5 the
# center coordinate reaches ~5e4, where 1e-8 absolute is round-off
ORACLE_TOLERANCE = 1e-8
SPEED_TOLERANCE = 1e-13
RETURN_TOLERANCE = 1e-12

# (n, c, times): every n, c and time of the sizing grid appears; the
# oracle runs once per sign of time, continued from time to time
ORACLE_CASES = [
    (2, -1.0, (0.05, 0.7, 1.5)),
    (3, -9.0, (0.05, 0.7)),
    (4, -4.0, (0.05, -0.6)),
    (5, -9.0, (-0.6,)),
]
GRID = [(n, c) for n in (2, 3, 4, 5) for c in (-1.0, -4.0, -9.0)]
TIMES = (0.05, 0.7, 1.5, -0.6)


def _velocities(d, rng):
    """Random unit rows, pure +-B, +-Z, the first and last g_alpha
    directions, a unit row with Z component 1e-9, speed 2.5, and rest."""
    rows = rng.normal(size=(3, d))
    rows /= np.linalg.norm(rows, axis=1)[:, None]
    e = np.eye(d)
    tiny_z = rng.normal(size=d)
    tiny_z[1] = 1e-9
    fast = rng.normal(size=d)
    return np.vstack([
        rows, e[0], -e[0], e[1], -e[1], e[2], e[d - 1],
        tiny_z / np.linalg.norm(tiny_z),
        2.5 * fast / np.linalg.norm(fast),
        np.zeros(d),
    ])


def _batch(n, seed):
    rng = np.random.default_rng(seed)
    vel0 = _velocities(2 * n, rng)
    return 0.5 * rng.normal(size=vel0.shape), vel0


@pytest.mark.parametrize("n, c, times", ORACLE_CASES)
def test_matches_rk4_oracle(n, c, times):
    model = SolvableModel(ModelParams(n=n, c=c))
    base, vel0 = _batch(n, seed=n)
    for sign in (1.0, -1.0):
        coords, vel, t_done = base, vel0, 0.0
        for t in sorted((t for t in times if t * sign > 0), key=abs):
            coords, vel = model.integrate_geodesic(coords, vel, t - t_done, 1e-4)
            t_done = t
            got_coords, got_vel = model.geodesic_closed(base, vel0, t)
            scale = 1.0 + np.abs(coords)
            assert np.max(np.abs(got_coords - coords) / scale) < ORACLE_TOLERANCE
            assert np.max(np.abs(got_vel - vel)) < ORACLE_TOLERANCE


@pytest.mark.parametrize("n, c", GRID)
def test_speed_preserved_and_return_trip(n, c):
    model = SolvableModel(ModelParams(n=n, c=c))
    base, vel0 = _batch(n, seed=10 + n)
    speed0 = np.linalg.norm(vel0, axis=1)
    for t in TIMES:
        coords, vel = model.geodesic_closed(base, vel0, t)
        speed = np.linalg.norm(vel, axis=1)
        assert np.max(np.abs(speed - speed0) / np.maximum(speed0, 1.0)) < SPEED_TOLERANCE
        back, back_vel = model.geodesic_closed(coords, -vel, t)
        scale = 1.0 + np.max(np.abs(coords))
        assert np.max(np.abs(back - base)) < RETURN_TOLERANCE * scale
        assert np.max(np.abs(back_vel + vel0)) < RETURN_TOLERANCE * scale


def test_time_zero_and_rest_return_the_start():
    model = SolvableModel(ModelParams(n=3, c=-4.0))
    base, vel0 = _batch(3, seed=7)
    coords, vel = model.geodesic_closed(base, vel0, 0.0)
    assert np.array_equal(coords, base) and coords is not base
    assert np.array_equal(vel, vel0) and vel is not vel0
    coords, vel = model.geodesic_closed(base, np.zeros_like(base), 0.9)
    assert np.array_equal(coords, base)
    assert np.array_equal(vel, np.zeros_like(base))


def test_single_point_matches_batch_row():
    model = SolvableModel(ModelParams(n=2, c=-4.0))
    base, vel0 = _batch(2, seed=3)
    coords, vel = model.geodesic_closed(base, vel0, 0.7)
    for i in range(base.shape[0]):
        one, one_vel = model.geodesic_closed(base[i], vel0[i], 0.7)
        assert one.shape == (4,)
        assert np.max(np.abs(one - coords[i])) < 1e-14
        assert np.max(np.abs(one_vel - vel[i])) < 1e-14


def test_group_product_and_inverse_batch_row_by_row():
    model = SolvableModel(ModelParams(n=3, c=-9.0))
    rng = np.random.default_rng(11)
    p, q = rng.normal(size=(2, 5, 6))
    batch = model.group_product(p, q)
    for i in range(5):
        assert np.array_equal(batch[i], model.group_product(p[i], q[i]))
    # one point against a batch broadcasts
    assert np.array_equal(
        model.group_product(p[0], q)[3], model.group_product(p[0], q[3])
    )
    # associativity
    r = rng.normal(size=(5, 6))
    left = model.group_product(model.group_product(p, q), r)
    right = model.group_product(p, model.group_product(q, r))
    assert np.max(np.abs(left - right)) < 1e-10 * (1.0 + np.max(np.abs(left)))
