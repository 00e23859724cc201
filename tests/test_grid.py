import numpy as np
import pytest

from dualalp.errors import CapacityError, ParameterError
from dualalp.grid import MAX_GRID_POINTS, build_penalty_grid


def test_first_recurrence_step_example():
    grid = build_penalty_grid(1.0, 1.0, 0.5)
    assert grid.points[0] == pytest.approx(1.0)
    assert grid.points[1] == pytest.approx(1.25)


def test_grid_invariants():
    for v_max, weight, tol in [(1.0, 1.0, 0.5), (0.3, 0.1, 0.05), (2.0, 0.7, 0.9)]:
        grid = build_penalty_grid(v_max, weight, tol)
        pts = grid.points
        assert pts[0] == pytest.approx(weight / np.sqrt(v_max))
        cap = 2.0 * weight / tol
        assert pts[-1] >= cap
        assert np.all(pts[:-1] < cap)
        # every step follows the recurrence exactly
        steps = tol / (v_max + weight / pts[:-1] ** 2)
        np.testing.assert_allclose(np.diff(pts), steps, rtol=1e-12)


def test_consecutive_pair_smoothness_inequality():
    for v_max, weight in [(1.0, 1.0), (0.3, 0.1), (0.1, 0.3)]:
        for tol in (0.5, 0.1, 0.05):
            grid = build_penalty_grid(v_max, weight, tol)
            pts = grid.points
            lhs = v_max * np.diff(pts) + weight * (1.0 / pts[:-1] - 1.0 / pts[1:])
            assert np.all(lhs <= tol)


def test_grid_size_frozen_regression():
    # frozen from running the recurrence itself (the stated oracle): the size
    # scales like 1/tol^2, so a decade of tol multiplies K by roughly 100
    sizes = [len(build_penalty_grid(1.0, 1.0, tol)) for tol in (0.1, 0.01)]
    assert sizes == [201, 20001]
    assert 90 <= sizes[1] / sizes[0] <= 110


def test_grid_past_the_point_limit_raises():
    # about 2 / tol^2 = 2,000,001 points; the limit stops the loop before it grows unbounded
    assert MAX_GRID_POINTS == 10**6
    with pytest.raises(CapacityError, match="passes 1000000 points"):
        build_penalty_grid(1.0, 1.0, 1e-3)


def test_degenerate_parameters_rejected():
    with pytest.raises(ParameterError):
        build_penalty_grid(0.0, 1.0, 0.1)
    with pytest.raises(ParameterError):
        build_penalty_grid(1.0, -1.0, 0.1)
    with pytest.raises(ParameterError):
        build_penalty_grid(1.0, 1.0, 0.0)
    # tolerance so large the start would already exceed the cap
    with pytest.raises(ParameterError):
        build_penalty_grid(1.0, 1.0, 2.1)


@pytest.mark.parametrize("violation_bound, weight, tolerance", [
    (np.inf, 1.0, 0.05), (np.nan, 1.0, 0.05), (1.0, np.inf, 0.05), (1.0, np.nan, 0.05),
    (1.0, 1.0, np.inf), (1.0, 1.0, np.nan)])
def test_non_finite_parameters_rejected(violation_bound, weight, tolerance):
    # an infinite violation_bound started at 0 and stepped by 0, so the grid
    # grew until the process was killed; an infinite or NaN weight gave one point
    with pytest.raises(ParameterError):
        build_penalty_grid(violation_bound, weight, tolerance)

