"""Penalty-gain grid for the meta-algorithm.

The grid starts at weight/sqrt(violation_bound) and advances by
tolerance / (violation_bound + weight / H^2) until it passes
2 * weight / tolerance, which keeps the selection objective's variation at
most ``tolerance`` between consecutive points.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import CapacityError, ParameterError

MAX_GRID_POINTS = 10**6  # a grid has about 2 * weight * violation_bound / tolerance^2 points


@dataclass(frozen=True)
class PenaltyGrid:
    weight: float
    points: np.ndarray

    def __len__(self) -> int:
        return len(self.points)


def build_penalty_grid(violation_bound: float, weight: float,
                       tolerance: float) -> PenaltyGrid:
    """Construct the grid of penalty gains.

    Requires finite violation_bound > 0 and weight > 0 and 0 < tolerance <
    2*sqrt(violation_bound) (so the start lies strictly below the cap and the
    grid has at least two points). An infinite violation_bound would give a
    zero start and zero steps, and the grid would never reach its cap. A grid
    of more than MAX_GRID_POINTS points raises CapacityError.
    """
    if not (0.0 < violation_bound < np.inf and 0.0 < weight < np.inf):
        raise ParameterError(f"violation_bound and weight must be positive and finite, "
                             f"got {violation_bound!r} and {weight!r}")
    if not 0.0 < tolerance < 2.0 * np.sqrt(violation_bound):
        raise ParameterError(
            f"tolerance must lie in (0, 2*sqrt(violation_bound)) = "
            f"(0, {2.0 * np.sqrt(violation_bound):g}), got {tolerance!r}")
    cap = 2.0 * weight / tolerance
    h = weight / np.sqrt(violation_bound)
    points = [h]
    append = points.append
    while h < cap:
        if len(points) == MAX_GRID_POINTS:
            raise CapacityError(f"the penalty grid passes {MAX_GRID_POINTS} points")
        h = h + tolerance / (violation_bound + weight / (h * h))
        append(h)
    return PenaltyGrid(weight=float(weight), points=np.asarray(points))
