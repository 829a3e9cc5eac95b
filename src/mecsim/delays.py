"""Per-slot delay components for placement/selection decisions.

All functions accept (clouds, users) matrices, either 0/1 indicators or
fractional column-stochastic weights. Each sum lays its terms out
user-major (user, then cloud, then station) and adds them strictly left to
right with ``np.add.accumulate``, never with the pairwise ``np.sum``, so a
result is the same float as the literal nested loop over those terms.
"""

from __future__ import annotations

import math
from collections.abc import Sequence

import numpy as np

from .errors import DimensionMismatchError
from .model import DelayBreakdown, Scenario

__all__ = [
    "switching_delay",
    "queuing_delay",
    "communication_delay",
    "non_switching_delay",
    "total_delay",
    "station_loads",
]


def _as_decision_matrix(s: Scenario, name: str, matrix: np.ndarray) -> np.ndarray:
    out = np.asarray(matrix, dtype=float)
    if out.shape != (s.num_clouds, s.num_users):
        raise DimensionMismatchError(
            f"{name} must have shape ({s.num_clouds}, {s.num_users}), "
            f"got {out.shape}"
        )
    return out


def _sequential_sum(terms: np.ndarray) -> float:
    """Left-to-right sum of the terms in row-major order.

    Zero terms may stay in: adding +-0.0 changes no partial sum. The final
    ``+ 0.0`` turns an all-zero -0.0 into 0.0, as a loop from 0.0 gives.
    """
    return float(np.add.accumulate(terms.ravel())[-1] + 0.0)


def station_loads(s: Scenario, t: int, y: np.ndarray) -> np.ndarray:
    """Demand-weighted load per station: load[j] = sum_k c_k(t) * y[j, k]."""
    return np.asarray(y, dtype=float) @ s.demand[t]


def switching_delay(s: Scenario, x_now: np.ndarray, x_prev: np.ndarray) -> float:
    """Migration cost between consecutive placements.

    sum_k s_k * sum_i max(x_now[i,k] - x_prev[i,k], 0): each user pays its
    service size for newly acquired placement mass; removals are free.
    """
    x_now = _as_decision_matrix(s, "x_now", x_now)
    x_prev = _as_decision_matrix(s, "x_prev", x_prev)
    diff = x_now - x_prev
    # per user, the positive differences added cloud by cloud
    gained = np.add.accumulate(np.where(diff > 0.0, diff, 0.0), axis=0)[-1]
    return _sequential_sum(s.service_size * gained)


def queuing_delay(s: Scenario, t: int, y: np.ndarray) -> float:
    """Waiting time at the selected stations.

    sum_k sum_j y[j,k] / (C_j - load_j) with load_j = sum_k c_k(t)*y[j,k].
    Returns +inf as soon as any station carrying selection weight has
    load_j >= C_j (the queue never drains).
    """
    y = _as_decision_matrix(s, "y", y)
    slack = s.bs_capacity - station_loads(s, t, y)
    full = slack <= 0.0
    if full.any() and (y[full] > 0.0).any():
        return math.inf
    terms = np.divide(
        y.T, slack, out=np.zeros((s.num_users, s.num_clouds)), where=y.T != 0.0
    )
    return _sequential_sum(terms)


def communication_delay(s: Scenario, t: int, x: np.ndarray, y: np.ndarray) -> float:
    """Access latency between selected stations and hosting clouds.

    sum_k sum_i sum_j y[j,k] * x[i,k] * latency[t][i][j].
    """
    x = _as_decision_matrix(s, "x", x)
    y = _as_decision_matrix(s, "y", y)
    terms = (y.T[:, None, :] * x.T[:, :, None]) * s.link_latency[t]
    return _sequential_sum(terms)


class _IndexCosts:
    """Slot-t delays of integral decisions as index sequences: user k on
    cloud ``placement[k]`` and station ``selection[k]``. Plain lists keep a
    call cheap; sums run user by user, as in the matrix forms, and a station
    at or over capacity gives +inf.
    """

    __slots__ = ("sizes", "demand", "bs_cap", "lat")

    def __init__(self, s: Scenario, t: int) -> None:
        self.sizes = s.service_size.tolist()
        self.demand = s.demand[t].tolist()
        self.bs_cap = s.bs_capacity.tolist()
        self.lat = s.link_latency[t].tolist()

    def non_switching(self, placement: Sequence[int], selection: Sequence[int]) -> float:
        """Queuing plus communication delay of the decision at slot t."""
        load = [0.0] * len(self.bs_cap)
        for k, j in enumerate(selection):
            load[j] += self.demand[k]
        queuing = 0.0
        for j in selection:
            slack = self.bs_cap[j] - load[j]
            if slack <= 0.0:
                return math.inf
            queuing += 1.0 / slack
        communication = 0.0
        for i, j in zip(placement, selection):
            communication += self.lat[i][j]
        return queuing + communication

    def switching(self, p_now: Sequence[int], p_prev: Sequence[int]) -> float:
        """Migration cost: each user whose cloud changed pays its size."""
        total = 0.0
        for size, i_now, i_prev in zip(self.sizes, p_now, p_prev):
            if i_now != i_prev:
                total += size
        return total


def non_switching_delay(s: Scenario, t: int, x: np.ndarray, y: np.ndarray) -> float:
    """Queuing plus communication delay: the recurring per-slot cost."""
    q = queuing_delay(s, t, y)
    if math.isinf(q):
        return math.inf
    return q + communication_delay(s, t, x, y)


def total_delay(
    s: Scenario,
    t: int,
    x_now: np.ndarray,
    x_prev: np.ndarray,
    y: np.ndarray,
) -> DelayBreakdown:
    """Full slot cost: one-off switching plus recurring queuing/communication."""
    return DelayBreakdown.assemble(
        switching=switching_delay(s, x_now, x_prev),
        queuing=queuing_delay(s, t, y),
        communication=communication_delay(s, t, x_now, y),
    )
