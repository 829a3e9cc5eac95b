"""Per-slot delay components for placement/selection decisions.

``_IndexCosts`` is the one valuation of integral decisions. The public
functions accept (clouds, users) matrices, either 0/1 indicators or
fractional column-stochastic weights. Each sum lays its terms out
user-major (user, then cloud, then station) and adds them strictly left to
right with ``np.add.accumulate``, never with the pairwise ``np.sum``, so a
result is the same float as the literal nested loop over those terms: on
indicator matrices, the float ``_IndexCosts`` gives. A public function
taking a slot ``t`` raises ValueError unless it is an integer in
``range(s.num_slots)``, through ``station_loads`` or ``communication_delay``.
Each public function raises DimensionMismatchError unless its matrices are
(clouds, users) and ValueError on a weight that is not a finite number
>= 0 (``_as_weights``).
"""

from __future__ import annotations

import math
from collections.abc import Sequence

import numpy as np

from .errors import DimensionMismatchError
from .model import DelayBreakdown, Scenario, _tally, check_slot

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


def _as_weights(s: Scenario, name: str, matrix: np.ndarray) -> np.ndarray:
    """``_as_decision_matrix``, and ValueError unless every weight is a
    finite number >= 0: a NaN, an inf or a negative weight would be valued
    as a number."""
    out = _as_decision_matrix(s, name, matrix)
    if not (np.isfinite(out).all() and (out >= 0.0).all()):
        raise ValueError(f"{name} weights must be finite and >= 0")
    return out


def _sequential_sum(terms: np.ndarray) -> float:
    """Left-to-right sum of the terms in row-major order.

    Zero terms may stay in: adding +-0.0 changes no partial sum. The final
    ``+ 0.0`` turns an all-zero -0.0 into 0.0, as a loop from 0.0 gives.
    """
    return float(np.add.accumulate(terms.ravel())[-1] + 0.0)


def station_loads(s: Scenario, t: int, y: np.ndarray) -> np.ndarray:
    """Demand-weighted load per station: load[j] = sum_k c_k(t) * y[j, k],
    added user by user from the left."""
    check_slot(s, t)
    terms = _as_weights(s, "y", y) * s.demand[t]
    return np.add.accumulate(terms, axis=1)[:, -1] + 0.0


def switching_delay(s: Scenario, x_now: np.ndarray, x_prev: np.ndarray) -> float:
    """Migration cost between consecutive placements.

    sum_k s_k * sum_i max(x_now[i,k] - x_prev[i,k], 0): each user pays its
    service size for newly acquired placement mass; removals are free.
    """
    x_now = _as_weights(s, "x_now", x_now)
    x_prev = _as_weights(s, "x_prev", x_prev)
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
    y = _as_weights(s, "y", y)
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
    check_slot(s, t)
    x = _as_weights(s, "x", x)
    y = _as_weights(s, "y", y)
    terms = (y.T[:, None, :] * x.T[:, :, None]) * s.link_latency[t]
    return _sequential_sum(terms)


class _IndexCosts:
    """Slot-t delays of integral decisions as index sequences: user k on
    cloud ``placement[k]`` and station ``selection[k]``. The search, the
    oracle and the controller value integral decisions with it alone. Plain
    lists keep a call cheap; sums run user by user, as in the matrix forms,
    and a station at or over capacity gives +inf. The ``_table`` forms
    value many decisions at once and give the same floats.
    """

    __slots__ = ("sizes", "demand", "bs_cap", "lat", "lat_array")

    def __init__(self, s: Scenario, t: int) -> None:
        self.sizes = s.service_size.tolist()
        self.demand = s.demand[t].tolist()
        self.bs_cap = s.bs_capacity.tolist()
        self.lat_array = s.link_latency[t]
        self.lat = self.lat_array.tolist()

    def queuing(self, selection: Sequence[int]) -> float:
        """Each user's 1 / (C_j - load_j) at its station j, with the loads
        summed by ``model._tally``, the sums ``decision_feasible`` tests."""
        return self._queuing_at(selection, _tally(len(self.bs_cap), selection, self.demand))

    def queuing_table(
        self, selections: Sequence[Sequence[int]], loads: Sequence[list]
    ) -> np.ndarray:
        """``queuing`` of each of ``selections``, given the station loads
        ``loads`` of each. When the loads were summed in user order from
        0.0, as ``queuing`` sums them, these are the same floats."""
        return np.array([self._queuing_at(sel, load) for sel, load in zip(selections, loads)])

    def _queuing_at(self, selection: Sequence[int], load: list) -> float:
        """``queuing`` of ``selection`` under the station loads ``load``."""
        total = 0.0
        for j in selection:
            slack = self.bs_cap[j] - load[j]
            if slack <= 0.0:
                return math.inf
            total += 1.0 / slack
        return total

    def communication(self, placement: Sequence[int], selection: Sequence[int]) -> float:
        """Each user's link latency between its cloud and its station."""
        total = 0.0
        for i, j in zip(placement, selection):
            total += self.lat[i][j]
        return total

    def non_switching(self, placement: Sequence[int], selection: Sequence[int]) -> float:
        """Queuing plus communication delay of the decision at slot t."""
        return self.queuing(selection) + self.communication(placement, selection)

    def switching(self, p_now: Sequence[int], p_prev: Sequence[int]) -> float:
        """Migration cost: each user whose cloud changed pays its size."""
        total = 0.0
        for size, i_now, i_prev in zip(self.sizes, p_now, p_prev):
            if i_now != i_prev:
                total += size
        return total

    def communication_table(self, placements: np.ndarray, selections: np.ndarray) -> np.ndarray:
        """``communication`` of each row of ``placements`` with each row of
        ``selections``, a (P, S) table. User k's latencies are added to every
        entry at once, in user order onto 0.0: elementwise IEEE adds in the
        order ``communication`` makes them, so the same floats."""
        lat = self.lat_array
        table = np.zeros((len(placements), len(selections)))
        for k in range(placements.shape[1]):
            table += lat[placements[:, k, None], selections[:, k]]
        return table

    def switching_table(self, p_now: np.ndarray, p_prev: np.ndarray) -> np.ndarray:
        """``switching`` from each row of ``p_prev`` to each row of ``p_now``,
        a (len(p_now), len(p_prev)) table, added user by user onto 0.0 as
        ``switching`` adds. Where ``switching`` skips a user that stayed, the
        table adds 0.0, which leaves a nonnegative sum unchanged."""
        table = np.zeros((len(p_now), len(p_prev)))
        for k, size in enumerate(self.sizes):
            table += np.where(p_now[:, k, None] != p_prev[:, k], size, 0.0)
        return table

    def breakdown(
        self, placement: Sequence[int], selection: Sequence[int], p_prev: Sequence[int]
    ) -> DelayBreakdown:
        """The full slot cost of the decision after placement ``p_prev``."""
        return DelayBreakdown.assemble(
            switching=self.switching(placement, p_prev),
            queuing=self.queuing(selection),
            communication=self.communication(placement, selection),
        )


def non_switching_delay(s: Scenario, t: int, x: np.ndarray, y: np.ndarray) -> float:
    """Queuing plus communication delay: the recurring per-slot cost."""
    return queuing_delay(s, t, y) + communication_delay(s, t, x, y)


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
