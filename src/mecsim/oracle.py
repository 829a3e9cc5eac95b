"""Exact small-instance solvers: per-slot argmin and horizon-optimal DP.

Storage constrains placements only and station capacity constrains
selections only, so the feasible decisions of a slot factor into a product
of feasible placement tuples and feasible selection tuples. Enumeration is
lexicographic and ties keep the lexicographically smallest decision.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from .delays import _IndexCosts
from .errors import InfeasibleError, OracleTooLargeError
from .model import Scenario, SlotDecision, check_slot, station_limit

__all__ = [
    "ENUMERATION_BUDGET",
    "best_slot_decision",
    "offline_optimal",
]

ENUMERATION_BUDGET = 1_000_000


def _feasible_placements(s: Scenario) -> list[tuple[int, ...]]:
    out = []
    for p in itertools.product(range(s.num_clouds), repeat=s.num_users):
        storage = np.bincount(p, weights=s.service_size, minlength=s.num_clouds)
        if np.all(storage <= s.cloud_capacity):
            out.append(p)
    return out


def _feasible_selections(s: Scenario, t: int, margin: float) -> list[tuple[int, ...]]:
    limit = station_limit(s.bs_capacity, margin)
    out = []
    for sel in itertools.product(*s.coverage[t]):
        load = np.bincount(sel, weights=s.demand[t], minlength=s.num_clouds)
        if np.all(load <= limit):
            out.append(sel)
    return out


def best_slot_decision(
    s: Scenario,
    t: int,
    x_prev: SlotDecision | None = None,
    margin: float = 1e-6,
    budget: int = ENUMERATION_BUDGET,
) -> tuple[SlotDecision, float]:
    """Exhaustive slot optimum.

    Minimizes the non-switching delay, plus the switching cost against
    ``x_prev`` when given. Returns the decision and its value. Raises
    ValueError unless ``t`` is an integer in ``range(s.num_slots)``.
    """
    check_slot(s, t)
    max_cov = max(len(s.coverage[t][k]) for k in range(s.num_users))
    if s.num_clouds**s.num_users * max_cov**s.num_users > budget:
        raise OracleTooLargeError(
            f"slot enumeration exceeds the budget of {budget} decisions"
        )
    placements = _feasible_placements(s)
    selections = _feasible_selections(s, t, margin)
    if not placements or not selections:
        raise InfeasibleError(f"no feasible decision at slot {t}")

    costs = _IndexCosts(s, t)
    best_value = math.inf
    best: tuple[tuple[int, ...], tuple[int, ...]] | None = None
    for p in placements:
        switch = costs.switching(p, x_prev.placement) if x_prev is not None else 0.0
        for sel in selections:
            value = costs.non_switching(p, sel) + switch
            if value < best_value:
                best_value = value
                best = (p, sel)
    assert best is not None
    return SlotDecision(best[0], best[1]), best_value


def offline_optimal(
    s: Scenario,
    margin: float = 1e-6,
    budget: int = ENUMERATION_BUDGET,
    first_decision: SlotDecision | None = None,
) -> tuple[list[SlotDecision], float]:
    """Minimal total delay over the whole horizon, by dynamic programming.

    Slot 0 pays no switching cost; later slots pay it against the previous
    placement. With ``first_decision`` the slot-0 decision is pinned and the
    remaining slots are optimized around it. The raw placement count M^N
    and every slot's raw selection count must stay within ``budget`` before
    anything is enumerated, and the DP workload num_slots * D^2 (D =
    feasible decisions of the busiest slot) after.
    """
    raw_selections = max(math.prod(len(c) for c in cov) for cov in s.coverage)
    if max(s.num_clouds**s.num_users, raw_selections) > budget:
        raise OracleTooLargeError(
            f"offline DP enumeration exceeds the budget of {budget} decisions"
        )
    placements = _feasible_placements(s)
    if not placements:
        raise InfeasibleError("no storage-feasible placement exists")
    selections = [
        _feasible_selections(s, t, margin) for t in range(s.num_slots)
    ]
    for t, sel in enumerate(selections):
        if not sel:
            raise InfeasibleError(f"no feasible decision at slot {t}")
    d_max = len(placements) * max(len(sel) for sel in selections)
    if s.num_slots * d_max**2 > budget:
        raise OracleTooLargeError(
            f"offline DP workload exceeds the budget of {budget}"
        )

    costs = [_IndexCosts(s, t) for t in range(s.num_slots)]
    # Each selection's queuing delay once per slot; non_switching is exactly
    # queuing + communication, so the values are the same floats.
    queuing = [[costs[t].queuing(sel) for sel in selections[t]] for t in range(s.num_slots)]
    # The switching cost between two placements does not depend on the slot.
    switch = (
        [[costs[0].switching(p, q) for q in placements] for p in placements]
        if s.num_slots > 1 else []
    )

    def first_min(values: list[float]) -> int:
        return min(range(len(values)), key=values.__getitem__)

    def best_selection(t: int, p: tuple[int, ...]) -> tuple[float, tuple[int, ...]]:
        """Least non-switching delay of placement p at slot t, and the first
        selection that reaches it: the selection does not couple slots."""
        communication = costs[t].communication
        values = [q + communication(p, sel) for q, sel in zip(queuing[t], selections[t])]
        yi = first_min(values)
        return values[yi], selections[t][yi]

    if first_decision is not None:
        p0 = tuple(first_decision.placement)
        y0 = tuple(first_decision.selection)
        if p0 not in placements or y0 not in selections[0]:
            raise InfeasibleError("pinned slot-0 decision is not feasible")
        layer = [(placements.index(p0), costs[0].non_switching(p0, y0), y0)]
    else:
        layer = [(pi, *best_selection(0, p)) for pi, p in enumerate(placements)]

    # layers[t][k]: (index of a placement, best total through slot t ending
    # there, its selection); back[t - 1][pi]: the entry of slot t - 1 that
    # the best total ending at placement pi arrives from
    layers = [layer]
    back: list[list[int]] = []
    for t in range(1, s.num_slots):
        prev = layers[-1]
        layer, bp = [], []
        for pi, p in enumerate(placements):
            row = switch[pi]
            arrive = [value + row[qi] for qi, value, _ in prev]
            k = first_min(arrive)
            ns, sel = best_selection(t, p)
            layer.append((pi, arrive[k] + ns, sel))
            bp.append(k)
        layers.append(layer)
        back.append(bp)

    k = first_min([value for _, value, _ in layers[-1]])
    final_value = layers[-1][k][1]
    path: list[SlotDecision] = []
    for t in range(s.num_slots - 1, -1, -1):
        pi, _, sel = layers[t][k]
        path.append(SlotDecision(placements[pi], sel))
        if t >= 1:
            k = back[t - 1][pi]
    path.reverse()
    return path, final_value
