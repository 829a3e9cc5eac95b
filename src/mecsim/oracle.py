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

from .errors import InfeasibleError, OracleTooLargeError
from .model import Scenario, SlotDecision

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
    out = []
    for sel in itertools.product(*s.coverage[t]):
        load = np.bincount(sel, weights=s.demand[t], minlength=s.num_clouds)
        if np.all(load <= s.bs_capacity - margin) and np.all(load < s.bs_capacity):
            out.append(sel)
    return out


def _queuing(s: Scenario, t: int, sel: tuple[int, ...]) -> float:
    load = np.bincount(sel, weights=s.demand[t], minlength=s.num_clouds)
    slack = s.bs_capacity - load
    total = 0.0
    for j in sel:
        if slack[j] <= 0.0:
            return math.inf
        total += 1.0 / slack[j]
    return total


def _communication(s: Scenario, t: int, p: tuple[int, ...], sel: tuple[int, ...]) -> float:
    lat = s.link_latency[t]
    return float(sum(lat[i, j] for i, j in zip(p, sel)))


def _switch_cost(s: Scenario, p_new: tuple[int, ...], p_old: tuple[int, ...]) -> float:
    return float(
        sum(s.service_size[k] for k in range(s.num_users) if p_new[k] != p_old[k])
    )


def best_slot_decision(
    s: Scenario,
    t: int,
    x_prev: SlotDecision | None = None,
    margin: float = 1e-6,
    budget: int = ENUMERATION_BUDGET,
) -> tuple[SlotDecision, float]:
    """Exhaustive slot optimum.

    Minimizes the non-switching delay, plus the switching cost against
    ``x_prev`` when given. Returns the decision and its value.
    """
    max_cov = max(len(s.coverage[t][k]) for k in range(s.num_users))
    if s.num_clouds**s.num_users * max_cov**s.num_users > budget:
        raise OracleTooLargeError(
            f"slot enumeration exceeds the budget of {budget} decisions"
        )
    placements = _feasible_placements(s)
    selections = _feasible_selections(s, t, margin)
    if not placements or not selections:
        raise InfeasibleError(f"no feasible decision at slot {t}")

    prev_p = x_prev.placement if x_prev is not None else None
    best_value = math.inf
    best: tuple[tuple[int, ...], tuple[int, ...]] | None = None
    for p in placements:
        switch = _switch_cost(s, p, prev_p) if prev_p is not None else 0.0
        for sel in selections:
            value = _queuing(s, t, sel) + _communication(s, t, p, sel) + switch
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
    remaining slots are optimized around it. The DP workload
    num_slots * D^2 (D = feasible decisions of the busiest slot) must stay
    within ``budget``.
    """
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

    def slot_values(t: int, pls: list[tuple[int, ...]]) -> list[list[float]]:
        q = [_queuing(s, t, sel) for sel in selections[t]]
        return [
            [q[yi] + _communication(s, t, p, selections[t][yi]) for yi in range(len(selections[t]))]
            for p in pls
        ]

    if first_decision is not None:
        p0 = tuple(first_decision.placement)
        y0 = tuple(first_decision.selection)
        if p0 not in placements or y0 not in selections[0]:
            raise InfeasibleError("pinned slot-0 decision is not feasible")
        slot0_p = [p0]
        slot0_y = [[y0]]
        value = [[_queuing(s, 0, y0) + _communication(s, 0, p0, y0)]]
    else:
        slot0_p = placements
        slot0_y = [selections[0] for _ in placements]
        value = slot_values(0, placements)

    # value[pi][yi]: best total through slot t ending at (placement pi, selection yi)
    prev_p = slot0_p
    back_p: list[list[int]] = []   # per slot >=1: chosen previous placement index
    best_y: list[list[int]] = []   # per slot >=0: argmin selection per placement

    def argmin_y(vals: list[list[float]]) -> list[int]:
        out = []
        for row in vals:
            best_i = 0
            for i in range(1, len(row)):
                if row[i] < row[best_i]:
                    best_i = i
            out.append(best_i)
        return out

    best_y.append(argmin_y(value))
    for t in range(1, s.num_slots):
        w = [value[pi][best_y[-1][pi]] for pi in range(len(prev_p))]
        ns = slot_values(t, placements)
        new_value: list[list[float]] = []
        bp: list[int] = []
        for pi, p in enumerate(placements):
            best_prev = 0
            best_cost = math.inf
            for qi, p_old in enumerate(prev_p):
                cost = w[qi] + _switch_cost(s, p, p_old)
                if cost < best_cost:
                    best_cost = cost
                    best_prev = qi
            bp.append(best_prev)
            new_value.append([best_cost + v for v in ns[pi]])
        back_p.append(bp)
        value = new_value
        prev_p = placements
        best_y.append(argmin_y(value))

    final_pi = 0
    final_value = math.inf
    for pi in range(len(prev_p)):
        v = value[pi][best_y[-1][pi]]
        if v < final_value:
            final_value = v
            final_pi = pi

    # walk the backpointers from the last slot to slot 0
    path: list[SlotDecision] = []
    pi = final_pi
    for t in range(s.num_slots - 1, -1, -1):
        if t == 0:
            p = slot0_p[pi]
            sel = slot0_y[pi][best_y[0][pi]]
        else:
            p = placements[pi]
            sel = selections[t][best_y[t][pi]]
        path.append(SlotDecision(p, sel))
        if t >= 1:
            pi = back_p[t - 1][pi]
    path.reverse()
    return path, final_value
