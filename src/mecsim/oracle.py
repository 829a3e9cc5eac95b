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
from .errors import InfeasibleError, NoInteriorPointError, OracleTooLargeError
from .model import (
    DEFAULT_MARGIN,
    Scenario,
    SlotDecision,
    check_decision,
    check_margin,
    check_slot,
    station_limit,
)

__all__ = [
    "ENUMERATION_BUDGET",
    "best_slot_decision",
    "offline_optimal",
]

# Most values an exact solver may compute. Before enumerating, the raw
# placement count M^N and each slot's raw selection count (the product of
# the users' coverage sizes) must each be within it. After, with P feasible
# placements and S_t feasible selections at slot t, the solver computes
# sum_t P*S_t decision values and (slots - 1) * P^2 placement-to-placement
# comparisons, and their sum must be within it too.
ENUMERATION_BUDGET = 1_000_000


def _fitting(
    choices, weights: np.ndarray, limit: np.ndarray, most: float = math.inf
) -> list[tuple[int, ...]]:
    """The tuples of ``itertools.product(*choices)`` whose ``weights``, summed
    per index, stay within ``limit``: placements or selections. The sums run
    in user order from 0.0, the adds ``decision_feasible``'s ``bincount``s
    make. The walk stops at the first tuple past ``most`` that fits."""
    weights, limit = weights.tolist(), limit.tolist()
    zero = [0.0] * len(limit)
    out = []
    for combo in itertools.product(*choices):
        used = zero.copy()
        for i, w in zip(combo, weights):
            used[i] += w
        if all(u <= cap for u, cap in zip(used, limit)):
            out.append(combo)
            if len(out) > most:
                break
    return out


def _sides(s: Scenario, slots: range, margin: float, budget: int) -> tuple[list, list]:
    """The feasible placements, and the feasible selections of each slot in
    ``slots``, once they fit ``budget`` as ``ENUMERATION_BUDGET`` says. The
    placements are counted only until (slots - 1) * P^2 alone is over it.

    Raises ValueError unless ``margin`` passes ``check_margin``,
    OracleTooLargeError over the budget and InfeasibleError for an empty
    side: NoInteriorPointError for an empty selection side when ``margin``
    is positive and some selection fits with loads up to capacity.
    """
    check_margin(margin)
    raw = max(math.prod(map(len, s.coverage[t])) for t in slots)
    if max(s.num_clouds**s.num_users, raw) > budget:
        raise OracleTooLargeError(f"enumeration exceeds the budget of {budget} values")
    # (slots - 1) * P^2 alone is over the budget once P passes this
    most = math.isqrt(budget // (len(slots) - 1)) if len(slots) > 1 else math.inf
    placements = _fitting(
        [range(s.num_clouds)] * s.num_users, s.service_size, s.cloud_capacity, most
    )
    if len(placements) > most:
        p = len(placements)
        raise OracleTooLargeError(
            f"at least {(len(slots) - 1) * p * p} values to compute exceed the budget of {budget}"
        )
    if not placements:
        raise InfeasibleError(
            f"no feasible decision at slot {slots[0]}: no storage-feasible placement exists"
        )
    limit = station_limit(s.bs_capacity, margin)
    selections = [_fitting(s.coverage[t], s.demand[t], limit) for t in slots]
    for t, found in zip(slots, selections):
        if not found:
            # the LP's margin-0 test: does a selection fit with loads up to C?
            if margin > 0.0 and _fitting(s.coverage[t], s.demand[t], s.bs_capacity, most=0):
                raise NoInteriorPointError(
                    f"no feasible decision at slot {t}: only loads at station capacity fit"
                )
            raise InfeasibleError(f"no feasible decision at slot {t}")
    p = len(placements)
    work = p * (sum(map(len, selections)) + (len(slots) - 1) * p)
    if work > budget:
        raise OracleTooLargeError(f"{work} values to compute exceed the budget of {budget}")
    return placements, selections


def _first_min(values: list[float]) -> int:
    return min(range(len(values)), key=values.__getitem__)


def _slot_layer(costs: _IndexCosts, placements: list, selections: list) -> list:
    """Per placement, its least non-switching delay at the slot and the first
    selection that reaches it: the selection couples no slots. Each
    selection's queuing delay is computed once; non_switching is exactly
    queuing + communication, so the values are the same floats."""
    queuing = [costs.queuing(sel) for sel in selections]
    communication = costs.communication
    layer = []
    for p in placements:
        values = [q + communication(p, sel) for q, sel in zip(queuing, selections)]
        yi = _first_min(values)
        layer.append((values[yi], selections[yi]))
    return layer


def best_slot_decision(
    s: Scenario,
    t: int,
    x_prev: SlotDecision | None = None,
    margin: float = DEFAULT_MARGIN,
    budget: int = ENUMERATION_BUDGET,
) -> tuple[SlotDecision, float]:
    """Exhaustive slot optimum.

    Minimizes the non-switching delay, plus the switching cost against
    ``x_prev`` when given. Returns the decision and its value. Raises
    ValueError unless ``t`` is an integer in ``range(s.num_slots)`` and
    ``margin`` passes ``check_margin``, and as ``check_decision`` does for a
    malformed ``x_prev``; the budget is as ``ENUMERATION_BUDGET`` says.
    """
    check_slot(s, t)
    if x_prev is not None:
        check_decision(s, x_prev)
    placements, (selections,) = _sides(s, range(t, t + 1), margin, budget)
    costs = _IndexCosts(s, t)
    layer = _slot_layer(costs, placements, selections)
    values = [
        value + (costs.switching(p, x_prev.placement) if x_prev is not None else 0.0)
        for p, (value, _) in zip(placements, layer)
    ]
    pi = _first_min(values)
    return SlotDecision(placements[pi], layer[pi][1]), values[pi]


def offline_optimal(
    s: Scenario,
    margin: float = DEFAULT_MARGIN,
    budget: int = ENUMERATION_BUDGET,
    first_decision: SlotDecision | None = None,
) -> tuple[list[SlotDecision], float]:
    """Minimal total delay over the whole horizon, by dynamic programming.

    Slot 0 pays no switching cost; later slots pay it against the previous
    placement. With ``first_decision`` the slot-0 decision is pinned and the
    remaining slots are optimized around it. Raises ValueError unless
    ``margin`` passes ``check_margin``, and as ``check_decision`` does for a
    malformed ``first_decision``; the budget is as ``ENUMERATION_BUDGET``
    says.
    """
    if first_decision is not None:
        check_decision(s, first_decision)
    placements, selections = _sides(s, range(s.num_slots), margin, budget)
    costs = [_IndexCosts(s, t) for t in range(s.num_slots)]
    # The switching cost between two placements does not depend on the slot.
    switch = (
        [[costs[0].switching(p, q) for q in placements] for p in placements]
        if s.num_slots > 1 else []
    )

    if first_decision is not None:
        p0, y0 = first_decision.placement, first_decision.selection
        if p0 not in placements or y0 not in selections[0]:
            raise InfeasibleError("pinned slot-0 decision is not feasible")
        layer = [(placements.index(p0), costs[0].non_switching(p0, y0), y0)]
    else:
        layer = [(pi, *e) for pi, e in enumerate(_slot_layer(costs[0], placements, selections[0]))]

    # layers[t][k]: (index of a placement, best total through slot t ending
    # there, its selection); back[t - 1][pi]: the entry of slot t - 1 that
    # the best total ending at placement pi arrives from
    layers = [layer]
    back: list[list[int]] = []
    for t in range(1, s.num_slots):
        prev = layers[-1]
        layer, bp = [], []
        for pi, (ns, sel) in enumerate(_slot_layer(costs[t], placements, selections[t])):
            row = switch[pi]
            arrive = [value + row[qi] for qi, value, _ in prev]
            k = _first_min(arrive)
            layer.append((pi, arrive[k] + ns, sel))
            bp.append(k)
        layers.append(layer)
        back.append(bp)

    k = _first_min([value for _, value, _ in layers[-1]])
    final_value = layers[-1][k][1]
    path: list[SlotDecision] = []
    for t in range(s.num_slots - 1, -1, -1):
        pi, _, sel = layers[t][k]
        path.append(SlotDecision(placements[pi], sel))
        if t >= 1:
            k = back[t - 1][pi]
    path.reverse()
    return path, final_value
