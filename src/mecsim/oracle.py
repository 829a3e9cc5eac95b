"""Exact small-instance solvers: per-slot argmin and horizon-optimal DP.

Storage constrains placements only and station capacity constrains
selections only, so the feasible decisions of a slot factor into a product
of feasible placement tuples and feasible selection tuples. Each side is
listed by a pruned walk: it grows the fitting prefixes one user at a time
and drops a prefix at its first cloud or station over room, which no
extension can fix, since sizes and demands are positive. Enumeration is
lexicographic and ties keep the lexicographically smallest decision.
Decisions are valued in array passes, ``_IndexCosts``'s table forms, which
form the same floats as its per-decision sums; a selection's queuing delay
comes from the station loads its walk summed. ``argmin`` returns the first
minimum, so the tie rule holds.

The placements do not depend on the slot, so an ``_ExactSlots`` cache,
bound to one scenario and one margin, walks them once and forms each
slot's selections and value layer on first use; every budget check is
made on its sides. It keeps only a complete walk: one the DP's P^2 stop
cuts raises and leaves nothing behind. The cache also keeps each
``solve_slot`` return, or its InfeasibleError, under its (slot, warm
start) key, so it is the controller's memo (``policy.Solved``). Every run
has one: it hands it to every slot solve, the search's enumeration
fallback included, and to the offline DP. So in a run, and across the
rows of ``compare``, the placements are walked once and each enumerated
slot's layer is formed once and read again by the oracle row's DP: on each
``compare-small`` scenario 1 placement walk and 17 layers (the 16 slots'
and the DP's pinned slot 0), against 17 walks and 32 layers when every
exact solve and the DP walked their own. A public call without a cache
forms its own, which ends with the call.
"""

from __future__ import annotations

import math

import numpy as np

from .delays import _IndexCosts
from .errors import InfeasibleError, NoInteriorPointError, OracleTooLargeError
from .model import (
    DEFAULT_MARGIN,
    Scenario,
    SlotDecision,
    _nonnegative_integer,
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


def _fitting_sums(choices, weights: list, limit: list) -> list[tuple[tuple[int, ...], list]]:
    """The tuples of ``itertools.product(*choices)`` whose ``weights``, summed
    per index, stay within ``limit``, each with its per-index sums: (tuple,
    sums) pairs in lexicographic order. The walk grows the fitting prefixes
    one user at a time and drops a prefix at the first index over its
    limit: weights are positive, so a sum never falls and a dropped prefix
    has no fitting extension. The sums run in user order from 0.0, the adds
    ``model._tally`` makes for ``decision_feasible`` (and ``np.bincount``
    would)."""
    # an index a tuple does not touch keeps its 0.0, which then fits its
    # limit, so only the touched indices need a test
    if not all(cap >= 0.0 for cap in limit):
        return []
    level = [((), [0.0] * len(limit))]
    for options, w in zip(choices, weights):
        grown = []
        for prefix, used in level:
            for i in options:
                u = used[i] + w
                if u <= limit[i]:
                    sums = used.copy()
                    sums[i] = u
                    grown.append((prefix + (i,), sums))
        level = grown
    return level


def _fitting(
    choices, weights: np.ndarray, limit: np.ndarray, most: float = math.inf
) -> list[tuple[int, ...]]:
    """The tuples of ``_fitting_sums``, placements or selections, without
    their sums; ``weights`` and ``limit`` are arrays. The last user's index
    is tried on each fitting prefix of the others in turn, so the tuples
    come in lexicographic order, and the walk stops at the first tuple past
    ``most`` that fits."""
    weights, limit = weights.tolist(), limit.tolist()
    w, last, out = weights[-1], choices[-1], []
    for prefix, used in _fitting_sums(choices[:-1], weights, limit):
        for i in last:
            if used[i] + w <= limit[i]:
                out.append(prefix + (i,))
                if len(out) > most:
                    return out
    return out


class _ExactSlots:
    """The exact solvers' sides of one scenario at one margin, each formed
    on first use and kept: the storage-feasible placements, walked once
    (``_fitting``) and kept with ``rows`` only when the walk is complete,
    and per slot its feasible selections with their station loads
    (``_fitting_sums``) and its ``_slot_layer``. Placements and selections
    do not depend on each other, so every slot reads the one walk.
    ``solves`` holds ``solve_slot``'s returns and InfeasibleErrors by key
    (see ``solve_slot``). One instance is the controller's memo
    (``policy.Solved``), so the slots the online runs enumerate are the
    layers the offline DP reads.

    ``margin`` must have passed ``check_margin``; ``check`` refuses any
    other scenario or margin, and every reader calls it, or forms the
    cache itself, before it reads anything kept.
    """

    __slots__ = (
        "s", "margin", "rows", "solves", "_limit", "_placements", "_selections", "_layers"
    )

    def __init__(self, s: Scenario, margin: float) -> None:
        self.s, self.margin = s, margin
        self._limit = station_limit(s.bs_capacity, margin).tolist()
        # the complete placement walk, and as an array, once made
        self._placements: list | None = None
        self.rows: np.ndarray | None = None
        self._selections: dict[int, tuple[list, list]] = {}
        self._layers: dict[int, tuple[np.ndarray, np.ndarray]] = {}
        # (slot, warm start or None) -> solve_slot's return, or its InfeasibleError
        self.solves: dict = {}

    def check(self, s: Scenario, margin: float) -> None:
        """Raise ValueError unless this cache is of ``s`` at ``margin``."""
        if s is not self.s or margin != self.margin:
            raise ValueError("the exact-slot cache belongs to another scenario or margin")

    def selections(self, t: int) -> tuple[list, list]:
        """Slot t's feasible selections and each one's station loads.

        Raises InfeasibleError for an empty side: NoInteriorPointError when
        the margin is positive and some selection fits with loads up to
        capacity.
        """
        found = self._selections.get(t)
        if found is None:
            s = self.s
            walk = _fitting_sums(s.coverage[t], s.demand[t].tolist(), self._limit)
            if not walk:
                # the LP's margin-0 test: does a selection fit with loads up to C?
                if self.margin > 0.0 and _fitting(s.coverage[t], s.demand[t], s.bs_capacity, most=0):
                    raise NoInteriorPointError(
                        f"no feasible decision at slot {t}: only loads at station capacity fit"
                    )
                raise InfeasibleError(f"no feasible decision at slot {t}")
            found = self._selections[t] = (
                [selection for selection, _ in walk], [load for _, load in walk]
            )
        return found

    def sides(self, slots: range, budget: int) -> list[tuple[int, ...]]:
        """The feasible placements, once the sides of ``slots`` fit
        ``budget`` as ``ENUMERATION_BUDGET`` says. The raw counts must have
        passed ``_check_raw_counts``; the placements are counted only until
        (slots - 1) * P^2 alone is over the budget. A walk cut there keeps
        nothing; a complete one is kept, with ``rows``, for every later call.

        Raises OracleTooLargeError over the budget and InfeasibleError for
        an empty side, the placements' first and then each slot's in order
        (see ``selections``).
        """
        # (slots - 1) * P^2 alone is over the budget once P passes this
        most = math.isqrt(budget // (len(slots) - 1)) if len(slots) > 1 else math.inf
        placements = self._placements
        if placements is None:
            s = self.s
            placements = _fitting(
                [range(s.num_clouds)] * s.num_users, s.service_size, s.cloud_capacity, most
            )
            if len(placements) <= most:
                self._placements, self.rows = placements, np.array(placements)
        # a walk stopped at ``most`` would have counted this many
        p = min(len(placements), most + 1)
        if p > most:
            raise OracleTooLargeError(
                f"at least {(len(slots) - 1) * p * p} values to compute exceed the budget of {budget}"
            )
        if not placements:
            raise InfeasibleError(
                f"no feasible decision at slot {slots[0]}: no storage-feasible placement exists"
            )
        count = 0
        for t in slots:
            count += len(self.selections(t)[0])
        work = p * (count + (len(slots) - 1) * p)
        if work > budget:
            raise OracleTooLargeError(f"{work} values to compute exceed the budget of {budget}")
        return placements

    def layer(self, t: int) -> tuple[np.ndarray, np.ndarray]:
        """``_slot_layer`` of slot t over every placement; the sides of t
        must have fit the budget (``sides``). Every reader shares the two
        arrays, so none may write to them."""
        found = self._layers.get(t)
        if found is None:
            found = self._layers[t] = _slot_layer(
                _IndexCosts(self.s, t), self.rows, *self.selections(t)
            )
        return found


def _slot_layer(
    costs: _IndexCosts, placements: np.ndarray, selections: list, loads: list
) -> tuple[np.ndarray, np.ndarray]:
    """Per row of ``placements``, its least non-switching delay at the slot
    and the index of the first selection that reaches it: the selection
    couples no slots. Each selection's queuing delay is formed once, from
    the station loads the walk summed (``loads``), and added to the
    communication table; non_switching is exactly queuing + communication,
    so the values are the same floats."""
    queuing = costs.queuing_table(selections, loads)
    values = queuing + costs.communication_table(placements, np.array(selections))
    return values.min(axis=1), values.argmin(axis=1)


def _check_raw_counts(s: Scenario, slots: range, budget: int) -> None:
    """Raise OracleTooLargeError unless the raw placement count M^N and each
    slot's raw selection count are within ``budget``: nothing is walked
    before this holds."""
    raw = max(math.prod(map(len, s.coverage[t])) for t in slots)
    if max(s.num_clouds**s.num_users, raw) > budget:
        raise OracleTooLargeError(f"enumeration exceeds the budget of {budget} values")


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
    ValueError unless ``t`` is an integer in ``range(s.num_slots)``,
    ``margin`` passes ``check_margin`` and ``budget`` is an integer >= 0,
    and as ``check_decision`` does for a malformed ``x_prev``; the budget is
    as ``ENUMERATION_BUDGET`` says.
    """
    check_slot(s, t)
    if x_prev is not None:
        check_decision(s, x_prev)
    check_margin(margin)
    budget = _nonnegative_integer("budget", budget)
    _check_raw_counts(s, range(t, t + 1), budget)
    return _slot_optimum(_ExactSlots(s, margin), t, x_prev, budget)


def _slot_optimum(
    exact: _ExactSlots, t: int, x_prev: SlotDecision | None, budget: int
) -> tuple[SlotDecision, float]:
    """``best_slot_decision`` of ``exact``'s scenario and margin, read
    through ``exact``, once its arguments are checked and the slot's raw
    counts are within ``budget``."""
    placements = exact.sides(range(t, t + 1), budget)
    values, best = exact.layer(t)
    if x_prev is not None:
        switching = _IndexCosts(exact.s, t).switching_table(
            exact.rows, np.array([x_prev.placement])
        )
        values = values + switching[:, 0]
    pi = int(values.argmin())
    return SlotDecision(placements[pi], exact.selections(t)[0][best[pi]]), float(values[pi])


def offline_optimal(
    s: Scenario,
    margin: float = DEFAULT_MARGIN,
    budget: int = ENUMERATION_BUDGET,
    first_decision: SlotDecision | None = None,
    *,
    _exact: _ExactSlots | None = None,
) -> tuple[list[SlotDecision], float]:
    """Minimal total delay over the whole horizon, by dynamic programming.

    Slot 0 pays no switching cost; later slots pay it against the previous
    placement. With ``first_decision`` the slot-0 decision is pinned and the
    remaining slots are optimized around it. Raises ValueError unless
    ``margin`` passes ``check_margin`` and ``budget`` is an integer >= 0,
    and as ``check_decision`` does for a malformed ``first_decision``; the
    budget is as ``ENUMERATION_BUDGET`` says. ``_exact`` is the controller
    memo's cache of ``s`` at ``margin``, whose slots the online runs may
    have formed already; without it the call forms its own, and one of
    another scenario or margin raises ValueError.
    """
    if first_decision is not None:
        check_decision(s, first_decision)
    check_margin(margin)
    budget = _nonnegative_integer("budget", budget)
    if _exact is None:
        _exact = _ExactSlots(s, margin)
    else:
        _exact.check(s, margin)
    _check_raw_counts(s, range(s.num_slots), budget)
    placements = _exact.sides(range(s.num_slots), budget)
    rows = _exact.rows
    selections = [_exact.selections(t)[0] for t in range(s.num_slots)]
    costs = _IndexCosts(s, 0)
    # The switching cost between two placements does not depend on the slot:
    # switch[p, q] is the cost of moving from placement q to placement p.
    switch = costs.switching_table(rows, rows) if s.num_slots > 1 else None

    if first_decision is None:
        values, best = _exact.layer(0)
    else:
        p0, y0 = first_decision.placement, first_decision.selection
        if p0 not in placements or y0 not in selections[0]:
            raise InfeasibleError("pinned slot-0 decision is not feasible")
        # slot 0's layer is the common pass over the pinned selection alone
        load = _exact.selections(0)[1][selections[0].index(y0)]
        selections[0] = [y0]
        values, best = _slot_layer(costs, rows, selections[0], [load])
        # the pinned decision is slot 0's only finite entry, so every
        # transition out of slot 0 arrives from it
        values[[p != p0 for p in placements]] = math.inf

    # picks[t][p]: the selection of the best total through slot t ending at
    # placement p; back[t - 1][p]: the placement at slot t - 1 it arrives from
    picks, back = [best], []
    for t in range(1, s.num_slots):
        ns, best = _exact.layer(t)
        arrive = values[None, :] + switch
        values = arrive.min(axis=1) + ns
        picks.append(best)
        back.append(arrive.argmin(axis=1))

    pi = int(values.argmin())
    final_value = float(values[pi])
    path: list[SlotDecision] = []
    for t in range(s.num_slots - 1, -1, -1):
        path.append(SlotDecision(placements[pi], selections[t][picks[t][pi]]))
        if t >= 1:
            pi = back[t - 1][pi]
    path.reverse()
    return path, final_value
