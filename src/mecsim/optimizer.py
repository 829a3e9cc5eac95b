"""Per-slot solver.

Picks the integral service placement and station selection that minimize
the slot's non-switching delay, under storage, coverage and the
capacity margin. A discrete local search does the work. It starts from
fixed-seed randomized roundings of the uniform fractional point (repaired
under storage and capacity), from a greedy per-user assignment, and from
the warm start pushed back into coverage and capacity by greedy repair.
The best local optimum then takes a few seeded perturbation restarts.

The search values each probed move as the current objective plus the
change in the terms of the stations and users the move touches. Each step
walks the one-user moves in latency order: a move's value never falls as
its link latency grows, so per user and covered station only the nearest
cloud with room can hold the least value, and only the winning user's
moves are then valued one by one to find the first minimum. Two-user moves
are valued in one NumPy pass per step: on small slots the full rescan of
any two users to any two spots, otherwise every plain exchange over (N, N)
arrays. Single probes value only three-user rotations. Every search state
is feasible, so the one-user scan and the kicks test only a move's targets.
Float-safe lower bounds ("floors") skip the scans that cannot win: a user
whose one-user moves all value at or above the least value found so far
is not walked, and the exchange pass and the rotation probes run only
when some move of theirs could pass the step's bar. A floor is a real
lower bound on the value, less a slack of 1e-9 * (1 + f) that covers the
rounding, so a skip never drops a move that would have been taken. The
slot's static data is built once per solve and shared by all its searches
and kicks, together with a record of the solve's descents: a descent
depends only on its decision and the slot, so a search that starts at or
reaches a decision an earlier search of the solve descended from stops
there with that descent's local optimum. When the uniform point cannot be
repaired, one zero-cost LP supplies the point to round; it also tells an
empty slot from one with no point clear of the margin. That LP is the only
use of SciPy, imported when it runs.
"""

from __future__ import annotations

import logging
import math
from bisect import bisect_right
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .delays import _as_decision_matrix, _IndexCosts, station_loads
from .errors import (
    InfeasibleError,
    NoInteriorPointError,
    OverloadedPointError,
    RoundingFailedError,
)
from .model import (
    DEFAULT_MARGIN,
    FractionalDecision,
    Scenario,
    SlotDecision,
    check_decision,
    check_margin,
    check_slot,
    decision_feasible,
    station_limit,
)

__all__ = [
    "SolverConfig",
    "SolverReport",
    "objective_gradient",
    "round_decision",
    "solve_slot",
]

_log = logging.getLogger("mecsim")


@dataclass(frozen=True)
class SolverConfig:
    """The one setting of the slot solve: the station capacity margin.

    A slot's decision is a function of the scenario, the slot, the warm
    start and this config; the search's effort bounds are module constants.
    """

    margin: float = DEFAULT_MARGIN  # station load must stay <= C_j - margin

    def __post_init__(self) -> None:
        object.__setattr__(self, "margin", check_margin(self.margin))


DEFAULT_CONFIG = SolverConfig()

# Effort bounds of the discrete search. All of it is deterministic: the
# seed roundings and the kick stream use fixed seeds, never caller seeds.
# Each knob's comment ends with the test in tests/test_optimizer.py that
# fails without it, as *_<end of its name>[<parametrize id>], the * standing
# for its start; test_every_pinned_knob_names_a_test_that_exists checks it.
_PAIR_SCAN_BUDGET = 8000    # two-user rescans of <= 8000 batches; *_tight_instances[13]
_MAX_ATTEMPTS = 50          # rounding draws before repair; *_tight_instances[13]
_ROTATION_BUDGET = 4000     # three-user rotations while n**3 fits; *_tight_instances[70]
_KICK_ROUNDS = 6            # perturbation restarts; *_kicks_escape_local_optima
_MAX_MOVES = 500            # cap on one descent's moves, a safety bound, not a tuned knob
_KICK_SEED = 271828182
_CANDIDATE_SEEDS = (0, 1, 2)  # roundings; *_reaches_the_optimum_on_former_sandwich_misses


@dataclass(frozen=True)
class SolverReport:
    """What the per-slot solve did and where it ended."""

    iterations: int             # improving search moves applied, all starts
    objective: float            # non-switching delay of the returned decision
    rounding_attempts: int = 0  # draws spent by the seed roundings
    repair_actions: int = 0     # greedy-repair moves on seeds and warm start
    starts: int = 1             # distinct seeds the search started from


def objective_gradient(
    s: Scenario, t: int, x: np.ndarray, y: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Analytic gradient of the non-switching delay.

    grad_x[i,k] = sum_j y[j,k] * lat[i,j]
    grad_y[j,k] = 1/(C_j - L_j) + c_k * Y_j / (C_j - L_j)^2 + sum_i x[i,k] * lat[i,j]
    with L_j the demand-weighted load and Y_j the total selection weight on j.
    Raises ValueError unless ``t`` is an integer in ``range(s.num_slots)``
    and DimensionMismatchError unless x and y are (clouds, users).
    """
    check_slot(s, t)
    x = _as_decision_matrix(s, "x", x)
    y = _as_decision_matrix(s, "y", y)
    lat = s.link_latency[t]
    demand = s.demand[t]
    load = station_loads(s, t, y)
    slack = s.bs_capacity - load
    if np.any(slack <= 0.0):
        j = int(np.argmin(slack))
        raise OverloadedPointError(
            f"station {j} load {load[j]:.6g} reaches capacity {s.bs_capacity[j]:.6g}"
        )
    weight = y.sum(axis=1)
    grad_x = lat @ y
    grad_y = (
        (1.0 / slack)[:, None]
        + np.outer(weight / slack**2, demand)
        + lat.T @ x
    )
    return grad_x, grad_y


def _repair_columns(
    mat: np.ndarray,
    weights: np.ndarray,
    caps: np.ndarray,
    allowed: tuple[tuple[int, ...], ...],
) -> bool:
    """Push a column-stochastic matrix under per-row weighted caps.

    Overloaded rows are scaled down proportionally; the per-column deficits
    are then refilled greedily into the allowed rows with the most slack.
    Returns False when some deficit cannot be placed.
    """
    m, n = mat.shape
    if np.any(caps < 0.0):
        return False
    load = mat @ weights
    for r in range(m):
        if load[r] > caps[r] and load[r] > 0.0:
            mat[r, :] *= caps[r] / load[r]
    load = mat @ weights
    for k in range(n):
        deficit = 1.0 - mat[:, k].sum()
        guard = 0
        while deficit > 1e-12 and guard < 4 * m:
            guard += 1
            best_r, best_slack = -1, 1e-12
            for r in allowed[k]:
                slack = caps[r] - load[r]
                if slack > best_slack:
                    best_r, best_slack = r, slack
            if best_r < 0:
                return False
            amount = min(deficit, best_slack / weights[k])
            mat[best_r, k] += amount
            load[best_r] += amount * weights[k]
            deficit -= amount
        if deficit > 1e-12:
            return False
    return True


def _uniform_point(
    s: Scenario, t: int, margin: float
) -> tuple[np.ndarray, np.ndarray] | None:
    """Pinned start: uniform weights, repaired to capacity feasibility."""
    m, n = s.num_clouds, s.num_users
    cov = s.coverage[t]
    x = np.full((m, n), 1.0 / m)
    y = np.zeros((m, n))
    for k in range(n):
        y[list(cov[k]), k] = 1.0 / len(cov[k])
    all_clouds = tuple(tuple(range(m)) for _ in range(n))
    ok_x = _repair_columns(x, s.service_size, s.cloud_capacity.copy(), all_clouds)
    ok_y = _repair_columns(y, s.demand[t], s.bs_capacity - margin, cov)
    if not (ok_x and ok_y):
        return None
    return x, y


def _cheapest_room(
    s: Scenario, t: int, k: int, i: int, load: np.ndarray, limit: np.ndarray,
    skip: int = -1,
) -> tuple[float, int] | None:
    """User k's cheapest covered station but ``skip`` that can take its
    demand on top of ``load``, by queue-plus-latency cost with k on cloud i,
    as (cost, station); the lowest station index on ties, None if none fits.
    """
    best = None
    for j in s.coverage[t][k]:
        new_load = load[j] + s.demand[t][k]
        if j != skip and new_load <= limit[j]:
            cost = 1.0 / (s.bs_capacity[j] - new_load) + s.link_latency[t][i, j]
            if best is None or cost < best[0]:
                best = (cost, j)
    return best


def _greedy_indicator(s: Scenario, t: int, margin: float) -> SlotDecision | None:
    """Sequential per-user joint argmin of queue-plus-latency cost."""
    m, n = s.num_clouds, s.num_users
    limit = station_limit(s.bs_capacity, margin)
    storage = np.zeros(m)
    load = np.zeros(m)
    placement, selection = [], []
    for k in range(n):
        best = None
        for i in range(m):
            if storage[i] + s.service_size[k] > s.cloud_capacity[i]:
                continue
            room = _cheapest_room(s, t, k, i, load, limit)
            if room is not None and (best is None or room[0] < best[0]):
                best = (room[0], i, room[1])
        if best is None:
            return None
        _, i, j = best
        placement.append(i)
        selection.append(j)
        storage[i] += s.service_size[k]
        load[j] += s.demand[t][k]
    return SlotDecision(tuple(placement), tuple(selection))


def _feasible_point_via_lp(
    s: Scenario, t: int, margin: float
) -> tuple[np.ndarray, np.ndarray]:
    """Some point of the relaxed slot, from a zero-cost LP.

    Variables: x then y, each (M, N) flattened cloud-major. Rows: storage
    and capacity-minus-margin as inequalities, one column sum per user for
    x and for y; selections outside coverage are pinned to zero by their
    bounds. When the LP is empty, the same LP with no margin tells
    NoInteriorPointError (only loads at capacity fit) from InfeasibleError.
    """
    from scipy.optimize import linprog

    m, n = s.num_clouds, s.num_users
    covered = np.zeros((m, n))
    for k, stations in enumerate(s.coverage[t]):
        covered[list(stations), k] = 1.0
    rows = np.eye(m)
    a_ub = np.block([
        [np.kron(rows, s.service_size), np.zeros((m, m * n))],
        [np.zeros((m, m * n)), np.kron(rows, s.demand[t])],
    ])
    a_eq = np.kron(np.eye(2), np.kron(np.ones(m), np.eye(n)))
    upper = np.concatenate([np.ones(m * n), covered.ravel()])

    def solve(station_margin: float):
        return linprog(
            np.zeros(2 * m * n),
            A_ub=a_ub,
            b_ub=np.concatenate([s.cloud_capacity, s.bs_capacity - station_margin]),
            A_eq=a_eq,
            b_eq=np.ones(2 * n),
            bounds=np.stack([np.zeros_like(upper), upper], axis=1),
            method="highs-ds",
        )

    result = solve(margin)
    if result.status == 2:
        if margin > 0.0 and solve(0.0).status == 0:
            raise NoInteriorPointError(
                f"slot {t} has no point clear of station capacity by the margin"
            )
        raise InfeasibleError(f"no fractional decision satisfies slot {t} constraints")
    if result.status != 0:
        raise RuntimeError(f"LP solver failed: {result.message}")
    point = np.clip(result.x, 0.0, 1.0).reshape(2, m, n)
    return point[0], point[1]


class _SlotTables:
    """The slot data of one solve, shared by all its search states and kicks.

    All of it depends only on the slot and the margin: the cost model, the
    storage and station limits, the coverage sets and which move scans the
    search runs (``scan_pairs``, ``rotations``), and ``gap``, the most an
    exchange or a rotation lowers a station's load. The clouds' latency
    order, each user's ``nearest`` latency, the exchange arrays and the pair
    enumeration are built on first use, so each is built at most once per
    solve.

    ``descents`` is the solve's record of ``_local_search``: it maps each
    decision (placement, selection) of a descent that ended at a local
    optimum to (that optimum, its value, the moves from the decision to
    it). A descent depends only on its start and these tables, so the
    record lives and dies with them.
    """

    def __init__(self, s: Scenario, t: int, margin: float) -> None:
        self.s, self.t, self.margin = s, t, margin
        m = self.m = s.num_clouds
        n = self.n = s.num_users
        self.costs = _IndexCosts(s, t)
        self.cloud_cap = s.cloud_capacity.tolist()
        self.limit = station_limit(s.bs_capacity, margin).tolist()
        self.cov = s.coverage[t]
        self.covsets = [frozenset(c) for c in self.cov]
        max_phi = max(len(c) for c in self.cov)
        self.scan_pairs = (
            n >= 2 and (n * (n - 1) // 2) * (m * max_phi) ** 2 <= _PAIR_SCAN_BUDGET
        )
        self.rotations = n >= 3 and n**3 <= _ROTATION_BUDGET
        # the most a station's load falls in an exchange or a rotation; the
        # pad is far more than the rounding of probe's sums of load changes
        demand = self.costs.demand
        self.gap = (max(demand) - min(demand)) + 1e-12 * max(demand)
        self.descents: dict[
            tuple[tuple[int, ...], tuple[int, ...]], tuple[SlotDecision, float, int]
        ] = {}

    @cached_property
    def cloud_order(self) -> list[list[int]]:
        """Per station, the clouds by (latency, index)."""
        return [
            sorted(range(self.m), key=column.__getitem__) for column in zip(*self.costs.lat)
        ]

    @cached_property
    def nearest(self) -> list[float]:
        """Per user, the least latency of any cloud to a covered station."""
        lat, order = self.costs.lat, self.cloud_order
        return [min(lat[order[j][0]][j] for j in stations) for stations in self.cov]

    @cached_property
    def exchange_arrays(self) -> tuple[np.ndarray, ...]:
        """The static per-user arrays of ``_SearchState.best_exchange``."""
        covered = np.zeros((self.n, self.m), dtype=bool)
        for k, stations in enumerate(self.cov):
            covered[k, list(stations)] = True
        sizes = np.array(self.costs.sizes)
        demand = np.array(self.costs.demand)
        return (
            covered,
            sizes[None, :] - sizes[:, None],    # [a, b] = s_b - s_a
            demand[None, :] - demand[:, None],  # [a, b] = c_b - c_a
            np.array(self.cloud_cap),
            np.array(self.costs.bs_cap),
            np.array(self.limit),
            np.triu(np.ones((self.n, self.n), dtype=bool), 1),
        )

    @cached_property
    def pairs(self) -> tuple[np.ndarray, ...]:
        """The static arrays of ``_SearchState.best_pair_move``.

        The full two-user rescan is every batch [(a, i1, j1), (b, i2, j2)]
        with a < b, i1 and i2 any cloud, j1 in cov[a] and j2 in cov[b], in
        that loop order. A batch has four positions, in the insertion order
        of ``probe``'s dicts: clouds (i0a, i1, i0b, i2) and stations (j0a,
        j1, j0b, j2), with i0 and j0 a user's cloud and station now. Each
        position changes three quantities of the state's vector used + load
        + users_on: its cloud's storage, its station's load and its
        station's user count. In that order the tuple holds:
        - the batches, as rows a, b, i1, j1, i2, j2, (6, P);
        - per position and quantity, where its entry's index sits in
          placement + (M + selection) + (2M + selection) + range(3M), (4, 3, P);
        - the signed changes per position: -s_a, s_a, -s_b, s_b for
          storage, the same in c for load, and -1, 1, -1, 1 for users,
          (4, 1, 3, P);
        - [q, p] is q < p, for "an earlier position", (4, 4, 1);
        - the latencies at the targets, lat[i1, j1] and lat[i2, j2], (2, P);
        - the limits of used + load + users_on, none on the counts, (3M,);
        - the station capacities C, (M,).
        """
        m, n, cov = self.m, self.n, self.cov
        batches = np.array([
            (a, b, i1, j1, i2, j2)
            for a in range(n)
            for b in range(a + 1, n)
            for i1 in range(m)
            for j1 in cov[a]
            for i2 in range(m)
            for j2 in cov[b]
        ], dtype=np.intp).T
        a, b, i1, j1, i2, j2 = batches
        fixed = 3 * n  # where range(3M) starts
        index = np.stack([
            (a, n + a, 2 * n + a),
            (fixed + i1, fixed + m + j1, fixed + 2 * m + j1),
            (b, n + b, 2 * n + b),
            (fixed + i2, fixed + m + j2, fixed + 2 * m + j2),
        ])
        sizes = np.array(self.costs.sizes)
        demand = np.array(self.costs.demand)
        one = np.ones(a.size)
        change = np.stack([
            (-sizes[a], -demand[a], -one),
            (sizes[a], demand[a], one),
            (-sizes[b], -demand[b], -one),
            (sizes[b], demand[b], one),
        ])[:, None]
        lat = np.array(self.costs.lat)
        return (
            batches,
            index,
            change,
            np.tri(4, k=-1, dtype=bool).T[:, :, None],
            np.stack((lat[i1, j1], lat[i2, j2])),
            np.array(self.cloud_cap + self.limit + [math.inf] * m),
            np.array(self.costs.bs_cap),
        )


class _SearchState:
    """Integral decision with the bookkeeping of the discrete search.

    Every state is feasible: each seed passes ``decision_feasible``, whose
    sums are the tallies' sums, or is built under the same limits (the
    greedy start), and ``apply`` keeps every limit met. It sums the tallies
    again in user order, which can round one bit above the sum a move was
    checked at, and refuses a move whose new tallies break a limit. So
    leaving a cloud or a station never breaks its limit, no queue term
    divides by a station's room at or below zero, and a one-user move
    (k, i, j) passes ``probe`` exactly when i is k's cloud or has room for
    s_k, and j is k's station or has room for c_k.

    Plain lists keep probes cheap. ``f`` is the non-switching delay of the
    current decision. ``apply`` sums storage, load and users again from the
    decision and recomputes ``f`` with ``_IndexCosts``, so no state carries
    rounding from the moves that led to it. A probe values a batch of
    per-user (cloud, station) reassignments, distinct users each, as ``f``
    plus the change in the terms of the stations and users it touches,
    without applying it; batches that break storage, coverage or the
    station limit are rejected without evaluation.
    The scans find the first best move of a kind with the same arithmetic:
    ``best_single_move`` by a walk in latency order, ``best_pair_move`` over
    the full two-user rescan and ``best_exchange`` over the plain exchanges
    in one array pass each. ``probe`` itself serves only rotations. The
    slot's static data is read from the solve's ``_SlotTables``.
    ``user_floors`` and ``floors`` bound the values of one user's moves, of
    all exchanges and of all rotations from below, with slack for rounding;
    the search skips a scan whose floor is at or above what it must beat.
    """

    __slots__ = (
        "tables", "m", "n", "cov", "placement", "selection", "used", "load", "users_on",
        "out", "f",
    )

    def __init__(
        self, tables: _SlotTables, placement: tuple[int, ...], selection: tuple[int, ...],
    ) -> None:
        self.tables = tables
        self.m = tables.m
        self.n = tables.n
        self.cov = tables.cov
        self.placement = list(placement)
        self.selection = list(selection)
        self._settle(*self._sums())

    def _sums(self) -> tuple[list[float], list[float], list[int]]:
        """Storage, load and users per cloud or station, summed user by user
        from the decision, so the state is a function of the decision alone."""
        costs = self.tables.costs
        used = [0.0] * self.m
        load = [0.0] * self.m
        users_on = [0] * self.m
        for i, j, size, c in zip(self.placement, self.selection, costs.sizes, costs.demand):
            used[i] += size
            load[j] += c
            users_on[j] += 1
        return used, load, users_on

    def _settle(self, used: list[float], load: list[float], users_on: list[int]) -> None:
        self.used, self.load, self.users_on = used, load, users_on
        # each station's queue term on / (C - L), 0.0 on an empty station
        costs = self.tables.costs
        self.out = [on / (c - v) if on else 0.0 for on, c, v in zip(users_on, costs.bs_cap, load)]
        self.f = self.value()

    def value(self) -> float:
        return self.tables.costs.non_switching(self.placement, self.selection)

    def probe(self, batch: list[tuple[int, int, int]]) -> float | None:
        tables, costs = self.tables, self.tables.costs
        sizes, demand, lat, bs_cap = costs.sizes, costs.demand, costs.lat, costs.bs_cap
        storage_delta: dict[int, float] = {}
        load_delta: dict[int, float] = {}
        on_delta: dict[int, int] = {}
        delta = 0.0
        for k, i, j in batch:
            if j not in tables.covsets[k]:
                return None
            i0, j0 = self.placement[k], self.selection[k]
            storage_delta[i0] = storage_delta.get(i0, 0.0) - sizes[k]
            storage_delta[i] = storage_delta.get(i, 0.0) + sizes[k]
            load_delta[j0] = load_delta.get(j0, 0.0) - demand[k]
            load_delta[j] = load_delta.get(j, 0.0) + demand[k]
            on_delta[j0] = on_delta.get(j0, 0) - 1
            on_delta[j] = on_delta.get(j, 0) + 1
            delta += lat[i][j] - lat[i0][j0]
        for r, d in storage_delta.items():
            if self.used[r] + d > tables.cloud_cap[r]:
                return None
        for r, d in load_delta.items():
            if self.load[r] + d > tables.limit[r]:
                return None
        for r, d in load_delta.items():
            on = self.users_on[r]
            if on:
                delta -= on / (bs_cap[r] - self.load[r])
            on += on_delta[r]
            if on:
                delta += on / (bs_cap[r] - (self.load[r] + d))
        return self.f + delta

    def user_floors(self) -> list[float]:
        """Per user k, a float-safe lower bound on the value of each of its
        one-user moves: f + ((nearest_k - lat0) - out0), less the slack.

        In ``best_single_move``'s terms a move's value is
        f + (((((0.0 + (lat[i][j] - lat0)) - out0) + leave) - out_j) + arrive).
        Here lat[i][j] >= nearest_k, leave >= 0, and arrive >= out_j exactly
        in floats: when j is not the user's station, arrive divides one more
        user by less room than out_j, and when it is, out_j is 0.0. So in
        reals the value is at least f + (nearest_k - lat0) - out0. The slack
        is that of ``floors``: leave only adds, and arrive exceeds out_j by
        at least arrive / (on_j + 1), far more than the rounding it brings.
        """
        low = self.f - 1e-9 * (1.0 + self.f)
        lat, out, nearest = self.tables.costs.lat, self.out, self.tables.nearest
        return [
            low + ((nearest[k] - lat[i][j]) - out[j])
            for k, (i, j) in enumerate(zip(self.placement, self.selection))
        ]

    def floors(self) -> tuple[float, float]:
        """Float-safe lower bounds on the value of every plain exchange and
        of every three-user rotation, as (exchange floor, rotation floor).

        Both permute the users' spots, so in reals their latency change is 0
        and every station keeps its user count. A station whose load change
        d is >= 0 keeps a queue term of at least q = on / (C - L). One whose
        load falls keeps at least on / (C - (L - gap)), since d >= -gap
        (``gap`` is padded for the rounding of probe's sums of d), and
        L + d, C less that, and on over that all round monotonically. Both
        hold exactly in floats. An exchange lowers one station's load, a
        rotation at most two, as the changes sum to 0 over at most three
        stations. So a value is at least f less the largest drop
        q - on / (C - (L - gap)), or less the two largest.

        The slack 1e-9 * (1 + f) covers the rest of the rounding, at margin
        0 too, where a station's room C - L can be one ulp. A value or a
        floor is a chain of at most a dozen float adds, whose rounding is at
        most about 1e-15 times the sum of the magnitudes of its terms. Those
        are latencies and queue terms of the decision now, each at most
        about f since f sums them; falling terms, at most their term now;
        and rising terms, at most 2f or rising by more than the rounding
        they bring. So rounding moves a value or a floor by about 1e-14 * f.
        """
        gap = self.tables.gap
        drops = [
            q - on / (c - (v - gap)) if on else 0.0
            for q, on, c, v in zip(self.out, self.users_on, self.tables.costs.bs_cap, self.load)
        ]
        second, first = sorted(drops + [0.0])[-2:]
        low = self.f - 1e-9 * (1.0 + self.f)
        return low - first, low - (first + second)

    def best_single_move(self) -> tuple[float, tuple[int, int, int]] | None:
        """First minimum of ``probe([(k, i, j)])`` over every one-user move
        but staying put, in (user, cloud, coverage-order station) order, as
        (value, move); None when no such move is feasible.

        Each value is the float ``probe`` computes:
        f + (((((0.0 + (lat[i][j] - lat0)) - out0) + leave) - out_j) + arrive),
        where out0 and out_j are the terms on / (C - L) of the user's station
        and of j, leave and arrive those of the two stations after the move.
        A term ``probe`` leaves out (j is the user's station, its station
        keeps no user, j is empty) enters as 0.0 here and changes no value:
        no partial sum is -0.0, and x + 0.0 and x - 0.0 are x for any other x.
        On the user's own station j0, arrive is out0: the load after the move
        is L + ((0.0 - c) + c), which is L. Every step is a float add or
        subtract, so for one user and station the value never falls as
        lat[i][j] grows: the first cloud with room in (lat[i][j], i) order
        holds the least. One walk per user and covered station values only
        that move, and the first user whose least value is strictly lowest
        holds the first minimum. Only that user's moves are then valued in
        probe order, to find which it is. The state is feasible
        (``_SearchState``), so only the targets' room is tested. A user whose
        floor (``user_floors``) is at or above the least value so far cannot
        hold the first minimum, and is not walked.
        """
        tables, costs = self.tables, self.tables.costs
        order, cloud_cap, limit = tables.cloud_order, tables.cloud_cap, tables.limit
        lat, bs_cap = costs.lat, costs.bs_cap
        f, out, used, load, users_on = self.f, self.out, self.used, self.load, self.users_on
        floors = self.user_floors()
        best = None  # (least value, user, the user's terms)
        for k in range(self.n):
            if best is not None and floors[k] >= best[0]:
                continue
            i0, j0 = self.placement[k], self.selection[k]
            size, c = costs.sizes[k], costs.demand[k]
            lat0, out0 = lat[i0][j0], out[j0]
            on0 = users_on[j0]
            leave = (on0 - 1) / (bs_cap[j0] - (load[j0] + (0.0 - c))) if on0 - 1 else 0.0
            # per covered station with room for the user: (j, leave, out_j, arrive)
            stations = []
            for j in self.cov[k]:
                if j == j0:
                    stations.append((j, 0.0, 0.0, out0))
                else:
                    arrive_load = load[j] + (0.0 + c)
                    if arrive_load <= limit[j]:
                        arrive = (users_on[j] + 1) / (bs_cap[j] - arrive_load)
                        stations.append((j, leave, out[j], arrive))
            least = None
            for j, leave_j, out_j, arrive in stations:
                for i in order[j]:
                    if i == i0:
                        if j == j0:
                            continue
                    elif used[i] + (0.0 + size) > cloud_cap[i]:
                        continue
                    value = f + (
                        ((((0.0 + (lat[i][j] - lat0)) - out0) + leave_j) - out_j) + arrive
                    )
                    if least is None or value < least:
                        least = value
                    break
            if least is not None and (best is None or least < best[0]):
                best = (least, k, i0, j0, lat0, out0, size, stations)
        if best is None:
            return None
        _, k, i0, j0, lat0, out0, size, stations = best
        first: tuple[float, tuple[int, int, int]] | None = None
        for i in range(self.m):
            if i != i0 and used[i] + (0.0 + size) > cloud_cap[i]:
                continue
            lat_i = lat[i]
            for j, leave_j, out_j, arrive in stations:
                if i == i0 and j == j0:
                    continue
                value = f + (
                    ((((0.0 + (lat_i[j] - lat0)) - out0) + leave_j) - out_j) + arrive
                )
                if first is None or value < first[0]:
                    first = (value, (k, i, j))
        return first

    def best_pair_move(self) -> tuple[float, list[tuple[int, int, int]]] | None:
        """First minimum of ``probe([(a, i1, j1), (b, i2, j2)])`` over the
        full two-user rescan of ``_SlotTables.pairs``, in its order, but the
        batch that moves nothing, as (value, batch); None when no such batch
        is feasible.

        Each value is the float ``probe`` computes. A quantity after the
        batch is its entry now plus the left sum, in position order, of the
        changes of the positions that share the entry; the other positions'
        changes enter as 0.0 and change no partial sum, since sizes and
        demands are positive and no partial sum is -0.0. The value is f plus
        the left sum of the latency change (0.0 + (lat[i1, j1] - lat[i0a,
        j0a])) + (lat[i2, j2] - lat[i0b, j0b]) and then, position by
        position, minus the queue term on / (C - L) of its station now and
        plus the one after the batch. Both enter only at a station's first
        position, and as 0.0 at its others, so each station counts once, in
        ``probe``'s order. Terms after the batch are divided out only over
        feasible batches.
        """
        batches, index, change, earlier, lat_to, limit, bs_cap = self.tables.pairs
        m = self.m
        # the entry of used + load + users_on at each position and quantity
        entry = np.array([
            *self.placement, *(m + j for j in self.selection),
            *(2 * m + j for j in self.selection), *range(3 * m),
        ])[index]
        # [q, p, quantity, batch]: positions q and p share the entry
        same = entry[:, None] == entry[None]
        shared = np.where(same, change, 0.0)
        after = np.array(self.used + self.load + self.users_on)[entry] + (
            shared[0] + shared[1] + shared[2] + shared[3]
        )
        moved = (entry[0::2] != entry[1::2]).reshape(6, -1).any(axis=0)
        w = np.flatnonzero(moved & (after <= limit[entry]).reshape(12, -1).all(axis=0))
        if not w.size:
            return None
        stations = entry[:, 1].take(w, axis=1) - m
        # only a station's first position counts its queue terms
        first = ~(same[:, :, 1] & earlier).any(axis=0).take(w, axis=1)
        after = after.take(w, axis=2)
        out = np.array(self.out)
        leave = np.where(first, out[stations], 0.0)
        arrive = np.where(first, after[:, 2] / (bs_cap[stations] - after[:, 1]), 0.0)
        lat = self.tables.costs.lat
        lat0 = np.array([lat[i][j] for i, j in zip(self.placement, self.selection)])
        latency = lat_to - lat0[batches[:2]]
        delta = ((0.0 + latency[0]) + latency[1]).take(w)
        for p in range(4):
            delta = (delta - leave[p]) + arrive[p]
        values = self.f + delta
        best = int(np.argmin(values))
        a, b, i1, j1, i2, j2 = batches[:, w[best]].tolist()
        return float(values[best]), [(a, i1, j1), (b, i2, j2)]

    def best_exchange(self) -> tuple[float, list[tuple[int, int, int]]] | None:
        """First minimum of ``probe([(a, i_b, j_b), (b, i_a, j_a)])`` over
        every exchange of two users a < b on different stations, in (a, b)
        order, as (value, batch); None when no such exchange is feasible.

        Each value is the float ``probe`` computes. An exchange's latency
        change (y - x) + (x - y) is exactly 0.0, so the value is
        f + ((((0.0 - q_ja) + q'_ja) - q_jb) + q'_jb), with
        q_j = on_j / (C_j - L_j) and the primed terms at loads
        L_ja + (c_b - c_a) and L_jb + (c_a - c_b). An exchange on one station
        values exactly f and can never improve. Storage moves by s_b - s_a
        on a's cloud, by 0.0 when a and b share it.
        """
        covered, size_gap, demand_gap, cloud_cap, bs_cap, limit, upper = (
            self.tables.exchange_arrays
        )
        pl = np.array(self.placement)
        sel = np.array(self.selection)
        used = np.array(self.used)[pl]
        cap = cloud_cap[pl]
        load = np.array(self.load)[sel]
        room = bs_cap[sel]
        lim = limit[sel]
        on = np.array(self.users_on)[sel]
        # [a, b]: b's station covers a, and a's station covers b
        reach = covered[:, sel]
        ok = upper & (sel[:, None] != sel[None, :]) & reach & reach.T
        size_gap = np.where(pl[:, None] == pl[None, :], 0.0, size_gap)
        ok &= used[:, None] + size_gap <= cap[:, None]
        ok &= used[None, :] + size_gap.T <= cap[None, :]
        load_a = load[:, None] + demand_gap
        load_b = load[None, :] + demand_gap.T
        ok &= (load_a <= lim[:, None]) & (load_b <= lim[None, :])
        a, b = np.nonzero(ok)
        if not a.size:
            return None
        q = on / (room - load)
        delta = (
            ((0.0 - q[a]) + on[a] / (room[a] - load_a[a, b])) - q[b]
        ) + on[b] / (room[b] - load_b[a, b])
        values = self.f + delta
        w = int(np.argmin(values))
        a, b = int(a[w]), int(b[w])
        return float(values[w]), [
            (a, self.placement[b], self.selection[b]),
            (b, self.placement[a], self.selection[a]),
        ]

    def apply(self, batch: list[tuple[int, int, int]]) -> bool:
        """Make the batch's moves and return True, unless a tally summed
        again breaks its limit: then keep the decision as it was and return
        False. Only the tallies of the clouds and stations the batch moves
        users to are tested: every other tally is the sum it was, or a sum
        of fewer of the same positive terms in the same order, which rounds
        no higher."""
        before = self.placement[:], self.selection[:]
        for k, i, j in batch:
            self.placement[k] = i
            self.selection[k] = j
        used, load, users_on = self._sums()
        cloud_cap, limit = self.tables.cloud_cap, self.tables.limit
        for _, i, j in batch:
            if used[i] > cloud_cap[i] or load[j] > limit[j]:
                self.placement, self.selection = before
                return False
        self._settle(used, load, users_on)
        return True

    def decision(self) -> SlotDecision:
        return SlotDecision(
            tuple(int(v) for v in self.placement),
            tuple(int(v) for v in self.selection),
        )


def _local_search(
    tables: _SlotTables, d: SlotDecision
) -> tuple[SlotDecision, float, int]:
    """Best-improvement descent over integral decisions; returns the local
    optimum, its value and the number of moves applied, at most
    ``_MAX_MOVES``.

    Moves: one user to any feasible (cloud, station); two users jointly to
    any pair (full rescans only while cheap, plain exchanges otherwise); and
    three users rotating their assignments. Rotations matter when tight
    storage makes good decisions permutations of each other. Each step takes
    the first best move in that order: one-user moves come from one
    ``best_single_move`` scan, two-user moves from one ``best_pair_move`` or
    ``best_exchange`` pass, and only rotations from ``probe``. The exchange
    pass and the rotation probes are skipped when their floor
    (``_SearchState.floors``) is at or above the bar a move must pass, so
    no move they could return would be taken; a NaN floor skips nothing.

    The steps from a decision depend only on it and the slot tables, so a
    start in ``tables.descents`` returns the recorded result, and a descent
    that reaches a recorded decision after ``moves`` moves ends with its
    optimum after ``moves + rest``, where continuing would end, while that
    stays within the cap. A descent also ends where ``apply`` refuses its
    best move. A descent that ends at a local optimum records every
    decision on its path; one stopped by the cap records none.
    """
    descents = tables.descents
    key = (d.placement, d.selection)
    if key in descents:
        return descents[key]
    state = _SearchState(tables, d.placement, d.selection)
    n = state.n
    path = [key]
    while len(path) <= _MAX_MOVES:
        best: tuple[float, list[tuple[int, int, int]]] | None = None
        bar = state.f - 1e-12  # a move is taken only strictly below the bar

        def consider(f2: float | None, batch: list[tuple[int, int, int]]) -> None:
            nonlocal best, bar
            if f2 is not None and f2 < bar:
                best, bar = (f2, batch), f2

        single = state.best_single_move()
        if single is not None:
            consider(single[0], [single[1]])
        exchange_floor, rotation_floor = state.floors()
        if tables.scan_pairs:
            pair = state.best_pair_move()
        elif exchange_floor >= bar:  # no exchange can be taken
            pair = None
        else:
            pair = state.best_exchange()
        if pair is not None:
            consider(*pair)
        if tables.rotations and not rotation_floor >= bar:
            for a in range(n):
                for b in range(a + 1, n):
                    for c in range(b + 1, n):
                        for p, q, r in ((b, c, a), (c, a, b)):
                            batch = [
                                (a, state.placement[p], state.selection[p]),
                                (b, state.placement[q], state.selection[q]),
                                (c, state.placement[r], state.selection[r]),
                            ]
                            consider(state.probe(batch), batch)
        if best is None or not state.apply(best[1]):
            optimum, value, moves = state.decision(), state.f, len(path) - 1
            break
        key = (tuple(state.placement), tuple(state.selection))
        known = descents.get(key)
        if known is not None and len(path) + known[2] <= _MAX_MOVES:
            optimum, value, rest = known
            moves = len(path) + rest
            break
        path.append(key)
    else:  # stopped by the cap, maybe short of a local optimum: record nothing
        return state.decision(), state.f, _MAX_MOVES
    for done, visited in enumerate(path):
        descents[visited] = (optimum, value, moves - done)
    return optimum, value, moves


def _kick(
    tables: _SlotTables, d: SlotDecision, rng: np.random.Generator
) -> SlotDecision:
    """Reassign two random users to random feasible spots, for restarts.

    A mover's options are the (cloud, station) pairs ``probe`` passes,
    listed by their room (see ``_SearchState``) in (cloud, coverage-order
    station) order; its own spot is one, so a mover always has an option.
    A mover whose move ``apply`` refuses stays put.
    """
    state = _SearchState(tables, d.placement, d.selection)
    sizes, demand = tables.costs.sizes, tables.costs.demand
    movers = rng.choice(state.n, size=min(2, state.n), replace=False)
    for k in movers:
        k = int(k)
        i0, j0 = state.placement[k], state.selection[k]
        options = [
            (i, j)
            for i in range(state.m)
            if i == i0 or state.used[i] + (0.0 + sizes[k]) <= tables.cloud_cap[i]
            for j in state.cov[k]
            if j == j0 or state.load[j] + (0.0 + demand[k]) <= tables.limit[j]
        ]
        i, j = options[int(rng.integers(len(options)))]
        state.apply([(k, i, j)])
    return state.decision()


def _integral_search(
    tables: _SlotTables, seeds: list[SlotDecision]
) -> tuple[SlotDecision, float, int, int] | None:
    """Local search from each distinct seed, then perturbation restarts.

    The best local optimum (the first on ties) takes a few seeded kicks,
    each followed by a local search. The winner is re-verified against the
    authoritative feasibility check; its value is the search's own
    ``_IndexCosts`` value. Returns (decision, value, distinct seeds, moves
    applied), or None when there is no seed or the result fails the check.
    """
    best: tuple[SlotDecision, float] | None = None
    seen: set[tuple[tuple[int, ...], tuple[int, ...]]] = set()
    moves = 0
    for d in seeds:
        key = (d.placement, d.selection)
        if key in seen:
            continue
        seen.add(key)
        improved, value, used = _local_search(tables, d)
        moves += used
        if best is None or value < best[1]:
            best = (improved, value)
    if best is None:
        return None

    rng = np.random.default_rng(_KICK_SEED)
    for _ in range(_KICK_ROUNDS):
        kicked = _kick(tables, best[0], rng)
        improved, value, used = _local_search(tables, kicked)
        moves += used
        if value < best[1] - 1e-12:
            best = (improved, value)

    winner, value = best
    if not decision_feasible(tables.s, tables.t, winner, tables.margin):
        _log.warning(
            "slot %d: dropped the search result; its bookkeeping called it "
            "feasible and the feasibility check does not", tables.t,
        )
        return None
    return winner, value, len(seen), moves


def _column_cdfs(columns: np.ndarray) -> list[list[float]]:
    """Per row of ``columns`` (one user's weights each), the CDF that
    ``Generator.choice(len(p), p=p)`` searches: p is the row clipped at zero
    over its total, uniform when nothing is left, and choice builds
    cumsum(p) / its last entry, then returns the first index whose entry
    exceeds one ``rng.random()`` draw. A row's total is the same float as
    the 1-D sum of that row.
    """
    p = np.clip(np.ascontiguousarray(columns), 0.0, None)
    total = p.sum(axis=1, keepdims=True)
    empty = total[:, 0] <= 0.0
    if empty.any():
        p[empty] = 1.0
        total[empty] = p.shape[1]
    cdf = np.cumsum(p / total, axis=1)
    cdf /= cdf[:, -1:]
    return cdf.tolist()


def round_decision(
    s: Scenario,
    t: int,
    frac: FractionalDecision,
    rng_seed: int,
    config: SolverConfig = DEFAULT_CONFIG,
) -> tuple[SlotDecision, int, int]:
    """Sample an integral decision from the fractional columns.

    Per user: hosting cloud from its x column, station from its y column
    restricted to coverage, each with probability proportional to its
    weight clipped at zero (uniform over a column with no weight left).
    Infeasible joint samples are redrawn up to ``_MAX_ATTEMPTS`` times; after
    that the last sample is repaired greedily. Returns (decision, attempts
    used, repair moves).

    Every column's CDF is built once per call. An attempt then takes 2n
    uniform draws in one call, the cloud then the station for each user in
    turn, and picks entries with ``bisect_right``: the same stream and the
    same picks as one ``rng.choice(len(p), p=p)`` per column.

    Raises ValueError unless ``t`` is an integer in ``range(s.num_slots)``,
    DimensionMismatchError unless both matrices are (clouds, users) and
    ValueError on a non-finite weight.
    """
    check_slot(s, t)
    x = _as_decision_matrix(s, "x", frac.x)
    y = _as_decision_matrix(s, "y", frac.y)
    if not (np.isfinite(x).all() and np.isfinite(y).all()):
        raise ValueError("fractional weights must be finite")
    rng = np.random.default_rng(rng_seed)
    cov = s.coverage[t]
    n = s.num_users
    x_cdf = _column_cdfs(x.T)
    y_cdf = [_column_cdfs(y[list(cov[k]), k][None, :])[0] for k in range(n)]
    for attempt in range(1, _MAX_ATTEMPTS + 1):
        u = rng.random(2 * n).tolist()
        decision = SlotDecision(
            tuple(bisect_right(x_cdf[k], u[2 * k]) for k in range(n)),
            tuple(cov[k][bisect_right(y_cdf[k], u[2 * k + 1])] for k in range(n)),
        )
        if decision_feasible(s, t, decision, config.margin):
            return decision, attempt, 0
    _log.debug(
        "slot %d: no feasible draw in %d attempts; repairing the last greedily",
        t, _MAX_ATTEMPTS,
    )
    repaired, moves = _greedy_repair(s, t, decision, config.margin)
    return repaired, _MAX_ATTEMPTS, moves


def _greedy_repair(
    s: Scenario, t: int, d: SlotDecision, margin: float
) -> tuple[SlotDecision, int]:
    """Move users off violated resources to the cheapest room.

    First each user whose station is outside its coverage moves to a
    covered station. Then one drain loop runs per side, storage first:
    while a cloud (station) is over its limit, the most overloaded one
    gives up its heaviest user that has room elsewhere. A moved placement
    goes to the cloud with the least latency to the user's station, a moved
    selection to the station with the least queue-plus-latency cost after
    the move. Every move targets a resource with room left, so total
    violation strictly decreases. Raises RoundingFailedError when a
    violation has no outlet.
    """
    m, n = s.num_clouds, s.num_users
    lat = s.link_latency[t]
    cov = s.coverage[t]
    demand = s.demand[t]
    limit = station_limit(s.bs_capacity, margin)
    placement = list(d.placement)
    selection = list(d.selection)
    moves = 0

    load = np.bincount(selection, weights=demand, minlength=m)
    for k in range(n):
        if selection[k] in cov[k]:
            continue
        room = _cheapest_room(s, t, k, placement[k], load, limit)
        if room is None:
            raise RoundingFailedError(
                f"user {k} has no covered station with room at slot {t}"
            )
        j = room[1]
        load[selection[k]] -= demand[k]
        load[j] += demand[k]
        selection[k] = j
        moves += 1

    def cloud_room(k: int, storage: np.ndarray, full: int) -> int | None:
        options = [
            (lat[i, selection[k]], i)
            for i in range(m)
            if i != full and storage[i] + s.service_size[k] <= s.cloud_capacity[i]
        ]
        return min(options)[1] if options else None

    def station_room(k: int, load: np.ndarray, full: int) -> int | None:
        room = _cheapest_room(s, t, k, placement[k], load, limit, skip=full)
        return None if room is None else room[1]

    for owner, weights, cap, room, what in (
        (placement, s.service_size, s.cloud_capacity, cloud_room, "storage overload on cloud"),
        (selection, demand, limit, station_room, "capacity overload on station"),
    ):
        for _ in range(2 * m * n + 1):
            used = np.bincount(owner, weights=weights, minlength=m)
            if np.all(used <= cap):
                break
            full = int(np.argmax(used - cap))
            movers = sorted(
                (k for k in range(n) if owner[k] == full), key=lambda k: (-weights[k], k)
            )
            for k in movers:
                to = room(k, used, full)
                if to is not None:
                    owner[k] = to
                    moves += 1
                    break
            else:
                raise RoundingFailedError(f"{what} {full} at slot {t} cannot be repaired")

    repaired = SlotDecision(tuple(placement), tuple(selection))
    if not decision_feasible(s, t, repaired, margin):
        raise RoundingFailedError(f"greedy repair did not reach feasibility at slot {t}")
    return repaired, moves


def solve_slot(
    s: Scenario,
    t: int,
    warm_start: SlotDecision | None = None,
    rng_seed: int = 0,
    config: SolverConfig = DEFAULT_CONFIG,
) -> tuple[SlotDecision, FractionalDecision, SolverReport]:
    """The discrete search's best integral decision for one slot.

    Search seeds: the ``_CANDIDATE_SEEDS`` roundings of the repaired
    uniform point (of the zero-cost LP point when the uniform point cannot
    be repaired), the greedy indicator, and the warm start after greedy
    repair. A seed whose rounding or repair fails is dropped. The returned
    fractional decision is the decision's indicator matrices.
    ``report.objective`` is the decision's non-switching delay as
    ``_IndexCosts``, the one valuation of integral decisions, gives it: the
    value the search minimized. The solve is deterministic and reads only
    ``s``, ``t``, ``warm_start`` and ``config``. ``rng_seed`` is unused: it
    stays only because the benchmark's workloads (``perfbench/workloads.py``)
    still pass it.

    Raises ValueError unless ``t`` is an integer in ``range(s.num_slots)``,
    what ``check_decision`` raises for a malformed warm start,
    InfeasibleError (NoInteriorPointError when only loads at capacity fit)
    when the relaxed slot is empty, and RoundingFailedError when no seed
    yields a feasible decision.
    """
    check_slot(s, t)
    if warm_start is not None:
        check_decision(s, warm_start)
    point = _uniform_point(s, t, config.margin)
    if point is None:
        _log.debug("slot %d: uniform point cannot be repaired; solving the LP", t)
        point = _feasible_point_via_lp(s, t, config.margin)
    relaxed = FractionalDecision(x=point[0], y=point[1])
    seeds: list[SlotDecision] = []
    attempts = repairs = 0
    for seed in _CANDIDATE_SEEDS:
        try:
            d, used, moves = round_decision(s, t, relaxed, seed, config)
        except RoundingFailedError:
            attempts += _MAX_ATTEMPTS
            continue
        seeds.append(d)
        attempts += used
        repairs += moves
    # needed by test_solve_slot_finds_feasible_decisions_on_tight_instances[5]
    greedy = _greedy_indicator(s, t, config.margin)
    if greedy is not None:
        seeds.append(greedy)
    if warm_start is not None:
        try:
            d, moves = _greedy_repair(s, t, warm_start, config.margin)
        except RoundingFailedError as exc:
            _log.debug("slot %d: dropped the warm start: %s", t, exc)
        else:
            seeds.append(d)
            repairs += moves

    found = _integral_search(_SlotTables(s, t, config.margin), seeds)
    if found is None:
        raise RoundingFailedError(f"no feasible integral decision found at slot {t}")
    decision, value, starts, moves = found
    m = s.num_clouds
    frac = FractionalDecision(x=decision.placement_matrix(m), y=decision.selection_matrix(m))
    report = SolverReport(
        iterations=moves,
        objective=value,
        rounding_attempts=attempts,
        repair_actions=repairs,
        starts=starts,
    )
    return decision, frac, report
