"""Per-slot solver.

Picks the integral service placement and station selection that minimize
the slot's non-switching delay, under storage, coverage and the
capacity margin. A slot of at most ``_EXACT_BOUND`` raw decisions is
enumerated by the oracle, which was no slower than the search there: its
pruned walk lists only the placements and selections that fit, and the
arguments ``solve_slot`` checked are not checked again. ``_enumerated``
is that test. ``solve_slot`` keeps each solve in its exact-slot cache
(``oracle._ExactSlots``), keyed by the slot and the warm start, or by the
slot alone where it enumerates, as the enumeration reads no warm start; a
key already kept returns the kept result, whose arrays are read-only. When
the enumeration finds the slot empty, its error stands, and is kept: a later
call raises a new error of its type and message. A discrete local search does
the rest of the work. It starts from fixed-seed randomized roundings of
the uniform fractional point (repaired under storage and capacity), from
a greedy per-user assignment, and from the warm start pushed back into
coverage and capacity by greedy repair. The best local optimum then takes a few seeded
perturbation restarts. A slot where no search seed survives is enumerated
after all, through the same exact-slot cache, when it is within
``oracle.ENUMERATION_BUDGET``.
The rounding's column CDFs are built once per solve and drawn from for
every seed. A draw's fit depends only on the picks of the columns whose
pick varies with the uniform, its key, and each key is checked once per
build by ``model._fits``, the fit test ``decision_feasible`` ends with.
The first draw that fits becomes the seed's ``SlotDecision``. Greedy
repair tallies the side it drains with ``model._tally``; the search
states sum each cloud and station over its user list in user order, the
same floats.

The search values each probed move as the current objective plus the
change in the terms of the stations and users the move touches. Each step
walks the one-user moves in latency order: a move's value never falls as
its link latency grows, so per user and covered station the nearest cloud
with room is the first move of least value, and the walk keeps the first
move of least value in (user, coverage-order station, latency-order cloud)
order. A state keeps each cloud's and each station's users in user
order; applying a move sums again only the clouds and stations it touches,
prices only those stations and folds ``f`` from the kept queue prices and
latencies in user order, so a state is always a fresh state of its
decision. Two-user moves are valued once per step: on small slots the full
rescan of any two users to any two spots in one NumPy pass, otherwise every
plain exchange by a walk over each user's covering partners, read from the
station lists. Single probes value only
three-user rotations. Every search state is feasible, so the one-user scan
and the kicks test only a move's targets. Float-safe lower bounds ("floors") skip the scans that
cannot win: a user whose one-user moves all value at or above the least
value found so far is not walked, and the exchange walk and the rotation
probes run only when some move of theirs could pass the step's bar. A
floor is a real lower bound on the value, less a slack of 1e-9 * (1 + f)
that covers the rounding, so a skip never drops a move that would have
been taken. The slot's static data is built once per solve and shared by
all its searches and kicks, together with a record of the solve's
descents: a descent depends only on its decision and the slot, so a search
that starts at or reaches a decision an earlier search of the solve
descended from stops there with that descent's local optimum. A kick
hands the state it moved to its descent, which starts from it. Greedy
repair and the greedy start price a user's stations with one helper. When
the uniform point cannot be repaired, one zero-cost LP supplies the point
to round; on a searched slot it also tells an empty slot from one with no
point clear of the margin. It is handed to HiGHS's dual simplex through
SciPy's HiGHS binding, with the model and options ``linprog`` would pass,
so HiGHS returns ``linprog``'s vertex without ``linprog``'s wrapping. That
LP is the only use of SciPy, imported when it runs.
"""

from __future__ import annotations

import logging
import math
import operator
from bisect import bisect_right, insort
from collections.abc import Iterable
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import oracle
from .delays import _as_decision_matrix, _as_weights, _IndexCosts, station_loads
from .errors import (
    InfeasibleError,
    NoInteriorPointError,
    OracleTooLargeError,
    OverloadedPointError,
    RoundingFailedError,
)
from .model import (
    DEFAULT_MARGIN,
    FractionalDecision,
    Scenario,
    SlotDecision,
    _fits,
    _nonnegative_integer,
    _tally,
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

# Slots of at most this many raw decisions (M^N placements times the product
# of the users' coverage sizes) are enumerated, not searched: below 10^4 the
# mean time of enumeration was at most the search's in every quarter decade
# of bounds measured, and above it in every one from 10^4 on (README). It is
# at most ENUMERATION_BUDGET, so the enumeration never refuses the work.
# Each knob's comment ends with the test in tests/test_optimizer.py that
# fails without it, as *_<end of its name>[<parametrize id>], the * standing
# for its start; test_every_pinned_knob_names_a_test_that_exists checks it.
_EXACT_BOUND = 10_000  # *_within_the_exact_bound

# Effort bounds of the discrete search, pinned as _EXACT_BOUND is. All of
# it is deterministic: the seed roundings and the kick stream use fixed
# seeds, never caller seeds.
_PAIR_SCAN_BUDGET = 8000    # two-user rescans of <= 8000 batches; *_tight_instances[13]
_MAX_ATTEMPTS = 50          # rounding draws before repair; *_tight_instances[13]
_ROTATION_BUDGET = 4000     # three-user rotations while n**3 fits; *_tight_instances[70]
_KICK_ROUNDS = 6            # perturbation restarts; *_kicks_escape_local_optima
_MAX_MOVES = 500            # cap on one descent's moves, a safety bound, not a tuned knob
_KICK_SEED = 271828182
_CANDIDATE_SEEDS = (0, 1, 2)  # roundings; *_three_roundings_over_the_exact_bound


@dataclass(frozen=True)
class SolverReport:
    """What the per-slot solve did and where it ended."""

    iterations: int             # improving search moves applied, all starts
    objective: float            # non-switching delay of the returned decision
    rounding_attempts: int = 0  # draws spent by the seed roundings
    repair_actions: int = 0     # greedy-repair moves on seeds and warm start
    starts: int = 1             # distinct seeds the search started from, 0 if enumerated


def objective_gradient(
    s: Scenario, t: int, x: np.ndarray, y: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Analytic gradient of the non-switching delay.

    grad_x[i,k] = sum_j y[j,k] * lat[i,j]
    grad_y[j,k] = 1/(C_j - L_j) + c_k * Y_j / (C_j - L_j)^2 + sum_i x[i,k] * lat[i,j]
    with L_j the demand-weighted load and Y_j the total selection weight on j.
    Raises ValueError unless ``t`` is an integer in ``range(s.num_slots)``,
    DimensionMismatchError unless x and y are (clouds, users) and
    ValueError on an x weight, or (through ``station_loads``) a y weight,
    not finite and >= 0.
    """
    check_slot(s, t)
    x = _as_weights(s, "x", x)
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
        # The guard never runs out: a column picks a row at most twice, so the
        # loop ends with deficit <= 1e-12 or returns. A pick places the whole
        # deficit (leaving 0.0), or fills the row with (slack / w) * w, within
        # a few ulps of the cap (4.5e-16 more when slack / w is subnormal).
        # The slack left is then at most 0.0, or exact (Sterbenz) and at most
        # 1e-12, or so small that a second fill lands exactly on the cap.
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


def _feasible_point_via_lp(
    s: Scenario, t: int, margin: float
) -> tuple[np.ndarray, np.ndarray]:
    """Some point of the relaxed slot, from a zero-cost LP.

    Variables: x then y, each (M, N) flattened cloud-major. Rows: storage
    and capacity-minus-margin as inequalities, one column sum per user for
    x and for y; selections outside coverage are pinned to zero by their
    bounds. When the LP is empty, the same LP with no margin tells
    NoInteriorPointError (only loads at capacity fit) from InfeasibleError.

    The LP goes to HiGHS's dual simplex through SciPy's HiGHS binding
    (``scipy.optimize._highspy._core``), as ``linprog(method="highs-ds")``
    would pass it, without ``linprog``'s wrapping: the same rows, bounds
    and options, so the same vertex. Rows are storage (M), capacity (M),
    then the x and y column sums (N each); each column holds two entries,
    its storage or capacity row and its user's sum row, the matrix
    ``linprog`` forms from the stacked inequality and equality blocks.
    HiGHS's status is read as ``linprog`` reads it: optimal gives the
    point, infeasible or a model error means an empty LP, and anything else
    raises RuntimeError naming the status. So does a point off its bounds
    or rows by more than ``linprog``'s check allows (sqrt(1e-9) * 10).
    """
    from scipy.optimize._highspy import _core as highs

    m, n = s.num_clouds, s.num_users
    cols = 2 * m * n
    upper = np.zeros((2, m, n))
    upper[0] = 1.0
    for k, stations in enumerate(s.coverage[t]):
        upper[1, list(stations), k] = 1.0
    upper = upper.ravel()
    # column r * n + k of x, and M * N plus that of y, is cloud r and user k
    users = np.tile(np.arange(n, dtype=np.int32), m)
    index = np.stack([
        np.repeat(np.arange(2 * m, dtype=np.int32), n),
        2 * m + np.concatenate([users, n + users]),
    ], axis=1).ravel()
    value = np.stack([
        np.concatenate([np.tile(s.service_size, m), np.tile(s.demand[t], m)]),
        np.ones(cols),
    ], axis=1).ravel()
    row_lower = np.concatenate([np.full(2 * m, -highs.kHighsInf), np.ones(2 * n)])
    options = highs.HighsOptions()
    options.presolve = "on"
    options.solver = "simplex"
    options.simplex_strategy = highs.simplex_constants.SimplexStrategy.kSimplexStrategyDual
    options.output_flag = False
    options.log_to_console = False
    options.highs_debug_level = highs.HighsDebugLevel.kHighsDebugLevelNone
    tol = math.sqrt(1e-9) * 10
    model_status = highs.HighsModelStatus

    def solve(station_margin: float) -> np.ndarray | None:
        """The vertex HiGHS finds, or None when the LP is empty."""
        row_upper = np.concatenate(
            [s.cloud_capacity, s.bs_capacity - station_margin, np.ones(2 * n)]
        )
        lp = highs._Highs()
        if lp.passOptions(options) == highs.HighsStatus.kError:
            status = lp.getModelStatus()
        # the binding reads each array through a pointer: their lengths are
        # the column, row and entry counts passed with them
        elif lp.passModel(
            cols, 2 * (m + n), 2 * cols, highs.MatrixFormat.kColwise,
            highs.ObjSense.kMinimize, 0.0, np.zeros(cols), np.zeros(cols), upper,
            row_lower, row_upper, np.arange(0, 2 * cols + 1, 2, dtype=np.int32),
            index, value, np.zeros(cols, dtype=np.int32),  # every column continuous
        ) == highs.HighsStatus.kError:
            status = model_status.kModelError
        else:
            lp.run()
            status = lp.getModelStatus()
        if status in (model_status.kInfeasible, model_status.kModelError):
            return None
        if status != model_status.kOptimal:
            raise RuntimeError(
                f"LP solver failed: HiGHS model status {lp.modelStatusToString(status)}"
            )
        solution = lp.getSolution()
        point = np.array(solution.col_value)
        rows = np.array(solution.row_value)
        slack = row_upper - rows
        if not (
            np.isfinite(point).all() and np.isfinite(rows).all()
            and (point >= -tol).all() and (point <= upper + tol).all()
            and (slack[: 2 * m] >= -tol).all()
            and (np.abs(slack[2 * m:]) <= tol).all()
        ):
            raise RuntimeError(
                f"LP solver failed: HiGHS's point misses its bounds or rows by more than {tol:.2E}"
            )
        return point

    point = solve(margin)
    if point is None:
        if margin > 0.0 and solve(0.0) is not None:
            raise NoInteriorPointError(
                f"slot {t} has no point clear of station capacity by the margin"
            )
        raise InfeasibleError(f"no fractional decision satisfies slot {t} constraints")
    point = np.clip(point, 0.0, 1.0).reshape(2, m, n)
    return point[0], point[1]


class _SlotTables:
    """The slot data of one solve, shared by all its search states and kicks.

    All of it depends only on the slot and the margin: the cost model, the
    storage and station limits, the coverage sets and which move scans the
    search runs (``scan_pairs``, ``rotations``), and ``gap``, the most an
    exchange or a rotation lowers a station's load. The clouds' latency
    order, each user's ``nearest`` latency and the pair enumeration are
    built on first use, so each is built at most once per solve.

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


def _station_prices(
    tables: _SlotTables, k: int, load: list[float], skip: int = -1
) -> list[tuple[int, float]]:
    """User k's covered stations but ``skip`` that have room for its demand
    on top of ``load``, in coverage order, each with its queue price
    1 / (C_j - new load)."""
    c, bs_cap, limit = tables.costs.demand[k], tables.costs.bs_cap, tables.limit
    return [
        (j, 1.0 / (bs_cap[j] - (load[j] + c)))
        for j in tables.cov[k]
        if j != skip and load[j] + c <= limit[j]
    ]


def _greedy_indicator(tables: _SlotTables) -> SlotDecision | None:
    """Sequential per-user joint argmin of queue-plus-latency cost: each user
    in turn takes the first (cloud, coverage-order station) of least
    1 / (C_j - new load) + lat[i][j] among those with room for it. Each
    station's queue term is priced once per user (``_station_prices``)."""
    costs = tables.costs
    lat, cloud_cap = costs.lat, tables.cloud_cap
    storage = [0.0] * tables.m
    load = [0.0] * tables.m
    placement, selection = [], []
    for k, (size, c) in enumerate(zip(costs.sizes, costs.demand)):
        queues = _station_prices(tables, k, load)
        best = None
        for i in range(tables.m):
            if storage[i] + size > cloud_cap[i]:
                continue
            lat_i = lat[i]
            for j, queue in queues:
                cost = queue + lat_i[j]
                if best is None or cost < best[0]:
                    best = (cost, i, j)
        if best is None:
            return None
        _, i, j = best
        placement.append(i)
        selection.append(j)
        storage[i] += size
        load[j] += c
    return SlotDecision(tuple(placement), tuple(selection))


class _SearchState:
    """Integral decision with the bookkeeping of the discrete search.

    Every state is feasible: each seed passes ``model._fits``, on its own
    in the rounding or last in ``decision_feasible``, or is built under the
    same limits (the greedy start), and ``apply`` keeps every
    limit met. It sums the touched tallies again in user order, which can
    round one bit above the sum a move was checked at, and refuses a move
    whose new tallies break a limit. So
    leaving a cloud or a station never breaks its limit, no queue term
    divides by a station's room at or below zero, and a one-user move
    (k, i, j) passes ``probe`` exactly when i is k's cloud or has room for
    s_k, and j is k's station or has room for c_k.

    Plain lists keep probes cheap. ``f`` is the non-switching delay of the
    current decision. The state keeps each cloud's and each station's users
    in ascending user order (``cloud_users``, ``station_users``), each
    user's link latency ``user_lat``, and per station its queue price
    ``recip`` = 1.0 / (C - L), its ``out`` term on / (C - L) and its floor
    drop ``drops`` (see ``floors``), each 0.0 on an empty station. Each
    tally is its list's left sum in user order from 0.0, the float
    ``model._tally`` gives, so ``apply`` sums again only the clouds and
    stations a batch touches and prices only those stations again
    (``_settle``); ``f`` is folded from the kept prices and latencies, the
    float ``_IndexCosts.non_switching`` gives. A station no batch touched
    keeps its list, tallies and terms, so
    every kept field and ``f`` is a fresh state's, and no state
    carries rounding from the moves that led to it. A probe values a batch
    of per-user (cloud, station) reassignments, distinct users each, as
    ``f`` plus the change in the terms of the stations and users it
    touches, without applying it; batches that break storage, coverage or
    the station limit are rejected without evaluation. The scans find the
    first best move of a kind, each in its own order, with the same
    arithmetic: ``best_single_move`` by a walk in latency order,
    ``best_pair_move`` over the full two-user rescan in one array pass, and
    ``best_exchange`` by a walk over each user's covering partners, read
    from the station lists. ``probe`` itself
    serves only rotations. The slot's static data is read from the solve's
    ``_SlotTables``.
    ``user_floors`` and ``floors`` bound the values of one user's moves, of
    all exchanges and of all rotations from below, with slack for rounding;
    the search skips a scan whose floor is at or above what it must beat.
    ``best_single_move`` forms each user's floor inline, the same float,
    and ``floors`` reads the kept drops.
    """

    __slots__ = (
        "tables", "m", "n", "cov", "placement", "selection", "cloud_users", "station_users",
        "user_lat", "used", "load", "users_on", "recip", "out", "drops", "f",
    )

    def __init__(
        self, tables: _SlotTables, placement: tuple[int, ...], selection: tuple[int, ...],
    ) -> None:
        self.tables = tables
        m = self.m = tables.m
        self.n = tables.n
        self.cov = tables.cov
        self.placement = list(placement)
        self.selection = list(selection)
        lat = tables.costs.lat
        self.user_lat = [lat[i][j] for i, j in zip(placement, selection)]
        self.cloud_users: list[list[int]] = [[] for _ in range(m)]
        self.station_users: list[list[int]] = [[] for _ in range(m)]
        for k, (i, j) in enumerate(zip(placement, selection)):
            self.cloud_users[i].append(k)
            self.station_users[j].append(k)
        self.used = [0.0] * m
        self.load = [0.0] * m
        self.users_on = [0] * m
        self.recip = [0.0] * m
        self.out = [0.0] * m
        self.drops = [0.0] * m
        self._resum(range(m), range(m))
        self._settle(range(m))

    def _resum(self, clouds: Iterable[int], stations: Iterable[int]) -> None:
        """Sum the given clouds' storage and stations' loads and users again
        from their lists, each a left sum in user order from 0.0."""
        sizes, demand = self.tables.costs.sizes, self.tables.costs.demand
        for i in clouds:
            total = 0.0
            for k in self.cloud_users[i]:
                total += sizes[k]
            self.used[i] = total
        for j in stations:
            users = self.station_users[j]
            total = 0.0
            for k in users:
                total += demand[k]
            self.load[j] = total
            self.users_on[j] = len(users)

    def _settle(self, stations: Iterable[int]) -> None:
        """Price the given stations from their tallies and value the
        decision. A station's ``recip`` is 1.0 / (C - L) and its ``out`` the
        queue term on / (C - L), both 0.0 when empty, and its ``drops`` the
        most an exchange or a rotation lowers that term,
        out - on / (C - (L - gap)), 0.0 when empty (see ``floors``). ``f`` is
        the left sum in user order from 0.0 of each user's station's
        ``recip``, plus that of each user's ``user_lat``: the loads are
        left sums in user order, as ``_IndexCosts.queuing`` sums them, so
        ``f`` is the float ``_IndexCosts.non_switching`` gives."""
        bs_cap, gap = self.tables.costs.bs_cap, self.tables.gap
        load, users_on = self.load, self.users_on
        recip, out, drops = self.recip, self.out, self.drops
        for j in stations:
            c, v = bs_cap[j], load[j]
            on = users_on[j]
            if on:
                room = c - v
                recip[j] = 1.0 / room
                q = out[j] = on / room
                drops[j] = q - on / (c - (v - gap))
            else:
                recip[j] = out[j] = drops[j] = 0.0
        queuing = communication = 0.0
        for j, latency in zip(self.selection, self.user_lat):
            queuing += recip[j]
            communication += latency
        self.f = queuing + communication

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
        q - on / (C - (L - gap)), or less the two largest. Each station's
        drop is kept in ``drops`` by ``_settle``, 0.0 on an empty station,
        so this only sorts them.

        The slack 1e-9 * (1 + f) covers the rest of the rounding, at margin
        0 too, where a station's room C - L can be one ulp. A value or a
        floor is a chain of at most a dozen float adds, whose rounding is at
        most about 1e-15 times the sum of the magnitudes of its terms. Those
        are latencies and queue terms of the decision now, each at most
        about f since f sums them; falling terms, at most their term now;
        and rising terms, at most 2f or rising by more than the rounding
        they bring. So rounding moves a value or a floor by about 1e-14 * f.
        """
        second, first = sorted(self.drops + [0.0])[-2:]
        low = self.f - 1e-9 * (1.0 + self.f)
        return low - first, low - (first + second)

    def best_single_move(self) -> tuple[float, tuple[int, int, int]] | None:
        """First minimum of ``probe([(k, i, j)])`` over every one-user move
        but staying put, in (user, coverage-order station, cloud in
        ``cloud_order``) order, as (value, move); None when no such move is
        feasible.

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
        lat[i][j] grows: the station's first cloud with room in (lat[i][j],
        i) order is its first move of least value. One walk per user and
        covered station values only that move, with the station's terms
        formed inline, and keeps it when its value is strictly the lowest so
        far. The state is feasible (``_SearchState``), so only the targets'
        room is tested. A user whose floor, the float ``user_floors`` gives,
        formed inline, is at or above the least value so far cannot hold the
        first minimum, and is not walked.
        """
        tables, costs = self.tables, self.tables.costs
        order, cloud_cap, limit = tables.cloud_order, tables.cloud_cap, tables.limit
        lat, bs_cap, nearest = costs.lat, costs.bs_cap, tables.nearest
        f, out, used, load, users_on = self.f, self.out, self.used, self.load, self.users_on
        placement, selection, sizes, demand = (
            self.placement, self.selection, costs.sizes, costs.demand
        )
        low = f - 1e-9 * (1.0 + f)  # as in user_floors
        best = None  # (least value, move)
        for k, stations in enumerate(self.cov):
            i0, j0 = placement[k], selection[k]
            lat0, out0 = lat[i0][j0], out[j0]
            if best is not None and low + ((nearest[k] - lat0) - out0) >= best[0]:
                continue
            size, c = sizes[k], demand[k]
            on0 = users_on[j0]
            leave = (on0 - 1) / (bs_cap[j0] - (load[j0] + (0.0 - c))) if on0 - 1 else 0.0
            for j in stations:
                if j == j0:
                    leave_j = out_j = 0.0
                    arrive = out0
                else:
                    arrive_load = load[j] + (0.0 + c)
                    if arrive_load > limit[j]:
                        continue
                    leave_j, out_j = leave, out[j]
                    arrive = (users_on[j] + 1) / (bs_cap[j] - arrive_load)
                for i in order[j]:
                    if i == i0:
                        if j == j0:
                            continue
                    elif used[i] + (0.0 + size) > cloud_cap[i]:
                        continue
                    value = f + (
                        ((((0.0 + (lat[i][j] - lat0)) - out0) + leave_j) - out_j) + arrive
                    )
                    if best is None or value < best[0]:
                        best = (value, (k, i, j))
                    break
        return best

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
        values exactly f and can never improve, and one where a station
        does not cover the other user is infeasible. So for each user a the
        walk takes, from the lists of a's other covered stations, the users
        b > a whose coverage holds a's station, and tests storage and load
        and prices the terms only on those. Storage moves by s_b - s_a on
        a's cloud and by its exact negation s_a - s_b on b's, and not at all
        when a and b share a cloud, where the feasible state's storage
        holds; load moves by c_b - c_a on a's station and by c_a - c_b on
        b's. The q terms are the stations' ``out``. A walked pair is kept
        when its value is strictly the lowest so far, or equal to it with
        the kept pair's a and a lower b, so the kept pair is the first
        minimum in (a, b) order.
        """
        tables, costs = self.tables, self.tables.costs
        sizes, demand, bs_cap = costs.sizes, costs.demand, costs.bs_cap
        cloud_cap, limit, covsets = tables.cloud_cap, tables.limit, tables.covsets
        placement, selection, station_users = self.placement, self.selection, self.station_users
        f, used, load, users_on, out = self.f, self.used, self.load, self.users_on, self.out
        best = None  # (least value, a, b)
        for a, stations in enumerate(self.cov):
            ia, ja = placement[a], selection[a]
            for jb in stations:
                if jb == ja:
                    continue
                for b in station_users[jb]:
                    if b <= a or ja not in covsets[b]:
                        continue
                    ib = placement[b]
                    if ia != ib:
                        moved = sizes[b] - sizes[a]
                        if used[ia] + moved > cloud_cap[ia] or used[ib] - moved > cloud_cap[ib]:
                            continue
                    shift = demand[b] - demand[a]
                    load_a = load[ja] + shift
                    load_b = load[jb] - shift
                    if load_a > limit[ja] or load_b > limit[jb]:
                        continue
                    value = f + (
                        (((0.0 - out[ja]) + users_on[ja] / (bs_cap[ja] - load_a)) - out[jb])
                        + users_on[jb] / (bs_cap[jb] - load_b)
                    )
                    if best is None or value < best[0] or (
                        value == best[0] and a == best[1] and b < best[2]
                    ):
                        best = (value, a, b)
        if best is None:
            return None
        value, a, b = best
        return value, [(a, placement[b], selection[b]), (b, placement[a], selection[a])]

    def _move(self, batch: list[tuple[int, int, int]]) -> None:
        """Move each user of the batch to its (cloud, station) in the
        decision, the user lists and ``user_lat``; no tally changes."""
        lat = self.tables.costs.lat
        placement, selection, user_lat = self.placement, self.selection, self.user_lat
        cloud_users, station_users = self.cloud_users, self.station_users
        for k, i, j in batch:
            cloud_users[placement[k]].remove(k)
            station_users[selection[k]].remove(k)
            insort(cloud_users[i], k)
            insort(station_users[j], k)
            placement[k], selection[k] = i, j
            user_lat[k] = lat[i][j]

    def apply(self, batch: list[tuple[int, int, int]]) -> bool:
        """Make the batch's moves and return True, unless a tally summed
        again breaks its limit: then put the moved users back and return
        False.

        The clouds and stations the batch moves users from or to are summed
        again from their lists (``_resum``), user by user in user order from
        0.0, so every tally is a fresh state's. Only the tallies of the
        clouds and stations the batch moves users to are tested: every
        other tally is the sum it was, or a sum of fewer of the same
        positive terms in the same order, which rounds no higher. A refused
        batch's users go back to their lists and the touched tallies are
        summed again, to the floats they had. ``_settle`` then prices the
        stations the batch touched again and folds ``f``."""
        old = [(k, self.placement[k], self.selection[k]) for k, _, _ in batch]
        clouds = {i for _, i, _ in old + batch}
        stations = {j for _, _, j in old + batch}
        self._move(batch)
        self._resum(clouds, stations)
        cloud_cap, limit, used, load = self.tables.cloud_cap, self.tables.limit, self.used, self.load
        for _, i, j in batch:
            if used[i] > cloud_cap[i] or load[j] > limit[j]:
                self._move(old)
                self._resum(clouds, stations)
                return False
        self._settle(stations)
        return True

    def decision(self) -> SlotDecision:
        return SlotDecision(tuple(self.placement), tuple(self.selection))


def _local_search(state: _SearchState) -> tuple[SlotDecision, float, int]:
    """Best-improvement descent over integral decisions from the state's
    decision; returns the local optimum, its value and the number of moves
    applied, at most ``_MAX_MOVES``. The descent moves the state itself, so
    a caller hands over a state it no longer needs: a fresh one, or the
    one ``_kick`` returns, which ``apply`` left a fresh state of its
    decision.

    Moves: one user to any feasible (cloud, station); two users jointly to
    any pair (full rescans only while cheap, plain exchanges otherwise); and
    three users rotating their assignments. Rotations matter when tight
    storage makes good decisions permutations of each other. Each step takes
    the first best move in that order: one-user moves come from one
    ``best_single_move`` walk, two-user moves from one ``best_pair_move``
    pass or one ``best_exchange`` walk, and only rotations from ``probe``.
    The exchange walk and the rotation probes are skipped when their floor
    (``_SearchState.floors``) is at or above the bar a move must pass, so
    no move they could return would be taken; a NaN floor skips nothing.

    The steps from a decision depend only on it and the slot tables, so a
    start in ``tables.descents`` returns the recorded result, whatever
    moves brought the state there, and a descent that reaches a recorded
    decision after ``moves`` moves ends with its optimum after
    ``moves + rest``, where continuing would end, while that stays within
    the cap. A descent also ends where ``apply`` refuses its
    best move. A descent that ends at a local optimum records every
    decision on its path; one stopped by the cap records none.
    """
    tables = state.tables
    descents = tables.descents
    key = (tuple(state.placement), tuple(state.selection))
    if key in descents:
        return descents[key]
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
) -> _SearchState:
    """Reassign two random users of ``d`` to random feasible spots, for
    restarts; returns the state it moved, for ``_local_search`` to descend
    from.

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
    return state


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


class _Rounding:
    """The randomized rounding of one fractional point: built once per solve,
    drawn from once per seed.

    Per user it keeps the CDF of the x column and of the y column restricted
    to coverage, as ``_column_cdfs`` builds them: the x CDFs in one call,
    the y CDFs in one call per coverage size, since each row of a (g, L)
    array reduces exactly as a lone (1, L) row does.

    A draw's 2n uniforms pick user k's cloud by u[2k] and its station by
    u[2k + 1]; these are the columns' slots. ``bisect_right`` over a CDF
    that ends at 1.0 gives one pick for every uniform in [0, 1) exactly
    when each entry is <= 0.0 or >= 1.0: the count of entries <= 0.0,
    kept in ``fixed``. The other columns' slots are ``vary``, and the picks
    there are a draw's key. A draw's fit depends on its key alone, so the
    build keeps the ``model._fits`` verdict of each key's draw
    (``verdicts``), and every seed drawn from it shares them.
    """

    def __init__(self, tables: _SlotTables, x: np.ndarray, y: np.ndarray) -> None:
        self.tables = tables
        cov = tables.cov
        self.x_cdf = _column_cdfs(x.T)
        self.y_cdf: list[list[float]] = [[]] * tables.n
        by_size: dict[int, list[int]] = {}
        for k, stations in enumerate(cov):
            by_size.setdefault(len(stations), []).append(k)
        for users in by_size.values():
            rows = y[np.array([cov[k] for k in users]), np.array(users)[:, None]]
            for k, cdf in zip(users, _column_cdfs(rows)):
                self.y_cdf[k] = cdf
        cdfs = [cdf for pair in zip(self.x_cdf, self.y_cdf) for cdf in pair]
        self.fixed = np.array([bisect_right(cdf, 0.0) for cdf in cdfs], dtype=np.intp)
        self.vary = np.array([
            slot for slot, cdf in enumerate(cdfs) if not all(v <= 0.0 or v >= 1.0 for v in cdf)
        ], dtype=np.intp)
        self.vary_cdf = [cdfs[slot] for slot in self.vary]
        self.verdicts: dict[tuple[int, ...], bool] = {}

    def picks(self, key: tuple[int, ...]) -> tuple[list[int], list[int]]:
        """The draw of a key, as (placement, selection)."""
        picks = self.fixed.copy()
        picks[self.vary] = key
        both = picks.tolist()
        return both[0::2], list(map(operator.getitem, self.tables.cov, both[1::2]))

    def draw(self, rng_seed: int) -> tuple[SlotDecision, int, int]:
        """``round_decision`` of the point for ``rng_seed``. Each attempt
        takes its 2n uniforms and picks only its key; ``model._fits`` runs
        on the draw of a key not seen before, and only the draw returned, or
        the last one repaired when none fits, is formed as a decision.
        ``_fits`` is a draw's whole check, the verdict ``decision_feasible``
        gives: its picks lie in ``range(M)`` and in the user's coverage, as
        every CDF ends at 1.0."""
        tables, verdicts = self.tables, self.verdicts
        vary, vary_cdf = self.vary, self.vary_cdf
        fit_args = tables.costs.sizes, tables.costs.demand, tables.cloud_cap, tables.limit
        rng = np.random.default_rng(rng_seed)
        for attempt in range(1, _MAX_ATTEMPTS + 1):
            key = tuple(map(bisect_right, vary_cdf, rng.random(2 * tables.n)[vary].tolist()))
            fit = verdicts.get(key)
            if fit is None:
                fit = verdicts[key] = _fits(*self.picks(key), *fit_args)
            if fit:
                return SlotDecision(*map(tuple, self.picks(key))), attempt, 0
        _log.debug(
            "slot %d: no feasible draw in %d attempts; repairing the last greedily",
            tables.t, _MAX_ATTEMPTS,
        )
        last = SlotDecision(*map(tuple, self.picks(key)))
        repaired, moves = _greedy_repair(tables, last)
        return repaired, _MAX_ATTEMPTS, moves


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

    Every column's CDF is built once (``_Rounding``, which ``solve_slot``
    builds once for all its seeds). An attempt then takes 2n uniform draws
    in one call, the cloud then the station for each user in turn, and
    picks entries with ``bisect_right``: the same stream and the same picks
    as one ``rng.choice(len(p), p=p)`` per column. A draw is checked by
    ``model._fits``, which gives ``decision_feasible``'s verdict on it,
    once per distinct key (the picks of the columns whose pick varies),
    and the seeds drawn from one build share the verdicts; the first draw
    that fits becomes the ``SlotDecision`` returned.

    Raises ValueError unless ``t`` is an integer in ``range(s.num_slots)``
    and ``rng_seed`` an integer >= 0, DimensionMismatchError unless both
    matrices are (clouds, users) and ValueError on a non-finite weight.
    """
    check_slot(s, t)
    rng_seed = _nonnegative_integer("rng_seed", rng_seed)
    x = _as_decision_matrix(s, "x", frac.x)
    y = _as_decision_matrix(s, "y", frac.y)
    if not (np.isfinite(x).all() and np.isfinite(y).all()):
        raise ValueError("fractional weights must be finite")
    return _Rounding(_SlotTables(s, t, config.margin), x, y).draw(rng_seed)


def _greedy_repair(tables: _SlotTables, d: SlotDecision) -> tuple[SlotDecision, int]:
    """Move users off violated resources to the cheapest room.

    First each user whose station is outside its coverage moves to a
    covered station. Then one drain loop runs per side, storage first:
    while a cloud (station) is over its limit, the most overloaded one
    gives up its heaviest user that has room elsewhere. A moved placement
    goes to the cloud with the least latency to the user's station, a moved
    selection to the station of least price (``_station_prices``) plus
    latency from the user's cloud. Each drain tallies only its own side,
    storage or loads, with ``model._tally``, the sums ``decision_feasible``
    tests.
    Every move targets a resource with room left, so total violation
    strictly decreases. Raises RoundingFailedError when a violation has no
    outlet.
    """
    m, n, t = tables.m, tables.n, tables.t
    sizes, demand, lat = tables.costs.sizes, tables.costs.demand, tables.costs.lat
    placement = list(d.placement)
    selection = list(d.selection)
    moves = 0

    def station_room(k: int, load: list[float], full: int = -1) -> int | None:
        lat_i = lat[placement[k]]
        prices = _station_prices(tables, k, load, skip=full)
        return min(prices, key=lambda p: p[1] + lat_i[p[0]])[0] if prices else None

    def cloud_room(k: int, storage: list[float], full: int) -> int | None:
        options = [
            (lat[i][selection[k]], i)
            for i in range(m)
            if i != full and storage[i] + sizes[k] <= tables.cloud_cap[i]
        ]
        return min(options)[1] if options else None

    load = _tally(m, selection, demand)
    for k in range(n):
        if selection[k] in tables.covsets[k]:
            continue
        j = station_room(k, load)
        if j is None:
            raise RoundingFailedError(
                f"user {k} has no covered station with room at slot {t}"
            )
        load[selection[k]] -= demand[k]
        load[j] += demand[k]
        selection[k] = j
        moves += 1

    for owner, weights, cap, room, what in (
        (placement, sizes, tables.cloud_cap, cloud_room, "storage overload on cloud"),
        (selection, demand, tables.limit, station_room, "capacity overload on station"),
    ):
        for _ in range(2 * m * n + 1):
            used = _tally(m, owner, weights)
            if all(map(operator.le, used, cap)):
                break
            # the first most overloaded one, as np.argmax picks it
            full = max(range(m), key=lambda r: used[r] - cap[r])
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
    if not decision_feasible(tables.s, t, repaired, tables.margin):
        raise RoundingFailedError(f"greedy repair did not reach feasibility at slot {t}")
    return repaired, moves


def _enumerated(s: Scenario, t: int) -> bool:
    """Whether ``solve_slot`` enumerates valid slot t: its M^N placements
    times the product of the users' coverage sizes is at most _EXACT_BOUND."""
    return s.num_clouds**s.num_users * math.prod(map(len, s.coverage[t])) <= _EXACT_BOUND


def solve_slot(
    s: Scenario,
    t: int,
    warm_start: SlotDecision | None = None,
    rng_seed: int = 0,
    config: SolverConfig = DEFAULT_CONFIG,
    *,
    _exact: oracle._ExactSlots | None = None,
) -> tuple[SlotDecision, FractionalDecision, SolverReport]:
    """The slot's best integral decision: exact on small slots, searched on
    the rest.

    A slot ``_enumerated`` accepts, of at most ``_EXACT_BOUND`` raw
    decisions, is solved by enumeration (``oracle._slot_optimum``): the
    decision is ``best_slot_decision``'s, the first minimum in
    lexicographic order. There the warm start is unused, and the report
    has the optimum as ``objective`` and 0 iterations, starts, rounding
    attempts and repair actions. An empty small slot takes the enumeration's
    verdict. A larger slot goes to the discrete search (``_search_slot``).
    When no search seed yields a feasible decision, the slot is enumerated
    after all, the same way, once its raw counts pass
    ``oracle._check_raw_counts`` and its sides fit ``ENUMERATION_BUDGET``:
    its decision and report are then the small slot's, and an empty slot
    takes the enumeration's verdict. The fractional decision is the
    decision's ``placement_matrix`` and ``selection_matrix``.
    ``report.objective`` is the decision's non-switching delay as
    ``_IndexCosts``, the one valuation of integral decisions, gives it: the
    value both paths minimize. The solve is deterministic and reads only
    ``s``, ``t``, ``warm_start`` and ``config``. ``rng_seed`` is unused: it
    stays only because the benchmark's workloads (``perfbench/workloads.py``)
    still pass it.

    ``_exact`` is the run's exact-slot cache of ``s`` at ``config.margin``
    (``oracle._ExactSlots``, the controller's ``policy.Solved``); without
    it the solve forms a cache of its own, which ends with the call. A
    cache of another scenario or margin raises ValueError before anything
    kept in it is read. Every enumeration of the slot reads the cache, and
    the offline DP reads it too. The cache keeps the solve's return, or its
    InfeasibleError, under (t, warm start), or (t, None) on an enumerated
    slot, and a later call with that key returns the kept tuple, or raises
    a new error of the kept error's type and message, without solving; the
    kept error is never raised, so the cache holds no traceback. A kept
    return is shared, so its arrays are read-only (writing to them raises
    ValueError). A RoundingFailedError is not kept.

    Raises ValueError unless ``t`` is an integer in ``range(s.num_slots)``
    and what ``check_decision`` raises for a malformed warm start. Raises
    InfeasibleError for a slot shown empty, NoInteriorPointError when the
    margin is positive and loads up to station capacity would fit: a small
    slot, or a searched one within the enumeration budget, when no integral
    decision fits, and a searched slot when the relaxed slot is empty.
    Raises RoundingFailedError when no search seed yields a feasible
    decision and the slot is past the enumeration budget.
    """
    check_slot(s, t)
    if warm_start is not None:
        check_decision(s, warm_start)
    if _exact is None:
        _exact = oracle._ExactSlots(s, config.margin)
    else:
        _exact.check(s, config.margin)
    key = (t, None if _enumerated(s, t) else warm_start)
    found = _exact.solves.get(key)
    if found is None:
        try:
            found = _solve_fresh(s, t, warm_start=key[1], config=config, exact=_exact)
        except InfeasibleError as exc:
            # kept as a copy that is never raised, so it holds no frames
            _exact.solves[key] = type(exc)(*exc.args)
            raise
        _exact.solves[key] = found
    elif isinstance(found, InfeasibleError):
        raise type(found)(*found.args)
    return found


def _solve_fresh(
    s: Scenario, t: int, *, warm_start: SlotDecision | None,
    config: SolverConfig, exact: oracle._ExactSlots,
) -> tuple[SlotDecision, FractionalDecision, SolverReport]:
    """``solve_slot``'s work on a key its cache does not hold yet, once the
    arguments and the cache are checked: ``warm_start`` is None on an
    enumerated slot."""
    # t is checked by solve_slot and the margin by SolverConfig
    budget = oracle.ENUMERATION_BUDGET
    if _enumerated(s, t):
        # the raw count is at most _EXACT_BOUND <= ENUMERATION_BUDGET
        decision, value = oracle._slot_optimum(exact, t, None, budget)
        report = SolverReport(iterations=0, objective=value, starts=0)
    else:
        try:
            decision, report = _search_slot(s, t, warm_start, config)
        except RoundingFailedError as failed:
            _log.debug("slot %d: the search found no feasible decision; enumerating the slot", t)
            try:
                oracle._check_raw_counts(s, range(t, t + 1), budget)
                decision, value = oracle._slot_optimum(exact, t, None, budget)
            except OracleTooLargeError:
                raise failed from None
            report = SolverReport(iterations=0, objective=value, starts=0)
    m = s.num_clouds
    frac = FractionalDecision(x=decision.placement_matrix(m), y=decision.selection_matrix(m))
    # solve_slot hands every caller of the key these arrays
    frac.x.setflags(write=False)
    frac.y.setflags(write=False)
    return decision, frac, report


def _search_slot(
    s: Scenario,
    t: int,
    warm_start: SlotDecision | None = None,
    config: SolverConfig = DEFAULT_CONFIG,
) -> tuple[SlotDecision, SolverReport]:
    """The discrete search's best integral decision for one slot, with its
    report; ``solve_slot`` has checked ``t`` and the warm start.

    Search seeds: the ``_CANDIDATE_SEEDS`` roundings of the repaired
    uniform point (of the zero-cost LP point when the uniform point cannot
    be repaired), the greedy indicator, and the warm start after greedy
    repair. A seed whose rounding or repair fails is dropped. Each distinct
    seed is searched (``_local_search``) from a fresh state; the best local
    optimum, the first on ties, then takes ``_KICK_ROUNDS`` seeded kicks,
    each followed by a search from the kicked state. The winner is checked
    once more with ``decision_feasible``; its value is the search's own
    ``_IndexCosts`` value. Raises InfeasibleError (NoInteriorPointError
    when only loads at capacity fit) when the relaxed slot is empty, and
    RoundingFailedError when no seed yields a feasible decision or the
    winner fails the check.
    """
    tables = _SlotTables(s, t, config.margin)
    point = _uniform_point(s, t, config.margin)
    if point is None:
        _log.debug("slot %d: uniform point cannot be repaired; solving the LP", t)
        point = _feasible_point_via_lp(s, t, config.margin)
    rounding = _Rounding(tables, *point)
    seeds: list[SlotDecision] = []
    attempts = repairs = 0
    for seed in _CANDIDATE_SEEDS:
        try:
            d, used, moves = rounding.draw(seed)
        except RoundingFailedError:
            attempts += _MAX_ATTEMPTS
            continue
        seeds.append(d)
        attempts += used
        repairs += moves
    # needed by test_solve_slot_finds_feasible_decisions_on_tight_instances[5]
    greedy = _greedy_indicator(tables)
    if greedy is not None:
        seeds.append(greedy)
    if warm_start is not None:
        try:
            d, moves = _greedy_repair(tables, warm_start)
        except RoundingFailedError as exc:
            _log.debug("slot %d: dropped the warm start: %s", t, exc)
        else:
            seeds.append(d)
            repairs += moves

    best: tuple[SlotDecision, float] | None = None
    seen: set[tuple[tuple[int, ...], tuple[int, ...]]] = set()
    iterations = 0
    for d in seeds:
        key = (d.placement, d.selection)
        if key in seen:
            continue
        seen.add(key)
        improved, value, steps = _local_search(_SearchState(tables, d.placement, d.selection))
        iterations += steps
        if best is None or value < best[1]:
            best = (improved, value)
    if best is not None:
        rng = np.random.default_rng(_KICK_SEED)
        for _ in range(_KICK_ROUNDS):
            improved, value, steps = _local_search(_kick(tables, best[0], rng))
            iterations += steps
            if value < best[1] - 1e-12:
                best = (improved, value)
        decision, value = best
        if decision_feasible(s, t, decision, config.margin):
            return decision, SolverReport(
                iterations=iterations,
                objective=value,
                rounding_attempts=attempts,
                repair_actions=repairs,
                starts=len(seen),
            )
        _log.warning(
            "slot %d: dropped the search result; its bookkeeping called it "
            "feasible and the feasibility check does not", t,
        )
    raise RoundingFailedError(f"no feasible integral decision found at slot {t}")
