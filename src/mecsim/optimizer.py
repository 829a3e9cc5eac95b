"""Per-slot relaxed optimizer.

Minimizes the non-switching delay over the relaxed polytope (column-stochastic
placement and selection weights under storage, coverage, and capacity-margin
constraints) with a conditional-gradient outer loop, then rounds the
fractional point to an integral decision by per-user categorical sampling
with greedy repair as fallback.

The linear subproblems split into an x block and a y block that share no
row. When each block's per-user argmin vertex respects that block's storage
or capacity rows, the pair is optimal; otherwise one HiGHS model of the slot
LP, built once per polytope and reused with only its costs changed, solves
it from a cold start. A discrete local search around the descent endpoint
values each probed move as the current objective plus the change in the
terms of the stations and users the move touches; one-user moves are all
valued in one scan that computes each station's term once per step.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from collections.abc import Callable
from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

from .delays import non_switching_delay
from .errors import (
    InfeasibleError,
    NoInteriorPointError,
    OverloadedPointError,
    RoundingFailedError,
)
from .model import FractionalDecision, Scenario, SlotDecision, decision_feasible

__all__ = [
    "SolverConfig",
    "SolverReport",
    "Polytope",
    "build_polytope",
    "lp_solve",
    "objective",
    "objective_gradient",
    "solve_fractional",
    "round_decision",
    "solve_slot",
]


@dataclass(frozen=True)
class SolverConfig:
    """Knobs for the fractional solve and the rounding stage."""

    max_iters: int = 300        # conditional-gradient iteration cap
    tol: float = 1e-4           # stop when gap <= tol * current objective
    margin: float = 1e-6        # station load must stay <= C_j - margin
    max_attempts: int = 50      # rounding resamples before greedy repair
    max_halvings: int = 30      # step halvings when the default step ascends


DEFAULT_CONFIG = SolverConfig()

# The relaxed objective is nonconvex, so a single descent can stall on a poor
# stationary point. A discrete companion search improves integral candidates
# around the descent endpoint; these knobs bound its effort. All of it is
# deterministic: the kick stream is fixed, never derived from caller seeds.
_STALL_REL = 2e-5           # accepted steps improving less count as stalled
_STALL_PATIENCE = 5         # consecutive stalled steps before stopping early
_PAIR_SCAN_BUDGET = 8000    # full two-user rescans only while this cheap
_ROTATION_BUDGET = 4000     # three-user rotations only while n**3 fits
_KICK_ROUNDS = 6            # perturbation restarts of the discrete search
_KICK_SEED = 271828182
_CANDIDATE_SEEDS = (0, 1, 2)  # rounding draws that seed the discrete search


@dataclass(frozen=True)
class SolverReport:
    """What the per-slot solve did and where it ended."""

    iterations: int             # LP subproblems solved, summed over starts
    objective: float            # objective at the returned fractional point
    gap: float                  # linearized gap at the returned point, >= 0
    rounding_attempts: int = 0
    repair_actions: int = 0
    starts: int = 1
    objective_trace: tuple[float, ...] = ()  # accepted iterates, winning start


@dataclass(frozen=True)
class _Block:
    """One of the two blocks of the slot LP, which share no row.

    Variables v[r, k], flattened row-major: the weight user k puts on cloud
    (x block) or station (y block) r. Each user column sums to one over its
    allowed rows, each row r keeps sum_k weight[k] * v[r, k] <= cap[r], and
    entries outside ``allowed`` are pinned to zero through their bounds.
    """

    weight: np.ndarray   # (n,) service sizes or demands
    cap: np.ndarray      # (m,) storage, or station capacity minus the margin
    allowed: np.ndarray  # (m, n) bool

    def argmin_vertex(self, cost: np.ndarray) -> np.ndarray | None:
        """Each column's cheapest allowed entry set to one, if that fits the rows."""
        m, n = self.allowed.shape
        rows = np.argmin(np.where(self.allowed, cost, np.inf), axis=0)
        if not np.all(np.bincount(rows, weights=self.weight, minlength=m) <= self.cap):
            return None
        vertex = np.zeros((m, n))
        vertex[rows, np.arange(n)] = 1.0
        return vertex


@dataclass(frozen=True)
class Polytope:
    """Relaxed feasible set for one slot: the x block (storage rows) and the
    y block (coverage bounds and capacity-margin rows)."""

    num_clouds: int
    num_users: int
    margin: float
    x_block: _Block
    y_block: _Block

    @cached_property
    def _highs(self) -> Callable[[np.ndarray], np.ndarray]:
        """HiGHS model of the whole LP, built on the first solve that needs one.

        Variables: x, then y. Rows in the order linprog stacks them: the
        storage rows, the capacity rows, then one column-sum row per user
        for x and for y; a y column has no column-sum entry outside coverage.
        """
        m, n = self.num_clouds, self.num_users
        blocks = (self.x_block, self.y_block)
        r, k = np.divmod(np.arange(m * n), n)
        index, value, count = [], [], []
        for b, block in enumerate(blocks):
            # per column: its capacity-row entry, then its column-sum entry
            rows = np.stack([b * m + r, 2 * m + b * n + k], axis=1)
            entries = np.stack([block.weight[k], np.ones(m * n)], axis=1)
            keep = np.stack([np.ones(m * n, dtype=bool), block.allowed.ravel()], axis=1)
            index.append(rows[keep])
            value.append(entries[keep])
            count.append(keep.sum(axis=1))
        return _highs_lp(
            np.concatenate([[0], np.cumsum(np.concatenate(count))]),
            np.concatenate(index),
            np.concatenate(value),
            row_lower=np.concatenate([np.full(2 * m, -np.inf), np.ones(2 * n)]),
            row_upper=np.concatenate([self.x_block.cap, self.y_block.cap, np.ones(2 * n)]),
            col_upper=np.concatenate([b.allowed.ravel() for b in blocks]).astype(float),
        )


def build_polytope(s: Scenario, t: int, margin: float) -> Polytope:
    m, n = s.num_clouds, s.num_users
    covered = np.zeros((m, n), dtype=bool)
    for k, stations in enumerate(s.coverage[t]):
        covered[list(stations), k] = True
    return Polytope(
        num_clouds=m,
        num_users=n,
        margin=margin,
        x_block=_Block(s.service_size, s.cloud_capacity, np.ones((m, n), dtype=bool)),
        y_block=_Block(s.demand[t], s.bs_capacity - margin, covered),
    )


def _highs_lp(
    start: np.ndarray,
    index: np.ndarray,
    value: np.ndarray,
    row_lower: np.ndarray,
    row_upper: np.ndarray,
    col_upper: np.ndarray,
) -> Callable[[np.ndarray], np.ndarray]:
    """Reusable HiGHS model of min c @ v over row_lower <= A v <= row_upper,
    0 <= v <= col_upper, with A given column-wise (CSC start, index, value).

    Returns solve(c) -> minimizing v. The model and the settings of
    linprog(method="highs-ds") with lp_solve's tolerances are passed once;
    each solve changes only the costs and clears the basis and solution
    before running, so it starts cold and returns the vertex a fresh
    linprog call on the same LP returns. linprog builds and validates a new
    model on every call; SciPy's private HiGHS binding, which can keep one,
    is reached here only.
    """
    from scipy.optimize._highspy import _core as highs

    num_col, num_row = len(start) - 1, len(row_lower)
    lp = highs.HighsLp()
    lp.num_col_, lp.num_row_ = num_col, num_row
    lp.col_cost_ = np.zeros(num_col)
    lp.col_lower_ = np.zeros(num_col)
    lp.col_upper_ = col_upper
    lp.row_lower_ = np.where(np.isinf(row_lower), -highs.kHighsInf, row_lower)
    lp.row_upper_ = row_upper
    lp.a_matrix_.format_ = highs.MatrixFormat.kColwise
    lp.a_matrix_.num_col_, lp.a_matrix_.num_row_ = num_col, num_row
    lp.a_matrix_.start_ = start
    lp.a_matrix_.index_ = index
    lp.a_matrix_.value_ = value
    model = highs._Highs()
    dual = highs.simplex_constants.SimplexStrategy.kSimplexStrategyDual
    for name, setting in (
        ("output_flag", False),
        ("presolve", "on"),
        ("solver", "simplex"),
        ("simplex_strategy", int(dual)),
        ("primal_feasibility_tolerance", 1e-10),
        ("dual_feasibility_tolerance", 1e-9),
    ):
        if model.setOptionValue(name, setting) != highs.HighsStatus.kOk:
            raise RuntimeError(f"HiGHS rejected option {name}={setting!r}")
    if model.passModel(lp) != highs.HighsStatus.kOk:
        raise RuntimeError("HiGHS rejected the LP model")
    cols = np.arange(num_col, dtype=np.int32)

    def solve(cost: np.ndarray) -> np.ndarray:
        model.changeColsCost(num_col, cols, cost)
        model.clearSolver()
        model.run()
        status = model.getModelStatus()
        if status == highs.HighsModelStatus.kInfeasible:
            raise InfeasibleError("slot polytope is empty")
        if status != highs.HighsModelStatus.kOptimal:
            raise RuntimeError(f"LP solver failed: {model.modelStatusToString(status)}")
        return np.asarray(model.getSolution().col_value)

    return solve


def lp_solve(
    p: Polytope, cost_x: np.ndarray, cost_y: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Vertex of the polytope minimizing the given linear cost.

    The x and y blocks share no row. Without its storage or capacity rows a
    block is a product of per-user simplices, one per column over all
    clouds (x) or the user's coverage (y), and its minimizing vertex puts
    each column's whole weight on that column's cheapest entry. When each
    block's vertex also satisfies that block's rows, compared with no
    tolerance, the pair lies in the full polytope, which is a subset of the
    one without those rows, so it is optimal there too and is returned
    without an LP solve. Ties go to the lowest index (np.argmin): an
    all-zero cost yields cloud 0 and each user's lowest-numbered covered
    station whenever those fit.

    Otherwise HiGHS dual simplex solves the whole LP, which keeps the result
    on a vertex. The polytope builds that model once, on its first such
    solve, and reuses it with only the costs changed; every solve starts
    cold. Raises ValueError on a non-finite cost and InfeasibleError when
    the polytope is empty.
    """
    shape = (p.num_clouds, p.num_users)
    cost_x = np.asarray(cost_x, dtype=float).reshape(shape)
    cost_y = np.asarray(cost_y, dtype=float).reshape(shape)
    if not (np.isfinite(cost_x).all() and np.isfinite(cost_y).all()):
        raise ValueError("LP costs must be finite")
    vx = p.x_block.argmin_vertex(cost_x)
    vy = p.y_block.argmin_vertex(cost_y)
    if vx is not None and vy is not None:
        return vx, vy
    flat = np.clip(p._highs(np.concatenate([cost_x.ravel(), cost_y.ravel()])), 0.0, 1.0)
    return flat[: cost_x.size].reshape(shape), flat[cost_x.size :].reshape(shape)


def objective(s: Scenario, t: int, x: np.ndarray, y: np.ndarray) -> float:
    """Non-switching delay of a (possibly fractional) point."""
    return non_switching_delay(s, t, x, y)


def objective_gradient(
    s: Scenario, t: int, x: np.ndarray, y: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Analytic gradient of the non-switching delay.

    grad_x[i,k] = sum_j y[j,k] * lat[i,j]
    grad_y[j,k] = 1/(C_j - L_j) + c_k * Y_j / (C_j - L_j)^2 + sum_i x[i,k] * lat[i,j]
    with L_j the demand-weighted load and Y_j the total selection weight on j.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    lat = s.link_latency[t]
    demand = s.demand[t]
    load = y @ demand
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


def _greedy_indicator(s: Scenario, t: int, margin: float) -> SlotDecision | None:
    """Sequential per-user joint argmin of queue-plus-latency cost."""
    m, n = s.num_clouds, s.num_users
    cov = s.coverage[t]
    storage = np.zeros(m)
    load = np.zeros(m)
    placement = np.empty(n, dtype=int)
    selection = np.empty(n, dtype=int)
    lat = s.link_latency[t]
    for k in range(n):
        best_cost = math.inf
        best = None
        for i in range(m):
            if storage[i] + s.service_size[k] > s.cloud_capacity[i]:
                continue
            for j in cov[k]:
                new_load = load[j] + s.demand[t][k]
                if new_load > s.bs_capacity[j] - margin or new_load >= s.bs_capacity[j]:
                    continue
                cost = 1.0 / (s.bs_capacity[j] - new_load) + lat[i, j]
                if cost < best_cost - 1e-15:
                    best_cost = cost
                    best = (i, j)
        if best is None:
            return None
        placement[k], selection[k] = best
        storage[best[0]] += s.service_size[k]
        load[best[1]] += s.demand[t][k]
    return SlotDecision(tuple(int(v) for v in placement), tuple(int(v) for v in selection))


def _greedy_point(
    s: Scenario, t: int, margin: float
) -> tuple[np.ndarray, np.ndarray] | None:
    """Greedy indicator blended toward uniform and repaired."""
    d = _greedy_indicator(s, t, margin)
    if d is None:
        return None
    return _blend_decision(s, t, d, margin)


def _blend_decision(
    s: Scenario, t: int, d: SlotDecision, margin: float
) -> tuple[np.ndarray, np.ndarray] | None:
    """0.9 * indicator + 0.1 * uniform, clipped to coverage and repaired."""
    m, n = s.num_clouds, s.num_users
    cov = s.coverage[t]
    x = 0.9 * d.placement_matrix(m) + 0.1 / m
    y = 0.9 * d.selection_matrix(m)
    for k in range(n):
        stations = list(cov[k])
        y[:, k] *= np.isin(np.arange(m), stations)  # drop out-of-coverage mass
        y[stations, k] += 0.1 / len(stations)
        y[:, k] /= y[:, k].sum()
    all_clouds = tuple(tuple(range(m)) for _ in range(n))
    ok_x = _repair_columns(x, s.service_size, s.cloud_capacity.copy(), all_clouds)
    ok_y = _repair_columns(y, s.demand[t], s.bs_capacity - margin, cov)
    if not (ok_x and ok_y):
        return None
    return x, y


def _feasible_point_via_lp(
    s: Scenario, t: int, poly: Polytope
) -> tuple[np.ndarray, np.ndarray]:
    """Zero-cost LP feasibility solve; classifies emptiness when it fails."""
    zeros = np.zeros((poly.num_clouds, poly.num_users))
    try:
        return lp_solve(poly, zeros, zeros)
    except InfeasibleError:
        if poly.margin > 0.0:
            relaxed = build_polytope(s, t, 0.0)
            try:
                lp_solve(relaxed, zeros, zeros)
            except InfeasibleError:
                raise InfeasibleError(
                    f"no fractional decision satisfies slot {t} constraints"
                ) from None
            raise NoInteriorPointError(
                f"slot {t} has no point clear of station capacity by the margin"
            ) from None
        raise


def _check_init(s: Scenario, t: int, init: FractionalDecision, margin: float) -> None:
    m, n = s.num_clouds, s.num_users
    if init.x.shape != (m, n):
        raise ValueError(f"init has shape {init.x.shape}, expected {(m, n)}")
    col_err = max(
        np.abs(init.x.sum(axis=0) - 1.0).max(),
        np.abs(init.y.sum(axis=0) - 1.0).max(),
    )
    load = init.y @ s.demand[t]
    storage = init.x @ s.service_size
    if (
        col_err > 1e-6
        or np.any(load > s.bs_capacity - margin + 1e-9)
        or np.any(storage > s.cloud_capacity + 1e-9)
        or np.any(init.x < -1e-12)
        or np.any(init.y < -1e-12)
    ):
        raise ValueError("init point is outside the feasible polytope")


def _frank_wolfe(
    s: Scenario,
    t: int,
    poly: Polytope,
    x0: np.ndarray,
    y0: np.ndarray,
    config: SolverConfig,
) -> tuple[np.ndarray, np.ndarray, float, float, int, tuple[float, ...]]:
    """Conditional-gradient descent from one start point.

    Default step 2/(iter+2); the step is halved while the objective would
    increase (the objective is nonconvex, so plain steps can overshoot).
    Accepted-iterate objectives are non-increasing by construction. The loop
    also stops once several consecutive steps improve below _STALL_REL
    relative: the schedule's tail shrinks like 1/iter, so remaining progress
    past that point is negligible against the gap tolerance.
    """
    x, y = x0.copy(), y0.copy()
    f = objective(s, t, x, y)
    trace = [f]
    gap = math.inf
    iterations = 0
    stalled = 0
    for it in range(config.max_iters):
        iterations += 1
        grad_x, grad_y = objective_gradient(s, t, x, y)
        vx, vy = lp_solve(poly, grad_x, grad_y)
        gap = float(np.sum(grad_x * (x - vx)) + np.sum(grad_y * (y - vy)))
        gap = max(gap, 0.0)
        if gap <= config.tol * max(abs(f), 1e-12):
            break
        gamma = 2.0 / (it + 2.0)
        dx, dy = vx - x, vy - y
        f_next = objective(s, t, x + gamma * dx, y + gamma * dy)
        halvings = 0
        while f_next > f and halvings < config.max_halvings:
            gamma *= 0.5
            f_next = objective(s, t, x + gamma * dx, y + gamma * dy)
            halvings += 1
        if f_next > f:
            break  # no descent along the LP direction at any tried step
        improvement = (f - f_next) / max(abs(f), 1e-12)
        x += gamma * dx
        y += gamma * dy
        f = f_next
        trace.append(f)
        if improvement < _STALL_REL:
            stalled += 1
            if stalled >= _STALL_PATIENCE:
                break
        else:
            stalled = 0
    return x, y, f, gap, iterations, tuple(trace)


class _SearchState:
    """Integral decision with incremental bookkeeping for the discrete search.

    Plain lists keep probes cheap. ``f`` is the non-switching delay of the
    current decision, recomputed in full by every ``apply``. A probe values
    a batch of per-user (cloud, station) reassignments, distinct users each,
    as ``f`` plus the change in the terms of the stations and users it
    touches, without applying it; batches that break storage, coverage, or
    the capacity margin, or that fill a station to capacity, are rejected
    without evaluation. ``best_single_move`` values every one-user move with
    the same arithmetic in one scan.
    """

    __slots__ = (
        "m", "n", "sizes", "demand", "cloud_cap", "bs_cap", "margin", "lat",
        "cov", "covsets", "placement", "selection", "used", "load", "users_on", "f",
    )

    def __init__(
        self, s: Scenario, t: int,
        placement: tuple[int, ...], selection: tuple[int, ...], margin: float,
    ) -> None:
        self.m = s.num_clouds
        self.n = s.num_users
        self.sizes = [float(v) for v in s.service_size]
        self.demand = [float(v) for v in s.demand[t]]
        self.cloud_cap = [float(v) for v in s.cloud_capacity]
        self.bs_cap = [float(v) for v in s.bs_capacity]
        self.margin = margin
        self.lat = [[float(v) for v in row] for row in s.link_latency[t]]
        self.cov = s.coverage[t]
        self.covsets = [frozenset(c) for c in self.cov]
        self.placement = list(placement)
        self.selection = list(selection)
        self.used = [0.0] * self.m
        self.load = [0.0] * self.m
        self.users_on = [0] * self.m
        for k in range(self.n):
            self.used[self.placement[k]] += self.sizes[k]
            self.load[self.selection[k]] += self.demand[k]
            self.users_on[self.selection[k]] += 1
        self.f = self.value()

    def value(self) -> float:
        f = 0.0
        for j in range(self.m):
            if self.users_on[j]:
                f += self.users_on[j] / (self.bs_cap[j] - self.load[j])
        for k in range(self.n):
            f += self.lat[self.placement[k]][self.selection[k]]
        return f

    def fits(self, r: int, load: float) -> bool:
        """Station r can carry ``load``: within the margin and below capacity."""
        return load <= self.bs_cap[r] - self.margin and load < self.bs_cap[r]

    def probe(self, batch: list[tuple[int, int, int]]) -> float | None:
        storage_delta: dict[int, float] = {}
        load_delta: dict[int, float] = {}
        on_delta: dict[int, int] = {}
        delta = 0.0
        for k, i, j in batch:
            if j not in self.covsets[k]:
                return None
            i0, j0 = self.placement[k], self.selection[k]
            storage_delta[i0] = storage_delta.get(i0, 0.0) - self.sizes[k]
            storage_delta[i] = storage_delta.get(i, 0.0) + self.sizes[k]
            load_delta[j0] = load_delta.get(j0, 0.0) - self.demand[k]
            load_delta[j] = load_delta.get(j, 0.0) + self.demand[k]
            on_delta[j0] = on_delta.get(j0, 0) - 1
            on_delta[j] = on_delta.get(j, 0) + 1
            delta += self.lat[i][j] - self.lat[i0][j0]
        for r, d in storage_delta.items():
            if self.used[r] + d > self.cloud_cap[r]:
                return None
        for r, d in load_delta.items():
            if not self.fits(r, self.load[r] + d):
                return None
        for r, d in load_delta.items():
            on = self.users_on[r]
            if on:
                delta -= on / (self.bs_cap[r] - self.load[r])
            on += on_delta[r]
            if on:
                delta += on / (self.bs_cap[r] - (self.load[r] + d))
        return self.f + delta

    def best_single_move(self) -> tuple[float, tuple[int, int, int]] | None:
        """First minimum of ``probe([(k, i, j)])`` over every one-user move
        but staying put, in (user, cloud, coverage-order station) order, as
        (value, move); None when no such move is feasible.

        Each value comes out of the same float operations as ``probe``'s,
        in the same order: the current stations' terms on / (C - L) are
        computed once, the term for leaving a user's station once per user,
        and the term for arriving at a station once per user and station.
        """
        m, f = self.m, self.f
        used, cloud_cap = self.used, self.cloud_cap
        load, bs_cap, users_on = self.load, self.bs_cap, self.users_on
        out = [
            on / (bs_cap[r] - load[r]) if on else None for r, on in enumerate(users_on)
        ]
        best: tuple[float, tuple[int, int, int]] | None = None
        for k in range(self.n):
            i0, j0 = self.placement[k], self.selection[k]
            size, c = self.sizes[k], self.demand[k]
            lat0 = self.lat[i0][j0]
            out0 = out[j0]
            on0 = users_on[j0]
            leave_load = load[j0] + (0.0 - c)
            leaving = self.fits(j0, leave_load)
            leave = 0.0
            if leaving and on0 - 1:
                leave = (on0 - 1) / (bs_cap[j0] - leave_load)
            # per covered station that can take the user: (j, the term probe
            # subtracts for j besides j0's, None if none, the term it adds)
            stations = []
            for j in self.cov[k]:
                if j == j0:
                    stay_load = load[j0] + ((0.0 - c) + c)
                    if self.fits(j0, stay_load):
                        stations.append((j, None, on0 / (bs_cap[j0] - stay_load)))
                elif leaving:
                    arrive_load = load[j] + (0.0 + c)
                    if self.fits(j, arrive_load):
                        arrive = (users_on[j] + 1) / (bs_cap[j] - arrive_load)
                        stations.append((j, out[j], arrive))
            if not stations:
                continue
            stay_fits = used[i0] + ((0.0 - size) + size) <= cloud_cap[i0]
            leave_fits = used[i0] + (0.0 - size) <= cloud_cap[i0]
            for i in range(m):
                if i == i0:
                    if not stay_fits:
                        continue
                elif not (leave_fits and used[i] + (0.0 + size) <= cloud_cap[i]):
                    continue
                lat_i = self.lat[i]
                for j, out_j, arrive in stations:
                    if j == j0:
                        if i == i0:
                            continue
                        delta = ((0.0 + (lat_i[j] - lat0)) - out0) + arrive
                    else:
                        delta = (0.0 + (lat_i[j] - lat0)) - out0
                        if on0 - 1:
                            delta += leave
                        if out_j is not None:
                            delta -= out_j
                        delta += arrive
                    value = f + delta
                    if best is None or value < best[0]:
                        best = (value, (k, i, j))
        return best

    def apply(self, batch: list[tuple[int, int, int]]) -> None:
        for k, i, j in batch:
            self.used[self.placement[k]] -= self.sizes[k]
            self.load[self.selection[k]] -= self.demand[k]
            self.users_on[self.selection[k]] -= 1
            self.placement[k] = i
            self.selection[k] = j
            self.used[i] += self.sizes[k]
            self.load[j] += self.demand[k]
            self.users_on[j] += 1
        self.f = self.value()

    def decision(self) -> SlotDecision:
        return SlotDecision(
            tuple(int(v) for v in self.placement),
            tuple(int(v) for v in self.selection),
        )


def _local_search(
    s: Scenario, t: int, d: SlotDecision, margin: float
) -> tuple[SlotDecision, float]:
    """Best-improvement descent over integral decisions.

    Moves: one user to any feasible (cloud, station); two users jointly to
    any pair (full rescans only while cheap, plain exchanges otherwise); and
    three users rotating their assignments. Rotations matter when tight
    storage makes good decisions permutations of each other. Each step takes
    the first best move in that order: one-user moves come from one
    ``best_single_move`` scan, every other move from ``probe``.
    """
    state = _SearchState(s, t, d.placement, d.selection, margin)
    m, n = state.m, state.n
    max_phi = max(len(c) for c in state.cov)
    scan_pairs = (
        n >= 2 and (n * (n - 1) // 2) * (m * max_phi) ** 2 <= _PAIR_SCAN_BUDGET
    )
    rotations = n >= 3 and n**3 <= _ROTATION_BUDGET
    for _ in range(500):
        best: tuple[float, list[tuple[int, int, int]]] | None = None

        def consider(f2: float | None, batch: list[tuple[int, int, int]]) -> None:
            nonlocal best
            if f2 is not None and f2 < state.f - 1e-12 and (best is None or f2 < best[0]):
                best = (f2, batch)

        single = state.best_single_move()
        if single is not None:
            consider(single[0], [single[1]])
        for a in range(n):
            for b in range(a + 1, n):
                if scan_pairs:
                    for i1 in range(m):
                        for j1 in state.cov[a]:
                            for i2 in range(m):
                                for j2 in state.cov[b]:
                                    if (
                                        i1 == state.placement[a]
                                        and j1 == state.selection[a]
                                        and i2 == state.placement[b]
                                        and j2 == state.selection[b]
                                    ):
                                        continue
                                    batch = [(a, i1, j1), (b, i2, j2)]
                                    consider(state.probe(batch), batch)
                else:
                    batch = [
                        (a, state.placement[b], state.selection[b]),
                        (b, state.placement[a], state.selection[a]),
                    ]
                    consider(state.probe(batch), batch)
        if rotations:
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
        if best is None:
            break
        state.apply(best[1])
    return state.decision(), state.f


def _kick(
    s: Scenario, t: int, d: SlotDecision, rng: np.random.Generator, margin: float
) -> SlotDecision | None:
    """Reassign two random users to random feasible spots, for restarts."""
    state = _SearchState(s, t, d.placement, d.selection, margin)
    movers = rng.choice(state.n, size=min(2, state.n), replace=False)
    for k in movers:
        k = int(k)
        options = [
            (i, j)
            for i in range(state.m)
            for j in state.cov[k]
            if state.probe([(k, i, j)]) is not None
        ]
        if not options:
            return None
        i, j = options[int(rng.integers(len(options)))]
        state.apply([(k, i, j)])
    return state.decision()


def _integral_search(
    s: Scenario, t: int, frac: FractionalDecision, config: SolverConfig
) -> tuple[SlotDecision, float] | None:
    """Discrete companion search around a fractional point.

    Fixed-seed roundings of the point and the greedy indicator seed a local
    search; the incumbent then takes a few seeded perturbation restarts. The
    winner is re-verified against the authoritative feasibility check and
    re-valued with the canonical objective.
    """
    candidates: list[SlotDecision] = []
    for seed in _CANDIDATE_SEEDS:
        try:
            d, _, _ = round_decision(s, t, frac, seed, config)
        except RoundingFailedError:
            continue
        candidates.append(d)
    greedy = _greedy_indicator(s, t, config.margin)
    if greedy is not None:
        candidates.append(greedy)

    best: tuple[SlotDecision, float] | None = None
    seen: set[tuple[tuple[int, ...], tuple[int, ...]]] = set()
    for d in candidates:
        key = (d.placement, d.selection)
        if key in seen:
            continue
        seen.add(key)
        improved, value = _local_search(s, t, d, config.margin)
        if best is None or value < best[1]:
            best = (improved, value)
    if best is None:
        return None

    rng = np.random.default_rng(_KICK_SEED)
    for _ in range(_KICK_ROUNDS):
        kicked = _kick(s, t, best[0], rng, config.margin)
        if kicked is None:
            continue
        improved, value = _local_search(s, t, kicked, config.margin)
        if value < best[1] - 1e-12:
            best = (improved, value)

    winner = best[0]
    if not decision_feasible(s, t, winner, config.margin):
        return None  # incremental float bookkeeping drifted; drop the result
    m = s.num_clouds
    value = objective(
        s, t, winner.placement_matrix(m), winner.selection_matrix(m)
    )
    return winner, value


def solve_fractional(
    s: Scenario,
    t: int,
    init: FractionalDecision | None = None,
    config: SolverConfig = DEFAULT_CONFIG,
) -> tuple[FractionalDecision, SolverReport]:
    """Minimize the relaxed non-switching delay for one slot.

    Conditional-gradient descents run from the repaired uniform start and a
    deterministic greedy start (or from the explicit init alone). Because the
    objective is nonconvex, a discrete search then hunts for an integral
    point below the best endpoint, and when it finds one a final descent
    restarts there. The best point seen wins; integral decisions are valid
    members of the relaxed polytope, so the result may be integral.
    """
    poly = build_polytope(s, t, config.margin)
    starts: list[tuple[np.ndarray, np.ndarray]] = []
    if init is not None:
        _check_init(s, t, init, config.margin)
        starts.append((init.x.copy(), init.y.copy()))
    else:
        uniform = _uniform_point(s, t, config.margin)
        if uniform is None:
            uniform = _feasible_point_via_lp(s, t, poly)
        starts.append(uniform)
        greedy = _greedy_point(s, t, config.margin)
        if greedy is not None:
            starts.append(greedy)

    best: tuple[np.ndarray, np.ndarray, float, float, tuple[float, ...]] | None = None
    total_iterations = 0
    for x0, y0 in starts:
        x, y, f, gap, iterations, trace = _frank_wolfe(s, t, poly, x0, y0, config)
        total_iterations += iterations
        if best is None or f < best[2]:
            best = (x, y, f, gap, trace)
    assert best is not None

    num_starts = len(starts)
    integral = _integral_search(
        s, t, FractionalDecision(x=best[0], y=best[1]), config
    )
    if integral is not None and integral[1] < best[2] - 1e-12:
        d, value = integral
        x0 = d.placement_matrix(s.num_clouds)
        y0 = d.selection_matrix(s.num_clouds)
        x, y, f, gap, iterations, trace = _frank_wolfe(s, t, poly, x0, y0, config)
        total_iterations += iterations
        num_starts += 1
        if f < value:
            best = (x, y, f, gap, trace)
        else:
            best = (x0, y0, value, gap, trace)

    x, y, f, gap, trace = best
    report = SolverReport(
        iterations=total_iterations,
        objective=f,
        gap=gap,
        starts=num_starts,
        objective_trace=trace,
    )
    return FractionalDecision(x=x, y=y), report


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
    Infeasible joint samples are redrawn up to max_attempts times; after
    that the last sample is repaired greedily. Returns (decision, attempts
    used, repair moves).

    Every column's CDF is built once per call. An attempt then takes 2n
    uniform draws in one call, the cloud then the station for each user in
    turn, and picks entries with ``bisect_right``: the same stream and the
    same picks as one ``rng.choice(len(p), p=p)`` per column.
    """
    rng = np.random.default_rng(rng_seed)
    cov = s.coverage[t]
    n = s.num_users
    x_cdf = _column_cdfs(frac.x.T)
    y_cdf = [_column_cdfs(frac.y[list(cov[k]), k][None, :])[0] for k in range(n)]
    decision = None
    for attempt in range(1, config.max_attempts + 1):
        u = rng.random(2 * n).tolist()
        decision = SlotDecision(
            tuple(bisect_right(x_cdf[k], u[2 * k]) for k in range(n)),
            tuple(cov[k][bisect_right(y_cdf[k], u[2 * k + 1])] for k in range(n)),
        )
        if decision_feasible(s, t, decision, config.margin):
            return decision, attempt, 0
    assert decision is not None
    repaired, moves = _greedy_repair(s, t, decision, config.margin)
    return repaired, config.max_attempts, moves


def _greedy_repair(
    s: Scenario, t: int, d: SlotDecision, margin: float
) -> tuple[SlotDecision, int]:
    """Move the heaviest users off violated resources to the cheapest room.

    Storage violations move placements, capacity violations move selections;
    each move targets a resource with room left, so total violation strictly
    decreases. Raises RoundingFailedError when a violation has no outlet.
    """
    m, n = s.num_clouds, s.num_users
    lat = s.link_latency[t]
    cov = s.coverage[t]
    placement = list(d.placement)
    selection = list(d.selection)
    moves = 0

    for _ in range(2 * m * n + 1):
        storage = np.bincount(placement, weights=s.service_size, minlength=m)
        if not np.any(storage > s.cloud_capacity):
            break
        i_bad = int(np.argmax(storage - s.cloud_capacity))
        movers = sorted(
            (k for k in range(n) if placement[k] == i_bad),
            key=lambda k: (-s.service_size[k], k),
        )
        moved = False
        for k in movers:
            options = [
                (lat[i, selection[k]], i)
                for i in range(m)
                if i != i_bad and storage[i] + s.service_size[k] <= s.cloud_capacity[i]
            ]
            if options:
                placement[k] = min(options)[1]
                moves += 1
                moved = True
                break
        if not moved:
            raise RoundingFailedError(
                f"storage overload on cloud {i_bad} at slot {t} cannot be repaired"
            )

    for _ in range(2 * m * n + 1):
        load = np.bincount(selection, weights=s.demand[t], minlength=m)
        if not (np.any(load > s.bs_capacity - margin) or np.any(load >= s.bs_capacity)):
            break
        j_bad = int(np.argmax(load - (s.bs_capacity - margin)))
        movers = sorted(
            (k for k in range(n) if selection[k] == j_bad),
            key=lambda k: (-s.demand[t][k], k),
        )
        moved = False
        for k in movers:
            options = []
            for j in cov[k]:
                if j == j_bad:
                    continue
                new_load = load[j] + s.demand[t][k]
                if new_load <= s.bs_capacity[j] - margin and new_load < s.bs_capacity[j]:
                    cost = 1.0 / (s.bs_capacity[j] - new_load) + lat[placement[k], j]
                    options.append((cost, j))
            if options:
                selection[k] = min(options)[1]
                moves += 1
                moved = True
                break
        if not moved:
            raise RoundingFailedError(
                f"capacity overload on station {j_bad} at slot {t} cannot be repaired"
            )

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
    """Fractional solve plus rounding for one slot.

    A warm start seeds the descent with its indicator matrices pushed inside
    the polytope (0.9/0.1 blend with uniform, then capacity repair); when the
    blend cannot be repaired the cold-start path is used instead.
    """
    init = None
    if warm_start is not None:
        blended = _blend_decision(s, t, warm_start, config.margin)
        if blended is not None:
            init = FractionalDecision(x=blended[0], y=blended[1])
    frac, report = solve_fractional(s, t, init=init, config=config)
    decision, attempts, repairs = round_decision(s, t, frac, rng_seed, config)
    return decision, frac, replace(
        report, rounding_attempts=attempts, repair_actions=repairs
    )
