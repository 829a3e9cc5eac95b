"""Core data model: scenarios, decisions, delay breakdowns, controller state.

A scenario describes M edge clouds (each co-located with one base station,
shared index space 0..M-1) and N users over a horizon of discrete slots.
Per-slot data: an MxM link-latency matrix (row = hosting cloud, column =
access station), per-user reachable-station sets, and per-user demand.
Time-constant data: station capacities, cloud storage capacities, per-user
service sizes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Mapping, Sequence

import numpy as np

from .errors import (
    DimensionMismatchError,
    EmptyCoverageError,
    NonPositiveCapacityError,
    ParseError,
)

__all__ = [
    "Scenario",
    "SlotDecision",
    "FractionalDecision",
    "DelayBreakdown",
    "ControllerState",
    "validate_scenario",
    "decision_feasible",
]


@dataclass(frozen=True, eq=False)
class Scenario:
    """Validated, normalized problem instance.

    Arrays are float64; coverage is a tuple (over slots) of tuples (over
    users) of sorted station-index tuples. ``positions`` is optional
    generator output of shape (num_slots, num_users, 2) and is never read
    by the model itself.
    """

    num_clouds: int
    num_users: int
    num_slots: int
    bs_capacity: np.ndarray      # (M,) station serving capacity C_j
    cloud_capacity: np.ndarray   # (M,) cloud storage capacity S_i
    service_size: np.ndarray     # (N,) per-user service size s_k
    link_latency: np.ndarray     # (T, M, M) latency[t][cloud][station]
    coverage: tuple[tuple[tuple[int, ...], ...], ...]  # [t][k] -> stations
    demand: np.ndarray           # (T, N) per-slot demand c_k(t)
    positions: np.ndarray | None = None  # (T, N, 2) user coordinates

    def coverage_at(self, t: int, user: int) -> tuple[int, ...]:
        return self.coverage[t][user]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Scenario):
            return NotImplemented
        if (self.num_clouds, self.num_users, self.num_slots) != (
            other.num_clouds,
            other.num_users,
            other.num_slots,
        ):
            return False
        if self.coverage != other.coverage:
            return False
        for a, b in (
            (self.bs_capacity, other.bs_capacity),
            (self.cloud_capacity, other.cloud_capacity),
            (self.service_size, other.service_size),
            (self.link_latency, other.link_latency),
            (self.demand, other.demand),
        ):
            if not np.array_equal(a, b):
                return False
        if (self.positions is None) != (other.positions is None):
            return False
        if self.positions is not None and not np.array_equal(
            self.positions, other.positions
        ):
            return False
        return True

    def to_mapping(self) -> dict[str, Any]:
        """Plain-type mapping used by the file format."""
        doc: dict[str, Any] = {
            "num_clouds": self.num_clouds,
            "num_users": self.num_users,
            "num_slots": self.num_slots,
            "bs_capacity": self.bs_capacity.tolist(),
            "cloud_capacity": self.cloud_capacity.tolist(),
            "service_size": self.service_size.tolist(),
            "link_latency": self.link_latency.tolist(),
            "coverage": [
                [list(stations) for stations in per_user]
                for per_user in self.coverage
            ],
            "demand": self.demand.tolist(),
        }
        if self.positions is not None:
            doc["positions"] = self.positions.tolist()
        return doc


@dataclass(frozen=True)
class SlotDecision:
    """Integral decision for one slot: per-user hosting cloud and station."""

    placement: tuple[int, ...]  # placement[k] = cloud hosting user k's service
    selection: tuple[int, ...]  # selection[k] = station user k connects through

    def __post_init__(self):
        if len(self.placement) != len(self.selection):
            raise ValueError("placement and selection must cover the same users")
        object.__setattr__(self, "placement", tuple(int(i) for i in self.placement))
        object.__setattr__(self, "selection", tuple(int(j) for j in self.selection))

    @property
    def num_users(self) -> int:
        return len(self.placement)

    def placement_matrix(self, num_clouds: int) -> np.ndarray:
        """Indicator matrix x with x[i, k] = 1 iff user k's service sits on cloud i."""
        x = np.zeros((num_clouds, self.num_users))
        x[list(self.placement), range(self.num_users)] = 1.0
        return x

    def selection_matrix(self, num_clouds: int) -> np.ndarray:
        """Indicator matrix y with y[j, k] = 1 iff user k connects through station j."""
        y = np.zeros((num_clouds, self.num_users))
        y[list(self.selection), range(self.num_users)] = 1.0
        return y


@dataclass(frozen=True)
class FractionalDecision:
    """Relaxed decision: column-stochastic placement and selection weights."""

    x: np.ndarray  # (M, N), column k sums to 1
    y: np.ndarray  # (M, N), column k sums to 1, support inside coverage

    def __post_init__(self):
        object.__setattr__(self, "x", np.asarray(self.x, dtype=float))
        object.__setattr__(self, "y", np.asarray(self.y, dtype=float))
        if self.x.shape != self.y.shape or self.x.ndim != 2:
            raise ValueError("x and y must be matching (clouds, users) matrices")


@dataclass(frozen=True)
class DelayBreakdown:
    """Per-slot delay components; sums are formed once, never re-derived."""

    switching: float
    queuing: float
    communication: float
    non_switching: float
    total: float

    @classmethod
    def assemble(
        cls, switching: float, queuing: float, communication: float
    ) -> "DelayBreakdown":
        non_switching = queuing + communication
        return cls(
            switching=switching,
            queuing=queuing,
            communication=communication,
            non_switching=non_switching,
            total=non_switching + switching,
        )


@dataclass(frozen=True)
class ControllerState:
    """Online-controller carry-over between consecutive slots."""

    prev_decision: SlotDecision
    last_migration_slot: int
    accumulated_t2: float  # adopted non-switching delay since last migration
    beta: float

    def __post_init__(self):
        if self.beta < 0:
            raise ValueError("beta must be nonnegative")


def _require(doc: Mapping[str, Any], field: str) -> Any:
    if field not in doc:
        raise ParseError(f"missing required field: {field}")
    return doc[field]


def _as_float_array(name: str, value: Any, shape: tuple[int, ...]) -> np.ndarray:
    try:
        arr = np.asarray(value, dtype=float)
    except (TypeError, ValueError) as exc:
        raise ParseError(f"field {name} is not numeric: {exc}") from None
    if arr.shape != shape:
        raise DimensionMismatchError(
            f"field {name} has shape {arr.shape}, expected {shape}"
        )
    if not np.all(np.isfinite(arr)):
        raise ParseError(f"field {name} contains non-finite values")
    return np.ascontiguousarray(arr)


def _entries(value: Any, what: str) -> list:
    """The items of a list field; a scalar, string or mapping is a parse error."""
    if isinstance(value, (str, bytes, Mapping)):
        raise ParseError(f"{what} must be a list")
    try:
        return list(value)
    except TypeError:
        raise ParseError(f"{what} must be a list") from None


def _positive(name: str, arr: np.ndarray) -> None:
    if np.any(arr <= 0):
        raise NonPositiveCapacityError(f"field {name} must be strictly positive")


def validate_scenario(raw: Mapping[str, Any]) -> Scenario:
    """Check a parsed scenario document and return the normalized instance.

    Raises ParseError / DimensionMismatchError / NonPositiveCapacityError /
    EmptyCoverageError with the offending field or index in the message.
    """
    if not isinstance(raw, Mapping):
        raise ParseError("scenario document must be a mapping")

    dims = {}
    for field in ("num_clouds", "num_users", "num_slots"):
        value = _require(raw, field)
        if not isinstance(value, int) or isinstance(value, bool) or value < 1:
            raise ParseError(f"field {field} must be a positive integer")
        dims[field] = value
    m, n, horizon = dims["num_clouds"], dims["num_users"], dims["num_slots"]

    bs_capacity = _as_float_array("bs_capacity", _require(raw, "bs_capacity"), (m,))
    cloud_capacity = _as_float_array(
        "cloud_capacity", _require(raw, "cloud_capacity"), (m,)
    )
    service_size = _as_float_array(
        "service_size", _require(raw, "service_size"), (n,)
    )
    link_latency = _as_float_array(
        "link_latency", _require(raw, "link_latency"), (horizon, m, m)
    )
    demand = _as_float_array("demand", _require(raw, "demand"), (horizon, n))

    _positive("bs_capacity", bs_capacity)
    _positive("cloud_capacity", cloud_capacity)
    _positive("service_size", service_size)
    _positive("demand", demand)
    if np.any(link_latency < 0):
        raise ParseError("field link_latency must be nonnegative")

    raw_coverage = _entries(_require(raw, "coverage"), "field coverage")
    if len(raw_coverage) != horizon:
        raise DimensionMismatchError(
            f"field coverage has {len(raw_coverage)} slots, expected {horizon}"
        )
    coverage: list[tuple[tuple[int, ...], ...]] = []
    for t, per_user in enumerate(raw_coverage):
        per_user = _entries(per_user, f"field coverage slot {t}")
        if len(per_user) != n:
            raise DimensionMismatchError(
                f"field coverage slot {t} lists {len(per_user)} users, expected {n}"
            )
        slot_sets: list[tuple[int, ...]] = []
        for k, stations in enumerate(per_user):
            stations = _entries(stations, f"coverage of user {k} at slot {t}")
            if not all(
                isinstance(j, (int, np.integer)) and not isinstance(j, bool)
                for j in stations
            ):
                raise ParseError(
                    f"coverage of user {k} at slot {t} must list integer station indices"
                )
            cleaned = sorted({int(j) for j in stations})
            if any(j < 0 or j >= m for j in cleaned):
                raise DimensionMismatchError(
                    f"coverage of user {k} at slot {t} has station index out of range"
                )
            if not cleaned:
                raise EmptyCoverageError(user=k, slot=t)
            slot_sets.append(tuple(cleaned))
        coverage.append(tuple(slot_sets))

    positions = None
    if raw.get("positions") is not None:
        positions = _as_float_array("positions", raw["positions"], (horizon, n, 2))

    return Scenario(
        num_clouds=m,
        num_users=n,
        num_slots=horizon,
        bs_capacity=bs_capacity,
        cloud_capacity=cloud_capacity,
        service_size=service_size,
        link_latency=link_latency,
        coverage=tuple(coverage),
        demand=demand,
        positions=positions,
    )


def decision_feasible(
    s: Scenario, t: int, d: SlotDecision, margin: float = 1e-6
) -> bool:
    """True iff the integral decision satisfies every slot-t constraint.

    Placement, storage, and coverage are exact checks; station load must stay
    at or below capacity minus ``margin`` and strictly below capacity (the
    queuing delay diverges at capacity, so feasibility is defined strictly
    inside it, also when ``margin`` is 0).
    """
    if d.num_users != s.num_users:
        return False
    if math.isinf(margin) or math.isnan(margin) or margin < 0:
        raise ValueError("margin must be a finite nonnegative float")

    for k, (i, j) in enumerate(zip(d.placement, d.selection)):
        if not (0 <= i < s.num_clouds and 0 <= j < s.num_clouds):
            return False
        if j not in s.coverage[t][k]:
            return False

    storage = np.bincount(
        d.placement, weights=s.service_size, minlength=s.num_clouds
    )
    if np.any(storage > s.cloud_capacity):
        return False

    load = np.bincount(
        d.selection, weights=s.demand[t], minlength=s.num_clouds
    )
    return bool(np.all(load <= station_limit(s.bs_capacity, margin)))


def station_limit(capacity: np.ndarray, margin: float) -> np.ndarray:
    """Highest load each station may carry, the station rule of integral
    decisions: a load fits when it is at most ``capacity - margin`` and
    strictly below ``capacity``, that is at most this limit.
    """
    return np.minimum(capacity - margin, np.nextafter(capacity, -np.inf))
