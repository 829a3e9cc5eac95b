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
import operator
from dataclasses import dataclass, fields
from typing import Any, Mapping, Sequence

import numpy as np

from .errors import (
    DimensionMismatchError,
    EmptyCoverageError,
    NonPositiveCapacityError,
    ParseError,
)

__all__ = [
    "DEFAULT_MARGIN",
    "Scenario",
    "SlotDecision",
    "FractionalDecision",
    "DelayBreakdown",
    "ControllerState",
    "validate_scenario",
    "decision_feasible",
]

# Default station capacity margin of every integral decision: a station's
# load must stay at or below its capacity less this margin.
DEFAULT_MARGIN = 1e-6


@dataclass(frozen=True, eq=False)
class Scenario:
    """Validated, normalized problem instance.

    Every construction checks the instance and raises ParseError /
    DimensionMismatchError / NonPositiveCapacityError / EmptyCoverageError
    with the offending field or index in the message. Arrays become
    contiguous float64 copies, and every entry must be an int or a float
    (a bool or a string is rejected, not coerced); coverage becomes a tuple
    (over slots) of tuples (over users) of sorted station-index tuples.
    ``positions`` is optional generator output of shape
    (num_slots, num_users, 2) and is never read by the model itself.
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

    def __post_init__(self):
        for field in ("num_clouds", "num_users", "num_slots"):
            value = getattr(self, field)
            if not isinstance(value, int) or isinstance(value, bool) or value < 1:
                raise ParseError(f"field {field} must be a positive integer")
        m, n, horizon = self.num_clouds, self.num_users, self.num_slots
        shapes = {
            "bs_capacity": (m,),
            "cloud_capacity": (m,),
            "service_size": (n,),
            "link_latency": (horizon, m, m),
            "demand": (horizon, n),
        }
        if self.positions is not None:
            shapes["positions"] = (horizon, n, 2)
        for field, shape in shapes.items():
            object.__setattr__(
                self, field, _as_float_array(field, getattr(self, field), shape)
            )
        for field in ("bs_capacity", "cloud_capacity", "service_size", "demand"):
            if np.any(getattr(self, field) <= 0):
                raise NonPositiveCapacityError(f"field {field} must be strictly positive")
        if np.any(self.link_latency < 0):
            raise ParseError("field link_latency must be nonnegative")
        object.__setattr__(self, "coverage", _as_coverage(self.coverage, m, n, horizon))

    def coverage_at(self, t: int, user: int) -> tuple[int, ...]:
        return self.coverage[t][user]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Scenario):
            return NotImplemented
        return self.to_mapping() == other.to_mapping()

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
        object.__setattr__(self, "placement", _indices("placement", self.placement))
        object.__setattr__(self, "selection", _indices("selection", self.selection))

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
        object.__setattr__(self, "beta", check_beta(self.beta))
        slot = self.last_migration_slot
        if isinstance(slot, bool) or not isinstance(slot, (int, np.integer)) or slot < 0:
            raise ValueError(f"last_migration_slot must be an integer >= 0, got {slot!r}")
        t2 = _real(self.accumulated_t2)
        if t2 is None or not (math.isfinite(t2) and t2 >= 0):
            raise ValueError(
                f"accumulated_t2 must be a finite number >= 0, got {self.accumulated_t2!r}"
            )


def _is_number(value: Any) -> bool:
    """A real number as JSON gives one: int or float, bools excluded."""
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _to_float(value: int | float, what: str) -> float:
    """``float(value)`` for a number ``_is_number`` accepts; ParseError for
    an integer too large for a float."""
    out = _real(value)
    if out is None:
        raise ParseError(f"{what} is too large for a float")
    return out


def _real(value: Any) -> float | None:
    """``value`` as a float when ``_is_number`` accepts it and a float can
    hold it, else None."""
    if not _is_number(value):
        return None
    try:
        return float(value)
    except OverflowError:
        return None


def _indices(name: str, values: Sequence) -> tuple[int, ...]:
    """``values`` as a tuple of ints; ValueError unless every entry is an
    int or a NumPy integer, so a bool, a float or a string is rejected, not
    truncated."""
    try:
        if bool in map(type, values):
            raise TypeError
        return tuple(map(operator.index, values))
    except TypeError:
        raise ValueError(f"{name} entries must be integers, got {values!r}") from None


def _as_float_array(name: str, value: Any, shape: tuple[int, ...]) -> np.ndarray:
    """The field as a contiguous float64 copy of ``shape``. Every leaf must
    pass ``_is_number``, so a bool or a numeric string is rejected, not
    coerced; an int or float NumPy array has no other leaves."""
    what = f"field {name}"
    if isinstance(value, np.ndarray) and value.dtype.kind in "iuf":
        arr = np.array(value, dtype=float, order="C")
    else:
        leaves = np.asarray(value, dtype=object)
        floats = []
        for leaf in leaves.ravel().tolist():
            if not _is_number(leaf):
                raise ParseError(f"{what} is not numeric: {leaf!r} is not a number")
            floats.append(_to_float(leaf, what))
        arr = np.array(floats, dtype=float).reshape(leaves.shape)
    if arr.shape != shape:
        raise DimensionMismatchError(
            f"field {name} has shape {arr.shape}, expected {shape}"
        )
    if not np.all(np.isfinite(arr)):
        raise ParseError(f"field {name} contains non-finite values")
    return arr


def _entries(value: Any, what: str) -> list:
    """The items of a list field; a scalar, string or mapping is a parse error."""
    if isinstance(value, (str, bytes, Mapping)):
        raise ParseError(f"{what} must be a list")
    try:
        return list(value)
    except TypeError:
        raise ParseError(f"{what} must be a list") from None


def _as_coverage(
    value: Any, m: int, n: int, horizon: int
) -> tuple[tuple[tuple[int, ...], ...], ...]:
    """Coverage as per-slot, per-user sorted tuples of distinct stations in
    ``range(m)``; every user covered at every slot."""
    slots = _entries(value, "field coverage")
    if len(slots) != horizon:
        raise DimensionMismatchError(
            f"field coverage has {len(slots)} slots, expected {horizon}"
        )
    coverage: list[tuple[tuple[int, ...], ...]] = []
    for t, per_user in enumerate(slots):
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
    return tuple(coverage)


def validate_scenario(raw: Mapping[str, Any]) -> Scenario:
    """Build the scenario of a parsed scenario document.

    Raises ParseError unless the document is a mapping with every required
    field and no field ``Scenario`` lacks; ``Scenario`` checks the fields
    themselves.
    """
    if not isinstance(raw, Mapping):
        raise ParseError("scenario document must be a mapping")
    known = [f.name for f in fields(Scenario)]
    unknown = set(raw) - set(known)
    if unknown:
        raise ParseError(f"unknown scenario field: {sorted(map(str, unknown))[0]}")
    required = [f for f in known if f != "positions"]
    for field in required:
        if field not in raw:
            raise ParseError(f"missing required field: {field}")
    return Scenario(
        **{field: raw[field] for field in required}, positions=raw.get("positions")
    )


def decision_feasible(
    s: Scenario, t: int, d: SlotDecision, margin: float = DEFAULT_MARGIN
) -> bool:
    """True iff the integral decision satisfies every slot-t constraint.

    Placement, storage, and coverage are exact checks; station load must stay
    at or below capacity minus ``margin`` and strictly below capacity (the
    queuing delay diverges at capacity, so feasibility is defined strictly
    inside it, also when ``margin`` is 0). Raises ValueError unless ``t``
    is an integer in ``range(s.num_slots)`` and ``margin`` passes
    ``check_margin``.
    """
    check_slot(s, t)
    check_margin(margin)
    if d.num_users != s.num_users:
        return False

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


def check_slot(s: Scenario, t: Any) -> None:
    """Raise ValueError unless ``t`` is an integer in ``range(s.num_slots)``.

    Without it a negative slot would index from the end of the horizon.
    """
    if isinstance(t, bool) or not isinstance(t, (int, np.integer)) or not (
        0 <= t < s.num_slots
    ):
        raise ValueError(f"slot must be an integer in range({s.num_slots}), got {t!r}")


def check_decision(s: Scenario, d: SlotDecision) -> None:
    """Raise DimensionMismatchError unless ``d`` has one entry per user, and
    ValueError unless each of its clouds and stations is in
    ``range(s.num_clouds)``.

    Without it a short decision would be zipped short and an index outside
    the clouds would be priced as a move.
    """
    if d.num_users != s.num_users:
        raise DimensionMismatchError(
            f"decision covers {d.num_users} users, expected {s.num_users}"
        )
    if not all(0 <= i < s.num_clouds for i in d.placement + d.selection):
        raise ValueError(
            f"decision names a cloud or station outside range({s.num_clouds})"
        )


def check_margin(margin: Any) -> float:
    """``margin`` as a float, -0.0 as 0.0; ValueError unless it is a finite
    number >= 0 that a float can hold (not a bool)."""
    value = _real(margin)
    if value is None or not (math.isfinite(value) and value >= 0):
        raise ValueError(f"margin must be a finite number >= 0, got {margin!r}")
    return value + 0.0


def check_beta(beta: Any) -> float:
    """``beta`` as a float, -0.0 as 0.0; ValueError unless it is a number
    >= 0, inf included, that a float can hold (not a bool, not NaN)."""
    value = _real(beta)
    if value is None or not value >= 0:
        raise ValueError(f"beta must be a nonnegative number, got {beta!r}")
    return value + 0.0


def station_limit(capacity: np.ndarray, margin: float) -> np.ndarray:
    """Highest load each station may carry, the station rule of integral
    decisions: a load fits when it is at most ``capacity - margin`` and
    strictly below ``capacity``, that is at most this limit.
    """
    return np.minimum(capacity - margin, np.nextafter(capacity, -np.inf))
