"""Core data model: scenarios, decisions, delay breakdowns, controller state.

A scenario describes M edge clouds (each co-located with one base station,
shared index space 0..M-1) and N users over a horizon of discrete slots.
Per-slot data: an MxM link-latency matrix (row = hosting cloud, column =
access station), per-user reachable-station sets, and per-user demand.
Time-constant data: station capacities, cloud storage capacities, per-user
service sizes.

Every integer the model takes is a Python or NumPy integer (``_integer``),
every number such an integer or a Python or NumPy float that a float can
hold (``_real``), never a bool; NumPy scalars are stored as Python numbers.
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
    contiguous float64 copies, and every entry must pass ``_real`` (a bool
    or a string is rejected, not coerced); coverage becomes a tuple
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
            count = _integer(getattr(self, field))
            if count is None or count < 1:
                raise ParseError(f"field {field} must be a positive integer")
            object.__setattr__(self, field, count)
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
    """Integral decision for one slot: per-user hosting cloud and station,
    each an integer >= 0 (``_indices``)."""

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
        """Indicator matrix x with x[i, k] = 1 iff user k's service sits on
        cloud i; entries are >= 0, so none wraps (IndexError past M - 1)."""
        return np.eye(num_clouds)[:, self.placement]

    def selection_matrix(self, num_clouds: int) -> np.ndarray:
        """Indicator matrix y with y[j, k] = 1 iff user k connects through
        station j; as ``placement_matrix``, no entry wraps."""
        return np.eye(num_clouds)[:, self.selection]


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
        if not isinstance(self.prev_decision, SlotDecision):
            raise ValueError(
                f"prev_decision must be a SlotDecision, got {_echo(self.prev_decision)}"
            )
        object.__setattr__(self, "beta", check_beta(self.beta))
        slot = _nonnegative_integer("last_migration_slot", self.last_migration_slot)
        object.__setattr__(self, "last_migration_slot", slot)
        _finite_nonnegative("accumulated_t2", self.accumulated_t2)
        object.__setattr__(self, "accumulated_t2", _number(self.accumulated_t2))


def _echo(value: Any) -> str:
    """``repr(value)`` for an error message, cut to its first 20 characters
    and "..." when longer, so an oversized number is not printed in full."""
    try:
        text = repr(value)
    except ValueError:  # an int past Python's digit limit of str()
        return "an integer too long to print"
    return text if len(text) <= 23 else text[:20] + "..."


def _integer(value: Any) -> int | None:
    """The integer rule: ``value`` as the int ``operator.index`` gives, so
    for a Python or NumPy integer; None for a bool (``np.bool_`` has no
    index), a float, a string or anything else."""
    try:
        return None if isinstance(value, bool) else operator.index(value)
    except TypeError:
        return None


def _number(value: Any) -> int | float | None:
    """The number rule: an ``_integer`` as its int, a Python or NumPy float
    as a float; None for anything else, a bool included."""
    if isinstance(value, (float, np.floating)):
        return float(value)
    return _integer(value)


def _real(value: Any) -> float | None:
    """``value`` as a float when ``_number`` accepts it and a float can
    hold it, else None."""
    try:
        return float(_number(value))
    except (TypeError, OverflowError):  # None, or an int past a float's range
        return None


def _nonnegative_integer(name: str, value: Any) -> int:
    """``value`` as the int ``_integer`` gives; ValueError unless it is
    one and >= 0."""
    out = _integer(value)
    if out is None or out < 0:
        raise ValueError(f"{name} must be an integer >= 0, got {_echo(value)}")
    return out


def _finite_nonnegative(name: str, value: Any) -> float:
    """``value`` as a float, -0.0 as 0.0; ValueError unless ``_real`` gives
    a finite float >= 0 for it."""
    out = _real(value)
    if out is None or not (math.isfinite(out) and out >= 0):
        raise ValueError(f"{name} must be a finite number >= 0, got {_echo(value)}")
    return out + 0.0


def _indices(name: str, values: Sequence) -> tuple[int, ...]:
    """``values`` as a tuple of ints >= 0: ``_integer``'s rule over the whole
    sequence, then one ``min``. ValueError for a bool, a float, a string or
    a negative entry, which is rejected, not truncated or wrapped."""
    try:
        if bool in map(type, values):
            raise TypeError
        out = tuple(map(operator.index, values))
    except TypeError:
        raise ValueError(f"{name} entries must be integers, got {values!r}") from None
    if out and min(out) < 0:
        raise ValueError(f"{name} entries must be >= 0, got {values!r}")
    return out


def _as_float_array(name: str, value: Any, shape: tuple[int, ...]) -> np.ndarray:
    """The field as a contiguous float64 copy of ``shape``. Every leaf must
    pass ``_real``, so a bool or a numeric string is rejected, not coerced;
    an int or float NumPy array has no other leaves."""
    if isinstance(value, np.ndarray) and value.dtype.kind in "iuf":
        arr = np.array(value, dtype=float, order="C")
    else:
        leaves = np.asarray(value, dtype=object)
        flat = leaves.ravel().tolist()
        floats = [_real(leaf) for leaf in flat]
        if None in floats:
            leaf = flat[floats.index(None)]
            if _number(leaf) is None:
                raise ParseError(f"field {name} is not numeric: {leaf!r} is not a number")
            raise ParseError(f"field {name} is too large for a float")
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
            what = f"coverage of user {k} at slot {t}"
            stations = [_integer(j) for j in _entries(stations, what)]
            if None in stations:
                raise ParseError(f"{what} must list integer station indices")
            cleaned = sorted(set(stations))
            if not cleaned:
                raise EmptyCoverageError(user=k, slot=t)
            if cleaned[0] < 0 or cleaned[-1] >= m:
                raise DimensionMismatchError(f"{what} has station index out of range")
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
    return Scenario(**{field: raw[field] for field in required}, positions=raw.get("positions"))


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

    Storage and load are ``_tally``'s sums, user by user in user order
    from 0.0 on plain lists: the floats ``np.bincount`` forms, without its
    fixed cost on a few users. The search's states keep the same tallies.
    """
    check_slot(s, t)
    check_margin(margin)
    if d.num_users != s.num_users:
        return False

    # entries are >= 0 by construction, and coverage lies inside range(M)
    if max(d.placement) >= s.num_clouds or any(
        j not in stations for j, stations in zip(d.selection, s.coverage[t])
    ):
        return False

    storage, load, _ = _tally(
        s.num_clouds, d.placement, d.selection, s.service_size.tolist(), s.demand[t].tolist()
    )
    if any(u > cap for u, cap in zip(storage, s.cloud_capacity.tolist())):
        return False
    limit = station_limit(s.bs_capacity, margin).tolist()
    return all(u <= cap for u, cap in zip(load, limit))


def _tally(m: int, placement, selection, sizes, demand) -> tuple[list, list, list]:
    """Storage per cloud, and load and users per station, over ``m`` clouds
    and stations: summed user by user in user order from 0.0, the sums
    ``decision_feasible`` tests."""
    used = [0.0] * m
    load = [0.0] * m
    users_on = [0] * m
    for i, j, size, c in zip(placement, selection, sizes, demand):
        used[i] += size
        load[j] += c
        users_on[j] += 1
    return used, load, users_on


def check_slot(s: Scenario, t: Any) -> None:
    """Raise ValueError unless ``t`` is an integer in ``range(s.num_slots)``.

    Without it a negative slot would index from the end of the horizon.
    """
    slot = _integer(t)
    if slot is None or not 0 <= slot < s.num_slots:
        raise ValueError(f"slot must be an integer in range({s.num_slots}), got {_echo(t)}")


def check_decision(s: Scenario, d: SlotDecision) -> None:
    """Raise ValueError unless ``d`` is a ``SlotDecision`` and each of its
    clouds and stations is in ``range(s.num_clouds)``, and
    DimensionMismatchError unless it has one entry per user.

    Without it a short decision would be zipped short and an index outside
    the clouds would be priced as a move; entries are >= 0 by construction.
    """
    if not isinstance(d, SlotDecision):
        raise ValueError(f"a decision must be a SlotDecision, got {_echo(d)}")
    if d.num_users != s.num_users:
        raise DimensionMismatchError(
            f"decision covers {d.num_users} users, expected {s.num_users}"
        )
    if max(d.placement + d.selection) >= s.num_clouds:
        raise ValueError(
            f"decision names a cloud or station outside range({s.num_clouds})"
        )


def check_margin(margin: Any) -> float:
    """``margin`` as a float, -0.0 as 0.0; ValueError unless it is a finite
    number >= 0 that a float can hold (not a bool)."""
    return _finite_nonnegative("margin", margin)


def check_beta(beta: Any) -> float:
    """``beta`` as a float, -0.0 as 0.0; ValueError unless it is a number
    >= 0, inf included, that a float can hold (not a bool, not NaN)."""
    value = _real(beta)
    if value is None or not value >= 0:
        raise ValueError(f"beta must be a nonnegative number, got {_echo(beta)}")
    return value + 0.0


def station_limit(capacity: np.ndarray, margin: float) -> np.ndarray:
    """Highest load each station may carry, the station rule of integral
    decisions: a load fits when it is at most ``capacity - margin`` and
    strictly below ``capacity``, that is at most this limit.
    """
    return np.minimum(capacity - margin, np.nextafter(capacity, -np.inf))
