"""Synthetic scenario generation.

Stations sit on a rectangular lattice; each is co-located with one edge
cloud. Users move by random waypoint inside the lattice rectangle: pick a
uniform target, walk at a uniform-drawn speed, pause, repeat. Coverage is
everything within the radius, link latency is proportional to lattice hop
distance, and per-slot demand is redrawn uniformly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from typing import Any, Mapping

import numpy as np

from .errors import ParseError, UncoverableAreaError
from .model import Scenario, _echo, _integer, _number, _real
from .seeding import GENERATION, substream_seed

__all__ = ["GeneratorConfig", "generate"]


@dataclass(frozen=True)
class GeneratorConfig:
    seed: int
    grid_width: int = 3
    grid_height: int = 3
    spacing: float = 1.0
    coverage_radius: float = 0.75
    speed_range: tuple[float, float] = (0.05, 0.3)
    pause_range: tuple[float, float] = (0.0, 2.0)
    demand_range: tuple[float, float] = (0.5, 1.5)
    service_size_range: tuple[float, float] = (0.5, 2.0)
    bs_capacity_range: tuple[float, float] = (8.0, 12.0)
    cloud_capacity_range: tuple[float, float] = (4.0, 8.0)
    latency_per_hop: float = 1.0
    num_users: int = 3
    num_slots: int = 10

    def __post_init__(self):
        for f in fields(self):
            value, what = getattr(self, f.name), f"generator.{f.name}"
            if f.name.endswith("_range"):
                pair = isinstance(value, (list, tuple)) and len(value) == 2
                if not pair or None in map(_number, value):
                    raise ParseError(
                        f"{what} must be a [lo, hi] pair of numbers, got {value!r}"
                    )
                lo, hi = value = tuple(map(_real, value))
                if None in value or not (math.isfinite(lo) and math.isfinite(hi)):
                    raise ParseError(f"{what} must be finite")
                if lo > hi:
                    raise ParseError(f"{what} must be ordered (lo, hi)")
                if f.name == "pause_range":
                    if lo < 0:
                        raise ParseError(f"{what} must be nonnegative")
                elif lo <= 0:
                    raise ParseError(f"{what} must be strictly positive")
            elif f.type == "int":
                number = _integer(value)
                if number is None:
                    raise ParseError(f"{what} must be an integer, got {value!r}")
                value = number
            else:
                real = _real(value)
                if real is None or not math.isfinite(real):
                    raise ParseError(f"{what} must be a finite number, got {_echo(value)}")
                value = _number(value)
            object.__setattr__(self, f.name, value)
        if self.seed < 0:
            raise ParseError("generator.seed must be nonnegative")
        for name in ("grid_width", "grid_height", "num_users", "num_slots"):
            if getattr(self, name) < 1:
                raise ParseError(f"generator.{name} must be at least 1")
        if self.spacing <= 0 or self.coverage_radius <= 0:
            raise ParseError("generator.spacing and coverage_radius must be positive")
        if self.latency_per_hop < 0:
            raise ParseError("generator.latency_per_hop must be nonnegative")

    @classmethod
    def from_mapping(cls, doc: Mapping[str, Any]) -> "GeneratorConfig":
        if not isinstance(doc, Mapping):
            raise ParseError("config section generator must be a mapping")
        unknown = set(doc) - {f.name for f in fields(cls)}
        if unknown:
            raise ParseError(f"unknown generator field: {sorted(unknown)[0]}")
        if "seed" not in doc:
            raise ParseError("missing required field: generator.seed")
        return cls(**doc)


def _worst_gap(cfg: GeneratorConfig) -> float:
    """Largest distance from a point of the movement rectangle to a station."""
    dx = cfg.spacing / 2.0 if cfg.grid_width > 1 else 0.0
    dy = cfg.spacing / 2.0 if cfg.grid_height > 1 else 0.0
    return math.hypot(dx, dy)


def generate(cfg: GeneratorConfig) -> Scenario:
    """Build a scenario; identical configs produce identical scenarios."""
    gap = _worst_gap(cfg)
    if cfg.coverage_radius < gap:
        raise UncoverableAreaError(
            f"coverage radius {cfg.coverage_radius:g} leaves gaps; the lattice "
            f"needs at least {gap:g}"
        )

    m = cfg.grid_width * cfg.grid_height
    n = cfg.num_users
    horizon = cfg.num_slots
    width = (cfg.grid_width - 1) * cfg.spacing
    height = (cfg.grid_height - 1) * cfg.spacing
    rng = np.random.default_rng(substream_seed(cfg.seed, GENERATION))

    stations = np.array(
        [
            (col * cfg.spacing, row * cfg.spacing)
            for row in range(cfg.grid_height)
            for col in range(cfg.grid_width)
        ]
    )

    bs_capacity = rng.uniform(*cfg.bs_capacity_range, size=m)
    cloud_capacity = rng.uniform(*cfg.cloud_capacity_range, size=m)
    service_size = rng.uniform(*cfg.service_size_range, size=n)

    positions = np.empty((horizon, n, 2))
    for k in range(n):
        pos = np.array([rng.uniform(0.0, width), rng.uniform(0.0, height)])
        target: np.ndarray | None = None
        speed = 0.0
        pause = 0.0
        positions[0, k] = pos
        for t in range(1, horizon):
            remaining = 1.0
            spins = 0
            while remaining > 1e-12:
                spins += 1
                if spins > 1000:  # degenerate area: nowhere to go, stand still
                    break
                if pause > 0.0:
                    used = min(pause, remaining)
                    pause -= used
                    remaining -= used
                    continue
                if target is None:
                    target = np.array(
                        [rng.uniform(0.0, width), rng.uniform(0.0, height)]
                    )
                    speed = rng.uniform(*cfg.speed_range)
                dist = float(np.hypot(*(target - pos)))
                reach = speed * remaining
                if reach >= dist:
                    pos = target.copy()
                    remaining -= dist / speed
                    target = None
                    pause = rng.uniform(*cfg.pause_range)
                else:
                    pos = pos + (target - pos) * (reach / dist)
                    remaining = 0.0
            positions[t, k] = pos

    demand = rng.uniform(*cfg.demand_range, size=(horizon, n))

    coverage = []
    for t in range(horizon):
        per_user = []
        for k in range(n):
            near = [
                j
                for j in range(m)
                if math.hypot(*(positions[t, k] - stations[j])) <= cfg.coverage_radius
            ]
            if not near:
                raise UncoverableAreaError(
                    f"user {k} at slot {t} has no station within radius"
                )
            per_user.append(near)
        coverage.append(per_user)

    grid_pos = [(j // cfg.grid_width, j % cfg.grid_width) for j in range(m)]
    hop = np.empty((m, m))
    for a in range(m):
        for b in range(m):
            hop[a, b] = abs(grid_pos[a][0] - grid_pos[b][0]) + abs(
                grid_pos[a][1] - grid_pos[b][1]
            )
    latency = cfg.latency_per_hop * hop
    link_latency = np.tile(latency, (horizon, 1, 1))

    return Scenario(
        num_clouds=m,
        num_users=n,
        num_slots=horizon,
        bs_capacity=bs_capacity,
        cloud_capacity=cloud_capacity,
        service_size=service_size,
        link_latency=link_latency,
        coverage=coverage,
        demand=demand,
        positions=positions,
    )
