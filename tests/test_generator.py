"""Scenario generation: determinism, geometry, and config parsing."""

from __future__ import annotations

import hashlib
import json
import math

import pytest

import mecsim as ms
from conftest import REPO_ROOT


def test_same_seed_same_scenario(tmp_path):
    cfg = ms.GeneratorConfig(seed=11, grid_width=2, grid_height=2,
                             num_users=3, num_slots=6)
    a = ms.generate(cfg)
    b = ms.generate(cfg)
    assert a == b
    path_a, path_b = tmp_path / "a.json", tmp_path / "b.json"
    ms.save_scenario(a, path_a)
    ms.save_scenario(b, path_b)
    assert path_a.read_bytes() == path_b.read_bytes()


def test_different_seeds_differ():
    base = ms.generate(ms.GeneratorConfig(seed=0, num_users=2, num_slots=4))
    other = ms.generate(ms.GeneratorConfig(seed=1, num_users=2, num_slots=4))
    assert base != other


def test_single_station_grid_covers_everything():
    cfg = ms.GeneratorConfig(seed=5, grid_width=1, grid_height=1,
                             coverage_radius=0.3, num_users=2, num_slots=5)
    s = ms.generate(cfg)
    assert s.num_clouds == 1
    for t in range(s.num_slots):
        for k in range(s.num_users):
            assert s.coverage_at(t, k) == (0,)


def test_uncoverable_radius_rejected():
    cfg = ms.GeneratorConfig(seed=0, grid_width=2, grid_height=2,
                             spacing=1.0, coverage_radius=0.3)
    with pytest.raises(ms.UncoverableAreaError):
        ms.generate(cfg)


def test_a_user_out_of_every_radius_is_rejected(monkeypatch):
    # with the lattice check passed, a user far from every station is caught
    # where coverage is listed
    monkeypatch.setattr("mecsim.generator._worst_gap", lambda cfg: 0.0)
    cfg = ms.GeneratorConfig(seed=0, grid_width=2, grid_height=2, coverage_radius=0.01)
    with pytest.raises(ms.UncoverableAreaError, match="has no station within radius"):
        ms.generate(cfg)


def test_generated_scenario_revalidates_and_round_trips(tmp_path):
    s = ms.generate(ms.GeneratorConfig(seed=21, num_users=2, num_slots=5))
    again = ms.validate_scenario(s.to_mapping())
    assert again == s
    path = tmp_path / "gen.json"
    ms.save_scenario(s, path)
    assert ms.load_scenario(path) == s


def test_coverage_matches_recomputed_geometry():
    cfg = ms.GeneratorConfig(seed=13, grid_width=3, grid_height=2,
                             spacing=1.0, coverage_radius=0.8,
                             num_users=3, num_slots=6)
    s = ms.generate(cfg)
    assert s.positions is not None
    stations = [
        (col * cfg.spacing, row * cfg.spacing)
        for row in range(cfg.grid_height)
        for col in range(cfg.grid_width)
    ]
    for t in range(s.num_slots):
        for k in range(s.num_users):
            px, py = s.positions[t, k]
            near = tuple(
                j for j, (sx, sy) in enumerate(stations)
                if math.hypot(px - sx, py - sy) <= cfg.coverage_radius
            )
            assert near == s.coverage_at(t, k)


def test_latency_is_hop_distance_times_rate():
    cfg = ms.GeneratorConfig(seed=2, grid_width=3, grid_height=2,
                             latency_per_hop=2.5, num_users=1, num_slots=2)
    s = ms.generate(cfg)
    w = cfg.grid_width
    for a in range(s.num_clouds):
        for b in range(s.num_clouds):
            hops = abs(a // w - b // w) + abs(a % w - b % w)
            assert s.link_latency[0][a][b] == 2.5 * hops
    assert s.link_latency[0][0][0] == 0.0


def test_line_walk_coverage_moves_with_position():
    cfg = ms.GeneratorConfig(seed=19, grid_width=3, grid_height=1,
                             spacing=1.0, coverage_radius=0.6,
                             num_users=1, num_slots=12)
    s = ms.generate(cfg)
    assert s.positions is not None
    # on a 1-D lattice the covered index window slides with the user
    slots = sorted(range(s.num_slots), key=lambda t: s.positions[t, 0, 0])
    lows = [min(s.coverage_at(t, 0)) for t in slots]
    highs = [max(s.coverage_at(t, 0)) for t in slots]
    assert lows == sorted(lows)
    assert highs == sorted(highs)


def test_config_from_mapping_rejects_bad_fields():
    with pytest.raises(ms.ParseError):
        ms.GeneratorConfig.from_mapping({})  # seed is required
    with pytest.raises(ms.ParseError):
        ms.GeneratorConfig.from_mapping({"seed": 1, "num_users": 0})
    with pytest.raises(ms.ParseError):
        ms.GeneratorConfig.from_mapping({"seed": 1, "speed_range": [0.5, 0.1]})
    with pytest.raises(ms.ParseError):
        ms.GeneratorConfig.from_mapping({"seed": 1, "mystery": 2})


@pytest.mark.parametrize(
    "fields, name",
    [
        ({"seed": -1}, "generator.seed"),
        ({"grid_width": 0}, "generator.grid_width"),
        ({"num_slots": 0}, "generator.num_slots"),
        ({"spacing": 0.0}, "generator.spacing"),
        ({"coverage_radius": -0.5}, "coverage_radius"),
        ({"latency_per_hop": -1.0}, "generator.latency_per_hop"),
        ({"demand_range": (1.5, 0.5)}, "generator.demand_range must be ordered"),
        ({"pause_range": (-1.0, 2.0)}, "generator.pause_range must be nonnegative"),
        ({"bs_capacity_range": (0.0, 2.0)}, "generator.bs_capacity_range must be strictly"),
    ],
)
def test_config_rejects_out_of_range_values(fields, name):
    with pytest.raises(ms.ParseError, match=name):
        ms.GeneratorConfig(**{"seed": 1, **fields})


@pytest.mark.parametrize(
    "field, value",
    [
        # test_generate_malformed_field_type_exits_2's values, built directly
        ("seed", "x"), ("num_users", 2.5), ("spacing", True),
        ("spacing", math.nan), ("demand_range", (0.5, math.inf)),
        ("demand_range", ("0.5", "1.5")), ("speed_range", (0.05, True)),
        ("spacing", 10**400),
        # accepted or failing inside NumPy when only the parser checked types
        ("seed", 1.5), ("coverage_radius", math.inf), ("speed_range", (math.nan, math.nan)),
        ("grid_width", 2.5), ("num_slots", 2.0), ("num_users", True),
        ("latency_per_hop", math.nan), ("pause_range", (0.0,)), ("demand_range", 1.0),
    ],
)
def test_config_built_directly_checks_types(field, value):
    # seed=1.5 generated the seed-1 scenario; the others failed with a bare
    # TypeError or OverflowError, or late with a ParseError on another field
    with pytest.raises(ms.ParseError, match=f"generator.{field}"):
        ms.GeneratorConfig(**{"seed": 1, field: value})


def test_config_stores_ranges_as_float_pairs():
    cfg = ms.GeneratorConfig(seed=1, demand_range=[1, 2])
    assert cfg.demand_range == (1.0, 2.0)
    assert all(type(v) is float for v in cfg.demand_range)
    assert cfg == ms.GeneratorConfig.from_mapping({"seed": 1, "demand_range": [1, 2]})


def test_user_with_nowhere_to_go_stands_still():
    # A 1x1 grid leaves a zero-size area and no pause: every waypoint is
    # the user's own spot, so the walk gives up and the user stays put.
    s = ms.generate(ms.GeneratorConfig(
        seed=1, grid_width=1, grid_height=1, pause_range=(0.0, 0.0),
        num_users=2, num_slots=3,
    ))
    assert (s.positions == 0.0).all()
    assert s.coverage == (((0,), (0,)),) * 3


_SCENARIO_BYTES = {
    # online-large: the benchmark's 4x4 grid, N=40, 12 slots
    "online-large": (
        dict(seed=0, grid_width=4, grid_height=4, num_users=40, num_slots=12),
        "a63bd81cd3b1e71efd7fdb5127e5b62881d992a9f9be79d7552a835eb0d5405e",
    ),
    # compare-small: 3x1 grid, N=3, 16 slots, one per scenario seed
    "compare-small-9": (
        dict(seed=9, grid_width=3, grid_height=1, num_users=3, num_slots=16),
        "ee180740b1fd8bdf064b6f12191d7b14e634a57175d3ef2f380398bb0e8b9478",
    ),
    "compare-small-13": (
        dict(seed=13, grid_width=3, grid_height=1, num_users=3, num_slots=16),
        "947dff266731dff9ab9ee07e5fc6d1ffa922bb4b409522a7be5c556c520becb9",
    ),
    "compare-small-3": (
        dict(seed=3, grid_width=3, grid_height=1, num_users=3, num_slots=16),
        "7dc4b5e64aa200791001094d655498566901acc1d6c71c19070b4d620e5bb5e7",
    ),
    "configs/small.json": (
        None,
        "7c53bb0cc785cc4fb236caa027566f453e3945632a054f33e9bf4aa57b848152",
    ),
    # 3x1 grid, N=10, 8 slots, services filling 98% of cloud storage
    "configs/tight_storage.json": (
        None,
        "34f29a94b62251c71dc0171f7217abdfd5f9b0dc4c85d9eee7e4ad4bf4936334",
    ),
}


@pytest.mark.parametrize("name", list(_SCENARIO_BYTES))
def test_generated_scenario_bytes_are_unchanged(tmp_path, name):
    # Every scenario digest and run id derives from these bytes; a digest
    # that moves means generation or the file format changed.
    kwargs, digest = _SCENARIO_BYTES[name]
    if kwargs is None:
        doc = json.loads((REPO_ROOT / name).read_text(encoding="utf-8"))
        cfg = ms.GeneratorConfig.from_mapping(doc["generator"])
    else:
        cfg = ms.GeneratorConfig(**kwargs)
    path = tmp_path / "scenario.json"
    ms.save_scenario(ms.generate(cfg), path)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == digest
