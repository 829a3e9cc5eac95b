"""Scenario generation: determinism, geometry, and config parsing."""

from __future__ import annotations

import math

import pytest

import mecsim as ms


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


def test_user_with_nowhere_to_go_stands_still():
    # A 1x1 grid leaves a zero-size area and no pause: every waypoint is
    # the user's own spot, so the walk gives up and the user stays put.
    s = ms.generate(ms.GeneratorConfig(
        seed=1, grid_width=1, grid_height=1, pause_range=(0.0, 0.0),
        num_users=2, num_slots=3,
    ))
    assert (s.positions == 0.0).all()
    assert s.coverage == (((0,), (0,)),) * 3
