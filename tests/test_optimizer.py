"""Slot solver internals: LP fallback, gradient, search, rounding, composition."""

from __future__ import annotations

import logging
import math
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import mecsim as ms
import mecsim.optimizer as mecsim_optimizer
import reference as ref
from conftest import REPO_ROOT, make_doc, moderate_doc, online_large_scenario, random_doc
from mecsim.optimizer import (
    _feasible_point_via_lp,
    _greedy_repair,
    _SearchState,
    _SlotTables,
    _uniform_point,
)
from mecsim.seeding import substream_seed


def _validate(doc):
    return ms.validate_scenario(doc)


def _uniform_interior(doc):
    """Uniform-over-options fractional point; interior for generous capacities."""
    m, n = doc["num_clouds"], doc["num_users"]
    x = np.full((m, n), 1.0 / m)
    y = np.zeros((m, n))
    for k in range(n):
        stations = doc["coverage"][0][k]
        for j in stations:
            y[j, k] = 1.0 / len(stations)
    return x, y


# ---------------------------------------------------------------------------
# LP fallback point


def test_lp_points_satisfy_constraints_tightly():
    for seed in range(10):
        doc = random_doc(seed, tight=True)
        s = _validate(doc)
        try:
            x, y = _feasible_point_via_lp(s, 0, 1e-6)
        except ms.InfeasibleError:
            continue
        assert np.abs(x.sum(axis=0) - 1.0).max() <= 1e-8
        assert np.abs(y.sum(axis=0) - 1.0).max() <= 1e-8
        assert x.min() >= -1e-9 and y.min() >= -1e-9
        for k in range(3):
            outside = [j for j in range(3) if j not in doc["coverage"][0][k]]
            if outside:
                assert np.abs(y[outside, k]).max() <= 1e-10
        storage = x @ np.asarray(doc["service_size"])
        load = y @ np.asarray(doc["demand"][0])
        assert np.all(storage <= np.asarray(doc["cloud_capacity"]) + 1e-8)
        assert np.all(load <= np.asarray(doc["bs_capacity"]) - 1e-6 + 1e-8)


def test_lp_infeasible_when_storage_cannot_fit():
    doc = make_doc(service_size=[4.0, 4.0], cloud_capacity=[2.0, 2.0, 2.0])
    s = _validate(doc)
    with pytest.raises(ms.InfeasibleError) as err:
        _feasible_point_via_lp(s, 0, 1e-6)
    assert not isinstance(err.value, ms.NoInteriorPointError)


def _lp_fallback_doc():
    # Scaling station 1 under its margin takes a sliver from user 1, whose
    # only station it is, so the uniform point's repair fails; user 0 can
    # still move to station 0.
    return make_doc(
        num_clouds=2,
        bs_capacity=[1.5, 1.5],
        cloud_capacity=[5.0, 5.0],
        link_latency=[[[0.0, 1.0], [1.0, 0.0]]] * 2,
        coverage=[[[0, 1], [1]]] * 2,
    )


def test_solve_slot_rounds_the_lp_point_when_the_uniform_point_cannot_be_repaired():
    s = _validate(_lp_fallback_doc())
    assert _uniform_point(s, 0, 1e-6) is None
    decision, _, report = ms.solve_slot(s, 0)
    _, value = ms.best_slot_decision(s, 0)
    assert decision.selection == (0, 1)
    assert report.objective == pytest.approx(value, abs=1e-12)


def test_margin_above_a_station_capacity_leaves_no_uniform_point():
    # make_doc's stations carry 10.0; a margin of 20 leaves negative room,
    # so the repair gives up before it scales anything
    s = _validate(make_doc())
    assert _uniform_point(s, 0, 20.0) is None
    assert _uniform_point(s, 0, 1e-6) is not None


def test_solve_slot_logs_its_rare_paths(caplog, monkeypatch):
    s = _validate(_lp_fallback_doc())
    caplog.set_level(logging.DEBUG, logger="mecsim")
    # User 1 sits outside its coverage, and user 0 fills its only station.
    ms.solve_slot(s, 0, warm_start=ms.SlotDecision((0, 0), (1, 0)))
    assert [(r.name, r.levelno) for r in caplog.records] == [
        ("mecsim", logging.DEBUG), ("mecsim", logging.DEBUG)
    ]
    assert "solving the LP" in caplog.records[0].getMessage()
    assert "dropped the warm start" in caplog.records[1].getMessage()

    caplog.clear()
    # No draw passes the check, so each of the three seed roundings falls
    # back to greedy repair, and the search result is dropped.
    monkeypatch.setattr("mecsim.optimizer.decision_feasible", lambda *args: False)
    with pytest.raises(ms.RoundingFailedError):
        ms.solve_slot(s, 0)
    assert [(r.name, r.levelno) for r in caplog.records] == [
        ("mecsim", logging.DEBUG)
    ] * 4 + [("mecsim", logging.WARNING)]
    assert all(
        "no feasible draw in 50 attempts" in r.getMessage() for r in caplog.records[1:4]
    )
    assert "dropped the search result" in caplog.records[-1].getMessage()


# ---------------------------------------------------------------------------
# objective gradient


def test_gradient_single_user_queuing_value():
    doc = {
        "num_clouds": 1,
        "num_users": 1,
        "num_slots": 1,
        "bs_capacity": [2.0],
        "cloud_capacity": [5.0],
        "service_size": [1.0],
        "link_latency": [[[0.0]]],
        "coverage": [[[0]]],
        "demand": [[1.0]],
    }
    s = _validate(doc)
    x = np.array([[1.0]])
    y = np.array([[1.0]])
    _, grad_y = ms.objective_gradient(s, 0, x, y)
    assert grad_y[0, 0] == pytest.approx(2.0, abs=1e-12)


def test_gradient_x_reduces_to_latency_mix_for_huge_capacity():
    doc = random_doc(4, m=3, n=2)
    doc["bs_capacity"] = [1e9, 1e9, 1e9]
    doc["coverage"][0] = [[0, 1, 2], [0, 1, 2]]
    s = _validate(doc)
    rng = np.random.default_rng(9)
    x = rng.dirichlet(np.ones(3), size=2).T
    y = rng.dirichlet(np.ones(3), size=2).T
    grad_x, _ = ms.objective_gradient(s, 0, x, y)
    lat = np.asarray(doc["link_latency"][0])
    expected = lat @ y
    assert np.abs(grad_x - expected).max() <= 1e-6


def test_gradient_matches_central_differences():
    for seed in range(10):
        doc = random_doc(seed, m=3, n=3)
        s = _validate(doc)
        x, y = _uniform_interior(doc)
        grad_x, grad_y = ms.objective_gradient(s, 0, x, y)
        fd_x, fd_y = ref.fd_gradient(
            doc["bs_capacity"], doc["demand"][0], doc["link_latency"][0],
            x.tolist(), y.tolist(),
        )
        for got, want in ((grad_x, fd_x), (grad_y, fd_y)):
            want = np.asarray(want)
            assert np.abs(got - want).max() <= 1e-5 * max(1.0, np.abs(want).max())


def test_gradient_rejects_overloaded_point():
    doc = make_doc(demand=[[6.0, 6.0]] * 2)
    s = _validate(doc)
    d = ms.SlotDecision((0, 1), (2, 2))
    with pytest.raises(ms.OverloadedPointError):
        ms.objective_gradient(s, 0, d.placement_matrix(3), d.selection_matrix(3))


# ---------------------------------------------------------------------------
# slot solve: seeds and errors


def _dominant_doc():
    return {
        "num_clouds": 3,
        "num_users": 1,
        "num_slots": 1,
        "bs_capacity": [10.0, 1.05, 1.05],
        "cloud_capacity": [5.0, 5.0, 5.0],
        "service_size": [1.0],
        "link_latency": [[[0.0, 5.0, 5.0], [5.0, 5.0, 5.0], [5.0, 5.0, 5.0]]],
        "coverage": [[[0, 1, 2]]],
        "demand": [[1.0]],
    }


def test_solve_slot_concentrates_on_dominant_option():
    s = _validate(_dominant_doc())
    decision, frac, report = ms.solve_slot(s, 0)
    assert decision == ms.SlotDecision((0,), (0,))
    assert frac.x[0, 0] == 1.0 and frac.y[0, 0] == 1.0
    assert report.objective == pytest.approx(1.0 / 9.0, abs=1e-12)


def test_solve_slot_matches_enumeration_on_symmetric_instance():
    doc = {
        "num_clouds": 2,
        "num_users": 2,
        "num_slots": 1,
        "bs_capacity": [5.0, 5.0],
        "cloud_capacity": [2.0, 2.0],
        "service_size": [1.0, 1.0],
        "link_latency": [[[0.0, 1.0], [1.0, 0.0]]],
        "coverage": [[[0, 1], [0, 1]]],
        "demand": [[1.0, 1.0]],
    }
    s = _validate(doc)
    _, _, report = ms.solve_slot(s, 0)
    best = ref.brute_best(doc, 0)
    assert best is not None
    assert abs(report.objective - best[2]) <= 1e-3


def test_solve_slot_infeasible_storage():
    doc = make_doc(service_size=[4.0, 4.0], cloud_capacity=[2.0, 2.0, 2.0])
    s = _validate(doc)
    with pytest.raises(ms.InfeasibleError) as err:
        ms.solve_slot(s, 0)
    assert not isinstance(err.value, ms.NoInteriorPointError)


def test_solve_slot_no_interior_point():
    doc = {
        "num_clouds": 1,
        "num_users": 1,
        "num_slots": 1,
        "bs_capacity": [1.0],
        "cloud_capacity": [5.0],
        "service_size": [1.0],
        "link_latency": [[[0.0]]],
        "coverage": [[[0]]],
        "demand": [[1.0]],  # load equals capacity: margin leaves no room
    }
    s = _validate(doc)
    with pytest.raises(ms.NoInteriorPointError):
        ms.solve_slot(s, 0)


# ---------------------------------------------------------------------------
# discrete search probes


@st.composite
def _search_case(draw):
    """A feasible integral decision and a batch of 1-3 distinct users' moves.

    Sizes, demands and capacities lie on a 1/8 grid, so storage and load
    sums are exact in any order and feasibility has one answer.
    """
    m = draw(st.integers(2, 4))
    n = draw(st.integers(3, 6))
    eighths = st.integers(1, 16).map(lambda v: v / 8.0)
    placement = draw(st.lists(st.integers(0, m - 1), min_size=n, max_size=n))
    selection = draw(st.lists(st.integers(0, m - 1), min_size=n, max_size=n))
    sizes = draw(st.lists(eighths, min_size=n, max_size=n))
    demand = draw(st.lists(eighths, min_size=n, max_size=n))
    used = np.bincount(placement, weights=sizes, minlength=m)
    load = np.bincount(selection, weights=demand, minlength=m)
    lat = draw(st.lists(st.floats(0.0, 5.0), min_size=m * m, max_size=m * m))
    coverage = [
        sorted({selection[k], *draw(st.lists(st.integers(0, m - 1), max_size=m))})
        for k in range(n)
    ]
    doc = {
        "num_clouds": m,
        "num_users": n,
        "num_slots": 1,
        "cloud_capacity": [u + draw(st.integers(0 if u else 1, 16)) / 8.0 for u in used],
        "bs_capacity": [v + draw(eighths) for v in load],
        "service_size": sizes,
        "link_latency": [np.reshape(lat, (m, m)).tolist()],
        "coverage": [coverage],
        "demand": [demand],
    }
    users = draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=3, unique=True))
    batch = [
        (k, draw(st.integers(0, m - 1)),
         draw(st.sampled_from(coverage[k]) | st.integers(0, m - 1)))
        for k in users
    ]
    return doc, placement, selection, batch


@settings(max_examples=300, deadline=None)
@given(_search_case())
def test_search_probe_is_the_value_after_the_move(case):
    doc, placement, selection, batch = case
    s = _validate(doc)
    margin = 1e-6
    state = _state(s, placement, selection, margin)
    before = (state.decision(), state.f)
    got = state.probe(batch)
    assert (state.decision(), state.f) == before  # a probe moves nothing
    moved_p, moved_s = list(placement), list(selection)
    for k, i, j in batch:
        moved_p[k], moved_s[k] = i, j
    moved = ms.SlotDecision(tuple(moved_p), tuple(moved_s))
    assert (got is None) == (not ms.decision_feasible(s, 0, moved, margin))
    if got is not None:
        state.apply(batch)
        assert state.decision() == moved
        assert got == pytest.approx(state.value(), rel=1e-9)
        assert state.f == state.value()


def _state(s, placement, selection, margin):
    return _SearchState(_SlotTables(s, 0, margin), tuple(placement), tuple(selection))


def _first_probe(state, batches):
    """First strict minimum of ``probe`` over the batches, in their order,
    as (value, batch); None when no batch is feasible. Every scan of the
    search is checked against this rule."""
    first = None
    for batch in batches:
        value = state.probe(batch)
        if value is not None and (first is None or value < first[0]):
            first = (value, batch)
    return first


def _single_moves(state):
    """Every one-user move but staying put, in (user, cloud,
    coverage-order station) order."""
    return [
        [(k, i, j)]
        for k in range(state.n)
        for i in range(state.m)
        for j in state.cov[k]
        if (i, j) != (state.placement[k], state.selection[k])
    ]


def _exchanges(state):
    """Every exchange of two users a < b on different stations, in (a, b)
    order."""
    pl, sel = state.placement, state.selection
    return [
        [(a, pl[b], sel[b]), (b, pl[a], sel[a])]
        for a in range(state.n)
        for b in range(a + 1, state.n)
        if sel[a] != sel[b]
    ]


def _pair_moves(state):
    """The full two-user rescan: users a < b to any cloud and covered
    station each, but the batch that moves nothing, in (a, b, cloud of a,
    station of a, cloud of b, station of b) order."""
    now = list(zip(state.placement, state.selection))
    return [
        [(a, i1, j1), (b, i2, j2)]
        for a in range(state.n)
        for b in range(a + 1, state.n)
        for i1 in range(state.m)
        for j1 in state.cov[a]
        for i2 in range(state.m)
        for j2 in state.cov[b]
        if ((i1, j1), (i2, j2)) != (now[a], now[b])
    ]


def _as_batch(single):
    """A ``best_single_move`` result with its move as a batch."""
    return None if single is None else (single[0], [single[1]])


@settings(max_examples=300, deadline=None)
@given(_search_case())
def test_single_move_scan_is_the_first_probe_minimum(case):
    doc, placement, selection, _ = case
    s = _validate(doc)
    for margin in (1e-6, 0.0):
        state = _state(s, placement, selection, margin)
        assert _as_batch(state.best_single_move()) == _first_probe(
            state, _single_moves(state)
        )


@st.composite
def _tie_case(draw):
    """A feasible integral decision on a coarse grid, where values tie.

    Latencies take the values 0, 1/2 and 1, and 2^-60, which vanishes when
    added to 1/2 or 1, so many moves of one user, and of different users,
    share a value. Storage
    leaves each cloud at most one small service of room, and station room
    is a multiple of 1/2 on demands of 1/2 and 1, so clouds fill and, at
    margin 0, an arrival can land exactly on a station's capacity.
    """
    m = draw(st.integers(2, 8))
    n = draw(st.integers(2, 8))
    halves = st.sampled_from([0.5, 1.0])
    placement = draw(st.lists(st.integers(0, m - 1), min_size=n, max_size=n))
    selection = draw(st.lists(st.integers(0, m - 1), min_size=n, max_size=n))
    sizes = draw(st.lists(halves, min_size=n, max_size=n))
    demand = draw(st.lists(halves, min_size=n, max_size=n))
    used = np.bincount(placement, weights=sizes, minlength=m)
    load = np.bincount(selection, weights=demand, minlength=m)
    grid = st.sampled_from([0.0, 2.0**-60, 0.5, 1.0])
    lat = draw(st.lists(grid, min_size=m * m, max_size=m * m))
    coverage = [
        sorted({selection[k], *draw(st.lists(st.integers(0, m - 1), max_size=m))})
        for k in range(n)
    ]
    doc = {
        "num_clouds": m,
        "num_users": n,
        "num_slots": 1,
        "cloud_capacity": [
            u + draw(st.sampled_from([0.5] if u == 0 else [0.0, 0.0, 0.5])) for u in used
        ],
        "bs_capacity": [v + draw(st.sampled_from([0.5, 1.0, 1.5])) for v in load],
        "service_size": sizes,
        "link_latency": [np.reshape(lat, (m, m)).tolist()],
        "coverage": [coverage],
        "demand": [demand],
    }
    return doc, placement, selection


@settings(max_examples=300, deadline=None)
@given(_tie_case())
def test_single_move_scan_breaks_ties_as_probe_does(case):
    doc, placement, selection = case
    s = _validate(doc)
    for margin in (1e-6, 0.0):
        state = _state(s, placement, selection, margin)
        assert _as_batch(state.best_single_move()) == _first_probe(
            state, _single_moves(state)
        )


def test_single_move_scan_along_a_large_cold_solve(monkeypatch):
    # Slot 0 of the online-large benchmark scenario (M=16, N=40): every
    # tenth one-user scan of the search is checked against every probe.
    s = online_large_scenario()
    scan = _SearchState.best_single_move
    calls = checked = 0

    def checking(self):
        nonlocal calls, checked
        got = scan(self)
        if calls % 10 == 0:
            assert _as_batch(got) == _first_probe(self, _single_moves(self))
            checked += 1
        calls += 1
        return got

    monkeypatch.setattr(_SearchState, "best_single_move", checking)
    ms.solve_slot(s, 0)
    assert checked >= 10


@settings(max_examples=300, deadline=None)
@given(_search_case())
def test_exchange_scan_is_the_first_probe_minimum(case):
    doc, placement, selection, _ = case
    s = _validate(doc)
    for margin in (1e-6, 0.0):
        state = _state(s, placement, selection, margin)
        assert state.best_exchange() == _first_probe(state, _exchanges(state))


@settings(max_examples=300, deadline=None)
@given(_search_case())
def test_pair_scan_is_the_first_probe_minimum(case):
    # The 1/8 grid makes clouds and stations shared across a batch common.
    doc, placement, selection, _ = case
    s = _validate(doc)
    for margin in (1e-6, 0.0):
        state = _state(s, placement, selection, margin)
        assert state.best_pair_move() == _first_probe(state, _pair_moves(state))


@st.composite
def _float_case(draw):
    """A ``_search_case`` decision with sizes and demands off the 1/8 grid,
    so a sum of three of them can round differently in another order."""
    doc, placement, selection, _ = draw(_search_case())
    m = doc["num_clouds"]
    scale = st.floats(0.5, 2.0)
    doc["service_size"] = [v * draw(scale) for v in doc["service_size"]]
    doc["demand"] = [[v * draw(scale) for v in doc["demand"][0]]]
    used = np.bincount(placement, weights=doc["service_size"], minlength=m)
    load = np.bincount(selection, weights=doc["demand"][0], minlength=m)
    doc["cloud_capacity"] = [u + draw(st.floats(0.0 if u else 0.1, 2.0)) for u in used]
    doc["bs_capacity"] = [v + draw(st.floats(0.1, 2.0)) for v in load]
    return doc, placement, selection


@settings(max_examples=300, deadline=None)
@given(_float_case())
def test_pair_scan_sums_in_probe_order(case):
    doc, placement, selection = case
    s = _validate(doc)
    for margin in (1e-6, 0.0):
        state = _state(s, placement, selection, margin)
        assert state.best_pair_move() == _first_probe(state, _pair_moves(state))


@st.composite
def _near_capacity_case(draw):
    """A ``_float_case`` decision whose loaded stations have from one ulp
    to 1e-9 of room, and whose demands differ by a few ulps or not at all,
    so the load a move leaves behind rounds at the scale of the room."""
    doc, placement, selection = draw(_float_case())
    m, n = doc["num_clouds"], doc["num_users"]
    base = draw(st.floats(0.5, 2.0))
    spread = st.sampled_from([0.0, 2.0**-52, 2.0**-50, 1e-12, 1e-3])
    doc["demand"] = [[base * (1.0 + draw(spread)) for _ in range(n)]]
    load = np.bincount(selection, weights=doc["demand"][0], minlength=m)
    room = st.sampled_from([1, 2, 7]) | st.sampled_from([1e-12, 1e-9])
    capacity = []
    for v in load.tolist():
        r = draw(room)
        if v == 0.0:
            capacity.append(base * 4.0)
        elif isinstance(r, int):
            for _ in range(r):
                v = math.nextafter(v, math.inf)
            capacity.append(v)
        else:
            capacity.append(v + r * v)
    doc["bs_capacity"] = capacity
    return doc, placement, selection


def _rotations(state):
    """Every three-user rotation, in the order the search probes them."""
    pl, sel, n = state.placement, state.selection, state.n
    return [
        [(a, pl[p], sel[p]), (b, pl[q], sel[q]), (c, pl[r], sel[r])]
        for a in range(n)
        for b in range(a + 1, n)
        for c in range(b + 1, n)
        for p, q, r in ((b, c, a), (c, a, b))
    ]


def _plain_case(lat, bs_capacity, demand, placement, selection):
    """A slot with roomy clouds, services of size 1 and full coverage."""
    m, n = len(bs_capacity), len(demand)
    doc = {
        "num_clouds": m,
        "num_users": n,
        "num_slots": 1,
        "cloud_capacity": [100.0] * m,
        "bs_capacity": bs_capacity,
        "service_size": [1.0] * n,
        "link_latency": [lat or [[0.0] * m for _ in range(m)]],
        "coverage": [[list(range(m))] * n],
        "demand": [demand],
    }
    return doc, placement, selection


_ULP = 2.0**-52  # of 1.0


@settings(max_examples=600, deadline=None)
@given(st.one_of(
    _search_case().map(lambda case: case[:3]), _float_case(), _near_capacity_case()
))
# a rotation that lowers two stations' loads, by half the demand gap each
@example(_plain_case(None, [2.1, 1.6, 100.0], [2.0, 1.5, 1.0], (0, 1, 2), (0, 1, 2)))
# a rotation's latency changes sum to -1 ulp of f, not 0: the slack covers it
@example(_plain_case(
    [[1771.7, 888.7, 1406.5], [1555.1, 1732.5, 1678.1], [1076.1, 588.8, 557.4]],
    [100.0] * 3, [1.0] * 3, (0, 1, 2), (0, 1, 2),
))
# station 0 has one ulp of room; an exchange lowers its load by half an ulp,
# which rounds to a whole one: its term falls to on / (C - (L - gap)), below
# on / ((C - L) + gap) with the bare demand gap
@example(_plain_case(
    None, [math.nextafter(2.0 + 2 * _ULP, math.inf), 1.001],
    [1.0 + _ULP, 1.0 + _ULP, 1.0], (0, 0, 1), (0, 0, 1),
))
# station 0 has one ulp of room; a rotation's rounded load-change sum
# lowers its load by more than the demand gap, which the pad covers
@example(_plain_case(
    None, [2.0 + 6 * _ULP, 8.0, 8.0, 2.0000000000002007],
    [1.0 + 2 * _ULP, 1.0 + _ULP, 1.0 + 2 * _ULP, 1.0 + _ULP], (1, 1, 3, 3), (3, 3, 0, 0),
))
def test_floors_are_at_most_every_value_they_cover(case):
    doc, placement, selection = case
    s = _validate(doc)
    for margin in (1e-6, 0.0):
        state = _state(s, placement, selection, margin)
        user_floors = state.user_floors()
        exchange_floor, rotation_floor = state.floors()
        for floor, batches in (
            *((user_floors[k], [[(k, i, j)]]) for [(k, i, j)] in _single_moves(state)),
            (exchange_floor, _exchanges(state)),
            (rotation_floor, _rotations(state)),
        ):
            for batch in batches:
                value = state.probe(batch)
                assert value is None or floor <= value, (batch, floor, value)


def _step_bar(state):
    """The bar a two-user move must pass in a step of the large search: the
    first best one-user move's value when it improves, else f - 1e-12."""
    single = state.best_single_move()
    bar = state.f - 1e-12
    return bar if single is None else min(bar, single[0])


def test_skipped_exchange_passes_would_not_have_won(monkeypatch):
    # Slot 0 of the online-large benchmark scenario (M=16, N=40): each
    # exchange pass the floor skips is run here; no exchange it finds would
    # have passed the step's bar.
    s = online_large_scenario()
    floors = _SearchState.floors
    skipped = 0

    def checking(self):
        nonlocal skipped
        got = floors(self)
        bar = _step_bar(self)
        if got[0] >= bar:
            found = self.best_exchange()
            assert found is None or found[0] >= bar
            skipped += 1
        return got

    monkeypatch.setattr(_SearchState, "floors", checking)
    ms.solve_slot(s, 0)
    assert skipped >= 10


def test_cold_large_solve_skips_most_exchange_passes(monkeypatch):
    # On slot 0 of the online-large benchmark scenario every search step ran
    # one exchange pass; the exchange floor shows most of them cannot win.
    s = online_large_scenario()
    steps = passes = 0
    floors, exchange = _SearchState.floors, _SearchState.best_exchange

    def counted_step(self):
        nonlocal steps
        steps += 1
        return floors(self)

    def counted_pass(self):
        nonlocal passes
        passes += 1
        return exchange(self)

    monkeypatch.setattr(_SearchState, "floors", counted_step)
    monkeypatch.setattr(_SearchState, "best_exchange", counted_pass)
    ms.solve_slot(s, 0)
    assert steps >= 20
    assert 2 * passes <= steps


def test_pair_scan_along_a_small_cold_solve(monkeypatch):
    # Slots 0 and 1 of a compare-small benchmark scenario (3x1 grid, N=3),
    # solved cold: every full two-user rescan of the searches is checked
    # against every probe.
    s = ms.generate(ms.GeneratorConfig(
        seed=9, grid_width=3, grid_height=1, num_users=3, num_slots=16
    ))
    scan = _SearchState.best_pair_move
    checked = 0

    def checking(self):
        nonlocal checked
        got = scan(self)
        assert got == _first_probe(self, _pair_moves(self))
        checked += 1
        return got

    monkeypatch.setattr(_SearchState, "best_pair_move", checking)
    ms.solve_slot(s, 0)
    ms.solve_slot(s, 1)
    assert checked >= 10


def test_cold_solve_does_not_probe_exchanges_one_by_one(monkeypatch):
    # One array pass per search step values the plain exchanges; probing
    # them pair by pair took 125,168 probe calls on this slot.
    s = online_large_scenario()
    calls = 0
    probe = _SearchState.probe

    def counted(self, batch):
        nonlocal calls
        calls += 1
        return probe(self, batch)

    monkeypatch.setattr(_SearchState, "probe", counted)
    ms.solve_slot(s, 0)
    assert calls < 5_000


def test_cold_small_solve_builds_its_slot_tables_once(monkeypatch):
    # Instance 0 of the slot-cold-small benchmark workload (M=3, N=3). The
    # full two-user rescans, valued batch by batch, took 3,081 probe calls,
    # and each search state and kick built its own cost model, 16 in all.
    s = _validate(moderate_doc([0, 0]))
    calls = built = 0
    probe = _SearchState.probe
    costs = mecsim_optimizer._IndexCosts

    def counted(self, batch):
        nonlocal calls
        calls += 1
        return probe(self, batch)

    class Counted(costs):
        def __init__(self, *args):
            nonlocal built
            built += 1
            super().__init__(*args)

    monkeypatch.setattr(_SearchState, "probe", counted)
    monkeypatch.setattr(mecsim_optimizer, "_IndexCosts", Counted)
    ms.solve_slot(s, 0)
    assert calls < 500
    assert built == 1


def test_cold_small_solve_scans_no_decision_twice(monkeypatch):
    # Instance 0 of the slot-cold-small benchmark workload. Searches that
    # descended back to a local optimum an earlier search had reached
    # rescanned every decision on the way: 21 scans of 11 decisions.
    s = _validate(moderate_doc([0, 0]))
    scan = _SearchState.best_single_move
    scanned = []

    def recorded(self):
        scanned.append((tuple(self.placement), tuple(self.selection)))
        return scan(self)

    monkeypatch.setattr(_SearchState, "best_single_move", recorded)
    ms.solve_slot(s, 0)
    assert len(scanned) > 1
    assert len(scanned) == len(set(scanned))


def test_recorded_descents_equal_fresh_descents(monkeypatch):
    # Every search of the solves, kicked starts included, against the same
    # descent on fresh slot tables, whose record is empty.
    search = mecsim_optimizer._local_search
    calls = reused = 0

    def checked(tables, d):
        nonlocal calls, reused
        before = len(tables.descents)
        got = search(tables, d)
        assert got == search(_SlotTables(tables.s, tables.t, tables.margin), d)
        calls += 1
        # a descent that ran its whole path adds moves + 1 decisions
        reused += len(tables.descents) - before < got[2] + 1
        return got

    monkeypatch.setattr(mecsim_optimizer, "_local_search", checked)
    for seed in range(20):
        ms.solve_slot(_validate(moderate_doc(seed)), 0)
    for seed in range(20):
        try:
            ms.solve_slot(_validate(random_doc(seed, m=4, n=5, tight=True)), 0)
        except ms.RoundingFailedError:
            pass  # seeds 9 and 15 give the search no feasible seed
    assert calls >= 200
    assert reused >= calls // 4


def test_descent_stopped_by_the_move_cap_records_nothing(monkeypatch):
    # Four users crowded on cloud 2 and station 0 reach their local optimum
    # in two moves; capped at one, the descent stops short of it.
    doc = make_doc(num_users=4, service_size=[1.0] * 4,
                   coverage=[[[0, 1, 2]] * 4] * 2, demand=[[1.0] * 4] * 2)
    s = _validate(doc)
    start = ms.SlotDecision((2, 2, 2, 2), (0, 0, 0, 0))
    tables = _SlotTables(s, 0, 1e-6)
    optimum, value, moves = mecsim_optimizer._local_search(tables, start)
    assert moves == 2 and len(tables.descents) == 3
    monkeypatch.setattr(mecsim_optimizer, "_MAX_MOVES", 1)
    capped = _SlotTables(s, 0, 1e-6)
    stopped, stopped_value, stopped_moves = mecsim_optimizer._local_search(capped, start)
    assert stopped_moves == 1
    assert stopped != optimum and stopped_value > value
    assert capped.descents == {}


# ---------------------------------------------------------------------------
# randomized rounding


def _choice_round(s, t, frac, rng_seed, config=ms.DEFAULT_CONFIG):
    """Test oracle: rounding with one rng.choice(p=...) per column and draw."""

    def sample(rng, weights):
        p = np.clip(weights, 0.0, None)
        total = p.sum()
        if total <= 0.0:
            p = np.ones_like(p)
            total = p.sum()
        return int(rng.choice(len(p), p=p / total))

    rng = np.random.default_rng(rng_seed)
    cov = s.coverage[t]
    decision = None
    for attempt in range(1, mecsim_optimizer._MAX_ATTEMPTS + 1):
        placement, selection = [], []
        for k in range(s.num_users):
            placement.append(sample(rng, frac.x[:, k]))
            selection.append(cov[k][sample(rng, frac.y[list(cov[k]), k])])
        decision = ms.SlotDecision(tuple(placement), tuple(selection))
        if ms.decision_feasible(s, t, decision, config.margin):
            return decision, attempt, 0
    repaired, moves = _greedy_repair(s, t, decision, config.margin)
    return repaired, mecsim_optimizer._MAX_ATTEMPTS, moves


def _rounding_cases():
    """One pytest.param(scenario, fractional point) per sampler edge."""
    rng = np.random.default_rng(11)
    cases = []
    s = _validate(make_doc())
    zero = ms.FractionalDecision(x=np.zeros((3, 2)), y=np.zeros((3, 2)))
    cases.append(pytest.param(s, zero, id="all-zero-columns"))
    x = rng.dirichlet(np.ones(3), size=2).T
    y = rng.dirichlet(np.ones(3), size=2).T
    x[0, 0], y[2, 1] = -1e-17, -3e-18
    cases.append(pytest.param(s, ms.FractionalDecision(x=x, y=y), id="slightly-negative"))
    doc = random_doc(3, m=5, n=6)
    for k in (0, 2, 5):
        doc["coverage"][0][k] = [doc["coverage"][0][k][-1]]
    _, y = _uniform_interior(doc)
    x = rng.dirichlet(np.ones(5), size=6).T
    cases.append(pytest.param(
        _validate(doc), ms.FractionalDecision(x=x, y=y), id="single-station-coverage"
    ))
    # one service per cloud: users sharing a cloud break storage
    s = _validate(make_doc(cloud_capacity=[1.0, 1.0, 1.0]))
    y = np.full((3, 2), 1.0 / 3.0)
    x = np.array([[0.5, 0.5], [0.5, 0.5], [0.0, 0.0]])
    cases.append(pytest.param(s, ms.FractionalDecision(x=x, y=y), id="redraws"))
    x = np.array([[1.0, 1.0], [0.0, 0.0], [0.0, 0.0]])
    cases.append(pytest.param(s, ms.FractionalDecision(x=x, y=y), id="greedy repair"))
    return cases


@pytest.mark.parametrize("s, frac", _rounding_cases())
def test_round_matches_the_per_column_choice_sampler(request, s, frac):
    outcomes = []
    for seed in range(200):
        got = ms.round_decision(s, 0, frac, rng_seed=seed)
        assert got == _choice_round(s, 0, frac, seed)
        outcomes.append(got)
    case = request.node.callspec.id
    if case == "redraws":
        assert any(attempts > 1 for _, attempts, _ in outcomes)
    if case == "greedy repair":
        assert all(repairs > 0 for _, _, repairs in outcomes)


def test_round_integral_point_returned_unchanged():
    s = _validate(make_doc())
    d = ms.SlotDecision((0, 2), (1, 2))
    frac = ms.FractionalDecision(x=d.placement_matrix(3), y=d.selection_matrix(3))
    rounded, attempts, repairs = ms.round_decision(s, 0, frac, rng_seed=123)
    assert rounded == d
    assert attempts == 1
    assert repairs == 0


def test_round_is_deterministic_per_seed_and_feasible():
    doc = random_doc(5, tight=True)
    s = _validate(doc)
    x, y = _uniform_point(s, 0, ms.DEFAULT_CONFIG.margin)  # the point solve_slot rounds
    frac = ms.FractionalDecision(x=x, y=y)
    seen = set()
    for seed in range(200):
        first, _, _ = ms.round_decision(s, 0, frac, rng_seed=seed)
        again, _, _ = ms.round_decision(s, 0, frac, rng_seed=seed)
        assert first == again
        assert ms.decision_feasible(s, 0, first, ms.DEFAULT_CONFIG.margin)
        seen.add((first.placement, first.selection))
    assert seen  # at least one feasible decision over the seed sweep


def test_round_frequencies_follow_the_column():
    doc = make_doc(
        num_users=1,
        service_size=[1.0],
        coverage=[[[0, 1, 2]], [[0, 1, 2]]],
        demand=[[1.0], [1.0]],
    )
    s = _validate(doc)
    frac = ms.FractionalDecision(
        x=np.array([[0.5], [0.5], [0.0]]), y=np.array([[1.0], [0.0], [0.0]])
    )
    counts = np.zeros(3)
    samples = 2000
    for seed in range(samples):
        d, _, _ = ms.round_decision(s, 0, frac, rng_seed=seed)
        counts[d.placement[0]] += 1
    freq = counts / samples
    assert abs(freq[0] - 0.5) <= 0.05
    assert abs(freq[1] - 0.5) <= 0.05
    assert freq[2] == 0.0


def test_round_fails_when_no_integral_point_exists():
    doc = {
        "num_clouds": 2,
        "num_users": 3,
        "num_slots": 1,
        "bs_capacity": [100.0, 100.0],
        "cloud_capacity": [3.0, 3.0],
        "service_size": [2.0, 2.0, 2.0],
        "link_latency": [[[0.0, 1.0], [1.0, 0.0]]],
        "coverage": [[[0, 1], [0, 1], [0, 1]]],
        "demand": [[1.0, 1.0, 1.0]],
    }
    # fractional halves fit the storage exactly; no integral placement does
    assert ref.brute_best(doc, 0) is None
    s = _validate(doc)
    frac = ms.FractionalDecision(
        x=np.full((2, 3), 0.5),
        y=ms.SlotDecision((0, 0, 0), (0, 1, 0)).selection_matrix(2),
    )
    with pytest.raises(ms.RoundingFailedError):
        ms.round_decision(s, 0, frac, rng_seed=0)


# ---------------------------------------------------------------------------
# slot solve composition


def test_solve_slot_single_cloud_has_no_choice():
    doc = {
        "num_clouds": 1,
        "num_users": 2,
        "num_slots": 1,
        "bs_capacity": [10.0],
        "cloud_capacity": [5.0],
        "service_size": [1.0, 1.0],
        "link_latency": [[[0.0]]],
        "coverage": [[[0], [0]]],
        "demand": [[1.0, 1.0]],
    }
    s = _validate(doc)
    decision, _, _ = ms.solve_slot(s, 0, rng_seed=4)
    assert decision == ms.SlotDecision((0, 0), (0, 0))


def test_solve_slot_walkthrough_decision(walkthrough_path):
    s = ms.load_scenario(walkthrough_path)
    for seed in (0, 1, 7, 123):
        decision, frac, report = ms.solve_slot(s, 0, rng_seed=seed)
        assert decision == ms.SlotDecision((2,), (0,))
        assert np.array_equal(frac.x, decision.placement_matrix(3))
        assert np.array_equal(frac.y, decision.selection_matrix(3))
        assert report.objective == ms.non_switching_delay(s, 0, frac.x, frac.y)


def test_report_carries_the_value_the_search_minimized():
    # The 12 cold online-large slots. Re-valued with the matrix forms and
    # their BLAS load sum, slots 7 and 10 reported 2 ulps less.
    s = online_large_scenario()
    for t in range(s.num_slots):
        decision, frac, report = ms.solve_slot(s, t)
        value = mecsim_optimizer._IndexCosts(s, t).non_switching(
            decision.placement, decision.selection
        )
        assert report.objective == value
        assert report.objective == ms.non_switching_delay(s, t, frac.x, frac.y)


def test_solve_slot_warm_start_keeps_dominant_decision():
    s = _validate(_dominant_doc())
    warm = ms.SlotDecision((0,), (0,))
    decision, _, _ = ms.solve_slot(s, 0, warm_start=warm, rng_seed=2)
    assert decision == warm


def test_solve_slot_sandwich_on_random_instances():
    for seed in range(10):
        doc = random_doc(seed, tight=True)
        s = _validate(doc)
        try:
            decision, frac, report = ms.solve_slot(s, 0, rng_seed=seed)
        except (ms.InfeasibleError, ms.RoundingFailedError):
            continue
        best = ref.brute_best(doc, 0)
        assert best is not None
        rounded = ms.non_switching_delay(
            s, 0, decision.placement_matrix(3), decision.selection_matrix(3)
        )
        assert report.objective <= best[2] + 1e-3
        assert rounded >= best[2] - 1e-9


def test_solve_slot_with_zero_margin_keeps_stations_below_capacity():
    doc = {
        "num_clouds": 2,
        "num_users": 2,
        "num_slots": 1,
        "bs_capacity": [2.0, 2.0],
        "cloud_capacity": [5.0, 5.0],
        "service_size": [1.0, 1.0],
        "link_latency": [[[0.0, 1.0], [1.0, 0.0]]],
        "coverage": [[[0, 1], [0, 1]]],
        "demand": [[1.0, 1.0]],
    }
    s = _validate(doc)
    config = ms.SolverConfig(margin=0.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no division by a zero slack anywhere
        decision, _, report = ms.solve_slot(s, 0, config=config)
    # two users on one station would load it exactly to capacity
    assert sorted(decision.selection) == [0, 1]
    delay = ms.non_switching_delay(
        s, 0, decision.placement_matrix(2), decision.selection_matrix(2)
    )
    assert math.isfinite(delay) and math.isfinite(report.objective)
    best, value = ms.best_slot_decision(s, 0, margin=0.0)
    assert sorted(best.selection) == [0, 1]
    assert math.isfinite(value)
    # every draw fills station 0, so greedy repair must move one user off
    crowded = ms.FractionalDecision(x=np.eye(2), y=np.array([[1.0, 1.0], [0.0, 0.0]]))
    repaired, _, moves = ms.round_decision(s, 0, crowded, rng_seed=0, config=config)
    assert sorted(repaired.selection) == [0, 1] and moves == 1


@pytest.mark.parametrize(
    "field, value",
    [("margin", -1e-9), ("margin", math.inf), ("margin", math.nan),
     ("margin", "0.1"), ("margin", False)],
)
def test_solver_config_rejects_bad_settings(field, value):
    with pytest.raises(ValueError, match=field):
        ms.SolverConfig(**{field: value})


@pytest.mark.parametrize("t", [-1, 2, 1.0, True, "0"])
def test_solve_slot_rejects_a_slot_outside_the_horizon(t):
    s = _validate(random_doc(0, slots=2))
    with pytest.raises(ValueError, match="slot"):
        ms.solve_slot(s, t)


def test_solve_slot_honors_margin_setting():
    doc = random_doc(12, tight=True)
    s = _validate(doc)
    config = ms.SolverConfig(margin=0.2)
    try:
        decision, _, _ = ms.solve_slot(s, 0, rng_seed=1, config=config)
    except ms.InfeasibleError:
        pytest.skip("margin 0.2 leaves no feasible decision on this draw")
    assert ms.decision_feasible(s, 0, decision, margin=0.2)


@pytest.mark.parametrize("seed", [[25, 27], [103, 8], [103, 10], [7, 22]])
def test_solve_slot_reaches_the_optimum_on_former_sandwich_misses(seed):
    # The descent-then-round solver reported objectives 1e-3 to 2e-2 above
    # the optimum on these criterion-3-family instances.
    s = _validate(moderate_doc(seed))
    decision, _, report = ms.solve_slot(s, 0)
    _, value = ms.best_slot_decision(s, 0)
    assert report.objective == pytest.approx(value, abs=1e-9)
    assert ms.decision_feasible(s, 0, decision, ms.DEFAULT_CONFIG.margin)


@pytest.mark.parametrize("seed", [11, 13, 20, 99, 5, 70])
def test_solve_slot_finds_feasible_decisions_on_tight_instances(seed):
    # Seeds 11, 13, 20 and 99 have feasible decisions that rounding and
    # repair alone missed. Seed 5 reaches its optimum only from the greedy
    # seed (0.798081 without it), seed 70 only with three-user rotations
    # (1.029526 without them).
    s = _validate(random_doc(seed, m=4, n=5, tight=True))
    decision, _, report = ms.solve_slot(s, 0, rng_seed=seed)
    assert ms.decision_feasible(s, 0, decision, ms.DEFAULT_CONFIG.margin)
    if seed in (5, 13, 70):
        _, value = ms.best_slot_decision(s, 0, budget=2_000_000)
        assert report.objective == pytest.approx(value, abs=1e-9)


@pytest.mark.parametrize(
    "doc, reached",
    [
        pytest.param(random_doc(48, m=5, n=10, tight=True), 0.799172, id="tight-48"),
        pytest.param(moderate_doc([114, 5, 10], m=5, n=10), 2.275735, id="moderate-114"),
    ],
)
def test_solve_slot_kicks_escape_local_optima(doc, reached):
    # Without the perturbation restarts the search stops at 3.02436 and
    # 3.28183 on these instances.
    _, _, report = ms.solve_slot(_validate(doc), 0)
    assert report.objective <= reached


def _pinned_knobs() -> dict[str, tuple[str, str | None]]:
    """Each optimizer constant whose comment names its pinning test, as
    (the ``*_...`` name, the parametrize id or None); ``*`` stands for the
    start of a ``test_solve_slot_*`` name."""
    source = Path(mecsim_optimizer.__file__).read_text(encoding="utf-8")
    found = re.findall(
        r"^(_[A-Z][A-Z0-9_]*)\s*=.*#.*\*(_\w+)(?:\[([^\]]+)\])?\s*$", source, re.M
    )
    return {name: (suffix, case or None) for name, suffix, case in found}


def _param_ids(fn) -> list[str]:
    """The ids pytest gives the cases of ``fn``'s one parametrize mark."""
    (mark,) = [m for m in getattr(fn, "pytestmark", []) if m.name == "parametrize"]
    return [v.id if hasattr(v, "id") else str(v) for v in mark.args[1]]


def test_every_pinned_knob_names_a_test_that_exists():
    knobs = _pinned_knobs()
    assert {"_CANDIDATE_SEEDS", "_KICK_ROUNDS", "_MAX_ATTEMPTS"} <= set(knobs)
    tests = {name: fn for name, fn in globals().items() if name.startswith("test_solve_slot_")}
    for knob, (suffix, case) in knobs.items():
        named = [name for name in tests if name.endswith(suffix)]
        assert len(named) == 1, f"{knob}: *{suffix} names {named}"
        if case is not None:
            assert case in _param_ids(tests[named[0]]), f"{knob}: no case [{case}]"
    readme = (REPO_ROOT / "README.md").read_text(encoding="utf-8")
    # the list is the paragraph after the sentence that introduces it
    listed = readme.split("Each search knob is pinned by a test", 1)[1].split("\n\n")[1]
    assert set(re.findall(r"`(_[A-Z][A-Z0-9_]*)`", listed)) == set(knobs)


def test_greedy_repair_moves_users_back_into_coverage():
    doc = make_doc(
        num_users=3,
        service_size=[1.0, 1.0, 1.0],
        bs_capacity=[2.5, 10.0, 10.0],
        coverage=[[[0, 1], [0, 2], [0, 1]]] * 2,
        demand=[[1.0, 1.0, 1.0]] * 2,
    )
    s = _validate(doc)
    # user 1 sits on station 1, outside its coverage; station 0 has room for
    # one more user, at a lower cost than station 2 from cloud 0
    repaired, moves = _greedy_repair(s, 0, ms.SlotDecision((0, 0, 1), (0, 1, 1)), 1e-6)
    assert repaired == ms.SlotDecision((0, 0, 1), (0, 0, 1))
    assert moves == 1
    with pytest.raises(ms.RoundingFailedError):
        # no covered station of user 1 has room once stations 0 and 2 are full
        full = _validate({**doc, "bs_capacity": [1.5, 10.0, 0.5]})
        _greedy_repair(full, 0, ms.SlotDecision((0, 0, 1), (0, 1, 1)), 1e-6)


def test_greedy_repair_raises_on_a_capacity_overload_it_cannot_repair():
    # both users are covered by station 0 alone, which carries only one
    doc = make_doc(bs_capacity=[1.5, 10.0, 10.0], coverage=[[[0], [0]]] * 2)
    s = _validate(doc)
    with pytest.raises(ms.RoundingFailedError, match="capacity overload on station 0"):
        _greedy_repair(s, 0, ms.SlotDecision((0, 1), (0, 0)), 1e-6)


def test_solve_slot_repairs_a_warm_start_that_left_coverage():
    doc = make_doc(coverage=[[[0, 1, 2], [0, 1, 2]], [[1, 2], [2]]])
    s = _validate(doc)
    warm = ms.SlotDecision((0, 0), (0, 0))
    decision, _, report = ms.solve_slot(s, 1, warm_start=warm)
    _, value = ms.best_slot_decision(s, 1)
    assert ms.decision_feasible(s, 1, decision, ms.DEFAULT_CONFIG.margin)
    assert report.objective == pytest.approx(value, abs=1e-12)
    assert report.repair_actions >= 2  # both users left station 0's coverage


def test_importing_mecsim_and_its_cli_loads_no_scipy():
    code = (
        "import sys, mecsim, mecsim.cli; "
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    )
    src = Path(ms.__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [str(src), os.environ.get("PYTHONPATH", "")]
    )}
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "[]"


# ---------------------------------------------------------------------------
# seed derivation


def test_substream_seeds_are_stable_and_distinct():
    assert substream_seed(7, 1, 3) == substream_seed(7, 1, 3)
    values = {
        substream_seed(run, stream, index)
        for run in (0, 1)
        for stream in (0, 1)
        for index in (0, 1, 2)
    }
    assert len(values) == 12


def test_substream_seed_rejects_a_negative_run_seed():
    with pytest.raises(ValueError, match="run seed must be nonnegative"):
        substream_seed(-1, 0)
