"""Slot solver internals: LP fallback, gradient, search, rounding, composition."""

from __future__ import annotations

import logging
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import mecsim as ms
import reference as ref
from conftest import make_doc, moderate_doc, random_doc
from mecsim.optimizer import (
    _feasible_point_via_lp,
    _greedy_repair,
    _SearchState,
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
    monkeypatch.setattr("mecsim.optimizer.decision_feasible", lambda *args: False)
    with pytest.raises(ms.RoundingFailedError):
        ms.solve_slot(s, 0)
    assert [(r.name, r.levelno) for r in caplog.records] == [
        ("mecsim", logging.DEBUG), ("mecsim", logging.WARNING)
    ]
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
    state = _SearchState(s, 0, tuple(placement), tuple(selection), margin)
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


def _first_probe_single_move(state):
    """First strict minimum of ``probe`` over every one-user move but
    staying put, in (user, cloud, coverage-order station) order."""
    expected = None
    for k in range(state.n):
        for i in range(state.m):
            for j in state.cov[k]:
                if (i, j) == (state.placement[k], state.selection[k]):
                    continue
                value = state.probe([(k, i, j)])
                if value is not None and (expected is None or value < expected[0]):
                    expected = (value, (k, i, j))
    return expected


@settings(max_examples=300, deadline=None)
@given(_search_case())
def test_single_move_scan_is_the_first_probe_minimum(case):
    doc, placement, selection, _ = case
    s = _validate(doc)
    for margin in (1e-6, 0.0):
        state = _SearchState(s, 0, tuple(placement), tuple(selection), margin)
        assert state.best_single_move() == _first_probe_single_move(state)


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
        state = _SearchState(s, 0, tuple(placement), tuple(selection), margin)
        assert state.best_single_move() == _first_probe_single_move(state)


def test_single_move_scan_along_a_large_cold_solve(monkeypatch):
    # Slot 0 of the online-large benchmark scenario (M=16, N=40): every
    # tenth one-user scan of the search is checked against every probe.
    s = ms.generate(ms.GeneratorConfig(
        seed=0, grid_width=4, grid_height=4, num_users=40, num_slots=12
    ))
    scan = _SearchState.best_single_move
    calls = checked = 0

    def checking(self):
        nonlocal calls, checked
        got = scan(self)
        if calls % 10 == 0:
            assert got == _first_probe_single_move(self)
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
    n = s.num_users
    for margin in (1e-6, 0.0):
        state = _SearchState(s, 0, tuple(placement), tuple(selection), margin)
        expected = None
        for a in range(n):
            for b in range(a + 1, n):
                if selection[a] == selection[b]:
                    continue
                batch = [
                    (a, placement[b], selection[b]),
                    (b, placement[a], selection[a]),
                ]
                value = state.probe(batch)
                if value is not None and (expected is None or value < expected[0]):
                    expected = (value, batch)
        assert state.best_exchange() == expected


def test_cold_solve_does_not_probe_exchanges_one_by_one(monkeypatch):
    # One array pass per search step values the plain exchanges; probing
    # them pair by pair took 125,168 probe calls on this slot.
    s = ms.generate(ms.GeneratorConfig(
        seed=0, grid_width=4, grid_height=4, num_users=40, num_slots=12
    ))
    calls = 0
    probe = _SearchState.probe

    def counted(self, batch):
        nonlocal calls
        calls += 1
        return probe(self, batch)

    monkeypatch.setattr(_SearchState, "probe", counted)
    ms.solve_slot(s, 0)
    assert calls < 5_000


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
    for attempt in range(1, config.max_attempts + 1):
        placement, selection = [], []
        for k in range(s.num_users):
            placement.append(sample(rng, frac.x[:, k]))
            selection.append(cov[k][sample(rng, frac.y[list(cov[k]), k])])
        decision = ms.SlotDecision(tuple(placement), tuple(selection))
        if ms.decision_feasible(s, t, decision, config.margin):
            return decision, attempt, 0
    repaired, moves = _greedy_repair(s, t, decision, config.margin)
    return repaired, config.max_attempts, moves


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
        assert report.objective == ms.objective(s, 0, frac.x, frac.y)


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
    [("max_attempts", 0), ("max_attempts", -3), ("max_attempts", 2.0),
     ("max_attempts", True), ("margin", -1e-9), ("margin", math.inf),
     ("margin", math.nan), ("margin", "0.1"), ("margin", False)],
)
def test_solver_config_rejects_bad_settings(field, value):
    with pytest.raises(ValueError, match=field):
        ms.SolverConfig(**{field: value})


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
