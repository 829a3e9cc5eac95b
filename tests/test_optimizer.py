"""Slot solver internals: LP fallback, gradient, search, rounding, composition."""

from __future__ import annotations

import functools
import itertools
import json
import logging
import math
import operator
import os
import re
import subprocess
import sys
import warnings
from bisect import bisect_right
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import mecsim as ms
import mecsim.optimizer as mecsim_optimizer
import reference as ref
from conftest import (
    REPO_ROOT,
    make_doc,
    moderate_doc,
    online_large_scenario,
    random_doc,
    raw_decisions,
    small_horizon_family,
)
from mecsim.model import _fits, _tally, station_limit
from mecsim.optimizer import (
    _feasible_point_via_lp,
    _greedy_indicator,
    _greedy_repair,
    _kick,
    _Rounding,
    _search_slot,
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


def _linprog_outcome(s, t, margin):
    """What ``_feasible_point_via_lp`` gave when it called ``linprog``:
    ``linprog(method="highs-ds")`` on the dense Kronecker blocks, with the
    point clipped to [0, 1], or the error type an empty LP gave."""
    from scipy.optimize import linprog

    m, n = s.num_clouds, s.num_users
    covered = np.zeros((m, n))
    for k, stations in enumerate(s.coverage[t]):
        covered[list(stations), k] = 1.0
    upper = np.concatenate([np.ones(m * n), covered.ravel()])
    rows = np.eye(m)

    def solve(station_margin):
        return linprog(
            np.zeros(2 * m * n),
            A_ub=np.block([
                [np.kron(rows, s.service_size), np.zeros((m, m * n))],
                [np.zeros((m, m * n)), np.kron(rows, s.demand[t])],
            ]),
            b_ub=np.concatenate([s.cloud_capacity, s.bs_capacity - station_margin]),
            A_eq=np.kron(np.eye(2), np.kron(np.ones(m), np.eye(n))),
            b_eq=np.ones(2 * n),
            bounds=np.stack([np.zeros_like(upper), upper], axis=1),
            method="highs-ds",
        )

    result = solve(margin)
    if result.status == 2:
        if margin > 0.0 and solve(0.0).status == 0:
            return ms.NoInteriorPointError
        return ms.InfeasibleError
    assert result.status == 0, result.message
    point = np.clip(result.x, 0.0, 1.0).reshape(2, m, n)
    return point[0], point[1]


def _assert_lp_outcome_is_linprogs(s, t, margin):
    """The direct HiGHS solve's point equals ``linprog``'s under
    ``np.array_equal``, or both raise the same error type; True when there
    is a point."""
    want = _linprog_outcome(s, t, margin)
    try:
        got = _feasible_point_via_lp(s, t, margin)
    except ms.InfeasibleError as err:
        assert type(err) is want, (t, margin)
        return False
    assert isinstance(want, tuple), (t, margin, want)
    assert all(np.array_equal(a, b) for a, b in zip(got, want)), (t, margin)
    return True


def test_lp_matrices_are_the_dense_kron_constructions():
    # HiGHS gets the LP linprog forms from the dense blocks, so it returns
    # the same vertex: on 18 random_doc slots and online-large's 5 LP slots
    big = online_large_scenario()
    lp_slots = [t for t in range(big.num_slots) if _uniform_point(big, t, 1e-6) is None]
    assert lp_slots == [7, 8, 9, 10, 11]
    cases = [
        (_validate(random_doc(seed, m=m, n=n, tight=seed % 2 == 1)), 0)
        for seed, (m, n) in itertools.product(range(6), [(2, 1), (3, 4), (5, 7)])
    ] + [(big, t) for t in lp_slots]
    for margin in (1e-6, 0.0):
        solved = sum(_assert_lp_outcome_is_linprogs(s, t, margin) for s, t in cases)
        assert solved == len(cases)  # not vacuous: each of the 23 has a vertex


@st.composite
def _lp_case(draw):
    """A small slot whose LP is often tight or empty: sizes and demands on
    a 1/8 grid, each capacity an even share of the total its kind holds
    moved by a multiple of 1/8 (at least 1/8 is left), coverage of every
    station less up to M - 1 of them, and a margin of 0, the default or
    1/8."""
    m = draw(st.integers(1, 3))
    n = draw(st.integers(1, 4))
    eighths = st.integers(1, 16).map(lambda v: v / 8.0)
    sizes = draw(st.lists(eighths, min_size=n, max_size=n))
    demand = draw(st.lists(eighths, min_size=n, max_size=n))

    def capacities(total):
        moves = st.integers(-16, 16).map(lambda v: max(total / m + v / 8.0, 0.125))
        return draw(st.lists(moves, min_size=m, max_size=m))

    doc = {
        "num_clouds": m,
        "num_users": n,
        "num_slots": 1,
        "cloud_capacity": capacities(sum(sizes)),
        "bs_capacity": capacities(sum(demand)),
        "service_size": sizes,
        "link_latency": [np.zeros((m, m)).tolist()],
        "coverage": [[
            sorted(set(range(m)) - draw(st.sets(st.integers(0, m - 1), max_size=m - 1)))
            for _ in range(n)
        ]],
        "demand": [demand],
    }
    return doc, draw(st.sampled_from([0.0, 1e-6, 0.125]))


def _one_station_doc(bs):
    """One cloud and station with storage 2.0 and capacity ``bs``, two
    users of size and demand 1.0."""
    return make_doc(
        num_clouds=1, num_slots=1, bs_capacity=[bs], cloud_capacity=[2.0],
        link_latency=[[[0.0]]], coverage=[[[0], [0]]], demand=[[1.0, 1.0]],
    )


@settings(max_examples=300, deadline=None)
@given(_lp_case())
@example((_one_station_doc(2.0), 1e-6))  # NoInteriorPointError: loads fit at capacity
@example((_one_station_doc(1.5), 0.0))  # InfeasibleError
@example((_one_station_doc(2.5), 1e-6))  # a point
def test_lp_point_is_linprogs_on_small_tight_slots(case):
    doc, margin = case
    _assert_lp_outcome_is_linprogs(_validate(doc), 0, margin)


def test_an_lp_solve_writes_nothing_to_stdout(capfd):
    # HiGHS's banner and log go to fd 1 unless its output is switched off
    _feasible_point_via_lp(_validate(_lp_fallback_doc()), 0, 1e-6)
    with pytest.raises(ms.NoInteriorPointError):
        _feasible_point_via_lp(_validate(_one_station_doc(2.0)), 0, 1e-6)
    assert capfd.readouterr() == ("", "")


def test_lp_infeasible_when_storage_cannot_fit():
    doc = make_doc(service_size=[4.0, 4.0], cloud_capacity=[2.0, 2.0, 2.0])
    s = _validate(doc)
    with pytest.raises(ms.InfeasibleError) as err:
        _feasible_point_via_lp(s, 0, 1e-6)
    assert not isinstance(err.value, ms.NoInteriorPointError)


def test_a_failed_lp_solve_raises_runtime_error(monkeypatch):
    # neither optimal nor infeasible (nor a model error): HiGHS's trouble
    from scipy.optimize._highspy import _core

    class Failing(_core._Highs):
        def getModelStatus(self):
            return _core.HighsModelStatus.kSolveError

    monkeypatch.setattr(_core, "_Highs", Failing)
    with pytest.raises(RuntimeError, match="LP solver failed: HiGHS model status Solve error"):
        _feasible_point_via_lp(_validate(_lp_fallback_doc()), 0, 1e-6)


def test_an_lp_model_highs_refuses_reads_as_an_empty_lp(monkeypatch):
    # linprog reads HiGHS's model error as infeasible (its status 2)
    from scipy.optimize._highspy import _core

    class Refusing(_core._Highs):
        def passModel(self, *args):
            return _core.HighsStatus.kError

    monkeypatch.setattr(_core, "_Highs", Refusing)
    with pytest.raises(ms.InfeasibleError) as err:
        _feasible_point_via_lp(_validate(_lp_fallback_doc()), 0, 1e-6)
    assert type(err.value) is ms.InfeasibleError


def test_options_highs_refuses_raise_runtime_error(monkeypatch):
    # no model is passed or run, so the status is HiGHS's "Not Set"
    from scipy.optimize._highspy import _core

    class Refusing(_core._Highs):
        def passOptions(self, options):
            return _core.HighsStatus.kError

    monkeypatch.setattr(_core, "_Highs", Refusing)
    with pytest.raises(RuntimeError, match="LP solver failed: HiGHS model status Not Set"):
        _feasible_point_via_lp(_validate(_lp_fallback_doc()), 0, 1e-6)


def _highs_replacing(kind, index, value):
    """A ``_Highs`` whose solution has one column or row value replaced:
    ``kind`` is "col" or "row"."""
    from scipy.optimize._highspy import _core

    class Highs(_core._Highs):
        def getSolution(self):
            solution = super().getSolution()
            values = {"col": list(solution.col_value), "row": list(solution.row_value)}
            values[kind][index] = value
            return SimpleNamespace(col_value=values["col"], row_value=values["row"])

    return Highs


# _lp_fallback_doc's rows: storage 0-1 (5.0), capacity 2-3 (1.5 - margin),
# x sums 4-5 and y sums 6-7 (1.0); every column lies in [0, 1]
@pytest.mark.parametrize("kind, index, value", [
    ("col", 0, -1e-3),
    ("col", 0, 1.0 + 1e-3),
    ("col", 0, np.nan),
    ("row", 0, 5.0 + 1e-3),
    ("row", 2, np.nan),
    ("row", 4, 1.0 + 1e-3),
    ("row", 7, 1.0 - 1e-3),
])
def test_an_lp_point_off_its_bounds_or_rows_raises_runtime_error(monkeypatch, kind, index, value):
    # linprog's post-solve check, kept: sqrt(1e-9) * 10 = 3.16e-4 is allowed
    from scipy.optimize._highspy import _core

    monkeypatch.setattr(_core, "_Highs", _highs_replacing(kind, index, value))
    with pytest.raises(RuntimeError, match="misses its bounds or rows by more than 3.16E-04"):
        _feasible_point_via_lp(_validate(_lp_fallback_doc()), 0, 1e-6)


@pytest.mark.parametrize("kind, index, value", [
    ("col", 0, -3e-4),
    ("col", 0, 1.0 + 3e-4),
    ("row", 0, 5.0 + 3e-4),
    ("row", 4, 1.0 - 3e-4),
])
def test_an_lp_point_within_the_check_tolerance_passes(monkeypatch, kind, index, value):
    from scipy.optimize._highspy import _core

    monkeypatch.setattr(_core, "_Highs", _highs_replacing(kind, index, value))
    x, y = _feasible_point_via_lp(_validate(_lp_fallback_doc()), 0, 1e-6)
    assert x.min() >= 0.0 and y.max() <= 1.0  # clipped into [0, 1]


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


def _solved(s, t, **kwargs):
    """``solve_slot``'s decision and report, as ``_search_slot`` returns them."""
    decision, _, report = ms.solve_slot(s, t, **kwargs)
    return decision, report


def test_solve_slot_rounds_the_lp_point_when_the_uniform_point_cannot_be_repaired():
    s = _validate(_lp_fallback_doc())
    assert _uniform_point(s, 0, 1e-6) is None
    for solve in (_search_slot, _solved):
        decision, report = solve(s, 0)
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
    _search_slot(s, 0, warm_start=ms.SlotDecision((0, 0), (1, 0)))
    assert [(r.name, r.levelno) for r in caplog.records] == [
        ("mecsim", logging.DEBUG), ("mecsim", logging.DEBUG)
    ]
    assert "solving the LP" in caplog.records[0].getMessage()
    assert "dropped the warm start" in caplog.records[1].getMessage()

    caplog.clear()
    # No draw passes the check, so each of the three seed roundings falls
    # back to greedy repair, and the search result is dropped.
    monkeypatch.setattr("mecsim.optimizer.decision_feasible", lambda *args: False)
    monkeypatch.setattr("mecsim.optimizer._fits", lambda *args: False)
    with pytest.raises(ms.RoundingFailedError):
        _search_slot(s, 0)
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
        assert got == pytest.approx(
            state.tables.costs.non_switching(state.placement, state.selection), rel=1e-9
        )
        assert state.f == state.tables.costs.non_switching(state.placement, state.selection)


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
    """Every one-user move but staying put, in (user, coverage-order
    station, cloud by (latency, index)) order, the order of the search's
    one-user walk."""
    lat = state.tables.costs.lat
    return [
        [(k, i, j)]
        for k in range(state.n)
        for j in state.cov[k]
        for i in sorted(range(state.m), key=lambda i: (lat[i][j], i))
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


# one-slot docs of shapes ``_search_case`` never draws, one cloud and one
# user; every user sits feasibly on cloud 0 and station 0
_ONE_CLOUD = {  # every user shares the one cloud and station: no move
    "num_clouds": 1,
    "num_users": 3,
    "num_slots": 1,
    "cloud_capacity": [2.0],
    "bs_capacity": [3.5],
    "service_size": [1.0, 0.5, 0.5],
    "link_latency": [[[0.5]]],
    "coverage": [[[0], [0], [0]]],
    "demand": [[1.0, 0.5, 1.5]],
}
_ONE_USER = {  # its cloud is full; cloud 1 and station 1 have no room for it
    "num_clouds": 3,
    "num_users": 1,
    "num_slots": 1,
    "cloud_capacity": [1.0, 0.5, 2.0],
    "bs_capacity": [1.5, 1.0, 3.0],
    "service_size": [1.0],
    "link_latency": [[[0.5, 0.1, 2.0], [0.0, 1.0, 0.3], [1.5, 0.2, 0.4]]],
    "coverage": [[[0, 1, 2]]],
    "demand": [[1.0]],
}


@settings(max_examples=300, deadline=None)
@given(_search_case())
@example((_ONE_CLOUD, [0, 0, 0], [0, 0, 0], [(0, 0, 0)]))
@example((_ONE_USER, [0], [0], [(0, 2, 2)]))
def test_single_move_scan_is_the_first_probe_minimum(case):
    doc, placement, selection, _ = case
    s = _validate(doc)
    for margin in (1e-6, 0.0):
        state = _state(s, placement, selection, margin)
        assert _as_batch(state.best_single_move()) == _first_probe(
            state, _single_moves(state)
        )


def _probe_kick(tables, d, rng):
    """``_kick`` with each mover's options listed by ``probe``: every
    (cloud, covered station) that ``probe`` passes, in that order."""
    state = _SearchState(tables, d.placement, d.selection)
    for k in rng.choice(state.n, size=min(2, state.n), replace=False):
        k = int(k)
        options = [
            (i, j)
            for i in range(state.m)
            for j in state.cov[k]
            if state.probe([(k, i, j)]) is not None
        ]
        i, j = options[int(rng.integers(len(options)))]
        state.apply([(k, i, j)])
    return state.decision()


@settings(max_examples=300, deadline=None)
@given(_search_case(), st.integers(0, 2**32 - 1))
@example((_ONE_CLOUD, [0, 0, 0], [0, 0, 0], [(0, 0, 0)]), 0)
@example((_ONE_USER, [0], [0], [(0, 2, 2)]), 0)
def test_kick_picks_among_the_options_probe_passes(case, seed):
    doc, placement, selection, _ = case
    s = _validate(doc)
    d = ms.SlotDecision(tuple(placement), tuple(selection))
    for margin in (1e-6, 0.0):
        tables = _SlotTables(s, 0, margin)
        rng, reference_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        assert _kick(tables, d, rng).decision() == _probe_kick(tables, d, reference_rng)
        assert rng.bit_generator.state == reference_rng.bit_generator.state


@settings(max_examples=300, deadline=None)
@given(_search_case(), st.integers(0, 2**32 - 1))
@example((_ONE_CLOUD, [0, 0, 0], [0, 0, 0], [(0, 0, 0)]), 0)
@example((_ONE_USER, [0], [0], [(0, 2, 2)]), 0)
def test_kick_hands_over_a_fresh_state_of_its_decision(case, seed):
    # _local_search descends from the state _kick returns, so it must be
    # the state a fresh build of the kicked decision gives, field by field
    doc, placement, selection, _ = case
    s = _validate(doc)
    d = ms.SlotDecision(tuple(placement), tuple(selection))
    for margin in (1e-6, 0.0):
        state = _kick(_SlotTables(s, 0, margin), d, np.random.default_rng(seed))
        _assert_fresh_state(s, state, margin)


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


# one user on cloud 2 and station 2; moving it to (cloud 1, station 0) or
# to (cloud 0, station 1) values the same, as the two stations are alike
_CROSS_STATION_TIE = {
    "num_clouds": 3,
    "num_users": 1,
    "num_slots": 1,
    "cloud_capacity": [2.0, 2.0, 2.0],
    "bs_capacity": [3.0, 3.0, 3.0],
    "service_size": [1.0],
    "link_latency": [[[4.0, 0.5, 4.0], [0.5, 4.0, 4.0], [4.0, 4.0, 1.0]]],
    "coverage": [[[0, 1, 2]]],
    "demand": [[1.0]],
}


def test_single_move_scan_breaks_a_cross_station_tie_by_station_first():
    # Of two tied moves to different stations, the scan takes the one to
    # the station earlier in coverage order, not the one to the lower cloud.
    s = _validate(_CROSS_STATION_TIE)
    for margin in (1e-6, 0.0):
        state = _state(s, [2], [2], margin)
        value = state.probe([(0, 1, 0)])
        assert value is not None and value == state.probe([(0, 0, 1)])
        assert state.best_single_move() == (value, (0, 1, 0))


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
@given(_tie_case())
def test_exchange_scan_breaks_ties_as_probe_does(case):
    doc, placement, selection = case
    s = _validate(doc)
    for margin in (1e-6, 0.0):
        state = _state(s, placement, selection, margin)
        assert state.best_exchange() == _first_probe(state, _exchanges(state))


def test_exchange_scan_along_a_large_cold_solve(monkeypatch):
    # Slot 0 of the online-large benchmark scenario (M=16, N=40): every
    # exchange scan of the search is checked against every probe.
    s = online_large_scenario()
    scan = _SearchState.best_exchange
    checked = 0

    def checking(self):
        nonlocal checked
        got = scan(self)
        assert got == _first_probe(self, _exchanges(self))
        checked += 1
        return got

    monkeypatch.setattr(_SearchState, "best_exchange", checking)
    ms.solve_slot(s, 0)
    assert checked >= 10


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


@st.composite
def _apply_case(draw):
    """A ``_float_case`` or ``_near_capacity_case`` decision and a sequence
    of batches of 1-3 distinct users' moves within coverage; tight rooms
    make ``apply`` refuse some of them."""
    doc, placement, selection = draw(_float_case() | _near_capacity_case())
    m, n, cov = doc["num_clouds"], doc["num_users"], doc["coverage"][0]
    batches = []
    for _ in range(draw(st.integers(1, 8))):
        users = draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=3, unique=True))
        batches.append([
            (k, draw(st.integers(0, m - 1)), draw(st.sampled_from(cov[k]))) for k in users
        ])
    return doc, placement, selection, batches


# Station 0's capacity is the three demands summed in user order. With
# users 0 and 2 on it, user 1 arriving sums to one ulp less, the station's
# limit at margin 0, so a kick's move passed the check; the state summed the
# load again in user order, got the capacity, and its queue term divided by
# zero.
_RESUM_AT_CAPACITY = {
    "num_clouds": 2,
    "num_users": 3,
    "num_slots": 1,
    "bs_capacity": [2.716133253748052, 4.178389052481199],
    "cloud_capacity": [10.0, 10.0],
    "service_size": [1.0, 1.0, 1.0],
    "link_latency": [[[1.910885061964363, 0.8093601412916109],
                      [0.12292057180858407, 0.04958290658558728]]],
    "coverage": [[[0, 1], [0, 1], [0, 1]]],
    "demand": [[0.7034552406761496, 0.7623133404418495, 1.2503646726300526]],
}


@settings(max_examples=300, deadline=None)
@given(_apply_case())
# at margin 0, user 1 arriving on station 0 sums again to its capacity
@example((_RESUM_AT_CAPACITY, (0, 0, 0), (0, 1, 0), [[(1, 0, 0)]]))
# users 0 and 2 leave station 0 empty: its kept terms go back to 0.0
@example((_RESUM_AT_CAPACITY, (0, 0, 0), (0, 1, 0), [[(0, 0, 1), (2, 0, 1)]]))
def test_apply_leaves_the_state_a_fresh_state_of_its_decision_has(case):
    doc, placement, selection, batches = case
    s = _validate(doc)
    for margin in (1e-6, 0.0):
        state = _state(s, placement, selection, margin)
        for batch in batches:
            before = state.placement[:], state.selection[:]
            if not state.apply(batch):
                assert (state.placement, state.selection) == before
            _assert_fresh_state(s, state, margin)


def _assert_fresh_state(s, state, margin):
    """Every kept field of ``state`` is the one a fresh state of its
    decision has, its tallies are ``model._tally``'s, and ``f`` is the
    decision's ``_IndexCosts`` value."""
    fresh = _state(s, state.placement, state.selection, margin)
    for name in (
        "cloud_users", "station_users", "user_lat",
        "used", "load", "users_on", "recip", "out", "drops", "f",
    ):
        assert getattr(state, name) == getattr(fresh, name), name
    costs = state.tables.costs
    assert state.used == _tally(state.m, state.placement, costs.sizes)
    assert state.load == _tally(state.m, state.selection, costs.demand)
    assert state.f == state.tables.costs.non_switching(state.placement, state.selection)


@settings(max_examples=300, deadline=None)
@given(_apply_case())
@example((_RESUM_AT_CAPACITY, (0, 0, 0), (0, 1, 0), [[(1, 0, 0)]]))
def test_exchange_scan_and_single_move_scan_after_each_applied_or_refused_batch(case):
    # The scans read the kept lists, tallies and terms that ``apply``
    # updates; after every batch, applied or refused, each still returns the
    # first strict probe minimum of its moves. The scans assume a feasible
    # state, as every search state is, so a start that breaks a limit at
    # this margin (a near-capacity station at margin 1e-6) is skipped.
    doc, placement, selection, batches = case
    s = _validate(doc)
    start = ms.SlotDecision(tuple(placement), tuple(selection))
    for margin in (1e-6, 0.0):
        if not ms.decision_feasible(s, 0, start, margin):
            continue
        state = _state(s, placement, selection, margin)
        for batch in batches:
            state.apply(batch)
            assert state.best_exchange() == _first_probe(state, _exchanges(state))
            assert _as_batch(state.best_single_move()) == _first_probe(
                state, _single_moves(state)
            )


@settings(max_examples=300, deadline=None)
@given(_search_case(), st.lists(st.integers(0, 2**32 - 1), min_size=1, max_size=8))
def test_kept_floor_drops_are_a_fresh_states(case, seeds):
    # ``_settle`` prices only the stations a move touches again; every
    # station's kept drop, and so each floor, is still the float a fresh
    # state of the decision computes. The case's batch, kept within
    # coverage, is often refused; each seed then picks a random one-user
    # move or exchange that ``probe`` passes.
    doc, placement, selection, batch = case
    s = _validate(doc)
    for margin in (1e-6, 0.0):
        tables = _SlotTables(s, 0, margin)
        state = _SearchState(tables, tuple(placement), tuple(selection))

        def check():
            fresh = _SearchState(tables, tuple(state.placement), tuple(state.selection))
            assert state.drops == fresh.drops
            assert state.floors() == fresh.floors()

        state.apply([(k, i, j) for k, i, j in batch if j in state.cov[k]])
        check()
        for seed in seeds:
            rng = np.random.default_rng(seed)
            moves = _exchanges(state) if rng.integers(2) else _single_moves(state)
            feasible = [move for move in moves if state.probe(move) is not None]
            if feasible:
                assert state.apply(feasible[int(rng.integers(len(feasible)))])
                check()


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
    # exchange scan the floor skips is run here; no exchange it finds would
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
    # one exchange scan; the exchange floor shows most of them cannot win.
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
    _search_slot(s, 0)
    _search_slot(s, 1)
    assert checked >= 10


def test_cold_solve_does_not_probe_exchanges_one_by_one(monkeypatch):
    # One walk per search step over each user's covering partners, read
    # from the station lists, values the plain exchanges; probing them pair
    # by pair took 125,168 probe calls on this slot.
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
    _search_slot(s, 0)
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
    _search_slot(s, 0)
    assert len(scanned) > 1
    assert len(scanned) == len(set(scanned))


def test_recorded_descents_equal_fresh_descents(monkeypatch):
    # Every search of the solves, kicked starts included, against the same
    # descent from a fresh state on fresh slot tables, whose record is
    # empty. The state's decision is taken before its descent moves it.
    search = mecsim_optimizer._local_search
    calls = reused = 0

    def checked(state):
        nonlocal calls, reused
        tables, d = state.tables, state.decision()
        before = len(tables.descents)
        got = search(state)
        fresh = _SlotTables(tables.s, tables.t, tables.margin)
        assert got == search(_SearchState(fresh, d.placement, d.selection))
        calls += 1
        # a descent that ran its whole path adds moves + 1 decisions
        reused += len(tables.descents) - before < got[2] + 1
        return got

    monkeypatch.setattr(mecsim_optimizer, "_local_search", checked)
    for seed in range(20):
        _search_slot(_validate(moderate_doc(seed)), 0)
    for seed in range(20):
        try:
            _search_slot(_validate(random_doc(seed, m=4, n=5, tight=True)), 0)
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
    optimum, value, moves = mecsim_optimizer._local_search(
        _SearchState(tables, start.placement, start.selection)
    )
    assert moves == 2 and len(tables.descents) == 3
    monkeypatch.setattr(mecsim_optimizer, "_MAX_MOVES", 1)
    capped = _SlotTables(s, 0, 1e-6)
    stopped, stopped_value, stopped_moves = mecsim_optimizer._local_search(
        _SearchState(capped, start.placement, start.selection)
    )
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
    repaired, moves = _greedy_repair(_SlotTables(s, t, config.margin), decision)
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
    # one build drawn from for every seed, as solve_slot draws its seeds
    shared = _Rounding(_SlotTables(s, 0, ms.DEFAULT_CONFIG.margin), frac.x, frac.y)
    outcomes = []
    for seed in range(200):
        got = ms.round_decision(s, 0, frac, rng_seed=seed)
        assert got == _choice_round(s, 0, frac, seed)
        assert shared.draw(seed) == got
        outcomes.append(got)
    case = request.node.callspec.id
    if case == "redraws":
        assert any(attempts > 1 for _, attempts, _ in outcomes)
    if case == "greedy repair":
        assert all(repairs > 0 for _, _, repairs in outcomes)


def _capacity_at_limit(load, margin):
    """A station capacity whose ``station_limit`` is exactly ``load``, or None."""
    cap = load + margin if margin else math.nextafter(load, math.inf)
    for c in (cap, math.nextafter(cap, math.inf), math.nextafter(cap, -math.inf)):
        if station_limit(np.array([c]), margin)[0] == load:
            return c
    return None


@st.composite
def _draw_check_case(draw):
    """A ``random_doc`` (tight or not) or ``moderate_doc`` slot, a margin (0
    or the default) and a draw within coverage. Half the time one cloud's
    capacity is its storage under the draw, and half the time one station's
    limit is its load, exactly; each may be nudged one ulp either way."""
    seed = draw(st.integers(0, 2**16))
    m, n = draw(st.integers(2, 5)), draw(st.integers(1, 8))
    doc = draw(st.sampled_from([
        lambda: random_doc(seed, m=m, n=n),
        lambda: random_doc(seed, m=m, n=n, tight=True),
        lambda: moderate_doc(seed, m=m, n=n),
    ]))()
    margin = draw(st.sampled_from([0.0, ms.DEFAULT_CONFIG.margin]))
    cov = doc["coverage"][0]
    placement = tuple(draw(st.lists(st.integers(0, m - 1), min_size=n, max_size=n)))
    selection = tuple(draw(st.sampled_from(stations)) for stations in cov)
    used = np.bincount(placement, weights=doc["service_size"], minlength=m)
    load = np.bincount(selection, weights=doc["demand"][0], minlength=m)
    nudge = st.sampled_from([0.0, math.inf, -math.inf])
    if draw(st.booleans()):
        i = draw(st.sampled_from(placement))
        step = draw(nudge)
        cap = float(used[i])
        doc["cloud_capacity"][i] = math.nextafter(cap, step) if step else cap
    if draw(st.booleans()):
        j = draw(st.sampled_from(selection))
        cap = _capacity_at_limit(float(load[j]), margin)
        if cap is not None:
            step = draw(nudge)
            doc["bs_capacity"][j] = math.nextafter(cap, step) if step else cap
    return doc, margin, placement, selection


def _at_the_limits(margin, over):
    """A ``random_doc`` draw with cloud 0's storage at its capacity and the
    first user's station load at its limit, exactly, or that station one
    ulp over."""
    doc = random_doc(4, m=3, n=4)
    placement, selection = (0, 0, 1, 2), tuple(c[0] for c in doc["coverage"][0])
    used = np.bincount(placement, weights=doc["service_size"], minlength=3)
    load = np.bincount(selection, weights=doc["demand"][0], minlength=3)
    doc["cloud_capacity"][0] = float(used[0])
    cap = _capacity_at_limit(float(load[selection[0]]), margin)
    doc["bs_capacity"][selection[0]] = math.nextafter(cap, -math.inf) if over else cap
    return doc, margin, placement, selection


@settings(max_examples=400, deadline=None)
@given(_draw_check_case())
@example(_at_the_limits(0.0, over=False))
@example(_at_the_limits(0.0, over=True))
@example(_at_the_limits(ms.DEFAULT_CONFIG.margin, over=False))
@example(_at_the_limits(ms.DEFAULT_CONFIG.margin, over=True))
def test_draw_check_agrees_with_decision_feasible(case):
    # the rounding's check: _fits over the slot tables' lists
    doc, margin, placement, selection = case
    s = _validate(doc)
    tables = _SlotTables(s, 0, margin)
    decision = ms.SlotDecision(placement, selection)
    fit = _fits(
        placement, selection, tables.costs.sizes, tables.costs.demand,
        tables.cloud_cap, tables.limit,
    )
    assert fit == ms.decision_feasible(s, 0, decision, margin)


def _full_tally_draw(rounding, seed):
    """``_Rounding.draw`` with every attempt formed whole and checked on its
    full ``model._tally``."""
    tables = rounding.tables
    rng = np.random.default_rng(seed)
    for attempt in range(1, mecsim_optimizer._MAX_ATTEMPTS + 1):
        u = rng.random(2 * tables.n).tolist()
        placement = tuple(bisect_right(cdf, v) for cdf, v in zip(rounding.x_cdf, u[0::2]))
        selection = tuple(
            stations[bisect_right(cdf, v)]
            for stations, cdf, v in zip(tables.cov, rounding.y_cdf, u[1::2])
        )
        used = _tally(tables.m, placement, tables.costs.sizes)
        load = _tally(tables.m, selection, tables.costs.demand)
        if all(map(operator.le, used, tables.cloud_cap)) and all(
            map(operator.le, load, tables.limit)
        ):
            decision = ms.SlotDecision(placement, selection)
            if ms.decision_feasible(tables.s, tables.t, decision, tables.margin):
                return decision, attempt, 0
    repaired, moves = _greedy_repair(tables, ms.SlotDecision(placement, selection))
    return repaired, mecsim_optimizer._MAX_ATTEMPTS, moves


def _outcome(draw, *args):
    try:
        return draw(*args)
    except ms.RoundingFailedError:
        return ms.RoundingFailedError


def test_draw_stops_attempts_where_the_full_tally_would_fail_them():
    # Tight slots where some draws fit at once, some after failed attempts
    # and some in none of the attempts, so the last one is repaired.
    attempts = set()
    for seed, (m, n) in itertools.product(range(4), [(3, 3), (4, 5), (5, 10)]):
        doc = random_doc(seed, m=m, n=n, tight=True)
        for margin in (0.0, ms.DEFAULT_CONFIG.margin):
            rounding = _Rounding(_SlotTables(_validate(doc), 0, margin), *_uniform_interior(doc))
            for rng_seed in range(5):
                got = _outcome(rounding.draw, rng_seed)
                assert got == _outcome(_full_tally_draw, rounding, rng_seed)
                if got is not ms.RoundingFailedError:
                    attempts.add(got[1])
    assert 1 in attempts and mecsim_optimizer._MAX_ATTEMPTS in attempts
    assert any(1 < a < mecsim_optimizer._MAX_ATTEMPTS for a in attempts)


# weights whose column CDF has an entry of 1e-17, and one of the largest
# float below 1.0: neither is <= 0.0 or >= 1.0, so each column varies
_ONE_POINT_EDGES = {"tiny": (1e-17, 1.0), "near-one": (math.nextafter(1.0, 0.0), 2.0**-53)}


def _edge_case():
    """make_doc at margin 0, a one-hot point but for user 0's x column and
    user 1's y column, which carry the two edges."""
    x = np.array([[*_ONE_POINT_EDGES["tiny"], 0.0], [0.0, 1.0, 0.0]]).T
    y = np.array([[0.0, 0.0, 1.0], [*_ONE_POINT_EDGES["near-one"], 0.0]]).T
    return make_doc(), 0.0, ms.FractionalDecision(x=x, y=y)


@st.composite
def _mostly_integral_case(draw):
    """A ``random_doc`` (tight or not) or ``moderate_doc`` slot, a margin (0
    or the default) and a fractional point whose columns are one-hot but
    for up to three users': one column of each, x or y, takes random
    weights or one of ``_ONE_POINT_EDGES`` on two of its entries."""
    seed = draw(st.integers(0, 2**16))
    m, n = draw(st.integers(2, 5)), draw(st.integers(1, 8))
    doc = draw(st.sampled_from([
        lambda: random_doc(seed, m=m, n=n),
        lambda: random_doc(seed, m=m, n=n, tight=True),
        lambda: moderate_doc(seed, m=m, n=n),
    ]))()
    margin = draw(st.sampled_from([0.0, ms.DEFAULT_CONFIG.margin]))
    cov = doc["coverage"][0]
    x, y = np.zeros((m, n)), np.zeros((m, n))
    for k in range(n):
        x[draw(st.integers(0, m - 1)), k] = 1.0
        y[draw(st.sampled_from(cov[k])), k] = 1.0
    for k in draw(st.lists(st.integers(0, n - 1), max_size=3, unique=True)):
        side, rows = draw(st.sampled_from([(x, list(range(m))), (y, cov[k])]))
        side[:, k] = 0.0
        kind = draw(st.sampled_from(["random", *_ONE_POINT_EDGES]))
        if kind == "random":
            for r in rows:
                side[r, k] = draw(st.floats(0.0, 1.0))
        else:
            pair = st.lists(st.sampled_from(rows), min_size=2, max_size=2, unique=True)
            a, b = sorted(draw(pair))
            side[a, k], side[b, k] = _ONE_POINT_EDGES[kind]
    return doc, margin, ms.FractionalDecision(x=x, y=y)


def test_one_point_edges_count_as_varying():
    doc, margin, frac = _edge_case()
    rounding = _Rounding(_SlotTables(_validate(doc), 0, margin), frac.x, frac.y)
    assert rounding.x_cdf[0][0] == 1e-17
    assert rounding.y_cdf[1][0] == math.nextafter(1.0, 0.0)
    # user 0's cloud and user 1's station; every other column is one-hot
    assert rounding.vary.tolist() == [0, 3]


@settings(max_examples=200, deadline=None)
@given(_mostly_integral_case(), st.lists(st.integers(0, 2**32 - 1), min_size=3, max_size=3))
@example(_edge_case(), [0, 1, 2])
def test_draw_with_shared_verdicts_matches_the_samplers(case, seeds):
    # one build drawn from for several seeds, as solve_slot draws its seeds,
    # so later draws read verdicts the earlier ones left
    doc, margin, frac = case
    s = _validate(doc)
    rounding = _Rounding(_SlotTables(s, 0, margin), frac.x, frac.y)
    # a column varies exactly when two uniforms in [0, 1) pick apart: the
    # least and the greatest, as bisect_right's pick never falls as u grows
    cdfs = [cdf for pair in zip(rounding.x_cdf, rounding.y_cdf) for cdf in pair]
    assert rounding.vary.tolist() == [
        slot for slot, cdf in enumerate(cdfs)
        if bisect_right(cdf, 0.0) != bisect_right(cdf, math.nextafter(1.0, 0.0))
    ]
    config = ms.SolverConfig(margin=margin)
    for seed in seeds:
        got = _outcome(rounding.draw, seed)
        assert got == _outcome(_choice_round, s, 0, frac, seed, config)
        assert got == _outcome(_full_tally_draw, rounding, seed)


def test_one_build_checks_each_key_once(monkeypatch):
    # Slot 7 of online-large rounds the zero-cost LP vertex: all but a few
    # columns are one-point, so most attempts repeat a key already checked.
    s = online_large_scenario()
    margin = ms.DEFAULT_CONFIG.margin
    assert _uniform_point(s, 7, margin) is None
    rounding = _Rounding(_SlotTables(s, 7, margin), *_feasible_point_via_lp(s, 7, margin))
    checked = []

    def recorded(placement, selection, *limits):
        draw = tuple(placement), tuple(selection)
        checked.append(draw)
        return _fits(*draw, *limits)

    monkeypatch.setattr("mecsim.optimizer._fits", recorded)
    attempts = sum(rounding.draw(seed)[1] for seed in mecsim_optimizer._CANDIDATE_SEEDS)
    # a key's draw is its fixed picks and its varying ones: one draw per key
    assert len(checked) == len(set(checked)) == len(rounding.verdicts)
    assert attempts > 3 * len(checked)


def _solve_slot_draws(monkeypatch, s, margin):
    """Each seed ``solve_slot`` draws with what the draw gave (a result or
    RoundingFailedError), and the point its rounding was built on."""
    init, draw = _Rounding.__init__, _Rounding.draw
    points, draws = [], []

    def record_init(self, tables, x, y):
        points.append((x, y))
        init(self, tables, x, y)

    def record_draw(self, rng_seed):
        try:
            got = draw(self, rng_seed)
        except ms.RoundingFailedError as exc:
            got = type(exc)
        draws.append((rng_seed, got))
        if got is ms.RoundingFailedError:
            raise got
        return got

    monkeypatch.setattr(_Rounding, "__init__", record_init)
    monkeypatch.setattr(_Rounding, "draw", record_draw)
    try:
        _search_slot(s, 0, config=ms.SolverConfig(margin=margin))
    except (ms.InfeasibleError, ms.RoundingFailedError):
        pass
    monkeypatch.undo()
    return points, draws


@pytest.mark.parametrize("margin", [0.0, ms.DEFAULT_CONFIG.margin], ids=["0", "default"])
@pytest.mark.parametrize("doc", [
    *(random_doc(seed, m=4, n=6) for seed in range(3)),
    *(random_doc(seed, m=4, n=6, tight=True) for seed in range(3)),
    *(moderate_doc([seed, 5], m=5, n=8) for seed in range(3)),
    _lp_fallback_doc(),
])
def test_solve_slot_draws_what_round_decision_gives(monkeypatch, doc, margin):
    s = _validate(doc)
    points, draws = _solve_slot_draws(monkeypatch, s, margin)
    assert len(points) == 1  # one build for all seeds
    assert [seed for seed, _ in draws] == list(mecsim_optimizer._CANDIDATE_SEEDS)
    frac = ms.FractionalDecision(*points[0])
    config = ms.SolverConfig(margin=margin)
    for seed, got in draws:
        try:
            expected = ms.round_decision(s, 0, frac, seed, config)
        except ms.RoundingFailedError as exc:
            expected = type(exc)
        assert got == expected


def test_round_integral_point_returned_unchanged():
    s = _validate(make_doc())
    d = ms.SlotDecision((0, 2), (1, 2))
    frac = ms.FractionalDecision(x=d.placement_matrix(3), y=d.selection_matrix(3))
    rounded, attempts, repairs = ms.round_decision(s, 0, frac, rng_seed=123)
    assert rounded == d
    assert attempts == 1
    assert repairs == 0


@pytest.mark.parametrize("seed", [True, 1.5, -1], ids=["bool", "float", "negative"])
def test_round_seed_must_be_an_integer_at_least_zero(seed):
    # unchecked, True drew as seed 1 and 1.5 raised NumPy's TypeError
    s = _validate(make_doc())
    d = ms.SlotDecision((0, 2), (1, 2))
    frac = ms.FractionalDecision(x=d.placement_matrix(3), y=d.selection_matrix(3))
    with pytest.raises(ValueError, match="rng_seed must be an integer >= 0"):
        ms.round_decision(s, 0, frac, rng_seed=seed)
    assert ms.round_decision(s, 0, frac, rng_seed=np.int64(1)) == (
        ms.round_decision(s, 0, frac, rng_seed=1)
    )


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


def test_zero_margin_solve_survives_a_load_that_rounds_up_when_summed_again():
    s = _validate(_RESUM_AT_CAPACITY)
    for solve in (_search_slot, _solved):
        decision, report = solve(s, 0, config=ms.SolverConfig(margin=0.0))
        best, value = ms.best_slot_decision(s, 0, margin=0.0)
        assert ms.decision_feasible(s, 0, decision, 0.0)
        assert report.objective == value and decision == best


@st.composite
def _capacity_sum_case(draw):
    """A slot where every user is covered by both stations and station 0's
    capacity is the users' total demand summed in user order, while some
    other order sums one ulp or more lower: at margin 0 the total is over
    station 0's limit, yet the last user to arrive, as a move checks it,
    may fit. Station 1 has room to spare; with or without a warm start."""
    n = draw(st.integers(3, 4))
    # hypothesis's own floats are mostly short binary fractions, whose sums
    # are exact in any order; a seeded generator's have full mantissas
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    while True:
        demand = rng.uniform(0.5, 1.5, size=n).tolist()
        total = functools.reduce(operator.add, demand)  # left to right, as the state sums
        if any(
            functools.reduce(operator.add, order) < total
            for order in itertools.permutations(demand)
        ):
            break
    doc = {
        "num_clouds": 2,
        "num_users": n,
        "num_slots": 1,
        "bs_capacity": [total, rng.uniform(2.0, total + 2.0)],
        "cloud_capacity": [float(n)] * 2,
        "service_size": [1.0] * n,
        "link_latency": [rng.uniform(0.0, 2.0, size=(2, 2)).tolist()],
        "coverage": [[[0, 1]] * n],
        "demand": [demand],
    }
    spots = st.lists(st.integers(0, 1), min_size=n, max_size=n)
    warm = draw(st.none() | st.tuples(spots, spots))
    return doc, warm


@settings(max_examples=300, deadline=None)
@given(_capacity_sum_case())
@example((_RESUM_AT_CAPACITY, None))
def test_zero_margin_solve_returns_a_feasible_decision_or_says_why_not(case):
    doc, warm = case
    s = _validate(doc)
    warm_start = None if warm is None else ms.SlotDecision(*warm)
    for solve in (_search_slot, _solved):
        try:
            decision, _ = solve(s, 0, warm_start=warm_start, config=ms.SolverConfig(margin=0.0))
        except (ms.InfeasibleError, ms.RoundingFailedError):
            continue
        assert ms.decision_feasible(s, 0, decision, 0.0)


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
    decision, report = _search_slot(s, 0)
    _, value = ms.best_slot_decision(s, 0)
    assert report.objective == pytest.approx(value, abs=1e-9)
    assert ms.decision_feasible(s, 0, decision, ms.DEFAULT_CONFIG.margin)


@pytest.mark.parametrize("seed", [142, 247])
def test_solve_slot_needs_three_roundings_over_the_exact_bound(seed):
    # Tight slots over the exact bound, so solve_slot searches them. With
    # rounding 0 alone the search ends at 2.706735 on seed 142, and with
    # roundings 0 and 1 at 0.731840 on seed 247.
    s = _validate(random_doc(seed, m=4, n=5, tight=True))
    assert raw_decisions(s, 0) > mecsim_optimizer._EXACT_BOUND
    decision, report = _search_slot(s, 0)
    _, value = ms.best_slot_decision(s, 0, budget=2_000_000)
    assert report.objective == pytest.approx(value, abs=1e-9)
    assert ms.decision_feasible(s, 0, decision, ms.DEFAULT_CONFIG.margin)


@pytest.mark.parametrize("seed", [11, 13, 20, 99, 5, 70])
def test_solve_slot_finds_feasible_decisions_on_tight_instances(seed):
    # Seeds 11, 13, 20 and 99 have feasible decisions that rounding and
    # repair alone missed. Seed 5 reaches its optimum only from the greedy
    # seed (0.798081 without it), seed 70 only with three-user rotations
    # (1.029526 without them).
    s = _validate(random_doc(seed, m=4, n=5, tight=True))
    decision, report = _search_slot(s, 0)
    assert ms.decision_feasible(s, 0, decision, ms.DEFAULT_CONFIG.margin)
    if seed in (5, 13, 70):
        _, value = ms.best_slot_decision(s, 0, budget=2_000_000)
        assert report.objective == pytest.approx(value, abs=1e-9)


@pytest.mark.parametrize(
    "seed, value",
    [
        (6, 0.8198708618015609),
        (13, 3.7404198403312585),
        (19, 2.386264761829361),
        (34, 0.768817359228327),
    ],
)
def test_solve_slot_rounds_the_repaired_uniform_point_on_tight_slots(seed, value):
    # Each slot is over the exact bound and its uniform point is over a
    # limit; rounding the LP's point instead of the repaired uniform point
    # raises RoundingFailedError on all four.
    s = _validate(random_doc(seed, m=4, n=8, tight=True))
    decision, report = _search_slot(s, 0)
    assert ms.decision_feasible(s, 0, decision, ms.DEFAULT_CONFIG.margin)
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
    _, report = _search_slot(_validate(doc), 0)
    assert report.objective <= reached


def test_solve_slot_enumerates_slots_within_the_exact_bound(monkeypatch):
    # Slot-cold-small instance 0 (M=3, N=3), a criterion-3 instance and the
    # N=5 slots of the small horizon family up to 10^4 raw decisions, warm
    # started off their optimum: each is solved by enumeration, without the
    # search's tables.
    cases = [(_validate(moderate_doc([0, 0])), 0), (_validate(moderate_doc(7)), 0)]
    cases += [
        (s, t)
        for s in small_horizon_family()
        if s.num_users == 5
        for t in range(s.num_slots)
        if raw_decisions(s, t) <= 10_000
    ]
    assert mecsim_optimizer._EXACT_BOUND <= ms.ENUMERATION_BUDGET
    built = 0

    class Counted(_SlotTables):
        def __init__(self, *args):
            nonlocal built
            built += 1
            super().__init__(*args)

    monkeypatch.setattr(mecsim_optimizer, "_SlotTables", Counted)
    for s, t in cases:
        best, value = ms.best_slot_decision(s, t)
        warm = ms.SlotDecision(tuple((i + 1) % s.num_clouds for i in best.placement),
                               best.selection)
        decision, frac, report = ms.solve_slot(s, t, warm_start=warm)
        assert decision == best
        assert report == ms.SolverReport(
            iterations=0, objective=value, rounding_attempts=0, repair_actions=0, starts=0
        )
        assert report.objective == mecsim_optimizer._IndexCosts(s, t).non_switching(
            decision.placement, decision.selection
        )
        assert ms.decision_feasible(s, t, decision, ms.DEFAULT_CONFIG.margin)
        assert np.array_equal(frac.x, decision.placement_matrix(s.num_clouds))
    assert len(cases) >= 20
    assert built == 0


def test_solve_slot_searches_a_large_slot_without_enumerating(monkeypatch):
    # Slot 0 of the online-large benchmark scenario (M=16, N=40): the bound
    # alone sends it to the search.
    def refused(*args):
        raise AssertionError("enumerated a slot over the exact bound")

    monkeypatch.setattr(ms.oracle, "_fitting", refused)
    s = online_large_scenario()
    decision, _, report = ms.solve_slot(s, 0)
    assert report.starts >= 1
    assert ms.decision_feasible(s, 0, decision, ms.DEFAULT_CONFIG.margin)


# Three users of size 1 on two clouds of room 1.5: the uniform point fits,
# no placement does.
_NO_PLACEMENT = make_doc(
    num_users=3, service_size=[1.0] * 3, cloud_capacity=[1.5, 1.5, 0.5],
    coverage=[[[0, 1, 2]] * 3] * 2, demand=[[1.0] * 3] * 2,
)


@pytest.mark.parametrize("doc, verdict, searched", [
    pytest.param(make_doc(service_size=[4.0, 4.0], cloud_capacity=[2.0, 2.0, 2.0]),
                 ms.InfeasibleError, ms.InfeasibleError, id="storage"),
    # the search cannot tell this slot empty: its error is a false failure
    pytest.param(_NO_PLACEMENT, ms.InfeasibleError, ms.RoundingFailedError,
                 id="no-placement"),
    pytest.param({
        "num_clouds": 1, "num_users": 1, "num_slots": 1, "bs_capacity": [1.0],
        "cloud_capacity": [5.0], "service_size": [1.0], "link_latency": [[[0.0]]],
        "coverage": [[[0]]], "demand": [[1.0]],
    }, ms.NoInteriorPointError, ms.NoInteriorPointError, id="no-interior-point"),
])
def test_empty_small_slot_takes_the_enumerators_verdict(doc, verdict, searched):
    s = _validate(doc)
    assert raw_decisions(s, 0) <= mecsim_optimizer._EXACT_BOUND
    for solve in (ms.solve_slot, ms.best_slot_decision, lambda s, t: ms.offline_optimal(s)):
        with pytest.raises(ms.InfeasibleError) as raised:
            solve(s, 0)
        assert type(raised.value) is verdict
    with pytest.raises(searched) as raised:
        _search_slot(s, 0)
    assert type(raised.value) is searched


# Tight slots over the exact bound where the search alone finds no feasible
# decision, as (m, n, seed) of random_doc: those with a decision, and those
# the enumeration shows empty.
_SEARCH_FAILURES = [(4, 5, 15), *((4, 8, seed) for seed in (3, 4, 11, 16, 27, 35, 38, 42, 45))]
_EMPTY_SEARCH_FAILURES = [(4, 5, 9), (4, 5, 40), (4, 5, 74), (4, 5, 89), (4, 8, 7), (4, 8, 41)]


@pytest.mark.parametrize("m, n, seed", _SEARCH_FAILURES)
def test_solve_slot_enumerates_a_slot_the_search_leaves_without_a_decision(caplog, m, n, seed):
    s = _validate(random_doc(seed, m=m, n=n, tight=True))
    assert raw_decisions(s, 0) > mecsim_optimizer._EXACT_BOUND
    with pytest.raises(ms.RoundingFailedError):
        _search_slot(s, 0)
    caplog.set_level(logging.DEBUG, logger="mecsim")
    caplog.clear()
    decision, _, report = ms.solve_slot(s, 0)
    best, value = ms.best_slot_decision(s, 0)
    assert decision == best
    assert report == ms.SolverReport(iterations=0, objective=value, starts=0)
    last = caplog.records[-1]
    assert (last.name, last.levelno, last.getMessage()) == (
        "mecsim", logging.DEBUG,
        "slot 0: the search found no feasible decision; enumerating the slot",
    )


@pytest.mark.parametrize("m, n, seed", _EMPTY_SEARCH_FAILURES)
def test_solve_slot_takes_the_enumerators_verdict_where_the_search_fails(m, n, seed):
    s = _validate(random_doc(seed, m=m, n=n, tight=True))
    assert raw_decisions(s, 0) > mecsim_optimizer._EXACT_BOUND
    with pytest.raises(ms.RoundingFailedError):
        _search_slot(s, 0)
    with pytest.raises(ms.InfeasibleError) as verdict:
        ms.best_slot_decision(s, 0)
    with pytest.raises(ms.InfeasibleError) as raised:
        ms.solve_slot(s, 0)
    assert type(raised.value) is type(verdict.value)


def test_solve_slot_past_the_enumeration_budget_raises_the_search_failure():
    # moderate (5, 10) seed 0: the search finds no decision, and its 5^10
    # placements are past the enumeration budget
    s = _validate(moderate_doc([0, 5, 10], m=5, n=10))
    with pytest.raises(ms.OracleTooLargeError):
        ms.best_slot_decision(s, 0)
    with pytest.raises(ms.RoundingFailedError, match="no feasible integral decision found"):
        ms.solve_slot(s, 0)


def _tight_storage_scenario():
    doc = json.loads((REPO_ROOT / "configs" / "tight_storage.json").read_text(encoding="utf-8"))
    return ms.generate(ms.GeneratorConfig.from_mapping(doc["generator"]))


def test_solve_slot_solves_every_slot_of_the_storage_tight_config():
    # 3 clouds and 10 users, with the services filling 98% of storage: the
    # search alone finds no decision on any of the 8 slots
    s = _tight_storage_scenario()
    for t in range(s.num_slots):
        with pytest.raises(ms.RoundingFailedError):
            _search_slot(s, t)
        decision, _, report = ms.solve_slot(s, t)
        best, value = ms.best_slot_decision(s, t)
        assert decision == best and report.objective == value


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(6, 8), st.sampled_from([0.0, 1e-6]))
@example(3, 8, 1e-6)  # tight (4, 8) seed 3, where the search alone finds nothing
def test_solve_slot_answers_as_the_enumeration_does_on_tight_slots(seed, n, margin):
    # Tight 4-cloud slots over the exact bound and within the enumeration
    # budget: a decision no better than the optimum, or the empty verdict
    # exactly when the enumeration gives it; never RoundingFailedError.
    s = _validate(random_doc(seed, m=4, n=n, tight=True))
    assume(raw_decisions(s, 0) > mecsim_optimizer._EXACT_BOUND)
    try:
        _, optimum = ms.best_slot_decision(s, 0, margin=margin)
    except ms.OracleTooLargeError:
        assume(False)
    except ms.InfeasibleError:
        optimum = None
    try:
        decision, _, report = ms.solve_slot(s, 0, config=ms.SolverConfig(margin=margin))
    except ms.InfeasibleError:
        assert optimum is None
        return
    assert optimum is not None
    assert ms.decision_feasible(s, 0, decision, margin)
    assert report.objective >= optimum - 1e-9 * (1.0 + optimum)


@settings(max_examples=100, deadline=None)
@given(
    st.integers(0, 2**32 - 1), st.sampled_from([(4, 5), (4, 6), (3, 8)]), st.booleans()
)
def test_solve_slot_against_the_enumerator_as_oracle(seed, shape, tight):
    # random_doc slots over the exact bound, so solve_slot searches them, at
    # both margins where the enumeration budget holds: never
    # RoundingFailedError, the empty verdict exactly when the enumeration
    # gives it, and otherwise a feasible decision whose objective is its
    # _IndexCosts value and no better than the optimum
    m, n = shape
    s = _validate(random_doc(seed, m=m, n=n, tight=tight))
    assert raw_decisions(s, 0) > mecsim_optimizer._EXACT_BOUND
    costs = mecsim_optimizer._IndexCosts(s, 0)
    checked = 0
    for margin in (ms.DEFAULT_CONFIG.margin, 0.0):
        try:
            _, optimum = ms.best_slot_decision(s, 0, margin=margin)
        except ms.OracleTooLargeError:
            continue
        except ms.InfeasibleError:
            optimum = None
        checked += 1
        try:
            decision, _, report = ms.solve_slot(s, 0, config=ms.SolverConfig(margin=margin))
        except ms.InfeasibleError:
            assert optimum is None
            continue
        assert optimum is not None
        assert ms.decision_feasible(s, 0, decision, margin)
        assert report.objective == costs.non_switching(decision.placement, decision.selection)
        assert report.objective >= optimum - 1e-9 * (1.0 + abs(optimum))
    assume(checked)


def test_search_reaches_the_optimum_on_the_small_families():
    # Criterion 3's family and the 144 cold slots of the small horizon
    # family, which solve_slot enumerates: the search alone still reaches
    # every optimum.
    cases = [(_validate(moderate_doc(seed)), 0) for seed in range(100)]
    cases += [(s, t) for s in small_horizon_family() for t in range(s.num_slots)]
    assert len(cases) == 244
    for s, t in cases:
        decision, report = _search_slot(s, t)
        _, value = ms.best_slot_decision(s, t)
        assert report.objective == pytest.approx(value, abs=1e-9)
        assert ms.decision_feasible(s, t, decision, ms.DEFAULT_CONFIG.margin)


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(0, 2**32 - 1))
def test_search_returns_no_worse_than_a_seed_it_built(doc_seed, pick):
    # tight 4-cloud, 5-user slots, all over the exact bound, each with a
    # warm start drawn from the slot's feasible decisions
    s = _validate(random_doc(doc_seed, m=4, n=5, tight=True))
    assert raw_decisions(s, 0) > mecsim_optimizer._EXACT_BOUND
    margin = ms.DEFAULT_CONFIG.margin
    try:
        exact = ms.oracle._ExactSlots(s, margin)
        placements = exact.sides(range(1), ms.oracle.ENUMERATION_BUDGET)
        selections, _ = exact.selections(0)
    except ms.InfeasibleError:
        assume(False)
    rng = np.random.default_rng(pick)
    warm = ms.SlotDecision(
        placements[rng.integers(len(placements))], selections[rng.integers(len(selections))]
    )
    _, report = _search_slot(s, 0, warm_start=warm)
    tables = _SlotTables(s, 0, margin)
    for seed in (_greedy_repair(tables, warm)[0], _greedy_indicator(tables)):
        if seed is not None:
            value = tables.costs.non_switching(seed.placement, seed.selection)
            assert report.objective <= value


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
    assert {"_CANDIDATE_SEEDS", "_EXACT_BOUND", "_KICK_ROUNDS", "_MAX_ATTEMPTS"} <= set(knobs)
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
    repaired, moves = _greedy_repair(
        _SlotTables(s, 0, 1e-6), ms.SlotDecision((0, 0, 1), (0, 1, 1))
    )
    assert repaired == ms.SlotDecision((0, 0, 1), (0, 0, 1))
    assert moves == 1
    with pytest.raises(ms.RoundingFailedError):
        # no covered station of user 1 has room once stations 0 and 2 are full
        full = _validate({**doc, "bs_capacity": [1.5, 10.0, 0.5]})
        _greedy_repair(_SlotTables(full, 0, 1e-6), ms.SlotDecision((0, 0, 1), (0, 1, 1)))


def test_greedy_repair_raises_on_a_capacity_overload_it_cannot_repair():
    # both users are covered by station 0 alone, which carries only one
    doc = make_doc(bs_capacity=[1.5, 10.0, 10.0], coverage=[[[0], [0]]] * 2)
    s = _validate(doc)
    with pytest.raises(ms.RoundingFailedError, match="capacity overload on station 0"):
        _greedy_repair(_SlotTables(s, 0, 1e-6), ms.SlotDecision((0, 1), (0, 0)))


def test_greedy_repair_moves_the_heaviest_user_to_the_nearest_cloud_with_room():
    # cloud 0 holds 0.4 + 1.5 + 1.0 = 2.9 of its 2.0. Its heaviest user, user
    # 1 on station 1, moves; from station 1 cloud 2 (0.5) beats cloud 1 (2.0).
    lat = [[0.0, 1.0, 2.0], [1.0, 2.0, 1.0], [2.0, 0.5, 0.0]]
    doc = make_doc(
        num_users=3,
        cloud_capacity=[2.0, 2.0, 2.0],
        service_size=[0.4, 1.5, 1.0],
        link_latency=[lat, lat],
        coverage=[[[0, 1, 2]] * 3] * 2,
        demand=[[1.0, 1.0, 1.0]] * 2,
    )
    s = _validate(doc)
    repaired, moves = _greedy_repair(
        _SlotTables(s, 0, 1e-6), ms.SlotDecision((0, 0, 0), (0, 1, 2))
    )
    assert repaired == ms.SlotDecision((0, 2, 0), (0, 1, 2))
    assert moves == 1


def test_greedy_repair_raises_on_a_storage_overload_it_cannot_repair():
    # each cloud stores one 0.6 service; three of them fit nowhere
    doc = make_doc(
        num_clouds=2,
        num_users=3,
        bs_capacity=[10.0, 10.0],
        cloud_capacity=[1.0, 1.0],
        service_size=[0.6, 0.6, 0.6],
        link_latency=[[[0.0, 1.0], [1.0, 0.0]]] * 2,
        coverage=[[[0, 1]] * 3] * 2,
        demand=[[1.0, 1.0, 1.0]] * 2,
    )
    s = _validate(doc)
    with pytest.raises(ms.RoundingFailedError, match="storage overload on cloud 0"):
        _greedy_repair(_SlotTables(s, 0, 1e-6), ms.SlotDecision((0, 0, 1), (0, 0, 1)))


def test_solve_slot_repairs_a_warm_start_that_left_coverage():
    doc = make_doc(coverage=[[[0, 1, 2], [0, 1, 2]], [[1, 2], [2]]])
    s = _validate(doc)
    warm = ms.SlotDecision((0, 0), (0, 0))
    decision, report = _search_slot(s, 1, warm_start=warm)
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
