"""Scenario validation, decision types, and the feasibility predicate."""

from __future__ import annotations

import json
import math
import os
import re
import stat

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import mecsim as ms
from conftest import make_doc, random_doc
from mecsim.delays import station_loads
from mecsim.model import DEFAULT_MARGIN, station_limit


# ---------------------------------------------------------------------------
# validate_scenario


def test_well_formed_document_accepted():
    s = ms.validate_scenario(make_doc())
    assert s.num_clouds == 3
    assert s.num_users == 2
    assert s.coverage_at(0, 1) == (0, 1, 2)


def test_walkthrough_scenario_accepted(walkthrough_path):
    s = ms.load_scenario(walkthrough_path)
    assert (s.num_clouds, s.num_users, s.num_slots) == (3, 1, 2)


def test_missing_field_rejected():
    doc = make_doc()
    del doc["demand"]
    with pytest.raises(ms.ParseError):
        ms.validate_scenario(doc)


def test_unknown_field_rejected():
    # a misspelt optional field was accepted and read as absent
    doc = make_doc(postions=[[[0.0, 0.0]] * 2] * 2)
    with pytest.raises(ms.ParseError, match="unknown scenario field: postions"):
        ms.validate_scenario(doc)


def test_zero_capacity_rejected():
    doc = make_doc(bs_capacity=[10.0, 10.0, 0.0])
    with pytest.raises(ms.NonPositiveCapacityError):
        ms.validate_scenario(doc)


def test_non_positive_demand_rejected():
    doc = make_doc(demand=[[1.0, -0.5], [1.0, 1.0]])
    with pytest.raises(ms.NonPositiveCapacityError):
        ms.validate_scenario(doc)


def test_empty_coverage_reports_user_and_slot():
    doc = random_doc(0, m=3, n=2, slots=4)
    doc["coverage"][3][1] = []
    with pytest.raises(ms.EmptyCoverageError) as err:
        ms.validate_scenario(doc)
    assert err.value.user == 1
    assert err.value.slot == 3


def test_latency_shape_mismatch_rejected():
    doc = make_doc(link_latency=[[[0.0, 1.0], [1.0, 0.0]]] * 2)
    with pytest.raises(ms.DimensionMismatchError):
        ms.validate_scenario(doc)


def test_negative_latency_rejected():
    doc = make_doc()
    doc["link_latency"][0][0][1] = -1.0
    with pytest.raises(ms.ParseError):
        ms.validate_scenario(doc)


def test_coverage_station_out_of_range_rejected():
    doc = make_doc()
    doc["coverage"][1][0] = [0, 7]
    with pytest.raises(ms.DimensionMismatchError):
        ms.validate_scenario(doc)


@pytest.mark.parametrize("entry", [0.7, True, 2.9, "1"])
def test_coverage_entry_that_is_not_an_integer_rejected(entry):
    doc = make_doc()
    doc["coverage"][0][1] = [0, entry]
    with pytest.raises(ms.ParseError, match="user 1 at slot 0"):
        ms.validate_scenario(doc)


# ---------------------------------------------------------------------------
# decision types


def test_slot_decision_indicator_matrices():
    d = ms.SlotDecision(placement=(2, 0), selection=(1, 1))
    x = d.placement_matrix(3)
    y = d.selection_matrix(3)
    assert x.shape == (3, 2)
    assert x[2, 0] == 1.0 and x[0, 1] == 1.0 and x.sum() == 2.0
    assert y[1, 0] == 1.0 and y[1, 1] == 1.0 and y.sum() == 2.0


def test_slot_decision_length_mismatch_rejected():
    with pytest.raises(ValueError):
        ms.SlotDecision(placement=(0, 1), selection=(0,))


@pytest.mark.parametrize(
    "placement", [(0.7, 1.9), (True, 0), ("1", 0), (1, np.bool_(False)), (1.0, 0)]
)
def test_slot_decision_entry_that_is_not_an_integer_rejected(placement):
    # int() used to truncate these: (0.7, 1.9) became (0, 1) and True became 1
    with pytest.raises(ValueError, match="placement entries must be integers"):
        ms.SlotDecision(placement, (0, 1))
    with pytest.raises(ValueError, match="selection entries must be integers"):
        ms.SlotDecision((0, 1), placement)


@pytest.mark.parametrize("decision", [((-1,), (0,)), ((0,), (-1,)), ((0, 0), (-1, 0))])
def test_slot_decision_negative_entry_rejected(decision):
    # a negative index passed here and the matrix views wrapped it to the
    # last cloud: non_switching_delay priced ((-1,), (0,)) on the
    # walkthrough scenario at 1.8333
    with pytest.raises(ValueError, match="entries must be >= 0"):
        ms.SlotDecision(*decision)


def test_slot_decision_stores_integer_entries_as_int():
    d = ms.SlotDecision(np.array([2, 0]), (np.int64(1), 1))
    assert d == ms.SlotDecision((2, 0), (1, 1))
    assert all(type(v) is int for v in d.placement + d.selection)
    assert repr(d) == "SlotDecision(placement=(2, 0), selection=(1, 1))"


def test_fractional_decision_shape_mismatch_rejected():
    with pytest.raises(ValueError):
        ms.FractionalDecision(x=np.ones((2, 2)) / 2, y=np.ones((3, 2)) / 3)


# ---------------------------------------------------------------------------
# decision_feasible


def _one_user_doc(**overrides):
    doc = make_doc(
        num_users=1,
        service_size=[1.0],
        coverage=[[[0, 1, 2]], [[0, 1, 2]]],
        demand=[[1.0], [1.0]],
    )
    doc.update(overrides)
    return doc


def test_feasible_when_capacities_dominate():
    s = ms.validate_scenario(_one_user_doc())
    for j in range(3):
        d = ms.SlotDecision((0,), (j,))
        assert ms.decision_feasible(s, 0, d)


def test_overload_is_infeasible_even_at_zero_margin():
    doc = make_doc(
        num_users=3,
        service_size=[1.0, 1.0, 1.0],
        coverage=[[[0, 1, 2]] * 3] * 2,
        demand=[[4.0, 4.0, 4.0]] * 2,
    )
    s = ms.validate_scenario(doc)
    d = ms.SlotDecision((0, 1, 2), (0, 0, 0))
    assert not ms.decision_feasible(s, 0, d, margin=0.0)


def test_exact_load_violates_strict_margin():
    doc = make_doc(
        num_users=2,
        demand=[[5.0, 5.0]] * 2,
    )
    s = ms.validate_scenario(doc)
    d = ms.SlotDecision((0, 1), (0, 0))
    # load == capacity: the queue never drains, so no margin admits it
    assert not ms.decision_feasible(s, 0, d, margin=0.0)
    assert not ms.decision_feasible(s, 0, d, margin=1e-6)
    # one user per station stays clear of capacity without a margin
    assert ms.decision_feasible(s, 0, ms.SlotDecision((0, 1), (0, 1)), margin=0.0)


def test_out_of_coverage_selection_infeasible():
    doc = make_doc()
    doc["coverage"][0] = [[0, 1], [2]]
    s = ms.validate_scenario(doc)
    assert not ms.decision_feasible(s, 0, ms.SlotDecision((0, 0), (2, 2)))
    assert ms.decision_feasible(s, 0, ms.SlotDecision((0, 0), (1, 2)))


def test_storage_capacity_checked():
    doc = make_doc(service_size=[3.0, 3.0])
    s = ms.validate_scenario(doc)
    stacked = ms.SlotDecision((1, 1), (0, 1))
    spread = ms.SlotDecision((0, 1), (0, 1))
    assert not ms.decision_feasible(s, 0, stacked)
    assert ms.decision_feasible(s, 0, spread)


def test_wrong_user_count_infeasible():
    s = ms.validate_scenario(make_doc())
    assert not ms.decision_feasible(s, 0, ms.SlotDecision((0,), (0,)))


def test_margin_must_be_finite():
    s = ms.validate_scenario(make_doc())
    d = ms.SlotDecision((0, 1), (0, 1))
    with pytest.raises(ValueError):
        ms.decision_feasible(s, 0, d, margin=math.inf)


def _bincount_feasible(s, t, d, margin):
    """``decision_feasible`` in its literal NumPy form, the reference: the
    same index, coverage and capacity rules, with storage and load summed
    by ``np.bincount``."""
    if d.num_users != s.num_users:
        return False
    for k, (i, j) in enumerate(zip(d.placement, d.selection)):
        if not (0 <= i < s.num_clouds and 0 <= j < s.num_clouds):
            return False
        if j not in s.coverage[t][k]:
            return False
    storage = np.bincount(d.placement, weights=s.service_size, minlength=s.num_clouds)
    if np.any(storage > s.cloud_capacity):
        return False
    load = np.bincount(d.selection, weights=s.demand[t], minlength=s.num_clouds)
    return bool(np.all(load <= station_limit(s.bs_capacity, margin)))


def _limit_edges(total, margin):
    """Station capacities whose ``station_limit`` at ``margin`` lands at,
    or one ulp around, a load of ``total``."""
    return [math.nextafter(total, math.inf), total, total + margin,
            math.nextafter(total + margin, -math.inf), total + margin + 1.0]


@st.composite
def _feasibility_case(draw):
    """A one-slot scenario of M 2-4 clouds and N 1-4 users, a decision whose
    entries reach one index past the last cloud (a negative one fails in
    ``SlotDecision``) and whose length can be off by one, a margin of 0,
    ``DEFAULT_MARGIN`` or a random one, and each used capacity at, one ulp
    around or away from the decision's sum; no expected verdict (the
    reference gives it)."""
    m = draw(st.integers(2, 4))
    n = draw(st.integers(1, 4))
    weight = st.one_of(st.sampled_from([0.1, 0.2, 0.25, 0.3, 0.5, 1.0]), st.floats(0.01, 2.0))
    sizes = [draw(weight) for _ in range(n)]
    demand = [draw(weight) for _ in range(n)]
    coverage = [sorted(draw(st.sets(st.integers(0, m - 1), min_size=1))) for _ in range(n)]
    margin = draw(st.one_of(st.sampled_from([0.0, DEFAULT_MARGIN]), st.floats(0.0, 1.0)))
    users = n + draw(st.sampled_from([0, 0, 0, 0, -1, 1]))
    anywhere = st.integers(0, m)
    placement = [draw(st.one_of(st.integers(0, m - 1), anywhere)) for _ in range(users)]
    selection = [
        draw(st.one_of(st.sampled_from(coverage[k]), anywhere) if k < n else anywhere)
        for k in range(users)
    ]
    storage, load = [0.0] * m, [0.0] * m
    for i, j, size, c in zip(placement, selection, sizes, demand):
        if i < m:
            storage[i] += size
        if j < m:
            load[j] += c
    room = st.floats(0.1, 4.0)
    cloud_capacity = [
        draw(st.one_of(st.sampled_from(
            [u, math.nextafter(u, -math.inf), math.nextafter(u, math.inf)]
        ), room)) if u > 0 else draw(room)
        for u in storage
    ]
    bs_capacity = [
        draw(st.one_of(st.sampled_from(_limit_edges(u, margin)), room)) if u > 0 else draw(room)
        for u in load
    ]
    s = ms.validate_scenario(make_doc(
        num_clouds=m, num_users=n, num_slots=1,
        bs_capacity=bs_capacity, cloud_capacity=cloud_capacity, service_size=sizes,
        link_latency=[np.ones((m, m)).tolist()], coverage=[coverage], demand=[demand],
    ))
    return s, ms.SlotDecision(tuple(placement), tuple(selection)), margin, None


def _feasibility_edge(decision, margin, expected, **doc):
    """A pinned case on ``make_doc``'s 3 clouds and 2 users, with its verdict."""
    return ms.validate_scenario(make_doc(**doc)), ms.SlotDecision(*decision), margin, expected


_AT_LOAD = 0.1 + 0.2  # 0.30000000000000004: a load whose sum rounds


@settings(max_examples=300, deadline=None)
@given(_feasibility_case())
# storage exactly at a cloud's capacity fits; one ulp above it does not
@example(_feasibility_edge(((0, 0), (0, 1)), DEFAULT_MARGIN, True,
                           cloud_capacity=[2.0, 5.0, 5.0]))
@example(_feasibility_edge(((0, 0), (0, 1)), DEFAULT_MARGIN, False,
                           cloud_capacity=[math.nextafter(2.0, -math.inf), 5.0, 5.0]))
# at margin 0 a load fits exactly at its station_limit, one ulp below
# capacity, and not one ulp above it
@example(_feasibility_edge(((0, 1), (0, 0)), 0.0, True, demand=[[0.1, 0.2]] * 2,
                           bs_capacity=[math.nextafter(_AT_LOAD, math.inf), 10.0, 10.0]))
@example(_feasibility_edge(((0, 1), (0, 0)), 0.0, False, demand=[[0.1, 0.2]] * 2,
                           bs_capacity=[_AT_LOAD, 10.0, 10.0]))
# the sum runs in user order: (0.1 + 0.2) + 0.3 is one ulp above 0.6,
# 0.3 + 0.2 + 0.1 is not
@example(_feasibility_edge(
    ((0, 1, 2), (0, 0, 0)), 0.0, False, num_users=3, service_size=[1.0] * 3,
    coverage=[[[0, 1, 2]] * 3] * 2, demand=[[0.1, 0.2, 0.3]] * 2,
    bs_capacity=[math.nextafter(0.6, math.inf), 10.0, 10.0],
))
# a load exactly at capacity less the margin fits, one ulp above it not
@example(_feasibility_edge(((0, 1), (0, 0)), 2.0**-20, True,
                           demand=[[5.0, 5.0 - 2.0**-20]] * 2))
@example(_feasibility_edge(((0, 1), (0, 0)), 2.0**-20, False,
                           demand=[[5.0, 5.0 - 2.0**-20 + 2.0**-49]] * 2))
# an index out of range, a station outside coverage, a wrong user count
@example(_feasibility_edge(((0, 3), (0, 0)), DEFAULT_MARGIN, False))
@example(_feasibility_edge(((0, 0), (0, 0)), DEFAULT_MARGIN, False,
                           coverage=[[[0, 1], [2]]] * 2))
@example(_feasibility_edge(((0,), (0,)), DEFAULT_MARGIN, False))
def test_feasibility_equals_the_bincount_form(case):
    # == on the verdict: the list sums must be the floats bincount forms
    s, d, margin, expected = case
    verdict = ms.decision_feasible(s, 0, d, margin)
    assert verdict is _bincount_feasible(s, 0, d, margin)
    if expected is not None:
        assert verdict is expected


def _slot_callers():
    """The callers of ``check_slot`` besides ``solve_slot``, which
    ``test_solve_slot_rejects_a_slot_outside_the_horizon`` covers."""
    d = ms.SlotDecision((0, 0, 0), (0, 0, 0))
    state = ms.ControllerState(
        prev_decision=d, last_migration_slot=0, accumulated_t2=0.0, beta=1.0
    )
    x, y = d.placement_matrix(3), d.selection_matrix(3)
    return {
        "decision_feasible": lambda s, t: ms.decision_feasible(s, t, d),
        "best_slot_decision": lambda s, t: ms.best_slot_decision(s, t),
        "step": lambda s, t: ms.step(s, t, state, 0),
        "station_loads": lambda s, t: station_loads(s, t, y),
        "queuing_delay": lambda s, t: ms.queuing_delay(s, t, y),
        "communication_delay": lambda s, t: ms.communication_delay(s, t, x, y),
        "non_switching_delay": lambda s, t: ms.non_switching_delay(s, t, x, y),
        "total_delay": lambda s, t: ms.total_delay(s, t, x, x, y),
        "objective_gradient": lambda s, t: ms.objective_gradient(s, t, x, y),
        "round_decision": lambda s, t: ms.round_decision(s, t, ms.FractionalDecision(x, y), 0),
    }


@pytest.mark.parametrize("caller", sorted(_slot_callers()))
@pytest.mark.parametrize("t", [-1, 2])
def test_slot_outside_the_horizon_is_rejected(caller, t):
    # -1 would silently read the last slot and 2 raise a bare IndexError.
    s = ms.validate_scenario(random_doc(0, slots=2))
    with pytest.raises(ValueError, match=r"slot must be an integer in range\(2\)"):
        _slot_callers()[caller](s, t)


def _decision_entries():
    """Each library entry that takes a decision or decision matrices, called
    on ``make_doc()`` (M=3, N=2) with a malformed one, and the error it must
    raise."""
    short = ms.SlotDecision((2,), (2,))
    far = ms.SlotDecision((7, 0), (0, 0))

    def stepped(d):
        state = ms.ControllerState(
            prev_decision=d, last_migration_slot=0, accumulated_t2=0.0, beta=1.0
        )
        return lambda s: ms.step(s, 1, state)

    def rounded(weights):
        frac = ms.FractionalDecision(weights, weights)
        return lambda s: ms.round_decision(s, 0, frac, 0)

    good = ms.SlotDecision((0, 1), (0, 1)).placement_matrix(3)

    def weighted(entry, index, value):
        bad = good.copy()
        bad[index] = value
        return lambda s: entry(s, bad)

    short_error = (ms.DimensionMismatchError, "covers 1 users, expected 2")
    far_error = (ValueError, r"outside range\(3\)")
    shape_error = (ms.DimensionMismatchError, r"must have shape \(3, 2\)")
    weight_error = (ValueError, "weights must be finite and >= 0")
    return {
        "best_slot_decision-short": (
            lambda s: ms.best_slot_decision(s, 0, x_prev=short), short_error
        ),
        "best_slot_decision-far": (
            lambda s: ms.best_slot_decision(s, 0, x_prev=far), far_error
        ),
        "offline_optimal-short": (
            lambda s: ms.offline_optimal(s, first_decision=short), short_error
        ),
        "offline_optimal-far": (
            lambda s: ms.offline_optimal(s, first_decision=far), far_error
        ),
        "solve_slot-short": (lambda s: ms.solve_slot(s, 0, warm_start=short), short_error),
        "solve_slot-far": (lambda s: ms.solve_slot(s, 0, warm_start=far), far_error),
        "step-short": (stepped(short), short_error),
        "step-far": (stepped(far), far_error),
        "round_decision-4x2": (rounded(np.full((4, 2), 0.25)), shape_error),
        "round_decision-3x3": (rounded(np.full((3, 3), 0.5)), shape_error),
        "round_decision-nan": (rounded(np.full((3, 2), np.nan)), (ValueError, "finite")),
        "objective_gradient-2x2": (
            lambda s: ms.objective_gradient(s, 0, np.zeros((2, 2)), np.zeros((2, 2))),
            shape_error,
        ),
        # unchecked, the NaN gave a NaN grad_y column and the -1.0 a
        # grad_y[0, 0] of -1.877
        "objective_gradient-nan-x": (
            weighted(lambda s, x: ms.objective_gradient(s, 0, x, good), (2, 0), np.nan),
            weight_error,
        ),
        "objective_gradient-negative-x": (
            weighted(lambda s, x: ms.objective_gradient(s, 0, x, good), (2, 0), -1.0),
            weight_error,
        ),
        "queuing_delay-nan": (
            weighted(lambda s, y: ms.queuing_delay(s, 0, y), (2, 0), np.nan), weight_error
        ),
        "queuing_delay-negative": (
            weighted(lambda s, y: ms.queuing_delay(s, 0, y), (2, 0), -1.0), weight_error
        ),
        "communication_delay-inf": (
            weighted(lambda s, x: ms.communication_delay(s, 0, x, good), (0, 0), np.inf),
            weight_error,
        ),
        "communication_delay-negative-y": (
            weighted(lambda s, y: ms.communication_delay(s, 0, good, y), (1, 1), -0.5),
            weight_error,
        ),
        "non_switching_delay-nan": (
            weighted(lambda s, y: ms.non_switching_delay(s, 0, good, y), (0, 1), np.nan),
            weight_error,
        ),
        "total_delay-inf": (
            weighted(lambda s, x: ms.total_delay(s, 0, x, good, good), (1, 0), np.inf),
            weight_error,
        ),
        "switching_delay-negative": (
            weighted(lambda s, x: ms.switching_delay(s, good, x), (2, 1), -1.0), weight_error
        ),
        "station_loads-nan": (
            weighted(lambda s, y: station_loads(s, 0, y), (0, 0), np.nan), weight_error
        ),
        "station_loads-3x1": (lambda s: station_loads(s, 0, np.ones((3, 1))), shape_error),
        "station_loads-2": (lambda s: station_loads(s, 0, np.ones(2)), shape_error),
    }


@pytest.mark.parametrize("entry", sorted(_decision_entries()))
def test_malformed_decision_is_rejected_where_it_enters(entry):
    # Unchecked, a short x_prev loses its missing users' switching cost, a
    # cloud 7 is priced as a move, a wrong-shape FractionalDecision is
    # rounded, a NaN, inf or negative weight is valued as a number (a -1.0
    # gave a queuing delay of 0.131), a (3, 1) y broadcasts to loads
    # [2, 2, 2] and the other calls fail inside NumPy.
    call, (error, message) = _decision_entries()[entry]
    with pytest.raises(error, match=message):
        call(ms.validate_scenario(make_doc()))


_DECISION_TYPE_ENTRIES = {
    "check_decision": ms.model.check_decision,
    "solve_slot": lambda s, d: ms.solve_slot(s, 0, warm_start=d),
    "step": lambda s, d: ms.step(s, 1, _state(prev_decision=d)),
    "offline_optimal": lambda s, d: ms.offline_optimal(s, first_decision=d),
    "best_slot_decision": lambda s, d: ms.best_slot_decision(s, 0, x_prev=d),
}


@pytest.mark.parametrize("entry", sorted(_DECISION_TYPE_ENTRIES))
@pytest.mark.parametrize("decision", [((0, 1), (0, 1)), [(0, 1), (0, 1)]], ids=["tuple", "list"])
def test_decision_that_is_not_a_slot_decision_is_rejected(entry, decision):
    # unchecked, a tuple or list raised AttributeError on .num_users, and a
    # ControllerState held one until step read it
    s = ms.validate_scenario(make_doc())
    with pytest.raises(ValueError, match="must be a SlotDecision"):
        _DECISION_TYPE_ENTRIES[entry](s, decision)


@pytest.mark.parametrize("margin", [True, "0", 10**400])
def test_margin_has_one_rule(margin):
    # a bool margin would be read as 1.0, a string one fail in a comparison
    # and one too large for a float raise OverflowError
    s = ms.validate_scenario(make_doc())
    d = ms.SlotDecision((0, 1), (0, 1))
    with pytest.raises(ValueError, match="margin must be a finite number >= 0"):
        ms.SolverConfig(margin=margin)
    with pytest.raises(ValueError, match="margin must be a finite number >= 0"):
        ms.decision_feasible(s, 0, d, margin)
    with pytest.raises(ValueError, match="margin must be a finite number >= 0"):
        ms.best_slot_decision(s, 0, margin=margin)
    with pytest.raises(ValueError, match="margin must be a finite number >= 0"):
        ms.offline_optimal(s, margin=margin)


@pytest.mark.parametrize(
    "margin", [-0.0, 0, np.float64(-0.0)], ids=["-0.0", "int 0", "numpy -0.0"]
)
def test_margin_is_stored_as_a_float_and_zero_as_positive_zero(margin):
    # --margin -0 wrote "margin": -0.0 into the run summary
    stored = ms.SolverConfig(margin=margin).margin
    assert type(stored) is float and math.copysign(1.0, stored) == 1.0


def test_feasibility_monotone_in_margin():
    margins = [0.0, 1e-6, 1e-3, 0.1, 1.0, 5.0]
    rng = np.random.default_rng(7)
    for seed in range(20):
        doc = random_doc(seed, tight=True)
        s = ms.validate_scenario(doc)
        d = ms.SlotDecision(
            tuple(rng.integers(0, 3, size=3)),
            tuple(int(rng.choice(doc["coverage"][0][k])) for k in range(3)),
        )
        flags = [ms.decision_feasible(s, 0, d, margin=m) for m in margins]
        # once infeasible at some margin, larger margins stay infeasible
        for a, b in zip(flags, flags[1:]):
            assert a or not b


# ---------------------------------------------------------------------------
# persistence round-trip


def test_save_load_round_trip(tmp_path):
    s = ms.validate_scenario(random_doc(3, m=4, n=2, slots=3))
    path = tmp_path / "scenario.json"
    ms.save_scenario(s, path)
    assert ms.load_scenario(path) == s


def test_saved_scenario_matches_schema(tmp_path):
    jsonschema = pytest.importorskip("jsonschema")
    schema = json.loads(ms.SCHEMA_PATH.read_text(encoding="utf-8"))
    # the generator writes the optional positions field too
    generated = ms.generate(ms.GeneratorConfig(seed=1, num_slots=2))
    for s in (ms.validate_scenario(make_doc()), generated):
        path = tmp_path / "scenario.json"
        ms.save_scenario(s, path)
        jsonschema.validate(json.loads(path.read_text(encoding="utf-8")), schema)
        with pytest.raises(jsonschema.ValidationError):
            jsonschema.validate({**s.to_mapping(), "postions": []}, schema)


def test_truncated_file_raises_parse_error(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text('{"num_clouds": 3, "num_u', encoding="utf-8")
    with pytest.raises(ms.ParseError):
        ms.load_scenario(path)


# ---------------------------------------------------------------------------
# validate_scenario rejections, each naming its field


def test_non_mapping_document_rejected():
    with pytest.raises(ms.ParseError, match="must be a mapping"):
        ms.validate_scenario([make_doc()])


@pytest.mark.parametrize("field", ["num_clouds", "num_users", "num_slots"])
@pytest.mark.parametrize("value", [True, 0, 2.0])
def test_dimension_that_is_not_a_positive_integer_rejected(field, value):
    with pytest.raises(ms.ParseError, match=f"field {field} must be a positive integer"):
        ms.validate_scenario(make_doc(**{field: value}))


@pytest.mark.parametrize(
    "field, value",
    [("bs_capacity", ["a", 10.0, 10.0]), ("service_size", [1.0, {}]),
     ("demand", [[1.0, [1.0]], [1.0, 1.0]]),
     # JSON true, false and a numeric string, which float() would coerce
     ("cloud_capacity", [True, 5.0, 5.0]),
     ("link_latency", [[[False, 1.0, 2.0], [1.0, 0.0, 1.0], [2.0, 1.0, 0.0]]] * 2),
     ("demand", [["1.5", 1.0], [1.0, 1.0]])],
)
def test_non_numeric_array_rejected(field, value):
    with pytest.raises(ms.ParseError, match=f"field {field} is not numeric"):
        ms.validate_scenario(make_doc(**{field: value}))


def test_array_integer_too_large_for_a_float_rejected():
    with pytest.raises(ms.ParseError, match="field bs_capacity is too large for a float"):
        ms.validate_scenario(make_doc(bs_capacity=[10**400, 10.0, 10.0]))


@pytest.mark.parametrize(
    "field, value",
    [("cloud_capacity", [5.0, math.inf, 5.0]), ("demand", [[1.0, math.nan], [1.0, 1.0]])],
)
def test_non_finite_array_rejected(field, value):
    with pytest.raises(ms.ParseError, match=f"field {field} contains non-finite values"):
        ms.validate_scenario(make_doc(**{field: value}))


@pytest.mark.parametrize(
    "coverage", ["abc", b"ab", {0: [], 1: []}], ids=["str", "bytes", "mapping"]
)
def test_coverage_that_is_a_string_or_a_mapping_rejected(coverage):
    # list() would split a string into slots and read a mapping's keys
    with pytest.raises(ms.ParseError, match="^field coverage must be a list$"):
        ms.validate_scenario(make_doc(coverage=coverage))


def test_coverage_with_the_wrong_slot_or_user_count_rejected():
    doc = make_doc()
    with pytest.raises(ms.DimensionMismatchError, match="field coverage has 1 slots"):
        ms.validate_scenario({**doc, "coverage": doc["coverage"][:1]})
    short = [doc["coverage"][0], doc["coverage"][1][:1]]
    with pytest.raises(ms.DimensionMismatchError, match="field coverage slot 1 lists 1 users"):
        ms.validate_scenario({**doc, "coverage": short})


def test_scenario_equality_compares_every_field():
    doc = make_doc()
    s = ms.validate_scenario(doc)
    assert s == ms.validate_scenario(doc)
    assert s.__eq__(doc) is NotImplemented and s != doc
    per_slot = ("link_latency", "coverage", "demand")
    three = make_doc(num_slots=3, **{key: doc[key] + doc[key][:1] for key in per_slot})
    assert s != ms.validate_scenario(three)  # dimensions
    assert s != ms.validate_scenario(make_doc(coverage=[[[0, 1], [0, 1, 2]], doc["coverage"][1]]))
    assert s != ms.validate_scenario(make_doc(service_size=[1.0, 2.0]))  # an array
    positions = [[[0.0, 0.0], [1.0, 1.0]]] * 2
    placed = ms.validate_scenario(make_doc(positions=positions))
    assert s != placed and placed != s  # positions on one side only
    assert placed == ms.validate_scenario(make_doc(positions=positions))
    moved = ms.validate_scenario(make_doc(positions=[[[0.0, 0.0], [1.0, 2.0]]] * 2))
    assert placed != moved


# ---------------------------------------------------------------------------
# a Scenario built directly runs the checks validate_scenario runs


def _malformed_docs():
    """Every malformed document the tests above feed ``validate_scenario``
    that a direct ``Scenario(...)`` can take too (a mapping with every
    field), plus a few a direct caller is likely to pass."""
    doc = make_doc()
    empty = random_doc(0, m=3, n=2, slots=4)
    empty["coverage"][3][1] = []
    negative = make_doc()
    negative["link_latency"][0][0][1] = -1.0
    far = make_doc()
    far["coverage"][1][0] = [0, 7]
    cases = {
        "zero-capacity": make_doc(bs_capacity=[10.0, 10.0, 0.0]),
        "non-positive-demand": make_doc(demand=[[1.0, -0.5], [1.0, 1.0]]),
        "negative-storage": make_doc(cloud_capacity=[-1.0, 5.0, 5.0]),
        "empty-coverage": empty,
        "latency-shape": make_doc(link_latency=[[[0.0, 1.0], [1.0, 0.0]]] * 2),
        "one-capacity-for-three-clouds": make_doc(bs_capacity=[10.0]),
        "negative-latency": negative,
        "station-out-of-range": far,
        "station-5": make_doc(coverage=[[[0, 5], [0]], [[0], [0]]]),
        "integer-too-large": make_doc(bs_capacity=[10**400, 10.0, 10.0]),
        "infinite-capacity": make_doc(cloud_capacity=[5.0, math.inf, 5.0]),
        "nan-demand": make_doc(demand=[[1.0, math.nan], [1.0, 1.0]]),
        "coverage-slots": make_doc(coverage=doc["coverage"][:1]),
        "coverage-users": make_doc(coverage=[doc["coverage"][0], doc["coverage"][1][:1]]),
        "coverage-not-a-list": make_doc(coverage=5),
        "coverage-slot-not-a-list": make_doc(coverage=[5, doc["coverage"][1]]),
        "coverage-user-not-a-list": make_doc(coverage=[[5, [0]], doc["coverage"][1]]),
        "positions-shape": make_doc(positions=[[[0.0, 0.0]]] * 2),
        "bool-array": make_doc(bs_capacity=np.array([True, True, True])),
        "string-array": make_doc(service_size=np.array(["1", "1"])),
    }
    for entry in (0.7, True, 2.9, "1"):
        cases[f"coverage-entry-{entry!r}"] = make_doc(coverage=[[[0], [0, entry]], [[0], [0]]])
    for field in ("num_clouds", "num_users", "num_slots"):
        for value in (True, 0, 2.0):
            cases[f"{field}-{value!r}"] = make_doc(**{field: value})
    for i, (field, value) in enumerate((
        ("bs_capacity", ["a", 10.0, 10.0]), ("service_size", [1.0, {}]),
        ("demand", [[1.0, [1.0]], [1.0, 1.0]]), ("cloud_capacity", [True, 5.0, 5.0]),
        ("link_latency", [[[False, 1.0, 2.0], [1.0, 0.0, 1.0], [2.0, 1.0, 0.0]]] * 2),
        ("demand", [["1.5", 1.0], [1.0, 1.0]]),
    )):
        cases[f"non-numeric-{i}-{field}"] = make_doc(**{field: value})
    return cases


@pytest.mark.parametrize("case", sorted(_malformed_docs()))
def test_scenario_built_directly_is_checked_like_a_parsed_one(case):
    # Unchecked, a short bs_capacity, a negative storage capacity or a
    # station 5 passed here and made solve_slot fail with IndexError.
    doc = _malformed_docs()[case]
    with pytest.raises(ms.ScenarioError) as parsed:
        ms.validate_scenario(doc)
    with pytest.raises(type(parsed.value)) as built:
        ms.Scenario(**doc)
    assert type(built.value) is type(parsed.value)
    assert str(built.value) == str(parsed.value)


def test_scenario_built_directly_is_normalized():
    doc = make_doc(coverage=[[[2, 0, 2], (1,)], [np.array([1, 0]), [2]]])
    capacity = np.array([10, 10, 10])
    s = ms.Scenario(**{**doc, "bs_capacity": capacity})
    assert s.coverage == (((0, 2), (1,)), ((0, 1), (2,)))
    assert all(type(j) is int for per_user in s.coverage for c in per_user for j in c)
    assert s.bs_capacity.dtype == np.float64 and s.bs_capacity.flags.c_contiguous
    capacity[0] = -1  # the scenario holds a copy, checked once
    assert s.bs_capacity.tolist() == [10.0, 10.0, 10.0]
    assert s == ms.validate_scenario(make_doc(coverage=s.to_mapping()["coverage"]))


def test_atomic_write_removes_its_temp_file_when_the_rename_fails(tmp_path, monkeypatch):
    def refuse(src, dst):
        raise OSError("rename refused")

    monkeypatch.setattr(ms.scenario_io.os, "replace", refuse)
    with pytest.raises(OSError, match="rename refused"):
        ms.scenario_io.write_text_atomic(tmp_path / "out.csv", "a,b\n")
    assert list(tmp_path.iterdir()) == []


def test_atomic_write_gives_the_mode_of_a_plain_open(tmp_path):
    # 0o666 less the umask, as open(path, "w") gives a new file
    old = os.umask(0o022)
    try:
        for umask, mode in ((0o022, 0o644), (0o077, 0o600)):
            os.umask(umask)
            path = tmp_path / f"out{umask:o}.csv"
            ms.scenario_io.write_text_atomic(path, "a,b\n")
            assert stat.S_IMODE(path.stat().st_mode) == mode
    finally:
        os.umask(old)
    assert sorted(p.name for p in tmp_path.iterdir()) == ["out22.csv", "out77.csv"]


def test_atomic_write_draws_a_new_temp_name_on_a_clash(tmp_path, monkeypatch):
    clash = tmp_path / ".out.csv.aaaa.tmp"
    clash.write_text("kept", encoding="utf-8")
    names = iter(["aaaa", "bbbb"])
    monkeypatch.setattr(ms.scenario_io.secrets, "token_hex", lambda nbytes: next(names))
    ms.scenario_io.write_text_atomic(tmp_path / "out.csv", "a,b\n")
    assert (tmp_path / "out.csv").read_text(encoding="utf-8") == "a,b\n"
    assert clash.read_text(encoding="utf-8") == "kept"
    assert sorted(p.name for p in tmp_path.iterdir()) == [".out.csv.aaaa.tmp", "out.csv"]


# ---------------------------------------------------------------------------
# one integer rule and one number rule at every entry


_SCALARS = {
    "int": 1, "np.int8": np.int8(1), "np.int64": np.int64(1), "np.uint64": np.uint64(1),
    "True": True, "np.True_": np.True_, "2**1100": 2**1100, "float": 1.0,
    "np.float16": np.float16(1), "np.float32": np.float32(1), "np.float64": np.float64(1),
    '"1"': "1", "None": None,
}
_INTEGERS = {"int", "np.int8", "np.int64", "np.uint64", "2**1100"}
# a float cannot hold 2**1100
_NUMBERS = {"int", "np.int8", "np.int64", "np.uint64", "float", "np.float16",
            "np.float32", "np.float64"}


def _state(**fields):
    return ms.ControllerState(**{"prev_decision": ms.SlotDecision((0,), (0,)),
                                 "last_migration_slot": 0, "accumulated_t2": 0.0,
                                 "beta": 1.0, **fields})


def _one_slot(**fields):
    doc = make_doc(**fields)
    return {**doc, **{key: doc[key][:1] for key in ("link_latency", "coverage", "demand")}}


def _covering(v):
    doc = make_doc()
    doc["coverage"][0][1] = [v]
    return doc


def _integer_entries():
    """Each entry that takes an integer: its call, the message of its type
    test, and the values its own range refuses."""
    s, d = ms.validate_scenario(make_doc()), ms.SlotDecision((0, 0), (0, 0))
    return {
        "scenario count": (lambda v: ms.validate_scenario(_one_slot(num_slots=v)),
                           "num_slots must be a positive integer", set()),
        "coverage index": (lambda v: ms.validate_scenario(_covering(v)),
                           "must list integer station indices", set()),
        "slot": (lambda v: ms.decision_feasible(s, v, d), "slot must be an integer",
                 {"2**1100"}),
        "decision entry": (lambda v: ms.SlotDecision((v,), (0,)),
                           "entries must be integers", set()),
        "last_migration_slot": (lambda v: _state(last_migration_slot=v),
                                "last_migration_slot must be", set()),
        "generator seed": (lambda v: ms.GeneratorConfig(seed=v),
                           "generator.seed must be an integer", set()),
        "generator grid_width": (lambda v: ms.GeneratorConfig(seed=1, grid_width=v),
                                 "generator.grid_width must be an integer", set()),
    }


def _number_entries():
    """Each entry that takes a number: its call and the message of its test."""
    return {
        "array leaf": (
            lambda v: ms.validate_scenario(make_doc(bs_capacity=[v, 10.0, 10.0])),
            "field bs_capacity is",
        ),
        "margin": (lambda v: ms.SolverConfig(margin=v), "margin must be a finite number"),
        "beta": (lambda v: ms.Policy.threshold(v), "beta must be a nonnegative number"),
        "accumulated_t2": (lambda v: _state(accumulated_t2=v), "accumulated_t2 must be"),
        "generator spacing": (lambda v: ms.GeneratorConfig(seed=1, spacing=v),
                              "generator.spacing must be a finite number"),
        "generator range": (lambda v: ms.GeneratorConfig(seed=1, demand_range=(v, 2.0)),
                            r"generator.demand_range must be (a \[lo, hi\]|finite)"),
    }


def _passes(call, rejection, value):
    """True unless ``call(value)`` raises with ``rejection`` in its message:
    an error of the entry's own range is no verdict on the type."""
    try:
        call(value)
    except Exception as exc:
        return re.search(rejection, str(exc)) is None
    return True


@pytest.mark.parametrize("name", list(_SCALARS))
def test_every_entry_applies_the_same_scalar_rule(name):
    # np.int64(1) was a slot, a coverage index and a decision entry, but
    # "not a number" as a count, a margin, a beta or a generator field
    value = _SCALARS[name]
    integer = {entry: _passes(call, rejection, value)
               for entry, (call, rejection, refused) in _integer_entries().items()
               if name not in refused}
    number = {entry: _passes(call, rejection, value)
              for entry, (call, rejection) in _number_entries().items()}
    assert integer == dict.fromkeys(integer, name in _INTEGERS)
    assert number == dict.fromkeys(number, name in _NUMBERS)


def test_numpy_scalars_are_stored_as_python_numbers():
    s = ms.Scenario(**{**make_doc(), "num_clouds": np.int64(3), "num_users": np.uint8(2)})
    assert type(s.num_clouds) is int and type(s.num_users) is int
    state = _state(last_migration_slot=np.int32(4), accumulated_t2=np.float32(0.5))
    assert type(state.last_migration_slot) is int and type(state.accumulated_t2) is float
    cfg = ms.GeneratorConfig(seed=np.int64(1), spacing=np.float16(1.5), num_users=2,
                             demand_range=(np.int8(1), np.float32(2)))
    assert cfg == ms.GeneratorConfig(seed=1, spacing=1.5, num_users=2, demand_range=(1, 2))
    assert [type(v) for v in (cfg.seed, cfg.spacing, cfg.num_users)] == [int, float, int]
    assert all(type(v) is float for v in cfg.demand_range)
    # a Python value is stored as given
    assert type(ms.GeneratorConfig(seed=1, spacing=2).spacing) is int
