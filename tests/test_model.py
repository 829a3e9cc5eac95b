"""Scenario validation, decision types, and the feasibility predicate."""

from __future__ import annotations

import json
import math

import numpy as np
import pytest

import mecsim as ms
from conftest import make_doc, random_doc


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


def _slot_callers():
    """The callers of ``check_slot`` besides ``solve_slot``, which
    ``test_solve_slot_rejects_a_slot_outside_the_horizon`` covers."""
    d = ms.SlotDecision((0, 0, 0), (0, 0, 0))
    state = ms.ControllerState(
        prev_decision=d, last_migration_slot=0, accumulated_t2=0.0, beta=1.0
    )
    return {
        "decision_feasible": lambda s, t: ms.decision_feasible(s, t, d),
        "best_slot_decision": lambda s, t: ms.best_slot_decision(s, t),
        "step": lambda s, t: ms.step(s, t, state, 0),
    }


@pytest.mark.parametrize("caller", sorted(_slot_callers()))
@pytest.mark.parametrize("t", [-1, 2])
def test_slot_outside_the_horizon_is_rejected(caller, t):
    # -1 would silently read the last slot and 2 raise a bare IndexError.
    s = ms.validate_scenario(random_doc(0, slots=2))
    with pytest.raises(ValueError, match=r"slot must be an integer in range\(2\)"):
        _slot_callers()[caller](s, t)


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
    s = ms.validate_scenario(make_doc())
    path = tmp_path / "scenario.json"
    ms.save_scenario(s, path)
    schema = json.loads(ms.SCHEMA_PATH.read_text(encoding="utf-8"))
    jsonschema.validate(json.loads(path.read_text(encoding="utf-8")), schema)


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
     ("demand", [[1.0, [1.0]], [1.0, 1.0]])],
)
def test_non_numeric_array_rejected(field, value):
    with pytest.raises(ms.ParseError, match=f"field {field} is not numeric"):
        ms.validate_scenario(make_doc(**{field: value}))


@pytest.mark.parametrize(
    "field, value",
    [("cloud_capacity", [5.0, math.inf, 5.0]), ("demand", [[1.0, math.nan], [1.0, 1.0]])],
)
def test_non_finite_array_rejected(field, value):
    with pytest.raises(ms.ParseError, match=f"field {field} contains non-finite values"):
        ms.validate_scenario(make_doc(**{field: value}))


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


def test_atomic_write_removes_its_temp_file_when_the_rename_fails(tmp_path, monkeypatch):
    def refuse(src, dst):
        raise OSError("rename refused")

    monkeypatch.setattr(ms.scenario_io.os, "replace", refuse)
    with pytest.raises(OSError, match="rename refused"):
        ms.scenario_io.write_text_atomic(tmp_path / "out.csv", "a,b\n")
    assert list(tmp_path.iterdir()) == []
