"""Scenario validation, decision types, and the feasibility predicate."""

from __future__ import annotations

import json
import math

import numpy as np
import pytest

import mecsim as ms
from conftest import make_doc, random_doc
from mecsim.delays import station_loads


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

    short_error = (ms.DimensionMismatchError, "covers 1 users, expected 2")
    far_error = (ValueError, r"outside range\(3\)")
    shape_error = (ms.DimensionMismatchError, r"must have shape \(3, 2\)")
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
    }


@pytest.mark.parametrize("entry", sorted(_decision_entries()))
def test_malformed_decision_is_rejected_where_it_enters(entry):
    # Unchecked, a short x_prev loses its missing users' switching cost, a
    # cloud 7 is priced as a move, a wrong-shape FractionalDecision is
    # rounded and the other calls fail inside NumPy.
    call, (error, message) = _decision_entries()[entry]
    with pytest.raises(error, match=message):
        call(ms.validate_scenario(make_doc()))


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
