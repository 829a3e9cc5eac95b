"""Online controller semantics: threshold comparisons, baselines, accounting."""

from __future__ import annotations

import logging
import math

import numpy as np
import pytest

import mecsim as ms
import reference as ref
from conftest import random_doc


def _static_doc(m=1, n=1, slots=4, bs=None, lat=None, coverage=None, demand=1.0):
    """One set of parameters repeated across every slot."""
    lat = lat or [[0.0] * m for _ in range(m)]
    coverage = coverage or [list(range(m)) for _ in range(n)]
    return {
        "num_clouds": m,
        "num_users": n,
        "num_slots": slots,
        "bs_capacity": bs or [10.0] * m,
        "cloud_capacity": [5.0] * m,
        "service_size": [1.0] * n,
        "link_latency": [lat] * slots,
        "coverage": [coverage] * slots,
        "demand": [[demand] * n] * slots,
    }


def _coverage_loss_doc():
    """Single user covered by station 0 first, then only by station 1."""
    return {
        "num_clouds": 2,
        "num_users": 1,
        "num_slots": 2,
        "bs_capacity": [10.0, 10.0],
        "cloud_capacity": [5.0, 5.0],
        "service_size": [2.0],
        "link_latency": [[[0.0, 5.0], [5.0, 0.0]]] * 2,
        "coverage": [[[0]], [[1]]],
        "demand": [[1.0]] * 2,
    }


def test_policy_kinds_validated():
    with pytest.raises(ValueError):
        ms.Policy(kind="sometimes")
    with pytest.raises(ValueError):
        ms.Policy.threshold(-0.5)
    assert ms.Policy.threshold(math.inf).beta == math.inf


@pytest.mark.parametrize("beta", [-0.5, math.nan])
def test_controller_state_rejects_bad_beta(beta):
    # A NaN beta would make every stay test false and migrate on every slot.
    with pytest.raises(ValueError, match="beta"):
        ms.ControllerState(
            prev_decision=ms.SlotDecision((0,), (0,)),
            last_migration_slot=0,
            accumulated_t2=0.0,
            beta=beta,
        )


@pytest.mark.parametrize("beta", [True, "1", 10**400])
def test_beta_has_one_rule(beta):
    # a bool beta would be read as 1.0, a string one fail in math.isnan and
    # one too large for a float be kept as an int no float can stand for
    with pytest.raises(ValueError, match="beta must be a nonnegative number"):
        ms.Policy(kind="threshold", beta=beta)
    with pytest.raises(ValueError, match="beta must be a nonnegative number"):
        ms.Policy.threshold(beta)
    with pytest.raises(ValueError, match="beta must be a nonnegative number"):
        ms.ControllerState(
            prev_decision=ms.SlotDecision((0,), (0,)),
            last_migration_slot=0,
            accumulated_t2=0.0,
            beta=beta,
        )


@pytest.mark.parametrize(
    "beta", [-0.0, 0, np.float64(-0.0)], ids=["-0.0", "int 0", "numpy -0.0"]
)
def test_beta_is_stored_as_a_float_and_zero_as_positive_zero(beta):
    # -0.0 gave the beta-0 rule a second file name and run id
    state = ms.ControllerState(
        prev_decision=ms.SlotDecision((0,), (0,)),
        last_migration_slot=0,
        accumulated_t2=0.0,
        beta=beta,
    )
    for stored in (ms.Policy.threshold(beta).beta, state.beta):
        assert type(stored) is float and math.copysign(1.0, stored) == 1.0


@pytest.mark.parametrize(
    "field, value",
    [("accumulated_t2", "x"), ("accumulated_t2", math.nan), ("accumulated_t2", math.inf),
     ("accumulated_t2", -5.0), ("accumulated_t2", True), ("accumulated_t2", 10**400),
     ("last_migration_slot", -3), ("last_migration_slot", 1.5),
     ("last_migration_slot", True), ("last_migration_slot", "0")],
)
def test_controller_state_rejects_a_bad_carry_over(field, value):
    # "x" failed later with TypeError, and a NaN silently changed the rule
    fields = {"prev_decision": ms.SlotDecision((0,), (0,)), "last_migration_slot": 0,
              "accumulated_t2": 0.0, "beta": 1.0}
    rule = "a finite number" if field == "accumulated_t2" else "an integer"
    with pytest.raises(ValueError, match=f"{field} must be {rule} >= 0"):
        ms.ControllerState(**{**fields, field: value})


def test_controller_state_accepts_numpy_carry_over():
    state = ms.ControllerState(
        prev_decision=ms.SlotDecision((0,), (0,)), last_migration_slot=np.int64(2),
        accumulated_t2=np.float64(1.5), beta=0,
    )
    assert state.last_migration_slot == 2 and state.accumulated_t2 == 1.5


def test_zero_t1_takes_the_migrate_branch_at_no_cost():
    s = ms.validate_scenario(_static_doc())
    outcomes = ms.run_policy(s, ms.Policy.threshold(1.0))
    first = outcomes[0].decision
    for o in outcomes[1:]:
        # candidate equals the previous decision, so T1 = 0 and T2 < 0 fails
        assert o.migrated and not o.forced
        assert o.decision == first
        assert o.delay.switching == 0.0
        assert o.t1_candidate == 0.0
        assert o.t2_accumulated == o.delay.non_switching


def test_infinite_beta_never_migrates_while_stay_feasible():
    doc = random_doc(2, m=3, n=2, slots=5)
    doc["coverage"] = [[[0, 1, 2], [0, 1, 2]]] * 5
    s = ms.validate_scenario(doc)
    outcomes = ms.run_policy(s, ms.Policy.threshold(math.inf))
    for o in outcomes[1:]:
        assert not o.migrated and not o.forced
        assert o.decision == outcomes[0].decision
        assert o.delay.switching == 0.0


def test_beta_zero_matches_always_migrate():
    s = ms.generate(ms.GeneratorConfig(seed=3, grid_width=2, grid_height=2,
                                       num_users=2, num_slots=5))
    zero = ms.run_policy(s, ms.Policy.threshold(0.0))
    always = ms.run_policy(s, ms.Policy.always())
    assert [o.decision for o in zero] == [o.decision for o in always]


def _fields(outcomes):
    return [
        (o.decision, o.migrated, o.forced, repr(o.delay), repr(o.t1_candidate),
         repr(o.t2_accumulated))
        for o in outcomes
    ]


@pytest.mark.parametrize("seed", range(10))
def test_baselines_are_the_threshold_rule_at_its_extremes(seed):
    s = ms.generate(ms.GeneratorConfig(seed=seed, grid_width=2, grid_height=2,
                                       num_users=3, num_slots=8))
    for baseline, beta in ((ms.Policy.always(), 0.0), (ms.Policy.never(), math.inf)):
        assert _fields(ms.run_policy(s, baseline)) == _fields(
            ms.run_policy(s, ms.Policy.threshold(beta))
        ), baseline.kind


@pytest.mark.parametrize("policy", [ms.Policy.threshold(math.inf), ms.Policy.never()])
def test_infinite_beta_solves_a_candidate_only_on_forced_slots(monkeypatch, policy):
    doc = _coverage_loss_doc()  # slot 1 keeps station 0; slot 2 loses it
    doc["num_slots"] = 3
    doc["coverage"] = [[[0]], [[0]], [[1]]]
    doc["link_latency"] = doc["link_latency"][:1] * 3
    doc["demand"] = doc["demand"][:1] * 3
    s = ms.validate_scenario(doc)
    solved = []
    real = ms.policy.solve_slot

    def counting(s, t, *args, **kwargs):
        solved.append(t)
        return real(s, t, *args, **kwargs)

    monkeypatch.setattr(ms.policy, "solve_slot", counting)
    outcomes = ms.run_policy(s, policy)
    assert solved == [0, 2]  # slot 0 by initial_slot, then the forced slot only
    assert not outcomes[1].migrated and outcomes[1].t1_candidate == math.inf
    assert outcomes[2].forced and math.isfinite(outcomes[2].t1_candidate)


def test_coverage_loss_forces_migration_for_every_policy():
    s = ms.validate_scenario(_coverage_loss_doc())
    policies = {
        "threshold": ms.Policy.threshold(math.inf),
        "always": ms.Policy.always(),
        "never": ms.Policy.never(),
        "oracle": ms.Policy.oracle(),
    }
    for name, policy in policies.items():
        outcomes = ms.run_policy(s, policy)
        assert outcomes[1].migrated, name
        assert outcomes[1].decision.selection == (1,), name
        assert outcomes[1].forced, name


def _infeasible_candidate_doc():
    """At margin 0.5, slot 1's load fits the true capacity but not capacity
    minus the margin: the candidate solve fails while staying put is legal."""
    doc = _static_doc(slots=2, bs=[1.4])
    doc["demand"] = [[0.5], [1.0]]
    return doc


def test_stay_kept_when_candidate_solve_is_infeasible():
    s = ms.validate_scenario(_infeasible_candidate_doc())
    config = ms.SolverConfig(margin=0.5)
    for policy in (ms.Policy.threshold(1.0), ms.Policy.always()):
        outcomes = ms.run_policy(s, policy, config=config)
        assert not outcomes[1].migrated, policy.kind
        assert outcomes[1].decision == outcomes[0].decision, policy.kind
        assert outcomes[1].t1_candidate == math.inf, policy.kind


def test_shared_memo_keeps_an_infeasible_candidate(monkeypatch, caplog):
    s = ms.validate_scenario(_infeasible_candidate_doc())
    config = ms.SolverConfig(margin=0.5)
    solved_slots = []
    real = ms.policy.solve_slot

    def counting(s, t, *args, **kwargs):
        solved_slots.append(t)
        return real(s, t, *args, **kwargs)

    monkeypatch.setattr(ms.policy, "solve_slot", counting)
    caplog.set_level(logging.INFO, logger="mecsim")
    solved = {}
    for policy in (ms.Policy.threshold(1.0), ms.Policy.always()):
        outcomes = ms.run_policy(s, policy, config=config, solved=solved)
        assert not outcomes[1].migrated, policy.kind
        assert outcomes[1].decision == outcomes[0].decision, policy.kind
        assert outcomes[1].t1_candidate == math.inf, policy.kind
    assert solved_slots == [0, 1]  # once each, by the first policy
    staying = [r for r in caplog.records
               if "slot 1: the candidate is infeasible, staying" in r.getMessage()]
    assert len(staying) == 2  # logged by each policy


def test_forced_slot_with_an_infeasible_candidate_raises():
    # Slot 1's demand is over the one station's capacity: staying is
    # infeasible at margin 0 and the candidate solve finds no decision.
    doc = _static_doc(slots=2, bs=[2.0])
    doc["demand"] = [[1.0], [2.5]]
    s = ms.validate_scenario(doc)
    for policy in (ms.Policy.threshold(1.0), ms.Policy.never()):
        with pytest.raises(ms.InfeasibleError, match="slot 1"):
            ms.run_policy(s, policy)


def test_step_logs_its_rare_paths(caplog):
    caplog.set_level(logging.INFO, logger="mecsim")
    s = ms.validate_scenario(_coverage_loss_doc())
    ms.run_policy(s, ms.Policy.threshold(1.0))
    assert [(r.name, r.levelno) for r in caplog.records] == [("mecsim", logging.INFO)]
    assert "slot 1: staying is infeasible; forced migration" in caplog.records[0].getMessage()

    caplog.clear()
    s = ms.validate_scenario(_infeasible_candidate_doc())
    ms.run_policy(s, ms.Policy.always(), config=ms.SolverConfig(margin=0.5))
    assert [(r.name, r.levelno) for r in caplog.records] == [("mecsim", logging.INFO)]
    assert "slot 1: the candidate is infeasible, staying" in caplog.records[0].getMessage()


def test_t2_matches_a_hand_maintained_accumulator():
    s = ms.generate(ms.GeneratorConfig(seed=8, grid_width=2, grid_height=2,
                                       num_users=3, num_slots=8))
    outcomes = ms.run_policy(s, ms.Policy.threshold(1.0))
    t2 = outcomes[0].delay.non_switching
    assert outcomes[0].t2_accumulated == t2
    for o in outcomes[1:]:
        if o.migrated:
            t2 = o.delay.non_switching
        else:
            t2 = t2 + o.delay.non_switching
        assert o.t2_accumulated == pytest.approx(t2, abs=1e-12)


def test_single_slot_horizon_is_policy_independent():
    doc = random_doc(6, m=3, n=2, slots=1)
    s = ms.validate_scenario(doc)
    decisions = []
    for policy in (ms.Policy.threshold(1.0), ms.Policy.always(),
                   ms.Policy.never(), ms.Policy.oracle()):
        outcomes = ms.run_policy(s, policy)
        assert len(outcomes) == 1
        assert outcomes[0].slot == 0
        assert outcomes[0].delay.switching == 0.0
        decisions.append(outcomes[0].decision)
    assert len(set(decisions)) == 1


def test_never_migrate_static_scenario_keeps_slot_zero_decision():
    doc = _static_doc(m=2, n=2, slots=5, bs=[10.0, 10.0],
                      lat=[[0.0, 2.0], [2.0, 0.0]])
    s = ms.validate_scenario(doc)
    outcomes = ms.run_policy(s, ms.Policy.never())
    for o in outcomes[1:]:
        assert not o.migrated
        assert o.decision == outcomes[0].decision
        assert o.delay.switching == 0.0
        assert o.delay.total == o.delay.non_switching


def test_oracle_policy_total_matches_pinned_dp_value():
    doc = random_doc(9, m=2, n=1, slots=3)
    s = ms.validate_scenario(doc)
    outcomes = ms.run_policy(s, ms.Policy.oracle())
    sequence, dp_total = ms.offline_optimal(s, first_decision=outcomes[0].decision)
    assert [o.decision for o in outcomes] == sequence
    assert sum(o.delay.total for o in outcomes) == pytest.approx(dp_total, abs=1e-9)


def test_accounting_identity_against_reference_recomputation():
    doc = random_doc(14, m=3, n=2, slots=4)
    doc["coverage"] = [[[0, 1, 2], [0, 1, 2]]] * 4
    s = ms.validate_scenario(doc)
    outcomes = ms.run_policy(s, ms.Policy.threshold(0.5))

    total = 0.0
    prev = None
    for t, o in enumerate(outcomes):
        m = s.num_clouds
        x = o.decision.placement_matrix(m).tolist()
        y = o.decision.selection_matrix(m).tolist()
        value = ref.ref_non_switching(
            doc["bs_capacity"], doc["demand"][t], doc["link_latency"][t], x, y
        )
        if prev is not None:
            value += ref.ref_switching(doc["service_size"], x, prev)
        total += value
        prev = x
    assert total == pytest.approx(sum(o.delay.total for o in outcomes), rel=1e-12)


def test_migration_count_non_increasing_in_beta():
    s = ms.generate(ms.GeneratorConfig(seed=4, grid_width=2, grid_height=2,
                                       num_users=3, num_slots=8))
    counts = []
    for beta in (0.0, 1.0, math.inf):
        outcomes = ms.run_policy(s, ms.Policy.threshold(beta))
        counts.append(sum(1 for o in outcomes if o.migrated))
    assert counts[0] >= counts[1] >= counts[2]
