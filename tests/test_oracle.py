"""Exhaustive slot search and the offline DP against literal enumeration."""

from __future__ import annotations

import itertools
import math
import time
from types import SimpleNamespace

import numpy as np
import pytest

import mecsim as ms
import reference as ref
from conftest import moderate_doc, random_doc, small_horizon_family
from mecsim.model import station_limit
from mecsim.oracle import _fitting


def _two_cloud_doc(bs, slots=1, lat=None, size=2.0):
    lat = lat or [[0.0, 3.0], [3.0, 0.0]]
    return {
        "num_clouds": 2,
        "num_users": 1,
        "num_slots": slots,
        "bs_capacity": bs,
        "cloud_capacity": [5.0, 5.0],
        "service_size": [size],
        "link_latency": [lat] * slots,
        "coverage": [[[0, 1]]] * slots,
        "demand": [[1.0]] * slots,
    }


def test_strictly_cheaper_option_wins():
    doc = _two_cloud_doc(bs=[10.0, 5.0])
    s = ms.validate_scenario(doc)
    decision, value = ms.best_slot_decision(s, 0)
    assert decision == ms.SlotDecision((0,), (0,))
    assert value == pytest.approx(1.0 / 9.0, abs=1e-12)
    brute = ref.brute_best(doc, 0)
    assert decision.placement == brute[0]
    assert decision.selection == brute[1]
    assert value == pytest.approx(brute[2], rel=1e-12)


def test_symmetric_tie_breaks_lexicographically():
    doc = _two_cloud_doc(bs=[10.0, 10.0])
    s = ms.validate_scenario(doc)
    decision, _ = ms.best_slot_decision(s, 0)
    assert decision == ms.SlotDecision((0,), (0,))


def test_matches_brute_force_on_random_instances():
    rng = np.random.default_rng(0)
    for seed in range(15):
        doc = random_doc(seed, tight=(seed % 2 == 0))
        s = ms.validate_scenario(doc)
        prev = tuple(rng.integers(0, s.num_clouds, size=s.num_users).tolist())
        x_prev = ms.SlotDecision(prev, tuple(cov[0] for cov in s.coverage[0]))
        for p_prev, given in ((None, None), (prev, x_prev)):
            brute = ref.brute_best(doc, 0, prev_placement=p_prev)
            if brute is None:
                with pytest.raises(ms.InfeasibleError):
                    ms.best_slot_decision(s, 0, x_prev=given)
                continue
            decision, value = ms.best_slot_decision(s, 0, x_prev=given)
            assert decision.placement == brute[0]
            assert decision.selection == brute[1]
            assert value == pytest.approx(brute[2], rel=1e-12)


def test_previous_placement_adds_switching_cost():
    doc = _two_cloud_doc(bs=[10.0, 5.0], lat=[[0.0, 0.1], [0.1, 0.0]], size=2.0)
    s = ms.validate_scenario(doc)
    prev = ms.SlotDecision((1,), (0,))
    decision, value = ms.best_slot_decision(s, 0, x_prev=prev)
    brute = ref.brute_best(doc, 0, prev_placement=(1,))
    assert decision.placement == brute[0]
    assert value == pytest.approx(brute[2], rel=1e-12)
    # moving to the faster cloud costs the full service size, so stay put
    assert decision.placement == (1,)


def test_value_bounds_the_fractional_objective():
    for seed in (1, 4, 9):
        doc = random_doc(seed)
        s = ms.validate_scenario(doc)
        _, value = ms.best_slot_decision(s, 0)
        _, _, report = ms.solve_slot(s, 0)
        assert report.objective <= value + 1e-9


def test_fitting_keeps_what_a_bincount_filter_keeps():
    # The placements, and the selections of every slot, of the small horizon
    # family and criterion 3's family, against the per-tuple np.bincount
    # test the enumeration made before.
    def bincount_filter(choices, weights, limit):
        return [
            combo for combo in itertools.product(*choices)
            if np.all(np.bincount(combo, weights=weights, minlength=len(limit)) <= limit)
        ]

    scenarios = small_horizon_family()
    scenarios += [ms.validate_scenario(moderate_doc(seed)) for seed in range(100)]
    for s in scenarios:
        limit = station_limit(s.bs_capacity, ms.DEFAULT_CONFIG.margin)
        sides = [([range(s.num_clouds)] * s.num_users, s.service_size, s.cloud_capacity)]
        sides += [(s.coverage[t], s.demand[t], limit) for t in range(s.num_slots)]
        for side in sides:
            assert _fitting(*side) == bincount_filter(*side)


def test_slot_enumeration_budget_guard():
    doc = random_doc(0, m=3, n=3)
    s = ms.validate_scenario(doc)
    with pytest.raises(ms.OracleTooLargeError):
        ms.best_slot_decision(s, 0, budget=10)


def test_offline_single_slot_equals_slot_optimum():
    doc = random_doc(3, m=3, n=2, slots=1)
    s = ms.validate_scenario(doc)
    decisions, total = ms.offline_optimal(s)
    slot_decision, slot_value = ms.best_slot_decision(s, 0)
    assert decisions == [slot_decision]
    assert total == pytest.approx(slot_value, rel=1e-12)


def test_static_scenario_never_migrates_in_the_optimum():
    doc = _two_cloud_doc(bs=[10.0, 5.0], slots=2)
    s = ms.validate_scenario(doc)
    decisions, total = ms.offline_optimal(s)
    assert decisions[0] == decisions[1]
    brute = ref.brute_sequence(doc)
    assert total == pytest.approx(brute[1], rel=1e-12)


def test_profitable_single_migration_is_taken():
    doc = _two_cloud_doc(bs=[10.0, 10.0], slots=2, size=2.0)
    # cloud 1 is remote at slot 0, cloud 0 at slot 1; moving costs only s=2,
    # far below the 9-unit links, so the optimum migrates exactly once
    doc["link_latency"] = [
        [[0.0, 3.0], [9.0, 9.0]],
        [[9.0, 9.0], [0.0, 0.0]],
    ]
    s = ms.validate_scenario(doc)
    decisions, total = ms.offline_optimal(s)
    assert decisions[0].placement == (0,)
    assert decisions[1].placement == (1,)
    brute = ref.brute_sequence(doc)
    assert total == pytest.approx(brute[1], rel=1e-12)
    assert [
        (d.placement, d.selection) for d in decisions
    ] == [(p, sel) for p, sel in brute[0]]


def test_dp_equals_sequence_enumeration():
    for seed in range(8):
        doc = random_doc(seed, m=2, n=2, slots=3, tight=(seed % 2 == 1))
        s = ms.validate_scenario(doc)
        brute = ref.brute_sequence(doc)
        if brute is None:
            with pytest.raises(ms.InfeasibleError):
                ms.offline_optimal(s)
            continue
        decisions, total = ms.offline_optimal(s)
        assert total == pytest.approx(brute[1], rel=1e-12)
        assert [
            (d.placement, d.selection) for d in decisions
        ] == [(p, sel) for p, sel in brute[0]]


def test_first_decision_pinning():
    doc = random_doc(7, m=2, n=1, slots=3)
    s = ms.validate_scenario(doc)
    pinned = ms.SlotDecision((1,), (doc["coverage"][0][0][0],))
    decisions, _ = ms.offline_optimal(s, first_decision=pinned)
    assert decisions[0] == pinned
    _, free_total = ms.offline_optimal(s)
    _, pinned_total = ms.offline_optimal(s, first_decision=pinned)
    assert free_total <= pinned_total + 1e-12


def test_offline_budget_guard():
    doc = random_doc(2, m=3, n=3, slots=4)
    s = ms.validate_scenario(doc)
    with pytest.raises(ms.OracleTooLargeError):
        ms.offline_optimal(s, budget=100)


def test_offline_budget_guard_raises_before_enumerating():
    # 3x2 grid, N=8: 6^8 raw placements, over the default budget. Walking
    # them all before the check took 15.6 s.
    s = ms.generate(ms.GeneratorConfig(
        seed=3, grid_width=3, grid_height=2, num_users=8, num_slots=4
    ))
    start = time.perf_counter()
    with pytest.raises(ms.OracleTooLargeError):
        ms.offline_optimal(s)
    assert time.perf_counter() - start < 1.0


def test_offline_budget_guard_stops_counting_placements(monkeypatch):
    # 3x3 grid, N=5, 2 slots: 9^5 raw placements fit the default budget, but
    # (slots - 1) * P^2 passes it once P = 1001 placements fit, so the walk
    # stops at the 1001st fitting one instead of examining all 59,049.
    s = ms.generate(ms.GeneratorConfig(
        seed=3, grid_width=3, grid_height=3, num_users=5, num_slots=2
    ))
    examined = []

    def product(*choices):
        for combo in itertools.product(*choices):
            examined.append(combo)
            yield combo

    monkeypatch.setattr(ms.oracle, "itertools", SimpleNamespace(product=product))
    with pytest.raises(ms.OracleTooLargeError, match="at least 1002001 values"):
        ms.offline_optimal(s)
    fits = [
        np.all(np.bincount(p, weights=s.service_size, minlength=9) <= s.cloud_capacity)
        for p in examined
    ]
    assert examined == list(itertools.product(range(9), repeat=5))[:len(examined)]
    assert sum(fits) == 1001 and fits[-1]
    assert len(examined) < 9**5


def _exact_work(doc, slots):
    """The values an exact solve over ``slots`` computes, counted by literal
    enumeration: each feasible decision of each slot, and each pair of
    placements between consecutive slots."""
    m, n = doc["num_clouds"], doc["num_users"]
    decisions = [
        [
            placement
            for placement in itertools.product(range(m), repeat=n)
            for selection in itertools.product(*doc["coverage"][t])
            if ref._decision_ok(doc, t, placement, selection, 1e-6)
        ]
        for t in slots
    ]
    placements = len(set(decisions[0]))
    return sum(map(len, decisions)) + (len(slots) - 1) * placements**2


@pytest.mark.parametrize(
    "solve, slots",
    [
        (lambda s, budget: ms.best_slot_decision(s, 1, budget=budget), [1]),
        (lambda s, budget: ms.offline_optimal(s, budget=budget), [0, 1, 2]),
    ],
    ids=["best_slot_decision", "offline_optimal"],
)
def test_budget_admits_exactly_the_work(solve, slots):
    doc = random_doc(1, m=3, n=2, slots=3)
    s = ms.validate_scenario(doc)
    work = _exact_work(doc, slots)
    assert work - 1 >= 3**2  # over the raw counts: only the work check trips
    solve(s, work)
    with pytest.raises(ms.OracleTooLargeError):
        solve(s, work - 1)


@pytest.mark.parametrize("num_users", [4, 5])
@pytest.mark.parametrize("seed", [9, 13, 3])
def test_offline_fits_the_default_budget_beyond_three_users(num_users, seed):
    # 3x1 grid, 16 slots: the DP computes 1.0e5 to 1.1e5 values at N=4 and
    # 8.2e5 to 9.3e5 at N=5, all within the default budget
    s = ms.generate(ms.GeneratorConfig(
        seed=seed, grid_width=3, grid_height=1, num_users=num_users, num_slots=16
    ))
    decisions, total = ms.offline_optimal(s)
    assert (decisions, total) == ms.offline_optimal(s, budget=10**12)
    policies = [ms.Policy.threshold(beta) for beta in (0.0, 1.0, math.inf)]
    policies += [ms.Policy.always(), ms.Policy.never()]
    solved: dict = {}
    for policy in policies:
        outcomes = ms.run_policy(s, policy, solved=solved)
        assert total <= sum(o.delay.total for o in outcomes) + 1e-9


def test_no_feasible_decision_raises_infeasible():
    # one user whose service fits on no cloud: no placement at all
    no_placement = ms.validate_scenario(_two_cloud_doc(bs=[10.0, 10.0], size=6.0))
    with pytest.raises(ms.InfeasibleError, match="no feasible decision at slot 0"):
        ms.best_slot_decision(no_placement, 0)
    with pytest.raises(ms.InfeasibleError, match="no storage-feasible placement"):
        ms.offline_optimal(no_placement)
    # slot 1's demand fits below neither station's capacity less the margin
    doc = _two_cloud_doc(bs=[2.0, 2.0], slots=2)
    doc["demand"] = [[1.0], [1.9999999]]
    empty_slot = ms.validate_scenario(doc)
    with pytest.raises(ms.InfeasibleError, match="no feasible decision at slot 1"):
        ms.best_slot_decision(empty_slot, 1)
    with pytest.raises(ms.InfeasibleError, match="no feasible decision at slot 1"):
        ms.offline_optimal(empty_slot)
    assert ms.offline_optimal(empty_slot, margin=0.0)[0][1].selection in ((0,), (1,))


def test_infeasible_pinned_first_decision_raises():
    s = ms.validate_scenario(_two_cloud_doc(bs=[10.0, 0.5], slots=2))
    # station 1 cannot carry the user's demand of 1.0
    with pytest.raises(ms.InfeasibleError, match="pinned slot-0 decision"):
        ms.offline_optimal(s, first_decision=ms.SlotDecision((0,), (1,)))
