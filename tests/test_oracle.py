"""Exhaustive slot search and the offline DP against literal enumeration."""

from __future__ import annotations

import itertools
import math
import operator
import time

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import mecsim as ms
import reference as ref
from conftest import moderate_doc, random_doc, small_horizon_family
from mecsim.delays import _IndexCosts
from mecsim.model import _tally, station_limit
from mecsim.oracle import _ExactSlots, _fitting, _fitting_sums, _slot_layer


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


def _bincount_filter(choices, weights, limit):
    """The tuples of the product whose per-index weight sums, formed by
    ``np.bincount``, stay within ``limit``."""
    return [
        combo for combo in itertools.product(*choices)
        if np.all(np.bincount(combo, weights=weights, minlength=len(limit)) <= limit)
    ]


def test_fitting_keeps_what_a_bincount_filter_keeps():
    # The placements, and the selections of every slot, of the small horizon
    # family and criterion 3's family, against the per-tuple np.bincount
    # test the enumeration made before. The selections are also tested under
    # a margin of 1.5 times the least station capacity, which check_margin
    # accepts: that station's limit is below 0.0, so nothing fits, even in
    # criterion 3's family with one station cut to a tenth, where the other
    # stations have room. The walk with ``most=k`` keeps the first k + 1
    # fitting tuples.
    scenarios = small_horizon_family()
    scenarios += [ms.validate_scenario(moderate_doc(seed)) for seed in range(100)]
    for seed in range(100):
        doc = moderate_doc(seed)
        doc["bs_capacity"][seed % 3] /= 10.0
        scenarios.append(ms.validate_scenario(doc))
    for s in scenarios:
        limits = [
            station_limit(s.bs_capacity, margin)
            for margin in (ms.DEFAULT_CONFIG.margin, 1.5 * s.bs_capacity.min())
        ]
        assert limits[1].min() < 0.0
        sides = [([range(s.num_clouds)] * s.num_users, s.service_size, s.cloud_capacity)]
        sides += [
            (s.coverage[t], s.demand[t], limit)
            for t in range(s.num_slots) for limit in limits
        ]
        for side in sides:
            expected = _bincount_filter(*side)
            assert _fitting(*side) == expected
            for k in sorted({0, 1, len(expected) // 2, len(expected)}):
                assert _fitting(*side, most=k) == expected[:k + 1]


# Quarter weights and limits make a running sum land exactly on a limit.
# Limits run from -0.5 to 4.0, the room of two of the heaviest users, so
# the walk cuts many prefixes.
_QUARTERS = [k / 4 for k in range(-2, 17)]


@st.composite
def _fitting_case(draw):
    """Choices, weights and limits of 1-4 indices and 1-5 users: each user
    has 1 to M choices, and weights and limits are quarters or floats."""
    m, n = draw(st.integers(1, 4)), draw(st.integers(1, 5))
    choices = [
        sorted(draw(st.lists(st.integers(0, m - 1), min_size=1, max_size=m, unique=True)))
        for _ in range(n)
    ]
    weight = st.one_of(st.sampled_from(_QUARTERS[3:9]), st.floats(0.01, 2.0))
    cap = st.one_of(st.sampled_from(_QUARTERS), st.floats(-0.5, 4.0))
    weights = np.array([draw(weight) for _ in range(n)])
    limit = np.array([draw(cap) for _ in range(m)])
    return choices, weights, limit


@settings(max_examples=400, deadline=None)
@given(_fitting_case())
# the prune cuts: two users of 1.0 fit no index together
@example(([[0, 1, 2]] * 3, np.array([1.0, 1.0, 1.0]), np.array([1.5, 1.5, 1.5])))
# a limit below 0.0 that no tuple touches still empties the side
@example(([[0, 1]] * 2, np.array([0.5, 0.5]), np.array([2.0, 2.0, -0.25])))
# a user with a single choice, whose weight fills its index exactly
@example(([[1], [0, 1], [0, 1]], np.array([0.75, 0.5, 0.25]), np.array([0.75, 0.75])))
def test_fitting_is_the_literal_filter_at_every_stop(case):
    # The pruned walk against the full product filtered by np.bincount: the
    # same tuples in the same order, and with ``most=k`` the first k + 1.
    choices, weights, limit = case
    expected = _bincount_filter(choices, weights, limit)
    assert _fitting(choices, weights, limit) == expected
    for k in range(len(expected) + 1):
        assert _fitting(choices, weights, limit, most=k) == expected[:k + 1]


@settings(max_examples=200, deadline=None)
@given(_fitting_case())
def test_fitting_sums_are_the_full_tallys(case):
    # The walk's running sums against model._tally over each whole tuple,
    # the sums decision_feasible tests: the walk keeps exactly the tuples
    # whose full tally fits, each with that tally's sums, float for float.
    choices, weights, limit = case
    weights, limit = weights.tolist(), limit.tolist()
    expected = []
    for combo in itertools.product(*choices):
        used = _tally(len(limit), combo, weights)
        if all(map(operator.le, used, limit)):
            expected.append((combo, used))
    assert _fitting_sums(choices, weights, limit) == expected


@st.composite
def _exact_slot_case(draw):
    """A one-slot scenario of M 2-4 clouds and N 1-4 users with random
    coverage and float data, a margin of 1e-6 or 0, and a random previous
    decision or none."""
    m = draw(st.integers(2, 4))
    n = draw(st.integers(1, 4))
    positive = st.floats(0.1, 2.0)
    sizes = draw(st.lists(positive, min_size=n, max_size=n))
    demand = draw(st.lists(positive, min_size=n, max_size=n))
    room = st.floats(0.6, 1.5)
    doc = {
        "num_clouds": m,
        "num_users": n,
        "num_slots": 1,
        "bs_capacity": [draw(room) * sum(demand) for _ in range(m)],
        "cloud_capacity": [draw(room) * sum(sizes) for _ in range(m)],
        "service_size": sizes,
        "link_latency": [[
            draw(st.lists(st.floats(0.0, 5.0), min_size=m, max_size=m)) for _ in range(m)
        ]],
        "coverage": [[
            sorted(draw(st.sets(st.integers(0, m - 1), min_size=1))) for _ in range(n)
        ]],
        "demand": [demand],
    }
    s = ms.validate_scenario(doc)
    x_prev = None
    if draw(st.booleans()):
        placement = draw(st.tuples(*[st.integers(0, m - 1)] * n))
        x_prev = ms.SlotDecision(placement, tuple(cov[0] for cov in s.coverage[0]))
    return s, draw(st.sampled_from([1e-6, 0.0])), x_prev


@settings(max_examples=300, deadline=None)
@given(_exact_slot_case())
def test_slot_layer_is_exactly_the_first_minimum_of_the_literal_values(case):
    # == rather than approx: a reordered sum would pass a relative tolerance
    s, margin, x_prev = case
    try:
        exact = _ExactSlots(s, margin)
        placements = exact.sides(range(1), ms.ENUMERATION_BUDGET)
        selections, loads = exact.selections(0)
    except ms.InfeasibleError:
        with pytest.raises(ms.InfeasibleError):
            ms.best_slot_decision(s, 0, x_prev=x_prev, margin=margin)
        return
    costs = _IndexCosts(s, 0)
    values, best = _slot_layer(costs, np.array(placements), selections, loads)
    totals = []
    for pi, p in enumerate(placements):
        literal = [costs.non_switching(p, sel) for sel in selections]
        least = min(literal)
        assert values[pi] == least
        assert best[pi] == literal.index(least)
        totals.append(least + costs.switching(p, x_prev.placement) if x_prev else least)
    decision, value = ms.best_slot_decision(s, 0, x_prev=x_prev, margin=margin)
    pi = placements.index(decision.placement)
    assert pi == totals.index(min(totals))
    assert decision.selection == selections[best[pi]]
    assert value == (values[pi] + costs.switching(decision.placement, x_prev.placement)
                     if x_prev else values[pi])


def _dp_order_total(s, decisions):
    """The total of ``decisions`` summed as the DP sums it, left to right:
    ((ns_0 + sw_1) + ns_1) + sw_2 + ..., valued with ``_IndexCosts``."""
    costs = [_IndexCosts(s, t) for t in range(s.num_slots)]
    total = costs[0].non_switching(decisions[0].placement, decisions[0].selection)
    for t in range(1, s.num_slots):
        now, prev = decisions[t], decisions[t - 1]
        total += costs[t].switching(now.placement, prev.placement)
        total += costs[t].non_switching(now.placement, now.selection)
    return total


@pytest.mark.parametrize(
    "budget", [1e6, float("nan"), True, "1000000", -1],
    ids=["float", "nan", "bool", "string", "negative"],
)
@pytest.mark.parametrize(
    "solve",
    [
        lambda s, budget: ms.offline_optimal(s, budget=budget),
        lambda s, budget: ms.best_slot_decision(s, 0, budget=budget),
    ],
    ids=["offline_optimal", "best_slot_decision"],
)
def test_budget_must_be_an_integer_at_least_zero(solve, budget):
    # unchecked, a float budget reached math.isqrt's TypeError in the DP,
    # NaN compared false and lifted every limit, True counted as 1 and a
    # string raised TypeError
    s = ms.generate(ms.GeneratorConfig(
        seed=9, grid_width=3, grid_height=1, num_users=3, num_slots=4
    ))
    with pytest.raises(ValueError, match="budget must be an integer >= 0"):
        solve(s, budget)
    assert solve(s, np.int64(10**6)) == solve(s, 10**6)


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
        assert total == _dp_order_total(s, decisions)
        assert [
            (d.placement, d.selection) for d in decisions
        ] == [(p, sel) for p, sel in brute[0]]
    # the horizon family is too long for the literal enumeration; its DP
    # total is still exactly its path's sum in the DP's order
    for s in small_horizon_family():
        decisions, total = ms.offline_optimal(s)
        assert total == _dp_order_total(s, decisions)


def test_first_decision_pinning():
    doc = random_doc(7, m=2, n=1, slots=3)
    s = ms.validate_scenario(doc)
    pinned = ms.SlotDecision((1,), (doc["coverage"][0][0][0],))
    cases = [(s, pinned)]
    # on the horizon family, pin the last feasible slot-0 decision
    for s in small_horizon_family():
        margin = ms.DEFAULT_CONFIG.margin
        exact = _ExactSlots(s, margin)
        placements = exact.sides(range(1), ms.ENUMERATION_BUDGET)
        selections, _ = exact.selections(0)
        cases.append((s, ms.SlotDecision(placements[-1], selections[-1])))
    for s, pinned in cases:
        decisions, pinned_total = ms.offline_optimal(s, first_decision=pinned)
        assert decisions[0] == pinned
        assert pinned_total == _dp_order_total(s, decisions)
        _, free_total = ms.offline_optimal(s)
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
    # stops at the 1001st fitting one instead of examining all 59,049. The
    # walk's visits are counted as the indices it draws from each user's
    # choices, prefixes included.
    s = ms.generate(ms.GeneratorConfig(
        seed=3, grid_width=3, grid_height=3, num_users=5, num_slots=2
    ))
    visits = []
    walked = []

    class Counted:
        def __init__(self, options):
            self.options = options

        def __iter__(self):
            for i in self.options:
                visits.append(i)
                yield i

    def fitting(choices, weights, limit, most=math.inf):
        found = real([Counted(c) for c in choices], weights, limit, most)
        walked.append(found)
        return found

    real = ms.oracle._fitting
    monkeypatch.setattr(ms.oracle, "_fitting", fitting)
    with pytest.raises(ms.OracleTooLargeError, match="at least 1002001 values"):
        ms.offline_optimal(s)
    fitting_placements = (
        p for p in itertools.product(range(9), repeat=5)
        if np.all(np.bincount(p, weights=s.service_size, minlength=9) <= s.cloud_capacity)
    )
    assert len(walked) == 1
    assert walked[0] == list(itertools.islice(fitting_placements, 1001))
    assert len(visits) < 9**5


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
    solved = ms.policy.Solved(s, ms.DEFAULT_CONFIG.margin)
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


@st.composite
def _tiny_horizon_case(draw, max_users=2):
    """A horizon of M 1-3 clouds, N 1 to ``max_users`` users and T 1-3
    slots, storage and station room near full, a margin of 0 or the default,
    and slot 0 free or pinned to a placement and a covered selection."""
    m, n = draw(st.integers(1, 3)), draw(st.integers(1, max_users))
    slots = draw(st.integers(1, 3))
    positive = st.floats(0.5, 1.5)
    sizes = draw(st.lists(positive, min_size=n, max_size=n))
    demand = [draw(st.lists(positive, min_size=n, max_size=n)) for _ in range(slots)]
    room = st.floats(0.8, 1.6)
    doc = {
        "num_clouds": m,
        "num_users": n,
        "num_slots": slots,
        "bs_capacity": [draw(room) * max(map(sum, demand)) for _ in range(m)],
        "cloud_capacity": [draw(room) * sum(sizes) for _ in range(m)],
        "service_size": sizes,
        "link_latency": [
            [draw(st.lists(st.floats(0.0, 5.0), min_size=m, max_size=m)) for _ in range(m)]
            for _ in range(slots)
        ],
        "coverage": [
            [sorted(draw(st.sets(st.integers(0, m - 1), min_size=1))) for _ in range(n)]
            for _ in range(slots)
        ],
        "demand": demand,
    }
    first = None
    if draw(st.booleans()):
        first = ms.SlotDecision(
            draw(st.tuples(*[st.integers(0, m - 1)] * n)),
            tuple(draw(st.sampled_from(cov)) for cov in doc["coverage"][0]),
        )
    return doc, draw(st.sampled_from([0.0, ms.DEFAULT_CONFIG.margin])), first


@settings(max_examples=200, deadline=None)
@given(_tiny_horizon_case())
def test_offline_optimal_equals_sequence_enumeration_on_tiny_horizons(case):
    doc, margin, first = case
    s = ms.validate_scenario(doc)
    pinned = None if first is None else (first.placement, first.selection)
    brute = ref.brute_sequence(doc, margin=margin, first=pinned)
    if brute is None:
        with pytest.raises(ms.InfeasibleError):
            ms.offline_optimal(s, margin=margin, first_decision=first)
        return
    fresh = ms.offline_optimal(s, margin=margin, first_decision=first)
    assert fresh[1] == pytest.approx(brute[1], rel=1e-9)
    assert fresh[1] == _dp_order_total(s, fresh[0])
    # online runs fill a memo's exact-slot cache; the DP reading it returns
    # the fresh call's decisions and total
    config = ms.SolverConfig(margin=margin)
    solved = ms.policy.Solved(s, margin)
    for beta in (0.0, 1.0, math.inf):
        try:
            ms.run_policy(s, ms.Policy.threshold(beta), config=config, solved=solved)
        except ms.InfeasibleError:
            pass
    assert ms.offline_optimal(s, margin=margin, first_decision=first, _exact=solved) == fresh


def test_exact_slot_cache_is_scoped_to_its_scenario_and_margin(monkeypatch):
    doc = random_doc(1, m=3, n=2, slots=3)
    s, twin = ms.validate_scenario(doc), ms.validate_scenario(doc)
    margin = ms.DEFAULT_CONFIG.margin
    exact = _ExactSlots(s, margin)
    refused = "belongs to another scenario or margin"
    with pytest.raises(ValueError, match=refused):
        ms.solve_slot(twin, 0, _exact=exact)
    with pytest.raises(ValueError, match=refused):
        ms.solve_slot(s, 0, config=ms.SolverConfig(margin=0.0), _exact=exact)
    with pytest.raises(ValueError, match=refused):
        ms.offline_optimal(twin, margin=margin, _exact=exact)
    with pytest.raises(ValueError, match=refused):
        ms.offline_optimal(s, margin=0.0, _exact=exact)
    # a memo a run filled refuses another scenario's DP, and an online run
    # on another scenario or at another margin before it reads a kept solve
    solved = ms.policy.Solved(s, margin)
    ms.run_policy(s, ms.Policy.always(), solved=solved)
    with pytest.raises(ValueError, match=refused):
        ms.run_policy(twin, ms.Policy.oracle(), solved=solved)
    other = ms.validate_scenario(random_doc(2, m=3, n=2, slots=3))
    with pytest.raises(ValueError, match=refused):
        ms.run_policy(other, ms.Policy.always(), solved=solved)
    with pytest.raises(ValueError, match=refused):
        ms.run_policy(s, ms.Policy.threshold(1.0), ms.SolverConfig(margin=0.0), solved=solved)
    # no cache outlives its call: each call without one walks again
    walks = []
    real = ms.oracle._fitting

    def counted(*args, **kwargs):
        walks.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(ms.oracle, "_fitting", counted)
    for _ in range(2):
        ms.solve_slot(s, 0)
        ms.best_slot_decision(s, 0)
        ms.offline_optimal(s)
    assert len(walks) == 6


def test_exact_slot_cache_keeps_no_cut_walk(monkeypatch):
    # test_offline_budget_guard_stops_counting_placements's scenario: the
    # DP's walk stops at P = 1001 under the default budget, at 2001 under
    # 4e6, and a slot solve needs all 58,347 placements. A cut walk raises
    # and leaves nothing, so each call walks afresh until one walk is
    # complete; that one is kept and answers every later call.
    s = ms.generate(ms.GeneratorConfig(
        seed=3, grid_width=3, grid_height=3, num_users=5, num_slots=2
    ))
    walks = []
    real = ms.oracle._fitting

    def counted(*args, **kwargs):
        walks.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(ms.oracle, "_fitting", counted)
    margin = ms.DEFAULT_CONFIG.margin
    exact = _ExactSlots(s, margin)
    with pytest.raises(ms.OracleTooLargeError, match="at least 1002001 values"):
        ms.offline_optimal(s, margin=margin, _exact=exact)
    assert (len(walks), exact.rows) == (1, None)
    with pytest.raises(ms.OracleTooLargeError, match="at least 4004001 values"):
        ms.offline_optimal(s, margin=margin, budget=4 * 10**6, _exact=exact)
    assert (len(walks), exact.rows) == (2, None)
    assert ms.oracle._slot_optimum(exact, 1, None, ms.ENUMERATION_BUDGET) == (
        ms.best_slot_decision(s, 1)
    )
    assert len(exact.rows) == 58347
    # the complete walk answers a smaller stop as a fresh walk would
    walked = len(walks)
    with pytest.raises(ms.OracleTooLargeError, match="at least 1002001 values"):
        ms.offline_optimal(s, margin=margin, _exact=exact)
    assert len(walks) == walked


def test_a_run_without_a_memo_walks_the_placements_once(monkeypatch):
    # the compare-small seed-9 scenario: the run's own memo carries one
    # exact-slot cache for its slot solves and the oracle's DP, where each
    # of them walked its own before (2 walks)
    s = ms.generate(ms.GeneratorConfig(
        seed=9, grid_width=3, grid_height=1, num_users=3, num_slots=16
    ))
    walks = []
    real = ms.oracle._fitting

    def counted(*args, **kwargs):
        walks.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(ms.oracle, "_fitting", counted)
    outcomes = ms.run_policy(s, ms.Policy.oracle())
    assert len(walks) == 1
    assert outcomes == ms.run_policy(
        s, ms.Policy.oracle(), solved=ms.policy.Solved(s, ms.DEFAULT_CONFIG.margin)
    )


@st.composite
def _cache_calls(draw):
    """A tiny horizon (N up to 4 users) and a sequence of exact solves on
    it, each (name, slot or budget, pinned): slot solves, DPs at budgets
    from 0 to (T - 1) * (M^N)^2, so that some walks are cut at their P^2
    stop, or at the default budget, and slot optima, each with or without
    the case's pinned decision (a slot solve's warm start)."""
    doc, margin, first = draw(_tiny_horizon_case(max_users=4))
    slots, raw = doc["num_slots"], doc["num_clouds"] ** doc["num_users"]
    slot = st.integers(0, slots - 1)
    budget = st.one_of(
        st.integers(0, max(1, slots - 1) * raw**2), st.just(ms.ENUMERATION_BUDGET)
    )
    call = st.one_of(
        st.tuples(st.just("solve_slot"), slot, st.booleans()),
        st.tuples(st.just("offline_optimal"), budget, st.booleans()),
        st.tuples(st.just("_slot_optimum"), slot, st.booleans()),
    )
    return doc, margin, first, draw(st.lists(call, min_size=1, max_size=6))


def _exact_call(s, config, first, exact, name, arg, pinned):
    """One drawn exact solve through ``exact``, or a fresh one when it is
    None: its result, or the type and message of what it raised."""
    first = first if pinned else None
    try:
        if name == "solve_slot":
            decision, _, report = ms.solve_slot(
                s, arg, warm_start=first, config=config, _exact=exact
            )
            return decision, report
        if name == "offline_optimal":
            return ms.offline_optimal(
                s, margin=config.margin, budget=arg, first_decision=first, _exact=exact
            )
        exact = exact or _ExactSlots(s, config.margin)
        return ms.oracle._slot_optimum(exact, arg, first, ms.ENUMERATION_BUDGET)
    except (ms.InfeasibleError, ms.OracleTooLargeError) as exc:
        return type(exc), str(exc)


@settings(max_examples=150, deadline=None)
@given(_cache_calls())
# 81 placements fit: a DP at budget 1000 is cut at P = 23 before and after
# a slot solve keeps the complete walk
@example((
    random_doc(1, m=3, n=4, slots=3), ms.DEFAULT_CONFIG.margin, None,
    [("offline_optimal", 1000, False), ("solve_slot", 1, False),
     ("offline_optimal", 1000, False), ("_slot_optimum", 2, False),
     ("offline_optimal", ms.ENUMERATION_BUDGET, False)],
))
def test_exact_slot_cache_answers_any_call_order_as_fresh_calls(case):
    doc, margin, first, calls = case
    s = ms.validate_scenario(doc)
    config = ms.SolverConfig(margin=margin)
    exact = _ExactSlots(s, config.margin)
    for call in calls:
        assert _exact_call(s, config, first, exact, *call) == (
            _exact_call(s, config, first, None, *call)
        )
