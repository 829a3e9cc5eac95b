"""Delay formulas against hand values and the independent reference loops."""

from __future__ import annotations

import math

import numpy as np
import pytest

import mecsim as ms
import reference as ref
from conftest import make_doc, online_large_scenario, random_doc
from mecsim.delays import _IndexCosts


def _scenario(**overrides):
    return ms.validate_scenario(make_doc(**overrides))


def _one_user(lat_row=None, bs=None):
    lat = [[0.0, 1.5, 3.0], [1.5, 0.0, 2.0], [3.0, 2.0, 0.0]]
    if lat_row is not None:
        lat = lat_row
    return ms.validate_scenario(
        make_doc(
            num_users=1,
            service_size=[5.0],
            cloud_capacity=[8.0, 8.0, 8.0],
            bs_capacity=bs or [10.0, 10.0, 10.0],
            coverage=[[[0, 1, 2]], [[0, 1, 2]]],
            demand=[[1.0], [1.0]],
            link_latency=[lat, lat],
        )
    )


# ---------------------------------------------------------------------------
# switching delay


def test_switching_zero_when_nothing_moves():
    s = _scenario()
    x = ms.SlotDecision((0, 2), (0, 1)).placement_matrix(3)
    assert ms.switching_delay(s, x, x) == 0.0


def test_switching_single_move_costs_service_size():
    s = _one_user()
    x_prev = ms.SlotDecision((0,), (0,)).placement_matrix(3)
    x_now = ms.SlotDecision((1,), (0,)).placement_matrix(3)
    assert ms.switching_delay(s, x_now, x_prev) == 5.0


def test_switching_two_users_one_move():
    s = _scenario(service_size=[2.0, 3.0])
    x_prev = ms.SlotDecision((0, 1), (0, 0)).placement_matrix(3)
    x_now = ms.SlotDecision((2, 1), (0, 0)).placement_matrix(3)
    assert ms.switching_delay(s, x_now, x_prev) == 2.0


def test_switching_dimension_mismatch():
    s = _scenario()
    good = ms.SlotDecision((0, 1), (0, 1)).placement_matrix(3)
    bad = ms.SlotDecision((0, 1), (0, 1)).placement_matrix(4)
    with pytest.raises(ms.DimensionMismatchError):
        ms.switching_delay(s, good, bad)


def test_switching_identity_on_random_fractional_points():
    rng = np.random.default_rng(11)
    s = _scenario()
    for _ in range(25):
        x = rng.dirichlet(np.ones(3), size=2).T
        assert ms.switching_delay(s, x, x) == 0.0


# ---------------------------------------------------------------------------
# queuing delay


def test_queuing_two_users_shared_station():
    s = _scenario()
    y = ms.SlotDecision((0, 0), (0, 0)).selection_matrix(3)
    assert math.isclose(ms.queuing_delay(s, 0, y), 0.25, rel_tol=0, abs_tol=1e-15)


def test_queuing_single_term():
    s = _one_user(bs=[2.0, 10.0, 10.0])
    y = ms.SlotDecision((0,), (0,)).selection_matrix(3)
    assert ms.queuing_delay(s, 0, y) == 1.0


def test_queuing_counts_demand_in_the_load_only():
    # demands 2 and 3 share a station of capacity 10, so L = 5 and each user
    # waits 1 / (10 - 5): 2 / 5 in all, where weighting each term by its
    # demand (sum_k y_jk * c_k / (C_j - L_j)) would give 5 / 5
    s = _scenario(bs_capacity=[10.0, 10.0, 10.0], demand=[[2.0, 3.0]] * 2)
    y = ms.SlotDecision((0, 0), (0, 0)).selection_matrix(3)
    assert ms.queuing_delay(s, 0, y) == 0.4
    assert ref.ref_queuing([10.0] * 3, [2.0, 3.0], y.tolist()) == pytest.approx(0.4)


def test_queuing_infinite_at_exact_capacity():
    s = _scenario(demand=[[5.0, 5.0]] * 2)
    y = ms.SlotDecision((0, 1), (0, 0)).selection_matrix(3)
    assert ms.queuing_delay(s, 0, y) == math.inf


def test_queuing_strictly_increasing_in_demand():
    base = make_doc()
    bumped = make_doc(demand=[[1.0, 1.4], [1.0, 1.0]])
    y = ms.SlotDecision((0, 1), (1, 1)).selection_matrix(3)
    low = ms.queuing_delay(ms.validate_scenario(base), 0, y)
    high = ms.queuing_delay(ms.validate_scenario(bumped), 0, y)
    assert high > low


# ---------------------------------------------------------------------------
# communication delay


def test_communication_zero_when_colocated():
    s = _one_user()
    d = ms.SlotDecision((1,), (1,))
    value = ms.communication_delay(s, 0, d.placement_matrix(3), d.selection_matrix(3))
    assert value == 0.0


def test_communication_single_link():
    s = _one_user()
    d = ms.SlotDecision((2,), (0,))
    value = ms.communication_delay(s, 0, d.placement_matrix(3), d.selection_matrix(3))
    assert value == 3.0


def test_communication_fractional_mix():
    lat = [[0.0, 4.0, 0.0], [4.0, 0.0, 0.0], [0.0, 0.0, 0.0]]
    s = _one_user(lat_row=lat)
    x = np.array([[0.5], [0.5], [0.0]])
    y = ms.SlotDecision((0,), (0,)).selection_matrix(3)
    # half the service mass sits one 4-unit hop from the selected station
    assert ms.communication_delay(s, 0, x, y) == 2.0


# ---------------------------------------------------------------------------
# composition


def test_non_switching_sums_parts():
    s = _scenario()
    d = ms.SlotDecision((0, 0), (0, 0))
    x, y = d.placement_matrix(3), d.selection_matrix(3)
    assert ms.non_switching_delay(s, 0, x, y) == 0.25


def test_non_switching_absorbs_infinity():
    s = _scenario(demand=[[5.0, 5.0]] * 2)
    d = ms.SlotDecision((0, 1), (0, 0))
    x, y = d.placement_matrix(3), d.selection_matrix(3)
    assert ms.non_switching_delay(s, 0, x, y) == math.inf


def test_non_switching_checks_x_when_a_station_overloads():
    # the queuing term is inf, and an x of the wrong shape is still refused
    s = _scenario(demand=[[5.0, 5.0]] * 2)
    y = ms.SlotDecision((0, 1), (0, 0)).selection_matrix(3)
    assert ms.queuing_delay(s, 0, y) == math.inf
    with pytest.raises(ms.DimensionMismatchError, match="x must have shape"):
        ms.non_switching_delay(s, 0, np.zeros((2, 2)), y)


def test_non_switching_closed_form_with_zero_latency():
    doc = make_doc(
        link_latency=[[[0.0] * 3] * 3] * 2,
        bs_capacity=[100.0, 200.0, 400.0],
    )
    s = ms.validate_scenario(doc)
    d = ms.SlotDecision((0, 1), (1, 2))
    x, y = d.placement_matrix(3), d.selection_matrix(3)
    expected = 1.0 / (200.0 - 1.0) + 1.0 / (400.0 - 1.0)
    assert math.isclose(ms.non_switching_delay(s, 0, x, y), expected, rel_tol=1e-12)


def test_total_delay_identities_hold_exactly():
    rng = np.random.default_rng(5)
    for seed in range(30):
        doc = random_doc(seed, m=4, n=3)
        s = ms.validate_scenario(doc)
        placement = tuple(rng.integers(0, 4, size=3))
        prev = tuple(rng.integers(0, 4, size=3))
        selection = tuple(int(rng.choice(doc["coverage"][0][k])) for k in range(3))
        d = ms.SlotDecision(placement, selection)
        breakdown = ms.total_delay(
            s, 0, d.placement_matrix(4),
            ms.SlotDecision(prev, selection).placement_matrix(4),
            d.selection_matrix(4),
        )
        assert breakdown.non_switching == breakdown.queuing + breakdown.communication
        assert breakdown.total == breakdown.switching + breakdown.non_switching
        assert breakdown.switching >= 0.0
        assert breakdown.queuing >= 0.0
        assert breakdown.communication >= 0.0


def test_no_move_slot_total_equals_non_switching():
    s = _scenario()
    d = ms.SlotDecision((1, 2), (1, 2))
    x, y = d.placement_matrix(3), d.selection_matrix(3)
    breakdown = ms.total_delay(s, 0, x, x, y)
    assert breakdown.switching == 0.0
    assert breakdown.total == breakdown.non_switching


def test_walkthrough_slot_communication_is_the_cross_link(walkthrough_path):
    s = ms.load_scenario(walkthrough_path)
    d = ms.SlotDecision((2,), (0,))
    x, y = d.placement_matrix(3), d.selection_matrix(3)
    breakdown = ms.total_delay(s, 0, x, x, y)
    assert breakdown.communication == s.link_latency[0][2][0]
    assert math.isclose(breakdown.queuing, 1.0 / (2.2 - 1.0), rel_tol=1e-12)


# ---------------------------------------------------------------------------
# agreement with the independent reference loops


def _random_decision(rng, s, t):
    """A random placement, previous placement and covered selection."""
    m, n = s.num_clouds, s.num_users
    placement = tuple(int(v) for v in rng.integers(0, m, size=n))
    prev = tuple(int(v) for v in rng.integers(0, m, size=n))
    selection = tuple(int(rng.choice(s.coverage[t][k])) for k in range(n))
    return placement, prev, selection


def _assert_matches_reference(s, t, placement, prev, selection):
    """The matrix forms, the reference loops and ``_IndexCosts`` give the
    same floats on one integral decision."""
    m, n = s.num_clouds, s.num_users
    d = ms.SlotDecision(placement, selection)
    x = d.placement_matrix(m)
    x_prev = ms.SlotDecision(prev, selection).placement_matrix(m)
    y = d.selection_matrix(m)

    got = ms.total_delay(s, t, x, x_prev, y)
    lat = s.link_latency[t]
    want_s = ref.ref_switching(s.service_size, x, x_prev)
    want_q = ref.ref_queuing(s.bs_capacity, s.demand[t], y)
    want_c = ref.ref_communication(lat, x, y)
    assert got.switching == want_s
    assert got.queuing == want_q
    assert got.communication == want_c

    # second, coarser path: per-user link lookup for integral decisions
    assert got.communication == sum(lat[placement[k]][selection[k]] for k in range(n))

    # third path: the index form, the one valuation of integral decisions
    costs = _IndexCosts(s, t)
    assert costs.breakdown(placement, selection, prev) == got
    got_ns = costs.non_switching(placement, selection)
    assert got_ns == got.non_switching
    assert got_ns == ms.non_switching_delay(s, t, x, y)
    assert got_ns == want_q + want_c
    assert costs.switching(placement, prev) == want_s


def test_matches_reference_on_random_integer_decisions():
    rng = np.random.default_rng(2024)
    for seed in range(60):
        m = int(rng.integers(1, 6))
        n = int(rng.integers(1, 6))
        s = ms.validate_scenario(random_doc(seed, m=m, n=n))
        _assert_matches_reference(s, 0, *_random_decision(rng, s, 0))


def test_matches_reference_on_crowded_large_decisions():
    # The online-large benchmark scenario: 40 users on 16 stations, three or
    # more to a station, with demands off any grid. Matrix forms that took
    # the station load from a BLAS product gave other floats on some of them.
    s = online_large_scenario()
    rng = np.random.default_rng(13)
    for t in range(s.num_slots):
        for _ in range(10):
            _assert_matches_reference(s, t, *_random_decision(rng, s, t))


# ---------------------------------------------------------------------------
# summation order: the same float as the term-by-term loop


def _random_point(rng, m, n, sparse):
    """Column-stochastic (x, y); sparse points keep about a third of entries."""
    x, y = rng.random((m, n)), rng.random((m, n))
    if sparse:
        x *= rng.random((m, n)) < 0.35
        y *= rng.random((m, n)) < 0.35
        x[rng.integers(0, m, size=n), np.arange(n)] += 0.5
        y[rng.integers(0, m, size=n), np.arange(n)] += 0.5
    return x / x.sum(axis=0), y / y.sum(axis=0)


@pytest.mark.parametrize("sparse", [False, True], ids=["dense", "sparse"])
def test_sums_add_terms_user_major_left_to_right(sparse):
    rng = np.random.default_rng(7 + sparse)
    for seed in range(150):
        m = int(rng.integers(1, 7))
        n = int(rng.integers(1, 9))
        doc = random_doc(seed, m=m, n=n)
        s = ms.validate_scenario(doc)
        x, y = _random_point(rng, m, n, sparse)
        x_prev, _ = _random_point(rng, m, n, sparse)
        lat = doc["link_latency"][0]
        assert ms.communication_delay(s, 0, x, y) == ref.ref_communication(lat, x, y)
        assert ms.switching_delay(s, x, x_prev) == ref.ref_switching(
            doc["service_size"], x, x_prev
        )
        assert ms.queuing_delay(s, 0, y) == ref.ref_queuing(
            doc["bs_capacity"], doc["demand"][0], y
        )


def test_all_zero_weights_sum_to_positive_zero():
    s = _scenario()
    zero = np.full((3, 2), -0.0)
    x = np.full((3, 2), 0.5)
    assert repr(ms.queuing_delay(s, 0, zero)) == "0.0"
    assert repr(ms.communication_delay(s, 0, x, zero)) == "0.0"
    assert repr(ms.switching_delay(s, zero, x)) == "0.0"
