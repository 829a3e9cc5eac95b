"""Acceptance checks, one test per criterion.

Each test prints a single PASS line with its measurements once every assert
holds, so `pytest -v -s tests/test_acceptance.py` reads as a checklist.
Tolerances and runtime budgets are fixed here on purpose; loosening them is
changing the contract, not fixing a test.
"""

from __future__ import annotations

import json
import math
import time

import numpy as np
import pytest

import mecsim as ms
import reference as ref
from conftest import WALKTHROUGH, moderate_doc
from mecsim.cli import main


def _passed(n: int, detail: str) -> None:
    print(f"criterion {n}: PASS ({detail})")


def _random_case(rng):
    """Random scenario document and integer decision, capacities generous."""
    m = int(rng.integers(1, 6))
    n = int(rng.integers(1, 6))
    lat = rng.uniform(0.0, 5.0, size=(m, m))
    demand = rng.uniform(0.5, 1.5, size=(1, n))
    sizes = rng.uniform(0.5, 2.0, size=n)
    coverage = []
    for _ in range(n):
        count = int(rng.integers(1, m + 1))
        coverage.append(sorted(rng.choice(m, size=count, replace=False).tolist()))
    doc = {
        "num_clouds": m,
        "num_users": n,
        "num_slots": 1,
        "bs_capacity": (rng.uniform(1.6, 2.5, size=m) * demand.sum()).tolist(),
        "cloud_capacity": (rng.uniform(1.2, 2.0, size=m) * sizes.sum()).tolist(),
        "service_size": sizes.tolist(),
        "link_latency": [lat.tolist()],
        "coverage": [coverage],
        "demand": demand.tolist(),
    }
    placement = tuple(int(v) for v in rng.integers(0, m, size=n))
    prev = tuple(int(v) for v in rng.integers(0, m, size=n))
    selection = tuple(int(rng.choice(coverage[k])) for k in range(n))
    return doc, placement, prev, selection


def test_criterion_1_delay_formulas_match_reference():
    started = time.perf_counter()
    rng = np.random.default_rng(1001)
    for _ in range(200):
        doc, placement, prev, selection = _random_case(rng)
        s = ms.validate_scenario(doc)
        m = doc["num_clouds"]
        d = ms.SlotDecision(placement, selection)
        x = d.placement_matrix(m)
        x_prev = ms.SlotDecision(prev, selection).placement_matrix(m)
        y = d.selection_matrix(m)

        got = ms.total_delay(s, 0, x, x_prev, y)
        lat = doc["link_latency"][0]
        want = {
            "switching": ref.ref_switching(doc["service_size"], x, x_prev),
            "queuing": ref.ref_queuing(doc["bs_capacity"], doc["demand"][0], y),
            "communication": ref.ref_communication(lat, x, y),
        }
        want["non_switching"] = want["queuing"] + want["communication"]
        want["total"] = want["non_switching"] + want["switching"]
        for name, expected in want.items():
            value = getattr(got, name)
            assert abs(value - expected) <= 1e-12 * max(1.0, abs(expected)), (
                f"{name} mismatch: {value} vs {expected}"
            )
    elapsed = time.perf_counter() - started
    assert elapsed < 1.0, f"criterion 1 took {elapsed:.2f}s, budget 1s"
    _passed(1, f"200 random decisions, 5 formulas, {elapsed:.2f}s")


def test_criterion_2_gradient_matches_central_differences():
    started = time.perf_counter()
    worst = 0.0
    for seed in range(100):
        doc = moderate_doc(seed, m=3, n=3)
        s = ms.validate_scenario(doc)
        x = np.full((3, 3), 1.0 / 3.0)
        y = np.zeros((3, 3))
        for k in range(3):
            stations = doc["coverage"][0][k]
            for j in stations:
                y[j, k] = 1.0 / len(stations)
        grad_x, grad_y = ms.objective_gradient(s, 0, x, y)
        fd_x, fd_y = ref.fd_gradient(
            doc["bs_capacity"], doc["demand"][0], doc["link_latency"][0],
            x.tolist(), y.tolist(), step=1e-6,
        )
        for got, want in ((grad_x, np.asarray(fd_x)), (grad_y, np.asarray(fd_y))):
            scale = max(1.0, float(np.abs(want).max()))
            err = float(np.abs(got - want).max()) / scale
            worst = max(worst, err)
            assert err <= 1e-5, f"gradient error {err:.2e} at seed {seed}"
    elapsed = time.perf_counter() - started
    assert elapsed < 5.0, f"criterion 2 took {elapsed:.2f}s, budget 5s"
    _passed(2, f"100 interior points, worst relative error {worst:.1e}, {elapsed:.2f}s")


def test_criterion_3_relaxation_sandwich():
    started = time.perf_counter()
    worst_gap = -math.inf
    for seed in range(100):
        doc = moderate_doc(seed)
        s = ms.validate_scenario(doc)
        decision, frac, report = ms.solve_slot(s, 0, rng_seed=seed)
        _, oracle_value = ms.best_slot_decision(s, 0)
        rounded = ms.non_switching_delay(
            s, 0, decision.placement_matrix(3), decision.selection_matrix(3)
        )
        assert report.objective <= oracle_value + 1e-3, (
            f"seed {seed}: fractional {report.objective} above oracle {oracle_value}"
        )
        assert oracle_value <= rounded + 1e-9, (
            f"seed {seed}: oracle {oracle_value} above rounded {rounded}"
        )
        worst_gap = max(worst_gap, report.objective - oracle_value)
    elapsed = time.perf_counter() - started
    assert elapsed < 30.0, f"criterion 3 took {elapsed:.2f}s, budget 30s"
    _passed(3, f"100 instances, worst fractional-minus-oracle {worst_gap:.2e}, "
               f"{elapsed:.1f}s")


def test_criterion_4_rounding_distribution():
    doc = {
        "num_clouds": 3,
        "num_users": 1,
        "num_slots": 1,
        "bs_capacity": [10.0, 10.0, 10.0],
        "cloud_capacity": [5.0, 5.0, 5.0],
        "service_size": [1.0],
        "link_latency": [[[0.0, 1.0, 1.0], [1.0, 0.0, 1.0], [1.0, 1.0, 0.0]]],
        "coverage": [[[0, 1, 2]]],
        "demand": [[1.0]],
    }
    s = ms.validate_scenario(doc)
    frac = ms.FractionalDecision(
        x=np.array([[0.5], [0.5], [0.0]]), y=np.array([[1.0], [0.0], [0.0]])
    )
    samples = 100_000
    counts = np.zeros(3)
    for seed in range(samples):
        d, _, _ = ms.round_decision(s, 0, frac, rng_seed=seed)
        counts[d.placement[0]] += 1
    freq = counts / samples
    target = np.array([0.5, 0.5, 0.0])
    assert np.abs(freq - target).max() <= 0.01, f"frequencies {freq}"
    _passed(4, f"{samples} samples, frequencies {np.round(freq, 4).tolist()}")


def test_criterion_5_rounded_decisions_always_feasible():
    margin = ms.DEFAULT_CONFIG.margin
    checked = 0
    failures = 0
    for index in range(40):
        if index < 25:
            doc = moderate_doc(200 + index)
        else:
            rng = np.random.default_rng(300 + index)
            doc = moderate_doc(300 + index)
            doc["cloud_capacity"] = (
                rng.uniform(1.1, 1.5, size=3) * max(doc["service_size"])
            ).tolist()
        s = ms.validate_scenario(doc)
        try:
            decision, _, _ = ms.solve_slot(s, 0, rng_seed=index)
        except (ms.RoundingFailedError, ms.InfeasibleError):
            failures += 1  # allowed: errors, never silent infeasible output
            continue
        assert ms.decision_feasible(s, 0, decision, margin), f"instance {index}"
        checked += 1
    assert checked >= 30
    _passed(5, f"{checked} feasible decisions, {failures} explicit errors")


def test_criterion_6_threshold_policy_semantics():
    betas = (0.0, 0.5, 1.0, 2.0, 5.0, math.inf)
    for seed in range(10):
        s = ms.generate(ms.GeneratorConfig(
            seed=seed, grid_width=2, grid_height=2, num_users=3, num_slots=8
        ))
        always = ms.run_policy(s, ms.Policy.always())
        counts = []
        for beta in betas:
            outcomes = ms.run_policy(s, ms.Policy.threshold(beta))
            counts.append(sum(1 for o in outcomes if o.migrated))
            if beta == 0.0:
                assert [o.decision for o in outcomes] == [
                    o.decision for o in always
                ], f"seed {seed}: beta=0 differs from always_migrate"
            if math.isinf(beta):
                voluntary = sum(
                    1 for o in outcomes[1:] if o.migrated and not o.forced
                )
                assert voluntary == 0, f"seed {seed}: beta=inf migrated voluntarily"
        for a, b in zip(counts, counts[1:]):
            assert a >= b, f"seed {seed}: migration counts {counts} not monotone"
    _passed(6, "10 scenarios: beta=0 == always, beta=inf forced-only, "
               "counts monotone over 6 betas")


def test_criterion_7_offline_oracle_dominates():
    started = time.perf_counter()
    policies = {
        "threshold": ms.Policy.threshold(1.0),
        "always": ms.Policy.always(),
        "never": ms.Policy.never(),
        "oracle": ms.Policy.oracle(),
    }
    for seed in range(20):
        s = ms.generate(ms.GeneratorConfig(
            seed=seed, grid_width=3, grid_height=1, num_users=2, num_slots=4
        ))
        _, offline_total = ms.offline_optimal(s)
        for name, policy in policies.items():
            outcomes = ms.run_policy(s, policy)
            total = sum(o.delay.total for o in outcomes)
            assert offline_total <= total + 1e-9, (
                f"seed {seed}: offline {offline_total} above {name} {total}"
            )
    elapsed = time.perf_counter() - started
    assert elapsed < 60.0, f"criterion 7 took {elapsed:.2f}s, budget 60s"
    _passed(7, f"20 scenarios x 4 policies, {elapsed:.1f}s")


def test_criterion_8_walkthrough_reproduction():
    s = ms.load_scenario(WALKTHROUGH)
    decision, _, _ = ms.solve_slot(s, 0, rng_seed=0)
    assert decision.placement == (2,)
    assert decision.selection == (0,)
    outcome = ms.initial_slot(s, rng_seed=0)
    assert outcome.decision == ms.SlotDecision((2,), (0,))
    assert outcome.delay.switching == 0.0
    _passed(8, "idle cloud hosts the service, in-range station selected: "
               "placement (2,), selection (0,)")


def test_criterion_9_reruns_are_byte_identical(tmp_path):
    config = tmp_path / "gen.json"
    config.write_text(json.dumps({
        "generator": {"seed": 6, "grid_width": 2, "grid_height": 2,
                      "num_users": 3, "num_slots": 6}
    }), encoding="utf-8")
    generated = tmp_path / "scenario.json"
    assert main(["generate", "--config", str(config), "--out", str(generated)]) == 0

    cases = [
        (str(WALKTHROUGH), ["--policy", "threshold", "--beta", "1.0"],
         "threshold_beta1.0_seed3"),
        (str(generated), ["--policy", "threshold", "--beta", "0.5"],
         "threshold_beta0.5_seed3"),
    ]
    for scenario, flags, stem in cases:
        out_a = tmp_path / f"a_{stem}"
        out_b = tmp_path / f"b_{stem}"
        base = ["run", "--scenario", scenario, "--seed", "3", *flags]
        assert main(base + ["--out", str(out_a)]) == 0
        assert main(base + ["--out", str(out_b)]) == 0
        for suffix in (".csv", ".json"):
            a = (out_a / f"{stem}{suffix}").read_bytes()
            b = (out_b / f"{stem}{suffix}").read_bytes()
            assert a == b, f"{stem}{suffix} differs between reruns"
    _passed(9, "2 scenarios x (csv, summary): byte-identical reruns")
