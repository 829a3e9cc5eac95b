"""The integer decisions of the benchmark's runs, pinned by SHA-256.

A change that only makes the solver or the oracle faster must leave every
decision as it was. Each digest covers the decisions of one run:
- the 48 ``slot-cold-small`` instances, solved cold;
- the 12 ``online-large`` slots under the threshold policy, beta = 1;
- every ``compare`` policy row on the generator seed 9 scenario of
  ``compare-small`` (3x1 grid, N=3, 16 slots);
- the exact path where storage and station room bind: ``best_slot_decision``
  on tight 4-cloud, 5-user slots and ``offline_optimal`` on the small
  horizon family;
- the search's families, solved cold: the moderate and tight (5, 10)
  slots, the tight (4, 8) slots, the 12 ``online-large`` slots and the
  3x1-grid generator slots at N = 8, 10 and 12. They run the full pair
  rescan, rotations, kicks and the enumeration fallback.
A digest that moves means the decisions moved: either the change is not
the pure speed-up it claims, or it changes results on purpose and says so.

The files ``compare`` writes for that scenario are pinned too, byte for
byte: a CSV float, a run id or a summary field that moves shows there even
when every decision stays.
"""

from __future__ import annotations

import hashlib
import math

import numpy as np

import mecsim as ms
from conftest import (
    moderate_doc,
    online_large_scenario,
    perfbench_workloads,
    random_doc,
    small_horizon_family,
)
from mecsim.cli import main


def _digest(decisions) -> str:
    text = repr([(d.placement, d.selection) for d in decisions])
    return hashlib.sha256(text.encode()).hexdigest()


def test_cold_small_decisions_are_unchanged():
    bench = perfbench_workloads()
    decisions = []
    for k in range(48):
        rng = np.random.default_rng([bench.SlotColdSmall.INSTANCE_SEED, k])
        s = ms.validate_scenario(bench.sandwich_doc(rng))
        decisions.append(ms.solve_slot(s, 0)[0])
    assert _digest(decisions) == (
        "1687705b5cec21a818426c1048fe9178ed4c91901754261c4658a3e5c4e5ba60"
    )


def test_online_large_decisions_are_unchanged():
    outcomes = ms.run_policy(online_large_scenario(), ms.Policy.threshold(1.0))
    assert _digest([o.decision for o in outcomes]) == (
        "596ca5c5ce55276f580ed194cd62d722b7942d1ee38256f6b1891458b88dbb57"
    )


def test_compare_decisions_are_unchanged():
    s = ms.generate(ms.GeneratorConfig(
        seed=9, grid_width=3, grid_height=1, num_users=3, num_slots=16
    ))
    policies = [ms.Policy.threshold(beta) for beta in (0.0, 1.0, math.inf)]
    policies += [ms.Policy.always(), ms.Policy.never(), ms.Policy.oracle()]
    solved = ms.policy.Solved(s, ms.DEFAULT_CONFIG.margin)
    decisions = [
        o.decision
        for policy in policies
        for o in ms.run_policy(s, policy, solved=solved)
    ]
    assert _digest(decisions) == (
        "383fbd6e7b13213289b63c76430c3537817d9f4a6b594be6078d68ac4ecaea46"
    )


def test_compare_artifacts_are_unchanged(tmp_path, monkeypatch):
    # a relative scenario path keeps the summaries' "scenario" field fixed
    monkeypatch.chdir(tmp_path)
    s = ms.generate(ms.GeneratorConfig(
        seed=9, grid_width=3, grid_height=1, num_users=3, num_slots=16
    ))
    ms.save_scenario(s, "scenario.json")
    rc = main(["compare", "--scenario", "scenario.json", "--beta", "0,1,inf",
               "--seed", "0", "--out", "out"])
    assert rc == 0
    files = sorted((p.name, p.read_bytes()) for p in (tmp_path / "out").iterdir())
    assert len(files) == 13  # six rows' CSV and summary, and the table
    assert hashlib.sha256(repr(files).encode()).hexdigest() == (
        "0d63aa55fe899f318da0c7996aea737924138a88714ea5c34b33d35d1a89d98f"
    )


def test_exact_path_where_pruning_bites_is_unchanged():
    # Tight 4-cloud, 5-user slots solved exactly, and the offline DP on the
    # small horizon family (N = 3, 4 and 5): storage and station room bind,
    # so the fitting walk drops many prefixes. Decisions, values and error
    # types are pinned. The digest was computed with the full
    # itertools.product walk, before the walk was pruned.
    outputs = []
    for seed in range(100):
        s = ms.validate_scenario(random_doc(seed, m=4, n=5, tight=True))
        try:
            decision, value = ms.best_slot_decision(s, 0)
        except ms.InfeasibleError as error:
            outputs.append(type(error).__name__)
        else:
            outputs.append((decision.placement, decision.selection, value))
    for s in small_horizon_family():
        decisions, total = ms.offline_optimal(s)
        outputs.append(([(d.placement, d.selection) for d in decisions], total))
    assert hashlib.sha256(repr(outputs).encode()).hexdigest() == (
        "fec9297b5cbaba1be2a1c111005bbe9fa07aa64af900b66a5f5e68ff0db9e845"
    )


def _search_families():
    """(scenario, slot) of each slot of the search's families."""
    for seed in range(80):
        yield ms.validate_scenario(moderate_doc([seed, 5, 10], m=5, n=10)), 0
        yield ms.validate_scenario(random_doc(seed, m=5, n=10, tight=True)), 0
    for seed in range(60):
        yield ms.validate_scenario(random_doc(seed, m=4, n=8, tight=True)), 0
    large = online_large_scenario()
    yield from ((large, t) for t in range(large.num_slots))
    for n in (8, 10, 12):
        for seed in (9, 13, 3):
            s = ms.generate(ms.GeneratorConfig(
                seed=seed, grid_width=3, grid_height=1, num_users=n, num_slots=16
            ))
            yield from ((s, t) for t in range(s.num_slots))


def test_search_family_decisions_are_unchanged():
    # Each cold solve's decision and repr'd value, or the name of the error
    # it raises: searched slots, slots the search leaves to enumeration and
    # slots refused as infeasible.
    outputs = []
    for s, t in _search_families():
        try:
            decision, _, report = ms.solve_slot(s, t)
        except (ms.InfeasibleError, ms.RoundingFailedError) as error:
            outputs.append(type(error).__name__)
        else:
            outputs.append((decision.placement, decision.selection, repr(report.objective)))
    assert len(outputs) == 376
    assert hashlib.sha256(repr(outputs).encode()).hexdigest() == (
        "344f7dada6ea1c100c381c46774debaa826a98c54ea011bea90fa11028e0bf1c"
    )
