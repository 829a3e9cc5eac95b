"""The integer decisions of the benchmark's runs, pinned by SHA-256.

A change that only makes the solver or the oracle faster must leave every
decision as it was. Each digest covers the decisions of one run:
- the 48 ``slot-cold-small`` instances, solved cold;
- the 12 ``online-large`` slots under the threshold policy, beta = 1;
- every ``compare`` policy row on the generator seed 9 scenario of
  ``compare-small`` (3x1 grid, N=3, 16 slots).
A digest that moves means the decisions moved: either the change is not
the pure speed-up it claims, or it changes results on purpose and says so.
"""

from __future__ import annotations

import hashlib
import math

import numpy as np

import mecsim as ms
from conftest import online_large_scenario, perfbench_workloads


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
    outcomes = ms.run_policy(online_large_scenario(), ms.Policy.threshold(1.0), rng_seed=0)
    assert _digest([o.decision for o in outcomes]) == (
        "596ca5c5ce55276f580ed194cd62d722b7942d1ee38256f6b1891458b88dbb57"
    )


def test_compare_decisions_are_unchanged():
    s = ms.generate(ms.GeneratorConfig(
        seed=9, grid_width=3, grid_height=1, num_users=3, num_slots=16
    ))
    policies = [ms.Policy.threshold(beta) for beta in (0.0, 1.0, math.inf)]
    policies += [ms.Policy.always(), ms.Policy.never(), ms.Policy.oracle()]
    solved: dict = {}
    decisions = [
        o.decision
        for policy in policies
        for o in ms.run_policy(s, policy, rng_seed=0, solved=solved)
    ]
    assert _digest(decisions) == (
        "383fbd6e7b13213289b63c76430c3537817d9f4a6b594be6078d68ac4ecaea46"
    )
