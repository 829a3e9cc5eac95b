"""Shared builders for test scenarios.

Tests construct raw scenario documents (plain dicts of lists) so the same
data can feed both the package and the independent reference evaluators in
reference.py without either side translating the other's types.
"""

from __future__ import annotations

import importlib.util
import math
import sys
from pathlib import Path

import numpy as np
import pytest

import mecsim as ms

REPO_ROOT = Path(__file__).resolve().parents[1]
WALKTHROUGH = REPO_ROOT / "scenarios" / "walkthrough.json"


def make_doc(**overrides):
    """A small well-formed 3-cloud / 2-user / 2-slot scenario document."""
    doc = {
        "num_clouds": 3,
        "num_users": 2,
        "num_slots": 2,
        "bs_capacity": [10.0, 10.0, 10.0],
        "cloud_capacity": [5.0, 5.0, 5.0],
        "service_size": [1.0, 1.0],
        "link_latency": [
            [[0.0, 1.0, 2.0], [1.0, 0.0, 1.0], [2.0, 1.0, 0.0]],
            [[0.0, 1.0, 2.0], [1.0, 0.0, 1.0], [2.0, 1.0, 0.0]],
        ],
        "coverage": [
            [[0, 1, 2], [0, 1, 2]],
            [[0, 1, 2], [0, 1, 2]],
        ],
        "demand": [[1.0, 1.0], [1.0, 1.0]],
    }
    doc.update(overrides)
    return doc


def random_doc(seed, m=3, n=3, slots=1, tight=False):
    """Random single-or-multi-slot document with comfortable capacities.

    ``tight`` shrinks station and storage room so capacity constraints bind;
    either way every document passes validation.
    """
    rng = np.random.default_rng(seed)
    lat = rng.uniform(0.5, 5.0, size=(m, m))
    lat = (lat + lat.T) / 2.0
    np.fill_diagonal(lat, 0.0)
    demand = rng.uniform(0.5, 1.5, size=(slots, n))
    sizes = rng.uniform(0.5, 2.0, size=n)
    if tight:
        bs = rng.uniform(1.2, 2.0, size=m) * demand.sum(axis=1).max()
        st = rng.uniform(1.2, 1.6, size=m) * sizes.max()
    else:
        bs = rng.uniform(1.6, 2.5, size=m) * demand.sum(axis=1).max()
        st = rng.uniform(1.2, 2.0, size=m) * sizes.sum()
    coverage = []
    for _ in range(slots):
        per_user = []
        for _ in range(n):
            size = int(rng.integers(2, m + 1)) if m > 1 else 1
            per_user.append(sorted(rng.choice(m, size=size, replace=False).tolist()))
        coverage.append(per_user)
    return {
        "num_clouds": m,
        "num_users": n,
        "num_slots": slots,
        "bs_capacity": bs.tolist(),
        "cloud_capacity": st.tolist(),
        "service_size": sizes.tolist(),
        "link_latency": np.tile(lat, (slots, 1, 1)).tolist(),
        "coverage": coverage,
        "demand": demand.tolist(),
    }


def moderate_doc(seed, m=3, n=3):
    """Random instance family of the acceptance sandwich sweep (criterion 3).

    ``seed`` is anything ``np.random.default_rng`` takes.
    """
    rng = np.random.default_rng(seed)
    lat = rng.uniform(0.5, 5.0, size=(m, m))
    lat = (lat + lat.T) / 2.0
    np.fill_diagonal(lat, 0.0)
    demand = rng.uniform(0.5, 1.5, size=(1, n))
    sizes = rng.uniform(0.5, 2.0, size=n)
    bs = rng.uniform(1.6, 2.5, size=m) * demand.sum()
    st = rng.uniform(1.2, 2.0, size=m) * sizes.max()
    coverage = [
        sorted(rng.choice(m, size=int(rng.integers(2, m + 1)), replace=False).tolist())
        for _ in range(n)
    ]
    return {
        "num_clouds": m,
        "num_users": n,
        "num_slots": 1,
        "bs_capacity": bs.tolist(),
        "cloud_capacity": st.tolist(),
        "service_size": sizes.tolist(),
        "link_latency": [lat.tolist()],
        "coverage": [coverage],
        "demand": demand.tolist(),
    }


def online_large_scenario():
    """The online-large benchmark scenario: generator seed 0, a 4x4 grid,
    M=16, N=40, 12 slots."""
    return ms.generate(ms.GeneratorConfig(
        seed=0, grid_width=4, grid_height=4, num_users=40, num_slots=12
    ))


def small_horizon_family():
    """The 3x1-grid, 16-slot generator scenarios of seeds 9, 13 and 3 (the
    compare-small seeds) at N=3, 4 and 5."""
    return [
        ms.generate(ms.GeneratorConfig(
            seed=seed, grid_width=3, grid_height=1, num_users=n, num_slots=16
        ))
        for seed in (9, 13, 3)
        for n in (3, 4, 5)
    ]


def raw_decisions(s, t):
    """The bound ``solve_slot`` compares with ``_EXACT_BOUND``: M^N
    placements times the product of the users' coverage sizes at slot t."""
    return s.num_clouds**s.num_users * math.prod(map(len, s.coverage[t]))


def perfbench_workloads():
    """The benchmark's ``perfbench/workloads.py``, loaded as a module once
    per session; tests read its instance builders and workloads."""
    name = "perfbench_workloads"
    if name not in sys.modules:
        path = REPO_ROOT / "perfbench" / "workloads.py"
        spec = importlib.util.spec_from_file_location(name, path)
        module = importlib.util.module_from_spec(spec)
        sys.modules[name] = module  # its dataclasses look their module up
        spec.loader.exec_module(module)
    return sys.modules[name]


@pytest.fixture
def walkthrough_path() -> Path:
    return WALKTHROUGH
