"""The benchmark's workloads run and pass their own output checks.

``perfbench/workloads.py`` drives the package through public names
(``solve_slot`` with ``rng_seed``, ``seeding.ROUNDING``, ``initial_slot``,
``step``, ``cli.main``); a change that drops one of them breaks the
benchmark, and this test catches it in the default run. Each workload is
also pinned to the solver path it times: a change to one path moves only
the workloads that run it.
"""

from __future__ import annotations

import pytest

import mecsim as ms
from conftest import perfbench_workloads, raw_decisions
from mecsim.optimizer import _EXACT_BOUND, _SlotTables

WORKLOADS = perfbench_workloads().WORKLOADS


@pytest.mark.parametrize(
    "name, ops",
    # online-large's op 1 is a step from op 0's state
    [("slot-cold-small", 1), ("compare-small", 1), ("online-large", 2)],
)
def test_workload_ops_pass_their_checks(tmp_path, name, ops):
    workload = WORKLOADS[name](seed=1, workdir=tmp_path)
    workload.setup()
    for i in range(ops):
        inp = workload.input(i)
        checked = workload.check(inp, workload.run(inp))
        assert checked.ok, (name, i, checked.reason)


def test_each_workload_times_the_solver_path_it_is_meant_to(tmp_path):
    # slot-cold-small and compare-small solve only slots the enumeration
    # takes; online-large only slots the search takes, with neither the
    # full two-user rescan nor the three-user rotations
    cold = WORKLOADS["slot-cold-small"](seed=1, workdir=tmp_path / "cold")
    cold.setup()
    assert cold.ops == 48
    for i in range(cold.ops):
        s, _ = cold.input(i)
        assert raw_decisions(s, 0) <= _EXACT_BOUND, i

    compare = WORKLOADS["compare-small"](seed=1, workdir=tmp_path / "compare")
    compare.setup()
    for i in range(compare.cycle):
        s = ms.load_scenario(compare.input(i)[1])
        for t in range(s.num_slots):
            assert raw_decisions(s, t) <= _EXACT_BOUND, (i, t)

    large = WORKLOADS["online-large"](seed=1, workdir=tmp_path / "large")
    large.setup()
    for i in range(large.ops):
        s, t, _ = large.input(i)
        assert raw_decisions(s, t) > _EXACT_BOUND, t
        tables = _SlotTables(s, t, ms.DEFAULT_CONFIG.margin)
        assert not (tables.scan_pairs or tables.rotations), t
