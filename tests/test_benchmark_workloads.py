"""The benchmark's workloads run and pass their own output checks.

``perfbench/workloads.py`` drives the package through public names
(``solve_slot`` with ``rng_seed``, ``seeding.ROUNDING``, ``initial_slot``,
``step``, ``cli.main``); a change that drops one of them breaks the
benchmark, and this test catches it in the default run.
"""

from __future__ import annotations

import pytest

from conftest import perfbench_workloads

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
