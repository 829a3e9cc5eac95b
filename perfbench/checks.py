"""Smoke checks of the benchmark itself, at tiny sizes.

    python3 -m pytest -q perfbench/checks.py

The file name keeps these checks out of the repository's default test run;
they exercise the benchmark, not mecsim.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
import run  # noqa: E402  (sets the thread variables before NumPy is imported)

sys.path.insert(0, str(run.ROOT / "src"))

import mecsim as ms  # noqa: E402
from tracing import Tracer, public_functions, self_times  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

TINY = {
    "slot-cold-small": {"ops": 2},
    "compare-small": {"ops": 3, "num_slots": 3},
    "online-large": {"ops": 3, "grid": (2, 2), "num_users": 4},
}


def _mecsim_functions() -> dict[tuple[str, str], object]:
    return {
        (name, attr): value
        for name, mod in sys.modules.items()
        if mod is not None and (name == "mecsim" or name.startswith("mecsim."))
        for attr, value in vars(mod).items()
        if callable(value)
    }


@pytest.mark.parametrize("trace", [False, True], ids=["untraced", "traced"])
@pytest.mark.parametrize("name", list(TINY))
def test_each_workload_runs_and_checks_its_outputs(name, trace):
    result = run.run_workload(name, 3, 0.0, trace, overrides=TINY[name], probes=1)
    assert result["correct"], result["details"]["errors"]
    assert result["failed"] == 0 and result["attempted"] >= 1
    want = run.PER_LAYER if trace else run.END_TO_END
    assert list(result["metrics"]) == list(want)
    assert all(math.isfinite(v) for v in result["metrics"].values())
    if not trace:
        for key in ("setup_s", "slots_per_s", "op_p50_ms", "cost_ratio", "total_delay"):
            assert result["metrics"][key] > 0, key


def test_traced_wrappers_do_not_leak_into_untraced_runs():
    before = _mecsim_functions()
    tracer = Tracer()
    with tracer:
        assert ms.solve_slot is not before[("mecsim", "solve_slot")]
        assert ms.optimizer.lp_solve is not before[("mecsim.optimizer", "lp_solve")]
        assert ms.policy.solve_slot is ms.optimizer.solve_slot
    assert _mecsim_functions() == before
    assert all(not hasattr(fn, "__wrapped__") for _, fn in public_functions())

    recorded = len(tracer.spans)
    result = run.run_workload(
        "slot-cold-small", 4, 0.0, False, overrides=TINY["slot-cold-small"], probes=1
    )
    assert result["correct"]
    assert len(tracer.spans) == recorded


def test_layer_self_times_add_up_to_op_wall(tmp_path):
    w = WORKLOADS["online-large"](5, tmp_path, **TINY["online-large"])
    deadline = time.perf_counter() + 60.0
    with Tracer() as tracer:
        w.setup()
        stats = run.run_ops(w, seconds=0.0, deadline=deadline, max_ops=w.ops, tracer=tracer)
    assert stats.failed == 0
    table = self_times(tracer.spans, "op")
    assert set(table) > {"bench", "optimizer", "policy", "delays"}
    assert all(v >= 0.0 for v in table.values())
    assert sum(table.values()) == pytest.approx(sum(stats.durations), rel=1e-9, abs=1e-9)


def test_op_times_are_scaled_by_the_reference_blocks_beside_them(tmp_path):
    from reference import Reference

    w = WORKLOADS["slot-cold-small"](6, tmp_path, **TINY["slot-cold-small"])
    w.setup()
    ref = Reference()
    stats = run.run_ops(w, seconds=0.0, deadline=time.perf_counter() + 60.0, reference=ref)
    assert stats.failed == 0
    assert len(stats.ref_s) == len(stats.scaled) == len(stats.durations) == w.ops
    assert all(r > 0.0 for r in stats.ref_s)
    # op i sits between block i - 1 (block 0 runs before the first op) and block i
    for i in range(1, w.ops):
        beside = (stats.ref_s[i - 1] + stats.ref_s[i]) / 2.0
        assert stats.scaled[i] == pytest.approx(stats.durations[i] * ref.nominal_s / beside)


def test_benchmark_json_matches_the_code():
    doc = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in doc["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in doc["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in doc["per_layer"]} == run.PER_LAYER
    assert [m["name"] for m in doc["end_to_end"]] == list(run.END_TO_END)


def test_outside_a_checkout_it_fails_without_a_result(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    cmd = [sys.executable, "perfbench/run.py", "--workload", "slot-cold-small",
           "--seed", "1", "--seconds", "1", "--trace", "0"]
    proc = subprocess.run(cmd, cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
