"""Opt-in size sweep: cold and warm slot time and the per-layer split by size.

    python3 perfbench/sweep.py

For each (M, N) in ``SIZES`` the ``online-large`` workload runs once over
``WARM_SLOTS`` + 1 slots on a grid of M stations (3x1, 2x2, 3x3, 4x4, ...) with N users: slot 0
is solved cold by ``initial_slot``, the rest warm by ``step`` (threshold,
beta=1), all traced and checked. It prints cold ms, mean warm ms per slot and
each layer's share of the slot time, and writes the same to
``.bench_out/sweep.json``. It is not one of the gated workloads; the largest
size takes about a minute.
"""

from __future__ import annotations

import json
import math
import shutil
import sys
import time

import run  # sets the thread variables before NumPy is imported

SIZES = ((3, 3), (4, 10), (9, 20), (16, 40), (16, 60))  # (M, N)
WARM_SLOTS = 3
SEED = 0


def grid_for(m: int) -> tuple[int, int]:
    """The most square w x h grid with w * h == m, w >= h."""
    h = max(d for d in range(1, math.isqrt(m) + 1) if m % d == 0)
    return m // h, h


def sweep_point(m: int, n: int, warm: int, seed: int) -> dict:
    from tracing import Tracer, self_times
    from workloads import OnlineLarge

    workdir = run.OUT / "sweep-work"
    w = OnlineLarge(seed, workdir, ops=warm + 1, grid=grid_for(m), num_users=n)
    try:
        w.setup()
        with Tracer() as tracer:
            stats = run.run_ops(
                w, seconds=0.0, deadline=time.perf_counter() + 3600.0,
                max_ops=w.ops, tracer=tracer,
            )
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if stats.failed:
        raise RuntimeError(f"M={m} N={n}: {stats.errors}")
    split = self_times(tracer.spans, "op")
    total = sum(split.values())
    ms_ = [1e3 * d for d in stats.durations]
    return {
        "M": m,
        "N": n,
        "grid": "x".join(map(str, grid_for(m))),
        "cold_ms": ms_[0],
        "warm_ms_per_slot": sum(ms_[1:]) / warm if warm else 0.0,
        "layer_share": {k: v / total for k, v in sorted(split.items())},
    }


def main() -> int:
    sys.path.insert(0, str(run.ROOT / "src"))

    points = []
    for m, n in SIZES:
        p = sweep_point(m, n, WARM_SLOTS, SEED)
        points.append(p)
        shares = "  ".join(
            f"{k} {100 * v:.0f}%" for k, v in p["layer_share"].items() if v >= 0.005
        )
        print(f"M={m:3d} N={n:3d} ({p['grid']}): cold {p['cold_ms']:9.1f} ms  "
              f"warm {p['warm_ms_per_slot']:9.1f} ms/slot  | {shares}", flush=True)
    out = run.OUT / "sweep.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    doc = {"env": run.environment(run.read_loadavg()), "warm_slots": WARM_SLOTS,
           "seed": SEED, "points": points}
    out.write_text(json.dumps(doc, indent=1) + "\n")
    print(f"wrote {out.relative_to(run.ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
