"""mecsim benchmark: run one workload and print its metrics.

    python3 perfbench/run.py --workload slot-cold-small --seed 1 --seconds 20 --trace 0

Run from a checkout of the repository; the package is imported from its
``src`` directory. With ``--trace 0`` the workload runs closed loop, untraced,
for ``--seconds`` (and at least its fixed op count) and the end-to-end
metrics are reported, with each op's time scaled to a nominal machine speed
by the reference blocks run beside it (see ``reference.py``). With
``--trace 1`` the fixed op count runs once untraced and is then replayed
with every public mecsim function wrapped (see ``tracing.py``), and the
per-layer metrics are reported together with the tracing overhead. Every
op's output is checked, outside the op timer.

Human-readable lines come first; the last line of standard output is one
JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``. Details (environment, every metric, self-time tables) go to
``.bench_out/results/`` and the spans of a traced run to
``.bench_out/spans/``. METRICS.md defines every metric.
"""

from __future__ import annotations

import os
import time

T_START = time.perf_counter()

# One thread per BLAS/OpenMP pool, set before NumPy is imported, so the
# process uses one core and the load fits a 2-core machine.
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parents[1]
OUT = ROOT / ".bench_out"
DEADLINE_S = 140.0   # no op starts later than this after a run begins
SETUP_PROBES = 3

# name -> unit; BENCHMARK.json carries the same names with direction and bound.
END_TO_END = {
    "setup_s": "s",
    "slots_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_tail_ms": "ms",
    "peak_rss_mb": "MiB",
    "ok_frac": "ratio",
    "cost_ratio": "ratio",
    "total_delay": "delay",
}
PER_LAYER = {
    "optimizer.lp_solve.calls": "count",
    "optimizer.lp_solve.busy_s": "s",
    "optimizer.lp_solve.us_per_call": "us",
    "optimizer.solve_fractional.self_s": "s",
    "optimizer.objective.calls": "count",
    "optimizer.objective.busy_s": "s",
    "optimizer.objective_gradient.calls": "count",
    "optimizer.objective_gradient.busy_s": "s",
    "optimizer.round_decision.calls": "count",
    "optimizer.round_decision.busy_s": "s",
    "optimizer.solve_slot.calls": "count",
    "optimizer.solve_slot.cold_ms_mean": "ms",
    "optimizer.solve_slot.warm_ms_mean": "ms",
    "optimizer.fw_iterations_per_solve": "count",
    "optimizer.search_win_ratio": "ratio",
    "optimizer.rounding_first_draw_ratio": "ratio",
    "optimizer.repair_actions": "count",
    "delays.calls": "count",
    "delays.busy_s": "s",
    "policy.duplicate_cold_solves": "count",
    "policy.candidate_adopted_ratio": "ratio",
    "policy.step.busy_s": "s",
    "policy.initial_slot.busy_s": "s",
    "oracle.offline_optimal.calls": "count",
    "oracle.offline_optimal.busy_s": "s",
    "oracle.best_slot_decision.busy_s": "s",
    "scenario_io.write_text_atomic.calls": "count",
    "scenario_io.write_text_atomic.busy_s": "s",
    "scenario_io.write_text_atomic.bytes": "bytes",
    "scenario_io.load_scenario.busy_s": "s",
    "generator.generate.busy_s": "s",
    "bench.self_s": "s",
    "optimizer.self_s": "s",
    "policy.self_s": "s",
    "delays.self_s": "s",
    "oracle.self_s": "s",
    "cli.self_s": "s",
    "scenario_io.self_s": "s",
    "generator.self_s": "s",
    "model.self_s": "s",
    "trace.op_wall_s": "s",
    "trace.untraced_slots_per_s": "1/s",
    "trace.traced_slots_per_s": "1/s",
    "trace.overhead_frac": "ratio",
}


def tail_percentile(ops: int) -> int:
    """Highest whole percentile with at least ten of ``ops`` samples above it.

    Never below the median: with fewer than twenty samples the tail is p50.
    """
    return max(50, math.floor(100 * (1 - 10 / ops)))


@dataclass
class OpStats:
    durations: list[float] = field(default_factory=list)  # seconds, completed ops
    scaled: list[float] = field(default_factory=list)     # the same at reference speed
    ref_s: list[float] = field(default_factory=list)      # reference blocks, seconds
    slots: int = 0
    attempted: int = 0
    failed: int = 0
    records: list = field(default_factory=list)            # per attempted op
    fingerprints: list[str] = field(default_factory=list)  # per attempted op
    errors: list[str] = field(default_factory=list)


def run_ops(
    w, *, seconds: float, deadline: float, max_ops: int | None = None, tracer=None,
    reference=None,
) -> OpStats:
    """Closed loop over ``w``'s ops, each timed alone and checked after.

    Runs at least ``w.ops`` ops and until ``seconds`` have passed, ending on
    a whole cycle of the workload's inputs; ``max_ops`` caps the count and
    no op starts after the perf_counter time ``deadline``. With a
    ``reference``, a reference block runs before the first op and right
    after each op, and each completed op's time is also recorded scaled by
    ``REF_MS`` over the mean of the two blocks beside it.
    """
    clock = time.perf_counter
    stats = OpStats()
    ref_before = reference.block() if reference is not None else 0.0
    begin = clock()
    i = 0
    while True:
        if max_ops is not None and i >= max_ops:
            break
        if i >= w.ops and i % w.cycle == 0 and clock() - begin >= seconds:
            break
        if clock() >= deadline:
            stats.errors.append(f"deadline reached after {i} ops")
            break
        inp = w.input(i)
        out, error = None, None
        start = clock()
        if tracer is not None:
            tracer.begin("op", i, start)
        try:
            out = w.run(inp)
        except Exception:  # an op that raises is counted as failed
            error = traceback.format_exc()
        end = clock()
        ref_after = reference.block() if reference is not None else 0.0
        if tracer is not None:
            tracer.end(end)
            tracer.begin("check", i, clock())
        try:
            checked = None if error else w.check(inp, out)
        except Exception:
            checked, error = None, traceback.format_exc()
        if tracer is not None:
            tracer.end(clock())
        stats.attempted += 1
        if error is None:
            stats.durations.append(end - start)
            stats.slots += w.slots_per_op
        if reference is not None:
            stats.ref_s.append(ref_after)
            if error is None:
                speed = reference.nominal_s / ((ref_before + ref_after) / 2.0)
                stats.scaled.append((end - start) * speed)
            ref_before = ref_after
        if checked is None or not checked.ok:
            stats.failed += 1
            stats.errors.append(f"op {i}: {error or checked.reason}")
        stats.records.append(checked.record if checked is not None else None)
        stats.fingerprints.append(checked.fingerprint if checked is not None else "")
        i += 1
    return stats


def code_digest() -> str:
    """sha256 over the package sources and the benchmark's own code."""
    h = hashlib.sha256()
    files = sorted(
        p for p in (ROOT / "src" / "mecsim").rglob("*")
        if p.is_file() and "__pycache__" not in p.parts
    )
    files += sorted(Path(__file__).parent.glob("*.py"))
    for p in files:
        h.update(str(p.relative_to(ROOT)).encode())
        h.update(p.read_bytes())
    return h.hexdigest()


def environment(loadavg: str) -> dict:
    import numpy
    import scipy

    return {
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "loadavg_at_start": loadavg,
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
    }


def read_loadavg() -> str:
    try:
        return " ".join(Path("/proc/loadavg").read_text().split()[:3])
    except OSError:
        return "unavailable"


def measure_setup(name: str, seed: int, probes: int) -> list[float]:
    """Seconds from process start to the end of set-up, in fresh processes.

    Each probe is this script with ``--setup-probe``: it imports, sets the
    workload up and prints ``ready``; the time to that line is one sample.
    """
    samples = []
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
           "--workload", name, "--seed", str(seed)]
    for _ in range(probes):
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT)
        try:
            line = proc.stdout.readline().strip()
            samples.append(time.perf_counter() - start)
            proc.stdout.read()
        finally:
            proc.stdout.close()
            rc = proc.wait(timeout=60)
        if line != "ready" or rc != 0:
            raise RuntimeError(f"set-up probe failed (exit {rc}, said {line!r})")
    return samples


def quality_is_repeatable(name: str, seed: int, overrides: dict, quality: dict) -> bool:
    """False when an earlier run of the same code and inputs got other values.

    The quality metrics are deterministic per seed, so they are recorded per
    (workload, sizes, seed, code digest) and must match exactly on reruns.
    """
    key = hashlib.sha256(
        (code_digest() + json.dumps(overrides, sort_keys=True)).encode()
    ).hexdigest()[:16]
    path = OUT / "quality" / f"{name}-seed{seed}-{key}.json"
    path.parent.mkdir(parents=True, exist_ok=True)
    if path.exists():
        return json.loads(path.read_text()) == quality
    path.write_text(json.dumps(quality, sort_keys=True))
    return True


def run_workload(
    name: str,
    seed: int,
    seconds: float,
    trace: bool,
    overrides: dict | None = None,
    probes: int = SETUP_PROBES,
) -> dict:
    """Run one workload; return the result line's fields plus details."""
    from workloads import WORKLOADS

    loadavg = read_loadavg()
    deadline = time.perf_counter() + DEADLINE_S
    overrides = overrides or {}
    workdir = OUT / f"work-{name}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    try:
        w = WORKLOADS[name](seed, workdir / "a", **overrides)
        w.setup()
        setup_in_process = time.perf_counter() - T_START
        if trace:
            result = _traced(name, seed, w, workdir, overrides, deadline)
        else:
            result = _untraced(name, seed, w, overrides, seconds, probes, deadline)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    result["details"]["setup_in_process_s"] = setup_in_process
    result["details"]["workload"] = name
    result["details"]["seed"] = seed
    result["env"] = environment(loadavg)
    return result


def _untraced(
    name: str, seed: int, w, overrides: dict, seconds: float, probes: int, deadline: float
) -> dict:
    from reference import REF_MS, Reference

    reference = Reference()
    stats = run_ops(w, seconds=seconds, deadline=deadline, reference=reference)
    setup = measure_setup(name, seed, probes)
    # A probe lasts under a second in another process, too short for the
    # blocks beside it to gauge; the run's median block gives the speed.
    setup_speed = reference.nominal_s / statistics.median(stats.ref_s)
    ms_ = sorted(1e3 * d for d in stats.scaled)
    raw_ms = sorted(1e3 * d for d in stats.durations)
    pct = tail_percentile(w.ops)
    records = stats.records[: w.ops]
    complete = len(records) == w.ops and all(r is not None for r in records)
    quality = w.quality(records) if complete else {}
    repeatable = complete and quality_is_repeatable(name, seed, overrides, quality)
    metrics = {
        "setup_s": statistics.median(setup) * setup_speed,
        "slots_per_s": stats.slots / sum(stats.scaled) if stats.scaled else 0.0,
        "op_p50_ms": _percentile(ms_, 50),
        "op_tail_ms": _percentile(ms_, pct),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "ok_frac": (stats.attempted - stats.failed) / max(stats.attempted, 1),
        # 0.0 only when the quality prefix is incomplete, which fails the run
        "cost_ratio": quality.get("cost_ratio", 0.0),
        "total_delay": quality.get("total_delay", 0.0),
    }
    errors = list(stats.errors)
    if not complete:
        errors.append(f"quality prefix of {w.ops} ops incomplete")
    elif not repeatable:
        errors.append("quality metrics differ from an earlier run of this code and seed")
    return {
        "correct": stats.failed == 0 and complete and repeatable,
        "attempted": stats.attempted,
        "failed": stats.failed,
        "metrics": metrics,
        "details": {
            "ops": stats.attempted,
            "tail_percentile": pct,
            "tail_samples": len(ms_),
            "op_ms": [1e3 * d for d in stats.durations],
            "op_scaled_ms": [1e3 * d for d in stats.scaled],
            "ref_block_ms": [1e3 * r for r in stats.ref_s],
            "ref_nominal_ms": REF_MS,
            "raw": {
                "setup_s": statistics.median(setup),
                "slots_per_s": stats.slots / sum(stats.durations) if stats.durations else 0.0,
                "op_p50_ms": _percentile(raw_ms, 50),
                "op_tail_ms": _percentile(raw_ms, pct),
            },
            "failed_frac": stats.failed / max(stats.attempted, 1),
            "quality": quality,
            "setup_samples_s": setup,
            "errors": errors,
        },
    }


def _traced(
    name: str, seed: int, w, workdir: Path, overrides: dict, deadline: float
) -> dict:
    from tracing import Tracer, per_layer_metrics, self_times
    from workloads import WORKLOADS

    clock = time.perf_counter
    plain = run_ops(w, seconds=0.0, deadline=deadline, max_ops=w.ops)
    tracer = Tracer()
    with tracer:
        w2 = WORKLOADS[name](seed, workdir / "b", **overrides)
        tracer.begin("setup", -1, clock())
        w2.setup()
        tracer.end(clock())
        traced = run_ops(w2, seconds=0.0, deadline=deadline, max_ops=w.ops, tracer=tracer)
    spans_path = OUT / "spans" / f"{name}-seed{seed}.csv"
    spans_path.parent.mkdir(parents=True, exist_ok=True)
    tracer.write(spans_path)

    metrics = per_layer_metrics(tracer.spans)
    untraced_rate = plain.slots / sum(plain.durations) if plain.durations else 0.0
    traced_rate = traced.slots / sum(traced.durations) if traced.durations else 0.0
    metrics["trace.untraced_slots_per_s"] = untraced_rate
    metrics["trace.traced_slots_per_s"] = traced_rate
    metrics["trace.overhead_frac"] = untraced_rate / traced_rate - 1.0 if traced_rate else 0.0

    errors = plain.errors + traced.errors
    same = plain.fingerprints == traced.fingerprints
    if not same:
        errors.append("traced replay produced other outputs than the untraced run")
    return {
        "correct": plain.failed == 0 and traced.failed == 0 and same,
        "attempted": plain.attempted + traced.attempted,
        "failed": plain.failed + traced.failed,
        "metrics": {k: metrics[k] for k in PER_LAYER},
        "details": {
            "ops": w.ops,
            "self_s": {kind: self_times(tracer.spans, kind) for kind in ("op", "check", "setup")},
            "spans": len(tracer.spans),
            "spans_file": str(spans_path.relative_to(ROOT)),
            "errors": errors,
        },
    }


def _percentile(sorted_values: list[float], pct: float) -> float:
    if not sorted_values:
        return 0.0
    import numpy

    return float(numpy.percentile(sorted_values, pct))


def print_report(result: dict, trace: bool) -> None:
    d = result["details"]
    print(f"workload {d['workload']}  seed {d['seed']}  trace {int(trace)}")
    print("env " + json.dumps(result["env"], sort_keys=True))
    units = PER_LAYER if trace else END_TO_END
    for key, value in result["metrics"].items():
        print(f"  {key:40s} {value:>16.6g} {units[key]}")
    if trace:
        for kind, table in d["self_s"].items():
            total = sum(table.values())
            print(f"self time under bench.{kind} roots ({total:.4f} s):")
            for layer, secs in sorted(table.items(), key=lambda kv: -kv[1]):
                print(f"  {layer:14s} {secs:10.4f} s  {100 * secs / total if total else 0:5.1f}%")
    else:
        print(f"  tail is p{d['tail_percentile']} over {d['tail_samples']} ops; "
              f"failed_frac {d['failed_frac']:.4g}")
        ref_ms = d["ref_block_ms"]
        print(f"  times above are at reference speed ({d['ref_nominal_ms']:g} ms a block); "
              f"measured blocks: median {statistics.median(ref_ms) if ref_ms else 0.0:.4g} ms")
        for key, value in d["raw"].items():
            print(f"  raw {key:36s} {value:>16.6g} {END_TO_END[key]}")
        for key, value in sorted(d["quality"].items()):
            print(f"  {key:40s} {value:>16.10g}")
    for error in d["errors"][:5]:
        print(f"  error: {error.strip().splitlines()[-1]}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "mecsim" / "__init__.py").is_file():
        print(f"error: no mecsim sources under {ROOT / 'src'}; run from a "
              "checkout of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import mecsim

    if Path(mecsim.__file__).resolve().parent != ROOT / "src" / "mecsim":
        print(f"error: imported mecsim from {mecsim.__file__}", file=sys.stderr)
        return 2
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    if args.seed < 0:
        print("error: --seed must be nonnegative", file=sys.stderr)
        return 2

    if args.setup_probe:
        workdir = OUT / f"probe-{os.getpid()}"
        try:
            WORKLOADS[args.workload](args.seed, workdir).setup()
            print("ready", flush=True)
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        return 0

    result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    results = OUT / "results"
    results.mkdir(parents=True, exist_ok=True)
    path = results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(result, indent=1, sort_keys=True, default=str) + "\n")
    print_report(result, bool(args.trace))
    units = PER_LAYER if args.trace else END_TO_END
    line = {
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in result["metrics"].items()},
    }
    print(json.dumps(line, allow_nan=False))
    return 0


if __name__ == "__main__":
    sys.exit(main())
