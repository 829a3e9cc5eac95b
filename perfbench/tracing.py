"""Span tracing of mecsim's public functions, driven from benchmark code only.

``Tracer.install`` replaces every public function (a plain function named in
``__all__``) of each layer module by a wrapper that records a span, in every
loaded ``mecsim`` module that holds a reference to it, the package itself
included. Because Python resolves a module global at call time, calls made
inside the package go through the wrappers too. ``Tracer.restore`` puts the
original objects back, so an untraced run executes exactly the code it would
without the benchmark. Nothing under ``src/mecsim`` is edited.

A span is a list ``[name, start, end, parent, op, info]``: the function's
``layer.name``, perf_counter stamps, the index of the enclosing span (-1 for
a root), the id of the benchmark op it belongs to, and a small record that a
hook extracts from the call (``None`` for most functions). Roots are opened by
the benchmark itself around each set-up, op and output check, and are named
``bench.setup``, ``bench.op`` and ``bench.check``.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from collections import defaultdict
from typing import Any, Callable

LAYERS = (
    "optimizer",
    "policy",
    "delays",
    "oracle",
    "cli",
    "scenario_io",
    "generator",
    "model",
)
BENCH = "bench"

NAME, START, END, PARENT, OP, INFO = range(6)


def _solve_slot_info(bound: inspect.BoundArguments, result: Any) -> tuple:
    args = bound.arguments
    report = result[2]
    warm = args["warm_start"] is not None
    key = (id(args["s"]), args["t"], args["rng_seed"], args["config"])
    return (warm, key, report.iterations, report.rounding_attempts, report.repair_actions)


def _step_info(bound: inspect.BoundArguments, result: Any) -> bool:
    return bool(result[0].migrated)


def _write_info(bound: inspect.BoundArguments, result: Any) -> int:
    return len(bound.arguments["text"].encode("utf-8"))


# Per-function hooks: what the analysis needs from a call beyond its timing.
HOOKS: dict[str, Callable[[inspect.BoundArguments, Any], Any]] = {
    "optimizer.solve_slot": _solve_slot_info,
    "policy.step": _step_info,
    "scenario_io.write_text_atomic": _write_info,
}


def public_functions() -> list[tuple[str, Callable]]:
    """(``layer.name``, function) for every traced function, in layer order."""
    out = []
    for layer in LAYERS:
        mod = importlib.import_module(f"mecsim.{layer}")
        for attr in mod.__all__:
            fn = getattr(mod, attr)
            if inspect.isfunction(fn) and fn.__module__ == mod.__name__:
                out.append((f"{layer}.{attr}", fn))
    return out


class Tracer:
    """Records spans in memory while installed; see the module docstring."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack: list[int] = [-1]
        self._op = -1
        self._saved: list[tuple[Any, str, Callable]] = []

    # -- installation -----------------------------------------------------

    def install(self) -> "Tracer":
        if self._saved:
            raise RuntimeError("tracer is already installed")
        modules = [
            m
            for name, m in sorted(sys.modules.items())
            if m is not None and (name == "mecsim" or name.startswith("mecsim."))
        ]
        for name, fn in public_functions():
            wrapper = self._wrap(name, fn)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is fn:
                        self._saved.append((mod, attr, fn))
                        setattr(mod, attr, wrapper)
        return self

    def restore(self) -> None:
        while self._saved:
            mod, attr, fn = self._saved.pop()
            setattr(mod, attr, fn)

    def __enter__(self) -> "Tracer":
        return self.install()

    def __exit__(self, *exc: object) -> None:
        self.restore()

    def _wrap(self, name: str, fn: Callable) -> Callable:
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        hook = HOOKS.get(name)
        signature = inspect.signature(fn) if hook is not None else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = [name, clock(), 0.0, stack[-1], self._op, None]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[END] = clock()
                stack.pop()
            if hook is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                span[INFO] = hook(bound, result)
            return result

        return wrapper

    # -- roots opened by the benchmark ------------------------------------

    def begin(self, kind: str, op: int, start: float) -> None:
        if len(self._stack) != 1:
            raise RuntimeError("a benchmark root is already open")
        self._op = op
        self._stack.append(len(self.spans))
        self.spans.append([f"{BENCH}.{kind}", start, 0.0, -1, op, None])

    def end(self, end: float) -> None:
        self.spans[self._stack.pop()][END] = end
        self._op = -1

    def write(self, path) -> None:
        """Spans as CSV: name,start,end,parent,op (times in seconds)."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("name,start,end,parent,op\n")
            for s in self.spans:
                fh.write(f"{s[NAME]},{s[START]!r},{s[END]!r},{s[PARENT]},{s[OP]}\n")


# -- analysis ----------------------------------------------------------------


def _layer(name: str) -> str:
    return name.split(".", 1)[0]


def self_times(spans: list[list], kind: str = "op") -> dict[str, float]:
    """Seconds of self time per layer under ``bench.<kind>`` roots.

    A span's self time is its duration minus the durations of its direct
    children. Summed over every span under the roots, the self times add up
    to the roots' total duration; the ``bench`` row is the remainder, the
    time the benchmark's own code and untraced functions spent in the op.
    """
    child = [0.0] * len(spans)
    root = [0] * len(spans)
    for i, s in enumerate(spans):
        p = s[PARENT]
        root[i] = i if p < 0 else root[p]
        if p >= 0:
            child[p] += s[END] - s[START]
    table: dict[str, float] = defaultdict(float)
    want = f"{BENCH}.{kind}"
    for i, s in enumerate(spans):
        if spans[root[i]][NAME] == want:
            table[_layer(s[NAME])] += (s[END] - s[START]) - child[i]
    return dict(table)


def per_layer_metrics(spans: list[list]) -> dict[str, float]:
    """Every per-layer metric of the benchmark, from one traced run's spans.

    Function counts and busy times cover every root (set-up, ops and
    checks); layer self times cover ops only, so they add up to op wall.
    """
    calls: dict[str, int] = defaultdict(int)
    busy: dict[str, float] = defaultdict(float)
    children: dict[int, list[int]] = defaultdict(list)
    for i, s in enumerate(spans):
        calls[s[NAME]] += 1
        busy[s[NAME]] += s[END] - s[START]
        if s[PARENT] >= 0:
            children[s[PARENT]].append(i)

    # Entries into the delays layer from outside it.
    delays_calls, delays_busy = 0, 0.0
    for s in spans:
        if _layer(s[NAME]) == "delays" and (
            s[PARENT] < 0 or _layer(spans[s[PARENT]][NAME]) != "delays"
        ):
            delays_calls += 1
            delays_busy += s[END] - s[START]

    # solve_slot: cold/warm split, SolverReport counts, duplicate cold solves.
    # A solve that raised has no report and counts only in the call count.
    solves = [
        (i, s) for i, s in enumerate(spans)
        if s[NAME] == "optimizer.solve_slot" and s[INFO] is not None
    ]
    cold_ms = [1e3 * (s[END] - s[START]) for _, s in solves if not s[INFO][0]]
    warm_ms = [1e3 * (s[END] - s[START]) for _, s in solves if s[INFO][0]]
    seen: set = set()
    duplicates = 0
    for _, s in solves:
        warm, key = s[INFO][0], s[INFO][1]
        if not warm:
            if (s[OP], key) in seen:
                duplicates += 1
            seen.add((s[OP], key))
    n_solves = len(solves)

    # The discrete search won when a descent ran after its roundings.
    fractional = [i for i, s in enumerate(spans) if s[NAME] == "optimizer.solve_fractional"]
    wins = 0
    for i in fractional:
        names = [spans[c][NAME] for c in children[i]]
        if "optimizer.round_decision" in names:
            last = len(names) - 1 - names[::-1].index("optimizer.round_decision")
            if "optimizer.objective_gradient" in names[last:]:
                wins += 1

    # Candidate solves are the solves step makes; adopted ones migrated.
    steps = [i for i, s in enumerate(spans) if s[NAME] == "policy.step"]
    candidates = sum(
        1 for i in steps for c in children[i] if spans[c][NAME] == "optimizer.solve_slot"
    )
    adopted = sum(1 for i in steps if spans[i][INFO])

    layer_self = self_times(spans, "op")
    op_wall = sum(s[END] - s[START] for s in spans if s[NAME] == f"{BENCH}.op")

    def mean(values: list[float]) -> float:
        return sum(values) / len(values) if values else 0.0

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    lp_calls = calls["optimizer.lp_solve"]
    m = {
        "optimizer.lp_solve.calls": lp_calls,
        "optimizer.lp_solve.busy_s": busy["optimizer.lp_solve"],
        "optimizer.lp_solve.us_per_call": 1e6 * ratio(busy["optimizer.lp_solve"], lp_calls),
        "optimizer.solve_fractional.self_s": sum(
            (spans[i][END] - spans[i][START])
            - sum(spans[c][END] - spans[c][START] for c in children[i])
            for i in fractional
        ),
        "optimizer.objective.calls": calls["optimizer.objective"],
        "optimizer.objective.busy_s": busy["optimizer.objective"],
        "optimizer.objective_gradient.calls": calls["optimizer.objective_gradient"],
        "optimizer.objective_gradient.busy_s": busy["optimizer.objective_gradient"],
        "optimizer.round_decision.calls": calls["optimizer.round_decision"],
        "optimizer.round_decision.busy_s": busy["optimizer.round_decision"],
        "optimizer.solve_slot.calls": calls["optimizer.solve_slot"],
        "optimizer.solve_slot.cold_ms_mean": mean(cold_ms),
        "optimizer.solve_slot.warm_ms_mean": mean(warm_ms),
        "optimizer.fw_iterations_per_solve": ratio(sum(s[INFO][2] for _, s in solves), n_solves),
        "optimizer.search_win_ratio": ratio(wins, len(fractional)),
        "optimizer.rounding_first_draw_ratio": ratio(
            sum(1 for _, s in solves if s[INFO][3] == 1), n_solves
        ),
        "optimizer.repair_actions": sum(s[INFO][4] for _, s in solves),
        "delays.calls": delays_calls,
        "delays.busy_s": delays_busy,
        "policy.duplicate_cold_solves": duplicates,
        "policy.candidate_adopted_ratio": ratio(adopted, candidates),
        "policy.step.busy_s": busy["policy.step"],
        "policy.initial_slot.busy_s": busy["policy.initial_slot"],
        "oracle.offline_optimal.calls": calls["oracle.offline_optimal"],
        "oracle.offline_optimal.busy_s": busy["oracle.offline_optimal"],
        "oracle.best_slot_decision.busy_s": busy["oracle.best_slot_decision"],
        "scenario_io.write_text_atomic.calls": calls["scenario_io.write_text_atomic"],
        "scenario_io.write_text_atomic.busy_s": busy["scenario_io.write_text_atomic"],
        "scenario_io.write_text_atomic.bytes": sum(
            s[INFO] or 0 for s in spans if s[NAME] == "scenario_io.write_text_atomic"
        ),
        "scenario_io.load_scenario.busy_s": busy["scenario_io.load_scenario"],
        "generator.generate.busy_s": busy["generator.generate"],
        "trace.op_wall_s": op_wall,
    }
    for layer in (BENCH,) + LAYERS:
        m[f"{layer}.self_s"] = layer_self.get(layer, 0.0)
    return m
