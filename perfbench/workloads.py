"""The benchmark's workloads: inputs from a seed, one op, and its output check.

Every workload is a closed loop: the next op starts when the previous one
has returned. ``input(i)`` is a pure function of the workload's seed and
``i`` (cached after the first call), ``run`` is the only code inside the op
timer, and ``check`` verifies the op's output outside the timer and returns
the record the quality metrics are computed from.

``ops`` is the workload's fixed op count. It is the prefix the quality
metrics are computed over (so they are deterministic per seed), the number
of ops a traced run replays, and the sample count the tail percentile is
chosen for.

The program is reached through module attributes (``ms.solve_slot``,
``ms.cli.main``) looked up at call time, so a traced run sees every call.
"""

from __future__ import annotations

import contextlib
import csv
import io
import math
import shutil
from dataclasses import dataclass
from pathlib import Path
from typing import Any

import numpy as np

import mecsim as ms
import mecsim.cli  # noqa: F401  (makes ``ms.cli`` available)
from mecsim.seeding import ROUNDING, substream_seed

MARGIN = ms.DEFAULT_CONFIG.margin


def child_seed(*keys: int) -> int:
    """A nonnegative 31-bit seed derived from the keys."""
    seq = np.random.SeedSequence([int(k) for k in keys])
    return int(seq.generate_state(1)[0] >> 1)


@dataclass(frozen=True)
class Checked:
    ok: bool
    record: Any          # input to ``quality``; None when the output has no value
    fingerprint: str     # exact rendering of the output, for rerun comparison
    reason: str = ""


class Workload:
    name = ""
    ops = 1
    slots_per_op = 1
    cycle = 1  # inputs repeat with this period; a run times whole periods

    def __init__(self, seed: int, workdir: Path) -> None:
        self.seed = seed
        self.workdir = Path(workdir)
        self._inputs: dict[int, Any] = {}

    def setup(self) -> None:
        """Materialise the inputs of the fixed op count."""
        self.workdir.mkdir(parents=True, exist_ok=True)
        for i in range(self.ops):
            self.input(i)

    def input(self, i: int) -> Any:
        if i not in self._inputs:
            self._inputs[i] = self._make_input(i)
        return self._inputs[i]

    def _make_input(self, i: int) -> Any:
        raise NotImplementedError

    def run(self, inp: Any) -> Any:
        raise NotImplementedError

    def check(self, inp: Any, out: Any) -> Checked:
        raise NotImplementedError

    def quality(self, records: list) -> dict[str, float]:
        raise NotImplementedError


def sandwich_doc(rng: np.random.Generator, m: int = 3, n: int = 3) -> dict:
    """One single-slot instance of the relaxation-sandwich family.

    Symmetric latencies with a zero diagonal, generous station capacity and
    tight storage: each cloud holds between 1.2 and 2 of the largest service.
    """
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


class SlotColdSmall(Workload):
    """Cold ``solve_slot`` on M=3, N=3 tight-storage instances.

    Op i solves instance i of a fixed sequence (drawn from ``INSTANCE_SEED``)
    and the ops cycle over the first ``ops`` of them; the benchmark seed sets
    every op's rounding seed. Solve time differs severalfold between
    instances, and with instances drawn from the seed the run-to-run spread
    of the medians was twice that of reruns of one seed (METRICS.md).
    """

    name = "slot-cold-small"
    INSTANCE_SEED = 0

    def __init__(self, seed: int, workdir: Path, ops: int = 48) -> None:
        super().__init__(seed, workdir)
        self.ops = self.cycle = ops

    def _make_input(self, i: int) -> tuple:
        k = i % self.ops
        rng = np.random.default_rng([self.INSTANCE_SEED, k])
        s = ms.validate_scenario(sandwich_doc(rng))
        return s, child_seed(self.seed, k)

    def run(self, inp: tuple) -> tuple:
        s, rng_seed = inp
        return ms.solve_slot(s, 0, rng_seed=rng_seed)

    def check(self, inp: tuple, out: tuple) -> Checked:
        s, _ = inp
        decision, _, report = out
        m = s.num_clouds
        rounded = ms.non_switching_delay(
            s, 0, decision.placement_matrix(m), decision.selection_matrix(m)
        )
        _, exact = ms.best_slot_decision(s, 0, margin=MARGIN)
        fingerprint = repr((decision.placement, decision.selection, report.objective, rounded))
        record = (rounded, exact)
        if not ms.decision_feasible(s, 0, decision, MARGIN):
            return Checked(False, record, fingerprint, "rounded decision infeasible")
        if report.objective > exact + 1e-3:
            return Checked(
                False, record, fingerprint,
                f"fractional {report.objective!r} above the exact optimum {float(exact)!r} + 1e-3",
            )
        if exact > rounded + 1e-9:
            return Checked(False, record, fingerprint, "rounded below the exact optimum")
        return Checked(True, record, fingerprint)

    def quality(self, records: list) -> dict[str, float]:
        gaps = [(rounded - exact) / exact for rounded, exact in records]
        return {
            "opt_gap_mean": sum(gaps) / len(gaps),
            "cost_ratio": sum(rounded / exact for rounded, exact in records) / len(records),
            "total_delay": sum(rounded for rounded, _ in records),
        }


COMPARE_ROWS = (
    ("threshold", "0.0"),
    ("threshold", "1.0"),
    ("threshold", "inf"),
    ("always", ""),
    ("never", ""),
    ("oracle", ""),
)


class CompareSmall(Workload):
    """In-process ``mecsim compare --beta 0,1,inf`` on 3x1-grid scenarios.

    The scenarios are a fixed set generated and written in set-up
    (generator seeds ``SCENARIO_SEEDS``, N=3, 16 slots) and visited in turn;
    the benchmark seed sets compare's run seed for every op. Compare time
    differs sixfold between scenarios of this family, so a run of six
    compares on seed-drawn scenarios would measure the draw, not the code.
    The three members sit at the 1/6, 1/2 and 5/6 quantiles of the compare
    times measured on generator seeds 0-19 (METRICS.md), cheapest first.
    With three scenarios and whole cycles, the median op is the middle
    scenario's, not the midpoint between two scenarios.
    """

    name = "compare-small"
    SCENARIO_SEEDS = (9, 13, 3)

    def __init__(
        self, seed: int, workdir: Path, ops: int = 6, num_slots: int = 16
    ) -> None:
        super().__init__(seed, workdir)
        self.ops = ops
        self.num_slots = num_slots
        self.slots_per_op = len(COMPARE_ROWS) * num_slots
        self.cycle = len(self.SCENARIO_SEEDS)

    def setup(self) -> None:
        self.workdir.mkdir(parents=True, exist_ok=True)
        for k, gen_seed in enumerate(self.SCENARIO_SEEDS):
            cfg = ms.GeneratorConfig(
                seed=gen_seed, grid_width=3, grid_height=1,
                num_users=3, num_slots=self.num_slots,
            )
            ms.save_scenario(ms.generate(cfg), self.workdir / f"scenario{k}.json")
        super().setup()

    def _make_input(self, i: int) -> tuple:
        k = i % self.cycle
        return i, self.workdir / f"scenario{k}.json", child_seed(self.seed, i)

    def run(self, inp: tuple) -> tuple:
        i, scenario, run_seed = inp
        out_dir = self.workdir / f"out{i}"
        argv = [
            "compare", "--scenario", str(scenario), "--beta", "0,1,inf",
            "--seed", str(run_seed), "--out", str(out_dir),
        ]
        with contextlib.redirect_stdout(io.StringIO()):
            rc = ms.cli.main(argv)
        return rc, out_dir

    def check(self, inp: tuple, out: tuple) -> Checked:
        rc, out_dir = out
        try:
            if rc != 0:
                return Checked(False, None, "", f"compare exited with {rc}")
            text = (out_dir / "comparison.csv").read_text(encoding="utf-8")
        finally:
            shutil.rmtree(out_dir, ignore_errors=True)
        rows = list(csv.DictReader(io.StringIO(text)))
        if [(r["policy"], r["beta"]) for r in rows] != list(COMPARE_ROWS):
            return Checked(False, None, text, "comparison.csv rows are incomplete")
        totals = [float(r["total"]) for r in rows]
        if not all(math.isfinite(v) for v in totals):
            return Checked(False, None, text, "non-finite total")
        dp = totals[-1]
        online = totals[:-1]
        if any(dp > v + 1e-9 * max(1.0, abs(v)) for v in online):
            return Checked(False, (online, dp), text, "offline DP above a policy total")
        return Checked(True, (online, dp), text)

    def quality(self, records: list) -> dict[str, float]:
        ratios = [v / dp for online, dp in records for v in online]
        mean_ratio = sum(ratios) / len(ratios)
        return {
            "competitive_ratio_mean": mean_ratio,
            "cost_ratio": mean_ratio,
            "total_delay": sum(v for online, _ in records for v in online),
        }


def slot_lower_bound(s: ms.Scenario, t: int) -> float:
    """A lower bound on any decision's slot-t non-switching delay.

    A user on station j raises j's load to at least its own demand, so it
    queues at least 1 / (C_j - c_k), and its service sits at least
    min_i latency[i, j] away.
    """
    lat = s.link_latency[t]
    total = 0.0
    for k in range(s.num_users):
        c = s.demand[t][k]
        total += min(
            1.0 / (s.bs_capacity[j] - c) + lat[:, j].min()
            for j in s.coverage[t][k]
            if s.bs_capacity[j] > c
        )
    return float(total)


class OnlineLarge(Workload):
    """The threshold policy (beta=1) slot by slot on a 4x4 grid, N=40.

    Driven through public ``initial_slot`` and ``step``, the loop
    ``run_policy`` runs; one op is one slot, and the ops cycle over the
    horizon's ``ops`` slots, so every run times the same slots. The scenario
    is fixed (generator seed ``SCENARIO_SEED``); the benchmark seed sets the
    run seed and with it every rounding draw. Slot times differ up to
    fourfold along a horizon, so a run that ended at a different slot would
    time a different mix.
    """

    name = "online-large"
    SCENARIO_SEED = 0
    BETA = 1.0

    def __init__(
        self, seed: int, workdir: Path, ops: int = 12,
        grid: tuple[int, int] = (4, 4), num_users: int = 40,
    ) -> None:
        super().__init__(seed, workdir)
        self.ops = self.cycle = ops
        self.grid = grid
        self.num_users = num_users
        self._scenario: ms.Scenario | None = None
        self._state: ms.ControllerState | None = None

    def _make_input(self, i: int) -> tuple:
        if self._scenario is None:
            cfg = ms.GeneratorConfig(
                seed=self.SCENARIO_SEED, grid_width=self.grid[0],
                grid_height=self.grid[1], num_users=self.num_users,
                num_slots=self.ops,
            )
            self._scenario = ms.generate(cfg)
        t = i % self.ops
        return self._scenario, t, substream_seed(self.seed, ROUNDING, t)

    def run(self, inp: tuple) -> ms.SlotOutcome:
        s, t, rng_seed = inp
        if t == 0:
            outcome = ms.initial_slot(s, rng_seed)
            self._state = ms.ControllerState(
                prev_decision=outcome.decision,
                last_migration_slot=0,
                accumulated_t2=outcome.delay.non_switching,
                beta=self.BETA,
            )
        else:
            outcome, self._state = ms.step(s, t, self._state, rng_seed)
        return outcome

    def check(self, inp: tuple, out: ms.SlotOutcome) -> Checked:
        s, t, _ = inp
        fingerprint = repr((out.decision.placement, out.decision.selection, out.delay.total))
        if not (math.isfinite(out.delay.total) and math.isfinite(out.t2_accumulated)):
            return Checked(False, None, fingerprint, "non-finite delay")
        record = (out.delay.total, slot_lower_bound(s, t))
        if not ms.decision_feasible(s, t, out.decision, MARGIN):
            return Checked(False, record, fingerprint, "adopted decision infeasible")
        return Checked(True, record, fingerprint)

    def quality(self, records: list) -> dict[str, float]:
        total = sum(delay for delay, _ in records)
        return {
            "cost_ratio": total / sum(bound for _, bound in records),
            "total_delay": total,
        }


WORKLOADS = {w.name: w for w in (SlotColdSmall, CompareSmall, OnlineLarge)}
