"""Online migration control across slots.

Every online policy runs one rule, the ski-rental rule: keep the previous
decision while the non-switching delay accumulated since the last migration
(T2) stays below beta times the switching cost of the slot's candidate (T1);
otherwise migrate to the candidate. A stay freezes both the placement and
the station selection. ``always`` is this rule at beta = 0 and ``never`` at
beta = inf; ``run_policy`` sets those betas, ``threshold`` brings its own.

Three corner cases hold for every policy:

- A slot is *forced* when staying is infeasible at margin 0 (coverage lost
  or a station at capacity). It migrates whatever beta says; ``forced`` is set.
- When the candidate solve is infeasible but staying works, the slot stays
  with T1 = inf, at beta = 0 too.
- At beta = inf the comparison can never favour the candidate, so a
  candidate is solved only on forced slots. T1 is inf whenever no
  candidate was solved.

``step`` logs the first two at info level to the ``mecsim`` logger, which
this package gives no handler.

The oracle replays the offline DP sequence through the same accounting.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, replace

from . import oracle as oracle_mod
from .delays import switching_delay, total_delay
from .errors import InfeasibleError
from .model import (
    ControllerState,
    DelayBreakdown,
    Scenario,
    SlotDecision,
    decision_feasible,
)
from .optimizer import DEFAULT_CONFIG, SolverConfig, solve_slot
from .seeding import ROUNDING, substream_seed

__all__ = [
    "Policy",
    "SlotOutcome",
    "initial_slot",
    "step",
    "run_policy",
    "POLICY_KINDS",
]

POLICY_KINDS = ("threshold", "always", "never", "oracle")

_BASELINE_BETA = {"always": 0.0, "never": math.inf}

_log = logging.getLogger("mecsim")


@dataclass(frozen=True)
class Policy:
    """Which controller drives slots 1..end; beta only matters for threshold.

    ``always`` runs as beta = 0 and ``never`` as beta = inf whatever beta
    holds (see ``run_policy``).
    """

    kind: str
    beta: float = math.inf

    def __post_init__(self):
        if self.kind not in POLICY_KINDS:
            raise ValueError(f"unknown policy kind: {self.kind!r}")
        if math.isnan(self.beta) or self.beta < 0:
            raise ValueError("beta must be nonnegative")

    @classmethod
    def threshold(cls, beta: float) -> "Policy":
        return cls(kind="threshold", beta=beta)

    @classmethod
    def always(cls) -> "Policy":
        return cls(kind="always")

    @classmethod
    def never(cls) -> "Policy":
        return cls(kind="never")

    @classmethod
    def oracle(cls) -> "Policy":
        return cls(kind="oracle")


@dataclass(frozen=True)
class SlotOutcome:
    """Adopted decision and accounting for one slot."""

    slot: int
    decision: SlotDecision
    migrated: bool
    forced: bool           # staying on the previous decision was infeasible
    delay: DelayBreakdown
    t1_candidate: float    # switching cost of the slot's candidate: 0 at slot 0,
                           # inf when no candidate was solved or it was infeasible,
                           # the adopted decision's for the oracle
    t2_accumulated: float  # accumulator value after the slot


def _outcome(
    s: Scenario, t: int, prev: SlotDecision, decision: SlotDecision,
    t2_before: float, migrated: bool, forced: bool, t1: float,
) -> SlotOutcome:
    """Account slot t adopting ``decision`` after ``prev``.

    T2 restarts at the slot's non-switching delay on a migration and
    accumulates it otherwise.
    """
    m = s.num_clouds
    delay = total_delay(
        s, t, decision.placement_matrix(m), prev.placement_matrix(m),
        decision.selection_matrix(m),
    )
    t2 = delay.non_switching if migrated else t2_before + delay.non_switching
    return SlotOutcome(
        slot=t, decision=decision, migrated=migrated, forced=forced,
        delay=delay, t1_candidate=t1, t2_accumulated=t2,
    )


def initial_slot(
    s: Scenario, rng_seed: int, config: SolverConfig = DEFAULT_CONFIG
) -> SlotOutcome:
    """Solve slot 0; there is no prior placement, so switching is 0."""
    decision, _, _ = solve_slot(s, 0, warm_start=None, rng_seed=rng_seed, config=config)
    return _outcome(s, 0, decision, decision, 0.0, False, False, 0.0)


def step(
    s: Scenario,
    t: int,
    state: ControllerState,
    rng_seed: int,
    config: SolverConfig = DEFAULT_CONFIG,
) -> tuple[SlotOutcome, ControllerState]:
    """One slot of the rule: solve a candidate if it can win, compare, adopt."""
    prev = state.prev_decision
    forced = not decision_feasible(s, t, prev, 0.0)
    candidate, t1 = None, math.inf
    if forced or not math.isinf(state.beta):
        try:
            candidate, _, _ = solve_slot(
                s, t, warm_start=prev, rng_seed=rng_seed, config=config
            )
        except InfeasibleError as exc:
            if forced:
                raise  # nothing to stay on and nothing to move to
            _log.info("slot %d: the candidate is infeasible, staying: %s", t, exc)
        else:
            m = s.num_clouds
            t1 = switching_delay(
                s, candidate.placement_matrix(m), prev.placement_matrix(m)
            )

    if not forced:
        stay = _outcome(s, t, prev, prev, state.accumulated_t2, False, False, t1)
        if candidate is None or stay.t2_accumulated < state.beta * t1:
            return stay, replace(state, accumulated_t2=stay.t2_accumulated)

    if forced:
        _log.info("slot %d: staying is infeasible; forced migration", t)
    moved = _outcome(s, t, prev, candidate, state.accumulated_t2, True, forced, t1)
    return moved, replace(
        state,
        prev_decision=candidate,
        last_migration_slot=t,
        accumulated_t2=moved.t2_accumulated,
    )


def _run_oracle(
    s: Scenario, first: SlotOutcome, config: SolverConfig
) -> list[SlotOutcome]:
    sequence, _ = oracle_mod.offline_optimal(
        s, margin=config.margin, first_decision=first.decision
    )
    outcomes = [first]
    m = s.num_clouds
    for t in range(1, s.num_slots):
        prev, decision = sequence[t - 1], sequence[t]
        migrated = decision != prev
        t1 = switching_delay(s, decision.placement_matrix(m), prev.placement_matrix(m))
        outcomes.append(_outcome(
            s, t, prev, decision, outcomes[-1].t2_accumulated, migrated,
            migrated and not decision_feasible(s, t, prev, 0.0), t1,
        ))
    return outcomes


def run_policy(
    s: Scenario,
    policy: Policy,
    rng_seed: int,
    config: SolverConfig = DEFAULT_CONFIG,
) -> list[SlotOutcome]:
    """Run one policy over the whole horizon.

    Slot 0 is solved identically for every policy (same derived sub-seed),
    so runs with a shared run seed are comparable decision-for-decision.
    Every online policy then runs through ``step``: ``always`` with beta = 0,
    ``never`` with beta = inf, ``threshold`` with its own beta.
    """
    first = initial_slot(s, substream_seed(rng_seed, ROUNDING, 0), config)
    if policy.kind == "oracle":
        return _run_oracle(s, first, config)

    outcomes = [first]
    state = ControllerState(
        prev_decision=first.decision,
        last_migration_slot=0,
        accumulated_t2=first.t2_accumulated,
        beta=_BASELINE_BETA.get(policy.kind, policy.beta),
    )
    for t in range(1, s.num_slots):
        outcome, state = step(
            s, t, state, substream_seed(rng_seed, ROUNDING, t), config
        )
        outcomes.append(outcome)
    return outcomes
