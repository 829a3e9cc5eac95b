"""Online migration control across slots.

Every online policy runs one rule, the ski-rental rule: keep the previous
decision while the non-switching delay accumulated since the last migration
(T2) stays below beta times the switching cost of the slot's candidate (T1);
otherwise migrate to the candidate. A stay freezes both the placement and
the station selection. ``always`` is this rule at beta = 0 and ``never`` at
beta = inf, the betas a ``Policy`` of either kind holds.

Three corner cases hold for every policy:

- A slot is *forced* when staying is infeasible at margin 0 (coverage lost
  or a station at capacity). It migrates whatever beta says; ``forced`` is set.
- When the candidate solve is infeasible, or its search finds no decision
  (``RoundingFailedError``), but staying works, the slot stays with
  T1 = inf, at beta = 0 too.
- At beta = inf the comparison can never favour the candidate, so a
  candidate is solved only on forced slots. T1 is inf whenever no
  candidate was solved.

``step`` logs the first two at info level to the ``mecsim`` logger, which
this package gives no handler.

A slot's solve reads only the scenario, the slot, its warm start and the
solver config, and nothing in it is random. So ``compare`` runs every
policy with one memo, a ``Solved``: the exact-slot cache
(``oracle._ExactSlots``) of the scenario at the config's margin, in which
``solve_slot`` keeps each solve. ``solve_slot`` solves each slot it
enumerates once and each other distinct (slot, warm start) once, and the
decision, or the infeasibility, is shared by every row that needs it. A
memo of another scenario or margin raises ValueError. Every solve reads
the cache, the search's enumeration fallback included, so the placements
are walked once per ``compare`` and each enumerated slot's value layer is
formed once and read again by the oracle row's DP: 1 walk and 17 layers on
a ``compare-small`` scenario, against 17 and 32 without it. ``run_policy``
makes a memo when given none, so a lone run walks the placements once too.
An online run's outcomes depend on its policy only through the beta it runs
at, so ``compare`` also runs each distinct rule once: ``always`` shares the
run of threshold beta = 0 and ``never`` that of beta = inf. Each row is the
one ``run_policy`` gives alone.

The oracle replays the offline DP sequence through the same accounting.
Every adopted decision and every T1 is valued with ``_IndexCosts``, the
cost model of the search and the offline DP.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, replace

from . import oracle as oracle_mod
from .delays import _IndexCosts
from .errors import InfeasibleError, RoundingFailedError
from .model import (
    ControllerState,
    DelayBreakdown,
    Scenario,
    SlotDecision,
    check_beta,
    check_decision,
    check_slot,
    decision_feasible,
)
from .optimizer import DEFAULT_CONFIG, SolverConfig, solve_slot

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
    """Which controller drives slots 1..end, and the beta its rule runs at.

    ``always`` holds beta = 0 and ``never`` beta = inf, whatever beta was
    given, once that beta passes ``check_beta``; the oracle reads no beta.
    """

    kind: str
    beta: float = math.inf

    def __post_init__(self):
        if self.kind not in POLICY_KINDS:
            raise ValueError(f"unknown policy kind: {self.kind!r}")
        object.__setattr__(self, "beta", _BASELINE_BETA.get(self.kind, check_beta(self.beta)))

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
    t: int, costs: _IndexCosts, prev: SlotDecision, decision: SlotDecision,
    t2_before: float, migrated: bool, forced: bool, t1: float,
) -> SlotOutcome:
    """Account slot t adopting ``decision`` after ``prev``, valued with the
    slot's ``costs``.

    T2 restarts at the slot's non-switching delay on a migration and
    accumulates it otherwise.
    """
    delay = costs.breakdown(decision.placement, decision.selection, prev.placement)
    t2 = delay.non_switching if migrated else t2_before + delay.non_switching
    return SlotOutcome(
        slot=t, decision=decision, migrated=migrated, forced=forced,
        delay=delay, t1_candidate=t1, t2_accumulated=t2,
    )


# the memo that runs on one scenario and margin share (see the module docstring)
Solved = oracle_mod._ExactSlots


def initial_slot(
    s: Scenario,
    rng_seed: int = 0,
    config: SolverConfig = DEFAULT_CONFIG,
    *,
    solved: Solved | None = None,
) -> SlotOutcome:
    """Solve slot 0; there is no prior placement, so switching is 0.

    ``solved`` is the memo, a ``Solved(s, config.margin)`` that runs on the
    scenario share; ``solve_slot`` reads and keeps the slot's solve there,
    and without it solves afresh. ``rng_seed`` is unused: it keeps
    its positional place only because the benchmark's workloads
    (``perfbench/workloads.py``) still pass it, and goes once they do not.
    """
    decision = solve_slot(s, 0, config=config, _exact=solved)[0]
    return _outcome(0, _IndexCosts(s, 0), decision, decision, 0.0, False, False, 0.0)


def step(
    s: Scenario,
    t: int,
    state: ControllerState,
    rng_seed: int = 0,
    config: SolverConfig = DEFAULT_CONFIG,
    *,
    solved: Solved | None = None,
) -> tuple[SlotOutcome, ControllerState]:
    """One slot of the rule: solve a candidate if it can win, compare, adopt.

    ``solved`` and the unused ``rng_seed`` are as for ``initial_slot``.
    """
    check_slot(s, t)
    check_decision(s, state.prev_decision)
    costs = _IndexCosts(s, t)
    prev = state.prev_decision
    forced = not decision_feasible(s, t, prev, 0.0)
    candidate, t1 = None, math.inf
    if forced or not math.isinf(state.beta):
        try:
            candidate = solve_slot(s, t, warm_start=prev, config=config, _exact=solved)[0]
        except (InfeasibleError, RoundingFailedError) as exc:
            if forced:
                raise  # nothing to stay on and nothing to move to
            found = "is infeasible" if isinstance(exc, InfeasibleError) else "was not found"
            _log.info("slot %d: the candidate %s, staying: %s", t, found, exc)
        else:
            t1 = costs.switching(candidate.placement, prev.placement)

    if not forced:
        stay = _outcome(t, costs, prev, prev, state.accumulated_t2, False, False, t1)
        if candidate is None or stay.t2_accumulated < state.beta * t1:
            return stay, replace(state, accumulated_t2=stay.t2_accumulated)

    if forced:
        _log.info("slot %d: staying is infeasible; forced migration", t)
    moved = _outcome(t, costs, prev, candidate, state.accumulated_t2, True, forced, t1)
    return moved, replace(
        state,
        prev_decision=candidate,
        last_migration_slot=t,
        accumulated_t2=moved.t2_accumulated,
    )


def _run_oracle(
    s: Scenario, first: SlotOutcome, config: SolverConfig, solved: Solved
) -> list[SlotOutcome]:
    sequence, _ = oracle_mod.offline_optimal(
        s, margin=config.margin, first_decision=first.decision,
        _exact=solved,
    )
    outcomes = [first]
    for t in range(1, s.num_slots):
        prev, decision = sequence[t - 1], sequence[t]
        migrated = decision != prev
        costs = _IndexCosts(s, t)
        t1 = costs.switching(decision.placement, prev.placement)
        outcomes.append(_outcome(
            t, costs, prev, decision, outcomes[-1].t2_accumulated, migrated,
            migrated and not decision_feasible(s, t, prev, 0.0), t1,
        ))
    return outcomes


def run_policy(
    s: Scenario,
    policy: Policy,
    config: SolverConfig = DEFAULT_CONFIG,
    *,
    solved: Solved | None = None,
) -> list[SlotOutcome]:
    """Run one policy over the whole horizon.

    Slot 0 is solved identically for every policy, so runs are comparable
    decision-for-decision. Every online policy then runs through ``step``
    at ``policy.beta``. Runs on the same scenario and config may share one
    ``solved`` memo (see ``initial_slot``) and return what each returns
    alone; without one the run makes its own, so its solves and the
    oracle's DP share one exact-slot cache and walk the placements once.
    A memo of another scenario or margin raises ValueError.
    """
    if solved is None:
        solved = Solved(s, config.margin)
    first = initial_slot(s, config=config, solved=solved)
    if policy.kind == "oracle":
        return _run_oracle(s, first, config, solved)

    outcomes = [first]
    state = ControllerState(
        prev_decision=first.decision,
        last_migration_slot=0,
        accumulated_t2=first.t2_accumulated,
        beta=policy.beta,
    )
    for t in range(1, s.num_slots):
        outcome, state = step(s, t, state, config=config, solved=solved)
        outcomes.append(outcome)
    return outcomes
