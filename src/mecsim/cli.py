"""Command-line front end: generate scenarios, run policies, compare them.

Exit codes: 0 success, 2 malformed config, input file or argument, 3
infeasible scenario, 4 exact search too large. Exit 2 is for ScenarioError
(ParseError among them) except EmptyCoverageError, which is exit 3, and for
UncoverableAreaError and unreadable files; any other ValueError is a bug and
propagates. Output files are written atomically, with the mode a plain
``open`` would give them, and contain nothing nondeterministic, so identical
invocations produce byte-identical artifacts.

``compare`` does each piece of its work once: one ``run_policy`` per
distinct rule (``always`` is the threshold rule at beta = 0 and ``never`` at
beta = inf, so their rows share those runs), one solve per distinct (slot,
warm start) across all rows, one per slot where the solver enumerates
(it reads no warm start there), and one scenario digest. The run cache,
keyed by the beta an online rule runs at, and the solve memo, a
``policy.Solved`` of the scenario at the solver's margin in which
``solve_slot`` keeps its solves, live in ``cmd_compare`` beside the loop
over its rows; the oracle row is run outside the run cache, since
``Policy.oracle()`` also holds beta inf. Each
row is written by ``_write_run``, as ``run`` writes it. The argument parser
is built on the first ``main`` call and reused by later calls in the
process.
"""

from __future__ import annotations

import argparse
import csv
import functools
import hashlib
import io
import json
import logging
import math
import sys
from dataclasses import asdict, fields
from pathlib import Path
from typing import Any, Mapping, Sequence

from .errors import (
    EmptyCoverageError,
    InfeasibleError,
    OracleTooLargeError,
    ParseError,
    RoundingFailedError,
    ScenarioError,
    UncoverableAreaError,
)
from .generator import GeneratorConfig, generate
from .model import DelayBreakdown, _number
from .optimizer import DEFAULT_CONFIG, SolverConfig
from .policy import POLICY_KINDS, Policy, SlotOutcome, Solved, run_policy
from .scenario_io import (
    load_scenario,
    read_json,
    save_scenario,
    scenario_digest,
    write_text_atomic,
)

__all__ = ["main", "cmd_generate", "cmd_run", "cmd_compare", "CSV_HEADER"]

# the delay columns of the run CSV and the summary's totals, in this order
_DELAY_FIELDS = tuple(f.name for f in fields(DelayBreakdown))

CSV_HEADER = ",".join(
    ("slot", "policy", "beta", "migrated", "forced", *_DELAY_FIELDS, "cum_total")
)

_CONFIG_SECTIONS = {"generator", "solver", "controller", "output"}
_SOLVER_KEYS = {f.name for f in fields(SolverConfig)}
_CONTROLLER_KEYS = {"beta", "policy"}
_OUTPUT_KEYS = {"dir"}

_log = logging.getLogger("mecsim")


def _load_config(path: str | None) -> dict[str, Any]:
    if path is None:
        return {}
    try:
        doc = read_json(path, "config file")
    except OSError as exc:
        raise ParseError(f"cannot read config file {path}: {exc}") from None
    if not isinstance(doc, Mapping):
        raise ParseError("config document must be a mapping of sections")
    unknown = set(doc) - _CONFIG_SECTIONS
    if unknown:
        raise ParseError(f"unknown config section: {sorted(unknown)[0]}")
    for section, keys in (
        ("solver", _SOLVER_KEYS),
        ("controller", _CONTROLLER_KEYS),
        ("output", _OUTPUT_KEYS),
    ):
        body = doc.get(section, {})
        if not isinstance(body, Mapping):
            raise ParseError(f"config section {section} must be a mapping")
        bad = set(body) - keys
        if bad:
            raise ParseError(f"unknown field: {section}.{sorted(bad)[0]}")
    return dict(doc)


def _solver_config(config: Mapping[str, Any], args: argparse.Namespace) -> SolverConfig:
    """The config's solver section over the defaults, ``--margin`` over both;
    ``SolverConfig`` validates every value."""
    values = {**asdict(DEFAULT_CONFIG), **config.get("solver", {})}
    if args.margin is not None:
        values["margin"] = args.margin
    try:
        return SolverConfig(**values)
    except ValueError as exc:
        raise ParseError(f"bad solver setting: {exc}") from None


def _run_seed(args: argparse.Namespace) -> int:
    if args.seed < 0:
        raise ParseError(f"--seed must be nonnegative, got {args.seed}")
    return args.seed


def _out_dir(config: Mapping[str, Any], args: argparse.Namespace) -> Path:
    out = config.get("output", {}).get("dir", "out")
    if not isinstance(out, str):
        raise ParseError(f"output.dir must be a string, got {out!r}")
    return Path(args.out or out)


def _beta(policy: Policy) -> float | str | None:
    """The row's beta as its summary writes it: None for ``always``,
    ``never`` and ``oracle``, "inf" for inf, else the float. A CSV cell or a
    file stem takes its ``str`` (a CSV writer gives "" for None)."""
    if policy.kind != "threshold":
        return None
    return "inf" if math.isinf(policy.beta) else policy.beta


def _run_stem(policy: Policy, seed: int) -> str:
    if policy.kind == "threshold":
        return f"threshold_beta{_beta(policy)}_seed{seed}"
    return f"{policy.kind}_seed{seed}"


def _rows_csv(policy: Policy, outcomes: Sequence[SlotOutcome]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(CSV_HEADER.split(","))
    beta = _beta(policy)
    cum = 0.0
    for o in outcomes:
        cum += o.delay.total
        writer.writerow(
            [
                o.slot,
                policy.kind,
                beta,
                int(o.migrated),
                int(o.forced),
                *(repr(float(getattr(o.delay, name))) for name in _DELAY_FIELDS),
                repr(float(cum)),
            ]
        )
    return buf.getvalue()


def _summary_doc(
    policy: Policy,
    seed: int,
    scenario_path: str,
    digest: str,
    outcomes: Sequence[SlotOutcome],
    solver: SolverConfig,
) -> dict[str, Any]:
    beta = _beta(policy)
    run_id = hashlib.sha256(
        f"{digest}|{policy.kind}|{beta}|{seed}".encode()
    ).hexdigest()[:16]
    # each total folds the slots' values left to right from 0.0, on every
    # Python: the builtin sum compensates its float sums from 3.12 on
    totals = dict.fromkeys(_DELAY_FIELDS, 0.0)
    for o in outcomes:
        for name in totals:
            totals[name] += getattr(o.delay, name)
    return {
        "run_id": run_id,
        "scenario": scenario_path,
        "scenario_sha256": digest,
        "policy": policy.kind,
        "beta": beta,
        "seed": seed,
        "num_slots": len(outcomes),
        "migrations": sum(1 for o in outcomes if o.migrated),
        "forced_migrations": sum(1 for o in outcomes if o.forced),
        "totals": totals,
        "config": {
            "solver": asdict(solver),
            "controller": {"policy": policy.kind, "beta": beta},
        },
    }


def _policy(kind: Any, beta: float = math.inf) -> Policy:
    """``Policy(kind, beta)``; ``Policy`` validates both."""
    try:
        return Policy(kind=kind, beta=beta)
    except ValueError as exc:
        raise ParseError(f"bad policy setting: {exc}") from None


def _parse_policy(config: Mapping[str, Any], args: argparse.Namespace) -> Policy:
    controller = config.get("controller", {})
    kind = args.policy or controller.get("policy", "threshold")
    beta = controller.get("beta", 1.0)
    if beta == "inf":  # the form a run summary writes
        beta = math.inf
    elif _number(beta) is None:  # an oversized integer goes on, for Policy to echo
        raise ParseError(f"controller.beta must be a number or \"inf\", got {beta!r}")
    if kind != "threshold":
        return _policy(kind)
    return _policy(kind, beta if args.beta is None else args.beta)


def cmd_generate(args: argparse.Namespace) -> int:
    config = _load_config(args.config)
    if "generator" not in config:
        raise ParseError("missing required config section: generator")
    gen_cfg = GeneratorConfig.from_mapping(config["generator"])
    scenario = generate(gen_cfg)
    save_scenario(scenario, args.out)
    print(
        f"wrote {args.out}: {scenario.num_clouds} clouds, "
        f"{scenario.num_users} users, {scenario.num_slots} slots"
    )
    return 0


def _write_run(
    policy: Policy,
    seed: int,
    scenario_path: str,
    digest: str,
    outcomes: Sequence[SlotOutcome],
    solver: SolverConfig,
    out_dir: Path,
) -> dict[str, Any]:
    """Write one run's CSV and summary into ``out_dir`` and return the
    summary; it runs nothing. ``digest`` is the scenario file's
    ``scenario_digest`` and ``seed`` only names the files (file stem, run id
    and the summary's ``seed``)."""
    stem = _run_stem(policy, seed)
    csv_path = out_dir / f"{stem}.csv"
    summary_path = out_dir / f"{stem}.json"
    write_text_atomic(csv_path, _rows_csv(policy, outcomes))
    summary = _summary_doc(policy, seed, scenario_path, digest, outcomes, solver)
    write_text_atomic(
        summary_path,
        json.dumps(summary, indent=2, sort_keys=True, allow_nan=False) + "\n",
    )
    return summary


def cmd_run(args: argparse.Namespace) -> int:
    config = _load_config(args.config)
    solver = _solver_config(config, args)
    policy = _parse_policy(config, args)
    seed = _run_seed(args)
    scenario = load_scenario(args.scenario)
    digest = scenario_digest(args.scenario)
    out_dir = _out_dir(config, args)
    outcomes = run_policy(scenario, policy, solver)
    summary = _write_run(policy, seed, args.scenario, digest, outcomes, solver, out_dir)
    stem = _run_stem(policy, seed)
    print(
        f"wrote {out_dir / stem}.csv and .json "
        f"(total {summary['totals']['total']:.6g}, "
        f"{summary['migrations']} migrations)"
    )
    return 0


def cmd_compare(args: argparse.Namespace) -> int:
    config = _load_config(args.config)
    solver = _solver_config(config, args)
    seed = _run_seed(args)
    scenario = load_scenario(args.scenario)
    digest = scenario_digest(args.scenario)
    out_dir = _out_dir(config, args)

    policies: list[Policy] = []
    if args.beta:
        for chunk in str(args.beta).split(","):
            chunk = chunk.strip()
            if not chunk:
                continue
            try:
                value = float(chunk)
            except ValueError:
                raise ParseError(f"beta list entry is not a number: {chunk!r}") from None
            policy = _policy("threshold", value)
            if policy not in policies:  # one row, and one pair of files, per rule
                policies.append(policy)
    policies.append(Policy.always())
    policies.append(Policy.never())

    # Each distinct (slot, warm start) is solved once across all rows, and
    # the solves are kept in ``solved``, bound to this scenario and margin. An
    # online rule's outcomes depend on it only through the beta it runs at
    # (always 0, never inf), so ``runs`` maps that beta to them and each
    # distinct rule is run once.
    solved = Solved(scenario, solver.margin)
    runs: dict[float, list[SlotOutcome]] = {}
    rows = []
    for policy in policies:
        if policy.beta not in runs:
            runs[policy.beta] = run_policy(scenario, policy, solver, solved=solved)
        rows.append(
            _write_run(policy, seed, args.scenario, digest, runs[policy.beta], solver, out_dir)
        )
    # the oracle holds beta inf too, so it is run outside ``runs``
    oracle = Policy.oracle()
    try:
        outcomes = run_policy(scenario, oracle, solver, solved=solved)
    except (OracleTooLargeError, InfeasibleError) as exc:
        # the online rows ran, so only the offline DP can raise here: its
        # budget, or a slot with no decision at the margin that no row needed
        _log.info("oracle row omitted: %s", exc)
        print(f"note: oracle row omitted: {exc}", file=sys.stderr)
    else:
        rows.append(_write_run(oracle, seed, args.scenario, digest, outcomes, solver, out_dir))

    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["policy", "beta", "total", "migrations", "forced_migrations"])
    for summary in rows:
        writer.writerow(
            [
                summary["policy"],
                summary["beta"],
                repr(float(summary["totals"]["total"])),
                summary["migrations"],
                summary["forced_migrations"],
            ]
        )
    table_path = out_dir / "comparison.csv"
    write_text_atomic(table_path, buf.getvalue())
    print(f"wrote {table_path} ({len(rows)} runs)")
    return 0


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The one parser of the process, built on first use; each
    ``parse_args`` call fills a fresh ``Namespace``."""
    parser = argparse.ArgumentParser(
        prog="mecsim",
        description="Service placement and station selection over discrete slots.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    g = sub.add_parser("generate", help="generate a scenario file from a config")
    g.add_argument("--config", required=True, help="JSON config with a generator section")
    g.add_argument("--out", required=True, help="scenario file to write")
    g.set_defaults(func=cmd_generate)

    def add_common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--scenario", required=True, help="scenario file to load")
        p.add_argument("--config", help="JSON config file (solver/controller/output)")
        p.add_argument("--seed", type=int, default=0,
                       help="run seed: names the run and its files (default 0)")
        p.add_argument("--out", help="output directory (default: config output.dir or ./out)")
        p.add_argument("--margin", type=float, help="station capacity safety margin")

    r = sub.add_parser("run", help="run one policy over a scenario")
    add_common(r)
    r.add_argument("--policy", choices=list(POLICY_KINDS), help="policy (default threshold)")
    r.add_argument("--beta", type=float, help="threshold multiplier (accepts inf)")
    r.set_defaults(func=cmd_run)

    c = sub.add_parser("compare", help="run threshold betas plus baselines")
    add_common(c)
    c.add_argument("--beta", help="comma-separated beta list, e.g. 0,0.5,1,inf")
    c.set_defaults(func=cmd_compare)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    # EmptyCoverageError is a ScenarioError, so exit 3's clause comes first
    try:
        return args.func(args)
    except (EmptyCoverageError, InfeasibleError, RoundingFailedError) as exc:
        print(f"error: infeasible scenario: {exc}", file=sys.stderr)
        return 3
    except (ScenarioError, UncoverableAreaError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OracleTooLargeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
