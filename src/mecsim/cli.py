"""Command-line front end: generate scenarios, run policies, compare them.

Exit codes: 0 success, 2 malformed config, input file or argument, 3
infeasible scenario, 4 exact search too large. Exit 2 is for ParseError,
ScenarioError, UncoverableAreaError and unreadable files; any other
ValueError is a bug and propagates. Output files are written atomically and
contain nothing nondeterministic, so identical invocations produce
byte-identical artifacts.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import io
import json
import logging
import math
import sys
from dataclasses import asdict
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
from .model import Scenario, _is_number
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

CSV_HEADER = (
    "slot,policy,beta,migrated,forced,switching,queuing,communication,"
    "non_switching,total,cum_total"
)

_CONFIG_SECTIONS = {"generator", "solver", "controller", "output"}
_SOLVER_KEYS = {"margin"}
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


def _beta_str(policy: Policy) -> str:
    if policy.kind != "threshold":
        return ""
    return "inf" if math.isinf(policy.beta) else repr(policy.beta)


def _run_stem(policy: Policy, seed: int) -> str:
    if policy.kind == "threshold":
        return f"threshold_beta{_beta_str(policy)}_seed{seed}"
    return f"{policy.kind}_seed{seed}"


def _rows_csv(policy: Policy, outcomes: Sequence[SlotOutcome]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(CSV_HEADER.split(","))
    beta = _beta_str(policy)
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
                repr(float(o.delay.switching)),
                repr(float(o.delay.queuing)),
                repr(float(o.delay.communication)),
                repr(float(o.delay.non_switching)),
                repr(float(o.delay.total)),
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
    beta: Any = None
    if policy.kind == "threshold":
        beta = "inf" if math.isinf(policy.beta) else policy.beta
    run_id = hashlib.sha256(
        f"{digest}|{policy.kind}|{beta}|{seed}".encode()
    ).hexdigest()[:16]
    totals = {
        "switching": sum(o.delay.switching for o in outcomes),
        "queuing": sum(o.delay.queuing for o in outcomes),
        "communication": sum(o.delay.communication for o in outcomes),
        "non_switching": sum(o.delay.non_switching for o in outcomes),
        "total": sum(o.delay.total for o in outcomes),
    }
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
            "solver": {"margin": solver.margin},
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
    elif not _is_number(beta):
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


def _run_one(
    scenario: Scenario,
    scenario_path: str,
    digest: str,
    policy: Policy,
    seed: int,
    out_dir: Path,
    solver: SolverConfig,
    solved: Solved | None = None,
) -> dict[str, Any]:
    """Run one policy and write its CSV and summary; ``digest`` is the
    scenario file's ``scenario_digest`` and ``seed`` only names them (file
    stem, run id and the summary's ``seed``)."""
    outcomes = run_policy(scenario, policy, solver, solved=solved)
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
    summary = _run_one(scenario, args.scenario, digest, policy, seed, out_dir, solver)
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
    oracle_policy = Policy.oracle()

    # Each distinct (slot, warm start) is solved once and shared by the rows.
    solved: Solved = {}
    rows = []
    for policy in policies:
        summary = _run_one(
            scenario, args.scenario, digest, policy, seed, out_dir, solver, solved
        )
        rows.append(summary)
    try:
        rows.append(
            _run_one(
                scenario, args.scenario, digest, oracle_policy, seed, out_dir, solver, solved
            )
        )
    except (OracleTooLargeError, InfeasibleError) as exc:
        # the online rows ran, so only the offline DP can raise here: its
        # budget, or a slot with no decision at the margin that no row needed
        _log.info("oracle row omitted: %s", exc)
        print(f"note: oracle row omitted: {exc}", file=sys.stderr)

    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["policy", "beta", "total", "migrations", "forced_migrations"])
    for summary in rows:
        beta = summary["beta"]
        writer.writerow(
            [
                summary["policy"],
                "" if beta is None else beta,
                repr(float(summary["totals"]["total"])),
                summary["migrations"],
                summary["forced_migrations"],
            ]
        )
    table_path = out_dir / "comparison.csv"
    write_text_atomic(table_path, buf.getvalue())
    print(f"wrote {table_path} ({len(rows)} runs)")
    return 0


def _build_parser() -> argparse.ArgumentParser:
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
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except EmptyCoverageError as exc:
        print(f"error: infeasible scenario: {exc}", file=sys.stderr)
        return 3
    except (ParseError, ScenarioError, UncoverableAreaError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (InfeasibleError, RoundingFailedError) as exc:
        print(f"error: infeasible scenario: {exc}", file=sys.stderr)
        return 3
    except OracleTooLargeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
