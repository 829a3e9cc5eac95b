"""End-to-end command-line behavior: files, exit codes, determinism."""

from __future__ import annotations

import csv
import json
import logging
import math
from pathlib import Path
from types import SimpleNamespace

import pytest

import mecsim as ms
from conftest import REPO_ROOT, make_doc, raw_decisions
from mecsim.cli import CSV_HEADER, _summary_doc, main
from mecsim.optimizer import _EXACT_BOUND


def _write_json(path: Path, doc) -> str:
    path.write_text(json.dumps(doc, indent=1), encoding="utf-8")
    return str(path)


def _gen_config(tmp_path: Path, **generator) -> str:
    body = {"seed": 3, "grid_width": 2, "grid_height": 2,
            "num_users": 2, "num_slots": 4}
    body.update(generator)
    return _write_json(tmp_path / "config.json", {"generator": body})


def _read_rows(path: Path) -> list[dict[str, str]]:
    with path.open(newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


# ---------------------------------------------------------------------------
# generate


def test_generate_writes_a_deterministic_scenario(tmp_path, capsys):
    config = _gen_config(tmp_path)
    first = tmp_path / "a.json"
    second = tmp_path / "b.json"
    assert main(["generate", "--config", config, "--out", str(first)]) == 0
    assert main(["generate", "--config", config, "--out", str(second)]) == 0
    assert first.read_bytes() == second.read_bytes()
    assert "4 clouds, 2 users, 4 slots" in capsys.readouterr().out
    assert ms.load_scenario(first).num_clouds == 4


def test_generate_missing_seed_exits_2(tmp_path, capsys):
    config = _write_json(tmp_path / "c.json", {"generator": {"num_users": 2}})
    assert main(["generate", "--config", config, "--out", str(tmp_path / "s.json")]) == 2
    assert "seed" in capsys.readouterr().err


def test_generate_missing_section_exits_2(tmp_path):
    config = _write_json(tmp_path / "c.json", {"solver": {"margin": 0.1}})
    assert main(["generate", "--config", config, "--out", str(tmp_path / "s.json")]) == 2


def test_unknown_config_section_exits_2(tmp_path):
    config = _write_json(tmp_path / "c.json", {"generator": {"seed": 1}, "extra": {}})
    assert main(["generate", "--config", config, "--out", str(tmp_path / "s.json")]) == 2


def test_uncoverable_generator_geometry_fails(tmp_path):
    config = _gen_config(tmp_path, coverage_radius=0.2)
    rc = main(["generate", "--config", config, "--out", str(tmp_path / "s.json")])
    assert rc == 2


# ---------------------------------------------------------------------------
# run


def test_run_writes_csv_and_summary(walkthrough_path, tmp_path):
    out = tmp_path / "out"
    rc = main([
        "run", "--scenario", str(walkthrough_path),
        "--policy", "threshold", "--beta", "1.0", "--seed", "7",
        "--out", str(out),
    ])
    assert rc == 0
    csv_path = out / "threshold_beta1.0_seed7.csv"
    summary_path = out / "threshold_beta1.0_seed7.json"
    text = csv_path.read_text(encoding="utf-8")
    assert text.splitlines()[0] == CSV_HEADER
    rows = _read_rows(csv_path)
    assert len(rows) == 2
    assert rows[0]["slot"] == "0"
    assert rows[0]["policy"] == "threshold"
    assert float(rows[0]["switching"]) == 0.0
    assert rows[0]["migrated"] == "0"

    summary = json.loads(summary_path.read_text(encoding="utf-8"))
    assert len(summary["run_id"]) == 16
    assert summary["scenario_sha256"] == ms.scenario_digest(walkthrough_path)
    assert summary["num_slots"] == 2
    total = sum(float(r["total"]) for r in rows)
    assert summary["totals"]["total"] == pytest.approx(total, rel=1e-12)


def test_summary_totals_fold_the_slot_values_left_to_right(tmp_path):
    # The builtin sum compensates from Python 3.12, where sum([0.1] * 10) is
    # 1.0; the totals must be the plain left fold on every version.
    s = ms.generate(ms.GeneratorConfig(
        seed=9, grid_width=3, grid_height=1, num_users=3, num_slots=16
    ))
    scenario = tmp_path / "scenario.json"
    ms.save_scenario(s, scenario)
    out = tmp_path / "out"
    assert main(["compare", "--scenario", str(scenario), "--beta", "0,1,inf",
                 "--seed", "0", "--out", str(out)]) == 0
    summaries = sorted(out.glob("*.json"))
    assert len(summaries) == 6
    for path in summaries:
        totals = json.loads(path.read_text(encoding="utf-8"))["totals"]
        rows = _read_rows(path.with_suffix(".csv"))
        assert len(rows) == 16
        for name, total in totals.items():
            fold = 0.0
            for row in rows:
                fold += float(row[name])
            assert total == fold, (path.name, name)
    delay = SimpleNamespace(
        switching=0.1, queuing=0.1, communication=0.1, non_switching=0.1, total=0.1
    )
    outcomes = [SimpleNamespace(delay=delay, migrated=False, forced=False)] * 10
    doc = _summary_doc(ms.Policy.never(), 0, "s.json", "0" * 64, outcomes, ms.SolverConfig())
    assert set(doc["totals"].values()) == {0.9999999999999999}


def test_run_is_byte_identical_across_invocations(walkthrough_path, tmp_path):
    args = ["run", "--scenario", str(walkthrough_path), "--policy", "never",
            "--seed", "11"]
    a, b = tmp_path / "a", tmp_path / "b"
    assert main(args + ["--out", str(a)]) == 0
    assert main(args + ["--out", str(b)]) == 0
    for name in ("never_seed11.csv", "never_seed11.json"):
        assert (a / name).read_bytes() == (b / name).read_bytes()


def test_never_policy_cumulates_the_static_slot_total(walkthrough_path, tmp_path):
    out = tmp_path / "out"
    rc = main(["run", "--scenario", str(walkthrough_path), "--policy", "never",
               "--seed", "0", "--out", str(out)])
    assert rc == 0
    rows = _read_rows(out / "never_seed0.csv")
    slot_total = float(rows[0]["total"])
    assert float(rows[-1]["cum_total"]) == pytest.approx(
        len(rows) * slot_total, abs=1e-9
    )


def test_run_infeasible_scenario_exits_3(tmp_path, capsys):
    doc = make_doc(service_size=[4.0, 4.0], cloud_capacity=[2.0, 2.0, 2.0])
    scenario = _write_json(tmp_path / "s.json", doc)
    rc = main(["run", "--scenario", scenario, "--out", str(tmp_path / "out")])
    assert rc == 3
    assert "infeasible" in capsys.readouterr().err


def test_run_empty_coverage_scenario_exits_3(tmp_path):
    doc = make_doc()
    doc["coverage"][1][0] = []
    scenario = _write_json(tmp_path / "s.json", doc)
    assert main(["run", "--scenario", scenario, "--out", str(tmp_path / "o")]) == 3


def test_run_garbage_scenario_exits_2(tmp_path):
    scenario = tmp_path / "s.json"
    scenario.write_text("{not json", encoding="utf-8")
    assert main(["run", "--scenario", str(scenario), "--out", str(tmp_path / "o")]) == 2


def test_run_unknown_policy_in_config_exits_2(walkthrough_path, tmp_path):
    config = _write_json(tmp_path / "c.json", {"controller": {"policy": "both"}})
    rc = main(["run", "--scenario", str(walkthrough_path), "--config", config,
               "--out", str(tmp_path / "o")])
    assert rc == 2


def test_run_negative_beta_exits_2(walkthrough_path, tmp_path):
    rc = main(["run", "--scenario", str(walkthrough_path), "--beta", "-1",
               "--out", str(tmp_path / "o")])
    assert rc == 2


def test_run_solver_flags_reach_the_summary(walkthrough_path, tmp_path):
    config = _write_json(tmp_path / "c.json", {
        "solver": {"margin": 0.5},
        "output": {"dir": str(tmp_path / "od")},
    })
    rc = main(["run", "--scenario", str(walkthrough_path), "--config", config,
               "--margin", "0.001", "--seed", "2"])
    assert rc == 0
    summary = json.loads(
        (tmp_path / "od" / "threshold_beta1.0_seed2.json").read_text(encoding="utf-8")
    )
    assert summary["config"]["solver"] == {"margin": 0.001}


def test_negative_zero_beta_and_margin_write_the_zero_run(walkthrough_path, tmp_path):
    # -0 wrote threshold_beta-0.0_seed0.*, with "beta": -0.0 and "margin": -0.0
    for name, value in (("zero", "0"), ("negative", "-0")):
        rc = main(["run", "--scenario", str(walkthrough_path), "--beta", value,
                   "--margin", value, "--out", str(tmp_path / name)])
        assert rc == 0
    names = ["threshold_beta0.0_seed0.csv", "threshold_beta0.0_seed0.json"]
    assert sorted(p.name for p in (tmp_path / "negative").iterdir()) == names
    for name in names:
        assert (tmp_path / "negative" / name).read_bytes() == (
            tmp_path / "zero" / name
        ).read_bytes()


def test_run_rejects_out_of_range_solver_settings(walkthrough_path, tmp_path):
    rc = main(["run", "--scenario", str(walkthrough_path), "--margin", "-1",
               "--out", str(tmp_path / "o")])
    assert rc == 2


@pytest.mark.parametrize("key", ["max_iters", "tol", "max_attempts"])
def test_run_retired_solver_setting_exits_2(walkthrough_path, tmp_path, capsys, key):
    config = _write_json(tmp_path / "c.json", {"solver": {key: 1}})
    rc = main(["run", "--scenario", str(walkthrough_path), "--config", config,
               "--out", str(tmp_path / "o")])
    assert rc == 2
    assert f"unknown field: solver.{key}" in capsys.readouterr().err
    flag = "--" + key.replace("_", "-")
    with pytest.raises(SystemExit) as exc:
        main(["run", "--scenario", str(walkthrough_path), flag, "1",
              "--out", str(tmp_path / "o")])
    assert exc.value.code == 2


def test_run_oracle_policy_on_large_scenario_exits_4(tmp_path):
    config = _gen_config(tmp_path, grid_width=3, grid_height=3,
                         num_users=5, num_slots=2)
    scenario = tmp_path / "big.json"
    assert main(["generate", "--config", config, "--out", str(scenario)]) == 0
    rc = main(["run", "--scenario", str(scenario), "--policy", "oracle",
               "--out", str(tmp_path / "o")])
    assert rc == 4


# ---------------------------------------------------------------------------
# compare


def test_compare_emits_ordered_table(walkthrough_path, tmp_path):
    out = tmp_path / "cmp"
    rc = main(["compare", "--scenario", str(walkthrough_path),
               "--beta", "0,1,inf", "--seed", "5", "--out", str(out)])
    assert rc == 0
    rows = _read_rows(out / "comparison.csv")
    assert [r["policy"] for r in rows] == [
        "threshold", "threshold", "threshold", "always", "never", "oracle"
    ]
    migrations = [int(r["migrations"]) for r in rows[:3]]
    assert migrations == sorted(migrations, reverse=True)
    totals = [float(r["total"]) for r in rows]
    assert totals[-1] <= min(totals[:-1]) + 1e-9


def test_compare_with_empty_beta_runs_baselines_only(walkthrough_path, tmp_path):
    out = tmp_path / "cmp"
    rc = main(["compare", "--scenario", str(walkthrough_path),
               "--beta", "", "--seed", "5", "--out", str(out)])
    assert rc == 0
    rows = _read_rows(out / "comparison.csv")
    assert [r["policy"] for r in rows] == ["always", "never", "oracle"]


def test_compare_notes_an_omitted_oracle_row(walkthrough_path, tmp_path, monkeypatch, capsys):
    exact = ms.oracle.offline_optimal
    monkeypatch.setattr(
        ms.oracle, "offline_optimal", lambda s, **kw: exact(s, budget=1, **kw)
    )
    out = tmp_path / "cmp"
    rc = main(["compare", "--scenario", str(walkthrough_path),
               "--beta", "1", "--seed", "5", "--out", str(out)])
    assert rc == 0
    assert "note: oracle row omitted" in capsys.readouterr().err
    rows = _read_rows(out / "comparison.csv")
    assert [r["policy"] for r in rows] == ["threshold", "always", "never"]


def test_compare_logs_the_omitted_oracle_row(tmp_path, caplog):
    # 3x3 grid, N=5: the offline DP is over its budget (as in the oracle
    # exit-4 test above), so compare drops the oracle row.
    config = _gen_config(tmp_path, grid_width=3, grid_height=3,
                         num_users=5, num_slots=2)
    scenario = tmp_path / "big.json"
    assert main(["generate", "--config", config, "--out", str(scenario)]) == 0
    caplog.set_level(logging.INFO, logger="mecsim")
    rc = main(["compare", "--scenario", str(scenario), "--beta", "1",
               "--seed", "5", "--out", str(tmp_path / "cmp")])
    assert rc == 0
    omitted = [r for r in caplog.records if "oracle row omitted" in r.getMessage()]
    assert [(r.name, r.levelno) for r in omitted] == [("mecsim", logging.INFO)]


def test_compare_notes_the_omitted_oracle_row_of_a_large_scenario(tmp_path, capsys):
    # 3x2 grid, N=8: the oracle's placements alone are over its budget.
    config = _gen_config(tmp_path, grid_width=3, grid_height=2,
                         num_users=8, num_slots=4)
    scenario = tmp_path / "big.json"
    assert main(["generate", "--config", config, "--out", str(scenario)]) == 0
    out = tmp_path / "cmp"
    rc = main(["compare", "--scenario", str(scenario), "--beta", "1",
               "--seed", "5", "--out", str(out)])
    assert rc == 0
    assert "note: oracle row omitted" in capsys.readouterr().err
    rows = _read_rows(out / "comparison.csv")
    assert [r["policy"] for r in rows] == ["threshold", "always", "never"]


def test_compare_keeps_the_oracle_row_at_four_users(tmp_path, capsys):
    # 3x1 grid, N=4, 16 slots: the offline DP computes about 1e5 values,
    # within its budget
    config = _gen_config(tmp_path, seed=9, grid_width=3, grid_height=1,
                         num_users=4, num_slots=16)
    scenario = tmp_path / "n4.json"
    assert main(["generate", "--config", config, "--out", str(scenario)]) == 0
    out = tmp_path / "cmp"
    rc = main(["compare", "--scenario", str(scenario), "--beta", "0,1,inf",
               "--seed", "0", "--out", str(out)])
    assert rc == 0
    assert "note" not in capsys.readouterr().err
    rows = _read_rows(out / "comparison.csv")
    assert [r["policy"] for r in rows] == [
        "threshold", "threshold", "threshold", "always", "never", "oracle"
    ]


def _compare_scenario(tmp_path: Path) -> str:
    """3x1 grid, N=3, 16 slots, generator seed 13: rows share many solves."""
    config = _gen_config(tmp_path, seed=13, grid_width=3, grid_height=1,
                         num_users=3, num_slots=16)
    scenario = tmp_path / "scenario.json"
    assert main(["generate", "--config", config, "--out", str(scenario)]) == 0
    return str(scenario)


def test_compare_solves_each_slot_and_warm_start_once(tmp_path, monkeypatch):
    scenario = _compare_scenario(tmp_path)
    keys = []
    real = ms.optimizer._solve_fresh

    def counting(s, t, warm_start=None, **kwargs):
        keys.append((t, warm_start))
        return real(s, t, warm_start=warm_start, **kwargs)

    monkeypatch.setattr(ms.optimizer, "_solve_fresh", counting)
    rc = main(["compare", "--scenario", scenario, "--beta", "0,1,inf",
               "--seed", "5", "--out", str(tmp_path / "cmp")])
    assert rc == 0
    assert [t for t, _ in keys].count(0) == 1
    assert len(keys) == len(set(keys))


def test_compare_solves_each_enumerated_slot_once(tmp_path, monkeypatch):
    # Every slot of this scenario is within _EXACT_BOUND, so solve_slot
    # enumerates it and reads no warm start: one solve per slot serves every
    # row, whatever decision a row reaches the slot from.
    scenario = _compare_scenario(tmp_path)
    s = ms.load_scenario(scenario)
    assert all(raw_decisions(s, t) <= _EXACT_BOUND for t in range(s.num_slots))
    slots = []
    real = ms.optimizer._solve_fresh

    def counting(s, t, **kwargs):
        slots.append(t)
        return real(s, t, **kwargs)

    monkeypatch.setattr(ms.optimizer, "_solve_fresh", counting)
    assert main(["compare", "--scenario", scenario, "--beta", "0,1,inf",
                 "--seed", "5", "--out", str(tmp_path / "cmp")]) == 0
    assert len(slots) == len(set(slots))


def _compare_small(seed):
    def build(path):
        ms.save_scenario(ms.generate(ms.GeneratorConfig(
            seed=seed, grid_width=3, grid_height=1, num_users=3, num_slots=16
        )), path)
    return build


def _tight_storage(path):
    config = str(REPO_ROOT / "configs" / "tight_storage.json")
    assert main(["generate", "--config", config, "--out", str(path)]) == 0


@pytest.mark.parametrize(
    "build",
    [
        *(pytest.param(_compare_small(seed), id=str(seed)) for seed in (9, 13, 3)),
        pytest.param(_tight_storage, id="tight_storage"),
    ],
)
def test_compare_walks_the_placements_once_and_forms_each_slot_layer_once(
    tmp_path, monkeypatch, build
):
    # The compare-small scenarios: every slot is enumerated by the online
    # rows, and the offline DP reads their slot layers. One placement walk
    # and one selection walk per slot serve every row; the layers are the
    # 16 slots' and the DP's pinned slot 0. Without the shared exact-slot
    # cache the counts were 17 placement walks, 49 fitting walks and 32
    # layers. On the storage-tight config every slot is past the exact
    # bound, the search finds no decision on any, and each one is
    # enumerated after all through the same cache: 1 placement walk, where
    # enumerating each fallback through a cache of its own made 3.
    scenario = tmp_path / "scenario.json"
    build(scenario)
    s = ms.load_scenario(scenario)
    calls = {"_fitting": 0, "_fitting_sums": 0, "_slot_layer": 0}
    for name in calls:
        def counted(*args, _real=getattr(ms.oracle, name), _name=name, **kwargs):
            calls[_name] += 1
            return _real(*args, **kwargs)

        monkeypatch.setattr(ms.oracle, name, counted)
    assert main(["compare", "--scenario", str(scenario), "--beta", "0,1,inf",
                 "--seed", "5", "--out", str(tmp_path / "cmp")]) == 0
    assert calls == {
        "_fitting": 1,
        "_fitting_sums": 1 + s.num_slots,
        "_slot_layer": s.num_slots + 1,
    }


@pytest.mark.parametrize(
    "betas, policies",
    [
        # always is the rule at beta 0 and never at inf: their rows share runs
        ("0,1,inf", [ms.Policy.threshold(0.0), ms.Policy.threshold(1.0),
                     ms.Policy.threshold(math.inf), ms.Policy.oracle()]),
        ("0.5", [ms.Policy.threshold(0.5), ms.Policy.always(),
                 ms.Policy.never(), ms.Policy.oracle()]),
    ],
)
def test_compare_runs_each_rule_once(tmp_path, monkeypatch, betas, policies):
    scenario = _compare_scenario(tmp_path)
    runs = []
    real = ms.cli.run_policy

    def counting(s, policy, *args, **kwargs):
        runs.append(policy)
        return real(s, policy, *args, **kwargs)

    monkeypatch.setattr(ms.cli, "run_policy", counting)
    out = tmp_path / "cmp"
    assert main(["compare", "--scenario", scenario, "--beta", betas,
                 "--seed", "5", "--out", str(out)]) == 0
    assert runs == policies
    rows = _read_rows(out / "comparison.csv")
    assert len(rows) == betas.count(",") + 4
    assert len(list(out.iterdir())) == 2 * len(rows) + 1


def test_compare_hashes_the_scenario_file_once(tmp_path, monkeypatch):
    # every row's summary carries the same digest of the one scenario file
    scenario = _compare_scenario(tmp_path)
    paths = []
    real = ms.cli.scenario_digest

    def counting(path):
        paths.append(path)
        return real(path)

    monkeypatch.setattr(ms.cli, "scenario_digest", counting)
    rc = main(["compare", "--scenario", scenario, "--beta", "0,1,inf",
               "--out", str(tmp_path / "cmp")])
    assert rc == 0
    assert paths == [scenario]
    digests = {
        json.loads(path.read_text(encoding="utf-8"))["scenario_sha256"]
        for path in (tmp_path / "cmp").glob("*.json")
    }
    assert digests == {real(scenario)}


def test_compare_rows_equal_what_run_writes(tmp_path):
    scenario = _compare_scenario(tmp_path)
    compared = tmp_path / "cmp"
    assert main(["compare", "--scenario", scenario, "--beta", "0,1,inf",
                 "--seed", "7", "--out", str(compared)]) == 0
    alone = tmp_path / "run"
    for flags in (["--policy", "threshold", "--beta", "0"],
                  ["--policy", "threshold", "--beta", "1"],
                  ["--policy", "threshold", "--beta", "inf"],
                  ["--policy", "always"], ["--policy", "never"],
                  ["--policy", "oracle"]):
        assert main(["run", "--scenario", scenario, *flags,
                     "--seed", "7", "--out", str(alone)]) == 0
    names = sorted(p.name for p in alone.iterdir())
    assert len(names) == 12
    assert sorted(p.name for p in compared.iterdir()) == sorted(
        names + ["comparison.csv"]
    )
    for name in names:
        assert (compared / name).read_bytes() == (alone / name).read_bytes(), name


def test_run_and_compare_solve_the_storage_tight_config(tmp_path):
    # services fill 98% of cloud storage; the search alone finds no decision
    # on any slot, and the enumeration settles each one
    scenario = str(tmp_path / "tight.json")
    config = str(REPO_ROOT / "configs" / "tight_storage.json")
    assert main(["generate", "--config", config, "--out", scenario]) == 0
    assert main(["run", "--scenario", scenario, "--out", str(tmp_path / "run")]) == 0
    out = tmp_path / "cmp"
    assert main(["compare", "--scenario", scenario, "--beta", "0,1,inf",
                 "--out", str(out)]) == 0
    rows = _read_rows(out / "comparison.csv")
    assert [r["policy"] for r in rows][-1] == "oracle"
    totals = [float(r["total"]) for r in rows]
    assert totals[-1] <= min(totals[:-1])


def test_the_cached_parser_carries_nothing_between_calls(walkthrough_path, tmp_path):
    # one parser serves every main() call of the process; each call's
    # options start from the defaults
    out = tmp_path / "o"
    assert main(["run", "--scenario", str(walkthrough_path), "--policy", "never",
                 "--margin", "0.01", "--out", str(out)]) == 0
    assert main(["run", "--scenario", str(walkthrough_path), "--out", str(out)]) == 0
    summary = json.loads((out / "threshold_beta1.0_seed0.json").read_text(encoding="utf-8"))
    assert summary["config"] == {
        "solver": {"margin": ms.SolverConfig().margin},
        "controller": {"policy": "threshold", "beta": 1.0},
    }
    never = json.loads((out / "never_seed0.json").read_text(encoding="utf-8"))
    assert never["config"]["solver"]["margin"] == 0.01


def test_compare_rejects_malformed_beta_list(walkthrough_path, tmp_path):
    rc = main(["compare", "--scenario", str(walkthrough_path),
               "--beta", "0,x", "--out", str(tmp_path / "o")])
    assert rc == 2


# ---------------------------------------------------------------------------
# exit 2 is for bad input only


@pytest.mark.parametrize(
    "solver",
    [
        {"margin": [0.1]}, {"margin": "nan"}, {"margin": "0.001"},
        {"margin": False}, {"margin": 10**400},
    ],
)
def test_run_malformed_solver_config_value_exits_2(walkthrough_path, tmp_path, solver):
    config = _write_json(tmp_path / "c.json", {"solver": solver})
    rc = main(["run", "--scenario", str(walkthrough_path), "--config", config,
               "--out", str(tmp_path / "o")])
    assert rc == 2


@pytest.mark.parametrize(
    "doc, rc",
    [
        ({"controller": {"beta": "2"}}, 2),
        ({"controller": {"beta": True}}, 2),
        ({"output": {"dir": 5}}, 2),
        ({"controller": {"beta": "inf"}}, 0),  # as a run summary writes it
        ({"controller": {"beta": 10**400}}, 2),  # too large for a float
    ],
)
def test_run_controller_and_output_config_values(
    walkthrough_path, tmp_path, monkeypatch, doc, rc
):
    monkeypatch.chdir(tmp_path)
    config = _write_json(tmp_path / "c.json", doc)
    assert main(["run", "--scenario", str(walkthrough_path), "--config", config]) == rc


@pytest.mark.parametrize(
    "doc, prefix",
    [
        ({"controller": {"beta": 10**401}},
         "bad policy setting: beta must be a nonnegative number, got 1000"),
        ({"solver": {"margin": 10**401}},
         "bad solver setting: margin must be a finite number >= 0, got 1000"),
    ],
    ids=["beta", "margin"],
)
def test_an_oversized_config_number_is_echoed_cut_short(
    walkthrough_path, tmp_path, capsys, doc, prefix
):
    # a 402-character number is echoed as its first 20 characters and "..."
    config = _write_json(tmp_path / "c.json", doc)
    rc = main(["run", "--scenario", str(walkthrough_path), "--config", config,
               "--out", str(tmp_path / "o")])
    assert rc == 2
    err = capsys.readouterr().err
    assert prefix in err
    assert "0" * 17 + "..." in err
    assert "0" * 21 not in err
    assert len(err) < 150


def test_an_oversized_number_is_echoed_cut_short_by_each_check():
    with pytest.raises(ValueError) as exc:
        ms.Policy.threshold(10**401)
    assert str(exc.value) == (
        "beta must be a nonnegative number, got 10000000000000000000..."
    )
    with pytest.raises(ValueError, match=r"got 10000000000000000000\.\.\.$"):
        ms.SolverConfig(margin=10**401)
    with pytest.raises(ValueError, match=r"got 10000000000000000000\.\.\.$"):
        ms.ControllerState(
            prev_decision=ms.SlotDecision((0,), (0,)), last_migration_slot=0,
            accumulated_t2=10**401, beta=1.0,
        )
    with pytest.raises(ValueError, match="got an integer too long to print$"):
        ms.SolverConfig(margin=10**5000)


@pytest.mark.parametrize("command", ["run", "compare"])
def test_negative_seed_exits_2(walkthrough_path, tmp_path, capsys, command):
    rc = main([command, "--scenario", str(walkthrough_path), "--seed", "-1",
               "--out", str(tmp_path / "o")])
    assert rc == 2
    assert "--seed" in capsys.readouterr().err


def test_internal_value_error_is_not_reported_as_bad_input(
    walkthrough_path, tmp_path, monkeypatch
):
    def broken(*args, **kwargs):
        raise ValueError("internal bookkeeping failed")

    monkeypatch.setattr(ms.policy, "solve_slot", broken)
    with pytest.raises(ValueError, match="internal bookkeeping"):
        main(["run", "--scenario", str(walkthrough_path), "--out", str(tmp_path / "o")])


@pytest.mark.parametrize(
    "error, code",
    [
        (ms.EmptyCoverageError(0, 0), 3),
        (ms.InfeasibleError("x"), 3),
        (ms.NoInteriorPointError("x"), 3),
        (ms.RoundingFailedError("x"), 3),
        (ms.ParseError("x"), 2),
        (ms.DimensionMismatchError("x"), 2),
        (ms.NonPositiveCapacityError("x"), 2),
        (ms.UncoverableAreaError("x"), 2),
        (FileNotFoundError("x"), 2),
        (ms.OracleTooLargeError("x"), 4),
        (ValueError("x"), None),
    ],
    ids=lambda value: type(value).__name__ if isinstance(value, Exception) else str(value),
)
def test_each_error_class_gets_its_exit_code(
    walkthrough_path, tmp_path, monkeypatch, error, code
):
    # run_policy, not cmd_run: the cached parser holds the cmd_run it was built with
    def failing(*args, **kwargs):
        raise error

    monkeypatch.setattr(ms.cli, "run_policy", failing)
    argv = ["run", "--scenario", str(walkthrough_path), "--out", str(tmp_path / "o")]
    if code is None:  # any other ValueError is a bug and propagates
        with pytest.raises(type(error)):
            main(argv)
    else:
        assert main(argv) == code


@pytest.mark.parametrize("bounds", [["low", 1.0], [0.5, 10**400]])
def test_generate_non_numeric_range_exits_2(tmp_path, bounds):
    config = _gen_config(tmp_path, demand_range=bounds)
    assert main(["generate", "--config", config, "--out", str(tmp_path / "s.json")]) == 2


@pytest.mark.parametrize("where", ["config", "scenario"])
def test_json_integer_over_the_digit_limit_exits_2(walkthrough_path, tmp_path, capsys, where):
    # json.loads refuses integers of more than 4,300 digits with ValueError
    huge = "1" + "0" * 5000
    config = tmp_path / "c.json"
    config.write_text('{"solver": {"margin": %s}}' % huge, encoding="utf-8")
    scenario = tmp_path / "s.json"
    scenario.write_text(
        json.dumps(make_doc()).replace('"num_clouds": 3', f'"num_clouds": {huge}'),
        encoding="utf-8",
    )
    args = {"config": ["--scenario", str(walkthrough_path), "--config", str(config)],
            "scenario": ["--scenario", str(scenario)]}[where]
    assert main(["run", *args, "--out", str(tmp_path / "o")]) == 2
    assert f"{where} file" in capsys.readouterr().err


def test_run_non_utf8_scenario_exits_2(tmp_path):
    scenario = tmp_path / "s.json"
    scenario.write_bytes(b"\xff\xfe{")
    assert main(["run", "--scenario", str(scenario), "--out", str(tmp_path / "o")]) == 2


@pytest.mark.parametrize(
    "field, value",
    [("seed", "x"), ("num_users", 2.5), ("spacing", True),
     ("spacing", float("nan")), ("demand_range", [0.5, float("inf")]),
     ("demand_range", ["0.5", "1.5"]), ("speed_range", [0.05, True]),
     ("spacing", 10**400)],
)
def test_generate_malformed_field_type_exits_2(tmp_path, capsys, field, value):
    config = _gen_config(tmp_path, **{field: value})
    assert main(["generate", "--config", config, "--out", str(tmp_path / "s.json")]) == 2
    assert f"generator.{field}" in capsys.readouterr().err


@pytest.mark.parametrize("section", [5, None, [1, 2], "seed"])
def test_generate_section_that_is_not_a_mapping_exits_2(tmp_path, capsys, section):
    # 5 and null raised a bare TypeError; a list or a string was read as
    # its items, "unknown generator field: 1"
    config = _write_json(tmp_path / "c.json", {"generator": section})
    assert main(["generate", "--config", config, "--out", str(tmp_path / "s.json")]) == 2
    assert "config section generator must be a mapping" in capsys.readouterr().err


@pytest.mark.parametrize("depth", [0, 1, 2])  # the whole field, a slot, a user
def test_run_coverage_not_a_list_exits_2(tmp_path, capsys, depth):
    doc = make_doc()
    holder, key = doc, "coverage"
    for _ in range(depth):
        holder, key = holder[key], 0
    holder[key] = 5
    scenario = _write_json(tmp_path / "s.json", doc)
    assert main(["run", "--scenario", scenario, "--out", str(tmp_path / "o")]) == 2
    assert "must be a list" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# the run seed names a run and changes nothing it computes


def test_seed_only_names_the_run(tmp_path):
    scenario = _compare_scenario(tmp_path)
    outs = {}
    for seed in ("1", "2"):
        out = outs[seed] = tmp_path / f"seed{seed}"
        assert main(["run", "--scenario", scenario, "--beta", "1", "--seed", seed,
                     "--out", str(out)]) == 0
        assert main(["compare", "--scenario", scenario, "--beta", "0,1,inf",
                     "--seed", seed, "--out", str(out / "cmp")]) == 0
    one, two = outs["1"], outs["2"]
    assert (one / "threshold_beta1.0_seed1.csv").read_bytes() == (
        two / "threshold_beta1.0_seed2.csv"
    ).read_bytes()
    first, second = (
        json.loads((out / f"threshold_beta1.0_seed{seed}.json").read_text(encoding="utf-8"))
        for seed, out in outs.items()
    )
    assert {k for k in first if first[k] != second[k]} == {"seed", "run_id"}
    assert (one / "cmp" / "comparison.csv").read_bytes() == (
        two / "cmp" / "comparison.csv"
    ).read_bytes()


# ---------------------------------------------------------------------------
# an oracle that has no decision at the margin


def _margin_infeasible_slot_doc() -> dict:
    """One cloud, one user, C = 2: slot 1's demand fits at margin 0 but not
    at the default margin, so no policy is forced there and the offline DP
    finds no decision for it."""
    return {
        "num_clouds": 1, "num_users": 1, "num_slots": 2,
        "bs_capacity": [2.0], "cloud_capacity": [5.0], "service_size": [1.0],
        "link_latency": [[[0.0]], [[0.0]]], "coverage": [[[0]], [[0]]],
        "demand": [[1.0], [1.9999999]],
    }


def test_compare_omits_an_oracle_row_with_no_feasible_slot(tmp_path, capsys, caplog):
    scenario = _write_json(tmp_path / "s.json", _margin_infeasible_slot_doc())
    assert main(["run", "--scenario", scenario, "--policy", "threshold", "--beta", "1",
                 "--out", str(tmp_path / "run")]) == 0
    rows = _read_rows(tmp_path / "run" / "threshold_beta1.0_seed0.csv")
    assert [(r["migrated"], r["forced"]) for r in rows] == [("0", "0"), ("0", "0")]
    assert main(["run", "--scenario", scenario, "--policy", "oracle",
                 "--out", str(tmp_path / "run")]) == 3
    capsys.readouterr()

    caplog.set_level(logging.INFO, logger="mecsim")
    out = tmp_path / "cmp"
    assert main(["compare", "--scenario", scenario, "--beta", "1", "--out", str(out)]) == 0
    assert "note: oracle row omitted: no feasible decision at slot 1" in (
        capsys.readouterr().err
    )
    assert any("oracle row omitted" in r.getMessage() for r in caplog.records)
    rows = _read_rows(out / "comparison.csv")
    assert [r["policy"] for r in rows] == ["threshold", "always", "never"]


# ---------------------------------------------------------------------------
# unreadable or misshapen inputs exit 2


def test_run_missing_scenario_file_exits_2(tmp_path, capsys):
    rc = main(["run", "--scenario", str(tmp_path / "absent.json"),
               "--out", str(tmp_path / "o")])
    assert rc == 2
    assert "absent.json" in capsys.readouterr().err


def test_run_unreadable_config_exits_2(walkthrough_path, tmp_path, capsys):
    rc = main(["run", "--scenario", str(walkthrough_path),
               "--config", str(tmp_path / "absent.json"), "--out", str(tmp_path / "o")])
    assert rc == 2
    assert "cannot read config file" in capsys.readouterr().err


@pytest.mark.parametrize(
    "doc, message",
    [
        ([{"solver": {"margin": 0.1}}], "config document must be a mapping"),
        ({"solver": [0.1]}, "config section solver must be a mapping"),
        ({"controller": "threshold"}, "config section controller must be a mapping"),
        ({"output": None}, "config section output must be a mapping"),
    ],
)
def test_run_config_that_is_not_a_mapping_exits_2(
    walkthrough_path, tmp_path, capsys, doc, message
):
    config = _write_json(tmp_path / "c.json", doc)
    rc = main(["run", "--scenario", str(walkthrough_path), "--config", config,
               "--out", str(tmp_path / "o")])
    assert rc == 2
    assert message in capsys.readouterr().err


def test_compare_runs_a_repeated_beta_once(walkthrough_path, tmp_path):
    # 0 and -0 are one rule: each rule gets one row and one pair of files
    out = tmp_path / "cmp"
    assert main(["compare", "--scenario", str(walkthrough_path),
                 "--beta", "0,-0,1,0", "--out", str(out)]) == 0
    rows = _read_rows(out / "comparison.csv")
    assert [(r["policy"], r["beta"]) for r in rows] == [
        ("threshold", "0.0"), ("threshold", "1.0"),
        ("always", ""), ("never", ""), ("oracle", ""),
    ]


def test_compare_skips_empty_beta_entries(walkthrough_path, tmp_path):
    out = tmp_path / "cmp"
    assert main(["compare", "--scenario", str(walkthrough_path),
                 "--beta", "0,,1", "--out", str(out)]) == 0
    rows = _read_rows(out / "comparison.csv")
    assert [(r["policy"], r["beta"]) for r in rows] == [
        ("threshold", "0.0"), ("threshold", "1.0"),
        ("always", ""), ("never", ""), ("oracle", ""),
    ]
