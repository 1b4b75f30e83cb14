"""CLI and pipeline: config parsing, determinism, stage reruns, plots."""

import csv
import dataclasses
import gc
import hashlib
import json
import os
import pathlib
import reprlib
import shutil
import subprocess
import sys

import jsonschema
import numpy as np
import pytest
import yaml
from click.testing import CliRunner
from hypothesis import given, settings
from hypothesis import strategies as st

import copycart
import copycart.cli.pipeline as pipeline_mod
from copycart.cli.config import N_BOOT_MAX, RunConfig, load_yaml
from copycart.cli.main import main
from copycart.cli.pipeline import load_results, load_schema, run_pipeline, schema_violation
from copycart.cli.plots import emit_plots
from copycart.errors import ConfigError, IngestError
from copycart.estimate import GROUPINGS, subgroup_estimates
from copycart.matching import PAIR_COLUMNS
from copycart.model import Demographics, PersonRecord
from copycart.sim import SimulationConfig, simulate, write_simulation

from test_estimate import pairs_from_outcomes
from test_fuzz import DROP, json_paths

GOLDEN_DIR = os.path.join(os.path.dirname(__file__), "golden")
DIGESTS = os.path.join(GOLDEN_DIR, "digests.json")


def invoke(*args):
    return CliRunner().invoke(main, [str(a) for a in args])


def tree_bytes(root):
    out = {}
    for base, _dirs, files in os.walk(root):
        for name in files:
            path = os.path.join(base, name)
            with open(path, "rb") as fh:
                out[os.path.relpath(path, root)] = fh.read()
    return out


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli")
    cfg = SimulationConfig(seed=7, n_persons=400, n_days=100, delta={"dessert": 0.15})
    write_simulation(simulate(cfg), root / "data")
    conf = {
        "input": {
            "transactions": str(root / "data" / "transactions.csv"),
            "catalog": str(root / "data" / "catalog.csv"),
            "demographics": str(root / "data" / "demographics.csv"),
        },
        "estimation": {"seed": 11, "n_boot": 200},
        "analyses": {
            "baseline": True,
            "sensitivity": True,
            "dose_response": True,
            "coordination": True,
            "subgroups": ["partner_status", "daypart"],
            "anchor_mimicry": True,
            "infer_status": True,
        },
    }
    (root / "run.yaml").write_text(yaml.safe_dump(conf), encoding="utf-8")
    return root


@pytest.fixture(scope="module")
def first_run(workdir):
    out = workdir / "out_a"
    res = invoke("--config", workdir / "run.yaml", "--out", out, "run")
    assert res.exit_code == 0, res.output
    with open(out / "results.json", encoding="utf-8") as fh:
        return json.load(fh), out


# -- config ------------------------------------------------------------------


def test_config_requires_seed_and_inputs():
    with pytest.raises(ConfigError, match="seed"):
        RunConfig.from_dict({"transactions": "t.csv", "catalog": "c.csv"})
    with pytest.raises(ConfigError, match="transactions"):
        RunConfig.from_dict({"catalog": "c.csv", "seed": 1})


def test_config_rejects_unknown_keys():
    base = {"transactions": "t.csv", "catalog": "c.csv", "seed": 1}
    with pytest.raises(ConfigError, match="bogus"):
        RunConfig.from_dict(dict(base, bogus=2))
    with pytest.raises(ConfigError, match="typo_key"):
        RunConfig.from_dict(dict(base, analyses={"typo_key": True}))


def test_config_nested_sections_and_overrides():
    cfg = RunConfig.from_dict(
        {
            "input": {"transactions": "t.csv", "catalog": "c.csv"},
            "dyads": {"max_gap_s": 120, "min_pair_count": 5},
            "estimation": {"seed": 3, "n_boot": 50},
            "analyses": {"subgroups": ["daypart"], "baseline": False},
            "adjustment": {"caliper": 0.2},
        },
        seed=99,
        out="elsewhere",
    )
    assert cfg.seed == 99
    assert cfg.out == "elsewhere"
    assert cfg.max_gap_s == 120 and cfg.min_pair_count == 5
    assert cfg.n_boot == 50 and cfg.baseline is False
    assert cfg.subgroups == ("daypart",)
    assert cfg.adjustment.caliper == 0.2
    # keys left out of the section keep the CLI defaults
    assert cfg.adjustment.exclude_own_transactions is True


@pytest.mark.parametrize("data", [
    {"max_gap_s": 40, "dyads": {"max_gap_s": 300}},
    {"dyads": {"max_gap_s": 300}, "max_gap_s": 40},
], ids=["flat_first", "section_first"])
def test_config_key_given_twice_is_an_error(data):
    # whichever form came later used to win without a word
    base = {"transactions": "t.csv", "catalog": "c.csv", "seed": 1}
    with pytest.raises(ConfigError, match="'max_gap_s' is given both at the top level and in its section"):
        RunConfig.from_dict(dict(base, **data))


def test_readme_config_block_holds_the_defaults():
    """README's `## Configuration` block loads, and sets every key other than
    the inputs and the seed to its default, so it names no removed key."""
    readme = (pathlib.Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    block = readme.split("\n## Configuration\n", 1)[1].split("```yaml\n", 1)[1].split("```", 1)[0]
    cfg = RunConfig.from_dict(yaml.safe_load(block))
    default = RunConfig(transactions=cfg.transactions, catalog=cfg.catalog,
                        demographics=cfg.demographics, seed=cfg.seed)
    assert dataclasses.asdict(cfg) == dataclasses.asdict(default)


def test_library_defaults_match_the_run_config():
    """A library call without options analyses as a run with the default config does."""
    import inspect

    from copycart import dyads as D
    from copycart import estimate as E
    from copycart.matching import AdjustmentSpec

    cfg = RunConfig(transactions="t.csv", catalog="c.csv", seed=1)

    def default(fn, name):
        return inspect.signature(fn).parameters[name].default

    assert default(D.extract_dyads, "max_gap_s") == cfg.max_gap_s
    assert default(D.filter_frequent_pairs, "min_count") == cfg.min_pair_count
    assert default(D.select_additions, "min_fraction") == cfg.min_fraction
    for fn in (E.effect_estimate, E.subgroup_estimates, E.dose_response, E.anchor_mimicry):
        assert default(fn, "n_rep") == cfg.n_boot, fn.__name__
        assert default(fn, "alpha") == cfg.alpha, fn.__name__
    assert default(E.subgroup_estimates, "min_pairs") == cfg.min_stratum
    assert default(E.dose_response, "max_delay_s") == cfg.max_gap_s
    assert default(E.anchor_mimicry, "spec") == AdjustmentSpec() == cfg.adjustment


def test_config_subgroups_all_run():
    cfg = RunConfig(transactions="t.csv", catalog="c.csv", seed=1, subgroups=GROUPINGS)
    pairs = pairs_from_outcomes([1, 0, 1, 1], [0, 0, 1, 0], partner_persons=["PA", "PB"] * 2)
    demo = Demographics([
        PersonRecord("PA", gender="f", status="student", birth_year=1995),
        PersonRecord("PB", gender="m", status="staff", birth_year=1970),
        PersonRecord("FB", gender="f", status="staff", birth_year=1980),
    ])
    for grouping in cfg.subgroups:
        subs = subgroup_estimates(pairs, grouping, demo, n_rep=10, seed=0, min_pairs=1)
        assert sum(e["n_pairs"] for e in subs.values()) == pairs.n, grouping
    with pytest.raises(ConfigError, match="tie_strength"):
        RunConfig(transactions="t.csv", catalog="c.csv", seed=1, subgroups=["tie_strength"])
    no_demo = RunConfig(transactions=__file__, catalog=__file__, seed=1, subgroups=["status_pair"])
    with pytest.raises(ConfigError, match="demographics"):
        no_demo.require_demographics()


def test_load_yaml_requires_mapping(tmp_path):
    p = tmp_path / "bad.yaml"
    p.write_text("- 1\n- 2\n", encoding="utf-8")
    with pytest.raises(ConfigError):
        load_yaml(p)


def test_run_without_seed_fails(workdir):
    conf = yaml.safe_load((workdir / "run.yaml").read_text())
    del conf["estimation"]["seed"]
    path = workdir / "noseed.yaml"
    path.write_text(yaml.safe_dump(conf), encoding="utf-8")
    res = invoke("--config", path, "--out", workdir / "never", "run")
    assert res.exit_code == 1
    assert "seed" in res.output


@pytest.mark.parametrize("patch, message", [
    ({"threads": 2}, "unknown config key 'threads'"),
    ({"estimation": {"n_boot": "ten"}}, ""),
    ({"estimation": {"alpha": "x"}}, ""),
    ({"dyads": {"max_gap_s": None}}, ""),
    ({"adjustment": {"caliper": 1.5}}, ""),
    ({"adjustment": 5}, ""),
    ({"adjustment": {"bogus": 1}}, "unknown key 'bogus' in config section 'adjustment'"),
    ({"analyses": {"baseline": "no"}}, ""),
    ({"dyads": {"require_anchor": "false"}}, "unknown key 'require_anchor' in config section 'dyads'"),
    ({"require_balance": "false"}, ""),
    ({"adjustment": {"exclude_own_transactions": "no"}}, ""),
    ({"dyads": {"min_fraction": 2}}, ""),
    ({"dyads": {"min_fraction": -0.5}}, ""),
    ({"estimation": {"min_stratum": -3}}, ""),
    ({"estimation": {"n_boot": 10**12}}, "n_boot 1000000000000 is above 1000000"),
    ({"estimation": {"seed": 1.5}}, "seed must be an integer, got 1.5"),
    ({"estimation": {"seed": True}}, "seed must be an integer, got True"),
    ({"estimation": {"seed": "7"}}, "seed must be an integer, got '7'"),
], ids=["threads", "n_boot", "alpha", "max_gap_s", "caliper", "adjustment_scalar",
        "adjustment_key", "baseline_string", "require_anchor_string", "require_balance_string",
        "adjustment_bool_string",
        "min_fraction_above_1", "min_fraction_negative", "min_stratum_negative", "n_boot_above_bound",
        "seed_float", "seed_bool", "seed_string"])
def test_config_type_errors_exit_cleanly(workdir, tmp_path, patch, message):
    conf = yaml.safe_load((workdir / "run.yaml").read_text())
    for key, value in patch.items():
        if isinstance(value, dict) and key in conf:
            conf[key].update(value)
        else:
            conf[key] = value
    path = tmp_path / "bad.yaml"
    path.write_text(yaml.safe_dump(conf), encoding="utf-8")
    res = invoke("--config", path, "--out", tmp_path / "o", "run")
    assert res.exit_code == 1
    assert f"[errors.ConfigError] {message}" in res.output
    assert isinstance(res.exception, SystemExit)  # a message, not a traceback


@pytest.mark.parametrize("seed", ["1.5", "true", '"7"'])
def test_simulate_seed_of_wrong_type_is_a_config_error(tmp_path, seed):
    # each once ran as seed 1, 1 and 7; no `--seed`, which would override `--set seed`
    res = invoke("--out", tmp_path, "simulate", "--set", "n_persons=60", "--set", "n_days=10",
                 "--set", f"seed={seed}")
    assert res.exit_code == 1
    assert "[errors.ConfigError] seed must be an integer" in res.output
    assert isinstance(res.exception, SystemExit)


def test_n_boot_below_two_over_alpha_is_a_config_error(tmp_path):
    # with fewer than 2 / alpha replicates a percentile tail holds none, and
    # `n_boot: 1` printed `dessert: rd -0.0299 [-0.1493, -0.1493]`
    write_simulation(simulate(SimulationConfig(seed=3, n_persons=200, n_days=60)), tmp_path / "in")
    conf = {"input": {k: str(tmp_path / "in" / f"{k}.csv") for k in ("transactions", "catalog")},
            "estimation": {"seed": 1, "alpha": 0.05}, "analyses": {"baseline": False, "sensitivity": False}}

    def run(n_boot):
        conf["estimation"]["n_boot"] = n_boot
        (tmp_path / "run.yaml").write_text(yaml.safe_dump(conf), encoding="utf-8")
        return invoke("--config", tmp_path / "run.yaml", "--out", tmp_path / "out", "run")

    res = run(39)
    assert res.exit_code == 1 and "[errors.ConfigError]" in res.output
    assert "n_boot 39 is below ceil(2 / alpha) = 40 for alpha 0.05" in res.output
    res = run(40)
    assert res.exit_code == 0, res.output
    results = json.loads((tmp_path / "out" / "results.json").read_text(encoding="utf-8"))
    estimates = [it["estimate"] for it in results["items"] if it["status"] == "ok"]
    assert estimates and all(lo < hi for lo, hi in (e["rd_ci"] for e in estimates))


def test_n_boot_has_an_upper_bound():
    # `n_boot: 10**12` ended in numpy's "Unable to allocate 29.1 TiB" traceback;
    # only constructed here, since a draw at the bound holds 32 MB
    base = dict(transactions="t.csv", catalog="c.csv", seed=1)
    assert RunConfig(**base, n_boot=N_BOOT_MAX).n_boot == N_BOOT_MAX
    with pytest.raises(ConfigError, match=f"n_boot {N_BOOT_MAX + 1} is above {N_BOOT_MAX}"):
        RunConfig(**base, n_boot=N_BOOT_MAX + 1)
    assert RunConfig(**base, alpha=2 / N_BOOT_MAX, n_boot=N_BOOT_MAX).alpha == 2 / N_BOOT_MAX
    with pytest.raises(ConfigError, match="alpha 1e-06 is too small for any accepted n_boot"):
        RunConfig(**base, alpha=1e-6, n_boot=N_BOOT_MAX)


def test_threads_flag_accepts_only_1(workdir, first_run, tmp_path):
    # `--threads 1` is still accepted and changes nothing; the config key is
    # the `threads` case of test_config_type_errors_exit_cleanly
    _results, out_a = first_run
    assert "--threads" not in invoke("--help").output
    for value in (0, 2):
        res = invoke("--threads", value, "--config", workdir / "run.yaml", "--out", tmp_path / "o", "run")
        assert res.exit_code == 2 and "Invalid value for '--threads'" in res.output
    assert not (tmp_path / "o").exists()
    res = invoke("--threads", 1, "--config", workdir / "run.yaml", "--out", tmp_path / "b", "run")
    assert res.exit_code == 0, res.output
    assert tree_bytes(out_a) == tree_bytes(tmp_path / "b")


def python_c(code: str, **env: str) -> subprocess.CompletedProcess:
    """`code` run by a fresh interpreter that imports this copycart, in this
    environment plus `env`, less the OPENBLAS_NUM_THREADS that importing
    copycart.cli set here."""
    src = os.path.dirname(os.path.dirname(copycart.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    inherited = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    env = dict(inherited, PYTHONPATH=path, **env)
    return subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)


def test_cli_import_skips_scipy_stats():
    # scipy.stats costs about a second of every CLI start, and stdtr suffices;
    # scipy.special is imported only by the two tests that call stdtr
    code = (
        "import sys, copycart.cli.main; "
        "sys.exit('scipy.stats' in sys.modules or 'scipy.special' in sys.modules)"
    )
    assert python_c(code).returncode == 0


def test_cli_loads_only_what_its_stage_runs(tmp_path):
    # every CLI process pays for each import at its start: no stage needs
    # scipy or jsonschema, only `simulate` simulates, no stage starts a thread
    # pool, and no stage calls BLAS, so OpenBLAS starts no threads.
    # Thirty habitual lunch-goers meet often enough for the coordination t-test.
    cfg = SimulationConfig(
        seed=5, n_persons=30, n_days=60, n_shops=1, n_registers_per_shop=1, pair_fraction=0.9,
        visit_rate=1.0, solo_rate=0.05, daypart_weights=(0, 1, 0),
        base_probs={"lunch": {"dessert": 0.5}}, delta={"dessert": 0.3},
    )
    write_simulation(simulate(cfg), tmp_path / "in")
    conf = {
        "input": {k: str(tmp_path / "in" / f"{k}.csv") for k in ("transactions", "catalog")},
        "estimation": {"seed": 1, "n_boot": 50},
        "analyses": {"coordination": True},
    }
    (tmp_path / "run.yaml").write_text(yaml.safe_dump(conf), encoding="utf-8")
    args = ["--config", str(tmp_path / "run.yaml"), "--out", str(tmp_path / "out")]
    assert invoke(*args, "run").exit_code == 0
    # the one validated report that holds a real coordination test
    results = json.loads((tmp_path / "out" / "results.json").read_text(encoding="utf-8"))
    jsonschema.validate(results, load_schema())
    report = next(it for it in results["items"] if it["item"] == "dessert")["coordination"]
    assert isinstance(report["p"], float) and 0.0 < report["p"] < 1.0
    assert json.loads(invoke(*args, "coordinate", "--item", "dessert").output)["p"] == report["p"]
    code = f"""
import os, sys
import copycart.cli.main as cli
def loaded():
    return [m for m in ("scipy", "jsonschema", "copycart.sim", "concurrent.futures") if m in sys.modules]
def threads():
    return len(os.listdir("/proc/self/task")) if os.path.isdir("/proc/self/task") else 1
assert not loaded(), loaded()
assert threads() == 1, threads()
for stage in (["run"], ["plot"], ["dose", "--item", "dessert"], ["coordinate", "--item", "dessert"]):
    cli.main.main(args={args!r} + stage, standalone_mode=False)
    assert not loaded(), (stage, loaded())
    assert threads() == 1, (stage, threads())
"""
    res = python_c(code)
    assert res.returncode == 0, res.stderr
    assert '"p_rd":' in res.stdout and '"p":' in res.stdout  # both t tests ran
    # a thread count the user set is kept
    code = "import os, copycart.cli; assert os.environ['OPENBLAS_NUM_THREADS'] == '3'"
    res = python_c(code, OPENBLAS_NUM_THREADS="3")
    assert res.returncode == 0, res.stderr


def test_cli_package_import_loads_no_stage():
    # `copycart.cli` only sets the OpenBLAS default; each stage's imports are
    # paid by the module that runs it
    code = (
        "import sys, copycart.cli; "
        "sys.exit([m for m in ('numpy', 'copycart.cli.pipeline') if m in sys.modules] or None)"
    )
    res = python_c(code)
    assert res.returncode == 0, res.stderr


def test_process_entry_freezes_the_import_heap():
    # `python -m copycart.cli.main` freezes what its imports built, so no
    # collection walks it, the one at exit included
    code = """
import gc, runpy, sys
sys.argv[1:] = ["--help"]
try:
    runpy.run_module("copycart.cli.main", run_name="__main__")
except SystemExit as exc:
    assert exc.code == 0, exc.code
assert gc.get_freeze_count() > 0
"""
    res = python_c(code)
    assert res.returncode == 0, res.stderr
    assert "Usage:" in res.stdout


def test_import_and_in_process_main_freeze_nothing(tmp_path):
    # this session imported copycart.cli.main; CliRunner and perfbench's
    # tracer call `main` in-process, where a freeze would pin their garbage
    assert gc.get_freeze_count() == 0
    res = invoke("--seed", 3, "--out", tmp_path / "sim", "simulate", "--set", "n_persons=20",
                 "--set", "n_days=5")
    assert res.exit_code == 0, res.output
    assert gc.get_freeze_count() == 0


# -- full pipeline -----------------------------------------------------------


def test_results_validate_against_shipped_schema(first_run):
    results, out = first_run
    jsonschema.validate(results, load_schema())
    assert schema_violation(results, load_schema()) is None
    assert results["version"] == 2
    assert results["seed"] == 11
    assert results["counts"]["n_transactions"] > 0
    assert results["counts"]["n_dyads_raw"] >= results["counts"]["n_dyads"] > 0
    items = [it["item"] for it in results["items"]]
    assert items == sorted(items)
    assert "dessert" in items


# a coordination report whose Welch statistic is infinite, so `t` is null
COORDINATION_REPORT = {
    "item": "dessert", "n_pairs": 3, "n_leader_first": 30, "n_follower_first": 30,
    "rate_leader_first": 1.0, "rate_follower_first": 0.0, "t": None, "p": 0.0, "df": 4.0,
}


@pytest.mark.parametrize("analysis, key", [("coordination", "p"), ("sensitivity", "p_at")])
def test_schema_requires_every_report_key(tmp_path, first_run, analysis, key):
    results, _out = first_run
    path = tmp_path / "results.json"

    def load(report):
        path.write_text(json.dumps(report), encoding="utf-8")
        return load_results(str(path))

    damaged = json.loads(json.dumps(results))
    item = next(it for it in damaged["items"] if it["item"] == "dessert")
    # this run has too few habitual pairs for a coordination report of its own
    item["coordination"] = dict(COORDINATION_REPORT)
    report = item[analysis]
    assert key in report and load(damaged) == damaged
    item[analysis] = {"status": "InsufficientDataError", "detail": "too few"}
    load(damaged)  # a status in place of the report still passes
    del report[key]
    item[analysis] = report
    with pytest.raises(IngestError, match=f"\\.{analysis}: .* is valid under none of the given schemas"):
        load(damaged)


@pytest.mark.parametrize("node", ["baseline", "sensitivity", "dose_response", "coordination",
                                  "meal_vegetarian", "beverage_kind"])
@pytest.mark.parametrize("value, valid", [
    ({"status": "NoPairsError", "detail": "too few"}, True),
    ({"bogus": 1}, False),
    ({"status": "no_pairs", "detail": "too few"}, False),  # not an error type's name
    ({"status": "NoPairsError"}, False),
    ({"status": "NoPairsError", "detail": "too few", "item": "dessert"}, False),
])
def test_analysis_node_is_its_report_or_a_status(tmp_path, first_run, node, value, valid):
    # each analysis node and each anchor is its report or the one status
    # shape, under both checkers and on the way back in
    results, _out = first_run
    damaged = json.loads(json.dumps(results))
    dessert = next(it for it in damaged["items"] if it["item"] == "dessert")
    (dessert if node in dessert else damaged["anchor_mimicry"])[node] = value
    assert (schema_violation(damaged, load_schema()) is None) is valid
    assert jsonschema.Draft7Validator(load_schema()).is_valid(damaged) is valid
    path = tmp_path / "results.json"
    path.write_text(json.dumps(damaged), encoding="utf-8")
    if valid:
        assert load_results(str(path)) == damaged
    else:
        with pytest.raises(IngestError, match=f"not a copycart report: .*{node}"):
            load_results(str(path))


def test_status_names_the_errors_of_an_analysis_that_cannot_run():
    status = load_schema()["definitions"]["status"]["properties"]["status"]
    assert status["enum"] == [err.__name__ for err in pipeline_mod.CANNOT_RUN]


@pytest.mark.parametrize("schema, instance, valid", [
    ({"const": 1}, True, False),  # true is not 1
    ({"const": 1}, 1.0, True),  # but 1.0 is
    ({"enum": [0, "a"]}, False, False),
    ({"const": [1, {"a": True}]}, [1.0, {"a": True}], True),
    ({"type": "integer"}, 1.0, True),
    ({"type": "integer"}, 1.5, False),
    ({"type": "integer"}, True, False),
    ({"type": "number"}, False, False),
    ({"type": ["object", "null"]}, None, True),
    ({"type": ["object", "null"]}, [], False),
    ({"minimum": 0}, True, True),  # a bound applies to numbers only, and a bool is none
    ({"minimum": 0}, -1, False),
    ({"minimum": 0}, "x", True),
    ({"exclusiveMinimum": 0, "exclusiveMaximum": 1}, float("nan"), True),
    ({"exclusiveMinimum": 0, "exclusiveMaximum": 1}, 0, False),
    ({"exclusiveMinimum": 0, "exclusiveMaximum": 1}, 1.0, False),
    ({"pattern": "^[a-z_]+$"}, "a b", False),
    ({"pattern": "[a-z]"}, "1a1", True),  # a search, not a full match
    ({"items": {"type": "number"}, "minItems": 2, "maxItems": 2}, [1, 2.5], True),
    ({"items": {"type": "number"}, "minItems": 2, "maxItems": 2}, [1], False),
    ({"items": {"type": "number"}, "minItems": 2, "maxItems": 2}, [1, "2"], False),
    ({"items": {"type": "number"}, "minItems": 2}, {"a": 1}, True),
    ({"required": ["a"], "properties": {"a": {"type": "string"}}}, {"a": 1}, False),
    ({"required": ["a"]}, ["a"], True),
    ({"additionalProperties": False, "properties": {"a": {}}}, {"a": 1, "b": 2}, False),
    ({"additionalProperties": {"type": "object"}, "properties": {"a": {}}}, {"a": 1, "b": {}}, True),
    ({"additionalProperties": {"type": "object"}}, {"b": 1}, False),
    ({"oneOf": [{"required": ["a"]}, {"type": "array"}]}, [], False),  # `required` passes a non-object
    ({"oneOf": [{"type": "object", "required": ["a"]}, {"type": "array"}]}, [], True),
    ({"allOf": [{"type": "array"}, {"maxItems": 1}]}, [1, 2], False),
    ({"oneOf": [{"type": "number"}, {"type": "integer"}]}, 1, False),  # valid under both
    ({"oneOf": [{"type": "number"}, {"type": "integer"}]}, 1.5, True),
    ({"oneOf": [{"type": "number"}, {"type": "null"}]}, "x", False),
    ({"if": {"properties": {"s": {"const": "ok"}}}, "then": {"required": ["e"]}}, {"s": "ok"}, False),
    ({"if": {"properties": {"s": {"const": "ok"}}}, "then": {"required": ["e"]}}, {"s": "no"}, True),
    ({"if": {"properties": {"s": {"const": "ok"}}}, "then": {"required": ["e"]}}, {}, False),
    ({"if": {"type": "string"}}, 1, True),
    ({"$ref": "#/definitions/d", "type": "string", "definitions": {"d": {"type": "integer"}}}, 3, True),
    ({"$ref": "#/definitions/d", "definitions": {"d": {"$ref": "#/definitions/e"}, "e": {"const": 2}}}, 3, False),
])
def test_schema_check_keeps_draft_7_meaning(schema, instance, valid):
    assert jsonschema.Draft7Validator(schema).is_valid(instance) is valid  # the oracle agrees
    assert (schema_violation(instance, schema) is None) is valid


@pytest.mark.parametrize("schema", [
    {"format": "date"},
    {"if": {}, "then": {}, "else": {}},
    {"then": {}},
    {"items": [{"type": "number"}]},
    {"dependencies": {"a": ["b"]}},
    {"additionalProperties": "no"},
    {"type": "int"},
    {"$ref": "#/properties/a"},
    {"$ref": "#/definitions/missing"},
    {"properties": {"a": {"uniqueItems": True}}},  # never reached by the instance
    {"definitions": {"unused": {"maxLength": 3}}},
    {"items": True},
    {"dependencies": {"a": {"required": ["b"]}}},
])
def test_schema_check_rejects_keywords_it_does_not_implement(schema):
    with pytest.raises(ValueError, match="not implemented|names no definition|is not an object"):
        schema_violation({}, schema)


def test_schema_check_names_the_first_violation(first_run):
    results, _out = first_run
    damaged = json.loads(json.dumps(results))
    damaged["items"][0]["status"] = "bad"
    damaged["items"][1]["estimate"]["rd_ci"] = [0.1]
    assert schema_violation(damaged, load_schema()) == (
        "$.items[0].status", "'bad' is not one of ['ok', 'no_pairs']")
    damaged["items"][0]["status"] = "ok"
    path, message = schema_violation(damaged, load_schema())
    assert path == "$.items[1].estimate.rd_ci" and "valid under none" in message


def test_schema_check_words_no_message_for_a_valid_report(first_run, monkeypatch):
    # each analysis node's `oneOf` fails one branch on a valid report; that
    # branch's violation is discarded, so no message is worded
    results, _out = first_run
    shown = []
    real = reprlib.repr
    monkeypatch.setattr(reprlib, "repr", lambda value: shown.append(value) or real(value))
    assert schema_violation(results, load_schema()) is None
    assert shown == []


def test_run_refuses_a_report_that_breaks_the_schema(workdir, tmp_path, monkeypatch):
    monkeypatch.setattr(pipeline_mod, "RESULTS_VERSION", 3)
    cfg = RunConfig.from_dict(yaml.safe_load((workdir / "run.yaml").read_text()), out=str(tmp_path / "o"))
    with pytest.raises(ValueError, match=r"breaks the results schema at \$\.version: 2 was expected"):
        run_pipeline(dataclasses.replace(cfg, n_boot=40, subgroups=(), infer_status=False))
    assert not (tmp_path / "o" / "results.json").exists()


def _error_paths(errors):
    """The path of each jsonschema error and of each error inside one."""
    for err in errors:
        yield err.json_path
        yield from _error_paths(err.context)


REPLACEMENTS = st.one_of(
    st.just(DROP), st.none(), st.booleans(), st.integers(-2, 3), st.floats(),
    st.sampled_from(["", "ok", "no_pairs", "pooled", "Dessert", "x y",
                     *(err.__name__ for err in pipeline_mod.CANNOT_RUN)]),
    st.lists(st.floats(-1, 2), max_size=3),
    st.dictionaries(st.sampled_from(["status", "detail", "curve", "bins", "rate_leader_first", "rd"]),
                    st.one_of(st.none(), st.text(max_size=3), st.lists(st.integers(0, 1), max_size=2)),
                    max_size=2),
)


@settings(derandomize=True, deadline=None, database=None, max_examples=200)
@given(data=st.data())
def test_schema_check_agrees_with_jsonschema(first_run, data):
    results, _out = first_run
    report = json.loads(json.dumps(results))
    for _ in range(data.draw(st.integers(1, 3))):
        paths = list(json_paths(report))[1:]
        if not paths:
            break
        *parents, key = data.draw(st.sampled_from(paths))
        node = report
        for parent in parents:
            node = node[parent]
        value = data.draw(REPLACEMENTS)
        if value is DROP:
            del node[key]
        else:
            node[key] = value
    errors = list(jsonschema.Draft7Validator(load_schema()).iter_errors(report))
    found = schema_violation(report, load_schema())
    assert (found is None) == (not errors), (found, [e.message for e in errors])
    if found:
        assert found[0] in set(_error_paths(errors))


def test_run_outputs_exist(first_run):
    _results, out = first_run
    for name in ("results.json", "estimates.csv", "context.csv", "dyads.csv",
                 "predictions.csv"):
        assert (out / name).exists()
    assert (out / "matched_pairs.csv").read_text().count("\ndessert,") > 0
    assert (out / "plots" / "forest_rd.svg").exists()


def test_outputs_match_committed_digests(workdir, first_run, tmp_path):
    # every simulated input and every file the run wrote, against the
    # manifest; a change that moves an output on purpose replaces the
    # manifest with the one this test writes, and names the files in CHANGES.md
    _results, out = first_run
    files = {f"{prefix}/{name}": hashlib.sha256(data).hexdigest()
             for prefix, root in (("data", workdir / "data"), ("out", out))
             for name, data in tree_bytes(root).items()}
    got = {"numpy": np.__version__, "files": dict(sorted(files.items()))}
    (tmp_path / "digests.json").write_text(json.dumps(got, indent=1) + "\n", encoding="utf-8")
    with open(DIGESTS, encoding="utf-8") as fh:
        want = json.load(fh)
    moved = sorted(name for name in want["files"].keys() | files.keys()
                   if want["files"].get(name) != files.get(name))
    assert not moved, (f"{moved} differ from {DIGESTS}, made with numpy {want['numpy']}; this is numpy "
                       f"{got['numpy']}, and this run's manifest is {tmp_path / 'digests.json'}")


def test_injected_effect_recovered(first_run):
    results, _out = first_run
    dessert = next(it for it in results["items"] if it["item"] == "dessert")
    assert dessert["status"] == "ok"
    est = dessert["estimate"]
    assert 0.08 < est["rd"] < 0.22
    assert est["rd_ci"][0] > 0
    base = dessert["baseline"]
    assert abs(base["rd"]) < 0.05
    assert dessert["balance"]["pass"] is True
    assert dessert["sensitivity"]["gamma_star"] > 1.0


def test_status_inference_summary(first_run):
    results, out = first_run
    info = results["status_inference"]
    assert sorted(info["classes"]) == ["staff", "student"]
    assert info["n_labeled"] > 0
    for cls in info["classes"]:
        assert 0.0 <= info["metrics"][cls]["precision"] <= 1.0
    header = (out / "predictions.csv").read_text().splitlines()[0]
    assert header == "person_id,label,confidence"


def test_subgroups_and_anchor_blocks(first_run):
    results, _out = first_run
    dessert = next(it for it in results["items"] if it["item"] == "dessert")
    assert set(dessert["subgroups"]) == {"partner_status", "daypart"}
    for est in dessert["subgroups"]["daypart"].values():
        assert est["stratum"].startswith("daypart:")
    assert set(results["anchor_mimicry"]) == {"meal_vegetarian", "beverage_kind"}


# -- determinism and stage reruns ---------------------------------------------


def test_rerun_is_byte_identical(workdir, first_run):
    _results, out_a = first_run
    out_b = workdir / "out_b"
    res = invoke("--config", workdir / "run.yaml", "--out", out_b, "run")
    assert res.exit_code == 0, res.output
    a, b = tree_bytes(out_a), tree_bytes(out_b)
    assert set(a) == set(b)
    assert all(a[k] == b[k] for k in a)


def _intervals(results):
    """Every estimate with a risk-difference interval, keyed by where it sits."""
    for it in results["items"]:
        if it["status"] != "ok":
            continue
        name = it["item"]
        yield f"{name} estimate", it["estimate"]
        if it["baseline"] and "rd" in it["baseline"]:
            yield f"{name} baseline", it["baseline"]
        for grouping, strata in (it["subgroups"] or {}).items():
            for label, est in strata.items():
                yield f"{name} {grouping}:{label}", est
        for b in (it["dose_response"] or {}).get("bins", []):
            yield f"{name} {b['stratum']}", b
    for attr, est in (results["anchor_mimicry"] or {}).items():
        yield f"anchor {attr}", est


def test_alpha_sets_the_interval_level(workdir, first_run):
    results_05, _out = first_run
    conf = yaml.safe_load((workdir / "run.yaml").read_text())
    conf["estimation"]["alpha"] = 0.1
    path = workdir / "alpha.yaml"
    path.write_text(yaml.safe_dump(conf), encoding="utf-8")
    out = workdir / "out_alpha"
    res = invoke("--config", path, "--out", out, "run")
    assert res.exit_code == 0, res.output
    with open(out / "results.json", encoding="utf-8") as fh:
        results_10 = json.load(fh)
    assert results_10["alpha"] == 0.1
    wide, narrow = dict(_intervals(results_05)), dict(_intervals(results_10))
    assert wide.keys() == narrow.keys()
    ok_items = [it["item"] for it in results_10["items"] if it["status"] == "ok"]
    assert ok_items
    for where, est in narrow.items():
        assert est["rd"] == wide[where]["rd"], where
        if est["rd_ci"] is None:
            continue
        (lo, hi), (w_lo, w_hi) = est["rd_ci"], wide[where]["rd_ci"]
        assert w_lo <= lo <= hi <= w_hi, where
        if where.endswith(" estimate"):
            assert hi - lo < w_hi - w_lo, where
    assert "matched estimate with 90% CI" in (out / "plots" / "forest_rd.svg").read_text()


def test_match_stage_rerun_reproduces_pairs(workdir, first_run):
    _results, out_a = first_run
    sub = workdir / "sub"
    sub.mkdir(exist_ok=True)
    (sub / "dyads.csv").write_bytes((out_a / "dyads.csv").read_bytes())
    res = invoke("--config", workdir / "run.yaml", "--out", sub, "match")
    assert res.exit_code == 0, res.output
    assert (sub / "matched_pairs.csv").read_bytes() == (out_a / "matched_pairs.csv").read_bytes()


def test_every_item_is_matched_and_dumped_before_any_is_analysed(workdir, tmp_path, monkeypatch):
    cfg = RunConfig.from_dict(yaml.safe_load((workdir / "run.yaml").read_text()), out=str(tmp_path / "o"))
    cfg = dataclasses.replace(cfg, n_boot=40, subgroups=(), infer_status=False, anchor_mimicry=False)
    matched, analysed = [], []
    real_match, real_analyze = pipeline_mod.match_stage, pipeline_mod._analyze_item

    def match_stage(dyads, items, *args):
        sets = real_match(dyads, items, *args)
        matched.append((items, sets))
        return sets

    def analyze_item(pairs, *args):
        if not analysed:
            assert matched, "an item was analysed before match_stage returned"
            with open(pipeline_mod.dump_path(cfg.out, "pairs"), encoding="utf-8", newline="") as fh:
                rows = list(csv.reader(fh))
            assert len(rows) == 1 + sum(s.n for s in matched[0][1])
        analysed.append(pairs)
        return real_analyze(pairs, *args)

    monkeypatch.setattr(pipeline_mod, "match_stage", match_stage)
    monkeypatch.setattr(pipeline_mod, "_analyze_item", analyze_item)
    results = run_pipeline(cfg)
    [(items, sets)] = matched
    assert len(items) > 1
    assert [s.item for s in sets] == items == [r["item"] for r in results["items"]]
    assert [id(s) for s in analysed] == [id(s) for s in sets]


def _json_objects(text):
    """The JSON documents a staged subcommand prints one after another."""
    decoder, objs, i = json.JSONDecoder(), [], 0
    text = text.strip()
    while i < len(text):
        obj, i = decoder.raw_decode(text, i)
        objs.append(obj)
        while i < len(text) and text[i].isspace():
            i += 1
    return objs


# staged subcommand -> where its printed JSON sits in each item of results.json
STAGE_JSON = {
    "estimate": "estimate",
    "sensitivity": "sensitivity",
    "dose": "dose_response",
    "baseline": "baseline",
    "coordinate": "coordination",
}


@pytest.mark.parametrize(
    "stage", ["dyads", "match", "estimate", "sensitivity", "dose", "baseline", "coordinate", "infer-status"]
)
def test_estimate_stage_matches_pipeline(workdir, first_run, stage):
    # each staged subcommand, given the dumps `run` left, rewrites those
    # dumps byte for byte and prints what results.json reports
    results, out_a = first_run
    pairs = {"matched_pairs.csv"}
    reads = {"dyads": set(), "match": {"dyads.csv"}, "infer-status": set()}.get(
        stage, {"dyads.csv"} | pairs)
    writes = {"dyads": {"context.csv", "dyads.csv"}, "match": pairs,
              "infer-status": {"predictions.csv"}}.get(stage, set())
    staged = workdir / f"staged_{stage}"
    shutil.rmtree(staged, ignore_errors=True)
    for name in reads:
        os.makedirs((staged / name).parent, exist_ok=True)
        shutil.copyfile(out_a / name, staged / name)
    res = invoke("--config", workdir / "run.yaml", "--out", staged, stage)
    assert res.exit_code == 0, res.output
    got = tree_bytes(staged)
    assert set(got) == reads | writes
    for name in writes:
        assert got[name] == (out_a / name).read_bytes(), name

    items = {it["item"]: it for it in results["items"]}
    ok = sorted(i for i, it in items.items() if it["status"] == "ok")
    if stage == "dyads":
        counts = results["counts"]
        assert res.output.splitlines() == [
            f"dyads_raw: {counts['n_dyads_raw']}", f"dyads_kept: {counts['n_dyads']}"]
    elif stage == "match":
        assert res.output.splitlines() == [
            f"{i}: {it['estimate']['n_pairs']} pairs ({it['n_unmatched']} unmatched treated)"
            if it["status"] == "ok" else f"{i}: no_pairs"
            for i, it in sorted(items.items())
        ]
    elif stage == "infer-status":
        summary, tail = res.output.split("predictions:")
        assert _json_objects(summary) == [results["status_inference"]]
        assert tail.strip() == str(staged / "predictions.csv")
    else:  # a report, or the status of an analysis that cannot run
        key = STAGE_JSON[stage]
        assert _json_objects(res.output) == [items[i][key] for i in ok]
        one = invoke("--config", workdir / "run.yaml", "--out", staged, stage, "--item", "dessert")
        assert one.exit_code == 0, one.output
        assert _json_objects(one.output) == [items["dessert"][key]]


@pytest.mark.parametrize("stage", ["match", "baseline"])
def test_repeated_item_is_analyzed_once(workdir, first_run, stage):
    _results, out_a = first_run
    sub = workdir / f"twice_{stage}"
    shutil.rmtree(sub, ignore_errors=True)
    sub.mkdir()
    shutil.copyfile(out_a / "dyads.csv", sub / "dyads.csv")
    args = ("--config", workdir / "run.yaml", "--out", sub, stage, "--item", "dessert")
    once, twice = invoke(*args), invoke(*args, "--item", "dessert")
    assert once.exit_code == 0 and twice.exit_code == 0, twice.output
    assert twice.output == once.output
    assert once.output.count("dessert") == 1


def test_pairs_without_a_match_directory_name_the_stage_to_run(workdir, first_run, tmp_path):
    _results, out_a = first_run
    shutil.copyfile(out_a / "dyads.csv", tmp_path / "dyads.csv")
    args = ("--config", workdir / "run.yaml", "--out", tmp_path)
    for command in ("estimate", "sensitivity", "dose"):
        res = invoke(*args, command)
        assert res.exit_code == 1, res.output
        assert "no matched pairs dumped for: any item; run `copycart match`" in res.output
    # what a match that found no pairs leaves
    header = (out_a / "matched_pairs.csv").read_text().splitlines(keepends=True)[0]
    (tmp_path / "matched_pairs.csv").write_text(header, encoding="utf-8")
    for command in ("estimate", "sensitivity", "dose"):
        res = invoke(*args, command)
        assert res.exit_code == 0 and res.output == "", res.output


@pytest.mark.parametrize("stage", ["match", "estimate", "sensitivity", "dose", "baseline", "coordinate", "plot"])
def test_stage_without_its_dump_is_an_ingest_error(workdir, tmp_path, stage):
    out = tmp_path / "empty"
    out.mkdir()
    res = invoke("--config", workdir / "run.yaml", "--out", out, stage)
    assert res.exit_code == 1, res.output
    hint = (f"missing {out / 'results.json'}; run `copycart run` first" if stage == "plot"
            else f"missing stage dump {out / 'dyads.csv'}; run `copycart dyads` first")
    assert f"Error: [errors.IngestError] {hint}\n" in res.output
    assert isinstance(res.exception, SystemExit)  # a message, not a traceback


@pytest.mark.parametrize("args, dumps, hint", [
    (["match"], [], "missing stage dump {out}/dyads.csv; run `copycart dyads` first"),
    (["estimate"], [], "missing stage dump {out}/dyads.csv; run `copycart dyads` first"),
    (["dose"], ["dyads.csv"], "no matched pairs dumped for: any item; run `copycart match`"),
    (["sensitivity", "--item", "dessert"], ["dyads.csv", "matched_pairs.csv"],
     "`copycart match` dumped no pairs for: dessert; it found none, or ran without that --item"),
], ids=["match", "estimate", "no_pairs_dir", "no_item_pairs"])
def test_missing_dump_is_reported_before_the_log_is_read(tmp_path, args, dumps, hint):
    # the transactions file is missing too; a stage names the dump it lacks first
    (tmp_path / "catalog.csv").write_text("item_code,category\nCOF,other\n", encoding="utf-8")
    conf = {"input": {"transactions": str(tmp_path / "absent.csv"), "catalog": str(tmp_path / "catalog.csv")},
            "estimation": {"seed": 1}}
    (tmp_path / "run.yaml").write_text(yaml.safe_dump(conf), encoding="utf-8")
    out = tmp_path / "out"
    out.mkdir()
    for dump in dumps:
        (out / dump).write_text("", encoding="utf-8")
    res = invoke("--config", tmp_path / "run.yaml", "--out", out, *args)
    assert res.exit_code == 1, res.output
    assert f"Error: [errors.IngestError] {hint.format(out=out)}\n" in res.output
    assert isinstance(res.exception, SystemExit)


def test_infer_status_without_demographics_is_a_config_error(workdir, tmp_path):
    conf = {"input": {k: str(workdir / "data" / f"{k}.csv") for k in ("transactions", "catalog")},
            "estimation": {"seed": 1}}
    (tmp_path / "run.yaml").write_text(yaml.safe_dump(conf), encoding="utf-8")
    res = invoke("--config", tmp_path / "run.yaml", "--out", tmp_path / "o", "infer-status")
    assert res.exit_code == 1, res.output
    assert "Error: [errors.ConfigError] infer-status needs a demographics input\n" in res.output


@pytest.fixture(scope="module")
def dropout(tmp_path_factory):
    """A log on which a larger `min_fraction` drops fruit and soup from the
    focus items, and a config without and one with it."""
    root = tmp_path_factory.mktemp("dropout")
    write_simulation(simulate(SimulationConfig(seed=3, n_persons=300, n_days=120, delta={"dessert": 0.2})),
                     root / "data")
    for name, dyads in (("all", {"max_gap_s": 40}), ("dessert", {"max_gap_s": 40, "min_fraction": 0.2})):
        conf = {
            "input": {k: str(root / "data" / f"{k}.csv") for k in ("transactions", "catalog")},
            "estimation": {"seed": 1, "n_boot": 50},
            "dyads": dyads,
        }
        (root / f"{name}.yaml").write_text(yaml.safe_dump(conf), encoding="utf-8")
    return root


def test_match_of_one_item_leaves_only_its_rows(dropout, tmp_path):
    def stage(*args):
        res = invoke("--config", dropout / "all.yaml", "--out", tmp_path, *args)
        assert res.exit_code == 0, res.output
        return res.output

    stage("dyads")
    assert stage("match").splitlines() == [
        "dessert: 155 pairs (604 unmatched treated)",
        "fruit: 82 pairs (377 unmatched treated)",
        "soup: 63 pairs (319 unmatched treated)",
    ]
    rows = (tmp_path / "matched_pairs.csv").read_text().splitlines(keepends=True)
    assert [row.split(",")[0] for row in rows] == ["item"] + ["dessert"] * 155 + ["fruit"] * 82 + ["soup"] * 63
    assert stage("match", "--item", "dessert") == "dessert: 155 pairs (604 unmatched treated)\n"
    assert (tmp_path / "matched_pairs.csv").read_text() == "".join(rows[:156])
    assert [o["item"] for o in _json_objects(stage("estimate"))] == ["dessert"]


def test_stage_dumps_must_match_the_log(workdir, first_run):
    _results, out_a = first_run
    sub = workdir / "mismatched"
    sub.mkdir(exist_ok=True)
    header, first, *rest = (out_a / "dyads.csv").read_text().splitlines(keepends=True)
    bogus = "NO_SUCH_TX" + first[first.index(","):]
    (sub / "dyads.csv").write_text(header + bogus + "".join(rest), encoding="utf-8")
    res = invoke("--config", workdir / "run.yaml", "--out", sub, "match")
    assert res.exit_code == 1
    assert "[errors.IngestError]" in res.output and "NO_SUCH_TX" in res.output
    assert "names tx id 'NO_SUCH_TX', which the transaction log lacks" in res.output

    (sub / "dyads.csv").write_bytes((out_a / "dyads.csv").read_bytes())
    header, first, *_rest = (out_a / "matched_pairs.csv").read_text().splitlines(True)
    fields = first.split(",")
    fields[1] = "NO_SUCH_TX"
    (sub / "matched_pairs.csv").write_text(header + ",".join(fields), encoding="utf-8")
    res = invoke("--config", workdir / "run.yaml", "--out", sub, "estimate")
    assert res.exit_code == 1
    assert "[errors.IngestError]" in res.output and "NO_SUCH_TX" in res.output


def _assert_ingest_error(res, *fragments):
    assert res.exit_code == 1, res.output
    assert "[errors.IngestError]" in res.output
    assert isinstance(res.exception, SystemExit)  # a message, not a traceback
    for fragment in fragments:
        assert fragment in res.output


# a row without its delay_s still fails on its width, though that column is
# not read back
@pytest.mark.parametrize("damage", ["short", "delay"])
def test_malformed_dyad_dump_fails_cleanly(workdir, first_run, damage):
    _results, out_a = first_run
    sub = workdir / f"bad_dyads_{damage}"
    sub.mkdir(exist_ok=True)
    header, first, second, *rest = (out_a / "dyads.csv").read_text().splitlines(keepends=True)
    fields = second.rstrip("\n").split(",")
    bad = fields[:5] if damage == "short" else fields[:6]
    (sub / "dyads.csv").write_text(
        header + first + ",".join(bad) + "\n" + "".join(rest), encoding="utf-8"
    )
    res = invoke("--config", workdir / "run.yaml", "--out", sub, "match")
    _assert_ingest_error(res, "dyads.csv line 3")


@pytest.mark.parametrize("damage", ["short", "popularity"])
def test_malformed_pair_dump_fails_cleanly(workdir, first_run, damage):
    _results, out_a = first_run
    sub = workdir / f"bad_pairs_{damage}"
    sub.mkdir(exist_ok=True)
    (sub / "dyads.csv").write_bytes((out_a / "dyads.csv").read_bytes())
    header, first, *rest = (out_a / "matched_pairs.csv").read_text().splitlines(True)
    fields = first.rstrip("\n").split(",")
    bad = fields[:4] if damage == "short" else fields[:6]
    (sub / "matched_pairs.csv").write_text(
        header + ",".join(bad) + "\n" + "".join(rest), encoding="utf-8"
    )
    res = invoke("--config", workdir / "run.yaml", "--out", sub, "estimate")
    _assert_ingest_error(res, "matched_pairs.csv line 2")


def test_staged_stages_ignore_derived_dump_columns(workdir, first_run):
    # a dump is read back by its ids: the delays and popularities it also
    # holds are written for people, and the stages take them from the log
    results, out_a = first_run
    sub = workdir / "edited"
    shutil.rmtree(sub, ignore_errors=True)
    sub.mkdir()
    header, *rows = (out_a / "dyads.csv").read_text().splitlines(keepends=True)
    shifted = (f"{head},{int(delay) + 1000}\n" for head, delay in (row.rsplit(",", 1) for row in rows))
    (sub / "dyads.csv").write_text(header + "".join(shifted), encoding="utf-8")
    header, *rows = (out_a / "matched_pairs.csv").read_text().splitlines(keepends=True)
    junk = (",".join(row.split(",")[:5] + ["high", "n/a"]) + "\n" for row in rows)
    (sub / "matched_pairs.csv").write_text(header + "".join(junk), encoding="utf-8")
    items = {it["item"]: it for it in results["items"]}
    for stage in ("estimate", "dose"):
        res = invoke("--config", workdir / "run.yaml", "--out", sub, stage)
        assert res.exit_code == 0, res.output
        printed = _json_objects(res.output)
        assert [o["item"] for o in printed] == sorted(i for i, it in items.items() if it["status"] == "ok")
        for obj in printed:
            assert pipeline_mod._jsonable(obj) == items[obj["item"]][STAGE_JSON[stage]]
    res = invoke("--config", workdir / "run.yaml", "--out", sub, "match")
    assert res.exit_code == 0, res.output
    assert (sub / "matched_pairs.csv").read_bytes() == (out_a / "matched_pairs.csv").read_bytes()


def test_jsonl_input_is_rejected(workdir, tmp_path):
    # the transaction log is CSV only; a JSON-lines file fails on its header
    conf = yaml.safe_load((workdir / "run.yaml").read_text())
    log = tmp_path / "transactions.jsonl"
    log.write_text(
        '{"tx_id": "T1", "person_id": "P1", "timestamp": "2018-01-05T09:00:00",'
        ' "shop_id": "S1", "register_id": "R1", "items": ["COF"]}\n',
        encoding="utf-8",
    )
    conf["input"]["transactions"] = str(log)
    path = tmp_path / "jsonl.yaml"
    path.write_text(yaml.safe_dump(conf), encoding="utf-8")
    res = invoke("--config", path, "--out", tmp_path / "o", "ingest")
    _assert_ingest_error(res, "header")


def _inputs_with(workdir, tmp_path, name, damage):
    """A config reading a copy of the simulated inputs whose file `name`
    has been passed through `damage` (bytes -> bytes)."""
    data = tmp_path / "data"
    shutil.copytree(workdir / "data", data)
    (data / name).write_bytes(damage((data / name).read_bytes()))
    conf = yaml.safe_load((workdir / "run.yaml").read_text())
    for key in conf["input"]:
        conf["input"][key] = str(data / f"{key}.csv")
    path = tmp_path / "run.yaml"
    path.write_text(yaml.safe_dump(conf), encoding="utf-8")
    return path


@pytest.mark.parametrize("name, damage, fragment", [
    ("demographics.csv", lambda b: b + b"P99999,female\n", "expected 4 fields, got 2"),
    ("transactions.csv", lambda b: b + b"T\xff,P1,2018-01-08T12:00:00,S01,R1,TEA\n", "UTF-8"),
    ("catalog.csv", lambda b: b + b"CR\xe9PE,addition,dessert\n", "UTF-8"),
    ("demographics.csv", lambda b: b + b"P\xe9,female,staff,1980\n", "UTF-8"),
], ids=["demographics_short_row", "transactions_bytes", "catalog_bytes", "demographics_bytes"])
def test_unreadable_input_fails_cleanly(workdir, tmp_path, name, damage, fragment):
    config = _inputs_with(workdir, tmp_path, name, damage)
    lines = damage((workdir / "data" / name).read_bytes()).count(b"\n")  # the damaged line is last
    res = invoke("--config", config, "--out", tmp_path / "o", "ingest")
    _assert_ingest_error(res, f"{name} line {lines}", fragment)


@pytest.mark.parametrize("dump, stage", [
    ("dyads.csv", "match"), ("matched_pairs.csv", "estimate"),
], ids=["dyads", "pairs"])
@pytest.mark.parametrize("damage", ["header", "bytes"])
def test_unreadable_dump_fails_cleanly(workdir, first_run, tmp_path, dump, stage, damage):
    _results, out_a = first_run
    sub = tmp_path / "sub"
    sub.mkdir()
    for name in ("dyads.csv", dump):
        shutil.copyfile(out_a / name, sub / name)
    header, *rows = (sub / dump).read_bytes().splitlines(keepends=True)
    if damage == "header":
        header, where = header.replace(b"_tx,", b",", 1), "line 1: header"
    else:
        rows[1], where = rows[1].replace(b",", b"\xff,", 1), "line 3: not UTF-8"
    (sub / dump).write_bytes(header + b"".join(rows))
    res = invoke("--config", workdir / "run.yaml", "--out", sub, stage)
    _assert_ingest_error(res, f"{dump} {where}")


def test_ingest_reports_counts_and_writes_nothing(workdir, first_run, tmp_path):
    results, _out = first_run
    res = invoke("--config", workdir / "run.yaml", "--out", tmp_path / "o", "ingest")
    assert res.exit_code == 0, res.output
    assert res.output.splitlines() == [
        f"transactions: {results['counts']['n_transactions']}",
        f"persons: {results['counts']['n_persons']}",
        "rejected_records: 0",
    ]
    assert not (tmp_path / "o").exists()


def test_coordinate_subcommand(workdir, first_run):
    # too few repeat encounters at this scale: the standalone command prints
    # the status the pipeline records, and exits 0
    results, out_a = first_run
    res = invoke("--config", workdir / "run.yaml", "--out", out_a, "coordinate",
                 "--item", "dessert")
    assert res.exit_code == 0, res.output
    dessert = next(it for it in results["items"] if it["item"] == "dessert")
    assert dessert["coordination"]["status"] == "InsufficientDataError"
    assert _json_objects(res.output) == [dessert["coordination"]]


def test_staged_subcommand_prints_non_finite_numbers_as_null(tmp_path):
    # two pairs share a register at lunch on 25 days; the partner always takes
    # dessert and the focal only behind the pair's leader, so each pair's
    # rates are 1 and 0 without spread and the order-asymmetry t is infinite
    catalog = "item_code,category,subtype\nMEAL,anchor_meal,non_vegetarian\nDESSERT,addition,dessert\n"
    rows = ["tx_id,person_id,timestamp,shop_id,register_id,items"]
    for day in range(1, 26):
        stamp = f"2018-01-{day:02d}T12:0"
        for register, leader, follower in (("R1", "A", "B"), ("R2", "C", "D")):
            first, second = (leader, follower) if day <= 13 else (follower, leader)
            dessert = ";DESSERT" if first == leader else ""
            rows += [
                f"{first}{day:02d},{first},{stamp}0:00,S1,{register},MEAL;DESSERT",
                f"{second}{day:02d},{second},{stamp}1:00,S1,{register},MEAL{dessert}",
            ]
    (tmp_path / "catalog.csv").write_text(catalog, encoding="utf-8")
    (tmp_path / "transactions.csv").write_text("\n".join(rows) + "\n", encoding="utf-8")
    conf = {
        "input": {k: str(tmp_path / f"{k}.csv") for k in ("transactions", "catalog")},
        "estimation": {"seed": 1, "n_boot": 40},
    }
    (tmp_path / "run.yaml").write_text(yaml.safe_dump(conf), encoding="utf-8")
    args = ["--config", tmp_path / "run.yaml", "--out", tmp_path / "out"]
    assert invoke(*args, "dyads").exit_code == 0
    res = invoke(*args, "coordinate", "--item", "dessert")
    assert res.exit_code == 0

    def refuse(token):
        raise ValueError(f"{token} is not JSON")

    report = json.loads(res.output, parse_constant=refuse)
    assert report["t"] is None
    assert (report["rate_leader_first"], report["rate_follower_first"], report["p"]) == (1.0, 0.0, 0.0)


def test_plot_subcommand_rerenders_identically(workdir, first_run):
    _results, out_a = first_run
    before = tree_bytes(out_a / "plots")
    for name in before:
        os.unlink(out_a / "plots" / name)
    res = invoke("--out", out_a, "plot")
    assert res.exit_code == 0, res.output
    assert tree_bytes(out_a / "plots") == before


# -- simulate subcommand -------------------------------------------------------


def test_simulate_subcommand(tmp_path):
    res = invoke("--seed", 3, "--out", tmp_path / "d", "simulate",
                 "--set", "n_persons=80", "--set", "n_days=30")
    assert res.exit_code == 0, res.output
    for name in ("transactions.csv", "catalog.csv", "demographics.csv",
                 "ground_truth.json"):
        assert (tmp_path / "d" / name).exists()


def test_simulate_needs_seed(tmp_path):
    res = invoke("--out", tmp_path / "d", "simulate")
    assert res.exit_code == 1
    assert "seed" in res.output


@pytest.mark.parametrize("setting", [
    "delta=dessert", "n_persons=sixty", 'delta={"dessert": "x"}', "start_date=2019-01-07", "foo",
], ids=["delta_string", "n_persons_string", "delta_entry_string", "start_date_not_a_setting", "no_value"])
def test_simulate_setting_of_wrong_type_exits_cleanly(tmp_path, setting):
    res = invoke("--seed", 3, "--out", tmp_path / "d", "simulate",
                 "--set", "n_persons=60", "--set", setting)
    assert res.exit_code == 1
    assert "[errors.ConfigError]" in res.output
    assert isinstance(res.exception, SystemExit)  # a message, not a traceback


def test_simulate_base_probs_may_leave_out_a_daypart(tmp_path):
    # a daypart left out of base_probs has no additions, as one mapped to {}
    args = ("--seed", 3, "--out")
    tail = ("simulate", "--set", "n_persons=60", "--set", "n_days=10", "--set")
    res = invoke(*args, tmp_path / "a", *tail, 'base_probs={"lunch": {"dessert": 0.2}}')
    assert res.exit_code == 0, res.output
    res = invoke(*args, tmp_path / "b", *tail,
                 'base_probs={"lunch": {"dessert": 0.2}, "breakfast": {}, "afternoon": {}}')
    assert res.exit_code == 0, res.output
    assert tree_bytes(tmp_path / "a") == tree_bytes(tmp_path / "b")


@pytest.mark.parametrize("text, fragment", [
    (b"input: {transactions: t.csv\n", "expected ',' or '}'"),
    (b"seed: 1\n# caf\xe9\n", "can't decode byte 0xe9"),
    (b"input: {transactions: [a], catalog: c.csv}\nseed: 1\n", "transactions must be a string"),
], ids=["unclosed_brace", "not_utf8", "path_not_string"])
def test_config_file_that_cannot_be_read_exits_cleanly(tmp_path, text, fragment):
    path = tmp_path / "bad.yaml"
    path.write_bytes(text)
    res = invoke("--config", path, "--out", tmp_path / "o", "ingest")
    assert res.exit_code == 1
    assert "[errors.ConfigError]" in res.output and fragment in res.output
    assert isinstance(res.exception, SystemExit)  # a message, not a traceback
    if fragment != "transactions must be a string":
        assert f"cannot read config file {path}" in res.output


@pytest.mark.parametrize("blocked, kind, args", [
    ("", "file", ["dyads"]),
    ("", "file", ["run"]),
    ("", "file", ["infer-status"]),
    ("", "file", ["--seed", 1, "simulate", "--set", "n_persons=60", "--set", "n_days=10"]),
    ("matched_pairs.csv", "dir", ["match"]),
    ("matched_pairs.csv", "dir", ["run"]),
    ("plots", "file", ["plot"]),
    ("dyads.csv", "dir", ["dyads"]),
], ids=["out_file-dyads", "out_file-run", "out_file-infer_status", "out_file-simulate",
        "pairs_dir_file-match", "pairs_dir_file-run", "plots_dir_file-plot", "dyads_csv_dir-dyads"])
def test_output_path_that_cannot_be_written_exits_cleanly(workdir, first_run, tmp_path, blocked, kind, args):
    # a file where a directory is written, or the reverse, was a FileExistsError
    # or IsADirectoryError traceback
    out = tmp_path / "out"
    if blocked:
        shutil.copytree(first_run[1], out)
    path = out / blocked if blocked else out
    if path.is_dir():
        shutil.rmtree(path)
    elif path.exists():
        path.unlink()
    if kind == "dir":
        path.mkdir()
    else:
        path.write_bytes(b"")
    res = invoke("--config", workdir / "run.yaml", "--out", out, *args)
    assert res.exit_code == 1, res.output
    assert f"[errors.IngestError] {path}: cannot write" in res.output
    assert isinstance(res.exception, SystemExit)  # a message, not a traceback


# -- degenerate inputs ---------------------------------------------------------


def _micro_inputs(tmp_path):
    """Twelve repeats of one all-treated dyad: selectable item, no controls."""
    catalog = "item_code,category,subtype\nMEALS,anchor_meal,non_vegetarian\nDES,addition,dessert\n"
    rows = ["tx_id,person_id,timestamp,shop_id,register_id,items"]
    for day in range(1, 13):
        rows.append(f"T{2 * day:04d},A,2018-01-{day:02d}T12:00:00,S1,R1,MEALS;DES")
        rows.append(f"T{2 * day + 1:04d},B,2018-01-{day:02d}T12:01:00,S1,R1,MEALS")
    (tmp_path / "catalog.csv").write_text(catalog, encoding="utf-8")
    (tmp_path / "transactions.csv").write_text("\n".join(rows) + "\n", encoding="utf-8")
    return RunConfig(
        transactions=str(tmp_path / "transactions.csv"),
        catalog=str(tmp_path / "catalog.csv"),
        seed=5,
        out=str(tmp_path / "out"),
        n_boot=50,
    )


def test_ingest_drops_birth_years_after_first_transaction(tmp_path):
    cfg = _micro_inputs(tmp_path)
    demo = tmp_path / "demographics.csv"
    demo.write_text(
        "person_id,gender,status,birth_year\nA,female,staff,1990\nB,male,student,2019\n",
        encoding="utf-8",
    )
    _log, people = pipeline_mod.ingest_inputs(
        dataclasses.replace(cfg, demographics=str(demo))
    )
    assert people.get("A").birth_year == 1990
    assert people.get("B").birth_year is None  # born after shopping in 2018
    assert people.get("B").status == "student"
    assert people.n_birth_year_degraded == 1


def test_dose_bins_follow_max_gap():
    # one pair per 30 s bin up to 600 s: the bins must reach the gap limit
    delays = [30 * b + 15 for b in range(20)]
    pairs = pairs_from_outcomes([1, 0] * 10, [0, 0, 1, 0] * 5, delays=delays, max_gap_s=600)
    cfg = RunConfig(transactions="t.csv", catalog="c.csv", seed=1, max_gap_s=600, n_boot=40)
    dose = pipeline_mod.item_dose(pairs, "dessert", cfg)
    assert [b["midpoint_s"] for b in dose["bins"]] == [float(d) for d in delays]
    assert [b["n_pairs"] for b in dose["bins"]] == [1] * 20
    assert dose["bins"][-1]["stratum"] == "delay<= 600s"


def test_no_pairs_item_still_succeeds(tmp_path):
    results = run_pipeline(_micro_inputs(tmp_path))
    jsonschema.validate(results, load_schema())
    item = next(it for it in results["items"] if it["item"] == "dessert")
    assert item["status"] == "no_pairs"
    assert results["balance_ok"] is True  # vacuous: nothing estimable failed


def test_run_records_each_analysis_status(tmp_path):
    # A sits ahead of B at lunch on twelve days and adds dessert on the first
    # six; B never takes it, and X, alone at the next register, always does.
    # Six pairs match, all concordant (no discordant pair) at one delay (one
    # dose bin).  The shuffle can only give B X as partner, so every shuffled
    # dyad is treated and none matches.  No dyad holds a vegetarian meal or a
    # beverage, so neither anchor attribute has pairs.
    catalog = "item_code,category,subtype\nMEALS,anchor_meal,non_vegetarian\nDES,addition,dessert\n"
    rows = ["tx_id,person_id,timestamp,shop_id,register_id,items"]
    for day in range(1, 13):
        stamp = f"2018-01-{day:02d}T12:0"
        rows += [
            f"A{day:02d},A,{stamp}0:00,S1,R1,MEALS{';DES' if day <= 6 else ''}",
            f"B{day:02d},B,{stamp}1:00,S1,R1,MEALS",
            f"X{day:02d},X,{stamp}0:00,S1,R2,MEALS;DES",
        ]
    (tmp_path / "catalog.csv").write_text(catalog, encoding="utf-8")
    (tmp_path / "transactions.csv").write_text("\n".join(rows) + "\n", encoding="utf-8")
    conf = {
        "input": {k: str(tmp_path / f"{k}.csv") for k in ("transactions", "catalog")},
        "estimation": {"seed": 5, "n_boot": 50},
        "analyses": {"dose_response": True, "coordination": True, "anchor_mimicry": True},
    }
    results = run_pipeline(RunConfig.from_dict(conf, out=str(tmp_path / "out")))
    jsonschema.validate(results, load_schema())
    (item,) = results["items"]
    assert (item["item"], item["status"], item["estimate"]["n_pairs"]) == ("dessert", "ok", 6)
    assert item["baseline"] == {
        "status": "NoPairsError", "detail": "no matched pairs for 'dessert' after the partner shuffle"}
    assert item["sensitivity"] == {
        "status": "NoPairsError", "detail": "sensitivity undefined without discordant pairs"}
    assert item["dose_response"] == {
        "status": "InsufficientBinsError", "detail": "only 1 non-empty delay bins; need at least 3"}
    assert item["coordination"] == {
        "status": "InsufficientDataError",
        "detail": "need 2 pairs with 10 treated dyads in each direction, found 0"}
    assert results["anchor_mimicry"] == {
        attr: {"status": "NoPairsError", "detail": f"no matched pairs for anchor attribute {attr!r}"}
        for attr in ("meal_vegetarian", "beverage_kind")}

    # each staged subcommand prints the status `run` records, and exits 0
    (tmp_path / "run.yaml").write_text(yaml.safe_dump(conf), encoding="utf-8")
    for stage, key in (("baseline", "baseline"), ("sensitivity", "sensitivity"), ("dose", "dose_response"),
                       ("coordinate", "coordination")):
        res = invoke("--config", tmp_path / "run.yaml", "--out", tmp_path / "out", stage)
        assert res.exit_code == 0, (stage, res.output)
        assert _json_objects(res.output) == [item[key]], stage


def test_inferred_statuses_reach_the_strata(tmp_path):
    # with 30% of the statuses unknown, `infer_status` predicts every one of
    # them, so the partner_status strata hold no unknown partner
    write_simulation(simulate(SimulationConfig(seed=3, n_persons=300, n_days=60, demographics_known_fraction=0.7)),
                     tmp_path / "in")
    conf = {
        "input": {k: str(tmp_path / "in" / f"{k}.csv") for k in ("transactions", "catalog", "demographics")},
        "estimation": {"seed": 5, "n_boot": 40},
        "analyses": {"infer_status": True, "subgroups": ["partner_status"]},
    }
    with open(tmp_path / "in" / "transactions.csv", encoding="utf-8", newline="") as fh:
        persons = {row["person_id"] for row in csv.DictReader(fh)}
    with open(tmp_path / "in" / "demographics.csv", encoding="utf-8", newline="") as fh:
        unlabeled = persons - {row["person_id"] for row in csv.DictReader(fh) if row["status"]}

    def strata(infer):
        cfg = RunConfig.from_dict(conf, out=str(tmp_path / f"out_{infer}"))
        results = run_pipeline(dataclasses.replace(cfg, infer_status=infer))
        items = [it for it in results["items"] if it["status"] == "ok"]
        assert items
        for it in items:
            got = it["subgroups"]["partner_status"]
            assert sum(s["n_pairs"] for s in got.values()) == it["estimate"]["n_pairs"]
        return results, {label for it in items for label in it["subgroups"]["partner_status"]}

    assert "unknown" in strata(False)[1]  # what inference has to fill
    results, labels = strata(True)
    assert "unknown" not in labels
    assert results["status_inference"]["n_predicted"] == len(unlabeled) > 0
    with open(tmp_path / "out_True" / "predictions.csv", encoding="utf-8", newline="") as fh:
        predicted = [row["person_id"] for row in csv.DictReader(fh)]
    assert sorted(predicted) == sorted(unlabeled)


def test_match_that_finds_no_pairs_removes_the_earlier_dump(tmp_path):
    # A sits ahead of B at lunch on twelve days and adds dessert on the first
    # six.  Leaving A's and B's own baskets out, the cell's dessert share is
    # 1.0 on those days (C and D both take it) and 0.5 on the others, so
    # controls fall inside a caliper of 0.6 and outside the default 0.1.  C,
    # who always takes dessert, leads twelve treated dyads without controls.
    catalog = "item_code,category,subtype\nMEALS,anchor_meal,non_vegetarian\nDES,addition,dessert\n"
    rows = ["tx_id,person_id,timestamp,shop_id,register_id,items"]
    for day in range(1, 13):
        stamp = f"2018-01-{day:02d}T12:0"
        rows += [
            f"A{day:02d},A,{stamp}0:00,S1,R1,MEALS{';DES' if day <= 6 else ''}",
            f"B{day:02d},B,{stamp}1:00,S1,R1,MEALS",
            f"C{day:02d},C,{stamp}0:00,S1,R2,MEALS;DES",
            f"D{day:02d},D,{stamp}1:00,S1,R2,MEALS{';DES' if day <= 6 else ''}",
        ]
    (tmp_path / "catalog.csv").write_text(catalog, encoding="utf-8")
    (tmp_path / "transactions.csv").write_text("\n".join(rows) + "\n", encoding="utf-8")
    args = {}
    for name, caliper in (("loose", 0.6), ("default", 0.1)):
        conf = {
            "input": {k: str(tmp_path / f"{k}.csv") for k in ("transactions", "catalog")},
            "estimation": {"seed": 1, "n_boot": 40},
            "adjustment": {"caliper": caliper},
        }
        (tmp_path / f"{name}.yaml").write_text(yaml.safe_dump(conf), encoding="utf-8")
        args[name] = ["--config", tmp_path / f"{name}.yaml", "--out", tmp_path / "out"]
    dump = tmp_path / "out" / "matched_pairs.csv"
    assert invoke(*args["loose"], "dyads").exit_code == 0
    assert invoke(*args["loose"], "match", "--item", "dessert").output == "dessert: 6 pairs (12 unmatched treated)\n"
    assert dump.read_text().count("\ndessert,") == 6
    assert invoke(*args["default"], "match", "--item", "dessert").output == "dessert: no_pairs\n"
    assert dump.read_text() == ",".join(PAIR_COLUMNS) + "\n"
    for stage in ("estimate", "sensitivity", "dose"):
        res = invoke(*args["default"], stage, "--item", "dessert")
        assert res.exit_code == 1 and "`copycart match` dumped no pairs for: dessert" in res.output


def test_require_balance_exit_code(workdir, monkeypatch):
    failing = {"item": "x", "n_pairs": 1, "threshold": 0.2, "pass": False, "covariates": {}}
    monkeypatch.setattr(pipeline_mod, "balance_report", lambda pairs: failing)
    res = invoke("--config", workdir / "run.yaml", "--out", workdir / "bal",
                 "--require-balance", "run")
    assert res.exit_code == 3
    res = invoke("--config", workdir / "run.yaml", "--out", workdir / "bal2", "run")
    assert res.exit_code == 0


# -- plots ---------------------------------------------------------------------

# Fixed input pinning the SVG serialization; goldens live in tests/golden/.
GOLDEN_RESULTS = {
    "alpha": 0.05,
    "items": [
        {
            "item": "dessert",
            "status": "ok",
            "estimate": {
                "item": "dessert", "stratum": "pooled", "n_pairs": 400,
                "rd": 0.142, "rd_ci": [0.101, 0.183], "rr": 1.9,
                "rr_ci": [1.52, 2.41], "chi2": 55.0, "p": 1.2e-13,
            },
            "baseline": {
                "item": "dessert", "stratum": "baseline", "n_pairs": 380,
                "rd": 0.004, "rd_ci": [-0.031, 0.04], "rr": 1.02,
                "rr_ci": [0.81, 1.33], "chi2": 0.1, "p": 0.75,
            },
            "sensitivity": {
                "item": "dessert", "gamma_star": 1.8, "capped": False,
                "alpha": 0.05,
                "curve": [[2.0, 17.0], [2.7, 5.0], [3.6, 2.9], [5.4, 2.2],
                          [9.0, 1.9], [14.4, 1.84]],
            },
            "dose_response": {
                "item": "dessert", "slope_rd": -0.0004, "intercept_rd": 0.2,
                "p_rd": 0.003,
                "bins": [
                    {"midpoint_s": 15, "rd": 0.19, "rd_ci": [0.15, 0.23]},
                    {"midpoint_s": 45, "rd": 0.18, "rd_ci": [0.14, 0.22]},
                    {"midpoint_s": 75, "rd": 0.17, "rd_ci": [0.13, 0.21]},
                ],
            },
        },
        {
            "item": "soup",
            "status": "ok",
            "estimate": {
                "item": "soup", "stratum": "pooled", "n_pairs": 60,
                "rd": 0.01, "rd_ci": [-0.02, 0.05], "rr": None,
                "rr_ci": None, "chi2": 0.5, "p": 0.48,
            },
            "baseline": None,
            "sensitivity": None,
            "dose_response": None,
        },
        {"item": "fruit", "status": "no_pairs"},
    ],
}


def test_plots_match_goldens(tmp_path):
    report = emit_plots(GOLDEN_RESULTS, tmp_path)
    assert report["forest_rd.svg"] == "written"
    for name in ("forest_rd.svg", "forest_rr.svg", "dose_dessert.svg",
                 "sensitivity_dessert.svg"):
        got = (tmp_path / name).read_bytes()
        want = pathlib.Path(GOLDEN_DIR, name).read_bytes()
        assert got == want, f"{name} drifted from golden copy"


def test_rr_panel_omits_undefined_rows_with_note(tmp_path):
    emit_plots(GOLDEN_RESULTS, tmp_path)
    svg = (tmp_path / "forest_rr.svg").read_text()
    assert "undefined relative risk omitted: soup" in svg
    assert ">soup<" not in svg
    rd = (tmp_path / "forest_rd.svg").read_text()
    assert ">soup<" in rd


def test_emit_plots_empty_results(tmp_path):
    report = emit_plots({"items": []}, tmp_path)
    assert report["forest_rd.svg"].startswith("skipped")
    assert report["forest_rr.svg"].startswith("skipped")
    assert os.listdir(tmp_path) == []
