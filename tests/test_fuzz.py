"""Fuzzing the CLI: a malformed input file, stage dump, report, config value
or command-line value ends in a documented exit code with a message, never in
a traceback.

Every command runs in-process through click's runner on a tiny simulated
log.  The generated values are wrong types and malformed text only, never
large magnitudes, so no example can ask for a big simulation.  The examples
of a test share one directory, so that no example makes and deletes a tree
of its own: each example writes every file it damages or generates, and
leaves every other file as it found it.
"""

import functools
import json
import operator
import os
import pathlib
import shutil
import tempfile

import pytest
import yaml
from click.testing import CliRunner
from hypothesis import given, settings
from hypothesis import strategies as st

from copycart.cli.main import main
from copycart.sim import SimulationConfig, simulate, write_simulation

FUZZ = settings(derandomize=True, deadline=None, database=None, max_examples=100)
EXIT_CODES = {0, 1, 2, 3}


def invoke(*args):
    return CliRunner().invoke(main, [str(a) for a in args])


def assert_clean_exit(res):
    assert res.exit_code in EXIT_CODES, res.output
    # click turns a message into SystemExit; anything else is a traceback
    assert res.exception is None or isinstance(res.exception, SystemExit), repr(res.exception)


def run_config(inputs) -> dict:
    return {
        "input": {name: os.path.join(inputs, f"{name}.csv")
                  for name in ("transactions", "catalog", "demographics")},
        "dyads": {"min_pair_count": 2},
        "estimation": {"seed": 1, "n_boot": 40},
        "analyses": {"baseline": False, "sensitivity": True, "dose_response": True},
    }


@pytest.fixture(scope="module")
def base(tmp_path_factory):
    """Inputs of 60 persons over 10 lunch-only days at one register, and the
    dumps a `run` leaves for them, matched dessert pairs included."""
    root = tmp_path_factory.mktemp("fuzz")
    cfg = SimulationConfig(
        seed=3, n_persons=60, n_days=10, n_shops=1, n_registers_per_shop=1,
        visit_rate=1.0, solo_rate=0.05, daypart_weights=(0, 1, 0), delta={"dessert": 0.3},
    )
    write_simulation(simulate(cfg), root / "in")
    (root / "run.yaml").write_text(yaml.safe_dump(run_config(root / "in")), encoding="utf-8")
    res = invoke("--config", root / "run.yaml", "--out", root / "out", "run")
    assert res.exit_code == 0, res.output
    assert (root / "out" / "matched_pairs.csv").exists()
    return root


@pytest.fixture(scope="module")
def scratch(tmp_path_factory):
    """The directory the examples of a test write their files into."""
    return tmp_path_factory.mktemp("examples")


# -- malformed files -----------------------------------------------------------

# file under the base directory -> the command that reads it
FILES = {
    "in/transactions.csv": "ingest",
    "in/catalog.csv": "ingest",
    "in/demographics.csv": "ingest",
    "out/dyads.csv": "match",
    "out/matched_pairs.csv": "estimate",
    "out/results.json": "plot",
}

# what a command of FILES writes under out/; none of them reads it back
WRITES = {"match": ("matched_pairs.csv",), "plot": ("plots/",)}


def kept_files(root: pathlib.Path, command: str) -> dict[str, bytes]:
    """The bytes of every file under `root`/in and `root`/out but those `command` writes."""
    files = {}
    for path in sorted(root.glob("*/**/*")):
        name = path.relative_to(root).as_posix()
        if path.is_file() and not name.removeprefix("out/").startswith(WRITES.get(command, ())):
            files[name] = path.read_bytes()
    return files


TEXT = st.text(st.sampled_from('ab ,;:"{}[]\\é\r'), max_size=6)


# how to damage one line of a CSV file; the header is line 0
DAMAGE = st.fixed_dictionaries({
    "kind": st.sampled_from(["truncate", "extra", "quote", "bytes", "header"]),
    "line": st.integers(0, 40),
    "at": st.integers(0, 40),
    "junk": st.sampled_from([b"\xff", b"\xe9", b"\xc3", b"\x80\x80", b"\xed\xa0\x80"]),
    "text": TEXT,
    "fields": st.integers(0, 6),
})


def damaged(data: bytes, kind, line, at, junk, text, fields) -> bytes:
    """`data` with one line cut to `fields` fields, given an extra field,
    a stray quote or undecodable bytes, or with its header replaced."""
    lines = data.split(b"\n")
    k = 0 if kind == "header" else line % max(len(lines) - 1, 1)
    row = lines[k]
    pos = at % (len(row) + 1)
    if kind == "truncate":
        row = b",".join(row.split(b",")[:fields])
    elif kind == "extra":
        row += b"," + text.encode("utf-8")
    elif kind == "quote":
        row = row[:pos] + b'"' + row[pos:]
    elif kind == "bytes":
        row = row[:pos] + junk + row[pos:]
    else:
        row = text.encode("utf-8")
    lines[k] = row
    return b"\n".join(lines)


@pytest.fixture(scope="module")
def tree(base, name, tmp_path_factory):
    """A copy of the base tree that every example damaging `name` reuses,
    and the bytes its command must leave as they are."""
    root = tmp_path_factory.mktemp("damaged")
    shutil.copytree(base / "in", root / "in")
    shutil.copytree(base / "out", root / "out")
    (root / "run.yaml").write_text(yaml.safe_dump(run_config(root / "in")), encoding="utf-8")
    return root, kept_files(base, FILES[name])


@pytest.mark.parametrize("name", sorted(FILES), scope="module")
@FUZZ
@given(damage=DAMAGE)
def test_malformed_file_exits_cleanly(tree, name, damage):
    root, kept = tree
    try:
        (root / name).write_bytes(damaged(kept[name], **damage))
        assert_clean_exit(invoke("--config", root / "run.yaml", "--out", root / "out", FILES[name]))
    finally:
        (root / name).write_bytes(kept[name])
    # so the next example reads no byte but those it damages and the base tree's
    assert kept_files(root, FILES[name]) == kept


# -- config values of the wrong type -------------------------------------------

WRONG = st.one_of(
    TEXT,
    st.booleans(),
    st.none(),
    st.lists(st.one_of(st.integers(0, 2), TEXT), max_size=3),
    st.dictionaries(TEXT, st.one_of(st.integers(0, 1), TEXT), max_size=2),
)

RUN_KEYS = [
    ("input", "transactions"), ("input", "catalog"), ("input", "demographics"),
    ("dyads", "max_gap_s"), ("dyads", "min_pair_count"), ("dyads", "min_fraction"),
    ("estimation", "n_boot"), ("estimation", "seed"), ("estimation", "alpha"),
    ("estimation", "min_stratum"), ("analyses", "baseline"), ("analyses", "subgroups"),
    ("analyses", "infer_status"), ("adjustment", "caliper"), ("adjustment", "exclude_own_transactions"),
    (None, "adjustment"), (None, "threads"), (None, "input"), (None, "dyads"),
]


@FUZZ
@given(key=st.sampled_from(RUN_KEYS), value=WRONG)
def test_run_config_of_wrong_type_exits_cleanly(base, scratch, key, value):
    conf = run_config(base / "in")
    section, name = key
    if section is None:
        conf[name] = value
    else:
        conf.setdefault(section, {})[name] = value
    (scratch / "run.yaml").write_text(yaml.safe_dump(conf), encoding="utf-8")
    assert_clean_exit(invoke("--config", scratch / "run.yaml", "--out", scratch / "o", "ingest"))


@FUZZ
@given(damage=DAMAGE)
def test_malformed_config_file_exits_cleanly(base, scratch, damage):
    data = yaml.safe_dump(run_config(base / "in")).encode("utf-8")
    (scratch / "run.yaml").write_bytes(damaged(data, **damage))
    assert_clean_exit(invoke("--config", scratch / "run.yaml", "--out", scratch / "o", "ingest"))


@pytest.mark.parametrize("section, key", [
    ("dyads", "require_anchor"), (None, "require_anchor"), ("adjustment", "caliper_absolute"),
    ("adjustment", "match_focal_identity"), ("adjustment", "match_exact_anchor"),
], ids=lambda v: v or "flat")
def test_removed_run_setting_is_refused_by_name(base, tmp_path, section, key):
    conf = run_config(base / "in")
    (conf if section is None else conf.setdefault(section, {}))[key] = True
    (tmp_path / "run.yaml").write_text(yaml.safe_dump(conf), encoding="utf-8")
    res = invoke("--config", tmp_path / "run.yaml", "--out", tmp_path / "o", "ingest")
    assert_clean_exit(res)
    assert res.exit_code == 1
    message = f"unknown key '{key}' in config section '{section}'" if section else f"unknown config key '{key}'"
    assert f"[errors.ConfigError] {message}" in res.output


SIM_KEYS = sorted(SimulationConfig.__dataclass_fields__)


@FUZZ
@given(
    key=st.sampled_from(SIM_KEYS),
    value=st.one_of(WRONG.map(json.dumps), TEXT),  # JSON of a wrong type, or raw text
)
def test_simulate_setting_of_wrong_type_exits_cleanly(scratch, key, value):
    res = invoke("--seed", 3, "--out", scratch / "sim", "simulate", "--set", "n_persons=60",
                 "--set", "n_days=10", "--set", f"{key}={value}")
    assert_clean_exit(res)


# -- unusable command-line values and reports -----------------------------------


@pytest.mark.parametrize(
    "command", ["match", "estimate", "baseline", "sensitivity", "dose", "coordinate"]
)
def test_item_that_is_not_a_category_is_a_usage_error(base, command):
    res = invoke("--config", base / "run.yaml", "--out", base / "out", command, "--item", "foo")
    assert_clean_exit(res)
    assert res.exit_code == 2
    assert "'foo' is not one of" in res.output and "'dessert'" in res.output


def test_item_without_dumped_pairs_names_the_stage_that_ran(base):
    with tempfile.TemporaryDirectory() as tmp:
        shutil.copy(base / "out" / "dyads.csv", tmp)
        args = ("--config", base / "run.yaml", "--out", tmp)
        for command in ("estimate", "sensitivity", "dose"):
            res = invoke(*args, command, "--item", "meal")
            assert res.exit_code == 1
            assert "no matched pairs dumped for: meal; run `copycart match`" in res.output
        res = invoke(*args, "match", "--item", "meal")
        assert res.exit_code == 0 and "meal: no_pairs" in res.output
        for command in ("estimate", "sensitivity", "dose"):
            res = invoke(*args, command, "--item", "meal")
            assert_clean_exit(res)
            assert res.exit_code == 1
            assert "`copycart match` dumped no pairs for: meal; it found none" in res.output
            assert "run `copycart match`" not in res.output


@pytest.mark.parametrize("setting", [
    # a status `ingest` would reject, and an effect on an item that is never sold
    'status_mix={"student": 0.5, "postdoc": 0.5}', 'delta={"desert": 0.15}',
])
def test_simulate_setting_outside_what_ingest_reads_is_a_config_error(setting):
    with tempfile.TemporaryDirectory() as tmp:
        res = invoke("--seed", 3, "--out", tmp, "simulate", "--set", "n_persons=60",
                     "--set", "n_days=10", "--set", setting)
    assert_clean_exit(res)
    assert res.exit_code == 1
    assert "[errors.ConfigError] " + setting.split("=")[0] in res.output


@pytest.mark.parametrize("key", ["popularity_shock_sd", "availability_dropout", "gap_median_s", "gap_sigma", "pairs"])
def test_removed_simulate_setting_is_refused_by_name(key):
    with tempfile.TemporaryDirectory() as tmp:
        res = invoke("--seed", 3, "--out", tmp, "simulate", "--set", "n_persons=60",
                     "--set", "n_days=10", "--set", f"{key}=0.03")
    assert_clean_exit(res)
    assert res.exit_code == 1
    assert f"[errors.ConfigError] unknown simulation config keys: ['{key}']" in res.output


def test_simulate_takes_no_settings_file():
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "x.yaml")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("n_persons: 60\nn_days: 10\n")
        res = invoke("--seed", 3, "--out", tmp, "simulate", "--sim-config", path)
    assert_clean_exit(res)
    assert res.exit_code == 2


@pytest.mark.parametrize(
    "text", ['{"items": [', "[]", "", "\ufeff{}", "[" * 100000],
    ids=["unclosed", "list", "empty", "bom", "deep"],
)
def test_plot_of_a_report_that_is_not_one_is_an_ingest_error(text):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "results.json")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        res = invoke("--out", tmp, "plot")
    assert_clean_exit(res)
    assert res.exit_code == 1
    assert f"[errors.IngestError] {path}" in res.output


def json_paths(value, path=()):
    """The path of every value inside a JSON document, the root's first."""
    yield path
    if isinstance(value, (dict, list)):
        for key, child in value.items() if isinstance(value, dict) else enumerate(value):
            yield from json_paths(child, path + (key,))


DROP = object()


@FUZZ
@given(data=st.data())
def test_plot_of_a_report_of_the_wrong_shape_exits_cleanly(base, scratch, data):
    with open(base / "out" / "results.json", encoding="utf-8") as fh:
        results = json.load(fh)
    *parents, key = data.draw(st.sampled_from(list(json_paths(results))[1:]))
    value = data.draw(st.one_of(st.just(DROP), WRONG, st.integers(-2, 2), st.floats()))
    node = functools.reduce(operator.getitem, parents, results)
    if value is DROP:
        del node[key]
    else:
        node[key] = value
    (scratch / "results.json").write_text(json.dumps(results), encoding="utf-8")
    assert_clean_exit(invoke("--out", scratch, "plot"))
