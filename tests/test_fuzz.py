"""Fuzzing the CLI: a malformed input file, stage dump or config value ends
in a documented exit code with a message, never in a traceback.

Every command runs in-process through click's runner on a tiny simulated
log.  The generated values are wrong types and malformed text only, never
large magnitudes, so no example can ask for a big simulation.
"""

import json
import os
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
        "estimation": {"seed": 1, "n_boot": 20},
        "analyses": {"baseline": False, "sensitivity": False},
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
    assert (root / "out" / "matched_pairs" / "dessert.csv").exists()
    return root


# -- malformed files -----------------------------------------------------------

# file under the base directory -> the command that reads it
FILES = {
    "in/transactions.csv": "ingest",
    "in/catalog.csv": "ingest",
    "in/demographics.csv": "ingest",
    "out/dyads.csv": "match",
    "out/matched_pairs/dessert.csv": "estimate",
}

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


@pytest.mark.parametrize("name", sorted(FILES))
@FUZZ
@given(damage=DAMAGE)
def test_malformed_file_exits_cleanly(base, name, damage):
    with tempfile.TemporaryDirectory() as tmp:
        shutil.copytree(base / "in", os.path.join(tmp, "in"))
        shutil.copytree(base / "out", os.path.join(tmp, "out"))
        path = os.path.join(tmp, name)
        with open(path, "rb") as fh:
            data = fh.read()
        with open(path, "wb") as fh:
            fh.write(damaged(data, **damage))
        config = os.path.join(tmp, "run.yaml")
        with open(config, "w", encoding="utf-8") as fh:
            yaml.safe_dump(run_config(os.path.join(tmp, "in")), fh)
        assert_clean_exit(invoke("--config", config, "--out", os.path.join(tmp, "out"), FILES[name]))


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
    ("dyads", "max_gap_s"), ("dyads", "min_pair_count"), ("dyads", "require_anchor"),
    ("dyads", "min_fraction"), ("estimation", "n_boot"), ("estimation", "seed"),
    ("estimation", "alpha"), ("estimation", "min_stratum"), ("analyses", "baseline"),
    ("analyses", "subgroups"), ("analyses", "infer_status"), ("adjustment", "caliper"),
    ("adjustment", "match_focal_identity"), (None, "adjustment"), (None, "threads"),
    (None, "input"), (None, "dyads"),
]


@FUZZ
@given(key=st.sampled_from(RUN_KEYS), value=WRONG)
def test_run_config_of_wrong_type_exits_cleanly(base, key, value):
    conf = run_config(base / "in")
    section, name = key
    if section is None:
        conf[name] = value
    else:
        conf.setdefault(section, {})[name] = value
    with tempfile.TemporaryDirectory() as tmp:
        config = os.path.join(tmp, "run.yaml")
        with open(config, "w", encoding="utf-8") as fh:
            yaml.safe_dump(conf, fh)
        assert_clean_exit(invoke("--config", config, "--out", os.path.join(tmp, "o"), "ingest"))


@FUZZ
@given(damage=DAMAGE)
def test_malformed_config_file_exits_cleanly(base, damage):
    data = yaml.safe_dump(run_config(base / "in")).encode("utf-8")
    with tempfile.TemporaryDirectory() as tmp:
        config = os.path.join(tmp, "run.yaml")
        with open(config, "wb") as fh:
            fh.write(damaged(data, **damage))
        assert_clean_exit(invoke("--config", config, "--out", os.path.join(tmp, "o"), "ingest"))


SIM_KEYS = sorted(SimulationConfig.__dataclass_fields__)


@FUZZ
@given(
    key=st.sampled_from(SIM_KEYS),
    value=st.one_of(WRONG.map(json.dumps), TEXT),  # JSON of a wrong type, or raw text
)
def test_simulate_setting_of_wrong_type_exits_cleanly(key, value):
    with tempfile.TemporaryDirectory() as tmp:
        res = invoke("--seed", 3, "--out", tmp, "simulate", "--set", "n_persons=60",
                     "--set", "n_days=10", "--set", f"{key}={value}")
        assert_clean_exit(res)
