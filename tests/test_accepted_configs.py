"""Every accepted setting runs: a `RunConfig` drawn from the ranges the
config accepts ends `run` with exit 0, or 3 under `--require-balance`, and a
results.json that passes the shipped schema, never in a traceback.

The draws cover every analysis switch and grouping, both caliper modes with
the exact-match switches, `alpha` from near 0 to near 1 with `n_boot` at its
floor `ceil(2 / alpha)`, and the extremes of the gap, pair-count, fraction,
stratum and seed settings; two fixed examples put `n_boot` at `N_BOOT_MAX`,
at the least `alpha` and at the largest.  They run in-process over two tiny
simulated logs, one without demographics.  On logs this small many analyses
cannot run, so the configs also reach the status nodes.  The examples share
one output directory, which each run overwrites.
"""

import json
import math

import jsonschema
import pytest
import yaml
from click.testing import CliRunner
from hypothesis import example, given, settings
from hypothesis import strategies as st

from copycart.cli.config import N_BOOT_MAX
from copycart.cli.main import main
from copycart.cli.pipeline import load_schema
from copycart.estimate import DEMOGRAPHIC_GROUPINGS, GROUPINGS
from copycart.sim import SimulationConfig, simulate, write_simulation

LOGS = {
    # 160 persons over 8 days, 57 and 63 of them labeled staff and student:
    # enough for `infer_status` to train
    "demographics": SimulationConfig(
        seed=5, n_persons=160, n_days=8, n_shops=1, n_registers_per_shop=2,
        status_mix={"student": 0.5, "staff": 0.5, "other": 0.0},
        demographics_known_fraction=0.8, delta={"dessert": 0.3}),
    "no_demographics": SimulationConfig(
        seed=3, n_persons=60, n_days=10, n_shops=1, n_registers_per_shop=1,
        visit_rate=1.0, daypart_weights=(0, 1, 0), delta={"dessert": 0.3}),
}


@pytest.fixture(scope="module")
def root(tmp_path_factory):
    root = tmp_path_factory.mktemp("configs")
    for name, cfg in LOGS.items():
        write_simulation(simulate(cfg), root / name)
    return root


def or_extreme(typical, *extremes):
    """`typical` in three draws of four, else one of the `extremes`: most of
    them leave a tiny log no dyad or item to analyse."""
    pick = lambda extreme: st.sampled_from(extremes) if extreme else typical
    return st.sampled_from([False] * 3 + [True]).flatmap(pick)


SWITCHES = ("baseline", "sensitivity", "dose_response", "coordination", "anchor_mimicry")


def groupings(demographics: bool) -> tuple:
    return GROUPINGS if demographics else tuple(g for g in GROUPINGS if g not in DEMOGRAPHIC_GROUPINGS)


@st.composite
def cases(draw) -> tuple[str, dict]:
    """A log's name and a flat run config that `RunConfig` accepts, without
    its inputs; `n_boot` is alpha's floor."""
    log = draw(st.sampled_from(sorted(LOGS)))
    demographics = log == "demographics"
    alpha = draw(st.one_of(st.floats(2e-5, 1e-2), st.floats(1e-2, 0.5), st.floats(0.5, 1, exclude_max=True)))
    return log, {
        "seed": draw(or_extreme(st.integers(0, 2**64 - 1), 0, 2**63, 2**64 - 1)),
        "alpha": alpha,
        "n_boot": math.ceil(2 / alpha),
        "max_gap_s": draw(or_extreme(st.integers(2, 900), 1, 10**12)),
        "min_pair_count": draw(or_extreme(st.integers(2, 12), 1, 10**9)),
        "min_fraction": draw(or_extreme(st.floats(0, 0.2), 0.0, 1.0)),
        "min_stratum": draw(or_extreme(st.integers(0, 60), 10**9)),
        "adjustment": {
            "caliper": draw(st.floats(0, 1, exclude_min=True, exclude_max=True)),
            "exclude_own_transactions": draw(st.booleans()),
        },
        **{switch: draw(st.booleans()) for switch in SWITCHES},
        "infer_status": demographics and draw(st.booleans()),
        "subgroups": draw(st.lists(st.sampled_from(groupings(demographics)), unique=True)),
        "require_balance": draw(st.booleans()),
    }


def at_bound(log: str, alpha: float) -> tuple[str, dict]:
    """A config of `log` with n_boot at N_BOOT_MAX, where one bootstrapped
    estimate of a few hundred pairs takes 0.1-0.3 s, so only each item's own
    estimate is bootstrapped.  Drawn configs keep alpha's floor, which
    reaches the bound only at the least alpha, 2e-6."""
    return log, {
        "seed": 2**63, "alpha": alpha, "n_boot": N_BOOT_MAX, "min_pair_count": 2, "baseline": False,
        "sensitivity": True, "coordination": True, "infer_status": log == "demographics",
    }


@settings(derandomize=True, deadline=None, database=None, max_examples=40)
@given(case=cases())
@example(case=at_bound("demographics", 2e-6))
@example(case=at_bound("no_demographics", math.nextafter(1.0, 0.0)))
def test_every_accepted_config_runs(root, case):
    log, conf = case
    inputs = ("transactions", "catalog") + (("demographics",) if log == "demographics" else ())
    conf = {**conf, **{name: str(root / log / f"{name}.csv") for name in inputs}}
    (root / "run.yaml").write_text(yaml.safe_dump(conf), encoding="utf-8")
    report = root / "out" / "results.json"
    report.unlink(missing_ok=True)
    res = CliRunner().invoke(main, ["--config", str(root / "run.yaml"), "--out", str(root / "out"), "run"])
    # click turns a message into SystemExit; anything else is a traceback
    assert res.exception is None or isinstance(res.exception, SystemExit), repr(res.exception)
    assert res.exit_code in (0, 3), res.output
    with open(report, encoding="utf-8") as fh:
        results = json.load(fh)
    jsonschema.Draft7Validator(load_schema()).validate(results)
    assert (results["seed"], results["alpha"]) == (conf["seed"], conf["alpha"])
    assert res.exit_code == (3 if conf.get("require_balance") and not results["balance_ok"] else 0)
