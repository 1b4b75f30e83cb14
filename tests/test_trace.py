"""The benchmark's tracer still finds the layers it times.

`perfbench/tracer.py` wraps the names `copycart.cli.pipeline` holds and
skips a name that is missing, and the benchmark reads a span never recorded
as zero seconds; so a renamed or moved layer would read as free.  This runs
the tracer around the `dyads`, `match`, `estimate`, `dose` and `baseline`
stages of a small simulated log; `dyads` reads the catalog and the
demographics, `estimate` and `dose` read both kinds of dump back, and
`baseline` reads the dyads.
"""

import csv
import json
import os
import subprocess
import sys

import yaml

from copycart.sim import SimulationConfig, simulate, write_simulation

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

SPANS = {
    "dyads": ("model.catalog", "model.demographics", "model.parse", "context.compute", "context.write",
              "dyads.queues", "dyads.extract", "dyads.filter", "dyads.write"),
    "match": ("model.parse", "context.compute", "matching.build"),
    "estimate": ("model.parse", "dyads.read", "matching.read", "estimate.effect"),
    "dose": ("dyads.read", "matching.read", "estimate.dose"),
    "baseline": ("dyads.read", "baseline.shuffle"),
}


def traced(stage, tmp_path):
    """The spans and counts `tracer.py` records for one staged subcommand."""
    dest = tmp_path / f"{stage}.spans.json"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [os.path.join(ROOT, "src"), os.environ.get("PYTHONPATH")])))
    args = ["--config", tmp_path / "run.yaml", "--out", tmp_path / "out", stage]
    proc = subprocess.run([sys.executable, os.path.join(ROOT, "perfbench", "tracer.py"), dest, "--", *args],
                          env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    with open(dest, encoding="utf-8") as fh:
        return json.load(fh)


def test_tracer_records_every_dyad_and_match_span(tmp_path):
    write_simulation(simulate(SimulationConfig(seed=3, n_persons=200, n_days=60)), tmp_path / "in")
    inputs = ("transactions", "catalog", "demographics")
    conf = {"input": {k: str(tmp_path / "in" / f"{k}.csv") for k in inputs}, "estimation": {"seed": 1}}
    (tmp_path / "run.yaml").write_text(yaml.safe_dump(conf), encoding="utf-8")
    for stage, spans in SPANS.items():
        got = traced(stage, tmp_path)
        recorded = {name for name, *_ in got["spans"]}
        assert set(spans) <= recorded, (stage, set(spans) - recorded)
        if "context.compute" not in spans:
            continue
        with open(tmp_path / "out" / "context.csv", encoding="utf-8", newline="") as fh:
            cells = {tuple(row[:3]) for row in csv.reader(fh)} - {("shop_id", "date", "daypart")}
        assert got["counts"]["context.cells"] == len(cells) > 0
