"""End-to-end benchmark of the copycart CLI, with an optional traced run.

    python3 perfbench/run.py --workload full --seed 7 --seconds 20 --trace 0

Set-up simulates the workload's input log from `--seed` (several times, to
time it and to check that the same seed gives the same bytes). The measured
phase then drives the real CLI, one child process at a time with
`--threads 1` (a closed loop with one client), repeating the workload's
command(s) until their wall time adds up to `--seconds` and at least
`min_reps` repetitions are done. Every repetition's outputs are checked. With
`--trace 1` one untraced and one traced repetition run instead, and the
per-layer metrics come from spans recorded by `perfbench/tracer.py` in the
traced child.

Human-readable lines go to stdout first; the last line is one JSON object
with `correct`, `attempted`, `failed` and `metrics`.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import importlib.util
import json
import os
import platform
import re
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

from tracer import self_times

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / "perfbench" / "_work"
TRACER = ROOT / "perfbench" / "tracer.py"

CHILD_TIMEOUT_S = 150.0
RD_BAND = (0.12, 0.18)  # acceptance test 2's band for the simulated +0.15 dessert effect
STAGES = (
    "ingest", "dyads", "match", "estimate", "sensitivity", "dose",
    "baseline", "coordinate", "infer-status", "plot",
)
# staged subcommand -> where its JSON lines sit in the `run` report
STAGE_JSON = {
    "estimate": "estimate",
    "sensitivity": "sensitivity",
    "dose": "dose_response",
    "baseline": "baseline",
    "coordinate": "coordination",
}

FULL_SIM = {"delta": {"dessert": 0.15}, "demographics_known_fraction": 0.8}
FULL_RUN = {
    "estimation": {"seed": 11, "n_boot": 500},
    "analyses": {
        "baseline": True, "sensitivity": True, "dose_response": True,
        "coordination": True, "anchor_mimicry": True, "infer_status": True,
        "subgroups": ["partner_status", "daypart"],
    },
}


@dataclass(frozen=True)
class Workload:
    name: str
    sim: dict  # SimulationConfig settings besides the seed
    run: dict  # run config sections besides the input paths
    staged: bool = False  # the staged subcommand chain instead of one `run`
    min_reps: int = 1
    setups: int = 5  # set-ups per untraced run; setup_s is their median

    @property
    def rd_band(self) -> bool:
        """Acceptance test 2 validates the rd band on the default population only."""
        return "n_persons" not in self.sim


WORKLOADS = {
    w.name: w
    for w in (
        Workload("full", FULL_SIM, FULL_RUN, min_reps=4, setups=5),
        # a quarter of full's log sets up in a quarter of the time, so it
        # takes more set-ups for a steady median: one after each stage
        Workload("staged", dict(FULL_SIM, n_persons=500), FULL_RUN, staged=True, setups=10),
    )
}

# Per-layer metrics. Times are summed self time of the named spans. A time
# must vary from run to run, so every time listed here is nonzero on every
# workload; work that one workload never does (dump reads on full, subgroups
# on staged) is tracked by its exact call count, which may be 0, and its time
# is printed only.
LAYER_TIMES = {
    "model.parse_s": "model.parse",
    "context.compute_s": "context.compute",
    "dyads.queues_s": "dyads.queues",
    "dyads.extract_s": "dyads.extract",
    "dyads.filter_s": "dyads.filter",
    "dyads.write_s": "dyads.write",
    "infer.features_s": "infer.features",
    "infer.train_s": "infer.train",
    "infer.predict_s": "infer.predict",
    "matching.build_s": "matching.build",
    "matching.write_s": "matching.write",
    "estimate.effect_s": "estimate.effect",
    "estimate.dose_s": "estimate.dose",
    "baseline.shuffle_s": "baseline.shuffle",
    "baseline.coordination_s": "baseline.coordination",
    "sensitivity.result_s": "sensitivity.result",
    "plots.emit_s": "plots.emit",
}
LAYER_COUNTS = {
    "model.parse_calls": "model.parse.calls",
    "model.serialize_calls": "model.serialize.calls",
    "context.cells": "context.cells",
    "dyads.raw": "dyads.raw",
    "dyads.kept": "dyads.kept",
    "dyads.read_calls": "dyads.read.calls",
    "infer.train_calls": "infer.train.calls",
    "infer.predicted": "infer.predicted",
    "matching.build_calls": "matching.build.calls",
    "matching.pairs": "matching.pairs",
    "matching.balance_calls": "matching.balance.calls",
    "matching.read_calls": "matching.read.calls",
    "estimate.effect_calls": "estimate.effect.calls",
    "estimate.dose_calls": "estimate.dose.calls",
    "estimate.subgroup_calls": "estimate.subgroup.calls",
    "estimate.anchor_calls": "estimate.anchor.calls",
    "baseline.shuffle_calls": "baseline.shuffle.calls",
    "baseline.coordination_calls": "baseline.coordination.calls",
    "sensitivity.result_calls": "sensitivity.result.calls",
}


class BenchError(Exception):
    """The program cannot be measured here."""


class SetupError(Exception):
    """Set-up did not give the same inputs for the same seed."""


# ---------------------------------------------------------------- children


@dataclass
class Child:
    args: list
    code: int
    wall_s: float
    cpu_s: float
    maxrss_mb: float
    stdout: str
    stderr: str


def spawn(args: list, log_stem: Path) -> Child:
    """Run one child to completion; rusage is that child's own, from wait4."""
    out_path = log_stem.with_name(log_stem.name + ".out")
    err_path = log_stem.with_name(log_stem.name + ".err")
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(args, stdout=out, stderr=err, cwd=ROOT,
                                env=dict(os.environ, PYTHONPATH=str(SRC)))
        deadline = t0 + CHILD_TIMEOUT_S
        while True:
            pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
            if pid:
                break
            if time.perf_counter() > deadline:
                proc.kill()
                pid, status, usage = os.wait4(proc.pid, 0)
                break
            time.sleep(0.002)
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Child(
        args=args,
        code=proc.returncode,
        wall_s=wall,
        cpu_s=usage.ru_utime + usage.ru_stime,
        maxrss_mb=usage.ru_maxrss / 1024.0,
        stdout=out_path.read_text(encoding="utf-8", errors="replace"),
        stderr=err_path.read_text(encoding="utf-8", errors="replace"),
    )


@dataclass
class Rep:
    """One repetition of a workload: one `run`, or the whole staged chain."""

    out: Path
    children: list = field(default_factory=list)
    spans: list = field(default_factory=list)  # one span dump per traced child
    errors: list = field(default_factory=list)

    @property
    def wall_s(self) -> float:
        return sum(c.wall_s for c in self.children)

    @property
    def cpu_s(self) -> float:
        return sum(c.cpu_s for c in self.children)

    @property
    def maxrss_mb(self) -> float:
        return max(c.maxrss_mb for c in self.children)


def run_rep(w: Workload, config: Path, out: Path, traced: bool, ref_results: Path | None,
            between=None) -> Rep:
    """Spawn the workload's command(s) one after another into a fresh `out`,
    calling `between()` after each child, outside its timing."""
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    if w.staged:
        # `plot` re-renders from an earlier run's report, as in the README chain
        shutil.copyfile(ref_results, out / "results.json")
    rep = Rep(out)
    for command in (STAGES if w.staged else ("run",)):
        stem = out.parent / f"{out.name}.{command}"
        args = ["--config", str(config), "--out", str(out), "--threads", "1", command]
        if traced:
            spans = stem.with_name(stem.name + ".spans.json")
            argv = [sys.executable, str(TRACER), str(spans), "--"] + args
        else:
            argv = [sys.executable, "-m", "copycart.cli.main"] + args
        child = spawn(argv, stem)
        rep.children.append(child)
        if child.code != 0:
            rep.errors.append(f"{command} exited {child.code}: {child.stderr.strip()[-400:]}")
        if traced and spans.exists():
            rep.spans.append(json.loads(spans.read_text(encoding="utf-8")))
        if between is not None:
            between()
    return rep


# ------------------------------------------------------------------ set-up


class Setup:
    """Simulates and writes the workload's log; the first call's files are
    the input, and every later call must write the same bytes."""

    def __init__(self, w: Workload, seed: int, dest: Path):
        self.w, self.seed, self.dest = w, seed, dest
        self.simulate_s: list = []
        self.write_s: list = []
        self.rows = self._digest = None

    @property
    def times(self) -> list:
        return [a + b for a, b in zip(self.simulate_s, self.write_s)]

    def __call__(self) -> None:
        from copycart.sim import SimulationConfig, simulate, write_simulation

        i = len(self.simulate_s)
        target = self.dest if i == 0 else self.dest.with_name(f"{self.dest.name}.{i}")
        shutil.rmtree(target, ignore_errors=True)
        t0 = time.perf_counter()
        result = simulate(SimulationConfig(seed=self.seed, **self.w.sim))
        t1 = time.perf_counter()
        write_simulation(result, target)
        self.write_s.append(time.perf_counter() - t1)
        self.simulate_s.append(t1 - t0)
        self.rows = result.log.n
        digest = tree_digest(target)
        if i == 0:
            self._digest = digest
            return
        shutil.rmtree(target)
        if digest != self._digest:
            raise SetupError(f"set-up {i} wrote other inputs than set-up 0 for seed {self.seed}")


def write_config(w: Workload, inputs: Path, dest: Path) -> Path:
    data = {
        "input": {
            "transactions": str(inputs / "transactions.csv"),
            "catalog": str(inputs / "catalog.csv"),
            "demographics": str(inputs / "demographics.csv"),
        },
        **w.run,
    }
    dest.write_text(json.dumps(data, indent=2) + "\n", encoding="utf-8")  # JSON is YAML
    return dest


# ------------------------------------------------------------------ checks


def tree_digest(root: Path) -> dict:
    return {
        str(p.relative_to(root)): hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(root.rglob("*"))
        if p.is_file()
    }


def _json_objects(text: str) -> list:
    """The JSON documents a staged subcommand prints one after another."""
    decoder, objs, i = json.JSONDecoder(), [], 0
    text = text.strip()
    while i < len(text):
        obj, i = decoder.raw_decode(text, i)
        objs.append(obj)
        while i < len(text) and text[i].isspace():
            i += 1
    return objs


def _as_reported(obj):
    """A printed result as results.json stores it (non-finite floats as null)."""
    return json.loads(json.dumps(obj).replace("NaN", "null").replace("Infinity", "null"))


def check_results(out: Path, rows: int, schema: dict, rd_band: bool) -> tuple[list, dict | None]:
    """Checks every `run` report must pass; returns (errors, report)."""
    import jsonschema

    path = out / "results.json"
    if not path.exists():
        return [f"{path.name} missing"], None
    results = json.loads(path.read_text(encoding="utf-8"))
    errors = []
    try:
        jsonschema.validate(results, schema)
    except jsonschema.ValidationError as err:
        errors.append(f"results.json fails the schema: {err.message}")
    counts = results.get("counts", {})
    if counts.get("n_transactions") != rows:
        errors.append(f"n_transactions {counts.get('n_transactions')} != {rows} rows written")
    if counts.get("n_rejected_records") != 0:
        errors.append(f"n_rejected_records {counts.get('n_rejected_records')} != 0")
    dessert = next((i for i in results.get("items", []) if i["item"] == "dessert"), None)
    if dessert is None or dessert["status"] != "ok":
        errors.append("no dessert estimate")
    elif rd_band and not RD_BAND[0] <= dessert["estimate"]["rd"] <= RD_BAND[1]:
        errors.append(f"dessert rd {dessert['estimate']['rd']} outside {RD_BAND}")
    return errors, results


def check_staged(rep: Rep, ref: Path, results: dict, rows: int) -> list:
    """Staged outputs must equal the `run` reference's on the same inputs."""
    errors = []
    by_stage = {c.args[-1]: c for c in rep.children}
    ingest = by_stage["ingest"].stdout
    if f"transactions: {rows}\n" not in ingest or "rejected_records: 0\n" not in ingest:
        errors.append(f"ingest reported {ingest.strip()!r}, expected {rows} rows, 0 rejected")
    ref_files, got = tree_digest(ref), tree_digest(rep.out)
    shared = ["dyads.csv", "context.csv", "predictions.csv"] + [
        k for k in ref_files if k.startswith(("matched_pairs/", "plots/"))
    ]
    for name in shared:
        if got.get(name) != ref_files[name]:
            errors.append(f"staged {name} differs from run's")
    items = {i["item"]: i for i in results["items"]}
    for stage, key in STAGE_JSON.items():
        printed = _json_objects(by_stage[stage].stdout)
        if sorted(o["item"] for o in printed) != sorted(items):
            errors.append(f"{stage} printed items {[o['item'] for o in printed]}")
        for obj in printed:
            if _as_reported(obj) != items.get(obj["item"], {}).get(key):
                errors.append(f"{stage} {obj['item']} differs from results.json {key}")
    status = _json_objects(by_stage["infer-status"].stdout.split("predictions:")[0])
    if [_as_reported(o) for o in status] != [results["status_inference"]]:
        errors.append("infer-status differs from results.json status_inference")
    return errors


def check_rep(w: Workload, rep: Rep, rows: int, schema: dict, ref: Path | None,
              ref_results: dict | None, first: dict | None) -> dict:
    """Record every failed check in `rep.errors`; returns the output digest."""
    if not rep.errors:
        if w.staged:
            rep.errors += check_staged(rep, ref, ref_results, rows)
        else:
            rep.errors += check_results(rep.out, rows, schema, w.rd_band)[0]
    digest = tree_digest(rep.out)
    if first is not None and digest != first:
        changed = sorted(k for k in set(digest) | set(first) if digest.get(k) != first.get(k))
        rep.errors.append(f"outputs differ from the first repetition's: {changed[:5]}")
    return digest


# ----------------------------------------------------------------- metrics


def median(xs: list) -> float:
    return float(statistics.median(xs))


def import_times(log_stem: Path, n: int) -> tuple[float, float]:
    """Median seconds a fresh interpreter spends importing the CLI, and the
    part of it spent in scipy.stats, from `-X importtime`."""
    totals, scipy_stats = [], []
    for i in range(n):
        child = spawn([sys.executable, "-X", "importtime", "-c", "import copycart.cli.main"],
                      log_stem.with_name(f"{log_stem.name}.{i}"))
        if child.code != 0:
            raise BenchError(f"importing copycart.cli.main failed: {child.stderr[-400:]}")
        total, stats = parse_importtime(child.stderr)
        totals.append(total)
        scipy_stats.append(stats)
    return median(totals), median(scipy_stats)


def parse_importtime(text: str) -> tuple[float, float]:
    """(cumulative s of copycart.cli.main, cumulative s of scipy.stats).

    scipy loads `scipy.stats` lazily, so the package has no line of its own;
    its cost is the sum over its shallowest submodule lines.
    """
    total, stats = 0.0, {}
    for line in text.splitlines():
        m = re.match(r"import time:\s+\d+ \|\s+(\d+) \|( +)(\S+)$", line)
        if not m:
            continue
        cumulative, depth, name = int(m.group(1)) / 1e6, len(m.group(2)), m.group(3)
        if name == "copycart.cli.main":
            total = cumulative
        if name == "scipy.stats" or name.startswith("scipy.stats."):
            stats.setdefault(depth, []).append(cumulative)
    return total, sum(stats[min(stats)]) if stats else 0.0


def layer_metrics(spans: list, counts: dict) -> tuple[dict, dict]:
    """Per-layer metrics plus every span's self time, from all dumps of a rep."""
    selfs: dict = {}
    for dump in spans:
        for name, t in self_times(dump["spans"]).items():
            selfs[name] = selfs.get(name, 0.0) + t
    metrics = {k: selfs.get(span, 0.0) for k, span in LAYER_TIMES.items()}
    metrics["pipeline.self_s"] = sum(t for n, t in selfs.items() if n.startswith("pipeline."))
    parse_s, treated = metrics["model.parse_s"], counts.get("matching.treated", 0)
    metrics["model.rows_per_s"] = counts.get("model.rows", 0) / parse_s if parse_s else 0.0
    metrics["matching.match_rate"] = counts.get("matching.pairs", 0) / treated if treated else 0.0
    for name, key in LAYER_COUNTS.items():
        metrics[name] = counts.get(key, 0)
    return metrics, selfs


# -------------------------------------------------------------------- main


def environment() -> dict:
    return {
        "python": platform.python_version(),
        "numpy": importlib.metadata.version("numpy"),
        "scipy": importlib.metadata.version("scipy"),
        "numba": importlib.util.find_spec("numba") is not None,
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
    }


def measure(w: Workload, seed: int, seconds: float, trace: bool) -> tuple[bool, list, dict]:
    """Set up, run and check the workload; returns (correct, reps, metrics)."""
    sys.path.insert(0, str(SRC))
    from copycart.cli.pipeline import load_schema

    work = WORK / w.name
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    schema = load_schema()

    setup = Setup(w, seed, work / "in")
    setup()
    rows = setup.rows
    print(f"# n_transactions {rows}")
    config = write_config(w, work / "in", work / "run.yaml")
    # the first import fills the bytecode and file caches, which users do not pay per run
    cli_import_s, scipy_stats_s = import_times(work / "import", n=3 if trace else 1)

    reps: list[Rep] = []
    ref = ref_results = None
    if w.staged:
        ref = work / "ref"
        reference = run_rep(WORKLOADS["full"], config, ref, False, None)
        errors, ref_results = check_results(ref, rows, schema, w.rd_band)
        reference.errors += errors
        reps.append(reference)
        if reference.errors:
            return False, reps, {}

    # Repetitions run until their summed wall time reaches `seconds`. The
    # remaining set-ups sit between their children, so that both sample the
    # machine at more points of the run: its speed changes in phases of
    # seconds. Every repetition's outputs must equal the first's, so with
    # tracing on the traced one is compared with the untraced one.
    measured: list[Rep] = []
    first = None

    def more_setup() -> None:
        if len(setup.times) < w.setups:
            setup()

    def enough() -> bool:
        if trace:
            return len(measured) == 2  # one untraced, one traced
        return len(measured) >= w.min_reps and sum(r.wall_s for r in measured) >= seconds

    while not enough():
        traced = trace and len(measured) == 1
        rep = run_rep(w, config, work / f"out{len(measured)}", traced,
                      ref and ref / "results.json", None if trace else more_setup)
        digest = check_rep(w, rep, rows, schema, ref, ref_results, first)
        first = digest if first is None else first
        measured.append(rep)
    while not trace and len(setup.times) < w.setups:
        setup()
    reps += measured

    if trace:
        untraced, traced_rep = measured
        counts: dict = {}
        for dump in traced_rep.spans:
            for k, v in dump["counts"].items():
                counts[k] = counts.get(k, 0) + v
        results = ref_results or json.loads(
            (untraced.out / "results.json").read_text(encoding="utf-8"))
        traced_rep.errors += check_counts(w, counts, results, rows)
        metrics, selfs = layer_metrics(traced_rep.spans, counts)
        metrics["sim.simulate_s"] = setup.simulate_s[0]
        metrics["sim.write_s"] = setup.write_s[0]
        metrics["cli.import_s"] = cli_import_s
        metrics["cli.import_scipy_stats_s"] = scipy_stats_s
        metrics["trace.overhead_s"] = sum(d["overhead_s"] for d in traced_rep.spans)
        print_self_times(selfs, untraced.wall_s, traced_rep.wall_s)
        (work / "spans.json").write_text(json.dumps(traced_rep.spans), encoding="utf-8")
    else:
        run_s = median([r.wall_s for r in measured])
        metrics = {
            "run_s": run_s,
            "tx_per_s": rows / run_s,
            "cpu_s": median([r.cpu_s for r in measured]),
            "peak_rss_mb": median([r.maxrss_mb for r in measured]),
            "setup_s": median(setup.times),
        }
        print("# repetitions %d, wall s: %s" % (
            len(measured), ", ".join(f"{r.wall_s:.3f}" for r in measured)))
        print("# set-ups %d, simulate + write s: %s" % (len(setup.times), ", ".join(
            f"{a:.3f}+{b:.3f}" for a, b in zip(setup.simulate_s, setup.write_s))))
    shutil.rmtree(work / "in", ignore_errors=True)
    return all(not r.errors for r in reps), reps, metrics


def check_counts(w: Workload, counts: dict, results: dict, rows: int) -> list:
    """Traced counts must agree with the untraced outputs of the same inputs."""
    errors = []
    parses = counts.get("model.parse.calls", 0)
    expected_parses = len(STAGES) - 1 if w.staged else 1  # every stage but plot
    if parses != expected_parses:
        errors.append(f"model.parse_calls {parses} != {expected_parses}")
    if counts.get("model.rows", 0) != rows * parses:
        errors.append(f"parsed {counts.get('model.rows')} rows, expected {rows} x {parses}")
    if counts.get("dyads.kept") != results["counts"]["n_dyads"]:
        errors.append(f"dyads.kept {counts.get('dyads.kept')} != n_dyads in results.json")
    if counts.get("dyads.raw") != results["counts"]["n_dyads_raw"]:
        errors.append(f"dyads.raw {counts.get('dyads.raw')} != n_dyads_raw in results.json")
    return errors


def print_self_times(selfs: dict, untraced_s: float, traced_s: float) -> None:
    print(f"# untraced {untraced_s:.3f} s, traced {traced_s:.3f} s")
    print("# self time by span:")
    for name, t in sorted(selfs.items(), key=lambda kv: -kv[1]):
        print(f"#   {name:28s} {t:9.4f} s")
    layers: dict = {}
    for name, t in selfs.items():
        layers[name.split(".")[0]] = layers.get(name.split(".")[0], 0.0) + t
    print("# self time by layer: " + ", ".join(
        f"{k} {v:.3f} s" for k, v in sorted(layers.items(), key=lambda kv: -kv[1])))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "copycart" / "cli" / "main.py").is_file():
        print(f"perfbench: no copycart sources under {SRC}", file=sys.stderr)
        return 2

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    units = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}
    why = {wl["name"]: wl["why"] for wl in spec["workloads"]}
    print(f"# workload {args.workload}: {why[args.workload]}")
    print(f"# environment {json.dumps(environment(), sort_keys=True)}")
    try:
        ok, reps, metrics = measure(
            WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace))
    except BenchError as err:
        print(f"perfbench: {err}", file=sys.stderr)
        return 2
    except SetupError as err:
        ok, reps, metrics = False, [Rep(WORK, errors=[str(err)])], {}
    for rep in reps:
        for e in rep.errors:
            print(f"# FAILED {rep.out.name}: {e}", file=sys.stderr)
    if ok and set(metrics) != set(units):
        raise RuntimeError(f"metrics {sorted(set(metrics) ^ set(units))} disagree with BENCHMARK.json")
    for name in units:
        if name in metrics:
            print(f"{name} {metrics[name]:.6g} {units[name]}")
    failed = sum(1 for r in reps if r.errors)
    print(f"# error_rate {failed / len(reps):.4f} ({failed} of {len(reps)} runs failed a check)")
    print(json.dumps({
        "correct": ok,
        "attempted": len(reps),
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units if k in metrics},
    }))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
