"""Command line interface.

`copycart run` executes the whole pipeline; the other subcommands rerun one
stage from the dumps a previous stage left in the output directory, which
keeps long analyses resumable and lets any stage be reproduced in isolation.
Each subcommand calls the same stage function in `pipeline.py` that `run`
does.  `match` and `run` replace every pair file in matched_pairs/, and a
stage reads `matched_pairs/<item>.csv` as that item's pairs, so it never reads
an earlier match's.  An analysis that `run` records as a status (no discordant
pairs, too few delay bins or repeat encounters) fails the subcommand instead.
Exit codes: 0 success, 1 module error, 2 usage error, 3 balance gate failed.
"""

from __future__ import annotations

import functools
import json
import os
import sys

import click

from ..dyads import DyadSet
from ..errors import CopycartError
from ..matching import MatchedPairSet
from ..model import CATEGORY_KEYS
from . import pipeline
from .config import RunConfig, load_yaml
from .plots import emit_plots

EXIT_BALANCE = 3


def _fail(err: Exception) -> "click.ClickException":
    mod = type(err).__module__.replace("copycart.", "")
    return click.ClickException(f"[{mod}.{type(err).__name__}] {err}")


def guarded(fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        try:
            return fn(*args, **kwargs)
        except CopycartError as err:
            raise _fail(err) from err

    return wrapper


@click.group()
@click.option("--config", "config_path", type=click.Path(), default=None,
              help="YAML run configuration.")
@click.option("--seed", type=int, default=None, help="Override the config seed.")
@click.option("--out", type=click.Path(), default=None, help="Output directory.")
# perfbench/run.py passes `--threads 1` to every child; once it stops, this goes.
@click.option("--threads", type=click.IntRange(1, 1), hidden=True, expose_value=False)
@click.option("--require-balance", is_flag=True, default=False,
              help="Exit nonzero when any matched set fails the balance check.")
@click.pass_context
def main(ctx, config_path, seed, out, require_balance):
    """Mimicry analysis for sequential point-of-sale logs."""
    ctx.ensure_object(dict)
    ctx.obj.update(config_path=config_path, seed=seed, out=out, require_balance=require_balance)


def _run_config(ctx) -> RunConfig:
    o = ctx.obj
    data = load_yaml(o["config_path"]) if o["config_path"] else {}
    return RunConfig.from_dict(
        data,
        seed=o["seed"],
        out=o["out"],
        require_balance=True if o["require_balance"] else None,
    )


def _load_dyads(cfg: RunConfig, log) -> DyadSet:
    path = os.path.join(cfg.out, pipeline.DUMPS["dyads"])
    if not os.path.exists(path):
        raise click.ClickException(f"missing stage dump {path}; run `copycart dyads` first")
    return DyadSet.from_csv(path, log)


def _load_pairs(cfg: RunConfig, items) -> list[tuple[str, MatchedPairSet]]:
    """(item, pairs) of each `--item`, else of every item `match` dumped, by item."""
    dyads = _load_dyads(cfg, pipeline.ingest_inputs(cfg)[0])
    dumped = pipeline.dumped_items(cfg)
    if dumped is None:
        raise click.ClickException(
            f"no matched pairs dumped for: {', '.join(items) or 'any item'}; run `copycart match`")
    missing = ", ".join(i for i in items if i not in dumped)
    if missing:
        raise click.ClickException(
            f"`copycart match` dumped no pairs for: {missing}; it found none, or ran without that --item")
    return [(item, MatchedPairSet.from_csv(pipeline.pair_path(cfg, item), dyads, item))
            for item in sorted(set(items)) or dumped]


def _echo_json(obj) -> None:
    click.echo(json.dumps(pipeline._jsonable(obj), indent=2, sort_keys=True))


@main.command("simulate")
@click.option("--sim-config", type=click.Path(exists=True), default=None,
              help="YAML of generator settings.")
@click.option("--set", "assignments", multiple=True, metavar="KEY=VALUE",
              help="Override one generator setting (JSON-parsed value).")
@click.pass_context
@guarded
def simulate_cmd(ctx, sim_config, assignments):
    """Generate a synthetic transaction log with known ground truth."""
    from ..sim import SimulationConfig, simulate, write_simulation  # only this command simulates

    data = load_yaml(sim_config) if sim_config else {}
    for item in assignments:
        key, _, raw = item.partition("=")
        if not _:
            raise click.ClickException(f"--set expects KEY=VALUE, got {item!r}")
        try:
            data[key] = json.loads(raw)
        except json.JSONDecodeError:
            data[key] = raw
    if ctx.obj["seed"] is not None:
        data["seed"] = ctx.obj["seed"]
    out = ctx.obj["out"] or "out"
    result = simulate(SimulationConfig.from_dict(data))
    paths = write_simulation(result, out)
    for name in sorted(paths):
        click.echo(f"{name}: {paths[name]}")
    click.echo(f"expected_rd: {result.ground_truth.expected_rd!r}")


@main.command()
@click.pass_context
@guarded
def ingest(ctx):
    """Parse and validate the inputs; report what was read."""
    cfg = _run_config(ctx)
    log, _demo = pipeline.ingest_inputs(cfg)
    click.echo(f"transactions: {log.n}")
    click.echo(f"persons: {len(log.persons)}")
    click.echo(f"rejected_records: {log.report.n_rejected}")


@main.command()
@click.pass_context
@guarded
def dyads(ctx):
    """Extract adjacent-transaction dyads and keep recurring pairs."""
    cfg = _run_config(ctx)
    log, _demo = pipeline.ingest_inputs(cfg)
    _ctx, n_raw, kept = pipeline.dyad_stage(log, cfg)
    click.echo(f"dyads_raw: {n_raw}")
    click.echo(f"dyads_kept: {kept.n}")


def _item_option(fn):
    return click.option("--item", "items", multiple=True, type=click.Choice(CATEGORY_KEYS),
                        help="Focus item key; repeatable. Default: every selected item.")(fn)


@main.command()
@_item_option
@click.pass_context
@guarded
def match(ctx, items):
    """Build matched treated/control pairs for each focus item."""
    cfg = _run_config(ctx)
    log, _demo = pipeline.ingest_inputs(cfg)
    ctx_stats = pipeline.compute_context(log)
    dyads_set = _load_dyads(cfg, log)
    pipeline.reset_pairs(cfg)
    for item in pipeline.select_items(dyads_set, cfg, items):
        pairs = pipeline.match_item(dyads_set, item, ctx_stats, cfg)
        click.echo(f"{item}: {pairs.n} pairs ({pairs.n_unmatched} unmatched treated)" if pairs.n
                   else f"{item}: no_pairs")


@main.command()
@_item_option
@click.pass_context
@guarded
def estimate(ctx, items):
    """Matched-pair effect estimates from dumped pairs."""
    cfg = _run_config(ctx)
    for item, pairs in _load_pairs(cfg, items):
        _echo_json(pipeline.item_effect(pairs, item, cfg))


@main.command()
@_item_option
@click.pass_context
@guarded
def baseline(ctx, items):
    """Re-estimate after shuffling partners within comparable queues."""
    cfg = _run_config(ctx)
    log, _demo = pipeline.ingest_inputs(cfg)
    ctx_stats = pipeline.compute_context(log)
    dyads_set = _load_dyads(cfg, log)
    for item in pipeline.select_items(dyads_set, cfg, items):
        _echo_json({"item": item, **pipeline.item_baseline(dyads_set, item, ctx_stats, cfg)})


@main.command()
@_item_option
@click.pass_context
@guarded
def sensitivity(ctx, items):
    """Hidden-bias severity needed to overturn each significant estimate."""
    cfg = _run_config(ctx)
    for item, pairs in _load_pairs(cfg, items):
        _echo_json(pipeline.item_sensitivity(pairs, item, cfg))


@main.command()
@_item_option
@click.pass_context
@guarded
def dose(ctx, items):
    """Effect by partner-to-focal delay bin, with the fitted trend."""
    cfg = _run_config(ctx)
    for item, pairs in _load_pairs(cfg, items):
        _echo_json(pipeline.item_dose(pairs, item, cfg))


@main.command()
@_item_option
@click.pass_context
@guarded
def coordinate(ctx, items):
    """Compare focal uptake when the pair leader orders first versus second."""
    cfg = _run_config(ctx)
    log, _demo = pipeline.ingest_inputs(cfg)
    dyads_set = _load_dyads(cfg, log)
    for item in pipeline.select_items(dyads_set, cfg, items):
        _echo_json(pipeline.item_coordination(dyads_set, item, cfg))


@main.command("infer-status")
@click.pass_context
@guarded
def infer_status(ctx):
    """Train the status classifier and predict unlabeled persons."""
    cfg = _run_config(ctx)
    log, demo = pipeline.ingest_inputs(cfg)
    if demo is None:
        raise click.ClickException("infer-status needs a demographics input")
    _demo, summary = pipeline._status_stage(log, cfg, demo)
    _echo_json(summary)
    click.echo(f"predictions: {os.path.join(cfg.out, pipeline.DUMPS['predictions'])}")


@main.command()
@click.pass_context
@guarded
def run(ctx):
    """Execute every stage and write the full report."""
    cfg = _run_config(ctx)
    results = pipeline.run_pipeline(cfg)
    click.echo(f"results: {os.path.join(cfg.out, pipeline.DUMPS['results'])}")
    for it in results["items"]:
        if it["status"] != "ok":
            click.echo(f"{it['item']}: {it['status']}")
            continue
        est = it["estimate"]
        ci = est["rd_ci"] or (float("nan"), float("nan"))
        click.echo(f"{it['item']}: rd {est['rd']:+.4f} [{ci[0]:+.4f}, {ci[1]:+.4f}] "
                   f"n_pairs {est['n_pairs']}")
    if not results["balance_ok"]:
        click.echo("balance: FAILED", err=True)
        if cfg.require_balance:
            sys.exit(EXIT_BALANCE)


@main.command()
@click.pass_context
@guarded
def plot(ctx):
    """Re-render the SVG plots from an existing results.json."""
    out = ctx.obj["out"] or "out"
    path = os.path.join(out, pipeline.DUMPS["results"])
    if not os.path.exists(path):
        raise click.ClickException(f"missing {path}; run `copycart run` first")
    report = emit_plots(pipeline.load_results(path), os.path.join(out, pipeline.DUMPS["plots_dir"]))
    for name in sorted(report):
        click.echo(f"{name}: {report[name]}")


if __name__ == "__main__":
    main()
