"""Command line interface.

`copycart run` executes the whole pipeline; the other subcommands rerun one
stage from the dumps a previous stage left in the output directory, which
keeps long analyses resumable and lets any stage be reproduced in isolation.
A subcommand parses its arguments, calls a function of `pipeline.py` (the
same stage function `run` calls) and echoes the result; `pipeline.py` reads
every dump back and says which stage to run when one is missing.  `match`
and `run` write every item's pairs to one matched_pairs.csv, whose `item`
column says whose pairs each row holds.  When an analysis cannot run (no
pairs after the partner shuffle, no discordant pairs, too few delay bins or
repeat encounters), its subcommand prints the status `run` records and exits 0.
Exit codes: 0 success, 1 module error, 2 usage error, 3 balance gate failed.
A module error is any `CopycartError`; the group prints it, from whichever
subcommand, as `Error: [module.ErrorType] message`.
"""

from __future__ import annotations

import gc
import json
import sys

import click

from ..errors import ConfigError, CopycartError
from ..model import CATEGORY_KEYS
from . import pipeline
from .config import RunConfig, load_yaml

EXIT_BALANCE = 3


class _Shell(click.Group):
    """The CLI's one error boundary: a `CopycartError` that any subcommand
    raises exits 1 as `[module.ErrorType] message`, never as a traceback."""

    def invoke(self, ctx):
        try:
            return super().invoke(ctx)
        except CopycartError as err:
            mod = type(err).__module__.replace("copycart.", "")
            raise click.ClickException(f"[{mod}.{type(err).__name__}] {err}") from err


@click.group(cls=_Shell)
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


def _echo_json(obj) -> None:
    click.echo(json.dumps(pipeline._jsonable(obj), indent=2, sort_keys=True))


@main.command("simulate")
@click.option("--set", "assignments", multiple=True, metavar="KEY=VALUE",
              help="Override one generator setting (JSON-parsed value).")
@click.pass_context
def simulate_cmd(ctx, assignments):
    """Generate a synthetic transaction log with known ground truth."""
    from ..sim import SimulationConfig, simulate, write_simulation  # only this command simulates

    data = {}
    for item in assignments:
        key, _, raw = item.partition("=")
        if not _:
            raise ConfigError(f"--set expects KEY=VALUE, got {item!r}")
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
def ingest(ctx):
    """Parse and validate the inputs; report what was read."""
    cfg = _run_config(ctx)
    log, _demo = pipeline.ingest_inputs(cfg)
    click.echo(f"transactions: {log.n}")
    click.echo(f"persons: {len(log.persons)}")
    click.echo(f"rejected_records: {log.report.n_rejected}")


@main.command()
@click.pass_context
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
def match(ctx, items):
    """Build matched treated/control pairs for each focus item."""
    cfg = _run_config(ctx)
    log, dyads_set = pipeline.load_dyads(cfg)
    ctx_stats = pipeline.compute_context(log)
    items = pipeline.select_items(dyads_set, cfg, items)
    for p in pipeline.match_stage(dyads_set, items, ctx_stats, cfg):
        click.echo(f"{p.item}: {p.n} pairs ({p.n_unmatched} unmatched treated)" if p.n else f"{p.item}: no_pairs")


@main.command()
@_item_option
@click.pass_context
def estimate(ctx, items):
    """Matched-pair effect estimates from dumped pairs."""
    cfg = _run_config(ctx)
    for item, pairs in pipeline.load_pairs(cfg, items):
        _echo_json(pipeline.item_effect(pairs, item, cfg))


@main.command()
@_item_option
@click.pass_context
def baseline(ctx, items):
    """Re-estimate after shuffling partners within comparable queues."""
    cfg = _run_config(ctx)
    log, dyads_set = pipeline.load_dyads(cfg)
    ctx_stats = pipeline.compute_context(log)
    for item in pipeline.select_items(dyads_set, cfg, items):
        _echo_json(pipeline.attempt(lambda: pipeline.item_baseline(dyads_set, item, ctx_stats, cfg)))


@main.command()
@_item_option
@click.pass_context
def sensitivity(ctx, items):
    """Hidden-bias severity needed to overturn each significant estimate."""
    cfg = _run_config(ctx)
    for item, pairs in pipeline.load_pairs(cfg, items):
        _echo_json(pipeline.attempt(lambda: pipeline.item_sensitivity(pairs, item, cfg)))


@main.command()
@_item_option
@click.pass_context
def dose(ctx, items):
    """Effect by partner-to-focal delay bin, with the fitted trend."""
    cfg = _run_config(ctx)
    for item, pairs in pipeline.load_pairs(cfg, items):
        _echo_json(pipeline.attempt(lambda: pipeline.item_dose(pairs, item, cfg)))


@main.command()
@_item_option
@click.pass_context
def coordinate(ctx, items):
    """Compare focal uptake when the pair leader orders first versus second."""
    cfg = _run_config(ctx)
    dyads_set = pipeline.load_dyads(cfg)[1]
    for item in pipeline.select_items(dyads_set, cfg, items):
        _echo_json(pipeline.attempt(lambda: pipeline.item_coordination(dyads_set, item, cfg)))


@main.command("infer-status")
@click.pass_context
def infer_status(ctx):
    """Train the status classifier and predict unlabeled persons."""
    cfg = _run_config(ctx)
    log, demo = pipeline.ingest_inputs(cfg)
    if demo is None:
        raise ConfigError("infer-status needs a demographics input")
    _demo, summary = pipeline._status_stage(log, cfg, demo)
    _echo_json(summary)
    click.echo(f"predictions: {pipeline.dump_path(cfg.out, 'predictions')}")


@main.command()
@click.pass_context
def run(ctx):
    """Execute every stage and write the full report."""
    cfg = _run_config(ctx)
    results = pipeline.run_pipeline(cfg)
    click.echo(f"results: {pipeline.dump_path(cfg.out, 'results')}")
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
def plot(ctx):
    """Re-render the SVG plots from an existing results.json."""
    report = pipeline.replot(ctx.obj["out"] or "out")
    for name in sorted(report):
        click.echo(f"{name}: {report[name]}")


def entry():
    """The process entry: `copycart` and `python -m copycart.cli.main`.

    The objects the imports built live as long as the process, so they are
    frozen out of every later collection, the one at exit included.
    In-process callers of `main` (tests, tracers) keep their collector as
    it is.
    """
    gc.freeze()
    main()


if __name__ == "__main__":
    entry()
