"""Full analysis pipeline: ingest through results.json, CSVs, and plots.

Each stage and each per-item analysis is one function here.  `run_pipeline`
chains them, and every staged subcommand in `main.py` calls the same function
on the dumps an earlier stage wrote, so a staged rerun reproduces a run byte
for byte and prints what `run` records, statuses too (`attempt`).  This
module owns the dump layout: where each dump lives, and every read of one
back, with the hint a missing dump gives.  All randomness derives from the
single config seed and the analysis's name.
"""

from __future__ import annotations

import importlib.resources
import json
import math
import os
import re
import reprlib
from typing import Callable, Optional

import numpy as np

from .. import baseline as B
from .. import estimate as E
from .. import sensitivity as S
from ..context import ContextStats, compute_context
from ..csvio import make_dirs, open_output, read_bytes, utf8_text, write_csv
from ..dyads import DyadSet, extract_dyads, filter_frequent_pairs, reconstruct_queues, select_additions
from ..errors import (
    IngestError,
    InsufficientBinsError,
    InsufficientDataError,
    NoPairsError,
)
from ..infer import feature_matrix, train_status_model, write_predictions_csv
from ..matching import MatchedPairSet, balance_report, build_matched_pairs
from ..model import STUDIED_STATUSES, Demographics, ItemCatalog, TransactionLog, parse_transactions
from .._util import derive_seed
from .config import RunConfig
from .plots import emit_plots

RESULTS_VERSION = 2

# what an optional analysis raises when the data cannot support it
CANNOT_RUN = (NoPairsError, InsufficientBinsError, InsufficientDataError)

# what a run writes under --out; the staged subcommands read the dumps back
DUMPS = {
    "results": "results.json",
    "estimates": "estimates.csv",
    "context": "context.csv",
    "dyads": "dyads.csv",
    "pairs": "matched_pairs.csv",
    "plots_dir": "plots",
    "predictions": "predictions.csv",
}


def dump_path(out: str, name: str) -> str:
    """Where a run under `out` writes the dump `DUMPS[name]`."""
    return os.path.join(out, DUMPS[name])


def _jsonable(value):
    """Drop non-finite floats to null so results.json stays valid JSON."""
    if isinstance(value, dict):
        return {k: _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, (np.floating, float)):
        v = float(value)
        return v if math.isfinite(v) else None
    if isinstance(value, np.integer):
        return int(value)
    return value


def load_schema() -> dict:
    ref = importlib.resources.files("copycart.cli") / "schema" / "results.schema.json"
    return json.loads(ref.read_text(encoding="utf-8"))


# (path, message) of where a JSON value first breaks a schema; None if nowhere
Violation = Optional[tuple[str, str]]
# a check finds the path and a function that words the message, so a
# violation that a `oneOf` branch discards is never worded
Check = Callable[[object, str], Optional[tuple[str, Callable[[], str]]]]


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


_TYPES = {
    "null": lambda v: v is None,
    "boolean": lambda v: isinstance(v, bool),
    "number": _is_number,
    "integer": lambda v: _is_number(v) and (isinstance(v, int) or v.is_integer()),
    "string": lambda v: isinstance(v, str),
    "array": lambda v: isinstance(v, list),
    "object": lambda v: isinstance(v, dict),
}
# the keywords that constrain only values of one type
_APPLIES_TO = {
    **dict.fromkeys(("minimum", "exclusiveMinimum", "exclusiveMaximum"), _TYPES["number"]),
    "pattern": _TYPES["string"],
    **dict.fromkeys(("minItems", "maxItems", "items"), _TYPES["array"]),
    **dict.fromkeys(("required", "properties", "additionalProperties"), _TYPES["object"]),
}
_ANNOTATIONS = frozenset(("$schema", "title", "definitions"))
_DEFINITIONS = "#/definitions/"


def _same(a, b) -> bool:
    """JSON equality: true is not 1, and 1.0 is 1."""
    if isinstance(a, bool) or isinstance(b, bool):
        return type(a) is type(b) and a == b
    if isinstance(a, list) and isinstance(b, list):
        return len(a) == len(b) and all(map(_same, a, b))
    if isinstance(a, dict) and isinstance(b, dict):
        return a.keys() == b.keys() and all(_same(v, b[k]) for k, v in a.items())
    return a == b


def _first(found):
    return next(filter(None, found), None)


def _compile(schema: dict, defs: dict[str, Check]) -> Check:
    """The check of one schema node: its keywords' checks in schema order.
    `defs` maps each definition name to its check."""
    if not isinstance(schema, dict):
        raise ValueError(f"schema {schema!r} is not an object")
    if "$ref" in schema:  # draft 7 ignores the keywords beside a $ref
        ref = schema["$ref"]
        name = ref[len(_DEFINITIONS):]
        if not ref.startswith(_DEFINITIONS) or name not in defs:
            raise ValueError(f"schema $ref {ref!r} names no definition")
        return lambda v, p: defs[name](v, p)
    checks = [_keyword(key, arg, schema, defs) for key, arg in schema.items() if key not in _ANNOTATIONS]
    return lambda v, p: _first(check(v, p) for check in checks)


def _keyword(key: str, arg, schema: dict, defs: dict[str, Check]) -> Check:
    """The check of one draft-7 keyword of `schema`; a ValueError names a
    keyword, or a form of one, that this checker does not implement."""
    show, sub = reprlib.repr, (lambda s: _compile(s, defs))
    check: Optional[Check] = None  # else the keyword's value fails when `bad`, as `say` tells
    if key == "type":
        kinds = [arg] if isinstance(arg, str) else list(arg)
        if not set(kinds) <= _TYPES.keys():
            raise ValueError(f"schema type {arg!r} is not implemented")
        bad = lambda v: not any(_TYPES[k](v) for k in kinds)
        say = lambda v: f"{show(v)} is not of type {', '.join(map(repr, kinds))}"
    elif key == "const":
        bad, say = lambda v: not _same(v, arg), lambda v: f"{show(arg)} was expected"
    elif key == "enum":
        bad = lambda v: not any(_same(v, e) for e in arg)
        say = lambda v: f"{show(v)} is not one of {show(arg)}"
    elif key == "minimum":  # each bound fails only on a comparison that holds, as NaN's never does
        bad, say = lambda v: v < arg, lambda v: f"{v!r} is less than the minimum of {arg!r}"
    elif key == "exclusiveMinimum":
        bad, say = lambda v: v <= arg, lambda v: f"{v!r} is less than or equal to the minimum of {arg!r}"
    elif key == "exclusiveMaximum":
        bad, say = lambda v: v >= arg, lambda v: f"{v!r} is greater than or equal to the maximum of {arg!r}"
    elif key == "pattern":
        regex = re.compile(arg)
        bad, say = lambda v: not regex.search(v), lambda v: f"{show(v)} does not match {arg!r}"
    elif key == "minItems":
        bad, say = lambda v: len(v) < arg, lambda v: f"{show(v)} is too short"
    elif key == "maxItems":
        bad, say = lambda v: len(v) > arg, lambda v: f"{show(v)} is too long"
    elif key == "required":
        missing = lambda v: next((name for name in arg if name not in v), None)
        bad, say = lambda v: missing(v) is not None, lambda v: f"{missing(v)!r} is a required property"
    elif key == "additionalProperties" and isinstance(arg, bool):
        extra = lambda v: next((k for k in v if k not in schema.get("properties", {})), None)
        bad = lambda v: not arg and extra(v) is not None
        say = lambda v: f"Additional properties are not allowed ({extra(v)!r} was unexpected)"
    elif key == "oneOf":
        parts = list(map(sub, arg))
        passed = lambda v: sum(part(v, "$") is None for part in parts)
        bad = lambda v: passed(v) != 1
        say = lambda v: f"{show(v)} is valid under {'more than one' if passed(v) else 'none'} of the given schemas"
    elif key == "items" and isinstance(arg, dict):
        item = sub(arg)
        check = lambda v, p: _first(item(x, f"{p}[{i}]") for i, x in enumerate(v))
    elif key == "properties":
        props = {name: sub(s) for name, s in arg.items()}
        check = lambda v, p: _first(c(v[k], f"{p}.{k}") for k, c in props.items() if k in v)
    elif key == "additionalProperties" and isinstance(arg, dict):
        known, rest = schema.get("properties", {}), sub(arg)
        check = lambda v, p: _first(rest(x, f"{p}.{k}") for k, x in v.items() if k not in known)
    elif key == "allOf":
        parts = list(map(sub, arg))
        check = lambda v, p: _first(part(v, p) for part in parts)
    elif key == "if" and "else" not in schema:
        cond, then = sub(arg), sub(schema.get("then", {}))
        check = lambda v, p: then(v, p) if cond(v, p) is None else None
    elif key == "then" and "if" in schema:
        check = lambda v, p: None  # applied by its `if`
    else:
        raise ValueError(f"schema keyword {key!r} in this form is not implemented")
    if check is None:
        check = lambda v, p: (p, lambda: say(v)) if bad(v) else None
    applies = _APPLIES_TO.get(key)
    return check if applies is None else (lambda v, p: check(v, p) if applies(v) else None)


def schema_violation(instance, schema: dict) -> Violation:
    """Where `instance` first breaks the draft-7 `schema`: a `$.items[0].status`
    path and a message, or None.  The checker implements only the keywords
    the shipped schema uses; any other is a ValueError, even where `instance`
    never reaches it."""
    defs: dict[str, Check] = dict.fromkeys(schema.get("definitions", {}))
    defs.update({name: _compile(s, defs) for name, s in schema.get("definitions", {}).items()})
    found = _compile(schema, defs)(instance, "$")
    return None if found is None else (found[0], found[1]())


def load_results(path: str) -> dict:
    """A results.json read back and checked against the shipped schema; an
    IngestError names the file when it is unreadable, not JSON or not a report."""
    name, data = read_bytes(path, "results")
    try:
        results = json.loads(utf8_text(name, data))
    except json.JSONDecodeError as err:
        raise IngestError(f"{name} line {err.lineno}: not JSON ({err.msg})") from None
    except RecursionError:
        raise IngestError(f"{name}: JSON nested too deeply to read") from None
    violation = schema_violation(results, load_schema())
    if violation:
        raise IngestError(f"{name}: not a copycart report: {violation[0]}: {violation[1]}")
    return results


def replot(out: str) -> dict[str, str]:
    """Re-render the plots of the results.json under `out`; what `emit_plots` reports."""
    path = dump_path(out, "results")
    if not os.path.exists(path):
        raise IngestError(f"missing {path}; run `copycart run` first")
    return emit_plots(load_results(path), dump_path(out, "plots_dir"))


def ingest_inputs(cfg: RunConfig) -> tuple[TransactionLog, Optional[Demographics]]:
    """The log, its baskets reduced to category masks by the catalog, and the demographics."""
    cfg.require_demographics()
    log = parse_transactions(cfg.transactions, ItemCatalog.from_csv(cfg.catalog))
    demo = None
    if cfg.demographics:
        demo = Demographics.from_csv(cfg.demographics).validated_against(log)
    return log, demo


def dyad_stage(log: TransactionLog, cfg: RunConfig) -> tuple[ContextStats, int, DyadSet]:
    """Context, queues and dyads; writes context.csv and dyads.csv.

    Returns (context, raw dyad count, dyads kept by the frequent-pair filter).
    """
    make_dirs(cfg.out)
    ctx = compute_context(log)
    ctx.to_csv(dump_path(cfg.out, "context"))
    raw = extract_dyads(
        reconstruct_queues(log), max_gap_s=cfg.max_gap_s, require_anchor=cfg.require_anchor
    )
    dyads = filter_frequent_pairs(raw, cfg.min_pair_count)
    dyads.to_csv(dump_path(cfg.out, "dyads"))
    return ctx, raw.n, dyads


def _dyads_dump(cfg: RunConfig) -> str:
    """Where the dyads.csv under --out is; an IngestError if there is none."""
    path = dump_path(cfg.out, "dyads")
    if not os.path.exists(path):
        raise IngestError(f"missing stage dump {path}; run `copycart dyads` first")
    return path


def load_dyads(cfg: RunConfig) -> tuple[TransactionLog, DyadSet]:
    """The log, and the dyads.csv that `copycart dyads` wrote from it; the
    dump is looked for before the log is parsed."""
    path = _dyads_dump(cfg)
    log = ingest_inputs(cfg)[0]
    return log, DyadSet.from_csv(path, log)


def select_items(dyads: DyadSet, cfg: RunConfig, items=()) -> list[str]:
    """The focus items: `items` when given, else every selected addition item."""
    return sorted(set(items)) if items else select_additions(dyads, cfg.min_fraction)


def _status_stage(log, cfg: RunConfig, demo: Demographics) -> tuple[Demographics, dict]:
    """Train on labeled student/staff persons, predict the rest; writes predictions.csv.

    Predicted labels fill only missing statuses; persons labeled with a
    non-studied status keep their label.
    """
    in_log = set(log.persons)
    labeled = [
        r.person_id
        for r in demo.records()
        if r.status in STUDIED_STATUSES and r.person_id in in_log
    ]
    unknown = [p for p in log.persons if demo.status_of(p) is None]
    # one pass over the log's bincounts for both sets of persons
    _, X = feature_matrix(log, labeled + unknown)
    n = len(labeled)
    model = train_status_model(
        X[:n], [demo.status_of(p) for p in labeled], seed=int(derive_seed(cfg.seed, "infer"))
    )
    labels, conf = model.predict(X[n:])
    make_dirs(cfg.out)
    write_predictions_csv(dump_path(cfg.out, "predictions"), unknown, labels, conf)
    summary = {
        "classes": model.classes,
        "metrics": model.metrics,
        "n_labeled": n,
        "n_predicted": len(unknown),
    }
    return demo.with_status_overrides(dict(zip(unknown, labels))), summary


# Per-item analyses. Each derives its own seed from the run seed and the
# item, so `run` and the staged subcommands draw the same numbers.


def load_pairs(cfg: RunConfig, items=()) -> list[tuple[str, MatchedPairSet]]:
    """(item, pairs) of each of `items`, else of every item in the pair
    dump, by item; both dumps are looked for, and the pair dump's items
    checked, before the log is parsed."""
    dyads_path = _dyads_dump(cfg)
    path = dump_path(cfg.out, "pairs")
    if not os.path.exists(path):
        raise IngestError(f"no matched pairs dumped for: {', '.join(items) or 'any item'}; run `copycart match`")

    def dyads_for(dumped: list[str]) -> DyadSet:
        missing = ", ".join(i for i in items if i not in dumped)
        if missing:
            raise IngestError(f"`copycart match` dumped no pairs for: {missing}; "
                              "it found none, or ran without that --item")
        return DyadSet.from_csv(dyads_path, ingest_inputs(cfg)[0])

    pairs = MatchedPairSet.from_csv(path, dyads_for)
    return [(item, pairs[item]) for item in sorted(set(items)) or pairs]


def match_stage(dyads: DyadSet, items: list[str], ctx: ContextStats, cfg: RunConfig,
                analyze: Callable[[MatchedPairSet], object]) -> list:
    """`analyze(pairs)` of each item's matched pairs, in the order of `items`;
    each item's pairs go to matched_pairs.csv as its analysis returns."""
    done = []

    def analyzed(pairs: MatchedPairSet) -> MatchedPairSet:
        done.append(analyze(pairs))
        return pairs

    MatchedPairSet.to_csv(dump_path(cfg.out, "pairs"),
                          (analyzed(build_matched_pairs(dyads, item, ctx, cfg.adjustment)) for item in items))
    return done


def item_effect(pairs: MatchedPairSet, item: str, cfg: RunConfig) -> dict:
    seed = int(derive_seed(cfg.seed, "item", item))
    return E.effect_estimate(E.paired_counts(pairs), item, cfg.n_boot, seed, cfg.alpha)


def item_baseline(dyads: DyadSet, item: str, ctx: ContextStats, cfg: RunConfig) -> dict:
    """Effect after shuffling partners within comparable queues; a NoPairsError
    when the shuffled dyads match no pair."""
    rnd = B.randomize_partners(dyads, int(derive_seed(cfg.seed, "item", item, "shuffle")))
    pairs = build_matched_pairs(rnd, item, ctx, cfg.adjustment)
    if pairs.n == 0:
        raise NoPairsError(f"no matched pairs for {item!r} after the partner shuffle")
    seed = int(derive_seed(cfg.seed, "item", item, "baseline"))
    return E.effect_estimate(E.paired_counts(pairs), item, cfg.n_boot, seed, cfg.alpha, "baseline")


def item_sensitivity(pairs: MatchedPairSet, item: str, cfg: RunConfig) -> dict:
    return S.sensitivity_result(E.paired_counts(pairs), cfg.alpha, item)


def item_dose(pairs: MatchedPairSet, item: str, cfg: RunConfig) -> dict:
    seed = int(derive_seed(cfg.seed, "item", item, "dose"))
    return E.dose_response(
        pairs, max_delay_s=cfg.max_gap_s, n_rep=cfg.n_boot, seed=seed, alpha=cfg.alpha
    )


def item_coordination(dyads: DyadSet, item: str, cfg: RunConfig) -> dict:
    seed = int(derive_seed(cfg.seed, "item", item, "coordination"))
    return B.coordination_test(dyads, item, seed=seed)


def attempt(analysis: Callable[[], dict]) -> dict:
    """`analysis()`, or, when the data cannot support it, the status node
    `{"status": <error type>, "detail": <message>}` that `run` records and a
    staged subcommand prints."""
    try:
        return analysis()
    except CANNOT_RUN as err:
        return {"status": type(err).__name__, "detail": str(err)}


def _analyze_item(pairs: MatchedPairSet, dyads, ctx, demo, cfg: RunConfig) -> dict:
    """All enabled analyses for the matched pairs of one focus item.

    An analysis that cannot run records its status instead of failing the run.
    """
    item = pairs.item
    if pairs.n == 0:
        return {"item": item, "status": "no_pairs", "n_treated_total": pairs.n_treated_total}
    report = {
        "item": item,
        "status": "ok",
        "n_treated_total": pairs.n_treated_total,
        "n_unmatched": pairs.n_unmatched,
        "estimate": item_effect(pairs, item, cfg),
        "naive_rd": E.naive_risk_difference(dyads, item),
        "balance": balance_report(pairs),
        "baseline": None,
        "sensitivity": None,
        "dose_response": None,
        "coordination": None,
        "subgroups": None,
    }
    if cfg.baseline:
        report["baseline"] = attempt(lambda: item_baseline(dyads, item, ctx, cfg))
    if cfg.sensitivity:
        report["sensitivity"] = attempt(lambda: item_sensitivity(pairs, item, cfg))
    if cfg.dose_response:
        report["dose_response"] = attempt(lambda: item_dose(pairs, item, cfg))
    if cfg.coordination:
        report["coordination"] = attempt(lambda: item_coordination(dyads, item, cfg))
    if cfg.subgroups:
        report["subgroups"] = {
            grouping: E.subgroup_estimates(
                pairs,
                grouping,
                demographics=demo,
                n_rep=cfg.n_boot,
                seed=int(derive_seed(cfg.seed, "item", item, "subgroup")),
                min_pairs=cfg.min_stratum,
                alpha=cfg.alpha,
            )
            for grouping in cfg.subgroups
        }
    return report


def _write_estimates_csv(path, results: dict) -> None:
    cols = [
        "item", "stratum", "n_pairs", "rd", "rd_lo", "rd_hi",
        "rr", "rr_lo", "rr_hi", "chi2", "p", "naive_rd", "status",
    ]

    def fmt(x):
        return "" if x is None else repr(float(x))

    def row(est: dict, naive=None):
        rd_ci = est.get("rd_ci") or (None, None)
        rr_ci = est.get("rr_ci") or (None, None)
        return [
            est["item"], est["stratum"], est["n_pairs"],
            fmt(est["rd"]), fmt(rd_ci[0]), fmt(rd_ci[1]),
            fmt(est["rr"]), fmt(rr_ci[0]), fmt(rr_ci[1]),
            fmt(est["chi2"]), fmt(est["p"]),
            fmt(naive), "ok",
        ]

    rows = []
    for item in results["items"]:
        if item["status"] != "ok":
            rows.append([item["item"], "pooled", 0] + [""] * 9 + ["no_pairs"])
            continue
        rows.append(row(item["estimate"], naive=item["naive_rd"]))
        if isinstance(item.get("baseline"), dict) and "rd" in item["baseline"]:
            rows.append(row(item["baseline"]))
        for grouping in item.get("subgroups") or {}:
            for est in item["subgroups"][grouping].values():
                rows.append(row(est))
    for est in (results.get("anchor_mimicry") or {}).values():
        if "rd" in est:
            rows.append(row(est))
    write_csv(path, cols, [(column, None) for column in zip(*rows)])


def run_pipeline(cfg: RunConfig) -> dict:
    """Run every stage; write the dumps, plots and results.json; return the report."""
    log, demo = ingest_inputs(cfg)
    ctx, n_raw, dyads = dyad_stage(log, cfg)

    status_summary = None
    if cfg.infer_status:
        demo, status_summary = _status_stage(log, cfg, demo)

    item_reports = match_stage(dyads, select_items(dyads, cfg), ctx, cfg,
                               lambda pairs: _analyze_item(pairs, dyads, ctx, demo, cfg))

    anchor = None
    if cfg.anchor_mimicry:
        anchor = {
            attr: attempt(lambda: E.anchor_mimicry(dyads, ctx, attr, spec=cfg.adjustment, n_rep=cfg.n_boot,
                                                   seed=cfg.seed, alpha=cfg.alpha))
            for attr in ("meal_vegetarian", "beverage_kind")
        }

    results = _jsonable({
        "version": RESULTS_VERSION,
        "seed": cfg.seed,
        "alpha": cfg.alpha,
        "counts": {
            "n_transactions": log.n,
            "n_persons": len(log.persons),
            "n_dyads_raw": n_raw,
            "n_dyads": dyads.n,
            "n_rejected_records": log.report.n_rejected,
        },
        "items": item_reports,
        "anchor_mimicry": anchor,
        "status_inference": status_summary,
        "balance_ok": all(r["balance"]["pass"] for r in item_reports if r["status"] == "ok"),
    })
    violation = schema_violation(results, load_schema())
    if violation:
        raise ValueError(f"the report breaks the results schema at {violation[0]}: {violation[1]}")
    with open_output(dump_path(cfg.out, "results"), "results", "w") as fh:
        json.dump(results, fh, indent=2, sort_keys=True)
        fh.write("\n")
    _write_estimates_csv(dump_path(cfg.out, "estimates"), results)
    emit_plots(results, dump_path(cfg.out, "plots_dir"))
    return results
