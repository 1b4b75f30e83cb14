"""Full analysis pipeline: ingest through results.json, CSVs, and plots.

Each stage and each per-item analysis is one function here.  `run_pipeline`
chains them, and every staged subcommand in `main.py` calls the same function
on the dumps an earlier stage wrote, so a staged rerun reproduces a run byte
for byte.  All randomness derives from the single config seed and the
analysis's name.
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

RESULTS_VERSION = 1

# what a run writes under --out; the staged subcommands read the dumps back
DUMPS = {
    "results": "results.json",
    "estimates": "estimates.csv",
    "context": "context.csv",
    "dyads": "dyads.csv",
    "pairs_dir": "matched_pairs",
    "plots_dir": "plots",
    "predictions": "predictions.csv",
}


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
Check = Callable[[object, str], Violation]


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
    **dict.fromkeys(("required", "properties", "additionalProperties", "dependencies"), _TYPES["object"]),
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


def _first(violations) -> Violation:
    return next(filter(None, violations), None)


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
    elif key == "dependencies" and all(isinstance(s, dict) for s in arg.values()):
        deps = {name: sub(s) for name, s in arg.items()}
        check = lambda v, p: _first(c(v, p) for k, c in deps.items() if k in v)
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
        check = lambda v, p: (p, say(v)) if bad(v) else None
    applies = _APPLIES_TO.get(key)
    return check if applies is None else (lambda v, p: check(v, p) if applies(v) else None)


def schema_violation(instance, schema: dict) -> Violation:
    """Where `instance` first breaks the draft-7 `schema`: a `$.items[0].status`
    path and a message, or None.  The checker implements only the keywords
    the shipped schema uses; any other is a ValueError, even where `instance`
    never reaches it."""
    defs: dict[str, Check] = dict.fromkeys(schema.get("definitions", {}))
    defs.update({name: _compile(s, defs) for name, s in schema.get("definitions", {}).items()})
    return _compile(schema, defs)(instance, "$")


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
    ctx.to_csv(os.path.join(cfg.out, DUMPS["context"]))
    raw = extract_dyads(
        reconstruct_queues(log), max_gap_s=cfg.max_gap_s, require_anchor=cfg.require_anchor
    )
    dyads = filter_frequent_pairs(raw, cfg.min_pair_count)
    dyads.to_csv(os.path.join(cfg.out, DUMPS["dyads"]))
    return ctx, raw.n, dyads


def select_items(dyads: DyadSet, cfg: RunConfig, items=()) -> list[str]:
    """The focus items: `items` when given, else every selected addition item."""
    if items:
        return sorted(set(items))
    per_daypart = select_additions(dyads, cfg.min_fraction)
    return sorted({i for lst in per_daypart.values() for i in lst})


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
    ids, X = feature_matrix(log, labeled)
    model = train_status_model(
        X, [demo.status_of(p) for p in ids], seed=int(derive_seed(cfg.seed, "infer"))
    )
    unknown = [p for p in log.persons if demo.status_of(p) is None]
    u_ids, labels, conf = [], [], []
    if unknown:
        u_ids, u_X = feature_matrix(log, unknown)
        labels, conf = model.predict(u_X)
    make_dirs(cfg.out)
    write_predictions_csv(os.path.join(cfg.out, DUMPS["predictions"]), u_ids, labels, conf)
    summary = {
        "classes": model.classes,
        "metrics": model.metrics,
        "n_labeled": len(ids),
        "n_predicted": len(u_ids),
    }
    return demo.with_status_overrides(dict(zip(u_ids, labels))), summary


# Per-item analyses. Each derives its own seed from the run seed and the
# item, so `run` and the staged subcommands draw the same numbers.


def pair_path(cfg: RunConfig, item: str) -> str:
    """Where `match` dumps an item's pairs: <out>/matched_pairs/<item>.csv."""
    return os.path.join(cfg.out, DUMPS["pairs_dir"], f"{item}.csv")


def dumped_items(cfg: RunConfig) -> Optional[list[str]]:
    """The sorted stems of the `*.csv` files directly under matched_pairs/; None if it is no directory."""
    try:
        with os.scandir(os.path.join(cfg.out, DUMPS["pairs_dir"])) as entries:
            return sorted(e.name[:-4] for e in entries if e.name.endswith(".csv") and e.is_file())
    except (FileNotFoundError, NotADirectoryError):
        return None


def reset_pairs(cfg: RunConfig) -> None:
    """Empty matched_pairs/ of the pair files `dumped_items` lists, before a match dumps its own."""
    make_dirs(os.path.join(cfg.out, DUMPS["pairs_dir"]))
    for item in dumped_items(cfg):
        os.remove(pair_path(cfg, item))


def match_item(dyads: DyadSet, item: str, ctx: ContextStats, cfg: RunConfig) -> MatchedPairSet:
    """Matched pairs for one focus item, dumped to `pair_path` when there are any."""
    pairs = build_matched_pairs(dyads, item, ctx, cfg.adjustment)
    if pairs.n:
        pairs.to_csv(pair_path(cfg, item))
    return pairs


def item_effect(pairs: MatchedPairSet, item: str, cfg: RunConfig) -> dict:
    seed = int(derive_seed(cfg.seed, "item", item))
    return E.effect_estimate(pairs, cfg.n_boot, seed, cfg.alpha)


def item_baseline(dyads: DyadSet, item: str, ctx: ContextStats, cfg: RunConfig) -> dict:
    """Effect after shuffling partners within comparable queues."""
    rnd = B.randomize_partners(dyads, int(derive_seed(cfg.seed, "item", item, "shuffle")))
    pairs = build_matched_pairs(rnd, item, ctx, cfg.adjustment)
    if pairs.n == 0:
        return {"status": "no_pairs"}
    seed = int(derive_seed(cfg.seed, "item", item, "baseline"))
    return E.effect_estimate(pairs, cfg.n_boot, seed, cfg.alpha, "baseline")


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


def _analyze_item(item, dyads, ctx, demo, cfg: RunConfig) -> dict:
    """All enabled analyses for one focus item.

    An analysis that cannot run records its status instead of failing the run.
    """
    pairs = match_item(dyads, item, ctx, cfg)
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
        report["baseline"] = item_baseline(dyads, item, ctx, cfg)
    if cfg.sensitivity:
        try:
            report["sensitivity"] = item_sensitivity(pairs, item, cfg)
        except NoPairsError:
            report["sensitivity"] = {"status": "no_discordant"}
    if cfg.dose_response:
        try:
            report["dose_response"] = item_dose(pairs, item, cfg)
        except (NoPairsError, InsufficientBinsError) as err:
            report["dose_response"] = {"status": type(err).__name__, "detail": str(err)}
    if cfg.coordination:
        try:
            report["coordination"] = item_coordination(dyads, item, cfg)
        except InsufficientDataError as err:
            report["coordination"] = {"status": "insufficient_data", "detail": str(err)}
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
    paths = {k: os.path.join(cfg.out, v) for k, v in DUMPS.items()}
    ctx, n_raw, dyads = dyad_stage(log, cfg)

    status_summary = None
    if cfg.infer_status:
        demo, status_summary = _status_stage(log, cfg, demo)

    items = select_items(dyads, cfg)
    reset_pairs(cfg)

    item_reports = [_analyze_item(item, dyads, ctx, demo, cfg) for item in items]

    anchor = None
    if cfg.anchor_mimicry:
        anchor = {}
        for attr in ("meal_vegetarian", "beverage_kind"):
            try:
                anchor[attr] = E.anchor_mimicry(
                    dyads, ctx, attr, spec=cfg.adjustment, n_rep=cfg.n_boot, seed=cfg.seed,
                    alpha=cfg.alpha,
                )
            except NoPairsError:
                anchor[attr] = {"status": "no_pairs"}

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
    with open_output(paths["results"], "results", "w") as fh:
        json.dump(results, fh, indent=2, sort_keys=True)
        fh.write("\n")
    _write_estimates_csv(paths["estimates"], results)
    emit_plots(results, paths["plots_dir"])
    return results
