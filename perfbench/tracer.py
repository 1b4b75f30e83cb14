"""Layer tracing for the copycart benchmark, installed from outside the package.

`Tracer` keeps spans (name, start, end, parent) and exact counts in memory.
`install` wraps the public names that `copycart.cli.pipeline` and
`copycart.cli.main` call, so every call across a layer boundary becomes a
span. Module aliases (`E`, `B`, `S`) are replaced by proxies in those two
namespaces only, so calls the library makes internally are not counted.

Run as a script, it executes one copycart CLI command in this process with
tracing on and writes the spans, the counts and the tracing overhead as JSON:

    PYTHONPATH=src python3 perfbench/tracer.py SPANS.json -- --out o run
"""

from __future__ import annotations

import functools
import json
import sys
import time
import types
from collections import Counter
from contextlib import contextmanager


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index or None]
        self.counts: Counter = Counter()
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str):
        rec = [name, time.perf_counter(), None, self._stack[-1] if self._stack else None]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        try:
            yield
        finally:
            rec[2] = time.perf_counter()
            self._stack.pop()

    def wrap(self, fn, name: str, count=None):
        """`fn` timed as span `name`; `count(result)` adds exact counts."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name):
                result = fn(*args, **kwargs)
            self.counts[name + ".calls"] += 1
            if count is not None:
                self.counts.update(count(result))
            return result

        return traced

    def to_dict(self) -> dict:
        return {"spans": self.spans, "counts": dict(self.counts)}


def self_times(spans: list[list]) -> dict[str, float]:
    """Summed self time per span name: duration minus time in child spans.

    Spans come from one thread, so children of a span never overlap and
    their durations can simply be subtracted.
    """
    out: dict[str, float] = {}
    for name, start, end, _parent in spans:
        out[name] = out.get(name, 0.0) + (end - start)
    for _name, start, end, parent in spans:
        if parent is not None:
            pname = spans[parent][0]
            out[pname] -= end - start
    return out


def call_cost(n: int = 20000) -> float:
    """Seconds one traced call adds to a bare call, measured on a no-op."""

    def noop():
        return None

    traced = Tracer().wrap(noop, "noop")
    t0 = time.perf_counter()
    for _ in range(n):
        noop()
    t1 = time.perf_counter()
    for _ in range(n):
        traced()
    t2 = time.perf_counter()
    return ((t2 - t1) - (t1 - t0)) / n


def _proxy(module, tracer: Tracer, wrapped: dict[str, str]):
    """Module stand-in whose listed functions are traced; the rest delegate."""
    proxy = types.ModuleType(module.__name__)
    proxy.__getattr__ = lambda name: getattr(module, name)
    for attr, span in wrapped.items():
        setattr(proxy, attr, tracer.wrap(getattr(module, attr), span))
    return proxy


def _wrap_method(tracer: Tracer, cls, attr: str, span: str, count=None):
    raw = cls.__dict__[attr]
    if isinstance(raw, classmethod):
        setattr(cls, attr, classmethod(tracer.wrap(raw.__func__, span, count)))
    else:
        setattr(cls, attr, tracer.wrap(raw, span, count))


def install(tracer: Tracer) -> None:
    """Wrap every layer boundary the CLI crosses. Call once per process."""
    from copycart import baseline, estimate, sensitivity
    from copycart.cli import main as M
    from copycart.cli import pipeline as P
    from copycart.context import ContextStats
    from copycart.dyads import DyadSet
    from copycart.infer import StatusModel
    from copycart.matching import MatchedPairSet
    from copycart.model import Demographics, ItemCatalog

    functions = {
        "parse_transactions": ("model.parse", lambda log: {"model.rows": log.n}),
        "serialize_transactions": ("model.serialize", None),
        "compute_context": ("context.compute", lambda c: {"context.cells": c.n_cells}),
        "reconstruct_queues": ("dyads.queues", None),
        "extract_dyads": ("dyads.extract", lambda d: {"dyads.raw": d.n}),
        "filter_frequent_pairs": ("dyads.filter", lambda d: {"dyads.kept": d.n}),
        "select_additions": ("dyads.select", None),
        "feature_matrix": ("infer.features", None),
        "train_status_model": ("infer.train", None),
        "write_predictions_csv": ("infer.write", None),
        "build_matched_pairs": (
            "matching.build",
            lambda p: {"matching.pairs": p.n, "matching.treated": p.n_treated_total},
        ),
        "balance_report": ("matching.balance", None),
        "emit_plots": ("plots.emit", None),
        "ingest_inputs": ("pipeline.ingest_inputs", None),
        "run_pipeline": ("pipeline.run", None),
    }
    for ns in (P, M):
        for attr, (span, count) in functions.items():
            if hasattr(ns, attr):
                setattr(ns, attr, tracer.wrap(getattr(ns, attr), span, count))
    P._status_stage = tracer.wrap(P._status_stage, "pipeline.status_stage")
    P._analyze_item = tracer.wrap(P._analyze_item, "pipeline.analyze_item")
    P._write_estimates_csv = tracer.wrap(P._write_estimates_csv, "pipeline.write_estimates")

    proxies = {
        "E": _proxy(estimate, tracer, {
            "effect_estimate": "estimate.effect",
            "naive_risk_difference": "estimate.naive",
            "dose_response": "estimate.dose",
            "subgroup_estimates": "estimate.subgroup",
            "anchor_mimicry": "estimate.anchor",
        }),
        "B": _proxy(baseline, tracer, {
            "randomize_partners": "baseline.shuffle",
            "coordination_test": "baseline.coordination",
        }),
        "S": _proxy(sensitivity, tracer, {
            "sensitivity_result": "sensitivity.result",
        }),
    }
    for ns in (P, M):
        for alias, proxy in proxies.items():
            setattr(ns, alias, proxy)

    _wrap_method(tracer, ItemCatalog, "from_csv", "model.catalog")
    _wrap_method(tracer, Demographics, "from_csv", "model.demographics")
    _wrap_method(tracer, ContextStats, "to_csv", "context.write")
    _wrap_method(tracer, DyadSet, "to_csv", "dyads.write")
    _wrap_method(tracer, DyadSet, "from_csv", "dyads.read")
    _wrap_method(tracer, MatchedPairSet, "to_csv", "matching.write")
    _wrap_method(tracer, MatchedPairSet, "from_csv", "matching.read")
    _wrap_method(tracer, StatusModel, "predict", "infer.predict",
                 lambda r: {"infer.predicted": len(r[0])})


def main(argv: list[str]) -> int:
    if len(argv) < 2 or argv[1] != "--":
        print("usage: tracer.py SPANS.json -- COPYCART_ARGS...", file=sys.stderr)
        return 2
    dest, cli_args = argv[0], argv[2:]
    tracer = Tracer()
    code, install_s = 1, 0.0
    try:
        with tracer.span("cli.import"):
            from copycart.cli.main import main as cli
        t0 = time.perf_counter()
        install(tracer)
        install_s = time.perf_counter() - t0
        with tracer.span("cli.command"):
            try:
                cli.main(args=cli_args, prog_name="copycart", standalone_mode=True)
                code = 0
            except SystemExit as exc:
                code = exc.code if isinstance(exc.code, int) else 1
    finally:
        # wrapping plus one traced call's extra cost per wrapped call made
        calls = sum(v for k, v in tracer.counts.items() if k.endswith(".calls"))
        with open(dest, "w", encoding="utf-8") as fh:
            json.dump(dict(tracer.to_dict(), overhead_s=install_s + calls * call_cost()), fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
