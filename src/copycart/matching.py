"""Matched pairs of dyads: exact keys, popularity caliper, balance checks.

A treated dyad (partner bought the focus item) is paired 1:1 without
replacement with a control dyad (partner did not) that agrees exactly on
partner identity, shop, and daypart, with the item available in both cells
and cell popularity within the caliper.  Treated dyads are processed in
(date, focal tx_id) order inside each stratum and greedily take the
remaining control with the nearest popularity.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterable, Optional, Sequence

import numpy as np

from ._util import dense_codes, run_starts
from .context import ContextStats
from .csvio import Source, distinct_fields, read_dump, write_csv
from .dyads import DyadSet
from .errors import IngestError, NoPairsError
from .model import CATEGORY_KEYS


@dataclass(frozen=True)
class AdjustmentSpec:
    """Which confounders are held fixed when pairing dyads.

    With ``exclude_own_transactions`` the popularity each dyad is matched on
    leaves the dyad's own two transactions out of its cell share.  Raw cell
    shares contain the exposure and the outcome, and nearest-popularity
    matching on them conditions on both; at a few hundred transactions per
    cell this depresses the estimate by roughly two transactions' worth of
    popularity.  Availability is still judged on the whole cell.
    """

    match_focal_identity: bool = False
    match_exact_anchor: bool = False
    caliper: float = 0.10
    caliper_absolute: bool = False
    exclude_own_transactions: bool = True

    def __post_init__(self):
        if not (0.0 < self.caliper < 1.0):
            raise ValueError("caliper must lie in (0, 1)")


def _group_key(columns: Sequence[np.ndarray]) -> np.ndarray:
    """Pack parallel integer columns into one int64 grouping key."""
    key = np.zeros(columns[0].shape[0], np.int64)
    for col in columns:
        col = col.astype(np.int64)
        lo = int(col.min()) if col.shape[0] else 0
        card = int(col.max()) - lo + 1 if col.shape[0] else 1
        key = key * card + (col - lo)
    return key


PAIR_COLUMNS = (
    "item",
    "treated_partner_tx",
    "treated_focal_tx",
    "control_partner_tx",
    "control_focal_tx",
    "popularity_t",
    "popularity_c",
)


class MatchedPairSet:
    """Result of 1:1 matching for one focus item over one dyad set.

    A freshly built set keeps the popularity each dyad was matched on and
    the full eligibility pools, for the pair dump and the balance report; a
    set read from a dump has neither."""

    def __init__(
        self,
        dyads: DyadSet,
        item: str,
        treated_idx: np.ndarray,
        control_idx: np.ndarray,
        n_treated_total: int,
        n_unmatched: int,
        popularity: Optional[np.ndarray] = None,
        eligible_treated: Optional[np.ndarray] = None,
        eligible_control: Optional[np.ndarray] = None,
    ):
        self.dyads = dyads
        self.item = item
        self.treated_idx = treated_idx.astype(np.int64)
        self.control_idx = control_idx.astype(np.int64)
        self.n_treated_total = int(n_treated_total)
        self.n_unmatched = int(n_unmatched)
        self.popularity = popularity  # per dyad of `dyads`
        self._eligible_treated = eligible_treated
        self._eligible_control = eligible_control

    @property
    def n(self) -> int:
        return self.treated_idx.shape[0]

    @classmethod
    def to_csv(cls, dest: Source, sets: Iterable["MatchedPairSet"]) -> None:
        """The pair dump: the `PAIR_COLUMNS` header, then the pairs of each
        freshly built set in the order `sets` gives them, a set taken only
        once the rows before it are written."""

        def columns(pairs: "MatchedPairSet") -> list:
            if pairs.popularity is None:
                raise ValueError("a pair dump requires a freshly built MatchedPairSet")
            d, treated, control = pairs.dyads, pairs.treated_idx, pairs.control_idx
            return [
                ([pairs.item], np.zeros(pairs.n, np.int64)),
                (d.log.tx_ids_at(d.partner_i[treated]), None),
                (d.log.tx_ids_at(d.focal_i[treated]), None),
                (d.log.tx_ids_at(d.partner_i[control]), None),
                (d.log.tx_ids_at(d.focal_i[control]), None),
                (pairs.popularity[treated], None),
                (pairs.popularity[control], None),
            ]

        write_csv(dest, PAIR_COLUMNS, (), map(columns, sets))

    @classmethod
    def from_csv(cls, source: Source, dyads_for: Callable[[list[str]], DyadSet]) -> dict[str, "MatchedPairSet"]:
        """The pairs of each item in a pair dump, read back by their tx ids,
        by item in sorted order; an item's pairs keep the dump's row order.
        Every row's `item` must be a category key.  `dyads_for` is given the
        dump's items once they are checked, and gives the dyad set its rows
        name."""
        dump = read_dump(source, "matched-pair dump", PAIR_COLUMNS, PAIR_COLUMNS[:5])
        names, item_of, first = distinct_fields(*dump.columns["item"])
        items = names.texts()
        bad = min((k for k, item in zip(first.tolist(), items) if item not in CATEGORY_KEYS), default=None)
        if bad is not None:
            raise dump.error(bad, f"item {dump.text('item', bad)!r} is not one of {CATEGORY_KEYS}")
        dyads = dyads_for(items)
        # (treated, control) by (partner, focal) by pair
        log = dyads.log
        rows = dump.rows_in(log, PAIR_COLUMNS[1:5]).reshape(2, 2, -1)
        keys = np.where((rows >= 0).all(axis=1), rows[:, 0] * log.n + rows[:, 1], -1)
        # the last dyad of the set holding each (partner, focal) key
        key = dyads.partner_i * log.n + dyads.focal_i
        order = np.argsort(key, kind="stable")
        at = np.searchsorted(key[order], keys, side="right") - 1
        hit = at >= 0
        hit[hit] = key[order[at[hit]]] == keys[hit]
        dyad = np.full(keys.shape, -1)
        dyad[hit] = order[at[hit]]
        if (dyad < 0).any():
            k, side = divmod(int(np.argmax(dyad.T.ravel() < 0)), 2)  # treated before control
            partner, focal = PAIR_COLUMNS[1 + 2 * side : 3 + 2 * side]
            raise IngestError(f"{dump.name} names dyad ({dump.text(partner, k)}, {dump.text(focal, k)}), "
                              "which the dyad set lacks")
        split = (dyad[:, item_of == code] for code in range(len(items)))
        return {item: cls(dyads, item, *pairs, pairs.shape[1], 0) for item, pairs in zip(items, split)}


def _greedy_caliper_match(
    t_start: np.ndarray,
    c_start: np.ndarray,
    t_pop: np.ndarray,
    c_pop: np.ndarray,
    caliper: float,
    relative: bool,
) -> np.ndarray:
    """Greedy 1:1 caliper matching within pre-built strata.

    Treated and control popularities arrive flattened and grouped by
    stratum: slice s is t_pop[t_start[s]:t_start[s+1]] and
    c_pop[c_start[s]:c_start[s+1]].  Inside a stratum treated rows come in
    processing order and control rows in tie-break order, so each treated
    row takes the first unused control at minimal distance.  Returns the
    matched control index per treated row, -1 where none is in the caliper.

    Strata share no controls, so the loop runs in rounds: round r lets the
    r-th treated row of every stratum choose at once, which keeps each
    stratum's order sequential and gives the row-by-row greedy result.
    """
    out = np.full(t_pop.shape[0], -1, np.int64)
    used = np.zeros(c_pop.shape[0], bool)
    n_t = np.diff(t_start)
    n_free = np.diff(c_start)
    live = np.nonzero((n_t > 0) & (n_free > 0))[0]
    r = 0
    while live.shape[0]:
        ti = t_start[live] + r
        # every (treated, control) candidate of the live strata, flattened
        width = c_start[live + 1] - c_start[live]
        seg = np.repeat(np.arange(live.shape[0]), width)
        cj = np.arange(seg.shape[0]) - np.repeat(np.cumsum(width) - width - c_start[live], width)
        pt = t_pop[ti][seg]
        cp = c_pop[cj]
        d = np.abs(pt - cp)
        if relative:
            m = np.maximum(pt, cp)
            safe = np.where(m > 0.0, m, 1.0)
            ok = np.where(m > 0.0, d / safe <= caliper, d == 0.0)
        else:
            ok = d <= caliper
        ok &= ~used[cj]
        seg, cj, d = seg[ok], cj[ok], d[ok]
        if seg.shape[0]:
            # nearest control per treated row, ties to the lowest control index
            order = np.lexsort((cj, d, seg))
            s = seg[order]
            first = order[np.r_[True, s[1:] != s[:-1]]]
            out[ti[seg[first]]] = cj[first]
            used[cj[first]] = True
            n_free[live[seg[first]]] -= 1
        r += 1
        live = live[(n_t[live] > r) & (n_free[live] > 0)]
    return out


def build_matched_pairs(
    dyads: DyadSet, item: str, context: ContextStats, spec: AdjustmentSpec = AdjustmentSpec()
) -> MatchedPairSet:
    """Greedy caliper matching of treated vs control dyads for one item."""
    log = dyads.log
    n = dyads.n
    if n == 0:
        empty = np.empty(0, np.int64)
        return MatchedPairSet(dyads, item, empty, empty, 0, 0, np.empty(0))

    treated = dyads.partner_has(item)
    codes = log.anchor_codes()
    ok = (codes[dyads.partner_i] != 0) & (codes[dyads.focal_i] != 0)
    n_cell, cnt = context.counts_at(dyads.focal_i, item)
    ok &= cnt > 0  # item must be available in the dyad's cell
    if spec.exclude_own_transactions:
        own = treated.astype(np.int64) + dyads.focal_has(item).astype(np.int64)
        pop = (cnt - own) / np.maximum(n_cell - 2, 1)
    else:
        pop = cnt / np.maximum(n_cell, 1)

    t_rows = np.nonzero(treated & ok)[0]
    c_rows = np.nonzero(~treated & ok)[0]
    n_treated_total = int(t_rows.shape[0])
    if n_treated_total == 0 or c_rows.shape[0] == 0:
        empty = np.empty(0, np.int64)
        return MatchedPairSet(dyads, item, empty, empty, n_treated_total, n_treated_total, pop)

    cols_t = [dyads.partner_person[t_rows], dyads.shop_idx[t_rows], dyads.daypart[t_rows]]
    cols_c = [dyads.partner_person[c_rows], dyads.shop_idx[c_rows], dyads.daypart[c_rows]]
    if spec.match_focal_identity:
        cols_t.append(dyads.focal_person[t_rows])
        cols_c.append(dyads.focal_person[c_rows])
    if spec.match_exact_anchor:
        cols_t += [codes[dyads.partner_i[t_rows]], codes[dyads.focal_i[t_rows]]]
        cols_c += [codes[dyads.partner_i[c_rows]], codes[dyads.focal_i[c_rows]]]

    # pack both sides together so each column shares one cardinality
    packed = [np.concatenate([a, b]).astype(np.int64) for a, b in zip(cols_t, cols_c)]
    code = dense_codes(_group_key(packed))[0]
    # the strata are the keys some treated dyad holds, numbered in key order
    held = np.bincount(code[: t_rows.shape[0]], minlength=int(code.max()) + 1) > 0
    stratum = np.cumsum(held) - 1
    key_t_inv = stratum[code[: t_rows.shape[0]]]
    code_c = code[t_rows.shape[0] :]
    c_valid = held[code_c]
    c_rows = c_rows[c_valid]
    key_c_inv = stratum[code_c[c_valid]]
    n_strata = int(stratum[-1]) + 1

    date = dyads.date_ord
    rank = log.tx_idx[dyads.focal_i]
    t_order = np.lexsort((rank[t_rows], date[t_rows], key_t_inv))
    c_order = np.lexsort((rank[c_rows], date[c_rows], key_c_inv))
    t_rows = t_rows[t_order]
    c_rows = c_rows[c_order]
    s_t = key_t_inv[t_order]
    s_c = key_c_inv[c_order]

    t_start = run_starts(np.bincount(s_t, minlength=n_strata))
    c_start = run_starts(np.bincount(s_c, minlength=n_strata))

    t_pop = pop[t_rows]
    c_pop = pop[c_rows]
    hit = _greedy_caliper_match(
        t_start, c_start, t_pop, c_pop, float(spec.caliper), not spec.caliper_absolute
    )

    matched = hit >= 0
    ti = t_rows[matched]
    ci = c_rows[hit[matched]]
    # report pairs in global (date, focal tx_id) order of the treated dyad
    out_order = np.lexsort((rank[ti], date[ti]))
    return MatchedPairSet(
        dyads,
        item,
        ti[out_order],
        ci[out_order],
        n_treated_total,
        n_treated_total - int(matched.sum()),
        pop,
        eligible_treated=np.sort(t_rows),
        eligible_control=np.sort(c_rows),
    )


def smd(treated_values: np.ndarray, control_values: np.ndarray) -> float:
    """Standardized mean difference with the n-1 variance convention."""
    t = np.asarray(treated_values, np.float64)
    c = np.asarray(control_values, np.float64)
    if t.shape[0] < 2 or c.shape[0] < 2:
        return math.nan
    mt = float(t.mean())
    mc = float(c.mean())
    pooled = math.sqrt((float(t.var(ddof=1)) + float(c.var(ddof=1))) / 2.0)
    if pooled == 0.0:
        if mt == mc:
            return 0.0
        return math.inf if mt > mc else -math.inf
    return (mt - mc) / pooled


BALANCE_COVARIATES = (
    "popularity",
    "delay_s",
    "time_of_day_s",
    "partner_basket_size",
    "focal_basket_size",
)
BALANCE_SMD_MAX = 0.2  # a matched covariate is balanced when |SMD| stays below this


def _covariate(pairs: MatchedPairSet, name: str, rows: np.ndarray) -> np.ndarray:
    d = pairs.dyads
    log = d.log
    if name == "popularity":
        return pairs.popularity[rows]
    if name == "delay_s":
        return d.delay_s[rows].astype(np.float64)
    if name == "time_of_day_s":
        return log.secs[d.focal_i[rows]].astype(np.float64)
    if name == "partner_basket_size":
        # the focus item is the treatment itself, so it never counts here
        sizes = log.basket_sizes[d.partner_i[rows]].astype(np.float64)
        return sizes - d.partner_has(pairs.item)[rows]
    # focal_basket_size: likewise the outcome is removed from the focal basket count
    sizes = log.basket_sizes[d.focal_i[rows]].astype(np.float64)
    return sizes - d.focal_has(pairs.item)[rows]


def balance_report(pairs: MatchedPairSet) -> dict:
    """The `balance` report of results.json: SMD of each covariate before (all
    eligible dyads) and after matching; it passes when every defined |SMD|
    after matching stays below `BALANCE_SMD_MAX`."""
    if pairs.n == 0:
        raise NoPairsError(f"no matched pairs for {pairs.item!r}")
    if pairs._eligible_treated is None:
        raise ValueError("balance requires a freshly built MatchedPairSet")
    et, ec = pairs._eligible_treated, pairs._eligible_control
    out = {}
    for name in BALANCE_COVARIATES:
        before = smd(_covariate(pairs, name, et), _covariate(pairs, name, ec))
        after = smd(_covariate(pairs, name, pairs.treated_idx), _covariate(pairs, name, pairs.control_idx))
        out[name] = {"before": before, "after": after}
    return {
        "item": pairs.item,
        "n_pairs": pairs.n,
        "threshold": BALANCE_SMD_MAX,
        "pass": all(
            abs(v["after"]) < BALANCE_SMD_MAX for v in out.values() if not math.isnan(v["after"])
        ),
        "covariates": out,
    }
