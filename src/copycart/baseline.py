"""Randomization baselines and the purchase-order coordination probe.

``randomize_partners`` replaces each dyad's partner transaction with a
uniform draw from the same (shop, date, daypart) cell, excluding the
original partner transaction and every transaction of the focal person.
Any mimicry estimate recomputed on such a set should vanish.

``coordination_test`` asks whether the focal-purchase rate depends on who
of a habitual pair goes first; pre-agreed purchases show no such order
asymmetry, person-to-person influence does.
"""

from __future__ import annotations

import math
from typing import Optional

import numpy as np

from . import context as ctx
from ._util import t_two_sided_p
from .dyads import DyadSet
from .errors import InsufficientDataError

__all__ = ["randomize_partners", "coordination_test", "welch_t"]

MIN_PER_ORDER = 10  # treated dyads a pair needs in each direction to count


def _with_partners(dyads: DyadSet, partner_rows: np.ndarray, sel: np.ndarray) -> DyadSet:
    log = dyads.log
    focal = dyads.focal_i[sel]
    partner = partner_rows[sel]
    return DyadSet(log, partner, focal, log.ts[focal] - log.ts[partner])


def randomize_partners(dyads: DyadSet, seed: int) -> DyadSet:
    """Re-draw every partner uniformly from the focal transaction's cell.

    A dyad with no eligible candidate is dropped.  The draw is a single
    uniform index j per dyad into the cell's members with the excluded rows
    left out: walking the excluded positions in ascending order, each one at
    or below j moves j up by one.  No rejection loop is involved.  The new
    partners break queue adjacency by design.
    """
    log = dyads.log
    if dyads.n == 0:
        return DyadSet(log, np.empty(0, np.int64), np.empty(0, np.int64), np.empty(0, np.int64))
    cells_all = ctx.encode_cells(log.shop_idx, log.date_ord, log.daypart)
    cell_order = np.argsort(cells_all, kind="stable").astype(np.int64)
    sorted_cells = cells_all[cell_order]
    n_persons = len(log.persons)
    combo = cells_all * n_persons + log.person_idx.astype(np.int64)
    cp_order = np.argsort(combo, kind="stable").astype(np.int64)
    sorted_combo = combo[cp_order]

    d_cell = dyads.cell_keys()
    ms = np.searchsorted(sorted_cells, d_cell, side="left")
    me = np.searchsorted(sorted_cells, d_cell, side="right")
    d_combo = d_cell * n_persons + dyads.focal_person.astype(np.int64)
    fs = np.searchsorted(sorted_combo, d_combo, side="left")
    fe = np.searchsorted(sorted_combo, d_combo, side="right")
    n_cand = (me - ms) - (fe - fs) - 1  # minus the original partner tx

    ok = n_cand >= 1
    rng = np.random.default_rng(int(seed))
    draws = np.zeros(dyads.n, np.int64)
    if ok.any():
        draws[ok] = rng.integers(0, n_cand[ok])

    # position of a row among its cell's members (ascending row ids): one
    # search over (dense cell rank, row) keys, which fit int64 for any log
    cell_rank = np.cumsum(np.r_[0, sorted_cells[1:] != sorted_cells[:-1]])
    member_key = cell_rank * log.n + cell_order
    k_ok = np.nonzero(ok)[0]
    ms_ok, fs_ok = ms[k_ok], fs[k_ok]
    rank_ok = cell_rank[ms_ok]

    def position(k_rows: np.ndarray, rows: np.ndarray) -> np.ndarray:
        return np.searchsorted(member_key, rank_ok[k_rows] * log.n + rows) - ms_ok[k_rows]

    # excluded positions per dyad, padded past any draw: the focal person's
    # rows in the cell, then the original partner
    n_focal = fe[k_ok] - fs_ok
    width = int(n_focal.max()) + 1 if k_ok.shape[0] else 1
    excluded = np.full((k_ok.shape[0], width), log.n, np.int64)
    k_rows = np.repeat(np.arange(k_ok.shape[0]), n_focal)
    col = np.arange(k_rows.shape[0]) - np.repeat(np.cumsum(n_focal) - n_focal, n_focal)
    excluded[k_rows, col] = position(k_rows, cp_order[fs_ok[k_rows] + col])
    everyone = np.arange(k_ok.shape[0])
    excluded[everyone, n_focal] = position(everyone, dyads.partner_i[k_ok])
    excluded.sort(axis=1)

    j = draws[k_ok]
    for c in range(width):
        j += excluded[:, c] <= j
    new_partner = dyads.partner_i.copy()
    new_partner[k_ok] = cell_order[ms_ok + j]
    return _with_partners(dyads, new_partner, ok)


def welch_t(x: np.ndarray, y: np.ndarray) -> tuple[float, float, float]:
    """Unequal-variance two-sample t-test; returns (t, p, df).

    Two degenerate groups give t=0, p=1 when the means agree and an
    infinite statistic with p=0 when they do not.
    """
    x = np.asarray(x, np.float64)
    y = np.asarray(y, np.float64)
    n1, n2 = x.shape[0], y.shape[0]
    if n1 < 2 or n2 < 2:
        raise InsufficientDataError("each group needs at least 2 observations")
    m1, m2 = float(x.mean()), float(y.mean())
    v1, v2 = float(x.var(ddof=1)), float(y.var(ddof=1))
    a, b = v1 / n1, v2 / n2
    if a + b == 0.0:
        if m1 == m2:
            return (0.0, 1.0, float(n1 + n2 - 2))
        return (math.copysign(math.inf, m1 - m2), 0.0, float(n1 + n2 - 2))
    t = (m1 - m2) / math.sqrt(a + b)
    df = (a + b) ** 2 / (a * a / (n1 - 1) + b * b / (n2 - 1))
    p = t_two_sided_p(t, df)
    return (t, p, df)


def coordination_test(
    dyads: DyadSet,
    item: str,
    sample_per_pair: Optional[int] = 10,
    seed: int = 0,
) -> dict:
    """Order-asymmetry test over habitual pairs' treated dyads, as the
    `coordination` report of results.json.

    For each unordered person pair with at least ``MIN_PER_ORDER`` treated
    dyads in each direction, the pair's leader is whoever goes first more
    often over ALL of the pair's dyads (ties broken by lexicographic person
    id), and the focal purchase rate is computed per direction over
    ``sample_per_pair`` treated dyads drawn without replacement (seeded).
    The two collections of per-pair rates are compared with a Welch t-test.

    Leadership must come from all dyads, not treated ones: treated counts
    grow with the partner's purchase propensity, and picking the busier
    treated direction would bias the role split away from the null.  One
    rate per pair and direction keeps large pairs from dominating and keeps
    the test calibrated when outcomes are correlated within a pair; at
    least two qualifying pairs are needed.
    """
    treated = dyads.partner_has(item)
    if not treated.any():
        raise InsufficientDataError(f"no treated dyads for {item!r}")
    outcome = dyads.focal_has(item).astype(np.float64)
    persons = dyads.log.persons
    pp = dyads.partner_person.astype(np.int64)
    key = dyads.pair_keys()
    order = np.argsort(key, kind="stable")
    keys_sorted = key[order]
    starts = np.concatenate(
        ([0], np.nonzero(keys_sorted[1:] != keys_sorted[:-1])[0] + 1, [dyads.n])
    )
    rng = np.random.default_rng(int(seed))
    lead_rates, foll_rates = [], []
    n_lead = n_foll = n_pairs = 0
    for g in range(starts.shape[0] - 1):
        rows = order[starts[g] : starts[g + 1]]
        a, b = divmod(int(key[rows[0]]), len(persons))
        a_first = pp[rows] == a
        t_rows = rows[treated[rows]]
        dir_a = t_rows[pp[t_rows] == a]
        dir_b = t_rows[pp[t_rows] != a]
        if dir_a.shape[0] < MIN_PER_ORDER or dir_b.shape[0] < MIN_PER_ORDER:
            continue
        all_a = int(a_first.sum())
        all_b = rows.shape[0] - all_a
        if all_a != all_b:
            leader_is_a = all_a > all_b
        else:
            leader_is_a = persons[a] <= persons[b]
        lead_rows = dir_a if leader_is_a else dir_b
        foll_rows = dir_b if leader_is_a else dir_a
        if sample_per_pair:
            if lead_rows.shape[0] > sample_per_pair:
                lead_rows = rng.choice(lead_rows, sample_per_pair, replace=False)
            if foll_rows.shape[0] > sample_per_pair:
                foll_rows = rng.choice(foll_rows, sample_per_pair, replace=False)
        lead_rates.append(float(outcome[lead_rows].mean()))
        foll_rates.append(float(outcome[foll_rows].mean()))
        n_lead += lead_rows.shape[0]
        n_foll += foll_rows.shape[0]
        n_pairs += 1
    if n_pairs < 2:
        raise InsufficientDataError(
            f"need 2 pairs with {MIN_PER_ORDER} treated dyads in each direction, "
            f"found {n_pairs}"
        )
    lead = np.asarray(lead_rates)
    foll = np.asarray(foll_rates)
    t, p, df = welch_t(lead, foll)
    return {
        "item": item,
        "n_pairs": n_pairs,
        "n_leader_first": int(n_lead),
        "n_follower_first": int(n_foll),
        "rate_leader_first": float(lead.mean()),
        "rate_follower_first": float(foll.mean()),
        "t": t,
        "p": p,
        "df": df,
    }
