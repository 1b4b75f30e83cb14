"""Randomization baselines and the purchase-order coordination probe.

``randomize_partners`` replaces each dyad's partner transaction with a
uniform draw from the same (shop, date, daypart) cell, excluding the
original partner transaction and every transaction of the focal person:
it draws a row of the cell and draws again while the row is excluded.
Any mimicry estimate recomputed on such a set should vanish.

``coordination_test`` asks whether the focal-purchase rate depends on who
of a habitual pair goes first; pre-agreed purchases show no such order
asymmetry, person-to-person influence does.
"""

from __future__ import annotations

import math

import numpy as np

from ._util import run_starts, stable_order, t_two_sided_p
from .dyads import DyadSet
from .errors import InsufficientDataError

MIN_PER_ORDER = 10  # treated dyads a pair needs in each direction to count
SAMPLE_PER_PAIR = 10  # treated dyads a direction's rate is taken over, drawn when it has more


def randomize_partners(dyads: DyadSet, seed: int) -> DyadSet:
    """Re-draw every partner uniformly from the focal transaction's cell.

    The candidates are the cell's rows less the focal person's and the
    original partner.  A dyad with no candidate is dropped.  Each round
    draws one row of the cell for every dyad still open and keeps it if it
    is a candidate, so a kept row is a uniform draw over the candidates.  A
    dyad whose cell holds `size` rows, `n_cand` of them candidates, keeps its
    draw in a round with probability n_cand / size, and stays open after r
    rounds with probability (1 - n_cand / size) ** r.  The new partners
    break queue adjacency by design.
    """
    log, idx = dyads.log, dyads.log.cell_index()
    focal, partner = dyads.focal_i, dyads.partner_i
    cell, person = idx.cell[focal], log.person_idx[focal]
    start = idx.start[cell]
    size = idx.start[cell + 1] - start
    # the focal person's rows leave the cell's, then the original partner if it is another row of the cell
    other = (idx.cell[partner] == cell) & (log.person_idx[partner] != person)
    n_cand = size - idx.n_own[focal] - other
    ok = n_cand >= 1
    rng = np.random.default_rng(int(seed))
    new_partner = partner.copy()
    todo = np.flatnonzero(ok)
    while todo.shape[0]:
        pick = idx.order[start[todo] + rng.integers(0, size[todo])]
        kept = (pick != partner[todo]) & (log.person_idx[pick] != person[todo])
        new_partner[todo[kept]] = pick[kept]
        todo = todo[~kept]
    return DyadSet(log, new_partner[ok], focal[ok])


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
    seed: int = 0,
) -> dict:
    """Order-asymmetry test over habitual pairs' treated dyads, as the
    `coordination` report of results.json.

    For each unordered person pair with at least ``MIN_PER_ORDER`` treated
    dyads in each direction, the pair's leader is whoever goes first more
    often over ALL of the pair's dyads (ties broken by lexicographic person
    id), and the focal purchase rate is computed per direction over at
    most ``SAMPLE_PER_PAIR`` treated dyads drawn without replacement (seeded).
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
    group, size = dyads.pair_groups()
    n_groups = size.shape[0]
    # a pair is persons a < b by index; b_first: the partner is b
    b_first = dyads.partner_person > dyads.focal_person
    all_b = np.bincount(group[b_first], minlength=n_groups)
    all_a = size - all_b
    # each pair's treated dyads by direction, in index order
    t_key = 2 * group[treated].astype(np.int64) + b_first[treated]
    t_rows = np.flatnonzero(treated)[stable_order(t_key, 2 * n_groups)]
    n_dir = np.bincount(t_key, minlength=2 * n_groups)
    t_start = run_starts(n_dir)
    # persons are sorted, so a tie goes to a, the lower id
    leader_is_a = all_a >= all_b
    rng = np.random.default_rng(int(seed))
    lead_rates, foll_rates = [], []
    n_lead = n_foll = n_pairs = 0
    for g in np.flatnonzero((n_dir.reshape(-1, 2) >= MIN_PER_ORDER).all(axis=1)).tolist():
        dir_a = t_rows[t_start[2 * g] : t_start[2 * g + 1]]
        dir_b = t_rows[t_start[2 * g + 1] : t_start[2 * g + 2]]
        lead_rows = dir_a if leader_is_a[g] else dir_b
        foll_rows = dir_b if leader_is_a[g] else dir_a
        if lead_rows.shape[0] > SAMPLE_PER_PAIR:
            lead_rows = rng.choice(lead_rows, SAMPLE_PER_PAIR, replace=False)
        if foll_rows.shape[0] > SAMPLE_PER_PAIR:
            foll_rows = rng.choice(foll_rows, SAMPLE_PER_PAIR, replace=False)
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
