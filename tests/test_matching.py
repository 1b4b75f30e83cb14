"""Exact-key strata, popularity caliper, greedy 1:1 matching, balance."""

import io
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from copycart import model as M
from copycart.context import ContextStats, compute_context
from copycart.dyads import extract_dyads, reconstruct_queues
from copycart.errors import IngestError, NoPairsError
from copycart.matching import (
    AdjustmentSpec,
    MatchedPairSet,
    _greedy_caliper_match,
    balance_report,
    build_matched_pairs,
    smd,
)

from test_context import cell_reference, cell_rows, popularity
from test_dyads import lunch_rows
from test_model import parse_csv, tx_ids

# match on raw cell shares, the dyad's own baskets included (the default leaves them out)
RAW = AdjustmentSpec(exclude_own_transactions=False)


def make_context(log, cells):
    """Synthetic popularity table over the log's own cells, unrelated to its
    baskets: each listed cell holds 1000 transactions, and a cell not listed
    holds none; cells = (shop, date, daypart, {cat: pop})."""
    cell = cell_reference(log)
    n_tx = np.zeros(cell.max(initial=-1) + 1, np.int64)
    counts = np.zeros((n_tx.shape[0], len(M.CATEGORY_KEYS)), np.int64)
    for shop, date, dp, popmap in cells:
        row = np.zeros(len(M.CATEGORY_KEYS))
        row[M.CATEGORY_BIT["meal"]] = 1.0
        row[M.CATEGORY_BIT["meal_vegetarian"]] = 0.5
        for cat, p in popmap.items():
            row[M.CATEGORY_BIT[cat]] = p
        c = cell[cell_rows(log, shop, date, dp)[0]]
        n_tx[c], counts[c] = 1000, np.rint(row * 1000)
    return ContextStats(log, n_tx, counts)


def one_dyad_per_day(specs):
    """specs: (date, partner, partner_items, focal, focal_items); lunch, S1/R1."""
    text = "".join(
        lunch_rows([(f"P{i:03d}", p, 0, pi), (f"F{i:03d}", f, 60, fi)], day=day)
        for i, (day, p, pi, f, fi) in enumerate(specs)
    )
    log = parse_csv(text)
    dyads = extract_dyads(reconstruct_queues(log))
    assert dyads.n == len(specs)
    return log, dyads


def dessert_cells(log, specs, pops):
    return make_context(
        log,
        [(("S1"), day, M.Daypart.LUNCH, {"dessert": pop}) for (day, *_), pop in zip(specs, pops)],
    )


def tx_pairs(pairs):
    log = pairs.dyads.log
    d = pairs.dyads
    return [
        (tx_ids(log)[d.partner_i[t]], tx_ids(log)[d.partner_i[c]])
        for t, c in zip(pairs.treated_idx, pairs.control_idx)
    ]


def test_caliper_selects_nearest_inside():
    specs = [
        ("2018-01-01", "A", "MEALV;DES", "B", "MEALS"),
        ("2018-01-02", "A", "MEALV", "B", "MEALS"),
        ("2018-01-03", "A", "MEALV", "B", "MEALS"),
    ]
    log, dyads = one_dyad_per_day(specs)
    ctx = dessert_cells(log, specs, [0.20, 0.30, 0.21])
    pairs = build_matched_pairs(dyads, "dessert", ctx, RAW)
    # (0.30-0.20)/0.30 = 1/3 violates the 0.10 caliper; 0.21 is in and nearest
    assert pairs.n == 1
    assert tx_pairs(pairs) == [("P000", "P002")]
    assert pairs.popularity[[pairs.treated_idx[0], pairs.control_idx[0]]] == pytest.approx([0.20, 0.21])
    assert pairs.n_treated_total == 1 and pairs.n_unmatched == 0


def test_caliper_relative_boundary_and_absolute_mode():
    specs = [
        ("2018-01-01", "A", "MEALV;DES", "B", "MEALS"),
        ("2018-01-02", "A", "MEALV", "B", "MEALS"),
    ]
    log, dyads = one_dyad_per_day(specs)
    ctx = dessert_cells(log, specs, [0.5, 0.45])
    # |0.5-0.45| / max = 0.05/0.5 = 0.10, the default caliper
    assert build_matched_pairs(dyads, "dessert", ctx, RAW).n == 1
    tight = replace(RAW, caliper=0.09)
    assert build_matched_pairs(dyads, "dessert", ctx, tight).n == 0
    loose_abs = replace(RAW, caliper=0.09, caliper_absolute=True)
    assert build_matched_pairs(dyads, "dessert", ctx, loose_abs).n == 1
    # 0.05/0.5 rounds just below 0.1 in binary; 0.125/0.5 = 0.25 is exact,
    # so these check that both boundaries are inclusive
    ctx = dessert_cells(log, specs, [0.5, 0.375])
    assert build_matched_pairs(dyads, "dessert", ctx, replace(RAW, caliper=0.25)).n == 1
    exact_abs = replace(RAW, caliper=0.125, caliper_absolute=True)
    assert build_matched_pairs(dyads, "dessert", ctx, exact_abs).n == 1


def test_exact_keys_separate_strata():
    # control with identical popularity but a different partner person
    specs = [
        ("2018-01-01", "A", "MEALV;DES", "B", "MEALS"),
        ("2018-01-02", "C", "MEALV", "B", "MEALS"),
    ]
    log, dyads = one_dyad_per_day(specs)
    ctx = dessert_cells(log, specs, [0.20, 0.20])
    pairs = build_matched_pairs(dyads, "dessert", ctx)
    assert pairs.n == 0 and pairs.n_unmatched == 1 and pairs.n_treated_total == 1


def test_daypart_separates_strata():
    rows = (
        "P0,A,2018-01-01T12:00:00,S1,R1,MEALV;DES\n"
        "F0,B,2018-01-01T12:01:00,S1,R1,MEALS\n"
        "P1,A,2018-01-02T08:00:00,S1,R1,COF\n"
        "F1,B,2018-01-02T08:01:00,S1,R1,COF\n"
    )
    log = parse_csv(rows)
    dyads = extract_dyads(reconstruct_queues(log))
    assert dyads.n == 2
    ctx = make_context(
        log,
        [
            ("S1", "2018-01-01", M.Daypart.LUNCH, {"dessert": 0.2}),
            ("S1", "2018-01-02", M.Daypart.BREAKFAST, {"dessert": 0.2, "coffee": 0.9}),
        ],
    )
    assert build_matched_pairs(dyads, "dessert", ctx).n == 0


def test_match_focal_identity_flag():
    specs = [
        ("2018-01-01", "A", "MEALV;DES", "B", "MEALS"),
        ("2018-01-02", "A", "MEALV", "C", "MEALS"),  # exact pop, other focal
        ("2018-01-03", "A", "MEALV", "B", "MEALS"),  # same focal, pop off by 5%
    ]
    log, dyads = one_dyad_per_day(specs)
    ctx = dessert_cells(log, specs, [0.20, 0.20, 0.19])
    assert tx_pairs(build_matched_pairs(dyads, "dessert", ctx)) == [("P000", "P001")]
    strict = AdjustmentSpec(match_focal_identity=True)
    assert tx_pairs(build_matched_pairs(dyads, "dessert", ctx, strict)) == [("P000", "P002")]


def test_match_exact_anchor_flag():
    specs = [
        ("2018-01-01", "A", "MEALV;DES", "B", "MEALV"),
        ("2018-01-02", "A", "MEALS", "B", "MEALV"),  # non-veg partner anchor
        ("2018-01-03", "A", "MEALV", "B", "MEALV"),
    ]
    log, dyads = one_dyad_per_day(specs)
    ctx = dessert_cells(log, specs, [0.20, 0.20, 0.19])
    assert tx_pairs(build_matched_pairs(dyads, "dessert", ctx)) == [("P000", "P001")]
    strict = AdjustmentSpec(match_exact_anchor=True)
    assert tx_pairs(build_matched_pairs(dyads, "dessert", ctx, strict)) == [("P000", "P002")]


def test_greedy_order_no_reuse_injective():
    specs = [
        ("2018-01-01", "A", "MEALV;DES", "B", "MEALS"),  # treated, earlier date
        ("2018-01-02", "A", "MEALV;DES", "B", "MEALS"),  # treated, later date
        ("2018-01-03", "A", "MEALV", "B", "MEALS"),  # control pop 0.20
        ("2018-01-04", "A", "MEALV", "B", "MEALS"),  # control pop 0.22
        ("2018-01-05", "A", "MEALV;DES", "B", "MEALS"),  # treated, no control left
    ]
    log, dyads = one_dyad_per_day(specs)
    ctx = dessert_cells(log, specs, [0.20, 0.20, 0.20, 0.22, 0.20])
    pairs = build_matched_pairs(dyads, "dessert", ctx)
    # both treated prefer the 0.20 control; the earlier-dated treated wins it
    assert tx_pairs(pairs) == [("P000", "P002"), ("P001", "P003")]
    assert pairs.n_treated_total == 3 and pairs.n_unmatched == 1
    assert len(set(pairs.control_idx.tolist())) == pairs.n
    assert len(set(pairs.treated_idx.tolist())) == pairs.n


def test_unavailable_item_excludes_dyads():
    specs = [
        ("2018-01-01", "A", "MEALV;DES", "B", "MEALS"),
        ("2018-01-02", "A", "MEALV", "B", "MEALS"),
        ("2018-01-03", "A", "MEALV;DES", "B", "MEALS"),
    ]
    log, dyads = one_dyad_per_day(specs)
    ctx = dessert_cells(log, specs, [0.20, 0.0, 0.0])
    pairs = build_matched_pairs(dyads, "dessert", ctx)
    # the only control sits in a cell without the item; one treated also drops
    assert pairs.n == 0
    assert pairs.n_treated_total == 1 and pairs.n_unmatched == 1


def test_anchorless_dyads_never_match():
    # focal without the lunch anchor: dyad is ineligible even if extraction
    # was run permissively
    specs = [("2018-01-01", "A", "MEALV;DES", "B", "MEALS")]
    rows = lunch_rows([("P0", "A", 0, "MEALV;DES"), ("F0", "B", 60, "DES")], day="2018-01-01")
    log = parse_csv(rows)
    dyads = extract_dyads(reconstruct_queues(log), require_anchor=False)
    assert dyads.n == 1
    ctx = dessert_cells(log, specs, [0.5])
    pairs = build_matched_pairs(dyads, "dessert", ctx)
    assert pairs.n == 0 and pairs.n_treated_total == 0


def test_matching_deterministic_and_order_independent():
    specs = [
        (f"2018-01-{d:02d}", "A", "MEALV;DES" if d % 2 else "MEALV", "B", "MEALS")
        for d in range(1, 21)
    ]
    log, dyads = one_dyad_per_day(specs)
    pops = [0.2 + 0.001 * d for d in range(20)]
    ctx = dessert_cells(log, specs, pops)
    first = build_matched_pairs(dyads, "dessert", ctx)
    again = build_matched_pairs(dyads, "dessert", ctx)
    assert np.array_equal(first.treated_idx, again.treated_idx)
    assert np.array_equal(first.control_idx, again.control_idx)
    # feeding the dyads in reverse row order must give the same pairs
    rev = dyads.subset(np.arange(dyads.n)[::-1])
    flipped = build_matched_pairs(rev, "dessert", ctx)
    assert tx_pairs(flipped) == tx_pairs(first)


def dumped(*sets) -> str:
    """The pair dump of `sets`, as text."""
    buf = io.StringIO()
    MatchedPairSet.to_csv(buf, sets)
    return buf.getvalue()


def read_back(text, dyads):
    """The dessert pairs of a pair dump, read back over `dyads`."""
    return MatchedPairSet.from_csv(io.StringIO(text), lambda items: dyads)["dessert"]


def test_matched_csv_roundtrip():
    specs = [
        ("2018-01-01", "A", "MEALV;DES", "B", "MEALS"),
        ("2018-01-02", "A", "MEALV", "B", "MEALS"),
        ("2018-01-03", "A", "MEALV;DES", "C", "MEALS"),
        ("2018-01-04", "A", "MEALV", "C", "MEALS"),
    ]
    log, dyads = one_dyad_per_day(specs)
    ctx = dessert_cells(log, specs, [0.20, 0.20, 0.30, 0.31])
    pairs = build_matched_pairs(dyads, "dessert", ctx)
    assert pairs.n == 2
    text = dumped(pairs)
    assert text.splitlines()[0] == (
        "item,treated_partner_tx,treated_focal_tx,control_partner_tx,"
        "control_focal_tx,popularity_t,popularity_c"
    )
    back = read_back(text, dyads)
    assert np.array_equal(back.treated_idx, pairs.treated_idx)
    assert np.array_equal(back.control_idx, pairs.control_idx)
    # the popularities are written for people; a set read back has none to write
    assert back.popularity is None
    with pytest.raises(ValueError, match="freshly built"):
        dumped(back)


def test_matched_csv_names_dyads_by_lookup():
    specs = [
        ("2018-01-01", "A", "MEALV;DES", "B", "MEALS"),
        ("2018-01-02", "A", "MEALV", "B", "MEALS"),
        ("2018-01-03", "A", "MEALV;DES", "C", "MEALS"),
        ("2018-01-04", "A", "MEALV", "C", "MEALS"),
    ]
    log, dyads = one_dyad_per_day(specs)
    text = dumped(build_matched_pairs(dyads, "dessert", dessert_cells(log, specs, [0.20, 0.20, 0.30, 0.31])))
    # dyads given in another order, one of them twice: the last copy is read
    back = read_back(text, dyads.subset(np.asarray([3, 2, 1, 0, 2])))
    assert back.treated_idx.tolist() == [3, 4] and back.control_idx.tolist() == [2, 0]
    lacking = dyads.subset(np.asarray([0, 2, 3]))  # no day-2 control dyad
    with pytest.raises(IngestError, match=r"names dyad \(P001, F001\), which the dyad set lacks"):
        read_back(text, lacking)
    with pytest.raises(IngestError, match=r"names dyad \(P000, F000\), which the dyad set lacks"):
        read_back(text, dyads.subset(np.zeros(4, bool)))


def test_pair_dump_row_whose_item_is_not_a_category_names_its_line():
    specs = [
        ("2018-01-01", "A", "MEALV;DES", "B", "MEALS"),
        ("2018-01-02", "A", "MEALV", "B", "MEALS"),
        ("2018-01-03", "A", "MEALV;DES", "C", "MEALS"),
        ("2018-01-04", "A", "MEALV", "C", "MEALS"),
    ]
    log, dyads = one_dyad_per_day(specs)
    text = dumped(build_matched_pairs(dyads, "dessert", dessert_cells(log, specs, [0.20, 0.20, 0.30, 0.31])))
    header, first, second = text.splitlines(keepends=True)
    asked = []

    def dyads_for(items):
        asked.append(items)
        return dyads

    for bad in ("desserts", "", "Dessert"):
        with pytest.raises(IngestError, match=f"matched-pair dump line 3: item '{bad}' is not one of"):
            MatchedPairSet.from_csv(io.StringIO(header + first + second.replace("dessert", bad, 1)), dyads_for)
    assert asked == []  # checked before the dyads are asked for
    # the rows of each item are read as that item's pairs
    both = MatchedPairSet.from_csv(io.StringIO(header + second.replace("dessert", "fruit", 1) + first), dyads_for)
    assert asked == [["dessert", "fruit"]]
    assert {item: (p.item, p.treated_idx.tolist(), p.control_idx.tolist()) for item, p in both.items()} == {
        "dessert": ("dessert", [0], [1]), "fruit": ("fruit", [2], [3])}


def test_smd_cases():
    assert smd(np.asarray([1.0, 2, 3]), np.asarray([0.0, 1, 2])) == pytest.approx(1.0)
    assert smd(np.asarray([1.0, 2, 3]), np.asarray([1.0, 2, 3])) == 0.0
    assert smd(np.asarray([2.0, 2.0]), np.asarray([1.0, 1.0])) == math.inf
    assert smd(np.asarray([1.0, 1.0]), np.asarray([2.0, 2.0])) == -math.inf
    assert smd(np.asarray([3.0, 3.0]), np.asarray([3.0, 3.0])) == 0.0
    assert math.isnan(smd(np.asarray([1.0]), np.asarray([1.0, 2.0])))


def test_smd_matches_definition():
    rng = np.random.default_rng(7)
    t = rng.normal(0.3, 1.0, 40)
    c = rng.normal(0.0, 1.2, 55)
    expect = (t.mean() - c.mean()) / math.sqrt((t.var(ddof=1) + c.var(ddof=1)) / 2)
    assert smd(t, c) == pytest.approx(expect, rel=1e-12)


def test_balance_report_fields_and_failure():
    specs = [
        ("2018-01-01", "A", "MEALV;DES", "B", "MEALS"),
        ("2018-01-02", "A", "MEALV;DES", "B", "MEALS"),
        ("2018-01-03", "A", "MEALV", "B", "MEALS"),
        ("2018-01-04", "A", "MEALV", "B", "MEALS"),
    ]
    log, dyads = one_dyad_per_day(specs)
    ctx = dessert_cells(log, specs, [0.20, 0.20, 0.20, 0.22])
    pairs = build_matched_pairs(dyads, "dessert", ctx, RAW)
    assert pairs.n == 2
    d = balance_report(pairs)
    assert set(d["covariates"]) == {
        "popularity",
        "delay_s",
        "time_of_day_s",
        "partner_basket_size",
        "focal_basket_size",
    }
    # popularity after: t = (.20, .20), c = (.20, .22) -> smd = -1.0
    assert d["covariates"]["popularity"]["after"] == pytest.approx(-1.0)
    assert d["pass"] is False
    # identical delays/sizes across arms are balanced exactly
    assert d["covariates"]["delay_s"]["after"] == 0.0

    loaded = read_back(dumped(pairs), dyads)
    with pytest.raises(ValueError):
        balance_report(loaded)  # reloaded sets lack the eligibility pools


def test_balance_report_passing_case():
    specs = []
    for d in range(1, 13):
        # basket sizes match across arms once the focus item is discounted
        items = "MEALV;DES" if d % 2 else "MEALV"
        specs.append((f"2018-01-{d:02d}", "A", items, "B", "MEALS"))
    log, dyads = one_dyad_per_day(specs)
    ctx = dessert_cells(log, specs, [0.2] * 12)
    pairs = build_matched_pairs(dyads, "dessert", ctx, RAW)
    assert pairs.n == 6
    assert balance_report(pairs)["pass"]
    with pytest.raises(NoPairsError):
        balance_report(build_matched_pairs(dyads.subset(np.zeros(dyads.n, bool)), "dessert", ctx, RAW))


def test_adjustment_spec_validation():
    with pytest.raises(ValueError):
        AdjustmentSpec(caliper=0.0)
    with pytest.raises(ValueError):
        AdjustmentSpec(caliper=1.0)


def test_popularity_from_computed_context():
    # end-to-end: popularity derived from the log itself, not synthetic
    rows = []
    # cell 2018-01-01: dyad A->B plus two fillers, one with dessert: pop 1/2
    rows.append(lunch_rows([("P0", "A", 0, "MEALV;DES"), ("F0", "B", 60, "MEALS")], day="2018-01-01"))
    rows.append(lunch_rows([("X0", "X", 3600, "MEALV;DES"), ("X1", "Y", 5400, "MEALS")], day="2018-01-01"))
    # cell 2018-01-02: dyad A->B plus two fillers with dessert: pop 1/2
    rows.append(lunch_rows([("P1", "A", 0, "MEALV"), ("F1", "B", 60, "MEALS")], day="2018-01-02"))
    rows.append(lunch_rows([("X2", "X", 3600, "MEALV;DES"), ("X3", "Y", 5400, "MEALS;DES")], day="2018-01-02"))
    log = parse_csv("".join(rows))
    ctx = compute_context(log)
    assert popularity(ctx, log, "S1", "2018-01-01", M.Daypart.LUNCH, "dessert") == 0.5
    dyads = extract_dyads(reconstruct_queues(log))
    sel = np.asarray([tx_ids(log)[i].startswith(("P", "F")) for i in dyads.partner_i])
    dyads = dyads.subset(sel & np.asarray([tx_ids(log)[i].startswith("F") for i in dyads.focal_i]))
    assert dyads.n == 2
    pairs = build_matched_pairs(dyads, "dessert", ctx, RAW)
    assert pairs.n == 1
    assert pairs.popularity[[pairs.treated_idx[0], pairs.control_idx[0]]] == pytest.approx([0.5, 0.5])


def test_exclude_own_transactions_uses_leave_dyad_out_popularity():
    rows = []
    # treated cell: dyad partner has dessert, one filler of two has dessert.
    # cell-wide 2/4; without the dyad's own rows (2-1)/(4-2) = 1/2
    rows.append(lunch_rows([("P0", "A", 0, "MEALV;DES"), ("F0", "B", 60, "MEALS")], day="2018-01-01"))
    rows.append(lunch_rows([("X0", "X", 3600, "MEALV;DES"), ("X1", "Y", 5400, "MEALS")], day="2018-01-01"))
    # control cell: dyad without dessert, one filler of two has dessert.
    # cell-wide 1/4; leave-dyad-out 1/2
    rows.append(lunch_rows([("P1", "A", 0, "MEALV"), ("F1", "B", 60, "MEALS")], day="2018-01-02"))
    rows.append(lunch_rows([("X2", "X", 3600, "MEALV;DES"), ("X3", "Y", 5400, "MEALS")], day="2018-01-02"))
    log = parse_csv("".join(rows))
    ctx = compute_context(log)
    dyads = extract_dyads(reconstruct_queues(log))
    sel = np.asarray(
        [tx_ids(log)[p].startswith("P") and tx_ids(log)[f].startswith("F")
         for p, f in zip(dyads.partner_i, dyads.focal_i)]
    )
    dyads = dyads.subset(sel)
    assert dyads.n == 2

    # raw cell shares: |0.5 - 0.25| / 0.5 = 0.5 breaches the caliper
    raw = build_matched_pairs(dyads, "dessert", ctx, RAW)
    assert raw.n == 0

    loo = build_matched_pairs(
        dyads, "dessert", ctx, AdjustmentSpec(exclude_own_transactions=True)
    )
    assert loo.n == 1
    assert loo.popularity[[loo.treated_idx[0], loo.control_idx[0]]] == pytest.approx([0.5, 0.5])


# -- greedy matcher against a brute-force oracle ------------------------------


def _random_strata(rng, n_strata):
    t_pop, c_pop = [], []
    t_start = [0]
    c_start = [0]
    for _ in range(n_strata):
        nt = int(rng.integers(0, 6))
        nc = int(rng.integers(0, 8))
        t_pop.extend(rng.random(nt).round(2))
        c_pop.extend(rng.random(nc).round(2))
        t_start.append(len(t_pop))
        c_start.append(len(c_pop))
    return (
        np.asarray(t_start, np.int64),
        np.asarray(c_start, np.int64),
        np.asarray(t_pop, np.float64),
        np.asarray(c_pop, np.float64),
    )


def _match_oracle(t_start, c_start, t_pop, c_pop, caliper, relative):
    # independent greedy reimplementation in plain python
    out = [-1] * len(t_pop)
    used = set()
    for s in range(len(t_start) - 1):
        for i in range(t_start[s], t_start[s + 1]):
            pt = t_pop[i]
            best, bestd = -1, float("inf")
            for j in range(c_start[s], c_start[s + 1]):
                if j in used:
                    continue
                d = abs(pt - c_pop[j])
                m = max(pt, c_pop[j])
                if relative:
                    if m > 0:
                        if d / m > caliper:
                            continue
                    elif d != 0:
                        continue
                elif d > caliper:
                    continue
                if d < bestd:
                    bestd, best = d, j
            if best >= 0:
                used.add(best)
                out[i] = best
    return np.asarray(out, np.int64)


@pytest.mark.parametrize("relative", [True, False])
def test_greedy_match_against_oracle(relative):
    rng = np.random.default_rng(11)
    for _ in range(20):
        t_start, c_start, t_pop, c_pop = _random_strata(rng, 8)
        got = _greedy_caliper_match(t_start, c_start, t_pop, c_pop, 0.3, relative)
        want = _match_oracle(t_start, c_start, t_pop, c_pop, 0.3, relative)
        assert np.array_equal(got, want)


def test_greedy_match_no_reuse_and_caliper():
    rng = np.random.default_rng(13)
    t_start, c_start, t_pop, c_pop = _random_strata(rng, 30)
    got = _greedy_caliper_match(t_start, c_start, t_pop, c_pop, 0.1, True)
    taken = got[got >= 0]
    assert len(set(taken.tolist())) == len(taken)
    for i, j in enumerate(got):
        if j >= 0:
            d = abs(t_pop[i] - c_pop[j])
            m = max(t_pop[i], c_pop[j])
            assert (m > 0 and d / m <= 0.1) or (m == 0 and d == 0)


@st.composite
def tied_strata(draw):
    """Strata whose popularities take one or two distinct levels, so most
    candidates tie on distance."""
    levels = draw(st.lists(st.sampled_from([0.0, 0.05, 0.3, 0.31, 0.5, 1.0]), min_size=1, max_size=2))
    sizes = draw(st.lists(st.tuples(st.integers(0, 6), st.integers(0, 8)), min_size=1, max_size=8))
    t_pop = draw(st.lists(st.sampled_from(levels), min_size=sum(t for t, _ in sizes),
                          max_size=sum(t for t, _ in sizes)))
    c_pop = draw(st.lists(st.sampled_from(levels), min_size=sum(c for _, c in sizes),
                          max_size=sum(c for _, c in sizes)))
    return (
        np.cumsum([0] + [t for t, _ in sizes]).astype(np.int64),
        np.cumsum([0] + [c for _, c in sizes]).astype(np.int64),
        np.asarray(t_pop, np.float64),
        np.asarray(c_pop, np.float64),
    )


@settings(max_examples=300, deadline=None)
@given(tied_strata(), st.sampled_from([0.02, 0.1, 0.5]), st.booleans())
def test_greedy_match_heavy_ties_against_oracle(strata, caliper, relative):
    t_start, c_start, t_pop, c_pop = strata
    got = _greedy_caliper_match(t_start, c_start, t_pop, c_pop, caliper, relative)
    want = _match_oracle(t_start, c_start, t_pop, c_pop, caliper, relative)
    assert np.array_equal(got, want)
