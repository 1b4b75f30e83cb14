"""Popularity/availability table."""

import io

import numpy as np

from copycart import model as M
from copycart.context import compute_context

from test_model import CODES, baskets, parse_csv


def cell_reference(log):
    """Each row's (shop, date, daypart) cell, the cells numbered in that
    order: a reference that reads the rows' own columns, never the log's
    cell index."""
    keys = np.stack([log.shop_idx, log.date_ord, log.daypart], axis=1)
    return np.unique(keys, axis=0, return_inverse=True)[1].reshape(-1)


def cell_rows(log, shop, date, daypart):
    """The rows of one (shop, date, daypart) cell, none for a cell the log lacks."""
    shop_i = log.shops.index(shop) if shop in log.shops else -1
    date_ord = np.datetime64(date, "D").astype(np.int64)
    here = (log.shop_idx == shop_i) & (log.date_ord == date_ord)
    return np.flatnonzero(here & (log.daypart == daypart.value))


def popularity(stats, log, shop, date, daypart, category):
    """A cell's popularity of the category; a cell without rows has none."""
    n, cnt = stats.counts_at(cell_rows(log, shop, date, daypart)[:1], category)
    return float(cnt.sum() / max(n.sum(), 1))


def n_transactions(stats, log, shop, date, daypart):
    return int(stats.counts_at(cell_rows(log, shop, date, daypart)[:1], "meal")[0].sum())


def test_popularity_counted_by_hand():
    # one lunch cell with 4 transactions, 2 containing fruit
    log = parse_csv(
        "T1,P1,2018-01-05T12:00:00,S1,R1,MEALV;FRU\n"
        "T2,P2,2018-01-05T12:05:00,S1,R1,MEALS\n"
        "T3,P3,2018-01-05T12:10:00,S1,R2,MEALV;FRU\n"
        "T4,P4,2018-01-05T12:15:00,S1,R2,MEALS;DES\n"
    )
    stats = compute_context(log)
    lunch = ("S1", "2018-01-05", M.Daypart.LUNCH)
    assert popularity(stats, log, *lunch, "fruit") == 0.5
    assert popularity(stats, log, *lunch, "meal") == 1.0
    assert popularity(stats, log, *lunch, "soup") == 0.0  # so soup is unavailable
    assert popularity(stats, log, *lunch, "dessert") > 0.0
    assert n_transactions(stats, log, *lunch) == 4


def test_cells_are_split_by_shop_date_daypart():
    log = parse_csv(
        "T1,P1,2018-01-05T09:00:00,S1,R1,COF;DES\n"
        "T2,P2,2018-01-05T12:00:00,S1,R1,MEALV\n"
        "T3,P3,2018-01-06T09:00:00,S1,R1,TEA\n"
        "T4,P4,2018-01-05T09:00:00,S2,R9,COF\n"
    )
    stats = compute_context(log)
    assert stats.n_cells == 4
    d5 = "2018-01-05"
    assert popularity(stats, log, "S1", d5, M.Daypart.BREAKFAST, "dessert") == 1.0
    assert popularity(stats, log, "S2", d5, M.Daypart.BREAKFAST, "dessert") == 0.0
    # a cell without transactions has no popularity
    assert popularity(stats, log, "S2", d5, M.Daypart.LUNCH, "meal") == 0.0
    assert n_transactions(stats, log, "S9", d5, M.Daypart.LUNCH) == 0


def test_popularities_in_unit_interval_random():
    rng = np.random.default_rng(1)
    rows = []
    codes = CODES
    for i in range(300):
        items = ";".join(rng.choice(codes, size=rng.integers(1, 4)))
        rows.append(
            f"T{i:04d},P{rng.integers(9)},2018-01-{rng.integers(1, 28):02d}"
            f"T{rng.integers(6, 20):02d}:00:00,S{rng.integers(2)},R1,{items}"
        )
    log = parse_csv("\n".join(rows) + "\n")
    stats = compute_context(log)
    assert (stats._counts >= 0).all() and (stats._counts <= stats._n[:, None]).all()
    # the lookup at every row agrees with a count over the row's cell
    cell = cell_reference(log)
    n, cnt = stats.counts_at(np.arange(log.n), "dessert")
    has = np.asarray(["DES" in b for b in baskets(log)])
    for i in range(0, log.n, 37):
        same = cell == cell[i]
        assert n[i] == same.sum() and cnt[i] == has[same].sum()


def test_csv_dump_shape():
    log = parse_csv("T1,P1,2018-01-05T12:00:00,S1,R1,MEALV\n")
    stats = compute_context(log)
    buf = io.StringIO()
    stats.to_csv(buf)
    lines = buf.getvalue().strip().split("\n")
    assert lines[0] == "shop_id,date,daypart,category,popularity,available,n"
    assert len(lines) == 1 + len(M.CATEGORY_KEYS)
    assert "S1,2018-01-05,lunch,meal,1.0,true,1" in lines


def test_counts_at_recover_integers():
    log = parse_csv(
        "T1,P1,2018-01-05T12:00:00,S1,R1,MEALV;FRU\n"
        "T2,P2,2018-01-05T12:05:00,S1,R1,MEALS\n"
        "T3,P3,2018-01-05T12:10:00,S1,R2,MEALV;FRU\n"
        "T4,P4,2018-01-05T12:15:00,S1,R2,MEALS;DES\n"
        "T5,P5,2018-01-06T12:00:00,S1,R1,MEALS;FRU\n"
    )
    stats = compute_context(log)
    n, cnt = stats.counts_at(np.asarray([0, 4]), "fruit")  # T1's lunch, then T5's
    assert n.tolist() == [4, 1] and cnt.tolist() == [2, 1]


def test_days_before_1970_keep_their_shop():
    # one lunch per shop on one day of 1965, and the first and last days a
    # timestamp can name: each is its own cell, with its own date
    log = parse_csv(
        "T1,P1,1965-03-01T12:00:00,S1,R1,MEALV;FRU\n"
        "T2,P2,1965-03-01T12:05:00,S2,R1,MEALS\n"
        "T3,P3,0001-01-01T12:00:00,S2,R1,MEALS\n"
        "T4,P4,9999-12-31T12:00:00,S2,R1,MEALS;FRU\n"
    )
    stats = compute_context(log)
    assert stats.n_cells == 4
    assert popularity(stats, log, "S1", "1965-03-01", M.Daypart.LUNCH, "fruit") == 1.0
    assert popularity(stats, log, "S2", "1965-03-01", M.Daypart.LUNCH, "fruit") == 0.0
    buf = io.StringIO()
    stats.to_csv(buf)
    fruit = [line.split(",")[:2] for line in buf.getvalue().splitlines() if ",fruit," in line]
    assert fruit == [["S1", "1965-03-01"], ["S2", "0001-01-01"], ["S2", "1965-03-01"], ["S2", "9999-12-31"]]
