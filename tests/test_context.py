"""Popularity/availability table."""

import io

import numpy as np

from copycart import model as M
from copycart.context import compute_context, encode_cells

from test_model import CODES, baskets, parse_csv


def cell_key(log, shop, date, daypart):
    """Encoded (shop, date, daypart) cell; an unknown shop gets an index
    past the log's shops, so it names no cell."""
    shop_i = log.shops.index(shop) if shop in log.shops else len(log.shops)
    date_ord = np.datetime64(date, "D").astype(np.int64)
    return encode_cells(np.asarray([shop_i]), np.asarray([date_ord]), np.asarray([daypart.value]))


def popularity(stats, log, shop, date, daypart, category):
    n, cnt = stats.counts_for_cells(cell_key(log, shop, date, daypart), category)
    return float(cnt[0] / max(n[0], 1))


def n_transactions(stats, log, shop, date, daypart):
    return int(stats.counts_for_cells(cell_key(log, shop, date, daypart), "meal")[0][0])


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
    # absent cell gives zero / unavailable
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
    # the lookup on the log's own cells agrees with a count over the rows
    keys = encode_cells(log.shop_idx, log.date_ord, log.daypart)
    n, cnt = stats.counts_for_cells(keys, "dessert")
    has = np.asarray(["DES" in b for b in baskets(log)])
    for i in range(0, log.n, 37):
        same = keys == keys[i]
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


def test_counts_for_cells_recover_integers():
    log = parse_csv(
        "T1,P1,2018-01-05T12:00:00,S1,R1,MEALV;FRU\n"
        "T2,P2,2018-01-05T12:05:00,S1,R1,MEALS\n"
        "T3,P3,2018-01-05T12:10:00,S1,R2,MEALV;FRU\n"
        "T4,P4,2018-01-05T12:15:00,S1,R2,MEALS;DES\n"
        "T5,P5,2018-01-06T12:00:00,S1,R1,MEALS;FRU\n"
    )
    stats = compute_context(log)
    keys = encode_cells(log.shop_idx, log.date_ord, log.daypart)
    n, cnt = stats.counts_for_cells(keys[:1], "fruit")
    assert n[0] == 4 and cnt[0] == 2
    n, cnt = stats.counts_for_cells(keys[4:5], "fruit")
    assert n[0] == 1 and cnt[0] == 1
    # absent cell gives zeros
    n, cnt = stats.counts_for_cells(np.asarray([keys[0] + (1 << 50)]), "fruit")
    assert n[0] == 0 and cnt[0] == 0
