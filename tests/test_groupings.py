"""The log's three groupings against references that re-sort the rows:
checkout queues, each person's rows, and the cell index behind the context
table's cells; and the dyads' person pairs against a dict of pairs."""

import csv
import io

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from copycart import model as M
from copycart.context import compute_context
from copycart.dyads import DyadSet, reconstruct_queues

from test_model import parse_csv

# two days before 1970, the first day of 1970 and one after, so that some
# cells and queues differ only in a date before the epoch
DAYS = ("1964-02-29", "1969-12-31", "1970-01-01", "2018-01-05")
# breakfast, lunch twice (rows tie on the stamp), afternoon and out of window
TIMES = ("08:00:00", "12:00:00", "12:00:00", "12:00:30", "15:00:00", "22:00:00")
BASKETS = ("MEALV", "MEALS;DES", "COF;FRU", "TEA;DES;FRU", "MISC")


@st.composite
def shuffled_logs(draw):
    """A log parsed from rows in a drawn order: few persons, shops, registers
    and stamps, so rows tie on the stamp across shops and registers and a
    person holds several rows of one cell."""
    rows = []
    for i in range(draw(st.integers(0, 40))):
        rows.append(",".join((
            f"T{i:02d}", draw(st.sampled_from(["P1", "P2", "P3"])),
            f"{draw(st.sampled_from(DAYS))}T{draw(st.sampled_from(TIMES))}",
            draw(st.sampled_from(["S1", "S2"])), draw(st.sampled_from(["R1", "R2", "R3"])),
            draw(st.sampled_from(BASKETS)),
        )))
    return parse_csv("".join(row + "\n" for row in draw(st.permutations(rows))))


@settings(max_examples=150, deadline=None)
@given(shuffled_logs())
def test_queues_are_the_five_key_sort(log):
    want = np.lexsort((log.tx_idx, log.ts, log.date_ord, log.register_idx, log.shop_idx))
    shop, reg, day = log.shop_idx[want], log.register_idx[want], log.date_ord[want]
    brk = (shop[1:] != shop[:-1]) | (reg[1:] != reg[:-1]) | (day[1:] != day[:-1])
    q = reconstruct_queues(log)
    assert np.array_equal(q.order, want)
    # an empty log has no queue, so its one bound is 0
    assert np.array_equal(q.start, np.unique(np.concatenate(([0], np.flatnonzero(brk) + 1, [log.n]))))


@settings(max_examples=150, deadline=None)
@given(shuffled_logs())
def test_cell_index_is_the_cell_row_sort(log):
    # cells numbered in (shop, date, daypart) order, rows ascending in each,
    # and each row's count of its person's rows in its cell
    keys = np.stack([log.shop_idx, log.date_ord, log.daypart], axis=1)
    distinct, cell = np.unique(keys, axis=0, return_inverse=True)
    cell = cell.reshape(-1)
    want = np.argsort(cell, kind="stable")
    index = log.cell_index()
    assert np.array_equal(index.cell, cell) and np.array_equal(index.order, want)
    assert np.array_equal(index.start, np.searchsorted(cell[want], np.arange(distinct.shape[0] + 1)))
    same = (cell[:, None] == cell) & (log.person_idx[:, None] == log.person_idx)
    assert np.array_equal(index.n_own, same.sum(axis=1))


@settings(max_examples=150, deadline=None)
@given(shuffled_logs())
def test_person_rows_are_the_person_time_sort(log):
    want = np.lexsort((log.ts, log.person_idx))
    order, start = log.person_transactions()
    assert np.array_equal(order, want)
    assert np.array_equal(start, np.searchsorted(log.person_idx[want], np.arange(len(log.persons) + 1)))


def context_reference(log):
    """Each row's (shop, date, daypart) key; (cell size, category counts)
    per key, counted one row at a time; and the context.csv they give."""
    dates = np.datetime_as_string(log.date_ord.astype("datetime64[D]")).tolist()
    keys = [(log.shops[log.shop_idx[r]], dates[r], int(log.daypart[r])) for r in range(log.n)]
    cells = {}
    for key, mask in zip(keys, log.mask.tolist()):
        n, counts = cells.setdefault(key, [0, [0] * len(M.CATEGORY_KEYS)])
        cells[key][0] = n + 1
        for bit in range(len(M.CATEGORY_KEYS)):
            counts[bit] += mask >> bit & 1
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(("shop_id", "date", "daypart", "category", "popularity", "available", "n"))
    for (shop, date, daypart), (n, counts) in sorted(cells.items()):
        for key, count in zip(M.CATEGORY_KEYS, counts):
            label = M.Daypart(daypart).label
            writer.writerow((shop, date, label, key, count / n, "true" if count else "false", n))
    return keys, cells, out.getvalue()


@settings(max_examples=150, deadline=None)
@given(shuffled_logs())
def test_context_is_a_count_per_cell(log):
    keys, cells, text = context_reference(log)
    stats = compute_context(log)
    assert stats.n_cells == len(cells)
    for bit, category in enumerate(M.CATEGORY_KEYS):
        n, count = stats.counts_at(np.arange(log.n), category)
        want = [(cells[key][0], cells[key][1][bit]) for key in keys]
        assert list(zip(n.tolist(), count.tolist())) == want
    buf = io.StringIO()
    stats.to_csv(buf)
    assert buf.getvalue() == text


def test_groupings_of_an_empty_log():
    log = parse_csv("")
    stats = compute_context(log)
    assert stats.n_cells == 0
    buf = io.StringIO()
    stats.to_csv(buf)
    assert buf.getvalue() == "shop_id,date,daypart,category,popularity,available,n\n"
    assert reconstruct_queues(log).start.tolist() == [0]
    assert log.person_transactions()[1].tolist() == [0]


# one row per person, so a dyad is any two of the rows; P0 to P4 by index
PERSON_ROWS = parse_csv("".join(f"T{i},P{i},2018-01-05T12:00:{i:02d},S1,R1,MEALV\n" for i in range(5)))


def pair_groups_reference(dyads):
    """Each dyad's unordered pair, numbered in (lower, higher) person order,
    and the dyads of each pair, grouped by a dict keyed by the pair."""
    pairs = {}
    for k, (p, f) in enumerate(zip(dyads.partner_person.tolist(), dyads.focal_person.tolist())):
        pairs.setdefault((min(p, f), max(p, f)), []).append(k)
    group = [0] * dyads.n
    for g, pair in enumerate(sorted(pairs)):
        for k in pairs[pair]:
            group[k] = g
    return group, [len(pairs[pair]) for pair in sorted(pairs)]


@settings(max_examples=150, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 4), st.integers(0, 4)), max_size=30))
@example([])  # no dyad: no pair
@example([(3, 1)])  # a single dyad
@example([(0, 1), (1, 0), (0, 1)])  # a pair seen in both directions
@example([(2, 0), (2, 4), (1, 2), (4, 2)])  # a person in several pairs
def test_pair_groups_are_a_dict_of_person_pairs(rows):
    partner, focal = (np.array([r[side] for r in rows], np.int64) for side in (0, 1))
    dyads = DyadSet(PERSON_ROWS, partner, focal)
    group, size = dyads.pair_groups()
    want_group, want_size = pair_groups_reference(dyads)
    assert group.dtype == M.row_dtype(dyads.n)
    assert group.tolist() == want_group and size.tolist() == want_size


def test_pair_groups_are_built_once_per_set():
    # the filter, tie strength and every item's coordination test read one grouping
    dyads = DyadSet(PERSON_ROWS, np.array([0, 1, 2, 0]), np.array([1, 0, 3, 1]))
    group, size = dyads.pair_groups()
    assert group.tolist() == [0, 0, 1, 0] and size.tolist() == [3, 1]
    again = dyads.pair_groups()
    assert again[0] is group and again[1] is size
    assert not group.flags.writeable and not size.flags.writeable
    # a subset is another set, with its own grouping
    sub = dyads.subset(np.array([False, False, True, True]))
    assert sub.pair_groups()[0].tolist() == [1, 0] and sub.pair_groups()[1].tolist() == [1, 1]
