"""Queue reconstruction, dyad extraction, filters, ties, co-purchase."""

import io

import numpy as np
import pytest

from copycart import model as M
from copycart.dyads import (
    DyadSet,
    co_purchase_matrix,
    extract_dyads,
    filter_frequent_pairs,
    reconstruct_queues,
    select_additions,
    tie_strength_per_dyad,
)
from copycart.errors import EmptyMatrixError

from test_model import CATALOG, parse_csv, tx_ids


def lunch_rows(entries, shop="S1", register="R1", day="2018-01-05"):
    """entries: list of (tx, person, seconds offset from 12:00, items)"""
    rows = []
    for tx, person, offset, items in entries:
        h = 12 + (offset // 3600)
        m = (offset % 3600) // 60
        s = offset % 60
        rows.append(f"{tx},{person},{day}T{h:02d}:{m:02d}:{s:02d},{shop},{register},{items}")
    return "\n".join(rows) + "\n"


def sequences(queues):
    """Row indices of each queue, in queue order."""
    return [queues.order[a:b] for a, b in zip(queues.start[:-1], queues.start[1:])]


def assert_dyad_invariants(d, max_gap_s=300):
    """Adjacent-transaction invariants every extracted dyad set satisfies."""
    log = d.log
    assert (log.ts[d.partner_i] <= log.ts[d.focal_i]).all()
    assert (d.delay_s >= 0).all() and (d.delay_s <= max_gap_s).all()
    assert (log.person_idx[d.partner_i] != log.person_idx[d.focal_i]).all()
    assert (log.shop_idx[d.partner_i] == log.shop_idx[d.focal_i]).all()
    assert (log.register_idx[d.partner_i] == log.register_idx[d.focal_i]).all()
    assert (log.date_ord[d.partner_i] == log.date_ord[d.focal_i]).all()
    assert (d.daypart != M.Daypart.OUT_OF_WINDOW.value).all()


def test_reconstruct_queues_empty_and_grouping():
    empty = M.parse_transactions(io.StringIO(""), CATALOG)
    q = reconstruct_queues(empty)
    assert sequences(q) == []
    log = parse_csv(
        lunch_rows([("T1", "P1", 0, "MEALV"), ("T3", "P3", 120, "MEALV")])
        + lunch_rows([("T2", "P2", 30, "MEALS"), ("T4", "P4", 200, "MEALS"), ("T5", "P5", 400, "MEALS")], register="R2")
    )
    q = reconstruct_queues(log)
    seqs = [[tx_ids(log)[i] for i in s] for s in sequences(q)]
    assert seqs == [["T1", "T3"], ["T2", "T4", "T5"]]


def test_equal_timestamp_tiebreak_by_tx_id():
    log = parse_csv(lunch_rows([("TB", "P1", 0, "MEALV"), ("TA", "P2", 0, "MEALS")]))
    q = reconstruct_queues(log)
    assert [tx_ids(log)[i] for i in sequences(q)[0]] == ["TA", "TB"]


def test_extract_dyads_gap_rule():
    log = parse_csv(
        lunch_rows([("T1", "A", 0, "MEALV"), ("T2", "B", 120, "MEALS"), ("T3", "C", 520, "MEALV")])
    )
    d = extract_dyads(reconstruct_queues(log))
    assert d.n == 1
    assert tx_ids(log)[d.partner_i[0]] == "T1" and tx_ids(log)[d.focal_i[0]] == "T2"
    assert d.delay_s[0] == 120


def test_extract_dyads_same_person_excluded():
    log = parse_csv(lunch_rows([("T1", "A", 0, "MEALV"), ("T2", "A", 60, "MEALS")]))
    assert extract_dyads(reconstruct_queues(log)).n == 0


def test_extract_dyads_overlap_allowed():
    log = parse_csv(
        lunch_rows([("T1", "A", 0, "MEALV"), ("T2", "B", 100, "MEALS"), ("T3", "C", 250, "MEALV")])
    )
    d = extract_dyads(reconstruct_queues(log))
    got = {(tx_ids(log)[p], tx_ids(log)[f]) for p, f in zip(d.partner_i, d.focal_i)}
    assert got == {("T1", "T2"), ("T2", "T3")}
    assert_dyad_invariants(d)


def test_extract_dyads_invariants_at_a_longer_gap():
    log = parse_csv(
        lunch_rows([("T1", "A", 0, "MEALV"), ("T2", "B", 450, "MEALS"), ("T3", "C", 1000, "MEALV")])
    )
    d = extract_dyads(reconstruct_queues(log), max_gap_s=600)
    assert d.delay_s.tolist() == [450, 550]
    assert_dyad_invariants(d, max_gap_s=600)


def test_extract_dyads_anchor_requirement():
    # B has no meal at lunch: (A,B) and (B,C) are dropped when anchors required
    log = parse_csv(
        lunch_rows([("T1", "A", 0, "MEALV"), ("T2", "B", 100, "DES"), ("T3", "C", 200, "MEALV")])
    )
    assert extract_dyads(reconstruct_queues(log)).n == 0
    d = extract_dyads(reconstruct_queues(log), require_anchor=False)
    assert d.n == 2


def test_extract_dyads_daypart_rules():
    # 10:59 -> 11:01 straddles breakfast/lunch: dropped; 21:00 out of window
    log = parse_csv(
        "T1,A,2018-01-05T10:59:00,S1,R1,COF\n"
        "T2,B,2018-01-05T11:01:00,S1,R1,MEALV\n"
        "T3,C,2018-01-05T21:00:00,S1,R1,COF\n"
        "T4,D,2018-01-05T21:01:00,S1,R1,TEA\n"
    )
    assert extract_dyads(reconstruct_queues(log), require_anchor=False).n == 0


def test_dyad_count_bound_and_queue_boundaries():
    log = parse_csv(
        lunch_rows([("T1", "A", 0, "MEALV"), ("T2", "B", 60, "MEALS")])
        + lunch_rows([("T3", "C", 70, "MEALV"), ("T4", "D", 130, "MEALS")], register="R2")
    )
    q = reconstruct_queues(log)
    d = extract_dyads(q)
    assert d.n <= log.n - len(sequences(q))
    got = {(tx_ids(log)[p], tx_ids(log)[f]) for p, f in zip(d.partner_i, d.focal_i)}
    assert got == {("T1", "T2"), ("T3", "T4")}


def _pair_fixture(counts: dict[tuple[str, str], int]):
    """One dyad per visit for each (partner, focal) pair, repeated."""
    entries = []
    k = 0
    for (a, b), n in counts.items():
        for _ in range(n):
            entries.append((f"TX{k:04d}", a, k * 700 % 7000, "MEALV"))
            entries.append((f"TX{k + 1:04d}", b, k * 700 % 7000 + 30, "MEALS"))
            k += 2
    day_rows = []
    # spread visits across days so consecutive visits never chain
    for i in range(0, len(entries), 2):
        day = f"2018-{(i // 50) + 1:02d}-{(i // 2) % 25 + 1:02d}"
        day_rows.append(lunch_rows(entries[i : i + 2], day=day))
    return parse_csv("".join(day_rows))


def test_filter_frequent_pairs_threshold():
    log = _pair_fixture({("A", "B"): 9, ("C", "D"): 10})
    d = extract_dyads(reconstruct_queues(log))
    assert d.n == 19
    kept = filter_frequent_pairs(d, min_count=10)
    persons = {d.log.persons[i] for i in kept.partner_person}
    assert persons == {"C"}
    assert kept.n == 10
    assert filter_frequent_pairs(kept, min_count=10).n == 10  # idempotent
    assert filter_frequent_pairs(d, min_count=1).n == d.n


def test_select_additions():
    entries = []
    for i in range(50):
        items = "MEALV;SOUP" if i == 0 else "MEALV"
        entries.append((f"A{i:03d}", "A", 0, items))
        entries.append((f"B{i:03d}", "B", 30, "MEALS"))
    rows = "".join(
        lunch_rows([entries[2 * i], entries[2 * i + 1]], day=f"2018-{i // 25 + 1:02d}-{i % 25 + 1:02d}")
        for i in range(50)
    )
    log = parse_csv(rows)
    d = extract_dyads(reconstruct_queues(log))
    assert d.n == 50
    sel = select_additions(d)
    assert sel == {M.Daypart.LUNCH: ["soup"]}  # 1/50 = 2% >= 1%
    assert select_additions(d, min_fraction=0.03) == {}


def tie_strength(dyads, pair):
    """Brute-force reference: dyads containing both persons of the pair
    over dyads containing either."""
    index = {p: i for i, p in enumerate(dyads.log.persons)}
    a, b = index[pair[0]], index[pair[1]]
    pp, fp = dyads.partner_person, dyads.focal_person
    in_a = (pp == a) | (fp == a)
    in_b = (pp == b) | (fp == b)
    return int((in_a & in_b).sum()) / int((in_a | in_b).sum())


def test_tie_strength_cases():
    log = _pair_fixture({("A", "B"): 4, ("A", "C"): 4, ("B", "D"): 2})
    d = extract_dyads(reconstruct_queues(log))
    assert tie_strength(d, ("A", "B")) == pytest.approx(4 / 10)
    assert tie_strength(d, ("C", "D")) == 0.0  # both active, never together
    per = tie_strength_per_dyad(d)
    names = [(d.log.persons[p], d.log.persons[f]) for p, f in zip(d.partner_person, d.focal_person)]
    assert [s for s, pair in zip(per, names) if pair == ("A", "B")] == pytest.approx([0.4] * 4)
    for k in range(d.n):
        assert per[k] == pytest.approx(tie_strength(d, names[k]))
    only = _pair_fixture({("A", "B"): 5})
    d2 = extract_dyads(reconstruct_queues(only))
    assert tie_strength_per_dyad(d2).tolist() == [1.0] * 5


def test_co_purchase_matrix_gender():
    log = _pair_fixture({("F1", "F2"): 2, ("F1", "M1"): 1, ("M2", "F2"): 1})
    d = extract_dyads(reconstruct_queues(log))
    demo = M.Demographics(
        [
            M.PersonRecord("F1", gender="female"),
            M.PersonRecord("F2", gender="female"),
            M.PersonRecord("M1", gender="male"),
            M.PersonRecord("M2", gender="male"),
        ]
    )
    m = co_purchase_matrix(d, demo, "gender")
    assert m.labels == ["female", "male"]
    # rows are focal, columns are partner
    assert m.matrix[0, 0] == pytest.approx(50.0)  # F focal, F partner
    assert m.matrix[1, 0] == pytest.approx(25.0)  # M focal, F partner
    assert m.matrix[0, 1] == pytest.approx(25.0)  # F focal, M partner
    assert m.matrix[1, 1] == 0.0
    assert m.matrix.sum() == pytest.approx(100.0, abs=1e-9)


def test_co_purchase_matrix_age_and_skips():
    log = _pair_fixture({("A", "B"): 1})
    d = extract_dyads(reconstruct_queues(log))
    demo = M.Demographics(
        [M.PersonRecord("A", birth_year=1996), M.PersonRecord("B", birth_year=1980)]
    )
    m = co_purchase_matrix(d, demo, "age_tercile")
    # tx year 2018: ages 22 and 38
    assert m.matrix[m.labels.index(">32"), m.labels.index("<=22")] == 100.0
    with pytest.raises(EmptyMatrixError):
        co_purchase_matrix(d, M.Demographics([]), "gender")


def test_dyad_csv_roundtrip():
    log = _pair_fixture({("A", "B"): 3, ("B", "C"): 2})
    d = extract_dyads(reconstruct_queues(log))
    buf = io.StringIO()
    d.to_csv(buf)
    text = buf.getvalue()
    assert text.splitlines()[0] == "partner_tx,focal_tx,shop_id,register_id,date,daypart,delay_s"
    back = DyadSet.from_csv(io.StringIO(text), log)
    assert np.array_equal(back.partner_i, d.partner_i)
    assert np.array_equal(back.focal_i, d.focal_i)
    assert np.array_equal(back.delay_s, d.delay_s)
    buf2 = io.StringIO()
    back.to_csv(buf2)
    assert buf2.getvalue() == text
