"""Domain model: dayparts, catalog, parsing, round-trips, demographics."""

import csv
import io
import itertools
import os
import re
import tempfile
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from copycart import csvio as C
from copycart import model as M
from copycart.dyads import DYAD_COLUMNS, DyadSet, extract_dyads, filter_frequent_pairs, reconstruct_queues
from copycart.errors import IngestError
from copycart.sim import SimulationConfig, simulate, simulation_catalog, write_simulation

from test_fuzz import DAMAGE, damaged


CATEGORIES = {
    "MEALV": M.ItemCategory("anchor_meal", "vegetarian"),
    "MEALS": M.ItemCategory("anchor_meal", "non_vegetarian"),
    "COF": M.ItemCategory("anchor_beverage", "coffee"),
    "TEA": M.ItemCategory("anchor_beverage", "tea"),
    "DES": M.ItemCategory("addition", "dessert"),
    "FRU": M.ItemCategory("addition", "fruit"),
    "SOUP": M.ItemCategory("addition", "soup"),
    "MISC": M.ItemCategory("other"),
}
CATALOG = M.ItemCatalog(CATEGORIES)
CODES = sorted(CATEGORIES)


def tx_ids(log):
    """The tx id of every row, in log order."""
    return log.tx_ids_at(np.arange(log.n)).texts()


def baskets(log):
    """The normalized basket of every row, in log order."""
    return [log.basket_table[k] for k in log.basket_idx]


# -- dayparts ----------------------------------------------------------------


def daypart_of_seconds(secs: int) -> M.Daypart:
    """Scalar reference: the paper's windows, written out one by one."""
    if 6 * 3600 <= secs < 11 * 3600:
        return M.Daypart.BREAKFAST
    if 11 * 3600 <= secs < 14 * 3600 + 1800:
        return M.Daypart.LUNCH
    if 14 * 3600 + 1800 <= secs < 20 * 3600:
        return M.Daypart.AFTERNOON
    return M.Daypart.OUT_OF_WINDOW


def daypart(secs: int) -> M.Daypart:
    return M.Daypart(int(M.dayparts_of_secs_array(np.asarray([secs]))[0]))


def test_daypart_examples():
    assert daypart(7 * 3600 + 30 * 60) == M.Daypart.BREAKFAST
    assert daypart(11 * 3600) == M.Daypart.LUNCH
    assert daypart(21 * 3600 + 15 * 60) == M.Daypart.OUT_OF_WINDOW
    # timestamps reach the same codes through the parsed log
    log = parse_csv(
        "T1,P1,2018-01-05T07:30:00,S1,R1,COF\n"
        "T2,P1,2018-01-05T11:00:00,S1,R1,MEALV\n"
        "T3,P1,2018-01-05T21:15:00,S1,R1,TEA\n"
    )
    assert log.daypart.tolist() == [M.Daypart.BREAKFAST, M.Daypart.LUNCH, M.Daypart.OUT_OF_WINDOW]


def test_daypart_boundaries():
    assert daypart(6 * 3600 - 1) == M.Daypart.OUT_OF_WINDOW
    assert daypart(6 * 3600) == M.Daypart.BREAKFAST
    assert daypart(11 * 3600) == M.Daypart.LUNCH
    assert daypart(14 * 3600 + 1800) == M.Daypart.AFTERNOON
    assert daypart(20 * 3600) == M.Daypart.OUT_OF_WINDOW


@given(st.integers(min_value=0, max_value=86399))
def test_daypart_total_and_matches_vector(secs):
    one = daypart_of_seconds(secs)
    assert one in list(M.Daypart)
    vec = M.dayparts_of_secs_array(np.asarray([secs]))
    assert vec[0] == one.value


# -- catalog and anchors -------------------------------------------------------


def test_catalog_roundtrip():
    buf = io.StringIO()
    CATALOG.to_csv(buf)
    text = buf.getvalue()
    again = M.ItemCatalog.from_csv(io.StringIO(text))
    buf2 = io.StringIO()
    again.to_csv(buf2)
    assert buf2.getvalue() == text
    assert "C17,anchor_beverage,coffee" not in text  # sanity: our codes only


def test_catalog_rejects_bad_rows():
    with pytest.raises(IngestError):
        M.ItemCatalog.from_csv(io.StringIO("X1,anchor_meal,weird\n"))
    with pytest.raises(IngestError):
        M.ItemCatalog.from_csv(io.StringIO("X1,addition,dessert\nX1,other,\n"))


def test_mask_bits():
    m = CATALOG.mask_of(["MEALV", "DES"])
    assert m & (1 << M.BIT_MEAL)
    assert m & (1 << M.BIT_MEAL_VEG)
    assert m & (1 << M.CATEGORY_BIT["dessert"])
    assert not m & (1 << M.BIT_COFFEE)
    assert CATALOG.mask_of(["MEALS"]) & (1 << M.BIT_MEAL_VEG) == 0
    assert CATALOG.mask_of(["UNKNOWN", "MISC"]) == 0


ANCHOR_CODE = {("anchor_meal", "vegetarian"): 1, ("anchor_meal", "non_vegetarian"): 2,
               ("anchor_beverage", "coffee"): 3, ("anchor_beverage", "tea"): 4}


def anchor_of(basket, daypart):
    """Scalar reference: the anchor category of one basket, or None.

    Lunch anchors on a meal, breakfast/afternoon on coffee or tea; vegetarian
    meals precede other meals and coffee precedes tea.
    """
    if daypart == M.Daypart.OUT_OF_WINDOW:
        return None
    cats = [CATEGORIES[code] for code in basket if code in CATEGORIES]
    if daypart == M.Daypart.LUNCH:
        meals = [c for c in cats if c.kind == "anchor_meal"]
        veg = [c for c in meals if c.subtype == "vegetarian"]
        return (veg or meals or [None])[0]
    for want in ("coffee", "tea"):
        for c in cats:
            if c.kind == "anchor_beverage" and c.subtype == want:
                return c
    return None


def anchor_code(basket, daypart):
    mask = np.asarray([CATALOG.mask_of(basket)], np.uint16)
    return int(M.anchor_code_arrays(mask, np.asarray([daypart.value]))[0])


def test_anchor_of_examples():
    assert anchor_code(["MEALS", "FRU"], M.Daypart.LUNCH) == 2
    assert anchor_code(["DES"], M.Daypart.BREAKFAST) == 0
    assert anchor_code(["COF", "TEA"], M.Daypart.AFTERNOON) == 3
    # meal does not anchor outside lunch; beverage does not anchor at lunch
    assert anchor_code(["MEALS"], M.Daypart.BREAKFAST) == 0
    assert anchor_code(["COF"], M.Daypart.LUNCH) == 0
    assert anchor_code(["MEALS", "MEALV"], M.Daypart.LUNCH) == 1
    assert anchor_code(["TEA", "DES"], M.Daypart.BREAKFAST) == 4
    # nothing anchors out of the studied windows
    assert anchor_code(["COF"], M.Daypart.OUT_OF_WINDOW) == 0


def test_anchor_codes_match_scalar_reference():
    codes = ["MEALV", "MEALS", "COF", "TEA", "DES", "MISC"]
    baskets = [b for k in range(len(codes) + 1) for b in itertools.combinations(codes, k)]
    for daypart in M.Daypart:
        want = []
        for basket in baskets:
            cat = anchor_of(basket, daypart)
            want.append(0 if cat is None else ANCHOR_CODE[(cat.kind, cat.subtype)])
        masks = np.asarray([CATALOG.mask_of(b) for b in baskets], np.uint16)
        got = M.anchor_code_arrays(masks, np.full(len(baskets), daypart.value, np.int8))
        assert got.tolist() == want, daypart


# -- parsing -------------------------------------------------------------------

CSV_HEADER = "tx_id,person_id,timestamp,shop_id,register_id,items\n"


def parse_csv(rows: str):
    return M.parse_transactions(io.StringIO(CSV_HEADER + rows), CATALOG)


def test_parse_empty_stream():
    log = M.parse_transactions(io.StringIO(""), CATALOG)
    assert log.n == 0 and sum(log.report.unknown_codes.values()) == 0


def test_parse_three_records_one_unknown_code():
    log = parse_csv(
        "T1,P1,2018-01-05T12:01:00,S1,R1,MEALV;DES\n"
        "T2,P2,2018-01-05T12:02:00,S1,R1,MEALS;ZZZ\n"
        "T3,P3,2018-01-05T12:03:00,S1,R1,MEALV\n"
    )
    assert log.n == 3
    assert sum(log.report.unknown_codes.values()) == 1
    assert log.report.unknown_codes == {"ZZZ": 1}


def test_parse_bad_timestamp_is_record_level():
    log = parse_csv(
        "T1,P1,2018-13-01T09:00:00,S1,R1,COF\n"
        "T2,P2,2018-01-05T09:00:00,S1,R1,COF\n"
    )
    assert log.n == 1
    assert log.report.n_rejected == 1
    line, msg = log.report.errors[0]
    assert line == 2 and "timestamp" in msg


def test_parse_empty_basket_rejected():
    log = parse_csv("T1,P1,2018-01-05T09:00:00,S1,R1,\n")
    assert log.n == 0 and log.report.n_rejected == 1


def test_parse_duplicate_tx_fatal():
    with pytest.raises(IngestError, match="duplicate tx_id 'T1'"):
        parse_csv(
            "T1,P1,2018-01-05T09:00:00,S1,R1,COF\n"
            "T1,P2,2018-01-05T09:05:00,S1,R1,TEA\n"
        )


def test_parse_sorts_canonically_and_dedupes_basket():
    log = parse_csv(
        "T2,P2,2018-01-05T09:00:00,S1,R1,TEA;TEA;COF\n"
        "T1,P1,2018-01-05T08:00:00,S1,R1,COF\n"
    )
    assert tx_ids(log) == ["T1", "T2"]
    assert baskets(log)[1] == ("COF", "TEA")


def test_equal_timestamps_ordered_by_tx_id():
    log = parse_csv(
        "TB,P2,2018-01-05T09:00:00,S1,R1,COF\n"
        "TA,P1,2018-01-05T09:00:00,S1,R1,TEA\n"
    )
    assert tx_ids(log) == ["TA", "TB"]


def _random_log(rng: np.random.Generator, n: int):
    codes = CODES
    rows = []
    for i in range(n):
        items = rng.choice(codes, size=rng.integers(1, 4), replace=True)
        rows.append(
            f"T{i:04d},P{rng.integers(5)},2018-0{rng.integers(1, 9)}-1{rng.integers(0, 9)}"
            f"T{rng.integers(0, 23):02d}:{rng.integers(0, 59):02d}:{rng.integers(0, 59):02d},"
            f"S{rng.integers(2)},R{rng.integers(2)},{';'.join(items)}"
        )
    return parse_csv("\n".join(rows) + "\n")


def row_values(log):
    """Every row of a log as plain values, in log order."""
    return [
        (tx, log.persons[log.person_idx[i]], int(log.ts[i]),
         log.shops[log.shop_idx[i]], log.registers[log.register_idx[i]], basket)
        for i, (tx, basket) in enumerate(zip(tx_ids(log), baskets(log)))
    ]


def assert_log_invariants(log):
    """Canonical (timestamp, shop, register, tx_id) order, unique tx ids,
    non-empty baskets, and masks in sync with the baskets."""
    keys = [(ts, shop, reg, tx) for tx, _p, ts, shop, reg, _b in row_values(log)]
    assert keys == sorted(keys)
    assert len(set(tx_ids(log))) == log.n
    assert all(len(b) > 0 for b in baskets(log))
    expect = np.asarray([CATALOG.mask_of(b) for b in baskets(log)], np.uint16)
    assert np.array_equal(expect, log.mask)
    assert np.array_equal(log.basket_sizes, [len(b) for b in baskets(log)])


def test_serialize_roundtrip_byte_identical():
    log = _random_log(np.random.default_rng(7), 60)
    buf = io.StringIO()
    M.serialize_transactions(log, buf)
    text = buf.getvalue()
    again = M.parse_transactions(io.StringIO(text), CATALOG)
    assert row_values(again) == row_values(log)
    buf2 = io.StringIO()
    M.serialize_transactions(again, buf2)
    assert buf2.getvalue() == text
    assert_log_invariants(again)


def test_log_keeps_columns_given_in_canonical_order():
    # int32 codes, the row type of a log this size
    ts, tx = np.array([5, 5, 9]), (C.ByteColumn.of(["T1", "T2", "T3"]), np.arange(3, dtype=np.int32))
    ids, basket = (["A"], np.zeros(3, np.int32)), ([("COF",)], np.zeros(3, np.int32))
    log = M.TransactionLog(ts, tx, ids, ids, ids, basket, CATALOG)
    assert np.shares_memory(log.ts, ts) and np.shares_memory(log.tx_idx, tx[1])
    assert np.shares_memory(log.basket_idx, basket[1])
    shuffled = M.TransactionLog(ts[::-1], (tx[0], tx[1][::-1]), ids, ids, ids, basket, CATALOG)
    assert shuffled.ts.tolist() == [5, 5, 9] and shuffled.tx_idx.tolist() == [0, 1, 2]
    assert not np.shares_memory(shuffled.ts, ts)


def test_shuffled_rows_sort_to_the_canonical_log():
    rng = np.random.default_rng(5)
    # three stamps, two shops and two registers: most rows tie on all three,
    # so the tx id orders them
    rows = [f"T{i:03d},P{rng.integers(4)},2018-01-05T12:00:0{rng.integers(3)},S{rng.integers(2)},"
            f"R{rng.integers(2)},{rng.choice(CODES)}" for i in range(60)]
    log = parse_csv("\n".join(rows) + "\n")
    keys = np.stack([log.ts, log.shop_idx, log.register_idx], axis=1)
    assert (keys[1:] == keys[:-1]).all(axis=1).sum() > 30

    def columns(rows):
        return M.TransactionLog(
            log.ts[rows], (log.txs, log.tx_idx[rows]), (log.persons, log.person_idx[rows]),
            (log.shops, log.shop_idx[rows]), (log.registers, log.register_idx[rows]),
            (log.basket_table, log.basket_idx[rows]), CATALOG)

    with mock.patch.object(M.np, "lexsort", wraps=np.lexsort) as lexsort:
        canonical = columns(np.arange(log.n))
        assert lexsort.call_count == 0  # rows in canonical order are not sorted again
        shuffled = columns(rng.permutation(log.n))
        assert lexsort.call_count == 1
    for got in (canonical, shuffled):
        for name in ("ts", "tx_idx", "person_idx", "shop_idx", "register_idx", "basket_idx",
                     "mask", "basket_sizes", "date_ord", "secs", "daypart"):
            assert np.array_equal(getattr(got, name), getattr(log, name)), name
    # a file in another row order numbers its baskets in another order
    assert row_values(parse_csv("\n".join(rng.permutation(rows)) + "\n")) == row_values(log)
    assert_log_invariants(log)


def _stamp_text(y, mo, d, h, mi, s):
    return f"{y:04d}-{mo:02d}-{d:02d}T{h:02d}:{mi:02d}:{s:02d}"


_fields = st.tuples(
    st.integers(1, 9999), st.integers(0, 13), st.integers(0, 32),
    st.integers(0, 24), st.integers(0, 60), st.integers(0, 60),
)
STAMPS = st.one_of(
    _fields.map(lambda f: _stamp_text(*f)),  # canonical form, calendar-invalid ones included
    _fields.map(lambda f: _stamp_text(*f).replace("T", " ")),
    _fields.map(lambda f: _stamp_text(*f)[:10]),  # date only
    _fields.map(lambda f: _stamp_text(*f) + ".250"),
    _fields.map(lambda f: _stamp_text(*f) + "Z"),
    _fields.map(lambda f: _stamp_text(*f) + "+01:00"),
    _fields.map(lambda f: _stamp_text(*f).replace("-", "").replace(":", "")),  # compact
    _fields.map(lambda f: " " + _stamp_text(*f) + " "),
    st.sampled_from([
        "", "NaT", "nat", "2018-13-01T09:00:00", "2018-04-31T12:00:00",
        "2019-02-29T12:00:00", "2020-02-29T12:00:00", "1900-02-29T00:00:00",
        "2000-02-29T23:59:59", "0000-01-01T00:00:00", "2018-01-05T24:00:00",
        "2018-01-05T12:00:60", "2018-01-05t12:00:00", "2018-01-05T12:00:0",
        "\uff12018-01-05T12:00:00", "2018-01-05T12:00:00\x00",
    ]),
    st.text(st.characters(blacklist_categories=("Cs",)), max_size=24),
)


@settings(max_examples=200, deadline=None)
@given(st.lists(STAMPS, min_size=1, max_size=12))
def test_column_parser_agrees_with_row_parser(stamps):
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    # a "\n" terminator leaves a "\r" unquoted, which would end the record
    quoted = csv.writer(buf, lineterminator="\n", quoting=csv.QUOTE_ALL)
    w.writerow(M.TRANSACTION_COLUMNS)
    for i, stamp in enumerate(stamps):
        (quoted if "\r" in stamp else w).writerow([f"T{i:03d}", "P1", stamp, "S1", "R1", "COF"])
    log = M.parse_transactions(io.StringIO(buf.getvalue()), CATALOG)
    accepted, errors, line = {}, [], 2
    for i, stamp in enumerate(stamps):
        try:
            accepted[f"T{i:03d}"] = M._parse_timestamp(stamp.strip())
        except ValueError as e:
            errors.append((line, f"malformed timestamp {stamp.strip()!r}: {e}"))
        line += len(re.findall("\r\n?|\n", stamp)) + 1  # a quoted line end starts a line too
    assert dict(zip(tx_ids(log), log.ts.tolist())) == accepted
    assert log.report.errors == errors


def chunk_rows(text, strip=False):
    """The records `_record_chunks` finds, rebuilt one list per record from
    the byte column of every field of each chunk, and the line each starts on."""
    rows, lines = [], []
    for column, widths, blank, starts in C._record_chunks(text.encode("utf-8"), "text"):
        if starts is None:  # one line per record
            starts = np.arange(len(rows), len(rows) + widths.shape[0]) + 1
        assert column(np.array([-1]), strip).texts() == [""]
        fields = column(np.arange(widths.sum()), strip).texts()
        start = 0
        for w, b in zip(widths.tolist(), blank.tolist()):
            rows.append([] if b else fields[start : start + w])
            start += w
        lines += starts.tolist()
    return rows, lines


CSV_TEXT = st.text(st.sampled_from(list("ab7 ,\n\t\v\x1f") + ['"', "\r", "\x00", "é", "\xa0"]),
                   max_size=60)


@settings(max_examples=300, deadline=None)
@given(CSV_TEXT, st.sampled_from([1, 2, 1000]))
def test_record_chunks_read_as_csv_reader_does(text, chunk):
    reader = csv.reader(io.StringIO(text, newline=""))
    want, lines = [], []
    try:
        for row in reader:
            want.append(row)
            lines.append(reader.line_num)  # the line the record ends on, for now
    except csv.Error:
        want = None
    lines = [1, *(end + 1 for end in lines[:-1])]  # each record starts after the last one ends
    with mock.patch.object(C, "_PARSE_CHUNK", chunk):
        if want is None:
            with pytest.raises(IngestError):
                chunk_rows(text)
        else:
            assert chunk_rows(text) == (want, lines[: len(want)])
            assert chunk_rows(text, strip=True)[0] == [[f.strip() for f in row] for row in want]


def test_unreadable_csv_is_an_ingest_error():
    text = CSV_HEADER + 'T1,P1,"' + "x" * (csv.field_size_limit() + 1) + '",S1,R1,COF\n'
    with pytest.raises(IngestError, match="line 2"):
        M.parse_transactions(io.StringIO(text), CATALOG)


@pytest.mark.parametrize("column", ["tx_id", "person_id", "shop_id", "register_id"])
def test_id_with_carriage_return_is_an_ingest_error(column):
    # the dumps write ids unquoted, and a bare "\r" there would end the record
    row = dict(tx_id="T2", person_id="P1", shop_id="S1", register_id="R1")
    row[column] = '"X\rY"'
    text = (CSV_HEADER + "T1,P1,2018-01-05T12:00:00,S1,R1,COF\n"
            + "{tx_id},{person_id},2018-01-05T12:00:30,{shop_id},{register_id},COF\n".format(**row))
    with pytest.raises(IngestError, match=f"line 3: carriage return in {column}"):
        M.parse_transactions(io.StringIO(text), CATALOG)


def test_carriage_return_error_names_the_file(tmp_path):
    path = tmp_path / "cr.csv"
    path.write_bytes((CSV_HEADER + 'T1,P1,2018-01-05T12:00:00,S1,R1,COF\n'
                      '"X\rY",P1,2018-01-05T12:00:30,S1,R1,COF\n').encode())
    with pytest.raises(IngestError) as err:
        M.parse_transactions(path, CATALOG)
    assert str(err.value).startswith(f"{path} line 3: carriage return in tx_id 'X\\rY'")


@pytest.mark.parametrize("quoted", [False, True])
def test_parse_is_independent_of_chunk_size(quoted, tmp_path):
    rng = np.random.default_rng(5)
    rows = []
    for i in range(80):
        basket = ";".join(rng.choice(CODES, size=rng.integers(0, 3)))
        stamp = f"2018-0{rng.integers(1, 9)}-{rng.integers(10, 32)}T{rng.integers(6, 20):02d}:00:00"
        if rng.random() < 0.1:
            stamp = stamp.replace("T", " ")
        row = [f"T{i:03d}", f"P{rng.integers(4)}" if rng.random() < 0.95 else "", stamp,
               "S1", "R1", basket]
        if rng.random() < 0.05:
            row = row[:4]
        rows.append(",".join(f'"{f}"' if quoted else f for f in row) if rng.random() < 0.95 else "")
    text = CSV_HEADER + "\n".join(rows) + "\n"
    # the log's longest line last, with and without its newline, and before
    # a short last line: a chunk's fields are cut from the file's own bytes
    # only where a window as wide as its longest line fits in them
    longest = ",".join(f'"{f}"' if quoted else f for f in
                       ["T999", "P1", "2018-01-05T12:00:00", "S1", "R1", ";".join(CODES * 4)])
    for text in (text, text + longest + "\n", text + longest, text + longest + "\nT998,P1\n"):
        path = tmp_path / "transactions.csv"
        path.write_bytes(text.encode())
        whole = M.parse_transactions(io.StringIO(text), CATALOG)
        assert whole.report.n_rejected > 0 and whole.n > 40
        for chunk in (1, 7):
            with mock.patch.object(C, "_PARSE_CHUNK", chunk):
                chunked = M.parse_transactions(io.StringIO(text), CATALOG)
                from_path = M.parse_transactions(path, CATALOG)
            assert row_values(chunked) == row_values(from_path) == row_values(whole)
            assert chunked.report == from_path.report == whole.report
        with mock.patch.object(C, "_MIX", np.uint64(0)):  # every basket hashes alike
            collided = M.parse_transactions(path, CATALOG)
        assert row_values(collided) == row_values(whole) and collided.report == whole.report


PAD = st.sampled_from(["", "", "", " ", "\t", " \v "])


@st.composite
def small_logs(draw):
    """(records, final newline) of a small transactions CSV: a permuted and
    padded header, then rows with blank lines, wrong widths, missing and
    padded fields, empty baskets and stamps of every form."""
    columns = draw(st.permutations(M.TRANSACTION_COLUMNS))
    records = [[draw(PAD) + c + draw(PAD) for c in columns]]
    for i in range(draw(st.integers(0, 12))):
        kind = draw(st.sampled_from(["row"] * 6 + ["blank", "short", "long"]))
        if kind == "blank":
            records.append([])
            continue
        row = {
            "tx_id": f"T{i}",
            "person_id": draw(st.sampled_from(["P1", "P2", "P10", "P1", ""])),
            "timestamp": draw(st.sampled_from([
                f"2018-01-05T12:00:{i:02d}", f"2019-12-31T23:59:{i:02d}", f"2018-01-05 12:{i:02d}:00",
                "2018-02-30T12:00:00", "", "20180105T120000", "2018-01-05"])),
            "shop_id": draw(st.sampled_from(["S1", "S2", "S1", ""])),
            "register_id": draw(st.sampled_from(["R1", "R2", "R1", ""])),
            "items": draw(st.sampled_from(["COF", "DES;COF", "ZZZ;;FRU", " COF", "TEA ", "", ";"])),
        }
        fields = [row[c] if c in ("tx_id", "items") else draw(PAD) + row[c] + draw(PAD) for c in columns]
        records.append({"row": fields, "short": fields[:-1], "long": fields + ["x"]}[kind])
    return records, draw(st.booleans())


def parse_outcome(text):
    """The rows and report a parse gives, or the message of its IngestError."""
    try:
        log = M.parse_transactions(io.StringIO(text), CATALOG)
    except IngestError as e:
        return str(e)
    return row_values(log), log.report


def _row(tx, items):
    return [tx, "P1", "2018-01-05T12:00:00", "S1", "R1", items]


@settings(max_examples=200, deadline=None)
@given(small_logs(), st.sampled_from([2, 1000]))
# the second chunk's last items field starts nearer the end of the file than
# the chunk's longest items field is wide
@example(([list(M.TRANSACTION_COLUMNS), _row("T1", "COF"), _row("T2", ";".join(CODES * 20)),
           _row("T3", "TEA"), _row("T4", "TEA")], True), 2)
def test_byte_split_parses_as_csv_reader_does(log, chunk):
    # the same records with every field quoted go through `csv.reader`
    records, final_newline = log
    end = "\n" if final_newline else ""
    text = "\n".join(",".join(r) for r in records) + end
    quoted = "\n".join(",".join(f'"{f}"' for f in r) for r in records) + end
    assert '"' not in text and text.isascii()
    with mock.patch.object(C, "_PARSE_CHUNK", chunk):
        assert parse_outcome(text) == parse_outcome(quoted)


@pytest.mark.parametrize("read, columns, row", [
    (lambda src: M.parse_transactions(src, CATALOG), M.TRANSACTION_COLUMNS,
     "T2,P1,2018-01-05T12:00:30,S1,R1,,COF"),
    (M.Demographics.from_csv, M.DEMOGRAPHIC_COLUMNS, "P1,female,staff,,1980"),
    (lambda src: DyadSet.from_csv(src, parse_csv("T1,P1,2018-01-05T12:00:00,S1,R1,COF\n")),
     DYAD_COLUMNS, "T1,T1,S1,R1,2018-01-05,lunch,,0"),
], ids=["transactions", "demographics", "dyads"])
def test_repeated_header_column_is_an_ingest_error(read, columns, row):
    # the second copy of the last column would otherwise be ignored unseen
    text = ",".join(columns + columns[-1:]) + "\n" + row + "\n"
    with pytest.raises(IngestError, match=f"line 1: header repeats column '{columns[-1]}'"):
        read(io.StringIO(text))


def test_fields_that_differ_in_trailing_nuls_stay_apart():
    # quoted text keeps a NUL, which the parser's fixed-width columns pad with
    text = CSV_HEADER + ('T1,P1,2018-01-05T12:00:00,S1,R1,COF\n'
                         'T2,"P1\x00",2018-01-05T12:00:01,S1,R1,"COF\x00"\n')
    log = M.parse_transactions(io.StringIO(text), CATALOG)
    assert log.persons == ["P1", "P1\x00"]
    assert [row[1] for row in row_values(log)] == ["P1", "P1\x00"]
    assert baskets(log) == [("COF",), ("COF\x00",)]
    assert log.report.unknown_codes == {"COF\x00": 1}


def test_baskets_that_share_their_first_word_stay_apart():
    # the basket column is grouped by a hash of its 8-byte words and length
    log = parse_csv("T1,P1,2018-01-05T12:00:00,S1,R1,ABCDEFGH;COF\n"
                    "T2,P1,2018-01-05T12:00:01,S1,R1,ABCDEFGH;TEA\n"
                    "T3,P1,2018-01-05T12:00:02,S1,R1,ABCDEFGH;COF\n")
    assert baskets(log) == [("ABCDEFGH", "COF"), ("ABCDEFGH", "TEA"), ("ABCDEFGH", "COF")]
    log = parse_csv('T1,P1,2018-01-05T12:00:00,S1,R1,ABCDEFGH\n'
                    'T2,P1,2018-01-05T12:00:01,S1,R1,"ABCDEFGH\x00"\n')
    assert baskets(log) == [("ABCDEFGH",), ("ABCDEFGH\x00",)]


@st.composite
def byte_columns(draw):
    """(fields, width): bytes no longer than `width`, with empty fields,
    embedded and trailing NULs, and fields that share their first 8-byte
    word; few distinct fields, so most recur."""
    width = draw(st.sampled_from([1, 7, 8, 9, 16, 17]))
    tail = st.lists(st.sampled_from(b"\x00ab"), max_size=width).map(bytes)
    field = st.builds(lambda head, rest: (head + rest)[:width], st.sampled_from([b"", b"ABCDEFGH"]), tail)
    pool = draw(st.lists(field, min_size=1, max_size=6))
    return draw(st.lists(st.sampled_from(pool), max_size=30)), width


def as_byte_column(fields, width):
    return np.array(fields, f"S{width}").reshape(-1), np.array(list(map(len, fields)), np.int64)


_TRAILING_NULS = ([b"T1\x00", b"T1", b"a\x00b", b"T1\x00\x00", b"a", b"T1", b"", b"a\x00b\x00"], 9)


@settings(max_examples=200, deadline=None)
@given(byte_columns())
@example(_TRAILING_NULS)
@example(([], 8))
@example(([b"\x00"], 1))
def test_distinct_fields_match_a_python_reference(column):
    fields, width = column
    distinct = sorted(set(fields))  # bytes sort shortest first on a shared prefix
    got, codes, first = C.distinct_fields(*as_byte_column(fields, width))
    assert got.texts() == [f.decode() for f in distinct]
    assert codes.tolist() == [distinct.index(f) for f in fields]
    assert first.tolist() == [fields.index(f) for f in distinct]


@settings(max_examples=200, deadline=None)
@given(byte_columns(), st.booleans())
@example(_TRAILING_NULS, False)
@example(([], 8), False)
@example(([b"a"], 1), False)
def test_grouped_fields_group_as_distinct_fields_do(column, collide):
    values, lens = as_byte_column(*column)
    _, codes, first = C.distinct_fields(values, lens)
    with mock.patch.object(C, "_MIX", np.uint64(0) if collide else C._MIX):  # 0: every row hashes alike
        got, got_codes, got_first = C.grouped_fields(values, lens)
    # the same rows together, each group named by the same first row
    assert got_first[got_codes].tolist() == first[codes].tolist()
    assert sorted(got_first.tolist()) == sorted(first.tolist())
    assert got.texts() == C.ByteColumn(values, lens).take(got_first).texts()


@pytest.mark.parametrize("chunk", [2, 1000])
def test_byte_column_is_a_copy_of_the_files_bytes(chunk):
    # every chunk but the last is cut from the file's own buffer, and the
    # last from a padded copy of it; the window past each field is zeroed
    # in what is returned, never in either buffer
    data = "".join(f"T{i},{'x' * (i % 5)},S{i % 3}\n" for i in range(9)).encode()
    whole = np.frombuffer(data, np.uint8)
    fields, from_file = [], []
    with mock.patch.object(C, "_PARSE_CHUNK", chunk):
        for column, widths, _, _ in C._record_chunks(data, "text"):
            buf = column.args[0]
            from_file.append(np.shares_memory(buf, whole))
            got = column(np.arange(widths.sum()), False)
            assert not np.shares_memory(got.values, buf) and not np.shares_memory(got.values, whole)
            fields += got.texts()
    assert from_file == [True] * (len(from_file) - 1) + [False]
    assert fields == [f for i in range(9) for f in (f"T{i}", "x" * (i % 5), f"S{i % 3}")]


def test_byte_column_reads_a_window_that_ends_at_the_buffers_last_byte():
    # the widest field's window is the last one the strided view holds
    buf = np.frombuffer(b"ab, cde ", np.uint8)
    starts, stops = np.array([0, 3]), np.array([2, 8])
    assert C._byte_column(buf, starts, stops, np.array([0, 1, 0]), False).texts() == ["ab", " cde ", "ab"]
    assert C._byte_column(buf, starts, stops, np.array([1, 0]), True).texts() == ["cde", "ab"]


def test_rows_of_tells_tx_ids_apart_by_trailing_nuls():
    tx = ["T1\x00", "T1", "T1\x00\x00", "U"]
    log = parse_csv("".join(f'"{t}",P1,2018-01-05T12:00:0{i},S1,R1,COF\n' for i, t in enumerate(tx)))
    wanted = ["T1", "T1\x00", "T1\x00\x00", "T1\x00\x00\x00", "U", "T", "", "U\x00"]
    rows = log.rows_of(C.ByteColumn.of(wanted)).tolist()
    assert [tx_ids(log)[r] if r >= 0 else None for r in rows] == wanted[:3] + [None, "U", None, None, None]


def test_parse_memory_stays_bounded(tmp_path):
    # The parse of this 55k-row log peaked at 15.6 MB of traced memory when
    # the bound was set; one Python str per field, or offsets and byte views
    # built for the whole log at once, at least double that.
    config = SimulationConfig(seed=3, n_persons=500)
    M.serialize_transactions(simulate(config).log, tmp_path / "transactions.csv")
    tracemalloc.start()
    try:
        log = M.parse_transactions(tmp_path / "transactions.csv", simulation_catalog(config))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert log.n > 50_000 and log.report.n_rejected == 0
    assert peak < 32e6, f"parse peaked at {peak / 1e6:.1f} MB"


def test_parse_of_the_default_log_stays_within_a_multiple_of_its_file(tmp_path):
    # The parse of this 220k-row, 12 MB log peaked at 3.4 times the file's
    # size in traced memory when padding a copy of the whole file, masking
    # its every byte for line ends and holding every chunk's columns beside
    # the log built from them; the bound was fixed before the first run
    # without them.
    config = SimulationConfig(seed=7)
    path = tmp_path / "transactions.csv"
    M.serialize_transactions(simulate(config).log, path)
    tracemalloc.start()
    try:
        log = M.parse_transactions(path, simulation_catalog(config))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert log.n > 200_000 and log.report.n_rejected == 0
    assert peak < 2.7 * os.path.getsize(path), f"parse peaked at {peak / os.path.getsize(path):.2f} times the file"


def test_frequent_pair_filter_memory_stays_bounded():
    # Filtering the 26k raw dyads of this 55k-row log with np.unique's
    # inverse and counts peaked at 1.52 MB of traced memory; the bound was
    # fixed before the first run of a sort and run lengths.
    log = simulate(SimulationConfig(seed=3, n_persons=500)).log
    raw = extract_dyads(reconstruct_queues(log))
    tracemalloc.start()
    try:
        kept = filter_frequent_pairs(raw)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert raw.n > 20_000 and 0 < kept.n < raw.n
    assert peak < 1.2e6, f"the filter peaked at {peak / 1e6:.2f} MB"


def test_simulate_memory_stays_bounded():
    # Simulating this 55k-row log peaked at 6.1 MB of traced memory, 5.0 MB
    # of it the log, when the bound was set; keeping every per-visit array
    # and a sorted copy of each column alive until the log was built peaked
    # at 16.4 MB.
    tracemalloc.start()
    try:
        log = simulate(SimulationConfig(seed=3, n_persons=500)).log
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert log.n > 50_000
    assert peak < 12e6, f"simulate peaked at {peak / 1e6:.1f} MB"


def test_serialize_memory_stays_bounded(tmp_path):
    # Writing this 55k-row log peaked at 5.1 MB of traced memory when the
    # bound was set; making the ids and stamps of every row up front peaked
    # at 10.7 MB, and gathering every row into one block at 21.4 MB.
    log = simulate(SimulationConfig(seed=3, n_persons=500)).log
    tracemalloc.start()
    try:
        M.serialize_transactions(log, tmp_path / "transactions.csv")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert log.n > 50_000
    assert peak < 10e6, f"serialize peaked at {peak / 1e6:.1f} MB"


@pytest.mark.parametrize("read, columns, row", [
    (lambda src: M.parse_transactions(src, CATALOG), M.TRANSACTION_COLUMNS, "T2,P1,2018-01-05T12:00:30,S1,R1,COF"),
    (lambda src: DyadSet.from_csv(src, parse_csv("T1,P1,2018-01-05T12:00:00,S1,R1,COF\n")),
     DYAD_COLUMNS, "T1,T1,S1,R1,2018-01-05,lunch,0"),
], ids=["transactions", "dyads"])
def test_unclosed_quote_names_the_record_it_opens(read, columns, row):
    # the quoted field runs past csv's field size limit many lines later
    text = ",".join(columns) + "\n" + row + '\n"open' + "\n" + row * 10_000 + "\n"
    with pytest.raises(IngestError, match="line 3: field larger than field limit"):
        read(io.StringIO(text))


def test_dump_error_names_the_line_after_a_quoted_newline():
    log = parse_csv("T1,P1,2018-01-05T12:00:00,S1,R1,COF\n")
    text = ",".join(DYAD_COLUMNS) + '\nT1,T1,"S\n1",R1,2018-01-05,lunch,0\nT1,T1,S1\n'
    with pytest.raises(IngestError, match="line 4: expected 7 fields, got 3"):
        DyadSet.from_csv(io.StringIO(text), log)


@pytest.mark.parametrize("end", [b"\n", b"\r\n", b"\r"], ids=["lf", "crlf", "cr"])
def test_not_utf8_error_counts_line_ends_as_csv_reader_does(end):
    data = end.join([b"a,b", b'"x",1', b"\xff,2", b""])
    with pytest.raises(IngestError, match="f.csv line 3: not UTF-8 text"):
        next(C._record_chunks(data, "f.csv"))


def test_rejected_record_names_its_line_after_a_quoted_newline():
    log = parse_csv(
        'T1,"P\n1",2018-01-05T09:00:00,S1,R1,COF\n'
        "T2,P2,2018-13-05T09:01:00,S1,R1,COF\n"
        "T3,P3,2018-01-05T09:02:00,S1,R1,COF\n"
    )
    assert log.n == 2
    line, msg = log.report.errors[0]
    assert line == 4 and "timestamp" in msg


def test_dyad_dump_read_memory_stays_bounded(tmp_path):
    # Reading this 16k-row dump through csv.reader, one tuple per record and
    # one str per field, peaked at 11.2 MB of traced memory; the bound was
    # fixed before the byte columns' reader first ran.
    log = simulate(SimulationConfig(seed=3, n_persons=500)).log
    rng = np.random.default_rng(5)
    partner, focal = rng.integers(0, log.n, (2, 16_384))
    dyads = DyadSet(log, partner, focal)
    dyads.to_csv(tmp_path / "dyads.csv")
    tracemalloc.start()
    try:
        back = DyadSet.from_csv(tmp_path / "dyads.csv", log)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.array_equal(back.partner_i, partner) and np.array_equal(back.focal_i, focal)
    assert np.array_equal(back.delay_s, dyads.delay_s)
    assert peak < 8e6, f"reading the dump peaked at {peak / 1e6:.1f} MB"


def test_iso_stamps_are_datetime_as_string():
    rng = np.random.default_rng(11)
    first, last = np.datetime64("0001-01-01T00:00:00", "s"), np.datetime64("9999-12-31T23:59:59", "s")
    edges = ["0001-01-01T00:00:00", "0004-02-29T12:00:00", "1600-02-29T23:59:59", "1900-02-28T23:59:59",
             "1900-03-01T00:00:00", "1969-12-31T23:59:59", "1970-01-01T00:00:00", "2000-02-29T06:07:08",
             "2024-02-29T00:00:01", "9999-12-31T23:59:59"]
    ts = np.concatenate([
        rng.integers(first.astype(np.int64), last.astype(np.int64), 50_000, endpoint=True),
        np.asarray(edges, "datetime64[s]").astype(np.int64),
        np.datetime64("1969-07-20", "s").astype(np.int64) + np.arange(86400),  # every time of day
    ])
    stamps = M.iso_stamps(ts)
    assert (stamps.lens == 19).all()
    assert np.array_equal(stamps.values, np.datetime_as_string(ts.astype("datetime64[s]"), unit="s").astype("S19"))


# fields that csv.writer quotes (",", '"', "\n"), writes bare ("\r", NUL) or
# pads, non-ASCII text, and ids that differ only in trailing NULs
CSV_FIELD = st.text(st.sampled_from(list('ab7 ,"\n\r\x00') + ["é", "\xa0"]), max_size=5)
CSV_VALUE = st.one_of(CSV_FIELD, st.sampled_from(["", "T1", "T1\x00", "T1\x00\x00", " x ", None]))


@st.composite
def csv_tables(draw):
    """(header, columns, rows): a table as `write_csv` takes it, and its
    rows as csv.writer takes them."""
    width, n = draw(st.integers(1, 4)), draw(st.integers(0, 6))
    header = draw(st.lists(CSV_FIELD, min_size=width, max_size=width))
    columns, fields = [], []
    for _ in range(width):
        kinds = ["plain", "indexed", "bytes", "int", "float"] + (["function"] if columns else [])
        kind = draw(st.sampled_from(kinds))
        if kind in ("int", "float"):
            values = np.asarray(draw(st.lists(
                st.integers(-2**63, 2**63 - 1) if kind == "int" else st.floats(width=64),
                min_size=n, max_size=n)), np.int64 if kind == "int" else np.float64)
            columns.append((values, None))
            fields.append(values.tolist())
            continue
        if kind == "plain":
            values = draw(st.lists(CSV_VALUE, min_size=n, max_size=n))
            columns.append((values, None))
            fields.append(values)
            continue
        if kind == "function":  # the fields of a slice of rows; another column gives the count
            values = draw(st.lists(CSV_VALUE.filter(lambda v: v is not None), min_size=n, max_size=n))
            columns.append((C.ByteColumn.of(values).take, None))
            fields.append(values)
            continue
        distinct = draw(st.lists(CSV_VALUE.filter(lambda v: v is not None) if kind == "bytes" else CSV_VALUE,
                                 min_size=1, max_size=4))
        index = np.asarray(draw(st.lists(st.integers(0, len(distinct) - 1), min_size=n, max_size=n)), np.int64)
        columns.append((C.ByteColumn.of(distinct) if kind == "bytes" else distinct, index))
        fields.append([distinct[k] for k in index.tolist()])
    return header, columns, [list(row) for row in zip(*fields)]


# fields whose bytes end in NUL before their separator, in every column but
# the last, of each kind of column
_NUL_ENDS = (
    ["id", "who", "at", "n"],
    [(C.ByteColumn.of(["T1\x00", "T1"]), np.array([0, 1, 0])), (["x\x00\x00", "", "\x00"], None),
     (C.ByteColumn.of(["a", "b\x00", "\x00"]).take, None), (np.array([1, -2, 3]), None)],
    [["T1\x00", "x\x00\x00", "a", 1], ["T1", "", "b\x00", -2], ["T1\x00", "\x00", "\x00", 3]],
)


@settings(max_examples=300, deadline=None)
@given(csv_tables(), st.sampled_from([1, 16, 1 << 20]))
@example(_NUL_ENDS, 1)
@example(_NUL_ENDS, 1 << 20)
def test_write_csv_writes_what_csv_writer_writes(table, block):
    header, columns, rows = table
    want = io.StringIO()
    w = csv.writer(want, lineterminator="\n")
    w.writerow(header)
    w.writerows(rows)
    got = io.StringIO()
    with mock.patch.object(C, "_WRITE_BLOCK", block), tempfile.TemporaryDirectory() as tmp:
        C.write_csv(got, header, columns)
        C.write_csv(os.path.join(tmp, "t.csv"), header, columns)
        with open(os.path.join(tmp, "t.csv"), "rb") as fh:
            written = fh.read()
    assert got.getvalue() == want.getvalue()
    assert written == want.getvalue().encode("utf-8")


def test_derived_columns():
    log = parse_csv("T1,P1,2018-03-15T12:30:45,S1,R1,MEALV\n")
    assert M.calendar_year(log.ts)[0] == 2018
    assert log.month[0] == 3
    assert log.weekday[0] == 3  # 2018-03-15 was a Thursday
    assert log.hour[0] == 12
    assert log.daypart[0] == M.Daypart.LUNCH.value
    assert log.date_ord[0] == np.datetime64("2018-03-15", "D").astype(np.int64)


# -- demographics --------------------------------------------------------------


def test_demographics_parse_and_roundtrip():
    text = (
        "person_id,gender,status,birth_year\n"
        "P1,female,student,1996\n"
        "P2,,staff,\n"
        "P3,male,,1980\n"
    )
    demo = M.Demographics.from_csv(io.StringIO(text))
    assert demo.get("P2").gender is None
    assert demo.get("P2").status == "staff"
    assert demo.get("P3").birth_year == 1980
    buf = io.StringIO()
    demo.to_csv(buf)
    assert buf.getvalue() == text


def test_demographics_bad_values():
    with pytest.raises(IngestError):
        M.Demographics.from_csv(io.StringIO("person_id,gender,status,birth_year\nP1,robot,,\n"))


def test_demographics_repeated_person_is_an_ingest_error():
    text = "person_id,gender,status,birth_year\nP1,female,student,1990\nP1,male,staff,1970\n"
    with pytest.raises(IngestError, match="demographics line 3: duplicate person_id 'P1'"):
        M.Demographics.from_csv(io.StringIO(text))


def test_demographics_birth_year_degrades():
    log = parse_csv(
        "T1,P1,2018-01-05T12:00:00,S1,R1,MEALV\n"
        "T2,P3,2018-01-05T12:00:00,S1,R1,MEALV\n"
        "T3,P3,2017-01-05T12:00:00,S1,R1,MEALV\n"
    )
    demo = M.Demographics(
        [
            M.PersonRecord("P1", "female", "student", 2020),
            M.PersonRecord("P2", None, None, 1990),
            # born after the first of two transactions, though not the last
            M.PersonRecord("P3", None, None, 2018),
        ]
    )
    out = demo.validated_against(log)
    assert out.get("P1").birth_year is None
    assert out.get("P1").status == "student"
    assert out.get("P2").birth_year == 1990
    assert out.get("P3").birth_year is None
    assert out.n_birth_year_degraded == 2


# -- catalog and demographics against a csv.reader reference -------------------


def csv_reader_outcome(path, kind):
    """What a catalog or demographics file reads as when its records come
    from `csv.reader`, one tuple per record, rather than the shared record
    loop: the catalog's `to_csv` text or the demographics' records, or the
    message of the IngestError."""
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        records = []
        try:
            records.extend(map(tuple, csv.reader(io.StringIO(C.utf8_text(path, data), newline=""))))
        except csv.Error as err:
            raise IngestError(f"{path} line {len(records) + 1}: {err}") from None
        rows = [(line, row) for line, row in enumerate(records, 1) if row]
        if kind == "catalog":
            return reference_catalog(path, rows)
        header = C.header_order(records[0] if records else M.DEMOGRAPHIC_COLUMNS, M.DEMOGRAPHIC_COLUMNS, path)
        return reference_demographics(path, [(line, row) for line, row in rows if line > 1], header)
    except IngestError as e:
        return str(e)


def reference_catalog(path, rows):
    categories = {}
    for line, row in rows:
        if line == 1 and row[0] == "item_code":
            continue
        if len(row) < 2:
            raise IngestError(f"{path} line {line}: expected item_code,category[,subtype]")
        code = row[0].strip()
        if code in categories:
            raise IngestError(f"{path} line {line}: duplicate item code {code!r}")
        try:
            categories[code] = M.ItemCategory(row[1].strip(), row[2].strip() if len(row) > 2 else None)
        except ValueError as e:
            raise IngestError(f"{path} line {line}: {e}") from None
    buf = io.StringIO()
    M.ItemCatalog(categories).to_csv(buf)
    return buf.getvalue()


def reference_demographics(path, rows, header):
    for line, row in rows:
        if len(row) != len(header):
            raise IngestError(f"{path} line {line}: expected {len(header)} fields, got {len(row)}")
    records = {}
    for line, row in rows:
        pid, gender, status, born = (row[header[c]].strip() for c in M.DEMOGRAPHIC_COLUMNS)
        where = f"{path} line {line}"
        if not pid:
            raise IngestError(f"{where}: empty person_id")
        if pid in records:
            raise IngestError(f"{where}: duplicate person_id {pid!r}")
        if gender and gender not in M.GENDERS:
            raise IngestError(f"{where}: bad gender {gender!r}")
        if status and status not in M.STATUSES:
            raise IngestError(f"{where}: bad status {status!r}")
        try:
            year = int(born) if born else None
        except ValueError:
            raise IngestError(f"{where}: bad birth_year {born!r}") from None
        records[pid] = M.PersonRecord(pid, gender or None, status or None, year)
    return [records[k] for k in sorted(records)]


def reader_outcome(path, kind):
    """The same as `csv_reader_outcome`, from the readers themselves."""
    try:
        if kind == "demographics":
            return M.Demographics.from_csv(path).records()
        buf = io.StringIO()
        M.ItemCatalog.from_csv(path).to_csv(buf)
        return buf.getvalue()
    except IngestError as e:
        return str(e)


@pytest.fixture(scope="module")
def simulated_inputs(tmp_path_factory):
    root = tmp_path_factory.mktemp("inputs")
    write_simulation(simulate(SimulationConfig(seed=3, n_persons=40, n_days=5)), root)
    return root


@pytest.mark.parametrize("kind", ["catalog", "demographics"])
@settings(max_examples=200, derandomize=True, deadline=None, database=None)
@given(damage=st.lists(DAMAGE, min_size=1, max_size=3))
def test_damaged_inputs_read_as_csv_reader_reads_them(simulated_inputs, kind, damage):
    with open(simulated_inputs / f"{kind}.csv", "rb") as fh:
        data = fh.read()
    for one in damage:
        data = damaged(data, **one)
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, f"{kind}.csv")
        with open(path, "wb") as fh:
            fh.write(data)
        assert reader_outcome(path, kind) == csv_reader_outcome(path, kind)


@pytest.mark.parametrize("kind, row", [
    ("catalog", "{},other,\n"), ("demographics", "{},female,staff,1990\n"),
], ids=["catalog", "demographics"])
def test_quote_free_inputs_take_fields_past_the_csv_field_limit(tmp_path, kind, row):
    # a quote-free ASCII file is split on its bytes, as the log and the
    # dumps are; a quoted one still goes through csv.reader and its limit
    head = "" if kind == "catalog" else ",".join(M.DEMOGRAPHIC_COLUMNS) + "\n"
    long = "x" * 200_000
    (tmp_path / "quoted.csv").write_text(head + row.format(f'"{long}"'), encoding="utf-8")
    assert "field larger than field limit" in reader_outcome(tmp_path / "quoted.csv", kind)
    (tmp_path / "bare.csv").write_text(head + row.format(long), encoding="utf-8")
    got = reader_outcome(tmp_path / "bare.csv", kind)
    assert long in got if kind == "catalog" else got[0].person_id == long
