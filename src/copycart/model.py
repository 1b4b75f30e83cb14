"""Domain model: dayparts, item taxonomy, transaction log, demographics.

The log is stored column-wise (numpy arrays over interned id vocabularies)
because every downstream stage works on whole-log vectors.
"""

from __future__ import annotations

import csv
import datetime as dt
import io
import itertools
from collections import Counter
from dataclasses import dataclass, field
from enum import IntEnum
from functools import partial
from typing import Callable, Iterable, Iterator, NamedTuple, Optional

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from ._util import (ByteColumn, Source, decimal_digits, dense_codes, header_order, read_bytes, read_csv,
                    run_starts, stable_order, utf8_text, write_csv)
from .errors import IngestError

# ---------------------------------------------------------------------------
# dayparts
# ---------------------------------------------------------------------------


class Daypart(IntEnum):
    BREAKFAST = 0
    LUNCH = 1
    AFTERNOON = 2
    OUT_OF_WINDOW = 3

    @property
    def label(self) -> str:
        return _DAYPART_LABELS[self.value]


_DAYPART_LABELS = ("breakfast", "lunch", "afternoon", "out_of_window")

# studied windows in seconds of day; intervals are half-open [start, end), so
# a boundary belongs to the later window
DAYPART_WINDOWS = {
    Daypart.BREAKFAST: (6 * 3600, 11 * 3600),
    Daypart.LUNCH: (11 * 3600, 14 * 3600 + 1800),
    Daypart.AFTERNOON: (14 * 3600 + 1800, 20 * 3600),
}


def dayparts_of_secs_array(secs: np.ndarray) -> np.ndarray:
    """Int8 daypart code per seconds-of-day value; out of every window gives
    ``OUT_OF_WINDOW``."""
    out = np.full(secs.shape, Daypart.OUT_OF_WINDOW.value, np.int8)
    for daypart, (start, end) in DAYPART_WINDOWS.items():
        out[(secs >= start) & (secs < end)] = daypart.value
    return out


# ---------------------------------------------------------------------------
# item taxonomy
# ---------------------------------------------------------------------------

ADDITION_KEYS = ("condiment", "dessert", "fruit", "pastry", "salad", "soft_drink", "soup")

# analysis category keys; bit i of a basket mask says the basket contains
# at least one item of category key i
CATEGORY_KEYS = ("meal", "meal_vegetarian", "coffee", "tea") + ADDITION_KEYS
CATEGORY_BIT = {key: i for i, key in enumerate(CATEGORY_KEYS)}

BIT_MEAL = CATEGORY_BIT["meal"]
BIT_MEAL_VEG = CATEGORY_BIT["meal_vegetarian"]
BIT_COFFEE = CATEGORY_BIT["coffee"]
BIT_TEA = CATEGORY_BIT["tea"]

# the subtypes each category kind takes; any other subtype of "other" becomes None
_SUBTYPES = {"anchor_meal": ("vegetarian", "non_vegetarian"), "anchor_beverage": ("coffee", "tea"),
             "addition": ADDITION_KEYS, "other": (None, "")}


@dataclass(frozen=True)
class ItemCategory:
    """Category of one item code: anchor meal/beverage, addition, or other."""

    kind: str
    subtype: Optional[str] = None

    def __post_init__(self):
        if self.kind not in _SUBTYPES:
            raise ValueError(f"unknown category kind {self.kind!r}")
        if self.subtype not in _SUBTYPES[self.kind]:
            if self.kind != "other":
                raise ValueError(f"{self.kind} subtype must be one of {_SUBTYPES[self.kind]}")
            object.__setattr__(self, "subtype", None)

    @property
    def mask(self) -> int:
        """Contribution of one item of this category to a basket mask."""
        if self.kind == "anchor_meal":
            return 1 << BIT_MEAL | (self.subtype == "vegetarian") << BIT_MEAL_VEG
        return 0 if self.kind == "other" else 1 << CATEGORY_BIT[self.subtype]


class ItemCatalog:
    """Immutable map item code -> :class:`ItemCategory`."""

    def __init__(self, categories: dict[str, ItemCategory]):
        self._categories = dict(categories)

    def __contains__(self, code: str) -> bool:
        return code in self._categories

    def mask_of(self, basket: Iterable[str]) -> int:
        """Basket mask; unknown codes contribute nothing."""
        m = 0
        for code in basket:
            cat = self._categories.get(code)
            if cat is not None:
                m |= cat.mask
        return m

    @classmethod
    def from_csv(cls, source: Source) -> "ItemCatalog":
        """Rows `item_code,category[,subtype]`, after an optional header."""
        categories: dict[str, ItemCategory] = {}
        table = read_csv(source, "catalog")
        for k, row in enumerate(table.rows):
            if row is table.records[0] and row[0] == "item_code":  # a header on line 1
                continue
            if len(row) < 2:
                raise table.error(k, "expected item_code,category[,subtype]")
            code, kind = row[0].strip(), row[1].strip()
            subtype = row[2].strip() if len(row) > 2 and row[2].strip() else None
            if code in categories:
                raise table.error(k, f"duplicate item code {code!r}")
            try:
                categories[code] = ItemCategory(kind, subtype)
            except ValueError as e:
                raise table.error(k, str(e)) from e
        return cls(categories)

    def to_csv(self, dest: Source) -> None:
        codes = sorted(self._categories)
        cats = [self._categories[c] for c in codes]
        write_csv(dest, ("item_code", "category", "subtype"),
                  [(codes, None), ([c.kind for c in cats], None), ([c.subtype for c in cats], None)])


def anchor_code_arrays(mask: np.ndarray, daypart: np.ndarray) -> np.ndarray:
    """Int8 anchor subtype code per basket: 0 none, 1 veg meal, 2 other meal,
    3 coffee, 4 tea.

    Lunch anchors on a meal, breakfast and afternoon on coffee or tea, and
    nothing anchors out of the studied windows; a basket has its daypart's
    anchor iff its code is nonzero.  With several candidates vegetarian
    precedes other meals and coffee precedes tea.
    """
    out = np.zeros(mask.shape, np.int8)
    lunch = daypart == Daypart.LUNCH.value
    bevpart = (daypart == Daypart.BREAKFAST.value) | (daypart == Daypart.AFTERNOON.value)
    has_meal = (mask & np.uint16(1 << BIT_MEAL)) != 0
    has_veg = (mask & np.uint16(1 << BIT_MEAL_VEG)) != 0
    has_cof = (mask & np.uint16(1 << BIT_COFFEE)) != 0
    has_tea = (mask & np.uint16(1 << BIT_TEA)) != 0
    out[lunch & has_meal & has_veg] = 1
    out[lunch & has_meal & ~has_veg] = 2
    out[bevpart & has_cof] = 3
    out[bevpart & ~has_cof & has_tea] = 4
    return out


# ---------------------------------------------------------------------------
# transactions
# ---------------------------------------------------------------------------

TRANSACTION_COLUMNS = ("tx_id", "person_id", "timestamp", "shop_id", "register_id", "items")

_EPOCH = dt.datetime(1970, 1, 1)

# records split and checked per parser step; bounds the offsets and bytes held
_PARSE_CHUNK = 1 << 14

# the ASCII bytes that `str.strip` takes off the ends of a field
_SPACE = np.isin(np.arange(256), [9, 10, 11, 12, 13, 28, 29, 30, 31, 32])


def _parse_timestamp(text: str) -> int:
    """ISO timestamp -> epoch seconds; naive, truncated to seconds."""
    t = dt.datetime.fromisoformat(text)
    if t.tzinfo is not None:
        raise ValueError("timezone-aware timestamps are not supported")
    return int((t - _EPOCH).total_seconds())


# `YYYY-MM-DDTHH:MM:SS`, the form `serialize_transactions` writes
_STAMP_DIGITS = [0, 1, 2, 3, 5, 6, 8, 9, 11, 12, 14, 15, 17, 18]
_STAMP_SEPARATORS = {4: "-", 7: "-", 10: "T", 13: ":", 16: ":"}


def _canonical_epochs(stamps: np.ndarray, lens: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(epoch seconds, decoded) per stamp of a byte column, decoding the
    digits of `YYYY-MM-DDTHH:MM:SS` from a (rows, 19) view.  A stamp of any
    other form, or naming no real calendar day and time, is left undecoded
    (epoch 0) for `_parse_timestamp` to judge."""
    rows = np.flatnonzero(lens == 19)
    chars = stamps[rows].astype("S19").view(np.uint8).reshape(-1, 19)
    digits = chars[:, _STAMP_DIGITS] - np.uint8(ord("0"))  # a byte below "0" wraps past 9
    ok = (digits <= 9).all(axis=1)
    for col, sep in _STAMP_SEPARATORS.items():
        ok &= chars[:, col] == ord(sep)
    digits[~ok] = 0
    pairs = (digits[:, 0::2] * 10 + digits[:, 1::2]).astype(np.int64)
    year = pairs[:, 0] * 100 + pairs[:, 1]
    month, day, hour, minute, second = pairs[:, 2:].T
    ok &= (year >= 1) & (month >= 1) & (month <= 12) & (day >= 1)
    ok &= (hour <= 23) & (minute <= 59) & (second <= 59)
    # a real calendar day stays in its month after the round trip
    months = np.where(ok, (year - 1970) * 12 + month - 1, 0)
    days = months.astype("datetime64[M]").astype("datetime64[D]").astype(np.int64) + day - 1
    ok &= days.astype("datetime64[D]").astype("datetime64[M]").astype(np.int64) == months
    epoch, decoded = np.zeros(lens.shape, np.int64), np.zeros(lens.shape, bool)
    epoch[rows] = np.where(ok, days * 86400 + hour * 3600 + minute * 60 + second, 0)
    decoded[rows] = ok
    return epoch, decoded


def _distinct(values: np.ndarray, lens: np.ndarray) -> tuple[ByteColumn, np.ndarray, np.ndarray]:
    """(distinct, codes, first) of a byte column: its distinct fields in code
    point order, each row's index into them, and the row where each first
    occurs.  Rows sort stably by their bytes, which keeps that
    order in UTF-8, then by length, since a tie differs only in trailing NULs."""
    n = lens.shape[0]
    key = values.view(np.uint8).reshape(n, values.itemsize)
    if (lens != np.strings.str_len(values)).any():  # a field ends in NUL, as the padding does
        size = (int(lens.max()).bit_length() + 7) // 8
        key = np.hstack((key, lens.astype(">u8").view(np.uint8).reshape(n, 8)[:, 8 - size :]))
    order = np.lexsort(key.T[::-1])  # a radix pass per byte column
    rows = key[order].view(f"V{key.shape[1]}")[:, 0]
    new = np.ones(n, bool)
    new[1:] = rows[1:] != rows[:-1]
    codes = np.empty(n, np.int64)
    codes[order] = np.cumsum(new) - 1
    first = order[new]
    return ByteColumn(values[first], lens[first]), codes, first


def iso_stamps(ts: np.ndarray) -> ByteColumn:
    """`YYYY-MM-DDTHH:MM:SS` of each epoch second in years 1 to 9999: one
    `datetime_as_string` per distinct day, and the time from its digits."""
    days, secs = np.divmod(ts, 86400)
    distinct, day = np.unique(days, return_inverse=True)
    dates = np.datetime_as_string(distinct.astype("datetime64[D]")).astype("S10")
    out = np.empty((ts.shape[0], 19), np.uint8)
    out[:, :10] = dates.view(np.uint8).reshape(-1, 10)[day]
    out[:, 10:] = np.frombuffer(b"T00:00:00", np.uint8)
    hhmmss = secs // 3600 * 10000 + secs // 60 % 60 * 100 + secs % 60
    out[:, [11, 12, 14, 15, 17, 18]] = decimal_digits(hhmmss, 6)
    return ByteColumn(out.view("S19")[:, 0], np.full(ts.shape[0], 19))


@dataclass
class IngestReport:
    n_records: int = 0
    n_parsed: int = 0
    n_rejected: int = 0
    errors: list = field(default_factory=list)  # (line, message)
    unknown_codes: Counter = field(default_factory=Counter)


# a column of interned strings: (sorted distinct values, index per row)
Interned = tuple[list[str], np.ndarray]


class CellIndex(NamedTuple):
    """A log's rows by (shop, date, daypart) cell, the cells numbered in that
    order; `TransactionLog.cell_index` builds it once per log."""

    cell: np.ndarray  # the cell of each row
    order: np.ndarray  # rows grouped by cell, ascending within a cell
    start: np.ndarray  # cell c holds order[start[c]:start[c + 1]]
    position: np.ndarray  # each row's place among its cell's rows in `order`
    by_person: np.ndarray  # rows in (cell, person, row) order
    group: np.ndarray  # each row's (cell, person) group, numbered in that order
    group_start: np.ndarray  # group g holds by_person[group_start[g]:group_start[g + 1]]


def calendar_year(ts: np.ndarray) -> np.ndarray:
    """The calendar year of each epoch second."""
    return ts.astype("datetime64[s]").astype("datetime64[Y]").astype(np.int64) + 1970


def _ascending(keys: tuple[np.ndarray, ...]) -> bool:
    """Whether the rows already sort by the key columns, most significant
    first: each row is past its predecessor on some key and equal on every
    key before it, or equal on all."""
    later, tie = np.zeros(max(keys[0].shape[0] - 1, 0), bool), True
    for key in keys:
        later |= tie & (key[1:] > key[:-1])
        tie = tie & (key[1:] == key[:-1])
    return bool((later | tie).all())


class TransactionLog:
    """Validated, canonically ordered transaction log.

    The constructor takes columns in any row order: int64 epoch seconds
    `ts`; the tx, person, shop and register ids, each as a sorted vocabulary
    (a byte column for the tx ids, str for the others) plus an index per
    row; and the baskets as a table of normalized baskets (sorted tuples of
    distinct item codes) plus an index per row.  Canonical order is
    (timestamp, shop_id, register_id, tx_id), one lexsort of the indices as
    the vocabularies are sorted; columns already in it, as one comparison of
    adjacent rows finds, are kept, not copied.
    The catalog turns each basket into its category mask; the log keeps the
    masks, not the catalog.  The log is immutable after construction.
    """

    def __init__(
        self,
        ts: np.ndarray,
        tx: tuple[ByteColumn, np.ndarray],
        person: Interned,
        shop: Interned,
        register: Interned,
        basket: tuple[list[tuple[str, ...]], np.ndarray],
        catalog: ItemCatalog,
        report: Optional[IngestReport] = None,
    ):
        n = ts.shape[0]
        if not all(col[1].shape[0] == n for col in (tx, person, shop, register, basket)):
            raise ValueError("column length mismatch")
        keys = (ts, shop[1], register[1], tx[1])
        order = slice(None) if _ascending(keys) else np.lexsort(keys[::-1])
        self.txs, self.tx_idx = tx[0], tx[1][order].astype(np.int64, copy=False)
        if n:
            seen = np.bincount(self.tx_idx)
            if seen.max() > 1:
                # the most frequent id, the first in canonical order on a tie
                first = np.nonzero(seen[self.tx_idx] == seen.max())[0][0]
                raise IngestError(f"duplicate tx_id {self.txs.take([self.tx_idx[first]]).texts()[0]!r}")
        self.ts = ts[order].astype(np.int64, copy=False)
        self.persons, self.person_idx = person[0], person[1][order].astype(np.int32, copy=False)
        self.shops, self.shop_idx = shop[0], shop[1][order].astype(np.int32, copy=False)
        self.registers, self.register_idx = register[0], register[1][order].astype(np.int32, copy=False)
        self.basket_table, self.basket_idx = basket[0], basket[1][order].astype(np.int64, copy=False)
        table = self.basket_table
        self.mask = np.asarray([catalog.mask_of(b) for b in table], np.uint16)[self.basket_idx]
        self.basket_sizes = np.asarray([len(b) for b in table], np.int64)[self.basket_idx]
        self.report = report if report is not None else IngestReport(n_records=n, n_parsed=n)
        self.date_ord = self.ts // 86400
        self.secs = (self.ts % 86400).astype(np.int32)
        self.daypart = dayparts_of_secs_array(self.secs)
        self._person_txs: Optional[tuple[np.ndarray, np.ndarray]] = None
        self._cells: Optional[CellIndex] = None
        self._anchor_codes: Optional[np.ndarray] = None

    # -- derived columns ----------------------------------------------------

    @property
    def n(self) -> int:
        return self.ts.shape[0]

    def __len__(self) -> int:
        return self.n

    @property
    def month(self) -> np.ndarray:
        return self.ts.astype("datetime64[s]").astype("datetime64[M]").astype(np.int64) % 12 + 1

    @property
    def weekday(self) -> np.ndarray:
        return ((self.date_ord + 3) % 7).astype(np.int64)  # 1970-01-01 was a Thursday

    @property
    def hour(self) -> np.ndarray:
        return (self.secs // 3600).astype(np.int64)

    def person_transactions(self) -> tuple[np.ndarray, np.ndarray]:
        """(order, start): rows sorted by (person, ts); start[p]..start[p+1]
        slices the rows of person p."""
        if self._person_txs is None:
            order = np.lexsort((self.ts, self.person_idx))
            start = np.searchsorted(self.person_idx[order], np.arange(len(self.persons) + 1))
            self._person_txs = (order, start)
        return self._person_txs

    def cell_index(self) -> CellIndex:
        """The rows by (shop, date, daypart) cell, built on first use; two
        threads that both find it missing build the same arrays."""
        if self._cells is None:
            row = np.int32 if self.n < 2**31 else np.int64  # halves the index held
            day = self.date_ord - (self.date_ord.min() if self.n else 0)
            span = int(day.max(initial=0)) + 1
            cell, count = dense_codes((self.shop_idx.astype(np.int64) * span + day) * 4 + self.daypart)
            cell = cell.astype(row)
            start = run_starts(count)
            order = stable_order(cell, count.shape[0]).astype(row)
            position = np.empty(self.n, row)
            position[order] = np.arange(self.n) - np.repeat(start[:-1], count)
            by_person = stable_order(self.person_idx, len(self.persons))
            by_person = by_person[stable_order(cell[by_person], count.shape[0])].astype(row)
            new = np.ones(self.n, bool)
            cells, persons = cell[by_person], self.person_idx[by_person]
            new[1:] = (cells[1:] != cells[:-1]) | (persons[1:] != persons[:-1])
            group = np.empty(self.n, row)
            group[by_person] = np.cumsum(new) - 1
            group_start = np.append(np.flatnonzero(new), self.n).astype(row)
            self._cells = CellIndex(cell, order, start, position, by_person, group, group_start)
        return self._cells

    def anchor_codes(self) -> np.ndarray:
        """`anchor_code_arrays` of every row, computed on first use."""
        if self._anchor_codes is None:
            self._anchor_codes = anchor_code_arrays(self.mask, self.daypart)
        return self._anchor_codes

    # -- tx ids ---------------------------------------------------------------

    def tx_ids_at(self, rows: np.ndarray) -> ByteColumn:
        """The tx id of each given row."""
        return self.txs.take(self.tx_idx[rows])

    def rows_of(self, tx_ids: ByteColumn) -> np.ndarray:
        """Row of each tx id; -1 where the log has no such transaction."""
        values, lens = self.txs
        code, found = np.searchsorted(values, tx_ids.values), np.full(tx_ids.lens.shape, -1)
        todo = np.flatnonzero(code < values.shape[0])
        while todo.shape[0]:  # ids that differ only in trailing NULs sit together, shortest first
            todo = todo[values[code[todo]] == tx_ids.values[todo]]
            hit = lens[code[todo]] == tx_ids.lens[todo]
            found[todo[hit]] = code[todo[hit]]
            code[todo] += 1
            todo = todo[~hit & (code[todo] < values.shape[0])]
        row = np.full(self.n + 1, -1)  # the last entry answers for a missing id
        row[self.tx_idx] = np.arange(self.n)
        return row[found]


_ID_COLUMNS = ("tx_id", "person_id", "shop_id", "register_id")


class _ChunkParser:
    """Checks chunks of records column by column and keeps the accepted
    rows' timestamps, basket codes and id byte columns."""

    def __init__(self, catalog: ItemCatalog):
        self.catalog, self.report = catalog, IngestReport()
        self.ids = {name: [(np.empty(0, "S1"), np.empty(0, np.int64))] for name in _ID_COLUMNS}
        self.ts, self.baskets = [np.empty(0, np.int64)], [np.empty(0, np.int64)]
        self.table: dict[tuple[str, ...], int] = {}  # normalized basket -> table index

    def _basket_codes(self, items: ByteColumn) -> np.ndarray:
        """Table index per row, -1 for an empty basket; each distinct items
        field is normalized once, in the order the fields first occur."""
        distinct, codes, first = _distinct(*items)
        raw = distinct.texts()
        code = np.empty(first.shape[0], np.int64)
        for k in np.argsort(first).tolist():
            basket = tuple(sorted({x for x in raw[k].split(";") if x}))
            code[k] = self.table.setdefault(basket, len(self.table)) if basket else -1
        return code[codes]

    def add(self, columns: dict[str, ByteColumn], lines: np.ndarray) -> None:
        """One chunk: `columns` maps each CSV column to its byte column,
        `lines` gives each row's line number."""
        n = lines.shape[0]
        self.report.n_records += n
        ids = {name: columns[name] for name in _ID_COLUMNS}
        missing = np.zeros(n, bool)
        for name, (values, lens) in ids.items():
            cr = values.view(np.uint8).reshape(n, -1) == ord("\r")
            if cr.any():  # write_csv leaves a "\r" unquoted
                k = cr.any(axis=1).nonzero()[0][:1]
                raise IngestError(f"transactions CSV line {lines[k[0]]}: carriage return in "
                                  f"{name} {ByteColumn(values[k], lens[k]).texts()[0]!r}")
            missing |= lens == 0
        stamps, stamp_lens = columns["timestamp"]
        epoch, decoded = _canonical_epochs(stamps, stamp_lens)
        basket = self._basket_codes(columns["items"])
        # reasons in priority order: missing field, timestamp, empty basket
        rejected = dict.fromkeys(np.flatnonzero(missing).tolist(), "missing required field")
        odd = np.flatnonzero(~missing & ~decoded)
        for i, stamp in zip(odd.tolist(), ByteColumn(stamps[odd], stamp_lens[odd]).texts()):
            try:
                epoch[i] = _parse_timestamp(stamp)
            except ValueError as e:
                rejected[i] = f"malformed timestamp {stamp!r}: {e}"
        for i in np.flatnonzero(basket < 0).tolist():
            rejected.setdefault(i, "empty basket")
        self.report.errors += [(int(lines[i]), rejected[i]) for i in sorted(rejected)]
        self.report.n_rejected += len(rejected)
        self.report.n_parsed += n - len(rejected)
        keep = np.ones(n, bool)
        keep[list(rejected)] = False
        for name, (values, lens) in ids.items():
            self.ids[name].append((values[keep], lens[keep]))
        self.ts.append(epoch[keep])
        self.baskets.append(basket[keep])

    def log(self) -> TransactionLog:
        table = list(self.table)
        b_idx = np.concatenate(self.baskets)
        for basket, count in zip(table, np.bincount(b_idx, minlength=len(table)).tolist()):
            for code in basket if count else ():
                if code not in self.catalog:
                    self.report.unknown_codes[code] += count
        tx, *ids = [_distinct(*map(np.concatenate, zip(*self.ids[name])))[:2] for name in _ID_COLUMNS]
        ids = [(distinct.texts(), codes) for distinct, codes in ids]
        return TransactionLog(np.concatenate(self.ts), tx, *ids, (table, b_idx), self.catalog, self.report)


def _byte_column(buf: np.ndarray, starts: np.ndarray, stops: np.ndarray,
                 idx: np.ndarray, strip: bool) -> ByteColumn:
    """The fields [start, stop) of `buf` numbered `idx`, gathered from a
    strided view of `buf`; `strip` moves both offsets past ASCII whitespace."""
    s, e = starts[idx], stops[idx]
    for edge, step, at in ((s, 1, 0), (e, -1, -1)) if strip else ():
        rows = np.flatnonzero((s < e) & _SPACE[buf[edge + at]])
        while rows.shape[0]:
            edge[rows] += step
            rows = rows[(s[rows] < e[rows]) & _SPACE[buf[edge[rows] + at]]]
    lens = e - s
    width = max(int(lens.max(initial=0)), 1)
    values = sliding_window_view(buf, width)[s]
    short = np.flatnonzero(lens < width)  # the rows whose window runs past the field
    values[short] *= np.arange(width) < lens[short, None]
    return ByteColumn(values.view(f"S{width}")[:, 0], lens)


def _str_column(fields: list[str], idx: np.ndarray, strip: bool) -> ByteColumn:
    """The fields numbered `idx`, `str.strip`ped if `strip`, as a byte column."""
    return ByteColumn.of([fields[i].strip() if strip else fields[i] for i in idx.tolist()])


def _record_chunks(data: bytes, name: str) -> Iterator[tuple[Callable, np.ndarray, np.ndarray]]:
    """The records of CSV bytes as `csv.reader` reads them, a chunk at a time:
    (column, fields per record, blank-line mask), where `column(idx, strip)`
    gives the chunk's fields numbered `idx` (-1 is an empty field) as a byte
    column, stripped as `str.strip` does if `strip`.  ASCII text free of
    quotes, carriage returns and NULs is split on its bytes: a record ends at
    a newline, a field at a comma, and a blank line counts one empty field.
    Other text is decoded from UTF-8 (else an IngestError names the file
    `name` and the line) and goes through `csv.reader`.
    """
    if not data.isascii() or b'"' in data or b"\r" in data or b"\x00" in data:
        # newline="" splits lines as a file opened for csv does
        reader = csv.reader(io.StringIO(utf8_text(name, data), newline=""))
        del data
        while True:
            try:
                chunk = list(itertools.islice(reader, _PARSE_CHUNK))
            except csv.Error as e:
                raise IngestError(f"transactions CSV line {reader.line_num}: {e}") from None
            if not chunk:
                return
            widths = np.fromiter(map(len, chunk), np.int64, len(chunk))
            yield partial(_str_column, [*itertools.chain.from_iterable(chunk), ""]), widths, widths == 0
    ends = np.flatnonzero(np.frombuffer(data, np.uint8) == ord("\n"))
    if not data.endswith(b"\n") and data:
        ends = np.append(ends, len(data))  # the last record lacks its newline
    # a newline there, then room for a window as wide as any line
    pad = bytes(int(np.diff(ends, prepend=-1).max(initial=0)))
    buf = np.frombuffer(b"".join((data, b"\n", pad)), np.uint8)
    del data
    for a in range(0, ends.shape[0], _PARSE_CHUNK):
        lo, hi = (ends[a - 1] + 1 if a else 0), ends[a : a + _PARSE_CHUNK][-1] + 1
        stops = np.flatnonzero((buf[lo:hi] == ord(",")) | (buf[lo:hi] == ord("\n"))) + lo
        last = np.flatnonzero(buf[stops] == ord("\n"))  # each record's last field
        widths = np.diff(last, prepend=-1)
        starts, stops = np.append(lo, stops + 1), np.append(stops, hi)  # field -1 is empty
        blank = (widths == 1) & (starts[last] == stops[last])
        yield partial(_byte_column, buf, starts, stops), widths, blank


def parse_transactions(source: Source, catalog: ItemCatalog) -> TransactionLog:
    """Parse CSV transaction records into a validated log.

    Malformed records are rejected individually and reported with their line
    number, by the first check they fail: a missing field, then a bad
    timestamp, then an empty basket.  A duplicate tx_id, or an id holding a
    carriage return (which no CSV dump could keep), is fatal.  Item codes
    absent from the catalog degrade to the Other category and are tallied in
    the report.  Records are checked a chunk at a time, column by column.
    """
    name, data = read_bytes(source, "transactions CSV")
    chunks = _record_chunks(data, name)
    del data
    parser = _ChunkParser(catalog)
    header: Optional[list[str]] = None
    line = 1  # of the chunk's first record
    for column, widths, blank in chunks:
        first = np.cumsum(widths) - widths  # each record's first field
        if header is None:
            header = [] if blank[0] else column(np.arange(widths[0]), False).texts()
            col = header_order(header, TRANSACTION_COLUMNS, name)
            first, widths, blank = first[1:], widths[1:], blank[1:]
            line += 1
        kept = np.flatnonzero(~blank)  # a blank line holds no record
        lines = kept + line
        line += widths.shape[0]
        if kept.shape[0]:  # a record of the wrong width lacks every field
            first = np.where(widths[kept] == len(col), first[kept], -1)
            parser.add({c: column(np.where(first < 0, -1, first + k), c != "items")
                        for c, k in col.items()}, lines)
    column = None  # frees the split text before the log is built
    return parser.log()


def serialize_transactions(log: TransactionLog, dest: Source) -> None:
    """Write the log in its canonical persisted form (stable byte-for-byte)."""
    write_csv(dest, TRANSACTION_COLUMNS, [  # ids and stamps made a block of rows at a time
        (log.tx_ids_at, None),
        (log.persons, log.person_idx),
        (lambda rows: iso_stamps(log.ts[rows]), None),
        (log.shops, log.shop_idx),
        (log.registers, log.register_idx),
        ([";".join(b) for b in log.basket_table], log.basket_idx),
    ])


# ---------------------------------------------------------------------------
# demographics
# ---------------------------------------------------------------------------

DEMOGRAPHIC_COLUMNS = ("person_id", "gender", "status", "birth_year")
GENDERS = ("female", "male")
STATUSES = ("student", "staff", "other")
STUDIED_STATUSES = STATUSES[:2]  # the two the status model tells apart
AGE_CUTS = (22, 32)  # the paper's age terciles: <=22, 23-32 and >32 years
AGE_TERCILES = (f"<={AGE_CUTS[0]}", f"{AGE_CUTS[0] + 1}-{AGE_CUTS[1]}", f">{AGE_CUTS[1]}")
# each person attribute and the labels it takes, in display order
ATTRIBUTE_LABELS = {"gender": GENDERS, "status": STATUSES, "age_tercile": AGE_TERCILES}


@dataclass(frozen=True)
class PersonRecord:
    person_id: str
    gender: Optional[str] = None
    status: Optional[str] = None
    birth_year: Optional[int] = None


class Demographics:
    """Per-person covariate table; all fields optional."""

    def __init__(self, records: Iterable[PersonRecord]):
        self._by_id = {r.person_id: r for r in records}
        self.n_birth_year_degraded = 0

    def get(self, person_id: str) -> Optional[PersonRecord]:
        return self._by_id.get(person_id)

    def records(self) -> list[PersonRecord]:
        return [self._by_id[k] for k in sorted(self._by_id)]

    def status_of(self, person_id: str) -> Optional[str]:
        r = self._by_id.get(person_id)
        return r.status if r else None

    def with_status_overrides(self, overrides: dict[str, str]) -> "Demographics":
        """Copy where persons lacking a status take one from `overrides`."""
        out = []
        seen = set(self._by_id)
        for r in self._by_id.values():
            if r.status is None and r.person_id in overrides:
                r = PersonRecord(r.person_id, r.gender, overrides[r.person_id], r.birth_year)
            out.append(r)
        for pid, status in overrides.items():
            if pid not in seen:
                out.append(PersonRecord(pid, status=status))
        d = Demographics(out)
        d.n_birth_year_degraded = self.n_birth_year_degraded
        return d

    def validated_against(self, log: TransactionLog) -> "Demographics":
        """Drop birth years that would give a negative age at some transaction."""
        order, start = log.person_transactions()
        # a person's rows are sorted by time, so the first row has the first year
        first_rows = order[start[:-1]]
        min_year = dict(zip(log.persons, calendar_year(log.ts[first_rows]).tolist()))
        out = []
        degraded = 0
        for r in self._by_id.values():
            first_year = min_year.get(r.person_id)
            if r.birth_year is not None and first_year is not None and r.birth_year > first_year:
                r = PersonRecord(r.person_id, r.gender, r.status, None)
                degraded += 1
            out.append(r)
        d = Demographics(out)
        d.n_birth_year_degraded = degraded
        return d

    @classmethod
    def from_csv(cls, source: Source) -> "Demographics":
        table = read_csv(source, "demographics", DEMOGRAPHIC_COLUMNS)
        records = []
        for k, row in enumerate(zip(*map(table.column, DEMOGRAPHIC_COLUMNS))):
            pid, gender, status, by_text = (f.strip() for f in row)
            if not pid:
                raise table.error(k, "empty person_id")
            if gender and gender not in GENDERS:
                raise table.error(k, f"bad gender {gender!r}")
            if status and status not in STATUSES:
                raise table.error(k, f"bad status {status!r}")
            birth_year = None
            if by_text:
                try:
                    birth_year = int(by_text)
                except ValueError:
                    raise table.error(k, f"bad birth_year {by_text!r}") from None
            records.append(PersonRecord(pid, gender or None, status or None, birth_year))
        return cls(records)

    def to_csv(self, dest: Source) -> None:
        records = self.records()
        write_csv(dest, DEMOGRAPHIC_COLUMNS, [
            ([getattr(r, c) for r in records], None) for c in DEMOGRAPHIC_COLUMNS])


def person_attribute(
    log: TransactionLog, demographics: Demographics, attribute: str, rows: np.ndarray
) -> np.ndarray:
    """``status``, ``gender`` or ``age_tercile`` of the person at each log row,
    as an object array.

    None where the person or the field is unknown; age is counted in the
    calendar year of the row's transaction.  Each person's field is looked
    up once and gathered for the rows.
    """
    if attribute not in ATTRIBUTE_LABELS:
        raise ValueError(f"unknown attribute {attribute!r}")
    records = [demographics.get(p) for p in log.persons]
    person = log.person_idx[rows]
    if attribute != "age_tercile":
        return np.asarray([getattr(r, attribute) if r else None for r in records], object)[person]
    # a birth year past the int64 range keeps the tercile it would give
    born = [min(max(r.birth_year, -(2**62)), 2**62) if r and r.birth_year is not None else None
            for r in records]
    known = np.asarray([b is not None for b in born], bool)[person]
    age = calendar_year(log.ts[rows]) - np.asarray([b or 0 for b in born], np.int64)[person]
    tercile = np.where(known, np.searchsorted(AGE_CUTS, age, side="left"), len(AGE_TERCILES))
    return np.asarray(AGE_TERCILES + (None,), object)[tercile]
