"""Domain model: dayparts, item taxonomy, transaction log, demographics.

The log is stored column-wise (numpy arrays over interned id vocabularies)
because every downstream stage works on whole-log vectors.  The files these
types are read from and written to are CSV tables in the format of `csvio`.
"""

from __future__ import annotations

import datetime as dt
from collections import Counter
from dataclasses import dataclass, field
from enum import IntEnum
from typing import Iterable, NamedTuple, Optional

import numpy as np

from ._util import decimal_digits, dense_codes, run_starts, stable_order
from .csvio import ByteColumn, Source, distinct_fields, grouped_fields, read_dump, read_records, write_csv
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
        name, records = read_records(source, "catalog")
        for column, _, first, widths, lines in records:
            if lines[:1].tolist() == [1] and column(first[:1], False).texts() == ["item_code"]:  # a header
                first, widths, lines = first[1:], widths[1:], lines[1:]
            fields = [column(np.where(widths > j, first + j, -1), True).texts() for j in range(3)]
            for line, width, code, kind, subtype in zip(lines.tolist(), widths.tolist(), *fields):
                if width < 2:
                    raise IngestError(f"{name} line {line}: expected item_code,category[,subtype]")
                if code in categories:
                    raise IngestError(f"{name} line {line}: duplicate item code {code!r}")
                try:
                    categories[code] = ItemCategory(kind, subtype or None)
                except ValueError as e:
                    raise IngestError(f"{name} line {line}: {e}") from e
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


def iso_stamps(ts: np.ndarray) -> ByteColumn:
    """`YYYY-MM-DDTHH:MM:SS` of each epoch second in years 1 to 9999: one
    `datetime_as_string` per distinct day, and the time from its digits."""
    days, secs = np.divmod(ts, 86400)
    distinct, day = np.unique(days, return_inverse=True)
    dates = np.datetime_as_string(distinct.astype("datetime64[D]")).astype("S10")
    out = np.empty((ts.shape[0], 19), np.uint8)
    out[:, :10] = dates.view(np.uint8).reshape(-1, 10).take(day, axis=0)
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
    n_own: np.ndarray  # how many rows of each row's cell its person holds


def row_dtype(n: int) -> type:
    """The integer type of row numbers and per-row codes in a log of n rows:
    int32 below 2**31 rows, which halves what int64 holds."""
    return np.int32 if n < 2**31 else np.int64


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
        row = row_dtype(n)
        self.txs, self.tx_idx = tx[0], tx[1][order].astype(row, copy=False)
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
        self.basket_table, self.basket_idx = basket[0], basket[1][order].astype(row, copy=False)
        table = self.basket_table
        self.mask = np.asarray([catalog.mask_of(b) for b in table], np.uint16)[self.basket_idx]
        self.basket_sizes = np.asarray([len(b) for b in table], np.int32)[self.basket_idx]
        self.report = report if report is not None else IngestReport(n_records=n, n_parsed=n)
        self.date_ord = (self.ts // 86400).astype(np.int32)
        self.secs = (self.ts % 86400).astype(np.int32)
        self.daypart = dayparts_of_secs_array(self.secs)
        self._person_txs: Optional[tuple[np.ndarray, np.ndarray]] = None
        self._cells: Optional[CellIndex] = None
        self._anchor_codes: Optional[np.ndarray] = None

    # -- derived columns ----------------------------------------------------

    @property
    def n(self) -> int:
        return self.ts.shape[0]

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
            # the rows are in time order, so a stable sort by person keeps it
            count = np.bincount(self.person_idx, minlength=len(self.persons))
            order = stable_order(self.person_idx, len(self.persons)).astype(row_dtype(self.n))
            self._person_txs = (order, run_starts(count))
        return self._person_txs

    def cell_index(self) -> CellIndex:
        """The rows by (shop, date, daypart) cell, built on first use."""
        if self._cells is None:
            row = row_dtype(self.n)
            first = int(self.date_ord.min()) if self.n else 0
            span = int(self.date_ord.max(initial=first)) - first + 1
            cell, count = dense_codes((self.shop_idx.astype(np.int64) * span + self.date_ord - first) * 4
                                      + self.daypart)
            cell = cell.astype(row)
            start = run_starts(count)
            order = stable_order(cell, count.shape[0]).astype(row)
            # a stable sort by person lays each (cell, person) group's rows side by side
            grouped = order[stable_order(self.person_idx[order], len(self.persons))]
            new = np.ones(self.n + 1, bool)  # where each group starts in `grouped`, then the end
            new[1:-1] = np.diff(cell[grouped]) != 0
            new[1:-1] |= np.diff(self.person_idx[grouped]) != 0
            size = np.diff(np.arange(self.n + 1, dtype=row)[new])
            n_own = np.empty(self.n, row)  # each group's size by its number, not np.repeat's int64 counts
            n_own[grouped] = size[np.cumsum(new[:-1], dtype=row) - 1]
            self._cells = CellIndex(cell, order, start, n_own)
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

    def __init__(self, name: str, catalog: ItemCatalog):
        self.name, self.catalog, self.report = name, catalog, IngestReport()
        self.ids = {name: [(np.empty(0, "S1"), np.empty(0, np.uint8))] for name in _ID_COLUMNS}
        self.ts, self.baskets = [np.empty(0, np.int64)], [np.empty(0, np.int64)]
        self.table: dict[tuple[str, ...], int] = {}  # normalized basket -> table index

    def _basket_codes(self, items: ByteColumn) -> np.ndarray:
        """Table index per row, -1 for an empty basket; each distinct items
        field is normalized once, in the order the fields first occur."""
        distinct, codes, first = grouped_fields(*items)
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
                raise IngestError(f"{self.name} line {lines[k[0]]}: carriage return in "
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
        for name, (values, lens) in ids.items():  # a field is no longer than its column is wide
            self.ids[name].append((values[keep], lens[keep].astype(np.min_scalar_type(values.itemsize))))
        self.ts.append(epoch[keep])
        self.baskets.append(basket[keep])

    def log(self) -> TransactionLog:
        """The accepted rows as a log.  Each column's chunks are dropped as it
        is built, so no two whole copies of the rows are held at once."""
        table = list(self.table)
        b_idx, self.baskets = np.concatenate(self.baskets), []
        for basket, count in zip(table, np.bincount(b_idx, minlength=len(table)).tolist()):
            for code in basket if count else ():
                if code not in self.catalog:
                    self.report.unknown_codes[code] += count
        ids = []
        for name in _ID_COLUMNS:
            distinct, codes, _ = distinct_fields(*map(np.concatenate, zip(*self.ids.pop(name))))
            ids.append((distinct.texts() if name != "tx_id" else distinct, codes))
        ts, self.ts = np.concatenate(self.ts), []
        return TransactionLog(ts, *ids, (table, b_idx), self.catalog, self.report)


def parse_transactions(source: Source, catalog: ItemCatalog) -> TransactionLog:
    """Parse CSV transaction records into a validated log.

    Malformed records are rejected individually and reported with their line
    number, by the first check they fail: a missing field, then a bad
    timestamp, then an empty basket.  A duplicate tx_id, or an id holding a
    carriage return (which no CSV dump could keep), is fatal.  Item codes
    absent from the catalog degrade to the Other category and are tallied in
    the report.  Records are checked a chunk at a time, column by column.
    """
    name, records = read_records(source, "transactions CSV", TRANSACTION_COLUMNS)
    parser = _ChunkParser(name, catalog)
    for column, col, first, widths, lines in records:
        if lines.shape[0]:  # a record of the wrong width lacks every field
            first = np.where(widths == len(col), first, -1)
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
        dump = read_dump(source, "demographics", DEMOGRAPHIC_COLUMNS, DEMOGRAPHIC_COLUMNS)
        records: dict[str, PersonRecord] = {}
        fields = ([f.strip() for f in dump.columns[c].texts()] for c in DEMOGRAPHIC_COLUMNS)
        for k, (pid, gender, status, by_text) in enumerate(zip(*fields)):
            if not pid:
                raise dump.error(k, "empty person_id")
            if pid in records:
                raise dump.error(k, f"duplicate person_id {pid!r}")
            if gender and gender not in GENDERS:
                raise dump.error(k, f"bad gender {gender!r}")
            if status and status not in STATUSES:
                raise dump.error(k, f"bad status {status!r}")
            birth_year = None
            if by_text:
                try:
                    birth_year = int(by_text)
                except ValueError:
                    raise dump.error(k, f"bad birth_year {by_text!r}") from None
            records[pid] = PersonRecord(pid, gender or None, status or None, birth_year)
        return cls(records.values())

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
