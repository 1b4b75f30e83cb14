"""Domain model: dayparts, item taxonomy, transaction log, demographics.

The log is stored column-wise (numpy arrays over interned id vocabularies)
because every downstream stage works on whole-log vectors.
"""

from __future__ import annotations

import bisect
import csv
import datetime as dt
import io
import itertools
import operator
from collections import Counter
from dataclasses import dataclass, field
from enum import IntEnum
from typing import Iterable, Iterator, Optional, Sequence

import numpy as np

from ._util import Source, header_order, read_csv, read_text, write_csv
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

_MEAL_SUBTYPES = ("vegetarian", "non_vegetarian")
_BEVERAGE_SUBTYPES = ("coffee", "tea")
_KINDS = ("anchor_meal", "anchor_beverage", "addition", "other")


@dataclass(frozen=True)
class ItemCategory:
    """Category of one item code: anchor meal/beverage, addition, or other."""

    kind: str
    subtype: Optional[str] = None

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise ValueError(f"unknown category kind {self.kind!r}")
        if self.kind == "anchor_meal" and self.subtype not in _MEAL_SUBTYPES:
            raise ValueError(f"anchor_meal subtype must be one of {_MEAL_SUBTYPES}")
        if self.kind == "anchor_beverage" and self.subtype not in _BEVERAGE_SUBTYPES:
            raise ValueError(f"anchor_beverage subtype must be one of {_BEVERAGE_SUBTYPES}")
        if self.kind == "addition" and self.subtype not in ADDITION_KEYS:
            raise ValueError(f"addition subtype must be one of {ADDITION_KEYS}")
        if self.kind == "other" and self.subtype not in (None, ""):
            object.__setattr__(self, "subtype", None)

    @property
    def mask(self) -> int:
        """Contribution of one item of this category to a basket mask."""
        if self.kind == "anchor_meal":
            bits = 1 << BIT_MEAL
            if self.subtype == "vegetarian":
                bits |= 1 << BIT_MEAL_VEG
            return bits
        if self.kind == "anchor_beverage":
            return 1 << CATEGORY_BIT[self.subtype]
        if self.kind == "addition":
            return 1 << CATEGORY_BIT[self.subtype]
        return 0


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
        cats = self._categories
        write_csv(dest, ("item_code", "category", "subtype"),
                  ([code, cats[code].kind, cats[code].subtype or ""] for code in sorted(cats)))


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

# records checked per step of the parser; bounds the field strings held at once
_PARSE_CHUNK = 1 << 16


def _parse_timestamp(text: str) -> int:
    """ISO timestamp -> epoch seconds; naive, truncated to seconds."""
    t = dt.datetime.fromisoformat(text)
    if t.tzinfo is not None:
        raise ValueError("timezone-aware timestamps are not supported")
    return int((t - _EPOCH).total_seconds())


# `YYYY-MM-DDTHH:MM:SS`, the form `serialize_transactions` writes
_STAMP_DIGITS = [0, 1, 2, 3, 5, 6, 8, 9, 11, 12, 14, 15, 17, 18]
_STAMP_SEPARATORS = {4: "-", 7: "-", 10: "T", 13: ":", 16: ":"}


def _canonical_epochs(stamps: Sequence[str]) -> tuple[np.ndarray, np.ndarray]:
    """(epoch seconds, decoded) per stamp, decoding `YYYY-MM-DDTHH:MM:SS` digits.

    A stamp of any other form, or naming no real calendar day and time, is
    left undecoded (epoch 0) for `_parse_timestamp` to judge.
    """
    n = len(stamps)
    shaped = np.fromiter(map(len, stamps), np.int64, n) == 19
    rows = np.nonzero(shaped)[0]
    picked = stamps if rows.shape[0] == n else [stamps[i] for i in rows]
    # one byte per character; "?" stands in for any character past latin-1
    text = "".join(picked).encode("latin-1", errors="replace")
    chars = np.frombuffer(text, np.uint8).reshape(-1, 19)
    digits = chars[:, _STAMP_DIGITS].astype(np.int64) - ord("0")
    ok = ((digits >= 0) & (digits <= 9)).all(axis=1)
    for col, sep in _STAMP_SEPARATORS.items():
        ok &= chars[:, col] == ord(sep)
    digits[~ok] = 0
    pairs = digits[:, 0::2] * 10 + digits[:, 1::2]
    year = pairs[:, 0] * 100 + pairs[:, 1]
    month, day, hour, minute, second = pairs[:, 2:].T
    ok &= (year >= 1) & (month >= 1) & (month <= 12) & (day >= 1)
    ok &= (hour <= 23) & (minute <= 59) & (second <= 59)
    # a real calendar day stays in its month after the round trip
    months = np.where(ok, (year - 1970) * 12 + month - 1, 0)
    days = months.astype("datetime64[M]").astype("datetime64[D]").astype(np.int64) + day - 1
    ok &= days.astype("datetime64[D]").astype("datetime64[M]").astype(np.int64) == months
    epoch = np.zeros(n, np.int64)
    decoded = np.zeros(n, bool)
    epoch[rows] = np.where(ok, days * 86400 + hour * 3600 + minute * 60 + second, 0)
    decoded[rows] = ok
    return epoch, decoded


def intern_codes(labels: Sequence[str], codes: np.ndarray) -> tuple[list[str], np.ndarray]:
    """Sorted vocabulary of the labels that `codes` uses, and each code's
    index into it.  `codes` indexes the distinct strings `labels`."""
    used = np.nonzero(np.bincount(codes, minlength=len(labels)))[0]
    names = [labels[k] for k in used.tolist()]
    perm = sorted(range(len(names)), key=names.__getitem__)
    rank = np.zeros(len(labels), np.int64)
    rank[used[perm]] = np.arange(len(perm))
    return [names[k] for k in perm], rank[codes]


def labels_at(vocab: Sequence[str], idx: np.ndarray) -> list[str]:
    """The vocabulary entry of each index, gathered in one step."""
    return np.asarray(vocab, dtype=object)[idx].tolist()


@dataclass
class IngestReport:
    n_records: int = 0
    n_parsed: int = 0
    n_rejected: int = 0
    errors: list = field(default_factory=list)  # (line, message)
    unknown_codes: Counter = field(default_factory=Counter)


# a column of interned strings: (sorted distinct values, index per row)
Interned = tuple[list[str], np.ndarray]


class TransactionLog:
    """Validated, canonically ordered transaction log.

    The constructor takes columns in any row order: int64 epoch seconds
    `ts`; the tx, person, shop and register ids, each as a sorted vocabulary
    plus an index per row; and the baskets as a table of normalized baskets
    (sorted tuples of distinct item codes) plus an index per row.  Canonical
    order is (timestamp, shop_id, register_id, tx_id), which is one lexsort
    of the indices because the vocabularies are sorted.  The catalog turns
    each basket into its category mask; the log keeps the masks, not the
    catalog.  The log is immutable after construction.
    """

    def __init__(
        self,
        ts: np.ndarray,
        tx: Interned,
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
        order = np.lexsort((tx[1], register[1], shop[1], ts))
        self.txs, self.tx_idx = tx[0], tx[1][order].astype(np.int64)
        if n:
            seen = np.bincount(self.tx_idx)
            if seen.max() > 1:
                # the most frequent id, the first in canonical order on a tie
                first = np.nonzero(seen[self.tx_idx] == seen.max())[0][0]
                raise IngestError(f"duplicate tx_id {self.txs[self.tx_idx[first]]!r}")
        self.ts = ts[order].astype(np.int64)
        self.persons, self.person_idx = person[0], person[1][order].astype(np.int32)
        self.shops, self.shop_idx = shop[0], shop[1][order].astype(np.int32)
        self.registers, self.register_idx = register[0], register[1][order].astype(np.int32)
        self.basket_table, self.basket_idx = basket[0], basket[1][order].astype(np.int64)
        table = self.basket_table
        self.mask = np.asarray([catalog.mask_of(b) for b in table], np.uint16)[self.basket_idx]
        self.basket_sizes = np.asarray([len(b) for b in table], np.int64)[self.basket_idx]
        self.report = report if report is not None else IngestReport(n_records=n, n_parsed=n)

        self.date_ord = self.ts // 86400
        self.secs = (self.ts % 86400).astype(np.int32)
        self.daypart = dayparts_of_secs_array(self.secs)
        self._person_txs: Optional[tuple[np.ndarray, np.ndarray]] = None
        self._tx_ids: Optional[np.ndarray] = None  # tx id per row, built on first use
        self._tx_rows: Optional[dict[str, int]] = None  # row per tx id, built on first use

    # -- derived columns ----------------------------------------------------

    @property
    def n(self) -> int:
        return self.ts.shape[0]

    def __len__(self) -> int:
        return self.n

    @property
    def year(self) -> np.ndarray:
        return self.ts.astype("datetime64[s]").astype("datetime64[Y]").astype(np.int64) + 1970

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

    # -- tx ids ---------------------------------------------------------------

    def tx_ids_at(self, rows: np.ndarray) -> list[str]:
        """The tx id of each given row."""
        if self._tx_ids is None:
            self._tx_ids = np.asarray(self.txs, dtype=object)[self.tx_idx]
        return self._tx_ids[rows].tolist()

    def rows_of(self, tx_ids: Sequence[str]) -> np.ndarray:
        """Row of each tx id; -1 where the log has no such transaction."""
        if self._tx_rows is None:
            self._tx_rows = dict(zip(self.tx_ids_at(np.arange(self.n)), range(self.n)))
        row = self._tx_rows
        return np.fromiter(map(row.get, tx_ids, itertools.repeat(-1)), np.int64, len(tx_ids))


class _Column:
    """A string column interned chunk by chunk; the codes index `index`'s keys."""

    def __init__(self):
        self.index: dict[str, int] = {}
        self.codes: list[np.ndarray] = []

    def add(self, values: Sequence[str]) -> None:
        index = self.index
        fresh = [v for v in dict.fromkeys(values) if v not in index]
        index.update(zip(fresh, itertools.count(len(index))))
        self.codes.append(np.fromiter(map(index.__getitem__, values), np.int64, len(values)))

    def interned(self) -> Interned:
        codes = np.concatenate(self.codes) if self.codes else np.empty(0, np.int64)
        return intern_codes(list(self.index), codes)


_ID_COLUMNS = ("tx_id", "person_id", "shop_id", "register_id")


class _ChunkParser:
    """Checks chunks of CSV records column by column and keeps the accepted
    rows as arrays and interned columns."""

    def __init__(self, catalog: ItemCatalog):
        self.catalog = catalog
        self.report = IngestReport()
        self.ids = {name: _Column() for name in _ID_COLUMNS}
        self.ts: list[np.ndarray] = []
        self.baskets: list[np.ndarray] = []
        self.basket_of: dict[str, int] = {}  # raw items field -> table index, -1 if empty
        self.table: dict[tuple[str, ...], int] = {}  # normalized basket -> table index

    def _basket_codes(self, items: Sequence[str]) -> np.ndarray:
        """Table index per raw items field; each distinct field is normalized once."""
        for raw in dict.fromkeys(items):
            if raw not in self.basket_of:
                basket = tuple(sorted({x for x in raw.split(";") if x}))
                code = self.table.setdefault(basket, len(self.table)) if basket else -1
                self.basket_of[raw] = code
        return np.fromiter(map(self.basket_of.__getitem__, items), np.int64, len(items))

    def add(self, columns: dict[str, Sequence[str]], lines: np.ndarray) -> None:
        """One chunk: `columns` maps each CSV column to its fields, `lines`
        gives each row's line number."""
        n = lines.shape[0]
        self.report.n_records += n
        fields = {name: list(map(str.strip, columns[name])) for name in _ID_COLUMNS}
        for name, values in fields.items():
            if "\r" in "".join(values):  # write_csv leaves a "\r" unquoted
                k = next(k for k, v in enumerate(values) if "\r" in v)
                raise IngestError(f"transactions CSV line {lines[k]}: carriage return in {name} {values[k]!r}")
        missing = np.zeros(n, bool)
        for values in fields.values():
            if "" in values:
                missing |= np.fromiter(map(operator.not_, values), bool, n)
        stamps = list(map(str.strip, columns["timestamp"]))
        epoch, decoded = _canonical_epochs(stamps)
        basket = self._basket_codes(columns["items"])

        # reasons in priority order: missing field, timestamp, empty basket
        rejected = dict.fromkeys(np.nonzero(missing)[0].tolist(), "missing required field")
        for i in np.nonzero(~missing & ~decoded)[0].tolist():
            try:
                epoch[i] = _parse_timestamp(stamps[i])
            except ValueError as e:
                rejected[i] = f"malformed timestamp {stamps[i]!r}: {e}"
        for i in np.nonzero(basket < 0)[0].tolist():
            rejected.setdefault(i, "empty basket")
        if rejected:
            self.report.errors += [(int(lines[i]), rejected[i]) for i in sorted(rejected)]
            self.report.n_rejected += len(rejected)
            keep = np.ones(n, bool)
            keep[list(rejected)] = False
            fields = {name: list(itertools.compress(v, keep)) for name, v in fields.items()}
            epoch, basket = epoch[keep], basket[keep]
        self.report.n_parsed += epoch.shape[0]
        for name, values in fields.items():
            self.ids[name].add(values)
        self.ts.append(epoch)
        self.baskets.append(basket)

    def log(self) -> TransactionLog:
        table = list(self.table)
        b_idx = np.concatenate(self.baskets) if self.baskets else np.empty(0, np.int64)
        for basket, count in zip(table, np.bincount(b_idx, minlength=len(table)).tolist()):
            for code in basket if count else ():
                if code not in self.catalog:
                    self.report.unknown_codes[code] += count
        return TransactionLog(
            np.concatenate(self.ts) if self.ts else np.empty(0, np.int64),
            *(self.ids[name].interned() for name in _ID_COLUMNS),
            (table, b_idx),
            self.catalog,
            self.report,
        )


def _record_chunks(text: str) -> Iterator[tuple[list[str], np.ndarray, np.ndarray]]:
    """The records of a CSV text as `csv.reader` reads them, a chunk at a time:
    (every field of the chunk in order, fields per record, blank-line mask).

    Text free of quotes, carriage returns and NULs splits into the reader's
    records on newlines and commas alone, with no Python object built per
    record; a blank line then counts one empty field.  Other text goes
    through `csv.reader`.
    """
    if '"' in text or "\r" in text or "\x00" in text:
        # newline="" splits lines as a file opened for csv does
        reader = csv.reader(io.StringIO(text, newline=""))
        while True:
            try:
                chunk = list(itertools.islice(reader, _PARSE_CHUNK))
            except csv.Error as e:
                raise IngestError(f"transactions CSV line {reader.line_num}: {e}") from None
            if not chunk:
                return
            widths = np.fromiter(map(len, chunk), np.int64, len(chunk))
            yield list(itertools.chain.from_iterable(chunk)), widths, widths == 0
    lines = text.split("\n")
    del text
    if lines[-1] == "":
        lines.pop()  # the newline that ends the last record
    while lines:
        part = lines[:_PARSE_CHUNK]
        del lines[:_PARSE_CHUNK]  # free each line once its chunk is done
        commas = np.fromiter(map(str.count, part, itertools.repeat(",")), np.int64, len(part))
        blank = np.fromiter(map(operator.not_, part), bool, len(part))
        yield ",".join(part).split(","), commas + 1, blank


def parse_transactions(
    source: Source, catalog: ItemCatalog
) -> TransactionLog:
    """Parse CSV transaction records into a validated log.

    Malformed records are rejected individually and reported with their line
    number, by the first check they fail: a missing field, then a bad
    timestamp, then an empty basket.  A duplicate tx_id, or an id holding a
    carriage return (which no CSV dump could keep), is fatal.  Item codes
    absent from the catalog degrade to the Other category and are tallied in
    the report.  Records are checked a chunk at a time, column by column;
    only timestamps not in the `YYYY-MM-DDTHH:MM:SS` form that
    `serialize_transactions` writes are parsed one by one.
    """
    name, text = read_text(source, "transactions CSV")
    chunks = _record_chunks(text)
    del text
    parser = _ChunkParser(catalog)
    header: Optional[list[str]] = None
    line = 1  # of the chunk's first record
    for fields, widths, blank in chunks:
        if header is None:
            header = [] if blank[0] else fields[: widths[0]]
            col = header_order(header, TRANSACTION_COLUMNS, name)
            width = len(header)
            fields, widths, blank = fields[widths[0] :], widths[1:], blank[1:]
            line += 1
        kept = np.nonzero(~blank)[0]  # a blank line holds no record
        lines = kept + line
        line += widths.shape[0]
        if kept.shape[0] == 0:
            continue
        if kept.shape[0] == widths.shape[0] and (widths == width).all():
            columns = [fields[k::width] for k in range(width)]
        else:
            # a record of the wrong width lacks every field
            starts = (np.cumsum(widths) - widths)[kept].tolist()
            records = [
                fields[s : s + width] if w == width else [""] * width
                for s, w in zip(starts, widths[kept].tolist())
            ]
            columns = [list(c) for c in zip(*records)]
        parser.add({c: columns[k] for c, k in col.items()}, lines)
    return parser.log()


def serialize_transactions(log: TransactionLog, dest: Source) -> None:
    """Write the log in its canonical persisted form (stable byte-for-byte)."""
    stamps = np.datetime_as_string(log.ts.astype("datetime64[s]"), unit="s").tolist()
    baskets = [";".join(b) for b in log.basket_table]
    write_csv(dest, TRANSACTION_COLUMNS, zip(
        log.tx_ids_at(np.arange(log.n)),
        labels_at(log.persons, log.person_idx),
        stamps,
        labels_at(log.shops, log.shop_idx),
        labels_at(log.registers, log.register_idx),
        labels_at(baskets, log.basket_idx),
    ))


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
        min_year = dict(zip(log.persons, log.year[first_rows].tolist()))
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
        write_csv(dest, DEMOGRAPHIC_COLUMNS, (
            [r.person_id, r.gender or "", r.status or "", r.birth_year if r.birth_year is not None else ""]
            for r in self.records()
        ))


def person_attribute(
    log: TransactionLog, demographics: Demographics, attribute: str, rows: np.ndarray
) -> list[Optional[str]]:
    """``status``, ``gender`` or ``age_tercile`` of the person at each log row.

    None where the person or the field is unknown; age is counted in the
    calendar year of the row's transaction.
    """
    if attribute not in ATTRIBUTE_LABELS:
        raise ValueError(f"unknown attribute {attribute!r}")
    years = log.year
    out: list[Optional[str]] = []
    for i in rows:
        rec = demographics.get(log.persons[log.person_idx[i]])
        if rec is None:
            out.append(None)
        elif attribute == "status":
            out.append(rec.status)
        elif attribute == "gender":
            out.append(rec.gender)
        elif rec.birth_year is None:
            out.append(None)
        else:
            out.append(AGE_TERCILES[bisect.bisect_left(AGE_CUTS, int(years[i]) - rec.birth_year)])
    return out
