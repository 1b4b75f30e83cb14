"""Domain model: dayparts, item taxonomy, transaction log, demographics.

The log is stored column-wise (numpy arrays over interned id vocabularies)
because every downstream stage works on whole-log vectors.
"""

from __future__ import annotations

import csv
import datetime as dt
import io
import json
import os
from collections import Counter
from dataclasses import dataclass, field
from enum import IntEnum
from typing import Iterable, Optional, Sequence, Union

import numpy as np

from ._util import text_stream
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

    def __getitem__(self, code: str) -> ItemCategory:
        return self._categories[code]

    def __len__(self) -> int:
        return len(self._categories)

    def get(self, code: str) -> Optional[ItemCategory]:
        return self._categories.get(code)

    def codes(self) -> list[str]:
        return sorted(self._categories)

    def mask_of(self, basket: Iterable[str]) -> int:
        """Basket mask; unknown codes contribute nothing."""
        m = 0
        for code in basket:
            cat = self._categories.get(code)
            if cat is not None:
                m |= cat.mask
        return m

    @classmethod
    def from_csv(cls, source: Union[str, os.PathLike, io.TextIOBase]) -> "ItemCatalog":
        categories: dict[str, ItemCategory] = {}
        with text_stream(source) as fh:
            for lineno, row in enumerate(csv.reader(fh), start=1):
                if not row or (lineno == 1 and row[0] == "item_code"):
                    continue
                if len(row) < 2:
                    raise IngestError(f"catalog line {lineno}: expected item_code,category[,subtype]")
                code = row[0].strip()
                kind = row[1].strip()
                subtype = row[2].strip() if len(row) > 2 and row[2].strip() else None
                if code in categories:
                    raise IngestError(f"catalog line {lineno}: duplicate item code {code!r}")
                try:
                    categories[code] = ItemCategory(kind, subtype)
                except ValueError as e:
                    raise IngestError(f"catalog line {lineno}: {e}") from e
        return cls(categories)

    def to_csv(self, dest: Union[str, os.PathLike, io.TextIOBase]) -> None:
        with text_stream(dest, "w") as fh:
            w = csv.writer(fh, lineterminator="\n")
            w.writerow(["item_code", "category", "subtype"])
            for code in sorted(self._categories):
                cat = self._categories[code]
                w.writerow([code, cat.kind, cat.subtype or ""])


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


@dataclass
class IngestReport:
    n_records: int = 0
    n_parsed: int = 0
    n_rejected: int = 0
    errors: list = field(default_factory=list)  # (line, message)
    unknown_codes: Counter = field(default_factory=Counter)

    @property
    def warnings(self) -> int:
        """Number of basket entries that fell back to the Other category."""
        return int(sum(self.unknown_codes.values()))

    def to_dict(self) -> dict:
        return {
            "n_records": self.n_records,
            "n_parsed": self.n_parsed,
            "n_rejected": self.n_rejected,
            "warnings": self.warnings,
            "unknown_codes": dict(sorted(self.unknown_codes.items())),
            "errors": [{"line": l, "message": m} for l, m in self.errors],
        }


class TransactionLog:
    """Validated, canonically ordered transaction log.

    Canonical order is (timestamp, shop_id, register_id, tx_id); the log is
    immutable after construction.
    """

    def __init__(
        self,
        tx_ids: list[str],
        person_ids: list[str],
        ts: np.ndarray,
        shop_ids: list[str],
        register_ids: list[str],
        baskets: list[tuple[str, ...]],
        catalog: ItemCatalog,
        report: Optional[IngestReport] = None,
    ):
        n = len(tx_ids)
        if not (len(person_ids) == len(shop_ids) == len(register_ids) == len(baskets) == n == ts.shape[0]):
            raise ValueError("column length mismatch")
        order = sorted(
            range(n), key=lambda i: (int(ts[i]), shop_ids[i], register_ids[i], tx_ids[i])
        )
        self.tx_ids = [tx_ids[i] for i in order]
        if len(set(self.tx_ids)) != n:
            dup = Counter(self.tx_ids).most_common(1)[0][0]
            raise IngestError(f"duplicate tx_id {dup!r}")
        self.ts = np.asarray([int(ts[i]) for i in order], np.int64)
        self.baskets = [tuple(sorted(set(baskets[i]))) for i in order]

        def intern(values: list[str]) -> tuple[list[str], np.ndarray]:
            vocab = sorted(set(values))
            index = {v: k for k, v in enumerate(vocab)}
            return vocab, np.asarray([index[v] for v in values], np.int32)

        self.persons, self.person_idx = intern([person_ids[i] for i in order])
        self.shops, self.shop_idx = intern([shop_ids[i] for i in order])
        self.registers, self.register_idx = intern([register_ids[i] for i in order])
        self.catalog = catalog
        self.mask = np.asarray([catalog.mask_of(b) for b in self.baskets], np.uint16)
        self.report = report if report is not None else IngestReport(n_records=n, n_parsed=n)

        self.date_ord = self.ts // 86400
        self.secs = (self.ts % 86400).astype(np.int32)
        self.daypart = dayparts_of_secs_array(self.secs)
        self._txid_rank: Optional[np.ndarray] = None
        self._person_txs: Optional[tuple[np.ndarray, np.ndarray]] = None
        self._basket_sizes: Optional[np.ndarray] = None

    # -- derived columns ----------------------------------------------------

    @property
    def n(self) -> int:
        return len(self.tx_ids)

    def __len__(self) -> int:
        return self.n

    @property
    def txid_rank(self) -> np.ndarray:
        """Rank of each tx_id in lexicographic order (deterministic tie-break)."""
        if self._txid_rank is None:
            arr = np.asarray(self.tx_ids)
            order = np.argsort(arr, kind="stable")
            rank = np.empty(self.n, np.int64)
            rank[order] = np.arange(self.n)
            self._txid_rank = rank
        return self._txid_rank

    @property
    def basket_sizes(self) -> np.ndarray:
        if self._basket_sizes is None:
            self._basket_sizes = np.asarray([len(b) for b in self.baskets], np.int64)
        return self._basket_sizes

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

    # -- row access ----------------------------------------------------------

    def index_of(self, tx_id: str) -> int:
        if not hasattr(self, "_tx_index"):
            self._tx_index = {t: i for i, t in enumerate(self.tx_ids)}
        return self._tx_index[tx_id]


def parse_transactions(
    source: Union[str, os.PathLike, io.TextIOBase, Iterable[str]],
    catalog: ItemCatalog,
    fmt: Optional[str] = None,
) -> TransactionLog:
    """Parse CSV or JSON-lines transaction records into a validated log.

    Malformed records (bad timestamp, empty basket, missing fields) are
    rejected individually and reported with their line number; a duplicate
    tx_id is fatal.  Item codes absent from the catalog degrade to the Other
    category and are tallied in the report.
    """
    if fmt is None and isinstance(source, (str, os.PathLike)):
        suffix = str(source).lower()
        fmt = "jsonl" if suffix.endswith((".jsonl", ".ndjson", ".json")) else "csv"
    with text_stream(source) as fh:
        lines = iter(fh)
        report = IngestReport()
        tx_ids: list[str] = []
        person_ids: list[str] = []
        ts: list[int] = []
        shop_ids: list[str] = []
        register_ids: list[str] = []
        baskets: list[tuple[str, ...]] = []

        def accept(line_no, tx_id, person_id, stamp, shop_id, register_id, items):
            report.n_records += 1
            if not tx_id or not person_id or not shop_id or not register_id:
                report.n_rejected += 1
                report.errors.append((line_no, "missing required field"))
                return
            try:
                epoch = _parse_timestamp(stamp)
            except ValueError as e:
                report.n_rejected += 1
                report.errors.append((line_no, f"malformed timestamp {stamp!r}: {e}"))
                return
            basket = tuple(sorted({x for x in items if x}))
            if not basket:
                report.n_rejected += 1
                report.errors.append((line_no, "empty basket"))
                return
            for code in basket:
                if code not in catalog:
                    report.unknown_codes[code] += 1
            tx_ids.append(tx_id)
            person_ids.append(person_id)
            ts.append(epoch)
            shop_ids.append(shop_id)
            register_ids.append(register_id)
            baskets.append(basket)
            report.n_parsed += 1

        if fmt is None or fmt == "csv":
            first = next(lines, None)
            if first is None:
                content: list[str] = []
            else:
                if fmt is None:
                    fmt = "jsonl" if first.lstrip()[:1] == "{" else "csv"
                content = [first]
            content.extend(lines)
            if fmt == "jsonl":
                _parse_jsonl(content, accept)
            else:
                _parse_csv(content, accept)
        else:
            _parse_jsonl(lines, accept)

    return TransactionLog(
        tx_ids, person_ids, np.asarray(ts, np.int64), shop_ids, register_ids, baskets, catalog, report
    )


def _parse_csv(lines: Iterable[str], accept) -> None:
    reader = csv.reader(lines)
    header = next(reader, None)
    if header is None:
        return
    header = [h.strip() for h in header]
    if set(header) != set(TRANSACTION_COLUMNS):
        raise IngestError(
            f"transactions CSV header must contain exactly {TRANSACTION_COLUMNS}, got {header}"
        )
    col = {name: header.index(name) for name in TRANSACTION_COLUMNS}
    for line_no, row in enumerate(reader, start=2):
        if not row:
            continue
        if len(row) != len(header):
            accept(line_no, "", "", "", "", "", ())
            continue
        accept(
            line_no,
            row[col["tx_id"]].strip(),
            row[col["person_id"]].strip(),
            row[col["timestamp"]].strip(),
            row[col["shop_id"]].strip(),
            row[col["register_id"]].strip(),
            row[col["items"]].split(";"),
        )


def _parse_jsonl(lines: Iterable[str], accept) -> None:
    for line_no, line in enumerate(lines, start=1):
        if not line.strip():
            continue
        try:
            rec = json.loads(line)
        except json.JSONDecodeError:
            accept(line_no, "", "", "", "", "", ())
            continue
        items = rec.get("items", [])
        if not isinstance(items, list):
            items = []
        accept(
            line_no,
            str(rec.get("tx_id", "")),
            str(rec.get("person_id", "")),
            str(rec.get("timestamp", "")),
            str(rec.get("shop_id", "")),
            str(rec.get("register_id", "")),
            [str(x) for x in items],
        )


def serialize_transactions(
    log: TransactionLog, dest: Union[str, os.PathLike, io.TextIOBase], fmt: str = "csv"
) -> None:
    """Write the log in its canonical persisted form (stable byte-for-byte)."""
    with text_stream(dest, "w") as fh:
        stamps = np.datetime_as_string(log.ts.astype("datetime64[s]"), unit="s")
        if fmt == "csv":
            w = csv.writer(fh, lineterminator="\n")
            w.writerow(TRANSACTION_COLUMNS)
            for i in range(log.n):
                w.writerow(
                    [
                        log.tx_ids[i],
                        log.persons[log.person_idx[i]],
                        stamps[i],
                        log.shops[log.shop_idx[i]],
                        log.registers[log.register_idx[i]],
                        ";".join(log.baskets[i]),
                    ]
                )
        elif fmt == "jsonl":
            for i in range(log.n):
                rec = {
                    "tx_id": log.tx_ids[i],
                    "person_id": log.persons[log.person_idx[i]],
                    "timestamp": str(stamps[i]),
                    "shop_id": log.shops[log.shop_idx[i]],
                    "register_id": log.registers[log.register_idx[i]],
                    "items": list(log.baskets[i]),
                }
                fh.write(json.dumps(rec) + "\n")
        else:
            raise ValueError(f"unknown format {fmt!r}")


# ---------------------------------------------------------------------------
# demographics
# ---------------------------------------------------------------------------

_GENDERS = ("female", "male")
_STATUSES = ("student", "staff", "other")


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

    def __contains__(self, person_id: str) -> bool:
        return person_id in self._by_id

    def __len__(self) -> int:
        return len(self._by_id)

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
    def from_csv(cls, source: Union[str, os.PathLike, io.TextIOBase]) -> "Demographics":
        with text_stream(source) as fh:
            records = []
            reader = csv.reader(fh)
            header = next(reader, None)
            if header is None:
                return cls([])
            header = [h.strip() for h in header]
            want = ("person_id", "gender", "status", "birth_year")
            if set(header) != set(want):
                raise IngestError(f"demographics CSV header must contain exactly {want}")
            col = {name: header.index(name) for name in want}
            for line_no, row in enumerate(reader, start=2):
                if not row:
                    continue
                pid = row[col["person_id"]].strip()
                if not pid:
                    raise IngestError(f"demographics line {line_no}: empty person_id")
                gender = row[col["gender"]].strip() or None
                status = row[col["status"]].strip() or None
                by_text = row[col["birth_year"]].strip()
                if gender is not None and gender not in _GENDERS:
                    raise IngestError(f"demographics line {line_no}: bad gender {gender!r}")
                if status is not None and status not in _STATUSES:
                    raise IngestError(f"demographics line {line_no}: bad status {status!r}")
                birth_year = None
                if by_text:
                    try:
                        birth_year = int(by_text)
                    except ValueError:
                        raise IngestError(f"demographics line {line_no}: bad birth_year {by_text!r}")
                records.append(PersonRecord(pid, gender, status, birth_year))
        return cls(records)

    def to_csv(self, dest: Union[str, os.PathLike, io.TextIOBase]) -> None:
        with text_stream(dest, "w") as fh:
            w = csv.writer(fh, lineterminator="\n")
            w.writerow(["person_id", "gender", "status", "birth_year"])
            for r in self.records():
                w.writerow(
                    [r.person_id, r.gender or "", r.status or "", r.birth_year if r.birth_year is not None else ""]
                )


def age_tercile_label(age: int, cuts: tuple[int, int] = (22, 32)) -> str:
    lo, hi = cuts
    if age <= lo:
        return f"<={lo}"
    if age <= hi:
        return f"{lo + 1}-{hi}"
    return f">{hi}"


def person_attribute(
    log: TransactionLog,
    demographics: Demographics,
    attribute: str,
    rows: np.ndarray,
    age_cuts: tuple[int, int] = (22, 32),
) -> list[Optional[str]]:
    """``status``, ``gender`` or ``age_tercile`` of the person at each log row.

    None where the person or the field is unknown; age is counted in the
    calendar year of the row's transaction.
    """
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
            out.append(age_tercile_label(int(years[i]) - rec.birth_year, age_cuts))
    return out
