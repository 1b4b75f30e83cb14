"""Queue reconstruction, dyad extraction, filters, ties, co-purchase tables.

A dyad is an ordered (partner, focal) pair of consecutive transactions by
different persons at one register on one date, at most ``max_gap_s`` apart,
with nobody in between.  The partner's basket is the treatment side, the
focal's the outcome side.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from ._util import dense_codes, run_starts, stable_order
from .csvio import Source, read_dump, write_csv
from .errors import EmptyMatrixError, IngestError
from .model import (
    ATTRIBUTE_LABELS,
    Daypart,
    ADDITION_KEYS,
    CATEGORY_BIT,
    Demographics,
    TransactionLog,
    person_attribute,
    row_dtype,
)


@dataclass
class Queues:
    """Per-(shop, register, date) transaction sequences, time-ordered."""

    log: TransactionLog
    order: np.ndarray  # row indices, grouped by queue then (ts, tx_id)
    start: np.ndarray  # queue q spans order[start[q]:start[q+1]]


def reconstruct_queues(log: TransactionLog) -> Queues:
    """Group the log into queues, numbered by (shop, register, date); a
    stable sort keeps each queue's rows in canonical (ts, tx_id) order."""
    # numbering the (shop, register) pairs first keeps the packed key in
    # int64 however many shops and registers the log names
    till, _ = dense_codes(log.shop_idx.astype(np.int64) * len(log.registers) + log.register_idx)
    day = log.date_ord - (log.date_ord.min() if log.n else 0)
    queue, count = dense_codes(till * (int(day.max(initial=0)) + 1) + day)
    return Queues(log, stable_order(queue, count.shape[0]), run_starts(count))


DYAD_COLUMNS = ("partner_tx", "focal_tx", "shop_id", "register_id", "date", "daypart", "delay_s")


class DyadSet:
    """Columnar set of dyads over one log."""

    def __init__(self, log: TransactionLog, partner_i: np.ndarray, focal_i: np.ndarray):
        self.log = log
        self.partner_i = partner_i.astype(np.int64, copy=False)
        self.focal_i = focal_i.astype(np.int64, copy=False)
        self._pair_groups: Optional[tuple[np.ndarray, np.ndarray]] = None

    @property
    def n(self) -> int:
        return self.partner_i.shape[0]

    # cell/context attributes come from the focal transaction
    @property
    def shop_idx(self) -> np.ndarray:
        return self.log.shop_idx[self.focal_i]

    @property
    def register_idx(self) -> np.ndarray:
        return self.log.register_idx[self.focal_i]

    @property
    def date_ord(self) -> np.ndarray:
        return self.log.date_ord[self.focal_i]

    @property
    def daypart(self) -> np.ndarray:
        return self.log.daypart[self.focal_i]

    @property
    def delay_s(self) -> np.ndarray:
        """Seconds from the partner's checkout to the focal's."""
        return self.log.ts[self.focal_i] - self.log.ts[self.partner_i]

    @property
    def partner_person(self) -> np.ndarray:
        return self.log.person_idx[self.partner_i]

    @property
    def focal_person(self) -> np.ndarray:
        return self.log.person_idx[self.focal_i]

    def partner_has(self, category: str) -> np.ndarray:
        bit = np.uint16(CATEGORY_BIT[category])
        return ((self.log.mask[self.partner_i] >> bit) & np.uint16(1)).astype(bool)

    def focal_has(self, category: str) -> np.ndarray:
        bit = np.uint16(CATEGORY_BIT[category])
        return ((self.log.mask[self.focal_i] >> bit) & np.uint16(1)).astype(bool)

    def pair_groups(self) -> tuple[np.ndarray, np.ndarray]:
        """(group, size): each dyad's unordered person pair, numbered in
        (lower, higher) person order, and the number of dyads of each pair;
        built on first use."""
        if self._pair_groups is None:
            a, b = self.partner_person, self.focal_person  # gathered afresh, so free to overwrite
            key = np.minimum(a, b, dtype=np.int64)
            key *= len(self.log.persons)
            key += np.maximum(a, b, out=a)
            order = np.argsort(key)
            key.sort()  # each pair's dyads in one run
            rank = np.zeros(self.n, row_dtype(self.n))
            np.cumsum(key[1:] != key[:-1], dtype=rank.dtype, out=rank[1:])
            del key
            group = np.empty_like(rank)
            group[order] = rank
            size = np.bincount(rank)
            group.flags.writeable = size.flags.writeable = False  # every caller reads these arrays
            self._pair_groups = group, size
        return self._pair_groups

    def subset(self, sel: np.ndarray) -> "DyadSet":
        return DyadSet(self.log, self.partner_i[sel], self.focal_i[sel])

    def to_csv(self, dest: Source) -> None:
        log = self.log
        days, day = np.unique(self.date_ord, return_inverse=True)
        write_csv(dest, DYAD_COLUMNS, [
            (log.tx_ids_at(self.partner_i), None),
            (log.tx_ids_at(self.focal_i), None),
            (log.shops, self.shop_idx),
            (log.registers, self.register_idx),
            (np.datetime_as_string(days.astype("datetime64[D]")).tolist(), day),
            ([d.label for d in Daypart], self.daypart),
            (self.delay_s, None),
        ])

    @classmethod
    def from_csv(cls, source: Source, log: TransactionLog) -> "DyadSet":
        dump = read_dump(source, "dyad dump", DYAD_COLUMNS, DYAD_COLUMNS[:2])
        rows = dump.rows_in(log, DYAD_COLUMNS[:2])
        missing = np.flatnonzero((rows < 0).any(axis=0))
        if missing.shape[0]:
            k = int(missing[0])
            column = DYAD_COLUMNS[int(rows[0, k] >= 0)]  # the partner's id first, as the dump lists them
            raise IngestError(f"{dump.name} names tx id {dump.text(column, k)!r}, which the transaction log lacks")
        return cls(log, rows[0], rows[1])


def extract_dyads(queues: Queues, max_gap_s: int = 300, require_anchor: bool = True) -> DyadSet:
    """Consecutive same-queue transactions by different persons within the gap.

    The middle of three transactions may serve as focal of one dyad and
    partner of the next.  Both sides must fall in the same studied daypart;
    with ``require_anchor`` both baskets must contain the daypart's anchor.
    """
    log = queues.log
    if log.n < 2:
        return DyadSet(log, np.empty(0, np.int64), np.empty(0, np.int64))
    order = queues.order
    a = order[:-1]
    b = order[1:]
    same_queue = np.ones(a.shape[0], bool)
    same_queue[queues.start[1:-1] - 1] = False  # boundary between queues
    keep = (
        same_queue
        & (log.person_idx[a] != log.person_idx[b])
        & (log.ts[b] - log.ts[a] <= max_gap_s)
        & (log.daypart[a] == log.daypart[b])
        & (log.daypart[a] != Daypart.OUT_OF_WINDOW.value)
    )
    if require_anchor:
        anchored = log.anchor_codes() != 0
        keep &= anchored[a] & anchored[b]
    return DyadSet(log, a[keep], b[keep])


def filter_frequent_pairs(dyads: DyadSet, min_count: int = 10) -> DyadSet:
    """Keep dyads whose unordered person pair occurs in >= min_count dyads."""
    if dyads.n == 0 or min_count <= 1:
        return dyads
    group, size = dyads.pair_groups()
    return dyads.subset(size[group] >= min_count)


def select_additions(dyads: DyadSet, min_fraction: float = 0.01) -> list[str]:
    """The addition categories, sorted, whose treated fraction reaches the
    threshold in some studied daypart (the fraction of the daypart's dyads
    whose partner bought it)."""
    dp = dyads.daypart
    # dyads per studied daypart, as OUT_OF_WINDOW is the last code
    per_daypart = lambda rows: np.bincount(rows, minlength=len(Daypart))[: Daypart.OUT_OF_WINDOW]
    total = per_daypart(dp)
    seen = total > 0
    return sorted(key for key in ADDITION_KEYS
                  if (per_daypart(dp[dyads.partner_has(key)])[seen] / total[seen] >= min_fraction).any())


def tie_strength_per_dyad(dyads: DyadSet) -> np.ndarray:
    """Tie strength of each dyad's own unordered pair: the fraction of dyads
    containing both persons among dyads containing either."""
    group, size = dyads.pair_groups()
    both = size[group]
    n_persons = len(dyads.log.persons)
    member = np.bincount(dyads.partner_person, minlength=n_persons) + np.bincount(
        dyads.focal_person, minlength=n_persons
    )
    return both / (member[dyads.partner_person] + member[dyads.focal_person] - both)


@dataclass
class CoPurchaseMatrix:
    attribute: str
    labels: list[str]
    matrix: np.ndarray  # percentages, focal rows x partner columns
    n_used: int
    n_skipped: int


def co_purchase_matrix(
    dyads: DyadSet, demographics: Demographics, attribute: str
) -> CoPurchaseMatrix:
    """Frequency matrix of (focal attribute x partner attribute) over dyads,
    as percentages of all dyads where both sides are known."""
    labels = list(ATTRIBUTE_LABELS[attribute])
    k = len(labels)

    def codes(rows: np.ndarray) -> np.ndarray:  # k where the attribute is unknown
        values = person_attribute(dyads.log, demographics, attribute, rows)
        return np.select([values == label for label in labels], range(k), k)

    table = np.bincount(codes(dyads.focal_i) * (k + 1) + codes(dyads.partner_i), minlength=(k + 1) ** 2)
    counts = table.reshape(k + 1, k + 1)[:k, :k]
    used = int(counts.sum())
    if used == 0:
        raise EmptyMatrixError(f"no dyad has {attribute} resolved on both sides")
    return CoPurchaseMatrix(attribute, labels, counts * 100.0 / used, used, dyads.n - used)
