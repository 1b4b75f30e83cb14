"""Queue reconstruction, dyad extraction, filters, ties, co-purchase tables.

A dyad is an ordered (partner, focal) pair of consecutive transactions by
different persons at one register on one date, at most ``max_gap_s`` apart,
with nobody in between.  The partner's basket is the treatment side, the
focal's the outcome side.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from . import context as ctx
from ._util import ByteColumn, Source, read_csv, write_csv
from .errors import EmptyMatrixError, IngestError
from .model import (
    ATTRIBUTE_LABELS,
    Daypart,
    ADDITION_KEYS,
    CATEGORY_BIT,
    Demographics,
    TransactionLog,
    person_attribute,
)


@dataclass
class Queues:
    """Per-(shop, register, date) transaction sequences, time-ordered."""

    log: TransactionLog
    order: np.ndarray  # row indices, grouped by queue then (ts, tx_id)
    start: np.ndarray  # queue q spans order[start[q]:start[q+1]]


def reconstruct_queues(log: TransactionLog) -> Queues:
    """Group the log into queues; within a queue sort by time then tx_id."""
    if log.n == 0:
        return Queues(log, np.empty(0, np.int64), np.zeros(1, np.int64))
    order = np.lexsort((log.tx_idx, log.ts, log.date_ord, log.register_idx, log.shop_idx))
    shop = log.shop_idx[order]
    reg = log.register_idx[order]
    day = log.date_ord[order]
    brk = (shop[1:] != shop[:-1]) | (reg[1:] != reg[:-1]) | (day[1:] != day[:-1])
    starts = np.concatenate(([0], np.nonzero(brk)[0] + 1, [log.n]))
    return Queues(log, order.astype(np.int64), starts.astype(np.int64))


DYAD_COLUMNS = ("partner_tx", "focal_tx", "shop_id", "register_id", "date", "daypart", "delay_s")


class DyadSet:
    """Columnar set of dyads over one log."""

    def __init__(
        self, log: TransactionLog, partner_i: np.ndarray, focal_i: np.ndarray, delay_s: np.ndarray
    ):
        self.log = log
        self.partner_i = partner_i.astype(np.int64)
        self.focal_i = focal_i.astype(np.int64)
        self.delay_s = delay_s.astype(np.int64)

    @property
    def n(self) -> int:
        return self.partner_i.shape[0]

    def __len__(self) -> int:
        return self.n

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
    def partner_person(self) -> np.ndarray:
        return self.log.person_idx[self.partner_i]

    @property
    def focal_person(self) -> np.ndarray:
        return self.log.person_idx[self.focal_i]

    def cell_keys(self) -> np.ndarray:
        return ctx.encode_cells(self.shop_idx, self.date_ord, self.daypart)

    def partner_has(self, category: str) -> np.ndarray:
        bit = np.uint16(CATEGORY_BIT[category])
        return ((self.log.mask[self.partner_i] >> bit) & np.uint16(1)).astype(bool)

    def focal_has(self, category: str) -> np.ndarray:
        bit = np.uint16(CATEGORY_BIT[category])
        return ((self.log.mask[self.focal_i] >> bit) & np.uint16(1)).astype(bool)

    def pair_keys(self) -> np.ndarray:
        """Unordered person-pair key per dyad."""
        a = self.partner_person.astype(np.int64)
        b = self.focal_person.astype(np.int64)
        lo = np.minimum(a, b)
        hi = np.maximum(a, b)
        return lo * len(self.log.persons) + hi

    def subset(self, sel: np.ndarray) -> "DyadSet":
        return DyadSet(self.log, self.partner_i[sel], self.focal_i[sel], self.delay_s[sel])

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
        table = read_csv(source, "dyad dump", DYAD_COLUMNS)
        delay = table.numeric("delay_s", int)
        # partner, focal, partner, focal, ... as the dump lists them
        txs = list(itertools.chain.from_iterable(zip(*map(table.column, DYAD_COLUMNS[:2]))))
        rows = log.rows_of(ByteColumn.of(txs))
        if (rows < 0).any():
            missing = txs[int(np.argmax(rows < 0))]
            raise IngestError(f"{table.name} names tx id {missing!r}, which the transaction log lacks")
        return cls(log, rows[0::2], rows[1::2], delay)


def extract_dyads(queues: Queues, max_gap_s: int = 300, require_anchor: bool = True) -> DyadSet:
    """Consecutive same-queue transactions by different persons within the gap.

    The middle of three transactions may serve as focal of one dyad and
    partner of the next.  Both sides must fall in the same studied daypart;
    with ``require_anchor`` both baskets must contain the daypart's anchor.
    """
    log = queues.log
    if log.n < 2:
        return DyadSet(log, np.empty(0, np.int64), np.empty(0, np.int64), np.empty(0, np.int64))
    order = queues.order
    a = order[:-1]
    b = order[1:]
    same_queue = np.ones(a.shape[0], bool)
    same_queue[queues.start[1:-1] - 1] = False  # boundary between queues
    gap = log.ts[b] - log.ts[a]
    keep = (
        same_queue
        & (log.person_idx[a] != log.person_idx[b])
        & (gap <= max_gap_s)
        & (log.daypart[a] == log.daypart[b])
        & (log.daypart[a] != Daypart.OUT_OF_WINDOW.value)
    )
    if require_anchor:
        anchored = log.anchor_codes() != 0
        keep &= anchored[a] & anchored[b]
    return DyadSet(log, a[keep], b[keep], gap[keep])


def filter_frequent_pairs(dyads: DyadSet, min_count: int = 10) -> DyadSet:
    """Keep dyads whose unordered person pair occurs in >= min_count dyads."""
    if dyads.n == 0 or min_count <= 1:
        return dyads
    keys = dyads.pair_keys()
    _, inv, counts = np.unique(keys, return_inverse=True, return_counts=True)
    return dyads.subset(counts[inv] >= min_count)


def select_additions(dyads: DyadSet, min_fraction: float = 0.01) -> dict[Daypart, list[str]]:
    """Addition categories whose treated fraction reaches the threshold,
    per daypart (fraction of the daypart's dyads whose partner bought it)."""
    out: dict[Daypart, list[str]] = {}
    dp = dyads.daypart
    for daypart in (Daypart.BREAKFAST, Daypart.LUNCH, Daypart.AFTERNOON):
        sel = dp == daypart.value
        total = int(sel.sum())
        if total == 0:
            continue
        chosen = []
        for key in ADDITION_KEYS:
            frac = float(dyads.partner_has(key)[sel].sum()) / total
            if frac >= min_fraction:
                chosen.append(key)
        if chosen:
            out[daypart] = chosen
    return out


def tie_strength_per_dyad(dyads: DyadSet) -> np.ndarray:
    """Tie strength of each dyad's own unordered pair: the fraction of dyads
    containing both persons among dyads containing either."""
    keys = dyads.pair_keys()
    uniq, inv, counts = np.unique(keys, return_inverse=True, return_counts=True)
    n_persons = len(dyads.log.persons)
    member = np.bincount(dyads.partner_person, minlength=n_persons) + np.bincount(
        dyads.focal_person, minlength=n_persons
    )
    lo = (uniq // n_persons).astype(np.int64)
    hi = (uniq % n_persons).astype(np.int64)
    either = member[lo] + member[hi] - counts
    return (counts / either)[inv]


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
    pl = person_attribute(dyads.log, demographics, attribute, dyads.partner_i)
    fl = person_attribute(dyads.log, demographics, attribute, dyads.focal_i)
    labels = list(ATTRIBUTE_LABELS[attribute])
    index = {lab: i for i, lab in enumerate(labels)}
    counts = np.zeros((len(labels), len(labels)), np.int64)
    skipped = 0
    for p, f in zip(pl, fl):
        if p is None or f is None:
            skipped += 1
        else:
            counts[index[f], index[p]] += 1
    used = int(counts.sum())
    if used == 0:
        raise EmptyMatrixError(f"no dyad has {attribute} resolved on both sides")
    return CoPurchaseMatrix(attribute, labels, counts * 100.0 / used, used, skipped)
