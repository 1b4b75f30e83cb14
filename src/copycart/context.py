"""Environmental context: per-(shop, date, daypart) category popularity.

Popularity of a category key in a cell is the fraction of ALL transactions
in that cell whose basket contains at least one item of the category; a
category is available in the cell iff its popularity is positive.
"""

from __future__ import annotations

import numpy as np

from ._util import Source, write_csv
from .model import CATEGORY_BIT, CATEGORY_KEYS, Daypart, TransactionLog

# cell key packing: (shop_idx << 40) | (date_ord << 2) | daypart
_DATE_SHIFT = 2
_SHOP_SHIFT = 40


def encode_cells(shop_idx: np.ndarray, date_ord: np.ndarray, daypart: np.ndarray) -> np.ndarray:
    return (
        (shop_idx.astype(np.int64) << _SHOP_SHIFT)
        | (date_ord.astype(np.int64) << _DATE_SHIFT)
        | daypart.astype(np.int64)
    )


class ContextStats:
    """Popularity/availability table over (shop, date, daypart) cells."""

    def __init__(self, keys: np.ndarray, n_tx: np.ndarray, counts: np.ndarray, shops: list[str]):
        self._keys = keys  # sorted unique encoded cells
        self._n = n_tx
        self._counts = counts  # int64 [n_cells, len(CATEGORY_KEYS)]: transactions with the category
        self._shops = list(shops)

    @property
    def n_cells(self) -> int:
        return self._keys.shape[0]

    def counts_for_cells(self, cell_keys: np.ndarray, category: str) -> tuple[np.ndarray, np.ndarray]:
        """Vectorized (cell size, category count) lookup; absent cells give 0."""
        n = np.zeros(cell_keys.shape[0], np.int64)
        cnt = np.zeros(cell_keys.shape[0], np.int64)
        if self.n_cells == 0:
            return n, cnt
        pos = np.searchsorted(self._keys, cell_keys)
        pos = np.minimum(pos, self._keys.shape[0] - 1)
        hit = self._keys[pos] == cell_keys
        n[hit] = self._n[pos[hit]]
        cnt[hit] = self._counts[pos[hit], CATEGORY_BIT[category]]
        return n, cnt

    def to_csv(self, dest: Source) -> None:
        # one row per (cell, CATEGORY_KEYS entry)
        cell = np.repeat(np.arange(self.n_cells), len(CATEGORY_KEYS))
        days, day = np.unique((self._keys >> _DATE_SHIFT) & ((1 << (_SHOP_SHIFT - _DATE_SHIFT)) - 1),
                              return_inverse=True)
        popularity = (self._counts / self._n[:, None]).ravel()
        write_csv(dest, ("shop_id", "date", "daypart", "category", "popularity", "available", "n"), [
            (self._shops, (self._keys >> _SHOP_SHIFT)[cell]),
            (np.datetime_as_string(days.astype("datetime64[D]")).tolist(), day[cell]),
            ([d.label for d in Daypart], (self._keys & 3)[cell]),
            (CATEGORY_KEYS, np.tile(np.arange(len(CATEGORY_KEYS)), self.n_cells)),
            (popularity, None),
            (["false", "true"], (popularity > 0.0).astype(np.int64)),
            (self._n, cell),
        ])


def compute_context(log: TransactionLog) -> ContextStats:
    """Build the popularity table from the category masks a validated log carries."""
    if log.n == 0:
        empty = np.empty(0, np.int64)
        return ContextStats(empty, empty, np.empty((0, len(CATEGORY_KEYS)), np.int64), log.shops)
    cells = encode_cells(log.shop_idx, log.date_ord, log.daypart)
    keys, inv, n_tx = np.unique(cells, return_inverse=True, return_counts=True)
    counts = np.empty((keys.shape[0], len(CATEGORY_KEYS)), np.int64)
    for bit in CATEGORY_BIT.values():
        has = (log.mask >> np.uint16(bit)) & np.uint16(1)
        counts[:, bit] = np.bincount(inv[has.astype(bool)], minlength=keys.shape[0])
    return ContextStats(keys, n_tx.astype(np.int64), counts, log.shops)
