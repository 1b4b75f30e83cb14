"""Environmental context: per-(shop, date, daypart) category popularity.

Popularity of a category key in a cell is the fraction of ALL transactions
in that cell whose basket contains at least one item of the category; a
category is available in the cell iff its popularity is positive.
"""

from __future__ import annotations

import numpy as np

from .csvio import Source, write_csv
from .model import CATEGORY_BIT, CATEGORY_KEYS, Daypart, TransactionLog

class ContextStats:
    """Popularity/availability table over the cells of a log's cell index."""

    def __init__(self, log: TransactionLog, n_tx: np.ndarray, counts: np.ndarray):
        self._log = log
        self._n = n_tx  # transactions per cell
        self._counts = counts  # int64 [n_cells, len(CATEGORY_KEYS)]: transactions with the category

    @property
    def n_cells(self) -> int:
        return self._n.shape[0]

    def counts_at(self, rows: np.ndarray, category: str) -> tuple[np.ndarray, np.ndarray]:
        """(cell size, category count) of the cell of each given row of the log."""
        cell = self._log.cell_index().cell[rows]
        return self._n[cell], self._counts[cell, CATEGORY_BIT[category]]

    def to_csv(self, dest: Source) -> None:
        # one row per (cell, CATEGORY_KEYS entry); a cell's first row names it
        log, index = self._log, self._log.cell_index()
        first = index.order[index.start[:-1]]
        cell = np.repeat(np.arange(self.n_cells), len(CATEGORY_KEYS))
        days, day = np.unique(log.date_ord[first], return_inverse=True)
        popularity = (self._counts / self._n[:, None]).ravel()
        write_csv(dest, ("shop_id", "date", "daypart", "category", "popularity", "available", "n"), [
            (log.shops, log.shop_idx[first][cell]),
            (np.datetime_as_string(days.astype("datetime64[D]")).tolist(), day[cell]),
            ([d.label for d in Daypart], log.daypart[first][cell]),
            (CATEGORY_KEYS, np.tile(np.arange(len(CATEGORY_KEYS)), self.n_cells)),
            (popularity, None),
            (["false", "true"], (popularity > 0.0).astype(np.int64)),
            (self._n, cell),
        ])


def compute_context(log: TransactionLog) -> ContextStats:
    """Count each category's transactions per cell of the log's cell index,
    from the category masks a validated log carries."""
    index = log.cell_index()
    n_cells = index.start.shape[0] - 1
    counts = np.empty((n_cells, len(CATEGORY_KEYS)), np.int64)
    for bit in CATEGORY_BIT.values():
        has = (log.mask >> np.uint16(bit)) & np.uint16(1)
        counts[:, bit] = np.bincount(index.cell[has.astype(bool)], minlength=n_cells)
    return ContextStats(log, np.diff(index.start), counts)
