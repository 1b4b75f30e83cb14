"""Status estimation from temporal activity patterns.

Persons are described only by when they transact (volume, active span,
month/weekday/hour distributions), never by what they buy, so downstream
purchase analyses stay uncontaminated.  A small bagged decision-tree
ensemble trained on the labeled subsample votes a status for everyone else.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from ._util import run_starts
from .csvio import Source, write_csv
from .errors import InsufficientLabelsError
from .model import TransactionLog

SECONDS_PER_YEAR = 365.25 * 86400.0

FEATURE_NAMES = (
    ["total_tx", "years_active"]
    + [f"month_{m:02d}" for m in range(1, 13)]
    + ["weekday_" + d for d in ("mon", "tue", "wed", "thu", "fri", "sat", "sun")]
    + [f"hour_{h:02d}" for h in range(24)]
)
N_FEATURES = len(FEATURE_NAMES)  # 45

HOLDOUT = 0.2  # share of each class held out to measure the model
MAX_DEPTH = 12
N_CANDIDATES = 6  # features drawn at random for each split
MIN_PER_CLASS = 50  # labeled persons each class needs before training


def feature_matrix(
    log: TransactionLog, person_ids: Optional[Sequence[str]] = None
) -> tuple[list[str], np.ndarray]:
    """Feature rows for the given persons (default: everyone in the log),
    from whole-log bincounts over (person, month/weekday/hour)."""
    order, start = log.person_transactions()
    if person_ids is None:
        person_ids = log.persons
    index = {p: i for i, p in enumerate(log.persons)}
    people = np.fromiter((index.get(pid, -1) for pid in person_ids), np.int64, len(person_ids))
    n = np.diff(start)[people]
    absent = (people < 0) | (n == 0)
    if absent.any():
        raise KeyError(f"person {person_ids[int(np.argmax(absent))]!r} has no transactions")
    X = np.empty((people.shape[0], N_FEATURES))
    X[:, 0] = n
    # a person's rows run by time, so the span is the last minus the first
    X[:, 1] = (log.ts[order[start[people + 1] - 1]] - log.ts[order[start[people]]]) / SECONDS_PER_YEAR
    person = log.person_idx.astype(np.int64)
    for lo, column, width in ((2, log.month - 1, 12), (14, log.weekday, 7), (21, log.hour, 24)):
        counts = np.bincount(person * width + column, minlength=len(log.persons) * width)
        X[:, lo : lo + width] = counts.reshape(-1, width)[people] / n[:, None]
    return list(person_ids), X


# ---------------------------------------------------------------------------
# bagged trees
# ---------------------------------------------------------------------------


def _best_split(codes: np.ndarray, y: np.ndarray, n_values: np.ndarray) -> tuple[float, int, int]:
    """Best boundary over candidate features from per-value counts.

    `codes` (rows, candidates) ranks each row's value among the distinct
    values of each candidate feature, of which there are `n_values`.  A
    boundary after rank k sends the values up to k left; it counts when
    rows sit on both sides.  Returns (score, candidate, k), maximizing
    sum_side (n_side1^2 + n_side0^2) / n_side, an affine transform of the
    negated weighted Gini impurity; the first candidate, then the lowest
    rank, wins a tie.  (-inf, -1, -1) when no boundary separates rows.
    """
    m, tot1 = codes.shape[0], int(np.sum(y, dtype=np.int64))
    # the candidates' ranks laid end to end; each block before a rank holds every row once
    offset = run_starts(n_values)[:-1]
    block = np.repeat(np.arange(n_values.shape[0]), n_values)
    keys = codes + offset
    count = np.bincount(keys.ravel(), minlength=block.shape[0])
    nl = np.cumsum(count) - m * block
    c1 = np.cumsum(np.bincount(keys[y == 1].ravel(), minlength=block.shape[0])) - tot1 * block
    # a rank no row holds repeats the boundary before it
    at = np.flatnonzero((count > 0) & (nl < m))
    if not at.shape[0]:
        return (-np.inf, -1, -1)
    nl, c1 = nl[at], c1[at]
    l0 = nl - c1
    r1 = tot1 - c1
    r0 = (m - tot1) - l0
    nr = m - nl
    score = (c1 * c1 + l0 * l0) / nl + (r1 * r1 + r0 * r0) / nr
    i = int(np.argmax(score))
    f = int(block[at[i]])
    return (float(score[i]), f, int(at[i] - offset[f]))


def _grow_tree(
    codes: np.ndarray,
    values: Sequence[np.ndarray],
    y: np.ndarray,
    rows: np.ndarray,
    rng: np.random.Generator,
    min_split: int,
) -> dict:
    """One tree on rank-coded features: `codes[:, f]` ranks each training
    row's value of feature f among `values[f]`, its distinct values
    ascending.  A split threshold is the value its boundary falls after."""
    n_values = np.asarray([v.shape[0] for v in values], np.int64)
    feat, thr, left, right, label = [], [], [], [], []

    def build(rows: np.ndarray, depth: int) -> int:
        node = len(feat)
        ones = int(y[rows].sum())
        maj = 1 if ones * 2 > rows.shape[0] else 0
        feat.append(-1)
        thr.append(0.0)
        left.append(-1)
        right.append(-1)
        label.append(maj)
        if depth >= MAX_DEPTH or rows.shape[0] < min_split or ones in (0, rows.shape[0]):
            return node
        cand = rng.choice(N_FEATURES, size=N_CANDIDATES, replace=False)
        _, c, k = _best_split(codes[rows[:, None], cand], y[rows], n_values[cand])
        if c < 0:
            return node
        f = int(cand[c])
        go = codes[rows, f] <= k
        feat[node] = f
        thr[node] = float(values[f][k])
        left[node] = build(rows[go], depth + 1)
        right[node] = build(rows[~go], depth + 1)
        return node

    build(rows, 0)
    return {
        "feat": np.asarray(feat, np.int64),
        "thr": np.asarray(thr, np.float64),
        "left": np.asarray(left, np.int64),
        "right": np.asarray(right, np.int64),
        "label": np.asarray(label, np.int64),
    }


def _tree_votes(tree: dict, X: np.ndarray) -> np.ndarray:
    """Class index per row, walking all rows one level at a time."""
    n = X.shape[0]
    node = np.zeros(n, np.int64)
    rows = np.arange(n)
    feat = tree["feat"]
    while True:
        f = feat[node]
        live = f >= 0
        if not live.any():
            break
        fl = f[live]
        goes_left = X[rows[live], fl] <= tree["thr"][node[live]]
        node[live] = np.where(goes_left, tree["left"][node[live]], tree["right"][node[live]])
    return tree["label"][node]


class StatusModel:
    """Bagged binary decision trees with majority-vote prediction."""

    def __init__(self, classes: list[str], trees: list[dict]):
        self.classes = list(classes)
        self.trees = trees
        self.metrics: dict = {}  # held-out per-class precision, recall and support

    def predict(self, X: np.ndarray) -> tuple[list[str], np.ndarray]:
        """(labels, confidences); confidence is the winning vote fraction."""
        X = np.atleast_2d(np.asarray(X, np.float64))
        votes = np.zeros(X.shape[0], np.int64)
        for tree in self.trees:
            votes += _tree_votes(tree, X)
        n_trees = len(self.trees)
        second = votes * 2 > n_trees  # ties go to the first class
        labels = [self.classes[1] if s else self.classes[0] for s in second]
        conf = np.where(second, votes, n_trees - votes) / n_trees
        return labels, conf


def _per_class_metrics(y_true: np.ndarray, y_pred: np.ndarray, classes: list[str]) -> dict:
    out = {}
    for c, name in enumerate(classes):
        tp = int(((y_pred == c) & (y_true == c)).sum())
        npred = int((y_pred == c).sum())
        nactual = int((y_true == c).sum())
        out[name] = {
            "precision": tp / npred if npred else 0.0,
            "recall": tp / nactual if nactual else 0.0,
            "support": nactual,
        }
    return out


def train_status_model(
    features: np.ndarray,
    labels: Sequence[str],
    seed: int = 0,
    n_trees: int = 100,
    min_split: int = 10,
) -> StatusModel:
    """Train on a stratified split and report held-out per-class metrics."""
    X = np.asarray(features, np.float64)
    labels = list(labels)
    if X.shape[0] != len(labels):
        raise ValueError("features and labels differ in length")
    if np.isnan(X).any():
        raise ValueError("features hold NaN")
    classes = sorted(set(labels))
    if len(classes) != 2:
        raise InsufficientLabelsError(f"need exactly 2 classes, got {classes}")
    y = np.asarray([classes.index(l) for l in labels], np.uint8)
    for c, name in enumerate(classes):
        if int((y == c).sum()) < MIN_PER_CLASS:
            raise InsufficientLabelsError(
                f"class {name!r} has {(y == c).sum()} examples; need {MIN_PER_CLASS}"
            )
    rng = np.random.default_rng(int(seed))
    test_idx = []
    for c in range(2):
        rows = np.nonzero(y == c)[0]
        perm = rng.permutation(rows.shape[0])
        n_hold = max(1, int(round(HOLDOUT * rows.shape[0])))
        test_idx.append(rows[perm[:n_hold]])
    test = np.sort(np.concatenate(test_idx))
    train_mask = np.ones(X.shape[0], bool)
    train_mask[test] = False
    train = np.nonzero(train_mask)[0]

    Xt = X[train]
    yt = y[train]
    # each training value's rank among its feature's distinct values
    values, codes = zip(*(np.unique(col, return_inverse=True) for col in Xt.T))
    codes = np.stack(codes, axis=1)
    trees = []
    for _ in range(n_trees):
        boot = rng.integers(0, Xt.shape[0], Xt.shape[0])
        trees.append(_grow_tree(codes, values, yt, boot, rng, min_split))

    model = StatusModel(classes, trees)
    pred_labels, _ = model.predict(X[test])
    y_pred = np.asarray([classes.index(l) for l in pred_labels], np.uint8)
    model.metrics = _per_class_metrics(y[test], y_pred, classes)
    return model


def write_predictions_csv(
    dest: Source,
    person_ids: Sequence[str],
    labels: Sequence[str],
    confidences: Sequence[float],
) -> None:
    write_csv(dest, ("person_id", "label", "confidence"),
              [(person_ids, None), (labels, None), (np.asarray(confidences, np.float64), None)])
