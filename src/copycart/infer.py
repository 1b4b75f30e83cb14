"""Status estimation from temporal activity patterns.

Persons are described only by when they transact (volume, active span,
month/weekday/hour distributions), never by what they buy, so downstream
purchase analyses stay uncontaminated.  Two-class Gaussian naive Bayes,
trained on the labeled subsample, gives everyone else the class with the
larger posterior.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

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
VAR_SMOOTHING = 1e-9  # added to every variance, times the largest feature variance (at least 1)
MIN_PER_CLASS = 50  # labeled persons each class needs before training


def feature_matrix(log: TransactionLog, person_ids: Sequence[str]) -> tuple[list[str], np.ndarray]:
    """Feature rows for the given persons, from whole-log bincounts over
    (person, month/weekday/hour)."""
    order, start = log.person_transactions()
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
    # each whole-log column is made only when its counts are taken
    for lo, column, width in ((2, lambda: log.month - 1, 12), (14, lambda: log.weekday, 7),
                              (21, lambda: log.hour, 24)):
        key = person * width
        key += column()
        counts = np.bincount(key, minlength=len(log.persons) * width)
        X[:, lo : lo + width] = counts.reshape(-1, width)[people] / n[:, None]
    return list(person_ids), X


class StatusModel:
    """Two-class Gaussian naive Bayes: a log prior per class, and a mean and a
    variance per class and feature."""

    def __init__(self, classes: list[str], log_prior: np.ndarray, mean: np.ndarray, var: np.ndarray):
        self.classes = list(classes)
        self.log_prior = log_prior  # (2,)
        self.mean = mean  # (2, features)
        self.var = var  # (2, features), every entry positive
        self.metrics: dict = {}  # held-out per-class precision, recall and support

    def predict(self, X: np.ndarray) -> tuple[list[str], np.ndarray]:
        """(labels, confidences); confidence is the winning class's posterior."""
        X = np.atleast_2d(np.asarray(X, np.float64))
        jll = [
            self.log_prior[c]
            - 0.5 * np.sum(np.log(2.0 * np.pi * self.var[c]))
            - 0.5 * np.sum((X - self.mean[c]) ** 2 / self.var[c], axis=1)
            for c in range(2)
        ]
        d = jll[1] - jll[0]
        second = d > 0  # ties go to the first class
        labels = [self.classes[1] if s else self.classes[0] for s in second]
        # the logistic of |d|, written with tanh so that no exp underflows
        return labels, 0.5 + 0.5 * np.tanh(np.abs(d) / 2.0)


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

    Xt, yt = X[train], y[train]
    smoothing = VAR_SMOOTHING * max(float(Xt.var(axis=0).max()), 1.0)
    parts = [Xt[yt == c] for c in range(2)]
    log_prior = np.log([p.shape[0] / Xt.shape[0] for p in parts])
    mean = np.stack([p.mean(axis=0) for p in parts])
    var = np.stack([p.var(axis=0) for p in parts]) + smoothing

    model = StatusModel(classes, log_prior, mean, var)
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
