"""Temporal features and the bagged-tree status classifier."""

import io

import numpy as np
import pytest

from copycart.errors import InsufficientLabelsError
from copycart.infer import (
    FEATURE_NAMES,
    N_FEATURES,
    _best_split,
    feature_matrix,
    train_status_model,
    write_predictions_csv,
)

from test_model import parse_csv


def test_feature_layout():
    assert N_FEATURES == 45
    assert FEATURE_NAMES[0] == "total_tx" and FEATURE_NAMES[1] == "years_active"
    assert FEATURE_NAMES[2] == "month_01" and FEATURE_NAMES[13] == "month_12"
    assert FEATURE_NAMES[14] == "weekday_mon" and FEATURE_NAMES[20] == "weekday_sun"
    assert FEATURE_NAMES[21] == "hour_00" and FEATURE_NAMES[44] == "hour_23"


def person_features(log, person_id):
    ids, X = feature_matrix(log, [person_id])
    assert ids == [person_id] and X.shape == (1, N_FEATURES)
    return X[0]


def test_single_transaction_features():
    log = parse_csv("T1,P,2018-03-07T12:30:00,S1,R1,MEALV\n")  # a Wednesday
    row = person_features(log, "P")
    assert row[0] == 1.0 and row[1] == 0.0
    month, weekday, hour = row[2:14], row[14:21], row[21:45]
    assert month[2] == 1.0 and month.sum() == 1.0
    assert weekday[2] == 1.0
    assert hour[12] == 1.0


def test_hand_computed_two_year_fixture():
    rows = []
    # six transactions in March 2018 (12:xx), four in July 2019 (08:xx)
    for d in range(1, 7):
        rows.append(f"A{d},P,2018-03-{d:02d}T12:05:00,S1,R1,MEALV")
    for d in range(1, 5):
        rows.append(f"B{d},P,2019-07-{d:02d}T08:40:00,S1,R1,COF")
    log = parse_csv("\n".join(rows) + "\n")
    row = person_features(log, "P")
    month, weekday, hour = row[2:14], row[14:21], row[21:45]
    assert row[0] == 10
    span_s = (np.datetime64("2019-07-04T08:40:00") - np.datetime64("2018-03-01T12:05:00")) / np.timedelta64(1, "s")
    assert row[1] == pytest.approx(float(span_s) / (365.25 * 86400))
    assert month[2] == pytest.approx(0.6)
    assert month[6] == pytest.approx(0.4)
    assert hour[12] == pytest.approx(0.6)
    assert hour[8] == pytest.approx(0.4)
    # 2018-03-01..06 = Thu..Tue, 2019-07-01..04 = Mon..Thu
    assert tuple(weekday) == pytest.approx((0.2, 0.2, 0.1, 0.2, 0.1, 0.1, 0.1))


def test_distributions_sum_to_one():
    rng = np.random.default_rng(3)
    rows = []
    for k in range(200):
        p = f"P{k % 17}"
        day = str(np.datetime64("2018-01-01") + int(rng.integers(0, 700)))
        hh = int(rng.integers(6, 20))
        rows.append(f"T{k},{p},{day}T{hh:02d}:{int(rng.integers(0, 60)):02d}:00,S1,R1,MEALV")
    log = parse_csv("\n".join(rows) + "\n")
    ids, X = feature_matrix(log)
    assert X.shape == (17, 45)
    for sl in (slice(2, 14), slice(14, 21), slice(21, 45)):
        np.testing.assert_allclose(X[:, sl].sum(axis=1), 1.0, atol=1e-9)
    with pytest.raises(KeyError):
        feature_matrix(log, ["nobody"])


def test_features_ignore_basket_content():
    a = parse_csv("T1,P,2018-03-07T12:30:00,S1,R1,MEALV\nT2,P,2018-04-07T12:30:00,S1,R1,COF\n")
    b = parse_csv("T1,P,2018-03-07T12:30:00,S1,R1,DES\nT2,P,2018-04-07T12:30:00,S1,R1,TEA;SOUP\n")
    _, Xa = feature_matrix(a)
    _, Xb = feature_matrix(b)
    np.testing.assert_array_equal(Xa, Xb)


# -- training ------------------------------------------------------------------


def signal_population(n_per_class=120, seed=0, shuffle_labels=False):
    """Distinct month/hour signatures per class plus noise columns."""
    rng = np.random.default_rng(seed)
    n = 2 * n_per_class
    X = np.zeros((n, 45))
    labels = []
    for r in range(n):
        student = r % 2 == 0
        labels.append("student" if student else "staff")
        X[r, 0] = rng.integers(20, 400)
        X[r, 1] = rng.random() * 4
        months = rng.dirichlet(np.ones(6))
        if student:
            X[r, 2:8] = months  # active in the first half-year
            X[r, 21 + 9] = 1.0
        else:
            X[r, 8:14] = months
            X[r, 21 + 15] = 1.0
        X[r, 14:21] = rng.dirichlet(np.ones(7))
    if shuffle_labels:
        labels = [labels[i] for i in rng.permutation(n)]
    return X, labels


def test_separable_population_perfect_holdout():
    X, labels = signal_population()
    model = train_status_model(X, labels, seed=5, n_trees=20)
    for cls in ("student", "staff"):
        assert model.metrics[cls]["precision"] == 1.0
        assert model.metrics[cls]["recall"] == 1.0
    assert model.classes == ["staff", "student"]
    assert len(model.trees) == 20
    got, conf = model.predict(X)
    assert got == labels
    assert np.all(conf >= 0.5) and np.all(conf <= 1.0)


def test_label_permutation_near_prior():
    X, labels = signal_population(seed=9, shuffle_labels=True)
    model = train_status_model(X, labels, seed=2, n_trees=20)
    m = model.metrics
    total = m["student"]["support"] + m["staff"]["support"]
    correct = (
        m["student"]["recall"] * m["student"]["support"]
        + m["staff"]["recall"] * m["staff"]["support"]
    )
    assert 0.3 <= correct / total <= 0.7


def test_training_requirements():
    X, labels = signal_population(n_per_class=60)
    with pytest.raises(InsufficientLabelsError):
        train_status_model(X[:80], labels[:80])  # only 40 per class
    with pytest.raises(InsufficientLabelsError):
        train_status_model(X, ["a", "b", "c"] * 40)
    with pytest.raises(ValueError):
        train_status_model(X, labels[:-1])


def test_training_deterministic():
    X, labels = signal_population(seed=4)
    a = train_status_model(X, labels, seed=11, n_trees=8)
    b = train_status_model(X, labels, seed=11, n_trees=8)
    assert same_trees(a, b)
    assert (a.classes, a.metrics) == (b.classes, b.metrics)
    c = train_status_model(X, labels, seed=12, n_trees=8)
    assert not same_trees(c, a)


def same_trees(a, b):
    return len(a.trees) == len(b.trees) and all(
        ta.keys() == tb.keys() and all(np.array_equal(ta[k], tb[k]) for k in ta)
        for ta, tb in zip(a.trees, b.trees)
    )


def test_single_tree_exemplar_confidence():
    X, labels = signal_population(seed=8)
    model = train_status_model(X, labels, seed=1, n_trees=1, min_split=2)
    got, conf = model.predict(X[:1])
    assert conf[0] == 1.0
    assert got[0] == labels[0]


def test_predict_status_on_feature_vector():
    X, labels = signal_population(seed=10)
    model = train_status_model(X, labels, seed=7, n_trees=10)
    log = parse_csv("T1,P,2018-03-07T09:30:00,S1,R1,MEALV\n")
    got, conf = model.predict(person_features(log, "P").reshape(1, -1))
    assert got[0] in ("student", "staff") and 0.5 <= conf[0] <= 1.0


def test_predictions_csv():
    buf = io.StringIO()
    write_predictions_csv(buf, ["P1", "P2"], ["student", "staff"], [0.9, 0.65])
    assert buf.getvalue() == "person_id,label,confidence\nP1,student,0.9\nP2,staff,0.65\n"


# -- split search against exact fractions -------------------------------------


def _split_oracle(x, y):
    # exhaustive scan with exact fractions
    from fractions import Fraction

    n = len(x)
    best, besti = None, -1
    for i in range(n - 1):
        if not x[i] < x[i + 1]:
            continue
        l = list(y[: i + 1])
        r = list(y[i + 1 :])
        l1, l0 = sum(l), len(l) - sum(l)
        r1, r0 = sum(r), len(r) - sum(r)
        score = Fraction(l1 * l1 + l0 * l0, len(l)) + Fraction(r1 * r1 + r0 * r0, len(r))
        if best is None or score > best:
            best, besti = score, i
    return besti


def test_best_split_matches_exact_oracle():
    rng = np.random.default_rng(23)
    for _ in range(50):
        n = int(rng.integers(2, 40))
        x = np.sort(rng.integers(0, 10, n).astype(np.float64))
        y = rng.integers(0, 2, n).astype(np.int8)
        score, i = _best_split(x, y)
        # integer counts keep the float scores exact, so indices must agree
        assert i == _split_oracle(x.tolist(), y.tolist())


def test_best_split_trivial_cases():
    x = np.array([1.0, 1.0, 1.0])
    y = np.array([0, 1, 0], np.int8)
    score, i = _best_split(x, y)
    assert i == -1
    x = np.array([0.0, 1.0])
    y = np.array([0, 1], np.int8)
    score, i = _best_split(x, y)
    assert i == 0 and score == 2.0
