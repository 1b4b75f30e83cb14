"""Temporal features and the bagged-tree status classifier."""

import io

import numpy as np
import pytest

from copycart.errors import InsufficientLabelsError
from copycart.infer import (
    FEATURE_NAMES,
    MAX_DEPTH,
    N_CANDIDATES,
    N_FEATURES,
    _best_split,
    _grow_tree,
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


def ranked(x, extra=()):
    """(distinct values, rank code column) of x, the values padded with
    `extra` so that some ranks hold no row, as at a tree node."""
    values = np.unique(np.concatenate([x, extra]))
    return values, np.searchsorted(values, x)[:, None]


def test_best_split_matches_exact_oracle():
    rng = np.random.default_rng(23)
    for _ in range(50):
        n = int(rng.integers(2, 40))
        x = np.sort(rng.integers(0, 10, n).astype(np.float64))
        y = rng.integers(0, 2, n).astype(np.int8)
        values, codes = ranked(x, rng.integers(0, 10, 4))
        score, c, k = _best_split(codes, y, np.asarray([values.shape[0]]))
        i = _split_oracle(x.tolist(), y.tolist())
        # integer counts keep the float scores exact, so the thresholds must agree
        assert (c, k >= 0) == ((0, True) if i >= 0 else (-1, False))
        assert i < 0 or values[k] == x[i]


def test_best_split_trivial_cases():
    _, codes = ranked(np.array([1.0, 1.0, 1.0]), [0.0, 2.0])
    assert _best_split(codes, np.array([0, 1, 0], np.int8), np.asarray([3])) == (-np.inf, -1, -1)
    _, codes = ranked(np.array([0.0, 1.0]))
    score, c, k = _best_split(codes, np.array([0, 1], np.int8), np.asarray([2]))
    assert (c, k) == (0, 0) and score == 2.0


def test_best_split_first_candidate_wins_a_tie():
    # two copies of one feature score alike; the first candidate keeps the split
    x = np.array([0.0, 1.0, 2.0, 3.0])
    values, codes = ranked(x)
    score, c, k = _best_split(np.hstack([codes, codes]), np.array([0, 0, 1, 1], np.int8),
                              np.asarray([4, 4]))
    assert (c, values[k], score) == (0, 1.0, 4.0)


# -- grown trees against the argsort split search ------------------------------


def argsort_split(x, y):
    """Reference: the best split after position i of one feature column
    sorted ascending, scored at every position between distinct values."""
    n = x.shape[0]
    if n < 2:
        return (-np.inf, -1)
    c1 = np.cumsum(y[:-1], dtype=np.int64)
    nl = np.arange(1, n, dtype=np.int64)
    l0 = nl - c1
    tot1 = int(np.sum(y, dtype=np.int64))
    r1 = tot1 - c1
    r0 = (n - tot1) - l0
    nr = n - nl
    score = (c1 * c1 + l0 * l0) / nl + (r1 * r1 + r0 * r0) / nr
    score = np.where(x[:-1] < x[1:], score, -np.inf)
    i = int(np.argmax(score))
    return (-np.inf, -1) if not np.isfinite(score[i]) else (float(score[i]), i)


def argsort_tree(X, y, rows, rng, min_split):
    """Reference tree: per node, each candidate feature is argsorted and
    scanned; the first strictly better candidate keeps the split."""
    feat, thr, left, right, label = [], [], [], [], []

    def build(rows, depth):
        node = len(feat)
        ones = int(y[rows].sum())
        feat.append(-1)
        thr.append(0.0)
        left.append(-1)
        right.append(-1)
        label.append(1 if ones * 2 > rows.shape[0] else 0)
        if depth >= MAX_DEPTH or rows.shape[0] < min_split or ones in (0, rows.shape[0]):
            return node
        best_score, best = -np.inf, None
        for f in rng.choice(N_FEATURES, size=N_CANDIDATES, replace=False):
            xv = X[rows, f]
            srt = np.argsort(xv, kind="stable")
            score, idx = argsort_split(xv[srt], y[rows][srt])
            if idx >= 0 and score > best_score:
                best_score, best = score, (int(f), float(xv[srt[idx]]))
        if best is None:
            return node
        f, t = best
        go = X[rows, f] <= t
        feat[node], thr[node] = f, t
        left[node] = build(rows[go], depth + 1)
        right[node] = build(rows[~go], depth + 1)
        return node

    build(rows, 0)
    return {"feat": feat, "thr": thr, "left": left, "right": right, "label": label}


@pytest.mark.parametrize("seed", range(12))
def test_grown_trees_match_argsort_split_search(seed):
    rng = np.random.default_rng(seed)
    X, labels = signal_population(n_per_class=80, seed=seed)
    X[:, 0] //= 40  # coarse counts and rounded shares tie within a feature
    X[:, 2:] = np.round(X[:, 2:], 1)
    y = (np.asarray(labels) == "student").astype(np.uint8)
    y ^= (rng.random(y.shape[0]) < 0.35).astype(np.uint8)  # label noise grows deep trees
    values, codes = zip(*(np.unique(col, return_inverse=True) for col in X.T))
    codes = np.stack(codes, axis=1)
    for min_split in (2, 10):
        boot = rng.integers(0, y.shape[0], y.shape[0])
        rng_a, rng_b = np.random.default_rng([seed, min_split]), np.random.default_rng([seed, min_split])
        got = _grow_tree(codes, values, y, boot, rng_a, min_split)
        want = argsort_tree(X, y, boot, rng_b, min_split)
        assert len(want["feat"]) > 30
        for key in want:
            assert got[key].tolist() == want[key], key
        # the same draws in the same depth-first order
        assert rng_a.bit_generator.state == rng_b.bit_generator.state


def test_training_rejects_nan_features():
    X, labels = signal_population()
    X[3, 5] = np.nan
    with pytest.raises(ValueError, match="NaN"):
        train_status_model(X, labels)


# -- feature matrix against a per-person loop ----------------------------------


def features_per_person(log, person_ids):
    """Reference: one person at a time, from the person's rows."""
    order, start = log.person_transactions()
    index = {p: i for i, p in enumerate(log.persons)}
    month, weekday, hour = log.month - 1, log.weekday, log.hour
    X = np.zeros((len(person_ids), N_FEATURES))
    for r, pid in enumerate(person_ids):
        p = index[pid]
        rows = order[start[p] : start[p + 1]]
        n = rows.shape[0]
        X[r, 0] = n
        X[r, 1] = float(log.ts[rows[-1]] - log.ts[rows[0]]) / (365.25 * 86400.0)
        X[r, 2:14] = np.bincount(month[rows], minlength=12) / n
        X[r, 14:21] = np.bincount(weekday[rows], minlength=7) / n
        X[r, 21:45] = np.bincount(hour[rows], minlength=24) / n
    return X


def test_feature_matrix_matches_per_person_loop():
    from copycart.sim import SimulationConfig, simulate

    log = simulate(SimulationConfig(seed=5, n_persons=80, n_days=420)).log
    ids, X = feature_matrix(log)
    assert ids == list(log.persons)
    assert np.array_equal(X, features_per_person(log, ids))
    some = list(log.persons[::-3]) + [log.persons[0]]  # any order, repeats allowed
    ids, X = feature_matrix(log, some)
    assert ids == some and np.array_equal(X, features_per_person(log, some))
    assert feature_matrix(log, [])[1].shape == (0, N_FEATURES)
    with pytest.raises(KeyError, match="nobody"):
        feature_matrix(log, [log.persons[0], "nobody"])
