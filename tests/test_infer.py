"""Temporal features and the naive Bayes status classifier."""

import io

import numpy as np
import pytest

from copycart.errors import InsufficientLabelsError
from copycart.infer import (
    FEATURE_NAMES,
    N_FEATURES,
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
    ids, X = feature_matrix(log, log.persons)
    assert X.shape == (17, 45)
    for sl in (slice(2, 14), slice(14, 21), slice(21, 45)):
        np.testing.assert_allclose(X[:, sl].sum(axis=1), 1.0, atol=1e-9)
    with pytest.raises(KeyError):
        feature_matrix(log, ["nobody"])


def test_features_ignore_basket_content():
    a = parse_csv("T1,P,2018-03-07T12:30:00,S1,R1,MEALV\nT2,P,2018-04-07T12:30:00,S1,R1,COF\n")
    b = parse_csv("T1,P,2018-03-07T12:30:00,S1,R1,DES\nT2,P,2018-04-07T12:30:00,S1,R1,TEA;SOUP\n")
    _, Xa = feature_matrix(a, a.persons)
    _, Xb = feature_matrix(b, b.persons)
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
    model = train_status_model(X, labels, seed=5)
    for cls in ("student", "staff"):
        assert model.metrics[cls]["precision"] == 1.0
        assert model.metrics[cls]["recall"] == 1.0
    assert model.classes == ["staff", "student"]
    got, conf = model.predict(X)
    assert got == labels
    assert np.all(conf >= 0.5) and np.all(conf <= 1.0)


def test_label_permutation_near_prior():
    X, labels = signal_population(seed=9, shuffle_labels=True)
    model = train_status_model(X, labels, seed=2)
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
    a = train_status_model(X, labels, seed=11)
    b = train_status_model(X, labels, seed=11)
    for name in ("log_prior", "mean", "var"):
        assert np.array_equal(getattr(a, name), getattr(b, name)), name
    assert (a.classes, a.metrics) == (b.classes, b.metrics)
    # another seed holds out other rows, so the fit moves
    c = train_status_model(X, labels, seed=12)
    assert not np.array_equal(c.mean, a.mean)


def test_exemplar_confidence():
    # a class's own exemplar, far from the other class's mean, is certain
    X, labels = signal_population(seed=8)
    model = train_status_model(X, labels, seed=1)
    got, conf = model.predict(X[:1])
    assert conf[0] == 1.0
    assert got[0] == labels[0]
    # a row on the boundary ties, and the tie goes to the first class
    model.mean[1] = model.mean[0]
    model.var[1] = model.var[0]
    model.log_prior[1] = model.log_prior[0]
    got, conf = model.predict(X[:3])
    assert got == ["staff"] * 3 and np.all(conf == 0.5)


def test_predict_status_on_feature_vector():
    X, labels = signal_population(seed=10)
    model = train_status_model(X, labels, seed=7)
    log = parse_csv("T1,P,2018-03-07T09:30:00,S1,R1,MEALV\n")
    got, conf = model.predict(person_features(log, "P").reshape(1, -1))
    assert got[0] in ("student", "staff") and 0.5 <= conf[0] <= 1.0


def test_predictions_csv():
    buf = io.StringIO()
    write_predictions_csv(buf, ["P1", "P2"], ["student", "staff"], [0.9, 0.65])
    assert buf.getvalue() == "person_id,label,confidence\nP1,student,0.9\nP2,staff,0.65\n"


# -- the fit against a per-row scipy reference ----------------------------------


def posterior_per_row(model, X):
    """Reference: per row, sum scipy's normal log densities over the fitted
    means and variances, add the log prior, and normalise."""
    from scipy.stats import norm

    labels, conf = [], []
    for x in X:
        jll = [
            model.log_prior[c] + norm.logpdf(x, model.mean[c], np.sqrt(model.var[c])).sum()
            for c in range(2)
        ]
        win = 1 if jll[1] > jll[0] else 0
        labels.append(model.classes[win])
        conf.append(1.0 / (1.0 + np.exp(jll[1 - win] - jll[win])))
    return labels, np.asarray(conf)


@pytest.mark.parametrize("seed", range(4))
def test_predictions_match_scipy_reference(seed):
    rng = np.random.default_rng(seed)
    X, labels = signal_population(seed=seed)
    # label noise and blurred signatures leave rows of every confidence
    X[:, 2:] += rng.normal(0, 0.2, (X.shape[0], X.shape[1] - 2))
    flip = {"student": "staff", "staff": "student"}
    labels = [flip[l] if rng.random() < 0.3 else l for l in labels]
    model = train_status_model(X, labels, seed=seed)
    got, conf = model.predict(X)
    want, want_conf = posterior_per_row(model, X)
    assert got == want
    np.testing.assert_allclose(conf, want_conf, rtol=0, atol=1e-12)
    assert 0.5 <= conf.min() < 0.9 and conf.max() > 0.99


def test_fit_is_the_class_moments_of_the_training_rows():
    X, labels = signal_population(seed=6)
    # 120 students and 70 staff, so the priors differ
    keep = [i for i, l in enumerate(labels) if l == "student" or i < 140]
    X, labels = X[keep], [labels[i] for i in keep]
    model = train_status_model(X, labels, seed=3)
    # each class holds out the first 20% of a permutation drawn from the seed
    rng = np.random.default_rng(3)
    y = np.asarray(labels)
    train = np.ones(y.shape[0], bool)
    for name in model.classes:
        rows = np.flatnonzero(y == name)
        train[rows[rng.permutation(rows.shape[0])[: round(0.2 * rows.shape[0])]]] = False
    smoothing = 1e-9 * X[train].var(axis=0).max()
    for c, name in enumerate(model.classes):
        rows = X[train & (y == name)]
        np.testing.assert_allclose(model.mean[c], rows.mean(axis=0), rtol=1e-12)
        np.testing.assert_allclose(model.var[c], rows.var(axis=0) + smoothing, rtol=1e-12)
        assert model.log_prior[c] == pytest.approx(np.log(rows.shape[0] / train.sum()))
        assert model.metrics[name]["support"] == (~train & (y == name)).sum()


def test_constant_features_train_and_predict():
    rng = np.random.default_rng(2)
    labels = ["staff", "student"] * 60
    with np.errstate(all="raise"):
        # every feature constant: the classes differ in nothing but the prior
        model = train_status_model(np.ones((120, N_FEATURES)), labels)
        _, conf = model.predict(rng.random((5, N_FEATURES)))
        assert np.all(np.isfinite(conf)) and np.all((conf >= 0.5) & (conf <= 1.0))
        # one feature constant within one class
        X, labels = signal_population(seed=3)
        X[np.asarray(labels) == "staff", 5] = 0.25
        model = train_status_model(X, labels, seed=4)
        _, conf = model.predict(np.vstack([X, rng.random((5, N_FEATURES))]))
        assert np.all(np.isfinite(conf)) and np.all((conf >= 0.5) & (conf <= 1.0))


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
    ids, X = feature_matrix(log, log.persons)
    assert ids == list(log.persons)
    assert np.array_equal(X, features_per_person(log, ids))
    some = list(log.persons[::-3]) + [log.persons[0]]  # any order, repeats allowed
    ids, X = feature_matrix(log, some)
    assert ids == some and np.array_equal(X, features_per_person(log, some))
    assert feature_matrix(log, [])[1].shape == (0, N_FEATURES)
    with pytest.raises(KeyError, match="nobody"):
        feature_matrix(log, [log.persons[0], "nobody"])


# -- the classes' visit windows overlap -----------------------------------------


def overlapping_visit_seconds(o):
    """`sim._visit_seconds` with staff drawing from the first 0.45 + o of the
    daypart span and students from the last 0.45 + o; at o = 0 it is the
    simulator's own arithmetic."""
    from copycart import sim

    def visit_seconds(rng, daypart_idx, is_staff, room):
        lo = sim._WINDOWS[daypart_idx, 0]
        hi = sim._WINDOWS[daypart_idx, 1]
        span = hi - lo - room
        u = rng.random(daypart_idx.shape[0])
        u = np.where(is_staff, u * (0.45 + o), (0.55 - o) + u * (0.45 + o))
        return lo + np.floor(u * span).astype(np.int64)

    return visit_seconds


def log_bytes(config):
    from copycart.model import serialize_transactions
    from copycart.sim import simulate

    buf = io.StringIO()
    serialize_transactions(simulate(config).log, buf)
    return buf.getvalue()


def worst_holdout_score(config):
    """As acceptance 8 trains: labeled students and staff, seed 5."""
    from copycart.sim import simulate

    res = simulate(config)
    demo = res.demographics()
    in_log = set(res.log.persons)
    labeled = [r.person_id for r in demo.records()
               if r.status in ("student", "staff") and r.person_id in in_log]
    ids, X = feature_matrix(res.log, labeled)
    model = train_status_model(X, [demo.status_of(p) for p in ids], seed=5)
    return min(min(m["precision"], m["recall"]) for m in model.metrics.values())


def test_status_inference_where_visit_windows_overlap(monkeypatch):
    """150 days hold no summer, so only the hours tell the classes apart.
    The gates are the bagged-tree forest's own worst scores on these seeds."""
    from copycart import sim
    from copycart.sim import SimulationConfig

    unpatched = log_bytes(SimulationConfig(seed=901, n_days=150))
    monkeypatch.setattr(sim, "_visit_seconds", overlapping_visit_seconds(0.0))
    assert log_bytes(SimulationConfig(seed=901, n_days=150)) == unpatched
    for o, gate in ((0.45, 0.76), (0.40, 0.94)):
        monkeypatch.setattr(sim, "_visit_seconds", overlapping_visit_seconds(o))
        for seed in (901, 7, 13):
            worst = worst_holdout_score(SimulationConfig(seed=seed, n_days=150))
            assert worst >= gate, (o, seed, worst)
