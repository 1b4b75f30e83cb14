"""Partner randomization invariants and the order-asymmetry probe."""

import math
import tracemalloc

import numpy as np
import pytest
from scipy import stats as sps
from scipy.special import stdtr

from copycart._util import t_two_sided_p
import copycart.baseline as baseline_mod
from copycart.baseline import (
    MIN_PER_ORDER,
    coordination_test,
    randomize_partners,
    welch_t,
)
from copycart.dyads import DyadSet, extract_dyads, filter_frequent_pairs, reconstruct_queues
from copycart.errors import InsufficientDataError
from copycart.estimate import naive_risk_difference
from copycart.sim import SimulationConfig, simulate

from test_context import cell_reference
from test_dyads import lunch_rows
from test_model import parse_csv, tx_ids


def crowded_cell_fixture(n_extra=8):
    """One lunch cell with a dyad plus extra solo shoppers as candidates."""
    entries = [("P0", "A", 0, "MEALV;DES"), ("F0", "B", 60, "MEALS")]
    for i in range(n_extra):
        # far enough apart that no further dyads form
        entries.append((f"X{i}", f"X{i}", 1200 + 400 * i, "MEALV" if i % 2 else "MEALV;DES"))
    log = parse_csv(lunch_rows(entries))
    dyads = extract_dyads(reconstruct_queues(log))
    assert dyads.n == 1
    return log, dyads


def test_randomize_partner_exclusions_and_cell():
    log, dyads = crowded_cell_fixture()
    seen = set()
    for seed in range(60):
        r = randomize_partners(dyads, seed=seed)
        assert r.n == 1
        new = int(r.partner_i[0])
        assert tx_ids(log)[new] != "P0"  # never the original partner tx
        assert log.persons[log.person_idx[new]] != "B"  # never the focal person
        assert log.shop_idx[new] == dyads.shop_idx[0]
        assert log.date_ord[new] == dyads.date_ord[0]
        assert log.daypart[new] == dyads.daypart[0]
        assert r.delay_s[0] == log.ts[r.focal_i[0]] - log.ts[new]
        seen.add(tx_ids(log)[new])
    # all 8 eligible candidates get drawn across seeds
    assert seen == {f"X{i}" for i in range(8)}


def test_randomize_partner_uniform_draw():
    log, dyads = crowded_cell_fixture(n_extra=3)
    counts = {f"X{i}": 0 for i in range(3)}
    for seed in range(300):
        r = randomize_partners(dyads, seed=seed)
        counts[tx_ids(log)[int(r.partner_i[0])]] += 1
    for v in counts.values():
        assert 60 <= v <= 140  # ~100 each under uniformity


def test_randomize_partner_deterministic():
    log, dyads = crowded_cell_fixture()
    a = randomize_partners(dyads, seed=7)
    b = randomize_partners(dyads, seed=7)
    assert np.array_equal(a.partner_i, b.partner_i)
    assert np.array_equal(a.focal_i, b.focal_i)
    picks = {int(randomize_partners(dyads, seed=s).partner_i[0]) for s in range(10)}
    assert len(picks) > 1


def test_randomize_partner_no_candidates():
    log = parse_csv(lunch_rows([("P0", "A", 0, "MEALV;DES"), ("F0", "B", 60, "MEALS")]))
    dyads = extract_dyads(reconstruct_queues(log))
    assert randomize_partners(dyads, seed=0).n == 0


def test_randomization_preserves_measures_under_identity():
    # feeding back the original partners reproduces the naive contrast
    rows = []
    base = np.datetime64("2018-01-01")
    for k in range(8):
        pi = "MEALV;DES" if k % 2 else "MEALV"
        fi = "MEALS;DES" if k % 3 == 0 else "MEALS"
        rows.append(
            lunch_rows([(f"P{k}", "A", 0, pi), (f"F{k}", "B", 60, fi)], day=str(base + k))
        )
    dyads = extract_dyads(reconstruct_queues(parse_csv("".join(rows))))
    assert dyads.n == 8
    same = DyadSet(dyads.log, dyads.partner_i, dyads.focal_i)
    assert naive_risk_difference(same, "dessert") == pytest.approx(
        naive_risk_difference(dyads, "dessert")
    )


def candidate_rows(dyads, k):
    """The rows dyad k may draw, read from the rows' own columns: its focal
    row's cell less the focal person's rows and the original partner."""
    log = dyads.log
    cells = cell_reference(log)
    in_cell = np.flatnonzero(cells == cells[dyads.focal_i[k]])
    own = log.person_idx[in_cell] == dyads.focal_person[k]
    return set(in_cell[~own].tolist()) - {int(dyads.partner_i[k])}


def randomize_oracle(dyads, seed):
    """Scalar reference: the same draws, round by round.  Each round every
    open dyad, in dyad order, draws a row of its focal cell and keeps it if
    it is a candidate.  Returns (partner row per dyad, dyad kept)."""
    cells = cell_reference(dyads.log)
    members = [np.flatnonzero(cells == cells[f]) for f in dyads.focal_i]  # ascending row ids
    candidates = [candidate_rows(dyads, k) for k in range(dyads.n)]
    ok = np.array([len(c) >= 1 for c in candidates], bool)
    rng = np.random.default_rng(int(seed))
    new_partner = dyads.partner_i.copy()
    todo = np.flatnonzero(ok).tolist()
    while todo:
        draws = rng.integers(0, [members[k].shape[0] for k in todo])
        left = []
        for k, j in zip(todo, draws.tolist()):
            row = int(members[k][j])
            if row in candidates[k]:
                new_partner[k] = row
            else:
                left.append(k)
        todo = left
    return new_partner, ok


def busy_lunch_log(rng, n_rows=160):
    """Few persons, shops and days, so focal persons hold several rows per cell."""
    rows = []
    for i in range(n_rows):
        day = f"2018-01-0{rng.integers(1, 4)}"
        secs = int(rng.integers(0, 2 * 3600))
        rows.append(lunch_rows(
            [(f"T{i:04d}", f"P{rng.integers(6)}", secs, "MEALV;DES" if rng.random() < 0.5 else "MEALS")],
            shop=f"S{rng.integers(2)}", register=f"R{rng.integers(2)}", day=day,
        ))
    return parse_csv("".join(rows))


@pytest.mark.parametrize("seed", range(6))
def test_randomize_partners_matches_scalar_reference(seed):
    rng = np.random.default_rng(seed)
    log = busy_lunch_log(rng)
    dyads = extract_dyads(reconstruct_queues(log), max_gap_s=3600)
    assert dyads.n > 20
    # some focal persons hold several rows of their dyad's cell
    n_p = len(log.persons)
    row_keys = cell_reference(log) * n_p + log.person_idx
    keys, counts = np.unique(row_keys, return_counts=True)
    assert counts[np.searchsorted(keys, row_keys[dyads.focal_i])].max() >= 3
    for shuffle_seed in range(3):
        got = randomize_partners(dyads, seed=shuffle_seed)
        partner, ok = randomize_oracle(dyads, shuffle_seed)
        assert np.array_equal(got.partner_i, partner[ok])
        assert np.array_equal(got.focal_i, dyads.focal_i[ok])
        assert np.array_equal(got.delay_s, log.ts[dyads.focal_i[ok]] - log.ts[partner[ok]])


def test_randomize_partner_outside_the_focal_cell():
    # a hand-made dyad set may pair rows of different cells; a partner
    # outside the focal cell removes no row of it from the draw
    log = busy_lunch_log(np.random.default_rng(9))
    dyads = extract_dyads(reconstruct_queues(log), max_gap_s=3600)
    cells = cell_reference(log)
    partner = np.roll(dyads.partner_i, 7)
    odd = DyadSet(log, partner, dyads.focal_i)
    assert (cells[partner] != cells[dyads.focal_i]).sum() > 5
    for seed in range(3):
        got = randomize_partners(odd, seed=seed)
        want, ok = randomize_oracle(odd, seed)
        assert np.array_equal(got.partner_i, want[ok])
    # every candidate row, and only a candidate row, is drawn
    candidates = [candidate_rows(odd, k) for k in range(odd.n)]
    kept = [k for k in range(odd.n) if candidates[k]]
    drawn = [set() for _ in range(odd.n)]
    for seed in range(400):
        for k, row in zip(kept, randomize_partners(odd, seed=seed).partner_i.tolist()):
            drawn[k].add(row)
    assert drawn == candidates


def test_randomize_partner_of_the_focal_persons_own_row():
    # the partner is a row of the focal person, so the candidate count is
    # reduced by it once: the other person's row is left, and drawn
    log = parse_csv(lunch_rows([("F0", "B", 0, "MEALS"), ("F1", "B", 600, "MEALS"), ("X0", "C", 1200, "MEALV")]))
    row = {tx: k for k, tx in enumerate(tx_ids(log))}
    own = DyadSet(log, np.array([row["F0"]]), np.array([row["F1"]]))
    for seed in range(20):
        r = randomize_partners(own, seed=seed)
        assert r.n == 1 and tx_ids(log)[int(r.partner_i[0])] == "X0"


def test_randomize_partner_when_the_focal_person_fills_the_cell():
    # one row of the cell is not the focal person's, so most draws are
    # redrawn; that row is every seed's partner
    entries = [(f"F{i:02d}", "B", 60 * i, "MEALS") for i in range(40)] + [("X0", "C", 3000, "MEALV")]
    elsewhere = lunch_rows([("P0", "A", 0, "MEALV;DES")], day="2018-01-06")
    log = parse_csv(lunch_rows(entries) + elsewhere)
    row = {tx: k for k, tx in enumerate(tx_ids(log))}
    crowded = DyadSet(log, np.array([row["P0"]]), np.array([row["F20"]]))
    for seed in range(30):
        r = randomize_partners(crowded, seed=seed)
        assert r.n == 1 and tx_ids(log)[int(r.partner_i[0])] == "X0"


def test_randomize_empty_set():
    log, dyads = crowded_cell_fixture()
    empty = dyads.subset(np.zeros(1, bool))
    assert randomize_partners(empty, seed=0).n == 0


# -- Welch test ----------------------------------------------------------------


def test_welch_t_matches_reference():
    rng = np.random.default_rng(2)
    x = rng.normal(0.2, 1.0, 30)
    y = rng.normal(0.0, 1.5, 45)
    t, p, df = welch_t(x, y)
    ref = sps.ttest_ind(x, y, equal_var=False)
    assert t == pytest.approx(ref.statistic, rel=1e-12)
    assert p == pytest.approx(ref.pvalue, rel=1e-10)


# df straddles 60, where log Γ(a+½)/Γ(a) switches to its asymptotic series,
# and runs to 1e12, where x = df/(df+t²) is within 1e-12 of 1
T_DF = np.concatenate([np.geomspace(1.0, 1e12, 67), [1.5, 2.5, 7.3, 59.9, 60.0, 60.1, 99999.7]])


def test_t_tail_matches_scipy():
    checked = 0
    for df in T_DF:
        for t in np.geomspace(0.01, 1000.0, 41):
            ref = 2.0 * float(stdtr(df, -t))
            if ref < 1e-300:
                continue
            p = t_two_sided_p(t, df)
            assert p == pytest.approx(ref, rel=1e-10), (df, t)
            assert t_two_sided_p(-t, df) == p
            checked += 1
    assert checked > 1000


@pytest.mark.parametrize("t", np.geomspace(0.01, 1000.0, 25))
def test_t_tail_closed_forms(t):
    # df = 1: 1 - (2/π)·atan|t|; df = 2: 1 - |t|/√(2+t²); both written here
    # without the subtraction, which would cancel at large |t|
    assert t_two_sided_p(t, 1.0) == pytest.approx(2.0 / math.pi * math.atan(1.0 / t), rel=1e-14)
    r = math.sqrt(2.0 + t * t)
    assert t_two_sided_p(t, 2.0) == pytest.approx(2.0 / (r * (r + t)), rel=1e-14)


def test_t_tail_limits():
    assert t_two_sided_p(0.0, 5.0) == 1.0
    assert t_two_sided_p(math.inf, 5.0) == t_two_sided_p(-math.inf, 5.0) == 0.0


def test_welch_t_degenerate_groups():
    ones = np.ones(5)
    assert welch_t(ones, np.ones(4)) == (0.0, 1.0, 7.0)
    t, p, _ = welch_t(ones, np.zeros(4))
    assert t == np.inf and p == 0.0
    with pytest.raises(InsufficientDataError):
        welch_t(np.ones(1), np.ones(4))


# -- coordination test ---------------------------------------------------------


def directed_rows(spec):
    """spec: (partner, focal, focal_buys) per dyad, one treated dyad per day."""
    rows = []
    base = np.datetime64("2018-01-01")
    for k, (p, f, buys) in enumerate(spec):
        day = str(base + k)
        fi = "MEALS;DES" if buys else "MEALS"
        rows.append(lunch_rows([(f"D{k:04d}P", p, 0, "MEALV;DES"), (f"D{k:04d}F", f, 45, fi)], day=day))
    return rows


def directed_dyads(spec):
    log = parse_csv("".join(directed_rows(spec)))
    dyads = extract_dyads(reconstruct_queues(log))
    assert dyads.n == len(spec)
    return dyads


def asym_pair(a, b, n_lead, k_lead, n_foll, k_foll):
    """One unordered pair with k/n focal purchases in each direction."""
    spec = [(a, b, k < k_lead) for k in range(n_lead)]
    spec += [(b, a, k < k_foll) for k in range(n_foll)]
    return spec


@pytest.fixture
def every_dyad(monkeypatch):
    """`coordination_test` takes each direction's rate over all its treated dyads."""
    monkeypatch.setattr(baseline_mod, "SAMPLE_PER_PAIR", 10**9)


def test_coordination_detects_asymmetry(every_dyad):
    # three pairs, each strongly leader-skewed: rates (.75,.70,.80) vs (.25,.17,.30)
    spec = asym_pair("A", "B", 20, 15, 12, 3)
    spec += asym_pair("C", "D", 20, 14, 12, 2)
    spec += asym_pair("E", "F", 20, 16, 10, 3)
    res = coordination_test(directed_dyads(spec), "dessert")
    assert res["n_pairs"] == 3
    assert res["n_leader_first"] == 60 and res["n_follower_first"] == 34
    assert res["rate_leader_first"] == pytest.approx((0.75 + 0.70 + 0.80) / 3)
    assert res["rate_follower_first"] == pytest.approx((3 / 12 + 2 / 12 + 3 / 10) / 3)
    assert res["t"] > 0 and res["p"] < 0.05


def test_coordination_symmetric_rates_accept(every_dyad):
    # identical per-direction rates in every pair: t = 0, p = 1
    spec = asym_pair("A", "B", 20, 10, 20, 10) + asym_pair("C", "D", 20, 10, 20, 10)
    res = coordination_test(directed_dyads(spec), "dessert")
    assert res["rate_leader_first"] == res["rate_follower_first"] == pytest.approx(0.5)
    assert res["t"] == pytest.approx(0.0, abs=1e-12)
    assert res["p"] == pytest.approx(1.0)


def test_coordination_role_tiebreak_lexicographic(every_dyad):
    spec = asym_pair("A", "B", 10, 10, 10, 0) + asym_pair("C", "D", 10, 9, 10, 1)
    res = coordination_test(directed_dyads(spec), "dessert")
    # equal direction counts: lower id leads, so leader-first rates are (1, .9)
    assert res["rate_leader_first"] == pytest.approx(0.95)
    assert res["rate_follower_first"] == pytest.approx(0.05)


def test_coordination_requires_both_directions():
    spec = [("A", "B", True) for _ in range(10)] + [("B", "A", True) for _ in range(9)]
    with pytest.raises(InsufficientDataError):
        coordination_test(directed_dyads(spec), "dessert")
    with pytest.raises(InsufficientDataError):
        coordination_test(directed_dyads(spec), "fruit")  # no treated dyads


def test_coordination_requires_two_pairs():
    # one fully qualifying pair is not enough for a between-pair t-test
    spec = asym_pair("A", "B", 20, 15, 12, 3)
    with pytest.raises(InsufficientDataError, match="found 1"):
        coordination_test(directed_dyads(spec), "dessert")


def test_coordination_subsample_and_determinism():
    rng = np.random.default_rng(4)
    spec = [("A", "B", bool(rng.random() < 0.7)) for _ in range(40)]
    spec += [("B", "A", bool(rng.random() < 0.3)) for _ in range(30)]
    spec += [("C", "D", bool(rng.random() < 0.7)) for _ in range(40)]
    spec += [("D", "C", bool(rng.random() < 0.3)) for _ in range(30)]
    d = directed_dyads(spec)
    a = coordination_test(d, "dessert", seed=3)
    b = coordination_test(d, "dessert", seed=3)
    assert a == b
    assert a["n_leader_first"] == 20 and a["n_follower_first"] == 20
    c = coordination_test(d, "dessert", seed=4)
    assert c != a


def test_coordination_untreated_dyads_set_roles_not_rates(every_dyad):
    # untreated dyads (partner without the item) count toward leadership but
    # never toward qualification or the purchase rates
    spec = asym_pair("A", "B", 10, 10, 10, 0) + asym_pair("C", "D", 10, 9, 10, 1)
    d = directed_dyads(spec)
    tied_roles = coordination_test(d, "dessert")
    # direction counts tie on treated dyads alone: lexicographic leaders A, C
    assert tied_roles["rate_leader_first"] == pytest.approx(0.95)
    rows = []
    base = np.datetime64("2019-01-01")
    for k, (p, f) in enumerate([("B", "A")] * 6 + [("D", "C")] * 6):
        day = str(base + k)
        # partner basket has no dessert: dyad is untreated for 'dessert'
        rows.append(lunch_rows([(f"U{k:04d}P", p, 0, "MEALV"), (f"U{k:04d}F", f, 45, "MEALS")], day=day))
    log = parse_csv("".join(directed_rows(spec)) + "".join(rows))
    bigger = extract_dyads(reconstruct_queues(log))
    assert bigger.n == len(spec) + 12
    flipped = coordination_test(bigger, "dessert")
    # same treated rates, but B and D now lead on all-dyad counts (16 vs 10)
    assert flipped["n_pairs"] == 2
    assert flipped["rate_leader_first"] == pytest.approx(0.05)
    assert flipped["rate_follower_first"] == pytest.approx(0.95)


def coordination_oracle(dyads, item, sample_per_pair, seed):
    """Reference: every person pair scanned in key order, one at a time."""
    treated = dyads.partner_has(item)
    outcome = dyads.focal_has(item).astype(np.float64)
    persons = dyads.log.persons
    pp = dyads.partner_person.astype(np.int64)
    fp = dyads.focal_person.astype(np.int64)
    key = np.minimum(pp, fp) * len(persons) + np.maximum(pp, fp)
    order = np.argsort(key, kind="stable")
    keys_sorted = key[order]
    starts = np.concatenate(([0], np.nonzero(keys_sorted[1:] != keys_sorted[:-1])[0] + 1, [dyads.n]))
    rng = np.random.default_rng(int(seed))
    lead, foll = [], []
    for g in range(starts.shape[0] - 1):
        rows = order[starts[g] : starts[g + 1]]
        a, b = divmod(int(key[rows[0]]), len(persons))
        t_rows = rows[treated[rows]]
        dir_a, dir_b = t_rows[pp[t_rows] == a], t_rows[pp[t_rows] != a]
        if dir_a.shape[0] < MIN_PER_ORDER or dir_b.shape[0] < MIN_PER_ORDER:
            continue
        all_a = int((pp[rows] == a).sum())
        all_b = rows.shape[0] - all_a
        leader_is_a = all_a > all_b if all_a != all_b else persons[a] <= persons[b]
        lead_rows, foll_rows = (dir_a, dir_b) if leader_is_a else (dir_b, dir_a)
        if sample_per_pair:
            if lead_rows.shape[0] > sample_per_pair:
                lead_rows = rng.choice(lead_rows, sample_per_pair, replace=False)
            if foll_rows.shape[0] > sample_per_pair:
                foll_rows = rng.choice(foll_rows, sample_per_pair, replace=False)
        lead.append(lead_rows)
        foll.append(foll_rows)
    rates = [float(outcome[r].mean()) for r in lead], [float(outcome[r].mean()) for r in foll]
    return len(lead), sum(map(len, lead)), sum(map(len, foll)), rates


@pytest.mark.parametrize("sample_per_pair", [10, None])
def test_coordination_matches_per_pair_reference(monkeypatch, sample_per_pair):
    if sample_per_pair is None:  # every treated dyad is rated
        monkeypatch.setattr(baseline_mod, "SAMPLE_PER_PAIR", 10**9)
    log = simulate(SimulationConfig(seed=3, n_persons=60, n_days=300, pair_fraction=1.0)).log
    d = extract_dyads(reconstruct_queues(log))
    # and tied all-dyad counts, where the lower person id leads
    rng = np.random.default_rng(8)
    spec = asym_pair("A", "B", 14, 9, 14, 4) + asym_pair("C", "D", 25, 20, 11, 2)
    spec += [(p, f, bool(rng.random() < 0.5)) for p, f in [("E", "F"), ("F", "E")] * 12]
    tied = directed_dyads(spec)
    checked = 0
    for dyads in (d, tied):
        for item in ("dessert", "soup", "meal"):
            for seed in range(3):
                try:
                    got = coordination_test(dyads, item, seed)
                except InsufficientDataError:
                    continue
                n_pairs, n_lead, n_foll, (lead, foll) = coordination_oracle(dyads, item, sample_per_pair, seed)
                assert (got["n_pairs"], got["n_leader_first"], got["n_follower_first"]) == (n_pairs, n_lead, n_foll)
                assert got == coordination_test(dyads, item, seed)
                t, p, df = welch_t(np.asarray(lead), np.asarray(foll))
                assert (got["t"], got["p"], got["df"]) == (t, p, df)
                assert got["rate_leader_first"] == float(np.mean(lead))
                assert got["rate_follower_first"] == float(np.mean(foll))
                checked += 1
    assert checked >= 9


def test_shuffle_memory_stays_bounded():
    # Three shuffles of this 55k-row log's 16k dyads, the cell index built
    # by the first, peaked at 4.9 MB of traced memory when the bound was
    # set, 1.3 MB of it the index the log keeps; with two argsorts of every
    # row's cell and (cell, person) keys in each call they peaked at 7.8 MB.
    log = simulate(SimulationConfig(seed=3, n_persons=500)).log
    dyads = filter_frequent_pairs(extract_dyads(reconstruct_queues(log)), 10)
    tracemalloc.start()
    try:
        shuffled = [randomize_partners(dyads, seed=seed) for seed in range(3)]
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert log.n > 50_000 and min(s.n for s in shuffled) > 10_000
    assert peak < 6.5e6, f"three shuffles peaked at {peak / 1e6:.1f} MB"
