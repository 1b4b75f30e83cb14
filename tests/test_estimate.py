"""Paired-table estimators, bootstrap, subgroups, dose-response trend."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import stats as sps

from copycart import model as M
from copycart._util import derive_seed
from copycart.dyads import extract_dyads, reconstruct_queues
from copycart.errors import InsufficientBinsError, NoPairsError
from copycart.dyads import tie_strength_per_dyad
from copycart.estimate import (
    GROUPINGS,
    PairedCounts,
    _pair_labels,
    anchor_mimicry,
    dose_response,
    effect_estimate,
    naive_risk_difference,
    ols_line,
    paired_chi2,
    paired_counts,
    risk_difference,
    risk_ratio,
    subgroup_estimates,
)
from copycart.matching import MatchedPairSet

from test_matching import make_context
from test_model import parse_csv, tx_ids


def marginal(c: PairedCounts) -> tuple[tuple[int, int], tuple[int, int]]:
    """((treated yes, treated no), (control yes, control no)); each row
    totals the number of pairs."""
    ty = c.n11 + c.n10
    cy = c.n11 + c.n01
    return ((ty, c.n_pairs - ty), (cy, c.n_pairs - cy))


def _hms(sec):
    return f"{sec // 3600:02d}:{sec % 3600 // 60:02d}:{sec % 60:02d}"


def pairs_from_outcomes(o_t, o_c, delays=None, partner_persons=None, max_gap_s=300):
    """Fabricate a MatchedPairSet with fully controlled per-pair outcomes.

    Pair k gets its own date; the treated dyad sits at register R1, its
    control at R2 (same shop, same stratum keys are irrelevant here since
    the pairing is asserted by construction, not re-derived).
    """
    o_t = np.asarray(o_t, np.uint8)
    o_c = np.asarray(o_c, np.uint8)
    n = o_t.shape[0]
    if delays is None:
        delays = np.full(n, 60)
    rows = []
    base = np.datetime64("2018-01-01")
    for k in range(n):
        day = str(base + k)
        pp = partner_persons[k] if partner_persons else "PA"
        ft = "MEALS;DES" if o_t[k] else "MEALS"
        fc = "MEALS;DES" if o_c[k] else "MEALS"
        t0 = 12 * 3600
        rows.append(f"T{k:04d}P,{pp},{day}T{_hms(t0)},S1,R1,MEALV;DES")
        rows.append(f"T{k:04d}F,FB,{day}T{_hms(t0 + int(delays[k]))},S1,R1,{ft}")
        rows.append(f"C{k:04d}P,{pp},{day}T{_hms(t0 + 1800)},S1,R2,MEALV")
        rows.append(f"C{k:04d}F,FB,{day}T{_hms(t0 + 1860)},S1,R2,{fc}")
    log = parse_csv("\n".join(rows) + "\n")
    dyads = extract_dyads(reconstruct_queues(log), max_gap_s=max_gap_s)
    assert dyads.n == 2 * n
    # queue order puts the R1 (treated) dyads first, R2 (control) after
    assert tx_ids(log)[dyads.partner_i[0]] == "T0000P"
    assert tx_ids(log)[dyads.partner_i[n]] == "C0000P"
    return MatchedPairSet(
        dyads,
        "dessert",
        np.arange(n, dtype=np.int64),
        np.arange(n, 2 * n, dtype=np.int64),
        n_treated_total=n,
        n_unmatched=0,
    )


ESTIMATE_KEYS = {"item", "stratum", "n_pairs", "rd", "rd_ci", "rr", "rr_ci", "chi2", "p"}


# -- paired table ------------------------------------------------------------


def test_paired_counts_from_outcomes():
    pairs = pairs_from_outcomes([1, 1, 0, 0, 1], [1, 0, 1, 0, 0])
    c = paired_counts(pairs)
    assert (c.n11, c.n10, c.n01, c.n00) == (1, 2, 1, 1)
    assert c.n_pairs == 5 and c.discordant == 3
    assert marginal(c) == ((3, 2), (2, 3))


def test_large_table_reference_values():
    c = PairedCounts(n11=3042, n10=12119, n01=5221, n00=28111)
    assert c.n_pairs == 48493
    assert risk_difference(c) == 0.14224733466685915
    assert risk_ratio(c) == 1.8348057606196297
    assert c.n10 / c.n01 == 2.321202834705995
    chi2, p = paired_chi2(c)
    assert chi2 == pytest.approx(2744.0832756632067, rel=1e-13)
    assert p < 1e-12


def test_risk_difference_identity_with_discordants():
    c = PairedCounts(3042, 12119, 5221, 28111)
    assert risk_difference(c) == pytest.approx((c.n10 - c.n01) / c.n_pairs, rel=1e-12)


def test_risk_ratio_undefined_when_control_arm_empty():
    c = PairedCounts(n11=0, n10=4, n01=0, n00=6)
    assert risk_ratio(c) is None
    assert risk_difference(c) == pytest.approx(0.4)


def test_counts_validation_and_empty():
    with pytest.raises(ValueError):
        PairedCounts(1, -1, 0, 0)
    with pytest.raises(NoPairsError):
        risk_difference(PairedCounts(0, 0, 0, 0))


@given(
    st.integers(0, 300), st.integers(0, 300), st.integers(0, 300), st.integers(0, 300)
)
@settings(max_examples=150, deadline=None)
def test_table_identities(n11, n10, n01, n00):
    if n11 + n10 + n01 + n00 == 0:
        return
    c = PairedCounts(n11, n10, n01, n00)
    (ty, tn), (cy, cn) = marginal(c)
    assert ty + tn == cy + cn == c.n_pairs
    rd = risk_difference(c)
    assert rd == pytest.approx((n10 - n01) / c.n_pairs, abs=1e-12)
    assert -1.0 <= rd <= 1.0
    rr = risk_ratio(c)
    if rr is not None and cy > 0:
        assert (rr > 1.0) == (rd > 0.0)


# -- McNemar test ------------------------------------------------------------


def test_exact_binomial_p_small_discordant():
    stat, p = paired_chi2(PairedCounts(0, 9, 1, 0))
    assert stat == pytest.approx(6.4)
    assert p == 0.021484375  # 2 * P(Bin(10, 1/2) >= 9)


def test_exact_p_capped_at_one():
    stat, p = paired_chi2(PairedCounts(0, 3, 3, 0))
    assert stat == 0.0 and p == 1.0


def test_exact_path_matches_brute_force():
    rng = np.random.default_rng(5)
    for _ in range(20):
        n10 = int(rng.integers(0, 13))
        n01 = int(rng.integers(0, 12))
        if n10 + n01 == 0:
            continue
        _, p = paired_chi2(PairedCounts(0, n10, n01, 0))
        d = n10 + n01
        k = max(n10, n01)
        brute = min(1.0, 2.0 * sum(math.comb(d, i) for i in range(k, d + 1)) / 2**d)
        assert p == pytest.approx(brute, abs=1e-15)


def test_chi_square_path_above_threshold():
    c = PairedCounts(0, 13, 12, 0)  # 25 discordant: normal-theory path
    stat, p = paired_chi2(c)
    assert stat == pytest.approx(1 / 25)
    assert p == pytest.approx(math.erfc(math.sqrt(stat / 2.0)), abs=1e-15)
    assert p == pytest.approx(2.0 * sps.norm.sf(math.sqrt(stat)), abs=1e-12)


def test_zero_discordant_has_no_test():
    assert paired_chi2(PairedCounts(5, 0, 0, 5)) == (None, None)


# -- bootstrap ---------------------------------------------------------------


def test_bootstrap_deterministic_and_seed_sensitive():
    pairs = pairs_from_outcomes([1, 0, 1, 1, 0, 1, 0, 1] * 8, [0, 0, 1, 0, 1, 0, 0, 1] * 8)
    counts = paired_counts(pairs)
    a = effect_estimate(counts, "dessert", n_rep=400, seed=9)
    b = effect_estimate(counts, "dessert", n_rep=400, seed=9)
    assert a == b
    c = effect_estimate(counts, "dessert", n_rep=400, seed=10)
    assert a["rd_ci"] != c["rd_ci"]


def test_bootstrap_degenerate_pairs_zero_width():
    pairs = pairs_from_outcomes([1] * 12, [0] * 12)
    est = effect_estimate(paired_counts(pairs), "dessert", n_rep=200, seed=1)
    assert est["rd_ci"] == [1.0, 1.0]
    assert est["rd"] == 1.0


def test_bootstrap_rr_undefined_interval():
    pairs = pairs_from_outcomes([1, 1, 1], [0, 0, 0])
    est = effect_estimate(paired_counts(pairs), "dessert", n_rep=100, seed=2)
    assert est["rr"] is None and est["rr_ci"] is None
    assert est["rd_ci"] == [1.0, 1.0]


def test_bootstrap_replicates_match_multinomial_moments():
    # Resampling pairs is a Multinomial(n, p) draw over (n11, n10, n01, n00):
    # replicate cell means are n*p, and the RD replicates have the analytic
    # SD sqrt((p10 + p01 - (p10 - p01)^2) / n).  Tolerances come from the
    # standard errors of those moments at 4000 replicates: a cell-count mean
    # has SE <= sqrt(n/4/4000) = 0.05 at n=40, so 0.3 is six SEs; the RD's
    # SD has relative SE about 1/sqrt(2*4000) = 1.1%, so 5% is over four.
    o_t = [1] * 9 + [1] * 14 + [0] * 6 + [0] * 11
    o_c = [1] * 9 + [0] * 14 + [1] * 6 + [0] * 11
    pairs = pairs_from_outcomes(o_t, o_c)
    n, n_rep = 40, 4000
    est = effect_estimate(paired_counts(pairs), "dessert", n_rep=n_rep, seed=5)
    # the one draw the estimate takes all its intervals from
    rng = np.random.default_rng(derive_seed(5, "boot"))
    cells = rng.multinomial(n, np.array([9, 14, 6, 11]) / n, size=n_rep)
    assert (cells.sum(axis=1) == n).all()
    assert np.allclose(cells.mean(axis=0), [9, 14, 6, 11], atol=0.3)
    rd_vals = (cells[:, 1] - cells[:, 2]) / n
    assert est["rd_ci"] == np.percentile(rd_vals, [2.5, 97.5]).tolist()
    rr_vals = (cells[:, 0] + cells[:, 1]) / (cells[:, 0] + cells[:, 2])
    assert est["rr_ci"] == np.percentile(rr_vals, [2.5, 97.5]).tolist()
    p10, p01 = 14 / n, 6 / n
    se_rd = float(np.std(rd_vals, ddof=1))
    assert se_rd == pytest.approx(math.sqrt((p10 + p01 - (p10 - p01) ** 2) / n), rel=0.05)


# -- full estimate -----------------------------------------------------------


def test_effect_estimate_consistency():
    rng = np.random.default_rng(42)
    o_t = (rng.random(200) < 0.6).astype(np.uint8)
    o_c = (rng.random(200) < 0.4).astype(np.uint8)
    pairs = pairs_from_outcomes(o_t, o_c)
    c = paired_counts(pairs)
    est = effect_estimate(c, "dessert", n_rep=500, seed=11)
    assert est["n_pairs"] == c.n_pairs
    assert (est["chi2"], est["p"]) == paired_chi2(c)
    assert est["rd"] == risk_difference(c)
    assert est["rr"] == risk_ratio(c)
    assert est["rd_ci"][0] <= est["rd"] <= est["rd_ci"][1]
    assert est["rr_ci"][0] <= est["rr"] <= est["rr_ci"][1]
    assert est["rd_ci"][0] < est["rd_ci"][1]
    again = effect_estimate(c, "dessert", n_rep=500, seed=11)
    assert again == est
    other = effect_estimate(c, "dessert", n_rep=500, seed=12)
    assert other["rd_ci"] != est["rd_ci"] or other["rr_ci"] != est["rr_ci"]


def test_alpha_sets_the_interval_level():
    rng = np.random.default_rng(42)
    o_t = (rng.random(200) < 0.6).astype(np.uint8)
    o_c = (rng.random(200) < 0.4).astype(np.uint8)
    c = paired_counts(pairs_from_outcomes(o_t, o_c))
    wide = effect_estimate(c, "dessert", n_rep=500, seed=11, alpha=0.05)
    narrow = effect_estimate(c, "dessert", n_rep=500, seed=11, alpha=0.10)
    assert (narrow["rd"], narrow["rr"], narrow["p"]) == (wide["rd"], wide["rr"], wide["p"])
    for ci in ("rd_ci", "rr_ci"):
        (lo, hi), (w_lo, w_hi) = narrow[ci], wide[ci]
        assert w_lo <= lo <= hi <= w_hi and hi - lo < w_hi - w_lo, ci
    # the same draw, cut at the 5th and 95th percentiles
    rng = np.random.default_rng(derive_seed(11, "boot"))
    cells = rng.multinomial(c.n_pairs, np.array([c.n11, c.n10, c.n01, c.n00]) / c.n_pairs, 500)
    rd_vals = (cells[:, 1] - cells[:, 2]) / c.n_pairs
    assert narrow["rd_ci"] == np.percentile(rd_vals, [5, 95]).tolist()


def test_effect_estimate_dict_shape():
    counts = paired_counts(pairs_from_outcomes([1, 0, 1, 1], [0, 0, 1, 0]))
    d = effect_estimate(counts, "dessert", n_rep=50, seed=0)
    assert set(d) == ESTIMATE_KEYS
    assert d["item"] == "dessert" and d["stratum"] == "pooled" and d["n_pairs"] == 4
    assert effect_estimate(counts, "dessert", n_rep=50, seed=0, stratum="baseline") == dict(
        d, stratum="baseline"
    )


def test_naive_risk_difference():
    o_t = [1, 1, 0, 1]
    o_c = [0, 1, 0, 0]
    pairs = pairs_from_outcomes(o_t, o_c)
    # the fabricated dyads carry treatment on the partner basket, so the
    # unmatched contrast over all dyads reproduces the arm means
    naive = naive_risk_difference(pairs.dyads, "dessert")
    assert naive == pytest.approx(np.mean(o_t) - np.mean(o_c))
    with pytest.raises(NoPairsError):
        naive_risk_difference(pairs.dyads.subset(pairs.treated_idx), "dessert")


# -- subgroups ---------------------------------------------------------------


def test_subgroup_partner_status_partition():
    o_t = [1, 0, 1, 1, 0, 1, 1, 0]
    o_c = [0, 0, 1, 0, 0, 1, 0, 1]
    persons = ["ST1", "SF1"] * 4
    pairs = pairs_from_outcomes(o_t, o_c, partner_persons=persons)
    demo = M.Demographics(
        [M.PersonRecord("ST1", status="student"), M.PersonRecord("SF1", status="staff")]
    )
    subs = subgroup_estimates(pairs, "partner_status", demo, n_rep=50, seed=4, min_pairs=1)
    assert set(subs) == {"student", "staff"}
    assert subs["student"]["n_pairs"] + subs["staff"]["n_pairs"] == pairs.n
    assert subs["student"]["stratum"] == "partner_status:student"
    stu = pairs_from_outcomes(o_t[::2], o_c[::2])  # the ST1 pairs
    assert subs["student"]["rd"] == risk_difference(paired_counts(stu))
    capped = subgroup_estimates(pairs, "partner_status", demo, n_rep=50, seed=4, min_pairs=5)
    assert capped["student"]["rd"] is None and capped["student"]["n_pairs"] < 5
    # an undersized stratum keeps the estimate's shape, every estimate None
    assert set(capped["student"]) == ESTIMATE_KEYS
    assert capped["student"]["stratum"] == "partner_status:student"
    estimates = ESTIMATE_KEYS - {"item", "stratum", "n_pairs"}
    assert all(capped["student"][k] is None for k in estimates)


def test_subgroup_unknown_without_demographics():
    pairs = pairs_from_outcomes([1, 0], [0, 0])
    subs = subgroup_estimates(
        pairs, "focal_status", M.Demographics([]), n_rep=10, seed=0, min_pairs=1
    )
    assert set(subs) == {"unknown"}


def test_subgroup_structural_groupings():
    pairs = pairs_from_outcomes([1, 0, 1], [0, 0, 1])
    for grouping, label in [
        ("daypart", "lunch"),
        ("shop", "S1"),
        ("addition_item", "dessert"),
        ("year", "2018"),
        ("tie_strength_bins", "(0.75,1]"),
    ]:
        subs = subgroup_estimates(pairs, grouping, None, n_rep=10, seed=0, min_pairs=1)
        assert list(subs) == [label], grouping
        assert subs[label]["n_pairs"] == 3
        assert subs[label]["stratum"] == f"{grouping}:{label}"
    with pytest.raises(ValueError):
        subgroup_estimates(pairs, "partner_status", None, min_pairs=1)
    with pytest.raises(ValueError):
        subgroup_estimates(pairs, "nope", None, min_pairs=1)


def test_subgroup_seeds_are_stable():
    pairs = pairs_from_outcomes([1, 0, 1, 1, 0, 0], [0, 0, 1, 0, 1, 0])
    a = subgroup_estimates(pairs, "daypart", None, n_rep=100, seed=7, min_pairs=1)
    b = subgroup_estimates(pairs, "daypart", None, n_rep=100, seed=7, min_pairs=1)
    assert a["lunch"] == b["lunch"]


def attribute_per_row(log, demographics, attribute, rows):
    """Reference: each row's person looked up on its own."""
    out, years = [], M.calendar_year(log.ts)
    for i in rows:
        rec = demographics.get(log.persons[log.person_idx[i]])
        if rec is None or attribute != "age_tercile":
            out.append(rec and getattr(rec, attribute))
        elif rec.birth_year is None:
            out.append(None)
        else:
            age = int(years[i]) - rec.birth_year
            out.append(M.AGE_TERCILES[sum(age > cut for cut in M.AGE_CUTS)])
    return out


def labels_per_pair(pairs, grouping, demographics):
    """Reference: one stratum label per matched pair, built pair by pair."""
    d, log = pairs.dyads, pairs.dyads.log
    t = pairs.treated_idx
    if grouping == "addition_item":
        return [pairs.item] * pairs.n
    if grouping == "daypart":
        return [M.Daypart(int(v)).label for v in d.daypart[t]]
    if grouping == "shop":
        return [log.shops[s] for s in d.shop_idx[t]]
    if grouping == "year":
        return [str(y) for y in M.calendar_year(log.ts)[d.focal_i[t]]]
    if grouping == "tie_strength_bins":
        edges = (0.0, 0.25, 0.5, 0.75, 1.0)
        k = [sum(v > e for e in edges[1:-1]) for v in tie_strength_per_dyad(d)[t]]
        return [f"({edges[i]:g},{edges[i + 1]:g}]" for i in k]

    def attr(side, kind):
        rows = d.partner_i[t] if side == "partner" else d.focal_i[t]
        return [label or "unknown" for label in attribute_per_row(log, demographics, kind, rows)]

    if grouping == "status_pair":
        return [f"{a}-{b}" for a, b in zip(attr("partner", "status"), attr("focal", "status"))]
    side, _, kind = grouping.partition("_")
    return attr(side, "age_tercile" if kind == "age" else kind)


def test_labels_match_per_pair_reference():
    from copycart.context import compute_context
    from copycart.matching import build_matched_pairs
    from copycart.sim import SimulationConfig, simulate

    result = simulate(SimulationConfig(seed=2, n_persons=80, n_days=420, delta={"dessert": 0.2},
                                       demographics_known_fraction=0.7))
    log = result.log
    records = result.demographics().records()
    # a fifth of the persons unknown, and some birth years and genders unknown
    demo = M.Demographics(
        M.PersonRecord(r.person_id, None if k % 4 == 1 else r.gender, r.status,
                       None if k % 3 == 2 else r.birth_year)
        for k, r in enumerate(records) if k % 5 != 0
    )
    rows = np.random.default_rng(0).integers(0, log.n, 3000)
    for attribute in M.ATTRIBUTE_LABELS:
        got = M.person_attribute(log, demo, attribute, rows)
        assert got.tolist() == attribute_per_row(log, demo, attribute, rows), attribute
    assert None in got.tolist() and len(set(got.tolist())) == 4
    pairs = build_matched_pairs(extract_dyads(reconstruct_queues(log)), "dessert", compute_context(log))
    assert pairs.n > 200
    for grouping in GROUPINGS:
        want = labels_per_pair(pairs, grouping, demo)
        assert _pair_labels(pairs, grouping, demo).tolist() == want, grouping
        assert len(set(want)) > (grouping != "addition_item"), grouping
    assert {"unknown-student", "staff-unknown"} <= set(labels_per_pair(pairs, "status_pair", demo))


# -- strata and bins against pair sets built per stratum --------------------

STATUS_OF = {"ST1": "student", "SF1": "staff"}  # partner UN1 has no record: unknown


def stratum_reference(o_t, o_c, sel, seed, stratum, n_rep):
    """`effect_estimate` on a pair set built from the selected pairs alone,
    whose paired counts are first checked against a tally of the outcomes."""
    t, c = o_t[sel], o_c[sel]
    counts = paired_counts(pairs_from_outcomes(t, c))
    tally = [int(np.sum(t & c)), int(np.sum(t & ~c)), int(np.sum(~t & c)), int(np.sum(~t & ~c))]
    assert [counts.n11, counts.n10, counts.n01, counts.n00] == tally
    return effect_estimate(counts, "dessert", n_rep, seed, 0.05, stratum)


@st.composite
def stratified_pairs(draw):
    """(o_t, o_c, partner persons, delays, min_pairs, max_delay_s) of n pairs."""
    n = draw(st.integers(1, 20))

    def column(elements):
        return draw(st.lists(elements, min_size=n, max_size=n))

    persons = column(st.sampled_from(["ST1", "SF1", "UN1"]))
    delays = column(st.integers(1, 299))
    min_pairs = draw(st.integers(1, n + 1))
    return (column(st.booleans()), column(st.booleans()), persons, delays, min_pairs,
            draw(st.sampled_from([90, 150, 300])))


@settings(derandomize=True, deadline=None, database=None, max_examples=40)
@given(case=stratified_pairs())
@example(case=([True, False, True, True], [False, False, True, False], ["ST1"] * 4,
               [10, 40, 70, 100], 1, 300))  # a single stratum
@example(case=([True, False, True, False, True], [True, True, False, False, False],
               ["ST1", "SF1", "UN1", "ST1", "SF1"], [5, 35, 65, 95, 125], 3, 300))  # every stratum undersized
@example(case=([True, True, False, True, False], [False, True, False, False, True],
               ["ST1", "SF1", "ST1", "SF1", "UN1"], [10, 40, 70, 250, 299], 2, 90))  # delays past max_delay_s
def test_strata_and_bins_match_pair_sets_built_per_stratum(case):
    o_t, o_c, persons, delays, min_pairs, max_delay_s = case
    o_t, o_c, delays = np.asarray(o_t), np.asarray(o_c), np.asarray(delays)
    pairs = pairs_from_outcomes(o_t, o_c, delays=delays, partner_persons=persons)
    demo = M.Demographics([M.PersonRecord(p, status=s) for p, s in STATUS_OF.items()])
    n_rep, seed = 20, 5

    labels = np.asarray([STATUS_OF.get(p, "unknown") for p in persons])
    subs = subgroup_estimates(pairs, "partner_status", demo, n_rep, seed, min_pairs, 0.05)
    assert list(subs) == sorted(set(labels.tolist()))
    for label, got in subs.items():
        sel = labels == label
        stratum = f"partner_status:{label}"
        if sel.sum() < min_pairs:
            want = dict.fromkeys(ESTIMATE_KEYS) | {"item": "dessert", "stratum": stratum, "n_pairs": sel.sum()}
        else:
            want = stratum_reference(o_t, o_c, sel, derive_seed(seed, "partner_status", label), stratum, n_rep)
        assert got == want, label

    # a delay past max_delay_s falls in the last bin
    bin_of = np.minimum(delays // 30, math.ceil(max_delay_s / 30) - 1)
    occupied = sorted(set(bin_of.tolist()))
    if len(occupied) < 3:
        with pytest.raises(InsufficientBinsError):
            dose_response(pairs, max_delay_s, n_rep, seed, 0.05)
        return
    want = []
    for b in occupied:
        stratum = f"delay<= {30 * b + 30}s"
        est = stratum_reference(o_t, o_c, bin_of == b, derive_seed(seed, "dose", b), stratum, n_rep)
        want.append({"midpoint_s": 30 * b + 15.0, **est})
    assert dose_response(pairs, max_delay_s, n_rep, seed, 0.05)["bins"] == want


# -- anchor mimicry ----------------------------------------------------------


def _anchor_fixture():
    rows = []
    base = np.datetime64("2018-03-01")
    menu = [("MEALV", "MEALV"), ("MEALV", "MEALS"), ("MEALS", "MEALV"), ("MEALS", "MEALS")]
    for k in range(8):
        day = str(base + k)
        pi, fi = menu[k % 4]
        rows.append(f"VP{k},PA,{day}T12:00:00,S1,R1,{pi}")
        rows.append(f"VF{k},FB,{day}T12:01:00,S1,R1,{fi}")
    log = parse_csv("\n".join(rows) + "\n")
    dyads = extract_dyads(reconstruct_queues(log))
    assert dyads.n == 8
    cells = [("S1", str(base + k), M.Daypart.LUNCH, {}) for k in range(8)]
    return dyads, make_context(log, cells)


def test_anchor_mimicry_vegetarian():
    dyads, ctx = _anchor_fixture()
    est = anchor_mimicry(dyads, ctx, "meal_vegetarian", n_rep=50, seed=3)
    assert est["item"] == "meal_vegetarian"
    assert est["stratum"] == "anchor:meal_vegetarian"
    assert est["n_pairs"] == 4
    # outcomes: veg-partner dyads have focal veg 1,0; controls 1,0: rd = 0
    assert est["rd"] == 0.0


def test_anchor_mimicry_validation():
    dyads, ctx = _anchor_fixture()
    with pytest.raises(ValueError):
        anchor_mimicry(dyads, ctx, "spiciness")
    with pytest.raises(NoPairsError):
        # no breakfast/afternoon dyads at all
        anchor_mimicry(dyads, ctx, "beverage_kind")


# -- trend fitting -----------------------------------------------------------


def test_ols_line_exact_and_edge_cases():
    slope, intercept, p, se = ols_line(np.asarray([0.0, 1, 2]), np.asarray([1.0, 3, 5]))
    assert (slope, intercept, se) == (2.0, 1.0, 0.0)
    assert p == 0.0
    slope, intercept, p, se = ols_line(np.asarray([0.0, 1, 2]), np.asarray([4.0, 4, 4]))
    assert (slope, intercept, p) == (0.0, 4.0, 1.0)
    with pytest.raises(ValueError):
        ols_line(np.asarray([1.0, 2]), np.asarray([1.0, 2]))
    with pytest.raises(ValueError):
        ols_line(np.asarray([2.0, 2, 2]), np.asarray([1.0, 2, 3]))


def test_ols_line_matches_reference():
    rng = np.random.default_rng(17)
    x = rng.random(40) * 10
    y = 0.3 * x + rng.normal(0, 0.5, 40)
    slope, intercept, p, se = ols_line(x, y)
    ref = sps.linregress(x, y)
    assert slope == pytest.approx(ref.slope, rel=1e-12)
    assert intercept == pytest.approx(ref.intercept, rel=1e-12)
    assert p == pytest.approx(ref.pvalue, rel=1e-10)
    assert se == pytest.approx(ref.stderr, rel=1e-12)


def test_dose_response_noiseless_slope():
    per_bin = 250
    o_t, o_c, delays = [], [], []
    for b in range(10):
        k = 200 - 3 * b  # rd drops 0.012 per 30 s bin: slope -0.0004 per s
        o_t += [1] * k + [0] * (per_bin - k)
        o_c += [0] * per_bin
        delays += [b * 30 + 15] * per_bin
    pairs = pairs_from_outcomes(o_t, o_c, delays=delays)
    res = dose_response(pairs, n_rep=10, seed=0)
    assert len(res["bins"]) == 10
    assert [b["n_pairs"] for b in res["bins"]] == [per_bin] * 10
    assert res["slope_rd"] == pytest.approx(-0.0004, abs=1e-9)
    assert res["intercept_rd"] == pytest.approx(0.806, abs=1e-9)
    assert res["p_rd"] < 0.01
    mids = [b["midpoint_s"] for b in res["bins"]]
    assert mids == [30 * b + 15.0 for b in range(10)]


def test_dose_response_bins_and_errors():
    pairs = pairs_from_outcomes([1, 0, 1, 1], [0, 0, 1, 0], delays=[10, 20, 10, 15])
    with pytest.raises(InsufficientBinsError):
        dose_response(pairs, n_rep=5, seed=0)
    # delays beyond the last edge fold into the final bin
    pairs2 = pairs_from_outcomes(
        [1, 0, 1, 1, 0, 1], [0, 0, 1, 0, 1, 0], delays=[10, 10, 40, 40, 95, 295]
    )
    res = dose_response(pairs2, max_delay_s=90, n_rep=5, seed=0)
    assert [b["midpoint_s"] for b in res["bins"]] == [15.0, 45.0, 75.0]
    assert [b["n_pairs"] for b in res["bins"]] == [2, 2, 2]
    assert {"item", "slope_rd", "p_rd", "slope_rr", "p_rr", "bins"} <= set(res)
    # a huge max_delay_s visits only the four bins that hold pairs
    res = dose_response(pairs2, max_delay_s=10**9, n_rep=5, seed=0)
    assert [b["midpoint_s"] for b in res["bins"]] == [15.0, 45.0, 105.0, 285.0]


def test_dose_response_deterministic():
    rng = np.random.default_rng(3)
    o_t = (rng.random(90) < 0.5).astype(int)
    o_c = (rng.random(90) < 0.3).astype(int)
    delays = rng.integers(0, 300, 90)
    pairs = pairs_from_outcomes(o_t, o_c, delays=delays)
    a = dose_response(pairs, n_rep=40, seed=5)
    b = dose_response(pairs, n_rep=40, seed=5)
    assert a == b
