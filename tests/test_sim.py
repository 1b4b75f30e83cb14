"""Synthetic queue generator: structure, injected effects, determinism."""

import dataclasses
import hashlib
import io
import json
from unittest import mock

import numpy as np
import pytest

from copycart import model as M
from copycart.context import compute_context
from copycart.dyads import extract_dyads, filter_frequent_pairs, reconstruct_queues
from copycart.errors import ConfigError
from copycart.estimate import anchor_mimicry, effect_estimate, paired_counts
from copycart.matching import AdjustmentSpec, build_matched_pairs
from copycart.sim import (
    COFFEE_SHARE,
    VEG_SHARE,
    SimulationConfig,
    generate_population,
    simulate,
    write_simulation,
)
from test_model import tx_ids


def small_config(**kw):
    base = dict(seed=5, n_persons=120, n_shops=1, n_registers_per_shop=2, n_days=40)
    base.update(kw)
    return SimulationConfig(**base)


# -- config validation -------------------------------------------------------


def test_config_rejects_bad_values():
    with pytest.raises(ConfigError):
        SimulationConfig(seed=1, visit_rate=1.5)
    with pytest.raises(ConfigError):
        SimulationConfig(seed=1, delta={"dessert": 2.0})
    with pytest.raises(ConfigError):
        SimulationConfig(seed=1, base_probs={"lunch": {"caviar": 0.1}})
    with pytest.raises(ConfigError):
        SimulationConfig(seed=1, coordination_mode="telepathy")
    with pytest.raises(ConfigError):
        SimulationConfig(seed=1, decay_tau=0.0)
    with pytest.raises(ConfigError):
        SimulationConfig(seed=1, status_mix={"student": 0.5, "staff": 0.4})
    with pytest.raises(ConfigError, match="postdoc"):
        SimulationConfig(seed=1, status_mix={"student": 0.5, "postdoc": 0.5})
    with pytest.raises(ConfigError, match="desert"):
        SimulationConfig(seed=1, delta={"desert": 0.15})


def test_config_rejects_infeasible_pair_graph():
    with pytest.raises(ConfigError):
        SimulationConfig(seed=1, n_persons=10, pairs=[(0, 0)])
    with pytest.raises(ConfigError):
        SimulationConfig(seed=1, n_persons=10, pairs=[(0, 11)])
    with pytest.raises(ConfigError):
        SimulationConfig(seed=1, n_persons=10, pairs=[(0, 1), (1, 2)])


def test_config_bounds_the_sort_key():
    # a log has at most 2 * n_persons * n_days rows, so the packed
    # (ts, shop, register, row) key stays below this product
    others = dict(n_days=250, n_shops=2, n_registers_per_shop=3)
    largest = (2**63 - 1) // (172800 * 250**2 * 2 * 3)
    assert SimulationConfig(seed=1, n_persons=largest, **others).n_persons == largest
    with pytest.raises(ConfigError, match="n_days, n_shops, n_registers_per_shop and n_persons"):
        SimulationConfig(seed=1, n_persons=largest + 1, **others)


def test_config_round_trips_through_dict():
    cfg = small_config(delta={"dessert": 0.1}, decay_tau=90.0)
    again = SimulationConfig.from_dict(dataclasses.asdict(cfg))
    assert again == cfg
    with pytest.raises(ConfigError):
        SimulationConfig.from_dict({"seed": 1, "n_llamas": 3})


# -- population --------------------------------------------------------------


def test_homophily_controls_pair_propensity_correlation():
    # stated contract: measured correlation within +-0.05 over 1000 pairs
    for h in (0.0, 0.8):
        pop = generate_population(SimulationConfig(seed=2, n_persons=2600, homophily=h))
        assert pop.pairs.shape[0] >= 1000
        z = pop.propensity_z["dessert"]
        r = np.corrcoef(z[pop.pairs[:, 0]], z[pop.pairs[:, 1]])[0, 1]
        assert abs(r - h) < 0.05


def test_unpaired_persons_keep_unit_variance():
    pop = generate_population(
        SimulationConfig(seed=3, n_persons=4000, pair_fraction=0.5, homophily=0.9)
    )
    paired = np.zeros(pop.n, bool)
    paired[pop.pairs.ravel()] = True
    z = pop.propensity_z["dessert"]
    assert abs(z[~paired].std() - 1.0) < 0.06
    assert abs(z[paired].std() - 1.0) < 0.06


def test_assortative_pairs_share_status():
    pop = generate_population(SimulationConfig(seed=4, n_persons=600))
    a, b = pop.pairs[:, 0], pop.pairs[:, 1]
    assert (pop.status_idx[a] == pop.status_idx[b]).all()


def test_explicit_pair_list_is_used_verbatim():
    cfg = small_config(pairs=[(0, 1), (5, 3)])
    pop = generate_population(cfg)
    assert pop.pairs.tolist() == [[0, 1], [5, 3]]


def test_demographics_cover_population_and_respect_known_fraction():
    pop = generate_population(small_config())
    demo = pop.demographics(known_fraction=1.0, rng=np.random.default_rng(0))
    assert len(demo.records()) == pop.n
    rec = demo.get("P00007")
    assert rec.status in ("student", "staff", "other")
    assert rec.gender in ("female", "male")
    assert 1950 <= rec.birth_year <= 2000
    partial = pop.demographics(known_fraction=0.5, rng=np.random.default_rng(0))
    known = sum(r.status is not None for r in partial.records())
    assert 0.3 * pop.n < known < 0.7 * pop.n


# -- log structure ------------------------------------------------------------


def test_log_is_valid_and_well_formed():
    res = simulate(small_config())
    log = res.log
    assert log.n > 500
    # one anchor per basket, matched to the daypart
    for i in range(0, log.n, 7):
        basket = log.basket_table[log.basket_idx[i]]
        anchors = [c for c in basket if c.startswith(("MEAL", "COFFEE", "TEA"))]
        assert len(anchors) == 1
        if log.daypart[i] == M.Daypart.LUNCH.value:
            assert anchors[0].startswith("MEAL")
        else:
            assert anchors[0] in ("COFFEE", "TEA")
    assert (log.daypart != M.Daypart.OUT_OF_WINDOW.value).all()
    # the anchor subtypes come in their configured shares
    lunch = log.daypart == M.Daypart.LUNCH.value
    assert abs(((log.mask >> M.BIT_MEAL_VEG) & 1)[lunch].mean() - VEG_SHARE) < 0.06
    assert abs(((log.mask >> M.BIT_COFFEE) & 1)[~lunch].mean() - COFFEE_SHARE) < 0.06
    assert len(set(tx_ids(log))) == log.n
    # serialize/parse round trip preserves the log
    buf = io.StringIO()
    M.serialize_transactions(res.log, buf)
    again = M.parse_transactions(io.StringIO(buf.getvalue()), res.catalog)
    assert again.report.n_rejected == 0
    assert tx_ids(again) == tx_ids(log)
    assert (again.ts == log.ts).all()


def test_tied_rows_come_in_canonical_order():
    # one shop and one register: thousands of rows tie on (ts, shop, register);
    # with ten registers or a hundred shops, tied rows stay in order only while
    # the labels sort as their numbers do (`R10` after `R02`, not before `R2`)
    logs = []
    for shops, registers in ((1, 1), (1, 10), (100, 1)):
        cfg = SimulationConfig(seed=1, n_shops=shops, n_registers_per_shop=registers, n_persons=4000,
                               n_days=3, visit_rate=1.0, solo_rate=1.0)
        with mock.patch.object(M.np, "lexsort", wraps=np.lexsort) as lexsort:
            log = simulate(cfg).log
            assert lexsort.call_count == 0, (shops, registers)  # the log kept the simulator's order
        want = np.lexsort((log.tx_idx, log.register_idx, log.shop_idx, log.ts))
        assert np.array_equal(want, np.arange(log.n))
        ids = tx_ids(log)
        assert ids == sorted(ids), (shops, registers)
        logs.append(log)
    log = logs[0]
    assert log.n == 21594
    keys = np.stack([log.ts, log.shop_idx, log.register_idx], axis=1)
    assert (keys[1:] == keys[:-1]).all(axis=1).sum() > 2000
    buf = io.StringIO()
    M.serialize_transactions(log, buf)
    digest = hashlib.sha256(buf.getvalue().encode()).hexdigest()
    assert digest == "caec6f1fc5de57c66d92d80dd66c5b3cbf50e084a70ea12dd044a4e38fb7efe9"
    assert logs[1].registers[-2:] == ["R09", "R10"] and logs[2].shops[-2:] == ["S099", "S100"]


def test_no_visits_write_a_header_only_log(tmp_path):
    res = simulate(small_config(visit_rate=0.0, solo_rate=0.0))
    assert res.log.n == 0
    paths = write_simulation(res, tmp_path)
    with open(paths["transactions"], "rb") as fh:
        assert fh.read() == (",".join(M.TRANSACTION_COLUMNS) + "\n").encode()


def test_pair_visit_rows_are_adjacent_with_capped_gap():
    cfg = small_config(solo_rate=0.0, visit_rate=0.3)
    res = simulate(cfg)
    dyads = extract_dyads(reconstruct_queues(res.log))
    assert dyads.n > 100
    assert (dyads.delay_s >= 1).all() and (dyads.delay_s <= 300).all()
    # with no solo shoppers, every dyad joins the two members of one pair
    pop = res.population
    pair_of = {}
    for a, b in pop.pairs:
        pair_of[pop.person_ids[a]] = pop.person_ids[b]
        pair_of[pop.person_ids[b]] = pop.person_ids[a]
    persons = res.log.persons
    ok = 0
    for k in range(dyads.n):
        p = persons[dyads.partner_person[k]]
        f = persons[dyads.focal_person[k]]
        ok += pair_of.get(p) == f
    assert ok / dyads.n > 0.85  # rest are back-to-back different visits


def test_uniform_gap_distribution_spans_bins():
    res = simulate(small_config(gap_dist="uniform", solo_rate=0.0))
    dyads = extract_dyads(reconstruct_queues(res.log))
    binned = np.clip(dyads.delay_s // 30, 0, 9)
    assert set(np.unique(binned)) == set(range(10))


def test_summer_break_shows_in_student_months():
    cfg = SimulationConfig(
        seed=9,
        n_persons=400,
        n_shops=1,
        n_days=365,
        status_mix={"student": 0.5, "staff": 0.5},
    )
    res = simulate(cfg)
    log = res.log
    demo = res.population
    by_person = {demo.person_ids[i]: demo.status_of(i) for i in range(demo.n)}
    months = log.month
    is_student = np.asarray([by_person[log.persons[i]] == "student" for i in log.person_idx])
    summer = np.isin(months, (7, 8))
    stu_summer = float((summer & is_student).sum()) / max(is_student.sum(), 1)
    staff_rows = ~is_student
    staff_summer = float((summer & staff_rows).sum()) / max(staff_rows.sum(), 1)
    assert stu_summer < 0.05
    assert staff_summer > 0.10


def directional_rates(res):
    """Focal purchase rate among treated dyads, split by queue direction.

    Only genuine pair-mate dyads count; chance adjacencies between visits
    carry no effect and their partner is usually a previous visit's focal,
    which would skew the reverse direction.
    """
    dyads = extract_dyads(reconstruct_queues(res.log))
    pop = res.population
    index = {pid: i for i, pid in enumerate(pop.person_ids)}
    in_pop = np.asarray([index[p] for p in res.log.persons])  # log person -> population index
    partner, focal = in_pop[dyads.partner_person], in_pop[dyads.focal_person]
    mate = np.full(pop.n, -1)
    mate[pop.pairs[:, 0]], mate[pop.pairs[:, 1]] = pop.pairs[:, 1], pop.pairs[:, 0]
    genuine = mate[partner] == focal
    is_leader = np.zeros(pop.n, bool)
    is_leader[pop.pairs[:, 0]] = True
    partner_is_leader = is_leader[partner]
    treated = dyads.partner_has("dessert") & genuine
    focal_buys = dyads.focal_has("dessert")
    r_fwd = focal_buys[treated & partner_is_leader].mean()
    r_rev = focal_buys[treated & ~partner_is_leader].mean()
    return float(r_fwd), float(r_rev)


# -- injected effects ---------------------------------------------------------


def test_ground_truth_matches_injected_delta():
    res = simulate(SimulationConfig(seed=21, delta={"dessert": 0.15}))
    gt = res.ground_truth
    assert gt.delta["dessert"] == 0.15
    # clipping only bites where p_focal > 0.85: truth slightly below 0.15
    assert 0.135 <= gt.expected_rd["dessert"] <= 0.15
    assert gt.expected_rd["fruit"] == 0.0
    assert gt.n_treated_events["dessert"] > 1000


def test_null_config_has_zero_ground_truth():
    res = simulate(small_config())
    assert all(v == 0.0 for v in res.ground_truth.expected_rd.values())


def test_decay_lowers_expected_effect():
    kw = dict(seed=22, delta={"dessert": 0.3})
    plain = simulate(SimulationConfig(**kw))
    decayed = simulate(SimulationConfig(**kw, decay_tau=60.0))
    assert decayed.ground_truth.expected_rd["dessert"] < 0.6 * plain.ground_truth.expected_rd["dessert"]


def test_matched_estimate_recovers_injected_effect():
    res = simulate(SimulationConfig(seed=23, delta={"dessert": 0.15}))
    ctx = compute_context(res.log)
    dyads = filter_frequent_pairs(extract_dyads(reconstruct_queues(res.log)), 10)
    pairs = build_matched_pairs(
        dyads, "dessert", ctx, AdjustmentSpec(exclude_own_transactions=True)
    )
    est = effect_estimate(paired_counts(pairs), "dessert", n_rep=400, seed=1)
    assert abs(est["rd"] - res.ground_truth.expected_rd["dessert"]) < 0.02


@pytest.mark.parametrize(
    "mimicked, attribute, other",
    [("meal_vegetarian", "meal_vegetarian", "beverage_kind"),
     ("coffee", "beverage_kind", "meal_vegetarian")],
)
def test_anchor_delta_lifts_only_its_anchor(mimicked, attribute, other):
    cfg = SimulationConfig(seed=41, n_persons=600, n_days=120, anchor_delta={mimicked: 0.3})
    res = simulate(cfg)
    assert set(res.ground_truth.expected_rd) == set(cfg.items)  # anchors carry no truth
    ctx = compute_context(res.log)
    dyads = filter_frequent_pairs(extract_dyads(reconstruct_queues(res.log)), 10)
    lifted = anchor_mimicry(dyads, ctx, attribute, n_rep=200, seed=1)
    assert lifted["rd_ci"][0] > 0.0
    null = anchor_mimicry(dyads, ctx, other, n_rep=200, seed=1)
    assert null["rd_ci"][0] < 0.0 < null["rd_ci"][1]


def test_pre_agreement_outcome_ignores_queue_order():
    # with a leader-first skew a queue-directional effect would show up as
    # different focal rates by direction; agreement beforehand must not
    diffs = []
    for seed in (24, 25):
        cfg = SimulationConfig(
            seed=seed,
            n_persons=1000,
            n_shops=1,
            n_days=250,
            coordination_mode="pre_agreement",
            leader_first_prob=0.8,
            delta={"dessert": 0.4},
            solo_rate=0.0,
        )
        r_fwd, r_rev = directional_rates(simulate(cfg))
        diffs.append(r_fwd - r_rev)
    assert abs(float(np.mean(diffs))) < 0.04


def test_susceptible_follower_creates_order_asymmetry():
    cfg = SimulationConfig(
        seed=25,
        n_persons=600,
        n_shops=1,
        n_days=200,
        leader_first_prob=0.65,
        susceptibility_asymmetry=1.0,
        delta={"dessert": 0.4},
        solo_rate=0.0,
    )
    # forward: exposed focal is the susceptible follower; reverse: the leader
    r_fwd, r_rev = directional_rates(simulate(cfg))
    assert r_fwd - r_rev > 0.25


def test_degenerate_single_person_population():
    cfg = SimulationConfig(
        seed=1, n_persons=1, n_shops=1, n_days=10, pair_fraction=0.0, solo_rate=1.0
    )
    res = simulate(cfg)
    assert res.population.pairs.shape[0] == 0
    assert res.log.n >= 1
    assert all(v == 0 for v in res.ground_truth.n_treated_events.values())


# -- output and determinism ---------------------------------------------------


def test_write_simulation_is_deterministic(tmp_path):
    # settings that draw beyond the default path: decay, an anchor effect, homophily
    draws = dict(delta={"dessert": 0.1}, decay_tau=60.0, anchor_delta={"coffee": 0.2}, homophily=0.5)
    cfg = small_config(**draws)
    p1 = write_simulation(simulate(cfg), tmp_path / "a")
    p2 = write_simulation(simulate(cfg), tmp_path / "b")
    for key in ("transactions", "catalog", "demographics", "ground_truth"):
        b1 = open(p1[key], "rb").read()
        b2 = open(p2[key], "rb").read()
        assert b1 == b2, key
    # a different seed changes the transcript
    p3 = write_simulation(simulate(small_config(seed=6, **draws)), tmp_path / "c")
    assert open(p3["transactions"], "rb").read() != open(p1["transactions"], "rb").read()


def test_written_files_parse_back(tmp_path):
    res = simulate(small_config())
    paths = write_simulation(res, tmp_path)
    catalog = M.ItemCatalog.from_csv(paths["catalog"])
    log = M.parse_transactions(paths["transactions"], catalog)
    assert log.report.n_rejected == 0 and log.n == res.log.n
    demo = M.Demographics.from_csv(paths["demographics"])
    assert len(demo.records()) == res.population.n
    gt = json.load(open(paths["ground_truth"]))
    assert set(gt) == {
        "expected_rd",
        "n_treated_events",
        "delta",
        "decay_tau",
        "coordination_mode",
    }
