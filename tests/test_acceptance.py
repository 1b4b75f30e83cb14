"""End-to-end acceptance gate.

Each test covers one numbered shipping criterion and prints a single
"ACCEPTANCE n: PASS/FAIL" line (collected into the terminal summary by
conftest).  The heavy criteria run 100 seeded simulator replications each,
so this module dominates suite runtime by design.
"""

import os
import time

import numpy as np
import pytest
import scipy.stats as sps
import yaml
from click.testing import CliRunner

from conftest import record
from copycart.baseline import coordination_test, randomize_partners
from copycart.cli.main import main as cli_main
from copycart.context import compute_context
from copycart.dyads import extract_dyads, filter_frequent_pairs, reconstruct_queues
from copycart.errors import InsufficientDataError
from copycart.estimate import (
    PairedCounts,
    dose_response,
    effect_estimate,
    naive_risk_difference,
    ols_line,
    paired_chi2,
    paired_counts,
    risk_difference,
    risk_ratio,
)
from copycart.matching import AdjustmentSpec, balance_report, build_matched_pairs
from copycart.sensitivity import sensitivity_result, worst_case_p
from copycart.infer import feature_matrix, train_status_model
from copycart.sim import DAYPART_LABELS, SimulationConfig, simulate

from test_estimate import marginal
from test_kernels import replicate_tables
from test_sensitivity import gamma_of

pytestmark = pytest.mark.acceptance

SPEC = AdjustmentSpec(exclude_own_transactions=True)


def boot_seed(cfg) -> int:
    return int(cfg.seed) + 77


def matched_estimate(cfg, item="dessert", randomize=None, n_boot=1000):
    """The standard analysis path: simulate, filter, match, estimate."""
    res = simulate(cfg)
    dyads = filter_frequent_pairs(extract_dyads(reconstruct_queues(res.log)), 10)
    if randomize is not None:
        dyads = randomize_partners(dyads, randomize)
    ctx = compute_context(res.log)
    pairs = build_matched_pairs(dyads, item, ctx, SPEC)
    est = effect_estimate(paired_counts(pairs), item, n_boot, seed=boot_seed(cfg))
    return res, dyads, pairs, est


def test_1_published_contingency_fixture():
    t0 = time.perf_counter()
    counts = PairedCounts(n11=3042, n10=12119, n01=5221, n00=28111)
    (ty, _), (cy, _) = marginal(counts)
    rd = risk_difference(counts)
    rr = risk_ratio(counts)
    ratio = counts.n10 / counts.n01
    chi2, p = paired_chi2(counts)
    took = time.perf_counter() - t0
    ok = (
        counts.n_pairs == 48493
        and (ty, cy) == (15161, 8263)
        and abs(rd - 0.1422) <= 0.0001
        and abs(rr - 1.835) <= 0.001
        and abs(ratio - 2.32) <= 0.01
        and abs(chi2 - 2744) < 1.0
        and p < 1e-12
        and took < 1.0
    )
    assert record(
        1, ok,
        f"rd {rd:.6f}, rr {rr:.4f}, discordant ratio {ratio:.4f}, "
        f"chi2 {chi2:.1f}, p {p:.2e}, {took * 1e3:.1f} ms",
    )


def test_2_simulator_oracle_recovery():
    in_range = covered = 0
    worst_rd = (0.15, 0.15)
    max_secs = 0.0
    for seed in range(100):
        t0 = time.perf_counter()
        cfg = SimulationConfig(seed=seed, delta={"dessert": 0.15}, homophily=0.0)
        res, _dyads, _pairs, est = matched_estimate(cfg)
        max_secs = max(max_secs, time.perf_counter() - t0)
        truth = res.ground_truth.expected_rd["dessert"]
        in_range += 0.12 <= est["rd"] <= 0.18
        covered += est["rd_ci"][0] <= truth <= est["rd_ci"][1]
        worst_rd = (min(worst_rd[0], est["rd"]), max(worst_rd[1], est["rd"]))
    ok = in_range == 100 and covered >= 93 and max_secs < 60.0
    assert record(
        2, ok,
        f"rd within [0.12, 0.18] in {in_range}/100, truth covered in "
        f"{covered}/100, rd range [{worst_rd[0]:.4f}, {worst_rd[1]:.4f}], "
        f"slowest rep {max_secs:.1f} s",
    )


def test_3_null_and_randomized_baseline():
    null_cfg = SimulationConfig(seed=101)
    _res, _dyads, null_pairs, null_est = matched_estimate(null_cfg)
    # the bootstrap SE: the spread of the RD over the replicate tables the
    # estimate's intervals come from
    tables = replicate_tables(null_pairs, 1000, boot_seed(null_cfg))
    null_se = float(np.std((tables[:, 1] - tables[:, 2]) / null_pairs.n, ddof=1))
    null_ok = abs(null_est["rd"]) <= 3.0 * null_se
    cfg = SimulationConfig(seed=201, delta={"dessert": 0.15})
    _res, _dyads, _pairs, base_est = matched_estimate(cfg, randomize=206)
    base_ok = abs(base_est["rd"]) <= 0.02
    assert record(
        3, null_ok and base_ok,
        f"null rd {null_est['rd']:+.4f} vs 3 se {3 * null_se:.4f}; "
        f"shuffled-partner rd {base_est['rd']:+.4f}",
    )


def test_4_homophily_confound_removed_by_matching():
    cfg = SimulationConfig(seed=301, homophily=0.8)
    _res, dyads, pairs, est = matched_estimate(cfg)
    naive = naive_risk_difference(dyads, "dessert")
    smd_after = balance_report(pairs)["covariates"]["popularity"]["after"]
    ok = naive > 0.05 and abs(est["rd"]) <= 0.02 and abs(smd_after) < 0.2
    assert record(
        4, ok,
        f"naive excess {naive:+.4f}, matched rd {est['rd']:+.4f}, "
        f"popularity smd after {smd_after:+.3f}",
    )


def test_5_sensitivity_correctness():
    rng = np.random.default_rng(5)
    max_err = 0.0
    for _ in range(20):
        d = int(rng.integers(1, 61))
        n10 = int(rng.integers(0, d + 1))
        counts = PairedCounts(
            n11=int(rng.integers(0, 50)), n10=n10, n01=d - n10,
            n00=int(rng.integers(0, 50)),
        )
        got = worst_case_p(counts, 1.0)
        if counts.n10 >= counts.n01:
            want = float(sps.binom.sf(counts.n10 - 1, d, 0.5))
        else:
            want = float(sps.binom.cdf(counts.n10, d, 0.5))
        max_err = max(max_err, abs(got - want))
    exact_ok = max_err <= 1e-12

    counts = PairedCounts(n11=10, n10=60, n01=40, n00=10)
    grid = np.linspace(1.0, 8.0, 50)
    ps = [worst_case_p(counts, g) for g in grid]
    mono_ok = all(b >= a - 1e-15 for a, b in zip(ps, ps[1:]))

    res = sensitivity_result(PairedCounts(n11=300, n10=900, n01=300, n00=1500))
    amp_err = max(
        abs(gamma_of(lam, delta) - res["gamma_star"])
        for lam, delta in res["curve"]
    )
    amp_ok = amp_err <= 1e-9 and len(res["curve"]) > 0

    point = gamma_of(5.0, 9.8)
    point_ok = abs(point - 3.378) <= 0.001

    ok = exact_ok and mono_ok and amp_ok and point_ok
    assert record(
        5, ok,
        f"exact-tail max err {max_err:.1e}, monotone {mono_ok}, "
        f"amplification max err {amp_err:.1e}, gamma(5.0, 9.8) {point:.4f}",
    )


def test_6_dose_response_decay():
    x = np.arange(15.0, 300.0, 30.0)
    y = 0.32 - 0.0004 * x
    slope, _icept, _p, _se = ols_line(x, y)
    noiseless_ok = abs(slope - (-0.0004)) <= 1e-9

    rejections = 0
    for seed in range(400, 500):
        cfg = SimulationConfig(
            seed=seed, n_persons=1200, n_days=250, visit_rate=0.5,
            delta={"dessert": 0.25}, decay_tau=120.0, gap_dist="uniform",
        )
        res = simulate(cfg)
        dyads = filter_frequent_pairs(extract_dyads(reconstruct_queues(res.log)), 10)
        pairs = build_matched_pairs(
            dyads, "dessert", compute_context(res.log), SPEC
        )
        d = dose_response(pairs, n_rep=400, seed=seed + 9)
        rejections += d["slope_rd"] < 0.0 and d["p_rd"] < 0.01
    ok = noiseless_ok and rejections >= 95
    assert record(
        6, ok,
        f"noiseless slope err {abs(slope + 0.0004):.1e}, negative trend "
        f"detected in {rejections}/100 seeds",
    )


def _coordination_p(seed, mode, asym, leader_first):
    base = {dp: {"dessert": 0.5} for dp in DAYPART_LABELS}
    cfg = SimulationConfig(
        seed=seed, n_persons=600, n_days=250, visit_rate=0.6, solo_rate=0.1,
        base_probs=base, delta={"dessert": 0.4}, coordination_mode=mode,
        leader_first_prob=leader_first, susceptibility_asymmetry=asym,
    )
    res = simulate(cfg)
    dyads = filter_frequent_pairs(extract_dyads(reconstruct_queues(res.log)), 10)
    try:
        return coordination_test(dyads, "dessert", seed=seed + 3)["p"]
    except InsufficientDataError:
        return None


def test_7_coordination_calibration_and_power():
    null_rej = sum(
        1
        for seed in range(500, 600)
        if (p := _coordination_p(seed, "pre_agreement", 0.0, 0.5)) is not None
        and p < 0.05
    )
    alt_rej = sum(
        1
        for seed in range(600, 700)
        if (p := _coordination_p(seed, "none", 1.0, 0.65)) is not None
        and p < 0.05
    )
    ok = null_rej <= 7 and alt_rej >= 95
    assert record(
        7, ok,
        f"pre-agreement null rejected in {null_rej}/100 (<= 7 allowed), "
        f"asymmetric mimicry rejected in {alt_rej}/100 (>= 95 required)",
    )


def test_8_status_inference_quality():
    res = simulate(SimulationConfig(seed=901))
    demo = res.demographics()
    in_log = set(res.log.persons)
    labeled = [
        r.person_id
        for r in demo.records()
        if r.status in ("student", "staff") and r.person_id in in_log
    ]
    ids, X = feature_matrix(res.log, labeled)
    model = train_status_model(X, [demo.status_of(p) for p in ids], seed=5)
    worst = min(
        min(m["precision"], m["recall"]) for m in model.metrics.values()
    )
    ok = worst >= 0.85 and set(model.metrics) == {"staff", "student"}
    detail = ", ".join(
        f"{cls} p {m['precision']:.3f} r {m['recall']:.3f}"
        for cls, m in sorted(model.metrics.items())
    )
    assert record(8, ok, detail)


def test_9_repeat_runs_are_byte_identical(tmp_path):
    from copycart.sim import write_simulation

    data = tmp_path / "data"
    write_simulation(
        simulate(SimulationConfig(seed=17, n_persons=400, n_days=100,
                                  delta={"dessert": 0.15})),
        data,
    )
    conf = {
        "input": {
            "transactions": str(data / "transactions.csv"),
            "catalog": str(data / "catalog.csv"),
            "demographics": str(data / "demographics.csv"),
        },
        "estimation": {"seed": 23, "n_boot": 300},
        "analyses": {"baseline": True, "sensitivity": True,
                     "dose_response": True, "coordination": True,
                     "subgroups": ["daypart"], "infer_status": True,
                     "anchor_mimicry": True},
    }
    cfg_path = tmp_path / "run.yaml"
    cfg_path.write_text(yaml.safe_dump(conf), encoding="utf-8")

    def run(out):
        r = CliRunner().invoke(
            cli_main, ["--config", str(cfg_path), "--out", str(out), "run"]
        )
        assert r.exit_code == 0, r.output
        files = {}
        for base, _dirs, names in os.walk(out):
            for name in names:
                path = os.path.join(base, name)
                with open(path, "rb") as fh:
                    files[os.path.relpath(path, out)] = fh.read()
        return files

    a = run(tmp_path / "out_a")
    b = run(tmp_path / "out_b")
    same = set(a) == set(b) and all(a[k] == b[k] for k in a)
    kinds = {os.path.splitext(k)[1] for k in a}
    ok = same and {".json", ".csv", ".svg"} <= kinds
    assert record(
        9, ok,
        f"{len(a)} files compared ({', '.join(sorted(kinds))}), "
        f"identical: {same}",
    )
