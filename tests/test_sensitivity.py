"""Hidden-bias bounds: worst-case p, breakdown gamma, amplification."""

import math
from fractions import Fraction

import numpy as np
import pytest
from scipy.stats import binom

from copycart.errors import NoPairsError, SensitivityDomainError
from copycart.estimate import PairedCounts
from copycart.sensitivity import amplification_curve, sensitivity_result, worst_case_p


def exact_tail(k: int, n: int, q: Fraction) -> float:
    """Rational-arithmetic P(Bin(n, q) >= k)."""
    return float(sum(math.comb(n, i) * q**i * (1 - q) ** (n - i) for i in range(k, n + 1)))


def exact_worst_case(n10: int, n01: int, gamma: Fraction) -> float:
    q = gamma / (1 + gamma)
    return exact_tail(max(n10, n01), n10 + n01, q)


def gamma_of(lam: float, delta: float) -> float:
    """Hidden-bias level implied by a (lambda, delta) amplification point."""
    return (lam * delta + 1.0) / (lam + delta)


def test_worst_case_p_frozen_value():
    c = PairedCounts(0, 15, 5, 0)
    assert worst_case_p(c, 2.0) == pytest.approx(0.2972138936100512, abs=1e-14)


def test_gamma_one_reduces_to_binomial_mcnemar():
    rng = np.random.default_rng(31)
    for _ in range(20):
        n10 = int(rng.integers(0, 31))
        n01 = int(rng.integers(0, 31))
        if n10 + n01 == 0:
            continue
        c = PairedCounts(3, n10, n01, 7)
        want = exact_worst_case(n10, n01, Fraction(1))
        assert worst_case_p(c, 1.0) == pytest.approx(want, abs=1e-13)


def test_worst_case_exact_matches_rational_oracle():
    rng = np.random.default_rng(8)
    for _ in range(15):
        n10 = int(rng.integers(0, 60))
        n01 = int(rng.integers(0, 40))
        if n10 + n01 == 0:
            continue
        num = int(rng.integers(1, 40))
        den = int(rng.integers(1, num + 1))
        g = Fraction(num, den)
        c = PairedCounts(0, n10, n01, 0)
        assert worst_case_p(c, num / den) == pytest.approx(
            exact_worst_case(n10, n01, g), rel=1e-11, abs=1e-13
        )


def test_worst_case_p_monotone_in_gamma():
    for c in [
        PairedCounts(0, 15, 5, 0),
        PairedCounts(2, 40, 12, 9),
        PairedCounts(0, 170, 130, 0),  # above 200 discordant: the incomplete-beta tail
    ]:
        grid = np.linspace(1.0, 50.0, 50)
        ps = [worst_case_p(c, float(g)) for g in grid]
        assert all(b >= a - 1e-15 for a, b in zip(ps, ps[1:]))
        assert ps[-1] >= ps[0]


def test_large_table_tail_is_exact():
    # above 200 discordant pairs the tail is the incomplete beta, not a sum
    for g in (Fraction(1), Fraction(3, 2), Fraction(7, 3)):
        got = worst_case_p(PairedCounts(0, 170, 130, 0), float(g))
        assert got == pytest.approx(exact_worst_case(170, 130, g), rel=1e-9)
    # dessert's 3,580 discordant pairs on the benchmark log, and 20,000
    for n10, n01 in ((2430, 1150), (10300, 9700), (11000, 9000)):
        for gamma in (1.0, 1.5, 2.5, 100.0):
            want = binom.sf(max(n10, n01) - 1, n10 + n01, gamma / (1.0 + gamma))
            got = worst_case_p(PairedCounts(0, n10, n01, 0), gamma)
            assert got == pytest.approx(want, rel=1e-9)


def test_worst_case_p_domain():
    c = PairedCounts(0, 15, 5, 0)
    with pytest.raises(SensitivityDomainError):
        worst_case_p(c, 0.5)
    with pytest.raises(NoPairsError):
        worst_case_p(PairedCounts(4, 0, 0, 4), 2.0)


def test_gamma_star_matches_grid_oracle():
    gs = sensitivity_result(PairedCounts(0, 90, 10, 0), alpha=0.05)
    # rational grid search at 1e-3 steps puts the breakdown at 5.108
    assert gs["gamma_star"] == pytest.approx(5.108, abs=2e-3)
    assert gs["baseline_significant"] and not gs["capped"]
    assert worst_case_p(PairedCounts(0, 90, 10, 0), gs["gamma_star"]) <= 0.05
    assert worst_case_p(PairedCounts(0, 90, 10, 0), gs["gamma_star"] + 5e-3) > 0.05


def test_gamma_star_scales_with_evidence():
    small = sensitivity_result(PairedCounts(0, 90, 10, 0))
    big = sensitivity_result(PairedCounts(0, 900, 100, 0))
    assert big["gamma_star"] > small["gamma_star"]


def test_gamma_star_insignificant_baseline():
    gs = sensitivity_result(PairedCounts(0, 3, 2, 0))
    assert gs["gamma_star"] == 1.0
    assert not gs["baseline_significant"] and not gs["capped"]


def test_gamma_star_caps_at_limit():
    gs = sensitivity_result(PairedCounts(0, 5000, 20, 0))
    assert gs["capped"] and gs["gamma_star"] == 100.0 and gs["baseline_significant"]


def test_amplification_identity():
    pts = amplification_curve(gamma_of(5.0, 9.8), [5.0])
    assert pts[0][0] == 5.0
    assert pts[0][1] == pytest.approx(9.8, abs=1e-9)
    # round-trip at random points
    rng = np.random.default_rng(12)
    for _ in range(25):
        gamma = 1.0 + float(rng.random()) * 9
        lam = gamma + 0.1 + float(rng.random()) * 20
        (l, d), = amplification_curve(gamma, [lam])
        assert gamma_of(l, d) == pytest.approx(gamma, rel=1e-12)
        assert d >= gamma  # the outcome association is at least as strong


def test_amplification_domain():
    with pytest.raises(SensitivityDomainError):
        amplification_curve(0.9, [2.0])
    with pytest.raises(SensitivityDomainError):
        amplification_curve(3.0, [1.5, 3.0])  # all at or below gamma
    pts = amplification_curve(3.0, [1.5, 3.0, 6.0])
    assert len(pts) == 1 and pts[0][0] == 6.0


def test_sensitivity_result_bundle():
    d = sensitivity_result(PairedCounts(0, 90, 10, 0), alpha=0.05, item="dessert")
    assert d["item"] == "dessert"
    assert d["gamma_star"] == pytest.approx(5.108, abs=2e-3)
    assert d["baseline_significant"] is True
    ps = [p for _, p in d["p_at"]]
    assert all(b >= a - 1e-15 for a, b in zip(ps, ps[1:]))
    assert d["curve"], "expected a non-empty amplification curve"
    for lam, delta in d["curve"]:
        assert lam > d["gamma_star"] and delta > 0
    flat = sensitivity_result(PairedCounts(0, 3, 2, 0), item="x")
    assert flat["curve"] == []
