"""The bootstrap's replicate tables: the one multinomial draw behind every interval."""

import numpy as np
import pytest

from copycart._util import derive_seed
from copycart.estimate import effect_estimate, paired_counts, risk_difference, risk_ratio

from test_estimate import pairs_from_outcomes


def _random_outcomes(rng, n):
    o_t = (rng.random(n) < 0.4).astype(np.uint8)
    o_c = (rng.random(n) < 0.25).astype(np.uint8)
    return o_t, o_c


def replicate_tables(pairs, n_rep, seed):
    # the draw effect_estimate makes, rebuilt from its documented seed
    c = paired_counts(pairs)
    n = c.n_pairs
    cells = np.array([c.n11, c.n10, c.n01, c.n00]) / n
    return np.random.default_rng(derive_seed(seed, "boot")).multinomial(n, cells, size=n_rep)


def test_bootstrap_counts_consistency():
    rng = np.random.default_rng(0)
    pairs = pairs_from_outcomes(*_random_outcomes(rng, 500))
    tables = replicate_tables(pairs, 200, 42)
    assert tables.shape == (200, 4)
    assert (tables >= 0).all()
    assert (tables.sum(axis=1) == 500).all()
    rd_vals = (tables[:, 1] - tables[:, 2]) / 500
    est = effect_estimate(paired_counts(pairs), "dessert", n_rep=200, seed=42)
    assert rd_vals.min() <= est["rd_ci"][0] <= est["rd_ci"][1] <= rd_vals.max()


def test_bootstrap_counts_brute_force_first_replicate():
    # replicate 0 must equal the estimate computed on its resample written out
    # pair by pair, and must not depend on how many replicates are drawn
    rng = np.random.default_rng(3)
    pairs = pairs_from_outcomes(*_random_outcomes(rng, 97))
    n11, n10, n01, n00 = replicate_tables(pairs, 1, 9)[0]
    assert np.array_equal(replicate_tables(pairs, 50, 9)[0], [n11, n10, n01, n00])
    o_t = [1] * n11 + [1] * n10 + [0] * n01 + [0] * n00
    o_c = [1] * n11 + [0] * n10 + [1] * n01 + [0] * n00
    resample = paired_counts(pairs_from_outcomes(o_t, o_c))
    assert (resample.n11, resample.n10, resample.n01, resample.n00) == (n11, n10, n01, n00)
    est = effect_estimate(paired_counts(pairs), "dessert", n_rep=1, seed=9)
    rd0 = risk_difference(resample)
    assert est["rd_ci"] == pytest.approx([rd0, rd0], abs=1e-12)
    rr0 = risk_ratio(resample)
    assert rr0 is not None and est["rr_ci"] == pytest.approx([rr0, rr0], abs=1e-12)
