"""Sensitivity of the paired test to an unobserved binary confounder.

``worst_case_p`` bounds the one-sided McNemar p-value when an unobserved
covariate may multiply the within-pair treatment odds by up to gamma: the
discordant-pair successes are then at worst Binomial(D, gamma/(1+gamma)).
``sensitivity_result`` locates gamma_star, the largest gamma at which
significance survives, and the amplification map factors a gamma into
(lambda, delta) pairs via gamma = (lambda*delta + 1)/(lambda + delta).
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .errors import NoPairsError, SensitivityDomainError
from .estimate import PairedCounts, binom_upper_tail

GAMMA_MAX = 100.0  # gamma_star searches [1, GAMMA_MAX]
GAMMA_TOL = 1e-3  # and stops bisecting at this width


def worst_case_p(counts: PairedCounts, gamma: float) -> float:
    """Upper bound on the McNemar p-value at hidden-bias level gamma.

    One-sided in the direction of the observed excess: the exact binomial
    tail of the larger discordant count.
    """
    if gamma < 1.0:
        raise SensitivityDomainError(f"gamma must be >= 1, got {gamma}")
    d = counts.discordant
    if d == 0:
        raise NoPairsError("sensitivity undefined without discordant pairs")
    k = max(counts.n10, counts.n01)
    return binom_upper_tail(k, d, gamma / (1.0 + gamma))


def amplification_curve(
    gamma: float, lambda_grid: Sequence[float]
) -> list[tuple[float, float]]:
    """Factor gamma into (lambda, delta) points: delta = (gamma*lambda - 1)/(lambda - gamma).

    Grid points with lambda <= gamma are outside the domain and are skipped;
    an entirely invalid grid raises.
    """
    if gamma < 1.0:
        raise SensitivityDomainError(f"gamma must be >= 1, got {gamma}")
    out = []
    for lam in lambda_grid:
        if lam <= gamma:
            continue
        delta = (gamma * lam - 1.0) / (lam - gamma)
        out.append((float(lam), float(delta)))
    if not out:
        raise SensitivityDomainError("every lambda in the grid is <= gamma")
    return out


_LAMBDA_FACTORS = (1.1, 1.25, 1.5, 2.0, 3.0, 4.0, 6.0, 8.0, 12.0, 16.0)


def sensitivity_result(counts: PairedCounts, alpha: float = 0.05, item: str = "") -> dict:
    """The `sensitivity` report of results.json.

    gamma_star is the largest gamma in [1, GAMMA_MAX] keeping worst_case_p <=
    alpha, bisected to GAMMA_TOL; `capped` when even GAMMA_MAX keeps it.  If
    the test is not significant without hidden bias, gamma_star is the
    sentinel 1 and baseline_significant is False.  Also reported: worst-case
    p on 25 gammas from 1 to max(3, 2 gamma_star), and the amplification
    curve at gamma_star times `_LAMBDA_FACTORS`, as [x, y] lists.
    """
    significant = worst_case_p(counts, 1.0) < alpha
    capped = significant and worst_case_p(counts, GAMMA_MAX) <= alpha
    gamma_star = GAMMA_MAX if capped else 1.0
    if significant and not capped:
        lo, hi = 1.0, GAMMA_MAX
        while hi - lo > GAMMA_TOL:
            mid = 0.5 * (lo + hi)
            if worst_case_p(counts, mid) <= alpha:
                lo = mid
            else:
                hi = mid
        gamma_star = lo
    gamma_grid = np.linspace(1.0, max(3.0, 2.0 * gamma_star), 25)
    curve = []
    if gamma_star > 1.0:
        curve = amplification_curve(gamma_star, [gamma_star * f for f in _LAMBDA_FACTORS])
    return {
        "item": item,
        "gamma_star": gamma_star,
        "baseline_significant": significant,
        "capped": capped,
        "alpha": alpha,
        "p_at": [[float(g), worst_case_p(counts, float(g))] for g in gamma_grid],
        "curve": [[lam, delta] for lam, delta in curve],
    }
