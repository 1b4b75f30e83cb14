"""Sensitivity of the paired test to an unobserved binary confounder.

``worst_case_p`` bounds the one-sided McNemar p-value when an unobserved
covariate may multiply the within-pair treatment odds by up to gamma: the
discordant-pair successes are then at worst Binomial(D, gamma/(1+gamma)).
``gamma_star`` locates the largest gamma at which significance survives, and
the amplification map factors a gamma into (lambda, delta) pairs via
gamma = (lambda*delta + 1)/(lambda + delta).
"""

from __future__ import annotations

from dataclasses import dataclass
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


@dataclass(frozen=True)
class GammaStar:
    value: float
    alpha: float
    baseline_significant: bool
    capped: bool = False


def gamma_star(counts: PairedCounts, alpha: float = 0.05) -> GammaStar:
    """Largest gamma in [1, GAMMA_MAX] keeping worst_case_p <= alpha, to GAMMA_TOL.

    If the test is not significant even without hidden bias the sentinel
    value 1 is returned with baseline_significant=False.
    """
    p1 = worst_case_p(counts, 1.0)
    if not p1 < alpha:
        return GammaStar(1.0, alpha, baseline_significant=False)
    if worst_case_p(counts, GAMMA_MAX) <= alpha:
        return GammaStar(GAMMA_MAX, alpha, baseline_significant=True, capped=True)
    lo, hi = 1.0, GAMMA_MAX
    while hi - lo > GAMMA_TOL:
        mid = 0.5 * (lo + hi)
        if worst_case_p(counts, mid) <= alpha:
            lo = mid
        else:
            hi = mid
    return GammaStar(lo, alpha, baseline_significant=True)


def gamma_of(lam: float, delta: float) -> float:
    """Hidden-bias level implied by a (lambda, delta) amplification point."""
    return (lam * delta + 1.0) / (lam + delta)


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


@dataclass
class SensitivityResult:
    item: str
    gamma_star: GammaStar
    alpha: float
    p_at: list  # (gamma, worst-case p) over the evaluation grid
    amplification: list  # (lambda, delta)

    def to_dict(self) -> dict:
        return {
            "item": self.item,
            "gamma_star": self.gamma_star.value,
            "baseline_significant": self.gamma_star.baseline_significant,
            "capped": self.gamma_star.capped,
            "alpha": self.alpha,
            "p_at": [[g, p] for g, p in self.p_at],
            "curve": [[l, d] for l, d in self.amplification],
        }


_LAMBDA_FACTORS = (1.1, 1.25, 1.5, 2.0, 3.0, 4.0, 6.0, 8.0, 12.0, 16.0)


def sensitivity_result(
    counts: PairedCounts, alpha: float = 0.05, item: str = ""
) -> SensitivityResult:
    """Bundle gamma_star, worst-case p on 25 gammas from 1 to max(3, 2 gamma_star),
    and the amplification curve at gamma_star times `_LAMBDA_FACTORS`."""
    gs = gamma_star(counts, alpha)
    gamma_grid = np.linspace(1.0, max(3.0, 2.0 * gs.value), 25)
    p_at = [(float(g), worst_case_p(counts, float(g))) for g in gamma_grid]
    amp = []
    if gs.value > 1.0:
        amp = amplification_curve(gs.value, [gs.value * f for f in _LAMBDA_FACTORS])
    return SensitivityResult(item, gs, alpha, p_at, amp)
