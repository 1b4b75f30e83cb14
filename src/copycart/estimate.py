"""Outcome analysis over matched pairs.

Risk difference and risk ratio come from the paired contingency table;
uncertainty from a percentile bootstrap over pairs, drawn as multinomial
resamples of the four paired cells; the paired test is McNemar's chi-square
with an exact binomial p-value at small discordant counts.  Subgroup and
dose-response analyses number each pair's stratum or delay bin, count every
stratum's four cells in one table, and estimate each row of it; the
anchor-attribute analysis estimates the pairs it matches.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from ._util import _beta_fraction, derive_seed, t_two_sided_p
from .context import ContextStats
from .dyads import DyadSet, tie_strength_per_dyad
from .errors import InsufficientBinsError, NoPairsError
from .matching import AdjustmentSpec, MatchedPairSet, build_matched_pairs
from .model import Daypart, Demographics, calendar_year, person_attribute

RR_UNDEFINED = None  # sentinel for a zero control arm
EXACT_BELOW = 25  # fewer discordant pairs than this get the exact McNemar p
SUM_MAX_TRIALS = 200  # binom_upper_tail sums terms up to this many trials
TIE_EDGES = (0.25, 0.5, 0.75)  # inner edges of the tie-strength strata
DOSE_BIN_S = 30  # width of a dose-response delay bin


@dataclass(frozen=True)
class PairedCounts:
    """Pair-level 2x2: n11 both focals bought, n10 treated-arm only,
    n01 control-arm only, n00 neither."""

    n11: int
    n10: int
    n01: int
    n00: int

    def __post_init__(self):
        if min(self.n11, self.n10, self.n01, self.n00) < 0:
            raise ValueError("counts must be non-negative")

    @property
    def n_pairs(self) -> int:
        return self.n11 + self.n10 + self.n01 + self.n00

    @property
    def discordant(self) -> int:
        return self.n10 + self.n01


def cell_counts(pairs: MatchedPairSet, code: np.ndarray, n_codes: int) -> np.ndarray:
    """(n_codes, 4) table of (n11, n10, n01, n00): row c counts the pairs
    whose `code` is c, from one gather of both arms' focal purchases."""
    treated, control = pairs.dyads.focal_has(pairs.item)[np.stack((pairs.treated_idx, pairs.control_idx))]
    cell = 3 - 2 * treated - control  # 0 n11, 1 n10, 2 n01, 3 n00
    return np.bincount(4 * code + cell, minlength=4 * n_codes).reshape(n_codes, 4)


def paired_counts(pairs: MatchedPairSet) -> PairedCounts:
    if pairs.n == 0:
        raise NoPairsError(f"no matched pairs for {pairs.item!r}")
    return PairedCounts(*cell_counts(pairs, np.zeros(pairs.n, np.int64), 1)[0].tolist())


def risk_difference(counts: PairedCounts) -> float:
    n = counts.n_pairs
    if n == 0:
        raise NoPairsError("risk difference undefined on zero pairs")
    return (counts.n11 + counts.n10) / n - (counts.n11 + counts.n01) / n


def risk_ratio(counts: PairedCounts) -> Optional[float]:
    denom = counts.n11 + counts.n01
    if counts.n_pairs == 0:
        raise NoPairsError("risk ratio undefined on zero pairs")
    if denom == 0:
        return RR_UNDEFINED
    return (counts.n11 + counts.n10) / denom


def naive_risk_difference(dyads: DyadSet, item: str) -> float:
    """Unmatched focal-purchase rate difference by partner purchase status."""
    treated = dyads.partner_has(item)
    outcome = dyads.focal_has(item)
    nt = int(treated.sum())
    nc = dyads.n - nt
    if nt == 0 or nc == 0:
        raise NoPairsError("both partner-purchase groups must be non-empty")
    return float(outcome[treated].mean()) - float(outcome[~treated].mean())


def binom_upper_tail(k: int, n: int, q: float) -> float:
    """P(Bin(n, q) >= k): the float sum of its terms up to `SUM_MAX_TRIALS`
    trials; above that the regularized incomplete beta I_q(k, n-k+1), from
    the continued fraction the t tail uses, with the prefactor in logs."""
    if k <= 0:
        return 1.0
    if k > n:
        return 0.0
    if n <= SUM_MAX_TRIALS:
        terms = [math.comb(n, i) * q**i * (1.0 - q) ** (n - i) for i in range(k, n + 1)]
        return min(1.0, math.fsum(terms))
    a, b = k, n - k + 1
    lead = math.exp(
        a * math.log(q) + b * math.log1p(-q)
        + math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
    )
    if q <= (a + 1.0) / (a + b + 2.0):
        return lead / _beta_fraction(a, b, q, 1.0 - q)
    return 1.0 - lead / _beta_fraction(b, a, 1.0 - q, q)


def paired_chi2(counts: PairedCounts) -> tuple[Optional[float], Optional[float]]:
    """McNemar test of no effect on the discordant pairs.

    Returns (statistic, p).  Below `EXACT_BELOW` discordant pairs the p-value
    is the exact two-sided binomial tail; otherwise the 1-df chi-square
    survival function.  Zero discordant pairs give (None, None).
    """
    d = counts.discordant
    if d == 0:
        return (None, None)
    stat = (counts.n10 - counts.n01) ** 2 / d
    if d < EXACT_BELOW:
        p = min(1.0, 2.0 * binom_upper_tail(max(counts.n10, counts.n01), d, 0.5))
    else:
        # survival function of chi-square with one degree of freedom
        p = math.erfc(math.sqrt(stat / 2.0))
    return (float(stat), float(p))


def effect_estimate(
    counts: PairedCounts,
    item: str,
    n_rep: int = 1000,
    seed: int = 0,
    alpha: float = 0.05,
    stratum: str = "pooled",
) -> dict:
    """The estimate report of results.json for the pairs of one item's
    stratum, from their paired counts: point estimates, (1 - alpha)
    bootstrap percentile CIs, and the paired test.

    Resampling the n pairs with replacement is a Multinomial(n, cell shares)
    draw over (n11, n10, n01, n00), so one draw of `n_rep` tables gives both
    intervals.  Replicates with an empty control arm have no risk ratio; if
    more than 5% of them do, the ratio's interval is None.
    """
    n = counts.n_pairs
    if n == 0:
        raise NoPairsError(f"no matched pairs for {item!r}")
    cells = np.array([counts.n11, counts.n10, counts.n01, counts.n00]) / n
    rng = np.random.default_rng(derive_seed(seed, "boot"))
    n11, n10, n01, _n00 = rng.multinomial(n, cells, size=n_rep).T
    levels = [100 * alpha / 2, 100 * (1 - alpha / 2)]
    rd_ci = np.percentile((n10 - n01) / n, levels, method="linear").tolist()
    denom = n11 + n01
    defined = denom > 0
    rr_ci = None
    if defined.sum() >= 0.95 * n_rep:
        rr_vals = (n11[defined] + n10[defined]) / denom[defined]
        rr_ci = np.percentile(rr_vals, levels, method="linear").tolist()
    chi2, p = paired_chi2(counts)
    return {
        "item": item,
        "stratum": stratum,
        "n_pairs": n,
        "rd": risk_difference(counts),
        "rd_ci": rd_ci,
        "rr": risk_ratio(counts),
        "rr_ci": rr_ci,
        "chi2": chi2,
        "p": p,
    }


# ---------------------------------------------------------------------------
# subgroups
# ---------------------------------------------------------------------------

# the groupings that read a person attribute, so need demographics
DEMOGRAPHIC_GROUPINGS = (
    "partner_status",
    "focal_status",
    "status_pair",
    "partner_age",
    "focal_age",
    "partner_gender",
    "focal_gender",
)
GROUPINGS = DEMOGRAPHIC_GROUPINGS + (
    "year",
    "shop",
    "tie_strength_bins",
    "addition_item",
    "daypart",
)


def _pair_labels(
    pairs: MatchedPairSet, grouping: str, demographics: Optional[Demographics]
) -> np.ndarray:
    """One stratum label per matched pair, resolved on the treated dyad and
    gathered from a table of the labels."""
    if grouping not in GROUPINGS:
        raise ValueError(f"unknown grouping {grouping!r}")
    if grouping in DEMOGRAPHIC_GROUPINGS and demographics is None:
        raise ValueError(f"grouping {grouping!r} needs demographics")
    d = pairs.dyads
    log = d.log
    t = pairs.treated_idx
    if grouping == "addition_item":
        return np.full(pairs.n, pairs.item)
    if grouping == "daypart":
        return np.asarray([p.label for p in Daypart])[d.daypart[t]]
    if grouping == "shop":
        return np.asarray(log.shops)[d.shop_idx[t]]
    if grouping == "year":
        return calendar_year(log.ts[d.focal_i[t]]).astype(str)
    if grouping == "tie_strength_bins":
        edges = (0.0,) + TIE_EDGES + (1.0,)
        bins = np.asarray([f"({lo:g},{hi:g}]" for lo, hi in zip(edges, edges[1:])])
        return bins[np.searchsorted(TIE_EDGES, tie_strength_per_dyad(d)[t], side="left")]

    def attr(side, kind):
        rows = d.partner_i[t] if side == "partner" else d.focal_i[t]
        labels = person_attribute(log, demographics, kind, rows)
        return np.where(labels.astype(bool), labels, "unknown").astype(str)

    if grouping == "status_pair":
        return np.strings.add(np.strings.add(attr("partner", "status"), "-"), attr("focal", "status"))
    side, _, kind = grouping.partition("_")
    return attr(side, "age_tercile" if kind == "age" else kind)


def subgroup_estimates(
    pairs: MatchedPairSet,
    grouping: str,
    demographics: Optional[Demographics] = None,
    n_rep: int = 1000,
    seed: int = 0,
    min_pairs: int = 50,
    alpha: float = 0.05,
) -> dict[str, dict]:
    """Independent effect estimate per stratum of the grouping attribute,
    each stamped `grouping:label`.

    Strata smaller than `min_pairs` carry only their pair count, every
    estimate None.  Stratum labels partition the pair set.
    """
    labels, code = np.unique(_pair_labels(pairs, grouping, demographics), return_inverse=True)
    out: dict[str, dict] = {}
    for label, row in zip(labels.tolist(), cell_counts(pairs, code, labels.shape[0]).tolist()):
        counts = PairedCounts(*row)
        stratum = f"{grouping}:{label}"
        if counts.n_pairs < min_pairs:
            out[label] = {
                "item": pairs.item, "stratum": stratum, "n_pairs": counts.n_pairs,
                "rd": None, "rd_ci": None, "rr": None, "rr_ci": None, "chi2": None, "p": None,
            }
        else:
            out[label] = effect_estimate(
                counts, pairs.item, n_rep, derive_seed(seed, grouping, label), alpha, stratum
            )
    return out


def anchor_mimicry(
    dyads: DyadSet,
    context: ContextStats,
    anchor_attribute: str,
    spec: AdjustmentSpec = AdjustmentSpec(),
    n_rep: int = 1000,
    seed: int = 0,
    alpha: float = 0.05,
) -> dict:
    """Mimicry of an anchor attribute instead of an addition item.

    ``meal_vegetarian`` contrasts vegetarian vs other meals over lunch dyads;
    ``beverage_kind`` contrasts coffee vs tea over breakfast/afternoon dyads.
    Same matching + estimation path, with the focus "item" being the
    attribute value's category key.
    """
    if anchor_attribute == "meal_vegetarian":
        item = "meal_vegetarian"
        sel = dyads.daypart == Daypart.LUNCH.value
    elif anchor_attribute == "beverage_kind":
        item = "coffee"
        sel = (dyads.daypart == Daypart.BREAKFAST.value) | (
            dyads.daypart == Daypart.AFTERNOON.value
        )
    else:
        raise ValueError(f"unknown anchor attribute {anchor_attribute!r}")
    sub = dyads.subset(sel)
    pairs = build_matched_pairs(sub, item, context, spec)
    if pairs.n == 0:
        raise NoPairsError(f"no matched pairs for anchor attribute {anchor_attribute!r}")
    seed = derive_seed(seed, "anchor", anchor_attribute)
    return effect_estimate(paired_counts(pairs), item, n_rep, seed, alpha, f"anchor:{anchor_attribute}")


# ---------------------------------------------------------------------------
# dose-response
# ---------------------------------------------------------------------------


def ols_line(x: np.ndarray, y: np.ndarray) -> tuple[float, float, float, float]:
    """Least squares fit y = a + b*x; returns (slope, intercept, p, se_slope).

    p is the two-sided t-test of zero slope with n-2 degrees of freedom;
    a perfect constant fit gives (0, mean, 1, 0).
    """
    x = np.asarray(x, np.float64)
    y = np.asarray(y, np.float64)
    n = x.shape[0]
    if n < 3:
        raise ValueError("need at least 3 points for a slope test")
    mx = float(x.mean())
    my = float(y.mean())
    dx = x - mx
    sxx = float(np.sum(dx * dx))
    if sxx == 0.0:
        raise ValueError("degenerate regressor: all x equal")
    slope = float(np.sum(dx * (y - my))) / sxx
    intercept = my - slope * mx
    resid = y - (intercept + slope * x)
    sse = float(np.sum(resid * resid))
    se = math.sqrt(sse / (n - 2) / sxx)
    if se == 0.0:
        return (slope, intercept, 1.0 if slope == 0.0 else 0.0, 0.0)
    t = slope / se
    p = t_two_sided_p(t, n - 2)
    return (slope, intercept, p, se)


def dose_response(
    pairs: MatchedPairSet,
    max_delay_s: int = 300,
    n_rep: int = 1000,
    seed: int = 0,
    alpha: float = 0.05,
) -> dict:
    """The `dose_response` report of results.json: effect estimates per
    `DOSE_BIN_S` delay bin and the OLS trend over bin midpoints; delays past
    `max_delay_s` fold into the last bin."""
    if pairs.n == 0:
        raise NoPairsError("dose-response needs matched pairs")
    n_bins = max(1, int(math.ceil(max_delay_s / DOSE_BIN_S)))
    delays = pairs.dyads.delay_s[pairs.treated_idx]
    # max_delay_s has no bound, so only the occupied bins are numbered
    occupied, code = np.unique(np.minimum(delays // DOSE_BIN_S, n_bins - 1), return_inverse=True)
    bins = []
    mids, rds, rrs, rr_mids = [], [], [], []
    for b, row in zip(occupied.tolist(), cell_counts(pairs, code, occupied.shape[0]).tolist()):
        mid = b * DOSE_BIN_S + DOSE_BIN_S / 2.0
        stratum = f"delay<= {mid + DOSE_BIN_S / 2:g}s"
        est = effect_estimate(
            PairedCounts(*row), pairs.item, n_rep, derive_seed(seed, "dose", b), alpha, stratum
        )
        bins.append({"midpoint_s": mid, **est})
        mids.append(mid)
        rds.append(est["rd"])
        if est["rr"] is not None:
            rr_mids.append(mid)
            rrs.append(est["rr"])
    if len(bins) < 3:
        raise InsufficientBinsError(f"only {len(bins)} non-empty delay bins; need at least 3")
    slope_rd, intercept_rd, p_rd, _ = ols_line(np.asarray(mids), np.asarray(rds))
    slope_rr = p_rr = None
    if len(rrs) >= 3:
        slope_rr, _, p_rr, _ = ols_line(np.asarray(rr_mids), np.asarray(rrs))
    return {
        "item": pairs.item,
        "slope_rd": slope_rd,
        "intercept_rd": intercept_rd,
        "p_rd": p_rd,
        "slope_rr": slope_rr,
        "p_rr": p_rr,
        "bins": bins,
    }
