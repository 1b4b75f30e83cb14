"""Synthetic queue simulator with injected, known mimicry.

A population of persons (some joined into habitual pairs) visits shops over
a span of days.  A pair visit serializes as partner-then-focal at one
register with a configurable inter-transaction gap; solo visitors interleave
and break some of those adjacencies, as strangers do in real queues.  The
focal's probability of buying good i (an addition item or an anchor
subtype, a vegetarian meal or coffee) is

    clip(p_i + delta_i * [partner bought i] * decay(gap) * susceptibility)

with decay(g) = exp(-g/tau) when a decay constant is set.  In pre_agreement
mode the joint outcome is drawn once before queue order is decided, so the
purchase carries no order asymmetry for the coordination probe to find.

Everything is driven by one mandatory seed through a single generator in a
fixed draw order; equal configs give byte-identical outputs.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import asdict, dataclass, field, fields
from typing import Optional, Sequence, Union

import numpy as np

from ._util import check_types, config_seed, decimal_digits
from .csvio import ByteColumn, make_dirs, open_output
from .errors import ConfigError
from .model import (
    ADDITION_KEYS,
    DAYPART_WINDOWS,
    GENDERS,
    STATUSES,
    STUDIED_STATUSES,
    Demographics,
    ItemCatalog,
    ItemCategory,
    PersonRecord,
    TransactionLog,
    row_dtype,
    serialize_transactions,
)

# simulated daypart k is Daypart(k); _WINDOWS[k] is its [start, end) in seconds
DAYPART_LABELS = tuple(d.label for d in DAYPART_WINDOWS)
_WINDOWS = np.asarray(list(DAYPART_WINDOWS.values()))
_ANCHOR_CODES = ("MEAL_V", "MEAL_NV", "COFFEE", "TEA")
# anchor subtypes drawn like additions: a vegetarian meal, coffee over tea
ANCHORS = ("meal_vegetarian", "coffee")
VEG_SHARE = 0.35  # base probability that a meal is vegetarian
COFFEE_SHARE = 0.65  # base probability that a drink is coffee, not tea
START_DATE = "2018-01-08"  # day 0 of every simulated log, a Monday
_DAY0 = int(np.datetime64(START_DATE, "D").astype(np.int64))  # its days since 1970-01-01
PROPENSITY_SD = 0.15  # spread of a person's purchase probability around the base
GAP_MAX_S = 300  # the longest partner-to-focal gap, the dyad extractor's default
GAP_MEDIAN_S = 40.0  # median of the lognormal partner-to-focal gap
GAP_SIGMA = 0.75  # log-scale spread of the lognormal gap


def _default_base_probs() -> dict:
    per = {"dessert": 0.25, "fruit": 0.15, "soup": 0.10}
    return {dp: dict(per) for dp in DAYPART_LABELS}


@dataclass
class SimulationConfig:
    seed: int
    n_persons: int = 2000
    n_shops: int = 2
    n_registers_per_shop: int = 3
    n_days: int = 250
    # population
    status_mix: dict[str, float] = field(
        default_factory=lambda: dict(zip(STATUSES, (0.65, 0.30, 0.05)))
    )
    demographics_known_fraction: float = 1.0
    pair_fraction: float = 0.8
    visit_rate: float = 0.4
    solo_rate: float = 0.2
    daypart_weights: tuple[float, float, float] = (0.25, 0.5, 0.25)
    # purchasing
    base_probs: dict[str, dict[str, float]] = field(default_factory=_default_base_probs)
    homophily: float = 0.0
    delta: dict[str, float] = field(default_factory=dict)
    decay_tau: Optional[float] = None
    anchor_delta: dict[str, float] = field(default_factory=dict)
    coordination_mode: str = "none"
    leader_first_prob: float = 0.5
    susceptibility_asymmetry: float = 0.0
    gap_dist: str = "lognormal"

    def __post_init__(self):
        self.seed = config_seed(self.seed)
        check_types(SimulationConfig, vars(self))
        if self.n_persons < 1 or self.n_shops < 1 or self.n_registers_per_shop < 1:
            raise ConfigError("population and shop counts must be positive")
        if self.n_days < 1:
            raise ConfigError("n_days must be positive")
        # `simulate_log`'s sort key packs a (ts, shop, register) slot and the
        # row; a log has at most 2 * n_persons * n_days rows, a pair visit
        # and a solo visit per person a day
        slots = 86400 * self.n_days * self.n_shops * self.n_registers_per_shop
        if slots * 2 * self.n_persons * self.n_days >= 2**63:
            raise ConfigError("n_days, n_shops, n_registers_per_shop and n_persons are too large "
                              "together: the log's sort key would overflow int64")
        for name in (
            "demographics_known_fraction",
            "pair_fraction",
            "visit_rate",
            "solo_rate",
            "homophily",
            "leader_first_prob",
            "susceptibility_asymmetry",
        ):
            v = getattr(self, name)
            if not (0.0 <= v <= 1.0):
                raise ConfigError(f"{name} must lie in [0, 1], got {v}")
        for name in self.status_mix:
            if name not in STATUSES:
                raise ConfigError(f"status_mix names {name!r}; choose from {STATUSES}")
        if abs(sum(self.status_mix.values()) - 1.0) > 1e-9:
            raise ConfigError("status_mix must sum to 1")
        if abs(sum(self.daypart_weights) - 1.0) > 1e-9:
            raise ConfigError("daypart_weights must sum to 1")
        for dp, probs in self.base_probs.items():
            if dp not in DAYPART_LABELS:
                raise ConfigError(f"unknown daypart {dp!r} in base_probs")
            for item, p in probs.items():
                if item not in ADDITION_KEYS:
                    raise ConfigError(f"unknown addition {item!r}; choose from {ADDITION_KEYS}")
                if not (0.0 <= p <= 1.0):
                    raise ConfigError(f"base prob of {item!r} out of range: {p}")
        for item, d in {**self.delta, **self.anchor_delta}.items():
            if not (-1.0 <= d <= 1.0):
                raise ConfigError(f"delta of {item!r} out of [-1, 1]: {d}")
        for item in self.delta:
            if item not in self.items:
                raise ConfigError(f"delta names {item!r}; base_probs sells {self.items}")
        for key in self.anchor_delta:
            if key not in ANCHORS:
                raise ConfigError(f"anchor_delta keys are {'/'.join(ANCHORS)}, got {key!r}")
        if self.decay_tau is not None and not self.decay_tau > 0:
            raise ConfigError("decay_tau must be positive when set")
        if self.coordination_mode not in ("none", "pre_agreement"):
            raise ConfigError(f"unknown coordination_mode {self.coordination_mode!r}")
        if self.gap_dist not in ("lognormal", "uniform"):
            raise ConfigError(f"unknown gap_dist {self.gap_dist!r}")

    @property
    def items(self) -> list[str]:
        keys = set()
        for probs in self.base_probs.values():
            keys.update(probs)
        return sorted(keys)

    @classmethod
    def from_dict(cls, data: dict) -> "SimulationConfig":
        extra = set(data) - {f.name for f in fields(cls)}
        if extra:
            raise ConfigError(f"unknown simulation config keys: {sorted(extra)}")
        return cls(**{"seed": None, **data})  # a missing seed is a ConfigError, not a TypeError


def simulation_catalog(config: SimulationConfig) -> ItemCatalog:
    cats = {
        "MEAL_V": ItemCategory("anchor_meal", "vegetarian"),
        "MEAL_NV": ItemCategory("anchor_meal", "non_vegetarian"),
        "COFFEE": ItemCategory("anchor_beverage", "coffee"),
        "TEA": ItemCategory("anchor_beverage", "tea"),
    }
    for item in config.items:
        cats[item.upper()] = ItemCategory("addition", item)
    return ItemCatalog(cats)


# birth-year range per status, in STATUSES order
_BIRTH_RANGES = dict(zip(STATUSES, ((1992, 2000), (1958, 1990), (1950, 2000))))


@dataclass
class Population:
    person_ids: list[str]
    statuses: list[str]  # class names, indexed by status_idx
    status_idx: np.ndarray
    gender: list[str]
    birth_year: np.ndarray
    pairs: np.ndarray  # [n_pairs, 2]; column 0 is the habitual leader
    propensity_z: dict  # item key -> per-person z-score (unclipped)

    @property
    def n(self) -> int:
        return len(self.person_ids)

    def status_of(self, i: int) -> str:
        return self.statuses[self.status_idx[i]]

    def demographics(self, known_fraction: float, rng: np.random.Generator) -> Demographics:
        """Person table; a 1-known_fraction share, drawn from `rng`, gets no
        status label."""
        known = np.ones(self.n, bool)
        if known_fraction < 1.0:
            known = rng.random(self.n) < known_fraction
        return Demographics(
            PersonRecord(pid, self.gender[i], self.status_of(i) if known[i] else None,
                         int(self.birth_year[i]))
            for i, pid in enumerate(self.person_ids)
        )


def generate_population(config: SimulationConfig) -> Population:
    """Persons, demographics, pair graph, and correlated purchase propensities."""
    rng = np.random.default_rng(int(config.seed))
    n = config.n_persons
    person_ids = [f"P{i:05d}" for i in range(n)]
    statuses = list(config.status_mix)
    probs = np.asarray([config.status_mix[s] for s in statuses])
    status_idx = rng.choice(len(statuses), size=n, p=probs)
    gender = [GENDERS[g] for g in (rng.random(n) >= 0.5).tolist()]
    birth_year = np.empty(n, np.int64)
    for s, name in enumerate(statuses):
        lo, hi = _BIRTH_RANGES[name]
        rows = status_idx == s
        birth_year[rows] = rng.integers(lo, hi + 1, int(rows.sum()))

    # pairs form within a status
    chunks = []
    for members in (np.nonzero(status_idx == s)[0] for s in range(len(statuses))):
        perm = members[rng.permutation(members.shape[0])]
        take = int(perm.shape[0] * config.pair_fraction) // 2 * 2
        chunks.append(perm[:take].reshape(-1, 2))
    pairs = np.concatenate(chunks) if chunks else np.empty((0, 2), np.int64)

    h = config.homophily
    prop = {}
    in_pair = np.full(n, -1, np.int64)
    if pairs.shape[0]:
        in_pair[pairs[:, 0]] = np.arange(pairs.shape[0])
        in_pair[pairs[:, 1]] = np.arange(pairs.shape[0])
    for item in config.items + list(ANCHORS):
        z_pair = rng.normal(size=max(pairs.shape[0], 1))
        eps = rng.normal(size=n)
        z = eps.copy()
        if pairs.shape[0]:
            # members share a pair component; marginal variance stays 1
            paired = in_pair >= 0
            z[paired] = (
                math.sqrt(h) * z_pair[in_pair[paired]]
                + math.sqrt(1.0 - h) * eps[paired]
            )
        prop[item] = z
    return Population(person_ids, statuses, status_idx, gender, birth_year, pairs, prop)


@dataclass
class GroundTruth:
    expected_rd: dict  # item -> mean clipped uplift over realized treated events
    n_treated_events: dict
    delta: dict
    decay_tau: Optional[float]
    coordination_mode: str


def _visit_seconds(rng, daypart_idx, is_staff, room):
    """Start second within the daypart window, leaving `room` for the gap;
    staff come early in the window, students late."""
    lo = _WINDOWS[daypart_idx, 0]
    hi = _WINDOWS[daypart_idx, 1]
    span = hi - lo - room
    u = rng.random(daypart_idx.shape[0])
    u = np.where(is_staff, u * 0.45, 0.55 + u * 0.45)
    return lo + np.floor(u * span).astype(np.int64)


def _gaps(rng, config: SimulationConfig, size: int) -> np.ndarray:
    if config.gap_dist == "uniform":
        return rng.integers(5, GAP_MAX_S + 1, size)
    raw = np.exp(rng.normal(math.log(GAP_MEDIAN_S), GAP_SIGMA, size))
    return np.clip(np.rint(raw), 1, GAP_MAX_S).astype(np.int64)


def intern_codes(labels: Sequence[str], codes: np.ndarray) -> tuple[list[str], np.ndarray]:
    """Sorted vocabulary of the labels that `codes` uses, and each code's
    index into it.  `codes` indexes the distinct strings `labels`."""
    used = np.flatnonzero(np.bincount(codes, minlength=len(labels))).tolist()
    order = sorted(used, key=labels.__getitem__)
    rank = np.zeros(len(labels), np.int32)
    rank[order] = np.arange(len(order))
    return [labels[k] for k in order], rank[codes]


def _draw_rows(population: Population, config: SimulationConfig) -> tuple[list, GroundTruth]:
    """Every visit as a row, in draw order: the columns [ts, person, shop,
    register, basket code], and the ground truth.  The per-visit arrays die
    on return, before the log is built."""
    rng = np.random.default_rng(int(config.seed) + 1)
    n_days = config.n_days
    month_of_day = (
        (_DAY0 + np.arange(n_days)).astype("datetime64[D]").astype("datetime64[M]").astype(np.int64)
        % 12
        + 1
    )
    summer = np.isin(month_of_day, (7, 8))
    items = config.items
    n_items = len(items)
    # goods: the additions, then the anchor subtypes whose share can be mimicked
    goods = items + list(ANCHORS)
    deltas = {**config.delta, **config.anchor_delta}
    statuses = population.statuses
    student_code, staff_code = (statuses.index(s) if s in statuses else -1 for s in STUDIED_STATUSES)
    sidx = population.status_idx

    # base purchase probability per (good, daypart); an addition missing
    # from `base_probs` is never bought there
    base = np.asarray([
        [config.base_probs.get(dp, {}).get(item, 0.0) for dp in DAYPART_LABELS] for item in items
    ] + [[VEG_SHARE] * 3, [COFFEE_SHARE] * 3])  # in ANCHORS order

    def visits(rate: float, status_codes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(unit, day) of every visit; students mostly stay away in summer."""
        u = rng.random((status_codes.shape[0], n_days))
        if student_code >= 0:
            rate = np.where((status_codes == student_code)[:, None] & summer, rate * 0.1, rate)
        return np.divmod(np.flatnonzero(u < rate), n_days)

    dp_cum = np.cumsum(config.daypart_weights)

    def place(n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Shop, register and daypart of `n` visits."""
        shop = rng.integers(0, config.n_shops, n)
        reg = rng.integers(0, config.n_registers_per_shop, n)
        return shop, reg, np.minimum(np.searchsorted(dp_cum, rng.random(n), side="right"), 2)

    def prob(k: int, persons: np.ndarray, dp: np.ndarray) -> np.ndarray:
        """Probability that each visit buys good k."""
        p = base[k][dp] + PROPENSITY_SD * population.propensity_z[goods[k]][persons]
        return np.clip(p, 0.0, 1.0, out=p)

    # -- pair visits: partner, then focal after a gap -------------------------
    pairs = population.pairs
    p_vis, p_day = visits(config.visit_rate, sidx[pairs[:, 0]])
    V = p_vis.shape[0]
    leader, follower = pairs[p_vis, 0], pairs[p_vis, 1]
    v_shop, v_reg, v_dp = place(V)
    gaps = _gaps(rng, config, V)
    t_partner = _visit_seconds(rng, v_dp, sidx[leader] == staff_code, GAP_MAX_S + 2)
    leader_first = rng.random(V) < config.leader_first_prob
    partner = np.where(leader_first, leader, follower)
    focal = np.where(leader_first, follower, leader)

    # the source member buys first and lifts the other's probability by
    # delta * decay * susceptibility.  In queue order the source is the
    # partner; under pre_agreement it is a random member, fixed before queue
    # order, and the gap and the leader play no part.
    decay = np.ones(V)
    susct = np.ones(V)
    src_is_partner = None  # the partner is every visit's source
    if config.coordination_mode == "pre_agreement":
        src_is_partner = rng.random(V) < 0.5
    else:
        if config.decay_tau is not None:
            decay = np.exp(-gaps / config.decay_tau)
        # the focal is the follower when the leader goes first
        susct = np.where(leader_first, 1.0, 1.0 - config.susceptibility_asymmetry)

    def by_source(of_partner: np.ndarray, of_focal: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(source's, other's) from (partner's, focal's), and back."""
        if src_is_partner is None:
            return of_partner, of_focal
        return (np.where(src_is_partner, of_partner, of_focal),
                np.where(src_is_partner, of_focal, of_partner))

    bought = []  # per good: partner, focal, solo purchases
    gt_sum, gt_n = [], []
    for k, good in enumerate(goods):
        d = float(deltas.get(good, 0.0))
        p_src, p_dst = by_source(prob(k, partner, v_dp), prob(k, focal, v_dp))
        b_src = rng.random(V) < p_src
        p_up = np.clip(p_dst + d * b_src * decay * susct, 0.0, 1.0)
        b_dst = rng.random(V) < p_up
        b_partner, b_focal = by_source(b_src, b_dst)
        bought.append([b_partner, b_focal])
        # ground truth: the focal's mean uplift over the visits whose partner
        # bought, nil where the focal was the source
        lifted = b_src if src_is_partner is None else b_src & src_is_partner
        gt_sum.append(float(np.sum((p_up - p_dst)[lifted])))
        gt_n.append(int(np.sum(b_partner)))
    # the pair draws are done; their scratch would live on through the assembly
    del p_vis, leader, follower, leader_first, decay, susct, src_is_partner
    del p_src, p_dst, p_up, lifted

    # -- solo visits -----------------------------------------------------------
    s_person, s_day = visits(config.solo_rate, sidx)
    S = s_person.shape[0]
    s_shop, s_reg, s_dp = place(S)
    s_t = _visit_seconds(rng, s_dp, sidx[s_person] == staff_code, 2)
    for k in range(len(goods)):
        bought[k].append(rng.random(S) < prob(k, s_person, s_dp))
    bought = [np.concatenate(b) for b in bought]

    # -- assemble rows: the basket code is the anchor's index in _ANCHOR_CODES,
    # then one bit per item; meals at lunch, a beverage otherwise
    dp_rows = np.concatenate([v_dp, v_dp, s_dp])
    veg_rows, cof_rows = bought[n_items:]
    basket = (np.where(dp_rows == 1, veg_rows, cof_rows + np.uint16(2)) ^ np.uint16(1)) << n_items
    for k in range(n_items):
        basket |= bought[k].view(np.uint8) << k
    truth = GroundTruth(  # the additions' effects; zip drops the anchors
        expected_rd={item: (s / n if n else 0.0) for item, s, n in zip(items, gt_sum, gt_n)},
        n_treated_events=dict(zip(items, gt_n)),
        delta={item: float(config.delta.get(item, 0.0)) for item in items},
        decay_tau=config.decay_tau,
        coordination_mode=config.coordination_mode,
    )
    ts = (_DAY0 + np.concatenate([p_day, p_day, s_day])) * 86400
    ts += np.concatenate([t_partner, t_partner + gaps, s_t])
    return [ts, np.concatenate([partner, focal, s_person]), np.concatenate([v_shop, v_shop, s_shop]),
            np.concatenate([v_reg, v_reg, s_reg]), basket], truth


def _numbered(prefix: str, n: int, least: int) -> list[str]:
    """`prefix` and 1..n, zero-padded to one width of at least `least` digits."""
    width = max(least, len(str(n)))
    return [f"{prefix}{j:0{width}d}" for j in range(1, n + 1)]


def simulate_log(population: Population, config: SimulationConfig) -> tuple[TransactionLog, GroundTruth]:
    """Generate the transaction log and the injected-effect bookkeeping.  The
    rows are put in canonical order here, so the log keeps these columns
    rather than copies of them."""
    columns, truth = _draw_rows(population, config)  # ts, person, shop, register, basket
    N = columns[0].shape[0]
    # (ts, shop, register) order is canonical, since the shop and register
    # labels are zero-padded to sort as their numbers do; tx ids number the
    # rows, all of one width, so sorted.  One int64 key packs the three and
    # the row, so it is unique and its plain sort is the stable three-key
    # order; the config's checks keep it below 2**63
    order = columns[0] - _DAY0 * 86400
    order *= config.n_shops
    order += columns[2]
    order *= config.n_registers_per_shop
    order += columns[3]
    order *= N
    order += np.arange(N)
    order.sort()
    order %= N
    for k in range(len(columns)):  # each unsorted column dies as it is replaced
        columns[k] = columns[k][order]
    del order
    ts, person, shop, reg, basket = columns
    del columns  # so each id column's codes die as they are interned
    width = max(8, len(str(N - 1)))
    tx_ids = np.hstack((np.full((N, 1), ord("T"), np.uint8), decimal_digits(np.arange(N), width)))
    tx_ids = ByteColumn(tx_ids.view(f"S{width + 1}")[:, 0], np.full(N, width + 1))
    person = intern_codes(population.person_ids, person)
    shop = intern_codes(_numbered("S", config.n_shops, 2), shop)
    reg = intern_codes(_numbered("R", config.n_registers_per_shop, 1), reg)
    n_items, item_codes = len(config.items), [i.upper() for i in config.items]
    table = [
        tuple(sorted([_ANCHOR_CODES[code >> n_items]]
                     + [c for k, c in enumerate(item_codes) if code >> k & 1]))
        for code in range(len(_ANCHOR_CODES) << n_items)
    ]
    row = row_dtype(N)  # the log keeps codes of its row type as they are
    log = TransactionLog(ts, (tx_ids, np.arange(N, dtype=row)), person, shop, reg,
                         (table, basket.astype(row)), simulation_catalog(config))
    return log, truth


@dataclass
class SimResult:
    config: SimulationConfig
    population: Population
    log: TransactionLog
    ground_truth: GroundTruth
    catalog: ItemCatalog

    def demographics(self) -> Demographics:
        rng = np.random.default_rng(int(self.config.seed) + 2)
        return self.population.demographics(self.config.demographics_known_fraction, rng)


def simulate(config: SimulationConfig) -> SimResult:
    population = generate_population(config)
    log, truth = simulate_log(population, config)
    return SimResult(config, population, log, truth, simulation_catalog(config))


def write_simulation(result: SimResult, out_dir: Union[str, os.PathLike]) -> dict:
    """Write transactions/catalog/demographics CSVs plus ground_truth.json."""
    make_dirs(out_dir)
    paths = {
        "transactions": os.path.join(out_dir, "transactions.csv"),
        "catalog": os.path.join(out_dir, "catalog.csv"),
        "demographics": os.path.join(out_dir, "demographics.csv"),
        "ground_truth": os.path.join(out_dir, "ground_truth.json"),
    }
    serialize_transactions(result.log, paths["transactions"])
    result.catalog.to_csv(paths["catalog"])
    result.demographics().to_csv(paths["demographics"])
    with open_output(paths["ground_truth"], "ground truth", "w") as fh:
        json.dump(asdict(result.ground_truth), fh, indent=2, sort_keys=True)
        fh.write("\n")
    return paths
