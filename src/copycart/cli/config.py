"""Run configuration: flat dataclass, nested YAML file, flag overrides."""

from __future__ import annotations

import dataclasses
import numbers
import os
from dataclasses import dataclass, field
from typing import Optional, Union

import yaml

from ..errors import ConfigError
from ..estimate import GROUPINGS
from ..matching import AdjustmentSpec


_INTEGER_FIELDS = ("max_gap_s", "min_pair_count", "n_boot", "min_stratum", "threads")
_NUMBER_FIELDS = ("min_fraction", "alpha")
_BOOLEAN_FIELDS = (
    "require_anchor", "baseline", "sensitivity", "dose_response", "coordination",
    "anchor_mimicry", "infer_status", "require_balance",
)
_ADJUSTMENT_BOOLEANS = (
    "match_focal_identity", "match_exact_anchor", "caliper_absolute", "exclude_own_transactions",
)


def _check_types(obj, names, kind, what: str, where: str = "") -> None:
    """ConfigError unless each named field of `obj` is a `kind`; a bool
    counts as neither an integer nor a number."""
    for name in names:
        value = getattr(obj, name)
        if kind is bool:
            ok = isinstance(value, bool)
        else:
            ok = isinstance(value, kind) and not isinstance(value, bool)
        if not ok:
            raise ConfigError(f"{where}{name} must be {what}, got {value!r}")


def _default_adjustment() -> AdjustmentSpec:
    # raw cell shares contain the dyad's own purchases; see AdjustmentSpec
    return AdjustmentSpec(exclude_own_transactions=True)


@dataclass
class RunConfig:
    transactions: str
    catalog: str
    seed: int
    demographics: Optional[str] = None
    out: str = "out"
    # dyad extraction
    max_gap_s: int = 300
    min_pair_count: int = 10
    require_anchor: bool = True
    min_fraction: float = 0.01
    # pairing
    adjustment: AdjustmentSpec = field(default_factory=_default_adjustment)
    # estimation
    n_boot: int = 1000
    alpha: float = 0.05
    min_stratum: int = 50
    # analysis toggles
    baseline: bool = True
    sensitivity: bool = True
    dose_response: bool = False
    coordination: bool = False
    subgroups: tuple = ()
    anchor_mimicry: bool = False
    infer_status: bool = False
    # execution
    threads: int = 1
    require_balance: bool = False

    def __post_init__(self):
        if self.seed is None:
            raise ConfigError("seed is mandatory; there is no wall-clock default")
        try:
            self.seed = int(self.seed)
        except (TypeError, ValueError):
            raise ConfigError(f"seed must be an integer, got {self.seed!r}") from None
        if not (0 <= self.seed < 2**64):
            raise ConfigError("seed must be a u64")
        _check_types(self, _INTEGER_FIELDS, numbers.Integral, "an integer")
        _check_types(self, _NUMBER_FIELDS, numbers.Real, "a number")
        _check_types(self, _BOOLEAN_FIELDS, bool, "true or false")
        if self.n_boot < 1:
            raise ConfigError("n_boot must be positive")
        if not (0.0 < self.alpha < 1.0):
            raise ConfigError("alpha must lie in (0, 1)")
        if self.max_gap_s < 1:
            raise ConfigError("max_gap_s must be positive")
        if self.min_pair_count < 1:
            raise ConfigError("min_pair_count must be positive")
        if self.threads < 1:
            raise ConfigError("threads must be positive")
        if not isinstance(self.subgroups, (list, tuple)):
            raise ConfigError(f"subgroups must be a list, got {self.subgroups!r}")
        self.subgroups = tuple(self.subgroups)
        for g in self.subgroups:
            if g not in GROUPINGS:
                raise ConfigError(f"unknown subgroup {g!r}; choose from {GROUPINGS}")
        if isinstance(self.adjustment, dict):
            # the keys given override the CLI defaults, not the library's
            try:
                self.adjustment = dataclasses.replace(_default_adjustment(), **self.adjustment)
            except (TypeError, ValueError) as err:
                raise ConfigError(f"adjustment: {err}") from None
            _check_types(self.adjustment, _ADJUSTMENT_BOOLEANS, bool, "true or false", "adjustment: ")
        elif not isinstance(self.adjustment, AdjustmentSpec):
            raise ConfigError(f"adjustment must be a mapping, got {self.adjustment!r}")

    def validate_paths(self) -> None:
        for name in ("transactions", "catalog", "demographics"):
            p = getattr(self, name)
            if p is not None and not os.path.exists(p):
                raise ConfigError(f"{name} path does not exist: {p}")
        if self.demographics is None and (
            self.infer_status
            or any(w in g for g in self.subgroups for w in ("status", "gender", "age"))
        ):
            raise ConfigError("demographics input required for status/gender/age analyses")

    @classmethod
    def from_dict(cls, data: dict, **overrides) -> "RunConfig":
        """Flatten the nested config sections and apply flag overrides."""
        flat: dict = {}
        sections = {
            "input": ("transactions", "catalog", "demographics"),
            "dyads": ("max_gap_s", "min_pair_count", "require_anchor", "min_fraction"),
            "estimation": ("n_boot", "seed", "alpha", "min_stratum"),
            "analyses": (
                "baseline",
                "sensitivity",
                "dose_response",
                "coordination",
                "subgroups",
                "anchor_mimicry",
                "infer_status",
            ),
        }
        known = {f.name for f in dataclasses.fields(cls)}
        for key, value in data.items():
            if key in sections:
                if not isinstance(value, dict):
                    raise ConfigError(f"config section {key!r} must be a mapping")
                for k, v in value.items():
                    if k not in sections[key]:
                        raise ConfigError(f"unknown key {k!r} in config section {key!r}")
                    flat[k] = v
            elif key in known:
                flat[key] = value
            else:
                raise ConfigError(f"unknown config key {key!r}")
        for k, v in overrides.items():
            if v is not None:
                flat[k] = v
        missing = {"transactions", "catalog", "seed"} - set(flat)
        if missing:
            raise ConfigError(f"config is missing required keys: {sorted(missing)}")
        return cls(**flat)

    def to_dict(self) -> dict:
        d = dataclasses.asdict(self)
        d["subgroups"] = list(self.subgroups)
        return d


def load_yaml(path: Union[str, os.PathLike]) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        data = yaml.safe_load(fh)
    if data is None:
        return {}
    if not isinstance(data, dict):
        raise ConfigError("config file must contain a mapping at top level")
    return data
