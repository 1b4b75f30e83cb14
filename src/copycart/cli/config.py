"""Run configuration: flat dataclass, nested YAML file, flag overrides."""

from __future__ import annotations

import dataclasses
import math
import os
from dataclasses import dataclass, field
from typing import Optional, Union

import yaml

from .._util import check_types, config_seed
from ..errors import ConfigError
from ..estimate import DEMOGRAPHIC_GROUPINGS, GROUPINGS
from ..matching import AdjustmentSpec

N_BOOT_MAX = 10**6  # one draw's four replicate tables then hold 32 MB of int64


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
    min_fraction: float = 0.01
    # pairing
    adjustment: AdjustmentSpec = field(default_factory=AdjustmentSpec)
    # estimation
    n_boot: int = 1000
    alpha: float = 0.05
    min_stratum: int = 50
    # analysis toggles
    baseline: bool = True
    sensitivity: bool = True
    dose_response: bool = False
    coordination: bool = False
    subgroups: tuple[str, ...] = ()
    anchor_mimicry: bool = False
    infer_status: bool = False
    # gate
    require_balance: bool = False

    def __post_init__(self):
        self.seed = config_seed(self.seed)
        if isinstance(self.adjustment, dict):
            known = {f.name for f in dataclasses.fields(AdjustmentSpec)}
            for key in self.adjustment:
                if key not in known:
                    raise ConfigError(f"unknown key {key!r} in config section 'adjustment'")
            check_types(AdjustmentSpec, self.adjustment, "adjustment: ")
            try:
                self.adjustment = AdjustmentSpec(**self.adjustment)
            except ValueError as err:
                raise ConfigError(f"adjustment: {err}") from None
        elif not isinstance(self.adjustment, AdjustmentSpec):
            raise ConfigError(f"adjustment must be a mapping, got {self.adjustment!r}")
        check_types(RunConfig, vars(self))
        if not (0.0 < self.alpha < 1.0):
            raise ConfigError("alpha must lie in (0, 1)")
        least = math.ceil(2 / self.alpha)  # each tail of a percentile interval needs a replicate
        if least > N_BOOT_MAX:
            raise ConfigError(f"alpha {self.alpha} is too small for any accepted n_boot: "
                              f"ceil(2 / alpha) = {least} is above {N_BOOT_MAX}")
        if self.n_boot < least:
            raise ConfigError(f"n_boot {self.n_boot} is below ceil(2 / alpha) = {least} for alpha {self.alpha}")
        if self.n_boot > N_BOOT_MAX:
            raise ConfigError(f"n_boot {self.n_boot} is above {N_BOOT_MAX}")
        if self.max_gap_s < 1:
            raise ConfigError("max_gap_s must be positive")
        if self.min_pair_count < 1:
            raise ConfigError("min_pair_count must be positive")
        if not (0.0 <= self.min_fraction <= 1.0):
            raise ConfigError("min_fraction must lie in [0, 1]")
        if self.min_stratum < 0:
            raise ConfigError("min_stratum must not be negative")
        self.subgroups = tuple(self.subgroups)
        for g in self.subgroups:
            if g not in GROUPINGS:
                raise ConfigError(f"unknown subgroup {g!r}; choose from {GROUPINGS}")

    def require_demographics(self) -> None:
        """ConfigError unless demographics are given where an analysis needs them."""
        if self.demographics is None and (
            self.infer_status or any(g in DEMOGRAPHIC_GROUPINGS for g in self.subgroups)
        ):
            raise ConfigError("demographics input required for status/gender/age analyses")

    @classmethod
    def from_dict(cls, data: dict, **overrides) -> "RunConfig":
        """Flatten the nested config sections, refusing a key given in both forms, and apply flag overrides."""
        flat: dict = {}
        sections = {
            "input": ("transactions", "catalog", "demographics"),
            "dyads": ("max_gap_s", "min_pair_count", "min_fraction"),
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
                entries = value.items()
            elif key in known:
                entries = [(key, value)]
            else:
                raise ConfigError(f"unknown config key {key!r}")
            for k, v in entries:
                if key in sections and k not in sections[key]:
                    raise ConfigError(f"unknown key {k!r} in config section {key!r}")
                if k in flat:
                    raise ConfigError(f"config key {k!r} is given both at the top level and in its section")
                flat[k] = v
        for k, v in overrides.items():
            if v is not None:
                flat[k] = v
        missing = {"transactions", "catalog", "seed"} - set(flat)
        if missing:
            raise ConfigError(f"config is missing required keys: {sorted(missing)}")
        return cls(**flat)


def load_yaml(path: Union[str, os.PathLike]) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = yaml.safe_load(fh)
    except (OSError, UnicodeDecodeError, yaml.YAMLError) as err:
        raise ConfigError(f"cannot read config file {path}: {err}") from None
    if data is None:
        return {}
    if not isinstance(data, dict):
        raise ConfigError("config file must contain a mapping at top level")
    return data
