"""Small shared helpers: seed derivation, the Student-t tail, radix and
run helpers for integer keys, and the type checker for configuration values.
The on-disk CSV format lives in `csvio`."""

from __future__ import annotations

import math
import numbers
import typing
import zlib
from typing import Mapping, Union

import numpy as np

from .errors import ConfigError


def derive_seed(seed: int, *tokens) -> int:
    """Deterministic 64-bit child seed from a root seed and string/int tokens.

    All randomness in the package flows from one mandatory root seed; stages
    and strata derive their own streams with stable tokens so adding or
    reordering analyses never perturbs unrelated results.
    """
    words = [int(seed) & 0xFFFFFFFF, (int(seed) >> 32) & 0xFFFFFFFF]
    for t in tokens:
        if isinstance(t, int):
            words.append(t & 0xFFFFFFFF)
            words.append((t >> 32) & 0xFFFFFFFF)
        else:
            words.append(zlib.crc32(str(t).encode("utf-8")))
    ss = np.random.SeedSequence(words)
    return int(ss.generate_state(1, np.uint64)[0])


def _log_gamma_ratio_half(a: float) -> float:
    """log Γ(a+½)/Γ(a).  From a = 30 on, the Stirling series of the
    difference: two lgamma values of size a·log a cancel to O(log a), which
    loses about a·1e-16 of the result."""
    if a < 30.0:
        return math.lgamma(a + 0.5) - math.lgamma(a)
    r = 1.0 / (a * a)
    series = 1 / 8 - (1 / 192 - (1 / 640 - (17 / 14336 - 31 / 18432 * r) * r) * r) * r
    return 0.5 * math.log(a) - series / a


def _beta_fraction(a: float, b: float, x: float, y: float) -> float:
    """x^a y^b / (B(a, b) I_x(a, b)) as the continued fraction of Didonato
    and Morris (1992), by the modified Lentz method.  Its terms take y = 1-x
    as given, so none cancels when x is near 1; it converges in a few dozen
    terms for x <= (a+1)/(a+b+2)."""
    tiny = 1e-300
    f = a * (a * y - b * x + 1.0) / (a + 1.0)
    f = f if abs(f) > tiny else tiny
    c, d = f, 0.0
    for m in range(1, 1000):
        num = (a + m - 1) * (a + b + m - 1) * m * (b - m) * x * x / (a + 2 * m - 1) ** 2
        den = (m + m * (b - m) * x / (a + 2 * m - 1)
               + (a + m) * (a * y - b * x + 1 + m * (2 - x)) / (a + 2 * m + 1))
        d = den + num * d
        d = 1.0 / (d if abs(d) > tiny else tiny)
        c = den + num / c
        c = c if abs(c) > tiny else tiny
        f *= c * d
        if abs(c * d - 1.0) < 1e-15:
            break
    return f


def t_two_sided_p(t: float, df: float) -> float:
    """P(|T| >= |t|) for Student's t with `df` > 0 (real) degrees of freedom.

    This is the regularized incomplete beta I_x(a, b) with a = df/2, b = ½,
    x = df/(df+t²) and 1-x = t²/(df+t²), both taken directly, from its
    continued fraction, or as 1 - I_{1-x}(b, a) past x = (a+1)/(a+b+2),
    where that one converges faster.  The prefactor x^a (1-x)^b / B(a, b)
    is summed in logs, with log1p.  Against scipy's `stdtr` the relative
    error stays under 1e-12 from df = 1 to 1e12.
    """
    t2 = t * t
    if t2 == 0.0:
        return 1.0
    if math.isinf(t2):
        return 0.0
    a = 0.5 * df
    x, y = df / (df + t2), t2 / (df + t2)
    lead = math.exp(
        -a * math.log1p(t2 / df) - 0.5 * math.log1p(df / t2)
        + _log_gamma_ratio_half(a) - 0.5 * math.log(math.pi)
    )
    if x <= (a + 1.0) / (a + 2.5):
        return lead / _beta_fraction(a, 0.5, x, y)
    return 1.0 - lead / _beta_fraction(0.5, a, y, x)


def decimal_digits(values: np.ndarray, width: int) -> np.ndarray:
    """(rows, width) uint8 ASCII digits of non-negative ints below 10**width,
    zero-padded on the left."""
    if width <= 9:  # below 2**32, where numpy divides about twice as fast
        values = values.astype(np.uint32)
    out = np.empty((values.shape[0], width), np.uint8)
    for col in range(width - 1, -1, -1):
        values, out[:, col] = np.divmod(values, 10)
    return out + np.uint8(ord("0"))


def dense_codes(key: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(code, count): each non-negative key's rank among the distinct keys,
    and the rows holding each; a bincount when the keys span few values."""
    if key.max(initial=0) >= 4 * key.shape[0]:
        return np.unique(key, return_inverse=True, return_counts=True)[1:]
    count = np.bincount(key)
    held = count > 0
    return (np.cumsum(held) - 1)[key], count[held]


def run_starts(count: np.ndarray) -> np.ndarray:
    """Where each of runs of the given lengths starts when they are laid end
    to end, then where the last one ends."""
    out = np.zeros(count.shape[0] + 1, np.int64)
    np.cumsum(count, out=out[1:])
    return out


def stable_order(code: np.ndarray, n_codes: int) -> np.ndarray:
    """Stable argsort of codes in [0, n_codes): a radix sort when they fit
    16 bits."""
    return np.argsort(code.astype(np.min_scalar_type(max(n_codes - 1, 0))), kind="stable")


def config_seed(seed) -> int:
    """The mandatory root seed as an int; ConfigError unless it is a u64."""
    if seed is None:
        raise ConfigError("seed is mandatory; there is no wall-clock default")
    if not _is_a(seed, int):
        raise ConfigError(f"seed must be an integer, got {seed!r}")
    if not (0 <= seed < 2**64):
        raise ConfigError("seed must be a u64")
    return int(seed)


_KIND_NAMES = {bool: "true or false", int: "an integer", float: "a number", str: "a string"}


def _is_a(value, hint) -> bool:
    """Whether `value` has the annotated type `hint`.  A bool is neither an
    integer nor a number, an integer is a number, and a list, as YAML gives
    one, stands for a tuple."""
    if hint is int or hint is float:
        kind = numbers.Integral if hint is int else numbers.Real
        return isinstance(value, kind) and not isinstance(value, bool)
    origin, args = typing.get_origin(hint), typing.get_args(hint)
    if origin is Union:
        return any(_is_a(value, a) for a in args)
    if origin is dict:
        return isinstance(value, dict) and all(
            _is_a(k, args[0]) and _is_a(v, args[1]) for k, v in value.items()
        )
    if origin is tuple:
        if not isinstance(value, (list, tuple)):
            return False
        if args[-1] is not Ellipsis:
            return len(value) == len(args) and all(map(_is_a, value, args))
        return all(_is_a(v, args[0]) for v in value)
    return isinstance(value, hint)


def check_types(cls: type, values: Mapping[str, object], where: str = "") -> None:
    """ConfigError unless each value that names a field of dataclass `cls`
    has the type the field is annotated with, nested entries included."""
    hints = typing.get_type_hints(cls)
    for name, value in values.items():
        if name in hints and not _is_a(value, hints[name]):
            kind = _KIND_NAMES.get(hints[name]) or str(hints[name]).replace("typing.", "")
            raise ConfigError(f"{where}{name} must be {kind}, got {value!r}")
