"""Small shared helpers: seed derivation, the Student-t tail, the on-disk CSV
table format, and the type checker for configuration values."""

from __future__ import annotations

import csv
import io
import itertools
import math
import numbers
import operator
import os
import typing
import zlib
from collections import Counter
from typing import Callable, Iterator, Mapping, NamedTuple, Optional, Sequence, Union

import numpy as np

from .errors import ConfigError, IngestError

Source = Union[str, os.PathLike, io.TextIOBase]


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


class ByteColumn(NamedTuple):
    """Fields as zero-padded fixed-width UTF-8 bytes, and the length of each:
    a field may end in NUL, which the padding hides."""

    values: np.ndarray
    lens: np.ndarray

    @classmethod
    def of(cls, texts: Sequence[str]) -> "ByteColumn":
        """Each str as UTF-8 bytes."""
        data = list(map(str.encode, texts))
        return cls(np.array(data, "S"), np.fromiter(map(len, data), np.int64, len(data)))

    def texts(self) -> list[str]:
        """Each field as a str."""
        out = list(map(bytes.decode, self.values.tolist()))
        nuls = self.lens - np.strings.str_len(self.values)  # the trailing NULs `tolist` drops
        for k in np.flatnonzero(nuls).tolist():
            out[k] += "\0" * int(nuls[k])
        return out

    def take(self, idx) -> "ByteColumn":
        """The fields numbered `idx`."""
        return ByteColumn(self.values[idx], self.lens[idx])


# A recognizer of the plain decimal forms, `-?D+` and for floats also
# `-?D+(.D+)?(e[-+]?D+)?`, run over a field's bytes one column at a time.
# Byte classes: digit, "-", "+", ".", "e", any other.
_BYTE_CLASS = np.full(256, 5, np.uint8)
_BYTE_CLASS[np.frombuffer(b"0123456789-+.e", np.uint8)] = [0] * 10 + [1, 2, 3, 4]
# states: 0 start, 1 sign, 2 integer digits, 3 point, 4 fraction digits,
# 5 exponent mark, 6 exponent sign, 7 exponent digits, 8 rejected
_PLAIN_STEP = np.array([
    [2, 1, 8, 8, 8, 8],
    [2, 8, 8, 8, 8, 8],
    [2, 8, 8, 3, 5, 8],
    [4, 8, 8, 8, 8, 8],
    [4, 8, 8, 8, 5, 8],
    [7, 6, 6, 8, 8, 8],
    [7, 8, 8, 8, 8, 8],
    [7, 8, 8, 8, 8, 8],
    [8, 8, 8, 8, 8, 8],
], np.uint8)
_PLAIN_WIDTH = 32  # longer fields are left to `int` or `float`
_PLAIN_INT_DIGITS = 18  # fits int64 whatever the digits


def decode_numbers(fields: ByteColumn, parse: type) -> tuple[np.ndarray, int]:
    """(values, k): each field as `parse`, `int` or `float`, reads it, into an
    int64 or float64 array, and the first field it rejects (or that
    overflows int64), -1 if none.  Fields of the plain decimal forms are cast
    by numpy in one step, which reads them as `parse` does; any other field
    goes through `parse` itself."""
    values, lens = fields
    n = lens.shape[0]
    chars = np.ascontiguousarray(values).view(np.uint8).reshape(n, values.itemsize)
    state = np.zeros(n, np.uint8)
    for col in range(min(values.itemsize, _PLAIN_WIDTH)):
        state = np.where(col < lens, _PLAIN_STEP[state, _BYTE_CLASS[chars[:, col]]], state)
    if parse is int:
        plain = (state == 2) & (lens - (chars[:, 0] == ord("-")) <= _PLAIN_INT_DIGITS)
    else:
        plain = np.isin(state, (2, 4, 7)) & (lens <= _PLAIN_WIDTH)
    out = np.empty(n, np.int64 if parse is int else np.float64)
    out[plain] = values[plain].astype(out.dtype)
    other = np.flatnonzero(~plain)
    for k, text in zip(other.tolist(), fields.take(other).texts()):
        try:
            out[k] = parse(text)
        except (ValueError, OverflowError):
            return out, k
    return out, -1


def decimal_digits(values: np.ndarray, width: int) -> np.ndarray:
    """(rows, width) uint8 ASCII digits of non-negative ints below 10**width,
    zero-padded on the left."""
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


# a column to write: (values, index), the field of row r being values[index[r]],
# or values[r] when index is None; values may also be a function giving the
# fields of a slice of rows as a ByteColumn, leaving the row count to the
# other columns
Column = tuple[Union[ByteColumn, Sequence, np.ndarray, Callable[[slice], ByteColumn]], Optional[np.ndarray]]

# bytes that can make csv.writer quote a field, or refuse it (NUL and "\r" it
# writes bare today); each value holding one is written by csv.writer
_SPECIAL = np.isin(np.arange(256), list(b',"\r\n\0'))
_WRITE_BLOCK = 1 << 20  # bytes of (rows, width) block assembled per write


def _rendered(values, sep: bytes, alone: bool) -> tuple[np.ndarray, np.ndarray]:
    """(block, lens): each value as csv.writer writes the field, then `sep`,
    as a uint8 row of `block` holding `lens` bytes.  A str is written as it
    is, None as an empty field, anything else as `str` gives it; `alone`
    says the field is a whole row, so an empty one is written `""`."""
    if not isinstance(values, ByteColumn):
        values = ByteColumn.of(["" if v is None else str(v) for v in values])
    chars, lens = values
    n, width = lens.shape[0], chars.dtype.itemsize
    chars = np.ascontiguousarray(chars).view(np.uint8).reshape(n, width)
    special = alone & (lens == 0)
    if chars.min(initial=255) <= ord(","):  # every special byte, and the NUL padding, is
        special = special | (_SPECIAL[chars] & (np.arange(width) < lens[:, None])).any(axis=1)
    quote = np.flatnonzero(special).tolist()
    text = io.StringIO()
    writer = csv.writer(text, lineterminator="\n")
    quoted = []
    for field in values.take(quote).texts():
        text.seek(0)
        text.truncate()
        writer.writerow([field])
        quoted.append(text.getvalue()[:-1].encode())
    block = np.zeros((n, max([width, *map(len, quoted)]) + 1), np.uint8)
    block[:, :width] = chars
    lens = lens.copy()
    for k, field in zip(quote, quoted):
        block[k, : len(field)] = np.frombuffer(field, np.uint8)
        lens[k] = len(field)
    block[np.arange(n), lens] = ord(sep)
    return block, lens + 1


def _csv_rows(parts: list, n: int) -> Iterator[bytes]:
    """Rows 0..n-1 of the columns `parts`, each a (width, fields) pair whose
    `fields(rows)` renders a slice of rows as (block, lens) no wider than
    about `width`; gathered a bounded (rows, width) block at a time and
    trimmed by the fields' lengths."""
    step = max(1, _WRITE_BLOCK // max(sum(width for width, _ in parts), 1))
    for a in range(0, n, step):
        blocks = [fields(slice(a, min(a + step, n))) for _, fields in parts]
        keep = np.concatenate([np.arange(block.shape[1]) < lens[:, None] for block, lens in blocks], axis=1)
        yield np.concatenate([block for block, _ in blocks], axis=1)[keep].tobytes()


def write_csv(dest: Source, header: Sequence[str], columns: Sequence[Column]) -> None:
    """The header, then one row per entry of the columns, as CSV with "\\n"
    line ends, byte for byte as csv.writer writes it; a path is written as
    UTF-8.  Each value is rendered once: a column with an index renders its
    values up front, a ByteColumn or function without one a block of rows at
    a time, and a numeric array without an index is first reduced to its
    distinct bit patterns."""

    def part(c: int, values, index: Optional[np.ndarray]) -> tuple[Optional[int], int, Callable]:
        """(rows, width, fields) of column c, as `_csv_rows` takes them;
        rows is None for a function."""
        sep, alone = b"\n" if c == len(header) - 1 else b",", len(header) == 1
        if isinstance(values, ByteColumn) and index is None:
            return len(values.lens), *part(c, values.take, None)[1:]
        if callable(values):
            width = values(slice(0, 0)).values.itemsize + 1
            return None, width, lambda rows: _rendered(values(rows), sep, alone)
        if isinstance(values, np.ndarray):  # numbers, written as Python writes them
            if index is None:
                bits, index = np.unique(values.view(f"u{values.itemsize}"), return_inverse=True)
                values = bits.view(values.dtype)
            values = values.tolist()
        if index is None:
            index = np.arange(len(values))
        block, lens = _rendered(values, sep, alone)
        return len(index), block.shape[1], lambda rows: (block[index[rows]], lens[index[rows]])

    head = [part(c, [h], None)[1:] for c, h in enumerate(header)]
    body = [part(c, *column) for c, column in enumerate(columns)]
    n = next((rows for rows, _, _ in body if rows is not None), 0)
    chunks = itertools.chain(_csv_rows(head, 1), _csv_rows([p[1:] for p in body], n))
    if not isinstance(dest, (str, os.PathLike)):
        dest.writelines(map(bytes.decode, chunks))
        return
    with open(dest, "wb") as fh:
        fh.writelines(chunks)


def read_bytes(source: Source, what: str) -> tuple[str, bytes]:
    """(name, whole content) of a path, or of a text stream as UTF-8; the
    name is the path, else the stream's name, else `what`.  A path that
    cannot be read is an IngestError naming it."""
    if not isinstance(source, (str, os.PathLike)):
        return getattr(source, "name", what), source.read().encode("utf-8", "surrogatepass")
    name = os.fspath(source)
    try:
        with open(source, "rb") as fh:
            return name, fh.read()
    except OSError as err:
        raise IngestError(f"{name}: cannot read {what}: {err.strerror}") from None


def utf8_text(name: str, data: bytes) -> str:
    """`data` as UTF-8 text; an IngestError names the file and line where it is not."""
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as err:
        line = data.count(b"\n", 0, err.start) + 1
        raise IngestError(f"{name} line {line}: not UTF-8 text ({err.reason})") from None


def read_text(source: Source, what: str) -> tuple[str, str]:
    """(name, whole text) of a path read as UTF-8 or of a text stream."""
    name, data = read_bytes(source, what)
    return name, utf8_text(name, data)


def header_order(got: Sequence[str], want: Sequence[str], name: str) -> dict[str, int]:
    """Where each column of `want` sits in the header `got`; an IngestError
    unless `got` names exactly those columns, each once, in any order."""
    got = [h.strip() for h in got]
    if set(got) != set(want):
        raise IngestError(f"{name} line 1: header must contain exactly {tuple(want)}, got {got}")
    repeated = [h for h, k in Counter(got).items() if k > 1]
    if repeated:
        raise IngestError(f"{name} line 1: header repeats column {repeated[0]!r}")
    return {c: got.index(c) for c in want}


class CsvTable:
    """The non-blank records of a CSV file below its header, if it has one
    (`index` maps each header column to its field position)."""

    def __init__(self, name: str, records: list, index: Optional[dict] = None):
        self.name, self.records, self.index = name, records, index
        self.first = int(index is not None)
        self.rows = list(filter(None, records[self.first :]))

    def error(self, k: int, message: str) -> IngestError:
        """An IngestError naming row k by its record number: blank lines and
        the header count, so the first row under a header is line 2."""
        numbered = itertools.islice(enumerate(self.records, 1), self.first, None)
        line = next(itertools.islice((n for n, rec in numbered if rec), k, None))
        return IngestError(f"{self.name} line {line}: {message}")

    def column(self, name: str) -> list:
        return list(map(operator.itemgetter(self.index[name]), self.rows))


def read_csv(source: Source, what: str, columns: Optional[Sequence[str]] = None) -> CsvTable:
    """A CSV file read whole.  With `columns`, the first record is a header
    naming exactly those columns and every other non-blank record is as wide
    as it.  Undecodable bytes, a malformed record, a wrong header and a wrong
    field count are IngestErrors naming the file and line."""
    name, text = read_text(source, what)
    records: list = []  # of tuples, which the garbage collector soon stops tracking
    try:
        records.extend(map(tuple, csv.reader(io.StringIO(text, newline=""))))
    except csv.Error as err:
        raise IngestError(f"{name} line {len(records) + 1}: {err}") from None
    if columns is None:
        return CsvTable(name, records)
    header = records[0] if records else columns  # an empty file is a header alone
    table = CsvTable(name, records, header_order(header, columns, name))
    if set(map(len, table.rows)) - {len(header)}:
        k = next(k for k, row in enumerate(table.rows) if len(row) != len(header))
        raise table.error(k, f"expected {len(header)} fields, got {len(table.rows[k])}")
    return table


def config_seed(seed) -> int:
    """The mandatory root seed as an int; ConfigError unless it is a u64."""
    if seed is None:
        raise ConfigError("seed is mandatory; there is no wall-clock default")
    try:
        seed = int(seed)
    except (TypeError, ValueError):
        raise ConfigError(f"seed must be an integer, got {seed!r}") from None
    if not (0 <= seed < 2**64):
        raise ConfigError("seed must be a u64")
    return seed


_KIND_NAMES = {bool: "true or false", int: "an integer", float: "a number", str: "a string"}


def _is_a(value, hint) -> bool:
    """Whether `value` has the annotated type `hint`.  A bool is neither an
    integer nor a number, an integer is a number, and a list or a tuple
    stands for either."""
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
    if origin is list or origin is tuple:
        if not isinstance(value, (list, tuple)):
            return False
        if origin is tuple and args[-1] is not Ellipsis:
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
