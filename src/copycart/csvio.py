"""The on-disk table format, both directions.

Every CSV file the package reads, the log, the catalog, the demographics
and the stage dumps, goes through one record loop, `read_records`: the
bytes are split into byte columns a chunk of records at a time, as
`csv.reader` would split them.  `write_csv` writes columns back byte for
byte as `csv.writer` does.
"""

from __future__ import annotations

import csv
import io
import itertools
import os
from collections import Counter
from functools import partial, reduce
from typing import TYPE_CHECKING, Callable, Iterable, Iterator, NamedTuple, Optional, Sequence, Union

import numpy as np

from .errors import IngestError

if TYPE_CHECKING:
    from .model import TransactionLog

Source = Union[str, os.PathLike, io.TextIOBase]


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


def distinct_fields(values: np.ndarray, lens: np.ndarray) -> tuple[ByteColumn, np.ndarray, np.ndarray]:
    """(distinct, codes, first) of a byte column: its distinct fields in code
    point order, each row's index into them, and the row where each first
    occurs.  Rows sort stably by their bytes, which keeps that
    order in UTF-8, then by length, since a tie differs only in trailing NULs."""
    n = lens.shape[0]
    key = values.view(np.uint8).reshape(n, values.itemsize)
    if (lens != np.strings.str_len(values)).any():  # a field ends in NUL, as the padding does
        size = (int(lens.max()).bit_length() + 7) // 8
        key = np.hstack((key, lens.astype(">u8").view(np.uint8).reshape(n, 8)[:, 8 - size :]))
    order = np.lexsort(key.T[::-1])  # a radix pass per byte column
    rows, sizes = values[order], lens[order]  # equal padded bytes and length: the same field
    new = np.ones(n, bool)
    new[1:] = (rows[1:] != rows[:-1]) | (sizes[1:] != sizes[:-1])
    codes = np.empty(n, np.int64)
    codes[order] = np.cumsum(new) - 1
    first = order[new]
    return ByteColumn(values[first], lens[first]), codes, first


# the odd multiplier that mixes each word into `grouped_fields`' row hash
_MIX = np.uint64(0x9E3779B97F4A7C15)


def grouped_fields(values: np.ndarray, lens: np.ndarray) -> tuple[ByteColumn, np.ndarray, np.ndarray]:
    """`distinct_fields`' triple, its groups in no set order.  Each field's
    8-byte words and its length are mixed into one hash, and one sort of the
    hashes groups the rows.  Every row is checked against its group's first
    row; should two fields share a hash, the triple is `distinct_fields`'."""
    n, width = lens.shape[0], values.itemsize
    words = np.zeros((n, -(-width // 8) * 8), np.uint8)
    words[:, :width] = values.view(np.uint8).reshape(n, width)
    words = words.view(np.uint64)
    mixed = np.zeros(n, np.uint64)
    for word in (*words.T, lens.astype(np.uint64)):  # the length meets a hash of the bytes, not a word
        mixed ^= word
        mixed *= _MIX
        mixed ^= mixed >> np.uint64(29)
    order = np.argsort(mixed)
    mixed = mixed[order]
    new = np.ones(n, bool)
    new[1:] = mixed[1:] != mixed[:-1]
    first = np.minimum.reduceat(order, np.flatnonzero(new))
    codes = np.empty(n, np.int64)
    codes[order] = np.cumsum(new) - 1
    at = first[codes]
    if not ((words == words[at]).all() and (lens == lens[at]).all()):
        return distinct_fields(values, lens)
    return ByteColumn(values[first], lens[first]), codes, first


# -- reading ------------------------------------------------------------------


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


def make_dirs(path: Union[str, os.PathLike]) -> None:
    """Create the output directory `path` and its parents, as `os.makedirs`
    does; a path that cannot be a directory is an IngestError naming it."""
    try:
        os.makedirs(path, exist_ok=True)
    except OSError as err:
        raise IngestError(f"{os.fspath(path)}: cannot write directory: {err.strerror}") from None


def open_output(path: Union[str, os.PathLike], what: str, mode: str = "wb"):
    """`path` opened to write, a text mode as UTF-8 with "\\n" line ends; a
    path that cannot be written is an IngestError naming it."""
    text = {} if "b" in mode else {"encoding": "utf-8", "newline": "\n"}
    try:
        return open(path, mode, **text)
    except OSError as err:
        raise IngestError(f"{os.fspath(path)}: cannot write {what}: {err.strerror}") from None


def utf8_text(name: str, data: bytes) -> str:
    """`data` as UTF-8 text; an IngestError names the file and line where it
    is not, counting line ends as `csv.reader` does: "\\r\\n", "\\n" or "\\r"."""
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as err:
        line = len(data[: err.start + 1].splitlines())  # the bad byte is no line end
        raise IngestError(f"{name} line {line}: not UTF-8 text ({err.reason})") from None


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


# records split and checked per parser step; bounds the offsets and bytes held
_PARSE_CHUNK = 1 << 14

# bytes searched for line ends at a time
_SCAN_BLOCK = 1 << 20

# the ASCII bytes that `str.strip` takes off the ends of a field
_SPACE = np.isin(np.arange(256), [9, 10, 11, 12, 13, 28, 29, 30, 31, 32])


def _byte_column(buf: np.ndarray, starts: np.ndarray, stops: np.ndarray,
                 idx: np.ndarray, strip: bool) -> ByteColumn:
    """The fields [start, stop) of `buf` numbered `idx`, gathered from a
    strided view of `buf` whose windows are as wide as the longest field
    into a copy that shares no memory with `buf`; `strip` moves both offsets
    past ASCII whitespace."""
    s, e = starts[idx], stops[idx]
    for edge, step, at in ((s, 1, 0), (e, -1, -1)) if strip else ():
        rows = np.flatnonzero((s < e) & _SPACE[buf[edge + at]])
        while rows.shape[0]:
            edge[rows] += step
            rows = rows[(s[rows] < e[rows]) & _SPACE[buf[edge[rows] + at]]]
    lens = e - s
    width = max(int(lens.max(initial=0)), 1)
    values = np.ndarray((buf.shape[0] - width + 1,), f"S{width}", buf, strides=(1,))[s]
    if (lens < width).any():  # zero each window past its field, in place in the fresh copy
        window = values.view(np.uint8).reshape(-1, width)
        window *= np.tri(width + 1, width, -1, np.uint8).take(lens, axis=0)  # row k: k ones
    return ByteColumn(values, lens)


def _str_column(fields: list[str], idx: np.ndarray, strip: bool) -> ByteColumn:
    """The fields numbered `idx`, `str.strip`ped if `strip`, as a byte column."""
    return ByteColumn.of([fields[i].strip() if strip else fields[i] for i in idx.tolist()])


def _record_chunks(
    data: bytes, name: str
) -> Iterator[tuple[Callable, np.ndarray, np.ndarray, Optional[np.ndarray]]]:
    """The records of CSV bytes as `csv.reader` reads them, a chunk at a time:
    (column, fields per record, blank-line mask, lines), where `column(idx,
    strip)` gives the chunk's fields numbered `idx` (-1 is an empty field)
    as a byte column, stripped as `str.strip` does if `strip`.  ASCII text
    free of quotes, carriage returns and NULs is split on its bytes: a record
    ends at a newline, a field at a comma, and a blank line counts one empty
    field; each record is one line, and `lines` is None.  Other text is
    decoded from UTF-8 (else an IngestError names the file `name` and the
    line) and goes through `csv.reader`, where a quoted field may span
    lines; `lines` gives the line each record starts on.
    """
    if not data.isascii() or b'"' in data or b"\r" in data or b"\x00" in data:
        # newline="" splits lines as a file opened for csv does
        reader = csv.reader(io.StringIO(utf8_text(name, data), newline=""))
        del data
        while True:
            chunk: list = []
            ends = [reader.line_num]  # where the last chunk ended, then where each record ends
            try:
                for record in itertools.islice(reader, _PARSE_CHUNK):
                    chunk.append(record)
                    ends.append(reader.line_num)
            except csv.Error as e:
                raise IngestError(f"{name} line {ends[-1] + 1}: {e}") from None
            if not chunk:
                return
            widths = np.fromiter(map(len, chunk), np.int64, len(chunk))
            lines = np.array(ends[:-1], np.int64) + 1
            yield partial(_str_column, [*itertools.chain.from_iterable(chunk), ""]), widths, widths == 0, lines
    whole = np.frombuffer(data, np.uint8)
    ends = np.concatenate([np.empty(0, np.int64)] + [  # a block's mask at a time, not the file's
        np.flatnonzero(whole[a : a + _SCAN_BLOCK] == ord("\n")) + a for a in range(0, len(data), _SCAN_BLOCK)])
    if not data.endswith(b"\n") and data:
        ends = np.append(ends, len(data))  # the last record lacks its newline
    for a in range(0, ends.shape[0], _PARSE_CHUNK):
        lo, hi = (ends[a - 1] + 1 if a else 0), ends[a : a + _PARSE_CHUNK][-1] + 1
        # fields are cut by windows as wide as the chunk's longest line: from
        # the file's own bytes where one fits before the file ends, else from
        # a copy of the chunk, its last record ended by a newline, with room
        # for a window after it
        width = int(np.diff(ends[a : a + _PARSE_CHUNK], prepend=lo - 1).max())
        buf = whole[lo:] if hi + width <= len(data) else np.frombuffer(
            b"".join((data[lo:hi], b"\n", bytes(width))), np.uint8)
        stops = np.flatnonzero((buf[: hi - lo] == ord(",")) | (buf[: hi - lo] == ord("\n")))
        last = np.flatnonzero(buf[stops] == ord("\n"))  # each record's last field
        widths = np.diff(last, prepend=-1)
        starts, stops = np.append(0, stops + 1), np.append(stops, hi - lo)  # field -1 is empty
        blank = (widths == 1) & (starts[last] == stops[last])
        yield partial(_byte_column, buf, starts, stops), widths, blank, None


def _records(chunks: Iterator[tuple], name: str, header: Optional[Sequence[str]]) -> Iterator[tuple]:
    """`read_records`' loop over `_record_chunks`."""
    col: Optional[dict[str, int]] = None
    line = 1  # of the chunk's first record, where each record is one line
    for column, widths, blank, lines in chunks:
        first = np.cumsum(widths) - widths  # each record's first field
        if header is not None and col is None:
            col = header_order([] if blank[0] else column(np.arange(widths[0]), False).texts(), header, name)
            first, widths, blank = first[1:], widths[1:], blank[1:]
            lines = None if lines is None else lines[1:]
            line += 1
        kept = np.flatnonzero(~blank)  # a blank line holds no record
        yield column, col, first[kept], widths[kept], kept + line if lines is None else lines[kept]
        line += widths.shape[0]


def read_records(source: Source, what: str, header: Optional[Sequence[str]] = None) -> tuple[str, Iterator[tuple]]:
    """(name, chunks): the file's name, as `read_bytes` gives it, and its
    non-blank records a chunk at a time, as (column, col, first, widths,
    lines).  `column(idx, strip)` cuts the chunk's fields as `_record_chunks`
    does; `first`, `widths` and `lines` give each record's first field, its
    field count and the line it starts on (blank lines and a header count).
    With `header`, the first record must name exactly those columns, in any
    order, and `col` maps each to its field position; without, `col` is None
    and every record is read.  Each record's width is left to the caller;
    the file's bytes are held by the chunks alone."""
    name, data = read_bytes(source, what)
    return name, _records(_record_chunks(data, name), name, header)


class Dump(NamedTuple):
    """The named columns of a CSV table, each field as bytes, and the line
    of each row (blank lines and the header count)."""

    name: str
    columns: dict[str, ByteColumn]
    lines: np.ndarray

    def error(self, k: int, message: str) -> IngestError:
        return IngestError(f"{self.name} line {self.lines[k]}: {message}")

    def text(self, column: str, k: int) -> str:
        return self.columns[column].take([k]).texts()[0]

    def rows_in(self, log: TransactionLog, columns: tuple[str, ...]) -> np.ndarray:
        """(columns, rows) log rows of the tx ids in the given columns; -1
        where the log has no such transaction."""
        ids = [self.columns[c] for c in columns]
        found = log.rows_of(ByteColumn(*(np.concatenate(part) for part in zip(*ids))))
        return found.reshape(len(columns), -1)


def read_dump(source: Source, what: str, header: tuple[str, ...], wanted: tuple[str, ...]) -> Dump:
    """The `wanted` columns of a CSV table whose first record names exactly
    the `header` columns, in any order, and whose every other non-blank
    record is as wide; an empty file is a header alone.  Unreadable or
    undecodable bytes, a wrong header and a wrong field count are
    IngestErrors naming the file and line."""
    name, records = read_records(source, what, header)
    parts: dict[str, list[ByteColumn]] = {c: [ByteColumn(np.empty(0, "S1"), np.empty(0, np.int64))] for c in wanted}
    lines = [np.empty(0, np.int64)]
    for column, col, first, widths, at in records:
        wrong = np.flatnonzero(widths != len(header))
        if wrong.shape[0]:
            k = wrong[0]
            raise IngestError(f"{name} line {at[k]}: expected {len(header)} fields, got {widths[k]}")
        for c in wanted:
            parts[c].append(column(first + col[c], False))
        lines.append(at)
    columns = {c: ByteColumn(*map(np.concatenate, zip(*parts[c]))) for c in wanted}
    return Dump(name, columns, np.concatenate(lines))


# -- writing ------------------------------------------------------------------

# a column to write: (values, index), the field of row r being values[index[r]],
# or values[r] when index is None; values may also be a function giving the
# fields of a slice of rows as a ByteColumn, leaving the row count to the
# other columns
Column = tuple[Union[ByteColumn, Sequence, np.ndarray, Callable[[slice], ByteColumn]], Optional[np.ndarray]]

# bytes that can make csv.writer quote a field, or refuse it (NUL and "\r" it
# writes bare today); each value holding one is written by csv.writer
_SPECIAL = np.isin(np.arange(256), list(b',"\r\n\0'))
_WRITE_BLOCK = 1 << 20  # bytes of (rows, width) block assembled per write


def _rendered(values, sep: bytes, alone: bool) -> np.ndarray:
    """Each value as csv.writer writes the field, then `sep`, as an `S`
    array: a cell ends in its separator, so the padding hides none of its
    bytes.  A str is written as it is, None as an empty field, anything else
    as `str` gives it; `alone` says the field is a whole row, so an empty
    one is written `""`."""
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
    lens = lens.astype(np.int64)  # a quoted field may outgrow the lengths' narrow type
    for k, field in zip(quote, quoted):
        block[k, : len(field)] = np.frombuffer(field, np.uint8)
        lens[k] = len(field)
    block[np.arange(n), lens] = ord(sep)
    return block.view(f"S{block.shape[1]}")[:, 0]


def _csv_rows(parts: list, n: int) -> Iterator[bytes]:
    """Rows 0..n-1 of the columns `parts`, each a (width, cells) pair whose
    `cells(rows)` renders a slice of rows as `_rendered` does, no wider than
    about `width`; a bounded block of rows at a time, each row its cells
    joined."""
    step = max(1, _WRITE_BLOCK // max(sum(width for width, _ in parts), 1))
    for a in range(0, n, step):
        rows = reduce(np.strings.add, [cells(slice(a, min(a + step, n))) for _, cells in parts])
        yield b"".join(rows.tolist())


def write_csv(dest: Source, header: Sequence[str], columns: Sequence[Column],
              more: Iterable[Sequence[Column]] = ()) -> None:
    """The header, then one row per entry of the columns, then those of each
    further set of columns `more` gives, as CSV with "\\n" line ends, byte for
    byte as csv.writer writes it; a path is written as UTF-8.  A set of
    columns from `more` is taken only once the rows before it are written.
    Each value is rendered once: a column with an index renders its values
    up front, a ByteColumn or function without one a block of rows at a
    time, and a numeric array without an index is first reduced to its
    distinct bit patterns."""

    def part(c: int, values, index: Optional[np.ndarray]) -> tuple[Optional[int], int, Callable]:
        """(rows, width, cells) of column c, as `_csv_rows` takes them;
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
        cells = _rendered(values, sep, alone)
        return len(index), cells.itemsize, lambda rows: cells[index[rows]]

    def block(columns: Sequence[Column]) -> Iterator[bytes]:
        body = [part(c, *column) for c, column in enumerate(columns)]
        n = next((rows for rows, _, _ in body if rows is not None), 0)
        return _csv_rows([p[1:] for p in body], n)

    head = [part(c, [h], None)[1:] for c, h in enumerate(header)]
    chunks = itertools.chain(_csv_rows(head, 1), block(columns), itertools.chain.from_iterable(map(block, more)))
    if not isinstance(dest, (str, os.PathLike)):
        dest.writelines(map(bytes.decode, chunks))
        return
    with open_output(dest, "CSV") as fh:
        fh.writelines(chunks)
