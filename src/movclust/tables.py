"""The artifact file format: CSV tables of id-keyed rows and their JSON sidecars.

Every artifact the CLI writes, and every one it reads back, goes through
this module, and ``reading`` opens every CSV file that is read, the raw
inputs of ``core_data``'s loaders too.  A table is a header row, then one
row per id: the id, then its cells.  A table's sidecar holds what the
cells do not say, in a JSON file of the same name.  ``write_table`` writes
every numeric table, and formats each distinct value once when a table's
values repeat enough.  ``as_written`` gives a float matrix as
``read_table`` would read it back, for a caller that keeps the matrix it
wrote.
"""

from __future__ import annotations

import csv
import io
import json
from contextlib import contextmanager

import numpy as np

from .errors import DataError

#: Format of every float an artifact holds: ``NUMBER % v`` is ``format(float(v), ".9g")``.
NUMBER = "%.9g"


def _sidecar_path(path) -> str:
    return str(path).rsplit(".", 1)[0] + ".json"


def write_json(path, payload):
    with open(str(path), "w", encoding="utf-8") as fh:
        json.dump(payload, fh, sort_keys=True, indent=2)
        fh.write("\n")


def read_sidecar(path, *keys) -> dict:
    """The sidecar of the table at ``path``, which must hold each of ``keys``.

    A missing or unparseable sidecar, and one that is not a JSON object or
    lacks one of ``keys``, is a data error.
    """
    sidecar = _sidecar_path(path)
    try:
        with open(sidecar, encoding="utf-8") as fh:
            payload = json.load(fh)
    except OSError:
        raise DataError(f"{path}: missing sidecar {sidecar}") from None
    except ValueError as exc:
        raise DataError(f"{sidecar}: {exc}") from None
    if not isinstance(payload, dict):
        raise DataError(f"{sidecar}: not a JSON object")
    for key in keys:
        if key not in payload:
            raise DataError(f"{sidecar}: missing key {key!r}")
    return payload


class _Lines:
    """csv.writer target that ends each row with "\n" where the writer wrote "\r\n".

    A writer whose line terminator is "\r\n" quotes every cell that holds a
    "\r" or a "\n".  With "\n" alone it would leave a lone "\r" bare, and
    ``read_table`` would end the row there.
    """

    def __init__(self, fh):
        self.fh = fh

    def write(self, line):
        return self.fh.write(line[:-2] + "\n")


def _writer(fh):
    return csv.writer(_Lines(fh), lineterminator="\r\n")


def write_rows(path, header, rows, sidecar: dict | None = None):
    """Write a header row, then ``rows``, each cell through the csv module."""
    with open(str(path), "w", newline="", encoding="utf-8") as fh:
        writer = _writer(fh)
        writer.writerow(header)
        writer.writerows(rows)
    if sidecar is not None:
        write_json(_sidecar_path(path), sidecar)


def write_table(path, header, ids, rows: np.ndarray, sidecar: dict | None = None):
    """Write a header row, then one line per id: the id, then its row of ``rows``.

    Only the header and the id cells go through the csv module's quoting.
    The values are formatted with the one format that the matrix's dtype
    picks: ``"%d"`` (``str(v)``) for an integer matrix, else ``NUMBER``.
    ``_row_texts`` formats each distinct value once when the matrix has few,
    and each row on its own otherwise, to the same bytes.
    """
    cell = "%d" if rows.dtype.kind in "iu" else NUMBER
    start = io.StringIO()  # the id cell and its comma, as csv.writer writes them
    id_writer = _writer(start)
    lines = []
    for sid, text in zip(ids, _row_texts(rows, cell)):
        start.seek(0)
        start.truncate()
        id_writer.writerow((sid, "") if rows.shape[1] else (sid,))
        lines.append(start.getvalue()[:-1] + text + "\n")
    with open(str(path), "w", newline="", encoding="utf-8") as fh:
        _writer(fh).writerow(header)
        fh.write("".join(lines))
    if sidecar is not None:
        write_json(_sidecar_path(path), sidecar)


#: The largest share of a matrix's cells that its distinct values may make up
#: for ``_row_texts`` to format each distinct value once.
_DISTINCT_SHARE = 0.25
#: Odd multiplier of ``_distinct_index``'s hash, 2**64 over the golden ratio:
#: the top bits of a cell's bits times it, wrapped in uint64, pick its slot.
_HASH_MULTIPLIER = 0x9E3779B97F4A7C15


def _row_texts(rows, cell):
    """The text of each row of the matrix ``rows``: its values through ``cell``, comma-separated.

    Artifact tables hold few distinct values (prices are step functions,
    sales small counts, levels 1..5), so when the distinct values are at
    most ``_DISTINCT_SHARE`` of the cells, each is formatted once and the
    rows are joined from the texts.  Cells are told apart by their bits, not
    their value, so ``0.0`` and ``-0.0`` (written ``0`` and ``-0``) stay
    apart; NaNs with other payloads are each written ``nan``.  Otherwise,
    as on a matrix of all-distinct floats, each row is formatted by one
    ``%`` operation on its tuple.
    """
    n, m = rows.shape
    values = np.ascontiguousarray(rows).reshape(-1)
    keys = values.view(f"u{values.itemsize}")
    # numpy 2.4's bare np.unique(keys) hashes, 70x slower than sorting on distinct keys
    ordered = np.sort(keys)
    distinct = np.concatenate((ordered[:1], ordered[1:][ordered[1:] != ordered[:-1]]))
    del ordered
    if len(distinct) > _DISTINCT_SHARE * len(keys):
        line = ",".join([cell] * m)
        return (line % tuple(row.tolist()) for row in rows)
    texts = np.array([cell % v for v in distinct.view(values.dtype).tolist()], dtype=object)
    return [",".join(row) for row in texts[_distinct_index(distinct, keys)].reshape(n, m).tolist()]


def _distinct_index(distinct, keys):
    """The index of each of ``keys`` in the sorted array ``distinct``, which holds them all.

    Each key is hashed to a slot of a table of 2 to 4 times as many slots
    as there are distinct keys, which holds the index of one distinct key
    that hashes there.  A key that differs from the one its slot names is
    found by binary search.  So the result is exact whatever the hash, and
    the table is never larger than the index array it fills, as there are
    at most a quarter as many distinct keys as keys.
    """
    bits = (len(distinct) - 1).bit_length() + 1
    shift, multiplier = np.uint64(64 - bits), np.uint64(_HASH_MULTIPLIER)
    table = np.zeros(1 << bits, dtype=np.intp)
    table[(distinct.astype(np.uint64) * multiplier) >> shift] = np.arange(len(distinct))
    slots = keys.astype(np.uint64)
    slots *= multiplier
    slots >>= shift
    index = table[slots]
    del slots
    miss = np.flatnonzero(distinct[index] != keys)
    index[miss] = np.searchsorted(distinct, keys[miss])
    return index


def _checked_rows(reader, path):
    """The rows of the csv ``reader`` over the file ``path``.

    A row the csv module cannot read, such as one with a field over its
    size limit, is a data error that names the file and line.
    """
    try:
        yield from reader
    except csv.Error as exc:
        raise DataError(f"{path}, line {reader.line_num}: {exc}") from None


@contextmanager
def reading(path):
    """(header row, iterator over the rows after it) of the CSV file ``path``, kept open.

    An unopenable file, one with no header row (an empty file or a blank
    first line) and a line the csv module cannot read are data errors that
    name the file.
    """
    try:
        fh = open(str(path), newline="", encoding="utf-8")
    except OSError as exc:
        raise DataError(f"cannot open {path}: {exc.strerror}") from None
    with fh:
        rows = _checked_rows(csv.reader(fh), path)
        header = next(rows, [])
        if not header:
            raise DataError(f"{path}: empty file, header row required")
        yield header, rows


def field_size_limit() -> int:
    """The most characters a field that the csv module reads may hold."""
    return csv.field_size_limit()


def read_table(path, dtype=float, header=None):
    """Read a table back: its header row, the first cell of every other row, and the rest.

    The rest comes back as one (rows, header cells - 1) matrix of ``dtype``.
    An unreadable or empty file, a header other than ``header`` (when
    given), a line the csv module cannot read, a row whose cell count
    differs from the header's, a first cell that an earlier row holds, a
    cell that does not parse as ``dtype`` and a non-finite float are data
    errors that name the file and line.
    """
    ids, rows, seen = [], [], set()
    with reading(path) as (found, body):
        if header is not None and found != list(header):
            raise DataError(f"{path}, line 1: header {found} is not {list(header)}")
        width = len(found)
        for lineno, row in enumerate(body, start=2):
            if len(row) != width:
                raise DataError(f"{path}, line {lineno}: {len(row)} cells, "
                                f"header has {width} (ragged row)")
            if row[0] in seen:
                raise DataError(f"{path}, line {lineno}: duplicate {found[0]} {row[0]!r}")
            seen.add(row[0])
            try:
                rows.append(np.array(row[1:], dtype=dtype))
            except (ValueError, OverflowError) as exc:
                raise DataError(f"{path}, line {lineno}: {exc} (non-numeric cell)") from None
            ids.append(row[0])
    values = np.array(rows, dtype=dtype).reshape(len(ids), width - 1)
    if values.dtype.kind == "f":
        _check_finite(values, path, found)
    return found, ids, values


def _check_finite(values, path, header):
    bad = np.argwhere(~np.isfinite(values))
    if len(bad):
        r, c = bad[0]
        raise DataError(f"{path}, line {r + 2}: non-finite cell {values[r, c]} "
                        f"in column {header[c + 1]!r}")


#: 10**k for k = 0..22, each exact in float64.
_POW10 = 10.0 ** np.arange(23)
#: Cells per block of ``as_written``, which bounds its temporaries.
_ROUND_BLOCK = 1 << 16


def as_written(values, path):
    """The matrix ``read_table`` returns for the floats ``values`` that ``write_table`` wrote.

    Each cell comes back as ``float(NUMBER % v)``.  A non-finite cell is
    the data error that ``read_table`` raises for it, naming ``path``, the
    line and the column: the table at ``path``, which holds ``values``, is
    read only to raise it.

    A cell x with 1e-13 <= |x| < 1e22 is rounded in numpy: with
    s = 8 - floor(log10|x|), p = |x| * 10**s (a division by 10**-s when
    s < 0) is one correctly rounded operation on exact operands, at most
    2**-23 from the exact product below 1e9, so when p is in [1e8, 1e9) and
    not within 1e-6 of a half, m = rint(p) is the 9-digit decimal mantissa
    of x.  m / 10**s (or m * 10**-s) is again one correctly rounded
    operation, so it is the double nearest m * 10**-s, which is what
    ``float`` of the text gives.  An exponent that log10 got wrong, near a
    power of ten, puts p outside [1e8, 1e9).  Zeros come back as they are
    ("0" and "-0" read back as the same zeros).  Every other cell is
    formatted and parsed one at a time.  Formatting every cell instead
    takes more than ten times as long.
    """
    values = np.asarray(values, dtype=float)
    if not np.isfinite(values).all():
        read_table(path)
    x = values.reshape(-1)
    out = np.empty_like(x)
    for lo in range(0, len(x), _ROUND_BLOCK):
        out[lo : lo + _ROUND_BLOCK] = _round_block(x[lo : lo + _ROUND_BLOCK])
    return out.reshape(values.shape)


def _round_block(x):
    """``float(NUMBER % v)`` of each finite value of the 1-d array ``x``."""
    a = np.abs(x)
    fast = (a >= 1e-13) & (a < 1e22)
    a = np.where(fast, a, 1.0)
    s = 8 - np.floor(np.log10(a)).astype(np.int64)
    up = s >= 0
    scale = _POW10[np.abs(s)]
    p = np.where(up, a * scale, a / scale)
    m = np.rint(p)
    fast &= (p >= 1e8) & (m < 1e9) & (np.abs(p - np.floor(p) - 0.5) >= 1e-6)
    y = np.copysign(np.where(up, m / scale, m * scale), x)
    zero = x == 0
    y[zero] = x[zero]
    for i in np.flatnonzero(~(fast | zero)).tolist():
        y[i] = float(NUMBER % x[i])
    return y
