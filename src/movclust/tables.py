"""The artifact file format: CSV tables of id-keyed rows and their JSON sidecars.

Every artifact the CLI writes, and every one it reads back, goes through
this module, and ``reading`` opens every CSV file that is read, the raw
inputs of ``core_data``'s loaders too.  A table is a header row, then one
row per id: the id, then its cells.  A table's sidecar holds what the
cells do not say, in a JSON file of the same name.  ``write_table`` writes
every numeric table, and formats each distinct value once when a table's
values repeat enough.  ``read_table`` parses a plain table (see
``plain_field_sizes``, which ``core_data``'s long loader shares) of float or
int cells with one ``np.loadtxt`` call, and every other table with the csv
module, to the same ids, bits and errors.  ``as_written`` gives a float
matrix as ``read_table`` would read it back, for a caller that keeps the
matrix it wrote.
"""

from __future__ import annotations

import codecs
import csv
import io
import json
import warnings
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
    size limit, is a data error that names the file and line, and a byte
    that is not UTF-8 text one that names the file and the byte's offset.
    """
    try:
        yield from reader
    except csv.Error as exc:
        raise DataError(f"{path}, line {reader.line_num}: {exc}") from None
    except UnicodeDecodeError:
        raise _not_utf8(path) from None


def _not_utf8(path) -> DataError:
    """The data error for the first byte of the file ``path`` that is not UTF-8 text.

    The file is decoded one block at a time, so no more than a block of it
    is held at once.
    """
    decoder = codecs.getincrementaldecoder("utf-8")()
    start = 0  # the file offset of the block being decoded
    with open(str(path), "rb") as fh:
        while True:
            block = fh.read(_SCAN_BLOCK)
            try:
                decoder.decode(block, final=not block)
            except UnicodeDecodeError as exc:
                # exc.object is the block after the bytes held over from the blocks before it
                offset = start - (len(exc.object) - len(block)) + exc.start
                return DataError(f"{path}, byte {offset}: not UTF-8 ({exc.reason})")
            if not block:
                return DataError(f"{path}: not UTF-8")  # the file changed while it was read
            start += len(block)


@contextmanager
def reading(path):
    """(header row, iterator over the rows after it) of the CSV file ``path``, kept open.

    An unopenable file, one with no header row (an empty file or a blank
    first line), a line the csv module cannot read and a byte that is not
    UTF-8 text are data errors that name the file.
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


#: Bytes that ``plain_field_sizes`` reads at a time, then up to the end of the line they end in.
_SCAN_BLOCK = 1 << 20


def plain_field_sizes(fh, width):
    """(body rows, each column's widest field) of the plain CSV open in ``fh``, else None.

    ``fh`` is a binary file at its start.  A plain file is ASCII without a
    quote, carriage return, NUL (which numpy's fixed-width strings drop) or
    0x1c-0x1f byte (which numpy's float parser strips and ``float`` does
    not); it ends in a newline, and each of its body rows, of which it has
    at least one, holds the header's ``width`` >= 2 fields, none longer
    than the csv module's field size limit.  Only the counts of a file's
    newlines and commas are checked here, so a row with another number of
    fields may pass; ``np.loadtxt`` raises on it.  The body is scanned one
    block of whole lines at a time, so no more than one block of the
    file's bytes is held at once.
    """
    if width < 2 or not _plain(fh.readline()):  # the header
        return None
    rows, sizes = 0, np.zeros(width, np.int64)
    while block := fh.read(_SCAN_BLOCK) + fh.readline():  # up to a line's end, or the file's
        if not _plain(block):
            return None
        raw = np.frombuffer(block, np.uint8)
        ends, commas = np.flatnonzero(raw == ord("\n")), np.flatnonzero(raw == ord(","))
        # a line with fewer than width - 1 commas (a blank or whitespace-only line
        # too) leaves another in its block with more, on which loadtxt raises
        if len(commas) != len(ends) * (width - 1):
            return None
        inner = commas.reshape(len(ends), width - 1).T  # each line's j-th comma
        # each field's bounds: the newline before its line (-1 before the block's first) or
        # the comma before it, and the comma or newline after it
        lefts, rights = [np.concatenate(([-1], ends[:-1])), *inner], [*inner, ends]
        # numpy reduces a few long rows faster one by one than along an axis, and a
        # table of many columns and few lines faster along the axis than in a loop
        if width < len(ends):
            widest = np.array([(right - left).max() for left, right in zip(lefts, rights)])
        else:
            widest = (np.array(rights) - np.array(lefts)).max(axis=1)
        np.maximum(sizes, widest - 1, out=sizes)
        rows += len(ends)
    if not rows or sizes.max() > csv.field_size_limit():
        return None
    return rows, sizes.tolist()


def _plain(lines: bytes) -> bool:
    """Whether ``lines`` are plain (see ``plain_field_sizes``) and end in a newline."""
    return (lines.isascii() and not any(byte in lines for byte in b'"\r\0\x1c\x1d\x1e\x1f')
            and lines.endswith(b"\n"))


#: The cell dtypes of a table that ``read_table`` parses with ``np.loadtxt`` when it is plain.
_PLAIN_DTYPES = (np.dtype(np.float64), np.dtype(np.int64))


def read_table(path, dtype=float, header=None):
    """Read a table back: its header row, the first cell of every other row, and the rest.

    The rest comes back as one (rows, header cells - 1) matrix of ``dtype``.
    An unreadable or empty file, a header other than ``header`` (when
    given), a line the csv module cannot read, a row whose cell count
    differs from the header's, a first cell that an earlier row holds, a
    cell that does not parse as ``dtype`` and a non-finite float are data
    errors that name the file and line.  A plain table of float64 or int64
    cells is parsed by ``_read_plain``, and any other, or one that numpy
    will not parse, row by row with the csv module.  Either way a repeated
    id and a non-finite cell raise the same error, and every other error
    comes from the csv loop.
    """
    with reading(path) as (found, body):
        if header is not None and found != list(header):
            raise DataError(f"{path}, line 1: header {found} is not {list(header)}")
        parsed = _read_plain(path, len(found), dtype)
        if parsed is None:
            ids, values = _read_rows(path, found, body, dtype)
        else:
            ids, values = parsed
            seen = set()
            for lineno, sid in enumerate(ids, start=2):
                if sid in seen:
                    raise _duplicate(path, lineno, found, sid)
                seen.add(sid)
    if values.dtype.kind == "f":
        _check_finite(values, path, found)
    return found, ids, values


def _duplicate(path, lineno, header, sid) -> DataError:
    return DataError(f"{path}, line {lineno}: duplicate {header[0]} {sid!r}")


def _read_plain(path, width, dtype):
    """(ids, cells) of the table at ``path`` when it is plain, parsed by ``np.loadtxt``; else None.

    One ``np.loadtxt`` call, past the header, reads each row as a record of
    its id, at the exact width of the widest (``loadtxt`` truncates a
    longer one silently), and its cells as ``dtype``.  A cell that numpy
    parses comes out with the bits the csv loop gives it; a cell it does
    not parse, and a row of another width, make it raise, and then None
    sends the table to the csv loop.
    """
    dtype = np.dtype(dtype)
    if dtype not in _PLAIN_DTYPES:
        return None
    with open(str(path), "rb") as fh:
        scanned = plain_field_sizes(fh, width)
        if scanned is None:
            return None
        fh.seek(0)
        fh.readline()
        record = np.dtype([("id", f"S{max(scanned[1][0], 1)}"), ("cells", dtype, (width - 1,))])
        try:
            with warnings.catch_warnings():
                # numpy < 2 parses "1.0" as an int with only this warning; the csv loop refuses it
                warnings.simplefilter("error", DeprecationWarning)
                table = np.loadtxt(fh, record, delimiter=",", comments=None, quotechar=None,
                                   encoding="ascii", ndmin=1)
        except (ValueError, OverflowError, DeprecationWarning):
            return None
    return [sid.decode("ascii") for sid in table["id"].tolist()], np.ascontiguousarray(
        table["cells"])


def _read_rows(path, header, body, dtype):
    """(ids, cells) of the rows left in the csv ``body`` of the table at ``path``."""
    ids, rows, seen = [], [], set()
    width = len(header)
    for lineno, row in enumerate(body, start=2):
        if len(row) != width:
            raise DataError(f"{path}, line {lineno}: {len(row)} cells, "
                            f"header has {width} (ragged row)")
        if row[0] in seen:
            raise _duplicate(path, lineno, header, row[0])
        seen.add(row[0])
        try:
            rows.append(np.array(row[1:], dtype=dtype))
        except (ValueError, OverflowError) as exc:
            raise DataError(f"{path}, line {lineno}: {exc} (non-numeric cell)") from None
        ids.append(row[0])
    return ids, np.array(rows, dtype=dtype).reshape(len(ids), width - 1)


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
