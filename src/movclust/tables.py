"""The artifact file format: CSV tables of id-keyed rows and their JSON sidecars.

Every artifact the CLI writes, and every one it reads back, goes through
this module.  A table is a header row, then one row per id: the id, then
its cells.  A table's sidecar holds what the cells do not say, in a JSON
file of the same name.  ``as_written`` gives a float matrix as
``read_table`` would read it back, for a caller that keeps the matrix it
wrote.
"""

from __future__ import annotations

import csv
import io
import json

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


def write_table(path, header, ids, rows, cell: str = NUMBER, sidecar: dict | None = None):
    """Write a header row, then one line per id: the id, then its row's values.

    Only the header and the id cells go through the csv module's quoting.
    Each row's values are formatted by one ``%`` operation on the row's
    tuple with ``cell`` per value: ``"%.9g" % v`` is the string
    ``format(float(v), ".9g")``, and ``"%d" % v`` is ``str(v)`` for an int.
    """
    start = io.StringIO()  # the id cell and its comma, as csv.writer writes them
    id_writer = _writer(start)
    with open(str(path), "w", newline="", encoding="utf-8") as fh:
        _writer(fh).writerow(header)
        for sid, row in zip(ids, rows):
            values = tuple(row.tolist())
            start.seek(0)
            start.truncate()
            id_writer.writerow((sid, "") if values else (sid,))
            fh.write(start.getvalue()[:-1] + ",".join([cell] * len(values)) % values + "\n")
    if sidecar is not None:
        write_json(_sidecar_path(path), sidecar)


def checked_rows(reader, path):
    """The rows of the csv ``reader`` over the file ``path``.

    A row the csv module cannot read, such as one with a field over its
    size limit, is a data error that names the file and line.
    """
    try:
        yield from reader
    except csv.Error as exc:
        raise DataError(f"{path}, line {reader.line_num}: {exc}") from None


def read_table(path, dtype=float, header=None):
    """Read a table back: its header row, the first cell of every other row, and the rest.

    The rest comes back as one (rows, header cells - 1) matrix of ``dtype``.
    An unreadable or empty file, a header other than ``header`` (when
    given), a line the csv module cannot read, a row whose cell count
    differs from the header's, a cell that does not parse as ``dtype`` and a
    non-finite float are data errors that name the file and line.
    """
    try:
        fh = open(str(path), newline="", encoding="utf-8")
    except OSError as exc:
        raise DataError(f"cannot open {path}: {exc.strerror}") from None
    ids, rows = [], []
    with fh:
        reader = checked_rows(csv.reader(fh), path)
        found = next(reader, [])
        if not found:
            raise DataError(f"{path}: empty file, header row required")
        if header is not None and found != list(header):
            raise DataError(f"{path}, line 1: header {found} is not {list(header)}")
        width = len(found)
        for lineno, row in enumerate(reader, start=2):
            if len(row) != width:
                raise DataError(f"{path}, line {lineno}: {len(row)} cells, "
                                f"header has {width} (ragged row)")
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
