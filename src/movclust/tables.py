"""CSV tables of id-keyed numeric rows: wide series, distance matrices, features."""

from __future__ import annotations

import csv
import io


def write_table(path, header, ids, rows, cell: str = "%.9g"):
    """Write a header row, then one line per id: the id, then its row's values.

    Only the header and the id cells go through the csv module's quoting.
    Each row's values are formatted by one ``%`` operation on the row's
    tuple with ``cell`` per value: ``"%.9g" % v`` is the string
    ``format(float(v), ".9g")``, and ``"%d" % v`` is ``str(v)`` for an int.
    """
    start = io.StringIO()  # the id cell and its comma, as csv.writer writes them
    id_writer = csv.writer(start, lineterminator="\n")
    with open(str(path), "w", newline="", encoding="utf-8") as fh:
        csv.writer(fh, lineterminator="\n").writerow(header)
        for sid, row in zip(ids, rows):
            values = tuple(row.tolist())
            start.seek(0)
            start.truncate()
            id_writer.writerow((sid, "") if values else (sid,))
            fh.write(start.getvalue()[:-1] + ",".join([cell] * len(values)) % values + "\n")
