"""Ingestion, alignment, preprocessing and symbol discretization.

The pipeline order is fixed: assemble_series -> drop_sparse ->
fill_collection (forward for price mode, mean for sales mode) ->
scale_collection -> discretize_collection -> filter_outliers.  Every step
is a pure transformation; collections are never mutated in place and each
step appends a provenance record.

A ``SeriesCollection`` is columnar: its series are the rows of one (n x L)
matrix, float64 values or, once discretized, int64 levels 1..5, with one
(product, store, category) tuple per row.  A NaN cell is a day with no
observation: every loader rejects a non-finite value, so no other cell is
NaN.  Each step transforms the whole matrix at once; one series is a
one-row collection.
"""

from __future__ import annotations

import datetime as dt
import math
from array import array
from dataclasses import dataclass, field, replace
from itertools import compress

import numpy as np

from . import tables
from .errors import DataError, DuplicateObservationError

#: Upper bounds of the A..D symbol bands on the [0.1, 1] scale.
DEFAULT_THRESHOLDS = (0.29, 0.47, 0.65, 0.83)

DEFAULT_SCHEMA = {
    "series_id": "series_id",
    "date": "date",
    "value": "value",
    "category": "category",
    "store": "store",
}


@dataclass
class Observations:
    """The accepted rows of one input file, column by column.

    ``keys`` lists each distinct (series_id, store, category) in the order
    first seen.  Row i belongs to ``keys[series[i]]``, falls on the day
    ordinal ``day[i]`` (``date.toordinal()``) and holds ``value[i]``.
    """

    keys: list
    series: np.ndarray
    day: np.ndarray
    value: np.ndarray

    def __len__(self) -> int:
        return len(self.value)


@dataclass(frozen=True)
class RejectedRow:
    line_number: int
    raw_row: str
    reason: str


@dataclass
class SeriesCollection:
    """Equal-length series as the rows of one matrix, plus preprocessing history.

    ``values`` is (n x L) with one row per id: float64 values, or int64
    levels once discretized.  A NaN value is a missing cell.  ``attrs``
    holds one (product, store, category) tuple per row (default all None).
    """

    ids: list
    values: np.ndarray
    attrs: list | None = None
    provenance: list = field(default_factory=list)

    def __post_init__(self):
        self.ids = list(self.ids)
        values = np.asarray(self.values)
        self.values = values.astype(np.int64 if values.dtype.kind in "iu" else float, copy=False)
        shape = self.values.shape
        self.attrs = [(None, None, None)] * len(self.ids) if self.attrs is None else self.attrs
        if len(shape) != 2 or shape[0] != len(self.ids):
            raise DataError(f"{len(self.ids)} series need (n x L) values, got {shape}")
        if len(set(self.ids)) != len(self.ids):
            raise DataError("duplicate series_id in collection")

    def __len__(self) -> int:
        return len(self.ids)

    def with_step(self, step: str, params: dict, dropped_ids=()) -> list:
        return self.provenance + [
            {"step": step, "params": params, "dropped_ids": sorted(dropped_ids)}
        ]

    def select(self, keep, provenance: list) -> SeriesCollection:
        """The rows where the boolean mask ``keep`` is set, under ``provenance``."""
        return SeriesCollection(
            list(compress(self.ids, keep)), self.values[keep], list(compress(self.attrs, keep)),
            provenance,
        )


# ---------------------------------------------------------------------------
# Loading


def _ordinal(text: str):
    """Day ordinal of an ISO date string, or None when it does not parse."""
    try:
        return dt.date.fromisoformat(text.strip()).toordinal()
    except ValueError:
        return None


def _observations(keys, series: array, days: array, values: array) -> Observations:
    """Observations over the typed arrays a loader filled, without a copy."""
    return Observations(
        keys,
        np.frombuffer(series, dtype=np.int64),
        np.frombuffer(days, dtype=np.int64),
        np.frombuffer(values, dtype=float),
    )


def _first_repeat(codes: np.ndarray):
    """Index of the first entry equal to an earlier entry, or None.

    A stable sort keeps equal entries in index order, so every entry that
    equals its sorted predecessor repeats an earlier one, and the first
    repeat is the smallest such index.
    """
    order = np.argsort(codes, kind="stable")
    ordered = codes[order]
    repeats = order[1:][ordered[1:] == ordered[:-1]]
    return int(repeats.min()) if len(repeats) else None


def load_long_csv(path, schema: dict | None = None):
    """Read a long-format CSV into observations plus a rejects report.

    Returns (observations, rejects).  Rows with a column count other than
    the header's, an unparseable date, an unparseable or non-finite value,
    or an empty id are routed to the rejects list; duplicate
    (series_id, store, date) keys and a header that names a mapped column
    more than once are hard errors.  Blank lines are skipped and not
    numbered.  A plain file (see ``_load_columnar``) is read column by
    column in numpy; any other file row by row, with the same result.
    """
    schema = {**DEFAULT_SCHEMA, **(schema or {})}
    with tables.reading(path) as (header, reader):
        columns = {name: i for i, name in enumerate(header)}
        for role in DEFAULT_SCHEMA:
            if header.count(schema[role]) > 1:
                raise DataError(
                    f"{path}: mapped column {schema[role]!r} (for {role}) repeated in header"
                )
        for role in ("series_id", "date", "value"):
            if schema[role] not in columns:
                raise DataError(
                    f"{path}: mapped column {schema[role]!r} (for {role}) not in header"
                )
        roles = (len(header), *(columns[schema[r]] for r in ("series_id", "date", "value")),
                 columns.get(schema["store"]), columns.get(schema["category"]))
        loaded = _load_columnar(path, *roles)
        observations, lines, rejects = (*loaded, []) if loaded else _load_rows(reader, *roles)
    _check_duplicate_keys(observations, lines)
    return observations, rejects


def _load_columnar(path, width, id_col, date_col, value_col, store_col, category_col):
    """(observations, line numbers) of a plain long CSV, parsed by numpy, else None.

    A plain file is one that ``tables.load_plain`` parses.  Any row the row
    loop would reject also gives None, so that loop alone decides every
    reject.
    """
    keys = [col for col in (id_col, store_col, category_col) if col is not None]
    if value_col in (date_col, *keys):
        return None
    table = tables.load_plain(path, width, lambda texts: [
        (f"f{j}", "f8" if j == value_col else text) for j, text in enumerate(texts)])
    if table is None:
        return None
    rows = len(table)
    value = np.ascontiguousarray(table[f"f{value_col}"])
    day = _days(table, f"f{date_col}")
    if not np.isfinite(value).all() or day is None:
        return None
    # a run of rows with equal raw key fields is one key: decode each run's first row only
    starts = np.zeros(rows, bool)
    starts[0] = True
    for col in keys:
        field = table[f"f{col}"]
        starts[1:] |= field[1:] != field[:-1]
    starts = np.flatnonzero(starts)

    def at_starts(col):
        if col is None:
            return [None] * len(starts)
        return [text.decode().strip() or None for text in table[f"f{col}"][starts].tolist()]

    ids = at_starts(id_col)
    if None in ids:
        return None
    key_index: dict[tuple, int] = {}
    codes = [key_index.setdefault(key, len(key_index))
             for key in zip(ids, at_starts(store_col), at_starts(category_col))]
    series = np.repeat(np.array(codes, np.int64), np.diff(starts, append=rows))
    return Observations(list(key_index), series, day, value), range(2, rows + 2)


def _days(table, name):
    """The day ordinal of each row's date, the bytes field ``name`` of ``table``, else None.

    None when a text is not a date.  Each distinct text is decoded once.
    """
    code, used, texts = _text_codes(table, name)
    ordinals = [_ordinal(text.decode()) for text in texts.tolist()]
    if None in ordinals:
        return None
    by_code = np.zeros(used[-1] + 1, np.int64)
    by_code[used] = ordinals
    return by_code[code]


def _text_codes(table, name):
    """(each row's code, the codes in use, their texts) of the bytes field ``name`` of ``table``.

    A text is coded by its bytes in mixed radix over the positions whose
    bytes vary, each byte less the smallest at its position.  The code is
    exact, and a span of dates takes a few thousand codes at most.  Were
    there to be more codes than rows and 2**16, a text's code is its index
    among the sorted distinct texts instead.
    """
    field, offset = table.dtype.fields[name][:2]
    rows = len(table)
    # the field's bytes as one row per position in the text, a view of the table
    positions = np.ndarray((field.itemsize, rows), np.uint8, table, offset, (1, table.itemsize))
    code = np.zeros(rows, np.int64)
    codes, digits = 1, []
    for position, column in enumerate(positions):
        column = np.ascontiguousarray(column)
        lo, hi = int(column.min()), int(column.max())
        if lo == hi:
            continue
        radix = hi - lo + 1
        codes *= radix
        if codes > max(rows, 1 << 16):
            texts, code = np.unique(table[name], return_inverse=True)
            return code, np.arange(len(texts)), texts
        code *= radix
        code += column
        code -= lo
        digits.append((position, lo, radix))
    used = np.flatnonzero(np.bincount(code, minlength=codes))
    spelled = np.repeat(positions[:, :1].T, len(used), axis=0)  # the first row's bytes
    rest = used.copy()
    for position, lo, radix in reversed(digits):
        spelled[:, position] = rest % radix + lo
        rest //= radix
    return code, used, spelled.view(field).reshape(-1)


def _load_rows(reader, width, id_col, date_col, value_col, store_col, category_col):
    """(observations, line numbers, rejects) of the body rows left in ``reader``."""
    rejects: list[RejectedRow] = []
    key_index: dict[tuple, int] = {}  # (series_id, store, category) -> index, first seen first
    ordinals: dict[str, int | None] = {}
    series, days, values, lines = array("q"), array("q"), array("d"), array("q")
    lineno = 1
    for row in reader:
        if not row:
            continue
        lineno += 1
        if len(row) != width:
            rejects.append(RejectedRow(lineno, ",".join(row), "column count mismatch"))
            continue
        text = row[date_col]
        try:
            day = ordinals[text]
        except KeyError:
            day = ordinals[text] = _ordinal(text)
        if day is None:
            rejects.append(RejectedRow(lineno, ",".join(row), "unparseable date"))
            continue
        try:
            value = float(row[value_col])
        except ValueError:
            rejects.append(RejectedRow(lineno, ",".join(row), "unparseable value"))
            continue
        if not math.isfinite(value):
            rejects.append(RejectedRow(lineno, ",".join(row), "non-finite value"))
            continue
        series_id = row[id_col].strip()
        if not series_id:
            rejects.append(RejectedRow(lineno, ",".join(row), "empty series_id"))
            continue
        store = row[store_col].strip() or None if store_col is not None else None
        category = row[category_col].strip() or None if category_col is not None else None
        series.append(key_index.setdefault((series_id, store, category), len(key_index)))
        days.append(day)
        values.append(value)
        lines.append(lineno)
    return _observations(list(key_index), series, days, values), lines, rejects


def _check_duplicate_keys(observations: Observations, lines):
    """Raise on the first row whose (series_id, store, date) an earlier row has.

    ``lines`` holds each row's line number: an array, or a range.
    """
    if not len(observations):
        return
    pairs: dict[tuple, int] = {}
    pair_of_key = np.array(
        [pairs.setdefault(key[:2], len(pairs)) for key in observations.keys], dtype=np.int64
    )
    day = observations.day - observations.day.min()
    repeat = _first_repeat(pair_of_key[observations.series] * (int(day.max()) + 1) + day)
    if repeat is not None:
        series_id, store, _ = observations.keys[observations.series[repeat]]
        key = (series_id, store, dt.date.fromordinal(int(observations.day[repeat])))
        raise DuplicateObservationError(
            f"line {lines[repeat]}: duplicate observation for {key}"
        )


def load_wide_csv(path):
    """Read a wide CSV (first column series_id, remaining columns ISO dates).

    Empty cells mean missing; an unparseable or non-finite cell is rejected
    and also left missing.  Returns (observations, rejects) so the result
    feeds the same assemble_series path as the long format.
    """
    rejects: list[RejectedRow] = []
    keys: list[tuple] = []
    series, days, values = array("q"), array("q"), array("d")
    with tables.reading(path) as (header, reader):
        try:
            ordinals = [dt.date.fromisoformat(c).toordinal() for c in header[1:]]
        except ValueError as exc:
            raise DataError(f"{path}: non-ISO date in header: {exc}") from exc
        seen: set[str] = set()
        for lineno, row in enumerate(reader, start=2):
            raw = ",".join(row)
            if not row or not row[0].strip():
                rejects.append(RejectedRow(lineno, raw, "empty series_id"))
                continue
            series_id = row[0].strip()
            if series_id in seen:
                raise DuplicateObservationError(f"line {lineno}: duplicate row for {series_id}")
            seen.add(series_id)
            if len(row) - 1 != len(ordinals):
                rejects.append(RejectedRow(lineno, raw, "column count mismatch"))
                continue
            index, accepted = len(keys), len(values)
            for day, cell in zip(ordinals, row[1:]):
                cell = cell.strip()
                if not cell:
                    continue
                try:
                    value = float(cell)
                except ValueError:
                    rejects.append(RejectedRow(lineno, raw, f"unparseable value {cell!r}"))
                    continue
                if not math.isfinite(value):
                    rejects.append(RejectedRow(lineno, raw, "non-finite value"))
                    continue
                series.append(index)
                days.append(day)
                values.append(value)
            if len(values) > accepted:
                keys.append((series_id, None, None))
    return _observations(keys, series, days, values), rejects


# ---------------------------------------------------------------------------
# Assembly


def assemble_series(observations, date_range=None, mode: str = "price") -> SeriesCollection:
    """Align observations onto one shared daily index.

    In sales mode a (series_id, store) pair identifies a series and the
    composite id becomes ``"<series_id>::<store>"``.  The date range
    defaults to [min date, max date] over all observations.  A series takes
    its category, store and product from its first row inside the range.
    """
    if not len(observations):
        raise DataError("assemble_series: empty observation list")
    if mode not in ("price", "sales"):
        raise DataError(f"unknown mode {mode!r}")
    if date_range is None:
        start = dt.date.fromordinal(int(observations.day.min()))
        end = dt.date.fromordinal(int(observations.day.max()))
    else:
        start, end = date_range
        if start > end:
            raise DataError(f"date range start {start} after end {end}")
    n = (end - start).days + 1

    inside = (observations.day >= start.toordinal()) & (observations.day <= end.toordinal())
    row_key = observations.series[inside]
    names = [
        f"{series_id}::{store}" if mode == "sales" and store is not None else series_id
        for series_id, store, _ in observations.keys
    ]
    sorted_names = sorted(set(names))
    position = {name: i for i, name in enumerate(sorted_names)}
    name_of_key = np.array([position[name] for name in names], dtype=np.int64)
    used, first_row, group = np.unique(
        name_of_key[row_key], return_index=True, return_inverse=True
    )
    cells = group * n + (observations.day[inside] - start.toordinal())
    repeat = _first_repeat(cells)
    if repeat is not None:
        raise DuplicateObservationError(
            f"conflicting observations for series {sorted_names[used[group[repeat]]]} "
            f"on {start + dt.timedelta(days=int(cells[repeat] % n))}"
        )
    values = np.full((len(used), n), np.nan)
    values.reshape(-1)[cells] = observations.value[inside]

    provenance = [
        {
            "step": "assemble",
            "params": {"mode": mode, "start": start.isoformat(), "end": end.isoformat(), "n": n},
            "dropped_ids": [],
        }
    ]
    # a key is (series_id, store, category), and the product is the raw series_id
    return SeriesCollection(
        ids=[sorted_names[name] for name in used.tolist()],
        values=values,
        attrs=[observations.keys[key] for key in row_key[first_row].tolist()],
        provenance=provenance,
    )


# ---------------------------------------------------------------------------
# Preprocessing steps: each one transforms every row of a (n x L) matrix


def _raise_first(ids, *checks):
    """Raise a DataError for the first row that fails a check, as a row loop would.

    Each check is a (row mask, message) pair; a row that fails several
    checks gets the message of the first.
    """
    failing = [(int(np.argmax(bad)), message) for bad, message in checks if bad.any()]
    if failing:
        row, message = min(failing, key=lambda f: f[0])
        raise DataError(f"{ids[row]}: {message}")


def _keep(collection: SeriesCollection, keep, step: str, params: dict) -> SeriesCollection:
    """The rows where the boolean mask ``keep`` is set, with a record of ``step`` and the rest."""
    return collection.select(keep, collection.with_step(step, params,
                                                        compress(collection.ids, ~keep)))


def drop_sparse(collection: SeriesCollection, max_missing_fraction: float = 0.8) -> SeriesCollection:
    """Drop series with strictly more than the allowed fraction missing."""
    if not 0.0 <= max_missing_fraction <= 1.0:
        raise DataError(f"max_missing_fraction out of [0,1]: {max_missing_fraction}")
    missing = np.isnan(collection.values)
    keep = np.count_nonzero(missing, axis=1) / missing.shape[1] <= max_missing_fraction
    return _keep(collection, keep, "drop_sparse", {"max_missing_fraction": max_missing_fraction})


def fill_collection(collection: SeriesCollection, strategy: str) -> SeriesCollection:
    """Fill each row's missing (NaN) cells.

    ``forward`` takes the most recent present value, and a leading gap the
    first present one; ``mean`` takes the mean of the row's present values.
    """
    if strategy not in ("forward", "mean"):
        raise DataError(f"unknown fill strategy {strategy!r}")
    values, ids = collection.values, collection.ids
    missing = np.isnan(values)
    present = ~missing
    _raise_first(ids, (~present.any(axis=1), "cannot fill an all-missing series"))
    if strategy == "mean":
        filled = values.copy()
        gapped = np.flatnonzero(missing.any(axis=1))
        with np.errstate(over="ignore", invalid="ignore"):  # a non-finite mean is raised below
            # each row's present values gathered in order, so numpy sums them as for one series
            means = [values[i, present[i]].mean() for i in gapped]
        overflow = np.zeros(len(values), bool)
        overflow[gapped] = ~np.isfinite(means)
        _raise_first(ids, (overflow, "mean fill value overflows to a non-finite number"))
        for i, mean in zip(gapped, means):
            filled[i, missing[i]] = mean
    else:
        idx = np.where(present, np.arange(values.shape[1]), -1)
        idx = np.maximum.accumulate(idx, axis=1)
        idx = np.where(idx < 0, np.argmax(present, axis=1)[:, None], idx)
        filled = np.take_along_axis(values, idx, axis=1)
    return replace(collection, values=filled,
                   provenance=collection.with_step("fill", {"strategy": strategy}))


def scale_collection(collection: SeriesCollection, lo: float = 0.1, hi: float = 1.0) -> SeriesCollection:
    """Min-max scale each complete row into [lo, hi]; a constant row maps to lo."""
    if lo >= hi:
        raise DataError(f"scale bounds require lo < hi, got {lo} >= {hi}")
    values, ids = collection.values, collection.ids
    _raise_first(ids, (np.isnan(values).any(axis=1), "scaling requires a complete series"))
    vmin = values.min(axis=1, keepdims=True)
    vmax = values.max(axis=1, keepdims=True)
    with np.errstate(over="ignore"):  # an overflowing range is raised below
        span = vmax - vmin
    _raise_first(ids, (~np.isfinite(span[:, 0]), "value range overflows to a non-finite number"))
    span[vmax == vmin] = 1.0  # a constant row is pinned to lo below
    scaled = np.clip(lo + (hi - lo) * (values - vmin) / span, lo, hi)
    # pin the extremes exactly; the affine map can be one ulp off
    scaled[values == vmax] = hi
    scaled[values == vmin] = lo
    return replace(collection, values=scaled,
                   provenance=collection.with_step("minmax_scale", {"lo": lo, "hi": hi}))


def discretize_collection(collection: SeriesCollection, thresholds=DEFAULT_THRESHOLDS) -> SeriesCollection:
    """Map each scaled row onto integer levels 1..5 (A..E).

    Band edges are half-open on the right: x < t1 -> 1, t1 <= x < t2 -> 2,
    ...  A collection of levels is a type error, not a silent re-map.
    """
    values = collection.values
    if values.dtype.kind != "f":
        raise TypeError("series is already discretized")
    _raise_first(
        collection.ids,
        (np.isnan(values).any(axis=1), "discretize requires a complete series"),
        (((values < 0) | (values > 1)).any(axis=1),
         "values outside [0, 1]; run scale_collection first"),
    )
    if len(thresholds) != 4 or list(thresholds) != sorted(thresholds):
        raise DataError(f"need 4 increasing thresholds, got {thresholds}")
    levels = 1 + np.searchsorted(np.asarray(thresholds), values, side="right")
    return replace(collection, values=levels,
                   provenance=collection.with_step("discretize", {"thresholds": list(thresholds)}))


def filter_outliers(
    collection: SeriesCollection,
    metric: str = "mpbd",
    percentile: float = 95.0,
    omega: float = 2.0,
    window: int | None = None,
) -> SeriesCollection:
    """Remove series whose nearest-neighbor distance is above the percentile.

    Works on numeric or symbolic collections; the metric must be compatible
    with the representation (levenshtein needs symbols).
    """
    from . import distances  # local import, distances has no core_data dependency

    if not 0.0 < percentile < 100.0 and percentile != 100.0:
        raise DataError(f"percentile out of (0, 100]: {percentile}")
    if len(collection) < 2:
        raise DataError("outlier filtering needs at least 2 series")
    matrix = distances.distance_matrix(collection, metric, omega=omega, window=window)
    entries = matrix.entries.copy()
    np.fill_diagonal(entries, np.inf)
    nn = entries.min(axis=1)
    keep = nn <= _percentile(nn, percentile)
    return _keep(collection, keep, "filter_outliers",
                 {"metric": metric, "percentile": percentile, "omega": omega})


def _percentile(values, q: float) -> float:
    """``float(np.percentile(values, q))``, by its default linear method.

    numpy 2.4's percentile picks its order statistics through a bare
    ``np.unique``, whose masked-array check imports ``numpy.ma``: 11-14 ms
    of each process that filters outliers.  Here the same float operations
    run on the same two order statistics of the sorted ``values``, so the
    result has numpy's bits, but for the sign of a zero where 0.0 and -0.0
    tie, which no comparison sees.
    """
    ordered = np.sort(values)
    virtual = (len(ordered) - 1) * (q / 100)
    if virtual >= len(ordered) - 1:
        return float(ordered[-1])
    below = math.floor(virtual)
    a, b = float(ordered[below]), float(ordered[below + 1])
    t = virtual - below
    return b - (b - a) * (1 - t) if t >= 0.5 else a + (b - a) * t
