"""Ingestion, alignment, preprocessing and symbol discretization.

The pipeline order is fixed: assemble -> drop_sparse -> fill (forward for
price mode, mean for sales mode) -> minmax_scale -> discretize ->
filter_outliers.  Every step is a pure transformation; collections are
never mutated in place and each step appends a provenance record.
"""

from __future__ import annotations

import csv
import datetime as dt
import math
from array import array
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import DataError, DuplicateObservationError

SYMBOLS = "ABCDE"

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
class TimeSeries:
    """One entity's value history on the shared uniform daily index."""

    series_id: str
    values: np.ndarray
    missing_mask: np.ndarray
    category: str | None = None
    store: str | None = None
    product: str | None = None

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        self.missing_mask = np.asarray(self.missing_mask, dtype=bool)
        if self.values.shape != self.missing_mask.shape:
            raise DataError(f"{self.series_id}: values/mask length mismatch")

    def __len__(self) -> int:
        return len(self.values)


@dataclass
class SymbolicSeries:
    """A TimeSeries discretized into integer levels 1..5 (A..E)."""

    series_id: str
    levels: np.ndarray
    category: str | None = None
    store: str | None = None
    product: str | None = None

    def __post_init__(self):
        self.levels = np.asarray(self.levels, dtype=int)

    def __len__(self) -> int:
        return len(self.levels)

    def symbols(self) -> str:
        return "".join(SYMBOLS[v - 1] for v in self.levels)


@dataclass
class SeriesCollection:
    """Ordered list of series sharing one length, plus preprocessing history."""

    series: list
    mode: str = "price"
    provenance: list = field(default_factory=list)

    def __post_init__(self):
        ids = [s.series_id for s in self.series]
        if len(set(ids)) != len(ids):
            raise DataError("duplicate series_id in collection")
        lengths = {len(s) for s in self.series}
        if len(lengths) > 1:
            raise DataError(f"collection members differ in length: {sorted(lengths)}")

    @property
    def ids(self) -> list[str]:
        return [s.series_id for s in self.series]

    def __len__(self) -> int:
        return len(self.series)

    def with_step(self, step: str, params: dict, dropped_ids=()) -> list:
        return self.provenance + [
            {"step": step, "params": params, "dropped_ids": sorted(dropped_ids)}
        ]


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
    """Index of the first entry equal to an earlier entry, or None."""
    _, first = np.unique(codes, return_index=True)
    if len(first) == len(codes):
        return None
    repeated = np.ones(len(codes), dtype=bool)
    repeated[first] = False
    return int(np.argmax(repeated))


def load_long_csv(path, schema: dict | None = None):
    """Read a long-format CSV into observations plus a rejects report.

    Returns (observations, rejects).  Rows with a column count other than
    the header's, an unparseable date, an unparseable or non-finite value,
    or an empty id are routed to the rejects list; duplicate
    (series_id, store, date) keys and a header that names a mapped column
    more than once are hard errors.  Blank lines are skipped and not
    numbered.
    """
    schema = {**DEFAULT_SCHEMA, **(schema or {})}
    rejects: list[RejectedRow] = []
    key_index: dict[tuple, int] = {}  # (series_id, store, category) -> index, first seen first
    ordinals: dict[str, int | None] = {}
    series, days, values, lines = array("q"), array("q"), array("d"), array("q")
    try:
        fh = open(path, newline="", encoding="utf-8")
    except OSError as exc:
        raise DataError(f"cannot open input file: {exc}") from exc
    with fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None:
            raise DataError(f"{path}: empty file, header row required")
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
        id_col, date_col, value_col = (columns[schema[r]] for r in ("series_id", "date", "value"))
        category_col = columns.get(schema["category"])
        store_col = columns.get(schema["store"])
        width = len(header)
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
    observations = _observations(list(key_index), series, days, values)
    _check_duplicate_keys(observations, lines)
    return observations, rejects


def _check_duplicate_keys(observations: Observations, lines: array):
    """Raise on the first row whose (series_id, store, date) an earlier row has."""
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
    try:
        fh = open(path, newline="", encoding="utf-8")
    except OSError as exc:
        raise DataError(f"cannot open input file: {exc}") from exc
    with fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise DataError(f"{path}: empty file, header row required") from None
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
    missing = np.ones((len(used), n), dtype=bool)
    values.reshape(-1)[cells] = observations.value[inside]
    missing.reshape(-1)[cells] = False

    series = []
    for i, (name, row) in enumerate(zip(used, first_row)):
        product, store, category = observations.keys[row_key[row]]
        series.append(
            TimeSeries(
                series_id=sorted_names[name],
                values=values[i],
                missing_mask=missing[i],
                category=category,
                store=store,
                product=product,
            )
        )
    provenance = [
        {
            "step": "assemble",
            "params": {"mode": mode, "start": start.isoformat(), "end": end.isoformat(), "n": n},
            "dropped_ids": [],
        }
    ]
    return SeriesCollection(series=series, mode=mode, provenance=provenance)


# ---------------------------------------------------------------------------
# Preprocessing steps


def drop_sparse(collection: SeriesCollection, max_missing_fraction: float = 0.8) -> SeriesCollection:
    """Drop series with strictly more than the allowed fraction missing."""
    if not 0.0 <= max_missing_fraction <= 1.0:
        raise DataError(f"max_missing_fraction out of [0,1]: {max_missing_fraction}")
    kept, dropped = [], []
    for s in collection.series:
        frac = float(np.count_nonzero(s.missing_mask)) / len(s)
        if frac > max_missing_fraction:
            dropped.append(s.series_id)
        else:
            kept.append(s)
    return SeriesCollection(
        series=kept,
        mode=collection.mode,
        provenance=collection.with_step(
            "drop_sparse", {"max_missing_fraction": max_missing_fraction}, dropped
        ),
    )


def fill_forward(series: TimeSeries) -> TimeSeries:
    """Fill missing positions with the most recent present value.

    Leading gaps are backfilled from the first present value so the result
    is always complete.
    """
    present = ~series.missing_mask
    if not present.any():
        raise DataError(f"{series.series_id}: cannot fill an all-missing series")
    values = series.values.copy()
    idx = np.where(present, np.arange(len(values)), -1)
    idx = np.maximum.accumulate(idx)
    first = int(np.argmax(present))
    idx[idx < 0] = first
    return replace(series, values=values[idx], missing_mask=series.missing_mask.copy())


def fill_mean(series: TimeSeries) -> TimeSeries:
    """Fill missing positions with the mean of the series' present values."""
    present = ~series.missing_mask
    if not present.any():
        raise DataError(f"{series.series_id}: cannot fill an all-missing series")
    mean = float(series.values[present].mean())
    values = np.where(series.missing_mask, mean, series.values)
    return replace(series, values=values, missing_mask=series.missing_mask.copy())


def fill_collection(collection: SeriesCollection, strategy: str) -> SeriesCollection:
    if strategy == "forward":
        filled = [fill_forward(s) for s in collection.series]
    elif strategy == "mean":
        filled = [fill_mean(s) for s in collection.series]
    else:
        raise DataError(f"unknown fill strategy {strategy!r}")
    return SeriesCollection(
        series=filled,
        mode=collection.mode,
        provenance=collection.with_step("fill", {"strategy": strategy}),
    )


def minmax_scale(series: TimeSeries, lo: float = 0.1, hi: float = 1.0) -> TimeSeries:
    """Min-max scale one complete series into [lo, hi].

    A constant series maps every position to lo.
    """
    if lo >= hi:
        raise DataError(f"scale bounds require lo < hi, got {lo} >= {hi}")
    if np.isnan(series.values).any():
        raise DataError(f"{series.series_id}: scaling requires a complete series")
    vmin = series.values.min()
    vmax = series.values.max()
    if vmax == vmin:
        scaled = np.full_like(series.values, lo)
    else:
        scaled = np.clip(lo + (hi - lo) * (series.values - vmin) / (vmax - vmin), lo, hi)
        # pin the extremes exactly; the affine map can be one ulp off
        scaled[series.values == vmin] = lo
        scaled[series.values == vmax] = hi
    return replace(series, values=scaled, missing_mask=series.missing_mask.copy())


def scale_collection(collection: SeriesCollection, lo: float = 0.1, hi: float = 1.0) -> SeriesCollection:
    return SeriesCollection(
        series=[minmax_scale(s, lo, hi) for s in collection.series],
        mode=collection.mode,
        provenance=collection.with_step("minmax_scale", {"lo": lo, "hi": hi}),
    )


def discretize(series: TimeSeries, thresholds=DEFAULT_THRESHOLDS) -> SymbolicSeries:
    """Map scaled values onto integer levels 1..5 (A..E).

    Band edges are half-open on the right: x < t1 -> 1, t1 <= x < t2 -> 2, ...
    Passing an already-symbolic series is a type error, not a silent re-map.
    """
    if isinstance(series, SymbolicSeries):
        raise TypeError("series is already discretized")
    values = series.values
    if np.isnan(values).any():
        raise DataError(f"{series.series_id}: discretize requires a complete series")
    if (values < 0).any() or (values > 1).any():
        raise DataError(
            f"{series.series_id}: values outside [0, 1]; run minmax_scale first"
        )
    if len(thresholds) != 4 or list(thresholds) != sorted(thresholds):
        raise DataError(f"need 4 increasing thresholds, got {thresholds}")
    levels = 1 + np.searchsorted(np.asarray(thresholds), values, side="right")
    return SymbolicSeries(
        series_id=series.series_id,
        levels=levels,
        category=series.category,
        store=series.store,
        product=series.product,
    )


def discretize_collection(collection: SeriesCollection, thresholds=DEFAULT_THRESHOLDS) -> SeriesCollection:
    return SeriesCollection(
        series=[discretize(s, thresholds) for s in collection.series],
        mode=collection.mode,
        provenance=collection.with_step("discretize", {"thresholds": list(thresholds)}),
    )


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
    cutoff = float(np.percentile(nn, percentile))
    dropped = {s.series_id for s, d in zip(collection.series, nn) if d > cutoff}
    kept = [s for s in collection.series if s.series_id not in dropped]
    return SeriesCollection(
        series=kept,
        mode=collection.mode,
        provenance=collection.with_step(
            "filter_outliers",
            {"metric": metric, "percentile": percentile, "omega": omega},
            dropped,
        ),
    )
