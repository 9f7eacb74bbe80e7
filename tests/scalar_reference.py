"""Scalar references for the batched kernels.

These are cell-by-cell loops of the Wagner-Fischer and DTW recurrences, a
per-pair MPBD and euclidean distance, a pair-by-pair agglomerative merge
loop, the row-by-row CSV loaders and series assembly, the series-by-series
preprocessing steps, and the segment-by-segment rasterizer, written the
plain way.
``movclust.distances``, ``movclust.clustering``, ``movclust.core_data`` and
``movclust.image_features`` must reproduce every value they return bit for
bit.  The series loops carry each series in a test-local record
(``TimeSeries``, ``SymbolicSeries``), and ``records`` splits a package
``SeriesCollection`` into them; the rasterizer draws one series into a
pixel array, and the pooling averages the tiles of one such array.  The
agglomerative loop records each merge's member tuples, whose first members
are the ids that ``Dendrogram.merges`` holds, and the dendrogram cut
replays those merges as unions of member sets.

More are earlier forms of the package code, kept as they were: the
anti-diagonal edit-distance DP that ran Levenshtein before the bit-parallel
kernel, the sweep that recomputed each k's within-cluster MPBD pairs, the
float64 MPBD row kernel that the integer one must match, the Davies-Bouldin
loop over cluster pairs, the Calinski-Harabasz sums that each worked out the
cluster means again, k-means distances through an (n, k, m) cube,
k-medoids with its own start and an empty-cluster repair that reads the
fits again after each repair, the artifact writers that formatted and
csv-quoted one cell at a time (now quoting a cell with a carriage return,
as the package writers do), and the artifact readers that each parsed
their own rows.  The package's scores,
matrices, labels, bytes and read-back values must equal theirs.
"""

import csv
import datetime as dt
import json
import math
import os
import random
from dataclasses import dataclass, field, replace

import numpy as np

from movclust import core_data, evaluation
from movclust.clustering import ClusterAssignment, Dendrogram
from movclust.core_data import DEFAULT_SCHEMA, DEFAULT_THRESHOLDS, RejectedRow
from movclust.distances import DistanceMatrix
from movclust.errors import DataError, DegenerateGeometryError, DuplicateObservationError


@dataclass
class TimeSeries:
    """One series' values on the shared daily index, as the series loops carry it."""

    series_id: str
    values: np.ndarray
    missing_mask: np.ndarray
    category: str | None = None
    store: str | None = None
    product: str | None = None

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

    def __len__(self) -> int:
        return len(self.levels)


def records(collection) -> list:
    """The rows of a numeric ``SeriesCollection``, one TimeSeries each; NaN cells are missing."""
    return [
        TimeSeries(sid, values, np.isnan(values), category, store, product)
        for sid, values, (product, store, category)
        in zip(collection.ids, collection.values, collection.attrs)
    ]


def levenshtein_ref(p, q):
    p = list(p)
    q = list(q)
    if len(p) < len(q):
        p, q = q, p
    prev = list(range(len(q) + 1))
    for i, a in enumerate(p, start=1):
        cur = [i] + [0] * len(q)
        for j, b in enumerate(q, start=1):
            cur[j] = min(
                prev[j] + 1,
                cur[j - 1] + 1,
                prev[j - 1] + (0 if a == b else 1),
            )
        prev = cur
    return prev[-1]


def levenshtein_dp_ref(P, Q, window=None):
    """Final cell D[n, m] of the edit-distance table for each pair, as floats.

    The edit branch of the anti-diagonal DP that ``distances._dp_last_cell``
    shared between DTW and Levenshtein.  ``P`` (n, B) and ``Q`` (m, B) hold
    one pair per column.  Cell (i, j) lies on anti-diagonal d = i + j and
    reads only diagonals d-1 and d-2, so the grid is swept one diagonal at a
    time, each stored by row index i.  Edit: D = min(min(up, left) + 1,
    diag + [p_i != q_j]) from the border D[i, 0] = i, D[0, j] = j.
    """
    n, B = P.shape
    m = Q.shape[0]
    if n == 0 or m == 0:  # border only: the edit distance is the other length
        return np.full(B, float(n + m))
    Qr = Q[::-1]  # q_j is row m - j, so a diagonal reads an ascending slice
    w = n + m if window is None else window
    inf = np.inf

    def border(d, on_grid):
        return float(d) if on_grid else inf

    two = np.full((n + 2, B), inf)  # diagonal d - 2
    one = np.full((n + 2, B), inf)  # diagonal d - 1
    cur = np.full((n + 2, B), inf)
    two[0] = 0.0
    one[0] = one[1] = border(1, True)
    for d in range(2, n + m + 1):
        lo = max(1, d - m, (d - w + 1) // 2)
        hi = min(n, d - 1, (d + w) // 2)
        # The next two diagonals read this one only within [lo - 1, hi + 1].
        cur[lo - 1] = border(d, lo == 1 and d <= m)
        cur[hi + 1] = border(d, hi == d - 1 and d <= n)
        if lo <= hi:
            out = cur[lo : hi + 1]
            diag = two[lo - 1 : hi]
            p, q = P[lo - 1 : hi], Qr[m - d + lo : m - d + hi + 1]
            np.minimum(one[lo - 1 : hi], one[lo : hi + 1], out=out)
            out += 1.0
            np.minimum(out, diag + (p != q), out=out)
        two, one, cur = one, cur, two
    return one[n]


def levenshtein_matrix_dp_ref(levels):
    """Levenshtein matrix of the rows of ``levels``, every pair in one DP call."""
    n = len(levels)
    XT = np.asarray(levels, dtype=float).T
    rows, cols = np.triu_indices(n, 1)
    entries = np.zeros((n, n))
    entries[rows, cols] = levenshtein_dp_ref(XT[:, rows], XT[:, cols])
    return entries + entries.T


def dtw_ref(p, q, window=None):
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    n, m = len(p), len(q)
    inf = np.inf
    prev = np.full(m + 1, inf)
    prev[0] = 0.0
    for i in range(1, n + 1):
        cur = np.full(m + 1, inf)
        if window is None:
            j_lo, j_hi = 1, m
        else:
            j_lo = max(1, i - window)
            j_hi = min(m, i + window)
        cost = (p[i - 1] - q[j_lo - 1 : j_hi]) ** 2
        for j, c in zip(range(j_lo, j_hi + 1), cost):
            cur[j] = c + min(prev[j], cur[j - 1], prev[j - 1])
        prev = cur
    return float(np.sqrt(prev[m]))


def euclidean_ref(p, q):
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    return float(np.sqrt(((q - p) ** 2).sum()))


def mpbd_ref(p, q, omega=2.0):
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    dp = p[:-1] - p[1:]
    dq = q[:-1] - q[1:]
    gap = np.abs(dp - dq)
    weighted = np.sign(dp) != np.sign(dq)
    cost = np.where(dp == dq, 0.0, np.where(weighted, omega * gap, gap))
    return float(cost.sum())


def matrix_ref(seqs, pair):
    """Full symmetric matrix, one ``pair`` call per upper-triangle entry."""
    n = len(seqs)
    entries = np.zeros((n, n))
    for i in range(n):
        for j in range(i + 1, n):
            entries[i, j] = pair(seqs[i], seqs[j])
    return entries + entries.T


def mpbi_ref(levels, labels, omega=2.0):
    """MPBI with the pair sums added one at a time in (a, b) order."""
    total = 0.0
    clusters = sorted(set(labels))
    for c in clusters:
        members = [s for s, label in zip(levels, labels) if label == c]
        pair_sum = 0.0
        for a in range(len(members)):
            for b in range(a + 1, len(members)):
                pair_sum += mpbd_ref(members[a], members[b], omega=omega)
        total += pair_sum / len(members)
    return total / len(clusters)


def agglomerative_ref(matrix, linkage="ward"):
    """Lance-Williams merging with a full pair scan per merge.

    Merge ties go to the lexicographically smallest (left, right)
    representative id pair; each distance update is one scalar expression.
    """
    D = np.asarray(matrix.entries, dtype=float).copy()
    ids = list(matrix.ids)
    n = len(ids)

    active = list(range(n))
    members = {i: (ids[i],) for i in range(n)}
    sizes = {i: 1 for i in range(n)}
    reps = {i: ids[i] for i in range(n)}
    merges = []

    for _ in range(n - 1):
        best = None
        for ai in range(len(active)):
            i = active[ai]
            for aj in range(ai + 1, len(active)):
                j = active[aj]
                d = D[i, j]
                pair = tuple(sorted((reps[i], reps[j])))
                key = (d, pair)
                if best is None or key < best[0]:
                    best = (key, i, j)
        (height, pair), i, j = best
        left, right = (i, j) if reps[i] <= reps[j] else (j, i)

        si, sj = sizes[i], sizes[j]
        dij = D[i, j]
        for m in active:
            if m in (i, j):
                continue
            dim, djm = D[i, m], D[j, m]
            if linkage == "single":
                new = min(dim, djm)
            elif linkage == "complete":
                new = max(dim, djm)
            elif linkage == "average":
                new = (si * dim + sj * djm) / (si + sj)
            else:  # ward
                sm = sizes[m]
                new = np.sqrt(
                    ((si + sm) * dim**2 + (sj + sm) * djm**2 - sm * dij**2)
                    / (si + sj + sm)
                )
            D[i, m] = D[m, i] = new

        merges.append((members[left], members[right], float(height), si + sj))
        members[i] = tuple(sorted(members[left] + members[right]))
        sizes[i] = si + sj
        reps[i] = min(reps[i], reps[j])
        active.remove(j)

    return Dendrogram(leaves=sorted(ids), merges=merges)


def cut_dendrogram_ref(dendrogram, k):
    """The labels of the k clusters that the first n - k merges leave.

    Each merge is the union of two member sets, each named by its smallest
    member; clusters are numbered by decreasing size, ties by smallest id.
    """
    clusters = {sid: {sid} for sid in dendrogram.leaves}
    for left, right, _, _ in dendrogram.merges[: len(dendrogram.leaves) - k]:
        merged = clusters.pop(left) | clusters.pop(right)
        clusters[min(merged)] = merged
    groups = sorted(clusters.values(), key=lambda g: (-len(g), min(g)))
    return {sid: label for label, g in enumerate(groups, start=1) for sid in g}


# ---------------------------------------------------------------------------
# Loaders, assembly and raster: the row-by-row versions


@dataclass(frozen=True)
class RawObservation:
    series_id: str
    date: dt.date
    value: float
    category: str | None = None
    store: str | None = None


def load_long_csv_ref(path, schema: dict | None = None):
    """Read a long-format CSV into observations plus a rejects report.

    Returns (observations, rejects).  Rows with an unparseable date, an
    unparseable or non-finite value, or an empty id are routed to the
    rejects list; duplicate (series_id, store, date) keys are a hard error.
    """
    schema = {**DEFAULT_SCHEMA, **(schema or {})}
    observations: list[RawObservation] = []
    rejects: list[RejectedRow] = []
    seen: set[tuple] = set()
    try:
        fh = open(path, newline="", encoding="utf-8")
    except OSError as exc:
        raise DataError(f"cannot open {path}: {exc.strerror}") from exc
    with fh:
        reader = csv.DictReader(fh)
        if not reader.fieldnames:  # an empty file, or a blank first line
            raise DataError(f"{path}: empty file, header row required")
        for role in ("series_id", "date", "value"):
            if schema[role] not in reader.fieldnames:
                raise DataError(
                    f"{path}: mapped column {schema[role]!r} (for {role}) not in header"
                )
        has_category = schema["category"] in reader.fieldnames
        has_store = schema["store"] in reader.fieldnames
        for lineno, row in enumerate(reader, start=2):
            raw = ",".join("" if v is None else v for v in row.values())
            try:
                date = dt.date.fromisoformat(row[schema["date"]].strip())
            except (ValueError, AttributeError):
                rejects.append(RejectedRow(lineno, raw, "unparseable date"))
                continue
            try:
                value = float(row[schema["value"]])
            except (TypeError, ValueError):
                rejects.append(RejectedRow(lineno, raw, "unparseable value"))
                continue
            if not math.isfinite(value):
                rejects.append(RejectedRow(lineno, raw, "non-finite value"))
                continue
            series_id = row[schema["series_id"]].strip()
            if not series_id:
                rejects.append(RejectedRow(lineno, raw, "empty series_id"))
                continue
            category = row[schema["category"]].strip() or None if has_category else None
            store = row[schema["store"]].strip() or None if has_store else None
            key = (series_id, store, date)
            if key in seen:
                raise DuplicateObservationError(
                    f"line {lineno}: duplicate observation for {key}"
                )
            seen.add(key)
            observations.append(RawObservation(series_id, date, value, category, store))
    return observations, rejects


def load_wide_csv_ref(path):
    """Read a wide CSV (first column series_id, remaining columns ISO dates).

    Empty cells mean missing; an unparseable or non-finite cell is rejected
    and also left missing.  Returns (observations, rejects) so the result
    feeds the same assemble_series path as the long format.
    """
    observations: list[RawObservation] = []
    rejects: list[RejectedRow] = []
    try:
        fh = open(path, newline="", encoding="utf-8")
    except OSError as exc:
        raise DataError(f"cannot open {path}: {exc.strerror}") from exc
    with fh:
        reader = csv.reader(fh)
        header = next(reader, [])
        if not header:  # an empty file, or a blank first line
            raise DataError(f"{path}: empty file, header row required")
        try:
            dates = [dt.date.fromisoformat(c) for c in header[1:]]
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
            if len(row) - 1 != len(dates):
                rejects.append(RejectedRow(lineno, raw, "column count mismatch"))
                continue
            for date, cell in zip(dates, row[1:]):
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
                observations.append(RawObservation(series_id, date, value))
    return observations, rejects


@dataclass
class SeriesList:
    """A collection as the list of per-series objects that every step rebuilt."""

    series: list
    mode: str = "price"
    provenance: list = field(default_factory=list)

    @property
    def ids(self):
        return [s.series_id for s in self.series]

    def with_step(self, step, params, dropped_ids=()):
        return self.provenance + [
            {"step": step, "params": params, "dropped_ids": sorted(dropped_ids)}
        ]


def assemble_series_ref(observations, date_range=None, mode: str = "price") -> SeriesList:
    """Align observations onto one shared daily index.

    In sales mode a (series_id, store) pair identifies a series and the
    composite id becomes ``"<series_id>::<store>"``.  The date range
    defaults to [min date, max date] over all observations.
    """
    if not observations:
        raise DataError("assemble_series: empty observation list")
    if mode not in ("price", "sales"):
        raise DataError(f"unknown mode {mode!r}")
    if date_range is None:
        start = min(o.date for o in observations)
        end = max(o.date for o in observations)
    else:
        start, end = date_range
        if start > end:
            raise DataError(f"date range start {start} after end {end}")
    n = (end - start).days + 1

    grouped: dict[str, dict] = {}
    for obs in observations:
        if obs.date < start or obs.date > end:
            continue
        if mode == "sales" and obs.store is not None:
            key = f"{obs.series_id}::{obs.store}"
        else:
            key = obs.series_id
        entry = grouped.setdefault(
            key,
            {
                "values": np.full(n, np.nan),
                "mask": np.ones(n, dtype=bool),
                "category": obs.category,
                "store": obs.store,
                "product": obs.series_id,
            },
        )
        pos = (obs.date - start).days
        if not entry["mask"][pos]:
            raise DuplicateObservationError(
                f"conflicting observations for series {key} on {obs.date}"
            )
        entry["values"][pos] = obs.value
        entry["mask"][pos] = False

    series = [
        TimeSeries(
            series_id=key,
            values=entry["values"],
            missing_mask=entry["mask"],
            category=entry["category"],
            store=entry["store"],
            product=entry["product"],
        )
        for key, entry in sorted(grouped.items())
    ]
    provenance = [
        {
            "step": "assemble",
            "params": {"mode": mode, "start": start.isoformat(), "end": end.isoformat(), "n": n},
            "dropped_ids": [],
        }
    ]
    return SeriesList(series=series, mode=mode, provenance=provenance)


def drop_sparse_ref(collection: SeriesList, max_missing_fraction: float = 0.8) -> SeriesList:
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
    return SeriesList(kept, collection.mode, collection.with_step(
        "drop_sparse", {"max_missing_fraction": max_missing_fraction}, dropped))


def fill_forward_ref(series: TimeSeries) -> TimeSeries:
    present = ~series.missing_mask
    if not present.any():
        raise DataError(f"{series.series_id}: cannot fill an all-missing series")
    values = series.values.copy()
    idx = np.where(present, np.arange(len(values)), -1)
    idx = np.maximum.accumulate(idx)
    first = int(np.argmax(present))
    idx[idx < 0] = first
    return replace(series, values=values[idx], missing_mask=series.missing_mask.copy())


def fill_mean_ref(series: TimeSeries) -> TimeSeries:
    present = ~series.missing_mask
    if not present.any():
        raise DataError(f"{series.series_id}: cannot fill an all-missing series")
    mean = float(series.values[present].mean())
    values = np.where(series.missing_mask, mean, series.values)
    return replace(series, values=values, missing_mask=series.missing_mask.copy())


def minmax_scale_ref(series: TimeSeries, lo: float = 0.1, hi: float = 1.0) -> TimeSeries:
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
        scaled[series.values == vmin] = lo
        scaled[series.values == vmax] = hi
    return replace(series, values=scaled, missing_mask=series.missing_mask.copy())


def discretize_ref(series: TimeSeries, thresholds=DEFAULT_THRESHOLDS) -> SymbolicSeries:
    if isinstance(series, SymbolicSeries):
        raise TypeError("series is already discretized")
    values = series.values
    if np.isnan(values).any():
        raise DataError(f"{series.series_id}: discretize requires a complete series")
    if (values < 0).any() or (values > 1).any():
        raise DataError(f"{series.series_id}: values outside [0, 1]; run scale_collection first")
    if len(thresholds) != 4 or list(thresholds) != sorted(thresholds):
        raise DataError(f"need 4 increasing thresholds, got {thresholds}")
    levels = 1 + np.searchsorted(np.asarray(thresholds), values, side="right")
    return SymbolicSeries(series.series_id, levels, series.category, series.store,
                          series.product)


def filter_outliers_ref(collection: SeriesList, metric="mpbd", percentile=95.0, omega=2.0,
                        window=None) -> SeriesList:
    """The nearest-neighbour filter over a matrix of scalar pair distances."""
    if not 0.0 < percentile < 100.0 and percentile != 100.0:
        raise DataError(f"percentile out of (0, 100]: {percentile}")
    if len(collection.series) < 2:
        raise DataError("outlier filtering needs at least 2 series")
    if metric == "mpbd" and len(collection.series[0]) < 2:
        raise DataError("mpbd: sequences must have length >= 2")
    pair = {
        "mpbd": lambda p, q: mpbd_ref(p, q, omega),
        "levenshtein": lambda p, q: float(levenshtein_ref(p, q)),
        "dtw": lambda p, q: dtw_ref(p, q, window),
    }[metric]
    seqs = [np.asarray(s.levels if isinstance(s, SymbolicSeries) else s.values, dtype=float)
            for s in collection.series]
    entries = matrix_ref(seqs, pair)
    np.fill_diagonal(entries, np.inf)
    nn = entries.min(axis=1)
    cutoff = float(np.percentile(nn, percentile))
    dropped = {s.series_id for s, d in zip(collection.series, nn) if d > cutoff}
    kept = [s for s in collection.series if s.series_id not in dropped]
    return SeriesList(kept, collection.mode, collection.with_step(
        "filter_outliers", {"metric": metric, "percentile": percentile, "omega": omega},
        dropped))


def fill_collection_ref(collection: SeriesList, strategy: str) -> SeriesList:
    fill = {"forward": fill_forward_ref, "mean": fill_mean_ref}.get(strategy)
    if fill is None:
        raise DataError(f"unknown fill strategy {strategy!r}")
    return SeriesList([fill(s) for s in collection.series], collection.mode,
                      collection.with_step("fill", {"strategy": strategy}))


def scale_collection_ref(collection: SeriesList, lo=0.1, hi=1.0) -> SeriesList:
    return SeriesList([minmax_scale_ref(s, lo, hi) for s in collection.series], collection.mode,
                      collection.with_step("minmax_scale", {"lo": lo, "hi": hi}))


def discretize_collection_ref(collection: SeriesList, thresholds=DEFAULT_THRESHOLDS) -> SeriesList:
    return SeriesList([discretize_ref(s, thresholds) for s in collection.series], collection.mode,
                      collection.with_step("discretize", {"thresholds": list(thresholds)}))


def _bresenham(r0, c0, r1, c1):
    """Integer line stepping between two grid cells, inclusive."""
    dr = abs(r1 - r0)
    dc = abs(c1 - c0)
    sr = 1 if r1 >= r0 else -1
    sc = 1 if c1 >= c0 else -1
    err = dc - dr
    r, c = r0, c0
    while True:
        yield r, c
        if r == r1 and c == c1:
            return
        e2 = 2 * err
        if e2 > -dr:
            err -= dr
            c += sc
        if e2 < dc:
            err += dc
            r += sr


def rasterize_ref(values, width: int = 64, height: int = 64) -> np.ndarray:
    """Draw the polyline of one series' values into a binary (height, width) grid.

    Time maps onto columns [0, width-1]; value 0 maps to the bottom row and
    value 1 to the top row.  No anti-aliasing: pixels are 0 or 1.
    """
    if width < 2 or height < 2:
        raise DataError(f"grid must be at least 2x2, got {width}x{height}")
    values = np.asarray(values, dtype=float)
    if np.isnan(values).any():
        raise DataError("rasterize requires a complete series")
    if (values < 0).any() or (values > 1).any():
        raise DataError("rasterize expects values in [0, 1] (scaled series)")
    n = len(values)
    if n < 2:
        raise DataError("rasterize needs at least 2 points")
    cols = np.rint(np.arange(n) * (width - 1) / (n - 1)).astype(int)
    rows = (height - 1) - np.rint(values * (height - 1)).astype(int)
    pixels = np.zeros((height, width))
    for t in range(n - 1):
        for r, c in _bresenham(rows[t], cols[t], rows[t + 1], cols[t + 1]):
            pixels[r, c] = 1.0
    return pixels


def pool_features_ref(pixels, block: int = 4) -> np.ndarray:
    """Average intensity per non-overlapping block x block tile of one image, row-major."""
    height, width = pixels.shape
    if width % block or height % block:
        raise DataError(f"block {block} does not divide {width}x{height}")
    h, w = height // block, width // block
    tiles = pixels.reshape(h, block, w, block).mean(axis=(1, 3))
    return tiles.reshape(-1)


# ---------------------------------------------------------------------------
# MPBI computed per k, Davies-Bouldin pair by pair, and the per-cell writers


def delta_rows_float(X):
    """Per-step deltas of each row of a 2-D series array, and their signs."""
    D = X[:, :-1] - X[:, 1:]
    return D, np.sign(D)


def mpbd_row_float(d, s, D, S, omega=2.0, row_block=1 << 15):
    """The float64 MPBD row kernel: one pairwise sum per contiguous cost row."""
    if len(d) == 0:
        raise DataError("mpbd: sequences must have length >= 2")
    out = np.empty(len(D))
    step = max(1, row_block // len(d))
    for c in range(0, len(D), step):
        Dc, Sc = D[c : c + step], S[c : c + step]
        cost = np.abs(d - Dc)
        cost *= np.where(s != Sc, omega, 1.0)
        out[c : c + step] = cost.sum(axis=1)
    return out


def mpbd_upper_float(X, omega=2.0):
    """Raw MPBD upper triangle with every step cost in float64."""
    n = len(X)
    D, S = delta_rows_float(X)
    entries = np.zeros((n, n))
    for i in range(n - 1):
        entries[i, i + 1 :] = mpbd_row_float(D[i], S[i], D[i + 1 :], S[i + 1 :], omega)
    return entries


def mpbi_rows_ref(levels, ids, assignment, omega=2.0):
    """MPBI with each cluster's pairs computed by the float64 MPBD row kernel."""
    groups = evaluation._groups(ids, assignment)
    D, S = delta_rows_float(np.stack([np.asarray(s, dtype=float) for s in levels]))
    total = 0.0
    for members in groups:
        Dm, Sm = D[members], S[members]
        pairs = [mpbd_row_float(Dm[a], Sm[a], Dm[a + 1 :], Sm[a + 1 :], omega)
                 for a in range(len(members) - 1)]
        # cumsum adds one pair at a time in (a, b) order, like a scalar loop
        pair_sum = float(np.cumsum(np.concatenate(pairs))[-1]) if pairs else 0.0
        total += pair_sum / len(members)
    return total / assignment.k


def db_index_ref(vectors, ids, assignment):
    X = np.asarray(vectors, dtype=float)
    k = assignment.k
    if not 2 <= k <= X.shape[0]:
        raise DataError(f"db_index requires 2 <= k <= n, got k={k}")
    groups = evaluation._groups(ids, assignment)
    mus = np.stack([X[m].mean(axis=0) for m in groups])
    S = np.asarray(
        [np.sqrt(((X[m] - mu) ** 2).sum() / len(m)) for m, mu in zip(groups, mus)]
    )
    total = 0.0
    for i in range(k):
        worst = -np.inf
        for j in range(k):
            if i == j:
                continue
            M = float(np.sqrt(((mus[i] - mus[j]) ** 2).sum()))
            if M == 0.0:
                raise DegenerateGeometryError(
                    f"db_index: coincident centroids for clusters {i + 1} and {j + 1}"
                )
            worst = max(worst, (S[i] + S[j]) / M)
        total += worst
    return total / k


def evaluate_ref(vectors, levels, ids, assignment, omega=2.0):
    notes = {}

    def noted(key, index, *args):
        try:
            return index(vectors, ids, assignment, *args)
        except DegenerateGeometryError as exc:
            notes[key] = str(exc)
            return None

    ch = noted("ch", ch_index_ref, "standard")
    ch_paper = noted("ch_paper", ch_index_ref, "paper")
    db = noted("db", db_index_ref)
    index = mpbi_rows_ref(levels, ids, assignment, omega=omega)
    return evaluation.ValidityReport(assignment.k, ch, ch_paper, db, index, notes or None)


def sweep_k_ref(vectors, levels, ids, ks, cluster_fn, omega=2.0):
    """k-sweep whose every k computes its own MPBI pairs."""
    ks = sorted(set(int(k) for k in ks))
    rows = []
    for k in ks:
        try:
            assignment = cluster_fn(k)
            report = evaluate_ref(vectors, levels, ids, assignment, omega=omega)
        except (DataError, DegenerateGeometryError) as exc:
            rows.append(evaluation.SweepRow(k=k, ch=None, db=None, mpbi=None, note=str(exc)))
            continue
        note = ";".join(f"{key}:{msg}" for key, msg in sorted((report.notes or {}).items())
                        if key != "ch_paper")
        rows.append(evaluation.SweepRow(k=k, ch=report.ch, db=report.db, mpbi=report.mpbi,
                                        note=note))
    return rows


def _fmt(value) -> str:
    return format(float(value), ".9g")


class _Lines:
    """csv.writer target that ends each row with "\n" where the writer wrote "\r\n".

    A writer whose line terminator is "\r\n" quotes any cell with a "\r"
    or a "\n" in it, which a "\n" terminator alone does not.
    """

    def __init__(self, fh):
        self.fh = fh

    def write(self, line):
        assert line.endswith("\r\n")
        return self.fh.write(line[:-2] + "\n")


def _writer(fh):
    return csv.writer(_Lines(fh), lineterminator="\r\n")


def write_wide_ref(path, collection, dates, symbolic=False):
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = _writer(fh)
        writer.writerow(["series_id"] + [d.isoformat() for d in dates])
        for sid, values in zip(collection.ids, collection.values):
            row = values.tolist() if symbolic else [_fmt(v) for v in values]
            writer.writerow([sid] + row)


def write_matrix_csv_ref(matrix, path):
    with open(str(path), "w", newline="", encoding="utf-8") as fh:
        writer = _writer(fh)
        writer.writerow(["id"] + matrix.ids)
        for sid, row in zip(matrix.ids, matrix.entries):
            writer.writerow([sid] + [format(v, ".9g") for v in row])


def write_features_csv_ref(ids, vectors, path):
    if not len(vectors):
        raise DataError("no feature vectors to write")
    m = len(vectors[0])
    with open(str(path), "w", newline="", encoding="utf-8") as fh:
        writer = _writer(fh)
        writer.writerow(["series_id"] + [f"f{i + 1}" for i in range(m)])
        for sid, features in zip(ids, vectors):
            if len(features) != m:
                raise DataError(f"{sid}: inconsistent feature length")
            writer.writerow([sid] + [format(v, ".9g") for v in features])


# ---------------------------------------------------------------------------
# Calinski-Harabasz with the groups and cluster means worked out once per
# sum, and k-means distances through an (n, k, m) cube


def wcss_ref(vectors, ids, assignment) -> float:
    """Within-cluster sum of squared deviations from cluster means."""
    X = np.asarray(vectors, dtype=float)
    total = 0.0
    for members in evaluation._groups(ids, assignment):
        mu = X[members].mean(axis=0)
        total += float(((X[members] - mu) ** 2).sum())
    return total


def bcss_ref(vectors, ids, assignment, variant: str = "paper") -> float:
    """Between-cluster sum of squares, unweighted (paper) or size-weighted."""
    if variant not in ("paper", "weighted"):
        raise DataError(f"unknown bcss variant {variant!r}")
    X = np.asarray(vectors, dtype=float)
    grand = X.mean(axis=0)
    total = 0.0
    for members in evaluation._groups(ids, assignment):
        mu = X[members].mean(axis=0)
        term = float(((mu - grand) ** 2).sum())
        if variant == "weighted":
            term *= len(members)
        total += term
    return total


def ch_index_ref(vectors, ids, assignment, variant: str = "standard") -> float:
    """Calinski-Harabasz score.

    standard: (BCSS_w / (k-1)) / (WCSS / (n-k)), higher is better.
    paper:    WCSS / BCSS_unweighted, lower is better.
    """
    X = np.asarray(vectors, dtype=float)
    n, k = X.shape[0], assignment.k
    if not 2 <= k < n:
        raise DataError(f"ch_index requires 2 <= k < n, got k={k}, n={n}")
    w = wcss_ref(X, ids, assignment)
    if variant == "standard":
        b = bcss_ref(X, ids, assignment, "weighted")
        if w == 0.0:
            raise DegenerateGeometryError("ch_index: zero within-cluster scatter")
        return (b / (k - 1)) / (w / (n - k))
    if variant == "paper":
        b = bcss_ref(X, ids, assignment, "paper")
        if b == 0.0:
            raise DegenerateGeometryError("ch_index: zero between-cluster scatter")
        return w / b
    raise DataError(f"unknown ch variant {variant!r}")


def sq_dists_ref(X, centers):
    return ((X[:, None, :] - centers[None, :, :]) ** 2).sum(axis=2)


def kmeans_ref(vectors: np.ndarray, ids, k: int, seed: int = 0, max_iter: int = 300,
               tol: float = 1e-6) -> ClusterAssignment:
    """Lloyd iterations with deterministic seeded farthest-point init.

    Empty clusters are repaired by reseeding with the point farthest from
    its assigned centroid.  The objective is the final WCSS.
    """
    X = np.asarray(vectors, dtype=float)
    ids = list(ids)
    n = len(ids)
    if X.shape[0] != n:
        raise DataError("vectors/ids length mismatch")
    if not 2 <= k <= n:
        raise DataError(f"k={k} out of range [2, {n}]")

    # farthest-point start: each next centre is the point farthest from all chosen ones,
    # the first of them on ties
    chosen = [random.Random(seed).randrange(n)]
    while len(chosen) < k:
        nearest = [min(float(((X[i] - X[c]) ** 2).sum()) for c in chosen) for i in range(n)]
        chosen.append(nearest.index(max(nearest)))
    centers = X[chosen].copy()

    prev_wcss = np.inf
    labels = None
    for _ in range(max_iter):
        d2 = sq_dists_ref(X, centers)
        new_labels = d2.argmin(axis=1)
        # repair empty clusters with the worst-fitting point from a non-singleton cluster
        repaired = False
        for c in range(k):
            if not (new_labels == c).any():
                repaired = True
                fit = d2[np.arange(n), new_labels]
                counts = np.bincount(new_labels, minlength=k)
                fit = np.where(counts[new_labels] > 1, fit, -np.inf)
                worst = int(np.argmax(fit))
                new_labels[worst] = c
                d2[worst, :] = np.inf
                d2[worst, c] = 0.0
        for c in range(k):
            members = new_labels == c
            centers[c] = X[members].mean(axis=0)
        wcss = float(((X - centers[new_labels]) ** 2).sum())
        if not repaired and wcss > prev_wcss + 1e-9 * max(1.0, abs(prev_wcss)):
            raise RuntimeError(f"k-means WCSS increased from {prev_wcss!r} to {wcss!r}")
        converged = labels is not None and np.array_equal(new_labels, labels)
        improvement = prev_wcss - wcss
        labels = new_labels
        prev_wcss = wcss
        if converged or improvement < tol:
            break

    # clusters numbered by decreasing size, ties by smallest member id
    groups = sorted(([ids[i] for i in np.flatnonzero(labels == c)] for c in range(k)),
                    key=lambda g: (-len(g), min(g)))
    numbered = {sid: label for label, g in enumerate(groups, start=1) for sid in g}
    return ClusterAssignment(numbered, k, f"kmeans(k={k})", seed, prev_wcss)


def kmedoids_ref(matrix, k: int, seed: int = 0, max_iter: int = 100) -> ClusterAssignment:
    """Alternating assignment / medoid update on a precomputed DistanceMatrix.

    An empty cluster takes the worst-fitting point of a non-singleton
    cluster as its medoid, and the fits are read again after each repair.
    """
    D = matrix.entries
    ids = list(matrix.ids)
    n = len(ids)
    if not 2 <= k <= n:
        raise DataError(f"k={k} out of range [2, {n}]")

    # farthest-point start: each next medoid is the point farthest from all chosen ones,
    # the first of them on ties
    medoids = [random.Random(seed).randrange(n)]
    while len(medoids) < k:
        nearest = [min(float(D[c, i]) for c in medoids) for i in range(n)]
        medoids.append(nearest.index(max(nearest)))

    labels = None
    for _ in range(max_iter):
        cols = D[:, medoids]
        new_labels = cols.argmin(axis=1)
        for c in range(k):
            if not (new_labels == c).any():
                fit = cols[np.arange(n), new_labels]
                counts = np.bincount(new_labels, minlength=k)
                fit = np.where(counts[new_labels] > 1, fit, -np.inf)
                worst = int(np.argmax(fit))
                new_labels[worst] = c
                medoids[c] = worst
                cols = D[:, medoids]
        new_medoids = []
        for c in range(k):
            members = np.flatnonzero(new_labels == c)
            costs = D[np.ix_(members, members)].sum(axis=1)
            new_medoids.append(int(members[int(np.argmin(costs))]))
        stable = new_medoids == medoids and labels is not None and np.array_equal(new_labels, labels)
        medoids = new_medoids
        labels = new_labels
        if stable:
            break

    objective = float(D[np.arange(n), [medoids[c] for c in labels]].sum())
    # clusters numbered by decreasing size, ties by smallest member id
    groups = sorted(([ids[i] for i in np.flatnonzero(labels == c)] for c in range(k)),
                    key=lambda g: (-len(g), min(g)))
    numbered = {sid: label for label, g in enumerate(groups, start=1) for sid in g}
    return ClusterAssignment(numbered, k, f"kmedoids(k={k})", seed, objective)


# ---------------------------------------------------------------------------
# The artifact readers, each with its own csv loop, before they shared
# ``tables.read_table``


def read_wide_ref(cfg, name, dtype=float):
    """Read the wide artifact ``name`` of preprocess into one matrix of ``dtype`` cells.

    A row whose cell count differs from the header's, or a cell that does
    not parse as ``dtype``, is a data error naming the file and line.
    """
    path = os.path.join(cfg["out"], name)
    if not os.path.exists(path):  # the old ``cli._require``
        raise DataError(f"missing prerequisite artifact {path} (run `preprocess` first)")
    ids, rows = [], []
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        width = len(next(reader, ()))
        if not width:
            raise DataError(f"{path}: empty file, header row required")
        for lineno, row in enumerate(reader, start=2):
            try:
                if len(row) != width:
                    raise ValueError(f"{len(row)} cells, header has {width}")
                rows.append(np.array(row[1:], dtype=dtype))
            except ValueError as exc:
                raise DataError(f"{path}, line {lineno}: {exc}") from None
            ids.append(row[0])
    values = np.array(rows, dtype=dtype).reshape(len(ids), width - 1)
    return core_data.SeriesCollection(ids, values)


def read_metadata_ref(path):
    meta = {}
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.DictReader(fh)
        for row in reader:
            meta[row["series_id"]] = {
                "product": row["product"] or None,
                "store": row["store"] or None,
                "category": row["category"] or None,
            }
    return meta


def read_matrix_csv_ref(path) -> DistanceMatrix:
    path = str(path)
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        ids = header[1:]
        rows = []
        for row in reader:
            rows.append([float(v) for v in row[1:]])
    sidecar_path = path.rsplit(".", 1)[0] + ".json"
    try:
        with open(sidecar_path, encoding="utf-8") as fh:
            sidecar = json.load(fh)
    except OSError:
        raise DataError(f"{path}: missing sidecar {sidecar_path}") from None
    return DistanceMatrix(
        ids=ids,
        entries=np.asarray(rows),
        metric=sidecar["metric"],
        normalization=sidecar["normalization"],
        params=sidecar.get("params", {}),
    )


def read_assignment_csv_ref(path) -> ClusterAssignment:
    path = str(path)
    labels = {}
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        next(reader)
        for sid, cluster in reader:
            labels[sid] = int(cluster)
    sidecar_path = path.rsplit(".", 1)[0] + ".json"
    try:
        with open(sidecar_path, encoding="utf-8") as fh:
            sidecar = json.load(fh)
    except OSError:
        raise DataError(f"{path}: missing sidecar {sidecar_path}") from None
    return ClusterAssignment(
        labels=labels,
        k=max(labels.values()),
        algorithm=sidecar["algorithm"],
        seed=sidecar.get("seed", 0),
        objective=sidecar.get("objective"),
    )


def load_external_features_ref(path, known_ids=None):
    """Load feature vectors from CSV (header series_id,f1,...,fm) as (ids, vectors).

    Ragged rows, non-numeric cells, and ids outside ``known_ids`` are errors.
    """
    ids, vectors = [], []
    unknown = []
    try:
        fh = open(str(path), newline="", encoding="utf-8")
    except OSError as exc:
        raise DataError(f"cannot open feature file: {exc}") from exc
    with fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise DataError("feature file is empty") from None
        m = len(header) - 1
        if m < 1:
            raise DataError("feature file needs at least one feature column")
        for lineno, row in enumerate(reader, start=2):
            if len(row) - 1 != m:
                raise DataError(f"line {lineno}: ragged row ({len(row) - 1} features, expected {m})")
            sid = row[0]
            try:
                features = [float(v) for v in row[1:]]
            except ValueError as exc:
                raise DataError(f"line {lineno}: non-numeric cell: {exc}") from exc
            if known_ids is not None and sid not in known_ids:
                unknown.append(sid)
            ids.append(sid)
            vectors.append(features)
    if unknown:
        raise DataError(f"unknown series ids in feature file: {sorted(unknown)}")
    return ids, vectors
