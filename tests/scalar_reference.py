"""Scalar references for the batched kernels.

These are cell-by-cell loops of the Wagner-Fischer and DTW recurrences, a
per-pair MPBD, a pair-by-pair agglomerative merge loop, the row-by-row CSV
loaders and series assembly, and the segment-by-segment rasterizer, written
the plain way.  ``movclust.distances``, ``movclust.clustering``,
``movclust.core_data`` and ``movclust.image_features`` must reproduce every
value they return bit for bit.

More are earlier forms of the package code, kept as they were: the sweep
that recomputed each k's within-cluster MPBD pairs, the Davies-Bouldin
loop over cluster pairs, and the artifact writers that formatted and
csv-quoted one cell at a time.  The sweep's scores and the writers' bytes
must equal theirs.
"""

import csv
import datetime as dt
import math
from dataclasses import dataclass

import numpy as np

from movclust import evaluation
from movclust.clustering import Dendrogram
from movclust.core_data import DEFAULT_SCHEMA, RejectedRow, SeriesCollection, TimeSeries
from movclust.distances import delta_rows, mpbd_row
from movclust.errors import DataError, DegenerateGeometryError, DuplicateObservationError
from movclust.image_features import FeatureVector, ImageGrid


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
        raise DataError(f"cannot open input file: {exc}") from exc
    with fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames is None:
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
        raise DataError(f"cannot open input file: {exc}") from exc
    with fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise DataError(f"{path}: empty file, header row required") from None
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


def assemble_series_ref(observations, date_range=None, mode: str = "price") -> SeriesCollection:
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
    return SeriesCollection(series=series, mode=mode, provenance=provenance)


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


def rasterize_ref(series, width: int = 64, height: int = 64) -> ImageGrid:
    """Draw the series polyline into a binary width x height grid.

    Time maps onto columns [0, width-1]; value 0 maps to the bottom row and
    value 1 to the top row.  No anti-aliasing: pixels are 0 or 1.
    """
    if width < 2 or height < 2:
        raise DataError(f"grid must be at least 2x2, got {width}x{height}")
    values = np.asarray(getattr(series, "values", series), dtype=float)
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
    return ImageGrid(width=width, height=height, pixels=pixels)


def pool_features_ref(image: ImageGrid, block: int = 4, series_id: str = "") -> FeatureVector:
    """Average intensity per non-overlapping block x block tile, row-major."""
    if image.width % block or image.height % block:
        raise DataError(f"block {block} does not divide {image.width}x{image.height}")
    h, w = image.height // block, image.width // block
    tiles = image.pixels.reshape(h, block, w, block).mean(axis=(1, 3))
    return FeatureVector(
        series_id=series_id,
        features=tiles.reshape(-1),
        extractor=f"raster{image.width}x{image.height}/pool{block}",
    )


# ---------------------------------------------------------------------------
# MPBI computed per k, Davies-Bouldin pair by pair, and the per-cell writers


def mpbi_rows_ref(levels, ids, assignment, omega=2.0):
    """MPBI with each cluster's pairs computed by the MPBD row kernel."""
    groups = evaluation._groups(ids, assignment)
    D, S = delta_rows(np.stack([np.asarray(s, dtype=float) for s in levels]))
    total = 0.0
    for members in groups:
        Dm, Sm = D[members], S[members]
        pairs = [mpbd_row(Dm[a], Sm[a], Dm[a + 1 :], Sm[a + 1 :], omega)
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


def evaluate_ref(vectors, levels, ids, assignment, omega=2.0, ch_variant="standard"):
    notes = {}
    try:
        ch = evaluation.ch_index(vectors, ids, assignment, ch_variant)
    except DegenerateGeometryError as exc:
        ch, notes["ch"] = None, str(exc)
    try:
        db = db_index_ref(vectors, ids, assignment)
    except DegenerateGeometryError as exc:
        db, notes["db"] = None, str(exc)
    index = mpbi_rows_ref(levels, ids, assignment, omega=omega)
    return evaluation.ValidityReport(k=assignment.k, ch=ch, ch_variant=ch_variant, db=db,
                                     mpbi=index, notes=notes or None)


def sweep_k_ref(vectors, levels, ids, ks, cluster_fn, omega=2.0, ch_variant="standard"):
    """k-sweep whose every k computes its own MPBI pairs."""
    ks = sorted(set(int(k) for k in ks))
    rows = []
    for k in ks:
        try:
            assignment = cluster_fn(k)
            report = evaluate_ref(vectors, levels, ids, assignment, omega=omega,
                                  ch_variant=ch_variant)
        except (DataError, DegenerateGeometryError) as exc:
            rows.append(evaluation.SweepRow(k=k, ch=None, db=None, mpbi=None, note=str(exc)))
            continue
        note = ";".join(f"{key}:{msg}" for key, msg in sorted((report.notes or {}).items()))
        rows.append(evaluation.SweepRow(k=k, ch=report.ch, db=report.db, mpbi=report.mpbi,
                                        note=note))
    return rows


def _fmt(value) -> str:
    return format(float(value), ".9g")


def write_wide_ref(path, collection, dates, symbolic=False):
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["series_id"] + [d.isoformat() for d in dates])
        for s in collection.series:
            row = s.levels.tolist() if symbolic else [_fmt(v) for v in s.values]
            writer.writerow([s.series_id] + row)


def write_matrix_csv_ref(matrix, path):
    with open(str(path), "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["id"] + matrix.ids)
        for sid, row in zip(matrix.ids, matrix.entries):
            writer.writerow([sid] + [format(v, ".9g") for v in row])


def write_features_csv_ref(vectors, path):
    if not vectors:
        raise DataError("no feature vectors to write")
    m = len(vectors[0].features)
    with open(str(path), "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["series_id"] + [f"f{i + 1}" for i in range(m)])
        for vec in vectors:
            if len(vec.features) != m:
                raise DataError(f"{vec.series_id}: inconsistent feature length")
            writer.writerow([vec.series_id] + [format(v, ".9g") for v in vec.features])
