"""Pairwise distances and full symmetric distance matrices.

Four metrics: euclidean, levenshtein, dtw, and the movement-pattern
distance (mpbd) that compares per-step deltas instead of values.

Every metric runs as a batched numpy kernel, and the public pair functions
are its one-pair case.  DTW and Levenshtein share one dynamic-programming
kernel that sweeps the cost grid by anti-diagonals: each step updates one
diagonal for a whole block of pairs in a few numpy ops, and only the last
two diagonals are kept.  MPBD and euclidean broadcast one series against
all later ones.  Every entry goes through the same floating-point
operations, in the same order, as the one-pair recurrence, so a matrix is
bit-identical to computing each pair on its own.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import DataError
from .tables import write_table

METRICS = ("euclidean", "levenshtein", "dtw", "mpbd")

#: Pairs per call of the DP kernel.  Its buffers hold three diagonals of
#: this many pairs, so memory stays bounded for any collection size.
PAIR_BLOCK = 128
#: Delta values per block of the MPBD row kernel: its temporaries stay
#: small enough for the CPU cache whatever the collection size.
ROW_BLOCK = 1 << 15


def delta_sequence(x) -> np.ndarray:
    """Per-step deltas d[t] = x[t] - x[t+1] (sign convention of the movement rules)."""
    x = np.asarray(x, dtype=float)
    if len(x) < 2:
        raise DataError("delta sequence needs length >= 2")
    return x[:-1] - x[1:]


def delta_rows(X) -> tuple[np.ndarray, np.ndarray]:
    """Per-step deltas of each row of a 2-D series array, and their signs."""
    D = X[:, :-1] - X[:, 1:]
    return D, np.sign(D)


def mpbd_row(d, s, D, S, omega: float = 2.0) -> np.ndarray:
    """MPBD from one delta row ``d`` (signs ``s``) to each row of ``D`` (signs ``S``).

    The per-row sum runs over a contiguous row, so numpy's pairwise
    summation adds the step costs exactly as it does for a single pair.
    Each step costs gap x weight, the weight omega where the signs differ
    and 1 elsewhere: equal deltas have a zero gap and equal signs, so they
    cost exactly 0 without a test of their own.
    """
    if len(d) == 0:
        raise DataError("mpbd: sequences must have length >= 2")
    out = np.empty(len(D))
    step = max(1, ROW_BLOCK // len(d))
    for c in range(0, len(D), step):
        Dc, Sc = D[c : c + step], S[c : c + step]
        cost = np.abs(d - Dc)
        cost *= np.where(s != Sc, omega, 1.0)
        out[c : c + step] = cost.sum(axis=1)
    return out


def mpbd_upper(X, omega: float = 2.0) -> np.ndarray:
    """Raw MPBD between the rows of ``X``: entry (i, j) for i < j, zeros elsewhere."""
    n = len(X)
    D, S = delta_rows(X)
    entries = np.zeros((n, n))
    for i in range(n - 1):
        entries[i, i + 1 :] = mpbd_row(D[i], S[i], D[i + 1 :], S[i + 1 :], omega)
    return entries


def _euclidean_row(p, Q) -> np.ndarray:
    """Euclidean distance from ``p`` to each row of ``Q``."""
    return np.sqrt(((Q - p) ** 2).sum(axis=1))


def _dp_last_cell(P, Q, window, edit: bool) -> np.ndarray:
    """Final cell D[n, m] of the DTW or edit-distance table for each pair.

    ``P`` (n, B) and ``Q`` (m, B) hold one pair per column.  Cell (i, j)
    lies on anti-diagonal d = i + j and reads only diagonals d-1 and d-2, so
    the grid is swept one diagonal at a time, each stored by row index i.
    DTW: D = (p_i - q_j)^2 + min(up, left, diag) from D[0, 0] = 0 and an
    infinite border.  Edit: D = min(min(up, left) + 1, diag + [p_i != q_j])
    from the border D[i, 0] = i, D[0, j] = j.  A Sakoe-Chiba ``window``
    keeps only the cells with |i - j| <= window.
    """
    n, B = P.shape
    m = Q.shape[0]
    if n == 0 or m == 0:  # border only: the edit distance is the other length
        return np.full(B, float(n + m))
    Qr = Q[::-1]  # q_j is row m - j, so a diagonal reads an ascending slice
    w = n + m if window is None else window
    inf = np.inf

    def border(d, on_grid):
        return float(d) if edit and on_grid else inf

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
            if edit:
                out += 1.0
                np.minimum(out, diag + (p != q), out=out)
            else:
                np.minimum(out, diag, out=out)
                out += (p - q) ** 2
        two, one, cur = one, cur, two
    return one[n]


def _check_dtw(n, m, window):
    if n == 0 or m == 0:
        raise DataError("dtw: empty sequence")
    if window is not None and window < abs(n - m):
        raise DataError(f"dtw window {window} smaller than length difference {abs(n - m)}")


def euclidean(p, q) -> float:
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    if p.shape != q.shape:
        raise DataError(f"euclidean: length mismatch {len(p)} vs {len(q)}")
    return float(_euclidean_row(p, q[None])[0])


def levenshtein(p, q) -> int:
    """Edit distance with unit insert/delete/substitute costs.

    Accepts strings or integer level sequences.
    """
    codes = {}  # items that compare equal share one integer code
    P, Q = (
        np.array([codes.setdefault(item, len(codes)) for item in seq], dtype=float)
        for seq in (p, q)
    )
    return int(_dp_last_cell(P[:, None], Q[:, None], None, edit=True)[0])


def normalized_levenshtein(p, q) -> float:
    longest = max(len(list(p)), len(list(q)))
    if longest == 0:
        return 0.0
    return levenshtein(p, q) / longest


def dtw(p, q, window: int | None = None) -> float:
    """Dynamic time warping with squared local cost and a final square root.

    ``window`` is a Sakoe-Chiba half-width; None means unconstrained.
    """
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    _check_dtw(len(p), len(q), window)
    return float(np.sqrt(_dp_last_cell(p[:, None], q[:, None], window, edit=False)[0]))


def mpbd(p, q, omega: float = 2.0) -> float:
    """Movement-pattern distance over aligned delta sequences.

    Per step: 0 when deltas are equal; |a-b| when both move in the same
    direction; omega*|a-b| when the signs differ (a flat step against a
    move counts as a sign difference, sign(0) = 0).
    """
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    if p.shape != q.shape:
        raise DataError(f"mpbd: length mismatch {len(p)} vs {len(q)}")
    D, S = delta_rows(np.stack([p, q]))
    return float(mpbd_row(D[0], S[0], D[1:], S[1:], omega)[0])


@dataclass
class DistanceMatrix:
    """Symmetric pairwise distances tagged with metric and normalization."""

    ids: list[str]
    entries: np.ndarray
    metric: str
    normalization: str = "none"
    params: dict = field(default_factory=dict)

    def __post_init__(self):
        self.entries = np.asarray(self.entries, dtype=float)
        n = len(self.ids)
        if self.entries.shape != (n, n):
            raise DataError(f"matrix shape {self.entries.shape} does not match {n} ids")

    def validate(self):
        if not np.allclose(self.entries, self.entries.T):
            raise DataError("matrix not symmetric")
        if np.diagonal(self.entries).any():
            raise DataError("matrix diagonal not zero")
        if (self.entries < 0).any():
            raise DataError("negative distance entry")


def _sequences_for(collection, metric):
    from .core_data import SymbolicSeries

    seqs = []
    symbolic = None
    for s in collection.series:
        if isinstance(s, SymbolicSeries):
            this_symbolic = True
            seq = np.asarray(s.levels, dtype=float)
        else:
            this_symbolic = False
            seq = np.asarray(s.values, dtype=float)
            if np.isnan(seq).any():
                raise DataError(f"{s.series_id}: incomplete series in distance matrix")
        if symbolic is None:
            symbolic = this_symbolic
        elif symbolic != this_symbolic:
            raise DataError("collection mixes numeric and symbolic series")
        seqs.append(seq)
    if metric == "levenshtein" and not symbolic:
        raise DataError("levenshtein requires a discretized (symbolic) collection")
    return seqs


def distance_matrix(
    collection,
    metric: str,
    omega: float = 2.0,
    window: int | None = None,
) -> DistanceMatrix:
    """Compute all pairwise distances for a collection.

    Each upper-triangle entry is computed once and mirrored, so the matrix
    is exactly symmetric.
    """
    if metric not in METRICS:
        raise DataError(f"unknown metric {metric!r}")
    if len(collection.series) < 2:
        raise DataError("distance matrix needs at least 2 series")
    X = np.stack(_sequences_for(collection, metric))
    ids = [s.series_id for s in collection.series]
    n, length = X.shape

    entries = mpbd_upper(X, omega) if metric == "mpbd" else np.zeros((n, n))
    if metric in ("levenshtein", "dtw"):
        edit = metric == "levenshtein"
        if not edit:
            _check_dtw(length, length, window)
        XT = np.ascontiguousarray(X.T)
        rows, cols = np.triu_indices(n, 1)
        for start in range(0, len(rows), PAIR_BLOCK):
            r, c = rows[start : start + PAIR_BLOCK], cols[start : start + PAIR_BLOCK]
            last = _dp_last_cell(XT[:, r], XT[:, c], None if edit else window, edit)
            entries[r, c] = last if edit else np.sqrt(last)
    elif metric == "euclidean":
        for i in range(n - 1):
            entries[i, i + 1 :] = _euclidean_row(X[i], X[i + 1 :])
    entries += entries.T

    params = {"series_length": length}
    if metric == "mpbd":
        params["omega"] = omega
    if metric == "dtw":
        params["window"] = window
    return DistanceMatrix(ids=ids, entries=entries, metric=metric, params=params)


def normalize_matrix(matrix: DistanceMatrix, mode: str, value_range: float = 0.9) -> DistanceMatrix:
    """Rescale a raw matrix.

    ``matrix_max`` divides by the largest entry.  ``table1`` applies
    metric-specific denominators so comparably-sized scenarios land on a
    common [0, 1] scale: mpbd / (omega * n), levenshtein / n,
    euclidean / (sqrt(n) * value_range), dtw / matrix max.  ``none`` is
    the identity.
    """
    if matrix.normalization != "none":
        raise DataError(f"matrix already normalized ({matrix.normalization})")
    entries = matrix.entries.copy()
    if mode == "none":
        pass
    elif mode == "matrix_max":
        peak = entries.max()
        if peak > 0:
            entries /= peak
    elif mode == "table1":
        n = matrix.params.get("series_length")
        if not n:
            raise DataError("table1 normalization needs params['series_length']")
        if matrix.metric == "mpbd":
            entries /= matrix.params.get("omega", 2.0) * n
        elif matrix.metric == "levenshtein":
            entries /= n
        elif matrix.metric == "euclidean":
            entries /= np.sqrt(n) * value_range
        elif matrix.metric == "dtw":
            peak = entries.max()
            if peak > 0:
                entries /= peak
        else:
            raise DataError(f"no table1 rule for metric {matrix.metric!r}")
    else:
        raise DataError(f"unknown normalization mode {mode!r}")
    return replace(matrix, entries=entries, normalization=mode, params=dict(matrix.params))


# ---------------------------------------------------------------------------
# File format


def write_matrix_csv(matrix: DistanceMatrix, path):
    """CSV with an id header column/row plus a JSON sidecar next to it."""
    path = str(path)
    write_table(path, ["id"] + matrix.ids, matrix.ids, matrix.entries)
    sidecar = {
        "metric": matrix.metric,
        "normalization": matrix.normalization,
        "params": matrix.params,
    }
    with open(path.rsplit(".", 1)[0] + ".json", "w", encoding="utf-8") as fh:
        json.dump(sidecar, fh, sort_keys=True, indent=2)
        fh.write("\n")


def read_matrix_csv(path) -> DistanceMatrix:
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
