"""Pairwise distances and full symmetric distance matrices.

Four metrics: euclidean, levenshtein, dtw, and the movement-pattern
distance (mpbd) that compares per-step deltas instead of values.

Every metric runs as a batched numpy kernel, and the public pair functions
are its one-pair case.  DTW runs a dynamic program that sweeps the cost
grid by anti-diagonals: each step updates one diagonal for a whole block of
pairs in a few numpy ops, and only the last two diagonals are kept.
Levenshtein runs the bit-parallel recurrence of Myers (1999, J. ACM 46(3))
in the multi-word form of Hyyrö (2003): one text item advances a whole
column of the edit-distance table, 64 rows per uint64 word, for a block of
pairs at once, and the distances come out as exact integers.  MPBD and
euclidean broadcast one series against all later ones.  DTW and euclidean
entries go through the same floating-point operations, in the same order,
as the one-pair recurrence.  MPBD runs in int8 when every step cost is an
exact integer of at most 127 (integral deltas and omega, see
``delta_rows``) and in float64 otherwise; the integer sums are exact, and
so is the float64 sum of the same costs.  So every matrix is bit-identical
to computing each pair on its own.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .errors import DataError
from .tables import read_sidecar, read_table, write_table

METRICS = ("euclidean", "levenshtein", "dtw", "mpbd")

#: Pairs per call of the DTW kernel.  Its buffers hold three diagonals of
#: this many pairs, so memory stays bounded for any collection size.
PAIR_BLOCK = 128
#: Bytes of one (words, pairs) uint64 array of the Levenshtein kernel, and
#: of the pattern bitmasks of one block.  A block holds 5461 pairs at
#: L=365 (6 words), and its dozen such arrays stay within a few MiB.
BIT_BLOCK = 1 << 18
#: Bits per word of the Levenshtein kernel.
WORD = 64
#: Delta values per block of the MPBD row kernel, in float64: its
#: temporaries stay small enough for the CPU cache whatever the collection
#: size.  int8 blocks take as many bytes (eight times the values).
ROW_BLOCK = 1 << 15
#: Rows per block when a matrix's upper triangle is mirrored onto its lower one.
MIRROR_BLOCK = 64


#: Largest step cost, omega included, of the int8 MPBD kernel.
_INT8_TOP = int(np.iinfo(np.int8).max)
#: Longest delta row whose int8 costs always sum within int32.
_INT32_STEPS = (2**31 - 1) // _INT8_TOP


def _int8_costs(D, omega) -> bool:
    """Whether every step cost |d - D| * omega is an exact integer that int8 holds.

    Costs are exact integers when the deltas and omega are integral and
    omega >= 0.  Every cost, and the weight omega itself, is at most
    max(2 max|D|, 1) x max(omega, 1).  Whether every delta is integral is
    left to the caller.
    """
    if D.size == 0 or not (omega >= 0 and float(omega).is_integer()):
        return False
    peak = float(np.abs(D).max())
    if not peak.is_integer():  # also nan and inf
        return False
    return max(2 * int(peak), 1) * max(int(omega), 1) <= _INT8_TOP


def delta_rows(X, omega):
    """Per-step deltas of each row of a 2-D series array, their signs, and omega.

    When every step cost is an exact integer of at most 127 (``_int8_costs``),
    all three come back in int8: symbolic levels 1..5 run in int8 for every
    integral omega up to 15.  Otherwise the deltas are float64 and omega is
    returned as given.
    """
    D = X[:, :-1] - X[:, 1:]
    if _int8_costs(D, omega):
        Di = D.astype(np.int8)
        if np.array_equal(Di, D):
            return Di, np.sign(Di), np.int8(omega)
    return D, np.sign(D), omega


def mpbd_row(d, s, D, S, omega) -> np.ndarray:
    """MPBD from one delta row ``d`` (signs ``s``) to each row of ``D`` (signs ``S``).

    Takes the three values of ``delta_rows``.  Each step costs gap x
    weight, the weight omega where the signs differ and 1 elsewhere: equal
    deltas have a zero gap and equal signs, so they cost exactly 0 without
    a test of their own.  int8 rows weigh steps without a branch and sum
    exactly, in int32 (int64 past ``_INT32_STEPS`` steps); any such sum is
    far below 2**53, so it is also what the float64 sum of the same costs
    gives.  Float rows sum over a contiguous row, so numpy's pairwise
    summation adds the step costs exactly as it does for a single pair.
    """
    if len(d) == 0:
        raise DataError("mpbd: sequences must have length >= 2")
    exact = D.dtype == np.int8
    acc = (np.int32 if len(d) <= _INT32_STEPS else np.int64) if exact else None
    out = np.empty(len(D))
    step = max(1, ROW_BLOCK * 8 // (D.itemsize * len(d)))
    for c in range(0, len(D), step):
        Dc, Sc = D[c : c + step], S[c : c + step]
        cost = np.abs(d - Dc)
        differ = s != Sc
        if exact:
            cost *= differ.view(np.int8) * (omega - 1) + 1
        else:
            cost *= np.where(differ, omega, 1.0)
        out[c : c + step] = cost.sum(axis=1, dtype=acc)
    return out


def mpbd_upper(X, omega: float = 2.0) -> np.ndarray:
    """Raw MPBD between the rows of ``X``: entry (i, j) for i < j, zeros elsewhere."""
    n = len(X)
    D, S, w = delta_rows(X, omega)
    entries = np.zeros((n, n))
    for i in range(n - 1):
        entries[i, i + 1 :] = mpbd_row(D[i], S[i], D[i + 1 :], S[i + 1 :], w)
    return entries


def _euclidean_row(p, Q) -> np.ndarray:
    """Euclidean distance from ``p`` to each row of ``Q``."""
    return np.sqrt(((Q - p) ** 2).sum(axis=1))


def _dp_last_cell(P, Q, window) -> np.ndarray:
    """Final cell D[n, m] of the DTW table for each pair.

    ``P`` (n, B) and ``Q`` (m, B) hold one pair per column.  Cell (i, j)
    lies on anti-diagonal d = i + j and reads only diagonals d-1 and d-2, so
    the grid is swept one diagonal at a time, each stored by row index i:
    D = (p_i - q_j)^2 + min(up, left, diag) from D[0, 0] = 0 and an infinite
    border.  A Sakoe-Chiba ``window`` keeps only the cells with
    |i - j| <= window.
    """
    n, B = P.shape
    m = Q.shape[0]
    Qr = Q[::-1]  # q_j is row m - j, so a diagonal reads an ascending slice
    w = n + m if window is None else window
    inf = np.inf

    two = np.full((n + 2, B), inf)  # diagonal d - 2
    one = np.full((n + 2, B), inf)  # diagonal d - 1
    cur = np.full((n + 2, B), inf)
    two[0] = 0.0
    for d in range(2, n + m + 1):
        lo = max(1, d - m, (d - w + 1) // 2)
        hi = min(n, d - 1, (d + w) // 2)
        # The next two diagonals read this one only within [lo - 1, hi + 1].
        cur[lo - 1] = cur[hi + 1] = inf
        if lo <= hi:
            out = cur[lo : hi + 1]
            p, q = P[lo - 1 : hi], Qr[m - d + lo : m - d + hi + 1]
            np.minimum(one[lo - 1 : hi], one[lo : hi + 1], out=out)
            np.minimum(out, two[lo - 1 : hi], out=out)
            out += (p - q) ** 2
        two, one, cur = one, cur, two
    return one[n]


def _myers(P, A, rows, text) -> np.ndarray:
    """Edit distance from row ``rows[b]`` of ``P`` to column b of ``text``, for each b.

    ``P`` (k, m) and ``text`` (l, B) hold item codes below ``A``, with m and
    l >= 1.  Bit i of word w of a (words, B) uint64 vector stands for row
    64 w + i + 1 of pair b's table: Pv / Mv mark the rows where the current
    column steps +1 / -1 from the row above, and Peq[a] the pattern items
    equal to a.  One text item updates every word, low to high, carrying
    between words both the add and the two shifts.  Ph shifts in 1 at row 0,
    because the top row of a global distance grows by 1 per item.  The
    score starts at D[m, 0] = m and follows the horizontal steps of row m,
    read in the last word under the mask of the pattern's last row.  Bits
    past that row only ever feed higher bits, so they are left as they come.
    """
    k, m = P.shape
    words = -(-m // WORD)
    B = text.shape[1]
    # peq[:, r * A + a]: the bits of the items of row r of P that equal a
    peq = np.zeros((words, k * A), np.uint64)
    base = np.arange(k) * A
    for i in range(m):
        peq[i // WORD, base + P[:, i]] |= np.uint64(1 << i % WORD)
    base = base[rows]
    pv = np.full((words, B), ~np.uint64(0))
    mv = np.zeros_like(pv)
    eq, x, s, t, ph, mh = (np.empty_like(pv) for _ in range(6))
    carry, gen, full = (np.zeros((words, B), bool) for _ in range(3))
    up, down, bit = (np.zeros(B, np.uint64) for _ in range(3))
    one, high = np.uint64(1), np.uint64(WORD - 1)
    last = np.uint64((m - 1) % WORD)  # the pattern's last row, in the last word
    for item in text:
        np.take(peq, base + item, axis=1, out=eq)
        np.bitwise_or(eq, mv, out=x)  # Xv = Eq | Mv
        # Xh = (((Eq & Pv) + Pv) ^ Pv) | Eq, the add carrying word to word
        np.bitwise_and(eq, pv, out=t)
        np.add(t, pv, out=s)
        if words > 1:
            np.less(s, t, out=gen)  # the word's own sum overflowed
            np.equal(s, ~np.uint64(0), out=full)  # a carry in would overflow it
            for w in range(1, words):
                np.logical_and(full[w - 1], carry[w - 1], out=carry[w])
                carry[w] |= gen[w - 1]
            s += carry
        s ^= pv
        s |= eq
        np.bitwise_or(s, pv, out=ph)  # Ph = Mv | ~(Xh | Pv)
        np.invert(ph, out=ph)
        ph |= mv
        np.bitwise_and(pv, s, out=mh)  # Mh = Pv & Xh
        np.right_shift(ph[-1], last, out=bit)
        bit &= one
        up += bit
        np.right_shift(mh[-1], last, out=bit)
        bit &= one
        down += bit
        # Ph << 1 | 1 and Mh << 1, each word taking the top bit of the one below
        np.right_shift(ph[:-1], high, out=t[1:])
        t[0] = one
        ph <<= one
        ph |= t
        np.right_shift(mh[:-1], high, out=t[1:])
        t[0] = 0
        mh <<= one
        mh |= t
        np.bitwise_or(x, ph, out=pv)  # Pv = Mh | ~(Xv | Ph)
        np.invert(pv, out=pv)
        pv |= mh
        np.bitwise_and(ph, x, out=mv)  # Mv = Ph & Xv
    return m + up.astype(np.int64) - down.astype(np.int64)


def _edit_distance(P, Q, rows, cols) -> np.ndarray:
    """Edit distance from row ``rows[b]`` of ``P`` to row ``cols[b]`` of ``Q``, for each b.

    ``P`` (n, m) and ``Q`` (n', l) hold item codes from 0, items that
    compare equal sharing one code; ``rows`` is nondecreasing.  Pairs run
    through ``_myers`` in blocks of at most BIT_BLOCK bytes per bit vector,
    and of as many pattern rows as BIT_BLOCK bytes of bitmasks hold, so
    memory stays bounded for any collection size and alphabet.  The text
    codes of a block are kept in the smallest unsigned type that holds them.
    """
    m, l = P.shape[1], Q.shape[1]
    out = np.full(len(rows), m + l)
    if m == 0 or l == 0:  # the other sequence is all inserts
        return out
    A = int(max(P.max(), Q.max())) + 1
    words = -(-m // WORD)
    pairs = max(1, BIT_BLOCK // (8 * words))
    span = max(1, BIT_BLOCK // (8 * words * A))
    text = np.ascontiguousarray(Q.T, dtype=np.min_scalar_type(A - 1))
    start = 0
    while start < len(rows):
        lo = rows[start]
        stop = min(start + pairs, int(np.searchsorted(rows, lo + span)))
        block = slice(start, stop)
        hi = rows[stop - 1] + 1
        out[block] = _myers(P[lo:hi], A, rows[block] - lo, text[:, cols[block]])
        start = stop
    return out


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

    Accepts strings or sequences of any hashable items, such as levels.
    """
    codes = {}  # items that compare equal share one integer code
    P, Q = (
        np.array([codes.setdefault(item, len(codes)) for item in seq], dtype=np.intp)[None]
        for seq in (p, q)
    )
    pair = np.zeros(1, np.intp)
    return int(_edit_distance(P, Q, pair, pair)[0])


def normalized_levenshtein(p, q) -> float:
    p, q = list(p), list(q)
    longest = max(len(p), len(q))
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
    return float(np.sqrt(_dp_last_cell(p[:, None], q[:, None], window)[0]))


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
    return float(mpbd_upper(np.stack([p, q]), omega)[0, 1])


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


def _mirror(entries):
    """Copy the upper triangle of the square ``entries`` onto its lower one, in place.

    One block of MIRROR_BLOCK rows at a time: the diagonal block adds its
    transpose, which is the block's only temporary, and the rows below it
    take the transpose of the block's rows right of it, which they do not
    overlap.  ``entries += entries.T`` gives the same values through a whole
    (n, n) copy of the transpose.
    """
    n = len(entries)
    for lo in range(0, n, MIRROR_BLOCK):
        hi = min(lo + MIRROR_BLOCK, n)
        block = entries[lo:hi, lo:hi]
        block += block.T
        entries[hi:, lo:hi] = entries[lo:hi, hi:].T


def distance_matrix(
    collection,
    metric: str,
    omega: float = 2.0,
    window: int | None = None,
) -> DistanceMatrix:
    """Compute all pairwise distances for a collection.

    Takes the collection's matrix as it is: float values or integer levels.
    Each upper-triangle entry is computed once and mirrored, so the matrix
    is exactly symmetric.
    """
    if metric not in METRICS:
        raise DataError(f"unknown metric {metric!r}")
    if len(collection) < 2:
        raise DataError("distance matrix needs at least 2 series")
    X = collection.values
    if X.dtype.kind == "f":
        incomplete = np.isnan(X).any(axis=1)
        if incomplete.any():
            sid = collection.ids[int(np.argmax(incomplete))]
            raise DataError(f"{sid}: incomplete series in distance matrix")
        if metric == "levenshtein":
            raise DataError("levenshtein requires a discretized (symbolic) collection")
    X = np.asarray(X, dtype=float)
    n, length = X.shape

    entries = mpbd_upper(X, omega) if metric == "mpbd" else np.zeros((n, n))
    if metric == "levenshtein":
        codes = np.unique(X, return_inverse=True)[1].reshape(n, length)
        rows, cols = np.triu_indices(n, 1)
        entries[rows, cols] = _edit_distance(codes, codes, rows, cols)
    elif metric == "dtw":
        _check_dtw(length, length, window)
        XT = np.ascontiguousarray(X.T)
        rows, cols = np.triu_indices(n, 1)
        for start in range(0, len(rows), PAIR_BLOCK):
            r, c = rows[start : start + PAIR_BLOCK], cols[start : start + PAIR_BLOCK]
            entries[r, c] = np.sqrt(_dp_last_cell(XT[:, r], XT[:, c], window))
    elif metric == "euclidean":
        for i in range(n - 1):
            entries[i, i + 1 :] = _euclidean_row(X[i], X[i + 1 :])
    _mirror(entries)

    params = {"series_length": length}
    if metric == "mpbd":
        params["omega"] = omega
    if metric == "dtw":
        params["window"] = window
    return DistanceMatrix(ids=list(collection.ids), entries=entries, metric=metric, params=params)


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
    sidecar = {
        "metric": matrix.metric,
        "normalization": matrix.normalization,
        "params": matrix.params,
    }
    write_table(path, ["id"] + matrix.ids, matrix.ids, matrix.entries, sidecar=sidecar)


def read_matrix_csv(path) -> DistanceMatrix:
    header, _, entries = read_table(path)
    sidecar = read_sidecar(path, "metric", "normalization")
    return DistanceMatrix(
        ids=header[1:],
        entries=entries,
        metric=sidecar["metric"],
        normalization=sidecar["normalization"],
        params=sidecar.get("params", {}),
    )
