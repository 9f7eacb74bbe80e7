import functools
import math
import os
import re
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from movclust import distances as di
from movclust.core_data import SeriesCollection
from movclust.errors import DataError

from conftest import collection, pair_distance, sym, ts
from scalar_reference import (
    delta_rows_float, dtw_ref, euclidean_ref, levenshtein_dp_ref, levenshtein_matrix_dp_ref,
    levenshtein_ref, matrix_ref, mpbd_ref, mpbd_row_float, mpbd_upper_float,
)


# ---------------------------------------------------------------------------
# independent oracles


def levenshtein_oracle(p, q):
    """Exhaustive recursion straight from the textbook definition."""
    p, q = tuple(p), tuple(q)

    @functools.lru_cache(maxsize=None)
    def rec(a, b):
        if not b:
            return len(a)
        if not a:
            return len(b)
        if a[0] == b[0]:
            return rec(a[1:], b[1:])
        return 1 + min(rec(a[1:], b[1:]), rec(a, b[1:]), rec(a[1:], b))

    return rec(p, q)


def dtw_oracle(p, q):
    """Enumerate every monotone boundary-anchored warping path (tiny inputs only)."""
    n, m = len(p), len(q)
    best = [math.inf]

    def walk(i, j, acc):
        acc = acc + (p[i] - q[j]) ** 2
        if acc >= best[0]:
            return
        if i == n - 1 and j == m - 1:
            best[0] = acc
            return
        for di_, dj_ in ((1, 0), (0, 1), (1, 1)):
            ni, nj = i + di_, j + dj_
            if ni < n and nj < m:
                walk(ni, nj, acc)

    walk(0, 0, 0.0)
    return math.sqrt(best[0])


def mpbd_oracle(p, q, omega=2.0):
    """Direct rule-by-rule translation of the movement cost."""
    total = 0.0
    for t in range(len(p) - 1):
        a = p[t] - p[t + 1]
        b = q[t] - q[t + 1]
        if a == b:
            continue
        if np.sign(a) == np.sign(b):
            total += abs(a - b)
        else:
            total += omega * abs(a - b)
    return total


# ---------------------------------------------------------------------------


def coded(*seqs):
    """``seqs`` as rows of integer levels, items that compare equal sharing one level."""
    codes = {}
    return [np.array([codes.setdefault(item, len(codes)) for item in seq], dtype=int)
            for seq in seqs]


def equal_length(items, min_size=0, max_size=9):
    """Two lists of ``items`` of one drawn length."""
    return st.integers(min_size, max_size).flatmap(lambda n: st.tuples(
        st.lists(items, min_size=n, max_size=n), st.lists(items, min_size=n, max_size=n)))


def table1(metric, p, q):
    """The table1-normalized distance of rows ``p`` and ``q``."""
    raw = di.distance_matrix(SeriesCollection(["p", "q"], np.array([p, q])), metric)
    return di.normalize_matrix(raw, "table1").entries[0, 1]


class TestEuclidean:
    def test_identity(self):
        assert pair_distance("euclidean", [1.0, 2.0], [1.0, 2.0]) == 0.0

    def test_3_4_5(self):
        assert pair_distance("euclidean", [0.0, 0.0], [3.0, 4.0]) == 5.0

    def test_hand_value(self):
        got = pair_distance("euclidean", [0.1, 0.1, 0.1], [1.0, 1.0, 1.0])
        assert got == pytest.approx(0.9 * math.sqrt(3), rel=1e-12)

    def test_matches_naive_summation(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            p = rng.normal(size=13)
            q = rng.normal(size=13)
            naive = math.sqrt(sum((b - a) ** 2 for a, b in zip(p, q)))
            assert pair_distance("euclidean", p, q) == pytest.approx(naive, rel=1e-9)


class TestLevenshtein:
    def test_identical(self):
        assert pair_distance("levenshtein", [1, 2, 2, 1], [1, 2, 2, 1]) == 0

    def test_abbb_cdbb(self):
        assert pair_distance("levenshtein", [1, 2, 2, 2], [3, 4, 2, 2]) == 2

    def test_base_case_empty(self):
        """Rows of no items are at distance 0."""
        empty = np.empty(0, dtype=int)
        assert pair_distance("levenshtein", empty, empty) == 0

    def test_integer_levels(self):
        assert pair_distance("levenshtein", [1, 2, 2], [1, 3, 2]) == 1

    @given(equal_length(st.integers(1, 5), max_size=6))
    def test_matches_exhaustive_recursion(self, pq):
        p, q = pq
        assert pair_distance("levenshtein", *coded(p, q)) == levenshtein_oracle(p, q)

    @given(st.integers(0, 5).flatmap(lambda n: st.lists(
        st.lists(st.integers(1, 3), min_size=n, max_size=n), min_size=3, max_size=3)))
    def test_triangle_inequality(self, abc):
        a, b, c = coded(*abc)
        d = functools.partial(pair_distance, "levenshtein")
        assert d(a, c) <= d(a, b) + d(b, c)

    def test_normalized_scenarios(self):
        a = [2] * 10
        b = [2] * 3 + [4] * 3 + [2] * 4
        assert table1("levenshtein", a, b) == pytest.approx(0.30)
        assert table1("levenshtein", [1] * 10, [2] * 10) == 1.0
        assert table1("levenshtein", a, a) == 0.0


class TestDtw:
    def test_identity(self):
        assert pair_distance("dtw", [1.0, 2.0, 3.0], [1.0, 2.0, 3.0]) == 0.0

    def test_time_shift_absorbed(self):
        assert pair_distance("dtw", [1.0, 2.0, 3.0, 3.0], [1.0, 1.0, 2.0, 3.0]) == 0.0

    def test_forced_diagonal(self):
        got = pair_distance("dtw", [0.0, 0.0], [1.0, 1.0], window=0)
        assert got == pytest.approx(math.sqrt(2))

    def test_empty_sequence(self):
        with pytest.raises(DataError, match="empty"):
            pair_distance("dtw", np.empty(0), np.empty(0))

    def test_window_too_small(self):
        with pytest.raises(DataError, match="^dtw window -1 must be >= 0$"):
            pair_distance("dtw", [1.0, 2.0], [2.0, 1.0], window=-1)

    def test_matches_path_enumeration(self):
        rng = np.random.default_rng(1)
        for _ in range(30):
            n = rng.integers(2, 6)
            p = rng.integers(0, 4, size=n).astype(float)
            q = rng.integers(0, 4, size=n).astype(float)
            assert pair_distance("dtw", p, q) == pytest.approx(dtw_oracle(p, q), abs=1e-12)

    def test_window_matches_full_when_wide(self):
        rng = np.random.default_rng(2)
        p = rng.normal(size=8)
        q = rng.normal(size=8)
        assert pair_distance("dtw", p, q, window=8) == pytest.approx(pair_distance("dtw", p, q))

    def test_at_most_euclidean_on_equal_lengths(self):
        rng = np.random.default_rng(3)
        for _ in range(100):
            p = rng.normal(size=12)
            q = rng.normal(size=12)
            assert pair_distance("dtw", p, q) <= pair_distance("euclidean", p, q) + 1e-12


class TestMpbd:
    def test_shifted_copy_is_zero(self):
        p = [2, 3, 3, 2, 4]
        q = [v + 2 for v in p]
        assert pair_distance("mpbd", p, q) == 0.0

    def test_scenario2_raw_value(self):
        p = [2, 2, 2, 1, 1, 1, 2, 2, 2, 2]
        q = [4, 4, 4, 2, 2, 2, 4, 4, 4, 4]
        assert pair_distance("mpbd", p, q) == 2.0

    def test_opposite_unit_step_cost(self):
        # d_p = +1 vs d_q = -1 with omega 2 costs 4
        assert pair_distance("mpbd", [2, 1], [1, 2], omega=2.0) == 4.0

    def test_flat_vs_move_is_weighted(self):
        # sign(0) differs from sign(1): weighted branch
        assert pair_distance("mpbd", [1, 1], [2, 1], omega=2.0) == 2.0

    def test_matches_rule_oracle(self):
        rng = np.random.default_rng(4)
        for _ in range(100):
            p = rng.integers(1, 6, size=9).astype(float)
            q = rng.integers(1, 6, size=9).astype(float)
            assert pair_distance("mpbd", p, q) == pytest.approx(mpbd_oracle(p, q), abs=1e-12)

    def test_shift_invariance(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            p = rng.normal(size=7)
            q = rng.normal(size=7)
            c = float(rng.normal()) * 10
            assert pair_distance("mpbd", p + c, q) == pytest.approx(
                pair_distance("mpbd", p, q), rel=1e-9)

    def test_zero_law(self):
        rng = np.random.default_rng(6)
        for _ in range(50):
            p = rng.integers(1, 6, size=8).astype(float)
            q = rng.integers(1, 6, size=8).astype(float)
            zero = pair_distance("mpbd", p, q) == 0.0
            constant_gap = len(set(np.round(p - q, 12))) == 1
            assert zero == constant_gap

    def test_triangle_inequality_fails(self):
        eps = 0.01
        p = [2.0, 1.0]          # delta +1
        q = [1.0, 2.0]          # delta -1
        m = [1.0 + eps, 1.0]    # delta +eps
        direct = pair_distance("mpbd", p, q)
        via = pair_distance("mpbd", p, m) + pair_distance("mpbd", m, q)
        assert direct == 4.0
        assert via == pytest.approx((1 - eps) + 2 * (1 + eps))
        assert direct > via  # not a metric

    def test_errors(self):
        with pytest.raises(DataError, match="length >= 2"):
            pair_distance("mpbd", [1.0], [2.0])
        with pytest.raises(DataError, match="^p: incomplete series in distance matrix$"):
            pair_distance("mpbd", [1.0, np.nan], [1.0, 2.0])


@settings(max_examples=200)
@given(equal_length(st.integers(1, 5), min_size=2, max_size=10))
def test_metric_axioms_all_metrics(pq):
    p, q = pq
    for metric in di.METRICS:
        d = functools.partial(pair_distance, metric)
        assert d(p, q) >= 0
        assert d(p, q) == d(q, p)
        assert d(p, p) == 0


class TestDistanceMatrix:
    def test_two_identical_series(self):
        col = collection([sym("A", [1, 2, 3]), sym("B", [1, 2, 3])])
        matrix = di.distance_matrix(col, "mpbd")
        assert matrix.entries.tolist() == [[0, 0], [0, 0]]

    def test_entries_match_scalar_metric(self):
        col = collection([sym("A", [1, 2, 3]), sym("B", [3, 2, 1]), sym("C", [1, 1, 5])])
        for metric, fn in [
            ("mpbd", mpbd_ref),
            ("euclidean", euclidean_ref),
            ("levenshtein", lambda a, b: float(levenshtein_ref(a, b))),
            ("dtw", dtw_ref),
        ]:
            entries = di.distance_matrix(col, metric).entries
            assert (entries == entries.T).all() and not np.diagonal(entries).any()
            assert (entries >= 0).all()
            assert entries == pytest.approx(matrix_ref(col.values, fn), abs=1e-12)

    @pytest.mark.parametrize("metric, kwargs", [
        pytest.param("mpbd", {}, id="mpbd"),
        # a non-integral omega keeps the float64 MPBD kernel
        pytest.param("mpbd", {"omega": 0.3}, id="mpbd-omega0.3"),
        pytest.param("levenshtein", {}, id="levenshtein"),
        pytest.param("dtw", {}, id="dtw"),
    ])
    def test_deterministic_across_block_sizes(self, metric, kwargs, monkeypatch):
        rng = np.random.default_rng(7)
        col = collection([sym(f"S{i:02d}", rng.integers(1, 6, size=12)) for i in range(19)])
        byte_images = set()
        # BIT_BLOCK 1 and 56 give Levenshtein blocks of 1 and 7 pairs, of one row each
        # PRODUCT_BLOCK 1 and 3000 give MPBD products of 1 and 4 steps a block
        for pair_block, row_block, product_block, bit_block, mirror_block in (
            (1, 11, 1, 1, 1), (7, 50, 3000, 56, 7), (128, 1 << 15, 1 << 20, 1 << 18, 64),
            (1000, 1 << 20, 1 << 22, 1 << 22, 1000),
        ):
            monkeypatch.setattr(di, "PAIR_BLOCK", pair_block)
            monkeypatch.setattr(di, "ROW_BLOCK", row_block)
            monkeypatch.setattr(di, "PRODUCT_BLOCK", product_block)
            monkeypatch.setattr(di, "BIT_BLOCK", bit_block)
            monkeypatch.setattr(di, "MIRROR_BLOCK", mirror_block)
            byte_images.add(di.distance_matrix(col, metric, **kwargs).entries.tobytes())
        assert len(byte_images) == 1

    def test_mirror_takes_no_full_temporary(self):
        """One mpbd matrix at n=400 peaks below 1.5 matrices of memory.

        Mirroring with ``entries += entries.T`` copied the whole transpose
        first, a second (n, n) matrix.
        """
        n = 400
        levels = np.random.default_rng(8).integers(1, 6, size=(n, 30))
        col = SeriesCollection([f"S{i:03d}" for i in range(n)], levels)
        tracemalloc.start()
        try:
            matrix = di.distance_matrix(col, "mpbd")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * n * n * 8
        assert np.triu(matrix.entries).tobytes() == di.mpbd_upper(levels).tobytes()
        assert matrix.entries.tobytes() == matrix.entries.T.copy().tobytes()

    def test_levenshtein_requires_symbolic(self):
        col = collection([ts("A", [0.1, 0.2]), ts("B", [0.3, 0.4])])
        with pytest.raises(DataError, match="discretized"):
            di.distance_matrix(col, "levenshtein")

    def test_too_small(self):
        with pytest.raises(DataError):
            di.distance_matrix(collection([sym("A", [1, 2])]), "mpbd")

    def test_dtw_window_narrower_than_zero(self):
        col = collection([ts("A", [0.1, 0.2]), ts("B", [0.3, 0.4])])
        with pytest.raises(DataError, match="window"):
            di.distance_matrix(col, "dtw", window=-1)

    def test_mpbd_needs_two_steps(self):
        col = collection([sym("A", [1]), sym("B", [2])])
        with pytest.raises(DataError, match="length >= 2"):
            di.distance_matrix(col, "mpbd")

    def test_params_recorded(self):
        col = collection([sym("A", [1, 2, 3]), sym("B", [2, 2, 2])])
        matrix = di.distance_matrix(col, "mpbd", omega=3.0)
        assert matrix.params == {"series_length": 3, "omega": 3.0}


class TestNormalizeMatrix:
    def scenario_pair(self, p, q):
        return di.distance_matrix(collection([sym("A", p), sym("B", q)]), "mpbd")

    def test_table1_scenario2(self):
        raw = self.scenario_pair(
            [2, 2, 2, 1, 1, 1, 2, 2, 2, 2], [4, 4, 4, 2, 2, 2, 4, 4, 4, 4]
        )
        assert raw.entries[0, 1] == 2.0
        norm = di.normalize_matrix(raw, "table1")
        assert norm.entries[0, 1] == pytest.approx(0.10)

    def test_table1_three_opposite_moves(self):
        raw = self.scenario_pair(
            [3, 3, 2, 2, 2, 3, 3, 2, 2, 2], [3, 3, 4, 4, 4, 3, 3, 4, 4, 4]
        )
        assert raw.entries[0, 1] == 12.0
        norm = di.normalize_matrix(raw, "table1")
        assert norm.entries[0, 1] == pytest.approx(0.60)

    def test_matrix_max(self):
        raw = self.scenario_pair([1, 2, 3], [3, 2, 1])
        norm = di.normalize_matrix(raw, "matrix_max")
        assert norm.entries.max() == 1.0

    def test_all_zero_matrix_unchanged(self):
        raw = self.scenario_pair([1, 2, 3], [2, 3, 4])
        norm = di.normalize_matrix(raw, "matrix_max")
        assert norm.entries.tolist() == [[0, 0], [0, 0]]

    def test_double_normalize_rejected(self):
        raw = self.scenario_pair([1, 2, 3], [3, 2, 1])
        norm = di.normalize_matrix(raw, "matrix_max")
        with pytest.raises(DataError):
            di.normalize_matrix(norm, "matrix_max")

    @pytest.mark.parametrize("omega", [0.0, -1.0])
    def test_table1_mpbd_needs_a_positive_omega(self, omega):
        raw = self.scenario_pair([1, 2, 3], [3, 2, 1])
        raw.params["omega"] = omega
        with pytest.raises(DataError, match=re.escape(
                f"table1 normalization of mpbd needs omega > 0, got {omega!r}")):
            di.normalize_matrix(raw, "table1")

    def test_table1_euclidean(self):
        col = collection([ts("A", [0.1, 0.1]), ts("B", [1.0, 1.0])])
        raw = di.distance_matrix(col, "euclidean")
        norm = di.normalize_matrix(raw, "table1", value_range=0.9)
        assert norm.entries[0, 1] == pytest.approx(1.0)

    def test_missing_sidecar_rejected(self, tmp_path):
        raw = self.scenario_pair([1, 2, 3], [3, 2, 1])
        path = tmp_path / "m.csv"
        di.write_matrix_csv(raw, path)
        (tmp_path / "m.json").unlink()
        with pytest.raises(DataError, match=r"missing sidecar .*m\.json"):
            di.read_matrix_csv(path)

    def test_roundtrip_csv(self, tmp_path):
        raw = self.scenario_pair([1, 2, 3], [3, 2, 1])
        path = tmp_path / "m.csv"
        di.write_matrix_csv(raw, path)
        back = di.read_matrix_csv(path)
        assert back.ids == raw.ids
        assert back.metric == "mpbd"
        assert np.allclose(back.entries, raw.entries)


# ---------------------------------------------------------------------------
# batched kernels against the scalar references, bit for bit


def same_bits(a, b):
    return np.asarray(a, dtype=float).tobytes() == np.asarray(b, dtype=float).tobytes()


values = st.one_of(
    st.integers(0, 4).map(float),
    st.floats(-1e3, 1e3, allow_nan=False, allow_infinity=False),
)


def window_for(kind, n):
    return {"none": None, "zero": 0, "one": 1, "wide": 2 * n + 3}[kind]


class TestBatchedMatchesScalar:
    @settings(max_examples=300)
    @given(equal_length(values, min_size=1), st.sampled_from(["none", "zero", "one", "wide"]))
    def test_dtw_pair(self, pq, kind):
        p, q = pq
        window = window_for(kind, len(p))
        assert same_bits(pair_distance("dtw", p, q, window=window), dtw_ref(p, q, window=window))

    @settings(max_examples=300)
    @given(st.one_of(equal_length(st.sampled_from("ABCDE")), equal_length(st.integers(1, 5))))
    def test_levenshtein_pair(self, pq):
        p, q = pq
        assert pair_distance("levenshtein", *coded(p, q)) == levenshtein_ref(p, q)

    @settings(max_examples=300)
    @given(equal_length(values, min_size=2, max_size=12), st.sampled_from([2.0, 3.0, 0.5]))
    def test_mpbd_pair(self, pq, omega):
        p, q = pq
        assert same_bits(pair_distance("mpbd", p, q, omega=omega), mpbd_ref(p, q, omega=omega))

    @settings(max_examples=100, deadline=None)
    @given(
        st.integers(2, 7),
        st.integers(2, 9),
        st.sampled_from(["none", "zero", "wide"]),
        st.integers(0, 2**32 - 1),
    )
    def test_distance_matrix(self, n, length, kind, seed):
        rng = np.random.default_rng(seed)
        levels = rng.integers(1, 6, size=(n, length)).astype(float)
        reals = rng.random((n, length))
        symbolic = collection([sym(f"S{i}", row) for i, row in enumerate(levels)])
        numeric = collection([ts(f"T{i}", row) for i, row in enumerate(reals)])
        window = window_for(kind, length)
        cases = [
            ("mpbd", symbolic, levels, {"omega": 3.0}, lambda a, b: mpbd_ref(a, b, omega=3.0)),
            ("mpbd", numeric, reals, {}, mpbd_ref),
            ("levenshtein", symbolic, levels, {}, lambda a, b: float(levenshtein_ref(a, b))),
            ("dtw", numeric, reals, {"window": window}, lambda a, b: dtw_ref(a, b, window)),
            ("dtw", symbolic, levels, {"window": window}, lambda a, b: dtw_ref(a, b, window)),
            ("euclidean", numeric, reals, {}, euclidean_ref),
        ]
        for metric, col, seqs, kwargs, pair in cases:
            got = di.distance_matrix(col, metric, **kwargs).entries
            assert same_bits(got, matrix_ref(seqs, pair)), metric

    @pytest.mark.parametrize("metric, n, length", [
        # more pairs than one DTW block
        ("dtw", di.PAIR_BLOCK // 7 + 2, 15),
        # Levenshtein blocks of 48 pairs and 9 rows in one word, and of 16
        # pairs and 3 rows in three words
        ("levenshtein", di.PAIR_BLOCK // 7 + 2, 15),
        ("levenshtein", 12, 130),
        # rows longer than one block of the MPBD product
        ("mpbd", 40, 2 * di.ROW_BLOCK // 37 + 300),
    ])
    def test_many_blocks(self, metric, n, length, monkeypatch):
        monkeypatch.setattr(di, "BIT_BLOCK", 8 * 3 * 16)
        levels = np.random.default_rng(8).integers(1, 6, size=(n, length)).astype(float)
        col = collection([sym(f"S{i:03d}", row) for i, row in enumerate(levels)])
        pair = {"levenshtein": lambda a, b: float(levenshtein_ref(a, b)),
                "dtw": dtw_ref, "mpbd": mpbd_ref}[metric]
        assert same_bits(di.distance_matrix(col, metric).entries, matrix_ref(levels, pair))


# ---------------------------------------------------------------------------
# the bit-parallel Levenshtein kernel against the anti-diagonal DP it
# replaced and the Wagner-Fischer loop, as exact integers

#: Lengths on both sides of one and two 64-bit words.
WORD_EDGES = [1, 63, 64, 65, 127, 128, 129, 200]
#: Item kinds: few symbols, more than 5, more than 64, text, and floats
#: that equal ints (1.0 == 1, so the two are one item).
ITEMS = {
    "levels": st.integers(1, 5),
    "six": st.integers(0, 6),
    "wide": st.integers(-40, 60),
    "text": st.characters(codec="utf-8"),
    "mixed": st.sampled_from([1, 1.0, 2, 2.0, 3, 3.0, True, 0, 0.0]),
}


@st.composite
def item_sequence(draw, items, length):
    """A list of ``length`` items, mostly runs so that long inputs share items."""
    pool = draw(st.lists(items, min_size=1, max_size=80))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return [pool[i] for i in rng.integers(0, len(pool), size=length)]


@st.composite
def sequence_pairs(draw):
    kind = draw(st.sampled_from(sorted(ITEMS)))
    length = draw(st.one_of(st.sampled_from([0] + WORD_EDGES), st.integers(0, 200)))
    p, q = (draw(item_sequence(ITEMS[kind], length)) for _ in range(2))
    if kind == "text" and draw(st.booleans()):
        return "".join(p), "".join(q)
    return p, q


def dp_distance(p, q):
    """The edit distance of the anti-diagonal DP, on shared integer codes."""
    P, Q = (row.astype(float) for row in coded(p, q))
    return levenshtein_dp_ref(P[:, None], Q[:, None])[0]


class TestBitParallelLevenshtein:
    @settings(max_examples=200, deadline=None)
    @given(sequence_pairs())
    def test_pair_matches_dp_and_loop(self, pq):
        p, q = pq
        got = pair_distance("levenshtein", *coded(p, q))
        assert got == dp_distance(p, q) == levenshtein_ref(p, q)
        assert pair_distance("levenshtein", *coded(q, p)) == got

    @pytest.mark.parametrize("p, q, expected", [
        ("", "", 0), ([], [], 0), ("", [], 0), ("abc", "abd", 1), ([1, 2], [2, 1], 2),
        ([1.0, 2.0, 3.0], [1, 2, 3], 0), ([1.5, 2], [1, 2.0], 1), ([True, 0], [1, 0.0], 0),
        ("a" * 63 + "b", "b" + "a" * 63, 2), ("a" * 129, "b" * 129, 129),
        ("ab" * 100, "ba" * 100, 2),
    ])
    def test_pair_cases(self, p, q, expected):
        """Rows of items, each coded as a level shared by the items equal to it."""
        assert pair_distance("levenshtein", *coded(p, q)) == expected == levenshtein_ref(p, q)

    @pytest.mark.parametrize("length", [63, 64, 65, 127, 128, 129])
    def test_word_boundary_rows(self, length):
        """Rows of one, two and three 64-bit words, edited at both ends and across words."""
        p = np.arange(length) % 5 + 1
        for q, expected in ((np.roll(p, 1), levenshtein_ref(p, np.roll(p, 1))),
                            (p + 5, length), (p, 0)):
            assert pair_distance("levenshtein", p, q) == expected == dp_distance(p, q)

    @settings(max_examples=60, deadline=None)
    @given(
        st.integers(2, 5),
        st.sampled_from(WORD_EDGES),
        st.sampled_from([2, 5, 6, 65, 300]),
        st.integers(0, 2**32 - 1),
    )
    def test_matrix_matches_dp_and_loop(self, n, length, alphabet, seed):
        levels = np.random.default_rng(seed).integers(0, alphabet, size=(n, length))
        if n > 2:
            levels[-1] = levels[0]  # a zero off the diagonal
        col = collection([sym(f"S{i}", row) for i, row in enumerate(levels)])
        got = di.distance_matrix(col, "levenshtein").entries
        assert got.dtype == np.float64
        assert got.tobytes() == levenshtein_matrix_dp_ref(levels).tobytes()
        loop = matrix_ref(levels, lambda a, b: float(levenshtein_ref(a, b)))
        assert got.tobytes() == loop.tobytes()

    def test_matrix_of_one_item_rows(self):
        col = collection([sym("A", [3]), sym("B", [4]), sym("C", [3])])
        assert di.distance_matrix(col, "levenshtein").entries.tolist() == [
            [0, 1, 0], [1, 0, 1], [0, 1, 0]]

    def test_wide_alphabet_blocks_hold_few_rows(self, monkeypatch):
        """A block's pattern bitmasks stay within BIT_BLOCK bytes, however many items."""
        levels = np.arange(6 * 70).reshape(6, 70) % 250  # 250 items, two words per row
        levels[3] = levels[0]
        monkeypatch.setattr(di, "BIT_BLOCK", 2 * 250 * 2 * 8)  # two rows of bitmasks
        masks = []
        myers = di._myers
        monkeypatch.setattr(di, "_myers", lambda P, A, *rest: masks.append(len(P) * A * 2 * 8)
                            or myers(P, A, *rest))
        col = collection([sym(f"S{i}", row) for i, row in enumerate(levels)])
        got = di.distance_matrix(col, "levenshtein").entries
        assert got.tobytes() == levenshtein_matrix_dp_ref(levels).tobytes()
        assert len(masks) > 1 and max(masks) <= di.BIT_BLOCK


# ---------------------------------------------------------------------------
# the exact MPBD product over step bins against the float64 row kernel, bit for bit

#: omega values on both sides of the step-bin bound for levels 1..5 (top =
#: 8 x omega: 15 -> 120, 16 -> 128) and for unit deltas (63 -> 126, 64 ->
#: 128), plus two non-integral ones that keep the float64 kernel.
OMEGAS = [0.0, 1.0, 2.0, 3.0, 15.0, 16.0, 63.0, 64.0, 0.3, 2.5]


@st.composite
def level_rows(draw):
    """(levels (n, L) float array of symbolic levels 1..5, omega)."""
    n = draw(st.integers(2, 7))
    length = draw(st.sampled_from([2, 3, 5, 12, di.ROW_BLOCK + 5]))
    omega = draw(st.sampled_from(OMEGAS))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    X = rng.integers(1, 6, size=(n, length)).astype(float)
    # flat and repeated rows, so equal deltas and zero costs occur
    if draw(st.booleans()):
        X[0] = X[0, 0]
    if n > 2 and draw(st.booleans()):
        X[-1] = X[1]
    return X, omega


def check_matches_float_kernel(X, omega):
    upper = mpbd_upper_float(X, omega)
    assert same_bits(di.mpbd_upper(X, omega), upper)
    col = collection([sym(f"S{i}", row) for i, row in enumerate(X)])
    assert same_bits(di.distance_matrix(col, "mpbd", omega=omega).entries, upper + upper.T)
    Df, Sf = delta_rows_float(X[:2])
    pair = mpbd_row_float(Df[0], Sf[0], Df[1:], Sf[1:], omega)[0]
    assert float.hex(pair_distance("mpbd", X[0], X[1], omega=omega)) == float.hex(pair)


#: Prints OpenBLAS's thread count in this process ("None" where numpy's BLAS
#: is not OpenBLAS) and the sha256 of ``mpbd_upper`` of seeded unit steps at
#: omega 63, whose steps cost up to 126, with the float32 bound patched low to
#: cut blocks of 37 steps.  Each block of 64 rows is a product of millions of
#: multiply-adds, far past the size below which OpenBLAS keeps a GEMM on one
#: thread.
THREADED_SCRIPT = """
import ctypes, hashlib, sys
import numpy as np
from movclust import distances as di

def blas_threads():
    if not sys.platform.startswith("linux"):
        return None
    with open("/proc/self/maps") as maps:
        paths = {line.split()[-1] for line in maps if "openblas" in line.rsplit("/", 1)[-1]}
    for path in sorted(paths):
        lib = ctypes.CDLL(path)
        for name in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                     "openblas_get_num_threads"):
            if hasattr(lib, name):
                return getattr(lib, name)()
    return None

X = np.cumsum(np.random.default_rng(5).integers(-1, 2, size=(300, 400)), axis=1).astype(float)
assert di.step_bins(X, 63.0)[1].max() == 126
di.EXACT_FLOAT32 = 126 * 37 + 1
print(blas_threads(), hashlib.sha256(di.mpbd_upper(X, 63.0).tobytes()).hexdigest())
"""


class TestIntegerKernel:
    @pytest.mark.parametrize("X, omega, binned", [
        # binned when top = max(2 max|D|, 1) x max(omega, 1) is at most 127
        ([[3, 3, 3], [3, 3, 3]], 127.0, True),  # flat rows: top = omega
        ([[3, 3, 3], [3, 3, 3]], 128.0, False),
        ([[1, 5, 1], [3, 3, 3]], 15.0, True),  # 2 x 4 x 15 = 120
        ([[1, 5, 1], [3, 3, 3]], 16.0, False),  # 2 x 4 x 16 = 128
        ([[1, 2, 1], [2, 2, 2]], 63.0, True),
        ([[1, 2, 1], [2, 2, 2]], 64.0, False),
        ([[1, 2, 1], [2, 2, 2]], 0.0, True),
        ([[1, 64, 1], [2, 2, 2]], 1.0, True),  # 2 x 63 = 126
        ([[1, 65, 1], [2, 2, 2]], 1.0, False),  # 2 x 64 = 128
        ([[1, 3000, 1], [2, 2, 2]], 3.0, False),  # wide integral levels
        ([[3, 3, 3], [3, 3, 3]], 1000.0, False),
        ([[3, 3, 3], [3, 3, 3]], 2.0**40, False),
        ([[1, 2, 3], [3, 2, 1]], 0.3, False),
        ([[1, 2, 3], [3, 2, 1]], 2.5, False),
        ([[1, 2, 3], [3, 2, 1]], -1.0, False),
        ([[1, 2.5, 3], [3, 2, 1]], 2.0, False),  # non-integral deltas
        ([[1, np.inf, 3], [3, 2, 1]], 2.0, False),
    ])
    def test_dtype_choice(self, X, omega, binned):
        X = np.asarray(X, dtype=float)
        got = di.step_bins(X, omega)
        assert (got is not None) == binned
        if binned:
            bins, costs = got
            assert bins.dtype == np.int8 and costs.max() <= 127
            D = X[:, :-1] - X[:, 1:]
            assert np.array_equal(bins + D.min(), D)
        assert same_bits(di.mpbd_upper(X, omega), mpbd_upper_float(X, omega))

    @pytest.mark.parametrize("omega", [1000.0, 2.0**40])
    def test_flat_rows_with_large_omega(self, omega):
        X = np.full((4, 9), 3.0)
        assert not di.mpbd_upper(X, omega).any()
        assert pair_distance("mpbd", X[0], X[1], omega=omega) == 0.0
        X[2, 4] = 5.0
        assert same_bits(di.mpbd_upper(X, omega), mpbd_upper_float(X, omega))

    @settings(max_examples=200, deadline=None)
    @given(level_rows())
    def test_matches_float_kernel(self, case):
        X, omega = case
        peak = np.abs(X[:, :-1] - X[:, 1:]).max()
        binned = float(omega).is_integer() and max(2 * peak, 1) * max(omega, 1) <= 127
        assert (di.step_bins(X, omega) is not None) == binned
        check_matches_float_kernel(X, omega)

    @pytest.mark.parametrize("cap, steps", [(2**24, 39), (126 * 3 + 1, 3), (127, 1)])
    def test_blocks_cut_by_the_float32_bound(self, cap, steps, monkeypatch):
        """Steps costing 126 add up exactly in blocks of as many steps as EXACT_FLOAT32 allows.

        At 2**24 one block holds all 39 steps; patched low, the bound cuts
        them into blocks of 3 and of 1.
        """
        X = np.random.default_rng(12).choice([0.0, 63.0], size=(9, 40))
        width = len(di.step_bins(X, 1.0)[1])
        assert di.step_bins(X, 1.0)[1].max() == 126
        monkeypatch.setattr(di, "EXACT_FLOAT32", cap)
        widths, matmul = [], np.matmul
        monkeypatch.setattr(np, "matmul", lambda E, G, out: widths.append(E.shape[1])
                            or matmul(E, G, out=out))
        upper = di.mpbd_upper(X, 1.0)
        assert widths == [steps * width] * (39 // steps)
        assert same_bits(upper, mpbd_upper_float(X, 1.0))

    def test_same_bits_with_one_and_two_blas_threads(self):
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
        runs = {threads: subprocess.run([sys.executable, "-c", THREADED_SCRIPT],
                                        env={**env, "OPENBLAS_NUM_THREADS": threads}, check=True,
                                        capture_output=True, text=True).stdout.split()
                for threads in ("1", "2")}
        if runs["2"][0] != "2":  # not OpenBLAS, or OpenBLAS held to one core
            pytest.skip(f"numpy's BLAS runs {runs['2'][0]} threads where OpenBLAS is asked for 2")
        assert runs["1"] == ["1", runs["2"][1]]

    def test_peak_memory_of_the_product(self):
        """mpbd_upper at n=1000 x 365 peaks below 1.5 matrices of float64.

        The result is one of them.  The gathered costs of one block of steps
        take n**2 bytes here, an eighth of it, and the one-hot and float32
        product of one block of MIRROR_BLOCK rows much less.
        """
        n = 1000
        X = np.random.default_rng(13).integers(1, 6, size=(n, 365)).astype(float)
        tracemalloc.start()
        try:
            di.mpbd_upper(X)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * 8 * n * n
