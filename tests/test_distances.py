import functools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from movclust import distances as di
from movclust.core_data import SeriesCollection
from movclust.errors import DataError

from conftest import collection, sym, ts
from scalar_reference import (
    delta_rows_float, dtw_ref, levenshtein_dp_ref, levenshtein_matrix_dp_ref, levenshtein_ref,
    matrix_ref, mpbd_ref, mpbd_row_float, mpbd_upper_float,
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


class TestEuclidean:
    def test_identity(self):
        assert di.euclidean([1.0, 2.0], [1.0, 2.0]) == 0.0

    def test_3_4_5(self):
        assert di.euclidean([0, 0], [3, 4]) == 5.0

    def test_hand_value(self):
        got = di.euclidean([0.1, 0.1, 0.1], [1, 1, 1])
        assert got == pytest.approx(0.9 * math.sqrt(3), rel=1e-12)

    def test_matches_naive_summation(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            p = rng.normal(size=13)
            q = rng.normal(size=13)
            naive = math.sqrt(sum((b - a) ** 2 for a, b in zip(p, q)))
            assert di.euclidean(p, q) == pytest.approx(naive, rel=1e-9)

    def test_length_mismatch(self):
        with pytest.raises(DataError):
            di.euclidean([1.0], [1.0, 2.0])


class TestLevenshtein:
    def test_identical(self):
        assert di.levenshtein("ABBA", "ABBA") == 0

    def test_abbb_cdbb(self):
        assert di.levenshtein("ABBB", "CDBB") == 2

    def test_base_case_empty(self):
        assert di.levenshtein("A", "") == 1
        assert di.levenshtein("", "ABC") == 3

    def test_integer_levels(self):
        assert di.levenshtein([1, 2, 2], [1, 3, 2]) == 1

    @given(
        st.text(alphabet="ABCDE", max_size=6), st.text(alphabet="ABCDE", max_size=6)
    )
    def test_matches_exhaustive_recursion(self, p, q):
        assert di.levenshtein(p, q) == levenshtein_oracle(p, q)

    @given(
        st.text(alphabet="ABC", max_size=5),
        st.text(alphabet="ABC", max_size=5),
        st.text(alphabet="ABC", max_size=5),
    )
    def test_triangle_inequality(self, a, b, c):
        assert di.levenshtein(a, c) <= di.levenshtein(a, b) + di.levenshtein(b, c)

    def test_normalized_scenarios(self):
        a = [2] * 10
        b = [2] * 3 + [4] * 3 + [2] * 4
        assert di.normalized_levenshtein(a, b) == pytest.approx(0.30)
        assert di.normalized_levenshtein([1] * 10, [2] * 10) == 1.0
        assert di.normalized_levenshtein(a, a) == 0.0

    def test_normalized_reads_each_input_once(self):
        assert di.normalized_levenshtein(iter("AB"), iter("AC")) == 0.5
        assert di.normalized_levenshtein((c for c in "ABBA"), iter("")) == 1.0
        assert di.normalized_levenshtein(iter([1, 2, 2]), iter([1, 3, 2])) == pytest.approx(1 / 3)


class TestDtw:
    def test_identity(self):
        assert di.dtw([1, 2, 3], [1, 2, 3]) == 0.0

    def test_time_shift_absorbed(self):
        assert di.dtw([1, 2, 3], [1, 1, 2, 3]) == 0.0

    def test_forced_diagonal(self):
        assert di.dtw([0, 0], [1, 1], window=0) == pytest.approx(math.sqrt(2))

    def test_empty_sequence(self):
        with pytest.raises(DataError, match="empty"):
            di.dtw([], [1.0])

    def test_window_too_small(self):
        with pytest.raises(DataError):
            di.dtw([1, 2, 3, 4], [1], window=1)

    def test_matches_path_enumeration(self):
        rng = np.random.default_rng(1)
        for _ in range(30):
            p = rng.integers(0, 4, size=rng.integers(2, 6)).astype(float)
            q = rng.integers(0, 4, size=rng.integers(2, 6)).astype(float)
            assert di.dtw(p, q) == pytest.approx(dtw_oracle(p, q), abs=1e-12)

    def test_window_matches_full_when_wide(self):
        rng = np.random.default_rng(2)
        p = rng.normal(size=8)
        q = rng.normal(size=8)
        assert di.dtw(p, q, window=8) == pytest.approx(di.dtw(p, q))

    def test_at_most_euclidean_on_equal_lengths(self):
        rng = np.random.default_rng(3)
        for _ in range(100):
            p = rng.normal(size=12)
            q = rng.normal(size=12)
            assert di.dtw(p, q) <= di.euclidean(p, q) + 1e-12


class TestMpbd:
    def test_shifted_copy_is_zero(self):
        p = [2, 3, 3, 2, 4]
        q = [v + 2 for v in p]
        assert di.mpbd(p, q) == 0.0

    def test_scenario2_raw_value(self):
        p = [2, 2, 2, 1, 1, 1, 2, 2, 2, 2]
        q = [4, 4, 4, 2, 2, 2, 4, 4, 4, 4]
        assert di.mpbd(p, q) == 2.0

    def test_opposite_unit_step_cost(self):
        # d_p = +1 vs d_q = -1 with omega 2 costs 4
        assert di.mpbd([2, 1], [1, 2], omega=2.0) == 4.0

    def test_flat_vs_move_is_weighted(self):
        # sign(0) differs from sign(1): weighted branch
        assert di.mpbd([1, 1], [2, 1], omega=2.0) == 2.0

    def test_matches_rule_oracle(self):
        rng = np.random.default_rng(4)
        for _ in range(100):
            p = rng.integers(1, 6, size=9).astype(float)
            q = rng.integers(1, 6, size=9).astype(float)
            assert di.mpbd(p, q) == pytest.approx(mpbd_oracle(p, q), abs=1e-12)

    def test_shift_invariance(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            p = rng.normal(size=7)
            q = rng.normal(size=7)
            c = float(rng.normal()) * 10
            assert di.mpbd(p + c, q) == pytest.approx(di.mpbd(p, q), rel=1e-9)

    def test_zero_law(self):
        rng = np.random.default_rng(6)
        for _ in range(50):
            p = rng.integers(1, 6, size=8).astype(float)
            q = rng.integers(1, 6, size=8).astype(float)
            zero = di.mpbd(p, q) == 0.0
            constant_gap = len(set(np.round(p - q, 12))) == 1
            assert zero == constant_gap

    def test_triangle_inequality_fails(self):
        eps = 0.01
        p = [2.0, 1.0]          # delta +1
        q = [1.0, 2.0]          # delta -1
        m = [1.0 + eps, 1.0]    # delta +eps
        direct = di.mpbd(p, q)
        via = di.mpbd(p, m) + di.mpbd(m, q)
        assert direct == 4.0
        assert via == pytest.approx((1 - eps) + 2 * (1 + eps))
        assert direct > via  # not a metric

    def test_errors(self):
        with pytest.raises(DataError):
            di.mpbd([1, 2], [1, 2, 3])
        with pytest.raises(DataError):
            di.mpbd([1], [2])


@settings(max_examples=200)
@given(
    st.lists(st.integers(1, 5), min_size=2, max_size=10),
    st.lists(st.integers(1, 5), min_size=2, max_size=10),
)
def test_metric_axioms_all_metrics(p, q):
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    for name, fn in [
        ("euclidean", di.euclidean),
        ("levenshtein", di.levenshtein),
        ("dtw", di.dtw),
        ("mpbd", di.mpbd),
    ]:
        if name in ("euclidean", "mpbd") and len(p) != len(q):
            continue
        assert fn(p, q) >= 0
        assert fn(p, q) == fn(q, p)
        assert fn(p, p) == 0


class TestDistanceMatrix:
    def test_two_identical_series(self):
        col = collection([sym("A", [1, 2, 3]), sym("B", [1, 2, 3])])
        matrix = di.distance_matrix(col, "mpbd")
        assert matrix.entries.tolist() == [[0, 0], [0, 0]]

    def test_entries_match_scalar_metric(self):
        col = collection([sym("A", [1, 2, 3]), sym("B", [3, 2, 1]), sym("C", [1, 1, 5])])
        for metric, fn in [
            ("mpbd", di.mpbd),
            ("euclidean", di.euclidean),
            ("levenshtein", lambda a, b: float(di.levenshtein(a, b))),
            ("dtw", di.dtw),
        ]:
            matrix = di.distance_matrix(col, metric)
            matrix.validate()
            seqs = col.values
            for i in range(3):
                for j in range(3):
                    assert matrix.entries[i, j] == pytest.approx(
                        fn(seqs[i], seqs[j]), abs=1e-12
                    )

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
        for pair_block, row_block, bit_block, mirror_block in (
            (1, 11, 1, 1), (7, 50, 56, 7), (128, 1 << 15, 1 << 18, 64),
            (1000, 1 << 20, 1 << 22, 1000),
        ):
            monkeypatch.setattr(di, "PAIR_BLOCK", pair_block)
            monkeypatch.setattr(di, "ROW_BLOCK", row_block)
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
series = st.lists(values, min_size=1, max_size=9)


def window_for(kind, n, m):
    return {"none": None, "zero": 0, "diff": abs(n - m),
            "diff+1": abs(n - m) + 1, "wide": n + m + 3}[kind]


class TestBatchedMatchesScalar:
    @settings(max_examples=300)
    @given(series, series, st.sampled_from(["none", "zero", "diff", "diff+1", "wide"]))
    def test_dtw_pair(self, p, q, kind):
        window = window_for(kind, len(p), len(q))
        if window is not None and window < abs(len(p) - len(q)):
            with pytest.raises(DataError, match="window"):
                di.dtw(p, q, window=window)
        else:
            assert same_bits(di.dtw(p, q, window=window), dtw_ref(p, q, window=window))

    @settings(max_examples=300)
    @given(
        st.one_of(
            st.tuples(st.text(alphabet="ABCDE", max_size=9), st.text(alphabet="ABCDE", max_size=9)),
            st.tuples(st.lists(st.integers(1, 5), max_size=9), st.lists(st.integers(1, 5), max_size=9)),
        )
    )
    def test_levenshtein_pair(self, pq):
        p, q = pq
        got = di.levenshtein(p, q)
        assert type(got) is int
        assert got == levenshtein_ref(p, q)

    @settings(max_examples=300)
    @given(
        st.integers(2, 12).flatmap(lambda n: st.tuples(
            st.lists(values, min_size=n, max_size=n), st.lists(values, min_size=n, max_size=n))),
        st.sampled_from([2.0, 3.0, 0.5]),
    )
    def test_mpbd_pair(self, pq, omega):
        p, q = pq
        assert same_bits(di.mpbd(p, q, omega=omega), mpbd_ref(p, q, omega=omega))

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
        window = window_for(kind, length, length)
        cases = [
            ("mpbd", symbolic, levels, {"omega": 3.0}, lambda a, b: mpbd_ref(a, b, omega=3.0)),
            ("mpbd", numeric, reals, {}, mpbd_ref),
            ("levenshtein", symbolic, levels, {}, lambda a, b: float(levenshtein_ref(a, b))),
            ("dtw", numeric, reals, {"window": window}, lambda a, b: dtw_ref(a, b, window)),
            ("dtw", symbolic, levels, {"window": window}, lambda a, b: dtw_ref(a, b, window)),
            ("euclidean", numeric, reals, {}, di.euclidean),
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
        # rows longer than one MPBD block, and long enough for numpy's
        # pairwise summation to recurse
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
    lengths = st.one_of(st.sampled_from([0] + WORD_EDGES), st.integers(0, 200))
    p, q = (draw(item_sequence(ITEMS[kind], draw(lengths))) for _ in range(2))
    if kind == "text" and draw(st.booleans()):
        return "".join(p), "".join(q)
    return p, q


def dp_distance(p, q):
    """The edit distance of the anti-diagonal DP, on shared integer codes."""
    codes = {}
    P, Q = (np.array([codes.setdefault(item, len(codes)) for item in seq], dtype=float)
            for seq in (p, q))
    return levenshtein_dp_ref(P[:, None], Q[:, None])[0]


class TestBitParallelLevenshtein:
    @settings(max_examples=200, deadline=None)
    @given(sequence_pairs())
    def test_pair_matches_dp_and_loop(self, pq):
        p, q = pq
        got = di.levenshtein(p, q)
        assert type(got) is int
        assert got == dp_distance(p, q) == levenshtein_ref(p, q)
        assert di.levenshtein(q, p) == got

    @pytest.mark.parametrize("p, q, expected", [
        ("", "", 0), ([], [], 0), ("", [], 0), ("abc", "", 3), ([], [1, 2], 2),
        ([1.0, 2.0, 3.0], [1, 2, 3], 0), ([1.5, 2], [1, 2.0], 1), ([True, 0], [1, 0.0], 0),
        ("a" * 64, "a" * 65, 1), ("a" * 129, "b" * 64, 129), ("ab" * 100, "ba" * 100, 2),
    ])
    def test_pair_cases(self, p, q, expected):
        assert di.levenshtein(p, q) == expected == levenshtein_ref(p, q)

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
# the integer MPBD kernel against the float64 one, bit for bit

#: omega values on both sides of the int8 bound for levels 1..5 (top = 8 x
#: omega: 15 -> 120, 16 -> 128) and for unit deltas (63 -> 126, 64 -> 128),
#: plus two non-integral ones that keep the float64 kernel.
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
    assert float.hex(di.mpbd(X[0], X[1], omega=omega)) == float.hex(pair)


class TestIntegerKernel:
    @pytest.mark.parametrize("X, omega, dtype", [
        # int8 when top = max(2 max|D|, 1) x max(omega, 1) is at most 127
        ([[3, 3, 3], [3, 3, 3]], 127.0, np.int8),  # flat rows: top = omega
        ([[3, 3, 3], [3, 3, 3]], 128.0, np.float64),
        ([[1, 5, 1], [3, 3, 3]], 15.0, np.int8),  # 2 x 4 x 15 = 120
        ([[1, 5, 1], [3, 3, 3]], 16.0, np.float64),  # 2 x 4 x 16 = 128
        ([[1, 2, 1], [2, 2, 2]], 63.0, np.int8),
        ([[1, 2, 1], [2, 2, 2]], 64.0, np.float64),
        ([[1, 2, 1], [2, 2, 2]], 0.0, np.int8),
        ([[1, 64, 1], [2, 2, 2]], 1.0, np.int8),  # 2 x 63 = 126
        ([[1, 65, 1], [2, 2, 2]], 1.0, np.float64),  # 2 x 64 = 128
        ([[1, 3000, 1], [2, 2, 2]], 3.0, np.float64),  # wide integral levels
        ([[3, 3, 3], [3, 3, 3]], 1000.0, np.float64),
        ([[3, 3, 3], [3, 3, 3]], 2.0**40, np.float64),
        ([[1, 2, 3], [3, 2, 1]], 0.3, np.float64),
        ([[1, 2, 3], [3, 2, 1]], 2.5, np.float64),
        ([[1, 2, 3], [3, 2, 1]], -1.0, np.float64),
        ([[1, 2.5, 3], [3, 2, 1]], 2.0, np.float64),  # non-integral deltas
        ([[1, np.inf, 3], [3, 2, 1]], 2.0, np.float64),
    ])
    def test_dtype_choice(self, X, omega, dtype):
        X = np.asarray(X, dtype=float)
        D, S, w = di.delta_rows(X, omega)
        assert D.dtype == S.dtype == dtype
        if dtype is np.float64:
            assert w is omega
        else:
            assert type(w) is dtype and w == omega
        assert np.array_equal(D, X[:, :-1] - X[:, 1:])

    @pytest.mark.parametrize("omega", [1000.0, 2.0**40])
    def test_flat_rows_with_large_omega(self, omega):
        X = np.full((4, 9), 3.0)
        assert not di.mpbd_upper(X, omega).any()
        assert di.mpbd(X[0], X[1], omega=omega) == 0.0
        X[2, 4] = 5.0
        assert same_bits(di.mpbd_upper(X, omega), mpbd_upper_float(X, omega))

    @settings(max_examples=200, deadline=None)
    @given(level_rows())
    def test_matches_float_kernel(self, case):
        X, omega = case
        D, _, _ = di.delta_rows(X, omega)
        peak = np.abs(X[:, :-1] - X[:, 1:]).max()
        int8 = float(omega).is_integer() and max(2 * peak, 1) * max(omega, 1) <= 127
        assert (D.dtype == np.int8) == int8
        check_matches_float_kernel(X, omega)

    @pytest.mark.parametrize("omega", [0.0, 2.0, 15.0])
    def test_int64_sums_past_int32_steps(self, omega, monkeypatch):
        # rows past _INT32_STEPS steps sum in int64; shorten the bound to reach it
        monkeypatch.setattr(di, "_INT32_STEPS", 4)
        X = np.random.default_rng(11).integers(1, 6, size=(6, 9)).astype(float)
        check_matches_float_kernel(X, omega)
