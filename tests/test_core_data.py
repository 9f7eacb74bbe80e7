import csv
import datetime as dt
import io
import tracemalloc
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import scalar_reference
from movclust import core_data as cd, sample, tables
from movclust.errors import DataError, DuplicateObservationError

from conftest import DIFFERENTIAL, collection, day, observation_rows, observations, sym, ts


def write(path, text):
    path.write_text(text, encoding="utf-8")
    return path


class TestLoadLongCsv:
    def test_direct_field_mapping(self, tmp_path):
        path = write(
            tmp_path / "in.csv",
            "series_id,date,value,category,store\nP1,2021-01-01,4.50,Snacks,\n",
        )
        obs, rejects = cd.load_long_csv(path)
        assert rejects == []
        assert observation_rows(obs) == [("P1", dt.date(2021, 1, 1), 4.5, "Snacks", None)]

    def test_duplicate_key_is_error(self, tmp_path):
        path = write(
            tmp_path / "in.csv",
            "series_id,date,value\nP1,2021-01-01,1\nP1,2021-01-01,2\n",
        )
        with pytest.raises(DuplicateObservationError):
            cd.load_long_csv(path)

    def test_same_date_different_store_is_not_duplicate(self, tmp_path):
        path = write(
            tmp_path / "in.csv",
            "series_id,date,value,store\nP1,2021-01-01,1,S1\nP1,2021-01-01,2,S2\n",
        )
        obs, _ = cd.load_long_csv(path)
        assert len(obs) == 2

    def test_malformed_value_routed_to_rejects(self, tmp_path):
        path = write(
            tmp_path / "in.csv",
            "series_id,date,value\nP1,2021-01-01,1\nP2,2021-01-01,abc\nP3,2021-01-01,3\n",
        )
        obs, rejects = cd.load_long_csv(path)
        assert len(obs) == 2
        assert len(rejects) == 1
        assert rejects[0].line_number == 3
        assert "value" in rejects[0].reason

    def test_non_finite_value_routed_to_rejects(self, tmp_path):
        path = write(
            tmp_path / "in.csv",
            "series_id,date,value\nP1,2021-01-01,1\nP1,2021-01-02,inf\n"
            "P1,2021-01-03,nan\nP1,2021-01-04,-Infinity\nP1,2021-01-05,3\n",
        )
        obs, rejects = cd.load_long_csv(path)
        assert obs.value.tolist() == [1.0, 3.0]
        assert [(r.line_number, r.reason) for r in rejects] == [
            (3, "non-finite value"), (4, "non-finite value"), (5, "non-finite value"),
        ]

    def test_malformed_date_routed_to_rejects(self, tmp_path):
        path = write(
            tmp_path / "in.csv",
            "series_id,date,value\nP1,not-a-date,1\n",
        )
        obs, rejects = cd.load_long_csv(path)
        assert observation_rows(obs) == []
        assert rejects[0].reason == "unparseable date"

    def test_missing_file(self, tmp_path):
        with pytest.raises(DataError):
            cd.load_long_csv(tmp_path / "nope.csv")

    def test_missing_mapped_column(self, tmp_path):
        path = write(tmp_path / "in.csv", "id,date,value\nP1,2021-01-01,1\n")
        with pytest.raises(DataError, match="series_id"):
            cd.load_long_csv(path)

    @pytest.mark.parametrize("header, column", [
        ("series_id,date,value,value", "value"),
        ("series_id,store,date,value,store", "store"),
        ("series_id,series_id,date,value,category", "series_id"),
    ])
    def test_repeated_mapped_column_is_error(self, tmp_path, header, column):
        row = ",".join(["A", "2021-01-01", "1", "5", "x"][: header.count(",") + 1])
        path = write(tmp_path / "in.csv", f"{header}\n{row}\n")
        with pytest.raises(DataError, match=f"mapped column '{column}' .* repeated in header"):
            cd.load_long_csv(path)

    def test_repeated_column_in_custom_schema_is_error(self, tmp_path):
        path = write(tmp_path / "in.csv", "item,day,price,price\nP1,2021-01-01,2,3\n")
        with pytest.raises(DataError, match="'price' \\(for value\\) repeated"):
            cd.load_long_csv(path, {"series_id": "item", "date": "day", "value": "price"})

    def test_repeated_unmapped_column_is_allowed(self, tmp_path):
        path = write(tmp_path / "in.csv", "series_id,date,value,note,note\nA,2021-01-01,1,x,y\n")
        obs, rejects = cd.load_long_csv(path)
        assert observation_rows(obs) == [("A", day(0), 1.0, None, None)] and not rejects

    def test_custom_schema(self, tmp_path):
        path = write(tmp_path / "in.csv", "item,day,price\nP1,2021-01-01,2\n")
        obs, _ = cd.load_long_csv(
            path, {"series_id": "item", "date": "day", "value": "price"}
        )
        series_id, _, value, _, _ = observation_rows(obs)[0]
        assert series_id == "P1" and value == 2.0


class TestLoadWideCsv:
    def test_basic(self, tmp_path):
        path = write(
            tmp_path / "w.csv",
            "series_id,2021-01-01,2021-01-02,2021-01-03\nP1,1,,3\n",
        )
        obs, rejects = cd.load_wide_csv(path)
        assert rejects == []
        assert [(date.day, value) for _, date, value, _, _ in observation_rows(obs)] == [
            (1, 1.0), (3, 3.0),
        ]

    def test_non_finite_cells_routed_to_rejects(self, tmp_path):
        path = write(
            tmp_path / "w.csv",
            "series_id,2021-01-01,2021-01-02,2021-01-03\nP1,1,inf,3\nP2,NaN,2,2\n",
        )
        obs, rejects = cd.load_wide_csv(path)
        assert [(sid, date.day, value) for sid, date, value, _, _ in observation_rows(obs)] == [
            ("P1", 1, 1.0), ("P1", 3, 3.0), ("P2", 2, 2.0), ("P2", 3, 2.0),
        ]
        assert [(r.line_number, r.reason) for r in rejects] == [
            (2, "non-finite value"), (3, "non-finite value"),
        ]

    def test_duplicate_row(self, tmp_path):
        path = write(tmp_path / "w.csv", "series_id,2021-01-01\nP1,1\nP1,2\n")
        with pytest.raises(DuplicateObservationError):
            cd.load_wide_csv(path)


class TestAssembleSeries:
    def test_full_coverage(self):
        obs = observations(
            (sid, day(t), float(t))
            for sid in ("A", "B")
            for t in range(3)
        )
        col = cd.assemble_series(obs)
        assert len(col) == 2
        assert col.values.shape == (2, 3)
        assert not np.isnan(col.values).any()

    def test_missing_mask(self):
        obs = observations([("A", day(0), 1.0), ("A", day(2), 2.0)])
        col = cd.assemble_series(obs)
        assert np.isnan(col.values[0]).tolist() == [False, True, False]

    def test_sales_mode_store_pairs(self):
        obs = observations([
            ("I1", day(0), 1.0, None, "S1"),
            ("I1", day(0), 2.0, None, "S2"),
        ])
        col = cd.assemble_series(obs, mode="sales")
        assert col.ids == ["I1::S1", "I1::S2"]
        assert col.attrs[0] == ("I1", "S1", None)  # (product, store, category)

    def test_empty_observation_list(self):
        with pytest.raises(DataError):
            cd.assemble_series(observations([]))


class TestDropSparse:
    def test_81_percent_missing_dropped(self):
        values = [1.0] + [None] * 81 + [1.0] * 18  # 81 of 100 missing
        col = collection([ts("A", values)])
        assert cd.drop_sparse(col, 0.8).ids == []

    def test_complete_series_retained(self):
        col = collection([ts("A", [1.0, 2.0])])
        assert cd.drop_sparse(col).ids == ["A"]

    def test_exactly_80_percent_retained(self):
        values = [1.0, 2.0] + [None] * 8  # exactly 80% of 10 missing
        col = collection([ts("A", values)])
        assert cd.drop_sparse(col, 0.8).ids == ["A"]

    def test_idempotent(self):
        col = collection([ts("A", [1.0, None, 3.0]), ts("B", [None, None, 1.0])])
        once = cd.drop_sparse(col, 0.5)
        twice = cd.drop_sparse(once, 0.5)
        assert once.ids == twice.ids

    def test_provenance_records_dropped(self):
        col = collection([ts("A", [None, None, 1.0])])
        out = cd.drop_sparse(col, 0.5)
        assert out.provenance[-1]["dropped_ids"] == ["A"]


def fill_row(series, strategy):
    """The one row of ``cd.fill_collection`` over the one-row collection ``series``."""
    return cd.fill_collection(series, strategy).values[0].tolist()


class TestFill:
    def test_forward_basic(self):
        assert fill_row(ts("A", [5.0, None, None, 7.0]), "forward") == [5, 5, 5, 7]

    def test_forward_head_backfill(self):
        assert fill_row(ts("A", [None, 3.0, None]), "forward") == [3, 3, 3]

    def test_forward_identity_on_complete(self):
        assert fill_row(ts("A", [4.0, 4.0, 4.0]), "forward") == [4, 4, 4]

    def test_mean_basic(self):
        assert fill_row(ts("A", [2.0, None, 4.0]), "mean") == [2, 3, 4]

    def test_mean_single_present(self):
        assert fill_row(ts("A", [None, None, 5.0]), "mean") == [5, 5, 5]

    def test_mean_overflow_is_error(self):
        values = np.array([[1.0, np.nan, 3.0], [1.5e308, np.nan, 1.6e308], [1e308, 1e308, 1e308]])
        col = collection([ts(sid, row) for sid, row in zip("ABC", values)])
        with pytest.raises(DataError, match="^B: mean fill value overflows"):
            cd.fill_collection(col, "mean")
        # forward fill copies finite values; a complete row of huge values is not filled
        assert np.isfinite(cd.fill_collection(col, "forward").values).all()
        assert fill_row(ts("C", values[2]), "mean") == values[2].tolist()

    def test_all_missing_is_error(self):
        for strategy in ("forward", "mean"):
            with pytest.raises(DataError):
                cd.fill_collection(ts("A", [None, None]), strategy)

    def test_nan_cell_is_missing(self):
        col = cd.SeriesCollection(["A"], [[1.0, np.nan, 3.0]])
        assert cd.drop_sparse(col, 0.3).ids == []  # 1 of 3 cells missing
        filled = cd.fill_collection(col, "forward")
        assert filled.values.tolist() == [[1.0, 1.0, 3.0]]
        assert cd.scale_collection(filled).values.tolist() == [[0.1, 0.1, 1.0]]

    @given(
        st.lists(
            st.one_of(st.none(), st.floats(-1e6, 1e6)), min_size=2, max_size=30
        ).filter(lambda v: any(x is not None for x in v))
    )
    def test_fill_never_modifies_present(self, values):
        series = ts("A", values)
        present = ~np.isnan(series.values)
        for strategy in ("forward", "mean"):
            out = cd.fill_collection(series, strategy)
            assert np.array_equal(out.values[present], series.values[present])
            assert not np.isnan(out.values).any()


def scaled_row(values, lo=0.1, hi=1.0):
    return cd.scale_collection(ts("A", values), lo, hi).values[0]


class TestMinmaxScale:
    def test_endpoints_and_midpoint(self):
        assert np.allclose(scaled_row([10.0, 55.0, 100.0]), [0.1, 0.55, 1.0])

    def test_constant_maps_to_lo(self):
        assert scaled_row([7.0, 7.0, 7.0]).tolist() == [0.1, 0.1, 0.1]

    def test_two_points(self):
        assert np.allclose(scaled_row([0.0, 1.0]), [0.1, 1.0])

    def test_exact_bounds_after_scaling(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            out = scaled_row(rng.uniform(-50, 50, size=17))
            assert out.min() == 0.1
            assert out.max() == 1.0

    def test_bad_bounds(self):
        with pytest.raises(DataError):
            scaled_row([1.0, 2.0], lo=1.0, hi=0.5)

    def test_overflowing_range_is_error(self):
        col = collection([ts("A", [1.0, 2.0, 3.0]), ts("B", [1.7e308, -1.7e308, 1.0])])
        with pytest.raises(DataError, match="^B: value range overflows"):
            cd.scale_collection(col)
        # the widest finite range
        assert scaled_row([1.7e308, 0.0, 0.85e308]).tolist() == [1.0, 0.1, 0.55]


def level_row(values, thresholds=cd.DEFAULT_THRESHOLDS):
    return cd.discretize_collection(ts("A", values), thresholds).values[0].tolist()


class TestDiscretize:
    def test_band_boundaries(self):
        assert level_row([0.1, 0.29, 0.47, 0.65, 0.83]) == [1, 2, 3, 4, 5]

    def test_strict_upper_bound_on_a(self):
        assert level_row([0.2899, 0.2899]) == [1, 1]

    def test_top_of_range(self):
        assert level_row([1.0, 1.0]) == [5, 5]

    def test_out_of_range_is_error(self):
        with pytest.raises(DataError, match="run scale_collection first"):
            level_row([1.5, 0.2])

    def test_double_discretize_is_type_error(self):
        out = cd.discretize_collection(ts("A", [0.1, 0.5]))
        with pytest.raises(TypeError):
            cd.discretize_collection(out)

    def test_custom_thresholds(self):
        assert level_row([0.1, 0.6], thresholds=(0.2, 0.4, 0.5, 0.9)) == [1, 4]


class TestFilterOutliers:
    def test_identical_series_keep_all(self):
        col = collection([sym(f"S{i}", [1, 2, 3, 2]) for i in range(3)])
        assert len(cd.filter_outliers(col, percentile=50)) == 3

    def test_far_outlier_removed(self):
        base = [2, 2, 3, 3, 2, 2]
        series = [sym(f"S{i:02d}", [v + (i % 2 == 0) for v in base]) for i in range(10)]
        series.append(sym("OUT", [5, 1, 5, 1, 5, 1]))
        out = cd.filter_outliers(collection(series), percentile=90)
        assert "OUT" not in out.ids
        assert len(out) == 10

    def test_percentile_100_removes_nothing(self):
        col = collection([sym("A", [1, 2, 3]), sym("B", [5, 1, 5])])
        assert len(cd.filter_outliers(col, percentile=100)) == 2

    def test_too_small_collection(self):
        with pytest.raises(DataError):
            cd.filter_outliers(collection([sym("A", [1, 2])]))

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.one_of(st.integers(0, 3).map(float),
                              st.floats(allow_nan=False, allow_infinity=False, width=32)),
                    min_size=2, max_size=40),
           st.one_of(st.sampled_from([95.0, 100.0, 50.0, 0.5, 99.9, 5e-324]),
                     st.floats(0.0, 100.0, exclude_min=True)))
    def test_cutoff_is_np_percentile(self, values, q):
        values = np.array(values)
        cutoff, expected = cd._percentile(values, q), float(np.percentile(values, q))
        assert cutoff == expected
        if expected:  # a tie of 0.0 and -0.0 may put either sign on a zero
            assert float.hex(cutoff) == float.hex(expected)


class TestCollectionInvariants:
    def test_duplicate_ids_rejected(self):
        with pytest.raises(DataError):
            collection([sym("A", [1, 2]), sym("A", [1, 2])])

    def test_mixed_lengths_rejected(self):
        with pytest.raises(DataError):
            cd.SeriesCollection(["A", "B", "C"], np.zeros((2, 2)))

    def test_pipeline_rerun_is_identical(self):
        series = [ts("A", [3.0, None, 9.0, 4.0]), ts("B", [1.0, 5.0, None, 2.0])]

        def run():
            col = collection(series)
            col = cd.drop_sparse(col)
            col = cd.fill_collection(col, "forward")
            col = cd.scale_collection(col)
            return cd.discretize_collection(col)

        a, b = run(), run()
        assert a.values.dtype == np.int64 and np.array_equal(a.values, b.values)
        assert a.provenance == b.provenance


# ---------------------------------------------------------------------------
# The columnar loaders and assembly against the row-by-row loops

# Well-formed cells repeat so that most rows are accepted.
DATE_CELLS = [day(t).isoformat() for t in range(12)] * 3 + [
    f" {day(3).isoformat()} ", day(5).strftime("%Y%m%d"), "2021-13-01", "", "not-a-date",
]
VALUE_CELLS = ["1", "2.5", "-0", " 3 ", "1e308", "1_0", "7"] * 3 + [
    "inf", "nan", "-Infinity", "abc", "",
]
ID_CELLS = ["A", " B", "A::S1", "C"] * 2 + ["", "  "]
CELLS = {
    "series_id": ID_CELLS,
    "date": DATE_CELLS,
    "value": VALUE_CELLS,
    "category": ["Snacks", "Dairy, fresh", ""],
    "store": ["S1", "S2", " S1 ", ""],
}


def _date_key(text):
    try:
        return dt.date.fromisoformat(text.strip())
    except ValueError:
        return text


def _render(header, rows):
    """CSV text; a None row is a blank line."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        if row is None:
            buf.write("\n")
        else:
            writer.writerow(row)
    return buf.getvalue()


def _with_duplicate(draw, rows, value_col=None):
    """rows, or rows plus a copy of one of them (with another value at value_col)."""
    if rows and draw(st.booleans()):
        copy = list(draw(st.sampled_from(rows)))
        if value_col is not None:
            copy[value_col] = "9"
        rows.insert(draw(st.integers(0, len(rows))), copy)
    return rows


@st.composite
def long_csv(draw):
    """(old text, new text, ragged rows by line number): the same CSV except
    that each ragged row is a row of the right width with a bad date in the
    old text, since the row loop could not read ragged rows."""
    columns = ["series_id", "date", "value"]
    columns += [c for c in ("category", "store") if draw(st.booleans())]
    columns = draw(st.permutations(columns))
    store = columns.index("store") if "store" in columns else None

    def key(row):
        sid = row[columns.index("series_id")].strip()
        return sid, row[store].strip() or None if store is not None else None, _date_key(
            row[columns.index("date")]
        )

    row = st.tuples(*(st.sampled_from(CELLS[c]) for c in columns)).map(list)
    rows = draw(st.lists(row, min_size=4, max_size=30, unique_by=key))
    rows = _with_duplicate(draw, rows, columns.index("value"))
    ragged_row = st.lists(st.sampled_from(["A", day(0).isoformat(), "1", ""]), min_size=1,
                          max_size=len(columns) + 2).filter(lambda r: len(r) != len(columns))
    for _ in range(draw(st.integers(0, 2))):
        rows.insert(draw(st.integers(0, len(rows))), ("ragged", draw(ragged_row)))
    for _ in range(draw(st.integers(0, 2))):
        rows.insert(draw(st.integers(0, len(rows))), None)
    old, new, ragged, lineno = [], [], {}, 1
    for row in rows:
        if row is not None:
            lineno += 1
            if row[0] == "ragged":
                ragged[lineno] = row[1]
                old.append(["x"] * len(columns))
                new.append(row[1])
                continue
        old.append(row)
        new.append(row)
    return _render(columns, old), _render(columns, new), ragged


@st.composite
def wide_csv(draw):
    header_date = st.sampled_from(DATE_CELLS[:12] + ["2021-13-01"])
    header = draw(st.lists(header_date, min_size=1, max_size=5))
    width = st.sampled_from([len(header)] * 4 + [len(header) - 1, len(header) + 1])
    cells = width.flatmap(lambda n: st.lists(st.sampled_from(VALUE_CELLS), min_size=n, max_size=n))
    row = st.tuples(st.sampled_from(ID_CELLS), cells).map(lambda r: [r[0], *r[1]])
    rows = _with_duplicate(
        draw, draw(st.lists(row, min_size=2, max_size=8, unique_by=lambda r: r[0].strip()))
    )
    return _render(["series_id", *header], rows)


def _outcome(fn, *args):
    try:
        return fn(*args)
    except DataError as exc:
        return type(exc), str(exc)


def _observed_rows(obs):
    if isinstance(obs, cd.Observations):
        return [(sid, date, value.hex(), category, store)
                for sid, date, value, category, store in observation_rows(obs)]
    return [(o.series_id, o.date, o.value.hex(), o.category, o.store) for o in obs]


def _reject_rows(rejects):
    return [(r.line_number, r.raw_row, r.reason) for r in rejects]


def _summary(collection):
    """Provenance, which names the mode, and each row's bytes and attributes, of either form."""
    if isinstance(collection, cd.SeriesCollection):
        rows = [(sid, values.tobytes(), np.isnan(values).tobytes(), *attrs) for sid, values, attrs
                in zip(collection.ids, collection.values, collection.attrs)]
    elif isinstance(collection, scalar_reference.SeriesList):
        rows = [(s.series_id, s.values.tobytes(), s.missing_mask.tobytes(), s.product, s.store,
                 s.category) for s in collection.series]
    else:
        return collection  # the error
    return collection.provenance, rows


def _assert_same_assembly(old_obs, new_obs, date_range):
    for mode in ("price", "sales"):
        assert _summary(_outcome(cd.assemble_series, new_obs, date_range, mode)) == _summary(
            _outcome(scalar_reference.assemble_series_ref, old_obs, date_range, mode)
        )


date_ranges = st.none() | st.tuples(st.integers(-2, 13), st.integers(-2, 13)).map(
    lambda r: (day(r[0]), day(r[1]))
)


class TestLoadersMatchRowLoop:
    @DIFFERENTIAL
    @given(long_csv(), date_ranges)
    def test_long(self, tmp_path_factory, text, date_range):
        old_text, new_text, ragged = text
        path = tmp_path_factory.mktemp("long") / "in.csv"
        path.write_text(old_text, encoding="utf-8")
        old = _outcome(scalar_reference.load_long_csv_ref, path)
        path.write_text(new_text, encoding="utf-8")
        new = _outcome(cd.load_long_csv, path)
        if not isinstance(old, tuple) or isinstance(old[0], type):
            assert new == old  # the same error
            return
        expected_rejects = [
            (line, ",".join(ragged[line]), "column count mismatch") if line in ragged
            else (line, raw, reason)
            for line, raw, reason in _reject_rows(old[1])
        ]
        assert _reject_rows(new[1]) == expected_rejects
        assert _observed_rows(new[0]) == _observed_rows(old[0])
        assert len(new[0]) == len(old[0])
        _assert_same_assembly(old[0], new[0], date_range)

    @DIFFERENTIAL
    @given(wide_csv(), date_ranges)
    def test_wide(self, tmp_path_factory, text, date_range):
        path = tmp_path_factory.mktemp("wide") / "in.csv"
        path.write_text(text, encoding="utf-8")
        old = _outcome(scalar_reference.load_wide_csv_ref, path)
        new = _outcome(cd.load_wide_csv, path)
        if isinstance(old[0], type):
            assert new == old
            return
        assert _reject_rows(new[1]) == _reject_rows(old[1])
        assert _observed_rows(new[0]) == _observed_rows(old[0])
        _assert_same_assembly(old[0], new[0], date_range)


class TestRaggedLongRows:
    HEADER = "series_id,date,value,category,store\n"

    def test_extra_fields_rejected(self, tmp_path):
        path = write(tmp_path / "in.csv",
                     self.HEADER + "A,2021-01-01,1,Snacks,S1\nA,2021-01-02,2,Snacks,S1,x\n")
        obs, rejects = cd.load_long_csv(path)
        assert len(obs) == 1
        assert _reject_rows(rejects) == [
            (3, "A,2021-01-02,2,Snacks,S1,x", "column count mismatch"),
        ]

    def test_missing_fields_rejected(self, tmp_path):
        path = write(tmp_path / "in.csv",
                     self.HEADER + "A,2021-01-01,1\nA,2021-01-02,2,Snacks,S1\n")
        obs, rejects = cd.load_long_csv(path)
        assert observation_rows(obs) == [("A", dt.date(2021, 1, 2), 2.0, "Snacks", "S1")]
        assert _reject_rows(rejects) == [(2, "A,2021-01-01,1", "column count mismatch")]


# ---------------------------------------------------------------------------
# load_long_csv's columnar path against its row loop

SAMPLE_DATA = Path(__file__).resolve().parents[1] / "sample_data"

PLAIN_CELLS = {
    "series_id": ["A", " A", "A ", "\tB", "b", "A::S1", "x y", "Long_Item_Identifier_0042"],
    "date": [day(t).isoformat() for t in range(6)] + [f" {day(2).isoformat()}",
                                                      day(4).strftime("%Y%m%d")],
    "category": ["Snacks", " Snacks", "Dairy", "", "  "],
    "store": ["S1", " S1", "S2 ", "S2", "", "  "],
    "note": ["x", "", " n "],
}
PLAIN_VALUES = st.sampled_from(["1e5", "-0", "+3", ".5", "5.", " 9 ", "\t7", "0", "1e308"]) | (
    st.floats(allow_nan=False, allow_infinity=False).map(repr))
#: Roles that may read another role's column: (role, the role whose column it reads).
SHARED_ROLES = [("store", "series_id"), ("category", "store"), ("category", "series_id"),
                ("store", "date")]


@st.composite
def plain_long_csv(draw):
    """(text, schema) of a long CSV that the columnar path reads: remapped
    and shared columns, padded keys, interleaved or grouped series, varied
    value texts and at times a duplicate key."""
    kinds = ["series_id", "date", "value"]
    kinds += [k for k in ("category", "store", "note") if draw(st.booleans())]
    kinds = draw(st.permutations(kinds))
    renamed = draw(st.booleans())
    header = [f"col{j}" if renamed else kind for j, kind in enumerate(kinds)]
    schema = {role: header[kinds.index(role)] for role in cd.DEFAULT_SCHEMA if role in kinds}
    for role, other in draw(st.lists(st.sampled_from(SHARED_ROLES), max_size=1)):
        if other in schema:
            schema[role] = schema[other]
    col = {role: header.index(name) for role, name in schema.items()}

    def key(row):
        store = row[col["store"]].strip() or None if "store" in col else None
        return row[col["series_id"]].strip(), store, _date_key(row[col["date"]])

    cell = {kind: st.sampled_from(PLAIN_CELLS[kind]) for kind in PLAIN_CELLS}
    row = st.tuples(*(PLAIN_VALUES if k == "value" else cell[k] for k in kinds)).map(list)
    rows = draw(st.lists(row, min_size=1, max_size=25, unique_by=key))
    if draw(st.booleans()):  # group each series' rows into runs
        rows.sort(key=lambda r: [r[col[k]] for k in ("series_id", "store", "category") if k in col])
    rows = _with_duplicate(draw, rows, kinds.index("value"))
    text = "".join(",".join(r) + "\n" for r in [header, *rows])
    return text, (schema if renamed or len(set(schema.values())) < len(schema) else None)


def _loaded(path, schema=None):
    """load_long_csv's observations, column by column, and rejects; or its error."""
    out = _outcome(cd.load_long_csv, path, schema)
    if isinstance(out[0], type):
        return out
    obs, rejects = out
    return (obs.keys, obs.series.dtype, obs.series.tolist(), obs.day.dtype, obs.day.tolist(),
            obs.value.dtype, [v.hex() for v in obs.value.tolist()], _reject_rows(rejects))


def _row_loop_only():
    return mock.patch.object(cd, "_load_columnar", return_value=None)


def _columnar_only():
    return mock.patch.object(cd, "_load_rows", side_effect=AssertionError("row loop used"))


@pytest.fixture(params=[tables._SCAN_BLOCK, 1, 7, 64], ids=lambda size: f"block{size}")
def scan_block(request):
    """The plain-file scan at its own block size, then at 1, 7 and 64 bytes, whose reads
    stop inside body lines, on blank lines and at the final newline."""
    with mock.patch.object(tables, "_SCAN_BLOCK", request.param):
        yield


class TestColumnarLongCsv:
    # the patched block size holds for every example, so one fixture per test suffices
    @settings(DIFFERENTIAL, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(plain_long_csv())
    @pytest.mark.usefixtures("scan_block")
    def test_matches_row_loop_and_reference(self, tmp_path_factory, case):
        text, schema = case
        path = tmp_path_factory.mktemp("plain") / "in.csv"
        path.write_bytes(text.encode("ascii"))
        with _columnar_only():
            fast = _loaded(path, schema)
        with _row_loop_only():
            assert fast == _loaded(path, schema)
        ref = _outcome(scalar_reference.load_long_csv_ref, path, schema)
        if isinstance(ref[0], type):
            assert fast == ref  # the same error, to the duplicate's line
            return
        with _columnar_only():
            obs, rejects = cd.load_long_csv(path, schema)
        assert _observed_rows(obs) == _observed_rows(ref[0]) and rejects == ref[1] == []

    HEADER = "series_id,date,value,store\n"

    @pytest.mark.parametrize("body", [
        "Ä,2021-01-01,1,S1\n",
        '"A,x",2021-01-01,1,S1\n',
        "A,2021-01-01,1,S1\r\nA,2021-01-02,2,S1\r\n",
        "A\0,2021-01-01,1,S1\nA,2021-01-02,2,S1\n",
        "A,2021-01-01,1,S1\n\nA,2021-01-02,2,S1\n",
        "A,2021-01-01,1,S1\n \nA,2021-01-02,2,S1\n",
        "A,2021-01-01,1,S1,x\nA,2021-01-02,2,S1\n",
        "A,2021-01-01,1,S1,x\nA,2021-01-02,2\n",  # as many commas as two good rows
        "A,2021-01-01,1,S1\nA,2021-01-02,2,S1",
        "",
        "A,2021-01-01,1_0,S1\n",
        "A,2021-01-01,1,S1\nA,2021-01-02,inf,S1\n",
        "A,2021-13-01,1,S1\nA,2021-01-02,2,S1\n",
        " ,2021-01-01,1,S1\nA,2021-01-02,2,S1\n",
        "A,2021-01-01,\x1f5,S1\n",  # numpy's float parser strips 0x1f, float() does not
    ], ids=["non_ascii_id", "quoted_field", "crlf", "nul_in_id", "blank_line",
            "whitespace_line", "ragged_row", "ragged_pair", "no_final_newline", "header_only", "underscore",
            "inf", "bad_date", "empty_id", "unit_separator"])
    @pytest.mark.usefixtures("scan_block")
    def test_fallback(self, tmp_path, body):
        path = tmp_path / "in.csv"
        path.write_bytes((self.HEADER + body).encode("utf-8"))
        with mock.patch.object(cd, "_load_rows", wraps=cd._load_rows) as rows:
            got = _loaded(path)
        assert rows.call_count == 1
        with _row_loop_only():
            assert got == _loaded(path)

    def test_field_over_the_csv_limit_falls_back(self, tmp_path):
        path = write(tmp_path / "in.csv", self.HEADER + "A" * (csv.field_size_limit() + 1)
                     + ",2021-01-01,1,S1\n")
        with mock.patch.object(cd, "_load_rows", wraps=cd._load_rows) as rows:
            with pytest.raises(DataError, match="line 2: field larger than field limit"):
                cd.load_long_csv(path)
        assert rows.call_count == 1

    @pytest.mark.usefixtures("scan_block")
    def test_interleaved_stores_and_duplicate_line(self, tmp_path):
        path = write(tmp_path / "in.csv", self.HEADER + "A,2021-01-01,1,S1\nA,2021-01-01,2,S2\n"
                     " A ,2021-01-02,3,S1\nA,2021-01-02,4, S2\n")
        with _columnar_only():
            obs, rejects = cd.load_long_csv(path)
        assert obs.keys == [("A", "S1", None), ("A", "S2", None)] and not rejects
        assert obs.series.tolist() == [0, 1, 0, 1]
        write(path, path.read_text() + "A,2021-01-02,5,S1\n")
        with _columnar_only(), pytest.raises(DuplicateObservationError, match="^line 6: "):
            cd.load_long_csv(path)

    @pytest.mark.parametrize("name", ["price_long.csv", "sales_long.csv"])
    @pytest.mark.usefixtures("scan_block")
    def test_samples_take_the_columnar_path(self, sample_dir, name):
        for path in (SAMPLE_DATA / name, sample_dir / name):
            with _row_loop_only():
                expected = _loaded(path)
            with _columnar_only():
                assert _loaded(path) == expected

    @pytest.mark.parametrize("dates", [
        ["2021-01-05", "2021-01-05", "2021-12-31", "2020-02-29"],
        ["1000-01-01", "2999-12-31", "1999-06-15", "2000-10-28", "1000-01-01"],
    ], ids=["mixed_radix", "sorted_texts"])
    @pytest.mark.usefixtures("scan_block")
    def test_each_distinct_date_is_decoded_once(self, tmp_path, dates):
        """Dates over a thousand years take more codes than rows and 2**16: a sort numbers them."""
        path = write(tmp_path / "in.csv", self.HEADER + "".join(
            f"{sid},{date},1,S1\n" for sid, date in zip("ABCDE", dates)))
        with mock.patch.object(cd, "_ordinal", wraps=cd._ordinal) as decode:
            got = _loaded(path)
        assert decode.call_count == len(set(dates))
        with _row_loop_only():
            assert got == _loaded(path)

    def test_peak_memory_is_bounded_by_the_file_size(self, tmp_path):
        path = tmp_path / "in.csv"
        sample.write_long_csv(sample.make_sales_rows(seed=3, n_items=50, n_stores=4, n_days=365),
                              path)
        tracemalloc.start()
        try:
            with _columnar_only():
                cd.load_long_csv(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # numpy's arrays count here: the parsed table alone is about 1.2x the file
        assert peak <= 3.5 * path.stat().st_size


# ---------------------------------------------------------------------------
# The whole-matrix preprocessing against the series-by-series steps


@st.composite
def gapped_series(draw):
    """One-row collections of one length with random gaps, constant and all-missing rows."""
    n = draw(st.integers(1, 8))
    length = draw(st.sampled_from([1, 2, 8, 9, 129]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    # a few distinct values tie the extremes; normal draws use the whole mantissa
    draws = rng.integers(0, 3, size=(n, length)) if draw(st.booleans()) else rng.normal(
        size=(n, length))
    values = draws * 10.0 ** draw(st.integers(-3, 6)) + draw(st.sampled_from([0.0, 1.0, -250.5]))
    missing = rng.random((n, length)) < draw(st.sampled_from([0.0, 0.1, 0.3, 0.7]))
    for i in draw(st.sets(st.integers(0, n - 1), max_size=n)):
        values[i] = values[i, 0]  # constant row
    if draw(st.booleans()):
        missing[draw(st.integers(0, n - 1))] = True  # all-missing row
    values[missing] = np.nan
    attrs = st.sampled_from([None, "x", "y"])
    return [ts(f"s{i}", values[i], category=draw(attrs), store=draw(attrs),
               product=f"p{i % 3}") for i in range(n)]


def _stage(collection):
    """Provenance, then every row's id, value bytes and attributes."""
    if isinstance(collection, cd.SeriesCollection):
        return collection.provenance, [
            (sid, values.tobytes(), *attrs)
            for sid, values, attrs in zip(collection.ids, collection.values, collection.attrs)
        ]
    if not isinstance(collection, scalar_reference.SeriesList):
        return collection  # the error
    return collection.provenance, [
        (s.series_id, s.values.tobytes(), s.product, s.store, s.category)
        for s in collection.series
    ]


def _row_outcome(step, series):
    """The one row that ``step`` makes of the one-row collection ``series``, or its error."""
    try:
        out = step(series)
    except DataError as exc:
        return type(exc), str(exc)
    return out.values.dtype, out.values[0].tobytes()


def _ref_outcome(step_ref, record):
    """What the series loop's ``step_ref`` makes of ``record``, in ``_row_outcome``'s terms."""
    try:
        out = step_ref(record)
    except DataError as exc:
        return type(exc), str(exc)
    values = out.levels if isinstance(out, scalar_reference.SymbolicSeries) else out.values
    return values.dtype, values.tobytes()


SCALES = [(0.1, 1.0), (0.0, 1.0), (0.25, 0.75)]


class TestPreprocessingMatchesSeriesLoop:
    @DIFFERENTIAL
    @given(gapped_series(), st.sampled_from(SCALES))
    def test_one_series_functions(self, series, bounds):
        ref = scalar_reference
        scale = lambda c: cd.scale_collection(c, *bounds)
        scale_ref = lambda s: ref.minmax_scale_ref(s, *bounds)
        for s in series:
            [record] = ref.records(s)
            for step, step_ref in ((cd.scale_collection, ref.minmax_scale_ref),
                                   (cd.discretize_collection, ref.discretize_ref)):
                assert _row_outcome(step, s) == _ref_outcome(step_ref, record)  # NaN in gaps
            for strategy, fill_ref in (("forward", ref.fill_forward_ref),
                                       ("mean", ref.fill_mean_ref)):
                outcome = _row_outcome(lambda c: cd.fill_collection(c, strategy), s)
                assert outcome == _ref_outcome(fill_ref, record)
                if isinstance(outcome[0], type):
                    continue
                filled = fill_ref(record)
                filled_row = ts(s.ids[0], filled.values)
                assert _row_outcome(scale, filled_row) == _ref_outcome(scale_ref, filled)
                scaled = scale_ref(filled)
                scaled_row = ts(s.ids[0], scaled.values)
                assert _row_outcome(cd.discretize_collection, scaled_row) == _ref_outcome(
                    ref.discretize_ref, scaled)

    @DIFFERENTIAL
    @given(gapped_series(), st.sampled_from([0.0, 0.5, 0.8, 1.0]),
           st.sampled_from(["forward", "mean"]), st.sampled_from(SCALES), st.data())
    def test_collection_steps(self, series, max_missing, strategy, bounds, data):
        ref = scalar_reference
        length = series[0].values.shape[1]
        metric = data.draw(st.sampled_from(["mpbd"] + ["levenshtein", "dtw"] * (length <= 9)))
        omega = data.draw(st.sampled_from([2.0, 0.3]))
        percentile = data.draw(st.sampled_from([50.0, 90.0, 95.0, 100.0]))
        steps = [
            (lambda c: cd.drop_sparse(c, max_missing),
             lambda c: ref.drop_sparse_ref(c, max_missing)),
            (lambda c: cd.fill_collection(c, strategy),
             lambda c: ref.fill_collection_ref(c, strategy)),
            (lambda c: cd.scale_collection(c, *bounds),
             lambda c: ref.scale_collection_ref(c, *bounds)),
            (cd.discretize_collection, ref.discretize_collection_ref),
            (lambda c: cd.filter_outliers(c, metric, percentile, omega),
             lambda c: ref.filter_outliers_ref(c, metric, percentile, omega)),
        ]
        new = collection(series)
        old = ref.SeriesList(ref.records(new))
        for number, (step, step_ref) in enumerate(steps):
            new, old = _outcome(step, new), _outcome(step_ref, old)
            if number == 0 and not isinstance(old, tuple):  # before the fill
                assert np.isnan(new.values).tolist() == [s.missing_mask.tolist()
                                                         for s in old.series]
            if number < 3:
                assert _stage(new) == _stage(old), number
            elif isinstance(old, tuple):
                assert new == old, number  # the same error
            else:  # levels: the reference's symbolic series carry no mask
                assert new.values.dtype == np.int64
                assert new.provenance == old.provenance
                assert new.ids == old.ids
                assert new.values.tobytes() == b"".join(s.levels.tobytes() for s in old.series)
                assert new.attrs == [(s.product, s.store, s.category) for s in old.series]
            if isinstance(old, tuple):
                return

    def test_all_missing_row_names_the_first(self):
        col = collection([ts("A", [1.0, 2.0]), ts("B", [None, None]), ts("C", [None, None])])
        for strategy in ("forward", "mean"):
            with pytest.raises(DataError, match="^B: cannot fill an all-missing series$"):
                cd.fill_collection(col, strategy)

    def test_first_failing_row_wins_across_checks(self):
        # row A is out of range, row B incomplete: a row loop meets A first
        col = collection([ts("A", [0.5, 1.5]), ts("B", [0.5, None])])
        with pytest.raises(DataError, match="^A: values outside"):
            cd.discretize_collection(col)
        col = collection([ts("A", [0.5, None]), ts("B", [0.5, 1.5])])
        with pytest.raises(DataError, match="^A: discretize requires a complete series$"):
            cd.discretize_collection(col)

    def test_discretize_collection_twice_is_type_error(self):
        levels = cd.discretize_collection(collection([ts("A", [0.1, 0.5])]))
        with pytest.raises(TypeError):
            cd.discretize_collection(levels)
