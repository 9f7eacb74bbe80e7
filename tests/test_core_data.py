import csv
import datetime as dt
import io

import numpy as np
import pytest
from hypothesis import given, strategies as st

import scalar_reference
from movclust import core_data as cd
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
        for s in col.series:
            assert len(s) == 3
            assert not s.missing_mask.any()

    def test_missing_mask(self):
        obs = observations([("A", day(0), 1.0), ("A", day(2), 2.0)])
        col = cd.assemble_series(obs)
        assert col.series[0].missing_mask.tolist() == [False, True, False]

    def test_sales_mode_store_pairs(self):
        obs = observations([
            ("I1", day(0), 1.0, None, "S1"),
            ("I1", day(0), 2.0, None, "S2"),
        ])
        col = cd.assemble_series(obs, mode="sales")
        assert col.ids == ["I1::S1", "I1::S2"]
        assert col.series[0].product == "I1"

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


class TestFill:
    def test_forward_basic(self):
        out = cd.fill_forward(ts("A", [5.0, None, None, 7.0]))
        assert out.values.tolist() == [5, 5, 5, 7]

    def test_forward_head_backfill(self):
        out = cd.fill_forward(ts("A", [None, 3.0, None]))
        assert out.values.tolist() == [3, 3, 3]

    def test_forward_identity_on_complete(self):
        out = cd.fill_forward(ts("A", [4.0, 4.0, 4.0]))
        assert out.values.tolist() == [4, 4, 4]

    def test_mean_basic(self):
        out = cd.fill_mean(ts("A", [2.0, None, 4.0]))
        assert out.values.tolist() == [2, 3, 4]

    def test_mean_single_present(self):
        out = cd.fill_mean(ts("A", [None, None, 5.0]))
        assert out.values.tolist() == [5, 5, 5]

    def test_all_missing_is_error(self):
        for fill in (cd.fill_forward, cd.fill_mean):
            with pytest.raises(DataError):
                fill(ts("A", [None, None]))

    @given(
        st.lists(
            st.one_of(st.none(), st.floats(-1e6, 1e6)), min_size=2, max_size=30
        ).filter(lambda v: any(x is not None for x in v))
    )
    def test_fill_never_modifies_present(self, values):
        series = ts("A", values)
        present = ~series.missing_mask
        for fill in (cd.fill_forward, cd.fill_mean):
            out = fill(series)
            assert np.array_equal(out.values[present], series.values[present])
            assert not np.isnan(out.values).any()


class TestMinmaxScale:
    def test_endpoints_and_midpoint(self):
        out = cd.minmax_scale(ts("A", [10.0, 55.0, 100.0]))
        assert np.allclose(out.values, [0.1, 0.55, 1.0])

    def test_constant_maps_to_lo(self):
        out = cd.minmax_scale(ts("A", [7.0, 7.0, 7.0]))
        assert out.values.tolist() == [0.1, 0.1, 0.1]

    def test_two_points(self):
        out = cd.minmax_scale(ts("A", [0.0, 1.0]))
        assert np.allclose(out.values, [0.1, 1.0])

    def test_exact_bounds_after_scaling(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            values = rng.uniform(-50, 50, size=17)
            out = cd.minmax_scale(ts("A", values))
            assert out.values.min() == 0.1
            assert out.values.max() == 1.0

    def test_bad_bounds(self):
        with pytest.raises(DataError):
            cd.minmax_scale(ts("A", [1.0, 2.0]), lo=1.0, hi=0.5)


class TestDiscretize:
    def test_band_boundaries(self):
        out = cd.discretize(ts("A", [0.1, 0.29, 0.47, 0.65, 0.83]))
        assert out.levels.tolist() == [1, 2, 3, 4, 5]
        assert out.symbols() == "ABCDE"

    def test_strict_upper_bound_on_a(self):
        assert cd.discretize(ts("A", [0.2899, 0.2899])).levels.tolist() == [1, 1]

    def test_top_of_range(self):
        assert cd.discretize(ts("A", [1.0, 1.0])).levels.tolist() == [5, 5]

    def test_out_of_range_is_error(self):
        with pytest.raises(DataError, match="minmax_scale"):
            cd.discretize(ts("A", [1.5, 0.2]))

    def test_double_discretize_is_type_error(self):
        out = cd.discretize(ts("A", [0.1, 0.5]))
        with pytest.raises(TypeError):
            cd.discretize(out)

    def test_custom_thresholds(self):
        out = cd.discretize(ts("A", [0.1, 0.6]), thresholds=(0.2, 0.4, 0.5, 0.9))
        assert out.levels.tolist() == [1, 4]


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


class TestCollectionInvariants:
    def test_duplicate_ids_rejected(self):
        with pytest.raises(DataError):
            collection([sym("A", [1, 2]), sym("A", [1, 2])])

    def test_mixed_lengths_rejected(self):
        with pytest.raises(DataError):
            collection([sym("A", [1, 2]), sym("B", [1, 2, 3])])

    def test_pipeline_rerun_is_identical(self):
        series = [ts("A", [3.0, None, 9.0, 4.0]), ts("B", [1.0, 5.0, None, 2.0])]

        def run():
            col = collection(series)
            col = cd.drop_sparse(col)
            col = cd.fill_collection(col, "forward")
            col = cd.scale_collection(col)
            return cd.discretize_collection(col)

        a, b = run(), run()
        for s1, s2 in zip(a.series, b.series):
            assert np.array_equal(s1.levels, s2.levels)
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
    if not isinstance(collection, cd.SeriesCollection):
        return collection  # the error
    return (
        collection.mode,
        collection.provenance,
        [(s.series_id, s.values.tobytes(), s.missing_mask.tobytes(), s.category, s.store,
          s.product) for s in collection.series],
    )


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
