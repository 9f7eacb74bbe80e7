import datetime as dt

import numpy as np
import pytest
from hypothesis import given, strategies as st

from movclust import core_data as cd
from movclust.errors import DataError, DuplicateObservationError

from conftest import collection, day, sym, ts


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
        assert obs == [cd.RawObservation("P1", dt.date(2021, 1, 1), 4.5, "Snacks", None)]

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
        assert [o.value for o in obs] == [1.0, 3.0]
        assert [(r.line_number, r.reason) for r in rejects] == [
            (3, "non-finite value"), (4, "non-finite value"), (5, "non-finite value"),
        ]

    def test_malformed_date_routed_to_rejects(self, tmp_path):
        path = write(
            tmp_path / "in.csv",
            "series_id,date,value\nP1,not-a-date,1\n",
        )
        obs, rejects = cd.load_long_csv(path)
        assert obs == []
        assert rejects[0].reason == "unparseable date"

    def test_missing_file(self, tmp_path):
        with pytest.raises(DataError):
            cd.load_long_csv(tmp_path / "nope.csv")

    def test_missing_mapped_column(self, tmp_path):
        path = write(tmp_path / "in.csv", "id,date,value\nP1,2021-01-01,1\n")
        with pytest.raises(DataError, match="series_id"):
            cd.load_long_csv(path)

    def test_custom_schema(self, tmp_path):
        path = write(tmp_path / "in.csv", "item,day,price\nP1,2021-01-01,2\n")
        obs, _ = cd.load_long_csv(
            path, {"series_id": "item", "date": "day", "value": "price"}
        )
        assert obs[0].series_id == "P1" and obs[0].value == 2.0


class TestLoadWideCsv:
    def test_basic(self, tmp_path):
        path = write(
            tmp_path / "w.csv",
            "series_id,2021-01-01,2021-01-02,2021-01-03\nP1,1,,3\n",
        )
        obs, rejects = cd.load_wide_csv(path)
        assert rejects == []
        assert [(o.date.day, o.value) for o in obs] == [(1, 1.0), (3, 3.0)]

    def test_non_finite_cells_routed_to_rejects(self, tmp_path):
        path = write(
            tmp_path / "w.csv",
            "series_id,2021-01-01,2021-01-02,2021-01-03\nP1,1,inf,3\nP2,NaN,2,2\n",
        )
        obs, rejects = cd.load_wide_csv(path)
        assert [(o.series_id, o.date.day, o.value) for o in obs] == [
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
        obs = [
            cd.RawObservation(sid, day(t), float(t))
            for sid in ("A", "B")
            for t in range(3)
        ]
        col = cd.assemble_series(obs)
        assert len(col) == 2
        for s in col.series:
            assert len(s) == 3
            assert not s.missing_mask.any()

    def test_missing_mask(self):
        obs = [cd.RawObservation("A", day(0), 1.0), cd.RawObservation("A", day(2), 2.0)]
        col = cd.assemble_series(obs)
        assert col.series[0].missing_mask.tolist() == [False, True, False]

    def test_sales_mode_store_pairs(self):
        obs = [
            cd.RawObservation("I1", day(0), 1.0, store="S1"),
            cd.RawObservation("I1", day(0), 2.0, store="S2"),
        ]
        col = cd.assemble_series(obs, mode="sales")
        assert col.ids == ["I1::S1", "I1::S2"]
        assert col.series[0].product == "I1"

    def test_empty_observation_list(self):
        with pytest.raises(DataError):
            cd.assemble_series([])


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
