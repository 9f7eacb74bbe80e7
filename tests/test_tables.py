"""The artifact writers and readers against the per-cell code they replaced.

The writers must put the same bytes in a file, and the readers must return
the same ids and bit-identical values.  Only ``tables`` may import csv or
json, so the artifact format has one owner.
"""

import ast
import csv
import datetime as dt
import re
import warnings
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

import movclust
from movclust import cli
from movclust.clustering import read_assignment_csv
from movclust.distances import DistanceMatrix, read_matrix_csv, write_matrix_csv
from movclust.errors import DataError
from movclust.core_data import SeriesCollection, load_long_csv, load_wide_csv
from movclust.image_features import load_external_features, write_features_csv
from movclust import tables as tb
from movclust.tables import NUMBER, as_written, read_sidecar, read_table, write_rows, write_table

from conftest import collection, sym, ts
from scalar_reference import (
    load_external_features_ref, read_assignment_csv_ref, read_matrix_csv_ref, read_metadata_ref,
    read_wide_ref, write_features_csv_ref, write_matrix_csv_ref, write_wide_ref,
)

#: Ids that csv must quote (comma, quote, line breaks, surrounding spaces),
#: non-ASCII ones, and any other text.
IDS = st.one_of(
    st.sampled_from(["a,b", 'say "hi"', " padded ", "é–ü", "line\nbreak", "cr\r", "", "plain"]),
    st.text(max_size=6),
)
FLOATS = st.one_of(
    st.sampled_from([0.0, -0.0, 1e-300, -1e-300, 1e300, 5e-324, 0.1, 1 / 3]),
    st.floats(),
)


@st.composite
def tables(draw, elements=FLOATS, dtype=float, min_rows=0):
    """(ids, values): up to 5 rows of 1 to 5 values each.

    Half the tables draw their cells from a pool of one to three values, so
    that ``write_table`` meets repeated values as well as distinct ones.
    """
    n = draw(st.integers(min_rows, 5))
    m = draw(st.integers(1, 5))
    ids = draw(st.lists(IDS, min_size=n, max_size=n, unique=True))
    if draw(st.booleans(), label="small pool"):
        elements = st.sampled_from(draw(st.lists(elements, min_size=1, max_size=3)))
    values = draw(st.lists(st.lists(elements, min_size=m, max_size=m), min_size=n, max_size=n))
    return ids, np.array(values, dtype=dtype).reshape(n, m)


def square(cells, dtype=float, n=6):
    """(ids, values): ``cells`` repeated row by row into an n x n table."""
    return [f"r{i}" for i in range(n)], np.resize(np.array(cells, dtype=dtype), (n, n))


#: Tables of few distinct values, which ``write_table`` formats once each,
#: but for the last, which is all distinct and formatted row by row.
EDGE_TABLES = [
    square([0.0, -0.0]),  # equal values whose bits differ, written "0" and "-0"
    square(np.array([0x7FF8000000000000, 0x7FF8000000000001, 0xFFF8000000000000],
                    dtype=np.uint64).view(float)),  # NaNs with three payloads
    square([np.inf, -np.inf, 5e-324, np.nextafter(1e22, 0), 1e22, np.nextafter(1e22, np.inf),
            np.nextafter(1e-13, 0), 1e-13, np.nextafter(1e-13, 1)]),
    square([0.1]),
    square(np.random.default_rng(0).random(36)),
]
#: Tables of integer levels, each with few distinct values.
LEVEL_TABLES = [
    square([1, 2, 3, 4, 5], np.int8),
    square([1, 5, -(2**63), 2**63 - 1], np.int64),
]


def with_examples(tables):
    """Decorator: run a Hypothesis test on each of ``tables`` as an explicit example."""
    def decorate(test):
        for table in tables:
            test = example(table)(test)
        return test
    return decorate


def hexes(values):
    return [float.hex(float(v)) for v in np.ravel(values)]


def same_bytes(tmp, write, write_ref):
    """Whether write(path) and write_ref(path) put the same bytes in a file."""
    write(tmp / "new.csv")
    write_ref(tmp / "ref.csv")
    return (tmp / "new.csv").read_bytes() == (tmp / "ref.csv").read_bytes()


@settings(max_examples=200, deadline=None)
@given(tables())
@with_examples(EDGE_TABLES)
def test_matrix_csv(tmp_path_factory, table):
    ids, values = table
    matrix = DistanceMatrix(ids=ids, entries=np.resize(values, (len(ids), len(ids))),
                            metric="mpbd")
    assert same_bytes(tmp_path_factory.mktemp("m"), lambda p: write_matrix_csv(matrix, p),
                      lambda p: write_matrix_csv_ref(matrix, p))


@settings(max_examples=200, deadline=None)
@given(tables(min_rows=1))
@with_examples(EDGE_TABLES)
def test_features_csv(tmp_path_factory, table):
    ids, values = table
    features = SeriesCollection(ids, values)
    assert same_bytes(tmp_path_factory.mktemp("f"), lambda p: write_features_csv(features, p),
                      lambda p: write_features_csv_ref(ids, values, p))


def test_features_csv_rejects_no_vectors(tmp_path):
    with pytest.raises(DataError, match="no feature vectors"):
        write_features_csv(SeriesCollection([], np.empty((0, 3))), tmp_path / "f.csv")
    assert not (tmp_path / "f.csv").exists()


def dates(m):
    return [dt.date(2021, 1, 1) + dt.timedelta(days=t) for t in range(m)]


@settings(max_examples=200, deadline=None)
@given(tables())
@with_examples(EDGE_TABLES)
def test_wide_numeric_csv(tmp_path_factory, table):
    ids, values = table
    series = collection(ts(i, row) for i, row in zip(ids, values))
    days = dates(values.shape[1])
    assert same_bytes(tmp_path_factory.mktemp("w"), lambda p: cli._write_wide(p, series, days),
                      lambda p: write_wide_ref(p, series, days))


@settings(max_examples=100, deadline=None)
@given(tables(elements=st.integers(-(2**63), 2**63 - 1), dtype=np.int64))
@with_examples(LEVEL_TABLES)
def test_wide_symbolic_csv(tmp_path_factory, table):
    ids, levels = table
    series = collection(sym(i, row) for i, row in zip(ids, levels))
    days = dates(levels.shape[1])
    assert same_bytes(tmp_path_factory.mktemp("s"),
                      lambda p: cli._write_wide(p, series, days),
                      lambda p: write_wide_ref(p, series, days, symbolic=True))


def typed_tables(dtype):
    """``tables`` of ``dtype`` cells, each a value that the dtype holds exactly."""
    if np.dtype(dtype).kind == "f":
        bits = np.finfo(dtype).bits
        return tables(FLOATS if bits == 64 else st.floats(width=bits), dtype)
    info = np.iinfo(dtype)
    return tables(st.integers(int(info.min), int(info.max)), dtype)


#: Tables of every numeric dtype that ``write_table`` takes.
TYPED_TABLES = st.sampled_from([np.float16, np.float32, np.float64, np.int8, np.int16, np.int32,
                                np.int64, np.uint8, np.uint64]).flatmap(typed_tables)
#: A table whose distinct values are exactly ``_DISTINCT_SHARE`` of its cells.
AT_THE_SHARE = square([0.5, -0.0, np.nan, 7.0], n=4)


def matches_the_wide_writer(tmp, table):
    """Whether ``write_table`` writes ``table`` as the old per-cell writer did."""
    ids, values = table
    days = dates(values.shape[1])
    header = ["series_id"] + [d.isoformat() for d in days]
    wide = SimpleNamespace(ids=ids, values=values)  # keeps the dtype a SeriesCollection would not
    return same_bytes(tmp, lambda p: write_table(p, header, ids, values),
                      lambda p: write_wide_ref(p, wide, days, symbolic=values.dtype.kind in "iu"))


@settings(max_examples=300, deadline=None)
@given(TYPED_TABLES)
@with_examples(EDGE_TABLES + LEVEL_TABLES + [AT_THE_SHARE])
def test_every_dtype_matches_the_wide_writer(tmp_path_factory, table):
    """``write_table`` writes a matrix of any numeric dtype as the old per-cell writer did."""
    assert matches_the_wide_writer(tmp_path_factory.mktemp("d"), table)


@settings(max_examples=300, deadline=None)
@given(TYPED_TABLES)
@with_examples(EDGE_TABLES + LEVEL_TABLES + [AT_THE_SHARE])
def test_hash_misses_find_their_text(tmp_path_factory, table):
    """With every cell hashed to one slot, all but one distinct value are found by search."""
    with mock.patch.object(tb, "_HASH_MULTIPLIER", 0):
        assert matches_the_wide_writer(tmp_path_factory.mktemp("h"), table)


def test_a_share_at_the_bound_formats_each_distinct_value_once(tmp_path):
    ids, values = AT_THE_SHARE
    assert len(np.unique(values.view(np.uint64))) == tb._DISTINCT_SHARE * values.size
    with mock.patch.object(tb, "_distinct_index", wraps=tb._distinct_index) as lookup:
        assert matches_the_wide_writer(tmp_path, AT_THE_SHARE)
    lookup.assert_called_once()


@settings(max_examples=200, deadline=None)
@given(tables())
@with_examples(EDGE_TABLES + LEVEL_TABLES)
def test_both_ways_of_formatting_write_the_same_bytes(tmp_path_factory, table):
    """Formatting each distinct value once and formatting row by row give the same file."""
    ids, values = table
    header = ["id"] + [f"c{j}" for j in range(values.shape[1])]

    def write(share):
        def go(path):
            with mock.patch.object(tb, "_DISTINCT_SHARE", share):
                write_table(path, header, ids, values)
        return go

    assert same_bytes(tmp_path_factory.mktemp("b"), write(1.0), write(-1.0))


@settings(max_examples=200, deadline=None)
@given(tables(elements=st.floats(allow_nan=False, allow_infinity=False)))
def test_float_table_round_trip(tmp_path_factory, table):
    """read_table returns what write_table wrote: each value rounded to 9 digits."""
    ids, values = table
    path = tmp_path_factory.mktemp("t") / "t.csv"
    header = ["id"] + [f"c{j}" for j in range(values.shape[1])]
    write_table(path, header, ids, values)
    assert read_table(path)[:2] == (header, ids)
    assert hexes(read_table(path)[2]) == hexes([float(NUMBER % v) for v in values.ravel()])


@settings(max_examples=100, deadline=None)
@given(tables(elements=st.integers(-(2**63), 2**63 - 1), dtype=np.int64))
@example((["r"], np.array([[1234567890]])))  # "%.9g" would write 1.23456789e+09
def test_int_table_round_trip(tmp_path_factory, table):
    """An integer matrix is written with "%d", so read_table(path, int) reads it back."""
    ids, values = table
    path = tmp_path_factory.mktemp("t") / "t.csv"
    write_table(path, ["id"] + ["c"] * values.shape[1], ids, values)
    _, got_ids, got = read_table(path, int)
    assert (got_ids, got.dtype, got.shape) == (ids, values.dtype, values.shape)
    assert got.tolist() == values.tolist()


@pytest.mark.parametrize("sid", ["cr\r", "\r", "a\rb", "crlf\r\n"])
def test_id_with_carriage_return_reads_back(tmp_path, sid):
    write_table(tmp_path / "t.csv", ["id", sid], [sid], np.zeros((1, 1)))
    write_rows(tmp_path / "r.csv", ["id", sid], [[sid, 0]])
    assert f'"{sid}"'.encode() in (tmp_path / "t.csv").read_bytes()
    for name in ("t.csv", "r.csv"):
        assert read_table(tmp_path / name)[:2] == (["id", sid], [sid])


# ---------------------------------------------------------------------------
# The readers against the old ones on well-formed tables

#: Cell text as the writers emit it, and other text that float() accepts.
FLOAT_CELLS = st.one_of(
    st.sampled_from(["-0.0", "-0", "5e-324", "1e300", "1e-300", "-1e+300", "1_0", " 2", "+3"]),
    st.floats(allow_nan=False, allow_infinity=False).map(lambda v: NUMBER % v),
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
)
INT_CELLS = st.one_of(
    st.sampled_from(["-0", "1_0", " 2", "+3", "007"]),
    st.integers(-(2**63), 2**63 - 1).map(str),
)


@st.composite
def cell_tables(draw, cells, min_rows=0, width=st.integers(1, 5)):
    """(ids, rows, m): up to 5 rows of m cells of text; ``width=None`` makes m the row count."""
    n = draw(st.integers(min_rows, 5))
    m = n if width is None else draw(width)
    ids = draw(st.lists(IDS, min_size=n, max_size=n, unique=True))
    return ids, draw(st.lists(st.lists(cells, min_size=m, max_size=m), min_size=n, max_size=n)), m


def write_cells(path, header, ids, rows, sidecar=None):
    write_rows(path, header, ([sid, *row] for sid, row in zip(ids, rows)), sidecar)


@pytest.mark.parametrize("cells, dtype", [(FLOAT_CELLS, float), (INT_CELLS, int)],
                         ids=["float", "int"])
@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_read_wide_matches_old_reader(tmp_path_factory, cells, dtype, data):
    ids, rows, m = data.draw(cell_tables(cells))
    out = tmp_path_factory.mktemp("w")
    name = {float: "scaled.csv", int: "symbolic.csv"}[dtype]
    write_cells(out / name, ["series_id"] + [f"2021-01-{d:02d}" for d in range(1, m + 1)],
                ids, rows)
    cfg = {"out": str(out), "mode": "price"}
    old, new = read_wide_ref(cfg, name, dtype), cli.ARTIFACTS[name][1](out / name)
    assert new.ids == old.ids == ids
    assert new.values.dtype == old.values.dtype
    assert new.values.shape == old.values.shape
    assert new.values.tolist() == old.values.tolist()
    assert hexes(new.values) == hexes(old.values)


@settings(max_examples=150, deadline=None)
@given(cell_tables(IDS, width=st.just(3)))
def test_read_metadata_matches_old_reader(tmp_path_factory, table):
    ids, rows, _ = table
    path = tmp_path_factory.mktemp("m") / "metadata.csv"
    write_cells(path, cli.METADATA, ids, rows)
    old = read_metadata_ref(path)
    assert list(old) == ids
    assert cli._read_metadata(path) == {
        sid: [attrs["product"] or "", attrs["store"] or "", attrs["category"] or ""]
        for sid, attrs in old.items()
    }


@settings(max_examples=150, deadline=None)
@given(cell_tables(FLOAT_CELLS, min_rows=1, width=None))
def test_read_matrix_matches_old_reader(tmp_path_factory, table):
    ids, rows, _ = table
    path = tmp_path_factory.mktemp("d") / "distmat.csv"
    write_cells(path, ["id"] + ids, ids, rows,
                {"metric": "dtw", "normalization": "none", "params": {"window": 3}})
    old, new = read_matrix_csv_ref(path), read_matrix_csv(path)
    assert new.ids == old.ids == ids
    assert hexes(new.entries) == hexes(old.entries)
    assert (new.metric, new.normalization, new.params) == (old.metric, old.normalization,
                                                          old.params)


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_read_assignment_matches_old_reader(tmp_path_factory, data):
    ids = data.draw(st.lists(IDS, min_size=1, max_size=6, unique=True))
    k = data.draw(st.integers(1, len(ids)))
    spell = data.draw(st.sampled_from(["{}", "+{}", " {}", "0{}"]))
    labels = [[spell.format(i % k + 1)] for i in range(len(ids))]
    path = tmp_path_factory.mktemp("a") / "assignment.csv"
    write_cells(path, ["series_id", "cluster"], ids, labels,
                {"algorithm": "kmeans(k=2)", "seed": 7, "objective": 0.5})
    old, new = read_assignment_csv_ref(path), read_assignment_csv(path)
    assert list(new.labels.items()) == list(old.labels.items())
    assert (new.k, new.algorithm, new.seed, new.objective) == (old.k, old.algorithm, old.seed,
                                                               old.objective)


@settings(max_examples=150, deadline=None)
@given(cell_tables(FLOAT_CELLS))
def test_load_features_matches_old_reader(tmp_path_factory, table):
    ids, rows, m = table
    path = tmp_path_factory.mktemp("f") / "features.csv"
    write_cells(path, ["series_id"] + [f"f{j + 1}" for j in range(m)], ids, rows)
    old_ids, old_vectors = load_external_features_ref(path, known_ids=set(ids))
    new = load_external_features(path)
    assert new.ids == old_ids == ids
    assert [hexes(row) for row in new.values] == [hexes(v) for v in old_vectors]


@pytest.mark.parametrize("cell, error", [
    ("x", "line 3: could not convert string to float: 'x' (non-numeric cell)"),
    ("nan", "line 3: non-finite cell nan in column 'b'"),
    ("-inf", "line 3: non-finite cell -inf in column 'b'"),
])
def test_read_table_names_file_and_line(tmp_path, cell, error):
    path = tmp_path / "t.csv"
    path.write_text(f"id,a,b\nr1,1,2\nr2,3,{cell}\n", encoding="utf-8")
    with pytest.raises(DataError, match=re.escape(f"{path}, {error}")):
        read_table(path)


def test_read_table_rejects_ragged_rows_header_and_empty_file(tmp_path):
    path = tmp_path / "t.csv"
    path.write_text("id,a,b\nr1,1\n", encoding="utf-8")
    with pytest.raises(DataError, match=re.escape(f"{path}, line 2: 2 cells, header has 3 (ragged")):
        read_table(path)
    with pytest.raises(DataError, match=re.escape(f"{path}, line 1: header ['id', 'a', 'b'] is")):
        read_table(path, header=["id", "a", "c"])
    path.write_text("", encoding="utf-8")
    with pytest.raises(DataError, match="empty file"):
        read_table(path)


@pytest.mark.parametrize("read", [load_long_csv, load_wide_csv, read_table],
                         ids=lambda read: read.__name__)
def test_every_reader_refuses_an_unopenable_file_and_a_blank_first_line(tmp_path, read):
    missing = tmp_path / "missing.csv"
    with pytest.raises(DataError) as error:
        read(missing)
    assert str(error.value) == f"cannot open {missing}: No such file or directory"
    with pytest.raises(DataError) as error:
        read(tmp_path)
    assert str(error.value) == f"cannot open {tmp_path}: Is a directory"
    path = tmp_path / "t.csv"
    path.write_text("\nseries_id,2021-01-01\nA,1\n", encoding="utf-8")
    with pytest.raises(DataError) as error:
        read(path)
    assert str(error.value) == f"{path}: empty file, header row required"


def test_read_sidecar_rejects_missing_and_unparseable_sidecars(tmp_path):
    path = tmp_path / "t.csv"
    write_table(path, ["id", "a"], ["r"], np.ones((1, 1)), sidecar={"metric": "mpbd"})
    assert read_sidecar(path) == {"metric": "mpbd"}
    assert read_sidecar(path, "metric") == {"metric": "mpbd"}
    with pytest.raises(DataError, match=re.escape(f"{tmp_path / 't.json'}: missing key 'seed'")):
        read_sidecar(path, "metric", "seed")
    (tmp_path / "t.json").write_text('"metric"', encoding="utf-8")
    with pytest.raises(DataError, match=re.escape(f"{tmp_path / 't.json'}: not a JSON object")):
        read_sidecar(path, "metric")
    (tmp_path / "t.json").write_text("{", encoding="utf-8")
    with pytest.raises(DataError, match=re.escape(f"{tmp_path / 't.json'}: Expecting")):
        read_sidecar(path)
    (tmp_path / "t.json").unlink()
    with pytest.raises(DataError, match=re.escape(f"{path}: missing sidecar")):
        read_sidecar(path)


# ---------------------------------------------------------------------------
# as_written: a matrix as read_table reads it back, without the text


def written(values):
    """``float(NUMBER % v)`` of each value: what read_table parses back."""
    return [float(NUMBER % v) for v in np.ravel(values).tolist()]


def as_written_row(values):
    values = np.asarray(values, dtype=float).reshape(1, -1)
    return as_written(values, "t.csv")


@settings(max_examples=1000, deadline=None)
@given(st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=1, max_size=40))
def test_as_written_is_float_of_the_written_text(values):
    assert hexes(as_written_row(values)) == hexes(written(values))


def ulps(values):
    """Each value and its neighbours one ulp either side."""
    values = np.asarray(values, dtype=float)
    return np.concatenate([values, np.nextafter(values, np.inf), np.nextafter(values, -np.inf)])


def near_ties(rng, count):
    """The doubles nearest (m + 1/2) / 10**s, halfway between two 9-digit decimals."""
    ties = []
    for m, s in zip(rng.integers(10**8, 10**9, count).tolist(), rng.integers(-13, 22, count).tolist()):
        ties.append(float(Fraction(2 * m + 1, 2) / Fraction(10) ** s))
    return ties


def test_as_written_edge_cases():
    rng = np.random.default_rng(3)
    edges = ulps([
        0.0, 5e-324, 2.2250738585072014e-308, 1e-300, 1e-13, 1e22, 1e300, 1.7e308,
        *(10.0 ** np.arange(-20, 26)), 999999999.5, 99999999.95, 0.49999999999, 0.1, 1 / 3,
        *near_ties(rng, 2000),
    ])
    values = np.concatenate([edges, -edges, [1.7976931348623157e308, -1.7976931348623157e308]])
    assert hexes(as_written_row(values)) == hexes(written(values))
    assert hexes(as_written_row([-0.0, 0.0])) == hexes([-0.0, 0.0])


@pytest.mark.parametrize("shift", [-1.0, 1.0])
def test_as_written_falls_back_when_the_exponent_is_off(monkeypatch, shift):
    """A decimal exponent off by one puts the mantissa outside [1e8, 1e9): the cell is
    then formatted and parsed, never rounded at the wrong digit.  log10 is not exact
    near powers of ten, and this holds for any such error."""
    log10 = np.log10
    monkeypatch.setattr(np, "log10", lambda a: log10(a) + shift)
    values = ulps(np.random.default_rng(5).uniform(0.1, 1, 50) * 10.0 ** np.arange(-10, 40, 1))
    assert hexes(as_written_row(values)) == hexes(written(values))


def test_as_written_blocks_and_shapes(monkeypatch):
    monkeypatch.setattr(tb, "_ROUND_BLOCK", 7)
    rng = np.random.default_rng(4)
    values = rng.standard_normal((13, 11)) * 10.0 ** rng.integers(-16, 24, (13, 11))
    values[::3, ::2] = 0.0
    got = as_written(values, "t.csv")
    assert got.shape == values.shape and hexes(got) == hexes(written(values))
    assert as_written(np.empty((0, 4)), "t.csv").shape == (0, 4)


@pytest.mark.parametrize("cell", [np.nan, np.inf, -np.inf])
def test_as_written_raises_the_read_table_error_for_a_non_finite_cell(tmp_path, cell):
    path = tmp_path / "t.csv"
    values = np.array([[1.0, 2.0], [3.0, cell]])
    write_table(path, ["id", "a", "b"], ["r1", "r2"], values)
    with pytest.raises(DataError) as read_error:
        read_table(path)
    with pytest.raises(DataError) as error:
        as_written(values, path)
    assert str(error.value) == str(read_error.value)


# ---------------------------------------------------------------------------
# The plain read path against the csv loop

#: Cell texts that float() or int() take and numpy's parsers may not, or the
#: other way round, and any ASCII text.
ODD_CELLS = st.one_of(
    st.sampled_from(["1_0", " 1.5", "1.5 ", "+1", "1.0", "1.", "inf", "-Infinity", "nan", "-nan",
                     "", " ", "٣", "1e5", "007", "-0", "0x10", "\x0b2", "2\x0c", "\t3", "1 2",
                     "#1", "9" * 20, str(-(2**63)), str(2**63)]),
    st.text(st.characters(max_codepoint=127), max_size=3),
)
#: Ids that need no quoting, with spaces.
SPACED_IDS = st.text(" ab", max_size=3)


@st.composite
def raw_tables(draw, cells):
    """The text of a table of 1 to 4 columns, with repeated ids.

    Half the tables hold ``cells`` in rows of the header's width, most of
    which numpy parses; the rest also hold ``ODD_CELLS``, other ids, ragged
    rows and blank lines, and may lack their final newline.
    """
    width = draw(st.integers(1, 4))
    well_formed = draw(st.booleans(), label="well formed")
    if not well_formed:
        cells = cells | ODD_CELLS
    cells = st.sampled_from(draw(st.lists(cells, min_size=1, max_size=3))) | cells
    ids = SPACED_IDS if well_formed else SPACED_IDS | IDS
    lines = ["id," + ",".join(f"c{j}" for j in range(1, width))]
    for _ in range(draw(st.integers(0, 5))):
        row = [draw(ids), *draw(st.lists(cells, min_size=width - 1, max_size=width - 1))]
        shape = draw(st.sampled_from(["row"] if well_formed else ["row", "short", "long", "blank"]))
        if shape == "short":
            row = row[:-1]
        elif shape == "long":
            row.append(draw(cells))
        lines.append("" if shape == "blank" else ",".join(row))
    return "\n".join(lines) + ("\n" if well_formed else draw(st.sampled_from(["\n", ""])))


def read_outcome(path, dtype):
    """read_table's header, ids, dtype and value bits, or the text of its data error."""
    try:
        header, ids, values = read_table(path, dtype)
    except DataError as exc:
        return str(exc)
    bits = values.view(np.uint64) if values.dtype.kind == "f" else values
    return header, ids, values.dtype, values.shape, bits.tolist()


def csv_loop_only():
    return mock.patch.object(tb, "_read_plain", return_value=None)


@pytest.fixture(params=[tb._SCAN_BLOCK, 1, 7, 64], ids=lambda size: f"block{size}")
def scan_block(request):
    """The plain-file scan at its own block size, then at 1, 7 and 64 bytes."""
    with mock.patch.object(tb, "_SCAN_BLOCK", request.param):
        yield


@pytest.mark.parametrize("dtype, cells", [(float, FLOAT_CELLS), (int, INT_CELLS)],
                         ids=["float", "int"])
@pytest.mark.usefixtures("scan_block")
@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_plain_path_reads_what_the_csv_loop_reads(tmp_path_factory, dtype, cells, data):
    """The same header, ids, dtype and value bits, or the same data error."""
    check_plain_path(tmp_path_factory, dtype, data.draw(raw_tables(cells)))


@pytest.mark.parametrize("dtype", [float, int])
@pytest.mark.parametrize("text", [
    "id,a,b\nr1,1,2\nr1,inf,3\n",  # a repeated id is named before a non-finite cell
    "id,a,b\nr1,1,2\nr2,inf,3\n",
    "id,a\nr1,1.0\nr2,2\n",  # "1.0" as an int: numpy < 2 parses it with only a warning
    "id,a\nr1,1\n\nr2,2,3\n",  # a blank line, and a line with a field too many
    "id\nr1\nr2\n",
    "id\nr1\n\nr2\n",  # no comma to count: loadtxt would skip the blank line
], ids=["repeat_then_inf", "inf", "float_text_as_int", "blank_line", "width_1",
        "width_1_blank_line"])
def test_plain_path_edge_cases(tmp_path_factory, dtype, text):
    check_plain_path(tmp_path_factory, dtype, text)


def check_plain_path(tmp_path_factory, dtype, text):
    path = tmp_path_factory.mktemp("plain") / "t.csv"
    path.write_bytes(text.encode("utf-8"))
    with csv_loop_only():
        expected = read_outcome(path, dtype)
    assert read_outcome(path, dtype) == expected


@pytest.mark.parametrize("dtype", [float, int])
@pytest.mark.usefixtures("scan_block")
def test_written_tables_take_the_plain_path(tmp_path, dtype):
    rng = np.random.default_rng(5)
    values = (rng.normal(size=(7, 5)) * 10.0 ** rng.integers(-300, 300, size=(7, 5))
              if dtype is float else rng.integers(-(2**63), 2**63 - 1, size=(7, 5)))
    path = tmp_path / "t.csv"
    write_table(path, ["id", *"abcde"], [f" r {i}" for i in range(7)], values)
    with csv_loop_only():
        expected = read_outcome(path, dtype)
    with mock.patch.object(tb, "_read_rows", side_effect=AssertionError("csv loop used")):
        assert read_outcome(path, dtype) == expected


@pytest.mark.parametrize("extra", [0, 1], ids=["at_the_limit", "over_the_limit"])
def test_an_id_over_the_field_limit_is_the_csv_error(tmp_path, extra):
    path = tmp_path / "t.csv"
    path.write_text(f"id,a\n{'A' * (csv.field_size_limit() + extra)},1\nB,2\n",
                    encoding="ascii")
    with csv_loop_only():
        expected = read_outcome(path, float)
    assert read_outcome(path, float) == expected
    assert isinstance(expected, str) == bool(extra)


def test_a_deprecation_warning_from_loadtxt_falls_back_to_the_csv_loop(tmp_path):
    """As numpy < 2 warns when it parses "1.0" as an int, which the csv loop refuses."""
    path = tmp_path / "t.csv"
    path.write_text("id,a\nr1,1\n", encoding="ascii")
    loadtxt = np.loadtxt

    def warning_loadtxt(*args, **kwargs):
        warnings.warn("loadtxt(): Parsing an integer via a float is deprecated.",
                      DeprecationWarning)
        return loadtxt(*args, **kwargs)

    with mock.patch.object(tb.np, "loadtxt", warning_loadtxt), \
            mock.patch.object(tb, "_read_rows", wraps=tb._read_rows) as rows:
        assert read_table(path, int)[1:2] == (["r1"],)
    assert rows.call_count == 1


@pytest.mark.parametrize("suffix", [".bz2", ".gz", ".lzma", ".xz"])
def test_a_plain_file_named_as_compressed_is_read_as_text(tmp_path, suffix):
    """Given such a path, ``np.loadtxt`` would decompress the file and raise."""
    long_body = "series_id,date,value\nA,2020-01-01,1\nA,2020-01-02,2\n"
    for body, read in ((long_body, load_long_csv),
                       ("id,a\nr1,1.5\n", lambda path: read_outcome(path, float))):
        (tmp_path / "t.csv").write_text(body, encoding="ascii")
        (tmp_path / f"t{suffix}").write_text(body, encoding="ascii")
        assert repr(read(tmp_path / f"t{suffix}")) == repr(read(tmp_path / "t.csv"))


@pytest.mark.parametrize("body", [
    b"r1\xa31\n",
    "é–ü,1\nr2,1\n".encode("utf-8").replace(b"r", b"\xa3"),
    b"r1,\xc3x\n",
    b"r1,\xc3",
], ids=["ascii", "after_multibyte", "broken_sequence", "cut_short"])
@pytest.mark.parametrize("read, header", [
    (read_table, b"series_id,2021-01-01\n"),
    (load_wide_csv, b"series_id,2021-01-01\n"),
    (load_long_csv, b"series_id,date,value\n"),
], ids=["read_table", "load_wide_csv", "load_long_csv"])
@pytest.mark.usefixtures("scan_block")
def test_a_byte_that_is_not_utf8_is_a_data_error_naming_its_offset(tmp_path, read, header, body):
    path = tmp_path / "t.csv"
    path.write_bytes(header + body)
    with pytest.raises(UnicodeDecodeError) as decode:
        (header + body).decode("utf-8")
    with pytest.raises(DataError) as error:
        read(path)
    assert str(error.value) == (f"{path}, byte {decode.value.start}: "
                                f"not UTF-8 ({decode.value.reason})")


# ---------------------------------------------------------------------------
# One owner of the artifact format

#: The modules that may import csv or json: the artifact format, which also
#: opens the raw inputs for the loaders.
FORMAT_MODULES = {"tables"}


def imported_modules(path):
    names = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            names |= {alias.name.split(".")[0] for alias in node.names}
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.add(node.module.split(".")[0])
    return names


@pytest.mark.parametrize("path", sorted(Path(movclust.__file__).parent.glob("*.py")),
                         ids=lambda p: p.stem)
def test_only_format_modules_import_csv_or_json(path):
    if path.stem not in FORMAT_MODULES:
        assert not imported_modules(path) & {"csv", "json"}
