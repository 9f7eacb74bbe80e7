"""The artifact writers against the per-cell writers they replaced, byte for byte."""

import datetime as dt

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from movclust import cli
from movclust.distances import DistanceMatrix, write_matrix_csv
from movclust.errors import DataError
from movclust.image_features import FeatureVector, write_features_csv

from conftest import collection, sym, ts
from scalar_reference import write_features_csv_ref, write_matrix_csv_ref, write_wide_ref

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
    """(ids, values): up to 5 rows of 1 to 5 values each."""
    n = draw(st.integers(min_rows, 5))
    m = draw(st.integers(1, 5))
    ids = draw(st.lists(IDS, min_size=n, max_size=n, unique=True))
    values = draw(st.lists(st.lists(elements, min_size=m, max_size=m), min_size=n, max_size=n))
    return ids, np.array(values, dtype=dtype).reshape(n, m)


def same_bytes(tmp, write, write_ref):
    """Whether write(path) and write_ref(path) put the same bytes in a file."""
    write(tmp / "new.csv")
    write_ref(tmp / "ref.csv")
    return (tmp / "new.csv").read_bytes() == (tmp / "ref.csv").read_bytes()


@settings(max_examples=200, deadline=None)
@given(tables())
def test_matrix_csv(tmp_path_factory, table):
    ids, values = table
    matrix = DistanceMatrix(ids=ids, entries=np.resize(values, (len(ids), len(ids))),
                            metric="mpbd")
    assert same_bytes(tmp_path_factory.mktemp("m"), lambda p: write_matrix_csv(matrix, p),
                      lambda p: write_matrix_csv_ref(matrix, p))


@settings(max_examples=200, deadline=None)
@given(tables(min_rows=1))
def test_features_csv(tmp_path_factory, table):
    ids, values = table
    vectors = [FeatureVector(i, row, "test") for i, row in zip(ids, values)]
    assert same_bytes(tmp_path_factory.mktemp("f"), lambda p: write_features_csv(vectors, p),
                      lambda p: write_features_csv_ref(vectors, p))


def test_features_csv_rejects_no_vectors_and_ragged_ones(tmp_path):
    with pytest.raises(DataError, match="no feature vectors"):
        write_features_csv([], tmp_path / "f.csv")
    ragged = [FeatureVector("a", np.zeros(2), "test"), FeatureVector("b", np.zeros(3), "test")]
    with pytest.raises(DataError, match="b: inconsistent feature length"):
        write_features_csv(ragged, tmp_path / "f.csv")


def dates(m):
    return [dt.date(2021, 1, 1) + dt.timedelta(days=t) for t in range(m)]


@settings(max_examples=200, deadline=None)
@given(tables())
def test_wide_numeric_csv(tmp_path_factory, table):
    ids, values = table
    series = collection(ts(i, row, missing=np.zeros(len(row), dtype=bool))
                        for i, row in zip(ids, values))
    days = dates(values.shape[1])
    assert same_bytes(tmp_path_factory.mktemp("w"), lambda p: cli._write_wide(p, series, days),
                      lambda p: write_wide_ref(p, series, days))


@settings(max_examples=100, deadline=None)
@given(tables(elements=st.integers(-(2**63), 2**63 - 1), dtype=np.int64))
def test_wide_symbolic_csv(tmp_path_factory, table):
    ids, levels = table
    series = collection(sym(i, row) for i, row in zip(ids, levels))
    days = dates(levels.shape[1])
    assert same_bytes(tmp_path_factory.mktemp("s"),
                      lambda p: cli._write_wide(p, series, days),
                      lambda p: write_wide_ref(p, series, days, symbolic=True))
