import datetime as dt

import numpy as np
import pytest
from hypothesis import Phase, settings

from movclust.core_data import Observations, SeriesCollection
from movclust.distances import distance_matrix

#: Settings of the differential tests of a fast kernel against its scalar
#: reference.  Hypothesis's explain phase re-runs a failing example once per
#: drawn value; on these many-draw inputs it runs for minutes, so it is left out.
DIFFERENTIAL = settings(max_examples=300, deadline=None,
                        phases=[p for p in Phase if p is not Phase.explain])


def ts(series_id, values, category=None, store=None, product=None):
    """A one-row SeriesCollection; a None or NaN entry in values marks a missing position."""
    return SeriesCollection([series_id], np.asarray(values, dtype=float)[None],
                            [(product, store, category)])


def sym(series_id, levels, category=None, store=None, product=None):
    """A one-row SeriesCollection of integer levels."""
    return SeriesCollection([series_id], np.asarray(levels, dtype=int)[None],
                            attrs=[(product, store, category)])


def collection(series):
    """The one-row collections ``series`` stacked into one SeriesCollection."""
    series = list(series)
    if not series:
        return SeriesCollection([], np.empty((0, 0)))
    return SeriesCollection(
        ids=[sid for s in series for sid in s.ids],
        values=np.concatenate([s.values for s in series]),
        attrs=[attrs for s in series for attrs in s.attrs],
    )


def pair_distance(metric, p, q, **kwargs):
    """The distance of rows ``p`` and ``q`` in the matrix of their two-row collection.

    Integer rows stay integer levels, as levenshtein needs.
    """
    rows = SeriesCollection(["p", "q"], np.array([p, q]))
    return float(distance_matrix(rows, metric, **kwargs).entries[0, 1])


def day(offset):
    return dt.date(2021, 1, 1) + dt.timedelta(days=offset)


def observations(rows):
    """Observations from (series_id, date, value[, category[, store]]) tuples."""
    index, series, days, values = {}, [], [], []
    for row in rows:
        series_id, date, value, category, store = (*row, None, None)[:5]
        series.append(index.setdefault((series_id, store, category), len(index)))
        days.append(date.toordinal())
        values.append(value)
    return Observations(
        list(index),
        np.array(series, dtype=np.int64),
        np.array(days, dtype=np.int64),
        np.array(values, dtype=float),
    )


def observation_rows(obs):
    """(series_id, date, value, category, store) per accepted row, in input order."""
    return [
        (obs.keys[s][0], dt.date.fromordinal(d), v, obs.keys[s][2], obs.keys[s][1])
        for s, d, v in zip(obs.series.tolist(), obs.day.tolist(), obs.value.tolist())
    ]


@pytest.fixture(scope="session")
def sample_dir(tmp_path_factory):
    """Regenerated copies of the bundled synthetic samples."""
    from movclust import sample

    path = tmp_path_factory.mktemp("samples")
    sample.write_long_csv(sample.make_price_rows(), path / "price_long.csv")
    sample.write_long_csv(sample.make_sales_rows(), path / "sales_long.csv")
    return path
