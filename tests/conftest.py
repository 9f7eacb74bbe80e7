import datetime as dt

import numpy as np
import pytest
from hypothesis import Phase, settings

from movclust.core_data import Observations, SeriesCollection, SymbolicSeries, TimeSeries

#: Settings of the differential tests of a fast kernel against its scalar
#: reference.  Hypothesis's explain phase re-runs a failing example once per
#: drawn value; on these many-draw inputs it runs for minutes, so it is left out.
DIFFERENTIAL = settings(max_examples=300, deadline=None,
                        phases=[p for p in Phase if p is not Phase.explain])


def ts(series_id, values, missing=None, **kwargs):
    """Build a TimeSeries; None entries in values mark missing positions."""
    if missing is None:
        missing = [v is None for v in values]
        values = [np.nan if v is None else v for v in values]
    return TimeSeries(
        series_id=series_id,
        values=np.asarray(values, dtype=float),
        missing_mask=np.asarray(missing, dtype=bool),
        **kwargs,
    )


def sym(series_id, levels, **kwargs):
    return SymbolicSeries(series_id=series_id, levels=np.asarray(levels, dtype=int), **kwargs)


def collection(series, mode="price"):
    """A SeriesCollection whose rows are the given TimeSeries, or SymbolicSeries levels."""
    series = list(series)
    rows = [getattr(s, "values", getattr(s, "levels", None)) for s in series]
    return SeriesCollection(
        ids=[s.series_id for s in series],
        values=np.stack(rows) if rows else np.empty((0, 0)),
        missing=np.stack([getattr(s, "missing_mask", np.zeros(len(s), dtype=bool)) for s in series])
        if series else None,
        attrs=[(s.product, s.store, s.category) for s in series],
        mode=mode,
    )


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
