"""Deterministic synthetic sample datasets (price and sales shaped).

``python -m movclust.sample <dir>`` regenerates the bundled CSVs.  Both
generators plant movement-pattern groups (shared change days) so the
clustering stages have real structure to find, and inject missing values
to exercise the fill steps.
"""

from __future__ import annotations

import datetime as dt
import sys

import numpy as np

from .tables import write_rows

CATEGORIES = [
    "Snacks",
    "Water & Beverages",
    "Essential Food",
    "Personal Care",
    "Pet",
    "Home & Life",
]

START = dt.date(2021, 1, 1)


def _long_rows(n_days: int, series):
    """Long-format rows of each (series_id, category, store, present, value) of ``series``.

    A series has one row per day t where ``present[t]``, in day order,
    holding ``value(t)``.  The rows of each series are built before the
    next series is drawn, so every value's random draws come in the order
    of the rows.
    """
    dates = [(START + dt.timedelta(days=t)).isoformat() for t in range(n_days)]
    return [(series_id, dates[t], value(t), category, store)
            for series_id, category, store, present, value in series
            for t in np.flatnonzero(present).tolist()]


def make_price_rows(seed: int = 7, n_series: int = 60, n_days: int = 120,
                    n_groups: int = 6, missing_rate: float = 0.08):
    """Long-format price rows: n_groups pattern groups plus one sparse product."""
    rng = np.random.default_rng(seed)
    group_events = []
    for _ in range(n_groups):
        days = rng.choice(np.arange(5, n_days - 5), size=4, replace=False)
        direction = rng.choice([-1.0, 1.0], size=4)
        group_events.append(list(zip(days.tolist(), direction.tolist())))

    def series():
        for i in range(n_series):
            group = i % n_groups
            base = float(rng.uniform(2.0, 50.0))
            step = max(0.25, round(base * 0.1, 2))
            values = np.full(n_days, base)
            for day, direction in group_events[group]:
                magnitude = step * int(rng.integers(1, 3))
                values[day:] += direction * magnitude
            texts = [f"{v:.2f}" for v in np.maximum(values, 0.5).tolist()]
            missing = rng.random(n_days) < missing_rate
            missing[0] = False  # keep at least the first day
            yield f"P{i:03d}", CATEGORIES[group % len(CATEGORIES)], "", ~missing, texts.__getitem__
        # one product sparse enough to be dropped by the 80% rule
        keep = rng.random(n_days) < 0.1
        keep[0] = True
        yield "P_SPARSE", "Snacks", "", keep, lambda t: "9.99"

    return _long_rows(n_days, series())


def make_sales_rows(seed: int = 11, n_items: int = 20, n_stores: int = 3,
                    n_days: int = 120, missing_rate: float = 0.1):
    """Long-format sales rows keyed by (item, store)."""
    rng = np.random.default_rng(seed)
    n_groups = 4
    group_profile = []
    for _ in range(n_groups):
        weekly = rng.uniform(0.5, 2.0, size=7)
        spikes = rng.choice(np.arange(10, n_days - 10), size=3, replace=False)
        group_profile.append((weekly, set(spikes.tolist())))

    def series():
        for i in range(n_items):
            group = i % n_groups
            weekly, spikes = group_profile[group]
            base = float(rng.uniform(3.0, 25.0))
            category = CATEGORIES[group % len(CATEGORIES)]
            for s in range(n_stores):
                scale = base * float(rng.uniform(0.7, 1.4))
                missing = rng.random(n_days) < missing_rate
                missing[0] = False

                def sales(t):
                    level = scale * weekly[t % 7]
                    return str(int(rng.poisson(level * 3.0 if t in spikes else level)))

                yield f"I{i:03d}", category, f"S{s}", ~missing, sales

    return _long_rows(n_days, series())


def write_long_csv(rows, path):
    write_rows(path, ["series_id", "date", "value", "category", "store"], rows)


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    out_dir = argv[0] if argv else "sample_data"
    write_long_csv(make_price_rows(), f"{out_dir}/price_long.csv")
    write_long_csv(make_sales_rows(), f"{out_dir}/sales_long.csv")
    print(f"wrote {out_dir}/price_long.csv and {out_dir}/sales_long.csv")


if __name__ == "__main__":
    main()
