"""Image branch: feature vectors of the scaled series, or external ones, and their k-means.

The built-in extractor draws each series as a binary polyline image and
block-averages it into a fixed-length vector.  Externally computed vectors
(e.g. from a pretrained CNN run elsewhere) can be loaded from CSV and
clustered the same way.  Feature vectors are a ``SeriesCollection``: the
series ids plus one (n x m) matrix, one row of m features per series.
"""

from __future__ import annotations

import numpy as np

from . import clustering
from .core_data import SeriesCollection
from .errors import DataError
from .tables import read_table, write_table


def _bresenham(r0, c0, r1, c1):
    """Integer line stepping between two grid cells, inclusive."""
    dr = abs(r1 - r0)
    dc = abs(c1 - c0)
    sr = 1 if r1 >= r0 else -1
    sc = 1 if c1 >= c0 else -1
    err = dc - dr
    r, c = r0, c0
    while True:
        yield r, c
        if r == r1 and c == c1:
            return
        e2 = 2 * err
        if e2 > -dr:
            err -= dr
            c += sc
        if e2 < dc:
            err += dc
            r += sr


#: Series drawn together by extract_features; bounds the pixel cube.
_BLOCK_SERIES = 256


def _pixel_coords(values, width, height):
    """Validate a (series x time) block of scaled values; return its pixel rows and columns."""
    if width < 2 or height < 2:
        raise DataError(f"grid must be at least 2x2, got {width}x{height}")
    values = np.asarray(values, dtype=float)
    if np.isnan(values).any():
        raise DataError("image features need a complete series")
    if (values < 0).any() or (values > 1).any():
        raise DataError("image features need values in [0, 1] (a scaled series)")
    n = values.shape[1]
    if n < 2:
        raise DataError("image features need at least 2 points")
    cols = np.rint(np.arange(n) * (width - 1) / (n - 1)).astype(int)
    rows = (height - 1) - np.rint(values * (height - 1)).astype(int)
    return rows, cols


def _draw(rows, cols, width, height, paths):
    """Binary (series, height, width) cube of the polylines through (rows[s, t], cols[t]).

    A Bresenham line depends only on its end's offset from its start, so the
    segments are grouped by offset (dr, dc) and each group is drawn with one
    assignment.  ``paths`` caches the pixel offsets of each (dr, dc).
    """
    m, n = rows.shape
    cube = np.zeros((m, height, width), dtype=bool)
    series = np.repeat(np.arange(m), n - 1)
    r0 = rows[:, :-1].reshape(-1)
    c0 = np.tile(cols[:-1], m)
    # columns never decrease and dc < width, so the code identifies (dr, dc)
    codes = (rows[:, 1:].reshape(-1) - r0) * width + np.tile(np.diff(cols), m)
    order = np.argsort(codes, kind="stable")
    offsets, starts = np.unique(codes[order], return_index=True)
    for code, segments in zip(offsets.tolist(), np.split(order, starts[1:])):
        offset = divmod(code, width)
        if offset not in paths:
            paths[offset] = np.array(list(_bresenham(0, 0, *offset))).T
        path_r, path_c = paths[offset]
        segments = segments[:, None]
        cube[series[segments], r0[segments] + path_r, c0[segments] + path_c] = True
    return cube


def _pool(pixels, block):
    """Mean intensity per block x block tile of each (height, width) image, row-major."""
    m, height, width = pixels.shape
    if block < 1:
        raise DataError(f"pool block must be at least 1, got {block}")
    if width % block or height % block:
        raise DataError(f"block {block} does not divide {width}x{height}")
    tiles = pixels.reshape(m, height // block, block, width // block, block).sum(axis=(2, 4))
    return tiles.reshape(m, -1) / (block * block)


def extract_features(collection, width: int = 64, height: int = 64, block: int = 4):
    """The feature vectors of a scaled numeric collection, as a collection of the same ids.

    Each series is drawn as a binary ``width`` x ``height`` polyline image:
    time maps onto columns [0, width-1], value 0 onto the bottom row and
    value 1 onto the top row, with no anti-aliasing.  Its vector is the
    mean intensity of each ``block`` x ``block`` tile, row-major, so with
    ``block=1`` it is the image's pixels.  ``_BLOCK_SERIES`` series are
    drawn at a time.
    """
    paths, tiles = {}, []
    for lo in range(0, len(collection), _BLOCK_SERIES):
        rows, cols = _pixel_coords(collection.values[lo : lo + _BLOCK_SERIES], width, height)
        tiles.append(_pool(_draw(rows, cols, width, height, paths), block))
    return SeriesCollection(collection.ids, np.concatenate(tiles) if tiles else np.empty((0, 0)))


def write_features_csv(features, path):
    if not len(features):
        raise DataError("no feature vectors to write")
    write_table(path, ["series_id"] + [f"f{i + 1}" for i in range(features.values.shape[1])],
                features.ids, features.values)


def load_external_features(path):
    """Load feature vectors from CSV (header series_id,f1,...,fm) as a collection.

    Ragged rows, non-numeric or non-finite cells and a repeated id are
    errors, raised by ``read_table``.
    """
    header, ids, features = read_table(path)
    if len(header) < 2:
        raise DataError(f"{path}: feature file needs at least one feature column")
    return SeriesCollection(ids, features)


def cluster_features(features, k: int, seed: int = 0) -> clustering.ClusterAssignment:
    """k-means over the rows of a feature collection."""
    if not len(features):
        raise DataError("no feature vectors")
    assignment = clustering.kmeans(features, k=k, seed=seed)
    assignment.algorithm = f"kmeans+features[features.csv](k={k})"
    return assignment
