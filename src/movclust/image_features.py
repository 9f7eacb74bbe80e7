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


#: Pixels of the cube that extract_features draws at a time: 256 series of 64x64.
_BLOCK_PIXELS = 1 << 20


def _pixel_coords(values, width, height):
    """Validate a (series x time) block of scaled values; return its pixel rows and columns."""
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
    assignment into the flat cube: the pixels of segment s are its start's
    flat index, (s * height + r0) * width + c0, plus the offset's path of
    flat steps, dr' * width + dc'.  ``paths`` caches the path of each offset.
    """
    m = len(rows)
    cube = np.zeros((m, height, width), dtype=bool)
    flat = cube.reshape(-1)
    r0 = rows[:, :-1]
    base = ((np.arange(m)[:, None] * height + r0) * width + cols[:-1]).reshape(-1)
    # columns never decrease and dc < width, so the code identifies (dr, dc);
    # |code| < height * width, so it fits int16, which sorts by radix, when that is at most 2**15
    codes = ((rows[:, 1:] - r0) * width + np.diff(cols)).reshape(-1)
    if height * width <= 1 << 15:
        codes = codes.astype(np.int16)
    order = np.argsort(codes, kind="stable")
    codes = codes[order]
    starts = np.flatnonzero(codes[1:] != codes[:-1]) + 1
    for code, segments in zip(codes[np.r_[0, starts]].tolist(), np.split(order, starts)):
        if code not in paths:
            path_r, path_c = np.array(list(_bresenham(0, 0, *divmod(code, width)))).T
            paths[code] = path_r * width + path_c
        flat[base[segments][:, None] + paths[code]] = True
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
    ``block=1`` it is the image's pixels.  As many series as fill
    ``_BLOCK_PIXELS`` pixels, and at least one, are drawn at a time.
    """
    if width < 2 or height < 2:
        raise DataError(f"grid must be at least 2x2, got {width}x{height}")
    step = max(1, _BLOCK_PIXELS // (width * height))
    paths, tiles = {}, []
    for lo in range(0, len(collection), step):
        rows, cols = _pixel_coords(collection.values[lo : lo + step], width, height)
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
