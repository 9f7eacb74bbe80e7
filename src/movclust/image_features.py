"""Image branch: rasterize series, pool features, ingest external vectors.

The built-in extractor draws each series as a binary polyline image and
block-averages it into a fixed-length vector; externally computed feature
vectors (e.g. from a pretrained CNN run elsewhere) can be loaded from CSV
and clustered the same way.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import clustering
from .errors import DataError
from .tables import read_table, write_table


@dataclass
class ImageGrid:
    width: int
    height: int
    pixels: np.ndarray  # shape (height, width), row 0 at the top, values 0/1

    def __post_init__(self):
        self.pixels = np.asarray(self.pixels, dtype=float)
        if self.pixels.shape != (self.height, self.width):
            raise DataError(f"pixel shape {self.pixels.shape} != ({self.height}, {self.width})")


@dataclass
class FeatureVector:
    series_id: str
    features: np.ndarray
    extractor: str

    def __post_init__(self):
        self.features = np.asarray(self.features, dtype=float)


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


#: Series rasterized together by extract_features; bounds the pixel cube.
_BLOCK_SERIES = 256


def _pixel_coords(values, width, height):
    """Validate a (series x time) block of scaled values; return its pixel rows and columns."""
    if width < 2 or height < 2:
        raise DataError(f"grid must be at least 2x2, got {width}x{height}")
    values = np.asarray(values, dtype=float)
    if np.isnan(values).any():
        raise DataError("rasterize requires a complete series")
    if (values < 0).any() or (values > 1).any():
        raise DataError("rasterize expects values in [0, 1] (scaled series)")
    n = values.shape[1]
    if n < 2:
        raise DataError("rasterize needs at least 2 points")
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


def rasterize(series, width: int = 64, height: int = 64) -> ImageGrid:
    """Draw the series polyline into a binary width x height grid.

    Time maps onto columns [0, width-1]; value 0 maps to the bottom row and
    value 1 to the top row.  No anti-aliasing: pixels are 0 or 1.
    """
    values = np.asarray(getattr(series, "values", series), dtype=float)
    rows, cols = _pixel_coords(values[None, :], width, height)
    pixels = _draw(rows, cols, width, height, {})[0]
    return ImageGrid(width=width, height=height, pixels=pixels)


def pool_features(image: ImageGrid, block: int = 4, series_id: str = "") -> FeatureVector:
    """Average intensity per non-overlapping block x block tile, row-major."""
    return FeatureVector(
        series_id=series_id,
        features=_pool(image.pixels[None], block)[0],
        extractor=f"raster{image.width}x{image.height}/pool{block}",
    )


def extract_features(collection, width: int = 64, height: int = 64, block: int = 4):
    """Rasterize-and-pool every series of a scaled numeric collection.

    Equal to ``pool_features(rasterize(s))`` per series, computed for
    ``_BLOCK_SERIES`` series at a time.
    """
    extractor = f"raster{width}x{height}/pool{block}"
    paths = {}
    vectors = []
    for lo in range(0, len(collection), _BLOCK_SERIES):
        chunk = slice(lo, lo + _BLOCK_SERIES)
        rows, cols = _pixel_coords(collection.values[chunk], width, height)
        tiles = _pool(_draw(rows, cols, width, height, paths), block)
        vectors += [FeatureVector(sid, t, extractor) for sid, t in zip(collection.ids[chunk], tiles)]
    return vectors


def write_features_csv(vectors, path):
    if not vectors:
        raise DataError("no feature vectors to write")
    m = len(vectors[0].features)
    for vec in vectors:
        if len(vec.features) != m:
            raise DataError(f"{vec.series_id}: inconsistent feature length")
    write_table(
        path,
        ["series_id"] + [f"f{i + 1}" for i in range(m)],
        [vec.series_id for vec in vectors],
        [vec.features for vec in vectors],
    )


def load_external_features(path, known_ids=None, extractor: str = "external"):
    """Load feature vectors from CSV (header series_id,f1,...,fm).

    Ragged rows, non-numeric or non-finite cells, and ids outside
    ``known_ids`` are errors.
    """
    header, ids, features = read_table(path)
    if len(header) < 2:
        raise DataError(f"{path}: feature file needs at least one feature column")
    if known_ids is not None:
        unknown = sorted(sid for sid in ids if sid not in known_ids)
        if unknown:
            raise DataError(f"unknown series ids in feature file: {unknown}")
    return [FeatureVector(sid, row, extractor) for sid, row in zip(ids, features)]


def cluster_features(vectors, k: int, seed: int = 0) -> clustering.ClusterAssignment:
    """k-means over feature vectors; the descriptor records the extractor."""
    if not vectors:
        raise DataError("no feature vectors")
    extractors = {v.extractor for v in vectors}
    if len(extractors) > 1:
        raise DataError(f"mixed extractors in one collection: {sorted(extractors)}")
    X = np.stack([v.features for v in vectors])
    ids = [v.series_id for v in vectors]
    assignment = clustering.kmeans(X, ids, k=k, seed=seed)
    assignment.algorithm = f"kmeans+features[{extractors.pop()}](k={k})"
    return assignment


def write_pgm(image: ImageGrid, path):
    """P2 ASCII dump for visual inspection (maxval 1)."""
    lines = ["P2", f"{image.width} {image.height}", "1"]
    for row in image.pixels.astype(int):
        lines.append(" ".join(str(v) for v in row))
    with open(str(path), "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")
