import numpy as np
import pytest
from hypothesis import given, strategies as st

from movclust import image_features as imf
from movclust.errors import DataError

from conftest import DIFFERENTIAL, collection, ts
from scalar_reference import pool_features_ref, rasterize_ref


class TestRasterize:
    def test_constant_series_single_bottom_row(self):
        grid = imf.rasterize(ts("A", [0.1] * 20))
        row = 63 - round(0.1 * 63)
        assert grid.pixels[row].sum() == 64
        assert grid.pixels.sum() == 64  # nothing outside that row
        assert row > 32  # bottom half

    def test_ramp_is_monotone_staircase(self):
        values = np.linspace(0.1, 1.0, 30)
        grid = imf.rasterize(ts("A", values))
        assert grid.pixels[63 - round(0.1 * 63), 0] == 1  # bottom-left start
        assert grid.pixels[0, 63] == 1  # top-right end
        top_row = [np.flatnonzero(grid.pixels[:, c]).min() for c in range(64)]
        assert all(a >= b for a, b in zip(top_row, top_row[1:]))  # never descends

    def test_binary_intensities(self):
        rng = np.random.default_rng(30)
        grid = imf.rasterize(ts("A", rng.uniform(0.1, 1.0, size=40)))
        assert set(np.unique(grid.pixels)) <= {0.0, 1.0}

    def test_deterministic(self):
        values = np.linspace(0.1, 0.9, 25) ** 2 + 0.1
        a = imf.rasterize(ts("A", values))
        b = imf.rasterize(ts("A", values))
        assert a.pixels.tobytes() == b.pixels.tobytes()

    def test_size_validation(self):
        with pytest.raises(DataError):
            imf.rasterize(ts("A", [0.1, 0.5]), width=1)

    def test_requires_scaled_values(self):
        with pytest.raises(DataError):
            imf.rasterize(ts("A", [0.1, 1.5]))

    def test_scale_consistency(self):
        # a series and its per-series min-max rescaling hit the same rows
        from movclust.core_data import minmax_scale

        values = np.array([0.1, 0.4, 0.7, 1.0, 0.2])
        series = ts("A", values)
        rescaled = minmax_scale(ts("A", values * 1.0))
        a = imf.rasterize(series)
        b = imf.rasterize(rescaled)
        assert a.pixels.tobytes() == b.pixels.tobytes()


class TestPoolFeatures:
    def make_grid(self, pixels):
        pixels = np.asarray(pixels, dtype=float)
        return imf.ImageGrid(width=pixels.shape[1], height=pixels.shape[0], pixels=pixels)

    def test_all_zero(self):
        vec = imf.pool_features(self.make_grid(np.zeros((8, 8))), block=4)
        assert vec.features.tolist() == [0, 0, 0, 0]

    def test_all_one(self):
        vec = imf.pool_features(self.make_grid(np.ones((8, 8))), block=4)
        assert vec.features.tolist() == [1, 1, 1, 1]

    def test_single_lit_quadrant(self):
        pixels = np.zeros((8, 8))
        pixels[:4, :4] = 1.0
        vec = imf.pool_features(self.make_grid(pixels), block=4)
        assert vec.features.tolist() == [1, 0, 0, 0]

    def test_mass_preservation(self):
        rng = np.random.default_rng(31)
        pixels = (rng.random((64, 64)) < 0.3).astype(float)
        vec = imf.pool_features(self.make_grid(pixels), block=4)
        assert abs(vec.features.mean() - pixels.mean()) < 1e-12

    def test_non_divisible_block(self):
        with pytest.raises(DataError):
            imf.pool_features(self.make_grid(np.zeros((10, 10))), block=4)


class TestExternalFeatures:
    def test_load(self, tmp_path):
        path = tmp_path / "features.csv"
        path.write_text("series_id,f1,f2,f3\nA,1,2,3\nB,4,5,6\n")
        vectors = imf.load_external_features(path, known_ids={"A", "B"})
        assert [v.series_id for v in vectors] == ["A", "B"]
        assert vectors[0].features.tolist() == [1, 2, 3]
        assert vectors[0].extractor == "external"

    def test_ragged_row(self, tmp_path):
        path = tmp_path / "features.csv"
        path.write_text("series_id,f1,f2,f3\nA,1,2,3\nB,4,5\n")
        with pytest.raises(DataError, match="ragged"):
            imf.load_external_features(path)

    def test_unknown_id(self, tmp_path):
        path = tmp_path / "features.csv"
        path.write_text("series_id,f1\nA,1\nZ,2\n")
        with pytest.raises(DataError, match="Z"):
            imf.load_external_features(path, known_ids={"A"})

    def test_non_numeric(self, tmp_path):
        path = tmp_path / "features.csv"
        path.write_text("series_id,f1\nA,oops\n")
        with pytest.raises(DataError, match="non-numeric"):
            imf.load_external_features(path)

    def test_roundtrip(self, tmp_path):
        vectors = [
            imf.FeatureVector("A", [0.5, 0.25], "ext"),
            imf.FeatureVector("B", [1.0, 0.0], "ext"),
        ]
        path = tmp_path / "features.csv"
        imf.write_features_csv(vectors, path)
        back = imf.load_external_features(path)
        assert [v.features.tolist() for v in back] == [[0.5, 0.25], [1.0, 0.0]]


class TestClusterFeatures:
    def flat_and_wavy(self, n_each=5):
        t = np.arange(40)
        series = []
        for i in range(n_each):
            series.append(ts(f"flat{i}", np.full(40, 0.1 + 0.01 * i)))
        for i in range(n_each):
            wave = 0.55 + 0.45 * np.sign(np.sin(t * (1.0 + 0.05 * i)))
            series.append(ts(f"wave{i}", np.clip(wave, 0.1, 1.0)))
        return series

    def test_two_groups_of_identical_images(self):
        series = self.flat_and_wavy(3)
        vectors = [
            imf.pool_features(imf.rasterize(s), series_id=s.series_id) for s in series
        ]
        out = imf.cluster_features(vectors, k=2, seed=0)
        groups = {
            frozenset(out.members(c)) for c in range(1, 3)
        }
        assert groups == {
            frozenset({"flat0", "flat1", "flat2"}),
            frozenset({"wave0", "wave1", "wave2"}),
        }

    def test_identical_seed_identical_labels(self):
        series = self.flat_and_wavy(4)
        vectors = [
            imf.pool_features(imf.rasterize(s), series_id=s.series_id) for s in series
        ]
        a = imf.cluster_features(vectors, k=2, seed=7)
        b = imf.cluster_features(vectors, k=2, seed=7)
        assert a.labels == b.labels

    def test_algorithm_records_extractor(self):
        series = self.flat_and_wavy(2)
        vectors = [
            imf.pool_features(imf.rasterize(s), series_id=s.series_id) for s in series
        ]
        out = imf.cluster_features(vectors, k=2, seed=0)
        assert "pool" in out.algorithm

    def test_mixed_extractors_rejected(self):
        vectors = [
            imf.FeatureVector("A", [1.0], "x"),
            imf.FeatureVector("B", [2.0], "y"),
        ]
        with pytest.raises(DataError):
            imf.cluster_features(vectors, k=2, seed=0)


class TestPgm:
    def test_dump(self, tmp_path):
        pixels = np.zeros((2, 3))
        pixels[0, 1] = 1.0
        grid = imf.ImageGrid(width=3, height=2, pixels=pixels)
        path = tmp_path / "grid.pgm"
        imf.write_pgm(grid, path)
        assert path.read_text() == "P2\n3 2\n1\n0 1 0\n0 0 0\n"


def _same_vectors(got, expected):
    assert [(v.series_id, v.extractor, v.features.tobytes()) for v in got] == [
        (v.series_id, v.extractor, v.features.tobytes()) for v in expected
    ]


class TestRasterMatchesSegmentLoop:
    @DIFFERENTIAL
    @given(st.data())
    def test_random_series(self, data):
        block = data.draw(st.sampled_from([1, 2, 3, 4]), label="block")
        width = block * data.draw(st.integers(-(-2 // block), 12), label="width")
        height = block * data.draw(st.integers(-(-2 // block), 12), label="height")
        n = data.draw(st.integers(2, 3 * width), label="n")  # fewer or more points than columns
        level = st.sampled_from([0.0, 1.0]) | st.floats(0.0, 1.0)
        shapes = {
            "random": st.lists(level, min_size=n, max_size=n),
            "flat": level.map(lambda v: [v] * n),
            "full-height jumps": st.just([float(t % 2) for t in range(n)]),
        }
        series = [
            ts(f"s{i}", data.draw(shapes[data.draw(st.sampled_from(sorted(shapes)))]))
            for i in range(data.draw(st.integers(1, 4), label="series"))
        ]
        expected = [rasterize_ref(s, width, height) for s in series]
        for s, grid in zip(series, expected):
            assert imf.rasterize(s, width, height).pixels.tobytes() == grid.pixels.tobytes()
        _same_vectors(
            imf.extract_features(collection(series), width, height, block),
            [pool_features_ref(g, block, series_id=s.series_id) for s, g in zip(series, expected)],
        )

    def test_several_blocks_of_series(self):
        rng = np.random.default_rng(5)
        series = [
            ts(f"s{i:03d}", rng.uniform(0.0, 1.0, size=50))
            for i in range(2 * imf._BLOCK_SERIES + 7)
        ]
        _same_vectors(
            imf.extract_features(collection(series)),
            [pool_features_ref(rasterize_ref(s), series_id=s.series_id) for s in series],
        )

    def test_pool_of_grey_pixels(self):
        rng = np.random.default_rng(6)
        grid = imf.ImageGrid(width=8, height=12, pixels=rng.random((12, 8)))
        for block in (1, 2, 4):
            _same_vectors([imf.pool_features(grid, block, "g")],
                          [pool_features_ref(grid, block, "g")])
