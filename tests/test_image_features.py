import numpy as np
import pytest
from hypothesis import given, strategies as st

from movclust import core_data as cd, image_features as imf
from movclust.core_data import SeriesCollection
from movclust.errors import DataError

from conftest import DIFFERENTIAL, collection, ts
from scalar_reference import pool_features_ref, rasterize_ref


def raster(values, width=64, height=64):
    """The (height, width) image of one series: its feature vector with block 1."""
    features = imf.extract_features(ts("A", values), width, height, block=1)
    return features.values[0].reshape(height, width)


def pool(pixels, block=4):
    """The tile means of one (height, width) image."""
    return imf._pool(np.asarray(pixels, dtype=float)[None], block)[0]


class TestRasterize:
    def test_constant_series_single_bottom_row(self):
        pixels = raster([0.1] * 20)
        row = 63 - round(0.1 * 63)
        assert pixels[row].sum() == 64
        assert pixels.sum() == 64  # nothing outside that row
        assert row > 32  # bottom half

    def test_ramp_is_monotone_staircase(self):
        pixels = raster(np.linspace(0.1, 1.0, 30))
        assert pixels[63 - round(0.1 * 63), 0] == 1  # bottom-left start
        assert pixels[0, 63] == 1  # top-right end
        top_row = [np.flatnonzero(pixels[:, c]).min() for c in range(64)]
        assert all(a >= b for a, b in zip(top_row, top_row[1:]))  # never descends

    def test_binary_intensities(self):
        rng = np.random.default_rng(30)
        pixels = raster(rng.uniform(0.1, 1.0, size=40))
        assert set(np.unique(pixels)) <= {0.0, 1.0}

    def test_deterministic(self):
        values = np.linspace(0.1, 0.9, 25) ** 2 + 0.1
        assert raster(values).tobytes() == raster(values).tobytes()

    def test_size_validation(self):
        with pytest.raises(DataError):
            raster([0.1, 0.5], width=1)

    def test_requires_scaled_values(self):
        with pytest.raises(DataError):
            raster([0.1, 1.5])

    def test_scale_consistency(self):
        # a series and its per-series min-max rescaling hit the same rows
        values = np.array([0.1, 0.4, 0.7, 1.0, 0.2])
        rescaled = cd.scale_collection(ts("A", values * 1.0)).values[0]
        assert raster(values).tobytes() == raster(rescaled).tobytes()


class TestPoolFeatures:
    def test_all_zero(self):
        assert pool(np.zeros((8, 8))).tolist() == [0, 0, 0, 0]

    def test_all_one(self):
        assert pool(np.ones((8, 8))).tolist() == [1, 1, 1, 1]

    def test_single_lit_quadrant(self):
        pixels = np.zeros((8, 8))
        pixels[:4, :4] = 1.0
        assert pool(pixels).tolist() == [1, 0, 0, 0]

    def test_mass_preservation(self):
        rng = np.random.default_rng(31)
        pixels = (rng.random((64, 64)) < 0.3).astype(float)
        assert abs(pool(pixels).mean() - pixels.mean()) < 1e-12

    def test_non_divisible_block(self):
        with pytest.raises(DataError):
            pool(np.zeros((10, 10)))

    @pytest.mark.parametrize("block", [0, -4])
    def test_block_below_one(self, block):
        with pytest.raises(DataError, match=f"pool block must be at least 1, got {block}"):
            imf.extract_features(ts("A", [0.1, 0.5]), 8, 8, block)


class TestExternalFeatures:
    def test_load(self, tmp_path):
        path = tmp_path / "features.csv"
        path.write_text("series_id,f1,f2,f3\nA,1,2,3\nB,4,5,6\n")
        features = imf.load_external_features(path)
        assert features.ids == ["A", "B"]
        assert features.values.tolist() == [[1, 2, 3], [4, 5, 6]]

    def test_ragged_row(self, tmp_path):
        path = tmp_path / "features.csv"
        path.write_text("series_id,f1,f2,f3\nA,1,2,3\nB,4,5\n")
        with pytest.raises(DataError, match="ragged"):
            imf.load_external_features(path)

    def test_non_numeric(self, tmp_path):
        path = tmp_path / "features.csv"
        path.write_text("series_id,f1\nA,oops\n")
        with pytest.raises(DataError, match="non-numeric"):
            imf.load_external_features(path)

    def test_repeated_id_names_file_line_and_id(self, tmp_path):
        path = tmp_path / "features.csv"
        path.write_text("series_id,f1\nA,1\nB,2\nA,3\n")
        with pytest.raises(DataError, match=f"^{path}, line 4: duplicate series_id 'A'$"):
            imf.load_external_features(path)

    def test_roundtrip(self, tmp_path):
        features = SeriesCollection(["A", "B"], [[0.5, 0.25], [1.0, 0.0]])
        path = tmp_path / "features.csv"
        imf.write_features_csv(features, path)
        back = imf.load_external_features(path)
        assert back.ids == ["A", "B"]
        assert back.values.tolist() == [[0.5, 0.25], [1.0, 0.0]]


class TestClusterFeatures:
    def flat_and_wavy(self, n_each=5):
        t = np.arange(40)
        series = []
        for i in range(n_each):
            series.append(ts(f"flat{i}", np.full(40, 0.1 + 0.01 * i)))
        for i in range(n_each):
            wave = 0.55 + 0.45 * np.sign(np.sin(t * (1.0 + 0.05 * i)))
            series.append(ts(f"wave{i}", np.clip(wave, 0.1, 1.0)))
        return imf.extract_features(collection(series))

    def test_two_groups_of_identical_images(self):
        out = imf.cluster_features(self.flat_and_wavy(3), k=2, seed=0)
        groups = {
            frozenset(out.members(c)) for c in range(1, 3)
        }
        assert groups == {
            frozenset({"flat0", "flat1", "flat2"}),
            frozenset({"wave0", "wave1", "wave2"}),
        }

    def test_identical_seed_identical_labels(self):
        features = self.flat_and_wavy(4)
        a = imf.cluster_features(features, k=2, seed=7)
        b = imf.cluster_features(features, k=2, seed=7)
        assert a.labels == b.labels

    def test_algorithm_records_extractor(self):
        # the label names features.csv, the artifact every feature collection is clustered from
        out = imf.cluster_features(self.flat_and_wavy(2), k=2, seed=0)
        assert out.algorithm == "kmeans+features[features.csv](k=2)"


def _same_features(got, ids, expected):
    assert got.ids == ids
    assert got.values.tobytes() == np.stack(expected).tobytes()


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
        expected = [rasterize_ref(s.values[0], width, height) for s in series]
        for s, pixels in zip(series, expected):
            assert raster(s.values[0], width, height).tobytes() == pixels.tobytes()
        _same_features(
            imf.extract_features(collection(series), width, height, block),
            [s.ids[0] for s in series],
            [pool_features_ref(pixels, block) for pixels in expected],
        )

    def test_several_blocks_of_series(self):
        rng = np.random.default_rng(5)
        series = [
            ts(f"s{i:03d}", rng.uniform(0.0, 1.0, size=50))
            for i in range(2 * (imf._BLOCK_PIXELS // (64 * 64)) + 7)
        ]
        _same_features(
            imf.extract_features(collection(series)),
            [s.ids[0] for s in series],
            [pool_features_ref(rasterize_ref(s.values[0])) for s in series],
        )

    @pytest.mark.parametrize("width, height, block", [(256, 256, 16), (200, 64, 8), (64, 520, 8)])
    def test_large_and_non_square_grids(self, width, height, block):
        """Grids of more than 2**15 pixels (256x256, 64x520), whose offset codes do not fit int16."""
        rng = np.random.default_rng(8)
        for n in (2, 9, 30, 365):  # fewer and more points than columns
            series = [
                ts("flat", [0.5] * n),
                ts("full-height jumps", [float(t % 2) for t in range(n)]),
                ts("random", rng.uniform(0.0, 1.0, size=n)),
            ]
            expected = [rasterize_ref(s.values[0], width, height) for s in series]
            _same_features(
                imf.extract_features(collection(series), width, height, block),
                [s.ids[0] for s in series],
                [pool_features_ref(pixels, block) for pixels in expected],
            )
            assert raster(series[2].values[0], width, height).tobytes() == expected[2].tobytes()

    def test_pool_of_grey_pixels(self):
        rng = np.random.default_rng(6)
        pixels = rng.random((12, 8))
        for block in (1, 2, 4):
            assert pool(pixels, block).tobytes() == pool_features_ref(pixels, block).tobytes()
