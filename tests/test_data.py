"""IDX parsing, preprocessing, benchmark subsampling, synthetic blobs."""

import gzip
import struct

import numpy as np
import pytest

from qmit import data
from qmit.errors import DataFormatError, ValidationError


@pytest.fixture
def idx_pair(tmp_path):
    rng = np.random.default_rng(1)
    images = rng.integers(0, 256, size=(30, 28, 28), dtype=np.uint8)
    labels = rng.integers(0, 10, size=30, dtype=np.uint8)
    img_path = tmp_path / "images-idx3-ubyte"
    lab_path = tmp_path / "labels-idx1-ubyte"
    data.save_idx_images(img_path, images)
    data.save_idx_labels(lab_path, labels)
    return img_path, lab_path, images, labels


class TestLoadIdx:
    def test_roundtrip(self, idx_pair):
        img_path, lab_path, images, labels = idx_pair
        got_images, got_labels = data.load_idx(img_path, lab_path)
        assert np.array_equal(got_images, images)
        assert np.array_equal(got_labels, labels)

    def test_gzip_transparent(self, tmp_path, idx_pair):
        img_path, lab_path, images, labels = idx_pair
        gz_img = tmp_path / "images.gz"
        gz_lab = tmp_path / "labels.gz"
        gz_img.write_bytes(gzip.compress(img_path.read_bytes()))
        gz_lab.write_bytes(gzip.compress(lab_path.read_bytes()))
        got_images, got_labels = data.load_idx(gz_img, gz_lab)
        assert np.array_equal(got_images, images)
        assert np.array_equal(got_labels, labels)

    def test_wrong_magic_names_offset_zero(self, tmp_path, idx_pair):
        img_path, *_ = idx_pair
        bad = tmp_path / "bad"
        payload = bytearray(img_path.read_bytes())
        payload[:4] = struct.pack(">I", 0x00000801)
        bad.write_bytes(payload)
        with pytest.raises(DataFormatError, match="offset 0"):
            data.load_idx_images(bad)

    def test_truncated_pixels_names_expected_length(self, tmp_path, idx_pair):
        img_path, *_ = idx_pair
        bad = tmp_path / "trunc"
        bad.write_bytes(img_path.read_bytes()[:-100])
        with pytest.raises(DataFormatError, match="expected"):
            data.load_idx_images(bad)

    @pytest.mark.parametrize("compress", [False, True])
    @pytest.mark.parametrize("kind", ["images", "labels"])
    def test_oversized_count_is_truncation(self, tmp_path, idx_pair, kind, compress):
        """A header that claims 2**32 - 1 items (3.4 TB of 28x28 images)
        over a 30-item payload is a truncated section, read in bounded
        pieces rather than allocated at the claimed size."""
        img_path, lab_path, *_ = idx_pair
        path, load, section = {
            "images": (img_path, data.load_idx_images, "pixel section"),
            "labels": (lab_path, data.load_idx_labels, "label section"),
        }[kind]
        raw = bytearray(path.read_bytes())
        raw[4:8] = struct.pack(">I", 2**32 - 1)
        bad = tmp_path / "oversized"
        bad.write_bytes(gzip.compress(bytes(raw)) if compress else bytes(raw))
        with pytest.raises(DataFormatError, match=f"truncated {section}"):
            load(bad)

    def test_count_mismatch(self, tmp_path, idx_pair):
        img_path, _, _, labels = idx_pair
        short = tmp_path / "short-labels"
        data.save_idx_labels(short, labels[:-5])
        with pytest.raises(DataFormatError, match="labels"):
            data.load_idx(img_path, short)


def _both_loaders(idx_pair):
    """``(loader, raw file bytes)`` for images and for labels."""
    img_path, lab_path, *_ = idx_pair
    return [
        (data.load_idx_images, img_path.read_bytes()),
        (data.load_idx_labels, lab_path.read_bytes()),
    ]


class TestDamagedIdx:
    """Every damaged file is a DataFormatError naming the file, never a
    gzip or zlib exception and never a silently wrong array."""

    @pytest.mark.parametrize("which", [0, 1])
    def test_truncated_gzip(self, tmp_path, idx_pair, which):
        load, raw = _both_loaders(idx_pair)[which]
        blob = gzip.compress(raw)
        bad = tmp_path / "cut.gz"
        bad.write_bytes(blob[: len(blob) // 2])
        with pytest.raises(DataFormatError, match="cut.gz"):
            load(bad)

    @pytest.mark.parametrize("which", [0, 1])
    @pytest.mark.parametrize("offset,value", [
        (2, 7),  # compression method 7: the gzip header is bad
        (10, 0xFF),  # reserved deflate block type: the zlib stream is bad
    ])
    def test_damaged_gzip(self, tmp_path, idx_pair, which, offset, value):
        load, raw = _both_loaders(idx_pair)[which]
        blob = bytearray(gzip.compress(raw))
        blob[offset] = value
        bad = tmp_path / "damaged.gz"
        bad.write_bytes(blob)
        with pytest.raises(DataFormatError, match="damaged.gz"):
            load(bad)

    @pytest.mark.parametrize("which", [0, 1])
    def test_gzip_trailer_is_checked(self, tmp_path, idx_pair, which):
        """A stored (uncompressed) gzip block with its last payload byte
        flipped inflates cleanly; only the CRC32 trailer tells."""
        load, raw = _both_loaders(idx_pair)[which]
        blob = bytearray(gzip.compress(raw, compresslevel=0))
        last = blob.index(raw) + len(raw) - 1
        blob[last] ^= 0x01
        bad = tmp_path / "flipped.gz"
        bad.write_bytes(blob)
        with pytest.raises(DataFormatError, match="flipped.gz.*CRC"):
            load(bad)
        good = tmp_path / "stored.gz"
        good.write_bytes(gzip.compress(raw, compresslevel=0))
        load(good)

    @pytest.mark.parametrize("compress", [False, True])
    @pytest.mark.parametrize("which", [0, 1])
    def test_bytes_after_payload(self, tmp_path, idx_pair, which, compress):
        load, raw = _both_loaders(idx_pair)[which]
        longer = raw + b"\x00"
        bad = tmp_path / "longer"
        bad.write_bytes(gzip.compress(longer) if compress else longer)
        with pytest.raises(DataFormatError, match=f"longer: .*offset {len(raw)}$"):
            load(bad)


class TestPreprocess:
    def test_all_zero_image(self):
        np.testing.assert_allclose(data.preprocess_all(np.zeros((1, 28, 28), dtype=np.uint8)), 0.0)

    def test_all_max_image(self):
        np.testing.assert_allclose(
            data.preprocess_all(np.full((1, 28, 28), 255, dtype=np.uint8)), 1.0, atol=1e-12
        )

    def test_constant_preserved(self):
        """Bilinear interpolation reproduces constants exactly."""
        got = data.preprocess_all(np.full((1, 28, 28), 113, dtype=np.uint8))
        np.testing.assert_allclose(got, 113 / 255.0, atol=1e-12)

    def test_output_in_unit_interval(self):
        rng = np.random.default_rng(2)
        for _ in range(50):
            img = rng.integers(0, 256, size=(28, 28), dtype=np.uint8)
            feats = data.preprocess_all(img[None])
            assert feats.shape == (1, 64)
            assert feats.min() >= 0.0 and feats.max() <= 1.0

    def test_flatten_order_row_major(self):
        """Pixel block at image row r, column c lands at index 8r + c."""
        img = np.zeros((28, 28))
        img[0:2, 0:2] = 255.0  # top-left corner
        feats = data.bilinear_resize(img).reshape(64)
        assert feats[0] > 0.0
        assert np.argmax(feats) == 0
        img2 = np.zeros((28, 28))
        img2[26:28, 0:2] = 255.0  # bottom-left corner -> row 7, col 0
        feats2 = data.bilinear_resize(img2).reshape(64)
        assert np.argmax(feats2) == 8 * 7 + 0

    def test_corner_alignment(self):
        """Corner output samples coincide with corner input pixels."""
        rng = np.random.default_rng(3)
        img = rng.uniform(0, 255, (28, 28))
        resized = data.bilinear_resize(img)
        assert resized[0, 0] == pytest.approx(img[0, 0])
        assert resized[0, 7] == pytest.approx(img[0, 27])
        assert resized[7, 0] == pytest.approx(img[27, 0])
        assert resized[7, 7] == pytest.approx(img[27, 27])

    def test_rejects_wrong_shape(self):
        with pytest.raises(ValidationError):
            data.preprocess_all(np.zeros((1, 27, 28), dtype=np.uint8))

    def test_batched_resize_matches_per_image(self):
        """Chunked batch resize is bitwise the per-image resize, including a
        partial last chunk."""
        rng = np.random.default_rng(4)
        images = rng.integers(0, 256, size=(2 * data.RESIZE_CHUNK + 37, 28, 28), dtype=np.uint8)
        per_image = np.stack([data.bilinear_resize(img) for img in images])
        assert np.array_equal(data.bilinear_resize(images), per_image)
        expected = np.concatenate([data.preprocess_all(img[None]) for img in images])
        assert np.array_equal(data.preprocess_all(images), expected)
        assert np.array_equal(expected, per_image.reshape(-1, 64) / 255.0)

    def test_batched_resize_of_floats_upsamples(self):
        rng = np.random.default_rng(5)
        stack = rng.uniform(0, 255, (3, 8, 8))
        per_image = np.stack([data.bilinear_resize(img, 28) for img in stack])
        assert np.array_equal(data.bilinear_resize(stack, 28), per_image)

    def test_preprocess_all_rejects_wrong_shape(self):
        with pytest.raises(ValidationError):
            data.preprocess_all(np.zeros((3, 27, 28), dtype=np.uint8))


def _write_split(tmp_path, images, labels):
    """Paired IDX files of uint8 images and their labels."""
    img_path = tmp_path / "split-images-idx3-ubyte"
    lab_path = tmp_path / "split-labels-idx1-ubyte"
    data.save_idx_images(img_path, images)
    data.save_idx_labels(lab_path, labels)
    return img_path, lab_path


def _raw_split(tmp_path, rng, per_class=40, classes=10):
    labels = np.repeat(np.arange(classes, dtype=np.uint8), per_class)[
        rng.permutation(per_class * classes)
    ]
    images = rng.integers(0, 256, size=(labels.size, 28, 28), dtype=np.uint8)
    return _write_split(tmp_path, images, labels)


def _splits(paths, spec_name, train_cap, test_cap, seed):
    """Train then test split from the same files and one generator."""
    rng = np.random.default_rng(seed)
    spec = data.BENCHMARKS[spec_name]
    return tuple(data.dataset_from_idx(*paths, spec, cap, rng) for cap in (train_cap, test_cap))


class TestDatasetFromIdx:
    def test_mnist2_filters_and_remaps(self, tmp_path):
        rng = np.random.default_rng(4)
        paths = _raw_split(tmp_path, rng)
        train_set, test_set = _splits(paths, "MNIST-2", 20, 10, seed=0)
        assert set(train_set.labels) == {0, 1}
        assert set(test_set.labels) == {0, 1}
        assert len(train_set) == 20 and len(test_set) == 10

    def test_class_balance(self, tmp_path):
        rng = np.random.default_rng(5)
        paths = _raw_split(tmp_path, rng, per_class=300)
        train_set, test_set = _splits(paths, "MNIST-4", 1000, 500, seed=0)
        for k in range(4):
            assert np.sum(train_set.labels == k) == 250
            assert np.sum(test_set.labels == k) == 125

    def test_remap_follows_listing_order(self, tmp_path):
        """Fashion-2 maps source 3 (dress) to 0 and source 6 (shirt) to 1."""
        images = np.concatenate([
            np.zeros((5, 28, 28), dtype=np.uint8), np.full((5, 28, 28), 255, dtype=np.uint8)
        ])
        labels = np.array([3] * 5 + [6] * 5, dtype=np.uint8)
        paths = _write_split(tmp_path, images, labels)
        train_set, _ = _splits(paths, "Fashion-2", 4, 2, seed=1)
        for feat, label in zip(train_set.features, train_set.labels):
            assert label == (0 if feat[0] == 0.0 else 1)

    def test_deterministic_under_seed(self, tmp_path):
        rng = np.random.default_rng(7)
        paths = _raw_split(tmp_path, rng)
        a, _ = _splits(paths, "MNIST-4", 40, 20, seed=9)
        b, _ = _splits(paths, "MNIST-4", 40, 20, seed=9)
        assert np.array_equal(a.features, b.features)
        assert np.array_equal(a.labels, b.labels)

    def test_missing_class_raises(self, tmp_path):
        images = np.zeros((10, 28, 28), dtype=np.uint8)
        labels = np.zeros(10, dtype=np.uint8)  # only class 0 present
        paths = _write_split(tmp_path, images, labels)
        with pytest.raises(ValidationError, match="source class"):
            _splits(paths, "MNIST-2", 4, 2, seed=0)

    def test_too_few_samples_raises(self, tmp_path):
        images = np.zeros((4, 28, 28), dtype=np.uint8)
        labels = np.array([3, 3, 3, 6], dtype=np.uint8)  # one shirt, two wanted
        paths = _write_split(tmp_path, images, labels)
        with pytest.raises(ValidationError, match="class 6 has 1 samples, need 2"):
            _splits(paths, "Fashion-2", 4, 2, seed=0)


class TestSyntheticBlobs:
    def test_deterministic(self):
        a = data.synthetic_blobs(2, 25, 3.0, seed=5)
        b = data.synthetic_blobs(2, 25, 3.0, seed=5)
        assert np.array_equal(a.features, b.features)
        assert np.array_equal(a.labels, b.labels)

    def test_linear_probe_at_separation_three(self):
        """A least-squares probe on raw features is near perfect."""
        dataset = data.synthetic_blobs(2, 150, 3.0, seed=8)
        x = np.hstack([dataset.features, np.ones((len(dataset), 1))])
        y = 2.0 * dataset.labels - 1.0
        w, *_ = np.linalg.lstsq(x, y, rcond=None)
        acc = float(np.mean(np.sign(x @ w) == y))
        assert acc >= 0.99

    def test_zero_separation_coincides(self):
        """Anchors coincide, so mean separation is pure sampling noise."""
        dataset = data.synthetic_blobs(2, 400, 0.0, seed=9)
        mean0 = dataset.features[dataset.labels == 0].mean(axis=0)
        mean1 = dataset.features[dataset.labels == 1].mean(axis=0)
        assert np.linalg.norm(mean0 - mean1) < 0.05
        separated = data.synthetic_blobs(2, 400, 3.0, seed=9)
        s0 = separated.features[separated.labels == 0].mean(axis=0)
        s1 = separated.features[separated.labels == 1].mean(axis=0)
        assert np.linalg.norm(s0 - s1) > 4 * np.linalg.norm(mean0 - mean1)

    def test_four_class_counts(self):
        dataset = data.synthetic_blobs(4, 30, 2.0, seed=10)
        assert len(dataset) == 120
        for k in range(4):
            assert np.sum(dataset.labels == k) == 30

    def test_features_in_unit_interval(self):
        dataset = data.synthetic_blobs(4, 50, 4.0, seed=11)
        assert dataset.features.min() >= 0.0 and dataset.features.max() <= 1.0

    def test_rejects_bad_class_count(self):
        with pytest.raises(ValidationError):
            data.synthetic_blobs(3, 10, 1.0, seed=0)
