"""Shared test settings and fixtures.

The hypothesis profile makes property tests deterministic.  The fixture is
a hermetic IDX image corpus for the benchmark pipeline.

Real MNIST/Fashion IDX files are used when QMIT_DATA_DIR points at them.
Otherwise a surrogate corpus is generated from scikit-learn's bundled 8x8
handwritten-digits dataset: images are upsampled to 28x28, augmented with
seeded shifts and pixel noise to fill the standard caps, and written as
genuine IDX files so every pipeline stage (parsing, resizing, filtering)
is exercised unmodified.
"""

import os

import numpy as np
import pytest
from hypothesis import settings

from qmit import data

# Property tests draw the same examples on every run and keep no example
# database, so tier-1 stays deterministic; no deadline, because timing on a
# shared host varies.
settings.register_profile("qmit", derandomize=True, database=None, deadline=None)
settings.load_profile("qmit")

TRAIN_AUG = 3
TEST_AUG = 5
TRAIN_FRACTION = 0.78


def _upsample(img8: np.ndarray) -> np.ndarray:
    return data.bilinear_resize(img8.astype(float) * (255.0 / 16.0), 28)


def _augment(img28: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    dy, dx = rng.integers(-2, 3, size=2)
    shifted = np.roll(np.roll(img28, dy, axis=0), dx, axis=1)
    noisy = shifted * rng.uniform(0.85, 1.15) + rng.normal(0.0, 6.0, shifted.shape)
    return np.clip(noisy, 0.0, 255.0)


def build_surrogate_idx(out_dir, seed: int = 1234) -> None:
    """Write train/test IDX files for digit classes 0-9 into ``out_dir``."""
    sklearn_datasets = pytest.importorskip(
        "sklearn.datasets", reason="surrogate digit corpus needs scikit-learn"
    )
    bunch = sklearn_datasets.load_digits()
    images8 = bunch.images  # (N, 8, 8) with values 0..16
    labels = bunch.target.astype(np.uint8)
    rng = np.random.default_rng(seed)

    train_images, train_labels, test_images, test_labels = [], [], [], []
    for digit in range(10):
        idx = np.flatnonzero(labels == digit)
        cut = int(len(idx) * TRAIN_FRACTION)
        for source_idx, sink_i, sink_l, copies in (
            (idx[:cut], train_images, train_labels, TRAIN_AUG),
            (idx[cut:], test_images, test_labels, TEST_AUG),
        ):
            for i in source_idx:
                base = _upsample(images8[i])
                sink_i.append(base)
                sink_l.append(digit)
                for _ in range(copies - 1):
                    sink_i.append(_augment(base, rng))
                    sink_l.append(digit)

    os.makedirs(out_dir, exist_ok=True)
    data.save_idx_images(
        os.path.join(out_dir, "train-images-idx3-ubyte"),
        np.stack(train_images).astype(np.uint8),
    )
    data.save_idx_labels(
        os.path.join(out_dir, "train-labels-idx1-ubyte"), np.array(train_labels, dtype=np.uint8)
    )
    data.save_idx_images(
        os.path.join(out_dir, "t10k-images-idx3-ubyte"), np.stack(test_images).astype(np.uint8)
    )
    data.save_idx_labels(
        os.path.join(out_dir, "t10k-labels-idx1-ubyte"), np.array(test_labels, dtype=np.uint8)
    )


@pytest.fixture(scope="session")
def digits_idx_dir(tmp_path_factory):
    """Directory with MNIST-format IDX files: real ones if QMIT_DATA_DIR is
    set, otherwise the generated surrogate corpus."""
    env_dir = os.environ.get("QMIT_DATA_DIR")
    if env_dir:
        return env_dir
    out = tmp_path_factory.mktemp("idx-corpus")
    build_surrogate_idx(out)
    return str(out)
