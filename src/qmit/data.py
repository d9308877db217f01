"""Dataset ingestion: IDX files, 8x8 preprocessing, benchmark filtering,
and a synthetic generator for hermetic tests.

IDX is the big-endian, magic-numbered binary format of the common
handwritten-digit distributions; gzip-compressed files are read
transparently.
"""

from __future__ import annotations

import gzip
import struct
from dataclasses import dataclass

import numpy as np

from .errors import DataFormatError, ValidationError

IDX_IMAGE_MAGIC = 0x00000803
IDX_LABEL_MAGIC = 0x00000801
FEATURES = 64
TARGET_SIDE = 8


@dataclass
class Dataset:
    """Preprocessed feature vectors with integer labels."""

    features: np.ndarray  # (N, 64) float64 in [0, 1]
    labels: np.ndarray  # (N,) int64

    def __post_init__(self):
        self.features = np.asarray(self.features, dtype=float)
        self.labels = np.asarray(self.labels, dtype=np.int64)
        if self.features.ndim != 2 or self.features.shape[1] != FEATURES:
            raise ValidationError(f"features must have shape (N, {FEATURES})")
        if self.labels.shape != (self.features.shape[0],):
            raise ValidationError("labels do not match feature count")
        if self.features.size and (
            self.features.min() < 0.0 or self.features.max() > 1.0
        ):
            raise ValidationError("features must lie in [0, 1]")
        if self.labels.size and self.labels.min() < 0:
            raise ValidationError("labels must be nonnegative")

    def __len__(self) -> int:
        return self.features.shape[0]


@dataclass(frozen=True)
class BenchmarkSpec:
    """Source classes of a benchmark, remapped to 0..c-1 in listed order."""

    name: str
    source: str  # "mnist" or "fashion"
    classes: tuple[int, ...]

    @property
    def num_classes(self) -> int:
        return len(self.classes)


BENCHMARKS = {
    "MNIST-4": BenchmarkSpec("MNIST-4", "mnist", (0, 1, 2, 3)),
    "MNIST-2": BenchmarkSpec("MNIST-2", "mnist", (3, 6)),
    "Fashion-4": BenchmarkSpec("Fashion-4", "fashion", (0, 1, 2, 3)),
    "Fashion-2": BenchmarkSpec("Fashion-2", "fashion", (3, 6)),
}


def _open_maybe_gzip(path):
    with open(path, "rb") as probe:
        magic = probe.read(2)
    if magic == b"\x1f\x8b":
        return gzip.open(path, "rb")
    return open(path, "rb")


def _read_exact(fh, count: int, offset: int, what: str, path) -> bytes:
    data = fh.read(count)
    if len(data) != count:
        raise DataFormatError(
            f"{path}: truncated {what} at byte offset {offset}: "
            f"expected {count} bytes, got {len(data)}"
        )
    return data


def _read_u32(fh, offset: int, what: str, path) -> int:
    return struct.unpack(">I", _read_exact(fh, 4, offset, what, path))[0]


def load_idx_images(path) -> np.ndarray:
    """Images from an IDX3 file as a ``(N, rows, cols)`` uint8 array."""
    with _open_maybe_gzip(path) as fh:
        magic = _read_u32(fh, 0, "magic number", path)
        if magic != IDX_IMAGE_MAGIC:
            raise DataFormatError(
                f"{path}: bad image magic 0x{magic:08x} at byte offset 0, "
                f"expected 0x{IDX_IMAGE_MAGIC:08x}"
            )
        count = _read_u32(fh, 4, "item count", path)
        rows = _read_u32(fh, 8, "row count", path)
        cols = _read_u32(fh, 12, "column count", path)
        payload = _read_exact(fh, count * rows * cols, 16, "pixel section", path)
    return np.frombuffer(payload, dtype=np.uint8).reshape(count, rows, cols)


def load_idx_labels(path) -> np.ndarray:
    """Labels from an IDX1 file as a ``(N,)`` uint8 array."""
    with _open_maybe_gzip(path) as fh:
        magic = _read_u32(fh, 0, "magic number", path)
        if magic != IDX_LABEL_MAGIC:
            raise DataFormatError(
                f"{path}: bad label magic 0x{magic:08x} at byte offset 0, "
                f"expected 0x{IDX_LABEL_MAGIC:08x}"
            )
        count = _read_u32(fh, 4, "item count", path)
        payload = _read_exact(fh, count, 8, "label section", path)
    return np.frombuffer(payload, dtype=np.uint8).copy()


def load_idx(images_path, labels_path) -> tuple[np.ndarray, np.ndarray]:
    """Paired images and labels; counts must agree."""
    images = load_idx_images(images_path)
    labels = load_idx_labels(labels_path)
    if images.shape[0] != labels.shape[0]:
        raise DataFormatError(
            f"{images_path} holds {images.shape[0]} images but "
            f"{labels_path} holds {labels.shape[0]} labels"
        )
    return images, labels


def save_idx_images(path, images: np.ndarray) -> None:
    images = np.asarray(images, dtype=np.uint8)
    if images.ndim != 3:
        raise ValidationError("images must be (N, rows, cols) uint8")
    with open(path, "wb") as fh:
        fh.write(struct.pack(">IIII", IDX_IMAGE_MAGIC, *images.shape))
        fh.write(images.tobytes())


def save_idx_labels(path, labels: np.ndarray) -> None:
    labels = np.asarray(labels, dtype=np.uint8)
    with open(path, "wb") as fh:
        fh.write(struct.pack(">II", IDX_LABEL_MAGIC, labels.shape[0]))
        fh.write(labels.tobytes())


def bilinear_resize(images: np.ndarray, side: int = TARGET_SIDE) -> np.ndarray:
    """Corner-aligned bilinear resize of the last two axes to ``side x side``.

    The four corner pixels are gathered from the input before the float
    conversion, so a uint8 stack is never converted whole.
    """
    img = np.asarray(images)
    if img.ndim < 2:
        raise ValidationError(f"expected (..., rows, cols) images, got shape {img.shape}")
    rows, cols = img.shape[-2:]
    r_src = np.linspace(0.0, rows - 1.0, side)
    c_src = np.linspace(0.0, cols - 1.0, side)
    r0 = np.clip(np.floor(r_src).astype(int), 0, rows - 2)[:, None]
    c0 = np.clip(np.floor(c_src).astype(int), 0, cols - 2)[None, :]
    fr = r_src[:, None] - r0
    fc = c_src[None, :] - c0

    def corner(dr: int, dc: int) -> np.ndarray:
        return img[..., r0 + dr, c0 + dc].astype(float)

    top = (1.0 - fc) * corner(0, 0) + fc * corner(0, 1)
    bottom = (1.0 - fc) * corner(1, 0) + fc * corner(1, 1)
    return (1.0 - fr) * top + fr * bottom


# Images per bilinear_resize call in preprocess_all: bounds the float
# temporaries to a few MB while keeping the per-call overhead negligible.
RESIZE_CHUNK = 1024


def preprocess_all(images: np.ndarray) -> np.ndarray:
    """``(N, 28, 28)`` uint8 images to ``(N, 64)`` features in [0, 1],
    each image resized to 8x8 and flattened row-major."""
    imgs = np.asarray(images)
    if imgs.ndim != 3 or imgs.shape[1:] != (28, 28):
        raise ValidationError(f"expected (N, 28, 28) images, got shape {imgs.shape}")
    out = np.empty((imgs.shape[0], FEATURES))
    for lo in range(0, imgs.shape[0], RESIZE_CHUNK):
        chunk = imgs[lo : lo + RESIZE_CHUNK]
        out[lo : lo + chunk.shape[0]] = bilinear_resize(chunk).reshape(-1, FEATURES)
    out /= 255.0
    return out


def dataset_from_idx(images_path, labels_path) -> Dataset:
    images, labels = load_idx(images_path, labels_path)
    return Dataset(preprocess_all(images), labels.astype(np.int64))


def make_benchmark(
    train_raw: Dataset,
    test_raw: Dataset,
    spec: BenchmarkSpec,
    train_cap: int,
    test_cap: int,
    seed: int,
) -> tuple[Dataset, Dataset]:
    """Filter to the benchmark classes, remap labels, and subsample.

    Subsampling is class balanced (``cap // c`` per class) and deterministic
    under the seed.
    """
    rng = np.random.default_rng(seed)
    out = []
    for raw, cap in ((train_raw, train_cap), (test_raw, test_cap)):
        per_class = cap // spec.num_classes
        feats, labs = [], []
        for new_label, source_class in enumerate(spec.classes):
            idx = np.flatnonzero(raw.labels == source_class)
            if idx.size == 0:
                raise ValidationError(
                    f"benchmark {spec.name}: no samples of source class {source_class}"
                )
            if idx.size < per_class:
                raise ValidationError(
                    f"benchmark {spec.name}: class {source_class} has {idx.size} "
                    f"samples, need {per_class}"
                )
            chosen = idx[rng.permutation(idx.size)[:per_class]]
            feats.append(raw.features[chosen])
            labs.append(np.full(per_class, new_label, dtype=np.int64))
        features = np.concatenate(feats)
        labels = np.concatenate(labs)
        order = rng.permutation(labels.size)
        out.append(Dataset(features[order], labels[order]))
    return out[0], out[1]


_BLOB_NOISE_STD = 0.04
_BLOB_LANES = 4


def synthetic_blobs(num_classes: int, per_class: int, separation: float, seed: int) -> Dataset:
    """Clipped Gaussian clusters around distinct 64-dim anchor patterns.

    Class ``k``'s anchor lifts the feature lane ``k, k+4, k+8, ...`` (the
    features a four-qubit phase encoder feeds to one qubit), so the classes
    are distinguishable both by a linear probe and by the quantum readout.
    Anchor offsets are scaled so that pairwise anchor distance divided by
    twice the noise standard deviation equals ``separation``; classes are
    well separated for ``separation >= 2``.
    """
    if num_classes not in (2, 4):
        raise ValidationError(f"synthetic blobs support 2 or 4 classes, got {num_classes}")
    if separation < 0.0:
        raise ValidationError("separation must be nonnegative")
    if per_class < 1:
        raise ValidationError("per-class count must be positive")
    rng = np.random.default_rng(seed)
    lane_size = FEATURES // _BLOB_LANES
    feats, labs = [], []
    for k in range(num_classes):
        direction = np.zeros(FEATURES)
        direction[k::_BLOB_LANES] = 1.0 / np.sqrt(lane_size)
        anchor = 0.5 + separation * _BLOB_NOISE_STD * np.sqrt(2.0) * direction
        noise = rng.standard_normal((per_class, FEATURES)) * _BLOB_NOISE_STD
        feats.append(np.clip(anchor + noise, 0.0, 1.0))
        labs.append(np.full(per_class, k, dtype=np.int64))
    features = np.concatenate(feats)
    labels = np.concatenate(labs)
    order = rng.permutation(labels.size)
    return Dataset(features[order], labels[order])
