"""Dataset ingestion: IDX files, 8x8 preprocessing, benchmark subsampling,
and a synthetic generator for hermetic tests.

IDX is the big-endian, magic-numbered binary format of the common
handwritten-digit distributions; gzip-compressed files are read
transparently, and each file is read to its end, so gzip checks its CRC32
and length trailer.  A benchmark split draws its class-balanced subsample
from the labels alone and decodes (resizes to 8x8) only the chosen images.
"""

from __future__ import annotations

import gzip
import math
import struct
import zlib
from dataclasses import dataclass

import numpy as np

from .errors import DataFormatError, ValidationError

IDX_IMAGE_MAGIC = 0x00000803
IDX_LABEL_MAGIC = 0x00000801
FEATURES = 64
TARGET_SIDE = 8
# Largest single read of an IDX payload: above every corpus file's payload
# (47 MB for 60000 images of 28x28), so those are read in one piece.
_READ_PIECE = 1 << 26


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
    classes: tuple[int, ...]

    @property
    def num_classes(self) -> int:
        return len(self.classes)


BENCHMARKS = {
    "MNIST-4": BenchmarkSpec("MNIST-4", (0, 1, 2, 3)),
    "MNIST-2": BenchmarkSpec("MNIST-2", (3, 6)),
    "Fashion-4": BenchmarkSpec("Fashion-4", (0, 1, 2, 3)),
    "Fashion-2": BenchmarkSpec("Fashion-2", (3, 6)),
}


def _open_maybe_gzip(path):
    with open(path, "rb") as probe:
        magic = probe.read(2)
    if magic == b"\x1f\x8b":
        return gzip.open(path, "rb")
    return open(path, "rb")


def _read_exact(fh, count: int, offset: int, what: str, path) -> bytes:
    """``count`` bytes, read in pieces of at most :data:`_READ_PIECE`, so a
    header that claims more than the file holds is a truncation and not one
    allocation of the claimed size."""
    pieces, got = [], 0
    while got < count:
        piece = fh.read(min(count - got, _READ_PIECE))
        if not piece:
            break
        pieces.append(piece)
        got += len(piece)
    data = b"".join(pieces)  # one piece is returned as it is, not copied
    if len(data) != count:
        raise DataFormatError(
            f"{path}: truncated {what} at byte offset {offset}: "
            f"expected {count} bytes, got {len(data)}"
        )
    return data


def _read_u32(fh, offset: int, what: str, path) -> int:
    return struct.unpack(">I", _read_exact(fh, 4, offset, what, path))[0]


def _read_idx(path, expected_magic: int, kind: str, axes: tuple[str, ...], section: str):
    """The axis sizes and payload of an IDX file that must end with its
    payload; a damaged gzip stream is a :class:`DataFormatError`."""
    try:
        with _open_maybe_gzip(path) as fh:
            magic = _read_u32(fh, 0, "magic number", path)
            if magic != expected_magic:
                raise DataFormatError(
                    f"{path}: bad {kind} magic 0x{magic:08x} at byte offset 0, "
                    f"expected 0x{expected_magic:08x}"
                )
            shape = tuple(
                _read_u32(fh, 4 * (i + 1), f"{axis} count", path) for i, axis in enumerate(axes)
            )
            offset = 4 * (len(axes) + 1)
            size = math.prod(shape)
            payload = _read_exact(fh, size, offset, section, path)
            # Reading on to the end makes gzip check its CRC32 and length trailer.
            if fh.read(1):
                raise DataFormatError(
                    f"{path}: unexpected data after the {section} at byte offset {offset + size}"
                )
    except (EOFError, gzip.BadGzipFile, zlib.error) as exc:
        raise DataFormatError(f"{path}: damaged gzip stream: {exc}") from exc
    return shape, payload


def load_idx_images(path) -> np.ndarray:
    """Images from an IDX3 file as a ``(N, rows, cols)`` uint8 array."""
    shape, payload = _read_idx(
        path, IDX_IMAGE_MAGIC, "image", ("item", "row", "column"), "pixel section"
    )
    return np.frombuffer(payload, dtype=np.uint8).reshape(shape)


def load_idx_labels(path) -> np.ndarray:
    """Labels from an IDX1 file as a ``(N,)`` uint8 array."""
    _, payload = _read_idx(path, IDX_LABEL_MAGIC, "label", ("item",), "label section")
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


def _balanced_picks(
    labels: np.ndarray, spec: BenchmarkSpec, cap: int, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray]:
    """Indices of a class-balanced subsample, ``cap // c`` per class in a
    shuffled order, and their labels remapped to 0..c-1 in listed order.

    The draws are one permutation per class in listed order, then one of the
    whole subsample.
    """
    per_class = cap // spec.num_classes
    picks = []
    for source_class in spec.classes:
        idx = np.flatnonzero(labels == source_class)
        if idx.size == 0:
            raise ValidationError(
                f"benchmark {spec.name}: no samples of source class {source_class}"
            )
        if idx.size < per_class:
            raise ValidationError(
                f"benchmark {spec.name}: class {source_class} has {idx.size} "
                f"samples, need {per_class}"
            )
        picks.append(idx[rng.permutation(idx.size)[:per_class]])
    new_labels = np.repeat(np.arange(spec.num_classes, dtype=np.int64), per_class)
    order = rng.permutation(new_labels.size)
    return np.concatenate(picks)[order], new_labels[order]


def dataset_from_idx(
    images_path, labels_path, spec: BenchmarkSpec, cap: int, rng: np.random.Generator
) -> Dataset:
    """One benchmark split from paired IDX files: a class-balanced subsample
    drawn from the labels alone (see :func:`_balanced_picks`), of which only
    the chosen images are resized.  Drawing the train split and then the
    test split from one generator makes both deterministic under its seed.
    """
    images, labels = load_idx(images_path, labels_path)
    picks, new_labels = _balanced_picks(labels, spec, cap, rng)
    return Dataset(preprocess_all(images[picks]), new_labels)


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
