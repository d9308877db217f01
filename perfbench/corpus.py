"""Seeded procedural digit corpus written as MNIST-sized, gzipped IDX files.

Each class 0-9 is a fixed set of pen strokes in the unit square.  Every
image draws its own affine jitter (scale, rotation, shear, shift) and
stroke gain, samples points densely along the jittered strokes, splats
them bilinearly onto a 28x28 grid and blurs the result into a pen line.
Only numpy is used, so the whole ``qmit.data`` path (gzip, IDX parsing,
28 -> 8 resizing, class filtering) runs on it with no download.
"""

from __future__ import annotations

import gzip
import os
import struct

import numpy as np

SIDE = 28
TRAIN_COUNT = 60000
TEST_COUNT = 10000
FILE_NAMES = {
    "train": ("train-images-idx3-ubyte.gz", "train-labels-idx1-ubyte.gz"),
    "test": ("t10k-images-idx3-ubyte.gz", "t10k-labels-idx1-ubyte.gz"),
}
_POINTS_PER_STROKE = 40
_CHUNK = 4000


def _arc(cx, cy, rx, ry, start, stop):
    """Ellipse arc from ``start`` to ``stop`` turns (0 = right, 0.25 = top)."""
    t = np.linspace(start, stop, 16) * 2.0 * np.pi
    return np.stack([cx + rx * np.cos(t), cy + ry * np.sin(t)], axis=1)


def _line(*points):
    return np.asarray(points, dtype=float)


# Strokes in a unit box with y pointing up; each is a polyline.
GLYPHS = {
    0: [_arc(0.5, 0.5, 0.28, 0.4, 0.0, 1.0)],
    1: [_line((0.38, 0.75), (0.52, 0.9), (0.52, 0.1))],
    2: [_arc(0.5, 0.68, 0.25, 0.2, 0.45, -0.05), _line((0.74, 0.62), (0.25, 0.1), (0.78, 0.1))],
    3: [_arc(0.5, 0.7, 0.24, 0.19, 0.4, -0.25), _arc(0.5, 0.3, 0.27, 0.2, 0.25, -0.4)],
    4: [_line((0.62, 0.1), (0.62, 0.9), (0.2, 0.35), (0.8, 0.35))],
    5: [_line((0.75, 0.9), (0.32, 0.9), (0.3, 0.55)), _arc(0.48, 0.35, 0.27, 0.22, 0.35, -0.4)],
    6: [_arc(0.62, 0.6, 0.3, 0.32, 0.15, 0.5), _arc(0.5, 0.3, 0.22, 0.2, 0.5, 1.5)],
    7: [_line((0.22, 0.9), (0.8, 0.9), (0.42, 0.1))],
    8: [_arc(0.5, 0.7, 0.2, 0.18, 0.0, 1.0), _arc(0.5, 0.3, 0.25, 0.2, 0.0, 1.0)],
    9: [_arc(0.5, 0.68, 0.22, 0.2, 0.0, 1.0), _line((0.72, 0.68), (0.62, 0.1))],
}


def _resample(polyline: np.ndarray, count: int) -> np.ndarray:
    """``count`` points spaced evenly along a polyline's arc length."""
    seg = np.linalg.norm(np.diff(polyline, axis=0), axis=1)
    cum = np.concatenate([[0.0], np.cumsum(seg)])
    s = np.linspace(0.0, cum[-1], count)
    return np.stack([np.interp(s, cum, polyline[:, 0]), np.interp(s, cum, polyline[:, 1])], axis=1)


def _glyph_points() -> np.ndarray:
    """(10, P, 2) stroke samples per class, centred on the origin.

    Classes with fewer strokes repeat their last stroke, which only
    strengthens it, so every class has the same point count.
    """
    strokes = max(len(s) for s in GLYPHS.values())
    table = []
    for digit in range(10):
        parts = [_resample(s, _POINTS_PER_STROKE) for s in GLYPHS[digit]]
        parts += [parts[-1]] * (strokes - len(parts))
        table.append(np.concatenate(parts) - 0.5)
    return np.stack(table)


def _render(labels: np.ndarray, rng: np.random.Generator, glyphs: np.ndarray) -> np.ndarray:
    count = labels.size
    pts = glyphs[labels]  # (N, P, 2), y up
    scale = rng.uniform(15.0, 20.0, (count, 1)) * np.array([[1.0, 1.0]])
    scale[:, 0] *= rng.uniform(0.8, 1.1, count)
    angle = rng.uniform(-0.25, 0.25, count)
    shear = rng.uniform(-0.3, 0.3, count)
    cos, sin = np.cos(angle), np.sin(angle)
    x = pts[..., 0] * scale[:, :1] + shear[:, None] * pts[..., 1] * scale[:, 1:]
    y = pts[..., 1] * scale[:, 1:]
    shift = rng.uniform(-1.5, 1.5, (count, 2))
    col = cos[:, None] * x - sin[:, None] * y + 13.5 + shift[:, :1]
    row = 13.5 - (sin[:, None] * x + cos[:, None] * y) + shift[:, 1:]
    col = np.clip(col, 0.0, SIDE - 1.001)
    row = np.clip(row, 0.0, SIDE - 1.001)

    r0 = np.floor(row).astype(np.int64)
    c0 = np.floor(col).astype(np.int64)
    fr = row - r0
    fc = col - c0
    idx = (np.arange(count, dtype=np.int64) * SIDE * SIDE)[:, None] + r0 * SIDE + c0
    canvas = np.zeros(count * SIDE * SIDE)
    for offset, w in (
        (0, (1 - fr) * (1 - fc)),
        (1, (1 - fr) * fc),
        (SIDE, fr * (1 - fc)),
        (SIDE + 1, fr * fc),
    ):
        canvas += np.bincount((idx + offset).ravel(), weights=w.ravel(), minlength=canvas.size)
    img = canvas.reshape(count, SIDE, SIDE).astype(np.float32)
    for _ in range(2):  # separable [1, 2, 1] pen blur, applied twice per axis
        for axis in (1, 2):
            out = 0.5 * img
            lo = [slice(None)] * 3
            hi = [slice(None)] * 3
            lo[axis], hi[axis] = slice(0, -1), slice(1, None)
            out[tuple(hi)] += 0.25 * img[tuple(lo)]
            out[tuple(lo)] += 0.25 * img[tuple(hi)]
            img = out
    gain = rng.uniform(1.2, 2.4, (count, 1, 1)).astype(np.float32)
    return (255.0 * np.clip(gain * img, 0.0, 1.0)).astype(np.uint8)


def make_split(count: int, rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """``count`` images of 28x28 uint8 with balanced, shuffled labels 0-9."""
    labels = rng.permutation(np.arange(count) % 10).astype(np.uint8)
    glyphs = _glyph_points()
    images = np.empty((count, SIDE, SIDE), dtype=np.uint8)
    for lo in range(0, count, _CHUNK):
        images[lo : lo + _CHUNK] = _render(labels[lo : lo + _CHUNK], rng, glyphs)
    return images, labels


def _write_gz(path: str, header: bytes, payload: bytes) -> None:
    with gzip.open(path, "wb", compresslevel=6) as fh:
        fh.write(header)
        fh.write(payload)


def write_corpus(out_dir: str, seed: int) -> None:
    """Write the four gzipped IDX files of one seeded corpus into ``out_dir``."""
    rng = np.random.default_rng([seed, 0xD16175])
    os.makedirs(out_dir, exist_ok=True)
    for split, count in (("train", TRAIN_COUNT), ("test", TEST_COUNT)):
        images, labels = make_split(count, rng)
        img_name, lab_name = FILE_NAMES[split]
        _write_gz(os.path.join(out_dir, img_name),
                  struct.pack(">IIII", 0x803, count, SIDE, SIDE), images.tobytes())
        _write_gz(os.path.join(out_dir, lab_name),
                  struct.pack(">II", 0x801, count), labels.tobytes())

