"""Image/label datasets and their binary file format.

On disk: magic "PKDS", five little-endian u32 fields (count, h, w, c,
num_classes), count*h*w*c little-endian float32 pixels in [0, 1], then
count little-endian u16 labels. In memory pixels are float64.
"""
from __future__ import annotations

import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import ValidationError
from .serialize import write_atomic

MAGIC = b"PKDS"


@dataclass
class Dataset:
    images: np.ndarray  # (n, h, w, c) float64 in [0, 1]
    labels: np.ndarray  # (n,) integer class ids
    num_classes: int

    def __post_init__(self):
        self.images = np.ascontiguousarray(self.images, dtype=np.float64)
        self.labels = np.ascontiguousarray(self.labels, dtype=np.int64)
        if self.images.ndim != 4:
            raise ValidationError(f"images must be (n, h, w, c), got {self.images.shape}")
        if len(self.labels) != len(self.images):
            raise ValidationError("images and labels differ in length")
        if len(self.images) == 0:
            raise ValidationError("dataset is empty")
        if self.num_classes < 1 or self.num_classes > 65535:
            raise ValidationError(f"num_classes out of range: {self.num_classes}")
        if self.labels.min() < 0 or self.labels.max() >= self.num_classes:
            raise ValidationError("labels out of range for num_classes")
        if not np.all(np.isfinite(self.images)):
            raise ValidationError("images contain non-finite values")
        if self.images.min() < 0.0 or self.images.max() > 1.0:
            raise ValidationError("pixel values must lie in [0, 1]")

    def __len__(self) -> int:
        return len(self.images)

    @property
    def sample_shape(self) -> tuple[int, int, int]:
        return tuple(self.images.shape[1:])


def save_dataset(d: Dataset, path) -> None:
    n, h, w, c = d.images.shape
    write_atomic(path, MAGIC, struct.pack("<5I", n, h, w, c, d.num_classes),
                 np.ascontiguousarray(d.images, dtype="<f4"),
                 np.ascontiguousarray(d.labels, dtype="<u2"))


def load_dataset(path) -> Dataset:
    raw = Path(path).read_bytes()
    if raw[:4] != MAGIC:
        raise ValidationError(f"{path}: not a PKDS dataset file")
    header = 4 + 20
    if len(raw) < header:
        raise ValidationError(f"{path}: file holds {len(raw)} bytes, "
                              f"shorter than the {header}-byte header")
    n, h, w, c, k = struct.unpack_from("<5I", raw, 4)
    pixels = n * h * w * c
    expected = header + pixels * 4 + n * 2
    if len(raw) != expected:
        raise ValidationError(f"{path}: file holds {len(raw)} bytes, expected {expected}")
    images = np.frombuffer(raw, dtype="<f4", count=pixels, offset=header)
    labels = np.frombuffer(raw, dtype="<u2", count=n, offset=header + pixels * 4)
    return Dataset(
        images=images.astype(np.float64).reshape(n, h, w, c),
        labels=labels.astype(np.int64),
        num_classes=int(k),
    )


def subsample(d: Dataset, count: int, seed: int) -> Dataset:
    """Seeded random subset without replacement, kept in index order."""
    if count < 1 or count > len(d):
        raise ValidationError(f"subsample count {count} out of range 1..{len(d)}")
    rng = np.random.default_rng(seed)
    idx = np.sort(rng.choice(len(d), size=count, replace=False))
    return Dataset(d.images[idx], d.labels[idx], d.num_classes)


def synthetic_textures(
    count: int,
    height: int = 16,
    width: int = 16,
    channels: int = 3,
    num_classes: int = 3,
    seed: int = 0,
    noise: float = 0.46,
    amplitude: float = 0.14,
) -> Dataset:
    """Oriented sinusoidal gratings with random phase/frequency plus noise.

    The class decides the grating orientation; phase is random per sample,
    so raw-pixel linear classifiers sit near chance and the conv stack has
    to earn its keep. Labels are balanced. At the default signal-to-noise
    the task is learnable to high accuracy but not trivially redundant.
    """
    rng = np.random.default_rng(seed)
    thetas = np.linspace(0.0, np.pi / 2.0, num_classes)
    yy, xx = np.mgrid[0:height, 0:width].astype(float)
    labels = rng.permutation(np.arange(count) % num_classes)
    images = np.empty((count, height, width, channels))
    scale = max(height, width)
    for i, lab in enumerate(labels):
        theta = thetas[lab]
        freq = rng.uniform(1.5, 3.5)
        phase = rng.uniform(0.0, 2.0 * np.pi)
        wave = np.sin(
            2.0 * np.pi * freq * (xx * np.cos(theta) + yy * np.sin(theta)) / scale + phase
        )
        base = 0.5 + amplitude * wave
        img = base[:, :, None] * rng.uniform(0.9, 1.1, size=channels)[None, None, :]
        images[i] = np.clip(img + noise * rng.standard_normal((height, width, channels)), 0.0, 1.0)
    return Dataset(images=images, labels=labels, num_classes=num_classes)
