import numpy as np
import pytest

from prunekit.data import Dataset, load_dataset, save_dataset, subsample, synthetic_textures
from prunekit.errors import ValidationError


def test_roundtrip(tmp_path):
    d = synthetic_textures(40, 8, 8, 2, num_classes=3, seed=9)
    path = tmp_path / "d.pkds"
    save_dataset(d, path)
    loaded = load_dataset(path)
    assert loaded.num_classes == 3
    assert loaded.images.shape == (40, 8, 8, 2)
    assert np.array_equal(loaded.labels, d.labels)
    # pixels round-trip through float32 storage
    assert np.allclose(loaded.images, d.images, atol=1e-7)


def test_magic_rejected(tmp_path):
    path = tmp_path / "bad.pkds"
    path.write_bytes(b"NOPE" + b"\0" * 40)
    with pytest.raises(ValidationError, match="PKDS"):
        load_dataset(path)


def test_truncated_rejected(tmp_path):
    d = synthetic_textures(10, 4, 4, 1, num_classes=2, seed=1)
    path = tmp_path / "d.pkds"
    save_dataset(d, path)
    path.write_bytes(path.read_bytes()[:-6])
    with pytest.raises(ValidationError, match="bytes"):
        load_dataset(path)


def test_short_header_rejected(tmp_path):
    path = tmp_path / "short.pkds"
    path.write_bytes(b"PKDS" + bytes(8))
    with pytest.raises(ValidationError, match="12 bytes, shorter than the 24-byte header"):
        load_dataset(path)


def test_labels_out_of_range_rejected():
    with pytest.raises(ValidationError):
        Dataset(np.zeros((2, 1, 1, 1)), np.array([0, 5]), num_classes=2)


def test_pixels_out_of_range_rejected():
    with pytest.raises(ValidationError):
        Dataset(np.full((1, 1, 1, 1), 1.5), np.array([0]), num_classes=1)


def test_empty_rejected():
    with pytest.raises(ValidationError):
        Dataset(np.zeros((0, 1, 1, 1)), np.zeros(0, dtype=int), num_classes=1)


def test_subsample_deterministic():
    d = synthetic_textures(50, 4, 4, 1, num_classes=2, seed=3)
    a = subsample(d, 20, seed=7)
    b = subsample(d, 20, seed=7)
    assert np.array_equal(a.images, b.images)
    assert len(a) == 20


def test_textures_balanced_and_seeded():
    d1 = synthetic_textures(30, seed=4)
    d2 = synthetic_textures(30, seed=4)
    assert np.array_equal(d1.images, d2.images)
    counts = np.bincount(d1.labels, minlength=3)
    assert counts.max() - counts.min() <= 1
    assert d1.images.min() >= 0.0 and d1.images.max() <= 1.0
