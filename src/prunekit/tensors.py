"""Dense tensor conventions and the norm used by the capacity probe.

Everything downstream carries weights and activations as float64 numpy
arrays in row-major order with rank 1..4; validate_tensor pins that
contract.
"""
from __future__ import annotations

import numpy as np

from .errors import ValidationError

MAX_RANK = 4


def validate_tensor(arr: np.ndarray, name: str = "tensor") -> np.ndarray:
    if arr.ndim < 1 or arr.ndim > MAX_RANK:
        raise ValidationError(f"{name}: rank must be 1..{MAX_RANK}, got {arr.ndim}")
    if any(extent < 1 for extent in arr.shape):
        raise ValidationError(f"{name}: every extent must be >= 1, got shape {arr.shape}")
    if arr.dtype != np.float64:
        raise ValidationError(f"{name}: dtype must be float64, got {arr.dtype}")
    if not np.all(np.isfinite(arr)):
        raise ValidationError(f"{name}: contains non-finite entries")
    return arr


def frobenius_norm(t: np.ndarray) -> float:
    """Square root of the sum of squared entries.

    The sum is numpy's pairwise one, not a BLAS dot: OpenBLAS splits a long
    dot across its threads, which moves the last bit with the thread count.
    """
    return float(np.sqrt(np.sum(np.square(np.ravel(t)))))
