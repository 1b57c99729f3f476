"""Layer capacity from calibration data and the derived importance weights.

A layer's capacity is the largest per-sample ratio
``|response| / (|kernel|_F * |input|)`` seen over the calibration set, where
the response is the bias-free linear output. Importance is the inverse
square of capacity; low capacity means many effective parameters, so the
layer is protected during allocation.
"""
from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from .data import Dataset
from .engine import CaptureTrace, check_batch_size, forward
from .errors import NumericalError, ValidationError
from .model import ModelGraph, graph_checksum
from .serialize import conventions, read_json, write_json
from .tensors import frobenius_norm

logger = logging.getLogger(__name__)

MU_FLOOR = 1e-8
ZERO_INPUT_GUARD = 1e-12


@dataclass
class LayerCapacity:
    layer_id: str
    mu: float
    omega: float
    samples_used: int
    skipped_zero_norm: int
    clamped: bool = False


@dataclass
class CapacityProfile:
    layers: list[LayerCapacity]
    model_sha256: str

    @property
    def omega_total(self) -> float:
        return float(sum(e.omega for e in self.layers))

    def layer(self, layer_id: str) -> LayerCapacity:
        for entry in self.layers:
            if entry.layer_id == layer_id:
                return entry
        raise ValidationError(f"no capacity entry for layer {layer_id!r}")

    def layer_ids(self) -> list[str]:
        return [entry.layer_id for entry in self.layers]


def _retained(trace: CaptureTrace, layer_id: str) -> np.ndarray:
    """Mask of the samples whose input norm reaches the zero guard."""
    if layer_id not in trace:
        raise ValidationError(f"layer {layer_id}: not present in capture trace")
    retained = trace[layer_id][0] >= ZERO_INPUT_GUARD
    if not retained.any():
        raise NumericalError(
            f"layer {layer_id}: every calibration sample has (near-)zero input norm"
        )
    return retained


def layer_capacity(trace: CaptureTrace, layer_id: str, kernel_frobenius_norm: float) -> float:
    """Max over retained samples of response_norm / (kernel_norm * input_norm).

    Samples whose input norm falls below the zero guard are skipped; if no
    sample survives the layer has no usable calibration signal.
    """
    if kernel_frobenius_norm <= 0.0:
        raise ValidationError(f"layer {layer_id}: kernel norm must be positive")
    retained = _retained(trace, layer_id)
    in_norms, out_norms = trace[layer_id]
    ratios = out_norms[retained] / (kernel_frobenius_norm * in_norms[retained])
    return float(ratios.max())


def capacity_profile(
    g: ModelGraph,
    calib: Dataset,
    prunable: list[str] | None = None,
    batch_size: int = 256,
    workers: int = 1,
) -> CapacityProfile:
    """One calibration pass over the dataset, then per-layer capacity and
    importance. Zero-capacity layers are clamped to MU_FLOOR with a warning
    so they cannot soak up the whole budget."""
    ids = list(prunable) if prunable is not None else g.prunable_ids()
    if not ids:
        raise ValidationError("no prunable layers to profile")
    check_batch_size(batch_size)
    _, trace = forward(g, calib.images, frozenset(ids), workers)

    entries: list[LayerCapacity] = []
    for lid in ids:
        used = int(_retained(trace, lid).sum())
        kernel_norm = frobenius_norm(g.weights[lid][0])
        mu_raw = layer_capacity(trace, lid, kernel_norm) if kernel_norm > 0.0 else 0.0
        clamped = mu_raw < MU_FLOOR
        if clamped:
            logger.warning(
                "layer %s: capacity %.3e below floor, clamped to %.0e", lid, mu_raw, MU_FLOOR
            )
        mu = max(mu_raw, MU_FLOOR)
        entries.append(
            LayerCapacity(
                layer_id=lid,
                mu=mu,
                omega=1.0 / (mu * mu),
                samples_used=used,
                skipped_zero_norm=len(calib) - used,
                clamped=clamped,
            )
        )

    return CapacityProfile(layers=entries, model_sha256=graph_checksum(g))


def profile_from_capacities(mus: dict[str, float], model_sha256: str = "") -> CapacityProfile:
    """Build a profile from known capacities; handy for synthetic studies."""
    entries = []
    for lid, mu in mus.items():
        if mu <= 0.0:
            raise ValidationError(f"layer {lid}: capacity must be positive")
        mu = max(float(mu), MU_FLOOR)
        entries.append(LayerCapacity(lid, mu, 1.0 / (mu * mu), 0, 0))
    if not entries:
        raise ValidationError("no capacities given")
    return CapacityProfile(layers=entries, model_sha256=model_sha256)


def profile_to_dict(profile: CapacityProfile) -> dict:
    return {
        "model_sha256": profile.model_sha256,
        "layers": [
            {
                "id": e.layer_id,
                "mu": e.mu,
                "omega": e.omega,
                "samples_used": e.samples_used,
                "skipped": e.skipped_zero_norm,
            }
            for e in profile.layers
        ],
        # M = sum(1 / mu^2) is Omega itself; it stays for report compatibility
        "aggregates": {"Omega": profile.omega_total, "M": profile.omega_total},
        "conventions": conventions(),
    }


def save_report(profile: CapacityProfile, path) -> None:
    write_json(profile_to_dict(profile), path)


def load_report(path) -> CapacityProfile:
    payload = read_json(path)
    try:
        entries = [
            LayerCapacity(
                layer_id=str(e["id"]),
                mu=float(e["mu"]),
                omega=float(e["omega"]),
                samples_used=int(e["samples_used"]),
                skipped_zero_norm=int(e["skipped"]),
            )
            for e in payload["layers"]
        ]
        return CapacityProfile(layers=entries,
                               model_sha256=str(payload.get("model_sha256", "")))
    except (KeyError, TypeError, ValueError) as exc:
        raise ValidationError(f"malformed capacity report: {exc}") from exc
