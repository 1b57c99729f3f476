"""Layer chains: specs, weight store, manifest I/O, parameter and FLOP counts.

A model is a linear chain of layers (conv2d / fully-connected / maxpool /
flatten). Weights live in a side table keyed by layer id and are written to
disk as raw little-endian float64 blobs, and keep-masks as bit-packed ones,
referenced from a JSON manifest with SHA-256 integrity hashes.
"""
from __future__ import annotations

import math
import re
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import ValidationError
from .serialize import canonical_json_bytes, read_blob, read_json, write_blob, write_json
from .tensors import validate_tensor

KINDS = ("conv2d", "fully-connected", "maxpool", "flatten")
ACTIVATIONS = ("relu", "softmax", "none")
PADDINGS = ("same", "valid")
WEIGHTED_KINDS = ("conv2d", "fully-connected")
_FILTER_RANK = {"conv2d": 4, "fully-connected": 2, "maxpool": 2}

_ID_RE = re.compile(r"^[A-Za-z0-9_.-]+$")


@dataclass(frozen=True)
class LayerSpec:
    """One layer of the chain.

    filter_shape is (kh, kw, c_in, c_out) for conv2d, (in, out) for
    fully-connected, (ph, pw) for maxpool and None for flatten. A weighted
    layer's kernel has exactly filter_shape, output channels last; its bias
    has filter_shape[-1] entries, and one output channel holds
    prod(filter_shape[:-1]) kernel weights. A conv is thus the
    fully-connected layer of its im2col patches, and every per-layer count
    reads these facts the same way for both kinds.
    """

    id: str
    kind: str
    filter_shape: tuple[int, ...] | None = None
    padding: str | None = None
    activation: str = "none"
    prunable: bool = False

    def is_weighted(self) -> bool:
        return self.kind in WEIGHTED_KINDS


@dataclass
class ModelGraph:
    layers: list[LayerSpec]
    weights: dict[str, tuple[np.ndarray, np.ndarray]]
    input_shape: tuple[int, int, int]
    num_classes: int

    def spec(self, layer_id: str) -> LayerSpec:
        for layer in self.layers:
            if layer.id == layer_id:
                return layer
        raise ValidationError(f"unknown layer id {layer_id!r}")

    def prunable_ids(self) -> list[str]:
        return [l.id for l in self.layers if l.prunable]


def _check_filter_shape(layer: LayerSpec) -> tuple[int, ...]:
    fs = layer.filter_shape
    rank = _FILTER_RANK[layer.kind]
    if fs is None or len(fs) != rank or any(int(e) < 1 for e in fs):
        raise ValidationError(
            f"layer {layer.id}: {layer.kind} needs a filter_shape of "
            f"{rank} positive integers, got {fs}"
        )
    return tuple(int(e) for e in fs)


def graph_shapes(g: ModelGraph) -> list[tuple[int, ...]]:
    """Check chain composition and weight shapes; return per-layer output shapes.

    Reads no weight values, so calls that only need the structure use it on
    its own: the pruning dry run, count_flops and the self-check of a freshly
    pruned graph.
    """
    if not g.layers:
        raise ValidationError("model has no layers")
    if int(g.num_classes) < 1:
        raise ValidationError(f"num_classes must be >= 1, got {g.num_classes}")
    if len(g.input_shape) != 3 or any(int(e) < 1 for e in g.input_shape):
        raise ValidationError(f"input_shape must be (h, w, c), got {g.input_shape}")

    seen: set[str] = set()
    shape: tuple[int, ...] = tuple(int(e) for e in g.input_shape)
    shapes: list[tuple[int, ...]] = []
    for layer in g.layers:
        if not _ID_RE.match(layer.id):
            raise ValidationError(f"layer id {layer.id!r} is not a valid identifier")
        if layer.id in seen:
            raise ValidationError(f"duplicate layer id {layer.id!r}")
        seen.add(layer.id)
        if layer.kind not in KINDS:
            raise ValidationError(f"layer {layer.id}: unknown kind {layer.kind!r}")
        if layer.activation not in ACTIVATIONS:
            raise ValidationError(f"layer {layer.id}: unknown activation {layer.activation!r}")
        if layer.prunable and not layer.is_weighted():
            raise ValidationError(f"layer {layer.id}: only weighted layers can be prunable")
        if layer.is_weighted():
            if layer.id not in g.weights:
                raise ValidationError(f"layer {layer.id}: missing weights")
        elif layer.id in g.weights:
            raise ValidationError(f"layer {layer.id}: {layer.kind} carries no weights")

        if layer.kind == "conv2d":
            if len(shape) != 3:
                raise ValidationError(f"layer {layer.id}: conv2d needs a (h, w, c) input")
            fs = _check_filter_shape(layer)
            kh, kw, cin, cout = fs
            if layer.padding not in PADDINGS:
                raise ValidationError(f"layer {layer.id}: conv2d padding must be one of {PADDINGS}")
            h, w, c = shape
            if cin != c:
                raise ValidationError(
                    f"layer {layer.id}: expects {cin} input channels, producer gives {c}"
                )
            if layer.padding == "same":
                oh, ow = h, w
            else:
                oh, ow = h - kh + 1, w - kw + 1
                if oh < 1 or ow < 1:
                    raise ValidationError(f"layer {layer.id}: filter larger than input")
            shape = (oh, ow, cout)
        elif layer.kind == "maxpool":
            if len(shape) != 3:
                raise ValidationError(f"layer {layer.id}: maxpool needs a (h, w, c) input")
            ph, pw = _check_filter_shape(layer)
            h, w, c = shape
            if h % ph or w % pw:
                raise ValidationError(
                    f"layer {layer.id}: pool {ph}x{pw} does not divide input {h}x{w}"
                )
            if layer.activation != "none":
                raise ValidationError(f"layer {layer.id}: maxpool takes no activation")
            shape = (h // ph, w // pw, c)
        elif layer.kind == "flatten":
            if len(shape) != 3:
                raise ValidationError(f"layer {layer.id}: flatten needs a (h, w, c) input")
            if layer.activation != "none":
                raise ValidationError(f"layer {layer.id}: flatten takes no activation")
            shape = (shape[0] * shape[1] * shape[2],)
        else:  # fully-connected
            if len(shape) != 1:
                raise ValidationError(
                    f"layer {layer.id}: fully-connected needs a flat input, got {shape}"
                )
            fs = _check_filter_shape(layer)
            fin, fout = fs
            if fin != shape[0]:
                raise ValidationError(
                    f"layer {layer.id}: expects {fin} input features, producer gives {shape[0]}"
                )
            shape = (fout,)
        if layer.is_weighted():
            kernel, bias = g.weights[layer.id]
            if kernel.shape != fs or bias.shape != fs[-1:]:
                raise ValidationError(
                    f"layer {layer.id}: weight shapes {kernel.shape}/{bias.shape} "
                    f"do not match filter_shape {layer.filter_shape}"
                )
        shapes.append(shape)

    if shape != (int(g.num_classes),):
        raise ValidationError(
            f"final layer produces shape {shape}, expected ({g.num_classes},)"
        )
    return shapes


def validate_graph(g: ModelGraph) -> list[tuple[int, ...]]:
    """graph_shapes plus a value check of every weight tensor (float64, all
    finite); return per-layer output shapes.

    Weights are checked where they enter or leave a graph: load_model,
    save_model, init_weights, train/finetune and prune.
    """
    shapes = graph_shapes(g)
    for layer in g.layers:
        if layer.is_weighted():
            kernel, bias = g.weights[layer.id]
            validate_tensor(kernel, f"layer {layer.id} kernel")
            validate_tensor(bias, f"layer {layer.id} bias")
    return shapes


def filter_param_count(filter_shape: tuple[int, ...]) -> int:
    """Kernel weights plus one bias per output channel of a weighted layer."""
    return math.prod(filter_shape) + filter_shape[-1]


def layer_param_count(layer: LayerSpec) -> int:
    return filter_param_count(layer.filter_shape) if layer.is_weighted() else 0


def count_params(g: ModelGraph) -> tuple[dict[str, int], int]:
    per_layer = {layer.id: layer_param_count(layer) for layer in g.layers}
    return per_layer, sum(per_layer.values())


def count_flops(g: ModelGraph) -> tuple[dict[str, int], int]:
    """FLOP counts with one multiply-accumulate = 2 FLOPs; pools count 0.
    A weighted layer applies its kernel once per output position (oh * ow, or 1)."""
    shapes = graph_shapes(g)
    per_layer = {
        layer.id: 2 * math.prod(shp[:-1]) * math.prod(layer.filter_shape)
        if layer.is_weighted() else 0
        for layer, shp in zip(g.layers, shapes)
    }
    return per_layer, sum(per_layer.values())


def clone_graph(g: ModelGraph) -> ModelGraph:
    return ModelGraph(
        layers=list(g.layers),
        weights={k: (kern.copy(), b.copy()) for k, (kern, b) in g.weights.items()},
        input_shape=tuple(g.input_shape),
        num_classes=int(g.num_classes),
    )


def _layer_record(layer: LayerSpec) -> dict:
    """The six structural keys of a layer, shared by graph_checksum's header
    and the manifest entry."""
    return {
        "id": layer.id,
        "kind": layer.kind,
        "filter_shape": list(layer.filter_shape) if layer.filter_shape else None,
        "padding": layer.padding,
        "activation": layer.activation,
        "prunable": layer.prunable,
    }


def _le_f8(arr: np.ndarray) -> np.ndarray:
    return np.ascontiguousarray(arr, dtype="<f8")


def graph_checksum(g: ModelGraph) -> str:
    """Content hash over structure plus weight bytes, independent of file paths."""
    import hashlib

    header = {
        "input_shape": list(g.input_shape),
        "num_classes": int(g.num_classes),
        "layers": [_layer_record(l) for l in g.layers],
    }
    h = hashlib.sha256()
    h.update(canonical_json_bytes(header))
    for layer in g.layers:
        if layer.is_weighted():
            kernel, bias = g.weights[layer.id]
            h.update(_le_f8(kernel))  # buffer protocol, no copy
            h.update(_le_f8(bias))
    return h.hexdigest()


def save_model(
    g: ModelGraph,
    manifest_path,
    *,
    provenance: dict | None = None,
    masks: dict[str, np.ndarray] | None = None,
) -> None:
    """Write one raw blob per weight tensor and keep-mask, then the manifest,
    with provenance as its last key when given.

    Round-trips bit-exactly: blobs are the little-endian float64 bytes of the
    arrays (masks: the bit-packed booleans) and the manifest records their
    SHA-256. Blobs are named ``{stem}@{layer_id}_w.bin``, ``_b.bin`` and
    ``_mask.bin``; a layer id holds no "@", so manifests can share a
    directory without their blob names colliding.
    """
    validate_graph(g)
    manifest_path = Path(manifest_path)
    directory = manifest_path.parent
    directory.mkdir(parents=True, exist_ok=True)
    stem = manifest_path.stem
    masks = masks or {}

    entries = []
    for layer in g.layers:
        entry = {
            **_layer_record(layer),
            "weight_file": None,
            "bias_file": None,
            "sha256_weight": None,
            "sha256_bias": None,
        }
        if layer.is_weighted():
            kernel, bias = g.weights[layer.id]
            wname, bname = f"{stem}@{layer.id}_w.bin", f"{stem}@{layer.id}_b.bin"
            entry.update(
                weight_file=wname,
                bias_file=bname,
                sha256_weight=write_blob(directory, wname, _le_f8(kernel)),
                sha256_bias=write_blob(directory, bname, _le_f8(bias)),
            )
        if layer.id in masks:
            mname = f"{stem}@{layer.id}_mask.bin"
            packed = np.packbits(masks[layer.id].reshape(-1))
            entry.update(mask_file=mname, sha256_mask=write_blob(directory, mname, packed))
        entries.append(entry)

    manifest = {
        "input_shape": list(g.input_shape),
        "num_classes": int(g.num_classes),
        "layers": entries,
    }
    if provenance is not None:
        manifest["provenance"] = provenance
    write_json(manifest, manifest_path)


def load_model(manifest_path) -> ModelGraph:
    """Load and fully validate a model manifest plus its weight blobs."""
    manifest_path = Path(manifest_path)
    return graph_from_manifest(read_json(manifest_path), manifest_path.parent)


def graph_from_manifest(manifest: dict, directory) -> ModelGraph:
    """Build and fully validate the graph a decoded manifest describes,
    reading its weight blobs from directory."""
    try:
        input_shape = tuple(int(e) for e in manifest["input_shape"])
        num_classes = int(manifest["num_classes"])
    except (KeyError, TypeError, ValueError) as exc:
        raise ValidationError(f"manifest missing input_shape/num_classes: {exc}") from exc
    entries = manifest.get("layers")
    if not isinstance(entries, list) or not entries:
        raise ValidationError("manifest has no layers")

    layers: list[LayerSpec] = []
    weights: dict[str, tuple[np.ndarray, np.ndarray]] = {}
    for entry in entries:
        try:
            spec = LayerSpec(
                id=str(entry["id"]),
                kind=str(entry["kind"]),
                filter_shape=tuple(int(e) for e in entry["filter_shape"])
                if entry.get("filter_shape")
                else None,
                padding=entry.get("padding"),
                activation=entry.get("activation") or "none",
                prunable=bool(entry.get("prunable", False)),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise ValidationError(f"malformed layer entry {entry!r}: {exc}") from exc
        layers.append(spec)
        if spec.is_weighted():
            fs = _check_filter_shape(spec)  # the blob sizes come from it
            for key in ("weight_file", "bias_file", "sha256_weight", "sha256_bias"):
                if not entry.get(key):
                    raise ValidationError(f"layer {spec.id}: manifest lacks {key}")
            kernel = read_blob(directory, entry["weight_file"], entry["sha256_weight"],
                               8 * math.prod(fs), f"layer {spec.id}: weight")
            bias = read_blob(directory, entry["bias_file"], entry["sha256_bias"],
                             8 * fs[-1], f"layer {spec.id}: bias")
            weights[spec.id] = (
                np.frombuffer(kernel, dtype="<f8").astype(np.float64).reshape(fs),
                np.frombuffer(bias, dtype="<f8").astype(np.float64),
            )

    g = ModelGraph(layers=layers, weights=weights, input_shape=input_shape, num_classes=num_classes)
    validate_graph(g)
    return g


def masks_from_manifest(manifest: dict, g: ModelGraph, directory) -> dict[str, np.ndarray]:
    """The keep-masks that the layer entries of g's decoded manifest name, read
    from directory; each blob holds ceil(|K| / 8) bytes of packed bits."""
    masks: dict[str, np.ndarray] = {}
    for layer, entry in zip(g.layers, manifest["layers"]):
        if not entry.get("mask_file"):
            continue
        if not layer.is_weighted():
            raise ValidationError(f"layer {layer.id}: a {layer.kind} layer has no mask")
        kernel, _ = g.weights[layer.id]
        raw = read_blob(directory, entry["mask_file"], entry.get("sha256_mask"),
                        -(-kernel.size // 8), f"layer {layer.id}: mask")
        bits = np.unpackbits(np.frombuffer(raw, dtype=np.uint8), count=kernel.size)
        masks[layer.id] = bits.astype(bool).reshape(kernel.shape)
    return masks
