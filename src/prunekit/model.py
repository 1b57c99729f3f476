"""Layer chains: specs, weight store, manifest I/O, parameter and FLOP counts.

A model is a linear chain of layers (conv2d / fully-connected / maxpool /
flatten). Weights live in a side table keyed by layer id and are written to
disk as raw little-endian float64 blobs referenced from a JSON manifest with
SHA-256 integrity hashes.
"""
from __future__ import annotations

import math
import re
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import ValidationError
from .serialize import canonical_json_bytes, read_json, sha256_hex, write_json
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
    save_model, init_weights, train/finetune and the three prune functions.
    """
    shapes = graph_shapes(g)
    for layer in g.layers:
        if layer.is_weighted():
            kernel, bias = g.weights[layer.id]
            validate_tensor(kernel, f"layer {layer.id} kernel")
            validate_tensor(bias, f"layer {layer.id} bias")
    return shapes


def layer_param_count(layer: LayerSpec) -> int:
    if not layer.is_weighted():
        return 0
    return math.prod(layer.filter_shape) + layer.filter_shape[-1]


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


def _le_bytes(arr: np.ndarray) -> bytes:
    return np.ascontiguousarray(arr, dtype="<f8").tobytes()


def graph_checksum(g: ModelGraph) -> str:
    """Content hash over structure plus weight bytes, independent of file paths."""
    import hashlib

    header = {
        "input_shape": list(g.input_shape),
        "num_classes": int(g.num_classes),
        "layers": [
            {
                "id": l.id,
                "kind": l.kind,
                "filter_shape": list(l.filter_shape) if l.filter_shape else None,
                "padding": l.padding,
                "activation": l.activation,
                "prunable": l.prunable,
            }
            for l in g.layers
        ],
    }
    h = hashlib.sha256()
    h.update(canonical_json_bytes(header))
    for layer in g.layers:
        if layer.is_weighted():
            kernel, bias = g.weights[layer.id]
            h.update(np.ascontiguousarray(kernel, dtype="<f8"))  # buffer protocol, no copy
            h.update(np.ascontiguousarray(bias, dtype="<f8"))
    return h.hexdigest()


def save_model(
    g: ModelGraph,
    manifest_path,
    *,
    extra_top: dict | None = None,
    layer_extras: dict[str, dict] | None = None,
) -> None:
    """Write manifest JSON plus one raw blob per weight tensor.

    Round-trips bit-exactly: blobs are the little-endian float64 bytes of the
    arrays and the manifest records their SHA-256.
    """
    validate_graph(g)
    manifest_path = Path(manifest_path)
    directory = manifest_path.parent
    directory.mkdir(parents=True, exist_ok=True)
    stem = manifest_path.stem  # namespace blobs so manifests can share a directory

    entries = []
    for layer in g.layers:
        entry = {
            "id": layer.id,
            "kind": layer.kind,
            "filter_shape": list(layer.filter_shape) if layer.filter_shape else None,
            "padding": layer.padding,
            "activation": layer.activation,
            "prunable": layer.prunable,
            "weight_file": None,
            "bias_file": None,
            "sha256_weight": None,
            "sha256_bias": None,
        }
        if layer.is_weighted():
            kernel, bias = g.weights[layer.id]
            wname, bname = f"{stem}_{layer.id}_w.bin", f"{stem}_{layer.id}_b.bin"
            wbytes, bbytes = _le_bytes(kernel), _le_bytes(bias)
            (directory / wname).write_bytes(wbytes)
            (directory / bname).write_bytes(bbytes)
            entry.update(
                weight_file=wname,
                bias_file=bname,
                sha256_weight=sha256_hex(wbytes),
                sha256_bias=sha256_hex(bbytes),
            )
        if layer_extras and layer.id in layer_extras:
            entry.update(layer_extras[layer.id])
        entries.append(entry)

    manifest = {
        "input_shape": list(g.input_shape),
        "num_classes": int(g.num_classes),
        "layers": entries,
    }
    if extra_top:
        manifest.update(extra_top)
    write_json(manifest, manifest_path)


def _read_blob(directory: Path, fname: str, sha: str, count: int, layer_id: str, what: str) -> np.ndarray:
    path = directory / fname
    if not path.exists():
        raise FileNotFoundError(f"layer {layer_id}: {what} blob {path} is missing")
    raw = path.read_bytes()
    if len(raw) != count * 8:
        raise ValidationError(
            f"layer {layer_id}: {what} blob holds {len(raw) // 8} values, expected {count}"
        )
    if sha256_hex(raw) != sha:
        raise ValidationError(f"layer {layer_id}: {what} blob checksum mismatch")
    return np.frombuffer(raw, dtype="<f8").astype(np.float64)


def manifest_layers(manifest: dict) -> list[dict]:
    layers = manifest.get("layers")
    if not isinstance(layers, list) or not layers:
        raise ValidationError("manifest has no layers")
    return layers


def load_model(manifest_path) -> ModelGraph:
    """Load and fully validate a model manifest plus its weight blobs."""
    manifest_path = Path(manifest_path)
    manifest = read_json(manifest_path)
    directory = manifest_path.parent

    try:
        input_shape = tuple(int(e) for e in manifest["input_shape"])
        num_classes = int(manifest["num_classes"])
    except (KeyError, TypeError, ValueError) as exc:
        raise ValidationError(f"manifest missing input_shape/num_classes: {exc}") from exc

    layers: list[LayerSpec] = []
    weights: dict[str, tuple[np.ndarray, np.ndarray]] = {}
    for entry in manifest_layers(manifest):
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
            kernel = _read_blob(
                directory, entry["weight_file"], entry["sha256_weight"], math.prod(fs),
                spec.id, "weight"
            ).reshape(fs)
            bias = _read_blob(
                directory, entry["bias_file"], entry["sha256_bias"], fs[-1], spec.id, "bias"
            )
            weights[spec.id] = (kernel, bias)

    g = ModelGraph(layers=layers, weights=weights, input_shape=input_shape, num_classes=num_classes)
    validate_graph(g)
    return g

