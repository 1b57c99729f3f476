"""Forward/backward passes, SGD training and fine-tuning, accuracy evaluation.

Conv and fully-connected layers share one path. A conv is lowered by im2col
to the matrix of its (kh, kw, c_in) input patches and is then an fc over
them; only the lowering is the conv's own. The lowering writes the input
into a zeroed padded buffer (or takes it C-contiguous when there is no
padding) and copies one strided view of it, in which each window is kh runs
of kw * c_in consecutive entries. Its input gradient reuses the
lowering: it is a conv of the upstream gradient, padded by kernel size - 1
minus the forward padding on each side, with the kernel flipped and its
channels swapped. The capture path records, per sample, the norm of a
layer's input and of its bias-free pre-activation response, which is all
the capacity probe needs; the forward then adds the bias and applies ReLU
in place. forward_batches is the one loop that runs a dataset through the
chain, in blocks of BLOCK_ROWS rows, for evaluation and the probe alike.
"""
from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from functools import reduce

import numpy as np
from numpy.lib.stride_tricks import as_strided

from .data import Dataset
from .errors import NumericalError, ValidationError
from .model import LayerSpec, ModelGraph, clone_graph, validate_graph

CaptureTrace = dict[str, tuple[np.ndarray, np.ndarray]]

# Rows per forward_batches block. At 8 rows table1's Conv2 im2col is 18.9 MB,
# against 604 MB for a 256-row slice, and a table1 probe ran faster than at 16.
BLOCK_ROWS = 8


@dataclass
class TrainConfig:
    epochs: int
    learning_rate: float
    momentum: float = 0.9
    batch_size: int = 32
    seed: int = 0

    def validate(self) -> None:
        if self.epochs < 0:
            raise ValidationError(f"epochs must be >= 0, got {self.epochs}")
        if not (0.0 < self.learning_rate < 1.0):
            raise ValidationError(f"learning_rate must be in (0, 1), got {self.learning_rate}")
        if self.momentum < 0.0:
            raise ValidationError(f"momentum must be >= 0, got {self.momentum}")
        if self.batch_size < 1:
            raise ValidationError(f"batch_size must be >= 1, got {self.batch_size}")


def init_weights(g: ModelGraph, seed: int) -> ModelGraph:
    """Seeded uniform init in +/- sqrt(6 / (fan_in + fan_out)); zero biases.
    fan_in = |K| / c_out and fan_out = |K| / c_in for a conv and an fc alike."""
    validate_graph(g)
    rng = np.random.default_rng(seed)
    out = clone_graph(g)
    for layer in out.layers:
        if not layer.is_weighted():
            continue
        shape = layer.filter_shape
        size = math.prod(shape)
        limit = math.sqrt(6.0 / (size // shape[-1] + size // shape[-2]))
        out.weights[layer.id] = (
            rng.uniform(-limit, limit, size=shape),
            np.zeros(shape[-1]),
        )
    return out


def _pads(layer: LayerSpec) -> tuple[int, int, int, int]:
    """(top, bottom, left, right) zero rows and columns around a conv's input;
    "same" gives top and left the smaller half when the kernel is even."""
    if layer.padding == "valid":
        return 0, 0, 0, 0
    kh, kw = layer.filter_shape[:2]
    top, left = (kh - 1) // 2, (kw - 1) // 2
    return top, kh - 1 - top, left, kw - 1 - left


def _conv_cols(x: np.ndarray, kh: int, kw: int, pads: tuple[int, int, int, int]):
    """im2col: rows are (kh, kw, c_in) patches in row-major tap order, copied
    once from a strided view of the zero-padded, C-contiguous input."""
    pt, pb, pl, pr = pads
    n, h, w, c = x.shape
    hp, wp = h + pt + pb, w + pl + pr
    if any(pads):
        padded = np.zeros((n, hp, wp, c), dtype=x.dtype)
        padded[:, pt:pt + h, pl:pl + w] = x
        x = padded
    else:
        x = np.ascontiguousarray(x)
    oh, ow = hp - kh + 1, wp - kw + 1
    # a window row's kw taps of c channels are kw*c consecutive entries
    step = x.itemsize
    windows = as_strided(x, (n, oh, ow, kh, kw * c),
                         (hp * wp * c * step, wp * c * step, c * step, wp * c * step, step),
                         writeable=False)
    return windows.copy().reshape(n * oh * ow, kh * kw * c), oh, ow


def _apply_activation(a: np.ndarray, kind: str) -> np.ndarray:
    """The activation of a; a relu overwrites a."""
    if kind == "relu":
        return np.maximum(a, 0.0, out=a)
    if kind == "softmax":
        e = np.exp(a - a.max(axis=1, keepdims=True))
        return e / e.sum(axis=1, keepdims=True)
    return a


def _run(g: ModelGraph, x: np.ndarray, capture: frozenset[str] | set[str],
         want_cache: bool):
    """Shared forward pass; returns (output, trace, caches)."""
    n = x.shape[0]
    trace: CaptureTrace = {}
    caches: list[dict] = []
    for layer in g.layers:
        cache: dict = {}
        if layer.is_weighted():
            kernel, bias = g.weights[layer.id]
            cout = layer.filter_shape[-1]
            if layer.kind == "conv2d":
                kh, kw = layer.filter_shape[:2]
                cols, oh, ow = _conv_cols(x, kh, kw, _pads(layer))
                out_shape: tuple[int, ...] = (n, oh, ow, cout)
            else:
                cols, out_shape = x, (n, cout)
            z = (cols @ kernel.reshape(-1, cout)).reshape(out_shape)
            if layer.id in capture:
                trace[layer.id] = (
                    np.linalg.norm(x.reshape(n, -1), axis=1),
                    np.linalg.norm(z.reshape(n, -1), axis=1),
                )
            z += bias
            x = _apply_activation(z, layer.activation)
            if want_cache:
                cache.update(cols=cols, pre=z)
        elif layer.kind == "maxpool":
            ph, pw = layer.filter_shape
            _, h, w, c = x.shape
            xr = x.reshape(n, h // ph, ph, w // pw, pw, c)
            x = reduce(np.maximum, (xr[:, :, di, :, dj, :] for di, dj in np.ndindex(ph, pw)))
            if want_cache:
                cache.update(xr=xr, out=x)
        else:  # flatten
            if want_cache:
                cache.update(x_shape=x.shape)
            x = x.reshape(n, -1)
        caches.append(cache)
    return x, trace, caches


def _checked_input(g: ModelGraph, batch: np.ndarray, capture: set[str] | frozenset[str]
                   ) -> np.ndarray:
    """The batch as float64 rows of the model input; at least one row, and
    captures of weighted layers only."""
    batch = np.asarray(batch, dtype=np.float64)
    if batch.ndim == 3:
        batch = batch[None]
    if batch.shape[1:] != tuple(g.input_shape):
        raise ValidationError(
            f"batch shape {batch.shape[1:]} does not match model input {tuple(g.input_shape)}"
        )
    if len(batch) == 0:
        raise ValidationError("batch has no samples")
    weighted = {l.id for l in g.layers if l.is_weighted()}
    unknown = set(capture) - weighted
    if unknown:
        raise ValidationError(f"capture requests non-weighted layers: {sorted(unknown)}")
    return batch


def forward(g: ModelGraph, batch: np.ndarray, capture: set[str] | frozenset[str] = frozenset()
            ) -> tuple[np.ndarray, CaptureTrace]:
    """Run the chain on a batch; optionally capture per-sample layer norms.

    Captured entries are (input_norm, response_norm) arrays where the
    response is the bias-free linear output of the layer, before activation.
    """
    return _run(g, _checked_input(g, batch, capture), capture, want_cache=False)[:2]


def forward_batches(g: ModelGraph, images: np.ndarray, batch_size: int,
                    capture: set[str] | frozenset[str] = frozenset(), workers: int = 1
                    ) -> tuple[np.ndarray, CaptureTrace]:
    """forward over consecutive BLOCK_ROWS-row blocks of images, joined in
    row order, so the result depends on neither batch_size nor workers.

    batch_size is checked to be >= 1 and otherwise unused; it stays for the
    callers' signatures. With workers > 1 a thread pool runs whole blocks, so
    each worker holds the buffers of one block at a time. Trace keys follow
    the chain order.
    """
    if batch_size < 1:
        raise ValidationError(f"batch size must be >= 1, got {batch_size}")
    images = _checked_input(g, images, capture)
    blocks = [images[start:start + BLOCK_ROWS] for start in range(0, len(images), BLOCK_ROWS)]

    def run(x: np.ndarray) -> tuple[np.ndarray, CaptureTrace]:
        return _run(g, x, capture, want_cache=False)[:2]

    if workers > 1 and len(blocks) > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            parts = list(pool.map(run, blocks))
    else:
        parts = [run(x) for x in blocks]
    outs, traces = zip(*parts)
    return np.concatenate(outs), {
        l.id: tuple(np.concatenate([t[l.id][i] for t in traces]) for i in (0, 1))
        for l in g.layers if l.id in capture
    }


def loss_and_grads(g: ModelGraph, batch: np.ndarray, labels: np.ndarray
                   ) -> tuple[float, dict[str, tuple[np.ndarray, np.ndarray]]]:
    """Mean softmax cross-entropy and its weight gradients for one batch."""
    batch = np.asarray(batch, dtype=np.float64)
    labels = np.asarray(labels)
    final = g.layers[-1]
    if final.activation != "softmax":
        raise ValidationError("training requires a softmax final layer")
    n = batch.shape[0]

    probs, _, caches = _run(g, batch, frozenset(), want_cache=True)
    logits = caches[-1]["pre"]
    shifted = logits - logits.max(axis=1, keepdims=True)
    logsumexp = np.log(np.exp(shifted).sum(axis=1)) + logits.max(axis=1)
    loss = float(np.mean(logsumexp - logits[np.arange(n), labels]))

    probs[np.arange(n), labels] -= 1.0
    d = probs / n  # gradient w.r.t. the final pre-activation

    grads: dict[str, tuple[np.ndarray, np.ndarray]] = {}
    for i in range(len(g.layers) - 1, -1, -1):
        layer = g.layers[i]
        cache = caches[i]
        if layer.is_weighted():
            if i != len(g.layers) - 1:
                if layer.activation == "relu":
                    # the forward wrote relu(pre) over pre; it is > 0 where pre is
                    d = d * (cache["pre"] > 0.0)
                elif layer.activation == "softmax":
                    raise ValidationError("softmax below the final layer is not trainable")
            kernel, _ = g.weights[layer.id]
            cout = layer.filter_shape[-1]
            d_flat = d.reshape(-1, cout)
            grads[layer.id] = (
                (cache["cols"].T @ d_flat).reshape(layer.filter_shape),
                d_flat.sum(axis=0),
            )
            if i == 0:
                break  # no layer below needs the input gradient
            if layer.kind == "conv2d":
                kh, kw, c_in = layer.filter_shape[:3]
                pt, pb, pl, pr = _pads(layer)
                dcols, h, w = _conv_cols(d, kh, kw,
                                         (kh - 1 - pt, kh - 1 - pb, kw - 1 - pl, kw - 1 - pr))
                flipped = kernel[::-1, ::-1].swapaxes(2, 3).reshape(-1, c_in)
                d = (dcols @ flipped).reshape(n, h, w, c_in)
            else:
                d = d_flat @ kernel.T
        elif layer.kind == "maxpool":
            # a window's gradient goes to its first maximal tap in row-major order
            xr, out = cache["xr"], cache["out"]
            dx = np.zeros(xr.shape)
            free = np.ones(out.shape, dtype=bool)
            for di, dj in np.ndindex(*layer.filter_shape):
                hit = free & (xr[:, :, di, :, dj, :] == out)
                np.copyto(dx[:, :, di, :, dj, :], d, where=hit)
                free &= ~hit
            _, hh, ph, ww, pw, c = xr.shape
            d = dx.reshape(n, hh * ph, ww * pw, c)
        else:  # flatten
            d = d.reshape(cache["x_shape"])
    return loss, grads


def check_labels(g: ModelGraph, d: Dataset) -> None:
    """Every label must name one of the model's outputs."""
    top = int(d.labels.max())
    if top >= g.num_classes:
        raise ValidationError(f"dataset label {top} is not below the model's "
                              f"{g.num_classes} outputs")


def evaluate(g: ModelGraph, d: Dataset, batch_size: int = 256) -> float:
    """Fraction of samples whose argmax output matches the label; batch_size
    is only checked, as in forward_batches."""
    check_labels(g, d)
    out, _ = forward_batches(g, d.images, batch_size)
    return int(np.sum(out.argmax(axis=1) == d.labels)) / len(d)


def _sgd(g: ModelGraph, d: Dataset, cfg: TrainConfig,
         masks: dict[str, np.ndarray] | None) -> ModelGraph:
    cfg.validate()
    if cfg.batch_size > len(d):
        raise ValidationError(f"batch_size {cfg.batch_size} exceeds dataset size {len(d)}")
    if d.sample_shape != tuple(g.input_shape):
        raise ValidationError("dataset sample shape does not match model input")
    check_labels(g, d)
    model = clone_graph(g)
    validate_graph(model)
    masks = masks or {}
    for lid, mask in masks.items():
        kernel, _ = model.weights[lid]
        if mask.shape != kernel.shape:
            raise ValidationError(f"mask for layer {lid} has shape {mask.shape}, "
                                  f"kernel is {kernel.shape}")
        kernel *= mask

    velocity = {
        lid: (np.zeros_like(k), np.zeros_like(b))
        for lid, (k, b) in model.weights.items()
    }
    rng = np.random.default_rng(cfg.seed)
    for epoch in range(cfg.epochs):
        perm = rng.permutation(len(d))
        for start in range(0, len(d), cfg.batch_size):
            idx = perm[start:start + cfg.batch_size]
            with np.errstate(over="ignore", invalid="ignore"):
                loss, grads = loss_and_grads(model, d.images[idx], d.labels[idx])
            if not math.isfinite(loss):
                raise NumericalError(
                    f"training diverged: non-finite loss at epoch {epoch}, "
                    f"batch {start // cfg.batch_size}"
                )
            for lid, (gk, gb) in grads.items():
                if lid in masks:
                    gk = gk * masks[lid]
                vk, vb = velocity[lid]
                kernel, bias = model.weights[lid]
                vk *= cfg.momentum
                vk -= cfg.learning_rate * gk
                vb *= cfg.momentum
                vb -= cfg.learning_rate * gb
                kernel += vk
                bias += vb
    return model


def train(g: ModelGraph, d: Dataset, cfg: TrainConfig) -> ModelGraph:
    """Minibatch SGD with momentum on softmax cross-entropy; seeded shuffles."""
    return _sgd(g, d, cfg, masks=None)


def finetune(g: ModelGraph, masks: dict[str, np.ndarray], d: Dataset,
             cfg: TrainConfig) -> ModelGraph:
    """Like train, but kernel gradients are zeroed wherever the keep-mask is 0,
    so pruned positions stay exactly zero."""
    return _sgd(g, d, cfg, masks=masks)
