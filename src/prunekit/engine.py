"""Forward/backward passes, SGD training and fine-tuning, accuracy evaluation.

_layer_forward and _layer_backward each hold every layer kind once; conv and
fc share one path. A conv is lowered by im2col to the matrix of its (kh, kw,
c_in) input patches and is then an fc over them: the input goes into a
zeroed padded buffer (or is taken C-contiguous when there is no padding) and
one strided view of it, where each window is kh runs of kw * c_in
consecutive entries, is copied. Its input gradient reuses the lowering: it
is a conv of the upstream gradient, padded by kernel size - 1 minus the
forward padding on each side, with the kernel flipped and its channels
swapped. A capture records, per sample, the norm of a layer's input and of
its bias-free pre-activation response, all the capacity probe needs; the
forward then adds the bias and applies ReLU in place. forward, the one
inference path, runs BLOCK_ROWS-row blocks and keeps no layer's state.
"""
from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from functools import partial, reduce

import numpy as np
from numpy.lib.stride_tricks import as_strided

from .data import Dataset
from .errors import NumericalError, ValidationError
from .model import LayerSpec, ModelGraph, clone_graph, validate_graph

CaptureTrace = dict[str, tuple[np.ndarray, np.ndarray]]

# Rows per forward block. At 8 rows table1's Conv2 im2col is 18.9 MB,
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


def _layer_forward(g: ModelGraph, layer: LayerSpec, x: np.ndarray,
                   capture: frozenset[str] | set[str] = frozenset(),
                   trace: CaptureTrace | None = None):
    """One layer on x; returns (output, saved), where saved is what
    _layer_backward reads: (cols, pre) for a weighted layer, (xr, out) for a
    maxpool and the input shape for a flatten. A layer in capture records its
    input and response norms in trace."""
    n = x.shape[0]
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
        return _apply_activation(z, layer.activation), (cols, z)
    if layer.kind == "maxpool":
        ph, pw = layer.filter_shape
        _, h, w, c = x.shape
        xr = x.reshape(n, h // ph, ph, w // pw, pw, c)
        out = reduce(np.maximum, (xr[:, :, di, :, dj, :] for di, dj in np.ndindex(ph, pw)))
        return out, (xr, out)
    return x.reshape(n, -1), x.shape  # flatten


def _layer_backward(g: ModelGraph, layer: LayerSpec, saved, d: np.ndarray) -> np.ndarray:
    """The gradient of a layer's input from d, the gradient of its output
    (of its pre-activation for a weighted layer) and the layer's saved."""
    if layer.is_weighted():
        kernel, _ = g.weights[layer.id]
        if layer.kind != "conv2d":
            return d @ kernel.T
        kh, kw, c_in = layer.filter_shape[:3]
        pt, pb, pl, pr = _pads(layer)
        dcols, h, w = _conv_cols(d, kh, kw, (kh - 1 - pt, kh - 1 - pb, kw - 1 - pl, kw - 1 - pr))
        flipped = kernel[::-1, ::-1].swapaxes(2, 3).reshape(-1, c_in)
        return (dcols @ flipped).reshape(len(d), h, w, c_in)
    if layer.kind == "maxpool":
        # a window's gradient goes to its first maximal tap in row-major order
        xr, out = saved
        dx = np.zeros(xr.shape)
        free = np.ones(out.shape, dtype=bool)
        for di, dj in np.ndindex(*layer.filter_shape):
            hit = free & (xr[:, :, di, :, dj, :] == out)
            np.copyto(dx[:, :, di, :, dj, :], d, where=hit)
            free &= ~hit
        n, hh, ph, ww, pw, c = xr.shape
        return dx.reshape(n, hh * ph, ww * pw, c)
    return d.reshape(saved)  # flatten


def _run(g: ModelGraph, x: np.ndarray, capture: frozenset[str] | set[str]
         ) -> tuple[np.ndarray, CaptureTrace]:
    """The chain on one block; returns (output, trace). Each layer's saved
    state is dropped as soon as the layer has run."""
    trace: CaptureTrace = {}
    for layer in g.layers:
        x = _layer_forward(g, layer, x, capture, trace)[0]
    return x, trace


def forward(g: ModelGraph, images: np.ndarray, capture: set[str] | frozenset[str] = frozenset(),
            workers: int = 1) -> tuple[np.ndarray, CaptureTrace]:
    """Run the chain on consecutive BLOCK_ROWS-row blocks of images (at least
    one row; one sample may come without its batch axis), joined in row
    order; optionally capture per-sample norms of weighted layers.

    Captured entries are (input_norm, response_norm) arrays where the
    response is the bias-free linear output of the layer, before activation.
    Trace keys follow the chain order. With workers > 1 a thread pool runs
    whole blocks, so each worker holds the buffers of one block at a time;
    the result does not depend on workers.
    """
    images = np.asarray(images, dtype=np.float64)
    if images.ndim == 3:
        images = images[None]
    if images.shape[1:] != tuple(g.input_shape):
        raise ValidationError(
            f"batch shape {images.shape[1:]} does not match model input {tuple(g.input_shape)}"
        )
    if len(images) == 0:
        raise ValidationError("batch has no samples")
    unknown = set(capture) - {l.id for l in g.layers if l.is_weighted()}
    if unknown:
        raise ValidationError(f"capture requests non-weighted layers: {sorted(unknown)}")
    blocks = [images[start:start + BLOCK_ROWS] for start in range(0, len(images), BLOCK_ROWS)]
    run = partial(_run, g, capture=capture)
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
    if g.layers[-1].activation != "softmax":
        raise ValidationError("training requires a softmax final layer")
    if any(layer.activation == "softmax" for layer in g.layers[:-1]):
        raise ValidationError("softmax below the final layer is not trainable")
    n = batch.shape[0]

    probs, saved = batch, []
    for layer in g.layers:
        probs, s = _layer_forward(g, layer, probs)
        saved.append(s)
    logits = saved[-1][1]
    shifted = logits - logits.max(axis=1, keepdims=True)
    logsumexp = np.log(np.exp(shifted).sum(axis=1)) + logits.max(axis=1)
    loss = float(np.mean(logsumexp - logits[np.arange(n), labels]))

    probs[np.arange(n), labels] -= 1.0
    d = probs / n  # gradient w.r.t. the final pre-activation

    grads: dict[str, tuple[np.ndarray, np.ndarray]] = {}
    for i in range(len(g.layers) - 1, -1, -1):
        layer = g.layers[i]
        if layer.is_weighted():
            cols, pre = saved[i]
            if layer.activation == "relu":
                # the forward wrote relu(pre) over pre; it is > 0 where pre is
                d = d * (pre > 0.0)
            d_flat = d.reshape(-1, layer.filter_shape[-1])
            grads[layer.id] = ((cols.T @ d_flat).reshape(layer.filter_shape), d_flat.sum(axis=0))
        if i > 0:  # the first layer's input gradient has no use
            d = _layer_backward(g, layer, saved[i], d)
    return loss, grads


def check_labels(g: ModelGraph, d: Dataset) -> None:
    """Every label must name one of the model's outputs."""
    top = int(d.labels.max())
    if top >= g.num_classes:
        raise ValidationError(f"dataset label {top} is not below the model's "
                              f"{g.num_classes} outputs")


def check_batch_size(batch_size: int) -> None:
    """evaluate and the capacity probe run fixed blocks, so their batch_size
    sets nothing; it is still checked to be at least 1."""
    if batch_size < 1:
        raise ValidationError(f"batch size must be >= 1, got {batch_size}")


def evaluate(g: ModelGraph, d: Dataset, batch_size: int = 256) -> float:
    """Fraction of samples whose argmax output matches the label; batch_size
    is only checked (check_batch_size)."""
    check_labels(g, d)
    check_batch_size(batch_size)
    out, _ = forward(g, d.images)
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
