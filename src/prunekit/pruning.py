"""Weight and channel pruning under a sparsity plan, with exact bookkeeping.

One walk of the chain, reading shapes only, gives every count: per weighted
layer, its filter shape after the prune, the weights zeroed or output
channels removed, and the parameters kept. Channel pruning propagates each
removed channel into the consumer's input slices (conv -> conv input
channels, conv -> flatten -> fc rows at every spatial position, fc -> fc
rows). The dry run sums the walk's counts; the prune acts along the same
walk, and its shape check of the pruned graph turns any disagreement with
the walk into an error. So the count the target-strength calibration loop
iterates on is the count the prune leaves.

Weight-magnitude zeroes the k = round-half-away(s_l * |K|) smallest |w| of
each kernel, ties to the lower flat index, and its dry run counts the same k;
channel-l1 removes the floor(s_l * c_out) output channels with the smallest
L1 sums, ties to the lower channel. Both select in linear time through one
helper.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Callable

import numpy as np

from .allocator import SparsityPlan, make_plan, plan_checksum
from .capacity import CapacityProfile
from .errors import NumericalError, ValidationError
from .model import (
    LayerSpec,
    ModelGraph,
    count_params,
    filter_param_count,
    graph_from_manifest,
    graph_shapes,
    save_model,
    validate_graph,
)
from .serialize import read_blob, read_json

METHOD_KINDS = ("weight-magnitude", "channel-l1", "channel-random")
CALIBRATE_STEPS = 60  # bisection steps on the strength; 2**-60 is far below a channel


class RefusedPlanError(ValidationError):
    """A plan that would remove every output channel of a layer."""


@dataclass
class PruneMethod:
    kind: str
    seed: int | None = None

    def __post_init__(self):
        if self.kind not in METHOD_KINDS:
            raise ValidationError(f"unknown pruning method {self.kind!r}")
        if (self.kind == "channel-random") != (self.seed is not None):
            raise ValidationError("a seed is required exactly when kind is channel-random")

    @property
    def is_channel(self) -> bool:
        return self.kind.startswith("channel")


@dataclass
class PruneResult:
    model: ModelGraph
    masks: dict[str, np.ndarray]
    remaining_per_layer: dict[str, int]
    remaining_total: int
    achieved_sparsity: float
    method: PruneMethod
    plan_sha256: str


def _plan_ids_checked(g: ModelGraph, plan: SparsityPlan) -> set[str]:
    prunable = set(g.prunable_ids())
    seen: set[str] = set()
    for row in plan.layers:
        lid = row.layer_id
        if lid in seen:
            raise ValidationError(f"layer {lid}: listed more than once in the plan")
        seen.add(lid)
        spec = g.spec(lid)  # raises on unknown id
        if not spec.is_weighted():
            raise ValidationError(f"layer {lid}: cannot prune a weightless layer")
        if lid not in prunable:
            raise ValidationError(f"layer {lid}: plan covers a non-prunable layer")
        if not 0.0 <= row.sparsity <= 1.0:  # NaN fails this too
            raise ValidationError(f"layer {lid}: plan sparsity {row.sparsity} is outside [0, 1]")
    return seen


def _smallest(scores: np.ndarray, k: int) -> np.ndarray:
    """Boolean mask of the k smallest entries of the 1-D ``scores``, ties to
    the lower index (the first k of a stable sort by score), in linear time.

    One selection (Hoare's FIND, as introselect in ``np.partition``) gives the
    k-th smallest value; every entry below it goes, then the entries equal to
    it in ascending index until k are gone.
    """
    if k == 0:
        return np.zeros(scores.size, dtype=bool)
    kth = np.partition(scores, k - 1)[k - 1]
    drop = scores < kth
    ties = np.flatnonzero(scores == kth)
    drop[ties[:k - np.count_nonzero(drop)]] = True
    return drop


def _kind(method: PruneMethod | str) -> str:
    return method.kind if isinstance(method, PruneMethod) else str(method)


def channels_to_prune(plan: SparsityPlan, layer: LayerSpec) -> int:
    """floor(s_l * output channels) for conv, floor(s_l * output units) for fc."""
    if not layer.is_weighted():
        raise ValidationError(f"layer {layer.id}: has no channels to prune")
    return int(math.floor(plan.sparsity_for(layer.id) * layer.filter_shape[-1]))


def _edits(g: ModelGraph, plan: SparsityPlan, kind: str
           ) -> list[tuple[LayerSpec, tuple[int, ...], int, int, tuple[int, ...] | None]]:
    """The one walk of the chain behind every prune and every dry run.

    Returns ``(layer, filter_shape, n, kept, flat)`` per weighted layer, in
    chain order: the layer's filter shape after the prune; n, the kernel
    weights weight-magnitude zeroes or the output channels a channel method
    removes; the parameters the layer keeps; and the ``(h, w, c)`` that a
    flatten unrolls between it and the weighted layer feeding it (None when
    no flatten lies between them). Reads shapes only. The prune and its dry
    run refuse a plan here, so they refuse the same plans.
    """
    if kind not in METHOD_KINDS:
        raise ValidationError(f"unknown pruning method {kind!r}")
    shapes = graph_shapes(g)
    plan_ids = _plan_ids_checked(g, plan)
    channel = kind != "weight-magnitude"
    edits = []
    in_shape: tuple[int, ...] = tuple(g.input_shape)
    flat = None
    gone = 0  # output channels the producer lost
    for layer, out_shape in zip(g.layers, shapes):
        if layer.kind == "flatten":
            flat = in_shape
        elif layer.is_weighted():
            fs, n = layer.filter_shape, 0
            if layer.id in plan_ids and channel:
                n = channels_to_prune(plan, layer)
            elif layer.id in plan_ids:  # k = round-half-away(s_l * |K|)
                n = int(math.floor(plan.sparsity_for(layer.id) * math.prod(fs) + 0.5))
            if channel:
                # each lost input channel held h * w rows of a flattened input
                per_channel = flat[0] * flat[1] if flat is not None else 1
                fs = (*fs[:-2], fs[-2] - gone * per_channel, fs[-1] - n)
                gone = n
                kept = filter_param_count(fs)
            else:
                kept = filter_param_count(fs) - n
            edits.append((layer, fs, n, kept, flat))
            flat = None
        in_shape = out_shape
    if not channel:
        return edits
    if edits and edits[-1][2] > 0:
        raise ValidationError(
            f"layer {edits[-1][0].id}: channel pruning needs a downstream weighted layer"
        )
    for layer, _, n, _, _ in edits:
        if n >= layer.filter_shape[-1]:
            raise RefusedPlanError(
                f"layer {layer.id}: cannot remove {n} of {layer.filter_shape[-1]} channels"
            )
    return edits


def _l1_ranking(kernel: np.ndarray, n: int) -> np.ndarray:
    """The n output channels with the smallest L1 sums, ties to the lower one."""
    return np.flatnonzero(_smallest(np.abs(kernel).sum(axis=tuple(range(kernel.ndim - 1))), n))


def prune(g: ModelGraph, plan: SparsityPlan, method: PruneMethod) -> PruneResult:
    """Zero or delete along the walk, and report the walk's shapes and counts.

    weight-magnitude zeroes kernel weights and leaves biases untouched; its
    keep-masks are returned so fine-tuning can hold pruned positions at zero.
    channel-l1 removes the output channels with the smallest L1 sums, and
    channel-random a seeded uniform random subset, drawn in chain order for
    the layers that lose any. The result names the plan by its checksum.
    """
    validate_graph(g)
    edits = _edits(g, plan, method.kind)
    plan_ids = set(plan.layer_ids())  # checked by the walk
    rng = np.random.default_rng(method.seed) if method.seed is not None else None
    weights: dict[str, tuple[np.ndarray, np.ndarray]] = {}
    masks: dict[str, np.ndarray] = {}
    removed = np.empty(0, dtype=np.intp)  # output channels the producer lost
    for layer, _, n, _, flat in edits:
        kernel, bias = g.weights[layer.id]
        if method.is_channel:
            if flat is not None:  # flattened rows are (i * w + j) * c + channel
                rows = np.arange(math.prod(flat))
                removed = rows[np.isin(rows % flat[2], removed)]
            kernel = np.delete(kernel, removed, axis=-2)  # input channels
            if n == 0:
                removed = np.empty(0, dtype=np.intp)
            elif rng is not None:
                removed = np.sort(rng.choice(kernel.shape[-1], size=n, replace=False))
            else:
                removed = _l1_ranking(kernel, n)
            kernel, bias = np.delete(kernel, removed, axis=-1), np.delete(bias, removed)
        elif layer.id in plan_ids:
            drop = _smallest(np.abs(kernel).reshape(-1), n).reshape(kernel.shape)
            kernel, bias = np.where(drop, 0.0, kernel), bias.copy()
            masks[layer.id] = ~drop
        weights[layer.id] = (kernel, bias)

    new_shapes = {layer.id: fs for layer, fs, _, _, _ in edits}
    layers = [replace(layer, filter_shape=new_shapes[layer.id]) if layer.is_weighted()
              else layer for layer in g.layers]
    out = ModelGraph(layers, weights, tuple(g.input_shape), g.num_classes)
    graph_shapes(out)  # each kernel must have the shape the walk counted
    remaining = {layer.id: kept for layer, _, _, kept, _ in edits}
    total = sum(remaining.values())
    return PruneResult(out, masks, remaining, total, 1.0 - total / count_params(g)[1], method,
                       plan_checksum(plan))


def achieved_remaining(g: ModelGraph, plan: SparsityPlan, method: PruneMethod | str) -> int:
    """Whole-model parameter count that the method would leave: the sum of
    the walk's kept counts, from shapes alone (no weight value is read or
    checked). For channel methods this includes the input slices lost by
    successors, which is why channel pruning usually overshoots."""
    return sum(kept for _, _, _, kept, _ in _edits(g, plan, _kind(method)))


@dataclass
class Calibration:
    s_hat: float
    achieved: int
    target: float
    gap: float


def calibrate_strength(
    g: ModelGraph,
    s: float,
    allocate: Callable[[float], SparsityPlan],
    method: PruneMethod | str,
) -> Calibration:
    """Find the largest strength in [0, s] whose dry-run remaining count still
    meets the budget implied by s.

    Channel pruning overshoots the requested sparsity, so the strength fed to
    it must be backed off; the remaining count is a nonincreasing step
    function of the strength, which bisection resolves to far below any
    channel granule. The conservative (>= target) side is returned. A
    strength whose plan the channel prune refuses counts as under target.
    """
    kind = _kind(method)
    n_total = count_params(g)[1]
    plan_at_s = allocate(s)  # validates feasibility at s
    target = n_total - s * plan_at_s.included_params()
    if kind == "weight-magnitude":
        achieved = achieved_remaining(g, plan_at_s, kind)
        return Calibration(s_hat=float(s), achieved=achieved, target=target,
                           gap=abs(achieved - target))

    def dry_run(plan: SparsityPlan) -> int:
        try:
            return achieved_remaining(g, plan, kind)
        except RefusedPlanError:
            return -1  # below any target

    achieved_s = dry_run(plan_at_s)
    if achieved_s >= target:
        return Calibration(float(s), achieved_s, target, abs(achieved_s - target))
    lo, lo_c = 0.0, n_total
    if lo_c < target:
        raise NumericalError("even zero pruning strength undershoots the budget")
    hi = float(s)
    for _ in range(CALIBRATE_STEPS):
        mid = 0.5 * (lo + hi)
        c_mid = dry_run(allocate(mid))
        if c_mid >= target:
            lo, lo_c = mid, c_mid
        else:
            hi = mid
    return Calibration(s_hat=lo, achieved=lo_c, target=target, gap=abs(lo_c - target))


def calibrate_s_hat(
    g: ModelGraph,
    profile: CapacityProfile,
    s: float,
    method: PruneMethod | str,
    floor_multiplier: int = 3,
) -> Calibration:
    return calibrate_strength(g, s, lambda t: make_plan(g, t, profile, floor_multiplier), method)


def save_prune_result(result: PruneResult, manifest_path) -> None:
    """Model manifest plus a provenance block; keep-masks ride along as
    bit-packed blobs referenced from the layer entries."""
    provenance = {
        "method": result.method.kind,
        "seed": result.method.seed,
        "plan_sha256": result.plan_sha256,
        "achieved_sparsity": result.achieved_sparsity,
        "per_layer_counts": dict(result.remaining_per_layer),
    }
    save_model(result.model, manifest_path,
               extra_top={"provenance": provenance}, masks=result.masks)


def load_prune_result(manifest_path) -> tuple[ModelGraph, dict[str, np.ndarray], dict]:
    """Load a pruned-model manifest; works on plain model manifests too, in
    which case masks and provenance come back empty."""
    directory = Path(manifest_path).parent
    manifest = read_json(manifest_path)
    g = graph_from_manifest(manifest, directory)
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
    provenance = manifest.get("provenance", {})
    if not isinstance(provenance, dict):
        raise ValidationError("manifest provenance is not an object")
    return g, masks, dict(provenance)
