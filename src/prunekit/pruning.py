"""Weight and channel pruning under a sparsity plan, with exact bookkeeping.

Channel pruning physically removes output channels and propagates each
removal into the consumer's input slices (conv -> conv input channels,
conv -> flatten -> fc rows at every spatial position, fc -> fc rows), so
achieved counts always come from the real post-prune shapes. One walk of
the chain yields, per weighted layer, the output channels it loses and the
shape a flatten unrolls before it; the prune deletes along that walk and
the symbolic dry run counts along it, reading shapes only. So the count the
target-strength calibration loop iterates on is the count the prune leaves.

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

from .allocator import (
    SparsityPlan,
    allocation_input,
    plan_checksum,
    solve_allocation,
)
from .capacity import CapacityProfile
from .errors import NumericalError, ValidationError
from .model import (
    LayerSpec,
    ModelGraph,
    count_params,
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
    plan_sha256: str | None = None


def _plan_ids_checked(g: ModelGraph, plan: SparsityPlan) -> set[str]:
    prunable = set(g.prunable_ids())
    for row in plan.layers:
        lid = row.layer_id
        spec = g.spec(lid)  # raises on unknown id
        if not spec.is_weighted():
            raise ValidationError(f"layer {lid}: cannot prune a weightless layer")
        if lid not in prunable:
            raise ValidationError(f"layer {lid}: plan covers a non-prunable layer")
        if not 0.0 <= row.sparsity <= 1.0:  # NaN fails this too
            raise ValidationError(f"layer {lid}: plan sparsity {row.sparsity} is outside [0, 1]")
    return set(plan.layer_ids())


def _weights_to_zero(plan: SparsityPlan, layer: LayerSpec) -> int:
    """k = round-half-away(s_l * |K|), the kernel weights weight-magnitude zeroes."""
    return int(math.floor(plan.sparsity_for(layer.id) * math.prod(layer.filter_shape) + 0.5))


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


def prune_weights_magnitude(g: ModelGraph, plan: SparsityPlan) -> PruneResult:
    """Zero the k = round-half-away(s_l * |K|) smallest |w| of each planned
    kernel, ties to the lower flat index, selected in linear time; biases
    untouched. Keep-masks are returned so fine-tuning can hold pruned
    positions at zero.
    """
    validate_graph(g)
    plan_ids = _plan_ids_checked(g, plan)
    out = ModelGraph(list(g.layers), dict(g.weights), g.input_shape, g.num_classes)
    masks: dict[str, np.ndarray] = {}
    remaining: dict[str, int] = {}
    for layer in g.layers:
        if not layer.is_weighted():
            continue
        kernel, bias = g.weights[layer.id]
        if layer.id not in plan_ids:
            remaining[layer.id] = kernel.size + bias.size
            continue
        k = _weights_to_zero(plan, layer)
        drop = _smallest(np.abs(kernel).reshape(-1), k).reshape(kernel.shape)
        out.weights[layer.id] = (np.where(drop, 0.0, kernel), bias.copy())
        masks[layer.id] = ~drop
        remaining[layer.id] = int(kernel.size - k + bias.size)
    total = sum(remaining.values())
    n_orig = count_params(g)[1]
    return PruneResult(
        model=out,
        masks=masks,
        remaining_per_layer=remaining,
        remaining_total=total,
        achieved_sparsity=1.0 - total / n_orig,
        method=PruneMethod("weight-magnitude"),
    )


def channels_to_prune(plan: SparsityPlan, layer: LayerSpec) -> int:
    """floor(s_l * output channels) for conv, floor(s_l * output units) for fc."""
    if not layer.is_weighted():
        raise ValidationError(f"layer {layer.id}: has no channels to prune")
    c_out = layer.filter_shape[-1]
    return int(math.floor(plan.sparsity_for(layer.id) * c_out))


def _channel_edits(g: ModelGraph, plan: SparsityPlan
                   ) -> list[tuple[LayerSpec, int, tuple[int, ...] | None]]:
    """The one walk of the chain behind both the channel prune and its dry run.

    Returns ``(layer, n, flat)`` per weighted layer, in chain order: the n
    output channels the plan removes from it, and the ``(h, w, c)`` that a
    flatten unrolls between it and the weighted layer feeding it (None when
    no flatten lies between them). Reads shapes only. The prune and its dry
    run refuse a plan here, so they refuse the same plans.
    """
    shapes = graph_shapes(g)
    plan_ids = _plan_ids_checked(g, plan)
    edits = []
    in_shape: tuple[int, ...] = tuple(g.input_shape)
    flat = None
    for layer, out_shape in zip(g.layers, shapes):
        if layer.kind == "flatten":
            flat = in_shape
        elif layer.is_weighted():
            edits.append((layer, channels_to_prune(plan, layer) if layer.id in plan_ids else 0,
                          flat))
            flat = None
        in_shape = out_shape
    if edits and edits[-1][1] > 0:
        raise ValidationError(
            f"layer {edits[-1][0].id}: channel pruning needs a downstream weighted layer"
        )
    for layer, n, _ in edits:
        if n >= layer.filter_shape[-1]:
            raise RefusedPlanError(
                f"layer {layer.id}: cannot remove {n} of {layer.filter_shape[-1]} channels"
            )
    return edits


def _l1_ranking(kernel: np.ndarray, n: int) -> np.ndarray:
    """The n output channels with the smallest L1 sums, ties to the lower
    channel, in ascending order."""
    scores = np.abs(kernel).sum(axis=tuple(range(kernel.ndim - 1)))
    return np.flatnonzero(_smallest(scores, n))


def _prune_channels(g: ModelGraph, plan: SparsityPlan,
                    choose: Callable[[np.ndarray, int], np.ndarray],
                    method: PruneMethod) -> PruneResult:
    validate_graph(g)
    new_weights: dict[str, tuple[np.ndarray, np.ndarray]] = {}
    removed = np.empty(0, dtype=np.intp)  # output channels the producer lost
    for layer, n, flat in _channel_edits(g, plan):
        if flat is not None:  # flattened rows are (i * w + j) * c + channel
            rows = np.arange(math.prod(flat))
            removed = rows[np.isin(rows % flat[2], removed)]
        kernel, bias = g.weights[layer.id]
        kernel = np.delete(kernel, removed, axis=-2)  # input channels
        removed = choose(kernel, n) if n else np.empty(0, dtype=np.intp)
        new_weights[layer.id] = (np.delete(kernel, removed, axis=-1),
                                 np.delete(bias, removed))

    new_layers = [replace(layer, filter_shape=new_weights[layer.id][0].shape)
                  if layer.is_weighted() else layer for layer in g.layers]
    out = ModelGraph(new_layers, new_weights, tuple(g.input_shape), g.num_classes)
    graph_shapes(out)
    per_layer, total = count_params(out)
    per_layer = {lid: cnt for lid, cnt in per_layer.items() if out.spec(lid).is_weighted()}
    n_orig = count_params(g)[1]
    return PruneResult(
        model=out,
        masks={},
        remaining_per_layer=per_layer,
        remaining_total=total,
        achieved_sparsity=1.0 - total / n_orig,
        method=method,
    )


def prune_channels_l1(g: ModelGraph, plan: SparsityPlan) -> PruneResult:
    """Remove the output channels with the smallest absolute kernel sums."""
    return _prune_channels(g, plan, _l1_ranking, PruneMethod("channel-l1"))


def prune_channels_random(g: ModelGraph, plan: SparsityPlan, seed: int) -> PruneResult:
    """Remove a seeded uniform random subset of output channels per layer."""
    rng = np.random.default_rng(seed)

    def choose(kernel: np.ndarray, n: int) -> np.ndarray:
        return np.sort(rng.choice(kernel.shape[-1], size=n, replace=False))

    return _prune_channels(g, plan, choose, PruneMethod("channel-random", seed=seed))


def prune(g: ModelGraph, plan: SparsityPlan, method: PruneMethod,
          plan_sha256: str | None = None) -> PruneResult:
    if method.kind == "weight-magnitude":
        result = prune_weights_magnitude(g, plan)
    elif method.kind == "channel-l1":
        result = prune_channels_l1(g, plan)
    else:
        result = prune_channels_random(g, plan, method.seed)
    result.plan_sha256 = plan_sha256 if plan_sha256 is not None else plan_checksum(plan)
    return result


def achieved_remaining(g: ModelGraph, plan: SparsityPlan, method: PruneMethod | str) -> int:
    """Whole-model parameter count that the method would leave, from shapes
    alone: no weight value is read or checked. For channel methods this includes the input slices
    lost by successors, which is why channel pruning usually overshoots."""
    kind = method.kind if isinstance(method, PruneMethod) else str(method)
    if kind not in METHOD_KINDS:
        raise ValidationError(f"unknown pruning method {kind!r}")
    if kind == "weight-magnitude":
        graph_shapes(g)
        plan_ids = _plan_ids_checked(g, plan)
        return count_params(g)[1] - sum(_weights_to_zero(plan, g.spec(lid)) for lid in plan_ids)

    total = 0
    gone = 0  # output channels the producer lost
    for layer, n, flat in _channel_edits(g, plan):
        fan_in = math.prod(layer.filter_shape[:-1])
        c_in = flat[2] if flat is not None else layer.filter_shape[-2]
        kept = layer.filter_shape[-1] - n
        # each lost input channel held fan_in // c_in weights of every output channel
        total += (fan_in - gone * (fan_in // c_in)) * kept + kept
        gone = n
    return total


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
    kind = method.kind if isinstance(method, PruneMethod) else str(method)
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
    def allocate(strength: float) -> SparsityPlan:
        return solve_allocation(allocation_input(g, profile, strength, floor_multiplier))

    return calibrate_strength(g, s, allocate, method)


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
