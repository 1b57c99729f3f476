"""Correctness checks, computed apart from the program.

Each check returns ``(name, ok, detail)``. The references here are written
from the method's definitions, not from prunekit's code paths: a tap-sum
forward pass, an analytic parameter recount, central differences, and the
bounds and optimality conditions the method must satisfy.
"""
from __future__ import annotations

import math

import numpy as np

from prunekit.allocator import BUDGET_RTOL
from prunekit.data import Dataset
from prunekit.engine import evaluate, forward, loss_and_grads
from prunekit.model import count_params, graph_checksum, load_model, save_model
from prunekit.pruning import achieved_remaining

FORWARD_RTOL = 1e-9
GRAD_RTOL = 1e-4
GRAD_ATOL = 1e-8


def _activate(a: np.ndarray, kind: str) -> np.ndarray:
    if kind == "relu":
        return np.maximum(a, 0.0)
    if kind == "softmax":
        e = np.exp(a - a.max(axis=1, keepdims=True))
        return e / e.sum(axis=1, keepdims=True)
    return a


def reference_forward(g, x: np.ndarray) -> np.ndarray:
    """Chain output as a sum over kernel taps; "same" padding puts the smaller
    half of the padding at the top and left."""
    a = np.asarray(x, dtype=np.float64)
    for layer in g.layers:
        if layer.kind == "conv2d":
            kernel, bias = g.weights[layer.id]
            kh, kw = kernel.shape[:2]
            if layer.padding == "same":
                pt, pl = (kh - 1) // 2, (kw - 1) // 2
                a = np.pad(a, ((0, 0), (pt, kh - 1 - pt), (pl, kw - 1 - pl), (0, 0)))
            oh, ow = a.shape[1] - kh + 1, a.shape[2] - kw + 1
            z = sum(np.einsum("nhwc,cd->nhwd", a[:, i:i + oh, j:j + ow, :], kernel[i, j])
                    for i in range(kh) for j in range(kw))
            a = _activate(z + bias, layer.activation)
        elif layer.kind == "maxpool":
            ph, pw = layer.filter_shape
            n, h, w, c = a.shape
            a = a.reshape(n, h // ph, ph, w // pw, pw, c).max(axis=(2, 4))
        elif layer.kind == "flatten":
            a = a.reshape(len(a), -1)
        else:
            kernel, bias = g.weights[layer.id]
            a = _activate(np.einsum("nf,fo->no", a, kernel) + bias, layer.activation)
    return a


def check_forward(label: str, g, images: np.ndarray, labels: np.ndarray, num_classes: int):
    """engine.forward against the tap-sum reference, and evaluate against the
    reference's argmax accuracy, on the same samples."""
    ref = reference_forward(g, images)
    out, _ = forward(g, images)
    err = float(np.abs(out - ref).max())
    tol = FORWARD_RTOL * max(1.0, float(np.abs(ref).max()))
    ref_acc = float(np.mean(ref.argmax(axis=1) == labels))
    acc = evaluate(g, Dataset(images, labels, num_classes))
    return [
        (f"forward.{label}", err <= tol, f"max |engine - reference| = {err:.2e} (tol {tol:.0e})"),
        (f"evaluate.{label}", acc == ref_acc, f"evaluate {acc} vs reference argmax {ref_acc}"),
    ]


def check_gradients(g, images: np.ndarray, labels: np.ndarray, coords: int, seed: int):
    """loss_and_grads against central differences on sampled weight coordinates."""
    _, grads = loss_and_grads(g, images, labels)
    rng = np.random.default_rng(seed)
    pool = [(lid, which) for lid in sorted(grads) for which in (0, 1)]
    h = 1e-6
    worst_ratio = worst_rel = 0.0
    for _ in range(coords):
        lid, which = pool[rng.integers(len(pool))]
        arr = g.weights[lid][which].reshape(-1)
        i = int(rng.integers(arr.size))
        orig = arr[i]
        arr[i] = orig + h
        lp, _ = loss_and_grads(g, images, labels)
        arr[i] = orig - h
        lm, _ = loss_and_grads(g, images, labels)
        arr[i] = orig
        numeric = (lp - lm) / (2 * h)
        analytic = float(grads[lid][which].reshape(-1)[i])
        scale = max(abs(analytic), abs(numeric))
        worst_ratio = max(worst_ratio, abs(analytic - numeric) / (GRAD_ATOL + GRAD_RTOL * scale))
        worst_rel = max(worst_rel, abs(analytic - numeric) / max(scale, 1e-300))
    return [("gradients", worst_ratio <= 1.0,
             f"|analytic - numeric| <= {GRAD_ATOL:.0e} + {GRAD_RTOL:.0e} * |g| on {coords} "
             f"coordinates: worst share of tolerance {worst_ratio:.2e}, "
             f"worst relative error {worst_rel:.2e}")]


def check_capacity(label: str, g, profile):
    """Cauchy-Schwarz bounds: fc mu <= 1, conv mu <= sqrt(kh * kw)."""
    worst = -math.inf
    for entry in profile.layers:
        spec = g.spec(entry.layer_id)
        bound = 1.0 if spec.kind == "fully-connected" else math.sqrt(
            spec.filter_shape[0] * spec.filter_shape[1])
        worst = max(worst, entry.mu - bound)
    return [(f"capacity.{label}", worst <= 1e-9,
             f"max mu - bound = {worst:.3e} over {len(profile.layers)} layers")]


def check_layerwise_plan(label: str, plan, s: float, floors: dict[str, float]):
    """Budget, box and floors, and one shared multiplier on the unclipped layers."""
    n = sum(row.params for row in plan.layers)
    remaining = sum(row.remaining for row in plan.layers)
    budget_err = abs(remaining - (1.0 - s) * n)
    in_box = all(0.0 <= row.sparsity < 1.0 for row in plan.layers)
    floors_ok = all(row.remaining >= floors[row.layer_id] * (1 - 1e-12) - 1e-9
                    for row in plan.layers)
    lams = [row.epsilon / (plan.alpha * row.omega) for row in plan.layers
            if floors[row.layer_id] + 1e-6 * row.params < row.remaining < row.params * (1 - 1e-6)]
    scale = max((abs(v) for v in lams), default=0.0)
    spread = (max(lams) - min(lams)) / scale if len(lams) > 1 and scale > 0 else 0.0
    ok = budget_err <= BUDGET_RTOL * n and in_box and floors_ok and spread <= 1e-9
    return [(f"allocator.{label}", ok,
             f"budget error {budget_err:.2e}, s_l in [0,1): {in_box}, floors: {floors_ok}, "
             f"multiplier spread {spread:.1e} over {len(lams)} unclipped layers")]


def check_uniform_plan(label: str, plan, s: float):
    ok = all(row.sparsity == s for row in plan.layers)
    return [(f"allocator.{label}", ok, f"every s_l equals {s}")]


def _shapes_in(g) -> dict[str, tuple[int, ...]]:
    """Input shape of every layer, propagated from the layer specs alone."""
    shape: tuple[int, ...] = tuple(g.input_shape)
    shapes = {}
    for layer in g.layers:
        shapes[layer.id] = shape
        if layer.kind == "conv2d":
            kh, kw, _, cout = layer.filter_shape
            h, w, _ = shape
            shape = (h, w, cout) if layer.padding == "same" else (h - kh + 1, w - kw + 1, cout)
        elif layer.kind == "maxpool":
            ph, pw = layer.filter_shape
            shape = (shape[0] // ph, shape[1] // pw, shape[2])
        elif layer.kind == "flatten":
            shape = (math.prod(shape),)
        else:
            shape = (layer.filter_shape[1],)
    return shapes


def zeroed_weights(s_l: float, size: int) -> int:
    """Kernel entries weight-magnitude pruning zeroes: s_l * |K| rounded half up."""
    return math.floor(s_l * size + 0.5)


def analytic_remaining(g, plan, kind: str) -> int:
    """Whole-model parameter count left by a method, from the plan and shapes."""
    sparsity = {row.layer_id: row.sparsity for row in plan.layers}
    total = 0
    if kind == "weight-magnitude":
        for layer in g.layers:
            if layer.is_weighted():
                kernel, bias = g.weights[layer.id]
                gone = zeroed_weights(sparsity.get(layer.id, 0.0), kernel.size)
                total += kernel.size - gone + bias.size
        return total
    shapes = _shapes_in(g)
    carried = 0  # inputs of the next weighted layer removed upstream
    for layer in g.layers:
        if layer.kind == "flatten" and carried:
            h, w, _ = shapes[layer.id]
            carried *= h * w
        if not layer.is_weighted():
            continue
        out = layer.filter_shape[-1]
        gone = math.floor(sparsity.get(layer.id, 0.0) * out)
        fan_in = math.prod(layer.filter_shape[:-1])
        per_input = math.prod(layer.filter_shape[:-2]) if layer.kind == "conv2d" else 1
        total += (fan_in - carried * per_input) * (out - gone) + (out - gone)
        carried = gone
    return total


def check_pruned(label: str, g, plan, kind: str, pruned, masks, remaining_total: int):
    """Recount against the pruned model, the dry run and the reported total;
    weight-magnitude must zero exactly round(s_l * |K|) entries per layer."""
    expect = analytic_remaining(g, plan, kind)
    dry = achieved_remaining(g, plan, kind)
    if kind == "weight-magnitude":
        kept = sum(int(np.count_nonzero(k)) + b.size for k, b in pruned.weights.values())
        zeroed_ok = True
        for row in plan.layers:
            kernel = g.weights[row.layer_id][0]
            k = zeroed_weights(row.sparsity, kernel.size)
            new = pruned.weights[row.layer_id][0]
            mask = masks[row.layer_id]
            zeroed_ok &= int(np.sum((new == 0) & (kernel != 0))) == k == int(np.sum(~mask))
        ok = expect == dry == remaining_total == kept and zeroed_ok
        detail = (f"recount {expect}, dry run {dry}, reported {remaining_total}, nonzero {kept}, "
                  f"zeroed round(s_l*|K|) per layer: {zeroed_ok}")
    else:
        counted = count_params(pruned)[1]
        ok = expect == dry == remaining_total == counted
        detail = (f"recount {expect}, dry run {dry}, reported {remaining_total}, "
                  f"count_params {counted}")
    return [(f"pruning.{label}", ok, detail)]


def check_calibration(label: str, g, s: float, s_hat: float, allocate, kind: str):
    """The calibrated strength leaves at least the budget implied by s."""
    n_total = count_params(g)[1]
    target = n_total - s * sum(row.params for row in allocate(s).layers)
    achieved = analytic_remaining(g, allocate(s_hat), kind)
    return [(f"calibration.{label}", 0.0 <= s_hat <= s and achieved >= target,
             f"s_hat {s_hat:.6f}, achieved {achieved}, target {target:.1f}")]


def check_artifacts(label: str, loaded, built, path):
    """The model read back from the set-up files has the checksum of the
    model that was built and saved, and load_model(save_model(g)) keeps it."""
    save_model(loaded, path)
    setup_ok = graph_checksum(loaded) == graph_checksum(built)
    roundtrip_ok = graph_checksum(load_model(path)) == graph_checksum(loaded)
    return [(f"artifacts.{label}", setup_ok and roundtrip_ok,
             f"set-up files keep the checksum: {setup_ok}; save/load keeps it: {roundtrip_ok}")]
