from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from numpy.lib.stride_tricks import sliding_window_view

from conftest import conv_chain, fc_graph, random_chains, separable_dataset, tiny_dataset
from prunekit import engine
from prunekit.capacity import capacity_profile
from prunekit.data import Dataset, synthetic_textures
from prunekit.engine import (
    BLOCK_ROWS,
    TrainConfig,
    evaluate,
    finetune,
    forward,
    forward_batches,
    init_weights,
    loss_and_grads,
    train,
)
from prunekit.errors import NumericalError, ValidationError
from prunekit.model import LayerSpec, ModelGraph, graph_shapes, validate_graph
from prunekit.presets import blank_graph, table1_chain


def conv_matrix(kernel, in_shape, padding):
    """Materialized matrix of the conv operator, built tap by tap."""
    kh, kw, cin, cout = kernel.shape
    h, w, _ = in_shape
    if padding == "same":
        oh, ow = h, w
        pt, pl = (kh - 1) // 2, (kw - 1) // 2
    else:
        oh, ow = h - kh + 1, w - kw + 1
        pt = pl = 0
    mat = np.zeros((oh * ow * cout, h * w * cin))
    for oi in range(oh):
        for oj in range(ow):
            for di in range(kh):
                for dj in range(kw):
                    ii, jj = oi + di - pt, oj + dj - pl
                    if not (0 <= ii < h and 0 <= jj < w):
                        continue
                    for ci in range(cin):
                        for co in range(cout):
                            mat[(oi * ow + oj) * cout + co, (ii * w + jj) * cin + ci] += \
                                kernel[di, dj, ci, co]
    return mat


def reference_forward(g, x):
    """Logits and (input, response) norms of every weighted layer, with each
    conv as its conv_matrix and each pool as a plain per-window max."""
    n = x.shape[0]
    a, in_shape = x.reshape(n, -1), tuple(g.input_shape)
    norms = {}
    for layer, out_shape in zip(g.layers, graph_shapes(g)):
        if layer.kind == "maxpool":
            ph, pw = layer.filter_shape
            a4 = a.reshape(n, *in_shape)
            pooled = np.empty((n, *out_shape))
            for i in range(out_shape[0]):
                for j in range(out_shape[1]):
                    pooled[:, i, j, :] = a4[:, i * ph:(i + 1) * ph, j * pw:(j + 1) * pw, :].max(
                        axis=(1, 2))
            a = pooled.reshape(n, -1)
        elif layer.is_weighted():
            kernel, bias = g.weights[layer.id]
            mat = conv_matrix(kernel, in_shape, layer.padding) if layer.kind == "conv2d" \
                else kernel.T
            z = a @ mat.T
            norms[layer.id] = (np.linalg.norm(a, axis=1), np.linalg.norm(z, axis=1))
            pre = (z.reshape(n, -1, bias.size) + bias).reshape(n, -1)
            a = np.maximum(pre, 0.0) if layer.activation == "relu" else pre
        in_shape = out_shape
    return a, norms


def im2col_reference(x, kh, kw, pads):
    """The (kh, kw, c_in) patch matrix through np.pad, sliding_window_view and
    a transpose."""
    pt, pb, pl, pr = pads
    x = np.pad(x, ((0, 0), (pt, pb), (pl, pr), (0, 0)))
    n, hp, wp, _ = x.shape
    oh, ow = hp - kh + 1, wp - kw + 1
    windows = sliding_window_view(x, (kh, kw), axis=(1, 2))  # (n, oh, ow, c, kh, kw)
    cols = windows.transpose(0, 1, 2, 4, 5, 3).reshape(n * oh * ow, -1)
    return np.ascontiguousarray(cols), oh, ow


def test_softmax_outputs_sum_to_one():
    g = table1_chain(seed=0)
    x = np.random.default_rng(0).uniform(0, 1, (2, 32, 32, 3))
    out, _ = forward(g, x)
    assert out.shape == (2, 10)
    assert np.allclose(out.sum(axis=1), 1.0, atol=1e-9)
    assert (out > 0).all()


def test_identity_fc_capture_norms_match():
    g = fc_graph(np.eye(3), layer_id="fc")
    x = np.random.default_rng(1).uniform(0, 1, (5, 1, 1, 3))
    _, trace = forward(g, x, capture={"fc"})
    in_norms, out_norms = trace["fc"]
    assert np.allclose(in_norms, out_norms, atol=1e-12)


def test_zero_image_zero_capture_norms():
    g = conv_chain(seed=2)
    x = np.zeros((1, 8, 8, 3))
    _, trace = forward(g, x, capture={"c1"})
    assert trace["c1"][0][0] == 0.0
    assert trace["c1"][1][0] == 0.0


def test_capture_is_bias_free():
    w = np.array([[2.0]])
    g = fc_graph(w, bias=np.array([10.0]), layer_id="fc")
    x = np.full((1, 1, 1, 1), 0.5)
    out, trace = forward(g, x, capture={"fc"})
    assert trace["fc"][1][0] == pytest.approx(1.0)  # 2 * 0.5, bias excluded
    assert out[0, 0] == pytest.approx(11.0)  # bias applied to the output


def test_maxpool_halves_spatial_dims():
    shapes = validate_graph(table1_chain(seed=0))
    assert shapes[1][:2] == (32, 32)
    assert shapes[2][:2] == (16, 16)
    assert shapes[5][:2] == (8, 8)


def test_forward_is_pure():
    g = conv_chain(seed=7)
    x = np.random.default_rng(3).uniform(0, 1, (4, 8, 8, 3))
    a, _ = forward(g, x)
    b, _ = forward(g, x)
    assert np.array_equal(a, b)


def test_forward_shape_mismatch():
    g = conv_chain(seed=7)
    with pytest.raises(ValidationError, match="input"):
        forward(g, np.zeros((1, 4, 4, 3)))


@pytest.mark.parametrize("padding", ["same", "valid"])
@pytest.mark.parametrize("hw", [(4, 4), (6, 5)])
def test_conv_matches_materialized_matrix(padding, hw):
    rng = np.random.default_rng(17)
    h, w = hw
    kernel = rng.standard_normal((3, 3, 2, 3))
    layers = [
        LayerSpec("c", "conv2d", (3, 3, 2, 3), padding=padding, activation="none"),
        LayerSpec("fl", "flatten"),
    ]
    oh, ow = (h, w) if padding == "same" else (h - 2, w - 2)
    g = blank_graph(layers, (h, w, 2), oh * ow * 3)
    g.weights["c"] = (kernel, np.zeros(3))
    x = rng.uniform(0, 1, (3, h, w, 2))
    out, _ = forward(g, x)
    mat = conv_matrix(kernel, (h, w, 2), padding)
    for i in range(3):
        expected = mat @ x[i].reshape(-1)
        assert np.allclose(out[i], expected, atol=1e-10)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(random_chains(), st.integers(0, 2**16))
def test_forward_matches_reference_on_random_chains(chain, seed):
    """Logits and capture norms against reference_forward on chains with even
    kernels, valid padding, pools and none, within 1e-9 relative."""
    g, _ = chain
    rng = np.random.default_rng(seed)
    for _, bias in g.weights.values():
        bias[:] = rng.uniform(-0.1, 0.1, bias.shape)
    # logits: the same chain with the final softmax left out
    g = ModelGraph(g.layers[:-1] + [replace(g.layers[-1], activation="none")], g.weights,
                   g.input_shape, g.num_classes)
    x = rng.uniform(0, 1, (3, *g.input_shape))
    logits, trace = forward(g, x, capture=set(g.weights))
    ref_logits, ref_norms = reference_forward(g, x)

    def close(a, b):
        return np.abs(a - b).max() <= 1e-9 * np.abs(b).max()

    assert close(logits, ref_logits)
    for lid, (in_norms, out_norms) in trace.items():
        assert close(in_norms, ref_norms[lid][0]) and close(out_norms, ref_norms[lid][1])


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.integers(1, 9), st.integers(1, 9), st.integers(1, 9), st.integers(1, 5),
       st.integers(1, 4), st.integers(1, 4),
       st.sampled_from(["same", "valid", "grad-of-same", "grad-of-valid"]),
       st.integers(0, 2**16))
def test_conv_cols_matches_sliding_window_lowering(n, h, w, c, kh, kw, mode, seed):
    """The patch matrix equals the reference byte for byte, for the forward
    pads (even kernels give asymmetric ones) and the input gradient's."""
    padding = mode.removeprefix("grad-of-")
    assume(padding == "same" or (kh <= h and kw <= w))
    pt, pb, pl, pr = engine._pads(LayerSpec("c", "conv2d", (kh, kw, c, 1), padding=padding))
    if mode.startswith("grad-of-"):  # as in loss_and_grads
        pt, pb, pl, pr = kh - 1 - pt, kh - 1 - pb, kw - 1 - pl, kw - 1 - pr
    x = np.random.default_rng(seed).standard_normal((n, h, w, c))
    cols, oh, ow = engine._conv_cols(x, kh, kw, (pt, pb, pl, pr))
    ref, ref_oh, ref_ow = im2col_reference(x, kh, kw, (pt, pb, pl, pr))
    assert (oh, ow) == (ref_oh, ref_ow)
    assert cols.shape == ref.shape and cols.tobytes() == ref.tobytes()


@pytest.mark.parametrize("layout", ["fortran", "transpose", "negative-stride"])
def test_valid_conv_of_a_non_contiguous_batch(layout):
    """A batch that is not C-contiguous gives the outputs of its C-contiguous
    copy: a valid first conv lowers the batch without padding it."""
    rng = np.random.default_rng(8)
    layers = [
        LayerSpec("c", "conv2d", (3, 2, 3, 4), padding="valid", activation="relu"),
        LayerSpec("fl", "flatten"),
        LayerSpec("f", "fully-connected", (4 * 4 * 4, 3), activation="none"),
    ]
    g = init_weights(blank_graph(layers, (6, 5, 3), 3), seed=2)
    base = rng.standard_normal((5, 6, 5, 3))
    x = {
        "fortran": np.asfortranarray(base),
        "transpose": base.transpose(0, 2, 1, 3).copy().transpose(0, 2, 1, 3),
        "negative-stride": base[::-1, ::-1, ::-1, ::-1].copy()[::-1, ::-1, ::-1, ::-1],
    }[layout]
    assert not x.flags.c_contiguous and np.array_equal(x, base)
    out, trace = forward(g, x, capture={"c", "f"})
    ref_out, ref_trace = forward(g, base, capture={"c", "f"})
    assert out.tobytes() == ref_out.tobytes()
    for lid in ("c", "f"):
        assert all(a.tobytes() == b.tobytes() for a, b in zip(trace[lid], ref_trace[lid]))


def test_maxpool_tie_sends_gradient_to_first_maximal_tap():
    """Three of four pixels sum to 0.5 under an all-ones 1x1 conv; the pool's
    gradient must reach only the first of them in row-major order, pixel
    (0, 1) = [0.4, 0.1], which the conv kernel gradient shows."""
    layers = [
        LayerSpec("c", "conv2d", (1, 1, 2, 1), padding="valid", activation="relu"),
        LayerSpec("p", "maxpool", (2, 2)),
        LayerSpec("fl", "flatten"),
        LayerSpec("f", "fully-connected", (1, 2), activation="softmax"),
    ]
    g = blank_graph(layers, (2, 2, 2), 2)
    g.weights["c"] = (np.ones((1, 1, 2, 1)), np.zeros(1))
    g.weights["f"] = (np.array([[1.0, -1.0]]), np.zeros(2))
    x = np.array([[[[0.1, 0.1], [0.4, 0.1]], [[0.2, 0.3], [0.05, 0.45]]]])
    _, grads = loss_and_grads(g, x, np.array([1]))
    # logits (0.5, -0.5), label 1: the pool output's gradient is 2 * sigmoid(1)
    upstream = 2.0 / (1.0 + np.exp(-1.0))
    assert np.allclose(grads["c"][0].reshape(-1), upstream * np.array([0.4, 0.1]), rtol=1e-12)
    assert np.allclose(grads["c"][0].reshape(-1), [0.58484686, 0.14621172], rtol=1e-8)


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("batch_size", [1, 7, 40])
def test_forward_batches_joins_per_slice_forwards(batch_size, workers):
    """The result is forward over BLOCK_ROWS-row blocks, joined in order,
    whatever batch_size and workers are."""
    g = conv_chain(seed=4)
    d = tiny_dataset(n=40)
    capture = {"f1", "c1", "c2"}
    out, trace = forward_batches(g, d.images, batch_size, capture, workers)
    blocks = [forward(g, d.images[s:s + BLOCK_ROWS], capture)
              for s in range(0, len(d), BLOCK_ROWS)]
    expected = np.concatenate([o for o, _ in blocks])
    assert np.array_equal(out, expected)
    assert list(trace) == ["c1", "c2", "f1"]
    for lid, (in_norms, out_norms) in trace.items():
        assert np.array_equal(in_norms, np.concatenate([t[lid][0] for _, t in blocks]))
        assert np.array_equal(out_norms, np.concatenate([t[lid][1] for _, t in blocks]))
    reference, _ = forward_batches(g, d.images, 40, capture, 1)
    assert np.array_equal(out, reference)
    assert evaluate(g, d, batch_size) == np.sum(expected.argmax(axis=1) == d.labels) / len(d)


def test_forward_batches_table1_independent_of_batch_size_and_workers():
    g = table1_chain(seed=0)
    d = synthetic_textures(40, 32, 32, 3, num_classes=10, seed=3)
    capture = frozenset(g.prunable_ids())
    runs = []
    for batch_size in (1, 7, 256):
        for workers in (1, 2):
            out, trace = forward_batches(g, d.images, batch_size, capture, workers)
            profile = capacity_profile(g, d, batch_size=batch_size, workers=workers)
            runs.append((out, trace, [e.mu for e in profile.layers]))
    out0, trace0, mus0 = runs[0]
    for out, trace, mus in runs[1:]:
        assert np.array_equal(out, out0)
        for lid in capture:
            assert all(np.array_equal(a, b) for a, b in zip(trace[lid], trace0[lid]))
        assert mus == mus0


@pytest.mark.parametrize("workers", [1, 2])
def test_forward_batches_runs_blocks_of_at_most_block_rows(monkeypatch, workers):
    seen = []
    run = engine._run

    def spy(g, x, *args, **kwargs):
        seen.append(len(x))
        return run(g, x, *args, **kwargs)

    monkeypatch.setattr(engine, "_run", spy)
    g = conv_chain(seed=4)
    n = 3 * BLOCK_ROWS + 5
    forward_batches(g, tiny_dataset(n=n).images, batch_size=n, workers=workers)
    assert sorted(seen, reverse=True) == [BLOCK_ROWS] * 3 + [5]


@pytest.mark.parametrize("rows, batch_size", [(0, 4), (3, 0)], ids=["no-rows", "batch-size-0"])
def test_forward_batches_refuses_empty_work(rows, batch_size):
    g = conv_chain(seed=4)
    with pytest.raises(ValidationError):
        forward_batches(g, np.zeros((rows, 8, 8, 3)), batch_size)


def test_evaluate_constant_logits_ties_to_class_zero():
    # zero weights -> identical logits -> argmax picks index 0
    g = fc_graph(np.zeros((3, 10)), activation="softmax", num_classes=10)
    labels = np.arange(10)
    images = np.random.default_rng(0).uniform(0, 1, (10, 1, 1, 3))
    d = Dataset(images, labels, 10)
    assert evaluate(g, d) == pytest.approx(0.1)


def test_evaluate_perfect_lookup():
    w = np.eye(4) * 5.0
    g = fc_graph(w, activation="softmax", num_classes=4)
    labels = np.array([0, 1, 2, 3])
    images = np.zeros((4, 1, 1, 4))
    for i in range(4):
        images[i, 0, 0, i] = 1.0
    assert evaluate(g, Dataset(images, labels, 4)) == 1.0


def test_evaluate_all_wrong():
    w = np.eye(2) * 5.0
    g = fc_graph(w, activation="softmax", num_classes=2)
    images = np.zeros((2, 1, 1, 2))
    images[0, 0, 0, 0] = 1.0
    images[1, 0, 0, 1] = 1.0
    labels = np.array([1, 0])
    assert evaluate(g, Dataset(images, labels, 2)) == 0.0


def test_gradient_check_conv_fc():
    layers = [
        LayerSpec("c1", "conv2d", (3, 3, 2, 3), padding="same", activation="relu"),
        LayerSpec("p1", "maxpool", (2, 2)),
        LayerSpec("fl", "flatten"),
        LayerSpec("f1", "fully-connected", (12, 4), activation="softmax"),
    ]
    g = init_weights(blank_graph(layers, (4, 4, 2), 4), seed=7)
    rng = np.random.default_rng(3)
    xb = rng.uniform(0, 1, (8, 4, 4, 2))
    yb = rng.integers(0, 4, 8)
    _, grads = loss_and_grads(g, xb, yb)

    flat_params = []
    for lid in ("c1", "f1"):
        for which in (0, 1):
            arr = g.weights[lid][which]
            for i in range(arr.size):
                flat_params.append((lid, which, i))
    picks = rng.choice(len(flat_params), size=100, replace=False)
    h = 1e-5
    for p in picks:
        lid, which, i = flat_params[p]
        arr = g.weights[lid][which].reshape(-1)
        orig = arr[i]
        arr[i] = orig + h
        lp, _ = loss_and_grads(g, xb, yb)
        arr[i] = orig - h
        lm, _ = loss_and_grads(g, xb, yb)
        arr[i] = orig
        numeric = (lp - lm) / (2 * h)
        analytic = grads[lid][which].reshape(-1)[i]
        rel = abs(analytic - numeric) / max(abs(analytic), abs(numeric), 1e-10)
        assert rel <= 1e-4


@settings(max_examples=100, deadline=None, derandomize=True)
@given(random_chains(), st.integers(0, 2**16))
def test_gradients_match_central_differences_on_random_chains(chain, seed):
    """loss_and_grads against central differences on chains with even
    kernels, valid padding, pools and fc -> fc, 3 coordinates per tensor."""
    g, _ = chain
    rng = np.random.default_rng(seed)
    # positive biases keep units off the ReLU kink, where the loss has no derivative
    for _, bias in g.weights.values():
        bias[:] = rng.uniform(0.05, 0.2, bias.shape)
    xb = rng.uniform(0, 1, (4, *g.input_shape))
    yb = rng.integers(0, g.num_classes, 4)
    _, grads = loss_and_grads(g, xb, yb)
    h = 1e-6
    for lid, tensors in g.weights.items():
        for which, arr in enumerate(tensors):
            flat = arr.reshape(-1)
            for i in rng.choice(flat.size, size=min(3, flat.size), replace=False):
                orig = flat[i]
                flat[i] = orig + h
                lp, _ = loss_and_grads(g, xb, yb)
                flat[i] = orig - h
                lm, _ = loss_and_grads(g, xb, yb)
                flat[i] = orig
                numeric = (lp - lm) / (2 * h)
                analytic = grads[lid][which].reshape(-1)[i]
                assert abs(analytic - numeric) <= 1e-8 + 1e-4 * max(abs(analytic), abs(numeric))


def test_train_separable_reaches_95():
    d = separable_dataset()
    layers = [
        LayerSpec("fl", "flatten"),
        LayerSpec("f1", "fully-connected", (2, 2), activation="softmax"),
    ]
    g = init_weights(blank_graph(layers, (1, 1, 2), 2), seed=1)
    trained = train(g, d, TrainConfig(epochs=50, learning_rate=0.5, seed=0))
    assert evaluate(trained, d) >= 0.95


def test_train_zero_epochs_bit_exact():
    g = conv_chain(seed=9)
    d = tiny_dataset()
    out = train(g, d, TrainConfig(epochs=0, learning_rate=0.1, seed=0))
    for lid, (k, b) in g.weights.items():
        ok, ob = out.weights[lid]
        assert np.array_equal(ok, k) and np.array_equal(ob, b)


def test_train_divergence_aborts():
    d = separable_dataset()
    layers = [
        LayerSpec("fl", "flatten"),
        LayerSpec("f1", "fully-connected", (2, 2), activation="softmax"),
    ]
    g = init_weights(blank_graph(layers, (1, 1, 2), 2), seed=1)
    # learning rate is capped below 1, so force divergence through momentum
    cfg = TrainConfig(epochs=200, learning_rate=0.999, momentum=50.0, seed=0)
    with pytest.raises(NumericalError, match="diverged"):
        train(g, d, cfg)


@pytest.mark.parametrize("run", [
    lambda g, d, cfg: train(g, d, cfg),
    lambda g, d, cfg: finetune(g, {}, d, cfg),
], ids=["train", "finetune"])
def test_training_rejects_non_finite_weight(run):
    g = conv_chain(seed=4)
    g.weights["f1"][0][0, 0] = np.inf
    with pytest.raises(ValidationError, match="f1 kernel: contains non-finite"):
        run(g, tiny_dataset(), TrainConfig(epochs=1, learning_rate=0.01, seed=0))


def test_train_rejects_lr_of_1000():
    with pytest.raises(ValidationError):
        TrainConfig(epochs=1, learning_rate=1e3, seed=0).validate()


def test_finetune_all_ones_mask_matches_train():
    g = conv_chain(seed=4)
    d = tiny_dataset()
    cfg = TrainConfig(epochs=2, learning_rate=0.01, seed=11)
    masks = {lid: np.ones_like(k, dtype=bool) for lid, (k, _) in g.weights.items()}
    a = train(g, d, cfg)
    b = finetune(g, masks, d, cfg)
    for lid in g.weights:
        assert np.array_equal(a.weights[lid][0], b.weights[lid][0])
        assert np.array_equal(a.weights[lid][1], b.weights[lid][1])


def test_finetune_zero_mask_keeps_layer_zero():
    g = conv_chain(seed=4)
    k, b = g.weights["c2"]
    g.weights["c2"] = (np.zeros_like(k), b)
    d = tiny_dataset()
    masks = {"c2": np.zeros_like(k, dtype=bool)}
    tuned = finetune(g, masks, d, TrainConfig(epochs=2, learning_rate=0.01, seed=0))
    assert np.all(tuned.weights["c2"][0] == 0.0)


def test_finetune_half_mask_protocol():
    g = conv_chain(seed=4)
    rng = np.random.default_rng(0)
    k, b = g.weights["f1"]
    mask = rng.uniform(size=k.shape) < 0.5
    g.weights["f1"] = (np.where(mask, k, 0.0), b)
    d = tiny_dataset()
    tuned = finetune(g, {"f1": mask}, d,
                     TrainConfig(epochs=3, learning_rate=1e-4, seed=2))
    tk = tuned.weights["f1"][0]
    assert np.all(tk[~mask] == 0.0)
    assert not np.array_equal(tk[mask], g.weights["f1"][0][mask])


def test_train_determinism():
    g = conv_chain(seed=4)
    d = tiny_dataset()
    cfg = TrainConfig(epochs=2, learning_rate=0.01, seed=5)
    a = train(g, d, cfg)
    b = train(g, d, cfg)
    for lid in g.weights:
        assert np.array_equal(a.weights[lid][0], b.weights[lid][0])
