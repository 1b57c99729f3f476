import hashlib
import json
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import strategies as st

from prunekit.data import Dataset
from prunekit.engine import init_weights
from prunekit.model import LayerSpec
from prunekit.presets import blank_graph


def fc_graph(weight_rows, activation="none", prunable=False, bias=None,
             layer_id="fc", num_classes=None):
    """Single fully-connected layer fed by a flatten over a (1, 1, in) input."""
    w = np.asarray(weight_rows, dtype=np.float64)
    fin, fout = w.shape
    layers = [
        LayerSpec("flat", "flatten"),
        LayerSpec(layer_id, "fully-connected", (fin, fout), activation=activation,
                  prunable=prunable),
    ]
    g = blank_graph(layers, (1, 1, fin), num_classes or fout)
    g.weights[layer_id] = (w.copy(), np.zeros(fout) if bias is None else np.asarray(bias, float))
    return g


def conv_chain(widths=(6, 8), fc_out=(10, 4), input_shape=(8, 8, 3), seed=11,
               pool=True, prunable_all=False):
    """conv -> conv -> [pool] -> flatten -> fc -> fc chain with seeded weights."""
    h, w, c = input_shape
    w1, w2 = widths
    layers = [
        LayerSpec("c1", "conv2d", (3, 3, c, w1), padding="same", activation="relu",
                  prunable=True if prunable_all else False),
        LayerSpec("c2", "conv2d", (3, 3, w1, w2), padding="same", activation="relu",
                  prunable=True),
    ]
    spatial = (h // 2) * (w // 2) if pool else h * w
    if pool:
        layers.append(LayerSpec("p1", "maxpool", (2, 2)))
    layers += [
        LayerSpec("fl", "flatten"),
        LayerSpec("f1", "fully-connected", (spatial * w2, fc_out[0]), activation="relu",
                  prunable=True),
        LayerSpec("f2", "fully-connected", (fc_out[0], fc_out[1]), activation="softmax",
                  prunable=False),
    ]
    return init_weights(blank_graph(layers, input_shape, fc_out[1]), seed)


@st.composite
def random_chains(draw):
    """A random valid chain and a plan sparsity for 1-4 of its layers.

    The chain is (conv [pool])* -> flatten -> fc+, with 0-3 convs of kernel
    1-4 per side (even sizes included), same or valid padding and an
    optional 2x2 pool, and at least two fcs when there is no conv. The last
    fc produces the classes and is never pruned.
    """
    h, w, c = draw(st.integers(1, 6)), draw(st.integers(1, 6)), draw(st.integers(1, 3))
    input_shape = (h, w, c)
    layers = []
    n_conv = draw(st.integers(0, 3))
    for i in range(n_conv):
        kh, kw, cout = draw(st.integers(1, 4)), draw(st.integers(1, 4)), draw(st.integers(1, 5))
        valid = kh <= h and kw <= w and draw(st.booleans())
        layers.append(LayerSpec(f"c{i}", "conv2d", (kh, kw, c, cout),
                                padding="valid" if valid else "same", activation="relu"))
        if valid:
            h, w = h - kh + 1, w - kw + 1
        c = cout
        if h % 2 == 0 and w % 2 == 0 and draw(st.booleans()):
            layers.append(LayerSpec(f"p{i}", "maxpool", (2, 2)))
            h, w = h // 2, w // 2
    layers.append(LayerSpec("fl", "flatten"))
    fin = h * w * c
    n_fc = draw(st.integers(1 if n_conv else 2, 3))
    for i in range(n_fc):
        fout = draw(st.integers(1, 6))
        layers.append(LayerSpec(f"f{i}", "fully-connected", (fin, fout),
                                activation="softmax" if i == n_fc - 1 else "relu"))
        fin = fout
    candidates = [layer.id for layer in layers if layer.is_weighted()][:-1]
    chosen = draw(st.lists(st.sampled_from(candidates), min_size=1, max_size=4, unique=True))
    layers = [replace(layer, prunable=layer.id in chosen) for layer in layers]
    g = init_weights(blank_graph(layers, input_shape, fin), draw(st.integers(0, 2**16)))
    return g, {lid: draw(st.floats(0.0, 0.99)) for lid in chosen}


def poison_weight_blob(manifest_path, layer_id):
    """Write a NaN into a saved layer's weight blob and re-sign the blob in the
    manifest, so that only the value check can refuse the model."""
    manifest = json.loads(manifest_path.read_text())
    entry = next(e for e in manifest["layers"] if e["id"] == layer_id)
    blob = manifest_path.parent / entry["weight_file"]
    values = np.frombuffer(blob.read_bytes(), dtype="<f8").copy()
    values[0] = np.nan
    blob.write_bytes(values.tobytes())
    entry["sha256_weight"] = hashlib.sha256(values.tobytes()).hexdigest()
    manifest_path.write_text(json.dumps(manifest))


def tiny_dataset(n=40, shape=(8, 8, 3), num_classes=4, seed=5):
    rng = np.random.default_rng(seed)
    return Dataset(
        images=rng.uniform(0.0, 1.0, (n, *shape)),
        labels=rng.integers(0, num_classes, n),
        num_classes=num_classes,
    )


def separable_dataset(n=200, seed=5):
    """Two linearly separable point clouds as 1x1x2 images."""
    rng = np.random.default_rng(seed)
    labels = np.arange(n) % 2
    imgs = np.zeros((n, 1, 1, 2))
    imgs[labels == 0] = [0.2, 0.8]
    imgs[labels == 1] = [0.8, 0.2]
    imgs += rng.uniform(-0.05, 0.05, imgs.shape)
    return Dataset(np.clip(imgs, 0, 1), labels, 2)


@pytest.fixture
def small_chain():
    return conv_chain()


@pytest.fixture
def small_data():
    return tiny_dataset()
