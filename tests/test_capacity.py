import logging
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from conftest import conv_chain, fc_graph, tiny_dataset
from prunekit.capacity import (
    MU_FLOOR,
    capacity_profile,
    layer_capacity,
    load_report,
    profile_from_capacities,
    save_report,
)
from prunekit.data import Dataset
from prunekit.engine import forward
from prunekit.errors import NumericalError, ValidationError
from prunekit.model import LayerSpec
from prunekit.presets import blank_graph
from prunekit.serialize import read_json
from prunekit.tensors import frobenius_norm
from test_engine import conv_matrix


def _fc_trace(g, images, layer_id="fc"):
    _, trace = forward(g, images, capture={layer_id})
    return trace


def test_identity_fc_capacity():
    g = fc_graph(np.eye(2))
    x = np.random.default_rng(0).uniform(0.1, 1, (6, 1, 1, 2))
    trace = _fc_trace(g, x)
    mu = layer_capacity(trace, "fc", frobenius_norm(np.eye(2)))
    assert mu == pytest.approx(1 / math.sqrt(2), abs=1e-12)


def test_diagonal_fc_capacity_hand_evaluated():
    # rows scale coordinates by 2 and 1; unit basis inputs give ratios
    # 2/sqrt(5) and 1/sqrt(5); the max is 2/sqrt(5)
    g = fc_graph(np.array([[2.0, 0.0], [0.0, 1.0]]))
    x = np.zeros((2, 1, 1, 2))
    x[0, 0, 0, 0] = 1.0
    x[1, 0, 0, 1] = 1.0
    trace = _fc_trace(g, x)
    mu = layer_capacity(trace, "fc", math.sqrt(5))
    assert mu == pytest.approx(2 / math.sqrt(5), abs=1e-9)
    assert mu == pytest.approx(0.89443, abs=1e-5)


def test_scalar_fc_capacity_is_one():
    g = fc_graph(np.array([[7.0]]))
    x = np.full((1, 1, 1, 1), 3.0 / 7.0)  # keep pixel in [0, 1]
    trace = _fc_trace(g, x)
    assert layer_capacity(trace, "fc", 7.0) == pytest.approx(1.0, abs=1e-12)


def test_profile_omega_arithmetic(tmp_path):
    profile = profile_from_capacities({"a": 0.5, "b": 1.0})
    assert profile.layer("a").omega == pytest.approx(4.0)
    assert profile.layer("b").omega == pytest.approx(1.0)
    assert profile.omega_total == pytest.approx(5.0)
    save_report(profile, tmp_path / "capacity.json")
    aggregates = read_json(tmp_path / "capacity.json")["aggregates"]
    assert aggregates["M"] == aggregates["Omega"] == profile.omega_total


def test_single_layer_share_is_one():
    for mu in (0.1, 0.9, 2.5):
        profile = profile_from_capacities({"only": mu})
        assert profile.layer("only").omega / profile.omega_total == pytest.approx(1.0)


def test_duplicate_layers_identical_mu():
    w = np.random.default_rng(2).standard_normal((3, 3))
    layers = [
        LayerSpec("fl", "flatten"),
        LayerSpec("fc1", "fully-connected", (3, 3), activation="none", prunable=True),
        LayerSpec("fc2", "fully-connected", (3, 3), activation="none", prunable=True),
    ]
    g = blank_graph(layers, (1, 1, 3), 3)
    g.weights["fc1"] = (w.copy(), np.zeros(3))
    g.weights["fc2"] = (w.copy(), np.zeros(3))
    d = Dataset(np.random.default_rng(3).uniform(0, 1, (10, 1, 1, 3)),
                np.zeros(10, dtype=int), 3)
    profile = capacity_profile(g, d)
    # identical weights, zero bias, no activation: fc2 sees fc1's output = Wx
    mus = {e.layer_id: e.mu for e in profile.layers}
    g2 = blank_graph(layers, (1, 1, 3), 3)
    g2.weights["fc1"] = (w.copy(), np.zeros(3))
    g2.weights["fc2"] = (w.copy(), np.zeros(3))
    profile2 = capacity_profile(g2, d)
    assert mus == {e.layer_id: e.mu for e in profile2.layers}


def test_fc_capacity_bounded_by_one():
    rng = np.random.default_rng(0)
    for trial in range(20):
        fin, fout = rng.integers(1, 12, 2)
        g = fc_graph(rng.standard_normal((fin, fout)))
        x = rng.uniform(0, 1, (8, 1, 1, fin))
        trace = _fc_trace(g, x)
        wf = frobenius_norm(g.weights["fc"][0])
        mu = layer_capacity(trace, "fc", wf)
        assert mu <= 1.0 + 1e-9


def test_conv_capture_matches_materialized_matrix():
    rng = np.random.default_rng(5)
    kernel = rng.standard_normal((3, 3, 2, 4))
    layers = [
        LayerSpec("c", "conv2d", (3, 3, 2, 4), padding="same", activation="relu",
                  prunable=True),
        LayerSpec("fl", "flatten"),
        LayerSpec("f", "fully-connected", (6 * 6 * 4, 3), activation="softmax"),
    ]
    g = blank_graph(layers, (6, 6, 2), 3)
    g.weights["c"] = (kernel, rng.standard_normal(4))
    x = rng.uniform(0, 1, (5, 6, 6, 2))
    _, trace = forward(g, x, capture={"c"})
    mat = conv_matrix(kernel, (6, 6, 2), "same")
    for i in range(5):
        expected = np.linalg.norm(mat @ x[i].reshape(-1))
        assert trace["c"][1][i] == pytest.approx(expected, abs=1e-10)


def test_kernel_scale_invariance():
    g = conv_chain(seed=6)
    d = tiny_dataset(n=12)
    base = capacity_profile(g, d)
    k, b = g.weights["c2"]
    g.weights["c2"] = (k * 37.5, b)
    scaled = capacity_profile(g, d)
    assert scaled.layer("c2").mu == pytest.approx(base.layer("c2").mu, abs=1e-10)


def test_mu_monotone_in_sample_set():
    g = conv_chain(seed=6)
    d = tiny_dataset(n=20)
    small = Dataset(d.images[:8], d.labels[:8], d.num_classes)
    mu_small = capacity_profile(g, small).layer("c2").mu
    mu_full = capacity_profile(g, d).layer("c2").mu
    assert mu_full >= mu_small - 1e-15


def test_zero_kernel_clamped_with_warning(caplog):
    g = conv_chain(seed=6)
    k, b = g.weights["c2"]
    g.weights["c2"] = (np.zeros_like(k), b)
    d = tiny_dataset(n=8)
    with caplog.at_level(logging.WARNING):
        profile = capacity_profile(g, d, prunable=["c2"])
    entry = profile.layer("c2")
    assert entry.mu == MU_FLOOR
    assert entry.clamped
    assert any("clamped" in rec.message for rec in caplog.records)


def test_all_samples_skipped_errors():
    g = conv_chain(seed=6)
    d = Dataset(np.zeros((5, 8, 8, 3)), np.zeros(5, dtype=int), 4)
    with pytest.raises(NumericalError, match="c2|input norm"):
        capacity_profile(g, d, prunable=["c2"])


def test_skipped_sample_counted():
    g = conv_chain(seed=6)
    images = np.random.default_rng(0).uniform(0.2, 1.0, (6, 8, 8, 3))
    images[2] = 0.0
    d = Dataset(images, np.zeros(6, dtype=int), 4)
    profile = capacity_profile(g, d, prunable=["c1"])
    entry = profile.layer("c1")
    assert entry.samples_used == 5
    assert entry.skipped_zero_norm == 1


def test_worker_count_does_not_change_profile():
    g = conv_chain(seed=6)
    d = tiny_dataset(n=30)
    a = capacity_profile(g, d, batch_size=7, workers=1)
    b = capacity_profile(g, d, batch_size=7, workers=4)
    for ea, eb in zip(a.layers, b.layers):
        assert ea.mu == eb.mu
        assert ea.samples_used == eb.samples_used


BLAS_PROBE = """
import hashlib
from prunekit.capacity import capacity_profile
from prunekit.data import synthetic_textures
from prunekit.engine import TrainConfig, forward_batches, loss_and_grads, train
from prunekit.presets import desk_chain, table1_chain
from prunekit.tensors import frobenius_norm
g = table1_chain(seed=0)
print(repr(frobenius_norm(g.weights["FC1"][0])))
d = synthetic_textures(4, 32, 32, 3, num_classes=10, seed=1)
print(repr(capacity_profile(g, d).layer("FC1").mu))
d = synthetic_textures(20, 32, 32, 3, num_classes=10, seed=2)
out, trace = forward_batches(g, d.images, 256, frozenset(g.prunable_ids()))
digest = hashlib.sha256(out.tobytes())
for norms in trace.values():
    for a in norms:
        digest.update(a.tobytes())
print(digest.hexdigest())
d = synthetic_textures(32, 32, 32, 3, num_classes=10, seed=3)
loss, grads = loss_and_grads(g, d.images, d.labels)
digest = hashlib.sha256(repr(loss).encode())
for gk, gb in grads.values():
    digest.update(gk.tobytes() + gb.tobytes())
print(digest.hexdigest())
d = synthetic_textures(128, 16, 16, 3, num_classes=3, seed=4)
trained = train(desk_chain(seed=0), d, TrainConfig(epochs=2, learning_rate=0.008))
digest = hashlib.sha256()
for k, b in trained.weights.values():
    digest.update(k.tobytes() + b.tobytes())
print(digest.hexdigest())
"""


def test_mu_independent_of_blas_threads():
    # OpenBLAS splits the 2M-entry FC1 dot across threads; the kernel norm
    # must not go through it, and neither may the blocked table1 forward, a
    # table1 step's gradients or eight desk SGD steps
    src = Path(__file__).resolve().parents[1] / "src"
    outputs = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, PYTHONPATH=str(src))
        proc = subprocess.run([sys.executable, "-c", BLAS_PROBE], capture_output=True,
                              text=True, env=env, timeout=120)
        assert proc.returncode == 0, proc.stderr
        outputs.append(proc.stdout)
    assert outputs[0] == outputs[1]


def test_report_roundtrip(tmp_path):
    g = conv_chain(seed=6)
    d = tiny_dataset(n=10)
    profile = capacity_profile(g, d)
    path = tmp_path / "capacity.json"
    save_report(profile, path)
    loaded = load_report(path)
    assert loaded.model_sha256 == profile.model_sha256
    for ea, eb in zip(profile.layers, loaded.layers):
        assert ea.layer_id == eb.layer_id
        assert ea.mu == eb.mu
        assert ea.omega == eb.omega


def test_layer_capacity_requires_positive_kernel_norm():
    g = fc_graph(np.eye(2))
    x = np.random.default_rng(0).uniform(0.1, 1, (3, 1, 1, 2))
    trace = _fc_trace(g, x)
    with pytest.raises(ValidationError):
        layer_capacity(trace, "fc", 0.0)
