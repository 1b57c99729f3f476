import json
import os

import numpy as np
import pytest

from conftest import conv_chain, poison_weight_blob
from prunekit.errors import ValidationError
from prunekit.model import (
    LayerSpec,
    ModelGraph,
    count_flops,
    count_params,
    graph_checksum,
    load_model,
    save_model,
    validate_graph,
)
from prunekit.presets import blank_graph, desk_chain, table1_chain


def test_table1_chain_shapes():
    g = table1_chain(seed=0)
    shapes = validate_graph(g)
    assert shapes == [
        (32, 32, 32),
        (32, 32, 32),
        (16, 16, 32),
        (16, 16, 64),
        (16, 16, 64),
        (8, 8, 64),
        (4096,),
        (512,),
        (10,),
    ]



@pytest.mark.parametrize("make, expected", [
    (desk_chain, "aee0461d5c449edc3d1c7302af3e56d873791ec71d5eac675e148e452a0835ab"),
    (table1_chain, "668c1386a6273a142481498ba0aea8ac8df166e7e0f2f68d1a247832b2d442ce"),
], ids=["desk", "table1"])
def test_preset_initialization_is_pinned(make, expected):
    """The seeded init draws of both presets, structure and weight bytes."""
    assert graph_checksum(make(seed=0)) == expected

def test_table1_chain_param_counts():
    g = table1_chain(seed=0)
    per, total = count_params(g)
    # hand-summed: kernel elements + biases per layer
    assert per["Conv1"] == 3 * 3 * 3 * 32 + 32 == 896
    assert per["Conv2"] == 9248
    assert per["Conv3"] == 18496
    assert per["Conv4"] == 36928
    assert per["FC1"] == 4096 * 512 + 512
    assert per["FC2"] == 512 * 10 + 10 == 5130
    assert per["Pool1"] == per["Pool2"] == per["Flatten"] == 0
    assert total == sum(per.values()) == 2168362


def test_fc_2048_512_count():
    g = blank_graph(
        [
            LayerSpec("fl", "flatten"),
            LayerSpec("fc", "fully-connected", (2048, 512), activation="softmax"),
        ],
        (1, 1, 2048),
        512,
    )
    per, _ = count_params(g)
    assert per["fc"] == 2048 * 512 + 512 == 1049088


def test_flops_fc():
    g = blank_graph(
        [
            LayerSpec("fl", "flatten"),
            LayerSpec("fc", "fully-connected", (2048, 512), activation="softmax"),
        ],
        (1, 1, 2048),
        512,
    )
    per, _ = count_flops(g)
    assert per["fc"] == 2 * 2048 * 512 == 2097152
    assert per["fl"] == 0


def test_flops_table1_conv2():
    per, _ = count_flops(table1_chain(seed=0))
    assert per["Conv2"] == 2 * 32 * 32 * 9 * 32 * 32 == 18874368
    assert per["Pool1"] == 0


def test_roundtrip_bit_exact(tmp_path):
    g = conv_chain(seed=3)
    path = tmp_path / "model.json"
    save_model(g, path)
    loaded = load_model(path)
    assert [l.id for l in loaded.layers] == [l.id for l in g.layers]
    for lid, (k, b) in g.weights.items():
        lk, lb = loaded.weights[lid]
        assert lk.tobytes() == k.tobytes()
        assert lb.tobytes() == b.tobytes()
    assert graph_checksum(loaded) == graph_checksum(g)


def test_roundtrip_after_reshape(tmp_path):
    g = conv_chain(seed=3)
    # physically shrink one conv the way channel pruning would
    k, b = g.weights["c2"]
    g.weights["c2"] = (k[:, :, :, :5].copy(), b[:5].copy())
    kf, bf = g.weights["f1"]
    keep = np.ones(kf.shape[0], bool)
    removed = np.arange(5, k.shape[3])
    h = w = 4
    keep3 = np.ones((h, w, k.shape[3]), bool)
    keep3[:, :, removed] = False
    g.weights["f1"] = (kf[keep3.reshape(-1), :].copy(), bf.copy())
    layers = []
    for l in g.layers:
        if l.id == "c2":
            layers.append(LayerSpec("c2", "conv2d", (3, 3, 6, 5), padding="same",
                                    activation="relu", prunable=True))
        elif l.id == "f1":
            layers.append(LayerSpec("f1", "fully-connected", (h * w * 5, 10),
                                    activation="relu", prunable=True))
        else:
            layers.append(l)
    pruned = ModelGraph(layers, g.weights, g.input_shape, g.num_classes)
    path = tmp_path / "pruned.json"
    save_model(pruned, path)
    loaded = load_model(path)
    assert loaded.spec("c2").filter_shape == (3, 3, 6, 5)
    assert loaded.spec("f1").filter_shape == (h * w * 5, 10)


def weight_blob(manifest_path, layer_id):
    """Path of a saved layer's weight blob, as its manifest names it."""
    manifest = json.loads(manifest_path.read_text())
    return manifest_path.parent / next(
        e["weight_file"] for e in manifest["layers"] if e["id"] == layer_id)


def test_truncated_blob_names_layer(tmp_path):
    g = conv_chain(seed=3)
    path = tmp_path / "model.json"
    save_model(g, path)
    blob = weight_blob(path, "c2")
    blob.write_bytes(blob.read_bytes()[:-16])
    manifest = json.loads(path.read_text())
    for entry in manifest["layers"]:
        if entry["id"] == "c2":
            import hashlib

            entry["sha256_weight"] = hashlib.sha256(blob.read_bytes()).hexdigest()
    path.write_text(json.dumps(manifest))
    with pytest.raises(ValidationError, match="c2"):
        load_model(path)


def test_checksum_mismatch_names_layer(tmp_path):
    g = conv_chain(seed=3)
    path = tmp_path / "model.json"
    save_model(g, path)
    blob = weight_blob(path, "f1")
    raw = bytearray(blob.read_bytes())
    raw[0] ^= 0xFF
    blob.write_bytes(bytes(raw))
    with pytest.raises(ValidationError, match="f1"):
        load_model(path)


def test_non_finite_weight_blob_rejected(tmp_path):
    g = conv_chain(seed=3)
    path = tmp_path / "model.json"
    save_model(g, path)
    poison_weight_blob(path, "f1")
    with pytest.raises(ValidationError, match="f1 kernel: contains non-finite"):
        load_model(path)


def test_missing_blob_is_io_error(tmp_path):
    g = conv_chain(seed=3)
    path = tmp_path / "model.json"
    save_model(g, path)
    os.remove(weight_blob(path, "c1"))
    with pytest.raises(FileNotFoundError, match="c1"):
        load_model(path)


def test_blob_names_do_not_collide_across_stems(tmp_path):
    """Stem m with layer a_b and stem m_a with layer b once shared m_a_b_w.bin."""
    def fc(layer_id, seed):
        layers = [LayerSpec("fl", "flatten"),
                  LayerSpec(layer_id, "fully-connected", (4, 2), activation="softmax")]
        g = blank_graph(layers, (2, 2, 1), 2)
        g.weights[layer_id] = (np.full((4, 2), float(seed)), np.zeros(2))
        return g

    first, second = fc("a_b", 1), fc("b", 2)
    save_model(first, tmp_path / "m.json")
    save_model(second, tmp_path / "m_a.json")
    assert graph_checksum(load_model(tmp_path / "m.json")) == graph_checksum(first)
    assert graph_checksum(load_model(tmp_path / "m_a.json")) == graph_checksum(second)


def test_manifest_with_old_blob_names_loads(tmp_path):
    """Blob names come from the manifest, so files saved as {stem}_{id}_w.bin
    still load."""
    g = conv_chain(seed=3)
    path = tmp_path / "model.json"
    save_model(g, path)
    manifest = json.loads(path.read_text())
    for entry in manifest["layers"]:
        for key in ("weight_file", "bias_file"):
            if entry[key]:
                old = entry[key].replace("@", "_")
                os.rename(tmp_path / entry[key], tmp_path / old)
                entry[key] = old
    path.write_text(json.dumps(manifest))
    assert not any("@" in p.name for p in tmp_path.iterdir())
    assert graph_checksum(load_model(path)) == graph_checksum(g)


@pytest.mark.parametrize("name", [5, "../model@c1_w.bin", "sub/model@c1_w.bin"])
def test_blob_name_outside_directory_rejected(tmp_path, name):
    g = conv_chain(seed=3)
    save_model(g, tmp_path / "model.json")
    (tmp_path / "sub").mkdir()
    path = tmp_path / "sub" / "model.json"
    manifest = json.loads((tmp_path / "model.json").read_text())
    next(e for e in manifest["layers"] if e["id"] == "c1")["weight_file"] = name
    path.write_text(json.dumps(manifest))
    with pytest.raises(ValidationError, match="layer c1: weight blob name .* is not a file name"):
        load_model(path)


def test_empty_layer_list_rejected():
    g = ModelGraph(layers=[], weights={}, input_shape=(4, 4, 1), num_classes=2)
    with pytest.raises(ValidationError):
        validate_graph(g)


def test_channel_mismatch_rejected():
    layers = [
        LayerSpec("c1", "conv2d", (3, 3, 2, 4), padding="same", activation="relu"),
        LayerSpec("c2", "conv2d", (3, 3, 5, 4), padding="same", activation="relu"),
    ]
    g = blank_graph(layers, (4, 4, 2), 4)
    with pytest.raises(ValidationError, match="c2"):
        validate_graph(g)


def test_pool_divisibility_rejected():
    layers = [LayerSpec("p", "maxpool", (2, 2))]
    g = ModelGraph(layers, {}, (5, 4, 1), 20)
    with pytest.raises(ValidationError, match="p"):
        validate_graph(g)


def test_unwritable_destination_raises_oserror(tmp_path):
    g = conv_chain(seed=3)
    blocker = tmp_path / "not_a_dir"
    blocker.write_text("plain file")
    with pytest.raises(OSError):
        save_model(g, blocker / "model.json")


def test_checksum_changes_with_weights():
    g1 = conv_chain(seed=3)
    g2 = conv_chain(seed=4)
    assert graph_checksum(g1) != graph_checksum(g2)
    assert graph_checksum(g1) == graph_checksum(conv_chain(seed=3))
