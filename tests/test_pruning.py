import hashlib
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import conv_chain, fc_graph, random_chains
from prunekit.allocator import solve_allocation, uniform_plan
from prunekit.capacity import profile_from_capacities
from prunekit.engine import forward, init_weights
from prunekit.errors import ValidationError
from prunekit.model import LayerSpec, ModelGraph, count_params, validate_graph
from prunekit.presets import blank_graph, table1_chain
from prunekit.pruning import (
    PruneMethod,
    RefusedPlanError,
    _l1_ranking,
    _smallest,
    achieved_remaining,
    calibrate_strength,
    channels_to_prune,
    load_prune_result,
    prune,
    save_prune_result,
)


def plan_for(g, sparsities: dict[str, float]):
    ids = list(sparsities)
    per, _ = count_params(g)
    # a uniform scaffold, then overwrite the per-layer rates
    plan = uniform_plan(ids, [per[i] for i in ids], 0.0)
    for row in plan.layers:
        row.sparsity = sparsities[row.layer_id]
        row.remaining = (1 - row.sparsity) * row.params
    plan.achieved_total_remaining = sum(r.remaining for r in plan.layers)
    return plan


def fc_prunable(weights, layer_id="fc"):
    g = fc_graph(weights, prunable=True, layer_id=layer_id)
    return g


def test_weight_prune_keeps_largest_magnitudes():
    g = fc_prunable(np.array([[0.1, -0.5, 0.3, -0.2]]))
    plan = plan_for(g, {"fc": 0.5})
    result = prune(g, plan, PruneMethod("weight-magnitude"))
    kernel = result.model.weights["fc"][0]
    assert np.array_equal(kernel, np.array([[0.0, -0.5, 0.3, 0.0]]))
    assert np.array_equal(result.masks["fc"], np.array([[False, True, True, False]]))


def test_weight_prune_zero_target_is_identity():
    g = conv_chain(seed=2)
    per, _ = count_params(g)
    plan = plan_for(g, {"c2": 0.0, "f1": 0.0})
    result = prune(g, plan, PruneMethod("weight-magnitude"))
    for lid, (k, b) in g.weights.items():
        assert np.array_equal(result.model.weights[lid][0], k)
    assert result.masks["c2"].all() and result.masks["f1"].all()
    assert result.remaining_total == per["c1"] + per["c2"] + per["f1"] + per["f2"]


def test_weight_prune_tie_breaks_low_index():
    g = fc_prunable(np.array([[0.2, -0.2, 0.2]]))
    # one of three kernel weights: round(1/3 * 3) = 1
    plan = plan_for(g, {"fc": 1 / 3})
    result = prune(g, plan, PruneMethod("weight-magnitude"))
    assert np.array_equal(result.model.weights["fc"][0], np.array([[0.0, -0.2, 0.2]]))


def test_weight_prune_magnitude_dominance():
    g = conv_chain(seed=8)
    plan = plan_for(g, {"c2": 0.6, "f1": 0.4})
    result = prune(g, plan, PruneMethod("weight-magnitude"))
    for lid in ("c2", "f1"):
        kernel = result.model.weights[lid][0]
        mask = result.masks[lid]
        orig = g.weights[lid][0]
        if mask.all() or not mask.any():
            continue
        assert np.abs(orig[mask]).min() >= np.abs(orig[~mask]).max() - 1e-15


def test_weight_prune_biases_untouched():
    g = conv_chain(seed=8)
    plan = plan_for(g, {"c2": 0.9, "f1": 0.9})
    result = prune(g, plan, PruneMethod("weight-magnitude"))
    for lid in ("c2", "f1"):
        assert np.array_equal(result.model.weights[lid][1], g.weights[lid][1])


def test_masked_and_materialized_models_agree():
    g = conv_chain(seed=8)
    plan = plan_for(g, {"c2": 0.5, "f1": 0.5})
    result = prune(g, plan, PruneMethod("weight-magnitude"))
    rebuilt = ModelGraph(list(g.layers),
                         {lid: (k * result.masks.get(lid, np.ones_like(k, bool)),
                                b.copy())
                          for lid, (k, b) in g.weights.items()},
                         g.input_shape, g.num_classes)
    x = np.random.default_rng(0).uniform(0, 1, (3, 8, 8, 3))
    a, _ = forward(result.model, x)
    b, _ = forward(rebuilt, x)
    assert np.array_equal(a, b)


def test_channels_to_prune_floor_rule():
    g = conv_chain(seed=1, widths=(6, 32))
    plan = plan_for(g, {"c2": 0.5, "f1": 0.34})
    assert channels_to_prune(plan, g.spec("c2")) == 16
    c10 = fc_prunable(np.ones((4, 10)))
    plan10 = plan_for(c10, {"fc": 0.34})
    assert channels_to_prune(plan10, c10.spec("fc")) == 3
    plan0 = plan_for(c10, {"fc": 0.0})
    assert channels_to_prune(plan0, c10.spec("fc")) == 0


def test_l1_removes_smallest_sum_channel():
    layers = [
        LayerSpec("c1", "conv2d", (1, 1, 1, 3), padding="same", activation="none",
                  prunable=True),
        LayerSpec("fl", "flatten"),
        LayerSpec("f1", "fully-connected", (12, 2), activation="softmax"),
    ]
    g = blank_graph(layers, (2, 2, 1), 2)
    kernel = np.zeros((1, 1, 1, 3))
    kernel[0, 0, 0] = [5.0, 1.0, 3.0]
    g.weights["c1"] = (kernel, np.array([0.1, 0.2, 0.3]))
    g.weights["f1"] = (np.arange(24, dtype=float).reshape(12, 2), np.zeros(2))
    plan = plan_for(g, {"c1": 1 / 3})
    result = prune(g, plan, PruneMethod("channel-l1"))
    kept = result.model.weights["c1"][0][0, 0, 0]
    assert np.array_equal(kept, [5.0, 3.0])  # channel 1 (sum 1.0) removed
    assert np.array_equal(result.model.weights["c1"][1], [0.1, 0.3])


def test_l1_tie_breaks_low_channel_index():
    layers = [
        LayerSpec("c1", "conv2d", (1, 1, 1, 3), padding="same", activation="none",
                  prunable=True),
        LayerSpec("fl", "flatten"),
        LayerSpec("f1", "fully-connected", (3, 2), activation="softmax"),
    ]
    g = blank_graph(layers, (1, 1, 1), 2)
    kernel = np.zeros((1, 1, 1, 3))
    kernel[0, 0, 0] = [2.0, -2.0, 2.0]
    g.weights["c1"] = (kernel, np.zeros(3))
    g.weights["f1"] = (np.ones((3, 2)), np.zeros(2))
    plan = plan_for(g, {"c1": 1 / 3})
    result = prune(g, plan, PruneMethod("channel-l1"))
    assert np.array_equal(result.model.weights["c1"][0][0, 0, 0], [-2.0, 2.0])


def stable_smallest(scores, k):
    """The reference: the first k of a stable argsort."""
    return np.sort(np.argsort(scores, kind="stable")[:k])


# integers in -3..3 with -0.0 and 0.0 mixed in, or one value repeated
TIE_VALUES = [-3.0, -2.0, -1.0, -0.0, 0.0, 1.0, 2.0, 3.0]
tie_heavy = st.one_of(
    st.lists(st.sampled_from(TIE_VALUES), min_size=1, max_size=300),
    st.builds(lambda v, n: [v] * n, st.sampled_from(TIE_VALUES), st.integers(1, 300)),
).map(np.array)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(tie_heavy, st.data())
def test_selection_matches_stable_argsort(values, data):
    n = values.size
    k = data.draw(st.integers(0, n), label="k")
    assert np.array_equal(np.flatnonzero(_smallest(values, k)), stable_smallest(values, k))

    # the weight mask: zeroed positions are the first k of a stable argsort of |w|
    g = fc_prunable(values.reshape(1, n))
    result = prune(g, plan_for(g, {"fc": k / n}), PruneMethod("weight-magnitude"))
    dropped = np.flatnonzero(~result.masks["fc"].reshape(-1))
    assert np.array_equal(dropped, stable_smallest(np.abs(values), k))
    assert np.array_equal(result.model.weights["fc"][0].reshape(-1),
                          np.where(result.masks["fc"].reshape(-1), values, 0.0))

    # the channel ranking: L1 sums over every axis but the last
    kernel = np.stack([values, np.roll(values, 1)])
    assert np.array_equal(_l1_ranking(kernel, k),
                          stable_smallest(np.abs(kernel).sum(axis=0), k))


def test_table1_weight_masks_are_pinned():
    """Weight-magnitude at uniform s = 0.5 on table1, FC1's 2,097,152 weights
    included; the digest was computed with a stable argsort selection."""
    g = table1_chain(seed=0)
    result = prune(g, plan_for(g, {lid: 0.5 for lid in g.prunable_ids()}),
                   PruneMethod("weight-magnitude"))
    assert list(result.masks) == ["Conv2", "Conv3", "Conv4", "FC1"]
    packed = b"".join(np.packbits(m.reshape(-1)).tobytes() for m in result.masks.values())
    assert hashlib.sha256(packed).hexdigest() == (
        "b2b8cc095163df9499db2375ad974ef35da8c6f3907da7cae057e8d1c99820a3")


def test_conv_to_conv_propagation_delta():
    layers = [
        LayerSpec("c1", "conv2d", (3, 3, 4, 8), padding="same", activation="relu",
                  prunable=True),
        LayerSpec("c2", "conv2d", (3, 3, 8, 16), padding="same", activation="relu"),
        LayerSpec("fl", "flatten"),
        LayerSpec("f1", "fully-connected", (4 * 4 * 16, 2), activation="softmax"),
    ]
    from prunekit.engine import init_weights

    g = init_weights(blank_graph(layers, (4, 4, 4), 2), seed=0)
    per0, _ = count_params(g)
    plan = plan_for(g, {"c1": 0.25})  # floor(0.25 * 8) = 2 channels
    result = prune(g, plan, PruneMethod("channel-l1"))
    per1, _ = count_params(result.model)
    assert result.model.spec("c2").filter_shape == (3, 3, 6, 16)
    assert per0["c1"] - per1["c1"] == 2 * (3 * 3 * 4 + 1)
    assert per0["c2"] - per1["c2"] == 2 * 3 * 3 * 16 == 288


def test_conv_flatten_fc_row_mapping():
    # conv output 2x2x3; remove channel 1; fc rows are (i*w + j)*C + c
    layers = [
        LayerSpec("c1", "conv2d", (1, 1, 1, 3), padding="same", activation="none",
                  prunable=True),
        LayerSpec("fl", "flatten"),
        LayerSpec("f1", "fully-connected", (12, 2), activation="softmax"),
    ]
    g = blank_graph(layers, (2, 2, 1), 2)
    kernel = np.zeros((1, 1, 1, 3))
    kernel[0, 0, 0] = [5.0, 1.0, 3.0]
    g.weights["c1"] = (kernel, np.zeros(3))
    rows = np.arange(12, dtype=float).reshape(12, 1) * np.ones((1, 2))
    g.weights["f1"] = (rows.copy(), np.zeros(2))
    plan = plan_for(g, {"c1": 1 / 3})
    result = prune(g, plan, PruneMethod("channel-l1"))
    kept_rows = result.model.weights["f1"][0][:, 0]
    expected = [r for r in range(12) if r % 3 != 1]
    assert np.array_equal(kept_rows, expected)


def test_prune_zero_channels_is_identity():
    g = conv_chain(seed=5)
    plan = plan_for(g, {"c2": 0.0, "f1": 0.0})
    result = prune(g, plan, PruneMethod("channel-l1"))
    for lid, (k, b) in g.weights.items():
        assert np.array_equal(result.model.weights[lid][0], k)
        assert np.array_equal(result.model.weights[lid][1], b)


def test_random_channels_deterministic_and_xi_floor():
    g = conv_chain(seed=5, widths=(6, 8))
    plan = plan_for(g, {"c2": 5 / 8})  # floor(5) = 5 of 8 -> 3 survive
    a = prune(g, plan, PruneMethod("channel-random", seed=42))
    b = prune(g, plan, PruneMethod("channel-random", seed=42))
    assert np.array_equal(a.model.weights["c2"][0], b.model.weights["c2"][0])
    assert a.model.spec("c2").filter_shape[-1] == 3
    c = prune(g, plan, PruneMethod("channel-random", seed=43))
    assert a.remaining_total == c.remaining_total  # counts independent of choice


def test_pruned_model_forwards_finite():
    g = conv_chain(seed=5)
    plan = plan_for(g, {"c2": 0.5, "f1": 0.5})
    result = prune(g, plan, PruneMethod("channel-l1"))
    validate_graph(result.model)
    out, _ = forward(result.model, np.random.default_rng(1).uniform(0, 1, (4, 8, 8, 3)))
    assert np.isfinite(out).all()


def test_cannot_channel_prune_last_weighted_layer():
    g = fc_prunable(np.ones((3, 4)))
    plan = plan_for(g, {"fc": 0.5})
    with pytest.raises(ValidationError, match="downstream"):
        prune(g, plan, PruneMethod("channel-l1"))


def test_plan_on_non_prunable_layer_rejected():
    g = conv_chain(seed=5)
    plan = plan_for(g, {"c1": 0.5})  # c1 is not prunable in this fixture
    with pytest.raises(ValidationError, match="non-prunable"):
        prune(g, plan, PruneMethod("channel-l1"))


METHODS = [PruneMethod("weight-magnitude"), PruneMethod("channel-l1"),
           PruneMethod("channel-random", seed=3)]


@pytest.mark.parametrize("s_l", [-0.5, 1.5, float("inf"), float("nan")])
@pytest.mark.parametrize("method", METHODS, ids=lambda m: m.kind)
def test_plan_sparsity_outside_unit_interval_rejected(method, s_l):
    g = conv_chain(seed=5)
    plan = plan_for(g, {"c2": s_l, "f1": 0.5})
    with pytest.raises(ValidationError, match="c2: plan sparsity .* outside"):
        achieved_remaining(g, plan, method)
    with pytest.raises(ValidationError, match="c2: plan sparsity .* outside"):
        prune(g, plan, method)


def test_weight_prune_full_sparsity_zeroes_the_kernel():
    g = conv_chain(seed=5)
    plan = plan_for(g, {"c2": 1.0})
    result = prune(g, plan, PruneMethod("weight-magnitude"))
    assert not result.model.weights["c2"][0].any()
    assert achieved_remaining(g, plan, "weight-magnitude") == result.remaining_total


@pytest.mark.parametrize("method", METHODS, ids=lambda m: m.kind)
def test_prune_rejects_non_finite_weight(method):
    g = conv_chain(seed=5)
    g.weights["c1"][0][0, 0, 0, 0] = np.inf
    plan = plan_for(g, {"c2": 0.5, "f1": 0.5})
    with pytest.raises(ValidationError, match="c1 kernel: contains non-finite"):
        prune(g, plan, method)


def test_dry_run_matches_execution_weight():
    g = conv_chain(seed=5)
    plan = plan_for(g, {"c2": 0.37, "f1": 0.62})
    dry = achieved_remaining(g, plan, "weight-magnitude")
    wet = prune(g, plan, PruneMethod("weight-magnitude"))
    assert dry == wet.remaining_total
    # independent recount: nonzero kernel entries plus biases
    nonzero = sum(int(np.count_nonzero(k)) + b.size
                  for k, b in wet.model.weights.values())
    assert nonzero == wet.remaining_total


def test_dry_run_matches_execution_channel():
    g = conv_chain(seed=5)
    plan = plan_for(g, {"c2": 0.37, "f1": 0.62})
    dry = achieved_remaining(g, plan, "channel-l1")
    wet = prune(g, plan, PruneMethod("channel-l1"))
    assert dry == wet.remaining_total == count_params(wet.model)[1]


@settings(max_examples=200, deadline=None)
@given(random_chains(), st.booleans())
def test_dry_run_matches_execution_on_random_chains(chain, whole_layer):
    """With whole_layer, one planned layer gets s_l = 1: the weight prune
    zeroes it, and the channel prune and its dry run must both refuse it."""
    g, sparsities = chain
    if whole_layer:
        sparsities[next(iter(sparsities))] = 1.0
    plan = plan_for(g, sparsities)
    for method in METHODS:
        if method.is_channel and whole_layer:
            for run in (prune, achieved_remaining):
                with pytest.raises(RefusedPlanError, match="cannot remove"):
                    run(g, plan, method)
            continue
        result = prune(g, plan, method)
        if method.is_channel:
            executed = count_params(result.model)[1]
        else:
            executed = sum(int(result.masks[lid].sum()) if lid in result.masks else k.size
                           for lid, (k, _) in result.model.weights.items())
            executed += sum(b.size for _, b in result.model.weights.values())
        assert achieved_remaining(g, plan, method) == executed == result.remaining_total
        # per layer too, as written to a pruned manifest's per_layer_counts
        assert list(result.remaining_per_layer) == list(result.model.weights)
        for lid, (kernel, bias) in result.model.weights.items():
            mask = result.masks.get(lid)
            kept = kernel.size if mask is None else int(mask.sum())
            assert result.remaining_per_layer[lid] == kept + bias.size
        assert set(result.masks) == (set() if method.is_channel else set(sparsities))


def test_channel_overshoots_plan():
    layers = [
        LayerSpec("c1", "conv2d", (3, 3, 3, 8), padding="same", activation="relu",
                  prunable=True),
        LayerSpec("c2", "conv2d", (3, 3, 8, 8), padding="same", activation="relu",
                  prunable=True),
        LayerSpec("fl", "flatten"),
        LayerSpec("f1", "fully-connected", (4 * 4 * 8, 2), activation="softmax"),
    ]
    from prunekit.engine import init_weights

    g = init_weights(blank_graph(layers, (4, 4, 3), 2), seed=0)
    per, n_total = count_params(g)
    plan = plan_for(g, {"c1": 0.5, "c2": 0.5})
    c = achieved_remaining(g, plan, "channel-l1")
    rest = n_total - per["c1"] - per["c2"]
    planned_remaining = sum(r.remaining for r in plan.layers) + rest
    assert c < planned_remaining  # propagation removes extra parameters


def test_dry_run_zero_target_is_full_count():
    g = conv_chain(seed=5)
    plan = plan_for(g, {"c2": 0.0, "f1": 0.0})
    assert achieved_remaining(g, plan, "channel-l1") == count_params(g)[1]


def make_allocate(g, mus, floor_multiplier=0):
    from prunekit.allocator import allocation_input

    profile = profile_from_capacities(mus)

    def allocate(s):
        return solve_allocation(allocation_input(g, profile, s, floor_multiplier))

    return allocate


def test_calibrate_zero_target():
    g = conv_chain(seed=5)
    allocate = make_allocate(g, {"c2": 0.5, "f1": 0.9})
    cal = calibrate_strength(g, 0.0, allocate, "channel-l1")
    assert cal.s_hat == 0.0
    assert cal.gap == 0.0


def test_calibrate_weight_method_is_identity():
    g = conv_chain(seed=5)
    allocate = make_allocate(g, {"c2": 0.5, "f1": 0.9})
    cal = calibrate_strength(g, 0.5, allocate, "weight-magnitude")
    assert cal.s_hat == 0.5


def test_calibrate_backs_off_from_a_refused_strength():
    # from 0.99 up the plan removes all 8 channels of c2; at s = 0.995 that
    # plan's dry count (222) would still meet the target (220.65)
    g = conv_chain(seed=5)

    def allocate(t):
        return plan_for(g, {"c2": 1.0 if t >= 0.99 else t, "f1": 0.0})

    with pytest.raises(RefusedPlanError):
        achieved_remaining(g, allocate(0.995), "channel-l1")
    cal = calibrate_strength(g, 0.995, allocate, "channel-l1")
    assert cal.s_hat < 0.99
    assert cal.achieved >= cal.target
    result = prune(g, allocate(cal.s_hat), PruneMethod("channel-l1"))
    assert result.remaining_total == cal.achieved


def test_calibrate_channel_backs_off_and_scan_verifies():
    layers = [
        LayerSpec("c1", "conv2d", (3, 3, 3, 10), padding="same", activation="relu",
                  prunable=True),
        LayerSpec("c2", "conv2d", (3, 3, 10, 12), padding="same", activation="relu",
                  prunable=True),
        LayerSpec("c3", "conv2d", (3, 3, 12, 10), padding="same", activation="relu",
                  prunable=True),
        LayerSpec("fl", "flatten"),
        LayerSpec("f1", "fully-connected", (4 * 4 * 10, 3), activation="softmax"),
    ]
    from prunekit.engine import init_weights

    g = init_weights(blank_graph(layers, (4, 4, 3), 3), seed=1)
    allocate = make_allocate(g, {"c1": 0.7, "c2": 0.4, "c3": 1.1})
    s = 0.5
    cal = calibrate_strength(g, s, allocate, "channel-l1")
    n_total = count_params(g)[1]
    n_inc = allocate(s).included_params()
    target = n_total - s * n_inc
    assert cal.s_hat <= s
    assert cal.achieved >= target
    # exhaustive scan at 1e-3 resolution; counts from real executions
    scan = []
    grid = np.arange(0.0, s + 1e-9, 1e-3)
    for t in grid:
        c = count_params(prune(g, allocate(t), PruneMethod("channel-l1")).model)[1]
        scan.append(c)
    scan = np.array(scan)
    assert np.all(np.diff(scan) <= 0)  # monotone nonincreasing
    next_idx = int(np.searchsorted(grid, cal.s_hat + 1e-3))
    if next_idx < len(grid):
        assert scan[next_idx] < target
    # dry-run count agrees with the executed scan at the returned strength
    idx = int(np.searchsorted(grid, cal.s_hat, side="right")) - 1
    assert cal.achieved >= scan[idx + 1] if idx + 1 < len(grid) else True


def test_prune_result_manifest_roundtrip(tmp_path):
    g = conv_chain(seed=5)
    per, _ = count_params(g)
    ids = ["c2", "f1"]
    plan = uniform_plan(ids, [per[i] for i in ids], 0.5)
    result = prune(g, plan, PruneMethod("weight-magnitude"))
    path = tmp_path / "pruned.json"
    save_prune_result(result, path)
    loaded, masks, prov = load_prune_result(path)
    assert prov["method"] == "weight-magnitude"
    assert prov["achieved_sparsity"] == result.achieved_sparsity
    assert prov["plan_sha256"] == result.plan_sha256
    assert set(masks) == {"c2", "f1"}
    for lid in masks:
        assert np.array_equal(masks[lid], result.masks[lid])
        assert np.array_equal(loaded.weights[lid][0], result.model.weights[lid][0])


def test_channel_result_manifest_roundtrip(tmp_path):
    g = conv_chain(seed=5)
    per, _ = count_params(g)
    ids = ["c2", "f1"]
    plan = uniform_plan(ids, [per[i] for i in ids], 0.5)
    result = prune(g, plan, PruneMethod("channel-random", seed=9))
    path = tmp_path / "pruned.json"
    save_prune_result(result, path)
    loaded, masks, prov = load_prune_result(path)
    assert masks == {}
    assert prov["seed"] == 9
    assert count_params(loaded)[1] == result.remaining_total


def test_short_mask_blob_rejected(tmp_path):
    """A mask blob must hold ceil(|K|/8) bytes; unpacking would zero-pad a
    short one into a mask that prunes weights the prune kept."""
    g = conv_chain(seed=5)
    per, _ = count_params(g)
    plan = uniform_plan(["c2", "f1"], [per["c2"], per["f1"]], 0.5)
    path = tmp_path / "pruned.json"
    save_prune_result(prune(g, plan, PruneMethod("weight-magnitude")), path)
    manifest = json.loads(path.read_text())
    entry = next(e for e in manifest["layers"] if e["id"] == "f1")
    blob = tmp_path / entry["mask_file"]
    blob.write_bytes(blob.read_bytes()[:-1])
    entry["sha256_mask"] = hashlib.sha256(blob.read_bytes()).hexdigest()
    path.write_text(json.dumps(manifest))
    with pytest.raises(ValidationError, match="layer f1: mask blob holds"):
        load_prune_result(path)


def test_method_seed_pairing_enforced():
    with pytest.raises(ValidationError):
        PruneMethod("channel-random")
    with pytest.raises(ValidationError):
        PruneMethod("channel-l1", seed=3)
    assert PruneMethod("channel-random", seed=1).is_channel
