"""End-to-end acceptance gate.

Each test implements one numbered criterion at its stated tolerance and
prints a single pass/fail line (visible under ``pytest -s``). The heavy
desk-scale experiment (criteria 08-10) shares one module-scoped fixture
so the ten seeded trainings run once.
"""
import csv
import time

import numpy as np
import pytest

from conftest import conv_chain
from prunekit.allocator import (
    AllocationInput,
    allocation_input,
    solve_allocation,
    uniform_plan,
)
from prunekit.capacity import capacity_profile, profile_from_capacities
from prunekit.data import synthetic_textures
from prunekit.engine import (
    TrainConfig,
    evaluate,
    finetune,
    forward,
    init_weights,
    loss_and_grads,
    train,
)
from prunekit.model import LayerSpec, count_params, validate_graph
from prunekit.presets import blank_graph, desk_chain
from prunekit.pruning import (
    PruneMethod,
    achieved_remaining,
    calibrate_strength,
    channels_to_prune,
    prune,
)
from prunekit.sweep import SweepSpec, run_sweep
from prunekit.tensors import frobenius_norm
from test_allocator import grid_oracle, random_instance
from test_engine import conv_matrix


def report(num: int, description: str, ok: bool, detail: str = ""):
    tag = "PASS" if ok else "FAIL"
    print(f"[criterion {num:02d}] {tag} - {description}" + (f" ({detail})" if detail else ""))
    assert ok, f"criterion {num:02d} failed: {description} {detail}"


# --- criterion 1: allocator oracle equivalence on 1000 random instances ----

def test_criterion_01_allocator_oracle_equivalence():
    rng = np.random.default_rng(2024)
    t0 = time.monotonic()
    worst_eps = 0.0
    worst_budget = 0.0
    for _ in range(1000):
        inp = random_instance(rng)
        plan = solve_allocation(inp)
        oracle = grid_oracle(inp)
        got = np.array([r.epsilon for r in plan.layers])
        worst_eps = max(worst_eps, float(np.abs(got - oracle).max()))
        total = inp.params.sum()
        spent = sum(r.sparsity * r.params for r in plan.layers)
        worst_budget = max(worst_budget, abs(spent - inp.target_sparsity * total) / total)
    elapsed = time.monotonic() - t0
    ok = worst_eps <= 1e-6 and worst_budget <= 1e-6 and elapsed < 10.0
    report(1, "solver matches brute-force minimizer on 1000 random instances", ok,
           f"max|d_eps|={worst_eps:.2e}, max budget err={worst_budget:.2e}, {elapsed:.1f}s")


# --- criterion 2: hand-derived clipped fixture ------------------------------

def test_criterion_02_kkt_fixture():
    plan = solve_allocation(AllocationInput(["a", "b"], [100, 300], [3.0, 1.0],
                                            [0, 0], 0.5))
    eps = np.array([r.epsilon for r in plan.layers])
    s_l = np.array([r.sparsity for r in plan.layers])
    ok = (np.abs(eps - [-1 / 3, 1.0]).max() <= 1e-9
          and np.abs(s_l - [0.0, 2 / 3]).max() <= 1e-9)
    report(2, "clipped fixture returns eps=[-1/3, 1], s=[0, 2/3]", ok,
           f"eps={eps}, s={s_l}")


# --- criterion 3: uniform reduction when importance tracks size -------------

def test_criterion_03_uniform_reduction():
    rng = np.random.default_rng(7)
    worst = 0.0
    for _ in range(100):
        n = rng.integers(1, 7)
        params = rng.integers(10, 10**5, n)
        c = rng.uniform(1e-3, 1e3)
        s = float(rng.uniform(0.0, 0.95))
        inp = AllocationInput([f"L{i}" for i in range(n)], params, c * params,
                              np.zeros(n), s)
        plan = solve_allocation(inp)
        worst = max(worst, max(abs(r.sparsity - s) for r in plan.layers))
    report(3, "proportional importance reproduces the uniform split", worst <= 1e-12,
           f"max|s_l - s|={worst:.2e}")


# --- criterion 4: capacity correctness ---------------------------------------

def test_criterion_04_capacity_correctness():
    rng = np.random.default_rng(11)
    # fully-connected capacities never exceed 1
    worst_mu = 0.0
    for _ in range(100):
        fin, fout = rng.integers(1, 16, 2)
        w = rng.standard_normal((fin, fout)) * rng.uniform(0.1, 3.0)
        layers = [
            LayerSpec("fl", "flatten"),
            LayerSpec("fc", "fully-connected", (int(fin), int(fout)),
                      activation="none", prunable=True),
        ]
        g = blank_graph(layers, (1, 1, int(fin)), int(fout))
        g.weights["fc"] = (w, np.zeros(int(fout)))
        x = rng.uniform(0, 1, (6, 1, 1, int(fin)))
        _, trace = forward(g, x, capture={"fc"})
        in_n, out_n = trace["fc"]
        keep = in_n >= 1e-12
        mu = float((out_n[keep] / (frobenius_norm(w) * in_n[keep])).max())
        worst_mu = max(worst_mu, mu)
    fc_ok = worst_mu <= 1.0 + 1e-9

    # conv responses match the materialized operator matrix
    worst_conv = 0.0
    for _ in range(10):
        h, w_ = rng.integers(3, 7, 2)
        cin, cout = rng.integers(1, 4, 2)
        kernel = rng.standard_normal((3, 3, int(cin), int(cout)))
        layers = [
            LayerSpec("c", "conv2d", (3, 3, int(cin), int(cout)), padding="same",
                      activation="relu", prunable=True),
            LayerSpec("fl", "flatten"),
        ]
        g = blank_graph(layers, (int(h), int(w_), int(cin)),
                        int(h) * int(w_) * int(cout))
        g.weights["c"] = (kernel, rng.standard_normal(int(cout)))
        x = rng.uniform(0, 1, (4, int(h), int(w_), int(cin)))
        _, trace = forward(g, x, capture={"c"})
        mat = conv_matrix(kernel, (int(h), int(w_), int(cin)), "same")
        for i in range(4):
            expected = np.linalg.norm(mat @ x[i].reshape(-1))
            worst_conv = max(worst_conv, abs(trace["c"][1][i] - expected))
    conv_ok = worst_conv <= 1e-10

    # capacity is invariant to kernel scale
    g = conv_chain(seed=3)
    d_imgs = rng.uniform(0, 1, (12, 8, 8, 3))
    from prunekit.data import Dataset

    d = Dataset(d_imgs, np.zeros(12, dtype=int), 4)
    base = capacity_profile(g, d).layer("c2").mu
    worst_scale = 0.0
    for c in (1e-3, 7.0, 1e3):
        k, b = g.weights["c2"]
        g2 = conv_chain(seed=3)
        g2.weights["c2"] = (k * c, b)
        worst_scale = max(worst_scale, abs(capacity_profile(g2, d).layer("c2").mu - base))
    scale_ok = worst_scale <= 1e-10

    report(4, "fc mu <= 1, conv responses match matrix oracle, scale invariance",
           fc_ok and conv_ok and scale_ok,
           f"max fc mu={worst_mu:.6f}, conv err={worst_conv:.1e}, scale err={worst_scale:.1e}")


# --- criterion 5: gradient check ---------------------------------------------

def test_criterion_05_gradient_check():
    layers = [
        LayerSpec("c1", "conv2d", (3, 3, 2, 3), padding="same", activation="relu"),
        LayerSpec("p1", "maxpool", (2, 2)),
        LayerSpec("fl", "flatten"),
        LayerSpec("f1", "fully-connected", (12, 4), activation="softmax"),
    ]
    g = init_weights(blank_graph(layers, (4, 4, 2), 4), seed=7)
    n_params = count_params(g)[1]
    assert n_params <= 500
    rng = np.random.default_rng(3)
    xb = rng.uniform(0, 1, (8, 4, 4, 2))
    yb = rng.integers(0, 4, 8)
    _, grads = loss_and_grads(g, xb, yb)
    coords = []
    for lid in ("c1", "f1"):
        for which in (0, 1):
            for i in range(g.weights[lid][which].size):
                coords.append((lid, which, i))
    picks = rng.choice(len(coords), size=100, replace=False)
    h = 1e-5
    worst = 0.0
    for p in picks:
        lid, which, i = coords[p]
        arr = g.weights[lid][which].reshape(-1)
        orig = arr[i]
        arr[i] = orig + h
        lp, _ = loss_and_grads(g, xb, yb)
        arr[i] = orig - h
        lm, _ = loss_and_grads(g, xb, yb)
        arr[i] = orig
        numeric = (lp - lm) / (2 * h)
        analytic = grads[lid][which].reshape(-1)[i]
        worst = max(worst, abs(analytic - numeric) / max(abs(analytic), abs(numeric), 1e-10))
    report(5, "backprop matches central differences on 100 random coordinates",
           worst <= 1e-4, f"max rel err={worst:.2e}, params={n_params}")


# --- criterion 6: pruning count exactness ------------------------------------

def random_chain(rng):
    """Random conv/pool/fc chain with valid composition."""
    size = int(rng.choice([4, 6, 8]))
    cin = int(rng.integers(1, 4))
    n_conv = int(rng.integers(1, 4))
    layers = []
    c_prev = cin
    h = size
    for i in range(n_conv):
        cout = int(rng.integers(4, 10))
        layers.append(LayerSpec(f"c{i}", "conv2d", (3, 3, c_prev, cout),
                                padding="same", activation="relu", prunable=True))
        c_prev = cout
    if h % 2 == 0 and rng.random() < 0.5:
        layers.append(LayerSpec("p0", "maxpool", (2, 2)))
        h //= 2
    layers.append(LayerSpec("fl", "flatten"))
    fin = h * h * c_prev
    n_fc = int(rng.integers(1, 3))
    for j in range(n_fc):
        fout = int(rng.integers(4, 12)) if j < n_fc - 1 else int(rng.integers(2, 6))
        prunable = j < n_fc - 1
        layers.append(LayerSpec(f"f{j}", "fully-connected", (fin, fout),
                                activation="softmax" if j == n_fc - 1 else "relu",
                                prunable=prunable))
        fin = fout
    classes = layers[-1].filter_shape[1]
    g = init_weights(blank_graph(layers, (size, size, cin), classes), int(rng.integers(1e6)))
    # the last conv is only prunable when some weighted layer follows it
    return g


def analytic_channel_count(g, removed: dict[str, int]) -> int:
    """Independent symbolic count of post-prune parameters."""
    shapes = validate_graph(g)
    in_shape = {}
    prev = tuple(g.input_shape)
    for layer, shp in zip(g.layers, shapes):
        in_shape[layer.id] = prev
        prev = shp
    total = 0
    carried_channels = 0
    carried_rows = 0
    for layer in g.layers:
        if layer.kind == "flatten" and carried_channels:
            h, w, _ = in_shape[layer.id]
            carried_rows = carried_channels * h * w
            carried_channels = 0
        if not layer.is_weighted():
            continue
        gone = removed.get(layer.id, 0)
        if layer.kind == "conv2d":
            kh, kw, ci, co = layer.filter_shape
            total += kh * kw * (ci - carried_channels) * (co - gone) + (co - gone)
        else:
            fin, fout = layer.filter_shape
            fin -= carried_rows if carried_rows else carried_channels
            total += (fin) * (fout - gone) + (fout - gone)
        carried_channels = gone
        carried_rows = 0
    return total


def test_criterion_06_pruning_count_exactness():
    rng = np.random.default_rng(99)
    checked = 0
    all_exact = True
    while checked < 50:
        g = random_chain(rng)
        prunable = [l.id for l in g.layers if l.prunable]
        # drop any prunable layer without a weighted successor
        weighted = [l.id for l in g.layers if l.is_weighted()]
        prunable = [lid for lid in prunable if lid != weighted[-1]]
        if not prunable:
            continue
        chosen = [lid for lid in prunable if rng.random() < 0.8] or prunable[:1]
        per, n_orig = count_params(g)
        sparsities = {lid: float(rng.uniform(0.0, 0.8)) for lid in chosen}
        plan = uniform_plan(chosen, [per[i] for i in chosen], 0.0)
        for row in plan.layers:
            row.sparsity = sparsities[row.layer_id]
            row.remaining = (1 - row.sparsity) * row.params
        method = "channel-l1" if checked % 2 == 0 else "channel-random"
        if method == "channel-l1":
            result = prune(g, plan, PruneMethod("channel-l1"))
        else:
            result = prune(g, plan, PruneMethod("channel-random", seed=checked))
        removed = {lid: channels_to_prune(plan, g.spec(lid)) for lid in chosen}
        expected = analytic_channel_count(g, removed)
        executed = count_params(result.model)[1]
        dry = achieved_remaining(g, plan, method)
        all_exact &= executed == expected == dry == result.remaining_total
        # single-layer delta formulas against the executed model
        lid = chosen[0]
        single = uniform_plan([lid], [per[lid]], 0.0)
        single.layers[0].sparsity = sparsities[lid]
        single.layers[0].remaining = (1 - sparsities[lid]) * per[lid]
        k = channels_to_prune(single, g.spec(lid))
        res1 = prune(g, single, PruneMethod("channel-l1"))
        per1, _ = count_params(res1.model)
        spec = g.spec(lid)
        if spec.kind == "conv2d":
            kh, kw, ci, _ = spec.filter_shape
            delta_self = k * (kh * kw * ci + 1)
        else:
            fin, _ = spec.filter_shape
            delta_self = k * (fin + 1)
        all_exact &= (per[lid] - per1[lid]) == delta_self
        idx = weighted.index(lid)
        succ = g.spec(weighted[idx + 1])
        if succ.kind == "conv2d":
            kh2, kw2, _, co2 = succ.filter_shape
            delta_succ = k * kh2 * kw2 * co2
        elif spec.kind == "conv2d":  # conv -> flatten -> fc: one row per position
            shapes = validate_graph(g)
            flat_idx = next(i for i, l in enumerate(g.layers) if l.kind == "flatten")
            flat_in = shapes[flat_idx - 1] if flat_idx else g.input_shape
            delta_succ = k * flat_in[0] * flat_in[1] * succ.filter_shape[1]
        else:  # fc -> fc: one row per removed unit
            delta_succ = k * succ.filter_shape[1]
        all_exact &= (per[succ.id] - per1[succ.id]) == delta_succ
        checked += 1
    report(6, "channel deltas match analytic formulas; dry run equals recount",
           all_exact, f"{checked} chains")


# --- criterion 7: target-strength calibration --------------------------------

def test_criterion_07_s_hat_calibration():
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
    g = init_weights(blank_graph(layers, (4, 4, 3), 3), seed=1)
    profile = profile_from_capacities({"c1": 0.7, "c2": 0.4, "c3": 1.1})

    def allocate(t):
        return solve_allocation(allocation_input(g, profile, t, 3))

    s = 0.5
    cal = calibrate_strength(g, s, allocate, "channel-l1")
    n_total = count_params(g)[1]
    target = n_total - s * allocate(s).included_params()

    grid = np.round(np.arange(0.0, s + 1e-9, 1e-3), 10)
    scan = np.array([count_params(prune(g, allocate(t), PruneMethod("channel-l1")).model)[1]
                     for t in grid])
    monotone = bool(np.all(np.diff(scan) <= 0))
    meets = cal.achieved >= target
    next_idx = int(np.searchsorted(grid, cal.s_hat + 1e-3))
    next_below = scan[next_idx] < target if next_idx < len(grid) else True
    report(7, "calibrated strength meets the budget; next grid step undershoots",
           monotone and meets and next_below,
           f"s_hat={cal.s_hat:.4f}, C={cal.achieved}, target={target:.1f}")


# --- criteria 8-10: desk-scale experiment ------------------------------------

GRID = (0.3, 0.5, 0.7)
SEEDS = tuple(range(10))


@pytest.fixture(scope="module")
def desk_runs():
    data = synthetic_textures(5000, 16, 16, 3, num_classes=3, seed=123)
    runs = []
    for seed in SEEDS:
        g = train(desk_chain(seed=seed), data,
                  TrainConfig(epochs=14, learning_rate=0.008, seed=seed))
        acc0 = evaluate(g, data)
        profile = capacity_profile(g, data, batch_size=512)
        runs.append({"seed": seed, "model": g, "acc0": acc0, "profile": profile})
    return data, runs


def _sweep_csv(run, data, path):
    spec = SweepSpec(grid=list(GRID), baseline="both", methods=("weight-magnitude",),
                     finetune=False, seeds=(run["seed"],))
    run_sweep(run["model"], run["profile"], data, spec, path)
    with open(path) as fh:
        rows = list(csv.DictReader(fh))
    return {(float(r["s"]), r["allocation"]): float(r["accuracy"]) for r in rows}


def test_criterion_08_desk_scale_trend(desk_runs, tmp_path):
    t0 = time.monotonic()
    data, runs = desk_runs
    trained_ok = all(r["acc0"] >= 0.90 for r in runs)
    wins_07 = 0
    gaps_05 = []
    for run in runs:
        acc = _sweep_csv(run, data, tmp_path / f"sweep_{run['seed']}.csv")
        if acc[(0.7, "layerwise")] >= acc[(0.7, "uniform")]:
            wins_07 += 1
        gaps_05.append(acc[(0.5, "layerwise")] - acc[(0.5, "uniform")])
    elapsed = time.monotonic() - t0
    ok = trained_ok and wins_07 >= 7 and float(np.mean(gaps_05)) >= 0.0
    report(8, "layer-wise allocation beats uniform at desk scale", ok,
           f"min acc0={min(r['acc0'] for r in runs):.3f}, wins@0.7={wins_07}/10, "
           f"mean gap@0.5={np.mean(gaps_05):+.4f}, sweep time={elapsed:.0f}s")


def test_criterion_09_finetune_recovery(desk_runs):
    data, runs = desk_runs
    improved = 0
    for run in runs:
        g, profile, seed = run["model"], run["profile"], run["seed"]

        def allocate(t):
            return solve_allocation(allocation_input(g, profile, t, 3))

        cal = calibrate_strength(g, 0.5, allocate, "channel-l1")
        result = prune(g, allocate(cal.s_hat), PruneMethod("channel-l1"))
        pruned_acc = evaluate(result.model, data)
        tuned = finetune(result.model, result.masks, data,
                         TrainConfig(epochs=3, learning_rate=1e-4, seed=seed))
        tuned_acc = evaluate(tuned, data)
        if tuned_acc > pruned_acc:
            improved += 1
    report(9, "3-epoch fine-tune strictly improves channel-pruned accuracy",
           improved >= 8, f"improved {improved}/10 seeds")


def test_criterion_10_sweep_determinism(desk_runs, tmp_path):
    data, runs = desk_runs
    identical = True
    for run in runs[:10]:
        a = tmp_path / f"a_{run['seed']}.csv"
        b = tmp_path / f"b_{run['seed']}.csv"
        spec = SweepSpec(grid=list(GRID), baseline="both",
                         methods=("weight-magnitude",), finetune=False,
                         seeds=(run["seed"],))
        run_sweep(run["model"], run["profile"], data, spec, a)
        run_sweep(run["model"], run["profile"], data, spec, b)
        identical &= a.read_bytes() == b.read_bytes()
    report(10, "repeating the sweep reproduces the CSV byte-for-byte", identical)
