"""Per-layer suite: every module of prunekit timed from outside.

Each metric times calls into one module's public functions on fixtures made
from the seed: the desk chain for the training path, the table1 chain for
forward work, artifacts and the CLI. The suite is the same on every
workload, so every traced run reports every per-layer metric. GFLOP/s
figures are computed from ``model.count_flops``, with a training step
counted as three forwards.
"""
from __future__ import annotations

from pathlib import Path

import numpy as np

from prunekit.allocator import (allocation_input, load_plan, save_plan, solve_allocation,
                                uniform_plan)
from prunekit.capacity import capacity_profile, load_report, save_report
from prunekit.cli import worker_count
from prunekit.data import load_dataset, save_dataset, synthetic_textures
from prunekit.engine import TrainConfig, finetune, forward, loss_and_grads, train
from prunekit.model import (LayerSpec, count_flops, graph_checksum, layer_param_count,
                            load_model, save_model, validate_graph)
from prunekit.presets import blank_graph, desk_chain, table1_chain
from prunekit.pruning import (PruneMethod, achieved_remaining, calibrate_strength,
                              load_prune_result, prune, save_prune_result)
from prunekit.sweep import SweepSpec, run_sweep
from record import Ops, time_median
from workloads import (DESK_LR, DESK_TEXTURES, FT_LR, GRID, METHODS, S, TABLE1_TEXTURES, Size,
                       sub_seeds)

STEP_BATCH = 32


def one_layer_chains(g):
    """Each weighted layer alone, with a flatten on the side that needs one,
    carrying the chain's weights; keyed by layer id."""
    shapes = validate_graph(g)
    inputs = [tuple(g.input_shape)] + shapes[:-1]
    chains = {}
    for layer, shape_in, shape_out in zip(g.layers, inputs, shapes):
        if layer.kind == "conv2d":
            one = blank_graph([layer, LayerSpec("pkbench_flat", "flatten")], shape_in,
                              int(np.prod(shape_out)))
        elif layer.kind == "fully-connected":
            one = blank_graph([LayerSpec("pkbench_flat", "flatten"), layer], (1, 1, shape_in[0]),
                              shape_out[0])
        else:
            continue
        one.weights[layer.id] = g.weights[layer.id]
        chains[layer.id] = one
    return chains


def suite(seed: int, size: Size, d: Path, ops: Ops) -> dict[str, tuple[float, str]]:
    m: dict[str, tuple[float, str]] = {}
    s_desk, s_held, s_t1, s_x = sub_seeds(seed, 4)
    desk_data = synthetic_textures(size.desk_train, seed=s_desk, **DESK_TEXTURES)
    desk_held = synthetic_textures(size.desk_heldout, seed=s_held, **DESK_TEXTURES)
    desk = desk_chain(seed=seed)
    t1 = table1_chain(seed=seed)
    reps, micro = size.reps, size.micro_reps

    def ms(name, fn, n=reps):
        return time_median(ops, name, fn, n)[0] * 1e3

    # data
    t, t1_data = time_median(
        ops, "data.synthetic_textures",
        lambda: synthetic_textures(size.batch, seed=s_t1, **TABLE1_TEXTURES), 1)
    m["data.synthetic_s"] = (t, "s")
    data_path = d / "textures.pkds"
    m["data.save_ms"] = (ms("data.save_dataset", lambda: save_dataset(t1_data, data_path)), "ms")
    m["data.load_ms"] = (ms("data.load_dataset", lambda: load_dataset(data_path)), "ms")

    # model
    model_dir = d / "model"
    model_dir.mkdir()
    model_path = model_dir / "table1.json"
    m["model.save_ms"] = (ms("model.save_model", lambda: save_model(t1, model_path)), "ms")
    m["model.bytes_written"] = (sum(p.stat().st_size for p in model_dir.iterdir()), "bytes")
    m["model.load_ms"] = (ms("model.load_model", lambda: load_model(model_path)), "ms")
    m["model.checksum_ms"] = (ms("model.graph_checksum", lambda: graph_checksum(t1)), "ms")
    m["model.validate_ms"] = (ms("model.validate_graph", lambda: validate_graph(t1)), "ms")

    # engine
    xb, yb = desk_data.images[:STEP_BATCH], desk_data.labels[:STEP_BATCH]
    t, _ = time_median(ops, "engine.loss_and_grads", lambda: loss_and_grads(desk, xb, yb), micro)
    m["engine.step_ms"] = (t * 1e3, "ms")
    m["engine.step_gflops"] = (3 * count_flops(desk)[1] * STEP_BATCH / t / 1e9, "GFLOP/s")
    cfg = TrainConfig(epochs=1, learning_rate=DESK_LR, seed=seed)
    t, trained = time_median(ops, "engine.train", lambda: train(desk, desk_data, cfg), 1)
    m["engine.epoch_s"] = (t, "s")
    desk_profile = capacity_profile(trained, desk_data, batch_size=size.batch,
                                    workers=worker_count())
    pruned = prune(trained, solve_allocation(allocation_input(trained, desk_profile, S)),
                   PruneMethod("weight-magnitude"))
    ft = TrainConfig(epochs=1, learning_rate=FT_LR, seed=seed)
    t, _ = time_median(ops, "engine.finetune",
                       lambda: finetune(pruned.model, pruned.masks, desk_data, ft), 1)
    m["engine.finetune_epoch_s"] = (t, "s")
    batch = t1_data.images[:size.batch]
    t, _ = time_median(ops, "engine.forward", lambda: forward(t1, batch), reps)
    m["engine.forward_ms"] = (t * 1e3, "ms")
    m["engine.forward_gflops"] = (count_flops(t1)[1] * len(batch) / t / 1e9, "GFLOP/s")
    rng = np.random.default_rng(s_x)
    for chain, g in (("desk", desk), ("table1", t1)):
        for lid, one in one_layer_chains(g).items():
            x = rng.uniform(0.0, 1.0, (size.fwd_batch, *one.input_shape))
            t, _ = time_median(ops, f"engine.forward.{chain}.{lid}", lambda: forward(one, x), reps)
            m[f"engine.fwd_ms.{chain}.{lid}"] = (t * 1e3, "ms")
            m[f"engine.fwd_gflops.{chain}.{lid}"] = (count_flops(one)[1] * len(x) / t / 1e9,
                                                     "GFLOP/s")

    # capacity
    t, profile = time_median(ops, "capacity.capacity_profile",
                             lambda: capacity_profile(t1, t1_data, batch_size=size.batch,
                                                      workers=worker_count()), reps)
    m["capacity.profile_s"] = (t, "s")
    report_path = d / "capacity.json"
    m["capacity.report_save_ms"] = (ms("capacity.save_report",
                                       lambda: save_report(profile, report_path), micro), "ms")
    m["capacity.report_load_ms"] = (ms("capacity.load_report", lambda: load_report(report_path),
                                       micro), "ms")

    # allocator
    inp = allocation_input(t1, profile, S)
    t, plan = time_median(ops, "allocator.solve_allocation", lambda: solve_allocation(inp), micro)
    m["allocator.solve_us"] = (t * 1e6, "us")
    ids = t1.prunable_ids()
    params = [layer_param_count(t1.spec(lid)) for lid in ids]
    t, _ = time_median(ops, "allocator.uniform_plan", lambda: uniform_plan(ids, params, S), micro)
    m["allocator.uniform_us"] = (t * 1e6, "us")
    m["allocator.solve_iterations"] = (plan.iterations, "count")
    plan_path = d / "plan.json"
    m["allocator.plan_save_ms"] = (ms("allocator.save_plan", lambda: save_plan(plan, plan_path),
                                      micro), "ms")
    m["allocator.plan_load_ms"] = (ms("allocator.load_plan", lambda: load_plan(plan_path),
                                      micro), "ms")

    # pruning
    allocations = [0]

    def allocate(strength):
        allocations[0] += 1
        return solve_allocation(allocation_input(t1, profile, strength))

    for method in METHODS:
        t = ms(f"pruning.calibrate_strength.{method}",
               lambda: calibrate_strength(t1, S, allocate, method))
        m[f"pruning.calibrate_ms.{method}"] = (t, "ms")
    allocations[0] = 0
    calibrate_strength(t1, S, allocate, "channel-l1")
    m["pruning.calibrate_allocations"] = (allocations[0], "count")
    t, _ = time_median(ops, "pruning.achieved_remaining",
                       lambda: achieved_remaining(t1, plan, "channel-l1"), micro)
    m["pruning.dry_run_us"] = (t * 1e6, "us")
    results = {}
    for method in METHODS:
        kind = PruneMethod(method, seed=seed if method == "channel-random" else None)
        t, results[method] = time_median(ops, f"pruning.prune.{method}",
                                         lambda: prune(t1, plan, kind), reps)
        m[f"pruning.prune_ms.{method}"] = (t * 1e3, "ms")
    result_path = d / "pruned.json"
    m["pruning.save_result_ms"] = (ms("pruning.save_prune_result",
                                      lambda: save_prune_result(results["weight-magnitude"],
                                                                result_path)), "ms")
    m["pruning.load_result_ms"] = (ms("pruning.load_prune_result",
                                      lambda: load_prune_result(result_path)), "ms")

    # sweep
    spec = SweepSpec(grid=list(GRID), baseline="both", methods=("weight-magnitude",), seeds=(seed,))
    t, _ = time_median(ops, "sweep.run_sweep",
                       lambda: run_sweep(trained, desk_profile, desk_held, spec, d / "sweep.csv"),
                       1)
    m["sweep.cell_s"] = (t / (2 * len(GRID)), "s")

    # cli, on the table1 artifacts written above
    model, cap = str(model_path), str(d / "cli_capacity.json")
    commands = {
        "capacity": ["capacity", "--model", model, "--data", str(data_path), "--out", cap,
                     "--subsample", str(min(32, size.batch)), "--seed", str(seed)],
        "allocate": ["allocate", "--model", model, "--capacity", cap, "--target", str(S),
                     "--out", str(d / "cli_plan.json")],
        "calibrate": ["calibrate", "--model", model, "--capacity", cap, "--target", str(S),
                      "--method", "channel-l1"],
        "prune": ["prune", "--model", model, "--plan", str(d / "cli_plan.json"),
                  "--method", "weight-magnitude", "--out", str(d / "cli_pruned.json")],
    }
    for sub, argv in commands.items():
        times = []
        for _ in range(reps):
            before = ops.seconds[f"cli.{sub}"]
            if ops.cli(argv) is None:
                raise RuntimeError(f"per-layer suite: {ops.failures[-1]}")
            times.append(ops.seconds[f"cli.{sub}"] - before)
        m[f"cli.{sub}_ms"] = (float(np.median(times)) * 1e3, "ms")
    return m
