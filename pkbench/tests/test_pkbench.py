"""The benchmark's own tests: its references agree with the program, its
checks reject wrong outputs, and the command keeps its output contract.

    python3 -m pytest -q pkbench/tests
"""
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import checks
from prunekit.allocator import allocation_input, solve_allocation, uniform_plan
from prunekit.capacity import profile_from_capacities
from prunekit.engine import init_weights
from prunekit.model import LayerSpec, count_params
from prunekit.presets import blank_graph, desk_chain
from prunekit.pruning import PruneMethod, prune

ROOT = Path(__file__).resolve().parents[2]
RUN = ROOT / "pkbench" / "run.py"


def odd_chain():
    """Even kernel with same padding, valid padding, pool and fc -> fc."""
    layers = [
        LayerSpec("a", "conv2d", (2, 2, 2, 3), padding="same", activation="relu", prunable=True),
        LayerSpec("b", "conv2d", (3, 3, 3, 4), padding="valid", activation="relu", prunable=True),
        LayerSpec("p", "maxpool", (2, 2)),
        LayerSpec("f", "flatten"),
        LayerSpec("c", "fully-connected", (2 * 2 * 4, 5), activation="relu", prunable=True),
        LayerSpec("d", "fully-connected", (5, 3), activation="softmax"),
    ]
    return init_weights(blank_graph(layers, (6, 6, 2), 3), seed=4)


def test_reference_forward_agrees_with_engine_and_sees_a_wrong_kernel():
    g = odd_chain()
    x = np.random.default_rng(1).uniform(0, 1, (5, 6, 6, 2))
    labels = np.arange(5) % 3
    assert all(ok for _, ok, _ in checks.check_forward("odd", g, x, labels, 3))
    g.weights["b"][0][1, 2, 0, 3] += 0.5
    ref = checks.reference_forward(g, x)
    g.weights["b"][0][1, 2, 0, 3] -= 0.5
    assert np.abs(ref - checks.reference_forward(g, x)).max() > 1e-6


def test_gradient_check_passes_on_the_desk_chain():
    g = desk_chain(seed=3)
    x = np.random.default_rng(2).uniform(0, 1, (4, 16, 16, 3))
    assert all(ok for _, ok, _ in checks.check_gradients(g, x, np.arange(4) % 3, 8, 0))


@pytest.mark.parametrize("kind", ["weight-magnitude", "channel-l1", "channel-random"])
def test_analytic_recount_matches_the_pruned_model(kind):
    g = odd_chain()
    plan = uniform_plan(["a", "b", "c"], [count_params(g)[0][i] for i in "abc"], 0.0)
    for row, s in zip(plan.layers, (0.4, 0.5, 0.45)):
        row.sparsity = s
    result = prune(g, plan, PruneMethod(kind, seed=1 if kind == "channel-random" else None))
    res = checks.check_pruned(kind, g, plan, kind, result.model, result.masks,
                              result.remaining_total)
    assert all(ok for _, ok, _ in res), res
    bad = checks.check_pruned(kind, g, plan, kind, result.model, result.masks,
                              result.remaining_total + 1)
    assert not any(ok for _, ok, _ in bad)


def test_plan_checks_reject_a_broken_budget_and_multiplier():
    g = odd_chain()
    per = count_params(g)[0]
    # importance close to proportional to size: every layer stays unclipped
    mus = {lid: 1.0 / np.sqrt(per[lid] * w) for lid, w in zip("abc", (1.0, 1.2, 0.9))}
    plan = solve_allocation(allocation_input(g, profile_from_capacities(mus), 0.5, 0))
    floors = {lid: 0.0 for lid in "abc"}
    assert all(ok for _, ok, _ in checks.check_layerwise_plan("ok", plan, 0.5, floors))
    row = plan.layers[0]
    assert 0.0 < row.sparsity < 1.0 and row.epsilon != 0.0
    row.epsilon *= 1.01
    assert not any(ok for _, ok, _ in checks.check_layerwise_plan("eps", plan, 0.5, floors))
    row.epsilon /= 1.01
    row.remaining += 10
    assert not any(ok for _, ok, _ in checks.check_layerwise_plan("budget", plan, 0.5, floors))


def run(args, cwd, timeout=600):
    return subprocess.run([sys.executable, str(cwd / "pkbench" / "run.py"), *args], cwd=cwd,
                          capture_output=True, text=True, timeout=timeout)


def test_smoke_runs_every_workload_with_its_checks():
    proc = run(["--smoke"], ROOT)
    assert proc.returncode == 0, proc.stdout[-3000:] + proc.stderr[-3000:]
    assert json.loads(proc.stdout.splitlines()[-1])["smoke"] == "ok"
    assert "FAIL" not in proc.stdout


def test_last_line_holds_the_listed_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    proc = run(["--workload", "artifact-plan", "--seed", "5", "--seconds", "0", "--trace", "0"],
               ROOT)
    assert proc.returncode == 0, proc.stderr[-3000:]
    final = json.loads(proc.stdout.splitlines()[-1])
    assert set(final) == {"correct", "attempted", "failed", "metrics"}
    assert final["correct"] is True
    assert set(final["metrics"]) == {m["name"] for m in spec["end_to_end"]}
    assert all(m["value"] > 0 for m in final["metrics"].values())
    assert final["failed"] == 2 and final["attempted"] == 19


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "pkbench", tmp_path / "pkbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run(["--workload", "desk-train", "--seed", "1", "--seconds", "1", "--trace", "0"],
               tmp_path, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
