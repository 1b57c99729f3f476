import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_chains
from prunekit.allocator import (
    AllocationInput,
    allocation_input,
    check_feasible,
    compute_alpha,
    load_plan,
    make_plan,
    min_remaining_floors,
    plan_to_dict,
    save_plan,
    solve_allocation,
    uniform_plan,
)
from prunekit.capacity import profile_from_capacities
from prunekit.errors import InfeasibleAllocationError, PrunekitError, ValidationError
from prunekit.model import LayerSpec, layer_param_count
from prunekit.presets import blank_graph, table1_chain


def naive_sparsities(inp):
    """Unclipped per-layer sparsities; entries may fall outside [0, 1)."""
    alpha = compute_alpha(inp.target_sparsity, inp.total_params, inp.omega_total)
    return 1.0 - alpha * inp.omegas / inp.params


def random_instance(rng, n_layers=None, s=None):
    n = n_layers or rng.integers(1, 7)
    params = rng.integers(10, 10**5, n)
    omegas = rng.uniform(1e-3, 1e3, n)
    s = float(rng.uniform(0.0, 0.95)) if s is None else s
    floors = np.floor(rng.uniform(0.0, 0.6, n) * params)
    budget = (1 - s) * params.sum()
    if floors.sum() > 0.95 * budget:
        floors = np.floor(floors * 0.9 * budget / floors.sum())
    ids = [f"L{i}" for i in range(n)]
    return AllocationInput(ids, params, omegas, floors, s)


def edge_instances():
    """Boundary inputs for the oracle comparisons: duplicate kinks, s = 0 and
    floors that use up the whole budget."""
    return [
        # floor equal to size: both kinks of layer c coincide
        AllocationInput(["a", "b", "c"], [100, 300, 50], [3.0, 1.0, 2.0], [0, 0, 50], 0.3),
        # identical layers share both kinks
        AllocationInput(["a", "b", "c"], [100, 100, 300], [1.0, 1.0, 5.0], [5, 5, 0], 0.6),
        AllocationInput(["a", "b", "c"], [100, 300, 50], [3.0, 1.0, 2.0], [0, 0, 0], 0.0),
        AllocationInput(["a", "b", "c"], [100, 300, 50], [3.0, 1.0, 2.0], [10, 30, 5], 0.0),
        # floors sum exactly to the budget: 200, then 180
        AllocationInput(["a", "b"], [100, 300], [1.0, 4.0], [80, 120], 0.5),
        AllocationInput(["a", "b", "c"], [100, 300, 50], [3.0, 1.0, 2.0], [60, 70, 50], 0.6),
    ]


def grid_oracle(inp, stages=10, points=2001):
    """Independent minimizer: dense multiplier grid, refined around the
    budget crossing; resolution far beyond one part in 1e6."""
    s, total = inp.target_sparsity, inp.params.sum()
    alpha = (1 - s) * total / inp.omegas.sum()
    a = alpha * inp.omegas
    lo = inp.floors / a - 1.0
    hi = inp.params / a - 1.0
    target = (1 - s) * total - a.sum()

    def g(lams):
        eps = np.clip(lams[:, None] * a[None, :], lo[None, :], hi[None, :])
        return (eps * a[None, :]).sum(axis=1)

    left, right = (lo / a).min(), (hi / a).max()
    for _ in range(stages):
        lams = np.linspace(left, right, points)
        vals = g(lams) - target
        idx = int(np.searchsorted(vals >= 0, True))
        idx = min(max(idx, 1), points - 1)
        left, right = lams[idx - 1], lams[idx]
    lam = 0.5 * (left + right)
    return np.clip(lam * a, lo, hi)


def dykstra_oracle(inp, iterations=20000):
    """Projection of the origin onto box-and-hyperplane by Dykstra's
    alternating projections; shares no structure with the multiplier solve."""
    s, total = inp.target_sparsity, inp.params.sum()
    alpha = (1 - s) * total / inp.omegas.sum()
    a = alpha * inp.omegas
    lo = inp.floors / a - 1.0
    hi = inp.params / a - 1.0
    t = (1 - s) * total - a.sum()
    aa = float(a @ a)
    x = np.zeros_like(a)
    p = np.zeros_like(a)
    q = np.zeros_like(a)
    for _ in range(iterations):
        y = np.clip(x + p, lo, hi)
        p = x + p - y
        x = y + q - ((a @ (y + q) - t) / aa) * a
        q = y + q - x
    return np.clip(x, lo, hi)


def test_alpha_formula():
    assert compute_alpha(0.5, 400, 4) == pytest.approx(50.0)


def test_alpha_no_pruning():
    assert compute_alpha(0.0, 1234, 7.5) == pytest.approx(1234 / 7.5)


def test_alpha_proportional_case():
    assert compute_alpha(0.3, 500, 500) == pytest.approx(0.7)


def test_naive_uniform_when_omega_tracks_params():
    inp = AllocationInput(["a", "b"], [100, 300], [1.0, 3.0], [0, 0], 0.5)
    assert np.allclose(naive_sparsities(inp), [0.5, 0.5], atol=1e-12)


def test_naive_equal_importance():
    inp = AllocationInput(["a", "b"], [100, 300], [1.0, 1.0], [0, 0], 0.5)
    assert np.allclose(naive_sparsities(inp), [0.0, 2 / 3], atol=1e-12)


def test_naive_can_go_negative():
    inp = AllocationInput(["a", "b"], [100, 300], [3.0, 1.0], [0, 0], 0.5)
    got = naive_sparsities(inp)
    assert got[0] == pytest.approx(-0.5, abs=1e-12)
    assert got[1] == pytest.approx(5 / 6, abs=1e-12)


def test_feasible_inequalities():
    assert check_feasible(AllocationInput(["a", "b"], [100, 300], [1, 1], [10, 10], 0.9))
    assert not check_feasible(AllocationInput(["a", "b"], [100, 300], [1, 1], [30, 30], 0.9))
    assert check_feasible(AllocationInput(["a", "b"], [100, 300], [1, 1], [0, 0], 0.9))


def test_solver_unclipped_case():
    plan = solve_allocation(AllocationInput(["a", "b"], [100, 300], [1.0, 1.0], [0, 0], 0.5))
    assert plan.layers[0].epsilon == pytest.approx(0.0, abs=1e-9)
    assert plan.layers[1].epsilon == pytest.approx(0.0, abs=1e-9)
    assert plan.layers[0].sparsity == pytest.approx(0.0, abs=1e-9)
    assert plan.layers[1].sparsity == pytest.approx(2 / 3, abs=1e-9)


def test_solver_kkt_fixture():
    plan = solve_allocation(AllocationInput(["a", "b"], [100, 300], [3.0, 1.0], [0, 0], 0.5))
    assert plan.layers[0].epsilon == pytest.approx(-1 / 3, abs=1e-9)
    assert plan.layers[1].epsilon == pytest.approx(1.0, abs=1e-9)
    assert plan.layers[0].sparsity == pytest.approx(0.0, abs=1e-9)
    assert plan.layers[1].sparsity == pytest.approx(2 / 3, abs=1e-9)
    assert plan.layers[0].remaining == pytest.approx(100.0, abs=1e-9)


def test_solver_kkt_fixture_against_elimination_grid():
    # brute force over eps_0 with the budget constraint eliminated
    inp = AllocationInput(["a", "b"], [100, 300], [3.0, 1.0], [0, 0], 0.5)
    a = np.array([150.0, 50.0])
    lo = inp.floors / a - 1
    hi = inp.params / a - 1
    e0 = np.linspace(lo[0], hi[0], 2_000_001)
    e1 = -a[0] * e0 / a[1]
    ok = (e1 >= lo[1] - 1e-12) & (e1 <= hi[1] + 1e-12)
    cost = np.where(ok, e0**2 + e1**2, np.inf)
    best = int(np.argmin(cost))
    plan = solve_allocation(inp)
    assert plan.layers[0].epsilon == pytest.approx(e0[best], abs=1e-6)
    assert plan.layers[1].epsilon == pytest.approx(e1[best], abs=1e-6)


def test_solver_exact_zero_multiplier():
    # the ideal split fits every box, so the multiplier is exactly 0
    plan = solve_allocation(AllocationInput(["a", "b", "c"], [100] * 3, [1.0] * 3,
                                            [0] * 3, 0.37))
    for row in plan.layers:
        assert row.epsilon == 0.0
        assert row.sparsity == 0.37


def test_solver_kkt_random():
    # one multiplier: eps_l = lam * a_l off the box, lam * a_l beyond the
    # clipped bound on it
    rng = np.random.default_rng(12)
    for _ in range(200):
        inp = random_instance(rng)
        plan = solve_allocation(inp)
        a = plan.alpha * inp.omegas
        lo = inp.floors / a - 1.0
        hi = inp.params / a - 1.0
        eps = np.array([r.epsilon for r in plan.layers])
        at_lo, at_hi = eps <= lo, eps >= hi
        free = ~(at_lo | at_hi)
        # the budget lies strictly between floors and sizes, so a layer is free
        assert free.any()
        lams = eps[free] / a[free]
        assert lams.max() - lams.min() <= 1e-9 * np.abs(lams).max()
        lam = float(np.median(lams))
        assert np.all(lam * a[at_lo] <= lo[at_lo] + 1e-9 * np.abs(lo[at_lo]))
        assert np.all(lam * a[at_hi] >= hi[at_hi] - 1e-9 * np.abs(hi[at_hi]))


def test_solver_clipped_layers_sit_exactly_on_the_box():
    # a layer clipped at its size keeps all of it (s_l == 0.0, where
    # a * (1 + hi) alone rounds to 49.999999999999986 of 50), and one clipped
    # at its floor keeps exactly the floor
    plan = solve_allocation(AllocationInput(["a", "b", "c"], [100, 300, 50], [3.0, 1.0, 2.0],
                                            [0, 0, 0], 0.0))
    assert [r.sparsity for r in plan.layers] == [0.0, 0.0, 0.0]
    rng = np.random.default_rng(13)
    for inp in [*(random_instance(rng) for _ in range(200)), *edge_instances()]:
        plan = solve_allocation(inp)
        a = plan.alpha * inp.omegas
        for i, row in enumerate(plan.layers):
            if row.epsilon >= inp.params[i] / a[i] - 1.0:
                assert row.remaining == inp.params[i] and row.sparsity == 0.0
            elif row.epsilon <= inp.floors[i] / a[i] - 1.0:
                assert row.remaining == inp.floors[i]


def test_single_layer_forced_to_target():
    plan = solve_allocation(AllocationInput(["x"], [1000], [3.7], [10], 0.42))
    assert plan.layers[0].sparsity == pytest.approx(0.42, abs=1e-12)


def test_floor_boundary_returns_floors():
    plan = solve_allocation(AllocationInput(["a", "b"], [100, 300], [1.0, 1.0],
                                            [30, 10], 0.9))
    assert plan.layers[0].remaining == pytest.approx(30.0, abs=1e-9)
    assert plan.layers[1].remaining == pytest.approx(10.0, abs=1e-9)


def test_infeasible_raises_with_values():
    with pytest.raises(InfeasibleAllocationError) as exc:
        solve_allocation(AllocationInput(["a", "b"], [100, 300], [1.0, 1.0],
                                         [30, 30], 0.9))
    msg = str(exc.value)
    assert "60" in msg and "40" in msg
    assert exc.value.floor_total == 60
    assert exc.value.budget == pytest.approx(40.0)


def test_floor_exceeding_layer_rejected():
    with pytest.raises(ValidationError, match="floor"):
        AllocationInput(["a"], [100], [1.0], [150], 0.5)


def test_budget_identity_random():
    rng = np.random.default_rng(0)
    for _ in range(200):
        inp = random_instance(rng)
        plan = solve_allocation(inp)
        total = inp.params.sum()
        spent = sum(r.sparsity * r.params for r in plan.layers)
        assert abs(spent - inp.target_sparsity * total) <= 1e-6 * total


def test_box_respected_random():
    rng = np.random.default_rng(1)
    for _ in range(200):
        inp = random_instance(rng)
        plan = solve_allocation(inp)
        for row, floor, cap in zip(plan.layers, inp.floors, inp.params):
            assert row.remaining >= floor - 1e-9
            assert row.remaining <= cap + 1e-9


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 6), st.floats(0, 0.95), st.integers(0, 2**31))
def test_uniform_reduction_property(n, s, seed):
    rng = np.random.default_rng(seed)
    params = rng.integers(10, 10**5, n)
    c = rng.uniform(1e-3, 1e3)
    inp = AllocationInput([f"L{i}" for i in range(n)], params, c * params,
                          np.zeros(n), s)
    plan = solve_allocation(inp)
    for row in plan.layers:
        assert abs(row.sparsity - s) <= 1e-12


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**31), st.floats(1e-6, 1e6))
def test_importance_scale_invariance(seed, c):
    rng = np.random.default_rng(seed)
    inp = random_instance(rng)
    scaled = AllocationInput(inp.layer_ids, inp.params, c * inp.omegas,
                             inp.floors, inp.target_sparsity)
    a = solve_allocation(inp)
    b = solve_allocation(scaled)
    for ra, rb in zip(a.layers, b.layers):
        assert abs(ra.sparsity - rb.sparsity) <= 1e-12


def test_monotone_remaining_in_target():
    rng = np.random.default_rng(7)
    for _ in range(50):
        inp = random_instance(rng, s=0.2)
        higher = AllocationInput(inp.layer_ids, inp.params, inp.omegas,
                                 inp.floors, 0.6)
        if not check_feasible(higher):
            continue
        a = solve_allocation(inp)
        b = solve_allocation(higher)
        for ra, rb in zip(a.layers, b.layers):
            assert rb.remaining <= ra.remaining + 1e-6


def test_solver_matches_dykstra_projection():
    rng = np.random.default_rng(4)
    for inp in [*(random_instance(rng) for _ in range(25)), *edge_instances()]:
        plan = solve_allocation(inp)
        oracle = dykstra_oracle(inp)
        got = np.array([r.epsilon for r in plan.layers])
        assert np.allclose(got, oracle, atol=2e-5)


def test_solver_matches_grid_oracle():
    rng = np.random.default_rng(5)
    for inp in [*(random_instance(rng) for _ in range(100)), *edge_instances()]:
        plan = solve_allocation(inp)
        oracle = grid_oracle(inp)
        got = np.array([r.epsilon for r in plan.layers])
        assert np.allclose(got, oracle, atol=1e-6)


def test_uniform_plan_sets_every_layer_to_target():
    plan = uniform_plan(["a", "b", "c"], [10, 20, 30], 0.5)
    assert all(r.sparsity == 0.5 for r in plan.layers)
    assert plan.allocation == "uniform"
    assert plan.achieved_total_remaining == pytest.approx(30.0)


@settings(max_examples=40, deadline=None)
@given(random_chains(), st.floats(0.0, 0.95), st.sampled_from([0, 3]))
def test_make_plan_is_the_uniform_or_the_layerwise_plan(chain, s, floor_multiplier):
    g, draws = chain
    ids = g.prunable_ids()
    uniform = uniform_plan(ids, [layer_param_count(g.spec(lid)) for lid in ids], s)
    assert plan_to_dict(make_plan(g, s)) == plan_to_dict(uniform)
    profile = profile_from_capacities({lid: 0.5 + draws[lid] for lid in ids})
    try:
        layerwise = solve_allocation(allocation_input(g, profile, s, floor_multiplier))
    except PrunekitError as exc:  # floors above a layer's size or the budget
        with pytest.raises(type(exc), match=re.escape(str(exc))):
            make_plan(g, s, profile, floor_multiplier)
    else:
        assert (plan_to_dict(make_plan(g, s, profile, floor_multiplier))
                == plan_to_dict(layerwise))


def test_make_plan_refuses_a_model_without_prunable_layers():
    layers = [LayerSpec("fl", "flatten"),
              LayerSpec("fc", "fully-connected", (8, 2), activation="softmax")]
    with pytest.raises(ValidationError, match="no prunable layers"):
        make_plan(blank_graph(layers, (2, 2, 2), 2), 0.5)


def test_floors_conv_rule():
    g = table1_chain(seed=0)
    floors = min_remaining_floors(g)
    assert floors["Conv2"] == 3 * 3 * 3 * 32 == 864
    assert floors["FC1"] == 3 * 4096
    assert "Conv1" not in floors  # not prunable


def test_floors_fc_rule_2048():
    layers = [
        LayerSpec("fl", "flatten"),
        LayerSpec("fc", "fully-connected", (2048, 512), activation="softmax",
                  prunable=True),
    ]
    g = blank_graph(layers, (1, 1, 2048), 512)
    assert min_remaining_floors(g)["fc"] == 3 * 2048 == 6144


def test_floors_multiplier_zero():
    g = table1_chain(seed=0)
    floors = min_remaining_floors(g, multiplier=0)
    assert all(v == 0 for v in floors.values())


def test_plan_roundtrip(tmp_path):
    plan = solve_allocation(AllocationInput(["a", "b"], [100, 300], [3.0, 1.0],
                                            [5, 10], 0.5))
    plan.provenance = {"model_sha256": "deadbeef"}
    path = tmp_path / "plan.json"
    save_plan(plan, path)
    loaded = load_plan(path)
    assert loaded.target_sparsity == plan.target_sparsity
    assert loaded.alpha == plan.alpha
    assert loaded.provenance == plan.provenance
    for ra, rb in zip(plan.layers, loaded.layers):
        assert ra.layer_id == rb.layer_id
        assert ra.epsilon == rb.epsilon
        assert ra.sparsity == rb.sparsity
