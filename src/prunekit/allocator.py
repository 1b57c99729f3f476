"""Per-layer sparsity allocation under a total parameter budget.

The ideal allocation keeps ``alpha * omega_l`` parameters in each layer,
with alpha chosen so the total matches the budget. When per-layer floors or
capacities make that point infeasible, the smallest squared perturbation of
the proportionality constant is found through a single multiplier: each
coordinate is a clip of ``lambda * alpha * omega_l`` to its box, so the
budget is a nondecreasing, piecewise-linear function of lambda. Evaluating
it at its 2L kinks and interpolating on the segment that holds the budget
gives lambda exactly (the breakpoint search for the continuous quadratic
knapsack; Brucker 1984, Kiwiel 2008).
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .capacity import CapacityProfile
from .errors import InfeasibleAllocationError, NumericalError, ValidationError
from .model import ModelGraph, layer_param_count
from .serialize import object_sha256, read_json, write_json

BUDGET_RTOL = 1e-6


@dataclass
class AllocationInput:
    layer_ids: list[str]
    params: np.ndarray  # N_l, integer counts
    omegas: np.ndarray  # importance weights, > 0
    floors: np.ndarray  # minimum remaining parameters, >= 0
    target_sparsity: float

    def __post_init__(self):
        self.params = np.asarray(self.params, dtype=np.float64)
        self.omegas = np.asarray(self.omegas, dtype=np.float64)
        self.floors = np.asarray(self.floors, dtype=np.float64)
        n = len(self.layer_ids)
        if n == 0:
            raise ValidationError("allocation needs at least one layer")
        repeated = [lid for i, lid in enumerate(self.layer_ids) if lid in self.layer_ids[:i]]
        if repeated:
            raise ValidationError(f"layer {repeated[0]}: listed more than once")
        if not (len(self.params) == len(self.omegas) == len(self.floors) == n):
            raise ValidationError("allocation arrays differ in length")
        if np.any(self.params < 1):
            raise ValidationError("every layer must have at least one parameter")
        if np.any(self.omegas <= 0.0) or not np.all(np.isfinite(self.omegas)):
            raise ValidationError("importance weights must be positive and finite")
        if np.any(self.floors < 0):
            raise ValidationError("floors must be nonnegative")
        bad = np.nonzero(self.floors > self.params)[0]
        if bad.size:
            raise ValidationError(
                f"layer {self.layer_ids[bad[0]]}: floor {self.floors[bad[0]]:g} exceeds "
                f"its parameter count {self.params[bad[0]]:g}"
            )
        if not (0.0 <= self.target_sparsity < 1.0):
            raise ValidationError(
                f"target sparsity must be in [0, 1), got {self.target_sparsity}"
            )

    @property
    def total_params(self) -> float:
        return float(self.params.sum())

    @property
    def omega_total(self) -> float:
        return float(self.omegas.sum())


@dataclass
class LayerAllocation:
    layer_id: str
    params: int
    omega: float | None
    floor: float
    epsilon: float
    sparsity: float
    remaining: float


@dataclass
class SparsityPlan:
    target_sparsity: float
    allocation: str  # "layerwise" or "uniform"
    alpha: float | None
    layers: list[LayerAllocation]
    achieved_total_remaining: float
    iterations: int
    residual: float
    provenance: dict = field(default_factory=dict)

    def layer_ids(self) -> list[str]:
        return [row.layer_id for row in self.layers]

    def row(self, layer_id: str) -> LayerAllocation:
        for row in self.layers:
            if row.layer_id == layer_id:
                return row
        raise ValidationError(f"plan has no layer {layer_id!r}")

    def sparsity_for(self, layer_id: str) -> float:
        return self.row(layer_id).sparsity

    def included_params(self) -> int:
        return int(sum(row.params for row in self.layers))


def compute_alpha(s: float, total_params: float, omega_total: float) -> float:
    """Proportionality constant tying surviving parameters to importance."""
    if not (0.0 <= s < 1.0):
        raise ValidationError(f"target sparsity must be in [0, 1), got {s}")
    if total_params <= 0 or omega_total <= 0:
        raise ValidationError("totals must be positive")
    return (1.0 - s) * total_params / omega_total


def check_feasible(inp: AllocationInput) -> bool:
    """True iff the floors fit inside the remaining budget.

    A hair of absolute tolerance keeps mathematically-equal boundaries
    (floors summing exactly to the budget) feasible under float rounding.
    """
    budget = (1.0 - inp.target_sparsity) * inp.total_params
    return float(inp.floors.sum()) <= budget + 1e-9 * max(1.0, inp.total_params)


def solve_allocation(inp: AllocationInput) -> SparsityPlan:
    """Minimize the summed squared perturbations subject to the per-layer box
    and the exact budget; unique solution whenever the floors fit the budget.
    The plan's ``iterations`` is the number of kinks searched, 2L.
    """
    if not check_feasible(inp):
        raise InfeasibleAllocationError(
            float(inp.floors.sum()), (1.0 - inp.target_sparsity) * inp.total_params
        )
    s = inp.target_sparsity
    total = inp.total_params
    alpha = compute_alpha(s, total, inp.omega_total)
    a = alpha * inp.omegas
    lo = inp.floors / a - 1.0
    hi = inp.params / a - 1.0
    target = (1.0 - s) * total - a.sum()

    # the budget g(lam) = sum a * clip(lam * a, lo, hi) is nondecreasing and
    # linear between its kinks at lo / a and hi / a, so the multiplier is the
    # exact crossing on the segment that holds the target
    kinks = np.sort(np.concatenate([lo / a, hi / a]))
    g_at_kinks = (a * np.clip(np.outer(kinks, a), lo, hi)).sum(axis=1)
    lam = float(np.interp(target, g_at_kinks, kinks))
    eps = np.clip(lam * a, lo, hi)
    # clipped layers keep exactly their size or floor; free ones snap into the box
    remaining = np.select([lam * a >= hi, lam * a <= lo], [inp.params, inp.floors],
                          np.minimum(np.maximum(a * (1.0 + eps), inp.floors), inp.params))
    residual = float(remaining.sum() - (1.0 - s) * total)
    if abs(residual) > BUDGET_RTOL * total:
        raise NumericalError(
            f"allocation solver residual {residual:g} exceeds tolerance "
            f"{BUDGET_RTOL * total:g}"
        )

    rows = [
        LayerAllocation(
            layer_id=lid,
            params=int(inp.params[i]),
            omega=float(inp.omegas[i]),
            floor=float(inp.floors[i]),
            epsilon=float(eps[i]),
            sparsity=float(1.0 - remaining[i] / inp.params[i]),
            remaining=float(remaining[i]),
        )
        for i, lid in enumerate(inp.layer_ids)
    ]
    return SparsityPlan(
        target_sparsity=s,
        allocation="layerwise",
        alpha=alpha,
        layers=rows,
        achieved_total_remaining=float(remaining.sum()),
        iterations=len(kinks),
        residual=residual,
    )


def uniform_plan(layer_ids: list[str], params, s: float) -> SparsityPlan:
    """Baseline: the same sparsity for every layer, no importance involved."""
    params = np.asarray(params, dtype=np.float64)
    if not (0.0 <= s < 1.0):
        raise ValidationError(f"target sparsity must be in [0, 1), got {s}")
    if len(layer_ids) != len(params) or len(layer_ids) == 0:
        raise ValidationError("uniform plan needs matching, non-empty layer lists")
    remaining = (1.0 - s) * params
    rows = [
        LayerAllocation(
            layer_id=lid,
            params=int(params[i]),
            omega=None,
            floor=0.0,
            epsilon=0.0,
            sparsity=float(s),
            remaining=float(remaining[i]),
        )
        for i, lid in enumerate(layer_ids)
    ]
    return SparsityPlan(
        target_sparsity=float(s),
        allocation="uniform",
        alpha=None,
        layers=rows,
        achieved_total_remaining=float(remaining.sum()),
        iterations=0,
        residual=0.0,
    )


def min_remaining_floors(g: ModelGraph, multiplier: int = 3) -> dict[str, int]:
    """Parameter floors that keep `multiplier` output channels (conv) or
    output units (fc) alive in every prunable layer: `multiplier` times the
    prod(filter_shape[:-1]) kernel weights of one output channel."""
    if multiplier < 0:
        raise ValidationError(f"floor multiplier must be >= 0, got {multiplier}")
    return {layer.id: multiplier * math.prod(layer.filter_shape[:-1])
            for layer in g.layers if layer.prunable}


def allocation_input(
    g: ModelGraph,
    profile: CapacityProfile,
    s: float,
    floor_multiplier: int = 3,
) -> AllocationInput:
    """Assemble solver input for the profiled layers of a model."""
    ids = profile.layer_ids()
    floors = min_remaining_floors(g, floor_multiplier)
    return AllocationInput(
        layer_ids=ids,
        params=np.array([layer_param_count(g.spec(lid)) for lid in ids]),
        omegas=np.array([profile.layer(lid).omega for lid in ids]),
        floors=np.array([floors.get(lid, 0) for lid in ids], dtype=np.float64),
        target_sparsity=float(s),
    )


def make_plan(
    g: ModelGraph,
    s: float,
    profile: CapacityProfile | None = None,
    floor_multiplier: int = 3,
) -> SparsityPlan:
    """The plan for a model at target sparsity s: the uniform baseline over
    its prunable layers without a profile, the layer-wise allocation of the
    profiled layers with one."""
    if profile is not None:
        return solve_allocation(allocation_input(g, profile, s, floor_multiplier))
    ids = g.prunable_ids()
    if not ids:
        raise ValidationError("model has no prunable layers")
    return uniform_plan(ids, [layer_param_count(g.spec(lid)) for lid in ids], s)


def plan_to_dict(plan: SparsityPlan) -> dict:
    return {
        "target_sparsity": plan.target_sparsity,
        "allocation": plan.allocation,
        "alpha": plan.alpha,
        "layers": [
            {
                "id": row.layer_id,
                "N_l": row.params,
                "omega": row.omega,
                "xi": row.floor,
                "epsilon": row.epsilon,
                "s_l": row.sparsity,
                "remaining": row.remaining,
            }
            for row in plan.layers
        ],
        "achieved_total_remaining": plan.achieved_total_remaining,
        "solver": {"iterations": plan.iterations, "residual": plan.residual},
        "provenance": plan.provenance,
    }


def plan_checksum(plan: SparsityPlan) -> str:
    return object_sha256(plan_to_dict(plan))


def save_plan(plan: SparsityPlan, path) -> None:
    write_json(plan_to_dict(plan), path)


def load_plan(path) -> SparsityPlan:
    payload = read_json(path)
    try:
        rows = [
            LayerAllocation(
                layer_id=str(e["id"]),
                params=int(e["N_l"]),
                omega=None if e["omega"] is None else float(e["omega"]),
                floor=float(e["xi"]),
                epsilon=float(e["epsilon"]),
                sparsity=float(e["s_l"]),
                remaining=float(e["remaining"]),
            )
            for e in payload["layers"]
        ]
        return SparsityPlan(
            target_sparsity=float(payload["target_sparsity"]),
            allocation=str(payload.get("allocation", "layerwise")),
            alpha=None if payload.get("alpha") is None else float(payload["alpha"]),
            layers=rows,
            achieved_total_remaining=float(payload["achieved_total_remaining"]),
            iterations=int(payload["solver"]["iterations"]),
            residual=float(payload["solver"]["residual"]),
            provenance=dict(payload.get("provenance", {})),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise ValidationError(f"malformed plan file: {exc}") from exc
