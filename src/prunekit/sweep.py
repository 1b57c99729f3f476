"""Grid experiments comparing allocation strategies across pruning methods.

Each cell of the grid (sparsity x method x allocation) is allocated,
calibrated when the method removes whole channels, pruned, evaluated, and
optionally fine-tuned. One CSV row is emitted per trial and phase; cells
that fail record their error in the status column and the sweep moves on.
"""
from __future__ import annotations

import csv
import io
from dataclasses import dataclass

import numpy as np

from .allocator import SparsityPlan, make_plan
from .capacity import CapacityProfile
from .data import Dataset
from .engine import TrainConfig, check_labels, evaluate, finetune
from .errors import PrunekitError, ValidationError
from .model import ModelGraph
from .pruning import METHOD_KINDS, PruneMethod, calibrate_strength, prune
from .serialize import write_atomic

CSV_COLUMNS = [
    "method",
    "allocation",
    "s",
    "s_hat",
    "trial",
    "phase",
    "accuracy",
    "accuracy_median",
    "accuracy_min",
    "accuracy_max",
    "achieved_sparsity",
    "seed",
    "status",
]


@dataclass
class SweepSpec:
    grid: list[float]
    baseline: str = "both"  # uniform | layerwise | both
    methods: tuple[str, ...] = ("weight-magnitude",)
    trials: int = 1
    finetune: bool = False
    seeds: tuple[int, ...] = (0,)
    ft_epochs: int = 3
    ft_learning_rate: float = 1e-4
    floor_multiplier: int = 3

    def validate(self) -> None:
        if not self.grid:
            raise ValidationError("sweep grid is empty")
        if any(not (0.0 <= s < 1.0) for s in self.grid):
            raise ValidationError("grid values must lie in [0, 1)")
        if any(b >= a for a, b in zip(self.grid[1:], self.grid)):
            raise ValidationError("grid must be strictly increasing")
        if self.baseline not in ("uniform", "layerwise", "both"):
            raise ValidationError(f"unknown baseline {self.baseline!r}")
        for m in self.methods:
            if m not in METHOD_KINDS:
                raise ValidationError(f"unknown method {m!r}")
        if self.trials < 1:
            raise ValidationError("trials must be >= 1")
        if not self.seeds:
            raise ValidationError("at least one seed is required")
        if self.floor_multiplier < 0:
            raise ValidationError(f"floor_multiplier must be >= 0, got {self.floor_multiplier}")
        if self.finetune:
            self.finetune_config(self.seeds[0]).validate()

    def finetune_config(self, seed: int) -> TrainConfig:
        return TrainConfig(epochs=self.ft_epochs, learning_rate=self.ft_learning_rate, seed=seed)

    def allocations(self) -> tuple[str, ...]:
        if self.baseline == "both":
            return ("uniform", "layerwise")
        return (self.baseline,)


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return repr(value)
    return str(value)


def run_sweep(
    g: ModelGraph,
    profile: CapacityProfile | None,
    eval_data: Dataset,
    spec: SweepSpec,
    csv_path,
    ft_data: Dataset | None = None,
) -> list[dict]:
    """Execute the grid and write rows to csv_path; returns the rows. The
    profile is read only by layer-wise cells and may be None without them;
    uniform cells cover the model's prunable layers."""
    spec.validate()
    if profile is None and "layerwise" in spec.allocations():
        raise ValidationError("a layer-wise sweep needs a capacity profile")
    ft_data = ft_data if ft_data is not None else eval_data
    check_labels(g, eval_data)
    if spec.finetune:
        check_labels(g, ft_data)
    rows: list[dict] = []
    for s in spec.grid:
        for method_kind in spec.methods:
            for mode in spec.allocations():
                cell_profile = profile if mode == "layerwise" else None
                rows.extend(_run_cell(g, eval_data, ft_data, spec, cell_profile,
                                      s, method_kind, mode))

    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(CSV_COLUMNS)
    for row in rows:
        writer.writerow([_fmt(row.get(col)) for col in CSV_COLUMNS])
    write_atomic(csv_path, buf.getvalue().encode("utf-8"))
    return rows


def _run_cell(g, eval_data, ft_data, spec, profile, s, method_kind, mode) -> list[dict]:
    """One cell's rows; profile is None for a uniform cell."""
    base = {"method": method_kind, "allocation": mode, "s": s}
    is_random = method_kind == "channel-random"
    method = PruneMethod(method_kind, seed=spec.seeds[0] if is_random else None)
    trials = spec.trials if is_random else 1

    def allocate(strength: float) -> SparsityPlan:
        return make_plan(g, strength, profile, spec.floor_multiplier)

    try:
        s_hat = calibrate_strength(g, s, allocate, method).s_hat if method.is_channel else s
        plan = allocate(s_hat)
    except PrunekitError as exc:
        return [dict(base, s_hat=None, trial=0, phase="p", seed=None,
                     status=f"error: {exc}")]

    cell_rows: list[dict] = []
    accs: dict[str, list[float]] = {"p": [], "p+ft": []}
    for trial in range(trials):
        seed = spec.seeds[trial % len(spec.seeds)]
        phase = "p"
        try:
            method = PruneMethod(method_kind, seed=seed if is_random else None)
            result = prune(g, plan, method)
            acc = evaluate(result.model, eval_data)
            accs["p"].append(acc)
            cell_rows.append(dict(base, s_hat=s_hat, trial=trial, phase="p",
                                  accuracy=acc,
                                  achieved_sparsity=result.achieved_sparsity,
                                  seed=seed, status="ok"))
            if spec.finetune:
                phase = "p+ft"
                tuned = finetune(result.model, result.masks, ft_data, spec.finetune_config(seed))
                ft_acc = evaluate(tuned, eval_data)
                accs["p+ft"].append(ft_acc)
                cell_rows.append(dict(base, s_hat=s_hat, trial=trial, phase="p+ft",
                                      accuracy=ft_acc,
                                      achieved_sparsity=result.achieved_sparsity,
                                      seed=seed, status="ok"))
        except PrunekitError as exc:
            cell_rows.append(dict(base, s_hat=s_hat, trial=trial, phase=phase,
                                  seed=seed, status=f"error: {exc}"))

    for row in cell_rows:
        phase_accs = accs.get(row.get("phase"), [])
        if phase_accs:
            row["accuracy_median"] = float(np.median(phase_accs))
            row["accuracy_min"] = float(min(phase_accs))
            row["accuracy_max"] = float(max(phase_accs))
    return cell_rows
