"""prunekit: capacity-aware layer-wise sparsity allocation and pruning."""

__version__ = "0.1.0"

from .allocator import (
    AllocationInput,
    SparsityPlan,
    check_feasible,
    compute_alpha,
    make_plan,
    min_remaining_floors,
    solve_allocation,
    uniform_plan,
)
from .capacity import CapacityProfile, capacity_profile, layer_capacity
from .data import Dataset, load_dataset, save_dataset, synthetic_textures
from .engine import TrainConfig, evaluate, finetune, forward, init_weights, train
from .errors import (
    InfeasibleAllocationError,
    NumericalError,
    PrunekitError,
    ValidationError,
)
from .model import (
    LayerSpec,
    ModelGraph,
    count_flops,
    count_params,
    graph_checksum,
    load_model,
    save_model,
)
from .pruning import (
    PruneMethod,
    PruneResult,
    achieved_remaining,
    calibrate_s_hat,
    channels_to_prune,
    prune,
)
from .sweep import SweepSpec, run_sweep

__all__ = [
    "AllocationInput",
    "CapacityProfile",
    "Dataset",
    "InfeasibleAllocationError",
    "LayerSpec",
    "ModelGraph",
    "NumericalError",
    "PruneMethod",
    "PruneResult",
    "PrunekitError",
    "SparsityPlan",
    "SweepSpec",
    "TrainConfig",
    "ValidationError",
    "achieved_remaining",
    "calibrate_s_hat",
    "capacity_profile",
    "channels_to_prune",
    "check_feasible",
    "compute_alpha",
    "count_flops",
    "count_params",
    "evaluate",
    "finetune",
    "forward",
    "graph_checksum",
    "init_weights",
    "layer_capacity",
    "load_dataset",
    "load_model",
    "make_plan",
    "min_remaining_floors",
    "prune",
    "run_sweep",
    "save_dataset",
    "save_model",
    "solve_allocation",
    "synthetic_textures",
    "train",
    "uniform_plan",
]
