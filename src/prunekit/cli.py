"""Command-line pipeline: train, eval, capacity, allocate, prune, finetune,
calibrate, and sweep.

Exit codes are stable for scripting: 0 success, 2 validation error,
3 infeasible allocation, 4 I/O failure, 5 numerical failure. The
PRUNEKIT_THREADS environment variable caps worker threads (0 = auto).
"""
from __future__ import annotations

import argparse
import logging
import os
import sys

from . import __version__
from .allocator import load_plan, make_plan, save_plan
from .capacity import capacity_profile, load_report, profile_to_dict, save_report
from .data import load_dataset, subsample
from .engine import BLOCK_ROWS, TrainConfig, evaluate, finetune, train
from .errors import (
    InfeasibleAllocationError,
    NumericalError,
    PrunekitError,
    ValidationError,
)
from .model import graph_checksum, load_model, save_model
from .pruning import (
    METHOD_KINDS,
    PruneMethod,
    calibrate_s_hat,
    load_prune_result,
    prune,
    save_prune_result,
)
from .serialize import object_sha256
from .sweep import SweepSpec, run_sweep

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_INFEASIBLE = 3
EXIT_IO = 4
EXIT_NUMERICAL = 5
_EXIT_CODES = (  # first match wins
    (InfeasibleAllocationError, EXIT_INFEASIBLE),
    (NumericalError, EXIT_NUMERICAL),
    (PrunekitError, EXIT_VALIDATION),
    (OSError, EXIT_IO),
)

logger = logging.getLogger("prunekit")


def worker_count() -> int:
    raw = os.environ.get("PRUNEKIT_THREADS", "0")
    try:
        n = int(raw)
    except ValueError:
        raise ValidationError(f"PRUNEKIT_THREADS must be an integer, got {raw!r}")
    if n < 0:
        raise ValidationError(f"PRUNEKIT_THREADS must be >= 0, got {n}")
    if n == 0:
        return min(8, os.cpu_count() or 1)
    return n


def _train_config(args) -> TrainConfig:
    return TrainConfig(
        epochs=args.epochs,
        learning_rate=args.lr,
        momentum=args.momentum,
        batch_size=args.batch_size,
        seed=args.seed,
    )


def cmd_train(args) -> int:
    g = load_model(args.model)
    data = load_dataset(args.data)
    trained = train(g, data, _train_config(args))
    save_model(trained, args.out)
    acc = evaluate(trained, data)
    print(f"accuracy={acc}")
    print(f"model_sha256={graph_checksum(trained)}")
    return EXIT_OK


def cmd_eval(args) -> int:
    g = load_model(args.model)
    data = load_dataset(args.data)
    print(f"accuracy={evaluate(g, data)}")
    return EXIT_OK


def cmd_capacity(args) -> int:
    g = load_model(args.model)
    data = load_dataset(args.data)
    if args.subsample:
        data = subsample(data, args.subsample, args.seed)
    profile = capacity_profile(g, data, batch_size=args.batch_size,
                               workers=worker_count())
    save_report(profile, args.out)
    for entry in profile.layers:
        print(f"mu[{entry.layer_id}]={entry.mu}")
    return EXIT_OK


def _report_for(model_sha256: str, path):
    """The capacity report at path, refused when it was probed on another model."""
    profile = load_report(path)
    if profile.model_sha256 and profile.model_sha256 != model_sha256:
        raise ValidationError(
            "capacity report was computed for a different model "
            f"({profile.model_sha256[:12]}... vs {model_sha256[:12]}...)"
        )
    return profile


def cmd_allocate(args) -> int:
    g = load_model(args.model)
    model_sha256 = graph_checksum(g)
    provenance = {"model_sha256": model_sha256}
    profile = None
    if not args.uniform:
        if not args.capacity:
            raise ValidationError("--capacity is required unless --uniform is given")
        profile = _report_for(model_sha256, args.capacity)
        provenance["capacity_sha256"] = object_sha256(profile_to_dict(profile))
    plan = make_plan(g, args.target, profile, args.floor_multiplier)
    plan.provenance = provenance
    save_plan(plan, args.out)
    for row in plan.layers:
        print(f"s_l[{row.layer_id}]={row.sparsity}")
    return EXIT_OK


def _parse_method(kind: str, seed: int | None) -> PruneMethod:
    if kind == "channel-random":
        if seed is None:
            raise ValidationError("--seed is required for channel-random pruning")
        return PruneMethod(kind, seed=seed)
    return PruneMethod(kind)


def cmd_prune(args) -> int:
    g = load_model(args.model)
    plan = load_plan(args.plan)
    expected = plan.provenance.get("model_sha256")
    if expected and expected != graph_checksum(g):
        raise ValidationError("plan was computed for a different model")
    method = _parse_method(args.method, args.seed)
    result = prune(g, plan, method)
    save_prune_result(result, args.out)
    print(f"achieved_sparsity={result.achieved_sparsity}")
    print(f"remaining_params={result.remaining_total}")
    return EXIT_OK


def cmd_finetune(args) -> int:
    g, masks, _ = load_prune_result(args.model)
    data = load_dataset(args.data)
    tuned = finetune(g, masks, data, _train_config(args))
    save_model(tuned, args.out)
    print(f"accuracy={evaluate(tuned, data)}")
    return EXIT_OK


def cmd_calibrate(args) -> int:
    g = load_model(args.model)
    profile = _report_for(graph_checksum(g), args.capacity)
    method = _parse_method(args.method, args.seed)
    cal = calibrate_s_hat(g, profile, args.target, method, args.floor_multiplier)
    print(f"s_hat={cal.s_hat}")
    print(f"gap={cal.gap}")
    return EXIT_OK


def _comma_list(flag: str, raw: str, parse) -> list:
    try:
        return [parse(v) for v in raw.split(",")]
    except ValueError:
        raise ValidationError(
            f"{flag}: cannot read {raw!r} as comma-separated {parse.__name__} values"
        ) from None


def cmd_sweep(args) -> int:
    grid = _comma_list("--grid", args.grid, float)
    trial_seeds = (
        tuple(_comma_list("--trial-seeds", args.trial_seeds, int))
        if args.trial_seeds
        else tuple(args.seed + i for i in range(args.trials))
    )
    spec = SweepSpec(
        grid=grid,
        baseline=args.baseline,
        methods=tuple(args.methods.split(",")),
        trials=args.trials,
        finetune=args.finetune,
        seeds=trial_seeds,
        ft_epochs=args.ft_epochs,
        ft_learning_rate=args.ft_lr,
        floor_multiplier=args.floor_multiplier,
    )
    spec.validate()
    g = load_model(args.model)
    data = load_dataset(args.data)
    eval_data = load_dataset(args.eval_data) if args.eval_data else data
    profile = (capacity_profile(g, data, workers=worker_count())
               if "layerwise" in spec.allocations() else None)
    rows = run_sweep(g, profile, eval_data, spec, args.out, ft_data=data)
    failed = sum(1 for r in rows if r.get("status") != "ok")
    print(f"rows={len(rows)}")
    print(f"failed_cells={failed}")
    return EXIT_OK


def _add_train_flags(p, default_epochs=1, default_lr=0.01):
    p.add_argument("--epochs", type=int, default=default_epochs)
    p.add_argument("--lr", type=float, default=default_lr)
    p.add_argument("--momentum", type=float, default=0.9)
    p.add_argument("--batch-size", type=int, default=32)
    p.add_argument("--seed", type=int, default=0)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="prunekit",
        description="Capacity-aware layer-wise pruning toolkit",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("train", help="train a model with SGD + momentum")
    p.add_argument("--model", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True)
    _add_train_flags(p)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="print dataset accuracy")
    p.add_argument("--model", required=True)
    p.add_argument("--data", required=True)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("capacity", help="probe per-layer capacity from data")
    p.add_argument("--model", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--subsample", type=int, default=0,
                   help="probe on a random subset of this size")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--batch-size", type=int, default=256,
                   help="kept for compatibility and checked to be >= 1; the probe "
                        f"runs in fixed blocks of {BLOCK_ROWS} rows whatever its value")
    p.set_defaults(func=cmd_capacity)

    p = sub.add_parser("allocate", help="turn a capacity report into per-layer sparsities")
    p.add_argument("--model", required=True)
    p.add_argument("--capacity")
    p.add_argument("--target", type=float, required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--uniform", action="store_true",
                   help="baseline: same sparsity for every prunable layer")
    p.add_argument("--floor-multiplier", type=int, default=3)
    p.set_defaults(func=cmd_allocate)

    p = sub.add_parser("prune", help="execute a plan with one pruning method")
    p.add_argument("--model", required=True)
    p.add_argument("--plan", required=True)
    p.add_argument("--method", required=True, choices=METHOD_KINDS)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_prune)

    p = sub.add_parser("finetune", help="retrain a pruned model, keeping zeros fixed")
    p.add_argument("--model", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True)
    _add_train_flags(p, default_epochs=3, default_lr=1e-4)
    p.set_defaults(func=cmd_finetune)

    p = sub.add_parser("calibrate", help="back off channel-pruning strength to hit the budget")
    p.add_argument("--model", required=True)
    p.add_argument("--capacity", required=True)
    p.add_argument("--target", type=float, required=True)
    p.add_argument("--method", default="channel-l1", choices=METHOD_KINDS)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--floor-multiplier", type=int, default=3)
    p.set_defaults(func=cmd_calibrate)

    p = sub.add_parser("sweep", help="grid comparison of allocations and methods")
    p.add_argument("--model", required=True)
    p.add_argument("--data", required=True, help="calibration + fine-tune dataset")
    p.add_argument("--eval-data", default=None)
    p.add_argument("--out", required=True, help="CSV output path")
    p.add_argument("--grid", required=True, help="comma-separated sparsities")
    p.add_argument("--methods", default="weight-magnitude")
    p.add_argument("--baseline", default="both",
                   choices=["uniform", "layerwise", "both"])
    p.add_argument("--trials", type=int, default=1)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--trial-seeds", default=None)
    p.add_argument("--finetune", action="store_true")
    p.add_argument("--ft-epochs", type=int, default=3)
    p.add_argument("--ft-lr", type=float, default=1e-4)
    p.add_argument("--floor-multiplier", type=int, default=3)
    p.set_defaults(func=cmd_sweep)

    return parser


def _refuse_out_over_input(args) -> None:
    """An --out that is one of the command's input files would replace it."""
    out = getattr(args, "out", None)
    if out is None or not os.path.exists(out):
        return
    for flag in ("model", "data", "eval_data", "capacity", "plan"):
        path = getattr(args, flag, None)
        if path and os.path.exists(path) and os.path.samefile(out, path):
            raise ValidationError(f"--out {out} is the --{flag.replace('_', '-')} input")


def main(argv=None) -> int:
    logging.basicConfig(level=logging.INFO, format="%(levelname)s %(name)s: %(message)s")
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        _refuse_out_over_input(args)
        return args.func(args)
    except (PrunekitError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return next(code for kind, code in _EXIT_CODES if isinstance(exc, kind))


if __name__ == "__main__":
    sys.exit(main())
