"""The three workloads: inputs made from a seed, one pass, and its checks.

A pass is one whole round of the same operations, so every run attempts
whole rounds and the share of failed operations does not depend on the run
length. Checks run outside the timed region, on the last pass; every
pass must produce the same outputs.
"""
from __future__ import annotations

import hashlib
from dataclasses import dataclass
from pathlib import Path
from types import SimpleNamespace
from unittest import mock

import numpy as np

import checks
from prunekit import cli
from prunekit.allocator import allocation_input, load_plan, min_remaining_floors, solve_allocation
from prunekit.capacity import capacity_profile, load_report
from prunekit.cli import worker_count
from prunekit.data import load_dataset, save_dataset, synthetic_textures
from prunekit.engine import TrainConfig, evaluate, finetune, train
from prunekit.model import graph_checksum, load_model, save_model
from prunekit.presets import desk_chain, table1_chain
from prunekit.pruning import PruneMethod, calibrate_s_hat, load_prune_result, prune
from prunekit.sweep import SweepSpec, run_sweep
from record import Ops

# Desk settings: the desk chain trained by SGD at lr 0.008, momentum 0.9,
# batch 32. The textures carry more signal than the generator's default
# (amplitude 0.3, noise 0.2) so that three epochs over 1500 samples learn
# reliably; at the default the chain needs ~14 epochs over 5000 samples,
# about half a minute, before it leaves chance.
DESK_TEXTURES = dict(height=16, width=16, channels=3, num_classes=3, noise=0.2, amplitude=0.3)
TABLE1_TEXTURES = dict(height=32, width=32, channels=3, num_classes=10)
DESK_LR = 0.008
FT_LR = 1e-4
MIN_TRAINED_ACC = 0.6  # chance is 1/3
S = 0.5
GRID = (0.3, 0.5, 0.7)
METHODS = ("weight-magnitude", "channel-l1", "channel-random")


@dataclass(frozen=True)
class Size:
    desk_train: int         # desk training textures
    desk_heldout: int       # desk held-out textures
    desk_epochs: int
    ft_epochs: int
    table1_samples: int     # table1-probe texture set
    batch: int              # evaluate and probe batch size
    artifact_samples: int   # artifact-plan texture set
    artifact_subsample: int  # its capacity subsample
    check_samples: int      # samples run through the reference forward
    grad_coords: int        # coordinates in the central-difference check
    reps: int               # repeats of a per-layer timing
    micro_reps: int         # repeats of a per-layer timing under a millisecond
    fwd_batch: int          # batch of the one-layer forwards


FULL = Size(1500, 500, 3, 1, 256, 256, 128, 32, 16, 24, 3, 50, 64)
SMOKE = Size(1500, 64, 3, 1, 8, 4, 8, 4, 4, 6, 1, 3, 4)


def sub_seeds(seed: int, k: int) -> list[int]:
    return [int(v) for v in np.random.SeedSequence(seed).generate_state(k)]


def digest(*parts) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(part if isinstance(part, bytes) else repr(part).encode())
    return h.hexdigest()


class DeskTrain:
    """One seed of the desk experiment: train, evaluate, probe, sweep,
    calibrate and prune with channel-l1, fine-tune both pruned models."""

    name = "desk-train"

    def setup(self, d: Path, seed: int, size: Size):
        s_train, s_held = sub_seeds(seed, 2)
        save_dataset(synthetic_textures(size.desk_train, seed=s_train, **DESK_TEXTURES),
                     d / "train.pkds")
        save_dataset(synthetic_textures(size.desk_heldout, seed=s_held, **DESK_TEXTURES),
                     d / "heldout.pkds")
        save_model(desk_chain(seed=seed), d / "init.json")

    def run_pass(self, d: Path, seed: int, size: Size, ops: Ops):
        o = SimpleNamespace()
        o.train = ops.call("data.load_dataset", load_dataset, d / "train.pkds")
        o.held = ops.call("data.load_dataset", load_dataset, d / "heldout.pkds")
        o.init = ops.call("model.load_model", load_model, d / "init.json")
        o.model = ops.call("engine.train", train, o.init, o.train,
                           TrainConfig(epochs=size.desk_epochs, learning_rate=DESK_LR, seed=seed),
                           work=size.desk_epochs * size.desk_train)
        o.acc = ops.call("engine.evaluate", evaluate, o.model, o.held, work=size.desk_heldout)
        o.profile = ops.call("capacity.capacity_profile", capacity_profile, o.model, o.train,
                             batch_size=size.batch, workers=worker_count(), work=size.desk_train)
        spec = SweepSpec(grid=list(GRID), baseline="both", methods=("weight-magnitude",),
                         seeds=(seed,))
        o.rows = ops.call("sweep.run_sweep", run_sweep, o.model, o.profile, o.held, spec,
                          d / "sweep.csv", work=2 * len(GRID))
        o.cal = ops.call("pruning.calibrate_s_hat", calibrate_s_hat, o.model, o.profile, S,
                         "channel-l1", work=1)
        allocate = self.allocator(o)
        o.plan_ch = ops.call("allocator.solve_allocation", lambda: allocate(o.cal.s_hat))
        o.plan_w = ops.call("allocator.solve_allocation", allocate, S)
        o.res_ch = ops.call("pruning.prune", prune, o.model, o.plan_ch, PruneMethod("channel-l1"))
        o.res_w = ops.call("pruning.prune", prune, o.model, o.plan_w,
                           PruneMethod("weight-magnitude"))
        ft = TrainConfig(epochs=size.ft_epochs, learning_rate=FT_LR, seed=seed)
        work = size.ft_epochs * size.desk_train
        o.tuned_ch = ops.call("engine.finetune", lambda: finetune(o.res_ch.model, o.res_ch.masks,
                                                                  o.train, ft), work=work)
        o.tuned_w = ops.call("engine.finetune", lambda: finetune(o.res_w.model, o.res_w.masks,
                                                                 o.train, ft), work=work)
        o.acc_ch = ops.call("engine.evaluate", evaluate, o.tuned_ch, o.held, work=size.desk_heldout)
        o.acc_w = ops.call("engine.evaluate", evaluate, o.tuned_w, o.held, work=size.desk_heldout)
        return o

    @staticmethod
    def allocator(o):
        return lambda t: solve_allocation(allocation_input(o.model, o.profile, t))

    @staticmethod
    def layerwise_rows(o):
        return [r for r in o.rows if r["allocation"] == "layerwise" and r["phase"] == "p"]

    def pass_metrics(self, o, ops: Ops) -> dict:
        return {
            "probe_samples_per_s": (ops.rate("capacity.capacity_profile"), "samples/s"),
            "train_samples_per_s": (ops.rate("engine.train"), "samples/s"),
            "finetune_samples_per_s": (ops.rate("engine.finetune"), "samples/s"),
            "eval_samples_per_s": (ops.rate("engine.evaluate"), "samples/s"),
            "sweep_cells_per_s": (ops.rate("sweep.run_sweep"), "cells/s"),
            "calibrations_per_s": (ops.rate("pruning.calibrate_s_hat"), "1/s"),
            "trained_acc": (o.acc, "fraction"),
            "layerwise_acc": (float(np.mean([r["accuracy"] for r in self.layerwise_rows(o)])),
                              "fraction"),
        }

    def checks(self, d: Path, seed: int, size: Size, o) -> list:
        k = size.check_samples
        x, y = o.held.images[:k], o.held.labels[:k]
        res = []
        for label, g in (("trained", o.model), ("channel-pruned", o.res_ch.model),
                         ("weight-pruned", o.res_w.model)):
            res += checks.check_forward(label, g, x, y, 3)
        res += checks.check_gradients(o.init, o.train.images[:8], o.train.labels[:8],
                                      size.grad_coords, seed)
        res += checks.check_capacity("desk", o.model, o.profile)
        floors = min_remaining_floors(o.model)
        res += checks.check_layerwise_plan("layerwise", o.plan_w, S, floors)
        res += checks.check_layerwise_plan("calibrated", o.plan_ch, o.cal.s_hat, floors)
        res += checks.check_pruned("channel-l1", o.model, o.plan_ch, "channel-l1", o.res_ch.model,
                                   o.res_ch.masks, o.res_ch.remaining_total)
        res += checks.check_pruned("weight-magnitude", o.model, o.plan_w, "weight-magnitude",
                                   o.res_w.model, o.res_w.masks, o.res_w.remaining_total)
        res += checks.check_calibration("channel-l1", o.model, S, o.cal.s_hat,
                                        self.allocator(o), "channel-l1")
        held_zero = all(np.all(o.tuned_w.weights[lid][0][~mask] == 0.0)
                        for lid, mask in o.res_w.masks.items())
        res.append(("finetune.masks", held_zero, "pruned positions stay zero while fine-tuning"))
        res += checks.check_artifacts("desk", o.init, desk_chain(seed=seed), d / "roundtrip.json")
        res.append(("training", o.acc >= MIN_TRAINED_ACC,
                    f"held-out accuracy {o.acc:.3f} >= {MIN_TRAINED_ACC}"))
        rows = self.layerwise_rows(o)
        all_ok = all(r["status"] == "ok" for r in o.rows)
        res.append(("sweep", len(o.rows) == 2 * len(GRID) and all_ok,
                    f"{len(o.rows)} rows, {len(rows)} layer-wise, every status ok: {all_ok}"))
        return res

    def fingerprint(self, d: Path, o) -> str:
        return digest(graph_checksum(o.model), o.acc, (d / "sweep.csv").read_bytes(), o.cal.s_hat,
                      graph_checksum(o.tuned_ch), graph_checksum(o.tuned_w), o.acc_ch, o.acc_w)


class Table1Probe:
    """Forward-only work on the table1 chain: capacity_profile and evaluate
    over a 32x32 texture set at the CLI's default batch size."""

    name = "table1-probe"

    def setup(self, d: Path, seed: int, size: Size):
        (s_data,) = sub_seeds(seed, 1)
        save_dataset(synthetic_textures(size.table1_samples, seed=s_data, **TABLE1_TEXTURES),
                     d / "textures.pkds")
        save_model(table1_chain(seed=seed), d / "table1.json")

    def run_pass(self, d: Path, seed: int, size: Size, ops: Ops):
        o = SimpleNamespace()
        o.model = ops.call("model.load_model", load_model, d / "table1.json")
        o.data = ops.call("data.load_dataset", load_dataset, d / "textures.pkds")
        o.profile = ops.call("capacity.capacity_profile", capacity_profile, o.model, o.data,
                             batch_size=size.batch, workers=worker_count(),
                             work=size.table1_samples)
        o.acc = ops.call("engine.evaluate", evaluate, o.model, o.data, batch_size=size.batch,
                         work=size.table1_samples)
        return o

    def pass_metrics(self, o, ops: Ops) -> dict:
        return {
            "probe_samples_per_s": (ops.rate("capacity.capacity_profile"), "samples/s"),
            "eval_samples_per_s": (ops.rate("engine.evaluate"), "samples/s"),
        }

    def checks(self, d: Path, seed: int, size: Size, o) -> list:
        k = size.check_samples
        res = checks.check_forward("table1", o.model, o.data.images[:k], o.data.labels[:k], 10)
        res += checks.check_capacity("table1", o.model, o.profile)
        res += checks.check_artifacts("table1", o.model, table1_chain(seed=seed),
                                      d / "roundtrip.json")
        return res

    def fingerprint(self, d: Path, o) -> str:
        return digest([e.mu for e in o.profile.layers], o.acc)


def _calibrated_s_hat(stdout: str | None) -> str:
    for line in (stdout or "").splitlines():
        if line.startswith("s_hat="):
            return line.split("=", 1)[1]
    return "missing"


class ArtifactPlan:
    """A file-to-file pipeline through prunekit.cli.main on a saved table1
    model: capacity, allocate, calibrate, prune, then load the results. Two
    malformed inputs must end in exit code 2 without raising."""

    name = "artifact-plan"
    MALFORMED = ("eval.short-pkds", "allocate.bad-json")

    def setup(self, d: Path, seed: int, size: Size):
        (s_data,) = sub_seeds(seed, 1)
        save_dataset(synthetic_textures(size.artifact_samples, seed=s_data, **TABLE1_TEXTURES),
                     d / "textures.pkds")
        save_model(table1_chain(seed=seed), d / "model.json")
        (d / "short.pkds").write_bytes(b"PKDS" + bytes(8))  # under the 24-byte header
        (d / "bad.json").write_text('{"input_shape": [32, 32, 3], "layers": [', encoding="utf-8")

    @staticmethod
    def plan_path(d: Path, method: str) -> Path:
        if method == "weight-magnitude":
            return d / f"layerwise_{S}.json"
        return d / f"calibrated_{method}.json"

    def run_pass(self, d: Path, seed: int, size: Size, ops: Ops):
        model, cap = str(d / "model.json"), str(d / "capacity.json")
        real_profile = cli.capacity_profile

        def probe(*args, **kwargs):
            with ops.timed("capacity.capacity_profile", work=size.artifact_subsample):
                return real_profile(*args, **kwargs)

        o = SimpleNamespace(s_hat={}, pruned={})
        with mock.patch.object(cli, "capacity_profile", probe):
            ops.cli(["capacity", "--model", model, "--data", str(d / "textures.pkds"), "--out", cap,
                     "--subsample", str(size.artifact_subsample), "--seed", str(seed)])
        for t in GRID:
            ops.cli(["allocate", "--model", model, "--capacity", cap, "--target", str(t),
                     "--out", str(d / f"layerwise_{t}.json")])
            ops.cli(["allocate", "--model", model, "--uniform", "--target", str(t),
                     "--out", str(d / f"uniform_{t}.json")])
        for method in METHODS[1:]:
            out = ops.cli(["calibrate", "--model", model, "--capacity", cap, "--target", str(S),
                           "--method", method, "--seed", str(seed)])
            o.s_hat[method] = _calibrated_s_hat(out)
            ops.cli(["allocate", "--model", model, "--capacity", cap, "--target", o.s_hat[method],
                     "--out", str(self.plan_path(d, method))])
        for method in METHODS:
            out = str(d / f"pruned_{method}.json")
            seed_flag = ["--seed", str(seed)] if method == "channel-random" else []
            ops.cli(["prune", "--model", model, "--plan", str(self.plan_path(d, method)),
                     "--method", method, "--out", out] + seed_flag)
            o.pruned[method] = ops.call("pruning.load_prune_result", load_prune_result, out)
        ops.cli(["eval", "--model", model, "--data", str(d / "short.pkds")], expect=2,
                label=self.MALFORMED[0])
        ops.cli(["allocate", "--model", str(d / "bad.json"), "--uniform", "--target", str(S),
                 "--out", str(d / "never.json")], expect=2, label=self.MALFORMED[1])
        return o

    def pass_metrics(self, o, ops: Ops) -> dict:
        return {
            "probe_samples_per_s": (ops.rate("capacity.capacity_profile"), "samples/s"),
            "calibrations_per_s": (ops.rate("cli.calibrate"), "1/s"),
            "cli_commands_per_s": (ops.rate("cli.capacity", "cli.allocate", "cli.calibrate",
                                            "cli.prune"), "1/s"),
        }

    def checks(self, d: Path, seed: int, size: Size, o) -> list:
        g = load_model(d / "model.json")
        res = checks.check_artifacts("table1", g, table1_chain(seed=seed), d / "roundtrip.json")
        profile = load_report(d / "capacity.json")
        res += checks.check_capacity("subsample", g, profile)
        floors = min_remaining_floors(g)
        for t in GRID:
            plan = load_plan(d / f"layerwise_{t}.json")
            res += checks.check_layerwise_plan(f"layerwise_{t}", plan, t, floors)
            res += checks.check_uniform_plan(f"uniform_{t}", load_plan(d / f"uniform_{t}.json"), t)

        def allocate(t):
            return solve_allocation(allocation_input(g, profile, t))

        for method in METHODS[1:]:
            res += checks.check_calibration(method, g, S, float(o.s_hat[method]), allocate, method)
        data = load_dataset(d / "textures.pkds")
        k = max(1, size.check_samples // 4)
        for method in METHODS:
            pruned, masks, provenance = o.pruned[method]
            res += checks.check_pruned(method, g, load_plan(self.plan_path(d, method)), method,
                                       pruned, masks, sum(provenance["per_layer_counts"].values()))
            res += checks.check_forward(method, pruned, data.images[:k], data.labels[:k], 10)
        return res

    def fingerprint(self, d: Path, o) -> str:
        paths = [d / "capacity.json"]
        paths += [d / f"{kind}_{t}.json" for t in GRID for kind in ("layerwise", "uniform")]
        paths += [self.plan_path(d, m) for m in METHODS[1:]]
        paths += [d / f"pruned_{m}.json" for m in METHODS]
        return digest(*[p.read_bytes() for p in paths])


WORKLOADS = {w.name: w for w in (DeskTrain(), Table1Probe(), ArtifactPlan())}
