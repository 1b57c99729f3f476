import contextlib
import io
import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import conv_chain, poison_weight_blob
from prunekit.cli import main
from prunekit.data import save_dataset, synthetic_textures
from prunekit.errors import ValidationError
from prunekit.model import load_model, save_model
from prunekit.serialize import read_json


@pytest.fixture
def workdir(tmp_path):
    g = conv_chain(seed=0, input_shape=(8, 8, 3), widths=(6, 8), fc_out=(10, 4))
    model = tmp_path / "model.json"
    save_model(g, model)
    data = tmp_path / "data.pkds"
    save_dataset(synthetic_textures(120, 8, 8, 3, num_classes=4, seed=2), data)
    return tmp_path


def run(args, capsys):
    code = main([str(a) for a in args])
    out = capsys.readouterr()
    return code, out.out, out.err


def test_train_then_eval(workdir, capsys):
    code, out, _ = run(["train", "--model", workdir / "model.json",
                        "--data", workdir / "data.pkds",
                        "--out", workdir / "trained.json",
                        "--epochs", 1, "--lr", 0.01, "--seed", 3], capsys)
    assert code == 0
    acc_line = [l for l in out.splitlines() if l.startswith("accuracy=")][0]
    assert 0.0 <= float(acc_line.split("=")[1]) <= 1.0

    code, out, _ = run(["eval", "--model", workdir / "trained.json",
                        "--data", workdir / "data.pkds"], capsys)
    assert code == 0
    assert out.startswith("accuracy=")


def test_train_seed_determinism(workdir, capsys):
    checks = []
    for rep in range(2):
        code, out, _ = run(["train", "--model", workdir / "model.json",
                            "--data", workdir / "data.pkds",
                            "--out", workdir / f"t{rep}.json",
                            "--epochs", 1, "--lr", 0.01, "--seed", 7], capsys)
        assert code == 0
        checks.append([l for l in out.splitlines() if l.startswith("model_sha256=")][0])
    assert checks[0] == checks[1]


def test_eval_shape_mismatch_exits_2(workdir, capsys):
    bad = workdir / "bad.pkds"
    save_dataset(synthetic_textures(10, 4, 4, 3, num_classes=4, seed=0), bad)
    code, _, err = run(["eval", "--model", workdir / "model.json", "--data", bad], capsys)
    assert code == 2
    assert "error" in err


def test_non_finite_weight_blob_exits_2(workdir, capsys):
    poison_weight_blob(workdir / "model.json", "c2")
    code, _, err = run(["eval", "--model", workdir / "model.json",
                        "--data", workdir / "data.pkds"], capsys)
    assert code == 2
    assert "error: layer c2 kernel: contains non-finite" in err



@pytest.mark.parametrize("filter_shape", [None, "absent", [3, 3, 3]],
                         ids=["null", "absent", "three-entries"])
def test_malformed_filter_shape_exits_2(workdir, capsys, filter_shape):
    path = workdir / "model.json"
    manifest = json.loads(path.read_text())
    entry = next(e for e in manifest["layers"] if e["id"] == "c1")
    if filter_shape == "absent":
        del entry["filter_shape"]
    else:
        entry["filter_shape"] = filter_shape
    path.write_text(json.dumps(manifest))
    with pytest.raises(ValidationError, match="c1: conv2d needs a filter_shape of 4"):
        load_model(path)
    code, _, err = run(["allocate", "--model", path, "--uniform", "--target", 0.5,
                        "--out", workdir / "plan.json"], capsys)
    assert code == 2
    assert "error: layer c1: conv2d needs a filter_shape of 4" in err

@pytest.mark.parametrize("case", ["cut-manifest", "short-pkds", "bad-blob-name"])
def test_malformed_input_exits_2(workdir, capsys, case):
    model, data = workdir / "model.json", workdir / "data.pkds"
    if case == "cut-manifest":
        model.write_bytes(model.read_bytes()[:40])
    elif case == "short-pkds":
        data.write_bytes(b"PKDS" + bytes(8))
    else:
        manifest = json.loads(model.read_text())
        manifest["layers"][0]["weight_file"] = "../model.json"
        model.write_text(json.dumps(manifest))
    code, _, err = run(["eval", "--model", model, "--data", data], capsys)
    assert code == 2
    assert err.startswith("error: ")


def test_missing_model_exits_4(workdir, capsys):
    code, _, err = run(["eval", "--model", workdir / "nope.json",
                        "--data", workdir / "data.pkds"], capsys)
    assert code == 4


def test_degenerate_calibration_exits_5(workdir, capsys):
    from prunekit.data import Dataset

    zeros = workdir / "zeros.pkds"
    save_dataset(Dataset(np.zeros((8, 8, 8, 3)), np.zeros(8, dtype=int), 4), zeros)
    code, _, err = run(["capacity", "--model", workdir / "model.json",
                        "--data", zeros, "--out", workdir / "cap.json"], capsys)
    assert code == 5
    assert "input norm" in err


def test_capacity_report_and_subsample(workdir, capsys):
    code, out, _ = run(["capacity", "--model", workdir / "model.json",
                        "--data", workdir / "data.pkds",
                        "--out", workdir / "cap.json",
                        "--subsample", 50], capsys)
    assert code == 0
    report = read_json(workdir / "cap.json")
    ids = [e["id"] for e in report["layers"]]
    assert ids == ["c2", "f1"]
    assert all(e["samples_used"] == 50 for e in report["layers"])
    assert "Omega" in report["aggregates"] and "M" in report["aggregates"]
    assert "mu[c2]=" in out


def test_allocate_budget_and_uniform(workdir, capsys):
    run(["capacity", "--model", workdir / "model.json",
         "--data", workdir / "data.pkds", "--out", workdir / "cap.json"], capsys)
    code, _, _ = run(["allocate", "--model", workdir / "model.json",
                      "--capacity", workdir / "cap.json",
                      "--target", 0.5, "--out", workdir / "plan.json",
                      "--floor-multiplier", 0], capsys)
    assert code == 0
    plan = read_json(workdir / "plan.json")
    spent = sum(e["s_l"] * e["N_l"] for e in plan["layers"])
    total = sum(e["N_l"] for e in plan["layers"])
    assert abs(spent - 0.5 * total) <= 1e-6 * total
    assert plan["provenance"]["model_sha256"]

    code, _, _ = run(["allocate", "--model", workdir / "model.json",
                      "--uniform", "--target", 0.5,
                      "--out", workdir / "uplan.json"], capsys)
    assert code == 0
    uplan = read_json(workdir / "uplan.json")
    assert all(e["s_l"] == 0.5 for e in uplan["layers"])


def test_allocate_infeasible_exits_3(workdir, capsys):
    run(["capacity", "--model", workdir / "model.json",
         "--data", workdir / "data.pkds", "--out", workdir / "cap.json"], capsys)
    code, _, err = run(["allocate", "--model", workdir / "model.json",
                        "--capacity", workdir / "cap.json",
                        "--target", 0.93, "--out", workdir / "plan.json",
                        "--floor-multiplier", 3], capsys)
    assert code == 3
    assert "Σξ" in err and "(1-s)N" in err


def test_prune_finetune_calibrate_pipeline(workdir, capsys):
    run(["capacity", "--model", workdir / "model.json",
         "--data", workdir / "data.pkds", "--out", workdir / "cap.json"], capsys)
    run(["allocate", "--model", workdir / "model.json",
         "--capacity", workdir / "cap.json",
         "--target", 0.5, "--out", workdir / "plan.json",
         "--floor-multiplier", 0], capsys)
    code, out, _ = run(["prune", "--model", workdir / "model.json",
                        "--plan", workdir / "plan.json",
                        "--method", "channel-l1",
                        "--out", workdir / "pruned.json"], capsys)
    assert code == 0
    assert "achieved_sparsity=" in out
    code, out, _ = run(["eval", "--model", workdir / "pruned.json",
                        "--data", workdir / "data.pkds"], capsys)
    assert code == 0

    code, out, _ = run(["finetune", "--model", workdir / "pruned.json",
                        "--data", workdir / "data.pkds",
                        "--out", workdir / "tuned.json",
                        "--epochs", 3, "--lr", 0.0001], capsys)
    assert code == 0
    assert "accuracy=" in out

    code, out, _ = run(["calibrate", "--model", workdir / "model.json",
                        "--capacity", workdir / "cap.json",
                        "--target", 0.5, "--method", "channel-l1",
                        "--floor-multiplier", 0], capsys)
    assert code == 0
    s_hat = float([l for l in out.splitlines() if l.startswith("s_hat=")][0].split("=")[1])
    assert 0.0 <= s_hat <= 0.5
    assert any(l.startswith("gap=") for l in out.splitlines())


def test_finetune_keeps_masked_weights_zero(workdir, capsys):
    run(["capacity", "--model", workdir / "model.json",
         "--data", workdir / "data.pkds", "--out", workdir / "cap.json"], capsys)
    run(["allocate", "--model", workdir / "model.json",
         "--capacity", workdir / "cap.json", "--target", 0.5,
         "--out", workdir / "plan.json", "--floor-multiplier", 0], capsys)
    run(["prune", "--model", workdir / "model.json",
         "--plan", workdir / "plan.json", "--method", "weight-magnitude",
         "--out", workdir / "pruned.json"], capsys)
    code, _, _ = run(["finetune", "--model", workdir / "pruned.json",
                      "--data", workdir / "data.pkds",
                      "--out", workdir / "tuned.json",
                      "--epochs", 1, "--lr", 0.0001], capsys)
    assert code == 0
    from prunekit.pruning import load_prune_result

    pruned, masks, _ = load_prune_result(workdir / "pruned.json")
    tuned, _, _ = load_prune_result(workdir / "tuned.json")
    for lid, mask in masks.items():
        assert np.all(tuned.weights[lid][0][~mask] == 0.0)


def test_prune_random_requires_seed(workdir, capsys):
    run(["allocate", "--model", workdir / "model.json", "--uniform",
         "--target", 0.5, "--out", workdir / "plan.json"], capsys)
    code, _, err = run(["prune", "--model", workdir / "model.json",
                        "--plan", workdir / "plan.json",
                        "--method", "channel-random",
                        "--out", workdir / "pruned.json"], capsys)
    assert code == 2
    assert "seed" in err


@pytest.mark.parametrize("method", ["weight-magnitude", "channel-l1"])
@pytest.mark.parametrize("s_l", [-0.5, float("nan")])
def test_prune_malformed_plan_sparsity_exits_2(workdir, capsys, s_l, method):
    run(["allocate", "--model", workdir / "model.json", "--uniform",
         "--target", 0.5, "--out", workdir / "plan.json"], capsys)
    plan = read_json(workdir / "plan.json")
    next(e for e in plan["layers"] if e["id"] == "c2")["s_l"] = s_l
    (workdir / "plan.json").write_text(json.dumps(plan))
    code, _, err = run(["prune", "--model", workdir / "model.json",
                        "--plan", workdir / "plan.json", "--method", method,
                        "--out", workdir / "pruned.json"], capsys)
    assert code == 2
    assert "error: layer c2: plan sparsity" in err
    assert not (workdir / "pruned.json").exists()


def test_allocate_repeated_report_layer_exits_2(workdir, capsys):
    run(["capacity", "--model", workdir / "model.json",
         "--data", workdir / "data.pkds", "--out", workdir / "cap.json"], capsys)
    report = read_json(workdir / "cap.json")
    report["layers"].append(dict(next(e for e in report["layers"] if e["id"] == "c2")))
    (workdir / "cap.json").write_text(json.dumps(report))
    code, _, err = run(["allocate", "--model", workdir / "model.json",
                        "--capacity", workdir / "cap.json", "--target", 0.5,
                        "--out", workdir / "plan.json", "--floor-multiplier", 0], capsys)
    assert code == 2
    assert err.startswith("error: layer c2: listed more than once")
    assert not (workdir / "plan.json").exists()


def test_prune_repeated_plan_layer_exits_2(workdir, capsys):
    run(["allocate", "--model", workdir / "model.json", "--uniform",
         "--target", 0.5, "--out", workdir / "plan.json"], capsys)
    plan = read_json(workdir / "plan.json")
    plan["layers"].append(dict(next(e for e in plan["layers"] if e["id"] == "c2"), s_l=0.9))
    (workdir / "plan.json").write_text(json.dumps(plan))
    code, _, err = run(["prune", "--model", workdir / "model.json",
                        "--plan", workdir / "plan.json", "--method", "weight-magnitude",
                        "--out", workdir / "pruned.json"], capsys)
    assert code == 2
    assert err.startswith("error: layer c2: listed more than once in the plan")
    assert not (workdir / "pruned.json").exists()


@pytest.mark.parametrize("argv", [
    ["capacity", "--batch-size", "0"],
    ["capacity", "--batch-size", "-1"],
    ["sweep", "--grid", "0.1,abc"],
    ["sweep", "--grid", "0.1", "--trial-seeds", "x"],
    ["sweep", "--grid", "0.1", "--finetune", "--ft-epochs", "-1"],
    ["sweep", "--grid", "0.1", "--finetune", "--ft-lr", "0"],
    ["sweep", "--grid", "0.1", "--floor-multiplier", "-1"],
], ids=["batch-size-0", "batch-size-neg", "grid", "trial-seeds", "ft-epochs", "ft-lr",
        "floor-multiplier"])
def test_malformed_numeric_flag_exits_2(workdir, capsys, argv):
    code, _, err = run([*argv, "--model", workdir / "model.json",
                        "--data", workdir / "data.pkds", "--out", workdir / "out"], capsys)
    assert code == 2
    assert err.startswith("error: ")
    assert not (workdir / "out").exists()


@pytest.mark.parametrize("argv", [
    ["train", "--out", "out"],
    ["finetune", "--out", "out"],
    ["eval"],
    ["sweep", "--grid", "0.1", "--finetune", "--out", "out"],
], ids=["train", "finetune", "eval", "sweep-finetune"])
def test_label_beyond_model_outputs_exits_2(workdir, capsys, argv):
    """The workdir model has 4 outputs; a 10-class set holds labels up to 9."""
    wide = workdir / "wide.pkds"
    save_dataset(synthetic_textures(64, 8, 8, 3, num_classes=10, seed=2), wide)
    model = workdir / "model.json"
    if argv[0] == "finetune":
        run(["allocate", "--model", model, "--uniform", "--target", 0.5,
             "--out", workdir / "plan.json"], capsys)
        run(["prune", "--model", model, "--plan", workdir / "plan.json",
             "--method", "weight-magnitude", "--out", workdir / "pruned.json"], capsys)
        model = workdir / "pruned.json"
    argv = [workdir / a if a == "out" else a for a in argv]
    code, _, err = run([*argv, "--model", model, "--data", wide], capsys)
    assert code == 2
    assert err.startswith("error: dataset label 9 is not below the model's 4 outputs")
    assert not (workdir / "out").exists()


def test_uniform_sweep_skips_the_capacity_probe(workdir, capsys, monkeypatch):
    import prunekit.cli as cli

    calls = []
    probe = cli.capacity_profile
    monkeypatch.setattr(cli, "capacity_profile",
                        lambda *a, **k: calls.append(a) or probe(*a, **k))
    csvs = {}
    for baseline in ("uniform", "both"):
        code, _, _ = run(["sweep", "--model", workdir / "model.json",
                          "--data", workdir / "data.pkds", "--out", workdir / baseline,
                          "--grid", "0.3,0.5", "--baseline", baseline], capsys)
        assert code == 0
        csvs[baseline] = (workdir / baseline).read_text().splitlines()
    assert len(calls) == 1  # only the sweep with layer-wise cells probes
    header, *rows = csvs["both"]
    assert csvs["uniform"] == [header] + [r for r in rows if r.split(",")[1] == "uniform"]


def test_plan_model_mismatch_rejected(workdir, capsys):
    run(["allocate", "--model", workdir / "model.json", "--uniform",
         "--target", 0.5, "--out", workdir / "plan.json"], capsys)
    other = workdir / "other.json"
    save_model(conv_chain(seed=99, input_shape=(8, 8, 3), widths=(6, 8),
                          fc_out=(10, 4)), other)
    code, _, err = run(["prune", "--model", other,
                        "--plan", workdir / "plan.json",
                        "--method", "channel-l1",
                        "--out", workdir / "pruned.json"], capsys)
    assert code == 2
    assert "different model" in err


@pytest.mark.parametrize("command", ["allocate", "calibrate"])
def test_report_model_mismatch_rejected(workdir, capsys, command):
    run(["capacity", "--model", workdir / "model.json", "--data", workdir / "data.pkds",
         "--out", workdir / "cap.json"], capsys)
    other = workdir / "other.json"
    save_model(conv_chain(seed=99, input_shape=(8, 8, 3), widths=(6, 8),
                          fc_out=(10, 4)), other)
    out = ["--out", workdir / "plan.json"] if command == "allocate" else []
    code, _, err = run([command, "--model", other, "--capacity", workdir / "cap.json",
                        "--target", 0.5, *out], capsys)
    assert code == 2
    assert "different model" in err


@pytest.mark.parametrize("argv, victim", [
    (["capacity", "--model", "model.json", "--data", "data.pkds", "--out", "model.json"],
     "model.json"),
    (["train", "--model", "model.json", "--data", "data.pkds", "--out", "data.pkds"],
     "data.pkds"),
    (["train", "--model", "model.json", "--data", "data.pkds", "--out", "model.json"],
     "model.json"),
], ids=["capacity-over-model", "train-over-data", "train-over-model"])
def test_out_naming_an_input_exits_2(workdir, capsys, argv, victim):
    before = (workdir / victim).read_bytes()
    code, _, err = run([workdir / a if a.endswith((".json", ".pkds")) else a for a in argv],
                       capsys)
    assert code == 2
    assert "input" in err
    assert (workdir / victim).read_bytes() == before


def test_sweep_row_cardinality_and_determinism(workdir, capsys):
    args = ["sweep", "--model", workdir / "model.json",
            "--data", workdir / "data.pkds",
            "--out", workdir / "sweep.csv",
            "--grid", "0.1,0.3,0.5", "--methods", "weight-magnitude",
            "--baseline", "both", "--finetune",
            "--ft-epochs", 1, "--floor-multiplier", 0]
    code, out, _ = run(args, capsys)
    assert code == 0
    first = (workdir / "sweep.csv").read_bytes()
    lines = first.decode().strip().splitlines()
    header = lines[0].split(",")
    assert header[:6] == ["method", "allocation", "s", "s_hat", "trial", "phase"]
    # 3 grid x 2 allocations x (p, p+ft)
    assert len(lines) - 1 == 12
    assert "failed_cells=0" in out

    args[8] = workdir / "sweep2.csv"
    code, _, _ = run(["sweep", "--model", workdir / "model.json",
                      "--data", workdir / "data.pkds",
                      "--out", workdir / "sweep2.csv",
                      "--grid", "0.1,0.3,0.5", "--methods", "weight-magnitude",
                      "--baseline", "both", "--finetune",
                      "--ft-epochs", 1, "--floor-multiplier", 0], capsys)
    assert code == 0
    assert (workdir / "sweep2.csv").read_bytes() == first


def test_sweep_random_channel_aggregates(workdir, capsys):
    code, _, _ = run(["sweep", "--model", workdir / "model.json",
                      "--data", workdir / "data.pkds",
                      "--out", workdir / "rand.csv",
                      "--grid", "0.4", "--methods", "channel-random",
                      "--baseline", "layerwise", "--trials", "4",
                      "--floor-multiplier", 0], capsys)
    assert code == 0
    lines = (workdir / "rand.csv").read_text().strip().splitlines()
    header = lines[0].split(",")
    rows = [dict(zip(header, l.split(","))) for l in lines[1:]]
    assert len(rows) == 4
    med = {r["accuracy_median"] for r in rows}
    assert len(med) == 1 and med != {""}
    accs = sorted(float(r["accuracy"]) for r in rows)
    assert float(rows[0]["accuracy_min"]) == accs[0]
    assert float(rows[0]["accuracy_max"]) == accs[-1]


def test_module_entrypoint_runs():
    root = Path(__file__).resolve().parents[1]
    proc = subprocess.run(
        [sys.executable, "-m", "prunekit", "--version"],
        capture_output=True, text=True,
        env={"PATH": "/usr/bin:/bin", "PYTHONPATH": str(root / "src")},
        cwd=root,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip()


def test_threads_env_validation(workdir, capsys, monkeypatch):
    monkeypatch.setenv("PRUNEKIT_THREADS", "banana")
    code, _, err = run(["capacity", "--model", workdir / "model.json",
                        "--data", workdir / "data.pkds",
                        "--out", workdir / "cap.json"], capsys)
    assert code == 2
    assert "PRUNEKIT_THREADS" in err


def test_threads_env_changes_nothing(workdir, capsys, monkeypatch):
    monkeypatch.setenv("PRUNEKIT_THREADS", "2")
    code, _, _ = run(["capacity", "--model", workdir / "model.json",
                      "--data", workdir / "data.pkds",
                      "--out", workdir / "cap2.json"], capsys)
    assert code == 0
    monkeypatch.setenv("PRUNEKIT_THREADS", "1")
    run(["capacity", "--model", workdir / "model.json",
         "--data", workdir / "data.pkds",
         "--out", workdir / "cap1.json"], capsys)
    a = json.loads((workdir / "cap1.json").read_text())
    b = json.loads((workdir / "cap2.json").read_text())
    assert a["layers"] == b["layers"]


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    """A desk-style manifest, PKDS file, capacity report, plan and pruned
    manifest that the fuzz test mutates."""
    d = tmp_path_factory.mktemp("fuzz")
    save_model(conv_chain(seed=0, input_shape=(8, 8, 3), widths=(6, 8), fc_out=(10, 4)),
               d / "model.json")
    save_dataset(synthetic_textures(16, 8, 8, 3, num_classes=4, seed=2), d / "data.pkds")
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["capacity", "--model", str(d / "model.json"), "--data", str(d / "data.pkds"),
                     "--out", str(d / "cap.json")]) == 0
        assert main(["allocate", "--model", str(d / "model.json"), "--capacity", str(d / "cap.json"),
                     "--target", "0.5", "--floor-multiplier", "0",
                     "--out", str(d / "plan.json")]) == 0
        assert main(["prune", "--model", str(d / "model.json"), "--plan", str(d / "plan.json"),
                     "--method", "weight-magnitude", "--out", str(d / "pruned.json")]) == 0
    return d


# artifact -> (file it mutates, command line given the directory d and the mutated copy x)
FUZZ_COMMANDS = {
    "manifest": ("model.json", lambda d, x: ["eval", "--model", x, "--data", d / "data.pkds"]),
    "plan": ("plan.json", lambda d, x: ["prune", "--model", d / "model.json", "--plan", x,
                                        "--method", "weight-magnitude", "--out", d / "out.json"]),
    "report": ("cap.json", lambda d, x: ["allocate", "--model", d / "model.json",
                                         "--capacity", x, "--target", 0.5,
                                         "--out", d / "out.json"]),
    "pkds": ("data.pkds", lambda d, x: ["eval", "--model", d / "model.json", "--data", x]),
    "pruned": ("pruned.json", lambda d, x: ["finetune", "--model", x, "--data", d / "data.pkds",
                                            "--epochs", 0, "--batch-size", 8,
                                            "--out", d / "out.json"]),
    "pkds-train": ("data.pkds", lambda d, x: ["train", "--model", d / "model.json", "--data", x,
                                              "--epochs", 1, "--batch-size", 8,
                                              "--out", d / "out.json"]),
    "pkds-capacity": ("data.pkds", lambda d, x: ["capacity", "--model", d / "model.json",
                                                 "--data", x, "--out", d / "out.json"]),
    "report-calibrate": ("cap.json", lambda d, x: ["calibrate", "--model", d / "model.json",
                                                   "--capacity", x, "--target", 0.5]),
    "manifest-sweep": ("model.json", lambda d, x: ["sweep", "--model", x,
                                                   "--data", d / "data.pkds", "--grid", 0.5,
                                                   "--baseline", "uniform",
                                                   "--out", d / "out.csv"]),
}


@st.composite
def byte_mutations(draw, raw: bytes) -> bytes:
    """One to three byte flips, truncations or insertions of raw."""
    data = bytearray(raw)
    for _ in range(draw(st.integers(1, 3))):
        op = draw(st.sampled_from(("flip", "truncate", "insert")))
        i = draw(st.integers(0, max(len(data) - 1, 0)))
        if op == "flip" and data:
            data[i] ^= draw(st.integers(1, 255))
        elif op == "truncate":
            del data[i:]
        else:
            data.insert(i, draw(st.integers(0, 255)))
    return bytes(data)


@pytest.mark.parametrize("artifact", list(FUZZ_COMMANDS))
@settings(max_examples=60, deadline=None, derandomize=True)
@given(data=st.data())
def test_mutated_artifacts_exit_with_a_documented_code(fuzz_dir, artifact, data):
    name, command = FUZZ_COMMANDS[artifact]
    mutated = fuzz_dir / ("mutated" + Path(name).suffix)
    mutated.write_bytes(data.draw(byte_mutations((fuzz_dir / name).read_bytes())))
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        code = main([str(a) for a in command(fuzz_dir, mutated)])
    assert code in (0, 2, 3, 4, 5)
