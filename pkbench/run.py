#!/usr/bin/env python3
"""prunekit benchmark: one workload per run, end to end or per layer.

    python3 pkbench/run.py --workload desk-train --seed 1 --seconds 30 --trace 0
    python3 pkbench/run.py --smoke

The program measured is the checkout's own ``src/prunekit``, next to this
directory. A run sets up its inputs from the seed several times (the median
is ``setup_s``), then repeats whole passes of the workload until ``--seconds``
of passes are measured, and checks the outputs outside the timed region.
With ``--trace 1`` the passes are recorded as spans and the per-layer suite
runs after them. The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and the metrics that BENCHMARK.json
lists for the mode. ``--smoke`` runs every workload at a tiny size, traced,
with every check on, and exits 1 if any check fails.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".pkbench-out"
SETUPS = 9
# One BLAS thread: with two, the desk step slows down and its tail widens
# whenever another process holds the second vCPU. One probe worker keeps
# BLAS threads x workers within nproc (2 here) and the batch-256 table1
# forward to one copy in memory (~1.1 GB).
BLAS_THREADS = 1
PROBE_WORKERS = 1


def pin_threads() -> None:
    """Fix thread counts in this process's environment before numpy loads."""
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)
    os.environ["PRUNEKIT_THREADS"] = str(PROBE_WORKERS)


def import_program() -> None:
    """Put the checkout's src first on the path and refuse any other prunekit."""
    src = ROOT / "src"
    if not (src / "prunekit" / "__init__.py").is_file():
        raise SystemExit(f"pkbench: no src/prunekit under {ROOT}; run from a prunekit checkout")
    sys.path.insert(0, str(src))
    import prunekit

    if Path(prunekit.__file__).resolve().parent != (src / "prunekit").resolve():
        raise SystemExit(f"pkbench: imported prunekit from {prunekit.__file__}, not {src}")


def host() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": BLAS_THREADS,
        "probe_workers": PROBE_WORKERS,
    }


def run_workload(name: str, seed: int, seconds: float, traced: bool, size) -> dict:
    """Set up, measure passes for ``seconds``, check; in a scratch directory
    under the checkout that is removed afterwards."""
    import layers
    from record import Ops, Trace, exception_name, median
    from workloads import WORKLOADS

    wl = WORKLOADS[name]
    OUT.mkdir(exist_ok=True)
    d = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=OUT))
    try:
        setup_times = []
        for _ in range(SETUPS):
            t0 = time.perf_counter()
            wl.setup(d, seed, size)
            setup_times.append(time.perf_counter() - t0)

        trace = Trace(traced)
        passes, prints, failures = [], [], []
        attempted = failed = 0
        while True:
            out = None  # release the previous pass's outputs before the next pass
            ops = Ops(trace)
            t0 = time.perf_counter()
            with trace.span("pass"):
                out = wl.run_pass(d, seed, size, ops)
            elapsed = time.perf_counter() - t0
            attempted += ops.attempted
            failed += len(ops.failures)
            failures += [f for f in ops.failures if f not in failures]
            passes.append({"run_s": (elapsed, "s"), **wl.pass_metrics(out, ops)})
            prints.append(wl.fingerprint(d, out))
            if len(passes) == 1:
                rss = peak_rss_mb()  # set-up and one pass: what running the workload once takes
            if sum(p["run_s"][0] for p in passes) >= seconds:
                break
        try:
            results = wl.checks(d, seed, size, out)
        except Exception as exc:  # a check that cannot run has failed
            results = [("checks", False, f"raised {exception_name(exc)}: {exc}")]
        results.append(("determinism", len(set(prints)) == 1,
                        f"{len(passes)} passes, {len(set(prints))} distinct outputs"))

        end_to_end = {"setup_s": (median(setup_times), "s")}
        for key, (_, unit) in passes[0].items():
            end_to_end[key] = (median(p[key][0] for p in passes), unit)
        end_to_end["peak_rss_mb"] = (rss, "MB")
        self_seconds = trace.self_seconds() if traced else {}
        per_layer = {}
        if traced:
            suite_dir = d / "suite"
            suite_dir.mkdir()
            per_layer = layers.suite(seed, size, suite_dir, Ops(trace))
            trace.write(OUT / f"{name}-seed{seed}.trace.jsonl")
        return {
            "workload": name, "seed": seed, "seconds": seconds, "traced": traced,
            "setup_s": setup_times, "passes": [{k: v for k, (v, _) in p.items()} for p in passes],
            "end_to_end": end_to_end, "per_layer": per_layer,
            "self_seconds": self_seconds,
            "checks": results, "attempted": attempted, "failed": failed, "failures": failures,
        }
    finally:
        shutil.rmtree(d, ignore_errors=True)


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def print_summary(result: dict) -> None:
    print(f"workload {result['workload']} seed {result['seed']} traced {int(result['traced'])}: "
          f"{len(result['passes'])} passes, {result['attempted']} operations, "
          f"{result['failed']} failed")
    for failure in result["failures"]:
        print(f"failed operation: {failure}")
    for name, ok, detail in result["checks"]:
        print(f"check {name}: {'ok' if ok else 'FAIL'} - {detail}")
    for name, (value, unit) in result["end_to_end"].items():
        print(f"metric {name} = {value:.6g} {unit}")


def final_object(result: dict, table: dict, names: list[dict]) -> dict:
    """The last line: correctness, operation counts and the listed metrics."""
    metrics = {}
    for m in names:
        value, unit = table[m["name"]]
        if unit != m["unit"]:
            raise SystemExit(f"pkbench: {m['name']} is measured in {unit}, "
                             f"BENCHMARK.json says {m['unit']}")
        metrics[m["name"]] = {"value": float(value), "unit": unit}
    return {
        "correct": all(ok for _, ok, _ in result["checks"]),
        "attempted": int(result["attempted"]),
        "failed": int(result["failed"]),
        "metrics": metrics,
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true")
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be >= 0")

    pin_threads()
    import_program()
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    from workloads import FULL, SMOKE, WORKLOADS

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    if args.smoke:
        ok = True
        for name in WORKLOADS:
            result = run_workload(name, args.seed, 0.0, True, SMOKE)
            print_summary(result)
            final_object(result, result["per_layer"], spec["per_layer"])
            ok &= final_object(result, result["end_to_end"], spec["end_to_end"])["correct"]
        print(json.dumps({"smoke": "ok" if ok else "FAIL", "host": host()}))
        return 0 if ok else 1

    if args.workload not in WORKLOADS:
        ap.error(f"--workload must be one of {', '.join(WORKLOADS)}")
    result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace), FULL)
    result["host"] = host()
    OUT.mkdir(exist_ok=True)
    summary = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    summary.write_text(json.dumps(result, indent=1) + "\n", encoding="utf-8")
    print_summary(result)
    key = "per_layer" if args.trace else "end_to_end"
    print(json.dumps(final_object(result, result[key], spec[key])))
    return 0


if __name__ == "__main__":
    sys.exit(main())
