#!/usr/bin/env python3
"""Print an output fingerprint of every pkbench workload at seeds 0-3.

    python3 scripts/fingerprints.py
    python3 scripts/fingerprints.py --seeds 0 1

For each workload and seed, in a temporary directory: the workload's set-up,
one FULL pass and its checks, under pkbench's thread settings (one BLAS
thread, one probe worker) and with no timing. Each line reads
``workload seed digest checks``, where checks is ``ok`` or the names of the
failed checks (``operations`` when an operation of the pass failed). Equal
digests from two checkouts mean byte-identical outputs. A digest depends on
the OpenBLAS kernel picked for the CPU, so compare digests from one host only.

The script is temporary: it reproduces the set-up, pass and check steps of
pkbench/run.py's run_workload, so a change to those can make the two differ
silently. It is to become ``pkbench/run.py --fingerprint`` and be deleted
when thread independence (ROADMAP item 14) lands in pkbench.
"""
import argparse
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "pkbench"))
import run  # noqa: E402  pkbench/run.py: thread settings and the checkout's own src


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seeds", type=int, nargs="+", default=[0, 1, 2, 3])
    args = ap.parse_args()
    run.pin_threads()
    run.import_program()
    from record import Ops, Trace
    from workloads import FULL, WORKLOADS

    for name, wl in WORKLOADS.items():
        for seed in args.seeds:
            with tempfile.TemporaryDirectory(prefix=f"{name}-") as tmp:
                d = Path(tmp)
                wl.setup(d, seed, FULL)
                ops = Ops(Trace(False))
                out = wl.run_pass(d, seed, FULL, ops)
                failed = [check for check, ok, _ in wl.checks(d, seed, FULL, out) if not ok]
                if ops.failures:
                    failed.append("operations")
                print(name, seed, wl.fingerprint(d, out), ",".join(failed) or "ok", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
