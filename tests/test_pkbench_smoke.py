import json
import subprocess
import sys
from pathlib import Path


def test_benchmark_smoke_pass():
    """pkbench's smoke pass runs every workload tiny with every check, so a
    change under src/ that breaks the benchmark's own checks fails here."""
    root = Path(__file__).resolve().parents[1]
    proc = subprocess.run([sys.executable, "pkbench/run.py", "--smoke"],
                          capture_output=True, text=True, cwd=root)
    assert proc.returncode == 0, proc.stderr
    last = proc.stdout.strip().splitlines()[-1]
    assert json.loads(last)["smoke"] == "ok", last
