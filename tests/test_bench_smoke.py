import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).parents[1]


def test_benchmark_smoke_passes():
    # every workload at toy size through the benchmark's own gates, schema
    # and metric names; the benchmark imports hyqmom from this checkout
    proc = subprocess.run(
        [sys.executable, str(ROOT / "bench" / "run.py"), "--smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip().splitlines()[-1] == '{"smoke": "ok", "problems": 0}'
