"""Set-up cost in a fresh interpreter: ``import hyqmom``, then build one
workload's inputs.  Prints one JSON line {"import_s", "inputs_s"}.

Usage: python3 bench/setup_probe.py <workload> <seed>
"""

import os
import sys
import time

os.environ["OPENBLAS_NUM_THREADS"] = "1"
sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src"))

t0 = time.perf_counter()
import hyqmom  # noqa: E402,F401

t1 = time.perf_counter()
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import workloads  # noqa: E402

workloads.build_inputs(sys.argv[1], int(sys.argv[2]))
t2 = time.perf_counter()
print(f'{{"import_s": {t1 - t0!r}, "inputs_s": {t2 - t1!r}}}')
