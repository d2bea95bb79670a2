"""Record the benchmark's reference outputs and exact counts.

    python3 bench/make_reference.py

Runs every input variant of every workload once, checks it against the
invariant gates (realizability, conservation, interlacing, certificates),
and writes ``reference.json``: the outputs later runs are compared with.
Then traces two jobs of each workload at the baseline seed and writes their
per-layer counts, which must agree exactly, into ``baseline.json`` together
with the environment and the computed per-step working sets.  Run it only at
a commit whose outputs are the accepted reference.
"""

import json
import os
import sys
import tempfile
from pathlib import Path

import run  # pins BLAS threads before numpy loads
import spans
import workloads

sys.path.insert(0, str(run.SRC))


def reference_for(name):
    records = {}
    for variant in range(workloads.VARIANTS):
        inputs = workloads.build_inputs(name, variant)
        with tempfile.TemporaryDirectory(dir=run.OUT) as tmp:
            result, _ = workloads.run_job(inputs, Path(tmp))
            outcome = workloads.gate(inputs, result, Path(tmp), None)
            if outcome.failed:
                raise SystemExit(f"{name} variant {variant}: {outcome.notes}")
            records[str(variant)] = workloads.record(inputs, result, Path(tmp))
        print(f"{name} variant {variant}: {outcome.stats}", flush=True)
    return records


def counts_for(name, seed):
    inputs = workloads.build_inputs(name, seed)
    tracer = spans.Tracer()
    tracer.install()
    try:
        jobs, _ = run.run_jobs(inputs, None, 0, tracer, 5)
    finally:
        tracer.uninstall()
    per_job = []
    for job in jobs:
        if job["traced"]:
            stats = {"steps": 0, "certs": 0, **job["outcome"].stats}
            values = spans.layer_metrics(job["summary"], stats, tracer.present)
            per_job.append({k: values[k] for k in spans.COUNT_METRICS if k in values})
    if any(c != per_job[0] for c in per_job):
        raise SystemExit(f"{name}: counts differ between traced jobs")
    return per_job[0]


def main():
    os.makedirs(run.OUT, exist_ok=True)
    reference = {name: reference_for(name) for name in workloads.NAMES}
    (run.BENCH / "reference.json").write_text(json.dumps(reference, indent=1) + "\n")
    path = run.BENCH / "baseline.json"
    baseline = json.loads(path.read_text())
    baseline["environment"] = run.environment()
    baseline["working_set_bytes_per_step"] = {
        "note": "computed from the float64 array shapes one step allocates "
        "at full size, not measured; L2 4 MiB per core, L3 300 MiB",
        "l2_bytes": 4 * 2**20,
        "l3_bytes": 300 * 2**20,
        **{name: workloads.step_working_set_bytes(name) for name in workloads.NAMES[:2]},
    }
    baseline["counts"] = {name: counts_for(name, run.BASELINE_SEED) for name in workloads.NAMES}
    path.write_text(json.dumps(baseline, indent=2) + "\n")


if __name__ == "__main__":
    main()
