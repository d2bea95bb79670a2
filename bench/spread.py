"""Run-to-run spread of the end-to-end metrics.

    python3 bench/spread.py --runs 10 [--first-seed 1] [--workload NAME ...] [--record]

Runs ``bench/run.py`` once per seed (first-seed, first-seed + 1, ...) on
each workload, with the run length BENCHMARK.json sets, and prints for
every end-to-end metric the median of the runs and the distance between
their first and third quartiles as a share of that median, next to the
metric's bound.  With
``--record`` the medians are written to ``baseline.json`` as the recorded
baseline.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--workload", action="append")
    parser.add_argument("--record", action="store_true")
    args = parser.parse_args()
    names = args.workload or [w["name"] for w in spec["workloads"]]
    recorded = {}
    worst = 0.0
    for name in names:
        runs = []
        for seed in range(args.first_seed, args.first_seed + args.runs):
            proc = subprocess.run(
                [sys.executable, str(BENCH / "run.py"), "--workload", name,
                 "--seed", str(seed), "--seconds", str(spec["run_seconds"]), "--trace", "0"],
                capture_output=True, text=True, check=True, timeout=180,
            )
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            if not result["correct"]:
                raise SystemExit(f"{name} seed {seed}: {result['failed']} operations failed")
            runs.append(result["metrics"])
            print(f"{name} seed {seed}: "
                  + ", ".join(f"{k} {v['value']:.6g}" for k, v in result["metrics"].items()),
                  flush=True)
        recorded[name] = {}
        for metric in spec["end_to_end"]:
            values = [r[metric["name"]]["value"] for r in runs]
            q1, _, q3 = statistics.quantiles(values, n=4)
            median = statistics.median(values)
            share = (q3 - q1) / median
            worst = max(worst, share / metric["bound"])
            recorded[name][metric["name"]] = {"median": median, "q1": q1, "q3": q3, "runs": len(values)}
            print(f"  {name} {metric['name']}: median {median:.6g} {metric['unit']}, "
                  f"spread {share:.4f} of median (bound {metric['bound']})", flush=True)
    print(f"largest spread as a share of its bound: {worst:.3f}")
    if args.record:
        path = BENCH / "baseline.json"
        baseline = json.loads(path.read_text())
        baseline.setdefault("recorded", {}).update(recorded)
        path.write_text(json.dumps(baseline, indent=2) + "\n")


if __name__ == "__main__":
    main()
