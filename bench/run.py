"""hyqmom benchmark: one workload per run, end-to-end metrics untraced, the
per-layer split from a separate traced run.

    python3 bench/run.py --workload sim-n2-gauss-large --seed 1 --trace 0
    python3 bench/run.py --smoke

Run from anywhere; it imports hyqmom from ``src/`` next to this directory
and writes only under ``.bench_out/`` there.  BLAS is pinned to one thread.
A run times set-up once in a fresh interpreter to warm the file cache, runs
the workload's fixed job once to warm caches, then repeats the job for
``--seconds`` (by default BENCHMARK.json's ``run_seconds``) with set-up
probes in fresh interpreters spread evenly over that window.  Between any
two of these the host-speed mix (``hostspeed.py``) is timed, and each job
and probe is divided by the mean factor measured just before and after it;
the end-to-end times are medians of these normalised times.  With
``--trace 1`` traced and untraced jobs alternate; the per-layer metrics are
medians over the traced jobs and ``trace.overhead_s`` is the difference of
the two normalised medians.  The last line of standard output is one JSON
object: correct, attempted, failed, metrics.
"""

import os

os.environ["OPENBLAS_NUM_THREADS"] = "1"  # before anything imports numpy

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import hostspeed  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
SETUP_REPEATS = 25
MIN_JOBS = 3
BASELINE_SEED = 1


def _quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def _line(name, values, unit, note=""):
    q1, q3 = _quartiles(values)
    print(
        f"  {name:<40} {statistics.median(values):>14.6g} {unit:<10} "
        f"q1 {q1:.6g}  q3 {q3:.6g}  n={len(values)}{note}"
    )


def setup_probe(name, seed):
    """Import and input-building times of one fresh interpreter."""
    proc = subprocess.run(
        [sys.executable, str(BENCH / "setup_probe.py"), name, str(seed)],
        capture_output=True, text=True, timeout=120, check=True,
    )
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run_jobs(inputs, reference, seconds, tracer, min_jobs, probes=0, seed=None):
    """Warm-up job, then jobs until ``seconds`` of measuring have passed.

    ``probes`` set-up probes, after one uncounted probe that warms the file
    cache, are spread evenly over the measuring window, so they meet the
    same host as the jobs.  The host-speed factor is timed between any two
    jobs or probes, and each job and probe keeps the mean of the factors
    just before and after it as its ``speed``.  With a tracer, traced and
    untraced jobs alternate.  Every job's output goes through the
    correctness gate.  Returns the jobs and the set-up samples.
    """
    jobs, setup = [], []
    OUT.mkdir(exist_ok=True)
    if probes:
        setup_probe(inputs.name, seed)
    start = None
    speed = hostspeed.factor()
    while (start is None or len(jobs) < min_jobs or len(setup) < probes
           or time.perf_counter() - start < seconds):
        traced = tracer is not None and len(jobs) % 2 == 1
        gc.collect()
        with tempfile.TemporaryDirectory(dir=OUT) as tmp:
            workdir = Path(tmp)
            if traced:
                tracer.reset()
                tracer.active = True
            t0 = time.perf_counter()
            try:
                result, parts = workloads.run_job(inputs, workdir)
                error = None
            except Exception as exc:  # a raising job is a failed operation
                result, parts, error = None, {}, exc
            wall = time.perf_counter() - t0
            if tracer is not None:
                tracer.active = False
            if error is None:
                outcome = workloads.gate(inputs, result, workdir, reference)
            else:
                outcome = workloads.failed_outcome(inputs, error)
        after = hostspeed.factor()
        job = {"wall_s": wall, "parts": parts, "outcome": outcome, "traced": traced,
               "speed": (speed + after) / 2}
        speed = after
        if traced:
            job["summary"] = spans.summarize(tracer.spans)
        if start is None:
            start = time.perf_counter()  # the warm-up job is gated, not timed
            job["warmup"] = True
        jobs.append(job)
        if len(setup) < probes and time.perf_counter() - start >= len(setup) * seconds / probes:
            sample = setup_probe(inputs.name, seed)
            after = hostspeed.factor()
            sample["speed"] = (speed + after) / 2
            speed = after
            setup.append(sample)
    return jobs, setup


def _host_s(item, seconds):
    """Seconds on the nominal host (see hostspeed.py)."""
    return seconds / item["speed"]


def end_to_end(name, jobs, setup):
    """Untraced metrics; prints the table and returns the JSON metrics."""
    timed = [j for j in jobs if not j.get("warmup") and not j["traced"]]
    walls = [_host_s(j, j["wall_s"]) for j in timed]
    setup_s = [_host_s(s, s["import_s"] + s["inputs_s"]) for s in setup]
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    attempted = sum(j["outcome"].attempted for j in jobs)
    failed = sum(j["outcome"].failed for j in jobs)
    print(f"end-to-end metrics, {name} (median, quartiles, sample count; "
          "times in seconds of the nominal host):")
    _line("wall_s", walls, "s")
    _line("setup_s", setup_s, "s")
    print(f"  {'peak_rss_mb':<40} {rss_mb:>14.6g} {'MB':<10} n=1")
    done = [j for j in timed if j["outcome"].stats]  # jobs that did not raise
    stats = done[0]["outcome"].stats if done else {}
    if "steps" in stats:
        rates = [j["outcome"].stats["steps"] * j["outcome"].stats["cells"] / _host_s(j, j["wall_s"])
                 for j in done]
        _line("cell_steps_per_s", rates, "1/s", f"  ({stats['steps']} steps x {stats['cells']} cells)")
    if "certs" in stats:
        _line("hyperbolicity.samples_per_s",
              [j["outcome"].stats["samples"] / _host_s(j, j["parts"]["hyperbolicity"]) for j in done],
              "1/s")
        _line("stability.certs_per_s",
              [j["outcome"].stats["certs"] / _host_s(j, j["parts"]["stability"]) for j in done], "1/s")
        print(f"  {'separation_flags':<40} {stats['separation_flags']:>14d} {'count':<10} "
              f"of {stats['samples']} samples per job (not failures)")
    print(f"  {'failed_frac':<40} {failed / attempted:>14.6g} {'ratio':<10} "
          f"{failed} of {attempted} operations")
    print("  as measured, before dividing by the host-speed factor:")
    _line("wall_s (measured)", [j["wall_s"] for j in timed], "s")
    _line("setup_s (measured)", [s["import_s"] + s["inputs_s"] for s in setup], "s")
    _line("host-speed factor", [j["speed"] for j in timed], "")
    return {
        "wall_s": {"value": statistics.median(walls), "unit": "s"},
        "setup_s": {"value": statistics.median(setup_s), "unit": "s"},
        "peak_rss_mb": {"value": rss_mb, "unit": "MB"},
    }


def per_layer(name, seed, jobs, setup, tracer, smoke):
    """Traced metrics; prints the table, writes the spans of the last traced
    job and returns the JSON metrics.  Times are divided by each job's
    host-speed factor, like the end-to-end times."""
    traced = [j for j in jobs if j["traced"]]
    plain = [j for j in jobs if not j["traced"] and not j.get("warmup")]
    units = spans.units()
    values = {}
    for job in traced:
        stats = dict(job["outcome"].stats)
        stats.setdefault("steps", 0)
        stats.setdefault("certs", 0)
        for key, value in spans.layer_metrics(job["summary"], stats, tracer.present).items():
            if units[key] in ("s", "ns/cell"):
                value = _host_s(job, value)
            values.setdefault(key, []).append(value)
    values["setup.import_s"] = [_host_s(s, s["import_s"]) for s in setup]
    values["setup.inputs_s"] = [_host_s(s, s["inputs_s"]) for s in setup]
    overhead = statistics.median(_host_s(j, j["wall_s"]) for j in traced) - statistics.median(
        _host_s(j, j["wall_s"]) for j in plain
    )
    values["trace.overhead_s"] = [overhead]
    print(f"per-layer metrics, {name} (median over {len(traced)} traced jobs; "
          "times in seconds of the nominal host):")
    for key, vals in values.items():
        _line(key, vals, units[key])
    _line("host-speed factor", [j["speed"] for j in traced], "")
    if tracer.missing:
        print("  missing bindings (their metrics are left out): " + ", ".join(tracer.missing))
    unsteady = [k for k in spans.COUNT_METRICS if k in values and len(set(values[k])) > 1]
    print("  counts repeat exactly across traced jobs: "
          + ("yes" if not unsteady else "NO: " + ", ".join(unsteady)))
    if not smoke:
        _compare_counts(name, values)
    OUT.mkdir(exist_ok=True)
    path = OUT / f"trace-{name}-seed{seed}.json"
    path.write_text(json.dumps({"missing": tracer.missing, "spans": tracer.spans}))
    print(f"  spans of the last traced job: {path.relative_to(ROOT)}")
    return {k: {"value": statistics.median(v), "unit": units[k]} for k, v in values.items()}


def _compare_counts(name, values):
    baseline = json.loads((BENCH / "baseline.json").read_text())
    recorded = baseline["counts"].get(name, {})
    changed = [
        f"{k} {recorded[k]!r} -> {values[k][0]!r}"
        for k in recorded
        if k in values and values[k][0] != recorded[k]
    ]
    print(f"  counts against the seed-{baseline['seeds']['baseline']} baseline: "
          + ("unchanged" if not changed else "; ".join(changed)))


def measure(name, seed, seconds, traced, smoke=False, setup=None):
    """One run.  ``setup`` replaces the set-up probes (smoke mode)."""
    inputs = workloads.build_inputs(name, seed, smoke=smoke)
    reference = None
    if not smoke:
        refs = json.loads((BENCH / "reference.json").read_text())
        reference = refs[name][str(workloads.variant_of(seed))]
    tracer = None
    if traced:
        tracer = spans.Tracer()
        tracer.install()
    try:
        jobs, probed = run_jobs(inputs, reference, seconds, tracer, MIN_JOBS,
                                probes=0 if setup else SETUP_REPEATS, seed=seed)
    finally:
        if tracer is not None:
            tracer.uninstall()
    notes = sorted({n for j in jobs for n in j["outcome"].notes})
    for note in notes:
        print(f"  gate: {note}")
    attempted = sum(j["outcome"].attempted for j in jobs)
    failed = sum(j["outcome"].failed for j in jobs)
    setup = setup or probed
    if traced:
        metrics = per_layer(name, seed, jobs, setup, tracer, smoke)
    else:
        metrics = end_to_end(name, jobs, setup)
    return {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}


def run_seconds():
    return json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]


def environment():
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas.get("openblas configuration", blas.get("name")),
        "nproc": os.cpu_count(),
        "blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"]),
    }


def smoke(import_s):
    """All three workloads at toy sizes, untraced and traced: checks the
    gates, the output schema and that every metric BENCHMARK.json names is
    produced."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = []
    for name in workloads.NAMES:
        setup = [{"import_s": import_s, "inputs_s": 0.0, "speed": 1.0}]
        for traced, key in ((False, "end_to_end"), (True, "per_layer")):
            result = measure(name, BASELINE_SEED, 0, traced, smoke=True, setup=setup)
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                problems.append(f"{name}: result keys {sorted(result)}")
            if not result["correct"]:
                problems.append(f"{name}: {result['failed']} of {result['attempted']} failed")
            wanted = {m["name"]: m["unit"] for m in spec[key]}
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            if got != wanted:
                problems.append(f"{name} {key}: metrics differ from BENCHMARK.json: "
                                f"missing {sorted(set(wanted) - set(got))}, "
                                f"extra {sorted(set(got) - set(wanted))}, "
                                f"units {sorted(k for k in wanted if k in got and got[k] != wanted[k])}")
    for p in problems:
        print(f"smoke: {p}")
    print(json.dumps({"smoke": "ok" if not problems else "failed", "problems": len(problems)}))
    return 0 if not problems else 1


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=BASELINE_SEED)
    parser.add_argument("--seconds", type=float, default=run_seconds())
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="toy sizes, all workloads")
    args = parser.parse_args(argv)
    if not (SRC / "hyqmom" / "__init__.py").is_file():
        print(f"error: no hyqmom sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    t0 = time.perf_counter()
    import hyqmom

    import_s = time.perf_counter() - t0
    if Path(hyqmom.__file__).resolve().parent != SRC / "hyqmom":
        print(f"error: imported hyqmom from {hyqmom.__file__}, not {SRC}", file=sys.stderr)
        return 2
    if args.smoke:
        return smoke(import_s)
    if args.workload not in workloads.NAMES:
        parser.error(f"--workload must be one of {', '.join(workloads.NAMES)}")
    print(f"hyqmom benchmark: {args.workload}, seed {args.seed} "
          f"(input variant {workloads.variant_of(args.seed)}), "
          f"{args.seconds:g} s, trace {args.trace}")
    print("environment: " + json.dumps(environment(), sort_keys=True))
    result = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
