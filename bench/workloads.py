"""The three benchmark workloads: inputs from a seed, the timed job, and the
correctness gate that decides how many of a job's operations failed.

hyqmom is imported lazily, so ``setup_probe.py`` can time ``import hyqmom``
in a fresh interpreter before anything else pulls in numpy.

The seed selects one of ``VARIANTS`` input variants (``seed % VARIANTS``);
each variant draws its inputs from PCG64 keyed by the workload name and the
variant.  ``reference.json`` holds every variant's final state as computed
at the commit that defined the benchmark, so the reference gate applies to
any seed.  Simulation steps are capped by ``dt_max`` below the CFL step for
every variant, so the number of steps, and with it the work of a job, is the
same whatever the seed.
"""

from __future__ import annotations

import contextlib
import io
import json
import time
import zlib
from dataclasses import dataclass, field

import numpy as np

VARIANTS = 16
REALIZABILITY_TOL = 1e-12  # pivot floor relative to M_0, as in hyqmom.moments
CONSERVATION_PER_STEP = 1e-12  # acceptance criterion 6
STATE_RTOL = 1e-8  # final state against the reference, per moment order
SEPARATION_RTOL = 1e-6  # minimum eigenvalue separation against the reference
EXACT_RTOL = 1e-12  # quantities that depend only on the sampled arguments

NAMES = ("sim-n2-gauss-large", "sim-n6-eigen-snap", "certify-sweep")

# (n, gamma, samples) cells of verify-hyperbolicity, then (n, certificates)
# of verify-stability; sized so each half takes roughly half the job.
SWEEP_FULL = (
    ((2, 1.0, 10000), (3, 0.0, 15000), (4, 1.0, 25000), (3, -2.0, 10000)),
    ((2, 125), (3, 125), (4, 125)),
)
# The CLI's default ranges (U in [-5, 5], theta in [0.1, 10]) include states
# where the coupling residual exceeds its 1e-8 tolerance: at n = 4 once
# |U| / sqrt(theta) passes about 6, at n = 3 about 13.  These ranges keep
# |U| / sqrt(theta) <= 2.2, where every certificate passes with margin.
STABILITY_RANGES = ("--u-range", "-1.5", "1.5", "--theta-range", "0.5", "10")
SWEEP_SMOKE = (
    ((2, 1.0, 200), (3, 0.0, 200), (4, 1.0, 200), (3, -2.0, 200)),
    ((2, 2), (3, 2), (4, 2)),
)


def variant_of(seed):
    return seed % VARIANTS


def _rng(name, seed):
    return np.random.default_rng([zlib.crc32(name.encode()), variant_of(seed)])


@dataclass
class Inputs:
    name: str
    config: dict = None  # simulations: raw config handed to solver.run
    grid: object = None  # simulations: validated initial grid
    argv: list = field(default_factory=list)  # sweep: one CLI argv per call


@dataclass
class Outcome:
    attempted: int
    failed: int
    notes: list
    stats: dict  # counts and times the metrics need, e.g. steps, certs


def _segment(rng, n, rho, U, theta, x_until=None):
    theta_v = float(rng.uniform(*theta))
    seg = {
        "rho": float(rng.uniform(*rho)),
        "U": float(rng.uniform(*U)),
        "theta": theta_v,
        # small non-Maxwellian perturbation; |db_k| <= 0.1 theta keeps
        # every b_k = k theta + db_k positive
        "da": [float(x) for x in rng.uniform(-0.05, 0.05, n) * np.sqrt(theta_v)],
        "db": [0.0] + [float(x) for x in rng.uniform(-0.1, 0.1, n) * theta_v],
    }
    if x_until is not None:
        seg["x_until"] = x_until
    return seg


def _sim_config(name, seed, smoke):
    rng = _rng(name, seed)
    if name == "sim-n2-gauss-large":
        n, variant, cells, boundary, tau = 2, "gauss", 100_000, "periodic", 1.0
        # Gauss nodes stay within |U| + 2.4 sqrt(theta) < 4.5, so with
        # cfl 0.9 the CFL step exceeds dt_max = 0.2 dx in every variant
        dt_factor, steps, snapshots = 0.2, 3, 1
        if smoke:
            cells, steps = 200, 2
    else:
        n, variant, cells, boundary, tau = 6, "eigen", 400, "zero-gradient", 1e-6
        # eigenvalues stay below 9, so dt_max = 0.1 dx binds; snapshots
        # every 5.33 steps force a shortened retry before most snapshots
        dt_factor, steps, snapshots = 0.1, 80, 15
        if smoke:
            cells, steps, snapshots = 40, 10, 2
    dx = 1.0 / cells
    dt_max = dt_factor * dx
    t_final = steps * dt_max
    split = round(float(rng.uniform(0.3, 0.7)) * cells) / cells
    left = _segment(rng, n, (0.8, 1.2), (-0.3, 0.3), (0.8, 1.2), x_until=split)
    right = _segment(rng, n, (0.1, 0.4), (-0.3, 0.3), (0.5, 0.9))
    return {
        "n": n,
        "gamma": 1.0,
        "flux_variant": variant,
        "cfl": 0.9,
        "tau": tau,
        "domain": [0.0, 1.0],
        "cells": cells,
        "t_final": t_final,
        "snapshot_every": t_final / snapshots,
        "dt_max": dt_max,
        "boundary": boundary,
        "initial": [left, right],
    }


def _sweep_argv(seed, smoke):
    rng = _rng("certify-sweep", seed)
    hyp, stab = SWEEP_SMOKE if smoke else SWEEP_FULL
    argv = []
    for n, gamma, samples in hyp:
        argv.append(
            ["verify-hyperbolicity", "--n", str(n), "--gamma", repr(gamma),
             "--samples", str(samples), "--seed", str(int(rng.integers(2**31)))]
        )
    for n, certs in stab:
        argv.append(
            ["verify-stability", "--n", str(n), "--samples", str(certs),
             "--seed", str(int(rng.integers(2**31))), *STABILITY_RANGES]
        )
    return argv


def build_inputs(name, seed, smoke=False):
    """The workload's inputs: a validated config and initial grid for the
    simulations, the sampled CLI arguments for the sweep."""
    if name not in NAMES:
        raise ValueError(f"unknown workload {name!r}; choose from {NAMES}")
    if name == "certify-sweep":
        return Inputs(name, argv=_sweep_argv(seed, smoke))
    from hyqmom import solver

    config = _sim_config(name, seed, smoke)
    grid = solver.build_initial_grid(solver.validate_config(config))
    return Inputs(name, config=config, grid=grid)


# ---------------------------------------------------------------------------
# Jobs. Each returns what the gate needs; only the job is timed.


def run_job(inputs, workdir):
    """Run the workload's fixed job once; returns (result, part_seconds)."""
    import hyqmom.cli
    import hyqmom.solver

    if inputs.name == "sim-n2-gauss-large":
        return hyqmom.solver.run(inputs.config), {}
    if inputs.name == "sim-n6-eigen-snap":
        return hyqmom.solver.run(inputs.config, output_dir=workdir / "snapshots"), {}
    codes, parts = [], {"hyperbolicity": 0.0, "stability": 0.0}
    sink = io.StringIO()
    for i, argv in enumerate(inputs.argv):
        half = "hyperbolicity" if argv[0] == "verify-hyperbolicity" else "stability"
        t0 = time.perf_counter()
        with contextlib.redirect_stdout(sink):
            codes.append(
                hyqmom.cli.main(argv + ["--output-dir", str(workdir / f"call{i}")])
            )
        parts[half] += time.perf_counter() - t0
    return codes, parts


# ---------------------------------------------------------------------------
# Correctness gates. They use their own Wheeler recursion, not hyqmom's.


def wheeler_pivots(M):
    """Pivots <Q_k^2> of the Wheeler mixed-moment recursion for moment rows."""
    J, L = M.shape
    n_b = L // 2 + 1 if L % 2 else L // 2
    prev = np.zeros_like(M)
    cur = M.copy()
    piv = np.empty((J, n_b))
    piv[:, 0] = M[:, 0]
    a_prev = M[:, 1] / M[:, 0]
    b_prev = np.zeros(J)
    for k in range(1, n_b):
        nxt = np.zeros_like(M)
        nxt[:, k : L - k] = (
            cur[:, k + 1 : L - k + 1]
            - a_prev[:, None] * cur[:, k : L - k]
            - b_prev[:, None] * prev[:, k : L - k]
        )
        piv[:, k] = nxt[:, k]
        b_prev = nxt[:, k] / cur[:, k - 1]
        if k + 1 < L - k:
            a_prev = nxt[:, k + 1] / nxt[:, k] - cur[:, k] / cur[:, k - 1]
        prev, cur = cur, nxt
    return piv


def realizable(M):
    piv = wheeler_pivots(M)
    return np.all(piv > REALIZABILITY_TOL * M[:, :1], axis=1) & np.all(
        np.isfinite(M), axis=1
    )


def state_digest(cells):
    """Linear functionals of a final state, per moment order.

    Sums over cells (plain, with fixed pseudo-random signs, absolute) are
    dominated by the constant states; the same sums over cell-to-cell
    differences see the waves, where a change in the scheme shows first.
    Eight sampled cells are kept as well.  Signs and samples depend only on J.
    """
    J = cells.shape[0]
    signs = np.random.default_rng(J).choice([-1.0, 1.0], J)
    diff = np.diff(cells, axis=0)
    sample = np.linspace(0, J - 1, 8).astype(int)
    return {
        "sum": [float(x) for x in cells.sum(axis=0)],
        "signed": [float(x) for x in signs @ cells],
        "abs": [float(x) for x in np.abs(cells).sum(axis=0)],
        "diff_signed": [float(x) for x in signs[1:] @ diff],
        "diff_abs": [float(x) for x in np.abs(diff).sum(axis=0)],
        "cells": [[float(x) for x in cells[j]] for j in sample],
    }


def _digest_mismatch(digest, ref):
    """Largest relative difference between two digests."""
    worst = 0.0
    for keys, scale in ((("sum", "signed", "abs"), ref["abs"]),
                        (("diff_signed", "diff_abs"), ref["diff_abs"])):
        for key in keys:
            rel = np.abs(np.subtract(digest[key], ref[key])) / np.asarray(scale)
            worst = max(worst, float(np.max(rel)))
    ref_cells = np.asarray(ref["cells"])
    rel = np.abs(np.asarray(digest["cells"]) - ref_cells) / np.max(np.abs(ref_cells), axis=0)
    return max(worst, float(np.max(rel)))


def record(inputs, result, workdir):
    """What the reference stores for one variant."""
    if inputs.name == "certify-sweep":
        return {"calls": [_call_record(a, r) for a, r in _load_reports(inputs, workdir)]}
    return {
        "steps": int(result.manifest["steps"]),
        "snapshots": len(result.snapshots),
        "digest": state_digest(result.grid.cells),
    }


def _call_record(argv, report):
    if argv[0] == "verify-hyperbolicity":
        return {
            "min_separation": report["min_separation"],
            "separation_flags": _separation_flags(report),
        }
    certs = report["certificates"]
    states = np.array(
        [[c["state"]["rho"], c["state"]["U"], c["state"]["theta"]] for c in certs]
    )
    return {"D": certs[0]["D"], "state_sums": [float(x) for x in states.sum(axis=0)]}


def _separation_flags(report):
    return sum(
        all(r.startswith("separation") for r in f["reasons"]) for f in report["failures"]
    )


def _load_reports(inputs, workdir):
    """(argv, report) per call; the report is None if the call wrote none."""
    reports = []
    for i, argv in enumerate(inputs.argv):
        name = (
            "hyperbolicity_report.json"
            if argv[0] == "verify-hyperbolicity"
            else "stability_report.json"
        )
        path = workdir / f"call{i}" / name
        reports.append((argv, json.loads(path.read_text()) if path.is_file() else None))
    return reports


def gate(inputs, result, workdir, reference):
    """Count attempted and failed operations for one job.

    An operation is a simulation run, a hyperbolicity sample or a
    certificate.  ``reference`` is this variant's stored record, or None
    in smoke mode, where only the invariant checks run.
    """
    if inputs.name == "certify-sweep":
        return _gate_sweep(inputs, result, workdir, reference)
    return _gate_sim(inputs, result, workdir, reference)


def failed_outcome(inputs, error):
    """A job that raised: every operation it attempted failed."""
    size = sum(int(a[a.index("--samples") + 1]) for a in inputs.argv) if inputs.argv else 1
    return Outcome(attempted=size, failed=size, notes=[f"job raised {error!r}"], stats={})


def _gate_sim(inputs, result, workdir, reference):
    notes = []
    final = result.grid.cells
    steps = int(result.manifest["steps"])
    ok = realizable(final)
    if not np.all(ok):
        notes.append(f"{int(np.sum(~ok))} final cells fail the Wheeler gate")
    if inputs.config["boundary"] == "periodic":
        t0 = inputs.grid.dx @ inputs.grid.cells
        t1 = result.grid.dx @ final
        scale = inputs.grid.dx @ np.abs(inputs.grid.cells) + np.abs(t0)
        drift = float(np.max(np.abs(t1[:3] - t0[:3]) / scale[:3]))
        if not drift <= CONSERVATION_PER_STEP * steps:
            notes.append(f"M0..M2 drift {drift!r} exceeds 1e-12 x {steps} steps")
    if inputs.name == "sim-n6-eigen-snap":
        notes += _check_snapshot_files(result, workdir / "snapshots")
    if reference is not None:
        rec = record(inputs, result, workdir)
        if rec["steps"] != reference["steps"]:
            notes.append(f"{rec['steps']} accepted steps, reference {reference['steps']}")
        if rec["snapshots"] != reference["snapshots"]:
            notes.append(f"{rec['snapshots']} snapshots, reference {reference['snapshots']}")
        worst = _digest_mismatch(rec["digest"], reference["digest"])
        if not worst <= STATE_RTOL:
            notes.append(f"final state differs from the reference by {worst!r} (rel)")
    stats = {"steps": steps, "cells": int(final.shape[0])}
    return Outcome(attempted=1, failed=int(bool(notes)), notes=notes, stats=stats)


def _check_snapshot_files(result, outdir):
    files = sorted(outdir.glob("snapshot_*.csv"))
    if len(files) != len(result.snapshots):
        return [f"{len(files)} snapshot files for {len(result.snapshots)} snapshots"]
    if not (outdir / "run_manifest.json").is_file():
        return ["run_manifest.json missing"]
    L = result.grid.cells.shape[1]
    rows = np.loadtxt(files[-1], delimiter=",", skiprows=1, ndmin=2)
    if not np.array_equal(rows[:, 1 : 1 + L], result.grid.cells):
        return ["last snapshot CSV does not hold the final state"]
    return []


def _gate_sweep(inputs, codes, workdir, reference):
    notes, attempted, failed = [], 0, 0
    stats = {"samples": 0, "certs": 0, "separation_flags": 0}
    for i, ((argv, report), code) in enumerate(zip(_load_reports(inputs, workdir), codes)):
        size = int(argv[argv.index("--samples") + 1])
        attempted += size
        if report is None:
            notes.append(f"call {i}: exit code {code} and no report")
            failed += size
            continue
        if argv[0] == "verify-hyperbolicity":
            stats["samples"] += size
            stats["separation_flags"] += _separation_flags(report)
            # the CLI checks weights only where gamma > -n
            bad = sum(
                any(r in ("interlacing", "nonpositive weight") for r in f["reasons"])
                for f in report["failures"]
            )
            exit_ok = code == (3 if report["failures"] else 0)
        else:
            stats["certs"] += size
            bad = sum(not c["passed"] for c in report["certificates"])
            exit_ok = code == 0 and len(report["certificates"]) == size
        if bad:
            notes.append(f"call {i}: {bad} samples or certificates fail the gate")
        if not exit_ok:
            notes.append(f"call {i}: exit code {code}")
            bad = size
        if reference is not None:
            mismatch = _call_mismatch(_call_record(argv, report), reference["calls"][i])
            if mismatch:
                notes.append(f"call {i}: {mismatch}")
                bad = size
        failed += bad
    return Outcome(attempted=attempted, failed=failed, notes=notes, stats=stats)


def _call_mismatch(rec, ref):
    if "min_separation" in rec:
        rel = abs(rec["min_separation"] - ref["min_separation"]) / ref["min_separation"]
        if not rel <= SEPARATION_RTOL:
            return f"min separation {rec['min_separation']!r}, reference {ref['min_separation']!r}"
        return None
    for key in ("D", "state_sums"):
        a, b = np.asarray(rec[key]), np.asarray(ref[key])
        if a.shape != b.shape or not np.allclose(a, b, rtol=EXACT_RTOL, atol=0):
            return f"{key} differs from the reference"
    return None


def step_working_set_bytes(name):
    """Bytes of the float64 arrays one step of a simulation workload
    allocates, computed from the array shapes in hyqmom.solver at full size
    (not measured)."""
    cfg = _sim_config(name, 0, smoke=False)
    n, J = cfg["n"], cfg["cells"]
    L = 2 * n + 1
    wheeler = 3 * J * L + J * (3 * n + 2)  # prev/cur/next rows, a, b, pivots
    if cfg["flux_variant"] == "gauss":
        sizes, q, sweeps = (n + 1,), n + 1, 2  # gate, post-step check
    else:
        sizes, q, sweeps = (n, n + 1), L, 3  # gate, spectral, post-step check
    eig = sum(J * (2 * m * m + m) for m in sizes)  # matrix, vectors, values
    flux = 4 * J * q + 2 * J * L + (J + 1) * L  # powers, split sums, fluxes
    update = J * q + 4 * J * L  # factors, mstar, Maxwellian, new cells, input
    return 8 * (sweeps * wheeler + eig + 2 * J * q + flux + update)
