"""Command-line front end: closures, spectra, certification and simulation.

Exit codes: 0 success, 1 usage/config error, 2 non-realizable input,
3 certification failure, 4 realizability loss during a run.  All commands
are deterministic for fixed flags and seed; random sampling uses numpy's
PCG64 generator and the seed is recorded in every report.
"""

from __future__ import annotations

import argparse
import json
import sys
import time as _time
from pathlib import Path

import numpy as np

from . import __version__
from .closures import (
    ClosureSpec,
    _hyqmom_an,
    _spectral_batch,
    close,
    spectral_decomposition,
)
from .moments import (
    DEFAULT_REALIZABILITY_TOL,
    NotRealizableError,
    _moments_from_recurrence_batch,
    _realizability,
)
from .orthopoly import check_interlacing
from .solver import ConfigError, RealizabilityLossError, run
from .stability import EquilibriumState, certify

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_NOT_REALIZABLE = 2
EXIT_CERTIFICATION = 3
EXIT_REALIZABILITY_LOSS = 4

PRNG_NAME = "PCG64"


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _add_common(p):
    p.add_argument("--output-dir", default=None, help="directory for report/output files")
    p.add_argument("--format", choices=("text", "json", "csv"), default="text")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument(
        "--tol",
        type=float,
        default=None,
        help="override the command's tolerance (realizability pivots for "
        "close/spectrum, which may only tighten the library's floor "
        f"{DEFAULT_REALIZABILITY_TOL:g} x M_0; the relative eigenvalue gap that "
        "verify-hyperbolicity counts as near-degenerate, a diagnostic that "
        "fails no draw; certificate residuals for verify-stability)",
    )


def _parse_moments(text):
    try:
        vals = [float(tok) for tok in text.split(",") if tok.strip() != ""]
    except ValueError:
        raise ValueError(f"could not parse moment list {text!r}") from None
    if not vals:
        raise ValueError("empty moment list")
    return np.array(vals)


def _dump(obj):
    return json.dumps(obj, indent=2, sort_keys=True)


def _write_report(args, name, payload, extra_manifest=None):
    if args.output_dir is None:
        return []
    out = Path(args.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    report_path = out / name
    report_path.write_text(_dump(payload) + "\n")
    manifest = {
        "command": args.command,
        "version": __version__,
        "arguments": {
            k: v for k, v in vars(args).items() if k not in ("func", "command")
        },
        "outputs": [name],
        "wall_clock_s": _time.time() - args._started,
    }
    man_path = out / "manifest.json"
    man_path.write_text(_dump(manifest) + "\n")
    return [str(report_path), str(man_path)]


def _check_realizable(m, tol):
    """Realizability gate honoring the --tol override; returns the check
    and the recurrence rows (a, b).  The library gates again at its own
    floor, so a looser override is refused up front."""
    if tol is None:
        tol = DEFAULT_REALIZABILITY_TOL
    elif not tol >= DEFAULT_REALIZABILITY_TOL:
        raise ValueError(
            f"--tol {tol!r} is below the realizability floor "
            f"{DEFAULT_REALIZABILITY_TOL!r}; close and spectrum can only tighten it"
        )
    check, a, b = _realizability(m, tol)
    if not check:
        raise NotRealizableError(check.message, pivot_index=check.failing_index)
    return check, a, b


def _cmd_close(args):
    m = _parse_moments(args.moments)
    check, a, b = _check_realizable(m, args.tol)
    variant = "hyqmom" if args.hyqmom else ("qmom" if args.qmom else "new")
    closed = close(m, ClosureSpec(variant, gamma=args.gamma if args.hyqmom else 1.0))
    detail = {
        "closure": variant,
        "gamma": args.gamma if variant == "hyqmom" else None,
        "moments": [float(x) for x in m],
        "closed_moment": closed,
        "a": [float(x) for x in a],
        "b": [float(x) for x in b],
        "pivots": [float(x) for x in check.pivots],
        "condition_estimate": check.condition_estimate,
        "realizable": True,
    }
    if args.format == "json":
        print(_dump(detail))
    elif args.format == "csv":
        print(",".join(repr(float(x)) for x in list(m) + [closed]))
    else:
        print(f"M_{len(m)} = {closed!r}")
        print(f"a = {[float(x) for x in a]}")
        print(f"b = {[float(x) for x in b]}")
        print(f"pivots = {[float(x) for x in check.pivots]} (all above threshold)")
    _write_report(args, "close.json", detail)
    return EXIT_OK


def _cmd_spectrum(args):
    m = _parse_moments(args.moments)
    _check_realizable(m, args.tol)
    sd = spectral_decomposition(m, ClosureSpec("hyqmom", gamma=args.gamma))
    if sd.near_degenerate:
        print(
            "warning: near-degenerate spectrum (two roots closer than "
            "1e-8 x spectral radius)",
            file=sys.stderr,
        )
    payload = json.loads(sd.to_json())
    payload["gamma"] = args.gamma
    payload["weights_positive"] = sd.weights_positive
    payload["near_degenerate"] = sd.near_degenerate
    if args.check_interlacing:
        payload["interlacing"] = check_interlacing(
            sd.eigenvalues[1::2], sd.eigenvalues[0::2]
        )
    if args.format == "json":
        print(_dump(payload))
    elif args.format == "csv":
        print("lambda,omega")
        for lam, om in zip(sd.eigenvalues, sd.weights):
            print(f"{float(lam)!r},{float(om)!r}")
    else:
        print(f"{'i':>3} {'lambda':>24} {'omega':>24}")
        for i, (lam, om) in enumerate(zip(sd.eigenvalues, sd.weights)):
            print(f"{i:>3} {float(lam)!r:>24} {float(om)!r:>24}")
        if args.check_interlacing:
            print(f"interlacing: {'OK' if payload['interlacing'] else 'FAILED'}")
    _write_report(args, "spectrum.json", payload)
    return EXIT_OK


def _hyperbolicity_failures(a, b, gamma, lam, om):
    """Failure records of the draws with recurrence rows a (J, n) and
    b (J, n+1) and merged spectra (lam, om) at this gamma.

    A draw fails when its Q_n and R_{n+1} roots do not interlace strictly,
    when two adjacent eigenvalue enclosures overlap, or (for gamma > -n) on
    a nonpositive weight.  Each computed eigenvalue of a symmetric
    tridiagonal T of order m is enclosed with the backward-error radius
    (m+1) eps ||T||_F, with ||T||_F taken from the draw's own (a, b) for
    T_Q (order n) and T_R (order n+1).  Interlaced eigenvalues alternate between the two, so
    disjoint adjacent enclosures prove 2n+1 distinct eigenvalues; a small
    gap alone fails nothing, as the theorem gives no lower bound on it.
    """
    n = a.shape[1]
    eps = np.finfo(float).eps
    tq = np.sum(a**2, axis=1) + 2 * np.sum(b[:, 1:n], axis=1)
    tr = tq + _hyqmom_an(a, gamma) ** 2 + 2 * (2 * n + gamma) / n * b[:, n]
    enclosure = (n + 1) * eps * np.sqrt(tq) + (n + 2) * eps * np.sqrt(tr)
    gaps = np.diff(lam, axis=1)
    not_interlaced = ~np.all(gaps > 0, axis=1)
    overlap = ~(np.min(gaps, axis=1) > enclosure)
    bad_weight = np.min(om, axis=1) <= 0 if gamma > -n else np.zeros_like(overlap)
    failures = []
    for i in np.flatnonzero(not_interlaced | overlap | bad_weight):
        reasons = []
        if not_interlaced[i]:
            reasons.append("interlacing")
        if overlap[i]:
            reasons.append(f"enclosures overlap (gap {float(np.min(gaps[i]))!r})")
        if bad_weight[i]:
            reasons.append("nonpositive weight")
        failures.append({"sample": int(i), "reasons": reasons})
    return failures


def _cmd_verify_hyperbolicity(args):
    tol = 1e-7 if args.tol is None else args.tol
    n, gamma = args.n, args.gamma
    if gamma <= -2 * n:
        raise ValueError(f"gamma must exceed -2n = {-2 * n}")
    rng = np.random.default_rng(args.seed)
    a = rng.uniform(args.a_range[0], args.a_range[1], (args.samples, n))
    b = rng.uniform(args.b_range[0], args.b_range[1], (args.samples, n + 1))
    moments = _moments_from_recurrence_batch(a, b, 2 * n + 1)
    lam, om, _, _ = _spectral_batch(moments, gamma)
    radius = np.max(np.abs(lam), axis=1)
    separation = np.min(np.diff(lam, axis=1), axis=1) / radius
    failures = _hyperbolicity_failures(a, b, gamma, lam, om)
    report = {
        "n": n,
        "gamma": gamma,
        "samples": args.samples,
        "seed": args.seed,
        "prng": PRNG_NAME,
        "a_range": list(args.a_range),
        "b_range": list(args.b_range),
        "separation_tol": tol,
        "min_separation": float(separation.min()),
        "near_degenerate": int(np.sum(separation <= tol)),
        "failures": failures,
        "passed": not failures,
    }
    if args.format == "json":
        print(_dump(report))
    else:
        print(
            f"n={n} gamma={gamma}: {args.samples} samples, "
            f"min separation {report['min_separation']!r}, "
            f"{report['near_degenerate']} near-degenerate (separation <= {tol!r}), "
            f"{len(failures)} failure(s)"
        )
    _write_report(args, "hyperbolicity_report.json", report)
    return EXIT_OK if not failures else EXIT_CERTIFICATION


def _cmd_verify_stability(args):
    n = args.n
    if n < 1:
        raise ValueError("n must be >= 1")
    if n == 1:
        report = {
            "n": n,
            "samples": 0,
            "seed": args.seed,
            "prng": PRNG_NAME,
            "certificates": [],
            "note": "Condition (I)/(III) trivial: no relaxing block",
            "passed": True,
        }
        print(report["note"])
        _write_report(args, "stability_report.json", report)
        return EXIT_OK
    rng = np.random.default_rng(args.seed)
    overrides = None
    if args.tol is not None:
        overrides = {
            k: args.tol
            for k in ("condition_I", "symmetrizer_asymmetry", "commutator", "K_offblock", "coupling")
        }
    certificates = []
    for _ in range(args.samples):
        state = EquilibriumState(
            rho=float(rng.uniform(*args.rho_range)),
            U=float(rng.uniform(*args.u_range)),
            theta=float(rng.uniform(*args.theta_range)),
        )
        certificates.append(certify(state, n, tolerances=overrides).as_dict())
    failed = [c for c in certificates if not c["passed"]]
    report = {
        "n": n,
        "samples": args.samples,
        "seed": args.seed,
        "prng": PRNG_NAME,
        "rho_range": list(args.rho_range),
        "u_range": list(args.u_range),
        "theta_range": list(args.theta_range),
        "certificates": certificates,
        "failures": len(failed),
        "passed": not failed,
    }
    if args.format == "json":
        print(_dump(report))
    else:
        print(
            f"n={n}: {args.samples} certificates, {len(failed)} failure(s)"
        )
    _write_report(args, "stability_report.json", report)
    return EXIT_OK if not failed else EXIT_CERTIFICATION


def _cmd_simulate(args):
    out_dir = args.output_dir
    if out_dir is None:
        out_dir = Path(args.config).stem + "_out"
    result = run(args.config, output_dir=out_dir)
    flagged = sum(len(s.flagged_cells) for s in result.snapshots)
    print(
        f"simulated {result.manifest['steps']} steps to t={result.grid.time!r}; "
        f"{len(result.snapshots)} snapshots in {out_dir}"
        + (f"; {flagged} near-boundary cell flags" if flagged else "")
    )
    return EXIT_OK


def build_parser():
    parser = _Parser(prog="hyqmom", description=__doc__)
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("close", help="close a moment vector")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--hyqmom", action="store_true")
    group.add_argument("--qmom", action="store_true")
    group.add_argument("--new", action="store_true")
    p.add_argument("--gamma", type=float, default=1.0)
    p.add_argument("--moments", required=True, help="comma-separated M_0..M_N")
    _add_common(p)
    p.set_defaults(func=_cmd_close)

    p = sub.add_parser("spectrum", help="eigenvalues and weights of the closed system")
    p.add_argument("--moments", required=True)
    p.add_argument("--gamma", type=float, default=1.0)
    p.add_argument("--check-interlacing", action="store_true")
    _add_common(p)
    p.set_defaults(func=_cmd_spectrum)

    p = sub.add_parser(
        "verify-hyperbolicity",
        help="batch eigenvalue certification over sampled realizable moments",
    )
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--gamma", type=float, default=1.0)
    p.add_argument("--samples", type=int, default=1000)
    p.add_argument("--a-range", type=float, nargs=2, default=(-5.0, 5.0))
    p.add_argument("--b-range", type=float, nargs=2, default=(0.1, 10.0))
    _add_common(p)
    p.set_defaults(func=_cmd_verify_hyperbolicity)

    p = sub.add_parser(
        "verify-stability", help="structural stability certificates at random states"
    )
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--samples", type=int, default=100)
    p.add_argument("--rho-range", type=float, nargs=2, default=(0.1, 10.0))
    p.add_argument("--u-range", type=float, nargs=2, default=(-5.0, 5.0))
    p.add_argument("--theta-range", type=float, nargs=2, default=(0.1, 10.0))
    _add_common(p)
    p.set_defaults(func=_cmd_verify_stability)

    p = sub.add_parser("simulate", help="run a configured BGK problem")
    p.add_argument("config", help="path to a JSON config file")
    _add_common(p)
    p.set_defaults(func=_cmd_simulate)

    return parser


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code else EXIT_OK
    args._started = _time.time()
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except NotRealizableError as exc:
        print(f"not realizable: {exc}", file=sys.stderr)
        return EXIT_NOT_REALIZABLE
    except RealizabilityLossError as exc:
        print(f"realizability loss: {exc}", file=sys.stderr)
        return EXIT_REALIZABILITY_LOSS
    except (ValueError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
