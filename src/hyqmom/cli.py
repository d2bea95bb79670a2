"""Command-line front end: closures, spectra, certification and simulation.

Exit codes: 0 success, 1 usage/config error, 2 non-realizable input,
3 certification failure, 4 realizability loss during a run.  All commands
are deterministic for fixed flags and seed; random sampling uses numpy's
PCG64 generator and the seed is recorded in every report.

``spectrum`` and ``verify-hyperbolicity`` certify a spectrum by the one
rule of ``closures._spectral_verdicts``; this module only reports it.
"""

from __future__ import annotations

import argparse
import functools
import json
import re
import sys
import time as _time
from pathlib import Path

import numpy as np

from . import __version__
from .closures import (
    NEAR_DEGENERACY_RTOL,
    ClosureSpec,
    _refusal,
    _spectral_batch,
    _spectral_verdicts,
    close,
    spectral_decomposition,
)
from .moments import DEFAULT_REALIZABILITY_TOL, NotRealizableError, _realizability
from .solver import MAX_CELLS, ConfigError, RealizabilityLossError, _blocks, run
from .stability import EquilibriumState, certify

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_NOT_REALIZABLE = 2
EXIT_CERTIFICATION = 3
EXIT_REALIZABILITY_LOSS = 4

PRNG_NAME = "PCG64"

# verify-stability's --samples cap: each sampled state has a report entry of
# its own, 0.42 KB of text; with the report written, about 1.4 KB of memory
# per state at n = 2 (the entry, the text and the bytes written from it)
MAX_CERTIFICATES = 10**6


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # argparse takes only -<digits> and -<digits>.<digits> for negative
        # numbers and reads -1e1 or -inf as an option; exponent forms and
        # float()'s spellings of -inf and -nan, in any case, are values too
        self._negative_number_matcher = re.compile(
            r"^-((\d+\.?\d*|\.\d+)(e[-+]?\d+)?|inf|infinity|nan)$", re.IGNORECASE
        )

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


_PIVOT_TOL_HELP = f"realizability pivot threshold x M_0, at least {DEFAULT_REALIZABILITY_TOL:g}"


def _add_common(p, formats=(), seed=False, tol_help=None):
    """The options subcommands share, each given only to those that read it:
    the output formats besides text, --seed and --tol."""
    p.add_argument("--output-dir", default=None, help="directory for report/output files")
    if formats:
        p.add_argument("--format", choices=("text",) + formats, default="text")
    if seed:
        p.add_argument("--seed", type=int, default=0)
    if tol_help:
        p.add_argument("--tol", type=float, default=None, help=tol_help)


def _parse_moments(text):
    """M_0..M_N from comma-separated numbers, one trailing comma allowed.  A
    field that is not a number is refused with its position, an empty one
    too: dropped, it would shift every later moment down one order."""
    fields = text.split(",")
    if len(fields) > 1 and not fields[-1].strip():
        del fields[-1]  # the trailing comma
    values = []
    for i, field in enumerate(fields):
        try:
            values.append(float(field))
        except ValueError:
            raise ValueError(f"moment list {text!r}: M_{i} = {field!r} is not a number") from None
    return np.array(values)


def _report(args, name, payload, lines):
    """The end of a command: print the report's JSON under --format json,
    else ``lines``, and under --output-dir write the report and a manifest.
    Every JSON file the package writes is json.dumps(payload, sort_keys=True):
    one line, written by json's C encoder, which ``indent`` would turn off.
    The report is encoded at most once, before any file is written, and
    each file gets its text and then a newline, with no copy joining them."""
    text = json.dumps(payload, sort_keys=True) if args.format == "json" else None
    for line in lines if text is None else [text]:
        print(line)
    if args.output_dir is None:
        return
    if text is None:
        text = json.dumps(payload, sort_keys=True)
    out = Path(args.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    with open(out / name, "w") as f:
        print(text, file=f)
    manifest = {
        "command": args.command,
        "version": __version__,
        "arguments": {
            k: v
            for k, v in vars(args).items()
            if k not in ("func", "command", "_started")
        },
        "outputs": [name],
        "wall_clock_s": _time.time() - args._started,
    }
    with open(out / "manifest.json", "w") as f:
        print(json.dumps(manifest, sort_keys=True), file=f)


def _check_realizable(m, tol):
    """Realizability gate honoring the --tol override; returns the check
    and the recurrence rows (a, b).  The library gates again at its own
    floor, so a looser override is refused up front."""
    if tol is None:
        tol = DEFAULT_REALIZABILITY_TOL
    elif not (np.isfinite(tol) and tol >= DEFAULT_REALIZABILITY_TOL):
        raise ValueError(
            f"--tol must be a finite number at or above the realizability floor "
            f"{DEFAULT_REALIZABILITY_TOL!r}, got {tol!r}; close and spectrum can only tighten it"
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
    if args.format == "csv":
        lines = [",".join(repr(x) for x in detail["moments"] + [closed])]
    else:
        lines = [
            f"M_{len(m)} = {closed!r}",
            f"a = {detail['a']}",
            f"b = {detail['b']}",
            f"pivots = {detail['pivots']} (all above threshold)",
        ]
    _report(args, "close.json", detail, lines)
    return EXIT_OK


def _cmd_spectrum(args):
    m = _parse_moments(args.moments)
    _check_realizable(m, args.tol)
    try:
        sd = spectral_decomposition(m, ClosureSpec("hyqmom", gamma=args.gamma))
    except RuntimeError as exc:
        # a gated vector whose computed spectrum fails a verdict rule
        print(f"certification failed: {exc}", file=sys.stderr)
        return EXIT_CERTIFICATION
    if sd.near_degenerate:
        print(
            "warning: near-degenerate spectrum (two roots closer than "
            f"{NEAR_DEGENERACY_RTOL!r} x spectral radius)",
            file=sys.stderr,
        )
    payload = sd.as_dict()
    payload["gamma"] = args.gamma
    payload["weights_positive"] = sd.weights_positive
    payload["near_degenerate"] = sd.near_degenerate
    pairs = [(float(lam), float(om)) for lam, om in zip(sd.eigenvalues, sd.weights)]
    if args.format == "csv":
        lines = ["lambda,omega"] + [f"{lam!r},{om!r}" for lam, om in pairs]
    else:
        lines = [f"{'i':>3} {'lambda':>24} {'omega':>24}"]
        lines += [f"{i:>3} {lam!r:>24} {om!r:>24}" for i, (lam, om) in enumerate(pairs)]
    _report(args, "spectrum.json", payload, lines)
    return EXIT_OK


def _failure_records(failed, gap, start):
    """verify-hyperbolicity's failure records of the lanes that fail a rule
    of ``_spectral_verdicts`` (its masks ``failed`` and smallest gaps
    ``gap``); lane i is sample start + i."""
    records = []
    for i in np.flatnonzero(np.logical_or.reduce(list(failed.values()))):
        reasons = [f"{rule} (gap {float(gap[i])!r})" if rule == "enclosures overlap" else rule
                   for rule, mask in failed.items() if mask[i]]
        records.append({"sample": start + int(i), "reasons": reasons})
    return records


# sampling ranges of the verify commands, and whether their low end must be
# positive (couplings, densities and temperatures)
_SAMPLING_RANGES = {
    "a_range": False,
    "b_range": True,
    "rho_range": True,
    "u_range": False,
    "theta_range": True,
}


def _require_sampling(args, cap):
    """Refuse what closures._refusal refuses (verify-stability certifies
    gamma = 1), a sample count outside 1..cap, or a sampling range that is
    not finite with low <= high (low > 0 where required).  Far larger counts
    would fail inside numpy's allocation of the draws, which names no flag."""
    if reason := _refusal(args.n, getattr(args, "gamma", 1.0)):
        raise ValueError(reason)
    if args.samples < 1:
        raise ValueError(f"--samples must be >= 1, got {args.samples}")
    if args.samples > cap:
        raise ValueError(f"--samples must be <= {cap}, got {args.samples}")
    for name, positive in _SAMPLING_RANGES.items():
        if not hasattr(args, name):
            continue
        low, high = getattr(args, name)
        flag = "--" + name.replace("_", "-")
        if not (np.isfinite(low) and np.isfinite(high) and low <= high):
            raise ValueError(
                f"{flag} must be finite with low <= high, got {low!r} {high!r}"
            )
        if not np.isfinite(high - low):
            # numpy's sampler draws low + (high - low) u and refuses this
            raise ValueError(f"{flag} is wider than the largest double: {low!r} {high!r}")
        if positive and not low > 0:
            raise ValueError(f"{flag} must have a positive low end, got {low!r}")


def _cmd_verify_hyperbolicity(args):
    """Sample recurrence rows (a, b), close them at gamma and certify the
    spectra of the drawn rows themselves (closures._spectral_verdicts), with
    no moments built from them.  The draws are made whole, so the PCG64
    stream does not depend on blocking, and then run in the solver's
    blocks (solver._blocks over 2n+1 moments per draw): only the running
    minimum separation, the near-degenerate count and the failure records,
    with global sample indices, outlive a block.  A draw whose eigenvalues,
    enclosure radius or separation are not finite in doubles is refused,
    with no report written."""
    tol = 1e-7 if args.tol is None else args.tol
    if not (np.isfinite(tol) and tol >= 0):
        raise ValueError(f"--tol must be a finite number >= 0, got {tol!r}")
    n, gamma = args.n, args.gamma
    _require_sampling(args, MAX_CELLS)
    rng = np.random.default_rng(args.seed)
    a = rng.uniform(args.a_range[0], args.a_range[1], (args.samples, n))
    b = rng.uniform(args.b_range[0], args.b_range[1], (args.samples, n + 1))
    min_separation, near_degenerate, failures = np.inf, 0, []
    for blk in _blocks(args.samples, 2 * n + 1):
        # order-major rows, as the kernels read them
        a_blk, b_blk = np.asfortranarray(a[blk]), np.asfortranarray(b[blk])
        with np.errstate(over="ignore", invalid="ignore"):
            lam, om = _spectral_batch(a_blk, b_blk, gamma)
        # separation 0/0 where every eigenvalue is 0: the couplings underflowed
        failed, gap, separation, radius = _spectral_verdicts(a_blk, b_blk, gamma, lam, om)
        finite = np.isfinite(radius + separation) & np.all(np.isfinite(lam), axis=1)
        if not finite.all():
            raise ValueError(
                f"sample {blk.start + int(np.argmin(finite))} has a non-finite eigenvalue, "
                f"enclosure radius or separation: --a-range {args.a_range[0]!r} "
                f"{args.a_range[1]!r} --b-range {args.b_range[0]!r} {args.b_range[1]!r} "
                f"exceed double precision at n={n}"
            )
        min_separation = min(min_separation, float(separation.min()))
        near_degenerate += int(np.sum(separation <= tol))
        failures += _failure_records(failed, gap, blk.start)
    report = {
        "n": n,
        "gamma": gamma,
        "samples": args.samples,
        "seed": args.seed,
        "prng": PRNG_NAME,
        "a_range": list(args.a_range),
        "b_range": list(args.b_range),
        "separation_tol": tol,
        "min_separation": float(min_separation),
        "near_degenerate": near_degenerate,
        "failures": failures,
        "passed": not failures,
    }
    lines = [
        f"n={n} gamma={gamma}: {args.samples} samples, "
        f"min separation {report['min_separation']!r}, "
        f"{near_degenerate} near-degenerate (separation <= {tol!r}), "
        f"{len(failures)} failure(s)"
    ]
    _report(args, "hyperbolicity_report.json", report, lines)
    return EXIT_OK if not failures else EXIT_CERTIFICATION


def _cmd_verify_stability(args):
    n = args.n
    _require_sampling(args, MAX_CERTIFICATES)
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
        lines = [report["note"]]
    else:
        # one call draws what scalar draws of rho, U, theta, state after state, gave
        low, high = zip(args.rho_range, args.u_range, args.theta_range)
        draws = np.random.default_rng(args.seed).uniform(low, high, (args.samples, 3))
        # every draw is a valid state (_require_sampling) and the certificate
        # depends on n alone: all entries share its fields but the state
        shared = certify(EquilibriumState(*draws[0].tolist()), n).as_dict()
        certificates = [{**shared, "state": {"rho": rho, "U": U, "theta": theta}}
                        for rho, U, theta in draws.tolist()]
        failures = 0 if shared["passed"] else args.samples
        report = {
            "n": n,
            "samples": args.samples,
            "seed": args.seed,
            "prng": PRNG_NAME,
            "rho_range": list(args.rho_range),
            "u_range": list(args.u_range),
            "theta_range": list(args.theta_range),
            "certificates": certificates,
            "failures": failures,
            "passed": not failures,
        }
        lines = [f"n={n}: {args.samples} certificates, {failures} failure(s)"]
    _report(args, "stability_report.json", report, lines)
    return EXIT_OK if report["passed"] else EXIT_CERTIFICATION


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
    _add_common(p, ("json", "csv"), tol_help=_PIVOT_TOL_HELP)
    p.set_defaults(func=_cmd_close)

    p = sub.add_parser("spectrum", help="eigenvalues and weights of the closed system")
    p.add_argument("--moments", required=True)
    p.add_argument("--gamma", type=float, default=1.0)
    _add_common(p, ("json", "csv"), tol_help=_PIVOT_TOL_HELP)
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
    _add_common(p, ("json",), seed=True, tol_help="relative eigenvalue gap counted as "
                "near-degenerate (default 1e-7), a diagnostic that fails no draw")
    p.set_defaults(func=_cmd_verify_hyperbolicity)

    p = sub.add_parser(
        "verify-stability", help="structural stability certificates at random states"
    )
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--samples", type=int, default=100)
    p.add_argument("--rho-range", type=float, nargs=2, default=(0.1, 10.0))
    p.add_argument("--u-range", type=float, nargs=2, default=(-5.0, 5.0))
    p.add_argument("--theta-range", type=float, nargs=2, default=(0.1, 10.0))
    _add_common(p, ("json",), seed=True)
    p.set_defaults(func=_cmd_verify_stability)

    p = sub.add_parser("simulate", help="run a configured BGK problem")
    p.add_argument("config", help="path to a JSON config file")
    _add_common(p)
    p.set_defaults(func=_cmd_simulate)

    return parser


@functools.cache
def _parser():
    """The parser of main, built once per process: argparse keeps nothing
    between parse_args calls, and building one costs more than a parse."""
    return build_parser()


def main(argv=None):
    try:
        args = _parser().parse_args(argv)
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
