"""Command-line front end: closures, spectra, certification and simulation.

Exit codes: 0 success, 1 usage/config error, 2 non-realizable input,
3 certification failure, 4 realizability loss during a run.  All commands
are deterministic for fixed flags and seed; random sampling uses numpy's
PCG64 generator and the seed is recorded in every report.
"""

from __future__ import annotations

import argparse
import functools
import json
import re
import sys
import time as _time
from json.encoder import encode_basestring_ascii
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
    MAX_HALF_ORDER,
    NotRealizableError,
    _realizability,
)
from .orthopoly import check_interlacing
from .solver import MAX_CELLS, ConfigError, RealizabilityLossError, _blocks, run
from .stability import EquilibriumState, certify

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_NOT_REALIZABLE = 2
EXIT_CERTIFICATION = 3
EXIT_REALIZABILITY_LOSS = 4

PRNG_NAME = "PCG64"


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
    try:
        vals = [float(tok) for tok in text.split(",") if tok.strip() != ""]
    except ValueError:
        raise ValueError(f"could not parse moment list {text!r}") from None
    if not vals:
        raise ValueError("empty moment list")
    return np.array(vals)


_FLOAT_SPELLING = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def _dump(obj):
    """``json.dumps(obj, indent=2, sort_keys=True)``, byte for byte.

    With ``indent`` set json always runs its pure-Python encoder, a chain
    of generators per nesting level; _encode joins strings instead.  What
    _encode refuses goes to json.dumps, which encodes it or raises as
    before: a value whose type is not exactly str, int, float, bool, None,
    list, tuple or dict (numpy scalars and subclasses included), a key
    that is not a str, and nesting too deep or cyclic.  _encode's memo is
    keyed by identity, for the fields verify-stability's entries share.
    """
    try:
        return _encode(obj, "\n", {})
    except (TypeError, ValueError, RecursionError):
        return json.dumps(obj, indent=2, sort_keys=True)


def _encode(obj, newline, memo):
    """JSON text of ``obj`` at the indentation that ``newline`` ends with.

    ``memo`` maps a container's identity and depth to its text, so a
    container that the report holds more than once at one depth, such as
    the D, residuals and conditions that verify-stability's certificates
    share, is encoded once.  _dump's argument holds every container until
    it returns, so an id names one object throughout.
    """
    cls = type(obj)
    if cls is float:
        text = float.__repr__(obj)
        return _FLOAT_SPELLING.get(text, text)
    if cls is str:
        return encode_basestring_ascii(obj)
    if obj is None:
        return "null"
    if obj is True:
        return "true"
    if obj is False:
        return "false"
    if cls is int:
        return int.__repr__(obj)
    if cls is not list and cls is not tuple and cls is not dict:
        raise TypeError(f"{cls.__name__} is not a plain JSON type")
    key = (id(obj), len(newline))
    if key in memo:
        return memo[key]
    inner = newline + "  "
    if cls is dict:
        parts = []
        for name, value in sorted(obj.items()):
            if type(name) is not str:
                raise TypeError(f"key {name!r} is not a str")
            parts.append(encode_basestring_ascii(name) + ": " + _encode(value, inner, memo))
        brackets = "{}"
    else:
        parts = [_encode(value, inner, memo) for value in obj]
        brackets = "[]"
    if parts:
        text = brackets[0] + inner + ("," + inner).join(parts) + newline + brackets[1]
    else:
        text = brackets
    memo[key] = text
    return text


def _print_json(args, payload):
    """Print the report under --format json and return its text, for
    _write_report to reuse; None under the other formats."""
    if args.format != "json":
        return None
    text = _dump(payload)
    print(text)
    return text


def _write_report(args, name, payload, text=None):
    """Write the report and a manifest under --output-dir; ``text`` is the
    report's JSON if it was already encoded for stdout."""
    if args.output_dir is None:
        return []
    out = Path(args.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    report_path = out / name
    report_path.write_text((_dump(payload) if text is None else text) + "\n")
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
    man_path = out / "manifest.json"
    man_path.write_text(_dump(manifest) + "\n")
    return [str(report_path), str(man_path)]


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
    text = _print_json(args, detail)
    if args.format == "csv":
        print(",".join(repr(float(x)) for x in list(m) + [closed]))
    elif text is None:
        print(f"M_{len(m)} = {closed!r}")
        print(f"a = {[float(x) for x in a]}")
        print(f"b = {[float(x) for x in b]}")
        print(f"pivots = {[float(x) for x in check.pivots]} (all above threshold)")
    _write_report(args, "close.json", detail, text)
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
    payload = sd.as_dict()
    payload["gamma"] = args.gamma
    payload["weights_positive"] = sd.weights_positive
    payload["near_degenerate"] = sd.near_degenerate
    if args.check_interlacing:
        payload["interlacing"] = check_interlacing(
            sd.eigenvalues[1::2], sd.eigenvalues[0::2]
        )
    text = _print_json(args, payload)
    if args.format == "csv":
        print("lambda,omega")
        for lam, om in zip(sd.eigenvalues, sd.weights):
            print(f"{float(lam)!r},{float(om)!r}")
    elif text is None:
        print(f"{'i':>3} {'lambda':>24} {'omega':>24}")
        for i, (lam, om) in enumerate(zip(sd.eigenvalues, sd.weights)):
            print(f"{i:>3} {float(lam)!r:>24} {float(om)!r:>24}")
        if args.check_interlacing:
            print(f"interlacing: {'OK' if payload['interlacing'] else 'FAILED'}")
    _write_report(args, "spectrum.json", payload, text)
    return EXIT_OK


def _enclosure_radii(a, b, gamma):
    """Per draw, the eigenvalue enclosure radius (m+1) eps ||T||_F of T_Q
    (order n) plus that of T_R (order n+1), with ||T||_F taken from the
    drawn rows a (J, n) and b (J, n+1); inf where ||T||_F^2 overflows."""
    n = a.shape[1]
    tq = np.sum(a**2, axis=1) + 2 * np.sum(b[:, 1:n], axis=1)
    tr = tq + _hyqmom_an(a, gamma) ** 2 + 2 * (2 * n + gamma) / n * b[:, n]
    return np.finfo(float).eps * ((n + 1) * np.sqrt(tq) + (n + 2) * np.sqrt(tr))


def _hyperbolicity_failures(gaps, enclosure, om, gamma, start):
    """Failure records of the draws whose merged spectra have the gaps
    np.diff(lam) (J, 2n), the enclosure radii ``_enclosure_radii`` and the
    weights om (J, 2n+1) at this gamma; draw i is sample start + i.

    A draw fails when its Q_n and R_{n+1} roots do not interlace strictly,
    when two adjacent eigenvalue enclosures overlap, or (for gamma > -n) on
    a weight that is not positive.  The spectra are those of the drawn
    rows themselves, the Jacobi matrices T_Q and T_R of the two factors,
    and each computed eigenvalue of a symmetric tridiagonal T of order m is
    enclosed with the radius (m+1) eps ||T||_F.  For the m >= 5 lanes
    that go to ``eigvalsh`` that is LAPACK's backward-error bound.  For the
    closed-form orders m <= 4, and for the m >= 5 lanes near the standard
    normal's factors that the warm path accepts, it is a measured bound,
    not a proof: checked against 60-digit eigenvalues in the tests (worst
    error 0.36 of the radius for the closed forms, close and near-degenerate
    pairs included, and 0.08 for the warm path up to its filter's edge).
    Interlaced eigenvalues alternate between the two, so
    disjoint adjacent enclosures prove 2n+1 distinct eigenvalues; a small
    gap alone fails nothing, as the theorem gives no lower bound on it.
    """
    n = gaps.shape[1] // 2
    not_interlaced = ~np.all(gaps > 0, axis=1)
    overlap = ~(np.min(gaps, axis=1) > enclosure)
    bad_weight = ~(np.min(om, axis=1) > 0) if gamma > -n else np.zeros_like(overlap)
    failures = []
    for i in np.flatnonzero(not_interlaced | overlap | bad_weight):
        reasons = []
        if not_interlaced[i]:
            reasons.append("interlacing")
        if overlap[i]:
            reasons.append(f"enclosures overlap (gap {float(np.min(gaps[i]))!r})")
        if bad_weight[i]:
            reasons.append("nonpositive weight")
        failures.append({"sample": start + int(i), "reasons": reasons})
    return failures


# sampling ranges of the verify commands, and whether their low end must be
# positive (couplings, densities and temperatures)
_SAMPLING_RANGES = {
    "a_range": False,
    "b_range": True,
    "rho_range": True,
    "u_range": False,
    "theta_range": True,
}


def _require_sampling(args):
    """Refuse an order outside 1..MAX_HALF_ORDER, a sample count outside
    1..solver.MAX_CELLS, or a sampling range that is not finite with
    low <= high (low > 0 where required).  Far larger counts would fail
    inside numpy's allocation of the draws, which names no flag."""
    if args.n < 1:
        raise ValueError("n must be >= 1")
    if args.n > MAX_HALF_ORDER:
        raise ValueError(f"n={args.n} exceeds the supported cap n={MAX_HALF_ORDER}")
    if args.samples < 1:
        raise ValueError(f"--samples must be >= 1, got {args.samples}")
    if args.samples > MAX_CELLS:
        raise ValueError(f"--samples must be <= {MAX_CELLS}, got {args.samples}")
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
    spectra of the drawn rows themselves (_hyperbolicity_failures), with no
    moments built from them.  The draws are made whole, so the PCG64
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
    _require_sampling(args)
    if not np.isfinite(gamma):
        raise ValueError("gamma must be finite")
    if gamma <= -2 * n:
        raise ValueError(f"gamma must exceed -2n = {-2 * n}")
    rng = np.random.default_rng(args.seed)
    a = rng.uniform(args.a_range[0], args.a_range[1], (args.samples, n))
    b = rng.uniform(args.b_range[0], args.b_range[1], (args.samples, n + 1))
    min_separation, near_degenerate, failures = np.inf, 0, []
    for blk in _blocks(args.samples, 2 * n + 1):
        # order-major rows, as the kernels read them
        a_blk, b_blk = np.asfortranarray(a[blk]), np.asfortranarray(b[blk])
        with np.errstate(over="ignore", invalid="ignore"):
            lam, om = _spectral_batch(a_blk, b_blk, gamma)
            enclosure = _enclosure_radii(a_blk, b_blk, gamma)
            gaps = np.diff(lam, axis=1)
            # 0/0 where every eigenvalue is 0: the couplings underflowed
            separation = np.min(gaps, axis=1) / np.max(np.abs(lam), axis=1)
        finite = np.isfinite(enclosure + separation) & np.all(np.isfinite(lam), axis=1)
        if not finite.all():
            raise ValueError(
                f"sample {blk.start + int(np.argmin(finite))} has a non-finite eigenvalue, "
                f"enclosure radius or separation: --a-range {args.a_range[0]!r} "
                f"{args.a_range[1]!r} --b-range {args.b_range[0]!r} {args.b_range[1]!r} "
                f"exceed double precision at n={n}"
            )
        min_separation = min(min_separation, float(separation.min()))
        near_degenerate += int(np.sum(separation <= tol))
        failures += _hyperbolicity_failures(gaps, enclosure, om, gamma, blk.start)
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
    text = _print_json(args, report)
    if text is None:
        print(
            f"n={n} gamma={gamma}: {args.samples} samples, "
            f"min separation {report['min_separation']!r}, "
            f"{report['near_degenerate']} near-degenerate (separation <= {tol!r}), "
            f"{len(failures)} failure(s)"
        )
    _write_report(args, "hyperbolicity_report.json", report, text)
    return EXIT_OK if not failures else EXIT_CERTIFICATION


def _cmd_verify_stability(args):
    n = args.n
    _require_sampling(args)
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
        text = _print_json(args, report)
        if text is None:
            print(report["note"])
        _write_report(args, "stability_report.json", report, text)
        return EXIT_OK
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
    text = _print_json(args, report)
    if text is None:
        print(
            f"n={n}: {args.samples} certificates, {failures} failure(s)"
        )
    _write_report(args, "stability_report.json", report, text)
    return EXIT_OK if not failures else EXIT_CERTIFICATION


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
    p.add_argument("--check-interlacing", action="store_true")
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
