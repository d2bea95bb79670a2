"""Spans for the traced run, kept in memory and reduced to per-layer metrics.

Every function that one hyqmom module calls in another, and every internal
stage of the solver step, is wrapped where its caller binds it: for
example ``hyqmom.solver._jacobi_batch`` and ``hyqmom.closures._jacobi_batch``
are two wrappers feeding one span name.  A span records (name, start, end,
parent, caller module, cells); a span's self time is its duration minus the
time its direct children cover.  A binding that no longer exists is listed
in ``Tracer.missing`` and the metrics fed only by it are left out, never
reported as zero.
"""

from __future__ import annotations

import functools
import importlib
import time
from collections import defaultdict

# (module binding the name, attribute, span name).  A callable span name
# chooses the name from the enclosing span.
BINDINGS = [
    ("solver", "run", "solver.run"),
    ("solver", "step", "solver.step"),
    ("solver", "_reconstruct_batch", "solver.reconstruct"),
    ("solver", "_interface_fluxes", "solver.flux"),
    ("solver", "_flagged_cells", "solver.snapshot"),
    ("solver", "_snapshot_csv_lines", "solver.snapshot"),
    # the post-step call sits directly under step; the gate call sits
    # under reconstruct and the flag call under snapshot
    ("solver", "_realizable_pivots_batch",
     lambda parent: "solver.check" if parent == "solver.step" else "moments.pivots"),
    ("solver", "_spectral_batch", "closures.spectral"),
    ("solver", "_jacobi_batch", "orthopoly.jacobi"),
    ("solver", "gaussian_moments", "moments.gaussian"),
    ("solver", "_moments_from_recurrence_batch", "moments.from_recurrence"),
    ("closures", "_realizable_pivots_batch", "moments.pivots"),
    ("closures", "_wheeler_batch", "moments.wheeler"),
    ("closures", "_jacobi_batch", "orthopoly.jacobi"),
    ("closures", "_monic_pair_batch", "orthopoly.monic_pair"),
    ("moments", "_wheeler_batch", "moments.wheeler"),
    ("stability", "source_jacobian", "stability.source_jacobian"),
    ("stability", "tail_polynomials", "stability.tail_polynomials"),
    ("stability", "_equilibrium_spectrum", "stability.equilibrium_spectrum"),
    ("stability", "symmetrizer_weights", "stability.symmetrizer_weights"),
    ("stability", "coupling_residuals", "stability.coupling_residuals"),
    ("stability", "_hyqmom_factor_rows", "closures.factor_rows"),
    ("stability", "gaussian_moments", "moments.gaussian"),
    ("stability", "_jacobi_batch", "orthopoly.jacobi"),
    ("stability", "poly_eval", "orthopoly.poly"),
    ("stability", "poly_mul", "orthopoly.poly"),
    ("stability", "vandermonde_weights", "orthopoly.vandermonde"),
    ("cli", "main", "cli.main"),
    ("cli", "certify", "stability.certify"),
    ("cli", "_spectral_batch", "closures.spectral"),
    ("cli", "_moments_from_recurrence_batch", "moments.from_recurrence"),
]

# span names whose first argument's row count is the number of cells
CELL_SPANS = ("orthopoly.jacobi", "solver.flux")

MODULES = ("moments", "orthopoly", "closures", "solver", "stability", "cli")

# nearest enclosing span that says why a Wheeler sweep ran
WHEELER_PARENTS = {
    "solver.reconstruct": "gate",
    "closures.spectral": "spectral",
    "solver.check": "check",
    "solver.snapshot": "snapshot",
}


class Tracer:
    def __init__(self):
        # span: [name, start_ns, end_ns, parent_index, caller, cells]
        self.spans = []
        self._stack = []
        self.active = False
        self.missing = []
        self.present = set()  # span names with at least one live binding
        self._patched = []

    def install(self):
        for module, attr, name in BINDINGS:
            mod = importlib.import_module(f"hyqmom.{module}")
            names = _span_names(name)
            if not hasattr(mod, attr):
                self.missing.append(f"hyqmom.{module}.{attr}")
                continue
            self.present.update(names)
            original = getattr(mod, attr)
            self._patched.append((mod, attr, original))
            setattr(mod, attr, self._wrap(original, name, module))

    def uninstall(self):
        for mod, attr, original in reversed(self._patched):
            setattr(mod, attr, original)
        self._patched.clear()

    def _wrap(self, fn, name, caller):
        spans, stack = self.spans, self._stack
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            parent = stack[-1] if stack else -1
            span_name = name(spans[parent][0] if stack else None) if callable(name) else name
            cells = args[0].shape[0] if span_name in CELL_SPANS else 0
            idx = len(spans)
            spans.append([span_name, clock(), 0, parent, caller, cells])
            stack.append(idx)
            try:
                return fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[idx][2] = clock()

        return wrapper

    def reset(self):
        self.spans.clear()
        self._stack.clear()


def _span_names(name):
    if callable(name):
        return {name("solver.step"), name(None)}
    return {name}


def summarize(spans):
    """Per-name calls, self seconds and cells, plus per-caller and
    per-Wheeler-parent breakdowns, for one job's spans."""
    child = [0] * len(spans)
    for name, start, end, parent, _, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    by_name = defaultdict(lambda: {"calls": 0, "self_s": 0.0, "cells": 0})
    for i, (name, start, end, parent, caller, cells) in enumerate(spans):
        self_s = (end - start - child[i]) * 1e-9
        for key in (name, f"{name}.from_{caller}"):
            agg = by_name[key]
            agg["calls"] += 1
            agg["self_s"] += self_s
            agg["cells"] += cells
        by_name[name.split(".")[0]]["self_s"] += self_s
        if name == "moments.wheeler":
            by_name[f"moments.wheeler.{_wheeler_reason(spans, parent)}"]["calls"] += 1
    return dict(by_name)


def _wheeler_reason(spans, parent):
    while parent >= 0:
        reason = WHEELER_PARENTS.get(spans[parent][0])
        if reason:
            return reason
        parent = spans[parent][3]
    return "other"


def _calls(s, name):
    return s[name]["calls"] if name in s else 0


def _self(s, name):
    return s[name]["self_s"] if name in s else 0.0


def _per(value, base):
    """value / base, or 0 where the workload has no base (no steps, no
    certificates)."""
    return value / base if base else 0.0


def _ns_per_cell(s, name):
    return _per(_self(s, name) * 1e9, s[name]["cells"] if name in s else 0)


_STABILITY = (
    "certify",
    "source_jacobian",
    "tail_polynomials",
    "equilibrium_spectrum",
    "symmetrizer_weights",
    "coupling_residuals",
)

# (metric, unit, better, span names it needs, value from (summary, job))
LAYER_METRICS = [
    ("orthopoly.jacobi.calls", "count", "lower", ("orthopoly.jacobi",),
     lambda s, j: _calls(s, "orthopoly.jacobi")),
    ("orthopoly.jacobi.self_s", "s", "lower", ("orthopoly.jacobi",),
     lambda s, j: _self(s, "orthopoly.jacobi")),
    ("orthopoly.jacobi.ns_per_cell", "ns/cell", "lower", ("orthopoly.jacobi",),
     lambda s, j: _ns_per_cell(s, "orthopoly.jacobi")),
    ("orthopoly.jacobi.per_step", "count/step", "lower", ("orthopoly.jacobi",),
     lambda s, j: _per(_calls(s, "orthopoly.jacobi"), j["steps"])),
    *[
        (f"orthopoly.jacobi.from_{c}.self_s", "s", "lower", ("orthopoly.jacobi",),
         lambda s, j, c=c: _self(s, f"orthopoly.jacobi.from_{c}"))
        for c in ("solver", "closures", "stability")
    ],
    ("closures.spectral.calls", "count", "lower", ("closures.spectral",),
     lambda s, j: _calls(s, "closures.spectral")),
    ("closures.spectral.self_s", "s", "lower", ("closures.spectral",),
     lambda s, j: _self(s, "closures.spectral")),
    ("moments.wheeler.calls", "count", "lower", ("moments.wheeler",),
     lambda s, j: _calls(s, "moments.wheeler")),
    ("moments.wheeler.self_s", "s", "lower", ("moments.wheeler",),
     lambda s, j: _self(s, "moments.wheeler")),
    ("moments.wheeler.per_step", "count/step", "lower", ("moments.wheeler",),
     lambda s, j: _per(_calls(s, "moments.wheeler"), j["steps"])),
    *[
        (f"moments.wheeler.{why}.calls", "count", "lower", ("moments.wheeler", span),
         lambda s, j, why=why: _calls(s, f"moments.wheeler.{why}"))
        for span, why in WHEELER_PARENTS.items()
    ],
    ("moments.gaussian.self_s", "s", "lower", ("moments.gaussian",),
     lambda s, j: _self(s, "moments.gaussian")),
    ("solver.run.self_s", "s", "lower", ("solver.run",),
     lambda s, j: _self(s, "solver.run")),
    ("solver.reconstruct.self_s", "s", "lower", ("solver.reconstruct",),
     lambda s, j: _self(s, "solver.reconstruct")),
    ("solver.flux.self_s", "s", "lower", ("solver.flux",),
     lambda s, j: _self(s, "solver.flux")),
    ("solver.flux.ns_per_cell", "ns/cell", "lower", ("solver.flux",),
     lambda s, j: _ns_per_cell(s, "solver.flux")),
    # relax is the step's own time: dt, CFL factors, Maxwellian update
    ("solver.relax.self_s", "s", "lower", ("solver.step",),
     lambda s, j: _self(s, "solver.step")),
    ("solver.check.self_s", "s", "lower", ("solver.check",),
     lambda s, j: _self(s, "solver.check")),
    ("solver.snapshot.self_s", "s", "lower", ("solver.snapshot",),
     lambda s, j: _self(s, "solver.snapshot")),
    ("solver.step.calls", "count", "lower", ("solver.step",),
     lambda s, j: _calls(s, "solver.step")),
    ("solver.steps_accepted", "count", "lower", (),
     lambda s, j: j["steps"]),
    ("solver.step_accept_ratio", "ratio", "higher", ("solver.step",),
     lambda s, j: _per(j["steps"], _calls(s, "solver.step"))),
    *[
        (f"stability.{name}.{kind}", unit, "lower", (f"stability.{name}",),
         lambda s, j, name=name, get=get: get(s, f"stability.{name}"))
        for name in _STABILITY
        for kind, unit, get in (("calls", "count", _calls), ("self_s", "s", _self))
    ],
    *[
        (f"stability.{name}.per_cert", "count/cert", "lower", (f"stability.{name}",),
         lambda s, j, name=name: _per(_calls(s, f"stability.{name}"), j["certs"]))
        for name in ("equilibrium_spectrum", "tail_polynomials", "symmetrizer_weights")
    ],
    *[
        (f"{module}.self_s", "s", "lower", (),
         lambda s, j, module=module: _self(s, module))
        for module in MODULES
    ],
]

# measured outside the spans by the benchmark itself
RUN_METRICS = [
    ("setup.import_s", "s", "lower"),
    ("setup.inputs_s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
]

# counts that must repeat exactly from one job to the next
COUNT_METRICS = [m[0] for m in LAYER_METRICS if m[1].startswith("count")] + [
    "solver.step_accept_ratio"
]


def layer_metrics(summary, job, present):
    """Metric values for one traced job; metrics whose spans have no live
    binding are left out."""
    return {
        name: fn(summary, job)
        for name, _, _, needs, fn in LAYER_METRICS
        if all(span in present for span in needs)
    }


def units():
    return {m[0]: m[1] for m in LAYER_METRICS + RUN_METRICS}
