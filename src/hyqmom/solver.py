"""First-order finite-volume solver for the closed 1D BGK moment system.

Space is discretized in cells carrying a (2n+1)-moment vector each; the
upwind interface flux is the kinetic-based split power sum of a per-cell
delta reconstruction, with two node choices:

* ``gauss`` -- the n+1 Gauss nodes of the vector augmented by the hyqmom
  closure (zeros of Q_{n+1} of the augmented vector);
* ``eigen`` -- the 2n+1 system eigenvalues with their reconstruction
  weights (needs gamma > -n for positive weights).

The BGK relaxation is handled semi-implicitly: the update divides by
(1 + dt/tau) after adding dt/tau times the old-state Maxwellian moments.
Under the CFL condition dt * max|node| <= dx every convex factor in the
update is nonnegative, so each post-step cell stays strictly realizable;
the step asserts the factors and re-checks realizability, failing hard on
loss.  A grid computes its Wheeler realizability gate once and keeps it,
so the post-step check of one step is the gate of the next.  Flux
accumulation uses numpy reductions in a fixed order, so runs are
reproducible for identical configs.

Per-cell data is stored order-major: ``GridState.cells`` is a (J, 2n+1)
Fortran-ordered array, the transposed view of a contiguous (2n+1, J)
buffer, so ``cells[:, k]`` is one contiguous row per moment order.

A step runs over contiguous blocks of cells (``_blocks``), each holding
about ``BLOCK_VALUES`` moment values, so that one block's rows and the
temporaries built from them stay in cache.  The first pass gates,
reconstructs, reduces the block's CFL speeds s = max|node| to the smallest
dx / s and the largest s / dx, and writes each cell's split power sums, the
two halves of its interface fluxes, into block-local rows: one running
power per order, whose weighted terms the node signs mask into the two
halves.  Those masked sums skip only zero terms of the clipped powers
max(x, 0)^(k+1) and min(x, 0)^(k+1), so their bits are the clipped sums'
(``_interface_fluxes``).  Each block reconstructs one ghost cell beyond
either end, a neighbour's rows or, at the grid's ends, rows taken by the
boundary rule, so its faces and flux differences come from its own rows:
nothing carries over from one block to the next, and no table spans the
grid's interfaces.  The differences go straight into the (2n+1, J)
buffer of the new cells.  Near equilibrium the
reconstruction's eigensolves of order >= 5 start, as every such eigensolve
does, from the standard state's spectra (``_jacobi_batch``): by the
closure's affine invariance a local Maxwellian at gamma = 1 has its
eigenvalues at U + sqrt(theta) xi, with xi those of the standard normal.  Most lanes there stand as their
first-order guess, which Kato-Temple certifies, and the others take
Newton steps that stop per lane; the eigen variant solves Q_n and R_{n+1}
in one nested pass.  Each lane is filtered and solved on
its own, except that each factor's first-order guess is one BLAS product
over the lanes it admits, whose last bits can depend on how many there
are: where the blocks end can move an accepted eigenvalue's last bits
(``orthopoly._newton_from_standard``).  The global dt and its CFL
check follow from those two numbers per block.  The second pass scales the
differences, adds the old cells, relaxes, and gates the new cells,
writing the gate rows in place: ``_realizable_pivots_batch`` and
``_wheeler_batch`` take them as ``out=``.  The new grid takes the buffer
read-only without a copy, and the gate as its memo.  Within a block every per-order update is a contiguous
row operation, and every cell sees the same operations in the same order
as in one block over the whole grid, so the results are bitwise those of
an unblocked step, but for that guess.  Inputs in C order give the same values, only through
strided rows.
"""

from __future__ import annotations

import json
import math
import time as _time
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from . import __version__ as _version
from .closures import (
    ClosureSpec,
    _extended_jacobi_rows,
    _recurrence_rows,
    _spectral_batch,
)
from .moments import (
    MAX_HALF_ORDER,
    _maxwellian_recurrence,
    _moments_from_recurrence_batch,
    _primitive_rows,
    _realizable_pivots_batch,
    gaussian_moments,
)
from .orthopoly import Quadrature, _jacobi_batch

FLUX_VARIANTS = ("gauss", "eigen")
BOUNDARIES = ("periodic", "zero-gradient")

# A cell whose smallest b_k (k >= 1) drops below this fraction of its
# temperature is flagged as near the realizability boundary; the run
# continues without regularization.
NEAR_BOUNDARY_FRACTION = 1e-10

# Moment values per block of the step: 8192 cells at n = 2.  The fastest of
# a block-length sweep of the whole step at J = 1e5 (ROADMAP, "Where the
# time goes").
BLOCK_VALUES = 40960

# Most cells a config may ask for, and most --samples a verify command
# draws, 100 times the benchmark's largest grid: one moment row is then
# 80 MB.  Far larger counts fail inside numpy's allocations, which name no
# config field or flag.
MAX_CELLS = 10**7

# Cells per chunk of a snapshot CSV, whose columns are formatted a chunk at
# a time: a float's repr takes about three times the float's memory.  At
# n = 6, J = 400 the traced peak is 275 KB with 64 cells, 611 KB with one
# chunk and 396 KB formatting row by row, at one chunk's speed.
CSV_ROWS = 64


class RealizabilityLossError(RuntimeError):
    """A cell left the strictly realizable cone during a run."""

    def __init__(self, message, cell=None, time=None):
        super().__init__(message)
        self.cell = cell
        self.time = time


class ConfigError(ValueError):
    def __init__(self, field_name, message):
        super().__init__(f"config field {field_name!r}: {message}")
        self.field = field_name


class _Owned:
    """An order-major (L, J) float buffer that a GridState takes as its
    cells without a copy, made read-only.  Only for buffers that nothing
    else holds: the new cells of a step and of the initial build."""

    __slots__ = ("rows",)

    def __init__(self, rows):
        self.rows = rows


@dataclass
class GridState:
    """Per-cell moment vectors with geometry and relaxation time."""

    cells: np.ndarray
    dx: np.ndarray
    tau: float
    time: float = 0.0
    boundary: str = "periodic"

    def __setattr__(self, name, value):
        # read-only, order-major cells keep the memoized gate valid: a copy
        # of what a caller hands in, an _Owned buffer as it is; cells[:, k]
        # is a contiguous length-J row
        if name == "cells":
            if isinstance(value, _Owned):
                value = value.rows.T
            else:
                value = np.array(np.atleast_2d(value), dtype=float, order="F")
            value.flags.writeable = False
            super().__setattr__("_gate_memo", None)
        super().__setattr__(name, value)

    def __post_init__(self):
        self.dx = np.asarray(self.dx, dtype=float)
        if self.dx.ndim == 0:
            self.dx = np.full(self.cells.shape[0], float(self.dx))
        if len(self.dx) != self.cells.shape[0]:
            raise ValueError("need one cell width per cell")
        # two reductions and no grid-sized temporary; a NaN fails both
        if self.dx.size and not (self.dx.min() > 0 and self.dx.max() < np.inf):
            raise ValueError("cell widths must be finite and positive")
        # tau = inf is pure transport; NaN compares false here
        if not self.tau > 0:
            raise ValueError("tau must be positive (or inf)")
        if self.boundary not in BOUNDARIES:
            raise ValueError(f"boundary must be one of {BOUNDARIES}")
        if self.cells.shape[1] % 2 == 0:
            raise ValueError("cells must carry odd-length moment vectors")

    @property
    def n(self):
        return self.cells.shape[1] // 2

    @property
    def num_cells(self):
        return self.cells.shape[0]

    def _gate(self):
        """(ok, a, b) of _realizable_pivots_batch on the cells, swept one
        block at a time and memoized."""
        if self._gate_memo is None:
            gate = _empty_gate(*self.cells.shape)
            for blk in _blocks(*self.cells.shape):
                _gate_block(self.cells[blk], gate, blk)
            self._gate_memo = gate
        return self._gate_memo


def _blocks(J, L):
    """Slices cutting J cells of L moments into ceil(J / size) contiguous
    blocks of nearly equal length, size = BLOCK_VALUES // L cells; J <= size
    gives one block.  Equal lengths keep a short remainder out, which would
    pay every kernel's per-call overhead for a few cells.  The rows may be
    cells of a grid (the step) or sampled draws (verify-hyperbolicity)."""
    count = -(-J // max(BLOCK_VALUES // L, 1))
    bounds = [J * i // count for i in range(count + 1)]
    return [slice(lo, hi) for lo, hi in zip(bounds, bounds[1:])]


def _empty_gate(J, L):
    """Gate arrays (ok, a, b) for J cells of L moments, laid out as
    _realizable_pivots_batch returns them: a (J, n) and b (J, n+1) are
    transposed views of order-major buffers."""
    n = L // 2
    return np.empty(J, dtype=bool), np.empty((n, J)).T, np.empty((n + 1, J)).T


def _gate_block(cells, gate, blk):
    """_realizable_pivots_batch on one block of cells, written in place into
    the rows blk of the gate arrays."""
    ok, a, b = gate
    _realizable_pivots_batch(cells, out=(ok[blk], a[blk].T, b[blk].T))


@dataclass
class Snapshot:
    time: float
    cells: np.ndarray
    flagged_cells: list


@dataclass
class RunResult:
    snapshots: list
    manifest: dict
    grid: GridState
    files: list = field(default_factory=list)


def _check_flux(spec, variant, n):
    if spec.variant != "hyqmom":
        raise ValueError("the kinetic solver closes with the hyqmom closure")
    if variant not in FLUX_VARIANTS:
        raise ValueError(f"flux variant must be one of {FLUX_VARIANTS}")
    if variant == "eigen" and spec.gamma <= -n:
        raise ValueError("eigen-node fluxes need gamma > -n for positive weights")


def reconstruct_nodes(m, spec, variant):
    """Delta reconstruction of one cell as a Quadrature: the J = 1 view of
    _reconstruct_batch on the cell's gated recurrence rows.

    ``gauss``: the n+1-point Gauss rule of the vector augmented by the
    hyqmom closure.  ``eigen``: system eigenvalues and weights.  Either way
    the rule reproduces M_0..M_2n.
    """
    m = np.asarray(m, dtype=float)
    _check_flux(spec, variant, len(m) // 2)
    nodes, weights = _reconstruct_batch(*_recurrence_rows(m, spec), spec.gamma, variant)
    return Quadrature(nodes=nodes[0], weights=weights[0])


def _reconstruct_batch(a, b, gamma, variant):
    """Nodes/weights for every cell at once from the gate's recurrence
    rows a (J, n) and b (J, n+1).

    The gauss variant never materializes the closed moment: the augmented
    vector's Q_{n+1} is the Jacobi matrix of (a_0..a_{n-1}, a_n; b_1..b_n)
    with the closure's a_n appended, so one stacked symmetric-tridiagonal
    eigensolve yields nodes and Gauss (Christoffel) weights directly.  The eigen
    variant hands (a, b) to the spectral kernel.
    """
    if variant == "gauss":
        diag, off = _extended_jacobi_rows(a, b, gamma, 1.0)
        return _jacobi_batch(diag.T, off.T, b[:, :1])
    return _spectral_batch(a, b, gamma)


def _interface_fluxes(nodes, weights, right, left):
    """Split power sums of a block of cells, the two halves of its
    interface fluxes.

    ``right`` and ``left`` are (K, B) for B cells and K moment orders.  Row
    k of ``right`` gets sum w x^(k+1) over each cell's positive nodes, which
    the cell sends through its right interface, and row k of ``left`` the
    same sum over its nonpositive nodes, sent through its left interface;
    the flux of an interface is the right half of the cell before it plus
    the left half of the cell after it.  One running power x^(k+1) is kept
    order-major and updated in place; per order its weighted terms go
    through one buffer, and the two halves are its sums masked by the
    node's sign, node after node, straight into their rows.

    These are bitwise the sums of w max(x, 0)^(k+1) and w min(x, 0)^(k+1)
    over all nodes: each clipped power is x's own chain of products where
    the sign matches and a zero elsewhere, and a masked sum skips exactly
    those zero terms, in the same node order.  Both sums start from +0.0,
    and a sum that starts there is never -0.0 (x + y is -0.0 only if both
    are), so the zero terms the masks skip would change no partial sum, not
    even a zero one's sign.  A NaN node, which is not positive, lands in the
    left half only.  numpy's masked sums test the mask element by element:
    they are fast where neighbouring cells share their node signs, as in a
    smooth solution, and slower than the clipped sums where the signs are
    random from cell to cell.
    """
    X, W = nodes.T, weights.T
    powers = X.copy()
    positive = powers > 0.0
    nonpositive = ~positive
    weighted = np.empty(X.shape)
    for k in range(right.shape[0]):
        if k:
            powers *= X
        np.multiply(W, powers, out=weighted)
        np.add.reduce(weighted, axis=0, where=positive, out=right[k])
        np.add.reduce(weighted, axis=0, where=nonpositive, out=left[k])


def _flux_differences(grid, a, b, gamma, variant, blocks):
    """First pass of a step: per block the reconstruction, the CFL speed
    s = max|node| of each cell and its split power sums, ending in flux
    differences.  Returns the smallest dx / s over the cells with s > 0
    (inf if none), the largest s / dx, and an (L, J) buffer whose column j
    is flux_j - flux_(j+1), where the flux of face i is the right half of
    cell i-1 plus the left half of cell i.

    Each block reconstructs its B cells plus one neighbour on either side,
    so its B+1 faces and B differences come from its own rows.  Interior
    blocks slice the gate's rows; the two end blocks take them with the
    boundary rule as the take mode, ``wrap`` for periodic ends and ``clip``
    for zero-gradient ones, order-major like the gate's."""
    J, L = grid.cells.shape
    mode = "wrap" if grid.boundary == "periodic" else "clip"
    diff = np.empty((L, J))
    # each block's two reductions, and the row of its quotients
    low, high = np.empty((2, len(blocks)))
    scratch = np.empty(max(blk.stop - blk.start for blk in blocks))
    for i, blk in enumerate(blocks):
        lo, hi = blk.start - 1, blk.stop + 1
        if 0 <= lo and hi <= J:
            rows = a[lo:hi], b[lo:hi]
        else:
            rows = [np.take(x.T, np.arange(lo, hi), axis=1, mode=mode).T for x in (a, b)]
        nodes, weights = _reconstruct_batch(*rows, gamma, variant)
        dx, part = grid.dx[blk], scratch[: blk.stop - blk.start]
        speeds = np.max(np.abs(nodes.T[:, 1:-1]), axis=0)
        part.fill(np.inf)
        low[i] = np.divide(dx, speeds, out=part, where=speeds > 0).min()
        high[i] = np.divide(speeds, dx, out=part).max()
        del speeds  # before the next block's temporaries
        right, left = np.empty((2, L, hi - lo))
        _interface_fluxes(nodes, weights, right, left)
        # column i of faces is face blk.start + i, the left face of cell i
        faces = np.add(right[:, :-1], left[:, 1:], out=left[:, 1:])
        np.subtract(faces[:, :-1], faces[:, 1:], out=diff[:, blk])
    return float(low.min()), float(high.max()), diff


def _time_step(low, high, cfl, dt, dt_max):
    """dt from the CFL bound cfl * low, low the smallest dx / s of the
    first pass, or the explicit dt, capped by dt_max, after checking that
    every convex-update factor stays nonnegative."""
    dt_cfl = cfl * low
    if not np.isfinite(dt_cfl):
        dt_cfl = dt_max if dt_max is not None else 1.0
    step_dt = float(dt_cfl) if dt is None else float(dt)
    if dt_max is not None:
        step_dt = min(step_dt, dt_max)
    if step_dt <= 0:
        raise ValueError("time step must be positive")

    # the smallest convex-update factor 1 - dt |x| / dx is at the largest s / dx
    factor = 1.0 - step_dt * high
    if factor < -1e-12:
        raise RuntimeError(
            "CFL violated: a convex-update factor went negative "
            f"(min {float(factor)!r}); realizability is no longer guaranteed"
        )
    return step_dt


def _advance(grid, a, b, gamma, variant, cfl, dt, dt_max):
    """The grid one step on, from the gate's (a, b), in two passes over the
    blocks of cells around the global dt.  The second pass updates the flux
    differences in place into the new cells and gates them block by block,
    writing the gate rows in place; the new grid takes that buffer without
    a copy, and the gate as its memo."""
    J, L = grid.cells.shape
    blocks = _blocks(J, L)
    low, high, new = _flux_differences(grid, a, b, gamma, variant, blocks)
    step_dt = _time_step(low, high, cfl, dt, dt_max)

    gate = _empty_gate(J, L)
    r = step_dt / grid.tau
    # the rows of _primitive_rows, which every block reuses
    scratch = np.empty((3, max(blk.stop - blk.start for blk in blocks)))
    for blk in blocks:
        rows = scratch[:, : blk.stop - blk.start]
        cells = new[:, blk]
        cells *= np.divide(step_dt, grid.dx[blk], out=rows[2])
        cells += grid.cells[blk].T

        rho, U, theta = _primitive_rows(grid.cells[blk], out=rows)
        maxwellian = gaussian_moments(L - 1, U, theta).T
        maxwellian *= rho
        maxwellian *= r
        cells += maxwellian
        cells /= 1.0 + r
        _gate_block(cells.T, gate, blk)
    stepped = replace(grid, cells=_Owned(new), time=float(grid.time) + step_dt)
    stepped._gate_memo = gate
    return stepped


def _require_realizable(grid, what):
    ok, a, b = grid._gate()
    if not np.all(ok):
        bad = int(np.flatnonzero(~ok)[0])
        raise RealizabilityLossError(
            f"cell {bad} {what} at t={grid.time!r}", cell=bad, time=grid.time
        )
    return a, b


def step(grid, spec, variant, cfl=0.9, dt=None, dt_max=None):
    """Advance the grid by one upwind step with semi-implicit relaxation.

    dt defaults to cfl * min(dx / max|node|), capped by dt_max; an explicit
    dt must still respect the per-cell CFL bound (asserted through the
    convex-update factors).  The step gates on the input grid's memoized
    realizability check; the output grid's check runs block by block inside
    the update and stays memoized as the next step's gate.
    """
    _check_flux(spec, variant, grid.n)
    if not 0 < cfl <= 1:
        raise ValueError("cfl must lie in (0, 1]")
    if dt is not None and not (np.isfinite(dt) and dt > 0):
        raise ValueError(f"dt must be finite and positive, got {dt!r}")
    if dt_max is not None and np.isnan(dt_max):
        raise ValueError("dt_max must be a number, got nan")
    a, b = _require_realizable(grid, "is not strictly realizable")
    new = _advance(grid, a, b, spec.gamma, variant, cfl, dt, dt_max)
    _require_realizable(new, "lost strict realizability")
    return new


def total_moments(grid):
    """Domain integrals sum_j dx_j * M_{k,j}; conserved for k <= 2 under
    periodic boundaries."""
    return grid.dx @ grid.cells


def _flagged_cells(grid):
    """The cells whose smallest b_k (k >= 1) lies below
    NEAR_BOUNDARY_FRACTION of their temperature, and the (U, theta) rows of
    the grid, which the snapshot CSV reuses."""
    _, _, b = grid._gate()
    _, U, theta = _primitive_rows(grid.cells)
    near = np.min(b.T[1:], axis=0) < NEAR_BOUNDARY_FRACTION * theta
    return [int(i) for i in np.flatnonzero(near)], U, theta


# ---------------------------------------------------------------------------
# Config-driven runs


def _number(field, value, ok, what, kind=float, optional=False):
    """kind(value), or a ConfigError naming field if value is None (missing
    or null; None is returned if optional), not a number, a bool (JSON true
    and false load as ints), an integer beyond the largest double, or fails
    ok, whose comparisons NaN fails.  kind=int takes integers only."""
    if value is None:
        if optional:
            return None
        raise ConfigError(field, "missing")
    if not isinstance(value, (int, kind)) or isinstance(value, bool):
        raise ConfigError(field, f"expected {what}, got {value!r}")
    try:
        float(value)
    except OverflowError:
        raise ConfigError(field, "integer exceeds the largest double") from None
    if not ok(value):
        raise ConfigError(field, f"expected {what}, got {value!r}")
    return kind(value)


def _choice(field, value, options):
    """value if it is one of the strings options, else a ConfigError."""
    if not (isinstance(value, str) and value in options):
        why = "missing" if value is None else f"expected one of {options}, got {value!r}"
        raise ConfigError(field, why)
    return value


def validate_config(cfg):
    """Normalize and validate a simulation config, raising ConfigError with
    the offending field on any problem: every number goes through _number,
    flux_variant and boundary through _choice, a key it does not read is
    refused, and so is a segment whose moment row overflows or fails the
    realizability gate."""
    if not isinstance(cfg, dict):
        raise ConfigError("<root>", "config must be a JSON object")
    get, cap = cfg.get, MAX_HALF_ORDER
    n = _number("n", get("n"), lambda v: 1 <= v <= cap, f"an integer in 1..{cap}", int)
    out = {"n": n}
    out["gamma"] = _number("gamma", get("gamma"), lambda v: -2 * n < v < np.inf, "finite, > -2n")
    out["flux_variant"] = _choice("flux_variant", get("flux_variant"), FLUX_VARIANTS)
    if out["flux_variant"] == "eigen" and out["gamma"] <= -n:
        raise ConfigError("flux_variant", "eigen nodes need gamma > -n")
    out["cfl"] = _number("cfl", get("cfl"), lambda v: 0 < v <= 1, "a number in (0, 1]")
    tau = get("tau")
    if isinstance(tau, str) and tau.lower() in ("inf", "infinity"):
        tau = np.inf
    out["tau"] = _number("tau", tau, lambda v: v > 0, "a positive number (or 'inf')")
    dom = get("domain")
    if not (isinstance(dom, list) and len(dom) == 2):
        raise ConfigError("domain", f"expected [x0, x1], got {dom!r}")
    x0 = _number("domain", dom[0], lambda v: -np.inf <= v <= np.inf, "a number")
    x1 = _number("domain", dom[1], lambda v: v > x0, f"a number > x0 = {x0!r}")
    out["domain"] = [x0, x1]
    J = out["cells"] = _number("cells", get("cells"), lambda v: 2 <= v <= MAX_CELLS,
                               f"an integer in 2..{MAX_CELLS}", int)
    with np.errstate(invalid="ignore"):  # an infinite domain or width makes inf - inf
        centers, dx = _cell_centers(x0, x1, J)
        ascending = x0 < centers[0] and centers[-1] <= x1 and np.all(centers[1:] > centers[:-1])
    if not ascending:
        # a centre rounded onto x0 or onto its neighbour would own no cell
        raise ConfigError("domain", f"the centres of {J} cells of width {dx!r} are not strictly "
                          f"increasing inside ({x0!r}, {x1!r}] in double precision")
    # an infinite t_final would run forever
    out["t_final"] = _number("t_final", get("t_final"), lambda v: 0 <= v < np.inf, "finite, >= 0")
    out["snapshot_every"] = _number("snapshot_every", get("snapshot_every"), lambda v: v > 0,
                                    "a positive number or omitted", optional=True)
    out["boundary"] = _choice("boundary", get("boundary"), BOUNDARIES)
    out["dt_max"] = _number("dt_max", get("dt_max"), lambda v: v > 0,
                            "a positive number or omitted", optional=True)

    segments = get("initial")
    if not (isinstance(segments, list) and segments):
        raise ConfigError("initial", f"expected a nonempty list of segments, got {segments!r}")
    out["initial"] = []
    for i, seg in enumerate(segments):
        if not isinstance(seg, dict):
            raise ConfigError(f"initial[{i}]", "segment must be an object")
        at = f"initial[{i}]."
        ns = {key: _number(at + key, seg.get(key), ok, what) for key, ok, what in (
            ("rho", lambda v: 0 < v < np.inf, "a positive finite number"),
            ("theta", lambda v: 0 < v < np.inf, "a positive finite number"),
            ("U", math.isfinite, "a finite number"),
        )}
        for key, most in (("da", n), ("db", n + 1)):
            arr = seg.get(key, [])
            if not (isinstance(arr, list) and len(arr) <= most):
                raise ConfigError(at + key, f"expected a list of <= {most} finite numbers")
            ns[key] = [_number(at + key, x, math.isfinite, "finite entries") for x in arr]
        ns["x_until"] = x1 if i == len(segments) - 1 else _number(
            at + "x_until", seg.get("x_until"), lambda v: x0 < v <= x1, f"a number in ({x0}, {x1}]"
        )
        out["initial"].append(ns)
    bounds = [ns["x_until"] for ns in out["initial"]]
    if any(lo > hi for lo, hi in zip(bounds, bounds[1:])):
        raise ConfigError("initial", "segment x_until values must be nondecreasing")

    # the refusals below come last, so that on a config with more than one
    # fault the checks above name the field they always named
    _number(f"initial[{len(segments) - 1}].x_until", segments[-1].get("x_until"),
            lambda v: v == x1, f"x1 = {x1!r} on the last segment, or omitted", optional=True)
    unknown = [key for key in cfg if key not in out]
    # each segment's moment row, built and gated once for all segments; k
    # theta and the moments may round to inf, which the checks refuse
    with np.errstate(over="ignore", invalid="ignore"):
        a, b = (np.concatenate(parts) for parts in
                zip(*(_segment_coefficients(ns, n) for ns in out["initial"])))
        rows = _moments_from_recurrence_batch(a, b, 2 * n + 1)
        ok = _realizable_pivots_batch(rows)[0]
    for i, (seg, ns) in enumerate(zip(segments, out["initial"])):
        for k, b_k in enumerate(b[i].tolist()):
            if not b_k > 0:
                raise ConfigError(f"initial[{i}].db", f"perturbed b_{k} = {b_k!r} is not positive")
        unknown += [f"initial[{i}].{key}" for key in seg if key not in ns]
    if unknown:
        raise ConfigError(unknown[0], "unknown field")
    for i, row in enumerate(rows.tolist()):
        for k, m_k in enumerate(row):
            if not math.isfinite(m_k):
                raise ConfigError(f"initial[{i}]", f"M_{k} = {m_k!r} exceeds double precision")
        if not ok[i]:
            raise ConfigError(f"initial[{i}]", "the moment row fails the realizability gate")
    return out


def _segment_coefficients(seg, n):
    """Recurrence rows (1, n) and (1, n+1) of one initial segment: the
    Maxwellian rows plus the optional additive perturbations, whose b
    validate_config has checked to be positive."""
    a, b = _maxwellian_recurrence(seg["rho"], seg["U"], seg["theta"], n)
    a[0, : len(seg["da"])] += seg["da"]
    b[0, : len(seg["db"])] += seg["db"]
    return a, b


def _cell_centers(x0, x1, J):
    """Centres x0 + (j + 1/2) dx and width dx of J equal cells on [x0, x1],
    computed in place in one array."""
    dx = (x1 - x0) / J
    centers = np.arange(J, dtype=float)
    centers += 0.5
    centers *= dx
    centers += x0
    return centers, dx


def build_initial_grid(cfg):
    """Grid at t = 0 from a validated config."""
    n = cfg["n"]
    J = cfg["cells"]
    x0, x1 = cfg["domain"]
    centers, dx = _cell_centers(x0, x1, J)
    rows = np.empty((2 * n + 1, J))
    lower = x0
    for seg in cfg["initial"]:
        # the cells with lower < centre <= x_until, one slice of the
        # ascending centres
        start = np.searchsorted(centers, lower, side="right")
        stop = np.searchsorted(centers, seg["x_until"], side="right")
        if start < stop:
            a, b = _segment_coefficients(seg, n)
            row = _moments_from_recurrence_batch(a, b, 2 * n + 1)[0]
            rows[:, start:stop] = row[:, None]
        lower = seg["x_until"]
    return GridState(
        cells=_Owned(rows),
        dx=np.full(J, dx),
        tau=cfg["tau"],
        time=0.0,
        boundary=cfg["boundary"],
    )


def _snapshot_csv_head(cfg, grid):
    """Header line and x column of a run's snapshot CSVs, which the run's
    grids share: the centres by which build_initial_grid assigns the cells."""
    moments = [f"M_{k}" for k in range(2 * grid.n + 1)]
    header = ",".join(["x", *moments, "rho", "U", "theta", "realizable_flag"])
    centers, _ = _cell_centers(*cfg["domain"], cfg["cells"])
    return header, list(map(repr, centers.tolist()))


def _snapshot_csv_lines(grid, U, theta, header, x_text):
    """Lines of the snapshot CSV of ``grid``, whose velocity and temperature
    rows are U and theta, formatted column by column over CSV_ROWS cells at
    a time."""
    ok, _, _ = grid._gate()
    rows = [*grid.cells.T, U, theta]
    flags = ["1" if flag else "0" for flag in ok.tolist()]
    lines = [header]
    for start in range(0, len(flags), CSV_ROWS):
        cut = slice(start, start + CSV_ROWS)
        *moments, U_text, theta_text = (list(map(repr, row[cut].tolist())) for row in rows)
        rho_text = moments[0]  # rho is M_0 itself
        columns = (x_text[cut], *moments, rho_text, U_text, theta_text, flags[cut])
        lines += map(",".join, zip(*columns))
    return lines


def run(config, output_dir=None):
    """Advance a configured problem to t_final, emitting snapshots.

    ``config`` may be a dict or a path to a JSON file.  Snapshots are taken
    at t = 0, at each k * ``snapshot_every`` the run reaches, and at
    t_final, and carry those exact times rather than sums of step sizes.
    With ``output_dir`` set, each snapshot is written as CSV when it is
    taken, and a JSON run manifest is written at the end.
    """
    started = _time.time()
    if isinstance(config, (str, Path)):
        config = json.loads(Path(config).read_text())
    cfg = validate_config(config)
    spec = ClosureSpec("hyqmom", gamma=cfg["gamma"])
    grid = build_initial_grid(cfg)
    out = None if output_dir is None else Path(output_dir)
    if out is not None:
        out.mkdir(parents=True, exist_ok=True)
        head = _snapshot_csv_head(cfg, grid)
    snapshots, files = [], []

    def take_snapshot(grid):
        # written from the live grid, whose memoized gate gives the flags;
        # the flags and the CSV share one set of primitive rows
        flagged, U, theta = _flagged_cells(grid)
        snapshots.append(Snapshot(grid.time, grid.cells, flagged))
        if out is not None:
            path = out / f"snapshot_{len(files):04d}.csv"
            path.write_text("\n".join(_snapshot_csv_lines(grid, U, theta, *head)) + "\n")
            files.append(str(path))

    take_snapshot(grid)
    steps, k_snap = 0, 1
    t_final, interval = cfg["t_final"], cfg["snapshot_every"]
    next_snap = interval if interval is not None else np.inf
    while grid.time < t_final - 1e-14:
        # cap the step so the run lands on the k-th snapshot time k * interval
        # and on t_final, then pin the time to them against accumulated roundoff
        dt_room = min(t_final, next_snap) - grid.time
        if cfg["dt_max"] is not None:
            dt_room = min(cfg["dt_max"], dt_room)
        grid = step(grid, spec, cfg["flux_variant"], cfl=cfg["cfl"], dt_max=dt_room)
        steps += 1
        for target in (next_snap, t_final):
            if abs(grid.time - target) <= 1e-14:
                grid.time = target  # a plain attribute: the memoized gate stays
        if grid.time >= next_snap - 1e-14 or grid.time >= t_final - 1e-14:
            take_snapshot(grid)
            while next_snap <= grid.time + 1e-14:
                k_snap += 1
                next_snap = k_snap * interval

    manifest = {
        "command": "simulate",
        "config": {k: v for k, v in cfg.items()},
        "version": _version,
        "steps": steps,
        "final_time": grid.time,
        "snapshots": [{"time": s.time} for s in snapshots],
        "flagged_cells": {repr(s.time): s.flagged_cells for s in snapshots if s.flagged_cells},
        "realizability_failures": 0,
        "passed": True,
    }
    for entry, path in zip(manifest["snapshots"], files):
        entry["file"] = Path(path).name
    manifest["wall_clock_s"] = _time.time() - started
    if out is not None:
        man_path = out / "run_manifest.json"
        man_path.write_text(json.dumps(manifest, sort_keys=True) + "\n")
        files.append(str(man_path))
    return RunResult(snapshots=snapshots, manifest=manifest, grid=grid, files=files)
