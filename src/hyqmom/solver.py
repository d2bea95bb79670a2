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
"""

from __future__ import annotations

import json
import time as _time
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from . import __version__ as _version
from .closures import (
    ClosureSpec,
    _hyqmom_an,
    _recurrence_rows,
    _spectral_from_recurrence,
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


@dataclass
class GridState:
    """Per-cell moment vectors with geometry and relaxation time."""

    cells: np.ndarray
    dx: np.ndarray
    tau: float
    time: float = 0.0
    boundary: str = "periodic"

    def __setattr__(self, name, value):
        # a read-only copy of the cells keeps the memoized gate valid
        if name == "cells":
            value = np.array(np.atleast_2d(value), dtype=float)
            value.flags.writeable = False
            super().__setattr__("_gate_memo", None)
        super().__setattr__(name, value)

    def __post_init__(self):
        self.dx = np.asarray(self.dx, dtype=float)
        if self.dx.ndim == 0:
            self.dx = np.full(self.cells.shape[0], float(self.dx))
        if len(self.dx) != self.cells.shape[0]:
            raise ValueError("need one cell width per cell")
        if np.any(self.dx <= 0):
            raise ValueError("cell widths must be positive")
        if self.tau <= 0:
            raise ValueError("tau must be positive")
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
        """(ok, a, b) of _realizable_pivots_batch on the cells, memoized."""
        if self._gate_memo is None:
            ok, a, b, _ = _realizable_pivots_batch(self.cells)
            self._gate_memo = (ok, a, b)
        return self._gate_memo


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
        diag = np.concatenate([a, _hyqmom_an(a, gamma)[:, None]], axis=1)
        off = np.sqrt(b[:, 1:])
        return _jacobi_batch(diag, off, b[:, :1])
    lam, om, _, _ = _spectral_from_recurrence(a, b, gamma)
    return lam, om


def _interface_fluxes(nodes, weights, order_count, boundary):
    """Kinetic fluxes for all interfaces and moment orders.

    Returns an array of shape (J+1, order_count); interface i sits between
    cells i-1 and i with the boundary rule supplying the missing neighbor.
    """
    J = nodes.shape[0]
    pos = np.maximum(nodes, 0.0)
    neg = np.minimum(nodes, 0.0)
    fplus = np.empty((J, order_count))
    fminus = np.empty((J, order_count))
    pp = pos.copy()
    nn = neg.copy()
    for k in range(order_count):
        pp = pp * pos if k else pp
        nn = nn * neg if k else nn
        fplus[:, k] = np.sum(weights * pp, axis=1)
        fminus[:, k] = np.sum(weights * nn, axis=1)
    if boundary == "periodic":
        left = np.arange(-1, J) % J
        right = np.arange(0, J + 1) % J
    else:
        left = np.clip(np.arange(-1, J), 0, J - 1)
        right = np.clip(np.arange(0, J + 1), 0, J - 1)
    return fplus[left] + fminus[right]


def _advance(grid, a, b, gamma, variant, cfl, dt, dt_max):
    """The grid one step on, from the gate's (a, b); the update's full-size
    temporaries are freed on return, before the post-step check."""
    nodes, weights = _reconstruct_batch(a, b, gamma, variant)
    smax = np.max(np.abs(nodes), axis=1)
    with np.errstate(divide="ignore"):
        dt_cfl = cfl * np.min(np.where(smax > 0, grid.dx / smax, np.inf))
    if not np.isfinite(dt_cfl):
        dt_cfl = dt_max if dt_max is not None else 1.0
    step_dt = float(dt_cfl) if dt is None else float(dt)
    if dt_max is not None:
        step_dt = min(step_dt, dt_max)
    if step_dt <= 0:
        raise ValueError("time step must be positive")

    factors = 1.0 - step_dt * np.abs(nodes) / grid.dx[:, None]
    if np.min(factors) < -1e-12:
        raise RuntimeError(
            "CFL violated: a convex-update factor went negative "
            f"(min {float(np.min(factors))!r}); realizability is no longer guaranteed"
        )

    L = grid.cells.shape[1]
    flux = _interface_fluxes(nodes, weights, L, grid.boundary)
    mstar = grid.cells + (step_dt / grid.dx)[:, None] * (flux[:-1] - flux[1:])

    rho, U, theta = _primitive_rows(grid.cells)
    maxwellian = rho[:, None] * gaussian_moments(L - 1, U, theta)
    r = step_dt / grid.tau
    cells = (mstar + r * maxwellian) / (1.0 + r)
    return replace(grid, cells=cells, time=float(grid.time) + step_dt)


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
    realizability check and runs that check once on the output grid, where
    it stays memoized as the next step's gate.
    """
    _check_flux(spec, variant, grid.n)
    if not 0 < cfl <= 1:
        raise ValueError("cfl must lie in (0, 1]")
    a, b = _require_realizable(grid, "is not strictly realizable")
    new = _advance(grid, a, b, spec.gamma, variant, cfl, dt, dt_max)
    _require_realizable(new, "lost strict realizability")
    return new


def total_moments(grid):
    """Domain integrals sum_j dx_j * M_{k,j}; conserved for k <= 2 under
    periodic boundaries."""
    return grid.dx @ grid.cells


def _flagged_cells(grid):
    _, _, b = grid._gate()
    theta = _primitive_rows(grid.cells)[2]
    near = np.min(b[:, 1:], axis=1) < NEAR_BOUNDARY_FRACTION * theta
    return [int(i) for i in np.flatnonzero(near)]


# ---------------------------------------------------------------------------
# Config-driven runs


def _require(cfg, key, types, check=None, what=""):
    if key not in cfg:
        raise ConfigError(key, "missing")
    val = cfg[key]
    if not isinstance(val, types) or isinstance(val, bool):
        raise ConfigError(key, f"expected {what or types}, got {val!r}")
    if check is not None and not check(val):
        raise ConfigError(key, f"invalid value {val!r} ({what})")
    return val


def validate_config(cfg):
    """Normalize and validate a simulation config, raising ConfigError with
    the offending field on any problem."""
    if not isinstance(cfg, dict):
        raise ConfigError("<root>", "config must be a JSON object")
    out = {}
    cap = MAX_HALF_ORDER
    out["n"] = int(_require(cfg, "n", int, lambda v: 1 <= v <= cap, f"integer in 1..{cap}"))
    out["gamma"] = float(
        _require(cfg, "gamma", (int, float), lambda v: v > -2 * cfg.get("n", 1), "gamma > -2n")
    )
    out["flux_variant"] = _require(
        cfg, "flux_variant", str, lambda v: v in FLUX_VARIANTS, f"one of {FLUX_VARIANTS}"
    )
    if out["flux_variant"] == "eigen" and out["gamma"] <= -out["n"]:
        raise ConfigError("flux_variant", "eigen nodes need gamma > -n")
    out["cfl"] = float(_require(cfg, "cfl", (int, float), lambda v: 0 < v <= 1, "in (0, 1]"))
    tau = cfg.get("tau", None)
    if isinstance(tau, str) and tau.lower() in ("inf", "infinity"):
        tau = np.inf
    if not isinstance(tau, (int, float)) or not tau > 0:
        raise ConfigError("tau", f"expected positive number (or 'inf'), got {cfg.get('tau')!r}")
    out["tau"] = float(tau)
    dom = _require(cfg, "domain", list, lambda v: len(v) == 2, "[x0, x1]")
    try:
        x0, x1 = float(dom[0]), float(dom[1])
    except (TypeError, ValueError):
        raise ConfigError("domain", "entries must be numbers") from None
    if not x1 > x0:
        raise ConfigError("domain", "need x1 > x0")
    out["domain"] = [x0, x1]
    out["cells"] = int(_require(cfg, "cells", int, lambda v: v >= 2, "integer >= 2"))
    out["t_final"] = float(
        _require(cfg, "t_final", (int, float), lambda v: v >= 0, "nonnegative")
    )
    snap = cfg.get("snapshot_every", None)
    if snap is not None and (not isinstance(snap, (int, float)) or snap <= 0):
        raise ConfigError("snapshot_every", "must be a positive number or omitted")
    out["snapshot_every"] = None if snap is None else float(snap)
    out["boundary"] = _require(
        cfg, "boundary", str, lambda v: v in BOUNDARIES, f"one of {BOUNDARIES}"
    )
    dt_max = cfg.get("dt_max", None)
    if dt_max is not None and (not isinstance(dt_max, (int, float)) or dt_max <= 0):
        raise ConfigError("dt_max", "must be a positive number or omitted")
    out["dt_max"] = None if dt_max is None else float(dt_max)

    segments = _require(cfg, "initial", list, lambda v: len(v) >= 1, "nonempty list")
    n = out["n"]
    norm_segments = []
    for i, seg in enumerate(segments):
        if not isinstance(seg, dict):
            raise ConfigError(f"initial[{i}]", "segment must be an object")
        ns = {}
        for key in ("rho", "theta"):
            val = seg.get(key)
            if not isinstance(val, (int, float)) or val <= 0:
                raise ConfigError(f"initial[{i}].{key}", "must be a positive number")
            ns[key] = float(val)
        if not isinstance(seg.get("U"), (int, float)):
            raise ConfigError(f"initial[{i}].U", "must be a number")
        ns["U"] = float(seg["U"])
        for key, maxlen in (("da", n), ("db", n + 1)):
            arr = seg.get(key, [])
            if not isinstance(arr, list) or len(arr) > maxlen or not all(
                isinstance(x, (int, float)) for x in arr
            ):
                raise ConfigError(
                    f"initial[{i}].{key}", f"must be a list of <= {maxlen} numbers"
                )
            ns[key] = [float(x) for x in arr]
        if i < len(segments) - 1:
            xu = seg.get("x_until")
            if not isinstance(xu, (int, float)) or not (x0 < xu <= x1):
                raise ConfigError(
                    f"initial[{i}].x_until", f"must be a number in ({x0}, {x1}]"
                )
            ns["x_until"] = float(xu)
        ns["x_until"] = ns.get("x_until", x1)
        norm_segments.append(ns)
    if any(
        norm_segments[i]["x_until"] > norm_segments[i + 1]["x_until"]
        for i in range(len(norm_segments) - 1)
    ):
        raise ConfigError("initial", "segment x_until values must be nondecreasing")
    out["initial"] = norm_segments
    return out


def _segment_coefficients(seg, n):
    """Recurrence rows (1, n) and (1, n+1) of one initial segment: the
    Maxwellian rows plus the optional additive perturbations; positivity
    of b is enforced so every built cell is realizable by construction."""
    a, b = _maxwellian_recurrence(seg["rho"], seg["U"], seg["theta"], n)
    a[0, : len(seg["da"])] += seg["da"]
    b[0, : len(seg["db"])] += seg["db"]
    if np.any(b <= 0):
        k = int(np.flatnonzero(b[0] <= 0)[0])
        raise ConfigError("initial", f"perturbed b_{k} = {b[0, k]!r} is not positive")
    return a, b


def build_initial_grid(cfg):
    """Grid at t = 0 from a validated config."""
    n = cfg["n"]
    J = cfg["cells"]
    x0, x1 = cfg["domain"]
    dx = (x1 - x0) / J
    centers = x0 + (np.arange(J) + 0.5) * dx
    cells = np.empty((J, 2 * n + 1))
    lower = x0
    for seg in cfg["initial"]:
        mask = (centers > lower) & (centers <= seg["x_until"] + 1e-15)
        if np.any(mask):
            a, b = _segment_coefficients(seg, n)
            row = _moments_from_recurrence_batch(a, b, 2 * n + 1)[0]
            cells[mask] = row
        lower = seg["x_until"]
    return GridState(
        cells=cells,
        dx=np.full(J, dx),
        tau=cfg["tau"],
        time=0.0,
        boundary=cfg["boundary"],
    )


def _snapshot_csv_lines(cfg, grid):
    n = grid.n
    header = (
        ["x"]
        + [f"M_{k}" for k in range(2 * n + 1)]
        + ["rho", "U", "theta", "realizable_flag"]
    )
    x0, _ = cfg["domain"]
    centers = x0 + (np.cumsum(grid.dx) - 0.5 * grid.dx)
    ok, _, _ = grid._gate()
    rho, U, theta = _primitive_rows(grid.cells)
    lines = [",".join(header)]
    for j in range(grid.num_cells):
        vals = (
            [centers[j]]
            + list(grid.cells[j])
            + [rho[j], U[j], theta[j]]
        )
        lines.append(
            ",".join(repr(float(v)) for v in vals) + f",{int(ok[j])}"
        )
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
        with open(config) as fh:
            raw = json.load(fh)
        cfg = validate_config(raw)
    else:
        cfg = validate_config(config)
    spec = ClosureSpec("hyqmom", gamma=cfg["gamma"])
    grid = build_initial_grid(cfg)
    out = None if output_dir is None else Path(output_dir)
    if out is not None:
        out.mkdir(parents=True, exist_ok=True)
    snapshots, files = [], []

    def take_snapshot(grid):
        # written from the live grid, whose memoized gate gives the flags
        snapshots.append(Snapshot(grid.time, grid.cells, _flagged_cells(grid)))
        if out is not None:
            path = out / f"snapshot_{len(files):04d}.csv"
            path.write_text("\n".join(_snapshot_csv_lines(cfg, grid)) + "\n")
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
        man_path.write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")
        files.append(str(man_path))
    return RunResult(snapshots=snapshots, manifest=manifest, grid=grid, files=files)
