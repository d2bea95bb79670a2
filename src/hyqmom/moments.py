"""Realizable moment vectors and their recurrence-coefficient coordinates.

A velocity-moment vector (M_0, ..., M_N) is strictly realizable when the
Hankel matrix built from it is positive definite, i.e. the moments come from
a genuine nonnegative velocity distribution.  On that cone the moments are
in bijection with the three-term recurrence coefficients (a_k, b_k) of the
induced monic orthogonal polynomials, with b_k > 0.  The bijection is
computed with the Wheeler/Chebyshev mixed-moment recursion (see Gautschi,
"Orthogonal Polynomials: Computation and Approximation", 2004), which
exposes the norms <Q_k^2> directly and degrades gracefully near the cone
boundary.

Both directions of the bijection are exponentially ill-conditioned in the
order when expressed in raw moments; supported order is capped at n <= 10
and every realizability check reports a cancellation-loss estimate.

The batched kernels take (J, L) moment rows, J cells of L moments, and run
order-major: the Wheeler recursion works on contiguous length-J rows of
M.T, one per order, and returns its (J, .) coefficient and pivot arrays as
transposed views of order-major buffers.  Given ``out=``, the Wheeler
kernels and ``_primitive_rows`` write into the caller's order-major rows
instead, such as a block of the solver's gate, with the same values.
``gaussian_moments`` builds one row per order in place before returning
the moment axis last, and the moment build from recurrence rows fills one
(L, J) block per polynomial degree.  A Fortran-ordered input, such as the
solver's cells or a block of them, is read row by row without a copy; a
C-ordered one gives the same values.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

# Pivot threshold is relative to M_0 so that the test is invariant under
# rescaling m -> c*m of the whole vector.
DEFAULT_REALIZABILITY_TOL = 1e-12

# Raw-moment recursions lose roughly max|M|*M_0/min_pivot relative digits;
# beyond this order double precision cannot resolve generic inputs.
MAX_HALF_ORDER = 10


class NotRealizableError(ValueError):
    """Moment vector failed the strict-realizability (Hankel pivot) test."""

    def __init__(self, message, pivot_index=None, pivot=None):
        super().__init__(message)
        self.pivot_index = pivot_index
        self.pivot = pivot


@dataclass
class RealizabilityCheck:
    """Outcome of a Hankel positive-definiteness test plus diagnostics."""

    realizable: bool
    pivots: np.ndarray
    failing_index: int | None
    condition_estimate: float
    message: str

    def __bool__(self):
        return self.realizable


class RecurrenceCoefficients(NamedTuple):
    """Three-term recurrence coefficients (a_k, b_k); b_k > 0 on the cone.

    For a moment vector of odd length 2n+1 the bijection yields
    a_0..a_{n-1} and b_0..b_n; for even length 2n it yields a_0..a_{n-1}
    and b_0..b_{n-1}.  b_0 equals M_0 and never enters the polynomial
    recursion itself.
    """

    a: np.ndarray
    b: np.ndarray


@dataclass
class EquilibriumState:
    """Maxwellian parameters (rho, U, theta) with rho > 0, theta > 0."""

    rho: float
    U: float
    theta: float

    def __post_init__(self):
        if not (math.isfinite(self.rho) and math.isfinite(self.U) and math.isfinite(self.theta)):
            raise ValueError("equilibrium state entries must be finite")
        if self.rho <= 0:
            raise ValueError(f"density must be positive, got {self.rho}")
        if self.theta <= 0:
            raise ValueError(f"temperature must be positive, got {self.theta}")

    @classmethod
    def from_moments(cls, m):
        m = np.asarray(m, dtype=float)
        if m.size < 3:
            raise ValueError("need at least (M_0, M_1, M_2) to define a state")
        if m[0] <= 0:
            raise ValueError("M_0 must be positive")
        return cls(*(float(x) for x in _primitive_rows(m)))

    def moments(self, order):
        """Maxwellian moment vector rho * Delta_k(U, theta), k = 0..order."""
        return maxwellian_moments(self.rho, self.U, self.theta, order)

    def as_dict(self):
        return {"rho": self.rho, "U": self.U, "theta": self.theta}


def _as_moment_array(m, dtype=float):
    m = np.asarray(m, dtype=dtype)
    if m.ndim != 1 or m.size == 0:
        raise ValueError("moment vector must be a nonempty 1-D sequence")
    if not np.all(np.isfinite(m)):
        raise ValueError("moment vector contains non-finite entries")
    return m


def _order_refusal(n):
    """Why n is no supported half order, an integer in 1..MAX_HALF_ORDER,
    or None: the one order rule, which closures._refusal reads too."""
    if not 1 <= n <= MAX_HALF_ORDER:
        return "n must be >= 1" if n < 1 else (
            f"n={n} exceeds the supported cap n={MAX_HALF_ORDER} "
            "(double precision cannot resolve the raw-moment bijection beyond it)")


def _half_order(length):
    """n = length // 2, so length is 2n+1 or 2n, refused above the cap by
    _order_refusal; n = 0, M_0 alone, has no order to cap."""
    n = length // 2
    if n and (reason := _order_refusal(n)):
        raise ValueError(reason)
    return n


def hankel_matrix(m, size=None):
    """Hankel matrix H[i, j] = M_{i+j} of the given order (n+1 x n+1)."""
    m = _as_moment_array(m)
    if size is None:
        size = (len(m) + 1) // 2
    if 2 * size - 1 > len(m):
        raise ValueError("not enough moments for the requested Hankel order")
    return np.array([[m[i + j] for j in range(size)] for i in range(size)])


def _realizability(m, tol):
    """(RealizabilityCheck, a, b) of one moment vector from the Wheeler
    pivots of _realizable_pivots_batch; pivots past a failing one are NaN."""
    m = _as_moment_array(m)
    _half_order(len(m))
    ok, a, b, piv = _realizable_pivots_batch(m[None, :], tol)
    a, b, pivots = a[0], b[0], piv[0]
    passed = np.isfinite(pivots) & (pivots > tol * m[0])
    failing = None if ok[0] else int(np.flatnonzero(~passed)[0])
    valid = pivots[:failing]
    if valid.size and np.min(valid) > 0:
        cond = float(np.max(np.abs(m)) * m[0] / np.min(valid))
    else:
        cond = np.inf
    if failing is None:
        return RealizabilityCheck(True, pivots, None, cond, "all pivots positive"), a, b
    pivots[failing + 1 :] = np.nan
    message = (
        f"pivot {failing} = {float(pivots[failing])!r} not above {float(tol * m[0])!r}"
    )
    return RealizabilityCheck(False, pivots, failing, cond, message), a, b


def is_strictly_realizable(m, tol=DEFAULT_REALIZABILITY_TOL):
    """Test positive definiteness of the Hankel matrix of ``m``.

    Odd length 2n+1 tests H_n; even length 2n tests H_{n-1} (the trailing
    odd moment is unconstrained).  The pivots are the norms <Q_k^2> of the
    induced orthogonal polynomials, i.e. the LDL^T pivots of the Hankel
    matrix, computed by the same Wheeler recursion the closures and the
    solver gate on; every pivot must be finite and exceed ``tol * M_0``.

    Returns a RealizabilityCheck that is truthy iff the test passed.
    """
    return _realizability(m, tol)[0]


def gaussian_moments(order, U, theta):
    """Moments Delta_0..Delta_order of the Gaussian with mean U, variance theta.

    Computed by the recursion Delta_{k+1} = U Delta_k + k theta Delta_{k-1},
    which is exact in floating point for small orders (no factorial sums).
    ``U`` (finite) and ``theta`` (positive, finite) may be arrays; the
    moment axis comes last.
    """
    if order < 0:
        raise ValueError("order must be >= 0")
    U = np.asarray(U, dtype=float)
    theta = np.asarray(theta, dtype=float)
    if not (0 < theta.min() and theta.max() < np.inf):  # NaN too
        raise ValueError("theta must be positive and finite")
    if not np.isfinite(U).all():
        raise ValueError("U must be finite")
    shape = np.broadcast_shapes(U.shape, theta.shape)
    # built order-major in place, one contiguous row per order, returned
    # moment-last; out[k + 1, ...] is a view also for scalar U and theta
    out = np.empty((order + 1,) + shape)
    out[0] = 1.0
    if order >= 1:
        out[1] = U
    scratch = np.empty(shape)
    for k in range(1, order):
        row = np.multiply(theta, k, out=out[k + 1, ...])
        row *= out[k - 1]
        row += np.multiply(U, out[k], out=scratch)
    return np.moveaxis(out, 0, -1)


def _gaussian_u_derivatives(order, U, theta, jmax):
    """dU^j Delta_k = k!/(k-j)! Delta_{k-j}(U, theta) for j = 0..jmax and
    k = 0..order, stacked on a leading j axis; zero where j > k."""
    delta = gaussian_moments(order, U, theta)
    out = np.zeros((jmax + 1,) + delta.shape)
    for j in range(min(jmax, order) + 1):
        fall = np.array([math.perm(k, j) for k in range(j, order + 1)], dtype=float)
        out[j, ..., j:] = fall * delta[..., : order + 1 - j]
    return out


def maxwellian_moments(rho, U, theta, order):
    """Equilibrium moment vector rho * Delta_k(U, theta), k = 0..order."""
    if not 0 < rho < np.inf:  # NaN too
        raise ValueError("rho must be positive and finite")
    return rho * gaussian_moments(order, U, theta)


def _primitive_rows(M, out=None):
    """(rho, U, theta) of moment rows from M_0..M_2: U = M_1/rho and
    theta = M_2/rho - U^2, into the rows of ``out`` (3, J) if given, the
    last one for U^2."""
    rho = M[..., 0]
    U, theta, square = [None] * 3 if out is None else out
    U = np.divide(M[..., 1], rho, out=U)
    theta = np.divide(M[..., 2], rho, out=theta)
    theta -= np.square(U, out=square)
    return rho, U, theta


def _maxwellian_recurrence(rho, U, theta, n):
    """Recurrence rows (a, b), shapes (J, n) and (J, n+1), of the Maxwellian
    moments rho * Delta(U, theta) of J states: a_k = U, b_0 = rho and
    b_k = k theta."""
    rho, U, theta = np.broadcast_arrays(
        *(np.asarray(x, dtype=float).reshape(-1) for x in (rho, U, theta))
    )
    a = np.repeat(U[:, None], n, axis=1)
    b = np.concatenate([rho[:, None], theta[:, None] * np.arange(1.0, n + 1)], axis=1)
    return a, b


def affine_transform(m, u, sigma):
    """Shift/scale operator on moments: Mbar_k = sum_j C(k,j) sigma^j M_j u^{k-j}.

    Realizes the change of velocity variable xi -> sigma*xi + u; invertible
    with parameters (-u/sigma, 1/sigma).  u must be finite and sigma finite
    and positive.
    """
    if not (np.isfinite(u) and np.isfinite(sigma) and sigma > 0):
        raise ValueError(f"need a finite u and a finite sigma > 0, got u={u!r}, sigma={sigma!r}")
    m = _as_moment_array(m)
    out = np.zeros_like(m)
    sig_pow = sigma ** np.arange(len(m))
    for k in range(len(m)):
        acc = 0.0
        for j in range(k + 1):
            acc += math.comb(k, j) * sig_pow[j] * m[j] * u ** (k - j)
        out[k] = acc
    return out


def _wheeler_batch(M, out=None):
    """Mixed-moment (Wheeler) recursion on a batch of moment rows.

    Returns (a, b, pivots) with shapes (J, n_a), (J, n_b), (J, n_b) where the
    pivots are the norms <Q_k^2>.  No realizability enforcement here; callers
    inspect the pivots.  dtype follows the input (complex inputs supported,
    which is what derivative probes rely on).  The recursion reads M.T
    order-major, one contiguous length-J row per order (other inputs are
    copied to that layout first), through one (3, L, J) scratch block, and
    the outputs are transposed views of order-major buffers: the caller's
    (n_a, J), (n_b, J) and (n_b, J) rows ``out = (a, b, pivots)`` if given.
    """
    M = np.asarray(M)
    J, L = M.shape
    n_a, n_b = L // 2, (L + 1) // 2  # n and n + 1 for L = 2n + 1, n and n for 2n
    cur = M.T if M.strides[0] == M.itemsize else np.ascontiguousarray(M.T)  # only read
    a, b, piv = out or [np.empty((rows, J), dtype=M.dtype) for rows in (n_a, n_b, n_b)]
    work = np.empty((3, L, J), dtype=M.dtype)
    tmp = work[2]
    if n_a:
        np.divide(cur[1], cur[0], out=a[0])
    b[0] = cur[0]
    piv[0] = cur[0]
    with np.errstate(divide="ignore", invalid="ignore"):
        for k in range(1, n_b):
            # rows outside lo:hi are never read again, and from k = 3 on the
            # new table overwrites prev's rows once they are scaled
            nxt = work[(k - 1) % 2]
            lo, hi = k, L - k
            np.multiply(a[k - 1], cur[lo:hi], out=tmp[lo:hi])
            if k == 1:  # prev is all zeros: b_0 * 0 would subtract nothing
                np.subtract(cur[lo + 1 : hi + 1], tmp[lo:hi], out=nxt[lo:hi])
            else:
                np.multiply(b[k - 1], prev[lo:hi], out=nxt[lo:hi])
                np.subtract(cur[lo + 1 : hi + 1], tmp[lo:hi], out=tmp[lo:hi])
                np.subtract(tmp[lo:hi], nxt[lo:hi], out=nxt[lo:hi])
            piv[k] = nxt[k]
            np.divide(nxt[k], cur[k - 1], out=b[k])
            if k < n_a:
                np.divide(nxt[k + 1], nxt[k], out=a[k])
                np.divide(cur[k], cur[k - 1], out=tmp[k])
                a[k] -= tmp[k]
            prev, cur = cur, nxt
    return a.T, b.T, piv.T


def _realizable_pivots_batch(M, tol=DEFAULT_REALIZABILITY_TOL, out=None):
    """Batched strict-realizability mask from the Wheeler pivots, reduced
    over the order axis of the order-major rows; ``out = (ok, a, b)`` takes
    the mask and _wheeler_batch's a and b rows, and only the pivots are
    allocated."""
    ok = None
    if out is not None:
        ok, a, b = out
        out = a, b, np.empty(b.shape, dtype=M.dtype)
    a, b, piv = _wheeler_batch(M, out)
    X, P = M.T, piv.T
    ok = np.all(P.real > tol * X[0].real, axis=0, out=ok)
    ok &= np.all(np.isfinite(P), axis=0)
    ok &= np.all(np.isfinite(X), axis=0)
    return ok, a, b, piv


def moments_to_recurrence(m, tol=DEFAULT_REALIZABILITY_TOL):
    """Map a strictly realizable moment vector to (a_k, b_k).

    Raises NotRealizableError (carrying the failing pivot index) when some
    norm <Q_k^2> is not above tol * M_0.
    """
    check, a, b = _realizability(m, tol)
    if not check:
        k = check.failing_index
        raise NotRealizableError(
            f"moment vector is not strictly realizable: {check.message}",
            pivot_index=k,
            pivot=float(check.pivots[k]),
        )
    return RecurrenceCoefficients(a=a, b=b)


def _moments_from_recurrence_batch(a, b, length):
    """Forward sweep of the mixed moments sigma(k, l) = <Q_k X^l>.

    Runs diagonal by diagonal on sigma(k, k+d) so every entry only needs
    already-computed values; sigma(k, k) is the pivot product b_0..b_k and
    sigma(k+1, k) = 0.  The table is order-major, one (length, J) block of
    contiguous length-J rows per k, read from order-major copies of a and
    b; the moments come back as the (J, length) transposed view of the
    k = 0 block, which holds no reference to the others.
    """
    J = a.shape[0]
    Lm = length - 1
    R = Lm // 2
    a = np.ascontiguousarray(a.T)
    b = np.ascontiguousarray(b.T)
    T = [np.empty((length, J)), *np.empty((R + 1, length, J))]
    for k, pivot in enumerate(np.cumprod(b[: R + 1], axis=0)):
        T[k][k] = pivot
        T[k + 1][k] = 0.0
    tmp = np.empty(J)
    for d in range(1, Lm + 1):
        for k in range(R + 1):
            if d > Lm - 2 * k:
                continue
            t = T[k][k + d]
            np.multiply(a[k], T[k][k + d - 1], out=t)
            t += T[k + 1][k + d - 1]
            if k >= 1:
                np.multiply(b[k], T[k - 1][k + d - 1], out=tmp)
                t += tmp
    return T[0].T


def recurrence_to_moments(rc, length):
    """Unique moment vector M_0..M_{length-1} with the given (a_k, b_k).

    Needs a_0..a_{ceil((length-1)/2)-1} and b_0..b_{(length-1)//2}, all
    b_k > 0.  This is the generator of random strictly realizable vectors:
    any admissible (a, b) yields a realizable output by construction.
    Non-finite coefficients are refused (a NaN would pass the positivity
    check).
    """
    a, b = rc
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    if not (np.all(np.isfinite(a)) and np.all(np.isfinite(b))):
        raise ValueError("recurrence coefficients must be finite")
    if length < 1:
        raise ValueError("length must be >= 1")
    _half_order(length)
    Lm = length - 1
    need_a = (Lm + 1) // 2
    need_b = Lm // 2 + 1
    if len(a) < need_a or len(b) < need_b:
        raise ValueError(
            f"need {need_a} a-coefficients and {need_b} b-coefficients "
            f"for {length} moments, got {len(a)} and {len(b)}"
        )
    if np.any(b[:need_b] <= 0):
        raise ValueError("all b coefficients must be positive")
    if need_a == 0:
        a = np.zeros(1)
    return _moments_from_recurrence_batch(a[None, :], b[None, :], length)[0]
