"""Monic orthogonal polynomials, Jacobi matrices and Gauss quadrature.

Root finding goes exclusively through symmetric-tridiagonal eigenvalue
problems (Golub & Welsch, Math. Comp. 23, 1969): the Jacobi matrix with
diagonal a_k and off-diagonals sqrt(b_k) has the polynomial roots as
eigenvalues, guaranteed real and distinct.  The quadrature weights are the
Christoffel numbers b_0 / sum_k p_k(x)^2 over the orthonormal polynomials
at each node (Gautschi, Orthogonal Polynomials, 2004), equal to b_0 times
the squared first eigenvector components and positive as a sum of squares.
Every such eigensolve, single or batched, runs through ``_jacobi_batch``
and computes no eigenvectors; single-matrix calls are its J = 1 case, and
hyqmom's nested pair Q_n in R_{n+1} is one call.  It picks each factor's
solver by its order m alone:

* m <= 4: a closed form on length-J rows (Smith's trigonometric roots
  with one Newton step at m = 3, the depressed quartic split by its
  largest resolvent root with two Newton steps at m = 4);
* m >= 5: each lane within g/8 of c I + s T_std, for the model T_std of
  the same factor of the standard normal (``_standard_spectrum``; xi its
  spectrum, g its smallest gap), starts from the guess c + s xi moved to
  first order, which Kato-Temple certifies close to the model, else takes
  Newton steps on det(T - x) that stop per lane, in windows of radius
  s g/2 that Weyl's bound gives one eigenvalue each, one pass for a pair;
* stacked ``numpy.linalg.eigvalsh`` for the m >= 5 lanes that neither
  certifies, and for the m = 3 and 4 lanes with two nearly equal
  eigenvalues or with a spread large enough to overflow the closed form,
  which LAPACK scales.

A stacked ``eigvalsh`` call of 2 * ``SPLIT_VALUES`` matrix entries or more
is cut into contiguous parts of ``SPLIT_VALUES`` entries or more on
average, at most one per CPU of the process's affinity mask, which run at
the same time: the first in the calling thread, the others on daemon
helper threads that start at the first such call and do nothing but
``eigvalsh``.  LAPACK solves each matrix on its own, so the eigenvalues do
not depend on the cut or on the CPU count.

Polynomial deflation and companion matrices are never used.  Whether the
merged hyqmom roots interlace, with disjoint enclosures and positive
weights, is decided in ``closures._spectral_verdicts``, not here.
"""

from __future__ import annotations

import functools
import os
import threading
from dataclasses import dataclass

import numpy as np

from .moments import _as_moment_array, moments_to_recurrence

# Newton steps of the warm path at m >= 5, at most (``_newton_steps``).  At
# the filter's edge, ||E|| = g/8, m = 5 lanes were off by 9.5e-4, 7.2e-6,
# 4.0e-10 and 1.1e-15 of the spread after the guess and each of three steps;
# on the stiff n = 6 benchmark run about 95% of the lanes need no step
# (Kato-Temple) and nearly every other lane stops after two.
NEWTON_STEPS = 3

# Matrix entries per part of a split ``eigvalsh`` call, at least on average
# (``_dense_eigenvalues``).  It is the break-even on a 2-CPU host: split in
# two, 200 matrices of order 5 took 1.23x as long and 400 took 0.60x; at
# order 7, 100 and 200 took 1.13x and 0.63x; at order 11, 50 and 100 took
# 1.27x and 0.63x (medians of 201 calls).
SPLIT_VALUES = 8192


@dataclass
class Quadrature:
    """Node/weight pairs; nodes strictly increasing, weights positive."""

    nodes: np.ndarray
    weights: np.ndarray

    def power_sum(self, k):
        """Reconstructed moment sum_i w_i u_i^k."""
        return float(np.sum(self.weights * self.nodes**k))


def poly_eval(coeffs, x):
    """Evaluate a low-to-high coefficient array at x (Horner)."""
    coeffs = np.asarray(coeffs)
    acc = np.zeros_like(np.asarray(x, dtype=float)) + coeffs[-1]
    for c in coeffs[-2::-1]:
        acc = acc * x + c
    return acc


def _monic_pair_batch(a, b, deg):
    """Batched monic (Q_deg, Q_{deg-1}) coefficient rows (low-to-high) from
    the recursion Q_{k+1} = (X - a_k) Q_k - b_k Q_{k-1}, which reads
    a_0..a_{deg-1} and b_1..b_{deg-1}; dtype follows a and b, so object
    rows of Python integers give exact integer coefficients."""
    J = a.shape[0]
    dtype = np.result_type(a.dtype, b.dtype)
    qm = np.zeros((J, deg + 1), dtype=dtype)
    q = np.zeros((J, deg + 1), dtype=dtype)
    q[:, 0] = 1
    for k in range(deg):
        qn = np.zeros_like(q)
        qn[:, 1 : k + 2] = q[:, : k + 1]
        qn[:, : k + 1] -= a[:, k : k + 1] * q[:, : k + 1]
        if k >= 1:
            qn[:, :k] -= b[:, k : k + 1] * qm[:, :k]
        qm, q = q, qn
    return q, qm[:, :deg] if deg else np.zeros((J, 0), dtype=dtype)


def jacobi_roots(diag, offdiag_b):
    """Roots of the monic polynomial with recursion diagonal ``diag`` and
    weights ``offdiag_b`` (the b_k, of which square roots are taken).

    These are the eigenvalues of the symmetric tridiagonal Jacobi matrix;
    sorted ascending and guaranteed distinct for positive b.  Non-finite
    entries are refused (a NaN would pass the positivity check).
    """
    diag = np.asarray(diag, dtype=float)
    offdiag_b = np.asarray(offdiag_b, dtype=float)
    if diag.ndim != 1 or offdiag_b.shape != (len(diag) - 1,):
        raise ValueError("need 1-D diag and offdiag_b with len(offdiag_b) == len(diag) - 1")
    if not (np.all(np.isfinite(diag)) and np.all(np.isfinite(offdiag_b))):
        raise ValueError("recursion coefficients must be finite")
    if np.any(offdiag_b <= 0):
        raise ValueError("off-diagonal weights must be positive (cannot symmetrize)")
    return _jacobi_batch(diag[None, :], np.sqrt(offdiag_b)[None, :])[0]


def _small_jacobi_eigenvalues(d, off, x):
    """Ascending eigenvalues, written into and returned as the rows x (m, J),
    of the Jacobi matrices of order m <= 4 with order-major diagonal rows
    d (m, J) and coupling rows off (m-1, J), in closed form on length-J
    rows.  m = 2 is h +- hypot of
    the half difference and the coupling, from halved entries, which keeps
    the sum and difference finite.  m = 3 and 4 work on T - qI with
    q = trace/m: Smith's trigonometric cubic at m = 3
    (``_trigonometric_cubic_roots``), the depressed quartic at m = 4
    (``_quartic_roots``).  Then m - 2 Newton steps on the characteristic
    polynomial (``_newton_step``).  Both forms are off by about
    eps ||T||^2 / gap on a close pair; at m = 3 one Newton step repaired
    that at a gap of 1e-5 of the spread but not at 1e-6 (60-digit
    reference), so lanes whose closest pair lies within 1e-4 of the spread
    are solved again by ``_dense_eigenvalues``.  So are the lanes whose
    spread would overflow the intermediates, about spread^3 at m = 3 and
    spread^6 at m = 4: past 1e100 and 1e50, which keeps them below 1e300."""
    m, J = d.shape
    if m == 1:
        x[0] = d[0]
        return x
    if m == 2:
        np.multiply(d[0], 0.5, out=x[0])
        r = np.multiply(d[1], 0.5)
        np.add(x[0], r, out=x[1])
        np.subtract(x[0], r, out=r)
        np.hypot(r, off[0], out=r)
        np.subtract(x[1], r, out=x[0])
        x[1] += r
        return x
    s = np.square(off)
    rows = np.empty((4 if m == 3 else 7, J))
    q = rows[0]
    roots = _trigonometric_cubic_roots if m == 3 else _quartic_roots
    # lanes past the spread limit overflow here, a finite diagonal whose trace
    # overflows among them (T - qI is then infinite); they go to LAPACK below
    with np.errstate(over="ignore", invalid="ignore"):
        np.add(d[0], d[1], out=q)
        for k in range(2, m):
            q += d[k]
        q /= float(m)
        for k in range(m):
            np.subtract(d[k], q, out=x[k])
        close = roots(x, s, rows[1:])
        x += q
        for xk in x:
            for _ in range(m - 2):
                _newton_step(xk, d, s, rows)
    if close.size:
        x[:, close] = _dense_eigenvalues(d[:, close].T, off[:, close].T).T
    return x


def _trigonometric_cubic_roots(e, s, rows):
    """Smith's trigonometric form (CACM 4(4), 1961): overwrites the
    trace-free diagonal rows e (3, J) of T - qI, whose squared couplings are
    s (2, J), with its ascending eigenvalues.  p^2 = ||T - qI||_F^2 / 6,
    r = det(T - qI) / (2 p^3) clipped to [-1, 1], phi = arccos(r) / 3; the
    outer roots are 2p cos(phi) and 2p cos(phi + 2 pi/3), the middle one
    follows from the trace.  Returns the lanes whose closest pair lies
    within 1e-4 p, and those with p > 1e100, where det(T - qI) and the
    Newton polynomial, about p^3, near overflow."""
    r, p, t = rows
    np.multiply(e[1], e[2], out=r)  # det(T - qI), then r
    r -= s[1]
    r *= e[0]
    np.multiply(s[0], e[2], out=t)
    r -= t
    np.add(s[0], s[1], out=p)  # 6 p^2, then p
    p *= 2.0
    for k in range(3):
        np.multiply(e[k], e[k], out=t)
        p += t
    p /= 6.0
    np.sqrt(p, out=p)
    # p = 0 only for T = qI, where det = 0 as well and the floor gives r = 0
    np.maximum(p, np.finfo(float).tiny, out=t)
    for _ in range(3):
        r /= t
    r *= 0.5
    np.clip(r, -1.0, 1.0, out=r)
    phi = np.arccos(r, out=r)
    phi /= 3.0
    for k, shift in ((2, 0.0), (0, 2.0 * np.pi / 3.0)):
        phi += shift
        np.cos(phi, out=e[k])
        e[k] *= p
        e[k] *= 2.0
    np.add(e[0], e[2], out=e[1])
    np.negative(e[1], out=e[1])
    np.subtract(e[1], e[0], out=r)
    np.subtract(e[2], e[1], out=t)
    np.minimum(r, t, out=r)
    return np.flatnonzero((r <= 1e-4 * p) | (p > 1e100))


def _quartic_roots(e, s, rows):
    """Overwrites the trace-free diagonal rows e (4, J) of T - qI, whose
    squared couplings are s (3, J), with its ascending eigenvalues, the
    roots of the depressed quartic y^4 + p y^2 + c1 y + c0.  p is
    -||T - qI||_F^2 / 2; c1 and c0 come from the three-term recurrence.
    With the eigenvalues y_0 <= y_1 <= y_2 <= y_3, the resolvent cubic
    z^3 + 2p z^2 + (p^2 - 4 c0) z - c1^2 has the roots (y_0 + y_j)^2; only
    its largest, z1 = (y_0 + y_1)^2 = (y_2 + y_3)^2,
    is taken (trigonometric form, clipped at 0).  With s1 = sqrt(z1) and
    h = c1 / s1 the quartic splits into (y^2 + s1 y + u)(y^2 - s1 y + v),
    whose discriminants are g + 2h and g - 2h with g = -z1 - 2p, so the
    roots come out ascending.  z1 lies (middle gap) x (span) away from the
    other two resolvent roots, so it is as accurate as the closest pair
    allows.  The textbook roots (+-sqrt(z1) +- sqrt(z2) +- sqrt(z3)) / 2
    are avoided: on a spectrum symmetric about q, z3 = 0 and a close pair
    makes z2 tiny as well, their square roots amplify the error of the
    cubic, and the closest-pair test missed lanes wrong by up to 1e9
    enclosure radii (a_k = U, b_1 = b_3, b_2 small).  Returns the lanes
    whose closest pair lies within 1e-4 of the spread
    sqrt(-p) = ||T - qI||_F / sqrt(2), and those whose spread exceeds 1e50,
    where Q and c1^2, about spread^6, near overflow."""
    tiny = np.finfo(float).tiny
    p, c1, c0, u, v, w = rows
    np.add(s[0], s[1], out=p)
    p += s[2]
    for k in range(4):
        np.multiply(e[k], e[k], out=w)
        w *= 0.5
        p += w
    np.negative(p, out=p)
    # P2 = y^2 + u1 y + u0, P3 = y^3 + v2 y^2 + v1 y + v0 and
    # P4 = (y - e3) P3 - s2 P2, at their y^1 and y^0 coefficients
    np.add(e[0], e[1], out=c1)
    np.negative(c1, out=c1)  # u1
    np.multiply(e[0], e[1], out=c0)
    c0 -= s[0]  # u0
    np.multiply(e[2], c1, out=u)
    np.subtract(c0, u, out=u)
    u -= s[1]  # v1
    np.multiply(s[1], e[0], out=v)
    np.multiply(e[2], c0, out=w)
    v -= w  # v0
    c1 *= s[2]
    np.multiply(e[3], u, out=w)
    c1 += w
    np.subtract(v, c1, out=c1)  # c1 = v0 - e3 v1 - s2 u1
    c0 *= s[2]
    np.multiply(e[3], v, out=w)
    c0 += w
    np.negative(c0, out=c0)  # c0 = -e3 v0 - s2 u0
    # the resolvent roots are -2p/3 + 2R cos(phi + 2 pi k/3), the largest
    # at k = 0, with R^2 = p^2/9 + 4 c0/3, cos(3 phi) = -Q / (2 R^3) and
    # Q = -2p^3/27 + 8 p c0/3 - c1^2
    np.multiply(p, p, out=u)
    u /= 9.0
    np.multiply(c0, 4.0 / 3.0, out=w)
    u += w
    np.maximum(u, 0.0, out=u)
    np.sqrt(u, out=u)  # R
    np.multiply(p, p, out=v)
    v *= p
    v *= -2.0 / 27.0
    np.multiply(p, c0, out=w)
    w *= 8.0 / 3.0
    v += w
    np.multiply(c1, c1, out=w)
    v -= w  # Q
    # R = 0 only for a triple resolvent root, where Q = 0 as well
    np.maximum(u, tiny, out=c0)
    for _ in range(3):
        v /= c0
    v *= -0.5
    np.clip(v, -1.0, 1.0, out=v)
    np.arccos(v, out=v)
    v /= 3.0
    np.cos(v, out=v)
    v *= u
    v *= 2.0
    np.multiply(p, 2.0 / 3.0, out=w)
    v -= w  # z1
    np.maximum(v, 0.0, out=v)
    np.sqrt(v, out=v)  # s1
    np.maximum(v, tiny, out=u)
    c1 /= u  # h
    c1 *= 2.0
    np.multiply(v, v, out=c0)
    c0 += p
    c0 += p
    np.negative(c0, out=c0)  # g
    np.add(c0, c1, out=u)
    np.subtract(c0, c1, out=w)
    for disc in (u, w):
        np.maximum(disc, 0.0, out=disc)
        np.sqrt(disc, out=disc)  # gaps of the lower and upper pair
    np.add(v, u, out=e[0])
    e[0] *= -0.5
    np.subtract(u, v, out=e[1])
    e[1] *= 0.5
    np.subtract(v, w, out=e[2])
    e[2] *= 0.5
    np.add(v, w, out=e[3])
    e[3] *= 0.5
    np.add(u, w, out=c0)
    c0 *= -0.5
    c0 += v  # middle gap
    np.minimum(c0, u, out=c0)
    np.minimum(c0, w, out=c0)
    np.negative(p, out=p)
    np.sqrt(p, out=p)
    return np.flatnonzero((c0 <= 1e-4 * p) | (p > 1e50))


def _newton_step(x, d, s, rows):
    """One Newton step, in place on the row x, on the characteristic
    polynomial P_m of the order m = 3 or 4 Jacobi matrices, evaluated with
    its derivative by the three-term recurrence
    P_{k+1} = (x - d_k) P_k - s_k P_{k-1}; no step where the derivative is
    0.  Uses four rows of ``rows`` at m = 3 and five at m = 4."""
    m = d.shape[0]
    p1, dp, p, t = rows[:4]
    dp2 = rows[4] if m == 4 else dp
    np.subtract(x, d[0], out=p1)  # P1
    np.subtract(x, d[1], out=t)
    np.add(p1, t, out=dp2)  # P2'
    t *= p1
    t -= s[0]  # P2
    np.subtract(x, d[2], out=p)
    np.multiply(dp2, p, out=dp)
    dp += t
    dp -= s[1]  # P3'
    p *= t
    p1 *= s[1]
    p -= p1  # P3
    if m == 4:
        np.subtract(x, d[3], out=p1)
        dp *= p1
        dp += p
        dp2 *= s[2]
        dp -= dp2  # P4'
        p *= p1
        t *= s[2]
        p -= t  # P4
    dp[dp == 0] = np.inf
    p /= dp
    x -= p


def _dense_eigenvalues(diag, offdiag):
    """``numpy.linalg.eigvalsh`` of the dense (J, m, m) Jacobi matrices,
    filled through strided views of their diagonals; (J, m) ascending.

    With ``count`` = min(CPUs, J m^2 // ``SPLIT_VALUES``) >= 2 the matrices
    are cut into ``count`` contiguous parts: the first is solved here, the
    others by the helper threads (``_helper_tasks``), and each part's
    eigenvalues overwrite row 0 of its own solved matrices, so the result is
    a view of the matrices and needs no other buffer.  An error of any part
    is raised after every part has finished."""
    J, m = diag.shape
    A = np.zeros((J, m, m))
    flat = A.reshape(J, m * m)
    flat[:, :: m + 1] = diag
    flat[:, 1 :: m + 1] = offdiag
    flat[:, m :: m + 1] = offdiag
    count = J * m * m // SPLIT_VALUES
    if count > 1:
        count = min(count, _cpu_count())
    if count <= 1:
        return np.linalg.eigvalsh(A)
    tasks, done = _helper_tasks(count - 1)
    edges = [J * i // count for i in range(count + 1)]
    for lo, hi in zip(edges[1:-1], edges[2:]):
        tasks.put((A[lo:hi], done))
    head = A[: edges[1]]
    try:
        head[:, 0] = np.linalg.eigvalsh(head)
    finally:
        errors = [done.get() for _ in range(count - 1)]
    for error in errors:
        if error is not None:
            raise error
    return A[:, 0]


def _cpu_count():
    """CPUs this process may run on: its affinity mask where there is one."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


# The helpers' task queue, their count and the lock that starts them; a
# forked child has no helper thread, so it starts afresh (``_no_helpers``)
_helpers = {"tasks": None, "count": 0, "lock": threading.Lock()}


def _helper_tasks(count):
    """The queue that feeds at least ``count`` helper threads, started on
    first use, and a new queue for one call's completions.  ``queue`` is
    imported here, so that an import of hyqmom starts no thread and loads
    no queue module."""
    import queue

    with _helpers["lock"]:
        if _helpers["tasks"] is None:
            _helpers["tasks"] = queue.SimpleQueue()
        tasks = _helpers["tasks"]
        while _helpers["count"] < count:
            threading.Thread(
                target=_serve, args=(tasks,), name="hyqmom-eigvalsh", daemon=True
            ).start()
            _helpers["count"] += 1
    return tasks, queue.SimpleQueue()


def _serve(tasks):
    """Body of a helper thread: solve each queued part in place and put its
    error, or None, on the part's completion queue.  It drops the part
    before it reports and the completion queue after, so that no array of
    the caller outlives the call."""
    while True:
        part, done = tasks.get()
        try:
            part[:, 0] = np.linalg.eigvalsh(part)
            error = None
        except Exception as exc:  # raised in the calling thread
            error = exc
        del part
        done.put(error)
        del done, error


def _no_helpers():
    _helpers.update(tasks=None, count=0, lock=threading.Lock())


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_no_helpers)


@functools.cache
def _standard_spectrum(couplings):
    """The model (``_model``) of the Jacobi matrix T_std with zero diagonal
    and the squared couplings ``couplings`` (a tuple), from its unit
    eigenvectors v_i: w_ik = v_ik^2 on the diagonal and 2 v_ik v_i,k+1 on
    the couplings.  With the couplings of a factor of the standard normal
    (U = 0, theta = 1) this is the model that ``_jacobi_batch`` starts
    from; built once per tuple, read-only."""
    beta = np.sqrt(np.array(couplings, dtype=float))
    xi, v = np.linalg.eigh(np.diag(beta, 1) + np.diag(beta, -1))
    v = v.T
    return _model(beta, xi, np.concatenate([v * v, 2.0 * v[:, :-1] * v[:, 1:]], axis=1))


def _model(beta, xi, w):
    """(beta, xi, g, w, trusted) of a zero-diagonal Jacobi matrix T_std: its
    couplings beta, ascending eigenvalues xi, their smallest gap g, and the
    rows w of first-order perturbation theory, xi_i + w_i . e ~ the i-th
    eigenvalue of T_std + E for the entries e (diagonal, then couplings) of
    a small tridiagonal E.  ``trusted`` is whether each xi_i is its own
    Rayleigh quotient w_i[m:] . beta to (m+1) eps ||T_std||_F, which a
    moved model is not; only then may a guess stand by Kato-Temple
    (``_newton_from_standard``).  The arrays are made read-only."""
    m = len(xi)
    for arr in (beta, xi, w):
        arr.flags.writeable = False
    tol = (m + 1) * np.finfo(float).eps * np.sqrt(2 * beta @ beta)
    trusted = bool(np.all(np.abs(w[:, m:] @ beta - xi) <= tol))
    return beta, xi, float(np.min(np.diff(xi))), w, trusted


def _standard_deviation(d, off, beta):
    """Per lane, ||(T - cI) / s - T_std||_inf with (c, s) = (d_0, off_0),
    for the order-major rows d (m, J) and off (m-1, J) of T and the
    couplings beta of T_std (zero diagonal): the largest row sum of the
    standardized deviation, which bounds its spectral norm: row 1 of the
    result, row 0 that of T's leading block against beta[:-1].  Non-finite
    where the rows overflow or s = 0, which no filter admits."""
    with np.errstate(all="ignore"):
        dev = np.subtract(d, d[0])
        np.abs(dev, out=dev)
        dev /= off[0]
        e = np.divide(off, off[0])
        e -= beta[:, None]
        np.abs(e, out=e)
        lead = dev[-2] + e[-2]
        dev[:-1] += e
        dev[1:] += e
    np.maximum(dev[-2], dev[-1], out=dev[-1])
    dev[-2] = lead
    return np.maximum(dev[-2:], np.max(dev[:-2], axis=0), out=dev[-2:])


def _factor_rows(count):
    """Rows of one matrix's eigenvalues, or of a leading block's (odd) and
    its matrix's (even), the merged order that strict interlacing ascends."""
    return (slice(None),) if count == 1 else (slice(1, None, 2), slice(0, None, 2))


def _newton_from_standard(d, off, models, x):
    """x filled with the eigenvalues of the order-major rows d (m, K) and
    off (m-1, K) of T near the model ``models[-1]`` (``_model``), given two
    models also of T's leading block near the first (``_factor_rows``), and
    which lanes each factor accepts, (len(models), K).  One filter pass
    admits the lanes within g/8 of each model (``_standard_deviation``
    dev < g/8): by Weyl's bound each window |y - xi_i| < g/2 then holds one
    eigenvalue, and the other eigenvalues lie 3g/4 from the guess.

    On (T - cI) / s = T_std + E, (c, s) = (d_0, off_0), whose entries are of
    order one, the guess xi_i + w_i e is the Rayleigh quotient of T_std's
    i-th eigenvector, with a residual at most ||E||_2 <= dev, so by
    Kato-Temple it is within 4 dev^2 / (3g) of its eigenvalue.  Lanes where
    that is at most eps times the spread of xi stand as they are, if the
    model is trusted; the others take ``_newton_steps``, one loop for both
    factors.  A factor accepts a lane it admits when its iterates have
    stopped in their windows and ascend strictly.  Each factor keeps its
    own threshold, stop and windows, and takes its guess over exactly the
    lanes it admits, so the pair's bits are those of two separate solves.
    That guess, one BLAS product, is the one step that is not lane-local:
    its last bits can depend on how many lanes the factor admits."""
    rows = _factor_rows(len(models))
    m, K = d.shape
    devs = _standard_deviation(d, off, models[-1][0])[-len(models):]
    admitted = devs < [[model[2] / 8] for model in models]
    lanes = np.flatnonzero(admitted[0] | admitted[-1])
    if not lanes.size:
        return x, admitted
    y, idx = x, slice(None)
    if lanes.size < K:
        d, off, devs = (np.take(v, lanes, axis=-1) for v in (d, off, devs))
        y, idx = np.empty((len(x), lanes.size)), lanes
    eps, c, s = np.finfo(float).eps, d[0], off[0]
    e = np.empty((2 * m - 1, lanes.size))
    dt, st = e[:m], e[m:]
    xi, half, stop = np.empty((3, len(y), 1))
    ok, send = np.empty(y.shape, dtype=bool), np.empty(devs.shape, dtype=bool)
    with np.errstate(all="ignore"):
        np.subtract(d, c, out=dt)
        dt /= s
        np.divide(off, s, out=st)
        st -= models[-1][0][:, None]
        factors = zip(rows, models, devs, admitted[:, idx], send)
        for r, (_, xi_f, gap, w, trusted), dev, adm, go in factors:
            k, spread = len(xi_f), xi_f[-1] - xi_f[0]
            # the factor's rows of e on the lanes it admits: the bits of a
            # BLAS product depend on its number of columns
            sel = slice(None) if adm.all() else adm
            ef = e if k == m else np.concatenate((e[:k], e[m : m + k - 1]))
            y[r][:, sel] = np.matmul(w, ef[:, sel]) + xi_f[:, None]
            np.greater(np.square(dev), 0.75 * eps * spread * gap if trusted else -1.0, out=go)
            go &= adm
            ok[r] = ~go
            xi[r, 0], half[r], stop[r] = xi_f, gap / 2, np.sqrt(eps * spread * gap / (2 * k - 2))
        st += models[-1][0][:, None]
        st *= st
        steps = np.flatnonzero(send[0] | send[-1])
        if steps.size == lanes.size:
            _newton_steps(y, e, stop, ok, rows)
        elif steps.size:
            ys, es, oks = (np.take(v, steps, axis=1) for v in (y, e, ok))
            y[:, steps], ok[:, steps] = _newton_steps(ys, es, stop, oks, rows)
        ok &= np.abs(y - xi) < half
        y *= s
        y += c
        # each factor ascends strictly: its rows lie len(rows) apart
        ok[len(rows) :] &= y[len(rows) :] > y[: -len(rows)]
    for f, r in enumerate(rows):
        admitted[f, idx] &= np.all(ok[r], axis=0)
    if y is not x:
        x[:, lanes] = y
    return x, admitted


def _newton_steps(y, e, stop, done, rows):
    """Up to NEWTON_STEPS Newton steps on det(T - y), in place on y (r, K),
    from the standardized rows e (2m - 1, K) of T: diagonal, squared
    couplings, for the factors at ``rows`` (``_factor_rows``): a leading
    block's rows read the recurrence at order m - 1.  p and p' of
    P_{k+1} = (y - d_k) P_k - s_k P_{k-1} are stacked, so that all y - d_k
    take one call and each update one call over the pair.  An
    iterate takes no step once ``done`` and is done after a step of at most
    its row's ``stop`` (r, 1), past which quadratic convergence puts the
    next step below eps times the spread; the update is masked, so every
    bit stays lane-local.  Returns y and done."""
    r, K = y.shape
    m = (len(e) + 1) // 2
    t, T = np.empty((r, K)), np.empty((m, r, K))
    P, Pm, N, U = np.empty((4, 2, r, K))
    with np.errstate(all="ignore"):
        for _ in range(NEWTON_STEPS):
            # T_k = y - d_k; P = (P_k, P_k') and Pm = (P_{k-1}, P_{k-1}')
            np.subtract(y, e[:m, None], out=T)
            Pm[0] = T[0]
            Pm[1] = 1.0
            np.multiply(T[1], Pm[0], out=P[0])
            P[0] -= e[m]
            np.add(T[1], Pm[0], out=P[1])
            for k in range(2, m):
                np.multiply(T[k], P, out=N)
                N[1] += P[0]
                np.multiply(e[m + k - 1], Pm, out=U)
                N -= U
                Pm, P, N = P, N, Pm
            np.divide(P[0], P[1], out=t)
            for lead in rows[:-1]:
                np.divide(Pm[0][lead], Pm[1][lead], out=t[lead])
            t[done] = 0.0
            y -= t
            np.abs(t, out=t)
            done |= t <= stop
            if done.all():
                break
    return y, done


def _christoffel(x, d, off, last):
    """sum_{k<m} p_k(x)^2 at the nodes x (r, J) of the order-major rows
    d (m, J) and off (m-1, J), where beta_{k+1} p_{k+1} = (x - a_k) p_k -
    beta_k p_{k-1}, p_0 = 1; the rows that are not ``last`` hold nodes of
    the leading block and stop at p_{m-2}."""
    m = d.shape[0]
    christoffel = np.ones_like(x)
    sums, p_prev, p = christoffel, None, None
    with np.errstate(divide="ignore", invalid="ignore"):
        for k in range(m - 1):
            if k == m - 2:
                x, sums = x[last], sums[last]
                p_prev, p = (v[last] if isinstance(v, np.ndarray) else v for v in (p_prev, p))
            p_next = x - d[k]
            if k:
                p_next *= p  # p_0 = 1 needs no product
            if k == 1:
                p_next -= off[0]  # beta_1 p_0, with p_0 = 1
            elif k:
                p_prev *= off[k - 1]
                p_next -= p_prev
            p_next /= off[k]
            # from k = 2 on p_prev is spent and takes the square
            sums += np.multiply(p_next, p_next, out=p_prev if k >= 2 else None)
            p_prev, p = p, p_next
    return christoffel


def _jacobi_batch(diag, offdiag, mass=None, last=None, nested=False):
    """Stacked symmetric-tridiagonal eigenvalues; offdiag entries are the
    already-square-rooted couplings beta_1..beta_{m-1}.  With ``nested`` the
    leading block of each matrix is solved in the same pass, its
    eigenvalues at the odd rows of the merged (J, 2m-1) result
    (``_factor_rows``).  Each factor's solver is chosen by its order k
    alone.  Orders <= 4 are solved in closed form
    (``_small_jacobi_eigenvalues``).  From order 5 on the lanes within g/8
    of c I + s T_std, (c, s) = (a_0, beta_1), take the first-order guess,
    certified by Kato-Temple, or Newton steps that stop per lane
    (``_newton_from_standard``), and the others go to one
    ``numpy.linalg.eigvalsh`` call per factor (``_dense_eigenvalues``).
    T_std is the model (``_standard_spectrum``) with the squared couplings
    1, ..., k-2, last: a factor of the standard normal, Q_k for the leading
    block and the default last = k - 1, and R_m for last = 2(m-1) + gamma.
    Given ``mass`` (shape (J, 1)) it also returns the Gauss weights as
    Christoffel numbers mass / sum_{k<m} p_k(x)^2 at every eigenvalue x
    (``_christoffel``), the Golub-Welsch weights mass * (first eigenvector
    components)^2 without eigenvectors.  The closed form and the recurrence
    run order-major, on contiguous length-J rows of the transposed inputs;
    nodes and weights come back as transposed views.  With a zero coupling
    (a decoupled matrix) the eigenvalues are those of the diagonal blocks,
    exactly from LAPACK and within about eps ||T||_F in closed form, and the
    weights are undefined (0 or nan)."""
    J, m = diag.shape
    d, off = diag.T, offdiag.T
    factors = tuple(zip(_factor_rows(2), (m - 1, m))) if nested else ((slice(None), m),)
    x = np.empty((2 * m - 1 if nested else m, J))
    models = []
    for rows, k in factors:
        if k <= 4:
            _small_jacobi_eigenvalues(d[:k], off[: k - 1], x[rows])
        else:
            couplings = (*range(1, k - 1), k - 1 if k < m or last is None else last)
            models.append(_standard_spectrum(couplings))
    if models:
        # lanes that the warm path does not accept go to LAPACK, per factor
        warm = x if len(models) == 2 else x[factors[-1][0]]
        _, accepted = _newton_from_standard(d, off, models, warm)
        for rows, model, ok in zip(_factor_rows(len(models)), models, accepted):
            if not ok.all():
                k, cold = len(model[1]), ~ok
                warm[rows][:, cold] = _dense_eigenvalues(diag[cold, :k], offdiag[cold, : k - 1]).T
    if mass is None:
        return x.T
    return x.T, (mass.T / _christoffel(x, d, off, factors[-1][0])).T


def gauss_quadrature(m):
    """n-point Gauss rule of an even-length (2n) strictly realizable vector.

    The nodes are the zeros of Q_n and the rule reproduces M_0..M_{2n-1}.
    Raises NotRealizableError on realizability failure.
    """
    m = _as_moment_array(m)
    if len(m) % 2:
        raise ValueError("gauss_quadrature expects an even-length moment vector")
    a, b = moments_to_recurrence(m)
    n = len(m) // 2
    nodes, weights = _jacobi_batch(a[None, :n], np.sqrt(b[None, 1:n]), b[None, :1])
    return Quadrature(nodes=nodes[0], weights=weights[0])
