"""Reference implementations that the tests check hyqmom against.

Nothing here imports hyqmom, so each reference stays independent of the
code it checks.  The ``mp_*`` helpers are generic in their scalar type and
are meant for 60-digit mpmath arithmetic; the ones that need mpmath
functions take the ``mp`` context as an argument, so importing this module
never requires mpmath.
"""

import numpy as np


def vandermonde_weights(nodes, power_sums):
    """Solve sum_i w_i x_i^k = q_k by Bjorck-Pereyra progressive elimination.

    The dual Vandermonde algorithm (Bjorck & Pereyra, Math. Comp. 24, 1970);
    accurate for modest sizes and well-separated nodes.
    """
    x = np.asarray(nodes, dtype=float)
    w = np.array(power_sums, dtype=float)
    if len(x) != len(w):
        raise ValueError("need as many power sums as nodes")
    n = len(x) - 1
    for k in range(n):
        for i in range(n, k, -1):
            w[i] -= x[k] * w[i - 1]
    for k in range(n - 1, -1, -1):
        for i in range(k + 1, n + 1):
            w[i] /= x[i] - x[i - k - 1]
        for i in range(k, n):
            w[i] -= w[i + 1]
    return w


def kinetic_flux(left, right, k):
    """Upwind-split kinetic flux of order k across one interface:
    sum w max(0,u)^{k+1} from the left cell plus sum w min(0,u)^{k+1}
    from the right cell."""
    lp = np.maximum(left.nodes, 0.0)
    rm = np.minimum(right.nodes, 0.0)
    return float(
        np.sum(left.weights * lp ** (k + 1)) + np.sum(right.weights * rm ** (k + 1))
    )


def mp_recurrence(m):
    """Wheeler (a, b) of a moment list, odd or even length."""
    L, n = len(m), len(m) // 2
    a, b = [m[1] / m[0]], [m[0]]
    prev, cur = [0] * L, m
    for k in range(1, n + 1 if L % 2 else n):
        nxt = [0] * L
        for l in range(k, L - k):
            nxt[l] = cur[l + 1] - a[k - 1] * cur[l] - b[k - 1] * prev[l]
        b.append(nxt[k] / cur[k - 1])
        if k < n:
            a.append(nxt[k + 1] / nxt[k] - cur[k] / cur[k - 1])
        prev, cur = cur, nxt
    return a, b


def mp_moments_from_recurrence(a, b, length):
    """M_0..M_{length-1} of the measure with monic recurrence rows (a, b):
    b_0 times the (0, 0) entry of A^l, with A tridiagonal with diagonal
    a_k, ones above it and b_1, b_2, ... below it (a sum over Motzkin
    paths).  Paths of length below 2k + 1 never move along level k, so
    a_k may be missing there."""
    size = (length - 1) // 2 + 1
    a = list(a[:size]) + [0] * (size - len(a[:size]))
    w = [1] + [0] * (size - 1)  # row 0 of A^l
    out = []
    for _ in range(length):
        out.append(b[0] * w[0])
        w = [
            w[j] * a[j]
            + (w[j - 1] if j else 0)
            + (w[j + 1] * b[j + 1] if j + 1 < size else 0)
            for j in range(size)
        ]
    return out


def mp_mul(p, q):
    """Product of two low-to-high coefficient lists."""
    out = [0] * (len(p) + len(q) - 1)
    for i, x in enumerate(p):
        for j, y in enumerate(q):
            out[i + j] += x * y
    return out


def _mp_tridiagonal(diag, off, mp):
    T = mp.matrix(len(diag), len(diag))
    for k, d in enumerate(diag):
        T[k, k] = d
    for k, o in enumerate(off):
        T[k, k + 1] = T[k + 1, k] = o
    return T


def mp_tridiagonal_eigenvalues(diag, off, mp):
    """Eigenvalues of the symmetric tridiagonal matrix with diagonal
    ``diag`` and off-diagonal ``off`` (already square-rooted couplings),
    by mpmath's dense symmetric eigensolver."""
    return list(mp.eigsy(_mp_tridiagonal(diag, off, mp), eigvals_only=True))


def mp_golub_welsch(diag, off, mass, mp):
    """Gauss rule of the same Jacobi matrix by Golub & Welsch: nodes in
    ascending order and weights mass * (first eigenvector component)^2,
    from mpmath's dense symmetric eigensolver."""
    nodes, vecs = mp.eigsy(_mp_tridiagonal(diag, off, mp))
    order = sorted(range(len(diag)), key=lambda i: nodes[i])
    return [nodes[i] for i in order], [mass * vecs[0, i] ** 2 for i in order]
