"""Moment closures and the spectral structure of the closed systems.

Every closure is fixed by a monic polynomial G of degree N+1 through the
one identity M_{N+1} = <X^{N+1} - G> = -<G[:-1], M>, and G is then the
characteristic polynomial of the closed system (criterion <dG/dM> = 0).
The four variants differ only in G:

* ``qmom``      -- G = Q_n^2 on an even-length vector: the n-point delta
                   reconstruction, which places the augmented vector on the
                   cone boundary (<Q_n^2> = 0).  Every characteristic root
                   has multiplicity two.
* ``hyqmom``    -- G = Q_n R_{n+1} on an odd-length vector, with
                   R_{n+1} = (X - a_n) Q_n - ((2n+gamma)/n) b_n Q_{n-1} and
                   a_n = (gamma/n) * sum(a_0..a_{n-1}); strictly hyperbolic
                   for gamma > -2n, with positive eigenvalue weights for
                   gamma > -n.  gamma = 1 is the affine-invariant member.
* ``new``       -- G = Q_n^2 - Q_{n-1}^2 on an even-length vector, giving 2n
                   distinct characteristic roots while staying a pure moment
                   functional.
* ``polynomial`` -- user-supplied G(X; M), whose criterion <dG/dM> = 0 is
                   validated numerically.

For hyqmom, <Q_n R_{n+1}> = <(X - a_n) Q_n^2> - ((2n+gamma)/n) b_n
<Q_n Q_{n-1}>, and the last term vanishes by orthogonality: the closure is
the unique M_{2n+1} whose induced a_n is the prescribed one.  The system
eigenvalues are the merged, interlacing roots of the two factors.

Whether a computed hyqmom spectrum is certified is decided here and only
here, by ``_spectral_verdicts``: ``spectral_decomposition`` (and with it
``hyqmom spectrum``) and ``hyqmom verify-hyperbolicity`` read its masks.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .moments import (
    _as_moment_array,
    affine_transform,
    moments_to_recurrence,
)
from .orthopoly import (
    NEAR_DEGENERACY_RTOL,
    _jacobi_batch,
    _monic_pair_batch,
)

VARIANTS = ("qmom", "hyqmom", "new", "polynomial")


class InconsistentClosureError(ValueError):
    """Supplied closure polynomial violates the <dG/dM> = 0 criterion."""


@dataclass
class ClosureSpec:
    variant: str = "hyqmom"
    gamma: float = 1.0
    builder: object = None

    def __post_init__(self):
        if self.variant not in VARIANTS:
            raise ValueError(f"unknown closure variant {self.variant!r}")
        if not np.isfinite(self.gamma):
            raise ValueError("gamma must be finite")
        if self.variant == "polynomial" and not callable(self.builder):
            raise ValueError("polynomial closure needs a callable builder")


@dataclass
class CharacteristicPolynomial:
    """Monic characteristic coefficients (low-to-high) plus exposed factors."""

    c: np.ndarray
    factors: dict


@dataclass
class SpectralDecomposition:
    """Eigenstructure of a closed hyqmom system.

    Eigenvalues follow the canonical merged-union ordering: roots of
    R_{n+1} at even indices, roots of Q_n at odd indices; strict interlacing
    makes the sequence strictly increasing.  The weights solve the
    Vandermonde moment system sum_i omega_i lambda_i^k = M_k, k <= 2n.
    """

    c: np.ndarray
    eigenvalues: np.ndarray
    weights: np.ndarray
    factors: dict
    gamma: float
    weights_positive: bool = True
    near_degenerate: bool = False

    def as_dict(self):
        return {
            "c": [float(x) for x in self.c],
            "lambda": [float(x) for x in self.eigenvalues],
            "omega": [float(x) for x in self.weights],
            "factors": {
                "Qn": [float(x) for x in self.factors["Qn"]],
                "Rn1": [float(x) for x in self.factors["Rn1"]],
            },
        }


def _check_gamma(gamma, n):
    if gamma <= -2 * n:
        raise ValueError(f"gamma must exceed -2n = {-2 * n}, got {gamma}")


def _odd_input(m):
    m = _as_moment_array(m)
    if len(m) % 2 == 0 or len(m) < 3:
        raise ValueError("hyqmom closures take an odd-length vector (M_0..M_2n), n >= 1")
    return m


def _even_input(m):
    m = _as_moment_array(m)
    if len(m) % 2 or len(m) < 2:
        raise ValueError("this closure takes an even-length vector (M_0..M_{2n-1}), n >= 1")
    return m


def _hyqmom_an(a, gamma):
    """The hyqmom rule a_n = (gamma/n) * sum(a_0..a_{n-1}) for rows a (J, n)."""
    return gamma / a.shape[1] * np.sum(a, axis=1)


def _row_products(p, q):
    """Row-wise polynomial products of coefficient rows p and q."""
    out = np.zeros((p.shape[0], p.shape[1] + q.shape[1] - 1), dtype=np.result_type(p, q))
    for i in range(p.shape[1]):
        out[:, i : i + q.shape[1]] += p[:, i : i + 1] * q
    return out


def _characteristic_rows(a, b, variant, gamma):
    """Characteristic coefficient rows (low-to-high) and factor rows of the
    hyqmom, qmom or new closure from Wheeler rows (a, b); dtype generic.
    For hyqmom, R_{n+1} = (x - a_n) Q_n - ((2n + gamma)/n) b_n Q_{n-1}."""
    n = a.shape[1]
    qn, qm = _monic_pair_batch(a, b, n)
    if variant == "hyqmom":
        rn1 = np.zeros((a.shape[0], n + 2), dtype=qn.dtype)
        rn1[:, 1:] = qn
        rn1[:, : n + 1] -= _hyqmom_an(a, gamma)[:, None] * qn
        rn1[:, :n] -= ((2 * n + gamma) / n) * b[:, n:] * qm
        return _row_products(qn, rn1), {"Qn": qn, "Rn1": rn1}
    c = _row_products(qn, qn)
    if variant == "qmom":
        return c, {"Qn": qn}
    c[:, : 2 * n - 1] -= _row_products(qm, qm)
    return c, {"Qn": qn, "Qn_minus_1": qm}


def close(m, spec):
    """Closure named by ``spec``: M_{N+1} = -<G[:-1], M> with G the
    characteristic polynomial of the closed system."""
    return float(-np.dot(characteristic_polynomial(m, spec).c[:-1], m))


def _ladder_scales(m):
    """Per-component magnitude floor M_0 * V^j for derivative step sizes."""
    v = abs(m[1] / m[0]) + (np.sqrt(m[2] / m[0]) if len(m) >= 3 else 1.0)
    v = max(v, 1e-6)
    return np.maximum(np.abs(m), m[0] * v ** np.arange(len(m)))


def _validated_builder_poly(m, builder, tol=1e-6):
    """Check the polynomial-closure criterion <dG/dM> = 0 by central
    differences of the builder's coefficients; the finite-difference floor
    in double precision sets the default tolerance."""
    g = np.asarray(builder(m), dtype=float)
    if len(g) != len(m) + 1 or abs(g[-1] - 1.0) > 1e-12:
        raise InconsistentClosureError(
            "builder must return a monic polynomial of degree len(m)"
        )
    scales = _ladder_scales(m)
    worst = 0.0
    for j in range(len(m)):
        h = 1e-6 * scales[j]
        mp = m.copy()
        mp[j] += h
        mm = m.copy()
        mm[j] -= h
        dg = (np.asarray(builder(mp), float) - np.asarray(builder(mm), float)) / (2 * h)
        resid = np.dot(dg[:-1], m)
        scale = np.sum(np.abs(dg[:-1]) * np.abs(m)) + scales[min(j + 1, len(m) - 1)]
        worst = max(worst, abs(resid) / scale)
    if worst > tol:
        raise InconsistentClosureError(
            f"<dG/dM> residual {worst:.3e} exceeds {tol:.1e}: supplied polynomial "
            "is not the characteristic polynomial of its own closure"
        )
    return g


def characteristic_polynomial(m, spec):
    """Characteristic polynomial of the closed system, with factors exposed.

    hyqmom: Q_n * R_{n+1}; qmom: Q_n^2; new: Q_n^2 - Q_{n-1}^2;
    polynomial: the validated G itself.
    """
    if spec.variant == "polynomial":
        m = _as_moment_array(m)
        moments_to_recurrence(m)
        return CharacteristicPolynomial(c=_validated_builder_poly(m, spec.builder), factors={})
    c, factors = _characteristic_rows(*_recurrence_rows(m, spec), spec.variant, spec.gamma)
    return CharacteristicPolynomial(c=c[0], factors={k: f[0] for k, f in factors.items()})


def _recurrence_rows(m, spec):
    """Validated Wheeler rows (a, b), shapes (1, n) and (1, len(b)), of a
    hyqmom (odd-length) or qmom/new (even-length) input; one sweep."""
    if spec.variant == "hyqmom":
        m = _odd_input(m)
        _check_gamma(spec.gamma, len(m) // 2)
    else:
        m = _even_input(m)
    a, b = moments_to_recurrence(m)
    return a[None, :], b[None, :]


def _companion(c):
    """Companion matrix of the monic c (low-to-high): the shift on the
    superdiagonal and -c_0..-c_N in the last row; dtype follows c."""
    A = np.eye(len(c) - 1, k=1, dtype=c.dtype)
    A[-1, :] = -c[:-1]
    return A


def jacobian_matrix(m, spec):
    """Coefficient matrix of the closed system: the companion matrix of its
    characteristic polynomial."""
    return _companion(characteristic_polynomial(m, spec).c)


def _extended_jacobi_rows(a, b, gamma, scale):
    """Order-major rows, diagonal (n+1, J) and couplings (n, J), of the
    order n + 1 Jacobi matrix that extends the Q_n one of the rows a (J, n)
    and b (J, n+1) by the hyqmom a_n and the coupling sqrt(scale * b_n):
    R_{n+1} at scale (2n + gamma)/n, the gauss variant's augmented Q_{n+1}
    at scale 1.  Its leading rows are the Q_n matrix's."""
    n = a.shape[1]
    diag = np.concatenate([a.T, _hyqmom_an(a, gamma)[None, :]])
    off = np.concatenate([np.sqrt(b.T[1:n]), np.sqrt(scale * b.T[n:])])
    return diag, off


def _spectral_batch(a, b, gamma):
    """Batched merged eigenstructure (lam, om) of hyqmom systems from
    recurrence rows a (J, n) and b (J, n+1), the one spectral kernel of the
    package.  The rows are taken as given (b > 0): no moments are built and
    nothing is gated here, so callers that start from moments gate them first.

    Eigenvalues: one nested eigensolve of the Q_n Jacobi matrix extended by
    one row (diagonal a_n, off-diagonal sqrt(((2n+gamma)/n) b_n)), which is
    the modified-final-row form of R_{n+1}, and of its leading block, Q_n's
    (``_jacobi_batch(..., nested=True)``).  Weights: the unique Vandermonde
    solution assembled from the two Gauss rules,

        omega_odd  = (n+gamma)/(2n+gamma) * w'   (Q_n rule)
        omega_even = n/(2n+gamma) * w''          (R_{n+1} rule)

    so positivity for gamma > -n is structural rather than numerical.
    The merged (lam, om) are (J, 2n+1) transposed views of order-major
    buffers, as the nodes and weights of ``_jacobi_batch`` are.

    The eigensolves of order >= 5 start near the same two matrices at the
    standard state (U = 0, theta = 1, ``orthopoly._standard_spectrum``):
    the Q_n factor's couplings 1..n-1, and R_{n+1}'s also
    (2n + gamma)/n * b_n = 2n + gamma, which is passed as ``last``.
    """
    n = a.shape[1]
    rdiag, roff = _extended_jacobi_rows(a, b, gamma, (2 * n + gamma) / n)
    lam, om = _jacobi_batch(rdiag.T, roff.T, b[:, :1], float(2 * n + gamma), nested=True)
    # at gamma = -2n only the eigenvalues are defined (R_{n+1} = (X - a_n) Q_n);
    # degenerate-limit callers read those and ignore the infinite weights
    with np.errstate(divide="ignore", invalid="ignore"):
        om.T[1::2] *= np.divide(n + gamma, 2 * n + gamma)
        om.T[0::2] *= np.divide(n, 2 * n + gamma)
    return lam, om


def _enclosure_radii(a, b, gamma):
    """Per lane, the eigenvalue enclosure radius (m+1) eps ||T||_F of T_Q
    (order n) plus that of T_R (order n+1), with ||T||_F taken from the
    rows a (J, n) and b (J, n+1); inf where ||T||_F^2 overflows."""
    n = a.shape[1]
    tq = np.sum(a**2, axis=1) + 2 * np.sum(b[:, 1:n], axis=1)
    tr = tq + _hyqmom_an(a, gamma) ** 2 + 2 * (2 * n + gamma) / n * b[:, n]
    return np.finfo(float).eps * ((n + 1) * np.sqrt(tq) + (n + 2) * np.sqrt(tr))


def _spectral_verdicts(a, b, gamma, lam, om):
    """The certification of the merged spectra (lam, om) that
    ``_spectral_batch`` gives for the rows a (J, n) and b (J, n+1): returns
    (failed, gap, separation, radius), where failed maps each rule a lane
    can fail to its (J,) mask, gap is the smallest eigenvalue gap,
    separation is gap / max|lam| and radius the enclosure radius.

    The rules, in this order: ``interlacing`` -- the Q_n and R_{n+1} roots
    do not interlace strictly; ``enclosures overlap`` -- the smallest gap is
    not above the enclosure radius; ``nonpositive weight`` -- a weight is
    not positive, a rule only for gamma > -n, where the theorem gives
    positive weights.  The spectra are those of the rows themselves, the
    Jacobi matrices T_Q and T_R of the two factors, and each computed
    eigenvalue of a symmetric tridiagonal T of order m is enclosed with the
    radius (m+1) eps ||T||_F (``_enclosure_radii``).  For the m >= 5 lanes
    that go to ``eigvalsh`` that is LAPACK's backward-error bound.  For the
    closed-form orders m <= 4, and for the m >= 5 lanes near the standard
    normal's factors that the warm path accepts, it is a measured bound,
    not a proof: checked against 60-digit eigenvalues in the tests (worst
    error 0.36 of the radius for the closed forms, close and near-degenerate
    pairs included, and 0.08 for the warm path up to its filter's edge).
    Interlaced eigenvalues alternate between the two, so disjoint adjacent
    enclosures prove 2n+1 distinct eigenvalues; a small gap alone fails
    nothing, as the theorem gives no lower bound on it.  A radius that
    overflows is inf, and a separation of all-zero eigenvalues NaN.
    """
    n = a.shape[1]
    with np.errstate(over="ignore", invalid="ignore"):
        gaps = np.diff(lam, axis=1)
        gap = np.min(gaps, axis=1)
        radius = _enclosure_radii(a, b, gamma)
        separation = gap / np.max(np.abs(lam), axis=1)
    failed = {"interlacing": ~np.all(gaps > 0, axis=1), "enclosures overlap": ~(gap > radius)}
    if gamma > -n:
        failed["nonpositive weight"] = ~(np.min(om, axis=1) > 0)
    return failed, gap, separation, radius


def spectral_decomposition(m, spec):
    """Full eigenstructure (characteristic coefficients, eigenvalues,
    weights, factors) of a closed hyqmom system: the J = 1 view of
    ``_spectral_batch`` and ``_spectral_verdicts``, raising RuntimeError
    that names every rule the spectrum fails."""
    if spec.variant != "hyqmom":
        raise ValueError(
            "spectral_decomposition is defined for the hyqmom closure; "
            "other variants expose only their characteristic polynomial"
        )
    a, b = _recurrence_rows(m, spec)
    c, factors = _characteristic_rows(a, b, "hyqmom", spec.gamma)
    lam, om = _spectral_batch(a, b, spec.gamma)
    failed, gap, separation, _ = _spectral_verdicts(a, b, spec.gamma, lam, om)
    reasons = [rule for rule, mask in failed.items() if mask[0]]
    if reasons:
        raise RuntimeError(
            f"hyqmom spectrum fails {', '.join(reasons)} (smallest gap {float(gap[0])!r}); the "
            "input sits on the realizability boundary or an internal invariant is broken"
        )
    return SpectralDecomposition(
        c=c[0],
        eigenvalues=lam[0],
        weights=om[0],
        factors={k: f[0] for k, f in factors.items()},
        gamma=spec.gamma,
        weights_positive=bool(np.min(om) > 0),
        near_degenerate=bool(separation[0] < NEAR_DEGENERACY_RTOL),
    )


def verify_affine_invariance(m, spec, u, sigma):
    """Relative commutation defect of the closure with the shift/scale
    operator: ||close(S m) - S(close(m))|| / ||S(close(m))||.

    Vanishes (to rounding) for the hyqmom closure iff gamma = 1, and for
    the qmom closure identically.  ``affine_transform`` refuses a
    non-finite u and a sigma that is not finite and positive.
    """
    m = _as_moment_array(m)
    closed = np.append(m, close(m, spec))
    transformed = affine_transform(m, u, sigma)
    lhs = np.append(transformed, close(transformed, spec))
    rhs = affine_transform(closed, u, sigma)
    return float(np.linalg.norm(lhs - rhs) / np.linalg.norm(rhs))
