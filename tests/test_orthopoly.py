import json

import numpy as np
import pytest

import hyqmom as hq
from hyqmom.moments import _moments_from_recurrence_batch
from hyqmom.orthopoly import _jacobi_batch, _monic_pair_batch
from corpus import random_even_moments, random_odd_moments
from reference import mp_golub_welsch, vandermonde_weights


def monic(a, b, deg):
    """Q_deg of the monic recursion with coefficients a, b."""
    return _monic_pair_batch(np.array([a], dtype=float), np.array([b], dtype=float), deg)[0][0]


class TestBuildPolynomials:
    def test_hermite_start(self):
        a, b = [0.0, 0.0], [99.0, 1.0]
        assert np.allclose(monic(a, b, 1), [0, 1])          # X
        assert np.allclose(monic(a, b, 2), [-1, 0, 1])      # X^2 - 1

    def test_centering(self):
        U = 1.8
        assert np.allclose(monic([U], [5.0], 1), [-U, 1])

    def test_hermite_cubic(self):
        # apply the recursion by hand: Q_3 = X^3 - 3X
        q3 = monic([0.0, 0.0, 0.0], [7.0, 1.0, 2.0], 3)
        assert np.allclose(q3, [0, -3, 0, 1])

    def test_recursion_holds_coefficientwise(self, rng):
        a = rng.uniform(-2, 2, 5)
        b = rng.uniform(0.1, 5, 5)
        polys = [monic(a, b, k) for k in range(6)]
        for k in range(1, 5):
            lhs = polys[k + 1]
            rhs = np.zeros_like(lhs)
            rhs[1:] = polys[k]
            rhs[: k + 1] -= a[k] * polys[k]
            rhs[: k] -= b[k] * polys[k - 1]
            assert np.array_equal(lhs, rhs)


class TestJacobiRoots:
    def test_degree_two(self):
        assert np.allclose(hq.jacobi_roots([0, 0], [1]), [-1, 1])

    def test_degree_three(self):
        assert np.allclose(hq.jacobi_roots([0, 0, 0], [1, 2]), [-np.sqrt(3), 0, np.sqrt(3)], atol=1e-14)

    def test_affine_image(self):
        U, th = 2.5, 3.0
        roots = hq.jacobi_roots([U, U], [th])
        assert np.allclose(roots, [U - np.sqrt(th), U + np.sqrt(th)])

    def test_single_node(self):
        assert np.allclose(hq.jacobi_roots([0.7], []), [0.7])

    def test_nonpositive_weight_rejected(self):
        with pytest.raises(ValueError):
            hq.jacobi_roots([0, 0], [-1.0])

    def test_matches_polynomial_roots(self, rng):
        # refined roots of the built polynomial agree with the eigenvalues
        for n in (2, 3, 4, 5, 6):
            m = random_odd_moments(rng, n)[0]
            a, b = hq.moments_to_recurrence(m)
            roots = hq.jacobi_roots(a[:n], b[1:n])
            poly = monic(a, b, n)
            alt = np.sort(np.roots(poly[::-1]).real)
            radius = np.max(np.abs(roots))
            assert np.max(np.abs(roots - alt)) < 1e-9 * radius


class TestGaussQuadrature:
    def test_two_point_rule(self):
        q = hq.gauss_quadrature([1, 0, 1, 0])
        assert np.allclose(q.nodes, [-1, 1])
        assert np.allclose(q.weights, [0.5, 0.5])

    def test_single_delta(self):
        rho, U = 2.5, -1.2
        q = hq.gauss_quadrature([rho, rho * U])
        assert np.allclose(q.nodes, [U])
        assert np.allclose(q.weights, [rho])

    def test_three_point_hermite(self):
        q = hq.gauss_quadrature([1, 0, 1, 0, 3, 0])
        assert np.allclose(q.nodes, [-np.sqrt(3), 0, np.sqrt(3)], atol=1e-14)
        # oracle: solve the moment system at the computed nodes directly
        V = np.vander(q.nodes, increasing=True).T
        w = np.linalg.solve(V, [1, 0, 1])
        assert np.allclose(q.weights, w)
        assert np.allclose(q.weights, [1 / 6, 2 / 3, 1 / 6])

    def test_moment_reproduction(self, rng):
        for n in range(1, 7):
            m = random_even_moments(rng, n)[0]
            q = hq.gauss_quadrature(m)
            assert np.min(q.weights) > 0
            assert np.all(np.diff(q.nodes) > 0)
            for k in range(2 * n):
                scale = float(np.sum(q.weights * np.abs(q.nodes) ** k)) + abs(m[k])
                assert abs(q.power_sum(k) - m[k]) < 1e-9 * scale

    def test_mass_matches(self, rng):
        m = random_even_moments(rng, 3)[0]
        q = hq.gauss_quadrature(m)
        assert np.sum(q.weights) == pytest.approx(m[0], rel=1e-12)

    def test_odd_length_rejected(self):
        with pytest.raises(ValueError):
            hq.gauss_quadrature([1, 0, 1])

    def test_not_realizable(self):
        with pytest.raises(hq.NotRealizableError):
            hq.gauss_quadrature([1, 0, 1, 0, 1, 0])

    def test_json(self):
        q = hq.gauss_quadrature([1, 0, 1, 0])
        data = json.loads(q.to_json())
        assert np.allclose(data["nodes"], [-1.0, 1.0])
        assert np.allclose(data["weights"], [0.5, 0.5])


def _recurrence_row(rng, m, case):
    """Recurrence rows a (m,) and b (m,) of a Gaussian-like measure: a_k
    near U, b_k near k theta, mass b_0 in [0.5, 2].  ``near boundary``
    scales one coupling b_k (k >= 1) by 1e-10."""
    theta = rng.uniform(0.5, 2.0)
    U = 5.0 if case == "U=5" else 0.0
    a = U + rng.uniform(-0.3, 0.3, m) * np.sqrt(theta)
    b = np.arange(m) * theta * rng.uniform(0.5, 1.5, m)
    b[0] = rng.uniform(0.5, 2.0)
    if case == "near boundary" and m > 1:
        b[rng.integers(1, m)] *= 1e-10
    return a, b


class TestChristoffelWeights:
    CASES = ("U=0", "U=5", "near boundary")

    @pytest.mark.parametrize("case", CASES)
    def test_high_precision_golub_welsch_reference(self, rng, case):
        # the same double-precision Jacobi matrices solved at 60 digits;
        # weights read from eigh's eigenvectors were off by up to 6e-8 on
        # the near-boundary rows and 1.1e-12 at U = 5
        mpmath = pytest.importorskip("mpmath")
        mp = mpmath.mp
        worst = 0.0
        with mpmath.workdps(60):
            for m in range(1, 12):
                for _ in range(4):
                    a, b = _recurrence_row(rng, m, case)
                    off = np.sqrt(b[1:])
                    nodes, weights = _jacobi_batch(a[None, :], off[None, :], b[None, :1])
                    ref_nodes, ref_weights = mp_golub_welsch(
                        [mp.mpf(x) for x in a], [mp.mpf(x) for x in off], mp.mpf(b[0]), mp
                    )
                    for x, rx in zip(nodes[0], ref_nodes):
                        assert abs(mp.mpf(x) - rx) <= 1e-13 * max(1, abs(rx))
                    for w, rw in zip(weights[0], ref_weights):
                        worst = max(worst, float(abs(mp.mpf(w) - rw) / rw))
        print(f"\n{case}: worst relative weight error {worst:.2e}")
        assert worst <= 1e-12

    @pytest.mark.parametrize("case", CASES)
    def test_gauss_rule_reproduces_moments(self, rng, case):
        # sum_i w_i x_i^k against the input M_k, summed at 60 digits and
        # scaled by sum_i |w_i x_i^k|
        mpmath = pytest.importorskip("mpmath")
        mp = mpmath.mp
        worst = 0.0
        with mpmath.workdps(60):
            for n in range(1, 11):
                for _ in range(4):
                    a, b = _recurrence_row(rng, n, case)
                    m = _moments_from_recurrence_batch(a[None, :], b[None, :], 2 * n)[0]
                    q = hq.gauss_quadrature(m)
                    for k in range(2 * n):
                        terms = [mp.mpf(w) * mp.mpf(x) ** k for w, x in zip(q.weights, q.nodes)]
                        err = abs(mp.fsum(terms) - m[k]) / mp.fsum(abs(t) for t in terms)
                        worst = max(worst, float(err))
        print(f"\n{case}: worst scaled moment residual {worst:.2e}")
        assert worst <= 1e-12


class TestInterlacing:
    def test_basic(self):
        r3 = np.sqrt(3)
        assert hq.check_interlacing([0], [-r3, r3])
        assert hq.check_interlacing([-1, 1], [-np.sqrt(6), 0, np.sqrt(6)])

    def test_non_strict_fails(self):
        assert not hq.check_interlacing([0], [0, 1])

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            hq.check_interlacing([0, 1], [0, 1])

    def test_consecutive_polynomials_interlace(self, rng):
        for n in (2, 3, 4, 5):
            m = random_odd_moments(rng, n)[0]
            a, b = hq.moments_to_recurrence(m)
            inner = hq.jacobi_roots(a[: n - 1], b[1 : n - 1])
            outer = hq.jacobi_roots(a[:n], b[1:n])
            assert hq.check_interlacing(inner, outer)


class TestVandermondeWeights:
    def test_against_dense_solve(self, rng):
        for size in (2, 4, 7, 11):
            x = np.sort(rng.uniform(-3, 3, size))
            while np.min(np.diff(x)) < 1e-2:
                x = np.sort(rng.uniform(-3, 3, size))
            q = rng.uniform(-2, 2, size)
            V = np.vander(x, increasing=True).T
            expect = np.linalg.solve(V, q)
            got = vandermonde_weights(x, q)
            assert np.allclose(got, expect, rtol=1e-8, atol=1e-10)

    def test_known_rule(self):
        w = vandermonde_weights([-np.sqrt(3), 0, np.sqrt(3)], [1, 0, 1])
        assert np.allclose(w, [1 / 6, 2 / 3, 1 / 6])

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            vandermonde_weights([0.0, 1.0], [1.0])
