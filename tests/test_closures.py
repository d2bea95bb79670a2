import json
import math

import numpy as np
import pytest

import hyqmom as hq
from hyqmom.closures import NEAR_DEGENERACY_RTOL, _spectral_batch, _spectral_verdicts
from hyqmom.moments import _wheeler_batch
from hyqmom.orthopoly import _monic_pair_batch
from corpus import random_even_moments, random_odd_moments
from reference import mp_mul, mp_recurrence, vandermonde_weights

HYQMOM = hq.ClosureSpec("hyqmom", gamma=1.0)
QMOM = hq.ClosureSpec("qmom")
NEW = hq.ClosureSpec("new")


def closure_by_coefficient_inversion(m, gamma):
    """Independent oracle for the hyqmom closure: the induced a_n is affine
    in the appended moment, so two Wheeler evaluations of the augmented
    vector pin the unique appended value with the target a_n."""
    m = np.asarray(m, dtype=float)
    n = len(m) // 2
    a, _, _ = _wheeler_batch(m[None, :])
    target = gamma / n * np.sum(a[0])

    def a_n_of(mx):
        aug = np.append(m, mx)
        aa, _, _ = _wheeler_batch(aug[None, :])
        return aa[0, n]

    f0, f1 = a_n_of(0.0), a_n_of(1.0)
    return (target - f0) / (f1 - f0)


class TestCloseQmom:
    def test_symmetric_two_node(self):
        # oracle: quadrature power sum
        q = hq.gauss_quadrature([1, 0, 1, 0])
        assert q.power_sum(4) == pytest.approx(1.0)
        assert hq.close([1, 0, 1, 0], QMOM) == pytest.approx(1.0)

    def test_single_delta(self):
        rho, U = 2.0, 1.5
        assert hq.close([rho, rho * U], QMOM) == pytest.approx(rho * U**2)

    def test_quadrature_oracle_random(self, rng):
        for n in (1, 2, 3, 4):
            m = random_even_moments(rng, n)[0]
            q = hq.gauss_quadrature(m)
            closed = hq.close(m, QMOM)
            assert closed == pytest.approx(q.power_sum(2 * n), rel=1e-9)

    def test_augmented_vector_on_boundary(self, rng):
        # augmented Hankel determinant vanishes (boundary of the cone)
        for n in (1, 2, 3):
            m = random_even_moments(rng, n)[0]
            aug = np.append(m, hq.close(m, QMOM))
            H = hq.hankel_matrix(aug)
            det_full = np.linalg.det(H)
            det_sub = np.linalg.det(H[:-1, :-1])
            theta = m[2] / m[0] - (m[1] / m[0]) ** 2 if n >= 2 else 1.0
            assert abs(det_full) <= 1e-9 * abs(det_sub) * max(theta, 1.0) * (n + 1)

    def test_not_realizable(self):
        with pytest.raises(hq.NotRealizableError):
            hq.close([1, 0, 1, 0, 1, 0], QMOM)


class TestCloseHyqmom:
    def test_standard_normal_closure(self):
        assert hq.close([1, 0, 1, 0, 3], HYQMOM) == pytest.approx(0.0, abs=1e-14)

    def test_n1_symmetric(self):
        assert hq.close([1, 0, 1], HYQMOM) == pytest.approx(0.0, abs=1e-14)

    def test_gamma_zero_symmetric(self):
        # oracle: invert the linear coefficient/moment relation directly
        oracle = closure_by_coefficient_inversion([1, 0, 1, 0, 3], 0.0)
        assert oracle == pytest.approx(0.0, abs=1e-12)
        spec = hq.ClosureSpec("hyqmom", gamma=0.0)
        assert hq.close([1, 0, 1, 0, 3], spec) == pytest.approx(0.0, abs=1e-14)

    def test_coefficient_inversion_oracle_random(self, rng):
        for n in (1, 2, 3):
            for gamma in (-2 * n + 0.1, 0.0, 1.0, 5.0):
                m = random_odd_moments(rng, n, a_range=(-2, 2), b_range=(0.3, 3))[0]
                expect = closure_by_coefficient_inversion(m, gamma)
                spec = hq.ClosureSpec("hyqmom", gamma=gamma)
                assert hq.close(m, spec) == pytest.approx(expect, rel=1e-8)

    def test_maxwellian_stays_maxwellian(self, rng):
        # gamma=1 closure of rho*Delta_0..Delta_2n returns rho*Delta_{2n+1}
        for n in (1, 2, 3, 4):
            rho, U, th = 1.7, -0.6, 2.2
            m = hq.maxwellian_moments(rho, U, th, 2 * n)
            expect = rho * hq.gaussian_moments(2 * n + 1, U, th)[..., 2 * n + 1]
            assert hq.close(m, HYQMOM) == pytest.approx(expect, rel=1e-10)

    def test_homogeneous_of_order_one(self, rng):
        m = random_odd_moments(rng, 3)[0]
        for c in (0.3, 2.0, 17.0):
            assert hq.close(c * m, HYQMOM) == pytest.approx(
                c * hq.close(m, HYQMOM), rel=1e-11
            )

    def test_gamma_domain(self):
        with pytest.raises(ValueError, match="gamma"):
            hq.close([1, 0, 1], hq.ClosureSpec("hyqmom", gamma=-2.0))

    def test_parity_validation(self):
        with pytest.raises(ValueError):
            hq.close([1, 0, 1, 0], HYQMOM)


ODD = np.array([1.0, 0.2, 1.3, 0.5, 4.1])
EVEN = ODD[:4]


@pytest.mark.parametrize(
    "call",
    [
        lambda: hq.close(ODD, HYQMOM),
        lambda: hq.spectral_decomposition(ODD, HYQMOM),
        lambda: hq.close(EVEN, QMOM),
        lambda: hq.close(EVEN, NEW),
        lambda: hq.characteristic_polynomial(ODD, HYQMOM),
        lambda: hq.characteristic_polynomial(EVEN, QMOM),
        lambda: hq.characteristic_polynomial(EVEN, NEW),
    ],
    ids=[
        "close-hyqmom",
        "spectral_decomposition",
        "close-qmom",
        "close-new",
        "characteristic_polynomial-hyqmom",
        "characteristic_polynomial-qmom",
        "characteristic_polynomial-new",
    ],
)
def test_one_wheeler_sweep_per_call(call, count_calls):
    sweeps = count_calls(hq.moments, "_wheeler_batch")
    call()
    assert sweeps[0] == 1


def _mp_closure(row, mp, gamma=None):
    """The closed moment of one double row at mpmath precision, the value
    that annihilates <(X - a_n) Q_n^2> (hyqmom, gamma given), <Q_n^2>
    (qmom, gamma None) or <Q_n^2 - Q_{n-1}^2> (new, gamma "new"), and the
    magnitude sum |p_k M_k| of the terms it is summed from."""
    m = [mp.mpf(float(x)) for x in row]
    a, b = mp_recurrence(m)
    n = len(a)
    q = [[1], [-a[0], 1]]
    for k in range(1, n):
        nxt = [0] + q[k]
        for i, c in enumerate(q[k]):
            nxt[i] -= a[k] * c
        for i, c in enumerate(q[k - 1]):
            nxt[i] -= b[k] * c
        q.append(nxt)
    p = mp_mul(q[n], q[n])
    if gamma == "new":
        for i, c in enumerate(mp_mul(q[n - 1], q[n - 1])):
            p[i] -= c
    elif gamma is not None:
        p = mp_mul(p, [-mp.mpf(gamma) / n * mp.fsum(a), 1])
    terms = [c * x for c, x in zip(p, m)]
    return -mp.fsum(terms), mp.fsum(abs(t) for t in terms)


def test_high_precision_closure_reference():
    # 60-digit closures of the exact double rows: a ~ U[-2, 2],
    # b ~ U[0.3, 3], n = 1..8, 20 draws per cell.  The error is taken
    # relative to the magnitude of the summed terms, since an exact closure
    # can cancel far below the moments it is made of.
    mpmath = pytest.importorskip("mpmath")
    rng = np.random.default_rng(3)
    worst = {}
    with mpmath.workdps(60):
        for n in range(1, 9):
            cells = [(f"hyqmom gamma={g}", random_odd_moments, gv,
                      hq.ClosureSpec("hyqmom", gamma=gv))
                     for g, gv in (("1", 1.0), ("0", 0.0), ("-n+0.1", -n + 0.1))]
            cells += [("qmom", random_even_moments, None, QMOM),
                      ("new", random_even_moments, "new", NEW)]
            for name, draw, key, spec in cells:
                for m in draw(rng, n, count=20, a_range=(-2, 2), b_range=(0.3, 3)):
                    exact, scale = _mp_closure(m, mpmath.mp, key)
                    err = float(abs(hq.close(m, spec) - exact) / scale)
                    worst[name] = max(worst.get(name, 0.0), err)
    assert max(worst.values()) <= 1e-14, worst


class TestCloseNew:
    def test_symmetric_two_node(self):
        # the qmom closure gives 1; <Q_1^2> = <X^2> = 1
        assert hq.close([1, 0, 1, 0], NEW) == pytest.approx(2.0)

    def test_single_delta(self):
        rho, U = 2.0, 1.5
        assert hq.close([rho, rho * U], NEW) == pytest.approx(rho * U**2 + rho)

    def test_quartic_roots_distinct(self):
        cp = hq.characteristic_polynomial([1, 0, 1, 0], NEW)
        # (X^2-1)^2 - X^2
        assert np.allclose(cp.c, [1, 0, -3, 0, 1])
        roots = np.linalg.eigvals(hq.jacobian_matrix([1, 0, 1, 0], NEW))
        roots = np.sort(roots.real)
        assert np.max(np.abs(np.imag(np.linalg.eigvals(
            hq.jacobian_matrix([1, 0, 1, 0], NEW)
        )))) < 1e-10
        assert np.min(np.diff(roots)) > 0.1

    def test_exceeds_qmom(self, rng):
        # the closure adds the positive norm <Q_{n-1}^2>
        for n in (1, 2, 3):
            m = random_even_moments(rng, n)[0]
            assert hq.close(m, NEW) > hq.close(m, QMOM)


class TestCharacteristicPolynomial:
    def test_n1_factorization(self):
        cp = hq.characteristic_polynomial([1, 0, 1], HYQMOM)
        assert np.allclose(cp.c, [0, -3, 0, 1])
        assert np.allclose(cp.factors["Qn"], [0, 1])
        assert np.allclose(cp.factors["Rn1"], [-3, 0, 1])

    def test_n2_factorization(self):
        cp = hq.characteristic_polynomial([1, 0, 1, 0, 3], HYQMOM)
        assert np.allclose(cp.c, [0, 6, 0, -7, 0, 1])
        assert np.allclose(cp.factors["Qn"], [-1, 0, 1])
        assert np.allclose(cp.factors["Rn1"], [0, -6, 0, 1])

    def test_qmom_square(self):
        cp = hq.characteristic_polynomial([1, 0, 1, 0], QMOM)
        assert np.allclose(cp.c, [1, 0, -2, 0, 1])  # (X^2 - 1)^2

    def test_finite_difference_jacobian_oracle(self, rng):
        # central differences of the closure against the factored coefficients
        for n in (1, 2, 3):
            for gamma in (0.0, 1.0, 2.5):
                m = random_odd_moments(rng, n, a_range=(-2, 2), b_range=(0.5, 2))[0]
                spec = hq.ClosureSpec("hyqmom", gamma=gamma)
                cp = hq.characteristic_polynomial(m, spec)
                scales = np.maximum(np.abs(m), m[0])
                cfd = np.zeros(2 * n + 1)
                for j in range(2 * n + 1):
                    h = 3e-6 * scales[j]
                    mp, mm = m.copy(), m.copy()
                    mp[j] += h
                    mm[j] -= h
                    cfd[j] = -(
                        hq.close(mp, spec) - hq.close(mm, spec)
                    ) / (2 * h)
                assert np.max(np.abs(cfd - cp.c[: 2 * n + 1])) < 1e-6 * np.max(
                    np.abs(cp.c)
                )

    def test_polynomial_closure_recovers_qmom(self, rng):
        def builder(m):
            a, b = hq.moments_to_recurrence(m)
            qn = _monic_pair_batch(a[None, :], b[None, :], len(m) // 2)[0][0]
            return np.convolve(qn, qn)

        m = random_even_moments(rng, 2)[0]
        spec = hq.ClosureSpec("polynomial", builder=builder)
        cp = hq.characteristic_polynomial(m, spec)
        ref = hq.characteristic_polynomial(m, QMOM)
        assert np.allclose(cp.c, ref.c, rtol=1e-12)
        assert hq.close(m, spec) == pytest.approx(hq.close(m, QMOM), rel=1e-12)

    def test_inconsistent_polynomial_closure_rejected(self, rng):
        def bad_builder(m):
            g = np.zeros(len(m) + 1)
            g[-1] = 1.0
            g[0] = m[1]  # moment-dependent coefficient breaking the criterion
            return g

        m = random_odd_moments(rng, 2)[0]
        with pytest.raises(hq.InconsistentClosureError):
            hq.characteristic_polynomial(m, hq.ClosureSpec("polynomial", builder=bad_builder))


class TestJacobianMatrix:
    def test_n1_last_row(self):
        A = hq.jacobian_matrix([1, 0, 1], HYQMOM)
        assert np.allclose(A[-1], [0, 3, 0])
        assert np.allclose(A[0], [0, 1, 0])

    def test_n2_last_row(self):
        A = hq.jacobian_matrix([1, 0, 1, 0, 3], HYQMOM)
        assert np.allclose(A[-1], [0, -6, 0, 7, 0])

    def test_companion_consistency(self, rng):
        # char poly of the companion equals the factored coefficients
        for n in (1, 2, 3, 4):
            m = random_odd_moments(rng, n)[0]
            spec = HYQMOM
            A = hq.jacobian_matrix(m, spec)
            cp = hq.characteristic_polynomial(m, spec)
            from_np = np.poly(A)[::-1]  # low-to-high
            assert np.max(np.abs(from_np - cp.c)) < 1e-8 * np.max(np.abs(cp.c))


class TestSpectralDecomposition:
    def test_n1_values(self):
        sd = hq.spectral_decomposition([1, 0, 1], HYQMOM)
        assert np.allclose(sd.eigenvalues, [-np.sqrt(3), 0, np.sqrt(3)], atol=1e-14)
        # oracle: dense Vandermonde solve against the input moments
        V = np.vander(sd.eigenvalues, increasing=True).T
        w = np.linalg.solve(V, [1, 0, 1])
        assert np.allclose(sd.weights, w)
        assert np.allclose(sd.weights, [1 / 6, 2 / 3, 1 / 6])

    def test_n2_merged_ordering(self):
        sd = hq.spectral_decomposition([1, 0, 1, 0, 3], HYQMOM)
        assert np.allclose(
            sd.eigenvalues, [-np.sqrt(6), -1, 0, 1, np.sqrt(6)], atol=1e-13
        )
        # merged order: R_{n+1} roots at even indices, Q_n roots at odd ones
        assert np.all(np.diff(sd.eigenvalues) > 0)

    def test_odd_entries_are_polynomial_roots(self, rng):
        m = random_odd_moments(rng, 3)[0]
        a, b = hq.moments_to_recurrence(m)
        sd = hq.spectral_decomposition(m, HYQMOM)
        assert np.allclose(sd.eigenvalues[1::2], hq.jacobi_roots(a[:3], b[1:3]))

    def test_moment_reproduction_and_positivity(self, rng):
        for n in (1, 2, 3, 4, 5, 6):
            for gamma in (-n + 0.1, 0.0, 1.0, 5.0):
                m = random_odd_moments(rng, n)[0]
                sd = hq.spectral_decomposition(m, hq.ClosureSpec("hyqmom", gamma=gamma))
                assert sd.weights_positive
                for k in range(2 * n + 1):
                    scale = np.sum(sd.weights * np.abs(sd.eigenvalues) ** k) + abs(m[k])
                    assert (
                        abs(np.sum(sd.weights * sd.eigenvalues**k) - m[k])
                        < 1e-8 * scale
                    )

    def test_matches_vandermonde_solver(self, rng):
        for n in (1, 2, 3, 4):
            m = random_odd_moments(rng, n, a_range=(-2, 2), b_range=(0.5, 5))[0]
            sd = hq.spectral_decomposition(m, HYQMOM)
            w = vandermonde_weights(sd.eigenvalues, m)
            assert np.allclose(sd.weights, w, rtol=1e-8, atol=1e-9 * np.max(sd.weights))

    def test_equilibrium_affine_covariance(self, rng):
        # eigenvalues at (rho, U, theta) are U + sqrt(theta) * standard ones
        n = 2
        std = hq.spectral_decomposition(
            hq.maxwellian_moments(1, 0, 1, 2 * n), HYQMOM
        )
        rho, U, th = 2.0, 1.3, 2.9
        sd = hq.spectral_decomposition(
            hq.maxwellian_moments(rho, U, th, 2 * n), HYQMOM
        )
        assert np.allclose(sd.eigenvalues, U + np.sqrt(th) * std.eigenvalues, rtol=1e-9)

    def test_affine_equivariance_of_spectrum(self, rng):
        # shift/scale of the moments shifts/scales the eigenvalues and
        # leaves the weights untouched (gamma = 1)
        for _ in range(10):
            n = int(rng.integers(1, 4))
            m = random_odd_moments(rng, n, a_range=(-2, 2), b_range=(0.3, 3))[0]
            u, s = rng.uniform(-3, 3), rng.uniform(0.5, 2)
            sd = hq.spectral_decomposition(m, HYQMOM)
            sd2 = hq.spectral_decomposition(
                hq.affine_transform(m, u, s), HYQMOM
            )
            assert np.allclose(sd2.eigenvalues, u + s * sd.eigenvalues, rtol=1e-8)
            assert np.allclose(sd2.weights, sd.weights, rtol=1e-8)

    def test_negative_gamma_flags_weights(self, rng):
        # for gamma <= -n positivity is not guaranteed; flagged, not fatal
        n = 2
        m = random_odd_moments(rng, n)[0]
        sd = hq.spectral_decomposition(m, hq.ClosureSpec("hyqmom", gamma=-n - 0.5))
        assert isinstance(sd.weights_positive, bool)

    def test_unsupported_variant(self):
        with pytest.raises(ValueError):
            hq.spectral_decomposition([1, 0, 1, 0], QMOM)

    def test_near_degenerate_flagged_not_fatal(self):
        # a vanishing top recurrence weight pulls roots of the two factors
        # together; flagged as a diagnostic, still a valid decomposition
        def separation(m):
            a, b = (r[None, :] for r in hq.moments_to_recurrence(m))
            return _spectral_verdicts(a, b, 1.0, *_spectral_batch(a, b, 1.0))[2][0]

        m = hq.recurrence_to_moments(([0.0, 0.0], [1.0, 1.0, 1e-9]), 5)
        sd = hq.spectral_decomposition(m, HYQMOM)
        assert separation(m) < NEAR_DEGENERACY_RTOL
        assert sd.near_degenerate
        assert np.all(np.diff(sd.eigenvalues) > 0)
        clean = hq.spectral_decomposition([1, 0, 1, 0, 3], HYQMOM)
        assert not separation([1, 0, 1, 0, 3]) < NEAR_DEGENERACY_RTOL
        assert not clean.near_degenerate

    def test_json_keys(self):
        sd = hq.spectral_decomposition([1, 0, 1], HYQMOM)
        data = json.loads(json.dumps(sd.as_dict()))
        assert set(data) == {"c", "lambda", "omega", "factors"}
        assert set(data["factors"]) == {"Qn", "Rn1"}


class TestAffineInvariance:
    def test_affine_member_zero_residual(self, rng):
        for _ in range(25):
            n = int(rng.integers(1, 4))
            m = random_odd_moments(rng, n, a_range=(-2, 2), b_range=(0.3, 3))[0]
            u, s = rng.uniform(-3, 3), rng.uniform(0.5, 2)
            res = hq.verify_affine_invariance(m, HYQMOM, u, s)
            assert res < 1e-9

    @pytest.mark.parametrize("u, sigma", [(0.0, math.nan), (math.nan, 1.0), (0.0, -1.0)])
    def test_bad_transform_refused(self, u, sigma):
        # refused as a bad transform, not later as non-finite moments
        with pytest.raises(ValueError, match="finite u and a finite sigma > 0"):
            hq.verify_affine_invariance([1, 0, 1], HYQMOM, u, sigma)

    def test_other_scalings_break_it(self):
        res = hq.verify_affine_invariance([1, 0, 1], hq.ClosureSpec("hyqmom", gamma=2.0), 1.0, 1.0)
        assert res > 1e-3

    def test_identity_operator(self, rng):
        m = random_odd_moments(rng, 2)[0]
        for gamma in (0.0, 1.0, 3.0):
            res = hq.verify_affine_invariance(m, hq.ClosureSpec("hyqmom", gamma=gamma), 0.0, 1.0)
            assert res < 1e-12

    def test_qmom_is_affine_invariant(self, rng):
        for _ in range(10):
            n = int(rng.integers(1, 4))
            m = random_even_moments(rng, n, a_range=(-2, 2), b_range=(0.3, 3))[0]
            res = hq.verify_affine_invariance(m, QMOM, 0.8, 1.4)
            assert res < 1e-9


class TestDegenerateSpectra:
    def test_qmom_double_roots(self, rng):
        # companion eigenvalues pair up to multiplicity two
        for n in (2, 3):
            m = random_even_moments(rng, n)[0]
            A = hq.jacobian_matrix(m, QMOM)
            roots = np.sort_complex(np.linalg.eigvals(A))
            radius = np.max(np.abs(roots))
            pairs = roots.reshape(n, 2)
            assert np.max(np.abs(pairs[:, 0] - pairs[:, 1])) < 1e-6 * radius

    def test_new_closure_distinct_roots(self, rng):
        for n in (2, 3):
            m = random_even_moments(rng, n)[0]
            A = hq.jacobian_matrix(m, NEW)
            roots = np.linalg.eigvals(A)
            radius = np.max(np.abs(roots))
            assert np.max(np.abs(roots.imag)) < 1e-8 * radius
            srt = np.sort(roots.real)
            assert np.min(np.diff(srt)) > 1e-7 * radius
