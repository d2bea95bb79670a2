import json
import math

import numpy as np
import pytest

import hyqmom as hq
from hyqmom.orthopoly import poly_eval
from hyqmom.stability import _equilibrium_spectrum, _leading_minors, _standard_certificate
from corpus import random_state
from reference import mp_mul, mp_tridiagonal_eigenvalues


def mp_u_derivatives(order, U, theta, jmax):
    """dU^j Delta_k(U, theta) = k!/(k-j)! Delta_{k-j} for j = 0..jmax and
    k = 0..order, in the scalar type of U and theta."""
    delta = [1, U]
    for k in range(1, order):
        delta.append(U * delta[k] + k * theta * delta[k - 1])
    return [
        [math.perm(k, j) * delta[k - j] if k >= j else 0 for k in range(order + 1)]
        for j in range(jmax + 1)
    ]


def rho_delta(M, k):
    """rho * Delta_k(U, theta) as a function of (M_0, M_1, M_2)."""
    rho = M[0]
    U = M[1] / rho
    return rho * mp_u_derivatives(k, U, M[2] / rho - U**2, 0)[0][k]


def rho_delta_derivative_fd(state, k, h=1e-6):
    """Finite-difference oracle for d(rho * Delta_k)/d(M_0, M_1, M_2)."""
    m = np.array(state.moments(2))

    def f(mm):
        st = hq.EquilibriumState.from_moments(mm)
        return st.rho * hq.gaussian_moment(k, st.U, st.theta)

    out = np.zeros(3)
    for j in range(3):
        hp = h * max(1.0, abs(m[j]))
        mp, mm_ = m.copy(), m.copy()
        mp[j] += hp
        mm_[j] -= hp
        out[j] = (f(mp) - f(mm_)) / (2 * hp)
    return out


def mp_standard_spectrum(n, mp):
    """Eigenvalues of the exact standard-state Jacobi matrices (a_k = 0,
    b_k = k, gamma = 1) and the symmetrizer weights solving the defining
    Vandermonde system on them, both in ascending eigenvalue order."""

    def eigenvalues(off):
        return mp_tridiagonal_eigenvalues([mp.zero] * (len(off) + 1), off, mp)

    inner = [mp.sqrt(k) for k in range(1, n)]
    lam = eigenvalues(inner) + eigenvalues(inner + [mp.sqrt(2 * n + 1)])
    p = [mp.mpf(math.prod(range(k - 1, 0, -2))) if k % 2 == 0 else mp.zero
         for k in range(2 * n + 1)]
    p[2 * n] += math.factorial(n - 1)
    V = mp.matrix([[x**k for x in lam] for k in range(2 * n + 1)])
    w = mp.lu_solve(V, mp.matrix(p))
    order = sorted(range(len(lam)), key=lambda i: lam[i])
    return [lam[i] for i in order], [w[i] for i in order]


def lab_symmetrizer(state, n):
    """A_0 = L^T D L in double precision, L_ik = F_k(lam_i), assembled in
    the lab frame at the state from the weights D = symmetrizer_weights(n)."""
    lam, _ = _equilibrium_spectrum(n, state.U, state.theta)
    L = np.array([poly_eval(F, lam) for F in hq.tail_polynomials(state, n).tails]).T
    return L.T @ (hq.symmetrizer_weights(n)[:, None] * L)


def lab_offblock(state, n):
    """K off-block norm assembled in the lab frame at the state."""
    A0 = lab_symmetrizer(state, n)
    P = hq.source_jacobian(state, n).P_inv
    K = P.T @ A0 @ P
    return max(np.linalg.norm(K[:3, 3:]), np.linalg.norm(K[3:, :3])) / np.linalg.norm(K)


class TestSourceJacobian:
    def test_similarity_residual_random_states(self, rng):
        for _ in range(25):
            st = random_state(rng)
            n = int(rng.integers(2, 5))
            src = hq.source_jacobian(st, n)
            assert src.similarity_residual < 1e-9

    def test_equilibrium_ray_in_kernel(self):
        # moving along d(moments)/d(rho) keeps the source zero
        st = hq.EquilibriumState(rho=2.0, U=0.4, theta=1.5)
        n = 3
        src = hq.source_jacobian(st, n)
        tangent = hq.gaussian_moments(2 * n, st.U, st.theta)
        assert np.max(np.abs(src.S @ tangent)) < 1e-12 * np.max(np.abs(tangent))

    def test_coupling_block_fd_oracle(self):
        st = hq.EquilibriumState(rho=1.0, U=0.0, theta=1.0)
        src = hq.source_jacobian(st, 2)
        row = src.S[3, :3]  # d(rho Delta_3)/d(M_0, M_1, M_2)
        assert np.allclose(row, [0, 3, 0])
        assert np.allclose(row, rho_delta_derivative_fd(st, 3), atol=1e-6)

    def test_coupling_block_fd_oracle_random(self, rng):
        st = random_state(rng, theta_range=(0.5, 3), u_range=(-2, 2))
        n = 3
        src = hq.source_jacobian(st, n)
        for k in range(3, 2 * n + 1):
            fd = rho_delta_derivative_fd(st, k)
            scale = np.max(np.abs(fd)) + 1.0
            assert np.allclose(src.S[k, :3], fd, atol=1e-5 * scale)

    def test_coupling_block_high_precision_reference(self):
        # S[3:, :3] against 60-digit derivatives of rho * Delta_k(M_0, M_1,
        # M_2), n = 2..6, 10 states each; errors relative to the magnitude
        # of the terms dU^j Delta_k that each entry is summed from
        mpmath = pytest.importorskip("mpmath")
        mp = mpmath.mp
        rng = np.random.default_rng(11)
        worst = 0.0
        with mpmath.workdps(60):
            for n in range(2, 7):
                N = 2 * n
                for _ in range(10):
                    st = random_state(rng, theta_range=(0.5, 3), u_range=(-2, 2))
                    rho, U, th = (mp.mpf(x) for x in (st.rho, st.U, st.theta))
                    S = hq.source_jacobian(st, n).S
                    d = mp_u_derivatives(N, abs(U), th, 2)
                    M = (rho, rho * U, rho * (th + U**2))
                    for k in range(3, N + 1):
                        exact = [
                            mp.diff(lambda *m: rho_delta(m, k), M, order)
                            for order in ((1, 0, 0), (0, 1, 0), (0, 0, 1))
                        ]
                        scale = [
                            d[0][k] + abs(U) * d[1][k] + abs(U**2 - th) / 2 * d[2][k],
                            d[1][k] + abs(U) * d[2][k],
                            d[2][k] / 2,
                        ]
                        for got, e, sc in zip(S[k, :3], exact, scale):
                            worst = max(worst, float(abs(got - e) / sc))
        print(f"\nsource Jacobian vs 60-digit derivatives: worst {worst:.2e}")
        assert worst <= 1e-13

    def test_small_order_unsupported(self):
        with pytest.raises(ValueError, match="n >= 2"):
            hq.source_jacobian(hq.EquilibriumState(1, 0, 1), 1)


class TestTailPolynomials:
    def test_leading_tail_is_one(self):
        tp = hq.tail_polynomials(hq.EquilibriumState(1, 0, 1), 3)
        assert np.allclose(tp.tails[6], [1.0])

    def test_n1_tails(self):
        tp = hq.tail_polynomials(hq.EquilibriumState(1, 0, 1), 1)
        assert np.allclose(tp.char_coeffs, [0, -3, 0, 1])
        assert np.allclose(tp.tails[0], [-3, 0, 1])
        assert np.allclose(tp.tails[1], [0, 1])
        assert np.allclose(tp.tails[2], [1])

    def test_tails_reconstruct_divided_difference(self, rng):
        # sum_k F_k(lam) x^k equals (F(x) - F(lam)) / (x - lam)
        st = random_state(rng, theta_range=(0.5, 2), u_range=(-1, 1))
        n = 2
        tp = hq.tail_polynomials(st, n)
        lam, x = 0.37, -1.21
        F = lambda t: poly_eval(tp.char_coeffs, t)
        lhs = sum(poly_eval(tp.tails[k], lam) * x**k for k in range(2 * n + 1))
        assert lhs == pytest.approx((F(x) - F(lam)) / (x - lam), rel=1e-10)

    def test_h_scaling_law(self, rng):
        # h_j at (U, theta) is sigma^(N-j) times the standard h_j of the
        # rescaled argument
        for _ in range(10):
            st = random_state(rng)
            n = int(rng.integers(2, 4))
            N = 2 * n
            sigma = np.sqrt(st.theta)
            tp = hq.tail_polynomials(st, n)
            tp0 = hq.tail_polynomials(hq.EquilibriumState(1.0, 0.0, 1.0), n)
            x = np.linspace(st.U - 2 * sigma, st.U + 2 * sigma, 7)
            for j in range(3):
                lhs = poly_eval(tp.h[j], x)
                rhs = sigma ** (N - j) * poly_eval(tp0.h[j], (x - st.U) / sigma)
                scale = np.max(np.abs(rhs)) + 1e-300
                assert np.max(np.abs(lhs - rhs)) < 1e-8 * scale

    def test_h_high_precision_reference(self):
        # h_j = sum_k F_k dU^j Delta_k built at 60 digits from the same
        # characteristic coefficients, n = 2..6, 10 states each; errors
        # relative to the magnitude of the summed terms
        mpmath = pytest.importorskip("mpmath")
        mp = mpmath.mp
        rng = np.random.default_rng(12)
        worst = 0.0
        with mpmath.workdps(60):
            for n in range(2, 7):
                N = 2 * n
                for _ in range(10):
                    st = random_state(rng, theta_range=(0.5, 3), u_range=(-2, 2))
                    tp = hq.tail_polynomials(st, n)
                    c = [mp.mpf(float(x)) for x in tp.char_coeffs]
                    U, th = mp.mpf(st.U), mp.mpf(st.theta)
                    d = mp_u_derivatives(N, U, th, 2)
                    d_abs = mp_u_derivatives(N, abs(U), th, 2)
                    for j in range(3):
                        assert len(tp.h[j]) == N - j + 1
                        for m in range(N - j + 1):
                            # F_k holds c_{k+1+m} at degree m
                            ks = range(j, N - m + 1)
                            exact = mp.fsum(c[k + 1 + m] * d[j][k] for k in ks)
                            scale = mp.fsum(abs(c[k + 1 + m]) * d_abs[j][k] for k in ks)
                            worst = max(worst, float(abs(tp.h[j][m] - exact) / scale))
        print(f"\ncoupling polynomials vs 60-digit sums: worst {worst:.2e}")
        assert worst <= 1e-13


class TestSymmetrizerWeights:
    def test_n2_exact_values(self):
        w = hq.symmetrizer_weights(2)
        assert np.allclose(w, [1 / 20, 1 / 5, 1 / 2, 1 / 5, 1 / 20], atol=1e-14)
        # oracle: dense Vandermonde solve on the standard eigenvalues
        lam = hq.standard_eigenvalues(2)
        V = np.vander(lam, increasing=True).T
        p = np.array([1.0, 0.0, 1.0, 0.0, 4.0])
        assert np.allclose(w, np.linalg.solve(V, p))

    def test_n1_uniform_thirds(self):
        w = hq.symmetrizer_weights(1)
        assert np.allclose(w, [1 / 3, 1 / 3, 1 / 3])
        assert np.allclose(hq.standard_eigenvalues(1), [-np.sqrt(3), 0, np.sqrt(3)])

    def test_degenerate_limit_eigenvalues(self):
        # at gamma = -2n, R_{n+1} = (X - a_n) Q_n: the R roots are the Q
        # roots plus a_n = gamma * U, here 0
        for n in (1, 2, 3):
            lam = hq.standard_eigenvalues(n, gamma=-2.0 * n)
            expected = np.sort(np.append(lam[1::2], 0.0))
            assert np.allclose(lam[0::2], expected, atol=1e-12)

    def test_total_mass_one(self):
        for n in range(1, 7):
            assert np.sum(hq.symmetrizer_weights(n)) == pytest.approx(1.0, rel=1e-12)

    def test_all_positive(self):
        for n in range(1, 7):
            assert np.min(hq.symmetrizer_weights(n)) > 0

    def test_high_precision_vandermonde_reference(self):
        # the defining Vandermonde system solved at 60 digits on eigenvalues
        # of the exact standard-state Jacobi matrices (a_k = 0, b_k = k)
        mpmath = pytest.importorskip("mpmath")
        with mpmath.workdps(60):
            for n in range(1, 9):
                expected = [float(x) for x in mp_standard_spectrum(n, mpmath.mp)[1]]
                assert np.allclose(hq.symmetrizer_weights(n), expected, rtol=1e-13, atol=0)

    def test_two_rule_split(self):
        # the weights decompose into n/(2n+1) of the standard-normal Gauss
        # rule at the inner nodes and (n+1)/(2n+1) of the outer rule whose
        # top target moment is raised by (n+1)(n-1)!
        for n in (1, 2, 3):
            lam = hq.standard_eigenvalues(n)
            w = hq.symmetrizer_weights(n)
            delta = hq.gaussian_moments(2 * n, 0.0, 1.0)
            inner = hq.gauss_quadrature(delta[: 2 * n])
            assert np.allclose(lam[1::2], inner.nodes, atol=1e-12)
            assert np.allclose(w[1::2], n / (2 * n + 1) * inner.weights, atol=1e-12)
            targets = delta.copy()
            targets[2 * n] += (n + 1) * math.factorial(n - 1)
            V = np.vander(lam[0::2], increasing=True).T[: n + 1]
            outer = np.linalg.solve(V, targets[: n + 1])
            assert np.allclose(w[0::2], (n + 1) / (2 * n + 1) * outer, atol=1e-11)
            # and the outer rule indeed hits the raised top moment
            assert np.sum(outer * lam[0::2] ** (2 * n)) == pytest.approx(
                targets[2 * n], rel=1e-10
            )


EXACT_KEYS = ("conditionI_residual", "commutator_residual", "K_offblock_norm", "coupling_residual")


class TestCertify:
    def test_standard_state_n2(self):
        cert = hq.certify(hq.EquilibriumState(1, 0, 1), 2)
        assert cert.passed
        assert set(cert.residuals) == set(EXACT_KEYS) | {"spd_min_pivot"}
        for key in EXACT_KEYS:
            assert cert.residuals[key] == 0
        # c = (X^2 - 1)(X^3 - 6X) and ell = (1, 0, 1, 0, 4, ...): A_0[2, 2] is
        # ell_4 - 14 ell_2 + 49 = 39, and the last pivot 108 / 1566 of the
        # leading minors is the smallest relative to its diagonal entry 1
        A0 = _standard_certificate(2)[0]
        assert (A0 == np.array([[18, 0, -21, 0, 3], [0, 15, 0, -3, 0], [-21, 0, 39, 0, -6],
                                [0, -3, 0, 1, 0], [3, 0, -6, 0, 1]])).all()
        assert _leading_minors(A0) == [18, 270, 3915, 1566, 108]
        assert cert.residuals["spd_min_pivot"] == 2 / 29

    @pytest.mark.parametrize("n", range(2, 11))
    def test_exact_zeros_and_positive_minors(self, n):
        # every condition is an exact integer identity at the standard state,
        # and A_0 is an integer matrix with positive leading minors
        A0, residuals, conditions = _standard_certificate(n)
        for key in EXACT_KEYS:
            assert type(residuals[key]) is int and residuals[key] == 0
        assert conditions == {"I": True, "II": True, "III": True}
        assert all(type(x) is int for x in A0.flat)
        assert (A0 == A0.T).all()
        minors = _leading_minors(A0)
        assert len(minors) == 2 * n + 1 and all(m > 0 for m in minors)
        assert 0 < residuals["spd_min_pivot"] < 1

    def test_leading_minors_match_determinants(self, rng):
        # Bareiss minors against float determinants of small integer
        # matrices; an indefinite matrix stops at its first minor <= 0
        for _ in range(20):
            B = rng.integers(-5, 6, (5, 5))
            A = (B @ B.T + np.eye(5, dtype=int)).astype(object)
            minors = _leading_minors(A)
            exact = [np.linalg.det(A[:k, :k].astype(float)) for k in range(1, 6)]
            assert np.allclose(minors, exact, rtol=1e-9)
        A = np.array([[2, 3, 0], [3, 4, 1], [0, 1, 5]], dtype=object)
        assert _leading_minors(A) == [2, -1]

    def test_exact_symmetrizer_matches_float(self):
        # the exact A_0 = F Hankel(ell) F^T against the double L^T D L built
        # from the reported weights D, n = 2..10: this ties D to the
        # certificate; the worst measured difference is 8.6e-16 (n = 10) of
        # the largest entry
        standard = hq.EquilibriumState(1.0, 0.0, 1.0)
        for n in range(2, 11):
            exact = _standard_certificate(n)[0].astype(float)
            diff = np.max(np.abs(lab_symmetrizer(standard, n) - exact))
            assert diff <= 2e-15 * np.max(np.abs(exact)), n

    def test_random_states(self, rng):
        for n in (2, 3):
            for _ in range(20):
                cert = hq.certify(random_state(rng), n)
                assert cert.passed, cert.residuals

    def test_density_scaling_leaves_offblock(self):
        # characteristic coefficients are density-free at equilibrium
        c1 = hq.certify(hq.EquilibriumState(1.0, 0.7, 1.3), 2)
        c2 = hq.certify(hq.EquilibriumState(7.0, 0.7, 1.3), 2)
        assert c1.residuals["K_offblock_norm"] == 0
        assert c2.residuals["K_offblock_norm"] == 0
        assert np.allclose(c1.D, c2.D)

    def test_small_order_raises(self):
        with pytest.raises(ValueError):
            hq.certify(hq.EquilibriumState(1, 0, 1), 1)

    def test_json_serializable(self):
        cert = hq.certify(hq.EquilibriumState(2.0, -1.0, 0.5), 2)
        data = json.loads(cert.to_json())
        assert data["passed"] is True
        assert set(data["conditions"]) == {"I", "II", "III"}
        assert len(data["D"]) == 5

    def test_standard_certificate_reused(self, rng, count_calls):
        # once an order is certified, a certificate at any state only reads
        # the standard residuals: no spectrum, tails, A_0 or elimination
        from hyqmom import stability

        hq.certify(hq.EquilibriumState(1.0, 0.0, 1.0), 4)
        counts = [
            count_calls(stability, name)
            for name in ("_source_blocks", "_equilibrium_spectrum", "_tail_polynomials",
                         "_companion", "_leading_minors", "_monic_pair_batch")
        ]
        certs = [hq.certify(random_state(rng), 4) for _ in range(5)]
        assert [c[0] for c in counts] == [0] * 6
        for cert in certs[1:]:
            assert cert.residuals == certs[0].residuals
            assert cert.D is hq.symmetrizer_weights(4)
        certs[0].residuals["coupling_residual"] = 1.0
        assert hq.certify(certs[1].state, 4).residuals == certs[1].residuals
        assert hq.certify(certs[1].state, 4).state is certs[1].state

    @pytest.mark.parametrize("gamma", [0.0, 2.0])
    def test_gamma_not_one_fails_coupling(self, gamma):
        # negative control: the weights certify the affine-invariant gamma = 1
        # closure only; with the characteristic polynomial of gamma = 0 or 2
        # at the standard state the exact K off-block and coupling sums are
        # nonzero integers, and (III) fails
        offblock = {0.0: (1, 1080, 2741400), 2.0: (1, 1260, 3105000)}[gamma]
        for n, expected in zip((2, 4, 6), offblock):
            _, residuals, conditions = _standard_certificate(n, int(gamma))
            assert residuals["K_offblock_norm"] == expected
            assert residuals["coupling_residual"] > 0
            assert residuals["commutator_residual"] == 0
            assert not conditions["III"]

    def test_lab_frame_cross_check(self, rng):
        # the lab-frame assembly from raw moments agrees with the standard
        # certificate where |U| / sqrt(theta) <= 2; its roundoff grows like
        # (1 + |U| / sqrt(theta))^(2n) and passes the 1e-8 coupling
        # tolerance (of the float certificate this replaced) there only up
        # to n = 6
        for n in range(2, 7):
            for _ in range(10):
                theta = float(rng.uniform(0.1, 10.0))
                U = float(rng.uniform(-2.0, 2.0)) * math.sqrt(theta)
                st = hq.EquilibriumState(float(rng.uniform(0.1, 10.0)), U, theta)
                assert hq.coupling_residuals(st, n) < 1e-8
                assert lab_offblock(st, n) < 1e-8

    def test_standard_state_high_precision_reference(self):
        # the exact standard state (a_k = 0, b_k = k, gamma = 1) at 60 digits,
        # n = 2..10: the double characteristic coefficients behind every
        # certificate match Q_n R_{n+1} within 1e-13 of the magnitude of
        # their terms, and the exact coupling sums vanish, so the double
        # coupling residual is roundoff
        mpmath = pytest.importorskip("mpmath")
        mp = mpmath.mp
        worst_c, worst_sum = 0.0, mp.zero
        with mpmath.workdps(60):
            for n in range(2, 11):
                N = 2 * n
                qm, q = [0], [1]  # Q_{k+1} = X Q_k - k Q_{k-1}
                for k in range(n):
                    qm, q = q, [x - k * y for x, y in zip([0] + q, qm + [0, 0])]
                r = [x - (2 * n + 1) * y for x, y in zip([0] + q, qm + [0, 0])]
                exact = mp_mul(q, r)
                scale = mp_mul([abs(x) for x in q], [abs(x) for x in r])
                c = _equilibrium_spectrum(n, 0.0, 1.0)[1]
                for got, e, sc in zip(c, exact, scale):
                    worst_c = max(worst_c, abs(got - e) / sc if sc else abs(got))
                lam, w = mp_standard_spectrum(n, mp)
                d = mp_u_derivatives(N, mp.zero, mp.one, 2)
                for j in range(3):
                    h = [mp.fsum(exact[k + 1 + m] * d[j][k] for k in range(j, N - m + 1))
                         for m in range(N - j + 1)]
                    hv = [wi * mp.polyval(h[::-1], x) for wi, x in zip(w, lam)]
                    for beta in range(N - 2):
                        terms = [t * x**beta for t, x in zip(hv, lam)]
                        worst_sum = max(worst_sum, abs(mp.fsum(terms)) / mp.fsum(map(abs, terms)))
        print(f"\nstandard certificate vs 60 digits: c {worst_c:.1e}, "
              f"coupling sums {float(worst_sum):.1e}")
        assert worst_c <= 1e-13
        assert worst_sum < 1e-40


class TestCouplingIdentities:
    def test_coupling_sums_vanish(self, rng):
        for _ in range(10):
            n = int(rng.integers(2, 4))
            st = random_state(rng)
            assert hq.coupling_residuals(st, n) < 1e-8

    def test_residual_matches_loop_reference(self, rng):
        # the batched reduction over (j, beta) rows is the same arithmetic
        # as the per-row loop, so the results agree exactly
        for _ in range(10):
            n = int(rng.integers(2, 5))
            st = random_state(rng)
            lam = _equilibrium_spectrum(n, st.U, st.theta)[0]
            w = hq.symmetrizer_weights(n)
            h = hq.tail_polynomials(st, n).h
            worst = 0.0
            for j in range(3):
                hv = poly_eval(h[j], lam)
                for beta in range(2 * n - 2):
                    terms = w * hv * lam**beta
                    worst = max(worst, abs(np.sum(terms)) / (np.sum(np.abs(terms)) + 1e-300))
            assert hq.coupling_residuals(st, n) == worst

    def test_reduced_set_at_standard_state(self):
        # the j=0 sums up to beta = 2n-1 vanish with the chosen weights,
        # using weight-reconstructed power sums beyond the known range
        for n in (2, 3):
            lam = hq.standard_eigenvalues(n)
            w = hq.symmetrizer_weights(n)
            tp = hq.tail_polynomials(hq.EquilibriumState(1, 0, 1), n)
            c = tp.char_coeffs
            N = 2 * n
            p = np.array([np.sum(w * lam**k) for k in range(N + 2 * N)])
            delta = hq.gaussian_moments(3 * N, 0.0, 1.0)
            for beta in range(2 * n):
                acc = 0.0
                scale = 0.0
                for k in range(N + 2):
                    for l in range(N + 2):
                        if k + l + 1 > N + 1:
                            continue
                        term = c[k + l + 1] * p[k + beta] * delta[l]
                        acc += term
                        scale += abs(term)
                assert abs(acc) < 1e-8 * max(scale, 1.0)

    def test_expanded_form_matches_eigen_form(self):
        # the double-sum form of the coupling residual agrees with the
        # direct eigenvalue form for all j, beta
        n = 2
        N = 2 * n
        lam = hq.standard_eigenvalues(n)
        w = hq.symmetrizer_weights(n)
        tp = hq.tail_polynomials(hq.EquilibriumState(1, 0, 1), n)
        c = tp.char_coeffs
        delta = hq.gaussian_moments(3 * N, 0.0, 1.0)
        p = np.array([np.sum(w * lam**k) for k in range(3 * N)])
        dj = [
            [
                (math.factorial(l) // math.factorial(l - j)) * delta[l - j]
                if l >= j
                else 0.0
                for l in range(N + 2)
            ]
            for j in range(3)
        ]
        for j in range(3):
            hv = poly_eval(tp.h[j], lam)
            for beta in range(N - 2):
                eigen_form = np.sum(w * hv * lam**beta)
                double_sum = sum(
                    c[k + l + 1] * p[k + beta] * dj[j][l]
                    for k in range(N + 1)
                    for l in range(N + 1 - k)
                )
                assert eigen_form == pytest.approx(double_sum, abs=1e-10)
                assert abs(eigen_form) < 1e-8

    def test_power_sum_side_conditions(self):
        # sum_k c_k p_{k+beta} = 0 since the eigenvalues are roots
        for n in (2, 3):
            lam = hq.standard_eigenvalues(n)
            w = hq.symmetrizer_weights(n)
            c = hq.tail_polynomials(hq.EquilibriumState(1, 0, 1), n).char_coeffs
            for beta in range(2 * n + 1):
                p = np.array([np.sum(w * lam ** (k + beta)) for k in range(len(c))])
                p_abs = np.array(
                    [np.sum(w * np.abs(lam) ** (k + beta)) for k in range(len(c))]
                )
                acc = np.dot(c, p)
                scale = np.sum(np.abs(c) * p_abs)
                assert abs(acc) < 1e-12 * max(scale, 1.0)

    def test_zero_identities(self):
        # sum c_l Delta_l = 0 and sum_{l>=1} c_l Delta_{l+1} = 0
        for n in (1, 2, 3, 4):
            c = hq.tail_polynomials(hq.EquilibriumState(1, 0, 1), max(n, 1)).char_coeffs
            delta = hq.gaussian_moments(len(c) + 1, 0.0, 1.0)
            s0 = sum(c[l] * delta[l] for l in range(len(c)))
            s1 = sum(c[l] * delta[l + 1] for l in range(1, len(c)))
            assert abs(s0) < 1e-10
            assert abs(s1) < 1e-10

