import warnings

import numpy as np
import pytest

from ewsrgap.errors import (
    DimensionMismatch,
    IndefiniteMatrix,
    NotHermitian,
    NotPositiveDefinite,
)
from ewsrgap.linalg import gram_log_rates, hermitian_eig, hermitian_sqrt, logdet_hpd
from ewsrgap.mc import complex_normal


def _rng(seed=0):
    return np.random.default_rng(seed)


def random_hermitian(rng, n):
    A = complex_normal(rng, (n, n))
    return A + A.conj().T


def random_hpd(rng, n):
    B = complex_normal(rng, (n, n))
    return B @ B.conj().T + np.eye(n)


class TestLogdet:
    def test_identity(self):
        assert logdet_hpd(np.eye(3)) == 0.0

    def test_diagonal(self):
        assert logdet_hpd(np.diag([2.0, 4.0])) == pytest.approx(np.log(8.0), rel=1e-15)

    def test_matches_eigenvalue_sum(self):
        rng = _rng(1)
        for n in (2, 4, 7):
            A = random_hpd(rng, n)
            from_eig = np.sum(np.log(hermitian_eig(A).eigenvalues))
            assert logdet_hpd(A) == pytest.approx(from_eig, rel=1e-10)

    def test_rejects_non_hermitian(self):
        with pytest.raises(NotHermitian):
            logdet_hpd(np.array([[1.0, 2.0], [0.0, 1.0]]))

    def test_rejects_indefinite(self):
        with pytest.raises(NotPositiveDefinite):
            logdet_hpd(np.diag([1.0, -1.0]))
        with pytest.raises(NotPositiveDefinite):
            logdet_hpd(np.zeros((2, 2)))

    def test_rejects_non_square(self):
        with pytest.raises(DimensionMismatch):
            logdet_hpd(np.ones((2, 3)))


class TestHermitianEig:
    def test_diagonal_sorted_descending(self):
        spec = hermitian_eig(np.diag([1.0, 2.0, 3.0]))
        assert spec.eigenvalues == pytest.approx([3.0, 2.0, 1.0])

    def test_rank_one_outer_product(self):
        rng = _rng(2)
        h = complex_normal(rng, (5, 1))
        h *= np.sqrt(5.0) / np.linalg.norm(h)
        spec = hermitian_eig(h @ h.conj().T)
        assert spec.eigenvalues[0] == pytest.approx(5.0, rel=1e-12)
        assert np.max(np.abs(spec.eigenvalues[1:])) <= 5e-15 * 5.0

    def test_trace_identity(self):
        A = random_hermitian(_rng(3), 6)
        spec = hermitian_eig(A)
        assert spec.eigenvalues.sum() == pytest.approx(np.trace(A).real, abs=1e-10)

    def test_unitary_basis_and_residual(self):
        A = random_hermitian(_rng(4), 8)
        spec = hermitian_eig(A)
        V = spec.eigenvectors
        assert np.max(np.abs(V.conj().T @ V - np.eye(8))) <= 1e-10
        scale = np.max(np.abs(A))
        for i in range(8):
            r = A @ V[:, i] - spec.eigenvalues[i] * V[:, i]
            assert np.linalg.norm(r) <= 1e-10 * scale

    def test_reconstruct(self):
        A = random_hermitian(_rng(5), 5)
        spec = hermitian_eig(A)
        assert np.max(np.abs(spec.reconstruct() - A)) <= 1e-10 * np.max(np.abs(A))

    def test_rejects_non_hermitian(self):
        with pytest.raises(NotHermitian):
            hermitian_eig(complex_normal(_rng(6), (4, 4)))


class TestHermitianSqrt:
    def test_identity(self):
        assert np.allclose(hermitian_sqrt(np.eye(4)), np.eye(4), atol=1e-14)

    def test_diagonal(self):
        assert np.allclose(
            hermitian_sqrt(np.diag([4.0, 9.0])), np.diag([2.0, 3.0]), atol=1e-14
        )

    def test_squares_back(self):
        rng = _rng(7)
        for n in (2, 5, 9):
            B = complex_normal(rng, (n, n))
            C = B @ B.conj().T
            S = hermitian_sqrt(C)
            assert np.max(np.abs(S @ S - C)) <= 1e-10 * np.max(np.abs(C))
            assert np.max(np.abs(S - S.conj().T)) == 0.0

    def test_commutes_with_input(self):
        rng = _rng(8)
        B = complex_normal(rng, (6, 6))
        C = B @ B.conj().T
        S = hermitian_sqrt(C)
        assert np.max(np.abs(S @ C - C @ S)) <= 1e-9 * np.max(np.abs(C))

    def test_clamps_tiny_negative_eigenvalues(self):
        # a PSD matrix contaminated at roundoff level must be accepted,
        # and the root must stay PSD to within roundoff itself
        rng = _rng(9)
        h = complex_normal(rng, (4, 1))
        C = h @ h.conj().T  # rank 1, three exact zeros
        C -= 1e-14 * np.max(np.abs(C)) * np.eye(4)
        S = hermitian_sqrt(C)
        scale = np.max(np.abs(S))
        assert hermitian_eig(S).eigenvalues.min() >= -1e-12 * scale
        assert np.max(np.abs(S @ S - C)) <= 1e-10 * np.max(np.abs(C))

    def test_rejects_indefinite(self):
        with pytest.raises(IndefiniteMatrix):
            hermitian_sqrt(np.diag([1.0, -0.5]))


def _gram_batch(rng, n, N, D):
    H = complex_normal(rng, (n, N, D))
    return H @ np.conj(np.swapaxes(H, 1, 2))


def _eigvalsh_rates(G, rhos):
    g = np.clip(np.linalg.eigvalsh(G), 0.0, None)
    return np.log1p(np.asarray(rhos)[None, None, :] * g[:, :, None]).sum(axis=1)


class TestGramLogRates:
    RHOS = [1.0, 1e3, 1e6]

    @pytest.mark.parametrize("D", [2, 3, 8])
    def test_two_by_two_closed_form_matches_eigvalsh(self, D):
        G = _gram_batch(_rng(10 + D), 4096, 2, D)
        got = gram_log_rates(G, self.RHOS)
        assert got.shape == (4096, 3)
        assert got == pytest.approx(_eigvalsh_rates(G, self.RHOS), rel=1e-12)

    def test_rank_one_closed_form_no_worse_than_eigvalsh(self):
        # det(I + rho h h^H) = 1 + rho tr G exactly, so both eigenvalue
        # routes can be scored against log1p(rho tr G)
        G = _gram_batch(_rng(11), 4096, 2, 1)
        rho = 1e6
        exact = np.log1p(rho * (G[:, 0, 0].real + G[:, 1, 1].real))
        closed = np.max(np.abs(gram_log_rates(G, [rho])[:, 0] - exact))
        eig = np.max(np.abs(_eigvalsh_rates(G, [rho])[:, 0] - exact))
        assert closed <= eig

    def test_zero_gram_is_zero(self):
        for N in (1, 2, 3):
            assert np.array_equal(gram_log_rates(np.zeros((5, N, N), complex), self.RHOS),
                                  np.zeros((5, 3)))

    def test_two_by_two_scaled_identity_is_exact(self):
        a = _rng(12).uniform(0.0, 10.0, 1000) * 10.0 ** _rng(13).integers(-50, 50, 1000)
        G = np.zeros((a.size, 2, 2), complex)
        G[:, 0, 0] = G[:, 1, 1] = a
        rhos = np.array(self.RHOS)
        assert np.array_equal(gram_log_rates(G, rhos), 2.0 * np.log1p(rhos * a[:, None]))

    @pytest.mark.parametrize("N", [1, 3])
    def test_other_sizes_are_the_eigvalsh_path(self, N):
        G = _gram_batch(_rng(14 + N), 512, N, 4)
        assert np.array_equal(gram_log_rates(G, self.RHOS), _eigvalsh_rates(G, self.RHOS))

    def test_non_finite_gram_gives_non_finite_rates_without_warnings(self):
        G = np.full((2, 2, 2), np.inf, complex)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert not np.isfinite(gram_log_rates(G, [1.0])).any()
