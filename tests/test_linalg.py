import ast
import threading
import time
import warnings
from pathlib import Path

import mpmath as mp
import numpy as np
import pytest

import ewsrgap
from ewsrgap import linalg
from ewsrgap.channel import exp_profile_cov

from ewsrgap.errors import (
    DimensionMismatch,
    DomainError,
    IndefiniteMatrix,
    NotHermitian,
)
from ewsrgap.gap import GapSpec, taylor_gamma2
from ewsrgap.linalg import gram, gram_log_rates, hermitian_eig, psd_eig
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
    """The rho = +inf column of gram_log_rates is ln det G: the package's
    one log-det, of expected Grams and of sampled ones."""

    @staticmethod
    def logdet(A):
        return gram_log_rates(np.asarray(A, dtype=complex)[None], [np.inf])[0, 0]

    def test_identity(self):
        assert self.logdet(np.eye(3)) == 0.0

    def test_diagonal(self):
        assert self.logdet(np.diag([2.0, 4.0])) == pytest.approx(np.log(8.0), rel=1e-15)

    def test_matches_eigenvalue_sum(self):
        rng = _rng(1)
        for n in (1, 2, 4, 7):
            A = random_hpd(rng, n)
            from_eig = np.sum(np.log(hermitian_eig(A).eigenvalues))
            assert self.logdet(A) == pytest.approx(from_eig, rel=1e-10)

    def test_rejects_non_hermitian(self):
        # gram_log_rates takes only Grams the package forms itself; a user
        # covariance reaches the log-det through GapSpec, which checks it
        with pytest.raises(NotHermitian):
            GapSpec(np.zeros((1, 2)), np.array([[1.0, 2.0], [0.0, 1.0]]))

    @pytest.mark.parametrize("A", [np.zeros((1, 1)), np.zeros((2, 2)), np.diag([1.0, 0.0]),
                                   np.ones((2, 2)), np.zeros((3, 3)), np.diag([2.0, 1.0, 0.0])],
                             ids=["zero-1", "zero-2", "diag-2", "rank-one-2", "zero-3", "diag-3"])
    def test_singular_gram_is_minus_inf_without_warnings(self, A):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert self.logdet(A) == -np.inf

    def test_two_by_two_near_the_float_limit(self):
        # a + d overflows at 1.5e308; halving first keeps lambda_max finite
        got = gram_log_rates(1.5e308 * np.eye(2, dtype=complex)[None], [1.0, np.inf])
        assert got[0] == pytest.approx(2 * np.log(1.5e308), rel=1e-15)

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_mixed_grid_columns_match_single_calls(self, n):
        G = gram(complex_normal(_rng(2), (50, n, 4)))
        rhos = [0.0, 1e-3, 1.0, 1e6, np.inf]
        got = gram_log_rates(G, rhos)
        for p, rho in enumerate(rhos):
            assert np.array_equal(got[:, p], gram_log_rates(G, [rho])[:, 0])
        assert np.array_equal(got[:, 0], np.zeros(50))
        assert np.array_equal(got[:, 1:4], gram_log_rates(G, rhos[1:4]))


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
        V = spec.eigenvectors
        back = (V * spec.eigenvalues) @ V.conj().T
        assert np.max(np.abs(back - A)) <= 1e-10 * np.max(np.abs(A))

    def test_rejects_non_hermitian(self):
        with pytest.raises(NotHermitian):
            hermitian_eig(complex_normal(_rng(6), (4, 4)))
        with pytest.raises(NotHermitian):
            hermitian_eig(np.array([[1.0, 2.0], [0.0, 1.0]]))

    def test_rejects_non_square(self):
        with pytest.raises(DimensionMismatch):
            hermitian_eig(np.ones((2, 3)))


def hermitian_sqrt(C):
    """V diag(roots) V^H from psd_eig(C): the Hermitian root of C whose
    law GapSpec.draw samples in the eigenbasis V, with psd_eig's roots."""
    spec = psd_eig(C)
    V = spec.eigenvectors
    return (V * spec.roots()) @ V.conj().T


class TestHermitianSqrt:
    """The root that psd_eig's eigenvectors and roots() make."""

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
        spec = psd_eig(C)
        assert spec.eigenvalues.min() < 0.0
        assert np.array_equal(spec.roots()[1:], np.zeros(3))
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
    """ln det(I + rho G) from LAPACK's eigenvalues, negative ones clipped
    to zero; ln det G at rho = +inf."""
    g = np.clip(np.linalg.eigvalsh(G), 0.0, None)[:, :, None]
    rhos = np.asarray(rhos, dtype=float)
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(rhos == np.inf, np.log(g), np.log1p(rhos * g)).sum(axis=1)


def _closed_form_eigenvalues_2x2(G):
    """The two eigenvalues of each 2 x 2 Gram of G, largest first, negative
    ones clipped to zero: lambda_max = a/2 + d/2 + hypot((a - d)/2, |b|)
    and lambda_min = a (d/lambda_max) - |b| (|b|/lambda_max), for a, d the
    diagonal and b the off-diagonal entry."""
    a, d, b = G[:, 0, 0].real, G[:, 1, 1].real, np.abs(G[:, 1, 0])
    top = np.maximum(0.5 * a + 0.5 * d + np.hypot(0.5 * (a - d), b), 0.0)
    low = np.where(top > 0.0, a * (d / top) - b * (b / top), 0.0)
    return np.stack([top, np.maximum(low, 0.0)], axis=1)


def _mp_log_det(G, rho):
    """ln det(I + rho G) of each 2 x 2 Gram of G, in 50-digit mpmath."""
    with mp.workdps(50):
        out = []
        for g in G:
            a, d = mp.mpf(g[0, 0].real), mp.mpf(g[1, 1].real)
            c2 = mp.mpf(g[1, 0].real) ** 2 + mp.mpf(g[1, 0].imag) ** 2
            r = mp.mpf(rho)
            out.append(float(mp.log1p(r * (a + d) + r * r * (a * d - c2))))
    return np.array(out)


def _mp_log_det_n(G, rho):
    """ln det(I + rho G) of each N x N Gram of G, ln det G at rho = +inf,
    in 50-digit mpmath."""
    with mp.workdps(50):
        out = []
        for g in G:
            A = mp.matrix([[mp.mpc(x.real, x.imag) for x in row] for row in g])
            if rho != np.inf:
                A = mp.eye(len(g)) + mp.mpf(rho) * A
            out.append(float(mp.re(mp.log(mp.det(A)))))
    return np.array(out)


def _near_singular_grams(kind, n, N, D):
    H = complex_normal(_rng(70), (n, N, D))
    if kind == "rank-one":
        H = H[:, :, :1]
    elif kind == "nearly-equal-rows":
        H[:, 1] = H[:, 0] + 1e-7 * H[:, 1]
    else:
        H[:, :, 1] *= 1e-6
    return H @ np.conj(np.swapaxes(H, 1, 2))


def _relative_error(got, want):
    with np.errstate(invalid="ignore"):  # -inf against -inf
        return np.max(np.where(got == want, 0.0, np.abs(got - want) / np.abs(want)))


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

    def test_one_by_one_is_log1p_of_the_entry(self):
        G = _gram_batch(_rng(15), 512, 1, 4)
        g = G[:, 0, 0].real[:, None]
        assert np.array_equal(gram_log_rates(G, self.RHOS), np.log1p(g * np.array(self.RHOS)))
        assert np.array_equal(gram_log_rates(G, [np.inf]), np.log(g))

    @pytest.mark.parametrize("N, D", [(2, 4), (3, 8), (4, 8), (8, 16)])
    def test_matches_a_50_digit_log_det(self, N, D):
        # well-conditioned Grams (condition number at most 100), at finite
        # rho and at rho = +inf
        G = _gram_batch(_rng(80 + N), 100, N, D)
        w = np.linalg.eigvalsh(G)
        G = G[w[:, -1] <= 100.0 * w[:, 0]][:60]
        assert len(G) == 60
        for rho in (1.0, 1e3, np.inf):
            want = _mp_log_det_n(G, rho)
            assert _relative_error(gram_log_rates(G, [rho])[:, 0], want) <= 1e-14

    @pytest.mark.parametrize("kind", ["nearly-equal-rows", "weak-column"])
    @pytest.mark.parametrize("N", [3, 4, 8])
    def test_near_singular_no_worse_than_eigvalsh(self, N, kind):
        # at rho = +inf both lose the smallest eigenvalue of nearly equal
        # rows; the recursion gives -inf on no more of those Grams
        G = _near_singular_grams(kind, 60, N, N)
        for rho in (1.0, 1e3, np.inf):
            want = _mp_log_det_n(G, rho)
            got = gram_log_rates(G, [rho])[:, 0]
            eig = _eigvalsh_rates(G, [rho])[:, 0]
            assert _relative_error(got, want) <= _relative_error(eig, want)
            assert np.isinf(got).sum() <= np.isinf(eig).sum()

    @pytest.mark.parametrize("N", [1, 2, 4, 9])
    def test_each_column_is_its_rho_alone(self, N):
        # a column's sum over the N eigenvalues does not depend on the rest
        # of the grid, also from N = 9 on, where a 1-d sum goes pairwise
        G = _gram_batch(_rng(40 + N), 200, N, 12)
        rhos = [1.0, 7.0, 1e6, np.inf]
        got = gram_log_rates(G, rhos)
        for p, rho in enumerate(rhos):
            assert np.array_equal(got[:, p], gram_log_rates(G, [rho])[:, 0])

    def test_non_finite_gram_gives_non_finite_rates_without_warnings(self):
        G = np.full((2, 2, 2), np.inf, complex)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert not np.isfinite(gram_log_rates(G, [1.0])).any()

    @pytest.mark.parametrize("N", [1, 3])
    def test_non_finite_samples_get_infinite_rates(self, N):
        G = _gram_batch(_rng(20 + N), 64, N, 4)
        G[::7] = np.inf
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = gram_log_rates(G, self.RHOS)
        finite = np.ones(64, bool)
        finite[::7] = False
        assert np.isposinf(got[~finite]).all()
        assert np.array_equal(got[finite], gram_log_rates(G[finite], self.RHOS))

    def test_overflowing_rho_gram_without_warnings(self):
        G = np.full((3, 2, 2), 1e306, complex)
        G[:, 1, 0] = G[:, 0, 1] = 0.0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert np.isposinf(gram_log_rates(G, [1e6])).all()

    def test_two_by_two_over_the_float_range_without_warnings(self):
        # Grams with entries from 1e-300 to 1e306: a rate is finite
        # wherever rho times the diagonal stays in range, accurate wherever
        # it is finite, +inf only beyond, and never NaN
        G0 = _gram_batch(_rng(50), 16, 2, 3)
        scales = 10.0 ** np.arange(-300, 307, 2)
        G = (scales[:, None, None, None] * G0).reshape(-1, 2, 2)
        top = np.maximum(G[:, 0, 0].real, G[:, 1, 1].real)
        for rho in (1.0, 1e6):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                got = gram_log_rates(G, [rho])[:, 0]
            finite = np.isfinite(got)
            assert finite[top < np.finfo(float).max / (8.0 * rho)].all()
            assert np.isposinf(got[~finite]).all()
            assert finite.all() == (rho == 1.0)
            want = _mp_log_det(G[finite], rho)
            assert np.max(np.abs(got[finite] - want) / want) <= 1e-14

    @pytest.mark.parametrize("D", [2, 3, 8])
    def test_two_by_two_matches_a_50_digit_log_det(self, D):
        # well-conditioned Grams (condition number at most 100); the error
        # grows with it on any Gram-based form, see the near-singular test
        G = _gram_batch(_rng(60 + D), 300, 2, D)
        w = np.linalg.eigvalsh(G)
        G = G[w[:, 1] <= 100.0 * w[:, 0]]
        assert len(G) >= 250
        for rho in self.RHOS:
            want = _mp_log_det(G, rho)
            got = gram_log_rates(G, [rho])[:, 0]
            assert np.max(np.abs(got - want) / want) <= 1e-14

    @pytest.mark.parametrize("kind", ["rank-one", "nearly-equal-rows", "weak-column"])
    def test_two_by_two_near_singular_within_4x_of_the_eigenvalue_form(self, kind):
        # the Schur complement of a nearly singular Gram cancels as the
        # closed-form smaller eigenvalue does; the Cholesky form's worst
        # error stays within 4 times the eigenvalue form's
        G = _near_singular_grams(kind, 300, 2, 2)
        for rho in self.RHOS:
            want = _mp_log_det(G, rho)
            got = gram_log_rates(G, [rho])[:, 0]
            eig = np.log1p(rho * _closed_form_eigenvalues_2x2(G)).sum(axis=1)
            assert np.max(np.abs(got - want) / want) <= 4.0 * np.max(np.abs(eig - want) / want)


class TestGram:
    @pytest.mark.parametrize("N", [1, 2])
    @pytest.mark.parametrize(
        "D",
        sorted({1, 2, 3, 4, 8, 9, 12, 64, 256, linalg.GRAM_COLUMNS_MAX, linalg.GRAM_COLUMNS_MAX + 1}),
    )
    def test_small_grams_match_matmul(self, N, D):
        # for N = 2 the widths fall on both sides of GRAM_COLUMNS_MAX: column
        # sums up to it, row dot products beyond
        X = complex_normal(_rng(30 + 4 * N + D), (2048, N, D))
        want = X @ np.conj(np.swapaxes(X, 1, 2))
        got = gram(X)
        assert got.shape == (2048, N, N)
        assert got == pytest.approx(want, rel=1e-12)
        scale = np.max(np.abs(want), axis=(1, 2))
        assert np.max(np.abs(got - want).max(axis=(1, 2)) / scale) <= 1e-13
        assert np.array_equal(got[:, 0, -1], np.conj(got[:, -1, 0]))
        assert np.array_equal(np.diagonal(got, axis1=1, axis2=2).imag, np.zeros((2048, N)))

    @pytest.mark.parametrize("D", [1, 5])
    def test_larger_grams_are_matmul(self, D):
        X = complex_normal(_rng(40 + D), (512, 3, D))
        assert np.array_equal(gram(X), X @ np.conj(np.swapaxes(X, 1, 2)))

    def test_strided_batch(self):
        # a view whose rows are not contiguous, as X[:, :, cols] would be
        X = complex_normal(_rng(45), (256, 2, 9))[:, :, ::2]
        assert gram(X) == pytest.approx(X @ np.conj(np.swapaxes(X, 1, 2)), rel=1e-12)

    @pytest.mark.parametrize("N", [1, 2, 3])
    def test_overflow_gives_non_finite_grams_without_warnings(self, N):
        X = np.full((4, N, 3), 1e200 + 1e200j)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert not np.isfinite(gram(X)).all(axis=(1, 2)).any()


class TestNonFiniteInput:
    @pytest.mark.parametrize("fn", [hermitian_eig, psd_eig])
    @pytest.mark.parametrize("bad", [np.inf, np.nan])
    def test_rejected_without_warnings(self, fn, bad):
        A = np.eye(3, dtype=complex)
        A[1, 1] = bad
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError, match="non-finite"):
                fn(A)


def _blas_threads(setter):
    """The OpenBLAS thread count, read by setting 1 and setting it back."""
    count = setter(1)
    setter(count)
    return count


@pytest.fixture
def openblas():
    """The OpenBLAS thread-count setter, with the count at 2 for the test."""
    setter = linalg._openblas_setter()
    if setter is None:
        pytest.skip("no OpenBLAS with openblas_set_num_threads_local is loaded")
    prior = setter(2)
    yield setter
    setter(prior)


class TestSerialBlas:
    def test_one_thread_inside_prior_count_after(self, openblas):
        with linalg.serial_blas():
            assert _blas_threads(openblas) == 1
            with linalg.serial_blas():
                assert _blas_threads(openblas) == 1
            assert _blas_threads(openblas) == 1
        assert _blas_threads(openblas) == 2
        with pytest.raises(ZeroDivisionError), linalg.serial_blas():
            1 / 0
        assert _blas_threads(openblas) == 2

    def test_interleaved_threads_restore_on_last_exit(self, openblas):
        # the main thread enters, a second thread enters, the main thread
        # leaves while the second is still inside, then the second leaves
        inside, release = threading.Event(), threading.Event()

        def second():
            with linalg.serial_blas():
                inside.set()
                release.wait(10)

        thread = threading.Thread(target=second)
        with linalg.serial_blas():
            thread.start()
            assert inside.wait(10)
        assert _blas_threads(openblas) == 1
        release.set()
        thread.join(10)
        assert not thread.is_alive()
        assert _blas_threads(openblas) == 2

    def test_no_setter_is_a_no_op(self, monkeypatch):
        real = linalg._openblas_setter()
        before = None if real is None else _blas_threads(real)
        monkeypatch.setattr(linalg, "_openblas_setter", lambda: None)
        ran = []
        with linalg.serial_blas(), linalg.serial_blas():
            ran.append(None if real is None else _blas_threads(real))
        assert ran == [before]
        assert linalg._blas_depth == 0

    def test_covariance_calls_leave_no_spinning_blas_thread(self, openblas):
        # after a threaded eigh or SVD of this size an OpenBLAS pool thread
        # spins for about 125 ms; in a serial scope there is no pool work
        time.sleep(0.2)  # let any earlier pool work wind down
        spec = GapSpec(np.zeros((4, 256)), exp_profile_cov(256))
        assert spec.gram_rank >= spec.n_rx
        taylor_gamma2(spec, 1e3)
        start = time.process_time()
        time.sleep(0.2)
        assert time.process_time() - start < 0.03


def _np_linalg_calls(module):
    """(enclosing function, np.linalg function, inside a serial_blas scope)
    for every np.linalg call in an ewsrgap module."""
    path = Path(ewsrgap.__file__).parent / f"{module}.py"
    found = []

    def visit(node, fn, serial):
        if isinstance(node, ast.FunctionDef):
            fn = node.name
        if isinstance(node, ast.With):
            serial = serial or any("serial_blas" in ast.unparse(item.context_expr)
                                   for item in node.items)
        if isinstance(node, ast.Call) and ast.unparse(node.func).startswith("np.linalg."):
            found.append((fn, node.func.attr, serial))
        for child in ast.iter_child_nodes(node):
            visit(child, fn, serial)

    visit(ast.parse(path.read_text(encoding="utf-8")), None, False)
    return found


def test_dense_linear_algebra_runs_in_serial_blas_scopes():
    calls = {module: _np_linalg_calls(module)
             for module in ("gap", "rates", "channel", "linalg", "special")}
    outside = {(m, fn, name) for m, found in calls.items() for fn, name, serial in found
               if not serial}
    assert outside == set()
    inside = {(m, fn, name) for m, found in calls.items() for fn, name, serial in found
              if serial}
    assert inside >= {("gap", "_off_support", "svd"), ("gap", "taylor_gamma2", "inv"),
                      ("linalg", "hermitian_eig", "eigh")}
