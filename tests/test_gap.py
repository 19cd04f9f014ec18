import warnings

import numpy as np
import pytest

from ewsrgap import linalg
from ewsrgap.channel import exp_profile_cov
from ewsrgap.errors import DegenerateSpectrum, DomainError, check_integer, check_nonnegative
from ewsrgap.gap import (
    MAX_CHUNK_ENTRIES,
    EigenSpectrum,
    GapSpec,
    check_spec_size,
    gamma_inf_mimo_iid,
    gamma_inf_miso_corr,
    gamma_inf_miso_iid,
    gamma_rho,
    min_relative_gap,
    monotonicity_sweep,
    taylor_gamma2,
    taylor_gamma2_inf_zero_mean,
)
from ewsrgap.mc import chunk_stream, complex_normal
from ewsrgap.oracle import brute_force_gap
from ewsrgap.special import euler_gamma, harmonic


def _mean(rng, N, M):
    return rng.standard_normal((N, M)) + 1j * rng.standard_normal((N, M))


def _correlated_spec():
    """Nonzero mean, exponential-profile covariance, N = 2, M = 6."""
    return GapSpec(mean=_mean(np.random.default_rng(30), 2, 6), cov=exp_profile_cov(6, 0.7))


def _rank_deficient_spec():
    """Nonzero mean, rank-2 PSD covariance on M = 6, N = 2."""
    rng = np.random.default_rng(31)
    B = _mean(rng, 6, 2)
    return GapSpec(mean=0.5 * _mean(rng, 2, 6), cov=B @ B.conj().T)


SAMPLER_SPECS = [_correlated_spec, _rank_deficient_spec]


class TestGapSpec:
    @pytest.mark.parametrize("make", SAMPLER_SPECS)
    def test_cov_sqrt_is_hermitian_sqrt(self, make):
        spec = make()
        assert np.array_equal(spec.cov_sqrt, linalg.hermitian_sqrt(spec.cov))

    def test_one_eigendecomposition_per_spec(self, monkeypatch):
        calls = []
        eigh = np.linalg.eigh

        def counted(A):
            calls.append(A.shape)
            return eigh(A)

        monkeypatch.setattr(np.linalg, "eigh", counted)
        spec = _correlated_spec()
        assert spec.cov_sqrt.shape == (6, 6)
        monotonicity_sweep(spec, [1.0, 10.0], 100, 0)
        assert calls == [(6, 6)]

    def test_expected_gram(self):
        rng = np.random.default_rng(0)
        mean = rng.standard_normal((2, 3)) + 1j * rng.standard_normal((2, 3))
        C = np.diag([1.0, 2.0, 3.0]).astype(complex)
        spec = GapSpec(mean=mean, cov=C)
        want = mean @ mean.conj().T + 6.0 * np.eye(2)
        assert spec.expected_gram() == pytest.approx(want, rel=1e-14)

    def test_vector_mean_promoted(self):
        spec = GapSpec(mean=np.zeros(3), cov=np.eye(3))
        assert spec.mean.shape == (1, 3)
        assert spec.n_rx == 1

    def test_nonzero_eigenvalues_drop_null_directions(self):
        spec = GapSpec(mean=np.zeros((1, 3)), cov=np.diag([1.0, 0.0, 2.0]))
        assert np.array_equal(spec.nonzero_eigenvalues, [2.0, 1.0])

    def test_zero_mean_predicate(self):
        assert GapSpec(mean=np.zeros((1, 2)), cov=np.eye(2)).is_zero_mean()
        assert not GapSpec(mean=np.ones((1, 2)), cov=np.eye(2)).is_zero_mean()

    def test_dimension_mismatch(self):
        with pytest.raises(DomainError):
            GapSpec(mean=np.zeros((1, 3)), cov=np.eye(2))

    def test_chunk_size_cap(self):
        # max(width^2, 4096 x n_rx x max(n_rx, width)) entries, at most 2^27
        assert MAX_CHUNK_ENTRIES == 2**27
        check_spec_size(1, 11585)
        check_spec_size(181, 1)
        check_spec_size(4, 256)  # the largest benchmarked fig2 shape
        for n_rx, width in [(1, 11586), (1, 30000), (182, 1), (100_000, 64)]:
            with pytest.raises(DomainError, match="covariance or one Monte-Carlo chunk"):
                check_spec_size(n_rx, width)


def test_check_integer():
    value = check_integer(np.int64(3), "n")
    assert value == 3 and type(value) is int
    for bad in (0, -1, 2.0, 2.5, True, np.bool_(True), "3", None):
        with pytest.raises(DomainError, match="n must be an integer >= 1"):
            check_integer(bad, "n")
    assert check_integer(0, "seed", 0) == 0
    with pytest.raises(DomainError, match="n_samples must be an integer >= 2"):
        check_integer(1, "n_samples", 2)


def test_check_nonnegative():
    for good in (0, 0.0, 2, np.int64(3), np.float32(0.5), 1e308):
        value = check_nonnegative(good, "rho")
        assert value == good and type(value) is float
    for bad in (-1e-300, np.nan, np.inf, 10**400, True, np.bool_(True), "1", None, 1j):
        with pytest.raises(DomainError, match="rho must be a finite real number >= 0"):
            check_nonnegative(bad, "rho")


@pytest.mark.parametrize("rho", [np.nan, np.inf, True])
def test_rho_checked_at_every_entry(rho):
    # NaN used to give a zero gap and True an SNR of 1
    spec = GapSpec(mean=np.zeros((1, 2)), cov=np.eye(2))
    with pytest.raises(DomainError, match="rho must be a finite real number"):
        gamma_rho(spec, rho, 100, 0)
    with pytest.raises(DomainError, match="rho must be a finite real number"):
        monotonicity_sweep(spec, [0.0, 1.0, rho], 100, 0)
    with pytest.raises(DomainError, match="rho must be a finite real number"):
        taylor_gamma2(spec, rho)


def test_min_relative_gap():
    assert min_relative_gap([3.0, 1.0, 2.0]) == pytest.approx(1.0 / 3.0, rel=1e-15)
    assert min_relative_gap([2.0]) == np.inf
    assert min_relative_gap([1.0, 1.0 + 1e-9]) < 1e-6


class TestEigenSpectrum:
    def test_sorted_descending(self):
        s = EigenSpectrum([0.5, 2.0, 1.0])
        assert np.array_equal(s.lambdas, [2.0, 1.0, 0.5])
        assert s.p == 3

    def test_rejects_nonpositive(self):
        with pytest.raises(DomainError):
            EigenSpectrum([1.0, 0.0])
        with pytest.raises(DomainError):
            EigenSpectrum([])

    def test_rejects_exact_duplicates(self):
        with pytest.raises(DegenerateSpectrum):
            EigenSpectrum([1.0, 1.0])



class TestGammaRho:
    def test_zero_snr_is_exactly_zero(self):
        spec = GapSpec(mean=np.zeros((1, 4)), cov=np.eye(4))
        est = gamma_rho(spec, 0.0, 1000, 0)
        assert est.value == 0.0
        assert est.std_error == 0.0

    def test_single_antenna_high_snr_is_euler_gamma(self):
        spec = GapSpec(mean=np.zeros((1, 1)), cov=np.eye(1))
        est = gamma_rho(spec, 1e6, 1_000_000, 3)
        assert est.value == pytest.approx(euler_gamma(), abs=3 * est.std_error)

    def test_nonnegative_within_noise(self):
        rng = np.random.default_rng(4)
        mean = rng.standard_normal((2, 3)) + 1j * rng.standard_normal((2, 3))
        spec = GapSpec(mean=mean, cov=0.5 * np.eye(3))
        for rho in (0.01, 1.0, 100.0):
            est = gamma_rho(spec, rho, 20_000, 11)
            assert est.value >= -3 * est.std_error

    def test_deterministic_channel_gap_is_zero(self):
        spec = GapSpec(mean=np.ones((2, 3)), cov=np.zeros((3, 3)))
        est = gamma_rho(spec, 10.0, 100, 0)
        assert est.value == 0.0 and est.std_error == 0.0


class TestMisoIidLimit:
    def test_single_antenna(self):
        assert gamma_inf_miso_iid(1) == pytest.approx(euler_gamma(), rel=1e-15)

    def test_two_antennas(self):
        want = euler_gamma() + np.log(2.0) - 1.0
        assert gamma_inf_miso_iid(2) == pytest.approx(want, rel=1e-14)
        assert gamma_inf_miso_iid(2) == pytest.approx(0.2703628454614782, rel=1e-12)

    def test_hundred_antennas(self):
        assert gamma_inf_miso_iid(100) == pytest.approx(0.0050083, abs=1e-4)

    def test_frozen_reference(self):
        assert gamma_inf_miso_iid(4) == pytest.approx(0.1301766926880903, rel=1e-14)

    def test_equivalent_expression(self):
        # gamma + ln M - H_{M-1} == gamma - (H_M - ln M) + 1/M
        for M in (1, 2, 3, 10, 100, 1000):
            alt = euler_gamma() - (harmonic(M) - np.log(M)) + 1.0 / M
            assert gamma_inf_miso_iid(M) == pytest.approx(alt, rel=1e-13)

    def test_decreasing_in_antennas(self):
        vals = [gamma_inf_miso_iid(M) for M in range(1, 200)]
        assert np.all(np.diff(vals) < 0)

    def test_domain(self):
        with pytest.raises(DomainError):
            gamma_inf_miso_iid(0)


class TestMisoCorrLimit:
    def test_single_eigenvalue(self):
        assert gamma_inf_miso_corr(EigenSpectrum([1.0])) == pytest.approx(
            euler_gamma(), rel=1e-15
        )
        assert gamma_inf_miso_corr(EigenSpectrum([7.3])) == pytest.approx(
            euler_gamma(), rel=1e-12
        )

    def test_two_eigenvalue_reference(self):
        # w = (1.5, -0.5) for eigenvalues (1.5, 0.5), so the gap is
        # gamma - (1.5 ln 1.5 - 0.5 ln 0.5 - ln 2) = 0.3155916...
        got = gamma_inf_miso_corr(EigenSpectrum([1.5, 0.5]))
        hand = euler_gamma() - (
            1.5 * np.log(1.5) - 0.5 * np.log(0.5) - np.log(2.0)
        )
        assert got == pytest.approx(hand, rel=1e-13)
        assert got == pytest.approx(0.315591593019259, rel=1e-13)

    def test_scale_invariance(self):
        base = gamma_inf_miso_corr(EigenSpectrum([2.0, 1.2, 0.4]))
        scaled = gamma_inf_miso_corr(EigenSpectrum([20.0, 12.0, 4.0]))
        assert scaled == pytest.approx(base, rel=1e-12)

    def test_exceeds_iid_gap(self):
        # correlation widens the infinite-SNR gap relative to iid
        spec = EigenSpectrum([1.5, 0.5])
        assert gamma_inf_miso_corr(spec) > gamma_inf_miso_iid(2)

    def test_near_equal_eigenvalues_rejected(self):
        with pytest.raises(DegenerateSpectrum):
            gamma_inf_miso_corr(EigenSpectrum([1.0, 1.0 + 1e-9]))

    def test_consistency_at_high_snr(self):
        # MC estimate of Gamma(1e8) must approach the closed form
        lam = np.array([2.0, 1.2, 0.4])
        spec = GapSpec(mean=np.zeros((1, 3)), cov=np.diag(lam))
        est = gamma_rho(spec, 1e8, 400_000, 21)
        want = gamma_inf_miso_corr(EigenSpectrum(lam))
        assert est.value == pytest.approx(want, abs=max(3 * est.std_error, 1e-3))


class TestMimoIidLimit:
    def test_single_rx_reduces_to_miso(self):
        assert gamma_inf_mimo_iid(4, 1) == pytest.approx(
            gamma_inf_miso_iid(4), rel=1e-15
        )

    def test_frozen_reference(self):
        assert gamma_inf_mimo_iid(8, 2) == pytest.approx(0.2704572703055943, rel=1e-14)

    def test_against_monte_carlo(self):
        spec = GapSpec(mean=np.zeros((2, 8)), cov=np.eye(8))
        est = gamma_rho(spec, 1e6, 120_000, 6)
        assert est.value == pytest.approx(
            gamma_inf_mimo_iid(8, 2), abs=max(3 * est.std_error, 1e-3)
        )

    def test_large_system_approximation(self):
        # N^2 / (2M) with N = 4, M = 400 gives 0.02
        assert gamma_inf_mimo_iid(400, 4) == pytest.approx(0.02, rel=0.05)

    @pytest.mark.parametrize("M,tol", [(50, 0.10), (100, 0.05), (400, 0.02)])
    def test_asymptotic_ratio(self, M, tol):
        N = 4
        ratio = gamma_inf_mimo_iid(M, N) / (N * N / (2.0 * M))
        assert abs(ratio - 1.0) <= tol

    def test_domain(self):
        with pytest.raises(DomainError):
            gamma_inf_mimo_iid(2, 3)


class TestTaylorGamma2:
    def test_zero_snr(self):
        spec = GapSpec(mean=np.zeros((1, 3)), cov=np.eye(3))
        assert taylor_gamma2(spec, 0.0) == 0.0

    def test_iid_miso_infinite_limit(self):
        for M in (1, 2, 8, 64):
            spec = GapSpec(mean=np.zeros((1, M)), cov=np.eye(M))
            assert taylor_gamma2(spec, 1e12) == pytest.approx(1.0 / (2 * M), rel=1e-6)

    def test_matches_zero_mean_limit_helper(self):
        rng = np.random.default_rng(2)
        A = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        C = A @ A.conj().T
        spec = GapSpec(mean=np.zeros((2, 4)), cov=C)
        lim = taylor_gamma2_inf_zero_mean(C, 2)
        assert taylor_gamma2(spec, 1e9) == pytest.approx(lim, rel=1e-6)

    def test_zero_mean_limit_values(self):
        for M in (1, 2, 16):
            assert taylor_gamma2_inf_zero_mean(np.eye(M), 1) == pytest.approx(
                1.0 / (2 * M), rel=1e-14
            )
        assert taylor_gamma2_inf_zero_mean(np.diag([1.5, 0.5]), 1) == pytest.approx(
            0.3125, rel=1e-14
        )

    def test_overflow_is_a_typed_error_without_warnings(self):
        huge = np.diag([1e306, 1e306])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError, match="overflow"):
                taylor_gamma2_inf_zero_mean(huge, 2)
            with pytest.raises(DomainError, match="overflow"):
                taylor_gamma2(GapSpec(mean=np.zeros((2, 2)), cov=huge), 1e3)

    def test_zero_mean_limit_scale_invariant(self):
        C = np.diag([2.0, 1.0, 0.5])
        a = taylor_gamma2_inf_zero_mean(C, 2)
        b = taylor_gamma2_inf_zero_mean(17.0 * C, 2)
        assert a == pytest.approx(b, rel=1e-13)

    def test_nonnegative(self):
        rng = np.random.default_rng(7)
        for _ in range(10):
            mean = rng.standard_normal((2, 3)) + 1j * rng.standard_normal((2, 3))
            A = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
            spec = GapSpec(mean=mean, cov=A @ A.conj().T)
            assert taylor_gamma2(spec, float(rng.uniform(0, 100))) >= 0.0

    def test_deterministic_channel(self):
        spec = GapSpec(mean=np.ones((2, 3)), cov=np.zeros((3, 3)))
        assert taylor_gamma2(spec, 123.0) == 0.0

    def test_tracks_small_snr_gap(self):
        # at low SNR the second-order term should capture Gamma closely
        spec = GapSpec(mean=np.zeros((1, 2)), cov=np.eye(2))
        rho = 0.05
        est = gamma_rho(spec, rho, 400_000, 5)
        assert taylor_gamma2(spec, rho) == pytest.approx(
            est.value, abs=max(3 * est.std_error, 0.2 * est.value)
        )


class TestEigenbasisSampler:
    """The estimator samples H V, V the eigenbasis of cov; the oracle
    samples mean + W cov_sqrt. Both must estimate the same gap."""

    @pytest.mark.parametrize("make", SAMPLER_SPECS)
    @pytest.mark.parametrize("rho", [1.0, 1e3, 1e6])
    def test_agrees_with_brute_force(self, make, rho):
        spec = make()
        est = gamma_rho(spec, rho, 20_000, 40)
        ref = brute_force_gap(spec, rho, 4000, 41)
        assert abs(est.value - ref.value) <= 5.0 * np.hypot(est.std_error, ref.std_error)

    @pytest.mark.parametrize("make", SAMPLER_SPECS)
    def test_draw_layout(self, make):
        # one complex_normal call of the mean's shape per sample, scaled
        # by the roots of the eigenvalues and shifted by mean V
        spec = make()
        X = spec.draw(chunk_stream(3, 0), 7)
        W = complex_normal(chunk_stream(3, 0), (7,) + spec.mean.shape)
        mean_v = spec.mean @ spec.spectrum.eigenvectors
        assert np.array_equal(X, W * spec.spectrum.roots() + mean_v)

    def test_zero_mean_draw_is_unshifted(self):
        spec = GapSpec(mean=np.zeros((2, 3)), cov=exp_profile_cov(3, 0.4))
        W = complex_normal(chunk_stream(5, 0), (9, 2, 3))
        assert np.array_equal(spec.draw(chunk_stream(5, 0), 9), W * spec.spectrum.roots())

    @pytest.mark.parametrize("make", SAMPLER_SPECS)
    def test_draws_have_the_law_of_h_v(self, make):
        # E X = mean V and E X^H X / N = diag(lambda) + V^H mean^H mean V / N
        spec = make()
        n = 40_000
        X = spec.draw(chunk_stream(6, 0), n)
        V, lam = spec.spectrum.eigenvectors, spec.spectrum.eigenvalues
        mean_v = spec.mean @ V
        assert np.abs(X.mean(axis=0) - mean_v).max() <= 5 * np.sqrt(lam.max() / n)
        second = np.einsum("nij,nik->jk", X.conj(), X) / (n * spec.n_rx)
        want = np.diag(lam) + mean_v.conj().T @ mean_v / spec.n_rx
        assert np.abs(second - want).max() <= 0.05 * (lam.max() + np.abs(want).max())

    @pytest.mark.parametrize("make", SAMPLER_SPECS)
    def test_worker_count_bit_identical(self, make):
        spec = make()
        grid = [1.0, 1e3, 1e6]
        a = monotonicity_sweep(spec, grid, 3 * 4096 + 5, 42, workers=1)
        b = monotonicity_sweep(spec, grid, 3 * 4096 + 5, 42, workers=3)
        for x, y in zip(a, b):
            assert x.value == y.value and x.std_error == y.std_error
        assert np.array_equal(a.diff_std_errors, b.diff_std_errors)

    @pytest.mark.parametrize("N, cov, rho", [
        (2, 1e306, 1e6),  # the surrogate term overflows
        (2, 5e307, 1.0),  # only sampled Grams overflow
        (4, 5e307, 1.0),  # the same on the eigvalsh path
    ])
    def test_gamma_rho_overflow_is_a_typed_error_without_warnings(self, N, cov, rho):
        spec = GapSpec(mean=np.zeros((N, 4)), cov=cov / N * np.eye(4))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError, match="overflow"):
                gamma_rho(spec, rho, 5000, 0, workers=2)


class TestMonotonicitySweep:
    def test_zero_grid(self):
        spec = GapSpec(mean=np.zeros((1, 2)), cov=np.eye(2))
        res = monotonicity_sweep(spec, [0.0], 100, 0)
        assert len(res) == 1 and res[0].value == 0.0
        assert res.diff_std_errors.size == 0

    def test_twenty_point_grid_monotone(self):
        spec = GapSpec(mean=np.zeros((1, 2)), cov=np.eye(2))
        snr_db = np.arange(-130.0, 61.0, 10.0)
        assert snr_db.size == 20
        rhos = 10.0 ** (snr_db / 10.0)
        res = monotonicity_sweep(spec, rhos, 200_000, 17)
        vals = np.array([e.value for e in res])
        diffs = np.diff(vals)
        assert np.all(diffs >= -3.0 * res.diff_std_errors)
        last = res[-1]
        assert last.rho == pytest.approx(1e6)
        assert last.value == pytest.approx(
            gamma_inf_miso_iid(2), abs=3 * last.std_error
        )

    def test_common_random_numbers_shrink_diff_errors(self):
        spec = GapSpec(mean=np.zeros((1, 3)), cov=np.eye(3))
        res = monotonicity_sweep(spec, [1.0, 1.2589], 50_000, 9)
        point_se = max(res[0].std_error, res[1].std_error)
        assert res.diff_std_errors[0] < 0.2 * point_se

    def test_grid_validation(self):
        spec = GapSpec(mean=np.zeros((1, 2)), cov=np.eye(2))
        with pytest.raises(DomainError):
            monotonicity_sweep(spec, [2.0, 1.0], 100, 0)
        with pytest.raises(DomainError):
            monotonicity_sweep(spec, [-1.0, 2.0], 100, 0)
        with pytest.raises(DomainError):
            monotonicity_sweep(spec, [], 100, 0)

    def test_worker_split_bit_identical(self):
        spec = GapSpec(mean=np.zeros((2, 3)), cov=np.eye(3))
        grid = [0.1, 1.0, 10.0]
        a = monotonicity_sweep(spec, grid, 30_000, 13, workers=1)
        b = monotonicity_sweep(spec, grid, 30_000, 13, workers=4)
        for x, y in zip(a, b):
            assert x.value == y.value and x.std_error == y.std_error
        assert np.array_equal(a.diff_std_errors, b.diff_std_errors)
