import tracemalloc
import warnings

import mpmath as mp
import numpy as np
import pytest

from ewsrgap import linalg
from ewsrgap.channel import exp_profile_cov
from ewsrgap import gap
from ewsrgap.errors import (
    DimensionMismatch,
    DomainError,
    check_finite,
    check_integer,
    check_nonnegative,
    check_positive,
)
from ewsrgap.gap import (
    BLOCK_ENTRIES,
    MAX_CHUNK_ENTRIES,
    GapSpec,
    check_spec_size,
    e_log_quadform,
    gamma_inf_mimo_iid,
    gamma_inf_miso_iid,
    gamma_rho,
    monotonicity_sweep,
    shared_sweep,
    taylor_gamma2,
    taylor_gamma2_inf_zero_mean,
)
from ewsrgap.mc import CHUNK_SIZE, chunk_stream, complex_normal, vector_stats
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


def _massive_spec():
    """Nonzero mean, N = 4, M = 256: mean V is a product OpenBLAS threads."""
    return GapSpec(mean=_mean(np.random.default_rng(32), 4, 256), cov=exp_profile_cov(256))


def _zero_mean_rank_deficient_spec():
    """Zero mean, rank-3 PSD covariance on M = 8, N = 2."""
    B = _mean(np.random.default_rng(33), 8, 3)
    return GapSpec(mean=np.zeros((2, 8)), cov=B @ B.conj().T)


def _rank_one_spec_with_outside_mean():
    """N = 2, M = 5: a rank-one covariance, so H H^H is nonsingular only
    through the mean, whose rows reach outside the covariance's range."""
    rng = np.random.default_rng(34)
    b = _mean(rng, 5, 1)
    return GapSpec(mean=0.6 * _mean(rng, 2, 5), cov=b @ b.conj().T)


SAMPLER_SPECS = [_correlated_spec, _rank_deficient_spec]


def _counting(monkeypatch, name):
    """Count the calls of ewsrgap.gap.<name>, which still runs."""
    calls = []
    original = getattr(gap, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(gap, name, counted)
    return calls


class TestGapSpec:
    @pytest.mark.parametrize("make", SAMPLER_SPECS)
    def test_spectrum_is_psd_eig(self, make):
        spec = make()
        ref = linalg.psd_eig(spec.cov)
        assert np.array_equal(spec.spectrum.eigenvalues, ref.eigenvalues)
        assert np.array_equal(spec.spectrum.eigenvectors, ref.eigenvectors)

    def test_one_eigendecomposition_per_spec(self, monkeypatch):
        calls = []
        eigh = np.linalg.eigh

        def counted(A):
            calls.append(A.shape)
            return eigh(A)

        monkeypatch.setattr(np.linalg, "eigh", counted)
        spec = _correlated_spec()
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
        # exactly zero, whatever the size of the covariance
        assert GapSpec(mean=np.zeros((1, 2)), cov=np.eye(2)).is_zero_mean()
        assert not GapSpec(mean=np.ones((1, 2)), cov=np.eye(2)).is_zero_mean()
        assert not GapSpec(mean=np.full((1, 2), 1e-13), cov=np.eye(2)).is_zero_mean()
        assert not GapSpec(mean=np.full((1, 2), 1e-300), cov=1e300 * np.eye(2)).is_zero_mean()

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


def test_check_positive():
    for good in (1e-300, 2, np.float64(0.5), 1e308):
        value = check_positive(good, "budget")
        assert value == good and type(value) is float
    for bad in (0, 0.0, -1.0, np.nan, np.inf, 10**400, True, "1", None):
        with pytest.raises(DomainError, match="budget must be a finite real number > 0"):
            check_positive(bad, "budget")


def test_check_finite():
    got = check_finite([[1, 2.5]], "mean")
    assert got.dtype == complex and np.array_equal(got, [[1, 2.5]])
    arr = np.ones(3, dtype=complex)
    assert check_finite(arr, "x") is arr  # no copy when the dtype matches
    assert check_finite([1, 2], "x", dtype=float).dtype == float
    for bad in ([1.0, np.nan], [[np.inf]], [1j * np.inf], None, "1", [True], {}, [[1], [1, 2]],
                [1.0, 10**400]):
        with pytest.raises(DomainError, match="x has non-finite or non-numeric entries"):
            check_finite(bad, "x")


@pytest.mark.parametrize("rho", [np.nan, np.inf, True])
def test_rho_checked_at_every_entry(rho):
    # NaN used to give a zero gap and True an SNR of 1; the sweep takes
    # rho = +inf, so its row checks -inf, and the second-order gap +inf
    spec = GapSpec(mean=np.zeros((1, 2)), cov=np.eye(2))
    swept = -rho if rho == np.inf else rho
    with pytest.raises(DomainError, match="rho must be a finite real number"):
        gamma_rho(spec, swept, 100, 0)
    with pytest.raises(DomainError, match="rho must be a finite real number"):
        monotonicity_sweep(spec, [0.0, 1.0, swept], 100, 0)
    with pytest.raises(DomainError, match="rho must be a finite real number"):
        taylor_gamma2(spec, rho)


class TestInfiniteSnr:
    """gamma_rho at rho = +inf samples Gamma(inf) = ln|E H H^H| - E ln|H H^H|."""

    @pytest.mark.parametrize("n_rx, want", [(1, gamma_inf_miso_iid(8)),
                                            (2, gamma_inf_mimo_iid(8, 2))])
    def test_iid_matches_closed_form(self, n_rx, want):
        est = gamma_rho(GapSpec(np.zeros((n_rx, 8)), np.eye(8)), np.inf, 20_000, 5)
        assert est.rho == np.inf
        assert est.value == pytest.approx(want, abs=5 * est.std_error)

    def test_sweep_ending_in_inf_shares_its_draws(self):
        # each column is its own log-det of the same draws, summed on its
        # own, so a grid ending in +inf moves no entry by a bit
        spec = GapSpec(np.ones((2, 3)), exp_profile_cov(3))
        grid = [0.0, 1.0, 1e3]
        a = monotonicity_sweep(spec, grid + [np.inf], 5000, 9, workers=2)
        b = monotonicity_sweep(spec, grid, 5000, 9)
        c = gamma_rho(spec, np.inf, 5000, 9)
        for x, y in zip(a, list(b) + [c]):
            assert (x.value, x.std_error) == (y.value, y.std_error)
        assert a[0].value == 0.0 and a[-1].value > a[-2].value

    def test_deterministic_channel_is_zero_without_warnings(self):
        spec = GapSpec(np.ones((2, 3)), np.zeros((3, 3)))  # E H H^H is singular
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            est = gamma_rho(spec, np.inf, 100, 0)
        assert est.value == 0.0 and est.std_error == 0.0


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

    def test_sample_count_above_the_bound_is_a_typed_error(self):
        spec = GapSpec(mean=np.zeros((1, 2)), cov=np.eye(2))
        with pytest.raises(DomainError, match="n_samples must be at most 68719476736$"):
            gamma_rho(spec, 1.0, 10**23, 0)


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


def _miso_limit(lam):
    """Gamma(inf) = ln E x - E ln x of a zero-mean one-row spec, by the kernel."""
    lam = np.asarray(lam, dtype=float)
    return np.log(lam.sum()) - e_log_quadform(lam, np.zeros_like(lam), np.inf)


def _mp_miso_corr(lam, rho=None, dps=250):
    """Partial fractions in mpmath at dps digits: E ln(1 + rho x) for x a
    hyperexponential mixture, or Gamma(inf) when rho is None. Enough
    digits survive the weights' cancellation to leave 30 correct."""
    with mp.workdps(dps):
        lam = [mp.mpf(float(v)) for v in lam]
        total = mp.mpf(0)
        for i, li in enumerate(lam):
            w = mp.mpf(1)
            for j, lj in enumerate(lam):
                if j != i:
                    w /= 1 - lj / li
            if rho is None:
                total += w * (mp.log(li) - mp.euler)
            else:
                z = 1 / (mp.mpf(rho) * li)
                total += w * mp.exp(z) * mp.e1(z)
        if rho is None:
            return float(mp.log(sum(lam)) - total)
        return float(total)


def _mp_miso_iid(M, rho, dps=50):
    """E ln(1 + rho x) for x ~ Gamma(M, 1), ||h||^2 of M i.i.d. CN(0, 1)
    entries, in mpmath at dps digits: e^{1/rho} sum_{k=1}^{M} E_k(1/rho),
    from integrating the Gamma density against ln(1 + rho x) by parts."""
    with mp.workdps(dps):
        z = 1 / mp.mpf(rho)
        return float(mp.exp(z) * mp.fsum(mp.expint(k, z) for k in range(1, M + 1)))


class TestMisoCorrLimit:
    """The correlated MISO limit, ln E x - E ln x by e_log_quadform."""

    def test_single_eigenvalue(self):
        assert _miso_limit([1.0]) == pytest.approx(euler_gamma(), rel=1e-15)
        assert _miso_limit([7.3]) == pytest.approx(euler_gamma(), rel=1e-14)

    def test_two_eigenvalue_reference(self):
        # w = (1.5, -0.5) for eigenvalues (1.5, 0.5), so the gap is
        # gamma - (1.5 ln 1.5 - 0.5 ln 0.5 - ln 2) = 0.3155916...
        got = _miso_limit([1.5, 0.5])
        hand = euler_gamma() - (
            1.5 * np.log(1.5) - 0.5 * np.log(0.5) - np.log(2.0)
        )
        assert got == pytest.approx(hand, rel=1e-13)
        assert got == pytest.approx(0.315591593019259, rel=1e-13)

    def test_scale_invariance(self):
        base = _miso_limit([2.0, 1.2, 0.4])
        scaled = _miso_limit([20.0, 12.0, 4.0])
        assert scaled == pytest.approx(base, rel=1e-12)

    def test_exceeds_iid_gap(self):
        # correlation widens the infinite-SNR gap relative to iid
        assert _miso_limit([1.5, 0.5]) > gamma_inf_miso_iid(2)

    def test_near_equal_eigenvalues_match_iid(self):
        # the partial fractions lose every digit here; the kernel does not
        for p in (2, 8, 40):
            for spread in (0.0, 1e-12, 1e-9):
                lam = 1.0 + spread * np.arange(p)
                assert _miso_limit(lam) == pytest.approx(gamma_inf_miso_iid(p), rel=1e-13)

    def test_consistency_at_high_snr(self):
        # MC estimate of Gamma(1e8) must approach the closed form
        lam = np.array([2.0, 1.2, 0.4])
        spec = GapSpec(mean=np.zeros((1, 3)), cov=np.diag(lam))
        est = gamma_rho(spec, 1e8, 400_000, 21)
        want = _miso_limit(lam)
        assert est.value == pytest.approx(want, abs=max(3 * est.std_error, 1e-3))


class TestQuadformKernel:
    @pytest.mark.parametrize("M", [1, 4, 64])
    @pytest.mark.parametrize("rho", [1.0, 1e3, 1e6])
    def test_iid_accuracy(self, M, rho):
        got = e_log_quadform(np.ones(M), np.zeros(M), rho)
        assert got == pytest.approx(_mp_miso_iid(M, rho), rel=5.7e-14)

    @pytest.mark.parametrize("M", [1, 2, 4, 64, 256])
    def test_iid_limit(self, M):
        assert _miso_limit(np.ones(M)) == pytest.approx(gamma_inf_miso_iid(M), abs=5e-15)

    def test_separated_spectra_match_partial_fractions(self):
        for lam in ([3.0, 1.0, 0.25], 3.0 * 0.6 ** np.arange(8)):
            for rho in (0.1, 1.0, 1e3, 1e6):
                got = e_log_quadform(lam, np.zeros(len(lam)), rho)
                assert got == pytest.approx(_mp_miso_corr(lam, rho), rel=4e-13)
                flipped = e_log_quadform(np.flip(lam), np.zeros(len(lam)), rho)
                assert flipped == pytest.approx(got, rel=1e-14)

    @pytest.mark.parametrize("lam", [
        [1.5, 0.5],
        [2.0, 1.2, 0.4, 0.05],
        1.0 + 1e-3 * np.arange(40),
        1.0 + 1e-6 * np.arange(12),
    ], ids=["two", "four", "clustered-40", "clustered-12"])
    def test_against_mpmath(self, lam):
        assert _miso_limit(lam) == pytest.approx(_mp_miso_corr(lam), rel=1e-13)
        for rho in (1.0, 1e4):
            got = e_log_quadform(lam, np.zeros(len(lam)), rho)
            assert got == pytest.approx(_mp_miso_corr(lam, rho), rel=1e-14)

    def test_clustered_limit_value(self):
        assert _miso_limit(1.0 + 1e-3 * np.arange(40)) == pytest.approx(0.0125536, abs=1e-7)

    @pytest.mark.parametrize("rho", [0.5, 1e3, np.inf])
    def test_halving_the_step_changes_nothing(self, rho, monkeypatch):
        # the step is proportional to the strip half-width, so halving
        # the strip halves h with the same cuts
        rng = np.random.default_rng(9)
        lam, mu2 = rng.uniform(0.0, 2.0, 6), rng.uniform(0.0, 1.0, 6)
        coarse = e_log_quadform(lam, mu2, rho)
        monkeypatch.setattr(gap, "_STRIP", gap._STRIP / 2.0)
        assert e_log_quadform(lam, mu2, rho) == pytest.approx(coarse, rel=1e-14, abs=1e-15)

    def test_rician_correlated_miso_against_monte_carlo(self):
        mean = np.exp(1j * np.arange(6)) * 0.8
        spec = GapSpec(mean=mean, cov=exp_profile_cov(6, 0.7))
        lam = np.clip(spec.spectrum.eigenvalues, 0.0, None)
        mu2 = np.abs(spec.mean @ spec.spectrum.eigenvectors)[0] ** 2
        for rho in (1.0, 1e3):
            exact = np.log1p(rho * (lam.sum() + mu2.sum())) - e_log_quadform(lam, mu2, rho)
            est = gamma_rho(spec, rho, 100_000, 12)
            assert abs(est.value - exact) <= 5.0 * est.std_error

    def test_zero_eigenvalues_and_deterministic_forms(self):
        # a zero eigenvalue with a mean adds the constant |mu|^2 to x
        assert e_log_quadform([0.0, 0.0], [2.0, 1.0], np.inf) == pytest.approx(np.log(3.0))
        assert e_log_quadform([0.0], [2.0], 4.0) == pytest.approx(np.log(9.0))
        assert e_log_quadform([0.0], [0.0], np.inf) == -np.inf
        assert e_log_quadform([2.0, 0.0], [0.0, 0.0], 1e3) == pytest.approx(
            _mp_miso_iid(1, 2e3), rel=1e-14
        )
        # x = E + c with E ~ Exp(1): E ln x = ln c + e^c E_1(c)
        for c in (1e-12, 0.3, 20.0):
            got = e_log_quadform([1.0, 0.0], [0.0, c], np.inf)
            with mp.workdps(50):
                want = float(mp.log(c) + mp.exp(c) * mp.e1(c))
            assert got == pytest.approx(want, rel=1e-13)
        assert e_log_quadform([1.0], [1.0], 0.0) == 0.0

    def test_rho_at_the_top_of_the_float_range(self):
        # r e^u passes the largest float on the last nodes, where the
        # integrand 1 - phi(r e^u) has reached 1 within a rounding
        for M, rho in [(1, 1e307), (1, 1.7e308), (4, 4e307)]:
            got = e_log_quadform(np.ones(M), np.zeros(M), rho)
            assert got == pytest.approx(_mp_miso_iid(M, rho), rel=5.7e-14)
        with pytest.raises(DomainError, match="overflows"):
            e_log_quadform(np.ones(4), np.zeros(4), 1e308)

    def test_rejects_bad_input(self):
        for lam, mu2 in [([-1.0], [0.0]), ([1.0], [-1.0]), ([np.nan], [0.0]), ([np.inf], [0.0])]:
            with pytest.raises(DomainError, match="finite and >= 0"):
                e_log_quadform(lam, mu2, 1.0)
        with pytest.raises(DimensionMismatch):
            e_log_quadform([1.0, 2.0], [0.0], 1.0)
        for rho in (-1.0, np.nan, True):
            with pytest.raises(DomainError, match="rho must be a finite real number"):
                e_log_quadform([1.0], [0.0], rho)
        with pytest.raises(DomainError, match="overflows"):
            e_log_quadform([1e300], [0.0], 1e300)


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

    @pytest.mark.parametrize("make", SAMPLER_SPECS + [_massive_spec])
    def test_traces_match_the_cubic_products(self, make):
        # tr(mean^H Xi mean C) and tr(C C) as two M x M products
        spec, rho = make(), 3.0
        C, m = spec.cov, spec.mean
        Xi = np.linalg.inv(np.eye(spec.n_rx) + rho * spec.expected_gram())
        t = np.trace(Xi).real
        quad = np.trace(m.conj().T @ Xi @ m @ C).real
        want = 0.5 * rho * rho * (t * t * np.trace(C @ C).real + 2.0 * t * quad)
        assert taylor_gamma2(spec, rho) == pytest.approx(want, rel=1e-12)
        want_inf = 0.5 * 4 * np.trace(C @ C).real / np.trace(C).real ** 2
        assert taylor_gamma2_inf_zero_mean(C, 2) == pytest.approx(want_inf, rel=1e-12)

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
    samples mean + W S with its own root S. Both must estimate the same gap."""

    @pytest.mark.parametrize("make", SAMPLER_SPECS)
    @pytest.mark.parametrize("rho", [1.0, 1e3, 1e6])
    def test_agrees_with_brute_force(self, make, rho):
        spec = make()
        est = gamma_rho(spec, rho, 20_000, 40)
        ref = brute_force_gap(spec, rho, 4000, 41)
        assert abs(est.value - ref.value) <= 5.0 * np.hypot(est.std_error, ref.std_error)

    @pytest.mark.parametrize("make", SAMPLER_SPECS + [_massive_spec])
    def test_draw_layout(self, make):
        # one complex_normal call of N x r per sample, scaled by the roots
        # of the r support eigenvalues and shifted by mean V, which is
        # computed once per spec; at full rank (r = M) that is the mean's
        # shape and the whole draw, and past r come the fixed columns U s
        spec = make()
        r, (N, M) = spec.support_rank, spec.mean.shape
        assert r == (2 if make is _rank_deficient_spec else M)
        X = spec.draw(chunk_stream(3, 0), 7)
        W = complex_normal(chunk_stream(3, 0), (7, N, r))
        mean_v = spec.mean @ spec.spectrum.eigenvectors
        assert np.array_equal(X[..., :r], W * spec.spectrum.roots()[:r] + mean_v[:, :r])
        assert spec.rotated_mean is spec.rotated_mean
        assert np.array_equal(spec.rotated_mean, mean_v)
        fixed = X[:, :, r:]
        assert X.shape == (7, N, spec.gram_rank) and np.all(fixed == fixed[0])
        if r == M:
            assert np.array_equal(X, W * spec.spectrum.roots() + mean_v)
            assert np.array_equal(spec.basis, spec.spectrum.eigenvectors.conj().T)

    def test_zero_mean_draw_is_unshifted(self):
        spec = GapSpec(mean=np.zeros((2, 3)), cov=exp_profile_cov(3, 0.4))
        W = complex_normal(chunk_stream(5, 0), (9, 2, 3))
        assert np.array_equal(spec.draw(chunk_stream(5, 0), 9), W * spec.spectrum.roots())

    @pytest.mark.parametrize("make", SAMPLER_SPECS + [_zero_mean_rank_deficient_spec])
    def test_draws_have_the_law_of_h_v(self, make):
        # Y = X basis V has the law of H V: E Y = mean V and
        # E Y^H Y / N = diag(lambda) + V^H mean^H mean V / N
        spec = make()
        n = 40_000
        V, lam = spec.spectrum.eigenvectors, spec.spectrum.eigenvalues
        X = spec.draw(chunk_stream(6, 0), n)
        Y = X @ (spec.basis @ V)
        mean_v = spec.mean @ V
        assert np.abs(Y.mean(axis=0) - mean_v).max() <= 5 * np.sqrt(lam.max() / n)
        second = np.einsum("nij,nik->jk", Y.conj(), Y) / (n * spec.n_rx)
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
        (4, 5e307, 1.0),  # the same at N = 4
    ])
    def test_gamma_rho_overflow_is_a_typed_error_without_warnings(self, N, cov, rho):
        spec = GapSpec(mean=np.zeros((N, 4)), cov=cov / N * np.eye(4))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError, match="overflow"):
                gamma_rho(spec, rho, 5000, 0, workers=2)


class TestRankReducedDraws:
    """A spec whose covariance has rank r < M draws N x r normals a sample
    and carries the mean's part outside the support as q fixed columns."""

    @pytest.mark.parametrize("make, r, q", [
        (_zero_mean_rank_deficient_spec, 3, 0),
        (_rank_deficient_spec, 2, 2),
        (_rank_one_spec_with_outside_mean, 1, 2),
    ])
    def test_width_basis_and_fixed_columns(self, make, r, q):
        spec = make()
        N, M = spec.mean.shape
        assert (spec.support_rank, spec.gram_rank) == (r, r + q)
        assert np.array_equal(spec.nonzero_eigenvalues, spec.spectrum.eigenvalues[:r])
        X = spec.draw(chunk_stream(8, 0), 5)
        assert X.shape == (5, N, r + q) and spec.basis.shape == (r + q, M)
        # orthonormal rows, and the draw's mean [mean V_r, U s] maps to the mean
        assert np.allclose(spec.basis @ spec.basis.conj().T, np.eye(r + q), atol=1e-13)
        fixed = X[0, :, r:]
        assert np.all(X[:, :, r:] == fixed)
        assert np.allclose(
            np.hstack([spec.rotated_mean[:, :r], fixed]) @ spec.basis, spec.mean, atol=1e-12
        )

    def test_draws_keep_the_law_of_a_spec_as_strong_as_the_cut(self):
        # a draw leaves out N times the eigenvalues under the cut, and the
        # mean's power outside the support once q drops it; a spec on some
        # of the columns keeps its law from these draws while that is at
        # most SUPPORT_RTOL of its E||H||_F^2 = ||mean||_F^2 + N tr(cov)
        mean = np.array([[1.0, 0.0, 0.0], [0.0, 2.0, 0.0]], dtype=complex)
        full = GapSpec(mean, np.eye(3))
        assert full._draws_law_of(full)
        assert full._draws_law_of(GapSpec(mean * 1e-9, np.zeros((3, 3))))
        weak = GapSpec(np.zeros((2, 3)), np.diag([1.0, 1e-12, 0.0]))  # leaves out 2e-12
        for trace, ok in ((2.1e-3, True), (1.9e-3, False)):
            assert weak._draws_law_of(GapSpec(np.zeros((2, 1)), np.eye(1) * trace / 2)) == ok
        outside = GapSpec(mean * 1e-6, np.diag([0.0, 0.0, 1.0]))  # leaves out 5e-12 of mean
        assert outside.gram_rank == 1
        for power, ok in ((5.1e-3, True), (4.9e-3, False)):
            side = GapSpec(np.sqrt(power) * np.ones((1, 1)), np.zeros((1, 1)))
            assert outside._draws_law_of(side) == ok

    @pytest.mark.parametrize(
        "make", [_zero_mean_rank_deficient_spec, _rank_deficient_spec,
                 _rank_one_spec_with_outside_mean],
    )
    def test_x_basis_has_the_first_two_moments_of_h(self, make):
        # E X basis = mean, E (X basis - mean)^H (X basis - mean) = N cov
        # and E X X^H = E H H^H, each within 5 standard errors
        spec = make()
        n = 40_000
        X = spec.draw(chunk_stream(9, 0), n)
        H = X @ spec.basis
        D = H - spec.mean
        se = np.sqrt(np.trace(spec.cov).real / n)
        assert np.abs(H.mean(axis=0) - spec.mean).max() <= 5 * se
        outer = np.einsum("nij,nik->njk", D.conj(), D)
        gram = np.einsum("nij,nkj->nik", X, X.conj())
        for samples, want in ((outer, spec.n_rx * spec.cov), (gram, spec.expected_gram())):
            err = np.abs(samples.mean(axis=0) - want)
            assert np.all(err <= 5 * samples.std(axis=0) / np.sqrt(n) + 1e-12)

    @pytest.mark.parametrize(
        "make", SAMPLER_SPECS + [_massive_spec, _zero_mean_rank_deficient_spec,
                                 _rank_one_spec_with_outside_mean],
    )
    def test_gram_rank_is_the_rank_of_the_stacked_span(self, make):
        # the span of the mean's rows and the range of cov, as the rank of
        # [mean V; diag(sqrt(lambda))] with the former SVD cut
        spec = make()
        rows = np.vstack([spec.rotated_mean, np.diag(spec.spectrum.roots())])
        sv = np.linalg.svd(rows, compute_uv=False)
        assert spec.gram_rank == int(np.sum(sv * sv > 1e-9 * sv[0] ** 2))

    def test_support_is_computed_on_first_use_and_full_rank_needs_no_svd(self, monkeypatch):
        def no_svd(*args, **kwargs):
            raise AssertionError("no SVD expected")

        monkeypatch.setattr(np.linalg, "svd", no_svd)
        spec = _massive_spec()
        assert not {"support_rank", "_off_support", "basis"} & set(vars(spec))
        assert spec.gram_rank == spec.support_rank == 256
        assert spec.draw(chunk_stream(1, 0), 2).shape == (2, 4, 256)

    @pytest.mark.parametrize("rho", [1.0, 1e3])
    def test_gamma_rho_agrees_with_brute_force_through_the_mean(self, rho):
        # r = 1 < N = 2 <= r + q: only the fixed columns make H H^H
        # nonsingular; the brute force reads neither spectrum nor support
        spec = _rank_one_spec_with_outside_mean()
        assert spec.support_rank < spec.n_rx <= spec.gram_rank
        est = gamma_rho(spec, rho, 20_000, 40)
        spec.spectrum = None
        ref = brute_force_gap(spec, rho, 4000, 41)
        assert abs(est.value - ref.value) <= 5.0 * np.hypot(est.std_error, ref.std_error)


class TestMonotonicitySweep:
    def test_zero_grid(self, monkeypatch):
        # a grid without a positive rho draws nothing
        calls = _counting(monkeypatch, "complex_normal")
        spec = GapSpec(mean=np.zeros((1, 2)), cov=np.eye(2))
        res = monotonicity_sweep(spec, [0.0], 100, 0)
        assert len(res) == 1 and res[0].value == 0.0 and res[0].std_error == 0.0
        assert res.diff_std_errors.size == 0 and calls == []

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


def _unblocked_sweep(spec, rhos, n_samples, seed, workers):
    """monotonicity_sweep's values, standard errors and diff errors with
    each chunk drawn, Gram-formed and log-det'ed in one piece."""
    rhos = np.asarray(rhos, dtype=float)

    def evaluate(rng, count):
        return linalg.gram_log_rates(linalg.gram(spec.draw(rng, count)), rhos)

    mean, se, diff_se = vector_stats(n_samples, seed, evaluate, workers=workers, track_diffs=True)
    values = gap._esei_term(spec, rhos) - mean
    return values, se, diff_se


class TestBlockedSweep:
    """The sweep draws each chunk in blocks of BLOCK_ENTRIES // (N M)
    samples from the chunk's one generator; draws, per-sample rates and
    chunk sums must equal those of a whole-chunk draw bit for bit."""

    @pytest.mark.parametrize("workers", [1, 3])
    @pytest.mark.parametrize(
        "spec",
        [
            GapSpec(np.zeros((4, 256)), exp_profile_cov(256)),
            GapSpec(_mean(np.random.default_rng(32), 1, 64), exp_profile_cov(64, 0.7)),
        ],
        ids=["N4-M256", "N1-M64-mean"],
    )
    def test_bit_identical_to_whole_chunk_draws(self, spec, workers):
        assert BLOCK_ENTRIES // spec.mean.size in (64, 1024)  # 64 and 4 blocks a chunk
        rhos, n = [1.0, 1e3, 1e6], CHUNK_SIZE + 37
        res = monotonicity_sweep(spec, rhos, n, 21, workers=workers)
        values, se, diff_se = _unblocked_sweep(spec, rhos, n, 21, workers)
        assert [e.value for e in res] == values.tolist()
        assert [e.std_error for e in res] == se.tolist()
        assert res.diff_std_errors.tolist() == diff_se.tolist()

    def test_peak_memory_stays_in_blocks(self):
        # a whole 8192-sample chunk set of (4, 256) draws peaks at 130 MiB
        spec = GapSpec(np.zeros((4, 256)), exp_profile_cov(256))
        tracemalloc.start()
        try:
            gamma_rho(spec, 1e3, 8192, 0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2**20


def _shared_specs():
    """A list with the widest spec (N = 4, r = 8) first, then narrower
    ones: zero mean with N = 1, a rank-one covariance with q = 2 fixed
    columns, a deterministic spec and a rank-deficient one."""
    return [
        GapSpec(_mean(np.random.default_rng(35), 4, 8), exp_profile_cov(8, 0.6)),
        GapSpec(np.zeros((1, 3)), exp_profile_cov(3, 0.4)),
        _rank_one_spec_with_outside_mean(),
        GapSpec(np.ones((2, 3)), np.zeros((3, 3))),
        _rank_deficient_spec(),
    ]


class TestSharedSweep:
    """shared_sweep draws one (max N) x (max r) block of normals for all
    specs; each spec reads its draw off the leading rows and columns."""

    GRID = [0.0, 1.0, 1e3, np.inf]
    N_SAMPLES = 2 * CHUNK_SIZE + 5

    def test_widest_spec_keeps_its_bits(self):
        specs = _shared_specs()
        shared = shared_sweep(specs, self.GRID, self.N_SAMPLES, 23)
        alone = monotonicity_sweep(specs[0], self.GRID, self.N_SAMPLES, 23)
        assert [(e.value.hex(), e.std_error.hex()) for e in shared[0]] == [
            (e.value.hex(), e.std_error.hex()) for e in alone
        ]
        assert [d.hex() for d in shared[0].diff_std_errors] == [
            d.hex() for d in alone.diff_std_errors
        ]

    def test_narrower_specs_keep_their_law(self):
        specs = _shared_specs()
        shared = shared_sweep(specs, self.GRID, self.N_SAMPLES, 23)
        assert len(shared) == len(specs)
        for spec, res in zip(specs[1:], shared[1:]):
            alone = monotonicity_sweep(spec, self.GRID, self.N_SAMPLES, 24)
            assert res.diff_std_errors.shape == (len(self.GRID) - 1,)
            for x, y in zip(res, alone):
                assert x.rho == y.rho and x.n_samples == y.n_samples
                assert abs(x.value - y.value) <= 5.0 * np.hypot(x.std_error, y.std_error)
        assert all(e.value == 0.0 and e.std_error == 0.0 for e in shared[3])

    def test_worker_count_bit_identical(self):
        specs = _shared_specs()
        a = shared_sweep(specs, self.GRID, self.N_SAMPLES, 25, workers=1)
        b = shared_sweep(specs, self.GRID, self.N_SAMPLES, 25, workers=3)
        for x, y in zip(a, b):
            assert [(e.value, e.std_error) for e in x] == [(e.value, e.std_error) for e in y]
            assert np.array_equal(x.diff_std_errors, y.diff_std_errors)

    def test_one_draw_per_block_for_all_specs(self, monkeypatch):
        # fig1's M = 1 and 64 read one (1024, 1, 64) draw per block
        calls = _counting(monkeypatch, "complex_normal")
        specs = [GapSpec(np.zeros((1, M)), np.eye(M)) for M in (1, 64)]
        shared_sweep(specs, [1.0, 1e3], CHUNK_SIZE, 3)
        assert [shape for _, shape in calls] == [(1024, 1, 64)] * 4

    def test_rank_deficient_limit_raises_before_any_draw(self, monkeypatch):
        calls = _counting(monkeypatch, "complex_normal")
        singular = GapSpec(np.zeros((2, 3)), np.diag([1.0, 0.0, 0.0]))  # gram_rank 1 < 2
        with pytest.raises(DomainError, match="rank 1 < 2"):
            shared_sweep([_correlated_spec(), singular], [1.0, np.inf], 100, 0)
        assert calls == []

    def test_empty_spec_list(self):
        with pytest.raises(DomainError, match="specs"):
            shared_sweep([], [1.0], 100, 0)

    def test_values_of_a_chunk_bounded_before_any_allocation(self, monkeypatch):
        # CHUNK_SIZE values per (spec, rho) pair fill one chunk, so at most
        # MAX_CHUNK_ENTRIES / CHUNK_SIZE = 32768 pairs fit in a sweep
        calls = _counting(monkeypatch, "complex_normal")
        spec = GapSpec(np.zeros((1, 2)), np.eye(2))
        with pytest.raises(DomainError, match="40000 SNRs = 40000 .* limit of 32768"):
            shared_sweep([spec], np.linspace(1.0, 2.0, 40_000), 2, 0)
        with pytest.raises(DomainError, match="2 specs x 16385 SNRs"):
            shared_sweep([spec, spec], np.linspace(1.0, 2.0, 16_385), 2, 0)
        assert calls == []
        (sweep,) = shared_sweep([spec], np.linspace(1.0, 2.0, 32_768), 2, 0)
        assert len(sweep) == 32_768
