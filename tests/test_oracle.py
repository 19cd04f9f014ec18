import ast
from pathlib import Path

import numpy as np
import pytest

import ewsrgap
from ewsrgap.errors import DomainError
from ewsrgap.gap import (
    GapSpec,
    e_log_quadform,
    gamma_inf_miso_iid,
    gamma_rho,
)
from ewsrgap.oracle import (
    CORR_REL_TOL,
    bartlett_sample,
    brute_force_gap,
    e_log_quadrature,
    exact_e_log_miso_corr,
    exact_e_log_miso_iid,
    partial_fraction_weights,
)
from ewsrgap.special import euler_gamma, exp_integral_e1, harmonic


class TestExactMisoIid:
    def test_zero_snr(self):
        assert exact_e_log_miso_iid(4, 0.0) == 0.0

    def test_single_antenna_reference(self):
        # E ln(1 + x), x ~ Exp(1): e * E1(1)
        want = np.e * exp_integral_e1(1.0)
        assert exact_e_log_miso_iid(1, 1.0) == pytest.approx(want, rel=1e-14)
        assert want == pytest.approx(0.59634736232319407, rel=1e-13)

    def test_high_snr_asymptote(self):
        # E ln(1 + rho x) -> ln rho + psi(M) = ln rho - gamma + H_{M-1}
        rho = 1e8
        want = np.log(rho) - euler_gamma() + harmonic(2)
        assert exact_e_log_miso_iid(3, rho) == pytest.approx(want, abs=1e-4)

    def test_monotone_in_antennas(self):
        vals = [exact_e_log_miso_iid(M, 5.0) for M in range(1, 12)]
        assert np.all(np.diff(vals) > 0)

    def test_monotone_in_snr(self):
        vals = [exact_e_log_miso_iid(3, r) for r in [0.0, 0.1, 1.0, 10.0, 1e3, 1e6]]
        assert np.all(np.diff(vals) > 0)

    def test_jensen_containment(self):
        # 0 <= ln(1 + rho M) - E ln(1 + rho x) <= gamma - (H_M - ln M) + 1/M
        for M in (1, 2, 4, 16, 64):
            bound = euler_gamma() - (harmonic(M) - np.log(M)) + 1.0 / M
            for rho in (1e-3, 1.0, 1e2, 1e5, 1e8):
                gap = np.log1p(rho * M) - exact_e_log_miso_iid(M, rho)
                assert -1e-12 <= gap <= bound + 1e-12

    def test_domain(self):
        with pytest.raises(DomainError):
            exact_e_log_miso_iid(0, 1.0)
        with pytest.raises(DomainError):
            exact_e_log_miso_iid(3, -1.0)

    def test_against_monte_carlo(self):
        rng = np.random.default_rng(77)
        M, rho, n = 4, 7.0, 200_000
        h = rng.standard_normal((n, M)) + 1j * rng.standard_normal((n, M))
        x = 0.5 * np.sum(np.abs(h) ** 2, axis=1)
        vals = np.log1p(rho * x)
        se = vals.std(ddof=1) / np.sqrt(n)
        assert exact_e_log_miso_iid(M, rho) == pytest.approx(vals.mean(), abs=3 * se)


class TestExactMisoCorr:
    def test_zero_snr(self):
        assert exact_e_log_miso_corr([2.0, 1.0], 0.0) == 0.0

    def test_single_eigenvalue_reduces_to_iid(self):
        for rho in (0.3, 2.0, 50.0):
            assert exact_e_log_miso_corr([1.0], rho) == pytest.approx(
                exact_e_log_miso_iid(1, rho), rel=1e-13
            )

    def test_high_snr_asymptote(self):
        # E ln(1 + rho x) -> ln(rho sum(lam)) - Gamma(inf), with
        # Gamma(inf) = gamma - (sum_i w_i ln lam_i - ln sum(lam))
        rho = 1e8
        limit = euler_gamma() - (1.5 * np.log(1.5) - 0.5 * np.log(0.5) - np.log(2.0))
        want = np.log(rho * 2.0) - limit
        assert exact_e_log_miso_corr([1.5, 0.5], rho) == pytest.approx(want, abs=1e-4)

    def test_against_monte_carlo(self):
        rng = np.random.default_rng(3)
        lam = np.array([2.0, 1.2, 0.4])
        rho, n = 10.0, 200_000
        h = rng.standard_normal((n, 3)) + 1j * rng.standard_normal((n, 3))
        x = 0.5 * np.sum(lam * np.abs(h) ** 2, axis=1)
        vals = np.log1p(rho * x)
        se = vals.std(ddof=1) / np.sqrt(n)
        want = exact_e_log_miso_corr(lam, rho)
        assert want == pytest.approx(vals.mean(), abs=3 * se)


class TestPartialFractions:
    @pytest.mark.parametrize("seed", range(5))
    def test_weights_sum_to_one(self, seed):
        # weight magnitudes (hence roundoff) blow up as eigenvalues
        # cluster, so draw until the spectrum is decently separated
        rng = np.random.default_rng(seed)
        for size in (2, 3, 5, 8):
            while True:
                lam = np.sort(rng.uniform(0.2, 3.0, size))[::-1]
                if size == 1 or np.min(-np.diff(lam)) > 0.1:
                    break
            w = partial_fraction_weights(lam)
            assert abs(w.sum() - 1.0) < 1e-9

    def test_density_reconstruction(self):
        # the weighted exponential mixture must integrate any moment the
        # same way the underlying weighted-chi-square variable does
        lam = np.array([2.0, 1.0, 0.5])
        w = partial_fraction_weights(lam)
        # E x = sum lam; mixture gives sum_i w_i lam_i
        assert np.sum(w * lam) == pytest.approx(lam.sum(), rel=1e-12)
        # E x^2 = (sum lam)^2 + sum lam^2; mixture: sum_i w_i 2 lam_i^2
        want = lam.sum() ** 2 + np.sum(lam**2)
        assert np.sum(w * 2 * lam**2) == pytest.approx(want, rel=1e-12)


class TestQuadratureEvaluator:
    def test_zero_snr(self):
        assert e_log_quadrature(3, 0.0) == 0.0

    @pytest.mark.parametrize("M,rho", [(1, 0.5), (2, 1.0), (4, 10.0), (4, 1e4), (8, 100.0), (16, 1e3)])
    def test_agrees_with_exact_in_valid_region(self, M, rho):
        assert e_log_quadrature(M, rho, n_nodes=128) == pytest.approx(
            exact_e_log_miso_iid(M, rho), abs=1e-8
        )

    def test_domain(self):
        with pytest.raises(DomainError):
            e_log_quadrature(0, 1.0)


class TestBartlett:
    def test_single_rx_mean(self):
        rng = np.random.default_rng(42)
        M, n = 6, 100_000
        D, L = bartlett_sample(M, 1, rng, size=n)
        assert D.shape == (n, 1) and L.shape == (n, 1, 1)
        assert np.all(L[:, 0, 0] == 1.0)
        se = D[:, 0].std(ddof=1) / np.sqrt(n)
        assert D[:, 0].mean() == pytest.approx(M, abs=3 * se)

    def test_log_diagonal_means(self):
        # E ln D_i = -gamma + H_{m-1} for D_i ~ Gamma(m, 1), m = M - i
        M, N = 8, 4
        n_total, batch = 1_000_000, 100_000
        sums = np.zeros(N)
        sumsq = np.zeros(N)
        rng = np.random.default_rng(9)
        for _ in range(n_total // batch):
            D, _ = bartlett_sample(M, N, rng, size=batch)
            ln = np.log(D)
            sums += ln.sum(axis=0)
            sumsq += (ln**2).sum(axis=0)
        mean = sums / n_total
        var = (sumsq - n_total * mean**2) / (n_total - 1)
        se = np.sqrt(var / n_total)
        for i in range(N):
            m = M - i
            want = -euler_gamma() + (harmonic(m - 1) if m > 1 else 0.0)
            assert mean[i] == pytest.approx(want, abs=3 * se[i])

    def test_log_det_matches_direct_gram(self):
        # mean and variance of ln det(H H^H) from the Bartlett factors
        # must match direct i.i.d. Gaussian sampling
        M, N, n = 5, 3, 60_000
        rng = np.random.default_rng(8)
        D, _ = bartlett_sample(M, N, rng, size=n)
        ld_b = np.log(D).sum(axis=1)
        H = (rng.standard_normal((n, N, M)) + 1j * rng.standard_normal((n, N, M))) * np.sqrt(0.5)
        _, ld_d = np.linalg.slogdet(np.einsum("sij,skj->sik", H, H.conj()))
        se_mean = np.hypot(ld_b.std(ddof=1), ld_d.std(ddof=1)) / np.sqrt(n)
        assert ld_b.mean() == pytest.approx(ld_d.mean(), abs=3 * se_mean)
        # variance comparison; se of s^2 is sqrt((m4 - s^4)/n)
        def var_se(x):
            s2 = x.var(ddof=1)
            m4 = np.mean((x - x.mean()) ** 4)
            return s2, np.sqrt(max(m4 - s2**2, 0.0) / x.size)

        v_b, se_b = var_se(ld_b)
        v_d, se_d = var_se(ld_d)
        assert v_b == pytest.approx(v_d, abs=3 * np.hypot(se_b, se_d))

    def test_reconstructed_gram_distribution(self):
        # L diag(D) L^H has E = M I
        M, N, n = 6, 2, 50_000
        rng = np.random.default_rng(15)
        D, L = bartlett_sample(M, N, rng, size=n)
        G = np.einsum("sij,sj,skj->sik", L, D, L.conj())
        emp = G.mean(axis=0)
        se = G.real.std(axis=0, ddof=1) / np.sqrt(n) + 1e-12
        assert np.all(np.abs(emp.real - M * np.eye(N)) <= 3 * se)

    def test_domain(self):
        rng = np.random.default_rng(0)
        with pytest.raises(DomainError):
            bartlett_sample(2, 3, rng)
        with pytest.raises(DomainError):
            bartlett_sample(0, 1, rng)


class TestBruteForce:
    def test_zero_snr(self):
        spec = GapSpec(mean=np.zeros((1, 3)), cov=np.eye(3))
        est = brute_force_gap(spec, 0.0, 100, 0)
        assert est.value == 0.0 and est.std_error == 0.0

    def test_iid_miso_against_exact(self):
        M, rho = 4, 100.0
        spec = GapSpec(mean=np.zeros((1, M)), cov=np.eye(M))
        est = brute_force_gap(spec, rho, 40_000, 5)
        want = np.log1p(rho * M) - exact_e_log_miso_iid(M, rho)
        assert est.value == pytest.approx(want, abs=3 * est.std_error)

    @pytest.mark.parametrize("seed", range(4))
    def test_agrees_with_optimized_estimator(self, seed):
        rng = np.random.default_rng(100 + seed)
        N, M = rng.integers(1, 3), rng.integers(2, 5)
        mean = rng.standard_normal((N, M)) + 1j * rng.standard_normal((N, M))
        A = rng.standard_normal((M, M)) + 1j * rng.standard_normal((M, M))
        spec = GapSpec(mean=mean, cov=A @ A.conj().T / M)
        rho = float(rng.uniform(0.5, 30.0))
        a = brute_force_gap(spec, rho, 30_000, seed)
        b = gamma_rho(spec, rho, 30_000, seed + 1000)
        assert a.value == pytest.approx(b.value, abs=3 * np.hypot(a.std_error, b.std_error))

    def test_domain(self):
        spec = GapSpec(mean=np.zeros((1, 2)), cov=np.eye(2))
        with pytest.raises(DomainError):
            brute_force_gap(spec, 1.0, 1, 0)
        with pytest.raises(DomainError):
            brute_force_gap(spec, -1.0, 100, 0)


@pytest.mark.parametrize("rho", [np.nan, np.inf, True])
def test_rho_checked_by_every_oracle(rho):
    # NaN and inf used to come back as values, and True as an SNR of 1
    spec = GapSpec(mean=np.zeros((1, 2)), cov=np.eye(2))
    for evaluate in (
        lambda: exact_e_log_miso_iid(2, rho),
        lambda: exact_e_log_miso_corr([2.0, 1.0], rho),
        lambda: e_log_quadrature(2, rho),
        lambda: brute_force_gap(spec, rho, 100, 0),
    ):
        with pytest.raises(DomainError, match="rho must be a finite real number"):
            evaluate()


@pytest.mark.parametrize(
    "n_samples, seed, name",
    [(100.0, 0, "n_samples"), (True, 0, "n_samples"), (100, -1, "seed"), (100, 1.5, "seed")],
)
def test_brute_force_checks_sample_count_and_seed(n_samples, seed, name):
    spec = GapSpec(mean=np.zeros((1, 2)), cov=np.eye(2))
    with pytest.raises(DomainError, match=f"{name} must be an integer"):
        brute_force_gap(spec, 1.0, n_samples, seed)


def test_corr_weight_degeneracy_guard():
    for lam in ([1.0, 1.0 + 5e-12], [1.0, 1.0]):
        with pytest.raises(DomainError, match="eigenvalues too close"):
            exact_e_log_miso_corr(lam, 1.0)
    for lam in ([], [1.0, 0.0], [[1.0]]):
        with pytest.raises(DomainError, match="positive eigenvalues"):
            exact_e_log_miso_corr(lam, 1.0)


@pytest.mark.parametrize("seed, size", [(8, 8), (5, 4)])
def test_corr_rounding_bound_on_clustered_spectra(seed, size):
    # mildly clustered U(0.2, 3) spectra whose weights summed to 1 within
    # 1e-9 while the result was off by 1.4e-11 (seed 8) and 3.4e-11
    # (seed 5, where eps sum |w_i| is only 6.8e-13)
    lam = np.sort(np.random.default_rng(seed).uniform(0.2, 3.0, size))[::-1]
    for rho in (0.1, 1.0, 1e3, 1e6, 1e8):
        try:
            got = exact_e_log_miso_corr(lam, rho)
        except DomainError as err:
            assert "eigenvalues too close" in str(err)
            continue
        want = e_log_quadform(lam, np.zeros(size), rho)
        assert got == pytest.approx(want, rel=CORR_REL_TOL)


def test_corr_result_within_stated_tolerance_whenever_returned():
    # the old weight-sum check let results off by 5.9e-10 through here
    rng = np.random.default_rng(0)
    returned = 0
    for _ in range(300):
        size = int(rng.integers(2, 9))
        lam = np.sort(rng.uniform(0.2, 3.0, size))[::-1]
        for rho in (1.0, 1e6):
            try:
                got = exact_e_log_miso_corr(lam, rho)
            except DomainError:
                continue
            returned += 1
            want = e_log_quadform(lam, np.zeros(size), rho)
            assert got == pytest.approx(want, rel=CORR_REL_TOL)
    assert returned > 300


def _imports(module):
    """(source module, imported name) for every import in an ewsrgap module,
    relative imports resolved to ewsrgap.*."""
    path = Path(ewsrgap.__file__).parent / f"{module}.py"
    found = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            found += [(alias.name, None) for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            source = ("ewsrgap." if node.level else "") + (node.module or "")
            found += [(source.rstrip("."), alias.name) for alias in node.names]
    return found


def test_references_share_no_code_with_the_paths_they_check():
    # the estimators and kernels never reach for a reference ...
    for module in ("gap", "rates", "channel", "mc"):
        for source, name in _imports(module):
            assert "oracle" not in source and name != "oracle", (module, source, name)
    # ... and the references take only the GapSpec data type from gap
    from_gap = {name for source, name in _imports("oracle") if source == "ewsrgap.gap"}
    assert from_gap <= {"GapSpec"}
