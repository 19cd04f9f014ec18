import ast
from pathlib import Path

import numpy as np
import pytest

import ewsrgap
from ewsrgap.errors import DomainError
from ewsrgap.gap import GapSpec, gamma_rho
from ewsrgap.oracle import bartlett_sample, brute_force_gap
from ewsrgap.special import euler_gamma, harmonic
from test_gap import _mp_miso_iid


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
        want = np.log1p(rho * M) - _mp_miso_iid(M, rho)
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
    with pytest.raises(DomainError, match="rho must be a finite real number"):
        brute_force_gap(spec, rho, 100, 0)


@pytest.mark.parametrize(
    "n_samples, seed, name",
    [(100.0, 0, "n_samples"), (True, 0, "n_samples"), (100, -1, "seed"), (100, 1.5, "seed")],
)
def test_brute_force_checks_sample_count_and_seed(n_samples, seed, name):
    spec = GapSpec(mean=np.zeros((1, 2)), cov=np.eye(2))
    with pytest.raises(DomainError, match=f"{name} must be an integer"):
        brute_force_gap(spec, 1.0, n_samples, seed)


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
    for module in ("gap", "rates", "channel", "mc", "cli"):
        for source, name in _imports(module):
            assert "oracle" not in source and name != "oracle", (module, source, name)
    # ... and the references take only the GapSpec data type from gap
    from_gap = {name for source, name in _imports("oracle") if source == "ewsrgap.gap"}
    assert from_gap <= {"GapSpec"}


def _calls(module):
    """(enclosing function, called name) for every call in an ewsrgap
    module; the name is the attribute for a dotted call."""
    path = Path(ewsrgap.__file__).parent / f"{module}.py"
    found = []
    for fn in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if not isinstance(fn, ast.FunctionDef):
            continue
        for node in ast.walk(fn):
            if isinstance(node, ast.Call):
                f = node.func
                name = f.attr if isinstance(f, ast.Attribute) else getattr(f, "id", "")
                found.append((fn.name, name))
    return found


def test_one_log_det_kernel():
    # every log-det of the estimators, expected or sampled, at any rho,
    # is taken by linalg.gram_log_rates; only the references keep slogdet
    for module in ("gap", "rates", "channel", "mc", "linalg"):
        for fn, name in _calls(module):
            is_logdet = name in ("cholesky", "slogdet", "det") or "logdet" in name.lower()
            assert not is_logdet or (module, fn) == ("linalg", "gram_log_rates"), (
                module, fn, name)
    for module in ("gap", "rates"):
        assert any(name == "gram_log_rates" for _, name in _calls(module)), module
