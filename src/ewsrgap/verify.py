"""Batch property checks shared by the CLI `verify` command and tests.

Each check runs a seeded, self-contained experiment and reports a row
with a pass flag and its measured slack (how far inside the tolerance
the result landed; negative means failure). Sample counts scale with
the `scale` argument so callers can trade time for resolution; the
worker count never changes any reported number.
"""

from __future__ import annotations

import numpy as np

from .channel import (
    IbcScenario,
    PrecoderSet,
    UserConfig,
    check_precoders,
    exp_profile_cov,
    load_demo_bundle,
    uniform_power_precoders,
)
from .errors import DomainError, check_nonnegative
from .gap import (
    GapSpec,
    e_log_quadform,
    gamma_inf_mimo_iid,
    gamma_rho,
    monotonicity_sweep,
    taylor_gamma2,
    taylor_gamma2_inf_zero_mean,
)
from .mc import chunk_stream, complex_normal, vector_stats
from .oracle import (
    bartlett_sample,
    brute_force_gap,
    e_log_quadrature,
    exact_e_log_miso_corr,
    exact_e_log_miso_iid,
    partial_fraction_weights,
)
from .rates import esei_terms, sandwich_bounds, user_term_estimates
from .special import euler_gamma, exp_integral_e1, harmonic


def _row(suite, name, passed, slack, detail):
    return {
        "suite": suite,
        "check": name,
        "passed": bool(passed),
        "slack": float(slack),
        "detail": detail,
    }


def random_psd_cov(rng, M: int, trace: float) -> np.ndarray:
    """Random Hermitian PSD matrix with the requested trace."""
    A = complex_normal(rng, (M, M))
    C = A @ A.conj().T
    C *= trace / np.trace(C).real
    return C


def random_zero_mean_scenario(seed: int, n_cells=None, n_users=None):
    """A random zero-mean single-antenna-user scenario with precoders.

    Users are MISO (one receive antenna, one stream), so every sandwich
    gap limit is exact, by gap.e_log_quadform on any stream spectrum.
    """
    rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(0,)))
    C = int(n_cells) if n_cells else int(rng.integers(1, 3))
    K = int(n_users) if n_users else int(rng.integers(2, 5))
    bs_antennas = [int(rng.integers(2, 5)) for _ in range(C)]
    serving = [j % C for j in range(K)]
    rng.shuffle(serving)
    users = [
        UserConfig(
            serving_bs=serving[k],
            rx_antennas=1,
            streams=1,
            rate_weight=float(rng.uniform(0.5, 2.0)),
        )
        for k in range(K)
    ]
    budgets = [float(rng.uniform(2.0, 20.0)) for _ in range(C)]
    links = [
        [
            GapSpec(
                mean=np.zeros((1, bs_antennas[j]), dtype=complex),
                cov=random_psd_cov(rng, bs_antennas[j], float(rng.uniform(0.5, 2.0))),
            )
            for j in range(C)
        ]
        for _ in range(K)
    ]
    scenario = IbcScenario(
        bs_antennas=bs_antennas, users=users, power_budgets=budgets, links=links
    )
    per_cell = [serving.count(j) for j in range(C)]
    mats = []
    for j in serving:
        g = complex_normal(rng, (bs_antennas[j], 1))
        g *= np.sqrt(budgets[j] / per_cell[j]) / np.linalg.norm(g)
        mats.append(g)
    precoders = PrecoderSet(mats)
    check_precoders(scenario, precoders)
    return scenario, precoders


def demo_scenario():
    """The bundled two-cell four-user zero-mean demo configuration."""
    scenario, precoders, _ = load_demo_bundle()
    if precoders is None:
        precoders = uniform_power_precoders(scenario)
    return scenario, precoders


# ---------------------------------------------------------------------------
# Individual checks
# ---------------------------------------------------------------------------


def _check_monotonicity(seed, scale, workers):
    rows = []
    n = max(int(40_000 * scale), 2000)
    grid = 10.0 ** (np.linspace(-10.0, 60.0, 15) / 10.0)
    cases = [
        ("monotone-miso-iid-m2", GapSpec(np.zeros((1, 2)), np.eye(2))),
        ("monotone-miso-iid-m8", GapSpec(np.zeros((1, 8)), np.eye(8))),
        ("monotone-miso-corr-m4", GapSpec(np.zeros((1, 4)), exp_profile_cov(4))),
    ]
    for name, spec in cases:
        sweep = monotonicity_sweep(spec, grid, n, seed, workers=workers)
        diffs = np.diff([e.value for e in sweep])
        margins = diffs + 3.0 * sweep.diff_std_errors
        rows.append(
            _row(
                "theorems",
                name,
                np.all(margins >= 0.0),
                margins.min(),
                f"min successive difference {diffs.min():.3e}",
            )
        )
    return rows


def _check_endpoint_m1(seed, scale, workers):
    n = max(int(200_000 * scale), 2000)
    est = gamma_rho(GapSpec(np.zeros((1, 1)), np.eye(1)), 1e6, n, seed, workers=workers)
    dev = abs(est.value - euler_gamma())
    slack = 3.0 * est.std_error - dev
    return [
        _row(
            "theorems",
            "gap-endpoint-m1-gamma",
            slack >= 0.0,
            slack,
            f"estimate {est.value:.6f} vs {euler_gamma():.6f}",
        )
    ]


def _check_theorem2_containment(seed, scale, workers):
    worst = np.inf
    for M in (1, 2, 4, 8, 16):
        bound = euler_gamma() - (harmonic(M) - np.log(M)) + 1.0 / M
        for rho in (0.01, 1.0, 100.0, 1e4, 1e8):
            gap = np.log1p(rho * M) - exact_e_log_miso_iid(M, rho)
            worst = min(worst, gap, bound - gap + 1e-15)
    return [
        _row(
            "theorems",
            "finite-snr-gap-containment",
            worst >= -1e-12,
            worst,
            "0 <= gap <= infinite-SNR bound across the (M, rho) grid",
        )
    ]


def _check_theorem3(seed, scale, workers):
    # successive ratios of at least 1.12 keep the oracle within its tolerance
    rng = np.random.default_rng(seed)
    worst = np.inf
    for lam in (np.array([1.5, 0.5]), 3.0 / np.cumprod(rng.uniform(1.12, 3.0, size=4))):
        gap = np.log1p(1e8 * lam.sum()) - exact_e_log_miso_corr(lam, 1e8)
        limit = np.log(lam.sum()) - e_log_quadform(lam, np.zeros_like(lam), np.inf)
        worst = min(worst, 1e-4 - abs(gap - limit))
    return [
        _row(
            "theorems",
            "corr-miso-limit-vs-oracle",
            worst >= 0.0,
            worst,
            "quadrature limit matches the partial-fraction oracle gap at rho=1e8 within 1e-4",
        )
    ]


def _check_mimo_closed_form(seed, scale, workers):
    n = max(int(200_000 * scale), 2000)
    est = gamma_rho(GapSpec(np.zeros((2, 8)), np.eye(8)), 1e6, n, seed, workers=workers)
    target = gamma_inf_mimo_iid(8, 2)
    slack = 3.0 * est.std_error - abs(est.value - target)
    return [
        _row(
            "theorems",
            "mimo-iid-limit-8x2",
            slack >= 0.0,
            slack,
            f"estimate {est.value:.6f} vs closed form {target:.6f}",
        )
    ]


def _check_taylor_consistency(seed, scale, workers):
    rng = np.random.default_rng(seed)
    C = random_psd_cov(rng, 6, 6.0)
    spec = GapSpec(np.zeros((4, 6)), C)
    at_large = taylor_gamma2(spec, 1e9)
    limit = taylor_gamma2_inf_zero_mean(C, 4)
    rel = abs(at_large - limit) / limit
    return [
        _row(
            "theorems",
            "taylor-limit-consistency",
            rel <= 1e-6,
            1e-6 - rel,
            f"relative difference {rel:.2e} at rho=1e9",
        )
    ]


def _check_sandwich_demo(seed, scale, workers):
    scenario, precoders = demo_scenario()
    n = max(int(50_000 * scale), 2000)
    bound = sandwich_bounds(scenario, precoders, seed=seed, workers=workers)
    wsr, sig, intf = user_term_estimates(scenario, precoders, n, seed, workers=workers)
    slack = min(wsr.value - bound.lower, bound.upper - wsr.value)
    rows = [
        _row(
            "theorems",
            "sandwich-demo-containment",
            bound.contains(wsr.value),
            slack,
            f"ewsr {wsr.value:.4f} in [{bound.lower:.4f}, {bound.upper:.4f}]",
        )
    ]
    worst = np.inf
    for (esei_sig, esei_int), s_est, i_est in zip(
        esei_terms(scenario, precoders), sig, intf
    ):
        worst = min(worst, esei_sig - (s_est.value - 3 * s_est.std_error))
        worst = min(worst, esei_int - (i_est.value - 3 * i_est.std_error))
    rows.append(
        _row(
            "theorems",
            "sandwich-demo-jensen-terms",
            worst >= 0.0,
            worst,
            "expectation-inside term at least the sampled mean - 3 se, per user",
        )
    )
    return rows


def _check_oracle_iid_vs_mc(seed, scale, workers):
    n = max(int(50_000 * scale), 2000)
    est = brute_force_gap(GapSpec(np.zeros((1, 4)), np.eye(4)), 100.0, n, seed)
    target = np.log1p(100.0 * 4) - exact_e_log_miso_iid(4, 100.0)
    slack = 3.0 * est.std_error - abs(est.value - target)
    return [
        _row(
            "oracles",
            "iid-oracle-vs-brute-force",
            slack >= 0.0,
            slack,
            f"MC {est.value:.5f} vs exact {target:.5f}",
        )
    ]


def _check_oracle_vs_quadrature(seed, scale, workers):
    worst = np.inf
    for M, rho in [(1, 0.5), (2, 1.0), (4, 10.0), (8, 1e4), (16, 1e8), (64, 1e6)]:
        diff = abs(exact_e_log_miso_iid(M, rho) - e_log_quadrature(M, rho))
        worst = min(worst, 1e-8 - diff)
    return [
        _row(
            "oracles",
            "iid-oracle-vs-quadrature",
            worst >= 0.0,
            worst,
            "exact identity matches the 128-node rule inside its valid region",
        )
    ]


def _check_corr_oracle_vs_mc(seed, scale, workers):
    n = max(int(200_000 * scale), 2000)
    lam = np.array([2.0, 1.2, 0.4])
    rho = 10.0

    def evaluate(rng, count):
        h = complex_normal(rng, (count, lam.size))
        x = (np.abs(h) ** 2 * lam).sum(axis=1)
        return np.log1p(rho * x)[:, None]

    mean, se, _ = vector_stats(n, seed, evaluate, workers=workers)
    exact = exact_e_log_miso_corr(lam, rho)
    slack = 3.0 * float(se[0]) - abs(float(mean[0]) - exact)
    return [
        _row(
            "oracles",
            "corr-oracle-vs-sampling",
            slack >= 0.0,
            slack,
            f"MC {float(mean[0]):.5f} vs exact {exact:.5f}",
        )
    ]


def _check_partial_fractions(seed, scale, workers):
    # successive eigenvalue ratios of at least 1.12 keep the weights
    # moderate; as eigenvalues cluster the weights blow up and the
    # roundoff of their sum swamps the 1e-9 normalization identity
    rng = np.random.default_rng(seed)
    worst = np.inf
    for _ in range(25):
        lam = 5.0 / np.cumprod(rng.uniform(1.12, 3.0, size=int(rng.integers(2, 7))))
        worst = min(worst, 1e-9 - abs(partial_fraction_weights(lam).sum() - 1.0))
    return [
        _row(
            "oracles",
            "partial-fraction-normalization",
            worst >= 0.0,
            worst,
            "hyperexponential weights sum to 1 on 25 well-separated spectra",
        )
    ]


def _check_bartlett(seed, scale, workers):
    n = max(int(200_000 * scale), 2000)
    M, N = 8, 4
    rng = chunk_stream(seed, 0)
    D, L = bartlett_sample(M, N, rng, size=n)
    worst = np.inf
    for i in range(N):
        shape = M - i
        dev = abs(D[:, i].mean() - shape)
        worst = min(worst, 3.0 * D[:, i].std(ddof=1) / np.sqrt(n) - dev)
        logs = np.log(D[:, i])
        target = -euler_gamma() + (harmonic(shape - 1) if shape > 1 else 0.0)
        dev = abs(logs.mean() - target)
        worst = min(worst, 3.0 * logs.std(ddof=1) / np.sqrt(n) - dev)
    rows = [
        _row(
            "oracles",
            "bartlett-position-moments",
            worst >= 0.0,
            worst,
            "E D_i and E ln D_i match Gamma-position values",
        )
    ]
    sum_log = np.log(D).sum(axis=1)
    H = complex_normal(chunk_stream(seed, 1), (n, N, M))
    direct = np.linalg.slogdet(H @ np.conj(np.swapaxes(H, 1, 2)))[1]
    dev = abs(sum_log.mean() - direct.mean())
    se = np.sqrt(sum_log.var(ddof=1) / n + direct.var(ddof=1) / n)
    rows.append(
        _row(
            "oracles",
            "bartlett-vs-direct-gram",
            dev <= 3 * se,
            3 * se - dev,
            f"mean log-dets {sum_log.mean():.5f} vs {direct.mean():.5f}",
        )
    )
    return rows


def _check_estimator_vs_bruteforce(seed, scale, workers):
    # log rates are heavy-tailed at high rho; below ~2e4 samples the
    # estimated standard errors are too noisy for a stable 3 sigma test
    rng = np.random.default_rng(seed)
    n = max(int(20_000 * scale), 20_000)
    worst = np.inf
    for trial in range(10):
        N = int(rng.integers(1, 3))
        M = int(rng.integers(N, 5))
        mean = complex_normal(rng, (N, M)) if rng.uniform() < 0.5 else np.zeros((N, M))
        spec = GapSpec(mean, random_psd_cov(rng, M, float(rng.uniform(0.5, 2.0))))
        rho = float(10.0 ** rng.uniform(-1, 3))
        a = gamma_rho(spec, rho, n, seed + 100 + trial, workers=workers)
        b = brute_force_gap(spec, rho, n, seed + 200 + trial)
        se = np.hypot(a.std_error, b.std_error)
        worst = min(worst, 3.0 * se - abs(a.value - b.value))
    return [
        _row(
            "oracles",
            "estimator-vs-brute-force",
            worst >= 0.0,
            worst,
            "chunked estimator agrees with the plain loop on random specs",
        )
    ]


def _check_e1_identity(seed, scale, workers):
    n = max(int(200_000 * scale), 2000)
    worst = np.inf
    for i, rho in enumerate((0.5, 1.0, 10.0)):

        def evaluate(rng, count):
            x = rng.exponential(size=count)
            return np.log1p(rho * x)[:, None]

        mean, se, _ = vector_stats(n, seed + i, evaluate, workers=workers)
        s = 1.0 / rho
        exact = np.exp(s) * exp_integral_e1(s)
        worst = min(worst, 3.0 * float(se[0]) - abs(float(mean[0]) - exact))
    return [
        _row(
            "oracles",
            "e1-exponential-identity",
            worst >= 0.0,
            worst,
            "e^(1/rho) E1(1/rho) equals E ln(1 + rho X) for X ~ Exp(1)",
        )
    ]


_THEOREM_CHECKS = [
    _check_monotonicity,
    _check_endpoint_m1,
    _check_theorem2_containment,
    _check_theorem3,
    _check_mimo_closed_form,
    _check_taylor_consistency,
    _check_sandwich_demo,
]

_ORACLE_CHECKS = [
    _check_oracle_iid_vs_mc,
    _check_oracle_vs_quadrature,
    _check_corr_oracle_vs_mc,
    _check_partial_fractions,
    _check_bartlett,
    _check_estimator_vs_bruteforce,
    _check_e1_identity,
]

SUITES = {"theorems": _THEOREM_CHECKS, "oracles": _ORACLE_CHECKS}


def run_suite(suite: str, seed: int, scale: float = 1.0, workers: int = 1):
    """Run one named suite (or 'all'); returns a list of result rows."""
    scale = check_nonnegative(scale, "scale")
    if suite == "all":
        names = list(SUITES)
    elif suite in SUITES:
        names = [suite]
    else:
        raise DomainError(f"unknown suite {suite!r}; choose theorems, oracles, or all")
    rows = []
    for name in names:
        for check in SUITES[name]:
            rows.extend(check(seed, scale, workers))
    return rows
