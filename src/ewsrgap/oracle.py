"""Independent ground-truth evaluators.

Exact expected-rate integrals for the zero-mean MISO cases, a
Bartlett-decomposition Wishart sampler, a Gauss-Laguerre quadrature
evaluator, and a deliberately plain Monte-Carlo baseline. Nothing here
shares code with the optimized estimators in `gap`, which is the point:
these are the references the estimators are tested against.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DegenerateSpectrum, DomainError, check_integer, check_nonnegative
from .gap import EigenSpectrum, GapSpec, partial_fraction_weights
from .mc import MonteCarloEstimate, check_run, complex_normal
from .special import expn_scaled, gauss_laguerre


def exact_e_log_miso_iid(M: int, rho: float) -> float:
    """E ln(1 + rho x) for x ~ Gamma(M, 1), i.e. x = ||h||^2 of an
    M-antenna i.i.d. unit-variance complex Gaussian vector.

    Evaluated through the closed identity

        E ln(1 + rho x) = e^{1/rho} sum_{k=1}^{M} E_k(1/rho),

    which follows from integrating the Gamma density against
    ln(1 + rho x) by parts (the exponential-integral recursion), so the
    result is exact to floating-point accuracy for every M and rho,
    including rho far beyond where quadrature on the log integrand is
    trustworthy.
    """
    M = check_integer(M, "M")
    rho = check_nonnegative(rho, "rho")
    if rho == 0.0:
        return 0.0
    s = 1.0 / rho
    return float(sum(expn_scaled(k, s) for k in range(1, M + 1)))


def exact_e_log_miso_corr(spectrum: EigenSpectrum, rho: float) -> float:
    """E ln(1 + rho x) for x = sum_i lambda_i |h_i|^2 with i.i.d. unit
    complex Gaussian h_i (a hyperexponential mixture).

    Expands the density in partial fractions and applies the
    single-exponential identity E ln(1 + rho X) = e^{1/(rho lambda)}
    E_1(1/(rho lambda)) per component. The partial-fraction weights are
    validated to sum to 1 before use.
    """
    rho = check_nonnegative(rho, "rho")
    if rho == 0.0:
        return 0.0
    lam = spectrum.lambdas
    w = partial_fraction_weights(lam)
    total = float(np.sum(w))
    if abs(total - 1.0) > 1e-9:
        raise DegenerateSpectrum(
            f"partial-fraction weights sum to {total!r}; eigenvalues too close"
        )
    return float(sum(wi * expn_scaled(1, 1.0 / (rho * li)) for wi, li in zip(w, lam)))


def e_log_quadrature(M: int, rho: float, n_nodes: int = 128) -> float:
    """Gauss-Laguerre evaluation of E ln(1 + rho x), x ~ Gamma(M, 1).

    The density factor x^{M-1}/(M-1)! is evaluated in log space, so
    large M neither overflows nor loses the small-node contributions.
    Accuracy is excellent (1e-13 .. 1e-9 absolute) while the integrand
    stays polynomial-like, i.e. for rho <= 1 at any M and for M >= 4 at
    any rho; it degrades to ~1e-2 for M = 1 at rho >= 1e4 because the
    logarithm's branch point moves onto the integration endpoint. Use
    exact_e_log_miso_iid when that regime matters; this evaluator
    exists as an independent cross-check.
    """
    M = check_integer(M, "M")
    rho = check_nonnegative(rho, "rho")
    if rho == 0.0:
        return 0.0
    rule = gauss_laguerre(n_nodes)
    x = rule.nodes
    log_density = (M - 1) * np.log(x) - math.lgamma(M)
    return float(np.sum(rule.weights * np.exp(log_density) * np.log1p(rho * x)))


def bartlett_sample(M: int, N_k: int, rng: np.random.Generator, size=None):
    """Cholesky factors of an N_k x N_k complex Wishart(M) Gram matrix.

    Returns (D, L): D[i] ~ Gamma(M - i, 1) for 0-based position i
    (equivalently (1/2) chi^2 with 2(M - i) degrees of freedom), and L
    unit-lower-triangular with L[i, j] sqrt(D[j]) ~ CN(0, 1) below the
    diagonal. Then L diag(D) L^H is distributed as H H^H for an
    N_k x M matrix H of i.i.d. unit complex Gaussians, and
    ln det = sum_i ln D[i].

    size=None yields one draw (shapes (N_k,), (N_k, N_k)); an integer
    yields batched leading dimensions.
    """
    M, N_k = check_integer(M, "M"), check_integer(N_k, "N_k")
    if N_k > M:
        raise DomainError(f"Bartlett sampling requires N_k <= M, got {N_k} > {M}")
    n = 1 if size is None else int(size)
    D = np.empty((n, N_k))
    for i in range(N_k):
        D[:, i] = rng.standard_gamma(M - i, size=n)
    T = complex_normal(rng, (n, N_k, N_k))
    L = np.tril(T, k=-1) / np.sqrt(D)[:, None, :]
    idx = np.arange(N_k)
    L[:, idx, idx] = 1.0
    if size is None:
        return D[0], L[0]
    return D, L


def brute_force_gap(
    spec: GapSpec, rho: float, n_samples: int, seed: int
) -> MonteCarloEstimate:
    """Plain single-threaded Monte-Carlo estimate of Gamma(rho).

    One draw per loop iteration, log-det via slogdet, no chunking, no
    common random numbers, no shared code with gamma_rho. Exists solely
    to cross-validate the optimized estimator.
    """
    rho = check_nonnegative(rho, "rho")
    n_samples, seed, _ = check_run(n_samples, seed)
    if rho == 0.0:
        return MonteCarloEstimate(0.0, 0.0, n_samples, seed, rho=0.0)
    N = spec.n_rx
    eye = np.eye(N)
    sign, first = np.linalg.slogdet(eye + rho * spec.expected_gram())
    rng = np.random.default_rng(seed)
    S = spec.cov_sqrt
    vals = np.empty(n_samples)
    for i in range(n_samples):
        H = spec.mean + complex_normal(rng, spec.mean.shape) @ S
        _, vals[i] = np.linalg.slogdet(eye + rho * (H @ H.conj().T))
    mean = float(vals.mean())
    se = float(vals.std(ddof=1) / np.sqrt(n_samples))
    return MonteCarloEstimate(
        value=float(first) - mean,
        std_error=se,
        n_samples=n_samples,
        seed=seed,
        rho=rho,
    )
