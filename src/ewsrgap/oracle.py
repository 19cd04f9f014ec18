"""Independent ground-truth evaluators.

Exact expected-rate integrals for the zero-mean MISO cases, a
Bartlett-decomposition Wishart sampler, a Gauss-Laguerre quadrature
evaluator, and a deliberately plain Monte-Carlo baseline. Nothing here
but the GapSpec type comes from `gap`, which is the point: these are
the references its estimators and its quadrature kernel are tested against.
The baseline reads only a spec's mean and cov and applies none of the
spec's zero rules (empty support, exactly zero mean): it draws what the
law gives, however small the covariance.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DomainError, check_integer, check_nonnegative
from .gap import GapSpec
from .linalg import serial_blas
from .mc import MonteCarloEstimate, check_run, complex_normal
from .special import expn_scaled, gauss_laguerre

# Relative error that exact_e_log_miso_corr guarantees to first order in
# the unit roundoff _EPS; a spectrum it cannot meet this on is refused.
CORR_REL_TOL = 1e-10
_EPS = float(np.finfo(float).eps)


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


def partial_fraction_weights(lam) -> np.ndarray:
    """Weights w_i = prod_{l != i} 1/(1 - lambda_l/lambda_i); they sum to 1."""
    lam = np.asarray(lam, dtype=float)
    ratio = 1.0 - lam[None, :] / lam[:, None]
    np.fill_diagonal(ratio, 1.0)
    return 1.0 / np.prod(ratio, axis=1)


def exact_e_log_miso_corr(lam, rho: float) -> float:
    """E ln(1 + rho x) for x = sum_i lambda_i |h_i|^2 with i.i.d. unit
    complex Gaussian h_i (a hyperexponential mixture).

    Expands the density in partial fractions and applies the
    single-exponential identity E ln(1 + rho X) = e^{1/(rho lambda)}
    E_1(1/(rho lambda)) per component. The weights w_i grow and lose
    their digits as the positive eigenvalues lam cluster, so the result
    is returned only when its first-order rounding bound,

        eps sum_i |w_i f_i| (3n + sum_{l != i} 1/|1 - lambda_l/lambda_i|)
        / |sum_i w_i f_i|,

    is at most CORR_REL_TOL, and DomainError is raised otherwise: a
    reference for separated spectra only. Here n = len(lam) and f_i =
    e^{1/(rho lambda_i)} E_1(1/(rho lambda_i)). Each factor
    1 - lambda_l/lambda_i of w_i magnifies the rounding of its quotient
    by 1/|1 - lambda_l/lambda_i|, and 3n covers the other roundings in
    w_i and f_i and the n - 1 additions. eps sum_i |w_i| alone misses
    the weights' own rounding, which dominates on mildly clustered
    spectra.
    """
    rho = check_nonnegative(rho, "rho")
    lam = np.asarray(lam, dtype=float)
    if lam.ndim != 1 or lam.size == 0 or not np.all(lam > 0.0):
        raise DomainError("lam must be a non-empty 1-d array of positive eigenvalues")
    if rho == 0.0:
        return 0.0
    f = np.array([expn_scaled(1, 1.0 / (rho * li)) for li in lam])
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):  # checked below
        terms = partial_fraction_weights(lam) * f
        value = sum(terms)
        gaps = np.abs(1.0 - lam[None, :] / lam[:, None])
        np.fill_diagonal(gaps, np.inf)
        amplification = 3.0 * lam.size + np.sum(1.0 / gaps, axis=1)
        bound = _EPS * np.sum(np.abs(terms) * amplification) / abs(value)
    if not bound <= CORR_REL_TOL:
        raise DomainError(
            f"partial-fraction rounding bound {bound:.3g} exceeds {CORR_REL_TOL:g}; "
            "eigenvalues too close"
        )
    return float(value)


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

    One draw per loop iteration, H = mean + W S with its own root S of
    cov from a separate eigh, log-det via slogdet, no chunking, no
    common random numbers, no shared code with gamma_rho: not the
    spec's spectrum, support or sampler. Exists solely to
    cross-validate the optimized estimator.
    """
    rho = check_nonnegative(rho, "rho")
    n_samples, seed, _ = check_run(n_samples, seed)
    if rho == 0.0:
        return MonteCarloEstimate(0.0, 0.0, n_samples, seed, rho=0.0)
    N = spec.n_rx
    eye = np.eye(N)
    sign, first = np.linalg.slogdet(eye + rho * spec.expected_gram())
    rng = np.random.default_rng(seed)
    with serial_blas():
        w, V = np.linalg.eigh(spec.cov)
        S = (V * np.sqrt(np.clip(w, 0.0, None))) @ V.conj().T
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
