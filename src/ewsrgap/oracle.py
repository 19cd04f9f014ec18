"""Independent sampling references.

A Bartlett-decomposition Wishart sampler and a deliberately plain
Monte-Carlo baseline of the gap. Nothing here but the GapSpec type comes
from `gap`, which is the point: `verify` checks the estimators against
these. The baseline reads only a spec's mean and cov and applies none of
the spec's zero rules (empty support, exactly zero mean): it draws what
the law gives, however small the covariance. The exact values of
E ln(1 + rho x) are the package's own kernel, `gap.e_log_quadform`; the
tests hold it to 50-digit mpmath references.
"""

from __future__ import annotations

import numpy as np

from .errors import DomainError, check_integer, check_nonnegative
from .gap import GapSpec
from .linalg import serial_blas
from .mc import MonteCarloEstimate, check_run, complex_normal


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
