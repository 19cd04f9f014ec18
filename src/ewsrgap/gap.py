"""The expectation gap Gamma(rho) and its limits.

For an effective channel distributed as H = mean + W sqrt(cov), the gap

    Gamma(rho) = ln|I + rho E H H^H| - E ln|I + rho H H^H|

is nonnegative (Jensen) and monotonically increasing in rho, so its
infinite-SNR value bounds it everywhere. This module provides the
Monte-Carlo estimator of Gamma(rho), the closed-form infinite-SNR
limits for the zero-mean i.i.d. MISO/MIMO and correlated MISO cases,
and the deterministic second-order approximation Gamma_2.

Every Monte-Carlo draw of a GapSpec, here and in `rates`, comes from
``GapSpec.draw``, which samples in the eigenbasis of
cov = V diag(lambda) V^H. Since sqrt(cov) = V diag(sqrt(lambda)) V^H,
H V = mean V + (W V) diag(sqrt(lambda)), and W V has the law of W
because V is unitary. So it draws mean V + W diag(sqrt(lambda)),
O(N M) per sample instead of the O(N M^2) product with the M x M root,
and the Gram of that draw has the law of H H^H = (H V)(H V)^H.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import linalg
from .errors import DegenerateSpectrum, DimensionMismatch, DomainError
from .errors import check_integer, check_nonnegative
from .mc import CHUNK_SIZE, MonteCarloEstimate, check_run, complex_normal, vector_stats
from .special import euler_gamma, harmonic

# Most entries a spec's covariance or one Monte-Carlo chunk may hold:
# max(width * width, CHUNK_SIZE * n_rx * max(n_rx, width)), 2 GiB of
# complex doubles.
MAX_CHUNK_ENTRIES = 2**27


def check_spec_size(n_rx: int, width: int) -> None:
    """Reject an n_rx x width spec whose covariance, one-chunk draw or
    Gram batch would exceed MAX_CHUNK_ENTRIES; run it before allocating
    the spec."""
    entries = max(width * width, CHUNK_SIZE * n_rx * max(n_rx, width))
    if entries > MAX_CHUNK_ENTRIES:
        raise DomainError(
            f"a {n_rx} x {width} channel needs {entries:.3g} entries in its "
            f"covariance or one Monte-Carlo chunk, above the limit of {MAX_CHUNK_ENTRIES}"
        )


@dataclass(eq=False)
class GapSpec:
    """A Gaussian channel H = mean + W sqrt(cov), W i.i.d. CN(0, 1).

    mean is N x M complex (may be zero; a 1-d mean is one row); cov is
    M x M Hermitian PSD, the transmit-side covariance of the
    perturbation. It describes a scenario's links as well as the
    effective channels whose Gram-log-det gap is studied. ``spectrum``
    is the one eigendecomposition of cov; the square root and the
    eigenbasis sampler ``draw`` both come from it.
    """

    mean: np.ndarray
    cov: np.ndarray

    def __post_init__(self):
        self.mean = np.atleast_2d(np.asarray(self.mean, dtype=complex))
        self.cov = np.asarray(self.cov, dtype=complex)
        if self.mean.ndim != 2:
            raise DimensionMismatch(f"mean must be 1-d or 2-d, got shape {self.mean.shape}")
        check_spec_size(*self.mean.shape)
        self.spectrum = linalg.psd_eig(self.cov)  # validates Hermitian PSD
        if self.mean.shape[1] != self.cov.shape[0]:
            raise DimensionMismatch(
                f"mean has {self.mean.shape[1]} columns, cov is {self.cov.shape}"
            )

    @property
    def n_rx(self) -> int:
        return self.mean.shape[0]

    @cached_property
    def cov_sqrt(self) -> np.ndarray:
        """The Hermitian root of cov, bit for bit linalg.hermitian_sqrt(cov)."""
        return self.spectrum.sqrt()

    def draw(self, rng: np.random.Generator, count: int) -> np.ndarray:
        """count draws of H V = mean V + W diag(sqrt(lambda)), shape (count, N, M).

        V is ``spectrum.eigenvectors``; see the module docstring for why
        the Gram X X^H of a draw X has the law of H H^H, and X V^H the
        law of H. One complex_normal call of shape (count, N, M).
        """
        X = complex_normal(rng, (count,) + self.mean.shape)
        X *= self.spectrum.roots()
        if np.any(self.mean):
            X += self.mean @ self.spectrum.eigenvectors
        return X

    @property
    def nonzero_eigenvalues(self) -> np.ndarray:
        """Eigenvalues of cov above 1e-9 times the largest, descending:
        the spectrum on the directions the perturbation reaches."""
        eig = self.spectrum.eigenvalues
        return eig[eig > 1e-9 * float(eig.max(initial=0.0))]

    def is_zero_mean(self) -> bool:
        """No mean entry above 1e-12 max(1, sqrt(tr cov)) in magnitude."""
        scale = np.sqrt(max(np.trace(self.cov).real, 0.0))
        return float(np.max(np.abs(self.mean))) <= 1e-12 * max(scale, 1.0)

    def expected_gram(self) -> np.ndarray:
        """E H H^H = mean mean^H + tr(cov) I; DomainError when it overflows."""
        with np.errstate(over="ignore", invalid="ignore"):  # raised below
            G = self.mean @ self.mean.conj().T
            G = G + np.trace(self.cov).real * np.eye(self.n_rx)
        if not np.isfinite(G).all():
            raise DomainError("the expected Gram overflows the float range")
        return G


@dataclass
class EigenSpectrum:
    """Strictly positive, pairwise distinct eigenvalues, sorted descending."""

    lambdas: np.ndarray

    def __post_init__(self):
        lam = np.sort(np.asarray(self.lambdas, dtype=float))[::-1]
        if lam.size == 0:
            raise DomainError("spectrum must hold at least one eigenvalue")
        if np.any(lam <= 0.0):
            raise DomainError("eigenvalues must be strictly positive")
        if np.any(np.diff(lam) == 0.0):
            raise DegenerateSpectrum("eigenvalues must be pairwise distinct")
        self.lambdas = lam

    @property
    def p(self) -> int:
        return int(self.lambdas.size)


def _esei_term(spec: GapSpec, rho: float) -> float:
    """ln|I + rho E H H^H| for the distribution described by ``spec``;
    DomainError when rho E H H^H overflows the float range."""
    with np.errstate(over="ignore", invalid="ignore"):  # raised below
        X = np.eye(spec.n_rx) + rho * spec.expected_gram()
    if not np.isfinite(X).all():
        raise DomainError("the surrogate term overflows the float range")
    return linalg.logdet_hpd(X)


class SweepResult(list):
    """A list of MonteCarloEstimate, one per grid point, plus the paired
    standard errors of successive differences (common random numbers
    make these far smaller than the per-point errors)."""

    def __init__(self, estimates, diff_std_errors):
        super().__init__(estimates)
        self.diff_std_errors = np.asarray(diff_std_errors, dtype=float)


def gamma_rho(
    spec: GapSpec,
    rho: float,
    n_samples: int,
    seed: int,
    workers: int = 1,
) -> MonteCarloEstimate:
    """Monte-Carlo estimate of Gamma(rho) for one SNR.

    The expected-Gram term is closed form; only E ln|I + rho H H^H| is
    sampled. Draws depend on (seed, sample index) alone, so estimates
    at different rho from the same seed share their random numbers.
    """
    sweep = monotonicity_sweep(spec, [rho], n_samples, seed, workers=workers)
    return sweep[0]


def monotonicity_sweep(
    spec: GapSpec,
    rho_grid,
    n_samples: int,
    seed: int,
    workers: int = 1,
) -> SweepResult:
    """Gamma(rho) across an ascending SNR grid with common random numbers.

    Returns a SweepResult whose diff_std_errors let successive grid
    differences be tested at their paired precision.
    """
    if np.ndim(rho_grid) != 1 or np.size(rho_grid) == 0:
        raise DomainError("rho grid must be a non-empty 1-d sequence")
    rhos = np.array([check_nonnegative(r, "rho") for r in rho_grid])
    n_samples, seed, workers = check_run(n_samples, seed, workers)
    if np.any(np.diff(rhos) < 0.0):
        raise DomainError("rho grid must be ascending")

    first = np.array([_esei_term(spec, r) if r > 0.0 else 0.0 for r in rhos])

    # Deterministic channel: both terms coincide at every rho.
    if np.trace(spec.cov).real <= 0.0:
        ests = [
            MonteCarloEstimate(0.0, 0.0, n_samples, seed, rho=float(r)) for r in rhos
        ]
        return SweepResult(ests, np.zeros(max(rhos.size - 1, 0)))

    positive = rhos > 0.0
    rho_pos = rhos[positive]

    def evaluate(rng, count):
        X = spec.draw(rng, count)
        vals = np.zeros((count, rhos.size))
        if rho_pos.size:
            vals[:, positive] = linalg.gram_log_rates(linalg.gram(X), rho_pos)
        return vals

    mc_mean, mc_se, diff_se = vector_stats(
        n_samples, seed, evaluate, workers=workers, track_diffs=True
    )
    ests = [
        MonteCarloEstimate(
            value=float(first[p] - mc_mean[p]),
            std_error=float(mc_se[p]),
            n_samples=n_samples,
            seed=seed,
            rho=float(rhos[p]),
        )
        for p in range(rhos.size)
    ]
    return SweepResult(ests, diff_se)


def gamma_inf_miso_iid(M: int) -> float:
    """Infinite-SNR gap for a zero-mean i.i.d. MISO channel with M inputs.

    Equals gamma + ln M - H_{M-1}, which is also
    gamma - (H_M - ln M) + 1/M.
    """
    M = check_integer(M, "M")
    h = harmonic(M - 1) if M > 1 else 0.0
    return euler_gamma() + float(np.log(M)) - h


def gamma_inf_miso_corr(spectrum: EigenSpectrum) -> float:
    """Infinite-SNR gap for a zero-mean correlated MISO channel.

    gamma - (sum_i w_i ln lambda_i - ln sum_i lambda_i) with
    hyperexponential partial-fraction weights
    w_i = prod_{l != i} 1/(1 - lambda_l/lambda_i). The expression is
    invariant under scaling every eigenvalue by the same factor.
    """
    lam = spectrum.lambdas
    gap = min_relative_gap(lam)
    if gap <= 1e-6:
        raise DegenerateSpectrum(
            "eigenvalues too close for the partial-fraction form "
            f"(min relative gap {gap:.2e} <= 1e-6)"
        )
    w = partial_fraction_weights(lam)
    return euler_gamma() - (float(np.sum(w * np.log(lam))) - float(np.log(lam.sum())))


def min_relative_gap(lam) -> float:
    """Smallest |lambda_i - lambda_j| / max(lambda_i, lambda_j) over pairs
    i != j of positive eigenvalues; inf for fewer than two."""
    lam = np.asarray(lam, dtype=float)
    gaps = np.abs(np.subtract.outer(lam, lam)) / np.maximum.outer(lam, lam)
    np.fill_diagonal(gaps, np.inf)
    return float(gaps.min(initial=np.inf))


def partial_fraction_weights(lam: np.ndarray) -> np.ndarray:
    """Weights w_i = prod_{l != i} 1/(1 - lambda_l/lambda_i); they sum to 1."""
    lam = np.asarray(lam, dtype=float)
    ratio = 1.0 - lam[None, :] / lam[:, None]
    np.fill_diagonal(ratio, 1.0)
    return 1.0 / np.prod(ratio, axis=1)


def gamma_inf_mimo_iid(M: int, N_k: int) -> float:
    """Infinite-SNR gap for a zero-mean i.i.d. MIMO channel, M >= N_k.

    Sum over receive dimensions of MISO gaps:
    sum_{i=1}^{N_k} (gamma + ln M - H_{M-i}).
    """
    M, N_k = check_integer(M, "M"), check_integer(N_k, "N_k")
    if N_k > M:
        raise DomainError(f"closed form requires N_k <= M, got N_k={N_k}, M={M}")
    g, lnM = euler_gamma(), float(np.log(M))
    total = 0.0
    for i in range(1, N_k + 1):
        h = harmonic(M - i) if M - i >= 1 else 0.0
        total += g + lnM - h
    return total


def taylor_gamma2(spec: GapSpec, rho: float) -> float:
    """Second-order (in the Gram fluctuation) approximation of Gamma(rho).

    With X = I + rho E H H^H and C = ``spec.cov``,

        Gamma_2(rho) = (rho^2 / 2) [ (tr X^{-1})^2 tr(C^2)
                        + 2 tr(X^{-1}) tr(mean^H X^{-1} mean C) ],

    which is the exact value of (rho^2/2) E tr(X^{-1} D X^{-1} D) for
    the centered Gram fluctuation D under fourth-order Gaussian moment
    identities. It vanishes for a deterministic channel (C = 0) and is
    nonnegative for every spec, consistent with Jensen.
    """
    rho = check_nonnegative(rho, "rho")
    if rho == 0.0:
        return 0.0
    N = spec.n_rx
    C = spec.cov
    with np.errstate(over="ignore", invalid="ignore"):  # raised below
        X = np.eye(N) + rho * spec.expected_gram()
        Xi = np.linalg.inv(X)
        t = np.trace(Xi).real
        quad = np.trace(spec.mean.conj().T @ Xi @ spec.mean @ C).real
        value = 0.5 * rho * rho * (t * t * np.trace(C @ C).real + 2.0 * t * quad)
    return _finite(value)


def taylor_gamma2_inf_zero_mean(C, N: int) -> float:
    """Infinite-SNR second-order gap for a zero-mean channel.

    (N^2 / 2) tr(C^2) / (tr C)^2, invariant under scaling of C.
    """
    N = check_integer(N, "N")
    C = np.asarray(C, dtype=complex)
    trc = np.trace(C).real
    if not trc > 0.0:
        raise DomainError("tr C must be positive")
    with np.errstate(over="ignore", invalid="ignore"):  # raised below
        value = 0.5 * N * N * np.trace(C @ C).real / (trc * trc)
    return _finite(value)


def _finite(value) -> float:
    """value as a float, or DomainError when it overflowed to inf or NaN."""
    if not np.isfinite(value):
        raise DomainError("the second-order gap overflows the float range")
    return float(value)
