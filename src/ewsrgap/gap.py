"""The expectation gap Gamma(rho) and its limits.

For an effective channel distributed as H = mean + W sqrt(cov), the gap

    Gamma(rho) = ln|I + rho E H H^H| - E ln|I + rho H H^H|

is nonnegative (Jensen) and monotonically increasing in rho, so its
infinite-SNR value bounds it everywhere. This module provides the
Monte-Carlo estimator of Gamma(rho), the closed-form infinite-SNR
limits for zero-mean i.i.d. MISO/MIMO channels, the second-order
approximation Gamma_2, and e_log_quadform: exact quadrature of
E ln(1 + rho x) for a single-antenna spec with any mean and spectrum.

Every Monte-Carlo draw of a GapSpec, here and in `rates`, comes from
``GapSpec.draw``, which samples in the eigenbasis of
cov = V diag(lambda) V^H. Since sqrt(cov) = V diag(sqrt(lambda)) V^H,
H V = mean V + (W V) diag(sqrt(lambda)), and W V has the law of W
because V is unitary. So it draws mean V + W diag(sqrt(lambda)),
O(N M) per sample instead of the O(N M^2) product with the M x M root,
and the Gram of that draw has the law of H H^H = (H V)(H V)^H.

monotonicity_sweep (and so gamma_rho) walks each Monte-Carlo chunk in
blocks of BLOCK_ENTRIES // (N M) samples: one draw from the chunk's
generator, its Grams and its log-dets per block, written into the
chunk's rows. A block's working set (1 MiB of draws) stays in cache,
where a whole chunk at M = 256, N = 4 is 64 MiB. The bits do not
change: standard_normal fills values in order from one bit generator,
so consecutive blocks draw what one whole-chunk call would; every Gram
and log-det is per sample; and the chunk sums run over the same
(count, P) array. The EWSR in `rates` keeps whole-chunk draws, because
it draws every user from one generator per chunk, users in order, so
blocking it would change which draws a seed gives each user; its
arrays are small at the sizes it runs.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import linalg
from .errors import DimensionMismatch, DomainError
from .errors import check_integer, check_nonnegative
from .mc import CHUNK_SIZE, MonteCarloEstimate, check_run, complex_normal, vector_stats
from .special import euler_gamma, harmonic

# Most entries a spec's covariance or one Monte-Carlo chunk may hold:
# max(width * width, CHUNK_SIZE * n_rx * max(n_rx, width)), 2 GiB of
# complex doubles. It bounds the covariance and the EWSR's chunk draws
# and Grams; the gap estimator draws in blocks of BLOCK_ENTRIES.
MAX_CHUNK_ENTRIES = 2**27

# Complex entries per block of gap-estimator draws: 1 MiB, which a
# block's draw, Gram and log-dets share in cache.
BLOCK_ENTRIES = 2**16

# The error target and the strip half-width of e_log_quadform.
QUAD_TOL = 1e-16
_STRIP = np.pi / 3.0


def check_spec_size(n_rx: int, width: int) -> None:
    """Reject an n_rx x width spec whose covariance, or whose draws or
    Gram batch over one whole EWSR chunk, would exceed
    MAX_CHUNK_ENTRIES; run it before allocating the spec. The gap
    estimator's blocks are far smaller."""
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
    block = BLOCK_ENTRIES // spec.mean.size  # >= 2 under check_spec_size

    def evaluate(rng, count):
        vals = np.zeros((count, rhos.size))
        for start in range(0, count, block):
            X = spec.draw(rng, min(block, count - start))
            if rho_pos.size:
                G = linalg.gram(X)
                vals[start : start + len(X), positive] = linalg.gram_log_rates(G, rho_pos)
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


def e_log_quadform(lam, mu2, rho) -> float:
    """E ln(1 + rho x), or E ln x when rho is inf, for the quadratic form
    x = sum_i |mu_i + sqrt(lam_i) w_i|^2, w_i i.i.d. CN(0, 1): ||h||^2 of a
    one-row GapSpec whose covariance eigenvalues are lam >= 0 (any, even
    repeated or zero) and whose mean has |mu_i|^2 = mu2 in their basis.
    With m = E x, a = lam/m, b = mu2/m, r = rho m and s = e^u, the MGF of
    y = x/m, phi(s) = prod_i exp(-s b_i/(1 + s a_i))/(1 + s a_i), gives
    E ln(1 + r y) = int (1 - phi(r s)) e^{-s} du and
    E ln y = E ln x - ln m = int (e^{-s} - phi(s)) du.

    Error bound: the trapezoid error and each cut tail stay below tol =
    QUAD_TOL (times ln(1 + r) for finite rho). On |Im u| < a = _STRIP,
    Re s >= |s|/2 and |phi(s)| <= prod_i min(1, 1/(|s| a_i)), so each
    line of the strip has an L1 norm of at most B = min(2r, 2 + 2 ln(1 + r)),
    or (1 + E y^2)/4 + 1 + ln 3 - ln max(a) at rho = inf, and the step h
    solves 2B/(e^{2 pi a/h} - 1) = tol (Trefethen & Weideman, SIAM Rev.
    2014, Thm 5.1). The cuts integrate monotone majorants: r e^u and
    e^{-e^u} for finite rho; (1 + E y^2) e^{2u}/4, e^{-e^u} and the tails
    e^{-j u}/(j prod_{i<=j} a_i) of phi (a descending) at rho = inf, whose
    1/s tail a fixed range would cut.
    """
    lam, mu2 = np.asarray(lam, dtype=float), np.asarray(mu2, dtype=float)
    if lam.ndim != 1 or lam.shape != mu2.shape:
        raise DimensionMismatch(f"lam and mu2 must be 1-d of one length, not {lam.shape}")
    if not np.all(np.isfinite(lam) & np.isfinite(mu2) & (lam >= 0.0) & (mu2 >= 0.0)):
        raise DomainError("lam and mu2 must be finite and >= 0")
    infinite = rho == np.inf
    rho = np.inf if infinite else check_nonnegative(rho, "rho")
    with np.errstate(over="ignore"):  # raised below
        m = float(lam.sum() + mu2.sum())
    r = rho * m
    if not np.isfinite(m) or (r == np.inf and not infinite):
        raise DomainError("rho E x overflows the float range")
    if not r > 0.0:  # x = 0, or r underflows
        return -np.inf if infinite else 0.0
    a, b = lam / m, mu2 / m
    if a.max() == 0.0:  # deterministic x = m
        return float(np.log(m) if infinite else np.log1p(r))
    # ln tol and B / tol, so that a tiny r underflows nothing
    if infinite:
        log_tol = np.log(QUAD_TOL)
        ey2 = 1.0 + float(np.sum(a * a + 2.0 * a * b))
        b_tol = (0.25 * (1.0 + ey2) + np.log(3.0) + 1.0 - np.log(a.max())) / QUAD_TOL
        lo = 0.5 * (np.log(4.0 / (1.0 + ey2)) + log_tol)
        pos = np.sort(a[a > 0.0])[::-1]
        j = np.arange(1, pos.size + 1)
        power_cut = np.min((np.log(2.0 / j) - log_tol - np.cumsum(np.log(pos))) / j)
        hi = max(np.log(max(1.0, np.log(2.0) - log_tol)), power_cut)
        if hi > 700.0:  # e^hi would leave the float range
            raise DomainError("the covariance is too small against E x for the quadrature")
    else:
        ln_r = np.log1p(r)
        log_tol = np.log(QUAD_TOL) + np.log(ln_r)
        b_tol = min(2.0 * r, 2.0 + 2.0 * ln_r) / ln_r / QUAD_TOL
        lo, hi = log_tol - np.log(r), np.log(max(1.0, -log_tol))
    h = 2.0 * np.pi * _STRIP / np.log1p(2.0 * b_tol)
    s = np.exp(lo + h * np.arange(int(np.ceil((hi - lo) / h)) + 1))
    rs = s if infinite else r * s
    sa, sb = np.outer(rs, a), np.outer(rs, b)
    log_phi = -np.sum(np.log1p(sa) + sb / (1.0 + sa), axis=1)
    if not infinite:
        return float(h * np.sum(-np.expm1(log_phi) * np.exp(-s)))
    # below q = s + ln phi(s) = 1, e^{-s} - phi(s) = -e^{-s} expm1(q), with q
    # summed term by term so that small s loses no digits
    q = np.sum(sa - np.log1p(sa) + sb * sa / (1.0 + sa), axis=1)
    f = np.exp(-s) - np.exp(log_phi)
    f[q < 1.0] = -np.exp(-s[q < 1.0]) * np.expm1(q[q < 1.0])
    return float(np.log(m) + h * f.sum())


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
