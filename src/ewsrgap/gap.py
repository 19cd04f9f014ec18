"""The expectation gap Gamma(rho) and its limits.

For an effective channel distributed as H = mean + W sqrt(cov), the gap

    Gamma(rho) = ln|I + rho E H H^H| - E ln|I + rho H H^H|

is nonnegative (Jensen) and monotonically increasing in rho, so its
infinite-SNR value bounds it everywhere. This module provides the
Monte-Carlo estimator of Gamma(rho) for rho from 0 to +inf (both of
its log-dets, expected and sampled, taken by linalg.gram_log_rates),
the closed-form infinite-SNR limits for zero-mean i.i.d. MISO/MIMO
channels, the second-order
approximation Gamma_2, and e_log_quadform: exact quadrature of
E ln(1 + rho x) for a single-antenna spec with any mean and spectrum.

Every Monte-Carlo draw of a GapSpec, here and in `rates`, is made of
normals by ``GapSpec._shape`` (``draw`` draws its own) in the eigenbasis of
cov = V diag(lambda) V^H. Since sqrt(cov) = V diag(sqrt(lambda)) V^H,
H V = mean V + (W V) diag(sqrt(lambda)), and W V has the law of W
because V is unitary. Only the r eigenvalues above SUPPORT_RTOL times
the largest count: on the other M - r columns H V is the fixed
(mean V)[:, r:], whose thin SVD U diag(s) W^H keeps it as q <= N
columns U diag(s). So a draw is [mean V_r + W diag(sqrt(lambda_r)), U s],
N r random values per sample instead of the O(N M^2) product with the
M x M root, and ``GapSpec.basis``, [V^H[:r]; W^H V^H[r:]], maps it back:
X basis has the law of H, and X X^H the law of H H^H. A full-rank
spec (r = M) has q = 0 and basis V^H.

shared_sweep (monotonicity_sweep and gamma_rho are its one-spec cases)
walks each Monte-Carlo chunk in blocks of BLOCK_ENTRIES // max N (r + q)
samples, the max over its specs. A block draws one W of shape (block,
max N, max r) from the chunk's generator; each spec shapes its draw from
W[:, :N, :r], i.i.d. CN(0, 1) as any block of W is, then takes its Grams
and log-dets into the chunk's rows. So the specs of one sweep (fig1's and
fig2's antenna counts) share random numbers and are correlated, and one
with the largest N, r and N (r + q) draws what it draws alone, bit for
bit. A block's working set (1 MiB of draws) stays in cache, where a whole
full-rank chunk at M = 256, N = 4 is 64 MiB. Blocking changes no bit:
standard_normal fills values in order from one bit generator, so
consecutive blocks draw what one whole-chunk call would; every Gram and
log-det is per sample; and each column is summed on its own. The EWSR in
`rates` keeps whole-chunk draws, because it draws every user from one
generator per chunk, users in order, so blocking it would change which
draws a seed gives each user; its draws are N (r + q) wide, the rank of
a user's stream covariance plus its mean's part outside it, and small at
the sizes it runs.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import linalg
from .errors import DimensionMismatch, DomainError
from .errors import check_finite, check_integer, check_nonnegative
from .mc import CHUNK_SIZE, MonteCarloEstimate, check_run, complex_normal, vector_stats
from .special import euler_gamma, harmonic

# Most entries a spec's covariance or one Monte-Carlo chunk may hold:
# max(width * width, CHUNK_SIZE * n_rx * max(n_rx, width)), 2 GiB of
# complex doubles. It bounds the covariance and the EWSR's chunk draws
# and Grams, and a sweep's values over one chunk (check_sweep_size); the
# gap estimator draws in blocks of BLOCK_ENTRIES.
MAX_CHUNK_ENTRIES = 2**27

# Complex entries per block of gap-estimator draws: 1 MiB, which a
# block's draw, Gram and log-dets share in cache.
BLOCK_ENTRIES = 2**16

# Eigenvalues of a covariance at or below SUPPORT_RTOL times the largest,
# and the mean's singular values outside their support at or below it in
# power, count as zero: the one relative cut, which sets the support
# (r and q) of a GapSpec and nothing else.
SUPPORT_RTOL = 1e-9

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


def check_sweep_size(n_specs, n_rho) -> None:
    """Reject a sweep of n_specs specs on n_rho SNRs whose values over one
    Monte-Carlo chunk, CHUNK_SIZE n_specs n_rho, would exceed
    MAX_CHUNK_ENTRIES: at most 32768 (spec, SNR) pairs. Run it before
    allocating anything of the sweep's size."""
    if n_specs * n_rho > MAX_CHUNK_ENTRIES // CHUNK_SIZE:
        raise DomainError(
            f"{n_specs} specs x {n_rho:.6g} SNRs = {n_specs * n_rho:.6g} (spec, SNR) "
            f"pairs, above the limit of {MAX_CHUNK_ENTRIES // CHUNK_SIZE} for one sweep"
        )


@dataclass(eq=False)
class GapSpec:
    """A Gaussian channel H = mean + W sqrt(cov), W i.i.d. CN(0, 1).

    mean is N x M complex (may be zero; a 1-d mean is one row); cov is
    M x M Hermitian PSD, the transmit-side covariance of the
    perturbation; both must hold finite numbers. It describes a
    scenario's links as well as the effective channels whose
    Gram-log-det gap is studied. ``spectrum`` is the one
    eigendecomposition of cov; the support (r, q, ``basis``) and the
    eigenbasis sampler ``draw`` come from it. The support is computed
    on first use, so building a spec costs the eigendecomposition alone.

    The spec alone decides what is zero, and its callers compute no
    trace or tolerance of their own: it is deterministic when its
    support is empty (``support_rank`` 0), and zero-mean when every
    mean entry is exactly 0 (``is_zero_mean``). SUPPORT_RTOL is the
    one relative cut: it sets r and q, and so what a draw leaves out
    (``_draws_law_of``).
    """

    mean: np.ndarray
    cov: np.ndarray

    def __post_init__(self):
        self.mean = np.atleast_2d(check_finite(self.mean, "mean"))
        self.cov = check_finite(self.cov, "cov")
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

    def draw(self, rng: np.random.Generator, count: int) -> np.ndarray:
        """count draws of [mean V_r + W diag(sqrt(lambda_r)), U s], shape
        (count, N, r + q), with r = ``support_rank`` and U s the q fixed
        columns of the mean outside the support.

        V is ``spectrum.eigenvectors``; see the module docstring for why
        the Gram X X^H of a draw X has the law of H H^H, and X ``basis``
        the law of H. One complex_normal call of shape (count, N, r); at
        full rank that is (count, N, M) and there are no fixed columns.
        """
        W = complex_normal(rng, (count, self.n_rx, self.support_rank))
        return self._shape(W, out=W)

    def _shape(self, W: np.ndarray, out=None) -> np.ndarray:
        """The draw made of W, (count, N, r) i.i.d. CN(0, 1): scaled by the
        roots into ``out`` (a new array by default), shifted by mean V_r and
        followed by the fixed columns U s."""
        r = self.support_rank
        X = np.multiply(W, self.spectrum.roots()[:r], out=out)
        if np.any(self.mean):
            X += self.rotated_mean[:, :r]
        fixed = self._off_support[0]
        if fixed.shape[1]:
            X = np.concatenate([X, np.broadcast_to(fixed, (len(X),) + fixed.shape)], axis=2)
        return X

    @cached_property
    def rotated_mean(self) -> np.ndarray:
        """The mean in the eigenbasis of cov, mean V, shape (N, M)."""
        with linalg.serial_blas():
            return self.mean @ self.spectrum.eigenvectors

    @cached_property
    def support_rank(self) -> int:
        """r, the number of eigenvalues of cov above SUPPORT_RTOL times
        the largest: the directions the perturbation reaches."""
        eig = self.spectrum.eigenvalues
        return int(np.sum(eig > SUPPORT_RTOL * float(eig.max(initial=0.0))))

    @cached_property
    def _off_support(self):
        """(U s, W^H): the mean's part outside the support, (mean V)[:, r:]
        = U diag(s) W^H by a thin SVD, cut to the q singular values with
        s^2 above SUPPORT_RTOL times max(lambda_max, ||mean||_F^2). U s is
        N x q, W^H is q x (M - r); q = 0 for a zero mean or a full rank."""
        r, (N, M) = self.support_rank, self.mean.shape
        if r == M or self.is_zero_mean():
            return np.zeros((N, 0), dtype=complex), np.zeros((0, M - r), dtype=complex)
        with linalg.serial_blas():
            U, s, Wh = np.linalg.svd(self.rotated_mean[:, r:], full_matrices=False)
        with np.errstate(over="ignore"):  # an overflowing power scale keeps nothing
            scale = max(self.spectrum.eigenvalues[0], np.vdot(self.mean, self.mean).real)
            q = int(np.sum(s * s > SUPPORT_RTOL * scale))
        return U[:, :q] * s[:q], Wh[:q]

    @cached_property
    def basis(self) -> np.ndarray:
        """[V^H[:r]; W^H V^H[r:]], shape (r + q) x M: X basis has the law of
        H for a draw X. It is V^H itself at full rank."""
        Vh = self.spectrum.eigenvectors.conj().T
        r, rows = self.support_rank, self._off_support[1]
        if not rows.shape[0]:
            return Vh[:r]
        with linalg.serial_blas():
            return np.vstack([Vh[:r], rows @ Vh[r:]])

    def _draws_law_of(self, other: GapSpec) -> bool:
        """Whether draws of this spec, read on other's columns, give the
        law of ``other``, this spec or one on a subset of its columns:
        what a draw leaves out of E||H||_F^2 (N times the eigenvalues of
        cov outside the support, plus the mean's power there that the q
        fixed columns drop) is at most SUPPORT_RTOL of other's."""
        if other is self:
            return True
        r, fixed = self.support_rank, self._off_support[0]
        with np.errstate(over="ignore", invalid="ignore"):  # inf or NaN never passes
            outside = self.rotated_mean[:, r:]
            mean = np.vdot(outside, outside).real - np.vdot(fixed, fixed).real
            dropped = self.n_rx * np.clip(self.spectrum.eigenvalues[r:], 0.0, None).sum()
            power = SUPPORT_RTOL * np.trace(other.expected_gram()).real
            return bool(dropped + max(mean, 0.0) <= power)

    @property
    def gram_rank(self) -> int:
        """r + q, the width of a draw: the dimension of the span of the
        mean's rows and the range of cov. H H^H is singular almost surely
        when it is below N."""
        return self.support_rank + self._off_support[0].shape[1]

    @property
    def nonzero_eigenvalues(self) -> np.ndarray:
        """The r eigenvalues of cov in its support, descending."""
        return self.spectrum.eigenvalues[: self.support_rank]

    def is_zero_mean(self) -> bool:
        """Every mean entry is exactly zero: the one zero-mean rule."""
        return not np.any(self.mean)

    def expected_gram(self) -> np.ndarray:
        """E H H^H = mean mean^H + tr(cov) I; DomainError when it overflows."""
        with np.errstate(over="ignore", invalid="ignore"):  # raised below
            G = self.mean @ self.mean.conj().T
            G = G + np.trace(self.cov).real * np.eye(self.n_rx)
        if not np.isfinite(G).all():
            raise DomainError("the expected Gram overflows the float range")
        return G


def _esei_term(spec: GapSpec, rhos) -> np.ndarray:
    """ln|I + rho E H H^H| at every rho of ``rhos`` (+inf gives ln|E H H^H|)
    for the distribution described by ``spec``; DomainError when rho
    E H H^H overflows the float range."""
    first = linalg.gram_log_rates(spec.expected_gram()[None], rhos)[0]
    if np.any(first == np.inf):
        raise DomainError("the surrogate term overflows the float range")
    return first


def _check_rho(rho) -> float:
    """rho as a float when it is +inf or a finite real >= 0, else DomainError."""
    if isinstance(rho, numbers.Real) and rho == np.inf:
        return np.inf
    return check_nonnegative(rho, "rho")


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
    rho = +inf gives Gamma(inf) = ln|E H H^H| - E ln|H H^H| itself,
    which is +inf, and a DomainError, for a random spec whose H H^H is
    singular almost surely (``gram_rank`` below N). It is
    monotonicity_sweep on the grid [rho].
    """
    return monotonicity_sweep(spec, [rho], n_samples, seed, workers=workers)[0]


def monotonicity_sweep(
    spec: GapSpec,
    rho_grid,
    n_samples: int,
    seed: int,
    workers: int = 1,
) -> SweepResult:
    """Gamma(rho) across an ascending SNR grid with common random numbers.

    Returns a SweepResult whose diff_std_errors let successive grid
    differences be tested at their paired precision. The grid may end
    in +inf, as for gamma_rho. It is shared_sweep of [spec].
    """
    return shared_sweep([spec], rho_grid, n_samples, seed, workers=workers)[0]


def shared_sweep(
    specs, rho_grid, n_samples: int, seed: int, workers: int = 1
) -> list[SweepResult]:
    """monotonicity_sweep for every spec of ``specs`` from one Monte-Carlo
    pass: a list of one SweepResult per spec. Each spec reads its draws off
    the leading rows and columns of one block of normals (see the module
    docstring), so the results share random numbers and are correlated.
    Every spec is checked before any draw; a grid without a positive rho
    draws nothing.
    """
    if np.ndim(rho_grid) != 1 or np.size(rho_grid) == 0:
        raise DomainError("rho grid must be a non-empty 1-d sequence")
    rhos = np.array([_check_rho(r) for r in rho_grid])
    n_samples, seed, workers = check_run(n_samples, seed, workers)
    if np.any(rhos[1:] < rhos[:-1]):
        raise DomainError("rho grid must be ascending")
    if not (specs := list(specs)):
        raise DomainError("specs must be a non-empty sequence")
    check_sweep_size(len(specs), rhos.size)

    firsts = [_esei_term(spec, rhos) for spec in specs]
    # A deterministic spec (empty support) draws nothing: both terms
    # coincide at every rho, and its columns of the pass stay zero.
    drawn = [spec for spec in specs if spec.support_rank]
    for spec in drawn:
        if rhos[-1] == np.inf and spec.gram_rank < spec.n_rx:
            raise DomainError(f"Gamma(inf) is +inf: H H^H has rank {spec.gram_rank} < {spec.n_rx}")

    positive = rhos > 0.0
    rho_pos = rhos[positive]
    S, P = len(specs), rhos.size
    mc_mean, mc_se, diff_se = np.zeros(S * P), np.zeros(S * P), np.zeros(S * P - 1)
    if drawn and rho_pos.size:
        N = max(spec.n_rx for spec in drawn)
        r = max(spec.support_rank for spec in drawn)
        # >= 2 under check_spec_size
        block = BLOCK_ENTRIES // max(spec.n_rx * spec.gram_rank for spec in drawn)

        def evaluate(rng, count):
            vals = np.zeros((count, S, P))
            for start in range(0, count, block):
                W = complex_normal(rng, (min(block, count - start), N, r))
                for s, spec in enumerate(specs):
                    if spec.support_rank:
                        X = spec._shape(W[:, : spec.n_rx, : spec.support_rank])
                        rows = vals[start : start + len(W), s]
                        rows[:, positive] = linalg.gram_log_rates(linalg.gram(X), rho_pos)
            return vals.reshape(count, S * P)

        mc_mean, mc_se, diff_se = vector_stats(
            n_samples, seed, evaluate, workers=workers, track_diffs=True
        )
    results = []
    for s, (spec, first) in enumerate(zip(specs, firsts)):
        values = first - mc_mean[s * P : (s + 1) * P] if spec.support_rank else np.zeros(P)
        ests = [
            MonteCarloEstimate(float(v), float(se), n_samples, seed, rho=float(rho))
            for v, se, rho in zip(values, mc_se[s * P : (s + 1) * P], rhos)
        ]
        results.append(SweepResult(ests, diff_se[s * P : (s + 1) * P - 1]))
    return results


def gamma_inf_miso_iid(M: int) -> float:
    """Infinite-SNR gap for a zero-mean i.i.d. MISO channel with M inputs.

    Equals gamma + ln M - H_{M-1}, which is also
    gamma - (H_M - ln M) + 1/M: the MIMO limit with one receive antenna.
    """
    return gamma_inf_mimo_iid(M, 1)


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
    1/s tail a fixed range would cut. Past the float range, r s is cut to
    the largest float, which moves each node by at most phi there: that
    is held to tol, and DomainError raised otherwise.
    """
    lam, mu2 = np.asarray(lam, dtype=float), np.asarray(mu2, dtype=float)
    if lam.ndim != 1 or lam.shape != mu2.shape:
        raise DimensionMismatch(f"lam and mu2 must be 1-d of one length, not {lam.shape}")
    if not np.all(np.isfinite(lam) & np.isfinite(mu2) & (lam >= 0.0) & (mu2 >= 0.0)):
        raise DomainError("lam and mu2 must be finite and >= 0")
    rho = _check_rho(rho)
    infinite = rho == np.inf
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
    with np.errstate(over="ignore"):  # cut to the largest float
        rs = s if infinite else np.minimum(r * s, np.finfo(float).max)
    sa, sb = np.outer(rs, a), np.outer(rs, b)
    log_phi = -np.sum(np.log1p(sa) + sb / (1.0 + sa), axis=1)
    if not infinite:
        if rs[-1] == np.finfo(float).max and log_phi[-1] > log_tol:
            raise DomainError("rho E x overflows the float range")
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
    nonnegative for every spec, consistent with Jensen. Both traces take
    O(N M^2): tr(mean^H X^{-1} mean C) as tr(X^{-1} mean C mean^H), and
    tr(C^2) as sum |C_ij|^2, C being Hermitian.
    """
    rho = check_nonnegative(rho, "rho")
    if rho == 0.0:
        return 0.0
    N = spec.n_rx
    C = spec.cov
    with np.errstate(over="ignore", invalid="ignore"), linalg.serial_blas():  # raised below
        X = np.eye(N) + rho * spec.expected_gram()
        Xi = np.linalg.inv(X)
        t = np.trace(Xi).real
        quad = np.vdot(spec.mean, Xi @ spec.mean @ C).real  # tr(Xi mean C mean^H)
        value = 0.5 * rho * rho * (t * t * np.vdot(C, C).real + 2.0 * t * quad)
    return _finite(value)


def taylor_gamma2_inf_zero_mean(C, N: int) -> float:
    """Infinite-SNR second-order gap for a zero-mean channel.

    (N^2 / 2) tr(C^2) / (tr C)^2, invariant under scaling of C, with
    tr(C^2) taken as sum |C_ij|^2 for the Hermitian C.
    """
    N = check_integer(N, "N")
    C = np.asarray(C, dtype=complex)
    trc = np.trace(C).real
    if not trc > 0.0:
        raise DomainError("tr C must be positive")
    with np.errstate(over="ignore", invalid="ignore"), linalg.serial_blas():  # raised below
        value = 0.5 * N * N * np.vdot(C, C).real / (trc * trc)
    return _finite(value)


def _finite(value) -> float:
    """value as a float, or DomainError when it overflowed to inf or NaN."""
    if not np.isfinite(value):
        raise DomainError("the second-order gap overflows the float range")
    return float(value)
