"""Weighted sum-rate objectives and the sandwich bound between them.

Two quantities compete: the expected weighted sum rate (expectation
outside the log-det) and its large-array surrogate (expectation moved
inside). Their per-user difference is a Gamma gap from `gap`, bounded
by its infinite-SNR limit, which yields computable lower/upper bounds
on the true expected rate from the surrogate alone.

The Monte-Carlo EWSR shares its sampler and its kernels with the gap
estimator: each user's precoded channels are drawn with
GapSpec.draw, in the eigenbasis of the stream covariance, their Grams
formed by linalg.gram and their log-dets taken by
linalg.gram_log_rates.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import linalg
from .channel import (
    IbcScenario,
    PrecoderSet,
    _served_cells,
    check_precoders,
    stream_spec,
)
from .errors import DegenerateSpectrum, DimensionMismatch, DomainError, UnsupportedCase
from .gap import (
    EigenSpectrum,
    GapSpec,
    _esei_term,
    gamma_inf_mimo_iid,
    gamma_inf_miso_corr,
    gamma_rho,
    taylor_gamma2_inf_zero_mean,
)
from .mc import MonteCarloEstimate, check_run, vector_stats

# Numerical stand-in for infinite SNR in Monte-Carlo gap estimation;
# the remaining O(1/rho) bias sits far below statistical error.
RHO_HIGH_SNR = 1.0e6

# The explicit gap-limit methods, from most to least exact. "auto"
# takes the first that applies.
GAP_METHODS = ("closed-form", "taylor", "monte-carlo-high-snr")


@dataclass
class SandwichBound:
    """Bounds tying the expected rate to its surrogate.

    lower = esei_value - sum_k u_k gamma_k and
    upper = esei_value + sum_k u_k gamma_kbar, where gamma_k bounds the
    signal-term gap and gamma_kbar the interference-term gap of user k.
    method_per_user records how each user's gamma limits were obtained
    (the least exact method used for that user).
    """

    lower: float
    upper: float
    esei_value: float
    per_user_gamma_k: np.ndarray
    per_user_gamma_kbar: np.ndarray
    method_per_user: list

    def __post_init__(self):
        if np.isnan([self.lower, self.esei_value, self.upper]).any():
            raise DomainError("sandwich bounds are NaN: the scenario overflows the float range")
        if not (self.lower <= self.esei_value <= self.upper):
            raise DomainError("sandwich bounds must bracket the surrogate value")

    @property
    def width(self) -> float:
        return self.upper - self.lower

    def contains(self, value: float) -> bool:
        return self.lower <= value <= self.upper


def _rate_terms(X: np.ndarray, own_basis: np.ndarray | None):
    """Signal and interference terms of one user for a batch of draws.

    X (n, N, D) holds draws F V of the precoded channels F = [H_kj G_j]_j
    in the eigenbasis V of their stream covariance (GapSpec.draw), and
    own_basis = V^H[:, own] maps them back to the user's own columns.
    The signal Gram is X X^H = F F^H; the interference Gram drops the
    own streams, X X^H - F_own F_own^H with F_own = X V^H[:, own]. A
    user whose own streams are all the columns has own_basis None and
    an interference Gram of exactly zero. Returns ln|I + .| of both.
    """
    S = linalg.gram(X)
    intf = np.zeros_like(S) if own_basis is None else S - linalg.gram(X @ own_basis)
    return tuple(linalg.gram_log_rates(G, [1.0])[:, 0] for G in (S, intf))


def _split(spec: GapSpec, own: slice):
    """A user's signal spec and its interference spec, which drops the
    own columns; a user alone in the only serving cell keeps none."""
    keep = np.r_[0 : own.start, own.stop : spec.mean.shape[1]]
    return spec, GapSpec(spec.mean[:, keep], spec.cov[np.ix_(keep, keep)])


def _term_specs(scenario, precoders):
    """Per user, the (signal, interference) specs of the ESEI and the sandwich."""
    return [_split(*stream_spec(scenario, precoders, k)) for k in range(scenario.n_users)]


def wsr_realization(scenario: IbcScenario, precoders: PrecoderSet, channels) -> float:
    """Weighted sum rate for one set of per-link channels.

    channels[k][j] is the channel from cell j to user k (rx_antennas_k
    x M_j). Always nonnegative for nonnegative weights, since each
    user's bracket is a valid rate.
    """
    check_precoders(scenario, precoders)
    cells, own = _served_cells(scenario, precoders)
    total = 0.0
    for k, u in enumerate(scenario.users):
        blocks = []
        for j, G in cells:
            H = np.asarray(channels[k][j], dtype=complex)
            expect = (u.rx_antennas, scenario.bs_antennas[j])
            if H.shape != expect:
                raise DimensionMismatch(f"channel ({k},{j}) has shape {H.shape}, expected {expect}")
            blocks.append(H @ G)
        F = np.concatenate(blocks, axis=1)
        # With zero covariance the surrogate terms are the rate terms of
        # the realization F = mean, bit for bit.
        spec = GapSpec(F, np.zeros((F.shape[1],) * 2))
        sig, intf = (_esei_term(s, 1.0) for s in _split(spec, own[k]))
        total += u.rate_weight * (sig - intf)
    return total


def _term_evaluator(specs, weights):
    """Per-sample statistic matrix for all users' rate terms.

    Column 0 is the weighted sum rate; columns 1..K are the signal
    terms, columns K+1..2K the interference terms. Each user draws its
    precoded channels from its stream spec with GapSpec.draw, users in
    order, so any consumer of the same seed sees the same channels.
    """
    K = len(specs)
    own_bases = [
        None
        if own == slice(0, spec.mean.shape[1])
        else spec.spectrum.eigenvectors.conj().T[:, own]
        for spec, own in specs
    ]

    def evaluate(rng, count):
        out = np.zeros((count, 1 + 2 * K))
        for k, ((spec, _), own_basis, weight) in enumerate(zip(specs, own_bases, weights)):
            with np.errstate(over="ignore", invalid="ignore"):  # raised after the sums
                sig, intf = _rate_terms(spec.draw(rng, count), own_basis)
                out[:, 1 + k] = sig
                out[:, 1 + K + k] = intf
                out[:, 0] += weight * (sig - intf)
        return out

    return evaluate


def _deterministic(scenario) -> bool:
    return all(
        np.trace(link.cov).real <= 0.0 for row in scenario.links for link in row
    )


def ewsr_monte_carlo(
    scenario: IbcScenario,
    precoders: PrecoderSet,
    n_samples: int,
    seed: int,
    workers: int = 1,
) -> MonteCarloEstimate:
    """Monte-Carlo estimate of the expected weighted sum rate.

    Deterministic given (seed, n_samples) for any worker count. When
    every link has zero covariance the channel is deterministic and the
    exact value (the realization at the mean) is returned with zero
    standard error.
    """
    n_samples, seed, workers = check_run(n_samples, seed, workers)
    if _deterministic(scenario):
        means = [[link.mean for link in row] for row in scenario.links]
        value = wsr_realization(scenario, precoders, means)
        return MonteCarloEstimate(value, 0.0, n_samples, seed)
    return user_term_estimates(scenario, precoders, n_samples, seed, workers)[0]


def user_term_estimates(
    scenario: IbcScenario,
    precoders: PrecoderSet,
    n_samples: int,
    seed: int,
    workers: int = 1,
):
    """Per-user Monte-Carlo means of both rate terms, for Jensen checks.

    Returns (wsr_estimate, signal_terms, interference_terms) where the
    term lists hold one MonteCarloEstimate per user, all evaluated on
    the same channel draws as ewsr_monte_carlo with the same seed.
    """
    specs = [stream_spec(scenario, precoders, k) for k in range(scenario.n_users)]
    weights = [u.rate_weight for u in scenario.users]
    K = len(specs)
    mean, se, _ = vector_stats(
        n_samples, seed, _term_evaluator(specs, weights), workers=workers
    )

    def estimate(i):
        return MonteCarloEstimate(float(mean[i]), float(se[i]), n_samples, seed)

    return (
        estimate(0),
        [estimate(1 + k) for k in range(K)],
        [estimate(1 + K + k) for k in range(K)],
    )


def esei_terms(scenario: IbcScenario, precoders: PrecoderSet):
    """Per-user (signal, interference) terms with expectations inside.

    ln|I + E F F^H| for the signal and the interference spec of each
    user, E F F^H being the mean part plus tr(cov) I.
    """
    return [
        tuple(_esei_term(s, 1.0) for s in specs)
        for specs in _term_specs(scenario, precoders)
    ]


def esei_wsr(scenario: IbcScenario, precoders: PrecoderSet) -> float:
    """Surrogate weighted sum rate with expectations moved inside the logs."""
    total = 0.0
    for u, (sig, intf) in zip(scenario.users, esei_terms(scenario, precoders)):
        total += u.rate_weight * (sig - intf)
    return total


def _closed_form_limit(eff: GapSpec, n_samples, seed, workers) -> float:
    """Exact zero-mean limit: i.i.d. MIMO on the nonzero subspace when its
    eigenvalues are equal and at least N, else correlated MISO."""
    if not eff.is_zero_mean():
        raise UnsupportedCase("closed-form gap limits need a zero-mean spec")
    lam, N = eff.nonzero_eigenvalues, eff.n_rx
    if lam.max() / lam.min() - 1.0 <= 1e-9:
        if lam.size >= N:
            return gamma_inf_mimo_iid(lam.size, N)
    elif N == 1:
        try:
            return gamma_inf_miso_corr(EigenSpectrum(lam))
        except DegenerateSpectrum as exc:
            raise UnsupportedCase(f"no closed-form gap limit: {exc}") from exc
    raise UnsupportedCase("no closed-form gap limit for this spectrum/antenna combination")


def _taylor_limit(eff: GapSpec, n_samples, seed, workers) -> float:
    if not eff.is_zero_mean():
        raise UnsupportedCase("the second-order limit is only derived for zero mean")
    return taylor_gamma2_inf_zero_mean(eff.cov, eff.n_rx)


def _high_snr_limit(eff: GapSpec, n_samples, seed, workers) -> float:
    est = gamma_rho(eff, RHO_HIGH_SNR, n_samples, seed, workers=workers)
    return max(est.value, 0.0)


_LIMITS = dict(zip(GAP_METHODS, (_closed_form_limit, _taylor_limit, _high_snr_limit)))


def _gamma_limit(eff: GapSpec, method: str, n_samples: int, seed: int, workers: int):
    """One gap limit for a signal or interference spec, by the requested method.

    Returns (value, tag). "auto" returns the first method of GAP_METHODS
    that does not raise UnsupportedCase; an explicit method raises it.
    A spec without covariance has the exact limit 0 under every method.
    """
    if method != "auto" and method not in GAP_METHODS:
        raise DomainError(f"gamma_method must be one of auto, {', '.join(GAP_METHODS)}")
    trc = float(np.trace(eff.cov).real)
    scale = max(1.0, float(np.max(np.abs(eff.mean)) ** 2)) if eff.mean.size else 1.0
    if trc <= 1e-14 * scale:
        return 0.0, GAP_METHODS[0]
    tried = GAP_METHODS if method == "auto" else (method,)
    for name in tried:
        try:
            return _LIMITS[name](eff, n_samples, seed, workers), name
        except UnsupportedCase:
            if name == tried[-1]:
                raise


def sandwich_bounds(
    scenario: IbcScenario,
    precoders: PrecoderSet,
    gamma_method: str = "auto",
    *,
    n_samples: int = 100_000,
    seed: int = 0,
    workers: int = 1,
) -> SandwichBound:
    """Lower/upper bounds on the expected weighted sum rate.

    surrogate - sum_k u_k gamma_k <= EWSR <= surrogate + sum_k u_k
    gamma_kbar, with per-user gap limits computed on the stream specs of
    the signal and the interference terms, the same specs the ESEI uses.
    n_samples/seed/workers only matter when a Monte-Carlo gap limit is
    needed (nonzero-mean specs in auto mode, or when requested).
    """
    esei = esei_wsr(scenario, precoders)
    gammas_k, gammas_kbar, methods = [], [], []
    for k, (sig, intf) in enumerate(_term_specs(scenario, precoders)):
        g_sig, tag_sig = _gamma_limit(sig, gamma_method, n_samples, seed + 2 * k, workers)
        g_int, tag_int = _gamma_limit(
            intf, gamma_method, n_samples, seed + 2 * k + 1, workers
        )
        gammas_k.append(g_sig)
        gammas_kbar.append(g_int)
        methods.append(max(tag_sig, tag_int, key=GAP_METHODS.index))
    weights = np.array([u.rate_weight for u in scenario.users])
    gk = np.asarray(gammas_k)
    gkbar = np.asarray(gammas_kbar)
    return SandwichBound(
        lower=esei - float(weights @ gk),
        upper=esei + float(weights @ gkbar),
        esei_value=esei,
        per_user_gamma_k=gk,
        per_user_gamma_kbar=gkbar,
        method_per_user=methods,
    )
