"""Weighted sum-rate objectives and the sandwich bound between them.

Two quantities compete: the expected weighted sum rate (expectation
outside the log-det) and its large-array surrogate (expectation moved
inside). Their per-user difference is a Gamma gap from `gap`, bounded
by its infinite-SNR limit, which yields computable lower/upper bounds
on the true expected rate from the surrogate alone.
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
from .errors import DimensionMismatch, DomainError, UnsupportedCase
from .gap import (
    EigenSpectrum,
    GapSpec,
    gamma_inf_mimo_iid,
    gamma_inf_miso_corr,
    gamma_rho,
    min_relative_gap,
    taylor_gamma2_inf_zero_mean,
)
from .mc import MonteCarloEstimate, complex_normal, vector_stats

# Numerical stand-in for infinite SNR in Monte-Carlo gap estimation;
# the remaining O(1/rho) bias sits far below statistical error.
RHO_HIGH_SNR = 1.0e6

_METHOD_RANK = {"closed-form": 0, "taylor": 1, "monte-carlo-high-snr": 2}


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


def _rate_terms(F: np.ndarray, own: slice):
    """Signal and interference terms of one user for a batch of F.

    F (n, N, D) holds precoded channels [H_kj G_j]_j, own the user's
    own columns. The signal Gram is F F^H; the interference Gram drops
    the own streams, F F^H - F_own F_own^H. Returns ln|I + .| of both.
    """
    S = F @ np.conj(np.swapaxes(F, 1, 2))
    Fo = F[:, :, own]
    intf = S - Fo @ np.conj(np.swapaxes(Fo, 1, 2))
    return tuple(linalg.gram_log_rates(G, [1.0])[:, 0] for G in (S, intf))


def _split(spec: GapSpec, own: slice):
    """A user's signal spec and its interference spec, which drops the
    own columns; a user alone in the only serving cell keeps none."""
    keep = np.r_[0 : own.start, own.stop : spec.mean.shape[1]]
    return spec, GapSpec(spec.mean[:, keep], spec.cov[np.ix_(keep, keep)])


def _log_terms(specs):
    """ln|I + E F F^H| for each spec. With zero covariance, these are the
    rate terms of the realization F = mean, so a deterministic channel's
    rate equals its surrogate to the last bit."""
    return tuple(linalg.logdet_hpd(np.eye(s.n_rx) + s.expected_gram()) for s in specs)


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
        sig, intf = _log_terms(_split(GapSpec(F, np.zeros((F.shape[1],) * 2)), own[k]))
        total += u.rate_weight * (sig - intf)
    return total


def _term_evaluator(specs, weights):
    """Per-sample statistic matrix for all users' rate terms.

    Column 0 is the weighted sum rate; columns 1..K are the signal
    terms, columns K+1..2K the interference terms. Each user draws its
    precoded channels from its stream spec, users in order, so any
    consumer of the same seed sees the same channels.
    """
    K = len(specs)

    def evaluate(rng, count):
        out = np.zeros((count, 1 + 2 * K))
        for k, ((spec, own), weight) in enumerate(zip(specs, weights)):
            W = complex_normal(rng, (count,) + spec.mean.shape)
            with np.errstate(over="ignore", invalid="ignore"):  # raised after the sums
                sig, intf = _rate_terms(spec.mean + W @ spec.cov_sqrt, own)
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
    if n_samples < 2:
        raise DomainError(f"need at least 2 samples, got {n_samples}")
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
    return [_log_terms(specs) for specs in _term_specs(scenario, precoders)]


def esei_wsr(scenario: IbcScenario, precoders: PrecoderSet) -> float:
    """Surrogate weighted sum rate with expectations moved inside the logs."""
    total = 0.0
    for u, (sig, intf) in zip(scenario.users, esei_terms(scenario, precoders)):
        total += u.rate_weight * (sig - intf)
    return total


def _gamma_limit(eff: GapSpec, method: str, n_samples: int, seed: int, workers: int):
    """One gap limit for a signal or interference spec, by the requested method.

    Returns (value, tag). "auto" prefers exact closed forms, falls back
    to the second-order limit for zero-mean cases it cannot match, and
    to high-SNR Monte-Carlo only when the mean is nonzero.
    """
    if method not in _METHOD_RANK and method != "auto":
        raise DomainError(
            "gamma_method must be one of auto, closed-form, taylor, monte-carlo-high-snr"
        )
    trc = float(np.trace(eff.cov).real)
    scale = max(1.0, float(np.max(np.abs(eff.mean)) ** 2)) if eff.mean.size else 1.0
    if trc <= 1e-14 * scale:
        return 0.0, "closed-form"
    zero_mean = eff.is_zero_mean()
    N = eff.n_rx

    def closed_form():
        eig = eff.spectrum.eigenvalues
        lam = eig[eig > 1e-9 * float(eig.max(initial=0.0))]
        if lam.size == 0:
            return None
        if lam.max() / lam.min() - 1.0 <= 1e-9:
            # equal eigenvalues: i.i.d. on the nonzero subspace
            rank = int(lam.size)
            if rank >= N:
                return gamma_inf_mimo_iid(rank, N)
            return None
        if N == 1 and min_relative_gap(lam) > 1e-6:
            return gamma_inf_miso_corr(EigenSpectrum(lam))
        return None

    if method == "closed-form":
        if not zero_mean:
            raise UnsupportedCase("closed-form gap limits need a zero-mean spec")
        value = closed_form()
        if value is None:
            raise UnsupportedCase(
                "no closed-form gap limit for this spectrum/antenna combination"
            )
        return value, "closed-form"
    if method == "taylor":
        if not zero_mean:
            raise UnsupportedCase("the second-order limit is only derived for zero mean")
        return taylor_gamma2_inf_zero_mean(eff.cov, N), "taylor"
    if method == "monte-carlo-high-snr":
        est = gamma_rho(eff, RHO_HIGH_SNR, n_samples, seed, workers=workers)
        return max(est.value, 0.0), "monte-carlo-high-snr"
    if zero_mean:
        value = closed_form()
        if value is not None:
            return value, "closed-form"
        return taylor_gamma2_inf_zero_mean(eff.cov, N), "taylor"
    est = gamma_rho(eff, RHO_HIGH_SNR, n_samples, seed, workers=workers)
    return max(est.value, 0.0), "monte-carlo-high-snr"


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
        methods.append(
            tag_sig if _METHOD_RANK[tag_sig] >= _METHOD_RANK[tag_int] else tag_int
        )
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
