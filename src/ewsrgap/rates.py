"""Weighted sum-rate objectives and the sandwich bound between them.

Two quantities compete: the expected weighted sum rate (expectation
outside the log-det) and its large-array surrogate (expectation moved
inside). Their per-user difference is a Gamma gap from `gap`, bounded
by its infinite-SNR limit, which yields computable lower/upper bounds
on the true expected rate from the surrogate alone.

The Monte-Carlo EWSR shares its sampler and its kernels with the gap
estimator: each user's precoded channels are drawn with
GapSpec.draw, in the eigenbasis of the stream covariance and only on
its support (plus the mean's fixed columns outside it), mapped back to
the user's own streams by GapSpec.basis in one product over the whole
chunk, their Grams formed by linalg.gram and their log-dets taken by
linalg.gram_log_rates, the kernel that also takes the ESEI's log-dets
of the expected Grams. Both are whole-chunk vector operations: for two
receive antennas, Grams by column sums up to linalg.GRAM_COLUMNS_MAX
columns and by row dot products beyond (the measured crossover is
tabulated in linalg); for every N, log-dets by one LDL^H recursion,
whose pivots t give log1p(rho t) at a finite rho and ln t at rho = +inf.
The "monte-carlo-high-snr" gap limit is Gamma(inf)
plus Z_HIGH_SNR standard errors, its E ln|H H^H| taken at rho = +inf
from the Grams of the EWSR's own draws: one Monte-Carlo pass serves both.
An interference spec whose law those draws miss (GapSpec._draws_law_of)
is drawn on its own in the same pass, after every user's draws.

What is zero is the spec's to say (see GapSpec): an empty support
makes the gap limit 0, and the zero-mean limits apply only to an
exactly zero mean. A user whose stream spec has an empty support
draws nothing in the pass: its rate terms are its exact ESEI terms.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from . import linalg
from .channel import IbcScenario, PrecoderSet, _stream_specs
from .errors import DimensionMismatch, DomainError, UnsupportedCase
from .gap import (
    GapSpec,
    _esei_term,
    e_log_quadform,
    gamma_inf_mimo_iid,
    taylor_gamma2_inf_zero_mean,
)
from .mc import MonteCarloEstimate, check_run, vector_stats

# z of the statistical bound Gamma(inf) + z se that the sampled limit returns.
Z_HIGH_SNR = 3.0

# The explicit gap-limit methods, from most to least exact.
GAP_METHODS = ("closed-form", "taylor", "monte-carlo-high-snr")

# Per-user tags from most to least exact; "unbounded" is an exact +inf.
_TAG_ORDER = ("closed-form", "unbounded", "taylor", "monte-carlo-high-snr")


@dataclass
class SandwichBound:
    """Bounds tying the expected rate to its surrogate.

    lower = esei_value - sum_k u_k gamma_k and
    upper = esei_value + sum_k u_k gamma_kbar, where gamma_k bounds the
    signal-term gap and gamma_kbar the interference-term gap of user k.
    method_per_user records how each user's gamma limits were obtained
    (the least exact method used for that user, in _TAG_ORDER). ewsr is
    the call's Monte-Carlo EWSR, whose draws give the sampled limits;
    signal_terms and interference_terms are that pass's user_term_estimates.
    """

    lower: float
    upper: float
    esei_value: float
    per_user_gamma_k: np.ndarray
    per_user_gamma_kbar: np.ndarray
    method_per_user: list
    ewsr: MonteCarloEstimate
    signal_terms: list
    interference_terms: list

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


def _rate_terms(X: np.ndarray, own_basis: np.ndarray | None, rhos):
    """Signal and interference terms of one user for a batch of draws.

    X (n, N, r + q) holds draws of the precoded channels
    F = [H_kj G_j]_j from their stream spec (GapSpec.draw), and
    own_basis = basis[:, own] maps them to the user's own columns:
    X basis has the law of F. The signal Gram is X X^H, with the law of
    F F^H; the interference Gram drops the own streams, X X^H -
    F_own F_own^H with F_own = X basis[:, own]. A user whose own streams
    are all the columns has own_basis None and an interference Gram of
    exactly zero. Returns ln|I + rho .| of both, (n, len(rhos)) each.

    F_own is one (n N) x (r + q) by (r + q) x s product of the batch's
    rows stacked, not n small ones, inside linalg.serial_blas as the
    package's other width-sized products.
    """
    S = linalg.gram(X)
    if own_basis is None:
        intf = np.zeros_like(S)
    else:
        n, N, D = X.shape
        with linalg.serial_blas():
            own = (X.reshape(n * N, D) @ own_basis).reshape(n, N, -1)
        intf = S - linalg.gram(own)
    return tuple(linalg.gram_log_rates(G, rhos) for G in (S, intf))


def _split(spec: GapSpec, own: slice):
    """A user's signal spec and its interference spec, which drops the
    own columns; a user alone in the only serving cell keeps none."""
    keep = np.r_[0 : own.start, own.stop : spec.mean.shape[1]]
    return spec, GapSpec(spec.mean[:, keep], spec.cov[np.ix_(keep, keep)])


def _term_specs(scenario, precoders):
    """Per user, the (signal, interference) specs of the ESEI and the sandwich."""
    return [_split(*pair) for pair in _stream_specs(scenario, precoders, range(scenario.n_users))]


def wsr_realization(scenario: IbcScenario, precoders: PrecoderSet, channels) -> float:
    """Weighted sum rate for one set of per-link channels.

    channels[k][j] is the channel from cell j to user k (rx_antennas_k
    x M_j). The rate is the surrogate of the scenario whose links are
    these channels with zero covariance, where E F F^H = F F^H. Always
    nonnegative for nonnegative weights, since each user's bracket is a
    valid rate.
    """
    links = []
    for k, u in enumerate(scenario.users):
        links.append([])
        for j, M in enumerate(scenario.bs_antennas):
            H = np.asarray(channels[k][j], dtype=complex)
            if H.shape != (u.rx_antennas, M):
                raise DimensionMismatch(
                    f"channel ({k},{j}) has shape {H.shape}, expected {(u.rx_antennas, M)}"
                )
            links[k].append(GapSpec(H, np.zeros((M, M))))
    return esei_wsr(replace(scenario, links=links), precoders)


def _monte_carlo_pass(scenario, specs, n_samples, seed, workers, sampled=()):
    """One vector_stats pass over the users' stream specs, a
    MonteCarloEstimate per column of its per-sample statistic matrix.

    Column 0 is the weighted sum rate; columns 1..K are the signal
    terms, columns K+1..2K the interference terms. Then comes one column
    per (user, side, apart) triple of ``sampled``, in its order: ln det
    of the user's signal (side 0) or interference (side 1) Gram, its
    rate at rho = +inf, taken from the user's draws, or, where ``apart``
    is a spec, from draws of that spec made after every user's. Each
    user draws its precoded channels from its stream spec with
    GapSpec.draw, users in order, so any consumer of the same seed sees
    the same channels, whatever it samples. A user whose stream spec has
    ``support_rank`` 0 draws nothing: its terms are its ESEI terms with
    se 0, added to column 0 after the reduction; if no user draws, no
    pass runs. The run arguments come checked.
    """
    K = len(specs)
    weights = [u.rate_weight for u in scenario.users]
    drawn = [
        (k, spec, None if own == slice(0, spec.mean.shape[1]) else spec.basis[:, own])
        for k, (spec, own) in enumerate(specs)
        if spec.support_rank
    ]
    high = {(k, side): 1 + 2 * K + i for i, (k, side, apart) in enumerate(sampled) if not apart}
    alone = [(1 + 2 * K + i, apart) for i, (_, _, apart) in enumerate(sampled) if apart]
    rhos = [[1.0, np.inf] if (k, 0) in high or (k, 1) in high else [1.0] for k in range(K)]

    def evaluate(rng, count):
        # column-major, so that each user's columns are written and summed
        # in place: mc._column_sums copies a C-ordered chunk
        out = np.zeros((count, 1 + 2 * K + len(sampled)), order="F")
        with np.errstate(over="ignore", invalid="ignore"):  # raised after the sums
            for k, spec, own_basis in drawn:
                sides = _rate_terms(spec.draw(rng, count), own_basis, rhos[k])
                for side, rates in enumerate(sides):
                    if (k, side) in high:
                        out[:, high[k, side]] = rates[:, 1]
                sig, intf = (rates[:, 0] for rates in sides)
                out[:, 1 + k] = sig
                out[:, 1 + K + k] = intf
                out[:, 0] += weights[k] * (sig - intf)
            for col, spec in alone:
                G = linalg.gram(spec.draw(rng, count))
                out[:, col] = linalg.gram_log_rates(G, [np.inf])[:, 0]
        return out

    mean = se = np.zeros(1 + 2 * K + len(sampled))
    if drawn:
        mean, se, _ = vector_stats(n_samples, seed, evaluate, workers=workers)
    ests = [MonteCarloEstimate(float(m), float(e), n_samples, seed) for m, e in zip(mean, se)]
    for k, pair in enumerate(specs):
        if not pair[0].support_rank:
            sig, intf = _esei_of([_split(*pair)])[0]
            ests[1 + k] = MonteCarloEstimate(sig, 0.0, n_samples, seed)
            ests[1 + K + k] = MonteCarloEstimate(intf, 0.0, n_samples, seed)
            ests[0].value += weights[k] * (sig - intf)
    return ests


def ewsr_monte_carlo(
    scenario: IbcScenario,
    precoders: PrecoderSet,
    n_samples: int,
    seed: int,
    workers: int = 1,
) -> MonteCarloEstimate:
    """Monte-Carlo estimate of the expected weighted sum rate.

    Deterministic given (seed, n_samples) for any worker count: it is
    user_term_estimates(...)[0], so esei_wsr, with zero standard error,
    when no user's precoded streams are random.
    """
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
    the same channel draws. A user whose stream spec has an empty
    support gets its esei_terms, with zero standard error.
    """
    n_samples, seed, workers = check_run(n_samples, seed, workers)
    streams = _stream_specs(scenario, precoders, range(scenario.n_users))
    wsr, *terms = _monte_carlo_pass(scenario, streams, n_samples, seed, workers)
    return wsr, terms[: len(streams)], terms[len(streams) :]


def _esei_of(term_specs):
    """ln|I + E F F^H| of each (signal, interference) spec pair."""
    return [tuple(float(_esei_term(s, [1.0])[0]) for s in pair) for pair in term_specs]


def _weighted_sum(scenario: IbcScenario, terms) -> float:
    """sum_k u_k (signal_k - interference_k), in user order."""
    total = 0.0
    for u, (sig, intf) in zip(scenario.users, terms):
        total += u.rate_weight * (sig - intf)
    return total


def esei_terms(scenario: IbcScenario, precoders: PrecoderSet):
    """Per-user (signal, interference) terms with expectations inside.

    ln|I + E F F^H| for the signal and the interference spec of each
    user, E F F^H being the mean part plus tr(cov) I.
    """
    return _esei_of(_term_specs(scenario, precoders))


def esei_wsr(scenario: IbcScenario, precoders: PrecoderSet) -> float:
    """Surrogate weighted sum rate with expectations moved inside the logs."""
    return _weighted_sum(scenario, esei_terms(scenario, precoders))


def _closed_form_limit(eff: GapSpec) -> float:
    """Exact limit: i.i.d. MIMO for a zero-mean spec (GapSpec.is_zero_mean,
    exactly zero; the form is derived for no other mean) with at least N
    equal nonzero eigenvalues, else for N = 1 ln E x - E ln x of x = ||h||^2."""
    lam, N = eff.nonzero_eigenvalues, eff.n_rx
    if eff.is_zero_mean() and lam.max() / lam.min() - 1.0 <= 1e-9 and lam.size >= N:
        return gamma_inf_mimo_iid(lam.size, N)
    if N == 1:
        lam = np.clip(eff.spectrum.eigenvalues, 0.0, None)
        mu2 = np.abs(eff.rotated_mean)[0] ** 2
        return float(np.log(lam.sum() + mu2.sum())) - e_log_quadform(lam, mu2, np.inf)
    raise UnsupportedCase("no closed-form gap limit for this spec")


def _gamma_limit(eff: GapSpec, method: str):
    """One gap limit for a signal or interference spec, by the requested method.

    Returns (value, tag). "auto" returns the closed form where it
    applies, else "monte-carlo-high-snr", never the Taylor limit, which
    is not a bound; an explicit method raises UnsupportedCase where it
    does not apply. A side left to "monte-carlo-high-snr" gets the value
    None: its limit is sampled in the Monte-Carlo pass of sandwich_bounds.
    Under every method a deterministic spec (empty support,
    GapSpec.support_rank 0) has the limit 0, and one whose H H^H is
    singular almost surely +inf, tagged "unbounded".
    """
    if method != "auto" and method not in GAP_METHODS:
        raise DomainError(f"gamma_method must be one of auto, {', '.join(GAP_METHODS)}")
    if eff.support_rank == 0:
        return 0.0, GAP_METHODS[0]
    if eff.gram_rank < eff.n_rx:
        return np.inf, "unbounded"
    if method == "taylor":
        if not eff.is_zero_mean():
            raise UnsupportedCase("the second-order limit is only derived for zero mean")
        return taylor_gamma2_inf_zero_mean(eff.cov, eff.n_rx), method
    if method in ("auto", "closed-form"):
        try:
            return _closed_form_limit(eff), "closed-form"
        except UnsupportedCase:
            if method == "closed-form":
                raise
    return None, "monte-carlo-high-snr"


def sandwich_bounds(
    scenario: IbcScenario, precoders: PrecoderSet, gamma_method: str = "auto", *,
    n_samples: int = 100_000, seed: int = 0, workers: int = 1,
) -> SandwichBound:
    """Lower/upper bounds on the expected weighted sum rate.

    surrogate - sum_k u_k gamma_k <= EWSR <= surrogate + sum_k u_k
    gamma_kbar, with per-user gap limits computed on the stream specs of
    the signal and the interference terms, the same specs the ESEI uses.
    One Monte-Carlo pass of n_samples draws at seed, on workers threads,
    gives the bound's ewsr and term estimates, bit for bit
    user_term_estimates', and every sampled limit, Gamma(inf) +
    Z_HIGH_SNR se with E ln|H H^H| taken from the Grams of the same
    draws, or, for an interference spec whose law the user's draws miss
    (GapSpec._draws_law_of), from its own draws in the same pass. The
    pass runs even when every limit is closed-form, so its cost is that
    of ewsr_monte_carlo at the same n_samples; a user whose stream spec
    is deterministic draws nothing in it (see _monte_carlo_pass).
    """
    n_samples, seed, workers = check_run(n_samples, seed, workers)
    streams = _stream_specs(scenario, precoders, range(scenario.n_users))
    term_specs = [_split(*pair) for pair in streams]
    esei = _weighted_sum(scenario, _esei_of(term_specs))
    limits = [[_gamma_limit(spec, gamma_method) for spec in pair] for pair in term_specs]
    sampled = [
        (k, side, None if streams[k][0]._draws_law_of(spec) else spec)
        for k, pair in enumerate(term_specs)
        for side, spec in enumerate(pair)
        if limits[k][side][0] is None
    ]
    K = len(streams)
    ewsr, *terms = _monte_carlo_pass(scenario, streams, n_samples, seed, workers, sampled)
    for (k, side, _), est in zip(sampled, terms[2 * K :]):
        gamma = float(_esei_term(term_specs[k][side], [np.inf])[0]) - est.value
        limits[k][side] = (max(gamma + Z_HIGH_SNR * est.std_error, 0.0), limits[k][side][1])
    gk, gkbar = (np.array([pair[side][0] for pair in limits]) for side in (0, 1))
    weights = np.array([u.rate_weight for u in scenario.users])
    used = weights != 0.0  # so that 0 * inf adds nothing instead of NaN
    return SandwichBound(
        lower=esei - float(weights[used] @ gk[used]),
        upper=esei + float(weights[used] @ gkbar[used]),
        esei_value=esei,
        per_user_gamma_k=gk,
        per_user_gamma_kbar=gkbar,
        method_per_user=[max(a[1], b[1], key=_TAG_ORDER.index) for a, b in limits],
        ewsr=ewsr,
        signal_terms=terms[:K],
        interference_terms=terms[K : 2 * K],
    )
