"""Expected weighted sum rate under partial CSIT and its surrogate gap.

The expected weighted sum rate (EWSR) of a multi-cell MIMO broadcast
channel averages log-determinant rate differences over the channel
distribution. Moving the expectation inside the log-determinants gives
a deterministic surrogate (ESEI-WSR) that is cheap to optimize; this
package computes both, bounds their gap by its monotone infinite-SNR
limit, and provides the closed forms, second-order approximation,
Monte-Carlo estimators, and exact oracles that quantify the gap.
"""

__version__ = "0.1.0"

from .channel import (
    IbcScenario,
    PrecoderSet,
    UserConfig,
    check_precoders,
    exp_profile_cov,
    load_bundle,
    load_demo_bundle,
    load_scenario,
    sample_channel,
    save_scenario,
    stream_spec,
    uniform_power_precoders,
)
from .errors import (
    DimensionMismatch,
    DomainError,
    EwsrgapError,
    IndefiniteMatrix,
    IndexOutOfRange,
    NoConvergence,
    NotHermitian,
    NotPositiveDefinite,
    ParseError,
    UnsupportedCase,
    ValidationError,
)
from .gap import (
    GapSpec,
    SweepResult,
    e_log_quadform,
    gamma_inf_mimo_iid,
    gamma_inf_miso_iid,
    gamma_rho,
    monotonicity_sweep,
    taylor_gamma2,
    taylor_gamma2_inf_zero_mean,
)
from .linalg import (
    HermitianSpectrum,
    hermitian_eig,
    hermitian_sqrt,
    logdet_hpd,
)
from .mc import MonteCarloEstimate, chunk_stream, complex_normal, vector_stats
from .oracle import (
    bartlett_sample,
    brute_force_gap,
    e_log_quadrature,
    exact_e_log_miso_corr,
    exact_e_log_miso_iid,
)
from .rates import (
    SandwichBound,
    esei_terms,
    esei_wsr,
    ewsr_monte_carlo,
    sandwich_bounds,
    user_term_estimates,
    wsr_realization,
)
from .special import (
    QuadratureRule,
    euler_gamma,
    exp_integral_e1,
    expn_scaled,
    gauss_laguerre,
    harmonic,
    sample_gamma,
)
from .verify import random_zero_mean_scenario, run_suite

__all__ = [
    "__version__",
    "IbcScenario",
    "PrecoderSet",
    "UserConfig",
    "check_precoders",
    "exp_profile_cov",
    "load_bundle",
    "load_demo_bundle",
    "load_scenario",
    "sample_channel",
    "save_scenario",
    "stream_spec",
    "uniform_power_precoders",
    "DimensionMismatch",
    "DomainError",
    "EwsrgapError",
    "IndefiniteMatrix",
    "IndexOutOfRange",
    "NoConvergence",
    "NotHermitian",
    "NotPositiveDefinite",
    "ParseError",
    "UnsupportedCase",
    "ValidationError",
    "GapSpec",
    "SweepResult",
    "e_log_quadform",
    "gamma_inf_mimo_iid",
    "gamma_inf_miso_iid",
    "gamma_rho",
    "monotonicity_sweep",
    "taylor_gamma2",
    "taylor_gamma2_inf_zero_mean",
    "HermitianSpectrum",
    "hermitian_eig",
    "hermitian_sqrt",
    "logdet_hpd",
    "MonteCarloEstimate",
    "chunk_stream",
    "complex_normal",
    "vector_stats",
    "bartlett_sample",
    "brute_force_gap",
    "e_log_quadrature",
    "exact_e_log_miso_corr",
    "exact_e_log_miso_iid",
    "SandwichBound",
    "esei_terms",
    "esei_wsr",
    "ewsr_monte_carlo",
    "sandwich_bounds",
    "user_term_estimates",
    "wsr_realization",
    "QuadratureRule",
    "euler_gamma",
    "exp_integral_e1",
    "expn_scaled",
    "gauss_laguerre",
    "harmonic",
    "sample_gamma",
    "random_zero_mean_scenario",
    "run_suite",
]
