"""Special functions and quadrature backing the closed-form gap limits.

Euler's constant, harmonic numbers, the exponential integrals E1 and
E_n (and their scaled forms), Gauss-Laguerre rules, and Gamma-variate
sampling. These are the only pieces of classical analysis the rest of
the package relies on, so they are kept together, built on numpy and
the standard library alone, and tested against independent identities.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, check_integer

# Machine epsilon for the series and Lentz iterations below.
_EPS = np.finfo(float).eps


def euler_gamma() -> float:
    """Euler-Mascheroni constant gamma = 0.57721566490153286...

    Returns
    -------
    float
        gamma to full double precision.
    """
    return float(np.euler_gamma)


def harmonic(M: int) -> float:
    """Harmonic number H_M = sum_{k=1}^{M} 1/k.

    Terms are accumulated smallest first (k = M down to 1), which keeps
    the rounding error of the running sum near one ulp of the result.
    Note that even so, ``harmonic(M) - harmonic(M-1)`` is generally not
    bitwise equal to ``1/M``: the difference of two correctly computed
    sums can deviate by up to about one ulp of H_M, which dwarfs the
    ulp of 1/M once M is large. Callers needing the exact increment
    should use 1/M directly.

    Parameters
    ----------
    M : int
        Number of terms, M >= 1.

    Returns
    -------
    float
        H_M.
    """
    total = 0.0
    for k in range(check_integer(M, "harmonic M"), 0, -1):
        total += 1.0 / k
    return total


def exp_integral_e1(x: float) -> float:
    """Exponential integral E1(x) = int_x^inf e^{-t}/t dt for x > 0.

    Power series for x <= 1, modified Lentz continued fraction for
    x > 1; relative accuracy is better than 1e-12 across the domain.

    Parameters
    ----------
    x : float
        Argument, strictly positive.

    Returns
    -------
    float
        E1(x).
    """
    x = float(x)
    if not x > 0.0:
        raise DomainError(f"exp_integral_e1 requires x > 0, got {x}")
    if x <= 1.0:
        return _en_series(1, x)
    return math.exp(-x) * _en_cf_scaled(1, x)


def _en_series(n: int, x: float) -> float:
    """E_n(x) for 0 < x <= 1 by its power series (A&S 5.1.12).

    E_n(x) = (-x)^{n-1}/(n-1)! (psi(n) - ln x)
             - sum_{k >= 0, k != n-1} (-x)^k / ((k - n + 1) k!),
    with psi(n) = -gamma + H_{n-1}. For n = 1 the k = 0 term is the
    -gamma - ln x the sum starts from.
    """
    m = n - 1
    total = 1.0 / m if m else -float(np.euler_gamma) - math.log(x)
    term = 1.0
    for k in range(1, 100):
        term *= -x / k
        if k == m:
            contrib = term * (harmonic(m) - float(np.euler_gamma) - math.log(x))
        else:
            contrib = -term / (k - m)
        total += contrib
        if abs(contrib) < _EPS * abs(total):
            break
    return total


def _en_cf_scaled(n: int, x: float) -> float:
    """e^x * E_n(x) for x > 1 via the even-contracted continued fraction."""
    # K = (x+n) - 1*n/((x+n+2) - 2(n+1)/((x+n+4) - ...)), E_n = e^{-x}/K.
    tiny = 1e-300
    b = x + n
    c = 1.0 / tiny
    d = 1.0 / b
    f = d
    for j in range(1, 300):
        a = -float(j * (n - 1 + j))
        b += 2.0
        d = b + a * d
        if abs(d) < tiny:
            d = tiny
        c = b + a / c
        if abs(c) < tiny:
            c = tiny
        d = 1.0 / d
        delta = c * d
        f *= delta
        if abs(delta - 1.0) < _EPS:
            return f
    raise DomainError(f"continued fraction for E_{n} failed to converge at x={x}")


def expn_scaled(n: int, x: float) -> float:
    """e^x * E_n(x) for x > 0, stable for arbitrarily large x.

    For x <= 1 the power series of E_n is scaled by e^x; above that the
    continued fraction yields the scaled product directly, so the
    result never over- or underflows even though e^x and E_n(x)
    individually would.

    Parameters
    ----------
    n : int
        Order, n >= 1.
    x : float
        Argument, strictly positive.

    Returns
    -------
    float
        e^x E_n(x).
    """
    n = check_integer(n, "expn_scaled order n")
    x = float(x)
    if not x > 0.0:
        raise DomainError(f"expn_scaled requires x > 0, got {x}")
    if x <= 1.0:
        return math.exp(x) * _en_series(n, x)
    return _en_cf_scaled(n, x)


@dataclass
class QuadratureRule:
    """Nodes and weights of a quadrature rule for weight e^{-x} on [0, inf).

    Invariants checked at construction: equal lengths, strictly
    positive weights, and total weight 1 within 1e-12 (the rule must
    integrate constants exactly).
    """

    nodes: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        self.nodes = np.asarray(self.nodes, dtype=float)
        self.weights = np.asarray(self.weights, dtype=float)
        if self.nodes.shape != self.weights.shape or self.nodes.ndim != 1:
            raise DomainError("nodes and weights must be 1-d arrays of equal length")
        if np.any(self.weights <= 0.0):
            raise DomainError("quadrature weights must be strictly positive")
        total = float(np.sum(self.weights))
        if abs(total - 1.0) > 1e-12:
            raise DomainError(f"weights sum to {total!r}, expected 1 within 1e-12")

    def integrate(self, f) -> float:
        """Approximate int_0^inf f(x) e^{-x} dx."""
        return float(np.sum(self.weights * f(self.nodes)))


def gauss_laguerre(n: int) -> QuadratureRule:
    """Gauss-Laguerre rule with n points for weight e^{-x} on [0, inf).

    Integrates polynomials of degree <= 2n-1 exactly. The nodes are the
    eigenvalues of the Jacobi matrix, polished by one Newton step; the
    weights 1 / (x_i L_n'(x_i)^2) are formed in log space. For n above
    roughly 200 the smallest weights underflow double precision to
    exact zero; those node/weight pairs are dropped (they cannot
    contribute to any double-precision quadrature sum), so the
    returned rule may hold slightly fewer than n points while keeping
    every weight strictly positive.

    Parameters
    ----------
    n : int
        Point count, 1 <= n <= 256.

    Returns
    -------
    QuadratureRule
    """
    n = check_integer(n, "gauss_laguerre point count")
    if n > 256:
        raise DomainError(f"gauss_laguerre supports 1 <= n <= 256, got {n}")
    k = np.arange(1.0, n)
    x = np.linalg.eigvalsh(np.diag(2.0 * np.arange(n) + 1.0) + np.diag(k, 1) + np.diag(k, -1))
    L_n, diff, _ = _laguerre(n, x)
    x -= x * L_n / (n * diff)  # Newton step, as x L_n' = n (L_n - L_{n-1})
    _, diff, log_scale = _laguerre(n, x)
    # at a root, 1 / (x L_n'^2) = x / (n (L_n - L_{n-1}))^2
    weights = np.exp(np.log(x) - 2.0 * (math.log(n) + np.log(np.abs(diff)) + log_scale))
    keep = weights > 0.0
    return QuadratureRule(nodes=x[keep], weights=weights[keep])


def _laguerre(n: int, x: np.ndarray):
    """(L_n(x), L_n(x) - L_{n-1}(x), s), both values divided by e^s.

    Runs the three-term recurrence in its difference form,
    (k+1)(L_{k+1} - L_k) = k (L_k - L_{k-1}) - x L_k, which loses less
    to cancellation at large x, and divides the pair by its larger
    magnitude at every step, accumulating the logs in s, so no order
    overflows at the largest nodes.
    """
    L, diff, log_scale = np.ones_like(x), np.zeros_like(x), np.zeros_like(x)
    for k in range(n):
        diff = (k * diff - x * L) / (k + 1)
        L = L + diff
        top = np.maximum(np.abs(L), np.abs(diff))
        L, diff, log_scale = L / top, diff / top, log_scale + np.log(top)
    return L, diff, log_scale


def sample_gamma(shape: float, rng: np.random.Generator) -> float:
    """One draw from Gamma(shape, scale=1).

    Parameters
    ----------
    shape : float
        Shape parameter, strictly positive. Gamma(m, 1) equals
        (1/2) chi^2 with 2m degrees of freedom.
    rng : numpy.random.Generator
        Caller-owned stream; this call advances it.

    Returns
    -------
    float
    """
    shape = float(shape)
    if not shape > 0.0:
        raise DomainError(f"sample_gamma requires shape > 0, got {shape}")
    return float(rng.standard_gamma(shape))
