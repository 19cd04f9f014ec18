"""Special functions behind the closed-form gap limits.

Euler's constant and harmonic numbers: the infinite-SNR i.i.d. gaps of
`gap` are built from them. The scaled exponential integral e^x E_n(x)
is kept for the closed forms of the zero-mean MIMO terms, whose entries
are E_n integrals. Every expectation the package needs in closed form
today, E ln(1 + rho x) for a single-antenna channel included, is taken
by the quadrature kernel `gap.e_log_quadform`.
"""

from __future__ import annotations

import math

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
