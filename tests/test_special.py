import math
import subprocess
import sys
from pathlib import Path

import mpmath as mp
import numpy as np
import pytest
import scipy.special

import ewsrgap
from ewsrgap.errors import DomainError
from ewsrgap.gap import e_log_quadform
from ewsrgap.mc import chunk_stream
from ewsrgap.special import _en_cf_scaled, euler_gamma, expn_scaled, harmonic


def test_euler_gamma_value():
    assert euler_gamma() == pytest.approx(0.57721566490153286, abs=1e-16)


def test_euler_gamma_from_log_integral():
    # gamma = -int_0^inf e^{-x} ln x dx, by mpmath quadrature at 50 digits
    with mp.workdps(50):
        want = -mp.quad(lambda x: mp.exp(-x) * mp.log(x), [0, 1, mp.inf])
        assert abs(want - mp.euler) < mp.mpf(10) ** -45
    assert euler_gamma() == pytest.approx(float(want), rel=2e-16)


class TestHarmonic:
    def test_small_values(self):
        assert harmonic(1) == 1.0
        assert harmonic(4) == pytest.approx(25.0 / 12.0, rel=1e-15)

    def test_rejects_nonpositive_and_nonint(self):
        for bad in (0, -3, 2.5, True):
            with pytest.raises(DomainError):
                harmonic(bad)

    def test_asymptotic_series_at_1000(self):
        expected = math.log(1000.0) + euler_gamma() + 1.0 / 2000.0 - 1.0 / 12e6
        assert harmonic(1000) == pytest.approx(expected, abs=1e-12)

    def test_limit_definition_of_gamma(self):
        assert abs(harmonic(10**6) - math.log(10**6) - euler_gamma()) < 1e-6

    @pytest.mark.parametrize("M", [2, 7, 100, 1234, 9999])
    def test_increment_within_ulps(self, M):
        # Smallest-first summation keeps each partial sum accurate to
        # ~1 ulp, but H_M - H_{M-1} still differs from 1/M by up to a
        # few ulps of H_M (bitwise equality is not reachable in doubles).
        dev = abs(harmonic(M) - harmonic(M - 1) - 1.0 / M)
        assert dev <= 4.0 * np.spacing(harmonic(M))


class TestExpnScaled:
    @pytest.mark.parametrize("n", [1, 2, 5, 16])
    @pytest.mark.parametrize("x", [0.5, 3.0, 100.0, 599.0])
    def test_matches_direct_product(self, n, x):
        direct = math.exp(x) * float(scipy.special.expn(n, x))
        assert expn_scaled(n, x) == pytest.approx(direct, rel=1e-11)

    @pytest.mark.parametrize("n", [1, 3, 9])
    def test_cf_branch_matches_direct_inside_split(self, n):
        # the continued fraction against the direct product where scipy's
        # E_n stays normal
        for x in (50.0, 300.0, 599.0):
            cf = _en_cf_scaled(n, x)
            direct = math.exp(x) * float(scipy.special.expn(n, x))
            assert cf == pytest.approx(direct, rel=1e-11)

    @pytest.mark.parametrize("n", range(1, 65))
    def test_matches_scipy_on_both_sides_of_one(self, n):
        # the power series serves x <= 1, the continued fraction x > 1
        xs = np.concatenate([np.geomspace(1e-8, 1.0, 25), [1.0 + 1e-12],
                             np.geomspace(1.0 + 1e-9, 600.0, 25)])
        got = [expn_scaled(n, x) for x in xs]
        want = np.exp(xs) * scipy.special.expn(n, xs)
        assert got == pytest.approx(want, rel=1e-11)

    def test_huge_argument_asymptote(self):
        # e^x E_n(x) ~ 1/(x+n); no overflow anywhere near x=1e8
        for n in (1, 4):
            assert expn_scaled(n, 1e8) == pytest.approx(1.0 / (1e8 + n), rel=1e-6)

    def test_domain(self):
        with pytest.raises(DomainError):
            expn_scaled(0, 1.0)
        with pytest.raises(DomainError):
            expn_scaled(1, 0.0)


class TestSampleGamma:
    def test_log_moment_shape_4(self):
        # E ln X = digamma(4) = -gamma + H_3
        rng = chunk_stream(12, 0)
        logs = np.log(rng.standard_gamma(4.0, size=200_000))
        target = -euler_gamma() + harmonic(3)
        assert abs(logs.mean() - target) <= 3.0 * logs.std(ddof=1) / math.sqrt(logs.size)


def test_e1_exponential_expectation_identity():
    # e^{1/rho} E1(1/rho) = E ln(1 + rho X) for X ~ Exp(1): the kernel's
    # one-eigenvalue value against the identity in mpmath and against draws
    for i, rho in enumerate((0.5, 1.0, 10.0)):
        exact = e_log_quadform([1.0], [0.0], rho)
        with mp.workdps(50):
            assert exact == pytest.approx(float(mp.exp(1 / mp.mpf(rho)) * mp.e1(1 / mp.mpf(rho))),
                                          rel=5.7e-14)
        rng = chunk_stream(50 + i, 0)
        vals = np.log1p(rho * rng.exponential(size=200_000))
        assert abs(vals.mean() - exact) <= 3.0 * vals.std(ddof=1) / math.sqrt(vals.size)


def test_import_leaves_scipy_out():
    # the package needs numpy alone
    code = "import sys, ewsrgap; print('scipy' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          cwd=Path(ewsrgap.__file__).parents[1])
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"
