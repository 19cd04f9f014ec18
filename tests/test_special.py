import math
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.special
from hypothesis import given, settings
from hypothesis import strategies as st

import ewsrgap
from ewsrgap.errors import DomainError
from ewsrgap.mc import chunk_stream
from ewsrgap.special import (
    QuadratureRule,
    _en_cf_scaled,
    euler_gamma,
    exp_integral_e1,
    expn_scaled,
    gauss_laguerre,
    harmonic,
)


def test_euler_gamma_value():
    assert euler_gamma() == pytest.approx(0.57721566490153286, abs=1e-16)


def test_euler_gamma_from_log_integral():
    # gamma = -int_0^inf e^{-x} ln x dx. The integrand's log singularity
    # at 0 limits Gauss-Laguerre to ~1e-2 (64 nodes) / ~5e-3 (128),
    # halving per node doubling; these are the measured attainable bands.
    assert -gauss_laguerre(64).integrate(np.log) == pytest.approx(euler_gamma(), abs=1e-2)
    assert -gauss_laguerre(128).integrate(np.log) == pytest.approx(euler_gamma(), abs=5e-3)


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


class TestExpIntegral:
    def test_reference_value(self):
        assert exp_integral_e1(1.0) == pytest.approx(0.21938393439552026, abs=5e-16)

    def test_against_quadrature(self):
        # int_1^inf e^{-t}/t dt = e^{-1} int_0^inf e^{-u}/(1+u) du
        rule = gauss_laguerre(256)
        ref = math.exp(-1.0) * rule.integrate(lambda u: 1.0 / (1.0 + u))
        assert exp_integral_e1(1.0) == pytest.approx(ref, abs=1e-12)

    def test_asymptotic_tail(self):
        x = 50.0
        assert x * math.exp(x) * exp_integral_e1(x) == pytest.approx(1.0, rel=0.02)

    def test_log_singularity_at_zero(self):
        x = 1e-8
        assert abs(exp_integral_e1(x) + math.log(x) + euler_gamma()) < 1e-7

    def test_domain(self):
        for bad in (0.0, -1.0):
            with pytest.raises(DomainError):
                exp_integral_e1(bad)

    def test_series_cf_agree_at_split(self):
        assert exp_integral_e1(1.0 - 1e-12) == pytest.approx(
            exp_integral_e1(1.0 + 1e-12), rel=1e-10
        )

    @given(st.floats(min_value=1e-6, max_value=500.0))
    @settings(max_examples=60, deadline=None)
    def test_matches_scipy(self, x):
        assert exp_integral_e1(x) == pytest.approx(
            float(scipy.special.exp1(x)), rel=1e-12, abs=1e-300
        )


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


class TestGaussLaguerre:
    def test_single_point_rule(self):
        rule = gauss_laguerre(1)
        assert rule.nodes == pytest.approx([1.0])
        assert rule.weights == pytest.approx([1.0])

    def test_cubic_moment_exact(self):
        assert gauss_laguerre(16).integrate(lambda x: x**3) == pytest.approx(
            6.0, abs=1e-12
        )

    @pytest.mark.parametrize("n", [4, 16, 64, 128, 256])
    def test_factorial_moments(self, n):
        # int x^k e^{-x} dx = k! for k <= 2n-1; evaluated in log space so
        # the largest orders stay in range. Agreement of the log-moment to
        # ~2e-13 corresponds to the same relative error of the moment.
        rule = gauss_laguerre(n)
        for k in {1, 2, 3, 7, n, 2 * n - 10, 2 * n - 1}:
            if not 1 <= k <= 2 * n - 1:
                continue
            logs = k * np.log(rule.nodes) + np.log(rule.weights)
            m = logs.max()
            log_moment = m + math.log(np.exp(logs - m).sum())
            assert log_moment == pytest.approx(
                float(scipy.special.gammaln(k + 1)), abs=1e-10
            )

    @pytest.mark.parametrize("n", [1, 2, 16, 64, 128, 199, 200, 256])
    def test_matches_scipy_roots_laguerre(self, n):
        # scipy drops no point; its weights that underflow to zero are
        # the ones this rule leaves out
        nodes, weights = scipy.special.roots_laguerre(n)
        keep = weights > 0.0
        rule = gauss_laguerre(n)
        assert rule.nodes == pytest.approx(nodes[keep], rel=1e-10)
        assert rule.weights == pytest.approx(weights[keep], rel=1e-10)

    def test_weights_positive_and_normalized(self):
        for n in (2, 100, 256):
            rule = gauss_laguerre(n)
            assert np.all(rule.weights > 0.0)
            assert rule.weights.sum() == pytest.approx(1.0, abs=1e-12)

    def test_range_validation(self):
        for bad in (0, 257, -1, 2.5):
            with pytest.raises(DomainError):
                gauss_laguerre(bad)

    def test_rule_invariants_enforced(self):
        with pytest.raises(DomainError):
            QuadratureRule(nodes=[1.0, 2.0], weights=[0.5])
        with pytest.raises(DomainError):
            QuadratureRule(nodes=[1.0, 2.0], weights=[0.5, -0.5])
        with pytest.raises(DomainError):
            QuadratureRule(nodes=[1.0, 2.0], weights=[0.6, 0.6])


class TestSampleGamma:
    def test_log_moment_shape_4(self):
        # E ln X = digamma(4) = -gamma + H_3
        rng = chunk_stream(12, 0)
        logs = np.log(rng.standard_gamma(4.0, size=200_000))
        target = -euler_gamma() + harmonic(3)
        assert abs(logs.mean() - target) <= 3.0 * logs.std(ddof=1) / math.sqrt(logs.size)


def test_e1_exponential_expectation_identity():
    # e^{1/rho} E1(1/rho) = E ln(1 + rho X) for X ~ Exp(1)
    for i, rho in enumerate((0.5, 1.0, 10.0)):
        rng = chunk_stream(50 + i, 0)
        vals = np.log1p(rho * rng.exponential(size=200_000))
        exact = math.exp(1.0 / rho) * exp_integral_e1(1.0 / rho)
        assert abs(vals.mean() - exact) <= 3.0 * vals.std(ddof=1) / math.sqrt(vals.size)


def test_import_leaves_scipy_out():
    # scipy is a test-only reference; the package needs numpy alone
    code = "import sys, ewsrgap; print('scipy' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          cwd=Path(ewsrgap.__file__).parents[1])
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"
