"""End-to-end acceptance checks, one test per criterion.

Each test prints (and records for the terminal summary) a single
pass/fail line with the measured quantities at the stated tolerance.
Sample counts follow the stated values; where a criterion states a
runtime budget the wall time is asserted too.
"""

import time

import numpy as np
import pytest

from ewsrgap.channel import exp_profile_cov
from ewsrgap.cli import main
from ewsrgap.gap import (
    GapSpec,
    e_log_quadform,
    gamma_inf_mimo_iid,
    gamma_inf_miso_iid,
    gamma_rho,
    monotonicity_sweep,
    taylor_gamma2,
)
from ewsrgap.oracle import (
    bartlett_sample,
    exact_e_log_miso_corr,
    exact_e_log_miso_iid,
)
from ewsrgap.rates import esei_terms, sandwich_bounds, user_term_estimates
from ewsrgap.special import euler_gamma, harmonic
from ewsrgap.verify import random_zero_mean_scenario

RESULTS = []


def record(num: int, passed: bool, detail: str) -> None:
    line = f"criterion {num:2d}: {'PASS' if passed else 'FAIL'} - {detail}"
    RESULTS.append(line)
    print(line)


def test_criterion_01_single_antenna_endpoint():
    t0 = time.perf_counter()
    spec = GapSpec(np.zeros((1, 1)), np.eye(1))
    est = gamma_rho(spec, 1e6, 1_000_000, 101)
    dt = time.perf_counter() - t0
    err = abs(est.value - 0.577216)
    ok = err <= 3 * est.std_error and est.std_error < 2e-3 and dt < 30.0
    record(
        1,
        ok,
        f"M=1 MC gap(1e6) = {est.value:.6f} +/- {est.std_error:.1e} vs 0.577216 "
        f"(|err| {err:.1e} <= 3se {3 * est.std_error:.1e}), {dt:.1f}s < 30s",
    )
    assert err <= 3 * est.std_error
    assert est.std_error < 2e-3
    assert dt < 30.0


def test_criterion_02_exact_infinite_snr_forms():
    t0 = time.perf_counter()
    rho = 1e8
    worst = 0.0
    for M in (1, 2, 4, 8, 16):
        gap = np.log1p(rho * M) - exact_e_log_miso_iid(M, rho)
        want = euler_gamma() + np.log(M) - (harmonic(M - 1) if M > 1 else 0.0)
        worst = max(worst, abs(gap - want))
    dt = time.perf_counter() - t0
    ok = worst <= 1e-4 and dt < 1.0
    record(
        2,
        ok,
        f"M in {{1,2,4,8,16}}: max |ln(1+rho M) - oracle - (gamma + ln M - H_(M-1))| "
        f"= {worst:.2e} <= 1e-4, {dt * 1e3:.0f}ms < 1s",
    )
    assert worst <= 1e-4
    assert dt < 1.0


def test_criterion_03_harmonic_expansion():
    worst_margin = np.inf
    ok = True
    for M in (10, 50, 100):
        dev = abs(gamma_inf_miso_iid(M) - (1.0 / (2 * M) + 1.0 / (12 * M * M)))
        bound = 1.0 / (60.0 * M**4) + 1e-12
        ok = ok and dev <= bound
        worst_margin = min(worst_margin, bound - dev)
    record(
        3,
        ok,
        f"M in {{10,50,100}}: |gap - (1/2M + 1/12M^2)| <= 1/(60M^4)+1e-12, "
        f"min margin {worst_margin:.2e}",
    )
    assert ok


def test_criterion_04_monotonicity_sweeps():
    t0 = time.perf_counter()
    rhos = 10.0 ** (np.linspace(-10.0, 60.0, 25) / 10.0)
    cases = [
        ("iid M=2", GapSpec(np.zeros((1, 2)), np.eye(2))),
        ("iid M=8", GapSpec(np.zeros((1, 8)), np.eye(8))),
        ("corr {2.0,1.2,0.4}", GapSpec(np.zeros((1, 3)), np.diag([2.0, 1.2, 0.4]))),
    ]
    worst = np.inf
    for _, spec in cases:
        sweep = monotonicity_sweep(spec, rhos, 200_000, 104)
        diffs = np.diff([e.value for e in sweep])
        margins = diffs + 3.0 * sweep.diff_std_errors
        worst = min(worst, float(margins.min()))
    dt = time.perf_counter() - t0
    ok = worst >= 0.0 and dt < 120.0
    record(
        4,
        ok,
        f"25-point CRN sweeps (M=2, M=8, correlated): all successive diffs >= "
        f"-3 diff_se (worst margin {worst:+.2e}), {dt:.1f}s < 2min",
    )
    assert worst >= 0.0
    assert dt < 120.0


def test_criterion_05_correlated_closed_form_vs_oracle():
    rho = 1e8
    rng = np.random.default_rng(105)
    while True:
        lam4 = np.sort(rng.uniform(0.3, 3.0, 4))[::-1]
        if np.min(-np.diff(lam4)) > 0.15:
            break
    worst = 0.0
    for lam in ([1.5, 0.5], lam4):
        lam = np.asarray(lam, dtype=float)
        gap = np.log1p(rho * lam.sum()) - exact_e_log_miso_corr(lam, rho)
        limit = np.log(lam.sum()) - e_log_quadform(lam, np.zeros_like(lam), np.inf)
        worst = max(worst, abs(gap - limit))
    ok = worst <= 1e-4
    record(
        5,
        ok,
        f"oracle gap at rho=1e8 vs quadrature limit, spectra {{1.5,0.5}} and random "
        f"4-point: max |diff| = {worst:.2e} <= 1e-4",
    )
    assert worst <= 1e-4


def test_criterion_06_mimo_closed_form():
    spec = GapSpec(np.zeros((2, 8)), np.eye(8))
    est = gamma_rho(spec, 1e6, 1_000_000, 106)
    want = gamma_inf_mimo_iid(8, 2)
    err = abs(est.value - want)
    big = gamma_inf_mimo_iid(400, 4)
    rel = abs(big - 0.02) / 0.02
    ok = err <= 3 * est.std_error and rel <= 0.05
    record(
        6,
        ok,
        f"(8,2): MC gap(1e6) = {est.value:.5f} vs {want:.5f} "
        f"(|err| {err:.1e} <= 3se {3 * est.std_error:.1e}); "
        f"(400,4): {big:.5f} within {rel * 100:.1f}% of 0.02 (<= 5%)",
    )
    assert err <= 3 * est.std_error
    assert rel <= 0.05


def test_criterion_07_taylor_accuracy_improves_with_antennas():
    t0 = time.perf_counter()
    rho, N = 1000.0, 4
    rels = []
    for M in (8, 16, 32, 64):
        spec = GapSpec(np.zeros((N, M)), exp_profile_cov(M))
        est = gamma_rho(spec, rho, 100_000, 107)
        rels.append(abs(taylor_gamma2(spec, rho) - est.value) / abs(est.value))
    dt = time.perf_counter() - t0
    decreasing = bool(np.all(np.diff(rels) < 0.0))
    ok = decreasing and dt < 300.0
    rel_text = ", ".join(f"{r:.3f}" for r in rels)
    record(
        7,
        ok,
        f"rel error of second-order limit vs MC at M=8,16,32,64: [{rel_text}] "
        f"strictly decreasing, {dt:.1f}s < 5min",
    )
    assert decreasing
    assert dt < 300.0


def test_criterion_08_bartlett_moments():
    M, N = 8, 4
    n_total, batch = 1_000_000, 100_000
    rng = np.random.default_rng(108)
    d_sum = np.zeros(N)
    d_sumsq = np.zeros(N)
    ln_sum = np.zeros(N)
    ln_sumsq = np.zeros(N)
    det_sum = 0.0
    det_sumsq = 0.0
    for _ in range(n_total // batch):
        D, _ = bartlett_sample(M, N, rng, size=batch)
        ln = np.log(D)
        d_sum += D.sum(axis=0)
        d_sumsq += (D**2).sum(axis=0)
        ln_sum += ln.sum(axis=0)
        ln_sumsq += (ln**2).sum(axis=0)
        ld = ln.sum(axis=1)
        det_sum += ld.sum()
        det_sumsq += (ld**2).sum()

    def mean_se(s, sq):
        m = s / n_total
        var = (sq - n_total * m**2) / (n_total - 1)
        return m, np.sqrt(var / n_total)

    ok = True
    worst_z = 0.0
    for i in range(N):  # 0-based position: D_i ~ Gamma(M - i, 1)
        m_d, se_d = mean_se(d_sum[i], d_sumsq[i])
        m_l, se_l = mean_se(ln_sum[i], ln_sumsq[i])
        shape = M - i
        want_l = -euler_gamma() + (harmonic(shape - 1) if shape > 1 else 0.0)
        z1 = abs(m_d - shape) / se_d
        z2 = abs(m_l - want_l) / se_l
        worst_z = max(worst_z, z1, z2)
        ok = ok and z1 <= 3.0 and z2 <= 3.0

    # direct Gram log-dets, same draw count, batched
    rng2 = np.random.default_rng(1080)
    dsum = 0.0
    dsumsq = 0.0
    for _ in range(n_total // batch):
        H = (
            rng2.standard_normal((batch, N, M))
            + 1j * rng2.standard_normal((batch, N, M))
        ) * np.sqrt(0.5)
        _, ld = np.linalg.slogdet(np.einsum("sij,skj->sik", H, H.conj()))
        dsum += ld.sum()
        dsumsq += (ld**2).sum()
    m_b, se_b = mean_se(det_sum, det_sumsq)
    m_g, se_g = mean_se(dsum, dsumsq)
    z_det = abs(m_b - m_g) / np.hypot(se_b, se_g)
    ok = ok and z_det <= 3.0
    record(
        8,
        ok,
        f"(8,4) x 1e6 draws: per-position E D_i, E ln D_i within 3 sigma "
        f"(worst z {worst_z:.2f}); sum ln D vs direct log-det z = {z_det:.2f} <= 3",
    )
    assert ok


def test_criterion_09_sandwich_containment():
    contained = 0
    jensen_ok = True
    for s in range(20):
        scenario, precoders = random_zero_mean_scenario(s)
        bound = sandwich_bounds(scenario, precoders, "auto", seed=900 + s)
        wsr, sig, intf = user_term_estimates(scenario, precoders, 100_000, 300 + s)
        if bound.contains(wsr.value):
            contained += 1
        inside = esei_terms(scenario, precoders)
        for k in range(scenario.n_users):
            jensen_ok = jensen_ok and inside[k][0] >= sig[k].value - 3 * sig[k].std_error
            jensen_ok = jensen_ok and inside[k][1] >= intf[k].value - 3 * intf[k].std_error
    ok = contained == 20 and jensen_ok
    record(
        9,
        ok,
        f"20 random zero-mean scenarios: EWSR (1e5 samples) inside sandwich "
        f"{contained}/20; Jensen per-term check {'passed' if jensen_ok else 'FAILED'} "
        f"for every user",
    )
    assert contained == 20
    assert jensen_ok


def test_criterion_10_cli_determinism(tmp_path):
    def run(args, name):
        out = tmp_path / name
        code = main(args + ["--out", str(out)])
        assert code == 0
        lines = out.read_text(encoding="utf-8").splitlines(keepends=True)
        return "".join(ln for ln in lines if not ln.startswith("#"))

    commands = {
        "fig1": ["fig1", "--samples", "3000", "--snr-db", "0:20:10",
                 "--tx-antennas", "1,2", "--seed", "5"],
        "fig2": ["fig2", "--samples", "3000", "--tx-antennas", "4",
                 "--rx-antennas", "2", "--seed", "5"],
        "sandwich": ["sandwich", "--samples", "3000", "--seed", "5"],
        "verify": ["verify", "theorems", "--scale", "0.02", "--seed", "5"],
    }
    ok = True
    for name, args in commands.items():
        base = run(args + ["--workers", "1"], f"{name}_a.csv")
        rerun = run(args + ["--workers", "1"], f"{name}_b.csv")
        multi = run(args + ["--workers", "3"], f"{name}_c.csv")
        same = base == rerun == multi
        ok = ok and same
    record(
        10,
        ok,
        "fig1/fig2/sandwich/verify: data rows byte-identical across reruns and "
        f"worker counts 1 vs 3: {'yes' if ok else 'NO'}",
    )
    assert ok
