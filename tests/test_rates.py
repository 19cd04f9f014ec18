import warnings

import numpy as np
import pytest

from ewsrgap import channel, gap, linalg, rates
from ewsrgap.channel import (
    IbcScenario,
    PrecoderSet,
    UserConfig,
    _stream_specs,
    exp_profile_cov,
    load_demo_bundle,
    stream_spec,
    uniform_power_precoders,
)
from ewsrgap.errors import DimensionMismatch, DomainError, UnsupportedCase
from ewsrgap.gap import GapSpec, gamma_rho
from ewsrgap.mc import MonteCarloEstimate, complex_normal, vector_stats
from ewsrgap.rates import (
    GAP_METHODS,
    Z_HIGH_SNR,
    SandwichBound,
    _rate_terms,
    _term_specs,
    esei_terms,
    esei_wsr,
    ewsr_monte_carlo,
    sandwich_bounds,
    user_term_estimates,
    wsr_realization,
)
from ewsrgap.special import euler_gamma
from test_channel import link_draws
from test_gap import _mp_miso_iid


def _single_user_mimo(rho=4.0, n=2, seed=0):
    """One cell, one user, N = M = n, deterministic identity-friendly."""
    rng = np.random.default_rng(seed)
    mean = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    sc = IbcScenario(
        bs_antennas=[n],
        users=[UserConfig(serving_bs=0, rx_antennas=n, streams=n, rate_weight=1.0)],
        power_budgets=[rho * n],
        links=[[GapSpec(mean=mean, cov=np.zeros((n, n)))]],
    )
    ps = PrecoderSet([np.sqrt(rho) * np.eye(n)])
    return sc, ps


def _orthogonal_two_user_miso():
    """Deterministic orthogonal channels with matched beamformers."""
    h = [np.array([[1.0, 0.0]]), np.array([[0.0, 1.0]])]
    users = [
        UserConfig(serving_bs=0, rx_antennas=1, streams=1, rate_weight=1.0),
        UserConfig(serving_bs=0, rx_antennas=1, streams=1, rate_weight=2.0),
    ]
    links = [[GapSpec(mean=hk, cov=np.zeros((2, 2)))] for hk in h]
    sc = IbcScenario(bs_antennas=[2], users=users, power_budgets=[2.0], links=links)
    ps = PrecoderSet([np.array([[1.0], [0.0]]), np.array([[0.0], [1.0]])])
    return sc, ps


def _symmetric_four_user_miso(rho=100.0, M=4):
    """Four i.i.d. MISO users on orthogonal beams; the aggregate transmit
    covariance seen by each user is (rho/M) I, so every rate term has an
    exact Gamma-variable reference."""
    users = [
        UserConfig(serving_bs=0, rx_antennas=1, streams=1, rate_weight=1.0)
        for _ in range(M)
    ]
    links = [
        [GapSpec(mean=np.zeros((1, M)), cov=np.eye(M))] for _ in users
    ]
    sc = IbcScenario(bs_antennas=[M], users=users, power_budgets=[rho], links=links)
    mats = []
    for k in range(M):
        G = np.zeros((M, 1), dtype=complex)
        G[k, 0] = np.sqrt(rho / M)
        mats.append(G)
    return sc, PrecoderSet(mats)


def _two_user_mimo_random(seed=0):
    rng = np.random.default_rng(seed)
    users = [
        UserConfig(serving_bs=0, rx_antennas=2, streams=2, rate_weight=1.0),
        UserConfig(serving_bs=1, rx_antennas=2, streams=1, rate_weight=0.7),
    ]
    links = []
    for _ in users:
        row = []
        for M in (4, 3):
            row.append(
                GapSpec(mean=np.zeros((2, M)), cov=np.eye(M))
            )
        links.append(row)
    sc = IbcScenario(
        bs_antennas=[4, 3], users=users, power_budgets=[8.0, 5.0], links=links
    )
    return sc, uniform_power_precoders(sc)


def _spend_budgets(sc, mats):
    """Scale the beams of each cell's users to spend its budget exactly."""
    for j, budget in enumerate(sc.power_budgets):
        served = [k for k, u in enumerate(sc.users) if u.serving_bs == j]
        spent = sum(np.sum(np.abs(mats[k]) ** 2) for k in served)
        for k in served:
            mats[k] *= np.sqrt(budget / spent)
    return PrecoderSet(mats)


def _two_cell_rician(seed=0):
    """Two cells (M = 4, 3), three users with N = 2 receive antennas, one
    of them on 2 streams, nonzero means, correlated covariances and
    random beams that spend each cell's budget."""
    rng = np.random.default_rng(seed)

    def cn(*shape):
        return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)

    users = [
        UserConfig(serving_bs=0, rx_antennas=2, streams=2, rate_weight=1.0),
        UserConfig(serving_bs=1, rx_antennas=2, streams=1, rate_weight=0.6),
        UserConfig(serving_bs=0, rx_antennas=2, streams=1, rate_weight=1.4),
    ]
    links = []
    for _ in users:
        row = []
        for M, gain in ((4, 1.0), (3, 0.4)):
            A = cn(M, M)
            C = A @ A.conj().T
            row.append(GapSpec(mean=0.6 * gain * cn(2, M), cov=gain * C / M))
        links.append(row)
    sc = IbcScenario(bs_antennas=[4, 3], users=users, power_budgets=[6.0, 4.0], links=links)
    return sc, _spend_budgets(sc, [cn(sc.bs_antennas[u.serving_bs], u.streams) for u in users])


def _weak_cross_links(ratio, seed=0):
    """Two 2-antenna cells, each serving one N = 2 user on 2 streams;
    the cross links carry 1/ratio of the own links' power (mean scaled by
    ratio^-1/2, covariance by 1/ratio). From ratio 1e9 on, the stream
    spec's support drops the cross streams that the interference spec
    keeps."""
    rng = np.random.default_rng(seed)

    def link(scale):
        mean = 0.5 * (rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)))
        return GapSpec(mean / np.sqrt(scale), np.eye(2) / scale)

    users = [UserConfig(serving_bs=j, rx_antennas=2, streams=2, rate_weight=1.0) for j in (0, 1)]
    links = [[link(1.0), link(ratio)], [link(ratio), link(1.0)]]
    sc = IbcScenario(bs_antennas=[2, 2], users=users, power_budgets=[2.0, 2.0], links=links)
    return sc, PrecoderSet([np.eye(2, dtype=complex)] * 2)


def _one_cell_two_users_rician(seed=5):
    """One 4-antenna cell serving two 2-antenna users on 2 and 1
    streams, exponential-profile covariances and nonzero means."""
    rng = np.random.default_rng(seed)
    users = [
        UserConfig(serving_bs=0, rx_antennas=2, streams=2, rate_weight=1.0),
        UserConfig(serving_bs=0, rx_antennas=2, streams=1, rate_weight=0.8),
    ]
    links = [
        [GapSpec(mean=0.7 * complex_normal(rng, (2, 4)), cov=exp_profile_cov(4, r))]
        for r in (0.6, 0.3)
    ]
    sc = IbcScenario(bs_antennas=[4], users=users, power_budgets=[5.0], links=links)
    return sc, _spend_budgets(sc, [complex_normal(rng, (4, u.streams)) for u in users])


def _rank_deficient_streams(seed=6):
    """Two cells whose links from cell 0 have rank-one covariances and
    from cell 1 none, so every user's 4-wide stream covariance has rank
    one; all means are nonzero."""
    rng = np.random.default_rng(seed)
    users = [
        UserConfig(serving_bs=0, rx_antennas=2, streams=2, rate_weight=1.0),
        UserConfig(serving_bs=0, rx_antennas=1, streams=1, rate_weight=0.5),
        UserConfig(serving_bs=1, rx_antennas=2, streams=1, rate_weight=1.3),
    ]
    links = []
    for u in users:
        v = complex_normal(rng, (4, 1))
        links.append([
            GapSpec(mean=0.5 * complex_normal(rng, (u.rx_antennas, 4)), cov=v @ v.conj().T),
            GapSpec(mean=complex_normal(rng, (u.rx_antennas, 3)), cov=np.zeros((3, 3))),
        ])
    sc = IbcScenario(bs_antennas=[4, 3], users=users, power_budgets=[4.0, 2.0], links=links)
    return sc, _spend_budgets(
        sc, [complex_normal(rng, (sc.bs_antennas[u.serving_bs], u.streams)) for u in users]
    )


def _multicell_uniform(seed=0, cells=3, per_cell=4, M=8):
    """cells x per_cell two-antenna single-stream users, zero means and
    random transmit correlations (gain 1 from the serving cell, 0.3
    from the others), under uniform_power_precoders: every user of a
    cell gets its beam e_1, so every stream spec has rank `cells`."""
    rng = np.random.default_rng(seed)

    def correlation(gain):
        A = complex_normal(rng, (M, M))
        C = A @ A.conj().T
        return gain * M * C / np.trace(C).real

    users = [
        UserConfig(serving_bs=k // per_cell, rx_antennas=2, streams=1, rate_weight=1.0)
        for k in range(cells * per_cell)
    ]
    links = [
        [GapSpec(np.zeros((2, M)), correlation(1.0 if j == u.serving_bs else 0.3))
         for j in range(cells)]
        for u in users
    ]
    sc = IbcScenario(
        bs_antennas=[M] * cells, users=users, power_budgets=[10.0] * cells, links=links
    )
    return sc, uniform_power_precoders(sc)


def _deterministic_streams(seed=0):
    """One 4-antenna cell with budget 2 serving two N = 2 users on one
    stream each, with random means. Every link is random, but its
    covariance lives on antennas 2-3, which the beams e_0 and e_1 never
    reach: every precoded stream is its mean."""
    rng = np.random.default_rng(seed)
    users = [UserConfig(serving_bs=0, rx_antennas=2, streams=1, rate_weight=w) for w in (1.0, 0.7)]
    links = []
    for _ in users:
        cov = np.zeros((4, 4), dtype=complex)
        A = complex_normal(rng, (2, 2))
        cov[2:, 2:] = A @ A.conj().T
        links.append([GapSpec(mean=complex_normal(rng, (2, 4)), cov=cov)])
    sc = IbcScenario(bs_antennas=[4], users=users, power_budgets=[2.0], links=links)
    eye = np.eye(4, dtype=complex)
    return sc, PrecoderSet([eye[:, [0]], eye[:, [1]]])


def _mixed_streams(seed=0, users=(1,)):
    """_two_cell_rician with the links of the given users made
    deterministic: their stream specs have an empty support, the other
    users' do not."""
    sc, ps = _two_cell_rician(seed)
    for k in users:
        sc.links[k] = [GapSpec(link.mean, np.zeros_like(link.cov)) for link in sc.links[k]]
    return sc, ps


def _deterministic_links(seed=0):
    """_two_cell_rician with every link deterministic."""
    return _mixed_streams(seed, users=range(3))


def _means(sc):
    return [[link.mean for link in row] for row in sc.links]


def _per_link_terms(sc, ps, grams):
    """Per user (signal, interference) log-dets built link by link.

    grams(k, j, Q) is user k's Gram for transmit covariance Q at cell j,
    a sampled H Q H^H or its expectation. The signal term adds every
    user's Q_i at its serving cell; the interference term every user's
    but k's own.
    """
    out = []
    for k, u in enumerate(sc.users):
        N = u.rx_antennas
        sig = np.eye(N, dtype=complex)
        intf = np.eye(N, dtype=complex)
        for i, ui in enumerate(sc.users):
            G = ps.matrices[i]
            term = grams(k, ui.serving_bs, G @ G.conj().T)
            sig = sig + term
            if i != k:
                intf = intf + term
        out.append((np.linalg.slogdet(sig)[1], np.linalg.slogdet(intf)[1]))
    return out


class TestWsrRealization:
    def test_zero_precoders(self):
        sc, _ = _single_user_mimo()
        ps = PrecoderSet([np.zeros((2, 2))])
        assert wsr_realization(sc, ps, _means(sc)) == 0.0

    def test_identity_channel_isotropic_precoder(self):
        rho, n = 4.0, 2
        sc, ps = _single_user_mimo(rho=rho, n=n)
        H = np.eye(n, dtype=complex)
        got = wsr_realization(sc, ps, [[H]])
        assert got == pytest.approx(n * np.log1p(rho), rel=1e-12)

    def test_orthogonal_two_user_miso(self):
        sc, ps = _orthogonal_two_user_miso()
        got = wsr_realization(sc, ps, _means(sc))
        # matched beams carry unit power and see no cross interference
        want = 1.0 * np.log1p(1.0) + 2.0 * np.log1p(1.0)
        assert got == pytest.approx(want, rel=1e-12)

    def test_nonnegative_on_random_draws(self):
        sc, ps = _two_user_mimo_random()
        rng = np.random.default_rng(5)
        for _ in range(10):
            channels = [[link_draws(link, rng, 1)[0] for link in row] for row in sc.links]
            assert wsr_realization(sc, ps, channels) >= 0.0

    def test_grams_match_per_link_sums(self):
        # on every draw, the signal Gram is sum_j H_kj Q_j H_kj^H and the
        # interference Gram the same sum without user k's own beams
        sc, ps = _two_cell_rician(seed=1)
        rng = np.random.default_rng(8)
        for _ in range(10):
            H = [[link_draws(link, rng, 1)[0] for link in row] for row in sc.links]
            terms = _per_link_terms(sc, ps, lambda k, j, Q: H[k][j] @ Q @ H[k][j].conj().T)
            want = sum(u.rate_weight * (s - i) for u, (s, i) in zip(sc.users, terms))
            assert wsr_realization(sc, ps, H) == pytest.approx(want, rel=1e-10)

    def test_rejects_wrong_channel_shape(self):
        sc, ps = _two_cell_rician()
        channels = _means(sc)
        channels[1][0] = np.zeros((2, 3))
        with pytest.raises(DimensionMismatch):
            wsr_realization(sc, ps, channels)


class TestEwsrMonteCarlo:
    def test_deterministic_channel_is_exact(self):
        sc, ps = _orthogonal_two_user_miso()
        est = ewsr_monte_carlo(sc, ps, 100, 0)
        want = wsr_realization(sc, ps, _means(sc))
        assert est.value == want
        assert est.std_error == 0.0

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_deterministic_shortcut_is_the_realization_at_the_means(self, seed):
        sc, ps = _two_cell_rician(seed)
        for row in sc.links:
            for j, link in enumerate(row):
                row[j] = GapSpec(link.mean, np.zeros_like(link.cov))
        est = ewsr_monte_carlo(sc, ps, 100, 0)
        assert est.value == wsr_realization(sc, ps, _means(sc)) == esei_wsr(sc, ps)
        assert est.std_error == 0.0

    def test_rejects_tiny_sample_counts(self):
        sc, ps = _orthogonal_two_user_miso()
        with pytest.raises(DomainError):
            ewsr_monte_carlo(sc, ps, 1, 0)

    @pytest.mark.parametrize(
        "n_samples, seed, workers, name",
        [(5000.0, 0, 1, "n_samples"), (100, -1, 1, "seed"), (100, 0, 0, "workers")],
    )
    def test_deterministic_shortcut_checks_run_arguments(self, n_samples, seed, workers, name):
        sc, ps = _orthogonal_two_user_miso()
        with pytest.raises(DomainError, match=f"{name} must be an integer"):
            ewsr_monte_carlo(sc, ps, n_samples, seed, workers=workers)

    @pytest.mark.parametrize("workers", [1, 3])
    @pytest.mark.parametrize(
        "make",
        [
            _deterministic_streams,
            _deterministic_links,
            _mixed_streams,
            _two_cell_rician,
            _multicell_uniform,
        ],
        ids=["deterministic-streams", "deterministic-links", "mixed", "two-cell-rician",
             "multicell"],
    )
    def test_ewsr_is_the_first_term_estimate_bit_for_bit(self, make, workers):
        sc, ps = make()
        n = 2 * 4096 + 7
        est = ewsr_monte_carlo(sc, ps, n, 4, workers=workers)
        wsr = user_term_estimates(sc, ps, n, 4, workers=workers)[0]
        assert (est.value.hex(), est.std_error.hex()) == (wsr.value.hex(), wsr.std_error.hex())

    @pytest.mark.parametrize("workers", [1, 3])
    def test_deterministic_user_draws_nothing_among_random_ones(self, workers):
        # user 1's stream spec has an empty support, so the pass leaves it
        # out; users 0 and 2 keep the draws of a pass over every user (an
        # empty draw leaves the generator where it is), and user 1's terms
        # are its surrogate terms, added to the EWSR after the reduction
        sc, ps = _mixed_streams()
        specs = _stream_specs(sc, ps, range(sc.n_users))
        assert [spec.support_rank > 0 for spec, _ in specs] == [True, False, True]
        K = sc.n_users

        def every_user(rng, count):
            out = np.zeros((count, 1 + 2 * K))
            for k, (spec, own) in enumerate(specs):
                own_basis = None if own == slice(0, spec.mean.shape[1]) else spec.basis[:, own]
                sig, intf = (t[:, 0] for t in _rate_terms(spec.draw(rng, count), own_basis, [1.0]))
                out[:, 1 + k], out[:, 1 + K + k] = sig, intf
                if spec.support_rank:
                    out[:, 0] += sc.users[k].rate_weight * (sig - intf)
            return out

        n = 2 * 4096 + 7
        mean, se, _ = vector_stats(n, 4, every_user)
        wsr, sig, intf = user_term_estimates(sc, ps, n, 4, workers=workers)
        for k in (0, 2):
            assert (sig[k].value, sig[k].std_error) == (mean[1 + k], se[1 + k])
            assert (intf[k].value, intf[k].std_error) == (mean[1 + K + k], se[1 + K + k])
        exact = esei_terms(sc, ps)[1]
        assert (sig[1].value, intf[1].value) == exact
        assert sig[1].std_error == intf[1].std_error == 0.0
        assert wsr.value == mean[0] + sc.users[1].rate_weight * (exact[0] - exact[1])
        assert wsr.std_error == se[0]

    def test_symmetric_scenario_matches_gamma_oracle(self):
        # aggregate Q = 25 I_4, per-user own beam 25 e_k e_k^H: the exact
        # EWSR is 4 [E ln(1 + 25 g4) - E ln(1 + 25 g3)], g_m ~ Gamma(m, 1)
        sc, ps = _symmetric_four_user_miso(rho=100.0, M=4)
        est = ewsr_monte_carlo(sc, ps, 100_000, 12)
        want = 4.0 * (_mp_miso_iid(4, 25.0) - _mp_miso_iid(3, 25.0))
        assert est.value == pytest.approx(want, abs=3 * est.std_error)

    def test_signal_term_matches_gamma_oracle(self):
        sc, ps = _symmetric_four_user_miso(rho=100.0, M=4)
        _, sig, intf = user_term_estimates(sc, ps, 100_000, 12)
        want_sig = _mp_miso_iid(4, 25.0)
        want_intf = _mp_miso_iid(3, 25.0)
        assert sig[0].value == pytest.approx(want_sig, abs=3 * sig[0].std_error)
        assert intf[0].value == pytest.approx(want_intf, abs=3 * intf[0].std_error)

    def test_std_error_scales_as_inverse_sqrt(self):
        sc, ps = _two_user_mimo_random()
        a = ewsr_monte_carlo(sc, ps, 4000, 3)
        b = ewsr_monte_carlo(sc, ps, 64_000, 3)
        ratio = a.std_error / b.std_error
        assert ratio == pytest.approx(4.0, rel=0.30)

    def test_worker_count_never_changes_result(self):
        sc, ps = _two_user_mimo_random()
        a = ewsr_monte_carlo(sc, ps, 20_000, 9, workers=1)
        b = ewsr_monte_carlo(sc, ps, 20_000, 9, workers=3)
        assert a.value == b.value and a.std_error == b.std_error

    def test_idle_cell_gets_no_draw(self):
        # a third cell that serves nobody adds no streams, so the same
        # seed gives bit-identical estimates with or without it
        sc, ps = _two_user_mimo_random()
        idle = IbcScenario(
            bs_antennas=[4, 3, 2],
            users=sc.users,
            power_budgets=[8.0, 5.0, 1.0],
            links=[
                row + [GapSpec(mean=np.ones((2, 2)), cov=np.eye(2))]
                for row in sc.links
            ],
        )
        a = user_term_estimates(sc, ps, 5000, 2)
        b = user_term_estimates(idle, ps, 5000, 2)
        assert a == b

    @pytest.mark.parametrize("make, rank", [
        (_one_cell_two_users_rician, 3),
        (_rank_deficient_streams, 1),
    ])
    def test_terms_match_per_link_brute_force(self, make, rank):
        # every link drawn separately as mean + W S, S its own root, on its
        # own stream; the estimator draws the stream spec in its eigenbasis
        sc, ps = make()
        for sig_spec, _ in _term_specs(sc, ps):
            assert np.linalg.matrix_rank(sig_spec.cov, hermitian=True) == rank
        n = 20_000
        rng = np.random.default_rng(78)
        H = [[link_draws(link, rng, n) for link in row] for row in sc.links]
        terms = _per_link_terms(
            sc, ps, lambda k, j, Q: H[k][j] @ Q @ np.conj(np.swapaxes(H[k][j], 1, 2))
        )
        total = sum(u.rate_weight * (s - i) for u, (s, i) in zip(sc.users, terms))

        def close(est, samples):
            se = samples.std(ddof=1) / np.sqrt(n)
            return abs(est.value - samples.mean()) <= 5 * np.hypot(est.std_error, se)

        wsr, sig, intf = user_term_estimates(sc, ps, n, 4)
        assert close(wsr, total)
        for k, (s, i) in enumerate(terms):
            assert close(sig[k], s) and close(intf[k], i)

    def test_multicell_rank_deficient_streams_match_per_link_brute_force(self):
        # every stream spec is 12 wide with rank 3 and zero mean, so each
        # user draws 2 x 3 normals a sample; the brute force draws every
        # link whole, user by user
        sc, ps = _multicell_uniform(seed=11)
        for spec, _ in _term_specs(sc, ps):
            assert (spec.mean.shape[1], spec.support_rank, spec.gram_rank) == (12, 3, 3)
        n = 20_000
        rng = np.random.default_rng(79)
        drawn = {}

        def grams(k, j, Q):
            if (k, j) not in drawn:
                if drawn and next(iter(drawn))[0] != k:
                    drawn.clear()  # keep one user's links at a time
                drawn[k, j] = link_draws(sc.links[k][j], rng, n)
            H = drawn[k, j]
            return H @ Q @ np.conj(np.swapaxes(H, 1, 2))

        terms = _per_link_terms(sc, ps, grams)
        total = sum(u.rate_weight * (s - i) for u, (s, i) in zip(sc.users, terms))

        def close(est, samples):
            se = samples.std(ddof=1) / np.sqrt(n)
            return abs(est.value - samples.mean()) <= 5 * np.hypot(est.std_error, se)

        wsr, sig, intf = user_term_estimates(sc, ps, n, 5)
        assert close(wsr, total)
        for k, (s, i) in enumerate(terms):
            assert close(sig[k], s) and close(intf[k], i)

    def test_multicell_rank_deficient_streams_worker_count_bit_identical(self):
        sc, ps = _multicell_uniform(seed=12)
        a = user_term_estimates(sc, ps, 3 * 4096 + 5, 6, workers=1)
        b = user_term_estimates(sc, ps, 3 * 4096 + 5, 6, workers=3)
        assert a == b

    @pytest.mark.parametrize(
        "make", [_two_cell_rician, _two_user_mimo_random, lambda: load_demo_bundle()[:2]],
        ids=["two-cell-rician", "two-user-mimo", "demo"],
    )
    def test_full_rank_streams_keep_the_whole_width_draws(self, make):
        # where every stream spec has full rank, the estimate is bit for
        # bit that of drawing mean V + W diag(sqrt(lambda)) over all M
        # columns and mapping the own streams back with V^H[:, own]
        sc, ps = make()
        specs = [stream_spec(sc, ps, k) for k in range(sc.n_users)]
        assert all(spec.support_rank == spec.mean.shape[1] for spec, _ in specs)
        K = len(specs)

        def whole_width(rng, count):
            out = np.zeros((count, 1 + 2 * K))
            for k, ((spec, own), u) in enumerate(zip(specs, sc.users)):
                V = spec.spectrum.eigenvectors
                X = complex_normal(rng, (count,) + spec.mean.shape)
                X *= spec.spectrum.roots()
                if np.any(spec.mean):
                    X += spec.mean @ V
                whole = own == slice(0, spec.mean.shape[1])
                sig, intf = (
                    t[:, 0] for t in _rate_terms(X, None if whole else V.conj().T[:, own], [1.0])
                )
                out[:, 1 + k], out[:, 1 + K + k] = sig, intf
                out[:, 0] += u.rate_weight * (sig - intf)
            return out

        mean, se, _ = vector_stats(4096 + 9, 3, whole_width)
        got = ewsr_monte_carlo(sc, ps, 4096 + 9, 3)
        assert (got.value, got.std_error) == (mean[0], se[0])
        _, sig, intf = user_term_estimates(sc, ps, 4096 + 9, 3)
        assert [e.value for e in sig + intf] == mean[1:].tolist()

    @pytest.mark.parametrize("D", [3, 8])
    @pytest.mark.parametrize("own", [1, 2])
    def test_interference_gram_drops_the_own_streams(self, own, D):
        # the own streams' Gram comes off the signal Gram: rates of
        # S - gram(X own_basis), own_basis orthonormal columns as the
        # rows of a unitary stream basis give them
        rng = np.random.default_rng(90 + D + own)
        X = complex_normal(rng, (1000, 2, D))
        own_basis = np.linalg.qr(complex_normal(rng, (D, own)))[0]
        sig, intf = _rate_terms(X, own_basis, [1.0])
        S = linalg.gram(X)
        assert np.array_equal(sig, linalg.gram_log_rates(S, [1.0]))
        want = linalg.gram_log_rates(S - linalg.gram(X @ own_basis), [1.0])
        assert np.max(np.abs(intf - want) / want) <= 1e-13

    def test_matches_per_link_brute_force(self):
        # an estimator that draws every link separately, with its own stream
        sc, ps = _two_cell_rician()
        n = 20_000
        rng = np.random.default_rng(77)
        H = [[link_draws(link, rng, n) for link in row] for row in sc.links]
        terms = _per_link_terms(
            sc, ps, lambda k, j, Q: H[k][j] @ Q @ np.conj(np.swapaxes(H[k][j], 1, 2))
        )
        total = sum(u.rate_weight * (s - i) for u, (s, i) in zip(sc.users, terms))
        ref, ref_se = total.mean(), total.std(ddof=1) / np.sqrt(n)
        est = ewsr_monte_carlo(sc, ps, n, 3)
        assert abs(est.value - ref) <= 5 * np.hypot(est.std_error, ref_se)


class TestEseiWsr:
    def test_zero_precoders(self):
        sc, _ = _two_user_mimo_random()
        ps = PrecoderSet([np.zeros((4, 2)), np.zeros((3, 1))])
        assert esei_wsr(sc, ps) == 0.0

    def test_single_user_zero_mean_identity_precoder(self):
        N = 2
        rng = np.random.default_rng(1)
        A = rng.standard_normal((N, N)) + 1j * rng.standard_normal((N, N))
        C = A @ A.conj().T
        sc = IbcScenario(
            bs_antennas=[N],
            users=[UserConfig(serving_bs=0, rx_antennas=N, streams=N, rate_weight=1.5)],
            power_budgets=[N + 1.0],
            links=[[GapSpec(mean=np.zeros((N, N)), cov=C)]],
        )
        ps = PrecoderSet([np.eye(N)])
        want = 1.5 * N * np.log1p(np.trace(C).real)
        assert esei_wsr(sc, ps) == pytest.approx(want, rel=1e-12)

    def test_deterministic_channel_equals_ewsr(self):
        sc, ps = _orthogonal_two_user_miso()
        est = ewsr_monte_carlo(sc, ps, 50, 0)
        assert esei_wsr(sc, ps) == pytest.approx(est.value, rel=1e-12)

    def test_unitary_precoder_invariance(self):
        sc, ps = _two_user_mimo_random()
        base = esei_wsr(sc, ps)
        theta = 0.7
        U = np.array(
            [
                [np.cos(theta), -np.sin(theta)],
                [np.sin(theta), np.cos(theta)],
            ],
            dtype=complex,
        ) * np.exp(0.3j)
        rotated = PrecoderSet([ps.matrices[0] @ U, ps.matrices[1]])
        assert abs(esei_wsr(sc, rotated) - base) <= 1e-10 * max(abs(base), 1.0)

    def test_matches_per_link_expected_grams(self):
        sc, ps = _two_cell_rician()
        want = _per_link_terms(
            sc,
            ps,
            lambda k, j, Q: sc.links[k][j].mean @ Q @ sc.links[k][j].mean.conj().T
            + np.trace(Q @ sc.links[k][j].cov).real * np.eye(2),
        )
        for got, (sig, intf) in zip(esei_terms(sc, ps), want):
            assert got == pytest.approx((sig, intf), rel=1e-12)

    def test_lone_user_has_empty_interference_spec(self):
        # the only user of the only serving cell: nothing interferes
        sc, ps = _single_user_mimo()
        sc.links[0][0] = GapSpec(mean=sc.links[0][0].mean, cov=np.eye(2))
        (sig, intf), = _term_specs(sc, ps)
        assert sig.mean.shape == (2, 2)
        assert intf.mean.shape == (2, 0) and intf.cov.shape == (0, 0)
        assert esei_terms(sc, ps)[0][1] == 0.0
        assert user_term_estimates(sc, ps, 1000, 1)[2][0].value == 0.0

    def test_lone_user_interference_is_exactly_zero_in_any_eigenbasis(self):
        # a correlated covariance gives a stream eigenbasis that is not a
        # permutation; the sampled interference term must still be 0
        sc, ps = _single_user_mimo(n=3)
        sc.links[0][0] = GapSpec(mean=sc.links[0][0].mean, cov=exp_profile_cov(3, 0.7))
        _, sig, (intf,) = user_term_estimates(sc, ps, 5000, 2)
        assert intf.value == 0.0 and intf.std_error == 0.0
        assert sig[0].value > 0.0

    def test_jensen_per_term(self):
        sc, ps = _two_user_mimo_random(seed=2)
        inside = esei_terms(sc, ps)
        _, sig, intf = user_term_estimates(sc, ps, 20_000, 4)
        for k in range(sc.n_users):
            assert inside[k][0] >= sig[k].value - 3 * sig[k].std_error
            assert inside[k][1] >= intf[k].value - 3 * intf[k].std_error


class TestSandwichBounds:
    @pytest.mark.parametrize(
        "run, name",
        [
            ({"n_samples": -5}, "n_samples"),
            ({"n_samples": True}, "n_samples"),
            ({"seed": -1}, "seed"),
            ({"seed": 1.5}, "seed"),
            ({"workers": 0}, "workers"),
        ],
    )
    def test_run_arguments_checked_up_front(self, run, name):
        # every limit on the demo is closed-form, so no later check sees these
        sc, ps, _ = load_demo_bundle()
        with pytest.raises(DomainError, match=f"{name} must be an integer"):
            sandwich_bounds(sc, ps, **run)

    def test_deterministic_channel_collapses(self):
        sc, ps = _orthogonal_two_user_miso()
        sb = sandwich_bounds(sc, ps)
        assert sb.lower == sb.esei_value == sb.upper
        assert sb.width == 0.0
        assert np.all(sb.per_user_gamma_k == 0.0)

    def test_single_user_single_antenna_gap_is_euler_gamma(self):
        # one transmit antenna, zero mean: the signal-term gap limit is
        # exactly gamma, and with no interferers the upper side is tight
        u1 = 0.8
        sc = IbcScenario(
            bs_antennas=[1],
            users=[UserConfig(serving_bs=0, rx_antennas=1, streams=1, rate_weight=u1)],
            power_budgets=[3.0],
            links=[[GapSpec(mean=np.zeros((1, 1)), cov=np.eye(1))]],
        )
        ps = uniform_power_precoders(sc)
        sb = sandwich_bounds(sc, ps, "closed-form", n_samples=1000)
        assert sb.esei_value - sb.lower == pytest.approx(u1 * euler_gamma(), rel=1e-12)
        assert sb.upper == sb.esei_value
        assert sb.method_per_user == ["closed-form"]

    def test_two_user_mimo_contains_monte_carlo(self):
        sc, ps = _two_user_mimo_random(seed=3)
        sb = sandwich_bounds(sc, ps)
        est = ewsr_monte_carlo(sc, ps, 100_000, 6)
        assert sb.contains(est.value)
        assert sb.lower <= sb.esei_value <= sb.upper
        # user 0's one-column interference spec is singular for N = 2
        assert sb.per_user_gamma_kbar[0] == np.inf and sb.upper == np.inf
        assert set(sb.method_per_user) <= {"closed-form", "unbounded", "monte-carlo-high-snr"}

    def test_single_cell_iid_mimo_closed_form(self):
        # uniform precoders on one i.i.d. cell give equal-eigenvalue
        # effective spectra, so every gap limit has a closed form
        users = [
            UserConfig(serving_bs=0, rx_antennas=2, streams=2, rate_weight=1.0),
            UserConfig(serving_bs=0, rx_antennas=2, streams=2, rate_weight=0.5),
        ]
        links = [
            [GapSpec(mean=np.zeros((2, 4)), cov=np.eye(4))]
            for _ in users
        ]
        sc = IbcScenario(
            bs_antennas=[4], users=users, power_budgets=[8.0], links=links
        )
        ps = uniform_power_precoders(sc)
        sb = sandwich_bounds(sc, ps, "closed-form", n_samples=100_000, seed=14)
        assert sb.method_per_user == ["closed-form", "closed-form"]
        assert sb.contains(sb.ewsr.value)

    def test_width_identity(self):
        sc, ps = _two_user_mimo_random(seed=4)
        sb = sandwich_bounds(sc, ps)
        weights = np.array([u.rate_weight for u in sc.users])
        want = float(weights @ (sb.per_user_gamma_k + sb.per_user_gamma_kbar))
        assert sb.width == pytest.approx(want, rel=1e-15)
        assert sb.upper - sb.lower == sb.width

    def test_closed_form_rejected_for_nonzero_mean(self):
        sc, ps = _single_user_mimo()
        sc.links[0][0] = GapSpec(
            mean=sc.links[0][0].mean, cov=0.5 * np.eye(2)
        )
        with pytest.raises(UnsupportedCase):
            sandwich_bounds(sc, ps, "closed-form")
        with pytest.raises(UnsupportedCase):
            sandwich_bounds(sc, ps, "taylor")

    def test_monte_carlo_fallback_for_nonzero_mean(self):
        sc, ps = _single_user_mimo(rho=2.0)
        sc.links[0][0] = GapSpec(
            mean=sc.links[0][0].mean, cov=0.5 * np.eye(2)
        )
        sb = sandwich_bounds(sc, ps, "auto", n_samples=20_000, seed=1)
        assert sb.method_per_user[0] == "monte-carlo-high-snr"
        est = ewsr_monte_carlo(sc, ps, 50_000, 2)
        assert sb.contains(est.value)

    def test_sampled_limit_is_gamma_inf_plus_three_std_errors(self):
        # user 0's signal draws are 2 columns wide in the one-user cell and
        # one per cell in the wider scenario, one on each side of
        # linalg.GRAM_COLUMNS_MAX
        sc, ps = _single_user_mimo(rho=2.0)
        sc.links[0][0] = GapSpec(mean=sc.links[0][0].mean, cov=0.5 * np.eye(2))
        wide = _multicell_uniform(cells=linalg.GRAM_COLUMNS_MAX + 1, per_cell=1)
        widths = []
        for sc, ps in [(sc, ps), wide]:
            spec = _term_specs(sc, ps)[0][0]  # the signal spec
            sb = sandwich_bounds(sc, ps, "monte-carlo-high-snr", n_samples=5000, seed=3)
            est = gamma_rho(spec, np.inf, 5000, 3)
            assert Z_HIGH_SNR == 3.0
            assert sb.per_user_gamma_k[0] == est.value + 3.0 * est.std_error
            assert sb.method_per_user == ["monte-carlo-high-snr"] * sc.n_users
            widths.append(spec.gram_rank)
        assert widths[0] <= linalg.GRAM_COLUMNS_MAX < widths[1]

    def test_taylor_method_on_correlated_spectrum(self):
        # equal-power beams on a correlated covariance have no matching
        # closed form for N = 2; only an explicit request gets the
        # Taylor limit, auto samples the gap instead
        rng = np.random.default_rng(6)
        A = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        C = A @ A.conj().T
        sc = IbcScenario(
            bs_antennas=[3],
            users=[UserConfig(serving_bs=0, rx_antennas=2, streams=2, rate_weight=1.0)],
            power_budgets=[4.0],
            links=[[GapSpec(mean=np.zeros((2, 3)), cov=C)]],
        )
        ps = uniform_power_precoders(sc)
        sb = sandwich_bounds(sc, ps, "taylor", n_samples=1000)
        assert sb.method_per_user == ["taylor"]
        assert sb.lower <= sb.esei_value <= sb.upper
        auto = sandwich_bounds(sc, ps, "auto", n_samples=2000, seed=1)
        assert auto.method_per_user == ["monte-carlo-high-snr"]

    @pytest.mark.parametrize(
        "method, lower, upper",
        [
            ("auto", 0.7317272097133245, 3.3024380394113377),
            ("taylor", 0.6584206059610291, 3.323180813065009),
        ],
    )
    def test_demo_bounds_pinned(self, method, lower, upper):
        # values of the bundled demo before the stream-spec rewrite
        sc, ps, seed = load_demo_bundle()
        sb = sandwich_bounds(sc, ps, method, n_samples=1000, seed=seed)
        assert sb.lower == pytest.approx(lower, rel=1e-12)
        assert sb.upper == pytest.approx(upper, rel=1e-12)
        assert sb.esei_value == pytest.approx(1.94898725622457, rel=1e-12)
        tag = "closed-form" if method == "auto" else method
        assert sb.method_per_user == [tag] * 4

    def test_one_precoder_check_and_one_spec_build_per_call(self, monkeypatch):
        # sandwich_bounds builds each user's signal and interference spec
        # once (one eigh each), takes the ESEI from them and makes one
        # Monte-Carlo pass, which also samples its sampled limits; the
        # EWSR builds each stream spec once; both check the precoders once.
        # gamma_rho, however imported, would go through monotonicity_sweep
        sc, ps, seed = load_demo_bundle()
        calls = dict.fromkeys(["check", "eigh", "vector_stats", "gamma_rho", "sweep"], 0)

        def counted(name, fn):
            def call(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)

            return call

        monkeypatch.setattr(channel, "check_precoders", counted("check", channel.check_precoders))
        monkeypatch.setattr(np.linalg, "eigh", counted("eigh", np.linalg.eigh))
        monkeypatch.setattr(rates, "vector_stats", counted("vector_stats", rates.vector_stats))
        monkeypatch.setattr(gap, "gamma_rho", counted("gamma_rho", gap.gamma_rho))
        monkeypatch.setattr(gap, "monotonicity_sweep", counted("sweep", gap.monotonicity_sweep))
        once = {"vector_stats": 1, "gamma_rho": 0, "sweep": 0}
        sb = sandwich_bounds(sc, ps, "closed-form", n_samples=1000, seed=seed)
        assert sb.esei_value == esei_wsr(sc, ps)
        # esei_wsr is the second check
        assert calls == {"check": 2, "eigh": 4 * sc.n_users, **once}
        calls.update(dict.fromkeys(calls, 0))
        sb = sandwich_bounds(sc, ps, "monte-carlo-high-snr", n_samples=2000, seed=seed)
        assert sb.method_per_user == ["monte-carlo-high-snr"] * sc.n_users
        assert calls == {"check": 1, "eigh": 2 * sc.n_users, **once}
        calls.update(dict.fromkeys(calls, 0))
        ewsr_monte_carlo(sc, ps, 100, 0)
        assert calls == {"check": 1, "eigh": sc.n_users, **once}

    @pytest.mark.parametrize("workers", [1, 3])
    @pytest.mark.parametrize(
        "make, sampled",
        [
            (lambda: load_demo_bundle()[:2], False),
            (_multicell_uniform, True),
            (_two_cell_rician, True),
        ],
        ids=["demo", "multicell", "two-cell-rician"],
    )
    def test_bound_ewsr_is_ewsr_monte_carlo_bit_for_bit(self, make, sampled, workers):
        # the demo's limits are closed-form; the others' sampled limits
        # add columns to the same pass, which changes no bit of the EWSR
        sc, ps = make()
        n = 2 * 4096 + 7
        sb = sandwich_bounds(sc, ps, "auto", n_samples=n, seed=4, workers=workers)
        est = ewsr_monte_carlo(sc, ps, n, 4, workers=workers)
        assert ("monte-carlo-high-snr" in sb.method_per_user) == sampled
        assert sb.ewsr.value.hex() == est.value.hex()
        assert sb.ewsr.std_error.hex() == est.std_error.hex()
        assert (sb.ewsr.n_samples, sb.ewsr.seed) == (n, 4)

    def test_deterministic_bound_ewsr_is_the_surrogate(self, monkeypatch):
        sc, ps = _orthogonal_two_user_miso()
        monkeypatch.setattr(rates, "vector_stats", None)  # no pass may run
        sb = sandwich_bounds(sc, ps, n_samples=50, seed=3)
        assert (sb.ewsr.value, sb.ewsr.std_error) == (esei_wsr(sc, ps), 0.0)
        assert (sb.ewsr.n_samples, sb.ewsr.seed) == (50, 3)

    def test_deterministic_streams_give_the_surrogate_without_a_pass(self, monkeypatch):
        # every link is random but no precoded stream is: the bound has
        # width 0, and the EWSR it must hold is the surrogate itself
        sc, ps = _deterministic_streams()
        assert all(link.support_rank for row in sc.links for link in row)
        monkeypatch.setattr(rates, "vector_stats", None)  # no pass may run
        sb = sandwich_bounds(sc, ps, n_samples=2000, seed=3)
        esei = esei_wsr(sc, ps)
        assert sb.lower == sb.upper == esei
        assert (sb.ewsr.value, sb.ewsr.std_error) == (esei, 0.0)
        assert sb.contains(sb.ewsr.value)
        for est in (ewsr_monte_carlo(sc, ps, 2000, 3), user_term_estimates(sc, ps, 2000, 3)[0]):
            assert (est.value, est.std_error) == (esei, 0.0)
        terms = zip(sb.signal_terms, sb.interference_terms)
        assert [(s.value, i.value) for s, i in terms] == esei_terms(sc, ps)
        assert all(e.std_error == 0.0 for e in sb.signal_terms + sb.interference_terms)

    @pytest.mark.parametrize(
        "make",
        [lambda: load_demo_bundle()[:2], _two_cell_rician, _mixed_streams,
         lambda: _weak_cross_links(1e10)],
        ids=["demo", "two-cell-rician", "mixed", "cross-1e10"],
    )
    def test_bound_terms_are_user_term_estimates_bit_for_bit(self, make):
        # the sampled limits, some drawn apart, add columns to the pass
        # and move no term estimate
        sc, ps = make()
        n = 4096 + 9
        sb = sandwich_bounds(sc, ps, n_samples=n, seed=6)
        _, sig, intf = user_term_estimates(sc, ps, n, 6)

        def bits(ests):
            return [(e.value.hex(), e.std_error.hex(), e.n_samples, e.seed) for e in ests]

        assert bits(sb.signal_terms) == bits(sig)
        assert bits(sb.interference_terms) == bits(intf)

    @pytest.mark.parametrize(
        "make, apart",
        [
            pytest.param(_two_cell_rician, False, id="rician"),
            pytest.param(lambda: _weak_cross_links(1e4), False, id="cross-1e4"),
            pytest.param(lambda: _weak_cross_links(1e10), True, id="cross-1e10"),
            pytest.param(lambda: _weak_cross_links(1e14), True, id="cross-1e14"),
        ],
    )
    def test_sampled_limits_follow_the_law_of_their_specs(self, make, apart):
        # the interference Gram of the pass is S - gram(X own_basis); its
        # ln det must have the law of the interference spec's own draws.
        # Where the stream spec's support drops interference streams that
        # the interference spec keeps, the pass draws that spec apart
        # instead, and the limit stays finite. Both runs have n samples,
        # so their se agree up to noise.
        sc, ps = make()
        n = 20_000
        sb = sandwich_bounds(sc, ps, "auto", n_samples=n, seed=8)
        assert sb.method_per_user == ["monte-carlo-high-snr"] * sc.n_users
        streams = _stream_specs(sc, ps, range(sc.n_users))
        for k, pair in enumerate(_term_specs(sc, ps)):
            assert [streams[k][0]._draws_law_of(spec) for spec in pair] == [True, not apart]
            for spec, got in zip(pair, (sb.per_user_gamma_k[k], sb.per_user_gamma_kbar[k])):
                assert not spec.is_zero_mean() and spec.n_rx == 2
                ref = gamma_rho(spec, np.inf, n, 50 + k)
                want = ref.value + Z_HIGH_SNR * ref.std_error
                assert np.isfinite(got)
                assert abs(got - want) <= 5 * np.sqrt(2) * ref.std_error

    @pytest.mark.parametrize(
        "N, D, powers, mean, cov, tag",
        [
            pytest.param(1, 1, [1.0], 0.0, np.eye(3), "closed-form", id="iid-miso"),
            pytest.param(2, 2, [1.0], 0.0, np.eye(3), "closed-form", id="iid-mimo"),
            pytest.param(
                1, 1, [1.0] * 3, 0.0, np.diag([3.0, 2.0, 1.0]), "closed-form", id="corr-miso"
            ),
            pytest.param(
                1, 1, [1.0, 1.0 + 1e-7, 1.0 + 2e-7], 0.0, np.eye(3), "closed-form",
                id="spectrum-gap-below-1e-6",
            ),
            pytest.param(
                2, 2, [1.0], 0.0, np.diag([2.0, 0.0]), "unbounded", id="rank-deficient-mimo"
            ),
            pytest.param(
                2, 2, [1.0], 0.0, np.diag([2.0, 1.0]), "monte-carlo-high-snr",
                id="correlated-mimo-skips-taylor",
            ),
            pytest.param(
                2, 2, [1.0], 1.0 + 0.5j, np.eye(2), "monte-carlo-high-snr", id="nonzero-mean"
            ),
            pytest.param(
                2, 2, [1.0], 1.0 + 0.5j, np.zeros((2, 2)), "closed-form", id="zero-covariance"
            ),
            pytest.param(
                1, 1, [1.0] * 3, 1.0, 1e-15 * np.eye(3), "closed-form", id="tiny-covariance-miso"
            ),
            pytest.param(
                2, 2, [1.0], [[1.0, 0.5j], [0.2, -1.0]], 1e-15 * np.eye(2),
                "monte-carlo-high-snr", id="tiny-covariance-mimo",
            ),
            pytest.param(
                2, 2, [1.0], 1e-13, np.eye(2), "monte-carlo-high-snr", id="mean-1e-13-is-not-zero"
            ),
        ],
    )
    def test_auto_is_first_explicit_method_that_applies(self, N, D, powers, mean, cov, tag):
        # One cell; user k sends D streams on antennas kD..kD+D-1 at power
        # powers[k]. A lone MISO user has a one-column spec, so the
        # correlated and near-degenerate MISO cases serve three users,
        # chosen so that every signal and interference spec of the
        # scenario needs the same method. mean fills every link's mean.
        # Only an empty support gives the limit 0 and only an exactly
        # zero mean the zero-mean forms: a covariance of 1e-15 I or a
        # mean of 1e-13 gets its own limit, finite and >= 0.
        M = cov.shape[0]
        users = [UserConfig(serving_bs=0, rx_antennas=N, streams=D, rate_weight=1.5)] * len(powers)
        sc = IbcScenario(
            bs_antennas=[M],
            users=users,
            power_budgets=[D * sum(powers) + 1.0],
            links=[[GapSpec(mean=np.full((N, M), mean), cov=cov)] for _ in users],
        )
        eye = np.eye(M, dtype=complex)
        ps = PrecoderSet([np.sqrt(p) * eye[:, k * D : (k + 1) * D] for k, p in enumerate(powers)])
        kwargs = dict(n_samples=2000, seed=7)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            auto = sandwich_bounds(sc, ps, "auto", **kwargs)
            for method in ("closed-form", "monte-carlo-high-snr"):  # auto's order
                try:
                    first = sandwich_bounds(sc, ps, method, **kwargs)
                except UnsupportedCase:
                    continue
                break
        limits = np.concatenate([auto.per_user_gamma_k, auto.per_user_gamma_kbar])
        assert np.all(limits >= 0.0)
        assert np.all(np.isfinite(limits)) or tag == "unbounded"
        empty = [spec.support_rank == 0 for pair in zip(*_term_specs(sc, ps)) for spec in pair]
        assert np.array_equal(limits == 0.0, empty)
        assert auto.method_per_user == first.method_per_user == [tag] * len(powers)
        assert np.array_equal(auto.per_user_gamma_k, first.per_user_gamma_k)
        assert np.array_equal(auto.per_user_gamma_kbar, first.per_user_gamma_kbar)
        assert (auto.lower, auto.upper) == (first.lower, first.upper)

    def test_closed_form_drops_null_directions(self):
        # three single-stream MISO users on the antennas of a rank-2
        # covariance: every signal spec has eigenvalues {2, 1, 0}, and
        # its limit is the correlated MISO form on {2, 1},
        # gamma - (2 ln 2 - ln 1 - ln 3) by partial fractions
        users = [UserConfig(serving_bs=0, rx_antennas=1, streams=1, rate_weight=1.0)] * 3
        cov = np.diag([0.0, 2.0, 1.0])
        sc = IbcScenario(
            bs_antennas=[3],
            users=users,
            power_budgets=[3.0],
            links=[[GapSpec(mean=np.zeros((1, 3)), cov=cov)] for _ in users],
        )
        ps = PrecoderSet([np.eye(3, dtype=complex)[:, [k]] for k in range(3)])
        sb = sandwich_bounds(sc, ps, "closed-form", n_samples=1000)
        want = euler_gamma() - 2.0 * np.log(2.0) + np.log(3.0)
        assert sb.per_user_gamma_k == pytest.approx([want] * 3, rel=1e-12)
        assert sb.method_per_user == ["closed-form"] * 3

    @pytest.mark.parametrize("N, M, power, r, streams, mean, tag", [
        (4, 4, 100.0, 0.0, 1, 0.0, "unbounded"),
        (2, 2, 1000.0, 0.0, 1, 0.0, "unbounded"),
        (2, 4, 100.0, 0.5, 1, 0.0, "unbounded"),
        (2, 4, 100.0, 0.5, 2, 0.0, "monte-carlo-high-snr"),
        (4, 8, 100.0, 0.5, 2, 0.0, "unbounded"),
        (2, 4, 100.0, 0.5, 2, 0.6 - 0.3j, "monte-carlo-high-snr"),
    ])
    def test_single_user_auto_sandwich_contains_monte_carlo(
        self, N, M, power, r, streams, mean, tag
    ):
        # one cell, one user, uniform precoders: a single-stream spec has
        # rank 1 < N, so its gap limit is +inf; the Taylor limit sat
        # below the true gap on every row
        sc = IbcScenario(
            bs_antennas=[M],
            users=[UserConfig(serving_bs=0, rx_antennas=N, streams=streams, rate_weight=1.0)],
            power_budgets=[power],
            links=[[GapSpec(mean=np.full((N, M), mean), cov=exp_profile_cov(M, r))]],
        )
        ps = uniform_power_precoders(sc)
        sb = sandwich_bounds(sc, ps, "auto", n_samples=20_000, seed=3)
        est = ewsr_monte_carlo(sc, ps, 20_000, 1)
        assert sb.method_per_user == [tag]
        assert sb.contains(est.value)

    def test_unbounded_under_every_method(self):
        # N = 2 on one stream: H H^H has rank 1, so E ln|H H^H| = -inf
        sc = IbcScenario(
            bs_antennas=[4],
            users=[UserConfig(serving_bs=0, rx_antennas=2, streams=1, rate_weight=1.0)],
            power_budgets=[10.0],
            links=[[GapSpec(mean=np.zeros((2, 4)), cov=np.eye(4))]],
        )
        ps = uniform_power_precoders(sc)
        for method in ("auto", *GAP_METHODS):
            sb = sandwich_bounds(sc, ps, method, n_samples=2000, seed=0)
            assert sb.method_per_user == ["unbounded"]
            assert sb.per_user_gamma_k[0] == np.inf and sb.lower == -np.inf
            assert sb.upper == sb.esei_value

    def test_mean_rows_count_toward_the_span(self):
        # one random stream plus a mean row outside it: H H^H is
        # nonsingular almost surely, so the limit is finite
        sc = IbcScenario(
            bs_antennas=[2],
            users=[UserConfig(serving_bs=0, rx_antennas=2, streams=2, rate_weight=1.0)],
            power_budgets=[2.0],
            links=[[GapSpec(mean=np.array([[0.0, 1.0], [0.0, 0.0]]), cov=np.diag([1.0, 0.0]))]],
        )
        ps = uniform_power_precoders(sc)
        sb = sandwich_bounds(sc, ps, "auto", n_samples=20_000, seed=2)
        assert sb.method_per_user == ["monte-carlo-high-snr"]
        assert np.isfinite(sb.lower)
        est = ewsr_monte_carlo(sc, ps, 20_000, 4)
        assert sb.contains(est.value)

    def test_weight_zero_user_with_unbounded_limit(self):
        # 0 * inf must not turn the bounds into NaN
        users = [
            UserConfig(serving_bs=0, rx_antennas=2, streams=1, rate_weight=0.0),
            UserConfig(serving_bs=0, rx_antennas=1, streams=1, rate_weight=1.0),
        ]
        sc = IbcScenario(
            bs_antennas=[3],
            users=users,
            power_budgets=[4.0],
            links=[[GapSpec(mean=np.zeros((u.rx_antennas, 3)), cov=np.eye(3))] for u in users],
        )
        ps = uniform_power_precoders(sc)
        sb = sandwich_bounds(sc, ps, "auto", n_samples=1000)
        assert sb.method_per_user == ["unbounded", "closed-form"]
        assert sb.per_user_gamma_k[0] == np.inf
        assert np.isfinite(sb.lower) and np.isfinite(sb.upper)

    def test_clustered_forty_user_miso_contained(self):
        # one 40-antenna cell with cov = diag(1 + 1e-3 k) serving 40 MISO
        # users on the antenna axes: every stream spectrum is clustered,
        # where the partial fractions lost all their digits
        M = 40
        users = [UserConfig(serving_bs=0, rx_antennas=1, streams=1, rate_weight=1.0)] * M
        cov = np.diag(1.0 + 1e-3 * np.arange(M))
        sc = IbcScenario(
            bs_antennas=[M],
            users=users,
            power_budgets=[float(M)],
            links=[[GapSpec(mean=np.zeros((1, M)), cov=cov)] for _ in users],
        )
        ps = PrecoderSet([np.eye(M, dtype=complex)[:, [k]] for k in range(M)])
        sb = sandwich_bounds(sc, ps, "auto", n_samples=20_000, seed=5)
        assert sb.method_per_user == ["closed-form"] * M
        assert np.all((sb.per_user_gamma_k > 0.0) & (sb.per_user_gamma_k < 0.02))
        assert sb.contains(sb.ewsr.value)

    @pytest.mark.parametrize("seed", range(10))
    def test_random_zero_mean_mimo_contained(self, seed):
        # the criterion-9 check on users with N = 2 or 3 receive antennas
        # on as many streams, in one cell at 10-30 dB, where no closed
        # form applies; the Taylor limit missed 6 of these 10
        rng = np.random.default_rng(700 + seed)
        K, N = int(rng.integers(1, 3)), int(rng.integers(2, 4))
        M = int(rng.integers(N * K, 7))
        users = [
            UserConfig(
                serving_bs=0, rx_antennas=N, streams=N, rate_weight=float(rng.uniform(0.5, 2.0))
            )
            for _ in range(K)
        ]
        links = [
            [GapSpec(mean=np.zeros((N, M)), cov=exp_profile_cov(M, rng.uniform(0.3, 0.8)))]
            for _ in users
        ]
        power = float(10.0 ** rng.uniform(1.0, 3.0))
        sc = IbcScenario(bs_antennas=[M], users=users, power_budgets=[power], links=links)
        ps = uniform_power_precoders(sc)
        sb = sandwich_bounds(sc, ps, "auto", n_samples=20_000, seed=seed)
        est = ewsr_monte_carlo(sc, ps, 20_000, 100 + seed)
        assert sb.method_per_user == ["monte-carlo-high-snr"] * K
        assert sb.contains(est.value)

    def test_unknown_method_rejected(self):
        sc, ps = _orthogonal_two_user_miso()
        with pytest.raises(DomainError):
            sandwich_bounds(sc, ps, "exact")

    def test_bound_object_validation(self):
        with pytest.raises(DomainError):
            SandwichBound(
                lower=1.0,
                upper=0.5,
                esei_value=0.7,
                per_user_gamma_k=np.array([0.1]),
                per_user_gamma_kbar=np.array([0.1]),
                method_per_user=["closed-form"],
                ewsr=MonteCarloEstimate(0.7, 0.0, 2, 0),
                signal_terms=[MonteCarloEstimate(0.9, 0.0, 2, 0)],
                interference_terms=[MonteCarloEstimate(0.2, 0.0, 2, 0)],
            )
