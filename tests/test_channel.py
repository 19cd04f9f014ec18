import json

import numpy as np
import pytest

from ewsrgap.channel import (
    IbcScenario,
    PrecoderSet,
    UserConfig,
    exp_profile_cov,
    load_bundle,
    load_cov_file,
    load_demo_bundle,
    load_scenario,
    save_scenario,
    stream_spec,
    uniform_power_precoders,
)
from ewsrgap.errors import (
    DimensionMismatch,
    DomainError,
    EwsrgapError,
    IndexOutOfRange,
    ParseError,
    ValidationError,
)
from ewsrgap.gap import GapSpec
from ewsrgap.mc import complex_normal


def _random_psd(rng, n, scale=1.0):
    A = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    C = A @ A.conj().T
    return scale * C / np.trace(C).real * n


def link_draws(link, rng, n):
    """n reference draws of a link, mean + W S, with S the Hermitian root
    of cov from a separate eigh: independent of the spectrum, support and
    sampler of the GapSpec under test."""
    w, V = np.linalg.eigh(link.cov)
    S = (V * np.sqrt(np.clip(w, 0.0, None))) @ V.conj().T
    return link.mean + complex_normal(rng, (n,) + link.mean.shape) @ S


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


def _sampled(spec, rng, n):
    """n channels drawn as the package draws them: spec.draw(rng, n) @ basis."""
    return spec.draw(rng, n) @ spec.basis


def _assert_moment(samples, target, z):
    """The sample mean of samples is target within z standard errors
    (plus a roundoff floor), entry by entry, real and imaginary parts."""
    emp = samples.mean(axis=0)
    floor = 1e-12 * np.abs(target).max()
    n = samples.shape[0]
    se_re = samples.real.std(axis=0, ddof=1) / np.sqrt(n)
    se_im = samples.imag.std(axis=0, ddof=1) / np.sqrt(n)
    assert np.all(np.abs(emp.real - target.real) <= z * se_re + floor)
    assert np.all(np.abs(emp.imag - target.imag) <= z * se_im + floor)


class TestChannelDistribution:
    """Links are GapSpec instances, sampled as GapSpec.draw @ basis: the
    law that every Monte-Carlo estimate of the package draws."""

    def test_zero_cov_samples_equal_mean(self, rng):
        mean = rng.standard_normal((2, 3)) + 1j * rng.standard_normal((2, 3))
        spec = GapSpec(mean=mean, cov=np.zeros((3, 3)))
        H = _sampled(spec, rng, 5)
        assert spec.support_rank == 0 and spec.gram_rank == 2
        assert all(np.array_equal(h, H[0]) for h in H)
        assert np.max(np.abs(H[0] - mean)) <= 1e-14 * np.max(np.abs(mean))

    def test_shape_checks(self, rng):
        with pytest.raises(DimensionMismatch):
            GapSpec(mean=np.zeros((2, 3)), cov=np.eye(2))
        with pytest.raises(DimensionMismatch):
            GapSpec(mean=np.zeros((1, 2, 3)), cov=np.eye(3))

    def test_rx_side_empirical_covariance(self, rng):
        # E (H - mean)(H - mean)^H = tr(cov) I
        mean = np.ones((2, 3), dtype=complex)
        C = _random_psd(rng, 3)
        spec = GapSpec(mean=mean, cov=C)
        n = 100_000
        W = _sampled(spec, rng, n) - mean
        outer = np.einsum("sij,skj->sik", W, W.conj())
        emp = outer.mean(axis=0)
        target = np.trace(C).real * np.eye(2)
        se_re = outer.real.std(axis=0, ddof=1) / np.sqrt(n)
        se_im = outer.imag.std(axis=0, ddof=1) / np.sqrt(n)
        assert np.all(np.abs(emp.real - target.real) <= 3 * se_re)
        assert np.all(np.abs(emp.imag - target.imag) <= 3 * se_im + 1e-12)

    def test_tx_side_empirical_covariance(self, rng):
        # E (H - mean)^H (H - mean) = n_rx * cov
        C = _random_psd(rng, 3)
        spec = GapSpec(mean=np.zeros((2, 3)), cov=C)
        n = 100_000
        W = _sampled(spec, rng, n)
        inner = np.einsum("sji,sjk->sik", W.conj(), W)
        emp = inner.mean(axis=0)
        target = 2 * C
        floor = 1e-12 * np.abs(target).max()
        se_re = inner.real.std(axis=0, ddof=1) / np.sqrt(n)
        se_im = inner.imag.std(axis=0, ddof=1) / np.sqrt(n)
        assert np.all(np.abs(emp.real - target.real) <= 3 * se_re + floor)
        assert np.all(np.abs(emp.imag - target.imag) <= 3 * se_im + floor)

    def test_rank_deficient_cov_with_mean_outside_its_range(self, rng):
        # a rank-2 covariance on M = 5 and a mean that reaches outside its
        # range: r = 2 random and q = 2 fixed columns per draw. H keeps the
        # mean, H - mean has both covariances of the law and stays in the
        # range of cov
        B = rng.standard_normal((5, 2)) + 1j * rng.standard_normal((5, 2))
        C = B @ B.conj().T
        mean = rng.standard_normal((2, 5)) + 1j * rng.standard_normal((2, 5))
        spec = GapSpec(mean=mean, cov=C)
        assert (spec.support_rank, spec.gram_rank) == (2, 4)
        W = _sampled(spec, rng, 100_000) - mean
        _assert_moment(W, np.zeros((2, 5)), 3)
        _assert_moment(np.einsum("sij,skj->sik", W, W.conj()), np.trace(C).real * np.eye(2), 3)
        _assert_moment(np.einsum("sji,sjk->sik", W.conj(), W), 2 * C, 3)
        null = np.linalg.eigh(C)[1][:, :3]  # ascending: the three null directions
        assert np.max(np.abs(W @ null)) <= 1e-12 * np.max(np.abs(W))


class TestExpProfileCov:
    def test_uncorrelated_reduces_to_identity(self):
        assert np.array_equal(exp_profile_cov(4, 0.0), np.eye(4))

    def test_entries_and_trace(self):
        C = exp_profile_cov(3, 0.5)
        assert C[0, 2] == pytest.approx(0.25)
        assert C[2, 0] == pytest.approx(0.25)
        assert np.trace(C).real == pytest.approx(3.0)

    def test_positive_definite(self):
        C = exp_profile_cov(8, 0.9)
        assert np.linalg.eigvalsh(C).min() > 0

    @pytest.mark.parametrize("r", [-0.1, 1.0, 1.5])
    def test_rejects_bad_coefficient(self, r):
        with pytest.raises(DomainError):
            exp_profile_cov(4, r)

    @pytest.mark.parametrize("M", [True, 2.7, 0, -1, "4"])
    def test_rejects_non_integer_size(self, M):
        # not a 1 x 1, 2 x 2 or 0 x 0 matrix
        with pytest.raises(DomainError, match="M must be an integer >= 1"):
            exp_profile_cov(M)


def _two_user_one_cell(rng, M=3):
    users = [
        UserConfig(serving_bs=0, rx_antennas=2, streams=2, rate_weight=1.0),
        UserConfig(serving_bs=0, rx_antennas=1, streams=1, rate_weight=0.5),
    ]
    links = []
    for u in users:
        mean = rng.standard_normal((u.rx_antennas, M)) + 1j * rng.standard_normal(
            (u.rx_antennas, M)
        )
        links.append([GapSpec(mean=mean, cov=_random_psd(rng, M))])
    return IbcScenario(bs_antennas=[M], users=users, power_budgets=[6.0], links=links)


class TestScenarioValidation:
    def test_streams_exceed_rx_antennas(self, rng):
        users = [UserConfig(serving_bs=0, rx_antennas=1, streams=2, rate_weight=1.0)]
        links = [[GapSpec(mean=np.zeros((1, 4)), cov=np.eye(4))]]
        with pytest.raises(ValidationError, match="streams exceed rx antennas"):
            IbcScenario(bs_antennas=[4], users=users, power_budgets=[1.0], links=links)

    def test_link_shape_mismatch(self, rng):
        users = [UserConfig(serving_bs=0, rx_antennas=2, streams=1, rate_weight=1.0)]
        links = [[GapSpec(mean=np.zeros((1, 4)), cov=np.eye(4))]]
        with pytest.raises(ValidationError):
            IbcScenario(bs_antennas=[4], users=users, power_budgets=[1.0], links=links)

    def test_vector_mean_link_rejected_for_two_antenna_user(self):
        # GapSpec promotes a 1-d mean to one row, which a 2-antenna user cannot take
        users = [UserConfig(serving_bs=0, rx_antennas=2, streams=1, rate_weight=1.0)]
        links = [[GapSpec(mean=np.zeros(3), cov=np.eye(3))]]
        with pytest.raises(ValidationError, match=r"\(1, 3\), expected \(2, 3\)"):
            IbcScenario(bs_antennas=[3], users=users, power_budgets=[1.0], links=links)

    def test_budget_enforcement(self, rng):
        sc = _two_user_one_cell(rng)
        G = np.sqrt(10.0) * np.eye(3, 2)
        ps = PrecoderSet([G, np.zeros((3, 1))])
        from ewsrgap.channel import check_precoders

        with pytest.raises(ValidationError, match="budget"):
            check_precoders(sc, ps)

    @pytest.mark.parametrize("budget, streams", [(1e9, 7), (3e12, 7), (7.7e13, 3)])
    def test_large_budget_met_by_its_own_precoders(self, budget, streams):
        # the spend's roundoff scales with the budget, so the slack must too
        user = UserConfig(serving_bs=0, rx_antennas=streams, streams=streams, rate_weight=1.0)
        sc = IbcScenario(
            bs_antennas=[streams],
            users=[user],
            power_budgets=[budget],
            links=[[GapSpec(mean=np.zeros((streams, streams)), cov=np.eye(streams))]],
        )
        ps = uniform_power_precoders(sc)
        spent = sum(np.sum(np.abs(G) ** 2) for G in ps.matrices)
        assert spent == pytest.approx(budget, rel=1e-12)

    def test_overspend_of_a_tiny_budget_rejected(self):
        from ewsrgap.channel import check_precoders

        sc = _one_user_scenario(power_budget=1e-12)
        ps = PrecoderSet([np.sqrt(5e-10) * np.eye(2, 1)])  # 500 times the budget
        with pytest.raises(ValidationError, match="budget"):
            check_precoders(sc, ps)


def _one_user_scenario(bs_antennas=2, power_budget=1.0, seed=None, user=None):
    user = user or UserConfig(serving_bs=0, rx_antennas=1, streams=1, rate_weight=1.0)
    return IbcScenario(
        bs_antennas=[bs_antennas],
        users=[user],
        power_budgets=[power_budget],
        links=[[GapSpec(mean=np.zeros((1, 2)), cov=np.eye(2))]],
        seed=seed,
    )


class TestValuesCheckedWhenBuilt:
    # each is rejected when built, not later as a NaN surrogate, a bare
    # TypeError or an overflow warning
    @pytest.mark.parametrize(
        "build, field",
        [
            (lambda: UserConfig(0, 1, 1, float("nan")), "rate_weight"),
            (lambda: UserConfig(0, 1, 1, -0.5), "rate_weight"),
            (lambda: UserConfig(0, True, 1, 1.0), "rx_antennas"),
            (lambda: UserConfig(False, 1, 1, 1.0), "serving_bs"),
            (lambda: UserConfig(0, 1, 1.0, 1.0), "streams"),
            (lambda: UserConfig(0, 1, 0, 1.0), "streams"),
            (lambda: _one_user_scenario(bs_antennas=2.0), r"bs_antennas\[0\]"),
            (lambda: _one_user_scenario(power_budget=float("inf")), r"power_budgets\[0\]"),
            (lambda: _one_user_scenario(power_budget=0.0), r"power_budgets\[0\]"),
            (lambda: _one_user_scenario(seed=True), "seed"),
            (lambda: _one_user_scenario(seed=-1), "seed"),
            (lambda: GapSpec(mean=[[float("nan"), 0.0]], cov=np.eye(2)), "mean"),
            (lambda: GapSpec(mean=np.zeros((1, 2)), cov="eye"), "cov"),
            (lambda: PrecoderSet([[float("nan")], [0.0]]), r"precoders\[0\]"),
            (lambda: PrecoderSet([np.eye(2), None]), r"precoders\[1\]"),
        ],
        ids=["nan-weight", "negative-weight", "bool-rx", "bool-serving", "float-streams",
             "no-streams", "float-antennas", "inf-budget", "zero-budget", "bool-seed",
             "negative-seed", "nan-mean", "string-cov", "nan-precoder", "none-precoder"],
    )
    def test_rejected_naming_the_field(self, build, field):
        with pytest.raises(EwsrgapError, match=field):
            build()

    def test_values_normalised_to_plain_types(self):
        user = UserConfig(np.int64(0), np.int64(1), 1, np.float32(0.5))
        sc = _one_user_scenario(bs_antennas=np.int64(2), power_budget=3, seed=np.int64(4),
                                user=user)
        assert (user.serving_bs, user.rx_antennas, user.rate_weight) == (0, 1, 0.5)
        assert type(user.serving_bs) is int and type(user.rate_weight) is float
        assert sc.bs_antennas == [2] and type(sc.bs_antennas[0]) is int
        assert sc.power_budgets == [3.0] and type(sc.power_budgets[0]) is float
        assert sc.seed == 4 and type(sc.seed) is int


class TestUniformPrecoders:
    def test_budget_met_exactly(self, rng):
        sc = _two_user_one_cell(rng)
        ps = uniform_power_precoders(sc)
        spent = sum(np.sum(np.abs(G) ** 2) for G in ps.matrices)
        assert spent == pytest.approx(6.0, rel=1e-12)

    def test_scaled_identity_columns(self, rng):
        sc = _two_user_one_cell(rng)
        ps = uniform_power_precoders(sc)
        G = ps.matrices[0]
        alpha = np.sqrt(6.0 / 3.0)
        assert G == pytest.approx(alpha * np.eye(3, 2))


def _random_mean(rng, n, m):
    return rng.standard_normal((n, m)) + 1j * rng.standard_normal((n, m))


def _random_precoders(rng, sc):
    """Random beams with each cell spending exactly its budget."""
    mats = [_random_mean(rng, sc.bs_antennas[u.serving_bs], u.streams) for u in sc.users]
    for j, budget in enumerate(sc.power_budgets):
        served = [k for k, u in enumerate(sc.users) if u.serving_bs == j]
        spent = sum(np.sum(np.abs(mats[k]) ** 2) for k in served)
        for k in served:
            mats[k] *= np.sqrt(budget / spent)
    return PrecoderSet(mats)


def _two_cells(rng):
    """Cells with 3 and 2 antennas; users 0 and 2 on cell 0, user 1 on cell 1."""
    users = [
        UserConfig(serving_bs=0, rx_antennas=2, streams=1, rate_weight=1.0),
        UserConfig(serving_bs=1, rx_antennas=2, streams=2, rate_weight=0.5),
        UserConfig(serving_bs=0, rx_antennas=2, streams=1, rate_weight=2.0),
    ]
    links = [
        [
            GapSpec(mean=_random_mean(rng, 2, M), cov=_random_psd(rng, M))
            for M in (3, 2)
        ]
        for _ in users
    ]
    return IbcScenario(bs_antennas=[3, 2], users=users, power_budgets=[2.0, 3.0], links=links)


def _cell_precoders(sc, ps, j):
    """Cell j's precoders side by side, in user order."""
    return np.concatenate(
        [G for G, u in zip(ps.matrices, sc.users) if u.serving_bs == j], axis=1
    )


class TestExpectedGram:
    """E F F^H of a user's stream spec: the mean part plus tr(cov) I."""

    def test_zero_precoder(self, rng):
        sc = _two_user_one_cell(rng)
        ps = PrecoderSet([np.zeros((3, 2)), np.zeros((3, 1))])
        spec, _ = stream_spec(sc, ps, 0)
        assert np.array_equal(spec.expected_gram(), np.zeros((2, 2)))

    def test_zero_mean_identity_precoder(self, rng):
        C = _random_psd(rng, 4)
        sc = IbcScenario(
            bs_antennas=[4],
            users=[UserConfig(serving_bs=0, rx_antennas=4, streams=4, rate_weight=1.0)],
            power_budgets=[4.0],
            links=[[GapSpec(mean=np.zeros((4, 4)), cov=C)]],
        )
        spec, _ = stream_spec(sc, PrecoderSet([np.eye(4)]), 0)
        assert spec.expected_gram() == pytest.approx(np.trace(C).real * np.eye(4), rel=1e-12)

    def test_matches_monte_carlo(self, rng):
        # per-link draws of sum_j H_kj Q_j H_kj^H average to the spec's E F F^H
        sc = _two_cells(rng)
        ps = _random_precoders(rng, sc)
        n = 50_000
        for k in range(sc.n_users):
            grams = 0.0
            for j, link in enumerate(sc.links[k]):
                H = link_draws(link, rng, n)
                G = _cell_precoders(sc, ps, j)
                HG = H @ G
                grams = grams + HG @ np.conj(np.swapaxes(HG, 1, 2))
            emp = grams.mean(axis=0)
            target = stream_spec(sc, ps, k)[0].expected_gram()
            floor = 1e-12 * np.abs(target).max()
            se_re = grams.real.std(axis=0, ddof=1) / np.sqrt(n)
            se_im = grams.imag.std(axis=0, ddof=1) / np.sqrt(n)
            assert np.all(np.abs(emp.real - target.real) <= 4 * se_re + floor)
            assert np.all(np.abs(emp.imag - target.imag) <= 4 * se_im + floor)

    def test_rejects_wrong_q_shape(self, rng):
        # the transmit covariances come from the precoders, so their shape is checked
        sc = _two_user_one_cell(rng)
        with pytest.raises(ValidationError):
            stream_spec(sc, PrecoderSet([np.eye(3, 2), np.eye(2, 1)]), 0)


class TestStreamSpec:
    def test_single_user_single_cell(self, rng):
        users = [UserConfig(serving_bs=0, rx_antennas=2, streams=2, rate_weight=1.0)]
        mean = _random_mean(rng, 2, 3)
        C = _random_psd(rng, 3)
        sc = IbcScenario(
            bs_antennas=[3],
            users=users,
            power_budgets=[4.0],
            links=[[GapSpec(mean=mean, cov=C)]],
        )
        ps = uniform_power_precoders(sc)
        spec, own = stream_spec(sc, ps, 0)
        G = ps.matrices[0]
        assert own == slice(0, 2)
        assert np.array_equal(spec.mean, mean @ G)
        assert spec.cov == pytest.approx(G.conj().T @ C @ G, rel=1e-14)

    def test_one_cell_two_users(self, rng):
        # both users hang off cell 0, so one block [G_0 G_1] carries both
        # users' streams and its covariance couples them: one shared draw
        sc = _two_user_one_cell(rng)
        ps = _random_precoders(rng, sc)
        G = np.concatenate(ps.matrices, axis=1)
        for k, want_own in ((0, slice(0, 2)), (1, slice(2, 3))):
            spec, own = stream_spec(sc, ps, k)
            link = sc.links[k][0]
            assert own == want_own
            assert spec.mean.shape == (sc.users[k].rx_antennas, 3)
            assert spec.mean == pytest.approx(link.mean @ G, rel=1e-14)
            assert spec.cov == pytest.approx(G.conj().T @ link.cov @ G, rel=1e-14)
            assert np.abs(spec.cov[:2, 2:]).max() > 0.0

    def test_two_cells_block_diagonal(self, rng):
        # columns: cell 0's streams (users 0, 2), then cell 1's (user 1);
        # different cells draw independently, so cross-cell blocks are 0
        sc = _two_cells(rng)
        ps = _random_precoders(rng, sc)
        G0, G1 = _cell_precoders(sc, ps, 0), _cell_precoders(sc, ps, 1)
        owns = [slice(0, 1), slice(2, 4), slice(1, 2)]
        for k in range(sc.n_users):
            spec, own = stream_spec(sc, ps, k)
            l0, l1 = sc.links[k]
            assert own == owns[k]
            assert spec.mean.shape == (2, 4)
            assert spec.mean[:, :2] == pytest.approx(l0.mean @ G0, rel=1e-14)
            assert spec.mean[:, 2:] == pytest.approx(l1.mean @ G1, rel=1e-14)
            assert spec.cov[:2, :2] == pytest.approx(G0.conj().T @ l0.cov @ G0, rel=1e-14)
            assert spec.cov[2:, 2:] == pytest.approx(G1.conj().T @ l1.cov @ G1, rel=1e-14)
            assert np.array_equal(spec.cov[:2, 2:], np.zeros((2, 2)))
            assert np.array_equal(spec.cov[2:, :2], np.zeros((2, 2)))

    def test_idle_cell_has_no_columns(self, rng):
        sc = _two_cells(rng)
        sc.users[1].serving_bs = 0
        sc.users[1].streams = 1
        ps = _random_precoders(rng, sc)
        spec, own = stream_spec(sc, ps, 1)
        assert spec.mean.shape == (2, 3) and spec.cov.shape == (3, 3)
        assert own == slice(1, 2)

    def test_index_out_of_range(self, rng):
        sc = _two_user_one_cell(rng)
        ps = uniform_power_precoders(sc)
        with pytest.raises(IndexOutOfRange):
            stream_spec(sc, ps, 2)
        with pytest.raises(IndexOutOfRange):
            stream_spec(sc, ps, -1)

    @pytest.mark.parametrize("k", [True, False, 1.5, 1.0, "1", None])
    def test_index_must_be_an_integer(self, rng, k):
        # True used to be taken as user 1, and 1.5 ended in a bare TypeError
        sc = _two_user_one_cell(rng)
        ps = uniform_power_precoders(sc)
        with pytest.raises(DomainError, match="user index must be an integer, got"):
            stream_spec(sc, ps, k)
        assert stream_spec(sc, ps, np.int64(1))[1] == stream_spec(sc, ps, 1)[1]

    def test_expected_gram_matches_blockwise_formula(self, rng):
        sc = _two_cells(rng)
        ps = _random_precoders(rng, sc)
        for k in range(sc.n_users):
            manual = np.zeros((2, 2), dtype=complex)
            for j, link in enumerate(sc.links[k]):
                G = _cell_precoders(sc, ps, j)
                Q = G @ G.conj().T
                manual += link.mean @ Q @ link.mean.conj().T
                manual += np.trace(Q @ link.cov).real * np.eye(2)
            got = stream_spec(sc, ps, k)[0].expected_gram()
            assert got == pytest.approx(manual, rel=1e-12)

    def test_overflow_is_a_typed_error(self, rng):
        sc = _two_user_one_cell(rng)
        # finite entries whose precoded covariance G^H C G exceeds the float range
        sc.links[0][0] = GapSpec(mean=np.zeros((2, 3)), cov=1e308 * np.eye(3))
        with pytest.raises(DomainError, match="overflow"):
            stream_spec(sc, uniform_power_precoders(sc), 0)


MINIMAL_DOC = {
    "cells": [{"antennas": 2}],
    "users": [{"serving_bs": 0, "rx_antennas": 1, "streams": 1, "rate_weight": 1.0}],
    "power_budgets": [1.0],
    "links": [[{"mean": None, "cov_t": [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]]}]],
}


class TestScenarioJson:
    def test_minimal_document(self, tmp_path):
        p = tmp_path / "sc.json"
        p.write_text(json.dumps(MINIMAL_DOC))
        sc = load_scenario(p)
        assert sc.n_cells == 1 and sc.n_users == 1
        assert np.array_equal(sc.links[0][0].mean, np.zeros((1, 2)))
        assert np.array_equal(sc.links[0][0].cov, np.eye(2))
        assert sc.seed is None

    def test_streams_exceed_rx_from_file(self, tmp_path):
        doc = json.loads(json.dumps(MINIMAL_DOC))
        doc["users"][0]["streams"] = 2
        doc["users"][0]["rx_antennas"] = 1
        p = tmp_path / "bad.json"
        p.write_text(json.dumps(doc))
        with pytest.raises(ValidationError, match="streams exceed rx antennas"):
            load_scenario(p)

    def test_invalid_json_reports_line(self, tmp_path):
        p = tmp_path / "broken.json"
        p.write_text('{\n "cells": [\n}')
        with pytest.raises(ParseError) as exc:
            load_scenario(p)
        assert exc.value.line == 3

    def test_missing_key_reports_field(self, tmp_path):
        doc = json.loads(json.dumps(MINIMAL_DOC))
        del doc["power_budgets"]
        p = tmp_path / "nokey.json"
        p.write_text(json.dumps(doc))
        with pytest.raises(ParseError) as exc:
            load_scenario(p)
        assert exc.value.field == "power_budgets"

    def test_bad_matrix_entry_reports_field(self, tmp_path):
        doc = json.loads(json.dumps(MINIMAL_DOC))
        doc["links"][0][0]["cov_t"] = [[1.0, 0.0], [0.0, 1.0]]
        p = tmp_path / "badmat.json"
        p.write_text(json.dumps(doc))
        with pytest.raises(ParseError) as exc:
            load_scenario(p)
        assert "cov_t" in exc.value.field

    @pytest.mark.parametrize(
        "key, path, value, message",
        [
            ("cov_t", (0, 1, 0), True, "expected a finite number"),
            ("cov_t", (1, 1, 1), 10**400, "expected a finite number"),
            ("cov_t", (0, 0, 1), "0.0", "expected a finite number"),
            ("cov_t", (1,), [[1.0, 0.0]], "matrix rows have unequal lengths"),
            ("cov_t", (0, 0), [1.0, 0.0, 0.0], "matrix entries must be [re, im] pairs"),
            ("cov_t", (1, 0, 0), float("nan"), "expected a finite number"),
            ("mean", (0, 1, 0), True, "expected a finite number"),
        ],
    )
    def test_malformed_matrix_reports_field_and_message(self, tmp_path, key, path,
                                                        value, message):
        doc = json.loads(json.dumps(MINIMAL_DOC))
        link = doc["links"][0][0]
        link["mean"] = [[[0.5, 0.0], [0.0, 0.5]]]
        target = link[key]
        for i in path[:-1]:
            target = target[i]
        target[path[-1]] = value
        p = tmp_path / "badmat.json"
        p.write_text(json.dumps(doc))
        with pytest.raises(ParseError) as exc:
            load_bundle(p)
        field = f"links[0][0].{key}"
        assert exc.value.field == field
        assert str(exc.value) == f"{message} (field {field!r})"

    @pytest.mark.parametrize(
        "path, value, field",
        [
            (("cells", 0, "antennas"), True, "cells[0].antennas"),
            (("cells", 0, "antennas"), 2.0, "cells[0].antennas"),
            (("users", 0, "serving_bs"), True, "users[0].serving_bs"),
            (("users", 0, "rx_antennas"), True, "users[0].rx_antennas"),
            (("users", 0, "rx_antennas"), 0, "users[0].rx_antennas"),
            (("users", 0, "streams"), False, "users[0].streams"),
            (("seed",), True, "seed"),
            (("seed",), -1, "seed"),
            (("users", 0, "rate_weight"), float("nan"), "users[0].rate_weight"),
            (("users", 0, "rate_weight"), "1.0", "users[0].rate_weight"),
            (("power_budgets", 0), float("inf"), "power_budgets[0]"),
            (("power_budgets", 0), True, "power_budgets[0]"),
            (("power_budgets", 0), 10**400, "power_budgets[0]"),
            (("links", 0, 0, "cov_t", 0, 0, 0), float("nan"), "links[0][0].cov_t"),
            (("links", 0, 0, "cov_t", 1, 1, 1), float("-inf"), "links[0][0].cov_t"),
            (("links", 0, 0, "cov_t", 0, 0, 1), True, "links[0][0].cov_t"),
        ],
    )
    def test_integers_and_finite_numbers_checked_on_entry(self, tmp_path, path, value, field):
        doc = json.loads(json.dumps(MINIMAL_DOC))
        doc["seed"] = 3
        target = doc
        for key in path[:-1]:
            target = target[key]
        target[path[-1]] = value
        p = tmp_path / "bad.json"
        p.write_text(json.dumps(doc))
        with pytest.raises(ParseError) as exc:
            load_bundle(p)
        assert exc.value.field == field

    @pytest.mark.parametrize(
        "content, message",
        [
            (b'{"cells": "\xff"}', "not UTF-8"),
            (b"[" * 200_000 + b"]" * 200_000, "nested too deeply"),
            (b'{"cov_t": ' + b"[" * 200_000, "nested too deeply"),
        ],
        ids=["not-utf8", "deeply-nested", "deeply-nested-unclosed"],
    )
    @pytest.mark.parametrize("load", [load_bundle, load_cov_file])
    def test_unreadable_json_is_a_parse_error(self, tmp_path, load, content, message):
        # a ParseError, not a UnicodeDecodeError or RecursionError
        p = tmp_path / "bad.json"
        p.write_bytes(content)
        with pytest.raises(ParseError, match=message):
            load(p)

    def test_cov_file_entries_real_or_pairs(self, tmp_path):
        p = tmp_path / "cov.json"
        p.write_text(json.dumps({"cov_t": [[2, [0.5, -1.0]], [[0.5, 1.0], 1.0]]}))
        assert np.array_equal(load_cov_file(p), np.array([[2, 0.5 - 1j], [0.5 + 1j, 1]]))

    def test_huge_rx_antennas_rejected_before_allocation(self, tmp_path):
        # loaded, its first chunk would draw 4096 x 100000 x 100000 entries
        doc = json.loads(json.dumps(MINIMAL_DOC))
        doc["users"][0]["rx_antennas"] = 100_000
        p = tmp_path / "huge.json"
        p.write_text(json.dumps(doc))
        with pytest.raises(ValidationError, match=r"users\[0\]\.rx_antennas"):
            load_scenario(p)

    def test_round_trip(self, tmp_path, rng):
        sc = _two_user_one_cell(rng)
        sc.seed = 11
        ps = uniform_power_precoders(sc)
        p = tmp_path / "rt.json"
        save_scenario(sc, p, precoders=ps)
        sc2, ps2, seed = load_bundle(p)
        assert seed == 11
        assert sc2.bs_antennas == sc.bs_antennas
        assert sc2.power_budgets == sc.power_budgets
        assert [u.rate_weight for u in sc2.users] == [u.rate_weight for u in sc.users]
        for k in range(2):
            assert np.array_equal(sc2.links[k][0].mean, sc.links[k][0].mean)
            assert np.array_equal(sc2.links[k][0].cov, sc.links[k][0].cov)
            assert np.array_equal(ps2.matrices[k], ps.matrices[k])

    def test_zero_mean_saved_as_null(self, tmp_path):
        users = [UserConfig(serving_bs=0, rx_antennas=1, streams=1, rate_weight=1.0)]
        links = [[GapSpec(mean=np.zeros((1, 2)), cov=np.eye(2))]]
        sc = IbcScenario(bs_antennas=[2], users=users, power_budgets=[1.0], links=links)
        p = tmp_path / "zm.json"
        save_scenario(sc, p)
        doc = json.loads(p.read_text())
        assert doc["links"][0][0]["mean"] is None

    def test_demo_bundle(self):
        sc, ps, seed = load_demo_bundle()
        assert sc.n_cells == 2 and sc.n_users == 4
        assert ps is not None and len(ps.matrices) == 4
        assert seed == 7


class TestListArguments:
    """The list arguments of IbcScenario and PrecoderSet are checked when
    they are built, with a typed error that names the argument."""

    @staticmethod
    def args():
        return dict(
            bs_antennas=[2],
            users=[UserConfig(serving_bs=0, rx_antennas=1, streams=1, rate_weight=1.0)],
            power_budgets=[1.0],
            links=[[GapSpec(np.zeros((1, 2)), np.eye(2))]],
        )

    @pytest.mark.parametrize("name, value, message", [
        ("bs_antennas", 2, "bs_antennas must be a list"),
        ("power_budgets", 1.0, "power_budgets must be a list"),
        ("users", None, "users must be a list"),
        ("users", [{"serving_bs": 0}], r"users\[0\] must be a UserConfig"),
        ("links", None, "links must be a list"),
        ("links", [GapSpec(np.zeros((1, 2)), np.eye(2))], r"links\[0\] must be a list"),
        ("links", [[np.zeros((1, 2))]], r"links\[0\]\[0\] must be a GapSpec"),
    ])
    def test_scenario_rejects(self, name, value, message):
        args = self.args()
        args[name] = value
        with pytest.raises(DomainError, match=message):
            IbcScenario(**args)

    def test_tuples_are_taken_as_lists(self):
        args = {name: tuple(value) for name, value in self.args().items()}
        sc = IbcScenario(**args)
        assert all(type(getattr(sc, name)) is list for name in args)
        assert type(PrecoderSet((np.ones((2, 1)),)).matrices) is list

    @pytest.mark.parametrize("value", [None, np.ones((1, 2, 1)), 3])
    def test_precoders_reject_a_non_list(self, value):
        with pytest.raises(DomainError, match="precoders must be a list"):
            PrecoderSet(value)
