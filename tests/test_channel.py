import json

import numpy as np
import pytest

from ewsrgap.channel import (
    IbcScenario,
    PrecoderSet,
    UserConfig,
    exp_profile_cov,
    load_bundle,
    load_demo_bundle,
    load_scenario,
    sample_channel,
    save_scenario,
    stream_spec,
    uniform_power_precoders,
)
from ewsrgap.errors import (
    DimensionMismatch,
    DomainError,
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


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


class TestChannelDistribution:
    """Links are GapSpec instances sampled by sample_channel."""

    def test_zero_cov_samples_equal_mean(self, rng):
        mean = rng.standard_normal((2, 3)) + 1j * rng.standard_normal((2, 3))
        spec = GapSpec(mean=mean, cov=np.zeros((3, 3)))
        for _ in range(5):
            assert np.array_equal(sample_channel(spec, rng), mean)

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
        W = np.stack([sample_channel(spec, rng) - mean for _ in range(n)])
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
        W = np.stack([sample_channel(spec, rng) for _ in range(n)])
        inner = np.einsum("sji,sjk->sik", W.conj(), W)
        emp = inner.mean(axis=0)
        target = 2 * C
        floor = 1e-12 * np.abs(target).max()
        se_re = inner.real.std(axis=0, ddof=1) / np.sqrt(n)
        se_im = inner.imag.std(axis=0, ddof=1) / np.sqrt(n)
        assert np.all(np.abs(emp.real - target.real) <= 3 * se_re + floor)
        assert np.all(np.abs(emp.imag - target.imag) <= 3 * se_im + floor)


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
                H = link.mean + complex_normal(rng, (n, 2, sc.bs_antennas[j])) @ link.cov_sqrt
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
