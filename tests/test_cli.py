import contextlib
import copy
import io
import json
import subprocess
import sys
import tempfile
import warnings
from importlib import resources
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ewsrgap.channel import (
    IbcScenario,
    UserConfig,
    load_bundle,
    save_scenario,
)
from ewsrgap.cli import main
from ewsrgap.errors import EwsrgapError
from ewsrgap.gap import GapSpec, gamma_inf_miso_iid

LN2 = float(np.log(2.0))


def read_csv(path):
    """(metadata dict, header list, rows as list of string lists)."""
    lines = path.read_text(encoding="utf-8").splitlines()
    assert lines[0].startswith("#")
    meta = json.loads(lines[0][1:])
    header = lines[1].split(",")
    rows = [ln.split(",") for ln in lines[2:] if ln]
    return meta, header, rows


def data_text(path):
    """File content with the metadata line stripped."""
    lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
    return "".join(lines[1:])


FIG1_FAST = ["fig1", "--samples", "2000", "--snr-db=-10:50:10",
             "--tx-antennas", "1,2"]


class TestFig1:
    def test_schema_and_values(self, tmp_path):
        out = tmp_path / "fig1.csv"
        assert main(FIG1_FAST + ["--seed", "3", "--out", str(out)]) == 0
        meta, header, rows = read_csv(out)
        assert meta["tool"] == "ewsrgap" and meta["command"] == "fig1"
        assert meta["units"] == "nats" and meta["seed"] == 3
        assert meta["n_samples"] == 2000
        assert meta["params"]["tx_antennas"] == [1, 2]
        assert header == ["m", "snr_db", "rho", "gap_exact", "gap_mc",
                          "std_error", "n_samples", "gap_limit"]
        assert len(rows) == 2 * 7
        for row in rows:
            m = int(row[0])
            rho = float(row[2])
            assert rho == pytest.approx(10.0 ** (float(row[1]) / 10.0), rel=1e-12)
            assert 0.0 <= float(row[3]) <= float(row[7]) + 1e-12
            # gap_limit round-trips the closed form exactly (%.17g)
            assert float(row[7]) == gamma_inf_miso_iid(m)
            assert int(row[6]) == 2000

    def test_exact_column_monotone_per_antenna_count(self, tmp_path):
        out = tmp_path / "fig1.csv"
        main(FIG1_FAST + ["--out", str(out)])
        _, _, rows = read_csv(out)
        for m in ("1", "2"):
            vals = [float(r[3]) for r in rows if r[0] == m]
            assert np.all(np.diff(vals) > 0)

    def test_mc_tracks_exact(self, tmp_path):
        out = tmp_path / "fig1.csv"
        main(FIG1_FAST + ["--samples", "20000", "--out", str(out)])
        _, _, rows = read_csv(out)
        for r in rows:
            exact, mc, se = float(r[3]), float(r[4]), float(r[5])
            assert mc == pytest.approx(exact, abs=max(4 * se, 1e-9))

    def test_bits_flag_rescales(self, tmp_path):
        a, b = tmp_path / "nats.csv", tmp_path / "bits.csv"
        main(FIG1_FAST + ["--out", str(a)])
        main(FIG1_FAST + ["--bits", "--out", str(b)])
        ma, _, ra = read_csv(a)
        mb, _, rb = read_csv(b)
        assert ma["units"] == "nats" and mb["units"] == "bits"
        for x, y in zip(ra, rb):
            for col in (3, 4, 5, 7):
                assert float(y[col]) == pytest.approx(float(x[col]) / LN2, rel=1e-15)
            assert x[6] == y[6]

    def test_rerun_byte_identical_after_metadata(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        main(FIG1_FAST + ["--out", str(a)])
        main(FIG1_FAST + ["--out", str(b)])
        assert data_text(a) == data_text(b)

    def test_workers_byte_identical(self, tmp_path):
        a, b = tmp_path / "w1.csv", tmp_path / "w4.csv"
        main(FIG1_FAST + ["--out", str(a), "--workers", "1"])
        main(FIG1_FAST + ["--out", str(b), "--workers", "4"])
        assert data_text(a) == data_text(b)

    def test_stdout_default(self, capsys):
        assert main(["fig1", "--samples", "500", "--snr-db", "0",
                     "--tx-antennas", "1"]) == 0
        outerr = capsys.readouterr()
        lines = outerr.out.splitlines()
        assert lines[0].startswith("#") and lines[1].startswith("m,")
        assert len(lines) == 3


class TestFig2:
    FAST = ["fig2", "--samples", "2000", "--tx-antennas", "4,8", "--rx-antennas", "2"]

    def test_schema(self, tmp_path):
        out = tmp_path / "fig2.csv"
        assert main(self.FAST + ["--out", str(out)]) == 0
        meta, header, rows = read_csv(out)
        assert header == ["m", "n_rx", "rho", "gamma_mc", "std_error",
                          "n_samples", "gamma_taylor", "rel_error"]
        assert [r[0] for r in rows] == ["4", "8"]
        assert all(r[1] == "2" for r in rows)
        assert meta["params"]["cov"] == "exp-profile r=0.5"
        for r in rows:
            assert float(r[6]) > 0 and float(r[7]) >= 0

    def test_cov_file(self, tmp_path):
        cov_path = tmp_path / "cov.json"
        cov_path.write_text(json.dumps({"cov_t": [[2.0, 0.5], [0.5, 1.0]]}))
        out = tmp_path / "fig2.csv"
        code = main(["fig2", "--samples", "2000", "--tx-antennas", "2",
                     "--cov", str(cov_path), "--out", str(out)])
        assert code == 0
        meta, _, rows = read_csv(out)
        assert meta["params"]["cov"] == str(cov_path)
        assert len(rows) == 1

    def test_cov_dimension_mismatch_is_usage_error(self, tmp_path, capsys):
        cov_path = tmp_path / "cov.json"
        cov_path.write_text(json.dumps([[1.0, 0.0], [0.0, 1.0]]))
        code = main(["fig2", "--samples", "2000", "--tx-antennas", "3",
                     "--cov", str(cov_path)])
        assert code == 2
        assert "error:" in capsys.readouterr().err

    def test_bad_cov_json_is_usage_error(self, tmp_path, capsys):
        cov_path = tmp_path / "cov.json"
        cov_path.write_text("{nope")
        assert main(["fig2", "--cov", str(cov_path)]) == 2
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "cov",
        [
            [[1.0, 0.5], [0.0, 1.0]],  # not Hermitian
            [[1.0, 2.0], [2.0, 1.0]],  # indefinite
            [[1.0, float("nan")], [float("nan"), 1.0]],
            [[1.0, [0.0, float("inf")]], [0.0, 1.0]],
            [[True, 0.0], [0.0, 1.0]],
        ],
    )
    def test_invalid_cov_is_one_line_usage_error(self, tmp_path, capsys, cov):
        cov_path = tmp_path / "cov.json"
        cov_path.write_text(json.dumps(cov))
        out = tmp_path / "fig2.csv"
        code = main(["fig2", "--samples", "200", "--tx-antennas", "2",
                     "--cov", str(cov_path), "--out", str(out)])
        err = capsys.readouterr().err
        assert code == 2 and not out.exists()
        assert err.startswith("error:") and err.count("\n") == 1

    @pytest.mark.parametrize("n_rx, m", [("100000", "64"), ("1", "30000")])
    def test_oversized_shape_is_one_line_usage_error(self, tmp_path, capsys, monkeypatch,
                                                     n_rx, m):
        def no_alloc(*args, **kwargs):
            raise AssertionError("a covariance or a Monte-Carlo draw was allocated")

        monkeypatch.setattr("ewsrgap.gap.complex_normal", no_alloc)
        monkeypatch.setattr("ewsrgap.cli.exp_profile_cov", no_alloc)
        out = tmp_path / "fig2.csv"
        code = main(["fig2", "--rx-antennas", n_rx, "--tx-antennas", m,
                     "--out", str(out)])
        err = capsys.readouterr().err
        assert code == 2 and not out.exists()
        assert err.startswith("error:") and err.count("\n") == 1


class TestSandwich:
    def test_bundled_demo_contained(self, tmp_path):
        out = tmp_path / "sw.csv"
        code = main(["sandwich", "--samples", "4000", "--out", str(out)])
        assert code == 0
        meta, header, rows = read_csv(out)
        assert meta["seed"] == 7  # stored in the bundled scenario
        assert meta["params"]["scenario"] == "bundled-demo"
        assert header[:5] == ["user", "weight", "gamma_signal",
                              "gamma_interference", "method"]
        assert len(rows) == 4
        for r in rows:
            assert r[4] in ("closed-form", "taylor", "monte-carlo-high-snr")
            assert r[11] == "true"
            lower, upper = float(r[9]), float(r[10])
            assert lower <= float(r[6]) <= upper
            assert lower <= float(r[5]) <= upper

    def test_deterministic_scenario_collapses(self, tmp_path):
        rng = np.random.default_rng(0)
        users = [UserConfig(serving_bs=0, rx_antennas=1, streams=1, rate_weight=1.0)]
        mean = rng.standard_normal((1, 2)) + 1j * rng.standard_normal((1, 2))
        sc = IbcScenario(
            bs_antennas=[2],
            users=users,
            power_budgets=[2.0],
            links=[[GapSpec(mean=mean, cov=np.zeros((2, 2)))]],
        )
        path = tmp_path / "det.json"
        save_scenario(sc, path)
        out = tmp_path / "sw.csv"
        code = main(["sandwich", "--scenario", str(path), "--samples", "100",
                     "--out", str(out)])
        assert code == 0
        _, _, rows = read_csv(out)
        r = rows[0]
        assert float(r[9]) == float(r[5]) == float(r[10])  # lower = esei = upper
        assert float(r[6]) == float(r[5])  # ewsr exact
        assert float(r[7]) == 0.0

    def test_seed_flag_overrides_stored_seed(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        main(["sandwich", "--samples", "2000", "--seed", "99", "--out", str(a)])
        main(["sandwich", "--samples", "2000", "--seed", "100", "--out", str(b)])
        ma, _, ra = read_csv(a)
        mb, _, rb = read_csv(b)
        assert ma["seed"] == 99 and mb["seed"] == 100
        assert ra[0][6] != rb[0][6]

    def test_workers_byte_identical(self, tmp_path):
        a, b = tmp_path / "w1.csv", tmp_path / "w3.csv"
        main(["sandwich", "--samples", "3000", "--out", str(a), "--workers", "1"])
        main(["sandwich", "--samples", "3000", "--out", str(b), "--workers", "3"])
        assert data_text(a) == data_text(b)

    def test_missing_scenario_file(self, tmp_path, capsys):
        assert main(["sandwich", "--scenario", str(tmp_path / "nope.json")]) == 2
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("site, value", [
        (("users", 0, "rate_weight"), 1e308),
        (("links", 0, 0, "cov_t", 0, 0), [1e308, 0.0]),
    ])
    def test_overflow_fails_typed_without_warnings(self, tmp_path, capsys, site, value):
        doc = copy.deepcopy(DEMO)
        _mutate(doc, site, value)
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(["sandwich", "--scenario", str(path), "--samples", "8192",
                         "--workers", "2", "--out", str(tmp_path / "sw.csv")])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error:") and "overflow" in err and err.count("\n") == 1


    def test_taylor_fallback_overflow_fails_typed_without_warnings(self, tmp_path, capsys):
        # a 2-antenna user with one stream has no closed form, so auto
        # falls back to the second-order limit, whose tr(C^2) overflows
        users = [UserConfig(serving_bs=0, rx_antennas=2, streams=1, rate_weight=1.0)]
        sc = IbcScenario(
            bs_antennas=[3],
            users=users,
            power_budgets=[1.0],
            links=[[GapSpec(mean=np.zeros((2, 3)), cov=1e306 * np.eye(3))]],
        )
        path = tmp_path / "huge.json"
        save_scenario(sc, path)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(["sandwich", "--scenario", str(path), "--uniform-precoders",
                         "--samples", "100", "--out", str(tmp_path / "sw.csv")])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error:") and "overflow" in err and err.count("\n") == 1

    @pytest.mark.parametrize("mean, cov, method", [
        # rho = 1e6 times the covariance overflows the surrogate term of
        # the Monte-Carlo gap limit before any sample is drawn
        (0.0, 1e306, "monte-carlo-high-snr"),
        # mean mean^H overflows the expected Gram of the ESEI
        (1e200, 1.0, "auto"),
    ])
    def test_huge_link_fails_typed_without_warnings(self, tmp_path, capsys, mean, cov,
                                                    method):
        users = [UserConfig(serving_bs=0, rx_antennas=2, streams=1, rate_weight=1.0)]
        sc = IbcScenario(
            bs_antennas=[3],
            users=users,
            power_budgets=[1.0],
            links=[[GapSpec(mean=np.full((2, 3), mean), cov=cov * np.eye(3))]],
        )
        path = tmp_path / "huge.json"
        save_scenario(sc, path)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(["sandwich", "--scenario", str(path), "--uniform-precoders",
                         "--method", method, "--samples", "100",
                         "--out", str(tmp_path / "sw.csv")])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error:") and "overflow" in err and err.count("\n") == 1


class TestVerify:
    def test_table_and_csv(self, tmp_path, capsys):
        out = tmp_path / "verify.csv"
        code = main(["verify", "oracles", "--scale", "0.05", "--out", str(out)])
        text = capsys.readouterr().out
        assert code == 0
        lines = text.splitlines()
        assert all(ln.startswith(("PASS", "FAIL")) for ln in lines[:-1])
        assert lines[-1].endswith("checks passed")
        meta, header, rows = read_csv(out)
        assert header == ["suite", "check", "passed", "slack", "detail"]
        assert len(rows) == len(lines) - 1
        assert all(r[2] == "true" for r in rows)
        assert meta["params"]["suite"] == "oracles"

    def test_unknown_suite_is_usage_error(self, capsys):
        assert main(["verify", "nonsense"]) == 2
        capsys.readouterr()


class TestUsageErrors:
    def test_unknown_command(self, capsys):
        assert main(["frobnicate"]) == 2
        capsys.readouterr()

    def test_bad_grid(self, capsys):
        assert main(["fig1", "--snr-db", "1:2"]) == 2
        capsys.readouterr()

    def test_bad_antenna_list(self, capsys):
        assert main(["fig1", "--tx-antennas", "2,zero"]) == 2
        capsys.readouterr()

    @pytest.mark.parametrize("command", ["fig1", "fig2", "sandwich", "verify"])
    @pytest.mark.parametrize("workers", ["0", "-3"])
    def test_workers_below_one_rejected(self, capsys, command, workers):
        argv = [command, "all"] if command == "verify" else [command]
        assert main(argv + ["--workers", workers]) == 2
        assert "--workers" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv",
        [
            ["fig1", "--seed", "-1"],
            ["sandwich", "--seed", "-4"],
            ["fig2", "--rx-antennas", "0"],
            ["fig2", "--rho", "nan"],
            ["fig1", "--snr-db", "inf"],
            ["verify", "all", "--scale", "nan"],
        ],
    )
    def test_out_of_range_arguments_rejected(self, capsys, argv):
        assert main(argv) == 2
        assert "error:" in capsys.readouterr().err

    def test_version_exits_cleanly(self, capsys):
        assert main(["--version"]) == 0
        assert "ewsrgap" in capsys.readouterr().out


def test_console_script_installed():
    proc = subprocess.run(
        [sys.executable, "-m", "ewsrgap.cli", "--version"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert "ewsrgap" in proc.stdout


DEMO = json.loads(
    (resources.files("ewsrgap") / "data" / "demo_scenario.json").read_text(encoding="utf-8")
)


def _sites(doc, path=()):
    """Paths to every key of the document and to the first and the last
    item of every list in it."""
    if isinstance(doc, dict):
        items = doc.items()
    elif isinstance(doc, list):
        items = [(i, doc[i]) for i in sorted({0, len(doc) - 1})] if doc else []
    else:
        items = []
    for key, value in items:
        yield path + (key,)
        yield from _sites(value, path + (key,))


DELETE = object()
# 10**5 antennas are rejected where they enter; an rx_antennas in the
# low hundreds would load and make every chunk form gigabytes of Grams.
NASTY = [None, True, False, 0, -1, 1, 3, 10**5, 2.5, -0.5, 1e-300, 1e308, -1e308,
         10**400, float("nan"), float("inf"), float("-inf"), "1", [], {}, [[]],
         [0.0, 0.0], [[[1.0, 0.0]]], DELETE]


def _mutate(doc, path, value):
    """Replace (or delete) the value at path; a path an earlier mutation
    removed is skipped."""
    parent = doc
    for key in path[:-1]:
        try:
            parent = parent[key]
        except (KeyError, IndexError, TypeError):
            return
    key = path[-1]
    if isinstance(parent, dict):
        present = key in parent or value is not DELETE
    else:
        present = isinstance(parent, list) and isinstance(key, int) and key < len(parent)
    if present:
        if value is DELETE:
            del parent[key]
        else:
            parent[key] = copy.deepcopy(value)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    st.lists(
        st.tuples(st.sampled_from(list(_sites(DEMO))), st.sampled_from(NASTY)),
        min_size=1,
        max_size=3,
    )
)
def test_mutated_demo_loads_or_fails_typed(mutations):
    # every mutated document either loads or raises a typed error, and
    # the sandwich command ends with an exit code, never a traceback
    doc = copy.deepcopy(DEMO)
    for path, value in mutations:
        _mutate(doc, path, value)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "scenario.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        with contextlib.suppress(EwsrgapError):
            load_bundle(path)
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code = main(["sandwich", "--scenario", str(path), "--samples", "64",
                         "--out", str(Path(tmp) / "out.csv")])
    assert code in (0, 1, 2)
    if code == 2:
        assert err.getvalue().startswith("error:") and err.getvalue().count("\n") == 1
