"""The three benchmark workloads.

Each workload is a closed loop with one caller: `call` returns only
when the program has finished, and the next call starts after it.
`write_inputs` runs the seeded generator, `load` is the part of set-up
the program does (it is what the set-up probe times), `call` is one
measured call, and `checks` judges the output of a call.
"""

from __future__ import annotations

import csv
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

import inputs
import reference

Z = 5.0  # standard errors allowed by the statistical output checks
# Samples per Monte-Carlo estimate: two chunks of ewsrgap.mc.CHUNK_SIZE
# (4096), so a second worker has work.
SAMPLES = 8192
# Samples of the independent ewsr-multicell reference estimate.
REFERENCE_SAMPLES = 32768


@dataclass
class Output:
    """What one call produced.

    key must be identical across worker counts and with tracing on or
    off: the program promises bit-identical estimates and CSV data rows.
    """

    key: tuple
    detail: object


def _data_rows(path: Path) -> str:
    """CSV text without the metadata line, whose timestamp varies."""
    if not path.exists():
        return ""
    return path.read_text(encoding="utf-8").split("\n", 1)[-1]


def _records(rows: str) -> list:
    return list(csv.DictReader(rows.splitlines()))


class EwsrMulticell:
    """Library ewsr_monte_carlo on 3 cells x 4 users, M=8, N=2, 1 stream."""

    name = "ewsr-multicell"

    def _path(self, workdir: Path) -> Path:
        return workdir / "ewsr_multicell.json"

    def write_inputs(self, seed: int, workdir: Path) -> int:
        return inputs.write_doc(inputs.multicell_doc(seed), self._path(workdir))

    def load(self, seed: int, workdir: Path):
        import ewsrgap

        scenario, _, _ = ewsrgap.channel.load_bundle(self._path(workdir))
        return scenario, ewsrgap.uniform_power_precoders(scenario), seed

    def call(self, loaded, workers: int, workdir: Path) -> Output:
        import ewsrgap

        scenario, precoders, seed = loaded
        est = ewsrgap.ewsr_monte_carlo(scenario, precoders, SAMPLES, seed, workers=workers)
        return Output((est.value.hex(), est.std_error.hex()), est)

    def samples_per_call(self, out: Output) -> int:
        return out.detail.n_samples

    def methods(self, out: Output) -> dict:
        return {}

    def checks(self, seed: int, out: Output) -> list:
        est = out.detail
        ref, ref_se = reference.ewsr_reference(
            inputs.multicell_doc(seed), REFERENCE_SAMPLES, seed
        )
        result = [
            (
                "ewsr vs independent per-link estimate",
                abs(est.value - ref) <= Z * (est.std_error**2 + ref_se**2) ** 0.5,
            )
        ]
        committed = reference.committed_reference(seed, SAMPLES)
        if committed is not None:
            value, se = committed
            result.append(
                (
                    "ewsr vs committed seed-commit value",
                    abs(est.value - value) <= Z * (est.std_error**2 + se**2) ** 0.5,
                )
            )
        return result


class GapSweep:
    """cli fig1 (i.i.d. MISO, exact-oracle column) then cli fig2 (correlated MIMO)."""

    name = "gap-sweep"

    def write_inputs(self, seed: int, workdir: Path) -> int:
        return 0  # the inputs are command lines

    def load(self, seed: int, workdir: Path):
        common = ["--samples", str(SAMPLES), "--seed", str(seed)]
        fig1 = ["fig1", "--tx-antennas", "1,4,16,64", "--snr-db=-10:60:5", *common]
        fig2 = ["fig2", "--tx-antennas", "64,128,256", "--rx-antennas", "4",
                "--rho", "1000", *common]
        return fig1, fig2

    def call(self, loaded, workers: int, workdir: Path) -> Output:
        import ewsrgap.cli

        codes, rows = [], []
        for argv, path in zip(loaded, (workdir / "fig1.csv", workdir / "fig2.csv")):
            path.unlink(missing_ok=True)
            codes.append(
                ewsrgap.cli.main([*argv, "--workers", str(workers), "--out", str(path)])
            )
            rows.append(_data_rows(path))
        return Output((*codes, *rows), (codes, [_records(r) for r in rows]))

    def samples_per_call(self, out: Output) -> int:
        fig1, fig2 = out.detail[1]
        per_m = {r["m"]: int(r["n_samples"]) for r in fig1}
        return sum(per_m.values()) + sum(int(r["n_samples"]) for r in fig2)

    def methods(self, out: Output) -> dict:
        return {}

    def checks(self, seed: int, out: Output) -> list:
        codes, (fig1, fig2) = out.detail
        result = [("fig1 exit code 0", codes[0] == 0), ("fig2 exit code 0", codes[1] == 0)]
        for r in fig1:
            mc, se = float(r["gap_mc"]), float(r["std_error"])
            where = f"M={r['m']} snr={r['snr_db']}dB"
            result.append(
                (f"fig1 {where} |mc - exact| <= 5 se",
                 abs(mc - float(r["gap_exact"])) <= Z * se)
            )
            result.append(
                (f"fig1 {where} mc <= limit + 5 se", mc <= float(r["gap_limit"]) + Z * se)
            )
        for r in fig2:
            result.append(
                (f"fig2 M={r['m']} gamma_mc >= -5 se (Jensen)",
                 float(r["gamma_mc"]) >= -Z * float(r["std_error"]))
            )
        return result


class SandwichMassive:
    """cli sandwich on one 64-antenna cell with 4 Rician users, N=2, 1 stream."""

    name = "sandwich-massive"

    def _path(self, workdir: Path) -> Path:
        return workdir / "sandwich_massive.json"

    def write_inputs(self, seed: int, workdir: Path) -> int:
        return inputs.write_doc(inputs.massive_doc(seed), self._path(workdir))

    def load(self, seed: int, workdir: Path):
        import ewsrgap

        ewsrgap.channel.load_bundle(self._path(workdir))
        return ["sandwich", "--scenario", str(self._path(workdir)),
                "--samples", str(SAMPLES), "--seed", str(seed)]

    def call(self, loaded, workers: int, workdir: Path) -> Output:
        import ewsrgap.cli

        path = workdir / "sandwich.csv"
        path.unlink(missing_ok=True)
        code = ewsrgap.cli.main([*loaded, "--workers", str(workers), "--out", str(path)])
        rows = _data_rows(path)
        return Output((code, rows), (code, _records(rows)))

    def samples_per_call(self, out: Output) -> int:
        """The EWSR estimate plus both high-SNR gap limits of each user so tagged."""
        records = out.detail[1]
        n = int(records[0]["n_samples"]) if records else 0
        mc_users = sum(r["method"] == "monte-carlo-high-snr" for r in records)
        return n * (1 + 2 * mc_users)

    def methods(self, out: Output) -> dict:
        """Users per gap-limit method, from the CSV method column."""
        return Counter(r["method"] for r in out.detail[1])

    def checks(self, seed: int, out: Output) -> list:
        code, records = out.detail
        return [("sandwich exit code 0", code == 0)] + [
            (f"sandwich user {r['user']} contained", r["contained"] == "true")
            for r in records
        ]


WORKLOADS = {w.name: w for w in (EwsrMulticell(), GapSweep(), SandwichMassive())}
