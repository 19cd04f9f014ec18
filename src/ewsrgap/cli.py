"""Command-line front end: gap sweeps, bound checks, batch verification.

Four subcommands write plot-ready CSV (a `#`-prefixed JSON metadata
line, a header, then data rows):

  fig1      exact and Monte-Carlo gap vs SNR for i.i.d. MISO, one
            curve per transmit antenna count, with the infinite-SNR
            closed-form value as a horizontal reference column
  fig2      second-order gap approximation vs Monte-Carlo truth for
            zero-mean correlated MIMO across antenna counts
  sandwich  surrogate +/- gap-limit bounds and a Monte-Carlo estimate
            for a multi-cell scenario (bundled demo by default)
  verify    batch property suites with pass/fail and measured slack

Values are in nats unless --bits is given. Rerunning any command with
the same arguments and seed reproduces the data rows byte for byte
regardless of --workers; only the metadata timestamp changes.
Exit codes: 0 ok, 1 property failure, 2 usage or input error.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import sys
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from . import __version__
from .channel import (
    _decode_matrix,
    exp_profile_cov,
    load_bundle,
    load_demo_bundle,
    uniform_power_precoders,
)
from .errors import EwsrgapError, ParseError, UnsupportedCase, ValidationError
from .gap import (
    GapSpec,
    check_spec_size,
    gamma_inf_miso_iid,
    gamma_rho,
    monotonicity_sweep,
    taylor_gamma2,
)
from .oracle import exact_e_log_miso_iid
from .rates import GAP_METHODS, ewsr_monte_carlo, sandwich_bounds
from .verify import run_suite

_LN2 = float(np.log(2.0))


def _parse_int_list(text: str):
    try:
        values = [int(t) for t in text.split(",") if t.strip()]
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected comma-separated integers, got {text!r}")
    if not values or any(v < 1 for v in values):
        raise argparse.ArgumentTypeError("antenna counts must be positive integers")
    return values


def _at_least(kind, low):
    """argparse type: a finite `kind` (int or float) no smaller than `low`."""

    def parse(text: str):
        try:
            value = kind(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"expected {kind.__name__}, got {text!r}")
        if not low <= value < math.inf:  # also false for NaN
            raise argparse.ArgumentTypeError(f"must be finite and >= {low}, got {text}")
        return value

    return parse


def _parse_grid(text: str) -> np.ndarray:
    """Either 'start:stop:step' (inclusive of stop) or a comma list."""
    try:
        if ":" in text:
            parts = [float(t) for t in text.split(":")]
            if len(parts) != 3 or parts[2] <= 0:
                raise ValueError
            start, stop, step = parts
            grid = np.arange(start, stop + step / 2, step)
        else:
            grid = np.array([float(t) for t in text.split(",") if t.strip()])
        if not np.isfinite(grid).all():
            raise ValueError
        return grid
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected 'start:stop:step' or comma-separated numbers, got {text!r}"
        )


def _load_cov_file(path) -> np.ndarray:
    """A covariance matrix from JSON: a nested list whose entries are
    real numbers or [re, im] pairs, optionally under a 'cov_t' key."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ParseError(f"invalid JSON: {exc.msg}", line=exc.lineno) from exc
    if isinstance(doc, dict):
        doc = doc.get("cov_t", doc.get("cov"))
    if not isinstance(doc, list) or not doc:
        raise ParseError("covariance file must hold a matrix", field="cov_t")
    if not all(isinstance(row, list) and len(row) == len(doc) for row in doc):
        raise ParseError("covariance matrix must be square", field="cov_t")
    # Real entries become [re, 0] pairs for the scenario decoder.
    return _decode_matrix(
        [[e if isinstance(e, list) else [e, 0.0] for e in row] for row in doc], "cov_t"
    )


def _fmt(v) -> str:
    if isinstance(v, (bool, np.bool_)):
        return "true" if v else "false"
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    if isinstance(v, (float, np.floating)):
        return format(float(v), ".17g")
    return str(v)


def _metadata(command: str, seed, n_samples, units: str, params: dict) -> dict:
    return {
        "tool": "ewsrgap",
        "version": __version__,
        "command": command,
        "seed": seed,
        "n_samples": n_samples,
        "units": units,
        "timestamp": datetime.now(timezone.utc).isoformat(timespec="seconds"),
        "params": params,
    }


def _emit(out_path, meta: dict, header, rows) -> None:
    buf = io.StringIO()
    buf.write("#" + json.dumps(meta, sort_keys=True) + "\n")
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow([_fmt(v) for v in row])
    if out_path:
        Path(out_path).write_text(buf.getvalue(), encoding="utf-8")
    else:
        sys.stdout.write(buf.getvalue())


def cmd_fig1(args) -> int:
    scale = 1.0 / _LN2 if args.bits else 1.0
    snr_db = np.asarray(args.snr_db, dtype=float)
    rho_grid = 10.0 ** (snr_db / 10.0)
    rows = []
    for M in args.tx_antennas:
        spec = GapSpec(np.zeros((1, M)), np.eye(M))
        sweep = monotonicity_sweep(
            spec, rho_grid, args.samples, args.seed, workers=args.workers
        )
        limit = gamma_inf_miso_iid(M)
        for s, rho, est in zip(snr_db, rho_grid, sweep):
            exact = np.log1p(rho * M) - exact_e_log_miso_iid(M, rho)
            rows.append(
                [
                    M,
                    s,
                    rho,
                    scale * exact,
                    scale * est.value,
                    scale * est.std_error,
                    est.n_samples,
                    scale * limit,
                ]
            )
    meta = _metadata(
        "fig1",
        args.seed,
        args.samples,
        "bits" if args.bits else "nats",
        {
            "snr_db": [float(s) for s in snr_db],
            "tx_antennas": list(args.tx_antennas),
            "workers": args.workers,
        },
    )
    header = ["m", "snr_db", "rho", "gap_exact", "gap_mc", "std_error", "n_samples", "gap_limit"]
    _emit(args.out, meta, header, rows)
    return 0


def cmd_fig2(args) -> int:
    scale = 1.0 / _LN2 if args.bits else 1.0
    for M in args.tx_antennas:  # before any covariance, mean or draw is allocated
        check_spec_size(args.rx_antennas, M)
    cov = _load_cov_file(args.cov) if args.cov else None
    rows = []
    for M in args.tx_antennas:
        C = cov if cov is not None else exp_profile_cov(M)
        if C.shape[0] != M:
            raise ValidationError(
                f"covariance is {C.shape[0]} x {C.shape[0]} but --tx-antennas asks for {M}"
            )
        spec = GapSpec(np.zeros((args.rx_antennas, M)), C)
        est = gamma_rho(spec, args.rho, args.samples, args.seed, workers=args.workers)
        g2 = taylor_gamma2(spec, args.rho)
        rel = abs(g2 - est.value) / abs(est.value) if est.value != 0.0 else np.inf
        rows.append(
            [
                M,
                args.rx_antennas,
                args.rho,
                scale * est.value,
                scale * est.std_error,
                est.n_samples,
                scale * g2,
                rel,
            ]
        )
    meta = _metadata(
        "fig2",
        args.seed,
        args.samples,
        "bits" if args.bits else "nats",
        {
            "rho": args.rho,
            "rx_antennas": args.rx_antennas,
            "tx_antennas": list(args.tx_antennas),
            "cov": args.cov or "exp-profile r=0.5",
            "workers": args.workers,
        },
    )
    header = ["m", "n_rx", "rho", "gamma_mc", "std_error", "n_samples", "gamma_taylor", "rel_error"]
    _emit(args.out, meta, header, rows)
    return 0


def cmd_sandwich(args) -> int:
    scale = 1.0 / _LN2 if args.bits else 1.0
    if args.scenario:
        scenario, precoders, file_seed = load_bundle(args.scenario)
    else:
        scenario, precoders, file_seed = load_demo_bundle()
    seed = args.seed if args.seed is not None else (file_seed if file_seed is not None else 0)
    if precoders is None or args.uniform_precoders:
        precoders = uniform_power_precoders(scenario)
    bound = sandwich_bounds(
        scenario,
        precoders,
        args.method,
        n_samples=args.samples,
        seed=seed + 1_000_000,
        workers=args.workers,
    )
    est = ewsr_monte_carlo(scenario, precoders, args.samples, seed, workers=args.workers)
    contained = bound.contains(est.value)
    rows = []
    for k, u in enumerate(scenario.users):
        rows.append(
            [
                k,
                u.rate_weight,
                scale * bound.per_user_gamma_k[k],
                scale * bound.per_user_gamma_kbar[k],
                bound.method_per_user[k],
                scale * bound.esei_value,
                scale * est.value,
                scale * est.std_error,
                est.n_samples,
                scale * bound.lower,
                scale * bound.upper,
                contained,
            ]
        )
    meta = _metadata(
        "sandwich",
        seed,
        args.samples,
        "bits" if args.bits else "nats",
        {
            "scenario": args.scenario or "bundled-demo",
            "method": args.method,
            "workers": args.workers,
        },
    )
    header = [
        "user",
        "weight",
        "gamma_signal",
        "gamma_interference",
        "method",
        "esei_wsr",
        "ewsr_mc",
        "std_error",
        "n_samples",
        "lower",
        "upper",
        "contained",
    ]
    _emit(args.out, meta, header, rows)
    return 0 if contained else 1


def cmd_verify(args) -> int:
    rows = run_suite(args.suite, args.seed, scale=args.scale, workers=args.workers)
    width = max(len(r["check"]) for r in rows)
    for r in rows:
        status = "PASS" if r["passed"] else "FAIL"
        print(
            f"{status}  {r['suite']:<9} {r['check']:<{width}}  "
            f"slack={r['slack']:+.3e}  {r['detail']}"
        )
    failed = sum(not r["passed"] for r in rows)
    print(f"{len(rows) - failed}/{len(rows)} checks passed")
    if args.out:
        meta = _metadata(
            "verify",
            args.seed,
            None,
            "nats",
            {"suite": args.suite, "scale": args.scale, "workers": args.workers},
        )
        csv_rows = [
            [r["suite"], r["check"], r["passed"], r["slack"], r["detail"]] for r in rows
        ]
        _emit(args.out, meta, ["suite", "check", "passed", "slack", "detail"], csv_rows)
    return 1 if failed else 0


def _add_common(sub, samples_default: int):
    sub.add_argument("--samples", type=int, default=samples_default,
                     help="Monte-Carlo sample count (default %(default)s)")
    sub.add_argument("--out", default=None, metavar="PATH",
                     help="write CSV here instead of stdout")
    sub.add_argument("--bits", action="store_true",
                     help="report rates in bits (log base 2) instead of nats")
    sub.add_argument("--workers", type=_at_least(int, 1), default=1,
                     help="thread count for Monte-Carlo chunks (results identical)")


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="ewsrgap",
        description="Expected weighted sum rate vs its expectation-inside "
        "surrogate: gap sweeps, closed-form limits, sandwich bounds.",
    )
    p.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = p.add_subparsers(dest="command", required=True)

    f1 = sub.add_parser("fig1", help="gap vs SNR for zero-mean i.i.d. MISO")
    _add_common(f1, 20_000)
    f1.add_argument("--seed", type=_at_least(int, 0), default=0)
    f1.add_argument("--snr-db", type=_parse_grid, default=np.arange(-10.0, 51.0, 2.0),
                    metavar="GRID", help="'start:stop:step' or comma list; write "
                    "--snr-db=-10:50:2 when the start is negative (default -10:50:2)")
    f1.add_argument("--tx-antennas", type=_parse_int_list, default=[1, 2, 4, 8, 16],
                    metavar="LIST", help="comma-separated antenna counts")
    f1.set_defaults(func=cmd_fig1)

    f2 = sub.add_parser("fig2", help="second-order approximation vs Monte-Carlo gap")
    _add_common(f2, 20_000)
    f2.add_argument("--seed", type=_at_least(int, 0), default=0)
    f2.add_argument("--tx-antennas", type=_parse_int_list, default=[8, 16, 32, 64],
                    metavar="LIST", help="comma-separated antenna counts")
    f2.add_argument("--rx-antennas", type=_at_least(int, 1), default=4)
    f2.add_argument("--rho", type=_at_least(float, 0.0), default=1000.0)
    f2.add_argument("--cov", default=None, metavar="PATH",
                    help="JSON covariance matrix (default: exponential profile r=0.5)")
    f2.set_defaults(func=cmd_fig2)

    sw = sub.add_parser("sandwich", help="surrogate +/- gap-limit bounds for a scenario")
    _add_common(sw, 50_000)
    sw.add_argument("--seed", type=_at_least(int, 0), default=None,
                    help="overrides a seed stored in the scenario file")
    sw.add_argument("--scenario", default=None, metavar="PATH",
                    help="scenario JSON (default: bundled 2-cell 4-user demo)")
    sw.add_argument("--uniform-precoders", action="store_true",
                    help="replace any stored precoders with scaled-identity ones")
    sw.add_argument("--method", default="auto",
                    choices=["auto", *GAP_METHODS],
                    help="gap-limit method (default auto: the first of "
                    f"{', '.join(GAP_METHODS)} that applies)")
    sw.set_defaults(func=cmd_sandwich)

    vf = sub.add_parser("verify", help="run property suites")
    vf.add_argument("suite", choices=["theorems", "oracles", "all"])
    vf.add_argument("--seed", type=_at_least(int, 0), default=0)
    vf.add_argument("--scale", type=_at_least(float, 0.0), default=1.0,
                    help="multiplier on per-check sample counts")
    vf.add_argument("--out", default=None, metavar="PATH",
                    help="also write the rows as CSV")
    vf.add_argument("--workers", type=_at_least(int, 1), default=1)
    vf.set_defaults(func=cmd_verify)
    return p


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code is None else int(exc.code)
    try:
        return int(args.func(args))
    except UnsupportedCase as exc:
        print(f"error: {exc} (use --method auto for automatic fallback)", file=sys.stderr)
        return 2
    except (EwsrgapError, FileNotFoundError, IsADirectoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def entrypoint() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    raise SystemExit(main())
