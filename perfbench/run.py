"""Benchmark for ewsrgap: one workload, one seed, one run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the program is imported from its src
directory. The benchmark writes its generated inputs and the program's
CSV files under perfbench/_work, then calls the workload in a closed
loop for S seconds: half of it at one worker, then half at two workers
(with --trace 1: one untraced call at one worker, then traced calls at
one worker for two thirds and at two workers for one third). It checks
every output and prints, as
its last line, one JSON object with the keys correct, attempted, failed
and metrics: the end-to-end metrics with --trace 0, the per-layer
metrics with --trace 1. The lines before it give each metric with its
unit, the checks and a record of the machine.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
from importlib import metadata
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / "_work"

SETUP_REPEATS = 7
IMPORT_REPEATS = 3
CHILD_TIMEOUT_S = 60

END_TO_END_UNITS = {
    "wall_s": "s",
    "samples_per_s": "1/s",
    "wall_s_w2": "s",
    "setup_s": "s",
    "peak_rss_mb": "MiB",
}
PER_LAYER_UNITS = {
    "channel.sample_stacked_batch.s": "s",
    "channel.sample_stacked_batch.calls": "count",
    "channel.stack_user.s": "s",
    "channel.stack_user.calls": "count",
    "channel.load_bundle.s": "s",
    "mc.complex_normal.s": "s",
    "mc.complex_normal.values": "count",
    "mc.vector_stats.s": "s",
    "mc.chunks": "count",
    "mc.evaluate.s": "s",
    "mc.reduce_self_s": "s",
    "mc.chunk_wait_s": "s",
    "mc.busy_ratio_w2": "ratio",
    "rates.kernel_self_s": "s",
    "rates.stacked_width": "count",
    "rates.gram_gflop_computed": "GFLOP",
    "rates.esei_wsr.s": "s",
    "rates.effective_gap_spec.s": "s",
    "rates.gap_limit.s": "s",
    "rates.method.closed-form": "count",
    "rates.method.taylor": "count",
    "rates.method.monte-carlo-high-snr": "count",
    "gap.monotonicity_sweep.s": "s",
    "gap.gamma_rho.s": "s",
    "gap.kernel_self_s": "s",
    "gap.rho_points": "count",
    "gap.chunk_mib_computed": "MiB",
    "linalg.hermitian_sqrt.s": "s",
    "linalg.hermitian_sqrt.calls": "count",
    "linalg.logdet_hpd.calls": "count",
    "oracle.exact_e_log_miso_iid.s": "s",
    "special.expn_scaled.calls": "count",
    "cli.main.s": "s",
    "cli.self_s": "s",
    "import.ewsrgap_s": "s",
    "import.scipy_special_s": "s",
    "trace.overhead_s": "s",
    "trace.covered_share": "ratio",
}
# Counts derived from array shapes and call structure: equal on every call.
COMPUTED_UNITS = ("count", "GFLOP", "MiB")
METHODS = ("closed-form", "taylor", "monte-carlo-high-snr")


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH", "")) if p
    )
    return env


def run_child(args: list) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, *args],
        env=child_env(),
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=CHILD_TIMEOUT_S,
        check=True,
    )


def probe_setup(name: str, seed: int, work: Path) -> float:
    """Median fresh-interpreter set-up time; one untimed run fills bytecode caches."""
    args = [str(HERE / "probe.py"), name, str(seed), str(work)]
    run_child(args)
    return statistics.median(
        float(run_child(args).stdout.strip()) for _ in range(SETUP_REPEATS)
    )


def probe_imports() -> dict:
    """Cumulative import times from `python -X importtime -c "import ewsrgap"`."""
    samples = {"import.ewsrgap_s": [], "import.scipy_special_s": []}
    for _ in range(IMPORT_REPEATS):
        cumulative = {}
        err = run_child(["-X", "importtime", "-c", "import ewsrgap"]).stderr
        for line in err.splitlines():
            parts = [p.strip() for p in line.split("|")]
            if len(parts) == 3 and parts[1].isdigit():
                cumulative[parts[2]] = int(parts[1]) / 1e6
        samples["import.ewsrgap_s"].append(cumulative.get("ewsrgap", 0.0))
        samples["import.scipy_special_s"].append(cumulative.get("scipy.special", 0.0))
    return {k: statistics.median(v) for k, v in samples.items()}


def machine_record() -> dict:
    import numpy

    def version(dist):
        try:
            return metadata.version(dist)
        except metadata.PackageNotFoundError:
            return None

    def read(path):
        try:
            return Path(path).read_text(encoding="utf-8").strip()
        except OSError:
            return None

    cpu = read("/proc/cpuinfo") or ""
    model = next(
        (ln.split(":", 1)[1].strip() for ln in cpu.splitlines() if ln.startswith("model name")),
        None,
    )
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        level = read(index / "level")
        if level in ("2", "3"):
            caches[f"L{level}"] = read(index / "size")
    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": model,
        "cache_per_cpu0": caches,
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": version("scipy"),
        "blas": blas.get("openblas configuration") or blas.get("name"),
        "env": {
            k: v for k, v in sorted(os.environ.items())
            if k.startswith(("OPENBLAS_", "OMP_", "MKL_"))
        },
    }


def run_calls(workload, loaded, seconds: float, work: Path,
              setup_spans: list | None = None) -> dict:
    """Closed loop over phases of calls at one worker, then two workers.

    Each phase repeats its round of calls until its share of `seconds`
    has passed, and runs at least one round. With `setup_spans` (the
    spans of the traced `load`) the run is traced: after one untraced
    call, whose output the traced ones must reproduce, every call is
    traced, and the set-up spans are added to each one-worker call's
    layer metrics. Peak memory is read after the first phase, because
    with two workers it depends on how the threads' allocations happen
    to overlap.
    """
    import tracing

    trace = setup_spans is not None
    if trace:
        phases = [([(1, False)], 0), ([(1, True)], 2 / 3), ([(2, True)], 1 / 3)]
    else:
        phases = [([(1, False)], 1 / 2), ([(2, False)], 1 / 2)]
    walls = {step: [] for plan, _ in phases for step in plan}
    layers, pools, span_counts, outputs = [], [], [], []
    for phase, (plan, share) in enumerate(phases):
        start = perf_counter()
        rounds = 0
        while not rounds or perf_counter() - start < share * seconds:
            rounds += 1
            for workers, traced in plan:
                if traced:
                    tracer = tracing.Tracer()
                    with tracing.traced(tracer):
                        t0 = perf_counter()
                        out = workload.call(loaded, workers, work)
                        wall = perf_counter() - t0
                    if workers == 1:
                        layers.append(
                            tracing.layer_metrics(tracer.spans, wall, setup_spans)
                        )
                        span_counts.append(len(tracer.spans))
                    else:
                        pools.append(tracing.pool_metrics(tracer.spans))
                else:
                    t0 = perf_counter()
                    out = workload.call(loaded, workers, work)
                    wall = perf_counter() - t0
                walls[(workers, traced)].append(wall)
                outputs.append(((workers, traced), out))
        if phase == 0:
            peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {
        "walls": walls,
        "layers": layers,
        "pools": pools,
        "span_counts": span_counts,
        "outputs": outputs,
        "peak_rss_mb": peak_kib / 1024,
    }


def median_of(dicts: list) -> dict:
    return {k: statistics.median(d[k] for d in dicts) for k in dicts[0]}


def benchmark(workload, seed: int, seconds: float, trace: bool,
              work: Path = WORK) -> dict:
    """One run of `workload`: its metrics, their units and the output checks."""
    import tracing

    work.mkdir(exist_ok=True)
    input_bytes = workload.write_inputs(seed, work)
    if trace:
        imports = probe_imports()
    else:
        setup_s = probe_setup(workload.name, seed, work)

    before = tracing.originals()
    if trace:
        tracer = tracing.Tracer()
        with tracing.traced(tracer):
            loaded = workload.load(seed, work)
        run = run_calls(workload, loaded, seconds, work, tracer.spans)
    else:
        loaded = workload.load(seed, work)
        run = run_calls(workload, loaded, seconds, work)

    first = run["outputs"][0][1]
    checks = list(workload.checks(seed, first))
    for i, ((workers, traced), out) in enumerate(run["outputs"][1:], start=1):
        checks.append((
            f"call {i} (workers={workers}, traced={traced}) output bit-identical "
            "to call 0 (workers=1, untraced)",
            out.key == first.key,
        ))

    if trace:
        metrics = median_of(run["layers"])
        metrics.update(median_of(run["pools"]))
        metrics.update(imports)
        for method in METHODS:
            metrics[f"rates.method.{method}"] = workload.methods(first).get(method, 0)
        metrics["trace.overhead_s"] = (
            statistics.median(run["span_counts"]) * tracing.span_cost()
        )
        computed = [k for k in run["layers"][0] if PER_LAYER_UNITS[k] in COMPUTED_UNITS]
        checks.append((
            "computed counts repeat exactly across traced calls",
            all(d[k] == run["layers"][0][k] for d in run["layers"] for k in computed),
        ))
        checks.append(("every rebound module attribute restored",
                       tracing.restored(before)))
        metrics = {k: metrics[k] for k in PER_LAYER_UNITS}
        units = PER_LAYER_UNITS
    else:
        wall_1 = statistics.median(run["walls"][(1, False)])
        metrics = {
            "wall_s": wall_1,
            "samples_per_s": workload.samples_per_call(first) / wall_1,
            "wall_s_w2": statistics.median(run["walls"][(2, False)]),
            "setup_s": setup_s,
            "peak_rss_mb": run["peak_rss_mb"],
        }
        units = END_TO_END_UNITS
    return {
        "input_bytes": input_bytes,
        "walls": run["walls"],
        "metrics": metrics,
        "units": units,
        "checks": checks,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "ewsrgap" / "__init__.py").is_file():
        print(f"error: no ewsrgap package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import ewsrgap
    import workloads

    if SRC not in Path(ewsrgap.__file__).resolve().parents:
        print(f"error: ewsrgap was imported from {ewsrgap.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    workload = workloads.WORKLOADS[args.workload]
    result = benchmark(workload, args.seed, args.seconds, bool(args.trace))
    metrics, units, checks = result["metrics"], result["units"], result["checks"]

    failed = [name for name, ok in checks if not ok]
    walls = {f"workers={w},traced={t}": [round(x, 4) for x in v]
             for (w, t), v in result["walls"].items()}
    print(f"workload {workload.name}  seed {args.seed}  "
          f"input {result['input_bytes']} bytes")
    print(f"  call walls (s): {json.dumps(walls)}")
    for name, value in metrics.items():
        print(f"  {name:<36} {value:.6g} {units[name]}")
    print(f"  {'error_rate':<36} {len(failed) / len(checks):.6g} "
          f"({len(failed)} of {len(checks)} output checks failed)")
    for name in failed:
        print(f"  FAILED: {name}")
    print(json.dumps({"machine": machine_record()}, sort_keys=True))
    print(json.dumps({
        "correct": not failed,
        "attempted": len(checks),
        "failed": len(failed),
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
