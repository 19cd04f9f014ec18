"""Run the benchmark over several seeds and summarise each metric.

    python3 perfbench/sweep.py --workload NAME --seeds 1-10 --seconds S \
        [--trace 0|1] [--out FILE]

Runs perfbench/run.py once per seed, one after the other, and prints
for every metric its median, quartiles and quartile spread (q3 - q1 as
a share of the median's magnitude, with quartiles from statistics.quantiles(n=4)).
With --out, the summary is stored in FILE under the workload's name and
trace flag, next to what the file already holds, together with the
machine record of the first run.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def seed_range(text: str) -> list:
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seeds", type=seed_range, required=True)
    p.add_argument("--seconds", required=True)
    p.add_argument("--trace", default="0", choices=("0", "1"))
    p.add_argument("--out", type=Path)
    args = p.parse_args()

    results, machine = [], None
    for seed in args.seeds:
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
             "--seed", str(seed), "--seconds", args.seconds, "--trace", args.trace],
            cwd=HERE.parent, capture_output=True, text=True, check=True,
        )
        lines = proc.stdout.strip().splitlines()
        machine = machine or json.loads(lines[-2])["machine"]
        results.append(json.loads(lines[-1]))
        print(f"seed {seed}: correct={results[-1]['correct']} " + " ".join(
            f"{k}={m['value']:.6g}" for k, m in results[-1]["metrics"].items()
        ), flush=True)

    summary = {}
    for name, first in results[0]["metrics"].items():
        values = [r["metrics"][name]["value"] for r in results]
        q1, _, q3 = statistics.quantiles(values, n=4)
        median = statistics.median(values)
        summary[name] = {
            "unit": first["unit"],
            "median": median,
            "q1": q1,
            "q3": q3,
            "spread": (q3 - q1) / abs(median) if median else None,
            "values": values,
        }
        print(f"  {name:<36} median {summary[name]['median']:.6g} {first['unit']}"
              f"  spread {summary[name]['spread'] if summary[name]['spread'] is not None else 'n/a'}")
    entry = {
        "seeds": args.seeds,
        "seconds": float(args.seconds),
        "all_correct": all(r["correct"] for r in results),
        "checks_failed": sum(r["failed"] for r in results),
        "checks_attempted": sum(r["attempted"] for r in results),
        "machine": machine,
        "metrics": summary,
    }
    if args.out:
        doc = json.loads(args.out.read_text()) if args.out.exists() else {}
        doc[f"{args.workload}/trace{args.trace}"] = entry
        args.out.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
