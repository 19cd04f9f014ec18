"""Record the library's ewsr-multicell estimates for a range of seeds.

    python3 perfbench/make_reference.py [FIRST LAST]

Adds to perfbench/reference_ewsr_multicell.json, the committed
reference that the ewsr-multicell output check compares against, the
seeds from FIRST to LAST that it does not hold yet. Seeds already
recorded are kept as they are, and the table's sample count must match
the workload's. The table was made at the seed commit, before any
change to the program: extend it only with a checkout of that commit,
never to absorb a change in the program's values.
"""

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import reference  # noqa: E402
from workloads import SAMPLES, WORKLOADS  # noqa: E402


def main(first: int = 0, last: int = 63) -> int:
    table = {"n_samples": SAMPLES, "values": {}}
    if reference.COMMITTED.exists():
        table = json.loads(reference.COMMITTED.read_text(encoding="utf-8"))
    if table["n_samples"] != SAMPLES:
        print(f"error: the table holds {table['n_samples']}-sample estimates, "
              f"the workload draws {SAMPLES}", file=sys.stderr)
        return 2
    workload = WORKLOADS["ewsr-multicell"]
    work = HERE / "_work"
    work.mkdir(exist_ok=True)
    for seed in range(first, last + 1):
        if str(seed) in table["values"]:
            continue
        workload.write_inputs(seed, work)
        est = workload.call(workload.load(seed, work), 1, work).detail
        table["values"][str(seed)] = [est.value, est.std_error]
    table["values"] = dict(sorted(table["values"].items(), key=lambda kv: int(kv[0])))
    reference.COMMITTED.write_text(json.dumps(table, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(*map(int, sys.argv[1:3])))
