"""Set-up probe, run in a fresh interpreter by run.py.

    python3 perfbench/probe.py WORKLOAD SEED WORKDIR

Times `import ewsrgap` and then the program's part of loading the
workload's inputs (the generated files already exist), and prints the
sum in seconds. ewsrgap is found through PYTHONPATH, which run.py sets
to the checkout's src directory.
"""

import sys
import time

t0 = time.perf_counter()
import ewsrgap  # noqa: E402,F401

t1 = time.perf_counter()

from pathlib import Path  # noqa: E402

from workloads import WORKLOADS  # noqa: E402

workload = WORKLOADS[sys.argv[1]]
t2 = time.perf_counter()
workload.load(int(sys.argv[2]), Path(sys.argv[3]))
t3 = time.perf_counter()
print(repr((t1 - t0) + (t3 - t2)))
