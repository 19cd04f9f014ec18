"""Self-tests of the benchmark harness (not part of the program's suite).

    python3 -m pytest perfbench/tests -q

Each workload's traced run is made twice with the same seed, exactly as
`run.py --seconds 0 --trace 1` makes it: one untraced call, then one
traced call at one worker and one at two workers.
"""

import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import inputs  # noqa: E402
import run  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SEED = 3


@pytest.fixture(scope="module", params=list(WORKLOADS))
def runs(request, tmp_path_factory):
    workload = WORKLOADS[request.param]
    work = tmp_path_factory.mktemp(workload.name)
    return [run.benchmark(workload, SEED, 0, True, work) for _ in range(2)]


def _checks(result, prefix: str) -> list:
    return [ok for name, ok in result["checks"] if name.startswith(prefix)]


def test_computed_counts_repeat_exactly(runs):
    first, second = (r["metrics"] for r in runs)
    computed = [k for k in first if run.PER_LAYER_UNITS[k] in run.COMPUTED_UNITS]
    assert computed
    assert {k: first[k] for k in computed} == {k: second[k] for k in computed}
    assert first["mc.chunks"] >= 2


def test_outputs_bit_identical_with_tracing_on_and_off(runs):
    for result in runs:
        identical = _checks(result, "call ")
        assert len(identical) == 2 and all(identical)


def test_rebound_attributes_restored(runs):
    for result in runs:
        assert _checks(result, "every rebound module attribute restored") == [True]


def test_output_checks_pass(runs):
    for result in runs:
        assert [name for name, ok in result["checks"] if not ok] == []


def test_layer_spans_cover_the_call(runs):
    for result in runs:
        assert result["metrics"]["trace.covered_share"] >= 0.9


def test_tracing_overhead_is_positive(runs):
    for result in runs:
        assert result["metrics"]["trace.overhead_s"] > 0


@pytest.mark.parametrize("make", [inputs.multicell_doc, inputs.massive_doc])
def test_generator_is_a_function_of_the_seed(make, tmp_path):
    a, b, c = tmp_path / "a.json", tmp_path / "b.json", tmp_path / "c.json"
    inputs.write_doc(make(7), a)
    inputs.write_doc(make(7), b)
    inputs.write_doc(make(8), c)
    assert a.read_bytes() == b.read_bytes() != c.read_bytes()


def test_every_layer_metric_has_a_unit():
    import tracing

    names = {*tracing.layer_metrics([], 1.0), *tracing.pool_metrics([])}
    assert names <= set(run.PER_LAYER_UNITS)
