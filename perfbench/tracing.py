"""Outside-in layer timing for the traced benchmark run.

The program is not edited: while one traced call runs, module-level
names of the ewsrgap package are rebound to wrappers that record a
span around each call and restored afterwards. Spans nest through a
per-thread stack. The Monte-Carlo `evaluate` callback handed to
`vector_stats` is wrapped so every chunk becomes a span whose parent is
the `vector_stats` span, taken from the closure rather than from the
thread, because pool threads start with an empty stack.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import math
import statistics
import threading
from contextlib import contextmanager
from dataclasses import dataclass, field
from time import perf_counter


@dataclass(eq=False)
class Span:
    name: str
    parent: "Span | None"
    start: float = 0.0
    end: float = 0.0
    info: dict = field(default_factory=dict)

    @property
    def dur(self) -> float:
        return self.end - self.start


class Tracer:
    """Keeps the spans of one traced call in memory."""

    def __init__(self):
        self.spans: list[Span] = []
        self._local = threading.local()
        self._lock = threading.Lock()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(self, name: str, parent: Span | None = None, **info):
        stack = self._stack()
        sp = Span(name, parent if parent is not None else (stack[-1] if stack else None))
        sp.info.update(info)
        stack.append(sp)
        sp.start = perf_counter()
        try:
            yield sp
        finally:
            sp.end = perf_counter()
            stack.pop()
            with self._lock:
                self.spans.append(sp)


# (module, attribute, span name). Names a module imported from another
# module are rebound where they are looked up, which is why some
# functions appear under more than one module. Attributes missing from
# the program are skipped, so the layer simply reads zero.
TARGETS = [
    ("ewsrgap", "ewsr_monte_carlo", "rates.ewsr_monte_carlo"),
    ("ewsrgap.cli", "main", "cli.main"),
    ("ewsrgap.cli", "ewsr_monte_carlo", "rates.ewsr_monte_carlo"),
    ("ewsrgap.cli", "sandwich_bounds", "rates.sandwich_bounds"),
    ("ewsrgap.cli", "load_bundle", "channel.load_bundle"),
    ("ewsrgap.cli", "load_demo_bundle", "channel.load_bundle"),
    ("ewsrgap.cli", "uniform_power_precoders", "channel.uniform_power_precoders"),
    ("ewsrgap.cli", "exp_profile_cov", "channel.exp_profile_cov"),
    ("ewsrgap.cli", "monotonicity_sweep", "gap.monotonicity_sweep"),
    ("ewsrgap.cli", "gamma_rho", "gap.gamma_rho"),
    ("ewsrgap.cli", "gamma_inf_miso_iid", "gap.gamma_inf_miso_iid"),
    ("ewsrgap.cli", "taylor_gamma2", "gap.taylor_gamma2"),
    ("ewsrgap.cli", "exact_e_log_miso_iid", "oracle.exact_e_log_miso_iid"),
    ("ewsrgap.channel", "load_bundle", "channel.load_bundle"),
    ("ewsrgap.channel", "complex_normal", "mc.complex_normal"),
    ("ewsrgap.rates", "stack_user", "channel.stack_user"),
    ("ewsrgap.rates", "sample_stacked_batch", "channel.sample_stacked_batch"),
    ("ewsrgap.rates", "vector_stats", "mc.vector_stats"),
    ("ewsrgap.rates", "esei_wsr", "rates.esei_wsr"),
    ("ewsrgap.rates", "effective_gap_spec", "rates.effective_gap_spec"),
    ("ewsrgap.rates", "_gamma_limit", "rates.gap_limit"),
    ("ewsrgap.rates", "gamma_rho", "gap.gamma_rho"),
    ("ewsrgap.gap", "monotonicity_sweep", "gap.monotonicity_sweep"),
    ("ewsrgap.gap", "complex_normal", "mc.complex_normal"),
    ("ewsrgap.gap", "vector_stats", "mc.vector_stats"),
    ("ewsrgap.linalg", "hermitian_sqrt", "linalg.hermitian_sqrt"),
    ("ewsrgap.linalg", "logdet_hpd", "linalg.logdet_hpd"),
    ("ewsrgap.oracle", "expn_scaled", "special.expn_scaled"),
]

# Entry points: their spans are the calls being measured, not layers below them.
ENTRY_SPANS = {"cli.main", "rates.ewsr_monte_carlo", "rates.sandwich_bounds"}


def _wrap(tracer: Tracer, fn, name: str, module: str):
    """A stand-in for `fn` that records one span per call."""
    layer = module.rsplit(".", 1)[-1]

    if name == "mc.vector_stats":
        sig = inspect.signature(fn)

        @functools.wraps(fn)
        def vector_stats(*args, **kwargs):
            bound = sig.bind(*args, **kwargs)
            bound.apply_defaults()
            evaluate = bound.arguments["evaluate"]
            with tracer.span(name, caller=layer, workers=bound.arguments["workers"]) as vs:

                def chunk(rng, count):
                    with tracer.span("mc.evaluate", parent=vs, caller=layer):
                        return evaluate(rng, count)

                bound.arguments["evaluate"] = chunk
                return fn(*bound.args, **bound.kwargs)

        return vector_stats

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        with tracer.span(name) as sp:
            result = fn(*args, **kwargs)
            if name == "mc.complex_normal":
                sp.info["values"] = math.prod(getattr(result, "shape", ()))
            elif name == "channel.sample_stacked_batch":
                sp.info["shape"] = tuple(result.shape)
            elif name == "gap.monotonicity_sweep":
                sp.info["rho_points"] = len(result)
            return result

    return wrapper


@contextmanager
def traced(tracer: Tracer):
    """Rebind every target to a span-recording wrapper for the duration."""
    saved = []
    try:
        for module_name, attr, name in TARGETS:
            module = importlib.import_module(module_name)
            if not hasattr(module, attr):
                continue
            original = getattr(module, attr)
            saved.append((module, attr, original))
            setattr(module, attr, _wrap(tracer, original, name, module_name))
        yield
    finally:
        for module, attr, original in reversed(saved):
            setattr(module, attr, original)


def originals() -> list:
    """(module, attribute, object) for every target present right now."""
    out = []
    for module_name, attr, _ in TARGETS:
        module = importlib.import_module(module_name)
        if hasattr(module, attr):
            out.append((module_name, attr, getattr(module, attr)))
    return out


def restored(before: list) -> bool:
    """True when every attribute recorded by `originals` is back in place."""
    return all(
        getattr(importlib.import_module(m), attr) is obj for m, attr, obj in before
    )


# ---------------------------------------------------------------------------
# Layer metrics of one traced call
# ---------------------------------------------------------------------------


def _union(intervals) -> float:
    total, end = 0.0, -math.inf
    for s, e in sorted(intervals):
        if e <= end:
            continue
        total += e - max(s, end)
        end = e
    return total


def _self_time(span: Span, children: dict) -> float:
    return span.dur - _union((c.start, c.end) for c in children.get(id(span), ()))


def layer_metrics(spans: list, wall: float, setup_spans=()) -> dict:
    """Per-layer times and counts of one traced call at one worker.

    Times sum the spans of a layer; self times subtract the part of a
    span that its traced children cover. Counts marked computed follow
    from array shapes and repeat exactly for a fixed seed. The spans of
    the workload's set-up (`setup_spans`) count towards the layers too,
    but not towards the share of the call's `wall` that spans cover.
    """
    covered = _union((s.start, s.end) for s in spans if s.name not in ENTRY_SPANS)
    spans = [*spans, *setup_spans]
    children: dict = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(id(s.parent), []).append(s)

    def named(name, **match):
        return [
            s for s in spans
            if s.name == name and all(s.info.get(k) == v for k, v in match.items())
        ]

    def total(name, **match):
        return sum((s.dur for s in named(name, **match)), 0.0)

    def self_total(name, **match):
        return sum((_self_time(s, children) for s in named(name, **match)), 0.0)

    stacked = [s.info["shape"] for s in named("channel.sample_stacked_batch")]
    gap_draws = [
        c.info.get("values", 0)
        for chunk in named("mc.evaluate", caller="gap")
        for c in children.get(id(chunk), ())
        if c.name == "mc.complex_normal"
    ]
    vs = named("mc.vector_stats")
    return {
        "channel.sample_stacked_batch.s": total("channel.sample_stacked_batch"),
        "channel.sample_stacked_batch.calls": len(stacked),
        "channel.stack_user.s": total("channel.stack_user"),
        "channel.stack_user.calls": len(named("channel.stack_user")),
        "channel.load_bundle.s": total("channel.load_bundle"),
        "mc.complex_normal.s": total("mc.complex_normal"),
        "mc.complex_normal.values": sum(
            s.info.get("values", 0) for s in named("mc.complex_normal")
        ),
        "mc.vector_stats.s": sum((s.dur for s in vs), 0.0),
        "mc.chunks": len(named("mc.evaluate")),
        "mc.evaluate.s": total("mc.evaluate"),
        "mc.reduce_self_s": sum((_self_time(s, children) for s in vs), 0.0),
        "rates.kernel_self_s": self_total("mc.evaluate", caller="rates"),
        "rates.stacked_width": max((shape[2] for shape in stacked), default=0),
        "rates.gram_gflop_computed": sum(
            16 * (n * w * w + n * n * w) * count for count, n, w in stacked
        ) / 1e9,
        "rates.esei_wsr.s": total("rates.esei_wsr"),
        "rates.effective_gap_spec.s": total("rates.effective_gap_spec"),
        "rates.gap_limit.s": total("rates.gap_limit"),
        "gap.monotonicity_sweep.s": total("gap.monotonicity_sweep"),
        "gap.gamma_rho.s": total("gap.gamma_rho"),
        "gap.kernel_self_s": self_total("mc.evaluate", caller="gap"),
        "gap.rho_points": sum(
            s.info.get("rho_points", 0) for s in named("gap.monotonicity_sweep")
        ),
        "gap.chunk_mib_computed": max(gap_draws, default=0) * 16 / 2**20,
        "linalg.hermitian_sqrt.s": total("linalg.hermitian_sqrt"),
        "linalg.hermitian_sqrt.calls": len(named("linalg.hermitian_sqrt")),
        "linalg.logdet_hpd.calls": len(named("linalg.logdet_hpd")),
        "oracle.exact_e_log_miso_iid.s": total("oracle.exact_e_log_miso_iid"),
        "special.expn_scaled.calls": len(named("special.expn_scaled")),
        "cli.main.s": total("cli.main"),
        "cli.self_s": self_total("cli.main"),
        "trace.covered_share": covered / wall,
    }


def pool_metrics(spans: list) -> dict:
    """Chunk waiting and worker busy share of one call at several workers.

    A chunk waits from the start of its `vector_stats` call, when every
    chunk is handed to the pool, until a worker starts it.
    """
    waits, busy, capacity = 0.0, 0.0, 0.0
    for vs in spans:
        if vs.name != "mc.vector_stats" or vs.info["workers"] < 2:
            continue
        chunks = [s for s in spans if s.name == "mc.evaluate" and s.parent is vs]
        waits += sum(c.start - vs.start for c in chunks)
        busy += sum(c.dur for c in chunks)
        capacity += vs.info["workers"] * vs.dur
    return {
        "mc.chunk_wait_s": waits,
        "mc.busy_ratio_w2": busy / capacity if capacity else 0.0,
    }


def span_cost(calls: int = 10000, repeats: int = 7) -> float:
    """Seconds one recorded span adds to a traced call.

    The median, over `repeats` batches of `calls` calls, of a wrapped
    no-op's time per call minus the bare no-op's. Multiplied by the
    number of spans of a traced call, it gives the tracing overhead;
    the difference between a traced and an untraced call is far below
    the call-to-call variation of the program's own time.
    """

    def noop():
        return None

    diffs = []
    for _ in range(repeats):
        wrapped = _wrap(Tracer(), noop, "trace.noop", "perfbench")
        t0 = perf_counter()
        for _ in range(calls):
            noop()
        t1 = perf_counter()
        for _ in range(calls):
            wrapped()
        t2 = perf_counter()
        diffs.append(((t2 - t1) - (t1 - t0)) / calls)
    return statistics.median(diffs)
