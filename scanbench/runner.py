"""The closed-loop measurement of one workload and the metrics it yields.

One client in one process: the next operation starts only after the last one
has finished and been checked. Latency is the time of ``run_op``; checks run
between operations, outside the timed region. Throughput is completed work
over the summed operation time.

A traced run does each input twice, once traced and once untraced, the order
alternating from one input to the next, so both sets see the same inputs; the
untraced operations give the baseline for the tracing overhead, the traced
ones the per-layer numbers.
"""

from __future__ import annotations

import contextlib
import statistics
import time
from collections import Counter
from dataclasses import dataclass, field

from . import measure
from .spans import LAYERS, Instrumentation, Tracer, self_times, span_names, top_level_time
from .workloads import CheckFailed, Workload

SETUP_REPEATS = 3

# name, unit, better, bound (share of the parent's median it may worsen by).
# Wall times on a shared 2-core VM drift by about a tenth between runs a few
# minutes apart, so every timing gets the largest bound allowed.
END_TO_END = (
    ("setup_s", "s", "lower", 0.25),
    ("scans_per_s", "scans/s", "higher", 0.25),
    ("points_per_s", "points/s", "higher", 0.25),
    ("op_s.p50", "s", "lower", 0.25),
    ("op_s.tail", "s", "lower", 0.25),
    ("peak_rss_mb", "MiB", "lower", 0.1),
    ("success_rate", "ratio", "higher", 0.01),
)

_CONVS = ("neural_core.slc_forward", "neural_core.slc_backward")
# per-op counts: name, unit, better
_COUNTS = (
    ("neural_core.bytes_moved", "B/op", "lower"),
    ("synth_lidar.rays_cast", "count/op", "lower"),
    ("projection.points", "count/op", "higher"),
    ("projection.projected", "count/op", "higher"),
    ("projection.occluded", "count/op", "lower"),
    ("projection.out_of_range", "count/op", "lower"),
    ("cloud_io.bytes_read", "B/op", "lower"),
    ("cloud_io.bytes_written", "B/op", "lower"),
)


def per_layer_table() -> list[tuple[str, str, str]]:
    """(name, unit, better) of every per-layer metric, in report order."""
    table = [(f"{span}.self_s", "s/op", "lower") for span in span_names()]
    for conv in _CONVS:
        table += [
            (f"{conv}.calls", "count/op", "lower"),
            (f"{conv}.gflop", "GFLOP/op", "lower"),
            (f"{conv}.useful_flop_ratio", "ratio", "higher"),
            (f"{conv}.gflop_per_s", "GFLOP/s", "higher"),
        ]
    table += list(_COUNTS)
    table.append(("synth_lidar.hit_ratio", "ratio", "higher"))
    table += [(f"{layer}.errors", "count", "lower") for layer in LAYERS]
    table += [("trace.coverage", "ratio", "higher"), ("trace.overhead", "ratio", "lower")]
    return table


@dataclass
class Run:
    workload: Workload
    setup_s: list[float]
    latencies: list[float] = field(default_factory=list)
    work: list[tuple[int, int]] = field(default_factory=list)  # (scans, points) per op
    traced: list[bool] = field(default_factory=list)
    failures: dict[int, str] = field(default_factory=dict)
    peak_rss_mib: float = 0.0
    tracer: Tracer | None = None

    @property
    def attempted(self) -> int:
        return len(self.latencies)

    def busy(self, traced: bool) -> tuple[int, float]:
        """(ops, seconds) of the traced or of the untraced operations."""
        times = [dt for dt, t in zip(self.latencies, self.traced) if t == traced]
        return len(times), sum(times)

    def rates(self) -> tuple[float, float]:
        """(scans/s, points/s) of the completed ops."""
        seconds = sum(self.latencies)
        done = [w for i, w in enumerate(self.work) if i not in self.failures]
        return sum(s for s, _ in done) / seconds, sum(p for _, p in done) / seconds


def run(make_workload, seconds: float, trace: bool) -> Run:
    """Set up ``SETUP_REPEATS`` times (the last set-up is kept), then run
    operations until ``seconds`` have passed."""
    setup_s = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        workload = make_workload()
        workload.setup()
        workload.run_op(0)  # warm-up: first-touch allocations and lazy init
        setup_s.append(time.perf_counter() - t0)

    tracer = Tracer() if trace else None
    instrumentation = Instrumentation(tracer) if trace else None
    out = Run(workload=workload, setup_s=setup_s, tracer=tracer)
    deadline = time.perf_counter() + seconds
    i = 0
    while time.perf_counter() < deadline or i == 0 or (trace and i % 2):
        k, traced = (i // 2, i % 2 != (i // 2) % 2) if trace else (i, False)
        result = None
        with instrumentation if traced else contextlib.nullcontext():
            t0 = time.perf_counter()
            span = tracer.begin(workload.op_span) if traced and workload.op_span else None
            try:
                result = workload.run_op(k)
            except Exception as exc:  # a failed operation is counted, not fatal
                out.failures[i] = f"{type(exc).__name__}: {exc}"
            finally:
                if span is not None:
                    tracer.end(span)
            out.latencies.append(time.perf_counter() - t0)
        out.traced.append(traced)
        out.work.append((result.scans, result.points) if result is not None else (0, 0))
        if result is not None:
            try:
                workload.check(i, result)
            except CheckFailed as exc:
                out.failures[i] = f"check: {exc}"
            except Exception as exc:  # an output malformed enough to break the check
                out.failures[i] = f"check: {type(exc).__name__}: {exc}"
        i += 1

    out.peak_rss_mib = measure.peak_rss_mib()
    try:
        late = workload.finish()
    except Exception as exc:
        late = [(i - 1, f"{type(exc).__name__}: {exc}")]
    for k, message in late:
        out.failures.setdefault(k, f"check: {message}")
    return out


def end_to_end(run_: Run) -> tuple[dict[str, float], dict]:
    """Metric values by name, plus the tail percentile detail."""
    scans_per_s, points_per_s = run_.rates()
    tail = measure.tail(run_.latencies)
    values = {
        "setup_s": statistics.median(run_.setup_s),
        "scans_per_s": scans_per_s,
        "points_per_s": points_per_s,
        "op_s.p50": statistics.median(run_.latencies),
        "op_s.tail": tail["value"],
        "peak_rss_mb": run_.peak_rss_mib,
        "success_rate": 1.0 - len(run_.failures) / run_.attempted,
    }
    return values, tail


def per_layer(run_: Run) -> dict[str, float]:
    """Per-layer metrics averaged over the traced operations."""
    tracer = run_.tracer
    n_traced, traced_s = run_.busy(traced=True)
    n_untraced, untraced_s = run_.busy(traced=False)
    selfs = self_times(tracer.spans)
    calls = Counter(name for name, *_ in tracer.spans)
    counts = tracer.counts
    values = {f"{span}.self_s": selfs.get(span, 0.0) / n_traced for span in span_names()}
    for conv in _CONVS:
        issued, useful = counts[f"{conv}.flop_issued"], counts[f"{conv}.flop_useful"]
        values[f"{conv}.calls"] = calls[conv] / n_traced
        values[f"{conv}.gflop"] = issued / 1e9 / n_traced
        values[f"{conv}.useful_flop_ratio"] = useful / issued if issued else 0.0
        values[f"{conv}.gflop_per_s"] = useful / 1e9 / selfs[conv] if selfs.get(conv) else 0.0
    for name, _, _ in _COUNTS:
        values[name] = counts[name] / n_traced
    rays = counts["synth_lidar.rays_cast"]
    values["synth_lidar.hit_ratio"] = counts["synth_lidar.points"] / rays if rays else 0.0
    for layer in LAYERS:
        values[f"{layer}.errors"] = float(counts[f"{layer}.errors"])
    # layer spans only: the workload's own op span would cover every op whole
    values["trace.coverage"] = top_level_time(tracer.spans, skip=run_.workload.op_span) / traced_s
    # ops per second untraced over ops per second traced, minus one
    values["trace.overhead"] = (traced_s / n_traced) / (untraced_s / n_untraced) - 1.0
    return values
