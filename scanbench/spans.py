"""Timing spans around the public functions of each scanseg layer.

The spans are recorded from the benchmark's side: ``Instrumentation``
replaces each listed function, wherever a scanseg module holds a reference to
it, with a wrapper that opens a span, and restores the originals on exit. The
wrappers only time and count; arguments and results pass through untouched,
so a traced run computes the same numbers as an untraced one.

Counts made next to the spans are computed from argument and result shapes,
not measured: convolution FLOPs issued by the current engine versus FLOPs of
the kept output columns, and bytes moved as the sizes of the arrays each
``neural_core`` call reads and writes.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from collections import Counter

import numpy as np

LAYERS = ("cloud_io", "synth_lidar", "projection", "neural_core", "seg_net", "seg_objectives", "trainer")

# layer -> {public function: span name within the layer}. Functions that
# only set-up calls (build, glorot_uniform, fit_input_stats, miou) are left
# out: spans cover the timed loop.
FUNCTIONS = {
    "cloud_io": {
        "read_point_cloud": "read",
        "read_labels": "read",
        "read_range_image_bytes": "read",
        "write_point_cloud": "write",
        "write_labels": "write",
        "write_range_image_bytes": "write",
    },
    "synth_lidar": {"generate_scan": "generate_scan"},
    "projection": {
        name: name for name in ("unfold_scan", "project_ego_corrected", "backproject_labels", "occlusion_stats")
    },
    "neural_core": {
        name: name
        for name in (
            "slc_forward",
            "slc_backward",
            "norm_forward",
            "norm_backward",
            "norm_inference",
            "relu",
            "relu_backward",
            "upsample_width",
            "upsample_width_backward",
        )
    },
    "seg_objectives": {
        name: name for name in ("softmax", "cross_entropy", "dice_loss_on_logits", "accumulate_confusion")
    },
}

# (layer, class, method) -> span name
METHODS = {
    ("seg_net", "Network", "forward"): "seg_net.forward",
    ("seg_net", "Network", "backward"): "seg_net.backward",
    ("trainer", "Adam", "step"): "trainer.optimizer",
}

# the span the benchmark opens around one training step (batch gather, casts)
TRAIN_STEP_SPAN = "trainer.step"


def span_names() -> list[str]:
    """Every span name the instrumentation and the train step can record."""
    names = [f"{layer}.{span}" for layer, fns in FUNCTIONS.items() for span in fns.values()]
    names += list(METHODS.values()) + [TRAIN_STEP_SPAN]
    return list(dict.fromkeys(names))


class Tracer:
    """In-memory span log plus named counters.

    Each span is ``[name, start, end, parent]`` with ``parent`` the index of
    the enclosing span, or -1. Spans nest strictly: one thread, one stack.
    """

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []

    def begin(self, name: str) -> int:
        idx = len(self.spans)
        self.spans.append([name, self.clock(), 0.0, self._stack[-1] if self._stack else -1])
        self._stack.append(idx)
        return idx

    def end(self, idx: int) -> None:
        if self._stack.pop() != idx:
            raise RuntimeError(f"span {self.spans[idx][0]!r} closed out of order")
        self.spans[idx][2] = self.clock()

    def wrap(self, name: str, fn, count=None):
        """``fn`` inside a span named ``name``; ``count(counts, args, kwargs,
        result)`` runs after the span closes, so it is not layer time."""
        layer = name.split(".", 1)[0]

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self.begin(name)
            try:
                out = fn(*args, **kwargs)
            except BaseException:
                self.counts[f"{layer}.errors"] += 1
                raise
            finally:
                self.end(idx)
            if count is not None:
                count(self.counts, args, kwargs, out)
            return out

        return traced


def self_times(spans) -> dict[str, float]:
    """Total self time per span name: each span's duration minus the time its
    direct children cover."""
    own = [end - start for _, start, end, _ in spans]
    for _, start, end, parent in spans:
        if parent >= 0:
            own[parent] -= end - start
    totals: dict[str, float] = {}
    for (name, *_), t in zip(spans, own):
        totals[name] = totals.get(name, 0.0) + t
    return totals


def top_level_time(spans, skip: str | None = None) -> float:
    """Wall time covered by spans that have no enclosing span. Outermost
    spans named ``skip`` are looked through: their direct children count in
    their place."""
    return sum(
        end - start
        for name, start, end, parent in spans
        if name != skip and (parent < 0 or spans[parent][0] == skip)
    )


def accounting(index_map) -> tuple[int, int, int]:
    """(projected, occluded, out of range) points of a projection, counted
    from its index map."""
    projected = int(np.count_nonzero(index_map.pixel_to_point >= 0))
    occluded = int(index_map.occluded.shape[0])
    out_of_range = int(np.count_nonzero(index_map.point_to_pixel[:, 0] < 0))
    return projected, occluded, out_of_range


# -- computed counts ----------------------------------------------------------


def conv_flops(x_shape, weights_shape, pad_spec, stride_w: int = 1) -> tuple[int, int]:
    """(issued, useful) FLOPs of one ``slc_forward``.

    The engine runs one GEMM per kernel tap over every padded column of every
    output row and crops to the stride grid afterwards, so it issues
    ``h_out * wp`` output columns where only ``h_out * w_out`` are kept. A
    multiply-add counts as two FLOPs; the bias add is not counted.
    """
    b, h, w, c_in = x_shape
    i_k, j_k, _, c_out, _ = weights_shape
    hp, wp = h + 2 * pad_spec.i_pad, w + 2 * pad_spec.j_pad
    h_out = hp - i_k + 1
    w_out = (wp - j_k) // stride_w + 1
    per_column = 2 * b * h_out * i_k * j_k * c_in * c_out
    return per_column * wp, per_column * w_out


def _nbytes(value) -> int:
    if isinstance(value, np.ndarray):
        return value.nbytes
    if isinstance(value, (tuple, list)):
        return sum(_nbytes(v) for v in value)
    weights = getattr(value, "weights", None)  # SlcKernel
    if isinstance(weights, np.ndarray):
        return weights.nbytes + value.bias.nbytes
    return 0


def _count_bytes_moved(counts, args, kwargs, out):
    counts["neural_core.bytes_moved"] += _nbytes(args) + _nbytes(tuple(kwargs.values())) + _nbytes(out)


def _conv_counter(fn, span: str, passes: int):
    """Counter for slc_forward (one GEMM per tap) or slc_backward (two: the
    input and the weight gradient, each the size of the forward GEMM)."""
    signature = inspect.signature(fn)

    def count(counts, args, kwargs, out):
        _count_bytes_moved(counts, args, kwargs, out)
        bound = signature.bind(*args, **kwargs)
        bound.apply_defaults()
        a = bound.arguments
        issued, useful = conv_flops(a["x"].shape, a["kernel"].weights.shape, a["pad_spec"], a["stride_w"])
        counts[f"{span}.flop_issued"] += passes * issued
        counts[f"{span}.flop_useful"] += passes * useful

    return count


def _count_io_read(counts, args, kwargs, out):
    counts["cloud_io.bytes_read"] += len(args[0] if args else next(iter(kwargs.values())))


def _count_io_write(counts, args, kwargs, out):
    counts["cloud_io.bytes_written"] += len(out)


def _count_scan(counts, args, kwargs, out):
    sensor = args[0] if args else kwargs["sensor"]
    counts["synth_lidar.rays_cast"] += sensor.n_beams * sensor.firings_per_rev
    counts["synth_lidar.points"] += len(out)


def _count_projection(counts, args, kwargs, out):
    index_map = out[1]
    counts["projection.points"] += index_map.n_points
    for name, n in zip(("projected", "occluded", "out_of_range"), accounting(index_map)):
        counts[f"projection.{name}"] += n


def _counter_for(layer: str, fn_name: str, span: str, fn):
    if layer == "cloud_io":
        return _count_io_read if span == "read" else _count_io_write
    if fn_name == "generate_scan":
        return _count_scan
    if fn_name in ("unfold_scan", "project_ego_corrected"):
        return _count_projection
    if fn_name == "slc_forward":
        return _conv_counter(fn, f"{layer}.{span}", 1)
    if fn_name == "slc_backward":
        return _conv_counter(fn, f"{layer}.{span}", 2)
    if layer == "neural_core":
        return _count_bytes_moved
    return None


class Instrumentation:
    """Context manager that swaps the traced functions in and out.

    The swap list is built once, so entering and leaving per operation costs
    a few dozen attribute writes.
    """

    def __init__(self, tracer: Tracer):
        modules = [m for name, m in sorted(sys.modules.items()) if name == "scanseg" or name.startswith("scanseg.")]
        self._swaps: list[tuple[object, str, object, object]] = []
        for layer, names in FUNCTIONS.items():
            module = importlib.import_module(f"scanseg.{layer}")
            for fn_name, span in names.items():
                original = getattr(module, fn_name)
                wrapped = tracer.wrap(f"{layer}.{span}", original, _counter_for(layer, fn_name, span, original))
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            self._swaps.append((mod, attr, original, wrapped))
        for (layer, cls_name, method), span in METHODS.items():
            cls = getattr(importlib.import_module(f"scanseg.{layer}"), cls_name)
            original = cls.__dict__[method]
            self._swaps.append((cls, method, original, tracer.wrap(span, original)))

    def __enter__(self):
        for owner, attr, _, wrapped in self._swaps:
            setattr(owner, attr, wrapped)
        return self

    def __exit__(self, *exc):
        for owner, attr, original, _ in reversed(self._swaps):
            setattr(owner, attr, original)
        return False
