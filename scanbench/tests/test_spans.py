import itertools

import numpy as np
import pytest

from scanseg import neural_core, projection, seg_net
from scanseg.neural_core import PadSpec, SlcKernel

from scanbench.spans import Instrumentation, Tracer, conv_flops, self_times, top_level_time
from scanbench.workloads import InferWorkload, TrainWorkload


def test_self_time_subtracts_direct_children_only():
    spans = [
        ["a", 0.0, 10.0, -1],
        ["b", 1.0, 4.0, 0],
        ["c", 5.0, 7.0, 0],
        ["d", 5.5, 6.0, 2],
        ["b", 12.0, 13.0, -1],
    ]
    assert self_times(spans) == {"a": 5.0, "b": 4.0, "c": 1.5, "d": 0.5}
    assert top_level_time(spans) == 11.0
    assert top_level_time(spans, skip="a") == 6.0  # a's children count in its place


def test_tracer_records_parents_from_nesting():
    ticks = iter([0.0, 1.0, 3.0, 4.0, 5.0, 9.0])
    tracer = Tracer(clock=lambda: next(ticks))

    def inner():
        tracer.end(tracer.begin("leaf"))

    outer = tracer.begin("outer")
    tracer.wrap("inner", inner)()
    tracer.end(outer)
    assert [s[3] for s in tracer.spans] == [-1, 0, 1]
    assert self_times(tracer.spans) == {"outer": 5.0, "inner": 3.0, "leaf": 1.0}


def test_wrapper_counts_errors_and_reraises():
    tracer = Tracer()

    def boom():
        raise ValueError("bad input")

    with pytest.raises(ValueError):
        tracer.wrap("projection.unfold_scan", boom)()
    assert tracer.counts["projection.errors"] == 1
    assert tracer.spans[0][2] >= tracer.spans[0][1]


def _counting_gemm(counter):
    real = {np.dtype(np.float64): neural_core._blas.dgemm}

    def gemm_for(dtype):
        gemm = real[np.dtype(dtype)]

        def counted(alpha, a, b, beta=0.0, c=None, trans_a=False, trans_b=False, overwrite_c=False):
            m, k = (a.shape[1], a.shape[0]) if trans_a else a.shape
            n = b.shape[0] if trans_b else b.shape[1]
            counter[0] += 2 * m * n * k
            return gemm(alpha, a, b, beta=beta, c=c, trans_a=trans_a, trans_b=trans_b, overwrite_c=overwrite_c)

        return counted

    return gemm_for


def test_conv_flop_formula_matches_brute_force_count(monkeypatch):
    rng = np.random.default_rng(5)
    b, h, w, c_in, c_out, alpha, stride = 2, 4, 7, 3, 2, 2, 2
    x = rng.standard_normal((b, h, w, c_in))
    kernel = SlcKernel(weights=rng.standard_normal((3, 3, c_in, c_out, alpha)), bias=rng.standard_normal((c_out, alpha)))
    spec = PadSpec.same(3, 3, "cyclic")

    issued_counter = [0]
    monkeypatch.setattr(neural_core, "_gemm_for", _counting_gemm(issued_counter))
    y = neural_core.slc_forward(x, kernel, spec, stride)
    issued_fwd = issued_counter[0]
    neural_core.slc_backward(x, kernel, spec, np.ones_like(y), stride)
    issued_bwd = issued_counter[0] - issued_fwd

    # direct convolution of the kept outputs only, counting multiply-adds
    xp = np.concatenate([x[:, :, -1:], x, x[:, :, :1]], axis=2)
    xp = np.pad(xp, ((0, 0), (1, 1), (0, 0), (0, 0)))
    useful = 0
    ref = np.empty_like(y)
    for bi, r, col, co in itertools.product(range(b), range(h), range(y.shape[2]), range(c_out)):
        a = (r * alpha) // h
        acc = kernel.bias[co, a]
        for i, j, ci in itertools.product(range(3), range(3), range(c_in)):
            acc += xp[bi, r + i, col * stride + j, ci] * kernel.weights[i, j, ci, co, a]
            useful += 2
        ref[bi, r, col, co] = acc
    np.testing.assert_allclose(y, ref, rtol=1e-12, atol=1e-12)

    formula_issued, formula_useful = conv_flops(x.shape, kernel.weights.shape, spec, stride)
    assert formula_useful == useful
    assert formula_issued == issued_fwd
    assert 2 * formula_issued == issued_bwd


def test_instrumentation_restores_every_function():
    before = (seg_net.slc_forward, projection.unfold_scan, seg_net.Network.forward)
    tracer = Tracer()
    with Instrumentation(tracer):
        assert seg_net.slc_forward is not before[0]
        assert projection.unfold_scan is not before[1]
    assert (seg_net.slc_forward, projection.unfold_scan, seg_net.Network.forward) == before


def _train_losses(traced: bool):
    workload = TrainWorkload(seed=3, n_scans=4, h=8, w=64)
    workload.setup()
    tracer = Tracer()
    losses = []
    for i in range(3):
        if traced:
            with Instrumentation(tracer):
                losses.append(workload.run_op(i).payload)
        else:
            losses.append(workload.run_op(i).payload)
    return losses, workload.net.parameters(), tracer


def test_tracing_leaves_training_losses_and_weights_bit_identical():
    plain, plain_params, _ = _train_losses(traced=False)
    traced, traced_params, tracer = _train_losses(traced=True)
    assert plain == traced
    assert all(np.array_equal(plain_params[k], traced_params[k]) for k in plain_params)
    names = {s[0] for s in tracer.spans}
    assert {"seg_net.forward", "neural_core.slc_backward", "trainer.optimizer", "seg_objectives.softmax"} <= names


def test_tracing_leaves_inference_logits_bit_identical():
    workload = InferWorkload(seed=4, h=8, w=64, preset="a", n_classes=6, pool_scans=2)
    workload.setup()
    plain = [workload.run_op(i).payload[3] for i in range(2)]
    tracer = Tracer()
    with Instrumentation(tracer):
        traced = [workload.run_op(i).payload[3] for i in range(2)]
    assert all(a.tobytes() == b.tobytes() for a, b in zip(plain, traced))
    assert tracer.counts["neural_core.slc_forward.flop_issued"] > 0
    assert tracer.counts["cloud_io.bytes_read"] == sum(len(workload.pool[i][0]) for i in range(2))
