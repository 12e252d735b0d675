import ast
import itertools
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import central_diff_grad, max_rel_err, reference_conv, reference_conv_grads, reference_norm_backward, reference_norm_forward
import scanseg
from scanseg import neural_core, seg_net
from scanseg.seg_objectives import objective, softmax
from scanseg.trainer import Adam
from scanseg.neural_core import (
    NORM_EPS,
    PadSpec,
    SlcKernel,
    _component_bands,
    _pad_rows,
    _row_bands,
    _split,
    fold_norm,
    glorot_uniform,
    norm_backward,
    norm_forward,
    norm_inference,
    norm_output,
    relu,
    relu_backward,
    slc_backward,
    slc_forward,
    upsample_width,
    upsample_width_backward,
)

GRAD_TOL = 1e-3
EPS = 1e-3


def _rand(shape, seed=0):
    return np.random.default_rng(seed).standard_normal(shape)


def padded(x, spec, r0=0, r1=None):
    """Rows [r0, r1) of the padded grid the convolutions run on, all rows by
    default, one sample at a time."""
    b, h, w, c = x.shape
    r1 = h + 2 * spec.i_pad if r1 is None else r1
    return np.stack([_pad_rows(xb, spec, r0, np.full((r1 - r0, w + 2 * spec.j_pad, c), np.nan)) for xb in x])


def record_gemms(monkeypatch):
    """Patches ``neural_core`` so that every GEMM appends ``(a.shape,
    b.shape, trans_b, conv)`` to the returned list before it runs, where
    ``conv`` is the ``(h_out, alpha, wp, min_rows, shifts)`` its convolution
    last passed to ``_row_bands``."""
    calls, conv = [], [None]
    gemm_for, row_bands = neural_core._gemm_for, neural_core._row_bands

    def recording_bands(*args):
        conv[0] = args
        return row_bands(*args)

    def recording(dtype):
        gemm = gemm_for(dtype)

        def call(alpha, a, b, **kw):
            calls.append((a.shape, b.shape, kw.get("trans_b", False), conv[0]))
            return gemm(alpha, a, b, **kw)

        return call

    monkeypatch.setattr(neural_core, "_row_bands", recording_bands)
    monkeypatch.setattr(neural_core, "_gemm_for", recording)
    return calls


def mnk(call):
    """Multiply-adds of one recorded GEMM."""
    (m, k), b, trans_b, _ = call
    return m * k * (b[0] if trans_b else b[1])


class TestPad:
    def test_cyclic_row(self):
        x = np.arange(4.0).reshape(1, 1, 4, 1)  # [a b c d]
        out = padded(x, PadSpec(0, 1, "cyclic"))
        np.testing.assert_array_equal(out[0, 0, :, 0], [3, 0, 1, 2, 3, 0])

    def test_zero_row(self):
        x = np.arange(1.0, 5.0).reshape(1, 1, 4, 1)
        out = padded(x, PadSpec(0, 1, "zeros"))
        np.testing.assert_array_equal(out[0, 0, :, 0], [0, 1, 2, 3, 4, 0])

    def test_zero_amount_is_identity(self):
        x = _rand((2, 3, 4, 5))
        np.testing.assert_array_equal(padded(x, PadSpec(0, 0, "cyclic")), x)

    def test_height_always_zeros(self):
        x = np.ones((1, 2, 2, 1))
        out = padded(x, PadSpec(1, 0, "cyclic"))
        assert out.shape == (1, 4, 2, 1)
        assert (out[:, 0] == 0).all() and (out[:, -1] == 0).all()

    def test_cyclic_amount_beyond_width(self):
        k = SlcKernel(weights=np.ones((1, 1, 1, 1, 1)), bias=np.zeros((1, 1)))
        x, spec = np.ones((1, 2, 3, 1)), PadSpec(0, 4, "cyclic")
        with pytest.raises(ValueError, match="exceeds width"):
            slc_forward(x, k, spec)
        with pytest.raises(ValueError, match="exceeds width"):
            slc_backward(x, k, spec, np.ones((1, 2, 11, 1)))

    def test_bad_spec(self):
        with pytest.raises(ValueError):
            PadSpec(-1, 0)
        with pytest.raises(ValueError):
            PadSpec(0, 0, "mirror")

    @settings(max_examples=25)
    @given(st.integers(0, 2**31), st.integers(1, 6), st.integers(1, 8), st.sampled_from(["zeros", "cyclic"]))
    def test_crop_recovers_original(self, seed, h, w, mode):
        x = np.random.default_rng(seed).standard_normal((1, h, w, 2))
        spec = PadSpec(1, min(2, w), mode)
        out = padded(x, spec)
        core = out[:, spec.i_pad : spec.i_pad + h, spec.j_pad : spec.j_pad + w, :]
        np.testing.assert_array_equal(core, x)

    def test_spread_row(self):
        # source columns land two apart on a 6-column core, and the cyclic
        # padding wraps the spread core
        x = np.arange(1.0, 4.0).reshape(1, 3, 1)  # [a b c]
        out = _pad_rows(x, PadSpec(0, 1, "cyclic"), 0, np.full((1, 8, 1), np.nan), spread=2)
        np.testing.assert_array_equal(out[0, :, 0], [0, 1, 0, 2, 0, 3, 0, 1])

    def test_pad_backward_folds_wrapped_columns(self):
        # a 1 x 5 kernel wraps two of the four columns onto each side; the
        # input gradient brings theirs back to the source columns
        x = _rand((1, 2, 4, 1), seed=3)
        k = SlcKernel(weights=_rand((1, 5, 1, 2, 1), seed=4), bias=np.zeros((2, 1)))
        spec = PadSpec.same(1, 5, "cyclic")
        for stride in (1, 2):
            up = _rand((1, 2, 4 // stride, 2), seed=5)
            analytic = slc_backward(x, k, spec, up, stride)[0]
            num = central_diff_grad(lambda: float((slc_forward(x, k, spec, stride) * up).sum()), x, EPS)
            assert max_rel_err(analytic, num) < GRAD_TOL

    @settings(max_examples=25)
    @given(st.integers(0, 2**31), st.integers(1, 6), st.integers(1, 8), st.sampled_from(["zeros", "cyclic"]), st.data())
    def test_row_bands_tile_the_grid(self, seed, h, w, mode, data):
        # any rows of the grid, halo or height padding only included, equal
        # the whole grid's, and the input gradient run in any bands is the
        # adjoint of the forward: <conv(x), u> = <x, grad_x(u)>
        rng = np.random.default_rng(seed)
        x = rng.standard_normal((2, h, w, 2))
        spec = PadSpec(data.draw(st.integers(0, 2)), data.draw(st.integers(0, w)), mode)
        whole = padded(x, spec)
        hp = whole.shape[1]
        r0 = data.draw(st.integers(0, hp - 1))
        r1 = data.draw(st.integers(r0 + 1, hp))
        np.testing.assert_array_equal(padded(x, spec, r0, r1), whole[:, r0:r1])
        spec = PadSpec(spec.i_pad, min(spec.j_pad, 2), mode)
        k = SlcKernel(weights=rng.standard_normal((2 * spec.i_pad + 1, 2 * spec.j_pad + 1, 2, 3, 1)), bias=np.zeros((3, 1)))
        stride = data.draw(st.integers(1, 3))
        up = rng.standard_normal((2, h, (w - 1) // stride + 1, 3))
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(neural_core, "_BAND_COLS", data.draw(st.integers(1, 3)) * (w + 2 * spec.j_pad))
            patch.setattr(neural_core, "_SMALL_GEMM", 0)
            gx = slc_backward(x, k, spec, up, stride)[0]
        np.testing.assert_allclose((x * gx).sum(), (slc_forward(x, k, spec, stride) * up).sum(), rtol=1e-12)

    @settings(max_examples=200)
    @given(st.integers(-50, 50), st.integers(0, 300), st.integers(1, 40))
    def test_split_is_even_and_contiguous(self, r0, n, k):
        parts = _split(r0, r0 + n, k)
        assert len(parts) == k
        assert [lo for lo, _ in parts] == [r0] + [hi for _, hi in parts[:-1]] and parts[-1][1] == r0 + n
        sizes = [hi - lo for lo, hi in parts]
        assert max(sizes) - min(sizes) <= 1 and max(sizes) == -(-n // k)
        # range i starts at r0 + ceil(i * n / k), the component rule
        assert all(lo - r0 == -(-i * n // k) for i, (lo, _) in enumerate(parts))

    @settings(max_examples=200)
    @given(
        st.integers(1, 80), st.integers(1, 4), st.integers(1, 2000), st.integers(1, 40), st.sampled_from([(0,), (-1, 0, 1), (-2, -1, 0, 1, 2)])
    )
    def test_row_bands_keep_min_rows_and_step(self, h, alpha, wp, min_rows, shifts):
        # the bands tile the rows in order; tap row i of every row r of a band
        # reads row r + shifts[i] of comps[i]; they are cut only where such a
        # row crosses a component boundary, and between cuts none is under
        # min_rows unless it is its whole run, their sizes differ by at most
        # one, and none is over the step unless min_rows allows fewer bands
        alpha = min(alpha, h)
        step = -(-neural_core._BAND_COLS // wp)
        bands = list(_row_bands(h, alpha, wp, min_rows, shifts))
        assert [h0 for _, h0, _ in bands] == [0] + [h1 for _, _, h1 in bands[:-1]] and bands[-1][2] == h
        comp = (np.arange(h) * alpha) // h
        for comps, h0, h1 in bands:
            rows = np.arange(h0, h1)
            assert all((comp[np.clip(rows + s, 0, h - 1)] == a).all() for a, s in zip(comps, shifts))
        cuts = sorted({0, h} | {c - s for _, c, _ in _component_bands(h, alpha)[1:] for s in shifts if 0 < c - s < h})
        for c0, c1 in zip(cuts, cuts[1:]):
            n = c1 - c0
            sizes = [h1 - h0 for _, h0, h1 in bands if c0 <= h0 < c1]
            assert sum(sizes) == n
            assert min(sizes) >= min(min_rows, n) and max(sizes) - min(sizes) <= 1
            assert max(sizes) <= step or n // min_rows < -(-n // step)

    def test_seam_bands_around_each_component_boundary(self):
        # the input gradient of a 3 x 3 kernel at alpha 2 over 8 rows: rows 3
        # and 4 each gather from both components, one row band apiece
        bands = list(_row_bands(8, 2, 10, 1, (-1, 0, 1)))
        assert [(h0, h1) for _, h0, h1 in bands] == [(0, 3), (3, 4), (4, 5), (5, 8)]
        assert [comps for comps, _, _ in bands] == [(0, 0, 0), (0, 0, 1), (0, 1, 1), (1, 1, 1)]


class TestSlcForward:
    def test_per_row_scaling(self):
        x = np.ones((1, 2, 2, 1))
        k = SlcKernel(weights=np.array([2.0, 3.0]).reshape(1, 1, 1, 1, 2), bias=np.zeros((1, 2)))
        y = slc_forward(x, k, PadSpec(0, 0))
        np.testing.assert_array_equal(y[0, :, :, 0], [[2, 2], [3, 3]])

    def test_identity_kernel(self):
        x = _rand((2, 4, 6, 3), seed=1)
        w = np.zeros((3, 3, 3, 3, 1))
        for c in range(3):
            w[1, 1, c, c, 0] = 1.0
        k = SlcKernel(weights=w, bias=np.zeros((3, 1)))
        np.testing.assert_allclose(slc_forward(x, k, PadSpec.same(3, 3)), x, atol=1e-12)

    @staticmethod
    def component_of_rows(h, alpha):
        comp = np.full(h, -1)
        for a, h0, h1 in _component_bands(h, alpha):
            comp[h0:h1] = a
        return comp

    def test_component_selection_fixtures(self):
        # height 8: two components split the halves; eight give one per row
        np.testing.assert_array_equal(self.component_of_rows(8, 2), [0, 0, 0, 0, 1, 1, 1, 1])
        np.testing.assert_array_equal(self.component_of_rows(8, 8), np.arange(8))
        for h, alpha in ((7, 3), (5, 2), (64, 5), (64, 64), (1, 1)):
            np.testing.assert_array_equal(self.component_of_rows(h, alpha), (np.arange(h) * alpha) // h)

    def test_component_rows_drive_output(self):
        x = np.ones((1, 8, 3, 1))
        k = SlcKernel(weights=np.arange(1.0, 9.0).reshape(1, 1, 1, 1, 8), bias=np.zeros((1, 8)))
        y = slc_forward(x, k, PadSpec(0, 0))
        np.testing.assert_array_equal(y[0, :, 0, 0], np.arange(1.0, 9.0))

    def test_pointwise_bands_stay_above_small_gemm(self, monkeypatch):
        # a band's GEMMs run over _SMALL_GEMM multiply-adds each, here at
        # least 31 rows of a 1 x 1 conv, so a sample's 64 rows run as two
        # even bands, and the output has the bits of one GEMM per component
        rng = np.random.default_rng(27)
        x = rng.standard_normal((2, 64, 256, 32)).astype(np.float32)
        k = glorot_uniform(rng, 1, 1, 32, 4)
        k.bias[:] = rng.standard_normal(k.bias.shape)
        calls = record_gemms(monkeypatch)
        y = slc_forward(x, k, PadSpec(0, 0))
        assert [b for _, b, _, _ in calls] == 2 * 2 * [(32, 32 * 256)]
        assert 4 * 31 * 256 * 32 > neural_core._SMALL_GEMM >= 4 * 30 * 256 * 32
        monkeypatch.setattr(neural_core, "_BAND_COLS", 64 * 256)
        assert slc_forward(x, k, PadSpec(0, 0)).tobytes() == y.tobytes()
        assert [b for _, b, _, _ in calls[4:]] == 2 * [(32, 64 * 256)]

    @pytest.mark.parametrize("c_in, stride", [(32, 1), (48, 2)])
    def test_bands_keep_the_bits_of_one_gemm_per_component(self, monkeypatch, c_in, stride):
        # 20 output channels are not a multiple of 16, so a band GEMM under
        # _SMALL_GEMM multiply-adds would round its last four rows apart
        rng = np.random.default_rng(c_in + stride)
        x = rng.standard_normal((2, 64, 256, c_in)).astype(np.float32)
        k = glorot_uniform(rng, 3, 3, c_in, 20)
        spec = PadSpec.same(3, 3, "cyclic")
        y = slc_forward(x, k, spec, stride)
        monkeypatch.setattr(neural_core, "_BAND_COLS", 64 * 258)
        assert slc_forward(x, k, spec, stride).tobytes() == y.tobytes()

    def test_channel_mismatch(self):
        k = glorot_uniform(np.random.default_rng(0), 3, 3, 4, 2)
        with pytest.raises(ValueError, match="channels"):
            slc_forward(np.ones((1, 4, 4, 3)), k, PadSpec.same(3, 3))

    def test_alpha_exceeding_height(self):
        k = glorot_uniform(np.random.default_rng(0), 1, 1, 1, 1, alpha=5)
        with pytest.raises(ValueError, match="alpha"):
            slc_forward(np.ones((1, 4, 4, 1)), k, PadSpec(0, 0))

    def test_kernel_validation(self):
        with pytest.raises(ValueError, match="odd"):
            SlcKernel(weights=np.zeros((2, 3, 1, 1, 1)), bias=np.zeros((1, 1)))
        with pytest.raises(ValueError, match="bias"):
            SlcKernel(weights=np.zeros((3, 3, 1, 2, 2)), bias=np.zeros((2, 1)))

    def test_matches_reference_conv_alpha_one(self):
        rng = np.random.default_rng(7)
        for mode in ("zeros", "cyclic"):
            for _ in range(10):
                x = rng.standard_normal((2, 5, 9, 3))
                w4 = rng.standard_normal((3, 3, 3, 4))
                b = rng.standard_normal(4)
                k = SlcKernel(weights=w4[..., None], bias=b[:, None])
                y = slc_forward(x, k, PadSpec.same(3, 3, mode))
                ref = reference_conv(x, w4, b, cyclic=(mode == "cyclic"))
                np.testing.assert_allclose(y, ref, atol=1e-12)

    def test_param_count_linear_in_alpha(self):
        counts = []
        for alpha in (1, 2, 3, 4):
            k = glorot_uniform(np.random.default_rng(0), 3, 3, 2, 4, alpha=alpha)
            assert k.param_count == 3 * 3 * 2 * 4 * alpha + 4 * alpha
            counts.append(k.param_count)
        assert all(b > a for a, b in zip(counts, counts[1:]))


class TestSlcBackward:
    @pytest.mark.parametrize("alpha", [1, 2, 3])
    def test_central_difference(self, alpha):
        rng = np.random.default_rng(10 + alpha)
        x = rng.standard_normal((1, 6, 8, 2))
        k = SlcKernel(weights=rng.standard_normal((3, 3, 2, 3, alpha)), bias=rng.standard_normal((3, alpha)))
        spec = PadSpec.same(3, 3, "cyclic")
        up = rng.standard_normal((1, 6, 8, 3))

        def loss():
            return float((slc_forward(x, k, spec) * up).sum())

        gx, gw, gb = slc_backward(x, k, spec, up)
        assert max_rel_err(gx, central_diff_grad(loss, x, EPS)) < GRAD_TOL
        assert max_rel_err(gw, central_diff_grad(loss, k.weights, EPS)) < GRAD_TOL
        assert max_rel_err(gb, central_diff_grad(loss, k.bias, EPS)) < GRAD_TOL

    def test_zero_upstream_zero_grads(self):
        rng = np.random.default_rng(2)
        x = rng.standard_normal((1, 4, 6, 2))
        k = glorot_uniform(rng, 3, 3, 2, 2, alpha=2, dtype=np.float64)
        gx, gw, gb = slc_backward(x, k, PadSpec.same(3, 3), np.zeros((1, 4, 6, 2)))
        assert not gx.any() and not gw.any() and not gb.any()

    def test_alpha_one_matches_reference_grads(self):
        rng = np.random.default_rng(3)
        for mode in ("zeros", "cyclic"):
            x = rng.standard_normal((2, 5, 7, 3))
            w4 = rng.standard_normal((3, 3, 3, 2))
            up = rng.standard_normal((2, 5, 7, 2))
            k = SlcKernel(weights=w4[..., None], bias=np.zeros((2, 1)))
            gx, gw, gb = slc_backward(x, k, PadSpec.same(3, 3, mode), up)
            rx, rw, rb = reference_conv_grads(x, w4, up, cyclic=(mode == "cyclic"))
            np.testing.assert_allclose(gx, rx, atol=1e-12)
            np.testing.assert_allclose(gw[..., 0], rw, atol=1e-12)
            np.testing.assert_allclose(gb[:, 0], rb, atol=1e-12)

    def test_upstream_shape_checked(self):
        rng = np.random.default_rng(4)
        x = rng.standard_normal((1, 4, 4, 2))
        k = glorot_uniform(rng, 3, 3, 2, 2, dtype=np.float64)
        with pytest.raises(ValueError, match="upstream"):
            slc_backward(x, k, PadSpec.same(3, 3), np.zeros((1, 4, 5, 2)))

    def test_rejects_padding_other_than_same(self):
        # the input gradient gathers through the "same" padding only
        rng = np.random.default_rng(5)
        x = rng.standard_normal((1, 4, 6, 2))
        k = glorot_uniform(rng, 3, 3, 2, 2, dtype=np.float64)
        for spec in (PadSpec(0, 1), PadSpec(1, 0, "cyclic"), PadSpec(2, 1)):
            y = slc_forward(x, k, spec)
            with pytest.raises(ValueError, match=r"pad_spec PadSpec.same\(3, 3\)"):
                slc_backward(x, k, spec, np.zeros(y.shape))


BAND_SETTINGS = {"half": 0.5, "double": 2, "whole": None}


def band_settings(monkeypatch):
    """Yields the name of each ``_BAND_COLS`` setting, the default first,
    then half and double of it and one band per run of rows, with
    ``neural_core`` patched to it."""
    default = neural_core._BAND_COLS
    yield "default"
    for name, scale in BAND_SETTINGS.items():
        monkeypatch.setattr(neural_core, "_BAND_COLS", 10**9 if scale is None else int(default * scale))
        yield name


class TestBandInvariance:
    """No band setting moves a bit of a backward pass or of training."""

    @pytest.mark.parametrize("stride", [1, 2])
    @pytest.mark.parametrize("mode", ["zeros", "cyclic"])
    @pytest.mark.parametrize("alpha", [1, 2, 64])
    def test_backward_bits(self, monkeypatch, alpha, mode, stride):
        rng = np.random.default_rng(alpha + stride)
        x = rng.standard_normal((2, 64, 256, 32)).astype(np.float32)
        k = glorot_uniform(rng, 3, 3, 32, 32, alpha)
        k.bias[:] = rng.standard_normal(k.bias.shape)
        spec = PadSpec.same(3, 3, mode)
        up = rng.standard_normal((2, 64, 256 // stride, 32)).astype(np.float32)
        want = None
        for setting in band_settings(monkeypatch):
            got = [g.tobytes() for g in slc_backward(x, k, spec, up, stride)]
            want = want or got
            assert got == want, setting

    @pytest.mark.parametrize("alpha", [1, 2])
    def test_training_bits(self, monkeypatch, alpha):
        # a seeded preset-A run: the first step's gradients and the weights
        # after five steps
        rng = np.random.default_rng(alpha)
        xs = rng.standard_normal((5, 2, 32, 128, 3)).astype(np.float32)
        ys = rng.integers(0, 4, size=(5, 2, 32, 128))
        want = None
        for setting in band_settings(monkeypatch):
            net = seg_net.build(seg_net.config_from_preset("a", n_classes=4, alpha_default=alpha), seed=alpha)
            opt = Adam(net.parameters(), 2e-3)
            steps = []
            for x, y in zip(xs, ys):
                loss = objective("ce+dice", softmax(net.forward(x, training=True)), y)
                net.backward(loss.grad.astype(np.float32))
                steps.append({n: g.tobytes() for n, g in net.grads().items()})
                opt.step(net.grads())
            got = (steps[0], {n: p.tobytes() for n, p in net.parameters().items()})
            want = want or got
            assert got == want, setting


class TestStridedGeometry:
    """slc_forward/slc_backward against the float64 shifted-slice oracles over
    stride, kernel width, input width parity, padding mode, batch and dtype."""

    @pytest.mark.parametrize("mode", ["zeros", "cyclic"])
    @pytest.mark.parametrize("w", [7, 8])
    @pytest.mark.parametrize("j_k", [1, 3, 5])
    @pytest.mark.parametrize("stride", [1, 2, 3])
    def test_matches_reference(self, stride, j_k, w, mode):
        rng = np.random.default_rng(100 * stride + 10 * j_k + w)
        cyclic = mode == "cyclic"
        spec = PadSpec.same(3, j_k, mode)
        for batch in (1, 2):
            for dtype, tol in ((np.float64, 1e-12), (np.float32, 1e-5)):
                x = rng.standard_normal((batch, 4, w, 3)).astype(dtype)
                w4 = rng.standard_normal((3, j_k, 3, 2)).astype(dtype)
                bias = rng.standard_normal(2).astype(dtype)
                k = SlcKernel(weights=w4[..., None], bias=bias[:, None])
                y = slc_forward(x, k, spec, stride)
                ref = reference_conv(x, w4, bias, stride_w=stride, cyclic=cyclic)
                assert y.dtype == dtype and y.shape == ref.shape == (batch, 4, (w - 1) // stride + 1, 2)
                assert max_rel_err(y, ref) < tol

                up = rng.standard_normal(y.shape).astype(dtype)
                grads = slc_backward(x, k, spec, up, stride)
                ref_grads = reference_conv_grads(x, w4, up, stride_w=stride, cyclic=cyclic)
                for got, want in zip(grads, ref_grads):
                    assert got.dtype == dtype
                    assert max_rel_err(got.reshape(want.shape), want) < tol

    @pytest.mark.parametrize("mode", ["zeros", "cyclic"])
    def test_alpha_two_stride_two_central_difference(self, mode):
        rng = np.random.default_rng(31)
        x = rng.standard_normal((2, 6, 9, 2))
        k = SlcKernel(weights=rng.standard_normal((3, 3, 2, 3, 2)), bias=rng.standard_normal((3, 2)))
        spec = PadSpec.same(3, 3, mode)
        up = rng.standard_normal((2, 6, 5, 3))

        def loss():
            return float((slc_forward(x, k, spec, 2) * up).sum())

        gx, gw, gb = slc_backward(x, k, spec, up, 2)
        assert max_rel_err(gx, central_diff_grad(loss, x, EPS)) < GRAD_TOL
        assert max_rel_err(gw, central_diff_grad(loss, k.weights, EPS)) < GRAD_TOL
        assert max_rel_err(gb, central_diff_grad(loss, k.bias, EPS)) < GRAD_TOL


    @pytest.mark.parametrize("mode", ["zeros", "cyclic"])
    @pytest.mark.parametrize("alpha", [1, 2])
    @pytest.mark.parametrize("stride", [1, 2])
    @pytest.mark.parametrize("w", [7, 8])
    def test_weight_gradient_across_row_blocks(self, monkeypatch, w, stride, alpha, mode):
        c_in, c_out, h, wp = 3, 2, 7, w + 2
        monkeypatch.setattr(neural_core, "_GW_MIN_ROWS", 1)
        rng = np.random.default_rng(10 * w + 5 * stride + alpha)
        components = list(_component_bands(h, alpha))
        spec = PadSpec.same(3, 3, mode)
        calls = record_gemms(monkeypatch)
        # blocks of two rows counted from each component's start, then, where
        # a row holds more pixels than a block may, each row in two pieces
        rows = [min(2, c1 - r) * wp for _, c0, c1 in components for r in range(c0, c1, 2)]
        halves = [hi - lo for lo, hi in _split(0, wp, 2)] * h
        for (gw_rows, grid), (dtype, tol) in itertools.product(
            ((2 * wp, rows), (wp // 2 + 1, halves)), ((np.float64, 1e-12), (np.float32, 1e-5))
        ):
            monkeypatch.setattr(neural_core, "_SMALL_GEMM", gw_rows * c_in * c_out)
            x = rng.standard_normal((2, h, w, c_in)).astype(dtype)
            k = SlcKernel(weights=rng.standard_normal((3, 3, c_in, c_out, alpha)).astype(dtype), bias=np.zeros((c_out, alpha), dtype))
            up = rng.standard_normal((2, h, (w - 1) // stride + 1, c_out)).astype(dtype)
            results = []
            # bands of one, three and all rows: each block runs its nine taps
            # over the same grid, so the gradients keep their bits
            for band_rows in (1, 3, h):
                monkeypatch.setattr(neural_core, "_BAND_COLS", band_rows * wp)
                calls.clear()
                results.append(slc_backward(x, k, spec, up, stride))
                assert [a[1] for a, _, trans_b, _ in calls if trans_b][::9] == 2 * grid
            for got in results[1:]:
                assert all(g.tobytes() == r.tobytes() for g, r in zip(got, results[0]))
            gx, gw, gb = results[0]
            # the semi-local conv is a sum over components of plain convs
            # whose upstream is masked to the component's rows
            ref_gx = np.zeros(x.shape)
            for a, h0, h1 in components:
                up_a = np.zeros(up.shape)
                up_a[:, h0:h1] = up[:, h0:h1]
                rx, rw, rb = reference_conv_grads(x, k.weights[..., a], up_a, stride_w=stride, cyclic=(mode == "cyclic"))
                ref_gx += rx
                assert gw.dtype == dtype and max_rel_err(gw[..., a], rw) < tol
                assert max_rel_err(gb[:, a], rb) < tol
            assert max_rel_err(gx, ref_gx) < tol

    @pytest.mark.parametrize("mode", ["zeros", "cyclic"])
    @pytest.mark.parametrize("stride", [1, 2])
    @pytest.mark.parametrize("band_rows", [1, 2])
    @pytest.mark.parametrize("h", [5, 7])
    def test_row_band_boundaries(self, monkeypatch, h, band_rows, stride, mode):
        c_in, c_out, alpha, w = 3, 2, 2, 7
        wp = w + 2
        spec = PadSpec.same(3, 3, mode)
        rng = np.random.default_rng(100 * h + 10 * band_rows + stride)
        monkeypatch.setattr(neural_core, "_BAND_COLS", band_rows * wp)
        monkeypatch.setattr(neural_core, "_SMALL_GEMM", 0)
        bands = list(_row_bands(h, alpha, wp))
        components = list(_component_bands(h, alpha))
        # the bands tile the rows, none crosses a component edge, and some
        # band is short where band_rows does not divide a component
        assert np.array_equal(np.concatenate([np.arange(h0, h1) for _, h0, h1 in bands]), np.arange(h))
        assert all(((np.arange(h0, h1) * alpha) // h == a).all() and h1 - h0 <= band_rows for (a,), h0, h1 in bands)
        assert len(bands) > alpha and (band_rows == 1 or any(h1 - h0 < band_rows for _, h0, h1 in bands))
        for dtype, tol in ((np.float64, 1e-12), (np.float32, 1e-5)):
            x = rng.standard_normal((2, h, w, c_in)).astype(dtype)
            k = SlcKernel(weights=rng.standard_normal((3, 3, c_in, c_out, alpha)).astype(dtype), bias=rng.standard_normal((c_out, alpha)).astype(dtype))
            y = slc_forward(x, k, spec, stride)
            up = rng.standard_normal(y.shape).astype(dtype)
            gx, gw, gb = slc_backward(x, k, spec, up, stride)
            with monkeypatch.context() as one_band:
                one_band.setattr(neural_core, "_BAND_COLS", h * wp)
                assert list(_row_bands(h, alpha, wp)) == [((a,), h0, h1) for a, h0, h1 in components]
                assert slc_forward(x, k, spec, stride).tobytes() == y.tobytes()
            ref_gx = np.zeros(x.shape)
            for a, h0, h1 in components:
                up_a = np.zeros(up.shape)
                up_a[:, h0:h1] = up[:, h0:h1]
                rx, rw, rb = reference_conv_grads(x, k.weights[..., a], up_a, stride_w=stride, cyclic=(mode == "cyclic"))
                ref_gx += rx
                assert gw.dtype == dtype and max_rel_err(gw[..., a], rw) < tol
                assert max_rel_err(gb[:, a], rb) < tol
            assert gx.dtype == dtype and max_rel_err(gx, ref_gx) < tol


def test_network_gemms_keep_the_small_gemm_rule(monkeypatch):
    # a preset-A training step at 2 x 64 x 256, the same at alpha 2 and
    # 2 x 64 x 64, and a preset-D eval forward at 1 x 64 x 512: every forward
    # and input-gradient GEMM runs over _SMALL_GEMM multiply-adds unless its
    # band is a whole run of rows between cuts shorter than the floor, and
    # every weight-gradient GEMM at most _SMALL_GEMM wherever its channels
    # allow blocks of _GW_MIN_ROWS pixels
    calls = record_gemms(monkeypatch)
    rng = np.random.default_rng(43)
    for alpha, w in ((1, 256), (2, 64)):
        net = seg_net.build(seg_net.config_from_preset("a", n_classes=4, alpha_default=alpha), seed=43)
        logits = net.forward(rng.standard_normal((2, 64, w, 3)).astype(np.float32), training=True)
        net.backward(rng.standard_normal(logits.shape).astype(np.float32))
    net = seg_net.build(seg_net.config_from_preset("d"), seed=44)
    net.forward(rng.standard_normal((1, 64, 512, 3)).astype(np.float32))

    small, short, seams, blocked = neural_core._SMALL_GEMM, [], [], []
    for call in calls:
        a, b, trans_b, (h_out, alpha, wp, min_rows, shifts) = call
        if trans_b:
            if a[0] * b[0] * neural_core._GW_MIN_ROWS <= small:
                assert mnk(call) <= small, call
                blocked.append(call)
        elif mnk(call) <= small:
            rows = b[1] // wp
            assert rows * wp == b[1] and rows < min_rows, call
            # with min_rows above the height, each run between cuts is a band
            assert rows in [h1 - h0 for _, h0, h1 in _row_bands(h_out, alpha, wp, h_out + 1, shifts)], call
            short.append(call)
            if rows == 1 and alpha > 1 and len(set(shifts)) > 1:
                seams.append(call)
    # every rule is exercised: preset A's 8-wide stage has 64-row components
    # under the floor, alpha 2 cuts one-row seam bands in the input
    # gradient, and the 32-channel weight gradients are blocked
    assert short and seams and blocked and len(calls) > len(short) + len(blocked)


def _peak_alloc(fn, *args):
    """Peak bytes that ``fn(*args)`` allocates, and its result."""
    tracemalloc.start()
    try:
        out = fn(*args)
        return tracemalloc.get_traced_memory()[1], out
    finally:
        tracemalloc.stop()


def test_convolution_holds_no_full_size_temporary():
    # 3 x 3 cyclic at 64 x 512 runs in many row bands: the forward allocates
    # its output and band buffers, the backward its input gradient and band
    # buffers (a full-size padded grid or padded-width output would add ~1x)
    rng = np.random.default_rng(40)
    x = rng.standard_normal((1, 64, 512, 32)).astype(np.float32)
    k = glorot_uniform(rng, 3, 3, 32, 32)
    spec = PadSpec.same(3, 3, "cyclic")
    peak, y = _peak_alloc(slc_forward, x, k, spec)
    assert peak <= 1.15 * y.nbytes
    up = rng.standard_normal(y.shape).astype(np.float32)
    peak, _ = _peak_alloc(slc_backward, x, k, spec, up)
    assert peak <= 1.25 * x.nbytes


def plain_kernel(w, b=None):
    """The alpha-1 kernel of a plain [I, J, C_in, C_out] convolution; its
    weights are a view of ``w``, so probing ``w`` in place probes the kernel."""
    b = np.zeros(w.shape[3]) if b is None else b
    return SlcKernel(w[..., None], b[:, None])


class TestConv:
    def test_stride_halves_width(self):
        x = _rand((1, 4, 8, 2), seed=5)
        w = _rand((3, 3, 2, 3), seed=6)
        assert slc_forward(x, plain_kernel(w), PadSpec.same(3, 3), stride_w=2).shape == (1, 4, 4, 3)

    def test_one_by_one_identity(self):
        x = _rand((2, 3, 5, 4), seed=7)
        w = np.eye(4).reshape(1, 1, 4, 4)
        np.testing.assert_allclose(slc_forward(x, plain_kernel(w), PadSpec.same(1, 1)), x, atol=1e-12)

    def test_equivalence_with_slc(self):
        rng = np.random.default_rng(8)
        for _ in range(20):
            x = rng.standard_normal((2, 4, 8, 3))
            w = rng.standard_normal((3, 3, 3, 2))
            b = rng.standard_normal(2)
            got = slc_forward(x, plain_kernel(w, b), PadSpec.same(3, 3))
            np.testing.assert_allclose(got, reference_conv(x, w, b), atol=1e-12)

    def test_strided_gradients(self):
        rng = np.random.default_rng(9)
        x = rng.standard_normal((1, 4, 8, 2))
        w = rng.standard_normal((3, 3, 2, 2))
        up = rng.standard_normal((1, 4, 4, 2))
        k, spec = plain_kernel(w), PadSpec.same(3, 3)

        def loss():
            return float((slc_forward(x, k, spec, stride_w=2) * up).sum())

        gx, gw, _ = slc_backward(x, k, spec, up, stride_w=2)
        assert max_rel_err(gx, central_diff_grad(loss, x, EPS)) < GRAD_TOL
        assert max_rel_err(gw[..., 0], central_diff_grad(loss, w, EPS)) < GRAD_TOL

    def test_strided_matches_reference(self):
        rng = np.random.default_rng(11)
        x = rng.standard_normal((2, 3, 10, 2))
        w = rng.standard_normal((3, 3, 2, 3))
        got = slc_forward(x, plain_kernel(w), PadSpec.same(3, 3), stride_w=2)
        ref = reference_conv(x, w, stride_w=2)
        np.testing.assert_allclose(got, ref, atol=1e-12)


class TestOut:
    """A conv writes its result, or its input gradient, into a given array."""

    @pytest.mark.parametrize("stride", [1, 2])
    def test_out_takes_the_bits_of_a_fresh_result(self, stride):
        rng = np.random.default_rng(12 + stride)
        x = rng.standard_normal((2, 5, 8, 3)).astype(np.float32)
        k = glorot_uniform(rng, 3, 3, 3, 4, alpha=2)
        k.bias[:] = rng.standard_normal(k.bias.shape)
        spec = PadSpec.same(3, 3, "cyclic")
        y = slc_forward(x, k, spec, stride)
        out = np.full(y.shape, np.nan, np.float32)  # old values never show
        assert slc_forward(x, k, spec, stride, out=out) is out
        assert out.tobytes() == y.tobytes()
        up = rng.standard_normal(y.shape).astype(np.float32)
        want = slc_backward(x, k, spec, up, stride)
        out = np.full(x.shape, np.nan, np.float32)
        got = slc_backward(x, k, spec, up, stride, out=out)
        assert got[0] is out
        assert [g.tobytes() for g in got] == [g.tobytes() for g in want]

    def test_out_is_checked(self):
        rng = np.random.default_rng(14)
        x = rng.standard_normal((1, 4, 6, 2))
        k = glorot_uniform(rng, 3, 3, 2, 2, dtype=np.float64)
        spec = PadSpec.same(3, 3)
        up = rng.standard_normal(x.shape)
        y, grads = slc_forward(x, k, spec), slc_backward(x, k, spec, up)
        # an out of another shape or dtype is left untouched, and the result
        # is a fresh array with the bits of a call without out
        for out in (np.full((1, 4, 3, 2), np.nan), np.full(x.shape, np.nan, np.float32)):
            got = slc_forward(x, k, spec, out=out)
            assert got is not out and got.tobytes() == y.tobytes()
            got = slc_backward(x, k, spec, up, out=out)
            assert got[0] is not out and [g.tobytes() for g in got] == [g.tobytes() for g in grads]
            assert np.isnan(out).all()
        with pytest.raises(ValueError, match="^out overlaps an input$"):
            slc_forward(x, k, spec, out=x)
        for out in (x, up):
            with pytest.raises(ValueError, match="^out overlaps an input$"):
                slc_backward(x, k, spec, up, out=out)


class TestSimpleOps:
    def test_upsample_repeats(self):
        x = np.array([1.0, 2.0]).reshape(1, 1, 2, 1)
        np.testing.assert_array_equal(upsample_width(x, 2)[0, 0, :, 0], [1, 1, 2, 2])

    def test_upsample_factor_validation(self):
        with pytest.raises(ValueError, match="factor"):
            upsample_width(np.ones((1, 1, 2, 1)), 0)

    def test_upsample_backward_sums_each_columns_copies(self):
        up = _rand((2, 3, 12, 4), seed=14)
        for factor in (1, 2, 3, 4):
            want = up.reshape(2, 3, 12 // factor, factor, 4).sum(axis=3)
            np.testing.assert_allclose(upsample_width_backward(up, factor), want, rtol=1e-14)
        with pytest.raises(ValueError, match="not divisible"):
            upsample_width_backward(up, 5)

    def test_upsample_gradient(self):
        x = _rand((1, 2, 3, 2), seed=12)
        up = _rand((1, 2, 6, 2), seed=13)
        analytic = upsample_width_backward(up, 2)
        num = central_diff_grad(lambda: float((upsample_width(x, 2) * up).sum()), x, EPS)
        assert max_rel_err(analytic, num) < GRAD_TOL

    def test_relu_values(self):
        assert relu(np.array(-1.0)) == 0.0
        assert relu(np.array(2.0)) == 2.0

    def test_relu_gradient_away_from_kink(self):
        rng = np.random.default_rng(14)
        x = rng.standard_normal((2, 3, 4, 2))
        x[np.abs(x) < 0.05] = 0.1
        up = rng.standard_normal(x.shape)
        analytic = relu_backward(x.copy(), up)
        # relu writes into its input, which the probe reads again
        num = central_diff_grad(lambda: float((relu(x.copy()) * up).sum()), x, EPS)
        assert max_rel_err(analytic, num) < GRAD_TOL

    def test_relu_writes_into_x(self):
        x = np.array([-1.5, 0.0, 2.0, -0.0], np.float32).reshape(1, 1, 4, 1)
        want = np.maximum(x, 0)
        got = relu(x)
        assert got is x and got.tobytes() == want.tobytes()

    def test_relu_backward_writes_into_x(self):
        rng = np.random.default_rng(24)
        x = rng.standard_normal((2, 3, 4, 2)).astype(np.float32)
        up = rng.standard_normal(x.shape).astype(np.float32)
        want = up * (x > 0)
        got = relu_backward(x, up)
        assert got is x and got.tobytes() == want.tobytes()


class TestNorm:
    def test_normalizes_batch_statistics(self):
        rng = np.random.default_rng(15)
        x = rng.normal(5.0, 3.0, size=(4, 8, 8, 3))
        y, _ = norm_forward(x, np.ones(3), np.zeros(3))
        assert np.abs(y.mean(axis=(0, 1, 2))).max() < 1e-4
        assert np.abs(y.var(axis=(0, 1, 2)) - 1.0).max() < 1e-4

    def test_scale_shift(self):
        x = _rand((2, 4, 4, 2), seed=16)
        gamma, beta = np.array([2.0, 0.5]), np.array([1.0, -1.0])
        y, _ = norm_forward(x, gamma, beta)
        np.testing.assert_allclose(y.mean(axis=(0, 1, 2)), beta, atol=1e-10)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_output_rebuilds_forward_bits_from_cache(self, dtype):
        rng = np.random.default_rng(25)
        x = rng.normal(2.0, 3.0, size=(2, 5, 8, 3)).astype(dtype)
        gamma = rng.uniform(0.5, 1.5, 3).astype(np.float32)
        beta = rng.standard_normal(3).astype(np.float32)
        y, (x_hat, *_) = norm_forward(x, gamma, beta)
        rebuilt = norm_output(x_hat, gamma, beta)
        assert rebuilt.dtype == y.dtype == dtype and rebuilt.shape == x.shape
        assert rebuilt.tobytes() == y.tobytes()

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_backward_matches_full_size_formula_without_its_temporary(self, dtype):
        rng = np.random.default_rng(26)
        x = rng.normal(1.0, 2.0, size=(2, 64, 256, 32)).astype(dtype)
        gamma = rng.uniform(0.5, 1.5, 32).astype(dtype)
        _, cache = norm_forward(x, gamma, np.zeros(32, dtype))
        up = rng.standard_normal(x.shape).astype(dtype)
        x_hat, inv_std = cache[0].reshape(-1, 32).copy(), cache[1]
        # the gradient is written into the upstream and x_hat * d_gamma into
        # x_hat, so only the per-channel vectors and einsum's buffer are
        # allocated: 0.85% of this tensor in float32, 0.82% in float64
        peak, (gx, d_gamma, d_beta) = _peak_alloc(norm_backward, up.copy(), cache, gamma)
        assert peak <= 0.02 * x.nbytes
        # the whole-tensor formula, one full-size temporary per line
        g2, n = up.reshape(-1, 32), up.size // 32
        want = g2 * n
        want -= g2.sum(axis=0)
        want -= x_hat * np.einsum("ij,ij->j", g2, x_hat)
        want *= gamma * inv_std / n
        assert gx.dtype == dtype and gx.tobytes() == want.tobytes()
        assert d_gamma.tobytes() == np.einsum("ij,ij->j", g2, x_hat).tobytes()
        assert d_beta.tobytes() == g2.sum(axis=0).tobytes()

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("c", [1, 2, 3, 32])
    def test_in_place_passes_match_the_out_of_place_reference(self, dtype, c):
        rng = np.random.default_rng(27)
        x = rng.normal(1.0, 2.0, size=(2, 16, 128, c)).astype(dtype)
        gamma = rng.uniform(0.5, 1.5, c).astype(dtype)
        beta = rng.standard_normal(c).astype(dtype)
        up = rng.standard_normal(x.shape).astype(dtype)
        want_y, want_cache = reference_norm_forward(x, gamma, beta)
        y, cache = norm_forward(x.copy(), gamma, beta)
        # the backward spends x_hat, so the forward's outputs are compared first
        self._assert_matches((y, *cache), (want_y, *want_cache), dtype, c)
        got = norm_backward(up.copy(), cache, gamma)
        self._assert_matches(got, reference_norm_backward(up, want_cache, gamma), dtype, c)

    @staticmethod
    def _assert_matches(got, want, dtype, c):
        for g, w in zip(got, want, strict=True):
            assert g.dtype == w.dtype and g.shape == w.shape
            if c == 1:
                # numpy sums a lone column pairwise and einsum in order, so
                # the mean and d_beta, and all that reads them, may differ
                # in the last bits
                tol = 1e-5 if dtype == np.float32 else 1e-12
                np.testing.assert_allclose(g, w, rtol=tol, atol=tol)
            else:
                assert g.tobytes() == w.tobytes()

    def test_passes_write_into_the_arrays_they_are_handed(self):
        rng = np.random.default_rng(28)
        x = rng.standard_normal((2, 3, 4, 2)).astype(np.float32)
        gamma, beta = np.array([1.5, 0.5], np.float32), np.array([0.2, -0.1], np.float32)
        up = rng.standard_normal(x.shape).astype(np.float32)
        _, (x_hat, *rest) = norm_forward(x, gamma, beta)
        assert np.shares_memory(x_hat, x) and x_hat.tobytes() == x.tobytes()
        gx, _, _ = norm_backward(up, (x_hat, *rest), gamma)
        assert np.shares_memory(gx, up) and gx.tobytes() == up.tobytes()

    def test_gradients(self):
        rng = np.random.default_rng(17)
        x = rng.standard_normal((2, 3, 4, 2))
        gamma = rng.standard_normal(2) + 1.5
        beta = rng.standard_normal(2)
        up = rng.standard_normal(x.shape)

        # both passes write into their input, which the probes read again
        def loss():
            return float((norm_forward(x.copy(), gamma, beta)[0] * up).sum())

        y, cache = norm_forward(x.copy(), gamma, beta)
        gx, d_gamma, d_beta = norm_backward(up.copy(), cache, gamma)
        assert max_rel_err(gx, central_diff_grad(loss, x, EPS)) < GRAD_TOL
        assert max_rel_err(d_gamma, central_diff_grad(loss, gamma, EPS)) < GRAD_TOL
        assert max_rel_err(d_beta, central_diff_grad(loss, beta, EPS)) < GRAD_TOL

    def test_statistics_match_two_pass_reference(self):
        # mean = 1e3 * std per channel: the variance must not cancel away
        rng = np.random.default_rng(20)
        std = np.array([0.5, 1.0, 2.0, 10.0])
        for dtype in (np.float32, np.float64):
            x = (1e3 * std + std * rng.standard_normal((2, 64, 256, 4))).astype(dtype)
            _, (_, _, mean, var) = norm_forward(x.copy(), np.ones(4, dtype), np.zeros(4, dtype))
            x64 = x.astype(np.float64)
            ref_mean = x64.mean(axis=(0, 1, 2))
            ref_var = ((x64 - ref_mean) ** 2).mean(axis=(0, 1, 2))
            np.testing.assert_allclose(mean, ref_mean, rtol=np.finfo(dtype).eps)
            np.testing.assert_allclose(var, ref_var, rtol=1e-9)

    @pytest.mark.parametrize("level", [0.1, 1e3 + 0.1])
    def test_constant_channel(self, level):
        rng = np.random.default_rng(21)
        for dtype in (np.float32, np.float64):
            x = rng.standard_normal((2, 8, 16, 2)).astype(dtype)
            x[..., 1] = level
            y, (_, _, _, var) = norm_forward(x, np.ones(2, dtype), np.zeros(2, dtype))
            assert (var >= 0).all() and var[1] < 1e-20
            assert np.isfinite(y).all()

    def test_inference_uses_running_stats(self):
        x = _rand((1, 2, 2, 2), seed=18)
        y = norm_inference(x, np.ones(2), np.zeros(2), np.zeros(2), np.ones(2))
        np.testing.assert_allclose(y, x / np.sqrt(1.0 + NORM_EPS), atol=1e-12)

    @pytest.mark.parametrize("mode", ["zeros", "cyclic"])
    def test_fold_matches_conv_then_inference_norm(self, mode):
        rng = np.random.default_rng(19)
        x = rng.standard_normal((2, 6, 8, 3))
        k = SlcKernel(weights=rng.standard_normal((3, 3, 3, 4, 2)), bias=rng.standard_normal((4, 2)))
        stats = (
            rng.uniform(0.5, 1.5, 4),  # gamma
            rng.standard_normal(4),  # beta
            rng.standard_normal(4),  # running mean
            rng.uniform(0.2, 3.0, 4),  # running variance
        )
        spec = PadSpec.same(3, 3, mode)
        for stride in (1, 2):
            folded = slc_forward(x, fold_norm(k, *stats), spec, stride)
            unfolded = norm_inference(slc_forward(x, k, spec, stride), *stats)
            assert max_rel_err(folded, unfolded) < 1e-12


class TestCyclicEquivariance:
    def _small_net(self, mode, seed=21):
        rng = np.random.default_rng(seed)
        layers = [
            glorot_uniform(rng, 3, 3, 2, 4, dtype=np.float64),
            glorot_uniform(rng, 3, 3, 4, 4, dtype=np.float64),
            glorot_uniform(rng, 3, 3, 4, 3, dtype=np.float64),
        ]
        spec = PadSpec.same(3, 3, mode)

        def run(x):
            t = x
            for k in layers:
                t = relu(slc_forward(t, k, spec))
            return t

        return run

    @pytest.mark.parametrize("shift", [1, 5, 16])
    def test_cyclic_net_commutes_with_rotation(self, shift):
        run = self._small_net("cyclic")
        x = _rand((1, 8, 32, 2), seed=22)
        rolled_out = run(np.roll(x, shift, axis=2))
        out_rolled = np.roll(run(x), shift, axis=2)
        assert np.abs(rolled_out - out_rolled).max() < 1e-10

    def test_zero_padding_breaks_rotation(self):
        run = self._small_net("zeros")
        x = _rand((1, 8, 32, 2), seed=23)
        diff = np.abs(run(np.roll(x, 5, axis=2)) - np.roll(run(x), 5, axis=2)).max()
        assert diff > 1e-3


# numpy names whose calls run a matrix product on numpy's own BLAS
NUMPY_PRODUCTS = ("dot", "inner", "matmul", "multi_dot", "tensordot", "vdot")


def _on_numpy(node):
    """Whether an attribute's owner is numpy or one of its modules (np.linalg)."""
    while isinstance(node, ast.Attribute):
        node = node.value
    return isinstance(node, ast.Name) and node.id in ("np", "numpy")


def test_every_matrix_product_goes_through_scipy_blas():
    # numpy's own OpenBLAS runs a second thread pool beside scipy's (see the
    # neural_core docstring), so src/scanseg runs no product through numpy
    offenders = []
    for path in sorted(Path(scanseg.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            op = getattr(node, "op", None)
            if isinstance(op, ast.MatMult):
                offenders.append(f"{path.name}:{node.lineno}: @")
            elif isinstance(node, ast.Attribute) and node.attr in NUMPY_PRODUCTS and _on_numpy(node.value):
                offenders.append(f"{path.name}:{node.lineno}: .{node.attr}")
            elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("numpy"):
                offenders += [f"{path.name}:{node.lineno}: import {a.name}" for a in node.names if a.name in NUMPY_PRODUCTS]
    assert offenders == []
