import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import central_diff_grad, max_rel_err, reference_conv, reference_conv_grads
from scanseg.neural_core import (
    PadSpec,
    SlcKernel,
    _component_bands,
    _flat_padded,
    conv_backward,
    conv_forward,
    glorot_uniform,
    norm_backward,
    norm_forward,
    norm_inference,
    pad_backward,
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


def padded(x, spec):
    """The padded grid the convolutions run on (no flat slack)."""
    return _flat_padded(x, spec, 1)[1]


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
        with pytest.raises(ValueError, match="exceeds width"):
            padded(np.ones((1, 2, 3, 1)), PadSpec(0, 4, "cyclic"))

    def test_bad_spec(self):
        with pytest.raises(ValueError):
            PadSpec(-1, 0)
        with pytest.raises(ValueError):
            PadSpec(0, 0, "mirror")

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 2**31), st.integers(1, 6), st.integers(1, 8), st.sampled_from(["zeros", "cyclic"]))
    def test_crop_recovers_original(self, seed, h, w, mode):
        x = np.random.default_rng(seed).standard_normal((1, h, w, 2))
        spec = PadSpec(1, min(2, w), mode)
        out = padded(x, spec)
        core = out[:, spec.i_pad : spec.i_pad + h, spec.j_pad : spec.j_pad + w, :]
        np.testing.assert_array_equal(core, x)

    def test_pad_backward_folds_wrapped_columns(self):
        x = _rand((1, 2, 4, 1), seed=3)
        spec = PadSpec(1, 2, "cyclic")
        up = _rand(padded(x, spec).shape, seed=4)
        analytic = pad_backward(up, spec, 2, 4)
        num = central_diff_grad(lambda: float((padded(x, spec) * up).sum()), x, EPS)
        assert max_rel_err(analytic, num) < GRAD_TOL


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


class TestConv:
    def test_stride_halves_width(self):
        x = _rand((1, 4, 8, 2), seed=5)
        w = _rand((3, 3, 2, 3), seed=6)
        assert conv_forward(x, w, stride_w=2).shape == (1, 4, 4, 3)

    def test_one_by_one_identity(self):
        x = _rand((2, 3, 5, 4), seed=7)
        w = np.eye(4).reshape(1, 1, 4, 4)
        np.testing.assert_allclose(conv_forward(x, w), x, atol=1e-12)

    def test_equivalence_with_slc(self):
        rng = np.random.default_rng(8)
        for _ in range(20):
            x = rng.standard_normal((2, 4, 8, 3))
            w = rng.standard_normal((3, 3, 3, 2))
            b = rng.standard_normal(2)
            k = SlcKernel(weights=w[..., None], bias=b[:, None])
            a = conv_forward(x, w, b)
            s = slc_forward(x, k, PadSpec.same(3, 3))
            assert np.abs(a - s).max() < 1e-6

    def test_strided_gradients(self):
        rng = np.random.default_rng(9)
        x = rng.standard_normal((1, 4, 8, 2))
        w = rng.standard_normal((3, 3, 2, 2))
        up = rng.standard_normal((1, 4, 4, 2))

        def loss():
            return float((conv_forward(x, w, stride_w=2) * up).sum())

        gx, gw, _ = conv_backward(x, w, up, stride_w=2)
        assert max_rel_err(gx, central_diff_grad(loss, x, EPS)) < GRAD_TOL
        assert max_rel_err(gw, central_diff_grad(loss, w, EPS)) < GRAD_TOL

    def test_strided_matches_reference(self):
        rng = np.random.default_rng(11)
        x = rng.standard_normal((2, 3, 10, 2))
        w = rng.standard_normal((3, 3, 2, 3))
        got = conv_forward(x, w, stride_w=2)
        ref = reference_conv(x, w, stride_w=2)
        np.testing.assert_allclose(got, ref, atol=1e-12)


class TestSimpleOps:
    def test_upsample_repeats(self):
        x = np.array([1.0, 2.0]).reshape(1, 1, 2, 1)
        np.testing.assert_array_equal(upsample_width(x, 2)[0, 0, :, 0], [1, 1, 2, 2])

    def test_upsample_factor_validation(self):
        with pytest.raises(ValueError, match="factor"):
            upsample_width(np.ones((1, 1, 2, 1)), 0)

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
        analytic = relu_backward(x, up)
        num = central_diff_grad(lambda: float((relu(x) * up).sum()), x, EPS)
        assert max_rel_err(analytic, num) < GRAD_TOL


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

    def test_gradients(self):
        rng = np.random.default_rng(17)
        x = rng.standard_normal((2, 3, 4, 2))
        gamma = rng.standard_normal(2) + 1.5
        beta = rng.standard_normal(2)
        up = rng.standard_normal(x.shape)

        def loss():
            return float((norm_forward(x, gamma, beta)[0] * up).sum())

        y, cache = norm_forward(x, gamma, beta)
        gx, d_gamma, d_beta = norm_backward(up, cache, gamma)
        assert max_rel_err(gx, central_diff_grad(loss, x, EPS)) < GRAD_TOL
        assert max_rel_err(d_gamma, central_diff_grad(loss, gamma, EPS)) < GRAD_TOL
        assert max_rel_err(d_beta, central_diff_grad(loss, beta, EPS)) < GRAD_TOL

    def test_inference_uses_running_stats(self):
        x = _rand((1, 2, 2, 2), seed=18)
        y = norm_inference(x, np.ones(2), np.zeros(2), np.zeros(2), np.ones(2), eps=0.0)
        np.testing.assert_allclose(y, x, atol=1e-12)


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
