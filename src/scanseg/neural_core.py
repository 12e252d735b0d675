"""Dense rank-4 tensor ops with hand-written backward passes.

Tensors are plain numpy arrays of shape [batch, height, width, channels],
float32 in production; the ops follow the input dtype so float64 oracles can
drive them. There is no autodiff graph: every op exposes an explicit
forward/backward pair and networks compose them by hand.

Convolutions are cross-correlations (no kernel flip). The general engine is
the semi-local convolution: its kernel carries ``alpha`` vertical components
of shape [I, J, C_in, C_out, alpha], and output row h uses component
``(h * alpha) // H``, so weight sharing along the vertical axis shrinks from
full (alpha = 1, a regular convolution) to none (alpha = H, one filter per
row). Width may be padded cyclically, closing the 360 degree cylinder of a
range image; height padding is always zeros because the scan has true top and
bottom boundaries.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import blas as _blas


@dataclass(frozen=True)
class PadSpec:
    """Padding amounts and width mode. Height is always zero-padded."""

    i_pad: int
    j_pad: int
    width_mode: str = "zeros"  # "zeros" | "cyclic"

    def __post_init__(self):
        if self.i_pad < 0 or self.j_pad < 0:
            raise ValueError("pad amounts must be >= 0")
        if self.width_mode not in ("zeros", "cyclic"):
            raise ValueError(f"unknown width padding mode {self.width_mode!r}")

    @classmethod
    def same(cls, i: int, j: int, width_mode: str = "zeros") -> "PadSpec":
        """Amounts that keep the spatial size of a stride-1 [i, j] kernel."""
        return cls(i // 2, j // 2, width_mode)


def pad_backward(grad_padded: np.ndarray, spec: PadSpec, h: int, w: int) -> np.ndarray:
    """Gradient of the padded grid ``_flat_padded`` builds: crop, and for
    cyclic mode fold the wrapped columns back onto their source columns."""
    ip, jp = spec.i_pad, spec.j_pad
    core = grad_padded[:, ip : ip + h, jp : jp + w, :].copy()
    if spec.width_mode == "cyclic" and jp > 0:
        core[:, :, w - jp :, :] += grad_padded[:, ip : ip + h, :jp, :]
        core[:, :, :jp, :] += grad_padded[:, ip : ip + h, jp + w :, :]
    return core


@dataclass
class SlcKernel:
    """Filter bank of a semi-local convolution.

    ``weights`` has shape [I, J, C_in, C_out, alpha], ``bias`` [C_out, alpha].
    I and J must be odd; alpha must not exceed the height of any feature map
    the kernel is applied to.
    """

    weights: np.ndarray
    bias: np.ndarray

    def __post_init__(self):
        if self.weights.ndim != 5:
            raise ValueError(f"kernel weights must be rank 5, got {self.weights.shape}")
        i, j, _, c_out, alpha = self.weights.shape
        if i % 2 == 0 or j % 2 == 0:
            raise ValueError(f"kernel extents must be odd, got {i}x{j}")
        if alpha < 1:
            raise ValueError("alpha must be >= 1")
        if self.bias.shape != (c_out, alpha):
            raise ValueError(f"bias shape {self.bias.shape}, expected {(c_out, alpha)}")

    @property
    def shape(self):
        return self.weights.shape

    @property
    def alpha(self) -> int:
        return self.weights.shape[4]

    @property
    def param_count(self) -> int:
        return self.weights.size + self.bias.size


def glorot_uniform(rng: np.random.Generator, i: int, j: int, c_in: int, c_out: int, alpha: int = 1, dtype=np.float32) -> SlcKernel:
    """Seeded kernel init, uniform in +-sqrt(6 / (fan_in + fan_out))."""
    fan_in = i * j * c_in
    fan_out = i * j * c_out
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    weights = rng.uniform(-limit, limit, size=(i, j, c_in, c_out, alpha)).astype(dtype)
    bias = np.zeros((c_out, alpha), dtype=dtype)
    return SlcKernel(weights=weights, bias=bias)


def _component_bands(h: int, alpha: int):
    """Contiguous row ranges [h0, h1) sharing one kernel component."""
    for a in range(alpha):
        h0 = -(-a * h // alpha)  # ceil
        h1 = -(-(a + 1) * h // alpha)
        yield a, h0, h1


def _check_rank4(x: np.ndarray):
    if x.ndim != 4:
        raise ValueError(f"expected a [B, H, W, C] tensor, got shape {x.shape}")


def _conv_geometry(x, kernel, stride_w):
    i_k, j_k, c_in, c_out, alpha = kernel.shape
    if x.shape[3] != c_in:
        raise ValueError(f"input has {x.shape[3]} channels, kernel expects {c_in}")
    if stride_w < 1:
        raise ValueError("stride_w must be >= 1")
    return i_k, j_k, c_in, c_out, alpha


def _gemm_for(dtype):
    if dtype == np.float32:
        return _blas.sgemm
    if dtype == np.float64:
        return _blas.dgemm
    raise ValueError(f"unsupported tensor dtype {dtype}")


def _flat_padded(x: np.ndarray, spec: PadSpec, j_k: int):
    """Padded input as per-batch flat rows with (J - 1) * C slack appended.

    Row-contiguous flat views shifted by (i * Wp + j) pixels align kernel tap
    (i, j) with every output pixel at once, which keeps all convolution GEMMs
    on contiguous memory. Shifts may wrap across a row border or into the
    slack; both regions pair only with zero gradient rows or are cropped.
    """
    b, h, w, c = x.shape
    ip, jp = spec.i_pad, spec.j_pad
    if spec.width_mode == "cyclic" and jp > w:
        raise ValueError(f"cyclic pad {jp} exceeds width {w}")
    hp, wp = h + 2 * ip, w + 2 * jp
    n_flat = hp * wp * c
    flat = np.zeros((b, n_flat + (j_k - 1) * c), dtype=x.dtype)
    grid = flat[:, :n_flat].reshape(b, hp, wp, c)
    grid[:, ip : ip + h, jp : jp + w] = x
    if spec.width_mode == "cyclic" and jp > 0:
        grid[:, ip : ip + h, :jp] = x[:, :, w - jp :]
        grid[:, ip : ip + h, jp + w :] = x[:, :, :jp]
    return flat, grid


def slc_forward(x: np.ndarray, kernel: SlcKernel, pad_spec: PadSpec, stride_w: int = 1) -> np.ndarray:
    """Semi-local convolution; with alpha = 1 this is a plain convolution.

    Each output row uses the kernel component selected by its own (output)
    row index. Width stride >= 1 downsamples horizontally; height is never
    strided. The reduction order per output element is fixed (kernel taps in
    row-major order, channels inside each tap), so results are reproducible.
    """
    _check_rank4(x)
    i_k, j_k, c_in, c_out, alpha = _conv_geometry(x, kernel, stride_w)
    dtype = np.result_type(x, kernel.weights)
    gemm = _gemm_for(dtype)
    weights = kernel.weights.astype(dtype, copy=False)
    flat, grid = _flat_padded(x.astype(dtype, copy=False), pad_spec, j_k)
    b, hp, wp, _ = grid.shape
    h_out = hp - i_k + 1
    w_out = (wp - j_k) // stride_w + 1
    if h_out < 1 or w_out < 1:
        raise ValueError(f"kernel {i_k}x{j_k} too large for padded input {grid.shape}")
    if alpha > h_out:
        raise ValueError(f"alpha {alpha} exceeds output height {h_out}")

    # full padded-width output; columns past the valid stride grid are junk
    # fed by row-wrapped flat positions and are cropped at the end
    y_full = np.empty((b, h_out, wp, c_out), dtype=dtype)
    for a, h0, h1 in _component_bands(h_out, alpha):
        y_full[:, h0:h1] = kernel.bias[:, a].astype(dtype, copy=False)
        rows = (h1 - h0) * wp
        lo, hi = h0 * wp * c_in, h1 * wp * c_in
        for i in range(i_k):
            for j in range(j_k):
                off = (i * wp + j) * c_in
                w_t = np.asfortranarray(weights[i, j, :, :, a].T)
                for bi in range(b):
                    m_t = flat[bi, off + lo : off + hi].reshape(rows, c_in).T
                    y_t = y_full[bi, h0:h1].reshape(rows, c_out).T
                    gemm(1.0, w_t, m_t, beta=1.0, c=y_t, overwrite_c=True)
    return np.ascontiguousarray(y_full[:, :, 0 : stride_w * (w_out - 1) + 1 : stride_w, :])


def slc_backward(
    x: np.ndarray,
    kernel: SlcKernel,
    pad_spec: PadSpec,
    upstream: np.ndarray,
    stride_w: int = 1,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Exact gradients of ``slc_forward`` wrt input, weights and bias.

    Cyclic padding folds wrapped gradient columns back onto their source
    columns.
    """
    _check_rank4(upstream)
    i_k, j_k, c_in, c_out, alpha = _conv_geometry(x, kernel, stride_w)
    dtype = np.result_type(upstream, kernel.weights, x)
    gemm = _gemm_for(dtype)
    weights = kernel.weights.astype(dtype, copy=False)
    upstream = upstream.astype(dtype, copy=False)
    flat, grid = _flat_padded(x.astype(dtype, copy=False), pad_spec, j_k)
    b, hp, wp, _ = grid.shape
    h_out = hp - i_k + 1
    w_out = (wp - j_k) // stride_w + 1
    if upstream.shape != (b, h_out, w_out, c_out):
        raise ValueError(f"upstream shape {upstream.shape}, expected {(b, h_out, w_out, c_out)}")

    # upstream spread onto the padded width grid (zeros between strides);
    # wrapped flat positions then only ever meet zero gradient entries
    if stride_w == 1 and wp == w_out:
        g_grid = upstream
    else:
        g_grid = np.zeros((b, h_out, wp, c_out), dtype=dtype)
        g_grid[:, :, 0 : stride_w * w_out : stride_w, :] = upstream

    g_flat = np.zeros_like(flat)
    gxpf_grid = g_flat[:, : hp * wp * c_in].reshape(b, hp, wp, c_in)
    gw_taps = np.zeros((i_k, j_k, alpha, c_in, c_out), dtype=dtype)
    bias_grads = np.zeros((c_out, alpha), dtype=dtype)

    for a, h0, h1 in _component_bands(h_out, alpha):
        bias_grads[:, a] = upstream[:, h0:h1].sum(axis=(0, 1, 2))
        rows = (h1 - h0) * wp
        lo, hi = h0 * wp * c_in, h1 * wp * c_in
        for i in range(i_k):
            for j in range(j_k):
                off = (i * wp + j) * c_in
                w_f = np.asfortranarray(weights[i, j, :, :, a])
                gw_t = gw_taps[i, j, a].T
                for bi in range(b):
                    g_t = g_grid[bi, h0:h1].reshape(rows, c_out).T
                    m_t = flat[bi, off + lo : off + hi].reshape(rows, c_in).T
                    gx_t = g_flat[bi, off + lo : off + hi].reshape(rows, c_in).T
                    gemm(1.0, w_f, g_t, beta=1.0, c=gx_t, overwrite_c=True)
                    gemm(1.0, g_t, m_t, trans_b=True, beta=1.0, c=gw_t, overwrite_c=True)

    grad_w = np.ascontiguousarray(np.moveaxis(gw_taps, 2, 4))
    grad_x = pad_backward(gxpf_grid, pad_spec, x.shape[1], x.shape[2])
    return grad_x, grad_w, bias_grads


def _as_slc_kernel(weights: np.ndarray, bias: np.ndarray | None) -> SlcKernel:
    if weights.ndim != 4:
        raise ValueError(f"conv weights must be rank 4, got {weights.shape}")
    c_out = weights.shape[3]
    if bias is None:
        bias = np.zeros(c_out, dtype=weights.dtype)
    return SlcKernel(weights=weights[..., None], bias=bias.reshape(c_out, 1))


def conv_forward(
    x: np.ndarray,
    weights: np.ndarray,
    bias: np.ndarray | None = None,
    stride_w: int = 1,
    pad_spec: PadSpec | None = None,
) -> np.ndarray:
    """Plain convolution [I, J, C_in, C_out]; one engine with the alpha = 1
    semi-local case."""
    if pad_spec is None:
        pad_spec = PadSpec.same(weights.shape[0], weights.shape[1])
    return slc_forward(x, _as_slc_kernel(weights, bias), pad_spec, stride_w)


def conv_backward(
    x: np.ndarray,
    weights: np.ndarray,
    upstream: np.ndarray,
    stride_w: int = 1,
    pad_spec: PadSpec | None = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    if pad_spec is None:
        pad_spec = PadSpec.same(weights.shape[0], weights.shape[1])
    gx, gw, gb = slc_backward(x, _as_slc_kernel(weights, None), pad_spec, upstream, stride_w)
    return gx, gw[..., 0], gb[:, 0]


def upsample_width(x: np.ndarray, factor: int) -> np.ndarray:
    """Nearest-neighbor repetition along the width axis."""
    _check_rank4(x)
    if factor < 1:
        raise ValueError("upsample factor must be >= 1")
    return np.repeat(x, factor, axis=2)


def upsample_width_backward(upstream: np.ndarray, factor: int) -> np.ndarray:
    b, h, w_up, c = upstream.shape
    if w_up % factor != 0:
        raise ValueError(f"upstream width {w_up} not divisible by factor {factor}")
    return upstream.reshape(b, h, w_up // factor, factor, c).sum(axis=3)


def relu(x: np.ndarray) -> np.ndarray:
    return np.maximum(x, 0)


def relu_backward(x: np.ndarray, upstream: np.ndarray) -> np.ndarray:
    return upstream * (x > 0)


def norm_forward(x: np.ndarray, gamma: np.ndarray, beta: np.ndarray, eps: float = 1e-5):
    """Per-channel normalization by batch statistics with learned scale/shift.

    Returns (y, cache); statistics are the biased mean/variance over batch,
    height and width, accumulated in float64 so they are invariant to the
    iteration order (e.g. horizontally rotated inputs), then applied in the
    input dtype. The cache feeds ``norm_backward`` and carries the batch
    statistics for running-average updates.
    """
    _check_rank4(x)
    mean64 = x.mean(axis=(0, 1, 2), dtype=np.float64)
    var64 = x.var(axis=(0, 1, 2), dtype=np.float64)
    mean = mean64.astype(x.dtype)
    inv_std = (1.0 / np.sqrt(var64 + eps)).astype(x.dtype)
    x_hat = (x - mean) * inv_std
    y = gamma * x_hat + beta
    return y, (x_hat, inv_std, mean.astype(np.float64), var64)


def norm_backward(upstream: np.ndarray, cache, gamma: np.ndarray):
    """Gradients of ``norm_forward`` wrt input, gamma and beta."""
    x_hat, inv_std, _, _ = cache
    b, h, w, _ = upstream.shape
    n = b * h * w
    d_beta = upstream.sum(axis=(0, 1, 2))
    d_gamma = (upstream * x_hat).sum(axis=(0, 1, 2))
    gx = (gamma * inv_std / n) * (n * upstream - d_beta - x_hat * d_gamma)
    return gx, d_gamma, d_beta


def norm_inference(x: np.ndarray, gamma: np.ndarray, beta: np.ndarray, running_mean: np.ndarray, running_var: np.ndarray, eps: float = 1e-5) -> np.ndarray:
    """Normalization with frozen running statistics (inference path)."""
    return gamma * (x - running_mean) / np.sqrt(running_var + eps) + beta
