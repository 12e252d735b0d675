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

Normalization runs on batch statistics in training. At inference its frozen
running statistics are an affine map per channel, which ``fold_norm`` folds
into the preceding convolution's weights and bias, so an eval forward issues
one convolution per conv + norm pair; ``norm_inference`` is the unfolded
reference. In training, the batch variance takes one float64 pass over the
centred tensor the forward builds anyway, and both norm passes work on the
[N, C] view of the input. Every norm adds ``NORM_EPS`` to its variance
(Ioffe & Szegedy 2015, arXiv:1502.03167).

The weight gradient of a convolution sums over every output row of a band.
``slc_backward`` runs that sum in row blocks sized to the BLAS's fast
small-matrix path (see ``_GW_MNK``), every kernel tap inside a block; the
blocks issue the same multiply-adds as one GEMM per tap and sample would.
It runs every weight-gradient GEMM before it allocates the input-gradient
grid, so one backward holds two full-size temporaries at a time.

All BLAS calls go through ``scipy.linalg.blas``. numpy links its own
OpenBLAS build with its own thread pool, so a matrix product through numpy
(``@``, ``np.matmul``, ``np.dot``, ``np.tensordot``) contends with scipy's
pool: column sums as ``np.ones(n) @ g`` inside ``norm_backward`` took a
preset-A training step from 0.57 to 0.87 s on 2 cores. Reductions use
``sum`` and ``einsum`` instead, which run in numpy's own loops.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import blas as _blas

NORM_EPS = 1e-5  # added to every norm variance before its square root
PADDING_MODES = ("cyclic", "zeros")  # width padding; height is always zeros


@dataclass(frozen=True)
class PadSpec:
    """Padding amounts and width mode. Height is always zero-padded."""

    i_pad: int
    j_pad: int
    width_mode: str = "zeros"  # one of PADDING_MODES

    def __post_init__(self):
        if self.i_pad < 0 or self.j_pad < 0:
            raise ValueError("pad amounts must be >= 0")
        if self.width_mode not in PADDING_MODES:
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


# Row blocking of the weight-gradient GEMMs (Goto & van de Geijn, ACM TOMS
# 2008). Each has a c_out x c_in result and a K of every row of a band.
# Measured with OpenBLAS 0.3.30 (scipy's), float32, 2 vCPU, 3 x 3 taps over
# 2 x 64 x 258 padded rows at 32 -> 32 channels: unblocked 12.4 ms, blocks of
# 768-879 rows 5.8-5.9 ms, blocks of 1024 rows or more 15-16 ms. The cliff sits
# near c_in * c_out * rows = 1e6, so a block holds _GW_MNK // (c_in * c_out)
# rows. Blocks shorter than _GW_MIN_ROWS lose (64 -> 128: 109 rows 48 ms,
# unblocked 42 ms; 128 -> 128: 67 rows 134 ms, unblocked 80 ms), so such
# channel counts run each band as one block.
_GW_MNK = 900_000
_GW_MIN_ROWS = 256


def _component_bands(h: int, alpha: int):
    """Contiguous row ranges [h0, h1) sharing one kernel component."""
    for a in range(alpha):
        h0 = -(-a * h // alpha)  # ceil
        h1 = -(-(a + 1) * h // alpha)
        yield a, h0, h1


def _check_rank4(x: np.ndarray):
    if x.ndim != 4:
        raise ValueError(f"expected a [B, H, W, C] tensor, got shape {x.shape}")


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


def _conv_setup(x, kernel, pad_spec, stride_w, *operands):
    """Set-up shared by ``slc_forward`` and ``slc_backward``: validation,
    the GEMM of the result dtype (that of ``x``, the kernel and
    ``operands``), the kernel weights in that dtype, the padded input and the
    output geometry.

    Returns ``(gemm, weights, flat, grid, h_out, w_out)``.
    """
    _check_rank4(x)
    i_k, j_k, c_in, _, alpha = kernel.shape
    if x.shape[3] != c_in:
        raise ValueError(f"input has {x.shape[3]} channels, kernel expects {c_in}")
    if stride_w < 1:
        raise ValueError("stride_w must be >= 1")
    dtype = np.result_type(x, kernel.weights, *operands)
    gemm = _gemm_for(dtype)
    flat, grid = _flat_padded(x.astype(dtype, copy=False), pad_spec, j_k)
    hp, wp = grid.shape[1:3]
    h_out = hp - i_k + 1
    w_out = (wp - j_k) // stride_w + 1
    if h_out < 1 or w_out < 1:
        raise ValueError(f"kernel {i_k}x{j_k} too large for padded input {grid.shape}")
    if alpha > h_out:
        raise ValueError(f"alpha {alpha} exceeds output height {h_out}")
    return gemm, kernel.weights.astype(dtype, copy=False), flat, grid, h_out, w_out


def slc_forward(x: np.ndarray, kernel: SlcKernel, pad_spec: PadSpec, stride_w: int = 1) -> np.ndarray:
    """Semi-local convolution; with alpha = 1 this is a plain convolution.

    Each output row uses the kernel component selected by its own (output)
    row index. Width stride >= 1 downsamples horizontally; height is never
    strided. The reduction order per output element is fixed (kernel taps in
    row-major order, channels inside each tap), so results are reproducible.
    """
    gemm, weights, flat, grid, h_out, w_out = _conv_setup(x, kernel, pad_spec, stride_w)
    i_k, j_k, c_in, c_out, alpha = kernel.shape
    b, _, wp, _ = grid.shape
    dtype = weights.dtype

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
    # the padded input (m_t is the last view of it) is dead before the crop copies
    flat = grid = m_t = None
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
    gemm, weights, flat, grid, h_out, w_out = _conv_setup(x, kernel, pad_spec, stride_w, upstream)
    i_k, j_k, c_in, c_out, alpha = kernel.shape
    b, hp, wp, _ = grid.shape
    dtype = weights.dtype
    if upstream.shape != (b, h_out, w_out, c_out):
        raise ValueError(f"upstream shape {upstream.shape}, expected {(b, h_out, w_out, c_out)}")
    upstream = upstream.astype(dtype, copy=False)

    # upstream spread onto the padded width grid (zeros between strides);
    # wrapped flat positions then only ever meet zero gradient entries
    if stride_w == 1 and wp == w_out:
        g_grid = upstream
    else:
        g_grid = np.zeros((b, h_out, wp, c_out), dtype=dtype)
        g_grid[:, :, 0 : stride_w * w_out : stride_w, :] = upstream

    gw_taps = np.zeros((i_k, j_k, alpha, c_in, c_out), dtype=dtype)
    bias_grads = np.zeros((c_out, alpha), dtype=dtype)
    gw_rows = _GW_MNK // (c_in * c_out)
    taps = [(i, j) for i in range(i_k) for j in range(j_k)]
    bands = list(_component_bands(h_out, alpha))
    for a, h0, h1 in bands:
        # float32 partials down the columns of the [B, H_band, W * C_out]
        # view, then over W: row-wise adds, not a strided 3-axis reduction
        band = upstream[:, h0:h1].reshape(b, h1 - h0, w_out * c_out)
        bias_grads[:, a] = band.sum(axis=(0, 1)).reshape(w_out, c_out).sum(axis=0)

        # weight gradient over row blocks, every tap inside a block while
        # its upstream rows are in cache; the row sum is split, not changed
        rows = (h1 - h0) * wp
        lo = h0 * wp * c_in
        step = gw_rows if gw_rows >= _GW_MIN_ROWS else rows
        gw_ts = [gw_taps[i, j, a].T for i, j in taps]
        for bi in range(b):
            g_rows = g_grid[bi, h0:h1].reshape(rows, c_out)
            for r0 in range(0, rows, step):
                n_r = min(step, rows - r0)
                g_t = g_rows[r0 : r0 + n_r].T
                for (i, j), gw_t in zip(taps, gw_ts):
                    start = lo + (i * wp + j + r0) * c_in
                    m_t = flat[bi, start : start + n_r * c_in].reshape(n_r, c_in).T
                    gemm(1.0, g_t, m_t, trans_b=True, beta=1.0, c=gw_t, overwrite_c=True)
    grad_w = np.ascontiguousarray(np.moveaxis(gw_taps, 2, 4))

    # the padded input (m_t is the last view of it) is dead before the
    # input-gradient grid of the same size is allocated
    flat_shape = flat.shape
    flat = grid = m_t = None
    g_flat = np.zeros(flat_shape, dtype=dtype)
    for a, h0, h1 in bands:
        rows = (h1 - h0) * wp
        lo, hi = h0 * wp * c_in, h1 * wp * c_in
        for i, j in taps:
            off = (i * wp + j) * c_in
            w_f = np.asfortranarray(weights[i, j, :, :, a])
            for bi in range(b):
                g_t = g_grid[bi, h0:h1].reshape(rows, c_out).T
                gx_t = g_flat[bi, off + lo : off + hi].reshape(rows, c_in).T
                gemm(1.0, w_f, g_t, beta=1.0, c=gx_t, overwrite_c=True)

    # so is the spread upstream (g_t and g_rows are views of it) before the crop copies
    g_grid = g_t = g_rows = None
    grad_x = pad_backward(g_flat[:, : hp * wp * c_in].reshape(b, hp, wp, c_in), pad_spec, x.shape[1], x.shape[2])
    return grad_x, grad_w, bias_grads


def upsample_width(x: np.ndarray, factor: int) -> np.ndarray:
    """Nearest-neighbor repetition along the width axis."""
    _check_rank4(x)
    if factor < 1:
        raise ValueError("upsample factor must be >= 1")
    return np.repeat(x, factor, axis=2)


def upsample_width_backward(upstream: np.ndarray, factor: int) -> np.ndarray:
    """Sum of each output column's ``factor`` copies, added as strided
    slices in column order."""
    _check_rank4(upstream)
    w_up = upstream.shape[2]
    if w_up % factor != 0:
        raise ValueError(f"upstream width {w_up} not divisible by factor {factor}")
    g = upstream[:, :, ::factor].copy()
    for k in range(1, factor):
        g += upstream[:, :, k::factor]
    return g


def relu(x: np.ndarray) -> np.ndarray:
    return np.maximum(x, 0)


def relu_backward(x: np.ndarray, upstream: np.ndarray) -> np.ndarray:
    """``upstream`` where ``x > 0``, else 0, written into ``x`` and returned:
    ``x`` is the spent relu output the mask is taken from."""
    return np.multiply(upstream, x > 0, out=x)


def norm_forward(x: np.ndarray, gamma: np.ndarray, beta: np.ndarray):
    """Per-channel normalization by batch statistics with learned scale/shift.

    Returns (y, cache); statistics are the biased mean/variance over batch,
    height and width, accumulated in float64 so they are invariant to the
    iteration order (e.g. horizontally rotated inputs), then applied in the
    input dtype. The cache feeds ``norm_backward`` and carries the batch
    statistics for running-average updates.

    The variance takes one float64 pass over ``x - mean``, the centred tensor
    ``x_hat`` is built from anyway: the mean of squares about the input-dtype
    mean, less the square of that mean's rounding offset. Taken about zero,
    the same pass would cancel catastrophically when the mean dwarfs the
    spread.
    """
    _check_rank4(x)
    x2 = x.reshape(-1, x.shape[3])
    n = x2.shape[0]
    mean64 = x2.sum(axis=0, dtype=np.float64) / n
    mean = mean64.astype(x.dtype)
    x_hat = x2 - mean
    sq64 = np.einsum("ij,ij->j", x_hat, x_hat, dtype=np.float64)
    var64 = np.maximum(sq64 / n - (mean64 - mean) ** 2, 0.0)
    inv_std = (1.0 / np.sqrt(var64 + NORM_EPS)).astype(x.dtype)
    x_hat = x_hat.reshape(x.shape)
    x_hat *= inv_std
    return norm_output(x_hat, gamma, beta), (x_hat, inv_std, mean.astype(np.float64), var64)


def norm_output(x_hat: np.ndarray, gamma: np.ndarray, beta: np.ndarray) -> np.ndarray:
    """``x_hat * gamma + beta``, the output ``norm_forward`` returns, rebuilt
    from its cached ``x_hat`` with the same float ops and so the same bits."""
    y = x_hat * gamma
    y += beta
    return y


def norm_backward(upstream: np.ndarray, cache, gamma: np.ndarray):
    """Gradients of ``norm_forward`` wrt input, gamma and beta."""
    x_hat, inv_std, _, _ = cache
    c = upstream.shape[3]
    g2, xh2 = upstream.reshape(-1, c), x_hat.reshape(-1, c)
    n = g2.shape[0]
    d_beta = g2.sum(axis=0)
    d_gamma = np.einsum("ij,ij->j", g2, xh2)
    gx = g2 * n
    gx -= d_beta
    gx -= xh2 * d_gamma
    gx *= gamma * inv_std / n
    return gx.reshape(upstream.shape), d_gamma, d_beta


def norm_inference(x: np.ndarray, gamma: np.ndarray, beta: np.ndarray, running_mean: np.ndarray, running_var: np.ndarray) -> np.ndarray:
    """Normalization with frozen running statistics, applied to a computed
    tensor; the reference ``fold_norm`` is checked against."""
    return gamma * (x - running_mean) / np.sqrt(running_var + NORM_EPS) + beta


def fold_norm(kernel: SlcKernel, gamma: np.ndarray, beta: np.ndarray, running_mean: np.ndarray, running_var: np.ndarray) -> SlcKernel:
    """The kernel whose convolution equals ``kernel``'s followed by
    ``norm_inference`` with these statistics (Jacob et al. 2018,
    arXiv:1712.05877, section 3.2).

    Per output channel, with ``s = gamma / sqrt(running_var + NORM_EPS)``, the
    weights become ``w * s`` and the bias ``(b - running_mean) * s + beta``,
    in every kernel component.
    """
    scale = (gamma / np.sqrt(running_var + NORM_EPS))[:, None]
    weights = kernel.weights * scale
    bias = (kernel.bias - running_mean[:, None]) * scale + beta[:, None]
    return SlcKernel(weights=weights, bias=bias)
