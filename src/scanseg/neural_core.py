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
(Ioffe & Szegedy 2015, arXiv:1502.03167). The training ops own the arrays
they are handed (the in-place normalization of Rota Bulo et al. 2018,
arXiv:1712.02616): ``relu`` writes into its input, ``norm_forward`` builds
x_hat in its input, and ``norm_backward`` spends x_hat and writes the input
gradient into its upstream, so a caller that reads any of them again passes
a copy. The norm's column sums (the mean and ``d_beta``) run through
``einsum("ij->j")``, which for two or more channels gives the bits of
``sum(axis=0)`` at about half the cost; at one channel numpy's ``sum`` adds
pairwise and ``einsum`` in order, so the two may differ in the last bits.

A convolution runs one band of output rows of one sample at a time (see
``_BAND_COLS``). A band copies its padded input rows, halo included, into a
flat buffer, where a view shifted by (i * Wp + j) pixels aligns kernel tap
(i, j) with every output pixel of the band; each tap is then one GEMM over
the band's padded-width columns, with the weights of its kernel component.
The input gradient runs through the same loop: the upstream, spread onto the
stride grid and padded like the input, convolved with the kernel flipped and
its channel axes swapped (Dumoulin & Visin 2016, arXiv:1603.07285, sec. 4).
Buffers are sized for the tallest band and reused, so no temporary the size
of a feature map is allocated, and bands issue the same multiply-adds, in the
same order per output element, as one GEMM per tap over each run of rows
that share their components. The weight gradient sums its rows in blocks
of whole rows, or even pieces of a row, on a grid counted from each
component's start, every tap inside a block.
So no band setting moves a bit of a convolution or of its gradients. Bands
stay above one GEMM size, ``_SMALL_GEMM``, and blocks at or below it where a
row fits; ``_split`` cuts components and bands alike.

All BLAS calls go through scipy's BLAS extension, ``scipy.linalg._fblas``,
whose ``sgemm`` and ``dgemm`` are those ``scipy.linalg.blas`` exports. numpy
links its own OpenBLAS build with its own thread pool, so a matrix product
through numpy (``@``, ``np.matmul``, ``np.dot``, ``np.tensordot``) contends
with scipy's pool: column sums as ``np.ones(n) @ g`` inside ``norm_backward``
took a preset-A training step from 0.57 to 0.87 s on 2 cores. Reductions use
``sum`` and ``einsum`` instead, which run in numpy's own loops.

The extension is loaded by the first GEMM (``_gemm_for``), not with this
module, and loaded alone: ``_scipy_blas`` takes it from scipy's ``linalg``
directory without running the package init of ``scipy.linalg``, which
imports hundreds of modules this code never calls. It maps scipy's own
OpenBLAS, a second copy beside numpy's, a cost every process that never
convolves (data preparation, the ``synth``/``project``/``stats`` commands)
would pay. The library reads ``OPENBLAS_NUM_THREADS`` when it loads, so a
thread count set before numpy is imported still holds.
"""

from __future__ import annotations

import functools
import importlib.machinery
import importlib.util
import os
import sys
from dataclasses import dataclass

import numpy as np

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


def glorot_uniform(rng: np.random.Generator, i: int, j: int, c_in: int, c_out: int, alpha: int = 1, dtype=np.float32) -> SlcKernel:
    """Seeded kernel init, uniform in +-sqrt(6 / (fan_in + fan_out))."""
    fan_in = i * j * c_in
    fan_out = i * j * c_out
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    weights = rng.uniform(-limit, limit, size=(i, j, c_in, c_out, alpha)).astype(dtype)
    bias = np.zeros((c_out, alpha), dtype=dtype)
    return SlcKernel(weights=weights, bias=bias)


# Output columns (rows x padded width) one band of a convolution covers at
# most: a band has up to ceil(_BAND_COLS / Wp) rows. Each GEMM's N is a band's
# column count, and N in the hundreds slowed preset D's 3 x 3 512 -> 512
# layers by a third; at 1536 and 2048 they ran alike (2 vCPU, OpenBLAS
# 0.3.30). At 1536 a 512-wide map runs in bands of three rows, whose buffers
# add an eighth of the output to a 32-channel forward; four rows add a sixth.
_BAND_COLS = 1536

# OpenBLAS (scipy's 0.3.30, on an AVX-512 Xeon) runs an sgemm of at most 1e6
# multiply-adds (M * N * K) on a separate small-matrix kernel, whose rounding
# of the rows past the last multiple of 16 differs from the blocked kernels'
# (a 1 x 1 conv to 4 classes changed bits at N = 1536, not at N = 16384). So
# every band is made long enough for its GEMMs to stay above this size. The
# weight gradient's GEMMs (c_out x c_in, K a block's pixels) run fastest at or
# below it, so a block holds the most whole padded rows within
# gw_rows = _SMALL_GEMM // (c_in * c_out) pixels, or an even piece of one row
# where a row holds more (Goto & van de Geijn, ACM TOMS 2008): at 32 -> 32,
# 3 x 3 taps over 2 x 64 x 258 padded rows took 12.4 ms unblocked, 5.8-5.9 ms
# in blocks of 768-879 pixels and 15-16 ms in blocks of 1024 or more (float32,
# 2 vCPU). Where gw_rows is under _GW_MIN_ROWS, a block is the fewest whole
# rows that hold _GW_MIN_ROWS pixels: at 2 x 64 x 64 256 -> 256, one-row blocks
# took 141 ms against 112 ms at 256 pixels or more.
_SMALL_GEMM = 1_000_000
_GW_MIN_ROWS = 256


def _split(r0: int, r1: int, k: int) -> list[tuple[int, int]]:
    """``[r0, r1)`` cut into ``k`` contiguous ranges ``(lo, hi)`` whose sizes
    differ by at most one; range ``i`` starts at ``r0 + ceil(i * n / k)``."""
    n = r1 - r0
    edges = [r0 - (-i * n // k) for i in range(k + 1)]
    return list(zip(edges, edges[1:]))


def _component_bands(h: int, alpha: int):
    """Contiguous row ranges [h0, h1) sharing one kernel component."""
    return [(a, h0, h1) for a, (h0, h1) in enumerate(_split(0, h, alpha))]


def _check_rank4(x: np.ndarray):
    if x.ndim != 4:
        raise ValueError(f"expected a [B, H, W, C] tensor, got shape {x.shape}")


@functools.cache
def _scipy_blas():
    """scipy's BLAS extension ``scipy.linalg._fblas``, loaded on the first
    call from scipy's ``linalg`` directory without running the package
    init of ``scipy.linalg`` (see the module docstring).

    The module is registered in ``sys.modules`` under its own name, as the
    import system would, so a later ``import scipy.linalg.blas`` reuses it
    and hands out the same ``sgemm`` and ``dgemm``.
    """
    name = "scipy.linalg._fblas"
    if name in sys.modules:
        return sys.modules[name]
    import scipy

    linalg = os.path.join(os.path.dirname(scipy.__file__), "linalg")
    spec = importlib.machinery.PathFinder.find_spec(name, [linalg])
    if spec is None:
        raise ImportError(f"{name} not found in {linalg}", name=name)
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


def __getattr__(name):
    # PEP 562: ``neural_core._blas`` is the same lazily loaded module
    if name == "_blas":
        return _scipy_blas()
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def _gemm_for(dtype):
    if dtype == np.float32:
        return _scipy_blas().sgemm
    if dtype == np.float64:
        return _scipy_blas().dgemm
    raise ValueError(f"unsupported tensor dtype {dtype}")


def _pad_rows(x: np.ndarray, spec: PadSpec, r0: int, out: np.ndarray, spread: int = 1) -> np.ndarray:
    """Rows [r0, r0 + len(out)) of the padded grid of one sample ``x``
    ([H, W_src, C]), written into ``out`` ([rows, Wp, C]) and returned.

    Source column k lands on column ``k * spread`` of the grid's core, zeros
    between. Rows outside the input are the zero height padding; the width
    padding wraps around the cylinder in cyclic mode and is zero otherwise.
    """
    h = x.shape[0]
    ip, jp = spec.i_pad, spec.j_pad
    w = out.shape[1] - 2 * jp
    s0 = min(max(r0 - ip, 0), h)
    s1 = max(min(r0 + len(out) - ip, h), s0)
    d0, d1 = s0 + ip - r0, s1 + ip - r0
    out[:d0] = 0
    out[d1:] = 0
    core = out[d0:d1, jp : jp + w]
    if spread > 1:
        core[...] = 0
    core[:, ::spread] = x[s0:s1]
    if spec.width_mode == "cyclic":
        out[d0:d1, :jp] = core[:, w - jp :]
        out[d0:d1, jp + w :] = core[:, :jp]
    else:
        out[d0:d1, :jp] = 0
        out[d0:d1, jp + w :] = 0
    return out


def _row_bands(h_out: int, alpha: int, wp: int, min_rows: int = 1, shifts=(0,)):
    """Output row bands ``(comps, h0, h1)``. Tap row ``i`` of output row ``r``
    takes the weights of component ``comps[i]``, that of row ``r + shifts[i]``
    (clamped into the map), so bands are cut wherever one of those rows
    crosses a component boundary. A run of ``n`` rows between cuts is split
    into ``max(1, min(ceil(n / step), n // min_rows))`` bands, with
    ``step = ceil(_BAND_COLS / wp)``: every band has at least ``min_rows``
    rows or is its whole run, and none is taller than ``step`` unless
    ``min_rows`` needs it."""
    edges = {0, h_out} | {c - s for _, c, _ in _component_bands(h_out, alpha)[1:] for s in shifts}
    cuts = sorted(c for c in edges if 0 <= c <= h_out)
    step = -(-_BAND_COLS // wp)
    for c0, c1 in zip(cuts, cuts[1:]):
        n = c1 - c0
        for h0, h1 in _split(c0, c1, max(1, min(-(-n // step), n // min_rows))):
            yield tuple(min(max(h0 + s, 0), h_out - 1) * alpha // h_out for s in shifts), h0, h1


def _conv_setup(x, kernel, pad_spec, stride_w, *operands):
    """Validation and geometry shared by ``slc_forward`` and ``slc_backward``;
    allocates nothing the size of a feature map.

    The result dtype is that of ``x``, the kernel and ``operands``. Returns
    ``(gemm, dtype, wp, h_out, w_out, min_rows)``, where a band of at least
    ``min_rows`` rows issues GEMMs of over ``_SMALL_GEMM`` multiply-adds.
    """
    _check_rank4(x)
    _, h, w, c = x.shape
    i_k, j_k, c_in, c_out, alpha = kernel.weights.shape
    if c != c_in:
        raise ValueError(f"input has {c} channels, kernel expects {c_in}")
    if stride_w < 1:
        raise ValueError("stride_w must be >= 1")
    if pad_spec.width_mode == "cyclic" and pad_spec.j_pad > w:
        raise ValueError(f"cyclic pad {pad_spec.j_pad} exceeds width {w}")
    dtype = np.result_type(x, kernel.weights, *operands)
    gemm = _gemm_for(dtype)
    hp, wp = h + 2 * pad_spec.i_pad, w + 2 * pad_spec.j_pad
    h_out = hp - i_k + 1
    w_out = (wp - j_k) // stride_w + 1
    if h_out < 1 or w_out < 1:
        raise ValueError(f"kernel {i_k}x{j_k} too large for padded input {(hp, wp)}")
    if alpha > h_out:
        raise ValueError(f"alpha {alpha} exceeds output height {h_out}")
    # each GEMM of a band issues rows * wp * c_in * c_out multiply-adds
    return gemm, dtype, wp, h_out, w_out, _SMALL_GEMM // (wp * c_in * c_out) + 1


def _out_array(out, shape, dtype, *inputs) -> np.ndarray:
    """``out`` where it has the result's shape and dtype, else a fresh
    array; an ``out`` that fits and shares memory with ``inputs`` is an
    error. The band loop writes every element, so old values never show."""
    if out is None or out.shape != shape or out.dtype != dtype:
        return np.empty(shape, dtype=dtype)
    if any(np.may_share_memory(out, a) for a in inputs):
        raise ValueError("out overlaps an input")
    return out


def _band_buffer(rows, i_k, j_k, wp, c, dtype) -> np.ndarray:
    """A zeroed flat buffer for ``rows`` padded rows, their (I - 1)-row halo
    and the (J - 1) * C slack the shifted views run into."""
    return np.zeros((rows + i_k - 1) * wp * c + (j_k - 1) * c, dtype=dtype)


def _conv_bands(x, w_taps, bias, spec, bands, wp, spread, stride_w, y):
    """The band loop: ``y`` ([B, H_out, W_out, C_dst]) written band by band
    and returned. ``x`` ([B, H, W_src, C_src]) is laid onto a padded grid of
    width ``wp`` with ``spread``; ``w_taps`` [alpha, I, J, C_src, C_dst] holds
    each tap's matrix, ``bias`` [C_dst, alpha] each component's; output
    columns are taken ``stride_w`` apart."""
    gemm = _gemm_for(y.dtype)
    b, _, w_out, c_dst = y.shape
    _, i_k, j_k, c_src, _ = w_taps.shape
    band_rows = max(h1 - h0 for _, h0, h1 in bands)
    flat = _band_buffer(band_rows, i_k, j_k, wp, c_src, y.dtype)
    # padded-width output of a band; columns off the stride grid are junk fed
    # by row-wrapped flat positions and are dropped by the copy into y
    y_flat = np.empty(band_rows * wp * c_dst, dtype=y.dtype)
    for bi in range(b):
        for comps, h0, h1 in bands:
            n = h1 - h0
            rows = n * wp
            _pad_rows(x[bi], spec, h0, flat[: (n + i_k - 1) * wp * c_src].reshape(n + i_k - 1, wp, c_src), spread)
            y_band = y_flat[: rows * c_dst].reshape(n, wp, c_dst)
            y_band[...] = bias[:, comps[0]]
            y_t = y_band.reshape(rows, c_dst).T
            for i in range(i_k):
                for j in range(j_k):
                    off = (i * wp + j) * c_src
                    m_t = flat[off : off + rows * c_src].reshape(rows, c_src).T
                    gemm(1.0, w_taps[comps[i], i, j].T, m_t, beta=1.0, c=y_t, overwrite_c=True)
            y[bi, h0:h1] = y_band[:, 0 : stride_w * (w_out - 1) + 1 : stride_w]
    return y


def slc_forward(x: np.ndarray, kernel: SlcKernel, pad_spec: PadSpec, stride_w: int = 1, out: np.ndarray | None = None) -> np.ndarray:
    """Semi-local convolution; with alpha = 1 this is a plain convolution.

    Each output row uses the kernel component selected by its own (output)
    row index. Width stride >= 1 downsamples horizontally; height is never
    strided. The reduction order per output element is fixed (kernel taps in
    row-major order, channels inside each tap), so results are reproducible.

    A given ``out`` that has the result's shape and dtype receives the
    result and is returned; any other ``out`` is left untouched and the
    result is a fresh array. An ``out`` that fits must share no memory with
    ``x``.
    """
    _, dtype, wp, h_out, w_out, min_rows = _conv_setup(x, kernel, pad_spec, stride_w)
    i_k, _, _, c_out, alpha = kernel.weights.shape
    y = _out_array(out, (x.shape[0], h_out, w_out, c_out), dtype, x)
    bands = list(_row_bands(h_out, alpha, wp, min_rows, (0,) * i_k))
    w_taps = np.ascontiguousarray(np.transpose(kernel.weights, (4, 0, 1, 2, 3)), dtype=dtype)
    return _conv_bands(x, w_taps, kernel.bias, pad_spec, bands, wp, 1, stride_w, y)


def slc_backward(
    x: np.ndarray,
    kernel: SlcKernel,
    pad_spec: PadSpec,
    upstream: np.ndarray,
    stride_w: int = 1,
    out: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Exact gradients of ``slc_forward`` wrt input, weights and bias, for
    ``pad_spec = PadSpec.same`` of the kernel only. A given ``out`` receives
    the input gradient where it has its shape and dtype, as
    ``slc_forward``'s receives its result, and then must share no memory
    with ``x`` or ``upstream``.

    The input gradient gathers through the forward's band loop (see the
    module docstring); cyclic padding of the spread upstream is the adjoint
    of cyclic padding. Near a component boundary each tap row takes the
    component of the upstream rows it reads.
    """
    _check_rank4(upstream)
    gemm, dtype, wp, h_out, w_out, min_rows = _conv_setup(x, kernel, pad_spec, stride_w, upstream)
    i_k, j_k, c_in, c_out, alpha = kernel.weights.shape
    if (pad_spec.i_pad, pad_spec.j_pad) != (i_k // 2, j_k // 2):
        raise ValueError(f"slc_backward needs pad_spec PadSpec.same({i_k}, {j_k}), got {pad_spec}")
    b = x.shape[0]
    if upstream.shape != (b, h_out, w_out, c_out):
        raise ValueError(f"upstream shape {upstream.shape}, expected {(b, h_out, w_out, c_out)}")

    bias_grads = np.zeros((c_out, alpha), dtype=dtype)
    for a, h0, h1 in _component_bands(h_out, alpha):
        # float32 partials down the columns of the [B, H_band, W * C_out]
        # view, then over W: row-wise adds, not a strided 3-axis reduction
        band = upstream[:, h0:h1].reshape(b, h1 - h0, w_out * c_out)
        bias_grads[:, a] = band.sum(axis=(0, 1), dtype=dtype).reshape(w_out, c_out).sum(axis=0)

    # tap row i of input row r reads upstream row r - i_pad + i
    bands = list(_row_bands(h_out, alpha, wp, min_rows, tuple(i - pad_spec.i_pad for i in range(i_k))))
    w_flip = np.ascontiguousarray(np.transpose(kernel.weights[::-1, ::-1], (4, 0, 1, 3, 2)), dtype=dtype)
    grad_x = _conv_bands(upstream, w_flip, np.zeros((c_in, alpha), dtype), pad_spec, bands, wp, stride_w, 1, _out_array(out, x.shape, dtype, x, upstream))

    # weight gradient over blocks of q rows, or k even pieces of one row where
    # a row holds more than gw_rows pixels, every tap inside a block while its
    # rows are in cache; a buffer fill holds whole blocks or a whole component
    gw_rows = _SMALL_GEMM // (c_in * c_out)
    q = max(1, gw_rows // wp, -(-_GW_MIN_ROWS // wp))
    k = -(-wp // gw_rows) if wp > gw_rows >= _GW_MIN_ROWS else 1
    fill = min(q * max(1, -(-_BAND_COLS // wp) // q), -(-h_out // alpha))
    gw_taps = np.zeros((alpha, i_k, j_k, c_in, c_out), dtype=dtype)
    flat = _band_buffer(fill, i_k, j_k, wp, c_in, dtype)
    # upstream spread onto the padded width (zeros between strides), so
    # row-wrapped flat positions only ever meet zero gradients
    g_flat = np.zeros(fill * wp * c_out, dtype=dtype)
    for bi in range(b):
        for a, c0, c1 in _component_bands(h_out, alpha):
            for h0 in range(c0, c1, fill):
                n = min(fill, c1 - h0)
                _pad_rows(x[bi], pad_spec, h0, flat[: (n + i_k - 1) * wp * c_in].reshape(n + i_k - 1, wp, c_in))
                g_rows = g_flat[: n * wp * c_out].reshape(n * wp, c_out)
                g_rows.reshape(n, wp, c_out)[:, 0 : stride_w * w_out : stride_w] = upstream[bi, h0 : h0 + n]
                for r0, r1 in [p for r in range(0, n, q) for p in _split(r * wp, min(r + q, n) * wp, k)]:
                    g_t = g_rows[r0:r1].T
                    for i in range(i_k):
                        for j in range(j_k):
                            start = (i * wp + j + r0) * c_in
                            m_t = flat[start : start + (r1 - r0) * c_in].reshape(r1 - r0, c_in).T
                            gemm(1.0, g_t, m_t, trans_b=True, beta=1.0, c=gw_taps[a, i, j].T, overwrite_c=True)
    return grad_x, np.ascontiguousarray(np.moveaxis(gw_taps, 0, 4)), bias_grads


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
    """``max(x, 0)``, written into the spent ``x`` and returned."""
    return np.maximum(x, 0, out=x)


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

    ``x`` is spent: it is centred and scaled in place, so the cached x_hat is
    ``x`` itself (for a C-contiguous ``x``) and a caller that reads ``x``
    again passes a copy.
    """
    _check_rank4(x)
    x2 = x.reshape(-1, x.shape[3])
    n = x2.shape[0]
    mean64 = np.einsum("ij->j", x2, dtype=np.float64) / n
    mean = mean64.astype(x.dtype)
    x_hat = np.subtract(x2, mean, out=x2)
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
    """Gradients of ``norm_forward`` wrt input, gamma and beta.

    It spends both full-size arrays it reads and allocates none: the cached
    x_hat is scaled by ``d_gamma`` in place, and the input gradient is
    written into ``upstream`` and returned (each for a C-contiguous array).
    A caller that reads either again passes a copy.
    """
    x_hat, inv_std, _, _ = cache
    c = upstream.shape[3]
    g2, xh2 = upstream.reshape(-1, c), x_hat.reshape(-1, c)
    n = g2.shape[0]
    d_beta = np.einsum("ij->j", g2)
    d_gamma = np.einsum("ij,ij->j", g2, xh2)
    scale = gamma * inv_std / n
    # ((g * n - d_beta) - x_hat * d_gamma) * scale, in place over the whole tensor
    xh2 *= d_gamma
    g2 *= n
    g2 -= d_beta
    g2 -= xh2
    g2 *= scale
    return g2.reshape(upstream.shape), d_gamma, d_beta


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
