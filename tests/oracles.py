"""Independent reference implementations the tests check against.

Everything here is written for clarity over speed and stays independent of
the library's compute paths: the reference convolution indexes shifted slices
directly in float64, gradients come from central differences, the batch
norm runs out of place in whole-tensor steps, IoU comes
from explicit set counting, the simulator's nearest hits come from casting
every ray of a per-ray ``[N, 3]`` origin and direction grid at every surface
(an all-axes slab test for boxes), and the projections' pixel winners come
from a stable depth sort.
"""

from __future__ import annotations

import numpy as np

from scanseg.cloud_io import LabelArray, PointCloud, RangeImage
from scanseg.neural_core import NORM_EPS
from scanseg.projection import IndexMap
from scanseg.synth_lidar import Box, Cylinder, SceneConfig, SensorModel, Sphere, _firings


def central_diff_grad(f, x: np.ndarray, eps: float = 1e-3) -> np.ndarray:
    """Central-difference gradient of scalar f() wrt array x (in place probes)."""
    g = np.zeros_like(x, dtype=np.float64)
    it = np.nditer(x, flags=["multi_index"])
    while not it.finished:
        idx = it.multi_index
        old = x[idx]
        x[idx] = old + eps
        fp = f()
        x[idx] = old - eps
        fm = f()
        x[idx] = old
        g[idx] = (fp - fm) / (2.0 * eps)
        it.iternext()
    return g


def max_rel_err(analytic: np.ndarray, numeric: np.ndarray) -> float:
    scale = max(float(np.abs(numeric).max()), 1e-12)
    return float(np.abs(analytic - numeric).max() / scale)


def _pad_reference(x, i_pad, j_pad, cyclic):
    """Height zeros; width zeros or wrap-around, via explicit index math."""
    b, h, w, c = x.shape
    out = np.zeros((b, h + 2 * i_pad, w + 2 * j_pad, c), dtype=np.float64)
    for jj in range(w + 2 * j_pad):
        src = jj - j_pad
        if cyclic:
            out[:, i_pad : i_pad + h, jj, :] = x[:, :, src % w, :]
        elif 0 <= src < w:
            out[:, i_pad : i_pad + h, jj, :] = x[:, :, src, :]
    return out


def reference_conv(x, weights, bias=None, stride_w=1, cyclic=False):
    """Plain cross-correlation, float64, shifted-slice formulation.

    ``weights`` has shape [I, J, C_in, C_out]; padding keeps the same size at
    stride 1 (amounts I//2, J//2).
    """
    x = np.asarray(x, dtype=np.float64)
    weights = np.asarray(weights, dtype=np.float64)
    i_k, j_k, c_in, c_out = weights.shape
    xp = _pad_reference(x, i_k // 2, j_k // 2, cyclic)
    b, hp, wp, _ = xp.shape
    h_out = hp - i_k + 1
    w_out = (wp - j_k) // stride_w + 1
    y = np.zeros((b, h_out, w_out, c_out), dtype=np.float64)
    for i in range(i_k):
        for j in range(j_k):
            window = xp[:, i : i + h_out, j : j + stride_w * w_out : stride_w, :]
            y += np.einsum("bhwc,co->bhwo", window, weights[i, j])
    if bias is not None:
        y += np.asarray(bias, dtype=np.float64)
    return y


def reference_conv_grads(x, weights, upstream, stride_w=1, cyclic=False):
    """Analytic gradients of ``reference_conv``, same shifted-slice style."""
    x = np.asarray(x, dtype=np.float64)
    weights = np.asarray(weights, dtype=np.float64)
    upstream = np.asarray(upstream, dtype=np.float64)
    i_k, j_k, c_in, c_out = weights.shape
    i_pad, j_pad = i_k // 2, j_k // 2
    xp = _pad_reference(x, i_pad, j_pad, cyclic)
    b, hp, wp, _ = xp.shape
    h_out = hp - i_k + 1
    w_out = (wp - j_k) // stride_w + 1

    grad_w = np.zeros_like(weights)
    grad_xp = np.zeros_like(xp)
    for i in range(i_k):
        for j in range(j_k):
            window = xp[:, i : i + h_out, j : j + stride_w * w_out : stride_w, :]
            grad_w[i, j] = np.einsum("bhwc,bhwo->co", window, upstream)
            grad_xp[:, i : i + h_out, j : j + stride_w * w_out : stride_w, :] += np.einsum(
                "bhwo,co->bhwc", upstream, weights[i, j]
            )
    grad_b = upstream.sum(axis=(0, 1, 2))

    h, w = x.shape[1], x.shape[2]
    grad_x = grad_xp[:, i_pad : i_pad + h, j_pad : j_pad + w, :].copy()
    if cyclic and j_pad > 0:
        grad_x[:, :, w - j_pad :, :] += grad_xp[:, i_pad : i_pad + h, :j_pad, :]
        grad_x[:, :, :j_pad, :] += grad_xp[:, i_pad : i_pad + h, j_pad + w :, :]
    elif not cyclic and j_pad > 0:
        pass  # zero padding sends no gradient back
    return grad_x, grad_w, grad_b


def reference_norm_forward(x, gamma, beta):
    """Batch normalization out of place, with the float ops of the library's
    ``norm_forward`` but ``sum(axis=0)`` for the mean: returns
    ``(y, (x_hat, inv_std, mean, var64))`` and leaves ``x`` as it was."""
    x2 = x.reshape(-1, x.shape[3])
    n = x2.shape[0]
    mean64 = x2.sum(axis=0, dtype=np.float64) / n
    mean = mean64.astype(x.dtype)
    x_hat = x2 - mean
    sq64 = np.einsum("ij,ij->j", x_hat, x_hat, dtype=np.float64)
    var64 = np.maximum(sq64 / n - (mean64 - mean) ** 2, 0.0)
    inv_std = (1.0 / np.sqrt(var64 + NORM_EPS)).astype(x.dtype)
    x_hat = x_hat.reshape(x.shape) * inv_std
    y = x_hat * gamma
    y += beta
    return y, (x_hat, inv_std, mean.astype(np.float64), var64)


def reference_norm_backward(upstream, cache, gamma):
    """Gradients of ``reference_norm_forward`` wrt input, gamma and beta, out
    of place in whole-tensor steps: ``upstream`` is left as it was."""
    x_hat, inv_std = cache[0], cache[1]
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


def brute_force_iou(preds, targets, n_classes, ignore_id=0):
    """Set-based per-class IoU over raw id lists: |A & B| / |A | B| by counting."""
    preds = np.asarray(preds).reshape(-1)
    targets = np.asarray(targets).reshape(-1)
    keep = np.ones(len(targets), dtype=bool) if ignore_id is None else targets != ignore_id
    p, t = preds[keep], targets[keep]
    ious = np.full(n_classes, np.nan)
    for c in range(n_classes):
        if ignore_id is not None and c == ignore_id:
            continue
        inter = int(((p == c) & (t == c)).sum())
        union = int(((p == c) | (t == c)).sum())
        if union > 0:
            ious[c] = inter / union
    defined = ~np.isnan(ious)
    mean = float(ious[defined].mean()) if defined.any() else float("nan")
    return ious, mean


def direct_dice(probs, targets, n_classes, ignore_id=None):
    """Straight evaluation of the per-class overlap formula in float64."""
    probs = np.asarray(probs, dtype=np.float64).reshape(-1, n_classes)
    targets = np.asarray(targets).reshape(-1)
    keep = np.ones(len(targets), dtype=bool) if ignore_id is None else targets != ignore_id
    probs, targets = probs[keep], targets[keep]
    terms = []
    for c in range(n_classes):
        if ignore_id is not None and c == ignore_id:
            continue
        t = (targets == c).astype(np.float64)
        y = probs[:, c]
        denom = (t**2).sum() + (y**2).sum()
        if denom > 0:
            terms.append(2.0 * (t * y).sum() / denom)
    if not terms:
        return 0.0
    return 1.0 - sum(terms) / len(terms)


def ray_grid(sensor: SensorModel, scene: SceneConfig) -> tuple[np.ndarray, np.ndarray]:
    """Beam-major ray origins and directions of one revolution, one ``[N, 3]``
    row per ray, from the simulator's per-firing azimuth and origin x."""
    azimuth, origin_x = _firings(sensor, scene)
    n_beams, n_firings = sensor.n_beams, sensor.firings_per_rev
    elev_rad = np.radians(np.asarray(sensor.beam_elevations))
    cos_az, sin_az = np.cos(azimuth), np.sin(azimuth)
    cos_el, sin_el = np.cos(elev_rad), np.sin(elev_rad)
    dirs = np.empty((n_beams, n_firings, 3))
    dirs[:, :, 0] = cos_el[:, None] * cos_az[None, :]
    dirs[:, :, 1] = cos_el[:, None] * sin_az[None, :]
    dirs[:, :, 2] = sin_el[:, None]
    origins = np.zeros((n_beams, n_firings, 3))
    origins[:, :, 0] = origin_x[None, :]
    origins[:, :, 2] = sensor.mount_height
    return origins.reshape(-1, 3), dirs.reshape(-1, 3)


def ray_ground(origins: np.ndarray, dirs: np.ndarray, z0: float) -> np.ndarray:
    dz = dirs[:, 2]
    with np.errstate(divide="ignore", invalid="ignore"):
        t = (z0 - origins[:, 2]) / dz
    return np.where((dz != 0) & (t > 0), t, np.inf)


def ray_sphere(origins: np.ndarray, dirs: np.ndarray, sphere: Sphere) -> np.ndarray:
    oc = origins - np.asarray(sphere.center)
    b = np.einsum("ij,ij->i", oc, dirs)
    c = np.einsum("ij,ij->i", oc, oc) - sphere.radius**2
    disc = b * b - c
    with np.errstate(invalid="ignore"):
        root = np.sqrt(disc)
    t_near = -b - root
    t_far = -b + root
    t = np.where(t_near > 0, t_near, t_far)
    return np.where((disc >= 0) & (t > 0), t, np.inf)


def _cylinder_side_roots(origins, dirs, cx, cy, radius):
    ox = origins[:, 0] - cx
    oy = origins[:, 1] - cy
    dx, dy = dirs[:, 0], dirs[:, 1]
    a = dx * dx + dy * dy
    b = ox * dx + oy * dy
    c = ox * ox + oy * oy - radius**2
    disc = b * b - a * c
    with np.errstate(invalid="ignore", divide="ignore"):
        root = np.sqrt(disc)
        t_near = (-b - root) / a
        t_far = (-b + root) / a
    valid = (disc >= 0) & (a > 0)
    return t_near, t_far, valid


def ray_cylinder(origins: np.ndarray, dirs: np.ndarray, cyl: Cylinder) -> np.ndarray:
    cx, cy, cz = cyl.center
    t_near, t_far, valid = _cylinder_side_roots(origins, dirs, cx, cy, cyl.radius)
    z_lo, z_hi = cz - cyl.height / 2.0, cz + cyl.height / 2.0

    def in_band(t):
        z = origins[:, 2] + t * dirs[:, 2]
        return valid & (t > 0) & (z >= z_lo) & (z <= z_hi)

    return np.where(in_band(t_near), t_near, np.where(in_band(t_far), t_far, np.inf))


def ray_enclosure(origins: np.ndarray, dirs: np.ndarray, radius: float) -> np.ndarray:
    # wall around the origin, hit from inside: take the far (exit) root
    _, t_far, valid = _cylinder_side_roots(origins, dirs, 0.0, 0.0, radius)
    return np.where(valid & (t_far > 0), t_far, np.inf)


def reference_ray_box(origins: np.ndarray, dirs: np.ndarray, box: Box) -> np.ndarray:
    """Slab test over all three axes at once: distance to the entry point of
    each ray into ``box``, inf where it misses or starts inside."""
    lo = np.asarray(box.center) - np.asarray(box.size) / 2.0
    hi = np.asarray(box.center) + np.asarray(box.size) / 2.0
    with np.errstate(divide="ignore", invalid="ignore"):
        t1 = (lo - origins) / dirs
        t2 = (hi - origins) / dirs
    # rays parallel to a slab: +-inf bounds keep the slab test correct
    t1 = np.where(np.isnan(t1), -np.inf, t1)
    t2 = np.where(np.isnan(t2), np.inf, t2)
    tmin = np.minimum(t1, t2).max(axis=1)
    tmax = np.maximum(t1, t2).min(axis=1)
    hit = (tmax >= tmin) & (tmin > 0)
    return np.where(hit, tmin, np.inf)


def sorted_scatter_nearest(
    cloud: PointCloud,
    labels: LabelArray | None,
    ranges: np.ndarray,
    rows: np.ndarray,
    cols: np.ndarray,
    in_range: np.ndarray,
    h: int,
    w: int,
) -> tuple[RangeImage, IndexMap]:
    """Nearest-wins scatter by sorting: points ranked in decreasing float32
    depth (stable, so equal depths keep their index order), each pixel won by
    the highest rank landing on it."""
    n = len(cloud)
    depth = ranges.astype(np.float32)

    point_to_pixel = np.full((n, 2), -1, dtype=np.int32)
    point_to_pixel[in_range, 0] = rows[in_range]
    point_to_pixel[in_range, 1] = cols[in_range]

    order = np.argsort(-depth, kind="stable")
    ordered = order[in_range[order]]
    top = np.full(h * w, -1, dtype=np.int64)
    np.maximum.at(top, rows[ordered].astype(np.int64) * w + cols[ordered], np.arange(ordered.size))
    taken = top >= 0
    winners = ordered[top[taken]]

    is_winner = np.zeros(n, dtype=bool)
    is_winner[winners] = True
    occluded = np.flatnonzero(in_range & ~is_winner).astype(np.int32)

    def plane(fill, values, dtype):
        out = np.full(h * w, fill, dtype=dtype)
        out[taken] = values
        return out.reshape(h, w)

    img = RangeImage(
        depth=plane(0, depth[winners], np.float32),
        reflectance=plane(0, cloud.reflectance[winners], np.float32),
        label=plane(0, 0 if labels is None else labels.semantic[winners], np.int32),
        mask=taken.reshape(h, w),
    )
    index_map = IndexMap(pixel_to_point=plane(-1, winners, np.int32), point_to_pixel=point_to_pixel, occluded=occluded)
    return img, index_map


def brute_force_hits(origins: np.ndarray, dirs: np.ndarray, scene: SceneConfig):
    """Nearest hit of every ray against every surface of ``scene``, with no
    culling: (distance, class id, reflectance) per ray, inf / 0 / 0 where a
    ray hits nothing. Surfaces are taken in scene order and a tie keeps the
    earlier one."""
    n = origins.shape[0]
    best_t = np.full(n, np.inf)
    best_class = np.zeros(n, dtype=np.uint16)
    best_refl = np.zeros(n, dtype=np.float32)

    def consider(t, class_id, reflectance):
        closer = t < best_t
        best_t[closer] = t[closer]
        best_class[closer] = class_id
        best_refl[closer] = reflectance

    if scene.ground_z is not None:
        consider(ray_ground(origins, dirs, scene.ground_z), scene.ground_class, scene.ground_reflectance)
    if scene.enclosure_radius is not None:
        consider(
            ray_enclosure(origins, dirs, scene.enclosure_radius),
            scene.enclosure_class,
            scene.enclosure_reflectance,
        )
    for prim in scene.primitives:
        if isinstance(prim, Box):
            t = reference_ray_box(origins, dirs, prim)
        elif isinstance(prim, Sphere):
            t = ray_sphere(origins, dirs, prim)
        else:
            t = ray_cylinder(origins, dirs, prim)
        consider(t, prim.class_id, prim.reflectance)
    return best_t, best_class, best_refl
