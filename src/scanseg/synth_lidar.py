"""Deterministic synthetic rotating-LiDAR scan generator.

A simulated sensor of vertically stacked beams revolves once around its z
axis, firing all beams at each azimuth step. Rays are cast against a small
set of labeled primitives (ground plane, boxes, spheres, vertical cylinders,
optionally an enclosing wall cylinder seen from the inside). The generator
returns the point list in the same beam-major acquisition order a real
scanner delivers (beam 0 for a full revolution, then beam 1, ...), together
with ground-truth beam and firing indices. That truth is what projection
code is tested against.

Ego motion is a constant forward velocity: each firing origin advances along
+x by ``v * t`` and the ego-corrected cloud re-expresses all points in the
frame of the sensor at the end of the revolution.

Azimuth noise models head-rotation jitter: a band-limited sum of random
harmonics, shared by all beams of one firing, with stationary standard
deviation equal to the configured value. The jitter is smooth between
consecutive firings (its increments are far below the azimuth step), which
is what real rotation encoders exhibit; white per-point jitter would tear
the row-recovery recurrence apart.

``project_scan`` pairs each of ``projection.PROJECTIONS`` with the cloud it
reads, unfolding the raw one or binning the ego-corrected one, on the
sensor's grid and field of view.

The enclosure spans every azimuth, so every ray is cast at it. A box,
sphere or cylinder is cast at only the firings whose azimuth can reach it,
a bounding-volume cull (Kay & Kajiya, "Ray Tracing Complex Scenes",
SIGGRAPH 1986). The origins move along the x axis over a segment of
length L with midpoint m. The primitive's xy footprint lies in a disc D(c, r):
the half diagonal of a box's xy size, the radius of a sphere or cylinder.
Grow r to r' = (r + L/2) * 1.01 + 1e-6, the margin covering rounding. Seen
from m at distance d > r', the candidates are the firings whose azimuth lies
within asin(r'/d) of the bearing of c, for all beams; when d <= r' every
firing is a candidate. The cull is exact: a ray from o = m + delta,
|delta| <= L/2, that hits D(c, r) is parallel to a ray from m that hits
D(c - delta, r), a disc inside D(c, r + L/2), and a ray from m meets that
disc only within asin(r'/d) of its bearing. Beam elevations lie in
[-90, 90] degrees, so a ray's xy heading is its firing's azimuth. A
candidate ray gets the same arithmetic as when every ray is cast, and no ray
outside the window can hit, so the scan is the same bit for bit.

No per-ray [N, 3] grid is built. Ray (b, f) starts at (x_f, 0, h), with x_f
the origin of firing f and h the mount height, and heads along
(cos_el[b] * cos_az[f], cos_el[b] * sin_az[f], sin_el[b]). Each quantity is
held at the lowest rank it varies at: per beam (sin_el, the ground distance
(z0 - h) / sin_el, a box's z slab), per firing (x_f, the offsets from a
center, a cylinder's or sphere's c) or per ray, as a [beams, firings] block
that numpy broadcasts the others into. A per-ray value still comes from the
same float operations on the same operands as in a per-ray grid, since a
broadcast only repeats an operand: a product of the per-ray form
``cos_el[b] * cos_az[f]`` or ``t * d`` is the same multiplication, and the
sphere's b is the same einsum over the same rows. Two steps differ and
cannot change a bit: the enclosure takes (root - b) / a, which rounds as
(-b + root) / a does, and the enclosure and cylinder keep no validity mask,
because a ray without a real root (NaN) or an xy heading (+-inf or NaN)
already fails their test of t > 0 and a finite hit height.

The ground's distance depends on the beam alone, so it is computed once
per beam and seeds every firing's nearest distance. The enclosure and then
each primitive, in scene order so that a tie keeps the surface listed first,
go through one loop: each is cast at its candidate firings, every firing
for the enclosure or an unculled primitive, in calls of as many beams as
keep a call within ``_BLOCK_RAYS`` rays (one beam when the window alone is
wider). That bounds every temporary. The points are assembled a block of
beams at a time too; the clouds are filled column by column from the hit
rays, in beam-major order, with each beam's hit count giving its rows.
``tests/oracles.py`` keeps the per-ray grid and casters, and the tests
check every scan against them bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import MISSING, dataclass, fields
from pathlib import Path

import numpy as np
import yaml

from .cloud_io import LabelArray, PointCloud, RangeImage, check_fields
from .projection import DEFAULT_FOV_DOWN, DEFAULT_FOV_UP, PROJECTIONS, IndexMap, project_ego_corrected, unfold_scan

MIN_RANGE = 1.0  # meters; closer returns are discarded like a real sensor does

_NOISE_HARMONICS = 4
_MAX_HARMONIC = 8

# growth of a primitive's footprint radius before its azimuth window is
# taken: relative, then absolute (meters); covers rounding in the window
_WINDOW_GROWTH = 1.01
_WINDOW_SLACK = 1e-6

# most rays in one cast call or one assembled block: at 2048 firings a
# block is 8 beams, and each of its float64 temporaries 128 KiB
_BLOCK_RAYS = 16384


def default_beam_elevations(n_beams: int, fov_up: float, fov_down: float) -> tuple[float, ...]:
    """Evenly spaced beam elevations (degrees), beam 0 at the top.

    Each elevation sits at the center of its row bin of the vertical field of
    view, so a spherical row binning with the same bounds recovers the beam
    index exactly.
    """
    span = fov_up - fov_down
    return tuple(fov_up - (i + 0.5) * span / n_beams for i in range(n_beams))


@dataclass(frozen=True)
class SensorModel:
    """Geometry and timing of the rotating scanner."""

    n_beams: int = 64
    fov_up: float = DEFAULT_FOV_UP  # degrees
    fov_down: float = DEFAULT_FOV_DOWN  # degrees
    azimuth_step: float = 360.0 / 2048.0  # degrees per firing
    beam_elevations: tuple[float, ...] | None = None  # degrees, beam 0 first
    rev_period: float = 0.1  # seconds per revolution
    mount_height: float = 1.73  # sensor origin above ground, meters

    def __post_init__(self):
        check_fields(self)
        if self.n_beams < 1:
            raise ValueError(f"n_beams must be >= 1, got {self.n_beams}")
        # bounded before the default elevations are built, one per beam
        if self.n_beams > 2**16:
            raise ValueError(f"n_beams must be at most 2**16, got {self.n_beams}")
        if not self.rev_period > 0:
            raise ValueError(f"rev_period must be above 0, got {self.rev_period}")
        if not self.fov_down < self.fov_up:
            raise ValueError("fov_down must be below fov_up")
        if not 0 < self.azimuth_step <= 360:
            raise ValueError(f"azimuth_step must lie in (0, 360] degrees, got {self.azimuth_step}")
        if not 360.0 / self.azimuth_step < 2**31 - 0.5:  # columns are int32: firings_per_rev < 2**31
            raise ValueError(f"azimuth_step {self.azimuth_step} gives 2**31 or more firings per revolution")
        if self.beam_elevations is None:
            object.__setattr__(self, "beam_elevations", default_beam_elevations(self.n_beams, self.fov_up, self.fov_down))
        elif len(self.beam_elevations) != self.n_beams:
            raise ValueError(f"beam_elevations: {len(self.beam_elevations)} elevations for {self.n_beams} beams")
        # past the vertical a ray would head away from its firing's azimuth
        if not all(-90.0 <= e <= 90.0 for e in self.beam_elevations):
            raise ValueError(f"beam_elevations must lie in [-90, 90] degrees: {self.beam_elevations}")

    @property
    def firings_per_rev(self) -> int:
        return int(round(360.0 / self.azimuth_step))


class _Surface:
    """The primitives' check: field kinds, then positive extents."""

    def __post_init__(self):
        check_fields(self)
        for name in ("size", "radius", "height"):
            extent = getattr(self, name, ())
            if any(e <= 0 for e in (extent if isinstance(extent, tuple) else (extent,))):
                raise ValueError(f"non-positive extent {name} in {self}")


@dataclass(frozen=True)
class Box(_Surface):
    center: tuple[float, float, float]
    size: tuple[float, float, float]  # full extents
    class_id: int
    reflectance: float = 0.5


@dataclass(frozen=True)
class Sphere(_Surface):
    center: tuple[float, float, float]
    radius: float
    class_id: int
    reflectance: float = 0.5


@dataclass(frozen=True)
class Cylinder(_Surface):
    """Vertical cylinder; only the side surface returns hits."""

    center: tuple[float, float, float]
    radius: float
    height: float
    class_id: int
    reflectance: float = 0.5


Primitive = Box | Sphere | Cylinder


@dataclass(frozen=True)
class SceneConfig:
    """World content plus generation knobs.

    ``enclosure_radius`` adds an infinite-height wall cylinder around the
    origin, hit from the inside; it guarantees that every ray returns, which
    full-coverage projection tests rely on.
    """

    ground_z: float | None = 0.0
    ground_class: int = 1
    ground_reflectance: float = 0.25
    primitives: tuple[Primitive, ...] = ()
    enclosure_radius: float | None = None
    enclosure_class: int = 2
    enclosure_reflectance: float = 0.45
    seed: int = 0
    angular_noise: float = 0.0  # degrees, stddev of smooth azimuth jitter
    ego_velocity: float = 0.0  # m/s along +x
    n_classes: int = 8
    max_range: float | None = None  # meters; None = unlimited

    def __post_init__(self):
        check_fields(self)
        if self.n_classes > 2**16:  # class ids are stored as uint16
            raise ValueError(f"n_classes must be at most 2**16, got {self.n_classes}")
        if self.enclosure_radius is not None and not self.enclosure_radius > 0:
            raise ValueError(f"enclosure_radius must be above 0, got {self.enclosure_radius}")
        if self.max_range is not None and not self.max_range > 0:
            raise ValueError(f"max_range must be above 0, got {self.max_range}")
        # a surface's class is checked only when the surface is present
        for present, name in ((self.ground_z, "ground_class"), (self.enclosure_radius, "enclosure_class")):
            class_id = getattr(self, name)
            if present is not None and not 1 <= class_id < self.n_classes:
                raise ValueError(f"{name} {class_id} outside [1, {self.n_classes}) of n_classes {self.n_classes}")
        for p in self.primitives:
            if not 1 <= p.class_id < self.n_classes:
                raise ValueError(f"primitives: class id {p.class_id} outside [1, {self.n_classes}) of n_classes {self.n_classes} in {p}")
        if self.angular_noise < 0:
            raise ValueError("angular_noise must be >= 0")


@dataclass
class SynthScan:
    """One simulated revolution with per-point ground truth.

    All arrays share length N. ``cloud`` holds raw per-firing-frame points in
    acquisition order; ``cloud_ego_corrected`` the same points re-expressed in
    the scan-end sensor frame.
    """

    cloud: PointCloud
    cloud_ego_corrected: PointCloud
    true_rows: np.ndarray
    true_cols: np.ndarray
    labels: LabelArray

    def __len__(self) -> int:
        return len(self.cloud)


def project_scan(sensor: SensorModel, scan: SynthScan, projection: str) -> tuple[RangeImage, IndexMap]:
    """``scan`` and its labels by one of ``PROJECTIONS`` on the sensor's
    grid: ``"unfold"`` unfolds the raw cloud, ``"ego"`` bins the
    ego-corrected one by elevation over the sensor's field of view."""
    h, w = sensor.n_beams, sensor.firings_per_rev
    if projection == "unfold":
        return unfold_scan(scan.cloud, scan.labels, h, w)
    if projection == "ego":
        return project_ego_corrected(scan.cloud_ego_corrected, scan.labels, h, w, sensor.fov_up, sensor.fov_down)
    raise ValueError(f"unknown projection {projection!r}, expected one of {PROJECTIONS}")


def _smooth_azimuth_jitter(rng: np.random.Generator, n_firings: int, stddev_rad: float) -> np.ndarray:
    """Band-limited azimuth jitter with stationary stddev ``stddev_rad``.

    The jitter is a sum of low-order revolution harmonics with random signs,
    so it is smooth between consecutive firings and vanishes exactly at the
    revolution boundary: the scan cut is defined by the encoder index, so
    measurements never wrap across it, which keeps the rear-cut line
    crossovers unambiguous the way real listings are.
    """
    if stddev_rad == 0.0:
        return np.zeros(n_firings)
    freqs = rng.integers(1, _MAX_HARMONIC + 1, size=_NOISE_HARMONICS)
    signs = rng.choice([-1.0, 1.0], size=_NOISE_HARMONICS)
    t = np.arange(n_firings) / n_firings
    amp = stddev_rad * math.sqrt(2.0 / _NOISE_HARMONICS)
    jitter = np.zeros(n_firings)
    for f, sign in zip(freqs, signs):
        jitter += sign * amp * np.sin(2.0 * np.pi * f * t)
    return jitter


def _ray_ground(height, dz, z0):
    """Distance along each beam from ``height`` down (or up) to the plane
    z = z0, for the z components ``dz`` of the beams' unit headings."""
    with np.errstate(divide="ignore", invalid="ignore"):
        t = (z0 - height) / dz
    return np.where((dz != 0) & (t > 0), t, np.inf)


def _ray_box(origin, direction, box: Box):
    """Slab test, one axis at a time: the entry distance is the largest
    near-plane distance and the exit the smallest far-plane one."""
    lo = np.asarray(box.center) - np.asarray(box.size) / 2.0
    hi = np.asarray(box.center) + np.asarray(box.size) / 2.0
    for k in range(3):
        with np.errstate(divide="ignore", invalid="ignore"):
            t1 = (lo[k] - origin[k]) / direction[k]
            t2 = (hi[k] - origin[k]) / direction[k]
        # a ray parallel to a slab gives +-inf bounds, and 0/0 when it starts
        # in the plane of a face; fmax/fmin turn that NaN into -inf / +inf
        np.fmax(t1, -np.inf, out=t1)
        np.fmin(t2, np.inf, out=t2)
        if k == 0:
            tmin, tmax = np.minimum(t1, t2), np.maximum(t1, t2)
        else:
            tmin = np.maximum(tmin, np.minimum(t1, t2))
            tmax = np.minimum(tmax, np.maximum(t1, t2))
    hit = (tmax >= tmin) & (tmin > 0)
    return np.where(hit, tmin, np.inf)


def _ray_sphere(origin, direction, sphere: Sphere):
    # the offsets from the center vary per firing at most, and c with them;
    # b is the same einsum over the same [n, 3] rows as a per-ray grid's
    oc = np.stack(np.broadcast_arrays(*(o - c for o, c in zip(origin, sphere.center))), axis=-1)
    c = np.einsum("ij,ij->i", oc.reshape(-1, 3), oc.reshape(-1, 3)).reshape(oc.shape[:-1]) - sphere.radius**2
    rays = np.stack(np.broadcast_arrays(*direction), axis=-1)
    b = np.einsum("ij,ij->i", np.broadcast_to(oc, rays.shape).reshape(-1, 3), rays.reshape(-1, 3)).reshape(rays.shape[:-1])
    disc = b * b - c
    with np.errstate(invalid="ignore"):
        root = np.sqrt(disc)
    t_near = -b - root
    t_far = -b + root
    t = np.where(t_near > 0, t_near, t_far)
    return np.where((disc >= 0) & (t > 0), t, np.inf)


def _side_roots(origin, direction, cx, cy, radius):
    """b, sqrt(b*b - a*c) and a of the quadratic whose roots are the
    distances at which a ray's xy offset from (cx, cy) reaches ``radius``:
    the near root is (-b - root) / a and the far one (-b + root) / a.

    A ray with no real root has a NaN root, and one with no xy heading
    (a = 0) roots of +-inf or NaN. Neither passes a caller's test of t > 0
    with a finite hit point, so no validity mask is kept.
    """
    ox = origin[0] - cx
    oy = origin[1] - cy
    dx, dy = direction[0], direction[1]
    a = dx * dx
    square = dy * dy
    a += square
    b = ox * dx
    b += np.multiply(oy, dy, out=square)
    c = ox * ox + oy * oy - radius**2
    root = np.multiply(b, b, out=square)
    root -= a * c
    with np.errstate(invalid="ignore"):
        np.sqrt(root, out=root)
    return b, root, a


def _ray_cylinder(origin, direction, cyl: Cylinder):
    cx, cy, cz = cyl.center
    b, root, a = _side_roots(origin, direction, cx, cy, cyl.radius)
    neg_b = -b
    with np.errstate(invalid="ignore", divide="ignore"):
        t_near = (neg_b - root) / a
        t_far = (neg_b + root) / a
    z_lo, z_hi = cz - cyl.height / 2.0, cz + cyl.height / 2.0

    def in_band(t):
        z = origin[2] + t * direction[2]
        return (t > 0) & (z >= z_lo) & (z <= z_hi)

    return np.where(in_band(t_near), t_near, np.where(in_band(t_far), t_far, np.inf))


def _ray_enclosure(origin, direction, radius):
    # wall around the origin, hit from inside: the far (exit) root;
    # root - b is -b + root bit for bit
    b, root, a = _side_roots(origin, direction, 0.0, 0.0, radius)
    t_far = np.subtract(root, b, out=root)
    with np.errstate(invalid="ignore", divide="ignore"):
        t_far /= a
    t_far[~(t_far > 0)] = np.inf
    return t_far


_RAY_CASTERS = {Box: _ray_box, Sphere: _ray_sphere, Cylinder: _ray_cylinder}


def _firings(sensor: SensorModel, scene: SceneConfig) -> tuple[np.ndarray, np.ndarray]:
    """Azimuth and origin x of each firing of one revolution."""
    n_firings = sensor.firings_per_rev
    rng = np.random.default_rng(scene.seed)

    step_rad = math.radians(sensor.azimuth_step)
    jitter = _smooth_azimuth_jitter(rng, n_firings, math.radians(scene.angular_noise))
    # azimuth sweeps clockwise from the rear cut at +pi; firing f sits at the
    # center of column f so the spherical column formula recovers f exactly
    azimuth = np.pi - (np.arange(n_firings) + 0.5) * step_rad + jitter

    t_firing = np.arange(n_firings) * (sensor.rev_period / n_firings)
    return azimuth, scene.ego_velocity * t_firing


def _candidate_firings(prim: Primitive, azimuth: np.ndarray, origin_x: np.ndarray) -> np.ndarray | None:
    """Firings whose rays can reach ``prim`` (see the module docstring), or
    None when any firing can."""
    cx, cy = prim.center[0], prim.center[1]
    radius = 0.5 * math.hypot(prim.size[0], prim.size[1]) if isinstance(prim, Box) else prim.radius
    mid = 0.5 * (origin_x[0] + origin_x[-1])
    grown = (radius + 0.5 * abs(origin_x[-1] - origin_x[0])) * _WINDOW_GROWTH + _WINDOW_SLACK
    dist = math.hypot(cx - mid, cy)
    if not dist > grown:
        return None
    offset = np.remainder(azimuth - math.atan2(cy, cx - mid) + np.pi, 2.0 * np.pi) - np.pi
    return np.flatnonzero(np.abs(offset) <= math.asin(grown / dist))


def generate_scan(sensor: SensorModel, scene: SceneConfig) -> SynthScan:
    """Simulate one revolution; points are listed beam-major in firing order.

    Rays that hit nothing (or only beyond ``max_range``) are dropped. A scene
    with no hits at all yields an empty scan rather than an error.
    """
    n_beams = sensor.n_beams
    n_firings = sensor.firings_per_rev
    azimuth, origin_x = _firings(sensor, scene)
    elev_rad = np.radians(np.asarray(sensor.beam_elevations))
    cos_el, sin_el = np.cos(elev_rad)[:, None], np.sin(elev_rad)[:, None]
    cos_az, sin_az = np.cos(azimuth), np.sin(azimuth)
    # ray (b, f) starts at (origin_x[f], 0, mount_height)
    def direction(beams, firings=slice(None)):
        return cos_el[beams] * cos_az[firings], cos_el[beams] * sin_az[firings], sin_el[beams]

    def blocks(width):
        # slices of as many beams as keep a call within _BLOCK_RAYS rays
        step = max(1, _BLOCK_RAYS // max(1, width))
        return [slice(b, min(b + step, n_beams)) for b in range(0, n_beams, step)]

    # nearest distance per ray, and the index of its surface in ``surfaces``
    best_t = np.full((n_beams, n_firings), np.inf)
    # up to len(primitives) + 2 surfaces, the ground and the enclosure first
    best_s = np.zeros((n_beams, n_firings), dtype=np.min_scalar_type(len(scene.primitives) + 1))
    surfaces, casts = [], []
    if scene.ground_z is not None:
        # the ground's distance depends on the beam alone: it seeds every firing
        best_t[:] = _ray_ground(sensor.mount_height, sin_el, scene.ground_z)
        surfaces.append((scene.ground_class, scene.ground_reflectance))
    if scene.enclosure_radius is not None:
        casts.append((len(surfaces), _ray_enclosure, scene.enclosure_radius, None))
        surfaces.append((scene.enclosure_class, scene.enclosure_reflectance))
    for prim in scene.primitives:
        casts.append((len(surfaces), _RAY_CASTERS[type(prim)], prim, _candidate_firings(prim, azimuth, origin_x)))
        surfaces.append((prim.class_id, prim.reflectance))
    # every other surface at its candidate firings, all of them for None; a
    # tie keeps the surface cast first
    for surface, cast, target, firings in casts:
        window = slice(None) if firings is None else firings
        x = origin_x[window]
        for beams in blocks(x.size):
            t = cast((x, 0.0, sensor.mount_height), direction(beams, window), target)
            # views into best_t and best_s at every firing; at a window,
            # copies that are written back
            near_t, near_s = best_t[beams, window], best_s[beams, window]
            closer = t < near_t
            np.copyto(near_t, t, where=closer)
            near_s[closer] = surface
            best_t[beams, window], best_s[beams, window] = near_t, near_s

    hit = np.isfinite(best_t) & (best_t >= MIN_RANGE)
    if scene.max_range is not None:
        hit &= best_t <= scene.max_range

    # the points of beam b follow those of beams 0..b-1, in firing order
    per_beam = np.count_nonzero(hit, axis=1)
    bounds = np.concatenate(([0], np.cumsum(per_beam)))  # beam b's points: bounds[b]:bounds[b + 1]
    rows = np.repeat(np.arange(n_beams, dtype=np.int32), per_beam)
    cols = np.broadcast_to(np.arange(n_firings, dtype=np.int32), hit.shape)[hit]
    points_raw = np.empty((rows.size, 3), dtype=np.float32)
    points_corr = np.empty_like(points_raw)
    # corrected = raw + origin(firing) - origin(end of revolution)
    shift = origin_x - scene.ego_velocity * sensor.rev_period
    for beams in blocks(n_firings):
        points = slice(bounds[beams.start], bounds[beams.stop])
        mask = hit[beams]
        t = best_t[beams][mask]
        dx, dy, dz = direction(beams)
        x = t * dx[mask]
        points_raw[points, 0] = x
        x += shift.take(cols[points])
        points_corr[points, 0] = x
        for k, d in ((1, dy[mask]), (2, np.repeat(dz[:, 0], per_beam[beams]))):
            d *= t
            points_raw[points, k] = points_corr[points, k] = d

    surface = best_s[hit]
    reflectance = np.array([r for _, r in surfaces], dtype=np.float32).take(surface)
    semantic = np.array([c for c, _ in surfaces], dtype=np.uint16).take(surface)
    return SynthScan(
        cloud=PointCloud(points=points_raw, reflectance=reflectance),
        cloud_ego_corrected=PointCloud(points=points_corr, reflectance=reflectance.copy()),
        true_rows=rows,
        true_cols=cols,
        labels=LabelArray(semantic=semantic, instance=np.zeros_like(semantic)),
    )


# -- config files -----------------------------------------------------------

_EXAMPLE_CONFIG = """\
# synthetic scan setup: sensor geometry plus scene content
sensor:
  n_beams: 64
  fov_up_deg: 3.0
  fov_down_deg: -25.0
  azimuth_step_deg: 0.17578125   # 2048 firings per revolution
  rev_period_s: 0.1
  mount_height_m: 1.73
scene:
  seed: 7
  ground_z: 0.0
  ground_class: 1
  ground_reflectance: 0.25
  angular_noise_deg: 0.0
  ego_velocity_mps: 8.0   # motion makes the corrected projection occlude
  n_classes: 8
  enclosure:
    radius: 40.0
    class_id: 2
    reflectance: 0.45
  primitives:
    - {kind: box, center: [12.0, 3.0, 1.0], size: [4.0, 2.0, 2.0], class_id: 2, reflectance: 0.55}
    - {kind: sphere, center: [-9.0, -4.0, 1.2], radius: 1.5, class_id: 3, reflectance: 0.8}
    - {kind: cylinder, center: [6.0, -7.0, 1.5], radius: 0.4, height: 3.0, class_id: 4, reflectance: 0.7}
"""


def write_example_config(path) -> None:
    Path(path).write_text(_EXAMPLE_CONFIG)


# YAML key -> dataclass field per section, a primitive's keys being its field
# names; values pass through as YAML typed them, absent keys keep defaults
_SENSOR_KEYS = {
    "n_beams": "n_beams", "fov_up_deg": "fov_up", "fov_down_deg": "fov_down", "azimuth_step_deg": "azimuth_step",
    "beam_elevations_deg": "beam_elevations", "rev_period_s": "rev_period", "mount_height_m": "mount_height",
}
_SCENE_KEYS = {
    "seed": "seed", "ground_z": "ground_z", "ground_class": "ground_class", "ground_reflectance": "ground_reflectance",
    "angular_noise_deg": "angular_noise", "ego_velocity_mps": "ego_velocity", "n_classes": "n_classes", "max_range_m": "max_range",
}  # ground_z null: no ground plane
_ENCLOSURE_KEYS = {"radius": "enclosure_radius", "class_id": "enclosure_class", "reflectance": "enclosure_reflectance"}
_PRIMITIVE_KINDS = {"box": Box, "sphere": Sphere, "cylinder": Cylinder}


def _mapping(section: str, entry) -> dict:
    """A YAML section as a dict; an empty (null) section reads as ``{}``."""
    if entry is None:
        return {}
    if not isinstance(entry, dict):
        raise ValueError(f"section {section!r}: expected a mapping, got {entry!r}")
    return entry


def _section_fields(section: str, entry, table: dict) -> dict:
    """Dataclass keyword arguments from one YAML section; an unknown key is
    an error, so a misspelled one cannot silently fall back to a default."""
    entry = _mapping(section, entry)
    for key in entry:
        if key not in table:
            raise ValueError(f"section {section!r}: unknown key {key!r}")
    return {table[key]: value for key, value in entry.items()}


def _primitive_from_mapping(entry) -> Primitive:
    entry = dict(_mapping("primitives", entry))
    kind = entry.pop("kind", None)
    if not isinstance(kind, str) or kind not in _PRIMITIVE_KINDS:
        raise ValueError(f"unknown primitive kind {kind!r}")
    cls = _PRIMITIVE_KINDS[kind]
    values = _section_fields(kind, entry, {f.name: f.name for f in fields(cls)})
    for f in fields(cls):
        if f.default is MISSING and f.name not in values:
            raise ValueError(f"section {kind!r}: missing key {f.name!r}")
    return cls(**values)


def load_scan_setup(path) -> tuple[SensorModel, SceneConfig]:
    """Read a sensor+scene YAML file (see ``write_example_config``)."""
    doc = yaml.safe_load(Path(path).read_text())
    if not isinstance(doc, dict) or set(doc) != {"sensor", "scene"}:
        raise ValueError(f"{path}: expected exactly the top-level 'sensor' and 'scene' sections")
    sensor = SensorModel(**_section_fields("sensor", doc["sensor"], _SENSOR_KEYS))
    scene = dict(_mapping("scene", doc["scene"]))
    enclosure = _section_fields("enclosure", scene.pop("enclosure", None), _ENCLOSURE_KEYS)
    if enclosure and "enclosure_radius" not in enclosure:
        raise ValueError("section 'enclosure': missing key 'radius'")
    primitives = scene.pop("primitives", None)
    if isinstance(primitives, list):  # any other value SceneConfig names
        primitives = [_primitive_from_mapping(p) for p in primitives]
    return sensor, SceneConfig(primitives=() if primitives is None else primitives, **enclosure, **_section_fields("scene", scene, _SCENE_KEYS))
