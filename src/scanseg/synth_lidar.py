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

The ground plane and the enclosure span every azimuth, so every ray is cast
at them. A box, sphere or cylinder is cast at only the firings whose azimuth
can reach it, a bounding-volume cull (Kay & Kajiya, "Ray Tracing Complex
Scenes", SIGGRAPH 1986). The origins move along the x axis over a segment of
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
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import yaml

from .cloud_io import LabelArray, PointCloud

MIN_RANGE = 1.0  # meters; closer returns are discarded like a real sensor does

_NOISE_HARMONICS = 4
_MAX_HARMONIC = 8

# growth of a primitive's footprint radius before its azimuth window is
# taken: relative, then absolute (meters); covers rounding in the window
_WINDOW_GROWTH = 1.01
_WINDOW_SLACK = 1e-6


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
    fov_up: float = 3.0  # degrees
    fov_down: float = -25.0  # degrees
    azimuth_step: float = 360.0 / 2048.0  # degrees per firing
    beam_elevations: tuple[float, ...] | None = None  # degrees, beam 0 first
    rev_period: float = 0.1  # seconds per revolution
    mount_height: float = 1.73  # sensor origin above ground, meters

    def __post_init__(self):
        if self.n_beams < 1:
            raise ValueError(f"n_beams must be >= 1, got {self.n_beams}")
        if not self.fov_down < self.fov_up:
            raise ValueError("fov_down must be below fov_up")
        if not 0 < self.azimuth_step <= 360:
            raise ValueError(f"azimuth_step must lie in (0, 360] degrees, got {self.azimuth_step}")
        if self.beam_elevations is None:
            object.__setattr__(
                self,
                "beam_elevations",
                default_beam_elevations(self.n_beams, self.fov_up, self.fov_down),
            )
        elif len(self.beam_elevations) != self.n_beams:
            raise ValueError(
                f"{len(self.beam_elevations)} elevations for {self.n_beams} beams"
            )
        # past the vertical a ray would head away from its firing's azimuth
        if not all(-90.0 <= e <= 90.0 for e in self.beam_elevations):
            raise ValueError(f"beam elevations must lie in [-90, 90] degrees: {self.beam_elevations}")

    @property
    def firings_per_rev(self) -> int:
        return int(round(360.0 / self.azimuth_step))


@dataclass(frozen=True)
class Box:
    center: tuple[float, float, float]
    size: tuple[float, float, float]  # full extents
    class_id: int
    reflectance: float = 0.5


@dataclass(frozen=True)
class Sphere:
    center: tuple[float, float, float]
    radius: float
    class_id: int
    reflectance: float = 0.5


@dataclass(frozen=True)
class Cylinder:
    """Vertical cylinder; only the side surface returns hits."""

    center: tuple[float, float, float]
    radius: float
    height: float
    class_id: int
    reflectance: float = 0.5


Primitive = Box | Sphere | Cylinder


@dataclass
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
        for name in ("ground_z", "enclosure_radius", "ego_velocity", "max_range", "angular_noise"):
            value = getattr(self, name)
            if value is not None and not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value}")
        for p in self.primitives:
            for name in ("center", "size", "radius", "height"):
                if hasattr(p, name) and not np.isfinite(getattr(p, name)).all():
                    raise ValueError(f"non-finite {name} in {p}")
            if isinstance(p, Box) and min(p.size) <= 0:
                raise ValueError(f"box with non-positive extent: {p}")
            if isinstance(p, Sphere) and p.radius <= 0:
                raise ValueError(f"sphere with non-positive radius: {p}")
            if isinstance(p, Cylinder) and (p.radius <= 0 or p.height <= 0):
                raise ValueError(f"cylinder with non-positive extent: {p}")
            if not 1 <= p.class_id < self.n_classes:
                raise ValueError(
                    f"class id {p.class_id} outside [1, {self.n_classes})"
                )
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


def _ray_ground(origins, dirs, z0):
    dz = dirs[:, 2]
    with np.errstate(divide="ignore", invalid="ignore"):
        t = (z0 - origins[:, 2]) / dz
    t = np.where((dz != 0) & (t > 0), t, np.inf)
    return t


def _ray_box(origins, dirs, box: Box):
    """Slab test, one axis at a time: the entry distance is the largest
    near-plane distance and the exit the smallest far-plane one."""
    lo = np.asarray(box.center) - np.asarray(box.size) / 2.0
    hi = np.asarray(box.center) + np.asarray(box.size) / 2.0
    tmin = np.full(origins.shape[0], -np.inf)
    tmax = np.full(origins.shape[0], np.inf)
    for k in range(3):
        t1 = lo[k] - origins[:, k]
        t2 = hi[k] - origins[:, k]
        with np.errstate(divide="ignore", invalid="ignore"):
            t1 /= dirs[:, k]
            t2 /= dirs[:, k]
        # a ray parallel to a slab gives +-inf bounds, and 0/0 when it starts
        # in the plane of a face; fmax/fmin turn that NaN into -inf / +inf
        np.fmax(t1, -np.inf, out=t1)
        np.fmin(t2, np.inf, out=t2)
        np.maximum(tmin, np.minimum(t1, t2), out=tmin)
        np.minimum(tmax, np.maximum(t1, t2), out=tmax)
    hit = (tmax >= tmin) & (tmin > 0)
    return np.where(hit, tmin, np.inf)


def _ray_sphere(origins, dirs, sphere: Sphere):
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


def _ray_cylinder(origins, dirs, cyl: Cylinder):
    cx, cy, cz = cyl.center
    t_near, t_far, valid = _cylinder_side_roots(origins, dirs, cx, cy, cyl.radius)
    z_lo, z_hi = cz - cyl.height / 2.0, cz + cyl.height / 2.0

    def in_band(t):
        z = origins[:, 2] + t * dirs[:, 2]
        return valid & (t > 0) & (z >= z_lo) & (z <= z_hi)

    t = np.where(in_band(t_near), t_near, np.where(in_band(t_far), t_far, np.inf))
    return t


def _ray_enclosure(origins, dirs, radius):
    # wall around the origin, hit from inside: take the far (exit) root
    _, t_far, valid = _cylinder_side_roots(origins, dirs, 0.0, 0.0, radius)
    return np.where(valid & (t_far > 0), t_far, np.inf)


_RAY_CASTERS = {Box: _ray_box, Sphere: _ray_sphere, Cylinder: _ray_cylinder}


def _ray_grid(sensor: SensorModel, scene: SceneConfig):
    """Per-firing azimuth and origin x, and the beam-major ray origins and
    directions of one revolution."""
    n_beams = sensor.n_beams
    n_firings = sensor.firings_per_rev
    rng = np.random.default_rng(scene.seed)

    step_rad = math.radians(sensor.azimuth_step)
    jitter = _smooth_azimuth_jitter(rng, n_firings, math.radians(scene.angular_noise))
    # azimuth sweeps clockwise from the rear cut at +pi; firing f sits at the
    # center of column f so the spherical column formula recovers f exactly
    azimuth = np.pi - (np.arange(n_firings) + 0.5) * step_rad + jitter

    elev_rad = np.radians(np.asarray(sensor.beam_elevations))
    cos_az, sin_az = np.cos(azimuth), np.sin(azimuth)
    cos_el, sin_el = np.cos(elev_rad), np.sin(elev_rad)

    # directions for the full (beam, firing) grid, beam-major
    dirs = np.empty((n_beams, n_firings, 3))
    dirs[:, :, 0] = cos_el[:, None] * cos_az[None, :]
    dirs[:, :, 1] = cos_el[:, None] * sin_az[None, :]
    dirs[:, :, 2] = sin_el[:, None]
    dirs = dirs.reshape(-1, 3)

    t_firing = np.arange(n_firings) * (sensor.rev_period / n_firings)
    origin_x = scene.ego_velocity * t_firing
    origins = np.zeros((n_beams, n_firings, 3))
    origins[:, :, 0] = origin_x[None, :]
    origins[:, :, 2] = sensor.mount_height
    origins = origins.reshape(-1, 3)
    return azimuth, origin_x, origins, dirs


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
    azimuth, origin_x, origins, dirs = _ray_grid(sensor, scene)

    n_rays = n_beams * n_firings
    best_t = np.full(n_rays, np.inf)
    best_class = np.zeros(n_rays, dtype=np.uint16)
    best_refl = np.zeros(n_rays, dtype=np.float32)
    every_ray = slice(None)

    def consider(rays, t, class_id, reflectance):
        # ``t`` holds the hits of ``rays``, flat indices or every_ray; a tie
        # keeps the surface considered first
        closer = t < best_t[rays]
        won = closer if rays is every_ray else rays[closer]
        best_t[won] = t[closer]
        best_class[won] = class_id
        best_refl[won] = reflectance

    if scene.ground_z is not None:
        consider(every_ray, _ray_ground(origins, dirs, scene.ground_z), scene.ground_class, scene.ground_reflectance)
    if scene.enclosure_radius is not None:
        consider(
            every_ray,
            _ray_enclosure(origins, dirs, scene.enclosure_radius),
            scene.enclosure_class,
            scene.enclosure_reflectance,
        )
    beam_start = np.arange(n_beams)[:, None] * n_firings
    for prim in scene.primitives:
        firings = _candidate_firings(prim, azimuth, origin_x)
        rays = every_ray if firings is None else (beam_start + firings).ravel()
        consider(rays, _RAY_CASTERS[type(prim)](origins[rays], dirs[rays], prim), prim.class_id, prim.reflectance)

    hit = np.isfinite(best_t) & (best_t >= MIN_RANGE)
    if scene.max_range is not None:
        hit &= best_t <= scene.max_range

    idx = np.flatnonzero(hit)
    points_raw = best_t[idx, None] * dirs[idx]

    # corrected = raw + origin(firing) - origin(end of revolution)
    end_x = scene.ego_velocity * sensor.rev_period
    points_corr = points_raw.copy()
    points_corr[:, 0] += origins[idx, 0] - end_x

    rows = (idx // n_firings).astype(np.int32)
    cols = (idx % n_firings).astype(np.int32)
    semantic = best_class[idx]

    return SynthScan(
        cloud=PointCloud(points=points_raw, reflectance=best_refl[idx]),
        cloud_ego_corrected=PointCloud(points=points_corr, reflectance=best_refl[idx]),
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


def _optional_float(value) -> float | None:
    return None if value is None else float(value)


# YAML key -> (dataclass field, cast) per section; absent keys keep the
# dataclass defaults
_SENSOR_KEYS = {
    "n_beams": ("n_beams", int),
    "fov_up_deg": ("fov_up", float),
    "fov_down_deg": ("fov_down", float),
    "azimuth_step_deg": ("azimuth_step", float),
    "beam_elevations_deg": ("beam_elevations", tuple),
    "rev_period_s": ("rev_period", float),
    "mount_height_m": ("mount_height", float),
}
_SCENE_KEYS = {
    "seed": ("seed", int),
    "ground_z": ("ground_z", _optional_float),  # null: no ground plane
    "ground_class": ("ground_class", int),
    "ground_reflectance": ("ground_reflectance", float),
    "angular_noise_deg": ("angular_noise", float),
    "ego_velocity_mps": ("ego_velocity", float),
    "n_classes": ("n_classes", int),
    "max_range_m": ("max_range", _optional_float),
}
_ENCLOSURE_KEYS = {
    "radius": ("enclosure_radius", float),
    "class_id": ("enclosure_class", int),
    "reflectance": ("enclosure_reflectance", float),
}
_SURFACE_KEYS = {"center": ("center", tuple), "class_id": ("class_id", int), "reflectance": ("reflectance", float)}
_PRIMITIVE_KEYS = {
    "box": (Box, _SURFACE_KEYS | {"size": ("size", tuple)}),
    "sphere": (Sphere, _SURFACE_KEYS | {"radius": ("radius", float)}),
    "cylinder": (Cylinder, _SURFACE_KEYS | {"radius": ("radius", float), "height": ("height", float)}),
}


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
    return {table[key][0]: table[key][1](value) for key, value in entry.items()}


def _primitive_from_mapping(entry) -> Primitive:
    entry = dict(_mapping("primitives", entry))
    kind = entry.pop("kind", None)
    if kind not in _PRIMITIVE_KEYS:
        raise ValueError(f"unknown primitive kind {kind!r}")
    cls, table = _PRIMITIVE_KEYS[kind]
    return cls(**_section_fields(kind, entry, table))


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
    primitives = tuple(_primitive_from_mapping(p) for p in scene.pop("primitives", None) or ())
    return sensor, SceneConfig(primitives=primitives, **enclosure, **_section_fields("scene", scene, _SCENE_KEYS))
