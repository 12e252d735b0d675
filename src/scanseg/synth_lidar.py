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
        if not self.fov_down < self.fov_up:
            raise ValueError("fov_down must be below fov_up")
        if self.azimuth_step <= 0:
            raise ValueError("azimuth_step must be positive")
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
        for p in self.primitives:
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


def generate_scan(sensor: SensorModel, scene: SceneConfig) -> SynthScan:
    """Simulate one revolution; points are listed beam-major in firing order.

    Rays that hit nothing (or only beyond ``max_range``) are dropped. A scene
    with no hits at all yields an empty scan rather than an error.
    """
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

    n_rays = n_beams * n_firings
    best_t = np.full(n_rays, np.inf)
    best_class = np.zeros(n_rays, dtype=np.uint16)
    best_refl = np.zeros(n_rays, dtype=np.float32)

    def consider(t, class_id, reflectance):
        closer = t < best_t
        best_t[closer] = t[closer]
        best_class[closer] = class_id
        best_refl[closer] = reflectance

    if scene.ground_z is not None:
        consider(_ray_ground(origins, dirs, scene.ground_z), scene.ground_class, scene.ground_reflectance)
    if scene.enclosure_radius is not None:
        consider(
            _ray_enclosure(origins, dirs, scene.enclosure_radius),
            scene.enclosure_class,
            scene.enclosure_reflectance,
        )
    for prim in scene.primitives:
        if isinstance(prim, Box):
            t = _ray_box(origins, dirs, prim)
        elif isinstance(prim, Sphere):
            t = _ray_sphere(origins, dirs, prim)
        else:
            t = _ray_cylinder(origins, dirs, prim)
        consider(t, prim.class_id, prim.reflectance)

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


def _primitive_from_mapping(entry: dict) -> Primitive:
    kind = entry.get("kind")
    common = dict(class_id=int(entry["class_id"]), reflectance=float(entry.get("reflectance", 0.5)))
    if kind == "box":
        return Box(center=tuple(entry["center"]), size=tuple(entry["size"]), **common)
    if kind == "sphere":
        return Sphere(center=tuple(entry["center"]), radius=float(entry["radius"]), **common)
    if kind == "cylinder":
        return Cylinder(
            center=tuple(entry["center"]),
            radius=float(entry["radius"]),
            height=float(entry["height"]),
            **common,
        )
    raise ValueError(f"unknown primitive kind {kind!r}")


def load_scan_setup(path) -> tuple[SensorModel, SceneConfig]:
    """Read a sensor+scene YAML file (see ``write_example_config``)."""
    doc = yaml.safe_load(Path(path).read_text())
    if not isinstance(doc, dict) or "sensor" not in doc or "scene" not in doc:
        raise ValueError(f"{path}: expected top-level 'sensor' and 'scene' sections")
    s = doc["sensor"]
    sensor = SensorModel(
        n_beams=int(s.get("n_beams", 64)),
        fov_up=float(s.get("fov_up_deg", 3.0)),
        fov_down=float(s.get("fov_down_deg", -25.0)),
        azimuth_step=float(s.get("azimuth_step_deg", 360.0 / 2048.0)),
        beam_elevations=tuple(s["beam_elevations_deg"]) if "beam_elevations_deg" in s else None,
        rev_period=float(s.get("rev_period_s", 0.1)),
        mount_height=float(s.get("mount_height_m", 1.73)),
    )
    c = doc["scene"]
    enclosure = c.get("enclosure") or {}
    scene = SceneConfig(
        ground_z=None if c.get("ground_z", 0.0) is None else float(c.get("ground_z", 0.0)),
        ground_class=int(c.get("ground_class", 1)),
        ground_reflectance=float(c.get("ground_reflectance", 0.25)),
        primitives=tuple(_primitive_from_mapping(p) for p in c.get("primitives", [])),
        enclosure_radius=float(enclosure["radius"]) if enclosure else None,
        enclosure_class=int(enclosure.get("class_id", 2)) if enclosure else 2,
        enclosure_reflectance=float(enclosure.get("reflectance", 0.45)) if enclosure else 0.45,
        seed=int(c.get("seed", 0)),
        angular_noise=float(c.get("angular_noise_deg", 0.0)),
        ego_velocity=float(c.get("ego_velocity_mps", 0.0)),
        n_classes=int(c.get("n_classes", 8)),
        max_range=None if c.get("max_range_m") is None else float(c["max_range_m"]),
    )
    return sensor, scene
