"""Every way a config or a byte stream enters: each config dataclass built
from random field values, scan setups loaded from mutated copies of the
example YAML file, the three readers fed random and mutated bytes, the
projections fed clouds that hold a NaN, an inf, a point on the z axis or a
range past float32, and ``load_network`` fed damaged copies of a saved
network, which load to finite eval logits or raise a ValueError.

Each config case either constructs objects whose fields have their annotated
kinds or raises a ValueError that names a field; no other exception may
escape. The kinds are checked here by ``has_kind``, written apart from the
library's own check. Integers are drawn small, or as 2**31 and 10**400:
the bounded sizes (beams, firings, classes) reject those two, and no other
int field allocates at construction. An int in between could pass a bound
and allocate that much (an n_beams of 10**9 builds a billion default
elevations), so none is drawn.
"""

import dataclasses
import io
import math
import numbers
import re
import types
import typing

import numpy as np
import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from scanseg import synth_lidar
from scanseg.cloud_io import (
    FormatError,
    LabelArray,
    PointCloud,
    read_labels,
    read_point_cloud,
    read_range_image_bytes,
    write_labels,
    write_point_cloud,
    write_range_image_bytes,
)
from scanseg.neural_core import PADDING_MODES
from scanseg.projection import project_ego_corrected, unfold_scan
from scanseg.seg_net import NetworkConfig, build, load_network, save_weights
from scanseg.seg_objectives import LOSSES
from scanseg.synth_lidar import Box, Cylinder, SceneConfig, SensorModel, Sphere, generate_scan, load_scan_setup, project_scan
from scanseg.trainer import TrainConfig

CONFIGS = [SensorModel, SceneConfig, Box, Sphere, Cylinder, NetworkConfig, TrainConfig]
PRIMITIVES = (
    Box(center=(6.0, 0.0, 1.0), size=(1.0, 2.0, 2.0), class_id=2),
    Sphere(center=(-5, 3, 1), radius=1, class_id=3),
    Cylinder(center=(0.0, 7.0, 1.5), radius=0.5, height=3.0, class_id=4),
)
LAYER_KEYS = ("head", "stem", "stem.conv", "enc1", "dec1.refine", "hed")
WORDS = ("cyclic", "zero", "ce", "dice", "ce+dice", "", "x") + tuple(PADDING_MODES) + tuple(LOSSES)


def has_kind(value, hint) -> bool:
    """Whether ``value`` is of the annotated kind ``hint``: an int that is no
    bool, a finite real that is no bool, a tuple (never a list) of such
    items, a union member, a dict of such keys and values, or an instance."""
    origin, args = typing.get_origin(hint), typing.get_args(hint)
    if hint is int:
        return isinstance(value, numbers.Integral) and not isinstance(value, bool)
    if hint is float:
        return isinstance(value, numbers.Real) and not isinstance(value, bool) and math.isfinite(value)
    if origin in (typing.Union, types.UnionType):
        return any(has_kind(value, a) for a in args)
    if origin is tuple:
        if not isinstance(value, tuple):
            return False
        if args[-1] is Ellipsis:
            return all(has_kind(v, args[0]) for v in value)
        return len(value) == len(args) and all(map(has_kind, value, args))
    if origin is dict:
        return isinstance(value, dict) and all(has_kind(k, args[0]) and has_kind(v, args[1]) for k, v in value.items())
    return isinstance(value, hint)


# far past every size bound; a draw between 300 and a bound would allocate
huge_ints = st.just(2**31) | st.just(10**400)
scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-4, 300),
    huge_ints,
    st.floats(allow_nan=True, allow_infinity=True),
    st.floats(-100, 100),
    st.sampled_from(WORDS),
)
# numpy scalars too: np.float64 is a float, np.int64 an Integral, np.bool_ neither
numpy_scalars = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True).map(np.float64),
    st.floats(allow_nan=True, allow_infinity=True, width=32).map(np.float32),
    st.integers(-4, 300).map(np.int64),
    st.booleans().map(np.bool_),
)
junk = st.one_of(
    scalars,
    numpy_scalars,
    st.lists(scalars, max_size=4),
    st.lists(scalars, max_size=4).map(tuple),
    st.dictionaries(st.sampled_from(LAYER_KEYS), scalars, max_size=2),
)


def of_kind(hint):
    """Values of the annotated kind, mostly, with lists for tuples."""
    origin, args = typing.get_origin(hint), typing.get_args(hint)
    if hint is int:
        return st.integers(-4, 300) | st.integers(0, 300).map(np.int64) | huge_ints
    if hint is float:
        # an int qualifies, unless it is past the float range
        return st.floats(-100, 100) | st.integers(-5, 50) | st.just(10**400)
    if hint is str:
        return st.sampled_from(WORDS)
    if hint is type(None):
        return st.none()
    if origin in (typing.Union, types.UnionType):
        return st.one_of([of_kind(a) for a in args])
    if origin is tuple:
        items = st.lists(of_kind(args[0]), max_size=8) if args[-1] is Ellipsis else st.tuples(*map(of_kind, args)).map(list)
        return items | items.map(tuple)
    if origin is dict:
        return st.dictionaries(st.sampled_from(LAYER_KEYS), of_kind(args[1]), max_size=3)
    if hint is NetworkConfig:
        return st.just(NetworkConfig())
    return st.sampled_from(PRIMITIVES)


def names_a_field(message: str, names) -> bool:
    return any(re.search(rf"\b{re.escape(name)}\b", message) for name in names)


@pytest.mark.parametrize("cls", CONFIGS, ids=lambda cls: cls.__name__)
@settings(max_examples=300)
@given(data=st.data())
def test_config_holds_its_kinds_or_names_the_field(cls, data):
    hints = typing.get_type_hints(cls)
    kw = {}
    for f in dataclasses.fields(cls):
        required = f.default is dataclasses.MISSING and f.default_factory is dataclasses.MISSING
        if required or data.draw(st.booleans(), label=f"give {f.name}"):
            # one field in four is junk, so some cases get past every check
            spoil = data.draw(st.integers(0, 3), label=f"spoil {f.name}") == 0
            kw[f.name] = data.draw(junk if spoil else of_kind(hints[f.name]), label=f.name)
    try:
        config = cls(**kw)
    except ValueError as exc:
        assert names_a_field(str(exc), hints), exc
        return
    for name, hint in hints.items():
        assert has_kind(getattr(config, name), hint), (name, getattr(config, name))


def _paths(node, path=()):
    """The path of every mapping value and list entry under ``node``."""
    items = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    for key, child in items:
        yield path + (key,)
        yield from _paths(child, path + (key,))


def _node(doc, path):
    for key in path:
        doc = doc[key]
    return doc


EXAMPLE = yaml.safe_load(synth_lidar._EXAMPLE_CONFIG)
EXAMPLE_PATHS = list(_paths(EXAMPLE))
# every YAML key of a section and every field it fills
YAML_KEYS = sorted(
    set(synth_lidar._SENSOR_KEYS)
    | set(synth_lidar._SCENE_KEYS)
    | set(synth_lidar._ENCLOSURE_KEYS)
    | {f.name for cls in (Box, Sphere, Cylinder) for f in dataclasses.fields(cls)}
    | {"kind", "enclosure", "primitives", "sensor", "scene"}
)
FIELD_NAMES = {
    name for cls in (SensorModel, SceneConfig, Box, Sphere, Cylinder) for name in typing.get_type_hints(cls)
}
yaml_values = st.recursive(
    st.one_of(
        st.none(),
        st.booleans(),
        st.integers(-4, 300),
        huge_ints,
        st.floats(allow_nan=True, allow_infinity=True),
        st.floats(-100, 100),
        st.sampled_from(("7", "box", "sphere", "cylinder", "x", "")),
    ),
    lambda children: st.lists(children, max_size=4) | st.dictionaries(st.sampled_from(YAML_KEYS), children, max_size=3),
    max_leaves=6,
)


@settings(max_examples=300)
@given(data=st.data())
def test_yaml_loads_typed_or_names_the_field(tmp_path_factory, data):
    doc = yaml.safe_load(synth_lidar._EXAMPLE_CONFIG)
    for _ in range(data.draw(st.integers(1, 3), label="mutations")):
        path = data.draw(st.sampled_from(EXAMPLE_PATHS), label="path")
        try:
            parent = _node(doc, path[:-1])
            parent[path[-1]]
        except (KeyError, IndexError, TypeError):
            continue  # an earlier mutation removed or replaced this path
        action = data.draw(st.sampled_from(("replace", "delete", "add")), label="action")
        if action == "replace":
            parent[path[-1]] = data.draw(yaml_values, label="value")
        elif action == "delete":
            del parent[path[-1]]
        elif isinstance(parent, dict):
            parent[data.draw(st.sampled_from(YAML_KEYS), label="key")] = data.draw(yaml_values, label="value")
    path = tmp_path_factory.mktemp("yaml") / "setup.yaml"
    path.write_text(yaml.safe_dump(doc))
    try:
        sensor, scene = load_scan_setup(path)
    except ValueError as exc:
        assert names_a_field(str(exc), YAML_KEYS + sorted(FIELD_NAMES)), exc
        return
    for config in (sensor, scene, *scene.primitives):
        for name, hint in typing.get_type_hints(type(config)).items():
            assert has_kind(getattr(config, name), hint), (name, getattr(config, name))


def test_example_yaml_loads_as_written(tmp_path):
    """The example file's values already have their fields' kinds, so it
    loads to the objects it spells out."""
    path = tmp_path / "setup.yaml"
    synth_lidar.write_example_config(path)
    sensor, scene = load_scan_setup(path)
    assert sensor == SensorModel(n_beams=64, fov_up=3.0, fov_down=-25.0, azimuth_step=0.17578125, rev_period=0.1, mount_height=1.73)
    assert scene == SceneConfig(
        seed=7,
        ground_z=0.0,
        ground_class=1,
        ground_reflectance=0.25,
        angular_noise=0.0,
        ego_velocity=8.0,
        n_classes=8,
        enclosure_radius=40.0,
        enclosure_class=2,
        enclosure_reflectance=0.45,
        primitives=(
            Box(center=(12.0, 3.0, 1.0), size=(4.0, 2.0, 2.0), class_id=2, reflectance=0.55),
            Sphere(center=(-9.0, -4.0, 1.2), radius=1.5, class_id=3, reflectance=0.8),
            Cylinder(center=(6.0, -7.0, 1.5), radius=0.4, height=3.0, class_id=4, reflectance=0.7),
        ),
    )


def test_yaml_primitive_missing_a_key_is_named(tmp_path):
    path = tmp_path / "setup.yaml"
    path.write_text("sensor: {}\nscene: {primitives: [{kind: box, center: [9, 0, 1], class_id: 2}]}\n")
    with pytest.raises(ValueError, match="section 'box': missing key 'size'"):
        load_scan_setup(path)


@pytest.mark.parametrize("config", [SensorModel(), SceneConfig(), PRIMITIVES[0], NetworkConfig(), TrainConfig()], ids=lambda c: type(c).__name__)
def test_configs_are_frozen(config):
    name = dataclasses.fields(config)[0].name
    with pytest.raises(dataclasses.FrozenInstanceError):
        setattr(config, name, getattr(config, name))
    assert dataclasses.replace(config) == config


def test_a_list_for_a_tuple_field_is_stored_as_a_tuple():
    box = Box(center=[6, 0, 1], size=[1.0, 2.0, 2.0], class_id=2)
    assert box.center == (6, 0, 1) and isinstance(box.center, tuple) and isinstance(box.size, tuple)
    assert NetworkConfig(stage_channels=[8] * 6).stage_channels == (8,) * 6


# -- byte streams and clouds --------------------------------------------------

SENSOR = SensorModel(n_beams=4, azimuth_step=360.0 / 16.0)
SCAN = generate_scan(SENSOR, SceneConfig(primitives=PRIMITIVES, enclosure_radius=12.0, ego_velocity=6.0, angular_noise=0.3, seed=3))
READERS = {
    "bin": (read_point_cloud, write_point_cloud(SCAN.cloud)),
    "label": (read_labels, write_labels(SCAN.labels)),
    "rimg": (read_range_image_bytes, write_range_image_bytes(project_scan(SENSOR, SCAN, "ego")[0])),
}


def holds_its_invariants(decoded) -> bool:
    """A decoded cloud is finite and its ranges are finite float32; a
    decoded range image has a positive depth on its mask, zeros off it,
    finite planes and no negative label."""
    if isinstance(decoded, PointCloud):
        return bool(np.isfinite(float32_ranges(decoded.points)).all() and np.isfinite(decoded.reflectance).all())
    if isinstance(decoded, LabelArray):
        return decoded.semantic.shape == decoded.instance.shape
    on = decoded.mask
    planes = (decoded.depth, decoded.reflectance, decoded.label)
    return bool(
        all(np.isfinite(p).all() for p in planes)
        and (decoded.depth[on] > 0).all()
        and all((p[~on] == 0).all() for p in planes)
        and (decoded.label >= 0).all()
    )


@pytest.mark.parametrize("fmt", sorted(READERS))
@settings(max_examples=200)
@given(data=st.data())
def test_reader_decodes_or_raises_format_error(fmt, data):
    read, valid = READERS[fmt]
    how = data.draw(st.sampled_from(("random", "truncate", "mutate")), label="how")
    if how == "random":
        stream = data.draw(st.binary(max_size=4 * len(valid)), label="stream")
    elif how == "truncate":
        stream = valid[: data.draw(st.integers(0, len(valid) - 1), label="length")]
    else:
        at = data.draw(st.integers(0, len(valid) - 1), label="at")
        stream = valid[:at] + bytes([data.draw(st.integers(0, 255), label="byte")]) + valid[at + 1 :]
    try:
        decoded = read(stream)
    except FormatError:
        return
    assert holds_its_invariants(decoded), (how, stream)


points_f32 = hnp.arrays(np.float32, st.tuples(st.integers(0, 12), st.just(3)), elements=st.floats(width=32, allow_nan=False, allow_infinity=False))
POISONS = ("nan", "inf", "-inf", "z axis", "reflectance nan", "reflectance inf")


def poison(cloud: PointCloud, kind: str, point: int, coord: int) -> None:
    """Edit ``cloud`` in place, past the checks ``PointCloud`` makes when built."""
    if kind == "z axis":
        cloud.points[point, :2] = 0.0
    elif kind.startswith("reflectance"):
        cloud.reflectance[point] = float(kind.split()[1])
    else:
        cloud.points[point, coord] = float(kind)


def projects_cleanly(img, index_map, n: int) -> bool:
    planes = (img.depth, img.reflectance, img.label)
    return bool(all(np.isfinite(p).all() for p in planes) and (img.depth[img.mask] > 0).all() and index_map.n_points == n)


def float32_ranges(points: np.ndarray) -> np.ndarray:
    """Each point's float64 range rounded to float32, inf past its range."""
    xyz = points.astype(np.float64)
    with np.errstate(over="ignore", invalid="ignore"):
        return np.sqrt(xyz[:, 0] * xyz[:, 0] + xyz[:, 1] * xyz[:, 1] + xyz[:, 2] * xyz[:, 2]).astype(np.float32)


@settings(max_examples=300)
@given(points=points_f32, kind=st.sampled_from((None,) + POISONS), data=st.data())
def test_projection_rejects_a_poisoned_cloud(points, kind, data):
    """A NaN, an inf or a range that rounds past float32 is a ValueError in
    ``PointCloud`` that names the point, and in either projection of a cloud
    edited after it was built, as is a point on the z axis. Any other cloud
    projects to finite planes."""
    reflectance = np.full(len(points), 0.5, np.float32)
    far = ~np.isfinite(float32_ranges(points))
    if far.any():
        with pytest.raises(ValueError, match=rf"^range of point {np.flatnonzero(far)[0]} rounds past float32$"):
            PointCloud(points=points, reflectance=reflectance)
    cloud = PointCloud(points=np.ones_like(points), reflectance=reflectance)
    cloud.points[...] = points  # past the check, for a range too large
    if kind is not None and len(points):
        poison(cloud, kind, data.draw(st.integers(0, len(points) - 1), label="point"), data.draw(st.integers(0, 2), label="coord"))
        if kind != "z axis":
            with pytest.raises(ValueError, match="non-finite value in point"):
                PointCloud(points=cloud.points, reflectance=cloud.reflectance)
    xyz = cloud.points
    bad = not (np.isfinite(float32_ranges(xyz)).all() and np.isfinite(cloud.reflectance).all() and ((xyz[:, 0] != 0) | (xyz[:, 1] != 0)).all())
    for project in (unfold_scan, project_ego_corrected):
        try:
            img, index_map = project(cloud, None, 4, 16)
        except ValueError:
            assert bad, (project.__name__, cloud.points, cloud.reflectance)
            continue
        assert not bad, (project.__name__, cloud.points, cloud.reflectance)
        assert projects_cleanly(img, index_map, len(cloud))


@pytest.mark.parametrize("projection", ["unfold", "ego"])
@pytest.mark.parametrize("kind", POISONS)
def test_project_scan_rejects_a_poisoned_scan(projection, kind):
    clouds = [PointCloud(points=c.points.copy(), reflectance=c.reflectance.copy()) for c in (SCAN.cloud, SCAN.cloud_ego_corrected)]
    for cloud in clouds:
        poison(cloud, kind, len(cloud) // 2, 2)
    scan = dataclasses.replace(SCAN, cloud=clouds[0], cloud_ego_corrected=clouds[1])
    with pytest.raises(ValueError, match="point"):
        project_scan(SENSOR, scan, projection)
    img, index_map = project_scan(SENSOR, SCAN, projection)
    assert projects_cleanly(img, index_map, len(SCAN))


@pytest.fixture(scope="module")
def tiny_archive(tmp_path_factory) -> bytes:
    """The bytes of a saved two-channel network with trained-looking norms."""
    net = build(NetworkConfig(stage_channels=(2,) * 6, blocks_per_stage=(1, 0, 1, 0, 0, 0), n_classes=3), seed=50)
    rng = np.random.default_rng(51)
    for layer in net.layers.values():
        for name, buffer in layer.buffers.items():
            buffer[...] = rng.uniform(0.5, 1.5, buffer.shape) if name.endswith("running_var") else rng.standard_normal(buffer.shape)
    path = tmp_path_factory.mktemp("archive") / "tiny.npz"
    save_weights(net, path)
    return path.read_bytes()


@settings(max_examples=300)
@given(data=st.data())
def test_weight_archive_loads_finite_or_raises_value_error(tiny_archive, data):
    """A truncated, byte-mutated or bit-flipped archive either loads a
    network whose eval logits are finite or raises a ValueError."""
    how = data.draw(st.sampled_from(("truncate", "mutate", "flip")), label="how")
    if how == "truncate":
        stream = tiny_archive[: data.draw(st.integers(0, len(tiny_archive) - 1), label="length")]
    else:
        at = data.draw(st.integers(0, len(tiny_archive) - 1), label="at")
        old = tiny_archive[at]
        new = data.draw(st.integers(0, 255), label="byte") if how == "mutate" else old ^ 1 << data.draw(st.integers(0, 7), label="bit")
        stream = tiny_archive[:at] + bytes([new]) + tiny_archive[at + 1 :]
    try:
        net = load_network(io.BytesIO(stream))
    except ValueError:
        return
    x = np.random.default_rng(52).standard_normal((1, 4, 32, 3)).astype(np.float32)
    assert np.isfinite(net.forward(x)).all(), (how, stream)
