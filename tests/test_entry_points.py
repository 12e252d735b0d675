"""Every way a config enters: each config dataclass built from random field
values, and scan setups loaded from mutated copies of the example YAML file.

Each case either constructs objects whose fields have their annotated kinds
or raises a ValueError that names a field; no other exception may escape.
The kinds are checked here by ``has_kind``, written apart from the library's
own check. Integers are drawn small: a config's sizes (beams, channels) set
how much its construction allocates, and no size has an upper bound yet, so
an n_beams of 10**9 would build a billion default elevations.
"""

import dataclasses
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

from scanseg import synth_lidar
from scanseg.neural_core import PADDING_MODES
from scanseg.seg_net import NetworkConfig
from scanseg.seg_objectives import LOSSES
from scanseg.synth_lidar import Box, Cylinder, SceneConfig, SensorModel, Sphere, load_scan_setup
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


scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-4, 300),
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
        return st.integers(-4, 300) | st.integers(0, 300).map(np.int64)
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
