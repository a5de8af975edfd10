import copy
import dataclasses
import math
import re
import typing

import numpy as np
import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st

from harvestcell import config
from harvestcell.arm import IkOptions, Joint, KinematicChain, Pose, RigidTransform
from harvestcell.config import (RunConfig, default_config_path, load_config,
                                parse_config)
from harvestcell.domains import (FINITE, FLOAT_MAX, Checked, Interval,
                                 UnitQuaternion, Vector, _checks)
from harvestcell.errors import ConfigError, DomainError
from harvestcell.harvest import PickCycleConfig
from harvestcell.mechanism import MechanismParams
from harvestcell.perception import CameraModel
from harvestcell.planner import Capsule, PsoConfig, Scene, Sphere


def _sections(cls, path=""):
    """(config section, dataclass) for every dataclass that the fields of
    `cls` reach: a dataclass field, or the first item of a tuple of them."""
    hints = typing.get_type_hints(cls)
    for f in dataclasses.fields(cls):
        hint, key = hints[f.name], path + f.name
        if typing.get_origin(hint) is tuple:
            hint, key = typing.get_args(hint)[0], key + "[0]"
        if dataclasses.is_dataclass(hint):
            yield key, hint
            yield from _sections(hint, key + ".")


# the settings dataclasses, by the config section that holds one of them, and
# every class whose fields declare their domains (IkOptions and Pose are not
# loaded)
_SECTIONS = dict(_sections(RunConfig))
_CHECKED = (*dict.fromkeys(_SECTIONS.values()), IkOptions, Pose)


@pytest.fixture(scope="module")
def shipped_raw():
    with open(default_config_path(), "r", encoding="utf-8") as fh:
        return yaml.safe_load(fh)


def _drop_limits(raw):
    del raw["arm"]["joints"][1]["limits"]


def _one_element_limits(raw):
    raw["arm"]["joints"][2]["limits"] = [0.5]


def _drop_sphere_radius(raw):
    del raw["scene"]["spheres"][0]["radius"]


def _zero_approach_axis(raw):
    raw["arm"]["approach_axis"] = [0, 0, 0]


def _non_numeric_offset(raw):
    raw["arm"]["joints"][0]["offset"] = ["a", 0, 0]


def _drop_capsule_radius(raw):
    del raw["scene"]["capsules"][0]["radius"]


def _integer_joint(raw):
    raw["arm"]["joints"] = [5]


def _integer_spheres(raw):
    raw["scene"]["spheres"] = 5


def _four_entry_home_q(raw):
    raw["arm"]["home_q"] = raw["arm"]["home_q"][:4]


def _integer_sphere_tag(raw):
    raw["scene"]["spheres"][0]["tag"] = 5


def _misspelt_sphere_tag(raw):
    raw["scene"]["spheres"][0]["tag"] = "tomatoe"


def _misspelt_capsule_tag(raw):
    raw["scene"]["capsules"][0]["tag"] = "stems"


def _non_unit_tool_quaternion(raw):
    raw["arm"]["tool_offset"]["quaternion_xyzw"] = [1, 1, 0, 0]


def _off_unit_camera_quaternion(raw):
    # |q| is within 1e-9 of 1, |q|^2 is not
    raw["camera"]["extrinsics"]["quaternion_xyzw"] = [0.5, -0.5, 0.5, -0.5000000014]


def _put(section, key, value):
    """Mutator that sets `section.key`; the section may be absent from the
    shipped document, whose omitted keys take the dataclass defaults."""
    def mutate(raw):
        raw.setdefault(section, {})[key] = value
    return mutate


@pytest.mark.parametrize("mutate, key_path", [
    pytest.param(_drop_limits, "arm.joints[1].limits", id="no-limits"),
    pytest.param(_one_element_limits, "arm.joints[2].limits", id="short-limits"),
    pytest.param(_drop_sphere_radius, "scene.spheres[0].radius", id="no-radius"),
    pytest.param(_zero_approach_axis, "arm.approach_axis", id="zero-approach"),
    pytest.param(_non_numeric_offset, "arm.joints[0].offset",
                 id="non-numeric-offset"),
    pytest.param(_drop_capsule_radius, "scene.capsules[0].radius",
                 id="no-capsule-radius"),
    pytest.param(_integer_joint, "arm.joints[0]", id="integer-joint"),
    pytest.param(_integer_spheres, "scene.spheres", id="integer-spheres"),
    pytest.param(_put("pso", "inertia", "x"), "pso.inertia", id="string-float"),
    pytest.param(_put("pso", "seed", "abc"), "pso.seed", id="string-int"),
    pytest.param(_put("pso", "clearance", float("nan")), "pso.clearance",
                 id="nan-clearance"),
    pytest.param(_put("camera", "fx", float("nan")), "camera.fx", id="nan-fx"),
    pytest.param(_put("mechanism", "r", float("inf")), "mechanism.r",
                 id="inf-crank"),
    pytest.param(_put("pick_cycle", "cut_zone_radius", float("inf")),
                 "pick_cycle.cut_zone_radius", id="inf-cut-zone"),
    pytest.param(_put("pick_cycle", "punnet_position", [float("inf"), 0, 0]),
                 "pick_cycle.punnet_position", id="inf-punnet"),
    pytest.param(_put("pso", "swarm_size", 2.7), "pso.swarm_size",
                 id="fractional-swarm"),
    pytest.param(_put("pso", "collision_penalty", -1),
                 "'pso.collision_penalty' must be finite and >= 0",
                 id="negative-collision-penalty"),
    pytest.param(_put("pso", "limit_penalty", -5.0),
                 "'pso.limit_penalty' must be finite and >= 0",
                 id="negative-limit-penalty"),
    pytest.param(_put("mechanism", "finger_count", 2.5), "mechanism.finger_count",
                 id="fractional-fingers"),
    pytest.param(_four_entry_home_q, "arm.home_q", id="short-home-q"),
    pytest.param(_integer_sphere_tag, "scene.spheres[0].tag", id="integer-tag"),
    pytest.param(_misspelt_sphere_tag,
                 "'scene.spheres[0].tag' must be one of 'tomato', 'other'",
                 id="misspelt-sphere-tag"),
    pytest.param(_misspelt_capsule_tag,
                 "'scene.capsules[0].tag' must be one of 'stem', 'branch'",
                 id="misspelt-capsule-tag"),
    pytest.param(_put("camera", "depth_scale", -1),
                 "'camera.depth_scale' must be finite and > 0",
                 id="negative-depth-scale"),
    pytest.param(_put("mechanism", "theta_range_deg", [0, 360]),
                 "'mechanism.theta_range_deg[1]' must be in [0, 360)",
                 id="full-turn-theta"),
    pytest.param(_put("pick_cycle", "stage_time_means", {"cut": 0}),
                 "'pick_cycle.stage_time_means.cut' must be in (0, 1e+100]",
                 id="zero-stage-mean"),
    pytest.param(_non_unit_tool_quaternion, "'arm.tool_offset.quaternion_xyzw'",
                 id="non-unit-quaternion"),
    pytest.param(_off_unit_camera_quaternion,
                 "'camera.extrinsics.quaternion_xyzw' must be a unit quaternion",
                 id="off-unit-camera-quaternion"),
    pytest.param(_put("pso", "iterations", 30.0),
                 "'pso.iterations' must be an integer >= 1", id="float-iterations"),
])
def test_malformed_config_names_key_path(shipped_raw, mutate, key_path):
    raw = copy.deepcopy(shipped_raw)
    parse_config(raw)  # the shipped document itself is valid
    mutate(raw)
    with pytest.raises(ConfigError) as exc_info:
        parse_config(raw)
    assert key_path in str(exc_info.value)


@pytest.mark.parametrize("line", [
    "pose_noise_sigma: .nan",
    "pose_noise_sigma: .inf",
    "grasp_force: .nan",
])
def test_non_finite_pick_cycle_value_rejected(shipped_raw, line):
    raw = copy.deepcopy(shipped_raw)
    raw.setdefault("pick_cycle", {}).update(yaml.safe_load(line))
    key = line.split(":")[0]
    with pytest.raises(ConfigError, match=key):
        parse_config(raw)


def _leaf_paths(node, path=()):
    """Key paths of every scalar and every list entry that is not a mapping
    or a list, in a parsed YAML document."""
    items = node.items() if isinstance(node, dict) else enumerate(node)
    for key, value in items:
        if isinstance(value, (dict, list)):
            yield from _leaf_paths(value, path + (key,))
        else:
            yield path + (key,)


def _leaf_keys(node, path=()):
    """Key paths of every mapping key whose value is not a mapping."""
    items = node.items() if isinstance(node, dict) else enumerate(node)
    for key, value in items:
        if isinstance(value, dict):
            yield from _leaf_keys(value, path + (key,))
        elif isinstance(value, list) and value and isinstance(value[0], dict):
            yield path + (key,)
            yield from _leaf_keys(value, path + (key,))
        else:
            yield path + (key,)


def _parent(raw, path):
    for key in path[:-1]:
        raw = raw[key]
    return raw


@pytest.fixture(scope="module")
def shipped_leaves(shipped_raw):
    return list(_leaf_paths(shipped_raw))


_DRAWN = st.one_of(
    st.none(), st.booleans(), st.integers(),
    st.floats(allow_nan=True, allow_infinity=True), st.text(max_size=8),
    st.lists(st.one_of(st.integers(), st.floats(), st.text(max_size=3)),
             max_size=5),
    st.dictionaries(st.text(max_size=8), st.integers(), max_size=3))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(data=st.data(), value=_DRAWN)
def test_any_leaf_value_parses_or_raises_one_line_config_error(
        shipped_raw, shipped_leaves, data, value):
    path = data.draw(st.sampled_from(shipped_leaves))
    raw = copy.deepcopy(shipped_raw)
    _parent(raw, path)[path[-1]] = value
    try:
        assert isinstance(parse_config(raw), RunConfig)
    except ConfigError as exc:
        assert "\n" not in str(exc)


@pytest.mark.parametrize("key, value", [
    pytest.param("iterations", 10**400, id="int-past-float-range"),
    pytest.param("seed", -(10**400), id="negative-int-past-float-range"),
    pytest.param("inertia", [[["y" * 5000] * 50] * 50] * 50, id="wide-nested-list"),
    pytest.param("clearance", {"k" * 500: "v" * 500}, id="long-mapping"),
])
def test_rejected_value_is_echoed_bounded(shipped_raw, key, value):
    raw = copy.deepcopy(shipped_raw)
    raw.setdefault("pso", {})[key] = value
    with pytest.raises(ConfigError) as exc_info:
        parse_config(raw)
    message = str(exc_info.value)
    assert message.startswith(f"'pso.{key}' must be") and len(message) < 200


def test_shipped_yaml_restates_no_default(shipped_raw):
    """Every leaf key of the shipped file changes the parsed config, so the
    file never repeats a dataclass default."""
    shipped = repr(parse_config(shipped_raw))
    paths = list(_leaf_keys(shipped_raw))
    assert len(paths) > 20
    for path in paths:
        raw = copy.deepcopy(shipped_raw)
        del _parent(raw, path)[path[-1]]
        try:
            parsed = repr(parse_config(raw))
        except ConfigError:
            continue  # a required key
        assert parsed != shipped, f"{'.'.join(map(str, path))} restates a default"


@pytest.mark.skipif(not yaml.__with_libyaml__, reason="PyYAML without libyaml")
def test_loader_is_libyaml_when_pyyaml_has_it():
    # a silent fallback to the pure parser costs about 8 ms per load
    assert config._LOADER is yaml.CSafeLoader


def test_shipped_yaml_loads_equal_under_both_loaders():
    text = default_config_path().read_text(encoding="utf-8")
    assert (repr(yaml.load(text, Loader=config._LOADER))
            == repr(yaml.load(text, Loader=yaml.SafeLoader)))


_SCALARS = st.one_of(
    st.none(), st.booleans(), st.integers(),
    st.floats(allow_nan=True, allow_infinity=True), st.text(max_size=12))
_CONFIG_SHAPED = st.recursive(
    _SCALARS,
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.dictionaries(st.text(max_size=10), children, max_size=4)),
    max_leaves=24)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(doc=st.dictionaries(st.text(max_size=10), _CONFIG_SHAPED, max_size=6),
       flow=st.sampled_from([None, True, False]))
def test_dumped_documents_load_equal_under_both_loaders(doc, flow):
    # repr, not ==, so that NaN and -0.0 compare too
    text = yaml.safe_dump(doc, default_flow_style=flow, allow_unicode=True)
    assert (repr(yaml.load(text, Loader=config._LOADER))
            == repr(yaml.load(text, Loader=yaml.SafeLoader)))


@pytest.mark.parametrize("text", [
    pytest.param("arm: [1", id="no-final-newline"),
    pytest.param("pso:\n  seed: 1\narm: [1, 2", id="no-final-newline-line-3"),
    pytest.param("pso: {seed: 1}\r\narm: [1", id="crlf-no-final-newline"),
    pytest.param("pso:\n\tseed: 1\n", id="tab-indent"),
    pytest.param('camera:\n  fx: "600\n  fy: 600\n', id="unclosed-quote"),
    pytest.param("arm:\n  home_q: [0, 1\npso: {}\n", id="unclosed-flow-sequence"),
    pytest.param("arm: {home_q: [0, 1]\n\n\n", id="unclosed-flow-mapping"),
    pytest.param("pso:\n  seed: *nowhere\n", id="undefined-alias"),
])
def test_yaml_error_reports_the_pure_parsers_line(tmp_path, text):
    with pytest.raises(yaml.MarkedYAMLError) as pure:
        yaml.load(text, Loader=yaml.SafeLoader)
    path = tmp_path / "bad.yaml"
    path.write_bytes(text.encode("utf-8"))
    with pytest.raises(ConfigError) as exc_info:
        load_config(path)
    message = str(exc_info.value)
    assert "\n" not in message and str(path) in message
    lines = re.findall(r", line (\d+):", message)
    assert lines == [str(pure.value.problem_mark.line + 1)]


def test_control_character_error_has_no_line(tmp_path):
    path = tmp_path / "bad.yaml"
    path.write_bytes(b"pso:\n  seed: \x01\n")
    with pytest.raises(ConfigError) as exc_info:
        load_config(path)
    message = str(exc_info.value)
    assert "\n" not in message and str(path) in message
    assert "line" not in message


def test_shallow_config_with_many_indicators_loads(tmp_path):
    # more nesting indicators than the depth limit send the text through the
    # depth scan, which must pass a shallow document
    text = default_config_path().read_text(encoding="utf-8")
    path = tmp_path / "dashes.yaml"
    path.write_text("# " + "-" * 2000 + "\n" + text, encoding="utf-8")
    assert repr(load_config(path)) == repr(load_config(default_config_path()))


_Z_JOINT = {"axis": [0.0, 0.0, 1.0], "offset": np.zeros(3), "limits": (-1.0, 1.0)}
# the required fields of each class
_REQUIRED = {Sphere: {"center": np.zeros(3), "radius": 0.03},
             Capsule: {"p0": np.zeros(3), "p1": np.ones(3), "radius": 0.01},
             Joint: _Z_JOINT, KinematicChain: {"joints": (Joint(**_Z_JOINT),)},
             Pose: {"position": np.zeros(3), "orientation": [0.0, 0.0, 0.0, 1.0]}}


@pytest.mark.parametrize("cls, field, value", [
    (PsoConfig, "cognitive", math.nan),
    (PsoConfig, "social", math.inf),
    (PsoConfig, "swarm_size", 2.5),
    (CameraModel, "fx", math.nan),
    (CameraModel, "fx", math.inf),
    (CameraModel, "depth_scale", math.nan),
    (CameraModel, "depth_scale", -1),
    (MechanismParams, "r", math.inf),
    (MechanismParams, "finger_count", math.nan),
    (Sphere, "radius", math.inf),
    (Capsule, "radius", math.inf),
    (Sphere, "center", [math.nan] * 3),
    (Sphere, "tag", "tomatoe"),
    (Capsule, "tag", "stems"),
    (Sphere, "center", ["a", 0, 0]),
    (Sphere, "center", ["1", "2", "3"]),
    (Sphere, "center", [True, 0, 0]),
    (Sphere, "center", np.zeros((3, 1))),
    (PsoConfig, "iterations", 10**400),
    (Joint, "axis", [0.0, 0.0, 0.0]),
    (Joint, "axis", [1e300, 1e300, 0.0]),
    (KinematicChain, "approach_axis", [math.nan, 0.0, 1.0]),
    (KinematicChain, "home_q", [0.0, 0.0]),
    (KinematicChain, "home_q", [2.0]),
    (RigidTransform, "quaternion", [0.0, 0.0, 0.0, 1.0 + 1e-9]),
    (CameraModel, "extrinsic_quaternion", [0.5, -0.5, 0.5, -0.5000000014]),
    (Pose, "orientation", [0.0, 0.0, 0.0]),
    # a container of settings: `field[0]` names its first item
    (PickCycleConfig, "stage_time_means", 5),
    (KinematicChain, "joints[0]", [5]),
    (KinematicChain, "base_frame", 3),
    (Scene, "spheres[0]", [1]),
    (Scene, "capsules[0]", ("x",)),
])
def test_out_of_domain_setting_rejected_on_construction(cls, field, value):
    with pytest.raises(DomainError, match=rf"^'{re.escape(field)}' must be "):
        cls(**{**_REQUIRED.get(cls, {}), field.split("[")[0]: value})


@pytest.mark.parametrize("make, key", [
    pytest.param(lambda: MechanismParams(theta_range=(0.0,)), "theta_range",
                 id="short-theta-range"),
    pytest.param(lambda: MechanismParams(theta_range=[0.0, 60.0, 120.0]),
                 "theta_range", id="long-theta-range"),
    pytest.param(lambda: Joint(**{**_Z_JOINT, "limits": (-math.inf, 1.0)}),
                 "limits[0]", id="infinite-limit"),
    pytest.param(lambda: Joint(**{**_Z_JOINT, "limits": 1.0}), "limits",
                 id="scalar-limits"),
])
def test_fixed_tuple_setting_checks_length_and_items(make, key):
    with pytest.raises(DomainError) as exc_info:
        make()
    assert exc_info.value.key == key


def test_checked_setting_stores_canonical_values():
    pso = PsoConfig(seed=np.int64(3), inertia=1)
    assert type(pso.seed) is int and type(pso.inertia) is float
    sphere = Sphere(center=[1, 2, 3], radius=1)
    assert sphere.center.dtype == float and sphere.center.tolist() == [1.0, 2.0, 3.0]
    assert MechanismParams(theta_range=[0, 120]).theta_range == (0.0, 120.0)
    # a direction of any nonzero length is stored as v / |v|
    chain = KinematicChain(joints=(Joint(**{**_Z_JOINT, "axis": [0, 0, 2]}),),
                           approach_axis=np.array([3.0, 4.0, 0.0]), home_q=[0])
    assert chain.joints[0].axis.tolist() == [0.0, 0.0, 1.0]
    assert chain.approach_axis.tolist() == [0.6, 0.8, 0.0]
    assert chain.home_q.dtype == float
    # a quaternion is checked, not normalised
    quaternion = [0.0, 0.0, 0.0, 1.0 + 4e-10]
    assert RigidTransform(quaternion=quaternion).quaternion.tolist() == quaternion


def _declarations(cls):
    """(field, annotation with its domain, plain annotation) per field."""
    full = typing.get_type_hints(cls, include_extras=True)
    plain = typing.get_type_hints(cls)
    return [(f.name, full[f.name], plain[f.name]) for f in dataclasses.fields(cls)]


# numeric fields checked where they are used: IK checks a target's position
# and raises ValueError for a non-finite one
_UNDECLARED = {(Pose, "position")}


@pytest.mark.parametrize("cls", _CHECKED, ids=lambda c: c.__name__)
def test_every_numeric_setting_declares_its_domain(cls):
    # a setting that is a dataclass, or a container of them, declares an
    # instance of its class: the checker must pick it up
    assert issubclass(cls, Checked)
    checked = {name for name, _, _ in _checks(cls)}
    declared = 0
    for name, full, plain in _declarations(cls):
        if (cls, name) in _UNDECLARED:
            continue
        if plain in (float, int, np.ndarray):
            parts = [full]
        elif dataclasses.is_dataclass(plain):
            parts = []
        elif typing.get_origin(plain) in (tuple, dict):
            parts = [arg for arg, kind in zip(typing.get_args(full),
                                              typing.get_args(plain))
                     if kind in (float, int)]
        else:
            continue
        assert name in checked, name
        for part in parts:
            assert typing.get_origin(part) is typing.Annotated, name
        declared += 1
    assert declared


def _leaves(shipped):
    """(key path, key path an error names, setter, domain) of each declared
    leaf that the loader reaches: a scalar field, a direction or quaternion,
    an element of a tuple or vector (an error names the whole vector), a
    dict value, or a choice among strings (the domain is then the tuple of
    choices)."""
    parsed = parse_config(shipped)
    for section, cls in _SECTIONS.items():
        obj = parsed
        for token in _tokens(section):
            obj = (obj[int(token[1:-1])] if token.startswith("[")
                   else getattr(obj, token))
        file_keys = {f.name: f.metadata.get("key", f.name)
                     for f in dataclasses.fields(cls)}
        for name, full, _ in _declarations(cls):
            key = file_keys[name]
            path = f"{section}.{key}"
            origin, args = typing.get_origin(full), typing.get_args(full)
            current = getattr(obj, name)
            if origin is typing.Literal:
                yield path, path, _setter(section, key), args
            elif (origin is typing.Annotated and isinstance(args[1], Vector)
                  and not args[1].direction):
                for i in range(args[1].size):
                    yield (f"{path}[{i}]", path,
                           _setter(section, key, current.tolist(), i), FINITE)
            elif origin is typing.Annotated:
                yield path, path, _setter(section, key), args[1]
            elif origin is tuple and typing.get_origin(args[0]) is typing.Annotated:
                for i, item in enumerate(args):
                    yield (f"{path}[{i}]", f"{path}[{i}]",
                           _setter(section, key, list(current), i),
                           typing.get_args(item)[1])
            elif origin is dict:
                for stage in current:
                    yield (f"{path}.{stage}", f"{path}.{stage}",
                           _setter(section, key, {}, stage),
                           typing.get_args(args[1])[1])


def _tokens(section):
    """'scene.spheres[0]' -> ['scene', 'spheres', '[0]']"""
    return re.findall(r"\w+|\[\d+\]", section)


def _setter(section, key, container=None, item=None):
    """Sets `section.key` in a raw document, or one item of the container
    (a copy of `container`) stored there."""
    def put(raw, value):
        node = raw
        for token in _tokens(section) + key.split(".")[:-1]:
            node = (node[int(token[1:-1])] if token.startswith("[")
                    else node.setdefault(token, {}))
        if container is None:
            node[key.split(".")[-1]] = value
        else:
            node[key.split(".")[-1]] = copy.copy(container)
            node[key.split(".")[-1]][item] = value
    return put


with open(default_config_path(), "r", encoding="utf-8") as _fh:
    _DECLARED_LEAVES = list(_leaves(yaml.safe_load(_fh)))


def _vectors(size, elements=st.floats(-1.0, 1.0)):
    return st.lists(elements, min_size=size, max_size=size)


def _inside(domain):
    if isinstance(domain, Vector):  # a direction
        magnitudes = st.floats(1e-100, 1e100)
        return _vectors(domain.size, st.one_of(
            st.just(0.0), magnitudes, magnitudes.map(lambda x: -x))).filter(any)
    if isinstance(domain, UnitQuaternion):
        return _vectors(4).filter(lambda q: np.linalg.norm(q) > 0.1).map(
            lambda q: (np.array(q) / np.linalg.norm(q)).tolist())
    if not isinstance(domain, Interval):
        return st.sampled_from(domain)
    if domain.integer:
        return st.integers(min_value=domain.lo, max_value=2**63)
    lo = math.nextafter(domain.lo, math.inf) if domain.lo_open else domain.lo
    hi = math.nextafter(domain.hi, -math.inf) if domain.hi_open else domain.hi
    return st.floats(lo, hi)


def _outside_vector(size, invalid):
    """Not a list, a list of another length, one element that is not a
    finite number, or one of the vectors `invalid` of the right length."""
    def spoil(spoiler):
        index, bad = spoiler
        vector = [0.0] * (size - 1) + [1.0]
        vector[index] = bad
        return vector
    return st.one_of(
        st.floats(), st.text(max_size=3),
        st.lists(st.floats(-1.0, 1.0), max_size=size + 2).filter(
            lambda v: len(v) != size),
        st.tuples(st.integers(0, size - 1), st.sampled_from(
            [math.nan, math.inf, -math.inf, True, "1", None])).map(spoil),
        st.sampled_from(invalid))


def _outside(domain):
    if isinstance(domain, Vector):  # a direction
        return _outside_vector(domain.size, [[0.0] * domain.size,
                                             [1e300] * domain.size])
    if isinstance(domain, UnitQuaternion):
        return _outside_vector(4, [[0.0] * 4, [0.0, 0.0, 0.0, 1.0 + 2e-9],
                                   [0.5, -0.5, 0.5, -0.5000000014], [1.0] * 4])
    if not isinstance(domain, Interval):
        return st.one_of(st.integers(), st.text(max_size=8).filter(
            lambda text: text not in domain))
    parts = [st.booleans(), st.sampled_from([math.nan, math.inf, -math.inf])]
    if domain.integer:
        return st.one_of(*parts, st.integers(max_value=domain.lo - 1),
                         st.integers(domain.lo, 10**6).map(lambda n: n + 0.5))
    if domain.lo > -FLOAT_MAX:
        parts.append(st.floats(max_value=domain.lo if domain.lo_open
                               else math.nextafter(domain.lo, -math.inf)))
    if domain.hi < FLOAT_MAX:
        parts.append(st.floats(min_value=domain.hi if domain.hi_open
                               else math.nextafter(domain.hi, math.inf)))
    return st.one_of(*parts)


# keys an in-domain value of which can still fail a check between fields:
# theta_range and joint limit order, the principal point inside the image,
# and home_q within the joint limits
_CROSS_FIELD = {"mechanism.theta_range_deg[0]", "mechanism.theta_range_deg[1]",
                "camera.cx", "camera.cy", "camera.width", "camera.height",
                "arm.joints[0].limits[0]", "arm.joints[0].limits[1]"}


@pytest.mark.parametrize("path, key, put, domain", _DECLARED_LEAVES,
                         ids=[path for path, _, _, _ in _DECLARED_LEAVES])
@settings(max_examples=25, deadline=None, derandomize=True)
@given(data=st.data())
def test_declared_domain_bounds_what_the_loader_accepts(
        shipped_raw, path, key, put, domain, data):
    raw = copy.deepcopy(shipped_raw)
    put(raw, data.draw(_inside(domain), label="inside"))
    try:
        assert isinstance(parse_config(raw), RunConfig)
    except ConfigError as exc:  # only a check between fields may fail
        assert path in _CROSS_FIELD, exc
        assert not isinstance(exc, DomainError) or exc.key == "arm.home_q", exc
    raw = copy.deepcopy(shipped_raw)
    put(raw, data.draw(_outside(domain), label="outside"))
    with pytest.raises(ConfigError) as exc_info:
        parse_config(raw)
    message = str(exc_info.value)
    assert "\n" not in message and message.startswith(f"'{key}' must be ")


def test_declared_leaves_cover_every_section():
    paths = [path for path, _, _, _ in _DECLARED_LEAVES]
    assert len(paths) == len(set(paths))
    for section in _SECTIONS:
        assert any(path.startswith(section + ".") for path in paths), section
    assert {"pick_cycle.stage_time_means.cut", "camera.extrinsics.translation[2]",
            "scene.spheres[0].tag", "mechanism.theta_range_deg[1]",
            "camera.extrinsics.quaternion_xyzw", "arm.joints[0].axis",
            "arm.joints[0].limits[1]", "arm.approach_axis",
            "arm.base_frame.quaternion_xyzw"} <= set(paths)
