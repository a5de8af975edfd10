import copy
import re

import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st

from harvestcell import config
from harvestcell.config import (RunConfig, default_config_path, load_config,
                                parse_config)
from harvestcell.errors import ConfigError


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


def _non_unit_tool_quaternion(raw):
    raw["arm"]["tool_offset"]["quaternion_xyzw"] = [1, 1, 0, 0]


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
    pytest.param(_put("pso", "collision_penalty", -1), "'pso': collision_penalty",
                 id="negative-collision-penalty"),
    pytest.param(_put("pso", "limit_penalty", -5.0), "'pso': limit_penalty",
                 id="negative-limit-penalty"),
    pytest.param(_put("mechanism", "finger_count", 2.5), "mechanism.finger_count",
                 id="fractional-fingers"),
    pytest.param(_four_entry_home_q, "arm.home_q", id="short-home-q"),
    pytest.param(_integer_sphere_tag, "scene.spheres[0].tag", id="integer-tag"),
    pytest.param(_non_unit_tool_quaternion, "'arm.tool_offset'",
                 id="non-unit-quaternion"),
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
