import copy

import pytest
import yaml

from harvestcell.config import default_config_path, parse_config
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


@pytest.mark.parametrize("mutate, key_path", [
    pytest.param(_drop_limits, "arm.joints[1].limits", id="no-limits"),
    pytest.param(_one_element_limits, "arm.joints[2].limits", id="short-limits"),
    pytest.param(_drop_sphere_radius, "scene.spheres[0].radius", id="no-radius"),
    pytest.param(_zero_approach_axis, "arm.approach_axis", id="zero-approach"),
    pytest.param(_non_numeric_offset, "arm.joints[0].offset",
                 id="non-numeric-offset"),
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
    raw["pick_cycle"].update(yaml.safe_load(line))
    key = line.split(":")[0]
    with pytest.raises(ConfigError, match=key):
        parse_config(raw)
