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


@pytest.mark.parametrize("mutate, key_path", [
    pytest.param(_drop_limits, "arm.joints[1].limits", id="no-limits"),
    pytest.param(_one_element_limits, "arm.joints[2].limits", id="short-limits"),
    pytest.param(_drop_sphere_radius, "scene.spheres[0].radius", id="no-radius"),
    pytest.param(_zero_approach_axis, "arm.approach_axis", id="zero-approach"),
])
def test_malformed_config_names_key_path(shipped_raw, mutate, key_path):
    raw = copy.deepcopy(shipped_raw)
    parse_config(raw)  # the shipped document itself is valid
    mutate(raw)
    with pytest.raises(ConfigError) as exc_info:
        parse_config(raw)
    assert key_path in str(exc_info.value)
