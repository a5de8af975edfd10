"""Single-file YAML configuration covering every module.

The schema is the dataclass fields themselves: `parse_config` builds a
`RunConfig` with `domains.load`, the one structure reader, which walks the
fields of `RunConfig` and of the dataclasses nested in it and maps only the
YAML structure: a mapping to a dataclass, a list of mappings to a tuple of
them, the stage means onto their defaults. Every other value goes to its
constructor as it is, and the domain its field declares (`domains`) checks
it and stores it in canonical form. Omitted or null keys take the
dataclass defaults, unknown keys are rejected, and every error is a
ConfigError naming the full key path, e.g. 'scene.spheres[0].radius', also
for a value outside its domain: `'camera.depth_scale' must be finite and >
0, got -1.0`. A failed check between fields names the section:
`'mechanism': theta_range must satisfy min < max`. The mechanism is in
mm/deg, the rest in m/rad unless a key says otherwise.
YAML keys that differ from the field names (each field's `key` metadata):

    mechanism.theta_range_deg          MechanismParams.theta_range
    <frame>.quaternion_xyzw            RigidTransform.quaternion
    camera.extrinsics.translation      CameraModel.extrinsic_translation
    camera.extrinsics.quaternion_xyzw  CameraModel.extrinsic_quaternion

`load_config` reads the file as UTF-8 text and parses it with libyaml's C
parser (`yaml.CSafeLoader`), under the same constructor and resolver as
`yaml.safe_load`; a PyYAML built without libyaml falls back to its
pure-Python `yaml.SafeLoader`. Every failure is a one-line ConfigError
naming the file: an unreadable or non-UTF-8 file, a YAML error (with the
pure parser's line number where the parser reports one), a document nested
more than 1,000 levels deep or deeper than the interpreter's recursion
limit allows, a scalar the YAML constructor cannot build (an integer past
the interpreter's digit limit, 4,300 by default, or an impossible date), and
every schema error above.
"""

from __future__ import annotations

import dataclasses
import re
from importlib import resources

import yaml

from .arm import KinematicChain
from .domains import load
from .errors import ConfigError
from .harvest import PickCycleConfig
from .mechanism import MechanismParams, check_assembly_range
from .perception import CameraModel
from .planner import PsoConfig, Scene

# libyaml's scanner and parser when PyYAML was built with it, under the same
# SafeConstructor and resolver as yaml.safe_load
_LOADER = getattr(yaml, "CSafeLoader", yaml.SafeLoader)
# libyaml composes a document by recursing in C, past Python's recursion
# check: an 8 MB stack overflows between 20,000 and 30,000 levels of nesting
_MAX_DEPTH = 1000
# the line breaks both parsers count (YAML 1.1)
_LINE_BREAK = re.compile("\r\n|[\r\n\x85\u2028\u2029]")


@dataclasses.dataclass(frozen=True)
class RunConfig:
    mechanism: MechanismParams
    arm: KinematicChain
    camera: CameraModel
    scene: Scene
    pso: PsoConfig
    pick_cycle: PickCycleConfig


def parse_config(raw: dict) -> RunConfig:
    """Validate a parsed YAML document into a RunConfig."""
    return load(RunConfig, raw, "")


def _too_deep(text: str) -> bool:
    """Whether a YAML text nests more than _MAX_DEPTH levels, from its parse
    events up to that depth. Neither parser recurses to make events, but
    libyaml's time grows with the square of the depth: 15 s to read 50,000
    levels to the end."""
    depth = 0
    for event in yaml.parse(text, Loader=_LOADER):
        if isinstance(event, yaml.CollectionStartEvent):
            depth += 1
            if depth > _MAX_DEPTH:
                return True
        elif isinstance(event, yaml.CollectionEndEvent):
            depth -= 1
    return False


def load_config(path) -> RunConfig:
    """Load and validate a YAML config file."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    try:
        # a level of nesting takes one of these indicators, so only a text
        # holding many of them can nest too deeply for libyaml's composer
        if sum(map(text.count, "-[{?:")) > _MAX_DEPTH and _too_deep(text):
            raise ConfigError(f"config {path} nests too deeply")
        try:
            raw = yaml.load(text, Loader=_LOADER)
        except ValueError as exc:
            # the constructor's int() and date(): an integer past Python's
            # digit limit for str -> int, an impossible date like 2020-13-01
            raise ConfigError(f"invalid value in {path}: {exc}") from None
        return parse_config(raw if raw is not None else {})
    except yaml.YAMLError as exc:  # the parser's own text spans several lines
        mark, where = getattr(exc, "problem_mark", None), ""
        if mark is not None:
            # libyaml ends an unterminated last line with an implicit break,
            # one line past the pure parser's mark
            where = f", line {min(mark.line, len(_LINE_BREAK.findall(text))) + 1}"
        detail = getattr(exc, "problem", None) or " ".join(str(exc).split())
        raise ConfigError(f"invalid YAML in {path}{where}: {detail}") from exc
    except RecursionError:
        raise ConfigError(f"config {path} nests too deeply") from None


def default_config_path():
    """Filesystem path of the shipped default configuration."""
    return resources.files("harvestcell").joinpath("data/default_config.yaml")


def load_default_config() -> RunConfig:
    """Load the shipped configuration, asserting that its mechanism
    assembles over the whole crank range; custom configs may not (the
    mechanism sweep reports those angles as no_assembly rows)."""
    with resources.as_file(default_config_path()) as path:
        config = load_config(path)
    check_assembly_range(config.mechanism)
    return config
