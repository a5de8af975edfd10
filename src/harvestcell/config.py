"""Single-file YAML configuration covering every module.

The schema is the dataclass fields themselves: `parse_config` walks the
fields of `RunConfig` and of the dataclasses nested in it, and coerces each
YAML value by its field's annotation. Omitted or null keys take the
dataclass defaults, unknown keys are rejected, and every error is a
ConfigError naming the full key path, e.g. 'scene.spheres[0].radius'. The
mechanism is in mm/deg, the rest in m/rad unless a key says otherwise.
YAML keys that differ from the field names:

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
import functools
import re
import reprlib
import typing
from importlib import resources

import numpy as np
import yaml

from .arm import KinematicChain
from .errors import ConfigError
from .harvest import PickCycleConfig
from .mechanism import MechanismParams, check_assembly_range
from .perception import CameraModel
from .planner import PsoConfig, Scene

# field name -> YAML key where they differ; a dotted key lies in a sub-mapping
_YAML_KEYS = {
    "theta_range": "theta_range_deg",
    "quaternion": "quaternion_xyzw",
    "extrinsic_translation": "extrinsics.translation",
    "extrinsic_quaternion": "extrinsics.quaternion_xyzw",
}
_UNIT_FIELDS = {"axis", "approach_axis"}
# libyaml's scanner and parser when PyYAML was built with it, under the same
# SafeConstructor and resolver as yaml.safe_load
_LOADER = getattr(yaml, "CSafeLoader", yaml.SafeLoader)
# libyaml composes a document by recursing in C, past Python's recursion
# check: an 8 MB stack overflows between 20,000 and 30,000 levels of nesting
_MAX_DEPTH = 1000
# the line breaks both parsers count (YAML 1.1)
_LINE_BREAK = re.compile("\r\n|[\r\n\x85\u2028\u2029]")
# an error echoes the offending value cut to a few levels and at most
# _ECHO_CHARS characters, and an unknown key's path to _ECHO_CHARS: a long
# or deeply nested value is not printed in full, and its repr cannot run out
# of recursion
_ECHO = reprlib.Repr()
_ECHO.maxlevel = 3
_ECHO.maxstring = _ECHO.maxlong = _ECHO.maxother = 40
_ECHO_CHARS = 80
# a Python float: an int of any size compares with it exactly, where numpy
# would first convert the int to a float and overflow
_FLOAT_MAX = float(np.finfo(float).max)


@dataclasses.dataclass(frozen=True)
class RunConfig:
    mechanism: MechanismParams
    arm: KinematicChain
    camera: CameraModel
    scene: Scene
    pso: PsoConfig
    pick_cycle: PickCycleConfig


@functools.cache
def _schema(cls) -> dict:
    """YAML key -> (field, annotation without `| None`, whether required)."""
    hints = typing.get_type_hints(cls)
    schema = {}
    for f in dataclasses.fields(cls):
        hint = hints[f.name]
        if type(None) in typing.get_args(hint):  # X | None
            hint = typing.get_args(hint)[0]
        required = (f.default is dataclasses.MISSING
                    and f.default_factory is dataclasses.MISSING)
        schema[_YAML_KEYS.get(f.name, f.name)] = (f, hint, required)
    return schema


def _cut(text: str) -> str:
    return text if len(text) <= _ECHO_CHARS else text[:_ECHO_CHARS - 3] + "..."


def _check(ok: bool, path: str, what: str, raw) -> None:
    if not ok:
        raise ConfigError(f"'{path}' must be {what}, got {_cut(_ECHO.repr(raw))}")


def _mapping(raw, path: str) -> dict:
    _check(raw is None or isinstance(raw, dict), path, "a mapping", raw)
    return raw or {}


def _list(raw, path: str, size: int | None = None) -> list:
    ok = isinstance(raw, list) and size in (None, len(raw))
    _check(ok, path, "a list" if size is None else f"a list of {size}", raw)
    return raw


def _number(raw, path: str) -> float:
    ok = isinstance(raw, (int, float)) and not isinstance(raw, bool)
    _check(ok and abs(raw) <= _FLOAT_MAX, path, "a finite number", raw)
    return float(raw)


def _coerce(hint, raw, path: str):
    """A scalar, tuple or dataclass value by its annotation."""
    if dataclasses.is_dataclass(hint):
        return _load(hint, raw, path)
    if hint is float:
        return _number(raw, path)
    if hint is int:
        _check(_number(raw, path).is_integer(), path, "an integer", raw)
        return int(raw)
    if hint is str:
        _check(isinstance(raw, str), path, "a string", raw)
        return raw
    args = typing.get_args(hint)  # tuple[X, ...] or a fixed-length tuple
    items = _list(raw, path, None if args[-1] is Ellipsis else len(args))
    kinds = args[:1] * len(items) if args[-1] is Ellipsis else args
    return tuple(_coerce(kind, x, f"{path}[{i}]")
                 for i, (kind, x) in enumerate(zip(kinds, items)))


def _vector(raw, path: str, size: int, unit: bool) -> np.ndarray:
    vec = np.array([_number(x, f"{path}[{i}]")
                    for i, x in enumerate(_list(raw, path, size))])
    if not unit:
        return vec
    with np.errstate(over="ignore"):  # an overflowing norm is rejected
        norm = np.linalg.norm(vec)
    _check(0.0 < norm < np.inf, path, "a nonzero finite vector", raw)
    return vec / norm


def _load(cls, raw, path: str):
    """Dataclass `cls` built from the mapping `raw` found at key path `path`."""
    schema = _schema(cls)
    prefix = f"{path}." if path else ""
    raw = _mapping(raw, path or "config root")
    flat = dict(raw)
    for group in {key.split(".")[0] for key in schema if "." in key} & set(flat):
        sub = _mapping(flat.pop(group), prefix + group)
        flat.update((f"{group}.{name}", x) for name, x in sub.items())
    for key in flat:
        if key not in schema or key in raw and "." in key:  # dotted keys are internal
            raise ConfigError(f"unknown key '{_cut(f'{prefix}{key}')}'")
    kwargs = {}
    for key, (f, hint, required) in schema.items():
        value, key_path = flat.get(key), prefix + key
        if value is None and not required:
            continue
        if value is None and not dataclasses.is_dataclass(hint):
            raise ConfigError(f"'{key_path}' is required")
        if hint is np.ndarray:
            size = (len(kwargs["joints"]) if f.name == "home_q"
                    else 4 if "quaternion" in f.name else 3)
            kwargs[f.name] = _vector(value, key_path, size, f.name in _UNIT_FIELDS)
        elif typing.get_origin(hint) is dict:
            kwargs[f.name] = merged = f.default_factory()
            for name, x in _mapping(value, key_path).items():
                if name not in merged:
                    raise ConfigError(f"unknown key '{_cut(f'{key_path}.{name}')}'")
                merged[name] = _coerce(typing.get_args(hint)[1], x, f"{key_path}.{name}")
        else:
            kwargs[f.name] = _coerce(hint, value, key_path)
    try:
        return cls(**kwargs)
    except ConfigError as exc:
        raise ConfigError(f"'{path}': {exc}") from None


def parse_config(raw: dict) -> RunConfig:
    """Validate a parsed YAML document into a RunConfig."""
    return _load(RunConfig, raw, "")


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
