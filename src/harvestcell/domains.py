"""Each setting's domain, declared once in its field's annotation, the one
check of every value against it, and the one reader of an input file's
structure. `r: Positive = 20.0` declares r finite and > 0; without
`include_extras`, `typing.get_type_hints` drops the domain, which leaves
`load` the plain type to map structure by. A `Literal` declares a few
strings, and a dataclass-typed field an instance of that class.

A `Checked` dataclass checks each declared field on construction, the items
of a tuple, a NamedTuple or a dict too, before its own checks between
fields, and raises a DomainError `'<field>' must be <domain>, got <value>`.
It stores each value in its domain's canonical form: a real as a `float`,
an integer as an `int`, a vector or a unit quaternion as a float ndarray, a
direction divided by its norm, a tuple as a tuple, a NamedTuple as its
class, a dict as a new dict. A field declared `X | None` also takes None.

`load(cls, raw, path)` builds a dataclass from a parsed YAML or JSON
mapping, and maps structure only: the config (`config.parse_config`) and
each detection record (`perception.load_detections`). A file key that
differs from its field's name is declared as `field(metadata={"key": ...})`,
dotted for a key in a sub-mapping (`"keypoints.center"`). Every error names
the full key path; no other code checks a loaded value's type or range.
"""

from __future__ import annotations

import dataclasses
import functools
import math
import re
import reprlib
import types
import typing
from typing import Annotated, Literal, NamedTuple

import numpy as np

from .errors import ConfigError, DomainError

# a Python float: an int of any size compares with it exactly, where numpy
# would first convert the int to a float and overflow
FLOAT_MAX = float(np.finfo(float).max)
_INTS = (int, np.integer)
_REALS = (int, float, np.integer, np.floating)
# an error echoes the offending value cut to a few levels and at most
# _ECHO_CHARS characters, and an unknown key's path to _ECHO_CHARS: a long
# or deeply nested value is not printed in full, and its repr cannot run out
# of recursion
_ECHO = reprlib.Repr()
_ECHO.maxlevel = 3
_ECHO.maxstring = _ECHO.maxlong = _ECHO.maxother = 40
_ECHO_CHARS = 80


def cut(text: str) -> str:
    return text if len(text) <= _ECHO_CHARS else text[:_ECHO_CHARS - 3] + "..."


def shown(value) -> str:
    return cut(_ECHO.repr(value))


# Each domain's `canon(x)` returns x in its canonical form, or None when x
# lies outside the domain.

class Interval(NamedTuple):
    """Numbers (not bools) from lo to hi, each end closed unless open, as a
    float; with `integer`, ints and numpy integers only, as an int. The
    default hi makes it finite."""

    lo: float
    hi: float = FLOAT_MAX
    lo_open: bool = False
    hi_open: bool = False
    integer: bool = False

    def canon(self, x):  # NaN fails every comparison
        lo, hi, lo_open, hi_open, integer = self
        kind = int if integer else float
        exact = type(x) is kind  # the common case, without the isinstance tests
        if ((exact or isinstance(x, _INTS if integer else _REALS)
                and not isinstance(x, bool))
                and (lo < x if lo_open else lo <= x)
                and (x < hi if hi_open else x <= hi)):
            return x if exact else kind(x)
        return None

    def __str__(self) -> str:
        if self.integer:
            return f"an integer >= {self.lo}"
        if self.hi < FLOAT_MAX:
            return (f"in {'(' if self.lo_open else '['}{self.lo:g}, "
                    f"{self.hi:g}{')' if self.hi_open else ']'}")
        if self.lo > -FLOAT_MAX:
            return f"finite and {'>' if self.lo_open else '>='} {self.lo:g}"
        return "finite"


FINITE = Interval(-FLOAT_MAX)


class Vector(NamedTuple):
    """Lists, tuples or 1-D arrays of `size` finite numbers (not bools), as
    a float ndarray; with `direction`, nonzero ones whose norm does not
    overflow, divided by it."""

    size: int
    direction: bool = False

    def canon(self, v):
        if isinstance(v, np.ndarray):  # no bools or strings in these dtypes
            # math.isfinite per element costs a quarter of np.isfinite(...).all()
            ok = (v.dtype.kind in "fiu" and v.shape == (self.size,)
                  and all(map(math.isfinite, v.tolist())))
        else:
            ok = (isinstance(v, (list, tuple)) and len(v) == self.size
                  and all(FINITE.canon(x) is not None for x in v))
        if not ok:
            return None
        v = np.asarray(v, dtype=float)
        if not self.direction:
            return v
        with np.errstate(over="ignore"):  # an overflowing norm is rejected
            norm = np.linalg.norm(v)
        return v / norm if 0.0 < norm < math.inf else None

    def __str__(self) -> str:
        return f"a {'nonzero ' * self.direction}finite {self.size}-vector"


class UnitQuaternion:
    """Finite 4-vectors (x, y, z, w) with |q|^2 within 1e-9 of 1, as a float
    ndarray, not normalised: the test `arm.quat_to_matrix` applies."""

    def canon(self, q):
        q = Vector(4).canon(q)
        if q is None:
            return None
        x, y, z, w = q.tolist()  # Python floats overflow to inf silently
        return q if abs(x * x + y * y + z * z + w * w - 1.0) <= 1e-9 else None

    def __str__(self) -> str:
        return "a unit quaternion, |q|^2 within 1e-9 of 1"


UNIT_QUATERNION = UnitQuaternion()
Finite = Annotated[float, FINITE]
Positive = Annotated[float, Interval(0.0, lo_open=True)]
NonNegative = Annotated[float, Interval(0.0)]
Natural = Annotated[int, Interval(0, integer=True)]
Count = Annotated[int, Interval(1, integer=True)]
Vec3 = Annotated[np.ndarray, Vector(3)]
Quaternion = Annotated[np.ndarray, UNIT_QUATERNION]
Fraction = Annotated[float, Interval(0.0, 1.0)]


class Checked:
    """Base of a dataclass whose fields declare their domains."""

    def __post_init__(self):
        for name, canon, domain in _checks(type(self)):
            value = getattr(self, name)
            try:
                canonical = canon(value)
            except DomainError as exc:  # an item of a tuple or dict
                raise DomainError(name + exc.key, exc.domain, exc.shown) from None
            if canonical is not value:
                if canonical is None:
                    raise DomainError(name, domain, shown(value))
                object.__setattr__(self, name, canonical)


@functools.cache
def _checks(cls) -> tuple:
    hints = typing.get_type_hints(cls, include_extras=True)
    return tuple((f.name, *compiled) for f in dataclasses.fields(cls)
                 if (compiled := _compile(hints[f.name])))


def _compile(hint):
    """(canon, domain text) for an annotation; None if it declares no domain.
    The canon of a tuple, a NamedTuple or a dict raises a DomainError naming
    the item outside its domain: `[1]`, `.cut`."""
    origin, args, build = typing.get_origin(hint), typing.get_args(hint), tuple
    if origin is Annotated:
        domain = hint.__metadata__[0]
        return domain.canon, str(domain)
    if origin is Literal:
        return ((lambda x: x if isinstance(x, str) and x in args else None),
                "one of " + ", ".join(map(repr, args)))
    if dataclasses.is_dataclass(hint):
        return (lambda x: x if isinstance(x, hint) else None), f"a {hint.__name__}"
    if origin in (typing.Union, types.UnionType) and len(args) == 2 and (
            args[1] is type(None) and (item := _compile(args[0]))):  # X | None
        canon, domain = item  # None is its own canonical form, as a field
        return (lambda x: x if x is None else canon(x)), domain
    if isinstance(hint, type) and issubclass(hint, tuple) and hasattr(hint, "_fields"):
        hints = typing.get_type_hints(hint, include_extras=True)  # a NamedTuple
        origin, args, build = tuple, tuple(map(hints.get, hint._fields)), hint._make
    if origin is tuple and args[-1:] == (Ellipsis,) and (item := _compile(args[0])):
        return ((lambda x: tuple(_item(f"[{i}]", item, value)
                                 for i, value in enumerate(x))
                 if isinstance(x, (list, tuple)) else None), "a list")
    if origin is tuple and all(items := [_compile(arg) for arg in args]):

        def fixed(x):
            if not (isinstance(x, (list, tuple)) and len(x) == len(items)):
                return None
            return build(_item(f"[{i}]", item, value)
                         for i, (item, value) in enumerate(zip(items, x)))
        return fixed, f"a list of {len(items)}"
    if origin is dict and (item := _compile(args[1])):
        return (lambda x: {key: _item(f".{key}", item, value)
                           for key, value in x.items()}
                if isinstance(x, dict) else None), "a mapping"
    return None


def _item(key: str, compiled, x):
    canon, domain = compiled
    try:
        canonical = canon(x)
    except DomainError as exc:  # an item of x: `mask[1][0]`
        raise DomainError(key + exc.key, exc.domain, exc.shown) from None
    if canonical is None:
        raise DomainError(key, domain, shown(x))
    return canonical


@functools.cache
def _schema(cls) -> dict:
    """File key -> (field, annotation, whether required)."""
    hints = typing.get_type_hints(cls)
    schema = {}
    for f in dataclasses.fields(cls):
        required = (f.default is dataclasses.MISSING
                    and f.default_factory is dataclasses.MISSING)
        schema[f.metadata.get("key", f.name)] = (f, hints[f.name], required)
    return schema


def _mapping(raw, path: str) -> dict:
    if not (raw is None or isinstance(raw, dict)):
        raise DomainError(path, "a mapping", shown(raw))
    return raw or {}


def load(cls, raw, path: str):
    """Dataclass `cls` built from the mapping `raw` found at key path `path`:
    a config section, or `[i]` for the i-th detection record."""
    schema = _schema(cls)
    prefix = f"{path}." if path else ""
    raw = _mapping(raw, path or "config root")
    flat = dict(raw)
    for group in {key.split(".")[0] for key in schema if "." in key} & set(flat):
        sub = _mapping(flat.pop(group), prefix + group)
        flat.update((f"{group}.{name}", x) for name, x in sub.items())
    for key in flat:
        if key not in schema or key in raw and "." in key:  # dotted keys are internal
            raise ConfigError(f"unknown key '{cut(f'{prefix}{key}')}'")
    kwargs = {}
    for key, (f, hint, required) in schema.items():
        value, key_path = flat.get(key), prefix + key
        if value is None and not required:
            continue
        if value is None and not dataclasses.is_dataclass(hint):
            raise ConfigError(f"'{key_path}' is required")
        origin, args = typing.get_origin(hint), typing.get_args(hint)
        if dataclasses.is_dataclass(hint):
            kwargs[f.name] = load(hint, value, key_path)
        elif origin is tuple and dataclasses.is_dataclass(args[0]):  # tuple[X, ...]
            if not isinstance(value, list):
                raise DomainError(key_path, "a list", shown(value))
            kwargs[f.name] = tuple(load(args[0], x, f"{key_path}[{i}]")
                                   for i, x in enumerate(value))
        elif origin is dict:  # the stage means: the defaults, updated
            kwargs[f.name] = merged = f.default_factory()
            for name, x in _mapping(value, key_path).items():
                if name not in merged:
                    raise ConfigError(f"unknown key '{cut(f'{key_path}.{name}')}'")
                merged[name] = x
        else:  # checked, and made canonical, by the field's domain
            kwargs[f.name] = value
    try:
        return cls(**kwargs)
    except DomainError as exc:  # named by its field: name its key path
        name, item = re.match(r"(\w+)(.*)", exc.key).groups()
        key = cls.__dataclass_fields__[name].metadata.get("key", name)
        raise DomainError(prefix + key + item, exc.domain, exc.shown) from None
    except ConfigError as exc:
        raise ConfigError(f"'{path}': {exc}") from None
