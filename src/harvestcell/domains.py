"""Each setting's domain, declared once in its field's annotation, and the one
check of them. `r: Positive = 20.0` declares r finite and > 0; without
`include_extras`, `typing.get_type_hints` drops the domain, so the config
loader still coerces by the plain type. A `Literal` declares a few strings.
A `Checked` dataclass checks each declared field on construction, a tuple's
elements and a dict's values too, before its own checks between fields, and
raises a DomainError `'<field>' must be <domain>, got <value>`.
"""

from __future__ import annotations

import dataclasses
import functools
import math
import reprlib
import typing
from typing import Annotated, Literal, NamedTuple

import numpy as np

from .errors import DomainError

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


class Interval(NamedTuple):
    """Numbers (not bools) from lo to hi, each end closed unless open; with
    `integer`, ints and numpy integers only. The default hi makes it finite."""

    lo: float
    hi: float = FLOAT_MAX
    lo_open: bool = False
    hi_open: bool = False
    integer: bool = False

    def holds(self, x) -> bool:  # NaN fails every comparison
        lo, hi, lo_open, hi_open, integer = self
        return (isinstance(x, _INTS if integer else _REALS)
                and not isinstance(x, bool)
                and (lo < x if lo_open else lo <= x)
                and (x < hi if hi_open else x <= hi))

    def __str__(self) -> str:
        if self.integer:
            return f"an integer >= {self.lo}"
        if self.hi < FLOAT_MAX:
            return (f"in {'(' if self.lo_open else '['}{self.lo:g}, "
                    f"{self.hi:g}{')' if self.hi_open else ']'}")
        if self.lo > -FLOAT_MAX:
            return f"finite and {'>' if self.lo_open else '>='} {self.lo:g}"
        return "finite"


class Vector(NamedTuple):
    size: int

    def holds(self, v) -> bool:
        v = np.asarray(v, dtype=float)
        # math.isfinite per element costs a quarter of np.isfinite(...).all()
        return v.shape == (self.size,) and all(map(math.isfinite, v.tolist()))

    def __str__(self) -> str:
        return f"a finite {self.size}-vector"


FINITE = Interval(-FLOAT_MAX)
Finite = Annotated[float, FINITE]
Positive = Annotated[float, Interval(0.0, lo_open=True)]
NonNegative = Annotated[float, Interval(0.0)]
Natural = Annotated[int, Interval(0, math.inf, integer=True)]
Count = Annotated[int, Interval(1, math.inf, integer=True)]
Vec3 = Annotated[np.ndarray, Vector(3)]


class Checked:
    """Base of a settings dataclass whose fields declare their domains."""

    def __post_init__(self):
        for name, check in _checks(type(self)):
            check(name, getattr(self, name))


@functools.cache
def _checks(cls) -> tuple:
    hints = typing.get_type_hints(cls, include_extras=True)
    return tuple((f.name, check) for f in dataclasses.fields(cls)
                 if (check := _compile(hints[f.name])))


def _compile(hint):
    """check(name, value) for an annotation; None if it declares no domain."""
    origin, args = typing.get_origin(hint), typing.get_args(hint)
    if origin is Annotated:
        domain = hint.__metadata__[0]
        holds = domain.holds

        def check(name, value):
            if not holds(value):
                raise DomainError(name, str(domain), shown(value))
    elif origin is Literal:

        def check(name, value):
            if not (isinstance(value, str) and value in args):
                raise DomainError(name, "one of " + ", ".join(map(repr, args)),
                                  shown(value))
    elif origin is tuple and all(items := [_compile(arg) for arg in args]):

        def check(name, value):
            for i, (item, x) in enumerate(zip(items, value)):
                item(f"{name}[{i}]", x)
    elif origin is dict and (item := _compile(args[1])):

        def check(name, value):
            for key, x in value.items():
                item(f"{name}.{key}", x)
    else:
        return None
    return check
