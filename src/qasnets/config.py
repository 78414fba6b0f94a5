"""Typed JSON configs: each config value is declared once, as a dataclass field.

``from_json(cls, obj, where)`` builds ``cls`` from a JSON object by its field
annotations, with the field defaults for absent keys.  A nested block sits on
top of its field's default, so ``{}`` is that default and a stage's defaults
are declared once; a key its class requires must still be given.  An unknown
or missing key, or a value of the wrong type, raises ``DomainError`` naming
``where`` and the key, at any depth.  ``int`` takes a JSON integer only (not a
bool, not 2.0), ``PositiveInt`` one >= 1, ``NonNegativeInt`` one >= 0,
``float`` a finite number, ``bool`` true or false, ``str`` a string, ``dict``
an object, ``tuple[T, ...]`` an array of T, ``tuple[A, B]`` one of length 2, a
``Config`` subclass a nested object, and null only an ``X | None`` field.  Any
other class takes only an instance: JSON cannot produce one.
A field ``class_`` reads the key ``class``.  ``coerce(value, hint, path)``
applies the same rules to one value outside a dataclass.
"""

from __future__ import annotations

import dataclasses
import functools
import keyword
import math
import numbers
import reprlib
import types
import typing

import numpy as np

from .errors import DomainError


class Config:
    """Base of the config blocks that can nest inside another."""


PositiveInt = typing.NewType("PositiveInt", int)
NonNegativeInt = typing.NewType("NonNegativeInt", int)


def _is_int(v) -> bool:
    return isinstance(v, numbers.Integral) and not isinstance(v, bool)


def _is_number(v) -> bool:
    try:
        return isinstance(v, numbers.Real) and not isinstance(v, bool) and math.isfinite(v)
    except OverflowError:  # an integer beyond the float range
        return False


_SCALARS = {  # annotation -> (noun, accepts, conversion)
    int: ("an integer", _is_int, int),
    PositiveInt: ("a positive integer", lambda v: _is_int(v) and v >= 1, int),
    NonNegativeInt: ("a non-negative integer", lambda v: _is_int(v) and v >= 0, int),
    float: ("a finite number", _is_number, float),
    bool: ("true or false", lambda v: isinstance(v, bool), bool),
    str: ("a string", lambda v: isinstance(v, str), str),
    dict: ("an object", lambda v: isinstance(v, dict), dict),
}


def _noun(hint) -> str:
    if hint in _SCALARS:
        return _SCALARS[hint][0]
    if typing.get_origin(hint) is tuple:
        return "an array"
    return "an object" if issubclass(hint, Config) else f"a {hint.__name__}"


def _mismatch(path: str, expected: str, value) -> DomainError:
    # reprlib bounds the quoted value: a large measure is not printed whole
    return DomainError(f"{path} must be {expected}, got {reprlib.repr(value)}")


@functools.cache
def _schema(cls) -> dict:
    """JSON key -> (field name, annotation, required); resolved once per class."""
    hints = typing.get_type_hints(cls)
    return {f.name[:-1] if keyword.iskeyword(f.name[:-1]) else f.name:
            (f.name, hints[f.name], f.default is f.default_factory is dataclasses.MISSING)
            for f in dataclasses.fields(cls) if f.init}


def coerce(value, hint, path: str, base=None):
    origin, args = typing.get_origin(hint), typing.get_args(hint)
    if origin in (typing.Union, types.UnionType):
        options = [a for a in args if a is not type(None)]
        if value is None and len(options) < len(args):
            return None
        if len(options) == 1:
            return coerce(value, options[0], path, base)
        for option in options:
            try:
                return coerce(value, option, path, base)
            except DomainError:
                pass
        raise _mismatch(path, " or ".join(map(_noun, options)), value)
    if origin is tuple:
        if not isinstance(value, (list, tuple)) and np.ndim(value) == 0:
            raise _mismatch(path, "an array", value)
        if args[-1] is Ellipsis:
            args = args[:1] * len(value)
        elif len(value) != len(args):
            raise _mismatch(path, f"an array of length {len(args)}", value)
        return tuple(coerce(v, a, f"{path}[{i}]") for i, (v, a) in enumerate(zip(value, args)))
    if hint in _SCALARS:
        ok = _SCALARS[hint][1](value)
    elif issubclass(hint, Config) and isinstance(value, dict):
        return from_json(hint, value, path, base if isinstance(base, hint) else None)
    else:
        ok = isinstance(value, hint)
    if not ok:
        raise _mismatch(path, _noun(hint), value)
    return _SCALARS[hint][2](value) if hint in _SCALARS else value


def from_json(cls, obj, where: str, base=None):
    """``cls`` from the JSON object ``obj``, on top of ``base`` if given; an instance passes."""
    if isinstance(obj, cls):
        return obj
    if not isinstance(obj, dict):
        raise _mismatch(where, "an object", obj)
    schema = _schema(cls)
    unknown = set(obj) - set(schema)
    if unknown:
        raise DomainError(f"unknown keys in {where}: {sorted(unknown, key=str)}")
    values = {}
    for key, (name, hint, required) in schema.items():
        if key in obj:  # a field's plain default is a class attribute
            values[name] = coerce(obj[key], hint, f"{where}.{key}", getattr(base or cls, name, None))
        elif required:
            raise DomainError(f"{where} is missing the key {key!r}")
    try:
        return cls(**values) if base is None else dataclasses.replace(base, **values)
    except DomainError as exc:
        raise DomainError(f"{where}: {exc}") from exc


def fields_to_json(obj) -> dict:
    """Every field of the dataclass ``obj``, with arrays and tuples as lists."""
    def plain(value):
        if isinstance(value, np.ndarray):
            return value.tolist()
        return [plain(v) for v in value] if isinstance(value, (tuple, list)) else value
    return {f.name: plain(getattr(obj, f.name)) for f in dataclasses.fields(obj)}
