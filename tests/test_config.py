"""The typed config reader: ``config.from_json`` and ``fields_to_json``, and
the fit configs it reads."""

import dataclasses
import inspect
import math
import re
import types
import typing

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from qasnets.cli import CommandConfig
from qasnets.config import (
    Config,
    NonNegativeInt,
    PositiveInt,
    coerce,
    fields_to_json,
    from_json,
)
from qasnets.errors import DomainError
from qasnets.hyper import DynamicFitConfig, fit_dynamic
from qasnets.networks import MultiIndex, TrainConfig, train_regression
from qasnets.spaces import SPACES
from qasnets.transformer import (
    End2EndFitConfig,
    StaticFitConfig,
    fit_static_constructive,
    fit_static_end2end,
)


@dataclasses.dataclass(frozen=True)
class Inner(Config):
    n: int = 0
    flag: bool = False
    class_: str = "kz"


@dataclasses.dataclass(frozen=True)
class Outer(Config):
    name: str
    inner: Inner = Inner()
    xs: tuple[float, ...] = ()


ANNOTATIONS = [
    int, PositiveInt, float, bool, str, dict, int | None, float | None,
    tuple[float, ...], tuple[int, int], tuple[str | dict, ...], float | tuple[float],
    Inner, tuple[Inner, ...] | None, TrainConfig, MultiIndex | None,
]
# one single-field block per annotation, made once so each schema is resolved once
BOXES = {hint: dataclasses.make_dataclass("Box", [("x", hint)], bases=(Config,), frozen=True)
         for hint in ANNOTATIONS}
JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.sampled_from(["n", "flag", "class", "lr", "x", "dims"]), inner,
                      max_size=3),
    max_leaves=6,
)


def conforms(value, hint) -> bool:
    """Whether ``value`` has the Python type the annotation declares."""
    origin, args = typing.get_origin(hint), typing.get_args(hint)
    if hint is PositiveInt:
        return type(value) is int and value >= 1
    if hint is NonNegativeInt:
        return type(value) is int and value >= 0
    if hint is float:
        return type(value) is float and math.isfinite(value)
    if hint in (int, bool, str, dict):
        return type(value) is hint
    if origin in (typing.Union, types.UnionType):
        return any(value is None if a is type(None) else conforms(value, a) for a in args)
    if origin is tuple:
        if type(value) is not tuple:
            return False
        if args[-1] is Ellipsis:
            args = args[:1] * len(value)
        return len(value) == len(args) and all(conforms(v, a) for v, a in zip(value, args))
    if not isinstance(value, hint):
        return False
    hints = typing.get_type_hints(hint) if dataclasses.is_dataclass(hint) else {}
    return all(conforms(getattr(value, f.name), hints[f.name])
               for f in dataclasses.fields(value) if f.name in hints)


@given(hint=st.sampled_from(ANNOTATIONS), value=JSON)
def test_any_json_value_is_typed_or_a_domain_error(hint, value):
    try:
        out = from_json(BOXES[hint], {"x": value}, "block").x
    except DomainError as exc:
        assert "block.x" in str(exc)
    else:
        assert conforms(out, hint), (out, hint)


@given(value=JSON)
def test_any_json_block_is_typed_or_a_domain_error(value):
    try:
        out = from_json(Outer, value, "outer")
    except DomainError as exc:
        assert "outer" in str(exc)
    else:
        assert conforms(out, Outer)


@pytest.mark.parametrize("hint, value", [
    (int, 2.0), (int, True), (int, "2"), (PositiveInt, 0), (float, True), (float, "1"),
    (float, math.inf), (float, math.nan), (float, 10**400), (bool, 0), (bool, "no"),
    (str, 5), (dict, []), (int | None, 1.5), (tuple[float, ...], "ab"),
    (tuple[float, ...], {"a": 1}), (tuple[int, int], [1]), (tuple[int, int], [1, 2, 3]),
    (Inner, 5), (Inner, {"m": 1}), (MultiIndex | None, {"dims": [1, 2]}),
])
def test_rejected_values(hint, value):
    with pytest.raises(DomainError, match=r"block\.x\b"):
        from_json(BOXES[hint], {"x": value}, "block")


def test_accepted_values_are_converted():
    assert from_json(BOXES[float], {"x": 2}, "b").x == 2.0
    assert type(from_json(BOXES[float], {"x": 2}, "b").x) is float
    assert from_json(BOXES[tuple[float, ...]], {"x": np.array([1, 2])}, "b").x == (1.0, 2.0)
    assert from_json(BOXES[float | tuple[float]], {"x": [3]}, "b").x == (3.0,)
    md = MultiIndex((1, 2))
    assert from_json(BOXES[MultiIndex | None], {"x": md}, "b").x is md
    assert from_json(BOXES[MultiIndex | None], {"x": None}, "b").x is None


def test_nested_blocks_keys_and_defaults():
    out = from_json(Outer, {"name": "a", "inner": {"class": "kw", "n": 3}}, "outer")
    assert out == Outer(name="a", inner=Inner(n=3, class_="kw"))
    assert from_json(Outer, out, "outer") is out  # an instance passes as is
    with pytest.raises(DomainError, match=r"^outer is missing the key 'name'$"):
        from_json(Outer, {}, "outer")
    with pytest.raises(DomainError, match=r"^unknown keys in outer\.inner: \['class_'\]$"):
        from_json(Outer, {"name": "a", "inner": {"class_": "kw"}}, "outer")
    with pytest.raises(DomainError, match=r"^outer\.inner\.flag must be true or false"):
        from_json(Outer, {"name": "a", "inner": {"flag": 1}}, "outer")
    with pytest.raises(DomainError, match=r"^outer\.xs\[1\] must be a finite number"):
        from_json(Outer, {"name": "a", "xs": [1.0, "2"]}, "outer")


def test_constructor_errors_name_the_block():
    with pytest.raises(DomainError, match=r"^block: multi-index needs at least"):
        from_json(MultiIndex, {"dims": [1]}, "block")


def test_fields_to_json_round_trips():
    out = Outer(name="a", inner=Inner(n=2), xs=(1.5, 2.0))
    obj = fields_to_json(out)
    assert obj == {"name": "a", "inner": Inner(n=2), "xs": [1.5, 2.0]}
    assert fields_to_json(TrainConfig(lr=0.3)) == dataclasses.asdict(TrainConfig(lr=0.3))


@pytest.mark.parametrize("config_cls, fit", [
    (StaticFitConfig, fit_static_constructive),
    (End2EndFitConfig, fit_static_end2end),
    (DynamicFitConfig, fit_dynamic),
    (TrainConfig, train_regression),
], ids=["constructive", "end2end", "dynamic", "train"])
def test_every_fit_key_is_read(config_cls, fit):
    # a field the fit never reads is a config key that silently does nothing
    source = inspect.getsource(fit)
    unread = [f.name for f in dataclasses.fields(config_cls)
              if not re.search(rf"\bconfig\.{f.name}\b", source)]
    assert unread == [], f"{fit.__name__} never reads {unread}"


def _qasnets_config_classes() -> list:
    found, todo = [], [Config]
    while todo:
        for sub in todo.pop().__subclasses__():
            todo.append(sub)
            if sub.__module__.startswith("qasnets."):
                found.append(sub)
    return found


CONFIG_CLASSES = _qasnets_config_classes()


def _block_class(hint):
    """The config class a field holds, None or not; None for other fields."""
    options = [a for a in typing.get_args(hint) if a is not type(None)] or [hint]
    cls = options[0]
    return cls if len(options) == 1 and isinstance(cls, type) and issubclass(cls, Config) else None


def _has_required_key(cls) -> bool:
    return any(f.default is f.default_factory is dataclasses.MISSING
               for f in dataclasses.fields(cls))


# (outer block, key, inner block) for every nested block whose class has
# no required key, inside an outer block that can be built from {}
NESTED = [(outer, f.name, _block_class(hint))
          for outer in CONFIG_CLASSES if not _has_required_key(outer)
          for f, hint in ((f, typing.get_type_hints(outer)[f.name])
                          for f in dataclasses.fields(outer))
          if _block_class(hint) is not None and not _has_required_key(_block_class(hint))]


def _other_json(value, hint):
    """A JSON value that ``hint`` reads as something other than ``value``,
    or None where it finds none (a nested block, or null of another type)."""
    if value is None:
        args = typing.get_args(hint)
        return 1 if int in args else 1.0 if float in args else None
    if isinstance(value, bool):
        return not value
    if isinstance(value, (int, float)):
        return value + 1
    if isinstance(value, str):
        return value + "x"
    if isinstance(value, tuple):
        return [_other_json(v, None) for v in value[:1]]
    return None


@pytest.mark.parametrize("outer, key, inner", NESTED,
                         ids=[f"{o.__name__}.{k}" for o, k, _ in NESTED])
def test_nested_block_sits_on_its_default(outer, key, inner):
    """``{}`` is a missing block, and a one-key block is the missing
    block's value with that one key replaced."""
    missing = getattr(from_json(outer, {}, "block"), key)
    assert getattr(from_json(outer, {key: {}}, "block"), key) == missing
    hints = typing.get_type_hints(inner)
    for f in dataclasses.fields(inner):
        value = _other_json(getattr(missing, f.name), hints[f.name])
        if value is None:
            continue  # a nested block has its own row
        got = getattr(from_json(outer, {key: {f.name.rstrip("_"): value}}, "block"), key)
        want = dataclasses.replace(missing, **{f.name: coerce(value, hints[f.name], "v")})
        assert got == want, f.name


def test_blocks_with_defaults_are_found():
    assert {(o.__name__, k) for o, k, _ in NESTED} >= {
        ("End2EndFitConfig", "warm_train"), ("DynamicFitConfig", "train"),
        ("StaticFitCommand", "budgets"), ("DynamicFitConfig", "decoder_config"),
        ("StaticFitConfig", "train"), ("End2EndFitConfig", "train")}


JSON_SCALARS = {int, PositiveInt, NonNegativeInt, float, bool, str, dict}


def _reads_json(hint) -> bool:
    """Whether every value of the annotation comes from JSON: scalars,
    null, arrays of such values and nested config blocks."""
    origin, args = typing.get_origin(hint), typing.get_args(hint)
    if origin in (typing.Union, types.UnionType, tuple):
        return all(a is Ellipsis or _reads_json(a) for a in args)
    return hint in JSON_SCALARS or hint is type(None) or (
        isinstance(hint, type) and issubclass(hint, Config))


def test_every_config_field_is_a_json_value():
    # a field JSON cannot set (a callable, an array object) is a config key
    # only the library can use
    blocks = CONFIG_CLASSES + list(SPACES.values())
    assert len(blocks) > len(SPACES) and all(dataclasses.is_dataclass(c) for c in blocks)
    other = [f"{cls.__name__}.{f.name}: {typing.get_type_hints(cls)[f.name]}"
             for cls in blocks for f in dataclasses.fields(cls)
             if not _reads_json(typing.get_type_hints(cls)[f.name])]
    assert other == []


def test_only_the_command_config_declares_seed():
    # a seed inside a block could disagree with the command's
    declared = [c for c in CONFIG_CLASSES if "seed" in vars(c).get("__annotations__", {})]
    assert declared == [CommandConfig]
