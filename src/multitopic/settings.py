"""One declaration per setting: a `Key` holds a setting's default, kind
and range or choices. A setting that a library object carries is declared
on a field of that `Settings` dataclass (`setting`), checked when the
object is built, and read by `cli.CONFIG_KEYS` (`declared`).
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field, fields

from .errors import ConfigError


@dataclass(frozen=True)
class Key:
    """One setting. `kind` is "int", "float", "bool", "enum" (one of
    `choices`), "str" or "path" (a file path, given as a string). A number
    must lie in `bounds`, an interval such as "(0, 1]" whose ends are open
    or closed: an open end at inf keeps infinity out, and NaN lies in no
    interval. A key whose default is None may be None."""

    default: object
    kind: str
    bounds: str = ""
    choices: tuple = ()

    def check(self, name: str, value):
        """`value` converted to this key's kind; a value of another kind or
        outside the bounds is a configuration error."""
        if value is None and self.default is None:
            return None
        if self.kind in ("int", "float"):
            number = _number(value, name, int if self.kind == "int" else float)
            if not _within(number, self.bounds):
                finite = math.isfinite(number) or self.bounds.endswith("inf]")
                wanted = _describe(self.bounds) if finite else "finite"
                raise ConfigError(f"{name} must be {wanted}, got {value!r}")
            return number
        if self.kind == "bool":
            valid, wanted = isinstance(value, bool), "true or false"
        elif self.kind == "enum":
            valid = isinstance(value, str) and value in self.choices
            wanted = "one of " + ", ".join(self.choices)
        else:
            valid, wanted = isinstance(value, str), "a string"
        if not valid:
            raise ConfigError(f"{name} must be {wanted}, got {value!r}")
        return value

    def read(self, name: str, text: str):
        """`text`, a command-line value, converted to this key's kind and checked."""
        parse = {"int": int, "float": float}.get(self.kind, str)
        try:
            value = parse(text)
        except ValueError:
            wanted = "an integer" if parse is int else "a number"
            raise ConfigError(f"{name} must be {wanted}, got {text!r}") from None
        return self.check(name, value)


def setting(default, kind: str, bounds: str = "", choices: tuple = ()):
    """A dataclass field that carries a setting, declared by its `Key`."""
    return field(default=default, metadata={"key": Key(default, kind, bounds, choices)})


def declared(cls) -> dict[str, Key]:
    """The keys of `cls`'s setting fields by config path, in field order."""
    return {cls.SECTION + f.name: f.metadata["key"] for f in fields(cls) if "key" in f.metadata}


class Settings:
    """Base of a dataclass whose fields declare settings: building one
    checks every setting field and converts it to its kind. `SECTION`
    prefixes the field names to make the config paths that errors name
    ("anneal." for `anneal.interval`)."""

    SECTION = ""

    def __post_init__(self):
        for f in fields(self):
            if "key" in f.metadata:
                setattr(self, f.name, self.checked(f.name, getattr(self, f.name)))

    @classmethod
    def checked(cls, name: str, value):
        """`value` checked against the setting field `name`, in its kind."""
        return cls.__dataclass_fields__[name].metadata["key"].check(cls.SECTION + name, value)


def _number(value, name: str, kind: type = float):
    """`value` converted by `kind` (float or int); a value that is not a real
    number (a boolean or a string, say), or for an int one with a fraction,
    is a configuration error, not an internal one."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ConfigError(f"{name} must be a number, got {value!r}")
    if kind is int and not isinstance(value, numbers.Integral) and not float(value).is_integer():
        raise ConfigError(f"{name} must be an integer, got {value!r}")
    try:
        return kind(value)
    except OverflowError:
        raise ConfigError(f"{name} must be a number, got {value!r}") from None


def _within(number, bounds: str) -> bool:
    low, high = (float(end) for end in bounds[1:-1].split(","))
    above = low < number if bounds[0] == "(" else low <= number
    below = number < high if bounds[-1] == ")" else number <= high
    return above and below


def _describe(bounds: str) -> str:
    """"(0, inf)" as "positive", "[0, inf)" as "non-negative", "[2, inf)"
    as "at least 2"; an interval with a finite upper end as itself."""
    low, high = bounds[1:-1].split(", ")
    if high != "inf":
        return f"in {bounds}"
    if low == "0":
        return "positive" if bounds[0] == "(" else "non-negative"
    return f"{'above' if bounds[0] == '(' else 'at least'} {low}"
