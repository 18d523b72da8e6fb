"""Config knobs: each field of a config dataclass declares, beside its
default, the kind of value it takes and its bound.

A field is declared with :func:`count` (an integer of at least 0 or 1,
or any integer), :func:`number` (a finite number, optionally bounded)
or :func:`choice` (one of a set of values), and the dataclass's
``__post_init__`` calls :func:`check_knobs` once.  Only what a kind
and a bound cannot state (one field against another, a power of two)
stays hand-written.  The serving scenario
schema (:mod:`repro.serve.scenario`) reads the same declarations with
:func:`knob_of`, so a default, bound or choice is stated once.

Every message names the dotted field.  A config built in Python reads
``config.max_batch: must be a positive integer, got 2.5`` or
``workload.rate: must be > 0, got 0.0``; a scenario document, whose
values come from YAML or JSON, is checked more strictly for type and
reads ``scenario.batching.max_batch: expected an integer, got 2.5``.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field, fields

from repro.errors import ConfigError


@dataclass(frozen=True)
class Knob:
    """The values one knob takes.

    ``kind`` is ``count``, ``number`` or ``str`` for a config field;
    a scenario document also has ``bool`` keys and list kinds of its
    own.  ``choices`` is any container (a mapping offers its keys).
    """

    kind: str
    default: object = None
    min: float | None = None
    max: float | None = None
    min_exclusive: bool = False
    choices: object = ()
    nullable: bool = False

    def check(self, value, path: str, document: bool = False):
        """``value`` as this knob holds it, or a :class:`ConfigError`
        naming ``path``.  A config count is stored as the builtin int
        it holds (any type with ``__index__``, such as a NumPy
        integer); a ``document`` value must be the JSON type itself,
        and its number is stored as a float."""
        if value is None:
            if self.nullable:
                return None
            if document:
                raise ConfigError(f"{path}: must not be null")
        kind = self.kind
        if kind == "bool":
            if not isinstance(value, bool):
                raise ConfigError(f"{path}: expected true/false, "
                                  f"got {value!r}")
            return value
        if kind == "count":
            if document:
                if isinstance(value, bool) or not isinstance(value, int):
                    raise ConfigError(f"{path}: expected an integer, "
                                      f"got {value!r}")
            else:
                value = _count(value, path, self.min)
        elif kind == "number":
            if document:
                if isinstance(value, bool) \
                        or not isinstance(value, (int, float)):
                    raise ConfigError(f"{path}: expected a number, "
                                      f"got {value!r}")
                value = float(value)
            try:
                finite = math.isfinite(value)
            except TypeError:
                raise ConfigError(f"{path}: expected a number, "
                                  f"got {value!r}") from None
            # NaN compares false against every bound below, so it would
            # slip through them.
            if not finite:
                raise ConfigError(f"{path}: must be a finite number, "
                                  f"got {value!r}")
        elif kind == "str" and not isinstance(value, str):
            raise ConfigError(f"{path}: expected a string, got {value!r}")
        if self.choices and value not in self.choices:
            raise ConfigError(f"{path}: unknown value {value!r}; choose "
                              f"from {tuple(self.choices)}")
        if self.min is not None:
            if self.min_exclusive and value <= self.min:
                raise ConfigError(f"{path}: must be > {self.min:g}, "
                                  f"got {value!r}")
            if not self.min_exclusive and value < self.min:
                raise ConfigError(f"{path}: must be >= {self.min:g}, "
                                  f"got {value!r}")
        if self.max is not None and value > self.max:
            raise ConfigError(f"{path}: must be <= {self.max!r}, "
                              f"got {value!r}")
        return value


def _count(value, path: str, low) -> int:
    """``value`` as a builtin int when it is an integer of at least
    ``low`` (0, 1 or None for any); a count that is not an integer
    would reach ``range`` or a batch size deep in a run."""
    try:
        count = operator.index(value)
    except TypeError:
        count = None
    if count is None or low is not None and count < low:
        what = {0: "a nonnegative integer",
                1: "a positive integer"}.get(low, "an integer")
        raise ConfigError(f"{path}: must be {what}, got {value!r}")
    return count


def chip_ids(values, path: str) -> tuple:
    """``values`` as a tuple of builtin ints, or a :class:`ConfigError`
    naming ``path``: a chip id is an integer (any type with
    ``__index__``, such as a NumPy integer, but not a bool), stored as
    the int it holds, as a count is.  A float id matches no chip."""
    if any(isinstance(c, bool) or not hasattr(type(c), "__index__")
           for c in values):
        raise ConfigError(f"{path}: expected integer chip ids, "
                          f"got {values!r}")
    return tuple(map(operator.index, values))


def _declare(knob: Knob):
    return field(default=knob.default, metadata={"knob": knob})


def count(default: int, min: int | None = None, max: int | None = None):
    """A dataclass field holding an integer of at least ``min`` (0, 1
    or None for any) and at most ``max``."""
    return _declare(Knob("count", default, min=min, max=max))


def number(default, *, min: float | None = None,
           above: float | None = None, max: float | None = None,
           nullable: bool = False):
    """A dataclass field holding a finite number ``>= min`` or
    ``> above``, and ``<= max``; ``None`` too when ``nullable``."""
    exclusive = above is not None
    return _declare(Knob("number", default, min=above if exclusive else min,
                         max=max, min_exclusive=exclusive, nullable=nullable))


def choice(default, choices):
    """A dataclass field holding one of ``choices``."""
    return _declare(Knob("str", default, choices=choices))


def knob_of(config: type, name: str) -> Knob:
    """The knob the dataclass ``config`` declares for field ``name``."""
    return next(f.metadata["knob"] for f in fields(config) if f.name == name)


def check_knobs(config, section: str) -> None:
    """Check every declared knob of the dataclass instance ``config``,
    naming ``section.<field>``, and store each count as a builtin int."""
    for f in fields(config):
        knob = f.metadata.get("knob")
        if knob is not None:
            value = getattr(config, f.name)
            checked = knob.check(value, f"{section}.{f.name}")
            if checked is not value:
                object.__setattr__(config, f.name, checked)
