"""Declarative command parameters.

A command is one table of `Param`s. The table gives its argparse flags, the
layering of its values (built-in defaults, then key=value config files in
order, then explicit flags; config values are converted and checked against
`choices` like flags are, and a float from either must be finite) and the
manifest that replays a run through a config file: `command`, every
resolved param that is not None (floats as `repr`), then whatever lines
the run adds.
"""

from __future__ import annotations

import math
from typing import Callable, NamedTuple

from . import io
from .errors import ValidationError

REQUIRED = object()  # default of a param that some layer must provide


class Param(NamedTuple):
    name: str  # config key, argparse dest and manifest key
    type: Callable
    default: object
    help: str = ""
    choices: tuple | None = None
    flag: str | None = None  # defaults to --<name with dashes>

    @property
    def option(self) -> str:
        return self.flag or "--" + self.name.replace("_", "-")


def add_flags(parser, params: list[Param]) -> None:
    """One flag per param. Flags default to None, so an unset flag lets the
    lower layers through."""
    for q in params:
        shown = q.default not in (None, REQUIRED) and not q.choices
        tail = f" (default {q.default})" if shown else ""
        parser.add_argument(q.option, dest=q.name, type=q.type,
                            choices=q.choices, help=q.help + tail)


def resolve(name: str, params: list[Param], args, configs) -> dict:
    """Values of `params` for command `name`: defaults, then each config
    file in `configs` (None entries skipped), then the flags in `args`."""
    cfg: dict[str, str] = {}
    for path in configs:
        cfg.update(io.read_config(path) if path else {})
    if cfg.get("command", name) != name:
        raise ValidationError(
            f"config was written by command {cfg['command']!r}, not {name!r}")
    p = {}
    for q in params:
        value = getattr(args, q.name)
        if value is None and q.name in cfg:
            try:
                value = q.type(cfg[q.name])
            except ValueError:
                raise ValidationError(f"bad config value for {q.name}: "
                                      f"{cfg[q.name]!r}") from None
        if value is None:
            if q.default is REQUIRED:
                raise ValidationError(f"missing {q.option} (or {q.name}=)")
            value = q.default
        if q.choices and value not in q.choices:
            raise ValidationError(f"{q.name} must be one of "
                                  f"{', '.join(q.choices)}, got {value!r}")
        if q.type is float and value is not None and not math.isfinite(value):
            raise ValidationError(f"{q.name} must be finite, got {value!r}")
        p[q.name] = value
    return p


def manifest(name: str, p: dict, lines: dict) -> dict[str, object]:
    """Replayable key=value entries of a run of command `name`."""
    params = {k: repr(v) if isinstance(v, float) else v
              for k, v in p.items() if v is not None}
    return {"command": name, **params, **lines}
