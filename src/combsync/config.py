"""Strict YAML experiment configuration.

One config file drives one run: a top-level ``command``/``seed`` pair
plus a single parameter block named after the command.  ``_build`` makes
every block: each key is the name of a field of the dataclass it builds,
with that field's type and default, and each rule on the values is the
dataclass's own ``__post_init__`` (a quantum-scaling run's mode among
them).  A YAML list becomes a tuple whose items each pass the conversion
of their own type, as a scalar field would, so an error names the item
(``'stability.m_values[1]'``); range rules such as ``m >= 1`` belong to
the dataclasses, not to the config layer.  Parsing is strict — unknown,
missing, mistyped and repeated keys are rejected with the offending
dotted key name so typos in physics parameters cannot pass silently.
The output directory is not part of a config: it is the CLI's ``--out``,
so that moving a run's output does not change the config hash its
artifacts record.

The YAML is parsed by PyYAML's libyaml binding (``yaml.CSafeLoader``;
``yaml.__with_libyaml__`` is true where it is built, as in the PyPI
wheels), with the duplicate-key check and the ``1e14`` float resolver
running in Python on top of it.  Collections nested deeper than
``MAX_NESTING`` are rejected before the document is composed.  A YAML
error is reported on one line: ``cannot parse config: line L, column C:
<problem> (<context>)``, or ``byte N: ...`` for an undecodable byte.
"""

from __future__ import annotations

import dataclasses
import functools
import math
import re
import typing
from dataclasses import dataclass, field
from enum import Enum
from typing import Any, Container, Optional, Union

import numpy as np
import yaml

from .clockmodel import CombParams
from .errors import CombsyncError, InvalidArgument, _count, _positive, _store
from .noisegen import NoiseSpec
from .quantum import EstimatorMethod, EstimatorModel
from .seeding import check_seed
from .stability import Variant
from .synclink import LinkModel, SyncCampaign


class ConfigError(CombsyncError):
    """Unparseable or invalid experiment configuration."""


class _ConfigLoader(yaml.CSafeLoader):
    """libyaml's SafeLoader that treats '1e14'-style scalars as floats and rejects repeated keys.

    YAML 1.1 only resolves exponents written with a sign and a dot;
    physics configs are full of bare scientific notation.  A repeated key
    would otherwise silently keep its last value.
    """

    def construct_mapping(self, node, deep=False):
        seen = set()
        for key, _ in node.value:
            if isinstance(key, yaml.ScalarNode):
                if (key.tag, key.value) in seen:
                    raise ConfigError(f"duplicate key '{key.value}' on line {key.start_mark.line + 1}")
                seen.add((key.tag, key.value))
        return super().construct_mapping(node, deep)


_ConfigLoader.add_implicit_resolver(
    "tag:yaml.org,2002:float",
    re.compile(
        r"""^(?:[-+]?(?:[0-9][0-9_]*)\.[0-9_]*(?:[eE][-+]?[0-9]+)?
           |[-+]?(?:[0-9][0-9_]*)(?:[eE][-+]?[0-9]+)
           |[-+]?\.[0-9_]+(?:[eE][-+]?[0-9]+)?
           |[-+]?\.(?:inf|Inf|INF)
           |\.(?:nan|NaN|NAN))$""",
        re.X,
    ),
    list("-+0123456789."),
)

#: The schema nests at most 5 collections (root, sync, clock_a, noise, one spec).  libyaml's
#: composer recurses on the C stack once per level, and a document nested 100,000 deep overflows
#: it and kills the process, so deeper documents are refused from the event stream first.
MAX_NESTING = 100


def _at(mark) -> str:
    return f"line {mark.line + 1}, column {mark.column + 1}"


def _parse(raw: bytes) -> Any:
    """The YAML document in raw; a YAML fault becomes a one-line ConfigError."""
    try:
        depth = 0
        for event in yaml.parse(raw, Loader=_ConfigLoader):
            if isinstance(event, yaml.CollectionStartEvent):
                depth += 1
                if depth > MAX_NESTING:
                    raise ConfigError(f"cannot parse config: {_at(event.start_mark)}: "
                                      f"collections nested deeper than {MAX_NESTING} levels")
            elif isinstance(event, yaml.CollectionEndEvent):
                depth -= 1
        return yaml.load(raw, Loader=_ConfigLoader)
    except yaml.reader.ReaderError as exc:
        raise ConfigError(f"cannot parse config: byte {exc.position}: "
                          f"unacceptable character #x{exc.character:04x}: {exc.reason}") from None
    except yaml.MarkedYAMLError as exc:
        where = _at(exc.problem_mark)
        context = exc.context
        if context and exc.context_mark and _at(exc.context_mark) != where:
            context += f" at {_at(exc.context_mark)}"
        raise ConfigError(f"cannot parse config: {where}: {exc.problem}"
                          + (f" ({context})" if context else "")) from None
    except ValueError as exc:  # an integer too long to convert
        raise ConfigError(f"cannot parse config: {exc}") from None


# ---------------------------------------------------------------------------
# Command payloads


@dataclass(frozen=True)
class SeriesSource:
    """A synthesized noise series: process plus sampling grid."""

    spec: NoiseSpec
    count: int
    tau0: float = 1.0


@dataclass(frozen=True)
class StabilityRun:
    """A stability curve of a synthesized series at the averaging factors m_values (default: every octave)."""

    noise: SeriesSource
    variant: Variant
    m_values: Optional[tuple[int, ...]] = None

    def __post_init__(self):
        if self.m_values is not None:
            m_values = tuple(_count("m", m, 1) for m in self.m_values)
            if not m_values:
                raise InvalidArgument("m_values must not be empty")
            object.__setattr__(self, "m_values", m_values)


@dataclass(frozen=True)
class SyncRun:
    campaign: SyncCampaign
    trials: int
    comb: Optional[CombParams] = None


@dataclass(frozen=True)
class ScalingRun:
    """The sql mode sweeps the photon budget n_values; the hl mode sweeps the squeezing r_values."""

    mode: str  # "sql" | "hl"
    trials: int
    nu0: float
    t0: float
    method: EstimatorMethod = EstimatorMethod.TEMPORAL_MODE
    n_values: tuple[float, ...] = ()
    r_values: tuple[float, ...] = ()

    def __post_init__(self):
        if self.mode not in ("sql", "hl"):
            raise InvalidArgument(f"mode must be 'sql' or 'hl', got {self.mode!r}")
        values, other, other_mode = (("n_values", "r_values", "hl") if self.mode == "sql"
                                     else ("r_values", "n_values", "sql"))
        if getattr(self, other):
            raise InvalidArgument(f"{other} is only valid in {other_mode} mode")
        if not getattr(self, values):
            raise InvalidArgument(f"{self.mode} mode needs {values}")
        _store(self, _positive, "nu0", "t0")
        items = tuple(_positive(f"{values}[{i}]", v) for i, v in enumerate(getattr(self, values)))
        object.__setattr__(self, values, items)
        if self.mode == "hl":  # an r whose n = sinh(r)**2 underflows or overflows is no photon budget, as r = 0 is
            with np.errstate(over="ignore", under="ignore"):
                for i, (n, _) in enumerate(self.points()):
                    if not 0.0 < n < math.inf:
                        raise InvalidArgument(f"r_values[{i}] must give a finite photon number sinh(r)**2 > 0, got {n}")

    def points(self) -> list[tuple[float, float]]:
        """The (n, r) of each sweep point: each n at r = 0 (sql), or each r with n = sinh(r)**2 (hl)."""
        return [(n, 0.0) for n in self.n_values] + [(float(np.sinh(r) ** 2), r) for r in self.r_values]


@dataclass(frozen=True)
class AdvantageRun:
    link: LinkModel
    estimator: EstimatorModel


#: The payload dataclass each command's parameter block builds.
COMMANDS = {"noise": SeriesSource, "stability": StabilityRun, "sync": SyncRun,
            "quantum-scaling": ScalingRun, "advantage": AdvantageRun}
#: Commands that draw random numbers and therefore require a seed.  No payload field says so:
#: the seed sits at the top level, and an advantage run is deterministic and may omit it.
STOCHASTIC_COMMANDS = ("noise", "stability", "sync", "quantum-scaling")


# ---------------------------------------------------------------------------
# The schema: dataclass fields plus the few facts the dataclasses do not hold

#: Fields whose keys sit in the enclosing block instead of under a key of their own.  This is the
#: YAML layout: a noise spec's keys sit next to the series count, a campaign's next to the trials.
_INLINE = {(SeriesSource, "spec"), (SyncRun, "campaign")}
#: Defaults a dataclass cannot declare itself: t_0 and n_range follow CombParams.f_0,
#: and callers build CombParams positionally.  This goes once CombParams loses t_0 and n_range.
_DEFAULTS = {(CombParams, "f_0"): 0.0}

#: Scalar types whose YAML value must have exactly that type.
_SCALARS = {int: "an integer", bool: "a boolean", str: "a string"}


@functools.cache
def _schema(cls) -> tuple[tuple, frozenset]:
    """The (field name, type hint, default, inline) rows of cls, and the keys of its block."""
    hints = typing.get_type_hints(cls)
    rows, keys = [], set()
    for f in dataclasses.fields(cls):
        hint, inline = hints[f.name], (cls, f.name) in _INLINE
        rows.append((f.name, hint, _DEFAULTS.get((cls, f.name), f.default), inline))
        keys |= _schema(hint)[1] if inline else {f.name}
    return tuple(rows), frozenset(keys)


def _mapping(node: Any, keys: Container[str], path: str) -> dict:
    """node as a mapping that holds only the given keys."""
    if not isinstance(node, dict):
        name = f"'{path}'" if path else "the config"
        raise ConfigError(f"{name} must be a mapping, got {type(node).__name__}")
    for key in node:
        if key not in keys:
            raise ConfigError(f"unknown key '{path}.{key}'" if path else f"unknown key '{key}'")
    return node


def _build(cls, node: Any, path: str):
    """An instance of the dataclass cls from the YAML mapping at the dotted key path."""
    node = _mapping(node, _schema(cls)[1], path)
    kwargs = {}
    for name, hint, default, inline in _schema(cls)[0]:
        if inline:
            kwargs[name] = _build(hint, {k: v for k, v in node.items() if k in _schema(hint)[1]}, path)
        elif name in node:
            kwargs[name] = _convert(hint, node[name], f"{path}.{name}")
        elif default is dataclasses.MISSING:
            raise ConfigError(f"missing required key '{path}.{name}'")
        else:
            kwargs[name] = default
    try:
        return cls(**kwargs)
    except CombsyncError as exc:
        raise ConfigError(f"invalid '{path}': {exc}") from None


def _convert(hint, value: Any, path: str):
    """value checked against, and converted to, the type hint of its field."""
    if typing.get_origin(hint) is Union:  # Optional[X]: only an absent key takes the None default
        hint = typing.get_args(hint)[0]
    if hint is float:
        if type(value) not in (int, float):
            raise ConfigError(f"'{path}' must be a number, got {value!r}")
        try:
            number = float(value)
        except OverflowError:  # an integer past the float range
            number = math.inf
        if not math.isfinite(number):
            raise ConfigError(f"'{path}' must be finite, got {value!r}")
        return number
    if hint in _SCALARS:
        if type(value) is not hint:
            raise ConfigError(f"'{path}' must be {_SCALARS[hint]}, got {value!r}")
        return value
    if isinstance(hint, type) and issubclass(hint, Enum):
        try:
            return hint(value)
        except ValueError:
            choices = ", ".join(e.value for e in hint)
            raise ConfigError(f"'{path}' must be one of: {choices}; got {value!r}") from None
    if dataclasses.is_dataclass(hint):
        return _build(hint, value, path)
    items = typing.get_args(hint)  # (item, ...) or (item, item): a dataclass checks a fixed length
    if not isinstance(value, list):
        raise ConfigError(f"'{path}' must be a list, got {type(value).__name__}")
    return tuple(_convert(items[0], v, f"{path}[{i}]") for i, v in enumerate(value))


def _block_key(command: str) -> str:
    return command.replace("-", "_")


@dataclass(frozen=True)
class ExperimentConfig:
    """One fully validated run: command, seed, parameters."""

    command: str
    seed: Optional[int]
    payload: Any
    raw_bytes: bytes = field(repr=False, default=b"")


def load_config(path: str, command: Optional[str] = None, seed_override: Optional[int] = None) -> ExperimentConfig:
    """Parse and validate a config file.

    ``command`` (from the CLI) must agree with the file's command field
    when both are given.  A seed override takes precedence over the file's
    seed, which must still be valid.
    """
    with open(path, "rb") as fh:
        raw = fh.read()
    root = _parse(raw)
    keys = ("command", "seed", *map(_block_key, COMMANDS))
    root = _mapping(root if root is not None else {}, keys, "")

    file_command = root.get("command")
    if file_command is not None and file_command not in COMMANDS:
        raise ConfigError(f"'command' must be one of: {', '.join(COMMANDS)}; got {file_command!r}")
    if command is not None and file_command is not None and command != file_command:
        raise ConfigError(f"config is for command '{file_command}' but '{command}' was requested")
    resolved_command = command or file_command
    if resolved_command is None:
        raise ConfigError("no command given on the command line or in the config")

    blocks = [c for c in COMMANDS if _block_key(c) in root]
    if blocks != [resolved_command]:
        if not blocks:
            raise ConfigError(f"missing parameter block '{_block_key(resolved_command)}'")
        extra = next(b for b in blocks if b != resolved_command)
        raise ConfigError(f"unexpected parameter block '{_block_key(extra)}' for command '{resolved_command}'")

    seed = _convert(int, root["seed"], "seed") if "seed" in root else None
    for value in (seed, seed_override):
        if value is not None:
            try:
                seed = check_seed(value)
            except CombsyncError as exc:
                raise ConfigError(f"invalid 'seed': {exc}") from None
    if seed is None and resolved_command in STOCHASTIC_COMMANDS:
        raise ConfigError(f"command '{resolved_command}' is stochastic and requires a seed")

    key = _block_key(resolved_command)
    payload = _build(COMMANDS[resolved_command], root[key], key)
    return ExperimentConfig(command=resolved_command, seed=seed, payload=payload, raw_bytes=raw)
