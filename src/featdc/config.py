"""Run configuration: structured-text (JSON) files with strict validation.

The dataclasses are the schema. Every key is a field name (a trailing
underscore dropped, so `global_` reads `global`), its type hint says what
value it takes, a field without a default is a required key, a null
value means "use the default", and a nested object starts from its
field's default, so `{"global": {"p": 3}}` keeps the `trbf` type. `RULES`
(`featdc.rules`, which the library applies too) holds the checks a type
hint cannot express. Unknown keys anywhere in the document are errors,
so hyperparameter typos fail fast. Validation collects every problem and
reports them all in a single error rather than stopping at the first.
"""

import dataclasses
import json
import os
import typing
from dataclasses import dataclass, field
from typing import Optional

from .dataio import SplitSpec, read_text
from .errors import ConfigError
from .fuse import Guards, LearnerSpec
from .rules import RULES, require


@dataclass
class PlanEntry:
    method: str
    n_subspaces: int
    group_size: int


@dataclass
class RunConfig:
    train_path: str
    test_path: Optional[str] = None
    split: Optional[SplitSpec] = None
    scale_features: bool = False
    positive_label: Optional[float] = None
    n_features_override: Optional[int] = None
    plan: list[PlanEntry] = field(default_factory=list)
    local: LearnerSpec = field(default_factory=lambda: LearnerSpec("linear"))
    global_: LearnerSpec = field(default_factory=lambda: LearnerSpec("trbf"))
    guards: Guards = field(default_factory=Guards)
    out_dir: str = "."
    threads: int = field(default_factory=lambda: os.cpu_count() or 1)
    seed: int = 0
    dca_ridge: Optional[float] = None
    baseline: str = "linear"


def _key(name):
    return name.rstrip("_")


def _default(f, base):
    if base is not None:
        return getattr(base, f.name)
    if f.default is not dataclasses.MISSING:
        return f.default
    if f.default_factory is not dataclasses.MISSING:
        return f.default_factory()
    return dataclasses.MISSING


def _build(cls, obj, where, problems, base=None):
    """cls from the JSON object obj, each field starting from base (or
    its own default); None once obj has a problem."""
    if not isinstance(obj, dict):
        problems.append(f"{where or 'top level'}: expected an object")
        return None
    found = len(problems)
    fields = dataclasses.fields(cls)
    for key in sorted(set(obj) - {_key(f.name) for f in fields}):
        problems.append(f"{where or 'top level'}: unknown key {key!r}")
    hints = typing.get_type_hints(cls)
    values = {}
    for f in fields:
        at = f"{where}.{_key(f.name)}" if where else _key(f.name)
        value = _default(f, base)
        if obj.get(_key(f.name)) is not None:
            value = _value(hints[f.name], obj[_key(f.name)], at, problems, value)
        elif value is dataclasses.MISSING:
            problems.append(f"{at}: missing required key")
            continue
        if f"{cls.__name__}.{f.name}" in RULES:
            try:  # each problem reads "path: problem"
                require(f"{cls.__name__}.{f.name}", value, name=f"{at}:")
            except ConfigError as exc:
                problems.append(str(exc))
        values[f.name] = value
    return cls(**values) if len(problems) == found else None


def _value(hint, value, where, problems, default):
    if typing.get_origin(hint) is typing.Union:  # Optional[X]
        hint = typing.get_args(hint)[0]
    if dataclasses.is_dataclass(hint):
        return _build(hint, value, where, problems,
                      None if default is dataclasses.MISSING else default)
    if typing.get_origin(hint) is list:
        if not isinstance(value, list):
            problems.append(f"{where}: expected a list, got {value!r}")
            return None
        item = typing.get_args(hint)[0]
        return [_value(item, v, f"{where}[{i}]", problems, None)
                for i, v in enumerate(value)]
    kinds = (int, float) if hint is float else hint
    if not isinstance(value, kinds) or (hint is not bool and isinstance(value, bool)):
        problems.append(f"{where}: expected {hint.__name__}, got {value!r}")
        return None
    return value


def parse_config(doc, path="<config>"):
    """Validate a parsed JSON document into a RunConfig, reporting every
    problem found."""
    problems = []
    cfg = _build(RunConfig, doc, "", problems)
    if problems:
        lines = "\n".join(f"  - {m}" for m in problems)
        raise ConfigError(f"{len(problems)} problem(s) in config {path}:\n{lines}")
    return cfg


def load_config(path):
    try:
        doc = json.loads(read_text(path, ConfigError))
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path} is not valid structured text: {exc}"
                          ) from exc
    return parse_config(doc, path)


def config_echo(cfg):
    """Plain-dict echo of a RunConfig, suitable for reports and model
    snapshots; rerunning from this echo reproduces the run."""
    return {_key(k): v for k, v in dataclasses.asdict(cfg).items()}
