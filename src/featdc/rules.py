"""The rule of every configured value, written once. The config collects
the problems of a whole document; the library raises them through
`require`, so both refuse the same values with the same text. A leaf of
the package: it imports nothing from it but `errors`.
"""

import dataclasses
import math

from .errors import ConfigError

METHODS = ("rd", "pca", "dca", "bcd", "abd")  # decomposition sub-methods
LEARNER_TYPES = ("linear", "trbf")


def _check(test, text):
    return lambda v: None if test(v) else f"{text}, got {v!r}"


_AT_LEAST_1 = _check(lambda v: v >= 1, "must be >= 1")
_NON_NEGATIVE = _check(lambda v: v >= 0, "must be >= 0")
_POSITIVE = _check(lambda v: v > 0, "must be positive")
_LEARNER = _check(lambda v: v in LEARNER_TYPES, f"must be one of {list(LEARNER_TYPES)}")

# "Class.field" of a config dataclass -> rule for a non-null value, which
# returns None or the problem
RULES = {
    "RunConfig.plan": _check(bool, "must be a non-empty list of decomposition entries"),
    "RunConfig.positive_label": _check(math.isfinite, "must be a finite number"),
    "RunConfig.n_features_override": _AT_LEAST_1,
    "RunConfig.threads": _AT_LEAST_1,
    "RunConfig.seed": _NON_NEGATIVE,
    "RunConfig.dca_ridge": _POSITIVE,
    "RunConfig.baseline": _LEARNER,
    "SplitSpec.train_fraction": _check(lambda v: 0.0 < v < 1.0,
                                       "must be strictly between 0 and 1"),
    "SplitSpec.seed": _NON_NEGATIVE,
    "PlanEntry.method": _check(lambda v: v in METHODS,
                               f"must be one of {list(METHODS)}"),
    "PlanEntry.n_subspaces": _AT_LEAST_1,
    "PlanEntry.group_size": _AT_LEAST_1,
    "LearnerSpec.type": _LEARNER,
    "LearnerSpec.lam": _POSITIVE,
    "LearnerSpec.sigma": _POSITIVE,
    "LearnerSpec.p": _AT_LEAST_1,
    "Guards.max_dense_features": _AT_LEAST_1,
}


def require(key, value, error=ConfigError, name=None):
    """`error` "name problem" unless RULES[key] takes the value (None
    always passes); name defaults to the field of key."""
    try:
        problem = None if value is None else RULES[key](value)
    except TypeError:  # a value the rule cannot compare
        problem = f"has the wrong type, got {value!r}"
    if problem:
        raise error(f"{name or key.split('.')[1]} {problem}")


def require_fields(obj, error=ConfigError, where=None):
    """`require` on each field of the dataclass obj that has a rule, named
    `where.field` (the bare field without where)."""
    for f in dataclasses.fields(obj):
        if f"{type(obj).__name__}.{f.name}" in RULES:
            require(f"{type(obj).__name__}.{f.name}", getattr(obj, f.name),
                    error, f"{where}.{f.name}" if where else None)
