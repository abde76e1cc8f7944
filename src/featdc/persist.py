"""Versioned structured-text persistence of trained models.

A model file is a JSON document with a fixed header (format name,
version, kind "dc_model") and a payload. Dataclasses are stored field by
field, as their type hints say: every floating-point value as its
hexadecimal float literal (`float.hex()`), so a save/load round trip is
bit-exact; float arrays as `{shape, hex}`; integer arrays as plain
integer lists. Loading refuses files whose format name, version or kind
does not match, and reports a payload that does not fit the schema, or
whose parts do not fit together, as a DataError naming the file.
"""

import dataclasses
import functools
import json
import typing

import numpy as np
from numpy.typing import NDArray

from .classify import LEARNERS
from .decompose import CompositeDecomposition
from .errors import ConfigError, DataError
from .fuse import DcModel

FORMAT_NAME = "featdc-model"
FORMAT_VERSION = 1
KIND = "dc_model"  # the one document kind: a trained model

FloatArray = NDArray[np.float64]
IntArray = NDArray[np.int64]


@functools.cache
def _hints(cls):
    return typing.get_type_hints(cls)


def _enc(value, hint):
    """JSON form of value, chosen by its type hint."""
    if value is None:
        return None
    if typing.get_origin(hint) is typing.Union:  # Optional[X]
        hint = typing.get_args(hint)[0]
    if dataclasses.is_dataclass(hint):
        return {f.name: _enc(getattr(value, f.name), _hints(hint)[f.name])
                for f in dataclasses.fields(hint)}
    if hint == FloatArray:
        a = np.asarray(value, dtype=np.float64)
        return {"shape": list(a.shape), "hex": [v.hex() for v in a.ravel().tolist()]}
    if hint == IntArray:
        return np.asarray(value).astype(int).tolist()
    if hint is float:
        return float(value).hex()
    if hint is int:
        return int(value)
    if typing.get_origin(hint) is list:
        return [_enc(v, typing.get_args(hint)[0]) for v in value]
    if typing.get_origin(hint) is dict:
        return {k: _enc(v, typing.get_args(hint)[1]) for k, v in value.items()}
    return value


def _dec(obj, hint):
    """Inverse of `_enc`."""
    if obj is None:
        return None
    if typing.get_origin(hint) is typing.Union:
        hint = typing.get_args(hint)[0]
    if dataclasses.is_dataclass(hint):
        return hint(**{f.name: _dec(obj[f.name], _hints(hint)[f.name])
                       for f in dataclasses.fields(hint)})
    if hint == FloatArray:
        hexes = obj["hex"]
        flat = np.fromiter(map(float.fromhex, hexes), np.float64, len(hexes))
        return flat.reshape(obj["shape"])
    if hint == IntArray:
        return np.asarray(obj, dtype=np.int64)
    if hint is float:
        return float.fromhex(obj)
    if typing.get_origin(hint) is list:
        return [_dec(v, typing.get_args(hint)[0]) for v in obj]
    if typing.get_origin(hint) is dict:
        return {k: _dec(v, typing.get_args(hint)[1]) for k, v in obj.items()}
    return obj


def _enc_learner(model):
    for tag, cls in LEARNERS.items():
        if isinstance(model, cls):
            return {"type": tag, **_enc(model, cls)}
    raise DataError(f"cannot persist learner of type {type(model).__name__}")


def _dec_learner(obj):
    if obj["type"] not in LEARNERS:
        raise DataError(f"unknown learner type {obj['type']!r} in model file")
    return _dec(obj, LEARNERS[obj["type"]])


# ---------------------------------------------------------------------------
# the model document


def save_dc_model(model, path):
    payload = {
        "decomposition": _enc(model.decomposition, CompositeDecomposition),
        "locals": [_enc_learner(m) for m in model.locals],
        "global": _enc_learner(model.global_model),
        "r_shift": _enc(model.r_shift, FloatArray),
        "r_scale": _enc(model.r_scale, FloatArray),
        "config_snapshot": model.config_snapshot,
    }
    doc = {"format": FORMAT_NAME, "version": FORMAT_VERSION,
           "kind": KIND, "payload": payload}
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(doc))  # one-shot: the C encoder, same bytes
        fh.write("\n")


def _check_header(doc, path):
    if not isinstance(doc, dict):
        raise DataError(f"{path}: not a model file (not a JSON object)")
    for key in ("format", "version", "kind", "payload"):
        if key not in doc:
            raise DataError(f"{path}: not a model file (missing {key!r})")
    if doc["format"] != FORMAT_NAME:
        raise DataError(f"{path}: unknown format {doc['format']!r}")
    if doc["version"] != FORMAT_VERSION:
        raise DataError(
            f"{path}: file version {doc['version']} does not match "
            f"supported version {FORMAT_VERSION}; refusing to load"
        )
    if doc["kind"] != KIND:
        raise DataError(f"{path}: document kind {doc['kind']!r} is not "
                        f"{KIND!r}; refusing to load")


def load_dc_model(path):
    """The DcModel saved at path (its collapsed scorer derived anew)."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise DataError(f"cannot read model file {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise DataError(f"{path}: not valid structured text: {exc}") from exc
    _check_header(doc, path)
    p = doc["payload"]
    try:
        return DcModel(
            decomposition=_dec(p["decomposition"], CompositeDecomposition),
            locals=[_dec_learner(m) for m in p["locals"]],
            global_model=_dec_learner(p["global"]),
            r_shift=_dec(p["r_shift"], FloatArray),
            r_scale=_dec(p["r_scale"], FloatArray),
            config_snapshot=p.get("config_snapshot", {}),
        )
    except (KeyError, IndexError, TypeError, ValueError, AttributeError,
            ConfigError, DataError) as exc:
        raise DataError(f"{path}: malformed {KIND} payload "
                        f"({type(exc).__name__}: {exc})") from exc
