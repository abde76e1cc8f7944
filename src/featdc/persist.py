"""Versioned structured-text persistence of trained models.

A model file is a JSON document with a fixed header (format name,
version, kind "dc_model") and a payload. Dataclasses are stored field by
field, as their type hints say, and every value keeps its bits through a
save/load round trip. Version 3, the one written, stores a float array
as `{"shape": [...], "f8": <base64 of its little-endian float64 bytes>}`
and an integer array as `{"i4": <base64 of its little-endian int32
bytes>}` (base64 as RFC 4648 defines it); a float scalar is its
hexadecimal float literal (`float.hex()`) and an integer scalar a JSON
number. The model's input map, `feature_scale` and `positive_label`, is
two typed payload fields; the `config_snapshot` is an echo that loading
only checks to be an object. Version 2 files differ only in keeping the
input map in the snapshot (the scale as a list of `float.hex()`
strings); version 1 files also store float arrays as `{shape, hex}`
lists of `float.hex()` strings and integer arrays as integer lists. Both
still load, their snapshot's input map read into the typed fields.
Saving refuses an integer array with a value outside int32. Loading
refuses files whose format name, version or kind does not match, and
reports a payload that does not fit the schema (an array payload of the
wrong byte count or not base64, a non-finite float, or a
`config_snapshot` that is not an object included), or whose parts do not
fit together or cannot score, as a DataError naming the file.
"""

import base64
import dataclasses
import functools
import json
import math
import typing

import numpy as np
from numpy.typing import NDArray

from .classify import LEARNERS
from .dataio import read_text, write_text
from .decompose import CompositeDecomposition
from .errors import ConfigError, DataError
from .fuse import DcModel
from .rules import require

FORMAT_NAME = "featdc-model"
FORMAT_VERSION = 3
# v1: arrays as hex strings and integer lists; v1, v2: the input map in
# the config snapshot
READ_VERSIONS = (1, 2, 3)
KIND = "dc_model"  # the one document kind: a trained model

FloatArray = NDArray[np.float64]
IntArray = NDArray[np.int64]
_I4 = np.iinfo(np.int32)


@functools.cache
def _hints(cls):
    return typing.get_type_hints(cls)


def _b64(a, dtype):
    """Base64 text of a's little-endian bytes as dtype."""
    return base64.b64encode(np.ascontiguousarray(a, dtype).tobytes()).decode("ascii")


def _unb64(text, dtype):
    """The read-only dtype array whose little-endian bytes are base64 text."""
    try:
        raw = base64.b64decode(text, validate=True)
    except ValueError as exc:  # binascii.Error, or a non-ASCII character
        raise DataError(f"array payload is not base64 ({exc})") from exc
    size = np.dtype(dtype).itemsize
    if len(raw) % size:
        raise DataError(f"{dtype} array payload of {len(raw)} bytes is not "
                        f"a whole number of {size}-byte values")
    return np.frombuffer(raw, dtype)


def _enc(value, hint):
    """JSON form of value, chosen by its type hint (format version 3)."""
    if value is None:
        return None
    if typing.get_origin(hint) is typing.Union:  # Optional[X]
        hint = typing.get_args(hint)[0]
    if dataclasses.is_dataclass(hint):
        return {f.name: _enc(getattr(value, f.name), _hints(hint)[f.name])
                for f in dataclasses.fields(hint)}
    if hint == FloatArray:
        a = np.asarray(value, dtype=np.float64)
        return {"shape": list(a.shape), "f8": _b64(a, "<f8")}
    if hint == IntArray:
        a = np.asarray(value).ravel()
        if a.size and (a.min() < _I4.min or a.max() > _I4.max):
            raise DataError(f"cannot persist integer array: values "
                            f"{a.min()}..{a.max()} exceed the int32 range")
        return {"i4": _b64(a, "<i4")}
    if hint is float:
        return float(value).hex()
    if hint is int:
        return int(value)
    if typing.get_origin(hint) is list:
        return [_enc(v, typing.get_args(hint)[0]) for v in value]
    if typing.get_origin(hint) is dict:
        return {k: _enc(v, typing.get_args(hint)[1]) for k, v in value.items()}
    return value


def _dec(obj, hint, version):
    """Inverse of `_enc`, for a file of the given format version."""
    if obj is None:
        return None
    if typing.get_origin(hint) is typing.Union:
        hint = typing.get_args(hint)[0]
    if dataclasses.is_dataclass(hint):
        return hint(**{f.name: _dec(obj[f.name], _hints(hint)[f.name], version)
                       for f in dataclasses.fields(hint)})
    if hint == FloatArray:
        shape = tuple(obj["shape"])
        if version == 1:
            hexes = obj["hex"]
            flat = np.fromiter(map(float.fromhex, hexes), np.float64, len(hexes))
        else:
            flat = _unb64(obj["f8"], "<f8").astype(np.float64)  # writable copy
            if flat.size != math.prod(shape):
                raise DataError(f"float array of shape {shape} needs "
                                f"{8 * math.prod(shape)} bytes, not {8 * flat.size}")
        if not np.isfinite(flat).all():
            raise DataError(f"float array of shape {shape} holds a non-finite "
                            "value")
        return flat.reshape(shape)
    if hint == IntArray:
        if version == 1:
            return np.asarray(obj, dtype=np.int64)
        return _unb64(obj["i4"], "<i4").astype(np.int64)
    if hint is float:
        value = float.fromhex(obj)
        if not math.isfinite(value):
            raise DataError(f"float {obj!r} is not finite")
        return value
    if typing.get_origin(hint) is list:
        return [_dec(v, typing.get_args(hint)[0], version) for v in obj]
    if typing.get_origin(hint) is dict:
        return {k: _dec(v, typing.get_args(hint)[1], version)
                for k, v in obj.items()}
    return obj


def _enc_learner(model):
    for tag, cls in LEARNERS.items():
        if isinstance(model, cls):
            return {"type": tag, **_enc(model, cls)}
    raise DataError(f"cannot persist learner of type {type(model).__name__}")


def _dec_learner(obj, version):
    require("LearnerSpec.type", obj["type"], DataError, "learner type")
    return _dec(obj, LEARNERS[obj["type"]], version)


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
        "feature_scale": _enc(model.feature_scale, FloatArray),
        "positive_label": _enc(model.positive_label, float),
    }
    doc = {"format": FORMAT_NAME, "version": FORMAT_VERSION,
           "kind": KIND, "payload": payload}
    write_text(path, json.dumps(doc) + "\n")  # one-shot: the C encoder


def _check_header(doc, path):
    if not isinstance(doc, dict):
        raise DataError(f"{path}: not a model file (not a JSON object)")
    for key in ("format", "version", "kind", "payload"):
        if key not in doc:
            raise DataError(f"{path}: not a model file (missing {key!r})")
    if doc["format"] != FORMAT_NAME:
        raise DataError(f"{path}: unknown format {doc['format']!r}")
    if type(doc["version"]) is not int or doc["version"] not in READ_VERSIONS:
        raise DataError(
            f"{path}: file version {doc['version']} is not one of the "
            f"supported versions {READ_VERSIONS}; refusing to load"
        )
    if doc["kind"] != KIND:
        raise DataError(f"{path}: document kind {doc['kind']!r} is not "
                        f"{KIND!r}; refusing to load")


def _input_map(payload, snapshot, version):
    """(feature_scale, positive_label) of a payload; a version 1 or 2 file
    keeps them in its snapshot, the scale as `float.hex()` strings
    (`DcModel` checks both)."""
    if version >= 3:
        return (_dec(payload["feature_scale"], FloatArray, version),
                _dec(payload["positive_label"], float, version))
    scale = snapshot.get("feature_scale")
    if scale is not None:
        try:
            scale = np.array([float.fromhex(s) for s in scale], np.float64)
        except (TypeError, ValueError) as exc:
            raise DataError(f"malformed feature_scale ({exc})") from exc
    return scale, snapshot.get("positive_label")


def load_dc_model(path):
    """The DcModel saved at path (its collapsed scorer derived anew)."""
    try:
        doc = json.loads(read_text(path))
    except json.JSONDecodeError as exc:
        raise DataError(f"{path}: not valid structured text: {exc}") from exc
    _check_header(doc, path)
    p, version = doc["payload"], doc["version"]
    try:
        snapshot = p.get("config_snapshot", {})
        if not isinstance(snapshot, dict):
            raise DataError(f"config_snapshot is {type(snapshot).__name__}, "
                            "not an object")
        feature_scale, positive_label = _input_map(p, snapshot, version)
        return DcModel(
            decomposition=_dec(p["decomposition"], CompositeDecomposition, version),
            locals=[_dec_learner(m, version) for m in p["locals"]],
            global_model=_dec_learner(p["global"], version),
            r_shift=_dec(p["r_shift"], FloatArray, version),
            r_scale=_dec(p["r_scale"], FloatArray, version),
            config_snapshot=snapshot, feature_scale=feature_scale,
            positive_label=positive_label)
    except (KeyError, IndexError, TypeError, ValueError, AttributeError,
            ConfigError, DataError) as exc:
        raise DataError(f"{path}: malformed {KIND} payload "
                        f"({type(exc).__name__}: {exc})") from exc
