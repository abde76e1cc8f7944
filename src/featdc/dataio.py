"""Sparse dataset ingestion in the SVM-light / LIBSVM text format.

Format: one instance per nonempty line, ``<label> <idx>:<val> <idx>:<val> ...``
with 1-based feature indices, strictly ascending within a line. Instances
are stored column-per-instance in a CSC matrix (internally 0-based rows).

Error classes raised while reading, by malformation:

==============================================  =================
input problem                                   raised class
==============================================  =================
empty file / no instances                       ParseError
unreadable label token                          ParseError
token without ``:``                             ParseError
unreadable index or value text                  ParseError
index smaller than 1                            ValidationError
non-ascending or duplicate index within a line  ValidationError
non-finite feature value (nan/inf)              ValidationError
==============================================  =================

All messages carry the 1-based line number. Labels are mapped by the sign
convention (token > 0 becomes +1, otherwise -1) unless ``positive_label``
pins one exact raw value to +1 (used for sources labeled e.g. {1, 2}).
"""

import gzip
import io
import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .errors import DataError, ParseError, ValidationError


@dataclass(frozen=True)
class Dataset:
    """Sparse feature matrix (n_features x n_instances) plus -1/+1 labels.

    X is always stored CSC. The pipeline (decomposition, locals, predict)
    works on a dense copy of X instead when that copy takes no more bytes
    than the CSC arrays; see `featdc.decompose`.

    Treat both arrays as read-only after construction; every operation in
    the package returns new objects instead of mutating.
    """

    X: sp.csc_array
    y: np.ndarray

    def __post_init__(self):
        m, n = self.X.shape
        if m < 1 or n < 1:
            raise DataError(f"dataset must have at least one feature and one instance, got {m}x{n}")
        if self.y.shape != (n,):
            raise DataError(f"labels length {self.y.shape} does not match {n} instances")
        if not np.all(np.isin(self.y, (-1, 1))):
            raise DataError("labels must be exactly -1 or +1")

    @property
    def n_features(self):
        return self.X.shape[0]

    @property
    def n_instances(self):
        return self.X.shape[1]

    def column(self, k):
        """Sparse vector of instance k as (ascending 0-based indices, values)."""
        x = self.X
        lo, hi = x.indptr[k], x.indptr[k + 1]
        return x.indices[lo:hi], x.data[lo:hi]


@dataclass(frozen=True)
class SplitSpec:
    """Seeded train/test split: train side gets round(fraction * N) instances."""

    train_fraction: float
    seed: int = 0

    def __post_init__(self):
        if not (0.0 < self.train_fraction < 1.0):
            raise DataError(f"train_fraction must be in (0, 1), got {self.train_fraction}")


def _map_label(raw, positive_label):
    if positive_label is not None:
        return 1 if raw == positive_label else -1
    return 1 if raw > 0 else -1


def parse_libsvm(source, n_features=None, positive_label=None) -> Dataset:
    """Parse LIBSVM-format text into a Dataset.

    `source` may be a string, a text file object, or any iterable of lines.
    `n_features` overrides the feature count upward so that files drawn
    from the same source (train/test) agree on the dimension; the final
    count is the larger of the override and the maximum index seen.
    Zero-valued entries are dropped.
    """
    if isinstance(source, str):
        source = io.StringIO(source)

    data, indices, indptr = [], [], [0]
    labels = []
    max_index = 0

    for line_no, raw_line in enumerate(source, start=1):
        line = raw_line.strip()
        if not line:
            continue
        tokens = line.split()
        try:
            label_value = float(tokens[0])
        except ValueError:
            raise ParseError(f"line {line_no}: unreadable label {tokens[0]!r}") from None
        if math.isnan(label_value):
            raise ParseError(f"line {line_no}: unreadable label {tokens[0]!r}")
        labels.append(_map_label(label_value, positive_label))

        previous = 0
        for token in tokens[1:]:
            if ":" not in token:
                raise ParseError(f"line {line_no}: token {token!r} is missing ':'")
            index_text, value_text = token.split(":", 1)
            try:
                index = int(index_text)
                value = float(value_text)
            except ValueError:
                raise ParseError(f"line {line_no}: unreadable token {token!r}") from None
            if index < 1:
                raise ValidationError(f"line {line_no}: index {index} is smaller than 1")
            if index <= previous:
                raise ValidationError(
                    f"line {line_no}: index {index} after {previous} "
                    "(indices must be strictly ascending)"
                )
            if not math.isfinite(value):
                raise ValidationError(f"line {line_no}: non-finite value in {token!r}")
            previous = index
            if value == 0.0:
                continue
            indices.append(index - 1)
            data.append(value)
        max_index = max(max_index, previous)
        indptr.append(len(data))

    if not labels:
        raise ParseError("empty input: no instances found")

    m = max(max_index, n_features or 0)
    if m < 1:
        m = 1  # degenerate all-empty instances still need one feature row
    x = sp.csc_array(
        (np.asarray(data, dtype=np.float64),
         np.asarray(indices, dtype=np.int64),
         np.asarray(indptr, dtype=np.int64)),
        shape=(m, len(labels)),
    )
    return Dataset(x, np.asarray(labels, dtype=np.int64))


def load_libsvm(path, n_features=None, positive_label=None) -> Dataset:
    """Read a LIBSVM file; transparently decompresses when `path` ends in .gz."""
    opener = gzip.open if str(path).endswith(".gz") else open
    try:
        with opener(path, "rt", encoding="utf-8") as handle:
            return parse_libsvm(handle, n_features=n_features, positive_label=positive_label)
    except OSError as exc:
        raise DataError(f"cannot read {path}: {exc}") from exc


def train_size(n_instances, fraction):
    """Half-up rounding of fraction * N, shared by split and its tests."""
    return int(math.floor(fraction * n_instances + 0.5))


def select_instances(ds: Dataset, indices) -> Dataset:
    """New Dataset holding the given instance columns, in the given order."""
    idx = np.asarray(indices, dtype=np.int64)
    if idx.size < 1:
        raise DataError("instance selection is empty")
    if idx.min() < 0 or idx.max() >= ds.n_instances:
        raise DataError(
            f"instance index out of range 0..{ds.n_instances - 1}"
        )
    return Dataset(sp.csc_array(ds.X[:, idx]), ds.y[idx])


def split(ds: Dataset, spec: SplitSpec):
    """Disjoint seeded partition into (train, test) Datasets.

    Instance order within each side follows the original dataset, so the
    partition is reproducible and stable under re-serialization.
    """
    n = ds.n_instances
    n_train = train_size(n, spec.train_fraction)
    if n_train < 1 or n - n_train < 1:
        raise DataError(
            f"split of {n} instances at fraction {spec.train_fraction} "
            "leaves one side empty"
        )
    rng = np.random.default_rng(spec.seed)
    perm = rng.permutation(n)
    return (
        select_instances(ds, np.sort(perm[:n_train])),
        select_instances(ds, np.sort(perm[n_train:])),
    )


def serialize_libsvm(ds: Dataset) -> str:
    """Inverse of parse_libsvm: exact decimal encoding, ascending indices.

    Values are printed with repr(), whose shortest round-trip decimal form
    guarantees parse(serialize(ds)) reproduces every float bit-exactly.
    """
    out = []
    for k in range(ds.n_instances):
        idx, val = ds.column(k)
        parts = ["+1" if ds.y[k] > 0 else "-1"]
        parts.extend(f"{int(i) + 1}:{float(v)!r}" for i, v in zip(idx, val))
        out.append(" ".join(parts))
    return "\n".join(out) + "\n"


def save_libsvm(ds: Dataset, path):
    opener = gzip.open if str(path).endswith(".gz") else open
    with opener(path, "wt", encoding="utf-8") as handle:
        handle.write(serialize_libsvm(ds))


def max_abs_scale(ds: Dataset):
    """Per-feature max-abs scaler fitted on `ds`.

    Returns (scaled dataset, scale vector); entries of all-zero features
    scale by 1. Apply the same vector to held-out data with
    `apply_feature_scale`.
    """
    peak = np.abs(ds.X).max(axis=1)
    peak = np.asarray(peak.todense()).ravel() if sp.issparse(peak) else np.asarray(peak).ravel()
    scale = np.where(peak > 0, peak, 1.0)
    return apply_feature_scale(ds, scale), scale


def apply_feature_scale(ds: Dataset, scale) -> Dataset:
    """Divide feature row i of `ds` by scale[i].

    One multiply per stored entry by the reciprocal, on X's own sparsity
    pattern (its index arrays are shared, not copied).
    """
    scale = np.asarray(scale, dtype=np.float64)
    if scale.shape != (ds.n_features,):
        raise DataError(f"scale vector length {scale.shape} != {ds.n_features} features")
    x = sp.csc_array(ds.X)
    data = x.data * (1.0 / scale)[x.indices]
    return Dataset(sp.csc_array((data, x.indices, x.indptr), shape=x.shape), ds.y)
