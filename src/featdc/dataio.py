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
file that is not UTF-8 (`load_libsvm`)          DataError
==============================================  =================

All messages carry the 1-based line number. Labels are mapped by the sign
convention (token > 0 becomes +1, otherwise -1) unless ``positive_label``
pins one exact raw value to +1 (used for sources labeled e.g. {1, 2}).

Two parsers share this contract. A bulk path parses text that keeps to a
strict grammar with numpy, in blocks of about 1 MiB cut at line ends:

- the text is ASCII, and its only whitespace is space, tab, ``\n`` and
  ``\r\n``;
- the label token holds no ``:``; every other token holds exactly one,
  with 1-15 ASCII digits before it;
- labels and values are decimal numbers spelled with ``0-9 + - . e E``
  (so no label is NaN) that numpy reads one per token; values are finite;
- indices are at least 1 and strictly ascend within each line.

Any other input goes whole to the line loop (`_parse_lines`), which uses
Python's ``float()``/``int()`` and is the only source of the errors above,
so their classes, messages and line numbers do not depend on the path.
Both paths give bit-identical arrays: numpy and ``float()`` round every
such decimal alike.
"""

import gzip
import io
import math
import warnings
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

    Text that keeps to the bulk grammar (module docstring) is parsed
    block-wise with numpy; anything else goes, whole, to the line loop.
    """
    if isinstance(source, str):
        text = source
    else:
        source = list(source)
        text = _joined_lines(source)
    parsed = _parse_bulk(text) if text is not None else None
    if parsed is None:
        parsed = _parse_lines(io.StringIO(source) if isinstance(source, str) else source)
    raw_labels, data, indices, indptr, max_index = parsed

    if raw_labels.size == 0:
        raise ParseError("empty input: no instances found")
    # degenerate all-empty instances still need one feature row
    m = max(max_index, n_features or 0, 1)
    x = sp.csc_array((data, indices, indptr), shape=(m, raw_labels.size))
    uniq, inverse = np.unique(raw_labels, return_inverse=True)
    mapped = [_map_label(raw, positive_label) for raw in uniq.tolist()]
    return Dataset(x, np.asarray(mapped, dtype=np.int64)[inverse])


def _parse_lines(lines):
    """The reference line loop, and the only source of parse errors.

    Returns (raw labels, data, 0-based indices, indptr, max index).
    """
    data, indices, indptr = [], [], [0]
    labels = []
    max_index = 0

    for line_no, raw_line in enumerate(lines, start=1):
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
        labels.append(label_value)

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

    return (np.asarray(labels, dtype=np.float64),
            np.asarray(data, dtype=np.float64),
            np.asarray(indices, dtype=np.int64),
            np.asarray(indptr, dtype=np.int64),
            max_index)


def _joined_lines(lines):
    """The text whose split after each '\\n' gives back exactly `lines`,
    or None when there is no such text."""
    try:
        text = "".join(lines)
    except TypeError:
        return None
    breaks = len(lines) - 1 + text.endswith("\n")
    if text.count("\n") != breaks or not all(line.endswith("\n") for line in lines[:-1]):
        return None
    return text


BULK_BLOCK_CHARS = 1 << 20  # a block ends at the last line end before this
_MAX_INDEX_DIGITS = 15      # below 2**53, so every such index is exact

_BULK_BYTES = b"0123456789+-.eE: \t\n\r"  # the last four are whitespace


def _parse_bulk(text):
    """`_parse_lines`' result for `text`, parsed in blocks of about
    BULK_BLOCK_CHARS; None if a block breaks the bulk grammar."""
    blocks = []
    start = 0
    while start < len(text):
        end = start + BULK_BLOCK_CHARS
        if end < len(text):
            cut = text.rfind("\n", start, end)
            end = cut + 1 if cut >= 0 else text.find("\n", end) + 1 or len(text)
        block = _parse_block(text[start:end])
        if block is None:
            return None
        blocks.append(block)
        start = end
    if not blocks:
        return None
    labels, data, indices, counts, max_indices = zip(*blocks)
    indptr = np.zeros(sum(c.size for c in counts) + 1, dtype=np.int64)
    np.cumsum(np.concatenate(counts), out=indptr[1:])
    return (np.concatenate(labels), np.concatenate(data),
            np.concatenate(indices), indptr, max(max_indices))


def _parse_block(block):
    """One block of whole lines: (raw labels, kept values, their 0-based
    indices, kept entries per row, max index), or None."""
    try:
        raw = block.encode("ascii")
    except UnicodeEncodeError:
        return None
    if raw.translate(None, _BULK_BYTES):
        return None
    b = np.frombuffer(raw, dtype=np.uint8)
    if b"\r" in raw:  # only as part of "\r\n"
        cr = np.flatnonzero(b == ord("\r"))
        if cr[-1] + 1 == b.size or (b[cr + 1] != ord("\n")).any():
            return None

    # tokens: runs of bytes above " ", the only whitespace left
    in_token = np.zeros(b.size + 1, dtype=np.int8)
    np.greater(b, ord(" "), out=in_token[1:].view(bool))
    starts = np.flatnonzero(np.diff(in_token) == 1)
    if starts.size == 0:  # blank lines only
        return np.zeros(0), np.zeros(0), np.zeros(0, np.int64), np.zeros(0, np.int64), 0
    line = np.searchsorted(np.flatnonzero(b == ord("\n")), starts)
    is_label = np.ones(starts.size, dtype=bool)
    is_label[1:] = line[1:] != line[:-1]
    is_entry = ~is_label

    # the label holds no ':', every other token exactly one
    colons = np.flatnonzero(b == ord(":"))
    owner = np.searchsorted(starts, colons, side="right") - 1
    if not np.array_equal(np.bincount(owner, minlength=starts.size), is_entry):
        return None
    n_digits = colons - starts[is_entry]  # none makes index 0, refused below
    longest = int(n_digits.max(initial=0))
    if longest > _MAX_INDEX_DIGITS:
        return None

    # decode the index digits, last digit first, and blank them and the ':'
    blanked = b.copy()
    blanked[colons] = ord(" ")
    index = np.zeros(colons.size, dtype=np.int64)
    for k in range(longest):
        has = n_digits > k
        at = colons[has] - 1 - k
        digit = b[at] - np.uint8(ord("0"))  # wraps above 9 for a non-digit
        if (digit > 9).any():
            return None
        index[has] += digit.astype(np.int64) * 10 ** k
        blanked[at] = ord(" ")

    with warnings.catch_warnings():
        warnings.simplefilter("error", DeprecationWarning)
        try:
            numbers = np.fromstring(blanked.tobytes(), sep=" ")
        except (ValueError, DeprecationWarning):
            return None
    if numbers.size != starts.size:  # one number per token, e.g. no empty value
        return None
    labels, values = numbers[is_label], numbers[is_entry]
    if not np.isfinite(values).all():  # no label is NaN: the bytes hold no letter n
        return None
    entry_row = (np.cumsum(is_label) - 1)[is_entry]
    same_row = entry_row[1:] == entry_row[:-1]
    if index.size and (index.min() < 1 or (same_row & (index[1:] <= index[:-1])).any()):
        return None

    keep = values != 0.0
    counts = np.bincount(entry_row[keep], minlength=labels.size)
    return labels, values[keep], index[keep] - 1, counts, int(index.max(initial=0))


def load_libsvm(path, n_features=None, positive_label=None) -> Dataset:
    """Read a LIBSVM file; transparently decompresses when `path` ends in .gz.

    The file is decoded as UTF-8 whole, then parsed as one string; a file
    that cannot be read or decoded raises DataError naming `path`.
    """
    opener = gzip.open if str(path).endswith(".gz") else open
    try:
        with opener(path, "rt", encoding="utf-8") as handle:
            text = handle.read()
    except OSError as exc:
        raise DataError(f"cannot read {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise DataError(f"cannot read {path}: not UTF-8 text ({exc})") from exc
    return parse_libsvm(text, n_features=n_features, positive_label=positive_label)


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
    x = ds.X
    indices = (x.indices + 1).tolist()
    values = x.data.astype(np.float64, copy=False).tolist()
    indptr = x.indptr.tolist()
    out = []
    for k, label in enumerate(ds.y.tolist()):
        lo, hi = indptr[k], indptr[k + 1]
        parts = ["+1" if label > 0 else "-1"]
        parts.extend(f"{i}:{v!r}" for i, v in zip(indices[lo:hi], values[lo:hi]))
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
