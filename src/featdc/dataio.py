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
file that cannot be read or gunzipped           DataError
file that is not UTF-8                          DataError
==============================================  =================

Parse and validation messages carry the 1-based line number. Labels are
mapped by the sign convention (token > 0 becomes +1, otherwise -1) unless
``positive_label`` pins one exact raw value to +1 (used for sources
labeled e.g. {1, 2}).

A line iterable (a text file object, a list of lines) is parsed as its
text, one element per line: each element's trailing line ends become
one, and an inner line end reads as a space. So an iterable and its
text take the same path, with the same errors.

Two parsers share this contract. A bulk path parses text that keeps to a
strict grammar, in blocks of about 1 MiB cut at line ends:

- the text is ASCII, and its only whitespace is space, tab, ``\r`` and
  ``\n``, of which only ``\n`` ends a line, as in the line loop;
- the label token holds no ``:``; every other token holds exactly one,
  with 1-15 ASCII digits before it;
- labels and values are decimals spelled as ``float()`` reads them from
  ``0-9 + - . e E``, ``[+-]? (d+ .? d* | . d+) ([eE] [+-]? d+)?`` (so no
  label is NaN); values are finite;
- indices are at least 1 and strictly ascend within each line.

numpy finds the tokens, decodes the indices and checks each number's
spelling at its signs, dot and e. scipy's compiled Matrix Market reader
(scipy >= 1.12; fast_float, after Lemire, "Number Parsing at a Gigabyte
per Second", 2021) then reads the labels and values on the calling
thread. It is handed the block with each ``:`` made a line end and tab
and ``\r`` made spaces, so each line holds one label or value and then
the next entry's index, which the reader skips: it reads the first number
of a line, and it pays per line, not per number. That reader would read a
prefix of a misspelled number (``1e`` as 1, ``1.2.3`` as 1.2), hence the
spelling check.

Any other input goes whole to the line loop (`_parse_lines`), which uses
Python's ``float()``/``int()`` and is the only source of the errors above,
so their classes, messages and line numbers do not depend on the path.
Both paths give bit-identical arrays: the reader and ``float()`` both
round every decimal correctly. (The reader reads ``-0`` as +0, but zero
values are dropped and both zeros map to the same label.)

The writer (`serialize_libsvm`, `save_libsvm`) formats whole lines in
blocks of at most WRITE_BLOCK_ROWS rows, one row per line and one per
stored value: each index's digits and each value's repr() go into
NUL-padded fixed-width rows, and the NULs are dropped. A block's values
are spelled by one call of scipy's compiled Matrix Market writer, with
the shortest digits that read back to the same float (Ryu; Adams, PLDI
2018), which are the digits repr() writes. numpy lays those digits out
as repr() does, fixed notation for decimal exponents -4 to 15 and
``d.ddde+XX`` or ``d.ddde-XX`` otherwise, so the bytes are repr()'s. No per-value Python
object is made: `serialize_libsvm` holds about twice the text (the
blocks and their join) and `save_libsvm` one block.

Every file the package reads or writes goes through `read_text` and
`write_text`, whose errors name the path: a dataset or model file that
cannot be read, gunzipped or decoded raises DataError (exit 3), a config
file ConfigError (exit 2), and an output that cannot be written
DataError (exit 3). `write_text` takes the text whole or as an iterable
of str chunks, written in turn; `save_libsvm` passes its blocks.
"""

import gzip
import io
import itertools
import math
import os
import zlib
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from scipy.io._fast_matrix_market import _fmm_core  # scipy >= 1.12

from .errors import DataError, ParseError, ValidationError
from .rules import require, require_fields


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
        # a dense, COO or CSR X is stored as CSC; a csc_array is kept as is
        object.__setattr__(self, "X", sp.csc_array(self.X))
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


@dataclass(frozen=True)
class SplitSpec:
    """Seeded train/test split: train side gets round(fraction * N)
    instances. Both fields take the config's rules, as a DataError."""

    train_fraction: float
    seed: int = 0

    def __post_init__(self):
        require_fields(self, DataError)


def _map_label(raw, positive_label):
    if positive_label is not None:
        return 1 if raw == positive_label else -1
    return 1 if raw > 0 else -1


def parse_libsvm(source, n_features=None, positive_label=None) -> Dataset:
    """Parse LIBSVM-format text into a Dataset.

    `source` is a string, or a text file object or any other iterable of
    lines, which is parsed as its text: each element is one line, its
    trailing line ends dropped and any inner line end read as a space.
    `n_features` overrides the feature count upward so that files drawn
    from the same source (train/test) agree on the dimension; the final
    count is the larger of the override and the maximum index seen.
    Zero-valued entries are dropped.

    Text that keeps to the bulk grammar (module docstring) is parsed
    block-wise with numpy; anything else goes, whole, to the line loop.
    First `n_features` and `positive_label` take their config rules.
    """
    require("RunConfig.n_features_override", n_features, name="n_features")
    require("RunConfig.positive_label", positive_label)
    if not isinstance(source, str):
        source = "".join(line.rstrip("\n").replace("\n", " ") + "\n"
                         for line in source)
    raw_labels, data, indices, indptr, max_index = (_parse_bulk(source)
                                                    or _parse_lines(source))

    if raw_labels.size == 0:
        raise ParseError("empty input: no instances found")
    # degenerate all-empty instances still need one feature row
    m = max(max_index, n_features or 0, 1)
    x = sp.csc_array((data, indices, indptr), shape=(m, raw_labels.size))
    uniq, inverse = np.unique(raw_labels, return_inverse=True)
    mapped = [_map_label(raw, positive_label) for raw in uniq.tolist()]
    ds = Dataset(x, np.asarray(mapped, dtype=np.int64)[inverse])
    # both parsers refuse indices that do not strictly ascend, so X is
    # canonical; saying so spares each consumer scipy's O(nnz) check
    ds.X.has_canonical_format = True
    return ds


def _parse_lines(text):
    """The reference line loop over the lines of `text` (split after each
    line feed only), and the only source of parse errors.

    Returns (raw labels, data, 0-based indices, indptr, max index).
    """
    data, indices, indptr = [], [], [0]
    labels = []
    max_index = 0

    for line_no, raw_line in enumerate(io.StringIO(text), start=1):
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


BULK_BLOCK_CHARS = 1 << 20  # a block ends at the last line end before this
_MAX_INDEX_DIGITS = 15      # below 2**53, so every such index is exact

# the bulk alphabet's bytes as the reader gets them: ':' becomes a line end,
# tab and '\r' a space; any byte outside the alphabet becomes NUL
_TO_LINES = bytes(dict(zip(b"0123456789+-.eE \n:\t\r",
                           b"0123456789+-.eE \n\n  ")).get(byte, 0) for byte in range(256))
_MM_HEADER = b"%%MatrixMarket matrix array real general\n"


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
    body = raw.translate(_TO_LINES)
    if b"\0" in body:  # a byte outside the bulk alphabet
        return None
    b = np.frombuffer(raw, dtype=np.uint8)

    # tokens: runs of bytes above " ", the only whitespace left; a label
    # is the first token of its line
    in_token = np.zeros(b.size + 1, dtype=np.int8)
    np.greater(b, ord(" "), out=in_token[1:].view(bool))
    starts = np.flatnonzero(np.diff(in_token) == 1)
    if starts.size == 0:  # blank lines only
        return np.zeros(0), np.zeros(0), np.zeros(0, np.int64), np.zeros(0, np.int64), 0
    is_label = np.zeros(starts.size + 1, dtype=bool)  # the token after each line end
    is_label[np.searchsorted(starts, np.flatnonzero(b == ord("\n")))] = True
    is_label = is_label[:-1]
    is_label[0] = True
    is_entry = ~is_label

    # one ':' per entry, behind its first 1-15 bytes, which the digit loop
    # checks: so each entry holds exactly one, and no label holds any
    colons = np.flatnonzero(b == ord(":"))
    if colons.size != np.count_nonzero(is_entry):
        return None
    n_digits = colons - starts[is_entry]  # none makes index 0, refused below
    longest = int(n_digits.max(initial=0))
    if longest > _MAX_INDEX_DIGITS:
        return None

    # decode the index digits, last digit first
    index = np.zeros(colons.size, dtype=np.int64)
    for k in range(longest):
        has = n_digits > k
        digit = b[colons[has] - 1 - k] - np.uint8(ord("0"))  # wraps above 9 for a non-digit
        if (digit > 9).any():
            return None
        index[has] += digit.astype(np.int64) * 10 ** k
    entry_row = (np.cumsum(is_label) - 1)[is_entry]
    same_row = entry_row[1:] == entry_row[:-1]
    if index.size and (index.min() < 1 or (same_row & (index[1:] <= index[:-1])).any()):
        return None
    # the reader's buffer: its header, then the body, whose lines each hold
    # a label or value and then the next entry's index, and two line ends;
    # `lines` views it from the header's last line end on (byte i of the
    # block is byte i + 1 there)
    stream = io.BytesIO()
    stream.write(b"%s%d 1\n" % (_MM_HEADER, starts.size))
    head = stream.tell() - 1
    stream.write(body)
    stream.write(b"\n\n")
    del body  # the stream holds a copy; one block less at the block's peak
    lines = np.frombuffer(stream.getbuffer(), dtype=np.uint8)[head:]
    first = starts + 1  # where each label, and each value after its ':', starts
    first[is_entry] = colons + 2
    if not _spelled_as_floats(lines, first):
        return None

    numbers = _read_decimals(stream, starts.size)
    if numbers is None:
        return None
    labels, values = numbers[is_label], numbers[is_entry]
    if not np.isfinite(values).all():  # no label is NaN: the bytes hold no letter n
        return None

    keep = values != 0.0
    counts = np.bincount(entry_row[keep], minlength=labels.size)
    return labels, values[keep], index[keep] - 1, counts, int(index.max(initial=0))


def _is_digit(byte):
    return (byte - np.uint8(ord("0"))) < 10  # wraps below "0"


def _spelled_as_floats(lines, first):
    """Whether every number in `lines` is spelled as float() reads it,
    ``[+-]? (d+ .? d* | . d+) ([eE] [+-]? d+)?``; blanks each leading '+',
    which the reader refuses, to a space.

    `lines` holds numbers spelled from ``0-9 + - . e E``, number k from
    byte first[k] to the next space or line end, with a line end before
    the first number and two after the last. The reader reads a prefix of
    a misspelled number (``1e`` as 1, ``1.2.3`` as 1.2), so the spelling
    is checked here, at each sign, dot and e, and their neighbours; so
    every number also ends at a space or a line end.
    """
    at = np.flatnonzero(((lines - np.uint8(ord("+"))) < 4) | (lines > ord("9")))
    kind, before, after = lines[at], lines[at - 1], lines[at + 1]
    sign, dot, e = kind < ord("."), kind == ord("."), kind > ord("9")
    lead = before <= ord(" ")  # a space or a line end
    digit_before, digit_after = _is_digit(before), _is_digit(after)
    # a sign leads, before a digit or the dot, or follows an e, before a digit
    sign_ok = ((lead & (digit_after | (after == ord("."))))
               | ((before > ord("9")) & digit_after))
    # the dot has a digit on one side
    dot_ok = digit_before | digit_after
    # an e follows a digit or the dot, before a digit or a sign and a digit
    sign_after = (after - np.uint8(ord("+"))) < 3
    e_ok = ((digit_before | (before == ord(".")))
            & (digit_after | (sign_after & _is_digit(lines[at + 2]))))
    if not np.where(sign, sign_ok, np.where(dot, dot_ok, e_ok)).all():
        return False
    if (lines[first] <= ord(" ")).any():  # an empty value
        return False
    # at most one dot and one e per number, the dot first
    owner = np.searchsorted(first, at[~sign], side="right")
    is_e = e[~sign]
    if ((owner[1:] == owner[:-1]) & (is_e[:-1] | ~is_e[1:])).any():
        return False
    lines[at[lead & (kind == ord("+"))]] = ord(" ")
    return True


def _read_decimals(stream, n):
    """The `n` decimals of `stream`, read from its start by scipy's compiled
    Matrix Market reader (fast_float: correctly rounded, as float() is) on
    the calling thread; None if the reader refuses them.

    `stream` holds a Matrix Market array header for `n` numbers, then one
    number per line, read to the next space or line end; the rest of the
    line, leading spaces and lines that are empty or hold only spaces are
    skipped. It must end in a line end: the reader can crash on a last
    line that holds a space after its number and no line end.
    """
    stream.seek(0)
    out = np.zeros((n, 1))  # the reader adds into its output
    try:
        _fmm_core.read_body_array(_fmm_core.open_read_stream(stream, 1), out)
    except ValueError:
        return None
    return out[:, 0]


def read_text(path, error=DataError):
    """The text of the file at `path`, decoded as UTF-8 (universal
    newlines), gunzipped first when `path` ends in .gz. A file that cannot
    be read, decompressed or decoded raises `error` naming `path`."""
    opener = gzip.open if str(path).endswith(".gz") else open
    try:
        with opener(path, "rt", encoding="utf-8") as handle:
            return handle.read()
    except UnicodeDecodeError as exc:
        raise error(f"cannot read {path}: not UTF-8 text ({exc})") from exc
    except (OSError, EOFError, zlib.error) as exc:
        raise error(f"cannot read {path}: {exc}") from exc


def write_text(path, text):
    """Write `text`, a str or an iterable of str chunks written in turn,
    to `path` as UTF-8, gzipped when `path` ends in .gz, creating its
    directory first; a failure raises DataError naming `path`."""
    opener = gzip.open if str(path).endswith(".gz") else open
    try:
        os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
        with opener(path, "wt", encoding="utf-8") as handle:
            handle.writelines([text] if isinstance(text, str) else text)
    except OSError as exc:
        raise DataError(f"cannot write {path}: {exc}") from exc


def load_libsvm(path, n_features=None, positive_label=None) -> Dataset:
    """Read a LIBSVM file through `read_text` (a .gz file is gunzipped)
    and parse it as one string."""
    return parse_libsvm(read_text(path), n_features=n_features,
                        positive_label=positive_label)


def train_size(n_instances, fraction):
    """Half-up rounding of fraction * N, shared by split and its tests."""
    return int(math.floor(fraction * n_instances + 0.5))


def select_instances(ds: Dataset, indices) -> Dataset:
    """New Dataset holding the given instance columns, in the given order."""
    idx = np.asarray(indices, dtype=np.int64)
    if idx.size < 1:
        raise DataError("instance selection is empty")
    if idx.min() < 0 or idx.max() >= ds.n_instances:
        raise DataError(f"instance index out of range 0..{ds.n_instances - 1}")
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


WRITE_BLOCK_ROWS = 1 << 12  # a written block: one row per line and per stored value
_REPR_WIDTH = 24            # the longest float repr, e.g. -2.2250738585072014e-308,
                            # and the longest compiled spelling, -2.2250738585072014E-308
_GATHER_ROWS = 1 << 9       # values gathered at once, which bounds the gather's index


def serialize_libsvm(ds: Dataset) -> str:
    """Inverse of parse_libsvm: exact decimal encoding, ascending indices.

    Values are written as repr() writes them: their digits come from
    scipy's compiled writer (module docstring), and their shortest
    round-trip decimal form guarantees parse(serialize(ds)) reproduces
    every float bit-exactly.
    A matrix that is not in scipy's canonical form (unsorted or duplicate
    indices in an instance) is written as its canonical copy: sorted,
    duplicates summed. Stored zeros are written (``i:0.0``). A non-finite
    value, which the parser refuses, raises DataError naming the first
    instance that holds one, before any text is formatted.

    The blocks of `_text_blocks` are joined once, so the peak memory is
    about twice the text.
    """
    return "".join(_text_blocks(ds))


def save_libsvm(ds: Dataset, path):
    """Write `serialize_libsvm(ds)` to `path` through `write_text`, one
    block at a time, so the whole text is never held. A dataset that
    cannot be written raises DataError before the file is opened."""
    write_text(path, _text_blocks(ds))


def _text_blocks(ds):
    """The LIBSVM text of `ds` as a generator of blocks of whole lines,
    each at most WRITE_BLOCK_ROWS rows (one per line and one per stored
    value) unless one line alone has more. The canonical form and the
    finite check are done here, before the first block."""
    x = _canonical_form(ds.X)
    data = x.data.astype(np.float64, copy=False)
    # a NaN or an infinity shows in the extremes, with no mask to allocate
    if not np.isfinite([data.min(initial=0.0), data.max(initial=0.0)]).all():
        bad = int(np.argmin(np.isfinite(data)))
        k = int(np.searchsorted(x.indptr, bad, side="right")) - 1
        raise DataError(f"instance {k} (line {k + 1}) holds the non-finite value "
                        f"{float(data[bad])!r} at index {x.indices[bad] + 1}; "
                        "LIBSVM text cannot hold it")
    indptr = x.indptr.astype(np.int64)
    rows_before = indptr + np.arange(indptr.size)  # rows before each line
    cuts = [0]
    while cuts[-1] < ds.n_instances:
        a = cuts[-1]
        b = int(np.searchsorted(rows_before, rows_before[a] + WRITE_BLOCK_ROWS,
                                side="right")) - 1
        cuts.append(max(b, a + 1))
    return (_format_lines(ds.y[a:b], np.diff(indptr[a:b + 1]),
                          x.indices[indptr[a]:indptr[b]], data[indptr[a]:indptr[b]])
            for a, b in zip(cuts, cuts[1:]))


def _format_lines(labels, counts, indices, values):
    """The text of whole lines: line k holds `labels[k]` and the next
    `counts[k]` (index, value) pairs. Every line and every pair is one
    fixed-width row of bytes, NUL-padded, and the NULs are dropped."""
    value_bytes = _repr_bytes(values)
    prefixes = _index_prefixes(indices)
    p = prefixes.shape[1]
    rows = np.zeros((counts.size + values.size, p + _REPR_WIDTH + 1), dtype=np.uint8)
    ends = np.cumsum(counts) + np.arange(counts.size)  # each line's last row
    starts = ends - counts
    rows[starts, 0] = np.where(labels > 0, ord("+"), ord("-"))
    rows[starts, 1] = ord("1")
    pairs = np.arange(values.size) + np.repeat(np.arange(1, counts.size + 1), counts)
    rows[pairs, :p] = prefixes
    rows[pairs, p:-1] = value_bytes
    rows[ends, -1] = ord("\n")
    flat = rows.ravel()
    return flat[flat != 0].tobytes().decode("ascii")


_CONSTANTS = b"0.e+\0"  # bytes of a repr that its spelling lacks, in columns after it
_ZERO, _DOT, _E, _PLUS, _NUL = range(_REPR_WIDTH, _REPR_WIDTH + len(_CONSTANTS))
_MAX_DIGITS = 17            # the most shortest round-trip digits a float64 needs
_FIXED = range(-4, 16)      # the exponents repr() writes in fixed notation
_CLASSES = len(_FIXED) + 6  # and the other exponents' sign and digit count


def _repr_column_maps():
    """int8 maps[neg, digits - 1, exponent class]: for each of the
    _REPR_WIDTH bytes of repr(), the column of the compiled spelling
    (`_spellings`), or of _CONSTANTS after it, that it copies.

    The class of a fixed-notation exponent x is x + 4; any other exponent
    is written with at least two digits, copied from the spelling, and its
    class is 20 + 3 * (x < 0) + its digit count - 1.
    """
    maps = np.full((2, _MAX_DIGITS, _CLASSES, _REPR_WIDTH), _NUL, dtype=np.int8)
    for neg, n, cls in itertools.product(range(2), range(1, _MAX_DIGITS + 1), range(_CLASSES)):
        digit_cols = [neg, *range(neg + 2, neg + n + 1)]  # skipping the dot after the first
        out = [0] * neg  # the sign
        if cls < len(_FIXED):
            x = _FIXED[cls]
            if x < 0:
                out += [_ZERO, _DOT] + [_ZERO] * (-1 - x) + digit_cols
            elif x + 1 < n:
                out += digit_cols[:x + 1] + [_DOT] + digit_cols[x + 1:]
            else:
                out += digit_cols + [_ZERO] * (x + 1 - n) + [_DOT, _ZERO]
        else:
            x_neg, more = divmod(cls - len(_FIXED), 3)  # more: exponent digits - 1
            e_at = neg + n + (n > 1)
            out += digit_cols[:1] + ([_DOT] + digit_cols[1:] if n > 1 else [])
            out += [_E, e_at + 1 if x_neg else _PLUS] + [_ZERO] * (more == 0)
            out += range(e_at + 1 + x_neg, e_at + 2 + x_neg + more)
        maps[neg, n - 1, cls, :len(out)] = out
    return maps


_REPR_COLUMNS = _repr_column_maps().reshape(-1, _REPR_WIDTH)


def _repr_bytes(values):
    """repr() of each float64 in `values`, one NUL-padded row of
    _REPR_WIDTH bytes each, gathered from the value's compiled spelling
    (`_spellings`) through the column map of its sign, digit count and
    exponent class (`_repr_column_maps`), _GATHER_ROWS values at a time.
    An empty `values` makes no compiled call."""
    if not values.size:
        return np.empty((0, _REPR_WIDTH), dtype=np.uint8)
    source, key = _spellings(values)
    flat = source.ravel()
    out = np.empty((values.size, _REPR_WIDTH), dtype=np.uint8)
    for a in range(0, values.size, _GATHER_ROWS):
        columns = _REPR_COLUMNS.take(key[a:a + _GATHER_ROWS], axis=0)
        rows = np.arange(a, a + len(columns)) * source.shape[1]
        np.take(flat, columns + rows[:, None], out=out[a:a + len(columns)])
    return out


def _spellings(values):
    """Each value's spelling by scipy's compiled Matrix Market writer, one
    row of _REPR_WIDTH bytes and then _CONSTANTS, and the index of its
    column map in _REPR_COLUMNS.

    The writer (precision -1: shortest round-trip digits, as repr() has
    them; one thread) spells a value ``[-]d[.ddd][E[-]x]``, its digits
    times ten to the x, with no E when x is 0.
    """
    n = values.size
    stream = io.BytesIO()
    _fmm_core.write_body_array(_fmm_core.open_write_stream(stream, _fmm_core.header(), 1, -1),
                               values.reshape(-1, 1))
    stream.write(bytes(_REPR_WIDTH))  # so each spelling's window lies in the buffer
    text = np.frombuffer(stream.getbuffer(), dtype=np.uint8)
    line_ends = np.flatnonzero(text == ord("\n"))[-n - 1:]  # the header's last, then the values'
    first, ends = line_ends[:-1] + 1, line_ends[1:]
    source = np.empty((n, _REPR_WIDTH + len(_CONSTANTS)), dtype=np.uint8)
    source[:, :_REPR_WIDTH] = np.lib.stride_tricks.sliding_window_view(text, _REPR_WIDTH)[first]
    source[:, _REPR_WIDTH:] = np.frombuffer(_CONSTANTS, dtype=np.uint8)
    neg = source[:, 0] == ord("-")

    # the exponent of each spelling with an E: its sign, digit count and,
    # up to two digits, all that fixed notation needs, its value
    e_at = np.flatnonzero(text[first[0]:] == ord("E")) + first[0]
    e_line = np.searchsorted(ends, e_at)
    after_e = ends[e_line] - e_at - 1
    x_neg = text[e_at + 1] == ord("-")
    x_digits = after_e - x_neg
    last = e_at + after_e
    x = text[last] % 16 + np.where(x_digits > 1, text[last - 1] % 16 * 10, 0)  # ASCII digits
    x = np.where(x_neg, -x.astype(np.int64), x)
    fixed = (x_digits < 3) & (x >= _FIXED[0]) & (x <= _FIXED[-1])
    cls = np.full(n, -_FIXED[0])  # no E: the exponent is 0
    cls[e_line] = np.where(fixed, x - _FIXED[0], len(_FIXED) + 3 * x_neg + x_digits - 1)

    digits = ends - first - neg  # then less the dot and the exponent
    digits[e_line] -= after_e + 1
    digits -= digits > 1
    return source, (neg * _MAX_DIGITS + digits - 1) * _CLASSES + cls


def _index_prefixes(indices):
    """`" <i + 1>:"` for each 0-based index i, one fixed-width row each,
    the digits right-aligned behind NULs."""
    rest = indices.astype(np.int64) + 1
    digits = len(str(int(rest.max(initial=1))))
    out = np.zeros((rest.size, digits + 2), dtype=np.uint8)
    out[:, 0], out[:, -1] = ord(" "), ord(":")
    for col in range(digits, 0, -1):
        out[:, col] = np.where(rest > 0, rest % 10 + ord("0"), 0)
        rest //= 10
    return out


def _canonical_form(x):
    """The sparse matrix `x` in scipy's canonical form (indices sorted and
    duplicates summed in each instance): `x` itself when it already is,
    else a canonical copy."""
    if x.has_canonical_format:
        return x
    x = x.copy()
    x.sum_duplicates()
    return x


def fit_max_abs_scale(ds: Dataset):
    """The per-feature max-abs scale of `ds`: each feature's largest
    absolute value, and 1 for an all-zero feature. Duplicate stored
    entries are summed first, so the value is the one the matrix holds."""
    x = _canonical_form(ds.X)
    peak = np.zeros(ds.n_features)
    np.maximum.at(peak, x.indices, np.abs(x.data))  # no copy of a canonical matrix
    return np.where(peak > 0, peak, 1.0)


def max_abs_scale(ds: Dataset):
    """Per-feature max-abs scaler fitted on `ds`.

    Returns (scaled dataset, `fit_max_abs_scale` vector). Apply the same
    vector to held-out data with `apply_feature_scale`.
    """
    scale = fit_max_abs_scale(ds)
    return apply_feature_scale(ds, scale), scale


def apply_feature_scale(ds: Dataset, scale) -> Dataset:
    """Divide feature row i of `ds` by scale[i] (`divide_feature_rows`)."""
    scale = np.asarray(scale, dtype=np.float64)
    if scale.shape != (ds.n_features,):
        raise DataError(f"scale vector length {scale.shape} != {ds.n_features} features")
    return Dataset(divide_feature_rows(ds.X, scale), ds.y)


def divide_feature_rows(x, scale):
    """x (features x instances, sparse or dense) with row i divided by
    scale[i]: one multiply per stored entry by the reciprocal, so a column
    gets the same bits either way. Sparse x comes back as CSC on its own
    sparsity pattern (the index arrays of a CSC x are shared, not
    copied)."""
    inverse = 1.0 / scale
    if not sp.issparse(x):
        return x * inverse[:, None]
    x = sp.csc_array(x)
    return sp.csc_array((x.data * inverse[x.indices], x.indices, x.indptr),
                        shape=x.shape)
