import ast
import gzip
import hashlib
import io
import itertools
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp

from featdc import dataio
from featdc.dataio import (Dataset, SplitSpec, apply_feature_scale,
                           fit_max_abs_scale, load_libsvm, max_abs_scale,
                           parse_libsvm, save_libsvm, select_instances,
                           serialize_libsvm, split, train_size)
from featdc.datasets import make_quadratic_band, make_sparse_planted
from featdc.errors import DataError, ParseError, ValidationError
from test_acceptance import MALFORMED as CRITERION_7_MALFORMED


def random_dataset(rng, m=None, n=None, density=0.3):
    m = m or int(rng.integers(1, 51))
    n = n or int(rng.integers(1, 101))
    x = sp.random_array((m, n), density=density, rng=rng, format="csc")
    y = np.where(rng.random(n) < 0.5, 1, -1).astype(np.int64)
    return Dataset(sp.csc_array(x), y)


def datasets_equal(a, b):
    if a.n_features != b.n_features or a.n_instances != b.n_instances:
        return False
    if not np.array_equal(a.y, b.y):
        return False
    da, db = sp.csc_array(a.X), sp.csc_array(b.X)
    da.sort_indices(), db.sort_indices()
    return (np.array_equal(da.indptr, db.indptr)
            and np.array_equal(da.indices, db.indices)
            and np.array_equal(da.data, db.data))


def test_parse_basic_example():
    ds = parse_libsvm("+1 3:0.5 7:1.2\n-1 1:2.0")
    assert ds.n_features == 7
    assert ds.n_instances == 2
    assert np.array_equal(ds.y, [1, -1])
    x = ds.X
    lo, hi = x.indptr[0], x.indptr[1]
    idx0, val0 = x.indices[lo:hi], x.data[lo:hi]
    assert np.array_equal(idx0, [2, 6])  # 0-based internally
    assert np.allclose(val0, [0.5, 1.2])


def test_parse_is_order_preserving():
    lines = ["+1 1:1.0", "-1 2:2.0", "+1 3:3.0"]
    ds = parse_libsvm("\n".join(lines))
    x = ds.X
    for k in range(3):
        lo, hi = x.indptr[k], x.indptr[k + 1]
        idx, val = x.indices[lo:hi], x.data[lo:hi]
        assert idx[0] == k
        assert val[0] == float(k + 1)


def test_parse_rejects_nonascending_indices():
    with pytest.raises(ValidationError):
        parse_libsvm("1 2:1 1:1")


MALFORMED = [
    ("", ParseError),                        # empty file
    ("\n   \n", ParseError),                 # only blank lines
    ("abc 1:1.0", ParseError),               # unreadable label
    ("nan 1:1.0", ParseError),               # non-finite label token
    ("+1 3-0.5", ParseError),                # token without colon
    ("+1 x:1.0", ParseError),                # unreadable index
    ("+1 2:zz", ParseError),                 # unreadable value
    ("+1 0:1.0", ValidationError),           # index below 1
    ("+1 2:1.0 2:2.0", ValidationError),     # duplicate index
    ("+1 1:inf", ValidationError),           # non-finite value
]


def test_parse_rejects_malformed_inputs_with_documented_classes():
    for text, err in MALFORMED:
        with pytest.raises(err):
            parse_libsvm(text)


def test_parse_error_messages_carry_line_numbers():
    with pytest.raises(ParseError, match="line 2"):
        parse_libsvm("+1 1:1.0\n+1 bad")
    with pytest.raises(ValidationError, match="line 3"):
        parse_libsvm("+1 1:1.0\n-1 2:1.0\n+1 0:1.0")


def test_parse_drops_zero_values():
    ds = parse_libsvm("+1 1:0.0 2:1.0")
    x = ds.X
    lo, hi = x.indptr[0], x.indptr[1]
    idx, val = x.indices[lo:hi], x.data[lo:hi]
    assert np.array_equal(idx, [1])
    assert np.array_equal(val, [1.0])


def test_label_mapping_sign_rule_and_pinning():
    ds = parse_libsvm("2 1:1\n1 1:1\n0 1:1\n-3 1:1")
    assert np.array_equal(ds.y, [1, 1, -1, -1])
    # pin raw value 1 to +1: everything else goes negative
    ds = parse_libsvm("2 1:1\n1 1:1", positive_label=1)
    assert np.array_equal(ds.y, [-1, 1])


def test_n_features_override_is_max_rule():
    ds = parse_libsvm("+1 3:1.0", n_features=10)
    assert ds.n_features == 10
    ds = parse_libsvm("+1 3:1.0", n_features=2)
    assert ds.n_features == 3


def test_roundtrip_property_random_datasets():
    rng = np.random.default_rng(0)
    for trial in range(60):
        ds = random_dataset(rng)
        back = parse_libsvm(serialize_libsvm(ds), n_features=ds.n_features)
        assert datasets_equal(ds, back)


def test_roundtrip_awkward_values():
    x = sp.csc_array(np.array([[1e-308, 0.1 + 0.2], [-1.5e300, 1e-17]]))
    ds = Dataset(x, np.array([1, -1]))
    back = parse_libsvm(serialize_libsvm(ds), n_features=2)
    assert datasets_equal(ds, back)


def test_serialize_empty_feature_instance():
    x = sp.csc_array(np.array([[1.0, 0.0]]))
    ds = Dataset(x, np.array([1, -1]))
    text = serialize_libsvm(ds)
    assert text.splitlines()[1] == "-1"
    assert datasets_equal(ds, parse_libsvm(text, n_features=1))


def test_split_sizes_and_determinism():
    rng = np.random.default_rng(1)
    ds = random_dataset(rng, m=5, n=10)
    spec = SplitSpec(train_fraction=0.8, seed=7)
    a1, b1 = split(ds, spec)
    assert (a1.n_instances, b1.n_instances) == (8, 2)
    a2, b2 = split(ds, spec)
    assert datasets_equal(a1, a2) and datasets_equal(b1, b2)


def test_split_sizes_match_benchmark_counts():
    # round-half-up of fraction * N at benchmark sizes
    assert train_size(581012, 0.8) == 464810
    assert 581012 - train_size(581012, 0.8) == 116202
    assert train_size(10, 0.8) == 8


def test_split_is_partition():
    rng = np.random.default_rng(2)
    for trial in range(20):
        ds = random_dataset(rng, n=int(rng.integers(2, 60)))
        frac = float(rng.uniform(0.2, 0.8))
        try:
            tr, te = split(ds, SplitSpec(train_fraction=frac, seed=trial))
        except DataError:
            continue  # rounding left one side empty at tiny N
        assert tr.n_instances + te.n_instances == ds.n_instances
        # column multisets must form a disjoint cover of the original
        dense = ds.X.toarray()
        merged = np.concatenate([tr.X.toarray(), te.X.toarray()], axis=1)
        assert np.array_equal(np.sort(dense, axis=1), np.sort(merged, axis=1))


def test_split_rejects_empty_side():
    rng = np.random.default_rng(3)
    ds = random_dataset(rng, m=3, n=3)
    with pytest.raises(DataError):
        split(ds, SplitSpec(train_fraction=0.01, seed=0))


def test_split_spec_validates_fraction():
    with pytest.raises(DataError):
        SplitSpec(train_fraction=1.0, seed=0)
    with pytest.raises(DataError):
        SplitSpec(train_fraction=0.0, seed=0)


def test_gzip_roundtrip(tmp_path):
    rng = np.random.default_rng(4)
    ds = random_dataset(rng)
    path = tmp_path / "data.libsvm.gz"
    save_libsvm(ds, str(path))
    with gzip.open(path, "rt") as fh:
        assert fh.read() == serialize_libsvm(ds)
    back = load_libsvm(str(path), n_features=ds.n_features)
    assert datasets_equal(ds, back)


def test_load_missing_file_is_data_error(tmp_path):
    with pytest.raises(DataError):
        load_libsvm(str(tmp_path / "nope.libsvm"))


def test_max_abs_scale():
    x = sp.csc_array(np.array([[2.0, -4.0], [0.0, 0.0], [1.0, 0.5]]))
    ds = Dataset(x, np.array([1, -1]))
    scaled, scale = max_abs_scale(ds)
    assert np.allclose(scale, [4.0, 1.0, 1.0])
    assert np.array_equal(fit_max_abs_scale(ds), scale)
    assert np.abs(scaled.X.toarray()).max() <= 1.0
    # zero feature row stays zero and untouched
    assert np.array_equal(scaled.X.toarray()[1], [0.0, 0.0])
    # same map applies to held-out data
    held = apply_feature_scale(ds, scale)
    assert np.allclose(held.X.toarray(), scaled.X.toarray())
    with pytest.raises(DataError):
        apply_feature_scale(ds, np.ones(2))


def test_fit_max_abs_scale_reads_the_stored_values():
    rng = np.random.default_rng(23)
    for trial in range(20):
        x = random_dataset(rng, density=0.3).X.toarray()
        x[x != 0] -= 0.5  # negative values too
        x[int(rng.integers(x.shape[0]))] = 0.0  # an all-zero feature
        peak = np.abs(x).max(axis=1)
        want = np.where(peak > 0, peak, 1.0)
        got = fit_max_abs_scale(Dataset(sp.csc_array(x), np.ones(x.shape[1])))
        assert got.tobytes() == want.tobytes()


def test_fit_max_abs_scale_sums_duplicate_entries():
    # feature 1 holds 1 + 1 = 2, stored as two entries
    x = sp.csc_array(([1., 1., 3.], [0, 0, 1], [0, 3]), shape=(2, 1))
    ds = Dataset(x, np.array([1]))
    scaled, scale = max_abs_scale(ds)
    assert np.array_equal(scale, [2.0, 3.0])
    assert np.array_equal(scaled.X.toarray(), [[1.0], [1.0]])
    assert np.array_equal(ds.X.indices, [0, 0, 1])  # not mutated


def test_fit_max_abs_scale_copies_only_a_non_canonical_matrix(monkeypatch):
    ds = make_sparse_planted(50, n_features=300, n_signal=20, seed=14)
    assert ds.X.has_canonical_format
    want = fit_max_abs_scale(ds)

    def no_copy(*args, **kwargs):
        raise AssertionError("a canonical matrix was copied")

    monkeypatch.setattr(sp.csc_array, "copy", no_copy)
    monkeypatch.setattr(sp.csc_array, "sum_duplicates", no_copy)
    assert fit_max_abs_scale(ds).tobytes() == want.tobytes()


def test_parsed_matrix_is_marked_canonical(monkeypatch):
    text = serialize_libsvm(make_sparse_planted(80, n_features=300,
                                                n_signal=20, seed=15))
    unmarked = fit_max_abs_scale(Dataset(parse_libsvm(text).X.copy(),
                                         np.ones(80)))
    scans = []
    monkeypatch.setattr("scipy.sparse._compressed.csr_has_canonical_format",
                        lambda *args: scans.append(args) or True)
    ds = parse_libsvm(text)
    assert ds.X.has_canonical_format and not scans
    assert fit_max_abs_scale(ds).tobytes() == unmarked.tobytes()
    assert not scans
    monkeypatch.setattr(dataio, "_parse_bulk", lambda text: None)
    assert parse_libsvm(text).X.has_canonical_format and not scans  # line loop


@pytest.mark.parametrize("form", [np.asarray, sp.coo_array, sp.csr_array,
                                  sp.csc_matrix])
def test_dataset_stores_any_matrix_as_csc(tmp_path, form):
    x = np.array([[1.0, 0.0, -2.5], [0.0, 0.0, 3.0]])
    ds = Dataset(form(x), np.array([1, -1, 1]))
    assert type(ds.X) is sp.csc_array
    assert np.array_equal(ds.X.toarray(), x)
    save_libsvm(ds, tmp_path / "d.libsvm")
    back = load_libsvm(tmp_path / "d.libsvm", n_features=2)
    assert np.array_equal(back.X.toarray(), x)
    assert np.array_equal(back.y, ds.y)
    ones = Dataset(np.ones((3, 2)), np.array([1, -1]))
    save_libsvm(ones, tmp_path / "ones.libsvm")
    assert (tmp_path / "ones.libsvm").read_text() == ("+1 1:1.0 2:1.0 3:1.0\n"
                                                      "-1 1:1.0 2:1.0 3:1.0\n")
    scale = fit_max_abs_scale(Dataset(form(x), ds.y))
    assert np.array_equal(scale, [2.5, 3.0])


def test_dataset_keeps_a_csc_array_uncopied():
    x = sp.csc_array(np.array([[1.0, 0.0], [0.0, 2.0]]))
    ds = Dataset(x, np.array([1, -1]))
    assert np.shares_memory(ds.X.data, x.data)
    assert np.shares_memory(ds.X.indices, x.indices)


def test_apply_feature_scale_matches_diagonal_product():
    # one multiply per stored entry, as diag(1/scale) @ X does, so the
    # scaled data has the same bits and the same sparsity pattern
    rng = np.random.default_rng(21)
    for trial in range(30):
        ds = random_dataset(rng, density=0.4)
        x = ds.X.toarray()
        x[int(rng.integers(ds.n_features))] = 0.0  # an all-zero feature
        ds = Dataset(sp.csc_array(x), ds.y)
        peak = np.abs(x).max(axis=1)
        scale = np.where(peak > 0, peak * rng.uniform(1.0, 3.0), 1.0)
        scaled = apply_feature_scale(ds, scale)
        want = sp.csc_array(sp.diags_array(1.0 / scale) @ ds.X)
        want.sort_indices()
        assert np.array_equal(scaled.X.indptr, want.indptr)
        assert np.array_equal(scaled.X.indices, want.indices)
        assert scaled.X.data.tobytes() == want.data.tobytes()
        assert np.array_equal(scaled.y, ds.y)


def test_select_instances():
    rng = np.random.default_rng(5)
    ds = random_dataset(rng, m=4, n=8)
    sub = select_instances(ds, [6, 1, 3])
    assert sub.n_instances == 3
    assert np.array_equal(sub.X.toarray(), ds.X.toarray()[:, [6, 1, 3]])
    assert np.array_equal(sub.y, ds.y[[6, 1, 3]])
    with pytest.raises(DataError):
        select_instances(ds, [8])
    with pytest.raises(DataError):
        select_instances(ds, [])


def test_dataset_invariants():
    x = sp.csc_array(np.eye(2))
    with pytest.raises(DataError):
        Dataset(x, np.array([1, 2]))  # labels not in {-1, +1}
    with pytest.raises(DataError):
        Dataset(x, np.array([1]))  # length mismatch


# ---------------------------------------------------------------------------
# bulk parser against the line loop

# Python's float()/int() and numpy's reader disagree on these, or the text
# breaks the bulk grammar: each one must go to the line loop.
LOOP_ONLY = [
    "+1 1:1_0\n", "+1 1:0x10\n", "+1 1:nan\n", "+1 1:inf\n", "+1 1:1e400\n",
    "nan 1:1\n", "inf 1:1\n",
    "+1 1e3:1\n", "+1 1.0:1\n", "+1 +5:1\n", "+1 1234567890123456:1\n",
    "+1 1:2:3 4\n", "+1:3 2:1\n", "+1 1: 2:1\n", "+1 1:1-2\n", "+1 :1\n",
    "+1 1:1\x0c2:1\n", "+1 1:1\x1c2:1\n", "+1 1:1\x852:1\n", "\u0661 1:1\n",
    "+1 \u0661:1\n",
    "+1 1:1\x00 2:1\n", "\x00+1 1:1\n", "+1 1:1\x0b2:1\n", "+1 1:+ 2:1\n", "\x01\n",
    "\n \x00 \n",
]
# float() refuses these, and the compiled reader would read a prefix of
# some of them (1e as 1, 1.2.3 as 1.2): each as a label and as a value
PREFIX_TRAPS = ["1e", "1.2.3", "1e5e3", "1e5.3", "+-1", "-.e5", "1e+.5", ".", "-",
                "1+", "e5"]
LOOP_ONLY += [f"{s} 1:1\n" for s in PREFIX_TRAPS] + [f"+1 1:{s}\n" for s in PREFIX_TRAPS]

# the bulk path must take each of these
BULK = [
    "+1\t1:0.5\t3:2\n-1 2:1\n",
    "+1 1:0.5\r\n-1 2:1\r\n",
    "\n+1 1:1\n\n   \n\t\n-1 2:1\n\n",
    "+1\n-1 1:2\n+1   \n",
    "+1 1:0 2:0.0 3:1\n-1 1:-0.0 2:0e5\n",
    "+1 1:5e-324 2:-0.0 3:1.7976931348623157e+308 4:2.2250738585072014e-308 "
    "5:0.1 6:0.3333333333333333 7:0.30000000000000004\n",
    "+1 007:1. 8:.5 9:-1E-3 10:+2e+2\n2.5 1:1\n-0.0 1:1\n1e400 1:1\n",
    "-1 1:1\n+1 2:2",
    "1.e5 1:1.e5 2:+.5 3:-.5e-3 4:+1e+2 5:0e0\n+.5 1:1\n-.5e-3 1:1\n+1e+2 1:1\n0e0 1:1\n",
    "  +1  1:+5\t \t2:-7  \r\n\t-1\t3:+1.5e+3 \n \n+2\t\r\n",
    "+1 1:1 2:+2 3:3e3 4:+4.\n-1 999999999999999:+.5\n",
    "+1 1:1\r2:1\n-1 1:1\n", "+1 1:1\r",  # a bare '\r' is a space
]


def outcome(parse):
    """The exception class and message, or the exact bits of the result."""
    try:
        ds = parse()
    except DataError as exc:
        return type(exc), str(exc)
    x = ds.X
    return (x.shape, x.data.dtype, x.data.tobytes(), x.indices.dtype,
            x.indices.tobytes(), x.indptr.dtype, x.indptr.tobytes(),
            ds.y.dtype, ds.y.tobytes())


def write_text(path, text):
    opener = gzip.open if str(path).endswith(".gz") else open
    with opener(path, "wt", encoding="utf-8", newline="") as handle:
        handle.write(text)


def assert_same_as_loop(monkeypatch, tmp_path, text):
    def loop(parse):
        with monkeypatch.context() as m:
            m.setattr(dataio, "_parse_bulk", lambda text: None)
            return outcome(parse)

    lines = text.splitlines(True)
    assert outcome(lambda: parse_libsvm(text)) == loop(lambda: parse_libsvm(text))
    assert outcome(lambda: parse_libsvm(lines)) == loop(lambda: parse_libsvm(lines))
    for name in ("data.libsvm", "data.libsvm.gz"):
        path = tmp_path / name
        write_text(path, text)
        opener = gzip.open if name.endswith(".gz") else open
        with opener(path, "rt", encoding="utf-8") as handle:  # the loop as load_libsvm ran it
            want = loop(lambda: parse_libsvm(handle))
        assert outcome(lambda: load_libsvm(path)) == want, (text, name)


def test_bulk_path_matches_loop_on_malformed_tables(monkeypatch, tmp_path):
    for text, _ in CRITERION_7_MALFORMED + MALFORMED:
        assert_same_as_loop(monkeypatch, tmp_path, text)


def test_bulk_path_leaves_disagreements_to_the_loop(monkeypatch, tmp_path):
    for text in LOOP_ONLY:
        assert dataio._parse_bulk(text) is None, text
        assert_same_as_loop(monkeypatch, tmp_path, text)


def test_bulk_path_matches_loop_on_accepted_inputs(monkeypatch, tmp_path):
    for text in BULK:
        assert_same_as_loop(monkeypatch, tmp_path, text)


def test_bulk_path_matches_loop_on_random_numerals(monkeypatch, tmp_path):
    # numerals spelled from the bulk alphabet: numpy and float() must read
    # each one alike, or numpy must refuse it
    rng = np.random.default_rng(11)
    alphabet = np.array(list("0123456789+-.eE"))
    numerals = ["".join(rng.choice(alphabet, size=int(rng.integers(1, 7))))
                for _ in range(400)]
    text = "".join(f"{a} 2:{b}\n" for a, b in zip(numerals[::2], numerals[1::2]))
    for line in text.splitlines(True):
        assert_same_as_loop(monkeypatch, tmp_path, line)


def test_bulk_path_matches_loop_on_random_lines(monkeypatch):
    # lines of up to four random numerals of 1-10 bytes from the bulk
    # alphabet: each line is refused by the bulk path, or gives the loop's
    # exact bits and errors
    rng = np.random.default_rng(28)
    alphabet = np.frombuffer(b"0123456789+-.eE", dtype=np.uint8)
    sizes = rng.integers(1, 11, size=4 * 5000).tolist()
    chars = alphabet[rng.integers(0, alphabet.size, size=sum(sizes))].tobytes().decode()
    ends = np.cumsum(sizes).tolist()
    numerals = [chars[end - size:end] for size, end in zip(sizes, ends)]
    accepted = 0
    for k, n_entries in enumerate(rng.integers(0, 4, size=5000).tolist()):
        label, *values = numerals[4 * k:4 * k + 1 + n_entries]
        line = label + "".join(f" {j}:{v}" for j, v in enumerate(values, start=1)) + "\n"
        if dataio._parse_bulk(line) is None:
            continue
        accepted += 1
        with monkeypatch.context() as m:
            m.setattr(dataio, "_parse_bulk", lambda text: None)
            want = outcome(lambda: parse_libsvm(line))
        assert outcome(lambda: parse_libsvm(line)) == want, line
    assert accepted > 400


def test_spelling_check_accepts_what_float_reads():
    # every spelling of 0-5 bytes: the reader reads a prefix of some that
    # float() refuses, and refuses others itself, so the check stands alone;
    # each alone on its line, and as the reader's buffer lays a value out:
    # a space and the next entry's index behind it
    for size in range(6):
        for spelling in map(bytes, itertools.product(b"1+-.eE", repeat=size)):
            try:
                float(spelling)
            except ValueError:
                want = False
            else:
                want = True
            for rest in (b"", b" 12"):
                lines = np.frombuffer(bytearray(b"\n%s%s\n\n" % (spelling, rest)),
                                      dtype=np.uint8)
                assert dataio._spelled_as_floats(lines, np.array([1])) == want, (spelling, rest)
                if want:  # only a leading '+' is blanked, to a space
                    assert lines[1:-2].tobytes() == (spelling.removeprefix(b"+").rjust(size)
                                                     + rest)


def random_layout(rng, rows):
    """A LIBSVM text of `rows` lines whose whitespace is drawn at random:
    tabs, '\\r\\n', runs of spaces, leading and trailing spaces, blank and
    space-only lines, '+' on labels and values, now and then a bare '\\r',
    which reads as a space, and now and then an empty value, which the
    bulk path must refuse."""
    gaps = [" ", "  ", "\t", " \t", "\t  ", "   "]
    edges = ["", "", " ", "\t", "  \t"]
    ends = ["\n", "\n", "\r\n", " \n", "\t\r\n", "\n\n", "\n \n", "\n\t \n", "\r\n  \r\n"]
    numbers = ["1", "-1", "0", "-0.0", "2.5", ".5", "5.", "1e3", "1E-3", "-.5e+2", "0.1",
               "1.7976931348623157e308", "5e-324", "123456789.125"]

    def pick(options):
        return options[int(rng.integers(len(options)))]

    def signed():
        number = pick(numbers)
        return "+" + number if number[0] != "-" and rng.random() < 0.3 else number

    text = []
    for _ in range(rows):
        k = int(rng.integers(0, 5))
        indices = np.sort(rng.choice(np.arange(1, 40), size=k, replace=False)).tolist()
        entries = [f"{j}:{signed()}" for j in indices]
        if entries and rng.random() < 0.02:
            entries[-1] = entries[-1].split(":")[0] + ":"
        parts = [pick(edges), signed()]
        for entry in entries:
            parts += [pick(gaps), entry]
        parts += [pick(edges), "\r" if rng.random() < 0.01 else "", pick(ends)]
        text.append("".join(parts))
    text = "".join(text)
    return text if rng.random() < 0.8 else text.rstrip("\r\n")


def test_bulk_path_matches_loop_on_random_layouts(monkeypatch):
    # each text is refused by the bulk path, or gives the loop's exact bits
    rng = np.random.default_rng(31)
    accepted = 0
    for _ in range(1500):
        text = random_layout(rng, int(rng.integers(1, 5)))
        if dataio._parse_bulk(text) is None:
            continue
        accepted += 1
        with monkeypatch.context() as m:
            m.setattr(dataio, "_parse_bulk", lambda text: None)
            want = outcome(lambda: parse_libsvm(text))
        assert outcome(lambda: parse_libsvm(text)) == want, text
    assert accepted > 1000


def read_decimals(body, n):
    stream = io.BytesIO(b"%s%d 1\n%s" % (dataio._MM_HEADER, n, body))
    return dataio._read_decimals(stream, n)


# the reader's behaviour that the bulk path's buffer layout relies on
def test_reader_reads_the_first_number_of_each_line():
    got = read_decimals(b"1.5 12\n-2 3 4\n4e2 1234567\n.5\n", 4)
    assert got.tolist() == [1.5, -2.0, 400.0, 0.5]


def test_reader_skips_empty_and_space_only_lines():
    got = read_decimals(b"\n\n1 2\n \n   \n\n2\n  \n\n", 2)
    assert got.tolist() == [1.0, 2.0]


def test_reader_skips_leading_spaces():
    got = read_decimals(b" 1 2\n    -2.5\n  .5e1 7\n", 3)
    assert got.tolist() == [1.0, -2.5, 5.0]


def test_reader_refuses_a_leading_plus():
    for body in (b"+1\n2\n", b"1\n+2 3\n", b"1\n  +2\n"):
        assert read_decimals(body, 2) is None, body
    assert read_decimals(b"1e+2 3\n-2\n", 2).tolist() == [100.0, -2.0]


def test_bulk_path_pins_a_zero_label_of_either_sign(monkeypatch):
    # the reader reads -0.0 as +0.0; the pin treats both zeros alike
    text = "-0.0 1:1\n+0 2:1\n1 1:2\n0e0 2:2\n"
    with monkeypatch.context() as m:
        m.setattr(dataio, "_parse_bulk", lambda text: None)
        loop = parse_libsvm(text, positive_label=0.0)
    with monkeypatch.context() as m:
        forbid_loop(m)
        bulk = parse_libsvm(text, positive_label=0.0)
    assert np.array_equal(loop.y, [1, 1, -1, 1])
    assert outcome(lambda: bulk) == outcome(lambda: loop)


def test_bulk_reader_runs_on_the_calling_thread(monkeypatch):
    # every block is read with parallelism 1: no reader thread starts
    open_read_stream = dataio._fmm_core.open_read_stream
    calls = []

    def spy(stream, parallelism):
        calls.append(parallelism)
        return open_read_stream(stream, parallelism)

    text = serialize_libsvm(make_quadratic_band(1500, n_features=54, seed=5))
    with monkeypatch.context() as m:
        m.setattr(dataio, "_parse_bulk", lambda text: None)
        want = outcome(lambda: parse_libsvm(text))
    monkeypatch.setattr(dataio._fmm_core, "open_read_stream", spy)
    forbid_loop(monkeypatch)
    assert outcome(lambda: parse_libsvm(text)) == want
    assert len(calls) > 1 and set(calls) == {1}


def test_bulk_reader_gets_one_line_per_number(monkeypatch):
    # each label and value takes one line of the reader's buffer, the next
    # entry's index rides behind it, and the only other lines are the text's
    # own blank lines and the two line ends after each block
    open_read_stream = dataio._fmm_core.open_read_stream
    bodies = []

    def spy(stream, parallelism):
        bodies.append(stream.getvalue().split(b"\n", 2)[2])  # after the header
        return open_read_stream(stream, parallelism)

    ds = make_quadratic_band(1500, n_features=54, seed=5)
    text = serialize_libsvm(ds).replace("\n", "\n\n \n", 40)
    n_blank = sum(not line.strip() for line in text.splitlines())
    n_numbers = ds.n_instances + text.count(":")
    monkeypatch.setattr(dataio._fmm_core, "open_read_stream", spy)
    forbid_loop(monkeypatch)
    assert datasets_equal(ds, parse_libsvm(text))
    assert len(bodies) > 1
    lines = b"".join(bodies).split(b"\n")
    assert sum(bool(line.strip()) for line in lines) == n_numbers
    assert sum(body.count(b"\n") for body in bodies) <= n_numbers + n_blank + 2 * len(bodies)


def test_bulk_reader_buffers_end_in_a_line_end(monkeypatch):
    # the reader can crash the process on a last line that holds a number,
    # a space and no line end, so the spy refuses such a buffer before the
    # reader sees it: texts without a final line end, with trailing spaces
    # and tabs, and cut into blocks of a few lines
    open_read_stream = dataio._fmm_core.open_read_stream
    tails = []

    def spy(stream, parallelism):
        tails.append(stream.getvalue()[-1:])
        assert tails[-1] == b"\n", stream.getvalue()
        return open_read_stream(stream, parallelism)

    texts = ["+1 1:1", "+1 1:1 2:2 ", "-1 3:4\t", "+1 1:1 \t \n-1 2:5 \t",
             "+1\n-1 1:2 ", "+1 1:1\r", "-1 1:1 2:2 \r\n+1 3:3 \t\r\n  "]
    monkeypatch.setattr(dataio._fmm_core, "open_read_stream", spy)
    for block_chars in (dataio.BULK_BLOCK_CHARS, 8):
        monkeypatch.setattr(dataio, "BULK_BLOCK_CHARS", block_chars)
        for text in texts + ["\n".join(texts)]:
            with monkeypatch.context() as m:
                m.setattr(dataio, "_parse_bulk", lambda text: None)
                want = outcome(lambda: parse_libsvm(text))
            with monkeypatch.context() as m:
                forbid_loop(m)
                assert outcome(lambda: parse_libsvm(text)) == want, text
    assert len(tails) > 2 * len(texts)


def forbid_loop(monkeypatch):
    def loop(lines):
        raise AssertionError("the line loop ran")
    monkeypatch.setattr(dataio, "_parse_lines", loop)


def test_bulk_path_parses_inputs_without_the_loop(monkeypatch, tmp_path):
    forbid_loop(monkeypatch)
    for text in BULK:
        parse_libsvm(text)
        # split lines and a file's universal newlines also end a line at a
        # bare '\r' inside the text, which makes it another text
        if "\r" in text.rstrip("\r").replace("\r\n", ""):
            continue
        parse_libsvm(text.splitlines(True))
        write_text(tmp_path / "data.libsvm", text)
        load_libsvm(tmp_path / "data.libsvm")


def test_bulk_path_parses_generated_data_without_the_loop(monkeypatch):
    forbid_loop(monkeypatch)
    for ds in (make_quadratic_band(200, n_features=54, seed=3),
               make_sparse_planted(200, n_features=3000, n_signal=100, seed=4)):
        back = parse_libsvm(serialize_libsvm(ds), n_features=ds.n_features)
        assert datasets_equal(ds, back)
    # several blocks, each cut at a line end
    ds = make_quadratic_band(1500, n_features=54, seed=5)
    text = serialize_libsvm(ds)
    assert len(text) > dataio.BULK_BLOCK_CHARS
    assert datasets_equal(ds, parse_libsvm(text))


def test_bulk_blocks_cut_at_line_ends(monkeypatch):
    # lines longer than a block, blank lines at a cut, no trailing newline
    forbid_loop(monkeypatch)
    ds = make_sparse_planted(60, n_features=500, n_signal=20, seed=6)
    text = serialize_libsvm(ds).replace("\n", "\n\n \n", 7)[:-1]
    want = parse_libsvm(text)
    assert datasets_equal(ds, want)
    longest = max(len(line) for line in text.splitlines(True))
    parse_block = dataio._parse_block
    for chars in (1, 16, 100, 977):
        blocks = []
        monkeypatch.setattr(dataio, "BULK_BLOCK_CHARS", chars)
        monkeypatch.setattr(dataio, "_parse_block",
                            lambda block: blocks.append(block) or parse_block(block))
        assert datasets_equal(want, parse_libsvm(text))
        assert "".join(blocks) == text
        assert all(block.endswith("\n") for block in blocks[:-1])
        assert max(map(len, blocks)) <= max(chars, longest)


@pytest.mark.filterwarnings("error::DeprecationWarning")
def test_bulk_fallback_lets_no_numpy_warning_escape(monkeypatch, tmp_path):
    # refused text goes to the loop without a warning
    for text in ["+1 1:1_0\n", "+1 1:1-2\n", "+1 2:1 3:1e\n", "1_0 1:1\n"]:
        assert_same_as_loop(monkeypatch, tmp_path, text)


def test_load_non_utf8_file_is_data_error_naming_the_path(tmp_path):
    path = tmp_path / "latin.libsvm"
    path.write_bytes(b"-1 2:\xff\n")
    with pytest.raises(DataError, match="latin.libsvm"):
        load_libsvm(path)


def test_parse_reads_each_given_line_as_one_line():
    # lines without line ends are instances of their own, as the loop reads them
    ds = parse_libsvm(["+1 1:1", "-1 2:1"])
    assert np.array_equal(ds.y, [1, -1])
    assert ds.n_features == 2
    # and a line holding a line end is still one line
    with pytest.raises(ParseError, match="line 1: token '-1' is missing ':'"):
        parse_libsvm(["+1 1:1\n-1 2:1\n"])
    with pytest.raises(ParseError, match="line 1: token '-1' is missing ':'"):
        parse_libsvm(["+1 1:1\n-1", " 2:1\n"])
    with pytest.raises(ParseError, match="line 1: token '-1' is missing ':'"):
        parse_libsvm(["+1 1:1\n-1 2:1\n", ""])


def test_serialize_writes_repr_of_every_value():
    x = sp.csc_array(np.array([[0.1, 0.0], [1e-17, 3.0]]))
    ds = Dataset(x, np.array([1, -1]))
    assert serialize_libsvm(ds) == "+1 1:0.1 2:1e-17\n-1 2:3.0\n"
    ints = Dataset(sp.csc_array(np.array([[2, 0], [0, 5]], dtype=np.int64)),
                   np.array([1, -1]))
    assert serialize_libsvm(ints) == "+1 1:2.0\n-1 2:5.0\n"


def per_line_text(ds):
    # the writer's formula before it worked in blocks: one f-string per value
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


AWKWARD_VALUES = [-0.0, 5e-324, 1e16, 1e-05, -1.7976931348623157e308,
                  0.0, 0.1 + 0.2, -2.2250738585072014e-308, 1234567890123456.8,
                  -0.00012345678901234567, 1.0, -3.0]


def edge_dataset(block):
    # lines of 0, 1, block - 1, block, block + 1 and 2 * block + 3 pairs,
    # with empty lines around each, 5-digit indices and awkward values
    rng = np.random.default_rng(21)
    counts = [0, block - 1, 0, 0, 2 * block + 3, 0, 1, 0, block, block + 1, 0,
              *rng.integers(0, 40, size=200).tolist(), 0, 0]
    m = 3 * block + 99999
    cols, data = [], []
    for c in counts:
        cols.append(np.sort(rng.choice(m, size=c, replace=False)))
        data.append(rng.choice(AWKWARD_VALUES, size=c))
    indptr = np.concatenate([[0], np.cumsum(counts)])
    x = sp.csc_array((np.concatenate(data), np.concatenate(cols), indptr),
                     shape=(m, len(counts)))
    y = np.where(rng.random(len(counts)) < 0.5, 1, -1)
    return Dataset(x, y)


def test_block_writer_matches_the_per_line_formula_at_block_edges():
    block = dataio.WRITE_BLOCK_ROWS
    ds = edge_dataset(block)
    assert ds.X.indices.max() >= 9999 and (ds.X.data == 0).any()
    blocks = list(dataio._text_blocks(ds))
    assert "".join(blocks) == serialize_libsvm(ds) == per_line_text(ds)
    assert all(b.endswith("\n") for b in blocks)
    rows = [b.count("\n") + b.count(" ") for b in blocks]
    # a line larger than a block is a block of its own; the rest fit
    big = [(r, b.count("\n")) for r, b in zip(rows, blocks) if r > block]
    assert big == [(2 * block + 4, 1), (block + 1, 1), (block + 2, 1)]
    assert block in rows  # a line that fills a block exactly
    # empty lines start and end blocks
    assert any(b[:3] in ("+1\n", "-1\n") for b in blocks[1:])
    assert any(b[-4:] in ("\n+1\n", "\n-1\n") for b in blocks)


@pytest.mark.parametrize("block", [1, 2, 3, 7, 64])
def test_block_writer_matches_the_per_line_formula_at_any_block_size(
        monkeypatch, block):
    monkeypatch.setattr(dataio, "WRITE_BLOCK_ROWS", block)
    rng = np.random.default_rng(block)
    for trial in range(20):
        ds = random_dataset(rng, density=float(rng.choice([0.0, 0.05, 0.5, 1.0])))
        assert serialize_libsvm(ds) == per_line_text(ds)
    ds = edge_dataset(block)
    assert serialize_libsvm(ds) == per_line_text(ds)


def test_serialize_writes_each_awkward_value_as_its_repr():
    x = sp.csc_array((AWKWARD_VALUES, np.arange(len(AWKWARD_VALUES)) * 9091,
                      [0, len(AWKWARD_VALUES)]), shape=(100001, 1))
    text = serialize_libsvm(Dataset(x, np.array([-1])))
    assert text == per_line_text(Dataset(x, np.array([-1])))
    assert text.startswith("-1 1:-0.0 9092:5e-324 18183:1e+16 27274:1e-05 "
                           "36365:-1.7976931348623157e+308 45456:0.0 ")
    back = parse_libsvm(text, n_features=100001)
    assert back.X.data.tobytes() == np.array(
        [v for v in AWKWARD_VALUES if v != 0.0]).tobytes()


def repr_rows(values):
    return np.array([repr(v).encode() for v in values.tolist()],
                    dtype=f"S{dataio._REPR_WIDTH}").view(np.uint8).reshape(values.size, -1)


def test_compiled_digits_are_laid_out_as_repr():
    # the writer's value bytes are repr()'s, byte for byte, at every switch
    # between fixed and exponent notation and across the exponent range
    rng = np.random.default_rng(35)
    bits = rng.integers(0, 2**64, size=100_000, dtype=np.uint64)
    subnormal_bits = rng.integers(1, 2**52, size=2000, dtype=np.uint64)
    powers_of_two = np.ldexp(1.0, np.arange(-1074, 1024))
    powers_of_ten = np.array([float(f"1e{k}") for k in range(-323, 309)])
    integers = np.concatenate([np.arange(1001), rng.integers(0, 2**53, size=5000,
                                                             endpoint=True),
                               [2**53 - 1, 2**53]]).astype(np.float64)
    switches = np.array([1e16, 9999999999999998.0, 1e-4, 9.999999999999999e-05,
                         1e15, 999999999999999.9, 1e-5, 0.00010000000000000002])
    exact = np.concatenate([powers_of_two, powers_of_ten, switches])
    values = np.concatenate([
        bits.view(np.float64), subnormal_bits.view(np.float64), [5e-324, 0.0],
        exact, np.nextafter(exact, np.inf), np.nextafter(exact, -np.inf), integers,
        rng.normal(size=5000), rng.random(5000)])
    values = np.concatenate([values, -values])
    values = values[np.isfinite(values)]
    nonzero = np.abs(values[values != 0])
    assert np.signbit(values[values == 0]).any() and (nonzero < 2.2250738585072014e-308).any()
    for chunk in np.array_split(values, 40):
        got = dataio._repr_bytes(chunk)
        want = repr_rows(chunk)
        bad = np.flatnonzero((got != want).any(axis=1))
        assert bad.size == 0, [repr(v) for v in chunk[bad[:5]]]
    assert dataio._REPR_COLUMNS.nbytes <= 64 * 1024
    x = sp.csc_array(values[:20000].reshape(40, 500))
    ds = Dataset(x, np.where(np.arange(500) % 3, 1, -1))
    assert serialize_libsvm(ds) == per_line_text(ds)


def test_each_block_with_values_makes_one_compiled_write(monkeypatch):
    # one compiled write per block that holds values, none for a block of
    # empty lines
    calls = []
    write = dataio._fmm_core.write_body_array
    monkeypatch.setattr(dataio._fmm_core, "write_body_array",
                        lambda *args: calls.append(args[1].size) or write(*args))
    monkeypatch.setattr(dataio, "WRITE_BLOCK_ROWS", 4)
    counts = [0, 0, 0, 0, 0, 3, 0, 0, 0, 0, 9, 1, 0, 0, 0, 0, 2]
    x = sp.csc_array((np.arange(1.0, sum(counts) + 1),
                      np.concatenate([np.arange(c) for c in counts]),
                      np.concatenate([[0], np.cumsum(counts)])), shape=(9, len(counts)))
    ds = Dataset(x, np.ones(len(counts), dtype=np.int64))
    per_block = []
    for block in dataio._text_blocks(ds):
        per_block.append((block.count(":"), calls[:]))
        calls.clear()
    assert {values > 0 for values, _ in per_block} == {True, False}
    assert all(made == ([values] if values else []) for values, made in per_block)
    assert serialize_libsvm(ds) == per_line_text(ds)


def test_serialize_golden_bytes():
    # generated data, several blocks each; the digests predate the block writer
    golden = [
        (make_quadratic_band(300, n_features=54, seed=12),
         "b1d45ad8f5751671ae5a734adb45f9221f8138021e8ee592e3655bb4ab35affd"),
        (make_sparse_planted(300, n_features=3000, n_signal=100, seed=13),
         "6422ba3f0b9f84865b9059df0450a9a75d01a882decdb75070543d06f8266ec0"),
    ]
    for ds, digest in golden:
        text = serialize_libsvm(ds)
        assert hashlib.sha256(text.encode("ascii")).hexdigest() == digest
        assert len(list(dataio._text_blocks(ds))) > 1


def test_serialize_writes_the_canonical_form():
    # unsorted and duplicate stored indices are written sorted and summed
    ds = Dataset(sp.csc_array(([2., 1.], [1, 0], [0, 2]), shape=(2, 1)),
                 np.array([1]))
    assert serialize_libsvm(ds) == "+1 1:1.0 2:2.0\n"
    assert np.array_equal(ds.X.indices, [1, 0])  # not mutated
    x = sp.csc_array(([5., 2., 1., 3., -1., 1.], [2, 0, 2, 1, 0, 0],
                      [0, 3, 3, 6]), shape=(3, 3))
    ds = Dataset(x, np.array([1, -1, 1]))
    text = serialize_libsvm(ds)
    assert text == "+1 1:2.0 3:6.0\n-1\n+1 1:0.0 2:3.0\n"
    assert datasets_equal(parse_libsvm(text, n_features=3),
                          Dataset(sp.csc_array(x.toarray()), ds.y))
    assert np.array_equal(ds.X.indices, [2, 0, 2, 1, 0, 0])


def test_serialize_copies_only_a_non_canonical_matrix(monkeypatch):
    ds = make_sparse_planted(50, n_features=300, n_signal=20, seed=14)
    assert ds.X.has_canonical_format
    want = per_line_text(ds)

    def no_copy(*args, **kwargs):
        raise AssertionError("a canonical matrix was copied")

    monkeypatch.setattr(sp.csc_array, "copy", no_copy)
    monkeypatch.setattr(sp.csc_array, "sum_duplicates", no_copy)
    assert serialize_libsvm(ds) == want


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("name", ["d.libsvm", "d.libsvm.gz"])
def test_writer_refuses_non_finite_values_before_writing(tmp_path, bad, name):
    x = np.ones((3, 5))
    x[2, 3] = bad
    x[1, 4] = bad
    ds = Dataset(sp.csc_array(x), np.array([1, -1, 1, -1, 1]))
    want = f"instance 3 \\(line 4\\) holds the non-finite value {bad!r} at index 3"
    with pytest.raises(DataError, match=want):
        serialize_libsvm(ds)
    with pytest.raises(DataError, match=want):
        save_libsvm(ds, tmp_path / "new" / name)
    assert not (tmp_path / "new").exists()
    (tmp_path / name).write_text("kept\n")
    with pytest.raises(DataError, match=want):
        save_libsvm(ds, tmp_path / name)
    assert (tmp_path / name).read_text() == "kept\n"


def test_write_text_takes_a_string_or_chunks(tmp_path):
    for name in ("t.txt", "t.txt.gz"):
        opener = gzip.open if name.endswith(".gz") else open
        for text in ("a\nb\n", ["a\n", "", "b", "\n"], (c for c in "a\nb\n")):
            dataio.write_text(tmp_path / name, text)
            with opener(tmp_path / name, "rt", encoding="utf-8") as handle:
                assert handle.read() == "a\nb\n"
    (tmp_path / "blocker").write_text("a file, not a directory\n")
    for text in ("a\n", iter(["a\n"])):
        with pytest.raises(DataError, match="cannot write .*blocker"):
            dataio.write_text(tmp_path / "blocker" / "t.txt", text)


def traced_peak(call):
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.fixture(scope="module")
def writer_data():
    # a text of more than 16 blocks
    ds = make_quadratic_band(2400, n_features=54, seed=15)
    return ds, per_line_text(ds)


def test_serialize_memory_is_about_twice_the_text(writer_data):
    # the per-line writer peaked at about 4.9x the text
    ds, text = writer_data
    peak = traced_peak(lambda: serialize_libsvm(ds))
    assert peak < 2.5 * len(text), (peak, len(text))
    assert len(list(dataio._text_blocks(ds))) >= 16


@pytest.mark.parametrize("name", ["d.libsvm", "d.libsvm.gz"])
def test_save_memory_is_a_fraction_of_the_text(tmp_path, name, writer_data):
    # save_libsvm holds one block, never the whole text
    ds, text = writer_data
    peak = traced_peak(lambda: save_libsvm(ds, tmp_path / name))
    assert peak < 0.5 * len(text), (peak, len(text))
    assert dataio.read_text(tmp_path / name) == text
    assert len(list(dataio._text_blocks(ds))) >= 16


def _opens_a_file(node):
    f = node.func
    return (isinstance(f, ast.Name) and f.id == "open") or (
        isinstance(f, ast.Attribute) and f.attr == "open"
        and isinstance(f.value, ast.Name) and f.value.id == "gzip")


def test_only_dataio_opens_files():
    # every text file is read and written through `read_text`/`write_text`,
    # so each kind of file fails with one error class; the report's binary
    # hash of an artifact is the one other reader
    exempt = {("report.py", "sha256_file")}
    found = []
    for path in sorted(Path(dataio.__file__).parent.glob("*.py")):
        if path.name == "dataio.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        allowed = {id(node) for func in ast.walk(tree)
                   if isinstance(func, ast.FunctionDef)
                   and (path.name, func.name) in exempt
                   for node in ast.walk(func)}
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.Call) and _opens_a_file(node)
                  and id(node) not in allowed]
    assert found == []


def test_only_report_reads_the_clock():
    # every stage timing is a `report.timed` block, so a report's
    # `timings_s` has one source
    clocks = {"perf_counter", "time", "monotonic"}
    found = []
    for path in sorted(Path(dataio.__file__).parent.glob("*.py")):
        if path.name == "report.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.Call)
                  and isinstance(node.func, ast.Attribute)
                  and node.func.attr in clocks
                  and isinstance(node.func.value, ast.Name)
                  and node.func.value.id == "time"]
    assert found == []


def test_rules_import_only_the_errors():
    # the rules module is a leaf of the package, so any module can check a
    # configured value without importing the config
    path = Path(dataio.__file__).parent / "rules.py"
    tree = ast.parse(path.read_text(encoding="utf-8"))
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            module = "featdc." * bool(node.level) + (node.module or "")
            names = [module.rstrip(".") + "." + a.name for a in node.names]
        elif isinstance(node, ast.Import):
            names = [a.name for a in node.names]
        else:
            continue
        found |= {n.split(".")[1] for n in names if n.startswith("featdc.")}
    assert found == {"errors"}
