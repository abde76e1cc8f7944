import gzip

import numpy as np
import pytest
import scipy.sparse as sp

from featdc import dataio
from featdc.dataio import (Dataset, SplitSpec, apply_feature_scale,
                           load_libsvm, max_abs_scale, parse_libsvm,
                           save_libsvm, select_instances, serialize_libsvm,
                           split, train_size)
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
    idx0, val0 = ds.column(0)
    assert np.array_equal(idx0, [2, 6])  # 0-based internally
    assert np.allclose(val0, [0.5, 1.2])


def test_parse_is_order_preserving():
    lines = ["+1 1:1.0", "-1 2:2.0", "+1 3:3.0"]
    ds = parse_libsvm("\n".join(lines))
    for k in range(3):
        idx, val = ds.column(k)
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
    idx, val = ds.column(0)
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
    assert np.abs(scaled.X.toarray()).max() <= 1.0
    # zero feature row stays zero and untouched
    assert np.array_equal(scaled.X.toarray()[1], [0.0, 0.0])
    # same map applies to held-out data
    held = apply_feature_scale(ds, scale)
    assert np.allclose(held.X.toarray(), scaled.X.toarray())
    with pytest.raises(DataError):
        apply_feature_scale(ds, np.ones(2))


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
    "+1 1:1\r2:1\n-1 1:1\n", "+1 1:1\x0c2:1\n", "+1 1:1\x1c2:1\n",
    "+1 1:1\x852:1\n", "\u0661 1:1\n", "+1 \u0661:1\n", "+1 1:1\r",
]

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


def forbid_loop(monkeypatch):
    def loop(lines):
        raise AssertionError("the line loop ran")
    monkeypatch.setattr(dataio, "_parse_lines", loop)


def test_bulk_path_parses_inputs_without_the_loop(monkeypatch, tmp_path):
    forbid_loop(monkeypatch)
    for text in BULK:
        parse_libsvm(text)
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
    # numpy readers older than 2.x warn where they stop early
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


def test_serialize_writes_repr_of_every_value():
    x = sp.csc_array(np.array([[0.1, 0.0], [1e-17, 3.0]]))
    ds = Dataset(x, np.array([1, -1]))
    assert serialize_libsvm(ds) == "+1 1:0.1 2:1e-17\n-1 2:3.0\n"
    ints = Dataset(sp.csc_array(np.array([[2, 0], [0, 5]], dtype=np.int64)),
                   np.array([1, -1]))
    assert serialize_libsvm(ints) == "+1 1:2.0\n-1 2:5.0\n"
