import gzip

import numpy as np
import pytest
import scipy.sparse as sp

from featdc.dataio import (Dataset, SplitSpec, apply_feature_scale,
                           load_libsvm, max_abs_scale, parse_libsvm,
                           save_libsvm, select_instances, serialize_libsvm,
                           split, train_size)
from featdc.errors import DataError, ParseError, ValidationError


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
