import base64
import copy
import dataclasses
import json
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp

from featdc.classify import LinearModel, TrbfModel
from featdc.cli import main
from featdc.dataio import Dataset, save_libsvm
from featdc.decompose import METHODS, apply_decomposition
from featdc.errors import DataError
from featdc.fuse import LearnerSpec, predict_dc, train_dc
from featdc.persist import (FORMAT_VERSION, READ_VERSIONS, load_dc_model,
                            save_dc_model)

from oracles import make_blobs

FULL_PLAN = [("rd", 2, 12), ("pca", 2, 12), ("dca", 2, 12), ("bcd", 2, 12),
             ("abd", 2, 12)]


def full_plan_model(seed=0):
    """(x, model) for a model trained on every decomposition method."""
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(24, 60))
    y = np.where(rng.random(60) < 0.5, 1, -1)
    return x, train_dc(Dataset(sp.csc_array(x), y), FULL_PLAN, seed=seed)


def saved(model, path):
    save_dc_model(model, path)
    return path


def edited(path, edit):
    """Apply edit to the JSON document at path, in place."""
    doc = json.loads(path.read_text())
    edit(doc)
    path.write_text(json.dumps(doc))
    return path


def parts_identical(a, b):
    assert a.method == b.method
    assert a.n_features_in == b.n_features_in
    assert a.n_features_out == b.n_features_out
    assert a.block_size == b.block_size
    assert len(a.index_groups) == len(b.index_groups)
    for ga, gb in zip(a.index_groups, b.index_groups):
        assert np.array_equal(ga, gb)
    if a.transform is None:
        assert b.transform is None
    else:
        assert a.transform.dtype == b.transform.dtype == np.float64
        assert np.array_equal(a.transform, b.transform)
        assert not np.array_equal(a.transform, b.transform + 1e-300) or True
    if a.feature_order is None:
        assert b.feature_order is None
    else:
        assert np.array_equal(a.feature_order, b.feature_order)
    if a.eigenvalues is None:
        assert b.eigenvalues is None
    else:
        assert np.array_equal(a.eigenvalues, b.eigenvalues)


def test_decomposition_round_trip_all_methods(tmp_path):
    x, model = full_plan_model(seed=3)
    comp = model.decomposition
    back = load_dc_model(saved(model, tmp_path / "m.json")).decomposition
    assert back.h == comp.h
    for pa, pb in zip(comp.parts, back.parts):
        parts_identical(pa, pb)
    va = apply_decomposition(comp, x)
    vb = apply_decomposition(back, x)
    for a, b in zip(va, vb):
        a = a.toarray() if sp.issparse(a) else np.asarray(a)
        b = b.toarray() if sp.issparse(b) else np.asarray(b)
        assert np.array_equal(a, b)  # bit-exact, not merely close


def test_round_trip_is_bit_exact_many_times(tmp_path):
    # serialize -> load -> serialize again must be byte-stable
    _, model = full_plan_model(seed=8)
    p1 = saved(model, tmp_path / "a.json")
    p2 = saved(load_dc_model(p1), tmp_path / "b.json")
    assert p1.read_bytes() == p2.read_bytes()


def test_dc_model_round_trip_predictions(tmp_path):
    ds = make_blobs(120, n_features=10, separation=3.0, seed=4)
    model = train_dc(ds, [("rd", 2, 5), ("pca", 2, 5), ("abd", 2, 5)],
                     global_=LearnerSpec(type="trbf", p=2), seed=7,
                     config_snapshot={"note": "round-trip"})
    path = tmp_path / "model.json"
    save_dc_model(model, path)
    back = load_dc_model(path)
    assert back.h == model.h
    assert back.config_snapshot == model.config_snapshot
    assert np.array_equal(back.r_shift, model.r_shift)
    assert np.array_equal(back.r_scale, model.r_scale)
    la, sa = predict_dc(model, ds)
    lb, sb = predict_dc(back, ds)
    assert np.array_equal(sa, sb)
    assert np.array_equal(la, lb)


def test_dc_model_linear_global_round_trip(tmp_path):
    ds = make_blobs(60, n_features=6, separation=3.0, seed=2)
    model = train_dc(ds, [("rd", 2, 3)],
                     global_=LearnerSpec(type="linear", lam=0.5), seed=1)
    path = tmp_path / "model.json"
    save_dc_model(model, path)
    back = load_dc_model(path)
    assert np.array_equal(back.global_model.weights,
                          model.global_model.weights)
    assert back.global_model.bias == model.global_model.bias
    _, sa = predict_dc(model, ds)
    _, sb = predict_dc(back, ds)
    assert np.array_equal(sa, sb)


def test_awkward_floats_survive(tmp_path):
    _, model = full_plan_model(seed=1)
    # plant pathological values straight into a stored transform and a
    # stored scalar
    weird = np.array([5e-324, -0.0, 1.7976931348623157e308, 1e-308,
                      -2.2250738585072014e-308, 0.1])
    model.decomposition.parts[1].transform[0, :6] = weird
    model.locals[0].bias = -0.0
    back = load_dc_model(saved(model, tmp_path / "w.json"))
    got = back.decomposition.parts[1].transform[0, :6]
    assert np.array_equal(got, weird)
    assert np.signbit(got[1])  # -0.0 keeps its sign bit
    assert np.signbit(back.locals[0].bias)


def test_version_mismatch_refused(tmp_path):
    _, model = full_plan_model(seed=0)
    for version in (FORMAT_VERSION + 1, 0, True, 1.0, "2"):
        path = edited(saved(model, tmp_path / "v.json"),
                      lambda doc: doc.update(version=version))
        with pytest.raises(DataError, match="refusing"):
            load_dc_model(path)


def test_wrong_format_name_refused(tmp_path):
    _, model = full_plan_model(seed=0)
    path = edited(saved(model, tmp_path / "f.json"),
                  lambda doc: doc.update(format="other-model"))
    with pytest.raises(DataError, match="unknown format 'other-model'"):
        load_dc_model(path)


def test_wrong_kind_refused(tmp_path):
    # the only document kind is a trained model; a file of the former
    # decomposition-only kind is refused
    _, model = full_plan_model(seed=0)
    path = edited(saved(model, tmp_path / "k.json"),
                  lambda doc: doc.update(kind="decomposition"))
    with pytest.raises(DataError, match="k.json: document kind "
                                        "'decomposition' is not 'dc_model'"):
        load_dc_model(path)


def test_truncated_file_refused(tmp_path):
    _, model = full_plan_model(seed=0)
    path = saved(model, tmp_path / "t.json")
    raw = path.read_bytes()
    path.write_bytes(raw[: len(raw) // 2])
    with pytest.raises(DataError, match="t.json: not valid structured text"):
        load_dc_model(path)


def test_missing_file_refused(tmp_path):
    with pytest.raises(DataError):
        load_dc_model(tmp_path / "nope.json")


def test_header_keys_required(tmp_path):
    path = tmp_path / "h.json"
    for doc in ({"format": "featdc-model"}, 5,
                {"format": "featdc-model", "version": 1, "kind": "dc_model",
                 "payload": {}}):
        path.write_text(json.dumps(doc))
        with pytest.raises(DataError, match="h.json"):
            load_dc_model(path)


FIXTURE = Path(__file__).parent / "fixtures" / "model_v1.json"


def fixture(version):
    return FIXTURE.with_name(f"model_v{version}.json")


FIXTURE_V2, FIXTURE_V3 = fixture(2), fixture(3)


def assert_same_bits(a, b):
    """a and b hold the same values to the bit, field by field; every
    array is a native, writable copy."""
    if isinstance(a, np.ndarray):
        assert a.dtype == b.dtype and a.dtype.isnative
        assert a.flags.writeable and b.flags.writeable
        assert a.shape == b.shape and a.tobytes() == b.tobytes()
    elif dataclasses.is_dataclass(a):
        assert type(a) is type(b)
        for f in dataclasses.fields(a):
            assert_same_bits(getattr(a, f.name), getattr(b, f.name))
    elif isinstance(a, list):
        assert len(a) == len(b)
        for u, v in zip(a, b):
            assert_same_bits(u, v)
    elif isinstance(a, dict):
        assert a.keys() == b.keys()
        for k in a:
            assert_same_bits(a[k], b[k])
    elif isinstance(a, float):
        assert a.hex() == b.hex()
    else:
        assert a == b


@pytest.mark.parametrize("version", READ_VERSIONS)
def test_every_readable_version_has_a_fixture_with_the_same_bits(tmp_path,
                                                                 version):
    # model_v1.json is a `featdc train` model.json kept from before the
    # schema-driven encoder: every method, linear locals, TRBF global,
    # scaled features; each later fixture is its re-save
    doc = json.loads(fixture(version).read_text())
    assert doc["version"] == version
    model = load_dc_model(fixture(version))
    assert [p.method for p in model.decomposition.parts] == list(METHODS)
    assert all(isinstance(m, LinearModel) for m in model.locals)
    assert isinstance(model.global_model, TrbfModel)
    assert model.at is not None
    assert model.feature_scale.shape == (6,) and model.positive_label is None
    assert_same_bits(model, load_dc_model(FIXTURE))  # `at`, the input map
    # a re-save writes the current version: the committed v3 fixture
    assert FORMAT_VERSION == 3
    path = saved(model, tmp_path / "again.json")
    assert path.read_bytes() == FIXTURE_V3.read_bytes()


def cut_last_value(payload):
    # r_shift's bytes one float short of its shape
    array = payload["r_shift"]
    array["f8"] = base64.b64encode(base64.b64decode(array["f8"])[:-8]).decode()


def ragged_ints(payload):
    group = payload["decomposition"]["parts"][0]["index_groups"][0]
    group["i4"] = base64.b64encode(base64.b64decode(group["i4"]) + b"\0\0").decode()


def not_base64(payload):
    weights = payload["locals"][0]["weights"]
    weights["f8"] = "*" + weights["f8"][1:]


def not_ascii(payload):
    weights = payload["global"]["weights"]
    weights["f8"] = "\u00e9" + weights["f8"][1:]


def infinite_r_shift(payload):
    shift = np.frombuffer(base64.b64decode(payload["r_shift"]["f8"]), "<f8").copy()
    shift[2] = np.inf
    payload["r_shift"]["f8"] = base64.b64encode(shift.tobytes()).decode()


def nan_bias(payload):
    payload["locals"][3]["bias"] = float("nan").hex()


@pytest.mark.parametrize("edit, message", [
    (cut_last_value, r"float array of shape \(7,\) needs 56 bytes, not 48"),
    (ragged_ints, "<i4 array payload of 14 bytes is not a whole number of "
                  "4-byte values"),
    (not_base64, "array payload is not base64"),
    (not_ascii, "array payload is not base64"),
    (infinite_r_shift, r"float array of shape \(7,\) holds a non-finite value"),
    (nan_bias, "float 'nan' is not finite"),
])
def test_malformed_version_2_payload_refused(tmp_path, capsys, edit, message):
    doc = json.loads(FIXTURE_V2.read_text())
    edit(doc["payload"])
    path = tmp_path / "edited.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(DataError, match="edited.json: malformed dc_model "
                                        "payload .*" + message):
        load_dc_model(path)
    ds = make_blobs(50, n_features=6, seed=3)
    save_libsvm(ds, tmp_path / "t.libsvm")
    assert main(["eval", "--model", str(path),
                 "--test", str(tmp_path / "t.libsvm"),
                 "--out", str(tmp_path / "evalout")]) == 3
    assert "malformed dc_model payload" in capsys.readouterr().err


def test_save_refuses_an_index_outside_int32(tmp_path):
    # integer arrays are stored as int32: a wider value is refused, never
    # wrapped
    _, model = full_plan_model(seed=0)
    model.decomposition.parts[0].index_groups[0] = np.array([0, 2**31])
    path = tmp_path / "wide.json"
    with pytest.raises(DataError, match=r"values 0\.\.2147483648 exceed the "
                                        "int32 range"):
        save_dc_model(model, path)
    assert not path.exists()


def test_version_1_fixture_predicts_through_the_collapsed_map():
    model = load_dc_model(FIXTURE)
    assert model.at.shape == (6, model.h)
    twin = copy.copy(model)
    twin.at = twin.b = None
    ds = make_blobs(200, n_features=6, separation=2.0, seed=3)
    labels, scores = predict_dc(model, ds)
    ref_labels, ref_scores = predict_dc(twin, ds)
    assert np.array_equal(labels, ref_labels)
    assert np.max(np.abs(scores - ref_scores)) <= 1e-12 * np.max(np.abs(ref_scores))


def rename_rd_to_fft(parts):
    parts[0]["method"] = "fft"


def drop_pca_transform(parts):
    parts[1]["transform"] = None


def give_rd_a_transform(parts):
    parts[0]["transform"] = parts[1]["transform"]


def flatten_abd_transform(parts):
    parts[4]["transform"]["shape"] = [1, 4]


def widen_pca_transform(parts):
    parts[1]["transform"]["hex"] *= 2
    parts[1]["transform"]["shape"] = [6, 12]


def index_past_the_end(parts):
    parts[0]["index_groups"][0][-1] = 6


def negative_index(parts):
    parts[4]["index_groups"][1][0] = -1


def short_feature_order(parts):
    parts[3]["feature_order"].pop()


def repeated_feature_order(parts):
    parts[4]["feature_order"][0] = parts[4]["feature_order"][1]


def shrink_abd_blocks(parts):
    parts[4]["block_size"] = 2


def pca_of_other_width(parts):
    parts[1]["n_features_out"] = 5


@pytest.mark.parametrize("edit, message", [
    (rename_rd_to_fft, "unknown decomposition method 'fft'"),
    (drop_pca_transform, r"a pca part sets \(\), not \('transform',\)"),
    (give_rd_a_transform, r"a rd part sets \('transform',\), not \(\)"),
    (flatten_abd_transform,
     r"a abd part's transform has shape \(1, 4\), not \(2, 2\)"),
    (widen_pca_transform,
     r"a pca part's transform has shape \(6, 12\), not \(6, 6\)"),
    (index_past_the_end,
     "a rd part's index group reaches outside its 6 output coordinates"),
    (negative_index,
     "a abd part's index group reaches outside its 6 output coordinates"),
    (short_feature_order,
     "a bcd part's feature_order is not a permutation of its 6 output rows"),
    (repeated_feature_order,
     "a abd part's feature_order is not a permutation of its 6 output rows"),
    (shrink_abd_blocks, "a abd part's 2 blocks of 2 are not its 6 output rows"),
    (pca_of_other_width, "a pca part maps 6 features to 5"),
])
def test_part_that_is_not_its_method_refused(tmp_path, edit, message):
    # parts are applied by their fields, so the name and fields must agree
    doc = json.loads(FIXTURE.read_text())
    parts = doc["payload"]["decomposition"]["parts"]
    assert [p["method"] for p in parts[:2]] == ["rd", "pca"]
    edit(parts)
    path = tmp_path / "edited.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(DataError, match=message):
        load_dc_model(path)


def cut_last(array):
    array["hex"].pop()
    array["shape"] = [len(array["hex"])]


def cut_r_shift(payload):
    cut_last(payload["r_shift"])


def cut_r_scale(payload):
    cut_last(payload["r_scale"])


def drop_a_local(payload):
    payload["locals"].pop()


def narrow_a_local(payload):
    cut_last(payload["locals"][4]["weights"])


def cut_global_weights(payload):
    cut_last(payload["global"]["weights"])


def retag_global_width(payload):
    payload["global"]["n_features"] = 8


def widen_global(payload):
    # a consistent degree-2 map of 8 inputs, where the model has 7 locals
    retag_global_width(payload)
    payload["global"]["weights"]["hex"] += ["0x0.0p+0"] * 9
    payload["global"]["weights"]["shape"] = [45]


def set_hex(name, index=None, value="nan"):
    """An edit that stores `value` in the payload field at the dotted
    `name`, or at position `index` of that stored array."""
    def edit(payload):
        *path, last = name.split(".")
        for key in path:
            payload = payload[int(key) if key.isdigit() else key]
        if index is None:
            payload[last] = value
        else:
            payload[last]["hex"][index] = value
    edit.__name__ = f"{name}{'' if index is None else [index]}={value}"
    return edit


@pytest.mark.parametrize("edit, message", [
    (cut_r_shift, r"r_shift has shape \(6,\), not \(7,\)"),
    (cut_r_scale, r"r_scale has shape \(6,\), not \(7,\)"),
    (drop_a_local, r"locals read \[3, 3, 3, 3, 3, 3\] features, but the "
                   r"subspace views have \[3, 3, 3, 3, 3, 3, 3\]"),
    (narrow_a_local, r"locals read \[3, 3, 3, 3, 2, 3, 3\] features"),
    (cut_global_weights,
     r"a degree-2 map of 7 features has 36 weights, not \(35,\)"),
    (retag_global_width,
     r"a degree-2 map of 8 features has 45 weights, not \(36,\)"),
    (widen_global, "the global reads 8 inputs, not the 7 local scores"),
    # numbers that cannot score
    (set_hex("global.sigma"), "float 'nan' is not finite"),
    (set_hex("global.weights", 0),
     r"float array of shape \(36,\) holds a non-finite value"),
    (set_hex("global.sigma", value="0x0.0p+0"),
     r"DataError: sigma must be positive, got 0\.0\)$"),
    (set_hex("global.sigma", value="-0x1.0p+0"),
     r"DataError: sigma must be positive, got -1\.0\)$"),
    (set_hex("global.p", value=0), r"DataError: p must be >= 1, got 0\)$"),
    (set_hex("r_scale", 0, "0x0.0p+0"),
     "r_scale holds a value that is not positive"),
    (set_hex("locals.0.weights", 1),
     r"float array of shape \(3,\) holds a non-finite value"),
    (set_hex("r_shift", 0, "inf"),
     r"float array of shape \(7,\) holds a non-finite value"),
])
def test_model_whose_parts_do_not_fit_refused(tmp_path, capsys, edit, message):
    # locals, fusion rows and global must agree with the views and hold
    # numbers that score, or the model fails only when it scores
    doc = json.loads(FIXTURE.read_text())
    edit(doc["payload"])
    path = tmp_path / "edited.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(DataError, match="edited.json: malformed dc_model "
                                        "payload .*" + message):
        load_dc_model(path)
    save_libsvm(make_blobs(50, n_features=6, seed=3), tmp_path / "t.libsvm")
    for args in (["eval", "--model", str(path), "--test",
                  str(tmp_path / "t.libsvm"), "--out", str(tmp_path / "out")],
                 ["inspect", "--model", str(path)]):
        assert main(args) == 3
        err = capsys.readouterr().err
        assert "edited.json: malformed dc_model payload" in err
        assert "Traceback" not in err


def test_trbf_locals_round_trip_and_eval(tmp_path, capsys):
    # models with TRBF locals score through their views, not a collapsed map
    ds = make_blobs(120, n_features=10, separation=3.0, seed=4)
    model = train_dc(ds, [("rd", 2, 5), ("pca", 2, 5), ("abd", 2, 5)],
                     local=LearnerSpec(type="trbf", p=2), seed=7)
    assert all(isinstance(m, TrbfModel) for m in model.locals)
    path = saved(model, tmp_path / "model.json")
    back = load_dc_model(path)
    assert back.at is None
    la, sa = predict_dc(model, ds)
    lb, sb = predict_dc(back, ds)
    assert sa.tobytes() == sb.tobytes()
    assert np.array_equal(la, lb)
    save_libsvm(ds, tmp_path / "test.libsvm")
    assert main(["eval", "--model", str(path),
                 "--test", str(tmp_path / "test.libsvm"),
                 "--out", str(tmp_path / "evalout")]) == 0
    assert "error rate:" in capsys.readouterr().out
