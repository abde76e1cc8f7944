import copy
import dataclasses
import math
import re
import tracemalloc
import warnings

import numpy as np
import pytest
import scipy.sparse as sp

import featdc.classify as classify
import featdc.decompose as decompose
import featdc.fuse as fuse
from featdc.classify import label_from_score, train_linear
from featdc.config import RULES, PlanEntry
from featdc.dataio import (Dataset, SplitSpec, apply_feature_scale,
                           max_abs_scale, parse_libsvm)
from featdc.decompose import (METHODS, CompositeDecomposition, _as_matrix,
                              apply_decomposition, disjoint_groups, fit_dca,
                              fit_pca, fit_plan, fit_plan_entry, make_rd,
                              overlapping_groups, part_seed)
from featdc.errors import ConfigError, DataError, NumericError
from featdc.fuse import (DcModel, Guards, LearnerSpec, apply_standardization,
                         build_r, evaluate, local_scores, predict_dc,
                         standardize_rows, train_dc)
from featdc.report import recording

from oracles import make_blobs


def blob_dataset(n=120, n_features=8, seed=0, separation=8.0):
    return make_blobs(n, n_features=n_features, separation=separation,
                      seed=seed)


# ---------------------------------------------------------------------------
# building blocks


def test_build_r_per_row_oracle():
    rng = np.random.default_rng(0)
    x = rng.normal(size=(3, 30))
    y = np.where(rng.random(30) < 0.5, 1.0, -1.0)
    models = [train_linear(x, y, lam=l) for l in (0.1, 1.0)]
    r = build_r(models, [x, x])
    assert r.shape == (2, 30)
    for k, m in enumerate(models):
        assert np.allclose(r[k], x.T @ m.weights + m.bias, atol=1e-12)


def test_build_r_count_mismatch():
    x = np.ones((2, 4))
    model = train_linear(x, np.array([1, -1, 1, -1]), lam=1.0)
    with pytest.raises(DataError):
        build_r([model], [x, x])


def test_standardize_rows_moments():
    rng = np.random.default_rng(1)
    r = rng.normal(loc=3.0, scale=2.5, size=(5, 200))
    shift, scale = standardize_rows(r)
    rs = apply_standardization(r, shift, scale)
    assert np.allclose(rs.mean(axis=1), 0.0, atol=1e-12)
    assert np.allclose(rs.std(axis=1), 1.0, atol=1e-12)


def test_standardize_rows_leaves_constants_alone():
    r = np.vstack([np.full(50, 7.0), np.linspace(-1, 1, 50)])
    shift, scale = standardize_rows(r)
    assert shift[0] == 0.0 and scale[0] == 1.0
    rs = apply_standardization(r, shift, scale)
    assert np.array_equal(rs[0], r[0])
    assert abs(rs[1].mean()) <= 1e-12


def test_evaluate_oracles():
    perfect = evaluate(np.array([1, -1, 1, -1]), np.array([1, -1, 1, -1]))
    assert perfect["error_rate_pct"] == 0.0
    assert perfect["confusion"] == {"tp": 2, "tn": 2, "fp": 0, "fn": 0}
    one_wrong = evaluate(np.array([1, -1, 1, 1]), np.array([1, -1, 1, -1]))
    assert one_wrong["error_rate_pct"] == 25.0
    assert one_wrong["mismatches"] == 1
    assert one_wrong["confusion"]["fp"] == 1
    with pytest.raises(DataError):
        evaluate(np.array([1, -1]), np.array([1, -1, 1]))


def test_evaluate_of_no_queries_is_data_error():
    ds = make_blobs(60, n_features=6, separation=3.0, seed=2)
    model = train_dc(ds, [("rd", 2, 3)], seed=1)
    labels, scores = predict_dc(model, np.zeros((6, 0)))
    assert labels.shape == scores.shape == (0,)
    with pytest.raises(DataError, match="no predictions to evaluate"):
        evaluate(labels, np.zeros(0))


def test_learner_spec_rejects_unknown_type():
    with pytest.raises(ConfigError):
        LearnerSpec(type="svm")


# ---------------------------------------------------------------------------
# end-to-end pipeline properties


def test_train_dc_collapse_to_single_classifier():
    # one rd part keeping every feature makes the single local score the
    # only fusion input; a linear global of a standardized linear score
    # must reproduce direct training label-for-label
    for seed in range(10):
        ds = blob_dataset(n=80, n_features=6, seed=seed)
        model = train_dc(ds, [("rd", 1, 6)],
                         local=LearnerSpec(type="linear", lam=1.0),
                         global_=LearnerSpec(type="linear", lam=1e-8),
                         seed=seed)
        assert model.h == 1
        labels, _ = predict_dc(model, ds)
        direct = train_linear(ds.X, ds.y.astype(np.float64), lam=1.0)
        ref = label_from_score(direct.decision_function(ds.X))
        assert np.array_equal(labels, ref)


def test_train_dc_memorizes_separated_blobs():
    ds = blob_dataset(n=150, n_features=10, seed=3)
    model = train_dc(ds, [("rd", 2, 5), ("pca", 2, 5)],
                     local=LearnerSpec(type="linear"),
                     global_=LearnerSpec(type="trbf", p=2), seed=0)
    labels, _ = predict_dc(model, ds)
    assert evaluate(labels, ds.y)["error_rate_pct"] == 0.0


def test_train_dc_bit_stable_across_runs():
    ds = blob_dataset(n=100, n_features=8, seed=5, separation=3.0)
    plan = [("rd", 2, 4), ("pca", 2, 4), ("bcd", 2, 4), ("abd", 2, 4)]
    runs = []
    for _ in range(3):
        model = train_dc(ds, plan, seed=11)
        _, scores = predict_dc(model, ds)
        runs.append(scores)
    assert np.array_equal(runs[0], runs[1])
    assert np.array_equal(runs[1], runs[2])


def test_train_dc_thread_count_does_not_change_scores():
    ds = blob_dataset(n=90, n_features=8, seed=7, separation=3.0)
    plan = [("rd", 2, 4), ("dca", 2, 4), ("abd", 2, 4)]
    m1 = train_dc(ds, plan, seed=2, threads=1)
    m4 = train_dc(ds, plan, seed=2, threads=4)
    s1 = predict_dc(m1, ds, threads=1)[1]
    s4 = predict_dc(m4, ds, threads=4)[1]
    assert np.max(np.abs(s1 - s4)) <= 1e-12


def test_train_dc_lsmr_locals_same_bits_for_any_threads():
    ds = blob_dataset(n=150, n_features=12, seed=8, separation=3.0)
    plan = [("rd", 3, 6)]
    guards = Guards(max_dense_features=4)
    m1 = train_dc(ds, plan, seed=4, threads=1, guards=guards)
    m4 = train_dc(ds, plan, seed=4, threads=4, guards=guards)
    assert {m.solver for m in m1.locals} == {"lsmr"}
    assert np.array_equal(predict_dc(m1, ds)[1], predict_dc(m4, ds)[1])


@pytest.mark.parametrize("threads", [1, 2])
def test_train_dc_holds_a_bounded_number_of_views(threads):
    # each rd view is a 192 x 500 copy (0.77 MB): with every view of a
    # part alive at once, 32 groups would peak about 5x higher than 4;
    # streamed, at most threads + 1 are alive whatever the group count
    rng = np.random.default_rng(6)
    x = rng.normal(size=(256, 500))
    ds = Dataset(sp.csc_array(x), np.where(x[0] + x[1] > 0, 1, -1))
    peaks = {}
    for groups in (4, 32):
        tracemalloc.start()
        try:
            train_dc(ds, [("rd", groups, 192)], seed=0, threads=threads,
                     global_=LearnerSpec(type="linear"))
            peaks[groups] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert peaks[32] < 1.5 * peaks[4], (
        f"tracemalloc peaks: 4 groups {peaks[4]} B, 32 groups {peaks[32]} B, "
        f"ratio {peaks[32] / peaks[4]:.3f} (bound 1.5)")


def test_predict_dc_runs_on_calling_thread(monkeypatch):
    ds = blob_dataset(n=90, n_features=8, seed=7, separation=3.0)
    model = train_dc(ds, [("rd", 2, 4), ("pca", 2, 4)], seed=3)
    assert model.h > 1
    expected = predict_dc(model, ds, threads=1)[1]

    def no_pool(*args, **kwargs):
        raise AssertionError("predict_dc started a worker pool")

    monkeypatch.setattr("featdc.fuse.ThreadPoolExecutor", no_pool)
    scores = predict_dc(model, ds, threads=4)[1]
    assert np.array_equal(scores, expected)


def test_train_dc_duplicated_features_share_weight():
    # duplicating the feature block as a second subspace splits the fused
    # contribution evenly between identical locals; predictions match the
    # single-subspace model exactly
    ds = blob_dataset(n=80, n_features=6, seed=9)
    one = train_dc(ds, [("rd", 1, 6)],
                   local=LearnerSpec(type="linear", lam=1.0),
                   global_=LearnerSpec(type="linear", lam=1e-6), seed=4)
    two_parts = [("rd", 1, 6), ("rd", 1, 6)]
    two = train_dc(ds, two_parts,
                   local=LearnerSpec(type="linear", lam=1.0),
                   global_=LearnerSpec(type="linear", lam=1e-6), seed=4)
    assert two.h == 2
    w = two.global_model.weights
    # the duplicated direction carries only the ridge, so the split is even
    # to roughly the solve's conditioning
    assert abs(w[0] - w[1]) <= 1e-5 * abs(w[0] + w[1])
    assert abs((w[0] + w[1]) - one.global_model.weights[0]) <= 1e-4
    l1, _ = predict_dc(one, ds)
    l2, _ = predict_dc(two, ds)
    assert np.array_equal(l1, l2)


def test_train_dc_plan_order_does_not_change_linear_fusion_labels():
    ds = blob_dataset(n=100, n_features=8, seed=13, separation=3.0)
    base = [("pca", 2, 4), ("bcd", 2, 4)]
    swapped = [("bcd", 2, 4), ("pca", 2, 4)]
    kw = dict(local=LearnerSpec(type="linear", lam=1.0),
              global_=LearnerSpec(type="linear", lam=1e-8))
    la = predict_dc(train_dc(ds, base, seed=1, **kw), ds)[0]
    lb = predict_dc(train_dc(ds, swapped, seed=1, **kw), ds)[0]
    assert np.array_equal(la, lb)


def test_train_dc_stage_names_tag_errors(monkeypatch):
    ds = blob_dataset(n=40, n_features=30, seed=1)
    # trbf locals on 10-dimensional views with p=4 have J = C(14,4) = 1001
    # and need 32.4 MB, over a 12 MB budget (three quarters of 16 MiB), so
    # the memory guard fires inside local training
    monkeypatch.setattr(classify, "_physical_memory", lambda: 2**24)
    with pytest.raises(ConfigError, match="local training"):
        train_dc(ds, [("rd", 3, 10)],
                 local=LearnerSpec(type="trbf", p=4), seed=0)
    for method in ("pca", "bcd"):
        with pytest.raises(ConfigError, match="decomposition fitting"):
            train_dc(ds, [(method, 3, 10)],
                     guards=Guards(max_dense_features=8), seed=0)


def test_predict_dc_zero_score_maps_positive():
    ds = blob_dataset(n=40, n_features=4, seed=21)
    model = train_dc(ds, [("rd", 1, 4)],
                     global_=LearnerSpec(type="linear", lam=1.0), seed=0)
    # zero out the global model so every fused score is exactly 0
    model.global_model.weights[:] = 0.0
    model.global_model.bias = 0.0
    labels, scores = predict_dc(model, ds)
    assert np.array_equal(scores, np.zeros(ds.n_instances))
    assert np.array_equal(labels, np.ones(ds.n_instances, dtype=np.int64))


def test_train_dc_timing_keys():
    ds = blob_dataset(n=60, n_features=8, seed=2)
    plan = [("rd", 1, 4), ("pca", 1, 4)]
    with recording() as t:
        model = train_dc(ds, plan, seed=0)
    assert list(t) == ["fit_rd", "fit_pca", "fit_decomposition",
                       "local_training", "fusion"]
    assert all(seconds >= 0.0 for seconds in t.values())
    assert t["fit_decomposition"] >= t["fit_rd"] + t["fit_pca"] - 1e-9
    assert not hasattr(model, "fit_timings")
    # outside a recording the stages keep nothing for the next one
    train_dc(ds, plan, seed=0)
    with recording() as later:
        pass
    assert later == {}


def test_train_dc_accepts_matrix_predictions():
    ds = blob_dataset(n=50, n_features=6, seed=8)
    model = train_dc(ds, [("rd", 2, 3)], seed=0)
    from_ds = predict_dc(model, ds)[1]
    from_mat = predict_dc(model, ds.X)[1]
    assert np.array_equal(from_ds, from_mat)


def test_train_dc_densifies_dense_data_once(monkeypatch):
    from featdc import decompose

    ds = blob_dataset(n=80, n_features=8, seed=12)
    plan = [("rd", 2, 4), ("pca", 2, 4), ("dca", 2, 4), ("bcd", 2, 4),
            ("abd", 2, 4)]
    calls = []
    densify = decompose._densify

    def counting(x):
        calls.append(x.shape)
        return densify(x)

    monkeypatch.setattr(decompose, "_densify", counting)
    train_dc(ds, plan, seed=1)
    assert calls == [(8, 80)]


def test_predict_dc_sparse_and_dense_query_same_bits():
    ds = blob_dataset(n=90, n_features=8, seed=13, separation=3.0)
    model = train_dc(ds, [("rd", 2, 4), ("pca", 2, 4), ("abd", 2, 4)],
                     seed=2)
    # single columns (n = 1) and the whole set, as CSC and as CSR
    for query in [ds.X[:, [k]] for k in (0, 41, 89)] + [ds.X]:
        assert query.format == "csc"
        dense_scores = predict_dc(model, query.toarray())[1]
        assert dense_scores.shape == (query.shape[1],)
        for form in (query, sp.csr_array(query)):
            sparse_scores = predict_dc(model, form)[1]
            assert sparse_scores.tobytes() == dense_scores.tobytes()


def test_train_dc_rejects_bad_input():
    with pytest.raises(DataError):
        train_dc(np.ones((3, 4)), [("rd", 1, 3)], seed=0)


# ---------------------------------------------------------------------------
# collapsed linear scorer


def per_view(model):
    """The same model scored through its subspace views."""
    twin = copy.copy(model)
    twin.at = twin.b = None
    return twin


def sparse_dataset(n=120, n_features=11, seed=0):
    # density 0.3 keeps X sparse at the `_as_matrix` gate
    rng = np.random.default_rng(seed)
    x = sp.random(n_features, n, density=0.3, random_state=rng,
                  data_rvs=rng.standard_normal, format="csc")
    y = np.where(rng.normal(size=n_features) @ x.toarray() >= 0, 1, -1)
    return Dataset(sp.csc_array(x), y.astype(np.int64))


# 11 features: the 3-group bcd/abd entries pad to 3 x 4 = 12 coordinates
COLLAPSE_PLANS = {
    "rd": [("rd", 3, 4)],
    "pca": [("pca", 3, 4)],
    "dca": [("dca", 3, 4)],
    "bcd": [("bcd", 3, 3)],
    "abd": [("abd", 3, 3)],
    "mixed": [("rd", 2, 4), ("pca", 2, 4), ("dca", 2, 4), ("bcd", 3, 3),
              ("abd", 3, 3)],
}


@pytest.mark.parametrize("data", ["dense", "sparse"])
@pytest.mark.parametrize("plan", COLLAPSE_PLANS)
def test_collapsed_r_matches_the_views(plan, data):
    ds = (blob_dataset(n=120, n_features=11, seed=4, separation=3.0)
          if data == "dense" else sparse_dataset(seed=4))
    model = train_dc(ds, COLLAPSE_PLANS[plan], seed=6)
    assert model.at.shape == (11, model.h) and model.at.flags.c_contiguous
    for part in model.decomposition.parts:
        if part.method in ("bcd", "abd"):
            assert part.n_features_out == 12
    x = ds.X
    queries = [x, x.toarray(), x[:, [7]], x[:, [7]].toarray(),
               x[:, 20:60], x[:, 20:60].toarray()]
    for q in queries:
        ref = build_r(model.locals, apply_decomposition(model.decomposition, q))
        r = local_scores(model, q)
        assert r.shape == ref.shape
        assert np.max(np.abs(r - ref)) <= 1e-12 * np.max(np.abs(ref))
        assert np.array_equal(predict_dc(model, q)[0],
                              predict_dc(per_view(model), q)[0])


def pulled_back(comp, weights):
    """Reference pullback, one formula per method, written independently
    of `apply_decomposition`: rd scatters w into its group's rows,
    pca/dca/bcd take w @ T[g], abd weights block j by V[j, i], and bcd/abd
    scatter back through `feature_order` and drop the padding rows."""
    m, cols, k = comp.n_features_in, [], 0
    for part in comp.parts:
        for i, g in enumerate(part.index_groups):
            w = weights[k]
            k += 1
            if part.method == "rd":
                u = np.zeros(m)
                u[g] = w
            elif part.method == "abd":
                u = np.concatenate([part.transform[j, i] * w
                                    for j in range(part.n_subspaces)])
            else:
                u = w @ part.transform[g]
            if part.feature_order is not None:
                padded = np.empty(part.n_features_out)
                padded[part.feature_order] = u
                u = padded[:m]
            cols.append(u)
    return np.column_stack(cols)


@pytest.mark.parametrize("data", ["dense", "sparse"])
@pytest.mark.parametrize("plan", COLLAPSE_PLANS)
def test_collapsed_map_equals_the_per_method_formulas(plan, data):
    ds = (blob_dataset(n=120, n_features=11, seed=4, separation=3.0)
          if data == "dense" else sparse_dataset(seed=4))
    model = train_dc(ds, COLLAPSE_PLANS[plan], seed=6)
    ref = pulled_back(model.decomposition, [m.weights for m in model.locals])
    assert model.at.dtype == ref.dtype and model.at.shape == ref.shape
    assert model.at.tobytes() == ref.tobytes()


def test_csr_query_scores_like_its_csc_form_without_converting(monkeypatch):
    # the gate counts a CSR query's CSC bytes without building its CSC form
    plan = COLLAPSE_PLANS["mixed"]
    on_sparse = train_dc(sparse_dataset(seed=4), plan, seed=6)
    on_dense = train_dc(blob_dataset(n=120, n_features=11, seed=4,
                                     separation=3.0), plan, seed=6)
    cases = [(on_sparse, sparse_dataset(seed=5).X, False),
             (on_dense, blob_dataset(n=40, n_features=11, seed=5).X[:, [7]],
              True)]

    def refuse(*args, **kwargs):
        raise AssertionError("CSR query converted to CSC")

    for model, q, densified in cases:
        assert q.format == "csc"
        ref = predict_dc(model, q)[1]
        csr = sp.csr_array(q)
        with monkeypatch.context() as patch:
            patch.setattr(sp.csr_array, "tocsc", refuse)
            assert sp.issparse(_as_matrix(q)) != densified
            got = _as_matrix(csr)
            if densified:
                assert got.flags.f_contiguous
                assert np.array_equal(got, q.toarray())
            else:
                assert got is csr
            assert predict_dc(model, csr)[1].tobytes() == ref.tobytes()


def test_predict_dc_builds_views_only_for_trbf_locals(monkeypatch):
    from featdc import fuse

    ds = blob_dataset(n=90, n_features=8, seed=7, separation=3.0)
    linear = train_dc(ds, [("rd", 2, 4), ("bcd", 2, 4), ("abd", 2, 4)],
                      seed=3)
    trbf = train_dc(ds, [("rd", 2, 4)], local=LearnerSpec(type="trbf", p=2),
                    seed=3)
    assert linear.at is not None and trbf.at is None
    calls = []
    apply = fuse.apply_decomposition

    def counting(comp, x):
        calls.append(x.shape)
        return apply(comp, x)

    monkeypatch.setattr(fuse, "apply_decomposition", counting)
    predict_dc(linear, ds)
    predict_dc(linear, ds.X[:, [3]])
    assert calls == []
    predict_dc(trbf, ds)
    assert calls == [(8, 90)]


@pytest.mark.parametrize("local", ["linear", "trbf"])
def test_predict_dc_wrong_feature_count_is_tagged(local):
    ds = blob_dataset(n=60, n_features=8, seed=2)
    model = train_dc(ds, [("rd", 2, 4)], local=LearnerSpec(type=local),
                     seed=0)
    with pytest.raises(DataError, match="prediction: data has 5 features but "
                                        "the decomposition was fitted on 8"):
        predict_dc(model, ds.X[:5])


@pytest.mark.parametrize("global_", ["linear", "trbf"])
def test_predict_dc_refuses_non_finite_queries(global_):
    ds = blob_dataset(n=60, n_features=8, seed=1)
    model = train_dc(ds, [("rd", 2, 4), ("pca", 2, 4)],
                     global_=LearnerSpec(type=global_), seed=0)
    dense = ds.X[:, :4].toarray()
    dense[3, 2] = np.nan
    sparse = sparse_dataset(n=40, n_features=8).X.copy()
    sparse.data[0] = np.inf
    for q in (dense, sparse):
        with pytest.raises(NumericError,
                           match="prediction: query features contain "
                                 "non-finite values"):
            predict_dc(model, q)


@pytest.mark.parametrize("method", METHODS)
@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_train_dc_refuses_non_finite_features_before_any_fit(method, bad):
    # one check before the moments pass, on the dense and the sparse
    # route alike: no method's fit sees the value, nor warns about it
    rng = np.random.default_rng(5)
    dense = rng.normal(size=(40, 60))
    dense[3, 7] = bad
    sparse = sp.random_array((40, 60), density=0.1, rng=rng, format="csc")
    sparse.data[7] = bad
    y = np.where(rng.random(60) < 0.5, 1, -1)
    for x in (dense, sparse):
        ds = Dataset(sp.csc_array(x), y)
        assert sp.issparse(_as_matrix(ds.X)) == sp.issparse(x)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericError,
                               match="^decomposition fitting: training "
                                     "features contain non-finite values$"):
                train_dc(ds, [(method, 4, 10)], seed=0)


@pytest.mark.parametrize("local", ["linear", "trbf"])
def test_feature_scale_scores_raw_features_as_scaled_ones(local):
    # the model divides raw features by its scale with the arithmetic of
    # apply_feature_scale, on either scoring route and for any query form
    ds = blob_dataset(n=90, n_features=8, seed=7, separation=3.0)
    scaled, scale = max_abs_scale(Dataset(ds.X * np.arange(1.0, 9.0)[:, None],
                                          ds.y))
    plan, spec = [("rd", 2, 4), ("pca", 2, 4)], LearnerSpec(type=local, p=2)
    plain = train_dc(scaled, plan, local=spec, seed=3)
    model = train_dc(scaled, plan, local=spec, seed=3, feature_scale=scale)
    assert (model.at is None) == (local == "trbf")
    query = blob_dataset(n=40, n_features=8, seed=8, separation=3.0)
    ref = predict_dc(plain, apply_feature_scale(query, scale))[1]
    assert not np.array_equal(ref, predict_dc(plain, query)[1])
    for q in (query, query.X.toarray(), sp.csr_array(query.X)):
        assert predict_dc(model, q)[1].tobytes() == ref.tobytes()


@pytest.mark.parametrize("change, message", [
    ({"feature_scale": np.r_[np.ones(7), np.nan]},
     "feature_scale holds a value that is not finite and positive"),
    ({"positive_label": True}, "positive_label True is neither a number nor "
                               "null"),
])
def test_dc_model_refuses_an_unusable_input_map(change, message):
    # what a library caller hands train_dc is checked like a model file
    model = train_dc(blob_dataset(n=60, n_features=8, seed=2), [("rd", 2, 4)],
                     seed=0)
    with pytest.raises(DataError, match=message):
        dataclasses.replace(model, **change)
    back = dataclasses.replace(model, feature_scale=[2] * 8,
                               positive_label=np.int64(2))
    assert back.feature_scale.dtype == np.float64
    assert back.positive_label == 2.0 and type(back.positive_label) is float


# ---------------------------------------------------------------------------
# train_dc as the composition of its public stages


@pytest.mark.parametrize("threads", [1, 2])
@pytest.mark.parametrize("plan", COLLAPSE_PLANS)
def test_train_dc_is_its_stages_composed(plan, threads):
    # each stage run on its own through the public functions, as a stage
    # replay runs them, gives train_dc's model to the bit
    from featdc.fuse import _role_seed, train_learner

    ds = blob_dataset(n=120, n_features=11, seed=4, separation=3.0)
    y = ds.y.astype(np.float64)
    local, global_ = LearnerSpec(type="linear"), LearnerSpec(type="trbf")
    model = train_dc(ds, COLLAPSE_PLANS[plan], local=local, global_=global_,
                     seed=6, threads=threads)
    guards = Guards()
    comp = CompositeDecomposition([
        fit_plan_entry(ds.X, y, entry, part_seed(6, i))
        for i, entry in enumerate(COLLAPSE_PLANS[plan])])
    views = apply_decomposition(comp, ds.X)
    locals_ = [train_learner(local, v, y, guards, _role_seed(6, "local", i))
               for i, v in enumerate(views)]
    r = build_r(locals_, views)
    shift, scale = standardize_rows(r)
    glob = train_learner(global_, apply_standardization(r, shift, scale), y,
                         guards, _role_seed(6, "global", 0))
    replay = DcModel(comp, locals_, glob, shift, scale)
    for got, ref in zip(model.decomposition.parts, comp.parts):
        for name in ("transform", "feature_order"):
            a, b = getattr(got, name), getattr(ref, name)
            assert (a is None and b is None) or a.tobytes() == b.tobytes()
    for got, ref in zip(model.locals, locals_):
        assert got.weights.tobytes() == ref.weights.tobytes()
        assert got.bias == ref.bias and got.solver == ref.solver == "dense"
    assert model.r_shift.tobytes() == shift.tobytes()
    assert model.r_scale.tobytes() == scale.tobytes()
    assert predict_dc(model, ds)[1].tobytes() == \
        predict_dc(replay, ds)[1].tobytes()


def one_class(ds):
    return Dataset(ds.X, np.ones(ds.n_instances, dtype=np.int64))


@pytest.mark.parametrize("method", ["rd", "pca", "bcd"])
def test_one_class_labels_train_and_predict(method):
    ds = blob_dataset(n=60, n_features=8, seed=3)
    model = train_dc(one_class(ds), [(method, 2, 4)], seed=0)
    for m in model.locals:
        assert np.array_equal(m.weights, np.zeros(4)) and m.bias == 1.0
    labels, scores = predict_dc(model, ds)
    assert np.all(np.isfinite(scores))


def test_one_class_dca_is_a_tagged_data_error():
    ds = one_class(blob_dataset(n=60, n_features=8, seed=3))
    with pytest.raises(DataError, match="decomposition fitting: within-class "
                                        "scatter needs both classes"):
        train_dc(ds, [("dca", 2, 4)], seed=0)


@pytest.mark.parametrize("form", ["dense", "csc"])
@pytest.mark.parametrize("huge", [1e160, 1e200, 1e308])
def test_overflowed_dca_is_a_tagged_numeric_error(huge, form):
    # one finite value whose square overflows: the moments, and the ridge
    # taken from them, are NaN, which the eigensolver refuses without a
    # warning on the dense and the sparse route alike
    rng = np.random.default_rng(8)
    x = rng.normal(size=(8, 40))
    if form == "csc":
        x *= rng.random(size=(8, 40)) < 0.2
    x[3, 17] = huge
    ds = Dataset(sp.csc_array(x), np.where(np.arange(40) % 2, 1, -1))
    assert sp.issparse(_as_matrix(ds.X)) == (form == "csc")
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(NumericError, match="^decomposition fitting: "):
            train_dc(ds, [("dca", 2, 3)], seed=0)


@pytest.mark.parametrize("method", METHODS)
def test_all_zero_features_train_every_method(method):
    ds = blob_dataset(n=60, n_features=8, seed=5)
    zero = Dataset(sp.csc_array(ds.X.shape), ds.y)
    model = train_dc(zero, [(method, 2, 4)], seed=0)
    for m in model.locals:
        assert np.array_equal(m.weights, np.zeros(4))
    for data in (zero, ds):
        assert np.all(np.isfinite(predict_dc(model, data)[1]))


# ---------------------------------------------------------------------------
# the config's rules and the library agree


# values that each config rule refuses, handed to the library instead
REFUSED = {
    "PlanEntry.method": ["fft", "", "PCA"],
    "PlanEntry.n_subspaces": [0, -2],
    "PlanEntry.group_size": [0, -3],
    "RunConfig.plan": [[]],
    "RunConfig.seed": [-1],
    "RunConfig.threads": [0, -4],
    "RunConfig.positive_label": [math.nan, math.inf],
    "RunConfig.n_features_override": [0, -1],
    "RunConfig.baseline": ["svm", "Linear"],
    "SplitSpec.train_fraction": [0.0, 1.0, math.nan],
    "SplitSpec.seed": [-1],
    "LearnerSpec.type": ["svm", ""],
    "LearnerSpec.lam": [0.0, -1.0, math.nan],
    "LearnerSpec.sigma": [0.0, -1.0, math.nan],
    "LearnerSpec.p": [0, -1],
    "Guards.max_dense_features": [0, -1],
}


def parse_two_lines(**kwargs):
    return parse_libsvm("1 1:0.5\n-1 2:1.5\n", **kwargs)


# the library calls other than train_dc that take a config key's value,
# with the error class each raises for a refused one
OTHER_CALLS = {
    "RunConfig.positive_label": (ConfigError,
                                 lambda v: parse_two_lines(positive_label=v)),
    "RunConfig.n_features_override": (ConfigError,
                                      lambda v: parse_two_lines(n_features=v)),
    "RunConfig.baseline": (ConfigError, lambda v: LearnerSpec(type=v)),
    "LearnerSpec.type": (ConfigError, lambda v: LearnerSpec(type=v)),
    "SplitSpec.train_fraction": (DataError, lambda v: SplitSpec(v)),
    "SplitSpec.seed": (DataError, lambda v: SplitSpec(0.5, seed=v)),
}
# the keys whose values reach train_dc only through another call
NOT_TRAIN_DC = set(OTHER_CALLS) - {"RunConfig.positive_label"}


def refused_cases():
    """(config key, refused value, train_dc keywords) for every value of
    REFUSED that train_dc takes: a plan entry field for each method,
    behind a good entry; an empty plan, the run seed, threads and the
    positive label on an rd plan; a TRBF learner's lam, sigma and p, as
    the locals and as the global; and the guards."""
    for key, values in REFUSED.items():
        cls, name = key.split(".")
        if key in NOT_TRAIN_DC:
            continue
        for value in values:
            if cls == "PlanEntry":
                for method in (["rd"] if name == "method" else METHODS):
                    entry = dataclasses.replace(PlanEntry(method, 2, 3),
                                                **{name: value})
                    tag = "" if name == "method" else f"-{method}"
                    yield pytest.param(key, value,
                                       {"plan": [("rd", 2, 3), entry]},
                                       id=f"{key}={value!r}{tag}")
            elif cls == "RunConfig":
                yield pytest.param(key, value, {"plan": [("rd", 2, 3)],
                                                name: value},
                                   id=f"{key}={value!r}-rd")
            elif cls == "Guards":
                yield pytest.param(key, value,
                                   {"plan": [("rd", 2, 3)],
                                    "guards": Guards(**{name: value})},
                                   id=f"{key}={value!r}")
            else:
                spec = LearnerSpec(type="trbf", **{name: value})
                for role in ("local", "global_"):
                    yield pytest.param(key, value, {"plan": [("rd", 2, 3)],
                                                    role: spec},
                                       id=f"{key}={value!r}-{role}")


@pytest.mark.parametrize("key, value, kwargs", list(refused_cases()))
def test_train_dc_refuses_what_the_config_refuses(key, value, kwargs):
    # a library caller gets the ConfigError a config file would get, tagged
    # with its stage, and no other exception
    assert RULES[key](value) is not None
    kwargs = {"seed": 0, **kwargs}
    with pytest.raises(ConfigError, match=r"^(decomposition fitting|local "
                                          r"training|fusion): "):
        train_dc(blob_dataset(n=60, n_features=6, seed=1), **kwargs)


@pytest.mark.parametrize("key, error, call", [
    pytest.param(key, *OTHER_CALLS[key], id=key) for key in OTHER_CALLS])
def test_other_calls_refuse_what_the_config_refuses(key, error, call):
    for value in REFUSED[key]:
        assert RULES[key](value) is not None
        with pytest.raises(error, match=re.escape(RULES[key](value))):
            call(value)


def test_every_config_rule_is_taken_by_the_library():
    # a rule added to the config without a library counterpart, or without
    # refused values here, fails this test
    assert set(REFUSED) == set(RULES)
    taken = {case.values[0] for case in refused_cases()} | set(OTHER_CALLS)
    assert taken == set(RULES)


def test_a_value_a_rule_cannot_compare_is_refused():
    # a library caller can pass any type; the rule's comparison failing is
    # a refusal with the rule's name, not a TypeError traceback
    ds = blob_dataset(n=60, n_features=6, seed=1)
    for kwargs, message in (
            ({"threads": "2"}, "local training: threads has the wrong type, "
                               "got '2'"),
            ({"positive_label": "x"}, "fusion: positive_label has the wrong "
                                      "type, got 'x'")):
        with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
            train_dc(ds, [("rd", 2, 3)], **kwargs)


@pytest.mark.parametrize("kwargs", [
    {"global_": LearnerSpec(type="trbf", sigma=0.0)},
    {"local": LearnerSpec(type="trbf", lam=-1.0)},
    {"threads": 0},
    {"guards": Guards(max_dense_features=0)},
    {"positive_label": math.nan},
], ids=["global", "local", "threads", "guards", "positive_label"])
def test_train_dc_refuses_before_fitting_anything(kwargs, monkeypatch):
    # threads, guards, label and both specs are checked before the
    # data is touched: nothing is recorded, no moments pass runs, and the
    # training matrix is never densified
    def unreached(*args):
        raise AssertionError("training began before the checks")

    ds = blob_dataset(n=60, n_features=6, seed=1)
    monkeypatch.setattr(decompose, "class_moments", unreached)
    monkeypatch.setattr(fuse, "_as_matrix", unreached)
    with recording() as timings, pytest.raises(ConfigError):
        train_dc(ds, [("pca", 2, 3), ("dca", 2, 3)], seed=0, **kwargs)
    assert timings == {}


@pytest.mark.parametrize("plan, seed", [
    ([("pca", 2, 3), ("bcd", 2, 0)], 0),
    ([("pca", 2, 3), ("abd", 0, 3)], 0),
    ([("pca", 2, 3), ("fft", 2, 3)], 0),
    ([("pca", 2, 3), ("rd", 2, 3)], -1),
])
def test_fit_plan_refuses_before_fitting_any_entry(plan, seed, monkeypatch):
    # every entry and the seed are checked before the moments pass and the
    # first fit: nothing is recorded and class_moments is never reached
    def unreached(*args):
        raise AssertionError("the moments pass ran before the checks")

    ds = blob_dataset(n=60, n_features=6, seed=1)
    monkeypatch.setattr(decompose, "class_moments", unreached)
    with recording() as timings, pytest.raises(ConfigError):
        fit_plan(ds.X, ds.y.astype(np.float64), plan, seed)
    assert timings == {}  # no fit_pca, nor any other stage


def test_direct_calls_take_the_same_plan_entry_rule():
    ds = blob_dataset(n=60, n_features=6, seed=1)
    x, y, rng = ds.X, ds.y.astype(np.float64), np.random.default_rng(0)
    for call in (lambda: fit_pca(x, 0, 3),
                 lambda: fit_pca(x, 2, 0),
                 lambda: fit_dca(x, y, n_subspaces=0, group_size=3),
                 lambda: make_rd(6, 2, 0, seed=0),
                 lambda: overlapping_groups(6, 2, 0, rng),
                 lambda: overlapping_groups(6, 0, 3, rng),
                 lambda: disjoint_groups(6, 0, 3, rng),
                 lambda: disjoint_groups(6, 2, 0, rng),
                 lambda: part_seed(-1, 0)):
        with pytest.raises(ConfigError):
            call()
