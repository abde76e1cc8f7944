"""End-to-end acceptance gate.

Each test covers one numbered acceptance criterion, checks the stated
tolerances, enforces its runtime budget, and prints one PASS line
(run with -s to see them stream).

The two experiment-scale checks run on bundled synthetic stand-ins that
mirror the benchmark shapes (54 dense features / 47,236 sparse features).
Point FEATDC_COVTYPE_PATH / FEATDC_RCV1_PATH at real libsvm files to run
them on the original data instead.
"""

import math
import os
import time

import numpy as np
import scipy.sparse as sp

from featdc.classify import (label_from_score, train_linear, train_trbf_krr,
                             trbf_dim, trbf_expand, trbf_indices)
from featdc.dataio import (Dataset, SplitSpec, load_libsvm, max_abs_scale,
                           parse_libsvm, select_instances, serialize_libsvm,
                           split)
from featdc.datasets import make_quadratic_band, make_sparse_planted
from featdc.decompose import (apply_decomposition, block_gram,
                              disjoint_groups, feature_scatter, fit_abd,
                              fit_bcd, fit_dca, fit_pca, fit_plan, make_rd,
                              within_class_scatter)
from featdc.errors import DataError, ParseError, ValidationError
from featdc.fuse import LearnerSpec, evaluate, predict_dc, train_dc

from oracles import abd_dense_transform, make_blobs, truncated_rbf_kernel


def _groups(m, k):
    bounds = np.linspace(0, m, k + 1).astype(np.int64)
    return [np.arange(bounds[i], bounds[i + 1]) for i in range(k)]


def _dense_bcd_oracle(x, groups):
    order = np.concatenate(groups)
    xr = x[order]
    s = xr @ xr.T
    m = order.size
    offsets = np.cumsum([0] + [len(g) for g in groups])
    w = np.eye(m)
    for i in range(len(groups) - 1):
        piv = slice(offsets[i], offsets[i + 1])
        below = slice(offsets[i + 1], m)
        b = np.eye(m)
        b[below, piv] = -s[below, piv] @ np.linalg.inv(s[piv, piv])
        s = b @ s @ b.T
        w = b @ w
    return w, s


def test_criterion_1_decomposition_properties():
    t_start = time.perf_counter()
    rng = np.random.default_rng(20240801)
    for trial in range(50):
        m = 4 * int(rng.integers(2, 17))           # M <= 64, 4 groups fit
        n = int(rng.integers(m + 2, 513))          # N <= 512
        x = rng.normal(size=(m, n)) * rng.uniform(0.5, 2.0)
        y = np.where(rng.random(n) < 0.5, 1, -1)
        if np.unique(y).size < 2:
            y[0] = -y[0]
        groups = _groups(m, 4)

        # pca: transformed scatter diagonal
        s_c = feature_scatter(x, center=True)
        norm_c = np.linalg.norm(s_c)
        pca = fit_pca(x, 4, m // 4, seed=trial)
        d = pca.transform @ s_c @ pca.transform.T
        assert np.linalg.norm(d - np.diag(np.diag(d))) <= 1e-8 * norm_c

        # dca: generalized eigenpair residual, per pair
        dca = fit_dca(x, y, n_subspaces=4, group_size=m // 4)
        sw = within_class_scatter(x, y)
        rho = dca.fit_stats["ridge"]
        b = sw + rho * np.eye(m)
        for k in range(m):
            v = dca.transform[k]
            res = np.linalg.norm(s_c @ v - dca.eigenvalues[k] * (b @ v))
            assert res <= 1e-6, f"dca residual {res:.3e} at trial {trial}"

        # bcd: off-diagonal blocks gone, and equal to the dense oracle
        s_u = feature_scatter(x, center=False)
        norm_u = np.linalg.norm(s_u)
        bcd = fit_bcd(x, groups)
        final = bcd.transform @ s_u @ bcd.transform.T
        mask = np.ones((m, m), dtype=bool)
        for g in groups:
            mask[np.ix_(g, g)] = False
        assert np.linalg.norm(final[mask]) <= 1e-8 * norm_u
        w_ref, s_ref = _dense_bcd_oracle(x, groups)
        assert np.abs(bcd.transform - w_ref).max() <= 1e-8 * (1 + norm_u)
        assert np.linalg.norm(final - s_ref) <= 1e-8 * (1 + norm_u)

        # abd: orthogonal transform, block gram diagonalized
        abd = fit_abd(x, groups)
        w = abd_dense_transform(abd)
        assert np.linalg.norm(w @ w.T - np.eye(m)) <= 1e-10
        gram2, _, _, _ = block_gram(w @ x, groups)
        off = gram2 - np.diag(np.diag(gram2))
        assert np.linalg.norm(off) <= 1e-8 * np.linalg.norm(gram2)

    elapsed = time.perf_counter() - t_start
    assert elapsed < 60.0
    print(f"criterion 1 PASS: 50 datasets, all transform residuals in "
          f"tolerance ({elapsed:.1f}s < 60s)")


def test_criterion_2_trbf_correctness():
    t_start = time.perf_counter()
    # expansion length law for every m <= 24, p <= 4
    for m in range(1, 25):
        for p in range(1, 5):
            j = trbf_dim(m, p)
            assert j == math.comb(m + p, p)
            assert len(trbf_indices(m, p)) == j

    # feature-map dot products match the truncated kernel on 1,000 pairs
    rng = np.random.default_rng(7)
    checked = 0
    while checked < 1000:
        m = int(rng.integers(1, 10))
        p = int(rng.integers(1, 5))
        sigma = float(rng.uniform(0.5, 2.0))
        x = rng.normal(size=(m, 25))
        y = rng.normal(size=(m, 25))
        zx = trbf_expand(x, sigma=sigma, p=p)
        zy = trbf_expand(y, sigma=sigma, p=p)
        dots = (zx * zy).sum(axis=0)
        for j in range(25):
            ref = truncated_rbf_kernel(x[:, j], y[:, j], sigma=sigma, p=p)
            assert abs(dots[j] - ref) <= 1e-8 * max(1.0, abs(ref))
        checked += 25

    # intrinsic-path KRR equals the dual kernel-form oracle
    for trial in range(6):
        m = int(rng.integers(1, 6))
        n = int(rng.integers(15, 51))            # N <= 50
        p = int(rng.integers(1, 4))
        lam = float(rng.uniform(0.1, 2.0))
        sigma = float(rng.uniform(0.8, 1.6))
        x = rng.normal(size=(m, n))
        y = np.where(rng.random(n) < 0.5, 1.0, -1.0)
        model = train_trbf_krr(x, y, lam=lam, sigma=sigma, p=p)
        k = np.empty((n, n))
        for i in range(n):
            for j in range(n):
                k[i, j] = truncated_rbf_kernel(x[:, i], x[:, j],
                                               sigma=sigma, p=p)
        alpha = np.linalg.solve(k + lam * np.eye(n), y)
        xq = rng.normal(size=(m, 20))
        kq = np.array([[truncated_rbf_kernel(xq[:, i], x[:, j],
                                             sigma=sigma, p=p)
                        for j in range(n)] for i in range(20)])
        ref = kq @ alpha
        got = model.decision_function(xq)
        assert np.abs(got - ref).max() <= 1e-6 * max(1.0, np.abs(ref).max())

    elapsed = time.perf_counter() - t_start
    assert elapsed < 30.0
    print(f"criterion 2 PASS: dimension law, 1000 kernel pairs, "
          f"intrinsic == dual ({elapsed:.1f}s < 30s)")


def test_criterion_3_collapse_and_determinism():
    t_start = time.perf_counter()
    # h=1 identity pipeline reproduces the direct classifier exactly
    for seed in range(10):
        ds = make_blobs(80 + 10 * seed, n_features=6, separation=4.0,
                        seed=seed)
        model = train_dc(ds, [("rd", 1, 6)],
                         local=LearnerSpec(type="linear", lam=1.0),
                         global_=LearnerSpec(type="linear", lam=1e-8),
                         seed=seed)
        labels, _ = predict_dc(model, ds)
        direct = train_linear(ds.X, ds.y.astype(np.float64), lam=1.0)
        ref = label_from_score(direct.decision_function(ds.X))
        assert np.array_equal(labels, ref), f"collapse mismatch at {seed}"

    # full pipeline: bit-stable across 3 runs, 1e-12 across threads {1,4}
    ds = make_blobs(400, n_features=16, separation=2.0, seed=123)
    plan = [("rd", 2, 8), ("pca", 2, 8), ("dca", 2, 8), ("bcd", 2, 8),
            ("abd", 2, 8)]
    scores = []
    for _ in range(3):
        model = train_dc(ds, plan, seed=5, threads=1)
        scores.append(predict_dc(model, ds, threads=1)[1])
    assert np.array_equal(scores[0], scores[1])
    assert np.array_equal(scores[1], scores[2])
    m4 = train_dc(ds, plan, seed=5, threads=4)
    s4 = predict_dc(m4, ds, threads=4)[1]
    assert np.abs(scores[0] - s4).max() <= 1e-12

    elapsed = time.perf_counter() - t_start
    assert elapsed < 60.0
    print(f"criterion 3 PASS: 10 exact collapses, bit-stable runs, "
          f"thread-invariant scores ({elapsed:.1f}s < 60s)")


def _covtype_surrogate():
    full = make_quadratic_band(25000, n_features=54, seed=2024)
    rng = np.random.default_rng(77)
    perm = rng.permutation(25000)
    train = select_instances(full, np.sort(perm[:20000]))
    test = select_instances(full, np.sort(perm[20000:]))
    return train, test, "synthetic stand-in (54 dense features)"


def _covtype_real(path):
    ds = load_libsvm(path, positive_label=2)
    ds, _ = max_abs_scale(ds)
    rng = np.random.default_rng(77)
    perm = rng.permutation(ds.n_instances)
    train = select_instances(ds, np.sort(perm[:20000]))
    test = select_instances(ds, np.sort(perm[20000:25000]))
    return train, test, f"real data at {path}"


def test_criterion_4_covtype_scale_experiment():
    t_start = time.perf_counter()
    real = os.environ.get("FEATDC_COVTYPE_PATH")
    train, test, source = _covtype_real(real) if real else _covtype_surrogate()
    assert train.n_instances == 20000 and test.n_instances == 5000

    plan = [("rd", 4, 40), ("pca", 4, 40), ("dca", 4, 40),
            ("bcd", 4, 27), ("abd", 4, 27)]
    model = train_dc(train, plan, local=LearnerSpec(type="linear"),
                     global_=LearnerSpec(type="trbf", p=2), seed=7,
                     threads=2)
    assert model.h == 20
    labels, _ = predict_dc(model, test, threads=2)
    err_dc = evaluate(labels, test.y)["error_rate_pct"]

    base = train_linear(train.X, train.y.astype(np.float64), lam=None)
    base_labels = label_from_score(base.decision_function(test.X))
    err_base = evaluate(base_labels, test.y)["error_rate_pct"]

    assert err_dc <= err_base + 0.5, (
        f"dc {err_dc:.2f}% vs linear baseline {err_base:.2f}%")
    assert err_dc <= 30.0, f"dc error {err_dc:.2f}% above 30%"
    elapsed = time.perf_counter() - t_start
    assert elapsed < 300.0
    print(f"criterion 4 PASS: dc {err_dc:.2f}% <= baseline {err_base:.2f}% "
          f"+ 0.5pp on {source} ({elapsed:.1f}s < 300s)")


def _rcv1_surrogate():
    ds = make_sparse_planted(20242, n_features=47236, n_signal=500,
                             seed=97, margin=0.5)
    return ds, "synthetic stand-in (47,236 sparse features)"


def _rcv1_real(path):
    ds = load_libsvm(path, n_features=47236)
    if ds.n_instances > 20242:
        rng = np.random.default_rng(97)
        keep = np.sort(rng.permutation(ds.n_instances)[:20242])
        ds = select_instances(ds, keep)
    return ds, f"real data at {path}"


def test_criterion_5_rcv1_scale_experiment():
    t_start = time.perf_counter()
    real = os.environ.get("FEATDC_RCV1_PATH")
    ds, source = _rcv1_real(real) if real else _rcv1_surrogate()
    assert ds.n_instances == 20242

    train, valid = split(ds, SplitSpec(train_fraction=0.9, seed=5))
    plan = [("rd", 4, 23618), ("abd", 4, 11809)]
    model = train_dc(train, plan, local=LearnerSpec(type="linear", lam=1.0),
                     global_=LearnerSpec(type="trbf", p=3), seed=31,
                     threads=2)
    assert model.h == 8
    assert trbf_dim(model.h, 3) == math.comb(11, 3) == 165
    labels, _ = predict_dc(model, valid, threads=2)
    err = evaluate(labels, valid.y)["error_rate_pct"]

    assert err <= 8.0, f"validation error {err:.2f}% above 8%"
    elapsed = time.perf_counter() - t_start
    assert elapsed < 600.0
    print(f"criterion 5 PASS: h=8, J=165 under guard, error {err:.2f}% "
          f"<= 8% on {source} ({elapsed:.1f}s < 600s)")


def test_criterion_6_bcd_vs_pca_scaling_trend():
    # BCD's per-block eliminations should grow no faster than PCA's full
    # eigendecomposition as M rises; compare median fit times at N = 2M so
    # the cubic terms are not drowned by the shared scatter cost
    def median_fit_seconds(fit, trials=5):
        times = []
        for _ in range(trials):
            t0 = time.perf_counter()
            fit()
            times.append(time.perf_counter() - t0)
        return float(np.median(times))

    ratios = []
    for m in (32, 64, 128):
        rng = np.random.default_rng(1000 + m)
        x = rng.normal(size=(m, 2 * m))
        groups = _groups(m, 4)
        fit_bcd(x, groups)                    # warm-up both paths
        fit_pca(x, 4, m // 4, seed=0)
        t_bcd = median_fit_seconds(lambda: fit_bcd(x, groups))
        t_pca = median_fit_seconds(lambda: fit_pca(x, 4, m // 4, seed=0))
        ratios.append(t_bcd / t_pca)

    for k in range(len(ratios) - 1):
        assert ratios[k + 1] <= ratios[k] * 1.05, (
            f"bcd/pca time ratio rose: {ratios}")
    print(f"criterion 6 PASS: bcd/pca fit-time ratio non-increasing over "
          f"M=32,64,128: {[f'{r:.2f}' for r in ratios]}")


MALFORMED = [
    ("", ParseError),                          # empty file
    ("\n   \n", ParseError),                   # only blank lines
    ("abc 1:1.0\n", ParseError),               # unreadable label
    ("1:1.0 2:2.0\n", ParseError),             # missing label column
    ("+1 2\n", ParseError),                    # token without colon
    ("+1 x:1.0\n", ParseError),                # unreadable index
    ("+1 2:abc\n", ParseError),                # unreadable value
    ("+1 0:1.0\n", ValidationError),           # indices are 1-based
    ("+1 2:1.0 1:2.0\n", ValidationError),     # non-ascending indices
    ("+1 1:inf\n", ValidationError),           # non-finite value
]


def test_criterion_7_ingestion_round_trip_and_rejection():
    t_start = time.perf_counter()
    rng = np.random.default_rng(424242)
    awkward = np.array([5e-324, -0.0, 1.7976931348623157e308,
                        2.2250738585072014e-308, 0.1, 1 / 3])
    for trial in range(1000):
        m = int(rng.integers(1, 30))
        n = int(rng.integers(2, 30))
        density = rng.uniform(0.1, 0.9)
        dense = rng.normal(size=(m, n)) * (rng.random(size=(m, n)) < density)
        if trial % 7 == 0:  # sprinkle edge-case values
            dense[dense != 0] = rng.choice(awkward, size=(dense != 0).sum())
        y = np.where(rng.random(n) < 0.5, 1, -1)
        y[0], y[1] = 1, -1                       # both classes present
        keep = np.asarray((dense != 0).sum(axis=0)).ravel() > 0
        keep[:2] = True
        ds = Dataset(sp.csc_array(dense[:, keep]), y[keep])
        text = serialize_libsvm(ds)
        back = parse_libsvm(text.splitlines(True), n_features=m)
        assert np.array_equal(back.y, ds.y)
        a, b = ds.X, back.X
        assert np.array_equal(a.indptr, b.indptr)
        assert np.array_equal(a.indices, b.indices)
        assert np.array_equal(a.data, b.data)    # bit-exact round trip

    for text, err_class in MALFORMED:
        try:
            parse_libsvm(text.splitlines(True))
        except err_class:
            pass
        except DataError as exc:
            raise AssertionError(
                f"{text!r} raised {type(exc).__name__}, "
                f"expected {err_class.__name__}") from exc
        else:
            raise AssertionError(f"{text!r} was accepted")

    elapsed = time.perf_counter() - t_start
    print(f"criterion 7 PASS: 1000 bit-exact round trips, 10 malformed "
          f"inputs rejected with documented classes ({elapsed:.1f}s)")
