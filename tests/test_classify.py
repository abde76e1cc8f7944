import math
import re
import sys
import threading
import tracemalloc

import numpy as np
import pytest
import scipy.sparse as sp

import featdc.classify as classify
from featdc.classify import (EXPAND_CHUNK, GRAM_BLOCK, default_lam,
                             label_from_score, sigma_heuristic, train_linear,
                             train_trbf_krr, trbf_dim, trbf_expand,
                             trbf_indices, TrbfModel)
from featdc.datasets import make_quadratic_band
from featdc.decompose import _as_matrix, block_gram
from featdc.errors import ConfigError, DataError, NumericError
from featdc.fuse import LearnerSpec, train_dc
from featdc.persist import load_dc_model, save_dc_model

from oracles import make_blobs, truncated_rbf_kernel


# ---------------------------------------------------------------------------
# regularized least squares


def test_train_linear_separable_pair_small_lam():
    # two points at x = +-1, labels matching sign: with lam -> 0 the
    # least-squares fit passes through both, so w ~ 1, b ~ 0
    x = np.array([[1.0, -1.0]])
    y = np.array([1, -1])
    model = train_linear(x, y, lam=1e-12)
    assert abs(model.weights[0] - 1.0) <= 1e-6
    assert abs(model.bias) <= 1e-9


def test_train_linear_hand_ridge_value():
    # same pair with lam=1: minimize (w-1)^2 + (-w+1)^2 ... with bias free
    # the optimum is b=0, w = 2/(2+1) = 2/3
    x = np.array([[1.0, -1.0]])
    y = np.array([1, -1])
    model = train_linear(x, y, lam=1.0)
    assert abs(model.bias) <= 1e-10
    assert abs(model.weights[0] - 2.0 / 3.0) <= 1e-10


def test_train_linear_gradient_at_solution():
    # stationarity of 0.5*||X^T w + b - y||^2 + 0.5*lam*||w||^2
    rng = np.random.default_rng(0)
    for trial in range(12):
        d = int(rng.integers(1, 20))
        n = int(rng.integers(d + 1, 80))
        x = rng.normal(size=(d, n))
        y = np.where(rng.random(n) < 0.5, 1.0, -1.0)
        lam = float(rng.uniform(0.01, 5.0))
        model = train_linear(x, y, lam=lam)
        r = x.T @ model.weights + model.bias - y
        grad_w = x @ r + lam * model.weights
        grad_b = r.sum()
        scale = 1 + np.linalg.norm(x @ y)
        assert np.linalg.norm(grad_w) <= 1e-6 * scale
        assert abs(grad_b) <= 1e-6 * scale


def test_train_linear_bias_is_unregularized():
    # shifting all labels by a constant shifts only the bias
    rng = np.random.default_rng(1)
    x = rng.normal(size=(3, 40))
    y = np.where(rng.random(40) < 0.5, 1.0, -1.0)
    m1 = train_linear(x, y, lam=0.5)
    m2 = train_linear(x, y + 10.0, lam=0.5)
    assert np.allclose(m1.weights, m2.weights, atol=1e-8)
    assert abs((m2.bias - m1.bias) - 10.0) <= 1e-8


def test_train_linear_lsmr_matches_dense():
    rng = np.random.default_rng(2)
    x = rng.normal(size=(30, 200))
    y = np.where(rng.random(200) < 0.5, 1.0, -1.0)
    dense = train_linear(x, y, lam=2.0, max_dense=4096)
    tall = train_linear(sp.csc_array(x), y, lam=2.0, max_dense=8)
    assert tall.solver == "lsmr" and dense.solver == "dense"
    assert np.allclose(dense.weights, tall.weights, atol=1e-7)
    assert abs(dense.bias - tall.bias) <= 1e-7


def normal_equation_residual(x, y, model):
    """Relative residual of (X_c X_c^T + lam I) w = X_c y_c, read on the
    model's (unscaled) weights with dense arithmetic."""
    x = x.toarray() if sp.issparse(x) else np.asarray(x, dtype=np.float64)
    xc = x - x.mean(axis=1, keepdims=True)
    yc = y - y.mean()
    rhs = xc @ yc
    w = model.weights
    r = xc @ (xc.T @ w) + model.lam * w - rhs
    return np.linalg.norm(r) / (1.0 + np.linalg.norm(rhs))


def test_train_linear_lsmr_matches_dense_on_badly_scaled_rows():
    # feature rows scaled from 1e-3 to 1e3: the column-scaled LSMR route
    # still lands on the Cholesky solution and passes the residual gate
    rng = np.random.default_rng(12)
    x = rng.normal(size=(30, 200)) * (rng.random((30, 200)) < 0.3)
    x *= np.logspace(-3, 3, 30)[:, None]
    y = np.where(rng.random(200) < 0.5, 1.0, -1.0)
    dense = train_linear(x, y, lam=2.0, max_dense=4096)
    for xs in (sp.csc_array(x), sp.csr_array(x)):
        tall = train_linear(xs, y, lam=2.0, max_dense=8)
        assert tall.solver == "lsmr" and dense.solver == "dense"
        assert np.allclose(dense.weights, tall.weights, atol=1e-7)
        assert abs(dense.bias - tall.bias) <= 1e-7
        assert normal_equation_residual(xs, y, tall) <= 1e-8


def test_train_linear_lsmr_degenerate_rows():
    rng = np.random.default_rng(13)
    n, lam = 200, 0.1
    x = rng.normal(size=(12, n)) * (rng.random((12, n)) < 0.4)
    x[3] = 0.0               # all-zero row: its diagonal is lam alone
    x[7] = 1e6 + 0.3         # constant row: its centered square sum cancels
    y = np.where(rng.random(n) < 0.5, 1.0, -1.0)
    xs = sp.csr_array(x)
    # the cancellation lands below -lam, so the diagonal needs the clamp
    centered = classify._row_sumsq(xs) - n * np.asarray(xs.mean(axis=1)) ** 2
    assert centered[7] < -lam
    for data in (xs, sp.csc_array(x), x):  # x: the dense einsum branch
        model = train_linear(data, y, lam=lam, max_dense=4)
        assert model.solver == "lsmr"
        assert np.all(np.isfinite(model.weights)) and np.isfinite(model.bias)
        assert model.weights[3] == 0.0
        assert normal_equation_residual(x, y, model) <= 1e-8


def test_row_sumsq_matches_dense_across_blocks(monkeypatch):
    monkeypatch.setattr(classify, "SUMSQ_BLOCK", 3)
    rng = np.random.default_rng(14)
    x = rng.normal(size=(11, 7)) * (rng.random((11, 7)) < 0.5)
    x[4] = 0.0
    expected = np.einsum("ij,ij->i", x, x)
    for fmt in (sp.csr_array, sp.csc_array, sp.coo_array):
        assert np.allclose(classify._row_sumsq(fmt(x)), expected,
                           rtol=1e-15, atol=0.0)


def test_train_linear_ridge_shrinks_weights():
    rng = np.random.default_rng(3)
    x = rng.normal(size=(5, 60))
    y = np.where(rng.random(60) < 0.5, 1.0, -1.0)
    norms = [np.linalg.norm(train_linear(x, y, lam=lam).weights)
             for lam in (0.01, 1.0, 100.0)]
    assert norms[0] >= norms[1] >= norms[2]


def test_train_linear_validation():
    x = np.ones((2, 3))
    with pytest.raises(DataError):
        train_linear(x, np.array([1, -1]), lam=1.0)  # label count
    with pytest.raises(ConfigError):
        train_linear(x, np.array([1, -1, 1]), lam=0.0)
    with pytest.raises(NumericError):
        bad = np.array([[np.nan, 0.0, 1.0]])
        train_linear(bad, np.array([1, -1, 1]), lam=1.0)


def trbf_p2(x, y, lam=1.0):
    return train_trbf_krr(x, y, sigma=1.0, p=2, lam=lam)


@pytest.mark.parametrize("x, y, lam, error, message", [
    (np.ones((2, 3)), [1, -1], 1.0, DataError, "3 instances but 2 labels"),
    (np.array([[np.nan, 0.0, 1.0]]), [1, -1, 1], 1.0, NumericError,
     "training features contain non-finite values"),
    (sp.csc_array(np.array([[np.inf, 0.0, 0.0, 0.0]])), [1, -1, 1, -1], 1.0,
     NumericError, "training features contain non-finite values"),
    (np.ones((2, 3)), [1, -1, 1], 0.0, ConfigError,
     "ridge parameter must be positive, got 0.0"),
    (np.ones((2, 3)), [1, -1, 1], math.nan, ConfigError,
     "ridge parameter must be positive, got nan"),
])
def test_learners_share_one_input_preamble(x, y, lam, error, message):
    for train in (train_linear, trbf_p2):
        with pytest.raises(error, match=message):
            train(x, np.array(y), lam=lam)


def test_models_share_one_width_check():
    x = np.ones((2, 4))
    y = np.array([1, -1, 1, -1])
    for model in (train_linear(x, y, lam=1.0), trbf_p2(x, y)):
        with pytest.raises(DataError, match="model expects 2 features, "
                                            "got 3"):
            model.decision_function(np.ones((3, 5)))


@pytest.mark.parametrize("sigma, p", [(0.0, 2), (math.nan, 2), (1.0, 0),
                                      (1.0, -1)])
def test_trbf_map_rule_is_one_rule(sigma, p):
    # the feature map and training refuse with a ConfigError, a model (as
    # read from a file) with a DataError; all three give the text of the
    # config's LearnerSpec rule that the value breaks
    text = (f"sigma must be positive, got {sigma}" if p == 2
            else f"p must be >= 1, got {p}")
    message = f"^{re.escape(text)}$"
    x = np.ones((2, 4))
    with pytest.raises(ConfigError, match=message):
        trbf_expand(x, sigma=sigma, p=p)
    with pytest.raises(ConfigError, match=message):
        train_trbf_krr(x, np.array([1, -1, 1, -1]), sigma=sigma, p=p)
    with pytest.raises(DataError, match=message):
        TrbfModel(weights=np.zeros(6), sigma=sigma, p=p, lam=1.0, n_features=2)


def test_default_lam_scales_with_n():
    assert default_lam(1000) == pytest.approx(1.0)
    assert default_lam(1) == pytest.approx(1e-3)


def test_label_from_score_zero_is_positive():
    labels = label_from_score(np.array([-0.5, 0.0, 0.5]))
    assert np.array_equal(labels, [-1, 1, 1])


def test_predict_linear_matches_decision_function():
    rng = np.random.default_rng(4)
    x = rng.normal(size=(4, 50))
    y = np.where(rng.random(50) < 0.5, 1, -1)
    model = train_linear(x, y, lam=0.1)
    scores = model.decision_function(x)
    labels = model.predict(x)
    assert np.array_equal(labels, label_from_score(scores))


# ---------------------------------------------------------------------------
# truncated rbf feature map


def test_trbf_dim_binomial_law():
    for m in range(1, 25):
        for p in range(1, 5):
            assert trbf_dim(m, p) == math.comb(m + p, p)


def test_trbf_indices_count_and_degree():
    # each entry is the sorted tuple of coordinates a monomial multiplies,
    # so its length is the monomial degree
    for m, p in [(1, 4), (3, 3), (7, 2), (24, 1)]:
        idx = trbf_indices(m, p)
        assert len(idx) == trbf_dim(m, p)
        assert all(len(a) <= p for a in idx)
        assert len(set(idx)) == len(idx)
        # graded: degrees are non-decreasing down the list
        degrees = [len(a) for a in idx]
        assert degrees == sorted(degrees)
        assert idx[0] == ()


def test_trbf_expand_hand_oracle_m1_p2():
    # single feature x = 0.3, sigma = 0.7:
    # envelope e = exp(-x^2/(2 s^2)), coords e * (x/s)^k / sqrt(k!)
    x = np.array([[0.3]])
    s = 0.7
    z = trbf_expand(x, sigma=s, p=2)
    e = math.exp(-0.09 / (2 * 0.49))
    t = 0.3 / 0.7
    expected = np.array([e, e * t, e * t * t / math.sqrt(2.0)])
    assert np.allclose(z[:, 0], expected, atol=1e-12)


def test_trbf_expand_accepts_single_vector():
    z1 = trbf_expand(np.array([0.5, -0.2]), sigma=1.0, p=2)
    z2 = trbf_expand(np.array([[0.5], [-0.2]]), sigma=1.0, p=2)
    assert z1.shape == (trbf_dim(2, 2),)
    assert np.allclose(z1, z2[:, 0], atol=1e-15)


def test_trbf_kernel_consistency_property():
    # <z(x), z(y)> must equal the truncated rbf kernel
    rng = np.random.default_rng(5)
    total = 0
    while total < 1000:
        m = int(rng.integers(1, 9))
        p = int(rng.integers(1, 5))
        sigma = float(rng.uniform(0.5, 2.5))
        n = 25
        x = rng.normal(size=(m, n))
        y = rng.normal(size=(m, n))
        zx = trbf_expand(x, sigma=sigma, p=p)
        zy = trbf_expand(y, sigma=sigma, p=p)
        dots = (zx * zy).sum(axis=0)
        ref = np.array([
            truncated_rbf_kernel(x[:, j], y[:, j], sigma=sigma, p=p)
            for j in range(n)
        ])
        scale = np.maximum(1.0, np.abs(ref))
        assert np.all(np.abs(dots - ref) <= 1e-8 * scale)
        total += n


def row_loop_expand(x, sigma, p):
    # the map as one Python row operation per multi-index: row 0 is the
    # envelope and each row is its parent row times its last input scaled
    # by 1/sqrt(count of that input), the reference that both fills must
    # reproduce bit for bit
    single = np.ndim(x) == 1 and not sp.issparse(x)
    x = classify._as_matrix(x)
    if sp.issparse(x):
        x = x.toarray()
    m, n = x.shape
    u = x / sigma
    combos = trbf_indices(m, p)
    z = np.empty((len(combos), n))
    z[0] = np.exp(-0.5 * np.einsum("ij,ij->j", u, u))
    row_of = {(): 0}
    for r, c in enumerate(combos[1:], start=1):
        parent = c[:-1]
        last = c[-1]
        z[r] = z[row_of[parent]] * (u[last] * (1.0 / math.sqrt(c.count(last))))
        row_of[c] = r
    return z[:, 0] if single else z


def same_bits(a, b):
    return a.shape == b.shape and np.array_equal(a.view(np.uint64),
                                                 b.view(np.uint64))


class MultiplySpy:
    """Stands in for numpy inside `classify` and records the rank of the
    first factor of each `np.multiply`: 2 for a level fill's gathered
    parent rows, 1 for a run fill's single parent row."""

    def __init__(self):
        self.ranks = set()

    def __getattr__(self, name):
        return getattr(np, name)

    def multiply(self, a, b, out=None):
        self.ranks.add(np.ndim(a))
        return np.multiply(a, b, out=out)


@pytest.mark.parametrize("m", [1, 2, 7, 20])
@pytest.mark.parametrize("p", [1, 2, 3, 4])
def test_trbf_expand_matches_row_loop_bitwise(m, p, monkeypatch):
    rng = np.random.default_rng(100 * m + p)
    for n in (1, 3, 300):
        x = rng.normal(size=(m, n))
        assert same_bits(trbf_expand(x, 0.9, p), row_loop_expand(x, 0.9, p))
    # the widest input of the level fill and one column past it; J·n is
    # exactly LEVEL_CELLS where J is a power of two: (1, 1), (1, 3), (7, 1)
    at = classify.LEVEL_CELLS // trbf_dim(m, p)
    for n, rank in ((at, 2), (at + 1, 1)):
        x = rng.normal(size=(m, n))
        spy = MultiplySpy()
        with monkeypatch.context() as patch:
            patch.setattr(classify, "np", spy)
            got = trbf_expand(x, 0.9, p)
        assert spy.ranks == {rank}
        assert same_bits(got, row_loop_expand(x, 0.9, p))
    v = rng.normal(size=m)
    assert same_bits(trbf_expand(v, 1.7, p), row_loop_expand(v, 1.7, p))
    xs = sp.random(m, 9, density=0.4, format="csc", random_state=m + p)
    assert same_bits(trbf_expand(xs, 0.6, p), row_loop_expand(xs, 0.6, p))


def test_trbf_tables_built_once_per_shape():
    classify._trbf_tables.cache_clear()
    x = np.ones((3, 4))
    for n in (4, 1, 4):
        trbf_expand(x[:, :n], 1.0, 2)
    trbf_expand(x, 1.0, 3)
    info = classify._trbf_tables.cache_info()
    assert (info.misses, info.hits) == (2, 2)
    coef, parent, last, factor, scale, runs = classify._trbf_tables(3, 2)
    for table in (coef, parent, last, factor):
        assert not table.flags.writeable
        assert table.shape == (trbf_dim(3, 2),)
    assert not scale.flags.writeable
    assert scale.ravel().tolist() == [1.0, 1.0 / math.sqrt(2.0)]
    # rows (), (0,), (1,), (2,), (0,0), (0,1), (0,2), (1,1), (1,2), (2,2)
    assert parent.tolist() == [0, 0, 0, 0, 1, 1, 1, 2, 2, 3]
    assert last.tolist() == [0, 0, 1, 2, 0, 1, 2, 1, 2, 2]
    # the stack row of u[last] / sqrt(c), c the count of the last
    # coordinate: (c - 1) m + last, so rows (0,0), (1,1), (2,2) read c = 2
    assert factor.tolist() == [0, 0, 1, 2, 3, 1, 2, 4, 2, 5]
    # one run per multi-index of degree < p: 1 + 3 here, each with the
    # factor of its first row
    assert runs == ((0, 0, 1, 0), (1, 0, 4, 3), (2, 1, 7, 4), (3, 2, 9, 5))


def test_trbf_expand_validation():
    x = np.ones((2, 3))
    with pytest.raises(ConfigError):
        trbf_expand(x, sigma=0.0, p=2)
    with pytest.raises(ConfigError):
        trbf_expand(x, sigma=1.0, p=0)
    with pytest.raises(NumericError):
        trbf_expand(np.array([[np.inf]]), sigma=1.0, p=2)


# ---------------------------------------------------------------------------
# trbf kernel ridge regression


def test_train_trbf_krr_matches_dual_form():
    # intrinsic weights u solve (Z Z^T + lam I) u = Z y; the dual solution
    # alpha = (K + lam I)^{-1} y gives the same decision values
    rng = np.random.default_rng(6)
    for trial in range(5):
        m = int(rng.integers(1, 5))
        n = int(rng.integers(10, 40))
        p = int(rng.integers(1, 4))
        x = rng.normal(size=(m, n))
        y = np.where(rng.random(n) < 0.5, 1.0, -1.0)
        lam = float(rng.uniform(0.1, 2.0))
        sigma = float(rng.uniform(0.8, 1.5))
        model = train_trbf_krr(x, y, lam=lam, sigma=sigma, p=p)
        k = np.empty((n, n))
        for i in range(n):
            for j in range(n):
                k[i, j] = truncated_rbf_kernel(x[:, i], x[:, j],
                                               sigma=sigma, p=p)
        alpha = np.linalg.solve(k + lam * np.eye(n), y)
        xq = rng.normal(size=(m, 7))
        got = model.decision_function(xq)
        kq = np.empty((7, n))
        for i in range(7):
            for j in range(n):
                kq[i, j] = truncated_rbf_kernel(xq[:, i], x[:, j],
                                                sigma=sigma, p=p)
        ref = kq @ alpha
        assert np.allclose(got, ref, atol=1e-6 * (1 + np.abs(ref).max()))


def test_train_trbf_krr_solves_xor():
    x = np.array([[1.0, 1.0, -1.0, -1.0], [1.0, -1.0, 1.0, -1.0]])
    y = np.array([1, -1, -1, 1])
    model = train_trbf_krr(x, y, lam=1e-6, sigma=1.0, p=2)
    assert np.array_equal(model.predict(x), y)


def test_train_trbf_krr_dimension_guard():
    x = np.ones((300, 5))
    y = np.array([1, -1, 1, -1, 1])
    with pytest.raises(ConfigError, match="order p or fuse fewer"):
        train_trbf_krr(x, y, lam=1.0, sigma=1.0, p=3)


def test_train_trbf_krr_across_chunk_boundaries():
    # three chunks, the last one partial, against one unchunked solve
    rng = np.random.default_rng(11)
    n = 2 * EXPAND_CHUNK + 17
    x = rng.normal(size=(2, n))
    y = np.where(x[0] * x[1] > 0, 1.0, -1.0)
    model = train_trbf_krr(x, y, lam=0.5, sigma=1.2, p=2)
    z = trbf_expand(x, 1.2, 2)
    ref = np.linalg.solve(z @ z.T + 0.5 * np.eye(z.shape[0]), z @ y)
    assert np.allclose(model.weights, ref, rtol=1e-10, atol=1e-12)


def test_train_trbf_krr_blocked_gram_same_bits_for_any_threads():
    # J = C(15, 3) = 455 spans two GRAM_BLOCKs and N two chunks, so every
    # thread count accumulates the same blocks over both chunks
    rng = np.random.default_rng(13)
    m, p, n = 12, 3, EXPAND_CHUNK + 300
    assert trbf_dim(m, p) > GRAM_BLOCK
    x = rng.normal(size=(m, n))
    y = np.where(x[0] + x[1] * x[2] > 0, 1.0, -1.0)
    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # interleave the workers' blocks often
    try:
        weights = [train_trbf_krr(x, y, lam=2.0, sigma=3.0, p=p,
                                  threads=t).weights for t in (1, 2, 4)]
    finally:
        sys.setswitchinterval(switch)
    assert np.array_equal(weights[0], weights[1])
    assert np.array_equal(weights[0], weights[2])
    z = trbf_expand(x, 3.0, p)
    ref = np.linalg.solve(z @ z.T + 2.0 * np.eye(z.shape[0]), z @ y)
    assert np.allclose(weights[0], ref, rtol=1e-9, atol=1e-12)


@pytest.mark.parametrize("m, p", [(1, 1), (3, 1), (5, 4), (12, 3), (40, 2)])
def test_train_trbf_krr_normal_matrix_is_z_zt(monkeypatch, m, p):
    # the canonical pairs of the product tasks, with the rows of degree
    # <= p, reach every monomial of degree <= 2p once; the normal matrix
    # filled from those moments is Z Z^T + lam I on the upper triangle
    # (all the solve reads). At m = 40, p = 2 exponent vectors in base 5
    # would need 93 bits, more than a 64-bit key holds.
    combos = trbf_indices(m, p)
    reached = list(combos)
    for rows, cols, keep in classify._canonical_pairs(m, p):
        for i, k in zip(*np.nonzero(keep)):
            reached.append(tuple(sorted(combos[rows[i]] + combos[cols[k]])))
    assert sorted(reached) == sorted(trbf_indices(m, 2 * p))
    rng = np.random.default_rng(10 * m + p)
    n = 300
    x = rng.normal(size=(m, n))
    y = np.where(rng.random(n) < 0.5, 1.0, -1.0)
    solved = []
    monkeypatch.setattr(classify, "solve_spd",
                        lambda a, b: solved.append(a) or np.zeros_like(b))
    train_trbf_krr(x, y, lam=0.5, sigma=1.5, p=p, threads=2)
    z = trbf_expand(x, 1.5, p)
    gram = z @ z.T
    got = np.triu(solved[0] - 0.5 * np.eye(z.shape[0]))
    assert np.abs(got - np.triu(gram)).max() <= 1e-12 * np.linalg.norm(gram)


def test_train_trbf_krr_draws_new_keys_after_a_collision(monkeypatch):
    # a first draw whose keys all collide is refused, and the moments the
    # second draw finds are the same, bit for bit
    rng = np.random.default_rng(14)
    x = rng.normal(size=(6, 200))
    y = np.where(x[0] * x[1] > 0, 1.0, -1.0)
    want = train_trbf_krr(x, y, lam=0.5, sigma=2.0, p=3).weights
    real, attempts = classify._row_keys, []

    def row_keys(m, p, attempt):
        attempts.append(attempt)
        keys = real(m, p, attempt)
        return keys if attempt else np.zeros_like(keys)

    monkeypatch.setattr(classify, "_row_keys", row_keys)
    got = train_trbf_krr(x, y, lam=0.5, sigma=2.0, p=3).weights
    assert attempts == [0, 1]
    assert np.array_equal(got, want)


def test_train_trbf_krr_peak_memory_within_the_guard():
    # the guard counts 8 (2 J^2 + J EXPAND_CHUNK) bytes; at fusion-wide's
    # J the products, the moment table and the fill's blocks fit in it
    m, p = 20, 3
    j = trbf_dim(m, p)
    need = 8 * (2 * j * j + j * EXPAND_CHUNK)
    rng = np.random.default_rng(16)
    n = EXPAND_CHUNK + 100
    x = rng.normal(size=(m, n))
    y = np.where(rng.random(n) < 0.5, 1.0, -1.0)
    tracemalloc.start()
    try:
        train_trbf_krr(x, y, lam=1.0, sigma=4.0, p=p, threads=2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= need, (f"J = {j}: tracemalloc peak {peak} B exceeds the "
                          f"guard's 8 (2 J^2 + J EXPAND_CHUNK) = {need} B")


def test_train_dc_trbf_locals_start_no_nested_pool(monkeypatch):
    made = []

    class CountingPool(classify.ThreadPoolExecutor):
        def __init__(self, *args, **kwargs):
            made.append(threading.current_thread() is threading.main_thread())
            super().__init__(*args, **kwargs)

    monkeypatch.setattr("featdc.classify.ThreadPoolExecutor", CountingPool)
    monkeypatch.setattr("featdc.fuse.ThreadPoolExecutor", CountingPool)
    # each local sees 10 inputs at p=3: J = 286 spans two GRAM_BLOCKs, so a
    # local given threads=2 would start a Gram pool of its own
    ds = make_blobs(200, n_features=20, separation=3.0, seed=4)
    assert trbf_dim(10, 3) > GRAM_BLOCK
    train_trbf_krr(ds.X[:10].toarray(), ds.y, p=3, threads=2)
    assert made == [True]
    made.clear()
    train_dc(ds, [("rd", 2, 10)], local=LearnerSpec(type="trbf", p=3),
             global_=LearnerSpec(type="trbf", p=2), threads=2)
    assert made == [True]  # the locals' pool, started by the caller only


def test_train_trbf_krr_memory_guard_refuses_before_allocating(monkeypatch):
    m, p = 20, 3
    j = trbf_dim(m, p)
    need = 8 * (2 * j * j + j * EXPAND_CHUNK)
    rng = np.random.default_rng(12)
    x = rng.normal(size=(m, 10))
    y = np.where(rng.random(10) < 0.5, 1.0, -1.0)
    sizes = []
    real_eye, real_empty = np.eye, np.empty

    def eye(k, *args, **kwargs):
        sizes.append(k)
        return real_eye(k, *args, **kwargs)

    def empty(shape, *args, **kwargs):
        sizes.append(np.max(shape))
        return real_empty(shape, *args, **kwargs)

    monkeypatch.setattr(np, "eye", eye)
    monkeypatch.setattr(np, "empty", empty)
    fits = -(-4 * need // 3)  # the least memory whose three quarters hold need
    monkeypatch.setattr(classify, "_physical_memory", lambda: fits - 1)
    with pytest.raises(ConfigError, match="physical memory"):
        train_trbf_krr(x, y, lam=1.0, sigma=1.0, p=p)
    assert j not in sizes
    monkeypatch.setattr(classify, "_physical_memory", lambda: fits)
    model = train_trbf_krr(x, y, lam=1.0, sigma=1.0, p=p)
    assert model.intrinsic_dim == j and j in sizes


def test_train_trbf_krr_memory_guard_runs_before_the_sigma_heuristic(monkeypatch):
    # the heuristic builds a Gram of up to 256 instances: a plan the guard
    # refuses must not pay for it
    def heuristic(x, seed=0):
        raise AssertionError("sigma_heuristic ran before the guard")

    rng = np.random.default_rng(13)
    x = rng.normal(size=(20, 10))
    y = np.where(rng.random(10) < 0.5, 1.0, -1.0)
    monkeypatch.setattr(classify, "_physical_memory", lambda: 2**20)
    monkeypatch.setattr(classify, "sigma_heuristic", heuristic)
    with pytest.raises(ConfigError, match="physical memory"):
        train_trbf_krr(x, y, lam=1.0, sigma=None, p=3)


def test_train_trbf_krr_memory_guard_without_a_reading(monkeypatch):
    # no physical-memory reading: the budget is three quarters of 8 GiB,
    # 6 GiB, which holds J = C(198,2) = 19503 (5.97 GiB) but not
    # J = C(199,2) = 19701 (6.08 GiB); a patched np.eye stops the admitted
    # plan at its first J x J allocation
    class Admitted(Exception):
        pass

    real_eye = np.eye

    def eye(k, *args, **kwargs):
        if k > 10000:
            raise Admitted
        return real_eye(k, *args, **kwargs)

    monkeypatch.setattr(np, "eye", eye)
    monkeypatch.setattr(classify, "_physical_memory", lambda: None)
    rng = np.random.default_rng(13)
    y = np.array([1.0, -1.0, 1.0, -1.0, 1.0])
    with pytest.raises(Admitted):
        train_trbf_krr(rng.normal(size=(196, 5)), y, lam=1.0, sigma=1.0)
    with pytest.raises(ConfigError, match="order p or fuse fewer"):
        train_trbf_krr(rng.normal(size=(197, 5)), y, lam=1.0, sigma=1.0)


def test_train_trbf_krr_validation():
    x = np.ones((2, 4))
    y = np.array([1, -1, 1, -1])
    with pytest.raises(ConfigError):
        train_trbf_krr(x, y, lam=-1.0, sigma=1.0, p=2)
    with pytest.raises(DataError):
        train_trbf_krr(x, np.array([1, -1]), lam=1.0, sigma=1.0, p=2)


def test_trbf_model_zero_weights_scores_zero():
    model = TrbfModel(weights=np.zeros(trbf_dim(2, 2)), sigma=1.0, p=2,
                      lam=1.0, n_features=2)
    scores = model.decision_function(np.ones((2, 5)))
    assert np.array_equal(scores, np.zeros(5))
    assert np.array_equal(model.predict(np.ones((2, 5))),
                          np.ones(5, dtype=np.int64))


@pytest.mark.parametrize("m", [1, 3, 20])
@pytest.mark.parametrize("p", [1, 2, 3, 4])
def test_trbf_model_folded_scores_match_the_full_map(m, p):
    # scoring expands only the rows of degree < p and folds the top degree
    # into F u; every term of weights . z is still there, summed in
    # another order, so the scores agree to rounding and the labels match
    rng = np.random.default_rng(10 * m + p)
    sigma = 0.9 * math.sqrt(m)
    model = TrbfModel(weights=rng.normal(size=trbf_dim(m, p)), sigma=sigma,
                      p=p, lam=1.0, n_features=m)
    assert model.fold.shape == (trbf_dim(m, p - 1), m)
    for n in (1, 256, EXPAND_CHUNK + 5):
        x = rng.normal(size=(m, n))
        x[:, ::3] *= rng.random((m, 1)) < 0.5  # zeros for the CSC copy
        want, bound = np.empty(n), np.empty(n)
        for lo in range(0, n, 256):  # the full map, a slice at a time
            z = trbf_expand(x[:, lo:lo + 256], sigma, p)
            want[lo:lo + 256] = model.weights @ z
            bound[lo:lo + 256] = 1e-12 * (np.abs(model.weights) @ np.abs(z))
        for query in (x, sp.csc_array(x)):
            got = model.decision_function(query)
            assert np.all(np.abs(got - want) <= bound)
            assert np.array_equal(label_from_score(got),
                                  label_from_score(want))
    v = rng.normal(size=m)
    assert np.isclose(model.decision_function(v)[0],
                      model.weights @ trbf_expand(v, sigma, p),
                      rtol=0.0, atol=1e-12 * (np.abs(model.weights)
                                              @ np.abs(trbf_expand(v, sigma, p))))


def test_trbf_model_folded_scoring_property():
    # random shapes, orders and bandwidths at the widths where the fills
    # change: one column, the widest level fill of the folded map and one
    # column past it, and one column past a scoring chunk. The reference
    # is the full map, in slices wide enough for its run fill; the
    # tolerance is the kernel-consistency property's
    rng = np.random.default_rng(33)
    for p in (1, 2, 3, 4):
        for m in [int(k) for k in rng.integers(1, 9, size=3)] + [20]:
            sigma = float(rng.uniform(0.5, 2.5)) * math.sqrt(m)
            model = TrbfModel(weights=rng.normal(size=trbf_dim(m, p)),
                              sigma=sigma, p=p, lam=1.0, n_features=m)
            at = classify.LEVEL_CELLS // trbf_dim(m, p - 1)
            width = max(classify.LEVEL_CELLS // trbf_dim(m, p) + 1, 512)
            for n in (1, at, at + 1, EXPAND_CHUNK + 1):
                x = rng.normal(size=(m, n))
                want = np.concatenate([
                    model.weights @ trbf_expand(x[:, lo:lo + width], sigma, p)
                    for lo in range(0, n, width)])
                got = model.decision_function(x)
                scale = np.maximum(1.0, np.abs(want))
                assert np.all(np.abs(got - want) <= 1e-8 * scale), (m, p, n)


def test_trbf_model_fold_is_derived_not_saved(tmp_path):
    ds = make_blobs(120, n_features=6, separation=1.5, seed=4)
    model = train_dc(ds, [("rd", 2, 3), ("pca", 1, 3)],
                     local=LearnerSpec(type="trbf", p=2),
                     global_=LearnerSpec(type="trbf", p=3), seed=1)
    first, second = tmp_path / "a.json", tmp_path / "b.json"
    save_dc_model(model, first)
    back = load_dc_model(first)
    save_dc_model(back, second)
    assert first.read_bytes() == second.read_bytes()
    assert b"fold" not in first.read_bytes()
    for a, b in zip(model.locals + [model.global_model],
                    back.locals + [back.global_model]):
        assert same_bits(a.fold, b.fold)
    r = np.linspace(-2.0, 2.0, 30).reshape(3, 10)  # three local scores
    assert same_bits(model.global_model.decision_function(r),
                     back.global_model.decision_function(r))


def test_trbf_model_feature_mismatch():
    model = TrbfModel(weights=np.zeros(trbf_dim(3, 2)), sigma=1.0, p=2,
                      lam=1.0, n_features=3)
    with pytest.raises(DataError):
        model.decision_function(np.ones((2, 5)))


def test_train_trbf_krr_interpolates_at_tiny_lam():
    rng = np.random.default_rng(7)
    x = rng.normal(size=(2, 12))
    y = np.where(rng.random(12) < 0.5, 1.0, -1.0)
    model = train_trbf_krr(x, y, lam=1e-10, sigma=2.0, p=4)
    fitted = model.decision_function(x)
    assert np.array_equal(label_from_score(fitted), label_from_score(y))


# ---------------------------------------------------------------------------
# sigma heuristic


def test_sigma_heuristic_matches_median_pairwise_distance():
    from scipy.spatial.distance import pdist
    rng = np.random.default_rng(8)
    x = rng.normal(size=(3, 40))
    got = sigma_heuristic(x, seed=0)
    ref = float(np.median(pdist(x.T)))
    assert got == pytest.approx(ref, rel=1e-12)


def test_sigma_heuristic_degenerate_data_falls_back():
    x = np.zeros((2, 10))
    assert sigma_heuristic(x, seed=0) == 1.0
    x1 = np.ones((2, 1))
    assert sigma_heuristic(x1, seed=0) == 1.0


def test_sigma_heuristic_subsamples_deterministically():
    rng = np.random.default_rng(9)
    x = rng.normal(size=(4, 2000))
    a = sigma_heuristic(x, seed=3)
    b = sigma_heuristic(x, seed=3)
    assert a == b and a > 0


# ---------------------------------------------------------------------------
# one gate for every input


@pytest.mark.parametrize("seed", [1, 3])
def test_learners_take_sparse_data_through_the_dense_sparse_gate(seed):
    # a CSC matrix that the `_as_matrix` gate densifies takes the dense
    # route in every learner, so it gives the bits of its dense copy
    ds = make_quadratic_band(3000, n_features=20, seed=seed)
    csc, dense = ds.X, ds.X.toarray()
    assert isinstance(_as_matrix(csc), np.ndarray)
    y = ds.y.astype(np.float64)

    def same_bits(fn):
        a, b = fn(csc), fn(dense)
        assert np.asarray(a).tobytes() == np.asarray(b).tobytes()

    same_bits(lambda x: train_linear(x, y).weights)
    same_bits(lambda x: train_linear(x, y).bias)
    same_bits(lambda x: train_trbf_krr(x, y).weights)
    same_bits(lambda x: sigma_heuristic(x, seed=0))
    linear, trbf = train_linear(dense, y), train_trbf_krr(dense, y)
    same_bits(linear.decision_function)
    same_bits(trbf.decision_function)
    groups = [np.arange(k, 20, 4) for k in range(4)]
    same_bits(lambda x: block_gram(x, groups)[0])
