import tracemalloc

import numpy as np
import pytest
import scipy.sparse as sp

import featdc.decompose as decompose
from featdc.decompose import (METHODS, CompositeDecomposition, _as_matrix,
                              apply_decomposition, block_gram,
                              disjoint_groups, feature_scatter, fit_abd,
                              fit_bcd, fit_dca, fit_pca, fit_plan,
                              fit_plan_entry, make_rd, overlapping_groups,
                              within_class_scatter)
from featdc.errors import ConfigError, DataError

from oracles import abd_dense_transform


def dense_bcd_oracle(x, groups):
    """Literal blocked Gaussian elimination with explicit eliminator
    matrices, full matrix products throughout."""
    order = np.concatenate(groups)
    m = order.size
    xr = np.zeros((m, x.shape[1]))
    xr[: x.shape[0]] = x
    xr = xr[order]
    s = xr @ xr.T
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


def groups_of(sizes):
    offsets = np.cumsum([0] + sizes)
    return [np.arange(offsets[i], offsets[i + 1]) for i in range(len(sizes))]


# ---------------------------------------------------------------------------
# index groups


def test_make_rd_exact_cover():
    part = make_rd(4, 2, 2, seed=0)
    assert part.transform is None
    flat = np.sort(np.concatenate(part.index_groups))
    assert np.array_equal(flat, np.arange(4))


def test_make_rd_determinism_and_sorting():
    a = make_rd(20, 5, 7, seed=42)
    b = make_rd(20, 5, 7, seed=42)
    for ga, gb in zip(a.index_groups, b.index_groups):
        assert np.array_equal(ga, gb)
        assert np.all(np.diff(ga) > 0)  # sorted, no duplicates


def test_make_rd_oversubscription_overlaps():
    # 4 groups of 23618 over 47236 coordinates: two disjoint covers, so
    # groups from different passes overlap
    part = make_rd(47236, 4, 23618, seed=1)
    g = part.index_groups
    assert np.intersect1d(g[0], g[1]).size == 0
    assert np.intersect1d(g[2], g[3]).size == 0
    assert np.intersect1d(g[0], g[2]).size + np.intersect1d(g[0], g[3]).size == 23618


def test_make_rd_group_size_guard():
    with pytest.raises(ConfigError):
        make_rd(4, 1, 5, seed=0)


def test_overlapping_groups_cover_without_waste():
    rng = np.random.default_rng(0)
    groups = overlapping_groups(10, 5, 2, rng)
    flat = np.sort(np.concatenate(groups))
    assert np.array_equal(flat, np.arange(10))  # exact budget: a partition


def test_disjoint_groups_pad_rule():
    rng = np.random.default_rng(0)
    groups, padded = disjoint_groups(54, 4, 27, rng)
    assert padded == 108
    assert [len(g) for g in groups] == [27] * 4
    flat = np.concatenate(groups)
    assert np.array_equal(np.sort(flat), np.arange(108))
    # undersized request grows the group so real features stay covered
    groups, padded = disjoint_groups(54, 4, 2, np.random.default_rng(1))
    assert padded == 56 and len(groups[0]) == 14


# ---------------------------------------------------------------------------
# pca


def test_fit_pca_hand_oracle():
    x = np.array([[2.0, -2.0], [0.0, 0.0]])
    part = fit_pca(x, 1, 2, seed=0)
    assert np.allclose(part.eigenvalues, [8.0, 0.0])
    assert np.allclose(np.abs(part.transform[0]), [1.0, 0.0])


def test_fit_pca_isotropic_tie():
    # pre-centered rows with identical scatter: any orthonormal basis is
    # fine, so only projection-level facts are asserted
    x = np.array([[1.0, -1.0, 1.0, -1.0], [1.0, 1.0, -1.0, -1.0]])
    part = fit_pca(x, 1, 2, seed=0)
    w = part.transform
    assert np.allclose(w @ w.T, np.eye(2), atol=1e-10)
    s = feature_scatter(x, center=True)
    assert np.allclose(s, np.diag([4.0, 4.0]))
    assert np.allclose(w @ s @ w.T, np.diag([4.0, 4.0]), atol=1e-8)


def test_fit_pca_diagonalization_property():
    rng = np.random.default_rng(3)
    for trial in range(15):
        m = int(rng.integers(2, 24))
        n = int(rng.integers(m + 1, 200))
        x = rng.normal(size=(m, n)) * rng.uniform(0.5, 3)
        part = fit_pca(x, 2, max(1, m // 2), seed=trial)
        s = feature_scatter(x, center=True)
        w = part.transform
        d = w @ s @ w.T
        off = d - np.diag(np.diag(d))
        assert np.linalg.norm(off) <= 1e-8 * np.linalg.norm(s)
        assert np.all(np.diff(np.diag(d)) <= 1e-8 * np.linalg.norm(s))
        assert np.linalg.norm(w @ w.T - np.eye(m)) <= 1e-10
        assert np.allclose(w.T @ (w @ s @ w.T) @ w, s,
                           atol=1e-8 * (1 + np.linalg.norm(s)))


@pytest.mark.parametrize("method", ["pca", "dca", "bcd"])
def test_fit_pca_dimension_guard(method, monkeypatch):
    # the guard fires before any dense M x M scatter is built
    def no_scatter(*args, **kwargs):
        raise AssertionError("dense scatter built past the guard")

    monkeypatch.setattr(decompose, "feature_scatter", no_scatter)
    monkeypatch.setattr(decompose, "class_moments", no_scatter)
    x = np.ones((5, 3))
    y = np.array([1, -1, 1])
    with pytest.raises(ConfigError, match="rd or abd"):
        fit_plan_entry(x, y, (method, 1, 2), 0, max_dense=4)


def test_fit_pca_sparse_matches_dense():
    rng = np.random.default_rng(9)
    xd = rng.normal(size=(8, 40)) * (rng.random(size=(8, 40)) < 0.4)
    xs = sp.csc_array(xd)
    pd_ = fit_pca(xd, 2, 4, seed=5)
    ps = fit_pca(xs, 2, 4, seed=5)
    assert np.allclose(pd_.transform, ps.transform, atol=1e-10)
    assert np.allclose(pd_.eigenvalues, ps.eigenvalues, atol=1e-10)


# ---------------------------------------------------------------------------
# dca


def test_fit_dca_singleton_classes_reduce_to_pca_of_scatter():
    # one instance per class: within-class scatter is zero, so the
    # generalized problem is S-bar / rho, rho the ridge the fit took
    x = np.array([[1.0, -1.0], [0.5, 0.5]])
    y = np.array([1, -1])
    part = fit_dca(x, y, n_subspaces=1, group_size=2)
    rho = part.fit_stats["ridge"]
    sw = within_class_scatter(x, y)
    assert np.allclose(sw, 0.0)
    s = feature_scatter(x, center=True)
    from featdc.numerics import sym_eig
    ref_values, _ = sym_eig(s)
    assert np.allclose(part.eigenvalues, ref_values / rho, atol=1e-10)


def test_fit_dca_direction_oracle():
    # class means at (+-1, 0); within-class noise only on axis 2, so the
    # discriminant direction must align with e1
    rng = np.random.default_rng(7)
    n = 400
    y = np.where(rng.random(n) < 0.5, 1, -1)
    x = np.vstack([y * 1.0, rng.normal(scale=2.0, size=n)])
    part = fit_dca(x, y, n_subspaces=1, group_size=2)
    top = part.transform[0]
    cos = abs(top[0]) / np.linalg.norm(top)
    assert cos >= 0.99


def test_fit_dca_residual_property():
    rng = np.random.default_rng(13)
    for trial in range(10):
        m = int(rng.integers(2, 16))
        n = int(rng.integers(2 * m, 120))
        x = rng.normal(size=(m, n))
        y = np.where(rng.random(n) < 0.5, 1, -1)
        if np.unique(y).size < 2:
            continue
        rng.uniform(0.01, 1.0)  # once a set ridge; later trials keep their data
        part = fit_dca(x, y, n_subspaces=1, group_size=m)
        rho = part.fit_stats["ridge"]
        s = feature_scatter(x, center=True)
        b = within_class_scatter(x, y) + rho * np.eye(m)
        for k in range(m):
            v = part.transform[k]
            res = np.linalg.norm(s @ v - part.eigenvalues[k] * (b @ v))
            assert res <= 1e-6 * (1 + np.linalg.norm(s))
        # vectors are B-orthonormal
        vt = part.transform
        assert np.allclose(vt @ b @ vt.T, np.eye(m), atol=1e-8)


def test_fit_dca_single_class_errors():
    x = np.ones((2, 3))
    with pytest.raises(DataError):
        fit_dca(x, np.array([1, 1, 1]), n_subspaces=1, group_size=2)


# ---------------------------------------------------------------------------
# bcd


def test_fit_bcd_single_group_is_identity():
    rng = np.random.default_rng(0)
    x = rng.normal(size=(4, 9))
    part = fit_bcd(x, [np.arange(4)])
    assert np.array_equal(part.transform, np.eye(4))


def test_fit_bcd_hand_oracle():
    x = np.array([[2.0, 0.0], [1.0, 1.0]])
    part = fit_bcd(x, [np.array([0]), np.array([1])])
    s = feature_scatter(x, center=False)
    assert np.allclose(s, [[4.0, 2.0], [2.0, 2.0]])
    assert np.allclose(part.transform, [[1.0, 0.0], [-0.5, 1.0]])
    final = part.transform @ s @ part.transform.T
    assert np.allclose(final, np.diag([4.0, 1.0]))


def test_fit_bcd_matches_dense_elimination_oracle():
    rng = np.random.default_rng(21)
    for trial in range(10):
        x = rng.normal(size=(12, int(rng.integers(15, 60))))
        groups = groups_of([4, 4, 4])
        part = fit_bcd(x, groups)
        w_ref, s_ref = dense_bcd_oracle(x, groups)
        s = feature_scatter(x, center=False)
        norm = np.linalg.norm(s)
        assert np.linalg.norm(part.transform - w_ref) <= 1e-8 * (1 + norm)
        final = part.transform @ s @ part.transform.T
        assert np.linalg.norm(final - s_ref) <= 1e-8 * (1 + norm)
        # off-diagonal blocks eliminated
        mask = np.ones((12, 12), dtype=bool)
        for g in groups:
            mask[np.ix_(g, g)] = False
        assert np.linalg.norm(final[mask]) <= 1e-8 * norm


def test_fit_bcd_unit_block_triangular_structure():
    rng = np.random.default_rng(2)
    x = rng.normal(size=(9, 30))
    groups = groups_of([3, 3, 3])
    part = fit_bcd(x, groups)
    w = part.transform
    for g in groups:
        assert np.array_equal(w[np.ix_(g, g)], np.eye(len(g)))
    # strictly upper block triangle is zero
    assert np.allclose(w[0:3, 3:], 0.0)
    assert np.allclose(w[3:6, 6:], 0.0)
    assert abs(np.linalg.det(w) - 1.0) <= 1e-8


def test_fit_bcd_with_zero_padding():
    rng = np.random.default_rng(5)
    x = rng.normal(size=(54, 120))
    groups, padded = disjoint_groups(54, 4, 27, np.random.default_rng(0))
    part = fit_bcd(x, groups)
    assert part.n_features_out == padded == 108
    assert part.fit_stats["offdiag_block_residual"] <= 1e-8
    views = apply_decomposition(CompositeDecomposition([part]), x)
    assert [v.shape for v in views] == [(27, 120)] * 4


def test_fit_bcd_handles_redundant_features():
    # duplicated rows make pivot blocks singular; the ridge retry keeps the
    # elimination going and the result still block-diagonalizes
    rng = np.random.default_rng(8)
    base = rng.normal(size=(3, 40))
    x = np.vstack([base, base[0:1]])
    part = fit_bcd(x, groups_of([2, 2]))
    s = feature_scatter(x, center=False)
    final = part.transform @ s @ part.transform.T
    assert np.linalg.norm(final[2:, :2]) <= 1e-6 * np.linalg.norm(s)


def test_fit_bcd_rejects_non_partition():
    x = np.ones((4, 5))
    with pytest.raises(ConfigError):
        fit_bcd(x, [np.array([0, 1]), np.array([1, 2])])
    with pytest.raises(ConfigError):
        fit_bcd(x, [np.array([0, 1])])  # gap: index space must be covered


# ---------------------------------------------------------------------------
# abd


def test_fit_bcd_eliminates_in_its_one_working_copy():
    # the re-arranged, zero-padded gram is written straight into the array
    # the elimination works on: the peak holds it, the transform and the
    # off-diagonal entries of the residual, about 3 n x n arrays (5 when
    # the gram was padded, re-arranged and copied before the elimination)
    x = np.random.default_rng(0).normal(size=(250, 300))
    moments = decompose.class_moments(x)
    groups, n = disjoint_groups(250, 4, 1, np.random.default_rng(1))
    tracemalloc.start()
    try:
        fit_bcd(moments, groups)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert n == 252 and peak < 3.5 * 8 * n * n


def test_fit_abd_hand_oracle():
    x = np.array([[1.0, 0.0], [1.0, 0.0]])
    part = fit_abd(x, [np.array([0]), np.array([1])])
    gram = block_gram(x, [np.array([0]), np.array([1])])
    assert np.allclose(gram, [[1.0, 1.0], [1.0, 1.0]])
    assert np.allclose(sorted(part.eigenvalues), [0.0, 2.0])
    s = np.sqrt(0.5)
    assert np.allclose(abd_dense_transform(part),
                       [[s, s], [s, -s]], atol=1e-12)


def test_fit_abd_orthogonal_rows_tie_case():
    x = np.array([[1.0, 1.0], [1.0, -1.0]])
    part = fit_abd(x, [np.array([0]), np.array([1])])
    gram = block_gram(x, [np.array([0]), np.array([1])])
    assert np.allclose(gram, np.diag([2.0, 2.0]))
    w = abd_dense_transform(part)
    assert np.allclose(w @ w.T, np.eye(2), atol=1e-10)


def test_fit_abd_regram_diagonality_property():
    rng = np.random.default_rng(31)
    for trial in range(10):
        x = rng.normal(size=(20, int(rng.integers(10, 50))))
        groups = groups_of([5, 5, 5, 5])
        part = fit_abd(x, groups)
        w = abd_dense_transform(part)
        assert np.linalg.norm(w @ w.T - np.eye(20)) <= 1e-10
        # recompute the block gram after transforming
        xt = w @ x
        gram2 = block_gram(xt, groups)
        off = gram2 - np.diag(np.diag(gram2))
        assert np.linalg.norm(off) <= 1e-8 * np.linalg.norm(gram2)


def test_fit_abd_matches_kron_apply():
    rng = np.random.default_rng(4)
    x = rng.normal(size=(12, 18))
    groups = groups_of([4, 4, 4])
    part = fit_abd(x, groups)
    views = apply_decomposition(CompositeDecomposition([part]), x)
    xr = x[part.feature_order]
    full = abd_dense_transform(part) @ xr
    assert np.allclose(np.vstack(views), full, atol=1e-12)


def test_fit_abd_rejects_unequal_groups():
    x = np.ones((5, 4))
    with pytest.raises(ConfigError, match="equal"):
        fit_abd(x, [np.array([0, 1, 2]), np.array([3, 4])])


def test_fit_abd_sparse_matches_dense():
    rng = np.random.default_rng(12)
    xd = rng.normal(size=(10, 30)) * (rng.random(size=(10, 30)) < 0.5)
    xs = sp.csc_array(xd)
    groups = groups_of([5, 5])
    pa = fit_abd(xd, groups)
    pb = fit_abd(xs, groups)
    assert np.allclose(pa.transform, pb.transform, atol=1e-12)
    va = apply_decomposition(CompositeDecomposition([pa]), xd)
    vb = apply_decomposition(CompositeDecomposition([pb]), xs)
    for a, b in zip(va, vb):
        b = b.toarray() if sp.issparse(b) else b
        assert np.allclose(a, b, atol=1e-12)


# ---------------------------------------------------------------------------
# composition and application


def test_compose_counts_and_errors():
    part = make_rd(6, 2, 3, seed=0)
    comp = CompositeDecomposition([part])
    assert comp.h == 2
    with pytest.raises(ConfigError):
        CompositeDecomposition([])
    with pytest.raises(ConfigError):
        CompositeDecomposition([make_rd(6, 1, 2, 0), make_rd(7, 1, 2, 0)])


def test_apply_rd_selection_oracle():
    x = np.array([[5.0], [7.0]])
    part = make_rd(2, 2, 1, seed=3)
    views = apply_decomposition(CompositeDecomposition([part]), x)
    got = sorted(float(v[0, 0]) for v in views)
    assert got == [5.0, 7.0]


def test_apply_abd_hand_oracle():
    x = np.array([[1.0, 0.0], [1.0, 0.0]])
    part = fit_abd(x, [np.array([0]), np.array([1])])
    views = apply_decomposition(CompositeDecomposition([part]), x)
    dense = [v.toarray() if sp.issparse(v) else v for v in views]
    assert np.allclose(dense[0], [[np.sqrt(2.0), 0.0]])
    assert np.allclose(dense[1], [[0.0, 0.0]])


def test_apply_matches_dense_stacked_transform():
    rng = np.random.default_rng(6)
    x = rng.normal(size=(12, 30))
    y = np.where(rng.random(30) < 0.5, 1, -1)
    comp = fit_plan(x, y, [("rd", 2, 6), ("pca", 2, 6), ("bcd", 3, 4),
                           ("abd", 3, 4)], seed=9)
    views = apply_decomposition(comp, x)
    assert len(views) == comp.h == 10
    k = 0
    for part in comp.parts:
        if part.method == "rd":
            base = x
        elif part.method in ("pca", "dca"):
            base = part.transform @ x
        elif part.method == "bcd":
            base = part.transform @ x[part.feature_order]
        else:
            base = abd_dense_transform(part) @ x[part.feature_order]
        for g in part.index_groups:
            v = views[k]
            v = v.toarray() if sp.issparse(v) else v
            assert np.allclose(v, base[g], atol=1e-10)
            k += 1


def test_apply_is_linear():
    rng = np.random.default_rng(14)
    x1 = rng.normal(size=(10, 8))
    x2 = rng.normal(size=(10, 8))
    y = np.where(rng.random(8) < 0.5, 1, -1)
    comp = fit_plan(x1, y, [("pca", 1, 5), ("bcd", 2, 5), ("abd", 2, 5)],
                    seed=0)
    a, b = 0.7, -1.3
    mixed = apply_decomposition(comp, a * x1 + b * x2)
    v1 = apply_decomposition(comp, x1)
    v2 = apply_decomposition(comp, x2)
    for vm, va, vb in zip(mixed, v1, v2):
        vm = vm.toarray() if sp.issparse(vm) else vm
        va = va.toarray() if sp.issparse(va) else va
        vb = vb.toarray() if sp.issparse(vb) else vb
        assert np.allclose(vm, a * va + b * vb, atol=1e-12)


def test_apply_dimension_mismatch():
    part = make_rd(4, 1, 2, seed=0)
    with pytest.raises(DataError):
        apply_decomposition(CompositeDecomposition([part]), np.ones((5, 2)))


def test_fit_plan_counts_and_determinism():
    rng = np.random.default_rng(10)
    x = rng.normal(size=(54, 80))
    y = np.where(rng.random(80) < 0.5, 1, -1)
    plan = [("rd", 4, 40), ("pca", 4, 40), ("dca", 4, 40), ("bcd", 4, 27),
            ("abd", 4, 27)]
    comp1 = fit_plan(x, y, plan, seed=19)
    comp2 = fit_plan(x, y, plan, seed=19)
    assert comp1.h == comp2.h == 20
    for p1, p2 in zip(comp1.parts, comp2.parts):
        for g1, g2 in zip(p1.index_groups, p2.index_groups):
            assert np.array_equal(g1, g2)
        if p1.transform is not None:
            assert np.array_equal(p1.transform, p2.transform)
    # different seed moves the groups
    comp3 = fit_plan(x, y, plan, seed=20)
    assert any(
        not np.array_equal(g1, g3)
        for g1, g3 in zip(comp1.parts[0].index_groups,
                          comp3.parts[0].index_groups)
    )


def test_fit_plan_rd_abd_composition():
    rng = np.random.default_rng(11)
    x = sp.csc_array(rng.normal(size=(16, 40))
                     * (rng.random(size=(16, 40)) < 0.5))
    y = np.where(rng.random(40) < 0.5, 1, -1)
    comp = fit_plan(x, y, [("rd", 4, 8), ("abd", 4, 4)], seed=2)
    assert comp.h == 8
    views = apply_decomposition(comp, x)
    assert len(views) == 8
    assert all(v.shape[1] == 40 for v in views)


# ---------------------------------------------------------------------------
# the sparse/dense gate


def csc_with_nnz(m, n, nnz, rng):
    """m x n CSC with int64 index arrays and exactly nnz stored entries."""
    flat = np.sort(rng.choice(m * n, size=nnz, replace=False))
    cols, rows = np.divmod(flat, m)
    indptr = np.searchsorted(cols, np.arange(n + 1)).astype(np.int64)
    return sp.csc_array((rng.normal(size=nnz), rows.astype(np.int64), indptr),
                        shape=(m, n))


def test_gate_densifies_exactly_up_to_the_byte_rule():
    # dense bytes 8*10*3 = 240; CSC bytes 16*nnz + 8*4 (int64 indices)
    rng = np.random.default_rng(30)
    inside = csc_with_nnz(10, 3, 13, rng)
    outside = csc_with_nnz(10, 3, 12, rng)
    for x, nbytes in ((inside, 240), (outside, 224)):
        assert x.data.nbytes + x.indices.nbytes + x.indptr.nbytes == nbytes
    got = _as_matrix(inside)
    assert isinstance(got, np.ndarray) and got.dtype == np.float64
    assert np.array_equal(got, inside.toarray())
    assert _as_matrix(outside) is outside
    dense = rng.normal(size=(3, 4))
    assert np.array_equal(_as_matrix(dense), dense)


def test_gate_densifies_one_column_like_toarray(monkeypatch):
    # row 4 holds three duplicates whose sum depends on the order:
    # (1e16 - 1e16) + 1 is 1 in storage order, (1 - 1e16) + 1e16 is 0
    data = np.array([1e16, 0.5, -1e16, -2.0, 1.0])
    rows = np.array([4, 1, 4, 0, 4], dtype=np.int32)
    non_canonical = sp.csc_array((data, rows, np.array([0, 5], dtype=np.int32)),
                                 shape=(6, 1))
    order = np.argsort(rows, kind="stable")
    csr = sp.csr_array((data[order], np.zeros(5, dtype=np.int32),
                        np.searchsorted(rows[order], np.arange(7))),
                       shape=(6, 1))
    canonical = sp.csc_array(np.random.default_rng(32).normal(size=(6, 1)))
    cases = [non_canonical, csr, canonical, sp.csr_array(canonical)]
    refs = [np.asfortranarray(x.toarray(), dtype=np.float64) for x in cases]
    assert refs[0][4, 0] == 1.0 and refs[1][4, 0] == 1.0

    def refuse(*args, **kwargs):
        raise AssertionError("CSC column converted to CSR")

    with monkeypatch.context() as patch:
        patch.setattr(sp.csc_array, "tocsr", refuse)
        for x, ref in zip(cases, refs):
            got = _as_matrix(x)
            assert isinstance(got, np.ndarray) and got.dtype == np.float64
            assert got.flags.f_contiguous
            assert got.shape == ref.shape and got.tobytes() == ref.tobytes()
    # a float32 column keeps toarray's float32 sums: (1 + 1e-8) - 1 is 0
    single = sp.csc_array((np.array([1.0, 0.5, 1e-8, -2.0, -1.0], np.float32),
                           rows, non_canonical.indptr), shape=(6, 1))
    ref = np.asfortranarray(single.toarray(), dtype=np.float64)
    assert ref[4, 0] == 0.0
    assert _as_matrix(single).tobytes() == ref.tobytes()


@pytest.mark.parametrize("method", METHODS)
def test_dense_route_views_match_dense_input_bits(method):
    rng = np.random.default_rng(31)
    xs = sp.csc_array(rng.normal(size=(12, 60)))
    assert isinstance(_as_matrix(xs), np.ndarray)
    y = np.where(rng.random(60) < 0.5, 1, -1)
    comp = fit_plan(xs, y, [(method, 3, 4)], seed=8)
    from_sparse = apply_decomposition(comp, xs)
    from_dense = apply_decomposition(comp, xs.toarray())
    assert len(from_sparse) == len(from_dense) == 3
    for a, b in zip(from_sparse, from_dense):
        assert isinstance(a, np.ndarray)
        assert a.shape == b.shape and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("form", ["dense", "sparse"])
def test_class_moments_match_direct_sums(form):
    rng = np.random.default_rng(17)
    xd = rng.normal(size=(7, 50)) * (rng.random(size=(7, 50)) < 0.6)
    x = sp.csc_array(xd) if form == "sparse" else xd
    y = np.where(rng.random(50) < 0.4, 1, -1)
    stats = decompose.class_moments(x, y)
    assert stats.shape == (7, 50) and decompose.class_moments(stats) is stats
    assert np.array_equal(stats.labels, [-1.0, 1.0])
    assert np.allclose(stats.gram, xd @ xd.T, rtol=0, atol=1e-12)
    assert np.allclose(stats.total, xd.sum(axis=1), rtol=0, atol=1e-12)
    for c, label in enumerate((-1, 1)):
        xc = xd[:, y == label]
        assert stats.counts[c] == xc.shape[1]
        assert np.allclose(stats.sums[c], xc.sum(axis=1), rtol=0, atol=1e-12)
    xc = xd - xd.mean(axis=1, keepdims=True)
    assert np.allclose(stats.scatter(center=True), xc @ xc.T, atol=1e-12)
    assert np.allclose(stats.scatter(center=False), xd @ xd.T, atol=1e-12)
    assert np.allclose(stats.mean(), xd.mean(axis=1), atol=1e-15)
    sw = sum((xd[:, y == l] - xd[:, y == l].mean(axis=1, keepdims=True))
             @ (xd[:, y == l] - xd[:, y == l].mean(axis=1, keepdims=True)).T
             for l in (-1, 1))
    assert np.allclose(stats.within_scatter(), sw, atol=1e-12)
    # G and s do not depend on the labels
    unlabelled = decompose.class_moments(x)
    assert unlabelled.labels is None and unlabelled.shape == (7, 50)
    assert unlabelled.gram.tobytes() == stats.gram.tobytes()
    assert unlabelled.total.tobytes() == stats.total.tobytes()
    with pytest.raises(DataError, match="both classes"):
        unlabelled.within_scatter()


FIVE_METHODS = [("rd", 2, 4), ("pca", 2, 4), ("dca", 2, 4), ("bcd", 3, 4),
                ("abd", 3, 4)]


@pytest.mark.parametrize("form", ["dense", "sparse"])
def test_fit_plan_parts_are_the_entries_fitted_alone(form):
    # 11 features in 3 groups of 4: bcd/abd pad one coordinate. Each
    # part must be the one its entry fits from the data alone, to the bit,
    # although fit_plan hands pca, dca and bcd one shared moments pass
    rng = np.random.default_rng(23)
    xd = rng.normal(size=(11, 40)) * (rng.random(size=(11, 40)) < 0.7)
    x = sp.csc_array(xd) if form == "sparse" else xd
    y = np.where(rng.random(40) < 0.5, 1, -1)
    comp = fit_plan(x, y, FIVE_METHODS, seed=4)
    for i, (part, entry) in enumerate(zip(comp.parts, FIVE_METHODS)):
        alone = decompose.fit_plan_entry(x, y, entry,
                                         decompose.part_seed(4, i))
        assert part.method == alone.method
        for name in ("transform", "feature_order", "eigenvalues"):
            a, b = getattr(part, name), getattr(alone, name)
            assert (a is None and b is None) or a.tobytes() == b.tobytes()
        assert all(np.array_equal(g, h) for g, h in
                   zip(part.index_groups, alone.index_groups))


def test_fit_plan_takes_the_moments_once(monkeypatch):
    calls = []
    moments = decompose.class_moments

    def counting(x, y=None):
        if not isinstance(x, decompose.ClassMoments):  # a pass over x
            calls.append(y is not None)
        return moments(x, y)

    monkeypatch.setattr(decompose, "class_moments", counting)
    rng = np.random.default_rng(5)
    x = rng.normal(size=(11, 40))
    y = np.where(rng.random(40) < 0.5, 1, -1)
    fit_plan(x, y, FIVE_METHODS, seed=4)
    assert calls == [True]
    # only dca reads the class sums
    calls.clear()
    fit_plan(x, y, [("pca", 2, 4), ("bcd", 3, 4)], seed=4)
    assert calls == [False]
    # rd and abd read no Gram: no moments pass
    calls.clear()
    fit_plan(x, y, [("rd", 2, 4), ("abd", 3, 4)], seed=4)
    assert calls == []
    # wider than the dense guard: no pass, and the guard names the method
    with pytest.raises(ConfigError, match="pca needs dense"):
        fit_plan(x, y, [("pca", 2, 4)], seed=4, max_dense=10)
    assert calls == []


@pytest.mark.parametrize("size", [3, 4])
def test_block_gram_dense_matches_sparse(size):
    # the dense route sums in one product, the sparse one block pair by
    # block pair; 10 features in groups of 4 pad two coordinates
    rng = np.random.default_rng(size)
    xd = rng.normal(size=(10, 30)) * (rng.random(size=(10, 30)) < 0.5)
    groups, _ = disjoint_groups(10, 3, size, rng)
    dense = block_gram(xd, groups)
    sparse = block_gram(sp.csc_array(xd), groups)
    assert np.allclose(dense, sparse, rtol=0, atol=1e-12)
    order = np.concatenate(groups)
    padded = np.zeros((len(order), 30))
    padded[:10] = xd
    blocks = padded[order].reshape(len(groups), len(groups[0]), 30)
    assert np.allclose(dense, np.einsum("ikn,jkn->ij", blocks, blocks),
                       rtol=0, atol=1e-12)


@pytest.mark.parametrize("form", ["dense", "sparse"])
def test_every_fitted_part_has_the_shapes_its_map_reads(form):
    # a part's fields are checked against each other when it is built;
    # every method fits one, on either route. 61 features in 8 groups of 8:
    # bcd/abd pad three coordinates. The sparse input stays sparse at the
    # `_as_matrix` gate
    rng = np.random.default_rng(31)
    xd = rng.normal(size=(61, 50)) * (rng.random(size=(61, 50)) < 0.1)
    x = sp.csc_array(xd) if form == "sparse" else xd
    assert sp.issparse(_as_matrix(x)) == (form == "sparse")
    y = np.where(np.arange(50) % 2 == 0, 1, -1)
    plan = [("rd", 3, 8), ("pca", 3, 8), ("dca", 3, 8), ("bcd", 8, 8),
            ("abd", 8, 8)]
    comp = fit_plan(x, y, plan, seed=2)
    assert [p.method for p in comp.parts] == list(METHODS)
    for part in comp.parts[3:]:
        assert part.n_features_out == 64 and len(part.feature_order) == 64
    assert comp.parts[4].transform.shape == (8, 8)
    assert comp.parts[3].transform.shape == (64, 64)
    views = apply_decomposition(comp, x)
    assert len(views) == comp.h == 25


def test_bcd_views_read_the_data_without_a_padded_copy(monkeypatch):
    # 61 features in 8 groups of 8 pad three coordinates; the sparse input
    # stays sparse at the gate. bcd's padding and re-arrangement live in its
    # transform's columns, so neither route builds a padded copy, and the
    # two routes agree
    rng = np.random.default_rng(41)
    xd = rng.normal(size=(61, 50)) * (rng.random(size=(61, 50)) < 0.1)
    xs = sp.csc_array(xd)
    assert sp.issparse(_as_matrix(xs))
    groups, padded = disjoint_groups(61, 8, 8, np.random.default_rng(3))
    comp = CompositeDecomposition([fit_bcd(xd, groups)])
    assert padded == 64

    def refuse(*args):
        raise AssertionError("bcd built a padded copy of its input")

    monkeypatch.setattr(decompose, "_padded_rearranged", refuse)
    from_sparse = apply_decomposition(comp, xs)
    from_dense = apply_decomposition(comp, xd)
    assert len(from_sparse) == len(from_dense) == 8
    for a, b in zip(from_sparse, from_dense):
        assert isinstance(a, np.ndarray) and a.shape == b.shape == (8, 50)
        assert np.allclose(a, b, rtol=0, atol=1e-12)
