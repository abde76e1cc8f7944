"""Feature-space decomposition: five sub-methods and their composition.

Each sub-method produces a `SubspaceDecomposition`: a linear transform of
the feature space plus index groups that carve the transformed coordinates
into subspaces. A `CompositeDecomposition` stacks several sub-methods; its
total subspace count h is what the divide-and-conquer pipeline fans out to.

Sub-methods
-----------
rd   seeded random index groups over the raw features; identity transform
     (never materialized).
pca  rows of the transform are eigenvectors of the centered feature
     scatter, ranked by descending eigenvalue.
dca  supervised variant: generalized eigenvectors of the centered scatter
     against the ridged within-class scatter.
bcd  blocked Gaussian (Doolittle) elimination that congruence-transforms
     the uncentered feature gram to block-diagonal form; the transform is
     the product of unit-block-triangular eliminators.
abd  block-level gram matrix (sum of elementwise products per block pair),
     eigendecomposed; the transform mixes whole equal-size blocks with the
     eigenvector weights and is orthogonal by construction.

bcd and abd rearrange features and may pad the feature space with zero
rows so the block grid is exact; both are recorded and re-applied to
held-out data automatically. abd re-arranges and pads a copy of the
data; bcd folds both into its transform's columns on the dense and the
sparse route alike, so its views read the data as it is.

pca, dca and bcd read the data only through its moments
(`class_moments`: the Gram G = X Xᵀ, the row sums, and the row sums and
count of each class): pca diagonalizes the centered scatter derived from
them, dca also the within-class scatter, and bcd eliminates the
re-arranged, zero-padded G. `fit_plan` takes the moments once for all
of a plan's pca, dca and bcd entries; an entry handed the data matrix
takes the same moments itself, so a part's bits do not depend on the
plan around it.
abd sums its block-pair gram over the blocks of the data (`block_gram`),
which also serves sparse data of any width.
"""

from dataclasses import dataclass, field
from typing import Optional

import numpy as np
import scipy.sparse as sp
from numpy.typing import NDArray

from .errors import ConfigError, DataError, NumericError
from .numerics import solve_spd, sym_eig
from .report import timed
from .rules import METHODS, require

# each method and the optional fields its map reads, in `_apply_part`'s order
_MAP_FIELDS = dict(zip(METHODS, [(), ("transform",), ("transform",),
                                 ("feature_order", "transform"),
                                 ("feature_order", "block_size", "transform")],
                       strict=True))
DEFAULT_MAX_DENSE_FEATURES = 4096
# the methods whose fit reads the dense M x M Gram (`class_moments`)
_GRAM_METHODS = ("pca", "dca", "bcd")


@dataclass
class SubspaceDecomposition:
    """One fitted sub-method.

    index_groups live in the output coordinate space (0-based). transform
    is None for rd (identity), a full (n_out x n_out) matrix for pca/dca/
    bcd, and the small block-mixing eigenvector matrix V for abd (the
    effective transform is kron(V.T, I_blocksize), never materialized for
    large feature counts). feature_order records bcd/abd's rearrangement
    of the (zero-padded) input rows.
    """

    method: str
    n_features_in: int
    n_features_out: int
    index_groups: list[NDArray[np.int64]]
    transform: Optional[NDArray[np.float64]] = None
    feature_order: Optional[NDArray[np.int64]] = None
    block_size: Optional[int] = None
    eigenvalues: Optional[NDArray[np.float64]] = None
    fit_stats: dict[str, float] = field(default_factory=dict)

    def __post_init__(self):
        # `_apply_part` reads the fields, not the name, and a model file is
        # outside input: its fields must be those of the method it names,
        # with the sizes its map reads
        method, n = self.method, self.n_features_out
        if method not in _MAP_FIELDS:
            raise ConfigError(f"unknown decomposition method {method!r}")
        present = tuple(name for name in ("feature_order", "block_size",
                                          "transform")
                        if getattr(self, name) is not None)
        if present != _MAP_FIELDS[method]:
            raise ConfigError(f"a {method} part sets {present}, not "
                              f"{_MAP_FIELDS[method]}")
        padded = self.feature_order is not None  # bcd, abd
        if (n < self.n_features_in) if padded else (n != self.n_features_in):
            raise ConfigError(f"a {method} part maps {self.n_features_in} "
                              f"features to {n}")
        if padded and not np.array_equal(np.sort(self.feature_order),
                                         np.arange(n)):
            raise ConfigError(f"a {method} part's feature_order is not a "
                              f"permutation of its {n} output rows")
        side = n if self.block_size is None else len(self.index_groups)
        if self.transform is not None and np.shape(self.transform) != (side, side):
            raise ConfigError(f"a {method} part's transform has shape "
                              f"{np.shape(self.transform)}, not {(side, side)}")
        if self.block_size is not None and self.block_size * side != n:
            raise ConfigError(f"a {method} part's {side} blocks of "
                              f"{self.block_size} are not its {n} output rows")
        for g in self.index_groups:
            if len(g) and (np.min(g) < 0 or np.max(g) >= n):
                raise ConfigError(f"a {method} part's index group reaches "
                                  f"outside its {n} output coordinates")

    @property
    def n_subspaces(self):
        return len(self.index_groups)


@dataclass
class CompositeDecomposition:
    """Ordered stack of fitted sub-methods; h = total subspace count."""

    parts: list[SubspaceDecomposition]

    def __post_init__(self):
        if not self.parts:
            raise ConfigError("composite decomposition needs at least one part")
        dims = {p.n_features_in for p in self.parts}
        if len(dims) != 1:
            raise ConfigError(f"parts disagree on input feature count: {sorted(dims)}")

    @property
    def n_features_in(self):
        return self.parts[0].n_features_in

    @property
    def h(self):
        return sum(p.n_subspaces for p in self.parts)


def _as_matrix(x):
    """The matrix the pipeline works on, from a raw (sparse or dense)
    n_features x n matrix, or a dense vector read as one column.

    This is the one gate between the sparse and the dense route: every
    decomposition, learner and predict input passes it. A sparse
    matrix whose dense float64 form takes no more bytes than its CSC
    arrays (8·M·N <= data + indices + indptr bytes) comes back as a dense
    ndarray; any other sparse matrix comes back unchanged. The rule reads
    only the input, so dense data (every feature present) takes BLAS
    products while bag-of-words data keeps its sparse products.
    """
    if not sp.issparse(x):
        x = np.asarray(x, dtype=np.float64)
        return x[:, None] if x.ndim == 1 else x
    m, n = x.shape
    # CSC and CSR share nnz and index width: count without converting
    counted = x if x.format in ("csc", "csr") else x.tocsc()
    index = counted.indices.itemsize
    if 8 * m * n <= counted.nnz * (counted.data.itemsize + index) + (n + 1) * index:
        return _densify(x)
    return x


def _require_finite(x, role):
    """Refuse a matrix with a NaN or infinite entry (for sparse x, among
    its stored values): a NumericError naming the `role` of its
    features."""
    if not np.all(np.isfinite(x.data if sp.issparse(x) else x)):
        raise NumericError(f"{role} features contain non-finite values")


def _densify(x):
    """Dense float64 copy of a sparse matrix (the gate's one conversion),
    column-major as a CSC matrix densifies, whatever the input format.

    A single float64 CSC column (one query) is summed straight into its
    dense column in storage order, as `toarray` sums duplicates. Its
    (M, 1) output is both C- and F-contiguous, so `toarray` would first
    convert it to CSR; a CSR column already densifies without conversion.
    """
    m, n = x.shape
    if x.format == "csc" and n == 1 and x.dtype == np.float64:
        end = x.indptr[1]
        column = np.bincount(x.indices[:end], weights=x.data[:end], minlength=m)
        return column[:, None]
    return np.asfortranarray(x.toarray(), dtype=np.float64)


# ---------------------------------------------------------------------------
# index-group construction


def overlapping_groups(n_coords, n_subspaces, group_size, rng):
    """Seeded-shuffle grouping: permute once, take consecutive runs, and
    re-shuffle whenever a run would fall off the end (so oversubscribed
    plans produce overlapping groups). The counts take the config's
    `PlanEntry` rules and a group may not outgrow the n_coords."""
    require("PlanEntry.n_subspaces", n_subspaces)
    require("PlanEntry.group_size", group_size)
    if group_size > n_coords:
        raise ConfigError(f"group size {group_size} exceeds {n_coords} coordinates")
    perm = rng.permutation(n_coords)
    pos = 0
    groups = []
    for _ in range(n_subspaces):
        if pos + group_size > n_coords:
            perm = rng.permutation(n_coords)
            pos = 0
        groups.append(np.sort(perm[pos:pos + group_size]).astype(np.int64))
        pos += group_size
    return groups


def disjoint_groups(n_features, n_subspaces, group_size, rng):
    """Disjoint equal-size grouping for bcd/abd, padding with zero features.

    The effective group size is max(group_size, ceil(M / n_subspaces)) so
    the groups always cover every real feature; real features are shuffled
    into the leading blocks and the zero padding fills the tail. Returns
    (groups over the padded index space, padded feature count); the
    counts take the config's `PlanEntry` rules.
    """
    require("PlanEntry.n_subspaces", n_subspaces)
    require("PlanEntry.group_size", group_size)
    size = max(group_size, -(-n_features // n_subspaces))
    padded = size * n_subspaces
    order = np.concatenate([rng.permutation(n_features),
                            np.arange(n_features, padded)])
    return (
        [np.sort(order[i * size:(i + 1) * size]).astype(np.int64) for i in range(n_subspaces)],
        padded,
    )


def _check_partition(groups, equal_sizes, n_features):
    """The padded count the groups cover disjointly: n_features or more."""
    sizes = [len(g) for g in groups]
    if not groups or min(sizes) < 1:
        raise ConfigError("index groups must be non-empty")
    if equal_sizes and len(set(sizes)) != 1:
        raise ConfigError(f"groups must have equal sizes, got {sizes}")
    total = int(np.sum(sizes))
    flat = np.concatenate(groups)
    if flat.min() < 0 or flat.max() != total - 1 or np.unique(flat).size != total:
        raise ConfigError(
            "index groups must disjointly cover 0..n-1 (pad the feature "
            "space first if the plan oversubscribes it)"
        )
    if total < n_features:
        raise ConfigError(f"padded size {total} smaller than feature count "
                          f"{n_features}")
    return total


def _padded_rearranged(x, order, n_padded):
    """Zero-pad x to n_padded rows and rearrange rows by `order`."""
    m, n = x.shape
    if sp.issparse(x):
        csc = x.tocsc()
        xp = sp.csc_array((csc.data, csc.indices, csc.indptr),
                          shape=(n_padded, n))
        return sp.csr_array(xp.tocsr()[order])
    xr = np.zeros((n_padded, n))
    xr[_rows_of(order)[:m]] = x  # one copy
    return xr


def _rows_of(order):
    """The inverse permutation: feature f lands on row `_rows_of(order)[f]`
    of the rearranged matrix."""
    rows = np.empty(len(order), dtype=np.intp)
    rows[order] = np.arange(len(order))
    return rows


# ---------------------------------------------------------------------------
# class moments and the scatters derived from them


@dataclass
class ClassMoments:
    """Moments of an n_features x N data matrix X, from one product each.

    The Gram G = X Xᵀ, the row sums s and the count N; with labels, also
    each class c's row sums s_c and count n_c (labels sorted). The
    centered scatter is Ĝ = G − s sᵀ/N and the within-class scatter is
    S_w = Σ_c (G_c − s_c s_cᵀ/n_c) = G − Σ_c s_c s_cᵀ/n_c, so no
    per-class Gram is needed. G and s do not depend on the labels, so a
    fit reads the same bits from the moments with or without them.
    Overflow is not trapped here: non-finite entries are rejected by the
    solvers that read them, with a NumericError naming the failing stage.
    """

    gram: NDArray[np.float64]
    total: NDArray[np.float64]
    n_instances: int
    labels: Optional[NDArray[np.float64]] = None
    sums: Optional[NDArray[np.float64]] = None
    counts: Optional[NDArray[np.int64]] = None

    @property
    def shape(self):
        """(n_features, N) of the matrix the moments were taken from, so a
        fit reads its feature count alike from either input."""
        return self.gram.shape[0], self.n_instances

    def mean(self):
        """The feature means s/N."""
        return self.total / self.n_instances

    def scatter(self, center):
        """G, or Ĝ = G − s sᵀ/N when centered, symmetrized."""
        with np.errstate(over="ignore", invalid="ignore"):
            g = self.gram
            if center:
                g = g - np.outer(self.total, self.total) / self.n_instances
            return (g + g.T) / 2.0

    def within_scatter(self):
        """S_w = G − Σ_c s_c s_cᵀ/n_c, symmetrized (two classes
        expected)."""
        if self.labels is None or self.labels.size < 2:
            raise DataError("within-class scatter needs both classes present")
        with np.errstate(over="ignore", invalid="ignore"):
            sw = self.gram - sum(np.outer(s, s) / n
                                 for s, n in zip(self.sums, self.counts))
            return (sw + sw.T) / 2.0


def class_moments(x, y=None):
    """The `ClassMoments` of a raw (sparse or dense) n_features x N matrix,
    with the per-class sums of the labels y when given: one product for G,
    one for the class sums (X times the class indicator), no column
    copies. Moments passed in come back unchanged, so a fit takes
    either."""
    if isinstance(x, ClassMoments):
        return x
    x = _as_matrix(x)
    n = x.shape[1]
    with np.errstate(over="ignore", invalid="ignore"):
        g = x @ x.T
        moments = ClassMoments(g.toarray() if sp.issparse(g) else g,
                               np.asarray(x.sum(axis=1)).ravel(), n)
        if y is not None:
            y = np.asarray(y, dtype=np.float64).ravel()
            labels, which, counts = np.unique(y, return_inverse=True,
                                              return_counts=True)
            indicator = np.zeros((n, labels.size))
            indicator[np.arange(n), which] = 1.0
            moments.labels, moments.counts = labels, counts
            moments.sums = np.asarray(x @ indicator).T
    return moments


def feature_scatter(x, center):
    """Dense feature scatter X Xᵀ, optionally after centering each row."""
    return class_moments(x).scatter(center)


def within_class_scatter(x, y):
    """Sum over classes of the class-centered scatter (two classes expected)."""
    return class_moments(x, y).within_scatter()


def _guard_dense(m, max_dense, method):
    if m > max_dense:
        raise ConfigError(
            f"{method} needs dense {m}x{m} work but the guard allows at most "
            f"{max_dense} features; use rd or abd for this dimension"
        )


# ---------------------------------------------------------------------------
# sub-method fitting


def _grouped_part(method, m, n_subspaces, group_size, seed, **fields):
    """An rd, pca or dca part: `fields` over m coordinates, cut into the
    groups `overlapping_groups` draws with the seed."""
    groups = overlapping_groups(m, n_subspaces, group_size,
                                np.random.default_rng(seed))
    return SubspaceDecomposition(method=method, n_features_in=m,
                                 n_features_out=m, index_groups=groups,
                                 **fields)


def make_rd(n_features, n_subspaces, group_size, seed):
    """Random decomposition: identity transform, seeded index groups."""
    return _grouped_part("rd", n_features, n_subspaces, group_size, seed)


def fit_pca(x, n_subspaces, group_size, seed=0,
            max_dense=DEFAULT_MAX_DENSE_FEATURES):
    """Principal-component transform; groups drawn over the rotated
    coordinates with the same seeded scheme as rd. x is the data matrix or
    its `class_moments`."""
    m = np.shape(x)[0]
    _guard_dense(m, max_dense, "pca")
    scatter = class_moments(x).scatter(center=True)
    values, vectors = sym_eig(scatter)
    return _grouped_part(
        "pca", m, n_subspaces, group_size, seed, transform=vectors.T,
        eigenvalues=values,
        fit_stats={"scatter_norm": float(np.linalg.norm(scatter))})


def default_dca_ridge(sw, scatter):
    """Scale-aware ridge: 1e-3 tr(S_w)/M, with a floor for degenerate S_w."""
    m = sw.shape[0]
    rho = 1e-3 * float(np.trace(sw)) / m
    if rho <= 0.0:
        rho = 1e-9 * (1.0 + float(np.trace(scatter)) / m)
    return rho


def fit_dca(x, y, rho=None, n_subspaces=1, group_size=None, seed=0,
            max_dense=DEFAULT_MAX_DENSE_FEATURES):
    """Discriminant transform: generalized eigenvectors of the centered
    scatter against the ridged within-class scatter, descending eigenvalue.
    x is the data matrix, or its `class_moments` taken with the labels
    y."""
    m = np.shape(x)[0]
    _guard_dense(m, max_dense, "dca")
    if group_size is None:
        group_size = m
    moments = class_moments(x, y)
    scatter = moments.scatter(center=True)
    sw = moments.within_scatter()
    if rho is None:
        rho = default_dca_ridge(sw, scatter)
    require("RunConfig.dca_ridge", rho)
    ridged = sw + rho * np.eye(m)
    values, vectors = sym_eig(scatter, ridged)
    return _grouped_part("dca", m, n_subspaces, group_size, seed,
                         transform=vectors.T, eigenvalues=values,
                         fit_stats={"ridge": float(rho)})


def _solve_pivot(pivot, rhs_t, scatter_norm):
    """rhs_t @ pivot^-1 with a one-shot ridge retry on singular pivots."""
    try:
        return solve_spd(pivot, rhs_t.T).T
    except NumericError:
        eps = 1e-8 * scatter_norm / max(pivot.shape[0], 1)
        try:
            return solve_spd(pivot + eps * np.eye(pivot.shape[0]), rhs_t.T).T
        except NumericError as exc:
            raise NumericError(
                "bcd pivot block is singular even after ridge augmentation; "
                "regroup the features or drop constant ones"
            ) from exc


def fit_bcd(x, index_groups, max_dense=DEFAULT_MAX_DENSE_FEATURES):
    """Blocked Doolittle elimination of the feature gram.

    x is the data matrix or its `class_moments`. index_groups must
    disjointly partition the (possibly padded) feature index range;
    `disjoint_groups` builds such a partition from a plan entry. The gram
    is G re-arranged by the groups, zero on the padding rows, written
    straight into the one array the elimination works on. Each eliminator
    is built against the current gram, so the accumulated transform is
    the product B_h ... B_1 and the final gram is block-diagonal up to
    roundoff. The gram and the transform are dense over the padded range,
    so that count is what `max_dense` bounds.
    """
    m = np.shape(x)[0]
    n_padded = _check_partition(index_groups, False, m)
    _guard_dense(n_padded, max_dense, "bcd")
    order = np.concatenate(index_groups)
    rows = _rows_of(order)[:m]
    s = np.zeros((n_padded, n_padded))  # the gram, eliminated in place
    s[np.ix_(rows, rows)] = class_moments(x).scatter(center=False)
    scatter_norm = float(np.linalg.norm(s))

    offsets = np.cumsum([0] + [len(g) for g in index_groups])
    w = np.eye(n_padded)
    for i in range(len(index_groups) - 1):
        piv = slice(offsets[i], offsets[i + 1])
        below = slice(offsets[i + 1], n_padded)
        pivot = s[piv, piv]
        if not np.any(pivot) and not np.any(s[below, piv]):
            continue  # all-zero padding block: eliminator is the identity
        elim = _solve_pivot(pivot, s[below, piv], scatter_norm)
        s[below, :] -= elim @ s[piv, :]
        s[:, below] -= s[:, piv] @ elim.T
        w[below, :] -= elim @ w[piv, :]

    out_groups, off = [], np.ones_like(s, dtype=bool)
    for lo, hi in zip(offsets[:-1], offsets[1:]):
        out_groups.append(np.arange(lo, hi, dtype=np.int64))
        off[lo:hi, lo:hi] = False  # True off the diagonal blocks
    residual = float(np.linalg.norm(s[off])) / scatter_norm if scatter_norm else 0.0
    return SubspaceDecomposition(
        method="bcd", n_features_in=m, n_features_out=n_padded,
        index_groups=out_groups, transform=w, feature_order=order,
        fit_stats={"offdiag_block_residual": residual,
                   "scatter_norm": scatter_norm})


def block_gram(x, index_groups):
    """Block-pair gram: entry (i, j) is the sum of the elementwise product
    of row-blocks i and j of the rearranged matrix (x passes the
    `_as_matrix` gate)."""
    x = _as_matrix(x)
    n_padded = _check_partition(index_groups, True, x.shape[0])
    order = np.concatenate(index_groups)
    xr = _padded_rearranged(x, order, n_padded)
    size = len(index_groups[0])
    count = len(index_groups)
    if not sp.issparse(xr):
        # block i is row i of the C-ordered rows laid end to end
        flat = xr.reshape(count, size * xr.shape[1])
        return flat @ flat.T, xr, order, size
    gram = np.zeros((count, count))
    blocks = [xr[i * size:(i + 1) * size] for i in range(count)]
    for i in range(count):
        for j in range(i, count):
            gram[i, j] = gram[j, i] = blocks[i].multiply(blocks[j]).sum()
    return gram, xr, order, size


def fit_abd(x, index_groups):
    """Approximately orthogonal block transform.

    Eigendecomposes the block-pair gram and mixes whole blocks with the
    eigenvector weights: output block i is sum_j V[j, i] * block_j, i.e.
    the effective transform is kron(V.T, I_blocksize), orthogonal because
    V is. Requires disjoint equal-size groups (zero-pad first). Reads the
    data matrix, of any width, through `block_gram`.
    """
    gram, _, order, size = block_gram(x, index_groups)
    values, vectors = sym_eig(gram)
    regram = vectors.T @ gram @ vectors
    off = regram - np.diag(np.diag(regram))
    gram_norm = float(np.linalg.norm(gram))
    count = len(index_groups)
    out_groups = [np.arange(i * size, (i + 1) * size, dtype=np.int64)
                  for i in range(count)]
    residual = float(np.linalg.norm(off)) / gram_norm if gram_norm else 0.0
    return SubspaceDecomposition(
        method="abd", n_features_in=np.shape(x)[0], n_features_out=count * size,
        index_groups=out_groups, transform=vectors, feature_order=order,
        block_size=size, eigenvalues=values,
        fit_stats={"regram_offdiag_residual": residual})


# ---------------------------------------------------------------------------
# composition and application


def _apply_part(part, x):
    """Yield the views of one part in order, read off the part's own
    fields: mix whole blocks of the re-arranged, padded rows (abd) or
    multiply by the transform (pca, dca, bcd), then slice the groups. The
    product is taken once and each view is gathered from it only when
    asked for, so a caller that drops each view before taking the next
    holds one at a time. bcd's padding and re-arrangement are folded into
    its transform: the padding rows add nothing to the product, so only
    the columns of real rows are read."""
    if part.block_size is not None:  # view i is sum_j V[j, i] * block j
        x = _padded_rearranged(x, part.feature_order, part.n_features_out)
        size, v = part.block_size, part.transform
        if not sp.issparse(x):  # one product over the C-ordered blocks
            mixed = v.T @ x.reshape(len(v), size * x.shape[1])
            for row in mixed:
                yield row.reshape(size, x.shape[1])
            return
        blocks = [x[j * size:(j + 1) * size] for j in range(len(v))]
        for i in range(len(v)):
            yield sum((blocks[j] * v[j, i] for j in range(1, len(v))),
                      blocks[0] * v[0, i])
        return
    if part.transform is not None:
        t = part.transform
        if part.feature_order is not None:  # bcd
            t = t[:, _rows_of(part.feature_order)[:x.shape[0]]]
        x = (x.T @ t.T).T if sp.issparse(x) else t @ x
    elif sp.issparse(x):
        x = x.tocsr()
    for g in part.index_groups:
        yield x[g]


def check_feature_count(comp: CompositeDecomposition, x):
    """DataError unless x has the feature count comp was fitted on."""
    if x.shape[0] != comp.n_features_in:
        raise DataError(f"data has {x.shape[0]} features but the decomposition "
                        f"was fitted on {comp.n_features_in}")


def apply_decomposition(comp: CompositeDecomposition, x):
    """Project data through every part and slice out the h subspace views.

    Views are returned part by part, groups in order within each part;
    each view is a (group_size x n_instances) matrix. On the sparse route
    (x stays sparse at the `_as_matrix` gate) views are sparse where the
    transform preserves sparsity (rd, abd) and dense otherwise; on the
    dense route every view is dense.
    """
    x = _as_matrix(x)
    check_feature_count(comp, x)
    views = []
    for part in comp.parts:
        views.extend(_apply_part(part, x))
    return views


def linear_pullback(comp: CompositeDecomposition, weights):
    """The M x h matrix whose column k maps input features to view k's
    linear score: column k . x == weights[k] . (view k of x), for weight
    vectors in view order (as `apply_decomposition` returns the views).

    Every map is linear and defined only in `_apply_part`: view k of a
    basis E with E·Eᵀ = I is P_k·E, so column k is E·(P_k·E)ᵀ·weights[k].
    E is the sparse identity, or for bcd/abd the transpose of their row
    re-arrangement of it, so that each sum runs over the padded output
    coordinates in their order (BLAS sums the trailing entries of a
    product differently, so an entry's bits depend on its position).
    pca/dca/bcd project E into a dense n_out x n_out transient, which the
    dense-features guard bounds. C-contiguous, so that `x.T @ at` runs on
    contiguous rows for one sparse column.
    """
    if len(weights) != comp.h:
        raise DataError(f"{len(weights)} weight vectors but {comp.h} subspaces")
    eye = sp.identity(comp.n_features_in, format="csc")
    cols = []
    for part in comp.parts:
        basis = eye
        if part.feature_order is not None:
            basis = _padded_rearranged(eye, part.feature_order,
                                       part.n_features_out).T
        for view in _apply_part(part, basis):
            cols.append(basis @ (view.T @ weights[len(cols)]))
    return np.ascontiguousarray(np.column_stack(cols))


# ---------------------------------------------------------------------------
# plan-level fitting


def part_seed(run_seed, part_index):
    """Stable per-part child seed derived from the run seed, which takes
    the config's `RunConfig.seed` rule (>= 0, else a ConfigError)."""
    require("RunConfig.seed", run_seed)
    seq = np.random.SeedSequence((int(run_seed), int(part_index)))
    return int(seq.generate_state(1, np.uint64)[0])


def fit_plan_entry(x, y, entry, child_seed,
                   max_dense=DEFAULT_MAX_DENSE_FEATURES, dca_ridge=None):
    """Fit a single plan entry with an already-derived child seed. x is
    the data matrix, or for rd, pca, dca and bcd also its
    `class_moments` (with the labels' class sums for dca)."""
    m = np.shape(x)[0]
    method, n_sub, size = _plan_triple(entry)
    if method == "rd":
        return make_rd(m, n_sub, size, child_seed)
    if method == "pca":
        return fit_pca(x, n_sub, size, seed=child_seed, max_dense=max_dense)
    if method == "dca":
        return fit_dca(x, y, rho=dca_ridge, n_subspaces=n_sub, group_size=size,
                       seed=child_seed, max_dense=max_dense)
    groups, _ = disjoint_groups(m, n_sub, size,
                                np.random.default_rng(child_seed))
    if method == "bcd":
        return fit_bcd(x, groups, max_dense=max_dense)
    return fit_abd(x, groups)


def fit_plan(x, y, plan, seed, max_dense=DEFAULT_MAX_DENSE_FEATURES,
             dca_ridge=None):
    """Fit every plan entry and compose the result.

    plan is a sequence of (method, n_subspaces, group_size) triples (or
    objects with those attributes). `check_plan` holds the plan, each
    entry, the run seed, max_dense and dca_ridge to the config's rules
    before anything is fitted, so a value the config refuses is a
    ConfigError that no fit precedes; then x with a NaN or infinite
    entry is a NumericError. Each entry gets a child seed
    derived from (seed, entry position). When the plan has a pca, dca or
    bcd entry and x has at most `max_dense` features, one pass takes the
    `class_moments` of x that those entries all read; each part is the
    one `fit_plan_entry` fits from x alone, to the bit. bcd/abd entries
    build their disjoint padded partition with that child seed; a bcd/abd
    plan whose n_subspaces * group_size falls short of the feature count
    gets larger groups so real features are always covered. Each entry's
    fit is `timed` as `fit_<method>`, so an open `report.recording()`
    gains its seconds, summed per method.
    """
    entries = check_plan(plan, seed, max_dense, dca_ridge)
    _require_finite(x, "training")
    methods = {triple[0] for triple, _ in entries}
    moments = None
    if np.shape(x)[0] <= max_dense and methods & set(_GRAM_METHODS):
        # only dca reads the class sums
        moments = class_moments(x, y if "dca" in methods else None)
    parts = []
    for triple, child_seed in entries:
        method = triple[0]
        source = x if moments is None or method not in _GRAM_METHODS else moments
        with timed(f"fit_{method}"):
            parts.append(fit_plan_entry(source, y, triple, child_seed,
                                        max_dense=max_dense, dca_ridge=dca_ridge))
    return CompositeDecomposition(parts)


def check_plan(plan, seed, max_dense=DEFAULT_MAX_DENSE_FEATURES,
               dca_ridge=None):
    """[(entry triple, child seed)] of plan, once the plan, its entries
    (named `plan[i]`), seed, max_dense and dca_ridge took their rules."""
    require("RunConfig.plan", plan)
    require("Guards.max_dense_features", max_dense)
    require("RunConfig.dca_ridge", dca_ridge)
    return [(_plan_triple(e, f"plan[{i}]"), part_seed(seed, i))
            for i, e in enumerate(plan)]


def _plan_triple(entry, where="entry"):
    """(method, n_subspaces, group_size) of a plan entry, each taking the
    config's `PlanEntry` rule."""
    if isinstance(entry, (tuple, list)):
        method, n_sub, size = entry
    else:
        method, n_sub, size = entry.method, entry.n_subspaces, entry.group_size
    for name, value in (("method", method), ("n_subspaces", n_sub),
                        ("group_size", size)):
        require(f"PlanEntry.{name}", value, name=f"{where}.{name}")
    return method, int(n_sub), int(size)
