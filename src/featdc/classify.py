"""Local and global learners.

Two model families cover both roles in the pipeline:

* a regularized least-squares linear classifier with an unregularized
  bias (the bias row of the augmented normal equations is eliminated by
  centering, so only the weights are penalized), and
* kernel ridge regression with the order-p truncated-RBF feature map,
  trained directly in the finite intrinsic space of dimension
  J = C(m + p, p).

Both produce continuous decision scores; sign(score) is the label, with
sign(0) = +1. Every matrix a learner, `trbf_expand` or `sigma_heuristic`
receives passes the `decompose._as_matrix` gate, so the same data held
sparse or dense takes one route and gives the same bits.
"""

import functools
import itertools
import math
import os
from concurrent.futures import ThreadPoolExecutor
from contextlib import nullcontext
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
import scipy.sparse as sp
from numpy.typing import NDArray
from scipy.sparse.linalg import LinearOperator, lsmr

from .decompose import (DEFAULT_MAX_DENSE_FEATURES, _as_matrix,
                        _require_finite, class_moments)
from .errors import ConfigError, DataError, NumericError
from .numerics import solve_spd
from .rules import LEARNER_TYPES, require

# Columns per expanded chunk of the TRBF map. The width fixes the Gram's
# summation order, so it is a constant, independent of `threads`.
EXPAND_CHUNK = 2048
# Rows per block when the TRBF normal matrix's upper block-triangle is
# filled from its moments. Each block is one task with one writer and the
# partition ignores `threads`, so the matrix has the same bits for every
# thread count.
GRAM_BLOCK = 64
# Degree-p rows per product task of the TRBF Gram's moments: rows that
# share a last coordinate are merged, smallest coordinate first, until a
# task holds this many, so no product is too thin for the BLAS.
MOMENT_GROUP = 32
# Rows (CSR) or columns (CSC) per block when the LSMR route squares a
# sparse view's entries, which bounds the squared copy it holds at once.
SUMSQ_BLOCK = 1024
# Largest J·n (output cells) that `trbf_expand` fills one degree at a
# time: below it the run fill's per-call cost dominates, above it the
# level fill's gathered copies do. Set by end-to-end runs, not synthetic
# probes: on a 2-vCPU host the fusion-wide benchmark's 256-query batches
# (231 x 256 cells) scored 648k instances/s with the level fill against
# 610k at 1 << 15, which sends them to the run fill (median of 4 pairs).
LEVEL_CELLS = 1 << 16


def default_lam(n_instances):
    """Data-scaled ridge default: 1e-3 per training instance."""
    return 1e-3 * n_instances


def _training_inputs(x, y, lam):
    """The preamble both learners share: (x, y, lam) with x through the
    `_as_matrix` gate and finite, y as float64 with one label per
    instance, and lam (None: `default_lam(N)`) taking the config's
    `LearnerSpec.lam` rule (positive)."""
    x = _as_matrix(x)
    _require_finite(x, "training")
    y = np.asarray(y, dtype=np.float64).ravel()
    if y.shape[0] != x.shape[1]:
        raise DataError(f"{x.shape[1]} instances but {y.shape[0]} labels")
    lam = default_lam(x.shape[1]) if lam is None else lam
    require("LearnerSpec.lam", lam, name="ridge parameter")
    return x, y, lam


class _Scorer:
    """What both models' scoring shares: the query gate with its width
    check, and the label of a score."""

    def _query(self, x):
        x = _as_matrix(x)
        if x.shape[0] != self.n_features:
            raise DataError(f"model expects {self.n_features} features, "
                            f"got {x.shape[0]}")
        return x

    def predict(self, x):
        return label_from_score(self.decision_function(x))


# ---------------------------------------------------------------------------
# linear model


@dataclass
class LinearModel(_Scorer):
    weights: NDArray[np.float64]
    bias: float
    lam: float
    solver: str = "dense"

    @property
    def n_features(self):
        return self.weights.shape[0]

    def decision_function(self, x):
        x = self._query(x)
        return np.asarray(x.T @ self.weights).ravel() + self.bias


def label_from_score(scores):
    """sign with sign(0) = +1, as int64 labels."""
    return np.where(np.asarray(scores) >= 0.0, 1, -1).astype(np.int64)


def train_linear(x, y, lam=None, max_dense=DEFAULT_MAX_DENSE_FEATURES):
    """Minimize sum_n (w.x_n + b - y_n)^2 + lam ||w||^2 (bias unpenalized).

    Features up to `max_dense` go through the dense normal equations via
    a Cholesky solve; larger dimensions use LSMR on the centered operator,
    column-scaled by D = diag(X_c X_c^T + lam I)^(-1/2) (solving for v in
    w = D v), which minimizes the identical objective. Both routes must
    leave a relative normal-equation residual of at most 1e-8, read on
    the unscaled weights w. The inputs first pass `_training_inputs`.
    """
    x, y, lam = _training_inputs(x, y, lam)
    d, n = x.shape

    ybar = float(y.mean())
    yc = y - ybar
    rhs = np.asarray(x @ yc).ravel()  # X_c y_c = X y_c since y_c sums to 0

    if d <= max_dense:
        moments = class_moments(x)  # the means and the scatter, one pass
        mu = moments.mean()
        a = moments.scatter(center=True) + lam * np.eye(d)
        w = solve_spd(a, rhs)
        resid = np.linalg.norm(a @ w - rhs)
        solver = "dense"
    else:
        mu = np.asarray(x.mean(axis=1)).ravel()
        w, resid = _lsmr_weights(x, mu, yc, lam, rhs)
        solver = "lsmr"
    rel = resid / (1.0 + np.linalg.norm(rhs))
    if not np.isfinite(rel) or rel > 1e-8:
        raise NumericError(f"linear normal-equation residual {rel:.3e} exceeds 1e-8")
    bias = ybar - float(mu @ w)
    return LinearModel(weights=w, bias=bias, lam=float(lam), solver=solver)


def _row_sumsq(x):
    """Sum of squares of each row of x.

    A CSR or CSC matrix is read once, a block of rows (CSR) or columns
    (CSC) at a time, so only one block's squared entries exist at once and
    the matrix itself is never copied; other sparse formats go through CSR.
    """
    if not sp.issparse(x):
        return np.einsum("ij,ij->i", x, x)
    if x.format not in ("csr", "csc"):
        x = x.tocsr()
    d = x.shape[0]
    out = np.zeros(d)
    major = len(x.indptr) - 1
    for lo in range(0, major, SUMSQ_BLOCK):
        hi = min(lo + SUMSQ_BLOCK, major)
        start, stop = x.indptr[lo], x.indptr[hi]
        sq = np.square(x.data[start:stop], dtype=np.float64)
        if x.format == "csr":
            rows = np.repeat(np.arange(hi - lo), np.diff(x.indptr[lo:hi + 1]))
            out[lo:hi] = np.bincount(rows, weights=sq, minlength=hi - lo)
        else:
            out += np.bincount(x.indices[start:stop], weights=sq, minlength=d)
    return out


def _lsmr_weights(x, mu, yc, lam, rhs):
    """Column-scaled LSMR: solve for v in w = D v, where
    D = diag(X_c X_c^T + lam I)^(-1/2), as the undamped least-squares
    problem [X_c^T D; sqrt(lam) D] v ~ [y_c; 0], whose minimizer gives the
    same w. X_c = X - mu 1^T is never formed. The residual is measured on
    the unscaled w."""
    d, n = x.shape
    # Cancellation can leave a constant row's centered square sum slightly
    # below zero; the clamp keeps the diagonal at least lam.
    diag = np.maximum(_row_sumsq(x) - n * mu * mu, 0.0) + lam
    scale = 1.0 / np.sqrt(diag)
    root_lam = math.sqrt(lam)

    def centered_t(w):  # X_c^T w
        return np.asarray(x.T @ w).ravel() - float(mu @ w)

    def centered(u):  # X_c u
        return np.asarray(x @ u).ravel() - mu * float(u.sum())

    def matvec(v):
        w = scale * np.asarray(v).ravel()
        return np.concatenate([centered_t(w), root_lam * w])

    def rmatvec(u):
        u = np.asarray(u).ravel()
        return scale * (centered(u[:n]) + root_lam * u[n:])

    scaled = LinearOperator((n + d, d), matvec=matvec, rmatvec=rmatvec,
                            dtype=np.float64)
    target = np.concatenate([yc, np.zeros(d)])
    v = None
    for maxiter in (max(4 * d, 2000), max(40 * d, 20000)):
        result = lsmr(scaled, target, damp=0.0, atol=1e-12, btol=1e-12,
                      conlim=1e14, maxiter=maxiter, x0=v)
        v = result[0]
        w = scale * v
        resid = np.linalg.norm(centered(centered_t(w)) + lam * w - rhs)
        if resid / (1.0 + np.linalg.norm(rhs)) <= 1e-8:
            break
    return w, resid


# ---------------------------------------------------------------------------
# truncated-RBF feature map


def trbf_dim(m, p):
    return math.comb(m + p, p)


def trbf_indices(m, p):
    """Multi-indices with |a| <= p in graded lexicographic order, each
    encoded as the sorted tuple of coordinates it multiplies (the empty
    tuple is the constant term)."""
    out = []
    for k in range(p + 1):
        out.extend(itertools.combinations_with_replacement(range(m), k))
    return out


class _TrbfTables(NamedTuple):
    coef: NDArray[np.float64]
    parent: NDArray[np.intp]
    last: NDArray[np.intp]
    factor: NDArray[np.intp]
    scale: NDArray[np.float64]
    runs: tuple


@functools.lru_cache(maxsize=32)
def _trbf_tables(m, p):
    """Row coefficients, parents, last coordinates, factors, input scales
    and fill runs of the order-p map on m inputs.

    Row r of the map is the envelope times coef[r] times the product of u
    over the coordinates of multi-index r. It is filled as row parent[r]
    (the multi-index without its last coordinate) times one factor,
    u[last[r]] * scale[c-1], where c is the count of last[r] in
    multi-index r and scale[c-1] = 1/sqrt(c): row factor[r] =
    (c-1) m + last[r] of `_expand`'s stack u * scale, whose first m rows
    are u itself. So coef[r] = coef[parent[r]] / sqrt(c) rides in the
    fill. Row 0, the constant, is the envelope (parent 0, last 0,
    factor 0). In graded lexicographic order the rows of degree d form
    the block dim(m, d-1) .. dim(m, d)-1, and the children c + (k,), k
    from c[-1] to m-1, of each multi-index c with |c| < p sit on
    consecutive rows. A run (parent, lo, first, factor) fills them: row
    first is z[parent] times stack row factor[first], and only that first
    child can repeat its last coordinate, so the rest are z[parent] times
    u[lo+1:]. A run starts at each row whose last coordinate equals its
    parent's. Cached per (m, p); the arrays are read-only, and scale has
    shape (p, 1, 1) to broadcast over u.
    """
    combos = trbf_indices(m, p)
    coef = np.empty(len(combos))
    parent = np.zeros(len(combos), dtype=np.intp)
    last = np.zeros(len(combos), dtype=np.intp)
    factor = np.zeros(len(combos), dtype=np.intp)
    coef[0] = 1.0
    row_of = {(): 0}
    for r, c in enumerate(combos[1:], start=1):
        parent[r] = row_of[c[:-1]]
        last[r] = c[-1]
        count = c.count(c[-1])
        coef[r] = coef[parent[r]] / math.sqrt(count)
        factor[r] = (count - 1) * m + last[r]
        row_of[c] = r
    scale = 1.0 / np.sqrt(np.arange(1.0, p + 1)).reshape(p, 1, 1)
    for table in (coef, parent, last, factor, scale):
        table.flags.writeable = False
    starts = np.flatnonzero(last[1:] == last[parent[1:]]) + 1
    runs = tuple((int(parent[r]), int(last[r]), int(r), int(factor[r]))
                 for r in starts)
    return _TrbfTables(coef, parent, last, factor, scale, runs)


def trbf_expand(x, sigma, p):
    """Order-p truncated-RBF feature map.

    For every multi-index a with |a| <= p the output coordinate is

        exp(-||x||^2 / (2 sigma^2)) * prod_k (x_k/sigma)^a_k / sqrt(prod_k a_k!)

    so that phi(x).phi(y) equals the degree-p truncation of the RBF
    kernel's exponential series. Accepts a vector (m,) or a batch (m, n);
    the output is (J,) or (J, n) with J = C(m+p, p), coordinates in
    graded lexicographic multi-index order. sigma and p take their
    `LearnerSpec` rules.
    """
    require("LearnerSpec.sigma", sigma)
    require("LearnerSpec.p", p)
    single = np.ndim(x) == 1 and not sp.issparse(x)
    z, _ = _expand(x, sigma, p)
    return z[:, 0] if single else z


def _expand(x, sigma, p):
    """(z, u): the order-p map z of x (p >= 0; order 0 is the envelope
    alone) and the scaled inputs u = x / sigma, both dense.

    Row 0 is the envelope, and every other row is its parent row times
    one factor (`_trbf_tables`), read from a stack of the pre-scaled
    inputs u * (1/sqrt(c)), c = 1..p, built once per call; the block for
    c = 1 is u itself. So each coordinate takes exactly one product, its
    coefficient and the envelope riding in the factors and row 0. The
    rows are filled by one of two loops chosen from the input size alone.
    When J·n <= LEVEL_CELLS each degree's row block takes one gathered
    product, p calls in all, which suits single queries and small
    batches. Larger chunks fill each run of consecutive rows with two
    products, its first row and the rest, which avoids the gather's
    copies. Each element is the same product either way, so both fills
    give the same bits, and the rows of the order-q map are the first
    rows of every higher order's, bit for bit.
    """
    x = _as_matrix(x)
    if sp.issparse(x):
        x = x.toarray()
    if not np.all(np.isfinite(x)):
        raise NumericError("input to the feature map contains non-finite values")
    m, n = x.shape
    u = x / sigma
    tables = _trbf_tables(m, p)
    j = tables.parent.shape[0]
    z = np.empty((j, n))
    z[0] = np.exp(-0.5 * np.einsum("ij,ij->j", u, u))
    stack = u if p < 2 else (u * tables.scale).reshape(p * m, n)
    if j * n <= LEVEL_CELLS:
        lo = 1
        for d in range(1, p + 1):
            hi = trbf_dim(m, d)
            rows = slice(lo, hi)
            np.multiply(z[tables.parent[rows]], stack[tables.factor[rows]],
                        out=z[rows])
            lo = hi
    else:
        for row, k, first, f in tables.runs:
            np.multiply(z[row], stack[f], out=z[first])
            np.multiply(z[row], u[k + 1:], out=z[first + 1:first + m - k])
    return z, u


def sigma_heuristic(x, seed=0):
    """Median pairwise distance over a seeded subsample of at most 256
    instances (the usual kernel-bandwidth rule of thumb); falls back to
    1.0 when the median is degenerate."""
    x = _as_matrix(x)
    n = x.shape[1]
    rng = np.random.default_rng(seed)
    take = min(n, 256)
    cols = np.sort(rng.choice(n, size=take, replace=False))
    xs = x[:, cols]
    gram = np.asarray((xs.T @ xs).toarray() if sp.issparse(xs) else xs.T @ xs)
    sq = np.diag(gram)
    d2 = sq[:, None] + sq[None, :] - 2.0 * gram
    iu = np.triu_indices(take, k=1)
    if iu[0].size == 0:
        return 1.0
    med = float(np.median(np.sqrt(np.clip(d2[iu], 0.0, None))))
    if not np.isfinite(med) or med <= 0.0:
        return 1.0
    return med


# ---------------------------------------------------------------------------
# TRBF kernel ridge regression (intrinsic-space path)


@dataclass
class TrbfModel(_Scorer):
    """Weights over the order-p truncated-RBF map of `n_features` inputs.

    Scoring never builds the map's top degree. Each degree-p row r is its
    parent row (degree p-1) times u[last[r]] / sqrt(c), c the count of
    last[r] in multi-index r, and 1/sqrt(c) = coef[r] / coef[parent[r]]
    (`_trbf_tables`), so

        weights . z = sum over |q| < p of z_q (weights_q + (F u)_q)

    with F (J(p-1) x m, `fold`) holding weights[r] coef[r] / coef[parent[r]]
    at (parent[r], last[r]); weights_q is added to F u in place. The rows
    with |q| < p are the order-(p-1) map, whose J(p-1) = C(m+p-1, p-1)
    rows per instance (the envelope alone for p = 1) are all a batch
    expands: 231 instead of 1771 for m = 20, p = 3.
    F is derived from the weights at construction; it is an attribute,
    not a field, so the model file never holds it.
    """

    weights: NDArray[np.float64]
    sigma: float
    p: int
    lam: float
    n_features: int

    def __post_init__(self):
        require("LearnerSpec.sigma", self.sigma, DataError)  # read from a file
        require("LearnerSpec.p", self.p, DataError)
        j = trbf_dim(self.n_features, self.p)
        if np.shape(self.weights) != (j,):
            raise DataError(f"a degree-{self.p} map of {self.n_features} "
                            f"features has {j} weights, not "
                            f"{np.shape(self.weights)}")
        coef, parent, last, *_ = _trbf_tables(self.n_features, self.p)
        below = trbf_dim(self.n_features, self.p - 1)  # rows of degree < p
        top = slice(below, j)
        self.fold = np.zeros((below, self.n_features))
        self.fold[parent[top], last[top]] = (self.weights[top] * coef[top]
                                             / coef[parent[top]])

    @property
    def intrinsic_dim(self):
        return self.weights.shape[0]

    def decision_function(self, x):
        x = self._query(x)
        n = x.shape[1]
        head = self.weights[:self.fold.shape[0], None]
        scores = np.empty(n)
        for lo in range(0, n, EXPAND_CHUNK):
            hi = min(lo + EXPAND_CHUNK, n)
            z, u = _expand(x[:, lo:hi], self.sigma, self.p - 1)
            t = self.fold @ u
            t += head
            scores[lo:hi] = np.einsum("qj,qj->j", z, t)
        return scores


# Learner type name -> model class: the model file's learner tag.
LEARNERS = dict(zip(LEARNER_TYPES, (LinearModel, TrbfModel), strict=True))


def _physical_memory():
    """Bytes of physical memory on this host, or None where the platform
    does not report it."""
    try:
        return os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")
    except (AttributeError, ValueError, OSError):
        return None


@functools.lru_cache(maxsize=32)
def _moment_plan(m, p):
    """(first, tasks): the product tasks that give the TRBF Gram's
    moments (`train_trbf_krr`), with the first coordinate of every row.

    first[r] is the smallest coordinate of row r's multi-index (0 for the
    constant). Each task is (rows, spans): rows are the degree-p rows
    whose last coordinates fill one range t_lo..t_hi, merged from the
    smallest t up until a task holds MOMENT_GROUP rows, and spans holds,
    for each degree 1..p, the (start, stop) of the rows of that degree
    whose first coordinate is at least t_lo. In graded lexicographic order
    the first coordinate never falls within a degree, so those rows are
    contiguous. Cached per (m, p); O(J) integers, read-only.
    """
    _, parent, last, *_ = _trbf_tables(m, p)
    first = last.copy()
    for d in range(2, p + 1):
        rows = slice(trbf_dim(m, d - 1), trbf_dim(m, d))
        first[rows] = first[parent[rows]]
    first.flags.writeable = False
    top = trbf_dim(m, p - 1)
    by_last = top + np.argsort(last[top:], kind="stable")
    counts = np.bincount(last[top:], minlength=m)
    tasks, start, t_lo = [], 0, 0
    for t in range(m):
        stop = start + int(counts[t_lo:t + 1].sum())
        if stop - start >= MOMENT_GROUP or t == m - 1:
            spans = []
            for d in range(1, p + 1):
                lo, hi = trbf_dim(m, d - 1), trbf_dim(m, d)
                spans.append((lo + int(np.searchsorted(first[lo:hi], t_lo)), hi))
            rows = by_last[start:stop]
            rows.flags.writeable = False
            tasks.append((rows, tuple(spans)))
            start, t_lo = stop, t + 1
    return first, tuple(tasks)


def _canonical_pairs(m, p):
    """(rows, cols, keep) per task of `_moment_plan`: the task's product
    is rows x cols, and keep marks the pairs (a, b) with
    first[b] >= last[a]. Those pairs write a + b in ascending coordinate
    order, a's p coordinates first, so over all tasks they reach every
    multi-index of degree p+1 .. 2p exactly once."""
    last = _trbf_tables(m, p).last
    first, tasks = _moment_plan(m, p)
    for rows, spans in tasks:
        cols = np.concatenate([np.arange(lo, hi) for lo, hi in spans])
        yield rows, cols, last[rows][:, None] <= first[cols][None, :]


def _row_keys(m, p, attempt):
    """uint64 key of each row of the order-p map: the sum, wrapping modulo
    2^64, of one weight per coordinate of its multi-index counted with
    multiplicity, so key(a + b) = key(a) + key(b). The weights are drawn
    uniformly by a generator seeded with `attempt`, so every sum of them
    is uniform over the 64 bits too."""
    _, parent, last, *_ = _trbf_tables(m, p)
    weights = np.random.default_rng(attempt).integers(
        0, 2**64, size=m, dtype=np.uint64)
    keys = np.zeros(trbf_dim(m, p), dtype=np.uint64)
    for d in range(1, p + 1):
        rows = slice(trbf_dim(m, d - 1), trbf_dim(m, d))
        keys[rows] = keys[parent[rows]] + weights[last[rows]]
    return keys


class _Moments:
    """Every moment sum_n envelope_n^2 u_n^c with |c| <= 2p, by key.

    Built from what `train_trbf_krr` accumulates: low[r] is coef[r] times
    the moment of row r (|r| <= p), and each task's product holds
    coef[a] coef[b] times the moment of a + b, of which the canonical
    pairs (`_canonical_pairs`) give each higher moment once. The
    C(m+2p, 2p) moments are held sorted by key with the start of each
    bucket of keys sharing their top bits, so a lookup reads one start
    and steps over a few keys. A key finds its moment exactly when all
    keys differ; that is checked, and a collision (odds of about
    C(m+2p, 2p)^2 / 2^65) draws new weights.
    """

    def __init__(self, m, p, low, prods):
        """Takes the products: they are scaled in place, and the list is
        emptied once the moments are read out of it."""
        coef = _trbf_tables(m, p).coef
        size = math.comb(m + 2 * p, 2 * p)

        def packed(head, pieces):  # one array, no list of pieces to join
            out = np.empty(size, dtype=head.dtype)
            out[:head.size], at = head, head.size
            for piece in pieces:
                out[at:at + piece.size], at = piece, at + piece.size
            return out

        def scaled(rows, cols, keep, prod):
            prod /= np.multiply.outer(coef[rows], coef[cols])
            return prod[keep]

        moments = packed(low / coef, (
            scaled(*pair, prod)
            for pair, prod in zip(_canonical_pairs(m, p), prods)))
        prods.clear()
        for attempt in itertools.count():
            row_keys = _row_keys(m, p, attempt)
            keys = packed(row_keys, (
                (row_keys[rows][:, None] + row_keys[cols])[keep]
                for rows, cols, keep in _canonical_pairs(m, p)))
            order = np.argsort(keys)
            keys = keys[order]
            if np.all(keys[1:] > keys[:-1]):
                break
        self.row_keys, self.keys, self.moments = row_keys, keys, moments[order]
        del moments, order
        buckets = 1 << (size.bit_length() - 1)  # 1-2 keys per bucket
        self.shift = 65 - buckets.bit_length()
        edges = np.arange(buckets, dtype=np.uint64)
        edges <<= np.uint64(self.shift)
        self.start = np.searchsorted(keys, edges)  # first key of each bucket

    def __call__(self, rows, cols):
        """The moments of a + b for a in `rows` and b in `cols` (slices of
        the map's rows), as a len(rows) x len(cols) array."""
        q = self.row_keys[rows][:, None] + self.row_keys[cols]
        at = self.start[q >> self.shift]
        miss = np.flatnonzero(self.keys[at] != q)
        flat_q, flat_at = q.reshape(-1), at.reshape(-1)  # views
        while miss.size:
            flat_at[miss] += 1
            miss = miss[self.keys[flat_at[miss]] != flat_q[miss]]
        del q, flat_q
        return self.moments[at]


def train_trbf_krr(x, y, sigma=None, p=2, lam=None, seed=0, threads=1):
    """Kernel ridge regression through the explicit truncated-RBF map.

    Solves the intrinsic-space normal equations (Z Z^T + lam I) u = Z y,
    Z the J x N map, with a Cholesky factorization, which beats the N^3
    dual path whenever J stays moderate. Z is expanded in fixed
    EXPAND_CHUNK-column chunks, one product per coordinate with the
    coefficients and the envelope riding in the fill (`_expand`), but
    Z Z^T is never multiplied out: its entry (a, b) is coef[a] coef[b]
    times the moment sum_n envelope_n^2 u_n^(a+b), which depends on a + b
    only, so each of the C(m+2p, 2p) distinct moments is computed once
    (230,230 for the 1.57M upper-triangle entries at m = 20, p = 3). Per
    chunk, z @ z[0] (row 0 is the envelope) gives the moments of degree
    <= p, and each task of `_moment_plan` (degree-p rows times a suffix of
    each degree) adds the higher ones to a product of its own. After the
    last chunk `_Moments` keys the moments, and the upper block-triangle
    of the normal matrix, all the solve reads, is filled from them in row
    blocks of GRAM_BLOCK. Tasks and fill blocks share one pool of
    `threads` workers, each writes only its own output, and neither
    partition depends on `threads`, so the weights have the same bits for
    every `threads`.

    The one guard on J runs before anything is allocated: 8 (2 J^2 + J
    EXPAND_CHUNK) bytes, the normal matrix and its Cholesky factor plus
    one chunk, must fit in three quarters of physical memory (of 8 GiB
    where the platform reports none), else a ConfigError refuses the
    plan. The guard does not count the caller's data (x, and for a plan
    its views, R and the locals); the products and the moment table,
    about 32 C(m+2p, 2p) bytes at their peak and freed before the factor
    exists, which keeps them under the factor's 8 J^2 for p >= 2 once
    J >= 45 but puts them at 2-3 times it for p = 1; or each worker's
    temporaries, about 25 GRAM_BLOCK J bytes for a fill block. Before the
    guard the inputs pass `_training_inputs` and p takes its `LearnerSpec`
    rule; after it sigma (None: the `sigma_heuristic` of x) takes its own.
    """
    x, y, lam = _training_inputs(x, y, lam)
    m, n = x.shape
    require("LearnerSpec.p", p)
    j = trbf_dim(m, p)
    need = 8 * (2 * j * j + j * EXPAND_CHUNK)
    budget = 3 * (_physical_memory() or 8 * 2**30) // 4
    if need > budget:
        raise ConfigError(
            f"intrinsic dimension C({m}+{p},{p}) = {j} needs "
            f"{need / 2**30:.1f} GiB for the TRBF normal equations, more than "
            f"the {budget / 2**30:.1f} GiB budget (three quarters of physical "
            "memory, or of 8 GiB where it is not reported); lower the order "
            "p or fuse fewer inputs"
        )
    sigma = sigma_heuristic(x, seed=seed) if sigma is None else sigma
    require("LearnerSpec.sigma", sigma)

    a = lam * np.eye(j)
    b = np.zeros(j)
    low = np.zeros(j)
    coef = _trbf_tables(m, p).coef
    tasks = _moment_plan(m, p)[1]
    prods = [np.zeros((len(rows), sum(hi - lo for lo, hi in spans)))
             for rows, spans in tasks]
    spread = threads > 1 and len(tasks) > 1
    with (ThreadPoolExecutor(threads) if spread else nullcontext()) as pool:
        run = pool.map if spread else map
        for lo in range(0, n, EXPAND_CHUNK):
            hi = min(lo + EXPAND_CHUNK, n)
            z = trbf_expand(x[:, lo:hi], sigma, p)

            def product(k):
                rows, spans = tasks[k]
                zk, at = z[rows], 0
                for s0, s1 in spans:
                    prods[k][:, at:at + s1 - s0] += zk @ z[s0:s1].T
                    at += s1 - s0

            list(run(product, range(len(tasks))))
            low += z @ z[0]
            b += z @ y[lo:hi]
            del z  # one chunk alive at a time, none during the solve
        moments = _Moments(m, p, low, prods)

        def fill(r0):
            r1 = min(r0 + GRAM_BLOCK, j)
            block = moments(slice(r0, r1), slice(r0, None))
            block *= coef[r0:r1, None]
            block *= coef[r0:]
            a[r0:r1, r0:] += block

        list(run(fill, range(0, j, GRAM_BLOCK)))
        del moments
    u = solve_spd(a, b)
    return TrbfModel(weights=u, sigma=float(sigma), p=int(p),
                     lam=float(lam), n_features=m)
