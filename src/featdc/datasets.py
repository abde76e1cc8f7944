"""Deterministic synthetic dataset generators.

These produce Dataset objects shaped like the common benchmark regimes —
a dense mid-size problem whose decision boundary is nonlinear in one
projection, and a high-dimensional sparse problem with a planted linear
boundary — so the pipeline can be exercised end to end without
downloading anything.
"""

import numpy as np
import scipy.sparse as sp

from .dataio import Dataset
from .errors import ConfigError


def make_quadratic_band(n_instances, n_features=54, seed=0,
                        roots=(-0.7, 0.9)):
    """Dense features with a boundary quadratic in one latent projection.

    x is standard normal; with s the projection onto a hidden unit
    direction, the label is the sign of (s - roots[0])(s - roots[1]), so
    the negative class is a band in s. No single linear threshold can
    separate the band from both sides, while any learner quadratic in s
    can, which makes the gap between a linear baseline and the fused
    pipeline visible at moderate sizes.
    """
    r1, r2 = roots
    if not r1 < r2:
        raise ConfigError(f"roots must be increasing, got {roots}")
    rng = np.random.default_rng(seed)
    w = rng.normal(size=n_features)
    w /= np.linalg.norm(w)
    x = rng.normal(size=(n_features, n_instances))
    s = w @ x
    y = np.where((s - r1) * (s - r2) >= 0.0, 1, -1).astype(np.int64)
    return Dataset(sp.csc_array(x), y)


def make_sparse_planted(n_instances, n_features=47236, nnz=55, n_signal=2000,
                        seed=0, margin=0.0):
    """High-dimensional sparse positive data with a planted linear boundary.

    Feature indices are drawn with a power-law preference for low indices
    (a few features are common, most are rare, as in bag-of-words data);
    values are positive and each column is L2-normalized. A hidden weight
    vector over the `n_signal` most common features defines the label via
    its median-centered projection. With margin > 0, instances whose
    projection falls within `margin` standard deviations of the threshold
    are discarded (the generator oversamples to compensate).
    """
    rng = np.random.default_rng(seed)
    want = n_instances if margin == 0.0 else int(np.ceil(n_instances * 1.8))
    indptr = np.zeros(want + 1, dtype=np.int64)
    index_parts = []
    value_parts = []
    for k in range(want):
        raw = (n_features * rng.random(nnz) ** 3).astype(np.int64)
        idx = np.unique(raw)
        vals = rng.lognormal(mean=0.0, sigma=0.5, size=idx.size)
        vals /= np.linalg.norm(vals)
        index_parts.append(idx)
        value_parts.append(vals)
        indptr[k + 1] = indptr[k] + idx.size
    x = sp.csc_array(
        (np.concatenate(value_parts), np.concatenate(index_parts), indptr),
        shape=(n_features, want),
    )
    w = np.zeros(n_features)
    w[:n_signal] = rng.normal(size=n_signal)
    s = x.T @ w
    s = np.asarray(s).ravel()
    theta = float(np.median(s))
    if margin > 0.0:
        keep = np.flatnonzero(np.abs(s - theta) > margin * s.std())
        if keep.size < n_instances:
            raise ConfigError(
                f"margin {margin} leaves only {keep.size} of the requested "
                f"{n_instances} instances; lower it"
            )
        keep = keep[:n_instances]
        x = sp.csc_array(x[:, keep])
        s = s[keep]
    y = np.where(s - theta >= 0.0, 1, -1).astype(np.int64)
    return Dataset(x, y)
