"""Reference helpers the tests check featdc against; the pipeline runs
none of them.

pytest's default (prepend) import mode puts this directory on sys.path,
so a test module imports them as ``from oracles import ...``.
"""

import math

import numpy as np
import scipy.sparse as sp

from featdc import Dataset


def truncated_rbf_kernel(x, y, sigma, p):
    """Degree-p truncation of the RBF kernel between two vectors: the
    induced kernel of `trbf_expand` (test and dual-form oracle)."""
    x = np.asarray(x, dtype=np.float64).ravel()
    y = np.asarray(y, dtype=np.float64).ravel()
    s2 = sigma * sigma
    dot = float(x @ y) / s2
    series = sum(dot ** k / math.factorial(k) for k in range(p + 1))
    return math.exp(-(x @ x + y @ y) / (2 * s2)) * series


def abd_dense_transform(part):
    """Materialized effective transform of an abd part, kron(V.T, I), for
    checks at small dimensions; the pipeline never builds it."""
    return np.kron(part.transform.T, np.eye(part.block_size))


def make_blobs(n_instances, n_features=2, separation=8.0, seed=0):
    """Two spherical Gaussian blobs, far enough apart that a linear
    least-squares classifier reaches zero training error."""
    rng = np.random.default_rng(seed)
    direction = rng.normal(size=n_features)
    direction /= np.linalg.norm(direction)
    y = np.where(rng.random(n_instances) < 0.5, 1, -1).astype(np.int64)
    x = rng.normal(size=(n_features, n_instances))
    x += np.outer(direction, y * (separation / 2.0))
    return Dataset(sp.csc_array(x), y)
