"""Dense symmetric linear-algebra kernels.

Three operations back every transform in the package, all through
scipy's LAPACK: a symmetric eigendecomposition with a deterministic sign
convention (`syevd`), the generalized symmetric eigenproblem against an
SPD matrix (`sygvd`, through the same function), and
symmetric-positive-definite solves (`potrf`/`potrs`). Every factorization
featdc runs is one of these; numpy's BLAS runs only matrix products.

All functions treat their inputs as read-only and are safe to call
concurrently.

Importing this module runs the OpenBLAS libraries bundled with numpy and
scipy with one thread each for the rest of the process, the host
program's numpy included; featdc's `threads` pool is its only
parallelism.
"""

import ctypes
import glob
import os
from typing import NamedTuple

import numpy as np
import scipy.linalg

from .errors import NumericError


def _bundled_openblas(module, suffix):
    """ctypes handle of the OpenBLAS in `module`'s own wheel directory, or
    None when the module runs on another BLAS (a system library, MKL).

    numpy's wheel bundles libscipy_openblas64_ (64-bit integer API, symbol
    suffix "64_"), scipy's bundles libscipy_openblas (no suffix).
    """
    pkg = os.path.dirname(module.__file__)
    setter = "scipy_openblas_set_num_threads" + suffix
    for pattern in (pkg + ".libs/*openblas*", pkg + "/.dylibs/*openblas*"):
        for path in sorted(glob.glob(pattern)):
            try:
                lib = ctypes.CDLL(path)
            except OSError:
                continue
            if hasattr(lib, setter):
                return lib
    return None


# numpy's and scipy's wheels each bundle an OpenBLAS with a thread pool
# sized to the machine. A numpy gemm followed by a scipy factorization
# leaves the two pools busy-waiting against each other (8.0 ms instead of
# 0.4 ms for a scatter plus solve at M=128 on 2 cores), and LSMR's
# ddot/gemv calls from featdc's `threads` workers fight numpy's pool (rcv1
# `train_dc` at threads=2: 3.7-3.9 s, against 1.4 s with numpy at 1 thread).
# So both libraries run one thread, and featdc's own pool is the only
# parallelism; the large kernels, the TRBF Gram's moment products and
# fill, are spread over it in fixed tasks. Set once and never per call:
# the setter is not safe while another thread is inside a BLAS call, and
# threaded BLAS kernels give different bits at 1 and 2 threads, so a
# `threads`-dependent setting would make scores depend on `--threads`.
SCIPY_OPENBLAS = _bundled_openblas(scipy, "")
NUMPY_OPENBLAS = _bundled_openblas(np, "64_")
if SCIPY_OPENBLAS is not None:
    SCIPY_OPENBLAS.scipy_openblas_set_num_threads(1)
if NUMPY_OPENBLAS is not None:
    NUMPY_OPENBLAS.scipy_openblas_set_num_threads64_(1)


class EigResult(NamedTuple):
    """Eigenvalues sorted descending; column k of `vectors` pairs with
    `values[k]`."""

    values: np.ndarray
    vectors: np.ndarray


def _fix_signs(vectors):
    """Flip each column so its largest-magnitude entry is positive.

    Ties resolve to the lowest index (argmax picks the first maximum),
    which makes the decomposition reproducible across runs.
    """
    idx = np.argmax(np.abs(vectors), axis=0)
    signs = np.sign(vectors[idx, np.arange(vectors.shape[1])])
    signs[signs == 0] = 1.0
    return vectors * signs


def sym_eig(a, b=None) -> EigResult:
    """Solve A v = lambda v, or A v = lambda B v for an SPD B.

    Reads only the upper triangle of `a` (and `b`): like `solve_spd`, it
    hands LAPACK the transposes as lower triangles, `syevd` for A alone
    and `sygvd` (Cholesky reduction, `syevd`, back-substitution) for the
    pencil. Eigenvalues come in descending order with the eigenvector
    columns under the sign convention of `_fix_signs`; they are
    orthonormal for A alone and B-orthonormal (v_i^T B v_j = delta_ij)
    for the pencil.
    """
    mats = [np.asarray(m, dtype=np.float64) for m in (a, b) if m is not None]
    for m in mats:
        if m.ndim != 2 or m.shape[0] != m.shape[1] or m.shape[0] < 1:
            raise NumericError(f"sym_eig needs square matrices, got shape {m.shape}")
        if m.shape != mats[0].shape:
            raise NumericError(f"sym_eig: shape mismatch {mats[0].shape} vs {m.shape}")
        if np.triu(~np.isfinite(m)).any():
            raise NumericError("sym_eig: non-finite entries in input")
    try:
        values, vectors = scipy.linalg.eigh(
            *(m.T for m in mats), lower=True, check_finite=False,
            driver="evd" if b is None else "gvd")
    except scipy.linalg.LinAlgError as exc:
        raise NumericError(
            "sym_eig: the eigensolver failed" if b is None else
            "sym_eig: matrix is not positive definite (Cholesky failed); "
            "increase the ridge parameter") from exc
    order = np.argsort(values)[::-1]
    return EigResult(values[order], _fix_signs(vectors[:, order]))


# the generalized problem's name in the public API: sym_eig(s, b)
gen_sym_eig = sym_eig


def solve_spd(a, rhs):
    """Solve A X = rhs for symmetric positive definite A via Cholesky.

    Reads only the upper triangle of `a`: `a.T` is Fortran-ordered with
    that triangle as its lower one, so LAPACK reads it in place and the
    matrix is copied once, into the factor.
    """
    a = np.asarray(a, dtype=np.float64)
    rhs = np.asarray(rhs, dtype=np.float64)
    if np.triu(~np.isfinite(a)).any():
        raise NumericError("solve_spd: non-finite entries in matrix")
    if not np.all(np.isfinite(rhs)):
        raise NumericError("solve_spd: non-finite entries in right-hand side")
    try:
        factor = scipy.linalg.cho_factor(a.T, lower=True, check_finite=False)
    except scipy.linalg.LinAlgError as exc:
        raise NumericError(
            "solve_spd: matrix is not positive definite (Cholesky failed)"
        ) from exc
    return scipy.linalg.cho_solve(factor, rhs, check_finite=False)
