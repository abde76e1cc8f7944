import ast
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg

from featdc import numerics
from featdc.errors import NumericError
from featdc.numerics import (NUMPY_OPENBLAS, SCIPY_OPENBLAS, gen_sym_eig,
                             solve_spd, sym_eig)


def sym_from_upper(a):
    """Exactly symmetric matrix built from the upper triangle of `a`."""
    return np.triu(a) + np.triu(a, 1).T


def random_symmetric(rng, n, scale=1.0):
    a = rng.normal(size=(n, n)) * scale
    return (a + a.T) / 2.0


def random_spd(rng, n, shift=0.5):
    a = rng.normal(size=(n, n))
    return a @ a.T + shift * np.eye(n)


def test_sym_eig_diagonal_case():
    values, vectors = sym_eig(np.diag([2.0, 3.0]))
    assert np.allclose(values, [3.0, 2.0])
    # permuted identity columns, positive by the sign convention
    assert np.allclose(vectors, np.array([[0.0, 1.0], [1.0, 0.0]]))


def test_sym_eig_hand_oracle_offdiagonal():
    # characteristic polynomial of [[0,1],[1,0]] gives eigenvalues +-1
    values, vectors = sym_eig(np.array([[0.0, 1.0], [1.0, 0.0]]))
    assert np.allclose(values, [1.0, -1.0])
    s = 1.0 / np.sqrt(2.0)
    assert np.allclose(vectors[:, 0], [s, s])
    assert np.allclose(vectors[:, 1], [s, -s])


def test_sym_eig_reconstruction_and_residuals():
    rng = np.random.default_rng(7)
    for trial in range(30):
        n = int(rng.integers(1, 65))
        a = random_symmetric(rng, n, scale=float(rng.uniform(0.1, 10)))
        values, vectors = sym_eig(a)
        norm = np.linalg.norm(a)
        recon = vectors @ np.diag(values) @ vectors.T
        assert np.linalg.norm(recon - a) <= 1e-8 * (1 + norm)
        for k in range(n):
            res = np.linalg.norm(a @ vectors[:, k] - values[k] * vectors[:, k])
            assert res <= 1e-8 * (1 + norm)
        assert np.all(np.diff(values) <= 1e-12 * (1 + norm))
        assert np.linalg.norm(vectors.T @ vectors - np.eye(n)) <= 1e-10
        assert abs(values.sum() - np.trace(a)) <= 1e-8 * (1 + abs(np.trace(a)))


def test_sym_eig_sign_convention():
    rng = np.random.default_rng(11)
    for trial in range(20):
        n = int(rng.integers(2, 20))
        a = random_symmetric(rng, n)
        _, vectors = sym_eig(a)
        for k in range(n):
            col = vectors[:, k]
            assert col[np.argmax(np.abs(col))] > 0


def test_sym_eig_is_deterministic():
    rng = np.random.default_rng(3)
    a = random_symmetric(rng, 12)
    v1, w1 = sym_eig(a)
    v2, w2 = sym_eig(a.copy())
    assert np.array_equal(v1, v2)
    assert np.array_equal(w1, w2)


def test_sym_eig_rejects_bad_input():
    with pytest.raises(NumericError):
        sym_eig(np.array([[np.nan, 0.0], [0.0, 1.0]]))
    with pytest.raises(NumericError):
        sym_eig(np.zeros((2, 3)))


def same_bits(x, y):
    return np.array_equal(x.view(np.uint64), y.view(np.uint64))


@pytest.mark.parametrize("n", [1, 2, 7, 130])
def test_eig_reads_upper_triangles_bitwise(n):
    # the strict lower triangles are never read: random values or NaN
    # there give the bits of the exactly symmetric operands
    rng = np.random.default_rng(34 + n)
    s = random_symmetric(rng, n)
    b = random_spd(rng, n)
    lower = np.tril_indices(n, -1)
    ref_std = sym_eig(s)
    ref_gen = gen_sym_eig(s, b)
    for fill in (rng.normal(size=len(lower[0])), np.nan):
        s_bad, b_bad = s.copy(), b.copy()
        s_bad[lower] = fill
        b_bad[lower] = fill
        before = (s_bad.copy(), b_bad.copy())
        for got, ref in ((sym_eig(s_bad), ref_std),
                         (gen_sym_eig(s_bad, b_bad), ref_gen)):
            assert same_bits(got.values, ref.values)
            assert same_bits(got.vectors, ref.vectors)
        assert np.array_equal(s_bad, before[0], equal_nan=True)
        assert np.array_equal(b_bad, before[1], equal_nan=True)


@pytest.mark.parametrize("a, b, shape", [
    (np.zeros(3), None, "(3,)"),
    (np.zeros((2, 3)), None, "(2, 3)"),
    (np.zeros((0, 0)), None, "(0, 0)"),
    (np.zeros(3), np.zeros(3), "(3,)"),
    (np.eye(3), np.zeros(3), "(3,)"),
    (np.eye(3), np.zeros((3, 2)), "(3, 2)"),
    (np.eye(3), np.eye(2), "(2, 2)"),
])
def test_eig_refuses_bad_shapes_by_name(a, b, shape):
    with pytest.raises(NumericError, match=re.escape(shape)):
        sym_eig(a, b)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_gen_sym_eig_non_finite_upper_triangle(bad):
    for which in (0, 1):
        pencil = [np.eye(3), np.eye(3)]
        pencil[which][0, 2] = bad
        with pytest.raises(NumericError, match="non-finite"):
            gen_sym_eig(*pencil)


def test_gen_sym_eig_identity_reduction():
    rng = np.random.default_rng(17)
    for trial in range(10):
        n = int(rng.integers(2, 16))
        s = random_symmetric(rng, n)
        values_gen, _ = gen_sym_eig(s, np.eye(n))
        values_std, _ = sym_eig(s)
        assert np.allclose(values_gen, values_std, atol=1e-10)


def test_gen_sym_eig_hand_oracle():
    # diag problem: eigenvalues are elementwise quotients 4/2 and 1/1
    values, vectors = gen_sym_eig(np.diag([4.0, 1.0]), np.diag([2.0, 1.0]))
    assert np.allclose(values, [2.0, 1.0])
    # B-orthonormality
    b = np.diag([2.0, 1.0])
    assert np.allclose(vectors.T @ b @ vectors, np.eye(2), atol=1e-8)


def test_gen_sym_eig_against_bruteforce_oracle():
    rng = np.random.default_rng(23)
    for trial in range(25):
        n = int(rng.integers(2, 8))
        s = random_symmetric(rng, n)
        b = random_spd(rng, n)
        values, vectors = gen_sym_eig(s, b)
        brute = np.sort(np.linalg.eigvals(np.linalg.inv(b) @ s).real)[::-1]
        assert np.allclose(values, brute, atol=1e-6 * (1 + np.linalg.norm(s)))
        norm = np.linalg.norm(s)
        for k in range(n):
            res = np.linalg.norm(s @ vectors[:, k]
                                 - values[k] * (b @ vectors[:, k]))
            assert res <= 1e-6 * (1 + norm)
        assert np.allclose(vectors.T @ b @ vectors, np.eye(n), atol=1e-8)


def test_gen_sym_eig_rejects_indefinite_b():
    s = np.eye(2)
    b = np.diag([1.0, -1.0])
    with pytest.raises(NumericError, match="increase the ridge"):
        gen_sym_eig(s, b)


def test_solve_spd_identity_and_hand_oracle():
    rng = np.random.default_rng(2)
    rhs = rng.normal(size=5)
    assert np.allclose(solve_spd(np.eye(5), rhs), rhs)
    # invert [[4,2],[2,3]] by hand: det 8, applied to [1,0]
    x = solve_spd(np.array([[4.0, 2.0], [2.0, 3.0]]), np.array([1.0, 0.0]))
    assert np.allclose(x, [3.0 / 8.0, -1.0 / 4.0])


def test_solve_spd_residual_property():
    rng = np.random.default_rng(31)
    for trial in range(20):
        n = int(rng.integers(1, 11))
        a = random_spd(rng, n)
        rhs = rng.normal(size=(n, int(rng.integers(1, 4))))
        x = solve_spd(a, rhs)
        rel = np.linalg.norm(a @ x - rhs) / np.linalg.norm(rhs)
        assert rel <= 1e-10


def test_solve_spd_rejects_non_spd():
    with pytest.raises(NumericError):
        solve_spd(np.diag([1.0, -1.0]), np.ones(2))


def test_solve_spd_reads_upper_triangle_bitwise():
    # the strict lower triangle is never read: the result has the bits of
    # the symmetrize-then-factor route, whatever the lower triangle holds
    rng = np.random.default_rng(32)
    for n in (1, 2, 7, 130, 300):
        a = random_spd(rng, n)
        a[np.tril_indices(n, -1)] += rng.normal(size=n * (n - 1) // 2)
        rhs = rng.normal(size=(n, 2))
        before = a.copy()
        ref = scipy.linalg.cho_solve(
            scipy.linalg.cho_factor(sym_from_upper(a), lower=True), rhs)
        got = solve_spd(a, rhs)
        assert np.array_equal(got.view(np.uint64), ref.view(np.uint64))
        assert np.array_equal(a, before)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_solve_spd_non_finite_upper_triangle(bad):
    a = random_spd(np.random.default_rng(33), 4)
    for i, j in ((0, 0), (1, 3), (3, 3)):
        upper = a.copy()
        upper[i, j] = bad
        with pytest.raises(NumericError, match="non-finite"):
            solve_spd(upper, np.ones(4))
    lower = a.copy()
    lower[3, 1] = bad  # below the diagonal: never read
    assert np.array_equal(solve_spd(lower, np.ones(4)),
                          solve_spd(a, np.ones(4)))
    with pytest.raises(NumericError, match="right-hand side"):
        solve_spd(a, np.array([1.0, bad, 0.0, 0.0]))


PIN_CHECK = """
import ctypes, glob, os, sys
import numpy

def numpy_threads():
    pkg = os.path.dirname(numpy.__file__)
    for path in glob.glob(pkg + ".libs/*openblas*") + glob.glob(pkg + "/.dylibs/*openblas*"):
        get = getattr(ctypes.CDLL(path), "scipy_openblas_get_num_threads64_", None)
        if get is not None:
            return get()
    return None

import featdc
sys.path.insert(0, sys.argv[1])  # the tests' directory
from oracles import make_blobs
after_import = numpy_threads()
featdc.train_dc(make_blobs(80, n_features=6, separation=3.0, seed=0),
                [("rd", 2, 3), ("pca", 2, 3)], threads=4)
print(after_import, numpy_threads(),
      featdc.numerics.SCIPY_OPENBLAS.scipy_openblas_get_num_threads())
"""


@pytest.mark.skipif(SCIPY_OPENBLAS is None or NUMPY_OPENBLAS is None,
                    reason="numpy or scipy does not bundle OpenBLAS")
def test_import_runs_scipy_openblas_single_threaded():
    # a fresh interpreter, so the counts come from featdc's import alone;
    # train_dc at threads=4 must leave numpy's count at 1
    proc = subprocess.run([sys.executable, "-c", PIN_CHECK,
                           str(Path(__file__).parent)],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    numpy_after_import, numpy_after_train, scipy_threads = proc.stdout.split()
    assert scipy_threads == "1"
    assert numpy_after_import == "1"
    assert numpy_after_train == "1"


def dotted_name(node):
    """"np.linalg.eigh" for the expression np.linalg.eigh, else None."""
    attrs = []
    while isinstance(node, ast.Attribute):
        attrs.insert(0, node.attr)
        node = node.value
    return ".".join([node.id] + attrs) if isinstance(node, ast.Name) else None


def test_only_numerics_reaches_lapack():
    # every factorization goes through this module, so the choice of
    # LAPACK lives in one place: no other module imports scipy.linalg or
    # calls an np.linalg function but the norm
    found = []
    for path in sorted(Path(numerics.__file__).parent.glob("*.py")):
        if path.name == "numerics.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [a.name for a in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [f"{node.module}.{a.name}" for a in node.names]
            elif isinstance(node, ast.Call):
                names = [dotted_name(node.func) or ""]
            else:
                continue
            found += [f"{path.name}:{node.lineno} {name}" for name in names
                      if name.startswith("scipy.linalg")
                      or (name.startswith(("np.linalg", "numpy.linalg"))
                          and name.rpartition(".")[2] != "norm")]
    assert found == []
