"""Seeded random plans against the pairs of paths that must agree.

Each case draws a small dataset (dense, or CSC sparse enough to stay
sparse at the `_as_matrix` gate), a plan of one to three entries over the
five decomposition methods, linear or (one case in four) TRBF locals,
which score each view through the feature map instead of the collapsed
`at`, and a linear or TRBF global. The cases after the first 48 train on
more than 256 instances, so a TRBF global's `sigma_heuristic` draws its
seeded subsample.
One case in four is corrupted: a NaN in the training data (also under a
lone rd entry, so that the locals meet it), an inf in the test data, a
huge training value, one class under a dca entry, a group larger than
the feature count, or a TRBF global whose order the fusion stage's memory
guard refuses once the locals are trained.
Every case must give the same bits at threads 1 and 2, after a save and
load, and through the gate (a dense query handed over as a CSC matrix);
the collapsed scorer `at` must agree with the subspace views; and the
only errors are FeatdcErrors tagged with the pipeline stage they left.
"""

import copy
import re

import numpy as np
import pytest
import scipy.sparse as sp

from featdc.dataio import Dataset
from featdc.decompose import METHODS, _as_matrix
from featdc.errors import FeatdcError
from featdc.fuse import LearnerSpec, local_scores, predict_dc, train_dc
from featdc.persist import load_dc_model, save_dc_model

SEEDS = range(56)
STAGE = re.compile(r"(decomposition fitting|local training|fusion|prediction): ")
CORRUPTIONS = ("nan train", "inf test", "huge", "one class", "big group",
               "nan view", "big global")


def make_case(seed):
    """(train Dataset, test matrix, plan, local spec, global spec,
    corruption or None); even seeds are dense, odd ones CSC."""
    rng = np.random.default_rng(seed)
    m, n_test = int(rng.integers(3, 13)), 16
    n = int(rng.integers(24, 61) if seed < 48 else rng.integers(257, 321))
    if seed % 2:
        dense = sp.random(m, n + n_test, density=rng.uniform(0.15, 0.4),
                          random_state=rng, data_rvs=rng.standard_normal,
                          format="csc").toarray()
    else:
        dense = rng.normal(size=(m, n + n_test))
    y = np.where(rng.normal(size=m) @ dense[:, :n] >= 0, 1, -1)
    y[:2] = 1, -1
    plan = [(str(method), int(rng.integers(1, 4)), int(rng.integers(1, m + 1)))
            for method in rng.permutation(METHODS)[:int(rng.integers(1, 4))]]
    global_ = (LearnerSpec(type="linear") if rng.random() < 0.25 else
               LearnerSpec(type="trbf", p=int(rng.integers(1, 3))))
    # seed pairs 3, 7, 11, ... take each corruption in turn on both routes
    corruption = (CORRUPTIONS[seed // 8 % len(CORRUPTIONS)]
                  if seed // 2 % 4 == 3 else None)
    row = int(rng.integers(m))
    if corruption in ("nan train", "nan view"):
        dense[row, rng.integers(n)] = np.nan
    if corruption == "nan view":  # rd fits no moments: the locals see it
        plan = [("rd",) + plan[0][1:]]
    elif corruption == "inf test":
        dense[row, n + rng.integers(n_test)] = np.inf
    elif corruption == "huge":
        dense[row, rng.integers(n)] = 1e308
    elif corruption == "one class":  # which dca refuses
        y[:] = 1
        plan[0] = ("dca",) + plan[0][1:]
    elif corruption == "big group":
        plan[0] = (plan[0][0], plan[0][1], m + 1)
    elif corruption == "big global":  # J >= 10^6 + 1 for any h
        global_ = LearnerSpec(type="trbf", p=10**6)
    # drawn last, so the draws above do not depend on it
    local = (LearnerSpec(type="trbf", p=int(rng.integers(1, 3)))
             if rng.random() < 0.25 else LearnerSpec(type="linear"))
    x = sp.csc_array(dense) if seed % 2 else dense
    train = Dataset(x[:, :n], y)
    return train, x[:, n:], plan, local, global_, corruption


def run(fn):
    """fn()'s value, or the FeatdcError it raised, which must name the
    stage it left; any other exception fails the test."""
    try:
        return fn()
    except FeatdcError as exc:
        assert STAGE.match(str(exc)), repr(exc)
        return exc


def assert_same(results):
    """Every result has the first one's bits, or its error and message."""
    first = results[0]
    for other in results[1:]:
        if isinstance(first, FeatdcError):
            assert (type(other), str(other)) == (type(first), str(first))
        else:
            assert len(other) == len(first)
            for a, b in zip(first, other):
                a, b = np.asarray(a), np.asarray(b)
                assert (a.dtype, a.shape) == (b.dtype, b.shape)
                assert a.tobytes() == b.tobytes()


@pytest.mark.parametrize("seed", SEEDS)
def test_random_plans_agree_on_every_path(seed, tmp_path):
    train, test, plan, local, global_, corruption = make_case(seed)
    # a Dataset stores X as CSC: odd seeds stay sparse at the gate
    assert sp.issparse(_as_matrix(train.X)) == bool(seed % 2)
    fits = [run(lambda: train_dc(train, plan, local=local, global_=global_,
                                 seed=seed, threads=threads))
            for threads in (1, 2)]
    if corruption is None:
        assert not isinstance(fits[0], FeatdcError), fits[0]
    if corruption == "big global":
        assert str(fits[0]).startswith("fusion: intrinsic dimension"), fits[0]
    assert_same([e if isinstance(e, FeatdcError) else (e.at,) for e in fits])
    if isinstance(fits[0], FeatdcError):
        return
    path = tmp_path / "model.json"
    save_dc_model(fits[0], path)
    models = fits + [load_dc_model(path)]
    # a dense query also goes in as a CSC matrix, which the gate densifies
    queries = [test] if sp.issparse(test) else [test, sp.csc_array(test)]
    results = [run(lambda: predict_dc(model, query))
               for model in models for query in queries]
    assert_same(results)
    if isinstance(results[0], FeatdcError):
        assert corruption is not None
        return
    model = fits[0]
    views = copy.copy(model)
    views.at = views.b = None
    r_at, r_views = local_scores(model, test), local_scores(views, test)
    assert (np.linalg.norm(r_at - r_views)
            <= 1e-9 * np.linalg.norm(r_views)), (r_at, r_views)


def test_clean_plans_cover_every_method_on_both_routes():
    # the eigensolver fits pca, dca and abd; rd and bcd go through solves;
    # linear locals score through `at`, TRBF locals through their views;
    # a TRBF global over more than 256 instances subsamples for sigma
    covered = {"dense": set(), "csc": set()}
    for seed in SEEDS:
        train, _, plan, local, global_, corruption = make_case(seed)
        if corruption is None:
            subsampled = global_.type == "trbf" and train.X.shape[1] > 256
            covered["csc" if seed % 2 else "dense"] |= (
                {m for m, _, _ in plan} | {local.type}
                | ({"subsample"} if subsampled else set()))
    want = set(METHODS) | {"linear", "trbf", "subsample"}
    assert covered == {"dense": want, "csc": want}
