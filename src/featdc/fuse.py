"""Divide-and-conquer pipeline: local models per subspace, stacked fusion.

`train_dc` fits the decomposition plan (`decompose.fit_plan`, whose pca,
dca and bcd entries share one pass over X for its moments), builds the
subspace views, trains one local classifier per view and scores it on
its view, for the h x N local-output matrix R on the training instances,
standardizes the rows of R, and trains the global classifier on (R, y).
Training is exactly its public stages composed — `fit_plan_entry` per
entry, `apply_decomposition`, `train_learner` per view, `build_r`,
`standardize_rows`, `train_learner` for the global — so a replay of
those stages reproduces its model to the bit. `threads` is the only
parallelism: it spreads the locals, which train and score while the
calling thread builds the next view (tasks are pure and merged by
subspace index, so results are identical for any thread count), then
the TRBF global's moment products and Gram fill; each local runs on one
thread, so pools never nest. The three stages are `report.timed` as
`fit_decomposition`, `local_training` and `fusion`, so an open
`report.recording()` gains their seconds; prediction is not timed here.

`predict_dc` scores on the calling thread (a worker pool costs more than
the scoring it would spread). Every decomposition method is a linear map,
so when every local is linear the h local scores of a query are one
affine map of its features, R = Aᵀx + b: `DcModel` derives the M x h
matrix A (`at`) and b once, after training and after loading, from the
views of the identity (`decompose.linear_pullback`), so each map is
defined only where the views are built; predict takes one product
instead of building h subspace views. Models with TRBF locals replay the
views. Both routes first divide each feature by the model's stored
`feature_scale` (when training saw scaled features), so a model scores
raw features, and both then replay the stored row standardization and the
global; the final label is sign(global score) with sign(0) = +1.

R carries continuous local scores rather than hard labels so the global
learner sees margins. Row standardization (zero mean, unit variance over
training instances) makes the arbitrary local score scales commensurable;
rows that are constant on the training set are left untouched, and the
same affine map is replayed at predict time.
"""

import math
import numbers
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Optional

import numpy as np
import scipy.sparse as sp
from numpy.typing import NDArray

from .classify import LinearModel, label_from_score, train_linear, train_trbf_krr
from .dataio import Dataset, divide_feature_rows
from .decompose import (DEFAULT_MAX_DENSE_FEATURES, _apply_part, _as_matrix,
                        _require_finite, apply_decomposition,
                        check_feature_count, check_plan, fit_plan,
                        linear_pullback)
from .errors import DataError, FeatdcError
from .report import timed
from .rules import require, require_fields

CONSTANT_ROW_TOL = 1e-12


@dataclass
class LearnerSpec:
    """Which learner to use for a pipeline role and its hyperparameters
    (None defers to the data-scaled defaults)."""

    type: str = "linear"
    lam: Optional[float] = None
    sigma: Optional[float] = None
    p: int = 2

    def __post_init__(self):
        require("LearnerSpec.type", self.type, name="learner type")


@dataclass
class Guards:
    max_dense_features: int = DEFAULT_MAX_DENSE_FEATURES


@dataclass
class DcModel:
    decomposition: object
    locals: list
    global_model: object
    r_shift: np.ndarray
    r_scale: np.ndarray
    config_snapshot: dict = field(default_factory=dict)
    # the input map from raw features: each feature divided by its scale
    # (None: unscaled), and the raw label read as +1 (None: sign of label)
    feature_scale: Optional[NDArray[np.float64]] = None
    positive_label: Optional[float] = None
    # collapsed scorer of linear locals: R = at.T @ x + b (None otherwise);
    # derived from the fields above, never persisted
    at: Optional[np.ndarray] = field(init=False, repr=False)
    b: Optional[np.ndarray] = field(init=False, repr=False)

    def __post_init__(self):
        # a model file is outside input: its parts must fit together
        widths = [len(g) for part in self.decomposition.parts
                  for g in part.index_groups]
        local_widths = [m.n_features for m in self.locals]
        if local_widths != widths:
            raise DataError(f"locals read {local_widths} features, but the "
                            f"subspace views have {widths}")
        for name, rows in (("r_shift", self.r_shift),
                           ("r_scale", self.r_scale)):
            if np.shape(rows) != (self.h,):
                raise DataError(f"{name} has shape {np.shape(rows)}, not "
                                f"({self.h},)")
        if not np.all(self.r_scale > 0):
            raise DataError("r_scale holds a value that is not positive")
        if self.global_model.n_features != self.h:
            raise DataError(f"the global reads {self.global_model.n_features} "
                            f"inputs, not the {self.h} local scores")
        if self.feature_scale is not None:
            self.feature_scale = np.asarray(self.feature_scale, np.float64)
            m = self.decomposition.n_features_in
            if self.feature_scale.shape != (m,):
                raise DataError(f"feature_scale has shape "
                                f"{self.feature_scale.shape}, not ({m},)")
            if not np.all((self.feature_scale > 0)
                          & (self.feature_scale < np.inf)):
                raise DataError("feature_scale holds a value that is not "
                                "finite and positive")
        label = self.positive_label
        if label is not None:
            if isinstance(label, bool) or not isinstance(label, numbers.Real):
                raise DataError(f"positive_label {label!r} is neither a "
                                "number nor null")
            if not math.isfinite(label):
                raise DataError(f"positive_label {label!r} is not finite")
            self.positive_label = float(label)
        self.at = self.b = None
        if all(isinstance(m, LinearModel) for m in self.locals):
            self.at = linear_pullback(self.decomposition,
                                      [m.weights for m in self.locals])
            self.b = np.array([m.bias for m in self.locals], dtype=np.float64)

    @property
    def h(self):
        return len(self.locals)


@contextmanager
def _stage(name):
    """Tag errors escaping a pipeline stage with the stage name."""
    try:
        yield
    except FeatdcError as exc:
        raise type(exc)(f"{name}: {exc}") from exc


def train_learner(spec, x, y, guards, seed, threads=1):
    """Train one learner; `threads` spreads only the TRBF global's moment
    products and Gram fill (`train_trbf_krr`)."""
    if spec.type == "linear":
        return train_linear(x, y, lam=spec.lam,
                            max_dense=guards.max_dense_features)
    return train_trbf_krr(x, y, sigma=spec.sigma, p=spec.p, lam=spec.lam,
                          seed=seed, threads=threads)


def _map_views(comp, x, fn, threads):
    """[fn(i, view i) for every view of x], the views as
    `apply_decomposition` builds them (x has comp's width); fn must be
    pure, as results merge by index. The views are built one at a time on
    the calling thread, so the workers' heaps stay small. With threads > 1
    a pool of `threads` workers runs fn on the views already built, and
    after handing on view i the calling thread waits for fn on view
    i - threads before it builds the next. Either way at most threads + 1
    views are alive at once, whatever h is."""
    results = []
    if threads <= 1:
        for part in comp.parts:
            for view in _apply_part(part, x):
                results.append(fn(len(results), view))
        return results
    with ThreadPoolExecutor(max_workers=threads) as pool:
        for part in comp.parts:
            for view in _apply_part(part, x):
                results.append(pool.submit(fn, len(results), view))
                if len(results) > threads:
                    results[-threads - 1].result()
        return [future.result() for future in results]


def build_r(local_models, views):
    """Stack continuous local scores into the h x N local-output matrix."""
    if len(local_models) != len(views):
        raise DataError(f"{len(local_models)} local models but {len(views)} "
                        "subspace views")
    rows = [np.asarray(m.decision_function(v), dtype=np.float64)
            for m, v in zip(local_models, views)]
    return np.vstack(rows)


def standardize_rows(r):
    """Per-row shift/scale to zero mean unit variance; near-constant rows
    keep shift 0 and scale 1 (left untouched)."""
    mean = r.mean(axis=1)
    std = r.std(axis=1)
    constant = std <= CONSTANT_ROW_TOL * np.maximum(1.0, np.abs(mean))
    shift = np.where(constant, 0.0, mean)
    scale = np.where(constant, 1.0, std)
    return shift, scale


def apply_standardization(r, shift, scale):
    return (r - shift[:, None]) / scale[:, None]


def _role_seed(seed, role, index):
    entropy = (int(seed), sum(ord(c) for c in role), int(index))
    return int(np.random.SeedSequence(entropy).generate_state(1, np.uint64)[0])


def train_dc(train, plan, local=None, global_=None, seed=0, threads=1,
             guards=None, config_snapshot=None, feature_scale=None,
             positive_label=None):
    """Fit the full divide-and-conquer model on a training Dataset.

    plan is a list of (method, n_subspaces, group_size) entries (or config
    plan entries with those fields); local and global LearnerSpecs default
    to linear locals and a TRBF global. A caller that parsed with a
    `positive_label` or divided the features by a scale before training
    passes them: the model records both and scores raw features (without
    `feature_scale` it scores what it was trained on). Before any work on
    the data, the plan, seed, guards, threads, both specs and
    positive_label take their config rules (`featdc.rules`): a ConfigError
    tagged with the stage that reads the value.
    """
    if not isinstance(train, Dataset):
        raise DataError("train_dc expects a Dataset")
    local = local or LearnerSpec(type="linear")
    global_ = global_ or LearnerSpec(type="trbf")
    guards = guards or Guards()
    with _stage("decomposition fitting"):
        check_plan(plan, seed, guards.max_dense_features)
    with _stage("local training"):
        require("RunConfig.threads", threads)
        require_fields(local, where="local")
    with _stage("fusion"):
        require_fields(global_, where="global")
        require("RunConfig.positive_label", positive_label)
    y = train.y.astype(np.float64)

    with _stage("decomposition fitting"), timed("fit_decomposition"):
        x = _as_matrix(train.X)  # densified once here, not once per entry
        comp = fit_plan(x, y, plan, seed, max_dense=guards.max_dense_features)

    with _stage("local training"), timed("local_training"):
        def fit(i, view):
            model = train_learner(local, view, y, guards,
                                  _role_seed(seed, "local", i))
            return model, build_r([model], [view])  # its row of R

        fitted = _map_views(comp, x, fit, threads)
        local_models = [model for model, _ in fitted]

    with _stage("fusion"), timed("fusion"):
        r = np.vstack([row for _, row in fitted])
        shift, scale = standardize_rows(r)
        rs = apply_standardization(r, shift, scale)
        global_model = train_learner(global_, rs, y, guards,
                                     _role_seed(seed, "global", 0), threads)
        return DcModel(  # derives the collapsed scorer
            decomposition=comp, locals=local_models, global_model=global_model,
            r_shift=shift, r_scale=scale,
            config_snapshot=dict(config_snapshot or {}),
            feature_scale=feature_scale, positive_label=positive_label)


def local_scores(model, x):
    """The h x n local-output matrix R of a raw query matrix x.

    x passes the `_as_matrix` gate, is divided by the model's
    `feature_scale` (`dataio.divide_feature_rows`, the arithmetic of
    `apply_feature_scale`) and must then be finite. Linear locals score
    through the collapsed map in one product, R = at.T @ x + b, without
    building a subspace view; TRBF locals score their views in order.
    """
    x = _as_matrix(x)
    check_feature_count(model.decomposition, x)
    if model.feature_scale is not None:
        x = divide_feature_rows(x, model.feature_scale)
    _require_finite(x, "query")
    if model.at is None:
        return build_r(model.locals, apply_decomposition(model.decomposition, x))
    if not sp.issparse(x):  # as the gate densifies: at h = 1 the product
        x = np.asfortranarray(x)  # is a gemv, whose sums follow the layout
    return np.asarray(x.T @ model.at).T + model.b[:, None]


def predict_dc(model, test, threads=None):
    """(labels, scores) for a Dataset or raw feature matrix.

    The features are raw: the model applies its own `feature_scale` (a
    test file's labels are parsed with its `positive_label`). R comes from
    `local_scores`; then the stored standardization and the
    global model score it. Everything runs on the calling thread;
    `threads` is accepted for compatibility and ignored.
    """
    x = test.X if isinstance(test, Dataset) else test
    with _stage("prediction"):
        r = local_scores(model, x)
        rs = apply_standardization(r, model.r_shift, model.r_scale)
        scores = model.global_model.decision_function(rs)
    return label_from_score(scores), scores


def evaluate(labels_pred, labels_true):
    """Error-rate percentage and confusion counts."""
    pred = np.asarray(labels_pred).ravel()
    true = np.asarray(labels_true).ravel()
    if pred.shape[0] != true.shape[0]:
        raise DataError(f"prediction length {pred.shape[0]} != truth length "
                        f"{true.shape[0]}")
    n = pred.shape[0]
    if n == 0:
        raise DataError("no predictions to evaluate")
    mism = int(np.sum(pred != true))
    # (predicted, true) label of each confusion count
    cells = {"tp": (1, 1), "tn": (-1, -1), "fp": (1, -1), "fn": (-1, 1)}
    return {"n": n, "mismatches": mism, "error_rate_pct": 100.0 * mism / n,
            "confusion": {k: int(np.sum((pred == a) & (true == b)))
                          for k, (a, b) in cells.items()}}
