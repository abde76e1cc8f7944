"""The user-facing jobs the benchmark times, written the way the `featdc
train`/`eval` commands and a library caller run them, plus the operation
ledger that counts attempted and failed operations."""

import time

import numpy as np

from featdc import (LearnerSpec, apply_feature_scale, evaluate, load_dc_model,
                    max_abs_scale, parse_libsvm, predict_dc, save_dc_model,
                    serialize_libsvm, train_dc)

import workloads


class Ledger:
    """Counts operations; a failed one keeps its reason for the report."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems = []

    def check(self, ok, what):
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.problems) < 20:
                self.problems.append(what)


def same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


def setup(wl, tiny):
    """Generate, split and serialize the workload's data.
    Returns (train_text, test_text, generate_s, serialize_s)."""
    t0 = time.perf_counter()
    train, test = workloads.make_data(wl, tiny)
    t1 = time.perf_counter()
    train_text = serialize_libsvm(train)
    test_text = serialize_libsvm(test)
    t2 = time.perf_counter()
    return train_text, test_text, t1 - t0, t2 - t1


def learner_specs(wl):
    return (LearnerSpec(type="linear", lam=wl.local_lam),
            LearnerSpec(type="trbf", p=wl.global_p))


def train_job(wl, text, model_path):
    """One `featdc train`: parse, max-abs scale where the workload scales,
    train_dc, save the model with the scale in its snapshot.
    Returns (training dataset, model, seconds spent in train_dc)."""
    ds = parse_libsvm(text, n_features=wl.n_features)
    snapshot = {}
    if wl.scale:
        ds, scale = max_abs_scale(ds)
        snapshot["feature_scale"] = [v.hex() for v in scale.tolist()]
    local, global_ = learner_specs(wl)
    t0 = time.perf_counter()
    model = train_dc(ds, list(wl.plan), local=local, global_=global_,
                     seed=wl.train_seed, threads=workloads.THREADS,
                     config_snapshot=snapshot)
    train_dc_s = time.perf_counter() - t0
    save_dc_model(model, model_path)
    return ds, model, train_dc_s


def load_test(model, text):
    """`featdc eval` data preparation: parse at the model's width and replay
    the training scale stored in the model."""
    test = parse_libsvm(text, n_features=model.decomposition.n_features_in)
    snap = model.config_snapshot or {}
    if "feature_scale" in snap:
        scale = np.array([float.fromhex(s) for s in snap["feature_scale"]])
        test = apply_feature_scale(test, scale)
    return test


def eval_job(model_path, text):
    """One `featdc eval`: load, parse and scale, predict, evaluate.
    Returns (model, test, labels, scores, error_pct)."""
    model = load_dc_model(model_path)
    test = load_test(model, text)
    labels, scores = predict_dc(model, test, threads=workloads.THREADS)
    err = evaluate(labels, test.y)["error_rate_pct"]
    return model, test, labels, scores, err
