"""Traced run: the per-layer metrics.

After one untimed warm-up train job, each round first runs one untraced
`featdc train` job (its `train_dc` at threads 2 and again at threads 1).
It then replays the same train job and an eval job stage by stage through
each module's public functions, with a span around every call:

    job.train   dataio.parse, dataio.scale,
                fuse.train_dc > decompose.fit_<method> (one per plan entry,
                  with part_seed), decompose.apply_train, classify.locals >
                  classify.local (one per subspace, on a 2-thread pool),
                  fuse.build_r, fuse.standardize, classify.trbf_fit
                persist.save
    job.eval    persist.load, dataio.parse_test, dataio.scale_test,
                fuse.predict_full, fuse.evaluate

The replay is the same program as `train_dc`: its test scores must equal
the untraced model's bit for bit, or the round records a failed
operation. The TRBF global is refitted with the untraced model's `sigma`,
because the seed `train_dc` derives for the bandwidth heuristic is
private; `classify.sigma` times `sigma_heuristic` on its own instead.

After the jobs, single layers are timed on the replay's own intermediates:
the scatter and both eigensolvers, the TRBF expansion, Gram and J x J
solve, and single-instance and 16-instance scoring. A layer the plan does
not run (a decomposition method outside the plan, a local route no
subspace takes, scaling on unscaled data) is timed once as a probe on the
workload's own training data, on its leading 54 features where the full
width exceeds the dense guard; probes are listed in the run record.
"""

import os
import statistics
import time
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from featdc import (CompositeDecomposition, DcModel, Guards, LearnerSpec,
                    apply_decomposition, apply_feature_scale, build_r,
                    evaluate, feature_scatter, gen_sym_eig, load_dc_model,
                    max_abs_scale, parse_libsvm, predict_dc, save_dc_model,
                    sigma_heuristic, solve_spd, standardize_rows, sym_eig,
                    train_dc, train_linear, trbf_dim, trbf_expand,
                    within_class_scatter)
from featdc.classify import EXPAND_CHUNK
from featdc.decompose import METHODS, default_dca_ridge, fit_plan_entry, part_seed
from featdc.fuse import apply_standardization, train_learner

import jobs
from spans import Tracer, duration, layer_self_times
from workloads import THREADS

# Layers with a self time. numerics runs only inside decompose and classify
# calls, so the replay's spans cannot separate it; its micro metrics stand in.
LAYERS = ("dataio", "decompose", "classify", "fuse", "persist")
PROBE_FEATURES = 54  # probe width on data wider than the dense guard
SMALL_SAMPLES = 25   # single-instance and 16-instance samples per round


def run(wl, seed, deadline, texts, model_dir, ledger, setup_times, spans_path):
    tracer = Tracer(run_id=f"{wl.name}-seed{seed}")
    rng = np.random.default_rng(seed)
    # an untimed job first, so one-time costs do not land on the untraced
    # side of trace.overhead_pct
    jobs.train_job(wl, texts[0], os.path.join(model_dir, "warmup.json"))
    rounds, details = [], []
    while True:
        t0 = time.perf_counter()
        values, detail = _round(wl, texts, model_dir, ledger, tracer, rng)
        values["dataio.serialize_s"] = setup_times[0]["serialize"]
        rounds.append(values)
        details.append(detail)
        if time.perf_counter() + (time.perf_counter() - t0) > deadline:
            break
    tracer.write(spans_path)
    metrics = {name: statistics.median(r[name] for r in rounds) for name in rounds[0]}
    return metrics, {"rounds": len(rounds), "per_round": details,
                     "spans_file": os.path.basename(spans_path)}


def _sum(spans, name, **attrs):
    return sum(duration(s) for s in spans if s["name"] == name
               and all(s["attrs"].get(k) == v for k, v in attrs.items()))


def _median_ms(spans, name):
    return 1e3 * statistics.median(duration(s) for s in spans if s["name"] == name)


def _round(wl, texts, model_dir, ledger, tracer, rng):
    train_text, test_text = texts
    local, global_ = jobs.learner_specs(wl)
    guards = Guards()
    out = {}

    # untraced reference job, and train_dc at both thread counts
    ref_path = os.path.join(model_dir, "reference.json")
    t0 = time.perf_counter()
    ds, ref, out["fuse.train_dc_2t_s"] = jobs.train_job(wl, train_text, ref_path)
    untraced_train_s = time.perf_counter() - t0
    _, test, _, ref_scores, ref_err = jobs.eval_job(ref_path, test_text)
    ledger.check(ref_err <= wl.max_error_pct,
                 f"error {ref_err:.2f}% above the {wl.max_error_pct}% bound")
    t0 = time.perf_counter()
    one = train_dc(ds, list(wl.plan), local=local, global_=global_,
                   seed=wl.train_seed, threads=1, config_snapshot=ref.config_snapshot)
    out["fuse.train_dc_1t_s"] = time.perf_counter() - t0
    ledger.check(jobs.same_bits(predict_dc(one, test, threads=THREADS)[1], ref_scores),
                 "train_dc scores differ between threads 1 and 2")
    del one

    # traced stage replay of the same train and eval jobs
    path = os.path.join(model_dir, "replay.json")
    first = len(tracer.spans)
    with tracer.span("job.train"):
        with tracer.span("dataio.parse"):
            ds = parse_libsvm(train_text, n_features=wl.n_features)
        if wl.scale:
            with tracer.span("dataio.scale"):
                ds, _ = max_abs_scale(ds)
        y = ds.y.astype(np.float64)
        with tracer.span("fuse.train_dc"):
            parts = []
            for i, entry in enumerate(wl.plan):
                with tracer.span(f"decompose.fit_{entry[0]}"):
                    parts.append(fit_plan_entry(
                        ds.X, y, entry, part_seed(wl.train_seed, i),
                        max_dense=guards.max_dense_features))
            comp = CompositeDecomposition(parts)
            with tracer.span("decompose.apply_train"):
                views = apply_decomposition(comp, ds.X)
            with tracer.span("classify.locals") as pool_span:
                def fit_local(i):
                    with tracer.span("classify.local", parent=pool_span["id"],
                                     index=i) as sp:
                        model = train_learner(local, views[i], y, guards, 0)
                        sp["attrs"]["route"] = model.solver
                    return model

                with ThreadPoolExecutor(max_workers=THREADS) as pool:
                    local_models = list(pool.map(fit_local, range(len(views))))
            with tracer.span("fuse.build_r"):
                r = build_r(local_models, views)
            with tracer.span("fuse.standardize"):
                shift, scale = standardize_rows(r)
                rs = apply_standardization(r, shift, scale)
            with tracer.span("classify.trbf_fit"):
                spec = LearnerSpec(type="trbf", p=wl.global_p,
                                   lam=global_.lam, sigma=ref.global_model.sigma)
                glob = train_learner(spec, rs, y, guards, 0)
            replay = DcModel(comp, local_models, glob, shift, scale,
                             config_snapshot=ref.config_snapshot)
        with tracer.span("persist.save"):
            save_dc_model(replay, path)
    with tracer.span("job.eval"):
        with tracer.span("persist.load"):
            loaded = load_dc_model(path)
        with tracer.span("dataio.parse_test"):
            test = parse_libsvm(test_text, n_features=loaded.decomposition.n_features_in)
        if "feature_scale" in loaded.config_snapshot:
            with tracer.span("dataio.scale_test"):
                vector = [float.fromhex(s) for s in loaded.config_snapshot["feature_scale"]]
                test = apply_feature_scale(test, np.array(vector))
        with tracer.span("fuse.predict_full"):
            labels, scores = predict_dc(loaded, test, threads=THREADS)
        with tracer.span("fuse.evaluate"):
            err = evaluate(labels, test.y)["error_rate_pct"]
    job_spans = tracer.spans[first:]
    ledger.check(jobs.same_bits(scores, ref_scores),
                 "stage replay's test scores differ from train_dc's")
    ledger.check(err == ref_err, "stage replay's error differs from train_dc's")

    routes = [s["attrs"]["route"] for s in sorted(
        (s for s in job_spans if s["name"] == "classify.local"),
        key=lambda s: s["attrs"]["index"])]
    probes = []
    micro_first = len(tracer.spans)
    with tracer.span("micro"):
        _time_dense_layers(wl, ds, y, views, routes, guards, tracer, probes)
        j = _time_trbf(rs, y, glob, tracer)
        _time_small_batches(loaded, test, rng, tracer)
    micro = tracer.spans[micro_first:]
    spans = job_spans + micro

    train_span = next(s for s in job_spans if s["name"] == "job.train")
    out.update({
        "dataio.parse_s": _sum(spans, "dataio.parse"),
        "dataio.parse_bytes": len(train_text),
        "dataio.parse_nnz": int(ds.X.nnz),
        "dataio.scale_s": _sum(spans, "dataio.scale"),
        "decompose.scatter_s": _sum(spans, "decompose.scatter"),
        "decompose.apply_train_s": _sum(spans, "decompose.apply_train"),
        "decompose.apply1_ms": _median_ms(spans, "decompose.apply1"),
        "numerics.sym_eig_s": _sum(spans, "numerics.sym_eig"),
        "numerics.gen_sym_eig_s": _sum(spans, "numerics.gen_sym_eig"),
        "numerics.solve_spd_s": _sum(spans, "numerics.solve_spd"),
        "classify.locals_dense_s": _sum(spans, "classify.local", route="dense"),
        "classify.locals_dense_n": routes.count("dense"),
        "classify.locals_lsmr_s": _sum(spans, "classify.local", route="lsmr"),
        "classify.locals_lsmr_n": routes.count("lsmr"),
        "classify.sigma_s": _sum(spans, "classify.sigma"),
        "classify.trbf_expand_s": _sum(spans, "classify.trbf_expand"),
        "classify.trbf_gram_s": _sum(spans, "classify.trbf_gram"),
        "classify.trbf_fit_s": _sum(spans, "classify.trbf_fit"),
        "classify.trbf_J": j,
        "classify.trbf_gram_gflop": 2.0 * j * j * rs.shape[1] / 1e9,
        "classify.trbf_gram_bytes": 8 * j * j,
        "classify.local_score1_ms": _median_ms(spans, "classify.local_score1"),
        "classify.global_score1_ms": _median_ms(spans, "classify.global_score1"),
        "fuse.h": comp.h,
        "fuse.build_r_s": _sum(spans, "fuse.build_r"),
        "fuse.standardize_s": _sum(spans, "fuse.standardize"),
        "fuse.predict16_ms": _median_ms(spans, "fuse.predict16"),
        "fuse.predict_full_s": _sum(spans, "fuse.predict_full"),
        "persist.save_s": _sum(spans, "persist.save"),
        "persist.load_s": _sum(spans, "persist.load"),
        "persist.model_bytes": os.path.getsize(path),
        "trace.overhead_pct": 100.0 * (duration(train_span) - untraced_train_s)
                              / untraced_train_s,
    })
    for method in METHODS:
        out[f"decompose.fit_{method}_s"] = _sum(spans, f"decompose.fit_{method}")
    out["dataio.parse_mb_per_s"] = out["dataio.parse_bytes"] / 1e6 / out["dataio.parse_s"]
    for layer, seconds in layer_self_times(job_spans, LAYERS).items():
        out[f"{layer}.self_s"] = seconds
    detail = {"routes": routes, "probes": probes, "sigma": glob.sigma,
              "untraced_train_s": untraced_train_s,
              "traced_train_s": duration(train_span), "error_pct": err}
    return out, detail


def _time_dense_layers(wl, ds, y, views, routes, guards, tracer, probes):
    """Scatter, eigensolvers, and probes for layers the plan skips."""
    wide = ds.n_features > guards.max_dense_features
    x = ds.X[:PROBE_FEATURES] if wide else ds.X
    m = x.shape[0]
    with tracer.span("decompose.scatter"):
        s = feature_scatter(x, center=True)
    with tracer.span("numerics.sym_eig"):
        sym_eig(s)
    sw = within_class_scatter(x, y)
    ridged = sw + default_dca_ridge(sw, s) * np.eye(m)
    with tracer.span("numerics.gen_sym_eig"):
        gen_sym_eig(s, ridged)
    if wide:
        probes += ["decompose.scatter", "numerics.sym_eig", "numerics.gen_sym_eig"]

    planned = {entry[0] for entry in wl.plan}
    for method in METHODS:
        if method not in planned:
            with tracer.span(f"decompose.fit_{method}", probe=True):
                fit_plan_entry(x, y, (method, 2, m // 2), part_seed(wl.train_seed, 0),
                               max_dense=guards.max_dense_features)
            probes.append(f"decompose.fit_{method}")
    if "dense" not in routes:
        with tracer.span("classify.local", route="dense", probe=True):
            train_linear(x, y, lam=wl.local_lam, max_dense=guards.max_dense_features)
        probes.append("classify.local[dense]")
    if "lsmr" not in routes:
        with tracer.span("classify.local", route="lsmr", probe=True):
            train_linear(views[0], y, lam=wl.local_lam, max_dense=0)
        probes.append("classify.local[lsmr]")
    if not wl.scale:
        with tracer.span("dataio.scale", probe=True):
            max_abs_scale(ds)
        probes.append("dataio.scale")


def _time_trbf(rs, y, glob, tracer):
    """The global's bandwidth heuristic, then its normal equations built
    chunk by chunk as train_trbf_krr builds them, and their J x J solve.
    Returns J."""
    with tracer.span("classify.sigma"):
        sigma_heuristic(rs, seed=0)
    j = trbf_dim(rs.shape[0], glob.p)
    a = glob.lam * np.eye(j)
    b = np.zeros(j)
    for lo in range(0, rs.shape[1], EXPAND_CHUNK):
        hi = min(lo + EXPAND_CHUNK, rs.shape[1])
        with tracer.span("classify.trbf_expand"):
            z = trbf_expand(rs[:, lo:hi], glob.sigma, glob.p)
        with tracer.span("classify.trbf_gram"):
            a += z @ z.T
            b += z @ y[lo:hi]
    with tracer.span("numerics.solve_spd"):
        solve_spd(a, b)
    return j


def _time_small_batches(model, test, rng, tracer):
    """Single-instance stages and 16-instance predict_dc on test data."""
    picks = rng.permutation(test.n_instances)
    for k in picks[:SMALL_SAMPLES]:
        x = test.X[:, [int(k)]]
        with tracer.span("decompose.apply1"):
            views = apply_decomposition(model.decomposition, x)
        with tracer.span("classify.local_score1"):
            rows = [m.decision_function(v) for m, v in zip(model.locals, views)]
        rs = apply_standardization(np.vstack(rows), model.r_shift, model.r_scale)
        with tracer.span("classify.global_score1"):
            model.global_model.decision_function(rs)
    for i in range(SMALL_SAMPLES):
        idx = np.sort(np.take(picks, range(16 * i, 16 * i + 16), mode="wrap"))
        x = test.X[:, idx]
        with tracer.span("fuse.predict16"):
            predict_dc(model, x, threads=THREADS)
