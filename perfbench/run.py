"""featdc benchmark: one workload per process.

    python3 perfbench/run.py --workload covtype-dense --seed 1 --seconds 36 --trace 0

Builds the workload's inputs, then trains, evaluates and serves a featdc
model from the checkout's `src/` the way the `featdc train`/`eval`
commands and a library caller do, checking every output. The last line of
standard output is one JSON object with the keys `correct`, `attempted`,
`failed` and `metrics`: the end-to-end metrics with `--trace 0`, the
per-layer metrics of the traced stage replay (replay.py) with `--trace 1`.
The full record (sample counts, exact work counts, environment
fingerprint) goes to `perfbench/out/<workload>-seed<n>-trace<t>.json`,
and a traced run also writes its spans next to it.

End-to-end times are scaled to a reference host speed by a gauge read
throughout the run (see GAUGE_REF_MS below); the raw values stay in the
record. Every metric takes its unit from `BENCHMARK.json`. `--seconds` is
the wall-clock budget of the whole process, set-up included. Minimum
sample counts take precedence over the budget, so a slow machine runs
longer rather than reporting from too few samples. See
README.md for the workloads and the meaning of every metric.
"""

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402

sys.dont_write_bytecode = True  # every run compiles the package alike

import envinfo  # noqa: E402
import workloads  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")

SETUP_REPS = 3        # setup_s is the median of this many set-ups
MIN_ROUNDS = 3        # measurement rounds, however short the budget
SLICES_PER_ROUND = 2  # eval/query slices per train job
PREDICT1_SLICE = 0.5  # seconds of single-instance queries per slice
BATCH_SLICE = 0.2     # seconds of 256-instance batches per slice
BATCH = 256
QUERY_POOL = 1024     # distinct test instances the single-instance caller cycles over

# End-to-end times are reported at a reference host speed. The host-speed
# gauge (envinfo.host_gauge_ms) reads GAUGE_REF_MS on the reference 2-vCPU
# VM when its neighbours are quiet, and up to 29 ms when they are not; the
# host switches between such states within seconds, and the jobs slow with
# it. The run reads the gauge before every set-up, train job, eval job,
# single-instance loop and batch loop, and once at the end. Each timed
# sample is scaled by GAUGE_REF_MS over the mean of the readings just
# before and just after it; the metrics are medians of scaled samples. The
# record keeps the raw wall-clock metrics and every gauge reading.
GAUGE_REF_MS = 16.0


def _parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=workloads.NAMES)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--tiny", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def _import_featdc():
    sys.path.insert(0, SRC)
    try:
        import featdc
    except ImportError as exc:
        raise SystemExit(f"error: cannot import featdc from {SRC}: {exc}")
    if not os.path.abspath(featdc.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"error: featdc resolved to {featdc.__file__}, "
                         f"not to the checkout's {SRC}")


def _units(trace):
    """{metric: unit} for the mode, as BENCHMARK.json names them."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def _read_gauge(gauge):
    """Append a host-speed gauge reading to `gauge`; return its index."""
    gauge.append(envinfo.host_gauge_ms())
    return len(gauge) - 1


def _at_ref_speed(samples, gauge):
    """Each (seconds, i) sample, timed between gauge readings i and i + 1,
    scaled to the reference host speed."""
    return [t * 2 * GAUGE_REF_MS / (gauge[i][0] + gauge[i + 1][0])
            for t, i in samples]


def _setup(wl, tiny, reps, ledger, gauge):
    """Set up `reps` times; every repeat must reproduce the first texts.
    `gauge` holds a reading taken just before; one is added after each
    set-up."""
    import jobs

    times, first = [], None
    for i in range(reps):
        t0 = time.perf_counter()
        train_text, test_text, generate_s, serialize_s = jobs.setup(wl, tiny)
        times.append({"total": time.perf_counter() - t0, "gauge": i,
                      "generate_split": generate_s, "serialize": serialize_s})
        if first is None:
            first = (train_text, test_text)
        else:
            ledger.check(first == (train_text, test_text),
                         "set-up did not reproduce the same texts")
        _read_gauge(gauge)
    return first[0], first[1], times


def _serve(wl, seed, deadline, texts, model_dir, ledger, gauge):
    """Untraced measurement in rounds. A round is one train job and then
    SLICES_PER_ROUND slices, each an eval job, PREDICT1_SLICE seconds of
    single-instance queries and BATCH_SLICE seconds of 256-instance
    batches. Each caller is a closed loop with one client. Interleaving
    spreads every metric's samples over the whole run, so a change in host
    speed weighs on all of them alike. A reading of the host-speed gauge
    goes to `gauge` before the train job, before each eval job and each
    caller's loop, and at the end. Returns the metrics at the reference
    host speed, the raw metrics and the samples."""
    import numpy as np

    import jobs
    from featdc import predict_dc

    train_text, test_text = texts
    model_path = os.path.join(model_dir, "model.json")
    rng = np.random.default_rng(seed)
    train_s, eval_s, lat, batch_s = [], [], [], []
    ref = None
    while True:
        round_start = time.perf_counter()
        g = _read_gauge(gauge)
        t0 = time.perf_counter()
        jobs.train_job(wl, train_text, model_path)
        train_s.append((time.perf_counter() - t0, g))
        for _ in range(SLICES_PER_ROUND):
            g = _read_gauge(gauge)
            t0 = time.perf_counter()
            model, test, labels, scores, err = jobs.eval_job(model_path, test_text)
            eval_s.append((time.perf_counter() - t0, g))
            if ref is None:
                ref = _Reference(model, test, labels, scores, err, rng)
                ledger.check(err <= wl.max_error_pct,
                             f"error {err:.2f}% above the {wl.max_error_pct}% bound")
            ledger.check(jobs.same_bits(scores, ref.scores),
                         "training job's test scores differ from the first job's")
            ledger.check(err == ref.err, "eval error differs from the first job's")

            g = _read_gauge(gauge)
            slice_end = time.perf_counter() + PREDICT1_SLICE
            while time.perf_counter() < slice_end:
                k = len(lat) % len(ref.queries)
                t0 = time.perf_counter()
                labels, _ = predict_dc(ref.model, ref.queries[k],
                                       threads=workloads.THREADS)
                lat.append((time.perf_counter() - t0, g))
                want = ref.labels[ref.order[k]]
                ledger.check(labels.shape == (1,) and labels[0] == want,
                             f"single-instance label differs for test "
                             f"instance {ref.order[k]}")

            g = _read_gauge(gauge)
            slice_end = time.perf_counter() + BATCH_SLICE
            while time.perf_counter() < slice_end:
                idx, x = ref.batches[len(batch_s) % len(ref.batches)]
                t0 = time.perf_counter()
                labels, _ = predict_dc(ref.model, x, threads=workloads.THREADS)
                batch_s.append((time.perf_counter() - t0, g))
                ledger.check(np.array_equal(labels, ref.labels[idx]),
                             "batch-256 labels differ from the full-batch labels")

        now = time.perf_counter()
        if len(train_s) >= MIN_ROUNDS and now + (now - round_start) > deadline:
            break

    _read_gauge(gauge)

    def summary(scale):
        return {
            "train_s": statistics.median(scale(train_s)),
            "eval_s": statistics.median(scale(eval_s)),
            "predict1_p50_ms": 1e3 * statistics.median(scale(lat)),
            "predict256_inst_per_s": BATCH / statistics.median(scale(batch_s)),
            "error_pct": ref.err,
        }

    raw_lat_ms = 1e3 * np.array([t for t, _ in lat])
    samples = {"rounds": len(train_s), "predict1_n": len(lat),
               "predict256_batches": len(batch_s),
               "predict1_p90_ms": float(np.percentile(raw_lat_ms, 90)),
               "predict1_p99_ms": float(np.percentile(raw_lat_ms, 99)),
               "predict1_max_ms": float(raw_lat_ms.max()),
               "train_jobs": train_s, "eval_jobs": eval_s,
               "predict1": [(round(1e3 * t, 4), g) for t, g in lat],
               "predict256": [(round(1e3 * t, 4), g) for t, g in batch_s]}
    return (summary(lambda samples: _at_ref_speed(samples, gauge)),
            summary(lambda samples: [t for t, _ in samples]), samples)


class _Reference:
    """The first eval job's outputs, and the query streams the seed draws
    from its test set: single instances in a seeded order, and 256-instance
    batches cut from the test set rotated by a seeded offset."""

    def __init__(self, model, test, labels, scores, err, rng):
        import numpy as np

        self.model, self.labels, self.scores, self.err = model, labels, scores, err
        n = test.n_instances
        self.order = rng.permutation(n)[:QUERY_POOL]
        self.queries = [test.X[:, [int(k)]] for k in self.order]
        rolled = np.roll(np.arange(n), -int(rng.integers(n)))
        cuts = [rolled[i:i + BATCH] for i in range(0, n - BATCH + 1, BATCH)] or [rolled]
        self.batches = [(c, test.X[:, c]) for c in cuts]


def main(argv=None):
    args = _parse_args(argv)
    _import_featdc()
    import_s = time.perf_counter() - T_START

    import jobs

    wl = workloads.get(args.workload, tiny=args.tiny)
    units = _units(args.trace)
    gauge = []
    _read_gauge(gauge)
    deadline = T_START + args.seconds
    ledger = jobs.Ledger()
    os.makedirs(OUT, exist_ok=True)
    stem = os.path.join(OUT, f"{wl.name}-seed{args.seed}-trace{args.trace}")
    model_dir = tempfile.mkdtemp(prefix="models-", dir=OUT)
    try:
        reps = SETUP_REPS if args.trace == 0 else 1
        train_text, test_text, setup_times = _setup(wl, args.tiny, reps, ledger,
                                                    gauge)
        texts = (train_text, test_text)
        raw = None
        if args.trace:
            import replay

            metrics, detail = replay.run(wl, args.seed, deadline, texts,
                                         model_dir, ledger, setup_times,
                                         stem + "-spans.jsonl")
        else:
            metrics, raw, detail = _serve(wl, args.seed, deadline, texts,
                                          model_dir, ledger, gauge)
            # import_s precedes the first gauge reading
            setup = [(t["total"], t["gauge"]) for t in setup_times]
            metrics["setup_s"] = (import_s * GAUGE_REF_MS / gauge[0][0]
                                  + statistics.median(_at_ref_speed(setup, gauge)))
            raw["setup_s"] = import_s + statistics.median(t for t, _ in setup)
            metrics["peak_rss_mb"] = raw["peak_rss_mb"] = (
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)
    finally:
        shutil.rmtree(model_dir, ignore_errors=True)

    if set(metrics) != set(units):
        raise SystemExit(f"error: metrics {sorted(metrics)} do not match "
                         f"BENCHMARK.json's {sorted(units)}")

    result = {
        "correct": ledger.failed == 0,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": {k: {"value": float(metrics[k]), "unit": u}
                    for k, u in sorted(units.items())},
    }
    record = dict(result, workload=wl.name, seed=args.seed,
                  seconds=args.seconds, trace=args.trace, tiny=args.tiny,
                  wall_s=time.perf_counter() - T_START, import_s=import_s,
                  setup=setup_times, problems=ledger.problems, detail=detail,
                  raw_metrics=raw, host_gauge_ms=gauge,
                  environment=envinfo.fingerprint())
    with open(stem + ".json", "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
