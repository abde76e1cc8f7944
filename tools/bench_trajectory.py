"""Write the committed performance trajectory: BENCH_<workload>.json.

    python3 tools/bench_trajectory.py

For each workload of `BENCHMARK.json` this runs `perfbench/run.py` once
per seed with `--trace 0` and once, on the first seed, with `--trace 1`,
all at full size for the file's `run_seconds`, one after another; then it
reads the records the runs leave in `perfbench/out/`. The file it writes
at the repository root holds, for every end-to-end metric, the median,
the quartiles and the per-seed values; the per-layer metrics of the
traced run; the operation counts; the environment fingerprint; and the
sha256 of the `src/featdc` sources that were measured. Takes about 13
minutes on 2 cores.
"""

import glob
import hashlib
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PERFBENCH = os.path.join(ROOT, "perfbench")
SEEDS = range(1, 6)


def source_sha256():
    digest = hashlib.sha256()
    for path in sorted(glob.glob(os.path.join(ROOT, "src", "featdc", "*.py"))):
        digest.update(os.path.basename(path).encode() + b"\0")
        with open(path, "rb") as fh:
            digest.update(fh.read())
    return digest.hexdigest()


def run(workload, seed, seconds, trace):
    """One benchmark process; returns the parts of the record it wrote
    that a trajectory keeps. The rest, every sample, is dropped at once: a
    child process starts from this process's peak RSS (Linux carries the
    high-water mark over fork and exec), so records kept here would raise
    the `peak_rss_mb` of every later run."""
    subprocess.run([sys.executable, os.path.join(PERFBENCH, "run.py"),
                    "--workload", workload, "--seed", str(seed),
                    "--seconds", str(seconds), "--trace", str(trace)],
                   check=True, stdout=subprocess.DEVNULL)
    path = os.path.join(PERFBENCH, "out",
                        f"{workload}-seed{seed}-trace{trace}.json")
    with open(path, encoding="utf-8") as fh:
        record = json.load(fh)
    if record["tiny"] or record["seconds"] != seconds:
        raise SystemExit(f"error: {path} is not the full-size run just made")
    return {key: record[key] for key in ("metrics", "attempted", "failed", "environment")}


def summarize(values):
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3, "runs": values}


def trajectory(workload, seeds, seconds):
    plain = [run(workload, seed, seconds, 0) for seed in seeds]
    traced = run(workload, seeds[0], seconds, 1)
    units = {k: v["unit"] for k, v in plain[0]["metrics"].items()}
    return {
        "workload": workload,
        "source_sha256": source_sha256(),
        "seconds": seconds,
        "seeds": list(seeds),
        "attempted": sum(r["attempted"] for r in plain + [traced]),
        "failed": sum(r["failed"] for r in plain + [traced]),
        "end_to_end": {
            name: dict(summarize([r["metrics"][name]["value"] for r in plain]),
                       unit=unit)
            for name, unit in units.items()
        },
        "per_layer": {"seed": seeds[0], "metrics": traced["metrics"]},
        "environment": plain[0]["environment"],
    }


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        benchmark = json.load(fh)
    for workload in (w["name"] for w in benchmark["workloads"]):
        result = trajectory(workload, SEEDS, float(benchmark["run_seconds"]))
        out = os.path.join(ROOT, f"BENCH_{workload}.json")
        with open(out, "w", encoding="utf-8") as fh:
            json.dump(result, fh, indent=1)
            fh.write("\n")
        medians = {k: round(v["median"], 4)
                   for k, v in result["end_to_end"].items()}
        print(f"{out}: {medians}, failed {result['failed']}"
              f"/{result['attempted']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
