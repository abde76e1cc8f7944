"""Check that the host-speed gauge does not see featdc's BLAS threads.

    python3 perfbench/gaugecheck.py --workload rcv1-sparse --pairs 10

run.py scales its end-to-end times by a gauge it reads between jobs
(envinfo.host_gauge_ms). That is sound only if the gauge measures the host
and not the program. The check runs, in one process, pairs of the
workload's train job, one with both OpenBLAS libraries (numpy's and
scipy's) at 2 threads and one at 1 thread, as OPENBLAS_NUM_THREADS=1 would
give; the order alternates from pair to pair. After each job it times the
gauge's loop at once, as a control, with the CPU time that the
process's other threads (the BLAS workers and featdc's pool) used while
the loop ran. It then reads the gauge as run.py does, which keeps only a
reading during which no other thread ran.

The last line of standard output is a JSON object. At each thread count it
gives the median job time, the median and largest other-thread CPU time in
the control, the median gauge reading and the number of readings the gauge
discarded. It also gives the median and quartiles of the paired gauge
ratio (2 threads over 1), which should differ from 1 only by the host's
own noise. Pairing in one process keeps slow drift of the host speed out
of the ratio, which separate processes with and without the variable would
not. Job outputs go to a temporary directory under `perfbench/out`.
"""

import argparse
import ctypes
import json
import os
import shutil
import statistics
import sys
import tempfile
import time

import envinfo
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
OUT = os.path.join(HERE, "out")


def _blas_setters():
    """set_num_threads of every OpenBLAS library mapped into this process."""
    setters = []
    for path in envinfo.loaded_openblas():
        lib = ctypes.CDLL(path)
        for suffix in envinfo.SUFFIXES:
            setter = getattr(lib, f"scipy_openblas_set_num_threads{suffix}", None)
            if setter is not None:
                setter.argtypes, setter.restype = [ctypes.c_int], None
                setters.append(setter)
                break
    return setters


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", default="rcv1-sparse", choices=workloads.NAMES)
    p.add_argument("--pairs", type=int, default=10)
    args = p.parse_args(argv)

    sys.dont_write_bytecode = True
    sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
    import jobs

    wl = workloads.get(args.workload)
    train_text, _, _, _ = jobs.setup(wl, tiny=False)
    setters = _blas_setters()
    if len(setters) < 2:
        raise SystemExit(f"error: found {len(setters)} OpenBLAS libraries, "
                         "expected numpy's and scipy's")
    os.makedirs(OUT, exist_ok=True)
    model_dir = tempfile.mkdtemp(prefix="gaugecheck-", dir=OUT)
    job_s, at_once, gauge = {2: [], 1: []}, {2: [], 1: []}, {2: [], 1: []}
    try:
        model_path = os.path.join(model_dir, "model.json")
        jobs.train_job(wl, train_text, model_path)  # warm-up
        for i in range(args.pairs):
            for threads in ((2, 1) if i % 2 == 0 else (1, 2)):
                for setter in setters:
                    setter(threads)
                t0 = time.perf_counter()
                jobs.train_job(wl, train_text, model_path)
                job_s[threads].append(time.perf_counter() - t0)
                at_once[threads].append(envinfo.gauge_loop())
                gauge[threads].append(envinfo.host_gauge_ms())
    finally:
        shutil.rmtree(model_dir, ignore_errors=True)

    ratios = [a[0] / b[0] for a, b in zip(gauge[2], gauge[1])]
    q1, _, q3 = statistics.quantiles(ratios, n=4)
    print(json.dumps({
        "workload": wl.name, "pairs": args.pairs,
        **{f"blas{t}": {
            "train_job_s": statistics.median(job_s[t]),
            "control_other_cpu_ms": {
                "median": statistics.median(o for _, o in at_once[t]),
                "max": max(o for _, o in at_once[t])},
            "gauge_ms": statistics.median(ms for ms, _ in gauge[t]),
            "gauge_discarded": sum(d for _, d in gauge[t]),
        } for t in (2, 1)},
        "gauge_ratio_2_over_1": {"median": statistics.median(ratios),
                                 "q1": q1, "q3": q3},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
