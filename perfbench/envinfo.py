"""Environment fingerprint recorded with every result, and the host-speed
gauge.

The fingerprint only reads: CPU count and affinity, interpreter and library
versions, the BLAS/OpenMP environment variables, and each OpenBLAS library
mapped into this process with its configuration and current thread count.
Nothing here changes a thread count or any other setting.
"""

import ctypes
import os
import platform
import re
import statistics
import sys
import time

ENV_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
            "BLIS_NUM_THREADS", "OMP_PROC_BIND", "OMP_WAIT_POLICY",
            "OPENBLAS_CORETYPE", "OPENBLAS_THREAD_TIMEOUT", "GOTO_THREAD_TIMEOUT")

# An idle OpenBLAS worker busy-waits for 2**28 cycles (its default thread
# timeout, about 0.13 s at 2 GHz) before it sleeps. A gauge reading during
# which the program's other threads used more than OTHER_CPU_MS of CPU is
# discarded; the gauge then idles GAUGE_IDLE_S, longer than that timeout,
# and reads again.
GAUGE_IDLE_S = 0.25
OTHER_CPU_MS = 1.0

# numpy's wheel links libscipy_openblas64_ (64-bit integer API, symbol
# suffix 64_); scipy's links libscipy_openblas (no suffix).
SUFFIXES = ("64_", "")


def loaded_openblas():
    paths = []
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            for line in fh:
                m = re.search(r"(/\S*openblas\S*\.so\S*)", line)
                if m and m.group(1) not in paths:
                    paths.append(m.group(1))
    except OSError:
        pass
    return paths


def _openblas_info(path):
    info = {"library": os.path.basename(path)}
    try:
        lib = ctypes.CDLL(path)
    except OSError as exc:
        info["error"] = str(exc)
        return info
    for suffix in SUFFIXES:
        get_threads = getattr(lib, f"scipy_openblas_get_num_threads{suffix}", None)
        get_config = getattr(lib, f"scipy_openblas_get_config{suffix}", None)
        if get_threads is None:
            continue
        get_threads.argtypes, get_threads.restype = [], ctypes.c_int
        info["num_threads"] = int(get_threads())
        if get_config is not None:
            get_config.argtypes, get_config.restype = [], ctypes.c_char_p
            info["config"] = get_config().decode("ascii", "replace")
        break
    return info


def fingerprint():
    """Dict describing the machine and libraries; call after numpy and
    scipy are imported so their BLAS libraries are mapped."""
    import numpy
    import scipy

    try:
        affinity = sorted(os.sched_getaffinity(0))
    except (AttributeError, OSError):
        affinity = None
    return {
        "nproc": os.cpu_count(),
        "affinity": affinity,
        "machine": platform.machine(),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_libraries": [_openblas_info(p) for p in loaded_openblas()],
        "env": {k: os.environ[k] for k in ENV_VARS if k in os.environ},
    }


def gauge_loop():
    """Median milliseconds of three runs of a fixed pure-Python loop, and
    the CPU milliseconds the process's other threads used meanwhile."""
    times = []
    cpu0, own0 = time.process_time(), time.thread_time()
    for _ in range(3):
        t0 = time.perf_counter()
        acc = 0
        for i in range(200_000):
            acc += i * i % 7
        times.append(time.perf_counter() - t0)
    other_ms = 1e3 * ((time.process_time() - cpu0) - (time.thread_time() - own0))
    return 1e3 * statistics.median(times), other_ms


def host_gauge_ms():
    """Host-speed gauge: (gauge_loop() milliseconds, readings discarded).

    On a shared host the loop slows when neighbours load the physical
    cores behind the VM's vCPUs, and the benchmark's jobs slow with it.
    Only a reading during which no other thread of the program ran is
    kept, so the gauge measures the host and not the program.
    """
    discarded = 0
    while True:
        ms, other_ms = gauge_loop()
        if other_ms < OTHER_CPU_MS:
            return ms, discarded
        discarded += 1
        time.sleep(GAUGE_IDLE_S)
