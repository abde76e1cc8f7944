"""Self-check of the benchmark harness at tiny sizes.

    python3 perfbench/selfcheck.py

Runs every workload with `--trace 0` and `--trace 1` on tiny data. Each
run must print, as its last line, a result with every metric that
`BENCHMARK.json` names for that mode, each with its unit, and no failed
operation. The check then copies `BENCHMARK.json` and this directory into
a directory without `src/`. There the benchmark must exit non-zero without
printing a result. Exits 0 when every check holds.
"""

import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BARE = os.path.join(HERE, "out", "selfcheck-bare")
TIMEOUT = 180


def _run(cwd, workload, trace):
    cmd = [sys.executable, os.path.join("perfbench", "run.py"),
           "--workload", workload, "--seed", "1", "--seconds", "2",
           "--trace", str(trace), "--tiny"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True,
                          timeout=TIMEOUT)


def _result(stdout):
    lines = stdout.strip().splitlines()
    if not lines:
        return None
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        return None
    return result if isinstance(result, dict) else None


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    expected = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
                1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    problems = []
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            proc = _run(ROOT, workload, trace)
            result = _result(proc.stdout)
            where = f"{workload} --trace {trace}"
            if proc.returncode != 0 or result is None:
                problems.append(f"{where}: exit {proc.returncode}, "
                                f"stderr {proc.stderr[-400:]!r}")
                continue
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                problems.append(f"{where}: result keys {sorted(result)}")
            if result.get("failed") or not result.get("correct"):
                problems.append(f"{where}: {result.get('failed')} failed operations")
            got = {k: v.get("unit") for k, v in result["metrics"].items()}
            if got != expected[trace]:
                missing = sorted(set(expected[trace]) - set(got))
                extra = sorted(set(got) - set(expected[trace]))
                wrong = sorted(k for k in set(got) & set(expected[trace])
                               if got[k] != expected[trace][k])
                problems.append(f"{where}: missing {missing}, unexpected "
                                f"{extra}, wrong units {wrong}")
            print(f"{where}: {len(got)} metrics, "
                  f"{result['attempted']} operations", flush=True)

    shutil.rmtree(BARE, ignore_errors=True)
    shutil.copytree(HERE, os.path.join(BARE, "perfbench"),
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), BARE)
    proc = _run(BARE, spec["workloads"][0]["name"], 0)
    if proc.returncode == 0 or _result(proc.stdout) is not None:
        problems.append("without src/ the benchmark did not fail cleanly")
    else:
        print(f"without src/: exit {proc.returncode}, no result", flush=True)
    shutil.rmtree(BARE, ignore_errors=True)

    for problem in problems:
        print(f"FAIL {problem}")
    print("selfcheck", "FAILED" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
