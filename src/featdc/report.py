"""Run reports: metrics, per-stage timings, config echo, artifact hashes.

Every command emits the same report twice: a fixed-width human-readable
table on stdout and a machine-readable JSON file for scripted checks.
Everything in the JSON except the wall-clock timing fields is a pure
function of (config, seed, input files).
"""

import contextvars
import hashlib
import json
import os
import time
from contextlib import contextmanager

from .dataio import write_text

_RECORDING = contextvars.ContextVar("featdc_recording", default=None)


@contextmanager
def recording():
    """Collect every `timed` block that ends inside it, as {key: seconds}
    in the order each key first ended. Each thread (each context) records
    only its own blocks; every stage timing of a report comes from here."""
    token = _RECORDING.set({})
    try:
        yield _RECORDING.get()
    finally:
        _RECORDING.reset(token)


@contextmanager
def timed(key):
    """Add the block's wall-clock seconds to `key` of the open recording
    (a key timed twice sums); outside a recording, keep nothing."""
    timings, t0 = _RECORDING.get(), time.perf_counter()
    yield
    if timings is not None:
        timings[key] = timings.get(key, 0.0) + time.perf_counter() - t0


def sha256_file(path):
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


def build_report(command, seed, timings, config_echo=None, metrics=None,
                 artifacts=None, extra=None):
    """Assemble the report record for one command run."""
    report = {
        "command": command,
        "seed": seed,
        "timings_s": {k: float(v) for k, v in timings.items()},
        "config": config_echo or {},
        "metrics": metrics,
        "artifacts": {},
    }
    for name, path in (artifacts or {}).items():
        report["artifacts"][name] = {"path": path, "sha256": sha256_file(path)}
    if extra:
        report.update(extra)
    return report


def write_report(report, out_dir, name):
    path = os.path.join(out_dir, name)
    write_text(path, json.dumps(report, indent=2) + "\n")
    return path


def _row(label, value):
    return f"| {label:<34}| {value:>20} |"


_RULE = "+" + "-" * 58 + "+"


def format_report(report):
    """Fixed-width table: stage timings in the order they were recorded,
    then metrics."""
    lines = [_RULE, _row(f"command: {report['command']}",
                         f"seed {report['seed']}"), _RULE]
    lines += [_row(f"time {key} (s)", f"{seconds:.3f}")
              for key, seconds in report.get("timings_s", {}).items()]
    metrics = report.get("metrics")
    if metrics:
        lines.append(_RULE)
        if "error_rate_pct" in metrics:
            lines.append(_row("error rate (%)", f"{metrics['error_rate_pct']:.2f}"))
        if "n" in metrics:
            lines.append(_row("test instances", str(metrics["n"])))
        if metrics.get("confusion"):
            lines.append(_row("confusion tp/tn/fp/fn",
                              "{tp}/{tn}/{fp}/{fn}".format(**metrics["confusion"])))
    baseline = report.get("baseline")
    if baseline is not None:
        lines += [_RULE, _row("baseline", "skipped: " + baseline.get("reason", "")[:16])
                  if baseline.get("skipped") else
                  _row("baseline error rate (%)", f"{baseline['error_rate_pct']:.2f}")]
    if report.get("reduction") is not None:
        lines += [_RULE, _row("error reduction (%)", f"{report['reduction']:.2f}")]
    for name, art in report.get("artifacts", {}).items():
        lines += [_RULE, _row(f"artifact {name}", art["sha256"][:16])]
    lines.append(_RULE)
    return "\n".join(lines)
