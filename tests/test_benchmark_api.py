"""The benchmark harness under perfbench/ calls into featdc. These checks
read its sources with `ast`, importing nothing from them, so that a change
to featdc which drops a name, a parameter or a keyword the harness uses
fails in the tests and not only in `python3 perfbench/selfcheck.py`."""

import ast
import importlib
import inspect
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def harness_trees():
    paths = sorted(PERFBENCH.glob("*.py"))
    assert paths, f"no harness sources under {PERFBENCH}"
    return [(path.name, ast.parse(path.read_text(encoding="utf-8")))
            for path in paths]


def featdc_imports(tree):
    """{local name: (module, attribute)} for each name that a
    `from featdc... import` in tree binds."""
    names = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 0 \
                and (node.module or "").split(".")[0] == "featdc":
            for alias in node.names:
                names[alias.asname or alias.name] = (node.module, alias.name)
    return names


def test_every_name_the_harness_takes_from_featdc_exists():
    missing, seen = [], 0
    for filename, tree in harness_trees():
        for module, attr in featdc_imports(tree).values():
            seen += 1
            if not hasattr(importlib.import_module(module), attr):
                missing.append(f"{filename}: {module}.{attr}")
    assert seen, "the harness takes nothing from featdc"
    assert not missing, missing


def test_every_harness_call_into_featdc_binds_to_its_signature():
    problems, called = [], set()
    for filename, tree in harness_trees():
        names = featdc_imports(tree)
        for node in ast.walk(tree):
            if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                    and node.func.id in names):
                continue
            module, attr = names[node.func.id]
            target = getattr(importlib.import_module(module), attr, None)
            if not callable(target):
                continue  # a missing name fails the test above
            called.add(attr)
            positional = [a for a in node.args if not isinstance(a, ast.Starred)]
            keywords = [k.arg for k in node.keywords if k.arg is not None]
            try:
                inspect.signature(target).bind_partial(
                    *[None] * len(positional), **dict.fromkeys(keywords))
            except TypeError as exc:
                problems.append(f"{filename}:{node.lineno} {module}.{attr}: {exc}")
    assert not problems, problems
    # the calls whose keywords a simplification is most likely to drop
    assert {"predict_dc", "train_dc", "fit_plan_entry", "DcModel"} <= called
