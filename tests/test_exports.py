"""The package exports what the pipeline runs: every public name has a
use besides its own definition and its re-export in `__init__`."""

import ast
import re
from pathlib import Path

import featdc

PACKAGE = Path(featdc.__file__).parent
REPO = PACKAGE.parents[1]


def names_read(path):
    """The identifiers and attributes the module at `path` reads, each
    top-level function or class not counted as reading its own name."""
    read = set()
    for stmt in ast.parse(path.read_text(encoding="utf-8")).body:
        inside = {node.id if isinstance(node, ast.Name) else node.attr
                  for node in ast.walk(stmt)
                  if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
                  or isinstance(node, ast.Attribute)}
        if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
            inside.discard(stmt.name)
        read |= inside
    return read


def test_every_export_has_a_use():
    # a module of the package, the benchmark harness, or README in a code
    # span or block must use each name; a helper only the tests call
    # belongs in the tests (tests/oracles.py)
    modules = [p for p in sorted(PACKAGE.glob("*.py")) if p.name != "__init__.py"]
    modules += sorted((REPO / "perfbench").glob("*.py"))
    used = set().union(*map(names_read, modules))
    readme = (REPO / "README.md").read_text(encoding="utf-8")
    code = " ".join(re.findall(r"```.*?```|`[^`\n]+`", readme, flags=re.S))
    unused = [name for name in featdc.__all__
              if not name.startswith("__") and name not in used
              and not re.search(rf"\b{name}\b", code)]
    assert unused == [], f"exported but used nowhere: {unused}"
