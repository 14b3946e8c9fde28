"""The runtime imports only the standard library; sympy and hypothesis
serve the tests alone."""

import ast
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "rsqg"


def foreign_imports(source):
    """Top-level names of the absolute imports in source that are not in
    the standard library (relative imports stay inside the package)."""
    names = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and not node.level:
            names.append(node.module)
    return sorted({name.split(".")[0] for name in names}
                  - sys.stdlib_module_names)


def test_runtime_imports_only_the_standard_library():
    files = sorted(SRC.glob("*.py"))
    assert files
    for path in files:
        assert foreign_imports(path.read_text()) == [], path.name


def test_foreign_imports_flags_a_third_party_module():
    source = ("from __future__ import annotations\n"
              "import json, os.path\n"
              "from .scalars import RatFunc\n"
              "def f():\n"
              "    import sympy.polys\n"
              "    from hypothesis import given\n")
    assert foreign_imports(source) == ["hypothesis", "sympy"]
