"""The runtime uses the standard library only: networkx and the other test
tools stay test-only oracles, never imports of `src/kernelkit`."""

import ast
import sys
from pathlib import Path

SOURCES = sorted((Path(__file__).resolve().parents[1] / "src" / "kernelkit").glob("*.py"))


def outside_imports(source: str) -> list[str]:
    """Top-level modules of the absolute imports outside the standard library;
    relative imports are the package's own."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [node.module]
        else:
            continue
        found += [name for name in names if name.split(".")[0] not in sys.stdlib_module_names]
    return found


def test_kernelkit_imports_only_the_standard_library():
    assert any(path.name == "digraph.py" for path in SOURCES)
    outside = {path.name: outside_imports(path.read_text()) for path in SOURCES}
    assert {name: found for name, found in outside.items() if found} == {}


def test_an_import_outside_the_standard_library_is_flagged():
    snippet = (
        "from __future__ import annotations\n"
        "import networkx as nx\n"
        "from networkx.algorithms import cycles\n"
        "from collections import deque\n"
        "from .digraph import Digraph\n"
        "def f():\n"
        "    import hypothesis\n"
    )
    assert outside_imports(snippet) == ["networkx", "networkx.algorithms", "hypothesis"]
