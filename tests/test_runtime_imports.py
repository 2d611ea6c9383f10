"""The runtime uses the standard library only: networkx and the other test
tools stay test-only oracles, never imports of `src/kernelkit`.  The public
names and the fields of the public result types are pinned, so adding,
removing or renaming one is a declared change.  No module imports `gc`:
the library leaves its host's cyclic collector alone.  No module imports
`dataclasses`, and a cold start of the package and its CLI parser loads
neither it nor `inspect`."""

import ast
import subprocess
import sys
from pathlib import Path

import kernelkit

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


def cached_property_uses(source: str) -> list[int]:
    """Lines that import `functools.cached_property` or name it through
    `functools`; on Python 3.11 its first read takes a lock, which the
    package's own `_table` descriptor does not."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and node.module == "functools":
            if any(alias.name == "cached_property" for alias in node.names):
                found.append(node.lineno)
        elif isinstance(node, ast.Attribute) and node.attr == "cached_property":
            if isinstance(node.value, ast.Name) and node.value.id == "functools":
                found.append(node.lineno)
    return found


def test_kernelkit_caches_no_table_through_cached_property():
    uses = {path.name: cached_property_uses(path.read_text()) for path in SOURCES}
    assert {name: lines for name, lines in uses.items() if lines} == {}


def test_a_cached_property_import_is_flagged():
    snippet = (
        "import functools\n"
        "from functools import cached_property\n"
        "from functools import lru_cache, cached_property as cp\n"
        "from functools import lru_cache\n"
        "class A:\n"
        "    @functools.cached_property\n"
        "    def table(self):\n"
        "        return ()\n"
    )
    assert cached_property_uses(snippet) == [2, 3, 6]


def module_imports(source: str, module: str) -> list[int]:
    """Lines that import `module` or a name from it."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            if any(alias.name == module for alias in node.names):
                found.append(node.lineno)
        elif isinstance(node, ast.ImportFrom) and node.module == module and node.level == 0:
            found.append(node.lineno)
    return found


# A library must leave its host's collector alone; the searches free
# themselves by reference counting instead.
def test_kernelkit_imports_no_gc():
    uses = {path.name: module_imports(path.read_text(), "gc") for path in SOURCES}
    assert {name: lines for name, lines in uses.items() if lines} == {}


def test_a_gc_import_is_flagged():
    snippet = (
        "import gc\n"
        "import os, gc as collector\n"
        "from gc import disable, freeze\n"
        "from . import gc_free\n"
        "from .gc import table\n"
        "import gcd\n"
        "def f():\n"
        "    import gc\n"
    )
    assert module_imports(snippet, "gc") == [1, 2, 3, 8]


# `dataclasses` imports `inspect`, and each dataclass runs `exec` for every
# method it generates, which together were most of a cold start; the records
# are NamedTuples and `Digraph` a plain class instead.
def test_kernelkit_imports_no_dataclasses():
    uses = {path.name: module_imports(path.read_text(), "dataclasses") for path in SOURCES}
    assert {name: lines for name, lines in uses.items() if lines} == {}


def test_a_dataclasses_import_is_flagged():
    snippet = (
        "from dataclasses import dataclass\n"
        "import dataclasses as dc, json\n"
        "from .dataclasses import record\n"
        "import dataclasses_json\n"
        "from typing import NamedTuple\n"
        "def f():\n"
        "    import dataclasses\n"
    )
    assert module_imports(snippet, "dataclasses") == [1, 2, 7]


COLD_START = (
    "import sys\n"
    "sys.path.insert(0, sys.argv[1])\n"
    "import kernelkit, kernelkit.cli\n"
    "kernelkit.cli.build_parser()\n"
    "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))\n"
)


def test_a_cold_start_loads_neither_dataclasses_nor_inspect():
    # -S: a site hook that loads either module itself cannot fail the test
    src = str(SOURCES[0].parents[1])
    done = subprocess.run(
        [sys.executable, "-I", "-S", "-c", COLD_START, src],
        capture_output=True, text=True, check=True,
    )
    assert done.stdout == "[]\n", done.stderr


# `kernelkit.__all__` is every name its __init__ binds, the submodules among them.
PUBLIC_NAMES = [
    "CampaignParams", "CycleHypothesisVariant", "Digraph", "HypothesisReport",
    "KERNEL", "KernelQuery", "KernelResult", "MethodOutcome", "Road", "SplitMix64",
    "SubstitutionTrace", "THREE_KERNEL", "VerificationReport", "as_vertex_set",
    "assemble_pre_3_kernel", "build_digraph", "build_substitution_sequence", "campaigns",
    "check_additive_inverse_property", "check_circuit_hypothesis", "check_cycle_hypothesis",
    "check_pre_kernel_properties", "check_unique_short_chord", "cycles", "digraph",
    "directed_cycle", "enumerate_cycles", "enumerate_labeled_digraphs",
    "errors", "every_cycle_has_symmetric_arc", "find_kernel_via_closure", "find_kl_kernel",
    "find_road", "format_digraph_text", "generators", "is_3_kernel_perfect",
    "is_k_independent", "is_kernel_perfect", "is_kl_kernel", "is_l_absorbent",
    "is_quasi_3_kernel_perfect", "k_closure", "kernels", "kl_kernels", "parse_digraph_text",
    "random_digraph", "random_strongly_connected", "roads_of", "run_campaign",
    "run_substitution_method", "start_substitution", "substitution", "textio",
    "validate_road",
]


def test_public_names_match_the_snapshot():
    assert sorted(kernelkit.__all__) == PUBLIC_NAMES


# The fields of the public result types, in order.
PUBLIC_FIELDS = {
    "SubstitutionTrace": ["digraph", "x0", "base_kernel", "labels", "m_sets"],
    "HypothesisReport": ["violation", "cycles_examined"],
    "KernelResult": ["found", "witness", "subsets_examined"],
    "MethodOutcome": ["pre_3_kernel", "is_3_kernel", "trace", "failure_witness"],
    "VerificationReport": [
        "property_id", "parameters", "instances_checked", "failures", "failures_total",
        "occupancy", "vacuous", "wall_time",
    ],
}


def test_public_result_fields_match_the_snapshot():
    for name, fields in PUBLIC_FIELDS.items():
        assert list(getattr(kernelkit, name)._fields) == fields, name
