"""The runtime uses the standard library only: networkx and the other test
tools stay test-only oracles, never imports of `src/kernelkit`.  The public
names and the fields of the public result types are pinned, so adding,
removing or renaming one is a declared change.  No module imports `gc`:
the library leaves its host's cyclic collector alone."""

import ast
import dataclasses
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


def gc_imports(source: str) -> list[int]:
    """Lines that import the `gc` module or a name from it.  A library must
    leave its host's collector alone; the searches free themselves by
    reference counting instead."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            if any(alias.name == "gc" for alias in node.names):
                found.append(node.lineno)
        elif isinstance(node, ast.ImportFrom) and node.module == "gc" and node.level == 0:
            found.append(node.lineno)
    return found


def test_kernelkit_imports_no_gc():
    uses = {path.name: gc_imports(path.read_text()) for path in SOURCES}
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
    assert gc_imports(snippet) == [1, 2, 3, 8]


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
        assert [f.name for f in dataclasses.fields(getattr(kernelkit, name))] == fields, name
