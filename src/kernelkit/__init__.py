"""Digraph kernel workbench: (k,l)-kernels, k-closures, chord conditions,
the 3-substitution method, and an empirical verification harness."""

from .digraph import Digraph, as_vertex_set, build_digraph, directed_cycle
from .cycles import (
    CycleHypothesisVariant,
    HypothesisReport,
    check_circuit_hypothesis,
    check_cycle_hypothesis,
    enumerate_cycles,
    every_cycle_has_symmetric_arc,
)
from .kernels import (
    KERNEL,
    THREE_KERNEL,
    KernelQuery,
    KernelResult,
    find_kernel_via_closure,
    find_kl_kernel,
    is_3_kernel_perfect,
    is_k_independent,
    is_kernel_perfect,
    is_kl_kernel,
    is_l_absorbent,
    is_quasi_3_kernel_perfect,
    k_closure,
    kl_kernels,
)
from .substitution import (
    MethodOutcome,
    Road,
    SubstitutionTrace,
    assemble_pre_3_kernel,
    build_substitution_sequence,
    check_additive_inverse_property,
    check_pre_kernel_properties,
    check_unique_short_chord,
    find_road,
    roads_of,
    run_substitution_method,
    start_substitution,
    validate_road,
)
from .generators import (
    SplitMix64,
    enumerate_labeled_digraphs,
    random_digraph,
    random_strongly_connected,
)
from .textio import (
    format_digraph_text,
    parse_digraph_text,
)
from .campaigns import CampaignParams, VerificationReport, run_campaign

__all__ = [name for name in dir() if not name.startswith("_")]
