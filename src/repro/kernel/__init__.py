"""Bitset/integer kernel layer for the enumeration hot path.

Re-encodes float-probability uncertain graphs over dense int ids with
big-int neighbor bitsets and one ``{id: p}`` row per vertex
(:class:`CompactGraph`), provides int-id counterparts of the reduction,
ordering and coloring pipeline (:mod:`repro.kernel.reduction`), and
the bitset state algebra the shared search engine runs
(:class:`~repro.kernel.enumerate.KernelStateOps`) when
``PivotConfig(backend="kernel")`` is selected.  Clique sets and search
statistics are identical to the dict backend by construction and by
the parity tests in ``tests/test_kernel_parity.py``.
"""

from repro.kernel.compact import CompactGraph
from repro.kernel.enumerate import supports
from repro.kernel.reduction import (
    degeneracy_ordering_ids,
    greedy_coloring_ids,
    topk_core_ids,
    topk_core_ordering_ids,
    topk_triangle_edge_ids,
    vertex_ordering_ids,
)

__all__ = [
    "CompactGraph",
    "supports",
    "degeneracy_ordering_ids",
    "greedy_coloring_ids",
    "topk_core_ids",
    "topk_core_ordering_ids",
    "topk_triangle_edge_ids",
    "vertex_ordering_ids",
]
