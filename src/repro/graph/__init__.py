"""Bipartite-graph substrate: the *"who buy-from where"* graph and friends."""

from .bipartite import BipartiteGraph
from .builder import BuiltGraph, GraphAccumulator, GraphBuilder
from .matrix import to_scipy
from .io import (
    EdgeBatch,
    iter_edge_batches,
    iter_npz_batches,
    load_edge_list,
    load_edge_list_chunked,
    load_npz,
    save_edge_list,
    save_npz,
)
from .store import (
    GraphStore,
    SpilledStore,
    StoreFileWriter,
    StoreLayout,
    read_file_layout,
)
from .stats import GraphStats, degree_gini, degree_histogram, describe, edge_density
from .validation import assert_subgraph_of, has_duplicate_edges, validate_graph
from .window import EdgeWindow, LiveWindow, StripeIndex, WindowConfig

__all__ = [
    "BipartiteGraph",
    "GraphStore",
    "SpilledStore",
    "StoreFileWriter",
    "StoreLayout",
    "read_file_layout",
    "GraphBuilder",
    "BuiltGraph",
    "GraphAccumulator",
    "WindowConfig",
    "LiveWindow",
    "EdgeWindow",
    "StripeIndex",
    "EdgeBatch",
    "iter_edge_batches",
    "iter_npz_batches",
    "load_edge_list_chunked",
    "to_scipy",
    "save_edge_list",
    "load_edge_list",
    "save_npz",
    "load_npz",
    "GraphStats",
    "describe",
    "edge_density",
    "degree_histogram",
    "degree_gini",
    "validate_graph",
    "assert_subgraph_of",
    "has_duplicate_edges",
]
