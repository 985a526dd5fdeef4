"""A :class:`BipartiteGraph` as a scipy sparse matrix.

The adjacency-matrix view ``W ∈ R^{|U|×|V|}`` is the representation the paper
uses to describe one-side / two-side node sampling, and it is what the
SVD-based baselines (SpokEn, FBox) consume. scipy is imported on the
first call, so a program that never builds the matrix never loads it.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from .bipartite import BipartiteGraph

if TYPE_CHECKING:
    import scipy.sparse as sp

__all__ = ["to_scipy"]


def to_scipy(graph: BipartiteGraph, binary: bool = False) -> sp.csr_matrix:
    """Users×merchants CSR matrix; parallel edges sum their weights.

    ``binary=True`` clips all entries to ``1`` (purchase happened at least
    once), which is what the SVD baselines want.
    """
    import scipy.sparse as sp

    data = graph.weights_or_ones()
    matrix = sp.coo_matrix(
        (data, (graph.edge_users, graph.edge_merchants)),
        shape=(graph.n_users, graph.n_merchants),
    ).tocsr()
    if binary:
        matrix.data = np.ones_like(matrix.data)
    matrix.sum_duplicates()
    return matrix
