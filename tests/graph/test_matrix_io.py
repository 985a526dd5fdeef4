"""Unit tests for matrix conversion and file IO."""

from __future__ import annotations

import pytest

from repro.errors import GraphError
from repro.graph import (
    BipartiteGraph,
    load_edge_list,
    load_npz,
    save_edge_list,
    save_npz,
    to_scipy,
)


class TestMatrixConversion:
    def test_to_scipy_shape_and_sum(self, tiny_graph):
        matrix = to_scipy(tiny_graph)
        assert matrix.shape == (4, 3)
        assert matrix.sum() == tiny_graph.n_edges

    def test_to_scipy_binary_clips(self):
        graph = BipartiteGraph(1, 1, [0, 0], [0, 0])  # parallel edges
        matrix = to_scipy(graph, binary=True)
        assert matrix.toarray().tolist() == [[1.0]]

    def test_parallel_edges_sum_weights(self):
        graph = BipartiteGraph(1, 1, [0, 0], [0, 0], edge_weights=[2.0, 3.0])
        assert to_scipy(graph).toarray().tolist() == [[5.0]]

    def test_to_scipy_keeps_nonunit_weights(self):
        graph = BipartiteGraph(2, 2, [0, 1], [1, 0], edge_weights=[0.5, 2.5])
        assert to_scipy(graph).toarray().tolist() == [[0.0, 0.5], [2.5, 0.0]]

    def test_to_scipy_binary_ignores_weights(self):
        graph = BipartiteGraph(2, 1, [0, 0, 1], [0, 0, 0], edge_weights=[2.5, 0.25, 4.0])
        assert to_scipy(graph, binary=True).toarray().tolist() == [[1.0], [1.0]]

    def test_to_scipy_empty_graph(self):
        matrix = to_scipy(BipartiteGraph.empty(3, 2))
        assert matrix.shape == (3, 2)
        assert matrix.nnz == 0

    def test_to_scipy_is_canonical_csr(self):
        # unsorted, with a parallel pair: one stored entry per (user, merchant)
        graph = BipartiteGraph(2, 3, [1, 0, 1, 0], [2, 1, 0, 1])
        matrix = to_scipy(graph)
        assert matrix.format == "csr"
        assert matrix.has_canonical_format
        assert matrix.nnz == 3
        assert matrix.indices.tolist() == [1, 0, 2]


class TestEdgeListIO:
    def test_roundtrip_unweighted(self, tiny_graph, tmp_path):
        path = tmp_path / "graph.tsv"
        save_edge_list(tiny_graph, path)
        back = load_edge_list(path)
        assert back.n_edges == tiny_graph.n_edges
        assert set(back.user_labels.tolist()) <= set(range(4))

    def test_roundtrip_weighted(self, tmp_path):
        graph = BipartiteGraph(2, 2, [0, 1], [0, 1], edge_weights=[1.5, 2.5])
        path = tmp_path / "weighted.tsv"
        save_edge_list(graph, path)
        back = load_edge_list(path)
        assert back.is_weighted
        assert sorted(back.edge_weights.tolist()) == [1.5, 2.5]

    def test_labels_written_not_local_indices(self, tiny_graph, tmp_path):
        sub = tiny_graph.edge_subgraph([5])  # the (3, 2) edge
        path = tmp_path / "sub.tsv"
        save_edge_list(sub, path)
        content = path.read_text()
        assert "3\t2" in content

    def test_missing_header_rejected(self, tmp_path):
        path = tmp_path / "bad.tsv"
        path.write_text("0\t0\n")
        with pytest.raises(GraphError):
            load_edge_list(path)

    def test_bad_row_rejected(self, tmp_path):
        path = tmp_path / "bad2.tsv"
        path.write_text("# bipartite users=1 merchants=1 edges=1 weighted=0\nonly-one-column\n")
        with pytest.raises(GraphError):
            load_edge_list(path)

    def test_comments_and_blank_lines_skipped(self, tmp_path):
        path = tmp_path / "sparse.tsv"
        path.write_text(
            "# bipartite users=2 merchants=1 edges=1 weighted=0\n\n# comment\n1\t4\n"
        )
        graph = load_edge_list(path)
        assert graph.n_edges == 1
        assert graph.user_labels.tolist() == [1]
        assert graph.merchant_labels.tolist() == [4]


class TestNpzIO:
    def test_roundtrip_exact(self, tiny_graph, tmp_path):
        path = tmp_path / "graph.npz"
        save_npz(tiny_graph, path)
        back = load_npz(path)
        assert back == tiny_graph

    def test_roundtrip_weighted_with_labels(self, tmp_path):
        graph = BipartiteGraph(
            2, 2, [0, 1], [1, 0],
            edge_weights=[0.5, 0.25],
            user_labels=[10, 20],
            merchant_labels=[30, 40],
        )
        path = tmp_path / "labelled.npz"
        save_npz(graph, path)
        assert load_npz(path) == graph
