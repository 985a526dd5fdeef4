"""Chunked/streaming IO: batch readers, accumulator, truncation guard."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import GraphError
from repro.graph import (
    BipartiteGraph,
    GraphAccumulator,
    iter_edge_batches,
    iter_npz_batches,
    load_edge_list,
    load_edge_list_chunked,
    save_edge_list,
    save_npz,
)


def assert_graphs_bitwise_equal(a: BipartiteGraph, b: BipartiteGraph) -> None:
    assert (a.n_users, a.n_merchants) == (b.n_users, b.n_merchants)
    assert np.array_equal(a.edge_users, b.edge_users)
    assert np.array_equal(a.edge_merchants, b.edge_merchants)
    assert np.array_equal(a.user_labels, b.user_labels)
    assert np.array_equal(a.merchant_labels, b.merchant_labels)
    assert a.edge_users.dtype == b.edge_users.dtype
    assert (a.edge_weights is None) == (b.edge_weights is None)
    if a.edge_weights is not None:
        assert np.array_equal(a.edge_weights, b.edge_weights)


@pytest.fixture
def weighted_graph(rng):
    graph = BipartiteGraph.from_edges(
        [(int(u), int(v)) for u, v in zip(rng.integers(0, 40, 300), rng.integers(0, 25, 300))]
    )
    return graph.with_weights(rng.random(graph.n_edges) * 3.0)


@pytest.fixture
def large_label_graph(rng):
    """Non-contiguous, far-from-dense labels (db ids in the 1e12 range)."""
    base = BipartiteGraph.from_edges(
        [(int(u), int(v)) for u, v in zip(rng.integers(0, 30, 200), rng.integers(0, 20, 200))]
    )
    user_labels = np.sort(rng.choice(10**12, size=base.n_users, replace=False))
    merchant_labels = np.sort(rng.choice(10**12, size=base.n_merchants, replace=False))
    return BipartiteGraph(
        base.n_users,
        base.n_merchants,
        base.edge_users,
        base.edge_merchants,
        user_labels=user_labels,
        merchant_labels=merchant_labels,
    )


class TestChunkedLoader:
    @pytest.mark.parametrize("batch_size", [1, 7, 64, 10**6])
    def test_bitwise_equals_whole_file(self, tiny_graph, tmp_path, batch_size):
        path = tmp_path / "g.tsv"
        save_edge_list(tiny_graph, path)
        assert_graphs_bitwise_equal(
            load_edge_list(path), load_edge_list_chunked(path, batch_size=batch_size)
        )

    @pytest.mark.parametrize("batch_size", [3, 50, 10**6])
    def test_weighted_roundtrip(self, weighted_graph, tmp_path, batch_size):
        path = tmp_path / "w.tsv"
        save_edge_list(weighted_graph, path)
        whole = load_edge_list(path)
        chunked = load_edge_list_chunked(path, batch_size=batch_size)
        assert whole.is_weighted and chunked.is_weighted
        assert_graphs_bitwise_equal(whole, chunked)

    def test_large_noncontiguous_labels(self, large_label_graph, tmp_path):
        path = tmp_path / "big.tsv"
        save_edge_list(large_label_graph, path)
        whole = load_edge_list(path)
        chunked = load_edge_list_chunked(path, batch_size=17)
        assert_graphs_bitwise_equal(whole, chunked)
        assert whole.user_labels.max() > 10**10  # labels survived verbatim

    def test_batch_iteration_shapes(self, tiny_graph, tmp_path):
        path = tmp_path / "g.tsv"
        save_edge_list(tiny_graph, path)
        batches = list(iter_edge_batches(path, batch_size=4))
        assert [b.n_edges for b in batches] == [4, 2]
        assert all(b.weights is None for b in batches)

    def test_bad_batch_size_rejected(self, tiny_graph, tmp_path):
        path = tmp_path / "g.tsv"
        save_edge_list(tiny_graph, path)
        with pytest.raises(GraphError):
            list(iter_edge_batches(path, batch_size=0))


class TestTruncationGuard:
    def _truncated(self, graph, tmp_path):
        path = tmp_path / "full.tsv"
        save_edge_list(graph, path)
        lines = path.read_text().splitlines()
        short = tmp_path / "short.tsv"
        short.write_text("\n".join(lines[: 1 + graph.n_edges // 2]) + "\n")
        return short

    def test_whole_file_loader_rejects_truncation(self, tiny_graph, tmp_path):
        path = self._truncated(tiny_graph, tmp_path)
        with pytest.raises(GraphError, match="declares edges="):
            load_edge_list(path)

    def test_chunked_loader_rejects_truncation(self, tiny_graph, tmp_path):
        path = self._truncated(tiny_graph, tmp_path)
        with pytest.raises(GraphError, match="declares edges="):
            load_edge_list_chunked(path, batch_size=2)

    def test_extra_rows_rejected(self, tiny_graph, tmp_path):
        path = tmp_path / "extra.tsv"
        save_edge_list(tiny_graph, path)
        with path.open("a") as fh:
            fh.write("0\t0\n")
        with pytest.raises(GraphError, match="declares edges="):
            load_edge_list(path)

    def test_non_strict_tolerates_mismatch(self, tiny_graph, tmp_path):
        path = self._truncated(tiny_graph, tmp_path)
        batches = list(iter_edge_batches(path, strict=False))
        assert sum(b.n_edges for b in batches) == tiny_graph.n_edges // 2

    def test_malformed_count_rejected(self, tmp_path):
        path = tmp_path / "bad.tsv"
        path.write_text("# bipartite users=1 merchants=1 edges=abc weighted=0\n0\t0\n")
        with pytest.raises(GraphError, match="malformed edges="):
            load_edge_list(path)

    def test_header_without_count_still_loads(self, tmp_path):
        path = tmp_path / "old.tsv"
        path.write_text("# bipartite users=1 merchants=1 weighted=0\n0\t0\n")
        assert load_edge_list(path).n_edges == 1


#: an edge file with a byte that is not UTF-8, and the line it is on; the
#: data row lies past the first 8 KiB, where a text-mode read would decode
#: a whole chunk ahead of the rows it parses
_HEADER = b"# bipartite users=3000 merchants=1 edges=3000 weighted=0\n"
_NOT_UTF8 = {
    "header": (_HEADER.replace(b"bipartite", b"bipartite\xff\xfe"), 1),
    "data_row": (
        _HEADER + b"".join(b"%d\t0\n" % u for u in range(2999)) + b"\xff\xfe\t0\n",
        3001,
    ),
}


class TestNotUtf8:
    @pytest.mark.parametrize("where", sorted(_NOT_UTF8))
    @pytest.mark.parametrize(
        "read",
        [load_edge_list, load_edge_list_chunked, lambda path: list(iter_edge_batches(path))],
        ids=["load_edge_list", "load_edge_list_chunked", "iter_edge_batches"],
    )
    def test_is_a_graph_error_naming_the_line(self, tmp_path, read, where):
        data, line = _NOT_UTF8[where]
        path = tmp_path / "bad.tsv"
        path.write_bytes(data)
        with pytest.raises(GraphError, match=rf"bad\.tsv:{line}: byte 0xff is not UTF-8"):
            read(path)


class TestNpzBatches:
    def test_roundtrip_through_accumulator(self, weighted_graph, tmp_path):
        path = tmp_path / "g.npz"
        save_npz(weighted_graph, path)
        accumulator = GraphAccumulator()
        for batch in iter_npz_batches(path, batch_size=37):
            accumulator.append(batch.users, batch.merchants, batch.weights)
        rebuilt = accumulator.graph()
        assert rebuilt.n_edges == weighted_graph.n_edges
        assert np.array_equal(
            rebuilt.user_labels[rebuilt.edge_users],
            weighted_graph.user_labels[weighted_graph.edge_users],
        )
        assert np.array_equal(rebuilt.edge_weights, weighted_graph.edge_weights)


class TestGraphAccumulator:
    def test_append_returns_delta_range(self):
        acc = GraphAccumulator()
        assert acc.append([1, 2], [10, 11]) == (0, 2)
        assert acc.append([3], [10]) == (2, 3)
        assert acc.append([], []) == (3, 3)
        assert acc.n_edges == 3

    def test_interns_across_batches(self):
        acc = GraphAccumulator()
        acc.append([5, 7], [100, 200])
        acc.append([7, 9], [200, 300])
        graph = acc.graph()
        assert graph.n_users == 3 and graph.n_merchants == 3
        # user 7 / merchant 200 reuse their first-batch indices
        assert graph.edge_users.tolist() == [0, 1, 1, 2]
        assert graph.edge_merchants.tolist() == [0, 1, 1, 2]

    def test_snapshot_then_grow(self):
        acc = GraphAccumulator()
        acc.append([0, 1], [0, 1])
        first = acc.graph()
        acc.append([2], [0])
        second = acc.graph()
        assert first.n_edges == 2  # earlier snapshot is unaffected
        assert second.n_edges == 3
        assert np.array_equal(second.edge_users[:2], first.edge_users)

    def test_weighted_batch_after_unweighted_prefix(self):
        acc = GraphAccumulator()
        acc.append([0, 1], [0, 1])
        acc.append([2], [2], weights=[4.0])
        graph = acc.graph()
        assert graph.is_weighted
        assert graph.edge_weights.tolist() == [1.0, 1.0, 4.0]

    def test_from_graph_appends_in_label_space(self, tiny_graph):
        acc = GraphAccumulator.from_graph(tiny_graph)
        start, stop = acc.append([3, 10], [0, 99])
        assert (start, stop) == (tiny_graph.n_edges, tiny_graph.n_edges + 2)
        grown = acc.graph()
        assert grown.n_users == tiny_graph.n_users + 1  # label 10 is new
        assert grown.n_merchants == tiny_graph.n_merchants + 1  # label 99 is new
        assert np.array_equal(grown.edge_users[: tiny_graph.n_edges], tiny_graph.edge_users)
        # existing label 3 mapped to its existing index
        assert grown.edge_users[tiny_graph.n_edges] == 3

    def test_mismatched_batch_rejected(self):
        acc = GraphAccumulator()
        with pytest.raises(GraphError):
            acc.append([1, 2], [3])
        with pytest.raises(GraphError):
            acc.append([1], [3], weights=[1.0, 2.0])
