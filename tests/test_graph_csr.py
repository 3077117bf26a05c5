"""Unit tests for the CSR graph snapshot."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import NodeNotFoundError
from repro.graph.adjacency import Graph
from repro.graph.csr import (
    BitmapScratch,
    CSRGraph,
    bitmap_neighbors,
    extract_block_bitmap,
)
from repro.graph.generators import complete_graph, erdos_renyi, star_graph


class TestRoundTrip:
    @pytest.mark.parametrize("seed", range(4))
    def test_random_graphs(self, seed):
        g = erdos_renyi(30, 0.2, seed=seed)
        assert CSRGraph(g).to_graph() == g

    def test_isolated_nodes_preserved(self):
        g = Graph(edges=[(1, 2)], nodes=[9])
        assert CSRGraph(g).to_graph() == g

    def test_empty(self):
        csr = CSRGraph(Graph())
        assert csr.num_nodes == 0
        assert csr.num_edges == 0
        assert csr.to_graph() == Graph()


class TestQueries:
    def test_counts(self):
        csr = CSRGraph(complete_graph(5))
        assert csr.num_nodes == 5
        assert csr.num_edges == 10

    def test_degree(self):
        csr = CSRGraph(star_graph(6))
        assert csr.degree(0) == 6
        assert csr.degree(1) == 1

    def test_neighbors_sorted_indices(self):
        g = Graph(edges=[(0, 3), (0, 1), (0, 2)])
        csr = CSRGraph(g)
        row = list(csr.neighbor_indices(csr.index_of(0)))
        assert row == sorted(row)

    def test_neighbors_labels(self):
        g = Graph(edges=[("a", "b"), ("a", "c")])
        csr = CSRGraph(g)
        assert set(csr.neighbors("a")) == {"b", "c"}

    def test_has_edge(self):
        g = erdos_renyi(25, 0.3, seed=7)
        csr = CSRGraph(g)
        for u in g.nodes():
            for v in g.nodes():
                if u != v:
                    assert csr.has_edge(u, v) == g.has_edge(u, v)

    def test_unknown_node(self):
        csr = CSRGraph(Graph(nodes=[1]))
        with pytest.raises(NodeNotFoundError):
            csr.degree(99)

    def test_memory_bytes_positive(self):
        csr = CSRGraph(complete_graph(10))
        assert csr.memory_bytes() == (11 + 90) * 8

    def test_repr(self):
        assert "num_nodes=3" in repr(CSRGraph(complete_graph(3)))

    def test_label_index_roundtrip(self):
        g = Graph(nodes=["x", "y"])
        csr = CSRGraph(g)
        for node in g.nodes():
            assert csr.label(csr.index_of(node)) == node


def _naive_bitmap(csr: CSRGraph, member_ids: list[int]) -> np.ndarray:
    """Member-by-member build: bit j of row i iff members i and j are adjacent."""
    n = len(member_ids)
    bitmap = np.zeros((n, (n + 63) // 64), dtype=np.uint64)
    position = {u: i for i, u in enumerate(member_ids)}
    for i, u in enumerate(member_ids):
        for v in csr.neighbor_indices(u).tolist():
            j = position.get(v)
            if j is not None:
                bitmap[i, j // 64] |= np.uint64(1) << np.uint64(j % 64)
    return bitmap


class TestExtractBlockBitmap:
    """The one-pass vectorized gather against a per-member reference."""

    @staticmethod
    def _cases():
        # Rows keep neighbours outside the block: every member set below
        # is a strict subset of the graph's nodes, in shuffled order.
        graph = erdos_renyi(200, 0.08, seed=17)
        graph.add_node("isolated-a")
        graph.add_node("isolated-b")
        csr = CSRGraph(graph)
        rng = np.random.default_rng(3)
        isolated = [csr.index_of("isolated-a"), csr.index_of("isolated-b")]
        cases = [[], isolated, [isolated[0], 5, isolated[1], 9, 40]]
        for n in (63, 64, 65, 130):
            cases.append(rng.permutation(200)[:n].tolist())
        return csr, cases

    @pytest.mark.parametrize("reuse", [False, True], ids=["fresh", "scratch"])
    def test_matches_per_member_build(self, reuse):
        csr, cases = self._cases()
        scratch = BitmapScratch() if reuse else None
        # Two passes, so the scratch run repacks into dirty cached buffers.
        for _ in range(2 if reuse else 1):
            for members in cases:
                bitmap = extract_block_bitmap(
                    csr.indptr, csr.indices, np.asarray(members, dtype=np.int64), scratch
                )
                assert bitmap.shape == (len(members), (len(members) + 63) // 64)
                assert np.array_equal(bitmap, _naive_bitmap(csr, members))

    def test_neighbor_lists_follow_the_bits(self):
        csr, cases = self._cases()
        for members in cases:
            bitmap = _naive_bitmap(csr, members)
            expected = [
                [j for j in range(len(members)) if (int(row[j // 64]) >> (j % 64)) & 1]
                for row in bitmap
            ]
            assert bitmap_neighbors(bitmap) == expected
