"""The packed-bitmap backend and its word-parallel kernel.

Four layers of pinning, from bit-twiddling up to whole runs:

* the packing helpers (``popcount``/``bits_to_indices``/``pack_indices``)
  against their obvious Python-set formulations;
* the explicit-stack enumerator and the packed anchored sweep against
  the shared recursion they replace, frame for frame;
* the CSR-direct materialization (``extract_block_bitmap``, scratch
  cache, ``features_from_bitmap``, ``degeneracy_order_packed``) against
  the ``Graph``-based constructions they bypass;
* a hypothesis property pinning ``bitmatrix`` to the three paper
  backends across every algorithm on ER/BA/SBM graphs, plus a golden
  regression forcing the new backend through all five dataset
  stand-ins.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import CORPUS, nx_cliques
from repro.decision.features import BlockFeatures, features_from_bitmap
from repro.decision.paper_tree import extended_tree, paper_tree, select_combo
from repro.graph.adjacency import Graph
from repro.graph.cores import degeneracy
from repro.graph.csr import (
    BitmapScratch,
    CSRGraph,
    bitmap_neighbors,
    extract_block_bitmap,
)
from repro.graph.generators import (
    barabasi_albert,
    complete_graph,
    erdos_renyi,
    stochastic_block_model,
)
from repro.mce.anchored import enumerate_anchored_native
from repro.mce.backends import SetBackend, backend_from_bitmap, build_backend
from repro.mce.bitmatrix import (
    bits_to_indices,
    degeneracy_order_packed,
    degeneracy_packed,
    enumerate_anchored_packed,
    expand_stack,
    pack_indices,
    popcount,
    popcount_rows,
    words_for,
)
from repro.mce.recursion import expand
from repro.mce.registry import ALGORITHM_NAMES, Combo, get_pivot_rule, run_combo

RNG_GRAPHS = [
    ("er", erdos_renyi(40, 0.25, seed=11)),
    ("ba", barabasi_albert(40, 4, seed=12)),
    ("sbm", stochastic_block_model([12, 12, 12], 0.6, 0.08, seed=13)),
    ("dense", erdos_renyi(30, 0.5, seed=14)),
]


class TestPackingHelpers:
    def test_words_for(self):
        assert words_for(0) == 0
        assert words_for(1) == 1
        assert words_for(64) == 1
        assert words_for(65) == 2
        assert words_for(200) == 4

    @pytest.mark.parametrize("n", [0, 1, 63, 64, 65, 130, 200])
    def test_pack_unpack_roundtrip(self, n):
        rng = np.random.default_rng(n)
        members = sorted(rng.choice(max(n, 1), size=n // 2, replace=False).tolist())
        mask = pack_indices(members, words_for(n))
        assert bits_to_indices(mask).tolist() == members
        assert popcount(mask) == len(members)

    def test_popcount_rows_matches_scalar(self):
        rng = np.random.default_rng(7)
        matrix = rng.integers(0, 2**63, size=(17, 3), dtype=np.uint64)
        rows = popcount_rows(matrix)
        assert rows.dtype == np.int64
        for i in range(17):
            assert rows[i] == popcount(matrix[i])
        assert popcount(matrix) == int(rows.sum())

    def test_empty_vectors(self):
        assert bits_to_indices(np.zeros(3, dtype=np.uint64)).tolist() == []
        assert popcount(np.zeros(0, dtype=np.uint64)) == 0
        assert popcount_rows(np.zeros((0, 0), dtype=np.uint64)).tolist() == []


class TestBackendParity:
    """The packed backend agrees with ``bitsets`` operation by operation."""

    @pytest.mark.parametrize("name,graph", CORPUS, ids=[n for n, _ in CORPUS])
    def test_set_algebra_matches_bitsets(self, name, graph):
        packed = build_backend(graph, "bitmatrix")
        reference = build_backend(graph, "bitsets")

        def as_set(backend, members):
            return set(backend.iterate(members))

        n = packed.n
        half = packed.make(range(0, n, 2))
        ref_half = reference.make(range(0, n, 2))
        assert as_set(packed, half) == as_set(reference, ref_half)
        assert packed.count(half) == reference.count(ref_half)
        assert as_set(packed, packed.full()) == as_set(reference, reference.full())
        for i in range(n):
            assert as_set(
                packed, packed.intersect_neighbors(half, i)
            ) == as_set(reference, reference.intersect_neighbors(ref_half, i))
            assert as_set(
                packed, packed.minus_neighbors(half, i)
            ) == as_set(reference, reference.minus_neighbors(ref_half, i))
            assert packed.degree(i) == reference.degree(i)
            assert packed.common_count(i, half) == reference.common_count(
                i, ref_half
            )
            assert packed.contains(half, i) == reference.contains(ref_half, i)

    def test_degrees_match_graph(self):
        graph = erdos_renyi(50, 0.2, seed=3)
        backend = build_backend(graph, "bitmatrix")
        for node in graph.nodes():
            assert backend.degree(backend.index_of(node)) == graph.degree(node)


class TestPackedKernels:
    """Stack, batched and generic kernels enumerate the same cliques.

    The generic recursion reference is forced by wrapping the pivot rule
    (unrecognized rules bypass ``expand_native``), so all three kernels
    are genuinely exercised; outputs are compared as sets because the
    batched kernel emits in level order, not depth-first order.
    """

    @pytest.mark.parametrize("algorithm", ALGORITHM_NAMES)
    @pytest.mark.parametrize("name,graph", RNG_GRAPHS, ids=[n for n, _ in RNG_GRAPHS])
    def test_three_kernels_agree(self, algorithm, name, graph):
        backend = build_backend(graph, "bitmatrix")
        rule = get_pivot_rule(algorithm)
        generic_rule = lambda b, p, x: rule(b, p, x)  # noqa: E731
        stack_out = list(
            expand_stack(backend, [], backend.full(), backend.empty(), rule)
        )
        batched_out = list(
            expand(backend, [], backend.full(), backend.empty(), rule)
        )
        generic_out = list(
            expand(backend, [], backend.full(), backend.empty(), generic_rule)
        )
        assert stack_out == generic_out  # stack kernel keeps DFS order
        reference = {frozenset(c) for c in generic_out}
        for out in (stack_out, batched_out):
            # Tuple member order may differ (the batched kernel breaks
            # pivot ties differently, so discovery paths differ), but
            # the clique sets must match exactly, with no duplicates.
            assert len(out) == len({frozenset(c) for c in out})
            assert {frozenset(c) for c in out} == reference
        assert {
            frozenset(backend.label(i) for i in c) for c in batched_out
        } == nx_cliques(graph)

    @pytest.mark.parametrize("algorithm", ALGORITHM_NAMES)
    def test_anchored_matches_native(self, algorithm):
        graph = erdos_renyi(36, 0.3, seed=23)
        backend = build_backend(graph, "bitmatrix")
        rule = get_pivot_rule(algorithm)
        n = backend.n
        candidates = backend.make(range(0, n, 2))
        excluded = backend.make(range(1, n, 2))
        for anchor in range(0, n, 5):
            packed = {
                frozenset(c)
                for c in enumerate_anchored_packed(
                    backend, anchor, candidates, excluded, rule
                )
            }
            native = {
                frozenset(c)
                for c in enumerate_anchored_native(
                    backend, anchor, candidates, excluded, rule
                )
            }
            assert packed == native
            stack = {
                frozenset(c)
                for c in expand_stack(
                    backend,
                    [anchor],
                    backend.intersect_neighbors(candidates, anchor),
                    backend.intersect_neighbors(excluded, anchor),
                    rule,
                )
            }
            assert stack == native

    def test_deep_block_does_not_recurse(self):
        # A long path graph drives the recursive kernel one level per
        # edge; the stack kernel must survive depths beyond any
        # practical recursion limit without touching sys.setrecursionlimit.
        n = 3000
        graph = Graph(edges=[(i, i + 1) for i in range(n - 1)])
        backend = build_backend(graph, "bitmatrix")
        rule = get_pivot_rule("tomita")
        cliques = list(
            expand_stack(backend, [], backend.full(), backend.empty(), rule)
        )
        assert len(cliques) == n - 1  # every edge is a maximal clique

    def test_clique_list_restored_on_exhaustion(self):
        graph = complete_graph(6)
        backend = build_backend(graph, "bitmatrix")
        prefix = [99]
        list(
            expand_stack(
                backend,
                prefix,
                backend.full(),
                backend.empty(),
                get_pivot_rule("tomita"),
            )
        )
        assert prefix == [99]


class TestCSRMaterialization:
    """CSR-direct bitmap extraction bypasses ``Graph`` without drift."""

    @pytest.mark.parametrize("name,graph", RNG_GRAPHS, ids=[n for n, _ in RNG_GRAPHS])
    def test_extract_matches_graph_built_bitmap(self, name, graph):
        csr = CSRGraph(graph)
        member_ids = np.arange(graph.num_nodes, dtype=np.int64)
        bitmap = extract_block_bitmap(csr.indptr, csr.indices, member_ids)
        reference = build_backend(graph, "bitmatrix")._matrix
        assert np.array_equal(bitmap, reference)

    def test_extract_subset_in_member_order(self):
        graph = erdos_renyi(40, 0.3, seed=31)
        csr = CSRGraph(graph)
        member_ids = np.array([7, 3, 19, 0, 25, 12], dtype=np.int64)
        bitmap = extract_block_bitmap(csr.indptr, csr.indices, member_ids)
        members = member_ids.tolist()
        for i, u in enumerate(members):
            expected = {
                j
                for j, v in enumerate(members)
                if graph.has_edge(csr.label(u), csr.label(v))
            }
            assert set(bits_to_indices(bitmap[i]).tolist()) == expected

    def test_scratch_reuses_and_rezeroes_buffers(self):
        graph = erdos_renyi(30, 0.4, seed=5)
        csr = CSRGraph(graph)
        scratch = BitmapScratch()
        members = np.arange(30, dtype=np.int64)
        first = extract_block_bitmap(csr.indptr, csr.indices, members, scratch)
        snapshot = first.copy()
        second = extract_block_bitmap(csr.indptr, csr.indices, members, scratch)
        assert second is first  # same cached buffer, not a reallocation
        assert np.array_equal(second, snapshot)  # rezeroed, then repacked
        assert scratch.nbytes() == first.nbytes
        # A different block size allocates a second cached buffer.
        other = extract_block_bitmap(
            csr.indptr, csr.indices, np.arange(12, dtype=np.int64), scratch
        )
        assert other.shape[0] == 12
        assert scratch.nbytes() == first.nbytes + other.nbytes

    def test_backend_from_bitmap_all_backends_agree(self):
        graph = erdos_renyi(33, 0.3, seed=41)
        bitmap = build_backend(graph, "bitmatrix")._matrix
        labels = list(graph.nodes())
        expected = nx_cliques(graph)
        for name in ("lists", "bitsets", "matrix", "bitmatrix"):
            backend = backend_from_bitmap(name, labels, bitmap)
            rule = get_pivot_rule("tomita")
            cliques = {
                frozenset(backend.label(i) for i in c)
                for c in expand(
                    backend, [], backend.full(), backend.empty(), rule
                )
            }
            assert cliques == expected, name

    @pytest.mark.parametrize("name,graph", RNG_GRAPHS, ids=[n for n, _ in RNG_GRAPHS])
    def test_lists_backend_from_neighbors_equals_from_bitmap(self, name, graph):
        bitmap = build_backend(graph, "bitmatrix")._matrix
        labels = list(graph.nodes())
        from_bitmap = backend_from_bitmap("lists", labels, bitmap)
        from_lists = backend_from_bitmap(
            "lists", labels, bitmap, bitmap_neighbors(bitmap)
        )
        assert isinstance(from_lists, SetBackend)
        assert from_lists._neighbors == from_bitmap._neighbors
        assert from_lists._neighbors == build_backend(graph, "lists")._neighbors
        assert from_lists._labels == from_bitmap._labels
        assert from_lists._index == from_bitmap._index
        assert from_lists.n == from_bitmap.n


class TestPackedDegeneracy:
    @pytest.mark.parametrize("name,graph", RNG_GRAPHS, ids=[n for n, _ in RNG_GRAPHS])
    def test_matches_graph_cores(self, name, graph):
        backend = build_backend(graph, "bitmatrix")
        bitmap = backend._matrix
        assert degeneracy_packed(bitmap) == degeneracy(graph)
        order = degeneracy_order_packed(bitmap)
        assert sorted(order) == list(range(graph.num_nodes))
        # Tie-breaking may differ from the Graph peeling, but any valid
        # degeneracy order bounds every node's later-neighbour count by
        # the degeneracy (which is what the anchored sweep relies on).
        d = degeneracy(graph)
        position = {v: i for i, v in enumerate(order)}
        for v in order:
            later = int(
                sum(1 for u in bits_to_indices(bitmap[v]) if position[int(u)] > position[v])
            )
            assert later <= d

    def test_features_from_bitmap_identical(self):
        for _, graph in RNG_GRAPHS:
            bitmap = build_backend(graph, "bitmatrix")._matrix
            assert features_from_bitmap(bitmap) == BlockFeatures.of(graph)


class TestExtendedTree:
    def test_dense_leaves_pick_bitmatrix(self):
        tree = extended_tree()
        dense_small = BlockFeatures(
            num_nodes=200, num_edges=6000, density=0.3, degeneracy=60, d_star=70
        )
        assert select_combo(tree, dense_small) == Combo("tomita", "bitmatrix")
        medium = BlockFeatures(
            num_nodes=500, num_edges=8000, density=0.06, degeneracy=30, d_star=40
        )
        assert select_combo(tree, medium) == Combo("bkpivot", "bitmatrix")
        huge = BlockFeatures(
            num_nodes=9000, num_edges=500_000, density=0.01, degeneracy=30, d_star=90
        )
        assert select_combo(tree, huge) == Combo("xpivot", "bitmatrix")

    def test_sparse_leaf_unchanged(self):
        sparse = BlockFeatures(
            num_nodes=1000, num_edges=3000, density=0.006, degeneracy=5, d_star=10
        )
        assert select_combo(extended_tree(), sparse) == select_combo(
            paper_tree(), sparse
        )
        assert select_combo(extended_tree(), sparse) == Combo("xpivot", "lists")

    def test_paper_tree_never_picks_bitmatrix(self):
        # Paper-faithful runs must stay on the published three structures.
        tree = paper_tree()
        for features in (
            BlockFeatures(200, 6000, 0.3, 60, 70),
            BlockFeatures(500, 8000, 0.06, 30, 40),
            BlockFeatures(9000, 500_000, 0.01, 30, 90),
            BlockFeatures(1000, 3000, 0.006, 5, 10),
        ):
            assert select_combo(tree, features).backend != "bitmatrix"


@st.composite
def random_graphs(draw):
    """ER, BA or SBM graphs across a spread of sizes and densities."""
    family = draw(st.sampled_from(["er", "ba", "sbm"]))
    seed = draw(st.integers(min_value=0, max_value=10_000))
    if family == "er":
        n = draw(st.integers(min_value=0, max_value=45))
        p = draw(st.floats(min_value=0.05, max_value=0.6))
        return erdos_renyi(n, p, seed=seed)
    if family == "ba":
        n = draw(st.integers(min_value=2, max_value=45))
        m = draw(st.integers(min_value=1, max_value=min(5, n - 1)))
        return barabasi_albert(n, m, seed=seed)
    sizes = draw(
        st.lists(st.integers(min_value=2, max_value=10), min_size=2, max_size=4)
    )
    p_in = draw(st.floats(min_value=0.3, max_value=0.9))
    p_out = draw(st.floats(min_value=0.0, max_value=0.2))
    return stochastic_block_model(sizes, p_in, p_out, seed=seed)


@settings(max_examples=40, deadline=None)
@given(random_graphs())
def test_bitmatrix_pinned_to_paper_backends(graph):
    """Property: every algorithm × bitmatrix equals the paper backends."""
    for algorithm in ALGORITHM_NAMES:
        packed = set(run_combo(graph, Combo(algorithm, "bitmatrix")))
        for reference in ("lists", "bitsets", "matrix"):
            assert packed == set(run_combo(graph, Combo(algorithm, reference)))


class TestGoldenWithBitmatrix:
    """The forced-bitmatrix driver reproduces every frozen clique census."""

    @pytest.mark.parametrize(
        "name", ["facebook", "google+", "twitter1", "twitter2", "twitter3"]
    )
    def test_dataset_standin(self, name):
        from collections import Counter

        from repro.core.driver import find_max_cliques
        from repro.graph.datasets import load_dataset

        fixture = Path(__file__).parent / "golden" / (
            name.replace("+", "plus") + ".json"
        )
        frozen = json.loads(fixture.read_text())
        graph = load_dataset(name)
        result = find_max_cliques(
            graph, frozen["m"], combo=Combo("tomita", "bitmatrix")
        )
        histogram = {
            str(size): count
            for size, count in sorted(
                Counter(len(c) for c in result.cliques).items()
            )
        }
        assert result.num_cliques == frozen["cliques"]["count"]
        assert result.max_clique_size() == frozen["cliques"]["max_size"]
        assert histogram == frozen["cliques"]["size_histogram"]
