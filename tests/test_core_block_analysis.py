"""Unit tests for BLOCK-ANALYSIS (per-block anchored enumeration)."""

from __future__ import annotations

import pytest

import repro.core.block_analysis as block_analysis
import repro.decision.features as features
import repro.graph.cores as cores
import repro.mce.bitmatrix as bitmatrix
from conftest import nx_cliques
from repro.core.block_analysis import analyze_block, analyze_block_csr, analyze_blocks
from repro.core.blocks import blocks_csr, build_blocks
from repro.core.feasibility import cut, cut_csr
from repro.graph.adjacency import Graph
from repro.graph.csr import CSRGraph
from repro.graph.generators import erdos_renyi, social_network
from repro.mce.registry import Combo
from repro.mce.verify import is_maximal_clique


def blocks_for(graph: Graph, m: int):
    feasible, _hubs = cut(graph, m)
    return build_blocks(graph, feasible, m)


class TestSingleBlock:
    def test_cliques_touch_kernel_and_avoid_visited(self):
        g = erdos_renyi(25, 0.3, seed=5)
        for block in blocks_for(g, 12):
            report = analyze_block(block)
            kernel = set(block.kernel)
            for clique in report.cliques:
                assert clique & kernel, "clique without kernel node"
                assert not clique & block.visited, "clique with visited node"

    def test_cliques_maximal_in_input_graph(self):
        g = erdos_renyi(25, 0.3, seed=6)
        for block in blocks_for(g, 12):
            report = analyze_block(block)
            for clique in report.cliques:
                assert is_maximal_clique(g, clique)

    def test_report_metadata(self):
        g = erdos_renyi(20, 0.3, seed=7)
        block = blocks_for(g, 10)[0]
        report = analyze_block(block)
        assert report.seconds > 0.0
        assert report.kernel_nodes == len(block.kernel)
        assert report.features.num_nodes == block.graph.num_nodes

    def test_forced_combo_used(self):
        g = erdos_renyi(20, 0.3, seed=8)
        block = blocks_for(g, 10)[0]
        combo = Combo("bkpivot", "matrix")
        report = analyze_block(block, combo=combo)
        assert report.combo == combo

    def test_forced_combo_same_output_as_tree_choice(self):
        g = erdos_renyi(22, 0.35, seed=9)
        for block in blocks_for(g, 11):
            by_tree = set(analyze_block(block).cliques)
            by_force = set(
                analyze_block(block, combo=Combo("eppstein", "lists")).cliques
            )
            assert by_tree == by_force


class TestAcrossBlocks:
    def test_union_has_no_duplicates(self):
        g = social_network(100, attachment=3, planted_cliques=(7,), seed=1)
        blocks = blocks_for(g, 20)
        cliques, _reports = analyze_blocks(blocks)
        assert len(cliques) == len(set(cliques))

    def test_union_equals_feasible_touching_cliques(self):
        g = social_network(100, attachment=3, planted_cliques=(7,), seed=1)
        m = 20
        feasible, _hubs = cut(g, m)
        feasible_set = set(feasible)
        blocks = build_blocks(g, feasible, m)
        cliques, _reports = analyze_blocks(blocks)
        expected = {c for c in nx_cliques(g) if c & feasible_set}
        assert set(cliques) == expected

    def test_one_report_per_block(self):
        g = erdos_renyi(30, 0.2, seed=3)
        blocks = blocks_for(g, 8)
        _cliques, reports = analyze_blocks(blocks)
        assert len(reports) == len(blocks)

    def test_empty_block_list(self):
        cliques, reports = analyze_blocks([])
        assert cliques == []
        assert reports == []


class TestFigure1:
    def test_shared_clique_reported_once(self, figure1):
        # {H, F, D} occurs in two blocks of Figure 2 but the visited
        # mechanism must keep exactly one copy.
        blocks = blocks_for(figure1, 5)
        cliques, _ = analyze_blocks(blocks)
        assert cliques.count(frozenset({"H", "F", "D"})) == 1

    def test_feasible_cliques_complete(self, figure1):
        from conftest import FIGURE1_CLIQUES

        blocks = blocks_for(figure1, 5)
        cliques, _ = analyze_blocks(blocks)
        expected = {c for c in FIGURE1_CLIQUES if c - {"D", "S", "E"}}
        assert set(cliques) == expected


class TestOnePeelPerBlock:
    """Each block is peeled exactly once, on the dict path and the CSR path.

    The peel yields both the degeneracy feature and the kernel anchor
    order; a second peel per block (the old feature-then-order pair) is
    the fixed cost this guards against.  Every binding of the shared
    peel, and the ``Graph`` degeneracy the features fall back to, is
    counted.
    """

    @pytest.fixture
    def peels(self, monkeypatch):
        calls = []

        def counted(fn):
            def wrapper(*args, **kwargs):
                calls.append(fn.__name__)
                return fn(*args, **kwargs)

            return wrapper

        shared_peel = counted(cores.peel_order)
        for module in (cores, bitmatrix, block_analysis):
            monkeypatch.setattr(module, "peel_order", shared_peel)
        monkeypatch.setattr(
            features, "graph_degeneracy", counted(features.graph_degeneracy)
        )
        return calls

    @pytest.mark.parametrize("combo", [None, Combo("bkpivot", "matrix")])
    def test_dict_path(self, peels, combo):
        blocks = blocks_for(social_network(300, seed=4), 12)
        assert len(blocks) > 5
        for block in blocks:
            peels.clear()
            analyze_block(block, combo=combo)
            assert peels == ["peel_order"]

    @pytest.mark.parametrize("combo", [None, Combo("bkpivot", "matrix")])
    def test_csr_path(self, peels, combo):
        csr = CSRGraph(social_network(300, seed=4))
        feasible, _hubs = cut_csr(csr, 12)
        descriptors = list(blocks_csr(csr, feasible, 12))
        assert len(descriptors) > 5
        for descriptor in descriptors:
            peels.clear()
            analyze_block_csr(
                descriptor, csr.indptr, csr.indices, csr.labels, combo=combo
            )
            assert peels == ["peel_order"]
