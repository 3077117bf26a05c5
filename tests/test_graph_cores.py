"""Unit tests for core decomposition, degeneracy, and peeling."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graph.adjacency import Graph
from repro.graph.cores import (
    core_numbers,
    degeneracy,
    degeneracy_ordering,
    k_core,
    peel_iterations,
    peel_order,
)
from repro.graph.generators import (
    complete_graph,
    cycle_graph,
    erdos_renyi,
    h_n,
    star_graph,
)


class TestCoreNumbers:
    def test_empty(self):
        assert core_numbers(Graph()) == {}

    def test_isolated(self):
        assert core_numbers(Graph(nodes=[1, 2])) == {1: 0, 2: 0}

    def test_complete(self):
        numbers = core_numbers(complete_graph(5))
        assert all(value == 4 for value in numbers.values())

    def test_cycle(self):
        numbers = core_numbers(cycle_graph(6))
        assert all(value == 2 for value in numbers.values())

    def test_star(self):
        numbers = core_numbers(star_graph(5))
        assert numbers[0] == 1
        assert all(numbers[leaf] == 1 for leaf in range(1, 6))

    def test_path(self):
        numbers = core_numbers(Graph(edges=[(0, 1), (1, 2), (2, 3)]))
        assert set(numbers.values()) == {1}

    def test_triangle_with_pendant(self):
        g = Graph(edges=[(0, 1), (1, 2), (0, 2), (2, 3)])
        numbers = core_numbers(g)
        assert numbers[3] == 1
        assert numbers[0] == numbers[1] == numbers[2] == 2

    def test_matches_networkx(self):
        import networkx as nx

        g = erdos_renyi(60, 0.15, seed=11)
        mirror = nx.Graph()
        mirror.add_nodes_from(g.nodes())
        mirror.add_edges_from(g.edges())
        assert core_numbers(g) == nx.core_number(mirror)


class TestDegeneracy:
    def test_empty(self):
        assert degeneracy(Graph()) == 0

    def test_complete(self):
        assert degeneracy(complete_graph(7)) == 6

    def test_cycle(self):
        assert degeneracy(cycle_graph(10)) == 2

    def test_tree(self):
        g = Graph(edges=[(0, 1), (0, 2), (1, 3), (1, 4)])
        assert degeneracy(g) == 1

    def test_h_n_bounded_by_m(self):
        # Theorem 1's pathological graph is built to have degeneracy <= m.
        for m in (2, 3, 5):
            assert degeneracy(h_n(25, m)) <= m


class TestDegeneracyOrdering:
    def test_is_permutation(self):
        g = erdos_renyi(30, 0.2, seed=3)
        order = degeneracy_ordering(g)
        assert sorted(order, key=str) == sorted(g.nodes(), key=str)

    def test_later_neighbors_bounded(self):
        # Defining property: each node has at most `degeneracy` neighbours
        # appearing later in the ordering.
        g = erdos_renyi(40, 0.2, seed=9)
        d = degeneracy(g)
        order = degeneracy_ordering(g)
        position = {node: i for i, node in enumerate(order)}
        for node in order:
            later = sum(
                1 for other in g.neighbors(node) if position[other] > position[node]
            )
            assert later <= d

    def test_empty(self):
        assert degeneracy_ordering(Graph()) == []

    def test_deterministic(self):
        g = erdos_renyi(30, 0.25, seed=4)
        assert degeneracy_ordering(g) == degeneracy_ordering(g)


class TestKCore:
    def test_zero_core_is_everything(self):
        g = Graph(nodes=[1, 2, 3])
        assert k_core(g, 0) == frozenset({1, 2, 3})

    def test_complete_graph_cores(self):
        g = complete_graph(5)
        assert k_core(g, 4) == frozenset(range(5))
        assert k_core(g, 5) == frozenset()

    def test_pendant_excluded(self):
        g = Graph(edges=[(0, 1), (1, 2), (0, 2), (2, 3)])
        assert k_core(g, 2) == frozenset({0, 1, 2})

    def test_empty_above_degeneracy(self):
        g = erdos_renyi(30, 0.2, seed=5)
        assert k_core(g, degeneracy(g) + 1) == frozenset()

    def test_nonempty_at_degeneracy(self):
        g = erdos_renyi(30, 0.2, seed=5)
        assert k_core(g, degeneracy(g)) != frozenset()


class TestPeelIterations:
    def test_empty(self):
        assert peel_iterations(Graph(), 3) == 0

    def test_one_round_when_all_low(self):
        assert peel_iterations(cycle_graph(6), 3) == 1

    def test_stuck_on_core(self):
        # threshold <= degeneracy: nothing peels on the core; returns the
        # rounds until the fixpoint.
        g = complete_graph(5)
        assert peel_iterations(g, 3) == 0

    def test_h_n_linear_rounds(self):
        # Theorem 1 statement 2: H_n requires Omega(n) rounds.
        m = 4
        for n in (10, 20, 30):
            g = h_n(n, m)
            rounds = peel_iterations(g, m + 1)
            assert rounds >= n - (m + 2)

    def test_star_two_rounds(self):
        # Leaves go first, then the hub.
        assert peel_iterations(star_graph(10), 2) == 2


def _reference_peel(neighbors: list[list[int]]) -> list[int]:
    """Quadratic peel: the alive node of least residual degree, least index first."""
    degrees = [len(row) for row in neighbors]
    alive = set(range(len(neighbors)))
    order = []
    while alive:
        v = min(alive, key=lambda u: (degrees[u], u))
        alive.remove(v)
        order.append(v)
        for u in neighbors[v]:
            if u in alive:
                degrees[u] -= 1
    return order


class TestPeelOrder:
    """The one peel block analysis runs, against a naive reference."""

    @given(
        n=st.integers(min_value=0, max_value=24),
        data=st.data(),
    )
    @settings(max_examples=150, deadline=None)
    def test_matches_reference_and_graph_degeneracy(self, n, data):
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
        edges = data.draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
        graph = Graph(nodes=range(n), edges=edges)
        neighbors = [sorted(graph.neighbors(v)) for v in range(n)]
        order, peeled = peel_order(neighbors)
        assert order == _reference_peel(neighbors)
        assert peeled == degeneracy(graph)

    def test_ties_break_toward_smallest_index(self):
        # A 4-cycle: every degree is 2, so the peel takes 0 first, leaving
        # 1 and 3 at degree 1 (1 wins), then 2 and 3 at degree 1 (2 wins).
        neighbors = [[1, 3], [0, 2], [1, 3], [0, 2]]
        assert peel_order(neighbors) == ([0, 1, 2, 3], 2)

    def test_empty(self):
        assert peel_order([]) == ([], 0)
