"""Shared fixtures: the paper's Figure 1 graph and a mixed corpus."""

from __future__ import annotations

import pytest

from repro.graph.adjacency import Graph
from repro.graph.generators import (
    barabasi_albert,
    complete_graph,
    cycle_graph,
    erdos_renyi,
    social_network,
    star_graph,
    stochastic_block_model,
    watts_strogatz,
)

# Edges of the paper's running example (Figure 1, reconstructed from the
# text: with m = 5 the hubs are D (degree 7), S (degree 5) and E (degree
# 5); G_h is the triangle D-S-E; C_f contains {A,J,H} and {H,F,D}).
FIGURE1_EDGES = [
    ("A", "J"),
    ("A", "H"),
    ("J", "H"),
    ("H", "F"),
    ("H", "D"),
    ("F", "D"),
    ("D", "S"),
    ("D", "E"),
    ("S", "E"),
    ("D", "P"),
    ("D", "R"),
    ("D", "Z"),
    ("S", "L"),
    ("S", "U"),
    ("S", "W"),
    ("E", "G"),
    ("E", "X"),
    ("E", "Y"),
]

# Every maximal clique of the Figure 1 graph.
FIGURE1_CLIQUES = {
    frozenset({"A", "J", "H"}),
    frozenset({"H", "F", "D"}),
    frozenset({"D", "S", "E"}),
    frozenset({"D", "P"}),
    frozenset({"D", "R"}),
    frozenset({"D", "Z"}),
    frozenset({"S", "L"}),
    frozenset({"S", "U"}),
    frozenset({"S", "W"}),
    frozenset({"E", "G"}),
    frozenset({"E", "X"}),
    frozenset({"E", "Y"}),
}


@pytest.fixture
def figure1() -> Graph:
    """The paper's Figure 1 network."""
    return Graph(edges=FIGURE1_EDGES)


@pytest.fixture
def triangle() -> Graph:
    """K3 on nodes 0, 1, 2."""
    return complete_graph(3)


@pytest.fixture
def path4() -> Graph:
    """The path 0-1-2-3."""
    return Graph(edges=[(0, 1), (1, 2), (2, 3)])


def nx_cliques(graph: Graph) -> set[frozenset]:
    """Ground-truth maximal cliques via networkx (test oracle)."""
    import networkx as nx

    mirror = nx.Graph()
    mirror.add_nodes_from(graph.nodes())
    mirror.add_edges_from(graph.edges())
    return {frozenset(clique) for clique in nx.find_cliques(mirror)}


def small_corpus() -> list[tuple[str, Graph]]:
    """A deterministic mix of graph shapes for cross-validation tests."""
    return [
        ("empty", Graph()),
        ("single", Graph(nodes=[0])),
        ("two-isolated", Graph(nodes=[0, 1])),
        ("one-edge", Graph(edges=[(0, 1)])),
        ("triangle", complete_graph(3)),
        ("k5", complete_graph(5)),
        ("k7", complete_graph(7)),
        ("c5", cycle_graph(5)),
        ("c8", cycle_graph(8)),
        ("star6", star_graph(6)),
        ("path", Graph(edges=[(0, 1), (1, 2), (2, 3), (3, 4)])),
        ("two-triangles", Graph(edges=[(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)])),
        ("er-sparse", erdos_renyi(25, 0.1, seed=1)),
        ("er-medium", erdos_renyi(25, 0.3, seed=2)),
        ("er-dense", erdos_renyi(18, 0.6, seed=3)),
        ("ba", barabasi_albert(30, 3, seed=4)),
        ("ws", watts_strogatz(24, 4, 0.2, seed=5)),
        ("social", social_network(60, attachment=3, planted_cliques=(7,), seed=6)),
        ("sbm", stochastic_block_model([8, 8, 8], 0.7, 0.05, seed=7)),
    ]


CORPUS = small_corpus()
CORPUS_IDS = [name for name, _ in CORPUS]
CORPUS_GRAPHS = [graph for _, graph in CORPUS]


@pytest.fixture
def pool_submissions(monkeypatch) -> list[tuple[str, tuple]]:
    """Record every task the shared-memory executor submits to its pools.

    Each entry is ``(function name, positional arguments)`` in submit
    order; the pool itself runs unchanged.
    """
    from concurrent.futures import ProcessPoolExecutor

    import repro.distributed.executor as executor_module

    submitted: list[tuple[str, tuple]] = []

    class RecordingPool(ProcessPoolExecutor):
        def submit(self, fn, /, *args, **kwargs):
            submitted.append((fn.__name__, args))
            return super().submit(fn, *args, **kwargs)

    monkeypatch.setattr(executor_module, "ProcessPoolExecutor", RecordingPool)
    return submitted
