"""The benchmark's workloads: one graph structure each, relabelled per seed.

A workload fixes a generator, its parameters and a *structure seed*, so the
graph is the same up to isomorphism on every run.  The benchmark's ``--seed``
draws a random relabelling of the nodes and a random edge order for the
triple file, so each seed hands the program a different input (different
insertion order, different block partitions and tie-breaks) with the same
clique structure.  Run-to-run spread then measures the program and the
machine, not how the generator's clique count varies from graph to graph.
A claim about graph structure should also be checked on another structure
seed (``run.py --structure-seed``).

Labels are always ints ``0..n-1``.  Sizes are fractions of the sizes the
workload was designed at, so every arm fits several times into one run.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable

from repro.graph.adjacency import Graph
from repro.graph.cores import degeneracy
from repro.graph.generators import social_network, stochastic_block_model


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    structure_seed: int
    # Benchmark size as a fraction of the design size.
    default_scale: float
    build: Callable[[float, int], Graph]
    block_size: Callable[[Graph], int]
    rule: str


def _social_md(scale: float, seed: int) -> Graph:
    return social_network(max(40, round(20000 * scale)), seed=seed)


def _social_deep(scale: float, seed: int) -> Graph:
    return social_network(
        max(60, round(8000 * scale)),
        attachment=6,
        closure_probability=0.3,
        planted_cliques=(8, 7, 6),
        seed=seed,
    )


def _dense_communities(scale: float, seed: int) -> Graph:
    communities = max(1, round(16 * scale))
    return stochastic_block_model((40,) * communities, 0.8, 0.002, seed=seed)


WORKLOADS: dict[str, Workload] = {
    workload.name: workload
    for workload in (
        Workload(
            name="social-md0.5",
            why="scale-free social graph at m/d=0.5: hundreds of small blocks, "
            "so per-block fixed cost and executor dispatch dominate",
            structure_seed=3,
            default_scale=0.06,
            build=_social_md,
            block_size=lambda graph: graph.max_degree() // 2,
            rule="m = floor(0.5 * d_max)",
        ),
        Workload(
            name="social-deep",
            why="hub-heavy social graph at m = degeneracy + 2: a deep hub "
            "recursion, the Lemma-1 merge, level barriers and the durable "
            "spill/resume layer",
            structure_seed=5,
            default_scale=0.12,
            build=_social_deep,
            block_size=lambda graph: degeneracy(graph) + 2,
            rule="m = degeneracy + 2",
        ),
        Workload(
            name="dense-communities",
            why="six dense 40-node communities: expansion, emission and the "
            "result plane dominate, and a few heavy blocks test load balance",
            structure_seed=0,
            default_scale=0.375,
            build=_dense_communities,
            block_size=lambda graph: 80,
            rule="m = 80",
        ),
    )
}


def relabelled(graph: Graph, seed: int) -> Graph:
    """``graph`` with ints ``0..n-1`` permuted and its edges shuffled by ``seed``.

    Nodes are first numbered in insertion order (this turns the block
    model's tuple labels into ints), then mapped through a random
    permutation; the returned graph inserts its edges in a random order, so
    the triple file written from it lists them in that order.
    """
    rng = random.Random(seed)
    index = {node: i for i, node in enumerate(graph.nodes())}
    permutation = list(range(len(index)))
    rng.shuffle(permutation)
    edges = [(permutation[index[u]], permutation[index[v]]) for u, v in graph.edges()]
    rng.shuffle(edges)
    result = Graph()
    for u, v in edges:
        result.add_edge(u, v)
    for node in permutation:
        result.add_node(node)  # isolated nodes, if any, come last
    return result


def instance(name: str, seed: int, scale: float | None = None,
             structure_seed: int | None = None) -> tuple[Graph, int]:
    """The workload's input graph for ``seed`` and its block size ``m``."""
    workload = WORKLOADS[name]
    graph = workload.build(
        workload.default_scale if scale is None else scale,
        workload.structure_seed if structure_seed is None else structure_seed,
    )
    return relabelled(graph, seed), workload.block_size(graph)
