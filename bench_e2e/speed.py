"""How fast the machine runs right now, to scale timings to a reference speed.

On a shared host the speed of a core drifts by a third or more over minutes
(other tenants, frequency), and every timing of the program drifts with it.
The benchmark therefore times a fixed *calibration kernel* before each batch
of arm runs (and each batch of ``setup_s`` reads) and reports every timing
scaled to the speed at which the kernel takes :data:`REFERENCE_S`::

    scaled = median(wall times) * REFERENCE_S / median(kernel times)

``run.py`` runs this file as a server, one process per CPU, so that before
a parallel arm's batch the kernel can run on every CPU at once: it answers
each ``{"op": "kernel"}`` line on stdin with ``{"seconds": ...}``.

The kernel counts the maximal cliques of a fixed random graph with a plain
pivoting Bron–Kerbosch written here: pure-Python set and dict work like the
program's, and code outside the program, so no change to the program
changes it.  A faster program lowers ``wall`` and nothing else; a slower
machine raises ``wall`` and ``kernel`` together.  The kernel needs
only the standard library, and it runs outside the arm processes, so it
adds nothing to the arms' peak RSS or to their children's.
"""

from __future__ import annotations

import json
import random
import sys
import time

# Median kernel time on the machine the README's baseline was measured on
# (2-vCPU Xeon VM, Python 3.11.7).
REFERENCE_S = 0.030
KERNEL_CLIQUES = 3970

_ADJACENCY: dict[int, set[int]] | None = None


def _adjacency() -> dict[int, set[int]]:
    """G(120, 0.3) drawn from a fixed seed."""
    global _ADJACENCY
    if _ADJACENCY is None:
        rng = random.Random(7)
        nodes = range(120)
        _ADJACENCY = {v: set() for v in nodes}
        for u in nodes:
            for v in range(u + 1, len(nodes)):
                if rng.random() < 0.3:
                    _ADJACENCY[u].add(v)
                    _ADJACENCY[v].add(u)
    return _ADJACENCY


def _count_maximal_cliques(adj: dict[int, set[int]]) -> int:
    count = 0
    stack = [(set(adj), set())]
    while stack:
        candidates, excluded = stack.pop()
        if not candidates:
            count += not excluded
            continue
        pivot = max(candidates | excluded, key=lambda u: len(adj[u] & candidates))
        for v in list(candidates - adj[pivot]):
            stack.append((candidates & adj[v], excluded & adj[v]))
            candidates.remove(v)
            excluded.add(v)
    return count


def kernel_seconds() -> float:
    """Wall time of one run of the calibration kernel (about 30 ms)."""
    adj = _adjacency()
    start = time.perf_counter()
    count = _count_maximal_cliques(adj)
    seconds = time.perf_counter() - start
    if count != KERNEL_CLIQUES:
        raise RuntimeError(f"calibration kernel found {count} cliques, not {KERNEL_CLIQUES}")
    return seconds


def main() -> int:
    kernel_seconds()  # warm
    print(json.dumps({"ready": True}), flush=True)
    for line in sys.stdin:
        if json.loads(line)["op"] != "kernel":
            break
        print(json.dumps({"seconds": kernel_seconds()}), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
