"""Graph-representation backends shared by all MCE algorithms.

Section 4 of the paper evaluates each clique algorithm on three supporting
data structures — adjacency **matrices**, **bitsets**, and adjacency
**lists** — and lets a decision tree pick the (algorithm × structure)
combination per block.  To avoid implementing every algorithm three times,
the algorithms in :mod:`repro.mce` are written once against the small
:class:`Backend` interface below, and each data structure provides the set
operations in its native representation:

* :class:`SetBackend` ("lists") — node sets are ``frozenset`` of indices;
* :class:`BitsetBackend` ("bitsets") — node sets are Python integers used
  as bitmasks, so intersection is a single ``&``;
* :class:`MatrixBackend` ("matrix") — node sets are numpy boolean masks
  over a dense adjacency matrix;
* :class:`repro.mce.bitmatrix.BitMatrixBackend` ("bitmatrix") — node sets
  are packed ``uint64`` word vectors over an ``n × ceil(n/64)`` adjacency
  bitmap with word-parallel set algebra and vectorized pivot scoring.

All backends index nodes ``0..n-1`` internally and translate back to the
original labels when cliques are reported.

Besides construction from a :class:`~repro.graph.adjacency.Graph`, every
backend can be materialized from a packed adjacency bitmap via
:func:`backend_from_bitmap` — the zero-copy worker path that skips the
``Graph`` round-trip entirely (see :mod:`repro.graph.csr`).
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Any, Iterable, Iterator

import numpy as np

from repro.errors import AlgorithmNotFoundError
from repro.graph.adjacency import Graph, Node
from repro.graph.csr import bitmap_neighbors

# A backend-native node set; the concrete type depends on the backend.
NodeSet = Any

BACKEND_NAMES: tuple[str, ...] = ("lists", "bitsets", "matrix", "bitmatrix")


class Backend(ABC):
    """Set algebra over one graph in a backend-native representation.

    The interface is deliberately immutable-style: every operation returns
    a new native set, so recursive MCE code can hold references across
    recursive calls without defensive copying.
    """

    def __init__(self, graph: Graph) -> None:
        self._labels: list[Node] = list(graph.nodes())
        self._index: dict[Node, int] = {
            node: i for i, node in enumerate(self._labels)
        }
        self.n = len(self._labels)

    @classmethod
    def from_packed(cls, labels: list[Node], bitmap: np.ndarray) -> "Backend":
        """Materialize a backend from a packed adjacency bitmap.

        ``bitmap`` is an ``n × ceil(n/64)`` ``uint64`` array whose row
        ``i`` has bit ``j`` set iff nodes ``i`` and ``j`` are adjacent
        (see :func:`repro.graph.csr.extract_block_bitmap`).  This skips
        the ``Graph`` constructor entirely, which is what lets
        shared-memory workers build their per-block backend straight
        from the attached CSR segment.
        """
        backend = cls._with_labels(labels)
        backend._load_packed(bitmap)
        return backend

    @classmethod
    def _with_labels(cls, labels: list[Node]) -> "Backend":
        """An instance holding only the label ↔ index maps, to be filled in."""
        backend = cls.__new__(cls)
        backend._labels = list(labels)
        backend._index = {node: i for i, node in enumerate(backend._labels)}
        backend.n = len(backend._labels)
        return backend

    @abstractmethod
    def _load_packed(self, bitmap: np.ndarray) -> None:
        """Populate the adjacency structure from a packed bitmap."""

    # -- label translation ------------------------------------------------
    def label(self, index: int) -> Node:
        """Return the original node label at internal ``index``."""
        return self._labels[index]

    def index_of(self, node: Node) -> int:
        """Return the internal index of ``node``."""
        return self._index[node]

    def to_labels(self, members: NodeSet) -> frozenset[Node]:
        """Translate a native set back to original node labels."""
        return frozenset(self._labels[i] for i in self.iterate(members))

    # -- set construction --------------------------------------------------
    @abstractmethod
    def empty(self) -> NodeSet:
        """Return the empty native set."""

    @abstractmethod
    def full(self) -> NodeSet:
        """Return the native set of all node indices."""

    @abstractmethod
    def make(self, indices: Iterable[int]) -> NodeSet:
        """Build a native set from internal indices."""

    def make_from_labels(self, nodes: Iterable[Node]) -> NodeSet:
        """Build a native set from original node labels."""
        return self.make(self._index[node] for node in nodes)

    # -- set algebra ---------------------------------------------------------
    @abstractmethod
    def intersect_neighbors(self, members: NodeSet, index: int) -> NodeSet:
        """Return ``members ∩ N(index)``."""

    @abstractmethod
    def minus_neighbors(self, members: NodeSet, index: int) -> NodeSet:
        """Return ``members − N(index)`` (``index`` itself is kept)."""

    @abstractmethod
    def remove(self, members: NodeSet, index: int) -> NodeSet:
        """Return ``members − {index}``."""

    @abstractmethod
    def add(self, members: NodeSet, index: int) -> NodeSet:
        """Return ``members ∪ {index}``."""

    @abstractmethod
    def count(self, members: NodeSet) -> int:
        """Return ``|members|``."""

    @abstractmethod
    def is_empty(self, members: NodeSet) -> bool:
        """Return whether ``members`` is empty."""

    @abstractmethod
    def iterate(self, members: NodeSet) -> Iterator[int]:
        """Iterate over the indices in ``members`` in increasing order."""

    @abstractmethod
    def common_count(self, index: int, members: NodeSet) -> int:
        """Return ``|N(index) ∩ members|`` (pivot scoring)."""

    @abstractmethod
    def degree(self, index: int) -> int:
        """Return the degree of ``index`` in the backend's graph."""

    def contains(self, members: NodeSet, index: int) -> bool:
        """Return whether ``index`` is in ``members``."""
        return any(i == index for i in self.iterate(members))


def _unpack_bitmap(bitmap: np.ndarray, n: int) -> np.ndarray:
    """Expand an ``n × ceil(n/64)`` packed bitmap to an ``n × n`` bool matrix."""
    if n == 0:
        return np.zeros((0, 0), dtype=bool)
    bitmap = np.ascontiguousarray(bitmap, dtype=np.uint64)
    bits = np.unpackbits(bitmap.view(np.uint8), bitorder="little")
    return bits.reshape(n, -1)[:, :n].astype(bool)


class SetBackend(Backend):
    """Adjacency-list backend: native sets are ``frozenset[int]``."""

    name = "lists"

    def __init__(self, graph: Graph) -> None:
        super().__init__(graph)
        self._neighbors: list[frozenset[int]] = [
            frozenset(self._index[v] for v in graph.neighbors(node))
            for node in self._labels
        ]

    @classmethod
    def from_neighbors(
        cls, labels: list[Node], neighbors: list[list[int]]
    ) -> "SetBackend":
        """Materialize from index neighbour lists (``neighbors[i]`` ∋ ``j`` iff ``i ~ j``).

        The lists form :func:`~repro.graph.csr.bitmap_neighbors` returns
        for a packed bitmap, so a caller that already walked the bitmap
        (block analysis, for its peel) builds this backend without
        touching the bitmap again.
        """
        backend = cls._with_labels(labels)
        backend._neighbors = [frozenset(row) for row in neighbors]
        return backend

    def _load_packed(self, bitmap: np.ndarray) -> None:
        self._neighbors = [frozenset(row) for row in bitmap_neighbors(bitmap)]

    def empty(self) -> frozenset[int]:
        return frozenset()

    def full(self) -> frozenset[int]:
        return frozenset(range(self.n))

    def make(self, indices: Iterable[int]) -> frozenset[int]:
        return frozenset(indices)

    def intersect_neighbors(self, members: frozenset[int], index: int) -> frozenset[int]:
        return members & self._neighbors[index]

    def minus_neighbors(self, members: frozenset[int], index: int) -> frozenset[int]:
        return members - self._neighbors[index]

    def remove(self, members: frozenset[int], index: int) -> frozenset[int]:
        return members - {index}

    def add(self, members: frozenset[int], index: int) -> frozenset[int]:
        return members | {index}

    def count(self, members: frozenset[int]) -> int:
        return len(members)

    def is_empty(self, members: frozenset[int]) -> bool:
        return not members

    def iterate(self, members: frozenset[int]) -> Iterator[int]:
        return iter(sorted(members))

    def common_count(self, index: int, members: frozenset[int]) -> int:
        return len(self._neighbors[index] & members)

    def degree(self, index: int) -> int:
        return len(self._neighbors[index])

    def contains(self, members: frozenset[int], index: int) -> bool:
        return index in members


class BitsetBackend(Backend):
    """Bitset backend: native sets are Python ints used as bitmasks."""

    name = "bitsets"

    def __init__(self, graph: Graph) -> None:
        super().__init__(graph)
        masks = [0] * self.n
        for node in self._labels:
            i = self._index[node]
            mask = 0
            for other in graph.neighbors(node):
                mask |= 1 << self._index[other]
            masks[i] = mask
        self._masks = masks
        self._full = (1 << self.n) - 1 if self.n else 0

    def _load_packed(self, bitmap: np.ndarray) -> None:
        words = np.ascontiguousarray(bitmap, dtype="<u8")
        self._masks = [
            int.from_bytes(words[i].tobytes(), "little") for i in range(self.n)
        ]
        self._full = (1 << self.n) - 1 if self.n else 0

    def empty(self) -> int:
        return 0

    def full(self) -> int:
        return self._full

    def make(self, indices: Iterable[int]) -> int:
        mask = 0
        for index in indices:
            mask |= 1 << index
        return mask

    def intersect_neighbors(self, members: int, index: int) -> int:
        return members & self._masks[index]

    def minus_neighbors(self, members: int, index: int) -> int:
        return members & ~self._masks[index]

    def remove(self, members: int, index: int) -> int:
        return members & ~(1 << index)

    def add(self, members: int, index: int) -> int:
        return members | (1 << index)

    def count(self, members: int) -> int:
        return members.bit_count()

    def is_empty(self, members: int) -> bool:
        return members == 0

    def iterate(self, members: int) -> Iterator[int]:
        while members:
            low = members & -members
            yield low.bit_length() - 1
            members ^= low

    def common_count(self, index: int, members: int) -> int:
        return (self._masks[index] & members).bit_count()

    def degree(self, index: int) -> int:
        return self._masks[index].bit_count()

    def contains(self, members: int, index: int) -> bool:
        return bool(members >> index & 1)


class MatrixBackend(Backend):
    """Dense-matrix backend: native sets are numpy boolean masks."""

    name = "matrix"

    def __init__(self, graph: Graph) -> None:
        super().__init__(graph)
        matrix = np.zeros((self.n, self.n), dtype=bool)
        for u, v in graph.edges():
            i, j = self._index[u], self._index[v]
            matrix[i, j] = True
            matrix[j, i] = True
        self._matrix = matrix
        self._degrees = matrix.sum(axis=1) if self.n else np.zeros(0, dtype=int)

    def _load_packed(self, bitmap: np.ndarray) -> None:
        matrix = _unpack_bitmap(bitmap, self.n)
        self._matrix = matrix
        self._degrees = matrix.sum(axis=1) if self.n else np.zeros(0, dtype=int)

    def empty(self) -> np.ndarray:
        return np.zeros(self.n, dtype=bool)

    def full(self) -> np.ndarray:
        return np.ones(self.n, dtype=bool)

    def make(self, indices: Iterable[int]) -> np.ndarray:
        mask = np.zeros(self.n, dtype=bool)
        for index in indices:
            mask[index] = True
        return mask

    def intersect_neighbors(self, members: np.ndarray, index: int) -> np.ndarray:
        return members & self._matrix[index]

    def minus_neighbors(self, members: np.ndarray, index: int) -> np.ndarray:
        return members & ~self._matrix[index]

    def remove(self, members: np.ndarray, index: int) -> np.ndarray:
        out = members.copy()
        out[index] = False
        return out

    def add(self, members: np.ndarray, index: int) -> np.ndarray:
        out = members.copy()
        out[index] = True
        return out

    def count(self, members: np.ndarray) -> int:
        return int(np.count_nonzero(members))

    def is_empty(self, members: np.ndarray) -> bool:
        return not members.any()

    def iterate(self, members: np.ndarray) -> Iterator[int]:
        return iter(np.flatnonzero(members).tolist())

    def common_count(self, index: int, members: np.ndarray) -> int:
        return int(np.count_nonzero(self._matrix[index] & members))

    def degree(self, index: int) -> int:
        return int(self._degrees[index])

    def contains(self, members: np.ndarray, index: int) -> bool:
        return bool(members[index])


_BACKENDS: dict[str, type[Backend]] = {
    SetBackend.name: SetBackend,
    BitsetBackend.name: BitsetBackend,
    MatrixBackend.name: MatrixBackend,
}


def register_backend(backend_class: type[Backend]) -> None:
    """Add a backend class to the registry under its ``name`` attribute."""
    _BACKENDS[backend_class.name] = backend_class


def _resolve(name: str) -> type[Backend]:
    """Look up a backend class, importing late-registered modules once."""
    if name not in _BACKENDS and name in BACKEND_NAMES:
        # BitMatrixBackend lives in its own module (it needs numpy bit
        # tricks this module doesn't); importing it registers it.
        import repro.mce.bitmatrix  # noqa: F401  (registration side effect)
    try:
        return _BACKENDS[name]
    except KeyError:
        raise AlgorithmNotFoundError(name, BACKEND_NAMES) from None


def build_backend(graph: Graph, name: str) -> Backend:
    """Construct the backend called ``name`` over ``graph``.

    Known names are listed in :data:`BACKEND_NAMES`
    ("lists"/"bitsets"/"matrix"/"bitmatrix").

    Raises
    ------
    AlgorithmNotFoundError
        If ``name`` is not a known backend.
    """
    return _resolve(name)(graph)


def backend_from_bitmap(
    name: str,
    labels: list[Node],
    bitmap: np.ndarray,
    neighbors: list[list[int]] | None = None,
) -> Backend:
    """Construct the backend called ``name`` from a packed adjacency bitmap.

    The bitmap-direct twin of :func:`build_backend`: ``labels`` supplies
    the internal-index → label translation and ``bitmap`` the adjacency
    (row ``i``, bit ``j`` set iff ``i ~ j``).  Used by shared-memory
    workers to materialize per-block backends from the attached CSR
    segment without reconstructing a :class:`~repro.graph.adjacency.Graph`.
    ``neighbors`` — the bitmap's rows as index lists, when the caller
    already has them — builds the ``lists`` backend straight from those
    lists; the other backends read the bitmap.

    Raises
    ------
    AlgorithmNotFoundError
        If ``name`` is not a known backend.
    """
    backend_class = _resolve(name)
    if neighbors is not None and issubclass(backend_class, SetBackend):
        return backend_class.from_neighbors(labels, neighbors)
    return backend_class.from_packed(labels, bitmap)
