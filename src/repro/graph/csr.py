"""Compressed sparse row (CSR) graph snapshots.

Blocks are shipped between machines and held in worker memory; the
paper sizes blocks against available RAM, which makes a compact
immutable representation worth having.  :class:`CSRGraph` stores the
adjacency structure in two numpy arrays (``indptr``/``indices``), the
standard CSR layout, with an explicit byte-count so the distributed
layer can reason about memory footprints precisely instead of through
the coarse triple-format estimate.

:class:`SharedCSR` publishes one CSR snapshot into POSIX shared memory
(:mod:`multiprocessing.shared_memory`) so worker processes on the same
machine can attach to the adjacency arrays zero-copy instead of
receiving a pickled subgraph per block.  Lifetime rules: exactly one
process — the publisher — owns the segments and must call
:meth:`SharedCSR.unlink` (or use the instance as a context manager);
every attached process only maps the existing segments and calls
:meth:`SharedCSR.close` when done.

:func:`extract_block_bitmap` turns a CSR slice (any member-id array over
the snapshot) into the packed ``n × ceil(n/64)`` adjacency bitmap the
``bitmatrix`` kernel and the ``from_packed`` backend constructors
consume — the per-block gather of the zero-copy worker path, one
vectorized pass over all member rows, with a :class:`BitmapScratch`
cache so repeated blocks of the same size reuse one buffer instead of
allocating per block.  :func:`bitmap_neighbors` reads the bitmap back
as local neighbour lists for the block's peel and the ``lists`` backend.
"""

from __future__ import annotations

import pickle
import uuid
from dataclasses import dataclass
from multiprocessing import shared_memory
from typing import Iterator, Sequence

import numpy as np

from repro.errors import NodeNotFoundError
from repro.graph.adjacency import Graph, Node

SHARED_SEGMENT_PREFIX = "repro-csr-"

_ONE = np.uint64(1)


class BitmapScratch:
    """A per-process cache of packed-bitmap buffers, keyed by block size.

    Block analyses are strictly sequential within one worker, so a
    single buffer per distinct block size suffices: ``get(n)`` returns a
    zeroed ``n × ceil(n/64)`` ``uint64`` view that stays valid until the
    next ``get`` call with the same size.  Callers must finish with the
    bitmap (or copy it) before requesting the next same-sized one; the
    backends built via ``from_packed`` either copy out of it (lists /
    bitsets / matrix) or are discarded before the next block
    (bitmatrix), so the reuse is safe by construction.
    """

    def __init__(self) -> None:
        self._buffers: dict[int, np.ndarray] = {}

    def get(self, n: int) -> np.ndarray:
        """Return a zeroed ``n × ceil(n/64)`` bitmap buffer for reuse."""
        words = (n + 63) // 64
        buffer = self._buffers.get(n)
        if buffer is None:
            buffer = np.zeros((n, words), dtype=np.uint64)
            self._buffers[n] = buffer
        else:
            buffer[:] = 0
        return buffer

    def nbytes(self) -> int:
        """Total bytes currently held across all cached buffers."""
        return sum(int(buffer.nbytes) for buffer in self._buffers.values())


def extract_block_bitmap(
    indptr: np.ndarray,
    indices: np.ndarray,
    member_ids: np.ndarray,
    scratch: BitmapScratch | None = None,
) -> np.ndarray:
    """Pack the subgraph induced by ``member_ids`` into an adjacency bitmap.

    ``member_ids`` lists the block's members by their dense indices in
    the CSR snapshot; the result is an ``n × ceil(n/64)`` ``uint64``
    array where row ``i`` has bit ``j`` set iff members ``i`` and ``j``
    (in ``member_ids`` order) are adjacent.  All member rows are
    gathered in one vectorized pass — one flat index array over
    ``indices``, one ``searchsorted`` against the sorted member set, one
    ``bitwise_or.at`` — with no per-member Python loop, no ``Graph`` and
    no per-edge Python objects, so this is the direct CSR → kernel-input
    path of the shared-memory executor.

    With a ``scratch`` cache the bitmap is written into a reused buffer
    (see :class:`BitmapScratch` for the lifetime contract); without one
    a fresh array is allocated.
    """
    member_ids = np.asarray(member_ids, dtype=np.int64)
    n = len(member_ids)
    bitmap = scratch.get(n) if scratch is not None else np.zeros(
        (n, (n + 63) // 64), dtype=np.uint64
    )
    if n == 0:
        return bitmap
    starts = indptr[member_ids]
    counts = indptr[member_ids + 1] - starts
    rows = np.repeat(np.arange(n, dtype=np.int64), counts)
    # Entry k of member i's row sits at starts[i] + (k - its first flat slot).
    flat = np.arange(len(rows), dtype=np.int64) + np.repeat(
        starts - (np.cumsum(counts) - counts), counts
    )
    neighbors = indices[flat]
    order = np.argsort(member_ids, kind="stable")
    sorted_ids = member_ids[order]
    positions = np.minimum(np.searchsorted(sorted_ids, neighbors), n - 1)
    hits = sorted_ids[positions] == neighbors
    cols = order[positions[hits]]
    np.bitwise_or.at(
        bitmap,
        (rows[hits], cols >> 6),
        _ONE << (cols.astype(np.uint64) & np.uint64(63)),
    )
    return bitmap


def bitmap_neighbors(bitmap: np.ndarray) -> list[list[int]]:
    """The rows of a packed adjacency bitmap as sorted neighbour lists.

    Row ``i`` of the result lists, ascending, the ``j`` whose bit is set
    in row ``i`` of ``bitmap``.  Only the non-zero words are unpacked, so
    the work and memory follow the number of set words rather than
    ``n²`` — a whole-graph bitmap of a sparse network stays cheap.  The
    lists feed :func:`repro.graph.cores.peel_order` and the ``lists``
    backend, which both walk neighbours one at a time.
    """
    n = bitmap.shape[0]
    rows, words = np.nonzero(bitmap)
    bits = np.unpackbits(
        np.ascontiguousarray(bitmap[rows, words]).view(np.uint8).reshape(-1, 8),
        axis=1,
        bitorder="little",
    )
    hit, bit = np.nonzero(bits)
    flat = ((words[hit] << 6) + bit).tolist()
    bounds = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(rows[hit], minlength=n), out=bounds[1:])
    ends = bounds.tolist()
    return [flat[ends[i] : ends[i + 1]] for i in range(n)]


class CSRGraph:
    """An immutable CSR snapshot of a :class:`repro.graph.Graph`.

    Node labels are preserved; internally nodes are the dense indices
    ``0..n-1`` in the source graph's insertion order.  Neighbour lists
    are sorted, enabling binary-search edge queries in ``O(log deg)``.
    """

    def __init__(self, graph: Graph) -> None:
        self._labels: list[Node] = list(graph.nodes())
        index = {node: i for i, node in enumerate(self._labels)}
        n = len(self._labels)
        counts = np.zeros(n + 1, dtype=np.int64)
        flat: list[int] = []
        for i, node in enumerate(self._labels):
            row = sorted(index[other] for other in graph.neighbors(node))
            counts[i + 1] = len(row)
            flat.extend(row)
        self._indptr = np.cumsum(counts)
        self._indices = np.asarray(flat, dtype=np.int64)
        self._index = index

    @classmethod
    def from_arrays(
        cls,
        indptr: np.ndarray,
        indices: np.ndarray,
        labels: Sequence[Node],
    ) -> "CSRGraph":
        """Wrap pre-built CSR arrays without round-tripping through ``Graph``.

        ``indptr``/``indices`` must already be valid int64 CSR arrays with
        sorted neighbour rows (the invariant every other method relies on);
        :func:`induced_csr` and the CSR-native decomposition construct their
        level graphs this way.

        Raises
        ------
        ValueError
            If the array shapes are inconsistent with ``labels``.
        """
        indptr = np.ascontiguousarray(indptr, dtype=np.int64)
        indices = np.ascontiguousarray(indices, dtype=np.int64)
        labels = list(labels)
        if len(indptr) != len(labels) + 1:
            raise ValueError(
                f"indptr length {len(indptr)} does not match "
                f"{len(labels)} labels"
            )
        if len(indptr) and int(indptr[-1]) != len(indices):
            raise ValueError(
                f"indptr tail {int(indptr[-1])} does not match "
                f"{len(indices)} indices"
            )
        snapshot = cls.__new__(cls)
        snapshot._labels = labels
        snapshot._indptr = indptr
        snapshot._indices = indices
        snapshot._index = {node: i for i, node in enumerate(labels)}
        return snapshot

    def degree_array(self) -> np.ndarray:
        """Per-node degrees as one vectorized ``indptr`` difference."""
        return np.diff(self._indptr)

    # ------------------------------------------------------------------
    @property
    def num_nodes(self) -> int:
        """Number of nodes."""
        return len(self._labels)

    @property
    def num_edges(self) -> int:
        """Number of undirected edges."""
        return int(self._indptr[-1]) // 2

    @property
    def indptr(self) -> np.ndarray:
        """The CSR row-pointer array (length ``num_nodes + 1``)."""
        return self._indptr

    @property
    def indices(self) -> np.ndarray:
        """The CSR column-index array (length ``2 * num_edges``)."""
        return self._indices

    @property
    def labels(self) -> list[Node]:
        """Original node labels in dense-index order."""
        return self._labels

    def label(self, index: int) -> Node:
        """Original label of dense index ``index``."""
        return self._labels[index]

    def index_of(self, node: Node) -> int:
        """Dense index of ``node``.

        Raises
        ------
        NodeNotFoundError
            If ``node`` is not in the snapshot.
        """
        try:
            return self._index[node]
        except KeyError:
            raise NodeNotFoundError(node) from None

    def degree(self, node: Node) -> int:
        """Degree of ``node``."""
        i = self.index_of(node)
        return int(self._indptr[i + 1] - self._indptr[i])

    def neighbor_indices(self, index: int) -> Sequence[int]:
        """Sorted dense neighbour indices of dense index ``index``."""
        return self._indices[self._indptr[index] : self._indptr[index + 1]]

    def neighbors(self, node: Node) -> Iterator[Node]:
        """Iterate over the neighbours of ``node`` in label form."""
        for other in self.neighbor_indices(self.index_of(node)):
            yield self._labels[int(other)]

    def has_edge(self, u: Node, v: Node) -> bool:
        """Edge query via binary search on the sorted neighbour row."""
        i, j = self.index_of(u), self.index_of(v)
        row = self.neighbor_indices(i)
        position = int(np.searchsorted(row, j))
        return position < len(row) and int(row[position]) == j

    def memory_bytes(self) -> int:
        """Bytes held by the two CSR arrays (labels excluded)."""
        return int(self._indptr.nbytes + self._indices.nbytes)

    def to_graph(self) -> Graph:
        """Expand back to a mutable :class:`Graph` (exact round-trip)."""
        graph = Graph(nodes=self._labels)
        for i, node in enumerate(self._labels):
            for other in self.neighbor_indices(i):
                if int(other) > i:
                    graph.add_edge(node, self._labels[int(other)])
        return graph

    def __repr__(self) -> str:
        return (
            f"CSRGraph(num_nodes={self.num_nodes}, num_edges={self.num_edges}, "
            f"memory_bytes={self.memory_bytes()})"
        )


def induced_csr(csr: CSRGraph, keep_ids: np.ndarray) -> CSRGraph:
    """Materialize the subgraph induced by ``keep_ids`` as a new CSR.

    ``keep_ids`` are dense indices into ``csr`` and must be strictly
    increasing (the order :func:`repro.core.feasibility.cut_csr` emits),
    which keeps the filtered neighbour rows sorted without a re-sort.
    The whole extraction is flat numpy — one gather of the kept rows,
    one membership mask, one ``bincount`` — so the hub recursion never
    constructs a dict ``Graph`` between levels.

    Raises
    ------
    ValueError
        If ``keep_ids`` is not strictly increasing or out of range.
    """
    keep_ids = np.asarray(keep_ids, dtype=np.int64)
    n = csr.num_nodes
    if len(keep_ids):
        if np.any(np.diff(keep_ids) <= 0):
            raise ValueError("keep_ids must be strictly increasing")
        if int(keep_ids[0]) < 0 or int(keep_ids[-1]) >= n:
            raise ValueError("keep_ids out of range for this snapshot")
    indptr, indices = csr.indptr, csr.indices
    counts = indptr[keep_ids + 1] - indptr[keep_ids]
    total = int(counts.sum())
    # Gather every neighbour entry of the kept rows in one flat array.
    row_starts = np.cumsum(counts) - counts
    flat = (
        np.arange(total, dtype=np.int64)
        - np.repeat(row_starts, counts)
        + np.repeat(indptr[keep_ids], counts)
    )
    neighbors = indices[flat]
    keep_mask = np.zeros(n, dtype=bool)
    keep_mask[keep_ids] = True
    new_id = np.full(n, -1, dtype=np.int64)
    new_id[keep_ids] = np.arange(len(keep_ids), dtype=np.int64)
    inside = keep_mask[neighbors]
    source_row = np.repeat(np.arange(len(keep_ids), dtype=np.int64), counts)
    new_indices = new_id[neighbors[inside]]
    new_counts = np.bincount(source_row[inside], minlength=len(keep_ids))
    new_indptr = np.zeros(len(keep_ids) + 1, dtype=np.int64)
    np.cumsum(new_counts, out=new_indptr[1:])
    labels = csr.labels
    return CSRGraph.from_arrays(
        new_indptr, new_indices, [labels[int(i)] for i in keep_ids]
    )


@dataclass(frozen=True)
class SharedCSRHandle:
    """Everything a worker needs to attach to a published snapshot.

    The handle is tiny and picklable; it travels to workers once (via a
    pool initializer), after which block dispatch carries only node-id
    arrays.
    """

    indptr_name: str
    indices_name: str
    labels_name: str
    num_nodes: int
    num_indices: int
    labels_bytes: int


def _open_existing(name: str) -> shared_memory.SharedMemory:
    """Attach to an existing segment by name.

    Pool workers inherit the publisher's resource tracker (its fd is
    passed to children under both fork and spawn), and the tracker's
    per-type cache is a set, so the worker-side registration collapses
    into the publisher's — the segment is unregistered exactly once,
    when the publisher unlinks it.  Attaching from an *unrelated*
    process would start a second tracker that unlinks the segment at
    its own exit; only attach from processes spawned by the publisher.
    """
    return shared_memory.SharedMemory(name=name)


class SharedCSR:
    """A CSR snapshot living in named POSIX shared-memory segments.

    Three segments hold the row pointers, the column indices, and the
    pickled label list.  :meth:`publish` creates them (the calling
    process becomes the owner); :meth:`attach` maps existing segments
    zero-copy in a worker.  The numpy views returned by :attr:`indptr`
    and :attr:`indices` are read-only and borrow the segment buffers,
    so the instance must stay alive while they are in use.
    """

    def __init__(
        self,
        handle: SharedCSRHandle,
        segments: tuple[shared_memory.SharedMemory, ...],
        owner: bool,
    ) -> None:
        self.handle = handle
        self._segments = segments
        self._owner = owner
        indptr_shm, indices_shm, labels_shm = segments
        self._indptr = np.ndarray(
            (handle.num_nodes + 1,), dtype=np.int64, buffer=indptr_shm.buf
        )
        self._indptr.flags.writeable = False
        self._indices = np.ndarray(
            (handle.num_indices,), dtype=np.int64, buffer=indices_shm.buf
        )
        self._indices.flags.writeable = False
        self._labels_shm = labels_shm
        self._labels: list[Node] | None = None

    # ------------------------------------------------------------------
    @classmethod
    def publish(cls, csr: CSRGraph) -> "SharedCSR":
        """Copy ``csr`` into fresh shared-memory segments and own them."""
        token = uuid.uuid4().hex[:12]
        labels_blob = pickle.dumps(csr.labels, protocol=pickle.HIGHEST_PROTOCOL)
        names = tuple(
            f"{SHARED_SEGMENT_PREFIX}{token}-{part}"
            for part in ("indptr", "indices", "labels")
        )
        sizes = (csr.indptr.nbytes, max(1, csr.indices.nbytes), len(labels_blob))
        segments: list[shared_memory.SharedMemory] = []
        try:
            for name, size in zip(names, sizes):
                segments.append(
                    shared_memory.SharedMemory(name=name, create=True, size=size)
                )
            handle = SharedCSRHandle(
                indptr_name=names[0],
                indices_name=names[1],
                labels_name=names[2],
                num_nodes=csr.num_nodes,
                num_indices=len(csr.indices),
                labels_bytes=len(labels_blob),
            )
            shared = cls(handle, tuple(segments), owner=True)
            np.copyto(
                np.ndarray(csr.indptr.shape, np.int64, buffer=segments[0].buf),
                csr.indptr,
            )
            if len(csr.indices):
                np.copyto(
                    np.ndarray(csr.indices.shape, np.int64, buffer=segments[1].buf),
                    csr.indices,
                )
            segments[2].buf[: len(labels_blob)] = labels_blob
            return shared
        except Exception:
            for segment in segments:
                segment.close()
                try:
                    segment.unlink()
                except FileNotFoundError:  # pragma: no cover - already gone
                    pass
            raise

    @classmethod
    def attach(cls, handle: SharedCSRHandle) -> "SharedCSR":
        """Map the published segments in this process (non-owning)."""
        segments: list[shared_memory.SharedMemory] = []
        try:
            for name in (handle.indptr_name, handle.indices_name, handle.labels_name):
                segments.append(_open_existing(name))
            return cls(handle, tuple(segments), owner=False)
        except Exception:
            for segment in segments:
                segment.close()
            raise

    # ------------------------------------------------------------------
    @property
    def indptr(self) -> np.ndarray:
        """Read-only row-pointer view into shared memory."""
        return self._indptr

    @property
    def indices(self) -> np.ndarray:
        """Read-only column-index view into shared memory."""
        return self._indices

    @property
    def labels(self) -> list[Node]:
        """The label list (unpickled once per process, then cached)."""
        if self._labels is None:
            blob = bytes(self._labels_shm.buf[: self.handle.labels_bytes])
            self._labels = pickle.loads(blob)
        return self._labels

    def neighbor_indices(self, index: int) -> np.ndarray:
        """Sorted dense neighbour indices of dense index ``index``."""
        return self._indices[self._indptr[index] : self._indptr[index + 1]]

    def nbytes(self) -> int:
        """Total bytes published across the three segments."""
        return int(self._indptr.nbytes + self._indices.nbytes) + int(
            self.handle.labels_bytes
        )

    # -- lifetime ----------------------------------------------------------
    def close(self) -> None:
        """Unmap the segments from this process (safe to call twice)."""
        self._indptr = None  # type: ignore[assignment] - drop buffer views first
        self._indices = None  # type: ignore[assignment]
        for segment in self._segments:
            try:
                segment.close()
            except BufferError:  # pragma: no cover - a view still alive
                pass

    def unlink(self) -> None:
        """Destroy the segments; only the publisher may call this."""
        if not self._owner:
            return
        for segment in self._segments:
            try:
                segment.unlink()
            except FileNotFoundError:  # pragma: no cover - already reaped
                pass

    def __enter__(self) -> "SharedCSR":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()
        self.unlink()

    def __repr__(self) -> str:
        role = "owner" if self._owner else "attached"
        return (
            f"SharedCSR(num_nodes={self.handle.num_nodes}, "
            f"num_indices={self.handle.num_indices}, {role})"
        )
