"""Packed-bitmap graph backend and word-parallel MCE kernel.

The fourth entry of the representation portfolio (alongside lists,
bitsets and matrix): each block's adjacency is an ``n × ceil(n/64)``
numpy ``uint64`` bitmap, one packed row per node, so every set
operation the Bron–Kerbosch family performs — intersection, difference,
membership, cardinality — is a handful of word-parallel instructions
instead of a Python-object traversal.  Three things distinguish it from
:class:`~repro.mce.backends.BitsetBackend` (arbitrary-precision ints):

* **vectorized pivot selection** — Tomita's ``max |N(u) ∩ P|`` score is
  one fancy-indexed gather + ``bit_count`` + ``argmax`` over all of
  ``P ∪ X`` rather than a Python loop calling ``common_count`` per
  candidate (the dominant cost on dense blocks);
* **an explicit-stack anchored enumerator** (:func:`expand_stack`) so
  deep blocks neither hit Python's recursion limit nor pay per-frame
  call/generator overhead;
* **CSR-direct construction** — a worker can materialize the bitmap
  straight from shared-memory CSR rows
  (:func:`repro.graph.csr.extract_block_bitmap`) with no intermediate
  ``Graph`` or dict-of-sets rebuild.

The representation is word-endianness-aware only through
``numpy.unpackbits(..., bitorder="little")`` on the ``uint8`` view of
the native ``uint64`` words, which matches bit ``i`` of the mask to
node ``i`` on little-endian hosts (every platform this project targets).
"""

from __future__ import annotations

from typing import Iterable, Iterator

import numpy as np

from repro.graph.cores import peel_order
from repro.graph.csr import bitmap_neighbors
from repro.mce.backends import Backend, register_backend
from repro.mce.recursion import (
    max_degree_pivot,
    no_pivot,
    tomita_pivot,
    x_pivot,
)

WORD_BITS = 64

_ONE = np.uint64(1)
_WORD_MASK = np.uint64(63)
_FULL_WORD = np.uint64(0xFFFFFFFFFFFFFFFF)

# The batched kernel must know which *rule* a pivot function encodes to
# vectorize it per state; unrecognized (e.g. instrumented) rules fall
# back to the per-frame kernels, which call the function as given.
_PIVOT_KINDS = {
    tomita_pivot: "tomita",
    max_degree_pivot: "degree",
    x_pivot: "x",
    no_pivot: "none",
}

def pivot_kind_of(pivot_rule) -> "str | None":
    """The vectorizable pivot *kind* of a rule, or ``None`` if unknown.

    The batched kernels take a kind string rather than a callable;
    callers (e.g. the bucket dispatcher) use this to decide whether a
    combo's pivot rule can run on the vectorized path at all.
    """
    return _PIVOT_KINDS.get(pivot_rule)


# numpy >= 2.0 exposes a native popcount ufunc; fall back to a byte
# lookup table (vectorized either way) on older builds.
_HAS_BITWISE_COUNT = hasattr(np, "bitwise_count")
_BYTE_POPCOUNT = np.array([bin(i).count("1") for i in range(256)], dtype=np.uint8)


def words_for(n: int) -> int:
    """Number of 64-bit words needed to hold ``n`` bits."""
    return (n + WORD_BITS - 1) // WORD_BITS


def popcount(words: np.ndarray) -> int:
    """Total number of set bits across a flat or 2-D word array."""
    if _HAS_BITWISE_COUNT:
        return int(np.bitwise_count(words).sum())
    return int(_BYTE_POPCOUNT[words.view(np.uint8)].sum())


def popcount_rows(matrix: np.ndarray) -> np.ndarray:
    """Per-row set-bit counts of a 2-D word array (``int64`` vector)."""
    if matrix.size == 0:
        return np.zeros(matrix.shape[0], dtype=np.int64)
    if _HAS_BITWISE_COUNT:
        return np.bitwise_count(matrix).sum(axis=1, dtype=np.int64)
    bytes_view = matrix.view(np.uint8).reshape(matrix.shape[0], -1)
    return _BYTE_POPCOUNT[bytes_view].sum(axis=1, dtype=np.int64)


def bits_to_indices(words: np.ndarray) -> np.ndarray:
    """Indices of the set bits of a packed word vector, increasing."""
    if not words.any():
        return np.empty(0, dtype=np.int64)
    unpacked = np.unpackbits(words.view(np.uint8), bitorder="little")
    return np.flatnonzero(unpacked).astype(np.int64)


def pack_indices(indices: Iterable[int], words: int) -> np.ndarray:
    """Build a packed word vector with the given bit indices set."""
    mask = np.zeros(words, dtype=np.uint64)
    idx = np.fromiter(indices, dtype=np.int64)
    if len(idx):
        np.bitwise_or.at(mask, idx >> 6, _ONE << (idx.astype(np.uint64) & _WORD_MASK))
    return mask


def below_table(n: int, words: int) -> np.ndarray:
    """``(n, words)`` table where row ``v`` has exactly bits ``0..v-1`` set.

    The batched kernels gather a row per frontier vertex to compute the
    earlier-sibling set the recursive Bron–Kerbosch form moves from
    ``P`` to ``X``.
    """
    below = np.zeros((n, words), dtype=np.uint64)
    if n:
        ids = np.arange(n, dtype=np.int64)
        high = ids >> 6
        word_ids = np.arange(words, dtype=np.int64)
        below[word_ids[None, :] < high[:, None]] = _FULL_WORD
        below[ids, high] = (_ONE << (ids.astype(np.uint64) & _WORD_MASK)) - _ONE
    return below


class BitMatrixBackend(Backend):
    """Packed-bitmap backend: native sets are ``uint64`` word vectors.

    ``_matrix[i]`` is the packed neighbourhood of node ``i``; a native
    set is one row-shaped vector of ``ceil(n/64)`` words.  All set
    algebra returns fresh vectors (the immutable style the shared
    recursion relies on); the explicit-stack kernel below mutates only
    vectors it owns.
    """

    name = "bitmatrix"

    def __init__(self, graph) -> None:
        super().__init__(graph)
        words = words_for(self.n)
        matrix = np.zeros((self.n, words), dtype=np.uint64)
        for node in self._labels:
            i = self._index[node]
            row = matrix[i]
            for other in graph.neighbors(node):
                j = self._index[other]
                row[j >> 6] |= _ONE << np.uint64(j & 63)
        self._finish_init(matrix)

    def _load_packed(self, bitmap: np.ndarray) -> None:
        """Adopt an ``n × ceil(n/64)`` packed adjacency bitmap.

        The bitmap is *borrowed*, not copied — callers handing over a
        scratch buffer (the CSR-direct worker path) must keep it intact
        until the backend is discarded.
        """
        self._finish_init(np.ascontiguousarray(bitmap, dtype=np.uint64))

    def _finish_init(self, matrix: np.ndarray) -> None:
        self._matrix = matrix
        self._words = matrix.shape[1] if matrix.ndim == 2 else words_for(self.n)
        self._degrees = popcount_rows(matrix)
        full = np.zeros(self._words, dtype=np.uint64)
        if self.n:
            full[: self.n >> 6] = np.uint64(0xFFFFFFFFFFFFFFFF)
            tail = self.n & 63
            if tail:
                full[self.n >> 6] = (_ONE << np.uint64(tail)) - _ONE
        self._full = full
        # below[v] has exactly bits 0..v-1 set: the batched kernel's
        # sibling-prefix masks are one gather from this table.
        below = below_table(self.n, self._words)
        self._below = below
        # Row-adjacent [neighbourhood | below] pairs: the batched kernel
        # fetches both per frontier vertex with a single fancy-index
        # gather instead of two.
        self._mat_below = np.hstack([matrix, below]) if self.n else below

    # -- set construction --------------------------------------------------
    def empty(self) -> np.ndarray:
        return np.zeros(self._words, dtype=np.uint64)

    def full(self) -> np.ndarray:
        return self._full.copy()

    def make(self, indices: Iterable[int]) -> np.ndarray:
        return pack_indices(indices, self._words)

    # -- set algebra -------------------------------------------------------
    def intersect_neighbors(self, members: np.ndarray, index: int) -> np.ndarray:
        return members & self._matrix[index]

    def minus_neighbors(self, members: np.ndarray, index: int) -> np.ndarray:
        return members & ~self._matrix[index]

    def remove(self, members: np.ndarray, index: int) -> np.ndarray:
        out = members.copy()
        out[index >> 6] &= ~(_ONE << np.uint64(index & 63))
        return out

    def add(self, members: np.ndarray, index: int) -> np.ndarray:
        out = members.copy()
        out[index >> 6] |= _ONE << np.uint64(index & 63)
        return out

    def count(self, members: np.ndarray) -> int:
        return popcount(members)

    def is_empty(self, members: np.ndarray) -> bool:
        return not members.any()

    def iterate(self, members: np.ndarray) -> Iterator[int]:
        return iter(bits_to_indices(members).tolist())

    def common_count(self, index: int, members: np.ndarray) -> int:
        return popcount(self._matrix[index] & members)

    def degree(self, index: int) -> int:
        return int(self._degrees[index])

    def contains(self, members: np.ndarray, index: int) -> bool:
        return bool((members[index >> 6] >> np.uint64(index & 63)) & _ONE)

    # -- vectorized pivot fast paths ---------------------------------------
    # The generic rules in repro.mce.recursion dispatch to these when the
    # backend provides them; each replaces a Python scoring loop with one
    # gather + popcount + argmax.  Tie-breaking matches the generic rules:
    # smallest index wins, candidates before excluded.
    def pivot_tomita(self, candidates: np.ndarray, excluded: np.ndarray) -> int:
        pool = np.concatenate(
            [bits_to_indices(candidates), bits_to_indices(excluded)]
        )
        if not len(pool):
            return -1
        counts = popcount_rows(self._matrix[pool] & candidates)
        return int(pool[int(np.argmax(counts))])

    def pivot_max_degree(self, candidates: np.ndarray) -> int:
        pool = bits_to_indices(candidates)
        if not len(pool):
            return -1
        return int(pool[int(np.argmax(self._degrees[pool]))])

    def pivot_x(self, candidates: np.ndarray, excluded: np.ndarray) -> int:
        pool = bits_to_indices(excluded)
        if not len(pool):
            return self.pivot_tomita(candidates, excluded)
        counts = popcount_rows(self._matrix[pool] & candidates)
        return int(pool[int(np.argmax(counts))])

    # -- whole-enumeration fast path ---------------------------------------
    def expand_native(
        self,
        clique: list[int],
        candidates: np.ndarray,
        excluded: np.ndarray,
        pivot_rule,
    ):
        """Batched replacement for the shared recursion, or ``None``.

        :func:`repro.mce.recursion.expand` calls this before recursing;
        a non-``None`` return is an iterator over the same clique *set*
        (emission order differs — level order, not depth-first).  Rules
        the batched kernel cannot vectorize (e.g. instrumented wrappers)
        return ``None`` and take the generic recursion.
        """
        kind = _PIVOT_KINDS.get(pivot_rule)
        if kind is None:
            return None
        return expand_batched(self, tuple(clique), candidates, excluded, kind)


register_backend(BitMatrixBackend)


def _materialize_columns(
    spines: list[list], spine: int, idx: np.ndarray, leaves: np.ndarray
) -> "list[np.ndarray]":
    """Gather one emit record's member columns by walking the spines.

    ``columns[d][j]`` is member ``d`` (root-first) of emitted clique
    ``j`` — one ancestor column gathered per spine level.  Called
    eagerly — while the whole chain from ``spine`` to the root is still
    retained — so spine entries can be released as soon as no live
    batch references them.  The packed result plane consumes the
    columns directly (:meth:`repro.core.cliquestore.CliqueBuffer.append_columns`);
    :func:`_materialize_rows` zips them into tuples for callers that
    still want per-clique sequences.
    """
    columns = [leaves]
    while spine >= 0:
        entry = spines[spine]
        columns.append(entry[0][idx])
        idx = entry[1][idx]
        spine = entry[2]
    columns.reverse()
    return columns


def _materialize_rows(
    spines: list[list], spine: int, idx: np.ndarray, leaves: np.ndarray
):
    """Rebuild clique tuples for one emit record by walking the spines."""
    columns = _materialize_columns(spines, spine, idx, leaves)
    return zip(*[column.tolist() for column in columns])


def _release_spine(spines: list[list], spine: int) -> int:
    """Drop one reference from ``spine``; free exhausted chain prefixes.

    Each spine entry is ``[added, parents, parent_spine, refs]`` where
    ``refs`` counts the stack chunks addressing the entry directly plus
    the child spine entries whose materialization walks through it.
    When an entry's count reaches zero its arrays are dropped and the
    release cascades to its parent.  Returns the number of entries
    freed (for the live-memory statistics).
    """
    freed = 0
    while spine >= 0:
        entry = spines[spine]
        entry[3] -= 1
        if entry[3] > 0:
            break
        entry[0] = entry[1] = None
        freed += 1
        spine = entry[2]
    return freed


def expand_batched(
    backend: BitMatrixBackend,
    prefix: tuple[int, ...],
    candidates: np.ndarray,
    excluded: np.ndarray,
    pivot_kind: str,
    batch_cap: int = 8192,
    stats: dict | None = None,
    sink=None,
) -> list[tuple[int, ...]]:
    """Level-synchronous Bron–Kerbosch over batches of packed states.

    The throughput kernel: where :func:`expand_stack` walks the recursion
    tree one frame at a time (a dozen numpy dispatches per tree node,
    each on a ``ceil(n/64)``-word vector), this kernel keeps a *batch* of
    states — all ``(P, X)`` pairs at one depth of a subtree — as two
    ``(S, words)`` matrices and advances every state one level per
    iteration.  Pivot scoring, frontier extraction, sibling-prefix masks
    and child ``P``/``X`` construction are each one vectorized operation
    over the whole batch, so the per-tree-node interpreter overhead that
    dominates Python clique kernels is amortized across ``S`` states.

    Enumeration is depth-first over batches and level-order within a
    batch, so the returned list is deterministic but ordered differently
    from :func:`repro.mce.recursion.expand`; the clique *set* is
    identical for any pivot kind, which is the invariant every caller
    relies on.  A list (not a generator) is returned so emission costs
    no per-clique frame switch.

    Cliques are materialized *eagerly* per emit record and spine entries
    are reference-counted (released once no pending batch or descendant
    spine can reach them), so live memory really is bounded by tree
    depth × ``batch_cap`` states — not by the total number of
    generations the run produces.  Pass a ``stats`` dict to observe the
    bound: it receives ``total_spines``, ``max_live_spines``, and
    ``sweeps``.

    ``pivot_kind`` is one of ``"tomita"`` (max ``|N(u) ∩ P|`` over
    ``P ∪ X``), ``"degree"`` (max degree over ``P``), ``"x"`` (max
    ``|N(u) ∩ P|`` over ``X``, Tomita fallback when ``X`` is empty) or
    ``"none"`` (no pivot: expand every candidate).

    With ``sink`` (a :class:`repro.core.cliquestore.CliqueBuffer`-shaped
    emitter) cliques land *array-natively*: each emit record's spine
    columns go straight into the sink's growing packed buffers via
    ``append_columns`` — no tuples, no zip, no per-clique object — and
    the returned list stays empty.  Emission order is identical either
    way.
    """
    matrix = backend._matrix  # noqa: SLF001 - kernel-internal fast path
    degrees = backend._degrees  # noqa: SLF001
    mat_below = backend._mat_below  # noqa: SLF001
    n = backend.n
    out: list[tuple[int, ...]] = []
    if not candidates.any():
        if not excluded.any():
            if sink is not None:
                sink.append(prefix)
            else:
                out.append(prefix)
        return out
    # A batch is (P, X, spine, offset): two (S, words) uint64 matrices
    # plus provenance — state ``j`` of the batch is row ``offset + j``
    # of spine entry ``spine`` (-1 for the root prefix).  Each spine
    # entry is [added vertices, parent rows, parent spine, refcount];
    # cliques are never carried during traversal, they are rebuilt by
    # walking the spine chain when a leaf generation emits.
    spines: list[list] = []
    live_spines = 0
    max_live_spines = 0
    sweeps = 0
    stack: list[tuple[np.ndarray, np.ndarray, int, int]] = [
        (
            candidates.reshape(1, -1).copy(),
            excluded.reshape(1, -1).copy(),
            -1,
            0,
        )
    ]
    while stack:
        p, x, spine, offset = stack.pop()
        sweeps += 1
        num_states = p.shape[0]
        if pivot_kind == "none":
            frontier = p
        else:
            if pivot_kind == "degree":
                pool_mask = p
            elif pivot_kind == "x":
                has_x = x.any(axis=1)
                pool_mask = np.where(has_x[:, None], x, p | x)
            else:
                pool_mask = p | x
            pool_bits = np.unpackbits(
                pool_mask.view(np.uint8), axis=1, count=n, bitorder="little"
            )
            flat = np.flatnonzero(pool_bits.reshape(-1).view(bool))
            state_ids = flat // n
            node_ids = flat - state_ids * n
            if pivot_kind == "degree":
                scores = degrees[node_ids]
            else:
                scores = popcount_rows(matrix[node_ids] & p[state_ids])
            # Segmented argmax (every state's pool is nonempty, so the
            # segment starts are exactly the first entry per state);
            # ties break toward the smallest node index.
            starts = np.zeros(num_states, dtype=np.int64)
            np.cumsum(popcount_rows(pool_mask)[:-1], out=starts[1:])
            best = np.maximum.reduceat(scores, starts)
            entries = np.where(
                scores == best[state_ids], np.arange(len(scores)), len(scores)
            )
            pivots = node_ids[np.minimum.reduceat(entries, starts)]
            frontier = p & ~matrix[pivots]
        frontier_bits = np.unpackbits(
            frontier.view(np.uint8), axis=1, count=n, bitorder="little"
        )
        flat = np.flatnonzero(frontier_bits.reshape(-1).view(bool))
        if not len(flat):
            live_spines -= _release_spine(spines, spine)
            continue
        rep = flat // n
        v = flat - rep * n
        # One gather per side: [P | X | frontier] rows per parent state,
        # [neighbourhood | below] rows per frontier vertex.  below[v]
        # has bits 0..v-1 set, so ``frontier & below[v]`` is exactly the
        # earlier-sibling set the recursive form moves from P to X.
        words = p.shape[1]
        parent_rows = np.hstack([p, x, frontier])[rep]
        vertex_rows = mat_below[v]
        rows = vertex_rows[:, :words]
        moved = parent_rows[:, 2 * words :] & vertex_rows[:, words:]
        child_p = rows & parent_rows[:, :words] & ~moved
        child_x = rows & (parent_rows[:, words : 2 * words] | moved)
        has_p = child_p.any(axis=1)
        has_x = child_x.any(axis=1)
        emit = np.flatnonzero(~has_p & ~has_x)
        if len(emit):
            if sink is not None:
                columns = _materialize_columns(
                    spines, spine, offset + rep[emit], v[emit]
                )
                sink.append_columns(prefix, columns)
            else:
                emitted = _materialize_rows(
                    spines, spine, offset + rep[emit], v[emit]
                )
                if prefix:
                    out.extend(prefix + row for row in emitted)
                else:
                    out.extend(emitted)
        live = np.flatnonzero(has_p)
        if len(live):
            chunks = (len(live) + batch_cap - 1) // batch_cap
            new_spine = len(spines)
            spines.append([v[live], offset + rep[live], spine, chunks])
            live_spines += 1
            max_live_spines = max(max_live_spines, live_spines)
            if spine >= 0:
                spines[spine][3] += 1  # materialization walks through it
            live_p = child_p[live]
            live_x = child_x[live]
            if chunks == 1:
                stack.append((live_p, live_x, new_spine, 0))
            else:
                # Split oversized generations; push chunks in reverse so
                # the first chunk is processed next (depth-first over
                # batches).
                for lo in range(
                    (len(live) - 1) // batch_cap * batch_cap, -1, -batch_cap
                ):
                    hi = lo + batch_cap
                    stack.append((live_p[lo:hi], live_x[lo:hi], new_spine, lo))
        live_spines -= _release_spine(spines, spine)
    if stats is not None:
        stats["total_spines"] = len(spines)
        stats["max_live_spines"] = max_live_spines
        stats["sweeps"] = sweeps
    return out


def expand_batched_many(
    adj: np.ndarray,
    task_blocks: np.ndarray,
    roots_p: np.ndarray,
    roots_x: np.ndarray,
    n_pad: int,
    pivot_kind: str,
    batch_cap: int = 8192,
    stats: dict | None = None,
) -> list[list[tuple[int, ...]]]:
    """Batched Bron–Kerbosch over root states drawn from *many* blocks.

    The multi-block generalization of :func:`expand_batched`: instead of
    one block's adjacency matrix, ``adj`` is the row-concatenation of a
    whole bucket of same-shape blocks, each padded to ``n_pad`` rows of
    ``adj.shape[1]`` words (padding rows all-zero, padding bits never
    set).  Each *task* is one anchored root ``(P, X)`` state belonging
    to block ``task_blocks[t]``; every state carries its task id through
    the traversal, and adjacency gathers offset node indices by the
    owning block's base row — so a single sequence of numpy dispatches
    advances the frontiers of hundreds of independent blocks at once.
    This is what makes thousands-of-tiny-blocks workloads cheap: the
    per-sweep interpreter cost is paid once per *bucket generation*, not
    once per block level.

    Returns one list of clique tuples per task (local node indices
    within the task's block; the caller prepends the anchor / prefix).
    Per-task clique *sets* are identical to running
    :func:`expand_batched` on each root alone.  Spine entries are
    reference-counted and cliques materialize eagerly, exactly as in the
    single-block kernel, so live memory is bounded by tree depth ×
    ``batch_cap`` states regardless of bucket size.  ``stats`` (optional
    dict) receives ``sweeps``, ``total_spines``, ``max_live_spines``,
    and ``max_batch_states``.
    """
    num_tasks = len(task_blocks)
    out: list[list[tuple[int, ...]]] = [[] for _ in range(num_tasks)]
    if num_tasks == 0:
        return out
    words = adj.shape[1]
    num_blocks = adj.shape[0] // n_pad if n_pad else 0
    task_rows = np.asarray(task_blocks, dtype=np.int64) * n_pad
    degrees_flat = popcount_rows(adj) if pivot_kind == "degree" else None
    below = below_table(n_pad, words)
    # [neighbourhood | below] per flat row: one gather per frontier
    # vertex fetches both, exactly as the single-block kernel does.
    adj_below = (
        np.hstack([adj, np.tile(below, (num_blocks, 1))]) if num_blocks else below
    )
    # Roots with an empty candidate set never enter the batch: they emit
    # the bare prefix iff X is empty too (the maximality test), and the
    # segmented-argmax pivot below relies on every pooled state having a
    # nonempty pool.
    root_has_p = roots_p.any(axis=1)
    for t in np.flatnonzero(~root_has_p).tolist():
        if not roots_x[t].any():
            out[t].append(())
    live_roots = np.flatnonzero(root_has_p).astype(np.int64)
    if not len(live_roots):
        return out
    spines: list[list] = []
    live_spines = 0
    max_live_spines = 0
    max_batch_states = 0
    sweeps = 0
    # A batch is (P, X, tids, spine, offset); tids maps each state to
    # its owning task, which both addresses the adjacency gathers and
    # routes emitted cliques to the right output list.
    stack: list[tuple[np.ndarray, np.ndarray, np.ndarray, int, int]] = []
    for lo in range((len(live_roots) - 1) // batch_cap * batch_cap, -1, -batch_cap):
        chunk = live_roots[lo : lo + batch_cap]
        stack.append(
            (
                np.ascontiguousarray(roots_p[chunk]),
                np.ascontiguousarray(roots_x[chunk]),
                chunk,
                -1,
                0,
            )
        )
    while stack:
        p, x, tid, spine, offset = stack.pop()
        sweeps += 1
        num_states = p.shape[0]
        max_batch_states = max(max_batch_states, num_states)
        base = task_rows[tid]
        if pivot_kind == "none":
            frontier = p
        else:
            if pivot_kind == "degree":
                pool_mask = p
            elif pivot_kind == "x":
                has_x = x.any(axis=1)
                pool_mask = np.where(has_x[:, None], x, p | x)
            else:
                pool_mask = p | x
            pool_bits = np.unpackbits(
                pool_mask.view(np.uint8), axis=1, count=n_pad, bitorder="little"
            )
            flat = np.flatnonzero(pool_bits.reshape(-1).view(bool))
            state_ids = flat // n_pad
            node_ids = flat - state_ids * n_pad
            node_rows = base[state_ids] + node_ids
            if pivot_kind == "degree":
                scores = degrees_flat[node_rows]
            else:
                scores = popcount_rows(adj[node_rows] & p[state_ids])
            starts = np.zeros(num_states, dtype=np.int64)
            np.cumsum(popcount_rows(pool_mask)[:-1], out=starts[1:])
            best = np.maximum.reduceat(scores, starts)
            entries = np.where(
                scores == best[state_ids], np.arange(len(scores)), len(scores)
            )
            pivots = node_ids[np.minimum.reduceat(entries, starts)]
            frontier = p & ~adj[base + pivots]
        frontier_bits = np.unpackbits(
            frontier.view(np.uint8), axis=1, count=n_pad, bitorder="little"
        )
        flat = np.flatnonzero(frontier_bits.reshape(-1).view(bool))
        if not len(flat):
            live_spines -= _release_spine(spines, spine)
            continue
        rep = flat // n_pad
        v = flat - rep * n_pad
        parent_rows = np.hstack([p, x, frontier])[rep]
        vertex_rows = adj_below[base[rep] + v]
        rows = vertex_rows[:, :words]
        moved = parent_rows[:, 2 * words :] & vertex_rows[:, words:]
        child_p = rows & parent_rows[:, :words] & ~moved
        child_x = rows & (parent_rows[:, words : 2 * words] | moved)
        has_p = child_p.any(axis=1)
        has_x = child_x.any(axis=1)
        emit = np.flatnonzero(~has_p & ~has_x)
        if len(emit):
            emit_tids = tid[rep[emit]].tolist()
            emitted = _materialize_rows(spines, spine, offset + rep[emit], v[emit])
            for task, row in zip(emit_tids, emitted):
                out[task].append(row)
        live = np.flatnonzero(has_p)
        if len(live):
            chunks = (len(live) + batch_cap - 1) // batch_cap
            new_spine = len(spines)
            spines.append([v[live], offset + rep[live], spine, chunks])
            live_spines += 1
            max_live_spines = max(max_live_spines, live_spines)
            if spine >= 0:
                spines[spine][3] += 1
            live_p = child_p[live]
            live_x = child_x[live]
            live_tid = tid[rep[live]]
            if chunks == 1:
                stack.append((live_p, live_x, live_tid, new_spine, 0))
            else:
                for lo in range(
                    (len(live) - 1) // batch_cap * batch_cap, -1, -batch_cap
                ):
                    hi = lo + batch_cap
                    stack.append(
                        (
                            live_p[lo:hi],
                            live_x[lo:hi],
                            live_tid[lo:hi],
                            new_spine,
                            lo,
                        )
                    )
        live_spines -= _release_spine(spines, spine)
    if stats is not None:
        stats["sweeps"] = sweeps
        stats["total_spines"] = len(spines)
        stats["max_live_spines"] = max_live_spines
        stats["max_batch_states"] = max_batch_states
    return out


def degeneracy_orders_many(
    bitmaps: np.ndarray, sizes: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Lockstep degeneracy peel over a stack of padded adjacency bitmaps.

    ``bitmaps`` is ``(B, n_pad, words)`` with block ``b`` occupying rows
    ``0..sizes[b]-1`` (padding rows all-zero); the peel removes one
    minimum-residual-degree node per block per step, ties toward the
    smallest index — exactly :func:`degeneracy_order_packed` run on
    every block, but with the per-step argmin/decrement vectorized
    across the whole bucket, so ``B`` tiny blocks cost one ``O(n_pad)``
    loop instead of ``B`` of them.

    Returns ``(orders, degeneracies)``: ``orders`` is ``(B, n_pad)``
    int64 with row ``b``'s first ``sizes[b]`` entries the block's
    peeling order (the rest undefined), and ``degeneracies`` is ``(B,)``
    — the maximum residual degree seen at removal time per block.
    """
    num_blocks, n_pad, _ = bitmaps.shape
    orders = np.zeros((num_blocks, n_pad), dtype=np.int64)
    degeneracies = np.zeros(num_blocks, dtype=np.int64)
    if num_blocks == 0 or n_pad == 0:
        return orders, degeneracies
    sizes = np.asarray(sizes, dtype=np.int64)
    degrees = popcount_rows(bitmaps.reshape(-1, bitmaps.shape[2])).reshape(
        num_blocks, n_pad
    )
    # Padding rows are dead from the start so they never win the argmin
    # while a real node survives (real residual degrees are < n_pad).
    alive = np.arange(n_pad, dtype=np.int64)[None, :] < sizes[:, None]
    dead_value = np.int64(n_pad + 1)
    block_ids = np.arange(num_blocks, dtype=np.int64)
    for step in range(int(sizes.max()) if len(sizes) else 0):
        active = step < sizes
        masked = np.where(alive, degrees, dead_value)
        chosen = np.argmin(masked, axis=1)
        orders[:, step] = np.where(active, chosen, 0)
        peeled = degrees[block_ids, chosen]
        degeneracies = np.where(
            active, np.maximum(degeneracies, peeled), degeneracies
        )
        alive[block_ids[active], chosen[active]] = False
        removed_rows = bitmaps[block_ids[active], chosen[active]]
        removed_bits = np.unpackbits(
            removed_rows.view(np.uint8), axis=1, count=n_pad, bitorder="little"
        ).astype(bool)
        decrement = removed_bits & alive[active]
        degrees[active] -= decrement.astype(np.int64)
    return orders, degeneracies


def expand_stack(
    backend: BitMatrixBackend,
    clique: list[int],
    candidates: np.ndarray,
    excluded: np.ndarray,
    pivot_rule,
) -> Iterator[tuple[int, ...]]:
    """Explicit-stack Bron–Kerbosch over packed word vectors.

    Semantically identical to :func:`repro.mce.recursion.expand` — same
    pivot rule, same frontier order, same maximality test — but driven
    by a frame stack instead of recursion, so a block whose recursion
    tree is thousands of levels deep neither overflows Python's
    recursion limit nor pays per-frame generator overhead.  Each frame
    owns its ``P``/``X`` vectors and mutates them in place as its
    frontier is consumed.
    """
    matrix = backend._matrix  # noqa: SLF001 - kernel-internal fast path
    prefix = len(clique)
    root_p = candidates.copy()
    root_x = excluded.copy()

    def frontier_of(p: np.ndarray, x: np.ndarray) -> list[int]:
        pivot = pivot_rule(backend, p, x)
        if pivot is None:
            return bits_to_indices(p).tolist()
        return bits_to_indices(p & ~matrix[pivot]).tolist()

    if not root_p.any():
        if not root_x.any():
            yield tuple(clique)
        return
    # Frame: [P, X, frontier, cursor, added_node].
    stack: list[list] = [[root_p, root_x, frontier_of(root_p, root_x), 0, -1]]
    while stack:
        frame = stack[-1]
        p, x, frontier, cursor = frame[0], frame[1], frame[2], frame[3]
        if cursor >= len(frontier):
            stack.pop()
            if frame[4] >= 0:
                clique.pop()
            continue
        frame[3] = cursor + 1
        v = frontier[cursor]
        row = matrix[v]
        child_p = p & row
        child_x = x & row
        # The recursive form moves v from P to X after the child returns;
        # doing it before the push is equivalent (v is never its own
        # neighbour) and lets the frame mutate vectors it owns.
        p[v >> 6] &= ~(_ONE << np.uint64(v & 63))
        x[v >> 6] |= _ONE << np.uint64(v & 63)
        clique.append(v)
        if child_p.any():
            stack.append(
                [child_p, child_x, frontier_of(child_p, child_x), 0, v]
            )
        else:
            if not child_x.any():
                yield tuple(clique)
            clique.pop()
    del clique[prefix:]


def enumerate_anchored_packed(
    backend: BitMatrixBackend,
    anchor: int,
    candidates: np.ndarray,
    excluded: np.ndarray,
    pivot_rule,
    sink=None,
) -> "Iterator[tuple[int, ...]] | None":
    """Anchored ``MCE(k, P, X)`` on the packed kernels.

    The packed replacement for
    :func:`repro.mce.anchored.enumerate_anchored_native`: restrict both
    sets to ``N(anchor)`` and expand with ``anchor`` pinned in the
    clique.  Recognized pivot rules run on the batched kernel
    (:func:`expand_batched`); anything else falls back to the
    explicit-stack kernel.

    With ``sink`` the sweep emits straight into the packed clique
    buffers (array-native on the batched kernel, a bulk ``extend`` of
    the stack kernel's tuples) and returns ``None`` instead of an
    iterator.
    """
    restricted_p = backend.intersect_neighbors(candidates, anchor)
    restricted_x = backend.intersect_neighbors(excluded, anchor)
    kind = _PIVOT_KINDS.get(pivot_rule)
    if sink is not None:
        if kind is not None:
            expand_batched(
                backend, (anchor,), restricted_p, restricted_x, kind, sink=sink
            )
        else:
            sink.extend(
                expand_stack(
                    backend, [anchor], restricted_p, restricted_x, pivot_rule
                )
            )
        return None
    if kind is not None:
        return iter(
            expand_batched(backend, (anchor,), restricted_p, restricted_x, kind)
        )
    return expand_stack(
        backend, [anchor], restricted_p, restricted_x, pivot_rule
    )


def degeneracy_order_packed(
    bitmap: np.ndarray,
    neighbors: "list[list[int]] | None" = None,
    with_degeneracy: bool = False,
) -> "list[int] | tuple[list[int], int]":
    """Peeling order (min-degree first) of a packed adjacency bitmap.

    A thin caller of :func:`repro.graph.cores.peel_order` — remove a
    minimum-residual-degree node, ties toward the smallest index — over
    the bitmap's neighbour lists.  ``neighbors`` passes lists the caller
    already holds (:func:`repro.graph.csr.bitmap_neighbors` of this
    bitmap); ``with_degeneracy`` returns ``(order, degeneracy)`` from the
    same peel, which is how block analysis gets its anchor order and its
    degeneracy feature from one peel.
    """
    peel = peel_order(bitmap_neighbors(bitmap) if neighbors is None else neighbors)
    return peel if with_degeneracy else peel[0]


def degeneracy_packed(bitmap: np.ndarray) -> int:
    """Degeneracy (maximum core number) of a packed adjacency bitmap."""
    return peel_order(bitmap_neighbors(bitmap))[1]
