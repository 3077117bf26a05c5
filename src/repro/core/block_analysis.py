"""Per-block clique detection (``BLOCK-ANALYSIS``, Alg. 4).

For one block the goal is: *all maximal cliques that have at least one
kernel node and no visited node.*  Those two conditions together make the
union over all blocks emit each feasible-touching maximal clique exactly
once — the clique is reported from the block whose kernel contains its
earliest-kernelised member, and suppressed everywhere else because that
member is "visited" there.

The procedure anchors one enumeration per kernel node ``k``, restricted
to ``N(k)``: candidates start as ``kernel ∪ border`` and excluded as
``visited``; after ``k`` is processed it moves from the candidate side to
the excluded side, exactly as in the paper's pseudo-code.  Kernel nodes
are anchored in **degeneracy order** (sparsest first): which kernel node
reports a clique shifts with the order, but the per-block clique *set*
is invariant — a clique is always reported at whichever of its kernel
members is anchored first — and peeling-order anchors leave denser
candidate sets to later anchors whose exclusion sets have already grown,
so the pivot prunes harder.  Maximality against the *whole* network
follows from the block invariant that every neighbour of a kernel node
is inside the block.

The enumeration combination (algorithm × data structure) is chosen per
block by a decision tree over the block's features (``bestfit``, line 1).
Two materialization paths produce identical results:
:func:`analyze_block` consumes a :class:`~repro.core.blocks.Block`
(subgraph as a ``Graph``), while :func:`analyze_block_csr` consumes a
:class:`BlockDescriptor` plus CSR views and builds the chosen backend
straight from a packed adjacency bitmap — no intermediate ``Graph`` —
which is what shared-memory workers run.  Both paths peel each block
once, with the same :func:`~repro.graph.cores.peel_order` on the same
member order, for its degeneracy feature and its anchor order alike.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from repro.core.blocks import Block
from repro.core.cliquestore import CliqueStore, make_emitter
from repro.decision.features import (
    BlockFeatures,
    estimate_analysis_cost,
    features_from_bitmap,
)
from repro.decision.paper_tree import paper_tree, select_combo
from repro.decision.tree import DecisionTree
from repro.graph.adjacency import Graph, Node
from repro.graph.cores import peel_order
from repro.graph.csr import BitmapScratch, bitmap_neighbors, extract_block_bitmap
from repro.mce.anchored import enumerate_anchored_native
from repro.mce.backends import Backend, backend_from_bitmap, build_backend
from repro.mce.bitmatrix import (
    BitMatrixBackend,
    bits_to_indices,
    degeneracy_order_packed,
    degeneracy_orders_many,
    enumerate_anchored_packed,
    expand_batched_many,
    pack_indices,
    pivot_kind_of,
    popcount_rows,
    words_for,
)
from repro.mce.maximum import clique_upper_bound_packed
from repro.mce.registry import Combo, get_pivot_rule


@dataclass
class BlockReport:
    """Outcome of analysing one block.

    ``cliques`` is a packed :class:`~repro.core.cliquestore.CliqueStore`
    on the default result plane (vertex ids into the store's own
    member-label table, so pickling across IPC ships raw array buffers
    plus one small label list) — or the legacy ``list[frozenset]`` when
    the frozenset plane is selected or the report was hand-built.  Both
    forms iterate as frozensets and support ``len``, which is the only
    surface downstream consumers rely on.
    """

    cliques: "CliqueStore | list[frozenset[Node]]"
    combo: Combo
    features: BlockFeatures
    seconds: float
    kernel_nodes: int = 0
    extra: dict[str, float] = field(default_factory=dict)


def analyze_block(
    block: Block,
    tree: DecisionTree | None = None,
    combo: Combo | None = None,
    min_clique_size: int = 0,
) -> BlockReport:
    """Enumerate the block's contribution to the global clique set.

    Parameters
    ----------
    block:
        A block produced by :func:`repro.core.blocks.build_blocks`.
    tree:
        Decision tree used to pick the enumeration combo from the block's
        features; defaults to the paper's published tree (Figure 3).
    combo:
        Bypass the tree and force a specific combination (used by the
        ablation benchmarks that compare the tree against fixed combos).
    min_clique_size:
        Enumeration floor: anchors whose subproblem cannot reach a
        clique of this size are skipped (their cliques are all smaller,
        see :func:`_anchor_below_floor`); the skip count lands in
        ``extra["anchors_skipped"]``.  ``0`` disables the pruning.

    Returns
    -------
    BlockReport
        The cliques found (each has ≥ 1 kernel node and no visited node),
        the combination used, the block features, and the wall-clock time.
    """
    start = time.perf_counter()
    kernel_order, degeneracy = _peel_block(block)
    features = BlockFeatures.of(block.graph, degeneracy=degeneracy)
    selection_seconds = 0.0
    if combo is None:
        select_start = time.perf_counter()
        combo = select_combo(tree if tree is not None else paper_tree(), features)
        selection_seconds = time.perf_counter() - select_start
    backend = build_backend(block.graph, combo.backend)
    pivot_rule = get_pivot_rule(combo.algorithm)

    candidates = backend.make_from_labels(list(block.kernel) + list(block.border))
    excluded = backend.make_from_labels(block.visited)
    member_labels = [backend.label(i) for i in range(block.graph.num_nodes)]
    emitter = make_emitter(member_labels)
    anchors_skipped = 0
    for kernel_node in kernel_order:
        anchor = backend.index_of(kernel_node)
        if _anchor_below_floor(backend, anchor, candidates, min_clique_size):
            anchors_skipped += 1
        else:
            _emit_anchored(emitter, backend, anchor, candidates, excluded, pivot_rule)
        candidates = backend.remove(candidates, anchor)
        excluded = backend.add(excluded, anchor)
    cliques = emitter.build()
    extra: dict[str, float] = {}
    if anchors_skipped:
        extra["anchors_skipped"] = float(anchors_skipped)
    if selection_seconds:
        # The measured price of consulting the selector for this block;
        # harvests and benchmarks check it stays a vanishing fraction
        # of the analysis time (the <1% selection-overhead budget).
        extra["selection_seconds"] = selection_seconds
    return BlockReport(
        cliques=cliques,
        combo=combo,
        features=features,
        seconds=time.perf_counter() - start,
        kernel_nodes=len(block.kernel),
        extra=extra,
    )


def _anchor_below_floor(
    backend: Backend, anchor: int, candidates, min_clique_size: int
) -> bool:
    """Whether an anchored sweep cannot reach the enumeration floor.

    Every clique the anchor's sweep emits lies inside ``{anchor} ∪
    (N(anchor) ∩ candidates)`` — a member processed as an earlier
    anchor sits on the excluded side, and one already moved out of
    ``candidates`` would make the clique non-maximal there.  So when
    ``1 + |N(anchor) ∩ candidates| < floor`` the whole sweep is below
    the floor and can be skipped.  The anchor must still rotate to the
    excluded side afterwards: later anchors see exactly the states the
    unpruned sweep would have left them, which is what keeps the ≥-floor
    clique set identical (the exclusion side never depends on whether
    the anchor's own sweep ran).
    """
    return (
        min_clique_size > 1
        and 1 + backend.common_count(anchor, candidates) < min_clique_size
    )


def block_clique_bound(block: Block) -> int:
    """Upper bound on any clique the block can emit (``Graph`` path).

    Every reported clique lies inside kernel ∪ border (visited members
    are excluded by construction), so the bound is
    :func:`repro.mce.maximum.clique_upper_bound_packed` over that
    induced subgraph.  The barrier driver prices each block with this
    before dispatch and skips those falling below ``min_clique_size``.
    """
    members = list(block.kernel) + sorted(block.border, key=str)
    n = len(members)
    if n == 0:
        return 0
    index_of = {node: i for i, node in enumerate(members)}
    bitmap = np.zeros((n, words_for(n)), dtype=np.uint64)
    one = np.uint64(1)
    for i, node in enumerate(members):
        row = bitmap[i]
        for other in block.graph.neighbors(node):
            j = index_of.get(other)
            if j is not None:
                row[j >> 6] |= one << np.uint64(j & 63)
    return clique_upper_bound_packed(bitmap)


def block_clique_bound_csr(
    descriptor: "BlockDescriptor",
    indptr: np.ndarray,
    indices: np.ndarray,
    scratch: BitmapScratch | None = None,
) -> int:
    """CSR twin of :func:`block_clique_bound` for the pipeline driver."""
    member_ids = np.concatenate([descriptor.kernel_ids, descriptor.border_ids])
    if len(member_ids) == 0:
        return 0
    bitmap = extract_block_bitmap(indptr, indices, member_ids, scratch)
    return clique_upper_bound_packed(bitmap)


def _peel_block(block: Block) -> tuple[list[Node], int]:
    """The block's kernel nodes in degeneracy order, and its degeneracy.

    One :func:`~repro.graph.cores.peel_order` over the members in
    descriptor order (kernel, then border and visited sorted by ``str``)
    — the same peel, on the same member order, that
    :func:`analyze_block_csr` runs on the packed bitmap, so a block
    analysed in a shared-memory worker emits its cliques in the same
    order as the serial path, including when a crashed worker's block is
    retried in the parent.
    """
    members = (
        list(block.kernel)
        + sorted(block.border, key=str)
        + sorted(block.visited, key=str)
    )
    index_of = {node: i for i, node in enumerate(members)}
    graph = block.graph
    order, degeneracy = peel_order(
        [[index_of[other] for other in graph.neighbors(node)] for node in members]
    )
    num_kernel = len(block.kernel)
    return [members[v] for v in order if v < num_kernel], degeneracy


def _emit_anchored(
    emitter, backend: Backend, anchor, candidates, excluded, pivot_rule
) -> None:
    """The single emission seam: one anchored sweep into one emitter.

    Every analysis path (dict-``Graph``, CSR, splittable, subtask — and,
    through :meth:`~repro.core.cliquestore.CliqueBuffer.extend_prefixed`,
    the bucket demux) funnels its cliques through here, so the output
    representation is decided in exactly one place.  The packed-bitmap
    backend emits array-natively — the batched kernel's spine columns
    land straight in the packed buffers, no per-clique tuple or
    frozenset — while other backends' tuple streams are bulk-flattened
    by the emitter.  Emission order matches the legacy frozenset loops
    exactly.
    """
    if isinstance(backend, BitMatrixBackend):
        enumerate_anchored_packed(
            backend, anchor, candidates, excluded, pivot_rule, sink=emitter
        )
        return
    emitter.extend(
        enumerate_anchored_native(backend, anchor, candidates, excluded, pivot_rule)
    )


@dataclass(frozen=True)
class BlockDescriptor:
    """A block reduced to node-id arrays over a published CSR snapshot.

    This is what the shared-memory executor ships to a worker instead of
    a pickled subgraph: three small ``int64`` arrays naming the block's
    members by their dense indices in the level graph's
    :class:`repro.graph.csr.CSRGraph`.  ``kernel_ids`` preserves kernel
    assignment order and ``border_ids``/``visited_ids`` are in the same
    sorted-by-``str`` order :mod:`repro.core.blocks` uses, so the block
    reconstructed by :func:`block_from_descriptor` has exactly the node
    ordering of the original — the analysis is bit-for-bit identical.
    """

    block_id: int
    kernel_ids: np.ndarray
    border_ids: np.ndarray
    visited_ids: np.ndarray
    estimated_cost: float = 0.0

    @classmethod
    def from_block(
        cls, block_id: int, block: Block, index_of: "dict[Node, int]"
    ) -> "BlockDescriptor":
        """Build a descriptor for ``block`` under the dense index map."""

        def ids(nodes) -> np.ndarray:
            return np.fromiter(
                (index_of[node] for node in nodes), dtype=np.int64, count=len(nodes)
            )

        return cls(
            block_id=block_id,
            kernel_ids=ids(block.kernel),
            border_ids=ids(sorted(block.border, key=str)),
            visited_ids=ids(sorted(block.visited, key=str)),
            estimated_cost=estimate_analysis_cost(
                block.graph.num_nodes, block.graph.num_edges
            ),
        )

    def nbytes(self) -> int:
        """Bytes of payload actually dispatched for this block."""
        return int(
            self.kernel_ids.nbytes + self.border_ids.nbytes + self.visited_ids.nbytes
        )

    @property
    def size(self) -> int:
        """Total number of nodes in the described block."""
        return len(self.kernel_ids) + len(self.border_ids) + len(self.visited_ids)


def block_from_descriptor(
    descriptor: BlockDescriptor,
    indptr: np.ndarray,
    indices: np.ndarray,
    labels: list[Node],
) -> Block:
    """Rebuild a :class:`Block` from CSR views of the level graph.

    The induced subgraph is recovered by walking each member's CSR row
    and keeping the endpoints inside the member set — the zero-copy
    replacement for pickling ``block.graph`` across the process
    boundary.  Node insertion order (kernel order, then sorted border,
    then sorted visited) matches :func:`repro.core.blocks.build_blocks`.
    """
    member_ids = np.concatenate(
        [descriptor.kernel_ids, descriptor.border_ids, descriptor.visited_ids]
    )
    member_set = set(member_ids.tolist())
    graph = Graph(nodes=(labels[i] for i in member_ids.tolist()))
    for u in member_ids.tolist():
        row = indices[indptr[u] : indptr[u + 1]]
        for v in row.tolist():
            if v in member_set and u < v:
                graph.add_edge(labels[u], labels[v])
    return Block(
        kernel=tuple(labels[i] for i in descriptor.kernel_ids.tolist()),
        border=frozenset(labels[i] for i in descriptor.border_ids.tolist()),
        visited=frozenset(labels[i] for i in descriptor.visited_ids.tolist()),
        graph=graph,
    )


def analyze_block_csr(
    descriptor: BlockDescriptor,
    indptr: np.ndarray,
    indices: np.ndarray,
    labels: list[Node],
    tree: DecisionTree | None = None,
    combo: Combo | None = None,
    scratch: BitmapScratch | None = None,
    min_clique_size: int = 0,
) -> BlockReport:
    """Analyse one block directly from CSR views — no ``Graph`` rebuild.

    The zero-copy fast path run inside shared-memory workers: the
    block's induced subgraph is packed straight from the CSR rows into
    an adjacency bitmap (:func:`~repro.graph.csr.extract_block_bitmap`,
    optionally through a per-worker scratch cache), features and the
    decision-tree choice are computed from the packed rows, and the
    chosen backend is materialized from the bitmap via ``from_packed``.
    Produces the same clique set as :func:`analyze_block` on the
    corresponding :func:`block_from_descriptor` block — the differential
    executor suite pins the two paths against each other.
    ``min_clique_size`` skips below-floor anchors as in
    :func:`analyze_block`.
    """
    start = time.perf_counter()
    block = _materialize_csr(descriptor, indptr, indices, labels, tree, combo, scratch)
    backend = block.backend
    num_kernel = len(descriptor.kernel_ids)
    num_candidates = num_kernel + len(descriptor.border_ids)
    candidates = backend.make(range(num_candidates))
    excluded = backend.make(range(num_candidates, backend.n))
    emitter = make_emitter(block.member_labels)
    anchors_skipped = 0
    for anchor in block.kernel_order:
        if _anchor_below_floor(backend, anchor, candidates, min_clique_size):
            anchors_skipped += 1
        else:
            _emit_anchored(
                emitter, backend, anchor, candidates, excluded, block.pivot_rule
            )
        candidates = backend.remove(candidates, anchor)
        excluded = backend.add(excluded, anchor)
    extra: dict[str, float] = {}
    if anchors_skipped:
        extra["anchors_skipped"] = float(anchors_skipped)
    if block.selection_seconds:
        extra["selection_seconds"] = block.selection_seconds
    return BlockReport(
        cliques=emitter.build(),
        combo=block.combo,
        features=block.features,
        seconds=time.perf_counter() - start,
        kernel_nodes=num_kernel,
        extra=extra,
    )


@dataclass(frozen=True)
class _MaterializedBlock:
    """What :func:`_materialize_csr` builds for one block or subtask.

    ``kernel_order`` lists the kernel member positions in degeneracy
    (peeling) order; ``member_labels`` doubles as the emitters'
    per-block decode table; ``selection_seconds`` is the selector's
    wall-clock (0.0 when a forced combo bypassed the tree).
    """

    bitmap: np.ndarray
    features: BlockFeatures
    combo: Combo
    backend: Backend
    pivot_rule: object
    member_labels: list[Node]
    kernel_order: list[int]
    selection_seconds: float


def _materialize_csr(
    descriptor: "BlockDescriptor | SubtaskDescriptor",
    indptr: np.ndarray,
    indices: np.ndarray,
    labels: list[Node],
    tree: DecisionTree | None,
    combo: Combo | None,
    scratch: BitmapScratch | None,
) -> _MaterializedBlock:
    """Shared CSR→backend materialization for blocks and subtasks.

    One gather packs the block's bitmap, one peel over its neighbour
    lists yields both the degeneracy feature and the kernel anchor
    order, and the ``lists`` backend is built from those same lists.
    The member ordering (kernel, then border, then visited) is a pure
    function of the descriptor's id arrays, so every fragment of a
    split block sees the identical bitmap, features, and combo choice as
    an unsplit analysis of the same block.
    """
    member_ids = np.concatenate(
        [descriptor.kernel_ids, descriptor.border_ids, descriptor.visited_ids]
    )
    bitmap = extract_block_bitmap(indptr, indices, member_ids, scratch)
    neighbors = bitmap_neighbors(bitmap)
    order, degeneracy = degeneracy_order_packed(
        bitmap, neighbors, with_degeneracy=True
    )
    features = features_from_bitmap(bitmap, degeneracy)
    selection_seconds = 0.0
    if combo is None:
        select_start = time.perf_counter()
        combo = select_combo(tree if tree is not None else paper_tree(), features)
        selection_seconds = time.perf_counter() - select_start
    member_labels = [labels[i] for i in member_ids.tolist()]
    num_kernel = len(descriptor.kernel_ids)
    return _MaterializedBlock(
        bitmap=bitmap,
        features=features,
        combo=combo,
        backend=backend_from_bitmap(combo.backend, member_labels, bitmap, neighbors),
        pivot_rule=get_pivot_rule(combo.algorithm),
        member_labels=member_labels,
        kernel_order=[v for v in order if v < num_kernel],
        selection_seconds=selection_seconds,
    )


# ----------------------------------------------------------------------
# Multi-block batched dispatch (bucket formation + demux)
# ----------------------------------------------------------------------
#
# Thousands of tiny blocks each pay a full per-block round-trip —
# bitmap extraction, a degeneracy peel, backend construction, and a
# batched-kernel launch per anchor — even though each launch advances
# only a handful of states.  Bucketing groups small blocks by padded
# shape so the whole group shares ONE lockstep peel and ONE multi-block
# kernel run (:func:`repro.mce.bitmatrix.expand_batched_many`): the
# per-sweep numpy dispatch cost is amortized over every block in the
# bucket.  The demux reproduces exactly the per-block clique sets and
# report structure of :func:`analyze_block_csr`, so buckets are a pure
# execution strategy — invisible to everything downstream.

# Blocks are padded to the next multiple of this quantum; buckets are
# keyed by the padded size, bounding padding waste below 1/PAD_QUANTUM
# of the bucket's rows in the worst case.
PAD_QUANTUM = 8


def padded_size(size: int) -> int:
    """Bucket key of a block: its size rounded up to the padding quantum."""
    return max(PAD_QUANTUM, ((size + PAD_QUANTUM - 1) // PAD_QUANTUM) * PAD_QUANTUM)


@dataclass(frozen=True)
class BlockBucket:
    """A group of same-padded-shape small blocks dispatched as one unit."""

    n_pad: int
    descriptors: tuple[BlockDescriptor, ...]

    @property
    def num_blocks(self) -> int:
        return len(self.descriptors)

    @property
    def estimated_cost(self) -> float:
        """Summed cost estimate — buckets schedule like one big block."""
        return float(sum(d.estimated_cost for d in self.descriptors))

    def nbytes(self) -> int:
        """Bytes of descriptor payload dispatched for this bucket."""
        return int(sum(d.nbytes() for d in self.descriptors))

    @property
    def padding_waste(self) -> float:
        """Fraction of padded adjacency rows that hold no real node."""
        total = self.num_blocks * self.n_pad
        if total == 0:
            return 0.0
        used = sum(d.size for d in self.descriptors)
        return 1.0 - used / total


def form_buckets(
    descriptors: "list[BlockDescriptor]",
    cutoff: int,
    max_bucket: int | None = None,
) -> "tuple[list[BlockBucket], list[BlockDescriptor]]":
    """Partition descriptors into shape buckets and pass-through blocks.

    Blocks of at most ``cutoff`` nodes are grouped by padded size
    (:func:`padded_size`); everything larger — the blocks where
    split/steal parallelism matters and one kernel launch is already
    well amortized — is returned unchanged for the per-block path.
    ``max_bucket`` (parallel executors) chunks each shape group so one
    popular shape does not collapse into a single giant work unit.
    Bucket membership preserves the input (LPT/stream) order within
    each bucket, and buckets are emitted smallest shape first, so the
    partition is deterministic.
    """
    by_shape: dict[int, list[BlockDescriptor]] = {}
    large: list[BlockDescriptor] = []
    for descriptor in descriptors:
        if descriptor.size > cutoff:
            large.append(descriptor)
        else:
            by_shape.setdefault(padded_size(descriptor.size), []).append(descriptor)
    buckets: list[BlockBucket] = []
    for n_pad, group in sorted(by_shape.items()):
        step = max_bucket if max_bucket is not None else len(group)
        for lo in range(0, len(group), max(step, 1)):
            buckets.append(
                BlockBucket(n_pad=n_pad, descriptors=tuple(group[lo : lo + step]))
            )
    return buckets, large


def analyze_bucket_csr(
    bucket: BlockBucket,
    indptr: np.ndarray,
    indices: np.ndarray,
    labels: list[Node],
    tree: DecisionTree | None = None,
    combo: Combo | None = None,
    scratch: BitmapScratch | None = None,
    batch_stats: dict | None = None,
    min_clique_size: int = 0,
) -> list[BlockReport]:
    """Analyse a whole bucket through one multi-block kernel run.

    Produces one :class:`BlockReport` per descriptor, in bucket order,
    with exactly the clique set :func:`analyze_block_csr` would report
    for the same block (the anchored sweep's root states are
    reconstructed per anchor from the lockstep degeneracy peel, so
    exact-once accounting is untouched).  Features, tree selection, and
    report fields match the per-block path; ``seconds`` is the bucket's
    wall-clock split evenly across its blocks (per-block attribution
    inside one fused kernel run is not observable), and ``extra``
    carries ``batched``/``bucket_blocks`` markers.

    A forced ``combo`` whose pivot rule the batched kernel cannot
    vectorize falls back to per-block analysis (identical output,
    per-block speed).  ``batch_stats`` (optional dict) receives the
    bucket-level counters the executor turns into a
    :class:`~repro.mce.instrumentation.BatchDispatch` record.
    """
    start = time.perf_counter()
    descriptors = bucket.descriptors
    num_blocks = len(descriptors)
    if num_blocks == 0:
        return []
    if combo is not None and pivot_kind_of(get_pivot_rule(combo.algorithm)) is None:
        return [
            analyze_block_csr(
                descriptor,
                indptr,
                indices,
                labels,
                tree,
                combo,
                scratch,
                min_clique_size=min_clique_size,
            )
            for descriptor in descriptors
        ]
    n_pad = bucket.n_pad
    words = words_for(n_pad)
    sizes = np.fromiter(
        (d.size for d in descriptors), dtype=np.int64, count=num_blocks
    )
    stacked = np.zeros((num_blocks, n_pad, words), dtype=np.uint64)
    member_ids_of: list[np.ndarray] = []
    for b, descriptor in enumerate(descriptors):
        member_ids = np.concatenate(
            [descriptor.kernel_ids, descriptor.border_ids, descriptor.visited_ids]
        )
        member_ids_of.append(member_ids)
        bitmap = extract_block_bitmap(indptr, indices, member_ids, scratch)
        stacked[b, : bitmap.shape[0], : bitmap.shape[1]] = bitmap
    # One lockstep peel yields every block's degeneracy (a feature) AND
    # its kernel anchor order, vectorized across the bucket.
    degrees = popcount_rows(stacked.reshape(-1, words)).reshape(num_blocks, n_pad)
    orders, degeneracies = degeneracy_orders_many(stacked, sizes)
    num_edges = degrees.sum(axis=1) // 2
    d_stars = _d_stars_of_degree_matrix(degrees, n_pad)
    features_of: list[BlockFeatures] = []
    combos_of: list[Combo] = []
    for b in range(num_blocks):
        n = int(sizes[b])
        e = int(num_edges[b])
        features = BlockFeatures(
            num_nodes=n,
            num_edges=e,
            density=2.0 * e / (n * (n - 1)) if n > 1 else 0.0,
            degeneracy=int(degeneracies[b]),
            d_star=int(d_stars[b]),
        )
        features_of.append(features)
        combos_of.append(
            combo
            if combo is not None
            else select_combo(tree if tree is not None else paper_tree(), features)
        )
    # One vectorizable pivot kind drives the whole bucket (the clique
    # set is pivot-invariant); a unanimous recognized selection keeps
    # its kind, mixed selections default to tomita.
    kinds = {pivot_kind_of(get_pivot_rule(c.algorithm)) for c in combos_of}
    kind = kinds.pop() if len(kinds) == 1 and None not in kinds else "tomita"
    # Root (P, X) states, one per kernel anchor in degeneracy order:
    # anchors already processed move from the candidate to the excluded
    # side, reconstructed with a cumulative-OR over anchor bits exactly
    # as the serial sweep does incrementally.
    task_block_parts: list[np.ndarray] = []
    roots_p_parts: list[np.ndarray] = []
    roots_x_parts: list[np.ndarray] = []
    anchors_of: list[np.ndarray] = []
    skipped_of = np.zeros(num_blocks, dtype=np.int64)
    one = np.uint64(1)
    for b, descriptor in enumerate(descriptors):
        num_kernel = len(descriptor.kernel_ids)
        num_candidates = num_kernel + len(descriptor.border_ids)
        num_members = int(sizes[b])
        order_row = orders[b, :num_members]
        kernel_order = order_row[order_row < num_kernel]
        k = len(kernel_order)
        if k == 0:
            anchors_of.append(kernel_order)
            continue
        rows = stacked[b][kernel_order]
        anchor_bits = np.zeros((k, words), dtype=np.uint64)
        anchor_bits[np.arange(k), kernel_order >> 6] = one << (
            kernel_order.astype(np.uint64) & np.uint64(63)
        )
        previous = np.zeros_like(anchor_bits)
        if k > 1:
            np.bitwise_or.accumulate(anchor_bits[:-1], axis=0, out=previous[1:])
        cand0 = pack_indices(range(num_candidates), words)
        excl0 = pack_indices(range(num_candidates, num_members), words)
        roots_p = rows & cand0 & ~previous
        roots_x = rows & (excl0 | previous)
        if min_clique_size > 1:
            # Vectorized twin of _anchor_below_floor: an anchor whose
            # root state holds < floor−1 candidates cannot emit a clique
            # of floor size.  Rotation is already baked into the
            # cumulative-OR masks, so dropping a root row changes
            # nothing for the surviving ones.
            keep = 1 + popcount_rows(roots_p) >= min_clique_size
            skipped_of[b] = int(k - keep.sum())
            kernel_order = kernel_order[keep]
            roots_p = roots_p[keep]
            roots_x = roots_x[keep]
            k = len(kernel_order)
        anchors_of.append(kernel_order)
        if k == 0:
            continue
        roots_p_parts.append(roots_p)
        roots_x_parts.append(roots_x)
        task_block_parts.append(np.full(k, b, dtype=np.int64))
    if task_block_parts:
        task_blocks = np.concatenate(task_block_parts)
        roots_p = np.vstack(roots_p_parts)
        roots_x = np.vstack(roots_x_parts)
    else:
        task_blocks = np.empty(0, dtype=np.int64)
        roots_p = np.empty((0, words), dtype=np.uint64)
        roots_x = np.empty((0, words), dtype=np.uint64)
    kernel_stats: dict = {}
    extensions = expand_batched_many(
        stacked.reshape(-1, words),
        task_blocks,
        roots_p,
        roots_x,
        n_pad,
        kind,
        stats=kernel_stats,
    )
    elapsed = time.perf_counter() - start
    if batch_stats is not None:
        batch_stats["num_blocks"] = float(num_blocks)
        batch_stats["num_tasks"] = float(len(task_blocks))
        batch_stats["n_pad"] = float(n_pad)
        batch_stats["padding_waste"] = bucket.padding_waste
        batch_stats["sweeps"] = float(kernel_stats.get("sweeps", 0))
        batch_stats["seconds"] = elapsed
    reports: list[BlockReport] = []
    per_block_seconds = elapsed / num_blocks
    cursor = 0
    for b, descriptor in enumerate(descriptors):
        member_labels = [labels[i] for i in member_ids_of[b].tolist()]
        emitter = make_emitter(member_labels)
        for j, anchor in enumerate(anchors_of[b].tolist()):
            emitter.extend_prefixed(anchor, extensions[cursor + j])
        cursor += len(anchors_of[b])
        extra = {
            "batched": 1.0,
            "bucket_blocks": float(num_blocks),
        }
        if skipped_of[b]:
            extra["anchors_skipped"] = float(skipped_of[b])
        reports.append(
            BlockReport(
                cliques=emitter.build(),
                combo=combos_of[b],
                features=features_of[b],
                seconds=per_block_seconds,
                kernel_nodes=len(descriptor.kernel_ids),
                extra=extra,
            )
        )
    return reports


def _d_stars_of_degree_matrix(degrees: np.ndarray, n_pad: int) -> np.ndarray:
    """Per-row degree h-index of a padded degree matrix.

    Padding entries are zero-degree, which cannot satisfy ``degree >=
    rank`` for any rank ≥ 1, so the extra columns never change the
    h-index — each row agrees with :func:`_d_star_of_degrees` on the
    block's true degree sequence.
    """
    descending = -np.sort(-degrees, axis=1)
    at_least = descending >= np.arange(1, n_pad + 1)[None, :]
    has_any = at_least.any(axis=1)
    last_true = n_pad - np.argmax(at_least[:, ::-1], axis=1)
    return np.where(has_any, last_true, 0).astype(np.int64)


# ----------------------------------------------------------------------
# Anchor-level splitting (intra-block parallelism)
# ----------------------------------------------------------------------
#
# The anchored sweep of Algorithm 4 processes kernel nodes one at a
# time, and the (candidates, excluded) state at anchor position t is a
# *pure function* of the degeneracy order: candidates start as
# kernel ∪ border minus the anchors already processed, excluded as
# visited plus those anchors.  A contiguous range of anchor positions is
# therefore an independently computable subtask — run anywhere, in any
# order, the union over a partition of [0, K) is exactly the block's
# clique set, each clique exactly once, because the exclusion-set
# discipline that makes blocks non-overlapping also makes anchor ranges
# within a block non-overlapping.


@dataclass(frozen=True)
class SubtaskDescriptor:
    """A contiguous anchor range of one block's kernel sweep.

    Carries the same id arrays as the parent :class:`BlockDescriptor`
    (the worker re-extracts the identical bitmap from shared CSR) plus
    the precomputed degeneracy order of the kernel positions and the
    half-open range ``[start, stop)`` of that order this subtask owns.
    Anchors in ``kernel_order[:start]`` are treated as already processed
    (moved to the excluded side) so maximality and exact-once accounting
    are preserved without any cross-subtask communication.
    """

    block_id: int
    subtask_id: int
    kernel_ids: np.ndarray
    border_ids: np.ndarray
    visited_ids: np.ndarray
    kernel_order: np.ndarray
    start: int
    stop: int
    estimated_cost: float = 0.0

    def nbytes(self) -> int:
        """Bytes of payload actually dispatched for this subtask."""
        return int(
            self.kernel_ids.nbytes
            + self.border_ids.nbytes
            + self.visited_ids.nbytes
            + self.kernel_order.nbytes
        )


@dataclass(frozen=True)
class SplitResult:
    """A worker's answer when it split a block instead of finishing it.

    ``partial`` holds the cliques of anchor positions ``[0, done)``
    (empty for a pure probe, where the worker only computed the order
    and the per-anchor costs); the parent turns the remaining positions
    into :class:`SubtaskDescriptor` chunks via :func:`build_subtasks`.
    """

    block_id: int
    partial: BlockReport
    kernel_order: np.ndarray
    done: int
    anchor_costs: np.ndarray


def anchor_cost_estimates(
    bitmap: np.ndarray, kernel_order: list[int], num_candidates: int
) -> np.ndarray:
    """Estimated cost of each anchored enumeration, in sweep order.

    Position ``t``'s subproblem is the anchor plus ``P_t = N(anchor) ∩
    candidates_t``, where ``candidates_t`` excludes the anchors already
    processed — the same shrinking-candidate-set effect that makes late
    anchors cheap in degeneracy order.  Each estimate feeds
    :func:`~repro.decision.features.estimate_analysis_cost` with the
    subproblem's node and edge counts, so subtask chunking balances on
    the same scale the block scheduler uses.
    """
    words = bitmap.shape[1] if bitmap.ndim == 2 else 0
    costs = np.zeros(len(kernel_order), dtype=np.float64)
    if words == 0 or not kernel_order:
        return costs
    cand = pack_indices(range(num_candidates), words)
    anchor_bit = np.zeros(words, dtype=np.uint64)
    for t, anchor in enumerate(kernel_order):
        p = bitmap[anchor] & cand
        members = bits_to_indices(p)
        size = len(members)
        edges_within = (
            int(popcount_rows(bitmap[members] & p).sum()) // 2 if size else 0
        )
        costs[t] = estimate_analysis_cost(size + 1, edges_within + size)
        anchor_bit[:] = 0
        anchor_bit[anchor >> 6] = np.uint64(1) << np.uint64(anchor & 63)
        cand &= ~anchor_bit
    return costs


def build_subtasks(
    descriptor: BlockDescriptor,
    kernel_order: np.ndarray,
    anchor_costs: np.ndarray,
    done: int,
    target: int,
) -> list[SubtaskDescriptor]:
    """Chunk the unprocessed anchor positions into ``target`` subtasks.

    Greedy contiguous chunking: walk positions ``[done, K)`` in sweep
    order, closing a chunk once it accumulates its proportional share of
    the remaining estimated cost.  Contiguity keeps the per-subtask
    bitmap re-extraction overhead bounded by the chunk count (not the
    anchor count) and makes the merged clique order equal to the serial
    sweep.  Deterministic: same inputs, same chunks.
    """
    total_positions = len(kernel_order)
    remaining = total_positions - done
    if remaining <= 0:
        return []
    chunks = max(1, min(target, remaining))
    remaining_cost = float(anchor_costs[done:].sum())
    share = remaining_cost / chunks if remaining_cost > 0.0 else 0.0
    subtasks: list[SubtaskDescriptor] = []
    start = done
    accumulated = 0.0
    for position in range(done, total_positions):
        accumulated += float(anchor_costs[position])
        positions_left = total_positions - (position + 1)
        chunks_left = chunks - len(subtasks) - 1
        close = accumulated >= share and chunks_left > 0
        if (close and position + 1 > start) or positions_left == chunks_left:
            if position + 1 > start:
                subtasks.append(
                    _subtask_of(
                        descriptor, kernel_order, start, position + 1, accumulated
                    )
                )
                start = position + 1
                accumulated = 0.0
    if start < total_positions:
        subtasks.append(
            _subtask_of(
                descriptor, kernel_order, start, total_positions, accumulated
            )
        )
    return subtasks


def _subtask_of(
    descriptor: BlockDescriptor,
    kernel_order: np.ndarray,
    start: int,
    stop: int,
    cost: float,
) -> SubtaskDescriptor:
    return SubtaskDescriptor(
        block_id=descriptor.block_id,
        subtask_id=len_prefix_id(start),
        kernel_ids=descriptor.kernel_ids,
        border_ids=descriptor.border_ids,
        visited_ids=descriptor.visited_ids,
        kernel_order=np.asarray(kernel_order, dtype=np.int64),
        start=start,
        stop=stop,
        estimated_cost=cost,
    )


def len_prefix_id(start: int) -> int:
    """Subtask id of the chunk beginning at anchor position ``start``.

    Using the start position itself (rather than a running counter)
    keeps ids stable across re-splits and retries: the fragment covering
    positions ``[s, t)`` is always subtask ``s`` of its block, which is
    what the fault-injection spec ``kill:<block>.<subtask>`` targets.
    """
    return start


def analyze_block_csr_splittable(
    descriptor: BlockDescriptor,
    indptr: np.ndarray,
    indices: np.ndarray,
    labels: list[Node],
    tree: DecisionTree | None = None,
    combo: Combo | None = None,
    scratch: BitmapScratch | None = None,
    probe: bool = False,
    budget_seconds: float | None = None,
    min_clique_size: int = 0,
) -> "BlockReport | SplitResult":
    """Analyse a block, possibly yielding a split instead of a report.

    With ``probe=True`` (the parent's cost threshold flagged the block
    before dispatch) the worker computes the bitmap, features, kernel
    degeneracy order, and per-anchor cost estimates, then returns a
    :class:`SplitResult` immediately — all sweep work is delegated to
    subtasks.  Otherwise the block is analysed normally, except that
    when ``budget_seconds`` is set and the sweep overruns it with at
    least two anchors still pending, the worker stops after the current
    anchor and returns a :class:`SplitResult` carrying the cliques found
    so far — the mid-run re-split that lets an under-estimated straggler
    shed its tail onto idle workers.

    Blocks with fewer than two kernel anchors never split.
    """
    start_time = time.perf_counter()
    block = _materialize_csr(descriptor, indptr, indices, labels, tree, combo, scratch)
    backend, kernel_order = block.backend, block.kernel_order
    num_kernel = len(descriptor.kernel_ids)
    num_candidates = num_kernel + len(descriptor.border_ids)
    splittable = len(kernel_order) >= 2
    if probe and splittable:
        costs = anchor_cost_estimates(block.bitmap, kernel_order, num_candidates)
        partial = BlockReport(
            cliques=make_emitter(block.member_labels).build(),
            combo=block.combo,
            features=block.features,
            seconds=time.perf_counter() - start_time,
            kernel_nodes=num_kernel,
        )
        return SplitResult(
            block_id=descriptor.block_id,
            partial=partial,
            kernel_order=np.asarray(kernel_order, dtype=np.int64),
            done=0,
            anchor_costs=costs,
        )
    candidates = backend.make(range(num_candidates))
    excluded = backend.make(range(num_candidates, backend.n))
    emitter = make_emitter(block.member_labels)
    anchors_skipped = 0
    for position, anchor in enumerate(kernel_order):
        if _anchor_below_floor(backend, anchor, candidates, min_clique_size):
            anchors_skipped += 1
        else:
            _emit_anchored(
                emitter, backend, anchor, candidates, excluded, block.pivot_rule
            )
        candidates = backend.remove(candidates, anchor)
        excluded = backend.add(excluded, anchor)
        done = position + 1
        overrun = (
            budget_seconds is not None
            and splittable
            and len(kernel_order) - done >= 2
            and time.perf_counter() - start_time > budget_seconds
        )
        if overrun:
            costs = anchor_cost_estimates(block.bitmap, kernel_order, num_candidates)
            partial = BlockReport(
                cliques=emitter.build(),
                combo=block.combo,
                features=block.features,
                seconds=time.perf_counter() - start_time,
                kernel_nodes=num_kernel,
                extra=(
                    {"anchors_skipped": float(anchors_skipped)}
                    if anchors_skipped
                    else {}
                ),
            )
            return SplitResult(
                block_id=descriptor.block_id,
                partial=partial,
                kernel_order=np.asarray(kernel_order, dtype=np.int64),
                done=done,
                anchor_costs=costs,
            )
    return BlockReport(
        cliques=emitter.build(),
        combo=block.combo,
        features=block.features,
        seconds=time.perf_counter() - start_time,
        kernel_nodes=num_kernel,
        extra={"anchors_skipped": float(anchors_skipped)} if anchors_skipped else {},
    )


def analyze_subtask_csr(
    subtask: SubtaskDescriptor,
    indptr: np.ndarray,
    indices: np.ndarray,
    labels: list[Node],
    tree: DecisionTree | None = None,
    combo: Combo | None = None,
    scratch: BitmapScratch | None = None,
    min_clique_size: int = 0,
) -> BlockReport:
    """Run one anchor range of a split block's kernel sweep.

    The (candidates, excluded) state is reconstructed from the
    precomputed degeneracy order: anchors before ``subtask.start`` are
    excluded exactly as if this worker had processed them itself, so the
    fragment reports precisely the cliques the serial sweep reports at
    positions ``[start, stop)`` — no more, no fewer.  A
    ``min_clique_size`` floor skips below-floor anchors of the range
    (same test as the unsplit sweep, so fragments stay bit-compatible).
    """
    start_time = time.perf_counter()
    block = _materialize_csr(subtask, indptr, indices, labels, tree, combo, scratch)
    backend = block.backend
    num_kernel = len(subtask.kernel_ids)
    num_candidates = num_kernel + len(subtask.border_ids)
    processed = [int(i) for i in subtask.kernel_order[: subtask.start]]
    processed_set = set(processed)
    candidates = backend.make(
        i for i in range(num_candidates) if i not in processed_set
    )
    excluded = backend.make(list(range(num_candidates, backend.n)) + processed)
    emitter = make_emitter(block.member_labels)
    anchors_skipped = 0
    for position in range(subtask.start, subtask.stop):
        anchor = int(subtask.kernel_order[position])
        if _anchor_below_floor(backend, anchor, candidates, min_clique_size):
            anchors_skipped += 1
        else:
            _emit_anchored(
                emitter, backend, anchor, candidates, excluded, block.pivot_rule
            )
        candidates = backend.remove(candidates, anchor)
        excluded = backend.add(excluded, anchor)
    return BlockReport(
        cliques=emitter.build(),
        combo=block.combo,
        features=block.features,
        seconds=time.perf_counter() - start_time,
        kernel_nodes=subtask.stop - subtask.start,
        extra={"anchors_skipped": float(anchors_skipped)} if anchors_skipped else {},
    )


def merge_fragment_reports(
    block_id: int,
    num_kernel: int,
    total_positions: int,
    fragments: list[tuple[int, int, BlockReport]],
) -> BlockReport:
    """Merge ``(start, stop, report)`` fragments into one block report.

    Exact-once accounting is verified structurally: the fragment ranges
    must tile ``[0, total_positions)`` with no gap and no overlap, which
    — given that each fragment reports exactly its range's cliques — is
    the per-block version of the paper's visited/exclusion-set argument.
    Cliques concatenate in range order, reproducing the serial sweep's
    emission order; ``seconds`` sums to the serial-equivalent time.

    Raises
    ------
    ValueError
        When the fragment ranges do not tile the sweep.
    """
    ordered = sorted(fragments, key=lambda fragment: fragment[0])
    position = 0
    for start, stop, _ in ordered:
        if start != position or stop < start:
            raise ValueError(
                f"block {block_id}: fragment ranges do not tile the kernel "
                f"sweep (expected start {position}, got [{start}, {stop}))"
            )
        position = stop
    if position != total_positions:
        raise ValueError(
            f"block {block_id}: fragments cover {position} of "
            f"{total_positions} anchor positions"
        )
    first = ordered[0][2]
    packed = all(isinstance(report.cliques, CliqueStore) for _, _, report in ordered)
    if packed:
        cliques: "CliqueStore | list[frozenset[Node]]" = CliqueStore.concat(
            [report.cliques for _, _, report in ordered]
        )
    else:
        cliques = [
            clique for _, _, report in ordered for clique in report.cliques
        ]
    seconds = 0.0
    extra: dict[str, float] = {}
    for _, _, report in ordered:
        seconds += report.seconds
        skipped = float(report.extra.get("anchors_skipped", 0.0))
        if skipped:
            extra["anchors_skipped"] = extra.get("anchors_skipped", 0.0) + skipped
        extra["dispatch_bytes"] = extra.get("dispatch_bytes", 0.0) + float(
            report.extra.get("dispatch_bytes", 0.0)
        )
        extra["peak_rss_kb"] = max(
            extra.get("peak_rss_kb", 0.0), float(report.extra.get("peak_rss_kb", 0.0))
        )
        if report.extra.get("retried"):
            extra["retried"] = 1.0
    extra["split"] = 1.0
    extra["subtasks"] = float(len(ordered))
    if "worker_pid" in first.extra:
        extra["worker_pid"] = first.extra["worker_pid"]
    return BlockReport(
        cliques=cliques,
        combo=first.combo,
        features=first.features,
        seconds=seconds,
        kernel_nodes=num_kernel,
        extra=extra,
    )


def analyze_blocks(
    blocks: list[Block],
    tree: DecisionTree | None = None,
    combo: Combo | None = None,
    min_clique_size: int = 0,
) -> tuple[list[frozenset[Node]], list[BlockReport]]:
    """Analyse every block serially; return all cliques plus the reports.

    The distributed runner (:mod:`repro.distributed.runner`) dispatches
    the same per-block work across simulated or real workers; this serial
    form is the reference implementation the others are tested against.
    """
    all_cliques: list[frozenset[Node]] = []
    reports: list[BlockReport] = []
    for block in blocks:
        report = analyze_block(
            block, tree=tree, combo=combo, min_clique_size=min_clique_size
        )
        all_cliques.extend(report.cliques)
        reports.append(report)
    return all_cliques, reports
