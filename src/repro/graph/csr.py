"""Compressed sparse row (CSR) graph backend.

:class:`CSRGraph` is an immutable, int-relabeled snapshot of a
:class:`~repro.graph.graph.Graph`: vertices become consecutive indices
``0..n-1`` and adjacency is stored in two flat arrays,

* ``indptr`` — length ``n + 1``; the neighbors of vertex ``i`` occupy
  ``adjacency[indptr[i]:indptr[i + 1]]``,
* ``adjacency`` — length ``2·|E|``; neighbor indices, sorted per vertex.

A relabeling layer (``labels`` / ``index_of``) maps between original vertex
objects and indices, so any hashable vertex type works; graphs whose vertices
are already integers simply pay one dict lookup per translation at the API
boundary and nothing inside the traversal loops.

Both arrays are plain Python lists rather than ``array.array``: the hot
h-bounded BFS (:mod:`repro.traversal.array_bfs`) iterates neighbor *slices*,
and list slices hand back already-boxed ints, whereas ``array`` slices would
re-box every element on each visit.  The flat layout — not the element
container — is what buys the locality and the cheap slice-based neighbor
iteration.
"""

from __future__ import annotations

import os
import tempfile
from collections import deque
from typing import Dict, Iterable, List, Optional, Sequence, Tuple, Union

from repro.errors import ParameterError, VertexNotFoundError
from repro.graph.graph import Graph, Vertex
from repro.graph.storage import (
    BLOCK_SUFFIX,
    LazyLabelIndex,
    MmapCSRStorage,
    estimated_payload_bytes,
    resolve_storage,
    sidecar_safe_label,
    write_block_file,
)

#: Cache-locality relabeling strategies accepted by
#: :meth:`CSRGraph.from_graph` (``None`` behaves like ``"none"``).
RELABEL_STRATEGIES = ("none", "degree", "bfs")


class IdentityIndex:
    """``index_of`` mapping for snapshots whose labels are exactly ``0..n-1``.

    Behaves like the dict ``{i: i for i in range(n)}`` for the read
    operations the library performs — ``[]``, ``in``, ``get``, ``len``,
    iteration — without materializing n entries.  Stream-loaded graphs with
    contiguous integer ids use this (paired with a ``range`` for
    ``labels``), making the relabeling layer free at any scale.
    """

    __slots__ = ("n",)

    def __init__(self, n: int) -> None:
        self.n = n

    def __getitem__(self, label: Vertex) -> int:
        if type(label) is int and 0 <= label < self.n:
            return label
        raise KeyError(label)

    def __contains__(self, label: object) -> bool:
        return type(label) is int and 0 <= label < self.n  # type: ignore[operator]

    def get(self, label: Vertex, default: Optional[int] = None
            ) -> Optional[int]:
        """Index of ``label``, or ``default`` when out of range."""
        if type(label) is int and 0 <= label < self.n:
            return label
        return default

    def __len__(self) -> int:
        return self.n

    def __iter__(self):
        return iter(range(self.n))

    def items(self):
        """``(label, index)`` pairs, mirroring ``dict.items``."""
        return ((i, i) for i in range(self.n))


class CSRGraph:
    """Flat-array adjacency snapshot of an undirected :class:`Graph`.

    Instances are produced by :meth:`from_graph` (or the out-of-core
    loaders — see :meth:`from_edge_file`) and never mutated; the peeling
    algorithms express vertex deletions through "alive" masks instead of
    touching the structure (see :mod:`repro.core.backends`).

    The arrays live in one of the storage tiers of
    :mod:`repro.graph.storage`: plain RAM lists (``storage`` attribute
    ``None`` or a :class:`~repro.graph.storage.RamCSRStorage`) or zero-copy
    views into an mmap-backed block file
    (:class:`~repro.graph.storage.MmapCSRStorage`).  Every query below is
    storage-agnostic — both tiers expose int64 elements through integer
    indexing and slice iteration.

    Example
    -------
    >>> from repro.graph import Graph
    >>> csr = CSRGraph.from_graph(Graph([("a", "b"), ("b", "c")]))
    >>> csr.num_vertices, csr.num_edges
    (3, 2)
    >>> csr.neighbors_of_label("b") == {"a", "c"}
    True
    """

    __slots__ = ("indptr", "adjacency", "labels", "index_of",
                 "source_version", "storage")

    def __init__(self, indptr: Sequence[int], adjacency: Sequence[int],
                 labels: Sequence[Vertex],
                 index_of: Optional[Union[Dict[Vertex, int],
                                          IdentityIndex,
                                          LazyLabelIndex]] = None,
                 source_version: Optional[int] = None,
                 storage: Optional[object] = None) -> None:
        self.indptr = indptr
        self.adjacency = adjacency
        self.labels = labels
        self.index_of: Union[Dict[Vertex, int], IdentityIndex,
                             LazyLabelIndex] = (
            index_of if index_of is not None
            else {v: i for i, v in enumerate(labels)})
        #: ``Graph.version`` of the source graph at snapshot time (None for
        #: hand-assembled instances).  Lets consumers detect snapshots taken
        #: before a mutation even when |V| and |E| happen to match.
        self.source_version = source_version
        #: Storage backend owning the arrays (None for plain RAM lists).
        #: Close it (:meth:`close`) to release an mmap-backed snapshot's
        #: file mapping.
        self.storage = storage

    @classmethod
    def from_graph(cls, graph: Graph,
                   relabel: Optional[str] = None,
                   storage: str = "ram",
                   storage_path: Optional[str] = None,
                   storage_dir: Optional[str] = None) -> "CSRGraph":
        """Relabel ``graph`` to ``0..n-1`` and pack adjacency into flat arrays.

        By default, vertex order follows the graph's (deterministic)
        insertion order; neighbor indices are sorted per vertex, which keeps
        traversal order deterministic and slightly improves locality.

        ``relabel`` selects a cache-locality permutation instead (see
        :func:`relabel_order`): ``"degree"`` enumerates vertices in
        degree-descending order, ``"bfs"`` in a breadth-first order seeded at
        the highest-degree vertex of each component.  Either way the
        ``labels`` / ``index_of`` pair *is* the inverse mapping, so results
        expressed in label space (core numbers, h-degrees, counters) are
        unaffected — only the internal index enumeration (and therefore
        traversal order and memory-access pattern) changes.

        ``storage`` selects the tier the arrays end up in: ``"ram"`` (the
        default — plain lists), ``"mmap"`` (the build is spilled to a block
        file and re-opened as zero-copy mappings), or ``"auto"`` (mmap only
        when the estimated payload clears ``KH_CORE_MMAP_THRESHOLD``).
        ``storage_path`` persists the block file at a chosen location
        (with a labels sidecar, so :func:`~repro.graph.storage.load_csr`
        can re-open it later); otherwise an unlinked-on-close temp file
        under ``storage_dir`` is used.  Note the source graph is already
        in RAM here — the spill bounds the *decomposition's* footprint,
        not the build's; for end-to-end bounded loading use
        :meth:`from_edge_file`.
        """
        labels = relabel_order(graph, relabel)
        index_of = {v: i for i, v in enumerate(labels)}
        indptr: List[int] = [0] * (len(labels) + 1)
        adjacency: List[int] = []
        for i, v in enumerate(labels):
            neighbors = sorted(index_of[u] for u in graph.neighbors(v))
            adjacency.extend(neighbors)
            indptr[i + 1] = len(adjacency)
        resolved = resolve_storage(
            storage, estimated_payload_bytes(len(labels),
                                             len(adjacency) // 2))
        if resolved == "ram":
            return cls(indptr, adjacency, labels, index_of,
                       source_version=graph.version)
        return cls._spill_to_mmap(indptr, adjacency, labels, index_of,
                                  graph.version, storage_path, storage_dir)

    @classmethod
    def _spill_to_mmap(cls, indptr: List[int], adjacency: List[int],
                       labels: List[Vertex], index_of: Dict[Vertex, int],
                       source_version: Optional[int],
                       storage_path: Optional[str],
                       storage_dir: Optional[str]) -> "CSRGraph":
        """Write built arrays to a block file and re-open them mmap-backed."""
        identity = all(
            type(v) is int and v == i for i, v in enumerate(labels))
        persist = storage_path is not None
        if persist:
            path = storage_path
        else:
            fd, path = tempfile.mkstemp(suffix=BLOCK_SUFFIX,
                                        dir=storage_dir,
                                        prefix="kh-core-csr-")
            os.close(fd)
        sidecar: Optional[List[Vertex]] = None
        volatile = False
        if not identity:
            if persist and not all(sidecar_safe_label(v) for v in labels):
                raise ParameterError(
                    "cannot persist this snapshot: a vertex label does not "
                    "round-trip through the labels sidecar (only ints and "
                    "whitespace-free non-numeric strings do)"
                )
            if persist:
                sidecar = labels
            else:
                volatile = True  # labels stay on this object, in RAM
        write_block_file(path, indptr, adjacency, labels=sidecar,
                         volatile_labels=volatile)
        mm = MmapCSRStorage(path, delete_on_close=not persist)
        return cls(mm.indptr, mm.adjacency, labels, index_of,
                   source_version=source_version, storage=mm)

    @classmethod
    def from_edge_file(cls, path: str,
                       storage: str = "auto",
                       out_path: Optional[str] = None,
                       max_ram_bytes: Optional[int] = None,
                       tmp_dir: Optional[str] = None) -> "CSRGraph":
        """Stream an edge-list file straight into a CSR snapshot.

        Runs the two-pass external-sort loader
        (:func:`repro.graph.stream_load.stream_load`) — the graph is never
        materialized as Python dicts, so peak RSS is bounded by
        ``max_ram_bytes`` regardless of file size.  Vertex ids are assigned
        indices in sorted order (ints first, ascending, then strings), not
        file order.  ``storage`` decides where the result lives: ``"mmap"``
        keeps the block file mapped (at ``out_path``, or a temp file
        deleted on close), ``"ram"`` materializes the arrays into lists and
        discards the temp block, ``"auto"`` spills to mmap only for
        payloads clearing ``KH_CORE_MMAP_THRESHOLD``.
        """
        from repro.graph.stream_load import stream_load

        resolved = resolve_storage(storage,
                                   _edge_file_payload_estimate(path))
        if resolved == "mmap":
            return stream_load(path, out_path=out_path,
                               max_ram_bytes=max_ram_bytes,
                               tmp_dir=tmp_dir)
        csr = stream_load(path, out_path=None, max_ram_bytes=max_ram_bytes,
                          tmp_dir=tmp_dir)
        try:
            return csr.to_ram()
        finally:
            csr.close()

    def rebuilt(self, graph: Graph,
                touched: Optional[Iterable[Vertex]] = None,
                relabel: Optional[str] = None) -> "CSRGraph":
        """Return a snapshot of ``graph`` reusing as much of this one as possible.

        ``touched`` is the set of vertex labels whose adjacency may differ
        from this snapshot (the endpoints of changed edges plus any new
        vertices); rows of untouched vertices are copied from the existing
        flat arrays without re-sorting, and the label/index mapping is reused
        verbatim.  New vertices are appended, so **indices of existing
        vertices are stable across the rebuild** — the property the dynamic
        maintenance engine relies on to keep handle-keyed state valid.
        (The delta path therefore preserves whatever enumeration order this
        snapshot was built with, relabeled or not.)

        Falls back to a full :meth:`from_graph` build when ``touched`` is
        ``None`` or when a vertex of this snapshot has been removed (index
        stability is impossible then); ``relabel`` is the permutation to
        re-apply on that path, so an engine's requested cache-locality
        layout survives the fallback.  An mmap-backed snapshot always takes
        the full-rebuild path — its arrays are immutable file views — and
        the rebuild lands in RAM: a graph under mutation is dict-resident
        anyway, so the out-of-core tier is for static snapshots.
        """
        if touched is None or self.storage_kind != "ram":
            return CSRGraph.from_graph(graph, relabel=relabel)
        touched_set = {v for v in touched if v in graph}
        if graph.num_vertices < len(self.labels) or any(
                label not in graph for label in self.labels):
            return CSRGraph.from_graph(graph, relabel=relabel)

        index_of = self.index_of
        added = [v for v in graph.vertices() if v not in index_of]
        if added:
            labels = self.labels + added
            index_of = dict(index_of)
            for offset, v in enumerate(added, start=len(self.labels)):
                index_of[v] = offset
            touched_set.update(added)
        else:
            labels = self.labels

        # Untouched rows are copied span-wise: one bulk slice per maximal
        # run of untouched rows (typically two spans around two touched
        # endpoints), with their indptr entries shifted by the span's
        # offset delta, instead of a Python-level loop over every row.
        old_indptr, old_adjacency = self.indptr, self.adjacency
        old_count = len(self.labels)
        indptr: List[int] = [0] * (len(labels) + 1)
        adjacency: List[int] = []
        next_row = 0

        def copy_span(stop: int) -> None:
            """Bulk-copy untouched old rows ``next_row .. stop - 1``."""
            nonlocal next_row
            if stop <= next_row:
                return
            delta = len(adjacency) - old_indptr[next_row]
            adjacency.extend(old_adjacency[old_indptr[next_row]:
                                           old_indptr[stop]])
            for j in range(next_row, stop):
                indptr[j + 1] = old_indptr[j + 1] + delta
            next_row = stop

        for i in sorted(index_of[v] for v in touched_set):
            copy_span(min(i, old_count))
            adjacency.extend(sorted(index_of[u]
                                    for u in graph.neighbors(labels[i])))
            indptr[i + 1] = len(adjacency)
            next_row = i + 1
        copy_span(old_count)
        return CSRGraph(indptr, adjacency, labels, index_of,
                        source_version=graph.version)

    # ------------------------------------------------------------------ #
    # storage tier
    # ------------------------------------------------------------------ #
    @property
    def storage_kind(self) -> str:
        """Where the arrays live: ``"ram"`` or ``"mmap"``."""
        if self.storage is None:
            return "ram"
        return self.storage.kind  # type: ignore[attr-defined]

    def to_ram(self) -> "CSRGraph":
        """Materialize this snapshot's arrays into plain RAM lists.

        Element-for-element identical to the source — indptr, adjacency,
        labels and index mapping are preserved bit-for-bit, so a
        decomposition of the copy matches one of the original exactly
        (cores, removal orders, counters).  Returns ``self`` when already
        RAM-resident.
        """
        if self.storage_kind == "ram" and isinstance(self.indptr, list):
            return self
        labels = self.labels
        if not isinstance(labels, range):
            labels = list(labels)
        return CSRGraph(list(self.indptr), list(self.adjacency), labels,
                        self.index_of, source_version=self.source_version)

    def close(self) -> None:
        """Release the storage backend, if any (no-op for RAM snapshots).

        After closing an mmap-backed snapshot its array views are invalid;
        temp-file-backed storages also unlink their block file here.
        """
        if self.storage is not None:
            self.storage.close()  # type: ignore[attr-defined]

    # ------------------------------------------------------------------ #
    # queries (index space)
    # ------------------------------------------------------------------ #
    @property
    def num_vertices(self) -> int:
        """Number of vertices |V|."""
        return len(self.labels)

    @property
    def num_edges(self) -> int:
        """Number of undirected edges |E|."""
        return len(self.adjacency) // 2

    def degree(self, index: int) -> int:
        """Degree of the vertex at ``index``."""
        return self.indptr[index + 1] - self.indptr[index]

    def neighbors(self, index: int) -> List[int]:
        """Neighbor indices of ``index`` (a fresh list; sorted)."""
        return self.adjacency[self.indptr[index]:self.indptr[index + 1]]

    def degrees(self) -> List[int]:
        """Degree of every vertex, indexed by vertex index."""
        indptr = self.indptr
        return [indptr[i + 1] - indptr[i] for i in range(len(self.labels))]

    # ------------------------------------------------------------------ #
    # relabeling layer
    # ------------------------------------------------------------------ #
    def index(self, label: Vertex) -> int:
        """Return the index of the original vertex ``label``."""
        try:
            return self.index_of[label]
        except KeyError:
            raise VertexNotFoundError(label) from None

    def label(self, index: int) -> Vertex:
        """Return the original vertex stored at ``index``."""
        return self.labels[index]

    def neighbors_of_label(self, label: Vertex) -> set:
        """Neighbor *labels* of an original vertex (convenience/testing)."""
        return {self.labels[i] for i in self.neighbors(self.index(label))}

    def edges(self) -> Iterable[Tuple[int, int]]:
        """Iterate each undirected edge once, as an (index, index) pair."""
        indptr, adjacency = self.indptr, self.adjacency
        for v in range(len(self.labels)):
            for position in range(indptr[v], indptr[v + 1]):
                u = adjacency[position]
                if v < u:
                    yield (v, u)

    def induced_edges(self, indices: Iterable[int]) -> List[Tuple[int, int]]:
        """Edges of the subgraph induced by ``indices``, each once as ``(i, j)``
        with ``i < j``, in deterministic (sorted) order.

        Reads only the frozen flat arrays, so the result is guaranteed to
        describe this snapshot's epoch — the primitive the query service's
        subgraph-extraction endpoint is built on.
        """
        members = set(indices)
        indptr, adjacency = self.indptr, self.adjacency
        edges: List[Tuple[int, int]] = []
        for i in sorted(members):
            for j in adjacency[indptr[i]:indptr[i + 1]]:
                if j > i and j in members:
                    edges.append((i, j))
        return edges

    def __repr__(self) -> str:
        return f"CSRGraph(|V|={self.num_vertices}, |E|={self.num_edges})"


def relabel_order(graph: Graph, relabel: Optional[str]) -> List[Vertex]:
    """Vertex enumeration order for a CSR build, per ``relabel`` strategy.

    * ``None`` / ``"none"`` — the graph's insertion order (the historical
      behavior).
    * ``"degree"`` — degree-descending, ties broken by insertion order.
      Hubs (and thus the most-gathered adjacency rows and ``seen`` slots)
      land at small indices, clustering the hot rows of skewed graphs.
    * ``"bfs"`` — breadth-first order seeded at the highest-degree vertex of
      each component (neighbors expanded degree-descending, ties by
      insertion order).  Neighboring vertices get nearby indices, which
      turns the frontier gathers of mesh-like graphs into near-sequential
      scans.

    The order is deterministic for any hashable vertex type — ties never
    compare vertex labels, only insertion positions.
    """
    vertices = list(graph.vertices())
    if relabel is None or relabel == "none":
        return vertices
    if relabel not in RELABEL_STRATEGIES:
        raise ParameterError(
            f"unknown relabel strategy {relabel!r}; expected one of "
            f"{RELABEL_STRATEGIES}"
        )
    position = {v: i for i, v in enumerate(vertices)}

    def rank(v: Vertex) -> Tuple[int, int]:
        """Sort key: degree-descending, ties by insertion position."""
        return (-graph.degree(v), position[v])

    by_degree = sorted(vertices, key=rank)
    if relabel == "degree":
        return by_degree

    order: List[Vertex] = []
    seen = set()
    for start in by_degree:
        if start in seen:
            continue
        seen.add(start)
        queue = deque((start,))
        while queue:
            v = queue.popleft()
            order.append(v)
            for u in sorted(graph.neighbors(v), key=rank):
                if u not in seen:
                    seen.add(u)
                    queue.append(u)
    return order


def _edge_file_payload_estimate(path: str) -> int:
    """Rough CSR payload estimate for an edge-list file, from its size.

    A text edge line ("u v\\n") is 4+ bytes and contributes 16 bytes of
    adjacency, so the file's own size is a conservative same-order proxy —
    good enough for the coarse ram-vs-mmap ``storage="auto"`` decision,
    which only has to be right about orders of magnitude.
    """
    try:
        return os.path.getsize(path)
    except OSError:
        return 0


def csr_suitable(graph: Graph) -> bool:
    """Return True if ``graph`` is "integer-friendly" for the auto backend.

    The CSR backend works for any hashable vertex type, but ``backend="auto"``
    only opts in when every vertex is a plain ``int`` (the common case for
    the synthetic generators and SNAP-style edge lists), where the relabeling
    layer is guaranteed cheap and lossless.  Explicit ``backend="csr"``
    requests bypass this gate entirely.
    """
    return all(type(v) is int for v in graph.vertices())
