"""Sharded, memory-mapped CSR graph storage for million-node graphs.

The in-memory :class:`~repro.graph.Graph` keeps the whole CSR adjacency
resident, which caps honest Figure 8 scaling curves at ~10^5 nodes.  This
module stores a graph as **node-range shards** on disk so walk-hungry
consumers touch only the shards their walk frontier currently occupies:

* :func:`ingest_edge_stream` — a streaming ingester that bins an
  undirected edge stream into per-shard spill files with bounded peak
  memory (O(nodes + chunk + largest shard), never O(edges)), then builds
  each shard's CSR (sorted, deduplicated, self-loops dropped, both edge
  directions emitted so the stored adjacency is symmetric) and writes it
  as an *uncompressed* ``shard_XXXXX.npz`` whose members the reader maps
  straight off disk via the zip-member :func:`numpy.memmap` machinery of
  :mod:`repro.core.serialization`;
* a ``manifest.json`` recording node/edge counts, shard ranges, per-shard
  edge counts and a log2 degree histogram — ``repro graph stats`` prints
  it without touching any shard;
* :class:`ShardedGraph` — the read side: the graph seam of
  :class:`~repro.graph.walk_engine.WalkEngine` (``num_nodes``,
  ``degrees``, ``neighbors``, batched ``neighbor_at`` and ``has_edges``)
  plus ``has_edge`` and ``walk_engine()``, backed by an LRU of resident
  shard mmaps, so resident memory is O(hot shards), not O(edges).  The
  batched reads group their queries by owning shard; the engine never
  sees the shard layout, so walks on a ``ShardedGraph`` are
  byte-identical to walks on its in-memory twin for any shard count.

Layout of a shard directory::

    <dir>/manifest.json      # written last; its presence marks a
                             # completed ingest (atomic tmp+rename)
    <dir>/degrees.npy        # global int64 degree vector (mmap-read)
    <dir>/shard_00000.npz    # indptr / indices / degrees, ZIP_STORED
    ...

Shard ``i`` owns the node range ``[shard_starts[i], shard_starts[i+1])``;
its ``indptr`` is local to that range and its ``indices`` hold *global*
neighbor ids, sorted per row.
"""

from __future__ import annotations

import functools
import json
import mmap as _mmap
import os
from collections import OrderedDict
from pathlib import Path
from typing import Iterable, Iterator

import numpy as np

from ..obs import trace
from ..obs.metrics import get_registry

__all__ = ["ShardedGraph", "ShardCSR", "ingest_edge_stream",
           "ingest_graph", "ingest_edge_file", "edge_chunks_from_csr",
           "MANIFEST_FORMAT"]

#: bump when the on-disk shard layout changes incompatibly
MANIFEST_FORMAT = "sharded-csr-v1"

#: default undirected edges per streamed chunk
DEFAULT_CHUNK_EDGES = 1 << 18


class _ShardMetrics:
    """Lazily created default-registry counters for the shard LRU."""

    _instance = None

    def __init__(self) -> None:
        registry = get_registry()
        self.fetches = registry.counter(
            "sharded_shard_fetches_total",
            "Shard LRU (re-)entries (loads + re-admissions)")
        self.evictions = registry.counter(
            "sharded_shard_evictions_total",
            "Shards evicted from the resident LRU")


def _shard_metrics() -> _ShardMetrics:
    if _ShardMetrics._instance is None:
        _ShardMetrics._instance = _ShardMetrics()
    return _ShardMetrics._instance


# ----------------------------------------------------------------------
# Ingest
# ----------------------------------------------------------------------
def _shard_starts(num_nodes: int, num_shards: int) -> np.ndarray:
    """Uniform node-range shard boundaries (length ``num_shards + 1``)."""
    if num_shards < 1:
        raise ValueError("num_shards must be >= 1")
    if num_shards > max(num_nodes, 1):
        raise ValueError("more shards than nodes")
    return np.linspace(0, num_nodes, num_shards + 1).astype(np.int64)


def _degree_histogram(degrees: np.ndarray) -> dict:
    """Log2-binned degree histogram (bin k counts degrees in
    ``[2^(k-1), 2^k)``; bin 0 counts isolated nodes)."""
    iso = int(np.count_nonzero(degrees == 0))
    pos = degrees[degrees > 0]
    counts = [iso]
    if pos.size:
        bins = np.bincount(
            np.floor(np.log2(pos.astype(np.float64))).astype(np.int64) + 1)
        counts.extend(int(c) for c in bins[1:])  # bin 0 is never hit
    edges = ["0"] + [f"[{1 << (k - 1)},{1 << k})"
                     for k in range(1, len(counts))]
    return {"bins": edges, "counts": counts}


def ingest_edge_stream(chunks: Iterable[np.ndarray], num_nodes: int,
                       out_dir: str | os.PathLike, *,
                       num_shards: int | None = None,
                       nodes_per_shard: int | None = None,
                       overwrite: bool = False) -> "ShardedGraph":
    """Bin an undirected edge stream into node-range CSR shards on disk.

    ``chunks`` yields int arrays of shape ``(k, 2)`` of undirected edge
    endpoints; repeated edges (in either orientation) and self-loops are
    tolerated — the per-shard build deduplicates and drops them, matching
    :class:`~repro.graph.Graph` construction semantics.  Peak memory is
    bounded by one chunk plus the largest shard's directed slots (the
    shard-size knob), never the full edge set: pass 1 streams each chunk's
    two directed orientations into per-shard binary spill files; pass 2
    loads one spill at a time, sorts and deduplicates it, writes the
    shard's ``npz`` and its slice of the global degree vector.

    A directory that already holds a completed ingest (a manifest) is
    refused unless ``overwrite=True``; leftovers of an *interrupted*
    ingest (spills or shards without a manifest) are clobbered freely, so
    re-running a crashed ingest needs no flag.  The manifest is written
    last via tmp+rename, making its presence the commit point.
    """
    out = Path(out_dir)
    if (out / "manifest.json").exists() and not overwrite:
        raise FileExistsError(
            f"{out} already holds a completed shard directory; pass "
            "overwrite=True (CLI: --overwrite) to replace it")
    if num_nodes < 1:
        raise ValueError("num_nodes must be >= 1")
    if num_shards is not None and nodes_per_shard is not None:
        raise ValueError("pass num_shards or nodes_per_shard, not both")
    if nodes_per_shard is not None:
        if nodes_per_shard < 1:
            raise ValueError("nodes_per_shard must be >= 1")
        num_shards = -(-num_nodes // nodes_per_shard)
    if num_shards is None:
        num_shards = 1
    starts = _shard_starts(num_nodes, num_shards)
    out.mkdir(parents=True, exist_ok=True)
    (out / "manifest.json").unlink(missing_ok=True)  # stale commit point

    # -- pass 1: spill each directed orientation to its owner shard ----
    spill_paths = [out / f"spill_{i:05d}.bin" for i in range(num_shards)]
    spills = [open(p, "wb") for p in spill_paths]
    try:
        for chunk in chunks:
            edges = np.ascontiguousarray(chunk, dtype=np.int64)
            if edges.size == 0:
                continue
            if edges.ndim != 2 or edges.shape[1] != 2:
                raise ValueError("edge chunks must have shape (k, 2)")
            if edges.min() < 0 or edges.max() >= num_nodes:
                raise ValueError("edge endpoint out of range")
            keep = edges[:, 0] != edges[:, 1]  # strip self-loops early
            edges = edges[keep]
            directed = np.concatenate([edges, edges[:, ::-1]])
            owner = np.searchsorted(starts[1:], directed[:, 0],
                                    side="right")
            order = np.argsort(owner, kind="stable")
            directed, owner = directed[order], owner[order]
            bounds = np.searchsorted(owner,
                                     np.arange(num_shards + 1))
            for i in range(num_shards):
                lo, hi = bounds[i], bounds[i + 1]
                if hi > lo:
                    spills[i].write(
                        np.ascontiguousarray(directed[lo:hi]).tobytes())
    finally:
        for fh in spills:
            fh.close()

    # -- pass 2: one shard at a time — sort, dedup, CSR, npz -----------
    degrees_path = out / "degrees.npy"
    degrees_mm = np.lib.format.open_memmap(
        degrees_path, mode="w+", dtype=np.int64, shape=(num_nodes,))
    shard_edges: list[int] = []
    max_degree = 0
    hist_counts: np.ndarray | None = None
    for i in range(num_shards):
        lo, hi = int(starts[i]), int(starts[i + 1])
        span = hi - lo
        raw = np.fromfile(spill_paths[i], dtype=np.int64).reshape(-1, 2)
        # Sort by (row, col) through one flat key, then deduplicate —
        # exactly the canonical CSR Graph construction produces.
        keys = (raw[:, 0] - lo) * np.int64(num_nodes) + raw[:, 1]
        keys = np.unique(keys)
        rows = keys // num_nodes
        cols = keys - rows * num_nodes
        deg = np.bincount(rows, minlength=span).astype(np.int64)
        indptr = np.zeros(span + 1, dtype=np.int64)
        np.cumsum(deg, out=indptr[1:])
        np.savez(out / f"shard_{i:05d}.npz",
                 indptr=indptr, indices=cols.astype(np.int64),
                 degrees=deg)
        degrees_mm[lo:hi] = deg
        shard_edges.append(int(cols.size))
        if deg.size:
            max_degree = max(max_degree, int(deg.max()))
        counts = np.asarray(_degree_histogram(deg)["counts"],
                            dtype=np.int64)
        if hist_counts is None:
            hist_counts = counts
        elif counts.size > hist_counts.size:
            counts[:hist_counts.size] += hist_counts
            hist_counts = counts
        else:
            hist_counts[:counts.size] += counts
        spill_paths[i].unlink()
        del raw, keys, rows, cols
    degrees_mm.flush()
    del degrees_mm

    total_directed = int(sum(shard_edges))
    histogram = _degree_histogram(np.zeros(0, dtype=np.int64))
    if hist_counts is not None:
        histogram = {
            "bins": ["0"] + [f"[{1 << (k - 1)},{1 << k})"
                             for k in range(1, hist_counts.size)],
            "counts": [int(c) for c in hist_counts]}
    manifest = {
        "format": MANIFEST_FORMAT,
        "num_nodes": num_nodes,
        "num_edges": total_directed // 2,
        "num_shards": num_shards,
        "shard_starts": [int(s) for s in starts],
        "shard_edges": shard_edges,
        "max_degree": max_degree,
        "degree_histogram": histogram,
    }
    tmp = out / "manifest.json.tmp"
    tmp.write_text(json.dumps(manifest, indent=2))
    tmp.replace(out / "manifest.json")
    return ShardedGraph(out)


def edge_chunks_from_csr(indptr: np.ndarray, indices: np.ndarray,
                         chunk_edges: int = DEFAULT_CHUNK_EDGES,
                         ) -> Iterator[np.ndarray]:
    """Stream the upper-triangular edges of a symmetric CSR in chunks."""
    num_nodes = indptr.size - 1
    rows = np.repeat(np.arange(num_nodes, dtype=np.int64),
                     np.diff(indptr))
    upper = rows < indices
    pairs = np.column_stack([rows[upper], indices[upper]])
    for start in range(0, pairs.shape[0], chunk_edges):
        yield pairs[start:start + chunk_edges]
    if pairs.shape[0] == 0:
        yield np.empty((0, 2), dtype=np.int64)


def ingest_graph(graph, out_dir: str | os.PathLike, *,
                 num_shards: int | None = None,
                 nodes_per_shard: int | None = None,
                 overwrite: bool = False) -> "ShardedGraph":
    """Shard an in-memory :class:`~repro.graph.Graph` (tests, benches)."""
    adj = graph.adjacency
    return ingest_edge_stream(
        edge_chunks_from_csr(adj.indptr.astype(np.int64),
                             adj.indices.astype(np.int64)),
        graph.num_nodes, out_dir, num_shards=num_shards,
        nodes_per_shard=nodes_per_shard, overwrite=overwrite)


def _edge_file_chunks(path: Path,
                      chunk_edges: int) -> Iterator[np.ndarray]:
    """Parse a whitespace-separated ``u v`` edge-list file in chunks."""
    import warnings

    with open(path) as fh:
        while True:
            with warnings.catch_warnings():
                # comment/blank lines don't count toward max_rows —
                # numpy warns about that; chunking handles it fine
                warnings.simplefilter("ignore", UserWarning)
                block = np.loadtxt(fh, dtype=np.int64, comments="#",
                                   max_rows=chunk_edges, ndmin=2)
            if block.size == 0:
                break
            if block.shape[1] < 2:
                raise ValueError(f"{path}: expected 'u v' pairs per line")
            yield block[:, :2]
            if block.shape[0] < chunk_edges:
                break


def ingest_edge_file(path: str | os.PathLike,
                     out_dir: str | os.PathLike, *,
                     num_nodes: int | None = None,
                     num_shards: int | None = None,
                     nodes_per_shard: int | None = None,
                     chunk_edges: int = DEFAULT_CHUNK_EDGES,
                     overwrite: bool = False) -> "ShardedGraph":
    """Ingest a text edge list (``u v`` per line) or a ``save_graph``
    ``.npz`` archive into a shard directory.

    ``num_nodes`` defaults to ``max id + 1`` for text input, discovered
    by one extra streaming pass (npz archives record it themselves).
    """
    src = Path(path)
    if src.suffix == ".npz":
        with np.load(src) as archive:
            if "format" not in archive or \
                    archive["format"].tobytes().decode() != "graph-csr-v1":
                raise ValueError(f"{src} is not a graph archive")
            indptr = archive["indptr"].astype(np.int64)
            indices = archive["indices"].astype(np.int64)
            n = int(archive["num_nodes"][0])
        return ingest_edge_stream(
            edge_chunks_from_csr(indptr, indices, chunk_edges), n,
            out_dir, num_shards=num_shards,
            nodes_per_shard=nodes_per_shard, overwrite=overwrite)
    if num_nodes is None:
        num_nodes = 0
        for chunk in _edge_file_chunks(src, chunk_edges):
            if chunk.size:
                num_nodes = max(num_nodes, int(chunk.max()) + 1)
        if num_nodes == 0:
            raise ValueError(f"{src} holds no edges; pass num_nodes")
    return ingest_edge_stream(
        _edge_file_chunks(src, chunk_edges), num_nodes, out_dir,
        num_shards=num_shards, nodes_per_shard=nodes_per_shard,
        overwrite=overwrite)


# ----------------------------------------------------------------------
# Read side
# ----------------------------------------------------------------------
class ShardCSR:
    """One resident shard: memory-mapped CSR views over its node range.

    ``indptr``/``degrees`` are local to ``[node_start, node_stop)``;
    ``indices`` hold global neighbor ids, sorted per row.
    """

    __slots__ = ("shard_id", "node_start", "node_stop", "indptr",
                 "indices", "degrees")

    def __init__(self, shard_id: int, node_start: int, node_stop: int,
                 arrays: dict[str, np.ndarray]):
        self.shard_id = shard_id
        self.node_start = node_start
        self.node_stop = node_stop
        self.indptr = arrays["indptr"]
        self.indices = arrays["indices"]
        self.degrees = arrays["degrees"]

    def neighbors(self, node: int) -> np.ndarray:
        local = node - self.node_start
        lo, hi = self.indptr[local], self.indptr[local + 1]
        return np.asarray(self.indices[lo:hi])


class ShardedGraph:
    """Read-only sharded graph with an LRU of resident shard mmaps.

    Exposes the surface the walk engine and walk-based model fits need
    — ``num_nodes``, ``num_edges``, ``degrees`` (a read-only memmap),
    ``neighbors``, ``neighbor_at``, ``has_edge``/``has_edges``,
    ``walk_engine()`` — while
    keeping at most ``max_resident`` shards *physically* resident.
    Eviction advises the kernel to release the shard's mapped pages
    (``MADV_DONTNEED``), so physical
    residency stays bounded; the mapping and its zero-copy views are
    kept, making re-entry free — a thrashing walk frontier touches
    every shard every step, so re-entry cost is the constant factor
    that decides out-of-core walk throughput.
    """

    def __init__(self, path: str | os.PathLike, *,
                 max_resident: int = 4):
        if max_resident < 1:
            raise ValueError("max_resident must be >= 1")
        self.path = Path(path)
        manifest_path = self.path / "manifest.json"
        if not manifest_path.exists():
            raise FileNotFoundError(
                f"{self.path} has no manifest.json — not a (completed) "
                "shard directory; build one with `repro ingest`")
        self.manifest = json.loads(manifest_path.read_text())
        if self.manifest.get("format") != MANIFEST_FORMAT:
            raise ValueError(
                f"{manifest_path}: unsupported shard format "
                f"{self.manifest.get('format')!r}")
        self.max_resident = max_resident
        self.shard_starts = np.asarray(self.manifest["shard_starts"],
                                       dtype=np.int64)
        # The ingester cuts equal-width node ranges (last shard may be
        # shorter), which admits a division-based owner lookup — an
        # order of magnitude cheaper than searchsorted on the per-step
        # frontier.  0 disables the fast path for irregular layouts.
        widths = np.diff(self.shard_starts)
        self._uniform_width = int(widths[0]) if (
            widths.size and widths[0] > 0
            and (widths[:-1] == widths[0]).all()
            and widths[-1] <= widths[0]) else 0
        self._degrees = np.load(self.path / "degrees.npy",
                                mmap_mode="r")
        self._residents: OrderedDict[int, ShardCSR] = OrderedDict()
        #: parsed npz member layouts, kept across evictions: re-entering
        #: an evicted shard is then one mmap + view construction, not a
        #: zip re-parse (the LRU would otherwise pay a parse per miss)
        self._layouts: dict[int, dict | None] = {}
        #: long-lived read-only archive mappings; eviction madvises the
        #: pages away instead of unmapping, so re-entry rebuilds nothing
        self._buffers: dict[int, _mmap.mmap] = {}
        #: ShardCSR views over the long-lived mappings (mapped shards
        #: only) — safe to reuse because the buffers never close
        self._shard_cache: dict[int, ShardCSR] = {}
        # Narrow sort keys get numpy's radix path: the per-step frontier
        # sort in _by_shard is ~8x cheaper on uint16 than on int64.
        self._owner_dtype = (np.uint16 if self.num_shards
                             <= np.iinfo(np.uint16).max else np.int64)
        self._walk_engine = None
        self.shard_loads = 0  #: shard (re-)entries, for tests/benches

    @functools.cached_property
    def _indptr(self) -> np.ndarray:
        """Global CSR row offsets, O(nodes) and in memory: shard ``i``'s
        slots are ``indptr[node] - indptr[shard_starts[i]]``, so no
        neighbor read ever touches a shard's own ``indptr``."""
        indptr = np.zeros(self.num_nodes + 1, dtype=np.int64)
        np.cumsum(self._degrees, out=indptr[1:])
        return indptr

    @functools.cached_property
    def _slot_base(self) -> np.ndarray:
        """Global slot of each shard's first neighbor id."""
        return self._indptr[self.shard_starts[:-1]]

    # -- Graph surface -------------------------------------------------
    @property
    def num_nodes(self) -> int:
        return int(self.manifest["num_nodes"])

    @property
    def num_edges(self) -> int:
        return int(self.manifest["num_edges"])

    @property
    def num_shards(self) -> int:
        return int(self.manifest["num_shards"])

    @property
    def degrees(self) -> np.ndarray:
        """Global degree vector (read-only memmap)."""
        return self._degrees

    def degree(self, node: int) -> int:
        return int(self._degrees[node])

    def __repr__(self) -> str:
        return (f"ShardedGraph(n={self.num_nodes}, m={self.num_edges}, "
                f"shards={self.num_shards} @ {self.path})")

    # -- shard routing -------------------------------------------------
    def shard_of(self, nodes) -> np.ndarray:
        """Owning shard id per node (vectorized)."""
        nodes = np.asarray(nodes, dtype=np.int64)
        if self._uniform_width:
            return np.minimum(nodes // self._uniform_width,
                              self.num_shards - 1)
        return np.searchsorted(self.shard_starts[1:-1], nodes,
                               side="right")

    def shard(self, shard_id: int) -> ShardCSR:
        """Resident view of one shard (LRU: hot shards stay resident)."""
        shard = self._residents.get(shard_id)
        if shard is not None:
            self._residents.move_to_end(shard_id)
            return shard
        shard = self._shard_cache.get(shard_id)
        if shard is None:
            with trace.span("shard.fetch", shard=shard_id):
                arrays = self._map_shard(shard_id)
                shard = ShardCSR(shard_id,
                                 int(self.shard_starts[shard_id]),
                                 int(self.shard_starts[shard_id + 1]),
                                 arrays)
            if shard_id in self._buffers:
                # views alias a long-lived mapping: reuse across evictions
                self._shard_cache[shard_id] = shard
        self._residents[shard_id] = shard
        self.shard_loads += 1
        _shard_metrics().fetches.inc()
        while len(self._residents) > self.max_resident:
            self._evict(*self._residents.popitem(last=False))
        return shard

    def _evict(self, shard_id: int, shard: ShardCSR) -> None:
        """Bound physical residency: release the shard's mapped pages
        back to the OS.  The mapping itself survives, so the next
        :meth:`shard` call pays only page re-faults (served from the
        page cache while the shard is hot)."""
        with trace.span("shard.evict", shard=shard_id):
            buf = self._buffers.get(shard_id)
            if buf is not None and hasattr(_mmap, "MADV_DONTNEED"):
                buf.madvise(_mmap.MADV_DONTNEED)
        _shard_metrics().evictions.inc()

    def _map_shard(self, shard_id: int) -> dict[str, np.ndarray]:
        """Read-only views of one shard's arrays, mapped off disk.

        The zip member layout is parsed and mapped once per shard; the
        zero-copy ``frombuffer`` views built here are cached (via
        ``_shard_cache``) for the lifetime of this object.
        """
        from ..core.serialization import _npz_member_layout

        npz_path = self.path / f"shard_{shard_id:05d}.npz"
        if shard_id not in self._layouts:
            self._layouts[shard_id] = _npz_member_layout(npz_path)
        layout = self._layouts[shard_id]
        if layout is None:  # unmappable archive: plain load fallback
            with np.load(npz_path) as archive:
                return {name: archive[name] for name in archive.files}
        buf = self._buffers.get(shard_id)
        if buf is None:
            with open(npz_path, "rb") as fh:
                buf = _mmap.mmap(fh.fileno(), 0,
                                 access=_mmap.ACCESS_READ)
            self._buffers[shard_id] = buf
        return {name: np.frombuffer(
                    buf, dtype=dtype, offset=offset,
                    count=int(np.prod(shape, dtype=np.int64))
                ).reshape(shape)
                for name, (offset, dtype, shape) in layout.items()}

    def resident_shards(self) -> list[int]:
        return list(self._residents)

    # -- adjacency queries ---------------------------------------------
    def neighbors(self, node: int) -> np.ndarray:
        """Sorted global neighbor ids of ``node``."""
        return self.shard(int(self.shard_of(node))).neighbors(int(node))

    def has_edge(self, u: int, v: int) -> bool:
        nbrs = self.neighbors(u)
        pos = np.searchsorted(nbrs, v)
        return bool(pos < nbrs.size and nbrs[pos] == v)

    def _by_shard(self, nodes: np.ndarray
                  ) -> Iterator[tuple[ShardCSR, np.ndarray]]:
        """``(shard, positions)`` groups of the flat ``nodes`` array by
        owning shard, ascending shard id, positions ascending within a
        group; each shard is made resident once per call."""
        owners = self.shard_of(nodes).astype(self._owner_dtype, copy=False)
        order = np.argsort(owners, kind="stable")
        owners = owners[order]
        cuts = np.flatnonzero(np.diff(owners)) + 1
        for lo, hi in zip(np.concatenate([[0], cuts]),
                          np.concatenate([cuts, [nodes.size]])):
            yield self.shard(int(owners[lo])), order[lo:hi]

    def neighbor_at(self, nodes: np.ndarray,
                    offsets: np.ndarray) -> np.ndarray:
        """The ``offsets[i]``-th sorted neighbor of ``nodes[i]``.

        ``nodes`` and ``offsets`` broadcast against each other; every
        offset must lie in ``[0, degree)``.  Slots are addressed through
        the in-memory global row offsets, so no shard's ``indptr`` is
        read; only the neighbor ids of the owning shards are touched.
        """
        nodes, offsets = np.broadcast_arrays(
            np.asarray(nodes, dtype=np.int64),
            np.asarray(offsets, dtype=np.int64))
        shape = nodes.shape
        nodes = nodes.ravel()
        slots = self._indptr[nodes] + offsets.ravel()
        out = np.empty(nodes.size, dtype=np.int64)
        if nodes.size:
            for shard, pos in self._by_shard(nodes):
                out[pos] = shard.indices[
                    slots[pos] - self._slot_base[shard.shard_id]]
        return out.reshape(shape)

    def has_edges(self, u: np.ndarray, v: np.ndarray) -> np.ndarray:
        """Vectorized membership ``out[i] = (u[i], v[i]) in E``.

        Queries are grouped by the shard owning ``u`` and answered by a
        lockstep binary search for ``v`` over ``u``'s sorted row,
        addressed through the global row offsets as in
        :meth:`neighbor_at`: no per-shard key table is built, and only
        the probed neighbor ids are read.
        """
        u, v = np.broadcast_arrays(np.asarray(u, dtype=np.int64),
                                   np.asarray(v, dtype=np.int64))
        shape = u.shape
        u, v = u.ravel(), v.ravel()
        hit = np.zeros(u.size, dtype=bool)
        if u.size:
            row_start = self._indptr[u]
            row_size = self._indptr[u + 1] - row_start
            for shard, pos in self._by_shard(u):
                indices = shard.indices
                lo = row_start[pos] - self._slot_base[shard.shard_id]
                size = row_size[pos]
                end = lo + size
                target = v[pos]
                last = indices.size - 1
                # Lower bound of ``target`` in each row: every round at
                # least halves each row's open range.
                for _ in range(int(size.max()).bit_length()):
                    half = size >> 1
                    mid = lo + half
                    less = (indices[np.minimum(mid, last)] < target) \
                        & (size > 0)
                    lo = np.where(less, mid + 1, lo)
                    size = np.where(less, size - half - 1, half)
                inside = lo < end
                hit[pos[inside]] = indices[lo[inside]] == target[inside]
        return hit.reshape(shape)

    # -- engines / conversion ------------------------------------------
    def walk_engine(self):
        """Cached :class:`~repro.graph.walk_engine.WalkEngine`."""
        if self._walk_engine is None:
            from .walk_engine import WalkEngine

            self._walk_engine = WalkEngine(self)
        return self._walk_engine

    def to_graph(self):
        """Materialise the full in-memory :class:`~repro.graph.Graph`.

        Loads every shard once (O(edges) memory — the thing the sharded
        layout exists to avoid); intended for tests and small graphs.
        """
        import scipy.sparse as sp

        from .graph import Graph

        indptr = self._indptr.copy()
        indices = np.empty(int(indptr[-1]), dtype=np.int64)
        for i in range(self.num_shards):
            shard = self.shard(i)
            lo, hi = indptr[shard.node_start], \
                int(indptr[shard.node_start] + np.asarray(
                    shard.indices).size)
            indices[lo:hi] = np.asarray(shard.indices)
        data = np.ones(indices.size, dtype=np.float64)
        return Graph(sp.csr_matrix((data, indices, indptr),
                                   shape=(self.num_nodes,
                                          self.num_nodes)))

    def stats(self) -> dict:
        """Manifest summary (no shard is loaded resident)."""
        return {
            "path": str(self.path),
            "num_nodes": self.num_nodes,
            "num_edges": self.num_edges,
            "num_shards": self.num_shards,
            "shard_starts": [int(s) for s in self.shard_starts],
            "shard_edges": list(self.manifest["shard_edges"]),
            "max_degree": int(self.manifest["max_degree"]),
            "degree_histogram": self.manifest["degree_histogram"],
        }
