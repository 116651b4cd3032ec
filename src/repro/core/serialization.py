"""Persistence for graphs and fitted generative models.

Two artifact families live here:

* :func:`save_graph` / :func:`load_graph` — any :class:`~repro.graph.Graph`
  as a compressed ``.npz`` (CSR structure only; edge weights are binary).
  This is the storage format of the experiment Runner's disk cache
  (:mod:`repro.experiments`).
* :func:`save_model` / :func:`load_model` — any fitted registry model
  (FairGen and its ablations, ER, BA, GAE, NetGAN, TagGen, GraphRNN)
  without the training pipeline: the archive stores the model class, its
  constructor configuration and its flat ``state_dict`` arrays.  Loading
  against the original graph restores a model that can ``generate`` and
  ``propose_edges`` (optimizer and curriculum state are not preserved —
  reloading is for inference, not for resuming training).  This is how
  the Runner's artifact cache satisfies ``need_model=True`` with zero
  refits and ships fitted models across processes.
"""

from __future__ import annotations

import json
import os

import numpy as np

from ..graph import Graph
from ..models import (BAModel, ERModel, GAEModel,
                      GraphGenerativeModel, GraphRNN, NetGAN, TagGen)
from .fairgen import FairGen

__all__ = ["save_graph", "load_graph", "save_model", "load_model",
           "can_serialize"]


def save_graph(graph: Graph, path: str | os.PathLike) -> None:
    """Serialise a graph to a compressed ``.npz`` archive.

    Only the CSR structure is stored (indptr + indices); adjacency
    weights are binary by construction, so the archive is roughly the
    size of the edge list.
    """
    adj = graph.adjacency
    np.savez_compressed(
        path,
        format=np.frombuffer(b"graph-csr-v1", dtype=np.uint8),
        num_nodes=np.array([graph.num_nodes], dtype=np.int64),
        indptr=adj.indptr.astype(np.int64),
        indices=adj.indices.astype(np.int64))


def load_graph(path: str | os.PathLike) -> Graph:
    """Restore a graph saved by :func:`save_graph`."""
    import scipy.sparse as sp

    with np.load(path) as archive:
        if "format" not in archive:
            raise ValueError(f"{path} is not a graph archive")
        fmt = archive["format"].tobytes().decode()
        if fmt != "graph-csr-v1":
            raise ValueError(f"{path}: unsupported graph archive "
                             f"format {fmt!r}")
        n = int(archive["num_nodes"][0])
        indptr = archive["indptr"]
        indices = archive["indices"]
    data = np.ones(indices.size, dtype=np.float64)
    return Graph(sp.csr_matrix((data, indices, indptr), shape=(n, n)))


#: bump when the model archive layout changes incompatibly
MODEL_FORMAT = "model-npz-v1"

#: every serialisable model class, keyed by ``type(model).__name__``
_MODEL_CLASSES: dict[str, type[GraphGenerativeModel]] = {
    cls.__name__: cls
    for cls in (FairGen, ERModel, BAModel, GAEModel, NetGAN, TagGen,
                GraphRNN)}


def can_serialize(model: GraphGenerativeModel) -> bool:
    """Whether :func:`save_model` / :func:`load_model` cover ``model``.

    The loader has to rebuild the exact class from the archive, so only
    the known model classes round-trip; subclasses and third-party
    registry models don't (the Runner degrades them to graph-only
    caching instead of failing the run).
    """
    return _MODEL_CLASSES.get(type(model).__name__) is type(model)


def save_model(model: GraphGenerativeModel, path: str | os.PathLike, *,
               compress: bool = True) -> None:
    """Serialise any fitted registry model to an ``.npz`` archive.

    The archive records the model class, its display ``name`` (FairGen
    ablation variants share one class), the ``config_dict`` constructor
    parameters and the flat ``state_dict`` arrays.

    ``compress=False`` stores the arrays uncompressed (``ZIP_STORED``),
    which is what lets ``load_model(..., mmap=True)`` map the weight
    arrays straight off disk — the layout the serving daemon's model
    LRU wants.  Compressed archives stay the default for the experiment
    cache, where disk footprint wins.
    """
    if not model.is_fitted:
        raise ValueError("only fitted models can be saved")
    if not can_serialize(model):
        raise ValueError(f"{type(model).__name__} is not a registered "
                         "serialisable model class")
    header = {"class": type(model).__name__, "name": model.name,
              "num_nodes": model._fitted_graph.num_nodes,
              "config": model.config_dict()}
    payload: dict[str, np.ndarray] = {
        "format": np.frombuffer(MODEL_FORMAT.encode(), dtype=np.uint8),
        "header_json": np.frombuffer(json.dumps(header).encode(),
                                     dtype=np.uint8),
    }
    for name, value in model.state_dict().items():
        payload[f"state/{name}"] = np.asarray(value)
    if compress:
        np.savez_compressed(path, **payload)
    else:
        np.savez(path, **payload)


def _npz_member_layout(
        path: str | os.PathLike
) -> dict[str, tuple[int, np.dtype, tuple]] | None:
    """``{name: (data_offset, dtype, shape)}`` of an uncompressed npz.

    The layout is all a reader needs to map the archive's members in
    place.  Returns ``None`` when the archive cannot be mapped
    (compressed members, object or Fortran-order arrays).
    """
    import zipfile

    from numpy.lib import format as npy_format

    layout: dict[str, tuple[int, np.dtype, tuple]] = {}
    with zipfile.ZipFile(path) as zf:
        for info in zf.infolist():
            if info.compress_type != zipfile.ZIP_STORED:
                return None
            # Resolve the payload offset from the member's *local* file
            # header (its name/extra lengths may differ from the central
            # directory's copy).
            with open(path, "rb") as raw:
                raw.seek(info.header_offset)
                local = raw.read(30)
            if len(local) < 30 or local[:4] != b"PK\x03\x04":
                return None
            name_len = int.from_bytes(local[26:28], "little")
            extra_len = int.from_bytes(local[28:30], "little")
            data_start = info.header_offset + 30 + name_len + extra_len
            with zf.open(info.filename) as member:
                version = npy_format.read_magic(member)
                if version == (1, 0):
                    shape, fortran, dtype = \
                        npy_format.read_array_header_1_0(member)
                elif version == (2, 0):
                    shape, fortran, dtype = \
                        npy_format.read_array_header_2_0(member)
                else:
                    return None
                if fortran or dtype.hasobject:
                    return None
                offset = data_start + member.tell()
            key = info.filename.removesuffix(".npy")
            layout[key] = (offset, dtype, tuple(shape))
    return layout


def _mmap_npz(path: str | os.PathLike) -> dict[str, np.ndarray] | None:
    """Map every array of an uncompressed ``.npz`` straight off disk.

    ``np.load(..., mmap_mode=...)`` silently ignores the mmap request
    for zip archives, so this maps the members by hand via
    :func:`_npz_member_layout` and wraps each data region in a
    read-only :class:`numpy.memmap`.  Returns ``None`` when the archive
    cannot be mapped so the caller can fall back to a normal in-memory
    load.
    """
    layout = _npz_member_layout(path)
    if layout is None:
        return None
    return {name: np.memmap(path, dtype=dtype, mode="r",
                            offset=offset, shape=shape)
            for name, (offset, dtype, shape) in layout.items()}


def load_model(path: str | os.PathLike, graph: Graph, *,
               mmap: bool = False) -> GraphGenerativeModel:
    """Restore a model saved by :func:`save_model` for inference.

    ``graph`` must be the graph the model was fitted on (generation
    needs its size, edge count and — for FairGen — protected volume).

    With ``mmap=True`` the weight arrays of an uncompressed archive
    (``save_model(..., compress=False)``) are memory-mapped read-only
    instead of copied into the heap, so a serving process can keep many
    models resident for the cost of the page cache.  The restored
    parameters alias the mapping and are therefore immutable — the
    model can generate and score but any attempt to train it raises.
    Compressed archives fall back to a normal in-memory load.
    """
    members = _mmap_npz(path) if mmap else None
    if members is None:
        with np.load(path) as archive:
            members = {name: archive[name] for name in archive.files}
    if "format" not in members or "header_json" not in members:
        raise ValueError(f"{path} is not a model archive")
    fmt = np.asarray(members["format"]).tobytes().decode()
    if fmt != MODEL_FORMAT:
        raise ValueError(f"{path}: unsupported model archive "
                         f"format {fmt!r}")
    header = json.loads(np.asarray(members["header_json"]).tobytes().decode())
    state = {name.removeprefix("state/"): value
             for name, value in members.items() if name.startswith("state/")}

    cls = _MODEL_CLASSES.get(header["class"])
    if cls is None:
        raise ValueError(f"{path}: unknown model class "
                         f"{header['class']!r}")
    if header["num_nodes"] != graph.num_nodes:
        raise ValueError("graph does not match the saved model "
                         f"({header['num_nodes']} vs {graph.num_nodes} "
                         "nodes)")
    model = cls.from_config_dict(header["config"])
    model.name = header["name"]
    model._fitted_graph = graph
    model.load_state_dict(state)
    return model
