"""Interned, integer-indexed form of a :class:`RetimingGraph` (CSR).

The dict-based graph is ideal for construction and transformation but
terrible for the retiming hot loops: every CP/Δ sweep, every SPFA
relaxation and every min-cost-flow build re-hashes vertex-name strings
millions of times.  ``compile_graph`` walks the graph once and produces
flat integer arrays:

* ``names`` / ``index`` — the vertex interning table (ids follow the
  graph's vertex insertion order, so kernel iteration order matches the
  dict sweep :func:`repro.retime.feas.compute_delta` exactly, and
  results never depend on string hashing);
* ``eu/ev/ew`` — per-edge source / target / weight arrays in edge
  *insertion* order (the order ``graph.edges.values()`` yields, which
  the dict sweep iterates);
* CSR adjacency (``out_start``/``out_edges`` and ``in_start`` /
  ``in_edges``) for incremental cone traversals.

When numpy is importable the edge arrays are mirrored as ``int64``
ndarrays so per-sweep retimed-weight evaluation vectorises; otherwise
the kernels fall back to the plain list form (same results, smaller
constant factor win).

A compiled graph is a *snapshot*: mutating the source graph (including
in-place ``edge.w`` edits, which mc-steps perform) invalidates it.
Callers compile once per solver invocation, which is exactly the
pattern the retiming loops need — one compile, thousands of sweeps.

Interning across processes
--------------------------
A snapshot is pure flat data, so it can cross process boundaries
without pickling: :meth:`CompiledGraph.to_buffer` packs every array
into one contiguous ``bytes`` blob and :func:`graph_from_buffer`
reconstructs a graph whose numpy mirrors are **zero-copy views into
the buffer** — point it at a ``multiprocessing.shared_memory`` mapping
and every worker shares one physical copy of the CSR arrays.

The service layer uses this through the **intern-seed cache**: the
serving front-end compiles a design's work graph once, publishes the
buffer in a shared-memory segment, and workers call
:func:`seed_intern` with the attached snapshot.  A later
:func:`compile_graph` call on a graph tagged with the matching
``intern_key`` attribute returns the seeded snapshot instead of
re-walking the dict graph.  Seeds are consumed at most once per graph
*instance* (recompiles of a mutated graph always take the full path),
and a seed whose vertex/edge counts disagree with the tagged graph is
ignored — results are bit-identical with or without seeding, which
``tests/service/test_interning.py`` enforces field by field.
"""

from __future__ import annotations

import json
import struct

from .. import obs
from ..graph.retiming_graph import HOST, RetimingGraph

try:  # pragma: no cover - exercised implicitly everywhere
    import numpy as _np
except ImportError:  # pragma: no cover - the fallback path is tested via lists
    _np = None

#: Module-level switch so tests can force the list fallback.
HAVE_NUMPY = _np is not None


class CompiledGraph:
    """Flat integer-array snapshot of a retiming graph."""

    __slots__ = (
        "n",
        "m",
        "names",
        "index",
        "delay",
        "movable",
        "is_mirror",
        "host",
        "through_host",
        "eu",
        "ev",
        "ew",
        "src_host",
        "out_start",
        "out_edges",
        "in_start",
        "in_edges",
        "eu_np",
        "ev_np",
        "ew_np",
        "src_host_np",
    )

    def r_array(self, r: dict[str, int] | None) -> list[int]:
        """Densify a (possibly partial) retiming dict into an id-indexed list."""
        out = [0] * self.n
        if r:
            index = self.index
            for name, value in r.items():
                i = index.get(name)
                if i is not None and value:
                    out[i] = value
        return out

    def r_dict(self, r: list[int]) -> dict[str, int]:
        """Inverse of :meth:`r_array`, preserving vertex insertion order."""
        names = self.names
        return {names[i]: r[i] for i in range(self.n)}

    # -- flat-buffer interning (shared-memory transport) ---------------

    def to_buffer(self) -> bytes:
        """Pack the snapshot into one contiguous ``bytes`` blob.

        Requires numpy (the list fallback has no flat representation
        worth sharing).  Layout: an 8-byte little-endian header length,
        a JSON header (scalars + section lengths), then 8-byte-aligned
        sections: NUL-joined vertex names, ``float64`` delays, three
        ``uint8`` flag arrays, and the seven ``int64`` edge/CSR arrays.
        """
        if _np is None:  # pragma: no cover - numpy is a hard dep in CI
            raise RuntimeError("CompiledGraph.to_buffer requires numpy")
        names_blob = "\x00".join(self.names).encode()
        sections = [
            names_blob,
            _np.asarray(self.delay, dtype=_np.float64).tobytes(),
            bytes(self.movable),
            bytes(self.is_mirror),
            bytes(self.src_host),
            _np.asarray(self.eu, dtype=_np.int64).tobytes(),
            _np.asarray(self.ev, dtype=_np.int64).tobytes(),
            _np.asarray(self.ew, dtype=_np.int64).tobytes(),
            _np.asarray(self.out_start, dtype=_np.int64).tobytes(),
            _np.asarray(self.out_edges, dtype=_np.int64).tobytes(),
            _np.asarray(self.in_start, dtype=_np.int64).tobytes(),
            _np.asarray(self.in_edges, dtype=_np.int64).tobytes(),
        ]
        header = json.dumps(
            {
                "v": 1,
                "n": self.n,
                "m": self.m,
                "host": self.host,
                "through_host": bool(self.through_host),
                "lens": [len(s) for s in sections],
            }
        ).encode()
        parts = [struct.pack("<Q", len(header)), header]
        offset = 8 + len(header)
        for section in sections:
            pad = (-offset) % 8
            parts.append(b"\x00" * pad)
            parts.append(section)
            offset += pad + len(section)
        return b"".join(parts)


def graph_from_buffer(buffer) -> CompiledGraph:
    """Rebuild a :class:`CompiledGraph` from :meth:`~CompiledGraph.to_buffer`.

    *buffer* may be ``bytes`` or a ``memoryview`` over a shared-memory
    mapping; the numpy edge mirrors are zero-copy views into it (keep
    the mapping alive as long as the graph), while the list forms are
    materialised per process.
    """
    if _np is None:  # pragma: no cover - numpy is a hard dep in CI
        raise RuntimeError("graph_from_buffer requires numpy")
    view = memoryview(buffer)
    (header_len,) = struct.unpack("<Q", bytes(view[:8]))
    header = json.loads(bytes(view[8:8 + header_len]).decode())
    if header.get("v") != 1:
        raise ValueError(f"unknown compiled-graph buffer version {header.get('v')!r}")
    cg = CompiledGraph()
    cg.n = n = header["n"]
    cg.m = m = header["m"]
    cg.host = header["host"]
    cg.through_host = header["through_host"]

    sections = []
    offset = 8 + header_len
    for length in header["lens"]:
        offset += (-offset) % 8
        sections.append(view[offset:offset + length])
        offset += length
    (names_blob, delay, movable, is_mirror, src_host,
     eu, ev, ew, out_start, out_edges, in_start, in_edges) = sections

    cg.names = bytes(names_blob).decode().split("\x00") if n else []
    cg.index = {name: i for i, name in enumerate(cg.names)}
    cg.delay = _np.frombuffer(delay, dtype=_np.float64).tolist()
    cg.movable = bytearray(movable)
    cg.is_mirror = bytearray(is_mirror)
    cg.src_host = bytearray(src_host)
    if m:
        cg.eu_np = _np.frombuffer(eu, dtype=_np.int64)
        cg.ev_np = _np.frombuffer(ev, dtype=_np.int64)
        cg.ew_np = _np.frombuffer(ew, dtype=_np.int64)
        cg.src_host_np = _np.frombuffer(src_host, dtype=_np.uint8) != 0
    else:
        cg.eu_np = cg.ev_np = cg.ew_np = cg.src_host_np = None
    cg.eu = _np.frombuffer(eu, dtype=_np.int64).tolist()
    cg.ev = _np.frombuffer(ev, dtype=_np.int64).tolist()
    cg.ew = _np.frombuffer(ew, dtype=_np.int64).tolist()
    cg.out_start = _np.frombuffer(out_start, dtype=_np.int64).tolist()
    cg.out_edges = _np.frombuffer(out_edges, dtype=_np.int64).tolist()
    cg.in_start = _np.frombuffer(in_start, dtype=_np.int64).tolist()
    cg.in_edges = _np.frombuffer(in_edges, dtype=_np.int64).tolist()
    return cg


#: process-local intern-seed cache: intern key -> pre-built snapshot
_INTERN_SEEDS: dict[str, CompiledGraph] = {}
#: hit/miss accounting for tests and the bench phase breakdown
intern_stats = {"seeded": 0, "hits": 0, "misses": 0}


def seed_intern(key: str, cg: CompiledGraph) -> None:
    """Install *cg* as the pre-compiled snapshot for ``intern_key``."""
    _INTERN_SEEDS[key] = cg
    intern_stats["seeded"] += 1


def unseed_intern(key: str) -> None:
    """Drop one seeded snapshot (the ECO path seeds per-edit keys and
    releases them after the solve)."""
    _INTERN_SEEDS.pop(key, None)


def clear_intern_seeds() -> None:
    _INTERN_SEEDS.clear()
    intern_stats.update(seeded=0, hits=0, misses=0)


def compile_graph(graph: RetimingGraph) -> CompiledGraph:
    """Snapshot *graph* into a :class:`CompiledGraph`.

    If *graph* carries an ``intern_key`` attribute naming a seeded
    snapshot (see :func:`seed_intern`) and this is the instance's first
    compile, the seed is returned instead of re-walking the graph —
    recompiles after mutation always take the full path.
    """
    key = getattr(graph, "intern_key", None)
    if key is not None and not getattr(graph, "_intern_consumed", False):
        graph._intern_consumed = True
        seed = _INTERN_SEEDS.get(key)
        if (
            seed is not None
            and seed.n == len(graph.vertices)
            and seed.m == len(graph.edges)
        ):
            obs.count("kernels.intern.hit")
            intern_stats["hits"] += 1
            return seed
        obs.count("kernels.intern.miss")
        intern_stats["misses"] += 1
    obs.count("kernels.compile_graph")
    cg = CompiledGraph()
    names = list(graph.vertices)
    index = {name: i for i, name in enumerate(names)}
    n = len(names)
    cg.n = n
    cg.names = names
    cg.index = index
    cg.delay = [graph.vertices[name].delay for name in names]
    cg.movable = bytearray(
        1 if graph.vertices[name].movable else 0 for name in names
    )
    cg.is_mirror = bytearray(
        1 if graph.vertices[name].kind == "mirror" else 0 for name in names
    )
    cg.host = index.get(HOST, -1)
    cg.through_host = graph.combinational_host

    # edge arrays in the same order the dict sweeps iterate
    eu: list[int] = []
    ev: list[int] = []
    ew: list[int] = []
    src_host = bytearray()
    for edge in graph.edges.values():
        ui = index[edge.u]
        eu.append(ui)
        ev.append(index[edge.v])
        ew.append(edge.w)
        src_host.append(1 if graph.vertices[edge.u].kind == "host" else 0)
    m = len(eu)
    cg.m = m
    cg.eu = eu
    cg.ev = ev
    cg.ew = ew
    cg.src_host = src_host

    # CSR adjacency (edge indices), per-vertex lists in edge order
    out_count = [0] * n
    in_count = [0] * n
    for k in range(m):
        out_count[eu[k]] += 1
        in_count[ev[k]] += 1
    out_start = [0] * (n + 1)
    in_start = [0] * (n + 1)
    for i in range(n):
        out_start[i + 1] = out_start[i] + out_count[i]
        in_start[i + 1] = in_start[i] + in_count[i]
    out_edges = [0] * m
    in_edges = [0] * m
    out_fill = list(out_start[:n])
    in_fill = list(in_start[:n])
    for k in range(m):
        u, v = eu[k], ev[k]
        out_edges[out_fill[u]] = k
        out_fill[u] += 1
        in_edges[in_fill[v]] = k
        in_fill[v] += 1
    cg.out_start = out_start
    cg.out_edges = out_edges
    cg.in_start = in_start
    cg.in_edges = in_edges

    if _np is not None and m:
        cg.eu_np = _np.asarray(eu, dtype=_np.int64)
        cg.ev_np = _np.asarray(ev, dtype=_np.int64)
        cg.ew_np = _np.asarray(ew, dtype=_np.int64)
        cg.src_host_np = _np.frombuffer(bytes(src_host), dtype=_np.uint8) != 0
    else:
        cg.eu_np = cg.ev_np = cg.ew_np = cg.src_host_np = None
    return cg
