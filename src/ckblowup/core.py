"""Data model for spanning subgraphs of the blow-up of the cycle C_k.

A graph here always has k >= 3 parts V_1, ..., V_k with n vertices each,
and edges only between consecutive parts V_i, V_{i+1} (cyclically).  The
central objects are transversal C_k-cycles (one vertex per part, joined
cyclically) and tilings by vertex-disjoint transversal cycles; a tiling of
size n is a transversal C_k-factor.

Conventions, used consistently across the package:

* parts are 1-indexed, vertex indices inside a part are 0-based;
* adjacency is stored as k dense boolean matrices, one per consecutive
  pair, so that the hot loops (cycle enumeration, degree counting) are
  row intersections / row sums of boolean arrays;
* a transversal cycle is a plain tuple of k indices whose position p
  (0-based) is the vertex index in part p+1;
* the exact searches see a vertex set as k Python ints, bit i of entry
  p-1 standing for vertex i of V_p, and read adjacency as rows of such
  bitsets (``pair_bits``);
* graphs are immutable once built.  Search code that deletes vertices
  clears bits of its vertex set, never rebuilds the graph.
"""

from __future__ import annotations

import gc
import json
import re
from array import array
from contextlib import contextmanager
from itertools import chain
from numbers import Integral
from typing import Iterable, Iterator, NamedTuple, Optional, Sequence

import numpy as np

JSON_FORMAT = "ckblowup/1"

Cycle = tuple  # tuple of k vertex indices, position p <-> part p+1


class PreconditionError(ValueError):
    """A documented operation precondition does not hold."""


class VertexRef(NamedTuple):
    part: int  # 1-based
    index: int  # 0-based


class DegreeProfile(NamedTuple):
    deltas: tuple  # delta_i = min degree of the bipartite pair (V_i, V_{i+1})
    delta_star: int  # min over i of delta_i


def part_after(k: int, i: int) -> int:
    """Cyclic successor of part i (1-indexed)."""
    return i % k + 1


def part_before(k: int, i: int) -> int:
    """Cyclic predecessor of part i (1-indexed)."""
    return (i - 2) % k + 1


def bit_rows(mat: np.ndarray) -> tuple:
    """The rows of a 2-D boolean array as ints: bit w of entry u is mat[u, w]."""
    packed = np.packbits(mat, axis=1, bitorder="little")
    return tuple(int.from_bytes(row.tobytes(), "little") for row in packed)


class BlowupGraph:
    """Immutable spanning subgraph of C_k[n].

    ``pair_matrix(i)[u, w]`` is True iff vertex u of V_i is adjacent to
    vertex w of V_{i+1}.
    """

    __slots__ = ("k", "n", "_adj", "_bits")

    def __init__(self, k: int, n: int, adjacency: Sequence[np.ndarray]):
        if k < 3:
            raise PreconditionError(f"k must be >= 3, got {k}")
        if n < 1:
            raise PreconditionError(f"n must be >= 1, got {n}")
        if len(adjacency) != k:
            raise PreconditionError(f"need {k} pair matrices, got {len(adjacency)}")
        mats = []
        for m in adjacency:
            a = np.array(m, dtype=bool, copy=True)
            if a.shape != (n, n):
                raise PreconditionError(f"pair matrix has shape {a.shape}, expected {(n, n)}")
            a.setflags(write=False)
            mats.append(a)
        self.k = k
        self.n = n
        self._adj = tuple(mats)
        self._bits = None

    def pair_matrix(self, i: int) -> np.ndarray:
        """Adjacency of the pair (V_i, V_{i+1}), rows indexed by V_i."""
        self._check_part(i)
        return self._adj[i - 1]

    def pair_bits(self, i: int) -> tuple:
        """``pair_matrix(i)`` as bitsets ``(rows, cols)``: bit w of
        ``rows[u]`` and bit u of ``cols[w]`` are set iff u ~ w.  Built for
        all pairs on the first call."""
        self._check_part(i)
        if self._bits is None:
            self._bits = tuple((bit_rows(m), bit_rows(m.T)) for m in self._adj)
        return self._bits[i - 1]

    def _check_part(self, i: int) -> None:
        if not 1 <= i <= self.k:
            raise PreconditionError(f"part {i} out of range 1..{self.k}")

    def _check_vertex(self, v: VertexRef) -> None:
        self._check_part(v.part)
        if not 0 <= v.index < self.n:
            raise PreconditionError(f"vertex index {v.index} out of range 0..{self.n - 1}")

    def edges(self) -> Iterator[tuple]:
        """All edges as (i, u, w) with u in V_i, w in V_{i+1}, sorted."""
        for i in range(1, self.k + 1):
            rows, cols = np.nonzero(self._adj[i - 1])
            for u, w in zip(rows.tolist(), cols.tolist()):
                yield (i, u, w)

    def edge_count(self) -> int:
        return sum(int(m.sum()) for m in self._adj)

    def __eq__(self, other) -> bool:
        if not isinstance(other, BlowupGraph):
            return NotImplemented
        return (
            self.k == other.k
            and self.n == other.n
            and all(np.array_equal(a, b) for a, b in zip(self._adj, other._adj))
        )

    def __hash__(self):
        raise TypeError("BlowupGraph is not hashable")

    def __repr__(self) -> str:
        return f"BlowupGraph(k={self.k}, n={self.n}, edges={self.edge_count()})"


def build_graph(k: int, n: int, edges: Iterable[tuple]) -> BlowupGraph:
    """Build a graph from (i, u, w) triples, u in V_i adjacent to w in V_{i+1}.

    ``edges`` may also be an (m, 3) int64 array, which is used as is.
    Duplicate edges merge silently; non-integer entries, non-triples
    and out-of-range parts or indices raise, naming the first bad edge.
    """
    if k < 3:
        raise PreconditionError(f"k must be >= 3, got {k}")
    if n < 1:
        raise PreconditionError(f"n must be >= 1, got {n}")
    if isinstance(edges, np.ndarray) and edges.dtype == np.int64 and edges.shape[1:] == (3,):
        arr = edges
    else:
        if not isinstance(edges, (list, tuple)):
            edges = list(edges)
        try:
            flat = array("q", chain.from_iterable(edges))  # takes ints that fit int64
            triples = set(map(len, edges)) <= {3}
        except (TypeError, OverflowError):
            triples = False
        if not triples:
            raise PreconditionError(_first_bad_edge(k, n, edges))
        arr = np.frombuffer(flat, dtype=np.int64).reshape(-1, 3)
    part, ends = arr[:, 0], arr[:, 1:]
    bad = (part < 1) | (part > k) | (ends < 0).any(axis=1) | (ends >= n).any(axis=1)
    if bad.any():
        raise PreconditionError(_first_bad_edge(k, n, arr[bad.argmax():].tolist()))
    adj = np.zeros(k * n * n, dtype=bool)
    adj[((part - 1) * n + ends[:, 0]) * n + ends[:, 1]] = True
    return BlowupGraph(k, n, adj.reshape(k, n, n))


def _first_bad_edge(k: int, n: int, edges) -> str:
    """The message for the first edge that is not an integer triple in range."""
    for e in edges:
        try:
            t = tuple(e)
        except TypeError:
            t = None
        if t is None or len(t) != 3 or not all(isinstance(x, Integral) for x in t):
            return f"edge {e!r} is not a triple of integers (part, u, w)"
        i, u, w = t
        if not 1 <= i <= k:
            return f"edge part {i} out of range 1..{k}"
        if not (0 <= u < n and 0 <= w < n):
            return f"edge ({i},{u},{w}) has index out of range 0..{n - 1}"
    return "edges must be triples of integers (part, u, w)"


def degree_profile(G: BlowupGraph) -> DegreeProfile:
    """Exact bipartite minimum degrees delta_1..delta_k and their minimum.

    delta_i is the minimum, over both sides, of the degree within the pair
    (V_i, V_{i+1}); delta_star is min_i delta_i.
    """
    deltas = []
    for i in range(1, G.k + 1):
        m = G.pair_matrix(i)
        row_min = int(m.sum(axis=1).min())
        col_min = int(m.sum(axis=0).min())
        deltas.append(min(row_min, col_min))
    return DegreeProfile(tuple(deltas), min(deltas))


def validate_cycle(G: BlowupGraph, cycle: Sequence[int]) -> Optional[str]:
    """None if cycle is a transversal C_k-cycle of G, else the first violation."""
    if len(cycle) != G.k:
        return f"cycle {tuple(cycle)} has length {len(cycle)}, expected k={G.k}"
    for p, idx in enumerate(cycle):
        if not 0 <= idx < G.n:
            return f"cycle {tuple(cycle)} has out-of-range index {idx} in part {p + 1}"
    for p in range(G.k):
        q = (p + 1) % G.k
        if not G.pair_matrix(p + 1)[cycle[p], cycle[q]]:
            return (
                f"cycle {tuple(cycle)} misses edge between part {p + 1} vertex "
                f"{cycle[p]} and part {q + 1} vertex {cycle[q]}"
            )
    return None


def validate_tiling(G: BlowupGraph, cycles: Sequence[Sequence[int]]) -> Optional[str]:
    """None if cycles form a transversal C_k-tiling of G, else the first violation.

    Checks, in order: every member is a transversal cycle of G; the cycles
    are pairwise vertex-disjoint.
    """
    for c in cycles:
        msg = validate_cycle(G, c)
        if msg is not None:
            return msg
    seen = [set() for _ in range(G.k)]
    for c in cycles:
        for p, idx in enumerate(c):
            if idx in seen[p]:
                return f"vertex {idx} of part {p + 1} is used by two cycles"
            seen[p].add(idx)
    return None


# ---------------------------------------------------------------------------
# serialization


@contextmanager
def _gc_paused():
    """Pause the cyclic garbage collector, restoring its earlier state.

    A graph file holds one small list per edge, none of them in a cycle;
    a running collector would walk them all, again and again, while the
    lists are built.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            gc.enable()


def graph_to_json_dict(G: BlowupGraph) -> dict:
    edges = []
    for i in range(1, G.k + 1):
        nz = np.argwhere(G.pair_matrix(i))  # row-major, the order of edges()
        edges.extend(np.column_stack((np.full(len(nz), i), nz)).tolist())
    return {"format": JSON_FORMAT, "k": G.k, "n": G.n, "edges": edges}


def graph_to_json(G: BlowupGraph) -> str:
    """Canonical JSON text; loading and re-emitting is byte-identical."""
    with _gc_paused():
        obj = graph_to_json_dict(G)
        return json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n"


def graph_from_json_dict(obj: dict) -> BlowupGraph:
    if not isinstance(obj, dict):
        raise PreconditionError("graph JSON must be an object")
    fmt = obj.get("format")
    if fmt != JSON_FORMAT:
        raise PreconditionError(f"unsupported format {fmt!r}, expected {JSON_FORMAT!r}")
    for key in ("k", "n", "edges"):
        if key not in obj:
            raise PreconditionError(f"graph JSON missing key {key!r}")
    for key in ("k", "n"):
        if not isinstance(obj[key], int) or isinstance(obj[key], bool):
            raise PreconditionError(f"graph JSON key {key!r} must be an integer")
    if not isinstance(obj["edges"], list):
        raise PreconditionError("graph JSON key 'edges' must be a list")
    return build_graph(obj["k"], obj["n"], obj["edges"])


# graph_to_json's form: no whitespace, keys sorted, so the edges come first.
# Classes of the edge body's bytes: a digit is 0, "[", "]" and "," are
# themselves, anything else is "?".
_CANON_TAIL = re.compile(
    r'\],"format":"ckblowup/1","k":([1-9][0-9]{0,8}),"n":([1-9][0-9]{0,8})}\n?')
_CANON_CLASS = bytes(0 if chr(b) in "0123456789" else b if chr(b) in "[]," else ord("?")
                     for b in range(256))
_CANON_EDGE = np.frombuffer(b"[\0,\0,\0],", dtype=np.uint8)


def _canonical_edges(text) -> Optional[tuple]:
    """(k, n, (m, 3) int64 edge array) for text in graph_to_json's form
    with at least one edge, else None.  Numbers with a leading zero or
    over 18 digits are declined: np.fromstring reads "01" as 1 and
    saturates past int64, where JSON rejects or keeps them."""
    if not (isinstance(text, str) and text.isascii() and text.startswith('{"edges":[[')):
        return None
    end = text.rfind('],"format":')
    tail = end > 0 and _CANON_TAIL.fullmatch(text, end)
    if not tail:
        return None
    body = text[len('{"edges":['):end].encode("ascii")  # "[d,d,d],...,[d,d,d]"
    cls = np.frombuffer(body.translate(_CANON_CLASS), dtype=np.uint8)
    keep = np.ones(len(cls), dtype=bool)  # collapse each run of digits
    np.logical_or(cls[1:], cls[:-1], out=keep[1:])
    skeleton = cls[keep]
    del cls, keep
    m = (len(skeleton) + 1) // 8
    if not (len(skeleton) == 8 * m - 1
            and (skeleton[:-7].reshape(-1, 8) == _CANON_EDGE).all()
            and (skeleton[-7:] == _CANON_EDGE[:7]).all()):
        return None
    del skeleton
    body = body.translate(bytes.maketrans(b"[]", b"  "))
    vals = np.fromstring(body, dtype=np.int64, sep=",")
    if vals.size != 3 * m or (top := int(vals.max())) >= 10**18:
        return None
    # the values' digit counts add up to the body's length less its 5m - 1
    # brackets and commas exactly when no number has a leading zero
    digits = vals.size + sum(int(np.count_nonzero(vals >= 10**p)) for p in range(1, len(str(top))))
    if digits != len(body) - (5 * m - 1):
        return None
    return int(tail[1]), int(tail[2]), vals.reshape(m, 3)


def graph_from_json(text: str) -> BlowupGraph:
    """Load a graph.  Text in graph_to_json's form is read into one int64
    edge array with no Python object per edge; any other text goes
    through json.loads and graph_from_json_dict, with the cyclic garbage
    collector paused.  Both paths share build_graph's checks."""
    canonical = _canonical_edges(text)
    if canonical is not None:
        return build_graph(*canonical)
    with _gc_paused():
        return graph_from_json_dict(json.loads(text))


def graph_to_dot(G: BlowupGraph, blocks: Optional[dict] = None) -> str:
    """Graphviz text with one ranked cluster per part.

    ``blocks`` (optional) maps block names like "U_1" to index lists inside
    the named part and is rendered as node labels.
    """
    label = {}
    if blocks:
        for name, ids in blocks.items():
            part = int(name.rsplit("_", 1)[1])
            for idx in ids:
                label[(part, idx)] = name
    lines = ["graph ckblowup {"]
    for p in range(1, G.k + 1):
        lines.append(f"  subgraph cluster_{p} {{")
        lines.append(f'    label="V_{p}"; rank=same;')
        for idx in range(G.n):
            extra = f' [label="{label[(p, idx)]}:{idx}"]' if (p, idx) in label else ""
            lines.append(f"    p{p}_{idx}{extra};")
        lines.append("  }")
    for i, u, w in G.edges():
        j = part_after(G.k, i)
        lines.append(f"  p{i}_{u} -- p{j}_{w};")
    lines.append("}")
    return "\n".join(lines) + "\n"
