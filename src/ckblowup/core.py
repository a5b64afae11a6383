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
  clears bits of its vertex set, never rebuilds the graph;
* a graph file (``graph_to_json``) is JSON of the form
  ``{"format": "ckblowup/2", "k": k, "n": n, "pairs": [...]}``: pair i is
  the base64 of ``np.packbits(pair_matrix(i), bitorder="little")``, the
  row-major matrix packed 8 entries a byte, lowest bit first, with any
  unused bits of the last byte zero.  ``ckblowup/1`` files, which list
  the edges as (i, u, w) triples, are still read.
"""

from __future__ import annotations

import base64
import json
from array import array
from itertools import chain
from numbers import Integral
from typing import Iterable, Iterator, NamedTuple, Optional, Sequence

import numpy as np

JSON_FORMAT = "ckblowup/2"
_V1_FORMAT = "ckblowup/1"  # edge lists, still read

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


def _check_sizes(k: int, n: int) -> None:
    if k < 3:
        raise PreconditionError(f"k must be >= 3, got {k}")
    if n < 1:
        raise PreconditionError(f"n must be >= 1, got {n}")


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
        _check_sizes(k, n)
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

    Duplicate edges merge silently; non-integer entries, non-triples
    and out-of-range parts or indices raise, naming the first bad edge.
    """
    _check_sizes(k, n)
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


def graph_to_json_dict(G: BlowupGraph) -> dict:
    pairs = [base64.b64encode(np.packbits(m, bitorder="little")).decode("ascii")
             for m in G._adj]
    return {"format": JSON_FORMAT, "k": G.k, "n": G.n, "pairs": pairs}


def graph_to_json(G: BlowupGraph) -> str:
    """Canonical JSON text; loading and re-emitting is byte-identical."""
    return json.dumps(graph_to_json_dict(G), sort_keys=True, separators=(",", ":")) + "\n"


def graph_from_json_dict(obj: dict) -> BlowupGraph:
    """Read a graph object: the packed ``ckblowup/2`` form strictly, or a
    ``ckblowup/1`` edge list through build_graph."""
    if not isinstance(obj, dict):
        raise PreconditionError("graph JSON must be an object")
    fmt = obj.get("format")
    if fmt not in (JSON_FORMAT, _V1_FORMAT):
        raise PreconditionError(
            f"unsupported format {fmt!r}, expected {JSON_FORMAT!r} or {_V1_FORMAT!r}")
    body = "pairs" if fmt == JSON_FORMAT else "edges"
    for key in ("k", "n", body):
        if key not in obj:
            raise PreconditionError(f"graph JSON missing key {key!r}")
    for key in ("k", "n"):
        if not isinstance(obj[key], int) or isinstance(obj[key], bool):
            raise PreconditionError(f"graph JSON key {key!r} must be an integer")
    if not isinstance(obj[body], list):
        raise PreconditionError(f"graph JSON key {body!r} must be a list")
    if fmt == _V1_FORMAT:
        return build_graph(obj["k"], obj["n"], obj["edges"])
    return BlowupGraph(obj["k"], obj["n"], _unpack_pairs(obj["k"], obj["n"], obj["pairs"]))


def _unpack_pairs(k: int, n: int, pairs: list) -> list:
    """The k (n, n) matrices of a ``ckblowup/2`` ``"pairs"`` list, each
    checked to be exactly the string graph_to_json writes for it."""
    _check_sizes(k, n)
    if len(pairs) != k:
        raise PreconditionError(f"need {k} pair strings, got {len(pairs)}")
    size, spare = -(-n * n // 8), -n * n % 8  # bytes, and unused bits of the last
    mats = []
    for i, text in enumerate(pairs, start=1):
        if not isinstance(text, str):
            raise PreconditionError(f"pair {i} must be a base64 string")
        try:
            raw = base64.b64decode(text, validate=True)
        except ValueError:
            raise PreconditionError(f"pair {i} is not valid base64") from None
        if len(raw) != size:
            raise PreconditionError(f"pair {i} has {len(raw)} bytes, expected {size}")
        # b64decode ignores the unused low bits of a padded last quantum
        if size % 3 and text[-4:] != base64.b64encode(raw[-(size % 3):]).decode():
            raise PreconditionError(f"pair {i} is not canonical base64")
        if spare and raw[-1] >> (8 - spare):
            raise PreconditionError(f"pair {i} has nonzero padding bits")
        bits = np.unpackbits(np.frombuffer(raw, dtype=np.uint8), count=n * n, bitorder="little")
        mats.append(bits.view(bool).reshape(n, n))
    return mats


def graph_from_json(text: str) -> BlowupGraph:
    """Load a graph from JSON text (see graph_from_json_dict)."""
    return graph_from_json_dict(json.loads(text))


def graph_to_dot(G: BlowupGraph, blocks: Optional[dict] = None) -> str:
    """Graphviz text with one ranked cluster per part.

    ``blocks`` (optional) maps block names like "U_1" to index lists inside
    the named part and is rendered as node labels.  A name must end in
    "_<part>" with part in 1..k, and every index must lie in 0..n-1;
    anything else raises PreconditionError.
    """
    label = {}
    if blocks:
        for name, ids in blocks.items():
            _, sep, part = name.rpartition("_")
            if not (sep and part.isdecimal() and 1 <= int(part) <= G.k):
                raise PreconditionError(
                    f"block name {name!r} does not end in _<part> with part in 1..{G.k}")
            if not (isinstance(ids, list)
                    and all(type(i) is int and 0 <= i < G.n for i in ids)):
                raise PreconditionError(
                    f"block {name!r} must list indices in 0..{G.n - 1}")
            for idx in ids:
                label[(int(part), idx)] = name
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
