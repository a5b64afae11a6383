"""Data model for spanning subgraphs of the blow-up of the cycle C_k.

A graph here always has k >= 3 parts V_1, ..., V_k with n vertices each,
and edges only between consecutive parts V_i, V_{i+1} (cyclically).  The
central objects are transversal C_k-cycles (one vertex per part, joined
cyclically) and tilings by vertex-disjoint transversal cycles; a tiling of
size n is a transversal C_k-factor.

Conventions, used consistently across the package:

* parts are 1-indexed, vertex indices inside a part are 0-based;
* adjacency is stored as packed bit rows of each consecutive pair and
  of its transpose; only this module knows the word layout.  Callers
  read bool rows of the vertices they name (``adjacency_rows``), rows
  of Python-int bitsets (``pair_bits``), or, for small graphs, whole
  bool matrices (``pair_matrix``);
* a transversal cycle is a plain tuple of k indices whose position p
  (0-based) is the vertex index in part p+1;
* the exact searches see a vertex set as k Python ints, bit i of entry
  p-1 standing for vertex i of V_p;
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


_BAND = 1024  # rows packed at a time; a multiple of 64, so bands start on a word


class BlowupGraph:
    """Immutable spanning subgraph of C_k[n].

    Pair i is held as the packed rows of its matrix and of its transpose,
    ``_words[i, i+1]`` and ``_words[i+1, i]``: bit w of row u of
    ``_words[p, q]`` is set iff vertex u of V_p is adjacent to vertex w
    of V_q.  A row is ceil(n/64) 64-bit words kept as little-endian
    bytes, so bit w is bit w % 8 of byte w // 8; unused bits are zero.
    """

    __slots__ = ("k", "n", "_words", "_bits")

    def __init__(self, k: int, n: int, adjacency: Sequence[np.ndarray]):
        _check_sizes(k, n)
        if len(adjacency) != k:
            raise PreconditionError(f"need {k} pair matrices, got {len(adjacency)}")
        mats = [np.asarray(m, dtype=bool) for m in adjacency]
        for m in mats:
            if m.shape != (n, n):
                raise PreconditionError(f"pair matrix has shape {m.shape}, expected {(n, n)}")
        self._pack(k, n, lambda i, lo, hi: np.packbits(mats[i - 1][lo:hi], 1, bitorder="little"))

    def _pack(self, k: int, n: int, band) -> None:
        """Fill the words from ``band(i, lo, hi)``, rows lo..hi-1 of pair
        i's matrix packed 8 bits a byte, one band of rows at a time: the
        band goes into the row words, and its bit transpose into bits
        lo..hi-1 of every column row."""
        shape, nbytes = (n, 8 * -(-n // 64)), -(-n // 8)
        self.k, self.n, self._words, self._bits = k, n, {}, None
        for i in range(1, k + 1):
            rows, cols = np.zeros(shape, dtype=np.uint8), np.zeros(shape, dtype=np.uint8)
            for lo in range(0, n, _BAND):
                packed = band(i, lo, min(lo + _BAND, n))
                rows[lo:lo + len(packed), :nbytes] = packed
                t = _transpose_bits(packed)[:n]
                cols[:, lo // 8:lo // 8 + t.shape[1]] = t
            rows.setflags(write=False)
            cols.setflags(write=False)
            self._words[i, part_after(k, i)], self._words[part_after(k, i), i] = rows, cols

    def adjacency_rows(self, p: int, q: int, ids) -> np.ndarray:
        """Bool neighbourhoods in the adjacent part V_q of the vertices
        ``ids`` of V_p, one row each, as a new array; ``ids`` is anything
        that indexes rows (an int gives one 1-D row).  Only those rows
        are unpacked."""
        words = self._words.get((p, q))
        if words is None:
            raise PreconditionError(f"parts {p} and {q} are not adjacent parts of 1..{self.k}")
        return np.unpackbits(words[ids], -1, self.n, "little").view(bool)

    def pair_matrix(self, i: int) -> np.ndarray:
        """Adjacency of the pair (V_i, V_{i+1}), rows indexed by V_i, read-only."""
        out = self.adjacency_rows(i, part_after(self.k, i), slice(None))
        out.setflags(write=False)
        return out

    def pair_bits(self, i: int) -> tuple:
        """``pair_matrix(i)`` as bitsets ``(rows, cols)``: bit w of
        ``rows[u]`` and bit u of ``cols[w]`` are set iff u ~ w.  Built for
        all pairs on the first call."""
        self._check_part(i)
        if self._bits is None:
            self._bits = tuple((_ints(self._words[p, q]), _ints(self._words[q, p]))
                               for p, q in self._pairs())
        return self._bits[i - 1]

    def _pairs(self) -> Iterator[tuple]:
        """(i, i+1) for every consecutive pair, in order."""
        return ((i, part_after(self.k, i)) for i in range(1, self.k + 1))

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
            rows, cols = np.nonzero(self.pair_matrix(i))
            for u, w in zip(rows.tolist(), cols.tolist()):
                yield (i, u, w)

    def edge_count(self) -> int:
        return sum(int(_degrees(self._words[e]).sum()) for e in self._pairs())

    def __eq__(self, other) -> bool:
        if not isinstance(other, BlowupGraph):
            return NotImplemented
        return (
            self.k == other.k
            and self.n == other.n
            and all(np.array_equal(self._words[e], other._words[e]) for e in self._pairs())
        )

    def __hash__(self):
        raise TypeError("BlowupGraph is not hashable")

    def __repr__(self) -> str:
        return f"BlowupGraph(k={self.k}, n={self.n}, edges={self.edge_count()})"


def _transpose_bits(packed: np.ndarray) -> np.ndarray:
    """The little-endian packed rows of the transpose of the bit matrix
    whose rows ``packed`` (uint8) holds, padded with zero rows.  Each 8x8
    bit block, gathered into one uint64 with byte i from row i, is
    transposed by three masked swaps."""
    r = -(-len(packed) // 8)
    x = np.zeros((r * 8, packed.shape[1]), np.uint8)
    x[:len(packed)] = packed
    x = x.reshape(r, 8, -1).transpose(0, 2, 1).copy().view("<u8")
    for s, m in ((7, 0x00AA00AA00AA00AA), (14, 0x0000CCCC0000CCCC), (28, 0x00000000F0F0F0F0)):
        t = (x ^ (x >> np.uint64(s))) & np.uint64(m)
        x ^= t ^ (t << np.uint64(s))
    return x.view(np.uint8).reshape(r, -1, 8).transpose(1, 2, 0).reshape(-1, r)


def _degrees(words: np.ndarray) -> np.ndarray:
    """The number of set bits of each packed row."""
    return np.bitwise_count(words.view("<u8")).sum(axis=1)


def _ints(words: np.ndarray) -> tuple:
    """The packed rows of ``words`` as Python ints."""
    return tuple(int.from_bytes(row.tobytes(), "little") for row in words)


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
    deltas = [int(min(_degrees(G._words[e]).min() for e in (pq, pq[::-1])))
              for pq in G._pairs()]
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
        if not G.pair_bits(p + 1)[0][cycle[p]] >> cycle[q] & 1:
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
    pairs = [base64.b64encode(b"".join(  # bands of 8j rows pack to whole bytes
        np.packbits(G.adjacency_rows(p, q, slice(lo, lo + _BAND)), bitorder="little").tobytes()
        for lo in range(0, G.n, _BAND))).decode("ascii") for p, q in G._pairs()]
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
    k, n = obj["k"], obj["n"]
    if fmt == _V1_FORMAT:
        return build_graph(k, n, obj["edges"])
    raw = _decode_pairs(k, n, obj["pairs"])
    G = object.__new__(BlowupGraph)

    def band(i, lo, hi):  # rows lo..hi-1 start on a byte, as _BAND is a multiple of 8
        if n % 8 == 0:  # and so does every row
            return raw[i - 1][lo * n // 8:hi * n // 8].reshape(-1, n // 8)
        bits = np.unpackbits(raw[i - 1][lo * n // 8:], count=(hi - lo) * n, bitorder="little")
        return np.packbits(bits.reshape(-1, n), axis=1, bitorder="little")

    G._pack(k, n, band)
    return G


def _decode_pairs(k: int, n: int, pairs: list) -> list:
    """The k packed matrices of a ``ckblowup/2`` ``"pairs"`` list as byte
    arrays, each checked to be exactly the string graph_to_json writes."""
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
        mats.append(np.frombuffer(raw, dtype=np.uint8))
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
