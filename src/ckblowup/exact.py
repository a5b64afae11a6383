"""Exact oracles: maximum transversal tilings, transversal cycle covers
and linking-sequence counts.

Everything here is correct by construction at small scale and doubles as
the reference implementation for the randomized pipeline.  Linking
counts come from two closed forms: for any t, the unions of (t+1)/k
disjoint transversal cycles, listed once per graph and numbered per
part (``union_linking_bits``); for t = k-1, a product of pair matrices
along a transversal path (``path_linking_count``).  The tests check both
against a reference that tests every candidate set with ``has_factor``.
Conventions:

* Searches are deterministic.  Vertices are scanned in increasing index
  order, parts in increasing label order, so optima and witnesses are
  reproducible.
* A vertex set is k Python ints, bit i of entry p-1 standing for vertex
  i of V_p; adjacency is read through ``BlowupGraph.pair_bits``.  Only
  inside ``union_linking_bits`` is a set one int of k*n bits, vertex i
  of V_p being bit (p-1)*n + i, as a key that one AND or OR acts on.
  Optional ``alive`` arguments restrict a search to an induced subgraph;
  they accept a dict mapping parts to index iterables or such k ints.
  Graphs are never copied.
* Searches run on an explicit stack, so their depth is not limited by
  Python's recursion limit.
* ``time_budget_ms`` is wall clock.  Exhausting it degrades the result
  to ``optimal=False`` (the returned object is still valid), it never
  raises.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

import numpy as np

from .core import BlowupGraph, PreconditionError, VertexRef


class InfeasibleSizeError(Exception):
    """An exhaustive enumeration would exceed its work budget.

    Distinct from a negative answer: the question was not decided.
    """


def _low(bits: int) -> int:
    """Index of the lowest set bit of a nonzero int."""
    return (bits & -bits).bit_length() - 1


def _alive_bits(G: BlowupGraph, alive) -> list:
    """Normalize an alive-vertex specification to k bitsets."""
    full = (1 << G.n) - 1
    if alive is None:
        return [full] * G.k
    if isinstance(alive, dict):
        bits = [0] * G.k
        for part in range(1, G.k + 1):
            for idx in alive.get(part, ()):
                v = VertexRef(part, int(idx))
                G._check_vertex(v)
                bits[part - 1] |= 1 << v.index
        return bits
    bits = list(alive)
    if len(bits) != G.k or not all(isinstance(b, int) and 0 <= b <= full for b in bits):
        raise PreconditionError("alive bitsets must be k ints in [0, 2**n)")
    return bits


def _as_vertex_list(Z) -> list:
    """Normalize a vertex set given as VertexRefs, (part, index) pairs, or
    a dict mapping parts to index iterables."""
    if isinstance(Z, dict):
        out = []
        for part, ids in Z.items():
            out.extend(VertexRef(int(part), int(i)) for i in ids)
        return out
    return [VertexRef(int(p), int(i)) for (p, i) in Z]


def _cycles_through(G: BlowupGraph, avail, u: int):
    """Yield transversal cycles (as index k-tuples) through vertex u of
    V_1, using only available vertices, in lexicographic order."""
    k = G.k
    back = G.pair_bits(k)[1][u]  # V_k vertices adjacent to u

    def rec(p, prev_idx, chosen):
        mask = G.pair_bits(p - 1)[0][prev_idx] & avail[p - 1]
        if p == k:
            mask &= back
        while mask:
            w = _low(mask)
            mask &= mask - 1
            if p == k:
                yield chosen + (w,)
            else:
                yield from rec(p + 1, w, chosen + (w,))

    yield from rec(2, u, (u,))


def _greedy_packing(G: BlowupGraph, avail) -> list:
    """Deterministic maximal set of disjoint transversal cycles.

    Scans V_1 in increasing order; each vertex contributes the lowest
    cycle through it that avoids previously packed vertices, if any.
    Works on a copy of ``avail``.
    """
    avail = list(avail)
    packed = []
    free = avail[0]
    while free:
        u = _low(free)
        free &= free - 1
        c = next(_cycles_through(G, avail, u), None)
        if c is not None:
            packed.append(c)
            for p, idx in enumerate(c):
                avail[p] &= ~(1 << idx)
    return packed


@dataclass
class MaxTilingResult:
    cycles: list
    optimal: bool
    nodes: int
    millis: float

    @property
    def size(self) -> int:
        return len(self.cycles)


def max_tiling(
    G: BlowupGraph,
    time_budget_ms: Optional[float] = None,
    *,
    alive=None,
    stop_at: Optional[int] = None,
    upper_bound=None,
) -> MaxTilingResult:
    """Maximum transversal cycle tiling by depth-first branch and bound.

    Branches on the lowest-index available vertex of V_1, enumerating
    the cycles through it and the option of leaving it uncovered, and
    prunes with the bound current size + least per-part availability.

    ``upper_bound`` is a transversal cycle cover Z (any form ``is_cover``
    takes); every cycle of a tiling meets Z in its own vertex, so no
    tiling is larger than the alive part of Z, and the search stops at a
    tiling of that size, which is then optimal.  A Z that is not a cover
    raises PreconditionError.

    ``stop_at`` aborts as soon as a tiling of that size is found; the
    result is flagged optimal only if ``stop_at`` is also a valid upper
    bound (it equals or exceeds the least available part size, or the
    size of ``upper_bound``).
    """
    avail = tuple(_alive_bits(G, alive))
    hard_cap = min(a.bit_count() for a in avail)
    if upper_bound is not None:
        Z = set(_as_vertex_list(upper_bound))
        if not is_cover(G, Z, alive=avail):
            raise PreconditionError("upper_bound is not a transversal cycle cover")
        hard_cap = min(hard_cap, sum(avail[v.part - 1] >> v.index & 1 for v in Z))
    target = hard_cap if stop_at is None else min(stop_at, hard_cap)

    start = time.monotonic()
    deadline = None if time_budget_ms is None else start + time_budget_ms / 1000.0
    best: list = []
    nodes = 0
    timed_out = done = False

    def branches(avail):
        """Children of a node: one per cycle through the lowest available
        vertex u of V_1, then the one leaving u uncovered (cycle None)."""
        u = _low(avail[0])
        for c in _cycles_through(G, avail, u):
            yield tuple(a & ~(1 << i) for a, i in zip(avail, c)), c
        yield (avail[0] & ~(1 << u),) + avail[1:], None

    # A frame is (depth, remaining branches).  ``current`` is the tiling
    # of the node being visited; it is cut back to the frame's depth
    # before each child is entered, so frames need not copy it.  The
    # last branch (cycle None) pops its frame before it is visited.
    current: list = []
    stack: list = [(0, iter([(avail, None)]))]
    while stack:
        depth, it = stack[-1]
        child = next(it, None)
        if child is None or child[1] is None:
            stack.pop()
        if child is None:
            continue
        avail, c = child
        del current[depth:]
        if c is not None:
            current.append(c)
        nodes += 1
        if deadline is not None and nodes % 64 == 0 and time.monotonic() > deadline:
            timed_out = True
            break
        if len(current) > len(best):
            best = list(current)
            if len(current) >= target:
                done = True
                break
        if avail[0] and len(current) + min(a.bit_count() for a in avail) > len(best):
            stack.append((len(current), branches(avail)))

    millis = (time.monotonic() - start) * 1000.0
    if timed_out:
        optimal = False
    elif done:
        optimal = target >= hard_cap
    else:
        optimal = True
    return MaxTilingResult(best, optimal, nodes, millis)


def has_factor(G: BlowupGraph, alive=None, memo: Optional[dict] = None) -> bool:
    """Whether the induced (sub)instance has a transversal cycle factor.

    ``memo`` may be shared across calls; keys are the k alive bitsets,
    so it must not be reused across distinct graphs.
    """
    bits = _alive_bits(G, alive)
    counts = {b.bit_count() for b in bits}
    if len(counts) != 1:
        return False
    c = counts.pop()
    if c == 0:
        return True
    key = tuple(bits)
    if memo is not None and key in memo:
        return memo[key]
    if c == 1:  # one vertex per part: a factor iff they close a cycle
        out = all(G.pair_bits(p + 1)[0][_low(b)] & bits[(p + 1) % G.k]
                  for p, b in enumerate(bits))
    else:
        out = max_tiling(G, alive=bits, stop_at=c).size == c
    if memo is not None:
        memo[key] = out
    return out


def is_cover(G: BlowupGraph, Z, alive=None) -> bool:
    """True iff every transversal cycle (within the alive set) meets Z."""
    bits = _alive_bits(G, alive)
    for v in _as_vertex_list(Z):
        G._check_vertex(v)
        bits[v.part - 1] &= ~(1 << v.index)
    return not _greedy_packing(G, bits)


@dataclass
class CoverResult:
    size: int
    witness: list
    optimal: bool
    nodes: int
    millis: float


def cover_number(
    G: BlowupGraph,
    time_budget_ms: Optional[float] = None,
) -> CoverResult:
    """Minimum size of a transversal cycle cover, by branch and bound on
    the hitting-set formulation.

    At each node the deterministic enumerator packs disjoint uncovered
    cycles; the packing size is an additive lower bound, and its first
    cycle is the branching constraint (one branch per cycle vertex).
    V_1 is always a cover, so the incumbent starts at size n.
    """
    n = G.n
    start = time.monotonic()
    deadline = None if time_budget_ms is None else start + time_budget_ms / 1000.0
    best_size, witness = n, [VertexRef(1, i) for i in range(n)]
    nodes = 0
    timed_out = False

    # A stack entry is a node still to visit: (avail, vertex added,
    # parent depth).  ``chosen`` is the partial cover of the node being
    # visited, cut back to the parent's depth before the vertex is added.
    chosen: list = []
    stack: list = [(_alive_bits(G, None), None, 0)]
    while stack:
        avail, v, depth = stack.pop()
        del chosen[depth:]
        if v is not None:
            chosen.append(v)
        nodes += 1
        if deadline is not None and nodes % 32 == 0 and time.monotonic() > deadline:
            timed_out = True
            break
        pack = _greedy_packing(G, avail)
        if len(chosen) + len(pack) >= best_size:
            continue
        if not pack:
            best_size, witness = len(chosen), sorted(chosen)
            continue
        # one child per vertex of the first packed cycle, that vertex
        # joining the cover; pushed in reverse so the first is visited first
        for p, idx in reversed(list(enumerate(pack[0]))):
            child = list(avail)
            child[p] &= ~(1 << idx)
            stack.append((child, VertexRef(p + 1, idx), len(chosen)))

    millis = (time.monotonic() - start) * 1000.0
    return CoverResult(best_size, witness, not timed_out, nodes, millis)


def linking_pattern(k: int, base_part: int, t: int) -> list:
    """Parts of the t entries of a linking sequence for a base vertex in
    ``base_part``: entry j lies in the part j steps after it cyclically."""
    return [(base_part - 1 + j) % k + 1 for j in range(1, t + 1)]


def _linking_pair(G: BlowupGraph, v, v2) -> tuple:
    """Check a same-part pair of vertices; return it as VertexRefs."""
    v, v2 = VertexRef(*v), VertexRef(*v2)
    if v.part != v2.part:
        raise PreconditionError("linking endpoints must share a part")
    G._check_vertex(v)
    G._check_vertex(v2)
    return v, v2


def _check_linking_t(k: int, t: int) -> None:
    if t < k - 1 or (t + 1) % k != 0:
        raise PreconditionError(
            f"t = {t} must be at least k-1 = {k - 1} with t+1 divisible by k = {k}")


def path_linking_count(G: BlowupGraph, v: VertexRef, v2: VertexRef) -> int:
    """Exact count of linking sequences for the same-part pair (v, v2)
    at t = k-1.

    Such a sequence has one vertex in each other part, and adding v (or
    v2) closes it into a transversal cycle: it is a path x_{i+1} ... x_{i-1}
    through the parts after i whose ends are common neighbours of v and
    v2.  So the count is a . A_{i+1} ... A_{i+k-2} . b, with a and b those
    common neighbourhoods in V_{i+1} and V_{i-1} and A_p the pair
    matrices.  Every partial count is at most n^(k-1); the products run
    in int64 when that fits, and in Python ints otherwise.
    """
    v, v2 = _linking_pair(G, v, v2)
    return _path_counts(G, v.part, [(v.index, v2.index)])[0]


_LINK_BAND = 256


def _path_counts(G: BlowupGraph, i: int, pairs: list) -> list:
    """``path_linking_count`` of each pair (a, b) of V_i, as a list of
    ints.  The pairs go through as rows of one product, ``_LINK_BAND`` at
    a time, and each product step reads ``_LINK_BAND`` rows of a pair
    matrix at a time, so memory stays a few bands whatever n."""
    k, n = G.k, G.n
    nxt, prv = i % k + 1, (i - 2) % k + 1
    dtype = np.int64 if n ** (k - 1) < 2**63 else object
    out = []
    for lo in range(0, len(pairs), _LINK_BAND):
        a, b = np.array(pairs[lo:lo + _LINK_BAND]).T
        vec = (G.adjacency_rows(i, nxt, a) & G.adjacency_rows(i, nxt, b)).astype(dtype)
        p = nxt
        for _ in range(k - 2):
            q = p % k + 1
            vec = sum(vec[:, r:r + _LINK_BAND] @ G.adjacency_rows(p, q, slice(r, r + _LINK_BAND))
                      for r in range(0, n, _LINK_BAND))
            p = q
        ends = G.adjacency_rows(i, prv, a) & G.adjacency_rows(i, prv, b)
        out += np.where(ends, vec, 0).sum(axis=1).tolist()
    return out


def union_linking_bits(G: BlowupGraph, t: int) -> tuple:
    """Linking sets of every vertex for any t, from the unions of
    r = (t+1)/k disjoint transversal cycles.

    A candidate set X of a vertex v of V_i has r-1 vertices in V_i and r
    in every other part, so X + v has a transversal cycle factor exactly
    when it is such a union.  The unions are listed once per graph; while
    listing, a cycle, a union and a candidate set are each one int of k*n
    bits, vertex a of V_p being bit (p-1)*n + a, so that a disjointness
    test is one AND and a union one OR.  Each part numbers its candidate
    sets with one dict lookup per (union, member) and builds the bitsets
    of its n vertices from one bool matrix.  Returns (bits, orderings): bit j of
    ``bits[i-1][a]`` is set when the j-th candidate set of part i
    (numbered per part) plus vertex a of V_i is a union, and the count of
    the pair (a, b) of V_i is
    ``(bits[i-1][a] & bits[i-1][b]).bit_count() * orderings``.
    """
    k, n = G.k, G.n
    _check_linking_t(k, t)
    r = (t + 1) // k
    full = [(1 << n) - 1] * k
    cycles = [sum(1 << (p * n + idx) for p, idx in enumerate(c))
              for u in range(n) for c in _cycles_through(G, full, u)]
    unions = set()
    stack = [(0, 0, r)]  # (next cycle, union so far, cycles to add)
    while stack:
        start, union, left = stack.pop()
        if left == 1:
            unions.update(union | c for c in cycles[start:] if not union & c)
            continue
        for j in range(start, len(cycles)):
            c = cycles[j]
            if not union & c:
                stack.append((j + 1, union | c, left - 1))

    bits = []
    for i in range(k):
        index: dict = {}  # candidate set -> its number in part i
        ids = []
        for a in range(n):
            v = 1 << (i * n + a)
            ids.append([index.setdefault(S ^ v, len(index)) for S in unions if S & v])
        member = np.zeros((n, len(index)), dtype=bool)
        for a, row in enumerate(ids):
            member[a, row] = True
        packed = np.packbits(member, axis=1, bitorder="little")
        bits.append([int.from_bytes(row.tobytes(), "little") for row in packed])
    pattern = linking_pattern(k, 1, t)
    orderings = math.prod(math.factorial(pattern.count(p)) for p in range(1, k + 1))
    return bits, orderings


@dataclass
class LinkedResult:
    linked: bool
    pair: Optional[tuple]
    count: Optional[int]
    threshold: Fraction


def _linking_work_estimate(G: BlowupGraph, t: int, max_work: int) -> int:
    """Work of the cycle-union form: the candidate sets of all same-part
    pairs, plus sum over d <= r of C(C, d), which bounds the nodes of the
    union listing when G has C transversal cycles.  It is 0 exactly when
    no candidate set exists (r > n).  The cycles are counted only when
    the candidate sets fit in ``max_work``, so that refusing a large
    instance costs no path product."""
    k, n = G.k, G.n
    pattern = linking_pattern(k, 1, t)
    combos = math.prod(math.comb(n, pattern.count(p)) for p in range(1, k + 1))
    sets = k * (n * (n + 1) // 2) * combos
    if sets == 0 or sets > max_work:
        return sets
    cycles = sum(_path_counts(G, 1, [(u, u) for u in range(n)]))
    return sets + sum(math.comb(cycles, d) for d in range((t + 1) // k + 1))


def is_linked(G: BlowupGraph, eta, t: int, *, max_work: int = 20_000_000) -> LinkedResult:
    """Whether every same-part pair (v = v' allowed) has at least
    eta * n^t linking sequences; reports the minimizing pair (the first
    in scan order among ties).

    Counts are exact: ``path_linking_count`` for t = k-1, the
    intersections of ``union_linking_bits`` otherwise.  The path product
    enumerates nothing, so only the cycle-union form is guarded: it
    raises InfeasibleSizeError when the candidate sets of all pairs plus
    the nodes of the union listing number more than ``max_work``, so an
    undecided instance is never conflated with a negative answer.  When
    a part has fewer than (t+1)/k vertices no candidate set exists, and
    every pair counts 0 without any listing.  Requires eta > 0.
    """
    k, n = G.k, G.n
    eta = Fraction(eta)
    if eta <= 0:
        raise PreconditionError(f"eta = {eta} must be positive")
    _check_linking_t(k, t)
    threshold = eta * n**t
    pairs = [(a, b) for a in range(n) for b in range(a, n)]  # in scan order
    if t == k - 1:
        def counts(i):
            return _path_counts(G, i, pairs)
    else:
        est = _linking_work_estimate(G, t, max_work)
        if est > max_work:
            raise InfeasibleSizeError(
                f"exhaustive linkedness check needs ~{est} combinations (> {max_work})"
            )
        if est == 0:  # every count is 0, below the positive threshold
            return LinkedResult(False, (VertexRef(1, 0), VertexRef(1, 0)), 0, threshold)
        bits, orderings = union_linking_bits(G, t)

        def counts(i):
            return [(bits[i - 1][a] & bits[i - 1][b]).bit_count() * orderings
                    for a, b in pairs]
    min_pair = None
    min_count = None
    for i in range(1, k + 1):
        for (a, b), c in zip(pairs, counts(i)):
            if min_count is None or c < min_count:
                min_count = c
                min_pair = (VertexRef(i, a), VertexRef(i, b))
    return LinkedResult(Fraction(min_count) >= threshold, min_pair, min_count, threshold)
