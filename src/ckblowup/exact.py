"""Exhaustive oracles: maximum transversal tilings, transversal cycle
covers, independent sets, and linking-sequence counts.

Everything here is correct by construction at small scale and doubles as
the reference implementation for the randomized pipeline.  Conventions:

* Searches are deterministic.  Vertices are scanned in increasing index
  order, parts in increasing label order, so optima and witnesses are
  reproducible.
* Optional ``alive`` arguments restrict a search to an induced subgraph;
  they accept a dict mapping parts to index iterables or a list of k
  boolean masks.  Graphs are never copied.
* ``time_budget_ms`` is wall clock.  Exhausting it degrades the result
  to ``optimal=False`` (the returned object is still valid), it never
  raises.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations, permutations, product
from typing import Iterable, Optional, Sequence

import numpy as np

from .core import BlowupGraph, PreconditionError, VertexRef, validate_tiling


class InfeasibleSizeError(Exception):
    """An exhaustive enumeration would exceed its work budget.

    Distinct from a negative answer: the question was not decided.
    """


def _alive_masks(G: BlowupGraph, alive) -> list:
    """Normalize an alive-vertex specification to k boolean masks."""
    if alive is None:
        return [np.ones(G.n, dtype=bool) for _ in range(G.k)]
    if isinstance(alive, dict):
        masks = []
        for i in range(1, G.k + 1):
            m = np.zeros(G.n, dtype=bool)
            for idx in alive.get(i, ()):
                m[idx] = True
            masks.append(m)
        return masks
    masks = [np.array(m, dtype=bool, copy=True) for m in alive]
    if len(masks) != G.k or any(m.shape != (G.n,) for m in masks):
        raise PreconditionError("alive masks must be k arrays of length n")
    return masks


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
    back = G.pair_matrix(k)[:, u]  # adjacency of V_k towards u

    def rec(p, prev_idx, chosen):
        mask = G.pair_matrix(p - 1)[prev_idx] & avail[p - 1]
        if p == k:
            mask = mask & back
            for w in np.flatnonzero(mask):
                yield chosen + (int(w),)
        else:
            for w in np.flatnonzero(mask):
                yield from rec(p + 1, int(w), chosen + (int(w),))

    yield from rec(2, u, (u,))


def _first_cycle(G: BlowupGraph, avail) -> Optional[tuple]:
    """Lowest transversal cycle over the available vertices, or None."""
    for u in np.flatnonzero(avail[0]):
        for c in _cycles_through(G, avail, int(u)):
            return c
    return None


def _greedy_packing(G: BlowupGraph, avail) -> list:
    """Deterministic maximal set of disjoint transversal cycles.

    Scans V_1 in increasing order; each vertex contributes the lowest
    cycle through it that avoids previously packed vertices, if any.
    The masks are restored before returning.
    """
    packed = []
    touched = []
    for u in np.flatnonzero(avail[0].copy()):
        u = int(u)
        if not avail[0][u]:
            continue
        for c in _cycles_through(G, avail, u):
            packed.append(c)
            for p, idx in enumerate(c):
                avail[p][idx] = False
                touched.append((p, idx))
            break
    for p, idx in touched:
        avail[p][idx] = True
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
) -> MaxTilingResult:
    """Maximum transversal cycle tiling by depth-first branch and bound.

    Branches on the lowest-index available vertex of V_1, enumerating
    the cycles through it and the option of leaving it uncovered, and
    prunes with the bound current size + least per-part availability.

    ``stop_at`` aborts as soon as a tiling of that size is found; the
    result is flagged optimal only if ``stop_at`` is also a valid upper
    bound (it equals or exceeds the least available part size).
    """
    avail = _alive_masks(G, alive)
    counts = [int(m.sum()) for m in avail]
    hard_cap = min(counts)
    target = hard_cap if stop_at is None else min(stop_at, hard_cap)

    start = time.monotonic()
    deadline = None if time_budget_ms is None else start + time_budget_ms / 1000.0
    state = {"best": [], "nodes": 0, "timed_out": False, "done": False}
    current = []

    def dfs():
        state["nodes"] += 1
        if deadline is not None and state["nodes"] % 64 == 0:
            if time.monotonic() > deadline:
                state["timed_out"] = True
        if state["timed_out"] or state["done"]:
            return
        if len(current) > len(state["best"]):
            state["best"] = list(current)
            if len(current) >= target:
                state["done"] = True
                return
        bound = len(current) + min(counts)
        if bound <= len(state["best"]):
            return
        free = np.flatnonzero(avail[0])
        if free.size == 0:
            return
        u = int(free[0])
        # branch: cycles through u
        for c in _cycles_through(G, avail, u):
            for p, idx in enumerate(c):
                avail[p][idx] = False
                counts[p] -= 1
            current.append(c)
            dfs()
            current.pop()
            for p, idx in enumerate(c):
                avail[p][idx] = True
                counts[p] += 1
            if state["timed_out"] or state["done"]:
                return
        # branch: leave u uncovered
        avail[0][u] = False
        counts[0] -= 1
        dfs()
        avail[0][u] = True
        counts[0] += 1

    dfs()
    millis = (time.monotonic() - start) * 1000.0
    found = state["best"]
    if state["timed_out"]:
        optimal = False
    elif state["done"]:
        optimal = target >= hard_cap
    else:
        optimal = True
    return MaxTilingResult(found, optimal, state["nodes"], millis)


def has_factor(G: BlowupGraph, alive=None, memo: Optional[dict] = None) -> bool:
    """Whether the induced (sub)instance has a transversal cycle factor.

    ``memo`` may be shared across calls; keys are the sorted alive
    vertex tuples, so it must not be reused across distinct graphs.
    """
    masks = _alive_masks(G, alive)
    counts = [int(m.sum()) for m in masks]
    if len(set(counts)) != 1:
        return False
    c = counts[0]
    if c == 0:
        return True
    key = None
    if memo is not None:
        key = tuple(
            (p + 1, int(i)) for p in range(G.k) for i in np.flatnonzero(masks[p])
        )
        if key in memo:
            return memo[key]
    res = max_tiling(G, alive=masks, stop_at=c)
    out = res.size == c
    if memo is not None:
        memo[key] = out
    return out


def is_cover(G: BlowupGraph, Z, alive=None) -> bool:
    """True iff every transversal cycle (within the alive set) meets Z."""
    masks = _alive_masks(G, alive)
    for v in _as_vertex_list(Z):
        G._check_vertex(v)
        masks[v.part - 1][v.index] = False
    return _first_cycle(G, masks) is None


@dataclass
class CoverResult:
    size: int
    witness: Optional[list]
    optimal: bool
    nodes: int
    millis: float


def cover_number(
    G: BlowupGraph,
    upper_hint: Optional[int] = None,
    time_budget_ms: Optional[float] = None,
) -> CoverResult:
    """Minimum size of a transversal cycle cover, by branch and bound on
    the hitting-set formulation.

    At each node the deterministic enumerator packs disjoint uncovered
    cycles; the packing size is an additive lower bound, and its first
    cycle is the branching constraint (one branch per cycle vertex).
    V_1 is always a cover, so the incumbent starts at size n.  If
    ``upper_hint`` is given it must be the size of a cover known to
    exist; when the optimum equals the hint the returned witness may
    then be None (the search only proves nothing smaller exists).
    """
    n = G.n
    start = time.monotonic()
    deadline = None if time_budget_ms is None else start + time_budget_ms / 1000.0
    best = {"size": n, "witness": [VertexRef(1, i) for i in range(n)]}
    if upper_hint is not None and upper_hint < n:
        best = {"size": upper_hint, "witness": None}
    state = {"nodes": 0, "timed_out": False}
    avail = _alive_masks(G, None)
    chosen: list = []

    def dfs():
        state["nodes"] += 1
        if deadline is not None and state["nodes"] % 32 == 0:
            if time.monotonic() > deadline:
                state["timed_out"] = True
        if state["timed_out"]:
            return
        pack = _greedy_packing(G, avail)
        if len(chosen) + len(pack) >= best["size"]:
            return
        if not pack:
            best["size"] = len(chosen)
            best["witness"] = sorted(chosen)
            return
        branch_cycle = pack[0]
        for p, idx in enumerate(branch_cycle):
            v = VertexRef(p + 1, idx)
            chosen.append(v)
            avail[p][idx] = False
            dfs()
            chosen.pop()
            avail[p][idx] = True
            if state["timed_out"]:
                return

    dfs()
    millis = (time.monotonic() - start) * 1000.0
    return CoverResult(
        best["size"], best["witness"], not state["timed_out"], state["nodes"], millis
    )


def independence_number(G: BlowupGraph) -> int:
    """Maximum independent set size, over all kn vertices.

    Any single part is independent, so the result is at least n.
    Branch and bound on python-int bitmasks (include/exclude the lowest
    candidate vertex, bound by candidate count).
    """
    k, n = G.k, G.n
    total = k * n

    def vid(part, idx):
        return (part - 1) * n + idx

    adj = [0] * total
    for i in range(1, k + 1):
        j = i % k + 1
        mat = G.pair_matrix(i)
        for u in range(n):
            row = np.flatnonzero(mat[u])
            if row.size:
                a = vid(i, u)
                for w in row:
                    b = vid(j, int(w))
                    adj[a] |= 1 << b
                    adj[b] |= 1 << a

    best = n  # one part is always independent
    full = (1 << total) - 1

    def mis(cand: int, size: int):
        nonlocal best
        if cand == 0:
            if size > best:
                best = size
            return
        if size + cand.bit_count() <= best:
            return
        v = (cand & -cand).bit_length() - 1
        mis(cand & ~adj[v] & ~(1 << v), size + 1)
        mis(cand & ~(1 << v), size)

    mis(full, 0)
    return best


def linking_pattern(k: int, base_part: int, t: int) -> list:
    """Parts of the t entries of a linking sequence for a base vertex in
    ``base_part``: entry j lies in the part j steps after it cyclically."""
    return [(base_part - 1 + j) % k + 1 for j in range(1, t + 1)]


@dataclass
class LinkingCount:
    count: int
    complete: bool
    sequences: Optional[list] = None


def enumerate_linking(
    G: BlowupGraph,
    v: VertexRef,
    v2: VertexRef,
    t: int,
    cap: Optional[int] = None,
    collect: bool = False,
    memo: Optional[dict] = None,
) -> LinkingCount:
    """Exact count of linking sequences for the same-part pair (v, v2).

    A linking sequence is an ordered t-tuple of distinct vertices, all
    different from v and v2, whose entries follow the cyclic part
    pattern starting one part after the pair's part, such that adding
    either v or v2 yields an induced subgraph with a transversal cycle
    factor.  Since the factor condition depends only on the underlying
    vertex set, sets are enumerated once per part-wise combination and
    multiplied by the number of per-part orderings.

    Stops early once ``cap`` sequences are confirmed (complete=False).
    """
    k, n = G.k, G.n
    v, v2 = VertexRef(*v), VertexRef(*v2)
    if v.part != v2.part:
        raise PreconditionError("linking endpoints must share a part")
    G._check_vertex(v)
    G._check_vertex(v2)
    if (t + 1) % k != 0:
        raise PreconditionError(f"t+1 = {t + 1} must be divisible by k = {k}")
    if memo is None:
        memo = {}
    pattern = linking_pattern(k, v.part, t)
    slots = {p: pattern.count(p) for p in range(1, k + 1) if pattern.count(p)}
    parts = sorted(slots)
    excluded = {v.index, v2.index}
    cands = {
        p: [i for i in range(n) if p != v.part or i not in excluded] for p in parts
    }
    orderings = 1
    for p in parts:
        orderings *= math.factorial(slots[p])

    count = 0
    seqs = [] if collect else None
    pools = [list(combinations(cands[p], slots[p])) for p in parts]
    for combo in product(*pools):
        chosen = {p: list(sel) for p, sel in zip(parts, combo)}
        ok = True
        for base in {v, v2}:
            masks = [np.zeros(n, dtype=bool) for _ in range(k)]
            for p in parts:
                masks[p - 1][chosen[p]] = True
            masks[base.part - 1][base.index] = True
            if not has_factor(G, alive=masks, memo=memo):
                ok = False
                break
        if not ok:
            continue
        count += orderings
        if collect:
            part_positions = {p: [j for j, q in enumerate(pattern) if q == p] for p in parts}
            for arrangement in product(*(permutations(chosen[p]) for p in parts)):
                seq = [None] * t
                for p, perm in zip(parts, arrangement):
                    for pos, idx in zip(part_positions[p], perm):
                        seq[pos] = VertexRef(p, idx)
                seqs.append(tuple(seq))
        if cap is not None and count >= cap:
            return LinkingCount(count, False, seqs)
    return LinkingCount(count, True, seqs)


@dataclass
class LinkedResult:
    linked: bool
    pair: Optional[tuple]
    count: Optional[int]
    threshold: Fraction


def _linking_work_estimate(G: BlowupGraph, t: int) -> int:
    k, n = G.k, G.n
    pattern = linking_pattern(k, 1, t)
    combos = 1
    for p in range(1, k + 1):
        s = pattern.count(p)
        if s:
            combos *= math.comb(n, s)
    pairs = k * (n * (n + 1) // 2)
    return pairs * combos


def is_linked(G: BlowupGraph, eta, t: int, *, max_work: int = 20_000_000) -> LinkedResult:
    """Whether every same-part pair (v = v' allowed) has at least
    eta * n^t linking sequences; reports the minimizing pair.

    Raises InfeasibleSizeError when the exhaustive enumeration would
    exceed ``max_work`` set-combinations, so an undecided instance is
    never conflated with a negative answer.
    """
    n = G.n
    est = _linking_work_estimate(G, t)
    if est > max_work:
        raise InfeasibleSizeError(
            f"exhaustive linkedness check needs ~{est} combinations (> {max_work})"
        )
    threshold = Fraction(eta) * n**t
    memo: dict = {}
    min_pair = None
    min_count = None
    for i in range(1, G.k + 1):
        for a in range(n):
            for b in range(a, n):
                v, v2 = VertexRef(i, a), VertexRef(i, b)
                res = enumerate_linking(G, v, v2, t, memo=memo)
                if min_count is None or res.count < min_count:
                    min_count = res.count
                    min_pair = (v, v2)
    return LinkedResult(Fraction(min_count) >= threshold, min_pair, min_count, threshold)
