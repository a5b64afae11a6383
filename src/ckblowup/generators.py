"""Named constructions and instance generators.

Contains the two extremal constructions used throughout:

* ``haggkvist_example(k, m)``: the n = 2km blow-up instance with
  delta* = (k+1)m - 1 = (1 + 1/k)n/2 - 1 and no transversal C_k-factor.
  Each part splits into blocks U_i, W_i, Z_i; the union of the Z_i is a
  transversal-cycle cover of size 2km - 1 < n, because any transversal
  cycle avoiding Z would have to switch between the U-chain and the
  W-chain across the pair (V_k, V_1) while staying inside one chain on
  every other pair.

* ``cover_example(p, q)``: for rational gamma = p/q in (3/4, 7/9], a
  3-partite instance with delta(G[A,B]) >= gamma*n - 1,
  delta(G[A,C]) >= beta*n (beta = 4/3 - gamma), delta(G[B,C]) >= n/2,
  whose triangle cover number is at most (1 - 3/n)n = n - 3: the blocks
  A_0, B_0, C_0 meet every transversal triangle.

plus uniform-random instances with prescribed bipartite minimum degrees.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np

from .core import BlowupGraph, PreconditionError, part_after


def complete_blowup(k: int, n: int) -> BlowupGraph:
    """The complete blow-up C_k[n]: all edges between consecutive parts."""
    full = np.ones((n, n), dtype=bool)
    return BlowupGraph(k, n, [full] * k)


def _block_ranges(sizes):
    """Contiguous index ranges for named blocks within one part."""
    out = {}
    at = 0
    for name, size in sizes:
        out[name] = list(range(at, at + size))
        at += size
    return out, at


def haggkvist_example(k: int, m: int):
    """Degree-tight factor-free instance with n = 2km.

    Returns (graph, blocks) where blocks maps "U_i"/"W_i"/"Z_i" to index
    lists inside part i.  Block sizes: |U_i| = |W_i| = (k-1)m and
    |Z_i| = 2m for i < k; |U_k| = (k-1)m, |W_k| = (k-1)m + 1,
    |Z_k| = 2m - 1.  Edges: Z_i is complete to both neighbouring parts;
    U_i ~ U_{i+1} and W_i ~ W_{i+1} completely for i < k; across the pair
    (V_k, V_1) the chains cross: U_k ~ W_1 and W_k ~ U_1 completely.
    """
    if k < 3 or m < 1:
        raise PreconditionError(f"need k >= 3 and m >= 1, got k={k}, m={m}")
    n = 2 * k * m
    blocks = {}
    ranges = {}
    for i in range(1, k + 1):
        if i < k:
            sizes = [("U", (k - 1) * m), ("W", (k - 1) * m), ("Z", 2 * m)]
        else:
            sizes = [("U", (k - 1) * m), ("W", (k - 1) * m + 1), ("Z", 2 * m - 1)]
        rng, total = _block_ranges(sizes)
        assert total == n
        ranges[i] = rng
        for name, ids in rng.items():
            blocks[f"{name}_{i}"] = ids

    mats = [np.zeros((n, n), dtype=bool) for _ in range(k)]

    def connect(i, ids_left, ids_right):
        # complete bipartite block between V_i and V_{i+1}
        mats[i - 1][np.ix_(ids_left, ids_right)] = True

    for i in range(1, k + 1):
        j = part_after(k, i)
        # Z_i complete to V_{i+1}, and Z_{i+1} complete to V_i
        connect(i, ranges[i]["Z"], list(range(n)))
        connect(i, list(range(n)), ranges[j]["Z"])
        if i < k:
            connect(i, ranges[i]["U"], ranges[j]["U"])
            connect(i, ranges[i]["W"], ranges[j]["W"])
        else:
            connect(k, ranges[k]["U"], ranges[1]["W"])
            connect(k, ranges[k]["W"], ranges[1]["U"])
    return BlowupGraph(k, n, mats), blocks


@dataclass
class CoverExample:
    graph: BlowupGraph
    n: int
    gamma: Fraction
    beta: Fraction
    epsilon: Fraction
    blocks: dict  # "A_0".."C_3" -> index lists inside parts 1 (A), 2 (B), 3 (C)

    @property
    def cover(self):
        """The small cover A_0 u B_0 u C_0 as a per-part index dict."""
        return {1: list(self.blocks["A_0"]), 2: list(self.blocks["B_0"]), 3: list(self.blocks["C_0"])}


def cover_size(p: int, q: int) -> int:
    """The n of ``cover_example(p, q)``: the least n with gamma >= 3/4 + 1/n,
    gamma*n integral and (1-beta)n/2 integral, where gamma = p/q must lie
    in (3/4, 7/9] and beta = 4/3 - gamma.  The n with both integral are
    the multiples of one step; n is the least of them >= 1/(gamma - 3/4).
    """
    gamma = Fraction(p, q)
    if not Fraction(3, 4) < gamma <= Fraction(7, 9):
        raise PreconditionError(f"gamma must lie in (3/4, 7/9], got {gamma}")
    step = math.lcm(gamma.denominator, ((gamma - Fraction(1, 3)) / 2).denominator)
    n = step * math.ceil(1 / (gamma - Fraction(3, 4)) / step)
    if n >= 10**6:
        raise PreconditionError("no admissible n found")
    return n


def cover_example(p: int, q: int) -> CoverExample:
    """Triangle-cover-number < n instance for gamma = p/q in (3/4, 7/9].

    n is ``cover_size(p, q)`` and epsilon = 1/n.  Parts are
    A = V_1, B = V_2, C = V_3 with blocks A_0..A_3 etc., block sizes
    |B_i| = (1-gamma+eps)n, |A_i| = |C_i| = (1-beta)n/2 for i in [3],
    |B_0| = (3gamma-2)n - 3, |A_0| = |C_0| = (3beta-1)n/2.
    """
    n = cover_size(p, q)
    gamma = Fraction(p, q)
    beta = Fraction(4, 3) - gamma
    eps = Fraction(1, n)

    side = int((1 - beta) * n / 2)  # |A_i| = |C_i|
    bsize = int((1 - gamma + eps) * n)  # |B_i|
    a0 = int((3 * beta - 1) * n / 2)
    b0 = int((3 * gamma - 2) * n - 3)
    assert a0 + 3 * side == n and b0 + 3 * bsize == n

    blocks = {}
    arange, _ = _block_ranges([("A_0", a0), ("A_1", side), ("A_2", side), ("A_3", side)])
    brange, _ = _block_ranges([("B_0", b0), ("B_1", bsize), ("B_2", bsize), ("B_3", bsize)])
    crange, _ = _block_ranges([("C_0", a0), ("C_1", side), ("C_2", side), ("C_3", side)])
    blocks.update(arange)
    blocks.update(brange)
    blocks.update(crange)

    AB = np.zeros((n, n), dtype=bool)  # pair (V_1, V_2)
    BC = np.zeros((n, n), dtype=bool)  # pair (V_2, V_3)
    CA = np.zeros((n, n), dtype=bool)  # pair (V_3, V_1)
    allv = list(range(n))

    # the hub blocks are complete to both other parts
    AB[np.ix_(arange["A_0"], allv)] = True
    AB[np.ix_(allv, brange["B_0"])] = True
    BC[np.ix_(brange["B_0"], allv)] = True
    BC[np.ix_(allv, crange["C_0"])] = True
    CA[np.ix_(crange["C_0"], allv)] = True
    CA[np.ix_(allv, arange["A_0"])] = True
    # A_i sees the two B-blocks with the other indices
    for i in (1, 2, 3):
        for j in (1, 2, 3):
            if j != i:
                AB[np.ix_(arange[f"A_{i}"], brange[f"B_{j}"])] = True
    # aligned blocks: B_i ~ C_i and A_i ~ C_i
    for i in (1, 2, 3):
        BC[np.ix_(brange[f"B_{i}"], crange[f"C_{i}"])] = True
        CA[np.ix_(crange[f"C_{i}"], arange[f"A_{i}"])] = True

    G = BlowupGraph(3, n, [AB, BC, CA])
    return CoverExample(G, n, gamma, beta, eps, blocks)


def random_min_degree(k: int, n: int, deltas: Sequence[int], seed: int) -> BlowupGraph:
    """Random instance with delta_i >= deltas[i-1] for every pair, exactly
    reproducible from the seed.

    Each vertex of V_i selects deltas[i-1] distinct neighbours in V_{i+1}
    uniformly, each vertex of V_{i+1} likewise selects back, and the pair's
    edge set is the union, so both bipartite minimum degrees are at least
    the request.
    """
    if len(deltas) != k:
        raise PreconditionError(f"need {k} degree bounds, got {len(deltas)}")
    for d in deltas:
        if not 0 <= d <= n:
            raise PreconditionError(f"degree bound {d} out of range 0..{n}")
    rng = np.random.default_rng(seed)
    mats = []
    for i in range(k):
        d = deltas[i]
        m = np.zeros((n, n), dtype=bool)
        for u in range(n):
            m[u, rng.choice(n, size=d, replace=False)] = True
        for w in range(n):
            m[rng.choice(n, size=d, replace=False), w] = True
        mats.append(m)
    return BlowupGraph(k, n, mats)
