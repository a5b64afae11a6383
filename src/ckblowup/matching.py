"""Bipartite maximum matching on pair graphs, with Hall certificates.

The matcher is a Hopcroft-Karp style phase algorithm working directly on
boolean adjacency matrices restricted to index subsets.  All scans run in
increasing index order, so for a fixed input the matching returned is
deterministic (no set iteration anywhere).

A deficient side is certified by a Hall violator: the set S of left
vertices reachable from the unmatched left vertices by alternating paths
satisfies |N(S)| < |S|.
"""

from __future__ import annotations

from collections import deque
from typing import Iterable, Optional, Sequence

import numpy as np

from .core import BlowupGraph, PreconditionError


def max_matching_matrix(adj: np.ndarray, left: Sequence[int], right: Sequence[int]) -> dict:
    """Maximum matching of adj restricted to left x right index sets.

    Returns {left index -> right index}.  Indices are the matrix's own;
    ``left``/``right`` need not be contiguous or equal-sized.
    """
    left = sorted(left)
    right = sorted(right)
    rmask = np.zeros(adj.shape[1], dtype=bool)
    rmask[right] = True
    nbr = {u: np.flatnonzero(adj[u, :] & rmask).tolist() for u in left}
    match_l = {u: None for u in left}
    match_r = {w: None for w in right}

    def bfs():
        dist = {}
        q = deque()
        for u in left:
            if match_l[u] is None:
                dist[u] = 0
                q.append(u)
        found = False
        while q:
            u = q.popleft()
            for w in nbr[u]:
                nxt = match_r[w]
                if nxt is None:
                    found = True
                elif nxt not in dist:
                    dist[nxt] = dist[u] + 1
                    q.append(nxt)
        return found, dist

    def augment(root, dist) -> None:
        """Depth-first search along the BFS layers for an augmenting path
        from the free left vertex ``root``; flips the path if found.  The
        stack holds (left vertex, its unscanned neighbours); ``taken[j]``
        is the right vertex through which stack entry j reached entry
        j + 1.  A left vertex that fails leaves the layers for the phase."""
        stack = [(root, iter(nbr[root]))]
        taken = []
        while stack:
            u, it = stack[-1]
            for w in it:
                nxt = match_r[w]
                if nxt is None:
                    taken.append(w)
                    for (v, _), x in zip(stack, taken):
                        match_l[v] = x
                        match_r[x] = v
                    return
                if dist.get(nxt) == dist[u] + 1:
                    taken.append(w)
                    stack.append((nxt, iter(nbr[nxt])))
                    break
            else:
                dist[u] = None
                stack.pop()
                if taken:
                    taken.pop()

    while True:
        found, dist = bfs()
        if not found:
            break
        for u in left:
            if match_l[u] is None:
                augment(u, dist)
    return {u: w for u, w in match_l.items() if w is not None}


def max_matching(
    G: BlowupGraph,
    i: int,
    left: Optional[Iterable[int]] = None,
    right: Optional[Iterable[int]] = None,
) -> dict:
    """Maximum matching in G[V_i, V_{i+1}] restricted to the given subsets.

    Defaults to the full parts.  Returns {index in V_i -> index in V_{i+1}}.
    """
    adj = G.pair_matrix(i)
    left = list(range(G.n)) if left is None else list(left)
    right = list(range(G.n)) if right is None else list(right)
    return max_matching_matrix(adj, left, right)


def hall_violator_matrix(adj: np.ndarray, left: Sequence[int], right: Sequence[int]):
    """None if a perfect matching of ``left`` exists, else a set S of left
    indices with |N(S) cap right| < |S|."""
    left = sorted(left)
    right = sorted(right)
    matching = max_matching_matrix(adj, left, right)
    if len(matching) == len(left):
        return None
    match_r = {w: u for u, w in matching.items()}
    rmask = np.zeros(adj.shape[1], dtype=bool)
    rmask[right] = True
    # alternating BFS from unmatched left vertices: free edges left->right,
    # matching edges right->left
    S = {u for u in left if u not in matching}
    frontier = sorted(S)
    seen_r = set()
    while frontier:
        nxt = []
        for u in frontier:
            for w in np.flatnonzero(adj[u, :] & rmask).tolist():
                if w in seen_r:
                    continue
                seen_r.add(w)
                mu = match_r.get(w)
                if mu is not None and mu not in S:
                    S.add(mu)
                    nxt.append(mu)
        frontier = nxt
    # every reached right vertex is matched, so |N(S)| = |S| - deficiency
    return S


def hall_violator(
    G: BlowupGraph,
    i: int,
    left: Optional[Iterable[int]] = None,
    right: Optional[Iterable[int]] = None,
):
    """Hall violator for G[V_i, V_{i+1}] restricted to subsets, or None."""
    adj = G.pair_matrix(i)
    left = list(range(G.n)) if left is None else list(left)
    right = list(range(G.n)) if right is None else list(right)
    return hall_violator_matrix(adj, left, right)


def _as_matrix(H, n: int) -> np.ndarray:
    if isinstance(H, np.ndarray):
        if H.shape != (n, n):
            raise PreconditionError(f"bipartite matrix has shape {H.shape}, expected {(n, n)}")
        return H.astype(bool)
    m = np.zeros((n, n), dtype=bool)
    for u, w in H:
        if not (0 <= u < n and 0 <= w < n):
            raise PreconditionError(f"edge ({u},{w}) out of range 0..{n - 1}")
        m[u, w] = True
    return m


def simultaneous_matching(H, H_prime, n: int):
    """Perfect matching using only edges present in both bipartite graphs.

    H and H_prime are boolean n x n matrices (or edge iterables) over the
    same two vertex sets.  When min degree delta(H) + delta(H') >= 3n/2
    every vertex keeps >= n/2 common edges, so a common perfect matching
    exists.  Returns (matching, None) on success, (None, hall_violator) on
    failure; the attempt is made regardless of degrees.
    """
    A = _as_matrix(H, n)
    B = _as_matrix(H_prime, n)
    common = A & B
    idx = list(range(n))
    matching = max_matching_matrix(common, idx, idx)
    if len(matching) == n:
        return matching, None
    return None, hall_violator_matrix(common, idx, idx)
