"""Bipartite maximum matching on pair graphs.

The matcher is a Hopcroft-Karp style phase algorithm working directly on
boolean adjacency matrices restricted to index subsets.  All scans run in
increasing index order, so for a fixed input the matching returned is
deterministic (no set iteration anywhere).
"""

from __future__ import annotations

from collections import deque
from itertools import compress
from typing import Sequence

import numpy as np


def max_matching_matrix(adj: np.ndarray, left: Sequence[int], right: Sequence[int]) -> dict:
    """Maximum matching of adj restricted to left x right index sets.

    Returns {left index -> right index}.  Indices are the matrix's own;
    ``left``/``right`` need not be contiguous or equal-sized.
    """
    left = sorted(left)
    right = sorted(right)
    # one gather of the left x right block; each row's neighbours come
    # out in increasing index order, as the scans below expect
    block = adj[np.ix_(left, right)].tolist()
    nbr = {u: list(compress(right, row)) for u, row in zip(left, block)}
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
