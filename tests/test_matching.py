"""Matching layer against a brute-force oracle on small instances, plus
the Hall-violator certificate property."""

import itertools

import numpy as np
import pytest

from ckblowup.core import PreconditionError
from ckblowup.generators import complete_blowup, random_min_degree
from ckblowup.matching import (
    hall_violator_matrix,
    max_matching,
    max_matching_matrix,
    simultaneous_matching,
)


def brute_max_matching(adj, left, right):
    """Largest matching size by trying all injections (fine for <= 8)."""
    left = sorted(left)
    right = sorted(right)
    best = 0
    for r in range(min(len(left), len(right)), 0, -1):
        for lsub in itertools.combinations(left, r):
            for perm in itertools.permutations(right, r):
                if all(adj[u, w] for u, w in zip(lsub, perm)):
                    return r
        best = 0
    return best


def random_matrix(rng, n, p):
    return rng.random((n, n)) < p


@pytest.mark.parametrize("seed", range(30))
def test_matching_size_matches_brute_force(seed):
    rng = np.random.default_rng(1000 + seed)
    n = int(rng.integers(2, 7))
    adj = random_matrix(rng, n, float(rng.uniform(0.2, 0.9)))
    left = list(range(n))
    right = list(range(n))
    got = max_matching_matrix(adj, left, right)
    want = brute_max_matching(adj, left, right)
    assert len(got) == want
    for u, w in got.items():
        assert adj[u, w]
    assert len(set(got.values())) == len(got)


def test_matching_respects_subsets():
    adj = np.ones((4, 4), dtype=bool)
    got = max_matching_matrix(adj, [0, 2], [1, 3])
    assert set(got) == {0, 2}
    assert set(got.values()) <= {1, 3}


def test_matching_is_deterministic():
    rng = np.random.default_rng(7)
    adj = random_matrix(rng, 8, 0.5)
    a = max_matching_matrix(adj, range(8), range(8))
    b = max_matching_matrix(adj, range(8), range(8))
    assert a == b


@pytest.mark.parametrize("seed", range(30))
def test_hall_violator_certifies_deficiency(seed):
    rng = np.random.default_rng(2000 + seed)
    n = int(rng.integers(2, 8))
    adj = random_matrix(rng, n, float(rng.uniform(0.1, 0.6)))
    left = list(range(n))
    right = list(range(n))
    S = hall_violator_matrix(adj, left, right)
    matching = max_matching_matrix(adj, left, right)
    if S is None:
        assert len(matching) == n
    else:
        nbhd = set()
        for u in S:
            nbhd.update(np.flatnonzero(adj[u, :]).tolist())
        assert len(nbhd) < len(S)


def test_max_matching_on_graph_pair():
    G = complete_blowup(3, 4)
    m = max_matching(G, 2)
    assert len(m) == 4
    m2 = max_matching(G, 2, left=[0, 1], right=[2, 3])
    assert set(m2) == {0, 1} and set(m2.values()) == {2, 3}


def test_max_matching_respects_sparse_pair():
    G = random_min_degree(3, 6, [3, 3, 3], seed=5)
    for i in (1, 2, 3):
        m = max_matching(G, i)
        # min degree n/2 forces a perfect matching (Hall holds)
        assert len(m) == 6
        adj = G.pair_matrix(i)
        assert all(adj[u, w] for u, w in m.items())


def test_simultaneous_matching_common_edges_only():
    n = 6
    # dense enough that delta(H) + delta(H') >= 3n/2 holds by construction
    H = np.ones((n, n), dtype=bool)
    H[0, 0] = False
    Hp = np.ones((n, n), dtype=bool)
    Hp[1, 1] = False
    matching, viol = simultaneous_matching(H, Hp, n)
    assert viol is None
    assert len(matching) == n
    for u, w in matching.items():
        assert H[u, w] and Hp[u, w]


def test_simultaneous_matching_reports_violator():
    n = 4
    H = np.zeros((n, n), dtype=bool)
    H[:, 0] = True  # everything maps to column 0
    matching, viol = simultaneous_matching(H, H, n)
    assert matching is None
    assert viol is not None and len(viol) >= 2


def test_simultaneous_matching_accepts_edge_lists():
    n = 3
    edges = [(i, j) for i in range(n) for j in range(n)]
    matching, viol = simultaneous_matching(edges, edges, n)
    assert viol is None and len(matching) == n
    with pytest.raises(PreconditionError):
        simultaneous_matching([(0, 5)], edges, n)


def test_matching_long_augmenting_path_does_not_recurse():
    # left i sees right n-1-i and n-2-i; the lowest-index scan first
    # matches i -> n-2-i, so the last free vertex must flip a path of
    # length n
    n = 1500
    adj = np.zeros((n, n), dtype=bool)
    idx = np.arange(n)
    adj[idx, n - 1 - idx] = True
    adj[idx[:-1], n - 2 - idx[:-1]] = True
    m = max_matching_matrix(adj, range(n), range(n))
    assert m == {i: n - 1 - i for i in range(n)}
