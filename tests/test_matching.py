"""Matching layer against a brute-force oracle on small instances, plus
a Hall-violator certificate that each matching is maximum."""

import itertools

import numpy as np
import pytest

from ckblowup.generators import random_min_degree
from ckblowup.matching import max_matching_matrix


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
    # the left vertices S reachable from unmatched ones by alternating
    # paths have |N(S)| = |S| - (unmatched count) exactly when no
    # augmenting path exists, so the matching is maximum
    rng = np.random.default_rng(2000 + seed)
    n = int(rng.integers(2, 8))
    adj = random_matrix(rng, n, float(rng.uniform(0.1, 0.6)))
    matching = max_matching_matrix(adj, range(n), range(n))
    match_r = {w: u for u, w in matching.items()}
    S = {u for u in range(n) if u not in matching}
    frontier = sorted(S)
    nbhd = set()
    while frontier:
        for w in np.flatnonzero(adj[frontier.pop(), :]).tolist():
            if w not in nbhd:
                nbhd.add(w)
                if w in match_r:
                    S.add(match_r[w])
                    frontier.append(match_r[w])
    assert len(nbhd) == len(S) - (n - len(matching))


def test_max_matching_respects_sparse_pair():
    G = random_min_degree(3, 6, [3, 3, 3], seed=5)
    for i in (1, 2, 3):
        adj = G.pair_matrix(i)
        m = max_matching_matrix(adj, range(6), range(6))
        # min degree n/2 forces a perfect matching (Hall holds)
        assert len(m) == 6
        assert all(adj[u, w] for u, w in m.items())


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


def check_maximum(adj, left, right):
    got = max_matching_matrix(adj, left, right)
    assert set(got) <= set(left) and set(got.values()) <= set(right)
    assert len(set(got.values())) == len(got)
    assert all(adj[u, w] for u, w in got.items())
    assert len(got) == brute_max_matching(adj, left, right)
    return got


def test_matching_with_an_empty_side():
    adj = np.ones((5, 6), dtype=bool)
    assert check_maximum(adj, [], [0, 3, 5]) == {}
    assert check_maximum(adj, [1, 4], []) == {}
    assert check_maximum(adj, [], []) == {}


@pytest.mark.parametrize("seed", range(12))
def test_matching_on_unsorted_index_lists_and_ranges(seed):
    rng = np.random.default_rng(3000 + seed)
    adj = rng.random((9, 11)) < float(rng.uniform(0.15, 0.6))
    left = rng.permutation(9)[:int(rng.integers(1, 7))].tolist()  # unsorted, with gaps
    right = rng.permutation(11)[:int(rng.integers(1, 7))].tolist()
    got = check_maximum(adj, left, right)
    assert max_matching_matrix(adj, sorted(left), sorted(right)) == got
    assert max_matching_matrix(adj, np.array(left), tuple(right)) == got
    lo, hi = sorted(rng.choice(9, size=2, replace=False).tolist())
    check_maximum(adj, range(lo, hi + 1), range(2, 11, 2))


def test_matching_seeded_result_is_pinned():
    rng = np.random.default_rng(8)
    adj = rng.random((8, 8)) < 0.35
    assert max_matching_matrix(adj, range(8), range(8)) == {
        0: 0, 1: 2, 2: 5, 3: 1, 4: 7, 5: 3, 6: 6, 7: 4}
    assert max_matching_matrix(adj, [6, 1, 4, 3, 0, 7], [7, 2, 5, 0, 3]) == {
        0: 0, 1: 3, 3: 7, 4: 2, 7: 5}
