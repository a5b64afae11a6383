"""Constructions and generators: the factor-free blow-up family, the
small-cover triangle instance, and random degree-constrained instances."""

from fractions import Fraction

import pytest

from ckblowup.core import PreconditionError, degree_profile
from ckblowup.exact import is_cover, max_tiling
from ckblowup.generators import cover_example, cover_size, haggkvist_example, random_min_degree


@pytest.mark.parametrize("k,m", [(3, 1), (3, 2), (4, 1)])
def test_tight_example_degree_profile(k, m):
    G, blocks = haggkvist_example(k, m)
    n = 2 * k * m
    assert G.n == n
    prof = degree_profile(G)
    assert prof.delta_star == (k + 1) * m - 1
    # the short Z_k block depresses the two pairs touching V_k by one;
    # every other pair sits exactly at (k+1)m
    for i in range(1, k + 1):
        want = (k + 1) * m - (1 if i >= k - 1 else 0)
        assert prof.deltas[i - 1] == want


@pytest.mark.parametrize("k,m", [(3, 1), (3, 2), (4, 1)])
def test_tight_example_blocks_partition_parts(k, m):
    G, blocks = haggkvist_example(k, m)
    n = G.n
    for i in range(1, k + 1):
        ids = sorted(
            blocks[f"U_{i}"] + blocks[f"W_{i}"] + blocks[f"Z_{i}"]
        )
        assert ids == list(range(n))
    assert len(blocks[f"Z_{k}"]) == 2 * m - 1
    for i in range(1, k):
        assert len(blocks[f"Z_{i}"]) == 2 * m


@pytest.mark.parametrize("k,m", [(3, 1), (3, 2), (4, 1)])
def test_tight_example_z_union_is_cover(k, m):
    G, blocks = haggkvist_example(k, m)
    Z = {i: blocks[f"Z_{i}"] for i in range(1, k + 1)}
    assert is_cover(G, Z)
    assert sum(len(v) for v in Z.values()) == 2 * k * m - 1


def test_tight_example_has_no_factor_small():
    G, _ = haggkvist_example(3, 1)
    res = max_tiling(G)
    assert res.optimal
    assert res.size == G.n - 1


def test_tight_example_rejects_bad_args():
    with pytest.raises(PreconditionError):
        haggkvist_example(2, 1)
    with pytest.raises(PreconditionError):
        haggkvist_example(3, 0)


def test_cover_example_exact_structure():
    ex = cover_example(7, 9)
    assert ex.n == 36
    assert ex.gamma == Fraction(7, 9)
    assert ex.beta == Fraction(4, 3) - Fraction(7, 9)
    G = ex.graph
    # exact bipartite minimum degrees of the three pairs
    prof = degree_profile(G)
    assert prof.deltas[0] == 27  # pair (A, B): gamma*n - eps*n
    assert prof.deltas[2] == 20  # pair (C, A): beta*n
    assert prof.deltas[1] == 18  # pair (B, C): n/2
    # hub cover size (1 - 3*eps)n + ... = 33 here
    assert sum(len(v) for v in ex.cover.values()) == 33


def test_cover_example_blocks_partition():
    ex = cover_example(7, 9)
    for part, prefix in ((1, "A"), (2, "B"), (3, "C")):
        ids = []
        for i in range(4):
            ids.extend(ex.blocks[f"{prefix}_{i}"])
        assert sorted(ids) == list(range(ex.n))


def test_cover_example_rejects_out_of_range_gamma():
    with pytest.raises(PreconditionError):
        cover_example(3, 4)  # gamma = 3/4 excluded
    with pytest.raises(PreconditionError):
        cover_example(4, 5)  # above 7/9


def test_random_min_degree_meets_bounds():
    deltas = [4, 5, 3]
    G = random_min_degree(3, 8, deltas, seed=11)
    prof = degree_profile(G)
    for want, got in zip(deltas, prof.deltas):
        assert got >= want


def test_random_min_degree_reproducible():
    a = random_min_degree(4, 6, [3, 3, 3, 3], seed=42)
    b = random_min_degree(4, 6, [3, 3, 3, 3], seed=42)
    c = random_min_degree(4, 6, [3, 3, 3, 3], seed=43)
    assert a == b
    assert a != c


def test_random_min_degree_validates_args():
    with pytest.raises(PreconditionError):
        random_min_degree(3, 6, [3, 3], seed=0)
    with pytest.raises(PreconditionError):
        random_min_degree(3, 6, [3, 3, 7], seed=0)


def test_cover_size_is_the_least_admissible_n():
    def search(gamma):  # the scan cover_example made before cover_size
        beta = Fraction(4, 3) - gamma
        n = 1
        while not (gamma >= Fraction(3, 4) + Fraction(1, n) and (gamma * n).denominator == 1
                   and ((1 - beta) * n / 2).denominator == 1):
            n += 1
        return n

    checked = 0
    for q in range(1, 80):
        for p in range(q):
            if Fraction(3, 4) < Fraction(p, q) <= Fraction(7, 9):
                assert cover_size(p, q) == search(Fraction(p, q)), (p, q)
                checked += 1
    assert checked > 50
    assert cover_example(7, 9).n == cover_size(7, 9) == 36
    with pytest.raises(PreconditionError):
        cover_size(3, 4)
