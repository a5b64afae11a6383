"""Exact search layer versus independent brute-force oracles: maximum
tilings against subset enumeration, linking counts against direct tuple
enumeration, cover numbers against weak duality and known instances."""

import math
import random
import tracemalloc
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, permutations, product
from typing import Optional

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ckblowup import exact
from ckblowup.core import BlowupGraph, VertexRef, PreconditionError, validate_tiling
from ckblowup.exact import (
    InfeasibleSizeError,
    cover_number,
    has_factor,
    is_cover,
    is_linked,
    linking_pattern,
    max_tiling,
    path_linking_count,
    union_linking_bits,
)
from ckblowup.generators import complete_blowup, haggkvist_example, random_min_degree


def all_triangles(G):
    A, B, C = G.pair_matrix(1), G.pair_matrix(2), G.pair_matrix(3)
    tris = []
    for a in range(G.n):
        for b in range(G.n):
            if not A[a, b]:
                continue
            for c in range(G.n):
                if B[b, c] and C[c, a]:
                    tris.append((a, b, c))
    return tris


def brute_max_tiling(G):
    """Largest disjoint triangle set by subset enumeration (tiny n only)."""
    tris = all_triangles(G)
    for s in range(min(G.n, len(tris)), 0, -1):
        for combo in combinations(tris, s):
            if all(
                len({t[p] for t in combo}) == s for p in range(3)
            ):
                return s
    return 0


@pytest.mark.parametrize("seed", range(8))
def test_max_tiling_matches_subset_oracle(seed):
    n = 3 if seed % 2 else 4
    G = random_min_degree(3, n, [2, 2, 2], seed=300 + seed)
    if len(all_triangles(G)) > 34:
        pytest.skip("triangle list too large for the subset oracle")
    res = max_tiling(G)
    assert res.optimal
    assert validate_tiling(G, res.cycles) is None
    assert res.size == brute_max_tiling(G)


def test_max_tiling_complete_is_factor():
    for k, n in ((3, 5), (4, 4)):
        G = complete_blowup(k, n)
        res = max_tiling(G)
        assert res.optimal and res.size == n
        assert validate_tiling(G, res.cycles) is None


def test_max_tiling_deep_search_does_not_recurse():
    n = 5000
    res = max_tiling(complete_blowup(3, n))
    assert res.size == n and res.optimal


def test_max_tiling_search_tree_is_pinned():
    G, _ = haggkvist_example(3, 1)
    res = max_tiling(G)
    assert res.size == 5 and res.optimal
    assert res.nodes == 273


def test_max_tiling_stop_at():
    G = complete_blowup(3, 4)
    res = max_tiling(G, stop_at=2)
    assert res.size == 2
    assert not res.optimal  # stopping early is not a proof of optimality
    res2 = max_tiling(G, stop_at=4)
    assert res2.size == 4 and res2.optimal


def test_max_tiling_upper_bound_proves_optimal():
    G, blocks = haggkvist_example(4, 1)
    Z = {i: blocks[f"Z_{i}"] for i in range(1, 5)}
    res = max_tiling(G, upper_bound=Z)
    assert res.size == G.n - 1 and res.optimal
    assert res.nodes == 9  # it stops there; without Z the search takes ~50 s
    assert validate_tiling(G, res.cycles) is None
    # only the alive vertices of Z count: dropping one of them from a
    # (3,1) instance leaves a cover of size 4 below every part's size 5
    H, blocks = haggkvist_example(3, 1)
    Z3 = {i: blocks[f"Z_{i}"] for i in range(1, 4)}
    alive = {1: [i for i in range(6) if i != Z3[1][0]], 2: range(6), 3: range(6)}
    res = max_tiling(H, alive=alive, upper_bound=Z3)
    assert res.size == 4 and res.optimal
    assert res.nodes == 6  # an exhaustive search takes 268
    # stop_at below the bound finds a tiling but proves nothing
    res = max_tiling(G, upper_bound=Z, stop_at=2)
    assert res.size == 2 and not res.optimal


def test_max_tiling_rejects_non_cover_bound():
    G, blocks = haggkvist_example(3, 1)
    with pytest.raises(PreconditionError, match="not a transversal cycle cover"):
        max_tiling(G, upper_bound={1: blocks["Z_1"]})


def test_max_tiling_time_budget_reports_incomplete():
    G, _ = haggkvist_example(3, 3)  # n = 18: far beyond a 1 ms search
    res = max_tiling(G, time_budget_ms=1.0)
    assert not res.optimal
    assert validate_tiling(G, res.cycles) is None


def test_max_tiling_alive_mask_restricts():
    G = complete_blowup(3, 4)
    alive = {1: [0, 1], 2: [0, 1, 2], 3: [1, 3]}
    res = max_tiling(G, alive=alive)
    assert res.size == 2
    for c in res.cycles:
        assert c[0] in alive[1] and c[1] in alive[2] and c[2] in alive[3]


def test_alive_rejects_out_of_range_vertices():
    G = complete_blowup(3, 4)
    for bad in (-1, 4):
        with pytest.raises(PreconditionError):
            max_tiling(G, alive={1: [bad], 2: [0], 3: [0]})
    for bits in ([15, 15], [15, 15, 15, 15], [15, 15, 16], [15, -1, 15]):
        with pytest.raises(PreconditionError):
            max_tiling(G, alive=bits)


def test_alive_bitsets_match_dict_form():
    G = complete_blowup(3, 4)
    # bit i of entry p-1 is vertex i of V_p
    assert max_tiling(G, alive=[0b0011, 0b0111, 0b1010]).cycles == \
        max_tiling(G, alive={1: [0, 1], 2: [0, 1, 2], 3: [1, 3]}).cycles


def test_has_factor_and_memo():
    assert has_factor(complete_blowup(3, 3))
    G, _ = haggkvist_example(3, 1)
    memo = {}
    assert not has_factor(G, memo=memo)
    assert not has_factor(G, memo=memo)  # second call hits the memo
    assert memo
    for key in memo:
        assert isinstance(key, tuple) and len(key) == G.k
        assert all(isinstance(b, int) for b in key)


@pytest.mark.parametrize("k,n", [(3, 5), (4, 4)])
def test_has_factor_one_transversal_matches_max_tiling(k, n):
    G = random_min_degree(k, n, [n // 2 + 1] * k, seed=7)
    memo = {}
    seen = set()
    for c in product(range(n), repeat=k):
        alive = {p + 1: [i] for p, i in enumerate(c)}
        want = max_tiling(G, alive=alive).size == 1
        assert has_factor(G, alive=alive) == want
        assert has_factor(G, alive=alive, memo=memo) == want
        seen.add(want)
    assert seen == {True, False}
    assert len(memo) == n ** k
    for key in memo:
        assert len(key) == k and all(isinstance(b, int) and b.bit_count() == 1 for b in key)


def test_is_cover_accepts_part_and_rejects_point():
    G = complete_blowup(3, 3)
    assert is_cover(G, {1: [0, 1, 2]})
    assert not is_cover(G, {1: [0]})
    assert is_cover(G, [VertexRef(1, i) for i in range(3)])


def test_cover_number_complete_equals_n():
    for n in (2, 3, 4):
        res = cover_number(complete_blowup(3, n))
        assert res.optimal and res.size == n
        assert is_cover(complete_blowup(3, n), res.witness)


def test_cover_number_tight_example():
    G, blocks = haggkvist_example(3, 1)
    res = cover_number(G)
    assert res.optimal and res.size == 5  # n - 1
    assert is_cover(G, res.witness)
    assert res.nodes == 16
    assert res.witness == [(1, 4), (1, 5), (2, 4), (2, 5), (3, 5)]


@pytest.mark.parametrize("seed", range(6))
def test_weak_duality_tiling_vs_cover(seed):
    G = random_min_degree(3, 5, [2, 3, 2], seed=500 + seed)
    t = max_tiling(G)
    c = cover_number(G)
    assert t.optimal and c.optimal
    assert t.size <= c.size


def test_linking_pattern_walks_forward():
    assert linking_pattern(3, 1, 2) == [2, 3]
    assert linking_pattern(3, 2, 5) == [3, 1, 2, 3, 1]
    assert linking_pattern(4, 4, 3) == [1, 2, 3]


@dataclass
class LinkingCount:
    count: int
    sequences: Optional[list] = None


def enumerate_linking(
    G: BlowupGraph,
    v: VertexRef,
    v2: VertexRef,
    t: int,
    collect: bool = False,
) -> LinkingCount:
    """Count of linking sequences for the same-part pair (v, v2), by
    testing every candidate set: the reference for the closed forms in
    exact.py.

    A linking sequence is an ordered t-tuple of distinct vertices, all
    different from v and v2, whose entries follow the cyclic part
    pattern starting one part after the pair's part, such that adding
    either v or v2 yields an induced subgraph with a transversal cycle
    factor.  Since the factor condition depends only on the underlying
    vertex set, sets are enumerated once per part-wise combination and
    multiplied by the number of per-part orderings.
    """
    k, n = G.k, G.n
    v, v2 = exact._linking_pair(G, v, v2)
    exact._check_linking_t(k, t)
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
        bits = [0] * k
        for p in parts:
            for idx in chosen[p]:
                bits[p - 1] |= 1 << idx
        ok = True
        for base in {v, v2}:
            alive = list(bits)
            alive[base.part - 1] |= 1 << base.index
            if not has_factor(G, alive=alive):
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
    return LinkingCount(count, seqs)


def brute_linking_count(G, v, v2, t):
    """Direct enumeration over ordered t-tuples, the definition verbatim."""
    pattern = linking_pattern(G.k, v.part, t)
    count = 0
    for tup in product(range(G.n), repeat=t):
        refs = [VertexRef(p, i) for p, i in zip(pattern, tup)]
        if len(set(refs)) != t or v in refs or v2 in refs:
            continue
        ok = True
        for base in {v, v2}:
            alive = {p: set() for p in range(1, G.k + 1)}
            for r in refs:
                alive[r.part].add(r.index)
            alive[base.part].add(base.index)
            if not has_factor(G, alive={p: sorted(s) for p, s in alive.items()}):
                ok = False
                break
        if ok:
            count += 1
    return count


@pytest.mark.parametrize("seed", range(4))
def test_enumerate_linking_matches_brute_force(seed):
    G = random_min_degree(3, 3, [2, 2, 2], seed=700 + seed)
    for a, b in ((0, 1), (2, 2)):
        v, v2 = VertexRef(1, a), VertexRef(1, b)
        got = enumerate_linking(G, v, v2, 2)
        assert got.count == brute_linking_count(G, v, v2, 2)


def test_linking_complete_blowup_counts():
    # k=3, t=2: any pair of vertices from the two other parts links
    G = complete_blowup(3, 4)
    res = enumerate_linking(G, VertexRef(1, 0), VertexRef(1, 1), 2)
    assert res.count == 16
    # k=4, t=3: one free vertex in each other part
    H = complete_blowup(4, 3)
    res4 = enumerate_linking(H, VertexRef(2, 0), VertexRef(2, 2), 3)
    assert res4.count == 27


def test_enumerate_linking_collects_valid_sequences():
    G = complete_blowup(3, 3)
    v, v2 = VertexRef(1, 0), VertexRef(1, 1)
    res = enumerate_linking(G, v, v2, 2, collect=True)
    assert res.count == len(res.sequences) == 9
    assert len(set(res.sequences)) == 9
    for seq in res.sequences:
        assert [r.part for r in seq] == [2, 3]


@pytest.mark.parametrize("k,n,t", [(3, 4, 2), (3, 4, 8), (4, 3, 3), (4, 3, 7),
                                   (5, 3, 4), (5, 3, 9)])
def test_linking_counts_match_enumeration(k, n, t):
    G = random_min_degree(k, n, [n - 1] * k, seed=10 * k + t)
    bits, orderings = union_linking_bits(G, t)
    counts = set()
    for i in range(1, k + 1):
        for a in range(n):
            for b in range(a, n):
                v, v2 = VertexRef(i, a), VertexRef(i, b)
                ref = enumerate_linking(G, v, v2, t, collect=True)
                assert ref.count == len(ref.sequences)
                assert (bits[i - 1][a] & bits[i - 1][b]).bit_count() * orderings == ref.count
                if t == k - 1:
                    assert path_linking_count(G, v, v2) == ref.count
                counts.add(ref.count)
    assert len(counts) > 1  # the instance tells pairs apart


def random_blowup(k, n, density, seed):
    return BlowupGraph(k, n, np.random.default_rng(seed).random((k, n, n)) < density)


def union_counts(G, t):
    bits, orderings = union_linking_bits(G, t)
    return [[(row[a] & row[b]).bit_count() * orderings for a in range(G.n) for b in range(a, G.n)]
            for row in bits]


@settings(max_examples=100, deadline=None)
@given(k=st.sampled_from([3, 4, 5]), n=st.integers(1, 5),
       density=st.sampled_from([0.5, 0.8, 1.0]), seed=st.integers(0, 2**32 - 1))
def test_union_counts_match_path_product(k, n, density, seed):
    # at t = k-1 the two closed forms count the same sequences
    G = random_blowup(k, n, density, seed)
    assert union_counts(G, k - 1) == [
        [path_linking_count(G, VertexRef(i, a), VertexRef(i, b))
         for a in range(n) for b in range(a, n)] for i in range(1, k + 1)]


@settings(max_examples=40, deadline=None)
@given(n=st.integers(1, 3), density=st.sampled_from([0.6, 0.8, 1.0]),
       seed=st.integers(0, 2**32 - 1))
def test_union_counts_match_enumeration_at_two_cycles(n, density, seed):
    G = random_blowup(3, n, density, seed)
    assert union_counts(G, 5) == [
        [enumerate_linking(G, VertexRef(i, a), VertexRef(i, b), 5).count
         for a in range(n) for b in range(a, n)] for i in range(1, 4)]


def test_path_linking_count_beyond_int64():
    # every transversal path of the other 7 parts links; 520**7 > 2**63
    G = complete_blowup(8, 520)
    got = path_linking_count(G, VertexRef(3, 0), VertexRef(3, 1))
    assert got == 520**7 > 2**63
    assert type(got) is int


@pytest.mark.parametrize("k", [3, 4, 5])
def test_path_linking_count_in_bands_matches_matrix_product(k, monkeypatch):
    G = random_min_degree(k, 20, [12] * k, seed=k)
    mats = [G.pair_matrix(p).astype(object) for p in range(1, k + 1)]

    def reference(i, a, b):
        vec = mats[i - 1][a] * mats[i - 1][b]  # common neighbours in V_{i+1}
        for p in range(i, i + k - 2):  # the pairs i+1 .. i+k-2
            vec = vec @ mats[p % k]
        back = mats[(i - 2) % k]  # the pair (V_{i-1}, V_i)
        return int(vec @ (back[:, a] * back[:, b]))

    whole = is_linked(G, Fraction(1, 10**6), k - 1)
    monkeypatch.setattr(exact, "_LINK_BAND", 7)  # several bands, the last one short
    for i in range(1, k + 1):
        for a, b in [(0, 0), (3, 11), (19, 2)]:
            assert path_linking_count(G, VertexRef(i, a), VertexRef(i, b)) == reference(i, a, b)
    assert is_linked(G, Fraction(1, 10**6), k - 1) == whole


def test_is_linked_unpacks_per_part_not_per_pair(monkeypatch):
    G = random_min_degree(4, 6, [4] * 4, seed=1)
    calls = []
    unpack = BlowupGraph.adjacency_rows
    monkeypatch.setattr(BlowupGraph, "adjacency_rows",
                        lambda self, *args: calls.append(args) or unpack(self, *args))
    assert is_linked(G, Fraction(1, 16000), 3).count == 41
    # per part: both ends on each side and one call per product step,
    # against 21 pairs per part
    assert len(calls) == G.k * (2 + 2 + G.k - 2)


def test_path_linking_count_holds_a_few_bands():
    n = 2000
    G = complete_blowup(3, n)
    tracemalloc.start()
    try:
        got = path_linking_count(G, VertexRef(1, 0), VertexRef(1, 1))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert got == n * n
    # one pair matrix widened to int64 would be 8 n^2 bytes
    assert peak < 2 * n * n


def test_enumerate_linking_preconditions():
    G = complete_blowup(3, 3)
    with pytest.raises(PreconditionError):
        enumerate_linking(G, VertexRef(1, 0), VertexRef(2, 0), 2)
    with pytest.raises(PreconditionError):
        enumerate_linking(G, VertexRef(1, 0), VertexRef(1, 1), 3)
    with pytest.raises(PreconditionError):
        path_linking_count(G, VertexRef(1, 0), VertexRef(2, 0))
    with pytest.raises(PreconditionError):
        union_linking_bits(G, 3)
    # t + 1 a non-positive multiple of k
    for t in (-1, -4):
        with pytest.raises(PreconditionError):
            union_linking_bits(G, t)
        with pytest.raises(PreconditionError):
            enumerate_linking(G, VertexRef(1, 0), VertexRef(1, 1), t)
        with pytest.raises(PreconditionError):
            is_linked(G, Fraction(1), t)
    for eta in (0, Fraction(-1)):
        with pytest.raises(PreconditionError):
            is_linked(G, eta, 2)


def test_is_linked_threshold_and_minimizer():
    G = complete_blowup(3, 4)
    res = is_linked(G, Fraction(1), 2)
    # every pair achieves exactly n^2 = 16 = 1 * n^2
    assert res.linked
    assert res.count == 16
    strict = is_linked(G, Fraction(17, 16), 2)
    assert not strict.linked


def test_is_linked_minimizer_is_pinned():
    G = random_min_degree(4, 6, [4] * 4, seed=1)
    res = is_linked(G, Fraction(1, 16000), 3)
    assert res.pair == (VertexRef(3, 0), VertexRef(3, 5))
    assert res.count == 41


# criterion 10's k = 3 recipe: (minimizing pair, count) of each of its
# 20 instances at (eps^3/100, 5), eps = 1/10
CRITERION_10_K3 = [
    ((1, 0), (1, 1), 3600), ((3, 0), (3, 1), 3300), ((3, 0), (3, 2), 3300),
    ((1, 0), (1, 1), 3300), ((1, 0), (1, 1), 3600), ((1, 1), (1, 4), 3060),
    ((1, 0), (1, 1), 3300), ((1, 0), (1, 3), 3120), ((3, 1), (3, 4), 3000),
    ((1, 0), (1, 1), 3600), ((1, 0), (1, 1), 3600), ((1, 0), (1, 1), 3600),
    ((3, 0), (3, 2), 3000), ((1, 0), (1, 1), 3600), ((1, 0), (1, 1), 3600),
    ((1, 0), (1, 1), 3600), ((1, 0), (1, 3), 3300), ((1, 0), (1, 1), 3600),
    ((1, 0), (1, 1), 3600), ((1, 0), (1, 1), 3600),
]


def criterion_10_k3_instance(trial):
    seed = 600 + trial
    rng = random.Random(seed)
    while True:
        ds = sorted((rng.randint(4, 6) for _ in range(3)), reverse=True)
        if ds[0] + ds[1] >= 10:
            break
    return random_min_degree(3, 6, ds, seed=seed)


def test_is_linked_cycle_union_minimizers_are_pinned():
    for trial, (v, v2, count) in enumerate(CRITERION_10_K3):
        res = is_linked(criterion_10_k3_instance(trial), Fraction(1, 10**5), 5)
        assert (res.pair, res.count) == ((VertexRef(*v), VertexRef(*v2)), count), trial
        assert res.linked


def test_is_linked_cycle_union_count_on_complete_blowup():
    # t = 15 is two cycles' worth: every candidate set links, so a pair
    # of V_1 has its third vertex there and an ordered pair of 3 in each
    # of the 7 other parts; a pair v = v' has more
    res = is_linked(complete_blowup(8, 3), Fraction(1, 100), 15, max_work=10**8)
    assert res.count == 279936 == 6**7
    assert res.linked


def test_is_linked_work_guard():
    G = complete_blowup(3, 30)
    with pytest.raises(InfeasibleSizeError):
        is_linked(G, Fraction(1, 100), 5, max_work=1000)


def test_is_linked_without_candidate_sets_lists_nothing(monkeypatch):
    # a part of 2 cannot hold r = 3 cycles' worth of vertices: the listing
    # finds no union, and is_linked reports the first pair at count 0
    bits, _ = union_linking_bits(complete_blowup(3, 2), 8)
    assert bits == [[0, 0]] * 3
    monkeypatch.setattr(exact, "union_linking_bits", None)  # never called
    for G, t in ((complete_blowup(3, 2), 8), (complete_blowup(3, 6), 299)):
        res = is_linked(G, Fraction(1, 100), t)
        assert res == exact.LinkedResult(False, (VertexRef(1, 0), VertexRef(1, 0)), 0,
                                         Fraction(G.n**t, 100))


def test_is_linked_work_guard_counts_the_union_listing():
    # few candidate sets (96 for 16 parts of 2), but C(2^16, 2) pairs of
    # transversal cycles to list; 21.5M pairs for 8 parts of 3
    for k, n in ((16, 2), (8, 3)):
        with pytest.raises(InfeasibleSizeError, match="combinations"):
            is_linked(complete_blowup(k, n), Fraction(1, 100), 2 * k - 1)


def test_is_linked_path_product_skips_work_guard():
    # the cycle-union estimate for this instance is about 22.5M, over
    # the default budget; the t = k-1 path product enumerates nothing
    G = complete_blowup(3, 62)
    res = is_linked(G, Fraction(1, 100), 2)
    assert res.linked
    assert res.count == is_linked(G, Fraction(1, 100), 2, max_work=10**12).count
