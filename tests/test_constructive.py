"""Randomized factor pipeline: the round tiler's exact postconditions,
gadget absorbers and their absorption contract, the accounting plan, and
the end-to-end driver on a small dense instance."""

import hashlib
import json
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from ckblowup.core import (
    BlowupGraph,
    PreconditionError,
    part_after,
    part_before,
    validate_tiling,
)
from ckblowup import constructive
from ckblowup.constructive import (
    PoolConditionError,
    StageFailure,
    _assign_and_assemble,
    _balanced_split,
    _check_pool_degrees,
    _plan_sizes,
    asymp_factor,
    build_absorber,
    round_tiling,
)
from ckblowup.generators import complete_blowup, haggkvist_example, random_min_degree


def disjoint_pools(n, mk):
    U = {i: list(range(mk)) for i in (1, 2, 3)}
    W = {i: list(range(mk, 2 * mk)) for i in (1, 2, 3)}
    return U, W


def test_round_tiling_postconditions():
    mk = 15  # k=3, m=5
    G = complete_blowup(3, 40)
    U, W = disjoint_pools(40, mk)
    rng = np.random.default_rng(0)
    res = round_tiling(G, U, W, 0.1, rng)
    assert len(res.cycles) == mk
    assert validate_tiling(G, res.cycles) is None
    for i in (1, 2, 3):
        covered = {c[i - 1] for c in res.cycles}
        assert covered == (set(U[i]) - set(res.U_prime[i])) | set(res.used_W[i])
        # exactly m vertices of W_i are consumed, the rest roll over
        assert len(res.used_W[i]) == mk // 3
        assert len(res.U_prime[i]) == mk
        assert set(res.U_prime[i]) <= set(U[i]) | set(W[i])
        assert not set(res.U_prime[i]) & set(res.used_W[i])


def test_round_tiling_output_feeds_next_round():
    mk = 15
    G = complete_blowup(3, 60)
    U = {i: list(range(mk)) for i in (1, 2, 3)}
    W1 = {i: list(range(mk, 2 * mk)) for i in (1, 2, 3)}
    W2 = {i: list(range(2 * mk, 3 * mk)) for i in (1, 2, 3)}
    rng = np.random.default_rng(1)
    first = round_tiling(G, U, W1, 0.1, rng)
    second = round_tiling(G, first.U_prime, W2, 0.1, rng)
    both = first.cycles + second.cycles
    assert len(both) == 2 * mk
    assert validate_tiling(G, both) is None


def test_round_tiling_rejects_malformed_pools():
    G = complete_blowup(3, 40)
    rng = np.random.default_rng(2)
    U, W = disjoint_pools(40, 15)
    with pytest.raises(PreconditionError):
        round_tiling(G, {1: U[1], 2: U[2]}, W, 0.1, rng)
    with pytest.raises(PreconditionError):
        round_tiling(G, U, {1: W[1], 2: W[2], 3: U[3]}, 0.1, rng)  # overlap
    bad = {1: U[1][:-1] + [U[1][0]], 2: U[2], 3: U[3]}
    with pytest.raises(PreconditionError):
        round_tiling(G, bad, W, 0.1, rng)  # duplicate vertex
    with pytest.raises(PreconditionError):
        round_tiling(G, {1: U[1][:14], 2: U[2][:14], 3: U[3][:14]}, W, 0.1, rng)
    with pytest.raises(PreconditionError):
        round_tiling(G, U, W, 0.1, rng=12345)


def test_round_tiling_names_degree_violations():
    n, mk = 40, 15
    mats = [np.ones((n, n), dtype=bool) for _ in range(3)]
    mats[0][:mk, 35] = False  # vertex 35 of V_2 loses all of U_1
    G = BlowupGraph(3, n, mats)
    U, W = disjoint_pools(n, mk)
    with pytest.raises(PoolConditionError) as info:
        round_tiling(G, U, W, 0.1, np.random.default_rng(3))
    assert (1, 2, 35, 0) in info.value.violations


def test_greedy_absorber_structure():
    G = complete_blowup(3, 30)
    rng = np.random.default_rng(4)
    ab = build_absorber(G, rng, 3)
    assert ab.capacity == 3
    verts = ab.vertices()
    # 3 gadgets, k cycles each, k vertices per cycle: 9 per part
    assert all(len(verts[p]) == 9 for p in (1, 2, 3))
    for g in ab.absorbers:
        assert validate_tiling(G, g.own_cycles()) is None
        anchors = g.anchors
        assert all(g.cycles[i][i] == anchors[i] for i in range(3))


def test_build_absorber_spot_check_rejects_unlinked_pair(monkeypatch):
    # n = 30, t = 2: the bound eta*n^t = 900 is under the 5000 cap, and
    # the first probe, (V_1[0], V_1[0]), lies on 290 transversal cycles
    monkeypatch.setattr(constructive, "_ETA", 1)
    G = haggkvist_example(3, 5)[0]
    with pytest.raises(PreconditionError,
                       match=r"has only 290 linking sequences \(needs 900\)"):
        build_absorber(G, np.random.default_rng(0), 1)


def test_gadget_absorb_cycles_cover_union():
    G = complete_blowup(3, 30)
    ab = build_absorber(G, np.random.default_rng(5), 1)
    g = ab.absorbers[0]
    own = {(p + 1, i) for c in g.own_cycles() for p, i in enumerate(c)}
    trans = tuple(
        next(i for i in range(30) if (p, i) not in {(q, j) for q, j in own if q == p})
        for p in (1, 2, 3)
    )
    assert g.can_absorb(G, trans)
    cycles = g.absorb_cycles(G, trans)
    assert len(cycles) == 4  # k own cycles rewired plus the anchor cycle
    assert validate_tiling(G, cycles) is None
    covered = {(p + 1, i) for c in cycles for p, i in enumerate(c)}
    assert covered == own | {(p + 1, trans[p]) for p in range(3)}


def test_gadget_rejects_transversal_on_its_anchor():
    G = complete_blowup(3, 30)
    ab = build_absorber(G, np.random.default_rng(6), 1)
    g = ab.absorbers[0]
    trans = list(g.anchors)
    assert not g.can_absorb(G, trans)


def absorbs(G, ab, W):
    """Whether the absorber assigns every index-aligned transversal of W
    to a distinct gadget; the cycles must then tile A union W."""
    cycles, _ = _assign_and_assemble(G, ab, W)
    if cycles is None:
        return False
    assert validate_tiling(G, cycles) is None
    own = ab.vertices()
    for p in range(1, G.k + 1):
        assert sorted(c[p - 1] for c in cycles) == sorted(own[p] + W[p])
    return True


def test_absorber_absorbs_random_balanced_leftovers():
    G = complete_blowup(3, 30)
    ab = build_absorber(G, np.random.default_rng(7), 2)
    used = ab.vertices()
    rng = np.random.default_rng(8)
    for _ in range(10):
        W = {}
        for p in (1, 2, 3):
            free = sorted(set(range(30)) - set(used[p]))
            W[p] = sorted(int(x) for x in rng.choice(free, size=2, replace=False))
        assert absorbs(G, ab, W)


def test_absorber_assignment_preconditions():
    G = complete_blowup(3, 30)
    ab = build_absorber(G, np.random.default_rng(9), 1)
    used = ab.vertices()
    free = {p: sorted(set(range(30)) - set(used[p]))[:3] for p in (1, 2, 3)}
    with pytest.raises(PreconditionError):
        absorbs(G, ab, {1: free[1][:2], 2: free[2][:1], 3: free[3][:1]})
    with pytest.raises(PreconditionError):
        absorbs(G, ab, {1: free[1][:2], 2: free[2][:2], 3: free[3][:2]})
    with pytest.raises(PreconditionError):
        absorbs(G, ab, {1: [used[1][0]], 2: free[2][:1], 3: free[3][:1]})
    assert absorbs(G, ab, {p: free[p][:1] for p in (1, 2, 3)})


def unmeetable_splits(monkeypatch):
    """Every chunk split must now give each adjacent vertex more
    neighbors in a chunk than the chunk holds; two resamples allowed.
    Returns the list the real ``_balanced_split`` calls go to."""
    monkeypatch.setattr(constructive, "_RETRIES", 2)
    resplit, split, calls = constructive._resplit, constructive._balanced_split, []

    def unmeetable(G, part, pool, nchunks, chunk_size, need, *rest):
        return resplit(G, part, pool, nchunks, chunk_size, chunk_size + 1, *rest)

    def counted(*args):
        calls.append(args[1])
        return split(*args)

    monkeypatch.setattr(constructive, "_resplit", unmeetable)
    monkeypatch.setattr(constructive, "_balanced_split", counted)
    return calls


def test_round_split_gives_up_after_retries(monkeypatch):
    calls = unmeetable_splits(monkeypatch)
    G = complete_blowup(3, 40)
    U, W = disjoint_pools(40, 15)
    with pytest.raises(StageFailure) as info:
        round_tiling(G, U, W, 0.1, np.random.default_rng(0))
    assert info.value.stage == "split"
    assert str(info.value) == "split: no valid chunk split of U_1 after 2 attempts"
    assert calls == [1, 1, 1]  # the first draw and two resamples


def test_reservoir_split_gives_up_after_retries(monkeypatch):
    calls = unmeetable_splits(monkeypatch)
    G = complete_blowup(3, 90)
    with pytest.raises(StageFailure) as info:
        asymp_factor(G, 0.25, np.random.default_rng(12))
    assert info.value.stage == "reservoir"
    assert str(info.value) == ("reservoir: no valid chunk split of part 1 "
                               "reservoir after 2 attempts")
    assert calls == [1] * 9  # three draws in each of the three attempts


def test_plan_sizes_accounting():
    # smallest workable n for k=3, m=5 pools: leftover mk + r must fit
    # into s gadgets and the reservoir needs two full rounds
    assert _plan_sizes(74, 3, 5) is None
    plan = _plan_sizes(75, 3, 5)
    assert plan is not None
    for n in (75, 90, 120, 200):
        p = _plan_sizes(n, 3, 5)
        assert p["z"] + (p["T"] + 1) * p["mk"] + p["r"] == n
        assert p["leftover"] == p["mk"] + p["r"] <= p["s"]
        assert p["T"] >= 1


def test_asymp_factor_end_to_end():
    G = complete_blowup(3, 90)
    res = asymp_factor(G, 0.25, np.random.default_rng(12))
    assert res.size == 90
    assert validate_tiling(G, res.cycles) is None
    for p in range(3):
        assert {c[p] for c in res.cycles} == set(range(90))
    assert {s["stage"] for s in res.stages} >= {"absorber", "rounds", "absorption"}


def test_asymp_factor_rejects_weak_instance():
    G, _ = haggkvist_example(3, 5)  # delta* sits below the threshold
    with pytest.raises(PreconditionError):
        asymp_factor(G, 0.25, np.random.default_rng(13))
    with pytest.raises(PreconditionError):
        asymp_factor(complete_blowup(3, 90), 0.25, rng=99)


def pool_degrees(G, pools):
    """(part, neighbor part, vertex, degree) for every vertex of the parts
    adjacent to each pool, in _check_pool_degrees's scan order."""
    out = []
    for i, ids in pools.items():
        before, after = part_before(G.k, i), part_after(G.k, i)
        degs = (G.pair_matrix(before)[:, ids].sum(axis=1),
                G.pair_matrix(i)[ids, :].sum(axis=0))
        for q, ds in zip((before, after), degs):
            out.extend((i, q, v, d) for v, d in enumerate(ds.tolist()))
    return out


def reference_split(G, part, pool, nchunks, chunk_size, rng):
    """The greedy split as a numpy loop over a (external, chunk) count
    matrix: each pool vertex, in one random order, goes to the non-full
    chunk minimizing the largest count among its external
    non-neighbors, the lowest such chunk on ties."""
    pool = list(pool)
    rows = []
    for q in (part_before(G.k, part), part_after(G.k, part)):
        if part == part_after(G.k, q):
            rows.append(G.pair_matrix(q)[:, pool])
        else:
            rows.append(G.pair_matrix(part)[pool, :].T)
    non_adj = ~np.vstack(rows)  # (#external, |pool|)
    counts = np.zeros((non_adj.shape[0], nchunks), dtype=int)
    caps = np.full(nchunks, chunk_size, dtype=int)
    chunks = [[] for _ in range(nchunks)]
    for pos in rng.permutation(len(pool)):
        col = non_adj[:, pos]
        if col.any():
            scores = counts[col].max(axis=0).astype(float)
        else:
            scores = np.zeros(nchunks)
        scores[caps == 0] = np.inf
        c = int(np.argmin(scores))
        chunks[c].append(pool[pos])
        caps[c] -= 1
        counts[col, c] += 1
    return [sorted(ch) for ch in chunks]


@settings(max_examples=200, deadline=None)
@given(k=st.sampled_from([3, 4]), nchunks=st.integers(1, 6), chunk_size=st.integers(1, 6),
       spare=st.integers(0, 4), density=st.sampled_from([0.5, 0.8, 0.95, 1.0]),
       seed=st.integers(0, 2**32 - 1))
@example(k=3, nchunks=3, chunk_size=4, spare=0, density=1.0, seed=0)  # no levels
def test_balanced_split_matches_reference_and_reports_worst(k, nchunks, chunk_size,
                                                             spare, density, seed):
    n = nchunks * chunk_size + spare  # at most 40
    draw = np.random.default_rng(seed)
    mats = draw.random((k, n, n)) < density
    part = int(draw.integers(1, k + 1))
    pool = sorted(draw.choice(n, size=nchunks * chunk_size, replace=False).tolist())
    # one pool vertex sees all of both adjacent parts
    mats[part_before(k, part) - 1][:, pool[0]] = True
    mats[part - 1][pool[0], :] = True
    G = BlowupGraph(k, n, mats)
    want = reference_split(G, part, pool, nchunks, chunk_size,
                           np.random.default_rng(seed))
    got, worst = _balanced_split(G, part, pool, nchunks, chunk_size,
                                 np.random.default_rng(seed))
    assert got == want
    for ch, w in zip(got, worst):
        assert chunk_size - w == min(d for *_, d in pool_degrees(G, {part: ch}))
    if density == 1.0:
        assert worst == [0] * nchunks


def test_balanced_split_refuses_a_pool_of_the_wrong_size():
    with pytest.raises(PreconditionError):
        _balanced_split(complete_blowup(3, 10), 1, range(7), 2, 3,
                        np.random.default_rng(0))


@pytest.mark.parametrize("need", [Fraction(7, 2), Fraction(4),
                                  (1 + Fraction(1, 3) + Fraction(0.05)) * 3])
def test_pool_degree_threshold_matches_fraction_reference(need):
    G = random_min_degree(3, 12, [6, 6, 6], seed=5)
    pools = {1: [0, 2, 4, 6, 8], 2: [1, 3, 5, 7, 9], 3: [0, 1, 2, 10, 11]}
    degrees = pool_degrees(G, pools)
    want = [row for row in degrees if row[3] < need][:20]  # Fraction comparison
    assert _check_pool_degrees(G, pools, need) == want
    lo = math.ceil(need)  # the degrees on both sides of the threshold occur
    assert {lo - 1, lo} <= {d for *_, d in degrees}


@pytest.mark.parametrize("k,digest", [
    (3, "f9455229b19df388b853a164cad9c98dc2ba63b07ea787c81b8f77eca8fae506"),
    (4, "b69ebbebabfad17acc67a8a426d2d35a797bd1e74c0c0d520949b82c35c6de33"),
])
def test_asymp_factor_seeded_witness_is_pinned(k, digest):
    delta = -(-(3 * k + 2) * 200 // (4 * k))  # ceil((1 + 1/k + 1/2) n / 2)
    G = random_min_degree(k, 200, [delta] * k, seed=k)
    res = asymp_factor(G, 0.25, np.random.default_rng(k))
    text = json.dumps([list(c) for c in res.cycles], separators=(",", ":"))
    assert hashlib.sha256(text.encode()).hexdigest() == digest


N500_STAGES = {
    3: [{"stage": "absorber", "gadgets": 40},
        {"stage": "reservoir", "chunks": 25, "chunk_size": 15},
        {"stage": "rounds", "rounds": 24, "cycles": 360},
        {"stage": "absorption", "transversals": 20}],
    4: [{"stage": "absorber", "gadgets": 40},
        {"stage": "reservoir", "chunks": 17, "chunk_size": 20},
        {"stage": "rounds", "rounds": 16, "cycles": 320},
        {"stage": "absorption", "transversals": 20}],
}


@pytest.mark.parametrize("k,seed,digest,resplits", [
    (3, 3, "162d6925d467e9183869c2d83df1cf307579d1fddb3122f2ebf302b475adf8e8", 0),
    (4, 4, "61ba1063848f611e0619a676a4c10a38196d2e1f07437fefa935aaa48e43cbb6", 0),
    # benchmark seed 3's k = 4 instance: one round split is redrawn
    (4, 560161641, "957af560a3d8584b8b74db4b0fee548e4f865deb1623dc32457e79ec13f12671", 1),
])
def test_asymp_factor_n500_witness_stages_and_resplits_are_pinned(
        monkeypatch, k, seed, digest, resplits):
    # the benchmark's factor recipe at n = 500: the witness, the stage
    # log without timings, and the rounds' total resplits
    counts = []

    def counted(*args, **kwargs):
        res = round_tiling(*args, **kwargs)
        counts.append(res.resplits)
        return res

    monkeypatch.setattr(constructive, "round_tiling", counted)
    n = 500
    delta = -(-(3 * k + 2) * n // (4 * k))  # ceil((1 + 1/k + 1/2) n / 2)
    G = random_min_degree(k, n, [delta] * k, seed=seed)
    res = asymp_factor(G, 0.25, np.random.default_rng(seed))
    text = json.dumps([list(c) for c in res.cycles], separators=(",", ":"))
    assert hashlib.sha256(text.encode()).hexdigest() == digest
    assert [{key: v for key, v in s.items() if key != "millis"}
            for s in res.stages] == N500_STAGES[k]
    assert len(counts) == N500_STAGES[k][2]["rounds"] and sum(counts) == resplits
