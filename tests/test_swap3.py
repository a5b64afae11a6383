"""Move machine: relabeling order, move bookkeeping, the guarantee of
size n-1 under the degree hypotheses, and the maximality audits used as
oracles (no insertable triangle, no profitable exchange, h <= 2)."""

import numpy as np
import pytest

from ckblowup.core import (
    BlowupGraph,
    PreconditionError,
    degree_profile,
    validate_tiling,
)
from ckblowup.exact import max_tiling
from ckblowup.generators import complete_blowup, haggkvist_example, random_min_degree
from ckblowup.swap3 import (
    CounterexampleError,
    LabeledTiling,
    near_factor3,
    relabel_abc,
)


def hypothesis_instance(n, deltas, seed):
    """Random instance checked to satisfy the pair-degree hypotheses."""
    G = random_min_degree(3, n, deltas, seed=seed)
    prof = degree_profile(G)
    assert all(2 * d >= n for d in prof.deltas)
    assert sum(prof.deltas) >= 2 * n
    return G


def test_relabel_orders_pair_degrees():
    G = random_min_degree(3, 8, [7, 4, 5], seed=2)
    lab = relabel_abc(G)
    deltas = degree_profile(G).deltas

    def pair_delta(x, y):
        p, q = lab.part_of[x], lab.part_of[y]
        i = p if q == p % 3 + 1 else q
        return deltas[i - 1]

    assert pair_delta("A", "B") >= pair_delta("A", "C") >= pair_delta("B", "C")
    assert sorted(lab.part_of.values()) == [1, 2, 3]


def test_relabel_requires_three_parts():
    with pytest.raises(PreconditionError):
        relabel_abc(complete_blowup(4, 3))


def test_labeled_tiling_bookkeeping():
    G = complete_blowup(3, 4)
    st = LabeledTiling(G)
    st.add_triangle((0, 1, 2))
    assert st.size == 1
    assert not st.unc["A"][0] and not st.unc["B"][1] and not st.unc["C"][2]
    with pytest.raises(PreconditionError):
        st.add_triangle((0, 0, 0))  # A0 already covered
    st.remove_triangle(0)
    assert st.size == 0
    assert st.unc["A"].all()


def test_labeled_tiling_rejects_non_triangle():
    mats = [np.ones((3, 3), bool) for _ in range(3)]
    mats[0][0, 0] = False
    G = BlowupGraph(3, 3, mats)
    st = LabeledTiling(G)
    t = tuple(0 for _ in "ABC")
    with pytest.raises(PreconditionError):
        st.add_triangle(t)


def test_cycles_round_trip_through_labels():
    G = random_min_degree(3, 6, [4, 4, 4], seed=3)
    res = max_tiling(G)
    st = LabeledTiling(G, cycles=res.cycles)
    assert st.size == res.size
    assert st.to_cycles() == sorted(tuple(c) for c in res.cycles)


def test_near_factor_completes_on_complete_blowup():
    G = complete_blowup(3, 10)
    res = near_factor3(G)
    assert res.size == 10  # improvements run past n-1 when possible
    assert validate_tiling(G, res.cycles) is None


def test_near_factor_rejects_weak_degrees():
    G, _ = haggkvist_example(3, 1)  # deltas sum to 10 < 12
    with pytest.raises(PreconditionError):
        near_factor3(G)
    mats = [np.ones((4, 4), bool) for _ in range(3)]
    mats[2][:, :] = False
    mats[2][:, 0] = True  # pair 3 has min degree 1 < 2
    with pytest.raises(PreconditionError):
        near_factor3(BlowupGraph(3, 4, mats))
    with pytest.raises(PreconditionError):
        near_factor3(complete_blowup(4, 4))


@pytest.mark.parametrize("seed,deltas", [(1, [4, 3, 5]), (2, [3, 3, 6]), (3, [5, 5, 3])])
def test_near_factor_guarantee_small(seed, deltas):
    n = 6
    G = hypothesis_instance(n, deltas, seed)
    res = near_factor3(G)
    assert validate_tiling(G, res.cycles) is None
    assert res.size >= n - 1
    assert res.moves <= 10_000
    opt = max_tiling(G)
    assert opt.optimal
    assert res.size <= opt.size
    assert res.size in (n - 1, opt.size)


def test_move_budget_exhaustion_carries_artifacts():
    # greedy alone reaches only 10 of the needed 11 triangles here, so a
    # zero budget must fail and hand back the evidence
    G = hypothesis_instance(12, [12, 6, 6], seed=39)
    st = LabeledTiling(G)
    st.greedy_fill()
    assert st.size < 11
    with pytest.raises(CounterexampleError) as info:
        near_factor3(G, cap=0)
    err = info.value
    assert err.graph is G
    assert validate_tiling(G, err.cycles) is None
    assert isinstance(err.trace, list)
    # with the default budget the same instance finishes
    res = near_factor3(G)
    assert res.size >= 11
    assert validate_tiling(G, res.cycles) is None


@pytest.mark.parametrize("seed", range(5))
def test_maximum_tilings_pass_the_claim_audits(seed):
    """On a maximum tiling: no uncovered edge has an uncovered common
    neighbor, no pair of dissimilar uncovered edges profits from any
    tiled triangle, and at most two pairwise disjoint dissimilar
    uncovered edges exist."""
    n = 6
    G = hypothesis_instance(n, [3, 4, 5], seed=40 + seed)
    res = max_tiling(G)
    assert res.optimal
    st = LabeledTiling(G, cycles=res.cycles)
    assert st.m1_candidate() is None
    assert st.m2_candidate() is None
    assert st.find_h3() is None
