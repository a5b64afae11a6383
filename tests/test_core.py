"""Data model sanity: adjacency symmetry, degree profiles, cycle and
tiling validation, JSON round trips."""

import base64
import json
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from ckblowup.core import (
    BlowupGraph,
    PreconditionError,
    build_graph,
    degree_profile,
    graph_from_json,
    graph_from_json_dict,
    graph_to_dot,
    graph_to_json,
    part_after,
    part_before,
    validate_cycle,
    validate_tiling,
)
from ckblowup.constructive import _degrees_into
from ckblowup.generators import complete_blowup, random_min_degree


def tiny_graph():
    # k=3, n=2: one full pair, one matching, one single edge
    edges = [
        (1, 0, 0), (1, 0, 1), (1, 1, 0), (1, 1, 1),
        (2, 0, 0), (2, 1, 1),
        (3, 0, 0),
    ]
    return build_graph(3, 2, edges)


def v1_text(k, edges, n=2):
    return json.dumps({"edges": edges, "format": "ckblowup/1", "k": k, "n": n})


def test_part_arithmetic_is_cyclic():
    assert part_after(3, 3) == 1
    assert part_before(3, 1) == 3
    for k in (3, 4, 7):
        for i in range(1, k + 1):
            assert part_before(k, part_after(k, i)) == i


def test_graph_is_immutable():
    G = tiny_graph()
    with pytest.raises(ValueError):
        G.pair_matrix(1)[0, 0] = False


def test_constructor_rejects_bad_shapes():
    with pytest.raises(PreconditionError):
        BlowupGraph(2, 2, [np.zeros((2, 2), bool)] * 2)
    with pytest.raises(PreconditionError):
        BlowupGraph(3, 2, [np.zeros((2, 3), bool)] * 3)
    with pytest.raises(PreconditionError):
        build_graph(3, 2, [(4, 0, 0)])
    with pytest.raises(PreconditionError):
        build_graph(3, 2, [(1, 0, 2)])


def test_degree_and_profile():
    G = tiny_graph()
    prof = degree_profile(G)
    assert prof.deltas == (2, 1, 0)
    assert prof.delta_star == 0


def test_degree_profile_complete():
    G = complete_blowup(4, 5)
    prof = degree_profile(G)
    assert prof.deltas == (5, 5, 5, 5)
    assert prof.delta_star == 5


def test_validate_cycle_reports_first_violation():
    G = tiny_graph()
    assert validate_cycle(G, (0, 0, 0)) is None
    assert "length" in validate_cycle(G, (0, 0))
    assert "out-of-range" in validate_cycle(G, (0, 0, 5))
    # (1,1,?) needs the pair-3 edge back to part 1; only (3,0)-(1,0) exists
    msg = validate_cycle(G, (1, 1, 0))
    assert msg is not None and "edge" in msg


def test_validate_tiling_catches_reuse():
    G = complete_blowup(3, 3)
    ok = [(0, 0, 0), (1, 1, 1)]
    assert validate_tiling(G, ok) is None
    bad = [(0, 0, 0), (0, 1, 1)]
    assert "two cycles" in validate_tiling(G, bad)


def test_json_round_trip_is_canonical():
    G = tiny_graph()
    text = graph_to_json(G)
    H = graph_from_json(text)
    assert H == G
    assert graph_to_json(H) == text
    obj = json.loads(text)
    assert obj["format"] == "ckblowup/2"


def test_json_edges_follow_edge_order():
    G = random_min_degree(4, 9, [5] * 4, seed=2)
    text = v1_text(G.k, [list(e) for e in G.edges()], n=G.n)
    assert graph_from_json(text) == G


@pytest.mark.parametrize("edges,message", [
    ([(1, 0, 0), (1, 0.5, 0)], "edge (1, 0.5, 0) is not a triple of integers"),
    ([(1, 0, 0), (1, "0", 0)], "edge (1, '0', 0) is not a triple of integers"),
    ([(1, 0, 0), (1, None, 0)], "edge (1, None, 0) is not a triple of integers"),
    ([(1, 0, 0), (1, 0)], "edge (1, 0) is not a triple of integers"),
    ([(1, 0, 0, 0)], "edge (1, 0, 0, 0) is not a triple of integers"),
    ([(1, 0, 0), 7], "edge 7 is not a triple of integers"),
    ([(1, 0, 1), (4, 0, 0), (1, 0, 2)], "edge part 4 out of range 1..3"),
    ([(1, 0, 1), (1, 0, 2), (4, 0, 0)], "edge (1,0,2) has index out of range 0..1"),
    ([(2, -1, 0)], "edge (2,-1,0) has index out of range 0..1"),
    ([(1, 0, 2**70)], "has index out of range 0..1"),
])
def test_build_graph_names_first_bad_edge(edges, message):
    with pytest.raises(PreconditionError, match=re.escape(message)):
        build_graph(3, 2, edges)


def test_json_rejects_malformed_edges_and_sizes():
    for edges in ([[1, 0.5, 0]], [[1, 0]], [[1, True, None]], {"1": [0, 0]}):
        text = v1_text(3, edges)
        with pytest.raises(PreconditionError):
            graph_from_json(text)
    for k, n in ((3.7, 2), ("3", 2), (3, 2.0), (3, True)):
        text = v1_text(k, [], n=n)
        with pytest.raises(PreconditionError, match="must be an integer"):
            graph_from_json(text)


def test_json_rejects_wrong_format():
    with pytest.raises(PreconditionError):
        graph_from_json(json.dumps({"format": "other/9", "k": 3, "n": 1, "edges": []}))
    with pytest.raises(PreconditionError):
        graph_from_json(json.dumps({"format": "ckblowup/1", "k": 3, "n": 1}))


def v2_obj(k=3, n=3, pairs=None):
    """A ckblowup/2 object; by default the complete blow-up, 9 bits a pair."""
    if pairs is None:
        pairs = [base64.b64encode(b"\xff\x01").decode()] * k
    return {"format": "ckblowup/2", "k": k, "n": n, "pairs": pairs}


def test_v2_reader_takes_its_own_example():
    assert graph_from_json_dict(v2_obj()) == complete_blowup(3, 3)


@pytest.mark.parametrize("obj,message", [
    (v2_obj(pairs=["/w E="] * 3), "pair 1 is not valid base64"),
    (v2_obj(pairs=["/wE"] * 3), "pair 1 is not valid base64"),
    (v2_obj(pairs=["/wE=\n"] * 3), "pair 1 is not valid base64"),
    (v2_obj(pairs=["/wE=", "/wE=", "/wE\u00e9"]), "pair 3 is not valid base64"),
    (v2_obj(pairs=["/wE=", "/w=="]), "need 3 pair strings, got 2"),
    (v2_obj(pairs=["/wE="] * 4), "need 3 pair strings, got 4"),
    (v2_obj(pairs=["/wE=", "/w==", "/wE="]), "pair 2 has 1 bytes, expected 2"),
    (v2_obj(pairs=["/wE=", "/wEA", "/wE="]), "pair 2 has 3 bytes, expected 2"),
    (v2_obj(pairs=["/wF=", "/wE=", "/wE="]), "pair 1 is not canonical base64"),
    (v2_obj(pairs=["/wE=", "/wE=", "/wM="]), "pair 3 has nonzero padding bits"),
    (v2_obj(pairs=["/wE=", "/4E=", "/wE="]), "pair 2 has nonzero padding bits"),
    (v2_obj(pairs=["/wE=", 7, "/wE="]), "pair 2 must be a base64 string"),
    (v2_obj(pairs=["/wE=", None, "/wE="]), "pair 2 must be a base64 string"),
    (v2_obj(pairs="/wE="), "graph JSON key 'pairs' must be a list"),
    (v2_obj(k=2, pairs=["/wE="] * 2), "k must be >= 3, got 2"),
    (v2_obj(n=0, pairs=[""] * 3), "n must be >= 1, got 0"),
    (v2_obj(n=-3), "n must be >= 1, got -3"),
    ({**v2_obj(), "n": 3.0}, "graph JSON key 'n' must be an integer"),
    ({**v2_obj(), "k": True}, "graph JSON key 'k' must be an integer"),
    ({"format": "ckblowup/2", "k": 3, "n": 3}, "graph JSON missing key 'pairs'"),
])
def test_v2_reader_is_strict(obj, message):
    with pytest.raises(PreconditionError, match=re.escape(message)):
        graph_from_json_dict(obj)


@settings(max_examples=60, deadline=None)
@given(k=st.integers(3, 6), n=st.integers(1, 40), seed=st.integers(0, 2**32 - 1),
       density=st.sampled_from([0.0, 0.3, 0.9, 1.0]))
@example(k=3, n=5, seed=1, density=0.3)  # n^2 mod 8 = 1: seven padding bits
@example(k=4, n=6, seed=2, density=0.9)  # n^2 mod 8 = 4
@example(k=5, n=8, seed=3, density=1.0)  # no padding
def test_v2_round_trip(k, n, seed, density):
    G = BlowupGraph(k, n, np.random.default_rng(seed).random((k, n, n)) < density)
    text = graph_to_json(G)
    H = graph_from_json(text)
    assert H == G
    assert graph_to_json(H) == text


def test_canonical_load_makes_no_object_per_edge():
    k, n = 4, 300
    G = random_min_degree(k, n, [250] * k, seed=1)
    text = graph_to_json(G)
    tracemalloc.start()
    try:
        H = graph_from_json(text)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert H == G
    # the k pair matrices themselves are k * n^2 bytes
    assert peak < 3 * k * n * n


def stored_arrays(G):
    """Every numpy array the graph holds."""
    out = []
    for name in type(G).__slots__:
        value = getattr(G, name)
        items = value.values() if isinstance(value, dict) else (
            value if isinstance(value, (tuple, list)) else [value])
        out.extend(a for a in items if isinstance(a, np.ndarray))
    return out


def bits_of(row):
    return sum(1 << int(w) for w in np.flatnonzero(row))


@settings(max_examples=80, deadline=None)
@given(k=st.sampled_from([3, 4, 5]), n=st.sampled_from([1, 7, 8, 9, 63, 64, 65, 129]),
       density=st.sampled_from([0.0, 0.5, 0.95, 1.0]), seed=st.integers(0, 2**32 - 1))
def test_packed_rows_agree_with_bool_matrices(k, n, density, seed):
    draw = np.random.default_rng(seed)
    mats = draw.random((k, n, n)) < density
    G = BlowupGraph(k, n, mats)
    arrays = stored_arrays(G)
    assert arrays and all(a.dtype != bool for a in arrays)
    assert sum(a.nbytes for a in arrays) <= 2 * k * n * -(-n // 64) * 8
    for i in range(1, k + 1):
        j = part_after(k, i)
        m = mats[i - 1]
        assert np.array_equal(G.pair_matrix(i), m)
        assert not G.pair_matrix(i).flags.writeable
        ids = sorted(draw.choice(n, size=int(draw.integers(0, n + 1)), replace=False).tolist())
        assert np.array_equal(G.adjacency_rows(i, j, ids), m[ids].reshape(len(ids), n))
        assert np.array_equal(G.adjacency_rows(j, i, ids), m.T[ids].reshape(len(ids), n))
        assert np.array_equal(G.adjacency_rows(j, i, n - 1), m[:, n - 1])
        rows, cols = G.pair_bits(i)
        assert list(rows) == [bits_of(r) for r in m]
        assert list(cols) == [bits_of(c) for c in m.T]
        # degrees of V_j into the pool ids of V_i, and of V_i into ids of V_j
        assert np.array_equal(_degrees_into(G, j, i, ids), m[ids].sum(axis=0))
        assert np.array_equal(_degrees_into(G, i, j, ids), m[:, ids].sum(axis=1))
    if k > 3:
        with pytest.raises(PreconditionError):
            G.adjacency_rows(1, 3, [0])
    want = [min(m.sum(axis=1).min(), m.sum(axis=0).min()) for m in mats]
    assert degree_profile(G) == (tuple(want), min(want))
    assert G.edge_count() == int(mats.sum())
    text = graph_to_json(G)
    H = graph_from_json(text)
    assert H == G and graph_to_json(H) == text
    assert all(np.array_equal(H.pair_matrix(i + 1), mats[i]) for i in range(k))


def test_dot_export_mentions_every_part_and_edge():
    G = tiny_graph()
    dot = graph_to_dot(G, blocks={"U_1": [0]})
    assert dot.count("subgraph cluster_") == 3
    assert "p2_1 -- p3_1;" in dot
    assert 'label="U_1:0"' in dot


@pytest.mark.parametrize("blocks", [
    {"X": [0]},  # no _<part> suffix
    {"U_x": [0]},
    {"U_0": [0]},  # parts are 1..k
    {"U_4": [0]},
    {"U_1": [2]},  # indices are 0..n-1
    {"U_1": [-1]},
    {"U_1": [0.0]},
    {"U_1": 0},
])
def test_dot_rejects_bad_block_names_and_indices(blocks):
    with pytest.raises(PreconditionError):
        graph_to_dot(tiny_graph(), blocks=blocks)
