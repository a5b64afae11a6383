"""Data model sanity: adjacency symmetry, degree profiles, cycle and
tiling validation, JSON round trips."""

import gc
import json
import random
import re
import tracemalloc

import numpy as np
import pytest

from ckblowup.core import (
    BlowupGraph,
    PreconditionError,
    _canonical_edges,
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
from ckblowup.generators import complete_blowup, random_min_degree


def tiny_graph():
    # k=3, n=2: one full pair, one matching, one single edge
    edges = [
        (1, 0, 0), (1, 0, 1), (1, 1, 0), (1, 1, 1),
        (2, 0, 0), (2, 1, 1),
        (3, 0, 0),
    ]
    return build_graph(3, 2, edges)


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
    assert obj["format"] == "ckblowup/1"


def test_json_edges_follow_edge_order():
    G = random_min_degree(4, 9, [5] * 4, seed=2)
    text = graph_to_json(G)
    assert json.loads(text)["edges"] == [list(e) for e in G.edges()]
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
        text = json.dumps({"format": "ckblowup/1", "k": 3, "n": 2, "edges": edges})
        with pytest.raises(PreconditionError):
            graph_from_json(text)
    for k, n in ((3.7, 2), ("3", 2), (3, 2.0), (3, True)):
        text = json.dumps({"format": "ckblowup/1", "k": k, "n": n, "edges": []})
        with pytest.raises(PreconditionError, match="must be an integer"):
            graph_from_json(text)


@pytest.mark.parametrize("enabled", [True, False])
def test_failed_load_restores_gc_state(enabled):
    was = gc.isenabled()
    try:
        gc.enable() if enabled else gc.disable()
        with pytest.raises(PreconditionError):
            graph_from_json('{"format": "ckblowup/1", "k": 3, "n": 2, "edges": [[1, 0.5, 0]]}')
        assert gc.isenabled() == enabled
        graph_to_json(tiny_graph())
        assert gc.isenabled() == enabled
    finally:
        gc.enable() if was else gc.disable()


def test_json_rejects_wrong_format():
    with pytest.raises(PreconditionError):
        graph_from_json(json.dumps({"format": "other/9", "k": 3, "n": 1, "edges": []}))
    with pytest.raises(PreconditionError):
        graph_from_json(json.dumps({"format": "ckblowup/1", "k": 3, "n": 1}))


def canonical(k, edges, n=2):
    return json.dumps({"edges": edges, "format": "ckblowup/1", "k": k, "n": n},
                      sort_keys=True, separators=(",", ":")) + "\n"


def outcome(load):
    """A loader's result: the graph, or the type and message it raised."""
    try:
        return load()
    except Exception as e:
        return type(e), str(e)


def assert_same_as_json_path(text):
    # BlowupGraph equality is structural; a graph never equals a (type, message) pair
    assert outcome(lambda: graph_from_json(text)) == outcome(
        lambda: graph_from_json_dict(json.loads(text)))


SAMPLE = graph_to_json(random_min_degree(3, 5, [3] * 3, seed=4))
RANDOM_TEXTS = {k: graph_to_json(random_min_degree(k, 7, [4] * k, seed=k)) for k in (3, 4, 5)}

# (text, whether the canonical reader takes it)
LOADER_CASES = {
    **{f"random k={k}": (t, True) for k, t in RANDOM_TEXTS.items()},
    "whitespace": (RANDOM_TEXTS[3].replace(",", ", "), False),
    "keys reordered": (json.dumps(json.loads(RANDOM_TEXTS[4])), False),
    "no edges": (canonical(3, []), False),
    "leading zero": (canonical(3, [[1, 0, 1]]).replace("[1,0,1]", "[1,01,1]"), False),
    "double zero": (canonical(3, [[1, 0, 1]]).replace("[1,0,1]", "[1,00,1]"), False),
    "plus sign": (canonical(3, [[1, 0, 1]]).replace("[1,0,1]", "[+3,0,1]"), False),
    "trailing comma": (canonical(3, [[1, 0, 1]]).replace("]]", "],]"), False),
    "19 digits": (canonical(3, [[1, 0, 1], [1, 0, 10**18]]), False),
    "25 digits": (canonical(3, [[1, 0, 1], [1, 0, 10**24]]), False),
    "18 digits": (canonical(3, [[1, 0, 1], [1, 0, 10**17]]), True),
    "pair": (canonical(3, [[1, 0, 1], [1, 0]]), False),
    "quad": (canonical(3, [[1, 0, 1, 1]]), False),
    "non-ASCII": (canonical(3, [[1, 0, 1]]).replace("ckblowup/1", "ckblowup/1\u00e9"), False),
    "k=0": (canonical(0, [[1, 0, 1]]), False),
    "k=03": (canonical(3, [[1, 0, 1]]).replace('"k":3', '"k":03'), False),
    "k=1": (canonical(1, [[1, 0, 1]]), True),
    "part out of range": (canonical(3, [[1, 0, 1], [4, 0, 0]]), True),
    "part 0": (canonical(3, [[0, 0, 1]]), True),
    "index out of range": (canonical(3, [[1, 0, 1], [2, 2, 0]]), True),
    "no final newline": (SAMPLE.rstrip("\n"), True),
    "two final newlines": (SAMPLE + "\n", False),
}


@pytest.mark.parametrize("name", LOADER_CASES)
def test_canonical_reader_matches_json_path(name):
    text, fast = LOADER_CASES[name]
    assert (_canonical_edges(text) is not None) == fast
    assert_same_as_json_path(text)
    if name.startswith("random"):
        assert graph_to_json(graph_from_json(text)) == text


def test_canonical_reader_matches_json_path_on_mutations():
    rng = random.Random(9)
    alphabet = '0123456789[],{}":- .ex\n'
    for _ in range(200):
        i = rng.randrange(len(SAMPLE))
        c = rng.choice(alphabet)
        edit = rng.randrange(3)
        if edit == 0:
            text = SAMPLE[:i] + c + SAMPLE[i + 1:]
        elif edit == 1:
            text = SAMPLE[:i] + c + SAMPLE[i:]
        else:
            text = SAMPLE[:i] + SAMPLE[i + 1:]
        assert_same_as_json_path(text)


def test_canonical_load_makes_no_object_per_edge():
    G = random_min_degree(4, 300, [250] * 4, seed=1)
    text = graph_to_json(G)
    tracemalloc.start()
    try:
        H = graph_from_json(text)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert H == G
    # the edge array alone is about 2 x len(text); per-edge lists peak above 10 x
    assert peak < 4 * len(text)


def test_dot_export_mentions_every_part_and_edge():
    G = tiny_graph()
    dot = graph_to_dot(G, blocks={"U_1": [0]})
    assert dot.count("subgraph cluster_") == 3
    assert "p2_1 -- p3_1;" in dot
    assert 'label="U_1:0"' in dot
