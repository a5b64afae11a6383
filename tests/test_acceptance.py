"""Acceptance suite: ten criteria, one test each.

Each test's docstring opens with the criterion and its tolerance; the
conftest hook turns these into one pass/fail line per criterion at the
end of the run.  Every randomized batch is fully seeded, so reruns are
bit-identical.
"""

import json
import random
import time
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from ckblowup.core import (
    degree_profile,
    graph_to_json,
    validate_tiling,
)
from ckblowup.constructive import (
    StageFailure,
    _assign_and_assemble,
    asymp_factor,
    build_absorber,
    round_tiling,
)
from ckblowup.exact import cover_number, is_cover, is_linked, max_tiling
from ckblowup.generators import (
    complete_blowup,
    cover_example,
    haggkvist_example,
    random_min_degree,
)
from ckblowup.inequality import (
    ALL_SYSTEMS,
    Certificate,
    FeasiblePoint,
    certify_infeasible,
    grid_scan,
    lemma_system,
)
from ckblowup.swap3 import CounterexampleError, LabeledTiling, near_factor3

F = Fraction

ARTIFACTS = Path(__file__).parent / "artifacts"


def sample_hypothesis_deltas(rng, n):
    """Pair-degree targets with each >= ceil(n/2) and sum >= 2n."""
    lo = (n + 1) // 2
    while True:
        ds = [rng.randint(lo, n) for _ in range(3)]
        if sum(ds) >= 2 * n:
            return ds


def small_suite_instances():
    """The n <= 7 subset shared by criteria 3 and 5."""
    for n in (6, 7):
        for trial in range(100):
            seed = n * 777 + trial
            ds = sample_hypothesis_deltas(random.Random(seed), n)
            yield n, seed, random_min_degree(3, n, ds, seed=seed)


def test_criterion_01_extremal_family(record_property):
    """Criterion 1: layered extremal family at (k,m) in {(3,1),(4,1),(3,2)} has
    delta* = (k+1)m-1, a transversal cycle cover of size 2km-1 = n-1, and
    maximum tiling exactly n-1 < n, proved optimal by that cover (weak
    duality: the search stops at a tiling of the cover's size; exact
    integers; < 1 s each)."""
    details = []
    for k, m in ((3, 1), (4, 1), (3, 2)):
        G, blocks = haggkvist_example(k, m)
        n = 2 * k * m
        assert G.n == n
        prof = degree_profile(G)
        assert prof.delta_star == (k + 1) * m - 1
        Z = {i: blocks[f"Z_{i}"] for i in range(1, k + 1)}
        zsize = sum(len(v) for v in Z.values())
        assert zsize == 2 * k * m - 1
        assert is_cover(G, Z)
        start = time.monotonic()
        res = max_tiling(G, upper_bound=Z)
        elapsed = time.monotonic() - start
        assert elapsed < 1.0
        assert res.optimal
        assert validate_tiling(G, res.cycles) is None
        assert res.size == n - 1
        details.append(f"({k},{m}): delta*={prof.delta_star} max={res.size}"
                       f" {elapsed * 1000:.1f}ms")
    record_property("detail", "; ".join(details))


def test_criterion_02_cover_density_example(record_property):
    """Criterion 2: density-7/9 cover example has n=36, exact pair minima
    27 >= 27, 20, 18 >= 18, and a 33-vertex transversal cycle cover
    (exact integers; < 10 s)."""
    start = time.monotonic()
    ex = cover_example(7, 9)
    G = ex.graph
    assert ex.n == G.n == 36
    gamma_n = ex.gamma * 36
    eps_n = ex.epsilon * 36
    beta_n = ex.beta * 36
    prof = degree_profile(G)
    # pair (V1,V2): gamma*n - eps*n, which meets gamma*n - 1 exactly
    assert prof.deltas[0] == gamma_n - eps_n == 27
    assert prof.deltas[0] >= gamma_n - 1
    # pair (V3,V1): beta*n
    assert prof.deltas[2] == beta_n == 20
    # pair (V2,V3): n/2 = 18, meeting the stated bound of 18 exactly
    assert prof.deltas[1] == 18
    assert prof.deltas[1] >= 18
    cover = ex.cover
    assert sum(len(v) for v in cover.values()) == 33
    assert is_cover(G, cover)
    elapsed = time.monotonic() - start
    assert elapsed < 10.0
    record_property(
        "detail", f"deltas={prof.deltas} cover=33 {elapsed:.1f}s")


def test_criterion_03_move_machine_guarantee(record_property):
    """Criterion 3: 100 seeded instances per n in {9,12,15} under the
    pair-degree hypotheses all reach a validated tiling of size >= n-1
    within 10^4 moves; on the n in {6,7} batches the final size equals
    the exact optimum or n-1 (zero failures allowed)."""
    runs = 0
    for n in (9, 12, 15):
        for trial in range(100):
            seed = n * 1000 + trial
            ds = sample_hypothesis_deltas(random.Random(seed), n)
            G = random_min_degree(3, n, ds, seed=seed)
            try:
                res = near_factor3(G)
            except CounterexampleError as exc:
                ARTIFACTS.mkdir(exist_ok=True)
                path = ARTIFACTS / f"counterexample_n{n}_seed{seed}.json"
                path.write_text(graph_to_json(exc.graph) + json.dumps(
                    {"cycles": [list(c) for c in exc.cycles],
                     "trace": exc.trace}) + "\n")
                pytest.fail(f"move machine stalled on n={n} seed={seed}; "
                            f"artifact at {path}")
            assert res.moves <= 10_000
            assert res.size >= n - 1
            assert validate_tiling(G, res.cycles) is None
            runs += 1
    cross = 0
    for n, seed, G in small_suite_instances():
        res = near_factor3(G)
        assert validate_tiling(G, res.cycles) is None
        opt = max_tiling(G)
        assert opt.optimal
        assert res.size in (n - 1, opt.size)
        cross += 1
    record_property("detail", f"{runs} runs, {cross} exact cross-checks, "
                              "0 failures")


def test_criterion_04_cover_number_equals_n(record_property):
    """Criterion 4: 100 seeded k=3 instances per n in {6,9} with third
    pair minimum >= ceil(n/2) and the two largest averaging >= ceil(2n/3)
    have cover number exactly n (< 30 s per instance)."""
    worst = 0.0
    runs = 0
    for n in (6, 9):
        need3 = (n + 1) // 2
        need12 = -(-2 * n // 3)  # ceil(2n/3)
        for trial in range(100):
            seed = n * 551 + trial
            rng = random.Random(seed)
            while True:
                ds = [rng.randint(need3, n) for _ in range(3)]
                top = sorted(ds, reverse=True)
                if top[0] + top[1] >= 2 * need12 and min(ds) >= need3:
                    break
            G = random_min_degree(3, n, ds, seed=seed)
            prof = degree_profile(G)
            top = sorted(prof.deltas, reverse=True)
            assert top[2] >= need3 and top[0] + top[1] >= 2 * need12
            start = time.monotonic()
            res = cover_number(G)
            worst = max(worst, time.monotonic() - start)
            assert res.optimal
            assert res.size == n
            runs += 1
    assert worst < 30.0
    record_property("detail", f"{runs} runs, worst {worst:.2f}s")


def test_criterion_05_maximality_audits(record_property):
    """Criterion 5: on every exact maximum tiling from criterion 3's
    n <= 7 batches, no uncovered edge has an uncovered common neighbor,
    no dissimilar uncovered pair sends two edges into one triangle, and
    no three pairwise disjoint dissimilar uncovered edges exist (zero
    violations)."""
    audited = 0
    for n, seed, G in small_suite_instances():
        opt = max_tiling(G)
        assert opt.optimal
        st = LabeledTiling(G, cycles=opt.cycles)
        assert st.m1_candidate() is None
        assert st.m2_candidate() is None
        assert st.find_h3() is None
        audited += 1
    record_property("detail", f"{audited} maximum tilings audited, "
                              "0 violations")


def test_criterion_06_round_postconditions(record_property):
    """Criterion 6: 50 seeded path-system rounds over k in {3,4}, m in
    {5,8} on pools meeting the degree conditions return exactly mk
    cycles, valid and fully accounted, with follow-on pools keeping
    d(v, U'_i) >= (1+sigma)mk/2 (zero violations; < 5 s per run)."""
    combos = [(3, 5), (3, 8), (4, 5), (4, 8)]
    sigma = 0.1
    worst = 0.0
    for run in range(50):
        k, m = combos[run % 4]
        mk = m * k
        n = 2 * mk
        # global minimum degree n - mk/5 forces every pool degree to at
        # least 0.8*mk, clearing both pool conditions with margin
        delta = n - mk // 5
        G = random_min_degree(k, n, [delta] * k, seed=9000 + run)
        U = {i: list(range(mk)) for i in range(1, k + 1)}
        W = {i: list(range(mk, 2 * mk)) for i in range(1, k + 1)}
        start = time.monotonic()
        res = round_tiling(G, U, W, sigma, np.random.default_rng(run))
        worst = max(worst, time.monotonic() - start)
        assert len(res.cycles) == mk
        assert validate_tiling(G, res.cycles) is None
        for i in range(1, k + 1):
            covered = {c[i - 1] for c in res.cycles}
            assert covered == (set(U[i]) - set(res.U_prime[i])) | set(res.used_W[i])
            assert len(res.U_prime[i]) == mk
        # the rolled-over pools keep the degree invariant: count within
        # each consecutive pool pair, both directions
        for i in range(1, k + 1):
            j = i % k + 1
            mat = G.pair_matrix(i)
            rows = np.array(sorted(res.U_prime[i]))
            cols = np.array(sorted(res.U_prime[j]))
            sub = mat[np.ix_(rows, cols)]
            assert 20 * int(sub.sum(axis=1).min()) >= 11 * mk
            assert 20 * int(sub.sum(axis=0).min()) >= 11 * mk
    assert worst < 5.0
    record_property("detail", f"50 runs, worst {worst:.2f}s")


def test_criterion_07_absorbing_property(record_property):
    """Criterion 7: greedy absorber on the complete k=3, n=30 blow-up at
    sigma=0.1 absorbs 50 seeded balanced leftovers of ceil(sigma^2 n)=1
    vertex per part (zero failures)."""
    G = complete_blowup(3, 30)
    ab = build_absorber(G, np.random.default_rng(70), 3)
    assert ab.capacity == 3
    used = ab.vertices()
    per_part = 1  # ceil(0.1^2 * 30)
    rng = np.random.default_rng(71)
    checks = 0
    for _ in range(50):
        W = {}
        for p in (1, 2, 3):
            free = sorted(set(range(30)) - set(used[p]))
            W[p] = sorted(int(x) for x in rng.choice(free, size=per_part,
                                                     replace=False))
        cycles, why = _assign_and_assemble(G, ab, W)
        assert cycles is not None, why
        assert validate_tiling(G, cycles) is None
        for p in (1, 2, 3):  # the cycles tile A union W
            assert sorted(c[p - 1] for c in cycles) == sorted(used[p] + W[p])
        checks += 1
    record_property("detail", f"{checks} leftovers absorbed, 0 failures")


def test_criterion_08_end_to_end_factor(record_property):
    """Criterion 8: randomized factor pipeline at n=200, k in {3,4}, on
    complete and random instances with delta* >= (1+1/k+0.25)n/2,
    succeeds with a validated full factor in >= 95% of 20 seeded runs
    (< 60 s per run)."""
    n = 200
    successes = 0
    total = 0
    worst = 0.0
    for k in (3, 4):
        delta = -(-(2 * k + 2 + k) * n // (4 * k))  # ceil((1+1/k+1/2)n/2)
        need = (F(1, 1) + F(1, k) + F(1, 4)) * n / 2
        for style in ("complete", "random"):
            for trial in range(5):
                seed = 8000 + 100 * k + trial
                if style == "complete":
                    G = complete_blowup(k, n)
                else:
                    G = random_min_degree(k, n, [delta] * k, seed=seed)
                assert degree_profile(G).delta_star >= need
                start = time.monotonic()
                total += 1
                try:
                    res = asymp_factor(G, 0.25, np.random.default_rng(seed))
                except StageFailure:
                    continue
                elapsed = time.monotonic() - start
                worst = max(worst, elapsed)
                assert elapsed < 60.0
                if len(res.cycles) == n and validate_tiling(G, res.cycles) is None:
                    successes += 1
    assert total == 20
    assert successes >= 19
    record_property("detail", f"{successes}/{total} factors, worst "
                              f"{worst:.1f}s")


def test_criterion_09_certificates_and_grid(record_property):
    """Criterion 9: every inequality system B1-B5 certifies infeasible at
    margin 1e-6 within depth 40 and 60 s; the resolution-200 lattice has
    strictly positive minimum violation for each; the weakened control
    system yields a feasible point."""
    shapes = {"B3": (1443, 41, 8), "B5": (1071, 29, 4)}
    grid_argmins = {
        "B1": {"x": F(1, 2), "y": F(1, 2), "z": F(0), "beta": F(1, 2)},
        "B2": {"x": F(11, 25), "y": F(41, 100), "z": F(31, 200),
               "beta": F(793, 1200)},
        "B3": {"x": F(67, 200), "y": F(67, 200), "z": F(33, 100),
               "beta": F(53, 80)},
        "B4": {"x": F(67, 200), "y": F(33, 100), "z": F(67, 200),
               "beta": F(2, 3)},
        "B5": {"x": F(73, 200), "y": F(17, 50), "z": F(3, 10),
               "zeta": F(31, 200), "beta": F(167, 300)},
    }
    details = []
    for sid in ALL_SYSTEMS:
        cert = certify_infeasible(sid)
        assert isinstance(cert, Certificate)
        assert cert.margin == F(1, 10**6)
        assert cert.depth <= 40
        assert cert.millis < 60_000
        assert cert.verify()
        if sid in shapes:
            assert (len(cert.leaves), cert.nodes, cert.depth) == shapes[sid]
        scan = grid_scan(sid, 200)
        assert scan.min_violation > 0
        assert scan.argmin == grid_argmins[sid]
        details.append(f"{sid}: depth {cert.depth}, "
                       f"grid min {float(scan.min_violation):.2e}")
    res = certify_infeasible("B1w")
    assert isinstance(res, FeasiblePoint)
    assert lemma_system("B1w").holds_at(res.point)
    details.append("B1w feasible")
    record_property("detail", "; ".join(details))


def test_criterion_10_linking_bounds(record_property):
    """Criterion 10: 20 seeded k=3, n=6 instances meeting the eps=0.1
    near-extremal hypotheses are (eps^3/100, 5)-linked, and 20 seeded
    k=4, n=6 instances with delta* >= (1+eps)n/2 are (eps^3/16, 3)-linked,
    both by exact counts (the cycle-union form for t=5, the path product
    for t=3; enumerate_linking is their reference in test_exact.py)."""
    n = 6
    eps = F(1, 10)
    worst_margin = None
    for trial in range(20):
        seed = 600 + trial
        rng = random.Random(seed)
        while True:
            ds = sorted((rng.randint(4, 6) for _ in range(3)), reverse=True)
            if ds[0] + ds[1] >= 10:
                break
        G = random_min_degree(3, n, ds, seed=seed)
        top = sorted(degree_profile(G).deltas, reverse=True)
        assert 2 * top[2] >= (1 + eps) * n  # >= (1+eps)n/2 each
        assert top[0] + top[1] >= 2 * (F(2, 3) + eps) * n
        res = is_linked(G, eps**3 / 100, 5)
        assert res.linked, (trial, res.pair, res.count)
        ratio = F(res.count) / res.threshold
        worst_margin = ratio if worst_margin is None else min(worst_margin, ratio)
    for trial in range(20):
        seed = 650 + trial
        G = random_min_degree(4, n, [4] * 4, seed=seed)
        assert 2 * degree_profile(G).delta_star >= (1 + eps) * n
        res = is_linked(G, eps**3 / 2**4, 3)
        assert res.linked, (trial, res.pair, res.count)
    record_property("detail", "40 instances linked; slackest k=3 pair at "
                              f"{float(worst_margin):.0f}x threshold")
