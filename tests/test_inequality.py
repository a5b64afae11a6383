"""Exact inequality certification: the enclosure forms against the
certificate checker's exact bound, pruning-constraint derivation,
certificates and their re-verification, feasible-point detection, depth
accounting, and the lattice scanner against a brute-force oracle."""

import dataclasses
import math
import random
from fractions import Fraction

import pytest

from ckblowup import certcheck, inequality
from ckblowup.inequality import (
    ALL_SYSTEMS,
    Certificate,
    Constraint,
    DepthExhaustedError,
    FeasiblePoint,
    SMALL,
    System,
    Var,
    _FloatScreen,
    _int_box,
    _int_holds,
    _plain_terms,
    _pruning_constraints,
    certify_infeasible,
    grid_scan,
    lemma_system,
)

F = Fraction


# -- expressions and constraints ----------------------------------------


def test_expression_monomials_expand():
    x, y = Var("x"), Var("y")
    e = (1 - x - y) * (x + 2 * y)
    mono = e.monos
    assert mono[("x",)] == 1
    assert mono[("y",)] == 2
    assert mono[("x", "x")] == -1
    assert mono[("x", "y")] == -3
    assert mono[("y", "y")] == -2
    assert () not in mono  # zero coefficients are dropped


def test_expression_value_matches_float_eval():
    x, y = Var("x"), Var("y")
    e = (x - F(1, 2)) * (y + 3) - 2 * x
    p = {"x": F(2, 7), "y": F(1, 3)}
    want = (p["x"] - F(1, 2)) * (p["y"] + 3) - 2 * p["x"]
    assert Constraint("e", e).value(p) == want


def test_constraints_above_degree_two_are_rejected():
    # both kernels assume at most two affine factors per written product
    x = Var("x")
    with pytest.raises(ValueError):
        Constraint("cubic", x * x * x)
    Constraint("square", (x - 1) * (x + 2) * 3)  # constants fold away


def random_box(rng, variables):
    box = {}
    for v in variables:
        a, b = sorted(F(rng.randrange(0, 64), 64) for _ in range(2))
        box[v] = (a, b if b > a else a + F(1, 64))
    return box


def sample_point(rng, box):
    return {v: lo + (hi - lo) * F(rng.randrange(0, 17), 16) for v, (lo, hi) in box.items()}


def reference_sup(c, box, sign=1):
    """certcheck's exact min(F.hi, M.hi) of sign * c over the box."""
    terms = [(sign * coef, fs) for coef, fs in c._table.terms]
    return certcheck.sup(_plain_terms(terms), list(box), list(box.values()))


@pytest.mark.parametrize("sid", ALL_SYSTEMS)
def test_every_enclosure_form_contains_sampled_values(sid):
    # the bound of c and of -c: both ends of both forms, as each sup is
    # the smaller of two upper ends
    system = lemma_system(sid)
    rng = random.Random(hash(sid) & 0xFFFF)
    for _ in range(25):
        box = random_box(rng, system.variables)
        for c in system.constraints:
            hi, neg_lo = reference_sup(c, box), reference_sup(c, box, -1)
            for _ in range(4):
                val = c.value(sample_point(rng, box))
                assert -neg_lo <= val <= hi


def test_proves_is_consistent_with_interval():
    system = lemma_system("B2")
    rng = random.Random(5)
    for _ in range(40):
        box = random_box(rng, system.variables)
        ibox = _int_box(box)
        for c in system.constraints:
            sup = reference_sup(c, box)
            assert c._below(ibox, sup + F(1, 1000), True)
            # proving is exactly "F or M below the cut"
            assert not c._below(ibox, sup, True)
            assert c._below(ibox, sup, False)


def test_proves_non_strict_boundary():
    c = Constraint("x", Var("x"), "gt")
    ibox = _int_box({"x": (F(-1), F(0))})
    assert not c._below(ibox, F(0), True)
    assert c._below(ibox, F(0), False)


SIX_SYSTEMS = ALL_SYSTEMS + ("B1w",)
SNAP = 6 * 2**40  # the certifier's global denominator for shave cuts


def certifier_box(rng, system):
    """A random sub-box of the system's box whose endpoints carry the
    denominators the certifier and the scanner really produce: shave
    cuts snapped to 1/SNAP, dyadic bisection points, and resolution-200
    lattice coordinates.  One axis in eight has zero width."""
    box = {}
    for v in system.variables:
        lo, hi = system.box[v]
        kind = rng.randrange(3)
        if kind == 0:
            ends = [F(rng.randrange(int(lo * SNAP), int(hi * SNAP) + 1), SNAP)
                    for _ in range(2)]
        elif kind == 1:
            d = 2 ** rng.randrange(1, 30)
            ends = [lo + (hi - lo) * F(rng.randrange(d + 1), d) for _ in range(2)]
        else:
            ends = [lo + (hi - lo) * F(rng.randrange(201), 200) for _ in range(2)]
        a, b = sorted(ends)
        if rng.randrange(8) == 0:
            b = a
        box[v] = (a, b)
    return box


@pytest.mark.parametrize("sid", SIX_SYSTEMS)
def test_int_decisions_and_float_screen_track_the_reference(sid):
    import numpy as np

    system = lemma_system(sid)
    cons = [c for c, _, _ in _pruning_constraints(system, F(1, 10**6))]
    screen = _FloatScreen(cons, system.variables)
    rng = random.Random(sid)
    boxes = [certifier_box(rng, system) for _ in range(60)]
    los = np.array([[float(b[v][0]) for v in system.variables] for b in boxes])
    his = np.array([[float(b[v][1]) for v in system.variables] for b in boxes])
    fsups = screen(los, his)
    eps = F(1, 10**15)
    for row, box in enumerate(boxes):
        ibox = _int_box(box)
        for j, c in enumerate(cons):
            sup = reference_sup(c, box)
            # the prover's scaled-int decision is exactly the checker's
            for cut in (sup - eps, sup, sup + eps):
                assert c._below(ibox, cut, True) == (sup < cut)
                assert c._below(ibox, cut, False) == (sup <= cut)
            # the float screen evaluates the same forms up to roundoff,
            # each distinct form, pair, monomial and slop counted once
            assert abs(fsups[row, j] - float(sup)) <= 1e-9 * max(1, abs(float(sup)))


def critical_point(rng, system):
    """A point whose coordinates often sit where a constraint of the
    lemma systems is exactly zero: x = 1/3, y = 1/2 or 5/12, z = beta -
    1/2, the corner x + y + z = 1, and so on; otherwise a random
    rational with a certifier-like denominator."""
    p = {}
    for v in system.variables:
        lo, hi = system.box[v]
        pick = rng.randrange(3)
        if pick == 0:
            p[v] = rng.choice([lo, hi, F(1, 3), F(1, 2), F(5, 12), F(1, 4), F(7, 12)])
        elif pick == 1:
            p[v] = lo + (hi - lo) * F(rng.randrange(13), 12)
        else:
            p[v] = lo + (hi - lo) * F(rng.randrange(SNAP + 1), SNAP)
        p[v] = min(max(p[v], lo), hi)
    if rng.randrange(3) == 0:
        p["z"] = p["beta"] - rng.choice([F(1, 2), F(1, 4)])
    if rng.randrange(4) == 0:
        p["x"] = 1 - p["y"] - p["z"]
    return p


@pytest.mark.parametrize("sid", SIX_SYSTEMS)
def test_int_point_test_matches_holds_at(sid):
    system = lemma_system(sid)
    rng = random.Random(sid)
    points = [critical_point(rng, system) for _ in range(250)]
    points.append({"x": F(1, 2), "y": F(1, 2), "z": F(0), "beta": F(1, 2),
                   "zeta": F(0)})  # B1's x + y + z = 1 corner
    points.append({"x": F(21, 32), "y": F(0), "z": F(0), "beta": F(1, 2),
                   "zeta": F(0)})  # the B1w control point
    zeros = holds = 0
    for p in points:
        p = {v: p[v] for v in system.variables}
        S = math.lcm(*(x.denominator for x in p.values()))
        X = {v: x.numerator * (S // x.denominator) for v, x in p.items()}
        assert _int_holds(system.constraints, S, X) == system.holds_at(p)
        for c in system.constraints:
            assert _int_holds([c], S, X) == c.holds_at(p)
            zeros += c.value(p) == 0
            holds += c.holds_at(p)
    assert zeros >= 20 and 0 < holds < len(points) * len(system.constraints)


def test_verify_uses_only_the_reference(monkeypatch):
    certs = [certify_infeasible(sid) for sid in ("B1", "B3")]

    def broken(*args, **kwargs):
        raise AssertionError("the verifier reached the prover's kernel")

    monkeypatch.setattr(Constraint, "_below", broken)
    monkeypatch.setattr(_FloatScreen, "__call__", broken)
    monkeypatch.setattr(inequality, "_int_range", broken)
    monkeypatch.setattr(inequality, "_int_value", broken)
    for cert in certs:
        assert cert.verify()
        items, name = cert.leaves[0]
        assert not retag(cert, [(items, "x-lb")] + cert.leaves[1:]).verify()


# -- the lemma systems ---------------------------------------------------


def test_lemma_systems_share_shape():
    assert ALL_SYSTEMS == ("B1", "B2", "B3", "B4", "B5")
    for sid in ALL_SYSTEMS + ("B1w",):
        s = lemma_system(sid)
        assert s.sid == sid
        assert s.box["beta"] == (F(1, 2), F(2, 3))
        for v in s.variables:
            if v != "beta":
                assert s.box[v] == (F(0), F(1))
        names = [c.name for c in s.constraints]
        assert len(names) == len(set(names))
        assert names[0] == "sum" and s.constraints[0].kind == "gt"
    assert "zeta" in lemma_system("B5").variables
    with pytest.raises(ValueError):
        lemma_system("B9")


def test_violation_at_counts_strict_hits_as_small():
    s = lemma_system("B1")
    p = {"x": F(1, 2), "y": F(1, 2), "z": F(0), "beta": F(1, 2)}
    # x + y + z = 1 hits the strict sum bound exactly
    assert not s.holds_at(p)
    assert s.violation_at(p) == SMALL
    q = dict(p, x=F(1, 4))
    # worst shortfall is now the bilinear constraint: (1/2)(1/4) = 1/8,
    # ahead of the 1/12 shortfall on x >= 1/3
    assert s.violation_at(q) == F(1, 8)


def test_control_point_separates_b1_from_b1w():
    p = {"x": F(21, 32), "y": F(0), "z": F(0), "beta": F(1, 2)}
    assert lemma_system("B1w").holds_at(p)
    assert not lemma_system("B1").holds_at(p)


# -- pruning constraints and certificates --------------------------------


def test_pruning_constraints_are_reproducible_combinations():
    margin = F(1, 10**6)
    system = lemma_system("B3")
    pruning = _pruning_constraints(system, margin)
    base = {c.name: c for c in system.constraints}
    index = {c.name: i for i, c in enumerate(system.constraints)}
    for c, cut, source in pruning:
        if c.name in base:
            assert cut == (margin if c.kind == "gt" else 0)
            assert source == {"c": index[c.name]}
            continue
        # derived: "<main>+<w>*<strict>"
        cname, rest = c.name.split("+", 1)
        wtxt, sname = rest.split("*", 1)
        w = F(wtxt)
        combo = (base[cname].expr + w * base[sname].expr).monos
        assert combo == c.expr.monos
        base_cut = margin if base[cname].kind == "gt" else F(0)
        assert cut == base_cut + w * margin
        assert source == {"c": index[cname], "s": index[sname], "w": wtxt}


def test_derived_combinations_are_consequences():
    # any point satisfying the tightened base constraints satisfies
    # every derived combination at its cut
    margin = F(1, 100)
    system = lemma_system("B2")
    pruning = _pruning_constraints(system, margin)
    base = {c.name: (c, cut) for c, cut, _ in pruning if "+" not in c.name}
    rng = random.Random(3)
    found = 0
    for _ in range(300):
        p = {v: F(rng.randrange(0, 33), 32) for v in system.variables}
        p["beta"] = F(1, 2) + F(rng.randrange(0, 17), 96)
        if all(c.value(p) >= cut for c, cut in base.values()):
            found += 1
            for c, cut, _ in pruning:
                assert c.value(p) >= cut
    assert found == 0  # the tightened system really is empty


# (leaves, nodes, depth) of each certificate at the default margin and depth
SMALL_SHAPES = {"B1": (83, 1, 0), "B2": (131, 3, 1), "B4": (209, 3, 1)}


@pytest.mark.parametrize("sid", sorted(SMALL_SHAPES))
def test_certify_small_systems(sid):
    cert = certify_infeasible(sid)
    assert isinstance(cert, Certificate)
    assert cert.sid == sid
    assert cert.margin == F(1, 10**6)
    assert (len(cert.leaves), cert.nodes, cert.depth) == SMALL_SHAPES[sid]
    assert cert.verify()
    vol = F(0)
    for items, name in cert.leaves:
        piece = F(1)
        for _, (lo, hi) in items:
            piece *= hi - lo
        vol += piece
        assert isinstance(name, str)
    assert vol == cert.box_volume == F(1, 6)
    assert cert.leaves == sorted(cert.leaves)


def retag(cert, leaves):
    return dataclasses.replace(cert, leaves=leaves)


def test_certificate_verify_rejects_tampering():
    cert = certify_infeasible("B1")
    assert cert.verify()
    items, name = cert.leaves[0]
    # a leaf vanishes: the leaves no longer partition the box
    assert not retag(cert, cert.leaves[1:]).verify()
    # a leaf is double counted
    assert not retag(cert, cert.leaves + [cert.leaves[0]]).verify()
    # a leaf's variable set is wrong
    renamed = tuple(("w" if v == "x" else v, iv) for v, iv in items)
    assert not retag(cert, [(renamed, name)] + cert.leaves[1:]).verify()
    # a leaf pokes outside the system box
    swollen = tuple((v, (lo - 1, hi) if v == "x" else (lo, hi))
                    for v, (lo, hi) in items)
    assert not retag(cert, [(swollen, name)] + cert.leaves[1:]).verify()
    # a leaf names no pruning constraint of the system
    assert not retag(cert, [(items, "no-such")] + cert.leaves[1:]).verify()
    # a leaf names a real constraint that does not prune it
    assert name != "x-lb"
    assert not retag(cert, [(items, "x-lb")] + cert.leaves[1:]).verify()

    # the cases below keep the volume sum and every leaf proved inside
    # the box, so only the partition check can reject them
    b2 = certify_infeasible("B2")
    leaves = list(b2.leaves)
    assert leaf_volume(leaves[82]) == leaf_volume(leaves[125])
    leaves[82] = leaves[125]
    assert not retag(b2, leaves).verify()
    # y-lb proves any box with y < 1/2, whatever its other sides
    (a, a_name), (b, b_name) = cert.leaves[45], cert.leaves[48]
    assert a_name == b_name == "y-lb"
    assert dict(a)["x"] == (F(5, 16), F(201, 256)) and dict(b)["y"] == (F(0), F(1, 4))
    # leaf 45 slides down x by half its width, onto its neighbours
    shifted = with_side(a, "x", F(5, 16) - F(121, 512), F(201, 256) - F(121, 512))
    leaves = list(cert.leaves)
    leaves[45] = (shifted, "y-lb")
    assert not retag(cert, leaves).verify()
    # leaves 45 and 48 become one box of their joint volume: 48 grown
    # along y, which is not their union
    grow = leaf_volume(cert.leaves[45]) / leaf_volume(cert.leaves[48]) * F(1, 4)
    merged = with_side(b, "y", F(0), F(1, 4) + grow)
    assert F(1, 4) + grow < F(1, 2)
    leaves = [leaf for i, leaf in enumerate(cert.leaves) if i not in (45, 48)]
    assert not retag(cert, leaves + [(merged, "y-lb")]).verify()
    # a flat leaf (here a face of leaf 45) adds no volume but has no
    # interior to partition with, so it is rejected too
    flat = with_side(a, "z", F(0), F(0))
    assert not retag(cert, cert.leaves + [(flat, "y-lb")]).verify()


def leaf_volume(leaf):
    vol = F(1)
    for _, (lo, hi) in leaf[0]:
        vol *= hi - lo
    return vol


def with_side(items, var, lo, hi):
    return tuple((v, (lo, hi) if v == var else side) for v, side in items)


def test_certify_sorts_and_verifies_below_zero():
    # the diagonal band moved to [-1, 1]^2: the exact sort key offsets
    # every endpoint by the box's negative lower ends
    x, y = Var("x"), Var("y")
    s = System("band", ("x", "y"), {"x": (F(-1), F(1)), "y": (F(-1), F(1))},
               [Constraint("above", x + y, "gt"), Constraint("below", -x - y, "gt")])
    cert = certify_infeasible(s, margin=F(1, 8))
    assert isinstance(cert, Certificate)
    assert cert.leaves == sorted(cert.leaves)
    assert cert.box_volume == 4
    assert cert.verify()


def test_certify_feasible_control():
    res = certify_infeasible("B1w")
    assert isinstance(res, FeasiblePoint)
    system = lemma_system("B1w")
    assert system.holds_at(res.point)
    for c in system.constraints:
        assert res.values[c.name] == c.value(res.point)


def test_certify_feasible_simple_system():
    s = System("toy", ("x",), {"x": (F(0), F(1))},
               [Constraint("floor", Var("x") - F(1, 4), "ge")])
    res = certify_infeasible(s)
    assert isinstance(res, FeasiblePoint)
    assert res.point["x"] >= F(1, 4)


def diagonal_band():
    # x + y > 1 and x + y < 1 together are empty, but no face slab of a
    # box straddling the diagonal is prunable while both side lengths
    # are at least twice the margin, so shaving cannot help and real
    # bisection depth is forced near the whole diagonal
    x, y = Var("x"), Var("y")
    return System("band", ("x", "y"),
                  {"x": (F(0), F(1)), "y": (F(0), F(1))},
                  [Constraint("above", x + y - 1, "gt"),
                   Constraint("below", 1 - x - y, "gt")])


def test_certify_diagonal_band_via_shaving():
    s = diagonal_band()
    cert = certify_infeasible(s, margin=F(1, 8))
    assert isinstance(cert, Certificate)
    assert cert.verify()
    # face shaving walks linear boundaries in without spending depth
    assert cert.depth <= 2
    assert cert.box_volume == F(1)
    assert cert.leaves == sorted(cert.leaves)


def test_depth_budget_is_per_axis():
    # completing under max_depth=2 requires the budget to be charged per
    # axis: along one recursion path both x and y are halved twice, so a
    # total-bisection budget of 2 could not finish
    s = diagonal_band()
    cert = certify_infeasible(s, max_depth=2, margin=F(1, 64))
    assert isinstance(cert, Certificate)
    assert cert.depth == 2
    assert cert.verify()


def test_depth_exhaustion_raises_with_evidence():
    # feasible only at x = 1/7, which is on no dyadic or snap grid, so
    # no probe ever lands on it and no box around it can be discarded;
    # running out of depth is the correct verdict at every budget
    x = Var("x")
    s = System("thin", ("x",), {"x": (F(0), F(1))},
               [Constraint("curve", -(7 * x - 1) * (7 * x - 1), "ge")])
    for cap in (4, 9):
        with pytest.raises(DepthExhaustedError) as info:
            certify_infeasible(s, max_depth=cap)
        err = info.value
        assert err.sid == "thin" and err.depth == cap
        lo, hi = err.box["x"]
        assert lo < F(1, 7) < hi


@pytest.mark.parametrize("sid", ALL_SYSTEMS)
def test_margin_tightened_nonempty_margin_zero(sid):
    # sanity on the margin's role: with margin far above the systems'
    # actual slack nothing changes qualitatively, the systems stay empty
    cert = certify_infeasible(sid, margin=F(1, 1000))
    assert isinstance(cert, Certificate)
    assert cert.verify()


# -- grid scanning --------------------------------------------------------


def brute_grid_min(system, resolution):
    coords = {}
    for v, (lo, hi) in system.box.items():
        step = (hi - lo) / resolution
        coords[v] = [lo + step * i for i in range(resolution + 1)]
    best = None
    arg = None

    def rec(i, point):
        nonlocal best, arg
        if i == len(system.variables):
            viol = system.violation_at(point)
            if best is None or viol < best:
                best, arg = viol, dict(point)
            return
        v = system.variables[i]
        for c in coords[v]:
            point[v] = c
            rec(i + 1, point)
        del point[v]

    rec(0, {})
    return best, arg


@pytest.mark.parametrize("sid,res", [("B1", 4), ("B3", 4), ("B5", 3)])
def test_grid_scan_matches_brute_force(sid, res):
    system = lemma_system(sid)
    want, _ = brute_grid_min(system, res)
    got = grid_scan(sid, res)
    assert got.min_violation == want
    assert got.resolution == res
    assert system.violation_at(got.argmin) == want
    assert got.nodes >= 1


def test_grid_scan_strict_hit_reports_small():
    got = grid_scan("B1", 2)
    assert got.min_violation == SMALL
    s = lemma_system("B1")
    assert not s.holds_at(got.argmin)


def test_grid_scan_validates_resolution():
    with pytest.raises(ValueError):
        grid_scan("B1", 0)


def test_grid_scan_finds_feasible_lattice_point():
    s = System("toy", ("x", "y"),
               {"x": (F(0), F(1)), "y": (F(0), F(1))},
               [Constraint("half", Var("x") - F(1, 2), "ge")])
    got = grid_scan(s, 4)
    assert got.min_violation == 0
    assert s.holds_at(got.argmin)


# -- pinned outputs ---------------------------------------------------------

# sha256 of each certificate's canonical text (see canonical_certificate)
# at the default margin and depth, recorded before the enclosure kernel
# was rewritten; any change of leaf, pruning name, node count or depth
# is a regression, not a reason to re-pin
CERT_SHA = {
    "B1": "16e889a1060e42b7b2b22022ba0f8e0379e34175252943ff041525e924baaa84",
    "B2": "5a2e52345aeff28504a3cf4ee55508fe647800414e133c1915a37717564c940c",
    "B3": "080cf8237fa67f869fc4438f52debfc4d257dcaddfb13ac9361c53fd51dfe6cd",
    "B4": "44988c52119ae59c58cc1bc7aeab1322a2584bbf280a90b4b787f24b4f8b2b79",
    "B5": "924b1c152174a3d6a9c32dfb3e934db0924c6258ac0edef20b6ada7e68277786",
}

# grid_scan(sid, 14): (min_violation, argmin, nodes)
GRID14 = {
    "B1": (SMALL, {"x": F(1, 2), "y": F(1, 2), "z": F(0), "beta": F(1, 2)}, 233),
    "B2": (F(5, 294), {"x": F(3, 7), "y": F(3, 7), "z": F(1, 7),
                       "beta": F(55, 84)}, 435),
    "B3": (F(1, 98), {"x": F(5, 14), "y": F(5, 14), "z": F(2, 7),
                      "beta": F(13, 21)}, 527),
    "B4": (F(13, 882), {"x": F(5, 14), "y": F(2, 7), "z": F(5, 14),
                        "beta": F(2, 3)}, 609),
    "B5": (F(1, 49), {"x": F(5, 14), "y": F(2, 7), "z": F(5, 14),
                      "zeta": F(3, 14), "beta": F(13, 21)}, 797),
}


def canonical_certificate(cert):
    rows = [name + " " + " ".join(f"{v}={lo}:{hi}" for v, (lo, hi) in items)
            for items, name in cert.leaves]
    rows.append(f"nodes={cert.nodes} depth={cert.depth}")
    return "\n".join(rows)


@pytest.mark.parametrize("sid", ALL_SYSTEMS)
def test_certificates_are_pinned(sid):
    import hashlib

    cert = certify_infeasible(sid)
    digest = hashlib.sha256(canonical_certificate(cert).encode()).hexdigest()
    assert digest == CERT_SHA[sid]


@pytest.mark.parametrize("sid", ALL_SYSTEMS)
def test_grid_scan_is_pinned(sid):
    got = grid_scan(sid, 14)
    assert (got.min_violation, got.argmin, got.nodes) == GRID14[sid]


def test_feasible_control_point_is_pinned():
    res = certify_infeasible("B1w")
    assert res.point == {"x": F(21, 32), "y": F(0), "z": F(0), "beta": F(1, 2)}
