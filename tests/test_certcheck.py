"""The certificate files and their checker: the committed files are
fresh certificates byte for byte, the checker runs without the package,
every tampered file is rejected, and the written constraints expand the
same way in sympy, in Expr, in the prover's tables and in the checker."""

import ast
import functools
import json
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from ckblowup import certcheck, inequality
from ckblowup.inequality import (
    ALL_SYSTEMS,
    Certificate,
    Constraint,
    System,
    Var,
    _plain_terms,
    _pruning_constraints,
    certify_infeasible,
    lemma_system,
)

F = Fraction
CERT_DIR = Path(__file__).parent / "artifacts" / "certificates"


@functools.lru_cache(maxsize=None)
def _text(sid):
    return (CERT_DIR / f"{sid}.json").read_text(encoding="utf-8")


def cert_file(sid):
    """A fresh, mutable copy of the committed certificate of sid."""
    return json.loads(_text(sid))


@pytest.mark.parametrize("sid", ALL_SYSTEMS)
def test_committed_file_is_a_fresh_certificate(sid, monkeypatch):
    cert = certify_infeasible(sid)

    def compile_again(expr):
        raise AssertionError("a certificate compiled a constraint again")

    # the certificate writes the system and pruning list it was built with
    monkeypatch.setattr(inequality, "_compile", compile_again)
    assert cert.to_json().encode() == (CERT_DIR / f"{sid}.json").read_bytes()


# Loads certcheck.py by path, so the package __init__ never runs.
CHECK_FILES = """
import importlib.util, json, sys
spec = importlib.util.spec_from_file_location("certcheck", sys.argv[1])
module = importlib.util.module_from_spec(spec)
spec.loader.exec_module(module)
results = []
for path in sys.argv[2:]:
    with open(path, encoding="utf-8") as fh:
        results.append(module.check(json.load(fh)))
assert "ckblowup.inequality" not in sys.modules
assert not [m for m in sys.modules if m.split(".")[0] == "ckblowup"]
print(json.dumps(results))
"""


def test_files_check_without_the_package():
    files = [str(CERT_DIR / f"{sid}.json") for sid in ALL_SYSTEMS]
    out = subprocess.run([sys.executable, "-c", CHECK_FILES, certcheck.__file__, *files],
                         capture_output=True, text=True, timeout=60, cwd=CERT_DIR)
    assert out.returncode == 0, out.stderr
    assert json.loads(out.stdout) == [True] * len(ALL_SYSTEMS)


def test_certcheck_imports_only_stdlib_and_numpy():
    tree = ast.parse(Path(certcheck.__file__).read_text(encoding="utf-8"))
    roots = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            roots |= {alias.name.split(".")[0] for alias in node.names}
        elif isinstance(node, ast.ImportFrom):
            assert node.level == 0, "a relative import reaches into the package"
            roots.add(node.module.split(".")[0])
    assert "ckblowup" not in roots
    assert roots <= set(sys.stdlib_module_names) | {"numpy"}


# -- tampering ----------------------------------------------------------


def scaled(cert, x):
    """A rational as an int end over the file's L."""
    value = F(x) * cert["L"]
    assert value.denominator == 1
    return int(value)


def side(cert, leaf, var):
    return cert["leaves"][leaf][1][cert["variables"].index(var)]


def drop_first_leaf(cert):
    cert["leaves"] = cert["leaves"][1:]


def count_first_leaf_twice(cert):
    cert["leaves"].append(cert["leaves"][0])


def rename_a_side(cert):
    # how to_dict writes a leaf whose x is named w: x missing, w extra
    sides = cert["leaves"][0][1]
    sides.append(sides[0])
    sides[0] = None


def poke_outside_the_box(cert):
    side(cert, 0, "x")[0] -= cert["L"]


def name_no_constraint(cert):
    cert["leaves"][0][0] = None  # how to_dict writes an unknown name


def name_a_constraint_that_does_not_prune(cert):
    assert cert["constraints"][1]["name"] == "x-lb"
    assert cert["leaves"][0][0] != 1
    cert["leaves"][0][0] = 1


def overlap_two_leaves_of_b2(cert):
    # leaf 82 of B2 becomes a copy of leaf 125, of the same volume: only
    # the partition check can reject this
    cert["leaves"][82] = cert["leaves"][125]


def slide_a_leaf_onto_its_neighbours(cert):
    # leaf 45 (pruned by y-lb, which proves any box with y < 1/2) slides
    # down x by half its width
    lo, hi = side(cert, 45, "x")
    assert (lo, hi) == (scaled(cert, F(5, 16)), scaled(cert, F(201, 256)))
    shift = scaled(cert, F(121, 512))
    side(cert, 45, "x")[:] = [lo - shift, hi - shift]


def merge_two_leaves_wrongly(cert):
    # leaves 45 and 48 become one box of their joint volume: 48 grown
    # along y, which is not their union
    a, b = cert["leaves"][45], cert["leaves"][48]
    assert a[0] == b[0] == 2  # y-lb
    assert side(cert, 48, "y") == [0, scaled(cert, F(1, 4))]

    def volume(leaf):
        out = 1
        for lo, hi in leaf[1]:
            out *= hi - lo
        return out

    grow = F(volume(a), volume(b)) * scaled(cert, F(1, 4))
    assert grow.denominator == 1 and scaled(cert, F(1, 4)) + grow < scaled(cert, F(1, 2))
    side(cert, 48, "y")[1] += int(grow)
    del cert["leaves"][45]


def add_a_flat_leaf(cert):
    flat = json.loads(json.dumps(cert["leaves"][45]))
    flat[1][cert["variables"].index("z")] = [0, 0]
    cert["leaves"].append(flat)


def unused_combination(cert):
    """B1's main + 1*sum, which prunes no leaf: a change to it can only
    be caught by the check of the pruning constraints themselves."""
    entry = cert["pruning"][9]
    assert (entry["c"], entry["s"], entry["w"]) == (4, 0, "1")
    assert all(k != 9 for k, _ in cert["leaves"])
    return entry


def change_a_combination_weight(cert):
    # the cut is moved along, so only the expansion check can object
    entry = unused_combination(cert)
    entry["w"], entry["cut"] = "1/2", "1/2000000"


def derive_from_a_non_strict_constraint(cert):
    # main + 1*(x - 1/3), written out exactly, with the matching cut: a
    # sound-looking combination of a constraint that is only >= 0
    entry = unused_combination(cert)
    assert cert["constraints"][1]["kind"] == "ge"
    entry["s"] = 1
    entry["terms"] = cert["pruning"][4]["terms"] + [["1", [["-1/3", [["x", "1"]]]]]]


def change_a_cut(cert):
    entry = cert["pruning"][cert["leaves"][0][0]]
    entry["cut"] = str(F(entry["cut"]) + F(1, 10**6))


def put_a_factor_one_coefficient_off(cert):
    const, lin = unused_combination(cert)["terms"][0][1][0]
    lin[0][1] = str(F(lin[0][1]) + 1)


def push_a_leaf_out_of_the_box(cert):
    # leaf 48 (y-lb, so still proved) moves right by its width along x,
    # off the box: the volumes and the interiors cannot tell
    k, sides = cert["leaves"][48]
    lo, hi = sides[0]
    assert k == 2 and hi == cert["L"]
    sides[0] = [hi, 2 * hi - lo]


def make_a_leaf_flat(cert):
    lo, _ = side(cert, 0, "x")
    side(cert, 0, "x")[1] = lo


def invert_a_side(cert):
    side(cert, 0, "x").reverse()


def make_an_end_a_float(cert):
    side(cert, 0, "x")[0] = float(side(cert, 0, "x")[0])


def index_past_the_pruning_list(cert):
    cert["leaves"][0][0] = len(cert["pruning"])


def index_from_the_end(cert):
    cert["leaves"][0][0] = -1


def derive_from_a_missing_constraint(cert):
    cert["pruning"][cert["leaves"][0][0]]["s"] = len(cert["constraints"])


TAMPERING = [drop_first_leaf, count_first_leaf_twice, rename_a_side,
             poke_outside_the_box, name_no_constraint,
             name_a_constraint_that_does_not_prune, overlap_two_leaves_of_b2,
             slide_a_leaf_onto_its_neighbours, merge_two_leaves_wrongly,
             add_a_flat_leaf, change_a_combination_weight, change_a_cut,
             derive_from_a_non_strict_constraint,
             put_a_factor_one_coefficient_off, push_a_leaf_out_of_the_box,
             make_a_leaf_flat,
             invert_a_side, make_an_end_a_float, index_past_the_pruning_list,
             index_from_the_end, derive_from_a_missing_constraint]


@pytest.mark.parametrize("tamper", TAMPERING, ids=lambda f: f.__name__)
def test_tampered_file_is_rejected(tamper):
    sid = "B2" if tamper is overlap_two_leaves_of_b2 else "B1"
    cert = cert_file(sid)
    assert certcheck.check(cert)
    tamper(cert)
    assert not certcheck.check(cert)


def test_a_bound_that_only_reaches_the_cut_is_rejected():
    # -x >= 0 holds at x = 0, and on [0, 1] both forms reach exactly 0
    x = Var("x")
    for expr, proved in ((-x, False), (-x - F(1, 10), True)):
        system = System("toy", ("x",), {"x": (F(0), F(1))}, [Constraint("neg", expr)])
        margin = F(1, 10**6)
        cert = Certificate(system, margin, [((("x", (F(0), F(1))),), "neg")],
                           1, 0, 0.0, F(1), _pruning_constraints(system, margin))
        assert cert.verify() is proved


@pytest.mark.parametrize("path", [
    ("L",), ("box",), ("constraints",), ("leaves",), ("margin",), ("pruning",),
    ("variables",), ("constraints", 0, "kind"), ("constraints", 4, "monomials"),
    ("pruning", 8, "c"), ("pruning", 8, "cut"), ("pruning", 8, "terms"),
    ("pruning", 8, "w"),
], ids=lambda p: "/".join(map(str, p)))
def test_file_missing_a_key_is_rejected(path):
    cert = cert_file("B1")
    parent = cert
    for key in path[:-1]:
        parent = parent[key]
    del parent[path[-1]]
    assert not certcheck.check(cert)


@pytest.mark.parametrize("junk", [None, [], "B1", 3, {"leaves": "x"}])
def test_junk_is_rejected(junk):
    assert certcheck.check(junk) is False


@functools.lru_cache(maxsize=None)
def b1_moves():
    """(leaf, axis, lo, hi, box lo, box hi) for every side of B1's file."""
    cert = cert_file("B1")
    box = [[scaled(cert, e) for e in pair] for pair in cert["box"]]
    return [(i, d, lo, hi, *box[d])
            for i, (_, sides) in enumerate(cert["leaves"])
            for d, (lo, hi) in enumerate(sides)]


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_moving_one_leaf_end_is_rejected(data):
    # any single end moved inside the box, with lo < hi kept, changes
    # that leaf's volume and so breaks the partition
    leaf, axis, lo, hi, box_lo, box_hi = data.draw(st.sampled_from(b1_moves()))
    end = data.draw(st.sampled_from([0, 1]))
    old, low, high = (lo, box_lo, hi - 1) if end == 0 else (hi, lo + 1, box_hi)
    new = data.draw(st.one_of(st.integers(low, high),
                              st.sampled_from([old - 1, old + 1]).filter(
                                  lambda e: low <= e <= high)).filter(lambda e: e != old))
    cert = cert_file("B1")
    cert["leaves"][leaf][1][axis][end] = new
    assert not certcheck.check(cert)


# -- an independent expansion ----------------------------------------------


def to_sympy(sympy, e, symbols):
    """The written sum of products, each affine factor rebuilt in sympy."""
    def rat(q):
        return sympy.Rational(q.numerator, q.denominator)

    return sympy.Add(*(rat(coef) * sympy.Mul(*(
        rat(const) + sympy.Add(*(rat(a) * symbols[v] for v, a in lin))
        for const, lin in factors)) for coef, factors in e.terms))


def sympy_monomials(sympy, expr, variables):
    """Expr.monos's form of sympy's expansion: sorted name tuples."""
    symbols = {v: sympy.Symbol(v) for v in variables}
    poly = sympy.Poly(sympy.expand(to_sympy(sympy, expr, symbols)), *symbols.values())
    return {tuple(sorted(v for v, p in zip(variables, powers) for _ in range(p))):
            F(int(k.p), int(k.q)) for powers, k in poly.terms()}


def checker_monomials(terms, variables):
    col = {v: i for i, v in enumerate(variables)}
    return {tuple(sorted(variables[i] for i in m)): k
            for m, k in certcheck._expand(certcheck._terms(terms, col)).items()}


@pytest.mark.parametrize("sid", ALL_SYSTEMS + ("B1w",))
def test_written_forms_expand_alike_in_sympy(sid):
    sympy = pytest.importorskip("sympy")
    system = lemma_system(sid)
    variables = list(system.variables)
    pruning = _pruning_constraints(system, F(1, 10**6))  # system constraints first
    files = cert_file(sid)["pruning"] if sid in ALL_SYSTEMS else None
    for j, (c, _, _) in enumerate(pruning):
        want = sympy_monomials(sympy, c.expr, variables)
        assert c.expr.monos == want, c.name
        assert {names: k for k, names in c._table.monos} == want, c.name
        assert checker_monomials(_plain_terms(c._table.terms), variables) == want, c.name
        if files is not None:
            assert checker_monomials(files[j]["terms"], variables) == want, c.name


NAMES = ("x", "y", "z")
RATIONALS = st.fractions(min_value=-3, max_value=3, max_denominator=6)


@st.composite
def expressions(draw, depth=4):
    """(expression, degree bound) from Var, rationals, +, -, * and unary
    -; a product that would pass degree two is drawn as a sum instead."""
    op = draw(st.sampled_from(("leaf", "+", "-", "*", "neg") if depth else ("leaf",)))
    if op == "leaf":
        return draw(st.one_of(st.sampled_from(NAMES).map(lambda v: (Var(v), 1)),
                              RATIONALS.map(lambda q: (q, 0))))
    a, da = draw(expressions(depth - 1))
    if op == "neg":
        return -a, da
    b, db = draw(expressions(depth - 1))
    if op == "*" and da + db <= 2:
        return a * b, da + db
    return (a - b if op == "-" else a + b), max(da, db)


# a draw that is a bare number is lifted to a constant Expr
EXPRESSIONS = expressions().map(lambda t: inequality._lift(t[0]))


@settings(max_examples=200, deadline=None)
@given(EXPRESSIONS, st.fixed_dictionaries({v: RATIONALS for v in NAMES}))
def test_drawn_expressions_expand_and_evaluate_alike_in_sympy(e, point):
    # the written terms and the expanded monomials are built separately
    # by Expr's operators; sympy expands the first to the second and
    # evaluates it to what Constraint.value gets from the second
    sympy = pytest.importorskip("sympy")
    want = sympy_monomials(sympy, e, NAMES)
    assert {m: k for m, k in e.monos.items() if k} == {m: k for m, k in want.items() if k}
    symbols = {v: sympy.Symbol(v) for v in NAMES}
    value = to_sympy(sympy, e, symbols).subs(
        {symbols[v]: sympy.Rational(q.numerator, q.denominator) for v, q in point.items()})
    assert Constraint("e", e).value(point) == F(int(value.p), int(value.q))
