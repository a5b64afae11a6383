"""Exact certification that the degree/weight inequality systems behind
the lower-bound constructions have no solution.

Everything that matters is exact: interval endpoints, grid coordinates
and point evaluations are Fractions, and enclosure decisions are made in
integers, so no rounding can creep into a certificate.  Each system is a
box of variables plus constraints of the form expression >= 0 ("ge") or
expression > 0 ("gt").

The certifier runs interval branch and bound.  Strict constraints are
tightened to "expression >= margin" first: several of the systems touch
feasibility exactly on the boundary excluded by a strict bound (for
example the closure of the first system is satisfied at a single corner
with x + y + z = 1), and no interval subdivision can rule out an open
condition at its own boundary.  A certificate therefore covers the
closed, margin-tightened system; any solution of the original strict
system would have to clear some strict bound by less than the margin.
Midpoints are still tested exactly against the original strict system,
so a reported feasible point genuinely solves it.

A node first tries to discard its whole box with a single constraint
whose enclosure lies below the cut.  If that fails, provably infeasible
slabs are shaved off the box's faces, each slab becoming a certificate
leaf of its own, discarded by the single constraint that kills it; the
shaving is what lets the search pin coordinates against curved
constraint boundaries without spending bisection depth on them.  What
survives is bisected along its widest side.

Constraints are written as Expr polynomials, whose operators build the
written sum of products and the expanded monomials side by side.  Each
constraint compiles them once into a table of two enclosure forms, and
point values come from the expanded form.  The prover steers with a
float screen (_FloatScreen) over batches of boxes and decides every leaf
and lattice prune exactly, in Python ints on the table scaled to integer
coefficients (_int_table, _int_box).
Certificate.verify hands the certificate as plain data to certcheck,
which shares no code with this module: it re-derives the pruning
constraints, re-checks each leaf and checks the leaf partition.

The grid scanner reports the minimum constraint violation over a full
lattice, pruning grid-aligned blocks with the same enclosure forms,
so it is exhaustive without visiting every lattice point.
"""

from __future__ import annotations

import json
import math
import time
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Dict, NamedTuple, Optional, Sequence

import numpy as np

from . import certcheck

F = Fraction

SMALL = Fraction(1, 10**12)  # violation assigned to exact strict-boundary hits


class Expr:
    """A polynomial over named variables and rational constants, kept in
    the two forms that Constraint compiles, both built by the operators:

    - ``terms``: the sum of products as written, a list of (coef,
      factors), each factor an affine form (const, ((name, a), ...)).
      ``+`` concatenates terms; ``*`` first turns an operand that is an
      affine sum of several terms into one affine factor, whose range
      over a box is exact, then distributes, so a factor that is not
      affine is multiplied out.
    - ``monos``: the expanded form, a dict from a sorted tuple of
      variable names (with multiplicity) to the rational coefficient.
      Sums and products drop zero coefficients.

    Var(name) and lifted numbers are the leaves."""

    __slots__ = ("terms", "monos")

    def __init__(self, terms: list, monos: Dict[tuple, Fraction]):
        self.terms = terms
        self.monos = monos

    def __add__(self, other):
        other = _lift(other)
        monos = dict(self.monos)
        for m, c in other.monos.items():
            monos[m] = monos.get(m, F(0)) + c
        return Expr(self.terms + other.terms, {m: c for m, c in monos.items() if c})

    def __radd__(self, other):
        return _lift(other) + self

    def __sub__(self, other):
        return self + -_lift(other)

    def __rsub__(self, other):
        return _lift(other) - self

    def __mul__(self, other):
        other = _lift(other)
        sides = []
        for terms in (self.terms, other.terms):
            if len(terms) > 1 and all(len(fs) <= 1 for _, fs in terms):
                const, lin = F(0), {}
                for c, fs in terms:
                    for fc, flin in fs or ((F(1), ()),):
                        const += c * fc
                        for v, a in flin:
                            lin[v] = lin.get(v, F(0)) + c * a
                lin = tuple((v, a) for v, a in lin.items() if a)
                terms = [(F(1), ((const, lin),))] if lin else [(const, ())]
            sides.append(terms)
        monos: Dict[tuple, Fraction] = {}
        for m1, c1 in self.monos.items():
            for m2, c2 in other.monos.items():
                m = tuple(sorted(m1 + m2))
                monos[m] = monos.get(m, F(0)) + c1 * c2
        return Expr([(c1 * c2, f1 + f2) for c1, f1 in sides[0] for c2, f2 in sides[1]],
                    {m: c for m, c in monos.items() if c})

    def __rmul__(self, other):
        return _lift(other) * self

    def __neg__(self):
        return _lift(-1) * self


def Var(name: str) -> Expr:
    """The variable ``name`` as an expression."""
    return Expr([(F(1), ((F(0), ((name, F(1)),)),))], {(name,): F(1)})


def _lift(v) -> Expr:
    if isinstance(v, Expr):
        return v
    return Expr([(F(v), ())], {(): F(v)})


# A compiled constraint is a _Table of plain tuples: Expr's two forms
# and the partial derivatives.  An affine form's range over a box is
# exact.  Every constraint has degree at most 2, so a term has at most
# two factors and each partial derivative is one affine form.


class _Table(NamedTuple):
    terms: list  # the written sum of products: the factored form
    monos: list  # expanded monomials as (coef, names)
    derivs: list  # (name, affine form of that partial derivative)


def _compile(expr: Expr) -> _Table:
    if any(len(fs) > 2 for _, fs in expr.terms):
        raise ValueError("constraints must be written with at most two "
                         "non-constant factors per product")
    monos = list(expr.monos.items())
    derivs = []
    for v in sorted({n for mono, _ in monos for n in mono}):
        # d/dv of c*v is c, of c*v*u is c*u, of c*v*v is 2c*v
        const, lin = F(0), {}
        for mono, c in monos:
            if v in mono:
                rest = list(mono)
                rest.remove(v)
                if rest:
                    lin[rest[0]] = lin.get(rest[0], F(0)) + mono.count(v) * c
                else:
                    const += c
        derivs.append((v, (const, tuple(lin.items()))))
    return _Table(expr.terms, [(c, m) for m, c in monos], derivs)


def _int_table(table: _Table) -> tuple:
    """(M, terms, monos, derivs): the table times M, the lcm of its
    denominators, with integer coefficients throughout.  Each factor is
    cleared of its own denominators and the rest of the scale is folded
    into its term's coefficient; terms are (coef, degree, factors) and
    derivs (name, const, lin).  Evaluated at X = S*x for an integer S
    (see _int_box), a term of degree d is homogenized by S^(2-d), so
    every quantity is M*S^2 times its rational value and every decision
    against a cut is exact."""
    terms = []
    for coef, factors in table.terms:
        fs = []
        for const, lin in factors:
            m = math.lcm(const.denominator, *(a.denominator for _, a in lin))
            fs.append((int(const * m), tuple((v, int(a * m)) for v, a in lin)))
            coef = coef / m
        terms.append((coef, tuple(fs)))
    M = math.lcm(*(c.denominator for c, _ in terms),
                 *(c.denominator for c, _ in table.monos))
    return (M, [(int(c * M), len(fs), fs) for c, fs in terms],
            [(int(c * M), names) for c, names in table.monos],
            [(v, int(const * M), tuple((u, int(a * M)) for u, a in lin))
             for v, (const, lin) in table.derivs])


def _int_box(box: dict) -> tuple:
    """(S, lo, hi, mid, half) for a box of Fraction pairs: S is twice the
    lcm of the endpoint denominators, and the dicts hold S times each
    endpoint, midpoint and half-width, all integers."""
    S = 2 * math.lcm(*(e.denominator for pair in box.values() for e in pair))
    lo, hi, mid, half = {}, {}, {}, {}
    for v, (a, b) in box.items():
        A = a.numerator * (S // a.denominator)
        B = b.numerator * (S // b.denominator)
        lo[v], hi[v], mid[v], half[v] = A, B, (A + B) // 2, (B - A) // 2
    return S, lo, hi, mid, half


def _int_range(const: int, lin: tuple, S: int, lo: dict, hi: dict) -> tuple:
    """S times the range of const + sum(a * x) over an _int_box box.
    The checker in certcheck has its own evaluator on purpose, so that
    Certificate.verify shares no code with the prover."""
    flo = fhi = const * S
    for v, a in lin:
        if a > 0:
            flo, fhi = flo + a * lo[v], fhi + a * hi[v]
        else:
            flo, fhi = flo + a * hi[v], fhi + a * lo[v]
    return flo, fhi


def _int_value(monos: list, spow: tuple, point: dict) -> int:
    """M*S^2 times the expanded form at x, from the _int_table monomials
    and the scaled point X = S*x, with spow = (S^2, S, 1)."""
    total = 0
    for coef, names in monos:
        t = coef * spow[len(names)]
        for v in names:
            t *= point[v]
        total += t
    return total


def _int_holds(constraints: Sequence, S: int, point: dict) -> bool:
    """System.holds_at for the scaled point X = S*x, decided in ints."""
    spow = (S * S, S, 1)
    for c in constraints:
        val = _int_value(c._itable[2], spow, point)
        if val < 0 or (val == 0 and c.kind == "gt"):
            return False
    return True


@dataclass
class Constraint:
    """expression >= 0 when kind == "ge"; expression > 0 when "gt".

    Over a box the expression is enclosed two ways, both from one table
    compiled here: the factored form F (the written sum of products,
    tight where each variable occurs once) and the mean value form M
    (tight where occurrences of a variable cancel to first order).
    ``_below`` decides them against a cut in scaled Python ints;
    certcheck.sup is the exact reference it is tested against."""

    name: str
    expr: Expr
    kind: str = "ge"

    def __post_init__(self):
        if self.kind not in ("ge", "gt"):
            raise ValueError(f"unknown constraint kind {self.kind!r}")
        self._table = _compile(self.expr)
        self._itable = _int_table(self._table)

    def _below(self, ibox: tuple, cut: Fraction, strict: bool) -> bool:
        """Whether F or M puts the expression below cut (at most cut when
        strict is False) on a box converted by _int_box; M is only
        evaluated when F fails."""
        S, lo, hi, mid, half = ibox
        M, terms, monos, derivs = self._itable
        spow = (S * S, S, 1)
        den, lim = cut.denominator, cut.numerator * M * spow[0]
        shi = 0
        for coef, deg, factors in terms:
            tlo = thi = coef * spow[deg]
            for const, lin in factors:
                flo, fhi = _int_range(const, lin, S, lo, hi)
                p1, p2, p3, p4 = tlo * flo, tlo * fhi, thi * flo, thi * fhi
                tlo, thi = min(p1, p2, p3, p4), max(p1, p2, p3, p4)
            shi += thi
        if (shi * den < lim) if strict else (shi * den <= lim):
            return True
        center = _int_value(monos, spow, mid)
        slop = 0
        for v, const, lin in derivs:
            dlo, dhi = _int_range(const, lin, S, lo, hi)
            slop += max(-dlo, dhi) * half[v]  # max(|dlo|, |dhi|): dlo <= dhi
        h = center + slop
        return (h * den < lim) if strict else (h * den <= lim)

    def value(self, point: Dict[str, Fraction]) -> Fraction:
        """The expression at an exact point, from its expanded form."""
        total = F(0)
        for coef, names in self._table.monos:
            for v in names:
                coef *= point[v]
            total += coef
        return total

    def holds_at(self, point: Dict[str, Fraction]) -> bool:
        v = self.value(point)
        return v > 0 if self.kind == "gt" else v >= 0


class _FloatScreen:
    """Float min(F.hi, M.hi) of a list of constraints, stacked once so
    that one call evaluates every constraint over a batch of boxes in a
    fixed handful of numpy operations.  Steers shaving, splitting and
    scan order only; nothing it reports is recorded without an exact
    decision.

    Each distinct affine form is one column: a term's two factors (the
    coefficient folded into the first, a missing factor padded as the
    constant 1) and each partial derivative.  Their ranges come from one
    matmul of [lo, hi] against the positive and negative parts.  A
    derived combination c + w*s repeats c's terms verbatim, so each
    distinct term pair, monomial (indexing the midpoint, padded with a
    column of ones) and (derivative form, variable) slop is evaluated
    once, and matrices of counts and coefficients sum them into their
    constraints."""

    def __init__(self, constraints: Sequence[Constraint], variables: tuple):
        col = {v: i for i, v in enumerate(variables)}
        n = len(variables)
        one = (F(1), ())
        forms, pairs, monos, slops = {}, {}, {}, {}
        fsum, msum, ssum = [], [], []  # (row, constraint, weight)

        def key(table: dict, item) -> int:
            return table.setdefault(item, len(table))

        for j, c in enumerate(constraints):
            table = c._table
            for coef, fs in table.terms:
                f1, f2 = (tuple(fs) + (one, one))[:2]
                first = (coef * f1[0], tuple((v, coef * a) for v, a in f1[1]))
                fsum.append((key(pairs, (key(forms, first), key(forms, f2))), j, 1.0))
            for coef, names in table.monos:
                cols = tuple([col[v] for v in names] + [n] * (2 - len(names)))
                msum.append((key(monos, cols), j, float(coef)))
            for v, form in table.derivs:
                ssum.append((key(slops, (key(forms, form), col[v])), j, 1.0))
        A = np.zeros((n, len(forms)))
        const = np.array([float(k) for k, _ in forms])
        for r, (_, lin) in enumerate(forms):
            for v, a in lin:
                A[col[v], r] = float(a)
        pos, neg = np.maximum(A, 0.0), np.minimum(A, 0.0)
        self._ends = np.block([[pos, neg], [neg, pos]])  # [lo, hi] -> [lows, highs]
        self._const = np.concatenate([const, const])
        self._R = len(forms)
        self._pairs, self._monos, self._slops = (
            np.array(list(d), dtype=np.intp).reshape(-1, 2).T for d in (pairs, monos, slops))
        C = len(constraints)
        self._term_sum = _weights(fsum, len(pairs), C)
        self._mv_sum = np.vstack([_weights(msum, len(monos), C),
                                  _weights(ssum, len(slops), C)])

    def __call__(self, los: np.ndarray, his: np.ndarray) -> np.ndarray:
        """(B, dim) box bounds in, (B, n_constraints) float sups out."""
        R = self._R
        ends = np.concatenate([los, his], axis=1) @ self._ends + self._const
        lows, highs = ends[:, :R], ends[:, R:]
        p1, p2 = self._pairs
        a, b, c, d = lows[:, p1], highs[:, p1], lows[:, p2], highs[:, p2]
        fhi = np.maximum(np.maximum(a * c, a * d), np.maximum(b * c, b * d))
        mid = np.concatenate([(los + his) / 2, np.ones((los.shape[0], 1))], axis=1)
        center = mid[:, self._monos[0]] * mid[:, self._monos[1]]
        f, v = self._slops
        slop = np.maximum(np.abs(lows[:, f]), np.abs(highs[:, f])) * ((his - los) / 2)[:, v]
        mv = np.concatenate([center, slop], axis=1) @ self._mv_sum
        return np.minimum(fhi @ self._term_sum, mv)


def _weights(entries: list, rows: int, cols: int) -> np.ndarray:
    """The (rows, cols) matrix summing each (row, col, weight) entry."""
    out = np.zeros((rows, cols))
    for r, j, w in entries:
        out[r, j] += w
    return out


@dataclass
class System:
    sid: str
    variables: tuple
    box: dict  # name -> (lo, hi) Fractions
    constraints: list
    note: str = ""

    def holds_at(self, point: Dict[str, Fraction]) -> bool:
        return all(c.holds_at(point) for c in self.constraints)

    def violation_at(self, point: Dict[str, Fraction]) -> Fraction:
        """0 when the point satisfies the system; otherwise the largest
        shortfall, with exact hits of a strict bound counted as SMALL."""
        worst = F(0)
        for c in self.constraints:
            v = c.value(point)
            if c.kind == "ge":
                bad = -v if v < 0 else F(0)
            else:
                bad = max(-v, SMALL) if v <= 0 else F(0)
            worst = max(worst, bad)
        return worst


_X, _Y, _Z, _ZETA, _BETA = (Var(n) for n in ("x", "y", "z", "zeta", "beta"))
_GAMMA = F(4, 3) - _BETA  # the two densities are coupled this way throughout

_UNIT = (F(0), F(1))
_BETA_RANGE = (F(1, 2), F(2, 3))


def _base(sid, variables, extra, note):
    cons = [Constraint("sum", 1 - _X - _Y - _Z, "gt"),
            Constraint("x-lb", _X - F(1, 3))]
    cons.extend(extra)
    box = {v: (_BETA_RANGE if v == "beta" else _UNIT) for v in variables}
    return System(sid, tuple(variables), box, cons, note)


def lemma_system(sid: str) -> System:
    """The five inequality systems whose infeasibility underpins the
    lower-bound constructions, plus the control system "B1w" (B1 with
    its y-bound dropped to y >= 0), which is feasible.

    Every solution of the unrestricted systems already lies in the unit
    box: the lower bounds force x, y, z >= 0 and the strict sum bound
    then caps each variable by 1.  In B5 the final constraint is
    non-increasing in zeta (its zeta-coefficient 2(2*beta - x - 1) is
    never positive on the box), so any solution yields one with
    zeta = 1/2 - y <= 1/3; searching zeta in [0, 1] therefore decides
    the unbounded system as well.
    """
    main_b1 = (1 - _GAMMA) * (_Z - _BETA + F(1, 2)) - (F(1, 2) - _Z) * (_BETA - _X)
    if sid == "B1":
        return _base(sid, ("x", "y", "z", "beta"), [
            Constraint("y-lb", _Y - F(1, 2)),
            Constraint("z-lb", _Z - _BETA + F(1, 2)),
            Constraint("main", main_b1),
        ], "one part of the link pool is large")
    if sid == "B1w":
        return _base(sid, ("x", "y", "z", "beta"), [
            Constraint("y-lb", _Y),
            Constraint("z-lb", _Z - _BETA + F(1, 2)),
            Constraint("main", main_b1),
        ], "control: B1 with the y lower bound removed; feasible")
    if sid == "B2":
        return _base(sid, ("x", "y", "z", "beta"), [
            Constraint("y-lb", _Y - F(5, 12)),
            Constraint("z-lb", _Z - _BETA + F(1, 2)),
            Constraint("main", (1 - _GAMMA) * (1 - _Z) - (1 - _X) * (_BETA - _Z)),
        ], "")
    if sid == "B3":
        return _base(sid, ("x", "y", "z", "beta"), [
            Constraint("y-lb", _Y - F(1, 3)),
            Constraint("z-lb", _Z - _BETA + F(1, 2)),
            Constraint("main-1", (1 - _GAMMA) * (_Z - _BETA + F(1, 2))
                       - (_BETA - _Z) * (F(1, 2) - _Y)),
            Constraint("main-2", (1 - _GAMMA) * (_Z - _BETA + F(1, 2))
                       - (_BETA - _X) * (F(1, 2) - _Z)),
            Constraint("main-3", (1 - _GAMMA) * (1 - _Z) - (1 - _X) * (_BETA - _Z)),
        ], "")
    if sid == "B4":
        return _base(sid, ("x", "y", "z", "beta"), [
            Constraint("y-lb", _Y - _GAMMA + F(1, 2)),
            Constraint("y-ub", F(1, 3) - _Y),
            Constraint("z-lb", _Z - _BETA + F(1, 2)),
            Constraint("main", (1 - _BETA) * (_Y - _GAMMA + F(1, 2))
                       - (_GAMMA - _Y) * (F(1, 2) - _Z)),
        ], "")
    if sid == "B5":
        return _base(sid, ("x", "y", "z", "zeta", "beta"), [
            Constraint("y-lb", _Y - _GAMMA + F(1, 2)),
            Constraint("y-ub", F(1, 3) - _Y),
            Constraint("z-lb", _Z - _BETA + F(1, 4)),
            Constraint("zeta-lb", _ZETA - F(1, 2) + _Y),
            Constraint("main", 2 * (1 - _BETA) * (1 - _GAMMA - _ZETA)
                       - (1 - _Y - 2 * _ZETA) * (_BETA - _X)),
        ], "zeta only needs [0, 1]; see the docstring")
    raise ValueError(f"unknown system {sid!r} (expected B1..B5 or B1w)")


ALL_SYSTEMS = ("B1", "B2", "B3", "B4", "B5")


@dataclass
class FeasiblePoint:
    sid: str
    point: dict
    values: dict


@dataclass
class Certificate:
    """Partition of the box into leaves, each discarded by one named
    pruning constraint (see _pruning_constraints) whose factored or mean
    value enclosure lies entirely below its cut.  It keeps the system
    and the pruning list it was certified with.  ``to_dict`` and
    ``to_json`` give it as plain data; ``verify`` checks that data with
    certcheck.check, which shares no code with the prover."""

    system: System = field(repr=False, compare=False)
    margin: Fraction
    leaves: list  # ((name, (lo, hi)), ...) sorted box items + constraint name
    nodes: int
    depth: int
    millis: float
    box_volume: Fraction
    pruning: list = field(repr=False, compare=False)  # _pruning_constraints

    @property
    def sid(self) -> str:
        return self.system.sid

    def to_dict(self) -> dict:
        """The certificate and its system as the plain data certcheck
        reads (the README lists the fields).  An unknown constraint name
        or a missing side becomes None, which check rejects."""
        system = self.system
        variables = list(system.variables)
        index = {c.name: k for k, (c, _, _) in enumerate(self.pruning)}
        L = math.lcm(*(e.denominator for pair in system.box.values() for e in pair), *(
            e.denominator for items, _ in self.leaves for _, pair in items for e in pair))
        leaves = []
        for items, name in self.leaves:
            sides = dict(items)
            pairs = [sides.pop(v, None) for v in variables] + list(sides.values())
            leaves.append((index.get(name), [
                None if p is None else tuple(e.numerator * (L // e.denominator) for e in p)
                for p in pairs]))
        return {
            "sid": self.sid,
            "variables": variables,
            "box": [[str(e) for e in system.box[v]] for v in variables],
            "margin": str(self.margin),
            "constraints": [{"name": c.name, "kind": c.kind,
                             "monomials": [[list(m), str(k)] for k, m in c._table.monos]}
                            for c in system.constraints],
            "pruning": [dict(src, cut=str(cut), terms=_plain_terms(c._table.terms))
                        for c, cut, src in self.pruning],
            "L": L,
            "leaves": leaves,
        }

    def to_json(self) -> str:
        """``to_dict`` as canonical JSON: sorted keys, no spaces."""
        return json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":")) + "\n"

    def verify(self) -> bool:
        return certcheck.check(self.to_dict())


def _plain_terms(terms: list) -> list:
    """A table's factored terms with every rational as a string."""
    return [[str(coef), [[str(k), [[v, str(a)] for v, a in lin]] for k, lin in factors]]
            for coef, factors in terms]


class DepthExhaustedError(Exception):
    def __init__(self, sid, box, depth):
        super().__init__(
            f"{sid}: box undecided at depth {depth}: "
            + ", ".join(f"{v} in [{lo}, {hi}]" for v, (lo, hi) in sorted(box.items())))
        self.sid = sid
        self.box = box
        self.depth = depth


_SHAVE_RES = 16  # dyadic resolution when shaving a face
_FUZZ = 1e-9  # float slack below which a probe is confirmed exactly
_GRID = 6 * 2**40  # global denominator shave cuts are snapped to

_COMBO_WEIGHTS = (F(1, 6), F(1, 4), F(1, 3), F(1, 2), F(1))


def _pruning_constraints(system: System, margin: Fraction) -> list:
    """The constraints a certificate may prune with, as (constraint,
    cut, source) triples: every system constraint i (cut = margin for
    strict ones, 0 otherwise; source {"c": i}) plus derived combinations
    c + w*s for each nonlinear constraint c and strict constraint s,
    with cut w*margin (source {"c": c, "s": s, "w": w}, c and s as
    indices into the system's constraints and w as a string).

    The combinations are sound consequences: a point of the tightened
    system satisfies c >= cut_c and s >= margin, hence c + w*s >=
    cut_c + w*margin.  They matter where infeasibility is only joint:
    near a corner where several constraints are simultaneously tight,
    the weighted sum cancels the offending linear terms and its
    enclosure goes negative on boxes far wider than the margin, which
    single constraints cannot do there."""
    cons = system.constraints
    out = [(c, margin if c.kind == "gt" else F(0), {"c": i}) for i, c in enumerate(cons)]
    for j, s in enumerate(cons):
        if s.kind != "gt":
            continue
        for i, c in enumerate(cons):
            if c is s or all(len(m) < 2 for _, m in c._table.monos):
                continue
            for w in _COMBO_WEIGHTS:
                out.append((Constraint(f"{c.name}+{w}*{s.name}", c.expr + w * s.expr, "ge"),
                            out[i][1] + w * margin, {"c": i, "s": j, "w": str(w)}))
    return out


def certify_infeasible(system, max_depth: int = 40,
                       margin: Fraction = Fraction(1, 10**6)):
    """Certificate that the system has no solution, or a FeasiblePoint.

    Branch and bound over the system's box.  Strict constraints
    are tightened by ``margin`` (see the module docstring); each leaf is
    a sub-box on which one named constraint's exact enclosure stays
    below its cut, so the certificate shows the tightened closed system
    empty.  Exact midpoints of surviving boxes are tested against the
    original strict system, so a returned FeasiblePoint genuinely solves
    it.

    Depth counts bisections per axis: a box at depth d has been halved
    at most d times in any single direction, so its sides are at least
    2^-d of the root box's (before face shaving, which does not count
    toward depth).  Once every positive-width axis of an undecided box
    has been halved ``max_depth`` times, DepthExhaustedError is raised.
    """
    if isinstance(system, str):
        system = lemma_system(system)
    start = time.monotonic()
    pruning = _pruning_constraints(system, margin)
    leaves: list = []
    state = {"nodes": 0, "depth": 0}

    screen = _FloatScreen([c for c, _, _ in pruning], system.variables)
    fcut_arr = np.array([float(cut) for _, cut, _ in pruning])
    order = system.variables
    dim = len(order)

    def exact_eliminator(box: dict, hint: Optional[int] = None) -> Optional[str]:
        """Name of a pruning constraint whose exact enclosure is below
        its cut on the whole box, or None.  ``hint`` is tried first."""
        ibox = _int_box(box)
        pairs = list(pruning)
        if hint is not None:
            pairs.insert(0, pairs.pop(hint))
        for c, cut, _ in pairs:
            if c._below(ibox, cut, True):
                return c.name
        return None

    def _as_arrays(box: dict):
        lo = np.array([float(box[v][0]) for v in order])
        hi = np.array([float(box[v][1]) for v in order])
        return lo, hi

    def eliminator(box: dict) -> Optional[str]:
        """Like exact_eliminator but float-screened first."""
        flo, fhi = _as_arrays(box)
        sups = screen(flo[None, :], fhi[None, :])[0]
        screened = np.flatnonzero(sups < fcut_arr + _FUZZ)
        if screened.size == 0:
            return None
        return exact_eliminator(box, hint=int(screened[0]))

    nums = np.arange(2, _SHAVE_RES)  # shave never cuts a num = 1 sliver

    def _dead_prefixes(flo, fhi) -> list:
        """(axis, side, num, hint) for each face with a float-dead slab:
        the largest dead numerator and the index of the constraint that
        screened it, in (axis, side) order.  A slab removes
        num/_SHAVE_RES of the width from the low (side 0) or high
        (side 1) end of an axis; all of them are screened in one batch."""
        axes = np.flatnonzero(fhi > flo)
        A, K = len(axes), len(nums)
        step = (fhi - flo)[axes, None] * (nums / _SHAVE_RES)
        los, his = np.tile(flo, (A, 2, K, 1)), np.tile(fhi, (A, 2, K, 1))
        rows, cols = np.arange(A)[:, None], np.arange(K)[None, :]
        his[rows, 0, cols, axes[:, None]] = flo[axes, None] + step
        los[rows, 1, cols, axes[:, None]] = fhi[axes, None] - step
        dead = screen(los.reshape(-1, dim), his.reshape(-1, dim)) < fcut_arr + _FUZZ
        first = dead.argmax(axis=1).reshape(2 * A, K)
        hit = dead.any(axis=1).reshape(2 * A, K)
        last = K - 1 - hit[:, ::-1].argmax(axis=1)
        return [(int(axes[f // 2]), f % 2, int(nums[last[f]]), int(first[f, last[f]]))
                for f in np.flatnonzero(hit.any(axis=1))]

    def shave(box: dict) -> bool:
        """Peel provably infeasible slabs off the faces of ``box`` in
        place, recording each slab as a leaf.  Candidate slabs at all
        dyadic prefixes of every face are float-screened in one batch
        per round; the largest surviving candidate of each face is
        confirmed exactly before anything is committed.  A slab located
        against a sibling face that shrank earlier in the same round is
        still sound: it was screened on a superset of the current box.
        Returns whether anything was removed."""
        changed = False
        for _ in range(16):
            flo, fhi = _as_arrays(box)
            round_changed = False
            for i, side, num, hint in _dead_prefixes(flo, fhi):
                v = order[i]
                lo, hi = box[v]
                w = hi - lo
                piece = name = None
                while num >= 2:  # slivers under 1/8 of the face: split instead
                    # snap the cut to the global grid so endpoint
                    # denominators stay bounded across rounds
                    if side == 0:
                        cut = F((lo + w * F(num, _SHAVE_RES)) * _GRID // 1, _GRID)
                        cand = (lo, cut) if cut > lo else None
                    else:
                        raw = hi - w * F(num, _SHAVE_RES)
                        cut = F(-((-raw) * _GRID // 1), _GRID)
                        cand = (cut, hi) if cut < hi else None
                    if cand is not None:
                        leaf = dict(box)
                        leaf[v] = cand
                        name = exact_eliminator(leaf, hint)
                        if name is not None:
                            piece = cand
                            break
                    num //= 2  # float screen was optimistic; retry smaller
                if piece is None:
                    continue
                leaf = dict(box)
                leaf[v] = piece
                leaves.append((tuple(sorted(leaf.items())), name))
                box[v] = (piece[1], hi) if side == 0 else (lo, piece[0])
                round_changed = True
                changed = True
            if not round_changed:
                break
        return changed

    def witness(box: dict) -> Optional[FeasiblePoint]:
        """Exact test of the box midpoint and corners against the
        original strict system, in ints at the _int_box scale.  Corners
        matter: when the feasible set is a thin wedge against a face,
        centers stay on the wrong side of a curved boundary at every
        depth."""
        S, lo, hi, mid, _ = _int_box(box)
        corners = [{}]
        for v in order:
            ends = (lo[v],) if lo[v] == hi[v] else (lo[v], hi[v])
            corners = [dict(c, **{v: e}) for c in corners for e in ends]
        for p in [mid] + corners:
            if _int_holds(system.constraints, S, p):
                point = {v: F(p[v], S) for v in order}
                return FeasiblePoint(system.sid, point,
                                     {c.name: c.value(point) for c in system.constraints})
        return None

    def split_var(box: dict, allowed: list) -> str:
        widths = {v: hi - lo for v, (lo, hi) in box.items()}
        return max(allowed, key=lambda u: widths[u])

    undecided: list = []

    def rec(box: dict, splits: dict):
        state["nodes"] += 1
        state["depth"] = max(state["depth"], *splits.values())
        box = dict(box)
        while True:
            name = eliminator(box)
            if name is not None:
                leaves.append((tuple(sorted(box.items())), name))
                return None
            hit = witness(box)
            if hit is not None:
                return hit
            if not shave(box):
                break
        allowed = [v for v in system.variables
                   if splits[v] < max_depth and box[v][1] > box[v][0]]
        if not allowed:
            # keep searching: a sibling may still hold a witness, and
            # only a witness-free run has to give up
            undecided.append(box)
            if len(undecided) >= 64:
                raise DepthExhaustedError(system.sid, undecided[0], max_depth)
            return None
        v = split_var(box, allowed)
        lo, hi = box[v]
        m = (lo + hi) / 2
        child_splits = dict(splits)
        child_splits[v] += 1
        for piece in ((lo, m), (m, hi)):
            child = dict(box)
            child[v] = piece
            res = rec(child, child_splits)
            if res is not None:
                return res
        return None

    try:
        found = rec(dict(system.box), {v: 0 for v in system.variables})
    finally:
        # rec's closure holds rec itself: emptying that cell frees the
        # search state now, not at some later cyclic collection
        del rec
    millis = (time.monotonic() - start) * 1000.0
    if found is not None:
        return found
    if undecided:
        raise DepthExhaustedError(system.sid, undecided[0], max_depth)
    # the volume check and the sort, exact in ints: every endpoint times
    # L is a digit in base W.  Two endpoints of one axis differ by less
    # than W, so one int per leaf, in its items' order, sorts the leaves
    # as their box items do, negative endpoints included
    root = sorted(system.box.items())
    L = math.lcm(*{e.denominator for _, pair in root for e in pair},
                 *{e.denominator for items, _ in leaves for _, pair in items for e in pair})
    W = 1 + max(int((hi - lo) * L) for _, (lo, hi) in root)
    volume = F(1)
    for _, (lo, hi) in root:
        volume *= hi - lo
    covered, keys = 0, []
    for items, name in leaves:
        key, piece = 0, 1
        for _, (lo, hi) in items:
            a = lo.numerator * (L // lo.denominator)
            b = hi.numerator * (L // hi.denominator)
            key = (key * W + a) * W + b
            piece *= b - a
        covered += piece
        keys.append((key, name))
    if covered != volume * L ** len(root):
        raise AssertionError(
            f"{system.sid}: leaves cover {F(covered, L ** len(root))} of {volume}; "
            "the recursion should partition the box exactly")
    leaves = [leaves[i] for i in sorted(range(len(leaves)), key=keys.__getitem__)]
    return Certificate(system, margin, leaves, state["nodes"],
                       state["depth"], millis, volume, pruning)


@dataclass
class GridScanResult:
    sid: str
    resolution: int
    min_violation: Fraction
    argmin: dict
    nodes: int
    millis: float


def grid_scan(system, resolution: int) -> GridScanResult:
    """Exact minimum of the constraint violation over the full lattice
    with ``resolution`` steps per axis (so (resolution+1)^dim points).

    Equivalent to evaluating every lattice point, but grid-aligned
    blocks are pruned with the interval bound: once a constraint's
    enclosure sits far enough below zero on a block, no point inside
    can violate by less than the current best.  Float bounds pick
    which blocks are worth an exact pruning test and which child to
    descend first; a block is only ever discarded after an exact
    enclosure confirms it.  Exact hits of strict bounds count as the
    tiny positive SMALL, so a positive result still certifies that no
    lattice point is feasible.
    """
    if isinstance(system, str):
        system = lemma_system(system)
    if resolution < 1:
        raise ValueError("resolution must be at least 1")
    start = time.monotonic()
    coords = {}
    fcoords = {}
    for v, (lo, hi) in system.box.items():
        step = (hi - lo) / resolution
        coords[v] = [lo + step * i for i in range(resolution + 1)]
        fcoords[v] = np.array([float(c) for c in coords[v]])
    best = {"viol": None, "arg": None, "nodes": 0, "hint": 0}
    screen = _FloatScreen(system.constraints, system.variables)

    def fbounds(blocks: list) -> np.ndarray:
        # Upper estimate of how far below zero any constraint can be
        # pushed on each block; the 1e-9 fuzz keeps blocks whose sup
        # is a hair above zero in play, since their exact sup may be
        # exactly zero and still prune a strict constraint.
        los = np.array([[fcoords[v][idx[v][0]] for v in system.variables]
                        for idx in blocks])
        his = np.array([[fcoords[v][idx[v][1]] for v in system.variables]
                        for idx in blocks])
        sups = screen(los, his)
        return np.clip(1e-9 - sups, 0.0, None).max(axis=1)

    def exact_prunes(idx: dict, target: Fraction) -> bool:
        ibox = _int_box({v: (coords[v][a], coords[v][b]) for v, (a, b) in idx.items()})
        order = list(range(len(system.constraints)))
        order.insert(0, order.pop(best["hint"]))
        for j in order:
            c = system.constraints[j]
            cut = -target
            if c.kind == "gt" and target <= SMALL:
                cut = F(0)
            if c._below(ibox, cut, False):
                best["hint"] = j
                return True
        return False

    def rec(idx: dict, fb) -> None:
        best["nodes"] += 1
        if best["viol"] is not None and best["viol"] == 0:
            return
        widths = {v: b - a for v, (a, b) in idx.items()}
        v = max(system.variables, key=lambda u: widths[u])
        if widths[v] == 0:
            point = {u: coords[u][a] for u, (a, b) in idx.items()}
            viol = system.violation_at(point)
            if best["viol"] is None or viol < best["viol"]:
                best["viol"] = viol
                best["arg"] = point
            return
        if best["viol"] is not None:
            if fb is None:
                fb = fbounds([idx])[0]
            if fb >= float(best["viol"]) * (1 - 1e-9) - 1e-15:
                if exact_prunes(idx, best["viol"]):
                    return
        a, b = idx[v]
        m = (a + b) // 2
        children = []
        for piece in ((a, m), (m + 1, b)):
            child = dict(idx)
            child[v] = piece
            children.append(child)
        if best["viol"] is not None:
            fbs = fbounds(children)
            pairs = sorted(zip(fbs, children), key=lambda t: t[0])
            for fbc, child in pairs:
                rec(child, fbc)
        else:
            for child in children:
                rec(child, None)

    try:
        rec({v: (0, resolution) for v in system.variables}, None)
    finally:
        del rec  # as in certify_infeasible: break the self-reference
    millis = (time.monotonic() - start) * 1000.0
    return GridScanResult(system.sid, resolution, best["viol"], best["arg"],
                          best["nodes"], millis)
