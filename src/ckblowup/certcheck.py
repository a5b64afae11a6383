"""Independent checker for the inequality systems' certificates.

A certificate claims that its box holds no point of a polynomial system
tightened by a margin (expression >= 0 for kind "ge", >= margin for the
strict "gt").  ``check`` decides that from the plain data of
``Certificate.to_dict`` or ``to_json`` (the README lists the fields) and
imports nothing from the rest of the package.  It checks that:

1. each pruning constraint's factored terms expand to system constraint
   c, or to c + w*s with s strict and w > 0, and its cut is cut_c +
   w*margin (cut_c = margin for a strict c, else 0);
2. on each leaf, the factored form's upper end or else the mean value
   form's is below the cut, in ints over 2L for the ends' denominator L;
3. the leaves partition the box: each lies in it with positive widths,
   the volumes add up and no two interiors meet.
"""

from __future__ import annotations

import math
from collections import Counter, defaultdict
from fractions import Fraction

import numpy as np


def _q(text) -> Fraction:
    if type(text) is not str:
        raise TypeError(f"a rational must be a string, got {text!r}")
    return Fraction(text)


def _int(v, size: int | None = None) -> int:
    if type(v) is not int or (size is not None and not 0 <= v < size):
        raise ValueError(f"expected an int below {size}, got {v!r}")
    return v


def _terms(raw, col: dict) -> list:
    """Plain terms as [(coef, ((const, ((axis, a), ...)), ...)), ...]."""
    return [(_q(c), tuple((_q(k), tuple((col[v], _q(a)) for v, a in lin)) for k, lin in fs))
            for c, fs in raw]


def _poly(pairs) -> dict:
    """{sorted axis tuple: coef} from (monomial, coef) pairs, without zeros."""
    out: dict = {}
    for m, k in pairs:
        out[m] = out.get(m, 0) + k
    return {m: k for m, k in out.items() if k}


def _expand(terms: list) -> dict:
    """The monomials of a sum of products of affine factors."""
    out = []
    for coef, factors in terms:
        part = [((), coef)]
        for const, lin in factors:
            part = [(m, k * const) for m, k in part] + [
                (tuple(sorted(m + (ax,))), k * a) for m, k in part for ax, a in lin]
        out += part
    return _poly(out)


def _compile(terms: list, S: int) -> tuple:
    """(M, bound): the factored and the expanded form and each partial
    derivative (affine at degree 2) in ints, for M the lcm of their
    denominators; at X = S*x every quantity is M*S^2 times its value."""
    poly = _expand(terms)
    if any(len(fs) > 2 for _, fs in terms) or any(len(m) > 2 for m in poly):
        raise ValueError("the forms need at most two factors and degree 2")
    scaled = []
    for coef, factors in terms:  # clear each factor, fold the rest into coef
        fs = []
        for const, lin in factors:
            d = math.lcm(const.denominator, *(a.denominator for _, a in lin))
            fs.append((int(const * d) * S, tuple((ax, int(a * d)) for ax, a in lin)))
            coef /= d
        scaled.append((coef, fs))
    M = math.lcm(*(c.denominator for c, _ in scaled), *(k.denominator for k in poly.values()))
    grad: dict = defaultdict(Counter)  # d/dv: k*v -> k, k*v*u -> k*u, k*v*v -> 2k*v
    for m, k in poly.items():
        for i, ax in enumerate(m):
            grad[ax][m[:i] + m[i + 1:]] += int(k * M)
    return M, ([(int(c * M) * S ** (2 - len(fs)), fs) for c, fs in scaled],
               [(int(k * M) * S ** (2 - len(m)), m) for m, k in poly.items()],
               [(ax, lin.get((), 0) * S, tuple((r[0], b) for r, b in lin.items() if r))
                for ax, lin in grad.items()])


def _affine(const: int, lin: tuple, lo: list, hi: list) -> tuple:
    return (const + sum(a * (lo if a > 0 else hi)[ax] for ax, a in lin),
            const + sum(a * (hi if a > 0 else lo)[ax] for ax, a in lin))


def _upper_ends(bound: tuple, ends: list):
    """Yield the factored, then the mean value upper end over a box of
    (lo, hi) ints at the bound's scale S."""
    lo, hi = [a for a, _ in ends], [b for _, b in ends]
    total = 0
    for coef, factors in bound[0]:
        tlo = thi = coef
        for const, lin in factors:
            flo, fhi = _affine(const, lin, lo, hi)
            p = (tlo * flo, tlo * fhi, thi * flo, thi * fhi)
            tlo, thi = min(p), max(p)
        total += thi
    yield total
    total = 0
    for coef, m in bound[1]:
        for ax in m:
            coef *= (lo[ax] + hi[ax]) // 2  # exact: both ends are even
        total += coef
    for ax, const, lin in bound[2]:
        dlo, dhi = _affine(const, lin, lo, hi)
        total += max(-dlo, dhi) * ((hi[ax] - lo[ax]) // 2)  # max(|dlo|, |dhi|)
    yield total


def sup(terms: list, variables: list, box: list) -> Fraction:
    """Exact min(factored upper end, mean value upper end) of plain
    terms over a box of (lo, hi) rationals, one per variable: the bound
    that ``check`` compares with a leaf's cut."""
    S = 2 * math.lcm(*(e.denominator for pair in box for e in pair))
    M, bound = _compile(_terms(terms, {v: i for i, v in enumerate(variables)}), S)
    return Fraction(min(_upper_ends(bound, [(int(a * S), int(b * S)) for a, b in box])),
                    M * S * S)


def check(cert: dict) -> bool:
    """Whether the certificate shows its tightened system empty on its
    box (see the module docstring).  Malformed data gives False."""
    try:
        return _check(cert)
    except (AttributeError, IndexError, KeyError, TypeError, ValueError, ZeroDivisionError):
        return False


def _check(cert: dict) -> bool:
    names = cert["variables"]
    col = {v: i for i, v in enumerate(names) if type(v) is str}
    L = _int(cert["L"])
    root = [(_q(a) * L, _q(b) * L) for a, b in cert["box"]]
    if (len(col) != len(names) or len(root) != len(names) or L < 1
            or not all(a < b and a.denominator == b.denominator == 1 for a, b in root)):
        return False
    margin = _q(cert["margin"])
    cons = [(c["kind"], _poly((tuple(sorted(col[v] for v in vs)), _q(k))
                              for vs, k in c["monomials"])) for c in cert["constraints"]]
    if not all(kind in ("ge", "gt") for kind, _ in cons):
        return False
    forms = []
    for p in cert["pruning"]:
        kind, poly = cons[_int(p["c"], len(cons))]
        cut = margin if kind == "gt" else Fraction(0)
        if "s" in p:  # c + w*s >= cut_c + w*margin wherever s >= margin
            skind, spoly = cons[_int(p["s"], len(cons))]
            w = _q(p["w"])
            if skind != "gt" or w <= 0:
                return False
            poly = _poly([*poly.items(), *((m, w * k) for m, k in spoly.items())])
            cut += w * margin
        terms = _terms(p["terms"], col)
        if _q(p["cut"]) != cut or _expand(terms) != poly:
            return False
        M, bound = _compile(terms, 2 * L)
        forms.append((bound, cut.denominator, cut.numerator * M * 4 * L * L))
    leaves = cert["leaves"]
    for k, sides in leaves:  # checked in place: a copy would double the memory
        _int(k, len(forms)), [(_int(a), _int(b)) for a, b in sides]
    if not _partition([s for _, s in leaves], [(int(a), int(b)) for a, b in root]):
        return False
    for k, sides in leaves:
        bound, den, lim = forms[k]
        if not any(h * den < lim for h in _upper_ends(bound, [(2 * a, 2 * b) for a, b in sides])):
            return False
    return True


def _partition(leaves: list, root: list) -> bool:
    """Whether int boxes partition the root box, comparing endpoint ranks."""
    inside = (len(s) == len(root) and all(ra <= a < b <= rb for (a, b), (ra, rb) in zip(s, root))
              for s in leaves)
    if not all(inside) or (sum(math.prod(b - a for a, b in s) for s in leaves)
                           != math.prod(b - a for a, b in root)):
        return False
    n = len(leaves)
    lo, hi = np.empty((2, len(root), n), dtype=np.int64)
    for d in range(len(root)):
        rank = {e: r for r, e in enumerate(sorted({e for s in leaves for e in s[d]}))}
        lo[d] = [rank[s[d][0]] for s in leaves]
        hi[d] = [rank[s[d][1]] for s in leaves]
    rows = max(1, 2**15 // n)  # 32 KiB of bools per block
    for s in range(0, n, rows):
        meet = np.ones((min(rows, n - s), n), dtype=bool)
        for a, b in zip(lo, hi):
            meet &= (a[s:s + rows, None] < b) & (a < b[s:s + rows, None])
        if meet.sum() != len(meet):  # each box meets only its own interior
            return False
    return True
