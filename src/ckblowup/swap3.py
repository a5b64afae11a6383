"""Move machine producing near-spanning transversal triangle tilings of
3-part blow-ups whose bipartite minimum degrees are each at least n/2
and sum to at least 2n.

The machine starts from a deterministic greedy packing and applies local
moves.  Two moves grow the tiling by one: inserting an uncovered
triangle, and exchanging one tiled triangle for two new ones built from
a pair of disjoint uncovered edges lying in different part-pairs.  When
neither applies, same-size exchange moves (a rotation and two endgame
swaps) strictly increase a bounded potential until an improvement move
fires again.  Under the degree hypotheses every scan below is backed by
a counting argument, so an empty scan is a genuine counterexample to
the guarantee being exercised and raises CounterexampleError carrying
the graph, the current tiling, and the move trace; the machine never
stops below n - 1 triangles.

Parts are relabeled A, B, C so that the pair minimum degrees satisfy
d(A,B) >= d(A,C) >= d(B,C); moves are written in label space and
results are mapped back to the original parts at the end.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Optional, Sequence, Tuple

import numpy as np

from .core import BlowupGraph, PreconditionError, degree_profile
from .exact import _greedy_packing

LABELS = ("A", "B", "C")
PAIRS = ("AB", "AC", "BC")


class CounterexampleError(Exception):
    """A scan that the degree hypotheses guarantee to succeed came up
    empty, or the move budget ran out.  Carries the evidence."""

    def __init__(self, message, graph=None, cycles=None, trace=None):
        super().__init__(message)
        self.graph = graph
        self.cycles = cycles
        self.trace = trace


def _pair_parts(i: int) -> set:
    return {i, i % 3 + 1}


@dataclass(frozen=True)
class Labeling:
    """Assignment of labels A, B, C to the three parts such that the
    pair minimum degrees satisfy d(A,B) >= d(A,C) >= d(B,C)."""

    part_of: dict


def relabel_abc(G: BlowupGraph) -> Labeling:
    """Ties are broken towards the lower part-pair index, so the result
    is deterministic."""
    if G.k != 3:
        raise PreconditionError("relabeling is defined for k = 3 only")
    deltas = degree_profile(G).deltas
    g, b, a = sorted(range(1, 4), key=lambda i: (-deltas[i - 1], i))
    A = (_pair_parts(g) & _pair_parts(b)).pop()
    B = (_pair_parts(g) & _pair_parts(a)).pop()
    C = (_pair_parts(b) & _pair_parts(a)).pop()
    return Labeling({"A": A, "B": B, "C": C})


def _third(pair: str) -> str:
    return next(l for l in LABELS if l not in pair)


class LabeledTiling:
    """A transversal triangle tiling viewed in A/B/C label space, with
    the move primitives used by the machine and by tiling audits."""

    def __init__(self, G: BlowupGraph, labeling: Optional[Labeling] = None,
                 cycles: Optional[Sequence] = None):
        self.G = G
        self.lab = labeling if labeling is not None else relabel_abc(G)
        self.M = {}
        for pair in PAIRS:
            p, q = self.lab.part_of[pair[0]], self.lab.part_of[pair[1]]
            self.M[pair] = G.adjacency_rows(p, q, slice(None))
        self.unc = {lab: np.ones(G.n, dtype=bool) for lab in LABELS}
        self.tri: list = []
        for c in cycles or ():
            self.add_triangle(tuple(int(c[self.lab.part_of[lab] - 1]) for lab in LABELS))

    # -- bookkeeping ---------------------------------------------------

    @property
    def size(self) -> int:
        return len(self.tri)

    def add_triangle(self, t: Tuple[int, int, int]) -> None:
        a, b, c = t
        if not (self.M["AB"][a, b] and self.M["AC"][a, c] and self.M["BC"][b, c]):
            raise PreconditionError(f"not a triangle in label space: {t}")
        for lab, idx in zip(LABELS, t):
            if not self.unc[lab][idx]:
                raise PreconditionError(f"vertex {lab}{idx} is already covered")
            self.unc[lab][idx] = False
        self.tri.append((a, b, c))

    def remove_triangle(self, i: int) -> Tuple[int, int, int]:
        t = self.tri.pop(i)
        for lab, idx in zip(LABELS, t):
            self.unc[lab][idx] = True
        return t

    def to_cycles(self) -> list:
        out = []
        for t in self.tri:
            cyc = [0, 0, 0]
            for lab, idx in zip(LABELS, t):
                cyc[self.lab.part_of[lab] - 1] = idx
            out.append(tuple(cyc))
        return sorted(out)

    def greedy_fill(self) -> int:
        """Extend by the deterministic maximal packing of the uncovered
        induced subgraph (in original part space)."""
        in_part_order = sorted(LABELS, key=self.lab.part_of.get)
        bits = [int.from_bytes(np.packbits(self.unc[lab], bitorder="little").tobytes(), "little")
                for lab in in_part_order]
        added = 0
        for cyc in _greedy_packing(self.G, bits):
            self.add_triangle(tuple(cyc[self.lab.part_of[lab] - 1] for lab in LABELS))
            added += 1
        return added

    def _adj(self, X: str, x: int, Y: str, y: int) -> bool:
        if X > Y:
            X, Y, x, y = Y, X, y, x
        return bool(self.M[X + Y][x, y])

    def _row(self, X: str, x: int, Y: str):
        """Adjacency of vertex x of label X towards label Y, as a mask."""
        if X < Y:
            return self.M[X + Y][x]
        return self.M[Y + X][:, x]

    def _tri_col(self, lab: str) -> np.ndarray:
        j = LABELS.index(lab)
        return np.array([t[j] for t in self.tri], dtype=int)

    def uncovered_edges(self, pair: str) -> Iterator[Tuple[int, int]]:
        X, Y = pair[0], pair[1]
        uy = np.flatnonzero(self.unc[Y])
        if uy.size == 0:
            return
        for x in np.flatnonzero(self.unc[X]):
            row = self._row(X, int(x), Y)
            for y in uy[row[uy]]:
                yield (int(x), int(y))

    def has_uncovered_edge(self, pair: str) -> bool:
        for _ in self.uncovered_edges(pair):
            return True
        return False

    # -- improvement moves ---------------------------------------------

    def m1_candidate(self):
        """An uncovered edge together with an uncovered common neighbor,
        or None.  Applying it inserts a new triangle."""
        for pair in PAIRS:
            Z = _third(pair)
            if not self.unc[Z].any():
                continue
            for x, y in self.uncovered_edges(pair):
                zmask = self.unc[Z] & self._row(pair[0], x, Z) & self._row(pair[1], y, Z)
                zs = np.flatnonzero(zmask)
                if zs.size:
                    return (pair, x, y, int(zs[0]))
        return None

    def _witness_mask(self, pair: str, x: int, y: int) -> np.ndarray:
        """For each tiled triangle, whether its vertex in the third
        label is a common neighbor of the uncovered edge (x, y)."""
        Z = _third(pair)
        tz = self._tri_col(Z)
        return self._row(pair[0], x, Z)[tz] & self._row(pair[1], y, Z)[tz]

    def m2_candidate(self):
        """Two disjoint uncovered edges in different pairs whose common
        neighborhoods both meet the same tiled triangle, or None.
        Applying it trades that triangle for two new ones (net +1)."""
        if not self.tri:
            return None
        for P, Q in (("AB", "AC"), ("AB", "BC"), ("AC", "BC")):
            shared = next(l for l in P if l in Q)
            fs = [(f, self._witness_mask(Q, *f)) for f in self.uncovered_edges(Q)]
            fs = [(f, m) for f, m in fs if m.any()]
            if not fs:
                continue
            for e in self.uncovered_edges(P):
                me = self._witness_mask(P, *e)
                if not me.any():
                    continue
                se = e[P.index(shared)]
                for f, mf in fs:
                    if f[Q.index(shared)] == se:
                        continue
                    both = np.flatnonzero(me & mf)
                    if both.size:
                        return (P, e, Q, f, int(both[0]))
        return None

    def apply_improvement(self, trace: list) -> bool:
        cand = self.m1_candidate()
        if cand is not None:
            pair, x, y, z = cand
            t = dict(zip(pair, (x, y)))
            t[_third(pair)] = z
            self.add_triangle((t["A"], t["B"], t["C"]))
            trace.append(("m1", pair, x, y, z))
            return True
        cand = self.m2_candidate()
        if cand is not None:
            P, e, Q, f, ti = cand
            old = self.remove_triangle(ti)
            oldmap = dict(zip(LABELS, old))
            for pair, edge in ((P, e), (Q, f)):
                t = dict(zip(pair, edge))
                t[_third(pair)] = oldmap[_third(pair)]
                self.add_triangle((t["A"], t["B"], t["C"]))
            trace.append(("m2", P, e, Q, f, old))
            return True
        return False

    # -- structure of the uncovered edges --------------------------------

    def find_h3(self):
        """Three pairwise disjoint uncovered edges, one in each pair, or
        None.  When improvements are exhausted this must be None."""
        u_b = np.flatnonzero(self.unc["B"])
        u_c = np.flatnonzero(self.unc["C"])
        if u_b.size == 0 or u_c.size == 0:
            return None
        sub = self.M["BC"][np.ix_(u_b, u_c)]
        total = int(sub.sum())
        if total == 0:
            return None
        row = sub.sum(axis=1)
        col = sub.sum(axis=0)
        posb = {int(v): i for i, v in enumerate(u_b)}
        posc = {int(v): i for i, v in enumerate(u_c)}
        for a1, b1 in self.uncovered_edges("AB"):
            for a2, c2 in self.uncovered_edges("AC"):
                if a2 == a1:
                    continue
                rem = total - int(row[posb[b1]]) - int(col[posc[c2]])
                if sub[posb[b1], posc[c2]]:
                    rem += 1
                if rem <= 0:
                    continue
                for b3, c3 in self.uncovered_edges("BC"):
                    if b3 != b1 and c3 != c2:
                        return ((a1, b1), (a2, c2), (b3, c3))
        return None

    def compute_F(self):
        """Largest set of pairwise disjoint uncovered edges from
        distinct pairs, preferring sets containing a B-C edge, then
        larger sets, breaking ties towards the first found in scan
        order.  Returned as a dict pair -> edge; None if the uncovered
        vertices span no edge at all."""
        if self.has_uncovered_edge("BC"):
            for e in self.uncovered_edges("BC"):
                for P, pos in (("AB", 1), ("AC", 1)):
                    for f in self.uncovered_edges(P):
                        if f[pos] != e[0 if P == "AB" else 1]:
                            return {P: f, "BC": e}
            return {"BC": next(iter(self.uncovered_edges("BC")))}
        for e in self.uncovered_edges("AB"):
            for f in self.uncovered_edges("AC"):
                if f[0] != e[0]:
                    return {"AB": e, "AC": f}
        for P in ("AB", "AC"):
            for e in self.uncovered_edges(P):
                return {P: e}
        return None

    def phi(self) -> tuple:
        """Potential (B-C edge available, largest dissimilar matching
        size).  Every same-size move strictly increases it."""
        bc = 1 if self.has_uncovered_edge("BC") else 0
        if self.find_h3() is not None:
            return (bc, 3)
        F = self.compute_F()
        return (bc, 0 if F is None else len(F))

    # -- same-size exchange moves ----------------------------------------

    def rotate(self, F: dict, trace: list) -> None:
        """Covers a fresh A-vertex by bumping one triangle, uncovering a
        vertex adjacent to a fresh vertex of a pair X untouched by F, so
        the matching F extends by an A-X edge."""
        X = "B" if "AB" not in F else "C"
        if "A" + X in F:
            raise PreconditionError("rotation requires a pair A-X free of F")
        Y = "C" if X == "B" else "B"
        w = {lab: set() for lab in LABELS}
        for pair, edge in F.items():
            for lab, idx in zip(pair, edge):
                w[lab].add(idx)
        a = next((int(i) for i in np.flatnonzero(self.unc["A"]) if int(i) not in w["A"]), None)
        x = next((int(i) for i in np.flatnonzero(self.unc[X]) if int(i) not in w[X]), None)
        if a is None or x is None:
            raise CounterexampleError("rotation pool is empty", self.G,
                                      self.to_cycles(), list(trace))
        if self._adj("A", a, X, x):
            raise CounterexampleError(
                "uncovered edge extends the matching; selection was not maximal",
                self.G, self.to_cycles(), list(trace))
        ta = self._tri_col("A")
        tx = self._tri_col(X)
        ty = self._tri_col(Y)
        ok = (self._row(X, x, "A")[ta]
              & self._row("A", a, X)[tx]
              & self._row("A", a, Y)[ty])
        hits = np.flatnonzero(ok)
        if hits.size == 0:
            raise CounterexampleError(
                "no triangle admits the rotation guaranteed by the degree bounds",
                self.G, self.to_cycles(), list(trace))
        ti = int(hits[0])
        old = self.remove_triangle(ti)
        oldmap = dict(zip(LABELS, old))
        new = {"A": a, X: oldmap[X], Y: oldmap[Y]}
        self.add_triangle((new["A"], new["B"], new["C"]))
        trace.append(("rotate", X, a, x, old))

    def endgame(self, F: dict, trace: list) -> None:
        """Handles the terminal matching shape: one A-B and one A-C edge
        with no uncovered B-C edge anywhere.  Either grows the tiling or
        rearranges two triangles so an uncovered B-C edge appears."""
        a, b = F["AB"]
        a2, c = F["AC"]
        b2 = next((int(i) for i in np.flatnonzero(self.unc["B"]) if int(i) != b), None)
        c2 = next((int(i) for i in np.flatnonzero(self.unc["C"]) if int(i) != c), None)
        if b2 is None or c2 is None:
            raise CounterexampleError("endgame pool is empty", self.G,
                                      self.to_cycles(), list(trace))
        tb = self._tri_col("B")
        tc = self._tri_col("C")
        cross = self._row("B", b2, "C")[tc] & self._row("C", c2, "B")[tb]
        hits = np.flatnonzero(cross)
        if hits.size == 0:
            raise CounterexampleError(
                "no triangle has the two cross-adjacencies guaranteed by d(B,C) >= n/2",
                self.G, self.to_cycles(), list(trace))
        ti = int(hits[0])
        aT, bT, cT = self.tri[ti]
        # first option: an uncovered A-vertex completes (bT, c2)
        umask = self.unc["A"] & self.M["AB"][:, bT] & self.M["AC"][:, c2]
        us = np.flatnonzero(umask)
        if us.size:
            u = int(us[0])
            self.remove_triangle(ti)
            self.add_triangle((u, bT, c2))
            trace.append(("endgame-fresh", u, (aT, bT, cT), b2, c2))
            return
        # otherwise a tiled A-vertex does, combined with re-closing one
        # of the matching edges a-b or a2-c through the donor triangle
        ta = self._tri_col("A")
        s_e = self.M["AB"][ta, bT] & self.M["AC"][ta, c2]
        s_ab = self.M["AC"][a, tc] & self.M["BC"][b, tc]
        s_ac = self.M["AB"][a2, tb] & self.M["BC"][tb, c]
        for tj in np.flatnonzero(s_e):
            tj = int(tj)
            aJ, bJ, cJ = self.tri[tj]
            if s_ab[tj]:
                if tj == ti:
                    self.remove_triangle(ti)
                    self.add_triangle((aT, bT, c2))
                    self.add_triangle((a, b, cT))
                    trace.append(("endgame-grow", (aT, bT, cT), (a, b), c2))
                else:
                    for i in sorted((ti, tj), reverse=True):
                        self.remove_triangle(i)
                    self.add_triangle((aJ, bT, c2))
                    self.add_triangle((a, b, cJ))
                    trace.append(("endgame-swap-ab", (aT, bT, cT), (aJ, bJ, cJ), (a, b), c2))
                return
            if s_ac[tj]:
                if tj == ti:
                    self.remove_triangle(ti)
                    self.add_triangle((aT, bT, c2))
                    trace.append(("endgame-shift", (aT, bT, cT), c2))
                else:
                    for i in sorted((ti, tj), reverse=True):
                        self.remove_triangle(i)
                    self.add_triangle((aJ, bT, c2))
                    self.add_triangle((a2, bJ, c))
                    trace.append(("endgame-swap-ac", (aT, bT, cT), (aJ, bJ, cJ), (a2, c), c2))
                return
        raise CounterexampleError(
            "no donor triangle satisfies the endgame counting guarantee",
            self.G, self.to_cycles(), list(trace))


@dataclass
class NearFactorResult:
    cycles: list
    moves: int
    trace: list
    labeling: Labeling

    @property
    def size(self) -> int:
        return len(self.cycles)


def near_factor3(G: BlowupGraph, cap: int = 10_000) -> NearFactorResult:
    """Tiling of size at least n - 1 for a 3-part blow-up with all pair
    minimum degrees at least n/2 summing to at least 2n.

    Runs the move machine from a greedy packing; after reaching n - 1 it
    keeps applying improvement moves while they exist, so a full factor
    is returned whenever the local moves can finish the job.  Raises
    PreconditionError if the degree hypotheses fail and
    CounterexampleError if a guaranteed move is missing or the move
    budget ``cap`` is exhausted.
    """
    if G.k != 3:
        raise PreconditionError("the move machine handles k = 3 only")
    deltas = degree_profile(G).deltas
    n = G.n
    if any(2 * d < n for d in deltas):
        raise PreconditionError(f"pair minimum degrees {deltas} must each be >= n/2")
    if sum(deltas) < 2 * n:
        raise PreconditionError(f"pair minimum degrees {deltas} must sum to >= 2n = {2 * n}")

    st = LabeledTiling(G)
    st.greedy_fill()
    trace: list = []
    moves = 0
    last_phi = None
    while st.size < n - 1:
        if moves >= cap:
            raise CounterexampleError(f"move budget {cap} exhausted at size {st.size}",
                                      G, st.to_cycles(), trace)
        if st.apply_improvement(trace):
            moves += 1
            last_phi = None
            continue
        if st.find_h3() is not None:
            raise CounterexampleError(
                "three disjoint dissimilar uncovered edges but no improvement move",
                G, st.to_cycles(), trace)
        F = st.compute_F()
        if F is None:
            raise CounterexampleError(
                "uncovered vertices span no edge although the tiling has size <= n-2",
                G, st.to_cycles(), trace)
        before = st.size
        if set(F) == {"AB", "AC"}:
            st.endgame(F, trace)
        else:
            st.rotate(F, trace)
        moves += 1
        if st.size == before:
            phi = st.phi()
            if last_phi is not None and phi <= last_phi:
                raise CounterexampleError(
                    f"potential did not increase: {last_phi} -> {phi}",
                    G, st.to_cycles(), trace)
            last_phi = phi
        else:
            last_phi = None
    while st.size < n and moves < cap and st.apply_improvement(trace):
        moves += 1
    return NearFactorResult(st.to_cycles(), moves, trace, st.lab)
