"""Randomized pipeline that assembles transversal cycle factors of
dense blow-ups: an absorbing structure, a round tiler that converts one
vertex pool into disjoint cycles per round while handing a same-size
pool to the next round, and the driver that chains them and absorbs the
leftover.

Conventions shared by this module:

* Vertex pools are dicts mapping parts to index lists; every randomized
  routine takes a ``numpy.random.Generator`` so runs are reproducible
  from a seed.
* Degree thresholds are exact (the float inputs are turned into
  Fractions), and an integer degree d is compared as d < ceil(need),
  which holds iff d < need, so borderline pools are accepted or
  rejected deterministically.
* Rejection-sampled stages retry ``_RETRIES`` times and then raise
  StageFailure naming the stage; the driver never returns a tiling that
  fails validation.
* Pool splits draw a random vertex order but then spread the
  non-neighbors of every adjacent vertex evenly across chunks
  (``_balanced_split``); a split missing the degree conditions is
  resampled.  A uniform split meets them only for far larger pools.
* The pipeline's only input is eps; its other settings are constants.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, Optional, Sequence, Tuple

import numpy as np

from .core import (
    BlowupGraph,
    PreconditionError,
    VertexRef,
    degree_profile,
    part_after,
    part_before,
    validate_tiling,
)
# has_factor is unused here but stays bound: perfbench/test_harness.py
# checks that the tracer patches this module's binding of it
from .exact import has_factor, path_linking_count  # noqa: F401
from .matching import max_matching_matrix

_RETRIES = 50  # resamples per split, failed gadgets per absorber
_ETA = 0.05  # the absorber's spot check wants eta*n^t linking sequences
_GADGET_TRIES = 60  # random anchor cycles tried per gadget
_GADGET_PROPOSALS = 3  # complete gadgets compared before keeping the best


class PoolConditionError(PreconditionError):
    """An input pool misses the degree condition a stage relies on."""

    def __init__(self, message, violations=None):
        super().__init__(message)
        self.violations = violations or []


class StageFailure(Exception):
    """A randomized stage exhausted its retry budget."""

    def __init__(self, stage: str, message: str, details=None):
        super().__init__(f"{stage}: {message}")
        self.stage = stage
        self.details = details


def _require_rng(rng) -> np.random.Generator:
    if not isinstance(rng, np.random.Generator):
        raise PreconditionError("rng must be a numpy.random.Generator")
    return rng


def _pool_mask(G: BlowupGraph, part: int, ids: Sequence[int]) -> np.ndarray:
    mask = np.zeros(G.n, dtype=bool)
    for i in ids:
        if not 0 <= int(i) < G.n:
            raise PreconditionError(f"vertex index {i} out of range for part {part}")
        if mask[int(i)]:
            raise PreconditionError(f"duplicate vertex {i} in pool for part {part}")
        mask[int(i)] = True
    return mask


def _degrees_into(G: BlowupGraph, vpart: int, tpart: int, ids: Sequence[int]) -> np.ndarray:
    """Degrees of every vertex of V_vpart into the vertices ``ids`` of the
    adjacent part V_tpart."""
    return G.adjacency_rows(tpart, vpart, ids).sum(axis=0)


def _check_pool_degrees(G, pools: dict, need: Fraction) -> list:
    """All violations of d(v, pool_i) >= need for v in the parts
    adjacent to i, as (part, neighbor part, vertex, degree)."""
    lo = -(-need.numerator // need.denominator)  # ceil(need)
    bad = []
    for i, ids in pools.items():
        _pool_mask(G, i, ids)  # range and duplicate checks
        for q in (part_before(G.k, i), part_after(G.k, i)):
            degs = _degrees_into(G, q, i, ids)
            for v in np.flatnonzero(degs < lo):
                bad.append((i, q, int(v), int(degs[v])))
                if len(bad) >= 20:
                    return bad
    return bad


def _balanced_split(G: BlowupGraph, part: int, pool: Sequence[int], nchunks: int,
                    chunk_size: int, rng: np.random.Generator) -> tuple:
    """Split ``pool`` into ``nchunks`` chunks of ``chunk_size``, spreading
    every adjacent vertex's non-neighbors evenly across chunks.

    Vertices are taken in a random order.  Each goes to the chunk that
    minimizes the largest number of non-neighbors there of any external
    vertex it is not adjacent to; ties go to the lowest chunk that is
    not full.  Returns ``(chunks, worst)``: the sorted chunks, and for
    each chunk the largest number of non-neighbors in it of any vertex
    of the two adjacent parts, so that every such vertex has at least
    ``chunk_size - worst[c]`` neighbors in chunk c.

    External non-neighborhoods are int bitsets over the 2n vertices of
    the adjacent parts.  Chunk c keeps nested levels: ``levels[c][t]``
    holds the external vertices with more than t non-neighbors in it, so
    a vertex's count in c is the number of levels its set meets.
    """
    pool = list(pool)
    if len(pool) != nchunks * chunk_size:
        raise PreconditionError(f"pool of {len(pool)} does not split into "
                                f"{nchunks} chunks of {chunk_size}")
    n = G.n
    full = (1 << n) - 1
    into, out = G.pair_bits(part_before(G.k, part))[1], G.pair_bits(part)[0]
    non = [(full ^ into[u]) | ((full ^ out[u]) << n) for u in pool]
    levels = [[] for _ in range(nchunks)]
    caps = [chunk_size] * nchunks
    chunks = [[] for _ in range(nchunks)]
    for pos in rng.permutation(len(pool)).tolist():
        s = non[pos]
        best, c = chunk_size + 1, -1  # a count never exceeds chunk_size
        for j, lv in enumerate(levels):
            if not caps[j]:
                continue
            score = 0
            for level in lv:
                if score == best or not level & s:
                    break
                score += 1
            if score < best:
                best, c = score, j
                if not score:
                    break
        chunks[c].append(pool[pos])
        caps[c] -= 1
        lv = levels[c]
        for t, level in enumerate(lv):
            if not s:
                break
            lv[t], s = level | s, level & s
        if s:
            lv.append(s)
    return [sorted(ch) for ch in chunks], [len(lv) for lv in levels]


def _resplit(G, part, pool, nchunks, chunk_size, need, rng, stage, what) -> tuple:
    """``_balanced_split`` resampled until every adjacent vertex has at
    least ``need`` neighbors in every chunk; returns ``(chunks,
    resplits)``.  After ``_RETRIES`` resamples raises StageFailure."""
    for resplits in range(_RETRIES + 1):
        chunks, worst = _balanced_split(G, part, pool, nchunks, chunk_size, rng)
        if chunk_size - max(worst) >= need:
            return chunks, resplits
    raise StageFailure(stage, f"no valid chunk split of {what} "
                              f"after {_RETRIES} attempts")


# ---------------------------------------------------------------------------
# round tiler
# ---------------------------------------------------------------------------


@dataclass
class RoundResult:
    cycles: list
    U_prime: dict
    used_W: dict
    resplits: int
    millis: float


def round_tiling(G: BlowupGraph, U: dict, W: dict, sigma,
                 rng: np.random.Generator) -> RoundResult:
    """One production round: covers all of U and one k-th of each W_i by
    mk disjoint transversal cycles and returns the replacement pool.

    Inputs are pools U_i, W_i of equal size mk inside each part, with
    every vertex of the two adjacent parts having degree at least
    (1+sigma)mk/2 into U_i and (1+1/k+sigma)mk/2 into W_i.  Each U_i is
    split into k chunks of size m such that chunk degrees stay at least
    m/2 (resampled until they do); chained perfect matchings between
    consecutive chunks yield, for each j, m disjoint paths through the
    chunks U_{i,j} with i != j, which are closed into cycles through
    fresh vertices of W_j.  The replacement pool U'_i is the untouched
    chunk U_{i,i} plus the unused part of W_i; it has size mk again and
    every adjacent vertex keeps degree at least (1+sigma)mk/2 into it.
    """
    _require_rng(rng)
    start = time.monotonic()
    k, n = G.k, G.n
    sig = Fraction(sigma)
    if set(U) != set(range(1, k + 1)) or set(W) != set(range(1, k + 1)):
        raise PreconditionError("U and W must cover parts 1..k")
    mk = len(U[1])
    if mk == 0 or mk % k:
        raise PreconditionError(f"pool size {mk} must be a positive multiple of k")
    m = mk // k
    for i in range(1, k + 1):
        if len(U[i]) != mk or len(W[i]) != mk:
            raise PreconditionError("all pools must have the same size")
        if set(U[i]) & set(W[i]):
            raise PreconditionError(f"U_{i} and W_{i} overlap")
    need_U = (1 + sig) * mk / 2
    need_W = (1 + Fraction(1, k) + sig) * mk / 2
    for pools, need, name in ((U, need_U, "U pools below (1+sigma)mk/2"),
                              (W, need_W, "W pools below (1+1/k+sigma)mk/2")):
        bad = _check_pool_degrees(G, pools, need)
        if bad:
            raise PoolConditionError(f"degree into {name} = {need}", bad)

    # split each U_i into k chunks of m with chunk degrees >= m/2
    resplits = 0
    chunks: Dict[int, list] = {}
    for i in range(1, k + 1):
        chunks[i], redrawn = _resplit(G, i, U[i], k, m, Fraction(m, 2), rng,
                                      "split", f"U_{i}")
        resplits += redrawn

    # perfect matchings between consecutive chunks with the same label
    follow: Dict[Tuple[int, int], dict] = {}
    for j in range(k):
        for i in range(1, k + 1):
            nxt = part_after(k, i)
            left, right = chunks[i][j], chunks[nxt][j]
            sub = G.adjacency_rows(i, nxt, left)[:, right]
            mm = {left[a]: right[b] for a, b in
                  max_matching_matrix(sub, range(m), range(m)).items()}
            if len(mm) != m:
                raise StageFailure(
                    "matching",
                    f"no perfect matching between chunks {i},{j + 1} and {nxt},{j + 1} "
                    "although chunk degrees are at least m/2")
            follow[(i, j)] = mm

    cycles = []
    used_W = {i: [] for i in range(1, k + 1)}
    for j in range(k):
        jpart = j + 1
        first = part_after(k, jpart)
        last = part_before(k, jpart)
        wmask = _pool_mask(G, jpart, W[jpart])
        for x in chunks[first][j]:  # in increasing order
            path, p, y = {first: x}, first, x
            while p != last:
                y = follow[(p, j)][y]
                p = part_after(k, p)
                path[p] = y
            # close the path through a fresh vertex of W_j; the degree
            # condition leaves at least sigma*mk + 1 candidates at every step
            cand = wmask & G.adjacency_rows(first, jpart, x) & G.adjacency_rows(last, jpart, y)
            ws = np.flatnonzero(cand)
            if ws.size == 0:
                raise StageFailure(
                    "closure", f"no common neighbor left in W_{jpart} for a path, "
                               "violating the (1/k+sigma)mk surplus")
            w = int(ws[0])
            wmask[w] = False
            used_W[jpart].append(w)
            path[jpart] = w
            cycles.append(tuple(path[p] for p in range(1, k + 1)))

    U_prime = {}
    for i in range(1, k + 1):
        U_prime[i] = sorted(chunks[i][i - 1] + list(set(W[i]) - set(used_W[i])))
        if len(U_prime[i]) != mk:
            raise StageFailure("replacement", f"U'_{i} has size {len(U_prime[i])}")
    bad = _check_pool_degrees(G, U_prime, need_U)
    if bad:
        raise StageFailure(
            "replacement", "replacement pool misses (1+sigma)mk/2", bad)
    if len(cycles) != mk:
        raise StageFailure("replacement", f"{len(cycles)} cycles instead of {mk}")
    err = validate_tiling(G, cycles)
    if err is not None:
        raise StageFailure("replacement", f"invalid round tiling: {err}")
    millis = (time.monotonic() - start) * 1000.0
    return RoundResult(sorted(cycles), U_prime, used_W, resplits, millis)


# ---------------------------------------------------------------------------
# absorbers
# ---------------------------------------------------------------------------


@dataclass
class Gadget:
    """k disjoint transversal cycles whose designated vertices c_1..c_k
    (c_i on cycle i, in part i) themselves form a transversal cycle.

    The gadget tiles its own k*k vertices by its k cycles.  It absorbs a
    transversal (u_1, ..., u_k) whose u_i is adjacent to both cycle
    neighbors of c_i: each u_i substitutes for c_i on cycle i and the
    freed c_1..c_k close up as the (k+1)-st cycle.
    """

    anchors: tuple
    cycles: list

    def vertex_refs(self) -> list:
        return [VertexRef(p + 1, idx) for cyc in self.cycles for p, idx in enumerate(cyc)]

    def can_absorb(self, G: BlowupGraph, trans: Sequence[int]) -> bool:
        k = G.k
        for i in range(1, k + 1):
            u = trans[i - 1]
            cyc = self.cycles[i - 1]
            nxt = cyc[part_after(k, i) - 1]
            prv = cyc[part_before(k, i) - 1]
            if u == cyc[i - 1] or not (G.pair_bits(i)[0][u] >> nxt & 1 and
                                       G.pair_bits(part_before(k, i))[0][prv] >> u & 1):
                return False
        return True

    def own_cycles(self) -> list:
        return [tuple(c) for c in self.cycles]

    def absorb_cycles(self, G: BlowupGraph, trans: Sequence[int]) -> list:
        out = [tuple(self.anchors)]
        for i in range(1, G.k + 1):
            cyc = list(self.cycles[i - 1])
            cyc[i - 1] = trans[i - 1]
            out.append(tuple(cyc))
        return out


@dataclass
class AbsorberSet:
    absorbers: list

    @property
    def capacity(self) -> int:
        return len(self.absorbers)

    def vertices(self) -> dict:
        refs = [ref for a in self.absorbers for ref in a.vertex_refs()]
        return {p: sorted(r.index for r in refs if r.part == p)
                for p in sorted({r.part for r in refs})}


def _random_path(G, rng, avail, start_part, start_idx, length, close_to=None):
    """Random walk of ``length`` further vertices from a start vertex,
    one part per step, inside ``avail``; the last vertex must also see
    ``close_to`` backwards if given.  Returns the list of new indices or
    None on a dead end."""
    k = G.k
    out = []
    p, v = start_part, start_idx
    for step in range(length):
        q = part_after(k, p)
        mask = G.adjacency_rows(p, q, v) & avail[q - 1]
        if step == length - 1 and close_to is not None:
            mask = mask & G.adjacency_rows(part_after(k, q), q, close_to)
        cand = np.flatnonzero(mask)
        if cand.size == 0:
            return None
        v = int(cand[rng.integers(cand.size)])
        p = q
        out.append(v)
    return out


def _build_gadget(G, rng, avail):
    """One gadget on unused vertices, keeping the best of a few
    proposals by the size of the absorbable neighborhoods around its
    anchors (larger common neighborhoods absorb more transversals)."""
    k = G.k
    best = None
    best_score = -1.0
    found = 0
    for _ in range(_GADGET_TRIES):
        starts = np.flatnonzero(avail[0])
        if starts.size == 0:
            return None
        c1 = int(starts[rng.integers(starts.size)])
        rest = _random_path(G, rng, avail, 1, c1, k - 1, close_to=c1)
        if rest is None:
            continue
        anchors = (c1, *rest)
        work = [m.copy() for m in avail]
        for p, idx in enumerate(anchors):
            work[p][idx] = False
        cycles = []
        for i in range(1, k + 1):
            ext = _random_path(G, rng, work, i, anchors[i - 1], k - 1,
                               close_to=anchors[i - 1])
            if ext is None:
                break
            cyc = [0] * k
            cyc[i - 1] = anchors[i - 1]
            p = i
            for idx in ext:
                p = part_after(k, p)
                cyc[p - 1] = idx
                work[p - 1][idx] = False
            cycles.append(tuple(cyc))
        if len(cycles) < k:
            continue
        gadget = Gadget(anchors, cycles)
        score = 1.0
        for i in range(1, k + 1):
            cyc = gadget.cycles[i - 1]
            nxt = cyc[part_after(k, i) - 1]
            prv = cyc[part_before(k, i) - 1]
            common = G.pair_bits(i)[1][nxt] & G.pair_bits(part_before(k, i))[0][prv]
            score *= float(common.bit_count()) / G.n
        if score > best_score:
            best_score = score
            best = gadget
        found += 1
        if found >= _GADGET_PROPOSALS:
            break
    return best


def build_absorber(G: BlowupGraph, rng: np.random.Generator,
                   count: int) -> AbsorberSet:
    """Absorbing structure with one absorber per unit of capacity.

    First spot-checks that a few same-part pairs have at least
    _ETA*n^t linking sequences, then builds ``count`` vertex-disjoint
    gadgets with t = k-1.
    """
    _require_rng(rng)
    k, n = G.k, G.n
    t = k - 1
    # spot check: a couple of pairs must reach eta*n^t linking
    # sequences (exact counts), with the bound capped at 5000
    cap = min(math.ceil(Fraction(_ETA) * n**t), 5000)
    probes = [(VertexRef(1, 0), VertexRef(1, 0))]
    if n > 1:
        a, b = sorted(int(x) for x in rng.choice(n, size=2, replace=False))
        probes.append((VertexRef(1, a), VertexRef(1, b)))
    for v, v2 in probes:
        got = path_linking_count(G, v, v2)
        if got < cap:
            raise PreconditionError(
                f"pair {v}, {v2} has only {got} linking sequences "
                f"(needs {cap}); the graph is not (eta, t)-linked")
    avail = [np.ones(n, dtype=bool) for _ in range(k)]
    gadgets = []
    attempts = 0
    while len(gadgets) < count:
        g = _build_gadget(G, rng, avail)
        if g is None:
            attempts += 1
            if attempts > _RETRIES:
                raise StageFailure(
                    "absorber", f"built {len(gadgets)} of {count} gadgets before "
                                "running out of vertex-disjoint candidates")
            continue
        for ref in g.vertex_refs():
            avail[ref.part - 1][ref.index] = False
        gadgets.append(g)
    return AbsorberSet(gadgets)


def _assign_and_assemble(G: BlowupGraph, absorber: AbsorberSet, W: dict):
    """Pair off W into index-aligned transversals, match them to
    distinct absorbers, and return ``(cycles, None)`` with the cycles
    tiling A union W, or ``(None, reason)`` when no assignment exists.

    W must be balanced across parts, disjoint from the absorber, and
    at most one transversal per unit of capacity; violating that raises
    PreconditionError.
    """
    sizes = {p: len(W[p]) for p in range(1, G.k + 1)}
    if len(set(sizes.values())) != 1:
        raise PreconditionError(f"W must be balanced across parts, got {sizes}")
    L = sizes[1]
    if L > absorber.capacity:
        raise PreconditionError(
            f"|W per part| = {L} exceeds absorber capacity {absorber.capacity}")
    own = absorber.vertices()
    for p in range(1, G.k + 1):
        overlap = set(own.get(p, [])) & set(W[p])
        if overlap:
            raise PreconditionError(f"W meets the absorber in part {p}: {sorted(overlap)}")
    transversals = [tuple(W[p][j] for p in range(1, G.k + 1)) for j in range(L)]
    adj = np.array([[g.can_absorb(G, t) for g in absorber.absorbers] for t in transversals],
                   dtype=bool).reshape(L, absorber.capacity)
    mm = max_matching_matrix(adj, list(range(L)), list(range(absorber.capacity)))
    if len(mm) != L:
        lonely = [transversals[a] for a in range(L) if a not in mm]
        return None, f"{L - len(mm)} transversals cannot be assigned; " \
                     f"first stranded: {lonely[:3]}"
    taker = {b: a for a, b in mm.items()}
    cycles = []
    for b, g in enumerate(absorber.absorbers):
        cycles.extend(g.absorb_cycles(G, transversals[taker[b]]) if b in taker
                      else g.own_cycles())
    return cycles, None


# ---------------------------------------------------------------------------
# the factor driver
# ---------------------------------------------------------------------------


@dataclass
class FactorResult:
    cycles: list
    params: dict
    stages: list

    @property
    def size(self) -> int:
        return len(self.cycles)


def _plan_sizes(n: int, k: int, m: int) -> Optional[dict]:
    """Smallest absorber count making the accounting close, then doubled
    while it still closes (more capacity makes the final assignment
    robust): z = k*s absorber vertices per part, T full rounds of mk
    cycles, and a leftover of at most one transversal per gadget."""
    mk = m * k

    def plan(s):  # the accounting with s gadgets, None if it does not close
        budget = n - k * s
        r = budget % mk
        if budget >= 2 * mk and mk + r <= s:
            return {"s": s, "z": k * s, "T": budget // mk - 1, "r": r,
                    "leftover": mk + r, "m": m, "mk": mk}
        return None

    feasible = next(filter(None, map(plan, range(1, (n - 2 * mk) // k + 1))), None)
    return feasible and (plan(2 * feasible["s"]) or feasible)


def asymp_factor(G: BlowupGraph, eps, rng: np.random.Generator) -> FactorResult:
    """Transversal cycle factor of a blow-up with every pair minimum
    degree at least (1 + 1/k + eps) n/2, built by the randomized
    pipeline: a gadget absorber, repeated production rounds, and
    absorption of the leftover transversals.

    Raises PreconditionError when the degree bound fails (checked
    exactly) and StageFailure when a stage exhausts its retries.  The
    returned factor is validated before being returned.
    """
    _require_rng(rng)
    k, n = G.k, G.n
    prof = degree_profile(G)
    need = (1 + Fraction(1, k) + Fraction(eps)) * Fraction(n, 2)
    if prof.delta_star < need:
        raise PreconditionError(
            f"delta* = {prof.delta_star} is below (1+1/k+eps)n/2 = {float(need):.2f}")
    sig = Fraction(min(float(eps) / 4, 0.05))
    m = max(5, int(sig * sig * n / (2 * k)))
    plan = _plan_sizes(n, k, m)
    if plan is None:
        raise StageFailure("sizing", f"no absorber size closes the accounting "
                                     f"for n = {n}, k = {k}, m = {m}")
    if not 0 < sig < 1:
        raise PreconditionError("sigma must lie in (0, 1)")
    mk, s, T = plan["mk"], plan["s"], plan["T"]
    stages: list = []

    for attempt in range(3):
        try:
            t0 = time.monotonic()
            absorber = build_absorber(G, rng, s)
            stages.append({"stage": "absorber", "gadgets": s,
                           "millis": (time.monotonic() - t0) * 1000})

            t0 = time.monotonic()
            A = absorber.vertices()
            outside: Dict[int, list] = {}
            chunks: Dict[int, list] = {}
            need_W = (1 + Fraction(1, k) + sig) * mk / 2
            for i in range(1, k + 1):
                free = sorted(set(range(n)) - set(A.get(i, [])))
                if len(free) != n - plan["z"]:
                    raise StageFailure("reservoir", f"part {i} has {len(free)} free "
                                                    f"vertices, expected {n - plan['z']}")
                pick = sorted(int(x) for x in
                              rng.choice(free, size=(T + 1) * mk, replace=False))
                outside[i] = sorted(set(free) - set(pick))
                chunks[i], _ = _resplit(G, i, pick, T + 1, mk, need_W, rng,
                                        "reservoir", f"part {i} reservoir")
            stages.append({"stage": "reservoir", "chunks": T + 1, "chunk_size": mk,
                           "millis": (time.monotonic() - t0) * 1000})

            t0 = time.monotonic()
            cycles: list = []
            U = {i: chunks[i][0] for i in range(1, k + 1)}
            for rnd in range(1, T + 1):
                Wr = {i: chunks[i][rnd] for i in range(1, k + 1)}
                res = round_tiling(G, U, Wr, float(sig), rng)
                cycles.extend(res.cycles)
                U = res.U_prime
            stages.append({"stage": "rounds", "rounds": T, "cycles": T * mk,
                           "millis": (time.monotonic() - t0) * 1000})

            t0 = time.monotonic()
            leftover = {i: sorted(U[i] + outside[i]) for i in range(1, k + 1)}
            if any(len(leftover[i]) != plan["leftover"] for i in leftover):
                raise StageFailure("absorption", "leftover accounting is off")
            absorbed, why = _assign_and_assemble(G, absorber, leftover)
            if absorbed is None:
                raise StageFailure("absorption", why)
            cycles.extend(absorbed)
            stages.append({"stage": "absorption", "transversals": plan["leftover"],
                           "millis": (time.monotonic() - t0) * 1000})

            if len(cycles) != n:
                raise StageFailure("validation", f"{len(cycles)} cycles, expected {n}")
            err = validate_tiling(G, cycles)
            if err is not None:
                raise StageFailure("validation", f"invalid factor: {err}")
            return FactorResult(sorted(cycles), dict(plan, sigma=float(sig),
                                                     eta=_ETA), stages)
        except StageFailure as exc:
            last_failure = exc
            stages.append({"stage": exc.stage, "failed": str(exc)})
    raise last_failure
