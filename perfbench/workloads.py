"""The four workloads.  Each has two set-up steps, both driven by the
seed.  ``inputs_*(seed, workdir)`` generates the instances and writes
the graph files a CLI run would read; ``run.py`` runs it in a child
process, so that its memory stays out of the measured peak RSS, and
certify and search have none.  ``tasks_*(seed, workdir)`` warms up and
returns the task list of one pass.

A task makes the calls the matching ``ckblowup`` subcommand makes (load
the graph's canonical JSON, solve, emit canonical result JSON), through
module attributes so that the tracer's patched bindings see them.  Its
output check runs after the pass, outside the timed span.
"""

from __future__ import annotations

import json
import random
import time
from fractions import Fraction

import numpy as np

from ckblowup import constructive, core, exact, generators, inequality, swap3
from harness import Task

# linking: criterion 10's recipe.  A k = 3 check costs three to four
# k = 4 ones, so with one k = 3 and five k = 4 instances the median task
# is a k = 4 check, taken over several instances, and the slowest task
# the k = 3 check.
LINK_KINDS = ("k3", "k4", "k4", "k4", "k4", "k4")
LINK_N = 6
LINK_K3 = ("1/100000", 5)  # (eps^3/100, t) with eps = 1/10
LINK_K4 = ("1/16000", 3)  # (eps^3/16, t)

# factor: criterion 8's recipe, one instance per k.  n = 500 keeps a
# pass near 6 s, so that a run holds several passes.  On a few seeds the
# absorber's linking spot check runs far longer than usual (at n = 1000,
# seed 6 spent 87 s in the k = 4 absorber stage).  Such a task is cut at
# the deadline and counted as that known defect.
FACTOR_N = 500
FACTOR_EPS = 0.25
FACTOR_DEADLINE_S = 12.0

# certify: the paper's systems; grid minima at this resolution, recorded
# from the current program (1/10^12 is the SMALL of an exact strict hit)
GRID = 14
GRID_MIN = {"B1": Fraction(1, 10**12), "B2": Fraction(5, 294),
            "B3": Fraction(1, 98), "B4": Fraction(13, 882),
            "B5": Fraction(1, 49)}
MARGIN = Fraction(1, 10**6)  # the CLI defaults of `verify`
MAX_DEPTH = 40

# search: fixed constructions plus criterion 3 and 4 style batches.  The
# haggkvist (4,1) and (3,2) searches stop at the wall-clock budget, so
# their time says nothing about the program and they are left out of
# the time metrics.  The swap3 batch outnumbers the cover batch, so the
# median task is a near_factor3 call.
BUDGET_MS = 250.0
COVER_SIZES, COVER_BATCH = (6, 9), 30
SWAP3_N, SWAP3_BATCH = 120, 100


def _read(path) -> str:
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def _emit(payload, path=None) -> str:
    """Canonical result JSON, written to ``path`` when one is given."""
    text = json.dumps(payload, sort_keys=True, separators=(",", ":")) + "\n"
    if path is not None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    return text


def _write_graph(G, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(core.graph_to_json(G))


def _tile_payload(size, cycles, optimal, nodes, millis) -> dict:
    return {"size": size, "witness": [list(c) for c in cycles],
            "optimal": optimal, "nodes_expanded": nodes,
            "millis": round(millis, 3)}


def _tiling_problem(G, cycles, least: int, most: int):
    err = core.validate_tiling(G, cycles)
    if err is not None:
        return err
    if not least <= len(cycles) <= most:
        return f"tiling of size {len(cycles)}, expected {least}..{most}"
    return None


# ---------------------------------------------------------------------------
# linking


def _linking_task(name, path, eta, t, out) -> Task:
    first = {}

    def run():
        G = core.graph_from_json(_read(path))
        res = exact.is_linked(G, Fraction(eta), t)
        _emit({"linked": res.linked,
               "pair": [list(res.pair[0]), list(res.pair[1])],
               "min_count": res.count, "threshold": str(res.threshold)}, out)
        return 0, None

    def check(_):
        got = json.loads(_read(out))
        if got["linked"] is not True:
            return f"not linked: {got}"
        want = first.setdefault("min_count", got["min_count"])
        if got["min_count"] != want:
            return f"min_count {got['min_count']} differs from {want} of an earlier pass"
        return None

    return Task(name, run, check)


def _linking_instances(seed: int) -> list:
    """(name, kind, generator seed) of each instance."""
    rng = random.Random(seed)
    return [(f"linking-{i}-{kind}", kind, rng.randrange(2**31))
            for i, kind in enumerate(LINK_KINDS)]


def inputs_linking(seed: int, workdir) -> None:
    for name, kind, s in _linking_instances(seed):
        if kind == "k3":
            draw = random.Random(s)
            while True:
                ds = sorted((draw.randint(4, 6) for _ in range(3)), reverse=True)
                if ds[0] + ds[1] >= 10:
                    break
            G = generators.random_min_degree(3, LINK_N, ds, seed=s)
        else:
            G = generators.random_min_degree(4, LINK_N, [4] * 4, seed=s)
        _write_graph(G, workdir / f"{name}.json")


def tasks_linking(seed: int, workdir) -> list:
    tasks = []
    for name, kind, _ in _linking_instances(seed):
        eta, t = LINK_K3 if kind == "k3" else LINK_K4
        tasks.append(_linking_task(name, workdir / f"{name}.json", eta, t,
                                   workdir / f"{name}.out.json"))
    exact.is_linked(generators.complete_blowup(3, 2), Fraction(1, 100), 2)
    return tasks


# ---------------------------------------------------------------------------
# factor


def _factor_task(name, path, seed, out) -> Task:
    def run():
        G = core.graph_from_json(_read(path))
        start = time.monotonic()
        res = constructive.asymp_factor(G, FACTOR_EPS, np.random.default_rng(seed))
        millis = (time.monotonic() - start) * 1000
        _emit(_tile_payload(res.size, res.cycles, True, None, millis), out)
        return 0, G

    def check(G):
        got = json.loads(_read(out))
        if got["size"] != len(got["witness"]):
            return f"size {got['size']} but {len(got['witness'])} cycles"
        return _tiling_problem(G, got["witness"], G.n, G.n)

    return Task(name, run, check, "DeadlineExceeded", FACTOR_DEADLINE_S)


def _factor_instances(seed: int) -> list:
    """(name, k, seed) of each instance; the seed also drives the pipeline."""
    rng = random.Random(seed)
    return [(f"factor-k{k}", k, rng.randrange(2**31)) for k in (3, 4)]


def inputs_factor(seed: int, workdir) -> None:
    for name, k, s in _factor_instances(seed):
        delta = -(-(3 * k + 2) * FACTOR_N // (4 * k))  # ceil((1+1/k+1/2)n/2)
        G = generators.random_min_degree(k, FACTOR_N, [delta] * k, seed=s)
        _write_graph(G, workdir / f"{name}.json")


def tasks_factor(seed: int, workdir) -> list:
    tasks = [_factor_task(name, workdir / f"{name}.json", s,
                          workdir / f"{name}.out.json")
             for name, _, s in _factor_instances(seed)]
    constructive.asymp_factor(generators.complete_blowup(3, 100), FACTOR_EPS,
                              np.random.default_rng(seed))
    return tasks


# ---------------------------------------------------------------------------
# certify


def _verify_task(sid, grid, out) -> Task:
    """`ckblowup verify --system <sid> [--grid <grid>]`: certify the
    system, then scan its lattice if it was certified."""

    def run():
        res = inequality.certify_infeasible(sid, max_depth=MAX_DEPTH, margin=MARGIN)
        scan = None
        if isinstance(res, inequality.FeasiblePoint):
            report = {"system": sid, "certified": False, "feasible_point":
                      {v: str(x) for v, x in sorted(res.point.items())}}
        else:
            report = {"system": sid, "certified": True, "leaves": len(res.leaves),
                      "nodes": res.nodes, "depth": res.depth,
                      "millis": round(res.millis, 3)}
            if grid:
                scan = inequality.grid_scan(sid, grid)
                report["grid_min_violation"] = str(scan.min_violation)
                report["grid_argmin"] = {v: str(x) for v, x in sorted(scan.argmin.items())}
        _emit([report], out)
        # the CLI exits 1 on a feasible system; for the B1w control that
        # is the right answer, which the check demands
        return 0, (res, scan)

    def check(result):
        res, scan = result
        system = inequality.lemma_system(sid)
        if sid == "B1w":
            if not isinstance(res, inequality.FeasiblePoint):
                return "control system B1w was certified infeasible"
            if not system.holds_at(res.point):
                return f"B1w point {res.point} violates the system"
            return None
        if not isinstance(res, inequality.Certificate):
            return f"{sid} returned a feasible point"
        if res.depth > MAX_DEPTH or not res.verify():
            return f"{sid} certificate does not verify"
        if grid and scan.min_violation != GRID_MIN[sid]:
            return f"{sid} grid minimum {scan.min_violation} != {GRID_MIN[sid]}"
        if grid and system.violation_at(scan.argmin) != scan.min_violation:
            return f"{sid} violation at the grid argmin is not the minimum"
        return None

    return Task(f"verify-{sid}", run, check)


def tasks_certify(seed: int, workdir) -> list:
    """One `verify --system S --grid GRID` per system, and B1w alone.
    The systems are fixed by the paper, so the seed changes nothing."""
    inequality.certify_infeasible("B1")
    tasks = [_verify_task(sid, GRID, workdir / f"verify-{sid}.out.json")
             for sid in inequality.ALL_SYSTEMS]
    tasks.append(_verify_task("B1w", None, workdir / "verify-B1w.out.json"))
    return tasks


# ---------------------------------------------------------------------------
# search: graphs and results stay in memory, so that JSON files and their
# system calls stay on linking and factor and this workload measures the
# solvers


def _exact_task(name, G, budget_ms, want, known_defect, timed=True) -> Task:
    def run():
        res = exact.max_tiling(G, time_budget_ms=budget_ms)
        _emit(_tile_payload(res.size, res.cycles, res.optimal, res.nodes,
                            res.millis))
        return (0 if res.optimal else 3), res

    return Task(name, run, lambda res: _tiling_problem(G, res.cycles, want, want),
                known_defect, timed=timed)


def _cover_task(name, G) -> Task:
    def run():
        res = exact.cover_number(G)
        _emit({"size": res.size,
               "witness": None if res.witness is None else [list(v) for v in res.witness],
               "optimal": res.optimal, "nodes_expanded": res.nodes,
               "millis": round(res.millis, 3)})
        return (0 if res.optimal else 3), res

    def check(res):
        if res.size != G.n:
            return f"cover number {res.size}, expected n = {G.n}"
        if res.witness is not None and not exact.is_cover(G, res.witness):
            return "cover witness misses a transversal cycle"
        return None

    return Task(name, run, check)


def _swap3_task(name, G) -> Task:
    def run():
        start = time.monotonic()
        res = swap3.near_factor3(G)
        millis = (time.monotonic() - start) * 1000
        _emit(_tile_payload(res.size, res.cycles,
                            True if res.size == G.n else None, res.moves, millis))
        return 0, res

    return Task(name, run, lambda res: _tiling_problem(G, res.cycles, G.n - 1, G.n))


def _cover_deltas(draw, n) -> list:
    """Criterion 4: third pair minimum >= ceil(n/2), the two largest
    averaging >= ceil(2n/3)."""
    need3, need12 = (n + 1) // 2, -(-2 * n // 3)
    while True:
        ds = [draw.randint(need3, n) for _ in range(3)]
        top = sorted(ds, reverse=True)
        if top[0] + top[1] >= 2 * need12:
            return ds


def _swap3_deltas(draw, n) -> list:
    """Criterion 3: each pair minimum >= n/2, summing to >= 2n."""
    while True:
        ds = [draw.randint((n + 1) // 2, n) for _ in range(3)]
        if sum(ds) >= 2 * n:
            return ds


def tasks_search(seed: int, workdir) -> list:
    tasks = []
    for k, m in ((3, 1), (4, 1), (3, 2)):
        G, _ = generators.haggkvist_example(k, m)
        # (4,1) and (3,2) exhaust the budget without proving optimality
        budget_out = (k, m) != (3, 1)
        tasks.append(_exact_task(f"haggkvist-{k}-{m}", G, BUDGET_MS, G.n - 1,
                                 "exit 3" if budget_out else None,
                                 timed=not budget_out))
    G = generators.complete_blowup(3, 1000)
    tasks.append(_exact_task("complete-3-1000", G, None, G.n, "RecursionError"))
    rng = random.Random(seed)
    batches = [("cover", n, COVER_BATCH, _cover_deltas, _cover_task)
               for n in COVER_SIZES]
    batches.append(("swap3", SWAP3_N, SWAP3_BATCH, _swap3_deltas, _swap3_task))
    for kind, n, batch, deltas, make in batches:
        for i in range(batch):
            s = rng.randrange(2**31)
            G = generators.random_min_degree(3, n, deltas(random.Random(s), n), seed=s)
            tasks.append(make(f"{kind}-{n}-{i}", G))
    exact.max_tiling(generators.haggkvist_example(3, 1)[0])
    return tasks


# name -> (inputs, tasks); certify and search read no files
WORKLOADS = {
    "linking": (inputs_linking, tasks_linking),
    "factor": (inputs_factor, tasks_factor),
    "certify": (None, tasks_certify),
    "search": (None, tasks_search),
}
