"""Command line interface.

Subcommands: generate (construction families to JSON), check (degree
profile and threshold report), tile (exact, move-machine, or randomized
pipeline), cover (minimum transversal cycle cover), linking (exact
linkedness check), verify (inequality system certificates), experiment
(threshold sweeps to CSV), and dot (Graphviz export).

Exit codes: 0 on success, 2 on malformed input or unmet preconditions,
3 on an exhausted budget (time, depth, retries, or a refused oversized
sweep), 1 when a guaranteed search comes up empty or a certificate
fails its check.  Every randomized subcommand requires --seed, and all
JSON output is canonical (sorted keys, no spaces), so identical
invocations produce identical bytes.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import sys
import time
from fractions import Fraction

import numpy as np

from .core import (
    PreconditionError,
    degree_profile,
    graph_from_json_dict,
    graph_to_dot,
    graph_to_json,
)
from .exact import InfeasibleSizeError, cover_number, is_linked, max_tiling
from .generators import (
    complete_blowup,
    cover_example,
    cover_size,
    haggkvist_example,
    random_min_degree,
)
from .inequality import (
    ALL_SYSTEMS,
    DepthExhaustedError,
    FeasiblePoint,
    certify_infeasible,
    grid_scan,
    lemma_system,
)
from .swap3 import CounterexampleError, near_factor3
from .constructive import StageFailure, asymp_factor


def _dump_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n"


def _write_out(text: str, out: str | None) -> None:
    if out is None or out == "-":
        sys.stdout.write(text)
    else:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)


def _load_graph(path: str):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            obj = json.load(fh)
    except OSError as exc:
        raise SystemExit(f"error: cannot read {path}: {exc}")
    except UnicodeDecodeError as exc:
        raise SystemExit(f"error: {path} is not UTF-8 text "
                         f"({exc.reason} at byte {exc.start})")
    except json.JSONDecodeError as exc:
        print(f"error: {path} is not valid JSON at line {exc.lineno} "
              f"column {exc.colno}", file=sys.stderr)
        raise SystemExit(2)
    k, n = (obj.get(key) if isinstance(obj, dict) else None for key in ("k", "n"))
    if type(k) is type(n) is int and _oversized(k, n):
        raise SystemExit(3)
    try:
        return graph_from_json_dict(obj)
    except (PreconditionError, ValueError, KeyError, TypeError) as exc:
        print(f"error: {path}: {exc}", file=sys.stderr)
        raise SystemExit(2)


def _number(kind, ok, need: str):
    """An argparse type converting with kind and accepting a value only
    when ok(value) holds; anything else is a usage error (exit 2)."""
    def convert(text: str):
        try:
            value = kind(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid {kind.__name__} value: {text!r}")
        if not ok(value):
            raise argparse.ArgumentTypeError(f"must be {need}, got {text!r}")
        return value
    return convert


_POSITIVE_INT = _number(int, lambda v: v >= 1, "at least 1")
_NONNEGATIVE_INT = _number(int, lambda v: v >= 0, "at least 0")
_NONNEGATIVE_FLOAT = _number(float, lambda v: v >= 0, "at least 0")  # NaN fails too
_FINITE_FLOAT = _number(float, math.isfinite, "finite")


def _parse_deltas(text: str, k: int) -> list:
    try:
        vals = [int(x) for x in text.split(",")]
    except ValueError:
        raise SystemExit(f"error: --deltas must be comma-separated integers, got {text!r}")
    if len(vals) != k:
        raise SystemExit(f"error: --deltas needs {k} values, got {len(vals)}")
    return vals


def _matrix_bytes_cap() -> int:
    """Largest k*(n^2 + _PAIR_BYTES) that generate builds and the CLI
    loads, and largest lattice that verify scans: a quarter of physical
    memory.  A graph keeps its pairs as packed bits, about k*n^2/4 bytes
    with their transposes, but the generators and the ``ckblowup/1``
    loader first fill k*n^2 bytes of bool matrices."""
    return os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES") // 4


# Besides its n^2 matrix bytes, each pair costs a fixed amount in Python
# and numpy objects: from k = 10^4 to 10^5 at n = 1, peak RSS rose by
# 0.80 KB a pair in generate, 0.89 KB loading a ckblowup/2 file and
# 0.84-1.01 KB loading a ckblowup/1 file (no edges, one edge a pair)
_PAIR_BYTES = 1024


# grid_scan builds a Fraction and a float for each of the N+1 lattice
# coordinates of every axis up front: 127 bytes each once built, 135 at
# the peak of building (tracemalloc, N = 10^5, on B1, B3 and B5)
_GRID_COORD_BYTES = 136


def _oversized(k: int, n: int) -> bool:
    """Whether a k, n graph's k*(n^2 + _PAIR_BYTES) bytes exceed the cap;
    if so, says so on stderr.  Nothing of the graph is allocated."""
    cap = _matrix_bytes_cap()
    if n < 1 or k * (n * n + _PAIR_BYTES) <= cap:
        return False
    print(f"error: a k = {k}, n = {n} graph needs {k * n * n} bytes of pair matrices "
          f"and {k * _PAIR_BYTES} bytes of per-pair objects, over the cap of {cap} "
          "(a quarter of physical memory)", file=sys.stderr)
    return True


def cmd_generate(args) -> int:
    blocks = None
    if args.family in ("complete", "random"):
        if args.n is None or args.n < 1:
            raise SystemExit(f"error: --family {args.family} needs --n of at least 1, "
                             f"got {args.n}")
        k, n = args.k, args.n
    elif args.family == "haggkvist":
        k, n = args.k, 2 * args.k * args.m
    else:
        k, n = 3, cover_size(args.p, args.q)
    if _oversized(k, n):
        return 3
    if args.family == "complete":
        G = complete_blowup(args.k, args.n)
    elif args.family == "haggkvist":
        G, blocks = haggkvist_example(args.k, args.m)
    elif args.family == "cover":
        ex = cover_example(args.p, args.q)
        # cover_example keeps the paper's names A_i, B_i, C_i, whose
        # letter is the part (1, 2, 3); dot reads the part from the
        # name's last "_<part>", so the sidecar appends it
        G = ex.graph
        blocks = {f"{name}_{'ABC'.index(name[0]) + 1}": ids for name, ids in ex.blocks.items()}
    else:
        if args.seed is None:
            print("error: --seed is required for --family random", file=sys.stderr)
            return 2
        if args.deltas is None:
            raise SystemExit("error: --deltas is required for --family random")
        deltas = _parse_deltas(args.deltas, args.k)
        G = random_min_degree(args.k, args.n, deltas, args.seed)
    _write_out(graph_to_json(G), args.out)
    if args.blocks_out:
        if blocks is None:
            print("error: this family has no named blocks", file=sys.stderr)
            return 2
        _write_out(_dump_json({"blocks": blocks}), args.blocks_out)
    return 0


def cmd_check(args) -> int:
    G = _load_graph(args.graph)
    prof = degree_profile(G)
    k, n = G.k, G.n
    print(f"k = {k}, n = {n}")
    for i, d in enumerate(prof.deltas, start=1):
        j = i % k + 1
        print(f"delta_{i} = {d}  (pair V_{i}, V_{j})")
    print(f"delta* = {prof.delta_star}")
    factor_need = Fraction(k + 1, 2 * k) * n + 1
    ok = prof.delta_star >= factor_need
    print(f"factor threshold delta* >= (1+1/k)n/2 + 1 = {float(factor_need):g}: "
          f"{'met' if ok else 'not met'}")
    if k == 3:
        top = sorted(prof.deltas, reverse=True)
        avg2 = Fraction(top[0] + top[1], 2)
        print(f"two largest pair minima average {float(avg2):g} vs 2n/3 = "
              f"{float(Fraction(2 * n, 3)):g}: "
              f"{'met' if avg2 >= Fraction(2 * n, 3) else 'not met'}"
              f" (margin {float(avg2 - Fraction(2 * n, 3)):+g})")
        halves = all(2 * d >= n for d in prof.deltas)
        total = sum(prof.deltas)
        print(f"near-factor threshold: min degrees each >= n/2: "
              f"{'met' if halves else 'not met'}; sum {total} >= 2n = {2 * n}: "
              f"{'met' if total >= 2 * n else 'not met'}")
    return 0


def _emit_result(args, size, witness, optimal, nodes, millis) -> None:
    payload = {
        "size": size,
        "witness": [list(c) for c in witness],
        "optimal": optimal,
        "nodes_expanded": nodes,
        "millis": round(millis, 3),
    }
    _write_out(_dump_json(payload), args.out)


def cmd_tile(args) -> int:
    G = _load_graph(args.graph)
    modes = [m for m in ("exact", "constructive", "swap3") if getattr(args, m)]
    if len(modes) != 1:
        print("error: choose exactly one of --exact, --constructive, --swap3",
              file=sys.stderr)
        return 2
    mode = modes[0]
    if mode == "exact":
        res = max_tiling(G, time_budget_ms=args.budget_ms)
        _emit_result(args, res.size, res.cycles, res.optimal, res.nodes, res.millis)
        return 0 if res.optimal else 3
    if mode == "swap3":
        try:
            start = time.monotonic()
            res = near_factor3(G, cap=args.cap)
            millis = (time.monotonic() - start) * 1000
        except CounterexampleError as exc:
            print(f"counterexample: {exc}", file=sys.stderr)
            return 1
        _emit_result(args, res.size, res.cycles,
                     True if res.size == G.n else None, res.moves, millis)
        return 0
    if args.seed is None:
        print("error: --seed is required for --constructive", file=sys.stderr)
        return 2
    if args.epsilon is None:
        print("error: --epsilon is required for --constructive", file=sys.stderr)
        return 2
    try:
        start = time.monotonic()
        res = asymp_factor(G, args.epsilon, np.random.default_rng(args.seed))
        millis = (time.monotonic() - start) * 1000
    except StageFailure as exc:
        print(f"stage failure: {exc}", file=sys.stderr)
        return 3
    _emit_result(args, res.size, res.cycles, True, None, millis)
    return 0


def cmd_cover(args) -> int:
    G = _load_graph(args.graph)
    res = cover_number(G, time_budget_ms=args.budget_ms)
    payload = {
        "size": res.size,
        "witness": [list(v) for v in res.witness],
        "optimal": res.optimal,
        "nodes_expanded": res.nodes,
        "millis": round(res.millis, 3),
    }
    _write_out(_dump_json(payload), args.out)
    return 0 if res.optimal else 3


def cmd_linking(args) -> int:
    G = _load_graph(args.graph)
    try:
        eta = Fraction(args.eta)
    except (ValueError, ZeroDivisionError):
        raise SystemExit(f"error: --eta must be a fraction, got {args.eta!r}")
    try:
        res = is_linked(G, eta, args.t, max_work=args.max_work)
    except InfeasibleSizeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    payload = {
        "linked": res.linked,
        "pair": [list(res.pair[0]), list(res.pair[1])],
        "min_count": res.count,
        "threshold": str(res.threshold),
    }
    _write_out(_dump_json(payload), args.out)
    return 0


def cmd_verify(args) -> int:
    systems = list(args.system)
    if systems == ["all"]:
        systems = list(ALL_SYSTEMS)
    known = ALL_SYSTEMS + ("B1w",)
    for sid in systems:
        if sid not in known:
            raise SystemExit(f"error: unknown system {sid!r}; expected "
                             f"{', '.join(known)}, or 'all' alone")
    if args.max_depth < 0:
        raise SystemExit(f"error: --max-depth must be at least 0, got {args.max_depth}")
    try:
        margin = Fraction(args.margin)
    except (ValueError, ZeroDivisionError):
        raise SystemExit(f"error: --margin must be a fraction, got {args.margin!r}")
    if args.grid is not None and args.grid < 1:
        raise SystemExit(f"error: --grid must be at least 1, got {args.grid}")
    if args.grid is not None:
        dims = max(len(lemma_system(sid).variables) for sid in systems)
        need, cap = dims * (args.grid + 1) * _GRID_COORD_BYTES, _matrix_bytes_cap()
        if need > cap:
            print(f"error: --grid {args.grid} needs about {need} bytes of lattice "
                  f"coordinates, over the cap of {cap} (a quarter of physical memory)",
                  file=sys.stderr)
            return 3
    reports = []
    worst = 0
    for sid in systems:
        try:
            res = certify_infeasible(sid, max_depth=args.max_depth, margin=margin)
        except DepthExhaustedError as exc:
            print(f"{sid}: depth exhausted: {exc}", file=sys.stderr)
            worst = max(worst, 3)
            reports.append({"system": sid, "certified": False,
                            "reason": "depth-exhausted"})
            continue
        if isinstance(res, FeasiblePoint):
            worst = max(worst, 1)
            reports.append({
                "system": sid, "certified": False,
                "feasible_point": {v: str(x) for v, x in sorted(res.point.items())},
            })
            print(f"{sid}: FEASIBLE at "
                  + ", ".join(f"{v} = {x}" for v, x in sorted(res.point.items())))
            continue
        if not res.verify():
            print(f"error: {sid}: the certificate fails its independent check",
                  file=sys.stderr)
            worst = max(worst, 1)
            reports.append({"system": sid, "certified": False,
                            "reason": "check-failed"})
            continue
        entry = {"system": sid, "certified": True, "leaves": len(res.leaves),
                 "nodes": res.nodes, "depth": res.depth,
                 "millis": round(res.millis, 3)}
        print(f"{sid}: infeasible ({len(res.leaves)} leaves, depth {res.depth}, "
              f"{res.millis:.0f} ms)")
        if args.grid is not None:
            scan = grid_scan(sid, args.grid)
            entry["grid_min_violation"] = str(scan.min_violation)
            entry["grid_argmin"] = {v: str(x) for v, x in sorted(scan.argmin.items())}
            print(f"{sid}: grid {args.grid} min violation {scan.min_violation} at "
                  + ", ".join(f"{v} = {x}" for v, x in sorted(scan.argmin.items())))
        reports.append(entry)
    if args.out:
        _write_out(_dump_json(reports), args.out)
    return worst


def cmd_experiment(args) -> int:
    if args.seed is None:
        print("error: --seed is required", file=sys.stderr)
        return 2
    k = args.k
    lo = _parse_deltas(args.deltas_min, k)
    hi = _parse_deltas(args.deltas_max, k)
    ranges = []
    for a, b in zip(lo, hi):
        if b < a:
            print("error: --deltas-max must dominate --deltas-min", file=sys.stderr)
            return 2
        ranges.append(list(range(a, b + 1, args.step)))
    cells = 1
    for r in ranges:
        cells *= len(r)
    if cells * args.trials > args.max_cells:
        print(f"refusing to run: {cells} delta cells x {args.trials} trials = "
              f"{cells * args.trials} runs exceeds --max-cells = {args.max_cells}",
              file=sys.stderr)
        return 3
    rows = []
    grid = [[]]
    for r in ranges:
        grid = [g + [v] for g in grid for v in r]
    for cell_index, deltas in enumerate(grid):
        sizes = []
        times = []
        for trial in range(args.trials):
            seed = args.seed + 10007 * cell_index + trial
            G = random_min_degree(k, args.n, deltas, seed)
            start = time.monotonic()
            if args.tiler == "exact":
                size = max_tiling(G, time_budget_ms=args.budget_ms).size
            elif args.tiler == "swap3":
                try:
                    size = near_factor3(G).size
                except (PreconditionError, CounterexampleError):
                    size = -1
            else:
                try:
                    size = asymp_factor(G, args.epsilon,
                                        np.random.default_rng(seed)).size
                except (PreconditionError, StageFailure):
                    size = -1
            times.append((time.monotonic() - start) * 1000)
            sizes.append(size)
        ok = [s for s in sizes if s >= 0]
        rows.append([k, args.n, *deltas, args.trials,
                     f"{sum(1 for s in sizes if s == args.n) / args.trials:.3f}",
                     f"{(sum(ok) / len(ok)) if ok else -1:.3f}",
                     f"{sum(times) / len(times):.3f}"])
    header = ["k", "n", *[f"delta_{i}" for i in range(1, k + 1)],
              "trials", "factor_rate", "mean_size", "mean_millis"]
    if args.out and args.out != "-":
        fh = open(args.out, "w", newline="", encoding="utf-8")
    else:
        fh = sys.stdout
    try:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)
    finally:
        if fh is not sys.stdout:
            fh.close()
    return 0


def cmd_dot(args) -> int:
    G = _load_graph(args.graph)
    blocks = None
    if args.blocks:
        try:
            with open(args.blocks, "r", encoding="utf-8") as fh:
                blocks = json.load(fh)["blocks"]
        except OSError as exc:
            raise SystemExit(f"error: cannot read {args.blocks}: {exc}")
        except (ValueError, KeyError, TypeError) as exc:
            raise SystemExit(f"error: {args.blocks} is not a blocks JSON file: {exc!r}")
        if not isinstance(blocks, dict):
            raise SystemExit(f"error: {args.blocks} is not a blocks JSON file: "
                             "'blocks' is not an object")
    _write_out(graph_to_dot(G, blocks=blocks), args.out)
    return 0


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="ckblowup",
                                description="transversal cycle tilings of "
                                            "cyclically structured multipartite graphs")
    sub = p.add_subparsers(dest="command", required=True)

    g = sub.add_parser("generate", help="write a construction to canonical JSON")
    g.add_argument("--family", required=True,
                   choices=["complete", "haggkvist", "cover", "random"])
    g.add_argument("--k", type=int, default=3)
    g.add_argument("--n", type=int)
    g.add_argument("--m", type=int, default=1, help="scale of the layered family")
    g.add_argument("--p", type=int, default=7, help="cover family density numerator")
    g.add_argument("--q", type=_POSITIVE_INT, default=9,
                   help="cover family density denominator")
    g.add_argument("--deltas", help="comma-separated minimum degrees (random family)")
    g.add_argument("--seed", type=int)
    g.add_argument("--out", default="-")
    g.add_argument("--blocks-out", help="sidecar JSON naming the construction blocks")
    g.set_defaults(func=cmd_generate)

    c = sub.add_parser("check", help="degree profile and threshold report")
    c.add_argument("graph")
    c.set_defaults(func=cmd_check)

    t = sub.add_parser("tile", help="find a large transversal cycle tiling")
    t.add_argument("graph")
    t.add_argument("--exact", action="store_true")
    t.add_argument("--swap3", action="store_true")
    t.add_argument("--constructive", action="store_true")
    t.add_argument("--budget-ms", type=_NONNEGATIVE_FLOAT)
    t.add_argument("--cap", type=_NONNEGATIVE_INT, default=10_000)
    t.add_argument("--epsilon", type=_FINITE_FLOAT)
    t.add_argument("--seed", type=int)
    t.add_argument("--out", default="-")
    t.set_defaults(func=cmd_tile)

    cv = sub.add_parser("cover", help="minimum transversal cycle cover")
    cv.add_argument("graph")
    cv.add_argument("--budget-ms", type=_NONNEGATIVE_FLOAT)
    cv.add_argument("--out", default="-")
    cv.set_defaults(func=cmd_cover)

    ln = sub.add_parser("linking", help="exact linkedness check")
    ln.add_argument("graph")
    ln.add_argument("--t", type=int, required=True)
    ln.add_argument("--eta", required=True, help="threshold coefficient (fraction ok)")
    ln.add_argument("--max-work", type=_NONNEGATIVE_INT, default=20_000_000,
                    help="refuse (exit 3) a t > k-1 check whose candidate "
                         "sets plus cycle-union listing number more than this; "
                         "t = k-1 is never refused")
    ln.add_argument("--out", default="-")
    ln.set_defaults(func=cmd_linking)

    v = sub.add_parser("verify", help="certify inequality systems infeasible")
    v.add_argument("--system", nargs="+", default=["all"],
                   help="B1..B5, B1w, or 'all'")
    v.add_argument("--max-depth", type=int, default=40)
    v.add_argument("--margin", default="1/1000000")
    v.add_argument("--grid", type=int, help="also scan the lattice at this resolution")
    v.add_argument("--out")
    v.set_defaults(func=cmd_verify)

    e = sub.add_parser("experiment", help="sweep degree profiles, write CSV")
    e.add_argument("--k", type=int, required=True)
    e.add_argument("--n", type=int, required=True)
    e.add_argument("--deltas-min", required=True)
    e.add_argument("--deltas-max", required=True)
    e.add_argument("--step", type=_POSITIVE_INT, default=1)
    e.add_argument("--trials", type=_POSITIVE_INT, default=5)
    e.add_argument("--seed", type=int)
    e.add_argument("--tiler", choices=["exact", "swap3", "constructive"],
                   default="exact")
    e.add_argument("--budget-ms", type=_NONNEGATIVE_FLOAT)
    e.add_argument("--epsilon", type=_FINITE_FLOAT, default=0.25)
    e.add_argument("--max-cells", type=int, default=2000)
    e.add_argument("--out", default="-")
    e.set_defaults(func=cmd_experiment)

    d = sub.add_parser("dot", help="Graphviz export")
    d.add_argument("graph")
    d.add_argument("--blocks", help="sidecar JSON with named blocks")
    d.add_argument("--out", default="-")
    d.set_defaults(func=cmd_dot)
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except PreconditionError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except SystemExit as exc:
        if isinstance(exc.code, str):
            print(exc.code, file=sys.stderr)
            return 2
        return 0 if exc.code is None else int(exc.code)


if __name__ == "__main__":
    sys.exit(main())
