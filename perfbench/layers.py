"""Which ckblowup functions are layer boundaries, what the tracer reads
off their results, and the per-layer metrics built from the spans.

A layer is one module of the package.  Its boundary is every public
function the module defines, plus ``exact._greedy_packing`` (``swap3``
imports it for its greedy fill, so it is a call from one layer into
another) and ``inequality.Certificate.verify`` (the certificate check).
``cli`` is not a layer: the workloads make its calls themselves.
"""

from __future__ import annotations

import importlib
import inspect
import sys

import numpy as np

from harness import self_times

LAYERS = ("core", "matching", "generators", "exact", "swap3", "constructive",
          "inequality")
EXTRA = ("exact._greedy_packing", "inequality.Certificate.verify")

# Per-layer metrics in the order BENCHMARK.json lists them.  Every value
# is per traced pass, plus what one traced set-up adds (generators and
# graph_to_json run in set-up).  busy_s is self time: a call's time
# minus that of the wrapped calls nested in it.
PER_LAYER = (
    ("core.graph_from_json.busy_s", "s"),
    ("core.graph_from_json_dict.busy_s", "s"),
    ("core.build_graph.busy_s", "s"),
    ("core.graph_to_json.busy_s", "s"),
    ("core.graph_to_json_dict.busy_s", "s"),
    ("core.validate_tiling.busy_s", "s"),
    ("core.degree_profile.busy_s", "s"),
    ("generators.busy_s", "s"),
    ("matching.calls", "count"),
    ("matching.busy_s", "s"),
    ("exact.has_factor.calls", "count"),
    ("exact.has_factor.busy_s", "s"),
    ("exact.has_factor.shortcut_ratio", "ratio"),
    ("exact.enumerate_linking.busy_s", "s"),
    ("exact.is_linked.busy_s", "s"),
    ("exact.max_tiling.calls", "count"),
    ("exact.max_tiling.busy_s", "s"),
    ("exact.max_tiling.nodes", "count"),
    ("exact.max_tiling.nodes_per_s", "1/s"),
    ("exact.max_tiling.unproven", "count"),
    ("exact.max_tiling.errors", "count"),
    ("exact.cover_number.busy_s", "s"),
    ("exact.cover_number.nodes", "count"),
    ("exact._greedy_packing.busy_s", "s"),
    ("swap3.near_factor3.busy_s", "s"),
    ("swap3.moves.m1", "count"),
    ("swap3.moves.m2", "count"),
    ("swap3.moves.rotate", "count"),
    ("swap3.moves.endgame", "count"),
    ("constructive.asymp_factor.busy_s", "s"),
    ("constructive.absorber_s", "s"),
    ("constructive.reservoir_s", "s"),
    ("constructive.rounds_s", "s"),
    ("constructive.absorption_s", "s"),
    ("constructive.stage_retries", "count"),
    ("constructive.round_tiling.resplits", "count"),
    ("inequality.certify_infeasible.busy_s", "s"),
    ("inequality.certify_infeasible.nodes", "count"),
    ("inequality.certify_infeasible.leaves", "count"),
    ("inequality.certify_infeasible.depth", "count"),
    ("inequality.grid_scan.busy_s", "s"),
    ("inequality.grid_scan.nodes", "count"),
    ("inequality.Certificate.verify.busy_s", "s"),
    ("trace.overhead_s", "s"),
)

# counts combined by maximum instead of sum
MAX_COUNTS = {"inequality.certify_infeasible.depth"}


def targets() -> dict:
    """Span name -> function, for every layer boundary."""
    out = {}
    for layer in LAYERS:
        mod = importlib.import_module(f"ckblowup.{layer}")
        for attr, value in vars(mod).items():
            if (inspect.isfunction(value) and value.__module__ == mod.__name__
                    and not attr.startswith("_")):
                out[f"{layer}.{attr}"] = value
    for name in EXTRA:
        layer, *path = name.split(".")
        value = importlib.import_module(f"ckblowup.{layer}")
        for part in path:
            value = vars(value)[part]
        out[name] = value
    return out


def owners() -> list:
    """Every loaded ckblowup module and every class defined in one."""
    mods = [m for name, m in sorted(sys.modules.items())
            if name == "ckblowup" or name.startswith("ckblowup.")]
    classes = [v for m in mods for v in vars(m).values()
               if inspect.isclass(v) and v.__module__.startswith("ckblowup.")]
    return mods + classes


def _max_tiling(res):
    return {"exact.max_tiling.nodes": res.nodes,
            "exact.max_tiling.unproven": 0 if res.optimal else 1}


def _near_factor3(res):
    moves = {f"swap3.moves.{t}": 0 for t in ("m1", "m2", "rotate", "endgame")}
    for entry in res.trace:  # move types are m1, m2, rotate, endgame-*
        key = "swap3.moves." + entry[0].split("-")[0]
        moves[key] = moves.get(key, 0) + 1
    return moves


def _asymp_factor(res):
    out = {"constructive.stage_retries": 0}
    for stage in res.stages:
        if "failed" in stage:
            out["constructive.stage_retries"] += 1
        else:
            key = f"constructive.{stage['stage']}_s"
            out[key] = out.get(key, 0.0) + stage["millis"] / 1000.0
    return out


def _certify(res):
    if not hasattr(res, "leaves"):  # a FeasiblePoint has no search counts
        return {}
    return {"inequality.certify_infeasible.nodes": res.nodes,
            "inequality.certify_infeasible.leaves": len(res.leaves),
            "inequality.certify_infeasible.depth": res.depth}


PROBES = {
    "exact.max_tiling": _max_tiling,
    "exact.cover_number": lambda r: {"exact.cover_number.nodes": r.nodes},
    "swap3.near_factor3": _near_factor3,
    "constructive.asymp_factor": _asymp_factor,
    "constructive.round_tiling":
        lambda r: {"constructive.round_tiling.resplits": r.resplits},
    "inequality.certify_infeasible": _certify,
    "inequality.grid_scan": lambda r: {"inequality.grid_scan.nodes": r.nodes},
}


def layer_metrics(tracer, traced_passes: int, overhead_s: float) -> dict:
    """PER_LAYER values from a tracer that saw one set-up and
    ``traced_passes`` passes.  Check spans count only toward
    Certificate.verify, the one check the table asks for."""
    spans = tracer.array()
    names = tracer.names
    ids = {name: i for i, name in enumerate(names)}
    phase = np.array([p for p, _ in tracer.labels])[spans[:, 2].astype(int)]
    weight = np.where(phase == "setup", 1.0, 1.0 / traced_passes)
    work = phase != "check"
    name_id = spans[:, 0].astype(int)
    own = self_times(spans) * weight

    def by_name(mask, values):
        return np.bincount(name_id[mask], weights=values[mask],
                           minlength=len(names))

    calls = by_name(work, weight)
    busy = by_name(work, own)
    check_busy = by_name(~work, own)

    def layer_sum(arr, layer):
        return float(sum(arr[i] for name, i in ids.items()
                         if name.startswith(layer + ".")))

    counts: dict = {}
    for idx, key, value in tracer.counts:
        if not work[idx]:
            continue
        if key in MAX_COUNTS:
            counts[key] = max(counts.get(key, 0), value)
        else:
            counts[key] = counts.get(key, 0) + value * weight[idx]

    hf, mt = ids["exact.has_factor"], ids["exact.max_tiling"]
    hf_spans = np.flatnonzero(work & (name_id == hf))
    mt_parents = spans[name_id == mt, 1]
    shortcut = np.isin(hf_spans, mt_parents, invert=True)
    errors = sum(weight[i] for i in tracer.errors
                 if work[i] and name_id[i] == mt)

    out = {}
    for name, _ in PER_LAYER:
        span, _, stat = name.rpartition(".")
        if stat == "busy_s" and span in ids:
            out[name] = float(busy[ids[span]])
    max_busy = out["exact.max_tiling.busy_s"]
    out.update({
        "generators.busy_s": layer_sum(busy, "generators"),
        "matching.calls": layer_sum(calls, "matching"),
        "matching.busy_s": layer_sum(busy, "matching"),
        "exact.has_factor.calls": float(calls[hf]),
        "exact.has_factor.shortcut_ratio":
            float(shortcut.mean()) if hf_spans.size else 0.0,
        "exact.max_tiling.calls": float(calls[mt]),
        "exact.max_tiling.errors": float(errors),
        "inequality.Certificate.verify.busy_s":
            float(check_busy[ids["inequality.Certificate.verify"]]),
        "trace.overhead_s": overhead_s,
    })
    for name, _ in PER_LAYER:
        if name not in out:
            out[name] = float(counts.get(name, 0.0))
    nodes = out["exact.max_tiling.nodes"]
    out["exact.max_tiling.nodes_per_s"] = nodes / max_busy if max_busy > 0 else 0.0
    return {name: {"value": out[name], "unit": unit} for name, unit in PER_LAYER}
