"""Tests of the benchmark's own harness: python3 -m pytest perfbench"""

import json
import sys
import time
import types
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import harness  # noqa: E402
import layers  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from ckblowup import constructive, exact, generators, inequality, swap3  # noqa: E402


def bindings():
    return {(id(owner), attr): value
            for owner in layers.owners() for attr, value in vars(owner).items()}


def test_wrappers_restore_every_patched_binding():
    before = bindings()
    original = exact.has_factor
    tracer = harness.Tracer(layers.targets(), layers.owners(), layers.PROBES)
    with pytest.raises(KeyError):
        with tracer:
            # one wrapper at every binding, across modules and classes
            assert exact.has_factor is not original
            assert constructive.has_factor is exact.has_factor
            assert swap3._greedy_packing is exact._greedy_packing
            assert inequality.Certificate.verify.__wrapped__ is not None
            raise KeyError("leave the block by an exception")
    after = bindings()
    assert after.keys() == before.keys()
    assert all(after[key] is value for key, value in before.items())
    assert exact.has_factor is original


def test_self_time_subtracts_nested_spans():
    ticks = iter(range(100))
    ns = types.SimpleNamespace()

    def outer():
        ns.inner()
        ns.inner()

    def inner():
        pass

    ns.outer, ns.inner = outer, inner
    tracer = harness.Tracer({"outer": outer, "inner": inner}, [ns],
                            clock=lambda: next(ticks))
    with tracer:
        ns.outer()
    # outer spans 0..5, its two children 1..2 and 3..4
    spans = tracer.array()
    assert spans[:, 1].tolist() == [-1, 0, 0]
    assert harness.self_times(spans).tolist() == [3.0, 1.0, 1.0]


def test_self_time_of_deeper_nesting():
    # columns: name, parent, label, start, end
    spans = np.array([[0, -1, 0, 0.0, 10.0],
                      [1, 0, 0, 2.0, 6.0],
                      [2, 1, 0, 3.0, 4.0],
                      [1, 0, 0, 7.0, 8.0]])
    assert harness.self_times(spans).tolist() == [5.0, 3.0, 1.0, 1.0]


def _task(name, code=0, good=True, defect=None, raises=None):
    def run_task():
        if raises is not None:
            raise raises
        return code, good
    return harness.Task(name, run_task, lambda good: None if good else "bad",
                        defect)


def test_fail_ratio_counts_exits_and_check_failures():
    tasks = [
        _task("ok"),
        _task("exit", code=3),
        _task("wrong", good=False),
        _task("raises", raises=RecursionError()),
        _task("known-exit", code=3, defect="exit 3"),
        _task("known-raise", raises=RecursionError(), defect="RecursionError"),
        _task("known-but-wrong", code=3, good=False, defect="exit 3"),
    ]
    p = harness.run_pass(tasks)
    status = {o.task: o.status for o in p.outcomes}
    assert status == {"ok": harness.OK, "exit": harness.FAILED,
                      "wrong": harness.WRONG, "raises": harness.FAILED,
                      "known-exit": harness.DEFECT, "known-raise": harness.DEFECT,
                      "known-but-wrong": harness.WRONG}
    assert harness.tally([p]) == (7, 4, False)
    assert harness.end_to_end([p])["ok_ratio"] == 1 / 7


def test_untimed_tasks_stay_out_of_the_times():
    budget = harness.Task("budget", lambda: (time.sleep(0.2), (3, True))[1],
                          lambda _: None, "exit 3", timed=False)
    p = harness.run_pass([_task("a"), budget, _task("b")])
    got = harness.end_to_end([p])
    assert p.wall < 0.1
    assert got["task_s.max"] < 0.1
    assert got["ok_ratio"] == 2 / 3


def test_deadline_interrupts_a_task():
    slow = harness.Task("slow", lambda: time.sleep(5), lambda _: None,
                        "DeadlineExceeded", deadline_s=0.05)
    p = harness.run_pass([slow, _task("after")])
    assert [o.status for o in p.outcomes] == [harness.DEFECT, harness.OK]
    assert p.outcomes[0].seconds < 1


def test_measure_runs_the_minimum_passes_when_out_of_time():
    plain, traced = harness.measure([_task("ok")], 0.0)
    assert len(plain) == harness.MIN_PASSES and traced == []


def test_layer_metrics_count_memo_shortcuts():
    G = generators.complete_blowup(3, 2)
    tracer = harness.Tracer(layers.targets(), layers.owners(), layers.PROBES)
    with tracer:
        tracer.begin("task", "t")
        memo = {}
        assert exact.has_factor(G, memo=memo)
        assert exact.has_factor(G, memo=memo)
    got = {k: m["value"] for k, m in layers.layer_metrics(tracer, 1, 0.0).items()}
    assert got["exact.has_factor.calls"] == 2
    assert got["exact.has_factor.shortcut_ratio"] == 0.5
    assert got["exact.max_tiling.calls"] == 1
    assert got["exact.max_tiling.unproven"] == 0


def test_benchmark_json_names_what_the_code_reports():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(layers.PER_LAYER)
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert list(workloads.WORKLOADS) == list(run.WORKLOADS)
