"""Measurement harness: tasks, timed passes, end-to-end summaries, and a
tracer that wraps the program's layer functions from outside.

Nothing here imports ckblowup; ``layers.py`` says which functions are
layer boundaries and ``workloads.py`` builds the tasks.
"""

from __future__ import annotations

import contextlib
import functools
import signal
import statistics
import time
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

OK = "ok"  # exit 0 and the output check holds
DEFECT = "defect"  # the known defect the task declares (see Task)
FAILED = "failed"  # raised, or a non-zero exit the task does not declare
WRONG = "wrong"  # the output check failed
MIN_PASSES = 2  # per run, so that a slow pass does not set a run's figures


@dataclass
class Task:
    """One CLI-equivalent unit of work.

    ``run`` is timed and returns ``(exit_code, output)``, with the exit
    code the matching ``ckblowup`` subcommand would return.  ``check``
    is not timed; it returns None when ``output`` is right and a message
    otherwise.  ``known_defect`` names an outcome the program shows
    today, either an exception class name or ``"exit <code>"``: the
    benchmark keeps it visible in ``ok_ratio`` instead of counting it as
    a failed operation.  A task still running after ``deadline_s``
    seconds is interrupted with DeadlineExceeded.  A task whose time is
    set by a wall-clock budget, not by its work, is not ``timed``: it
    counts in ``ok_ratio`` but not in the time metrics.
    """

    name: str
    run: Callable[[], tuple]
    check: Callable[[object], Optional[str]]
    known_defect: Optional[str] = None
    deadline_s: Optional[float] = None
    timed: bool = True


class DeadlineExceeded(Exception):
    """A task ran past its deadline and was interrupted."""


@contextlib.contextmanager
def deadline(seconds: Optional[float]):
    """Raise DeadlineExceeded in the main thread after ``seconds``."""
    if seconds is None:
        yield
        return

    def interrupt(signum, frame):
        raise DeadlineExceeded(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, interrupt)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


@dataclass
class Outcome:
    task: str
    timed: bool
    seconds: float
    status: str
    detail: str = ""


@dataclass
class Pass:
    """One run of a workload's whole task list."""

    wall: float  # summed time of the timed tasks
    outcomes: list


def classify(task: Task, code, output, error: Optional[str]) -> tuple:
    """(status, detail) of one finished task; runs its check."""
    if error is not None:
        return (DEFECT if error == task.known_defect else FAILED), error
    try:
        problem = task.check(output)
    except Exception as exc:  # a check that crashes on the output rejects it
        problem = f"check raised {type(exc).__name__}: {exc}"
    if problem is not None:
        return WRONG, problem
    if code == 0:
        return OK, ""
    exit_text = f"exit {code}"
    return (DEFECT if exit_text == task.known_defect else FAILED), exit_text


def run_pass(tasks, tracer: Optional["Tracer"] = None) -> Pass:
    """Run every task, timed; then check every output, untimed."""
    done = []
    for task in tasks:
        if tracer is not None:
            tracer.begin("task", task.name)
        start = time.perf_counter()
        try:
            with deadline(task.deadline_s):
                code, output = task.run()
            error = None
        except Exception as exc:  # a raising task is an outcome to count
            code, output, error = None, None, type(exc).__name__
        done.append((task, time.perf_counter() - start, code, output, error))
    outcomes = []
    for task, seconds, code, output, error in done:
        if tracer is not None:
            tracer.begin("check", task.name)
        outcomes.append(Outcome(task.name, task.timed, seconds,
                                *classify(task, code, output, error)))
    return Pass(sum(o.seconds for o in outcomes if o.timed), outcomes)


def measure(tasks, seconds: float, tracer: Optional["Tracer"] = None) -> tuple:
    """Closed loop of passes for about ``seconds``.

    Returns (untraced passes, traced passes).  Without a tracer every
    pass is untraced.  With one, untraced and traced passes alternate,
    so both see the same machine state.  A new pass (or pair) starts
    only if the previous one would still fit, and at least MIN_PASSES
    always run.
    """
    plain, traced = [], []
    start = time.perf_counter()
    while True:
        lap = time.perf_counter()
        plain.append(run_pass(tasks))
        if tracer is not None:
            with tracer:
                traced.append(run_pass(tasks, tracer))
        now = time.perf_counter()
        if len(plain) >= MIN_PASSES and (now - start) + (now - lap) > seconds:
            return plain, traced


def tally(passes) -> tuple:
    """(attempted, failed, correct): failed counts FAILED and WRONG."""
    outcomes = [o for p in passes for o in p.outcomes]
    failed = sum(o.status in (FAILED, WRONG) for o in outcomes)
    correct = not any(o.status == WRONG for o in outcomes)
    return len(outcomes), failed, correct


def end_to_end(passes) -> dict:
    """Per-pass wall, median and slowest task time over the timed tasks
    (each the median over passes), and the share of all tasks that
    ended OK."""
    outcomes = [o for p in passes for o in p.outcomes]
    timed = [[o.seconds for o in p.outcomes if o.timed] for p in passes]
    return {
        "wall_s": statistics.median(p.wall for p in passes),
        "task_s.p50": statistics.median(statistics.median(t) for t in timed),
        "task_s.max": statistics.median(max(t) for t in timed),
        "ok_ratio": sum(o.status == OK for o in outcomes) / len(outcomes),
    }


def self_times(spans: np.ndarray) -> np.ndarray:
    """Each span's duration minus the durations of its direct children.

    ``spans`` has the columns of ``Tracer.array``.  Children are nested
    inside their parent and, in one thread, never overlap each other, so
    this is the part of the span that no child covers.
    """
    dur = spans[:, 4] - spans[:, 3]
    parent = spans[:, 1].astype(np.int64)
    nested = parent >= 0
    covered = np.bincount(parent[nested], weights=dur[nested],
                          minlength=len(spans))
    return dur - covered


class Tracer:
    """Spans around calls into the program, recorded by patching the
    program's own module bindings.

    ``targets`` maps span names to functions; ``owners`` are the modules
    and classes whose attributes may bind them.  Entering the tracer (as
    a context manager) replaces every binding of a target in every owner
    with one wrapper, and leaving restores the originals.  ``probes``
    map span names to functions that read counts off a call's result.
    """

    COLUMNS = ("name", "parent", "label", "start", "end")

    def __init__(self, targets: dict, owners, probes: Optional[dict] = None,
                 clock=time.perf_counter):
        self.clock = clock
        self.names = list(targets)
        self.labels = [("setup", "")]
        self.spans: list = []  # [name id, parent index, label index, start, end]
        self.errors: dict = {}  # span index -> exception class name
        self.counts: list = []  # (span index, key, value)
        self._label = 0
        self._stack: list = []
        self._patches: list = []
        probes = probes or {}
        self._wrappers = {
            id(fn): (fn, self._wrap(i, fn, probes.get(name)))
            for i, (name, fn) in enumerate(targets.items())
        }
        self._owners = list({id(o): o for o in owners}.values())

    def begin(self, phase: str, name: str) -> None:
        """Attribute the spans that follow to a new label.  No span is
        open between tasks, even after one was interrupted."""
        self.labels.append((phase, name))
        self._label = len(self.labels) - 1
        self._stack.clear()

    def _wrap(self, name_id: int, fn, probe):
        tracer = self
        clock = self.clock

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._stack
            idx = len(tracer.spans)
            span = [name_id, stack[-1] if stack else -1, tracer._label, 0.0, 0.0]
            tracer.spans.append(span)
            stack.append(idx)
            span[3] = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                tracer.errors[idx] = type(exc).__name__
                raise
            finally:
                span[4] = clock()
                stack.pop()
            if probe is not None:
                for key, value in probe(result).items():
                    tracer.counts.append((idx, key, value))
            return result

        return traced

    def __enter__(self) -> "Tracer":
        if self._patches:
            raise RuntimeError("tracer is already installed")
        for owner in self._owners:
            for attr, value in list(vars(owner).items()):
                hit = self._wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    self._patches.append((owner, attr, value))
                    setattr(owner, attr, hit[1])
        return self

    def __exit__(self, *exc) -> None:
        while self._patches:
            owner, attr, value = self._patches.pop()
            setattr(owner, attr, value)

    def array(self) -> np.ndarray:
        """Spans as floats with the columns in COLUMNS."""
        return np.array(self.spans, dtype=float).reshape(-1, len(self.COLUMNS))

    def save(self, path) -> None:
        """Write spans, errors and counts as one .npz file."""
        keys = sorted({key for _, key, _ in self.counts})
        key_id = {k: i for i, k in enumerate(keys)}
        np.savez(
            path,
            spans=self.array(),
            columns=np.array(self.COLUMNS),
            names=np.array(self.names),
            labels=np.array([f"{phase}:{name}" for phase, name in self.labels]),
            errors=np.array([(i, e) for i, e in sorted(self.errors.items())],
                            dtype=str).reshape(-1, 2),
            counts=np.array([(i, key_id[k], v) for i, k, v in self.counts],
                            dtype=float).reshape(-1, 3),
            count_keys=np.array(keys, dtype=str),
        )
