"""ckblowup benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs one workload (see README.md) in this process, from the package
source in ``src/`` next to this directory.  Set-up runs SETUP_REPS
times, writing its input files from a child process; then passes over
the task list run for about S seconds.  With ``--trace 0`` the last
stdout line is the end-to-end result; with ``--trace 1`` set-up runs
once in this process, untraced and traced passes alternate, the last
line is the per-layer result, and the spans are written to
``perfbench/_out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
SETUP_REPS = 3
WORKLOADS = ("linking", "factor", "certify", "search")
END_TO_END = (
    ("wall_s", "s"),
    ("task_s.p50", "s"),
    ("task_s.max", "s"),
    ("ok_ratio", "ratio"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)


def machine() -> dict:
    out = {"nproc": os.cpu_count(), "python": platform.python_version()}
    for pkg in ("numpy", "scipy"):
        try:
            out[pkg] = metadata.version(pkg)
        except metadata.PackageNotFoundError:
            out[pkg] = None
    return out


# Run in a child interpreter: argv is SRC, HERE, workload, seed, workdir.
CHILD = """\
import sys
from pathlib import Path
src, here, workload, seed, workdir = sys.argv[1:]
sys.path[:0] = [src, here]
import workloads
workloads.WORKLOADS[workload][0](int(seed), Path(workdir))
"""


def write_inputs(workload: str, seed: int, workdir: Path) -> None:
    """Write the workload's input files from a child interpreter and
    wait for it, so that the generated graphs and their JSON text never
    count in this process's peak RSS.  The child is a plain subprocess:
    multiprocessing would also start a resource tracker that outlives
    the run."""
    proc = subprocess.run(
        [sys.executable, "-c", CHILD, str(SRC), str(HERE), workload,
         str(seed), str(workdir)],
        check=False)
    if proc.returncode != 0:
        raise RuntimeError(f"writing the inputs failed with exit code {proc.returncode}")


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    start = time.perf_counter()
    sys.path.insert(0, str(SRC))
    try:
        import ckblowup
    except ImportError as exc:
        print(f"error: cannot import ckblowup from {SRC}: {exc}", file=sys.stderr)
        return 2
    if Path(ckblowup.__file__).resolve().parent.parent != SRC:
        print(f"error: ckblowup comes from {ckblowup.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    import harness
    import layers
    import workloads
    import_s = time.perf_counter() - start

    inputs, make_tasks = workloads.WORKLOADS[args.workload]
    workdir = HERE / "_work" / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        if args.trace:
            tracer = harness.Tracer(layers.targets(), layers.owners(), layers.PROBES)
            with tracer:
                if inputs is not None:
                    inputs(args.seed, workdir)
                tasks = make_tasks(args.seed, workdir)
            plain, traced = harness.measure(tasks, args.seconds, tracer)
            overhead = (statistics.median(p.wall for p in traced)
                        - statistics.median(p.wall for p in plain))
            metrics = layers.layer_metrics(tracer, len(traced), overhead)
            passes = plain + traced
            out = HERE / "_out"
            out.mkdir(exist_ok=True)
            tracer.save(out / f"{args.workload}-seed{args.seed}.npz")
        else:
            setup_times = []
            for _ in range(SETUP_REPS):
                t0 = time.perf_counter()
                if inputs is not None:
                    write_inputs(args.workload, args.seed, workdir)
                tasks = make_tasks(args.seed, workdir)
                setup_times.append(time.perf_counter() - t0)
            passes, _ = harness.measure(tasks, args.seconds)
            values = harness.end_to_end(passes)
            values["setup_s"] = import_s + statistics.median(setup_times)
            # ru_maxrss is in KiB on Linux; the input writers ran in
            # children, so this is the peak of the tasks and warm-up
            values["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
            metrics = {name: {"value": values[name], "unit": unit}
                       for name, unit in END_TO_END}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted, failed, correct = harness.tally(passes)
    print(f"machine: {json.dumps(machine(), sort_keys=True)}")
    print(f"workload {args.workload}, seed {args.seed}: {len(passes)} passes of "
          f"{len(tasks)} tasks")
    for i, task in enumerate(tasks):
        runs = [p.outcomes[i] for p in passes]
        status = sorted({f"{o.status} {o.detail}".strip() for o in runs})
        print(f"  task {task.name}: {statistics.median(o.seconds for o in runs):.4g} s,"
              f" {', '.join(status)}", file=sys.stderr)
    for name, m in metrics.items():
        print(f"  {name} = {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
