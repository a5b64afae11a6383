"""Run the benchmark once per seed and report how far each metric spreads.

    python3 perfbench/spread.py --workload NAME --seeds 1-10 [--seconds 20]
        [--trace 0|1] [--out perfbench/results/NAME.json]

Spread is the distance between the first and third quartile of the
runs' values (``statistics.quantiles(values, n=4)``) as a share of
their median, the measure BENCHMARK.json's bounds are checked against.
Runs are sequential, so they do not compete for the two cores.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def seed_list(text: str) -> list:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seeds", required=True, type=seed_list, help="e.g. 1-10")
    p.add_argument("--seconds", default="20")
    p.add_argument("--trace", default="0", choices=["0", "1"])
    p.add_argument("--out")
    args = p.parse_args(argv)

    runs = []
    for seed in args.seeds:
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
             "--seed", str(seed), "--seconds", args.seconds, "--trace", args.trace],
            capture_output=True, text=True, cwd=HERE.parent, timeout=900)
        if proc.returncode != 0:
            print(proc.stdout + proc.stderr, file=sys.stderr)
            return 1
        lines = proc.stdout.strip().splitlines()
        machine = json.loads(lines[0].removeprefix("machine: "))
        result = json.loads(lines[-1])
        runs.append({"seed": seed, **result})
        print(f"seed {seed}: correct={result['correct']} attempted={result['attempted']}"
              f" failed={result['failed']}", flush=True)

    summary = {}
    for name in runs[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in runs]
        median = statistics.median(values)
        q = statistics.quantiles(values, n=4) if len(values) > 1 else [median] * 3
        summary[name] = {"median": median,
                         "spread": (q[2] - q[0]) / median if median else None,
                         "unit": runs[0]["metrics"][name]["unit"]}
        spread = summary[name]["spread"]
        print(f"{name:40s} median {median:<12.6g} spread "
              f"{'-' if spread is None else f'{spread:.4f}'}")
    if args.out:
        Path(args.out).write_text(json.dumps(
            {"workload": args.workload, "seconds": float(args.seconds),
             "trace": int(args.trace), "machine": machine, "summary": summary,
             "runs": runs}, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
