"""Runs the benchmark once per seed and summarises each metric.

    python3 perfbench/repeat.py --workload certify --seeds 1-10 --seconds 40 --label a

For every metric it prints the median, the first and third quartiles
(statistics.quantiles(values, n=4)) and the spread, (Q3 - Q1) / median.
The raw results go to .perfbench_out/repeat-<workload>-<label>.json.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", default="40")
    parser.add_argument("--label", default="run")
    args = parser.parse_args()

    runs = []
    for seed in seeds(args.seeds):
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", args.workload,
             "--seed", str(seed), "--seconds", args.seconds, "--trace", "0"],
            cwd=ROOT, capture_output=True, text=True, timeout=180)
        if proc.returncode != 0:
            print(proc.stderr, file=sys.stderr)
            return 1
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        result["seed"] = seed
        runs.append(result)
        print(f"seed {seed}: correct={result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']}", flush=True)

    out = ROOT / ".perfbench_out"
    out.mkdir(exist_ok=True)
    (out / f"repeat-{args.workload}-{args.label}.json").write_text(json.dumps(runs, indent=1))
    print(f"{'metric':40s} {'median':>12s} {'Q1':>12s} {'Q3':>12s} {'spread':>7s}")
    for name in runs[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in runs]
        med = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
        spread = (q3 - q1) / med if med else 0.0
        print(f"{name:40s} {med:12.5g} {q1:12.5g} {q3:12.5g} {spread:7.3f}")
    shares = {r["failed"] / r["attempted"] for r in runs}
    print(f"failed share: {sorted(shares)}; all correct: {all(r['correct'] for r in runs)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
