"""Run a workload over several seeds and summarise each metric.

    python3 perfbench/spread.py --workload transit --seeds 10

Runs seeds 0 to ``--seeds`` − 1 untraced, one at a time.  Prints every
run's result line, then per metric the median, the first and third
quartiles (``statistics.quantiles(values, n=4)``) and their distance as
a share of the median, which is the spread the bounds in
``BENCHMARK.json`` are set against.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seeds", type=int, default=10)
    args = p.parse_args(argv)
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        seconds = json.load(fh)["run_seconds"]
    values: dict[str, list[float]] = {}
    shares = set()
    for seed in range(args.seeds):
        cmd = [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", args.workload,
               "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=True)
        line = proc.stdout.strip().splitlines()[-1]
        print(f"seed {seed}: {line}", flush=True)
        res = json.loads(line)
        if not res["correct"]:
            print(proc.stderr, file=sys.stderr)
        shares.add((res["failed"], res["attempted"]))
        for name, m in res["metrics"].items():
            values.setdefault(name, []).append(m["value"])
    print(f"failed/attempted seen: {sorted(shares)}")
    for name, vals in values.items():
        med = statistics.median(vals)
        if len(vals) >= 2:
            q1, _, q3 = statistics.quantiles(vals, n=4)
        else:
            q1 = q3 = vals[0]
        spread = (q3 - q1) / med if med else 0.0
        print(f"{name:40s} median {med:.6g}  q1 {q1:.6g}  q3 {q3:.6g}  spread {spread:.4f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
