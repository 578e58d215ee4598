"""Run every workload once and print its metrics as a table.

    python3 perfbench/report.py [--seed N] [--seconds S] [--trace 0|1]

--trace 0 prints one row per workload with every end-to-end metric of
BENCHMARK.json and failed_ops (failed / attempted operations).
--trace 1 prints every per-layer metric, one column per workload.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def run(workload: str, seed: int, seconds: float, trace: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    out = subprocess.run(cmd, capture_output=True, text=True, check=True, cwd=HERE.parent)
    return json.loads(out.stdout.strip().splitlines()[-1])


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=SPEC["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    names = [w["name"] for w in SPEC["workloads"]]
    results = {name: run(name, args.seed, args.seconds, args.trace) for name in names}

    if args.trace == 0:
        cols = [f"{m['name']} [{m['unit']}]" for m in SPEC["end_to_end"]] + ["failed_ops [ratio]", "correct"]
        print(f"{'workload':<22}" + "".join(f"{c:>22}" for c in cols))
        for name, r in results.items():
            cells = [f"{r['metrics'][m['name']]['value']:.4f}" for m in SPEC["end_to_end"]]
            cells += [f"{r['failed'] / r['attempted']:.4f} ({r['failed']}/{r['attempted']})", str(r["correct"])]
            print(f"{name:<22}" + "".join(f"{c:>22}" for c in cells))
    else:
        print(f"{'metric [unit]':<48}" + "".join(f"{n:>22}" for n in names))
        for m in SPEC["per_layer"]:
            cells = [f"{results[n]['metrics'][m['name']]['value']:.6g}" for n in names]
            print(f"{m['name'] + ' [' + m['unit'] + ']':<48}" + "".join(f"{c:>22}" for c in cells))
        print(f"{'correct':<48}" + "".join(f"{str(results[n]['correct']):>22}" for n in names))
    return 0 if all(r["correct"] for r in results.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
