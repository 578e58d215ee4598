"""Cross-check the traced run's call counts against cProfile.

    python3 perfbench/crosscheck.py [PIPELINE ARGS...]

Runs one operation (default: ``quaternionic`` at its defaults) in a fresh
process with both the span wrappers of traced.py and cProfile, then prints
each wrapped function's two call counts.  They must agree, except for
modgroup.enumerate_group: its spans count lru_cache hits, which cProfile
does not see.  Exits 1 on a disagreement.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import tempfile
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
CACHED = "modgroup.enumerate_group"


def main(argv) -> int:
    argv = argv or ["quaternionic"]
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as work:
        spans_path = Path(work) / "spans.json"
        env = dict(os.environ, PYTHONPATH=str(ROOT / "src"),
                   PERFBENCH_SPANS=str(spans_path), PERFBENCH_CPROFILE="1")
        subprocess.run([sys.executable, str(HERE / "traced.py"), *argv], env=env,
                       stdout=subprocess.DEVNULL, check=False)
        data = json.loads(spans_path.read_text())
    traced = Counter(span[0] for span in data["spans"])
    bad = 0
    print(f"{'function':<36} {'spans':>7} {'cProfile':>9}")
    for name, profiled in sorted(data["cprofile"].items()):
        ok = traced[name] >= profiled if name == CACHED else traced[name] == profiled
        bad += not ok
        print(f"{name:<36} {traced[name]:>7} {profiled:>9}" + ("" if ok else "  MISMATCH"))
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
