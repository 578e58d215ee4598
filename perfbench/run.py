"""covercert benchmark: one workload, closed loop, one client.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere inside a source checkout; the package is imported from
its src/ directory, never from an installed copy.  A workload is a fixed
list of operations (gate.Operation), each one ``covercert`` CLI call in a
fresh process, run one at a time.  The whole list is repeated until
--seconds would be exceeded (at least twice with --trace 0, so every
operation's output is compared against a second run).

--trace 0 reports the end-to-end metrics of BENCHMARK.json:
  wall_s       median wall time of one pass over the list
  cpu_s        median user+sys CPU of the operation processes of one pass
  peak_rss_mb  median over passes of the largest max-RSS of any operation
  setup_s      median time for a fresh interpreter to import covercert.cli,
               sampled before every pass so the samples span the run
--trace 1 alternates an untraced pass with a traced one (traced.py) and
reports the per-layer metrics of BENCHMARK.json from the traced passes.

Every operation goes through the correctness gate; the last stdout line
is a JSON object with keys correct, attempted, failed and metrics.  A
failure the workload records as a known program defect counts in failed
but does not make correct false.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path

from gate import Gate, Result
from workloads import WORKLOADS, build

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_SAMPLES_PER_PASS = 3
MIN_PASSES = 2
HARD_LIMIT_S = 170.0  # the whole run must end within 180 s


class Runner:
    def __init__(self, work: Path, started: float):
        self.work = work
        self.started = started
        self.env = dict(os.environ, PYTHONPATH=str(SRC))
        self.env.pop("PERFBENCH_CPROFILE", None)

    def spawn(self, cmd, extra_env=None):
        """Run cmd to completion; returns (Result, wall seconds, rusage)."""
        env = dict(self.env, **(extra_env or {}))
        timeout = max(1.0, HARD_LIMIT_S - (time.perf_counter() - self.started))
        out_path, err_path = self.work / "stdout", self.work / "stderr"
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            t0 = time.perf_counter()
            proc = subprocess.Popen(cmd, stdout=out, stderr=err, env=env, cwd=ROOT)
            killed = threading.Event()

            def kill():
                killed.set()
                proc.kill()

            timer = threading.Timer(timeout, kill)
            timer.start()
            _, status, usage = os.wait4(proc.pid, 0)
            wall = time.perf_counter() - t0
            timer.cancel()
        proc.returncode = os.waitstatus_to_exitcode(status)
        result = Result(proc.returncode, out_path.read_bytes(), err_path.read_bytes(),
                        timed_out=killed.is_set())
        return result, wall, usage


def python_cmd(code: str) -> list[str]:
    return [sys.executable, "-c", code]


CLI = "import sys; from covercert.cli import main; sys.exit(main())"


@dataclass
class Pass:
    """One pass over a workload's operation list."""

    wall: float = 0.0
    cpu: float = 0.0
    rss_mb: float = 0.0
    op_walls: list = field(default_factory=list)
    failures: list = field(default_factory=list)  # (operation, [Failure])
    spans: list = field(default_factory=list)  # per operation, traced passes only


def run_pass(runner: Runner, gate: Gate, ops, traced: bool) -> Pass:
    p = Pass()
    spans_path = runner.work / "spans.json"
    t0 = time.perf_counter()
    for op in ops:
        if traced:
            cmd = [sys.executable, str(HERE / "traced.py"), *op.argv]
            res, wall, usage = runner.spawn(cmd, {"PERFBENCH_SPANS": str(spans_path)})
        else:
            res, wall, usage = runner.spawn(python_cmd(CLI) + list(op.argv))
        p.op_walls.append(wall)
        p.cpu += usage.ru_utime + usage.ru_stime
        p.rss_mb = max(p.rss_mb, usage.ru_maxrss / 1024)
        failures = gate.check(op, res)
        if failures:
            p.failures.append((op, failures))
        if traced:
            data = json.loads(spans_path.read_text()) if spans_path.exists() else {"spans": []}
            spans_path.unlink(missing_ok=True)
            p.spans.append(data["spans"])
    p.wall = time.perf_counter() - t0
    return p


def check_import(runner: Runner) -> None:
    """covercert must come from this checkout; the import also writes the
    bytecode cache, which users pay only once."""
    res, _, _ = runner.spawn(python_cmd("import covercert.cli; print(covercert.__file__)"))
    where = Path(res.stdout.decode().strip() or ".").resolve()
    if res.exit_code != 0 or SRC not in where.parents:
        raise SystemExit(f"error: covercert.cli does not import from {SRC}")


def setup_samples(runner: Runner) -> list[float]:
    """Times for a fresh interpreter to import covercert.cli and exit."""
    samples = []
    for _ in range(SETUP_SAMPLES_PER_PASS):
        res, wall, _ = runner.spawn(python_cmd("import covercert.cli"))
        if res.exit_code != 0:
            raise SystemExit("error: importing covercert.cli failed")
        samples.append(wall)
    return samples


def layer_metrics(p: Pass) -> dict:
    """Per-layer values of one traced pass: <span>.calls, .self_s, .total_s
    and .elements (sum of the span counters), plus the derived ones."""
    out = defaultdict(float)
    modulus = 0
    for spans, op_wall in zip(p.spans, p.op_walls):
        child = [0.0] * len(spans)
        for name, parent, start, end, count in spans:
            if parent >= 0:
                child[parent] += end - start
        main_s = 0.0
        for i, (name, parent, start, end, count) in enumerate(spans):
            out[f"{name}.calls"] += 1
            out[f"{name}.total_s"] += end - start
            out[f"{name}.self_s"] += end - start - child[i]
            out[f"{name}.elements"] += count
            if name.startswith("commens."):
                modulus = max(modulus, count)
            if name == "cli.main":
                main_s += end - start
        out["process.overhead_s"] += op_wall - main_s
    out["commens.max_working_modulus"] = modulus
    return out


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def describe(label: str, values) -> str:
    """Median and quartiles, and the highest percentile that has at least
    ten samples beyond it, if the sample count supports one."""
    q1, med, q3 = quartiles(values)
    n = len(values)
    tail = (f"p{int(100 * (1 - 10 / n))} {sorted(values)[n - 11]:.4f}" if n >= 20
            else "no percentile has 10 samples beyond it")
    return f"  {label:<12} median {med:.4f}  q1 {q1:.4f}  q3 {q3:.4f}  n={n}; {tail}"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    started = time.perf_counter()

    schema_path = SRC / "covercert" / "certificate_schema.json"
    spec_path = ROOT / "BENCHMARK.json"
    if not (SRC / "covercert" / "cli.py").is_file() or not schema_path.is_file() or not spec_path.is_file():
        print(f"error: no covercert source tree at {SRC}", file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text())
    gate = Gate(json.loads(schema_path.read_text()))
    ops = build(args.workload, args.seed)

    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as work:
        runner = Runner(Path(work), started)
        check_import(runner)
        t0 = time.perf_counter()
        plain, traced, setup = [], [], []
        while True:
            if args.trace == 0:
                setup += setup_samples(runner)
            plain.append(run_pass(runner, gate, ops, traced=False))
            if args.trace:
                traced.append(run_pass(runner, gate, ops, traced=True))
            elapsed = time.perf_counter() - t0
            per_pass = elapsed / len(plain)
            enough = len(plain) >= (1 if args.trace else MIN_PASSES)
            if (enough and elapsed + per_pass > args.seconds) or \
                    time.perf_counter() - started + per_pass > HARD_LIMIT_S:
                break

    everything = plain + traced
    attempted = len(ops) * len(everything)
    failed = sum(len(p.failures) for p in everything)
    unexpected = 0
    print(f"workload {args.workload} seed {args.seed}: {len(plain)} untraced and "
          f"{len(traced)} traced passes over {len(ops)} operations")
    for p in everything:
        for op, failures in p.failures:
            known = op.known_defect and all(f.kind == "answer" for f in failures)
            unexpected += not known
            for f in failures:
                print(f"  FAIL [{f.kind}] {op.label}: {f.detail}"
                      + (f" (known defect: {op.known_defect})" if known else ""))
    print(f"  failed_ops   {failed}/{attempted} = {failed / attempted:.4f} ratio")

    if args.trace == 0:
        samples = {
            "wall_s": [p.wall for p in plain],
            "cpu_s": [p.cpu for p in plain],
            "peak_rss_mb": [p.rss_mb for p in plain],
            "setup_s": setup,
        }
        for name, values in samples.items():
            print(describe(name, values))
        for i, op in enumerate(ops):
            print(describe("op wall_s", [p.op_walls[i] for p in plain]) + f"  {op.label}")
        values = {name: statistics.median(v) for name, v in samples.items()}
        wanted = spec["end_to_end"]
    else:
        layers = [layer_metrics(p) for p in traced]
        values = {name: statistics.median(d.get(name, 0.0) for d in layers)
                  for name in set().union(*layers)}
        values["trace.overhead_s"] = (statistics.median(p.wall for p in traced)
                                      - statistics.median(p.wall for p in plain))
        wanted = spec["per_layer"]
    metrics = {}
    for m in wanted:
        value = values.get(m["name"], 0)
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
        print(f"  {m['name']:<42} {value:.6g} {m['unit']}")
    print(json.dumps({"correct": unexpected == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
