"""Self-test of the benchmark runner, ``run.py``.

    python3 bench/selftest.py

Runs every workload once untraced and once traced at a tenth of its size,
on a seed other than the default, and asserts that every output check
passed and that each run printed exactly the metrics BENCHMARK.json
declares, each a positive number. Takes about a minute on two cores.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
SEED = 11


def main() -> int:
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    declared = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    failures = []
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            proc = subprocess.run(
                [sys.executable, str(BENCH / "run.py"), "--workload", workload,
                 "--seed", str(SEED), "--seconds", "1", "--trace", str(trace),
                 "--scale", "0.1"],
                capture_output=True, text=True, timeout=300, check=False,
            )
            label = f"{workload} --trace {trace}"
            if proc.returncode != 0:
                failures.append(f"{label}: exit {proc.returncode}: {proc.stderr[-500:]}")
                continue
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            if not result["correct"] or result["failed"] or result["attempted"] < 1:
                failures.append(f"{label}: {result['failed']} of {result['attempted']} failed")
            metrics = result["metrics"]
            if {k: v["unit"] for k, v in metrics.items()} != declared[trace]:
                failures.append(f"{label}: metrics differ from BENCHMARK.json")
            failures += [f"{label}: {k} = {v['value']!r}" for k, v in metrics.items()
                         if not v["value"] > 0]
            print(f"ok {label}" if not failures else f"checked {label}", flush=True)
    for failure in failures:
        print(f"FAIL {failure}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
