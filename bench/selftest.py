#!/usr/bin/env python3
"""Self-test of the benchmark at its smallest size.

Runs every workload once per mode (``--size smoke``, one round) and asserts:

* every run is correct and exits 0;
* ``--trace 0`` emits exactly the end-to-end metrics of BENCHMARK.json and
  ``--trace 1`` exactly its per-layer metrics, each with the listed unit;
* two traced runs of the same seed give bit-identical exact counts
  (``solver.bb.nodes``, ``solver.eccd.inner_sets``, ``solver.enum.labelings``).

Usage, from the repository root: ``python3 bench/selftest.py`` (about 30 s).
Exits 0 when every check passes, 1 otherwise.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
EXACT_COUNTS = ("solver.bb.nodes", "solver.eccd.inner_sets", "solver.enum.labelings")
SEED = 7


def run(workload: str, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(SEED),
         "--seconds", "1", "--trace", str(trace), "--size", "smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=170, check=False)
    if proc.returncode != 0:
        raise AssertionError(f"{workload} trace={trace} exited {proc.returncode}: "
                             f"{proc.stderr.strip()[-500:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def check_metrics(result: dict, declared: list[dict], where: str) -> list[str]:
    errors = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        errors.append(f"{where}: result keys {sorted(result)}")
    if not result["correct"] or result["failed"] or result["attempted"] < 1:
        errors.append(f"{where}: correct={result['correct']} failed={result['failed']} "
                      f"attempted={result['attempted']}")
    want = {m["name"]: m["unit"] for m in declared}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    if got != want:
        errors.append(f"{where}: metrics differ from BENCHMARK.json: "
                      f"missing {sorted(set(want) - set(got))}, "
                      f"extra {sorted(set(got) - set(want))}, "
                      f"unit mismatch {sorted(k for k in want if k in got and got[k] != want[k])}")
    for name, m in result["metrics"].items():
        if not isinstance(m["value"], (int, float)) or isinstance(m["value"], bool):
            errors.append(f"{where}: {name} value {m['value']!r} is not a number")
    return errors


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    errors = []
    for workload in (w["name"] for w in spec["workloads"]):
        errors += check_metrics(run(workload, 0), spec["end_to_end"], f"{workload} trace=0")
        first, second = run(workload, 1), run(workload, 1)
        errors += check_metrics(first, spec["per_layer"], f"{workload} trace=1")
        for name in EXACT_COUNTS:
            a, b = first["metrics"][name]["value"], second["metrics"][name]["value"]
            if a != b:
                errors.append(f"{workload}: {name} differs between runs: {a} != {b}")
        print(f"{workload}: " + ", ".join(
            f"{name}={first['metrics'][name]['value']}" for name in EXACT_COUNTS), flush=True)
    for error in errors:
        print(f"FAIL {error}")
    print("selftest " + ("failed" if errors else "passed"))
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
