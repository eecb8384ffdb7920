#!/usr/bin/env python3
"""Smoke test of the benchmark itself: one operation per workload.

For every workload it runs the untraced benchmark once and the traced one
twice, each with a single operation, and checks that

* every end-to-end and per-layer metric of BENCHMARK.json is printed with its unit,
* every output check passed,
* the counts scheme.nm.nfev, bound.polish.nfev, bound.grid.points and
  mc.fit.calls repeat exactly across the two traced runs,
* the bound reads zero calls on outside_regime and mc_oracle.

Run from the repository root; exits non-zero on the first failed check:

    python3 perfbench/smoke.py
"""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUN = Path(__file__).resolve().parent / "run.py"
REPEATED_COUNTS = ("scheme.nm.nfev", "bound.polish.nfev", "bound.grid.points", "mc.fit.calls")
WORKLOADS = ("certify", "outside_regime", "mc_oracle")


def run(workload: str, trace: int) -> dict:
    command = [sys.executable, str(RUN), "--workload", workload, "--seed", "0", "--seconds", "0", "--trace", str(trace), "--smoke"]
    proc = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=170, check=False)
    if proc.returncode != 0:
        raise SystemExit(f"{workload} trace={trace}: exit code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def expect(condition: bool, message: str) -> None:
    if not condition:
        raise SystemExit(f"FAIL: {message}")


def check_metrics(result: dict, declared: list[dict], where: str) -> None:
    expect(result["correct"] and result["failed"] == 0 and result["attempted"] >= 1, f"{where}: {result}")
    for metric in declared:
        got = result["metrics"].get(metric["name"])
        expect(got is not None, f"{where}: metric {metric['name']} missing")
        expect(got["unit"] == metric["unit"], f"{where}: {metric['name']} unit {got['unit']!r}")


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    for workload in WORKLOADS:
        check_metrics(run(workload, 0), spec["end_to_end"], f"{workload} untraced")
        first, second = run(workload, 1), run(workload, 1)
        for result in (first, second):
            check_metrics(result, spec["per_layer"], f"{workload} traced")
        for name in REPEATED_COUNTS:
            a, b = first["metrics"][name]["value"], second["metrics"][name]["value"]
            expect(a == b, f"{workload}: {name} differs across runs ({a} != {b})")
        if workload != "certify":
            expect(first["metrics"]["bound.lower_bound.calls"]["value"] == 0, f"{workload}: bound was called")
        print(f"ok {workload}: " + ", ".join(f"{n}={first['metrics'][n]['value']:g}" for n in REPEATED_COUNTS))
    return 0


if __name__ == "__main__":
    sys.exit(main())
