"""Fast self-check of the benchmark at toy size.

Run from the repository root:

    python3 bench/selfcheck.py

For every workload, listed in BENCHMARK.json or not, it runs the
benchmark at toy size untraced and traced, and checks that the last stdout
line carries exactly the metrics BENCHMARK.json names, each a finite number
with its unit, that the written report holds every end-to-end metric, and
that the quality metrics of the untraced and the traced run of one seed are
identical. It then corrupts one output per workload and checks that the
corruption is counted in ``failed`` and ``error_frac``. Exits 1 on the
first problem.
"""

from __future__ import annotations

import json
import math
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUN = [sys.executable, str(ROOT / "bench" / "run.py")]
SEED = 3
# fixed by the seed: two runs of one seed must agree exactly
QUALITY = ("success_frac", "feasible_frac", "makespan_excess", "deviation_da", "energy_gap")


class CheckFailed(Exception):
    pass


def require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def run(workload: str, trace: int, *extra: str) -> dict:
    proc = subprocess.run(
        RUN + ["--workload", workload, "--seed", str(SEED), "--seconds", "1",
               "--trace", str(trace), "--toy", *extra],
        cwd=ROOT, text=True, capture_output=True, timeout=170,
    )
    require(proc.returncode == 0, f"{workload}: exit {proc.returncode}\n{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def check_metrics(workload: str, result: dict, expected: dict) -> None:
    require(set(result) == {"correct", "attempted", "failed", "metrics"}, f"{workload}: keys {list(result)}")
    require(result["attempted"] >= 1, f"{workload}: nothing attempted")
    got = result["metrics"]
    require(set(got) == set(expected), f"{workload}: metrics differ in {sorted(set(got) ^ set(expected))}")
    for name, metric in got.items():
        require(metric["unit"] == expected[name], f"{workload}: unit of {name}")
        value = metric["value"]
        require(isinstance(value, (int, float)) and math.isfinite(value), f"{workload}: {name}={value!r}")


def main() -> int:
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(ROOT / "bench"))
    import run as bench

    from workloads import WORKLOADS

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    end_to_end = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    listed = {w["name"] for w in spec["workloads"]}
    for m in spec["end_to_end"]:
        require(bench.REPORT.get(m["name"]) == (m["unit"], m["better"]), f"{m['name']}: unit or direction differs")
    require(listed <= set(WORKLOADS), f"BENCHMARK.json names unknown workloads {listed - set(WORKLOADS)}")
    for name in WORKLOADS:
        result = run(name, 0)
        check_metrics(name, result, end_to_end)
        require(result["correct"] and result["failed"] == 0, f"{name}: clean run failed")
        report = json.loads((bench.OUT / f"report-{name}-seed{SEED}-trace0.json").read_text())["report"]
        require(set(bench.REPORT) <= set(report), f"{name}: report lacks {set(bench.REPORT) - set(report)}")

        result = run(name, 1)
        check_metrics(name, result, per_layer)
        require(result["correct"], f"{name}: traced run failed")
        again = json.loads((bench.OUT / f"report-{name}-seed{SEED}-trace1.json").read_text())["report"]
        for metric in QUALITY:
            require(again[metric] == report[metric], f"{name}: {metric} differs between runs of one seed")

        result = run(name, 0, "--corrupt")
        require(not result["correct"] and result["failed"] >= 1, f"{name}: corruption went unnoticed")
        report = json.loads((bench.OUT / f"report-{name}-seed{SEED}-trace0.json").read_text())["report"]
        require(report["error_frac"] == result["failed"] / result["attempted"] > 0.0,
                f"{name}: error_frac {report['error_frac']} does not count the corruption")
        print(f"ok {name}: {len(end_to_end)} gated, {len(bench.REPORT)} reported, "
              f"{len(per_layer)} per-layer metrics; corruption counted "
              f"({result['failed']}/{result['attempted']})")
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except CheckFailed as exc:
        print(f"self-check failed: {exc}", file=sys.stderr)
        sys.exit(1)
