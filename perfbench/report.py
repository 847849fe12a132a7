"""Run every workload in BENCHMARK.json and print each metric with its unit.

    python3 perfbench/report.py [--seed 42] [--trace 0|1]

Each workload runs as its own ``run.py`` process for ``run_seconds``.  Prints
one ``<workload> <metric> <value> <unit>`` line per metric plus the workload's
``error_rate`` (failed over attempted markets); exits 1 if any run failed.
"""

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    status = 0
    for workload in spec["workloads"]:
        name = workload["name"]
        proc = subprocess.run(
            [*spec["command"], "--workload", name, "--seed", str(args.seed),
             "--seconds", str(spec["run_seconds"]), "--trace", str(args.trace)],
            cwd=ROOT, capture_output=True, text=True)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0:
            status = 1
        if not lines or not lines[-1].startswith("{"):
            print(f"{name} FAILED with exit code {proc.returncode}\n{proc.stderr}")
            continue
        result = json.loads(lines[-1])
        for metric, m in result["metrics"].items():
            print(f"{name} {metric} {m['value']:.6g} {m['unit']}")
        print(f"{name} error_rate {result['failed'] / result['attempted']:.6g} ratio")
    return status


if __name__ == "__main__":
    sys.exit(main())
