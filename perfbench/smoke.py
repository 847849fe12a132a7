"""Smoke test of the benchmark at tiny sizes; run from the repository root:

    python3 perfbench/smoke.py

It checks that each tracing mode emits exactly the metrics BENCHMARK.json
declares, that a CSV corrupted on purpose and a digest pin that does not
match both fail the output check with a non-zero exit code, and that the
benchmark refuses to run in a directory without the conematch sources.
Exits 0 when every check passes.  Takes well under a minute.
"""

import contextlib
import dataclasses
import io
import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import bench  # noqa: E402
import workloads  # noqa: E402
from conematch import cli  # noqa: E402

SEED = 3


def check(ok: bool, what: str) -> None:
    if not ok:
        sys.exit(f"smoke: FAIL  {what}")
    print(f"smoke: ok    {what}")


def quiet_emit(result: dict) -> int:
    with contextlib.redirect_stdout(io.StringIO()):
        return bench.emit(result)


def metric_names() -> None:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    check(sorted(w["name"] for w in spec["workloads"]) == sorted(workloads.WORKLOADS),
          "workload names match BENCHMARK.json")
    for traced, key, units in ((False, "end_to_end", bench.END_TO_END),
                               (True, "per_layer", bench.per_layer_units())):
        declared = {m["name"]: m["unit"] for m in spec[key]}
        check(declared == units, f"{key} names and units match the code")
        for wl in workloads.TINY.values():
            result = bench.run(wl, SEED, 0.1, traced)
            check(result["failed"] == 0 and quiet_emit(result) == 0
                  and set(result["metrics"]) == set(declared),
                  f"{wl.name} --trace {int(traced)} passes and emits every {key} metric")


def corrupted_csv_fails() -> None:
    real = cli.run_campaign
    campaigns = []

    def corrupting(campaign):
        rc = real(campaign)
        campaigns.append(campaign)
        if len(campaigns) > 1:        # the reference campaign stays intact
            victim = sorted(campaign.out_dir.glob("*.csv"))[0]
            victim.write_bytes(victim.read_bytes().replace(b",", b";", 1))
        return rc

    cli.run_campaign = corrupting
    try:
        result = bench.run(workloads.TINY["paper-campaign"], SEED, 0.1, False)
    finally:
        cli.run_campaign = real
    check(result["failed"] == result["attempted"] - result["markets_per_campaign"]
          and quiet_emit(result) == 1,
          "a corrupted CSV fails every timed campaign and the exit code")


def wrong_pin_fails() -> None:
    # the pins hold the full-size digests, which a tiny campaign cannot match
    wl = dataclasses.replace(workloads.TINY["wide-cone"], pinned=True)
    result = bench.run(wl, workloads.DEFAULT_SEED, 0.1, False)
    check(result["failed"] > 0 and quiet_emit(result) == 1
          and any("pinned" in p for p in result["problems"]),
          "CSVs that differ from the pinned digests fail")


def bare_directory_fails() -> None:
    bare = bench.WORK / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    proc = subprocess.run(
        [sys.executable, f"{HERE.name}/run.py", "--workload", "wide-cone",
         "--seed", str(SEED), "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=180)
    shutil.rmtree(bare)
    check(proc.returncode != 0 and not proc.stdout.strip(),
          "without the sources the benchmark exits non-zero and prints nothing")


if __name__ == "__main__":
    metric_names()
    corrupted_csv_fails()
    wrong_pin_fails()
    bare_directory_fails()
    print("smoke: all checks passed")
