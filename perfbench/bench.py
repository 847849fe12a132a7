"""Campaign benchmark: runs one workload's ``cli.run_campaign`` for a fixed
time, checks every CSV it writes, and reports metrics as one JSON line.

Each run first makes one untimed reference campaign in the other tracing
mode; it warms the process up, and every timed campaign must write CSVs
byte-identical to it (and, at the default seed, to the digests pinned in
``digests.json``).  ``summary.txt`` is left out because it records wall
times.  Then it repeats the campaign, with the same seed, for ``seconds``,
and times the reference kernel of ``refkernel.py`` between campaigns.  The
end-to-end time is the median over the campaigns of each one's wall time in
units of the kernel timings around it; on a shared host that is far steadier
than the wall time.

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` runs the timed
campaigns with spans on every layer entry point and reports the per-layer
metrics, then the untimed counting pass.  Failures are counted in markets:
a campaign that exits non-zero, raises, or writes CSVs that fail the check
fails all its markets; a counting-pass cross-check mismatch fails one.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path
from typing import Dict, List, Optional

import numpy as np

import refkernel
import spans
import workloads
from conematch import cli

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench"
SETUP_PROBES = 9

END_TO_END = {"wall_ref": "ref", "markets_per_ref": "1/ref",
              "peak_rss_mb": "MB", "setup_s": "s"}
# layers every workload calls; the audits and deviation probes that only
# some workloads reach are reported by call count and in the breakdown
TIMED_LAYERS = ("market.generate", "strategy.assign", "strategy.prefs",
                "da.solve", "analysis.blocking", "metrics.run_stats",
                "metrics.aggregate", "metrics.csv")
COUNTED_LAYERS = ("analysis.uniqueness", "analysis.rural",
                  "double_cut.dominance", "deviation.evaluate")
COUNT_UNITS = {"strategy.cone_members": "count",
               "strategy.interview_edges": "count",
               "strategy.kept_ratio": "ratio",
               "strategy.empty_cones": "count",
               "strategy.assign_peak_mb": "MB",
               "rng.draws": "count",
               "da.proposals": "count",
               "da.displacements": "count",
               "da.accept_ratio": "ratio",
               "deviation.patched_runs": "count",
               "deviation.identical_ratio": "ratio"}


def per_layer_units() -> Dict[str, str]:
    units = {}
    for layer in TIMED_LAYERS:
        units.update({f"{layer}_ms": "ms", f"{layer}_tail_ms": "ms",
                      f"{layer}_calls": "count"})
    units["cli.self_ms"] = "ms"
    units.update({f"{layer}_calls": "count" for layer in COUNTED_LAYERS})
    units.update(COUNT_UNITS)
    units.update({"trace.overhead": "ratio", "trace.traced_wall_s": "s",
                  "trace.untraced_wall_s": "s"})
    return units


def csv_digests(out_dir: Path) -> Dict[str, str]:
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(out_dir.glob("*.csv"))}


def pinned_digests(wl: workloads.Workload, seed: int) -> Optional[Dict[str, str]]:
    if not wl.pinned or seed != workloads.DEFAULT_SEED:
        return None
    pins = json.loads((HERE / "digests.json").read_text())
    return pins[wl.name]


def campaign_once(wl: workloads.Workload, seed: int, out_dir: Path,
                  tracer: Optional[spans.Tracer]):
    """One run_campaign call: (wall_s, markets, exit code or None, digests)."""
    shutil.rmtree(out_dir, ignore_errors=True)
    campaign = wl.campaign(seed, out_dir)
    rc = None
    with tracer.installed() if tracer else contextlib.nullcontext():
        run = tracer.wrap(spans.ROOT, cli.run_campaign) if tracer \
            else cli.run_campaign
        start = time.perf_counter()
        try:
            rc = run(campaign)
        except Exception:
            traceback.print_exc()
        wall = time.perf_counter() - start
    return wall, wl.markets(campaign), rc, csv_digests(out_dir)


def setup_times(name: str, seed: int) -> List[float]:
    """Launch-to-ready times of fresh processes that set the campaign up."""
    samples = []
    for i in range(SETUP_PROBES + 1):
        start = time.perf_counter()
        with subprocess.Popen([sys.executable, str(HERE / "setup_probe.py"),
                               name, str(seed)],
                              stdout=subprocess.PIPE, cwd=ROOT, text=True) as proc:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - start
            proc.stdout.read()
            rc = proc.wait(timeout=120)
        if line.strip() != "ready" or rc != 0:
            raise RuntimeError(f"set-up probe failed with exit code {rc}")
        if i:       # the first probe also writes bytecode caches
            samples.append(elapsed)
    return samples


def environment() -> dict:
    env = {"nproc": os.cpu_count(),
           "python": platform.python_version(),
           "numpy": np.__version__,
           "cpu": "unknown", "caches": {}, "commit": "unknown"}
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                env["cpu"] = line.split(":", 1)[1].strip()
                break
    with contextlib.suppress(OSError):
        for idx in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
            kind = (idx / "type").read_text().strip()
            if kind != "Instruction":
                level = (idx / "level").read_text().strip()
                env["caches"][f"L{level}"] = (idx / "size").read_text().strip()
    with contextlib.suppress(OSError):
        head = (ROOT / ".git" / "HEAD").read_text().strip()
        if head.startswith("ref: "):
            head = (ROOT / ".git" / head[5:]).read_text().strip()
        env["commit"] = head
    return env


class Judge:
    """Counts attempted and failed markets and keeps the reasons."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: List[str] = []

    def campaign(self, label: str, markets: int, rc, got: Dict[str, str],
                 want: Optional[Dict[str, str]], against: str) -> None:
        self.attempted += markets
        errors = []
        if rc != cli.EXIT_OK:
            errors.append(f"exit code {rc}")
        if not got:
            errors.append("no CSV written")
        elif want is not None and got != want:
            differ = sorted(n for n in set(got) | set(want)
                            if got.get(n) != want.get(n))
            errors.append(f"CSVs differ from {against}: {', '.join(differ)}")
        if errors:
            self.failed += markets
            self.problems.append(f"{label}: {'; '.join(errors)}")


def measure(wl: workloads.Workload, seed: int, seconds: float, traced: bool,
            work: Path) -> dict:
    judge = Judge()
    out = work / "out"
    pins = pinned_digests(wl, seed)

    _, markets, rc, ref = campaign_once(
        wl, seed, out, None if traced else spans.Tracer())
    judge.campaign(f"reference campaign ({'un' if traced else ''}traced)",
                   markets, rc, ref, pins, f"the digests pinned for seed {seed}")
    # read before the reference kernel's 40 MB of inputs exist
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    # a traced run alternates traced and untraced campaigns, so that the
    # tracing overhead compares walls taken under the same conditions; the
    # loop stops before a campaign that would end past the deadline
    tracer = spans.Tracer() if traced else None
    walls: Dict[bool, List[float]] = {True: [], False: []}
    kernel_s = [refkernel.timing()]
    deadline = time.perf_counter() + seconds
    while True:
        on = traced and len(walls[True]) <= len(walls[False])
        wall, markets, rc, got = campaign_once(wl, seed, out,
                                               tracer if on else None)
        kernel_s.append(refkernel.timing())
        walls[on].append(wall)
        judge.campaign(f"timed campaign {len(walls[True]) + len(walls[False])}",
                       markets, rc, got, ref, "the reference campaign")
        if time.perf_counter() + wall > deadline and (walls[False] or not traced):
            break

    timed = walls[traced]
    ordered = sorted(timed)
    level = spans.tail_level(len(ordered))
    result = {"workload": wl.name, "seed": seed, "trace": int(traced),
              "campaigns": len(timed), "markets_per_campaign": markets,
              "walls_s": timed, "wall_p50_s": spans.percentile(ordered, 50.0),
              "wall_tail_pct": level,
              "wall_tail_s": spans.percentile(ordered, level),
              "kernel_s": kernel_s,
              "digests": ref, "environment": environment()}
    if not traced:
        # each campaign against the mean of the kernel timings just before
        # and just after it, which saw the same host speed
        wall_ref = statistics.median(
            wall / statistics.fmean(kernel_s[i:i + 2])
            for i, wall in enumerate(walls[False]))
        result["metrics"] = {
            "wall_ref": wall_ref,
            "markets_per_ref": markets / wall_ref,
            "peak_rss_mb": peak_rss_mb,
            "setup_s": statistics.median(setup_times(wl.name, seed)),
        }
    else:
        tracer.write(work / "spans.csv")
        layers = spans.breakdown(tracer.spans)
        campaigns = len(timed)
        values = {}
        for layer in TIMED_LAYERS:
            row = layers.get(layer, {"calls": 0, "p50_ms": 0.0, "tail_ms": 0.0})
            values[f"{layer}_ms"] = row["p50_ms"]
            values[f"{layer}_tail_ms"] = row["tail_ms"]
            values[f"{layer}_calls"] = row["calls"] / campaigns
        values["cli.self_ms"] = layers[spans.ROOT]["self_s"] * 1000 / campaigns
        for layer in COUNTED_LAYERS:
            values[f"{layer}_calls"] = layers.get(layer, {"calls": 0})["calls"] / campaigns
        campaign = wl.campaign(seed, out)
        counts, problems = spans.count_pass(campaign, tracer.deviation_specs)
        judge.attempted += len(campaign.configs)
        judge.failed += len(problems)
        judge.problems.extend(problems)
        values.update(counts)
        wall_s = statistics.median(walls[True])
        untraced = statistics.median(walls[False])
        values.update({"trace.overhead": wall_s / untraced,
                       "trace.traced_wall_s": wall_s,
                       "trace.untraced_wall_s": untraced})
        result["metrics"] = values
        result["breakdown"] = layers
    result.update(attempted=judge.attempted, failed=judge.failed,
                  problems=judge.problems)
    return result


def print_report(result: dict, units: Dict[str, str]) -> None:
    env = result["environment"]
    caches = " ".join(f"{k}={v}" for k, v in env["caches"].items())
    print(f"# {result['workload']} seed={result['seed']} trace={result['trace']}"
          f" campaigns={result['campaigns']}"
          f" markets/campaign={result['markets_per_campaign']}")
    print(f"# campaign wall: min {min(result['walls_s']):.3f} s, p50 "
          f"{result['wall_p50_s']:.3f} s, p{result['wall_tail_pct']:g} "
          f"{result['wall_tail_s']:.3f} s; reference kernel: p50 "
          f"{statistics.median(result['kernel_s']):.4f} s, min "
          f"{min(result['kernel_s']):.4f} s over {len(result['kernel_s'])}")
    print(f"# env: nproc={env['nproc']} cpu={env['cpu']!r} {caches}"
          f" python={env['python']} numpy={env['numpy']} commit={env['commit']}")
    if result["trace"]:
        m = result["metrics"]
        print(f"# working set: build_assignment peak "
              f"{m['strategy.assign_peak_mb']:.1f} MB over "
              f"{m['strategy.cone_members']:.0f} cone members; {caches}")
        print(f"# tracing overhead: {m['trace.overhead']:.3f} = traced "
              f"{m['trace.traced_wall_s']:.3f} s / untraced "
              f"{m['trace.untraced_wall_s']:.3f} s")
        total = sum(r["self_s"] for r in result["breakdown"].values())
        print("# layer                    calls   p50_ms  tail(pct)_ms"
              "   self_s  self_share")
        for name, r in sorted(result["breakdown"].items(),
                              key=lambda kv: -kv[1]["self_s"]):
            print(f"# {name:<24} {r['calls']:>6} {r['p50_ms']:>8.3f} "
                  f"{r['tail_ms']:>9.3f}({r['tail_pct']:g}) {r['self_s']:>8.3f}"
                  f" {r['self_s'] / total:>9.1%}")
    for name, value in result["metrics"].items():
        print(f"{name} {value:.6g} {units[name]}")
    if result["attempted"]:
        print(f"error_rate {result['failed'] / result['attempted']:.6g} ratio")
    for problem in result["problems"]:
        print(f"# FAILED: {problem}")


def run(wl: workloads.Workload, seed: int, seconds: float, traced: bool) -> dict:
    work = WORK / f"{wl.name}-seed{seed}-trace{int(traced)}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    result = measure(wl, seed, seconds, traced, work)
    (work / "report.json").write_text(json.dumps(result, indent=1) + "\n")
    return result


def emit(result: dict) -> int:
    """Print the report and the JSON result line; return the exit code."""
    units = per_layer_units() if result["trace"] else END_TO_END
    print_report(result, units)
    correct = result["failed"] == 0
    print(json.dumps({
        "correct": correct, "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in result["metrics"].items()}}))
    return 0 if correct else 1


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    p.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not 0 <= args.seed < 2 ** 64:
        p.error("--seed must be a 64-bit unsigned integer")
    return emit(run(workloads.WORKLOADS[args.workload], args.seed,
                    args.seconds, bool(args.trace)))
