"""Spans around conematch's layer entry points, and the untimed counting pass.

``Tracer.installed()`` replaces, for the duration of a ``with`` block, the
module attributes through which ``cli.run_campaign`` reaches each layer by
timing wrappers; the program's own files are not changed.  A span is
(name, start_ns, end_ns, parent); spans stay in memory until ``write``.

``count_pass`` recomputes, outside any span, the counts that tracing cannot
see: cone sizes, random draws, the interview assignment's peak memory and the
DA event counts (from ``truncated_da`` with a trivial rule, cross-checked
against ``doctor_proposing_da``).
"""

from __future__ import annotations

import contextlib
import functools
import math
import time
import tracemalloc
from collections import Counter
from typing import Dict, List, Optional, Tuple

import numpy as np

from conematch import (analysis, cli, da, deviation, double_cut, market,
                       metrics, rng, strategy)

ROOT = "cli.run_campaign"

# (module, attribute, span name): the calls cli makes into each layer
ENTRY_POINTS = (
    (cli, "generate", "market.generate"),
    (cli, "build_assignment", "strategy.assign"),
    (cli, "build_preferences", "strategy.prefs"),
    (cli, "doctor_proposing_da", "da.solve"),
    (analysis, "find_blocking_pairs", "analysis.blocking"),
    (analysis, "enumerate_stable", "analysis.enumerate"),
    (analysis, "uniqueness_check_school", "analysis.uniqueness"),
    (analysis, "rural_hospital_check", "analysis.rural"),
    (double_cut, "dominance_audit", "double_cut.dominance"),
    (double_cut, "run_double_cut", "double_cut.run"),
    (metrics, "run_stats", "metrics.run_stats"),
    (metrics, "aggregate", "metrics.aggregate"),
    (metrics, "write_metrics_csv", "metrics.csv"),
    (deviation, "evaluate_deviation", "deviation.evaluate"),
)

Span = Tuple[str, int, int, int]      # name, start_ns, end_ns, parent index


class Tracer:
    def __init__(self):
        self.spans: List[Optional[Span]] = []
        self.deviation_specs: List[deviation.DeviationSpec] = []
        self._stack: List[int] = []

    def wrap(self, name: str, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(sid)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                spans[sid] = (name, start, clock(), parent)
                stack.pop()
        return traced

    @contextlib.contextmanager
    def installed(self):
        saved = []
        try:
            for module, attr, name in ENTRY_POINTS:
                fn = getattr(module, attr, None)
                if fn is None:      # moved by a refactor: its calls read 0
                    continue
                saved.append((module, attr, fn))
                wrapped = self.wrap(name, fn)
                if name == "deviation.evaluate":
                    wrapped = self._keeping_spec(wrapped)
                setattr(module, attr, wrapped)
            yield self
        finally:
            for module, attr, fn in saved:
                setattr(module, attr, fn)

    def _keeping_spec(self, fn):
        # the counting pass needs each spec to tell identical deviations apart
        @functools.wraps(fn)
        def keeping(instance, assignment, spec, *args, **kwargs):
            self.deviation_specs.append(spec)
            return fn(instance, assignment, spec, *args, **kwargs)
        return keeping

    def write(self, path) -> None:
        with open(path, "w") as fh:
            fh.write("id,parent,name,start_ns,end_ns\n")
            for sid, (name, start, end, parent) in enumerate(self.spans):
                fh.write(f"{sid},{parent},{name},{start},{end}\n")


TAIL_LEVELS = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)


def tail_level(samples: int) -> float:
    """Highest listed percentile with at least ten samples beyond it.

    Below twenty samples no percentile qualifies and the median stands in.
    """
    for level in TAIL_LEVELS:
        if samples * (1.0 - level / 100.0) >= 10.0:
            return level
    return 50.0


def percentile(sorted_values: List[float], level: float) -> float:
    """Nearest-rank percentile of an ascending list."""
    idx = max(1, math.ceil(level / 100.0 * len(sorted_values))) - 1
    return sorted_values[idx]


def breakdown(spans: List[Span]) -> Dict[str, dict]:
    """Per span name: call count, p50 and tail duration, total self time."""
    durations: Dict[str, List[float]] = {}
    self_ns: Dict[str, int] = Counter()
    child_ns = [0] * len(spans)
    for name, start, end, parent in spans:
        if parent >= 0:
            child_ns[parent] += end - start
    for sid, (name, start, end, parent) in enumerate(spans):
        durations.setdefault(name, []).append((end - start) / 1e6)
        self_ns[name] += end - start - child_ns[sid]
    out = {}
    for name, ms in durations.items():
        ms.sort()
        level = tail_level(len(ms))
        out[name] = {"calls": len(ms), "p50_ms": percentile(ms, 50.0),
                     "tail_pct": level, "tail_ms": percentile(ms, level),
                     "self_s": self_ns[name] / 1e9}
    return out


@contextlib.contextmanager
def _counting_draws(counter: List[int]):
    uniform = rng.uniform

    def counted(state, i, j):
        counter[0] += np.broadcast(np.asarray(i), np.asarray(j)).size
        return uniform(state, i, j)

    rng.uniform = counted
    try:
        yield
    finally:
        rng.uniform = uniform


def count_pass(campaign: cli.Campaign,
               specs: List[deviation.DeviationSpec]) -> Tuple[dict, List[str]]:
    """Counts per market over run 0 of every config, plus deviation counts.

    Returns (counts, problems); a problem is a truncated_da matching that
    differs from doctor_proposing_da's.
    """
    problems: List[str] = []
    members = edges = empty = draws_total = 0
    peak_mb = 0.0
    outcomes: Counter = Counter()
    dev_market = None
    for cfg in campaign.configs:
        instance = market.generate(cfg, 0)
        draws = [0]
        tracemalloc.start()
        try:
            with _counting_draws(draws):
                assignment = strategy.build_assignment(instance)
            peak_mb = max(peak_mb, tracemalloc.get_traced_memory()[1] / 2**20)
        finally:
            tracemalloc.stop()
        draws_total += draws[0]
        sizes = [strategy.compute_cone(instance, d).member_hospitals.size
                 for d in range(cfg.n_doctors)]
        members += sum(sizes)
        empty += sizes.count(0)
        edges += sum(len(hs) for hs in assignment.doctor_lists)

        prefs = strategy.build_preferences(assignment)
        plain = da.doctor_proposing_da(*prefs, instance.capacities)
        logged, log = da.truncated_da(*prefs, instance.capacities,
                                      da.TruncationRule())
        if logged.key() != plain.key():
            problems.append(f"truncated_da differs from doctor_proposing_da "
                            f"on {cli.config_slug(cfg)} run 0")
        outcomes.update(e[4] for e in log.events)
        if dev_market is None:
            dev_market = (instance, assignment)

    n = len(campaign.configs)
    proposals = outcomes[da.HOLD] + outcomes[da.REJECT] + outcomes[da.DISPLACE]
    accepted = outcomes[da.HOLD] + outcomes[da.DISPLACE]

    # one campaign's deviation specs (every campaign repeats the same ones),
    # all probed on run 0 of the first config as in deviation-grid; an
    # identical deviation re-runs DA once per replicate, any other twice
    unique = {(s.focal_doctor, s.kind, s.offset, s.replicates): s
              for s in specs}.values()
    instance, assignment = dev_market
    identical = patched = 0
    for spec in unique:
        slots, _ = deviation.deviant_slots(instance, assignment, spec)
        same = slots == list(assignment.doctor_lists[spec.focal_doctor])
        identical += same
        patched += spec.replicates * (1 if same else 2)

    counts = {
        "strategy.cone_members": members / n,
        "strategy.interview_edges": edges / n,
        "strategy.kept_ratio": edges / members if members else 0.0,
        "strategy.empty_cones": empty / n,
        "strategy.assign_peak_mb": peak_mb,
        "rng.draws": draws_total / n,
        "da.proposals": proposals / n,
        "da.displacements": outcomes[da.DISPLACE] / n,
        "da.accept_ratio": accepted / proposals if proposals else 0.0,
        "deviation.patched_runs": patched,
        "deviation.identical_ratio": identical / len(unique) if unique else 0.0,
    }
    return counts, problems
