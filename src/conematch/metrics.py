"""Per-run statistics and the grouped aggregates behind the match-rate
and loss figures.

Losses are shortfalls from the ideal benchmarks r(d)+2 for a doctor and
r(h)+1 for a hospital.  Agents are ranked by public rating (descending,
per instance) and grouped in blocks of ten; whisker values are 10th/90th
nearest-rank percentiles of the per-run group statistic across runs.
Unmatched agents are always left out of the loss series and reported in
the separate match-rate series, mirroring how the figures are drawn.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Sequence

import numpy as np

from .analysis import find_blocking_pairs
from .da import Matching
from .market import MarketConfig, SCHOOL_CHOICE
from .strategy import InterviewAssignment

CSV_HEADER = "group_lo,group_hi,metric,mean,p10,p90,runs,setting,n,k,kappa,cone,seed"

DOCTOR_MATCH_RATE = "doctor_match_rate"
DOCTOR_LOSS = "doctor_loss"
HOSPITAL_FULL_RATE = "hospital_full_rate"
HOSPITAL_FILL_FRACTION = "hospital_fill_fraction"
HOSPITAL_LOSS = "hospital_loss"
ALL_METRICS = (DOCTOR_MATCH_RATE, DOCTOR_LOSS, HOSPITAL_FULL_RATE,
               HOSPITAL_FILL_FRACTION, HOSPITAL_LOSS)


@dataclass
class RunStats:
    """Per-agent outcome arrays for one (instance, matching) pair."""

    config: MarketConfig
    run_index: int
    half_width: float
    doctor_rating: np.ndarray
    doctor_matched: np.ndarray
    doctor_utility: np.ndarray        # nan when unmatched
    doctor_loss: np.ndarray           # unmatched carry the full benchmark
    doctor_non_bottommost: np.ndarray
    hospital_rating: np.ndarray
    hospital_fill: np.ndarray
    hospital_fully_matched: np.ndarray
    hospital_loss: np.ndarray         # nan when empty
    hospital_non_bottommost: np.ndarray


def run_stats(assignment: InterviewAssignment,
              matching: Matching,
              check_stability: bool = True,
              matched: Optional[np.ndarray] = None) -> RunStats:
    """Populate RunStats; refuses a matching with blocking pairs.

    `matched` is assignment.matched_edges(matching), if the caller holds it.
    """
    if matched is None:
        matched = assignment.matched_edges(matching)
    if check_stability:
        blocking = find_blocking_pairs(assignment, matching, matched=matched)
        if blocking:
            raise ValueError(f"matching is unstable: {len(blocking)} blocking pairs, "
                             f"first {blocking[0]}")

    instance = assignment.instance
    cfg = instance.config
    n_doc, n_hosp = cfg.n_doctors, cfg.n_hospitals
    caps = instance.capacities
    half = instance.half_width

    d_rating = instance.doctor_ratings
    d_matched = matched >= 0
    seat = matched[d_matched]
    d_utility = np.full(n_doc, np.nan)
    d_utility[d_matched] = assignment.u_doc[seat]
    # structural under the cone strategy, asserted anyway
    outside = np.flatnonzero(
        np.abs(instance.hospital_ratings[assignment.edge_h[seat]]
               - d_rating[d_matched]) >= half + 1e-12)
    if outside.size:
        e = seat[outside[0]]
        raise AssertionError(f"match ({assignment.edge_d[e]},{assignment.edge_h[e]}) "
                             f"lies outside the cone")
    benchmark = d_rating + 2.0
    d_loss = np.where(d_matched, benchmark - d_utility, benchmark)

    h_rating = instance.hospital_ratings
    h_fill = matching.fills()
    h_full = h_fill >= caps
    # unbuffered, in seat order: each hospital's seat utilities are added
    # one at a time, in ascending doctor id
    sums = np.zeros(n_hosp)
    np.add.at(sums, assignment.edge_h[seat], assignment.u_hosp[seat])
    h_loss = np.full(n_hosp, np.nan)
    filled = h_fill > 0
    h_loss[filled] = h_rating[filled] + 1.0 - sums[filled] / h_fill[filled]

    return RunStats(
        config=cfg, run_index=instance.run_index, half_width=half,
        doctor_rating=d_rating, doctor_matched=d_matched,
        doctor_utility=d_utility, doctor_loss=d_loss,
        doctor_non_bottommost=d_rating >= instance.doctor_range[0] + half,
        hospital_rating=h_rating, hospital_fill=h_fill,
        hospital_fully_matched=h_full, hospital_loss=h_loss,
        hospital_non_bottommost=h_rating >= instance.hospital_range[0] + half)


@dataclass
class GroupedSeries:
    """One metric grouped by rank: rows of (lo, hi, mean, p10, p90)."""

    metric: str
    group_size: int
    group_lo: np.ndarray     # 1-based rank bounds, inclusive
    group_hi: np.ndarray
    mean: np.ndarray
    p10: np.ndarray
    p90: np.ndarray
    runs: int


def _finite_row_means(mat: np.ndarray) -> np.ndarray:
    """Each row's mean over its finite entries, NaN where it has none.

    Bitwise equal to x[np.isfinite(x)].mean() row by row: every row's
    finite entries are packed to its front in order, and the rows with c of
    them are summed together as one contiguous [:, :c] block along the
    last axis, which numpy sums pairwise exactly as it does a 1-D array.
    """
    finite = np.isfinite(mat)
    counts = finite.sum(axis=1)
    packed = np.take_along_axis(
        mat, np.argsort(~finite, axis=1, kind="stable"), axis=1)
    out = np.full(mat.shape[0], np.nan)
    for c in (np.flatnonzero(np.bincount(counts)[1:]) + 1).tolist():
        rows = np.flatnonzero(counts == c)
        out[rows] = packed[rows, :c].sum(axis=1) / c
    return out


def _rank_groups(rows: np.ndarray, order: np.ndarray, group_size: int) -> np.ndarray:
    # (metrics x agents) values in the rank order `order`, NaN-padded to
    # whole groups: one row of group_size values per (metric, group)
    n_groups = -(-order.size // group_size)
    out = np.full((rows.shape[0], n_groups * group_size), np.nan)
    out[:, :order.size] = rows[:, order]
    return out.reshape(-1, group_size)


@dataclass
class RunGroups:
    """One run's rank-group statistics, the form aggregate reduces.

    values holds, metric by metric in ALL_METRICS order, the mean of each
    rank group's finite entries (NaN for a group with none): doctor groups
    for the doctor metrics, hospital groups for the hospital ones.
    """

    config: MarketConfig
    group_size: int
    values: np.ndarray


def group_run(s: RunStats, group_size: int = 10) -> RunGroups:
    """Fold one run's per-agent arrays into its rank-group statistics.

    Agents are ranked by that run's realized ratings, best first; an
    unmatched doctor's loss is left out of her group's mean.
    """
    if group_size < 1:
        raise ValueError("group_size must be positive")
    d_order = np.argsort(-s.doctor_rating, kind="stable")
    h_order = np.argsort(-s.hospital_rating, kind="stable")
    d_loss = np.where(s.doctor_matched, s.doctor_loss, np.nan)
    doctors = np.vstack((s.doctor_matched.astype(float), d_loss))
    hospitals = np.vstack((s.hospital_fully_matched.astype(float),
                           s.hospital_fill / s.config.capacities().astype(float),
                           s.hospital_loss))
    # a group larger than a side is that whole side: pad to no wider
    width = min(group_size, max(d_order.size, h_order.size))
    groups = np.vstack((_rank_groups(doctors, d_order, width),
                        _rank_groups(hospitals, h_order, width)))
    return RunGroups(s.config, group_size, _finite_row_means(groups))


def _nearest_rank_rows(sorted_rows: np.ndarray, counts: np.ndarray,
                       pct: float) -> np.ndarray:
    # nearest-rank percentile, the ceil(pct/100 * n)-th smallest, of each
    # row's first n = counts[i] entries (NaN if none)
    idx = np.maximum(1, np.ceil(pct / 100.0 * counts)).astype(np.int64) - 1
    picked = np.take_along_axis(sorted_rows, idx[:, None], axis=1)[:, 0]
    return np.where(counts > 0, picked, np.nan)


def aggregate(groups: Sequence[RunGroups]) -> Dict[str, GroupedSeries]:
    """Cross-run grouped series for every metric.

    Each run comes folded by group_run, so a campaign need not keep every
    run's RunStats; all must share a config and a group size.
    Percentiles are nearest-rank across runs.  The runs' group values form
    one (groups x runs) matrix: one pass takes every group's finite mean,
    and one NaN-last sort its p10 and p90.
    """
    if not groups:
        raise ValueError("no runs to aggregate")
    cfg, group_size = groups[0].config, groups[0].group_size
    if any(g.config != cfg for g in groups):
        raise ValueError("aggregate needs runs from a single config")
    if any(g.group_size != group_size for g in groups):
        raise ValueError("runs were grouped with other group sizes")

    by_group = np.vstack([g.values for g in groups]).T    # groups x runs
    finite = np.isfinite(by_group)
    mean = _finite_row_means(by_group)
    sorted_rows = np.sort(np.where(finite, by_group, np.nan), axis=1)
    counts = finite.sum(axis=1)
    p10 = _nearest_rank_rows(sorted_rows, counts, 10.0)
    p90 = _nearest_rank_rows(sorted_rows, counts, 90.0)

    out: Dict[str, GroupedSeries] = {}
    at = 0
    for m in ALL_METRICS:
        n = cfg.n_doctors if m.startswith("doctor") else cfg.n_hospitals
        n_groups = -(-n // group_size)
        lo = np.arange(n_groups, dtype=np.int64) * group_size + 1
        hi = np.minimum(lo - 1 + group_size, n)     # no int64 overflow
        part = slice(at, at + n_groups)
        out[m] = GroupedSeries(m, group_size, lo, hi, mean[part], p10[part],
                               p90[part], len(groups))
        at += n_groups
    return out


def series_rows(series: GroupedSeries, cfg: MarketConfig,
                half_width: float) -> List[str]:
    """CSV rows in the metrics schema for one grouped series.

    The cone column carries the effective half-width a*alpha, the same
    number the experiment figures are labeled with.
    """
    tail = (f"{series.runs},{cfg.setting},{cfg.n_doctors},{cfg.k},"
            f"{cfg.kappa},{half_width:.9g},{cfg.seed}")
    return [f"{lo},{hi},{series.metric},{m:.9g},{p10:.9g},{p90:.9g},{tail}"
            for lo, hi, m, p10, p90 in zip(
                series.group_lo.tolist(), series.group_hi.tolist(),
                series.mean.tolist(), series.p10.tolist(), series.p90.tolist())]


def write_metrics_csv(path, series_by_metric: Mapping[str, GroupedSeries],
                      cfg: MarketConfig, half_width: float) -> None:
    lines = [CSV_HEADER]
    for m in ALL_METRICS:
        if m in series_by_metric:
            lines.extend(series_rows(series_by_metric[m], cfg, half_width))
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def doctor_non_match_fraction(stats: Sequence[RunStats],
                              non_bottommost_only: bool = True) -> float:
    """Unmatched fraction pooled over runs (non-bottommost doctors by default)."""
    bad = 0
    total = 0
    for s in stats:
        mask = s.doctor_non_bottommost if non_bottommost_only else \
            np.ones_like(s.doctor_matched, dtype=bool)
        total += int(mask.sum())
        bad += int((~s.doctor_matched[mask]).sum())
    return bad / total if total else math.nan


def hospital_non_full_fraction(stats: Sequence[RunStats],
                               non_bottommost_only: bool = True) -> float:
    bad = 0
    total = 0
    for s in stats:
        mask = s.hospital_non_bottommost if non_bottommost_only else \
            np.ones_like(s.hospital_fully_matched, dtype=bool)
        total += int(mask.sum())
        bad += int((~s.hospital_fully_matched[mask]).sum())
    return bad / total if total else math.nan


def theorem_non_match_bounds(setting: str, k: int, a: float, kappa: int) -> tuple:
    """Closed-form asymptotic (doctor_bound, hospital_bound) per setting."""
    c = 4.0 * a + 1.0
    if setting == SCHOOL_CHOICE:
        return math.exp(-4.0 * k / c), math.exp(-1.5 * kappa * math.log(k))
    root = math.sqrt(k * math.log(k) / c)
    return math.exp(-4.0 * root), math.exp(-0.375 * kappa * root)


BOUND_SLACK = 3.0


def bound_check(stats_by_k: Mapping[int, Sequence[RunStats]]) -> dict:
    """Empirical non-match rates against the theorem bounds.

    For each k: the pooled non-bottommost doctor non-match and hospital
    non-full fractions, the closed-form theorem bounds, and a pass flag at
    BOUND_SLACK times the bound.  With several k values the report also
    checks that the doctor fraction is monotone non-increasing in k.
    """
    report: dict = {"per_k": {}, "slack": BOUND_SLACK}
    fracs = {}
    for k in sorted(stats_by_k):
        stats = stats_by_k[k]
        cfg = stats[0].config
        d_frac = doctor_non_match_fraction(stats)
        h_frac = hospital_non_full_fraction(stats)
        d_bound, h_bound = theorem_non_match_bounds(cfg.setting, k, cfg.a, cfg.kappa)
        fracs[k] = d_frac
        report["per_k"][k] = {
            "doctor_non_match": d_frac,
            "doctor_bound": d_bound,
            "doctor_within_slack": bool(d_frac <= BOUND_SLACK * d_bound),
            "hospital_non_full": h_frac,
            "hospital_bound": h_bound,
            "hospital_within_slack": bool(h_frac <= BOUND_SLACK * h_bound),
        }
    ks = sorted(fracs)
    report["monotone_in_k"] = all(fracs[ks[i + 1]] <= fracs[ks[i]]
                                  for i in range(len(ks) - 1)) if len(ks) > 1 else True
    return report
