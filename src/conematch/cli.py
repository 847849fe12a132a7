"""Batch experiment runner.

Reads a flat JSON config (exactly the MarketConfig field names; list
values are crossed into a grid, with a per-hospital capacity vector
given as a nested list), or one of the named presets, then runs the
seeded Monte Carlo campaign.  Each combination is read by
MarketConfig.from_dict: a missing n_hospitals defaults to n_doctors / kappa
(rounded, at least 1), and market.FIELDS gives every numeric field's valid
values.  A campaign writes per-config grouped CSVs in the metrics
schema, an optional deviation CSV, and a line-delimited key=value summary.
Identical flags give byte-identical CSVs.

Configs that draw the same market (market.market_key: seed, sizes, rating
ranges and cone) run together, run by run: run r of each, in config
order, then run r + 1.  At each run they share one in-cone selection
(strategy.SharedSelection), hashed once at the largest count any of them
needs and cut to each config's own, so each config's CSVs are the bytes
it writes alone.  The first audit failure in that order stops the
campaign.  A config's CSVs are written when its group's last run ends,
and summary.txt lists the configs in config order.  A config's wall_s
counts its own runs and outputs, and each shared selection it made: the
first config of the group at that run makes it.

Exit codes: 0 ok, 1 audit failure, 2 configuration error.
"""

from __future__ import annotations

import argparse
import functools
import gc
import hashlib
import itertools
import json
import math
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence

import numpy as np

from . import analysis, deviation, double_cut, metrics
from .da import (DOCTORS_PROPOSE, doctor_proposing_da, hospital_proposing_da,
                 order_invariance_check)
from .market import (INT64_MAX, ConfigError, MarketConfig, RESIDENCY,
                     REQUEST_INTERVIEW, SCHOOL_CHOICE, check_field,
                     cone_half_width, generate, make_config, market_key)
from .strategy import (InterviewAssignment, SharedSelection, build_assignment,
                       build_preferences, selection_count)

EXIT_OK = 0
EXIT_AUDIT = 1
EXIT_CONFIG = 2

# Campaign's settings in market.FIELDS' row form, the two that a flag sets
# named as the flag
CAMPAIGN_FIELDS = {
    "--audit-sample": (float, 0.0, 1.0, False, False),
    "--group-size": (int, 1, INT64_MAX, False, False),
    "deviation_focals": (int, 0, math.inf, False, False),
    "deviation_replicates": (int, 1, INT64_MAX, False, False),
}


@dataclass
class Campaign:
    """Expanded config list plus output and verification settings."""

    configs: List[MarketConfig]
    out_dir: Path
    audit_sample: float = 0.0      # fraction of runs given double-cut audits
    group_size: int = 10
    deviation_focals: int = 0      # > 0 writes a deviation CSV per config
    deviation_replicates: int = 20

    def __post_init__(self):
        # refused before the first market, on the CLI and the Python route
        for name, rule in CAMPAIGN_FIELDS.items():
            check_field(name, getattr(self, name.lstrip("-").replace("-", "_")),
                        rule)


class AuditFailure(Exception):
    def __init__(self, config_slug: str, run_index: int, check: str):
        super().__init__(f"audit failed: config={config_slug} run={run_index} "
                         f"check={check}")
        self.triple = (config_slug, run_index, check)


def config_slug(cfg: MarketConfig) -> str:
    cone = cfg.cone_override or 0.0    # half-width a*alpha, 0 = derived
    return (f"{cfg.setting.lower()}_n{cfg.n_doctors}_k{cfg.k}"
            f"_kap{cfg.kappa}_cone{cone:g}_seed{cfg.seed}")


def config_hash(cfg: MarketConfig) -> str:
    data = json.dumps(cfg.to_dict(), sort_keys=True).encode()
    return hashlib.sha256(data).hexdigest()[:12]


def expand_grid(raw: dict) -> List[MarketConfig]:
    """One MarketConfig.from_dict per combination of the list values."""
    if not isinstance(raw, dict):
        raise ConfigError("a config must be one JSON object of MarketConfig fields")
    keys = sorted(raw)
    pools = [raw[key] if isinstance(raw[key], list) else [raw[key]] for key in keys]
    for key, pool in zip(keys, pools):
        if not pool:
            raise ConfigError(f"{key}: an empty list leaves no config to run")
    return [MarketConfig.from_dict(dict(zip(keys, combo)))
            for combo in itertools.product(*pools)]


PRESETS = ("paper-2000", "paper-500", "school", "request")


def preset_configs(name: str, seed: int, runs: int) -> List[MarketConfig]:
    """The experiment grids behind the reported figures (cone a*alpha = 0.3)."""
    base = dict(cone_override=0.3, seed=seed, runs=runs)
    if name == "paper-2000":
        return [make_config(2000, kappa=5, k=5, setting=RESIDENCY, **base),
                make_config(2000, kappa=5, k=5, setting=REQUEST_INTERVIEW, **base)]
    if name == "paper-500":
        return [make_config(500, kappa=5, k=5, setting=RESIDENCY, **base),
                make_config(500, kappa=5, k=12, setting=RESIDENCY, **base)]
    if name == "school":
        return [make_config(2000, kappa=5, k=5, setting=SCHOOL_CHOICE, **base),
                make_config(2000, kappa=5, k=12, setting=SCHOOL_CHOICE, **base)]
    if name == "request":
        return [make_config(2000, kappa=5, k=5, setting=REQUEST_INTERVIEW, **base)]
    raise ConfigError(f"unknown preset {name!r}")


def _audit_this_run(cfg: MarketConfig, run_index: int, rate: float) -> bool:
    if rate <= 0.0:
        return False
    if rate >= 1.0:
        return True
    salt = int(config_hash(cfg), 16)
    gen = np.random.default_rng((cfg.seed, run_index, salt))
    return bool(gen.random() < rate)


def _run_one(cfg, run_index, audit_sample, slug, selection=None):
    """One market and its audits: (RunStats, InterviewAssignment, double-cut
    CSV rows), or AuditFailure.  Every run is checked for stability (and
    school uniqueness); an oracle-sized one against the brute-force stable
    set.  Those and the runs audited at rate `audit_sample` get the
    rural-hospital check, and the audited ones a focal-hospital and a
    focal-doctor double cut checked for dominance.  The interviews are
    picked from `selection`, a SharedSelection of this market, if given."""
    instance = generate(cfg, run_index)
    assignment = build_assignment(instance, selection)
    prefs = build_preferences(assignment)
    matching = doctor_proposing_da(*prefs, instance.capacities)
    # the audits are predicates over the matchings held here: each DA
    # orientation runs at most once, the hospital-proposing one on first use
    hospital_optimal = functools.cache(
        lambda: hospital_proposing_da(*prefs, instance.capacities))
    # every check below reads the matching's edges from this one array
    matched = assignment.matched_edges(matching)

    if analysis.find_blocking_pairs(assignment, matching, matched=matched):
        raise AuditFailure(slug, run_index, "stability")

    oracle_sized = (cfg.n_doctors <= analysis.MAX_ORACLE_DOCTORS
                    and cfg.n_hospitals <= analysis.MAX_ORACLE_HOSPITALS
                    and cfg.total_places() <= analysis.MAX_ORACLE_PLACES)
    if oracle_sized and matching.key() not in analysis.enumerate_stable(assignment):
        raise AuditFailure(slug, run_index, "oracle-membership")

    audited = _audit_this_run(cfg, run_index, audit_sample)
    if (oracle_sized or audited) and not analysis.rural_hospital_invariant(
            matching, hospital_optimal()):
        raise AuditFailure(slug, run_index, "rural-hospital")

    if cfg.setting == SCHOOL_CHOICE and not analysis.orientations_coincide(
            matching, hospital_optimal()):
        raise AuditFailure(slug, run_index, "school-uniqueness")

    surplus_rows = []
    if audited:
        gen = np.random.default_rng((cfg.seed, run_index, 0xD0C))
        focal_h = int(gen.integers(cfg.n_hospitals))
        focal_d = int(gen.integers(cfg.n_doctors))
        for scenario in (double_cut.scenario_for_hospital(instance, focal_h),
                         double_cut.scenario_for_doctor(instance, focal_d)):
            cut, report = double_cut.run_double_cut(assignment, scenario)
            full = matched if scenario.orientation == DOCTORS_PROPOSE \
                else assignment.matched_edges(hospital_optimal())
            if not double_cut.receivers_dominate(
                    assignment, scenario.orientation, full,
                    assignment.matched_edges(cut)):
                raise AuditFailure(slug, run_index,
                                   f"double-cut-dominance:{scenario.focal_side}")
            surplus_rows.append(report.csv_row(scenario))

    stats = metrics.run_stats(assignment, matching, check_stability=False,
                              matched=matched)
    return stats, assignment, surplus_rows


def _deviation_csv(cfg, campaign, assignment, path):
    # assignment: run 0's, as _run_one built it
    rows = [deviation.DEVIATION_CSV_HEADER]
    instance = assignment.instance
    half = instance.half_width
    alpha = instance.alpha_eff
    gen = np.random.default_rng((cfg.seed, 0xDE71A7E))
    non_bottom = np.flatnonzero(
        instance.doctor_ratings >= instance.doctor_range[0] + half)
    count = min(campaign.deviation_focals, non_bottom.size)
    focals = gen.choice(non_bottom, size=count, replace=False)
    ctx = deviation._PatchContext(assignment, focals=focals)
    specs = [(deviation.SWAP_IN_CONE, 0.0), (deviation.TOP_K_OF_ALL, 0.0),
             (deviation.ABOVE_CONE, 0.0), (deviation.ABOVE_CONE, alpha),
             (deviation.ABOVE_CONE, 2 * alpha), (deviation.BELOW_CONE, 0.0)]
    for focal in focals:
        focal_specs = [deviation.DeviationSpec(
            int(focal), kind, offset=x, replicates=campaign.deviation_replicates)
            for kind, x in specs]
        ctx.prime(focal_specs)      # one batch; each spec then reads the memo
        for spec in focal_specs:
            res = deviation.evaluate_deviation(instance, assignment, spec,
                                               context=ctx)
            rows.extend(deviation.deviation_rows([res]))
    path.write_text("\n".join(rows) + "\n")


def _unique_slugs(configs: List[MarketConfig]) -> List[str]:
    # output paths must stay unique even when configs differ only in
    # fields the slug does not carry
    seen: Dict[str, int] = {}
    slugs = []
    for cfg in configs:
        slug = config_slug(cfg)
        if slug in seen:
            seen[slug] += 1
            slug = f"{slug}_{seen[slug]}"
        else:
            seen[slug] = 0
        slugs.append(slug)
    return slugs


def run_campaign(campaign: Campaign) -> int:
    """Execute every config; returns the process exit code.

    The cyclic garbage collector is paused for the call: a campaign's
    objects form no reference cycles, so reference counting frees them all
    and the collector's passes over the live lists and heaps are waste.
    The caller's collector state is restored on return.
    """
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        return _run_campaign(campaign)
    finally:
        if was_enabled:
            gc.enable()


@dataclass
class _ConfigRuns:
    """One config's campaign state while its market group runs."""

    cfg: MarketConfig
    slug: str
    groups: list = field(default_factory=list)   # each run folded as it ends
    surplus_rows: list = field(
        default_factory=lambda: [double_cut.SURPLUS_CSV_HEADER])
    run0: Optional[InterviewAssignment] = None   # kept for the deviation CSV
    wall: float = 0.0


def _market_groups(todo: List[_ConfigRuns]) -> List[List[_ConfigRuns]]:
    # configs that draw the same market (market_key), in order of first
    # appearance, each group in config order
    groups: Dict[tuple, List[_ConfigRuns]] = {}
    for item in todo:
        groups.setdefault(market_key(item.cfg), []).append(item)
    return list(groups.values())


def _run_group(campaign: Campaign, group: List[_ConfigRuns]) -> None:
    # run by run: run r of every config in the group, then run r + 1.  Two
    # or more configs at a run share one selection, made by the first
    # one's build_assignment at the largest count any of them needs
    for run_index in range(max(item.cfg.runs for item in group)):
        active = [item for item in group if run_index < item.cfg.runs]
        selection = (SharedSelection(max(selection_count(item.cfg)
                                         for item in active))
                     if len(active) > 1 else None)
        for item in active:
            started = time.perf_counter()
            st, assignment, rows = _run_one(item.cfg, run_index,
                                            campaign.audit_sample, item.slug,
                                            selection)
            if run_index == 0 and campaign.deviation_focals > 0:
                item.run0 = assignment      # the deviation CSV probes run 0
            item.groups.append(metrics.group_run(st, campaign.group_size))
            item.surplus_rows.extend(rows)
            item.wall += time.perf_counter() - started


def _write_outputs(campaign: Campaign, item: _ConfigRuns) -> str:
    # the config's CSVs; returns its summary.txt line
    started = time.perf_counter()
    cfg, slug = item.cfg, item.slug
    series = metrics.aggregate(item.groups)
    out_csv = campaign.out_dir / f"{slug}.csv"
    metrics.write_metrics_csv(out_csv, series, cfg, cone_half_width(cfg)[0])
    if len(item.surplus_rows) > 1:
        (campaign.out_dir / f"{slug}_double_cut.csv").write_text(
            "\n".join(item.surplus_rows) + "\n")
    if campaign.deviation_focals > 0:
        _deviation_csv(cfg, campaign, item.run0,
                       campaign.out_dir / f"{slug}_deviation.csv")
    wall = item.wall + time.perf_counter() - started
    return (f"config={slug} hash={config_hash(cfg)} runs={cfg.runs} "
            f"wall_s={wall:.2f} audits=ok csv={out_csv.name}")


def _run_campaign(campaign: Campaign) -> int:
    campaign.out_dir.mkdir(parents=True, exist_ok=True)
    todo = [_ConfigRuns(cfg, slug) for cfg, slug in
            zip(campaign.configs, _unique_slugs(campaign.configs))]
    done: Dict[str, str] = {}     # summary line by slug
    failure: List[str] = []
    try:
        for group in _market_groups(todo):
            _run_group(campaign, group)
            for item in group:
                done[item.slug] = _write_outputs(campaign, item)
                item.groups = item.run0 = None      # not kept past the group
    except AuditFailure as exc:
        slug, run_index, check = exc.triple
        failure.append(f"config={slug} run={run_index} check={check} audits=FAIL")
        print(exc, file=sys.stderr)
    summary_lines = [done[item.slug] for item in todo
                     if item.slug in done] + failure
    (campaign.out_dir / "summary.txt").write_text("\n".join(summary_lines) + "\n")
    return EXIT_AUDIT if failure else EXIT_OK


def verify_only(seed: int, out=None) -> int:
    """The campaign's per-run audits (_run_one, every run audited) on nine
    tiny markets, six 6x3 Residency and three 60x20 SchoolChoice, each then
    given order_invariance_check, which a campaign does not run.  Prints
    one line per market, PASS or FAIL with the failed check's name, then
    `ok` or the count of failed markets.

    Prints to `out`, or to sys.stdout as it is at the call."""
    if out is None:
        out = sys.stdout
    # trial seeds wrap, so every 64-bit seed gives valid ones
    markets = [(f"6x3 #{trial}",
                MarketConfig(n_doctors=6, n_hospitals=3, capacity=2, k=2,
                             cone_override=0.4, seed=(seed + trial) % 2 ** 64))
               for trial in range(6)]
    markets += [(f"60x20 #{trial}",
                 make_config(60, kappa=3, k=3, setting=SCHOOL_CHOICE,
                             cone_override=0.3, seed=(seed + trial) % 2 ** 64))
                for trial in range(3)]
    gen = np.random.default_rng(seed)
    failures = 0
    for label, cfg in markets:
        perm = list(gen.permutation(cfg.n_doctors))
        try:
            _, assignment, _ = _run_one(cfg, 0, 1.0, label)
            if not order_invariance_check(*build_preferences(assignment),
                                          assignment.instance.capacities, perm):
                raise AuditFailure(label, 0, "order-invariance")
            print(f"PASS  {label}", file=out)
        except AuditFailure as exc:
            failures += 1
            print(f"FAIL  {label} check={exc.triple[2]}", file=out)
    print("ok" if failures == 0 else f"FAILURES: {failures}", file=out)
    return EXIT_OK if failures == 0 else EXIT_AUDIT


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="conematch",
        description="Seeded matching-market experiment campaigns")
    p.add_argument("--config", type=Path, metavar="PATH",
                   help="flat JSON config; list values are crossed into a grid")
    p.add_argument("--preset", choices=PRESETS,
                   help="named experiment preset")
    p.add_argument("--seed", type=int, default=42, metavar="U64")
    p.add_argument("--runs", type=int, default=None, metavar="N")
    p.add_argument("--out", type=Path, default=Path("out"), metavar="DIR")
    p.add_argument("--verify-only", action="store_true",
                   help="run every campaign audit plus order invariance on nine "
                        "tiny markets, write no CSVs")
    p.add_argument("--audit-sample", type=float, default=0.0, metavar="RATE",
                   help="fraction of runs given double-cut/rural audits")
    p.add_argument("--group-size", type=int, default=10, metavar="N")
    return p


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        check_field("seed", args.seed)      # every mode seeds from it
    except ConfigError as exc:
        print(f"configuration error: --{exc}", file=sys.stderr)
        return EXIT_CONFIG
    if args.verify_only:
        return verify_only(args.seed)
    try:
        if args.config is not None:
            try:
                with open(args.config) as fh:
                    raw = json.load(fh)
            # ValueError: not JSON, not UTF-8, or an integer too long to
            # parse; RecursionError: arrays nested too deep to parse
            except (OSError, ValueError, RecursionError) as exc:
                raise ConfigError(str(exc))
            if isinstance(raw, dict):      # expand_grid refuses anything else
                raw.setdefault("seed", args.seed)
                if args.runs is not None:
                    raw["runs"] = args.runs
            configs = expand_grid(raw)
        elif args.preset is not None:
            configs = preset_configs(args.preset, args.seed,
                                     100 if args.runs is None else args.runs)
        else:
            print("need --config, --preset, or --verify-only", file=sys.stderr)
            return EXIT_CONFIG
        campaign = Campaign(configs=configs, out_dir=args.out,
                            audit_sample=args.audit_sample,
                            group_size=args.group_size)
        try:
            args.out.mkdir(parents=True, exist_ok=True)
        except OSError as exc:      # a file, or a path under one
            raise ConfigError(f"--out {exc}")
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    return run_campaign(campaign)


if __name__ == "__main__":
    sys.exit(main())
