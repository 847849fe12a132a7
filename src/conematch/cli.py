"""Batch experiment runner.

Reads a flat JSON config (exactly the MarketConfig field names; list
values are crossed into a grid, with a per-hospital capacity vector
written as a nested list), or one of the named presets, then runs the
seeded Monte Carlo campaign.  Each combination is read by
MarketConfig.from_dict: a missing n_hospitals defaults to n_doctors / kappa
(rounded, at least 1), and market.FIELDS gives every numeric field's valid
values.  A campaign writes per-config grouped CSVs in the metrics
schema, an optional deviation CSV, and a line-delimited key=value summary.
Identical flags give byte-identical CSVs.

Exit codes: 0 ok, 1 audit failure, 2 configuration error.
"""

from __future__ import annotations

import argparse
import functools
import gc
import hashlib
import itertools
import json
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Sequence

import numpy as np

from . import analysis, deviation, double_cut, metrics
from .da import (DOCTORS_PROPOSE, doctor_proposing_da, hospital_proposing_da,
                 order_invariance_check)
from .market import (ConfigError, MarketConfig, RESIDENCY, REQUEST_INTERVIEW,
                     SCHOOL_CHOICE, check_field, generate, make_config)
from .strategy import build_assignment, build_preferences

EXIT_OK = 0
EXIT_AUDIT = 1
EXIT_CONFIG = 2


@dataclass
class Campaign:
    """Expanded config list plus output and verification settings."""

    configs: List[MarketConfig]
    out_dir: Path
    audit_sample: float = 0.0      # fraction of runs given double-cut audits
    group_size: int = 10
    deviation_focals: int = 0      # > 0 writes a deviation CSV per config
    deviation_replicates: int = 20


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


def _run_one(cfg, run_index, campaign, slug):
    instance = generate(cfg, run_index)
    assignment = build_assignment(instance)
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
    if oracle_sized:
        stable = analysis.enumerate_stable(assignment)
        if matching.key() not in stable:
            raise AuditFailure(slug, run_index, "oracle-membership")
        if not analysis.rural_hospital_invariant(matching, hospital_optimal()):
            raise AuditFailure(slug, run_index, "rural-hospital")

    if cfg.setting == SCHOOL_CHOICE and not analysis.orientations_coincide(
            matching, hospital_optimal()):
        raise AuditFailure(slug, run_index, "school-uniqueness")

    surplus_rows = []
    if _audit_this_run(cfg, run_index, campaign.audit_sample):
        gen = np.random.default_rng((cfg.seed, run_index, 0xD0C))
        focal_h = int(gen.integers(cfg.n_hospitals))
        focal_d = int(gen.integers(cfg.n_doctors))
        for scenario in (double_cut.scenario_for_hospital(instance, focal_h),
                         double_cut.scenario_for_doctor(instance, focal_d)):
            cut, report = double_cut.run_double_cut(instance, assignment,
                                                    scenario, prefs)
            full = matched if scenario.orientation == DOCTORS_PROPOSE \
                else assignment.matched_edges(hospital_optimal())
            if not double_cut.receivers_dominate(
                    assignment, scenario.orientation, full,
                    assignment.matched_edges(cut)):
                raise AuditFailure(slug, run_index,
                                   f"double-cut-dominance:{scenario.focal_side}")
            surplus_rows.append(report.csv_row(scenario))
        if not oracle_sized and not analysis.rural_hospital_invariant(
                matching, hospital_optimal()):
            raise AuditFailure(slug, run_index, "rural-hospital")

    stats = metrics.run_stats(instance, assignment, matching,
                              check_stability=False, matched=matched)
    return stats, (instance, assignment, prefs), surplus_rows


def _deviation_csv(cfg, campaign, run0, path):
    # run0: run 0's (instance, assignment, prefs), as _run_one built them
    rows = [deviation.DEVIATION_CSV_HEADER]
    instance, assignment, prefs = run0
    half = instance.half_width
    alpha = instance.alpha_eff
    gen = np.random.default_rng((cfg.seed, 0xDE71A7E))
    non_bottom = np.flatnonzero(
        instance.doctor_ratings >= instance.doctor_range[0] + half)
    count = min(campaign.deviation_focals, non_bottom.size)
    focals = gen.choice(non_bottom, size=count, replace=False)
    ctx = deviation._PatchContext(instance, assignment, prefs, focals=focals)
    specs = [(deviation.SWAP_IN_CONE, 0.0), (deviation.TOP_K_OF_ALL, 0.0),
             (deviation.ABOVE_CONE, 0.0), (deviation.ABOVE_CONE, alpha),
             (deviation.ABOVE_CONE, 2 * alpha), (deviation.BELOW_CONE, 0.0)]
    for focal in focals:
        for kind, x in specs:
            res = deviation.evaluate_deviation(
                instance, assignment,
                deviation.DeviationSpec(int(focal), kind, offset=x,
                                        replicates=campaign.deviation_replicates),
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


def _run_campaign(campaign: Campaign) -> int:
    campaign.out_dir.mkdir(parents=True, exist_ok=True)
    summary_lines: List[str] = []
    try:
        for cfg, slug in zip(campaign.configs, _unique_slugs(campaign.configs)):
            started = time.perf_counter()
            groups = []     # each run folded as it ends; no RunStats kept
            surplus_rows = [double_cut.SURPLUS_CSV_HEADER]
            for run_index in range(cfg.runs):
                st, built, rows = _run_one(cfg, run_index, campaign, slug)
                if run_index == 0:      # the deviation CSV probes run 0
                    run0 = built
                groups.append(metrics.group_run(st, campaign.group_size))
                surplus_rows.extend(rows)
            series = metrics.aggregate(groups)
            half = run0[0].half_width
            out_csv = campaign.out_dir / f"{slug}.csv"
            metrics.write_metrics_csv(out_csv, series, cfg, half)
            if len(surplus_rows) > 1:
                (campaign.out_dir / f"{slug}_double_cut.csv").write_text(
                    "\n".join(surplus_rows) + "\n")
            if campaign.deviation_focals > 0:
                _deviation_csv(cfg, campaign, run0,
                               campaign.out_dir / f"{slug}_deviation.csv")
            wall = time.perf_counter() - started
            summary_lines.append(
                f"config={slug} hash={config_hash(cfg)} runs={cfg.runs} "
                f"wall_s={wall:.2f} audits=ok csv={out_csv.name}")
    except AuditFailure as exc:
        slug, run_index, check = exc.triple
        summary_lines.append(
            f"config={slug} run={run_index} check={check} audits=FAIL")
        (campaign.out_dir / "summary.txt").write_text(
            "\n".join(summary_lines) + "\n")
        print(exc, file=sys.stderr)
        return EXIT_AUDIT
    (campaign.out_dir / "summary.txt").write_text("\n".join(summary_lines) + "\n")
    return EXIT_OK


def verify_only(seed: int, out=None) -> int:
    """Small built-in verification sweep: oracles, stability, rural,
    uniqueness, order invariance, and dominance on tiny instances.

    Prints to `out`, or to sys.stdout as it is at the call."""
    if out is None:
        out = sys.stdout
    failures = 0

    def check(name: str, ok: bool):
        nonlocal failures
        print(f"{'PASS' if ok else 'FAIL'}  {name}", file=out)
        if not ok:
            failures += 1

    gen = np.random.default_rng(seed)
    for trial in range(6):
        # trial seeds wrap, so every 64-bit seed gives valid ones
        cfg = MarketConfig(n_doctors=6, n_hospitals=3, capacity=2, k=2,
                           cone_override=0.4, seed=(seed + trial) % 2 ** 64)
        inst = generate(cfg, 0)
        asg = build_assignment(inst)
        prefs = build_preferences(asg)
        m = doctor_proposing_da(*prefs, inst.capacities)
        hm = hospital_proposing_da(*prefs, inst.capacities)
        check(f"stability 6x3 #{trial}",
              not analysis.find_blocking_pairs(asg, m))
        stable = analysis.enumerate_stable(asg)
        check(f"oracle-membership 6x3 #{trial}", m.key() in stable)
        check(f"rural-hospital 6x3 #{trial}",
              analysis.rural_hospital_invariant(m, hm))
        perm = list(gen.permutation(cfg.n_doctors))
        check(f"order-invariance 6x3 #{trial}",
              order_invariance_check(*prefs, inst.capacities, perm))
        sc = double_cut.scenario_for_hospital(inst, int(gen.integers(cfg.n_hospitals)))
        cut, _ = double_cut.run_double_cut(inst, asg, sc, prefs)
        check(f"dominance 6x3 #{trial}",
              double_cut.receivers_dominate(asg, sc.orientation,
                                            asg.matched_edges(m),
                                            asg.matched_edges(cut)))

    for trial in range(3):
        cfg = make_config(60, kappa=3, k=3, setting=SCHOOL_CHOICE,
                          cone_override=0.3, seed=(seed + trial) % 2 ** 64)
        inst = generate(cfg, 0)
        prefs = build_preferences(build_assignment(inst))
        check(f"school-uniqueness 60x20 #{trial}",
              analysis.orientations_coincide(
                  doctor_proposing_da(*prefs, inst.capacities),
                  hospital_proposing_da(*prefs, inst.capacities)))

    print(f"{'ok' if failures == 0 else 'FAILURES: %d' % failures}", file=out)
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
                   help="run the verification suites, write no CSVs")
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
        if args.group_size < 1:
            raise ConfigError("--group-size must be >= 1")
        if not 0.0 <= args.audit_sample <= 1.0:    # also refuses NaN
            raise ConfigError("--audit-sample must lie in [0, 1]")
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
        try:
            args.out.mkdir(parents=True, exist_ok=True)
        except OSError as exc:      # a file, or a path under one
            raise ConfigError(f"--out {exc}")
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG

    campaign = Campaign(configs=configs, out_dir=args.out,
                        audit_sample=args.audit_sample,
                        group_size=args.group_size)
    return run_campaign(campaign)


if __name__ == "__main__":
    sys.exit(main())
