"""Acceptance suite: one test per criterion, printing PASS/FAIL lines.

Run with `pytest tests/test_acceptance.py -s` to see the per-criterion
lines.  The quantitative criteria (6-11) share module-scoped 100-run
campaigns at n=2000 with the experiment cone a*alpha = 0.3.
"""

import math
import time

import numpy as np
import pytest

from conematch import analysis, double_cut
from conematch.da import (DOCTORS_PROPOSE, HOSPITALS_PROPOSE,
                          doctor_proposing_da, hospital_proposing_da,
                          order_invariance_check)
from conematch.deviation import (ABOVE_CONE, BELOW_CONE, SWAP_IN_CONE,
                                 TOP_K_OF_ALL, _PatchContext, deviant_slots,
                                 DeviationSpec, _slot_values)
from conematch.market import (MarketConfig, RESIDENCY, REQUEST_INTERVIEW,
                              SCHOOL_CHOICE, generate, make_config)
from conematch.metrics import (doctor_non_match_fraction, run_stats,
                               theorem_non_match_bounds)
from conematch.strategy import build_assignment, build_preferences

from oracle_helpers import doctor_utility_vector, matching_from_key

CONE = 0.3          # experiment cone half-width a*alpha
RUNS = 100
SEED = 42


def report(num: int, ok: bool, detail: str) -> None:
    line = f"criterion {num:>2}: {'PASS' if ok else 'FAIL'}  {detail}"
    print(line)
    assert ok, line


def pipeline(cfg, run, check_stability=False):
    inst = generate(cfg, run)
    asg = build_assignment(inst)
    prefs = build_preferences(asg)
    m = doctor_proposing_da(*prefs, inst.capacities)
    return inst, asg, prefs, m, run_stats(inst, asg, m,
                                          check_stability=check_stability)


def both_orientations(inst, prefs):
    return (doctor_proposing_da(*prefs, inst.capacities),
            hospital_proposing_da(*prefs, inst.capacities))


def dominated(inst, asg, prefs, full, scenario):
    # full: each orientation's DA matched edges
    cut, _ = double_cut.run_double_cut(inst, asg, scenario, prefs)
    return double_cut.receivers_dominate(asg, scenario.orientation,
                                         full[scenario.orientation],
                                         asg.matched_edges(cut))


def full_runs(inst, asg, prefs):
    m, hm = both_orientations(inst, prefs)
    return {DOCTORS_PROPOSE: asg.matched_edges(m),
            HOSPITALS_PROPOSE: asg.matched_edges(hm)}


def campaign(setting, k, kappa, runs=RUNS, seed=SEED):
    cfg = make_config(2000, kappa=kappa, k=k, cone_override=CONE,
                      seed=seed, setting=setting, runs=runs)
    return [pipeline(cfg, r)[4] for r in range(runs)]


@pytest.fixture(scope="module")
def r5():
    return campaign(RESIDENCY, 5, 5)


@pytest.fixture(scope="module")
def r12():
    return campaign(RESIDENCY, 12, 5)


@pytest.fixture(scope="module")
def r5_kappa1():
    return campaign(RESIDENCY, 5, 1)


@pytest.fixture(scope="module")
def s5():
    return campaign(SCHOOL_CHOICE, 5, 5)


@pytest.fixture(scope="module")
def s12():
    return campaign(SCHOOL_CHOICE, 12, 5)


def test_criterion_1_stability_suite():
    # 1,000 random instances across all settings; zero blocking pairs
    started = time.perf_counter()
    grid = []
    for n in (10, 50, 200):
        for k in (2, 5):
            for kappa in (1, 3):
                if k > max(1, round(n / kappa)):
                    continue    # violates k <= n_hospitals
                for setting in (RESIDENCY, SCHOOL_CHOICE, REQUEST_INTERVIEW):
                    grid.append((n, k, kappa, setting))
    count = 0
    seed = 0
    while count < 1000:
        n, k, kappa, setting = grid[count % len(grid)]
        cone = 0.15 if count % 2 else 0.4
        cfg = make_config(n, kappa=kappa, k=k, cone_override=cone,
                          seed=seed, setting=setting)
        inst = generate(cfg, 0)
        asg = build_assignment(inst)
        prefs = build_preferences(asg)
        m = doctor_proposing_da(*prefs, inst.capacities)
        pairs = analysis.find_blocking_pairs(asg, m)
        assert pairs == [], f"blocking pairs on {cfg}"
        count += 1
        seed += 1
    elapsed = time.perf_counter() - started
    report(1, elapsed < 30.0,
           f"1000 instances stable, {elapsed:.1f}s (< 30s)")


def test_criterion_2_oracle_suite():
    # 300 guarded-size instances: DA extremality and the rural invariant
    started = time.perf_counter()
    checked = 0
    seed = 0
    while checked < 300:
        gen = np.random.default_rng(seed)
        n_doc = int(gen.integers(3, 7))
        n_hosp = int(gen.integers(2, 5))
        kappa = int(gen.integers(1, 3))
        if n_hosp * kappa > 8:
            kappa = 1
        k = int(gen.integers(1, n_hosp + 1))
        cfg = MarketConfig(n_doctors=n_doc, n_hospitals=n_hosp,
                           capacity=kappa, k=k, cone_override=0.8, seed=seed)
        inst = generate(cfg, 0)
        asg = build_assignment(inst)
        prefs = build_preferences(asg)
        stable = analysis.enumerate_stable(asg)
        m_doc, m_hosp = both_orientations(inst, prefs)
        assert m_doc.key() in stable and m_hosp.key() in stable
        u_doc = doctor_utility_vector(asg, m_doc)
        u_hosp = doctor_utility_vector(asg, m_hosp)
        for key in stable:
            u = doctor_utility_vector(asg, matching_from_key(key, n_hosp))
            assert all(a >= b for a, b in zip(u_doc, u)), "not doctor-optimal"
            assert all(a <= b for a, b in zip(u_hosp, u)), "not doctor-pessimal"
        assert analysis.rural_hospital_invariant(m_doc, m_hosp)
        checked += 1
        seed += 1
    elapsed = time.perf_counter() - started
    report(2, elapsed < 60.0,
           f"300 guarded instances extremal + rural, {elapsed:.1f}s (< 60s)")


def test_criterion_3_school_uniqueness():
    # both orientations identical on 100 school-choice instances, n up to 2000
    sizes = [50] * 40 + [200] * 30 + [1000] * 20 + [2000] * 10
    for i, n in enumerate(sizes):
        kappa = 5 if (i % 2 == 0 and n >= 200) else 1
        k = 5 if n >= 200 else 3
        cfg = make_config(n, kappa=kappa, k=k, cone_override=CONE, seed=i,
                          setting=SCHOOL_CHOICE)
        inst = generate(cfg, 0)
        prefs = build_preferences(build_assignment(inst))
        assert analysis.orientations_coincide(*both_orientations(inst, prefs)), \
            f"n={n} seed={i}"
    report(3, True, "100 SchoolChoice instances, both orientations identical")


def test_criterion_4_double_cut_dominance():
    # 500 scenarios across 10x5 and 200x40 instances
    total = 0
    for seed in range(125):
        cfg = make_config(10, kappa=2, k=2, cone_override=0.6, seed=seed)
        inst = generate(cfg, 0)
        asg = build_assignment(inst)
        prefs = build_preferences(asg)
        full = full_runs(inst, asg, prefs)
        gen = np.random.default_rng(seed)
        d = int(gen.integers(cfg.n_doctors))
        h = int(gen.integers(cfg.n_hospitals))
        assert dominated(inst, asg, prefs, full,
                         double_cut.scenario_for_doctor(inst, d))
        assert dominated(inst, asg, prefs, full,
                         double_cut.scenario_for_hospital(inst, h))
        total += 2
    for seed in range(25):
        cfg = make_config(200, kappa=5, k=4, cone_override=CONE, seed=seed)
        inst = generate(cfg, 0)
        asg = build_assignment(inst)
        prefs = build_preferences(asg)
        full = full_runs(inst, asg, prefs)
        gen = np.random.default_rng(1000 + seed)
        for _ in range(5):
            d = int(gen.integers(cfg.n_doctors))
            h = int(gen.integers(cfg.n_hospitals))
            assert dominated(inst, asg, prefs, full,
                             double_cut.scenario_for_doctor(inst, d))
            assert dominated(inst, asg, prefs, full,
                             double_cut.scenario_for_hospital(inst, h))
            total += 2
    report(4, total == 500, f"{total} double-cut scenarios all dominated")


def test_criterion_5_order_invariance():
    # 50 permutations x 20 instances
    for seed in range(20):
        cfg = make_config(30, kappa=2, k=3, cone_override=0.4, seed=seed)
        inst = generate(cfg, 0)
        prefs = build_preferences(build_assignment(inst))
        gen = np.random.default_rng(seed)
        for _ in range(50):
            perm = list(gen.permutation(cfg.n_doctors))
            assert order_invariance_check(*prefs, inst.capacities, perm)
    report(5, True, "50 permutations x 20 instances, identical matchings")


def _group_non_match(stats, group_size=10):
    """Pooled per-rank-group non-match among non-bottommost doctors."""
    tot = {}
    bad = {}
    for s in stats:
        order = np.argsort(-s.doctor_rating, kind="stable")
        nb = s.doctor_non_bottommost
        n_groups = (len(order) + group_size - 1) // group_size
        for g in range(n_groups):
            idx = order[g * group_size:(g + 1) * group_size]
            idx = idx[nb[idx]]
            tot[g] = tot.get(g, 0) + len(idx)
            bad[g] = bad.get(g, 0) + int((~s.doctor_matched[idx]).sum())
    return {g: bad[g] / tot[g] for g in sorted(tot) if tot[g] >= 100}


def test_criterion_6_doctor_match_rate_trend(r5):
    rates = _group_non_match(r5)
    groups = sorted(rates)
    worst = max(rates.values())
    quarter = max(1, len(groups) // 4)
    top_q = float(np.mean([rates[g] for g in groups[:quarter]]))
    low_q = float(np.mean([rates[g] for g in groups[-quarter:]]))
    ok = worst <= 0.06 and top_q <= low_q
    report(6, ok,
           f"worst group non-match {worst:.3f} <= 0.06; "
           f"top-quartile {top_q:.4f} <= bottom-quartile {low_q:.4f}")


def _top75_non_full(stats):
    bad = 0
    tot = 0
    for s in stats:
        order = np.argsort(-s.hospital_rating, kind="stable")
        sel = order[: int(0.75 * len(order))]
        tot += len(sel)
        bad += int((~s.hospital_fully_matched[sel]).sum())
    return bad / tot


def test_criterion_7_hospital_fill(r5, r12):
    k5 = _top75_non_full(r5)
    k12 = _top75_non_full(r12)
    ok = k5 <= 0.05 and k12 <= 0.01
    report(7, ok,
           f"top-75% hospital non-full: k=5 {k5:.4f} <= 0.05, "
           f"k=12 {k12:.4f} <= 0.01")


def test_criterion_8_capacity_effect(r5, r5_kappa1):
    fill5 = float(np.mean([s.hospital_fully_matched.mean() for s in r5]))
    fill1 = float(np.mean([s.hospital_fully_matched.mean() for s in r5_kappa1]))
    match5 = 1.0 - doctor_non_match_fraction(r5, non_bottommost_only=False)
    match1 = 1.0 - doctor_non_match_fraction(r5_kappa1, non_bottommost_only=False)
    delta = abs(match5 - match1)
    ok = fill5 > fill1 and delta <= 0.03
    report(8, ok,
           f"hospital full rate {fill1:.4f} -> {fill5:.4f} (strict improve: "
           f"{fill5 > fill1}); doctor match delta {delta * 100:.2f}pp <= 3pp")


def test_criterion_9_theorem_trend(r5, r12, s5, s12):
    lines = []
    ok = True
    for setting, low, high in (("Residency", r5, r12),
                               ("SchoolChoice", s5, s12)):
        f5 = doctor_non_match_fraction(low)
        f12 = doctor_non_match_fraction(high)
        ok = ok and (f12 < f5)
        lines.append(f"{setting}: k12 {f12:.5f} < k5 {f5:.5f}")
        for k, frac in ((5, f5), (12, f12)):
            bound, _ = theorem_non_match_bounds(
                setting if setting != "Residency" else RESIDENCY, k, 5.0, 5)
            within = frac <= 3.0 * bound
            lines.append(f"  [report-only] {setting} k={k}: empirical "
                         f"{frac:.5f} vs 3x bound {3 * bound:.5f} "
                         f"({'ok' if within else 'exceeds'})")
    report(9, ok, "; ".join(lines))


def test_criterion_10_deviation_epsilon():
    # residency theorem parameters: a=5 and the derived alpha, which at
    # k=5 clamps the cone to the whole rating range; above-cone offsets
    # then resolve to the documented nearest-existing-hospital fallback
    started = time.perf_counter()
    cfg = make_config(2000, kappa=5, k=5, seed=SEED)
    from conematch.market import derive_alpha
    alpha = derive_alpha(cfg)
    two_a_alpha = 2.0 * cfg.a * alpha
    inst = generate(cfg, 0)
    asg = build_assignment(inst)
    ctx = _PatchContext(inst, asg)

    gen = np.random.default_rng(SEED)
    non_bottom = np.flatnonzero(
        inst.doctor_ratings >= inst.doctor_range[0] + inst.half_width)
    if non_bottom.size == 0:      # whole-range cone: nobody is above a*alpha
        non_bottom = np.arange(cfg.n_doctors)
    focals = gen.choice(non_bottom, size=200, replace=False)

    grid = [(SWAP_IN_CONE, 0.0), (TOP_K_OF_ALL, 0.0), (BELOW_CONE, 0.0),
            (ABOVE_CONE, 0.0), (ABOVE_CONE, alpha), (ABOVE_CONE, 2 * alpha)]
    replicates = 20
    gains = {g: [] for g in grid}
    for focal in focals:
        focal = int(focal)
        base_slots = list(asg.doctor_lists[focal])
        dev_map = {g: deviant_slots(inst, asg,
                                    DeviationSpec(focal, g[0], offset=g[1]))[0]
                   for g in grid}
        n_slots = max(len(base_slots),
                      max(len(v) for v in dev_map.values()))
        for t in range(replicates):
            iota_d, iota_h = _slot_values(inst, focal, n_slots, t)
            base_u, _ = ctx.patched_run(focal, base_slots, iota_d, iota_h)
            cache = {tuple(base_slots): base_u}
            for g, slots in dev_map.items():
                key = tuple(slots)
                if key not in cache:
                    cache[key], _ = ctx.patched_run(focal, slots,
                                                       iota_d, iota_h)
                gains[g].append(cache[key] - base_u)

    stats = {}
    for g, vals in gains.items():
        arr = np.asarray(vals)
        stats[g] = (float(arr.mean()),
                    float(arr.std(ddof=1) / math.sqrt(arr.size)))
    max_gain, max_se = max(stats.values(), key=lambda t: t[0])
    above = [stats[(ABOVE_CONE, x)][0] for x in (0.0, alpha, 2 * alpha)]
    monotone = above[0] >= above[1] >= above[2]
    elapsed = time.perf_counter() - started
    ok = (max_gain <= two_a_alpha + 3 * max_se) and monotone and elapsed < 900
    report(10, ok,
           f"max mean gain {max_gain:.4f} <= 2a*alpha {two_a_alpha:.2f} + 3SE; "
           f"above-cone gains {['%.4f' % a for a in above]} non-increasing: "
           f"{monotone}; {elapsed:.0f}s (< 900s)")


def test_criterion_11_failure_probability_oracle():
    cfg = make_config(2000, kappa=5, k=5, cone_override=CONE, seed=SEED)
    failures = 0
    closed_forms = []
    count = 0
    for run in range(10):
        inst = generate(cfg, run)
        asg = build_assignment(inst)
        prefs = build_preferences(asg)
        gen = np.random.default_rng(run)
        non_bottom = np.flatnonzero(
            inst.doctor_ratings >= inst.doctor_range[0] + inst.half_width)
        for focal in gen.choice(non_bottom, size=10, replace=False):
            focal = int(focal)
            scenario = double_cut.scenario_for_doctor(inst, focal)
            _, rep = double_cut.run_double_cut(inst, asg, scenario, prefs)
            cone_size = inst.hospitals_in_band(
                max(inst.hospital_range[0],
                    inst.doctor_ratings[focal] - inst.half_width),
                min(inst.hospital_range[1],
                    inst.doctor_ratings[focal] + inst.half_width)).size
            s = max(1, math.floor(inst.alpha_eff * cfg.n_doctors / cfg.kappa))
            _, closed = double_cut.independent_proposal_oracle(
                s, int(cone_size), cfg.k, inst.alpha_eff, 1.0, trials=0)
            closed_forms.append(closed)
            if rep.proposals_to_focal == 0:
                failures += 1
            count += 1
    empirical = failures / count
    bound = float(np.mean(closed_forms))
    se = math.sqrt(max(bound * (1 - bound), 1e-9) / count)
    ok = empirical <= bound + 3 * se
    report(11, ok,
           f"no-proposal frequency {empirical:.3f} <= closed form "
           f"{bound:.3f} + 3SE ({bound + 3 * se:.3f}) over {count} scenarios")
