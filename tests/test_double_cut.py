import math

import numpy as np
import pytest

from conematch import double_cut
from conematch.da import (DOCTORS_PROPOSE, HOSPITALS_PROPOSE, TruncationRule,
                          doctor_proposing_da, truncated_da)
from conematch.double_cut import (dominance_audit, hospital_fill_oracle,
                                  independent_proposal_oracle,
                                  interval_preprocess, run_double_cut,
                                  scenario_for_doctor, scenario_for_hospital,
                                  scenario_for_interval)
from conematch.market import SCHOOL_CHOICE, generate, make_config
from conematch.strategy import (build_assignment, build_preferences,
                                compute_cone, select_interviews)

from legacy_edges import utility_maps
from oracle_helpers import edge_lists


def make_market(seed=0, n=60, kappa=3, k=3, cone=0.3, **kw):
    cfg = make_config(n, kappa=kappa, k=k, cone_override=cone / 2.0,
                      seed=seed, **kw)
    inst = generate(cfg, 0)
    asg = build_assignment(inst)
    return inst, asg, build_preferences(asg)


def test_focal_hospital_dominated_by_full_run():
    # the focal hospital's held seats in the cut run never beat its seats
    # in the full doctor-proposing DA, seat for seat
    inst, asg, prefs = make_market(seed=2, n=60, kappa=2, k=3)
    full = doctor_proposing_da(*prefs, inst.capacities)
    mid = int(np.argsort(inst.hospital_ratings)[inst.config.n_hospitals // 2])
    cut, report = run_double_cut(inst, asg,
                                 scenario_for_hospital(inst, mid), prefs)
    utils = utility_maps(asg)[1][mid]
    cut_seats = sorted((utils[d] for d in cut.doctors_of[mid]), reverse=True)
    full_seats = sorted((utils[d] for d in full.doctors_of[mid]), reverse=True)
    assert len(full_seats) >= len(cut_seats)
    assert all(f >= c for f, c in zip(full_seats, cut_seats))
    assert report.proposals_to_focal >= len(cut_seats)


def test_school_focal_doctor_proposals_in_cone():
    inst, asg, prefs = make_market(seed=3, n=80, kappa=2, k=3,
                                   setting=SCHOOL_CHOICE)
    ratings = inst.doctor_ratings
    focal = int(np.argsort(ratings)[int(0.7 * len(ratings))])
    scenario = scenario_for_doctor(inst, focal)
    _, report = run_double_cut(inst, asg, scenario, prefs)
    cone = compute_cone(inst, focal)
    members = set(int(h) for h in cone.member_hospitals)
    for _, proposer, target, _, _ in report.log.proposals():
        if target == focal:
            assert proposer in members


def test_floor_respected_by_in_cone_proposers():
    inst, asg, prefs = make_market(seed=4, n=100, kappa=2, k=4)
    focal = int(np.argsort(inst.doctor_ratings)[70])
    scenario = scenario_for_doctor(inst, focal)
    _, report = run_double_cut(inst, asg, scenario, prefs)
    lo, hi = scenario.floor_band
    for _, proposer, target, utility, outcome in report.log.proposals():
        r = inst.hospital_ratings[proposer]
        if lo <= r < hi:
            assert utility >= scenario.utility_floor - 1e-12


def test_prefix_property():
    # every proposer's truncated proposal sequence is a prefix of her
    # full-run sequence
    inst, asg, prefs = make_market(seed=5, n=80, kappa=2, k=4)
    focal = int(np.argsort(inst.doctor_ratings)[60])
    _, report = run_double_cut(inst, asg, scenario_for_doctor(inst, focal), prefs)
    _, full_log = truncated_da(*prefs, inst.capacities, TruncationRule(),
                               HOSPITALS_PROPOSE)

    def sequences(log):
        seq = {}
        for _, p, t, _, outcome in log.proposals():
            seq.setdefault(p, []).append(t)
        return seq

    cut_seq = sequences(report.log)
    full_seq = sequences(full_log)
    for p, targets in cut_seq.items():
        assert full_seq.get(p, [])[: len(targets)] == targets


def test_bottommost_flagged_but_runs():
    inst, asg, prefs = make_market(seed=6, n=60, kappa=3, k=3)
    lowest = int(np.argmin(inst.doctor_ratings))
    scenario = scenario_for_doctor(inst, lowest)
    assert scenario.bottommost
    _, report = run_double_cut(inst, asg, scenario, prefs)
    assert report.bottommost


def test_dominance_audit_random_scenarios():
    # 10x5 and 200x40 instances, random focal agents on both sides
    total = 0
    for seed in range(25):
        inst, asg, prefs = make_market(seed=seed, n=10, kappa=2, k=2, cone=0.6)
        gen = np.random.default_rng(seed)
        d = int(gen.integers(inst.config.n_doctors))
        h = int(gen.integers(inst.config.n_hospitals))
        assert dominance_audit(inst, asg, scenario_for_doctor(inst, d), prefs)
        assert dominance_audit(inst, asg, scenario_for_hospital(inst, h), prefs)
        total += 2
    inst, asg, prefs = make_market(seed=77, n=200, kappa=5, k=4, cone=0.3)
    gen = np.random.default_rng(77)
    for _ in range(5):
        d = int(gen.integers(inst.config.n_doctors))
        h = int(gen.integers(inst.config.n_hospitals))
        assert dominance_audit(inst, asg, scenario_for_doctor(inst, d), prefs)
        assert dominance_audit(inst, asg, scenario_for_hospital(inst, h), prefs)
        total += 2
    assert total == 60


def test_dominance_adversarial_floor_halt():
    # doctor 0 is displaced, halts at the floor, and never makes the
    # would-be proposal that improves the focal hospital 1; the full run
    # includes it, so the full outcome for hospital 1 is strictly better
    prefs = edge_lists([[0, 1], [0]], [[1, 0], [0]],
                       [{0: 2.0, 1: 0.5}, {0: 5.0}])
    rule = TruncationRule(utility_floor={0: 1.0})
    cut, _ = truncated_da(*prefs, [1, 1], rule, DOCTORS_PROPOSE)
    full = doctor_proposing_da(*prefs, [1, 1])
    assert cut.doctors_of[1] == set()
    assert full.doctors_of[1] == {0}     # strictly better for the focal


def test_interval_preprocess_band_exclusions_when_no_collision():
    # with k=1 no hospital can collect two edges from I unless two doctors
    # picked it; choose a seed/interval without collisions
    inst, asg, _ = make_market(seed=8, n=200, kappa=1, k=1, cone=0.2)
    alpha = inst.alpha_eff
    f, g = 0.60, 0.60 + 0.4 * alpha
    pre = interval_preprocess(inst, asg, (f, g))
    half = inst.half_width
    band = set(int(h) for h in inst.hospitals_in_band(f + half, g + half))
    if not pre.excluded_doctors:
        assert pre.excluded_hospitals == band
        assert pre.i_prime_size == pre.i_size


def test_interval_preprocess_collision_structure():
    # find an interval with a colliding hospital and check the cascade:
    # the hospital, both its I-doctors, and their other hospitals all go
    inst, asg, _ = make_market(seed=9, n=400, kappa=2, k=4, cone=0.3)
    alpha = inst.alpha_eff
    half = inst.half_width
    found = False
    for lo in np.arange(half, 1.0 - half, 0.01):
        f, g = float(lo), float(lo) + 0.5 * alpha
        pre = interval_preprocess(inst, asg, (f, g))
        if pre.excluded_doctors:
            found = True
            docs = set(int(d) for d in inst.doctors_in_band(f, g))
            l_band = set(int(h) for h in inst.hospitals_in_band(g - half, f + half))
            # recompute collisions directly from the assignment
            counts = {}
            for d in docs:
                for h in asg.doctor_lists[d]:
                    if h in l_band:
                        counts.setdefault(h, []).append(d)
            colliding = {h for h, ds in counts.items() if len(ds) >= 2}
            assert colliding
            assert colliding <= pre.excluded_hospitals
            hit_doctors = {d for h in colliding for d in counts[h]}
            assert pre.excluded_doctors == frozenset(hit_doctors)
            for d in hit_doctors:
                for h in asg.doctor_lists[d]:
                    assert h in pre.excluded_hospitals
            assert pre.i_prime_size == pre.i_size - len(hit_doctors)
            break
    assert found, "no colliding interval found; widen the scan"


def test_interval_preprocess_empty_interval():
    inst, asg, _ = make_market(seed=10, n=100, kappa=2, k=3)
    pre = interval_preprocess(inst, asg, (0.5, 0.5))
    assert pre.i_size == 0 and not pre.excluded_hospitals


def test_interval_preprocess_requires_narrow_interval():
    inst, asg, _ = make_market(seed=10, n=100, kappa=2, k=3)
    with pytest.raises(ValueError):
        interval_preprocess(inst, asg, (0.2, 0.2 + 2 * inst.alpha_eff))


def test_interval_survivor_bound_empirical():
    # removed fraction at most twice exp(-alpha*k / (2*(4a+1))) on average
    sizes = []
    survivors = []
    for run in range(20):
        cfg = make_config(400, kappa=2, k=4, cone_override=0.15, seed=11)
        inst = generate(cfg, run)
        asg = select_interviews(inst)
        alpha = inst.alpha_eff
        pre = interval_preprocess(inst, asg, (0.5, 0.5 + 0.5 * alpha))
        sizes.append(pre.i_size)
        survivors.append(pre.i_prime_size)
    theta = math.exp(-inst.alpha_eff * cfg.k / (2.0 * (4 * cfg.a + 1)))
    bound = max(0.0, 1.0 - 2.0 * theta)
    assert np.mean(survivors) >= np.mean(sizes) * bound


def test_interval_scenario_runs_and_reports():
    inst, asg, prefs = make_market(seed=12, n=300, kappa=3, k=3, cone=0.3)
    alpha = inst.alpha_eff
    scenario = scenario_for_interval(inst, asg, (0.55, 0.55 + 0.5 * alpha))
    matching, report = run_double_cut(inst, asg, scenario, prefs)
    assert report.surplus >= 0
    assert 0.0 <= report.focal_utility <= 1.0 or math.isnan(report.focal_utility)
    # excluded hospitals never propose
    for _, proposer, _, _, _ in report.log.proposals():
        assert proposer not in scenario.exclusions


def test_interval_windows_respected():
    inst, asg, prefs = make_market(seed=13, n=300, kappa=3, k=3, cone=0.3)
    alpha = inst.alpha_eff
    f, g = 0.5, 0.5 + 0.6 * alpha
    scenario = scenario_for_interval(inst, asg, (f, g))
    _, report = run_double_cut(inst, asg, scenario, prefs)
    lo, hi = scenario.floor_band
    for _, proposer, _, utility, _ in report.log.proposals():
        r = inst.hospital_ratings[proposer]
        if lo <= r < hi:
            for wlo, whi in scenario.forbidden_windows:
                assert not (wlo <= utility < whi)


def test_oracle_psi_zero_certain_failure():
    mc, closed = independent_proposal_oracle(10, 50, 5, 0.3, 0.0, trials=500)
    assert closed == 1.0 and mc == 1.0


def test_oracle_single_trial_half():
    mc, closed = independent_proposal_oracle(1, 2, 1, 1.0, 1.0, trials=0)
    assert closed == pytest.approx(0.5)


def test_oracle_closed_form_and_mc_agree():
    # s=100, k=5, |C|=200, alpha=0.3, psi=1: (1 - 0.0075)^100
    mc, closed = independent_proposal_oracle(100, 200, 5, 0.3, 1.0,
                                             trials=20000, seed=4)
    assert closed == pytest.approx(0.4710332268715166, rel=1e-12)
    sigma = math.sqrt(closed * (1 - closed) / 20000)
    assert abs(mc - closed) <= 3 * sigma


def test_oracle_preconditions():
    with pytest.raises(ValueError):
        independent_proposal_oracle(0, 50, 5, 0.3, 1.0)
    with pytest.raises(ValueError):
        independent_proposal_oracle(10, 3, 5, 0.3, 1.0)


def test_hospital_fill_oracle():
    mc, closed = hospital_fill_oracle(200, 120, 3, 5, 0.3, 1.0,
                                      trials=20000, seed=9)
    assert 0.0 <= closed <= 1.0
    sigma = math.sqrt(max(closed * (1 - closed), 1e-6) / 20000)
    assert abs(mc - closed) <= 4 * sigma


def test_surplus_positive_at_experiment_scale():
    # measured surplus >= 0.5 * alpha * n / kappa for most focal doctors
    cfg = make_config(2000, kappa=5, k=5, cone_override=0.3, seed=21)
    ok = 0
    total = 0
    for run in range(2):
        inst = generate(cfg, run)
        asg = select_interviews(inst)
        prefs = build_preferences(asg)
        target = 0.5 * inst.alpha_eff * cfg.n_doctors / cfg.kappa
        gen = np.random.default_rng(run)
        non_bottom = np.flatnonzero(inst.doctor_ratings >= inst.half_width)
        for focal in gen.choice(non_bottom, size=15, replace=False):
            _, report = run_double_cut(
                inst, asg, scenario_for_doctor(inst, int(focal)), prefs)
            total += 1
            if report.surplus >= target:
                ok += 1
    assert ok / total >= 0.9
