import math

import numpy as np
import pytest

from conematch.da import (DOCTORS_PROPOSE, HOSPITALS_PROPOSE, TruncationRule,
                          doctor_proposing_da, hospital_proposing_da,
                          truncated_da)
from conematch.double_cut import (FOCAL_DOCTOR, FOCAL_HOSPITAL,
                                  DoubleCutScenario, hospital_fill_oracle,
                                  independent_proposal_oracle,
                                  interval_preprocess, receivers_dominate,
                                  run_double_cut,
                                  scenario_for_doctor, scenario_for_hospital,
                                  scenario_for_interval, scenario_rule)
from conematch.market import (SCHOOL_CHOICE, MarketConfig, generate,
                              make_config)
from conematch.strategy import (build_assignment, build_preferences,
                                compute_cone, select_interviews)

from legacy_edges import utility_maps
from oracle_helpers import manual_assignment, proposals


def make_market(seed=0, n=60, kappa=3, k=3, cone=0.3, **kw):
    cfg = make_config(n, kappa=kappa, k=k, cone_override=cone / 2.0,
                      seed=seed, **kw)
    inst = generate(cfg, 0)
    asg = build_assignment(inst)
    return inst, asg, build_preferences(asg)


def logged_run(inst, asg, scenario, prefs):
    """The proposal records of the scenario's truncated run, checked to be
    run_double_cut's run."""
    matching, report = run_double_cut(asg, scenario)
    logged, log = truncated_da(*prefs, inst.capacities,
                               scenario_rule(inst, scenario),
                               scenario.orientation)
    assert logged.key() == matching.key()
    return proposals(log)


def test_focal_hospital_dominated_by_full_run():
    # the focal hospital's held seats in the cut run never beat its seats
    # in the full doctor-proposing DA, seat for seat
    inst, asg, prefs = make_market(seed=2, n=60, kappa=2, k=3)
    full = doctor_proposing_da(*prefs, inst.capacities)
    mid = int(np.argsort(inst.hospital_ratings)[inst.config.n_hospitals // 2])
    cut, report = run_double_cut(asg, scenario_for_hospital(inst, mid))
    utils = utility_maps(asg)[1][mid]
    cut_seats = sorted((utils[d] for d in np.flatnonzero(cut.doctor_of == mid)),
                       reverse=True)
    full_seats = sorted((utils[d] for d in np.flatnonzero(full.doctor_of == mid)),
                        reverse=True)
    assert len(full_seats) >= len(cut_seats)
    assert all(f >= c for f, c in zip(full_seats, cut_seats))
    assert report.proposals_to_focal >= len(cut_seats)


def test_school_focal_doctor_proposals_in_cone():
    inst, asg, prefs = make_market(seed=3, n=80, kappa=2, k=3,
                                   setting=SCHOOL_CHOICE)
    ratings = inst.doctor_ratings
    focal = int(np.argsort(ratings)[int(0.7 * len(ratings))])
    scenario = scenario_for_doctor(inst, focal)
    cone = compute_cone(inst, focal)
    members = set(int(h) for h in cone.member_hospitals)
    for _, proposer, target, _, _ in logged_run(inst, asg, scenario, prefs):
        if target == focal:
            assert proposer in members


def test_floor_respected_by_in_cone_proposers():
    inst, asg, prefs = make_market(seed=4, n=100, kappa=2, k=4)
    focal = int(np.argsort(inst.doctor_ratings)[70])
    scenario = scenario_for_doctor(inst, focal)
    lo, hi = scenario.floor_band
    for _, proposer, target, utility, outcome in logged_run(inst, asg,
                                                            scenario, prefs):
        r = inst.hospital_ratings[proposer]
        if lo <= r < hi:
            assert utility >= scenario.utility_floor - 1e-12


def test_prefix_property():
    # every proposer's truncated proposal sequence is a prefix of her
    # full-run sequence
    inst, asg, prefs = make_market(seed=5, n=80, kappa=2, k=4)
    focal = int(np.argsort(inst.doctor_ratings)[60])
    cut = logged_run(inst, asg, scenario_for_doctor(inst, focal), prefs)
    _, full_log = truncated_da(*prefs, inst.capacities, TruncationRule(),
                               HOSPITALS_PROPOSE)

    def sequences(records):
        seq = {}
        for _, p, t, _, outcome in records:
            seq.setdefault(p, []).append(t)
        return seq

    cut_seq = sequences(cut)
    full_seq = sequences(proposals(full_log))
    for p, targets in cut_seq.items():
        assert full_seq.get(p, [])[: len(targets)] == targets


def test_bottommost_flagged_but_runs():
    inst, asg, _ = make_market(seed=6, n=60, kappa=3, k=3)
    lowest = int(np.argmin(inst.doctor_ratings))
    scenario = scenario_for_doctor(inst, lowest)
    assert scenario.bottommost
    _, report = run_double_cut(asg, scenario)
    assert report.bottommost


def dominated(inst, asg, prefs, scenario):
    # the full run of the scenario's orientation against its double-cut run
    full_da = doctor_proposing_da if scenario.orientation == DOCTORS_PROPOSE \
        else hospital_proposing_da
    full = full_da(*prefs, inst.capacities)
    cut, _ = run_double_cut(asg, scenario)
    return receivers_dominate(asg, scenario.orientation,
                              asg.matched_edges(full), asg.matched_edges(cut))


def test_receivers_dominate_random_scenarios():
    # 10x5 and 200x40 instances, random focal agents on both sides
    total = 0
    for seed in range(25):
        inst, asg, prefs = make_market(seed=seed, n=10, kappa=2, k=2, cone=0.6)
        gen = np.random.default_rng(seed)
        d = int(gen.integers(inst.config.n_doctors))
        h = int(gen.integers(inst.config.n_hospitals))
        assert dominated(inst, asg, prefs, scenario_for_doctor(inst, d))
        assert dominated(inst, asg, prefs, scenario_for_hospital(inst, h))
        total += 2
    inst, asg, prefs = make_market(seed=77, n=200, kappa=5, k=4, cone=0.3)
    gen = np.random.default_rng(77)
    for _ in range(5):
        d = int(gen.integers(inst.config.n_doctors))
        h = int(gen.integers(inst.config.n_hospitals))
        assert dominated(inst, asg, prefs, scenario_for_doctor(inst, d))
        assert dominated(inst, asg, prefs, scenario_for_hospital(inst, h))
        total += 2
    assert total == 60


def test_dominance_adversarial_floor_halt():
    # doctor 0 is displaced, halts at the floor, and never makes the
    # would-be proposal that improves the focal hospital 1; the full run
    # includes it, so the full outcome for hospital 1 is strictly better
    prefs = build_preferences(manual_assignment(
        [{0: 2.0, 1: 0.5}, {0: 5.0}], [{0: 1.0, 1: 2.0}, {0: 1.0}]))
    rule = TruncationRule(utility_floor=np.array([1.0, -np.inf]))
    cut, _ = truncated_da(*prefs, [1, 1], rule, DOCTORS_PROPOSE)
    full = doctor_proposing_da(*prefs, [1, 1])
    assert cut.fills()[1] == 0
    assert np.flatnonzero(full.doctor_of == 1).tolist() == [0]  # strictly better


def test_interval_preprocess_band_exclusions_when_no_collision():
    # with k=1 no hospital can collect two edges from I unless two doctors
    # picked it; choose a seed/interval without collisions
    inst, asg, _ = make_market(seed=8, n=200, kappa=1, k=1, cone=0.2)
    alpha = inst.alpha_eff
    f, g = 0.60, 0.60 + 0.4 * alpha
    pre = interval_preprocess(asg, (f, g))
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
        pre = interval_preprocess(asg, (f, g))
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
    pre = interval_preprocess(asg, (0.5, 0.5))
    assert pre.i_size == 0 and not pre.excluded_hospitals


def test_interval_preprocess_requires_narrow_interval():
    inst, asg, _ = make_market(seed=10, n=100, kappa=2, k=3)
    with pytest.raises(ValueError):
        interval_preprocess(asg, (0.2, 0.2 + 2 * inst.alpha_eff))


def test_interval_survivor_bound_empirical():
    # removed fraction at most twice exp(-alpha*k / (2*(4a+1))) on average
    sizes = []
    survivors = []
    for run in range(20):
        cfg = make_config(400, kappa=2, k=4, cone_override=0.15, seed=11)
        inst = generate(cfg, run)
        asg = select_interviews(inst)
        alpha = inst.alpha_eff
        pre = interval_preprocess(asg, (0.5, 0.5 + 0.5 * alpha))
        sizes.append(pre.i_size)
        survivors.append(pre.i_prime_size)
    theta = math.exp(-inst.alpha_eff * cfg.k / (2.0 * (4 * cfg.a + 1)))
    bound = max(0.0, 1.0 - 2.0 * theta)
    assert np.mean(survivors) >= np.mean(sizes) * bound


def test_interval_scenario_runs_and_reports():
    inst, asg, prefs = make_market(seed=12, n=300, kappa=3, k=3, cone=0.3)
    alpha = inst.alpha_eff
    scenario = scenario_for_interval(asg, (0.55, 0.55 + 0.5 * alpha))
    matching, report = run_double_cut(asg, scenario)
    assert report.surplus >= 0
    assert 0.0 <= report.focal_utility <= 1.0 or math.isnan(report.focal_utility)
    # excluded hospitals never propose
    for _, proposer, _, _, _ in logged_run(inst, asg, scenario, prefs):
        assert proposer not in scenario.exclusions


def test_interval_hospital_count_skips_exclusions_below_the_band():
    # interval_preprocess also excludes the other hospitals of removed
    # doctors, and here one of them rates below g - half, outside the band
    # the count is taken over
    inst, asg, _ = make_market(seed=1, n=300, kappa=3, k=3, cone=0.3)
    f, g = 0.5, 0.5 + 0.5 * inst.alpha_eff
    scenario = scenario_for_interval(asg, (f, g))
    lo = g - inst.half_width
    assert any(inst.hospital_ratings[h] < lo for h in scenario.exclusions)
    band = set(inst.hospitals_in_band(lo, inst.hospital_range[1]).tolist())
    _, report = run_double_cut(asg, scenario)
    assert report.participants_each_side[1] == len(band - scenario.exclusions)


def test_interval_bottommost_judged_on_the_doctor_range():
    # 600 doctors for 500 places: doctors rate in [0, 1.2), hospitals in
    # [0.2, 1.2); an interval is bottommost as its doctors are
    cfg = MarketConfig(n_doctors=600, n_hospitals=100, capacity=5,
                       cone_override=0.3)
    inst = generate(cfg, 0)
    asg = build_assignment(inst)
    assert inst.doctor_range[0] < inst.hospital_range[0]
    for (f, g), flagged in (((0.400, 0.418), False), ((0.200, 0.218), True)):
        docs = inst.doctors_in_band(f, g)
        assert docs.size
        assert all(scenario_for_doctor(inst, int(d)).bottommost == flagged
                   for d in docs)
        assert scenario_for_interval(asg, (f, g)).bottommost == flagged


def test_interval_windows_respected():
    inst, asg, prefs = make_market(seed=13, n=300, kappa=3, k=3, cone=0.3)
    alpha = inst.alpha_eff
    f, g = 0.5, 0.5 + 0.6 * alpha
    scenario = scenario_for_interval(asg, (f, g))
    lo, hi = scenario.floor_band
    for _, proposer, _, utility, _ in logged_run(inst, asg, scenario, prefs):
        r = inst.hospital_ratings[proposer]
        if lo <= r < hi:
            for wlo, whi in scenario.forbidden_windows:
                assert not (wlo <= utility < whi)


def test_oracle_psi_zero_certain_failure():
    assert independent_proposal_oracle(10, 50, 5, 0.3, 0.0) == 1.0


def test_oracle_single_trial_half():
    assert independent_proposal_oracle(1, 2, 1, 1.0, 1.0) == pytest.approx(0.5)


def test_oracle_closed_form():
    # s=100, k=5, |C|=200, alpha=0.3, psi=1: (1 - 0.0075)^100
    assert independent_proposal_oracle(100, 200, 5, 0.3, 1.0) == \
        pytest.approx(0.4710332268715166, rel=1e-12)


def test_oracle_preconditions():
    with pytest.raises(ValueError):
        independent_proposal_oracle(0, 50, 5, 0.3, 1.0)
    with pytest.raises(ValueError):
        independent_proposal_oracle(10, 3, 5, 0.3, 1.0)
    # no probability follows from these (surplus, cone, alpha, psi): a cone
    # of 0 divides by zero, and a negative alpha gives p < 0 and a
    # "probability" above 1
    for s, cone, alpha, psi in [(0, 10, 0.3, 1.0), (5, 0, 0.3, 1.0),
                                (5, 10, -0.3, 1.0), (5, 10, 0.3, -1.0),
                                (5, 10, math.nan, 1.0), (5, 10, 0.3, math.inf)]:
        with pytest.raises(ValueError):
            independent_proposal_oracle(s, cone, 2, alpha, psi)
        with pytest.raises(ValueError):
            hospital_fill_oracle(s, cone, 1, 1, alpha, psi)


def test_hospital_fill_oracle():
    # P(Binom(200, p) < 3) with p = 3 * 5 / 120 * 0.3
    p = 3 * 5 / 120 * 0.3
    want = sum(math.comb(200, i) * p ** i * (1 - p) ** (200 - i)
               for i in range(3))
    assert hospital_fill_oracle(200, 120, 3, 5, 0.3, 1.0) == \
        pytest.approx(want, rel=1e-12)


def test_surplus_positive_at_experiment_scale():
    # measured surplus >= 0.5 * alpha * n / kappa for most focal doctors
    cfg = make_config(2000, kappa=5, k=5, cone_override=0.3, seed=21)
    ok = 0
    total = 0
    for run in range(2):
        inst = generate(cfg, run)
        asg = select_interviews(inst)
        target = 0.5 * inst.alpha_eff * cfg.n_doctors / cfg.kappa
        gen = np.random.default_rng(run)
        non_bottom = np.flatnonzero(inst.doctor_ratings >= inst.half_width)
        for focal in gen.choice(non_bottom, size=15, replace=False):
            _, report = run_double_cut(
                asg, scenario_for_doctor(inst, int(focal)))
            total += 1
            if report.surplus >= target:
                ok += 1
    assert ok / total >= 0.9


def test_orientation_follows_the_focal():
    # doctors propose around a focal hospital, hospitals around a focal
    # doctor or a doctor interval, a hand-built scenario included
    inst, asg, _ = make_market(seed=2)
    assert scenario_for_hospital(inst, 0).orientation == DOCTORS_PROPOSE
    assert scenario_for_doctor(inst, 0).orientation == HOSPITALS_PROPOSE
    assert scenario_for_interval(asg, (0.5, 0.5)).orientation \
        == HOSPITALS_PROPOSE
    assert DoubleCutScenario(FOCAL_HOSPITAL, focal_id=0).orientation \
        == DOCTORS_PROPOSE
    with pytest.raises(TypeError):
        DoubleCutScenario(FOCAL_DOCTOR, focal_id=0,
                          orientation=DOCTORS_PROPOSE)


def test_scenarios_refuse_a_focal_outside_the_market():
    # -1 would index the last agent's rating while, as the focal target,
    # matching no list entry
    inst, _, _ = make_market(seed=2)
    for scenario_for, n in ((scenario_for_doctor, inst.config.n_doctors),
                            (scenario_for_hospital, inst.config.n_hospitals)):
        for focal in (-1, n, 10 ** 6):
            with pytest.raises(ValueError, match="outside"):
                scenario_for(inst, focal)
