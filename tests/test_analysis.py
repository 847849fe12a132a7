import numpy as np
import pytest

from conematch import analysis
from conematch.analysis import (enumerate_stable, find_blocking_pairs,
                                matching_from_key, rural_hospital_check,
                                uniqueness_check_school)
from conematch.da import Matching, doctor_proposing_da, hospital_proposing_da
from conematch.market import SCHOOL_CHOICE, generate, make_config
from conematch.strategy import (InterviewAssignment, build_assignment,
                                build_preferences, select_interviews)

from legacy_edges import utility_maps
from oracle_helpers import brute_stable_set


def manual_assignment(doctor_utils, hospital_utils):
    """Edge table from explicit utility dicts (no market behind it)."""
    d = np.array([i for i, u in enumerate(doctor_utils) for _ in u], dtype=np.int64)
    h = np.array([j for u in doctor_utils for j in u], dtype=np.int64)
    u_doc = np.array([x for u in doctor_utils for x in u.values()])
    u_hosp = np.array([hospital_utils[j][i] for i, j in zip(d, h)])
    return InterviewAssignment.from_edges(None, 1.0, 1.0, d, h, u_doc, u_hosp,
                                          len(doctor_utils), len(hospital_utils))


def manual_prefs(asg):
    doctor_utils, hospital_utils = utility_maps(asg)
    d = [sorted(u, key=lambda h: (-u[h], h)) for u in doctor_utils]
    h = [sorted(u, key=lambda dd: (-u[dd], dd)) for u in hospital_utils]
    return d, h


def latin_square_3x3():
    # cyclic 3x3 instance with exactly three stable matchings
    doctor_utils = [{0: 3.0, 1: 2.0, 2: 1.0},
                    {1: 3.0, 2: 2.0, 0: 1.0},
                    {2: 3.0, 0: 2.0, 1: 1.0}]
    hospital_utils = [{1: 3.0, 2: 2.0, 0: 1.0},
                      {2: 3.0, 0: 2.0, 1: 1.0},
                      {0: 3.0, 1: 2.0, 2: 1.0}]
    return manual_assignment(doctor_utils, hospital_utils)


def as_matching(doctor_of, n_hosp):
    m = Matching(list(doctor_of), [set() for _ in range(n_hosp)])
    for d, h in enumerate(doctor_of):
        if h is not None:
            m.doctors_of[h].add(d)
    return m


def test_da_output_has_no_blocking_pairs():
    inst = generate(make_config(80, kappa=2, k=3, cone_override=0.3, seed=17), 0)
    asg = select_interviews(inst)
    prefs = build_preferences(asg)
    m = doctor_proposing_da(*prefs, inst.capacities)
    assert find_blocking_pairs(asg, m, prefs=prefs) == []


def test_hand_built_unstable_matching():
    asg = latin_square_3x3()
    prefs = manual_prefs(asg)
    # swapping two doctor-optimal partners leaves exactly (d1, h2) blocking
    m = as_matching([1, 0, 2], 3)
    pairs = find_blocking_pairs(asg, m, capacities=[1, 1, 1], prefs=prefs)
    assert [(p.doctor_id, p.hospital_id) for p in pairs] == [(1, 2)]
    assert pairs[0].hospital_side_witness == "displaces 2"
    assert pairs[0].doctor_gain == pytest.approx(1.0)


def test_empty_matching_blocks_on_mutual_edge():
    asg = manual_assignment([{0: 1.5}], [{0: 1.2}])
    prefs = manual_prefs(asg)
    m = as_matching([None], 1)
    pairs = find_blocking_pairs(asg, m, capacities=[1], prefs=prefs)
    assert [(p.doctor_id, p.hospital_id) for p in pairs] == [(0, 0)]
    assert pairs[0].hospital_side_witness == "under capacity"


def test_inconsistent_matching_rejected():
    asg = manual_assignment([{0: 1.5}], [{0: 1.2}])
    prefs = manual_prefs(asg)
    bad = Matching([0], [set()])   # doctor_of says matched, hospital empty
    with pytest.raises(ValueError):
        find_blocking_pairs(asg, bad, capacities=[1], prefs=prefs)


def test_match_off_the_interview_edges_rejected():
    doctor_utils = [{0: 1.0, 1: 2.0}, {1: 1.0}]
    asg = manual_assignment(doctor_utils, [{0: 1.0}, {0: 1.0, 1: 2.0}])
    off_edge = as_matching([0, 0], 2)     # doctor 1 never interviewed at 0
    with pytest.raises(ValueError, match="not an interview edge"):
        find_blocking_pairs(asg, off_edge, capacities=[2, 1])


def test_held_doctor_the_hospital_does_not_rank_is_displaced_first():
    # hospital 0 holds doctor 1, whom it does not rank (a planted matching
    # DA would never make); doctor 0, ranked and preferring it, blocks
    asg = manual_assignment([{0: 2.0, 1: 1.0}, {0: 1.0}],
                            [{0: 1.0, 1: 1.0}, {0: 1.0}])
    prefs = ([[0, 1], [0]], [[0], [0]])
    m = as_matching([1, 0], 2)
    pairs = find_blocking_pairs(asg, m, capacities=[1, 1], prefs=prefs)
    assert [(p.doctor_id, p.hospital_id, p.hospital_side_witness)
            for p in pairs] == [(0, 0, "displaces 1")]


def test_enumerate_singleton():
    asg = manual_assignment([{0: 1.5}], [{0: 1.2}])
    prefs = manual_prefs(asg)
    stable = enumerate_stable(asg, capacities=[1], prefs=prefs)
    assert stable == {(0,)}


def test_enumerate_latin_square_three_matchings():
    asg = latin_square_3x3()
    prefs = manual_prefs(asg)
    stable = enumerate_stable(asg, capacities=[1, 1, 1], prefs=prefs)
    assert stable == {(0, 1, 2), (1, 2, 0), (2, 0, 1)}


def test_enumerate_guard_refuses_large():
    inst = generate(make_config(20, kappa=2, k=3, cone_override=0.5, seed=1), 0)
    asg = select_interviews(inst)
    with pytest.raises(ValueError):
        enumerate_stable(asg)


def test_enumerate_matches_independent_brute_force():
    for seed in range(12):
        cfg = make_config(6, kappa=2, k=2, cone_override=0.8, seed=seed)
        inst = generate(cfg, 0)
        asg = select_interviews(inst)
        prefs = build_preferences(asg)
        ours = enumerate_stable(asg, prefs=prefs)
        theirs, _ = brute_stable_set(*prefs, list(inst.capacities))
        theirs = {tuple(-1 if h is None else h for h in key) for key in theirs}
        assert ours == theirs


def test_stability_closure():
    # every enumerated stable matching passes the blocking-pair scan
    for seed in (3, 8):
        cfg = make_config(6, kappa=2, k=2, cone_override=0.8, seed=seed)
        inst = generate(cfg, 0)
        asg = select_interviews(inst)
        prefs = build_preferences(asg)
        for key in enumerate_stable(asg, prefs=prefs):
            m = matching_from_key(key, cfg.n_hospitals)
            assert find_blocking_pairs(asg, m, prefs=prefs) == []


def test_da_extremal_within_stable_set():
    for seed in range(10):
        cfg = make_config(6, kappa=2, k=3, cone_override=0.8, seed=100 + seed)
        inst = generate(cfg, 0)
        asg = select_interviews(inst)
        prefs = build_preferences(asg)
        stable = enumerate_stable(asg, prefs=prefs)
        m_doc = doctor_proposing_da(*prefs, inst.capacities)
        m_hosp = hospital_proposing_da(*prefs, inst.capacities)
        assert m_doc.key() in stable
        assert m_hosp.key() in stable
        u_doc = analysis.doctor_utility_vector(asg, m_doc)
        u_hosp = analysis.doctor_utility_vector(asg, m_hosp)
        for key in stable:
            u = analysis.doctor_utility_vector(
                asg, matching_from_key(key, cfg.n_hospitals))
            assert all(a >= b for a, b in zip(u_doc, u))
            assert all(a <= b for a, b in zip(u_hosp, u))


def test_school_choice_unique_small():
    for seed in range(5):
        cfg = make_config(50, kappa=2, k=3, cone_override=0.3, seed=seed,
                          setting=SCHOOL_CHOICE)
        inst = generate(cfg, 0)
        asg = build_assignment(inst)
        assert uniqueness_check_school(asg)


def test_school_choice_unique_in_enumeration():
    for seed in range(6):
        cfg = make_config(6, kappa=2, k=2, cone_override=0.8, seed=seed,
                          setting=SCHOOL_CHOICE)
        inst = generate(cfg, 0)
        asg = select_interviews(inst)
        prefs = build_preferences(asg)
        assert len(enumerate_stable(asg, prefs=prefs)) == 1


def test_residency_uniqueness_reported_not_asserted():
    # residency instances may or may not be unique; the op only reports
    cfg = make_config(30, kappa=1, k=3, cone_override=0.4, seed=11)
    inst = generate(cfg, 0)
    asg = select_interviews(inst)
    assert uniqueness_check_school(asg) in (True, False)


def test_rural_hospital_batch():
    for seed in range(25):
        cfg = make_config(12, kappa=3, k=2, cone_override=0.6, seed=seed)
        inst = generate(cfg, 0)
        asg = select_interviews(inst)
        assert rural_hospital_check(asg)
