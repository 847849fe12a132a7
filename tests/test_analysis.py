import numpy as np
import pytest

from conematch.analysis import (enumerate_stable, find_blocking_pairs,
                                orientations_coincide,
                                rural_hospital_invariant)
from conematch.da import Matching, doctor_proposing_da, hospital_proposing_da
from conematch.market import SCHOOL_CHOICE, generate, make_config
from conematch.strategy import (build_assignment, build_preferences,
                                select_interviews)

from oracle_helpers import (brute_stable_set, doctor_utility_vector,
                            manual_assignment, matching_from_key)


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
    return Matching(np.array(doctor_of, dtype=np.int64), n_hosp)


def both_orientations(inst, asg):
    prefs = build_preferences(asg)
    return (doctor_proposing_da(*prefs, inst.capacities),
            hospital_proposing_da(*prefs, inst.capacities))


def test_da_output_has_no_blocking_pairs():
    inst = generate(make_config(80, kappa=2, k=3, cone_override=0.3, seed=17), 0)
    asg = select_interviews(inst)
    prefs = build_preferences(asg)
    m = doctor_proposing_da(*prefs, inst.capacities)
    assert find_blocking_pairs(asg, m) == []


def test_hand_built_unstable_matching():
    asg = latin_square_3x3()
    # swapping two doctor-optimal partners leaves exactly (d1, h2) blocking
    m = as_matching([1, 0, 2], 3)
    pairs = find_blocking_pairs(asg, m, capacities=[1, 1, 1])
    assert [(p.doctor_id, p.hospital_id) for p in pairs] == [(1, 2)]
    assert pairs[0].hospital_side_witness == "displaces 2"
    assert pairs[0].doctor_gain == pytest.approx(1.0)


def test_empty_matching_blocks_on_mutual_edge():
    asg = manual_assignment([{0: 1.5}], [{0: 1.2}])
    m = as_matching([-1], 1)
    pairs = find_blocking_pairs(asg, m, capacities=[1])
    assert [(p.doctor_id, p.hospital_id) for p in pairs] == [(0, 0)]
    assert pairs[0].hospital_side_witness == "under capacity"


def test_validate_refuses_bad_ids_and_overfull_hospitals():
    asg = manual_assignment([{0: 1.5}, {0: 1.0}], [{0: 1.2, 1: 1.1}])
    for doctor_of in ([1, -1], [-2, -1]):     # no hospital 1, nor -2
        with pytest.raises(ValueError, match="hospital ids"):
            find_blocking_pairs(asg, as_matching(doctor_of, 1), capacities=[1])
    with pytest.raises(ValueError, match="hospital 0 over capacity"):
        find_blocking_pairs(asg, as_matching([0, 0], 1), capacities=[1])
    as_matching([0, 0], 1).validate([2])


def test_match_off_the_interview_edges_rejected():
    doctor_utils = [{0: 1.0, 1: 2.0}, {1: 1.0}]
    asg = manual_assignment(doctor_utils, [{0: 1.0}, {0: 1.0, 1: 2.0}])
    off_edge = as_matching([0, 0], 2)     # doctor 1 never interviewed at 0
    with pytest.raises(ValueError, match="not an interview edge"):
        find_blocking_pairs(asg, off_edge, capacities=[2, 1])


def test_held_doctor_the_hospital_does_not_rank_is_displaced_first():
    # hospital 0 holds doctor 1, whom it does not rank (a planted matching
    # DA would never make); doctor 0, ranked and preferring it, blocks.
    # Hospital 0 ranks only its best doctor: doctor 0, on the tie to the
    # lower id
    asg = manual_assignment([{0: 2.0, 1: 1.0}, {0: 1.0}],
                            [{0: 1.0, 1: 1.0}, {0: 1.0}], hospital_budget=[1, 1])
    assert asg.hospital_rank[asg.edge_index([1], [0])[0]] == -1
    m = as_matching([1, 0], 2)
    pairs = find_blocking_pairs(asg, m, capacities=[1, 1])
    assert [(p.doctor_id, p.hospital_id, p.hospital_side_witness)
            for p in pairs] == [(0, 0, "displaces 1")]


def test_enumerate_singleton():
    asg = manual_assignment([{0: 1.5}], [{0: 1.2}])
    stable = enumerate_stable(asg, capacities=[1])
    assert stable == {(0,)}


def test_enumerate_latin_square_three_matchings():
    asg = latin_square_3x3()
    stable = enumerate_stable(asg, capacities=[1, 1, 1])
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
        ours = enumerate_stable(asg)
        theirs, _ = brute_stable_set(*prefs, list(inst.capacities))
        theirs = {tuple(-1 if h is None else h for h in key) for key in theirs}
        assert ours == theirs


def test_stability_closure():
    # every enumerated stable matching passes the blocking-pair scan
    for seed in (3, 8):
        cfg = make_config(6, kappa=2, k=2, cone_override=0.8, seed=seed)
        inst = generate(cfg, 0)
        asg = select_interviews(inst)
        for key in enumerate_stable(asg):
            m = matching_from_key(key, cfg.n_hospitals)
            assert find_blocking_pairs(asg, m) == []


def test_da_extremal_within_stable_set():
    for seed in range(10):
        cfg = make_config(6, kappa=2, k=3, cone_override=0.8, seed=100 + seed)
        inst = generate(cfg, 0)
        asg = select_interviews(inst)
        prefs = build_preferences(asg)
        stable = enumerate_stable(asg)
        m_doc = doctor_proposing_da(*prefs, inst.capacities)
        m_hosp = hospital_proposing_da(*prefs, inst.capacities)
        assert m_doc.key() in stable
        assert m_hosp.key() in stable
        u_doc = doctor_utility_vector(asg, m_doc)
        u_hosp = doctor_utility_vector(asg, m_hosp)
        for key in stable:
            u = doctor_utility_vector(asg, matching_from_key(key, cfg.n_hospitals))
            assert all(a >= b for a, b in zip(u_doc, u))
            assert all(a <= b for a, b in zip(u_hosp, u))


def test_school_choice_unique_small():
    for seed in range(5):
        cfg = make_config(50, kappa=2, k=3, cone_override=0.3, seed=seed,
                          setting=SCHOOL_CHOICE)
        inst = generate(cfg, 0)
        asg = build_assignment(inst)
        assert orientations_coincide(*both_orientations(inst, asg))


def test_school_choice_unique_in_enumeration():
    for seed in range(6):
        cfg = make_config(6, kappa=2, k=2, cone_override=0.8, seed=seed,
                          setting=SCHOOL_CHOICE)
        inst = generate(cfg, 0)
        asg = select_interviews(inst)
        assert len(enumerate_stable(asg)) == 1


def test_residency_uniqueness_reported_not_asserted():
    # residency instances may or may not be unique; the op only reports
    cfg = make_config(30, kappa=1, k=3, cone_override=0.4, seed=11)
    inst = generate(cfg, 0)
    asg = select_interviews(inst)
    assert orientations_coincide(*both_orientations(inst, asg)) in (True, False)


def test_rural_hospital_batch():
    for seed in range(25):
        cfg = make_config(12, kappa=3, k=2, cone_override=0.6, seed=seed)
        inst = generate(cfg, 0)
        asg = select_interviews(inst)
        assert rural_hospital_invariant(*both_orientations(inst, asg))
