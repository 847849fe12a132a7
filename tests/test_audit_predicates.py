"""The audit predicates over held matchings, against standalone checks.

The campaign runner audits each run from the doctor-optimal matching, the
hospital-optimal matching and one double-cut run per scenario.  These tests
show the predicates can fail, that on oracle-sized markets they agree with
the stable set that analysis.enumerate_stable computes by brute force, and
that receivers_dominate agrees with a seat-list version of itself.
"""

import numpy as np
import pytest

from conematch import analysis, double_cut
from conematch.da import (DOCTORS_PROPOSE, HOSPITALS_PROPOSE,
                          doctor_proposing_da, hospital_proposing_da)
from conematch.market import (REQUEST_INTERVIEW, RESIDENCY, SCHOOL_CHOICE,
                              generate, make_config)
from conematch.strategy import build_assignment, build_preferences

import legacy_edges
from oracle_helpers import manual_assignment, matching_from_key


def market(seed, setting=RESIDENCY, n=40, kappa=2, k=3):
    cfg = make_config(n, kappa=kappa, k=k, cone_override=0.3, seed=seed,
                      setting=setting)
    inst = generate(cfg, 0)
    asg = build_assignment(inst)
    prefs = build_preferences(asg)
    return (inst, asg, prefs, doctor_proposing_da(*prefs, inst.capacities),
            hospital_proposing_da(*prefs, inst.capacities))


def test_predicates_reject_mismatched_pairs():
    inst, asg, _, m, hm = market(seed=2)
    assert (m.doctor_of >= 0).any()
    empty = matching_from_key((-1,) * m.doctor_of.size, m.n_hospitals)
    assert analysis.rural_hospital_invariant(m, hm)
    assert not analysis.rural_hospital_invariant(m, empty)
    assert not analysis.rural_hospital_invariant(empty, hm)
    assert not analysis.orientations_coincide(m, empty)
    none = asg.matched_edges(empty)
    for orientation, held in ((DOCTORS_PROPOSE, m), (HOSPITALS_PROPOSE, hm)):
        held = asg.matched_edges(held)
        assert double_cut.receivers_dominate(asg, orientation, held, held)
        assert double_cut.receivers_dominate(asg, orientation, held, none)
        assert not double_cut.receivers_dominate(asg, orientation, none, held)


@pytest.mark.parametrize("setting", [RESIDENCY, SCHOOL_CHOICE])
def test_predicates_agree_with_standalone_checks(setting):
    # oracle-sized markets: the orientations coincide iff the stable set
    # has one member, and every stable matching leaves the same doctors
    # matched and the same fills as the doctor-optimal one
    unique = []
    for seed in range(40):
        inst, asg, prefs, m, hm = market(seed, setting, n=6, kappa=2, k=2)
        stable = analysis.enumerate_stable(asg)
        assert m.key() in stable and hm.key() in stable
        unique.append(analysis.orientations_coincide(m, hm))
        assert unique[-1] == (len(stable) == 1)
        for key in stable:
            other = matching_from_key(key, inst.config.n_hospitals)
            assert analysis.rural_hospital_invariant(m, other)
            assert analysis.rural_hospital_invariant(other, hm)
    if setting == SCHOOL_CHOICE:
        assert all(unique)
    else:
        assert not all(unique)      # some residency market has two


def both_dominate(asg, orientation, full, cut):
    got = double_cut.receivers_dominate(asg, orientation, full, cut)
    assert got == legacy_edges.receivers_dominate(asg, orientation, full, cut)
    return got


@pytest.mark.parametrize("setting", [RESIDENCY, REQUEST_INTERVIEW,
                                     SCHOOL_CHOICE])
def test_receivers_dominate_matches_the_seat_list_version(setting):
    outcomes = set()
    for seed in range(4):
        inst, asg, prefs, m, hm = market(seed, setting)
        gen = np.random.default_rng(seed)
        held = {DOCTORS_PROPOSE: asg.matched_edges(m),
                HOSPITALS_PROPOSE: asg.matched_edges(hm)}
        for _ in range(3):
            for scenario in (
                    double_cut.scenario_for_hospital(
                        inst, int(gen.integers(inst.config.n_hospitals))),
                    double_cut.scenario_for_doctor(
                        inst, int(gen.integers(inst.config.n_doctors)))):
                cut, _ = double_cut.run_double_cut(asg, scenario)
                full = held[scenario.orientation]
                cut = asg.matched_edges(cut)
                for pair in ((full, cut), (cut, full),
                             (held[HOSPITALS_PROPOSE], held[DOCTORS_PROPOSE]),
                             (held[DOCTORS_PROPOSE], held[HOSPITALS_PROPOSE])):
                    outcomes.add(both_dominate(asg, scenario.orientation,
                                               *pair))
        # planted: drop random matches, or move doctors to another edge
        full = held[DOCTORS_PROPOSE]
        for _ in range(20):
            cut = full.copy()
            drop = gen.random(cut.size) < 0.2
            cut[drop] = -1
            moved = gen.random(cut.size) < 0.1
            degree = np.diff(asg.doctor_offsets)[moved]
            cut[moved] = np.where(
                degree > 0, asg.doctor_offsets[:-1][moved]
                + gen.integers(0, np.maximum(degree, 1)), -1)
            for pair in ((full, cut), (cut, full)):
                outcomes.add(both_dominate(asg, DOCTORS_PROPOSE, *pair))
    assert outcomes == {True, False}


def seat_table():
    # doctors 0-3 interview both hospitals; hospital 1 rates them all alike
    doctor_utils = [{0: 1.0, 1: 0.5} for _ in range(4)]
    hospital_utils = [{0: 4.0, 1: 3.0, 2: 2.0, 3: 1.0},
                      {0: 2.0, 1: 2.0, 2: 2.0, 3: 2.0}]
    return manual_assignment(doctor_utils, hospital_utils)


def matched(asg, doctor_of):
    return asg.edge_index(np.arange(len(doctor_of)), np.array(doctor_of))


@pytest.mark.parametrize("full, cut, dominates", [
    ([0, -1, -1, -1], [0, 0, -1, -1], False),     # a fill drop
    ([0, -1, 0, -1], [0, 0, -1, -1], False),      # second seat lowered 3 -> 2
    ([0, 0, -1, -1], [0, -1, 0, -1], True),       # second seat raised 2 -> 3
    ([-1, 1, 1, -1], [1, -1, -1, 1], True),       # equal seat utilities
    ([-1, 1, -1, -1], [1, -1, -1, 1], False),     # equal seats, one fewer
    ([-1, -1, -1, -1], [-1, -1, -1, -1], True),   # every hospital empty
    ([0, 1, -1, -1], [-1, -1, -1, -1], True),     # the cut run empty
    ([-1, -1, -1, -1], [-1, -1, 1, -1], False),   # the full run empty
    ([1, 0, 1, 1], [0, 1, 1, 1], False),          # hospital 0's seat 4 -> 3
])
def test_receivers_dominate_planted_seats(full, cut, dominates):
    asg = seat_table()
    full, cut = matched(asg, full), matched(asg, cut)
    assert both_dominate(asg, DOCTORS_PROPOSE, full, cut) == dominates
