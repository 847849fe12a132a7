"""The audit predicates over held matchings, against the standalone checks.

The campaign runner audits each run from the doctor-optimal matching, the
hospital-optimal matching and one double-cut run per scenario.  These tests
show the predicates can fail, and that on real markets they agree with
`rural_hospital_check`, `uniqueness_check_school` and `dominance_audit`,
which compute their own matchings.
"""

import numpy as np
import pytest

from conematch import analysis, double_cut
from conematch.da import (DOCTORS_PROPOSE, HOSPITALS_PROPOSE,
                          doctor_proposing_da, hospital_proposing_da)
from conematch.market import RESIDENCY, SCHOOL_CHOICE, generate, make_config
from conematch.strategy import build_assignment, build_preferences

from oracle_helpers import matching_from_key


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
    assert m.matched_doctors()
    empty = matching_from_key((-1,) * len(m.doctor_of), len(m.doctors_of))
    assert analysis.rural_hospital_invariant(m, hm)
    assert not analysis.rural_hospital_invariant(m, empty)
    assert not analysis.rural_hospital_invariant(empty, hm)
    assert not analysis.orientations_coincide(m, empty)
    for orientation, held in ((DOCTORS_PROPOSE, m), (HOSPITALS_PROPOSE, hm)):
        assert double_cut.receivers_dominate(asg, orientation, held, held)
        assert double_cut.receivers_dominate(asg, orientation, held, empty)
        assert not double_cut.receivers_dominate(asg, orientation, empty, held)


@pytest.mark.parametrize("setting", [RESIDENCY, SCHOOL_CHOICE])
def test_predicates_agree_with_standalone_checks(setting):
    unique = []
    for seed in range(6):
        inst, asg, prefs, m, hm = market(seed, setting)
        assert (analysis.rural_hospital_invariant(m, hm)
                == analysis.rural_hospital_check(asg, prefs=prefs))
        unique.append(analysis.orientations_coincide(m, hm))
        assert unique[-1] == analysis.uniqueness_check_school(asg, prefs=prefs)
        gen = np.random.default_rng(seed)
        for _ in range(3):
            for scenario in (
                    double_cut.scenario_for_hospital(
                        inst, int(gen.integers(inst.config.n_hospitals))),
                    double_cut.scenario_for_doctor(
                        inst, int(gen.integers(inst.config.n_doctors)))):
                cut, _ = double_cut.run_double_cut(inst, asg, scenario, prefs)
                full = m if scenario.orientation == DOCTORS_PROPOSE else hm
                assert (double_cut.receivers_dominate(
                            asg, scenario.orientation, full, cut)
                        == double_cut.dominance_audit(inst, asg, scenario,
                                                      prefs))
    if setting == SCHOOL_CHOICE:
        assert all(unique)

