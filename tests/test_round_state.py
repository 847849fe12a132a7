"""da.round_state against the FIFO run it stands in for.

The deviation probes' shared focal-absent run is the round engine's,
made a resumable DAState from its seats.  Under one proposer_filter rule
it must settle as truncated_state does: the same matching, stops,
pointers and held counts, and the same heaps compared as sets (a heap's
layout depends on the order its seats came in).  An insert resumes either
state to the same matching, and the rule-checking engine of
tests/legacy_edges.py, over lists with the absent focals' emptied, gives
the same run again.
"""

import numpy as np
import pytest

from conematch.da import (DOCTORS_PROPOSE, TruncationRule, doctor_proposing_da,
                          matching_of, round_state, truncated_state)
from conematch.market import (REQUEST_INTERVIEW, RESIDENCY, SCHOOL_CHOICE,
                              generate, make_config)
from conematch.strategy import build_assignment, build_preferences

from legacy_edges import HandLists, Rule, rule_checking_da


def _settled(state, stop):
    return (matching_of(state, DOCTORS_PROPOSE).key(), list(stop),
            list(state.pointer), list(state.held),
            [set(heap) for heap in state.heaps])


def _is_heap(heap):
    return all(heap[(i - 1) // 2] <= heap[i] for i in range(1, len(heap)))


def _rule_checking(prefs, caps, absent):
    # the run over lists with the absent doctors' emptied; each stop is a
    # list's length
    doctor_prefs, hospital_prefs = prefs
    lists = list(doctor_prefs)
    for d in absent:
        lists[d] = []
    _, _, state = rule_checking_da(HandLists(lists, doctor_prefs.ranks),
                                   hospital_prefs, caps, Rule())
    return _settled(state, [len(lst) for lst in lists])


def _focals(inst, asg):
    # doctors across the rating range, and one with an empty list if any
    order = [int(d) for d in np.argsort(inst.doctor_ratings)]
    n = len(order)
    empty = [d for d in order if not asg.doctor_list(d)]
    return [order[0], order[n // 3], order[n // 2], order[-1]] + empty[:1]


def _check(cfg):
    inst = generate(cfg, 0)
    asg = build_assignment(inst)
    prefs = build_preferences(asg)
    caps = inst.capacities
    focals = _focals(inst, asg)
    present = np.ones(cfg.n_doctors, dtype=bool)
    present[focals] = False
    rule = TruncationRule(proposer_filter=present)
    rounds = round_state(*prefs, caps, rule)
    fifo = truncated_state(*prefs, caps, rule)
    assert all(_is_heap(heap) for heap in rounds.heaps)
    assert _settled(rounds, rounds.stop) == _settled(fifo, fifo.stop)
    assert _settled(rounds, rounds.stop) == _rule_checking(prefs, caps, focals)
    doctor_prefs = prefs[0]
    for focal in focals:
        entry = (doctor_prefs[focal], doctor_prefs.ranks[focal])
        got = matching_of(rounds.insert(focal, *entry), DOCTORS_PROPOSE).key()
        assert got == matching_of(fifo.insert(focal, *entry),
                                  DOCTORS_PROPOSE).key()
        others = [f for f in focals if f != focal]
        assert got == _rule_checking(prefs, caps, others)[0]
    # the insert left the shared state as it was
    assert _settled(rounds, rounds.stop) == _settled(fifo, fifo.stop)
    full = rounds.with_proposers(focals)
    assert np.array_equal(matching_of(full, DOCTORS_PROPOSE).doctor_of,
                          doctor_proposing_da(*prefs, caps).doctor_of)
    return focals, [f for f in focals if not asg.doctor_list(f)]


@pytest.mark.parametrize("setting", [RESIDENCY, REQUEST_INTERVIEW,
                                     SCHOOL_CHOICE])
@pytest.mark.parametrize("cone", [0.15, 0.02])
def test_round_state_settles_as_the_fifo_run(setting, cone):
    empty = []
    for seed in range(2):
        cfg = make_config(200, kappa=5, k=3, cone_override=cone, seed=seed,
                          setting=setting)
        empty += _check(cfg)[1]
    # the sparse markets list nobody for some doctors
    assert empty or cone != 0.02


def test_round_state_settles_as_the_fifo_run_at_n_2000():
    for setting in (RESIDENCY, REQUEST_INTERVIEW, SCHOOL_CHOICE):
        _check(make_config(2000, kappa=5, k=5, cone_override=0.3, seed=3,
                           setting=setting))


def test_round_state_markets_hold_unranked_entries_and_ties():
    # RequestInterview lists hospitals that do not rank the doctor back,
    # and SchoolChoice hospitals tie doctors' utilities
    request = build_assignment(generate(make_config(
        200, kappa=5, k=3, cone_override=0.15, seed=0,
        setting=REQUEST_INTERVIEW), 0))
    assert build_preferences(request)[0].csr[3].min() < 0
    school = build_assignment(generate(make_config(
        200, kappa=5, k=3, cone_override=0.15, seed=0,
        setting=SCHOOL_CHOICE), 0))
    u = school.u_hosp
    assert np.unique(u).size < u.size


def test_round_state_without_a_rule_is_the_whole_run():
    prefs = build_preferences(build_assignment(generate(make_config(
        200, kappa=5, k=3, cone_override=0.15, seed=4), 0)))
    caps = np.full(40, 5)
    rounds, fifo = round_state(*prefs, caps), truncated_state(*prefs, caps)
    assert _settled(rounds, rounds.stop) == _settled(fifo, fifo.stop)


def test_round_state_refuses_other_inputs():
    doctor_prefs, hospital_prefs = build_preferences(build_assignment(
        generate(make_config(20, kappa=5, k=2, cone_override=0.3), 0)))
    with pytest.raises(ValueError):
        round_state(hospital_prefs, doctor_prefs, [5] * 4)
    with pytest.raises(ValueError):
        round_state(list(doctor_prefs), hospital_prefs, [5] * 4)
