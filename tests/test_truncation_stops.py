"""Double-cut runs as plain DA over prefixes, against the rule-checking engine.

tests/legacy_edges.py keeps the engine that checked the truncation rule
before every proposal, with the rule built as per-proposer dicts.  Each case
runs one double-cut scenario both ways on the same preference lists and
compares the matchings, the final pointers, the proposals each receiver got
and the sequence of proposal records, over hospital, doctor and interval
scenarios in all three settings, kappa 1 and 5, several seeds, on drawn
utilities and on utilities rounded down to quarters (ties at the floor).
The proposers a settled prefix run leaves at their stop with a slot free
are those the engine halted with a slot free.
"""

from collections import Counter

import numpy as np
import pytest

import legacy_edges
from conematch import da, double_cut
from conematch.market import REQUEST_INTERVIEW, SETTINGS, generate, make_config
from conematch.strategy import (InterviewAssignment, build_assignment,
                                build_preferences)

from oracle_helpers import halts_of, proposals


def market(setting, kappa, seed, quantised, n=300):
    cfg = make_config(n, kappa=kappa, k=5, cone_override=0.3, seed=seed,
                      setting=setting)
    inst = generate(cfg, 0)
    asg = build_assignment(inst)
    if quantised:
        budget = inst.capacities * cfg.k if setting == REQUEST_INTERVIEW else None
        asg = InterviewAssignment.from_edges(
            inst, asg.nu_d, asg.nu_h, asg.edge_d, asg.edge_h,
            np.floor(asg.u_doc * 4) / 4, np.floor(asg.u_hosp * 4) / 4,
            cfg.n_doctors, cfg.n_hospitals, budget)
    return inst, asg


def scenarios(inst, asg):
    order = np.argsort(inst.doctor_ratings)
    out = []
    for i in (0.3, 0.5, 0.7):
        lo = inst.doctor_ratings[order[int(i * (len(order) - 1))]]
        out.append(double_cut.scenario_for_interval(
            asg, (lo, lo + 0.5 * inst.alpha_eff)))
    for i in (0.05, 0.5, 0.9):
        out.append(double_cut.scenario_for_doctor(
            inst, int(order[int(i * (len(order) - 1))])))
        out.append(double_cut.scenario_for_hospital(
            inst, int(i * (inst.config.n_hospitals - 1))))
    return out


@pytest.mark.parametrize("quantised", [False, True])
@pytest.mark.parametrize("kappa", [1, 5])
@pytest.mark.parametrize("setting", SETTINGS)
def test_prefix_runs_match_the_rule_checking_engine(setting, kappa, quantised):
    halts = Counter()
    for seed in range(3):
        inst, asg = market(setting, kappa, seed, quantised)
        prefs = build_preferences(asg)
        for scenario in scenarios(inst, asg):
            want, log, old = legacy_edges.rule_checking_double_cut(
                inst, scenario, prefs)
            got, report = double_cut.run_double_cut(asg, scenario)
            assert got.key() == want.key()

            rule = double_cut.scenario_rule(inst, scenario)
            state = da.truncated_state(*prefs, inst.capacities, rule,
                                       scenario.orientation)
            assert list(state.pointer) == old.pointer
            counts = Counter(e[2] for e in proposals(log))
            received = da.proposal_counts(state.prefs, state.pointer)
            assert received.tolist() == [counts[i] for i in range(received.size)]
            focal = ([scenario.focal_id] if scenario.focal_id is not None
                     else inst.doctors_in_band(*scenario.interval).tolist())
            assert report.proposals_to_focal == sum(counts[i] for i in focal)

            _, new_log = da.truncated_da(*prefs, inst.capacities, rule,
                                         scenario.orientation)
            assert ([e[1:] for e in proposals(new_log)]
                    == [e[1:] for e in proposals(log)])
            halts.update(e[4] for e in log.events)
    # the floor stops proposers in every case, and a focal or a window in
    # every case too (each of the two in ten of the twelve cases)
    assert halts[legacy_edges.HALT_FLOOR]
    assert halts[legacy_edges.HALT_FOCAL] + halts[legacy_edges.HALT_WINDOW]


@pytest.mark.parametrize("setting", SETTINGS)
def test_halt_records_name_each_proposer_stop(setting):
    # a settled run leaves each proposer at her stop or with no free slot,
    # and never past her stop; those at their stop with a free slot are the
    # proposers the rule-checking engine halted with a free slot, among
    # those it let propose (the rule's filter passes them, and their lists,
    # with the excluded proposers' emptied, are not empty)
    inst, asg = market(setting, 5, 0, False)
    prefs = build_preferences(asg)
    halted = Counter()
    for scenario in scenarios(inst, asg):
        rule = double_cut.scenario_rule(inst, scenario)
        side = scenario.orientation == da.HOSPITALS_PROPOSE
        stop = da.truncation_stops(prefs[side], rule)
        state = da.truncated_state(*prefs, inst.capacities, rule,
                                   scenario.orientation)
        assert list(state.stop) == stop.tolist()
        for p in range(stop.size):
            assert state.pointer[p] <= stop[p]
            assert state.pointer[p] == stop[p] or state.held[p] == state.slots[p]

        _, log, old = legacy_edges.rule_checking_double_cut(inst, scenario,
                                                            prefs)
        ratings = (inst.doctor_ratings, inst.hospital_ratings)[side]
        ran = {p for p in range(stop.size)
               if ratings[p] >= scenario.proposer_threshold and old.prefs[p]}
        want = {p for p in ran if old.halted[p] and old.held[p] < old.slots[p]}
        assert halts_of(state) & ran == want
        # the reasons the engine logged for the halts of proposers who
        # proposed
        halted.update(e[4] for e in log.events if e[4].startswith("halt:")
                      and e[1] in want and old.pointer[e[1]])
    assert halted[legacy_edges.HALT_FLOOR] and halted[legacy_edges.HALT_EXHAUSTED]
