"""The edge table against the per-agent lists and dicts it replaced.

tests/legacy_edges.py keeps the old representation and the code that read
it.  Each case builds one market both ways and compares preference lists,
ranks, both DA orientations, blocking pairs, double-cut runs with the
proposal records of their event logs, the deviation probe and every RunStats array, in all three
settings, k 1/5/12 and kappa 1/5, on the drawn utilities and on utilities
rounded down to quarters, so that ties are common on both sides.
"""

import dataclasses
import random

import numpy as np
import pytest

import legacy_edges
from conematch import double_cut
from conematch.analysis import find_blocking_pairs
from conematch.da import (DOCTORS_PROPOSE, Matching, doctor_proposing_da,
                          hospital_proposing_da, matching_of, truncated_da)
from conematch.deviation import (KINDS, NULL_DEVIATION, DeviationSpec,
                                 UNMATCHED_UTILITY, _PatchContext,
                                 _slot_values, deviant_slots)
from conematch.market import REQUEST_INTERVIEW, SETTINGS, generate, make_config
from conematch.metrics import run_stats
from conematch.strategy import (InterviewAssignment, build_assignment,
                                build_preferences)

from oracle_helpers import proposals

CASES = [(setting, k, kappa) for setting in SETTINGS for k in (1, 5, 12)
         for kappa in (1, 5)]


def quarters(u):
    return np.floor(u * 4) / 4


def market(setting, k, kappa, quantised, seed=0, n=150):
    """(instance, edge table, the same edges and utilities as dicts)."""
    cfg = make_config(n, kappa=kappa, k=k, cone_override=0.3, seed=seed,
                      setting=setting)
    inst = generate(cfg, 0)
    asg = build_assignment(inst)
    if not quantised:
        legacy = legacy_edges.materialize(inst, asg.doctor_lists,
                                          cfg.nu_d, cfg.nu_h)
        return inst, asg, legacy
    budget = inst.capacities * k if setting == REQUEST_INTERVIEW else None
    asg = InterviewAssignment.from_edges(
        inst, asg.nu_d, asg.nu_h, asg.edge_d, asg.edge_h, quarters(asg.u_doc),
        quarters(asg.u_hosp), cfg.n_doctors, cfg.n_hospitals, budget)
    return inst, asg, legacy_edges.from_table(asg)


def same_matching(got, want):
    # a da.Matching against the legacy one (each doctor's hospital or None)
    assert got.key() == want.key()


def pairs(found):
    return [(p.doctor_id, p.hospital_id, p.doctor_gain, p.hospital_side_witness)
            for p in found]


def planted(inst, legacy_prefs, gen):
    """A random capacity-respecting matching on mutually ranked edges."""
    doctor_prefs, hospital_prefs = legacy_prefs
    ranked = [set(ds) for ds in hospital_prefs]
    free = list(inst.capacities)
    doctor_of = np.full(len(doctor_prefs), -1, dtype=np.int64)
    for d in gen.sample(range(len(doctor_prefs)), len(doctor_prefs)):
        options = [h for h in doctor_prefs[d] if d in ranked[h] and free[h]]
        if options and gen.random() < 0.8:
            h = gen.choice(options)
            free[h] -= 1
            doctor_of[d] = h
    return Matching(doctor_of, len(hospital_prefs))


@pytest.mark.parametrize("quantised", [False, True])
@pytest.mark.parametrize("setting,k,kappa", CASES)
def test_preferences_and_ranks_match_legacy(setting, k, kappa, quantised):
    inst, asg, legacy = market(setting, k, kappa, quantised)
    if not quantised:
        assert legacy_edges.utility_maps(asg) == (legacy.doctor_utils,
                                                  legacy.hospital_utils)
    doctor_prefs, hospital_prefs = build_preferences(asg)
    old_doctor, old_hospital = legacy_edges.build_preferences(legacy)
    assert doctor_prefs == old_doctor
    assert hospital_prefs == old_hospital
    hospital_ranks = legacy_edges.build_ranks(old_hospital)
    doctor_ranks = legacy_edges.build_ranks(old_doctor)
    for d, hs in enumerate(old_doctor):
        assert doctor_prefs.ranks[d] == [hospital_ranks[h].get(d) for h in hs]
        assert doctor_prefs.utils[d] == [legacy.doctor_utils[d][h] for h in hs]
    for h, ds in enumerate(old_hospital):
        assert hospital_prefs.ranks[h] == [doctor_ranks[d][h] for d in ds]
        assert hospital_prefs.utils[h] == [legacy.hospital_utils[h][d] for d in ds]
    if setting == REQUEST_INTERVIEW and k > 1:
        assert (asg.hospital_rank < 0).any()    # the truncation is exercised


@pytest.mark.parametrize("quantised", [False, True])
@pytest.mark.parametrize("setting,k,kappa", CASES)
def test_da_and_blocking_pairs_match_legacy(setting, k, kappa, quantised):
    inst, asg, legacy = market(setting, k, kappa, quantised)
    prefs = build_preferences(asg)
    old = legacy_edges.build_preferences(legacy)
    caps = inst.capacities
    doctor_optimal = doctor_proposing_da(*prefs, caps)
    same_matching(doctor_optimal, legacy_edges.doctor_proposing_da(*old, caps))
    same_matching(hospital_proposing_da(*prefs, caps),
                  legacy_edges.hospital_proposing_da(*old, caps))

    gen = random.Random(k * 10 + kappa)
    empty = Matching(np.full(len(old[0]), -1, dtype=np.int64), len(old[1]))
    matchings = [doctor_optimal, empty] + [planted(inst, old, gen)
                                           for _ in range(4)]
    found_any = 0
    for m in matchings:
        want = legacy_edges.blocking_pairs(legacy, m, caps, old)
        assert pairs(find_blocking_pairs(asg, m)) == want
        found_any += bool(want)
    assert found_any


@pytest.mark.parametrize("quantised", [False, True])
@pytest.mark.parametrize("setting", SETTINGS)
def test_double_cut_runs_match_legacy(setting, quantised):
    excluded = 0
    for k, kappa in ((5, 5), (12, 1)):
        inst, asg, legacy = market(setting, k, kappa, quantised, n=300)
        prefs = build_preferences(asg)
        old = legacy_edges.build_preferences(legacy)
        order = np.argsort(inst.doctor_ratings)
        mid = inst.doctor_ratings[order[len(order) // 2]]
        scenarios = [double_cut.scenario_for_interval(
            inst, asg, (mid, mid + 0.5 * inst.alpha_eff))]
        for i in (0.1, 0.5, 0.9):
            scenarios.append(double_cut.scenario_for_doctor(
                inst, int(order[int(i * (len(order) - 1))])))
            scenarios.append(double_cut.scenario_for_hospital(
                inst, int(i * (inst.config.n_hospitals - 1))))
        excluded += len(scenarios[0].exclusions)
        for scenario in scenarios:
            got, _ = double_cut.run_double_cut(inst, asg, scenario, prefs)
            want, log, _ = legacy_edges.run_double_cut(inst, legacy, scenario,
                                                       old)
            same_matching(got, want)
            _, new_log = truncated_da(*prefs, inst.capacities,
                                      double_cut.scenario_rule(inst, scenario),
                                      scenario.orientation)
            # the same proposals in the same order; the step numbers count
            # the halt records too, which a prefix run writes at other times
            assert ([e[1:] for e in proposals(new_log)]
                    == [e[1:] for e in proposals(log)])
    assert excluded     # an interval run with excluded proposers


@pytest.mark.parametrize("quantised", [False, True])
@pytest.mark.parametrize("setting", SETTINGS)
def test_patched_run_matches_legacy(setting, quantised):
    inst, asg, legacy = market(setting, 5, 5, quantised, n=200)
    old = legacy_edges.build_preferences(legacy)
    ctx = _PatchContext(inst, asg)
    order = np.argsort(inst.doctor_ratings)
    for focal in (int(order[i]) for i in (5, 100, 190)):
        for kind in KINDS + (NULL_DEVIATION,):
            slots, _ = deviant_slots(inst, asg, DeviationSpec(focal, kind))
            iota_d, iota_h = _slot_values(inst, focal, len(slots) + 1, 0)
            u_focal, want, _ = legacy_edges.patched_da(
                inst, legacy, old, asg.nu_d, asg.nu_h, focal, slots,
                iota_d, iota_h)
            h = int(want.doctor_of[focal])
            u, state = ctx.patched_run(focal, slots, iota_d, iota_h)
            assert u == (UNMATCHED_UTILITY if h < 0 else u_focal[h])
            # the warm start makes its proposals in another order
            assert np.array_equal(matching_of(state, DOCTORS_PROPOSE).doctor_of,
                                  want.doctor_of)


@pytest.mark.parametrize("setting", SETTINGS)
def test_focal_rank_keeps_the_key_order_with_ties(setting):
    # the focal's half rank at h splits h's list exactly where its key
    # (-utility, focal) falls, also between doctors of equal utility
    inst, asg, _ = market(setting, 5, 5, quantised=True)
    ctx = _PatchContext(inst, asg)
    gen = random.Random(3)
    ties = 0
    for h, ds in enumerate(ctx.hospital_prefs):
        utils = ctx.hospital_prefs.utils[h]
        for _ in range(5 if ds else 0):
            u = gen.choice(utils)
            focal = gen.randrange(inst.config.n_doctors)
            rank = ctx._focal_rank(h, u, focal)
            for i, (d, ud) in enumerate(zip(ds, utils)):
                if d != focal:
                    assert (i < rank) == ((-ud, d) < (-u, focal))
            ties += utils.count(u) > 1
    assert ties > 50


@pytest.mark.parametrize("quantised", [False, True])
@pytest.mark.parametrize("setting,k,kappa",
                         CASES + [(s, 5, 12) for s in SETTINGS])
def test_run_stats_match_legacy(setting, k, kappa, quantised):
    # kappa=12 fills hospitals past 8 seats, where numpy's pairwise sum
    # would group the seat utilities; both sum them seat by seat
    inst, asg, legacy = market(setting, k, kappa, quantised,
                               n=600 if kappa == 12 else 150)
    prefs = build_preferences(asg)
    m = doctor_proposing_da(*prefs, inst.capacities)
    got = run_stats(inst, asg, m)
    want = legacy_edges.run_stats(inst, legacy, m)
    for f in dataclasses.fields(got):
        a, b = getattr(got, f.name), getattr(want, f.name)
        if isinstance(a, np.ndarray):
            assert a.dtype == b.dtype, f.name
            assert np.array_equal(a, b, equal_nan=True), f.name
        else:
            assert a == b, f.name
    if kappa == 12:
        assert got.hospital_fill.max() >= 9
