"""The warm-started deviation probe against a full DA over the same lists.

`_PatchContext` runs DA once per context, with every probed focal absent
(her stop is 0).  Each focal's focal-absent state is that shared run with
the other focals' lists added back, and each replicate inserts the focal
into it.
The reference here spells the patched market out (the focal's list
re-pointed to the slot hospitals, the focal's key placed in each slot
hospital's list by utility) and runs the full `doctor_proposing_da` over
it; the focal-absent states are compared with a fresh run over lists with
only that focal's emptied, on the rule-checking engine of
tests/legacy_edges.py, which also runs the insert's reference market.
"""

import random

import numpy as np
import pytest

from conematch import cli, da, deviation
from conematch.da import TruncationRule, doctor_proposing_da, truncated_state
from conematch.deviation import (KINDS, NULL_DEVIATION, DeviationSpec,
                                 _PatchContext, _slot_values, deviant_slots,
                                 evaluate_deviation)
from conematch.market import (REQUEST_INTERVIEW, RESIDENCY, SCHOOL_CHOICE,
                              generate, make_config)
from conematch.strategy import build_assignment, weighted_utilities

from legacy_edges import (HandLists, Rule, hand_lists, rule_checking_da,
                          utility_maps)
from oracle_helpers import edge_lists, random_lists


def _reference_run(ctx, focal, slots, iota_d, iota_h):
    inst, asg = ctx.instance, ctx.assignment
    cfg = inst.config
    r_focal = inst.doctor_ratings[focal]
    u_focal = {h: float(inst.hospital_ratings[h] + inst.private_dh(focal, h)
                        + asg.nu_d * iota_d[s]) for s, h in enumerate(slots)}
    doctor_prefs = list(ctx.doctor_prefs)
    doctor_prefs[focal] = sorted(u_focal, key=lambda h: (-u_focal[h], h))
    hospital_prefs = []
    hospital_utils = utility_maps(asg)[1]
    for h, lst in enumerate(ctx.hospital_prefs):
        utils = {d: hospital_utils[h][d] for d in lst if d != focal}
        if h in u_focal:
            utils[focal] = float(r_focal) if cfg.setting == SCHOOL_CHOICE \
                else float(r_focal + asg.nu_h * iota_h[slots.index(h)])
        hospital_prefs.append(sorted(utils, key=lambda d: (-utils[d], d)))
    m = doctor_proposing_da(*edge_lists(doctor_prefs, hospital_prefs),
                            inst.capacities)
    h = int(m.doctor_of[focal])
    return (deviation.UNMATCHED_UTILITY if h < 0 else u_focal[h]), m


@pytest.mark.parametrize("setting", [RESIDENCY, SCHOOL_CHOICE,
                                     REQUEST_INTERVIEW])
@pytest.mark.parametrize("kappa", [1, 5])
def test_patched_run_matches_full_da(setting, kappa):
    cases = unmatched = 0
    for seed in range(3):
        cfg = make_config(200, kappa=kappa, k=3, cone_override=0.15,
                          seed=seed, setting=setting)
        inst = generate(cfg, 0)
        asg = build_assignment(inst)
        ctx = _PatchContext(asg)
        order = np.argsort(inst.doctor_ratings)
        focals = [int(order[i]) for i in (0, 3, 60, 120, 199)]
        for focal in focals:
            base = list(asg.doctor_lists[focal])
            for kind in KINDS + (NULL_DEVIATION,):
                slots, _ = deviant_slots(
                    inst, asg, DeviationSpec(focal, kind, offset=0.05))
                n_slots = max(len(base), len(slots))
                for t in range(2):
                    iota_d, iota_h = _slot_values(inst, focal, n_slots, t)
                    u, state = ctx.patched_run(focal, slots, iota_d, iota_h)
                    ref_u, ref = _reference_run(ctx, focal, slots,
                                                iota_d, iota_h)
                    assert u == ref_u
                    assert np.array_equal(
                        da.matching_of(state, da.DOCTORS_PROPOSE).doctor_of,
                        ref.doctor_of)
                    cases += 1
                    unmatched += slots != [] and ref.doctor_of[focal] < 0
    assert cases == 3 * 5 * 5 * 2
    assert unmatched > 0      # a focal who lists hospitals and ends unmatched


@pytest.mark.parametrize("setting", [RESIDENCY, REQUEST_INTERVIEW])
def test_patched_run_uses_the_assignment_weights(setting):
    # the focal's fresh interview values are weighted as the assignment
    # weights every other edge, here not at all
    cfg = make_config(200, kappa=5, k=3, cone_override=0.15, seed=5,
                      setting=setting)
    inst = generate(cfg, 0)
    full = build_assignment(inst)
    asg = weighted_utilities(full, 0.0, 0.0)
    ctx, full_ctx = _PatchContext(asg), _PatchContext(full)
    order = np.argsort(inst.doctor_ratings)
    moved = 0
    for focal in (int(order[i]) for i in (3, 60, 120, 199)):
        slots = asg.doctor_list(focal)
        for t in range(3):
            iota_d, iota_h = _slot_values(inst, focal, len(slots), t)
            u, state = ctx.patched_run(focal, slots, iota_d, iota_h)
            ref_u, ref = _reference_run(ctx, focal, slots, iota_d, iota_h)
            assert u == ref_u
            assert np.array_equal(
                da.matching_of(state, da.DOCTORS_PROPOSE).doctor_of,
                ref.doctor_of)
            moved += u != full_ctx.patched_run(focal, slots, iota_d, iota_h)[0]
    assert moved      # the weights reach the focal's utility


@pytest.mark.parametrize("setting", [RESIDENCY, SCHOOL_CHOICE,
                                     REQUEST_INTERVIEW])
@pytest.mark.parametrize("cone", [0.15, 0.02])
def test_batched_utilities_match_full_da(setting, cone):
    # Cases: one batch per focal over every kind's slots and 3 replicates,
    # for focals across the rating range and, in the sparse market, one
    # whose TOP_K_OF_ALL list is longer than her base list; each probe
    # against a full DA over its patched lists, with that replicate's own
    # interview_dh/interview_hd draws
    cfg = make_config(200, kappa=5, k=3, cone_override=cone, seed=2,
                      setting=setting)
    inst = generate(cfg, 0)
    asg = build_assignment(inst)
    order = [int(d) for d in np.argsort(inst.doctor_ratings)]
    focals = [order[i] for i in (3, 60, 120, 199)]

    def lists(focal):
        return [deviant_slots(inst, asg, DeviationSpec(focal, kind,
                                                       offset=0.05))[0]
                for kind in (NULL_DEVIATION,) + KINDS]
    focals += [d for d in order
               if 0 < len(asg.doctor_list(d)) < len(lists(d)[-1])][:1]
    ctx = _PatchContext(asg, focals=focals)
    reps = range(3)
    longer = 0
    for focal in focals:
        probed = lists(focal)
        for slots, got in zip(probed, ctx.utilities(
                focal, [(slots, reps) for slots in probed])):
            for t in reps:
                salt = deviation._replicate_salt(focal, t)
                at = np.arange(len(slots))
                want, _ = _reference_run(
                    ctx, focal, slots, inst.interview_dh(focal, at, salt=salt),
                    inst.interview_hd(at, focal, salt=salt))
                assert got[t] == want
            longer += len(slots) > len(probed[0])
    if cone == 0.02:
        assert longer      # a TOP_K_OF_ALL list longer than the base list


def test_insert_leaves_the_shared_state_untouched():
    for seed in range(20):
        doctor_prefs, hospital_prefs = random_lists(9, 4, seed, complete=False,
                                                    k=3)
        caps = [2, 1, 2, 1]
        gen = random.Random(seed)
        focal = gen.randrange(9)
        absent = list(doctor_prefs)
        absent[focal] = []
        # the hospitals without the absent focal, who lists none of them
        others = [[d for d in lst if d != focal] for lst in hospital_prefs]
        ranks = [{d: r for r, d in enumerate(lst)} for lst in others]
        state = truncated_state(*edge_lists(absent, others), caps)
        before = [sorted(heap) for heap in state.heaps]
        for _ in range(3):
            focal_list = gen.sample(range(4), gen.randint(1, 4))
            # the focal's rank at each hospital: between two existing ranks
            overlay = {h: gen.randint(0, len(ranks[h])) - 0.5
                       for h in focal_list}
            child = state.insert(focal, focal_list,
                                 [overlay[h] for h in focal_list])
            patched_prefs = list(doctor_prefs)
            patched_prefs[focal] = focal_list
            patched_ranks = [dict(r) for r in ranks]
            for h, r in overlay.items():
                patched_ranks[h][focal] = r
            full, _, _ = rule_checking_da(
                *hand_lists(patched_prefs, hospital_prefs,
                            hospital_ranks=patched_ranks), caps, Rule())
            got = da.matching_of(child, da.DOCTORS_PROPOSE)
            assert got.key() == full.key()
            assert child.partner(focal) == full.doctor_of[focal]
            assert [sorted(heap) for heap in state.heaps] == before


def test_insert_refuses_a_present_proposer():
    state = truncated_state(*edge_lists(*random_lists(5, 3, 0)), [2, 2, 2])
    with pytest.raises(ValueError):
        state.insert(0, [1], [0.5])


def test_full_engine_runs_once_per_focal(monkeypatch):
    # no focal is declared, so each joins the probe set and rebuilds the
    # shared run once
    cfg = make_config(300, kappa=5, k=5, cone_override=0.3, seed=4)
    inst = generate(cfg, 0)
    asg = build_assignment(inst)
    ctx = _PatchContext(asg)
    calls = _counting_engine(monkeypatch)
    specs = [(deviation.SWAP_IN_CONE, 0.0), (deviation.TOP_K_OF_ALL, 0.0),
             (deviation.ABOVE_CONE, 0.0), (deviation.ABOVE_CONE, 0.1),
             (deviation.ABOVE_CONE, 0.2), (deviation.BELOW_CONE, 0.0)]
    focals = range(10, 290, 35)
    assert len(focals) == 8
    for focal in focals:
        for kind, x in specs:
            evaluate_deviation(inst, asg,
                               DeviationSpec(focal, kind, offset=x,
                                             replicates=3), context=ctx)
    assert len(calls) == 8


def _settled(state, stop):
    # the matching, the stops, pointers and held counts, and each
    # receiver's heap as a set (its layout depends on the proposal order)
    return (da.matching_of(state, da.DOCTORS_PROPOSE).key(), list(stop),
            list(state.pointer), list(state.held),
            [set(heap) for heap in state.heaps])


def _fresh_absent(ctx, focal):
    # the focal's list emptied by hand, with the table's ranks, so that the
    # heaps hold the same (-rank, doctor) pairs; each stop is a list's
    # length, the focal's 0
    prefs = ctx.doctor_prefs
    lists = list(prefs)
    lists[focal] = []
    _, _, state = rule_checking_da(HandLists(lists, prefs.ranks),
                                   ctx.hospital_prefs, ctx.instance.capacities,
                                   Rule())
    return _settled(state, [len(lst) for lst in lists])


def _counting_engine(monkeypatch):
    # DA runs by either engine: the FIFO loop (_engine) or the round
    # engine (_rounds), which runs to its last proposer on its own
    calls = []
    for name in ("_engine", "_rounds"):
        def counting(*args, real=getattr(da, name)):
            calls.append(1)
            return real(*args)
        monkeypatch.setattr(da, name, counting)
    return calls


@pytest.mark.parametrize("setting", [RESIDENCY, SCHOOL_CHOICE])
@pytest.mark.parametrize("cone", [0.15, 0.02])
def test_focal_absent_states_match_a_fresh_run(setting, cone, monkeypatch):
    cfg = make_config(200, kappa=5, k=3, cone_override=cone, seed=6,
                      setting=setting)
    inst = generate(cfg, 0)
    asg = build_assignment(inst)
    order = [int(d) for d in np.argsort(inst.doctor_ratings)]
    empty = [d for d in order if not asg.doctor_list(d)]
    declared = [order[40], order[120], order[40], order[199]] + empty[:1]
    undeclared = [order[80], order[7]]
    ctx = _PatchContext(asg, focals=np.asarray(declared))
    calls = _counting_engine(monkeypatch)
    # interleaved, repeated, then undeclared focals, then declared ones again
    probes = ([order[120], order[40], order[199], order[120], order[40]]
              + empty[:1] + undeclared + [order[40], order[80]])
    for focal in probes:
        state = ctx._focal_absent(focal)
        assert _settled(state, state.stop) == _fresh_absent(ctx, focal), focal
    assert len(calls) == 1 + len(undeclared)
    assert bool(empty) == (cone == 0.02)   # the sparse market lists nobody for some


def test_with_proposers_refuses_what_insert_refuses():
    prefs = edge_lists(*random_lists(6, 3, 1))
    caps = [2, 2, 2]
    rule = TruncationRule(proposer_filter=np.arange(6) != 2)
    state = truncated_state(*prefs, caps, rule)
    assert state.stop[2] == 0
    child = state.with_proposers([2])
    full = truncated_state(*prefs, caps)
    assert np.array_equal(da.matching_of(child, da.DOCTORS_PROPOSE).doctor_of,
                          da.matching_of(full, da.DOCTORS_PROPOSE).doctor_of)
    entry = (prefs[0][2], prefs[0].ranks[2])
    # a proposer whose stop is not 0
    with pytest.raises(ValueError, match="proposer 0 is not absent"):
        state.with_proposers([0])
    with pytest.raises(ValueError, match="proposer 2 is not absent"):
        child.with_proposers([2])
    with pytest.raises(ValueError, match="proposer 2 is not absent"):
        child.insert(2, *entry)


@pytest.mark.parametrize("setting", [RESIDENCY, REQUEST_INTERVIEW])
def test_one_declared_context_gives_the_results_of_fresh_ones(setting):
    cfg = make_config(200, kappa=5, k=3, cone_override=0.15, seed=8,
                      setting=setting)
    inst = generate(cfg, 0)
    asg = build_assignment(inst)
    order = np.argsort(inst.doctor_ratings)
    focals = [int(order[i]) for i in (30, 110, 170)]
    shared = _PatchContext(asg, focals=focals)
    for focal in focals:
        for kind in KINDS + (NULL_DEVIATION,):
            spec = DeviationSpec(focal, kind, offset=0.05, replicates=3)
            assert (evaluate_deviation(inst, asg, spec, context=shared)
                    == evaluate_deviation(inst, asg, spec,
                                          context=_PatchContext(asg)))


def test_deviation_csv_runs_the_engine_once_and_each_probe_once(tmp_path,
                                                                 monkeypatch):
    raw = {"n_doctors": 120, "n_hospitals": 24, "capacity": 5, "k": 3,
           "cone_override": 0.15, "seed": 5, "runs": 1}
    configs = cli.expand_grid(raw)
    calls = _counting_engine(monkeypatch)
    plain = cli.Campaign(configs=configs, out_dir=tmp_path / "plain")
    assert cli.run_campaign(plain) == cli.EXIT_OK
    campaign_runs = len(calls)

    probes, specs = [], []
    insert, evaluate = da.DAState.insert, deviation.evaluate_deviation

    def counting_probe(self, proposer, *args):
        probes.append(1)
        return insert(self, proposer, *args)

    def keeping_spec(instance, assignment, spec, **kwargs):
        specs.append((instance, assignment, spec))
        return evaluate(instance, assignment, spec, **kwargs)
    monkeypatch.setattr(da.DAState, "insert", counting_probe)
    monkeypatch.setattr(deviation, "evaluate_deviation", keeping_spec)
    del calls[:]
    probed = cli.Campaign(configs=configs, out_dir=tmp_path / "probed",
                          deviation_focals=3, deviation_replicates=4)
    assert cli.run_campaign(probed) == cli.EXIT_OK
    assert len(calls) == campaign_runs + 1
    triples = set()
    for instance, assignment, spec in specs:
        focal = spec.focal_doctor
        for slots in (assignment.doctor_list(focal),
                      deviant_slots(instance, assignment, spec)[0]):
            triples.update((focal, tuple(slots), t)
                           for t in range(spec.replicates))
    assert len(specs) == 3 * 6
    assert len(probes) == len(triples) < 2 * 4 * len(specs)


def test_deviation_csv_draws_each_replicates_slots_once(tmp_path,
                                                        monkeypatch):
    # each (focal, replicate) is drawn once, in one draw per focal; drawn
    # one replicate at a time instead, the CSVs are the same bytes
    raw = {"n_doctors": 120, "n_hospitals": 24, "capacity": 5, "k": 3,
           "cone_override": 0.15, "seed": 5, "runs": 1}
    configs = cli.expand_grid(raw)
    draws = []
    slot_values = deviation._slot_values

    def counting_draws(instance, focal, n_slots, replicates):
        draws.append([(focal, t) for t in np.ravel(replicates).tolist()])
        return slot_values(instance, focal, n_slots, replicates)

    def campaign(name):
        out = tmp_path / name
        assert cli.run_campaign(cli.Campaign(
            configs=configs, out_dir=out, deviation_focals=3,
            deviation_replicates=4)) == cli.EXIT_OK
        return {p.name: p.read_bytes() for p in out.glob("*.csv")}

    monkeypatch.setattr(deviation, "_slot_values", counting_draws)
    batched = campaign("batched")
    keys = [key for draw in draws for key in draw]
    assert len(draws) == 3 and len(set(keys)) == len(keys) == 3 * 4

    def one_at_a_time(instance, focal, n_slots, replicates):
        rows = [slot_values(instance, focal, n_slots, t)
                for t in np.ravel(replicates).tolist()]
        shape = np.shape(replicates) + (n_slots,)
        return tuple(np.reshape([row[i] for row in rows], shape)
                     for i in (0, 1))
    monkeypatch.setattr(deviation, "_slot_values", one_at_a_time)
    single = campaign("single")
    assert any("deviation" in name for name in batched)
    assert single == batched
