"""The warm-started deviation probe against a full DA over the same lists.

`_PatchContext.patched_run` runs DA once per focal doctor with the focal's
list empty and inserts the focal into that settled state per replicate.  The
reference here spells the patched market out (the focal's list re-pointed to
the slot hospitals, the focal's key placed in each slot hospital's list by
utility) and runs the full `doctor_proposing_da` over it.
"""

import random

import numpy as np
import pytest

from conematch import da, deviation
from conematch.da import build_ranks, doctor_proposing_da, doctor_proposing_state
from conematch.deviation import (KINDS, NULL_DEVIATION, DeviationSpec,
                                 _PatchContext, _slot_values, deviant_slots,
                                 evaluate_deviation)
from conematch.market import (REQUEST_INTERVIEW, RESIDENCY, SCHOOL_CHOICE,
                              generate, make_config)
from conematch.strategy import build_assignment

from oracle_helpers import random_lists


def _reference_run(ctx, focal, slots, iota_d, iota_h):
    inst, asg = ctx.instance, ctx.assignment
    cfg = inst.config
    r_focal = inst.doctor_ratings[focal]
    u_focal = {h: float(inst.hospital_ratings[h] + inst.private_dh(focal, h)
                        + cfg.nu_d * iota_d[s]) for s, h in enumerate(slots)}
    doctor_prefs = list(ctx.doctor_prefs)
    doctor_prefs[focal] = sorted(u_focal, key=lambda h: (-u_focal[h], h))
    hospital_prefs = []
    for h, lst in enumerate(ctx.hospital_prefs):
        utils = {d: asg.hospital_utils[h][d] for d in lst if d != focal}
        if h in u_focal:
            utils[focal] = float(r_focal) if cfg.setting == SCHOOL_CHOICE \
                else float(r_focal + cfg.nu_h * iota_h[slots.index(h)])
        hospital_prefs.append(sorted(utils, key=lambda d: (-utils[d], d)))
    m = doctor_proposing_da(doctor_prefs, hospital_prefs, inst.capacities)
    h = m.doctor_of[focal]
    return (deviation.UNMATCHED_UTILITY if h is None else u_focal[h]), m


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
        ctx = _PatchContext(inst, asg)
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
                    u, m, _ = ctx.patched_run(focal, slots, iota_d, iota_h)
                    ref_u, ref = _reference_run(ctx, focal, slots,
                                                iota_d, iota_h)
                    assert u == ref_u
                    assert m.doctor_of == ref.doctor_of
                    assert m.doctors_of == ref.doctors_of
                    cases += 1
                    unmatched += slots != [] and ref.doctor_of[focal] is None
    assert cases == 3 * 5 * 5 * 2
    assert unmatched > 0      # a focal who lists hospitals and ends unmatched


def test_insert_leaves_the_shared_state_untouched():
    for seed in range(20):
        doctor_prefs, hospital_prefs = random_lists(9, 4, seed, complete=False,
                                                    k=3)
        caps = [2, 1, 2, 1]
        ranks = build_ranks(hospital_prefs)
        gen = random.Random(seed)
        focal = gen.randrange(9)
        absent = list(doctor_prefs)
        absent[focal] = []
        state = doctor_proposing_state(absent, ranks, caps)
        before = [sorted(heap) for heap in state.heaps]
        for _ in range(3):
            focal_list = gen.sample(range(4), gen.randint(1, 4))
            # the focal's rank at each hospital: between two existing ranks
            overlay = {h: gen.randint(0, len(ranks[h])) - 0.5
                       for h in focal_list}
            child = state.insert(focal, focal_list, overlay)
            patched_prefs = list(doctor_prefs)
            patched_prefs[focal] = focal_list
            patched_ranks = [dict(r) for r in ranks]
            for h, r in overlay.items():
                patched_ranks[h][focal] = r
            full = doctor_proposing_da(patched_prefs, hospital_prefs, caps,
                                       hospital_ranks=patched_ranks)
            got = da.LazyMatching(child, da.DOCTORS_PROPOSE, 9, 4)
            assert got.doctor_of == full.doctor_of
            assert child.partner(focal) == full.doctor_of[focal]
            assert [sorted(heap) for heap in state.heaps] == before


def test_insert_refuses_a_present_proposer():
    doctor_prefs, hospital_prefs = random_lists(5, 3, 0)
    state = doctor_proposing_state(doctor_prefs, build_ranks(hospital_prefs),
                                   [2, 2, 2])
    with pytest.raises(ValueError):
        state.insert(0, [1], {1: 0.5})


def test_full_engine_runs_once_per_focal(monkeypatch):
    cfg = make_config(300, kappa=5, k=5, cone_override=0.3, seed=4)
    inst = generate(cfg, 0)
    asg = build_assignment(inst)
    ctx = _PatchContext(inst, asg)
    calls = []
    real = da._engine

    def counting(*args):
        calls.append(1)
        return real(*args)
    monkeypatch.setattr(da, "_engine", counting)
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
