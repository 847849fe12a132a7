"""A focal's probe batch against the per-probe code it replaced.

`_PatchContext` probes all of one focal's slot lists and replicates as one
batch: one `_slot_values` draw of every replicate at the widest list, and
one vectorised search for the focal's rank at every slot hospital
(`_PatchContext._rank_at`).  Here the ranks are compared with the bisect
rule that ranked one hospital at a time, on tie-heavy markets, and the
batched draws with each replicate's own `interview_dh`/`interview_hd`
draws, bit for bit.  tests/test_warm_start.py compares the batch's
utilities with a full DA over each probe's patched lists.
"""

import bisect

import numpy as np
import pytest

from conematch import deviation
from conematch.deviation import (TOP_K_OF_ALL, DeviationSpec, _PatchContext,
                                 _replicate_salt, _slot_values, deviant_slots)
from conematch.market import (REQUEST_INTERVIEW, SETTINGS, generate,
                              make_config)
from conematch.strategy import InterviewAssignment, build_assignment


def bisect_rank(hospital_prefs, h, u, focal):
    # the rule the batch replaced: positions in h's list, ordered by keys
    # (-utility, doctor), are the base ranks; the focal ranks half a
    # position before the first key greater than (-u, focal), and her own
    # old entry, on either side, is never compared
    utils = hospital_prefs.utils[h]
    i = bisect.bisect_left(utils, -u, key=float.__neg__)
    j = bisect.bisect_right(utils, -u, i, key=float.__neg__)
    return bisect.bisect_left(hospital_prefs[h], focal, i, j) - 0.5


def quantised_market(setting, cone, n=150, kappa=5, k=5, seed=0):
    # both sides' utilities rounded down to quarters, so that ties are
    # common in every hospital's list
    cfg = make_config(n, kappa=kappa, k=k, cone_override=cone, seed=seed,
                      setting=setting)
    inst = generate(cfg, 0)
    asg = build_assignment(inst)
    budget = inst.capacities * k if setting == REQUEST_INTERVIEW else None
    return inst, InterviewAssignment.from_edges(
        inst, asg.nu_d, asg.nu_h, asg.edge_d, asg.edge_h,
        np.floor(asg.u_doc * 4) / 4, np.floor(asg.u_hosp * 4) / 4,
        cfg.n_doctors, cfg.n_hospitals, budget)


@pytest.mark.parametrize("sparse", [False, True])
@pytest.mark.parametrize("setting", SETTINGS)
def test_ranks_match_the_bisect_rule(setting, sparse):
    # Cases, for 12 random focals and the owners of 4 unranked edges (if
    # any), in one array per focal: every hospital at each utility its list
    # holds and at one random quarter, and every hospital the focal has an
    # edge to at that edge's utility, which ties her old key where the
    # hospital ranks her.  RequestInterview's unranked edges are in no
    # hospital's list, so they count for no one.  The sparse market (kappa
    # 1, k 2, a narrow cone) leaves some hospitals' lists empty
    inst, asg = (quantised_market(setting, 0.02, kappa=1, k=2) if sparse
                 else quantised_market(setting, 0.3))
    ctx = _PatchContext(asg)
    prefs = ctx.hospital_prefs
    gen = np.random.default_rng(1)
    unranked = asg.hospital_rank < 0
    focals = gen.choice(inst.config.n_doctors, 12, replace=False).tolist()
    focals += asg.edge_d[unranked][:4].tolist()
    old_keys = off_list = tied = 0
    for focal in focals:
        hs, us = [], []
        for h in range(inst.config.n_hospitals):
            values = sorted(set(prefs.utils[h]) | {gen.integers(-4, 12) / 4})
            hs += [h] * len(values)
            us += values
        mine = np.flatnonzero(asg.edge_d == focal)
        hs += asg.edge_h[mine].tolist()
        us += asg.u_hosp[mine].tolist()
        got = ctx._rank_at(np.array(hs), np.array(us), focal) - 0.5
        assert got.tolist() == [bisect_rank(prefs, h, u, focal)
                                for h, u in zip(hs, us)]
        old_keys += int((~unranked[mine]).sum())
        off_list += int(unranked[mine].sum())
        tied += sum(prefs.utils[h].count(u) > 1 for h, u in zip(hs, us))
    assert old_keys > 0 and tied > 100
    assert any(not lst for lst in prefs) == sparse
    if not sparse:
        assert (off_list > 0) == (setting == REQUEST_INTERVIEW)


def test_batched_slot_draws_are_each_replicates_own(monkeypatch):
    # Cases: a sparse cone, so that some focal lists fewer than k
    # hospitals and her TOP_K_OF_ALL list is longer than her base list;
    # 6 replicates.  The batch draws once, at the longer width, and each
    # row is that replicate's interview_dh/interview_hd draw bit for bit
    cfg = make_config(200, kappa=5, k=3, cone_override=0.02, seed=6)
    inst = generate(cfg, 0)
    asg = build_assignment(inst)
    focal, top = next(
        (d, slots) for d in range(cfg.n_doctors)
        for slots in [deviant_slots(inst, asg, DeviationSpec(d, TOP_K_OF_ALL))[0]]
        if 0 < len(asg.doctor_list(d)) < len(slots))
    base, width, reps = asg.doctor_list(focal), len(top), range(6)

    iota_d, iota_h = _slot_values(inst, focal, width, np.array(reps))
    assert iota_d.shape == iota_h.shape == (6, width)
    for t in reps:
        salt = _replicate_salt(focal, t)
        own = (inst.interview_dh(focal, np.arange(width), salt=salt),
               inst.interview_hd(np.arange(width), focal, salt=salt))
        for row, want in zip((iota_d[t], iota_h[t]), own):
            assert row.view(np.uint64).tolist() == want.view(np.uint64).tolist()
        # an int replicate draws its own row alone
        for row, want in zip(_slot_values(inst, focal, width, t), own):
            assert row.view(np.uint64).tolist() == want.view(np.uint64).tolist()

    draws = []
    real = deviation._slot_values

    def counting(instance, f, n_slots, replicates):
        draws.append((f, n_slots, list(replicates)))
        return real(instance, f, n_slots, replicates)
    monkeypatch.setattr(deviation, "_slot_values", counting)
    ctx = _PatchContext(asg)
    got = ctx.utilities(focal, [(base, reps), (top, reps)])
    assert draws == [(focal, width, list(reps))]
    # each probe against the batch of one with its replicate's own draws
    for slots, us in zip((base, top), got):
        for t in reps:
            assert us[t] == ctx.patched_run(focal, slots,
                                            *real(inst, focal, width, t))[0]
