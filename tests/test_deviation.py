import heapq
import math

import numpy as np
import pytest

import legacy_edges
from conematch import da, deviation
from conematch.deviation import (ABOVE_CONE, BELOW_CONE, KINDS, NULL_DEVIATION,
                                 SWAP_IN_CONE, TOP_K_OF_ALL, DeviationSpec,
                                 _PatchContext, deviant_slots,
                                 epsilon_estimate, evaluate_deviation,
                                 locality_check)
from conematch.market import SCHOOL_CHOICE, SETTINGS, generate, make_config
from conematch.strategy import (build_assignment, compute_cone,
                                weighted_utilities)


def make_market(seed=0, n=120, kappa=2, k=3, cone=0.3, **kw):
    cfg = make_config(n, kappa=kappa, k=k, cone_override=cone / 2.0,
                      seed=seed, **kw)
    inst = generate(cfg, 0)
    return inst, build_assignment(inst)


def pick_focal(inst, quantile=0.5):
    order = np.argsort(inst.doctor_ratings)
    return int(order[int(quantile * (len(order) - 1))])


def test_null_deviation_gain_exactly_zero():
    inst, asg = make_market(seed=1)
    focal = pick_focal(inst)
    res = evaluate_deviation(inst, asg,
                             DeviationSpec(focal, NULL_DEVIATION, replicates=6))
    assert res.gain == 0.0 and res.gain_se == 0.0
    assert res.base_mean == res.deviant_mean


def test_null_deviation_matchings_identical_every_replicate():
    inst, asg = make_market(seed=2)
    focal = pick_focal(inst)
    ctx = _PatchContext(asg)
    base = list(asg.doctor_lists[focal])
    for t in range(5):
        iota_d, iota_h = deviation._slot_values(inst, focal, len(base), t)
        _, s1 = ctx.patched_run(focal, base, iota_d, iota_h)
        _, s2 = ctx.patched_run(focal, list(base), iota_d, iota_h)
        assert np.array_equal(da.matching_of(s1, da.DOCTORS_PROPOSE).doctor_of,
                              da.matching_of(s2, da.DOCTORS_PROPOSE).doctor_of)


def test_replicates_vary_but_are_deterministic():
    inst, asg = make_market(seed=3)
    focal = pick_focal(inst)
    spec = DeviationSpec(focal, SWAP_IN_CONE, replicates=8)
    a = evaluate_deviation(inst, asg, spec)
    b = evaluate_deviation(inst, asg, spec)
    assert a.gain == b.gain and a.base_mean == b.base_mean


def test_swap_in_cone_replaces_marginal_slot():
    inst, asg = make_market(seed=4)
    focal = pick_focal(inst)
    base = list(asg.doctor_lists[focal])
    slots, _ = deviant_slots(inst, asg, DeviationSpec(focal, SWAP_IN_CONE))
    if slots != base:
        changed = [s for s, (x, y) in enumerate(zip(base, slots)) if x != y]
        assert len(changed) == 1
        s = changed[0]
        v = inst.private_dh(focal, np.asarray(base))
        assert s == int(np.argmin(v))
        cone = compute_cone(inst, focal)
        members = set(int(h) for h in cone.member_hospitals)
        outside = members - set(base)
        v_out = {h: float(inst.private_dh(focal, h)) for h in outside}
        assert slots[s] == min(outside, key=lambda h: (-v_out[h], h))


def test_above_cone_target_beyond_cone_top():
    inst, asg = make_market(seed=5, n=300, kappa=3)
    focal = pick_focal(inst, 0.4)
    spec = DeviationSpec(focal, ABOVE_CONE, offset=0.05)
    slots, realized = deviant_slots(inst, asg, spec)
    base = list(asg.doctor_lists[focal])
    new = [h for h in slots if h not in base]
    assert len(new) == 1
    assert realized >= inst.half_width - 1e-9
    assert inst.hospital_ratings[new[0]] >= compute_cone(inst, focal).high


def test_below_cone_target():
    inst, asg = make_market(seed=6, n=300, kappa=3)
    focal = pick_focal(inst, 0.6)
    slots, realized = deviant_slots(
        inst, asg, DeviationSpec(focal, BELOW_CONE, offset=0.05))
    base = list(asg.doctor_lists[focal])
    new = [h for h in slots if h not in base]
    assert len(new) == 1 and realized <= -(inst.half_width - 1e-9)


def test_top_k_of_all_uses_pre_interview_utility():
    inst, asg = make_market(seed=7)
    focal = pick_focal(inst)
    slots, _ = deviant_slots(inst, asg, DeviationSpec(focal, TOP_K_OF_ALL))
    k = inst.config.k
    pre = inst.hospital_ratings + inst.private_dh(
        focal, np.arange(inst.config.n_hospitals))
    expect = set(np.argsort(-pre, kind="stable")[:k].tolist())
    assert set(slots) == expect


def test_degenerate_market_all_gains_zero():
    # k equals the number of hospitals and the cone covers the whole range:
    # no deviation can change the interview set
    inst, asg = make_market(seed=8, n=30, kappa=3, k=10, cone=4.0)
    focal = pick_focal(inst)
    for kind in (SWAP_IN_CONE, ABOVE_CONE, BELOW_CONE, TOP_K_OF_ALL):
        res = evaluate_deviation(inst, asg,
                                 DeviationSpec(focal, kind, replicates=4))
        assert res.gain == 0.0


def test_school_above_cone_full_school_rejects():
    # when the deviant target is fully matched by higher-rated students,
    # the proposal is rejected and the doctor only lost her marginal edge
    inst, asg = make_market(seed=9, n=200, kappa=2, k=3,
                            setting=SCHOOL_CHOICE)
    focal = pick_focal(inst, 0.3)
    spec = DeviationSpec(focal, ABOVE_CONE, offset=2 * inst.alpha_eff)
    base = list(asg.doctor_lists[focal])
    dev, _ = deviant_slots(inst, asg, spec)
    target = next(h for h in dev if h not in base)
    ctx = _PatchContext(asg)
    r_focal = inst.doctor_ratings[focal]
    checked = 0
    for t in range(10):
        iota_d, iota_h = deviation._slot_values(inst, focal, len(dev), t)
        bu, _ = ctx.patched_run(focal, base, iota_d, iota_h)
        du, s_dev = ctx.patched_run(focal, dev, iota_d, iota_h)
        held = np.flatnonzero(
            da.matching_of(s_dev, da.DOCTORS_PROPOSE).doctor_of == target)
        full = len(held) >= inst.capacities[target]
        outranked = all(inst.doctor_ratings[d] > r_focal for d in held)
        if full and outranked:
            checked += 1
            assert du <= bu + 1e-12
    assert checked > 0


def test_locality_of_changes():
    # the rejection-chain check and the proposal-graph check it replaced
    for setting in SETTINGS:
        for kappa in (1, 5):
            inst, asg = make_market(seed=10, n=150, kappa=kappa, k=3,
                                    setting=setting)
            ctx = _PatchContext(asg)
            for q in (0.2, 0.55, 0.9):
                focal = pick_focal(inst, q)
                for kind in KINDS + (NULL_DEVIATION,):
                    spec = DeviationSpec(focal, kind, offset=0.05)
                    assert locality_check(inst, asg, spec, replicate=1,
                                          context=ctx)
                    assert legacy_edges.locality_graph_check(inst, asg, spec,
                                                             replicate=1)


def _locality_corpus():
    inst, asg = make_market(seed=10, n=150, kappa=3, k=3)
    return inst, asg, DeviationSpec(pick_focal(inst, 0.55), SWAP_IN_CONE)


def test_locality_check_catches_an_insert_writing_the_shared_state(monkeypatch):
    inst, asg, spec = _locality_corpus()
    assert locality_check(inst, asg, spec)

    def leaky(self, i, value):
        self.changed[i] = self.base[i] = value
    monkeypatch.setattr(da._Overlay, "__setitem__", leaky)
    assert not locality_check(inst, asg, spec)


def test_locality_check_catches_a_match_moved_off_the_chain(monkeypatch):
    inst, asg, spec = _locality_corpus()
    real = da.DAState.insert

    def moving(self, *args):
        # unmatch the first held doctor the insert did not touch
        child = real(self, *args)
        doctors, _ = child.touched()
        h, d = next((h, d) for h, heap in enumerate(child.heaps)
                    for _, d in heap if d not in doctors)
        heap = child.heaps[h]
        heap[:] = [e for e in heap if e[1] != d]
        heapq.heapify(heap)
        return child
    monkeypatch.setattr(da.DAState, "insert", moving)
    assert not locality_check(inst, asg, spec)


def test_epsilon_estimate_report():
    inst, asg = make_market(seed=11, n=100, kappa=2, k=4)
    non_bottom = np.flatnonzero(inst.doctor_ratings >= inst.half_width)
    batch = [(inst, asg, int(d)) for d in non_bottom[:6]]
    report = epsilon_estimate(batch, offsets=(0.0, inst.alpha_eff),
                              replicates=4)
    assert set(report["kinds"]) == {SWAP_IN_CONE, TOP_K_OF_ALL,
                                    ABOVE_CONE, BELOW_CONE}
    cfg = inst.config
    assert report["reference"] == pytest.approx(
        2 * cfg.a * math.sqrt(math.log(cfg.k) / cfg.k))
    assert report["epsilon"] == max(v["gain_mean"] for v in report["kinds"].values())


def test_epsilon_estimate_probes_each_assignment_with_its_own_context():
    inst, asg = make_market(seed=3, n=200, kappa=2, k=4)
    flat = weighted_utilities(asg, 0.0, 0.0)
    focal = pick_focal(inst)

    def cells(batch):
        return epsilon_estimate(batch, replicates=4)["grid"]
    both = cells([(inst, asg, focal), (inst, flat, focal)])
    alone = (cells([(inst, asg, focal)]), cells([(inst, flat, focal)]))
    for key, cell in both.items():
        gains = [a[key]["gain_mean"] for a in alone]
        assert cell["gain_mean"] == pytest.approx(sum(gains) / 2)
    assert any(alone[0][key] != alone[1][key] for key in both)


def test_evaluate_deviation_refuses_another_assignments_context():
    inst, asg = make_market(seed=3)
    ctx = _PatchContext(asg)
    spec = DeviationSpec(pick_focal(inst), SWAP_IN_CONE, replicates=2)
    evaluate_deviation(inst, asg, spec, context=ctx)
    with pytest.raises(ValueError, match="another assignment"):
        evaluate_deviation(inst, weighted_utilities(asg, 0.0, 0.0), spec,
                           context=ctx)


def test_deviation_csv_rows():
    inst, asg = make_market(seed=12)
    focal = pick_focal(inst)
    res = evaluate_deviation(inst, asg,
                             DeviationSpec(focal, SWAP_IN_CONE, replicates=3))
    rows = deviation.deviation_rows([res])
    assert len(rows) == 1
    cols = rows[0].split(",")
    assert cols[0] == str(focal) and cols[1] == SWAP_IN_CONE
    assert int(cols[5]) == 3
    assert deviation.DEVIATION_CSV_HEADER.count(",") == rows[0].count(",")


@pytest.mark.parametrize("setting", SETTINGS)
def test_deviant_slots_match_the_loop_filter(setting):
    # every kind and offset, for focals across the rating range, including
    # the top and bottom ones whose beyond-cone band is empty or all listed
    fallbacks = 0
    for kappa, cone in ((1, 0.3), (3, 0.8)):
        inst, asg = make_market(seed=15, n=90, kappa=kappa, k=3, cone=cone,
                                setting=setting)
        for q in (0.0, 0.1, 0.35, 0.6, 0.9, 1.0):
            focal = pick_focal(inst, q)
            for kind in KINDS + (NULL_DEVIATION,):
                for x in (0.0, 0.05, 2.0):
                    spec = DeviationSpec(focal, kind, offset=x)
                    got = deviant_slots(inst, asg, spec)
                    assert got == legacy_edges.loop_deviant_slots(inst, asg,
                                                                  spec)
                    assert all(type(h) is int for h in got[0])
            cone_ = compute_cone(inst, focal)
            top = inst.hospitals_in_band(cone_.high, inst.hospital_range[1])
            fallbacks += not set(top.tolist()) - set(asg.doctor_list(focal))
    assert fallbacks        # the nearest-of-everything branch ran


def test_unknown_kind_rejected_even_for_an_empty_list():
    inst, asg = make_market(seed=13, cone=0.002)
    empty = next(d for d, hs in enumerate(asg.doctor_lists) if not hs)
    listed = next(d for d, hs in enumerate(asg.doctor_lists) if hs)
    for focal in (empty, listed):
        with pytest.raises(ValueError, match="unknown deviation kind"):
            deviant_slots(inst, asg, DeviationSpec(focal, "sideways"))


@pytest.mark.parametrize("replicates", [0, -2])
def test_evaluate_deviation_needs_a_replicate(replicates):
    inst, asg = make_market(seed=14)
    spec = DeviationSpec(pick_focal(inst), SWAP_IN_CONE, replicates=replicates)
    with pytest.raises(ValueError, match="replicates"):
        evaluate_deviation(inst, asg, spec)


@pytest.mark.parametrize("focal", [-1, 120, 10 ** 6])
def test_deviant_slots_refuses_a_focal_outside_the_market(focal):
    # refused up front, not as an OverflowError or IndexError from inside
    inst, asg = make_market(seed=15)
    for kind in KINDS + (NULL_DEVIATION,):
        with pytest.raises(ValueError, match="outside"):
            deviant_slots(inst, asg, DeviationSpec(focal, kind))
    with pytest.raises(ValueError, match="outside"):
        evaluate_deviation(inst, asg, DeviationSpec(focal, SWAP_IN_CONE))


@pytest.mark.parametrize("offset", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("kind", [ABOVE_CONE, BELOW_CONE])
def test_deviant_slots_refuses_a_non_finite_offset(kind, offset):
    # a non-finite target rating would be nearest to no hospital, and
    # argmin would pick the first unlisted one
    inst, asg = make_market(seed=1)
    spec = DeviationSpec(pick_focal(inst), kind, offset=offset)
    with pytest.raises(ValueError, match="offset"):
        deviant_slots(inst, asg, spec)


def test_deviations_refuse_an_instance_not_the_assignments():
    # the deviant list would be read off the other market's ratings
    inst, asg = make_market(seed=1)
    other, _ = make_market(seed=2)
    spec = DeviationSpec(pick_focal(inst), ABOVE_CONE, replicates=2)
    for call in (deviant_slots, evaluate_deviation, locality_check):
        with pytest.raises(ValueError, match="instance"):
            call(other, asg, spec)
    with pytest.raises(ValueError, match="instance"):
        epsilon_estimate([(other, asg, spec.focal_doctor)], replicates=2)
