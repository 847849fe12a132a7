import numpy as np
import pytest

from conematch import market, strategy
from conematch.market import MarketConfig, generate, make_config
from conematch.strategy import (build_preferences, compute_cone,
                                request_interview_protocol, select_interviews,
                                weighted_utilities)


def small_instance(seed=0, **kw):
    kw.setdefault("cone_override", 0.15)
    cfg = make_config(kw.pop("n", 60), kappa=kw.pop("kappa", 3),
                      k=kw.pop("k", 3), seed=seed, **kw)
    return generate(cfg, 0)


def test_cone_bounds_mid_range():
    inst = small_instance(seed=2, n=200, kappa=1, k=4)
    d = int(np.argmin(np.abs(inst.doctor_ratings - 0.5)))
    cone = compute_cone(inst, d)
    r = inst.doctor_ratings[d]
    assert cone.low == pytest.approx(r - 0.15)
    assert cone.high == pytest.approx(r + 0.15)


def test_cone_clamped_at_bottom():
    inst = small_instance(seed=2, n=200, kappa=1, k=4)
    d = int(np.argmin(inst.doctor_ratings))
    cone = compute_cone(inst, d)
    assert cone.low == 0.0
    assert cone.high == pytest.approx(inst.doctor_ratings[d] + 0.15)


def test_cone_membership_exact():
    inst = small_instance(seed=4, n=100, kappa=1, k=3)
    for d in range(0, 100, 7):
        cone = compute_cone(inst, d)
        members = set(cone.member_hospitals)
        for h in range(inst.config.n_hospitals):
            inside = cone.low <= inst.hospital_ratings[h] < cone.high
            assert (h in members) == inside


def test_selection_is_top_k_by_private_value():
    inst = small_instance(seed=5, n=120, kappa=2, k=4)
    asg = select_interviews(inst)
    for d in range(inst.config.n_doctors):
        cone = compute_cone(inst, d)
        members = cone.member_hospitals
        chosen = set(asg.doctor_lists[d])
        assert len(chosen) == min(inst.config.k, members.size)
        if members.size > inst.config.k:
            vals = {int(h): float(inst.private_dh(d, h)) for h in members}
            worst_chosen = min(vals[h] for h in chosen)
            best_skipped = max(vals[h] for h in members if h not in chosen)
            assert worst_chosen >= best_skipped


def test_empty_cone_allowed():
    # a narrow cone over 12 hospitals leaves some doctors' bands empty;
    # at 0.05 the others hold 1 to 3 hospitals, below and above k
    for cone in (0.001, 0.05):
        cfg = MarketConfig(n_doctors=12, n_hospitals=12, capacity=1, k=2,
                           cone_override=cone, seed=3)
        inst = generate(cfg, 0)
        asg = select_interviews(inst)
        sizes = [len(lst) for lst in asg.doctor_lists]
        assert 0 in sizes  # doctors with no in-range hospital stay empty
        assert sizes == [min(2, compute_cone(inst, d).member_hospitals.size)
                         for d in range(cfg.n_doctors)]


def test_edge_symmetry():
    inst = small_instance(seed=6, n=90, kappa=3, k=3)
    asg = select_interviews(inst)
    for d, hs in enumerate(asg.doctor_lists):
        for h in hs:
            assert d in asg.hospital_lists[h]
    for h, ds in enumerate(asg.hospital_lists):
        for d in ds:
            assert h in asg.doctor_lists[d]


def test_preferences_sorted_by_utility():
    inst = small_instance(seed=7, n=80, kappa=2, k=4)
    asg = select_interviews(inst)
    doctor_prefs, hospital_prefs = build_preferences(asg)
    for d, ranked in enumerate(doctor_prefs):
        utils = [asg.doctor_utils[d][h] for h in ranked]
        assert utils == sorted(utils, reverse=True)
    for h, ranked in enumerate(hospital_prefs):
        utils = [asg.hospital_utils[h][d] for d in ranked]
        assert utils == sorted(utils, reverse=True)


def test_descending_sort_example():
    # 3 interviews with utilities {1.7, 2.1, 0.9} listed in descending order
    order = sorted([(1.7, 10), (2.1, 4), (0.9, 22)], key=lambda t: -t[0])
    assert [h for _, h in order] == [4, 10, 22]


def test_school_choice_common_ranking():
    inst = small_instance(seed=8, n=100, kappa=2, k=3,
                          setting=market.SCHOOL_CHOICE)
    asg = select_interviews(inst)
    _, hospital_prefs = build_preferences(asg)
    # every school ranks by public rating alone: any two lists agree on
    # their common doctors
    by_rating = np.argsort(-inst.doctor_ratings, kind="stable")
    position = {int(d): i for i, d in enumerate(by_rating)}
    for ranked in hospital_prefs:
        pos = [position[d] for d in ranked]
        assert pos == sorted(pos)


def test_argmax_invariance_scaling():
    inst = small_instance(seed=9, n=50, kappa=1, k=3)
    asg = select_interviews(inst)
    d = next(dd for dd, lst in enumerate(asg.doctor_lists) if len(lst) >= 2)
    ranked = sorted(asg.doctor_lists[d], key=lambda h: (-asg.doctor_utils[d][h], h))
    scaled = {h: 3.7 * asg.doctor_utils[d][h] for h in asg.doctor_lists[d]}
    ranked_scaled = sorted(asg.doctor_lists[d], key=lambda h: (-scaled[h], h))
    assert ranked == ranked_scaled


def test_weighted_utilities_identity_and_zero():
    inst = small_instance(seed=10, n=60, kappa=2, k=3)
    base = select_interviews(inst)
    same = weighted_utilities(base, 1.0, 1.0)
    assert same.doctor_utils == base.doctor_utils
    assert same.hospital_utils == base.hospital_utils

    no_interview = weighted_utilities(base, 0.0, 1.0)
    for d, hs in enumerate(base.doctor_lists):
        for h in hs:
            expect = inst.hospital_ratings[h] + inst.private_dh(d, h)
            assert no_interview.doctor_utils[d][h] == pytest.approx(float(expect))


def test_weighted_hospital_ordering_flip():
    # (r=0.50, iota=0.9) vs (r=0.80, iota=0.2): first wins at nu_h in {0.5, 1},
    # second wins at nu_h = 0
    def u(nu, r, iota):
        return r + nu * iota

    assert u(0.5, 0.50, 0.9) == pytest.approx(0.95)
    assert u(0.5, 0.80, 0.2) == pytest.approx(0.90)
    assert u(0.5, 0.50, 0.9) > u(0.5, 0.80, 0.2)
    assert u(1.0, 0.50, 0.9) == pytest.approx(1.40)
    assert u(1.0, 0.80, 0.2) == pytest.approx(1.00)
    assert u(1.0, 0.50, 0.9) > u(1.0, 0.80, 0.2)
    assert u(0.0, 0.50, 0.9) < u(0.0, 0.80, 0.2)


def test_request_interview_budgets():
    # k=4, kappa=1: 16 requests per doctor, 8 grants per hospital,
    # preference truncation at 4
    cfg = make_config(64, kappa=1, k=4, cone_override=0.5, seed=11,
                      setting=market.REQUEST_INTERVIEW)
    inst = generate(cfg, 0)
    assert int(cfg.capacities()[0] * cfg.k ** 1.5) == 8
    asg = request_interview_protocol(inst)
    for h, ds in enumerate(asg.hospital_lists):
        assert len(ds) <= 8
    _, hospital_prefs = build_preferences(asg)
    for ranked in hospital_prefs:
        assert len(ranked) <= cfg.capacities()[0] * cfg.k


def test_request_interview_few_requests_all_granted():
    cfg = MarketConfig(n_doctors=3, n_hospitals=3, capacity=2, k=2,
                       cone_override=1.0, seed=2,
                       setting=market.REQUEST_INTERVIEW)
    inst = generate(cfg, 0)
    asg = request_interview_protocol(inst)
    # every doctor requests min(k^2, cone)=3 hospitals; budget 2*2^1.5=5 > 3
    # received, so everything is granted
    for d in range(3):
        assert len(asg.doctor_lists[d]) == 3


def test_request_interview_edge_symmetry():
    cfg = make_config(50, kappa=2, k=3, cone_override=0.3, seed=13,
                      setting=market.REQUEST_INTERVIEW)
    inst = generate(cfg, 0)
    asg = request_interview_protocol(inst)
    for d, hs in enumerate(asg.doctor_lists):
        for h in hs:
            assert d in asg.hospital_lists[h]


# -- reference: the selection before the window top-k, kept as an oracle --

def _reference_top(ids, values, count):
    # highest values win; ties go to the lowest id
    if len(ids) <= count:
        return sorted(int(i) for i in ids)
    order = np.lexsort((ids, -values))
    return sorted(int(ids[i]) for i in order[:count])


def reference_select(inst):
    """One global lexsort over every cone member of every doctor."""
    cfg = inst.config
    n = cfg.n_doctors
    lo_bound, hi_bound = inst.hospital_range
    lows = np.maximum(lo_bound, inst.doctor_ratings - inst.half_width)
    highs = np.minimum(hi_bound, inst.doctor_ratings + inst.half_width)
    i0 = np.searchsorted(inst.hospital_sorted, lows, side="left")
    i1 = np.searchsorted(inst.hospital_sorted, highs, side="left")
    counts = i1 - i0
    starts = np.concatenate(([0], np.cumsum(counts)))
    within = np.arange(starts[-1]) - np.repeat(starts[:-1], counts)
    members_flat = inst.hospital_order[np.repeat(i0, counts) + within]
    d_flat = np.repeat(np.arange(n), counts)
    values = inst.private_dh(d_flat, members_flat)
    order = np.lexsort((members_flat, -values, d_flat))
    keep = within < cfg.k
    sel_counts = np.minimum(counts, cfg.k)
    sel_d = np.repeat(np.arange(n), sel_counts)
    sel_h = members_flat[order][keep]
    resort = np.argsort(sel_d * np.int64(cfg.n_hospitals) + sel_h,
                        kind="stable")
    return [chunk.tolist()
            for chunk in np.split(sel_h[resort], np.cumsum(sel_counts)[:-1])]


def reference_request(inst):
    """Per-doctor request loop and per-hospital grant loop."""
    cfg = inst.config
    k = cfg.k
    requests = []
    for d in range(cfg.n_doctors):
        members = compute_cone(inst, d).member_hospitals
        requests.append(_reference_top(members, inst.private_dh(d, members),
                                       k * k) if members.size else [])
    received = [[] for _ in range(cfg.n_hospitals)]
    for d, hs in enumerate(requests):
        for h in hs:
            received[h].append(d)
    lists = [[] for _ in range(cfg.n_doctors)]
    for h, ds in enumerate(received):
        if not ds:
            continue
        budget = max(1, int(inst.capacities[h] * k ** 1.5))
        arr = np.asarray(ds, dtype=np.int64)
        for d in _reference_top(arr, inst.private_hd(h, arr), budget):
            lists[d].append(h)
    return [sorted(hs) for hs in lists]


REFERENCES = {market.RESIDENCY: reference_select,
              market.SCHOOL_CHOICE: reference_select,
              market.REQUEST_INTERVIEW: reference_request}


def assert_matches_reference(monkeypatch, inst):
    # the default chunking, one row per chunk (every cone wider than the
    # budget), and two rows per chunk, which leaves the last chunk of an
    # odd n partial
    widest = max(compute_cone(inst, d).member_hospitals.size
                 for d in range(inst.config.n_doctors))
    expected = REFERENCES[inst.config.setting](inst)
    for budget in (strategy._WINDOW_BUDGET, 1, 2 * widest + 1):
        monkeypatch.setattr(strategy, "_WINDOW_BUDGET", budget)
        assert strategy.build_assignment(inst).doctor_lists == expected


@pytest.mark.parametrize("setting", market.SETTINGS)
@pytest.mark.parametrize("kappa", [1, 5])
@pytest.mark.parametrize("k", [1, 5, 12])
def test_window_top_k_matches_reference(monkeypatch, setting, kappa, k):
    cones = (0.3,) if k == 1 else (0.3, None)   # None: derived, clamped
    for seed in (0, 1, 2):
        for cone in cones:
            cfg = make_config(211, kappa=kappa, k=k, cone_override=cone,
                              seed=seed, setting=setting)
            assert_matches_reference(monkeypatch, generate(cfg, 0))


@pytest.mark.parametrize("setting", market.SETTINGS)
def test_window_top_k_ties_match_reference(monkeypatch, setting):
    # private values on a grid of quarters: most cones wider than the
    # selection tie at the cut
    cut_ties = 0
    for kappa, k in ((1, 1), (1, 5), (5, 5), (5, 12)):
        cfg = make_config(211, kappa=kappa, k=k, cone_override=0.3, seed=7,
                          setting=setting)
        inst = generate(cfg, 0)
        dh, hd = inst.private_dh, inst.private_hd
        monkeypatch.setattr(inst, "private_dh",
                            lambda d, h: np.floor(dh(d, h) * 4) / 4)
        monkeypatch.setattr(inst, "private_hd",
                            lambda h, d: np.floor(hd(h, d) * 4) / 4)
        count = k * k if setting == market.REQUEST_INTERVIEW else k
        for d in range(cfg.n_doctors):
            members = compute_cone(inst, d).member_hospitals
            if members.size > count:
                v = np.sort(inst.private_dh(d, members))[::-1]
                cut_ties += v[count - 1] == v[count]
        assert_matches_reference(monkeypatch, inst)
    assert cut_ties > 100
