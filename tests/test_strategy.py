import numpy as np
import pytest

from conematch import market, rng, strategy
from conematch.market import MarketConfig, generate, make_config
from conematch.strategy import (build_preferences, compute_cone, key_order,
                                request_interview_protocol, select_interviews,
                                weighted_utilities)

from legacy_edges import utility_maps
from oracle_helpers import quarter_draws


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


def assert_edge_symmetry(asg):
    # the hospital side lists exactly the doctor side's edges, each once,
    # every hospital's in its own slice
    edges = asg.edge_d.size
    assert sorted(asg.hospital_order.tolist()) == list(range(edges))
    for d, hs in enumerate(asg.doctor_lists):
        lo, hi = asg.doctor_offsets[d], asg.doctor_offsets[d + 1]
        assert (asg.edge_d[lo:hi] == d).all()
        assert sorted(asg.edge_h[lo:hi].tolist()) == hs
    for h in range(asg.n_hospitals()):
        lo, hi = asg.hospital_offsets[h], asg.hospital_offsets[h + 1]
        for e in asg.hospital_order[lo:hi].tolist():
            assert asg.edge_h[e] == h
            assert h in asg.doctor_lists[asg.edge_d[e]]


def test_edge_symmetry():
    inst = small_instance(seed=6, n=90, kappa=3, k=3)
    assert_edge_symmetry(select_interviews(inst))


def test_preferences_sorted_by_utility():
    inst = small_instance(seed=7, n=80, kappa=2, k=4)
    asg = select_interviews(inst)
    doctor_prefs, hospital_prefs = build_preferences(asg)
    doctor_utils, hospital_utils = utility_maps(asg)
    for d, ranked in enumerate(doctor_prefs):
        utils = [doctor_utils[d][h] for h in ranked]
        assert utils == sorted(utils, reverse=True)
    for h, ranked in enumerate(hospital_prefs):
        utils = [hospital_utils[h][d] for d in ranked]
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
    utils = utility_maps(asg)[0][d]
    ranked = sorted(asg.doctor_lists[d], key=lambda h: (-utils[h], h))
    scaled = {h: 3.7 * utils[h] for h in asg.doctor_lists[d]}
    ranked_scaled = sorted(asg.doctor_lists[d], key=lambda h: (-scaled[h], h))
    assert ranked == ranked_scaled


def test_weighted_utilities_identity_and_zero():
    inst = small_instance(seed=10, n=60, kappa=2, k=3)
    base = select_interviews(inst)
    same = weighted_utilities(base, 1.0, 1.0)
    assert utility_maps(same) == utility_maps(base)

    no_interview = utility_maps(weighted_utilities(base, 0.0, 1.0))[0]
    for d, hs in enumerate(base.doctor_lists):
        for h in hs:
            expect = inst.hospital_ratings[h] + inst.private_dh(d, h)
            assert no_interview[d][h] == pytest.approx(float(expect))
    # the weights obey MarketConfig's rule for nu_d and nu_h
    for weights in ((1.5, 1.0), (1.0, -0.1), (1.0, float("nan"))):
        with pytest.raises(ValueError):
            weighted_utilities(base, *weights)


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
    assert np.bincount(asg.edge_h).max() <= 8
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
    assert_edge_symmetry(request_interview_protocol(inst))


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
        values = rng.uniform(inst.private_hd_state, h, arr)
        for d in _reference_top(arr, values, budget):
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
    # draws on a grid of quarters: most cones wider than the
    # selection tie at the cut
    cut_ties = 0
    for kappa, k in ((1, 1), (1, 5), (5, 5), (5, 12)):
        cfg = make_config(211, kappa=kappa, k=k, cone_override=0.3, seed=7,
                          setting=setting)
        inst = generate(cfg, 0)
        count = k * k if setting == market.REQUEST_INTERVIEW else k
        with monkeypatch.context() as m:
            quarter_draws(m)
            for d in range(cfg.n_doctors):
                members = compute_cone(inst, d).member_hospitals
                if members.size > count:
                    v = np.sort(inst.private_dh(d, members))[::-1]
                    cut_ties += v[count - 1] == v[count]
            assert_matches_reference(m, inst)
    assert cut_ties > 100


# -- key_order against numpy's stable multi-key sort --

def distinct_pairs(gen, size, n_d, n_h):
    cells = gen.choice(n_d * n_h, size=size, replace=False)
    return cells // n_h, cells % n_h


def assert_stable_order(*keys):
    got = key_order(*keys)
    assert got.dtype == np.int64
    np.testing.assert_array_equal(got, np.lexsort(keys[::-1]))


@pytest.mark.parametrize("seed", range(4))
def test_key_order_matches_stable_order_on_random_keys(seed):
    gen = np.random.default_rng(seed)
    d, h = distinct_pairs(gen, 3000, 200, 40)
    u = gen.random(d.size)
    v = gen.integers(0, 2 ** 64 - 1, size=d.size, dtype=np.uint64,
                     endpoint=True)
    assert_stable_order(d, -u, h)
    assert_stable_order(h, -u, d)
    assert_stable_order(d, ~v, h)
    assert_stable_order(h, ~v, d)
    assert_stable_order(d, h)
    assert_stable_order(-u, h - 20, d)          # signed ids below zero


@pytest.mark.parametrize("seed", range(4))
def test_key_order_keeps_ties_of_tie_heavy_keys(seed):
    gen = np.random.default_rng(seed)
    d, h = distinct_pairs(gen, 2000, 60, 60)
    quarters = np.floor(gen.random(d.size) * 8) / 4      # 8 values
    pool = np.array([0, 1, 2 ** 53 - 1, 2 ** 63, 2 ** 64 - 1], dtype=np.uint64)
    repeated = gen.choice(pool, size=d.size)
    signed_zero = gen.choice(np.array([-0.0, 0.0, 1.0]), size=d.size)
    assert np.count_nonzero(np.signbit(signed_zero) & (signed_zero == 0))
    for value in (-quarters, ~repeated, -signed_zero, signed_zero):
        assert_stable_order(d, value, h)
        assert_stable_order(h, value, d)
        assert_stable_order(value, d, h)


def test_key_order_on_empty_and_single_rows():
    none_i, none_f = np.zeros(0, np.int64), np.zeros(0)
    assert_stable_order(none_i, -none_f, none_i)
    assert_stable_order(np.array([7]), np.array([-0.5]), np.array([3]))
    assert_stable_order(np.array([2 ** 62]), np.array([2 ** 64 - 1], np.uint64))


def test_key_order_ids_at_the_edge_of_int64():
    top_d, top_h = 2 ** 32 - 1, 2 ** 31 - 1       # spans 2**32 * 2**31 = 2**63
    d = np.array([top_d, 0, top_d, 0, 5])
    h = np.array([0, top_h, top_h, 0, 5])
    assert_stable_order(d, h)
    assert_stable_order(d + (2 ** 63 - 2 ** 32), h)  # offset from the least
    assert_stable_order(d, h + np.array([0, 1, 0, 0, 0]))  # past 2**63
    assert_stable_order(np.array([-2 ** 63, 2 ** 63 - 1]), np.array([0, 0]))


def test_key_order_refuses_repeated_rows():
    with pytest.raises(ValueError, match="repeat"):
        key_order(np.array([1, 0, 1]), np.array([0.5, 0.5, 0.5]))


def test_key_order_refuses_rows_repeated_in_nan():
    with pytest.raises(ValueError, match="repeat"):
        key_order(np.array([0, 0]), np.array([np.nan, np.nan]))


# -- key_order's one-sort path, where one key is a value --

def value_path_taken(monkeypatch, *keys):
    # whether key_order returns from its one-sort path on these keys: its
    # chain of sorts then runs once, not a second time over every key
    chains = []
    chain = strategy._chain
    with monkeypatch.context() as m:
        m.setattr(strategy, "_chain",
                  lambda *args: chains.append(1) or chain(*args))
        key_order(*keys)
    return len(chains) == 1


def test_key_order_value_path_beside_ids_at_the_edge_of_int64(monkeypatch):
    # the one-sort path offsets no wide id, so it cannot wrap, and gives
    # the stable order
    d = np.array([-2 ** 63, 2 ** 63 - 1])
    assert value_path_taken(monkeypatch, d, np.array([0.5, 0.25]))
    assert_stable_order(d, np.array([0.5, 0.25]))
    assert_stable_order(d[::-1], d, np.array([0.5, 0.25]))
    gen = np.random.default_rng(0)
    pool = np.array([-2 ** 63, -2 ** 63 + 1, -1, 0, 2 ** 62, 2 ** 63 - 1])
    ids = gen.choice(pool, size=(2, 500))
    u = gen.random(500)
    v = gen.integers(0, 2 ** 64 - 1, size=500, dtype=np.uint64,
                     endpoint=True)
    for value in (u, -u, ~v):
        assert value_path_taken(monkeypatch, ids[0], ids[1], value)
        assert_stable_order(ids[0], value, np.arange(500))
        assert_stable_order(ids[0], ids[1], value)


@pytest.mark.parametrize("seed", range(3))
def test_key_order_nan_values_tie_and_the_next_key_decides(seed, monkeypatch):
    gen = np.random.default_rng(seed)
    d, h = distinct_pairs(gen, 2000, 60, 60)
    u = gen.random(d.size)
    u[gen.random(d.size) < 0.2] = np.nan
    assert not value_path_taken(monkeypatch, d, u, h)  # NaNs tie: full chain
    for value in (u, -u):
        assert_stable_order(d, value, h)
        assert_stable_order(h, value, d)
        assert_stable_order(value, d, h)
    assert_stable_order(np.array([0, 0]), np.array([np.nan, np.nan]),
                        np.array([1, 0]))


@pytest.mark.parametrize("top", [2 ** 15 - 2, 2 ** 15 - 1, 2 ** 15,
                                 40000, 2 ** 40])
def test_key_order_value_path_over_narrow_and_wide_id_spans(top, monkeypatch):
    # an id spanning under 2**15 is sorted as int16, a wider one as it is
    gen = np.random.default_rng(top)
    d = gen.integers(0, top + 1, size=3000)
    d[:2] = 0, top
    u = gen.random(d.size)
    v = gen.integers(0, 2 ** 64 - 1, size=d.size, dtype=np.uint64,
                     endpoint=True)
    for ids in (d, d - 2 ** 14, d + (2 ** 63 - 1 - top)):
        for value in (-u, ~v):
            assert value_path_taken(monkeypatch, ids, value)
            assert_stable_order(ids, value, np.arange(d.size))
            assert_stable_order(ids[::-1], ids, value)


def test_key_order_ids_of_narrow_integer_types():
    # int8 ids spanning 256 values are offset in int64, not wrapped in int8
    gen = np.random.default_rng(5)
    d, h = distinct_pairs(gen, 3000, 256, 40)
    d8 = (d - 128).astype(np.int8)
    u = gen.random(d.size)
    assert_stable_order(d8, -u, h)
    assert_stable_order(d8, h.astype(np.int32))
    assert_stable_order(h.astype(np.int16), d8)


def test_key_order_value_path_refuses_repeated_rows(monkeypatch):
    d = np.array([3, 1, 3, 2])
    u = np.array([0.5, 0.25, 0.5, 0.75])
    with pytest.raises(ValueError, match="repeat"):
        key_order(d, -u, np.array([0, 1, 0, 2]))
    # rows equal in the ids and the value, told apart by the next key
    assert not value_path_taken(monkeypatch, d, -u, np.array([1, 1, 0, 2]))
    assert_stable_order(d, -u, np.array([1, 1, 0, 2]))
