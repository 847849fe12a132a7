import math
import random

from conematch import da
from conematch.da import (DOCTORS_PROPOSE, HOSPITALS_PROPOSE, TruncationRule,
                          doctor_proposing_da, hospital_proposing_da,
                          order_invariance_check, truncated_da)
from conematch.market import generate, make_config
from conematch.strategy import build_preferences, select_interviews

from legacy_edges import utility_maps
from oracle_helpers import brute_stable_set, random_lists


def test_singleton_market():
    m = doctor_proposing_da([[0]], [[0]], [1])
    assert m.doctor_of == [0]
    m2 = hospital_proposing_da([[0]], [[0]], [1])
    assert m2.doctor_of == [0]


def test_capacity_binds():
    # both doctors list the one hospital, it prefers doctor 0
    m = doctor_proposing_da([[0], [0]], [[0, 1]], [1])
    assert m.doctor_of == [0, None]


def test_4x3_matches_brute_force_oracle():
    for seed in range(10):
        doctor_prefs, hospital_prefs = random_lists(4, 3, seed)
        caps = [1, 1, 1]
        stable, d_rank = brute_stable_set(doctor_prefs, hospital_prefs, caps)
        assert stable, "oracle found no stable matching"

        def rank_vec(key):
            return [d_rank[d][h] if (h := key[d]) is not None else math.inf
                    for d in range(4)]

        m_doc = doctor_proposing_da(doctor_prefs, hospital_prefs, caps)
        m_hosp = hospital_proposing_da(doctor_prefs, hospital_prefs, caps)
        key_doc = tuple(m_doc.doctor_of)
        key_hosp = tuple(m_hosp.doctor_of)
        assert key_doc in stable
        assert key_hosp in stable
        rd = rank_vec(key_doc)
        rh = rank_vec(key_hosp)
        for other in stable:
            ro = rank_vec(other)
            assert all(a <= b for a, b in zip(rd, ro))   # doctor-optimal
            assert all(a >= b for a, b in zip(rh, ro))   # doctor-pessimal


def test_many_to_one_oracle_with_capacity():
    for seed in range(6):
        doctor_prefs, hospital_prefs = random_lists(5, 3, seed + 100)
        caps = [2, 1, 2]
        stable, d_rank = brute_stable_set(doctor_prefs, hospital_prefs, caps)
        m = doctor_proposing_da(doctor_prefs, hospital_prefs, caps)
        assert tuple(m.doctor_of) in stable
        m.validate(caps)


def test_rural_hospital_across_orientations():
    for seed in range(8):
        doctor_prefs, hospital_prefs = random_lists(12, 4, seed, complete=False, k=3)
        caps = [2, 3, 1, 2]
        a = doctor_proposing_da(doctor_prefs, hospital_prefs, caps)
        b = hospital_proposing_da(doctor_prefs, hospital_prefs, caps)
        assert a.matched_doctors() == b.matched_doctors()
        assert a.fills() == b.fills()


def test_truncated_degenerate_equals_full():
    doctor_prefs, hospital_prefs = random_lists(8, 4, 3, complete=False, k=3)
    caps = [2, 2, 2, 2]
    full = doctor_proposing_da(doctor_prefs, hospital_prefs, caps)
    cut, log = truncated_da(doctor_prefs, hospital_prefs, caps,
                            TruncationRule(), DOCTORS_PROPOSE)
    assert cut.key() == full.key()
    assert log.proposals()  # the log recorded the run


def test_focal_target_one_proposal():
    # the single doctor's first choice is the focal hospital: one proposal,
    # held, then halt
    rule = TruncationRule(focal_target=1)
    utils = [{1: 2.0, 0: 1.0}]
    m, log = truncated_da([[1, 0]], [[0], [0]], [1, 1], rule,
                          DOCTORS_PROPOSE, doctor_utils=utils)
    assert m.doctor_of == [1]
    outcomes = [e[4] for e in log.events]
    assert outcomes == [da.HOLD, da.HALT_FOCAL]


def test_focal_proposal_requires_floor():
    # focal proposal under the floor is not made
    rule = TruncationRule(focal_target=1, utility_floor=5.0)
    utils = [{1: 2.0, 0: 1.0}]
    m, log = truncated_da([[1, 0]], [[0], [0]], [1, 1], rule,
                          DOCTORS_PROPOSE, doctor_utils=utils)
    assert m.doctor_of == [None]
    assert [e[4] for e in log.events] == [da.HALT_FLOOR]


def test_floor_respected_in_log():
    inst = generate(make_config(25, kappa=1, k=5, cone_override=0.6, seed=21), 0)
    asg = select_interviews(inst)
    prefs = build_preferences(asg)
    floor = 1.1
    rule = TruncationRule(utility_floor=floor)
    _, log = truncated_da(*prefs, inst.capacities, rule, DOCTORS_PROPOSE,
                          doctor_utils=utility_maps(asg)[0])
    proposals = log.proposals()
    assert proposals
    assert all(e[3] >= floor for e in proposals)
    assert any(e[4] == da.HALT_FLOOR for e in log.events)


def test_forbidden_window_blocks_proposal():
    # doctor 0 is displaced and her next utility (2.0) falls inside the
    # window: she halts without making that proposal
    rule = TruncationRule(forbidden_windows=[(1.5, 2.5)])
    doctor_prefs = [[0, 1], [0]]
    hospital_prefs = [[1, 0], [0]]
    utils = [{0: 3.0, 1: 2.0}, {0: 5.0}]
    m, log = truncated_da(doctor_prefs, hospital_prefs, [1, 1], rule,
                          DOCTORS_PROPOSE, doctor_utils=utils)
    assert m.doctor_of == [None, 0]
    assert [e[4] for e in log.events] == [da.HOLD, da.DISPLACE, da.HALT_WINDOW]
    assert all(not (1.5 <= e[3] < 2.5) for e in log.proposals())


def test_displaced_proposer_rechecks_floor():
    # doctor 0 holds h0; doctor 1 displaces her; her next utility is under
    # the floor so she halts instead of proposing to h1
    doctor_prefs = [[0, 1], [0]]
    hospital_prefs = [[1, 0], [0, 1]]
    utils = [{0: 2.0, 1: 0.5}, {0: 2.0}]
    rule = TruncationRule(utility_floor=1.0)
    m, log = truncated_da(doctor_prefs, hospital_prefs, [1, 1], rule,
                          DOCTORS_PROPOSE, doctor_utils=utils)
    assert m.doctor_of == [None, 0]
    floor_halts = [e for e in log.events if e[4] == da.HALT_FLOOR]
    assert len(floor_halts) == 1 and floor_halts[0][1] == 0


def test_proposer_filter_excludes():
    ratings = [0.2, 0.9]
    rule = TruncationRule(proposer_filter=lambda r: r >= 0.5)
    utils = [{0: 1.0}, {0: 2.0}]
    m, log = truncated_da([[0], [0]], [[0, 1]], [2], rule, DOCTORS_PROPOSE,
                          doctor_utils=utils, proposer_ratings=ratings)
    assert m.doctor_of == [None, 0]
    assert all(e[1] == 1 for e in log.proposals())


def test_order_invariance():
    doctor_prefs, hospital_prefs = random_lists(10, 5, 17, complete=False, k=4)
    caps = [2] * 5
    assert order_invariance_check(doctor_prefs, hospital_prefs, caps,
                                  list(range(10)))
    assert order_invariance_check(doctor_prefs, hospital_prefs, caps,
                                  list(reversed(range(10))))
    gen = random.Random(5)
    for _ in range(50):
        perm = list(range(10))
        gen.shuffle(perm)
        assert order_invariance_check(doctor_prefs, hospital_prefs, caps, perm)
        hperm = list(range(5))
        gen.shuffle(hperm)
        assert order_invariance_check(doctor_prefs, hospital_prefs, caps, hperm,
                                      orientation=HOSPITALS_PROPOSE)


def test_prefix_superset_never_hurts_receivers():
    # every doctor's truncated list is a prefix of her full list; on the
    # full lists every hospital does at least as well, seat for seat
    inst = generate(make_config(40, kappa=2, k=4, cone_override=0.4, seed=23), 0)
    asg = select_interviews(inst)
    doctor_prefs, hospital_prefs = build_preferences(asg)
    gen = random.Random(7)
    cut_prefs = [lst[: gen.randint(0, len(lst))] for lst in doctor_prefs]
    caps = inst.capacities
    cut = doctor_proposing_da(cut_prefs, hospital_prefs, caps)
    full = doctor_proposing_da(doctor_prefs, hospital_prefs, caps)
    hospital_utils = utility_maps(asg)[1]
    for h in range(inst.config.n_hospitals):
        cut_seats = sorted((hospital_utils[h][d] for d in cut.doctors_of[h]),
                           reverse=True)
        full_seats = sorted((hospital_utils[h][d] for d in full.doctors_of[h]),
                            reverse=True)
        assert len(full_seats) >= len(cut_seats)
        assert all(f >= c for f, c in zip(full_seats, cut_seats))


def test_event_log_line_serialization():
    rule = TruncationRule(utility_floor=1.0)
    utils = [{0: 2.0, 1: 0.5}]
    _, log = truncated_da([[0, 1]], [[0], [0]], [1, 1], rule,
                          DOCTORS_PROPOSE, doctor_utils=utils)
    lines = log.lines()
    assert lines[0] == "0,0,0,2,hold"
    # halts serialize with an empty target when none applies
    assert all(len(line.split(",")) == 5 for line in lines)


def test_total_proposals_bounded_and_fast():
    inst = generate(make_config(2000, kappa=5, k=12, cone_override=0.15,
                                seed=31), 0)
    asg = select_interviews(inst)
    prefs = build_preferences(asg)
    import time
    t0 = time.perf_counter()
    m, log = truncated_da(*prefs, inst.capacities, TruncationRule(),
                          DOCTORS_PROPOSE)
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    total_edges = sum(len(lst) for lst in prefs[0])
    assert len(log.proposals()) <= total_edges
    m.validate(inst.capacities)
