import math
import random

import numpy as np
import pytest

from conematch import da
from conematch.da import (DOCTORS_PROPOSE, HOSPITALS_PROPOSE, TruncationRule,
                          doctor_proposing_da, hospital_proposing_da,
                          order_invariance_check, truncated_da,
                          truncated_state)
from conematch.market import generate, make_config
from conematch.strategy import (build_assignment, build_preferences,
                                select_interviews)

from legacy_edges import utility_maps
from oracle_helpers import (brute_stable_set, edge_lists, halts_of,
                            manual_assignment, proposals, random_lists)


def test_singleton_market():
    m = doctor_proposing_da(*edge_lists([[0]], [[0]]), [1])
    assert m.doctor_of.tolist() == [0]
    m2 = hospital_proposing_da(*edge_lists([[0]], [[0]]), [1])
    assert m2.doctor_of.tolist() == [0]


def test_capacity_binds():
    # both doctors list the one hospital, it prefers doctor 0
    m = doctor_proposing_da(*edge_lists([[0], [0]], [[0, 1]]), [1])
    assert m.doctor_of.tolist() == [0, -1]


def brute_key(m):
    # brute_stable_set's form of a matching: None where unmatched
    return tuple(None if h < 0 else h for h in m.key())


def test_4x3_matches_brute_force_oracle():
    for seed in range(10):
        doctor_prefs, hospital_prefs = random_lists(4, 3, seed)
        caps = [1, 1, 1]
        stable, d_rank = brute_stable_set(doctor_prefs, hospital_prefs, caps)
        assert stable, "oracle found no stable matching"

        def rank_vec(key):
            return [d_rank[d][h] if (h := key[d]) is not None else math.inf
                    for d in range(4)]

        prefs = edge_lists(doctor_prefs, hospital_prefs)
        m_doc = doctor_proposing_da(*prefs, caps)
        m_hosp = hospital_proposing_da(*prefs, caps)
        key_doc = brute_key(m_doc)
        key_hosp = brute_key(m_hosp)
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
        m = doctor_proposing_da(*edge_lists(doctor_prefs, hospital_prefs), caps)
        assert brute_key(m) in stable
        m.validate(caps)


def test_rural_hospital_across_orientations():
    for seed in range(8):
        doctor_prefs, hospital_prefs = random_lists(12, 4, seed, complete=False, k=3)
        caps = [2, 3, 1, 2]
        prefs = edge_lists(doctor_prefs, hospital_prefs)
        a = doctor_proposing_da(*prefs, caps)
        b = hospital_proposing_da(*prefs, caps)
        assert np.array_equal(a.doctor_of >= 0, b.doctor_of >= 0)
        assert np.array_equal(a.fills(), b.fills())


def test_truncated_degenerate_equals_full():
    prefs = edge_lists(*random_lists(8, 4, 3, complete=False, k=3))
    caps = [2, 2, 2, 2]
    full = doctor_proposing_da(*prefs, caps)
    cut, log = truncated_da(*prefs, caps, TruncationRule(), DOCTORS_PROPOSE)
    assert cut.key() == full.key()
    assert proposals(log)  # the log recorded the run
    cut_h, _ = truncated_da(*prefs, caps, TruncationRule(), HOSPITALS_PROPOSE)
    assert cut_h.key() == hospital_proposing_da(*prefs, caps).key()


def truncated(doctor_utils, hospital_utils, caps, rule):
    """truncated_da over a hand-written table, with the rule's stops, and
    the halts read off the settled run."""
    prefs = build_preferences(manual_assignment(doctor_utils, hospital_utils))
    m, log = truncated_da(*prefs, caps, rule, DOCTORS_PROPOSE)
    stop = da.truncation_stops(prefs[0], rule)
    halted = halts_of(truncated_state(*prefs, caps, rule))
    return m, log, stop.tolist(), halted


def test_focal_target_one_proposal():
    # the single doctor's first choice is the focal hospital: one proposal,
    # held; her prefix ends there, and she holds it, so she does not halt
    m, log, stop, halted = truncated([{1: 2.0, 0: 1.0}], [{0: 1.0}, {0: 1.0}],
                                     [1, 1], TruncationRule(focal_target=1))
    assert m.doctor_of.tolist() == [1]
    outcomes = [e[4] for e in log.events]
    assert outcomes == [da.HOLD]
    assert stop == [1]
    assert halted == set()


def test_focal_proposal_requires_floor():
    # focal proposal under the floor is not made: her prefix is empty
    rule = TruncationRule(focal_target=1, utility_floor=5.0)
    m, log, stop, _ = truncated([{1: 2.0, 0: 1.0}],
                                [{0: 1.0}, {0: 1.0}], [1, 1], rule)
    assert m.doctor_of.tolist() == [-1]
    assert log.events == []
    assert stop == [0]


def test_stop_priorities():
    # one doctor's list, best first: h0 (3.0), the focal h1 (2.0), h2 (1.0)
    utils = [{0: 3.0, 1: 2.0, 2: 1.0}]
    hospitals = [{0: 1.0}, {0: 1.0}, {0: 1.0}]
    cases = [
        # the focal ends the prefix before the floor would
        (TruncationRule(focal_target=1, utility_floor=1.5), 2),
        # a focal below the floor is not proposed to
        (TruncationRule(focal_target=1, utility_floor=2.5), 1),
        # a window does not stop a proposal to the focal
        (TruncationRule(focal_target=1, forbidden_windows=[(1.5, 2.5)]), 2),
        # a floor and a window on the same entry stop her there
        (TruncationRule(utility_floor=2.5, forbidden_windows=[(1.5, 2.5)]), 1),
        (TruncationRule(forbidden_windows=[(0.5, 1.5)]), 2),
        # per-proposer bounds: an empty window exempts her
        (TruncationRule(forbidden_windows=[(np.array([np.inf]), 2.5)]), 3),
        (TruncationRule(utility_floor=np.array([-np.inf])), 3),
        (TruncationRule(proposer_filter=np.array([False])), 0),
    ]
    for rule, want_stop in cases:
        m, log, stop, _ = truncated(utils, hospitals, [1, 1, 1], rule)
        assert stop == [want_stop], rule
        # she proposes down her prefix and holds its first entry
        assert m.doctor_of.tolist() == [0 if want_stop else -1]


def test_floor_respected_in_log():
    inst = generate(make_config(25, kappa=1, k=5, cone_override=0.6, seed=21), 0)
    asg = select_interviews(inst)
    prefs = build_preferences(asg)
    floor = 1.1
    rule = TruncationRule(utility_floor=floor)
    _, log = truncated_da(*prefs, inst.capacities, rule, DOCTORS_PROPOSE)
    made = proposals(log)
    assert made
    assert all(e[3] >= floor for e in made)
    # a doctor who proposed runs down to her floor with no seat: she halts
    # before an entry below it
    state = truncated_state(*prefs, inst.capacities, rule)
    utils = prefs[0].utils
    assert any(state.pointer[p] and state.stop[p] < len(utils[p])
               and utils[p][state.stop[p]] < floor for p in halts_of(state))


def test_forbidden_window_blocks_proposal():
    # doctor 0 is displaced and her next utility (2.0) falls inside the
    # window: she halts without making that proposal
    rule = TruncationRule(forbidden_windows=[(1.5, 2.5)])
    m, log, stop, halted = truncated([{0: 3.0, 1: 2.0}, {0: 5.0}],
                                     [{0: 1.0, 1: 2.0}, {0: 1.0}], [1, 1], rule)
    assert m.doctor_of.tolist() == [-1, 0]
    assert [e[4] for e in log.events] == [da.HOLD, da.DISPLACE]
    assert stop == [1, 1]
    assert halted == {0}
    assert all(not (1.5 <= e[3] < 2.5) for e in proposals(log))


def test_displaced_proposer_rechecks_floor():
    # doctor 0 holds h0; doctor 1 displaces her; her next utility is under
    # the floor, which ends her prefix, so she halts instead of proposing
    # to h1
    rule = TruncationRule(utility_floor=1.0)
    m, log, stop, halted = truncated([{0: 2.0, 1: 0.5}, {0: 2.0}],
                                     [{0: 1.0, 1: 2.0}, {0: 1.0}], [1, 1], rule)
    assert m.doctor_of.tolist() == [-1, 0]
    assert [e[1:3] for e in proposals(log)] == [(0, 0), (1, 0)]
    assert stop == [1, 1]
    assert halted == {0}


def test_proposer_filter_excludes():
    rule = TruncationRule(proposer_filter=np.array([0.2, 0.9]) >= 0.5)
    m, log, _, _ = truncated([{0: 1.0}, {0: 2.0}], [{0: 2.0, 1: 1.0}], [2],
                             rule)
    assert m.doctor_of.tolist() == [-1, 0]
    assert all(e[1] == 1 for e in proposals(log))


def test_rule_needs_the_edge_table():
    # a rule is compiled over the proposers' view of one edge table
    prefs = edge_lists([[0]], [[0]])
    rule = TruncationRule(utility_floor=0.0)
    with pytest.raises(ValueError, match="build_preferences"):
        truncated_da([[0]], [[0]], [1], rule)
    with pytest.raises(ValueError, match="build_preferences"):
        da.truncation_stops([[0]], rule)


def test_order_invariance():
    doctor_prefs, hospital_prefs = edge_lists(
        *random_lists(10, 5, 17, complete=False, k=4))
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
    # the hospitals' lists still name the doctors who cut them, where no
    # doctor proposes: the cut run is over the table without those entries,
    # each hospital ranking the doctors left as its whole list does
    ranks = [{d: r for r, d in enumerate(lst) if h in cut_prefs[d]}
             for h, lst in enumerate(hospital_prefs)]
    cut = doctor_proposing_da(*edge_lists(cut_prefs, None, ranks), caps)
    full = doctor_proposing_da(doctor_prefs, hospital_prefs, caps)
    hospital_utils = utility_maps(asg)[1]
    for h in range(inst.config.n_hospitals):
        cut_seats = sorted((hospital_utils[h][d]
                            for d in np.flatnonzero(cut.doctor_of == h)),
                           reverse=True)
        full_seats = sorted((hospital_utils[h][d]
                             for d in np.flatnonzero(full.doctor_of == h)),
                            reverse=True)
        assert len(full_seats) >= len(cut_seats)
        assert all(f >= c for f, c in zip(full_seats, cut_seats))


def test_event_log_records():
    # (step, proposer, target, utility, outcome), proposals only; where a
    # proposer halts is read off the settled run
    rule = TruncationRule(utility_floor=1.0)
    _, log, _, halted = truncated([{0: 2.0, 1: 0.5}], [{0: 1.0}, {0: 1.0}],
                                  [1, 1], rule)
    assert log.events == [(0, 0, 0, 2.0, da.HOLD)]
    assert halted == set()
    _, log, _, halted = truncated([{0: 2.0, 1: 0.5}, {0: 1.5, 1: 0.7}],
                                  [{0: 1.0, 1: 2.0}, {0: 1.0, 1: 1.0}],
                                  [1, 1], rule)
    assert log.events == [(0, 0, 0, 2.0, da.HOLD),
                          (1, 1, 0, 1.5, da.DISPLACE)]
    assert halted == {0}


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
    assert len(proposals(log)) <= total_edges
    m.validate(inst.capacities)


ENTRY_POINTS = {
    "doctor_proposing_da": da.doctor_proposing_da,
    "hospital_proposing_da": da.hospital_proposing_da,
    "truncated_state": da.truncated_state,
    "truncated_da": lambda d, h, caps: truncated_da(d, h, caps, TruncationRule()),
    "order_invariance_check": lambda d, h, caps: order_invariance_check(
        d, h, caps, list(range(len(d)))),
}


@pytest.mark.parametrize("entry", ENTRY_POINTS)
def test_entry_points_take_only_one_tables_lists(entry):
    # the one input form is build_preferences(assignment): plain lists, two
    # tables' lists, a table's lists beside plain ones, or its two views
    # swapped are refused
    cfg = make_config(30, kappa=2, k=3, cone_override=0.3, seed=1)
    inst = generate(cfg, 0)
    a = build_preferences(build_assignment(inst))
    b = build_preferences(build_assignment(generate(cfg, 1)))
    run, caps = ENTRY_POINTS[entry], inst.capacities
    run(*a, caps)
    for d, h in ((list(a[0]), list(a[1])), (a[0], b[1]), (b[0], a[1]),
                 (a[0], list(a[1])), (list(a[0]), a[1]), (a[1], a[0])):
        with pytest.raises(ValueError, match="build_preferences"):
            run(d, h, caps)
