"""The round engine against the FIFO loop.

da._rounds runs Gale & Shapley's simultaneous form until no proposer is
free, and never calls DAState._settle.  Each case runs it in both
orientations, over whole lists and over double-cut stops, and compares the
matching, the final pointers and the proposals each receiver got with
truncated_state, the FIFO loop from the start.  On oracle-sized markets
the matching must also lie in the brute-force stable set.
"""

import numpy as np
import pytest

from conematch import da, double_cut
from conematch.da import DOCTORS_PROPOSE, HOSPITALS_PROPOSE
from conematch.market import (REQUEST_INTERVIEW, RESIDENCY, SCHOOL_CHOICE,
                              MarketConfig, generate, make_config)
from conematch.strategy import build_assignment, build_preferences

from oracle_helpers import (brute_stable_set, edge_lists, manual_assignment,
                            random_lists)

ORIENTATIONS = (DOCTORS_PROPOSE, HOSPITALS_PROPOSE)


def _config(market, seed, n=2000):
    base = dict(cone_override=0.3, seed=seed)
    if market == "capacity-vector":
        n_hospitals = n // 5
        return MarketConfig.from_dict(dict(
            base, n_doctors=n, n_hospitals=n_hospitals, k=5,
            capacity=[1 + (h * 7) % 9 for h in range(n_hospitals)]))
    setting, k, kappa = {
        "residency-k5": (RESIDENCY, 5, 5),
        "residency-k12": (RESIDENCY, 12, 5),
        "request-interview": (REQUEST_INTERVIEW, 5, 5),
        "school-choice": (SCHOOL_CHOICE, 5, 5),
        "residency-kappa1": (RESIDENCY, 5, 1),
    }[market]
    return make_config(n, kappa=kappa, k=k, setting=setting, **base)


def _runs(inst, asg):
    # (orientation, rule): whole lists, and a double-cut scenario's stops
    gen = np.random.default_rng(inst.config.seed)
    hospital = int(gen.integers(inst.config.n_hospitals))
    order = np.argsort(inst.doctor_ratings)
    lo = inst.doctor_ratings[order[len(order) // 2]]
    scenarios = (double_cut.scenario_for_hospital(inst, hospital),
                 double_cut.scenario_for_doctor(inst, int(order[len(order) // 3])),
                 double_cut.scenario_for_interval(
                     inst, asg, (lo, lo + 0.5 * inst.alpha_eff)))
    return ([(o, None) for o in ORIENTATIONS]
            + [(s.orientation, double_cut.scenario_rule(inst, s))
               for s in scenarios])


def _no_settle(state, queue):
    raise AssertionError("the round engine called DAState._settle")


def _check_against_fifo(prefs, caps, orientation, rule, monkeypatch):
    """The FIFO matching, after checking the rounds against it and that
    they never call the FIFO proposal step."""
    proposers = prefs[orientation == HOSPITALS_PROPOSE]
    fifo = da.truncated_state(*prefs, caps, rule, orientation)
    want = da.matching_of(fifo, orientation).doctor_of
    want_counts = da.proposal_counts(proposers, fifo.pointer)
    stop = (None if rule is None
            else da.truncation_stops(proposers, rule))
    with monkeypatch.context() as patch:
        patch.setattr(da.DAState, "_settle", _no_settle)
        got, pointer = da.prefix_da(*prefs, caps, orientation, stop)
    assert np.array_equal(got.doctor_of, want), orientation
    assert pointer.tolist() == list(fifo.pointer), orientation
    assert np.array_equal(da.proposal_counts(proposers, pointer),
                          want_counts), orientation
    got.validate(caps)
    return want


MARKETS = ["residency-k5", "residency-k12", "request-interview",
           "school-choice", "residency-kappa1", "capacity-vector"]


@pytest.mark.parametrize("seed", [0, 1, 42])
@pytest.mark.parametrize("market", MARKETS)
def test_rounds_match_the_fifo_loop(market, seed, monkeypatch):
    inst = generate(_config(market, seed), 0)
    asg = build_assignment(inst)
    prefs = build_preferences(asg)
    if market == "request-interview":
        assert (asg.hospital_rank < 0).any()      # unranked edges reached
    for orientation, rule in _runs(inst, asg):
        _check_against_fifo(prefs, inst.capacities, orientation, rule,
                            monkeypatch)


def test_rounds_match_the_fifo_loop_at_n_20000(monkeypatch):
    inst = generate(_config("residency-k5", 42, n=20000), 0)
    asg = build_assignment(inst)
    prefs = build_preferences(asg)
    for orientation, rule in _runs(inst, asg):
        _check_against_fifo(prefs, inst.capacities, orientation, rule,
                            monkeypatch)


def test_rounds_on_an_empty_table_and_empty_lists(monkeypatch):
    # no edge at all, then a doctor and a hospital that list nobody
    empty = build_preferences(manual_assignment([{}, {}, {}], [{}, {}]))
    for orientation in ORIENTATIONS:
        want = _check_against_fifo(empty, [1, 2], orientation, None,
                                   monkeypatch)
        assert want.tolist() == [-1, -1, -1]
    prefs = edge_lists([[0, 1], [], [1, 0], [0]], [[3, 0, 2], [2, 0], []])
    for orientation in ORIENTATIONS:
        _check_against_fifo(prefs, [1, 2, 1], orientation, None, monkeypatch)


def _brute_key(doctor_of):
    return tuple(None if h < 0 else h for h in doctor_of.tolist())


@pytest.mark.parametrize("setting", [RESIDENCY, SCHOOL_CHOICE,
                                     REQUEST_INTERVIEW])
def test_rounds_give_brute_force_stable_matchings(setting, monkeypatch):
    # oracle-sized drawn markets, and hand-written lists with capacities
    markets = []
    for seed in range(12):
        cfg = MarketConfig(n_doctors=8, n_hospitals=4, capacity=2, k=2,
                           cone_override=0.4, seed=seed, setting=setting)
        inst = generate(cfg, 0)
        markets.append((build_preferences(build_assignment(inst)),
                        inst.capacities.tolist()))
    for seed in range(12):
        markets.append((edge_lists(*random_lists(6, 3, seed)), [2, 1, 2]))
        lists = random_lists(7, 3, seed, complete=False, k=2)
        markets.append((edge_lists(*lists), [3, 1, 2]))
    stable_sizes = set()
    for prefs, caps in markets:
        stable, _ = brute_stable_set(list(prefs[0]), list(prefs[1]), caps)
        stable_sizes.add(len(stable))
        for orientation in ORIENTATIONS:
            want = _check_against_fifo(prefs, caps, orientation, None,
                                       monkeypatch)
            assert _brute_key(want) in stable
    assert max(stable_sizes) > 1      # some market has two stable matchings
