"""Many markets per engine call: da.batch_da against separate runs.

batch_da joins the edge tables of several markets, with offset proposer,
receiver and entry ids, and runs them in one round-engine call.  Each
case compares every market's slice of that run with its own prefix_da
run and with truncated_state (the FIFO loop from the start): the
matching, the pointers, the proposals each receiver got, and the matched
edges the engine hands back against InterviewAssignment.matched_edges.
The markets differ in size and setting, hold mixed capacity vectors,
one-seat receivers on both sides and doctors with empty lists, and run
over whole lists and over the double-cut scenarios' truncation stops, in
both orientations, alone and together.  numpy only.
"""

import numpy as np
import pytest

from conematch import da, double_cut
from conematch.da import DOCTORS_PROPOSE, HOSPITALS_PROPOSE
from conematch.market import (REQUEST_INTERVIEW, RESIDENCY, SCHOOL_CHOICE,
                              MarketConfig, generate, make_config)
from conematch.strategy import build_assignment, build_preferences

from oracle_helpers import edge_lists, manual_assignment

ORIENTATIONS = (DOCTORS_PROPOSE, HOSPITALS_PROPOSE)


def _configs(seed):
    base = dict(cone_override=0.3, seed=seed)
    return [
        make_config(60, kappa=3, k=3, setting=RESIDENCY, **base),
        make_config(150, kappa=5, k=4, setting=REQUEST_INTERVIEW, **base),
        make_config(90, kappa=2, k=4, setting=SCHOOL_CHOICE, **base),
        # mixed capacities, one-seat hospitals among them
        MarketConfig(n_doctors=80, n_hospitals=30, k=3,
                     capacity=tuple(1 + (h * 7) % 4 for h in range(30)),
                     **base),
        # one seat each: one-seat receivers on both sides
        make_config(70, kappa=1, k=3, setting=RESIDENCY, **base),
        # nearly every cone empty: most doctors list nobody
        make_config(40, kappa=2, k=2, cone_override=0.001, seed=seed),
    ]


def _markets(seed):
    markets = []
    for cfg in _configs(seed):
        inst = generate(cfg, 0)
        asg = build_assignment(inst)
        markets.append((inst, asg, build_preferences(asg)))
    assert (markets[1][1].hospital_rank < 0).any()     # unranked edges
    assert np.diff(markets[-1][1].doctor_offsets).min() == 0
    return markets


def _rules(inst, asg, orientation):
    # whole lists, and the double-cut scenarios' stops of the orientation
    if orientation == DOCTORS_PROPOSE:
        focal = int(np.argsort(inst.hospital_ratings)[inst.config.n_hospitals // 2])
        return [None, double_cut.scenario_rule(
            inst, double_cut.scenario_for_hospital(inst, focal))]
    order = np.argsort(inst.doctor_ratings)
    lo = inst.doctor_ratings[order[len(order) // 2]]
    scenarios = [double_cut.scenario_for_doctor(inst, int(order[len(order) // 3])),
                 double_cut.scenario_for_interval(
                     asg, (lo, lo + 0.5 * inst.alpha_eff))]
    return [None] + [double_cut.scenario_rule(inst, s) for s in scenarios]


def _stop(prefs, orientation, rule):
    if rule is None:
        return None
    return da.truncation_stops(prefs[orientation == HOSPITALS_PROPOSE], rule)


def _check(run, prefs, caps, orientation, stop, rule=None, fifo=True):
    """One market's batched run against its own prefix_da run, and, with
    `fifo`, against the FIFO loop under `rule`."""
    proposers = prefs[orientation == HOSPITALS_PROPOSE]
    alone, pointer = da.prefix_da(*prefs, caps, orientation, stop)
    np.testing.assert_array_equal(run.matching.doctor_of, alone.doctor_of)
    assert run.matching.n_hospitals == alone.n_hospitals
    np.testing.assert_array_equal(run.pointer, pointer)
    counts = da.proposal_counts(proposers, run.pointer)
    np.testing.assert_array_equal(run.matched,
                                  prefs[0].source.matched_edges(run.matching))
    if fifo:
        state = da.truncated_state(*prefs, caps, rule, orientation)
        np.testing.assert_array_equal(
            run.matching.doctor_of, da.matching_of(state, orientation).doctor_of)
        assert run.pointer.tolist() == list(state.pointer)
        np.testing.assert_array_equal(
            counts, da.proposal_counts(proposers, state.pointer))
    run.matching.validate(caps)


@pytest.mark.parametrize("orientation", ORIENTATIONS)
@pytest.mark.parametrize("seed", [0, 1, 42])
def test_batch_matches_separate_runs_and_the_fifo_loop(orientation, seed):
    markets = _markets(seed)
    for which in range(3):          # whole lists, then each scenario's stops
        cases = []
        for inst, asg, prefs in markets:
            rules = _rules(inst, asg, orientation)
            rule = rules[min(which, len(rules) - 1)]
            cases.append((prefs, inst.capacities, rule,
                          _stop(prefs, orientation, rule)))
        runs = da.batch_da([(*prefs, caps, stop)
                            for prefs, caps, _, stop in cases], orientation)
        assert len(runs) == len(cases)
        for run, (prefs, caps, rule, stop) in zip(runs, cases):
            _check(run, prefs, caps, orientation, stop, rule)
        # the markets in another order, and each alone, run the same
        again = da.batch_da([(*prefs, caps, stop) for prefs, caps, _, stop
                             in reversed(cases)], orientation)
        for run, want in zip(reversed(again), runs):
            np.testing.assert_array_equal(run.matching.doctor_of,
                                          want.matching.doctor_of)
            np.testing.assert_array_equal(run.pointer, want.pointer)
            np.testing.assert_array_equal(run.matched, want.matched)
        for prefs, caps, rule, stop in cases:
            run, = da.batch_da([(*prefs, caps, stop)], orientation)
            _check(run, prefs, caps, orientation, stop, fifo=False)


def test_one_batch_mixes_whole_lists_and_truncation_stops():
    # a market twice in one batch, once whole and once under its stops,
    # beside hand-written lists and a table with no edge at all
    inst, asg, prefs = _markets(7)[3]
    hand = edge_lists([[0, 1], [], [1, 0], [0]], [[3, 0, 2], [2, 0], []])
    empty = build_preferences(manual_assignment([{}, {}, {}], [{}, {}]))
    for orientation in ORIENTATIONS:
        rule = _rules(inst, asg, orientation)[1]
        cases = [(prefs, inst.capacities, None), (hand, [1, 2, 1], None),
                 (prefs, inst.capacities, rule), (empty, [1, 2], None)]
        stops = [_stop(p, orientation, r) for p, _, r in cases]
        runs = da.batch_da([(*p, caps, stop) for (p, caps, _), stop
                            in zip(cases, stops)], orientation)
        for run, (p, caps, r), stop in zip(runs, cases, stops):
            _check(run, p, np.asarray(caps), orientation, stop, r)
        assert runs[3].matching.doctor_of.tolist() == [-1, -1, -1]
        assert runs[3].matched.tolist() == [-1, -1, -1]


def test_a_batch_of_one_joins_nothing(monkeypatch):
    # the engine reads the view's own arrays: no copy is made
    inst, asg, prefs = _markets(3)[0]
    seen = []
    real = da._rounds

    def recording(*args):
        seen.append(args)
        return real(*args)
    monkeypatch.setattr(da, "_rounds", recording)
    for side, orientation in zip(prefs, ORIENTATIONS):
        da.batch_da([(*prefs, inst.capacities, None)], orientation)
        start, end, owner, partner, back = seen[-1][:5]
        offsets, csr_owner, csr_partner, csr_back, _ = side.csr
        assert owner is csr_owner and partner is csr_partner
        assert back is csr_back
        assert np.shares_memory(start, offsets)
        assert np.shares_memory(end, offsets)


def test_batch_refuses_what_prefix_da_refuses():
    inst, asg, prefs = _markets(0)[0]
    with pytest.raises(ValueError, match="orientation"):
        da.batch_da([(*prefs, inst.capacities, None)], "both")
    with pytest.raises(ValueError, match="build_preferences"):
        da.batch_da([(*prefs, inst.capacities, None),
                     (prefs[1], prefs[0], inst.capacities, None)],
                    DOCTORS_PROPOSE)
    assert da.batch_da([], DOCTORS_PROPOSE) == []


@pytest.mark.parametrize("seed", [0, 5])
def test_double_cuts_of_several_markets_match_each_run_alone(seed):
    # both orientations' scenarios of every market in one call, against
    # run_double_cut on each, a batch of one
    cuts = []
    for inst, asg, prefs in _markets(seed)[:5]:
        gen = np.random.default_rng(seed)
        cuts += [(prefs, double_cut.scenario_for_hospital(
                      inst, int(gen.integers(inst.config.n_hospitals)))),
                 (prefs, double_cut.scenario_for_doctor(
                      inst, int(gen.integers(inst.config.n_doctors))))]
    for (prefs, scenario), (run, report) in zip(
            cuts, double_cut.run_double_cuts(cuts)):
        asg = prefs[0].source
        matching, want = double_cut.run_double_cut(asg, scenario)
        np.testing.assert_array_equal(run.matching.doctor_of,
                                      matching.doctor_of)
        np.testing.assert_array_equal(run.matched, asg.matched_edges(matching))
        assert report.csv_row(scenario) == want.csv_row(scenario)
