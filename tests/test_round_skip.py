"""The round engine's skip against the FIFO loop.

From round 2 on, each free proposer in da._rounds looks past her free
slots and proposes only to entries that lie below their receiver's bar
(the rank of its worst seat once it is full); her pointer passes the
entries she skipped.  Each case compares prefix_da with truncated_state,
the FIFO loop from the start, on the matching, the final pointers and
the proposals each receiver got, in both orientations, over whole lists
and over double-cut stops (test_rounds._check_against_fifo).  The
markets are those the skip shortens most (n=20,000 Residency k=12 and
RequestInterview), markets whose lists are empty or a few entries long,
so that windows reach a stop, and hospitals with 1 to 9 seats.
"""

import numpy as np
import pytest

from conematch import da
from conematch.market import (REQUEST_INTERVIEW, RESIDENCY, MarketConfig,
                              generate, make_config)
from conematch.strategy import build_assignment, build_preferences

from test_rounds import _check_against_fifo, _runs


def _check_market(config, monkeypatch):
    inst = generate(config, 0)
    asg = build_assignment(inst)
    prefs = build_preferences(asg)
    for orientation, rule in _runs(inst, asg):
        _check_against_fifo(prefs, inst.capacities, orientation, rule,
                            monkeypatch)
    return asg


@pytest.mark.parametrize("setting, k", [(RESIDENCY, 12),
                                        (REQUEST_INTERVIEW, 5)])
def test_skip_matches_the_fifo_loop_at_n_20000(setting, k, monkeypatch):
    config = make_config(20000, kappa=5, k=k, setting=setting,
                         cone_override=0.3, seed=42)
    asg = _check_market(config, monkeypatch)
    if setting == REQUEST_INTERVIEW:
        assert (asg.hospital_rank < 0).any()      # unranked entries skipped


@pytest.mark.parametrize("seed", range(6))
@pytest.mark.parametrize("setting", [RESIDENCY, REQUEST_INTERVIEW])
def test_skip_on_short_lists(setting, seed, monkeypatch):
    # a narrow cone: many doctors list no hospital or one, and a doctor's
    # window from round 2 on always reaches her stop
    config = make_config(300, kappa=5, k=5, setting=setting,
                         cone_override=0.02, seed=seed)
    asg = _check_market(config, monkeypatch)
    lengths = np.diff(asg.doctor_offsets)
    assert (lengths == 0).any() and (lengths == 1).any()
    assert lengths.max() <= 1 + da._LOOKAHEAD


@pytest.mark.parametrize("seed", range(10))
def test_skip_with_one_to_nine_seats(seed, monkeypatch):
    n_hospitals = 200
    seats = np.random.default_rng(seed).integers(1, 10, n_hospitals)
    config = MarketConfig(n_doctors=1000, n_hospitals=n_hospitals,
                          capacity=tuple(seats.tolist()), k=5,
                          cone_override=0.3, seed=seed)
    _check_market(config, monkeypatch)
