"""A focal's facts, drawn once per focal, against the per-spec reads.

`_PatchContext` keeps the latest focal's base list, listed mask, cone and
beyond-cone bands and her private value for every hospital, and every
probe of that focal reads them.  Here the slots each probe runs are
compared with the loop filter of tests/legacy_edges.py, and the one draw
with the draws over each subset it stands for.
"""

import numpy as np
import pytest

import legacy_edges
from conematch.deviation import (KINDS, NULL_DEVIATION, DeviationSpec,
                                 _PatchContext, evaluate_deviation)
from conematch.market import SETTINGS, generate, make_config
from conematch.strategy import build_assignment


def _market(setting, kappa, cone, n=90):
    inst = generate(make_config(n, kappa=kappa, k=3, cone_override=cone / 2,
                                seed=15, setting=setting), 0)
    return inst, build_assignment(inst)


def _probed_slots(monkeypatch):
    # the slot lists evaluate_deviation asks the probe batch for, in order
    runs = []
    utilities = _PatchContext.utilities

    def keeping(self, focal, wanted):
        runs.extend(list(slots) for slots, _ in wanted)
        return utilities(self, focal, wanted)
    monkeypatch.setattr(_PatchContext, "utilities", keeping)
    return runs


@pytest.mark.parametrize("setting", SETTINGS)
def test_shared_context_probes_the_loop_filters_slots(setting, monkeypatch):
    # every kind and offset for focals across the rating range, the top
    # and bottom ones included, whose beyond-cone bands are empty or fully
    # listed; focal-major, then kind-major, which rebuilds the facts at
    # every spec
    runs = _probed_slots(monkeypatch)
    for kappa, cone in ((1, 0.3), (3, 0.8)):
        inst, asg = _market(setting, kappa, cone)
        order = np.argsort(inst.doctor_ratings)
        focals = [int(order[int(q * (len(order) - 1))])
                  for q in (0.0, 0.1, 0.35, 0.6, 0.9, 1.0)]
        specs = [(focal, kind, x) for focal in focals
                 for kind in KINDS + (NULL_DEVIATION,)
                 for x in (0.0, 0.05, 2.0)]
        ctx = _PatchContext(asg, focals=focals)
        for focal, kind, x in specs + sorted(specs, key=lambda s: s[1:]):
            spec = DeviationSpec(focal, kind, offset=x, replicates=1)
            del runs[:]
            res = evaluate_deviation(inst, asg, spec, context=ctx)
            slots, realized = legacy_edges.loop_deviant_slots(inst, asg, spec)
            assert runs == [asg.doctor_list(focal), slots]
            assert res.realized_offset == realized


@pytest.mark.parametrize("setting", SETTINGS)
def test_facts_draw_what_each_subset_draws(setting):
    inst, asg = _market(setting, 3, 0.8)
    ctx = _PatchContext(asg)
    all_h = np.arange(inst.config.n_hospitals)
    for focal in (0, 17, 89):
        facts = ctx.facts(focal)
        assert facts.base == asg.doctor_list(focal)
        assert facts.listed.tolist() == [h in facts.base for h in all_h]
        for ids in (all_h, all_h[::7], np.asarray(facts.base, dtype=np.int64)):
            assert (facts.v[ids].view(np.uint64).tolist()
                    == inst.private_dh(focal, ids).view(np.uint64).tolist())
        assert np.array_equal(facts.pre, inst.hospital_ratings + facts.v)
        assert ctx.facts(focal) is facts          # kept for the latest focal


@pytest.mark.parametrize("focal", [1.5, True, -1, 90])
def test_context_refuses_a_focal_that_is_no_doctor(focal):
    # int() once kept 1.5 and True as doctor 1, and -1 marked doctor n-1
    # absent
    _, asg = _market(SETTINGS[0], 3, 0.8)
    with pytest.raises(ValueError, match="focal doctor"):
        _PatchContext(asg, focals=[3, focal])


def test_context_takes_numpy_integer_focals():
    # the campaign's focals come from Generator.choice
    _, asg = _market(SETTINGS[0], 3, 0.8)
    ctx = _PatchContext(asg, focals=np.array([3, 40, 89]))
    assert list(ctx._focals) == [3, 40, 89]
