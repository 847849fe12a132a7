"""Independent brute-force oracles shared by the test modules.

These deliberately re-derive stability from first principles (rank
comparisons over exhaustive enumeration) without touching the package's
own enumeration, so the two routes stay independent.  quarter_draws puts
every random draw on a grid of quarters, for the tie tests, and
same_selection compares the selection kernel with the one it replaced
(tests/legacy_edges.py).

The DA entry points take one input form, the two da.EdgeLists views of
one edge table.  edge_lists builds an edge table that holds hand-written
lists and returns its pair, and manual_assignment an edge table from
hand-written utilities.  A market that no table holds (a hospital that
lists a doctor who does not list it) runs on the rule-checking engine of
tests/legacy_edges.py instead.  proposals reads the proposal records out
of a truncated_da event log, and halts_of reads off a settled run the
proposers who halted: those at their stop with a slot free.
"""

import itertools
import math
import random

import numpy as np

import legacy_edges
from conematch import rng, strategy
from conematch.da import DISPLACE, HOLD, REJECT, Matching
from conematch.strategy import InterviewAssignment, build_preferences


def edge_lists(doctor_prefs, hospital_prefs, hospital_ranks=None):
    """build_preferences of an edge table that holds hand-written lists.

    The table's edges are the doctors' list entries, each doctor's
    utility falling down her list.  Hospital h ranks doctor d at
    hospital_ranks[h][d] (may be fractional), by default at d's position in
    h's list; an edge whose doctor h does not rank is unranked.  A hospital
    that ranks a doctor who does not list it is refused with ValueError:
    no table holds that market.  No doctor proposes to such an entry, so a
    doctor-proposing run over that market is the run over the table
    without it, its hospital's ranks keeping the gap.
    """
    if hospital_ranks is None:
        hospital_ranks = [{d: r for r, d in enumerate(lst)}
                          for lst in hospital_prefs]
    d = [i for i, lst in enumerate(doctor_prefs) for _ in lst]
    h = [j for lst in doctor_prefs for j in lst]
    for j, ranks in enumerate(hospital_ranks):
        if set(ranks) - {i for i, jj in zip(d, h) if jj == j}:
            raise ValueError(f"hospital {j} ranks a doctor who does not list it")
    u_doc = [-float(r) for lst in doctor_prefs for r in range(len(lst))]
    u_hosp = [-hospital_ranks[j].get(i, math.inf) for i, j in zip(d, h)]
    asg = InterviewAssignment.from_edges(
        None, 1.0, 1.0, np.array(d, dtype=np.int64), np.array(h, dtype=np.int64),
        np.array(u_doc), np.array(u_hosp), len(doctor_prefs),
        len(hospital_ranks), np.array([len(r) for r in hospital_ranks]))
    return build_preferences(asg)


def manual_assignment(doctor_utils, hospital_utils, hospital_budget=None):
    """Edge table from explicit utility dicts (no market behind it).

    Hospital h ranks only its hospital_budget[h] best doctors, if given.
    """
    d = np.array([i for i, u in enumerate(doctor_utils) for _ in u], dtype=np.int64)
    h = np.array([j for u in doctor_utils for j in u], dtype=np.int64)
    u_doc = np.array([x for u in doctor_utils for x in u.values()])
    u_hosp = np.array([hospital_utils[j][i] for i, j in zip(d, h)])
    budget = None if hospital_budget is None else np.asarray(hospital_budget)
    return InterviewAssignment.from_edges(None, 1.0, 1.0, d, h, u_doc, u_hosp,
                                          len(doctor_utils), len(hospital_utils),
                                          budget)


def proposals(log):
    """The proposal records of an event log, in order (no halts)."""
    return [e for e in log.events if e[4] in (HOLD, REJECT, DISPLACE)]


def halts_of(state):
    """The proposers of a settled DAState who halted: those left at their
    stop with a free slot."""
    return {p for p in range(len(state.slots))
            if state.pointer[p] == state.stop[p] and state.held[p] < state.slots[p]}


def matching_from_key(key, n_hospitals):
    """The Matching behind a doctor_of key (-1: unmatched)."""
    return Matching(np.array(key, dtype=np.int64), n_hospitals)


def doctor_utility_vector(assignment, matching):
    """Each doctor's utility at her match (-inf: unmatched)."""
    utility = np.append(assignment.u_doc, -math.inf)  # edge -1: unmatched
    return utility[assignment.matched_edges(matching)].tolist()


def brute_stable_set(doctor_prefs, hospital_prefs, caps):
    """Every capacity-respecting matching on mutual edges with no
    rank-blocking pair, as tuples of doctor_of (None = unmatched)."""
    n_doc, n_hosp = len(doctor_prefs), len(hospital_prefs)
    d_rank = [{h: i for i, h in enumerate(lst)} for lst in doctor_prefs]
    h_rank = [{d: i for i, d in enumerate(lst)} for lst in hospital_prefs]
    options = [[None] + [h for h in doctor_prefs[d] if d in h_rank[h]]
               for d in range(n_doc)]
    stable = set()
    for combo in itertools.product(*options):
        fills = [0] * n_hosp
        ok = True
        for h in combo:
            if h is not None:
                fills[h] += 1
                if fills[h] > caps[h]:
                    ok = False
                    break
        if not ok:
            continue
        blocking = False
        for d in range(n_doc):
            cur = combo[d]
            cur_rank = d_rank[d][cur] if cur is not None else math.inf
            for h in doctor_prefs[d]:
                if d_rank[d][h] >= cur_rank:
                    break
                if d not in h_rank[h]:
                    continue
                held = [dd for dd in range(n_doc) if combo[dd] == h]
                if len(held) < caps[h] or any(
                        h_rank[h][d] < h_rank[h][dd] for dd in held):
                    blocking = True
                    break
            if blocking:
                break
        if not blocking:
            stable.add(combo)
    return stable, d_rank


def random_lists(n_doc, n_hosp, seed, complete=True, k=None):
    gen = random.Random(seed)
    doctor_prefs = []
    for _ in range(n_doc):
        hs = list(range(n_hosp))
        gen.shuffle(hs)
        doctor_prefs.append(hs if complete else hs[:k])
    hospital_prefs = []
    listed = [set() for _ in range(n_hosp)]
    for d, hs in enumerate(doctor_prefs):
        for h in hs:
            listed[h].add(d)
    for h in range(n_hosp):
        ds = sorted(listed[h])
        gen.shuffle(ds)
        hospital_prefs.append(ds)
    return doctor_prefs, hospital_prefs


def quarter_draws(monkeypatch):
    """Round every draw down to a multiple of 1/4 while monkeypatch holds.

    Clears the low 51 of the 53 bits of rng.bits, the one integer draw
    behind both rng.uniform (so every value oracle) and the selection
    kernel, so the two see the same ties.  rng.bits is
    rng.bits_tail(rng.bits_head(...)), and the kernel calls the two
    stages itself, so the stages are patched to agree: the head is the
    quantised draw << 11, whose top 31 bits are the draw's top 31 as a
    real head's are, and the tail is >> 11.
    Generate markets before calling: ratings drawn on the grid are not
    distinct.
    """
    head, tail = rng.bits_head, rng.bits_tail
    low = np.uint64((1 << 51) - 1)

    def quantised_head(hi, hj, out=None, tmp=None):
        out = tail(head(hi, hj, out, tmp))
        out &= ~low
        out <<= np.uint64(11)
        return out

    def quantised_tail(y):
        y >>= np.uint64(11)
        return y

    monkeypatch.setattr(rng, "bits_head", quantised_head)
    monkeypatch.setattr(rng, "bits_tail", quantised_tail)


def same_selection(inst, count):
    """The doctors of the selected pairs, once strategy._top_in_cones and
    legacy_edges.top_in_cones agree on `inst` at `count`, dtypes included."""
    want = legacy_edges.top_in_cones(inst, count)
    got = strategy._top_in_cones(inst, count)
    for g, w in zip(got, want):
        assert g.dtype == w.dtype and np.array_equal(g, w)
    return want[0]
