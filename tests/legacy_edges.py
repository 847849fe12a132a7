"""The per-agent list-and-dict representation the edge table replaced.

Kept as a test oracle, as the code stood before the edge table: interview
lists and utility dicts on both sides, preferences by a keyed sort, rank
dicts per receiver, a dict-reading DA and blocking scan, and run_stats
walking the dicts.  tests/test_edge_table.py compares the package with it.
"""

import heapq
import math
from collections import deque
from dataclasses import dataclass
from typing import Dict, List

import numpy as np

from conematch.da import Matching, truncated_da
from conematch.double_cut import HOSPITALS_PROPOSE, _rule_for
from conematch.market import REQUEST_INTERVIEW, SCHOOL_CHOICE
from conematch.metrics import RunStats


@dataclass
class LegacyAssignment:
    instance: object
    doctor_lists: List[List[int]]
    doctor_utils: List[Dict[int, float]]
    hospital_lists: List[List[int]]
    hospital_utils: List[Dict[int, float]]


def utility_maps(asg):
    """Per-agent partner -> utility dicts of an edge table, both sides."""
    doctor_utils = [{} for _ in range(asg.n_doctors())]
    hospital_utils = [{} for _ in range(asg.n_hospitals())]
    for d, h, ud, uh in zip(asg.edge_d.tolist(), asg.edge_h.tolist(),
                            asg.u_doc.tolist(), asg.u_hosp.tolist()):
        doctor_utils[d][h] = ud
        hospital_utils[h][d] = uh
    return doctor_utils, hospital_utils


def _invert(n_hospitals, doctor_lists):
    inv = [[] for _ in range(n_hospitals)]
    for d, hs in enumerate(doctor_lists):
        for h in hs:
            inv[h].append(d)
    return inv


def materialize(instance, doctor_lists, nu_d, nu_h):
    """Utility dicts drawn for the edges of id-ascending doctor_lists."""
    n_doc = instance.config.n_doctors
    n_hosp = instance.config.n_hospitals
    counts = np.fromiter((len(hs) for hs in doctor_lists), dtype=np.int64,
                         count=n_doc)
    d_flat = np.repeat(np.arange(n_doc), counts)
    h_flat = np.fromiter((h for hs in doctor_lists for h in hs),
                         dtype=np.int64, count=int(counts.sum()))
    u_doc = (instance.hospital_ratings[h_flat]
             + instance.private_dh(d_flat, h_flat)
             + nu_d * instance.interview_dh(d_flat, h_flat))
    doctor_utils = []
    pos = 0
    for d in range(n_doc):
        c = int(counts[d])
        doctor_utils.append(dict(zip(doctor_lists[d],
                                     u_doc[pos:pos + c].tolist())))
        pos += c

    hospital_lists = _invert(n_hosp, doctor_lists)
    h_counts = np.fromiter((len(ds) for ds in hospital_lists), dtype=np.int64,
                           count=n_hosp)
    hh_flat = np.repeat(np.arange(n_hosp), h_counts)
    dd_flat = np.fromiter((d for ds in hospital_lists for d in ds),
                          dtype=np.int64, count=int(h_counts.sum()))
    u_hosp = instance.doctor_ratings[dd_flat]
    if instance.config.setting != SCHOOL_CHOICE:
        u_hosp = u_hosp + nu_h * instance.interview_hd(hh_flat, dd_flat)
    hospital_utils = []
    pos = 0
    for h in range(n_hosp):
        c = int(h_counts[h])
        hospital_utils.append(dict(zip(hospital_lists[h],
                                       u_hosp[pos:pos + c].tolist())))
        pos += c
    return LegacyAssignment(instance, doctor_lists, doctor_utils,
                            hospital_lists, hospital_utils)


def from_table(asg):
    """The legacy form of an edge table's edges and utilities."""
    doctor_lists = asg.doctor_lists
    doctor_utils, hospital_utils = utility_maps(asg)
    return LegacyAssignment(asg.instance, doctor_lists, doctor_utils,
                            _invert(asg.n_hospitals(), doctor_lists),
                            hospital_utils)


def _ranked(ids, utils):
    return sorted(ids, key=lambda i: (-utils[i], i))


def build_preferences(asg):
    doctor_prefs = [_ranked(hs, asg.doctor_utils[d])
                    for d, hs in enumerate(asg.doctor_lists)]
    hospital_prefs = [_ranked(ds, asg.hospital_utils[h])
                      for h, ds in enumerate(asg.hospital_lists)]
    cfg = asg.instance.config
    if cfg.setting == REQUEST_INTERVIEW:
        caps = asg.instance.capacities
        hospital_prefs = [p[: int(caps[h]) * cfg.k]
                          for h, p in enumerate(hospital_prefs)]
    return doctor_prefs, hospital_prefs


def build_ranks(pref_lists):
    return [{j: r for r, j in enumerate(lst)} for lst in pref_lists]


def deferred_acceptance(proposer_prefs, receiver_ranks, slots, caps):
    """FIFO deferred acceptance reading a rank dict per receiver.

    Returns the receivers' heaps of (-rank, proposer).
    """
    pointer = [0] * len(proposer_prefs)
    held = [0] * len(proposer_prefs)
    heaps = [[] for _ in receiver_ranks]
    queue = deque(p for p, lst in enumerate(proposer_prefs) if lst)
    queued = [bool(lst) for lst in proposer_prefs]
    while queue:
        p = queue.popleft()
        queued[p] = False
        lst = proposer_prefs[p]
        while held[p] < slots[p] and pointer[p] < len(lst):
            t = lst[pointer[p]]
            pointer[p] += 1
            rank = receiver_ranks[t].get(p)
            if rank is None:
                continue
            heap = heaps[t]
            if len(heap) < caps[t]:
                heapq.heappush(heap, (-rank, p))
                held[p] += 1
            elif rank < -heap[0][0]:
                worst = heapq.heapreplace(heap, (-rank, p))[1]
                held[p] += 1
                held[worst] -= 1
                if not queued[worst]:
                    queue.append(worst)
                    queued[worst] = True
    return heaps


def _matching(heaps, doctors_propose, n_doctors, n_hospitals):
    doctor_of = [None] * n_doctors
    doctors_of = [set() for _ in range(n_hospitals)]
    for r, heap in enumerate(heaps):
        for _, p in heap:
            d, h = (p, r) if doctors_propose else (r, p)
            doctor_of[d] = h
            doctors_of[h].add(d)
    return Matching(doctor_of, doctors_of)


def doctor_proposing_da(doctor_prefs, hospital_prefs, caps, hospital_ranks=None):
    ranks = build_ranks(hospital_prefs) if hospital_ranks is None else hospital_ranks
    heaps = deferred_acceptance(doctor_prefs, ranks, [1] * len(doctor_prefs),
                                list(caps))
    return _matching(heaps, True, len(doctor_prefs), len(hospital_prefs))


def hospital_proposing_da(doctor_prefs, hospital_prefs, caps):
    heaps = deferred_acceptance(hospital_prefs, build_ranks(doctor_prefs),
                                list(caps), [1] * len(doctor_prefs))
    return _matching(heaps, False, len(doctor_prefs), len(hospital_prefs))


def blocking_pairs(asg, matching, capacities, prefs,
                   unmatched_utility=-math.inf):
    """(doctor, hospital, gain, witness) of every blocking pair, in scan order."""
    doctor_prefs, hospital_prefs = prefs
    hospital_ranks = build_ranks(hospital_prefs)
    out = []
    for d, ranked in enumerate(doctor_prefs):
        cur = matching.doctor_of[d]
        cur_u = asg.doctor_utils[d][cur] if cur is not None else unmatched_utility
        for h in ranked:
            if h == cur:
                continue
            u = asg.doctor_utils[d][h]
            if u <= cur_u:
                continue
            rank_d = hospital_ranks[h].get(d)
            if rank_d is None:
                continue
            held = matching.doctors_of[h]
            if len(held) < capacities[h]:
                out.append((d, h, u - cur_u, "under capacity"))
                continue
            worst = max(held, key=lambda x: hospital_ranks[h][x])
            if rank_d < hospital_ranks[h][worst]:
                out.append((d, h, u - cur_u, f"displaces {worst}"))
    return out


def run_double_cut(instance, asg, scenario, prefs):
    """The truncated run of a double-cut scenario over the dicts."""
    lists = list(prefs)
    side = 1 if scenario.orientation == HOSPITALS_PROPOSE else 0
    ratings = (instance.doctor_ratings, instance.hospital_ratings)[side]
    if scenario.exclusions:
        lists[side] = [([] if p in scenario.exclusions else lst)
                       for p, lst in enumerate(lists[side])]
    rule = _rule_for(scenario, len(lists[side]), ratings)
    return truncated_da(*lists, instance.capacities, rule,
                        orientation=scenario.orientation,
                        doctor_utils=asg.doctor_utils,
                        hospital_utils=asg.hospital_utils,
                        proposer_ratings=ratings)


def run_stats(instance, asg, matching):
    cfg = instance.config
    n_doc, n_hosp = cfg.n_doctors, cfg.n_hospitals
    caps = instance.capacities
    half = instance.half_width
    d_rating = instance.doctor_ratings
    d_matched = np.zeros(n_doc, dtype=bool)
    d_utility = np.full(n_doc, np.nan)
    for d, h in enumerate(matching.doctor_of):
        if h is not None:
            d_matched[d] = True
            d_utility[d] = asg.doctor_utils[d][h]
    benchmark = d_rating + 2.0
    d_loss = np.where(d_matched, benchmark - d_utility, benchmark)
    h_rating = instance.hospital_ratings
    h_fill = np.array([len(s) for s in matching.doctors_of], dtype=np.int64)
    h_loss = np.full(n_hosp, np.nan)
    for h, ds in enumerate(matching.doctors_of):
        if ds:
            seat_u = [asg.hospital_utils[h][d] for d in ds]
            h_loss[h] = h_rating[h] + 1.0 - float(np.mean(seat_u))
    return RunStats(
        config=cfg, run_index=instance.run_index, half_width=half,
        doctor_rating=d_rating, doctor_matched=d_matched,
        doctor_utility=d_utility, doctor_loss=d_loss,
        doctor_non_bottommost=d_rating >= instance.doctor_range[0] + half,
        hospital_rating=h_rating, hospital_fill=h_fill,
        hospital_fully_matched=h_fill >= caps, hospital_loss=h_loss,
        hospital_non_bottommost=h_rating >= instance.hospital_range[0] + half)
