"""Ground-truth verifiers for matchings produced by the DA engine.

The comparisons are predicates over matchings the caller already holds:
one blocking-pair scan, vectorised over the interview edge table, and the
rural-hospital invariant and uniqueness as functions of the doctor- and
hospital-optimal matchings.  The public checks compose them: the full
scan, brute-force enumeration of the stable set on small instances, and
both DA orientations run once and compared.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Set

import numpy as np

from .da import Matching, doctor_proposing_da, hospital_proposing_da
from .strategy import InterviewAssignment, build_preferences

MAX_ORACLE_DOCTORS = 8
MAX_ORACLE_HOSPITALS = 5
MAX_ORACLE_PLACES = 8


@dataclass
class BlockingPair:
    doctor_id: int
    hospital_id: int
    doctor_gain: float
    hospital_side_witness: str   # "under capacity" or "displaces <id>"


def _flatten(lists):
    # (owner, item) arrays of a list of lists, in list order
    sizes = np.fromiter(map(len, lists), np.int64, len(lists))
    items = np.fromiter((x for lst in lists for x in lst), np.int64,
                        int(sizes.sum()))
    return np.repeat(np.arange(len(lists)), sizes), items


def _scan_edges(assignment: InterviewAssignment, prefs):
    """(scan, rank): the edges doctor_prefs lists, in list order, and the
    rank hospital_prefs gives each edge (-1: not ranked).

    build_preferences(assignment) is the table itself; other lists are
    looked up edge by edge.
    """
    if prefs is None or all(getattr(p, "source", None) is assignment
                            for p in prefs):
        return np.arange(assignment.edge_d.size), assignment.hospital_rank
    doctor_prefs, hospital_prefs = prefs
    scan = assignment.edge_index(*_flatten(doctor_prefs))
    if (scan < 0).any():
        raise ValueError("doctor_prefs lists a pair that is no interview edge")
    owner, doctors = _flatten(hospital_prefs)
    edges = assignment.edge_index(doctors, owner)
    listed = edges >= 0
    rank = np.full(assignment.edge_d.size, -1, dtype=np.int64)
    rank[edges[listed]] = (np.arange(owner.size)
                           - np.searchsorted(owner, owner))[listed]
    return scan, rank


def _blocking_scan(assignment: InterviewAssignment, scan, rank, matched,
                   capacities, unmatched_utility):
    """Which entries of `scan` block the matching `matched`.

    matched[d] is doctor d's matched edge (-1: unmatched).  Edge (d, h)
    blocks when h ranks d, d strictly prefers h to her match (an unmatched
    doctor values her position at `unmatched_utility`), and h is under
    capacity or ranks d above its worst held doctor.  The scan need not be
    utility-sorted: every entry is examined.  Returns, per entry, the
    doctor's gain (blocking entries only, else 0) and the worst held
    doctor it displaces (-1 when h is under capacity).
    """
    edge_h, u = assignment.edge_h, assignment.u_doc
    held = np.flatnonzero(matched >= 0)
    seat = matched[held]
    cur_u = np.append(u, unmatched_utility)[matched]      # edge -1: unmatched
    seat_h = edge_h[seat]
    fill = np.bincount(seat_h, minlength=len(capacities))
    # each hospital's worst held doctor; one it does not rank is worst of all
    seat_rank = np.where(rank[seat] < 0, np.iinfo(np.int64).max, rank[seat])
    worst_rank = np.full(fill.size, -1, dtype=np.int64)
    np.maximum.at(worst_rank, seat_h, seat_rank)
    worst_doc = np.full(fill.size, -1, dtype=np.int64)
    at_worst = seat_rank == worst_rank[seat_h]
    worst_doc[seat_h[at_worst]] = held[at_worst]

    d, h, r = assignment.edge_d[scan], edge_h[scan], rank[scan]
    free = fill[h] < np.asarray(capacities)[h]
    gain = u[scan] - cur_u[d]
    blocks = (scan != matched[d]) & (gain > 0) & (r >= 0) & (free | (r < worst_rank[h]))
    return np.where(blocks, gain, 0.0), np.where(free, -1, worst_doc[h])


def find_blocking_pairs(assignment: InterviewAssignment,
                        matching: Matching,
                        capacities=None,
                        prefs: Optional[tuple] = None,
                        unmatched_utility: float = -math.inf,
                        matched: Optional[np.ndarray] = None) -> List[BlockingPair]:
    """Exhaustive blocking-pair scan; an empty result certifies stability.

    Pairs come in the order of doctor_prefs: by doctor, then by her list.
    `matched` is assignment.matched_edges(matching), if the caller holds it.
    """
    if capacities is None:
        capacities = assignment.instance.capacities
    matching.validate(capacities)
    if matched is None:
        matched = assignment.matched_edges(matching)
    scan, rank = _scan_edges(assignment, prefs)
    gain, displaced = _blocking_scan(assignment, scan, rank, matched,
                                     capacities, unmatched_utility)
    at = np.flatnonzero(gain)
    return [BlockingPair(d, h, g, "under capacity" if w < 0 else f"displaces {w}")
            for d, h, g, w in zip(assignment.edge_d[scan[at]].tolist(),
                                  assignment.edge_h[scan[at]].tolist(),
                                  gain[at].tolist(), displaced[at].tolist())]


def enumerate_stable(assignment: InterviewAssignment,
                     capacities=None,
                     prefs: Optional[tuple] = None) -> Set[tuple]:
    """All stable matchings over the interview edges, as doctor_of keys.

    Guarded brute force: refuses anything beyond 8 doctors, 5 hospitals or
    8 total places.  Walks doctors in id order trying every hospital with
    spare capacity (and staying unmatched), then filters by blocking-pair
    freeness.
    """
    if capacities is None:
        capacities = assignment.instance.capacities
    n_doc, n_hosp = assignment.n_doctors(), assignment.n_hospitals()
    if (n_doc > MAX_ORACLE_DOCTORS or n_hosp > MAX_ORACLE_HOSPITALS
            or sum(capacities) > MAX_ORACLE_PLACES):
        raise ValueError(
            f"oracle limited to {MAX_ORACLE_DOCTORS} doctors, "
            f"{MAX_ORACLE_HOSPITALS} hospitals, {MAX_ORACLE_PLACES} places")

    scan, rank = _scan_edges(assignment, prefs)
    edge_h = assignment.edge_h.tolist()
    mutual: List[List[int]] = [[] for _ in range(n_doc)]
    for e in scan[rank[scan] >= 0].tolist():
        mutual[assignment.edge_d[e]].append(e)

    stable: Set[tuple] = set()
    slots = list(capacities)
    choice = np.full(n_doc, -1, dtype=np.int64)

    def walk(d: int):
        if d == n_doc:
            if not _blocking_scan(assignment, scan, rank, choice, capacities,
                                  -math.inf)[0].any():
                stable.add(tuple(-1 if e < 0 else edge_h[e] for e in choice.tolist()))
            return
        walk(d + 1)
        for e in mutual[d]:
            h = edge_h[e]
            if slots[h] > 0:
                slots[h] -= 1
                choice[d] = e
                walk(d + 1)
                choice[d] = -1
                slots[h] += 1

    walk(0)
    return stable


def matching_from_key(key: tuple, n_hospitals: int) -> Matching:
    doctor_of = [None if h < 0 else h for h in key]
    doctors_of: List[set] = [set() for _ in range(n_hospitals)]
    for d, h in enumerate(doctor_of):
        if h is not None:
            doctors_of[h].add(d)
    return Matching(doctor_of, doctors_of)


def doctor_utility_vector(assignment, matching,
                          unmatched_utility: float = -math.inf):
    utility = np.append(assignment.u_doc, unmatched_utility)  # edge -1: unmatched
    return utility[assignment.matched_edges(matching)].tolist()


def orientations_coincide(doctor_optimal: Matching,
                          hospital_optimal: Matching) -> bool:
    """True iff the two DA orientations deliver the same matching.

    Equivalent to the stable matching being unique.
    """
    return doctor_optimal.key() == hospital_optimal.key()


def rural_hospital_invariant(doctor_optimal: Matching,
                             hospital_optimal: Matching) -> bool:
    """Matched-doctor set and per-hospital fills agree across orientations."""
    return (doctor_optimal.matched_doctors() == hospital_optimal.matched_doctors()
            and doctor_optimal.fills() == hospital_optimal.fills())


def _both_orientations(assignment: InterviewAssignment, capacities, prefs):
    if capacities is None:
        capacities = assignment.instance.capacities
    if prefs is None:
        prefs = build_preferences(assignment)
    return (doctor_proposing_da(*prefs, capacities),
            hospital_proposing_da(*prefs, capacities))


def uniqueness_check_school(assignment: InterviewAssignment,
                            capacities=None,
                            prefs: Optional[tuple] = None) -> bool:
    """True iff both DA orientations deliver the same matching.

    In the school-choice setting the stable matching is unique, so this
    must hold there; on residency instances the result is reported without
    any contract being violated.
    """
    return orientations_coincide(*_both_orientations(assignment, capacities,
                                                     prefs))


def rural_hospital_check(assignment: InterviewAssignment,
                         capacities=None,
                         prefs: Optional[tuple] = None) -> bool:
    """rural_hospital_invariant over the two DA orientations of the market."""
    return rural_hospital_invariant(*_both_orientations(assignment, capacities,
                                                        prefs))
