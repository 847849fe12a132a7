"""Ground-truth verifiers for matchings produced by the DA engine.

The checks are predicates over matchings the caller already holds: one
blocking-pair scan, vectorised over the interview edge table, brute-force
enumeration of the stable set on small instances, and the rural-hospital
invariant and uniqueness as comparisons of the doctor- and
hospital-optimal matchings' arrays.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Set

import numpy as np

from .da import Matching
from .strategy import InterviewAssignment

MAX_ORACLE_DOCTORS = 8
MAX_ORACLE_HOSPITALS = 5
MAX_ORACLE_PLACES = 8


@dataclass
class BlockingPair:
    doctor_id: int
    hospital_id: int
    doctor_gain: float
    hospital_side_witness: str   # "under capacity" or "displaces <id>"


def _blocking_scan(assignment: InterviewAssignment, matched, capacities):
    """Which interview edges block the matching `matched`.

    matched[d] is doctor d's matched edge (-1: unmatched).  Edge (d, h)
    blocks when h ranks d, d strictly prefers h to her match (any edge
    beats being unmatched), and h is under capacity or ranks d above its
    worst held doctor.  Returns, per edge, the doctor's gain (blocking
    edges only, else 0) and the worst held doctor it displaces (-1 when h
    is under capacity).
    """
    edge_h, u, rank = assignment.edge_h, assignment.u_doc, assignment.hospital_rank
    held = np.flatnonzero(matched >= 0)
    seat = matched[held]
    cur_u = np.append(u, -math.inf)[matched]      # edge -1: unmatched
    seat_h = edge_h[seat]
    fill = np.bincount(seat_h, minlength=len(capacities))
    # each hospital's worst held doctor; one it does not rank is worst of all
    seat_rank = np.where(rank[seat] < 0, np.iinfo(np.int64).max, rank[seat])
    worst_rank = np.full(fill.size, -1, dtype=np.int64)
    np.maximum.at(worst_rank, seat_h, seat_rank)
    worst_doc = np.full(fill.size, -1, dtype=np.int64)
    at_worst = seat_rank == worst_rank[seat_h]
    worst_doc[seat_h[at_worst]] = held[at_worst]

    d, h = assignment.edge_d, edge_h
    free = fill[h] < np.asarray(capacities)[h]
    gain = u - cur_u[d]
    # a doctor's own match gains exactly 0
    blocks = (gain > 0) & (rank >= 0) & (free | (rank < worst_rank[h]))
    return np.where(blocks, gain, 0.0), np.where(free, -1, worst_doc[h])


def find_blocking_pairs(assignment: InterviewAssignment,
                        matching: Matching,
                        capacities=None,
                        matched: Optional[np.ndarray] = None) -> List[BlockingPair]:
    """Exhaustive blocking-pair scan; an empty result certifies stability.

    Pairs come in edge-table order: by doctor, then by her preference.
    `matched` is assignment.matched_edges(matching), if the caller holds it.
    """
    if capacities is None:
        capacities = assignment.instance.capacities
    matching.validate(capacities)
    if matched is None:
        matched = assignment.matched_edges(matching)
    gain, displaced = _blocking_scan(assignment, matched, capacities)
    at = np.flatnonzero(gain)
    return [BlockingPair(d, h, g, "under capacity" if w < 0 else f"displaces {w}")
            for d, h, g, w in zip(assignment.edge_d[at].tolist(),
                                  assignment.edge_h[at].tolist(),
                                  gain[at].tolist(), displaced[at].tolist())]


def enumerate_stable(assignment: InterviewAssignment,
                     capacities=None) -> Set[tuple]:
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

    edge_h = assignment.edge_h.tolist()
    mutual: List[List[int]] = [[] for _ in range(n_doc)]
    for e in np.flatnonzero(assignment.hospital_rank >= 0).tolist():
        mutual[assignment.edge_d[e]].append(e)

    stable: Set[tuple] = set()
    slots = list(capacities)
    choice = np.full(n_doc, -1, dtype=np.int64)

    def walk(d: int):
        if d == n_doc:
            if not _blocking_scan(assignment, choice, capacities)[0].any():
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
    del walk    # it refers to itself: break the cycle for reference counting
    return stable


def orientations_coincide(doctor_optimal: Matching,
                          hospital_optimal: Matching) -> bool:
    """True iff the two DA orientations deliver the same matching.

    Equivalent to the stable matching being unique.
    """
    return np.array_equal(doctor_optimal.doctor_of, hospital_optimal.doctor_of)


def rural_hospital_invariant(doctor_optimal: Matching,
                             hospital_optimal: Matching) -> bool:
    """Matched doctors and per-hospital fills agree across orientations."""
    return (np.array_equal(doctor_optimal.doctor_of >= 0,
                           hospital_optimal.doctor_of >= 0)
            and np.array_equal(doctor_optimal.fills(), hospital_optimal.fills()))
