"""Ground-truth verifiers for matchings produced by the DA engine.

The comparisons are predicates over matchings the caller already holds:
one blocking-pair scan, and the rural-hospital invariant and uniqueness
as functions of the doctor- and hospital-optimal matchings.  The public
checks compose them: the full scan, brute-force enumeration of the stable
set on small instances, and both DA orientations run once and compared.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Set

from .da import (Matching, build_ranks, doctor_proposing_da,
                 hospital_proposing_da)
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


def _defaults(assignment: InterviewAssignment, capacities, prefs):
    if capacities is None:
        capacities = assignment.instance.capacities
    if prefs is None:
        prefs = build_preferences(assignment)
    return capacities, prefs


def _blocking_scan(doctor_prefs, hospital_ranks, doctor_utils, doctor_of,
                   doctors_of, capacities, unmatched_utility):
    """Yield every blocking pair of the matching (doctor_of, doctors_of).

    A pair blocks when both sides rank each other, the doctor strictly
    prefers the hospital to her match (an unmatched doctor values her
    position at `unmatched_utility`), and the hospital is under capacity
    or ranks her above its worst held doctor.  Preference lists need not
    be utility-sorted: every listed hospital is examined.
    """
    for d, ranked in enumerate(doctor_prefs):
        cur = doctor_of[d]
        cur_u = doctor_utils[d][cur] if cur is not None else unmatched_utility
        for h in ranked:
            if h == cur:
                continue
            u = doctor_utils[d][h]
            if u <= cur_u:
                continue
            rank_d = hospital_ranks[h].get(d)
            if rank_d is None:
                continue
            held = doctors_of[h]
            if len(held) < capacities[h]:
                yield BlockingPair(d, h, u - cur_u, "under capacity")
                continue
            worst = max(held, key=lambda x: hospital_ranks[h][x])
            if rank_d < hospital_ranks[h][worst]:
                yield BlockingPair(d, h, u - cur_u, f"displaces {worst}")


def find_blocking_pairs(assignment: InterviewAssignment,
                        matching: Matching,
                        capacities=None,
                        prefs: Optional[tuple] = None,
                        unmatched_utility: float = -math.inf) -> List[BlockingPair]:
    """Exhaustive blocking-pair scan; an empty result certifies stability."""
    capacities, (doctor_prefs, hospital_prefs) = _defaults(assignment,
                                                           capacities, prefs)
    matching.validate(capacities, [set(lst) for lst in assignment.doctor_lists])
    return list(_blocking_scan(doctor_prefs, build_ranks(hospital_prefs),
                               assignment.doctor_utils, matching.doctor_of,
                               matching.doctors_of, capacities,
                               unmatched_utility))


def enumerate_stable(assignment: InterviewAssignment,
                     capacities=None,
                     prefs: Optional[tuple] = None) -> Set[tuple]:
    """All stable matchings over the interview edges, as doctor_of keys.

    Guarded brute force: refuses anything beyond 8 doctors, 5 hospitals or
    8 total places.  Walks doctors in id order trying every hospital with
    spare capacity (and staying unmatched), then filters by blocking-pair
    freeness.
    """
    capacities, (doctor_prefs, hospital_prefs) = _defaults(assignment,
                                                           capacities, prefs)
    n_doc, n_hosp = len(doctor_prefs), len(hospital_prefs)
    if (n_doc > MAX_ORACLE_DOCTORS or n_hosp > MAX_ORACLE_HOSPITALS
            or sum(capacities) > MAX_ORACLE_PLACES):
        raise ValueError(
            f"oracle limited to {MAX_ORACLE_DOCTORS} doctors, "
            f"{MAX_ORACLE_HOSPITALS} hospitals, {MAX_ORACLE_PLACES} places")

    hospital_ranks = build_ranks(hospital_prefs)
    mutual = [[h for h in doctor_prefs[d] if d in hospital_ranks[h]]
              for d in range(n_doc)]

    stable: Set[tuple] = set()
    slots = list(capacities)
    choice: List[Optional[int]] = [None] * n_doc
    held: List[List[int]] = [[] for _ in range(n_hosp)]

    def walk(d: int):
        if d == n_doc:
            if next(_blocking_scan(doctor_prefs, hospital_ranks,
                                   assignment.doctor_utils, choice, held,
                                   capacities, -math.inf), None) is None:
                stable.add(tuple(-1 if h is None else h for h in choice))
            return
        choice[d] = None
        walk(d + 1)
        for h in mutual[d]:
            if slots[h] > 0:
                slots[h] -= 1
                choice[d] = h
                held[h].append(d)
                walk(d + 1)
                held[h].pop()
                choice[d] = None
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
    return [assignment.doctor_utils[d][h] if h is not None else unmatched_utility
            for d, h in enumerate(matching.doctor_of)]


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
    capacities, prefs = _defaults(assignment, capacities, prefs)
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
