"""Empirical deviation gains for a focal doctor under common random numbers.

A deviation swaps entries of the focal doctor's interview list while every
other agent's values, choices, and lists stay bitwise fixed.  Expectations
are taken ex ante at the interview-selection stage: each replicate redraws
only the focal doctor's fresh interview values (hers for the slot, and the
slot hospital's for her), keyed by (focal, replicate, slot) so that a null
deviation reproduces the base run exactly and all grid points share draws.
Private values and public ratings never move.

The matching mechanism is the doctor-proposing DA throughout; an unmatched
focal doctor scores the outside option 0 so that expected gains stay
finite.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .da import (DOCTORS_PROPOSE, DAState, TruncationRule, matching_of,
                 round_state)
from .market import MarketInstance, SCHOOL_CHOICE, check_agent_id
from .strategy import (InterviewAssignment, build_preferences, compute_cone,
                       key_order)

SWAP_IN_CONE = "swap_in_cone"
ABOVE_CONE = "above_cone"
BELOW_CONE = "below_cone"
TOP_K_OF_ALL = "top_k_of_all"
NULL_DEVIATION = "null"
KINDS = (SWAP_IN_CONE, ABOVE_CONE, BELOW_CONE, TOP_K_OF_ALL)

_SALT_STRIDE = 1_000_003   # distinct replicate streams per focal doctor

UNMATCHED_UTILITY = 0.0    # outside option for expectation purposes


@dataclass
class DeviationSpec:
    focal_doctor: int
    kind: str
    offset: float = 0.0      # rating offset x for above/below-cone targets
    replicates: int = 20


@dataclass
class DeviationResult:
    spec: DeviationSpec
    base_mean: float
    deviant_mean: float
    gain: float
    gain_se: float
    realized_offset: float   # actual rating offset of the substituted target


class _PatchContext:
    """The preferences of one assignment, shared by all its probes.

    Every probe warm-starts.  DA runs once per context, on the round
    engine (da.round_state), with every focal doctor in the probe set
    absent: a proposer_filter rule gives each a stop of 0.  A focal's
    focal-absent run is that shared run with the other focals' base lists
    added (da.DAState.with_proposers), and each replicate inserts the
    focal into it (da.DAState.insert).  Both are exact by order
    invariance.  A focal not in `focals` joins the set, and the shared run
    is rebuilt once; an id in `focals` that is not a doctor's raises
    ValueError.  Only the most recent focal's focal-absent state and facts
    (`facts`: her list, cone, bands and private values) are kept, and each
    probe utility (`utility`) and each replicate's slot draws
    (`slot_values`) are memoised.
    """

    def __init__(self, assignment: InterviewAssignment,
                 focals: Sequence[int] = ()):
        n_doctors = assignment.instance.config.n_doctors
        for f in focals:
            check_agent_id("focal doctor", f, n_doctors)
        self.instance = assignment.instance
        self.assignment = assignment
        self.doctor_prefs, self.hospital_prefs = build_preferences(assignment)
        self._focals = dict.fromkeys(int(f) for f in focals)
        self._shared: Optional[DAState] = None
        self._absent: Optional[Tuple[int, DAState]] = None
        self._facts: Optional[_Focal] = None
        self._utilities: Dict[tuple, float] = {}
        self._slot_draws: Dict[tuple, tuple] = {}

    def _focal_absent(self, focal: int) -> DAState:
        if self._absent is not None and self._absent[0] == focal:
            return self._absent[1]
        if focal not in self._focals:
            self._focals[focal] = None
            self._shared = None
        if self._shared is None:
            present = np.ones(len(self.doctor_prefs), dtype=bool)
            present[list(self._focals)] = False
            self._shared = round_state(
                self.doctor_prefs, self.hospital_prefs, self.instance.capacities,
                TruncationRule(proposer_filter=present))
        state = self._shared.with_proposers([f for f in self._focals if f != focal])
        self._absent = (focal, state)
        return state

    def facts(self, focal: int) -> "_Focal":
        """The focal's _Focal, rebuilt when the focal changes."""
        if self._facts is None or self._facts.focal != focal:
            self._facts = _Focal.of(self.assignment, focal)
        return self._facts

    def _focal_rank(self, h: int, u: float, focal: int) -> float:
        # positions in h's list, ordered by keys (-utility, doctor), are the
        # base ranks; the focal ranks half a position before the first key
        # greater than (-u, focal) (its old key, on either side, is never
        # compared)
        utils = self.hospital_prefs.utils[h]
        i = bisect.bisect_left(utils, -u, key=float.__neg__)
        j = bisect.bisect_right(utils, -u, i, key=float.__neg__)
        return bisect.bisect_left(self.hospital_prefs[h], focal, i, j) - 0.5

    def utility(self, focal: int, slots: Sequence[int], replicate: int) -> float:
        """The focal's utility in one replicate's probe with these slots.

        Memoised: slot s draws are keyed by the slot index, so the utility
        is a pure function of (focal, slots, replicate).
        """
        key = (focal, tuple(slots), replicate)
        if key not in self._utilities:
            iota_d, iota_h = self.slot_values(focal, len(slots), replicate)
            self._utilities[key] = self.patched_run(focal, slots,
                                                    iota_d, iota_h)[0]
        return self._utilities[key]

    def slot_values(self, focal: int, n_slots: int, replicate: int):
        """_slot_values, memoised: a pure function of its arguments."""
        key = (focal, n_slots, replicate)
        if key not in self._slot_draws:
            self._slot_draws[key] = _slot_values(self.instance, focal, n_slots,
                                                 replicate)
        return self._slot_draws[key]

    def patched_run(self, focal: int, slot_hospitals: Sequence[int],
                    iota_d: np.ndarray, iota_h: np.ndarray):
        """Doctor-proposing DA with the focal doctor's edges re-pointed.

        slot_hospitals[s] is the hospital occupying slot s; iota_d/iota_h
        are that slot's fresh interview values for the two sides (at least
        one per slot), weighted as the assignment weights every other edge.
        The focal is inserted into the focal-absent run.  Returns (focal
        utility, the inserted DAState); da.matching_of reads its matching.
        """
        inst = self.instance
        asg = self.assignment
        r_focal = inst.doctor_ratings[focal]
        n = len(slot_hospitals)
        hs = np.asarray(slot_hospitals, dtype=np.int64)

        u_focal = dict(zip(slot_hospitals, (
            self.facts(focal).pre[hs] + asg.nu_d * iota_d[:n]).tolist()))
        if inst.config.setting == SCHOOL_CHOICE:
            u_hosp = dict.fromkeys(slot_hospitals, float(r_focal))
        else:
            u_hosp = dict(zip(slot_hospitals,
                              (r_focal + asg.nu_h * iota_h[:n]).tolist()))
        focal_list = sorted(u_focal, key=lambda h: (-u_focal[h], h))
        focal_ranks = [self._focal_rank(h, u_hosp[h], focal) for h in focal_list]

        state = self._focal_absent(focal).insert(focal, focal_list, focal_ranks)
        h_match = state.partner(focal)
        utility = UNMATCHED_UTILITY if h_match is None else u_focal[h_match]
        return utility, state


@dataclass(frozen=True, eq=False)
class _Focal:
    """What every probe of one focal reads, built once per focal.

    base is her interview list (ascending id) and listed its mask over the
    hospitals.  cone_out, above and below are the unlisted hospitals of her
    cone and of the bands above and below it, ascending id.  v is her
    private value for every hospital, one draw (rng.uniform is elementwise
    pure, so v[ids] equals instance.private_dh(focal, ids) bit for bit),
    and pre her pre-interview utility r(h) + v(focal, h).
    """

    focal: int
    base: List[int]
    listed: np.ndarray
    cone_out: np.ndarray
    above: np.ndarray
    below: np.ndarray
    v: np.ndarray
    pre: np.ndarray

    @classmethod
    def of(cls, assignment: InterviewAssignment, focal: int) -> "_Focal":
        inst = assignment.instance
        base = assignment.doctor_list(focal)
        listed = np.zeros(inst.config.n_hospitals, dtype=bool)
        listed[base] = True
        cone = compute_cone(inst, focal)
        lo, hi = inst.hospital_range

        def unlisted(ids):
            return ids[~listed[ids]]

        v = inst.private_dh(focal, np.arange(listed.size, dtype=np.int64))
        return cls(focal, base, listed, unlisted(cone.member_hospitals),
                   unlisted(inst.hospitals_in_band(cone.high, hi)),
                   unlisted(inst.hospitals_in_band(lo, cone.low)),
                   v, inst.hospital_ratings + v)

    def marginal_slot(self) -> int:
        # the slot holding the smallest private value: the marginal choice
        return int(np.argmin(self.v[self.base]))


def _nearest_at(instance, target_rating: float, candidates: np.ndarray) -> Optional[int]:
    if candidates.size == 0:
        return None
    ratings = instance.hospital_ratings[candidates]
    return int(candidates[int(np.argmin(np.abs(ratings - target_rating)))])


def _check_spec(instance: MarketInstance, assignment: InterviewAssignment,
                spec: DeviationSpec) -> None:
    # deviant_slots' refusals, before anything of the focal is read
    if instance is not assignment.instance:
        raise ValueError("instance is not the assignment's instance")
    if spec.kind not in KINDS and spec.kind != NULL_DEVIATION:
        raise ValueError(f"unknown deviation kind {spec.kind!r}")
    check_agent_id("focal doctor", spec.focal_doctor,
                   instance.config.n_doctors)
    if not math.isfinite(spec.offset):
        raise ValueError(f"offset must be finite, got {spec.offset}")


def deviant_slots(instance: MarketInstance, assignment: InterviewAssignment,
                  spec: DeviationSpec) -> Tuple[List[int], float]:
    """Slot-to-hospital map after the deviation, plus the realized offset.

    Unchanged hospitals keep their base slots; replacements take over the
    vacated slots, so common-random-number draws line up edge for edge.
    """
    _check_spec(instance, assignment, spec)
    return _slots(instance, _Focal.of(assignment, spec.focal_doctor), spec)


def _slots(inst: MarketInstance, facts: _Focal,
           spec: DeviationSpec) -> Tuple[List[int], float]:
    # deviant_slots over the focal's facts, once spec is checked
    base = facts.base
    if spec.kind == NULL_DEVIATION or not base:
        return base, 0.0
    r = inst.doctor_ratings[facts.focal]
    half = inst.half_width

    if spec.kind == SWAP_IN_CONE:
        outside = facts.cone_out
        if outside.size == 0:
            return base, 0.0
        target = int(outside[int(np.argmax(facts.v[outside]))])
        slots = list(base)
        slots[facts.marginal_slot()] = target
        return slots, float(inst.hospital_ratings[target] - r)

    if spec.kind in (ABOVE_CONE, BELOW_CONE):
        if spec.kind == ABOVE_CONE:
            wanted = r + half + spec.offset
            band = facts.above
        else:
            wanted = r - half - spec.offset
            band = facts.below
        if band.size == 0:   # no hospital beyond the cone; fall back to nearest
            band = np.flatnonzero(~facts.listed)
        target = _nearest_at(inst, wanted, band)
        if target is None:
            return base, 0.0
        slots = list(base)
        slots[facts.marginal_slot()] = target
        return slots, float(inst.hospital_ratings[target] - r)

    # TOP_K_OF_ALL
    k = inst.config.k
    all_h = np.arange(inst.config.n_hospitals, dtype=np.int64)
    order = key_order(-facts.pre, all_h)
    chosen = sorted(int(all_h[i]) for i in order[:k])
    slots = list(base)
    keep = [s for s, h in enumerate(slots) if h in chosen]
    kept = {slots[s] for s in keep}
    incoming = [h for h in chosen if h not in kept]
    free = [s for s in range(len(slots)) if s not in keep]
    for s, h in zip(free, incoming):
        slots[s] = h
    extra = incoming[len(free):]          # k grew beyond the base list
    slots.extend(extra)
    top = max((inst.hospital_ratings[h] for h in chosen), default=r)
    return slots, float(top - r)


def _replicate_salt(focal: int, replicate: int) -> int:
    return (focal + 1) * _SALT_STRIDE + replicate + 1


def _slot_values(instance, focal, n_slots, replicate):
    salt = _replicate_salt(focal, replicate)
    slots = np.arange(n_slots)
    iota_d = instance.interview_dh(focal, slots, salt=salt)
    iota_h = instance.interview_hd(slots, focal, salt=salt)
    return iota_d, iota_h


def _context_for(assignment, context) -> _PatchContext:
    if context is None:
        return _PatchContext(assignment)
    if context.assignment is not assignment:
        raise ValueError("context was built for another assignment")
    return context


def evaluate_deviation(instance: MarketInstance,
                       assignment: InterviewAssignment,
                       spec: DeviationSpec,
                       context: Optional[_PatchContext] = None) -> DeviationResult:
    """Monte Carlo (base, deviant, gain) for one deviation spec."""
    if spec.replicates < 1:
        raise ValueError(f"replicates must be at least 1, got {spec.replicates}")
    _check_spec(instance, assignment, spec)
    ctx = _context_for(assignment, context)
    focal = spec.focal_doctor
    facts = ctx.facts(focal)
    dev_slots, realized = _slots(instance, facts, spec)
    base_slots = facts.base
    reps = range(spec.replicates)
    base_u = np.array([ctx.utility(focal, base_slots, t) for t in reps])
    dev_u = np.array([ctx.utility(focal, dev_slots, t) for t in reps])
    diff = dev_u - base_u
    se = float(diff.std(ddof=1) / math.sqrt(len(diff))) if len(diff) > 1 else 0.0
    return DeviationResult(spec, float(base_u.mean()), float(dev_u.mean()),
                           float(diff.mean()), se, realized)


def locality_check(instance: MarketInstance,
                   assignment: InterviewAssignment,
                   spec: DeviationSpec,
                   replicate: int = 0,
                   context: Optional[_PatchContext] = None) -> bool:
    """Each insert moves only the agents on its own rejection chain.

    For one replicate, the focal is inserted with its base and with its
    deviant list.  True iff, for both inserts, every agent whose match
    differs from the focal-absent run's is one the insert touched
    (DAState.touched), and the focal-absent state is left as it was.  Then
    every agent whose match differs between the two inserts lies in the
    union of the two touched sets.
    """
    _check_spec(instance, assignment, spec)
    ctx = _context_for(assignment, context)
    focal = spec.focal_doctor
    facts = ctx.facts(focal)
    dev_slots, _ = _slots(instance, facts, spec)
    base_slots = facts.base
    n_slots = max(len(base_slots), len(dev_slots))
    iota_d, iota_h = ctx.slot_values(focal, n_slots, replicate)
    absent = ctx._focal_absent(focal)

    def settled():
        # the focal-absent matching, and the stops, pointers and counts
        # behind it
        return (matching_of(absent, DOCTORS_PROPOSE).key(), list(absent.stop),
                list(absent.pointer), list(absent.held))

    before = settled()
    old = np.array(before[0])
    for slots in (base_slots, dev_slots):
        state = ctx.patched_run(focal, slots, iota_d, iota_h)[1]
        doctors, hospitals = state.touched()
        new = matching_of(state, DOCTORS_PROPOSE).doctor_of
        moved = np.flatnonzero(new != old)
        # a hospital's held set changes iff a doctor moves into or out of it
        changed = set(old[moved].tolist()) | set(new[moved].tolist())
        if not (set(moved.tolist()) <= doctors
                and changed - {-1} <= hospitals):
            return False
    return settled() == before


def epsilon_estimate(batch: Sequence[tuple],
                     offsets: Sequence[float] = (0.0,),
                     replicates: int = 20) -> dict:
    """Max mean gain over the deviation grid, per kind and overall.

    `batch` holds (instance, assignment, focal_doctor) triples sharing a
    config.  Above/below-cone kinds sweep `offsets`; the report compares
    the overall epsilon against c * sqrt(ln k / k) with c = 2a.
    """
    if not batch:
        raise ValueError("empty batch")
    cfg = batch[0][0].config

    grid: List[Tuple[str, float]] = [(SWAP_IN_CONE, 0.0), (TOP_K_OF_ALL, 0.0)]
    grid += [(ABOVE_CONE, x) for x in offsets]
    grid += [(BELOW_CONE, x) for x in offsets]

    cells: Dict[Tuple[str, float], List[float]] = {g: [] for g in grid}
    focals: Dict[int, List[int]] = {}
    for _, assignment, focal in batch:
        focals.setdefault(id(assignment), []).append(focal)
    contexts = {}
    for instance, assignment, focal in batch:
        key = id(assignment)
        if key not in contexts:
            contexts[key] = _PatchContext(assignment, focals=focals[key])
        ctx = contexts[key]
        for kind, x in grid:
            res = evaluate_deviation(
                instance, assignment,
                DeviationSpec(focal, kind, offset=x, replicates=replicates),
                context=ctx)
            cells[(kind, x)].append(res.gain)

    report: dict = {"kinds": {}, "grid": {}}
    overall = -math.inf
    for (kind, x), gains in cells.items():
        arr = np.asarray(gains)
        mean = float(arr.mean())
        se = float(arr.std(ddof=1) / math.sqrt(arr.size)) if arr.size > 1 else 0.0
        report["grid"][(kind, x)] = {"gain_mean": mean, "gain_se": se,
                                     "samples": int(arr.size)}
        prev = report["kinds"].get(kind)
        if prev is None or mean > prev["gain_mean"]:
            report["kinds"][kind] = {"gain_mean": mean, "gain_se": se, "param": x}
        overall = max(overall, mean)
    report["epsilon"] = overall
    report["reference"] = 2.0 * cfg.a * math.sqrt(math.log(cfg.k) / cfg.k)
    return report


DEVIATION_CSV_HEADER = "focal,kind,param,gain_mean,gain_se,replicates"


def deviation_rows(results: Sequence[DeviationResult]) -> List[str]:
    rows = []
    for r in results:
        rows.append(f"{r.spec.focal_doctor},{r.spec.kind},{r.spec.offset:.9g},"
                    f"{r.gain:.9g},{r.gain_se:.9g},{r.spec.replicates}")
    return rows
