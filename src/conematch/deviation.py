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
    added (da.DAState.with_proposers), and each probe inserts the focal
    into it (da.DAState.insert).  Both are exact by order invariance.  A
    focal not in `focals` joins the set, and the shared run is rebuilt
    once; an id in `focals` that is not a doctor's raises ValueError.
    Only the most recent focal's focal-absent state and facts (`facts`:
    her list, cone, bands and private values) are kept.

    `utilities` memoises each probe's utility and runs the missing ones as
    one batch (`_probes`), in which only the inserts run in Python;
    `prime` runs all of a focal's specs' probes that way.
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
        self._deviant: Dict[tuple, Tuple[List[int], float]] = {}

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

    def slots(self, spec: "DeviationSpec") -> Tuple[List[int], float]:
        # _slots of a checked spec, memoised by (focal, kind, offset)
        key = (spec.focal_doctor, spec.kind, spec.offset)
        if key not in self._deviant:
            self._deviant[key] = _slots(self.instance,
                                        self.facts(spec.focal_doctor), spec)
        return self._deviant[key]

    def prime(self, specs: Sequence["DeviationSpec"]) -> None:
        """Probe the specs' base and deviant lists, one batch per focal, so
        that evaluate_deviation finds every probe in the memo."""
        by_focal: Dict[int, List[DeviationSpec]] = {}
        for spec in specs:
            _check_spec(self.instance, self.assignment, spec)
            by_focal.setdefault(spec.focal_doctor, []).append(spec)
        for focal, group in by_focal.items():
            wanted = [(self.facts(focal).base,
                       range(max(s.replicates for s in group)))]
            wanted += [(self.slots(s)[0], range(s.replicates)) for s in group]
            self.utilities(focal, wanted)

    def utilities(self, focal: int, wanted) -> List[np.ndarray]:
        """For each (slots, replicates) pair of `wanted`, the focal's utility
        in those replicates' probes with those slot hospitals.

        A probe's utility is a pure function of (focal, slots, replicate),
        since slot s draws its values by the slot index, so it is memoised;
        the missing probes run as one batch, on one _slot_values draw.
        """
        memo = self._utilities
        need: Dict[tuple, dict] = {}     # slots: the replicates to probe
        for slots, replicates in wanted:
            key = tuple(slots)
            for t in replicates:
                if (focal, key, t) not in memo:
                    need.setdefault(key, {})[t] = None
        if need:
            drawn = sorted({t for ts in need.values() for t in ts})
            iota = _slot_values(self.instance, focal, max(map(len, need)),
                                np.array(drawn))
            batch = [(key, np.searchsorted(drawn, list(ts)))
                     for key, ts in need.items()]
            probes = self._probes(focal, batch, *iota)
            for key, ts in need.items():
                for t in ts:
                    memo[(focal, key, t)] = next(probes)[0]
        return [np.array([memo[(focal, tuple(slots), t)] for t in replicates])
                for slots, replicates in wanted]

    def patched_run(self, focal: int, slot_hospitals: Sequence[int],
                    iota_d: np.ndarray, iota_h: np.ndarray):
        """Doctor-proposing DA with the focal doctor's edges re-pointed, as
        a batch of one probe: slot_hospitals[s] holds slot s, and
        iota_d/iota_h are one replicate's fresh interview values for the
        two sides (at least one per slot).  Returns (focal utility, the
        inserted DAState); da.matching_of reads its matching.
        """
        return next(self._probes(focal, [(slot_hospitals, [0])],
                                 np.asarray(iota_d)[None], np.asarray(iota_h)[None]))

    def _probes(self, focal: int, batch, iota_d: np.ndarray,
                iota_h: np.ndarray):
        """Yield (focal utility, the inserted DAState) for each probe of
        `batch`, (slot hospitals, rows) pairs: one probe per row of
        iota_d/iota_h, that replicate's fresh interview values per slot,
        weighted as the assignment weights every other edge.  One lexsort
        orders every probe's list by (-utility, hospital), and _rank_at
        ranks the focal at every slot hospital; only the inserts run in
        Python.
        """
        inst, asg = self.instance, self.assignment
        probes = [(slots, r) for slots, rows in batch for r in rows]
        lengths = [len(slots) for slots, _ in probes]
        h = np.array([x for slots, _ in probes for x in slots], dtype=np.int64)
        slot = np.array([s for n in lengths for s in range(n)], dtype=np.int64)
        row = np.repeat(np.array([r for _, r in probes], dtype=np.int64), lengths)
        u = self.facts(focal).pre[h] + asg.nu_d * iota_d[row, slot]
        r_focal = inst.doctor_ratings[focal]
        if inst.config.setting == SCHOOL_CHOICE:
            u_hosp = np.full_like(u, r_focal)
        else:
            u_hosp = r_focal + asg.nu_h * iota_h[row, slot]
        probe = np.repeat(np.arange(len(lengths)), lengths)
        order = np.lexsort((h, -u, probe))
        h = h[order]
        ranks = (self._rank_at(h, u_hosp[order], focal) - 0.5).tolist()
        h, u = h.tolist(), u[order].tolist()
        absent = self._focal_absent(focal)
        at = 0
        for n in lengths:
            end = at + n
            state = absent.insert(focal, h[at:end], ranks[at:end])
            yield (u[at + state.pointer[focal] - 1] if state.held[focal]
                   else UNMATCHED_UTILITY), state
            at = end

    def _rank_at(self, hospitals: np.ndarray, u: np.ndarray,
                 focal: int) -> np.ndarray:
        # how many entries of each hospital's list have a key
        # (-utility, doctor) below (-u, focal), by one binary search for all
        # queries: a list runs in that key's order.  Her own old entry may
        # be counted; it holds no seat, so the half rank orders her the same
        offsets, _, doctor, _, own = self.hospital_prefs.csr
        lo, hi = offsets[hospitals], offsets[hospitals + 1]
        last = max(own.size - 1, 0)
        for _ in range(int((hi - lo).max(initial=0)).bit_length()):
            mid = (lo + hi) >> 1
            at = np.minimum(mid, last)
            key = own[at]
            ahead = (key > u) | ((key == u) & (doctor[at] < focal))
            ahead &= lo < hi
            lo = np.where(ahead, mid + 1, lo)
            hi = np.where(ahead, hi, mid)     # mid is lo where lo == hi
        return lo - offsets[hospitals]


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


def _slot_values(instance, focal, n_slots, replicates):
    # the focal's fresh interview values (hers, the slot hospitals') for
    # slots 0 to n_slots - 1: one row per replicate of an array of them, one
    # row for an int; one rng call per stream, elementwise, so each row is
    # that replicate's own draw bit for bit
    salt = np.expand_dims(_replicate_salt(focal, np.asarray(replicates)), -1)
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
    dev_slots, realized = ctx.slots(spec)
    reps = range(spec.replicates)
    base_u, dev_u = ctx.utilities(focal, [(facts.base, reps), (dev_slots, reps)])
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
    dev_slots, _ = ctx.slots(spec)
    base_slots = facts.base
    n_slots = max(len(base_slots), len(dev_slots))
    iota_d, iota_h = _slot_values(instance, focal, n_slots, [replicate])
    absent = ctx._focal_absent(focal)

    def settled():
        # the focal-absent matching, and the stops, pointers and counts
        # behind it
        return (matching_of(absent, DOCTORS_PROPOSE).key(), list(absent.stop),
                list(absent.pointer), list(absent.held))

    before = settled()
    old = np.array(before[0])
    for _, state in ctx._probes(focal, [(base_slots, [0]), (dev_slots, [0])],
                                iota_d, iota_h):
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
        specs = [DeviationSpec(focal, kind, offset=x, replicates=replicates)
                 for kind, x in grid]
        ctx.prime(specs)
        for spec in specs:
            res = evaluate_deviation(instance, assignment, spec, context=ctx)
            cells[(spec.kind, spec.offset)].append(res.gain)

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
