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

from .da import (DOCTORS_PROPOSE, DAState, LazyMatching, TruncationRule,
                 doctor_proposing_state, truncated_da)
from .market import MarketInstance, SCHOOL_CHOICE
from .strategy import InterviewAssignment, build_preferences, compute_cone

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
    """Precomputed base structures shared by all replicates of one market.

    Plain runs warm-start: DA is run once per focal doctor with the focal's
    list empty, and each replicate inserts the focal into that settled state
    (see da.DAState.insert).  Only the most recent focal's state is kept, so
    callers loop focal-major.
    """

    def __init__(self, instance: MarketInstance, assignment: InterviewAssignment,
                 prefs: Optional[tuple] = None):
        self.instance = instance
        self.assignment = assignment
        if prefs is None:
            prefs = build_preferences(assignment)
        self.doctor_prefs, self.hospital_prefs = prefs
        # hospital preference keys (-utility, doctor), ascending = pref order
        self.hospital_keys: List[List[tuple]] = [
            [(-assignment.hospital_utils[h][d], d) for d in lst]
            for h, lst in enumerate(self.hospital_prefs)]
        self.base_ranks: List[Dict[int, int]] = [
            {d: i for i, (_, d) in enumerate(keys)} for keys in self.hospital_keys]
        self._absent: Optional[Tuple[int, DAState]] = None

    def _focal_absent(self, focal: int) -> DAState:
        if self._absent is None or self._absent[0] != focal:
            doctor_prefs = list(self.doctor_prefs)
            doctor_prefs[focal] = []
            self._absent = (focal, doctor_proposing_state(
                doctor_prefs, self.base_ranks, self.instance.capacities))
        return self._absent[1]

    def patched_run(self, focal: int, slot_hospitals: Sequence[int],
                    iota_d: np.ndarray, iota_h: np.ndarray,
                    want_log: bool = False):
        """Doctor-proposing DA with the focal doctor's edges re-pointed.

        slot_hospitals[s] is the hospital occupying slot s; iota_d/iota_h
        are that slot's fresh interview values for the two sides.  Returns
        (focal utility, matching, event log or None); the log comes from a
        full truncated_da run, the plain run warm-starts.
        """
        inst = self.instance
        cfg = inst.config
        r_focal = inst.doctor_ratings[focal]
        school = cfg.setting == SCHOOL_CHOICE

        u_focal = {}
        u_hosp = {}
        for s, h in enumerate(slot_hospitals):
            u_focal[h] = float(inst.hospital_ratings[h]
                               + inst.private_dh(focal, h)
                               + cfg.nu_d * iota_d[s])
            u_hosp[h] = float(r_focal) if school else \
                float(r_focal + cfg.nu_h * iota_h[s])
        focal_list = sorted(u_focal, key=lambda h: (-u_focal[h], h))

        if want_log:
            doctor_prefs = list(self.doctor_prefs)
            doctor_prefs[focal] = focal_list
            doctor_utils = list(self.assignment.doctor_utils)
            doctor_utils[focal] = u_focal
            # hospitals the focal no longer lists keep the focal's old rank,
            # unused: the focal never proposes there
            hospital_prefs = list(self.hospital_prefs)
            for h, u_h in u_hosp.items():
                keys = [kd for kd in self.hospital_keys[h] if kd[1] != focal]
                bisect.insort(keys, (-u_h, focal))
                hospital_prefs[h] = [d for _, d in keys]
            matching, log = truncated_da(
                doctor_prefs, hospital_prefs, inst.capacities,
                TruncationRule(), doctor_utils=doctor_utils)
            h_match = matching.doctor_of[focal]
        else:
            # positions in hospital_keys[h] are the base ranks; the focal
            # ranks half a position before the first key greater than its
            # own (its old key, on either side, is never compared)
            ranks = {h: bisect.bisect_left(self.hospital_keys[h], (-u_h, focal)) - 0.5
                     for h, u_h in u_hosp.items()}
            state = self._focal_absent(focal).insert(focal, focal_list, ranks)
            h_match = state.partner(focal)
            matching = LazyMatching(state, DOCTORS_PROPOSE, cfg.n_doctors,
                                    cfg.n_hospitals)
            log = None
        utility = UNMATCHED_UTILITY if h_match is None else u_focal[h_match]
        return utility, matching, log


def _marginal_slot(instance, base_list: List[int], focal: int) -> int:
    # the slot holding the smallest private value: the marginal choice
    v = instance.private_dh(focal, np.asarray(base_list, dtype=np.int64))
    return int(np.argmin(v))


def _nearest_at(instance, target_rating: float, candidates: np.ndarray) -> Optional[int]:
    if candidates.size == 0:
        return None
    ratings = instance.hospital_ratings[candidates]
    return int(candidates[int(np.argmin(np.abs(ratings - target_rating)))])


def deviant_slots(instance: MarketInstance, assignment: InterviewAssignment,
                  spec: DeviationSpec) -> Tuple[List[int], float]:
    """Slot-to-hospital map after the deviation, plus the realized offset.

    Unchanged hospitals keep their base slots; replacements take over the
    vacated slots, so common-random-number draws line up edge for edge.
    """
    if spec.kind not in KINDS and spec.kind != NULL_DEVIATION:
        raise ValueError(f"unknown deviation kind {spec.kind!r}")
    focal = spec.focal_doctor
    inst = instance
    base = list(assignment.doctor_lists[focal])
    if spec.kind == NULL_DEVIATION or not base:
        return base, 0.0
    cone = compute_cone(inst, focal)
    r = inst.doctor_ratings[focal]
    half = inst.half_width
    listed = set(base)

    if spec.kind == SWAP_IN_CONE:
        outside = np.array([h for h in cone.member_hospitals if h not in listed],
                           dtype=np.int64)
        if outside.size == 0:
            return base, 0.0
        vals = inst.private_dh(focal, outside)
        target = int(outside[int(np.argmax(vals))])
        slots = list(base)
        slots[_marginal_slot(inst, base, focal)] = target
        return slots, float(inst.hospital_ratings[target] - r)

    if spec.kind in (ABOVE_CONE, BELOW_CONE):
        if spec.kind == ABOVE_CONE:
            wanted = r + half + spec.offset
            band = inst.hospitals_in_band(cone.high, inst.hospital_range[1])
        else:
            wanted = r - half - spec.offset
            band = inst.hospitals_in_band(inst.hospital_range[0], cone.low)
        band = np.array([h for h in band if h not in listed], dtype=np.int64)
        if band.size == 0:   # no hospital beyond the cone; fall back to nearest
            everything = np.array([h for h in range(inst.config.n_hospitals)
                                   if h not in listed], dtype=np.int64)
            band = everything
        target = _nearest_at(inst, wanted, band)
        if target is None:
            return base, 0.0
        slots = list(base)
        slots[_marginal_slot(inst, base, focal)] = target
        return slots, float(inst.hospital_ratings[target] - r)

    # TOP_K_OF_ALL
    k = inst.config.k
    all_h = np.arange(inst.config.n_hospitals, dtype=np.int64)
    pre = inst.hospital_ratings + inst.private_dh(focal, all_h)
    order = np.lexsort((all_h, -pre))
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


def evaluate_deviation(instance: MarketInstance,
                       assignment: InterviewAssignment,
                       spec: DeviationSpec,
                       context: Optional[_PatchContext] = None) -> DeviationResult:
    """Monte Carlo (base, deviant, gain) for one deviation spec."""
    if spec.replicates < 1:
        raise ValueError(f"replicates must be at least 1, got {spec.replicates}")
    ctx = context or _PatchContext(instance, assignment)
    focal = spec.focal_doctor
    base_slots = list(assignment.doctor_lists[focal])
    dev_slots, realized = deviant_slots(instance, assignment, spec)
    n_slots = max(len(base_slots), len(dev_slots))

    base_u = np.empty(spec.replicates)
    dev_u = np.empty(spec.replicates)
    identical = dev_slots == base_slots
    for t in range(spec.replicates):
        iota_d, iota_h = _slot_values(instance, focal, n_slots, t)
        base_u[t], _, _ = ctx.patched_run(focal, base_slots, iota_d, iota_h)
        if identical:
            dev_u[t] = base_u[t]
        else:
            dev_u[t], _, _ = ctx.patched_run(focal, dev_slots, iota_d, iota_h)

    diff = dev_u - base_u
    se = float(diff.std(ddof=1) / math.sqrt(len(diff))) if len(diff) > 1 else 0.0
    return DeviationResult(spec, float(base_u.mean()), float(dev_u.mean()),
                           float(diff.mean()), se, realized)


def locality_check(instance: MarketInstance,
                   assignment: InterviewAssignment,
                   spec: DeviationSpec,
                   replicate: int = 0,
                   context: Optional[_PatchContext] = None) -> bool:
    """Every agent whose match changed lies on a proposal chain from the focal.

    Builds the union of the base and deviant event logs for one replicate
    and checks the changed agents are reachable from the focal doctor in
    the bipartite graph of logged proposals.
    """
    ctx = context or _PatchContext(instance, assignment)
    focal = spec.focal_doctor
    base_slots = list(assignment.doctor_lists[focal])
    dev_slots, _ = deviant_slots(instance, assignment, spec)
    n_slots = max(len(base_slots), len(dev_slots))
    iota_d, iota_h = _slot_values(instance, focal, n_slots, replicate)
    _, m_base, log_base = ctx.patched_run(focal, base_slots, iota_d, iota_h,
                                          want_log=True)
    _, m_dev, log_dev = ctx.patched_run(focal, dev_slots, iota_d, iota_h,
                                        want_log=True)

    adj: Dict[tuple, set] = {}
    for log in (log_base, log_dev):
        for _, p, t, _, outcome in log.events:
            if t is None:
                continue
            a, b = ("d", p), ("h", t)
            adj.setdefault(a, set()).add(b)
            adj.setdefault(b, set()).add(a)

    seen = {("d", focal)}
    stack = [("d", focal)]
    while stack:
        node = stack.pop()
        for nxt in adj.get(node, ()):
            if nxt not in seen:
                seen.add(nxt)
                stack.append(nxt)

    for d in range(instance.config.n_doctors):
        if m_base.doctor_of[d] != m_dev.doctor_of[d] and ("d", d) not in seen:
            return False
    for h in range(instance.config.n_hospitals):
        if m_base.doctors_of[h] != m_dev.doctors_of[h] and ("h", h) not in seen:
            return False
    return True


def epsilon_estimate(batch: Sequence[tuple],
                     offsets: Sequence[float] = (0.0,),
                     replicates: int = 20,
                     reference_c: Optional[float] = None) -> dict:
    """Max mean gain over the deviation grid, per kind and overall.

    `batch` holds (instance, assignment, focal_doctor) triples sharing a
    config.  Above/below-cone kinds sweep `offsets`; the report compares
    the overall epsilon against reference_c * sqrt(ln k / k) (reference_c
    defaults to 2a).
    """
    if not batch:
        raise ValueError("empty batch")
    cfg = batch[0][0].config
    if reference_c is None:
        reference_c = 2.0 * cfg.a

    grid: List[Tuple[str, float]] = [(SWAP_IN_CONE, 0.0), (TOP_K_OF_ALL, 0.0)]
    grid += [(ABOVE_CONE, x) for x in offsets]
    grid += [(BELOW_CONE, x) for x in offsets]

    cells: Dict[Tuple[str, float], List[float]] = {g: [] for g in grid}
    contexts = {}
    for instance, assignment, focal in batch:
        key = id(instance)
        if key not in contexts:
            contexts[key] = _PatchContext(instance, assignment)
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
    report["reference"] = reference_c * math.sqrt(math.log(cfg.k) / cfg.k)
    return report


DEVIATION_CSV_HEADER = "focal,kind,param,gain_mean,gain_se,replicates"


def deviation_rows(results: Sequence[DeviationResult]) -> List[str]:
    rows = []
    for r in results:
        rows.append(f"{r.spec.focal_doctor},{r.spec.kind},{r.spec.offset:.9g},"
                    f"{r.gain:.9g},{r.gain_se:.9g},{r.spec.replicates}")
    return rows
