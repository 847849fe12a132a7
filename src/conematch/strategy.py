"""Interview selection and post-interview preference construction.

Doctors restrict attention to their cone, the hospitals whose public rating
falls within a*alpha of their own, and interview the k of those with the
highest private values.  Interview values exist only for pairs that
actually interview; both sides then rank their interviewed partners by
total utility.  The request-interview variant has doctors over-request and
hospitals grant a budgeted subset.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List

import numpy as np

from .market import MarketInstance, SCHOOL_CHOICE, REQUEST_INTERVIEW


@dataclass
class Cone:
    """One doctor's candidate band [low, high) over hospital ratings."""
    doctor_id: int
    low: float
    high: float
    member_hospitals: np.ndarray   # hospital ids in the band, ascending id


def compute_cone(instance: MarketInstance, doctor_id: int) -> Cone:
    """Clamped cone for one doctor; empty member list if nothing is in band."""
    r = instance.doctor_ratings[doctor_id]
    lo_bound, hi_bound = instance.hospital_range
    low = max(lo_bound, r - instance.half_width)
    high = min(hi_bound, r + instance.half_width)
    members = instance.hospitals_in_band(low, high)
    return Cone(doctor_id, low, high, members)


@dataclass
class InterviewAssignment:
    """Realized interview edges with cached utilities on both sides.

    doctor_lists[d] and hospital_lists[h] are each other's exact inverse
    (edge symmetry).  Utilities use the weights the assignment was built
    with; see weighted_utilities to rescale them.
    """

    instance: MarketInstance
    nu_d: float
    nu_h: float
    doctor_lists: List[List[int]]
    doctor_utils: List[Dict[int, float]]        # U_d(h) for interviewed h
    hospital_lists: List[List[int]] = field(default_factory=list)
    hospital_utils: List[Dict[int, float]] = field(default_factory=list)

    @property
    def setting(self) -> str:
        return self.instance.config.setting

    def n_doctors(self) -> int:
        return len(self.doctor_lists)

    def n_hospitals(self) -> int:
        return len(self.hospital_lists)

    def edges(self):
        for d, hs in enumerate(self.doctor_lists):
            for h in hs:
                yield d, h


def _invert(n_hospitals: int, doctor_lists: List[List[int]]):
    inv: List[List[int]] = [[] for _ in range(n_hospitals)]
    for d, hs in enumerate(doctor_lists):
        for h in hs:
            inv[h].append(d)
    return inv


def _materialize(instance, doctor_lists, nu_d, nu_h) -> InterviewAssignment:
    # interview values are drawn only for the edges in doctor_lists;
    # one batched draw per stream covers the whole market
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

    doctor_utils: List[Dict[int, float]] = []
    pos = 0
    for d in range(n_doc):
        c = int(counts[d])
        doctor_utils.append(dict(zip(doctor_lists[d],
                                     u_doc[pos:pos + c].tolist())))
        pos += c

    hospital_lists = _invert(n_hosp, doctor_lists)
    school = instance.config.setting == SCHOOL_CHOICE
    h_counts = np.fromiter((len(ds) for ds in hospital_lists), dtype=np.int64,
                           count=n_hosp)
    hh_flat = np.repeat(np.arange(n_hosp), h_counts)
    dd_flat = np.fromiter((d for ds in hospital_lists for d in ds),
                          dtype=np.int64, count=int(h_counts.sum()))
    u_hosp = instance.doctor_ratings[dd_flat]
    if not school:
        u_hosp = u_hosp + nu_h * instance.interview_hd(hh_flat, dd_flat)

    hospital_utils: List[Dict[int, float]] = []
    pos = 0
    for h in range(n_hosp):
        c = int(h_counts[h])
        hospital_utils.append(dict(zip(hospital_lists[h],
                                       u_hosp[pos:pos + c].tolist())))
        pos += c

    return InterviewAssignment(instance, nu_d, nu_h, doctor_lists,
                               doctor_utils, hospital_lists, hospital_utils)


# elements of one padded (doctors x widest cone) chunk; bounds the
# selection's working memory independently of n and the cone width
_WINDOW_BUDGET = 1 << 16


def _leading(group: np.ndarray, limit) -> np.ndarray:
    # mask of the first `limit` entries of each run of equal values in
    # the sorted array `group`; `limit` is a scalar or one per entry
    return np.arange(group.size) - np.searchsorted(group, group) < limit


def _top_in_cones(instance: MarketInstance, count: int):
    """Each doctor's `count` in-cone hospitals of highest private value.

    Returns flat (doctor, hospital) arrays; a doctor with at most `count`
    cone members keeps them all, and equal values go to the lower
    hospital id.

    A cone is the contiguous slice i0[d]:i1[d] of instance.hospital_sorted,
    so a chunk of doctors becomes a padded (rows x widest cone) matrix of
    values, -inf in the padding, of at most _WINDOW_BUDGET cells (one row
    if a cone is wider).  v(d,h) is drawn once per in-cone cell.  Every
    in-cone entry at least as large as its row's count-th largest value
    survives the partition, ties at the cut included; the exact order
    (value descending, id ascending) is applied to the survivors only.
    """
    n = instance.config.n_doctors
    lo_bound, hi_bound = instance.hospital_range
    lows = np.maximum(lo_bound, instance.doctor_ratings - instance.half_width)
    highs = np.minimum(hi_bound, instance.doctor_ratings + instance.half_width)
    i0 = np.searchsorted(instance.hospital_sorted, lows, side="left")
    widths = np.searchsorted(instance.hospital_sorted, highs, side="left") - i0
    last = instance.hospital_order.size - 1
    step = max(1, _WINDOW_BUDGET // max(1, int(widths.max())))
    empty = np.zeros(0, dtype=np.int64)
    cand_d, cand_h, cand_v = [empty], [empty], [np.zeros(0)]
    for lo in range(0, n, step):
        hi = min(lo + step, n)
        w = widths[lo:hi]
        width = int(w.max())
        if width == 0:
            continue
        in_cone = np.arange(width) < w[:, None]
        ids = instance.hospital_order[
            np.minimum(i0[lo:hi, None] + np.arange(width), last)]
        d_cells = np.repeat(np.arange(lo, hi), w)
        h_cells = ids[in_cone]
        v_cells = instance.private_dh(d_cells, h_cells)
        values = np.full(ids.shape, -np.inf)
        values[in_cone] = v_cells
        kth = max(0, width - count)
        cut = np.partition(values, kth, axis=1)[:, kth]
        survive = v_cells >= np.repeat(cut, w)
        cand_d.append(d_cells[survive])
        cand_h.append(h_cells[survive])
        cand_v.append(v_cells[survive])
    d, h, v = (np.concatenate(c) for c in (cand_d, cand_h, cand_v))
    order = np.lexsort((h, -v, d))
    d, h = d[order], h[order]
    keep = _leading(d, count)
    return d[keep], h[keep]


def _lists(n_doctors: int, d: np.ndarray, h: np.ndarray) -> List[List[int]]:
    # (doctor, hospital) pairs to one ascending-id list per doctor
    order = np.lexsort((h, d))
    bounds = np.searchsorted(d[order], np.arange(1, n_doctors))
    return [chunk.tolist() for chunk in np.split(h[order], bounds)]


def select_interviews(instance: MarketInstance) -> InterviewAssignment:
    """Each doctor interviews her top-k in-cone hospitals by private value.

    A doctor whose cone holds fewer than k hospitals interviews all of
    them; an empty cone leaves her with no interviews (strategy-unmatched).
    Equal private values go to the lower hospital id.  The top k come from
    a partition of padded cone windows, chunk by chunk (_top_in_cones), so
    the working memory is a fixed cell budget, not a sort over every cone
    member of every doctor.
    """
    cfg = instance.config
    d, h = _top_in_cones(instance, cfg.k)
    return _materialize(instance, _lists(cfg.n_doctors, d, h),
                        cfg.nu_d, cfg.nu_h)


def request_interview_protocol(instance: MarketInstance) -> InterviewAssignment:
    """Request/grant variant: k^2 requests, capacity*k^1.5 grants.

    Doctors request their in-cone top k^2 hospitals by private value, with
    the window selection of select_interviews.  Each hospital grants up to
    floor(capacity * k^1.5) (at least 1) of the requests it received,
    keeping the doctors with its highest private values v(h,d), equal
    values going to the lower doctor id; one flat sort over all requests,
    by hospital, then value, then doctor, orders every hospital's at once.
    Preference-list truncation to the capacity*k best interviews happens
    in build_preferences.
    """
    cfg = instance.config
    if cfg.setting != REQUEST_INTERVIEW:
        raise ValueError("request_interview_protocol needs setting=RequestInterview")
    k = cfg.k
    req_d, req_h = _top_in_cones(instance, k * k)
    order = np.lexsort((req_d, -instance.private_hd(req_h, req_d), req_h))
    req_d, req_h = req_d[order], req_h[order]
    budgets = np.maximum(1, (instance.capacities * k ** 1.5).astype(np.int64))
    granted = _leading(req_h, budgets[req_h])
    return _materialize(instance, _lists(cfg.n_doctors, req_d[granted],
                                         req_h[granted]),
                        cfg.nu_d, cfg.nu_h)


def build_assignment(instance: MarketInstance) -> InterviewAssignment:
    """Run whichever interview protocol the instance's setting calls for."""
    if instance.config.setting == REQUEST_INTERVIEW:
        return request_interview_protocol(instance)
    return select_interviews(instance)


def _ranked(ids: List[int], utils: Dict[int, float]) -> List[int]:
    # strict descending utility, ties broken toward the lower id
    return sorted(ids, key=lambda i: (-utils[i], i))


def build_preferences(assignment: InterviewAssignment):
    """Ranked lists for both sides: (doctor_prefs, hospital_prefs).

    Only interviewed partners appear.  In the RequestInterview setting each
    hospital keeps just its capacity*k highest-utility doctors.
    """
    doctor_prefs = [_ranked(hs, assignment.doctor_utils[d])
                    for d, hs in enumerate(assignment.doctor_lists)]
    hospital_prefs = [_ranked(ds, assignment.hospital_utils[h])
                      for h, ds in enumerate(assignment.hospital_lists)]
    if assignment.setting == REQUEST_INTERVIEW:
        caps = assignment.instance.capacities
        k = assignment.instance.config.k
        hospital_prefs = [p[: int(caps[h]) * k] for h, p in enumerate(hospital_prefs)]
    return doctor_prefs, hospital_prefs


def weighted_utilities(assignment: InterviewAssignment,
                       nu_d: float, nu_h: float) -> InterviewAssignment:
    """Same interview edges, utilities recomputed with new weights.

    nu_d = nu_h = 1 reproduces the base model exactly; nu = 0 removes the
    interview values from that side's utilities.
    """
    if not (0.0 <= nu_d <= 1.0 and 0.0 <= nu_h <= 1.0):
        raise ValueError("nu weights must lie in [0, 1]")
    return _materialize(assignment.instance, assignment.doctor_lists, nu_d, nu_h)
