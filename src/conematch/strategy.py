"""Interview selection and post-interview preference construction.

Doctors restrict attention to their cone, the hospitals whose public rating
falls within a*alpha of their own, and interview the k of those with the
highest private values.  Interview values exist only for pairs that
actually interview; both sides then rank their interviewed partners by
total utility.  The request-interview variant has doctors over-request and
hospitals grant a budgeted subset.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from . import rng
from .da import (DOCTORS_PROPOSE, HOSPITALS_PROPOSE, EdgeLists, _leading,
                 _ranges)
from .market import (MarketInstance, SCHOOL_CHOICE, REQUEST_INTERVIEW,
                     check_field, market_key)


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


def key_order(*keys) -> np.ndarray:
    """The stable order of rows sorted by keys[0], then keys[1], ...

    np.lexsort(keys[::-1]) by one chain of sorts: the last key first, then
    stably by each earlier one, a signed integer key that spans under
    2**15 as int16 (numpy radix-sorts it).  Equal values tie, -0.0 ties
    with 0.0, NaN sorts last and ties with NaN.  Where exactly one key is
    not a signed integer (a float utility or an unsigned draw), the chain
    first runs only up to it, from one unstable sort of it; if no two
    adjacent rows are then equal in those keys, that order is the only
    one and is returned.  Raises ValueError when a row repeats.
    """
    keys = [np.asarray(key) for key in keys]
    if keys[0].size == 0:
        return np.zeros(0, dtype=np.int64)
    values = [i for i, key in enumerate(keys) if key.dtype.kind != "i"]
    if len(values) == 1:
        head = [_sort_key(key) for key in keys[:values[0] + 1]]
        order = _chain(head, np.argsort(head[-1]))
        if not _repeats(head, order):
            return order
    keys = [_sort_key(key) for key in keys]
    order = _chain(keys, np.argsort(keys[-1], kind="stable"))
    if _repeats(keys, order):
        raise ValueError("sort keys repeat a row")
    return order


def _sort_key(key: np.ndarray) -> np.ndarray:
    # a signed integer key spanning under 2**15 as its int16 offset from
    # its least value; every other key as it is
    if key.dtype.kind == "i":
        low = int(key.min())
        if int(key.max()) - low < 1 << 15:
            return np.subtract(key, low, dtype=np.int64).astype(np.int16)
    return key


def _chain(keys, order: np.ndarray) -> np.ndarray:
    # `order` sorted by keys[-1], then stably by each earlier key
    for key in reversed(keys[:-1]):
        order = order[np.argsort(key[order], kind="stable")]
    return order


def _repeats(keys, order: np.ndarray) -> bool:
    # whether two adjacent rows of `order` are equal in every key, NaN
    # equal to NaN
    same = np.ones(order.size - 1, dtype=bool)
    for key in keys:
        ranked = key[order]
        tie = ranked[1:] == ranked[:-1]
        if ranked.dtype.kind == "f" and np.isnan(ranked.min()):
            tie |= np.isnan(ranked[1:]) & np.isnan(ranked[:-1])
        same &= tie
    return bool(same.any())


@dataclass
class InterviewAssignment:
    """The realized interview edges as one edge table (CSR).

    Edge arrays are doctor-major, each doctor's edges in her preference
    order (-u_doc, h): doctor d's edges are doctor_offsets[d] to
    doctor_offsets[d + 1].  u_doc[e] is U_d(h) and u_hosp[e] is U_h(d) for
    edge e = (edge_d[e], edge_h[e]).  hospital_order lists the edges in
    hospital-major preference order (-u_hosp, d), hospital h's from
    hospital_offsets[h] to hospital_offsets[h + 1]; hospital_rank[e] is
    edge e's position in its hospital's list, or -1 where the hospital does
    not rank the doctor (RequestInterview keeps capacity*k).  Utilities use
    the weights the assignment was built with; see weighted_utilities to
    rescale them.
    """

    instance: Optional[MarketInstance]
    nu_d: float
    nu_h: float
    edge_d: np.ndarray
    edge_h: np.ndarray
    u_doc: np.ndarray
    u_hosp: np.ndarray
    doctor_offsets: np.ndarray
    hospital_order: np.ndarray
    hospital_offsets: np.ndarray
    hospital_rank: np.ndarray

    @classmethod
    def from_edges(cls, instance, nu_d, nu_h, d, h, u_doc, u_hosp,
                   n_doctors: int, n_hospitals: int,
                   hospital_budget=None) -> "InterviewAssignment":
        """The table over edges (d[i], h[i]) in any order.

        Equal utilities go to the lower partner id on both sides.  A
        hospital ranks only its hospital_budget[h] best doctors, if given.
        """
        d, h, u_doc, u_hosp = (np.asarray(x) for x in (d, h, u_doc, u_hosp))
        order = key_order(d, -u_doc, h)
        d, h, u_doc, u_hosp = (x[order] for x in (d, h, u_doc, u_hosp))
        doctor_offsets = np.searchsorted(d, np.arange(n_doctors + 1))
        hospital_order = key_order(h, -u_hosp, d)
        hospital_offsets = np.searchsorted(h[hospital_order],
                                           np.arange(n_hospitals + 1))
        hospital_rank = np.empty_like(hospital_order)
        hospital_rank[hospital_order] = (np.arange(h.size)
                                         - hospital_offsets[h[hospital_order]])
        if hospital_budget is not None:
            hospital_rank[hospital_rank >= hospital_budget[h]] = -1
        return cls(instance, nu_d, nu_h, d, h, u_doc, u_hosp, doctor_offsets,
                   hospital_order, hospital_offsets, hospital_rank)

    def n_doctors(self) -> int:
        return self.doctor_offsets.size - 1

    def n_hospitals(self) -> int:
        return self.hospital_offsets.size - 1

    def doctor_list(self, d: int) -> List[int]:
        """Doctor d's interviewed hospitals, ascending id."""
        off = self.doctor_offsets
        return sorted(self.edge_h[off[d]:off[d + 1]].tolist())

    @property
    def doctor_lists(self) -> List[List[int]]:
        """Every doctor's interviewed hospitals, ascending id."""
        by_id = self.edge_h[key_order(self.edge_d, self.edge_h)].tolist()
        off = self.doctor_offsets.tolist()
        return [by_id[i:j] for i, j in zip(off, off[1:])]

    def edge_index(self, d, h) -> np.ndarray:
        """Edge id of each pair (d[i], h[i]), -1 where it is no edge."""
        d, h = np.asarray(d, np.int64), np.asarray(h, np.int64)
        if not (d.size and self.edge_h.size):
            return np.full(d.shape, -1, dtype=np.int64)
        start = self.doctor_offsets[d]
        degree = self.doctor_offsets[d + 1] - start
        cols = np.arange(max(1, int(degree.max())))
        cells = np.minimum(start[:, None] + cols, self.edge_h.size - 1)
        hit = (cols < degree[:, None]) & (self.edge_h[cells] == h[:, None])
        return np.where(hit.any(axis=1), start + hit.argmax(axis=1), -1)

    def matched_edges(self, matching) -> np.ndarray:
        """Each doctor's matched edge, -1 if unmatched.

        Raises ValueError for a match that is no interview edge.
        """
        h = matching.doctor_of
        on = np.flatnonzero(h >= 0)
        edges = np.full(h.size, -1, dtype=np.int64)
        edges[on] = self.edge_index(on, h[on])
        bad = on[edges[on] < 0]
        if bad.size:
            raise ValueError(f"match ({bad[0]},{h[bad[0]]}) is not an interview edge")
        return edges


def _materialize(instance, d, h, nu_d, nu_h) -> InterviewAssignment:
    # interview values are drawn only for the edges (d, h); one batched
    # draw per stream covers the whole market
    cfg = instance.config
    u_doc = (instance.hospital_ratings[h] + instance.private_dh(d, h)
             + nu_d * instance.interview_dh(d, h))
    u_hosp = instance.doctor_ratings[d]
    if cfg.setting != SCHOOL_CHOICE:
        u_hosp = u_hosp + nu_h * instance.interview_hd(h, d)
    budget = (instance.capacities * cfg.k
              if cfg.setting == REQUEST_INTERVIEW else None)
    return InterviewAssignment.from_edges(instance, nu_d, nu_h, d, h, u_doc,
                                          u_hosp, cfg.n_doctors,
                                          cfg.n_hospitals, budget)


# elements of one padded (doctors x widest cone) chunk; bounds the
# selection's working memory independently of n and the cone width
_WINDOW_BUDGET = 1 << 16
# a chunk whose threshold would keep more than this share of its narrowest
# row's cells sends every row to the exact cut (_exact_survivors); at a
# share of 1 or more every chunk takes a threshold, which keeps every cell
# of a chunk no wider than _threshold_keep.  0.1 and the keep's two
# standard deviations are measured choices: neither 0.05-0.2 nor one to
# three deviations moved any workload beyond noise
_DENSE_CUT = 0.1


def _threshold_keep(count: int) -> int:
    # cells a chunk's threshold keeps, on average, of its narrowest row:
    # count plus about two standard deviations of the kept count
    return count + math.ceil(2 * math.sqrt(count)) + 2


def _exact_survivors(heads, w, count):
    # (row, col) of each in-cone cell at or above its row's exact cut: the
    # top 31 bits of the row's count-th largest head, padding at 0 (no
    # head undercuts it); changes the padding of `heads` in place
    width = heads.shape[1]
    np.put(heads, _ranges(np.arange(w.size) * width + w, width - w), 0)
    kth = max(0, width - count)
    cut = np.partition(heads, kth, axis=1)[:, kth]
    cut >>= np.uint64(33)
    cut <<= np.uint64(33)
    row, col = np.divmod(np.flatnonzero(heads >= cut[:, None]), width)
    inside = col < w[row]
    return row[inside], col[inside]


def _top_in_cones(instance: MarketInstance, count: int):
    """Each doctor's `count` in-cone hospitals of highest private value.

    Returns flat (doctor, hospital) arrays; a doctor with at most `count`
    cone members keeps them all, and equal values go to the lower
    hospital id.

    The selection runs on the 53-bit integers behind v(d,h) (rng.bits),
    which order and tie exactly as the values do.  A cone is the
    contiguous slice i0[d]:i1[d] of instance.hospital_sorted, so the
    hospitals' halves of the keys are made once, in rating order, and each
    doctor's half once.  Doctors are taken in a stable order of cone
    width, and each chunk of them becomes a (rows x its widest cone)
    matrix of at most _WINDOW_BUDGET cells (one row if a cone is wider),
    in one buffer reused by every chunk: one gather of sliding windows
    over the hospital halves, hashed in place to the head of each draw
    (rng.bits_head).  The head's top 31 bits are the draw's, so a cell
    whose head is under a threshold t = T << 33 draws strictly less than
    every cell at or above it.  A chunk takes one t, set to keep about
    _threshold_keep(count) cells of its narrowest row; the padding cells
    past a row's cone are dropped by column.  A row left with fewer than
    min(count, cone) cells, and every row of a chunk whose threshold
    would keep more than _DENSE_CUT of its narrowest row, takes the exact
    cut instead: the top 31 bits of its count-th largest head, ties
    included (_exact_survivors).  Either way a row's top `count` all
    survive, and only the survivors are finished into draws
    (rng.bits_tail), have their hospital ids gathered and are sorted
    exactly (value descending, id ascending).
    """
    lo_bound, hi_bound = instance.hospital_range
    lows = np.maximum(lo_bound, instance.doctor_ratings - instance.half_width)
    highs = np.minimum(hi_bound, instance.doctor_ratings + instance.half_width)
    i0 = np.searchsorted(instance.hospital_sorted, lows, side="left")
    widths = np.searchsorted(instance.hospital_sorted, highs, side="left") - i0
    by_width = np.argsort(widths, kind="stable")
    sorted_w = widths[by_width]
    widest = int(sorted_w[-1])
    # windows may run past the last hospital: pad with copies of it
    padded = np.pad(instance.hospital_order, (0, widest), mode="edge")
    windows = sliding_window_view(rng.half_j(padded), widest)
    doctor_keys = rng.half_i(instance.private_dh_state,
                             np.arange(widths.size))
    cells = max(_WINDOW_BUDGET, widest)
    buf, tmp = np.empty(cells, np.uint64), np.empty(cells, np.uint64)
    target = _threshold_keep(count)
    empty = np.zeros(0, dtype=np.int64)
    cand_d, cand_h, cand_v = [empty], [empty], [np.zeros(0, np.uint64)]
    lo = int(np.searchsorted(sorted_w, 1))       # empty cones draw nothing
    while lo < sorted_w.size:
        # the longest run of rows whose widest (last) cone keeps the chunk
        # within budget; the first row's width bounds how far to look
        ahead = sorted_w[lo:lo + max(1, _WINDOW_BUDGET // int(sorted_w[lo]))]
        fits = np.arange(1, ahead.size + 1) * ahead <= _WINDOW_BUDGET
        hi = lo + max(1, int(np.count_nonzero(fits)))
        rows, w = by_width[lo:hi], sorted_w[lo:hi]
        width, narrowest = int(w[-1]), int(w[0])
        starts = i0[rows]
        shape = (rows.size, width)
        heads = buf[:rows.size * width].reshape(shape)
        rng.bits_head(doctor_keys[rows, None], windows[starts, :width],
                      out=heads, tmp=tmp[:heads.size].reshape(shape))
        row, col = empty, empty
        short = np.ones(rows.size, dtype=bool)
        if target <= _DENSE_CUT * narrowest:
            # keeps the cells that draw T << 22 or more: about a share
            # 1 - T / 2**31 = target / narrowest of each row
            t = np.uint64(((max(0, narrowest - target) << 31) // narrowest)
                          << 33)
            row, col = np.divmod(np.flatnonzero(heads >= t), width)
            inside = col < w[row]        # a padding cell never survives
            row, col = row[inside], col[inside]
            short = (np.bincount(row, minlength=rows.size)
                     < np.minimum(count, w))
            kept = ~short[row]
            row, col = row[kept], col[kept]
        if short.any():
            exact = np.flatnonzero(short)
            r, c = _exact_survivors(    # a whole chunk in place, no copy
                heads if exact.size == rows.size else heads[exact],
                w[exact], count)
            row, col = np.concatenate((row, exact[r])), np.concatenate((col, c))
        cand_d.append(rows[row])
        cand_h.append(padded[starts[row] + col])
        cand_v.append(heads[row, col])
        lo = hi
    d, h, v = (np.concatenate(c) for c in (cand_d, cand_h, cand_v))
    rng.bits_tail(v)
    order = key_order(d, ~v, h)
    d, h = d[order], h[order]
    keep = _leading(d, count)
    return d[keep], h[keep]


def selection_count(config) -> int:
    """How many in-cone hospitals each doctor picks: k^2 requests under
    RequestInterview, k interviews otherwise."""
    return config.k * config.k if config.setting == REQUEST_INTERVIEW else config.k


class SharedSelection:
    """One market's in-cone top-`count` lists, for every config that draws it.

    The first top() call hashes the market's cones once, at `count`; each
    call then returns the first `n` <= count entries of every doctor's
    list, which are _top_in_cones(instance, n) exactly, since the lists
    run in one total order (value descending, id ascending).  Calls must
    come from instances of one market: equal market.market_key and run
    index.
    """

    def __init__(self, count: int):
        self.count = count
        self._market = None
        self._d = self._h = None

    def top(self, instance: MarketInstance, n: int):
        market = (market_key(instance.config), instance.run_index)
        if self._market is None:
            self._market = market
            self._d, self._h = _top_in_cones(instance, self.count)
        elif market != self._market:
            raise ValueError("the selection was made for another market")
        if n > self.count:
            raise ValueError(f"{n} entries asked of a top-{self.count} selection")
        keep = _leading(self._d, n)
        return self._d[keep], self._h[keep]


def _top(instance, count, selection):
    if selection is None:
        return _top_in_cones(instance, count)
    return selection.top(instance, count)


def select_interviews(instance: MarketInstance,
                      selection: Optional[SharedSelection] = None
                      ) -> InterviewAssignment:
    """Each doctor interviews her top-k in-cone hospitals by private value.

    A doctor whose cone holds fewer than k hospitals interviews all of
    them; an empty cone leaves her with no interviews (strategy-unmatched).
    Equal private values go to the lower hospital id.  The top k come from
    padded cone windows, chunk by chunk (_top_in_cones): each cell is
    hashed only to the head of its draw, a threshold on the heads' top 31
    bits (or, for a row it leaves short and for a dense chunk, the exact
    cut at the k-th largest head) keeps a few cells a row, and only those
    are finished into draws and sorted.  The working memory is a fixed
    cell budget, not a sort over every cone member of every doctor.  Or
    they come from `selection`, when given.
    """
    cfg = instance.config
    d, h = _top(instance, cfg.k, selection)
    return _materialize(instance, d, h, cfg.nu_d, cfg.nu_h)


def request_interview_protocol(instance: MarketInstance,
                               selection: Optional[SharedSelection] = None
                               ) -> InterviewAssignment:
    """Request/grant variant: k^2 requests, capacity*k^1.5 grants.

    Doctors request their in-cone top k^2 hospitals by private value, with
    the window selection of select_interviews (or from `selection`).  Each
    hospital grants up to floor(capacity * k^1.5) (at least 1) of the
    requests it received, keeping the doctors with its highest private
    values v(h,d), equal values going to the lower doctor id; one flat
    key_order over all requests, by hospital, then the integer behind
    v(h,d) descending, then doctor id, orders every hospital's at once.
    Each hospital ranks only its capacity*k best interviews (the table's
    hospital_rank is -1 on the rest).
    """
    cfg = instance.config
    if cfg.setting != REQUEST_INTERVIEW:
        raise ValueError("request_interview_protocol needs setting=RequestInterview")
    k = cfg.k
    req_d, req_h = _top(instance, k * k, selection)
    hospital_keys = rng.half_i(instance.private_hd_state,
                               np.arange(cfg.n_hospitals))
    v = rng.bits(hospital_keys[req_h], rng.half_j(req_d))
    order = key_order(req_h, ~v, req_d)
    req_d, req_h = req_d[order], req_h[order]
    budgets = np.maximum(1, (instance.capacities * k ** 1.5).astype(np.int64))
    granted = _leading(req_h, budgets[req_h])
    return _materialize(instance, req_d[granted], req_h[granted],
                        cfg.nu_d, cfg.nu_h)


def build_assignment(instance: MarketInstance,
                     selection: Optional[SharedSelection] = None
                     ) -> InterviewAssignment:
    """Run whichever interview protocol the instance's setting calls for,
    picking from `selection` if given (see SharedSelection)."""
    if instance.config.setting == REQUEST_INTERVIEW:
        return request_interview_protocol(instance, selection)
    return select_interviews(instance, selection)


def build_preferences(assignment: InterviewAssignment):
    """Ranked lists for both sides, as views of the edge table.

    Returns (doctor_prefs, hospital_prefs): doctor d's hospitals in order
    (-u_doc, h) and hospital h's ranked doctors in order (-u_hosp, d),
    without the edges it does not rank (RequestInterview).  Both are
    da.EdgeLists: entry by entry they carry the rank the partner gives back
    (None if it does not) and the listing agent's own utility.  Each of
    these is built as Python lists only when it is first read (the FIFO
    runs, the event log and the deviation probe read them); the round
    engine and the truncation stops read the table's arrays.
    """
    return (EdgeLists(assignment, DOCTORS_PROPOSE),
            EdgeLists(assignment, HOSPITALS_PROPOSE))


def weighted_utilities(assignment: InterviewAssignment,
                       nu_d: float, nu_h: float) -> InterviewAssignment:
    """Same interview edges, utilities recomputed with new weights.

    nu_d = nu_h = 1 reproduces the base model exactly; nu = 0 removes the
    interview values from that side's utilities.  Each weight obeys the
    rule of MarketConfig's field of the same name.
    """
    check_field("nu_d", nu_d)
    check_field("nu_h", nu_h)
    return _materialize(assignment.instance, assignment.edge_d,
                        assignment.edge_h, nu_d, nu_h)
