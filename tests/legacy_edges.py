"""The per-agent list-and-dict representation the edge table replaced.

Kept as a test oracle, as the code stood before the edge table: interview
lists and utility dicts on both sides, preferences by a keyed sort, rank
dicts per receiver, a dict-reading DA and blocking scan, and run_stats
walking the dicts.  Its matchings keep the old form too (Matching: each
doctor's hospital or None, beside each hospital's held set); the readers
take the package's one-array da.Matching and convert it (as_sets).
tests/test_edge_table.py compares the package with it.

Also kept: the interview selection that drew one flat value per cone cell
in doctor-id chunks (top_in_cones), and the aggregation that reduced every
run's rank groups one numpy call at a time (aggregate).
tests/test_one_pass.py compares the package with them.

And the deviation probe as a full logged DA over patched lists
(patched_da), with the locality check that searched the graph of both
logged runs' proposals (locality_graph_check).  tests/test_edge_table.py
and tests/test_deviation.py compare the package with them.

And the deviant slot search that filtered listed hospitals in Python
loops (loop_deviant_slots).  tests/test_deviation.py compares the package
with it.

And the receiver dominance predicate over per-hospital Python lists of
seat utilities, each sorted best first (receivers_dominate).
tests/test_audit_predicates.py compares the package with it.

And the truncated DA that checked its rule before every proposal
(RuleCheckingState, rule_checking_da), with the double-cut rule built as
per-proposer dicts in a Python loop (rule_for) and the excluded
proposers' lists emptied (rule_checking_double_cut).  tests/test_edge_table.py
and tests/test_truncation_stops.py compare the package's prefix runs with
it.

And the config validator that market.FIELDS replaced: require_int,
_require_finite and the if-chain of MarketConfig.__post_init__
(LegacyMarketConfig), with the grid reader that derived n_hospitals as
n / kappa before from_dict (legacy_expand_grid).  tests/test_cli.py
compares cli.expand_grid with it.
"""

import bisect
import heapq
import itertools
import math
from collections import deque
from dataclasses import dataclass, fields
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from conematch import da
from conematch.da import TruncationRule, truncated_da
from conematch.deviation import (ABOVE_CONE, BELOW_CONE, KINDS,
                                 NULL_DEVIATION, SWAP_IN_CONE, _marginal_slot,
                                 _nearest_at, _slot_values, deviant_slots)
from conematch.double_cut import DOCTORS_PROPOSE, HOSPITALS_PROPOSE
from conematch.market import (REQUEST_INTERVIEW, RESIDENCY, SCHOOL_CHOICE,
                              SETTINGS, ConfigError)
from conematch.strategy import compute_cone
from conematch.metrics import (ALL_METRICS, DOCTOR_LOSS, DOCTOR_MATCH_RATE,
                               HOSPITAL_FILL_FRACTION, HOSPITAL_FULL_RATE,
                               HOSPITAL_LOSS, GroupedSeries, RunStats)

from oracle_helpers import written_lists


@dataclass
class Matching:
    """doctor_of[d] is d's hospital or None; doctors_of[h] is h's held set."""

    doctor_of: List[Optional[int]]
    doctors_of: List[set]

    def key(self) -> tuple:
        return tuple(-1 if h is None else h for h in self.doctor_of)


def as_sets(matching) -> Matching:
    """The old form of a da.Matching."""
    doctor_of = [None if h < 0 else h for h in matching.key()]
    doctors_of = [set() for _ in range(matching.n_hospitals)]
    for d, h in enumerate(doctor_of):
        if h is not None:
            doctors_of[h].add(d)
    return Matching(doctor_of, doctors_of)


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


def doctor_proposing_da(doctor_prefs, hospital_prefs, caps):
    heaps = deferred_acceptance(doctor_prefs, build_ranks(hospital_prefs),
                                [1] * len(doctor_prefs), list(caps))
    return _matching(heaps, True, len(doctor_prefs), len(hospital_prefs))


def hospital_proposing_da(doctor_prefs, hospital_prefs, caps):
    heaps = deferred_acceptance(hospital_prefs, build_ranks(doctor_prefs),
                                list(caps), [1] * len(doctor_prefs))
    return _matching(heaps, False, len(doctor_prefs), len(hospital_prefs))


def blocking_pairs(asg, matching, capacities, prefs):
    """(doctor, hospital, gain, witness) of every blocking pair, in scan order."""
    doctor_prefs, hospital_prefs = prefs
    hospital_ranks = build_ranks(hospital_prefs)
    matching = as_sets(matching)
    out = []
    for d, ranked in enumerate(doctor_prefs):
        cur = matching.doctor_of[d]
        cur_u = asg.doctor_utils[d][cur] if cur is not None else -math.inf
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
    """The truncated run of a double-cut scenario over the dicts, by the
    rule-checking engine; returns (matching, event log, final state)."""
    return rule_checking_double_cut(
        instance, scenario,
        written_lists(*prefs, asg.doctor_utils, asg.hospital_utils))


def patched_da(instance, asg, prefs, nu_d, nu_h, focal, slots, iota_d, iota_h):
    """A full logged DA with the focal's edges re-pointed to `slots`.

    The focal's list and keys are built as the dicts built them: its list
    sorted by its utilities, its key (-utility, focal) placed into each slot
    hospital's list.  Returns (the focal's utility per slot hospital,
    matching, event log).
    """
    old_doctor, old_hospital = prefs
    r_focal = instance.doctor_ratings[focal]
    u_focal = {h: float(instance.hospital_ratings[h]
                        + instance.private_dh(focal, h) + nu_d * iota_d[s])
               for s, h in enumerate(slots)}
    doctor_prefs = list(old_doctor)
    doctor_prefs[focal] = _ranked(u_focal, u_focal)
    doctor_utils = list(asg.doctor_utils)
    doctor_utils[focal] = u_focal
    hospital_prefs = list(old_hospital)
    for s, h in enumerate(slots):
        u_h = float(r_focal) if instance.config.setting == SCHOOL_CHOICE else \
            float(r_focal + nu_h * iota_h[s])
        keys = [(-asg.hospital_utils[h][d], d) for d in old_hospital[h]
                if d != focal]
        bisect.insort(keys, (-u_h, focal))
        hospital_prefs[h] = [d for _, d in keys]
    matching, log = truncated_da(*written_lists(doctor_prefs, hospital_prefs,
                                                doctor_utils),
                                 instance.capacities, TruncationRule())
    return u_focal, matching, log


def locality_graph_check(instance, table, spec, replicate=0):
    """Every agent whose match differs between the base and the deviant
    run is reachable from the focal in the graph of both runs' logged
    proposals."""
    asg = from_table(table)
    prefs = build_preferences(asg)
    focal = spec.focal_doctor
    base_slots = table.doctor_list(focal)
    dev_slots, _ = deviant_slots(instance, table, spec)
    iota_d, iota_h = _slot_values(instance, focal,
                                  max(len(base_slots), len(dev_slots)),
                                  replicate)
    _, m_base, log_base = patched_da(instance, asg, prefs, table.nu_d,
                                     table.nu_h, focal, base_slots,
                                     iota_d, iota_h)
    _, m_dev, log_dev = patched_da(instance, asg, prefs, table.nu_d,
                                   table.nu_h, focal, dev_slots,
                                   iota_d, iota_h)

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

    m_base, m_dev = as_sets(m_base), as_sets(m_dev)
    for d in range(instance.config.n_doctors):
        if m_base.doctor_of[d] != m_dev.doctor_of[d] and ("d", d) not in seen:
            return False
    for h in range(instance.config.n_hospitals):
        if m_base.doctors_of[h] != m_dev.doctors_of[h] and ("h", h) not in seen:
            return False
    return True


def run_stats(instance, asg, matching):
    matching = as_sets(matching)
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
            total = 0.0         # seat by seat, ascending doctor id
            for d in sorted(ds):
                total += asg.hospital_utils[h][d]
            h_loss[h] = h_rating[h] + 1.0 - total / len(ds)
    return RunStats(
        config=cfg, run_index=instance.run_index, half_width=half,
        doctor_rating=d_rating, doctor_matched=d_matched,
        doctor_utility=d_utility, doctor_loss=d_loss,
        doctor_non_bottommost=d_rating >= instance.doctor_range[0] + half,
        hospital_rating=h_rating, hospital_fill=h_fill,
        hospital_fully_matched=h_fill >= caps, hospital_loss=h_loss,
        hospital_non_bottommost=h_rating >= instance.hospital_range[0] + half)


WINDOW_BUDGET = 1 << 16


def top_in_cones(instance, count, budget=WINDOW_BUDGET):
    """Each doctor's `count` in-cone hospitals of highest private value,
    drawn as one flat value per in-cone cell, doctors chunked in id order."""
    n = instance.config.n_doctors
    lo_bound, hi_bound = instance.hospital_range
    lows = np.maximum(lo_bound, instance.doctor_ratings - instance.half_width)
    highs = np.minimum(hi_bound, instance.doctor_ratings + instance.half_width)
    i0 = np.searchsorted(instance.hospital_sorted, lows, side="left")
    widths = np.searchsorted(instance.hospital_sorted, highs, side="left") - i0
    last = instance.hospital_order.size - 1
    step = max(1, budget // max(1, int(widths.max())))
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
    keep = np.arange(d.size) - np.searchsorted(d, d) < count
    return d[keep], h[keep]


def nearest_rank(values, pct):
    v = np.sort(values)
    if v.size == 0:
        return math.nan
    idx = max(1, math.ceil(pct / 100.0 * v.size)) - 1
    return float(v[idx])


def _group_values(values, order, group_size, reducer):
    n = order.size
    n_groups = (n + group_size - 1) // group_size
    out = np.full(n_groups, np.nan)
    for g in range(n_groups):
        chunk = values[order[g * group_size:(g + 1) * group_size]]
        out[g] = reducer(chunk)
    return out


def _mean_finite(x):
    x = x[np.isfinite(x)]
    return float(x.mean()) if x.size else math.nan


def aggregate(stats, group_size=10):
    """Cross-run grouped series, one reduction call per run x group x metric."""
    cfg = stats[0].config
    per_metric_rows = {m: [] for m in ALL_METRICS}
    caps = cfg.capacities().astype(float)
    for s in stats:
        d_order = np.argsort(-s.doctor_rating, kind="stable")
        h_order = np.argsort(-s.hospital_rating, kind="stable")
        d_loss = np.where(s.doctor_matched, s.doctor_loss, np.nan)
        rows = {
            DOCTOR_MATCH_RATE: _group_values(
                s.doctor_matched.astype(float), d_order, group_size, _mean_finite),
            DOCTOR_LOSS: _group_values(d_loss, d_order, group_size, _mean_finite),
            HOSPITAL_FULL_RATE: _group_values(
                s.hospital_fully_matched.astype(float), h_order, group_size,
                _mean_finite),
            HOSPITAL_FILL_FRACTION: _group_values(
                s.hospital_fill / caps, h_order, group_size, _mean_finite),
            HOSPITAL_LOSS: _group_values(s.hospital_loss, h_order, group_size,
                                         _mean_finite),
        }
        for m, r in rows.items():
            per_metric_rows[m].append(r)

    out = {}
    for m, rows in per_metric_rows.items():
        mat = np.vstack(rows)                       # runs x groups
        n_groups = mat.shape[1]
        mean = np.array([_mean_finite(mat[:, g]) for g in range(n_groups)])
        p10 = np.empty(n_groups)
        p90 = np.empty(n_groups)
        for g in range(n_groups):
            col = mat[:, g]
            col = col[np.isfinite(col)]
            p10[g] = nearest_rank(col, 10.0)
            p90[g] = nearest_rank(col, 90.0)
        lo = np.arange(n_groups, dtype=np.int64) * group_size + 1
        hi = np.minimum(lo + group_size - 1,
                        cfg.n_doctors if m.startswith("doctor") else cfg.n_hospitals)
        out[m] = GroupedSeries(m, group_size, lo, hi, mean, p10, p90, len(stats))
    return out


def loop_deviant_slots(instance, assignment, spec):
    """deviant_slots with listed hospitals filtered out one by one."""
    if spec.kind not in KINDS and spec.kind != NULL_DEVIATION:
        raise ValueError(f"unknown deviation kind {spec.kind!r}")
    focal = spec.focal_doctor
    inst = instance
    base = assignment.doctor_list(focal)
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


def _seat_utilities(assignment, e):
    # each hospital's seat utilities, best first, from matched edges
    seats = [[] for _ in range(assignment.n_hospitals())]
    e = e[e >= 0]
    for h, u in zip(assignment.edge_h[e].tolist(), assignment.u_hosp[e].tolist()):
        seats[h].append(u)
    return [sorted(s, reverse=True) for s in seats]


def receivers_dominate(assignment, orientation, full, cut):
    """double_cut.receivers_dominate with one sorted list per hospital."""
    if orientation == DOCTORS_PROPOSE:
        return all(len(f) >= len(c) and all(fu >= cu for fu, cu in zip(f, c))
                   for f, c in zip(_seat_utilities(assignment, full),
                                   _seat_utilities(assignment, cut)))
    u = np.append(assignment.u_doc, -math.inf)     # edge -1: unmatched
    return bool(np.all(u[full] >= u[cut]))


FloorSpec = Union[None, float, Dict[int, float], Callable[[int], float]]
WindowSpec = Union[None, Sequence[Tuple[float, float]],
                   Dict[int, Sequence[Tuple[float, float]]]]


@dataclass
class Rule:
    """The truncation rule with callable and dict forms, read per proposal."""

    proposer_filter: Optional[Callable[[float], bool]] = None
    utility_floor: FloorSpec = None
    focal_target: Optional[int] = None
    forbidden_windows: WindowSpec = None

    def floor_for(self, proposer: int) -> float:
        f = self.utility_floor
        if f is None:
            return -math.inf
        if callable(f):
            return f(proposer)
        if isinstance(f, dict):
            return f.get(proposer, -math.inf)
        return float(f)

    def windows_for(self, proposer: int):
        w = self.forbidden_windows
        if w is None:
            return ()
        if isinstance(w, dict):
            return w.get(proposer, ())
        return w

    def is_trivial(self) -> bool:
        return (self.proposer_filter is None and self.utility_floor is None
                and self.focal_target is None and self.forbidden_windows is None)


class RuleCheckingState:
    """The DA state whose proposal step checks the rule before each proposal."""

    def __init__(self, proposer_prefs, proposer_ranks, proposer_slots,
                 receiver_caps, rule, proposer_utils, log):
        n_prop = len(proposer_prefs)
        self.prefs = proposer_prefs
        self.ranks = proposer_ranks
        self.slots = proposer_slots
        self.caps = receiver_caps
        self.rule = None if rule is None or rule.is_trivial() else rule
        self.utils = proposer_utils
        self.log = log
        self.pointer = [0] * n_prop
        self.held = [0] * n_prop
        self.halted = [False] * n_prop
        self.in_queue = [False] * n_prop
        self.heaps = [[] for _ in range(len(receiver_caps))]  # (-rank, proposer)

    def _settle(self, queue: deque) -> None:
        prefs, ranks, slots, caps = self.prefs, self.ranks, self.slots, self.caps
        pointer, held, halted = self.pointer, self.held, self.halted
        in_queue, heaps, rule, utils = self.in_queue, self.heaps, self.rule, self.utils
        events = None if self.log is None else self.log.events
        u = math.nan
        floor, windows, focal = -math.inf, (), None
        for p in queue:
            in_queue[p] = True
        while queue:
            p = queue.popleft()
            in_queue[p] = False
            if halted[p]:
                continue
            lst, rks = prefs[p], ranks[p]
            if utils is not None:
                ulst = utils[p]
            if rule is not None:
                floor, windows, focal = (rule.floor_for(p), rule.windows_for(p),
                                         rule.focal_target)
            while held[p] < slots[p]:
                i = pointer[p]
                if i >= len(lst):
                    halted[p] = True
                    if events is not None:
                        events.append((len(events), p, None, math.nan,
                                       da.HALT_EXHAUSTED))
                    break
                t = lst[i]
                if utils is not None:
                    u = ulst[i]
                if rule is not None:
                    stop = da.HALT_FLOOR if u < floor else None
                    if stop is None and t != focal and any(lo <= u < hi for lo, hi in windows):
                        stop = da.HALT_WINDOW
                    if stop is not None:
                        halted[p] = True
                        if events is not None:
                            events.append((len(events), p, t, u, stop))
                        break
                pointer[p] = i + 1
                rank = rks[i]
                outcome = da.REJECT
                if rank is not None:
                    heap = heaps[t]
                    if len(heap) < caps[t]:
                        heapq.heappush(heap, (-rank, p))
                        held[p] += 1
                        outcome = da.HOLD
                    elif rank < -heap[0][0]:
                        worst = heapq.heapreplace(heap, (-rank, p))[1]
                        held[p] += 1
                        held[worst] -= 1
                        if not halted[worst] and not in_queue[worst]:
                            queue.append(worst)
                            in_queue[worst] = True
                        outcome = da.DISPLACE
                if events is not None:
                    events.append((len(events), p, t, u, outcome))
                if rule is not None and t == focal:
                    halted[p] = True
                    if events is not None:
                        events.append((len(events), p, None, u, da.HALT_FOCAL))
                    break


def rule_checking_da(doctor_prefs, hospital_prefs, capacities, rule,
                     orientation=DOCTORS_PROPOSE, proposer_ratings=None):
    """The truncated DA that checks `rule` (a Rule) before each proposal.

    Returns (matching, event log, final state).
    """
    log = da.EventLog()
    if orientation == DOCTORS_PROPOSE:
        proposers = doctor_prefs
        slots, caps = [1] * len(doctor_prefs), list(capacities)
    else:
        proposers = hospital_prefs
        slots, caps = list(capacities), [1] * len(doctor_prefs)
    n_prop = len(proposers)
    allowed = [True] * n_prop
    if rule.proposer_filter is not None:
        allowed = [bool(rule.proposer_filter(float(proposer_ratings[p])))
                   for p in range(n_prop)]
    state = RuleCheckingState(proposers, proposers.ranks, slots, caps, rule,
                              proposers.utils, log)
    state._settle(deque(p for p in range(n_prop)
                        if allowed[p] and proposers[p]))
    return (_matching(state.heaps, orientation == DOCTORS_PROPOSE,
                      len(doctor_prefs), len(hospital_prefs)), log, state)


def rule_checking_double_cut(instance, scenario, prefs):
    """A double-cut scenario's run over an EdgeLists pair, excluded
    proposers' lists emptied, by the rule-checking engine; returns
    (matching, event log, final state)."""
    lists = list(prefs)
    side = 1 if scenario.orientation == HOSPITALS_PROPOSE else 0
    ratings = (instance.doctor_ratings, instance.hospital_ratings)[side]
    if scenario.exclusions:
        p = lists[side]
        lists[side] = da.EdgeLists.written(
            [([] if i in scenario.exclusions else lst) for i, lst in enumerate(p)],
            p.ranks, p.utils, p.source)
    rule = rule_for(scenario, len(lists[side]), ratings)
    return rule_checking_da(*lists, instance.capacities, rule,
                            scenario.orientation, ratings)


def rule_for(scenario, n_proposers, proposer_ratings):
    """A double-cut scenario's Rule: per-proposer floor and window dicts."""
    lo, hi = scenario.floor_band
    floors: Dict[int, float] = {}
    windows: Dict[int, Tuple[Tuple[float, float], ...]] = {}
    for p in range(n_proposers):
        rp = proposer_ratings[p]
        if lo <= rp < hi:
            floors[p] = scenario.utility_floor
            if scenario.forbidden_windows:
                windows[p] = scenario.forbidden_windows
    thr = scenario.proposer_threshold
    return Rule(
        proposer_filter=lambda rating: rating >= thr,
        utility_floor=floors if floors else None,
        focal_target=scenario.focal_id,
        forbidden_windows=windows if windows else None)


def require_int(name: str, value) -> None:
    """ConfigError unless value is an integer (a bool is not one)."""
    if isinstance(value, (bool, np.bool_)) or not isinstance(value, (int, np.integer)):
        raise ConfigError(f"{name} must be an integer, got {value!r}")


def _require_finite(name: str, value) -> None:
    if (isinstance(value, (bool, np.bool_))
            or not isinstance(value, (int, float, np.integer, np.floating))
            or not math.isfinite(value)):
        raise ConfigError(f"{name} must be a finite number, got {value!r}")


@dataclass(frozen=True)
class LegacyMarketConfig:
    """MarketConfig's fields, checks, kappa, to_dict and from_dict as they
    stood before the field table."""

    n_doctors: int
    n_hospitals: int
    capacity: Union[int, tuple] = 1
    k: int = 5
    a: float = 5.0
    alpha: Optional[float] = None
    cone_override: Optional[float] = None
    setting: str = RESIDENCY
    nu_d: float = 1.0
    nu_h: float = 1.0
    rating_shift: float = 0.0
    seed: int = 0
    runs: int = 1

    def __post_init__(self):
        for name in ("n_doctors", "n_hospitals", "k", "seed", "runs"):
            require_int(name, getattr(self, name))
        for c in (self.capacity if isinstance(self.capacity, (tuple, list, np.ndarray))
                  else (self.capacity,)):
            require_int("capacity", c)
        for name in ("a", "nu_d", "nu_h", "rating_shift", "alpha", "cone_override"):
            value = getattr(self, name)
            if value is not None or name not in ("alpha", "cone_override"):
                _require_finite(name, value)
        if self.n_doctors < 1 or self.n_hospitals < 1:
            raise ConfigError("need at least one agent on each side")
        if self.k < 1:
            raise ConfigError("k must be >= 1")
        if self.k < 2 and self.alpha is None and self.cone_override is None:
            raise ConfigError("k < 2 needs alpha or cone_override")
        if self.k > self.n_hospitals:
            raise ConfigError(
                f"k={self.k} exceeds the number of hospitals ({self.n_hospitals})")
        caps = self.capacities()
        if np.any(caps < 1):
            raise ConfigError("every capacity must be >= 1")
        if isinstance(self.capacity, (list, np.ndarray)):
            object.__setattr__(self, "capacity", tuple(int(c) for c in self.capacity))
        if self.setting not in SETTINGS:
            raise ConfigError(f"unknown setting {self.setting!r}")
        if not (0.0 <= self.nu_d <= 1.0 and 0.0 <= self.nu_h <= 1.0):
            raise ConfigError("nu_d and nu_h must lie in [0, 1]")
        if self.a <= 0:
            raise ConfigError("a must be positive")
        if self.alpha is not None and self.alpha <= 0:
            raise ConfigError("alpha must be positive")
        if self.cone_override is not None and self.cone_override <= 0:
            raise ConfigError("cone_override must be positive")
        if self.rating_shift <= -1.0:
            raise ConfigError("rating_shift must exceed -1")
        if self.runs < 1:
            raise ConfigError("runs must be >= 1")
        if not (0 <= self.seed < 2 ** 64):
            raise ConfigError("seed must be a 64-bit unsigned integer")

    def capacities(self) -> np.ndarray:
        if isinstance(self.capacity, (int, np.integer)):
            return np.full(self.n_hospitals, int(self.capacity), dtype=np.int64)
        caps = np.asarray(self.capacity, dtype=np.int64)
        if caps.shape != (self.n_hospitals,):
            raise ConfigError("capacity vector length must equal n_hospitals")
        return caps

    @property
    def kappa(self) -> int:
        caps = self.capacities()
        return int(caps[0]) if np.all(caps == caps[0]) else int(round(caps.mean()))

    def to_dict(self) -> dict:
        d = {}
        for f in fields(self):
            v = getattr(self, f.name)
            if isinstance(v, tuple):
                v = list(v)
            d[f.name] = v
        return d

    @classmethod
    def from_dict(cls, data: dict) -> "LegacyMarketConfig":
        known = {f.name for f in fields(cls)}
        unknown = set(data) - known
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        missing = {"n_doctors", "n_hospitals"} - set(data)
        if missing:
            raise ConfigError(f"missing config keys: {sorted(missing)}")
        kwargs = dict(data)
        if isinstance(kwargs.get("capacity"), list):
            kwargs["capacity"] = tuple(kwargs["capacity"])
        return cls(**kwargs)


def legacy_expand_grid(raw: dict) -> List[LegacyMarketConfig]:
    """Cross every list-valued field; n_hospitals defaults to n/kappa."""
    if not isinstance(raw, dict):
        raise ConfigError("a config must be one JSON object of MarketConfig fields")
    keys = sorted(raw)
    pools = []
    for key in keys:
        v = raw[key]
        if key == "capacity" and isinstance(v, list) and v and isinstance(v[0], list):
            pools.append([tuple(x) for x in v])     # explicit vectors
        else:
            pools.append(v if isinstance(v, list) else [v])
        if not pools[-1]:
            raise ConfigError(f"{key}: an empty list leaves no config to run")
    configs = []
    for combo in itertools.product(*pools):
        data = dict(zip(keys, combo))
        if "n_hospitals" not in data and "n_doctors" in data:
            cap = data.get("capacity", 1)
            caps = cap if isinstance(cap, tuple) else (cap,)
            for name, value in (("n_doctors", data["n_doctors"]),
                                *(("capacity", c) for c in caps)):
                require_int(name, value)
            if min(caps, default=0) < 1:
                raise ConfigError("every capacity must be >= 1")
            kappa = max(1, round(float(np.mean(caps))))
            data["n_hospitals"] = max(1, round(data["n_doctors"] / kappa))
        configs.append(LegacyMarketConfig.from_dict(data))
    return configs
