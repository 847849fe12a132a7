"""Many-to-one deferred acceptance with pluggable truncation rules.

One proposal engine drives four entry points: plain doctor-proposing DA,
plain hospital-proposing DA, the truncated runs used by the double-cut
harness, and an order-invariance checker.  Proposers are processed from a
FIFO work queue; the matching is invariant to that order, which
order_invariance_check verifies directly.  The engine's state (DAState) can
also be resumed: one more proposer is inserted into a settled run on a
copy-on-write overlay, or several are added to a plain copy of it, which is
how deviation probes avoid re-running DA.

A Matching is one int64 array, each doctor's hospital (-1: unmatched);
matching_of reads it off a settled DAState of either orientation.

Every entry point takes one input form, the two EdgeLists that
strategy.build_preferences reads off one edge table: next to each
proposer's list, the rank every listed receiver gives it and the proposer's
own utilities.  Anything else is refused with ValueError.

A truncation rule cuts each proposer's list at a point her own list
alone decides, so it is compiled into one stop index per proposer
(truncation_stops, one numpy pass over the edge table), and a truncated
run is plain DA over those prefixes.
"""

from __future__ import annotations

import heapq
import math
from collections import deque
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

HOLD = "hold"
REJECT = "reject"
DISPLACE = "displace"
HALT_FLOOR = "halt:floor"
HALT_FOCAL = "halt:focal"
HALT_WINDOW = "halt:window"
HALT_EXHAUSTED = "halt:exhausted"

DOCTORS_PROPOSE = "doctors"
HOSPITALS_PROPOSE = "hospitals"

Event = Tuple[int, int, Optional[int], float, str]  # step, proposer, target, utility, outcome


@dataclass
class EventLog:
    """The records of one truncated_da run, in order: each proposal, and a
    halt (target None, reason halt_reasons[proposer]) when a proposer with
    a free slot runs out of her prefix."""

    orientation: str
    events: List[Event] = field(default_factory=list)
    halt_reasons: Optional[Sequence[str]] = field(default=None, repr=False)


@dataclass(eq=False)      # compare doctor_of with np.array_equal
class Matching:
    """doctor_of[d] is doctor d's hospital, -1 when she is unmatched."""

    doctor_of: np.ndarray       # int64
    n_hospitals: int

    def fills(self) -> np.ndarray:
        """Doctors held per hospital."""
        held = self.doctor_of[self.doctor_of >= 0]
        return np.bincount(held, minlength=self.n_hospitals)

    def validate(self, capacities) -> None:
        """Raise on a hospital id out of range or a hospital over capacity.

        InterviewAssignment.matched_edges checks edge membership.
        """
        h = self.doctor_of
        if h.size and (h.min() < -1 or h.max() >= self.n_hospitals):
            raise ValueError(f"hospital ids must lie in [-1, {self.n_hospitals})")
        over = np.flatnonzero(self.fills() > np.asarray(capacities))
        if over.size:
            raise ValueError(f"hospital {over[0]} over capacity")

    def key(self) -> tuple:
        """doctor_of as a tuple, enumerate_stable's form."""
        return tuple(self.doctor_of.tolist())


@dataclass
class TruncationRule:
    """Where each proposer's list is cut (truncation_stops).

    proposer_filter: bool per proposer; those it leaves out never propose.
    utility_floor: least own utility a proposer proposes at.
    focal_target: receiver id whose proposal is the proposer's last.
    forbidden_windows: half-open [lo, hi) own-utility intervals that stop
        her, except at the focal target; lo >= hi exempts a proposer.
    Floors and window bounds are scalars or arrays indexed by proposer.
    """

    proposer_filter: Optional[np.ndarray] = None
    utility_floor: Optional[np.ndarray] = None
    focal_target: Optional[int] = None
    forbidden_windows: Optional[Sequence[Tuple[np.ndarray, np.ndarray]]] = None

    def is_trivial(self) -> bool:
        return (self.proposer_filter is None and self.utility_floor is None
                and self.focal_target is None and not self.forbidden_windows)


class EdgeLists(list):
    """One side's preference lists, partners best first, with per entry
    the rank the partner gives back (ranks[p][i], None: unranked) and, if
    not None, p's own utility (utils[p][i]).

    The DA entry points take a pair of them that share a `source` (the
    table they were read from, as build_preferences returns them), and
    refuse anything else.  Treat as read-only: list(x) is a plain list,
    which no entry point accepts.
    """

    def __init__(self, lists, ranks, utils, source):
        super().__init__(lists)
        self.ranks = ranks
        self.utils = utils
        self.source = source


def _edge_ranks(proposer_prefs, receiver_prefs):
    # per proposer, the rank each listed receiver gives it
    source = getattr(proposer_prefs, "source", None)
    if source is None or source is not getattr(receiver_prefs, "source", None):
        raise ValueError("preferences must be build_preferences(assignment)")
    return proposer_prefs.ranks


class _Overlay:
    """Copy-on-write view of a per-agent list: writes never reach `base`.

    With copy_on_read, reading an entry stores a private copy of it first,
    for entries (the receivers' heaps) that the proposal step mutates in
    place.
    """

    __slots__ = ("base", "changed", "copy_on_read")

    def __init__(self, base, changed=None, copy_on_read=False):
        self.base = base
        self.changed = {} if changed is None else changed
        self.copy_on_read = copy_on_read

    def __getitem__(self, i):
        if i in self.changed:
            return self.changed[i]
        value = self.base[i]
        if self.copy_on_read:
            value = self.changed[i] = list(value)
        return value

    def __setitem__(self, i, value):
        self.changed[i] = value

    def __iter__(self):
        changed = self.changed
        return (changed.get(i, v) for i, v in enumerate(self.base))


class DAState:
    """Proposers' pointers and receivers' held sets of one DA run.

    `_engine` settles every proposer.  `insert` then adds one more proposer
    and follows the rejection chain it starts, on copy-on-write overlays, so
    this state stays as it was for the next insert; `with_proposers` adds
    several to a plain copy.  All run the same proposal step, `_settle`.
    The outcome does not depend on the order in which proposals are made
    (McVitie & Wilson 1971), so a settled run plus added proposers is the
    run with them present from the start.
    """

    def __init__(self, proposer_prefs, proposer_ranks, proposer_slots,
                 receiver_caps, stop: Optional[Sequence[int]] = None,
                 log: Optional[EventLog] = None):
        n_prop = len(proposer_prefs)
        self.prefs = proposer_prefs
        self.ranks = proposer_ranks
        self.slots = proposer_slots
        self.caps = receiver_caps
        self.stop = stop       # each proposer proposes to prefs[p][:stop[p]]
        self.log = log         # reads the utilities of prefs (EdgeLists)
        self.pointer = [0] * n_prop
        self.held = [0] * n_prop
        self.halted = [False] * n_prop
        self.in_queue = [False] * n_prop
        self.heaps: list = [[] for _ in range(len(receiver_caps))]  # (-rank, proposer)

    def _settle(self, queue: deque) -> None:
        """Run proposals from a FIFO queue until no proposer can move."""
        prefs, ranks, slots, caps = self.prefs, self.ranks, self.slots, self.caps
        pointer, held, halted = self.pointer, self.held, self.halted
        in_queue, heaps, stop = self.in_queue, self.heaps, self.stop
        events = None if self.log is None else self.log.events
        if events is not None:
            utils, reasons = prefs.utils, self.log.halt_reasons
        for p in queue:
            in_queue[p] = True
        while queue:
            p = queue.popleft()
            in_queue[p] = False
            if halted[p]:
                continue
            lst, rks = prefs[p], ranks[p]
            end = len(lst) if stop is None else stop[p]
            while held[p] < slots[p]:
                i = pointer[p]
                if i >= end:
                    halted[p] = True
                    if events is not None:
                        events.append((len(events), p, None, math.nan, reasons[p]))
                    break
                t = lst[i]
                pointer[p] = i + 1
                rank = rks[i]
                outcome = REJECT
                if rank is not None:
                    heap = heaps[t]
                    if len(heap) < caps[t]:
                        heapq.heappush(heap, (-rank, p))
                        held[p] += 1
                        outcome = HOLD
                    elif rank < -heap[0][0]:
                        worst = heapq.heapreplace(heap, (-rank, p))[1]
                        held[p] += 1
                        held[worst] -= 1
                        if not halted[worst] and not in_queue[worst]:
                            queue.append(worst)
                            in_queue[worst] = True
                        outcome = DISPLACE
                if events is not None:
                    u = math.nan if utils is None else utils[p][i]
                    events.append((len(events), p, t, u, outcome))

    def insert(self, proposer: int, pref_list: Sequence[int],
               rank_list: Sequence[float]) -> "DAState":
        """This state with `proposer` added and settled, as a new state.

        `proposer` has an empty list here.  rank_list[i] is the rank that
        pref_list[i] gives it: any number that orders it among the ranks
        that receiver already holds.  Only the agents on the rejection chain
        are copied.
        """
        self._check_absent((proposer,))
        child = DAState.__new__(DAState)
        child.prefs = _Overlay(self.prefs, {proposer: pref_list})
        child.ranks = _Overlay(self.ranks, {proposer: rank_list})
        child.slots, child.caps = self.slots, self.caps
        child.stop = child.log = None
        child.pointer, child.held, child.halted, child.in_queue = (
            _Overlay(self.pointer), _Overlay(self.held),
            _Overlay(self.halted), _Overlay(self.in_queue))
        child.heaps = _Overlay(self.heaps, copy_on_read=True)
        child._settle(deque([proposer]))
        return child

    def with_proposers(self, lists: Dict[int, Tuple[Sequence[int],
                                                    Sequence[float]]]
                       ) -> "DAState":
        """A plain copy of this state with more proposers added and settled.

        lists[p] is (pref_list, rank_list) as for `insert`, for proposers
        whose lists are empty here.  The copy shares no list that settling
        writes, so both can be extended or inserted into afterwards.  A
        proposer added with an empty list is not queued, as `_engine` does
        not queue one.

        Chaining `insert`s gives the same state, but each insert stacks one
        more overlay, and every later read descends through all of them.
        With 8 focals per context, the deviation probes of one n=2000
        campaign read overlays 62k times instead of 10k, and the benchmark's
        deviation-grid workload ran 11 % slower.
        """
        self._check_absent(lists)
        child = DAState.__new__(DAState)
        child.prefs, child.ranks = list(self.prefs), list(self.ranks)
        child.slots, child.caps = self.slots, self.caps
        child.stop = child.log = None
        child.pointer, child.held = list(self.pointer), list(self.held)
        child.halted, child.in_queue = list(self.halted), list(self.in_queue)
        child.heaps = [list(heap) for heap in self.heaps]
        for p, (pref_list, rank_list) in lists.items():
            child.prefs[p], child.ranks[p] = pref_list, rank_list
        child._settle(deque(p for p, (pref_list, _) in lists.items() if pref_list))
        return child

    def _check_absent(self, proposers) -> None:
        # a resumed run has no stops or log to resume, and an added
        # proposer must not have proposed yet
        if self.stop is not None or self.log is not None:
            raise ValueError("adding proposers needs a run without truncation "
                             "or event log")
        for p in proposers:
            if self.prefs[p]:
                raise ValueError(f"proposer {p} already has a list")

    def touched(self) -> Tuple[set, set]:
        """The (proposers, receivers) copied by the insert that made this state.

        A proposer is touched once its pointer, held count or halt flag is
        written, a receiver once its held set is read.  Only the agents on
        the insert's rejection chain are.
        """
        proposers = (self.pointer.changed.keys() | self.held.changed.keys()
                     | self.halted.changed.keys())
        return proposers, set(self.heaps.changed)

    def partner(self, proposer: int) -> Optional[int]:
        """The receiver a one-slot proposer holds, or None."""
        if not self.held[proposer]:
            return None
        return self.prefs[proposer][self.pointer[proposer] - 1]


def _engine(proposer_prefs: List[List[int]],
            proposer_ranks: List[List[Optional[float]]],
            proposer_slots: Sequence[int],
            receiver_caps: Sequence[int],
            order: Optional[Sequence[int]],
            stop: Optional[Sequence[int]] = None,
            log: Optional[EventLog] = None) -> DAState:
    state = DAState(proposer_prefs, proposer_ranks, proposer_slots,
                    receiver_caps, stop, log)
    start = range(len(proposer_prefs)) if order is None else order
    ends = proposer_prefs if stop is None else stop
    state._settle(deque(p for p in start if ends[p]))
    return state


def _entries(table, orientation: str):
    # (proposer, position in her list, receiver, her utility) per list entry;
    # a hospital lists only the edges it ranks
    if orientation == DOCTORS_PROPOSE:
        owner = table.edge_d
        return (owner, np.arange(owner.size) - table.doctor_offsets[owner],
                table.edge_h, table.u_doc)
    e = np.flatnonzero(table.hospital_rank >= 0)
    return table.edge_h[e], table.hospital_rank[e], table.edge_d[e], table.u_hosp[e]


# by priority at one stop: a focal halt comes an entry earlier, and the
# floor is checked before the windows
_REASONS = (HALT_FOCAL, HALT_FLOOR, HALT_WINDOW, HALT_EXHAUSTED)


def truncation_stops(proposer_prefs: EdgeLists, rule: TruncationRule,
                     orientation: str) -> Tuple[np.ndarray, List[str]]:
    """Each proposer's stop index under `rule`, and why she halts there.

    She stops at the earliest of her first entry below her floor (her list
    runs best first), her first entry inside a forbidden window that is not
    the focal target, and the entry after it; else at her list's end.
    """
    table, n_proposers = proposer_prefs.source, len(proposer_prefs)
    if not hasattr(table, "edge_d"):
        raise ValueError("a truncation rule needs build_preferences(assignment)")
    owner, pos, target, u = _entries(table, orientation)

    def at_entries(value):
        # a scalar or per-proposer value, read at each entry's proposer
        return np.broadcast_to(np.asarray(value, dtype=float), (n_proposers,))[owner]

    floor = -math.inf if rule.utility_floor is None else rule.utility_floor
    below = u < at_entries(floor)
    inside = np.zeros(u.shape, dtype=bool)
    for lo, hi in rule.forbidden_windows or ():
        inside |= (at_entries(lo) <= u) & (u < at_entries(hi))
    focal = target == rule.focal_target      # all False for None
    # stop * 4 + reason code; the least one per proposer wins
    none = np.iinfo(np.int64).max
    key = np.where(below, pos * 4 + 1, np.where(inside & ~focal, pos * 4 + 2, none))
    key = np.minimum(key, np.where(focal, pos * 4 + 4, none))
    best = np.bincount(owner, minlength=n_proposers) * 4 + 3
    np.minimum.at(best, owner, key)
    if rule.proposer_filter is not None:
        best[~np.asarray(rule.proposer_filter, dtype=bool)] = 3
    return best >> 2, [_REASONS[c] for c in (best & 3).tolist()]


def proposal_counts(state: DAState, orientation: str) -> np.ndarray:
    """Proposals each receiver got in a settled run over one edge table:
    proposer p proposed to exactly prefs[p][:pointer[p]]."""
    owner, pos, target, _ = _entries(state.prefs.source, orientation)
    made = pos < np.asarray(state.pointer)[owner]
    return np.bincount(target[made], minlength=len(state.caps))


def matching_of(state: DAState, orientation: str) -> Matching:
    """The matching a settled run of `orientation` holds in its heaps."""
    heaps, n_receivers = state.heaps, len(state.caps)
    receivers = np.repeat(np.arange(n_receivers), [len(heap) for heap in heaps])
    proposers = np.fromiter((p for heap in heaps for _, p in heap), np.int64,
                            receivers.size)
    if orientation == DOCTORS_PROPOSE:
        doctor_of = np.full(len(state.slots), -1, dtype=np.int64)
        doctor_of[proposers] = receivers
        return Matching(doctor_of, n_receivers)
    doctor_of = np.full(n_receivers, -1, dtype=np.int64)
    doctor_of[receivers] = proposers
    return Matching(doctor_of, len(state.slots))


def doctor_proposing_da(doctor_prefs: EdgeLists,
                        hospital_prefs: EdgeLists,
                        capacities,
                        order: Optional[Sequence[int]] = None) -> Matching:
    """Doctor-optimal stable matching over the given preference lists."""
    return matching_of(truncated_state(doctor_prefs, hospital_prefs, capacities,
                                       order=order),
                       DOCTORS_PROPOSE)


def hospital_proposing_da(doctor_prefs: EdgeLists,
                          hospital_prefs: EdgeLists,
                          capacities,
                          order: Optional[Sequence[int]] = None) -> Matching:
    """Hospital-optimal (doctor-pessimal) stable matching."""
    return matching_of(truncated_state(doctor_prefs, hospital_prefs, capacities,
                                       orientation=HOSPITALS_PROPOSE,
                                       order=order),
                       HOSPITALS_PROPOSE)


def truncated_state(doctor_prefs: EdgeLists,
                    hospital_prefs: EdgeLists,
                    capacities,
                    rule: Optional[TruncationRule] = None,
                    orientation: str = DOCTORS_PROPOSE,
                    order: Optional[Sequence[int]] = None,
                    log: Optional[EventLog] = None) -> DAState:
    """The settled run of one orientation, plain DA over each proposer's
    prefix under `rule` (whole lists without one); `log` gets its records.
    `DAState.insert` extends a doctor-proposing one.
    """
    if orientation == DOCTORS_PROPOSE:
        proposers, receivers = doctor_prefs, hospital_prefs
        slots, caps = [1] * len(doctor_prefs), list(capacities)
    elif orientation == HOSPITALS_PROPOSE:
        proposers, receivers = hospital_prefs, doctor_prefs
        slots, caps = list(capacities), [1] * len(doctor_prefs)
    else:
        raise ValueError(f"unknown orientation {orientation!r}")
    ranks = _edge_ranks(proposers, receivers)
    stop, reasons = None, [HALT_EXHAUSTED] * len(proposers)
    if rule is not None and not rule.is_trivial():
        stop, reasons = truncation_stops(proposers, rule, orientation)
        stop = stop.tolist()
    if log is not None:
        log.halt_reasons = reasons
    return _engine(proposers, ranks, slots, caps, order, stop, log)


def truncated_da(doctor_prefs: EdgeLists,
                 hospital_prefs: EdgeLists,
                 capacities,
                 rule: TruncationRule,
                 orientation: str = DOCTORS_PROPOSE) -> Tuple[Matching, EventLog]:
    """Truncated DA run; returns the partial matching and its event log.

    A degenerate rule reproduces the untruncated DA.
    """
    log = EventLog(orientation)
    state = truncated_state(doctor_prefs, hospital_prefs, capacities, rule,
                            orientation, log=log)
    return matching_of(state, orientation), log


def order_invariance_check(doctor_prefs, hospital_prefs, capacities,
                           permutation: Sequence[int],
                           orientation: str = DOCTORS_PROPOSE) -> bool:
    """True iff processing proposers in `permutation` order changes nothing."""
    run = doctor_proposing_da if orientation == DOCTORS_PROPOSE else hospital_proposing_da
    canonical = run(doctor_prefs, hospital_prefs, capacities)
    permuted = run(doctor_prefs, hospital_prefs, capacities, order=permutation)
    return np.array_equal(canonical.doctor_of, permuted.doctor_of)
