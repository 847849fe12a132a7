"""Many-to-one deferred acceptance over one edge table.

Two engines give the same run.  The round engine (_rounds) is Gale &
Shapley's simultaneous form over the table's arrays: each round every
proposer with a free slot proposes to as many of her next entries as she
has free slots, and each receiver keeps the best of those it holds and
those new, with one sort for the whole round.  When fewer than _TAIL
proposers are left free it hands them to the FIFO proposal step,
DAState._settle, on a state whose lists and held sets are read from the
round arrays on demand.  By McVitie & Wilson's (1971) order invariance both
give the same matching and the same proposals as a FIFO run from the start.

doctor_proposing_da, hospital_proposing_da and prefix_da (which the
double-cut harness calls with truncation stops) run the round engine.
truncated_state and truncated_da run the FIFO loop from the start: their
DAState can be resumed (one absent proposer inserted on a copy-on-write
overlay with `insert`, several given their lists on a plain copy with
`with_proposers`, which is how deviation probes avoid re-running DA), and
truncated_da writes the event log of proposals.  A proposer is absent
when her stop is 0; where one halts, and why, is read off the settled
state and truncation_stops.  order_invariance_check compares the two
engines.

A Matching is one int64 array, each doctor's hospital (-1: unmatched);
matching_of reads it off a settled DAState of either orientation.

Every entry point takes one input form, the two EdgeLists views that
strategy.build_preferences makes of one edge table.  A view builds its
Python lists (each proposer's list, the rank every listed receiver gives
it, her own utilities) only when they are read; the round engine reads the
table's arrays instead.  truncated_state and truncated_da also take lists
written by hand (EdgeLists.written).  Anything else is refused with
ValueError.

A truncation rule cuts each proposer's list at a point her own list
alone decides, so it is compiled into one stop index per proposer
(truncation_stops, one numpy pass over the edge table), and a truncated
run is plain DA over those prefixes.
"""

from __future__ import annotations

import functools
import heapq
import math
from collections import deque
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

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


class EventLog:
    """The proposal records of one truncated_da run, in order.  Where a
    proposer halts, and why, is read off the settled run (truncation_stops
    gives her reason)."""

    def __init__(self):
        self.events: List[Event] = []


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


def _leading(group: np.ndarray, limit) -> np.ndarray:
    # mask of the first `limit` entries of each run of equal values in
    # the sorted array `group`; `limit` is a scalar or one per entry
    at = np.arange(group.size)
    first = np.ones(group.size, dtype=bool)
    np.not_equal(group[1:], group[:-1], out=first[1:])
    return at - np.maximum.accumulate(np.where(first, at, 0)) < limit


def _ranges(starts, lengths) -> np.ndarray:
    # the concatenated aranges starts[i]:starts[i] + lengths[i]
    skip = np.cumsum(lengths) - lengths
    return np.repeat(starts - skip, lengths) + np.arange(lengths.sum())


def _split(flat: list, offsets: list) -> List[list]:
    return [flat[i:j] for i, j in zip(offsets, offsets[1:])]


class EdgeLists:
    """One side's preference lists, partners best first: lists[p], with per
    entry the rank the partner gives back (ranks[p][i], None: unranked)
    and, if not None, p's own utility (utils[p][i]).

    build_preferences makes two views of one edge table (`source`), each
    the side that proposes in orientation `side`.  A view builds its lists,
    ranks and utils from the table, each on its first read; the round
    engine, truncation_stops and proposal_counts read the table's arrays
    (`csr`) and build none of them.  EdgeLists.written holds lists given by
    hand, for a market no edge table holds; only truncated_state and
    truncated_da take those.  Treat both as read-only.
    """

    def __init__(self, source, side: Optional[str]):
        self.source = source
        self.side = side

    @classmethod
    def written(cls, lists, ranks, utils, source) -> "EdgeLists":
        """Hand-written lists; `source` is any object the pair shares."""
        edge_lists = cls(source, None)
        edge_lists.lists, edge_lists.ranks, edge_lists.utils = lists, ranks, utils
        return edge_lists

    @functools.cached_property
    def csr(self) -> Tuple[np.ndarray, ...]:
        """(offsets, owner, partner, back, own) over the view's entries:
        p's entries are offsets[p] to offsets[p + 1], best first; entry e
        is owner[e]'s, listing partner[e], who ranks her back[e] (-1:
        unranked), at her own utility own[e].  A hospital lists only the
        doctors it ranks.
        """
        t = self.source
        if self.side == DOCTORS_PROPOSE:
            offsets, partner, back, own = (t.doctor_offsets, t.edge_h,
                                           t.hospital_rank, t.u_doc)
        else:
            e = t.hospital_order[t.hospital_rank[t.hospital_order] >= 0]
            partner = t.edge_d[e]
            offsets = np.searchsorted(t.edge_h[e], np.arange(t.n_hospitals() + 1))
            back = e - t.doctor_offsets[partner]
            own = t.u_hosp[e]
        owner = np.repeat(np.arange(offsets.size - 1), np.diff(offsets))
        return offsets, owner, partner, back, own

    @functools.cached_property
    def lists(self) -> List[List[int]]:
        offsets, _, partner, _, _ = self.csr
        return _split(partner.tolist(), offsets.tolist())

    @functools.cached_property
    def ranks(self) -> List[list]:
        offsets, _, _, back, _ = self.csr
        values = back.tolist()
        if back.size and back.min() < 0:
            values = [None if r < 0 else r for r in values]
        return _split(values, offsets.tolist())

    @functools.cached_property
    def utils(self) -> List[List[float]]:
        offsets, _, _, _, own = self.csr
        return _split(own.tolist(), offsets.tolist())

    def __len__(self) -> int:
        return len(self.lists) if self.side is None else self.csr[0].size - 1

    def __getitem__(self, p):
        return self.lists[p]

    def __iter__(self):
        return iter(self.lists)


def _edge_ranks(proposer_prefs, receiver_prefs):
    # per proposer, the rank each listed receiver gives it
    source = getattr(proposer_prefs, "source", None)
    if source is None or source is not getattr(receiver_prefs, "source", None):
        raise ValueError("preferences must be build_preferences(assignment)")
    return proposer_prefs.ranks


def _table_views(doctor_prefs, hospital_prefs) -> None:
    # the round engine reads the table behind build_preferences' two views
    if not (isinstance(doctor_prefs, EdgeLists)
            and isinstance(hospital_prefs, EdgeLists)
            and doctor_prefs.side == DOCTORS_PROPOSE
            and hospital_prefs.side == HOSPITALS_PROPOSE
            and doctor_prefs.source is hospital_prefs.source):
        raise ValueError("preferences must be build_preferences(assignment)")


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
    """One DA run: its lists, slots and capacities, each proposer's stop,
    pointer and held count, and each receiver's held set.

    Proposer p proposes down prefs[p][:stop[p]] while she has a free slot;
    a stop of 0 marks her absent.  `_engine` settles every proposer, and
    `_rounds` settles its last few on a state read from its round arrays.
    `insert` adds one absent proposer to a settled run and follows the
    rejection chain she starts, on copy-on-write overlays, so this state
    stays as it was for the next insert; `with_proposers` adds several to
    a plain copy.  All run the same proposal step, `_settle`.
    The outcome does not depend on the order in which proposals are made
    (McVitie & Wilson 1971), so a settled run plus added proposers is the
    run with them present from the start.
    """

    def __init__(self, prefs, ranks, slots, caps, stop, pointer, held, heaps,
                 log: Optional[EventLog] = None):
        self.prefs, self.ranks, self.slots, self.caps = prefs, ranks, slots, caps
        self.stop = stop
        self.pointer, self.held = pointer, held
        self.heaps = heaps     # per receiver, a heap of (-rank, proposer)
        self.log = log         # reads the utilities of prefs (EdgeLists)

    def _settle(self, queue: deque) -> None:
        """Run proposals from a FIFO queue until no proposer can move."""
        prefs, ranks, slots, caps = self.prefs, self.ranks, self.slots, self.caps
        pointer, held, heaps, stop = self.pointer, self.held, self.heaps, self.stop
        events = None if self.log is None else self.log.events
        if events is not None:
            utils = prefs.utils
        waiting = set(queue)
        while queue:
            p = queue.popleft()
            waiting.discard(p)
            lst, rks, end = prefs[p], ranks[p], stop[p]
            while held[p] < slots[p]:
                i = pointer[p]
                if i >= end:
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
                        if pointer[worst] < stop[worst] and worst not in waiting:
                            queue.append(worst)
                            waiting.add(worst)
                        outcome = DISPLACE
                if events is not None:
                    u = math.nan if utils is None else utils[p][i]
                    events.append((len(events), p, t, u, outcome))

    def insert(self, proposer: int, pref_list: Sequence[int],
               rank_list: Sequence[float]) -> "DAState":
        """This state with `proposer` added and settled, as a new state.

        `proposer` is absent here.  rank_list[i] is the rank that
        pref_list[i] gives it: any number that orders it among the ranks
        that receiver already holds.  Only the agents on the rejection chain
        are copied.
        """
        self._check_absent((proposer,))
        child = DAState(_Overlay(self.prefs, {proposer: pref_list}),
                        _Overlay(self.ranks, {proposer: rank_list}),
                        self.slots, self.caps,
                        _Overlay(self.stop, {proposer: len(pref_list)}),
                        _Overlay(self.pointer), _Overlay(self.held),
                        _Overlay(self.heaps, copy_on_read=True))
        child._settle(deque([proposer]))
        return child

    def with_proposers(self, ids: Sequence[int]) -> "DAState":
        """A plain copy of this state with the absent proposers `ids` given
        their whole lists and settled.

        The copy shares no list that settling writes, so both can be
        extended or inserted into afterwards.

        Chaining `insert`s gives the same state, but each insert stacks one
        more overlay, and every later read descends through all of them.
        With 8 focals per context, the deviation probes of one n=2000
        campaign read overlays 62k times instead of 10k, and the benchmark's
        deviation-grid workload ran 11 % slower.
        """
        self._check_absent(ids)
        child = DAState(self.prefs, self.ranks, self.slots, self.caps,
                        list(self.stop), list(self.pointer), list(self.held),
                        [list(heap) for heap in self.heaps])
        for p in ids:
            child.stop[p] = len(self.prefs[p])
        child._settle(deque(p for p in ids if child.stop[p]))
        return child

    def _check_absent(self, proposers) -> None:
        # an added proposer must not have proposed yet, and a log would
        # miss the proposals made before
        if self.log is not None:
            raise ValueError("adding proposers needs a run without an event log")
        for p in proposers:
            if self.stop[p]:
                raise ValueError(f"proposer {p} is not absent")

    def touched(self) -> Tuple[set, set]:
        """The (proposers, receivers) copied by the insert that made this state.

        A proposer is touched once its pointer or held count is written, a
        receiver once its held set is read.  Only the agents on the insert's
        rejection chain are.
        """
        proposers = self.pointer.changed.keys() | self.held.changed.keys()
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
            stop: Sequence[int],
            log: Optional[EventLog] = None) -> DAState:
    n = len(proposer_prefs)
    state = DAState(proposer_prefs, proposer_ranks, proposer_slots,
                    receiver_caps, stop, [0] * n, [0] * n,
                    [[] for _ in receiver_caps], log)
    state._settle(deque(p for p in (range(n) if order is None else order)
                        if stop[p]))
    return state


class _Built(dict):
    """A per-agent list whose entries are built on first read, by `build`."""

    __slots__ = ("build",)

    def __init__(self, build):
        super().__init__()
        self.build = build

    def __missing__(self, i):
        value = self[i] = self.build(i)
        return value


# the rounds hand the proposers still free to _settle once fewer than this
# many are: a round costs about two dozen numpy calls however few propose.
# Swept over 8-256 at n=2000 and 20,000 in both orientations, 32 is within
# 10 % of the best value on every whole-list run and on all double-cut runs
# but one, whose 224 proposers finish faster when no tail is started.
_TAIL = 32


def _rounds(proposers: EdgeLists, slots: np.ndarray, caps: np.ndarray,
            stop: Optional[np.ndarray]) -> Tuple[Matching, np.ndarray]:
    """The settled run in which `proposers` propose down their lists
    (prefixes stop[p], whole lists for None): (matching, pointers), where
    proposer p proposed to exactly her first pointer[p] entries.

    Held seats are entries of the edge table.  Each round, every free
    proposer proposes to her next min(free slots, entries left) entries,
    and every receiver proposed to keeps its best caps[r] of the seats it
    holds and the new proposals: one argsort of the int64 key
    receiver * width + rank over those, then _leading.  The proposers who
    lost a seat or a proposal and have entries left are the next round's.
    """
    offsets, owner, partner, back, _ = proposers.csr
    n, n_receivers = offsets.size - 1, caps.size
    start = offsets[:-1]
    end = offsets[1:] if stop is None else start + stop
    pointer = start.copy()
    held = np.zeros(n, dtype=np.int64)
    width = int(back.max()) + 1 if back.size else 1
    key = partner * width + back      # an unranked entry is never sorted
    unranked = bool(back.size) and back.min() < 0
    touched = np.zeros(n_receivers, dtype=bool)
    seats = np.zeros(0, dtype=np.int64)
    free = np.flatnonzero(end > start)
    while free.size >= _TAIL:
        made = np.minimum(slots[free] - held[free], end[free] - pointer[free])
        new = _ranges(pointer[free], made)
        pointer[free] += made
        held[free] += made
        lost = []
        if unranked:
            lost.append(owner[new[back[new] < 0]])
            new = new[back[new] >= 0]
        touched[partner[new]] = True
        rival = touched[partner[seats]]
        touched[partner[new]] = False
        bids = np.concatenate((seats[rival], new))
        bids = bids[np.argsort(key[bids])]
        receiver = partner[bids]
        kept = _leading(receiver, caps[receiver])
        seats = np.concatenate((seats[~rival], bids[kept]))
        lost.append(owner[bids[~kept]])
        drop = np.bincount(np.concatenate(lost), minlength=n)
        held -= drop
        free = np.flatnonzero(drop)
        free = free[pointer[free] < end[free]]
    pointer -= start
    receivers, holders = partner[seats], owner[seats]
    if free.size:
        # the FIFO tail: each receiver's heap is built from its seats when
        # the tail first reads it, and only those receivers are redone
        by_receiver = seats[np.argsort(receivers, kind="stable")]
        bounds = np.searchsorted(partner[by_receiver],
                                 np.arange(n_receivers + 1)).tolist()
        seated = list(zip((-back[by_receiver]).tolist(),
                          owner[by_receiver].tolist()))

        def heap_of(r):
            heap = seated[bounds[r]:bounds[r + 1]]
            heapq.heapify(heap)
            return heap

        tail = DAState(
            _Built(lambda p: partner[offsets[p]:offsets[p + 1]].tolist()),
            _Built(lambda p: [None if r < 0 else r for r in
                              back[offsets[p]:offsets[p + 1]].tolist()]),
            slots.tolist(), caps.tolist(), (end - start).tolist(),
            pointer.tolist(), held.tolist(), _Built(heap_of))
        tail._settle(deque(free.tolist()))
        pointer = np.asarray(tail.pointer, dtype=np.int64)
        redone = np.fromiter(tail.heaps, np.int64, len(tail.heaps))
        touched[redone] = True
        keep = ~touched[receivers]
        heaps = tail.heaps.values()
        receivers = np.concatenate((receivers[keep], np.repeat(
            redone, [len(heap) for heap in heaps])))
        holders = np.concatenate((holders[keep], np.fromiter(
            (p for heap in heaps for _, p in heap), np.int64)))
    return _matching(receivers, holders, proposers.side, n, n_receivers), pointer


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
    if getattr(proposer_prefs, "side", None) != orientation:
        raise ValueError("a truncation rule needs build_preferences(assignment)")
    offsets, owner, target, _, u = proposer_prefs.csr
    n_proposers = offsets.size - 1
    pos = np.arange(owner.size) - offsets[owner]

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
    best = np.diff(offsets) * 4 + 3
    np.minimum.at(best, owner, key)
    if rule.proposer_filter is not None:
        best[~np.asarray(rule.proposer_filter, dtype=bool)] = 3
    return best >> 2, [_REASONS[c] for c in (best & 3).tolist()]


def proposal_counts(proposer_prefs: EdgeLists, pointer) -> np.ndarray:
    """Proposals each receiver got in a settled run of the proposers'
    orientation over one edge table: proposer p proposed to exactly her
    first pointer[p] entries."""
    offsets, _, partner, _, _ = proposer_prefs.csr
    table = proposer_prefs.source
    n_receivers = (table.n_hospitals() if proposer_prefs.side == DOCTORS_PROPOSE
                   else table.n_doctors())
    made = _ranges(offsets[:-1], np.asarray(pointer, dtype=np.int64))
    return np.bincount(partner[made], minlength=n_receivers)


def _matching(receivers: np.ndarray, proposers: np.ndarray, orientation: str,
              n_proposers: int, n_receivers: int) -> Matching:
    # the matching whose seats are the pairs (receivers[i], proposers[i])
    if orientation == DOCTORS_PROPOSE:
        doctor_of = np.full(n_proposers, -1, dtype=np.int64)
        doctor_of[proposers] = receivers
        return Matching(doctor_of, n_receivers)
    doctor_of = np.full(n_receivers, -1, dtype=np.int64)
    doctor_of[receivers] = proposers
    return Matching(doctor_of, n_proposers)


def matching_of(state: DAState, orientation: str) -> Matching:
    """The matching a settled run of `orientation` holds in its heaps."""
    heaps, n_receivers = state.heaps, len(state.caps)
    receivers = np.repeat(np.arange(n_receivers), [len(heap) for heap in heaps])
    proposers = np.fromiter((p for heap in heaps for _, p in heap), np.int64,
                            receivers.size)
    return _matching(receivers, proposers, orientation, len(state.slots),
                     n_receivers)


def prefix_da(doctor_prefs: EdgeLists,
              hospital_prefs: EdgeLists,
              capacities,
              orientation: str,
              stop: Optional[np.ndarray]) -> Tuple[Matching, np.ndarray]:
    """The run of `orientation` over each proposer's first stop[p] entries
    (whole lists for None), by the round engine: (matching, pointers),
    where proposer p proposed to exactly her first pointer[p] entries
    (proposal_counts reads them)."""
    _table_views(doctor_prefs, hospital_prefs)
    caps = np.asarray(capacities, dtype=np.int64)
    ones = np.ones(len(doctor_prefs), dtype=np.int64)
    if orientation == DOCTORS_PROPOSE:
        return _rounds(doctor_prefs, ones, caps, stop)
    if orientation == HOSPITALS_PROPOSE:
        return _rounds(hospital_prefs, caps, ones, stop)
    raise ValueError(f"unknown orientation {orientation!r}")


def doctor_proposing_da(doctor_prefs: EdgeLists,
                        hospital_prefs: EdgeLists,
                        capacities) -> Matching:
    """Doctor-optimal stable matching over the given preference lists."""
    return prefix_da(doctor_prefs, hospital_prefs, capacities,
                     DOCTORS_PROPOSE, None)[0]


def hospital_proposing_da(doctor_prefs: EdgeLists,
                          hospital_prefs: EdgeLists,
                          capacities) -> Matching:
    """Hospital-optimal (doctor-pessimal) stable matching."""
    return prefix_da(doctor_prefs, hospital_prefs, capacities,
                     HOSPITALS_PROPOSE, None)[0]


def truncated_state(doctor_prefs: EdgeLists,
                    hospital_prefs: EdgeLists,
                    capacities,
                    rule: Optional[TruncationRule] = None,
                    orientation: str = DOCTORS_PROPOSE,
                    order: Optional[Sequence[int]] = None,
                    log: Optional[EventLog] = None) -> DAState:
    """The settled run of one orientation by the FIFO loop, plain DA over
    each proposer's prefix under `rule` (whole lists without one), with the
    proposers first queued in `order` (by id without one); `log` gets its
    proposal records.  `DAState.insert` and `with_proposers` add a
    proposer the rule leaves out (stop 0) to a run without a log.
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
    if rule is None or rule.is_trivial():
        stop = [len(lst) for lst in proposers]
    else:
        stop = truncation_stops(proposers, rule, orientation)[0].tolist()
    return _engine(proposers, ranks, slots, caps, order, stop, log)


def truncated_da(doctor_prefs: EdgeLists,
                 hospital_prefs: EdgeLists,
                 capacities,
                 rule: TruncationRule,
                 orientation: str = DOCTORS_PROPOSE) -> Tuple[Matching, EventLog]:
    """Truncated DA run by the FIFO loop; returns the partial matching and
    its event log.

    A degenerate rule reproduces the untruncated DA.
    """
    log = EventLog()
    state = truncated_state(doctor_prefs, hospital_prefs, capacities, rule,
                            orientation, log=log)
    return matching_of(state, orientation), log


def order_invariance_check(doctor_prefs, hospital_prefs, capacities,
                           permutation: Sequence[int],
                           orientation: str = DOCTORS_PROPOSE) -> bool:
    """True iff the FIFO loop, its proposers first queued in `permutation`
    order, ends in the round engine's matching."""
    rounds, _ = prefix_da(doctor_prefs, hospital_prefs, capacities,
                          orientation, None)
    fifo = truncated_state(doctor_prefs, hospital_prefs, capacities,
                           orientation=orientation, order=permutation)
    return np.array_equal(rounds.doctor_of, matching_of(fifo, orientation).doctor_of)
