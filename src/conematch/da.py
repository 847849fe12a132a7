"""Many-to-one deferred acceptance over one edge table.

Two engines give the same run.  The round engine (_rounds) is Gale &
Shapley's simultaneous form over the table's arrays: each round every
proposer with a free slot proposes to as many of her next entries as she
has free slots, passing over those whose receiver is full and holds only
seats it ranks above her, and each receiver keeps the best of those it
holds and those new, with one sort for the whole round, until no proposer
is left free.  The FIFO loop (DAState._settle) makes one proposal at a
time from a queue.  By McVitie & Wilson's (1971) order invariance both
give the same matching and the same proposals: a skipped entry is a
proposal made and refused at once.

batch_da runs one orientation in several markets by one round-engine
call: their edge tables, joined with offset agent ids, form one market
whose run is each market's own run side by side.  It hands back each
market's matching, pointers and matched table edges; the campaign runner
and the double-cut harness call it once per orientation for all the
configs of a run.  prefix_da (a batch of one),
doctor_proposing_da and hospital_proposing_da run it too, and so does
round_state, which builds a DAState from its seats: the deviation probes'
shared run.  truncated_state and truncated_da run the
FIFO loop from the start, and truncated_da writes the event log of
proposals.  A DAState of either can be resumed by the FIFO loop (one
absent proposer inserted on a copy-on-write overlay with `insert`,
several given their lists on a plain copy with `with_proposers`, which
is how deviation probes avoid re-running DA).  A proposer is absent
when her stop is 0, and halts where the settled state leaves her at her
stop with a slot free.  order_invariance_check compares the two engines.

A Matching is one int64 array, each doctor's hospital (-1: unmatched);
matching_of reads it off a settled DAState of either orientation.

Every entry point takes one input form, the two EdgeLists views that
strategy.build_preferences makes of one edge table.  A view builds its
Python lists (each proposer's list, the rank every listed receiver gives
it, her own utilities) only when they are read; the round engine reads the
table's arrays instead.  Anything else is refused with ValueError.

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

DOCTORS_PROPOSE = "doctors"
HOSPITALS_PROPOSE = "hospitals"

Event = Tuple[int, int, int, float, str]  # step, proposer, target, utility, outcome


class EventLog:
    """The proposal records of one truncated_da run, in order.  Where a
    proposer halts is read off the settled run: at her stop with a slot
    free."""

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


def _positions(group: np.ndarray) -> np.ndarray:
    # each entry's place in its run of equal values in the sorted `group`
    at = np.arange(group.size)
    first = np.ones(group.size, dtype=bool)
    np.not_equal(group[1:], group[:-1], out=first[1:])
    return at - np.maximum.accumulate(np.where(first, at, 0))


def _leading(group: np.ndarray, limit) -> np.ndarray:
    # mask of the first `limit` entries of each run of equal values in
    # the sorted array `group`; `limit` is a scalar or one per entry
    return _positions(group) < limit


def _ranges(starts, lengths) -> np.ndarray:
    # the concatenated aranges starts[i]:starts[i] + lengths[i]
    skip = np.cumsum(lengths) - lengths
    return np.repeat(starts - skip, lengths) + np.arange(lengths.sum())


def _split(flat: list, offsets: list) -> List[list]:
    return [flat[i:j] for i, j in zip(offsets, offsets[1:])]


class EdgeLists:
    """One side's preference lists, partners best first: lists[p], with per
    entry the rank the partner gives back (ranks[p][i], None: unranked)
    and p's own utility (utils[p][i]).

    build_preferences makes two views of one edge table (`source`), each
    the side that proposes in orientation `side`.  A view builds its lists,
    ranks and utils from the table, each on its first read; the round
    engine, truncation_stops and proposal_counts read the table's arrays
    (`csr`) and build none of them.  Treat a view as read-only.
    """

    def __init__(self, source, side: str):
        self.source = source
        self.side = side

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
        return self.csr[0].size - 1

    def __getitem__(self, p):
        return self.lists[p]

    def __iter__(self):
        return iter(self.lists)


def _table_views(doctor_prefs, hospital_prefs) -> None:
    # every entry point reads the table behind build_preferences' two views
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
    a stop of 0 marks her absent.  `_engine` settles every proposer by
    the FIFO loop, or round_state builds the state from a round engine
    run's seats.  `insert` adds one absent proposer to a settled run and
    follows the rejection chain she starts, on copy-on-write overlays, so
    this state stays as it was for the next insert; `with_proposers` adds
    several to a plain copy.  Both run the FIFO proposal step, `_settle`.
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
                    events.append((len(events), p, t, utils[p][i], outcome))

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
        deviation-grid workload ran 11 % slower.  Copying only what the
        added lists change (settled on overlays, then written into this
        state's lists and undone for the next focal) showed no gain: at
        n=2000 the plain copy is about 50 of a call's 90 us, and
        deviation-grid's wall_ref median moved from 0.1707 to 0.1690, inside
        the quartiles (0.1671-0.1738), winning 7 of 10 alternating pairs.
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
        # an added proposer must not have proposed yet
        for p in proposers:
            if self.stop[p]:
                raise ValueError(f"proposer {p} is not absent")

    def touched(self) -> Tuple[set, set]:
        """The (proposers, receivers) copied by the insert that made this state.

        A proposer is touched once the insert sets its pointer or held
        count, a receiver once its held set is read.  Only the agents on
        the insert's rejection chain are.
        """
        proposers = self.pointer.changed.keys() | self.held.changed.keys()
        return proposers, set(self.heaps.changed)

    def partner(self, proposer: int) -> Optional[int]:
        """The receiver a one-slot proposer holds, or None."""
        if not self.held[proposer]:
            return None
        return self.prefs[proposer][self.pointer[proposer] - 1]


def _engine(doctor_prefs: EdgeLists,
            hospital_prefs: EdgeLists,
            capacities,
            rule: Optional[TruncationRule],
            orientation: str,
            log: Optional[EventLog]) -> DAState:
    # every FIFO run: truncated_state's, and truncated_da's with its log
    _table_views(doctor_prefs, hospital_prefs)
    if orientation == DOCTORS_PROPOSE:
        proposers = doctor_prefs
        slots, caps = [1] * len(doctor_prefs), list(capacities)
    elif orientation == HOSPITALS_PROPOSE:
        proposers = hospital_prefs
        slots, caps = list(capacities), [1] * len(doctor_prefs)
    else:
        raise ValueError(f"unknown orientation {orientation!r}")
    stop = truncation_stops(proposers, rule or TruncationRule()).tolist()
    n = len(proposers)
    state = DAState(proposers, proposers.ranks, slots, caps, stop, [0] * n,
                    [0] * n, [[] for _ in caps], log)
    state._settle(deque(p for p in range(n) if stop[p]))
    return state


# entries a free proposer looks at beyond her free slots, from round 2 on;
# on the seed-42 n=2000 markets the rounds stop falling at 8 (4 leaves up
# to 6 more, 16 and 32 save at most one), and a wider window lengthens
# each round's arrays
_LOOKAHEAD = 8


def _rounds(start: np.ndarray, end: np.ndarray, owner: np.ndarray,
            partner: np.ndarray, back: np.ndarray, slots: np.ndarray,
            caps: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """The settled run in which proposer p proposes down her entries
    start[p] to end[p], best first: (seats, pointer), the entries held at
    the end and each proposer's pointer, where p proposed to exactly the
    entries start[p] to pointer[p].

    Entry e is owner[e]'s, listing receiver partner[e], who ranks her
    back[e] (-1: unranked); p has slots[p] slots and receiver r caps[r]
    seats (EdgeLists.csr's arrays, or batch_da's join of several).
    A receiver's bar is the rank of its worst seat once it is full, the
    rank width before; it only improves as DA runs, so a receiver refuses,
    now and at any later time, a proposal whose rank is not below its bar
    (an unranked one, -1, read as uint64, never is).  Each round, every
    free proposer (a free slot and entries left) looks at her next
    free-slots entries, plus _LOOKAHEAD from round 2 on (in round 1 no
    receiver is full), cut at `end`, and proposes to the first of them
    that lie below their receiver's bar, up to her free slots.  Her
    pointer passes every entry she skipped, as making those proposals and
    losing them at once would.  Every receiver proposed to keeps its best
    caps[r] of the seats it holds and the new proposals: one argsort of
    the int64 key receiver * width + rank over those, then _positions; the
    seat at place caps[r] - 1, in a receiver that fills or stays full,
    sets its bar.  A proposer who found fewer entries below a bar than
    free slots stays free.  The loop ends: a free proposer's pointer
    passes at least one entry a round, never goes back and stops at `end`.
    By order invariance the matching, the pointers and the proposals each
    receiver gets are the FIFO loop's.
    """
    n, n_receivers = start.size, caps.size
    pointer = start.copy()
    held = np.zeros(n, dtype=np.int64)
    width = int(back.max()) + 1 if back.size else 1
    key = np.multiply(partner, width, dtype=np.int64)
    key += back                       # only ranked entries are sorted
    rank = np.asarray(back, np.int64).view(np.uint64)   # -1: above any bar
    bar = np.full(n_receivers, width, dtype=np.uint64)
    touched = np.zeros(n_receivers, dtype=bool)
    seats = np.zeros(0, dtype=np.int64)
    ahead = 0                         # no receiver is full in round 1
    while True:
        free = np.flatnonzero((held < slots) & (pointer < end))
        if not free.size:
            break
        at = pointer[free]
        want = slots[free] - held[free]
        size = np.minimum(want + ahead, end[free] - at)
        last = np.cumsum(size)
        first = last - size           # each window's start in `look`
        look = np.repeat(at - first, size) + np.arange(last[-1])
        viable = rank[look] < bar[partner[look]]
        seen = np.zeros(look.size + 1, dtype=np.int64)
        np.cumsum(viable, out=seen[1:])       # viable entries before each
        base = seen[first]
        goal = base + want
        new = look[viable & (seen[1:] <= np.repeat(goal, size))]
        pointer[free] = at + np.minimum(np.searchsorted(seen, goal) - first,
                                        size)
        held[free] += np.minimum(seen[last], goal) - base
        to = partner[new]
        touched[to] = True
        rival = touched[partner[seats]]
        touched[to] = False
        bids = np.concatenate((seats[rival], new))
        bids = bids[np.argsort(key[bids])]
        receiver = partner[bids]
        place = _positions(receiver)
        cap = caps[receiver]
        worst = bids[place == cap - 1]
        bar[partner[worst]] = rank[worst]
        kept = place < cap
        seats = np.concatenate((seats[~rival], bids[kept]))
        held -= np.bincount(owner[bids[~kept]], minlength=n)
        ahead = _LOOKAHEAD
    return seats, pointer


@dataclass(eq=False)
class DARun:
    """One market's settled run out of batch_da: its matching, each
    proposer's pointer (she proposed to exactly her first pointer[p]
    entries; proposal_counts reads them) and each doctor's matched edge of
    the table (-1: unmatched), which InterviewAssignment.matched_edges
    would give."""

    matching: Matching
    pointer: np.ndarray
    matched: np.ndarray


def _join(arrays, bases=None, dtype=np.int64) -> np.ndarray:
    # the arrays end to end, each plus its base (0 for None); one array
    # with base 0 as it is
    if bases is None:
        bases = [0] * len(arrays)
    if len(arrays) == 1 and not bases[0]:
        return arrays[0]
    out = np.empty(sum(a.size for a in arrays), dtype=dtype)
    at = 0
    for a, base in zip(arrays, bases):
        np.add(a, base, out=out[at:at + a.size])
        at += a.size
    return out


def batch_da(markets, orientation: str) -> List[DARun]:
    """The run of `orientation` in each market, by one round-engine call.

    A market is (doctor_prefs, hospital_prefs, capacities, stop), which
    prefix_da takes.  The markets' entries, end to end with their proposer,
    receiver and entry ids offset, form one market in which no proposal
    crosses from one market to another, so its run is each market's own
    run side by side, round by round: the same matchings, pointers and
    proposals per receiver as a prefix_da call per market.  Ids are joined
    as int32 where they fit.  The seats are then sorted, which groups them
    by market, and read back in each market's own ids: on the doctor side
    a seat is a table edge, and on the hospital side the entry of the
    doctor's list that its back rank points to.  A batch of one joins
    nothing.
    """
    if orientation not in (DOCTORS_PROPOSE, HOSPITALS_PROPOSE):
        raise ValueError(f"unknown orientation {orientation!r}")
    hospitals_propose = orientation == HOSPITALS_PROPOSE
    csrs, tables, starts, ends, slots, caps = [], [], [], [], [], []
    for doctor_prefs, hospital_prefs, capacities, stop in markets:
        _table_views(doctor_prefs, hospital_prefs)
        csr = (hospital_prefs if hospitals_propose else doctor_prefs).csr
        capacities = np.asarray(capacities, dtype=np.int64)
        ones = np.ones(doctor_prefs.source.n_doctors(), dtype=np.int64)
        csrs.append(csr)
        tables.append(doctor_prefs.source)
        starts.append(csr[0][:-1])
        ends.append(csr[0][1:] if stop is None else csr[0][:-1] + stop)
        slots.append(capacities if hospitals_propose else ones)
        caps.append(ones if hospitals_propose else capacities)
    proposer_base = np.cumsum([0] + [a.size for a in slots]).tolist()
    receiver_base = np.cumsum([0] + [a.size for a in caps]).tolist()
    entry_base = np.cumsum([0] + [csr[1].size for csr in csrs]).tolist()
    ids = (np.int32 if max(proposer_base[-1], receiver_base[-1],
                           entry_base[-1]) < 2 ** 31 else np.int64)
    start = _join(starts, entry_base)
    seats, pointer = _rounds(
        start, _join(ends, entry_base),
        _join([csr[1] for csr in csrs], proposer_base, ids),
        _join([csr[2] for csr in csrs], receiver_base, ids),
        _join([csr[3] for csr in csrs]), _join(slots), _join(caps))
    pointer -= start
    seats.sort()
    cuts = np.searchsorted(seats, entry_base).tolist()
    runs = []
    for m, ((_, owner, partner, back, _), table) in enumerate(zip(csrs, tables)):
        held = seats[cuts[m]:cuts[m + 1]] - entry_base[m]
        if hospitals_propose:
            doctors, hospitals = partner[held], owner[held]
            edges = table.doctor_offsets[doctors] + back[held]
        else:
            doctors, hospitals, edges = owner[held], partner[held], held
        matched = np.full(table.n_doctors(), -1, dtype=np.int64)
        matched[doctors] = edges
        runs.append(DARun(
            _matching(doctors, hospitals, table.n_doctors(), table.n_hospitals()),
            pointer[proposer_base[m]:proposer_base[m + 1]], matched))
    return runs


def truncation_stops(proposer_prefs: EdgeLists,
                     rule: TruncationRule) -> np.ndarray:
    """Each proposer's stop index under `rule` (0: she never proposes).

    She stops at the earliest of her first entry below her floor (her list
    runs best first), her first entry inside a forbidden window that is not
    the focal target, and the entry after it; else at her list's end.
    """
    if not isinstance(proposer_prefs, EdgeLists):
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
    # the stop each entry sets, if any: itself below the floor or in a
    # window off the focal, the entry after it at the focal
    end = np.where(below | (inside & ~focal), pos,
                   np.where(focal, pos + 1, np.iinfo(np.int64).max))
    stop = np.diff(offsets)
    np.minimum.at(stop, owner, end)
    if rule.proposer_filter is not None:
        stop[~np.asarray(rule.proposer_filter, dtype=bool)] = 0
    return stop


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


def _matching(doctors: np.ndarray, hospitals: np.ndarray, n_doctors: int,
              n_hospitals: int) -> Matching:
    # the matching whose pairs are (doctors[i], hospitals[i])
    doctor_of = np.full(n_doctors, -1, dtype=np.int64)
    doctor_of[doctors] = hospitals
    return Matching(doctor_of, n_hospitals)


def matching_of(state: DAState, orientation: str) -> Matching:
    """The matching a settled run of `orientation` holds in its heaps."""
    heaps, n_receivers = state.heaps, len(state.caps)
    receivers = np.repeat(np.arange(n_receivers), [len(heap) for heap in heaps])
    proposers = np.fromiter((p for heap in heaps for _, p in heap), np.int64,
                            receivers.size)
    if orientation == DOCTORS_PROPOSE:
        return _matching(proposers, receivers, len(state.slots), n_receivers)
    return _matching(receivers, proposers, n_receivers, len(state.slots))


def prefix_da(doctor_prefs: EdgeLists,
              hospital_prefs: EdgeLists,
              capacities,
              orientation: str,
              stop: Optional[np.ndarray]) -> Tuple[Matching, np.ndarray]:
    """The run of `orientation` over each proposer's first stop[p] entries
    (whole lists for None), by the round engine: (matching, pointers),
    where proposer p proposed to exactly her first pointer[p] entries
    (proposal_counts reads them).  A batch_da of one market."""
    run, = batch_da([(doctor_prefs, hospital_prefs, capacities, stop)],
                    orientation)
    return run.matching, run.pointer


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


def round_state(doctor_prefs: EdgeLists,
                hospital_prefs: EdgeLists,
                capacities,
                rule: Optional[TruncationRule] = None) -> DAState:
    """The doctor-proposing run under `rule` by the round engine, as a
    DAState that `insert` and `with_proposers` resume, as they resume
    truncated_state's.

    Each matched doctor holds her last proposal (she has one slot), so her
    seat is entry pointer[d] - 1 of her list.  A hospital's heap holds its
    seats as (-rank, doctor) in ascending order, which is a heap.
    """
    stop = truncation_stops(doctor_prefs, rule or TruncationRule())
    matching, pointer = prefix_da(doctor_prefs, hospital_prefs, capacities,
                                  DOCTORS_PROPOSE, stop)
    offsets, _, _, back, _ = doctor_prefs.csr
    doctor_of = matching.doctor_of
    doctors = np.flatnonzero(doctor_of >= 0)
    hospitals = doctor_of[doctors]
    neg_rank = -back[offsets[doctors] + pointer[doctors] - 1]
    order = np.lexsort((doctors, neg_rank, hospitals))
    seats = list(zip(neg_rank[order].tolist(), doctors[order].tolist()))
    ends = np.searchsorted(hospitals[order], np.arange(len(capacities) + 1))
    n = doctor_of.size
    return DAState(doctor_prefs, doctor_prefs.ranks, [1] * n, list(capacities),
                   stop.tolist(), pointer.tolist(),
                   (doctor_of >= 0).astype(np.int64).tolist(),
                   _split(seats, ends.tolist()))


def truncated_state(doctor_prefs: EdgeLists,
                    hospital_prefs: EdgeLists,
                    capacities,
                    rule: Optional[TruncationRule] = None,
                    orientation: str = DOCTORS_PROPOSE) -> DAState:
    """The settled run of one orientation by the FIFO loop, plain DA over
    each proposer's prefix under `rule` (whole lists without one), with the
    proposers first queued by id.
    `DAState.insert` and `with_proposers` add a proposer the rule leaves
    out (stop 0).
    """
    return _engine(doctor_prefs, hospital_prefs, capacities, rule,
                   orientation, None)


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
    state = _engine(doctor_prefs, hospital_prefs, capacities, rule,
                    orientation, log)
    return matching_of(state, orientation), log


def order_invariance_check(doctor_prefs, hospital_prefs, capacities,
                           permutation: Sequence[int],
                           orientation: str = DOCTORS_PROPOSE) -> bool:
    """True iff the FIFO loop, its proposers queued in `permutation` order
    (with_proposers on the run in which all are absent), ends in the round
    engine's matching."""
    rounds, _ = prefix_da(doctor_prefs, hospital_prefs, capacities,
                          orientation, None)
    n = len(doctor_prefs if orientation == DOCTORS_PROPOSE else hospital_prefs)
    absent = TruncationRule(proposer_filter=np.zeros(n, dtype=bool))
    fifo = truncated_state(doctor_prefs, hospital_prefs, capacities, absent,
                           orientation).with_proposers(permutation)
    return np.array_equal(rounds.doctor_of, matching_of(fifo, orientation).doctor_of)
