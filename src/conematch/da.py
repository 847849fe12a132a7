"""Many-to-one deferred acceptance with pluggable truncation rules.

One proposal engine drives four entry points: plain doctor-proposing DA,
plain hospital-proposing DA, the truncated runs used by the double-cut
harness, and an order-invariance checker.  Proposers are processed from a
FIFO work queue; the matching is invariant to that order, which
order_invariance_check verifies directly.  The engine's state (DAState) can
also be resumed: one more proposer is inserted into a settled run on a
copy-on-write overlay, or several are added to a plain copy of it, which is
how deviation probes avoid re-running DA.

Every entry point takes one input form, the two EdgeLists that
strategy.build_preferences reads off one edge table: next to each
proposer's list, the rank every listed receiver gives it and the proposer's
own utilities.  Anything else is refused with ValueError.

A truncation rule can stop a proposer three ways, checked before each
proposal in this sequence: utility below her floor (no proposal is made),
the target is the focal agent (that proposal is made, then she stops), or
the utility lands in a forbidden window (no proposal).  Displaced proposers
re-check the floor before every later proposal.
"""

from __future__ import annotations

import heapq
import math
from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

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
    orientation: str
    events: List[Event] = field(default_factory=list)

    def proposals(self) -> List[Event]:
        return [e for e in self.events if e[4] in (HOLD, REJECT, DISPLACE)]

    def proposals_to(self, target: int) -> List[Event]:
        return [e for e in self.proposals() if e[2] == target]

    def lines(self) -> List[str]:
        """Line-delimited records: step,proposer,target,utility,outcome."""
        out = []
        for step, p, t, u, outcome in self.events:
            tgt = "" if t is None else str(t)
            util = "" if math.isnan(u) else f"{u:.9g}"
            out.append(f"{step},{p},{tgt},{util},{outcome}")
        return out


@dataclass
class Matching:
    """doctor_of[d] is d's hospital or None; doctors_of[h] is h's held set."""

    doctor_of: List[Optional[int]]
    doctors_of: List[set]

    def matched_doctors(self) -> set:
        return {d for d, h in enumerate(self.doctor_of) if h is not None}

    def fills(self) -> List[int]:
        return [len(s) for s in self.doctors_of]

    def validate(self, capacities) -> None:
        """Raise on broken mutual consistency or capacity.

        InterviewAssignment.matched_edges checks edge membership.
        """
        seen = 0
        for h, ds in enumerate(self.doctors_of):
            if len(ds) > capacities[h]:
                raise ValueError(f"hospital {h} over capacity")
            for d in ds:
                if self.doctor_of[d] != h:
                    raise ValueError(f"doctor {d} inconsistent with hospital {h}")
                seen += 1
        if seen != len(self.matched_doctors()):
            raise ValueError("doctor_of and doctors_of disagree")

    def key(self) -> tuple:
        return tuple(-1 if h is None else h for h in self.doctor_of)


FloorSpec = Union[None, float, Dict[int, float], Callable[[int], float]]
WindowSpec = Union[None, Sequence[Tuple[float, float]],
                   Dict[int, Sequence[Tuple[float, float]]]]


@dataclass
class TruncationRule:
    """Stop conditions for proposers.

    proposer_filter: predicate on the proposer's public rating; proposers
        failing it never propose (requires proposer_ratings at run time).
    utility_floor: scalar, per-proposer dict, or callable(proposer) giving
        the minimum proposer utility; checked before each proposal.
    focal_target: receiver id whose proposal, once reached, is the
        proposer's last (made only if it clears the floor).
    forbidden_windows: half-open [lo, hi) utility intervals, global or per
        proposer; hitting one stops the proposer without proposing.
    """

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
                 receiver_caps, rule: Optional[TruncationRule] = None,
                 proposer_utils=None, log: Optional[EventLog] = None):
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
        self.heaps: list = [[] for _ in range(len(receiver_caps))]  # (-rank, proposer)

    def _settle(self, queue: deque) -> None:
        """Run proposals from a FIFO queue until no proposer can move."""
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
                        events.append((len(events), p, None, math.nan, HALT_EXHAUSTED))
                    break
                t = lst[i]
                if utils is not None:
                    u = ulst[i]
                if rule is not None:
                    stop = HALT_FLOOR if u < floor else None
                    if stop is None and t != focal and any(lo <= u < hi for lo, hi in windows):
                        stop = HALT_WINDOW
                    if stop is not None:
                        halted[p] = True
                        if events is not None:
                            events.append((len(events), p, t, u, stop))
                        break
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
                    events.append((len(events), p, t, u, outcome))
                if rule is not None and t == focal:
                    halted[p] = True
                    if events is not None:
                        events.append((len(events), p, None, u, HALT_FOCAL))
                    break

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
        child.rule = child.utils = child.log = None
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
        child.rule = child.utils = child.log = None
        child.pointer, child.held = list(self.pointer), list(self.held)
        child.halted, child.in_queue = list(self.halted), list(self.in_queue)
        child.heaps = [list(heap) for heap in self.heaps]
        for p, (pref_list, rank_list) in lists.items():
            child.prefs[p], child.ranks[p] = pref_list, rank_list
        child._settle(deque(p for p, (pref_list, _) in lists.items() if pref_list))
        return child

    def _check_absent(self, proposers) -> None:
        # a resumed run has no rule or log to resume, and an added
        # proposer must not have proposed yet
        if self.rule is not None or self.log is not None:
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
            rule: Optional[TruncationRule],
            proposer_utils: Optional[List[List[float]]],
            proposer_ratings,
            order: Optional[Sequence[int]],
            log: Optional[EventLog]) -> DAState:
    n_prop = len(proposer_prefs)
    trivial = rule is None or rule.is_trivial()

    if not trivial and rule.utility_floor is not None and proposer_utils is None:
        raise ValueError("a utility floor needs proposer utilities")
    if not trivial and rule.forbidden_windows is not None and proposer_utils is None:
        raise ValueError("forbidden windows need proposer utilities")
    if rule is not None and rule.proposer_filter is not None and proposer_ratings is None:
        raise ValueError("a proposer filter needs proposer ratings")

    allowed = [True] * n_prop
    if rule is not None and rule.proposer_filter is not None:
        allowed = [bool(rule.proposer_filter(float(proposer_ratings[p])))
                   for p in range(n_prop)]

    state = DAState(proposer_prefs, proposer_ranks, proposer_slots,
                    receiver_caps, rule, proposer_utils, log)
    start = range(n_prop) if order is None else order
    state._settle(deque(p for p in start if allowed[p] and proposer_prefs[p]))
    return state


def _matching_from_heaps(heaps, orientation, n_doctors, n_hospitals) -> Matching:
    doctor_of: List[Optional[int]] = [None] * n_doctors
    doctors_of: List[set] = [set() for _ in range(n_hospitals)]
    if orientation == DOCTORS_PROPOSE:
        for h, heap in enumerate(heaps):
            for _, d in heap:
                doctor_of[d] = h
                doctors_of[h].add(d)
    else:
        for d, heap in enumerate(heaps):
            for _, h in heap:
                doctor_of[d] = h
                doctors_of[h].add(d)
    return Matching(doctor_of, doctors_of)


class LazyMatching(Matching):
    """The matching a DAState holds, built on the first read of its fields."""

    def __init__(self, state: DAState, orientation: str,
                 n_doctors: int, n_hospitals: int):
        self._source = (state, orientation, n_doctors, n_hospitals)
        self._built: Optional[Matching] = None

    def _matching(self) -> Matching:
        if self._built is None:
            state, orientation, n_doctors, n_hospitals = self._source
            self._built = _matching_from_heaps(state.heaps, orientation,
                                               n_doctors, n_hospitals)
        return self._built

    doctor_of = property(lambda self: self._matching().doctor_of)
    doctors_of = property(lambda self: self._matching().doctors_of)


def doctor_proposing_state(doctor_prefs: EdgeLists,
                           hospital_prefs: EdgeLists,
                           capacities,
                           order: Optional[Sequence[int]] = None) -> DAState:
    """The settled doctor-proposing run, which `DAState.insert` extends."""
    return _engine(doctor_prefs, _edge_ranks(doctor_prefs, hospital_prefs),
                   [1] * len(doctor_prefs), list(capacities),
                   None, None, None, order, None)


def doctor_proposing_da(doctor_prefs: EdgeLists,
                        hospital_prefs: EdgeLists,
                        capacities,
                        order: Optional[Sequence[int]] = None) -> Matching:
    """Doctor-optimal stable matching over the given preference lists."""
    state = doctor_proposing_state(doctor_prefs, hospital_prefs, capacities,
                                   order)
    return _matching_from_heaps(state.heaps, DOCTORS_PROPOSE,
                                len(doctor_prefs), len(hospital_prefs))


def hospital_proposing_da(doctor_prefs: EdgeLists,
                          hospital_prefs: EdgeLists,
                          capacities,
                          order: Optional[Sequence[int]] = None) -> Matching:
    """Hospital-optimal (doctor-pessimal) stable matching."""
    state = _engine(hospital_prefs, _edge_ranks(hospital_prefs, doctor_prefs),
                    list(capacities), [1] * len(doctor_prefs),
                    None, None, None, order, None)
    return _matching_from_heaps(state.heaps, HOSPITALS_PROPOSE,
                                len(doctor_prefs), len(hospital_prefs))


def truncated_da(doctor_prefs: EdgeLists,
                 hospital_prefs: EdgeLists,
                 capacities,
                 rule: TruncationRule,
                 orientation: str = DOCTORS_PROPOSE,
                 proposer_ratings=None,
                 order: Optional[Sequence[int]] = None) -> Tuple[Matching, EventLog]:
    """Truncated DA run; returns the partial matching and its event log.

    A degenerate rule reproduces the untruncated DA.  A floor or forbidden
    windows (expressed in proposer utility) read the utilities the
    proposing side's EdgeLists carry.
    """
    log = EventLog(orientation)
    if orientation == DOCTORS_PROPOSE:
        proposers, receivers = doctor_prefs, hospital_prefs
        slots, caps = [1] * len(doctor_prefs), list(capacities)
    elif orientation == HOSPITALS_PROPOSE:
        proposers, receivers = hospital_prefs, doctor_prefs
        slots, caps = list(capacities), [1] * len(doctor_prefs)
    else:
        raise ValueError(f"unknown orientation {orientation!r}")
    state = _engine(proposers, _edge_ranks(proposers, receivers), slots, caps,
                    rule, proposers.utils, proposer_ratings, order, log)
    return (_matching_from_heaps(state.heaps, orientation,
                                 len(doctor_prefs), len(hospital_prefs)), log)


def order_invariance_check(doctor_prefs, hospital_prefs, capacities,
                           permutation: Sequence[int],
                           orientation: str = DOCTORS_PROPOSE) -> bool:
    """True iff processing proposers in `permutation` order changes nothing."""
    run = doctor_proposing_da if orientation == DOCTORS_PROPOSE else hospital_proposing_da
    canonical = run(doctor_prefs, hospital_prefs, capacities)
    permuted = run(doctor_prefs, hospital_prefs, capacities, order=permutation)
    return canonical.key() == permuted.key()
