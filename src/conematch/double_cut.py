"""Double-cut DA harnesses: truncated runs around a focal agent or interval.

A double-cut run is an initial portion of a DA run in which only agents
above a rating threshold propose, proposers near the focal stop below a
utility floor, and a proposal to the focal agent ends that proposer's run.
Because every proposer uses a prefix of her list, the full run's outcome
weakly dominates the truncated one for every receiver.  receivers_dominate
is that inequality as a predicate over two matchings the caller holds (the
full DA of the scenario's orientation and the double-cut run);
dominance_audit composes it with run_double_cut and the full DA.

The floor is the proposer's ceiling utility at the focal minus alpha: for
doctors proposing to hospital h that is r(h) + 1 + nu_d - alpha, and for
hospitals proposing to doctor d it is r(d) + nu_h - alpha (nu_h drops out
in school choice, where a school's utility is the student's rating alone).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple, Union

import numpy as np

from .da import (DOCTORS_PROPOSE, HOSPITALS_PROPOSE, EdgeLists, EventLog,
                 Matching, TruncationRule, doctor_proposing_da,
                 hospital_proposing_da, truncated_da)
from .market import MarketInstance, SCHOOL_CHOICE
from .strategy import InterviewAssignment, build_preferences

FOCAL_DOCTOR = "doctor"
FOCAL_HOSPITAL = "hospital"
FOCAL_DOCTOR_INTERVAL = "doctor_interval"


def _nu_h_weight(instance: MarketInstance) -> float:
    if instance.config.setting == SCHOOL_CHOICE:
        return 0.0
    return instance.config.nu_h


@dataclass
class DoubleCutScenario:
    """Cutoffs and stop rules for one truncated run.

    For a focal hospital, doctors propose; for a focal doctor or doctor
    interval, hospitals propose.  `proposer_threshold` is the rating below
    which agents do not propose (focal rating minus a*alpha), `floor_band`
    the proposer-rating band subject to the utility floor (the focal's
    cone), and `receiver_threshold` the descriptive cutoff on the receiving
    side (focal rating minus alpha).  `exclusions` lists proposer ids
    removed by interval preprocessing.
    """

    focal_side: str
    focal_id: Optional[int] = None
    interval: Optional[Tuple[float, float]] = None
    orientation: str = HOSPITALS_PROPOSE
    alpha: float = 0.0
    half_width: float = 0.0
    proposer_threshold: float = -math.inf
    receiver_threshold: float = -math.inf
    utility_floor: float = -math.inf
    floor_band: Tuple[float, float] = (-math.inf, -math.inf)
    forbidden_windows: Tuple[Tuple[float, float], ...] = ()
    exclusions: frozenset = frozenset()
    bottommost: bool = False


def scenario_for_hospital(instance: MarketInstance, hospital: int) -> DoubleCutScenario:
    """Doctor-proposing double-cut run centered on one hospital."""
    r = instance.hospital_ratings[hospital]
    alpha, half = instance.alpha_eff, instance.half_width
    ceiling = r + 1.0 + instance.config.nu_d
    return DoubleCutScenario(
        focal_side=FOCAL_HOSPITAL, focal_id=hospital,
        orientation=DOCTORS_PROPOSE, alpha=alpha, half_width=half,
        proposer_threshold=r - half, receiver_threshold=r - alpha,
        utility_floor=ceiling - alpha, floor_band=(r - half, r + half),
        bottommost=bool(r < instance.hospital_range[0] + half))


def scenario_for_doctor(instance: MarketInstance, doctor: int) -> DoubleCutScenario:
    """Hospital-proposing double-cut run centered on one doctor."""
    r = instance.doctor_ratings[doctor]
    alpha, half = instance.alpha_eff, instance.half_width
    ceiling = r + _nu_h_weight(instance)
    return DoubleCutScenario(
        focal_side=FOCAL_DOCTOR, focal_id=doctor,
        orientation=HOSPITALS_PROPOSE, alpha=alpha, half_width=half,
        proposer_threshold=r - half, receiver_threshold=r - alpha,
        utility_floor=ceiling - alpha, floor_band=(r - half, r + half),
        bottommost=bool(r < instance.doctor_range[0] + half))


@dataclass
class PreprocessResult:
    excluded_hospitals: frozenset
    excluded_doctors: frozenset
    interval_doctors: Tuple[int, ...]
    i_size: int
    i_prime_size: int
    l_size: int
    l_prime_size: int


def interval_preprocess(instance: MarketInstance,
                        assignment: InterviewAssignment,
                        interval: Tuple[float, float]) -> PreprocessResult:
    """Exclusion set for the interval double-cut over doctors I = [f, g).

    Removes (i) hospitals in [f+aa, g+aa), which are in cone for only some
    of I; (ii) hospitals in L = [g-aa, f+aa) holding two or more interview
    edges into I, whose first proposal into I would not be uniform; (iii)
    the I-doctors on those colliding edges; (iv) the other hospitals of the
    removed doctors.  Returns the surviving set sizes |I'| and |L'|.
    """
    f, g = interval
    if g < f:
        raise ValueError("interval must satisfy f <= g")
    alpha, half = instance.alpha_eff, instance.half_width
    if g - f >= alpha:
        raise ValueError(f"interval width {g - f} must be below alpha={alpha}")

    docs = instance.doctors_in_band(f, g)
    if docs.size == 0:
        return PreprocessResult(frozenset(), frozenset(), (), 0, 0,
                                int(instance.hospitals_in_band(g - half, f + half).size), 0)
    in_i = set(int(d) for d in docs)

    band_hospitals = set(int(h) for h in instance.hospitals_in_band(f + half, g + half))
    l_hospitals = set(int(h) for h in instance.hospitals_in_band(g - half, f + half))

    edges_into_i: Dict[int, List[int]] = {}
    for d in in_i:
        for h in assignment.doctor_list(d):
            if h in l_hospitals:
                edges_into_i.setdefault(h, []).append(d)

    colliding = {h for h, ds in edges_into_i.items() if len(ds) >= 2}
    removed_doctors = {d for h in colliding for d in edges_into_i[h]}
    neighbor_hospitals = {h for d in removed_doctors
                          for h in assignment.doctor_list(d)} - colliding

    excluded_h = frozenset(band_hospitals | colliding | neighbor_hospitals)
    excluded_d = frozenset(removed_doctors)
    i_prime = in_i - removed_doctors
    l_prime = l_hospitals - colliding - neighbor_hospitals
    return PreprocessResult(excluded_h, excluded_d, tuple(sorted(in_i)),
                            len(in_i), len(i_prime),
                            len(l_hospitals), len(l_prime))


def scenario_for_interval(instance: MarketInstance,
                          assignment: InterviewAssignment,
                          interval: Tuple[float, float]) -> DoubleCutScenario:
    """Hospital-proposing double-cut run for a doctor interval I = [f, g).

    In-band proposers carry the floor g + nu_h - alpha and forbidden
    utility windows restricting their proposals into I to the common
    utility band shared by every doctor in I.
    """
    f, g = interval
    pre = interval_preprocess(instance, assignment, interval)
    alpha, half = instance.alpha_eff, instance.half_width
    nu = _nu_h_weight(instance)
    # complement of [g+nu-alpha, f+nu) within the union of member bands
    windows = ((f + nu - alpha, g + nu - alpha), (f + nu, g + nu))
    return DoubleCutScenario(
        focal_side=FOCAL_DOCTOR_INTERVAL, interval=(f, g),
        orientation=HOSPITALS_PROPOSE, alpha=alpha, half_width=half,
        proposer_threshold=g - half, receiver_threshold=g - alpha,
        utility_floor=g + nu - alpha, floor_band=(g - half, f + half),
        forbidden_windows=windows, exclusions=pre.excluded_hospitals,
        bottommost=bool(g < instance.hospital_range[0] + half))


SURPLUS_CSV_HEADER = ("focal_side,focal,doctors,hospitals,unmatched_above,"
                      "surplus,proposals_to_focal,matched,utility,bottommost")


@dataclass
class SurplusReport:
    """Counts backing the surplus lower-bound argument for one run."""

    participants_each_side: Tuple[int, int]   # (doctors, hospitals)
    unmatched_above: int
    surplus: int
    proposals_to_focal: int
    focal_matched: Optional[bool]
    focal_utility: float
    bottommost: bool
    log: EventLog = field(repr=False, default=None)

    def csv_row(self, scenario: "DoubleCutScenario") -> str:
        """One experiment-CSV row (header in SURPLUS_CSV_HEADER)."""
        focal = scenario.focal_id if scenario.focal_id is not None \
            else scenario.interval
        matched = "" if self.focal_matched is None else int(self.focal_matched)
        util = "" if math.isnan(self.focal_utility) else f"{self.focal_utility:.9g}"
        return (f"{scenario.focal_side},{focal},"
                f"{self.participants_each_side[0]},"
                f"{self.participants_each_side[1]},{self.unmatched_above},"
                f"{self.surplus},{self.proposals_to_focal},{matched},{util},"
                f"{int(self.bottommost)}")


def _rule_for(scenario: DoubleCutScenario, n_proposers: int,
              proposer_ratings) -> TruncationRule:
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
    return TruncationRule(
        proposer_filter=lambda rating: rating >= thr,
        utility_floor=floors if floors else None,
        focal_target=scenario.focal_id,
        forbidden_windows=windows if windows else None)


def run_double_cut(instance: MarketInstance,
                   assignment: InterviewAssignment,
                   scenario: DoubleCutScenario,
                   prefs: Optional[tuple] = None):
    """Execute the scenario's truncated run; returns (Matching, SurplusReport).

    `prefs`, if given, is build_preferences(assignment).
    """
    lists = build_preferences(assignment) if prefs is None else prefs
    if any(getattr(p, "source", None) is not assignment for p in lists):
        raise ValueError("prefs must be build_preferences(assignment)")
    lists = list(lists)
    side = 1 if scenario.orientation == HOSPITALS_PROPOSE else 0   # proposers
    proposer_ratings = (instance.doctor_ratings, instance.hospital_ratings)[side]
    if scenario.exclusions:
        p = lists[side]
        lists[side] = EdgeLists([([] if i in scenario.exclusions else lst)
                                 for i, lst in enumerate(p)],
                                p.ranks, p.utils, p.source)

    rule = _rule_for(scenario, len(lists[side]), proposer_ratings)
    # truncated_da reads the proposing side's utilities from its lists
    matching, log = truncated_da(*lists, instance.capacities, rule,
                                 orientation=scenario.orientation,
                                 proposer_ratings=proposer_ratings)
    report = _surplus_report(instance, assignment, scenario, matching, log)
    return matching, report


def _count_not_fully_matched_hospitals(instance, matching, lo, hi) -> int:
    ids = instance.hospitals_in_band(lo, hi)
    caps = instance.capacities
    return int(sum(1 for h in ids if len(matching.doctors_of[h]) < caps[h]))


def _count_unmatched_doctors(instance, matching, lo, hi) -> int:
    ids = instance.doctors_in_band(lo, hi)
    return int(sum(1 for d in ids if matching.doctor_of[d] is None))


def _surplus_report(instance, assignment, scenario, matching, log) -> SurplusReport:
    alpha, half = scenario.alpha, scenario.half_width
    kappa = max(instance.capacities.mean(), 1.0)
    d_hi = instance.doctor_range[1]
    h_hi = instance.hospital_range[1]

    if scenario.focal_side == FOCAL_HOSPITAL:
        h = scenario.focal_id
        r = instance.hospital_ratings[h]
        n_docs = int(instance.doctors_in_band(r - half, d_hi).size)
        n_hosp = int(instance.hospitals_in_band(r - alpha, h_hi).size)
        # doctors who could propose to the focal or end unmatched
        in_scope = (instance.doctors_in_band(r - half, r + half).size
                    + instance.doctors_in_band(r + half + alpha, d_hi).size)
        competing_places = int(instance.capacities[
            instance.hospitals_in_band(r - alpha, h_hi)].sum())
        unmatched_above = _count_unmatched_doctors(
            instance, matching, r + half + alpha, d_hi)
        surplus = max(0, int(in_scope) - competing_places - unmatched_above)
        proposals = log.proposals_to(h)
        held = list(matching.doctors_of[h])
        utility = (float(np.mean(assignment.u_hosp[
            assignment.edge_index(held, [h] * len(held))])) if held else math.nan)
        return SurplusReport((n_docs, n_hosp), unmatched_above, surplus,
                             len(proposals), bool(held), utility,
                             scenario.bottommost, log)

    if scenario.focal_side == FOCAL_DOCTOR:
        d = scenario.focal_id
        r = instance.doctor_ratings[d]
        n_docs = int(instance.doctors_in_band(r - alpha, d_hi).size)
        n_hosp = int(instance.hospitals_in_band(r - half, h_hi).size)
        in_scope = (instance.hospitals_in_band(r - half, r + half).size
                    + instance.hospitals_in_band(r + half + alpha, h_hi).size)
        competitors = instance.doctors_in_band(r - alpha, d_hi).size / kappa
        unmatched_above = _count_not_fully_matched_hospitals(
            instance, matching, r + half + alpha, h_hi)
        surplus = max(0, math.floor(in_scope - competitors - unmatched_above))
        proposals = log.proposals_to(d)
        hm = matching.doctor_of[d]
        utility = (float(assignment.u_doc[assignment.edge_index([d], [hm])[0]])
                   if hm is not None else math.nan)
        return SurplusReport((n_docs, n_hosp), unmatched_above, surplus,
                             len(proposals), hm is not None, utility,
                             scenario.bottommost, log)

    # doctor interval: two-case geometry depending on whether the band
    # above the interval reaches the top of the rating range
    f, g = scenario.interval
    n_docs = int(instance.doctors_in_band(g - alpha, d_hi).size)
    n_hosp = int(instance.hospitals_in_band(g - half, h_hi).size
                 - len(scenario.exclusions))
    scope_ids = list(instance.hospitals_in_band(g - half, f + half))
    if g <= h_hi - (half + alpha):
        scope_ids += list(instance.hospitals_in_band(g + half + alpha, h_hi))
    in_scope = sum(1 for h in scope_ids if h not in scenario.exclusions)
    competitors = (instance.doctors_in_band(g - alpha, d_hi).size
                   - instance.doctors_in_band(f, g).size) / kappa
    unmatched_above = _count_not_fully_matched_hospitals(
        instance, matching, g + half + alpha, h_hi)
    surplus = max(0, math.floor(in_scope - competitors - unmatched_above))
    interval_doctors = instance.doctors_in_band(f, g)
    in_i = set(int(x) for x in interval_doctors)
    proposals = [e for e in log.proposals() if e[2] in in_i]
    matched_in_i = sum(1 for d in interval_doctors if matching.doctor_of[d] is not None)
    frac = matched_in_i / interval_doctors.size if interval_doctors.size else math.nan
    return SurplusReport((n_docs, n_hosp), unmatched_above, surplus,
                         len(proposals), None, frac,
                         scenario.bottommost, log)


def independent_proposal_oracle(surplus: int, cone_size: int, k: int,
                                alpha: float, psi: float,
                                trials: int = 10000, seed: int = 0):
    """No-qualifying-proposal probability under independent proposals.

    Each of `surplus` counter-side agents independently reaches the focal
    doctor with probability p = (k / cone_size) * alpha * psi (selected by
    the doctor, clears the proposer's floor, and qualifies on the doctor's
    interview value).  Returns (monte_carlo_estimate, closed_form) for the
    probability that none do, the closed form being (1 - p) ** surplus.
    """
    if surplus < 1:
        raise ValueError("surplus must be at least 1")
    if cone_size < k:
        raise ValueError("cone must hold at least k hospitals")
    p = min(1.0, (k / cone_size) * alpha * psi)
    closed = (1.0 - p) ** surplus
    if trials <= 0:
        return closed, closed
    gen = np.random.default_rng(seed)
    hits = gen.binomial(surplus, p, size=trials)
    return float(np.mean(hits == 0)), closed


def _binom_cdf(k_max: int, n: int, p: float) -> float:
    # P(X <= k_max) for X ~ Binomial(n, p), summed in log space
    if p <= 0.0:
        return 1.0
    if p >= 1.0:
        return 1.0 if k_max >= n else 0.0
    total = 0.0
    logp, log1p = math.log(p), math.log1p(-p)
    for i in range(0, min(k_max, n) + 1):
        lg = (math.lgamma(n + 1) - math.lgamma(i + 1) - math.lgamma(n - i + 1)
              + i * logp + (n - i) * log1p)
        total += math.exp(lg)
    return min(total, 1.0)


def hospital_fill_oracle(surplus: int, cone_size: int, kappa: int, k: int,
                         alpha: float, psi: float, taubar: float = 0.0,
                         trials: int = 10000, seed: int = 0):
    """Mirror oracle for a focal hospital failing to fill its kappa seats.

    Surplus doctors each reach the hospital with probability
    p = (kappa * k / cone_size) * (alpha - taubar) * psi, so the closed
    form is the binomial tail P(Binom(surplus, p) < kappa).  taubar is an
    analysis-only slack and defaults to 0.
    """
    if surplus < 1:
        raise ValueError("surplus must be at least 1")
    p = min(1.0, (kappa * k / cone_size) * max(alpha - taubar, 0.0) * psi)
    closed = _binom_cdf(kappa - 1, surplus, p)
    if trials <= 0:
        return closed, closed
    gen = np.random.default_rng(seed)
    hits = gen.binomial(surplus, p, size=trials)
    return float(np.mean(hits < kappa)), closed


def _matched(assignment: InterviewAssignment,
             matching: Union[Matching, np.ndarray]) -> np.ndarray:
    # a Matching's matched edges, or the array when given one already
    if isinstance(matching, np.ndarray):
        return matching
    return assignment.matched_edges(matching)


def _seat_utilities(assignment: InterviewAssignment, e: np.ndarray):
    # each hospital's seat utilities, best first, from matched edges
    seats = [[] for _ in range(assignment.n_hospitals())]
    e = e[e >= 0]
    for h, u in zip(assignment.edge_h[e].tolist(), assignment.u_hosp[e].tolist()):
        seats[h].append(u)
    return [sorted(s, reverse=True) for s in seats]


def receivers_dominate(assignment: InterviewAssignment, orientation: str,
                       full: Union[Matching, np.ndarray],
                       cut: Union[Matching, np.ndarray]) -> bool:
    """True iff `full` weakly dominates `cut` for every receiver.

    `full` and `cut` are Matchings or their assignment.matched_edges
    arrays.  Receivers are the side that does not propose in
    `orientation`; a hospital's outcome dominates when its fill count does
    not drop and its sorted seat utilities are pointwise at least the cut
    run's.  Unmatched doctors count as utility minus infinity.
    """
    full, cut = _matched(assignment, full), _matched(assignment, cut)
    if orientation == DOCTORS_PROPOSE:
        return all(len(f) >= len(c) and all(fu >= cu for fu, cu in zip(f, c))
                   for f, c in zip(_seat_utilities(assignment, full),
                                   _seat_utilities(assignment, cut)))
    u = np.append(assignment.u_doc, -math.inf)     # edge -1: unmatched
    return bool(np.all(u[full] >= u[cut]))


def dominance_audit(instance: MarketInstance,
                    assignment: InterviewAssignment,
                    scenario: DoubleCutScenario,
                    prefs: Optional[tuple] = None) -> bool:
    """True iff the full run weakly dominates the double-cut run receiver-wise."""
    if prefs is None:
        prefs = build_preferences(assignment)
    cut, _ = run_double_cut(instance, assignment, scenario, prefs)
    full_da = doctor_proposing_da if scenario.orientation == DOCTORS_PROPOSE \
        else hospital_proposing_da
    full = full_da(*prefs, instance.capacities)
    return receivers_dominate(assignment, scenario.orientation, full, cut)
