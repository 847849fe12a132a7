"""Double-cut DA harnesses: truncated runs around a focal agent or interval.

A double-cut run is an initial portion of a DA run in which only agents
above a rating threshold propose, proposers near the focal stop below a
utility floor, and a proposal to the focal agent ends that proposer's run.
Because every proposer uses a prefix of her list, the full run's outcome
weakly dominates the truncated one for every receiver.  receivers_dominate
is that inequality as a predicate over the matched edges of two matchings
the caller holds: the full DA of the scenario's orientation and the
double-cut run.

The floor is the proposer's ceiling utility at the focal minus alpha: for
doctors proposing to hospital h that is r(h) + 1 + nu_d - alpha, and for
hospitals proposing to doctor d it is r(d) + nu_h - alpha (nu_h drops out
in school choice, where a school's utility is the student's rating alone).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from .da import (DOCTORS_PROPOSE, HOSPITALS_PROPOSE, TruncationRule,
                 prefix_da, proposal_counts, truncation_stops)
from .market import MarketConfig, MarketInstance, SCHOOL_CHOICE, check_agent_id
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

    `proposer_threshold` is the rating below which agents do not propose
    (focal rating minus a*alpha) and `floor_band` the proposer-rating band
    subject to the utility floor (the focal's cone).  `exclusions` lists
    proposer ids removed by interval preprocessing.  `market` is the
    (config, run_index) of the instance the scenario was built for; a
    scenario runs on that market only.
    """

    focal_side: str
    focal_id: Optional[int] = None
    interval: Optional[Tuple[float, float]] = None
    proposer_threshold: float = -math.inf
    utility_floor: float = -math.inf
    floor_band: Tuple[float, float] = (-math.inf, -math.inf)
    forbidden_windows: Tuple[Tuple[float, float], ...] = ()
    exclusions: frozenset = frozenset()
    bottommost: bool = False
    market: Optional[Tuple[MarketConfig, int]] = None

    @property
    def orientation(self) -> str:
        """Doctors propose around a focal hospital, hospitals otherwise."""
        return (DOCTORS_PROPOSE if self.focal_side == FOCAL_HOSPITAL
                else HOSPITALS_PROPOSE)


def _market(instance: MarketInstance) -> Tuple[MarketConfig, int]:
    return instance.config, instance.run_index


def scenario_for_hospital(instance: MarketInstance, hospital: int) -> DoubleCutScenario:
    """Doctor-proposing double-cut run centered on one hospital."""
    check_agent_id("focal hospital", hospital, instance.config.n_hospitals)
    r = instance.hospital_ratings[hospital]
    alpha, half = instance.alpha_eff, instance.half_width
    ceiling = r + 1.0 + instance.config.nu_d
    return DoubleCutScenario(
        focal_side=FOCAL_HOSPITAL, focal_id=hospital,
        proposer_threshold=r - half,
        utility_floor=ceiling - alpha, floor_band=(r - half, r + half),
        bottommost=bool(r < instance.hospital_range[0] + half),
        market=_market(instance))


def scenario_for_doctor(instance: MarketInstance, doctor: int) -> DoubleCutScenario:
    """Hospital-proposing double-cut run centered on one doctor."""
    check_agent_id("focal doctor", doctor, instance.config.n_doctors)
    r = instance.doctor_ratings[doctor]
    alpha, half = instance.alpha_eff, instance.half_width
    ceiling = r + _nu_h_weight(instance)
    return DoubleCutScenario(
        focal_side=FOCAL_DOCTOR, focal_id=doctor,
        proposer_threshold=r - half,
        utility_floor=ceiling - alpha, floor_band=(r - half, r + half),
        bottommost=bool(r < instance.doctor_range[0] + half),
        market=_market(instance))


@dataclass
class PreprocessResult:
    excluded_hospitals: frozenset
    excluded_doctors: frozenset
    interval_doctors: Tuple[int, ...]
    i_size: int
    i_prime_size: int
    l_size: int
    l_prime_size: int


def interval_preprocess(assignment: InterviewAssignment,
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
    instance = assignment.instance
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


def scenario_for_interval(assignment: InterviewAssignment,
                          interval: Tuple[float, float]) -> DoubleCutScenario:
    """Hospital-proposing double-cut run for a doctor interval I = [f, g).

    In-band proposers carry the floor g + nu_h - alpha and forbidden
    utility windows restricting their proposals into I to the common
    utility band shared by every doctor in I.
    """
    f, g = interval
    pre = interval_preprocess(assignment, interval)
    instance = assignment.instance
    alpha, half = instance.alpha_eff, instance.half_width
    nu = _nu_h_weight(instance)
    # complement of [g+nu-alpha, f+nu) within the union of member bands
    windows = ((f + nu - alpha, g + nu - alpha), (f + nu, g + nu))
    return DoubleCutScenario(
        focal_side=FOCAL_DOCTOR_INTERVAL, interval=(f, g),
        proposer_threshold=g - half,
        utility_floor=g + nu - alpha, floor_band=(g - half, f + half),
        forbidden_windows=windows, exclusions=pre.excluded_hospitals,
        bottommost=bool(g < instance.doctor_range[0] + half),
        market=_market(instance))


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


def scenario_rule(instance: MarketInstance,
                  scenario: DoubleCutScenario) -> TruncationRule:
    """The scenario's cuts as a TruncationRule: proposers rated below the
    threshold, or excluded, never propose; floor and windows bind floor_band.
    Raises ValueError unless the scenario was built for this market.
    """
    if scenario.market != _market(instance):
        raise ValueError("the scenario was built for another market")
    ratings = (instance.hospital_ratings
               if scenario.orientation == HOSPITALS_PROPOSE
               else instance.doctor_ratings)
    lo, hi = scenario.floor_band
    banded = (lo <= ratings) & (ratings < hi)
    proposers = ratings >= scenario.proposer_threshold
    proposers[list(scenario.exclusions)] = False
    return TruncationRule(
        proposer_filter=proposers,
        utility_floor=np.where(banded, scenario.utility_floor, -math.inf),
        focal_target=scenario.focal_id,
        forbidden_windows=[(np.where(banded, wlo, math.inf), whi)
                           for wlo, whi in scenario.forbidden_windows])


def run_double_cut(assignment: InterviewAssignment,
                   scenario: DoubleCutScenario):
    """Execute the scenario's truncated run; returns (Matching, SurplusReport).

    The run is the round engine over each proposer's prefix up to her
    truncation stop.  Raises ValueError for a scenario built for another
    market than the assignment's.
    """
    instance = assignment.instance
    prefs = build_preferences(assignment)
    proposers = prefs[scenario.orientation == HOSPITALS_PROPOSE]
    stop = truncation_stops(proposers, scenario_rule(instance, scenario))
    matching, pointer = prefix_da(*prefs, instance.capacities,
                                  scenario.orientation, stop)
    received = proposal_counts(proposers, pointer)
    report = _surplus_report(instance, assignment, scenario, matching, received)
    return matching, report


def _count_not_fully_matched_hospitals(instance, matching, lo, hi) -> int:
    ids = instance.hospitals_in_band(lo, hi)
    return int(np.count_nonzero(matching.fills()[ids] < instance.capacities[ids]))


def _surplus_report(instance, assignment, scenario, matching, received) -> SurplusReport:
    alpha, half = instance.alpha_eff, instance.half_width
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
        above = instance.doctors_in_band(r + half + alpha, d_hi)
        unmatched_above = int(np.count_nonzero(matching.doctor_of[above] < 0))
        surplus = max(0, int(in_scope) - competing_places - unmatched_above)
        held = np.flatnonzero(matching.doctor_of == h)
        utility = (float(np.mean(assignment.u_hosp[
            assignment.edge_index(held, np.full(held.size, h))]))
            if held.size else math.nan)
        return SurplusReport((n_docs, n_hosp), unmatched_above, surplus,
                             int(received[h]), bool(held.size), utility,
                             scenario.bottommost)

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
        hm = int(matching.doctor_of[d])
        utility = (float(assignment.u_doc[assignment.edge_index([d], [hm])[0]])
                   if hm >= 0 else math.nan)
        return SurplusReport((n_docs, n_hosp), unmatched_above, surplus,
                             int(received[d]), hm >= 0, utility,
                             scenario.bottommost)

    # doctor interval: two-case geometry depending on whether the band
    # above the interval reaches the top of the rating range
    f, g = scenario.interval
    n_docs = int(instance.doctors_in_band(g - alpha, d_hi).size)
    # exclusions can rate below the band (removed doctors' other hospitals)
    n_hosp = sum(1 for h in instance.hospitals_in_band(g - half, h_hi).tolist()
                 if h not in scenario.exclusions)
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
    matched_in_i = int(np.count_nonzero(matching.doctor_of[interval_doctors] >= 0))
    frac = matched_in_i / interval_doctors.size if interval_doctors.size else math.nan
    return SurplusReport((n_docs, n_hosp), unmatched_above, surplus,
                         int(received[interval_doctors].sum()), None, frac,
                         scenario.bottommost)


def _check_oracle(surplus, cone_size, alpha, psi) -> None:
    if surplus < 1 or cone_size < 1:
        raise ValueError(f"surplus ({surplus}) and cone_size ({cone_size}) "
                         f"must be at least 1")
    if not all(math.isfinite(x) and x >= 0.0 for x in (alpha, psi)):
        raise ValueError(f"alpha ({alpha}) and psi ({psi}) must be finite "
                         f"and >= 0")


def independent_proposal_oracle(surplus: int, cone_size: int, k: int,
                                alpha: float, psi: float) -> float:
    """No-qualifying-proposal probability under independent proposals.

    Each of `surplus` counter-side agents independently reaches the focal
    doctor with probability p = (k / cone_size) * alpha * psi (selected by
    the doctor, clears the proposer's floor, and qualifies on the doctor's
    interview value).  Returns the probability that none do,
    (1 - p) ** surplus.
    """
    _check_oracle(surplus, cone_size, alpha, psi)
    if cone_size < k:
        raise ValueError("cone must hold at least k hospitals")
    p = min(1.0, (k / cone_size) * alpha * psi)
    return (1.0 - p) ** surplus


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
                         alpha: float, psi: float) -> float:
    """Mirror oracle for a focal hospital failing to fill its kappa seats.

    Surplus doctors each reach the hospital with probability
    p = (kappa * k / cone_size) * (alpha - taubar) * psi; returns the
    binomial tail P(Binom(surplus, p) < kappa).  The analysis-only slack
    taubar is taken as 0.
    """
    _check_oracle(surplus, cone_size, alpha, psi)
    if kappa < 1:
        raise ValueError(f"kappa ({kappa}) must be at least 1")
    p = min(1.0, (kappa * k / cone_size) * alpha * psi)
    return _binom_cdf(kappa - 1, surplus, p)


def _seats(assignment: InterviewAssignment, e: np.ndarray) -> np.ndarray:
    # the matched edges among e, hospital by hospital, best seat first: in
    # their order in the table's hospital_order
    e = e[e >= 0]
    order = assignment.hospital_order
    place = np.empty_like(order)
    place[order] = np.arange(order.size)
    return e[np.argsort(place[e])]


def receivers_dominate(assignment: InterviewAssignment, orientation: str,
                       full: np.ndarray, cut: np.ndarray) -> bool:
    """True iff `full` weakly dominates `cut` for every receiver.

    `full` and `cut` are two matchings' assignment.matched_edges arrays.
    Receivers are the side that does not propose in `orientation`; a
    hospital's outcome dominates when its fill count does not drop and its
    sorted seat utilities are pointwise at least the cut run's.  Unmatched
    doctors count as utility minus infinity.
    """
    if orientation == DOCTORS_PROPOSE:
        full, cut = _seats(assignment, full), _seats(assignment, cut)
        n = assignment.n_hospitals()
        full_fill = np.bincount(assignment.edge_h[full], minlength=n)
        cut_fill = np.bincount(assignment.edge_h[cut], minlength=n)
        if np.any(full_fill < cut_fill):
            return False
        # the cut run's j-th seat at hospital h faces the full run's j-th
        h = assignment.edge_h[cut]
        cut_start = np.cumsum(cut_fill) - cut_fill
        full_start = np.cumsum(full_fill) - full_fill
        facing = full[full_start[h] + np.arange(cut.size) - cut_start[h]]
        return bool(np.all(assignment.u_hosp[facing]
                           >= assignment.u_hosp[cut]))
    u = np.append(assignment.u_doc, -math.inf)     # edge -1: unmatched
    return bool(np.all(u[full] >= u[cut]))
