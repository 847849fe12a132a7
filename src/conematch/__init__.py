"""Interview-constrained stable matching simulator and analysis toolkit."""

from .market import (MarketConfig, MarketInstance, ConfigError, derive_alpha,
                     generate, make_config, shift_ranges,
                     RESIDENCY, SCHOOL_CHOICE, REQUEST_INTERVIEW)
from .strategy import (Cone, InterviewAssignment, build_assignment,
                       build_preferences, compute_cone,
                       request_interview_protocol, select_interviews,
                       weighted_utilities)
from .da import (Matching, TruncationRule, EventLog, doctor_proposing_da,
                 hospital_proposing_da, order_invariance_check, truncated_da,
                 DOCTORS_PROPOSE, HOSPITALS_PROPOSE)
from .double_cut import (DoubleCutScenario, SurplusReport,
                         hospital_fill_oracle, independent_proposal_oracle,
                         interval_preprocess, receivers_dominate,
                         run_double_cut, scenario_for_doctor,
                         scenario_for_hospital, scenario_for_interval)
from .analysis import (BlockingPair, enumerate_stable, find_blocking_pairs,
                       orientations_coincide, rural_hospital_invariant)
from .metrics import (GroupedSeries, RunGroups, RunStats, aggregate,
                      bound_check, doctor_non_match_fraction, group_run,
                      hospital_non_full_fraction, run_stats,
                      theorem_non_match_bounds, write_metrics_csv)
from .deviation import (DeviationSpec, DeviationResult, epsilon_estimate,
                        evaluate_deviation, locality_check)

__version__ = "0.1.0"
