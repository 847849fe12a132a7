"""Double-cut DA harness walk-through.

Runs a truncated DA around a focal doctor, reads the surplus report,
verifies the full run dominates the truncated one, and compares the
empirical no-proposal frequency with the independent-proposal oracle.
"""

import numpy as np

from conematch import (build_assignment, build_preferences, generate,
                       hospital_proposing_da, make_config)
from conematch.double_cut import (independent_proposal_oracle,
                                  interval_preprocess, receivers_dominate,
                                  run_double_cut, scenario_for_doctor,
                                  scenario_for_interval)

cfg = make_config(2000, kappa=5, k=5, cone_override=0.3, seed=11)
inst = generate(cfg, 0)
asg = build_assignment(inst)
prefs = build_preferences(asg)

# focal doctor near the 60th percentile of ratings
focal = int(np.argsort(inst.doctor_ratings)[1200])
scenario = scenario_for_doctor(inst, focal)
print(f"focal doctor {focal} (rating {inst.doctor_ratings[focal]:.3f})")
print(f"  hospitals with rating >= {scenario.proposer_threshold:.3f} propose;")
print(f"  in-cone proposers stop below utility {scenario.utility_floor:.3f}")

matching, report = run_double_cut(inst, asg, scenario, prefs)
print(f"\nsurplus report: participants {report.participants_each_side}, "
      f"surplus {report.surplus}, proposals to focal "
      f"{report.proposals_to_focal}, matched {report.focal_matched}")

# hospitals propose around a focal doctor: the full run is hospital-proposing
full = hospital_proposing_da(*prefs, inst.capacities)
print("full run dominates the truncated run:",
      receivers_dominate(asg, scenario.orientation, asg.matched_edges(full),
                         asg.matched_edges(matching)))

# the independent-proposal oracle for "focal receives nothing"
cone_size = inst.hospitals_in_band(
    inst.doctor_ratings[focal] - inst.half_width,
    inst.doctor_ratings[focal] + inst.half_width).size
s = max(1, int(inst.alpha_eff * cfg.n_doctors / cfg.kappa))
mc, closed = independent_proposal_oracle(s, int(cone_size), cfg.k,
                                         inst.alpha_eff, psi=1.0, trials=50000)
print(f"\noracle no-proposal probability: closed form {closed:.3f}, "
      f"Monte Carlo {mc:.3f}  (s={s}, |C(d)|={cone_size})")

# interval preprocessing: remove hospitals whose first proposal into the
# interval would not be uniform.  The valid interval widths shrink fast
# with edge density, so this uses unit capacities and a narrow interval.
cfg1 = make_config(2000, kappa=1, k=5, cone_override=0.3, seed=11)
inst1 = generate(cfg1, 0)
asg1 = build_assignment(inst1)
prefs1 = build_preferences(asg1)
f, g = 0.55, 0.55 + 0.2 * inst1.alpha_eff
pre = interval_preprocess(inst1, asg1, (f, g))
print(f"\ninterval I=[{f:.3f},{g:.3f}): |I|={pre.i_size} -> |I'|="
      f"{pre.i_prime_size}, |L|={pre.l_size} -> |L'|={pre.l_prime_size}")
iscn = scenario_for_interval(inst1, asg1, (f, g))
_, ireport = run_double_cut(inst1, asg1, iscn, prefs1)
print(f"interval run: surplus {ireport.surplus}, matched fraction in I "
      f"{ireport.focal_utility:.2f}")
