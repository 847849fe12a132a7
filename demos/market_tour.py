"""A guided tour of one simulated residency market.

Builds a 600-doctor market, walks through one doctor's cone and interview
choices, runs the doctor-proposing deferred acceptance, and summarizes the
outcome against the r(d)+2 / r(h)+1 benchmarks.
"""

import numpy as np

from conematch import (build_preferences, compute_cone, doctor_proposing_da,
                       find_blocking_pairs, generate, make_config,
                       run_stats, select_interviews)

# 600 doctors, 120 hospitals with 5 seats each, 4 interviews per doctor,
# cone half-width a*alpha = 0.3
cfg = make_config(600, kappa=5, k=4, cone_override=0.3, seed=7)
inst = generate(cfg, run_index=0)
print(f"market: {cfg.n_doctors} doctors, {cfg.n_hospitals} hospitals x "
      f"{cfg.kappa} seats, k={cfg.k}, cone half-width {inst.half_width}")

# one doctor's view of the market
d = int(np.argsort(inst.doctor_ratings)[300])     # a median doctor
cone = compute_cone(inst, d)
print(f"\ndoctor {d}: rating {inst.doctor_ratings[d]:.3f}, "
      f"cone [{cone.low:.3f}, {cone.high:.3f}) holding "
      f"{len(cone.member_hospitals)} hospitals")

assignment = select_interviews(inst)
chosen = assignment.doctor_list(d)
print(f"she interviews at {chosen} (her top-{cfg.k} in-cone private values)")
for h in chosen:
    print(f"  hospital {h}: rating {inst.hospital_ratings[h]:.3f}, "
          f"her utility {assignment.u_doc[assignment.edge_index([d], [h])[0]]:.3f}")

# both sides rank their interview partners by utility, then DA matches
doctor_prefs, hospital_prefs = build_preferences(assignment)
matching = doctor_proposing_da(doctor_prefs, hospital_prefs, inst.capacities)
print(f"\ndoctor {d} matched to {matching.doctor_of[d]}")

blocking = find_blocking_pairs(assignment, matching)
print(f"blocking pairs: {len(blocking)} (deferred acceptance is stable)")

stats = run_stats(assignment, matching)
matched = stats.doctor_matched
print(f"\nmatch rate: {matched.mean():.1%} of doctors, "
      f"{stats.hospital_fully_matched.mean():.1%} of hospitals fully matched")
print(f"mean matched-doctor loss vs r(d)+2: "
      f"{stats.doctor_loss[matched].mean():.3f}")
print(f"mean filled-hospital loss vs r(h)+1: "
      f"{np.nanmean(stats.hospital_loss):.3f}")
