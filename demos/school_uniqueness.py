"""School choice: one stable matching, found from either side.

Schools rank students purely by public rating, which collapses the stable
set to a single matching: student-proposing and school-proposing DA agree
exactly.  The rural-hospital invariant (same matched students, same fill
counts) holds across orientations in every setting.
"""

from conematch import (build_assignment, build_preferences,
                       doctor_proposing_da, generate, hospital_proposing_da,
                       make_config, orientations_coincide,
                       rural_hospital_invariant)

for n, kappa in ((200, 2), (2000, 5)):
    cfg = make_config(n, kappa=kappa, k=5, cone_override=0.3, seed=n,
                      setting="SchoolChoice")
    inst = generate(cfg, 0)
    asg = build_assignment(inst)
    prefs = build_preferences(asg)

    student_side = doctor_proposing_da(*prefs, inst.capacities)
    school_side = hospital_proposing_da(*prefs, inst.capacities)
    same = student_side.key() == school_side.key()
    print(f"n={n:>4}, kappa={kappa}: orientations identical: {same}; "
          f"uniqueness check: {orientations_coincide(student_side, school_side)}; "
          f"rural invariant: "
          f"{rural_hospital_invariant(student_side, school_side)}")

# contrast: a residency market, where the stable set can have several
# matchings and the two orientations pick its opposite ends
cfg = make_config(200, kappa=2, k=4, cone_override=0.3, seed=1)
inst = generate(cfg, 0)
asg = build_assignment(inst)
prefs = build_preferences(asg)
doctor_side = doctor_proposing_da(*prefs, inst.capacities)
hospital_side = hospital_proposing_da(*prefs, inst.capacities)
same = doctor_side.key() == hospital_side.key()
print(f"\nresidency n=200: orientations identical: {same} "
      f"(no uniqueness guarantee); rural invariant still holds: "
      f"{rural_hospital_invariant(doctor_side, hospital_side)}")
