"""Desk-scale reproduction of the match-rate and loss figures.

Runs the n=2000, k=5, kappa=5, cone 0.3 residency campaign (20 runs here;
pass --runs 100 for the full version), groups agents in tens by public
rating rank, and writes the plot-ready CSV plus PNG figures with 10/90%
whiskers.
"""

import argparse
from pathlib import Path

import numpy as np

from conematch import (aggregate, build_assignment, build_preferences,
                       doctor_proposing_da, generate, group_run, make_config,
                       run_stats, write_metrics_csv)
from conematch.metrics import (DOCTOR_LOSS, DOCTOR_MATCH_RATE,
                               HOSPITAL_FULL_RATE, HOSPITAL_LOSS)

parser = argparse.ArgumentParser()
parser.add_argument("--runs", type=int, default=20)
parser.add_argument("--out", type=Path, default=Path("demo_out"))
args = parser.parse_args()
args.out.mkdir(exist_ok=True)

cfg = make_config(2000, kappa=5, k=5, cone_override=0.3, seed=42,
                  runs=args.runs)
groups = []
for r in range(args.runs):
    inst = generate(cfg, r)
    asg = build_assignment(inst)
    prefs = build_preferences(asg)
    matching = doctor_proposing_da(*prefs, inst.capacities)
    groups.append(group_run(run_stats(asg, matching, check_stability=False),
                            group_size=10))
    if (r + 1) % 10 == 0:
        print(f"run {r + 1}/{args.runs}")

series = aggregate(groups)
csv_path = args.out / "residency_2000_k5_kap5.csv"
write_metrics_csv(csv_path, series, cfg, inst.half_width)
print(f"wrote {csv_path}")

# quick textual read-out of the trend the figures show
s = series[DOCTOR_MATCH_RATE]
print("\ndoctor match rate by rank (grouped means):")
for lo in range(0, s.mean.size, 40):
    block = s.mean[lo:lo + 40]
    print(f"  ranks {lo * 10 + 1:>5}-{min((lo + 40) * 10, 2000):>5}: "
          f"{np.nanmean(block):.3f}")

try:
    import matplotlib
    matplotlib.use("Agg")
    import matplotlib.pyplot as plt
except ImportError:
    print("matplotlib not installed; skipping figures")
else:
    panels = [(DOCTOR_MATCH_RATE, "Doctor matching rate"),
              (HOSPITAL_FULL_RATE, "Hospital fully-matched rate"),
              (DOCTOR_LOSS, "Doctor loss"),
              (HOSPITAL_LOSS, "Hospital loss")]
    for metric, title in panels:
        g = series[metric]
        x = (g.group_lo + g.group_hi) / 2.0
        fig, ax = plt.subplots(figsize=(7, 4))
        ax.errorbar(x, g.mean, yerr=[g.mean - g.p10, g.p90 - g.mean],
                    fmt="-", lw=1.2, ecolor="0.7", elinewidth=0.8)
        ax.set_xlabel("rank by public rating (grouped in 10s)")
        ax.set_title(f"{title}, n=2000, k=5, kappa=5, cone 0.3")
        fig.tight_layout()
        png = args.out / f"{metric}.png"
        fig.savefig(png, dpi=120)
        plt.close(fig)
        print(f"wrote {png}")
