"""The benchmark's workloads, each built as one ``cli.Campaign``.

A workload is a list of flat JSON configs in the CLI's ``--config`` format
(list values are crossed by ``cli.expand_grid``) plus extra ``Campaign``
fields.  The benchmark seed becomes every config's ``seed``; nothing else
about the inputs depends on it.  The README in this directory says why each
workload was chosen.

Importing this module imports numpy and conematch, which is the import cost
``setup_s`` measures; callers put ``src/`` on ``sys.path`` first.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List

from conematch import cli

DEFAULT_SEED = 42      # the seed whose CSV digests are pinned in digests.json
CONE = 0.3             # cone half-width a*alpha of the bundled presets


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    grids: List[dict]
    options: Dict[str, object]
    pinned: bool = True        # False for the reduced smoke-test sizes

    def campaign(self, seed: int, out_dir: Path) -> cli.Campaign:
        configs = []
        for grid in self.grids:
            configs.extend(cli.expand_grid(dict(grid, seed=seed,
                                                cone_override=CONE)))
        return cli.Campaign(configs=configs, out_dir=out_dir, **self.options)

    def markets(self, campaign: cli.Campaign) -> int:
        """Markets per campaign: one per (config, run_index)."""
        return sum(cfg.runs for cfg in campaign.configs)


def _define(n: int, runs: int, wide_runs: int, focals: int, replicates: int,
            pinned: bool) -> Dict[str, Workload]:
    res = dict(n_doctors=n, capacity=5)
    return {w.name: w for w in (
        Workload(
            "paper-campaign",
            "the figure campaign: both interview protocols and every audit",
            [dict(res, setting="Residency", k=[5, 12], runs=runs),
             dict(res, setting="RequestInterview", k=5, runs=runs),
             dict(res, setting="SchoolChoice", k=5, runs=runs)],
            # every run audited: with a sampled share, the number of audited
            # runs, about 0.1 s each, would change with the seed
            dict(audit_sample=1.0), pinned),
        Workload(
            "wide-cone",
            "kappa=1: five times the cone members, interview selection dominates",
            [dict(n_doctors=n, capacity=1, setting="Residency", k=5,
                  runs=wide_runs)],
            {}, pinned),
        Workload(
            "deviation-grid",
            "epsilon-Nash probes: full DA re-runs dominate, selection is minor",
            [dict(res, setting="Residency", k=5, runs=1)],
            dict(deviation_focals=focals, deviation_replicates=replicates),
            pinned),
    )}


WORKLOADS = _define(n=2000, runs=1, wide_runs=1, focals=8, replicates=3,
                    pinned=True)
# the same shapes at a size that runs in well under a second
TINY = _define(n=120, runs=2, wide_runs=1, focals=2, replicates=2,
               pinned=False)
