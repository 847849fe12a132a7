"""Set-up probe: import numpy and conematch, build one workload's campaign,
then print ``ready``.  ``run.py`` times this process from launch to that line.

Usage: python3 perfbench/setup_probe.py <workload> <seed>
"""

import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import workloads  # noqa: E402  (imports numpy and conematch)

workloads.WORKLOADS[sys.argv[1]].campaign(int(sys.argv[2]),
                                          HERE.parent / ".perfbench" / "probe")
print("ready", flush=True)
