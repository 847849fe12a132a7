"""Benchmark entry point; run from the repository root:

    python3 perfbench/run.py --workload paper-campaign --seed 42 --seconds 20 --trace 0

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  Exits 0 when every
check passed, 1 when one failed, 2 when the conematch sources are missing.
"""

import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"

if __name__ == "__main__":
    # build from this checkout's sources, never from an installed copy
    if not (SRC / "conematch" / "__init__.py").is_file():
        print(f"perfbench: no conematch sources under {SRC}", file=sys.stderr)
        sys.exit(2)
    sys.path[:0] = [str(SRC), str(HERE)]
    import bench
    sys.exit(bench.main())
