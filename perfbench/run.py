"""Wall-clock benchmark of the Forerunner reproduction.

Usage (from the repository root)::

    python3 perfbench/run.py --workload l1_replay --seed 1 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics: the workload's main call
is repeated on the same inputs until ``--seconds`` have passed, with
timers only at block, transaction and request boundaries.  ``--trace 1``
alternates untraced calls with calls that record a span at every layer
boundary, and reports per-layer calls, self time, ratios and the
tracing overhead.  Both check every state root and exit 1 when a check
fails; exit 2 means the program could not be imported.  The last line
of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import List, Optional

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        import bench
        from workloads import WORKLOADS
    except ImportError as exc:
        print(f"cannot import the program from {sys.path[0]}: {exc}",
              file=sys.stderr)
        return 2
    workload = WORKLOADS.get(args.workload)
    if workload is None:
        print(f"unknown workload {args.workload!r}; choose from "
              f"{sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    if args.trace:
        result, lines = bench.trace(workload, args.seed, args.seconds,
                                    spans_dir=os.path.join(HERE, "out"))
    else:
        result, lines = bench.measure(workload, args.seed, args.seconds)
    print("\n".join(lines))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
