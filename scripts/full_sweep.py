#!/usr/bin/env python3
"""Run the whole theorem registry exhaustively and print the reports.

Default scales: every set-level check over all labeled topologies and
ideals on 5 points (222,144 spaces), every map-level check (including
composition pairs) on 3 points.  A passing check is proven on one space
per relabeling orbit (2,902 on 5 points), so single-threaded the set level
takes about 1 s and the map level under 0.1 s, and the whole script 1-1.5 s
(2-vCPU host, Python 3.11); --jobs partitions the sweeps across processes.
"""

import argparse
import sys

from topoideal.verify import REGISTRY, run_theorem_suite


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--set-points", type=int, default=5)
    parser.add_argument("--map-points", type=int, default=3)
    parser.add_argument("--jobs", type=int, default=1)
    args = parser.parse_args()

    set_selection = [cid for cid, check in REGISTRY.items()
                     if check.scope.startswith("set")]
    map_selection = [cid for cid, check in REGISTRY.items()
                     if check.scope.startswith("map")]

    ok = True
    for label, bound, selection in (
            ("set-level", args.set_points, set_selection),
            ("map-level", args.map_points, map_selection)):
        report = run_theorem_suite(bound, selection, jobs=args.jobs,
                                   allow_large=True)
        print(f"== {label} suite ==")
        print(report.to_text())
        print()
        ok = ok and report.passed
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
