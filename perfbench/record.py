#!/usr/bin/env python3
"""Record the expected outputs every benchmark pass is checked against.

    python3 perfbench/record.py

Writes expected.json: the sha256 and size of each sweep workload's
Report.to_json(), and the answer (witness or null) to every claim in the
search pool.  The report is byte-for-byte part of topoideal's contract,
so these are recorded once and re-recorded only when that contract is
meant to change.
"""

import json
import sys

import workloads as wl
from run import load_package
from tracing import NullTracer


def main() -> int:
    load_package()
    from topoideal.verify import find_counterexample

    sweeps = {}
    for name in wl.SWEEPS:
        result = wl.run_sweep(name, NullTracer())
        text = result.report.to_json()
        sweeps[name] = {"sha256": wl.digest(text), "bytes": len(text.encode()),
                        "units": result.units}
        print(f"{name}: {sweeps[name]}", file=sys.stderr)
    search = {}
    for claim in wl.search_pool():
        w = find_counterexample(*claim)
        search[wl.claim_key(claim)] = None if w is None else json.loads(wl.witness_json(w))
    with open(wl.EXPECTED_PATH, "w", encoding="utf-8") as handle:
        json.dump({"sweeps": sweeps, "search": search}, handle, indent=1, sort_keys=True)
        handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
