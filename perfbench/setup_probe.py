"""Time one cold set-up in a fresh process and print it in seconds.

Set-up is what every CLI run pays before its first result: importing
topoideal and filling the enumeration caches the workload uses.

    python3 perfbench/setup_probe.py SRC_DIR WORKLOAD
"""

import sys
import time

from workloads import warm

if __name__ == "__main__":
    src, workload = sys.argv[1], sys.argv[2]
    started = time.perf_counter()
    sys.path.insert(0, src)
    import topoideal

    warm(topoideal, workload)
    print(repr(time.perf_counter() - started))
