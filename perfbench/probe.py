"""Time one workload's set-up in a fresh interpreter.

Usage: ``python3 perfbench/probe.py WORKLOAD SEED``.  Prints one JSON line
``{"setup_s": ...}``: real seconds from the start of this script to the
moment the first engine step would begin — imports, the graph (dataset
load or ``rmat``), partitioning, config and engine/session construction.
"""

import time

STARTED = time.perf_counter()

import json  # noqa: E402
import sys  # noqa: E402

import pin  # noqa: E402


def main(argv) -> int:
    workload, seed = argv[0], int(argv[1])
    pin.pin_environment()
    import cases

    cases.prepare(workload, seed)
    print(json.dumps({"setup_s": time.perf_counter() - STARTED}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
