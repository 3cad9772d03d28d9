"""Time one workload's set-up in a fresh process.

    python3 perfbench/probe.py WORKLOAD

Runs the reference imports once, then the set-up (from before the first
import of the program to after its surfaces and evaluators are built),
then the reference imports twice more, each on the modules present before
the set-up, and prints the set-up time in seconds at the reference speed
(``measure.setup_in_seconds``).
"""

import sys
import time

import measure
import workloads


def main(name):
    workload = workloads.WORKLOADS[name]()
    keep = set(sys.modules)
    refs = [measure.reference_imports()]
    started = time.process_time()
    workload.setup()
    setup_cpu = time.process_time() - started
    measure.forget_modules(keep)
    refs += [measure.reference_imports() for _ in range(2)]
    print(measure.setup_in_seconds(setup_cpu, refs))


if __name__ == "__main__":
    main(sys.argv[1])
